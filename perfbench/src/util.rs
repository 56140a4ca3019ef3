//! Small helpers: a seeded RNG, order statistics, process CPU and
//! memory readings, the program's Prometheus counters, and an output
//! digest for the repeatability check.

use std::collections::BTreeMap;
use std::time::Duration;

/// splitmix64: a tiny seeded generator, so the inputs depend only on
/// `--seed` and on nothing in the program under test.
pub struct Rng(u64);

impl Rng {
    /// A generator for one `stream` (a workload and a sweep or set-up
    /// index) of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; `v` need not be
/// sorted. NaN for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// User plus system CPU of the whole process (every thread, live or
/// joined), in milliseconds, from `/proc/self/stat` (clock ticks of
/// 1/100 s, Linux's fixed `USER_HZ`).
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    ticks as f64 * 10.0
}

/// Shortest window of whole rounds that throughput, CPU per operation
/// and (for service traffic) latency percentiles are measured over; the
/// reported figures are medians over a run's windows. Two seconds keeps
/// the 10 ms CPU clock's rounding under 1%.
pub const WINDOW_S: f64 = 2.0;

/// Progress at the end of one round of a timed phase.
#[derive(Clone, Copy)]
pub struct Mark {
    /// Operations completed so far.
    pub ops: u64,
    /// Seconds since the timed phase began.
    pub at: f64,
    /// Process CPU so far, ms ([`process_cpu_ms`]).
    pub cpu_ms: f64,
}

/// Split a timed phase into windows of consecutive whole rounds, each
/// at least `min_s` long (a short tail joins the window before it), and
/// return each window's operations per second and CPU ms per operation.
/// Medians over these windows are robust to a slow spell of the host
/// that a whole-run average would absorb.
pub fn windows(cpu0_ms: f64, marks: &[Mark], min_s: f64) -> Vec<(f64, f64)> {
    let mut out: Vec<(Mark, Mark)> = Vec::new();
    let mut from = Mark {
        ops: 0,
        at: 0.0,
        cpu_ms: cpu0_ms,
    };
    for &m in marks {
        if m.at - from.at >= min_s {
            out.push((from, m));
            from = m;
        }
    }
    if let Some(&last) = marks.last() {
        match out.last_mut() {
            Some(w) if last.at > w.1.at => w.1 = last,
            None => out.push((from, last)),
            _ => {}
        }
    }
    out.iter()
        .filter(|(a, b)| b.ops > a.ops)
        .map(|(a, b)| {
            let ops = (b.ops - a.ops) as f64;
            (ops / (b.at - a.at), (b.cpu_ms - a.cpu_ms) / ops)
        })
        .collect()
}

/// Peak resident set size of the process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Every sample of the program's metric registry, from its Prometheus
/// text exposition (`mr2_obs::render`), keyed by series (name plus
/// labels).
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    pub fn read() -> Counters {
        let mut m = BTreeMap::new();
        for line in mr2_obs::render().lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    m.insert(series.to_string(), v);
                }
            }
        }
        Counters(m)
    }

    /// The unlabelled series `name` (0 when not registered yet).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `name` now minus `name` in `before`.
    pub fn since(&self, before: &Counters, name: &str) -> f64 {
        self.get(name) - before.get(name)
    }
}

/// FNV-1a over the bit patterns of model and simulator outputs and the
/// bytes of replies: two runs agree exactly when their digests do.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
