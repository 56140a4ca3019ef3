//! End-to-end and per-layer benchmark of the paper sweep, the simulator
//! sweep and warm `mr2-serve` traffic. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <paper_sweep|sim_sweep|serve_warm> --seed <n> --seconds <s> --trace <0|1>
//! perfbench repeat --seed <n> --fresh-seed <m>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics traced).

mod check;
mod gen;
mod layers;
mod repeat;
mod sweep;
mod util;
mod warm;

use std::time::{Duration, Instant};

use mr2_scenario::ResultCache;

use crate::gen::Endpoint;
use crate::gen::Sizes;
use crate::sweep::{Stop, Sweep};
use crate::util::median;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: u64 = 3;

/// Ceilings on the mean absolute deviation of the two estimators from
/// the simulated median, as in `tests/end_to_end.rs`.
const FORKJOIN_CEILING: f64 = 0.40;
const TRIPATHI_CEILING: f64 = 0.50;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    SimSweep,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::SimSweep,
        Workload::ServeWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::SimSweep => "sim_sweep",
            Workload::ServeWarm => "serve_warm",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn sweep(self) -> Option<Sweep> {
        match self {
            Workload::PaperSweep => Some(Sweep::Paper),
            Workload::SimSweep => Some(Sweep::Sim),
            Workload::ServeWarm => None,
        }
    }

    /// The fixed amount of work of a traced run, its untraced pair and
    /// the repeatability check: sweeps, or rounds of requests.
    pub fn fixed_work(self) -> u64 {
        match self {
            Workload::PaperSweep => sweep::ROUND_SWEEPS,
            Workload::SimSweep => sweep::ROUND_SWEEPS,
            Workload::ServeWarm => 50,
        }
    }
}

/// One run's result: the verdict, operation counts, named metrics and
/// human-readable lines printed above the JSON.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub lines: Vec<String>,
}

impl Default for Report {
    fn default() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            lines: Vec::new(),
        }
    }
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Mark the run incorrect with a reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.lines.push(format!("CHECK FAILED: {}", why.into()));
    }

    fn print(&mut self) {
        let broken: Vec<&str> = self
            .metrics
            .iter()
            .filter(|m| !m.1.is_finite())
            .map(|m| m.0)
            .collect();
        if !broken.is_empty() {
            let why = format!("no finite value for {}", broken.join(", "));
            self.fail(why);
        }
        for l in &self.lines {
            println!("{l}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<28} {value:>14.4} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    fixed: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <paper_sweep|sim_sweep|serve_warm> --seed <n> --seconds <s> --trace <0|1> [--fixed]\n       perfbench repeat --seed <n> --fresh-seed <m>"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut a = Args {
        workload: Workload::PaperSweep,
        seed: 1,
        seconds: 10,
        trace: false,
        fixed: false,
    };
    let mut have_workload = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--fixed" {
            a.fixed = true;
            continue;
        }
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                a.workload = Workload::parse(value).unwrap_or_else(|| usage());
                have_workload = true;
            }
            "--seed" => a.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => a.trace = value == "1",
            _ => usage(),
        }
    }
    if !have_workload {
        usage();
    }
    a
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("repeat") {
        std::process::exit(repeat::run(&args[1..]));
    }
    let a = parse_args(&args);
    let mut report = if a.fixed {
        fixed(a.workload, a.seed)
    } else if a.trace {
        layers::traced(a.workload, a.seed)
    } else {
        timed(a.workload, a.seed, Duration::from_secs(a.seconds))
    };
    report.print();
    if !report.correct {
        std::process::exit(1);
    }
}

/// The end-to-end metrics every workload reports, from its set-up
/// times, per-round progress, operation latencies and first-result
/// times.
fn end_to_end(
    r: &mut Report,
    setup_s: &[f64],
    (cpu0_ms, marks): (f64, &[util::Mark]),
    latency_ms: &[f64],
    first_ms: &[f64],
) {
    let windows = util::windows(cpu0_ms, marks, util::WINDOW_S);
    let rate: Vec<f64> = windows.iter().map(|w| w.0).collect();
    let cpu: Vec<f64> = windows.iter().map(|w| w.1).collect();
    r.line(format!(
        "{} windows of at least {} s",
        windows.len(),
        util::WINDOW_S
    ));
    r.metric("setup_s", median(setup_s), "s");
    r.metric("ops_per_s", median(&rate), "1/s");
    r.metric("latency_p50_ms", median(latency_ms), "ms");
    r.metric("first_result_ms", median(first_ms), "ms");
    r.metric("cpu_ms_per_op", median(&cpu), "ms");
    r.metric("peak_rss_mb", util::peak_rss_mb(), "MiB");
}

/// Set up a sweep workload: a fresh result cache and the run's first
/// sweep, generated and expanded.
fn sweep_setup(kind: Sweep, seed: u64) -> (ResultCache, Sizes, mr2_scenario::Scenario) {
    let cache = ResultCache::new();
    let mut sizes = Sizes::default();
    let first = kind.scenario(seed, 0, &mut sizes);
    assert_eq!(mr2_scenario::expand(&first).len(), gen::SWEEP_POINTS);
    (cache, sizes, first)
}

/// Record a sweep run's verdicts and deviations in `r`.
pub fn judge_sweeps(r: &mut Report, kind: Sweep, out: &sweep::Outcome) {
    r.attempted = out.points;
    r.failed = out.failed;
    for e in &out.errors {
        r.fail(e.clone());
    }
    r.line(format!(
        "sweeps {}  points {}  runner threads {}  wall {:.3}s",
        out.sweeps,
        out.points,
        out.threads,
        out.wall.as_secs_f64()
    ));
    if kind == Sweep::Paper {
        let fj = util::mean(&out.fj_dev);
        let tr = util::mean(&out.tr_dev);
        r.line(format!("forkjoin_dev_pct {:.2}", fj * 100.0));
        r.line(format!("tripathi_dev_pct {:.2}", tr * 100.0));
        if fj.is_nan() || fj >= FORKJOIN_CEILING {
            r.fail(format!(
                "fork/join deviation {fj:.3} over {FORKJOIN_CEILING}"
            ));
        }
        if tr.is_nan() || tr >= TRIPATHI_CEILING {
            r.fail(format!(
                "tripathi deviation {tr:.3} over {TRIPATHI_CEILING}"
            ));
        }
    }
}

fn timed(w: Workload, seed: u64, budget: Duration) -> Report {
    let mut r = Report::default();
    r.line(format!("workload {}  seed {seed}  untraced", w.name()));
    let mut setup = Vec::new();
    if let Some(kind) = w.sweep() {
        let mut state = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            state = Some(sweep_setup(kind, seed));
            setup.push(t.elapsed().as_secs_f64());
        }
        let (cache, mut sizes, first) = state.expect("set up at least once");
        let before = util::Counters::read();
        let out = sweep::run(kind, seed, first, &mut sizes, &cache, Stop::After(budget));
        judge_sweeps(&mut r, kind, &out);
        solver_health(&mut r, &before);
        end_to_end(
            &mut r,
            &setup,
            (out.cpu0_ms, &out.marks),
            &out.point_ms,
            &out.first_ms,
        );
        return r;
    }
    let mut sizes = Sizes::default();
    let mut live: Option<warm::Warm> = None;
    for set in 0..SETUP_REPS {
        let t = Instant::now();
        let started = warm::start(seed, set, &mut sizes);
        setup.push(t.elapsed().as_secs_f64());
        let mut new = match started {
            Ok(new) => new,
            Err(e) => {
                r.fail(format!("set-up: {e}"));
                r.attempted = 1;
                r.failed = 1;
                return r;
            }
        };
        for e in warm::check_cold(&mut new) {
            r.fail(e);
        }
        if let Some(old) = live.replace(new) {
            old.handle.shutdown();
        }
    }
    let mut live = live.expect("set up at least once");
    let out = warm::run(&mut live, seed, Some(budget), u64::MAX);
    live.handle.shutdown();
    judge_warm(&mut r, &out);
    let latency_ms: Vec<f64> = out.p50_us.iter().map(|v| v / 1e3).collect();
    let first_ms: Vec<f64> = out.first_byte_us.iter().map(|v| v / 1e3).collect();
    end_to_end(
        &mut r,
        &setup,
        (out.cpu0_ms, &out.marks),
        &latency_ms,
        &first_ms,
    );
    r
}

/// Report the solves and their memo hits since `before`, and how many
/// solves hit the iteration cap without converging. On `paper_sweep` a
/// memo hit means the run was warm by accident.
fn solver_health(r: &mut Report, before: &util::Counters) {
    let now = util::Counters::read();
    let solves = now.since(before, "mr2_endpoint_memo_misses_total");
    let memo_hits = now.since(before, "mr2_endpoint_memo_hits_total");
    let unconverged = now.since(before, "mr2_solver_convergence_failures_total");
    r.line(format!(
        "model solves {solves}  memo hits {memo_hits}  unconverged solves {unconverged}"
    ));
    if memo_hits > 0.0 {
        r.fail(format!(
            "{memo_hits} solve-memo hits in a fresh process on distinct inputs"
        ));
    }
}

/// Record a warm run's verdicts and tail latency in `r`.
pub fn judge_warm(r: &mut Report, out: &warm::Outcome) {
    r.attempted = out.requests;
    r.failed = out.failed;
    for e in &out.errors {
        r.fail(e.clone());
    }
    r.line(format!(
        "requests {}  wall {:.3}s  one keep-alive client, one service worker",
        out.requests,
        out.wall.as_secs_f64()
    ));
    r.line(format!(
        "latency_p99_ms {:.4}  (median over windows of at least {} s)",
        median(&out.p99_us) / 1e3,
        util::WINDOW_S
    ));
    for (e, (sum, n)) in [Endpoint::Estimate, Endpoint::Plan, Endpoint::Scenario]
        .iter()
        .zip(out.by_endpoint)
    {
        r.line(format!(
            "  {:<14} {n:>8} replies, mean latency {:.1} us",
            e.path(),
            sum / n.max(1) as f64
        ));
    }
}

/// The fixed work of a traced run, untraced: prints its wall time and
/// output digest for the traced run that spawned it.
fn fixed(w: Workload, seed: u64) -> Report {
    let mut r = Report::default();
    let (wall, digest) = if let Some(kind) = w.sweep() {
        let (cache, mut sizes, first) = sweep_setup(kind, seed);
        let before = util::Counters::read();
        let out = sweep::run(
            kind,
            seed,
            first,
            &mut sizes,
            &cache,
            Stop::Sweeps(w.fixed_work()),
        );
        judge_sweeps(&mut r, kind, &out);
        solver_health(&mut r, &before);
        (out.wall, out.digest)
    } else {
        let mut sizes = Sizes::default();
        let mut live = match warm::start(seed, 0, &mut sizes) {
            Ok(l) => l,
            Err(e) => {
                r.fail(e);
                return r;
            }
        };
        let out = warm::run(&mut live, seed, None, w.fixed_work());
        live.handle.shutdown();
        judge_warm(&mut r, &out);
        (out.wall, out.digest)
    };
    r.line(format!("fixed_wall_s {}", wall.as_secs_f64()));
    r.line(format!("digest {}", digest.expect("digest").hex()));
    r
}
