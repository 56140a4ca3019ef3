//! Seeded workload inputs. The program receives only what these
//! functions generate.
//!
//! Every sweep and every working set follows a fixed template of slots
//! (node count, job count, block size, arrival kind, size band); the
//! seed draws the exact input sizes inside each band, the stagger
//! intervals, rates, thresholds and simulator seeds, and rotates the
//! job kinds through the slots. Per-point cost therefore has the same
//! distribution on every seed, which keeps run-to-run spread low while
//! no two seeds share an input.

use std::collections::HashSet;

use mapreduce_sim::{SchedulerPolicy, MB};
use mr2_scenario::{
    ArrivalSchedule, Backends, EvalPoint, JobKind, MixEntry, Scenario, SweepMode, WorkloadMix,
};

use crate::util::Rng;

const KINDS: [JobKind; 3] = [JobKind::WordCount, JobKind::TeraSort, JobKind::Grep];

/// Points per `paper_sweep` sweep and per `sim_sweep` sweep.
pub const SWEEP_POINTS: usize = 16;

/// Input sizes already handed out in this run: every mix entry of a
/// run gets its own size, so no two points share a profile, a model
/// input or a simulator run, and the solve memo can never hit.
#[derive(Default)]
pub struct Sizes(HashSet<u64>);

impl Sizes {
    /// A fresh size (bytes, whole MiB) within ±3% of `target_mb`; the
    /// band widens by another 3% whenever 64 draws in a row are taken,
    /// so a very long run still terminates.
    fn draw(&mut self, rng: &mut Rng, target_mb: u64) -> u64 {
        let step = (target_mb * 3 / 100).max(1);
        let mut spread = step;
        loop {
            for _ in 0..64 {
                let mb = rng.range(target_mb.saturating_sub(spread).max(1), target_mb + spread);
                if self.0.insert(mb) {
                    return mb * MB;
                }
            }
            spread += step;
        }
    }
}

/// A mix of `jobs` concurrent jobs totalling about `total_mb`: one entry
/// per job up to three entries (counts 1 / 1+1 / 2+1 / 2+1+1), kinds
/// rotating with `rot` so every kind takes every slot equally often.
fn mix(rng: &mut Rng, sizes: &mut Sizes, jobs: usize, total_mb: u64, rot: u64) -> WorkloadMix {
    let counts: &[usize] = match jobs {
        1 => &[1],
        2 => &[1, 1],
        3 => &[2, 1],
        _ => &[2, 1, 1],
    };
    let entries: Vec<MixEntry> = counts
        .iter()
        .enumerate()
        .map(|(e, &count)| {
            let kind = KINDS[((rot + e as u64) % 3) as usize];
            let per_job_mb = total_mb / jobs as u64;
            MixEntry::new(kind, sizes.draw(rng, per_job_mb), count)
        })
        .collect();
    WorkloadMix::new(entries)
}

/// Sweep `i` of a `paper_sweep` run: 16 configurations around the
/// paper's testbed (4–12 nodes, 1–8 GB in total, 1–4 jobs of mixed
/// kinds, 64 and 128 MB blocks, batch and staggered arrivals), zipped
/// into one scenario with the paper's method: profile-calibrated model
/// plus a 5-rep simulator median.
pub fn paper_sweep(seed: u64, i: u64, sizes: &mut Sizes) -> Scenario {
    let mut rng = Rng::new(seed, 0x1000 + i);
    let (mut nodes, mut blocks, mut mixes, mut arrivals) = (vec![], vec![], vec![], vec![]);
    for k in 0..SWEEP_POINTS as u64 {
        let jobs = 1 + (k % 4) as usize;
        nodes.push([4usize, 6, 8, 10, 12][(k % 5) as usize]);
        blocks.push(if (k / 4) % 2 == 0 { 128 } else { 64 });
        mixes.push(mix(
            &mut rng,
            sizes,
            jobs,
            1024 + k * 7168 / 15,
            seed + i + k,
        ));
        arrivals.push(if k % 3 == 2 && jobs >= 2 {
            ArrivalSchedule::Staggered {
                interval_ms: rng.range(10_000, 60_000),
            }
        } else {
            ArrivalSchedule::Batch
        });
    }
    Scenario::new(format!("paper-{i}"))
        .sweep_mode(SweepMode::Zip)
        .axis_nodes(nodes)
        .axis_block_mb(blocks)
        .axis_mixes(mixes)
        .axis_arrivals(arrivals)
        .with_backends(Backends::default())
        .with_seed(rng.range(1, 1 << 40))
}

/// Simulator repetitions per `sim_sweep` point.
pub const SIM_REPS: usize = 2;

/// Sweep `i` of a `sim_sweep` run: 16 simulator-only what-if points at
/// 12–48 nodes with 16–64 GB (about 4/3 GB per node) of 2–4 mixed jobs,
/// alternating the capacity and fair schedulers, map-failure
/// probability, a straggler node and staggered arrivals.
pub fn sim_sweep(seed: u64, i: u64, sizes: &mut Sizes) -> Scenario {
    let mut rng = Rng::new(seed, 0x2000 + i);
    let (mut nodes, mut scheds, mut fail, mut slow, mut mixes, mut arrivals) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for k in 0..SWEEP_POINTS as u64 {
        let n = [12usize, 24, 36, 48][(k % 4) as usize];
        nodes.push(n);
        scheds.push(if (k / 4) % 2 == 0 {
            SchedulerPolicy::CapacityFifo
        } else {
            SchedulerPolicy::Fair
        });
        fail.push(if k / 8 == 1 {
            rng.uniform(0.02, 0.08)
        } else {
            0.0
        });
        slow.push(if k % 3 == 1 {
            rng.uniform(1.5, 3.0)
        } else {
            1.0
        });
        let jobs = 2 + (k % 3) as usize;
        mixes.push(mix(
            &mut rng,
            sizes,
            jobs,
            n as u64 * 4096 / 3,
            seed + i + k,
        ));
        arrivals.push(if (k / 2) % 2 == 1 {
            ArrivalSchedule::Staggered {
                interval_ms: rng.range(5_000, 30_000),
            }
        } else {
            ArrivalSchedule::Batch
        });
    }
    Scenario::new(format!("sim-{i}"))
        .sweep_mode(SweepMode::Zip)
        .axis_nodes(nodes)
        .axis_schedulers(scheds)
        .axis_map_failure_prob(fail)
        .axis_slow_node_factor(slow)
        .axis_mixes(mixes)
        .axis_arrivals(arrivals)
        .with_backends(Backends {
            analytic: false,
            profile_calibration: false,
            simulator: Some(SIM_REPS),
        })
        .with_seed(rng.range(1, 1 << 40))
}

/// Which endpoint a request goes to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Endpoint {
    Estimate,
    Plan,
    Scenario,
}

impl Endpoint {
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Estimate => "/v1/estimate",
            Endpoint::Plan => "/v1/plan",
            Endpoint::Scenario => "/v1/scenario",
        }
    }
}

/// One service request: its endpoint, JSON body and the full HTTP/1.1
/// bytes a keep-alive client sends.
#[derive(Clone)]
pub struct Req {
    pub endpoint: Endpoint,
    pub body: String,
    pub http: Vec<u8>,
}

impl Req {
    pub fn new(endpoint: Endpoint, body: String) -> Req {
        let http = format!(
            "POST {} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            endpoint.path(),
            body.len()
        )
        .into_bytes();
        Req {
            endpoint,
            body,
            http,
        }
    }
}

fn mix_json(entries: &[MixEntry]) -> String {
    let items: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "{{\"job\":\"{}\",\"input_bytes\":{},\"count\":{}}}",
                e.job.name(),
                e.input_bytes,
                e.count
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn arrivals_json(a: &ArrivalSchedule) -> String {
    match a {
        ArrivalSchedule::Staggered { interval_ms } => format!("{{\"staggered_ms\":{interval_ms}}}"),
        _ => "\"batch\"".into(),
    }
}

/// The `/v1/estimate` body that asks the service for `p` with
/// `backends` (how the traced mode sends a sweep's own points through
/// the service layers).
pub fn estimate_body(p: &EvalPoint, backends: &Backends) -> String {
    let entries: Vec<MixEntry> = p
        .mix
        .entries
        .iter()
        .map(|e| MixEntry::new(e.job, e.input_bytes, e.count))
        .collect();
    let mut body = format!(
        "{{\"nodes\":{},\"block_mb\":{},\"scheduler\":\"{}\",\"mix\":{},\"arrivals\":{},\"map_failure_prob\":{},\"slow_node_factor\":{},\"seed\":{}",
        p.nodes,
        p.block_mb,
        match p.scheduler {
            SchedulerPolicy::CapacityFifo => "capacity_fifo",
            SchedulerPolicy::Fair => "fair",
        },
        mix_json(&entries),
        arrivals_json(&p.arrivals),
        p.map_failure_prob,
        p.slow_node_factor,
        p.seed
    );
    if let Some(rate) = p.arrival_rate {
        body.push_str(&format!(",\"arrival_rate\":{rate}"));
    }
    body.push_str(&format!(
        ",\"backends\":{{\"analytic\":{},\"profile_calibration\":{},\"simulator\":{}}}}}",
        backends.analytic,
        backends.profile_calibration,
        backends
            .simulator
            .map_or("null".to_string(), |r| r.to_string())
    ));
    body
}

/// A `/v1/plan` body for `entries` arriving at a seeded rate, with a
/// seeded mean-response SLO and a 1–32 node search.
pub fn plan_body(rng: &mut Rng, entries: &[MixEntry]) -> String {
    format!(
        "{{\"mix\":{},\"arrival_rate\":{},\"slo\":{{\"metric\":\"response\",\"threshold\":{}}},\"search\":{{\"min_nodes\":1,\"max_nodes\":32}}}}",
        mix_json(entries),
        rng.uniform(2e-4, 1e-3),
        rng.range(150, 600)
    )
}

/// Estimates, plans and scenarios in the `serve_warm` working set.
pub const SET_ESTIMATES: usize = 16;
pub const SET_PLANS: usize = 4;
pub const SET_SCENARIOS: usize = 4;

/// Working set `set` of a `serve_warm` run: 16 estimates (4–12 nodes,
/// 1–4 GB, 1–3 jobs; batch, staggered and open-arrival points), 4
/// capacity plans and 4 small analytic scenarios (2 node counts × 2
/// mixes).
pub fn working_set(seed: u64, set: u64, sizes: &mut Sizes) -> Vec<Req> {
    let mut rng = Rng::new(seed, 0x3000 + set);
    let mut out = Vec::new();
    for k in 0..SET_ESTIMATES as u64 {
        let jobs = 1 + (k % 3) as usize;
        let m = mix(&mut rng, sizes, jobs, 1024 + k * 3072 / 15, seed + set + k);
        let mut body = format!(
            "{{\"nodes\":{},\"block_mb\":{},\"mix\":{},\"seed\":{}",
            [4, 6, 8, 10, 12][(k % 5) as usize],
            if (k / 4) % 2 == 0 { 128 } else { 64 },
            mix_json(&m.entries),
            rng.range(1, 1 << 40)
        );
        if k % 4 == 3 {
            body.push_str(&format!(",\"arrival_rate\":{}", rng.uniform(1e-4, 4e-4)));
        } else if k % 4 == 1 && jobs >= 2 {
            body.push_str(&format!(
                ",\"arrivals\":{{\"staggered_ms\":{}}}",
                rng.range(10_000, 60_000)
            ));
        }
        body.push('}');
        out.push(Req::new(Endpoint::Estimate, body));
    }
    for k in 0..SET_PLANS as u64 {
        let m = mix(
            &mut rng,
            sizes,
            1 + (k % 2) as usize,
            1024 + k * 1024,
            seed + set + k,
        );
        out.push(Req::new(Endpoint::Plan, plan_body(&mut rng, &m.entries)));
    }
    for k in 0..SET_SCENARIOS as u64 {
        let a = mix(&mut rng, sizes, 1, 1024 + k * 512, seed + set + k);
        let b = mix(&mut rng, sizes, 2, 2048 + k * 512, seed + set + k + 1);
        let n = 4 + 2 * k;
        out.push(Req::new(
            Endpoint::Scenario,
            format!(
                "{{\"name\":\"warm-{set}-{k}\",\"nodes\":[{n},{}],\"mixes\":[{},{}],\"backends\":{{\"analytic\":true,\"profile_calibration\":false,\"simulator\":null}},\"seed\":{}}}",
                n + 4,
                mix_json(&a.entries),
                mix_json(&b.entries),
                rng.range(1, 1 << 40)
            ),
        ));
    }
    out
}

/// The seeded request order of the timed phase: `n` indices into a
/// working set, 70% estimates, 15% plans, 15% scenarios.
pub fn request_order(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 0x4000);
    (0..n)
        .map(|_| match rng.range(0, 99) {
            0..=69 => rng.range(0, SET_ESTIMATES as u64 - 1) as usize,
            70..=84 => SET_ESTIMATES + rng.range(0, SET_PLANS as u64 - 1) as usize,
            _ => SET_ESTIMATES + SET_PLANS + rng.range(0, SET_SCENARIOS as u64 - 1) as usize,
        })
        .collect()
}
