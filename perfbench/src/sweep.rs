//! The two sweep workloads: closed loops of whole sweeps through
//! `run_scenario_streaming`, each point checked as it is returned.

use std::cell::Cell;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mr2_scenario::{run_scenario_streaming, EvalPoint, PointResult, ResultCache, RunnerConfig};

use crate::check;
use crate::gen::{self, Sizes};
use crate::util::{ms, process_cpu_ms, Digest, Mark};

/// Which sweep workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// The paper's method: profile-calibrated model + 5-rep simulator
    /// median.
    Paper,
    /// Simulator-only what-if sweeps.
    Sim,
}

impl Sweep {
    pub fn scenario(self, seed: u64, i: u64, sizes: &mut Sizes) -> mr2_scenario::Scenario {
        match self {
            Sweep::Paper => gen::paper_sweep(seed, i, sizes),
            Sweep::Sim => gen::sim_sweep(seed, i, sizes),
        }
    }
}

/// Runner threads of both sweeps: one per core. A single runner thread
/// left a sweep exposed to the host's speed swings on one core (see the
/// README), so both sweeps run the runner's pool at its default size.
pub fn runner_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sweeps per round. The job kinds rotate through the slots with the
/// sweep number, so a round of three sweeps gives every slot every kind
/// once, and every run measures the same mix of work.
pub const ROUND_SWEEPS: u64 = 3;

/// When a run stops: after the round that crosses a time budget, or
/// after a fixed number of sweeps.
#[derive(Clone, Copy)]
pub enum Stop {
    After(Duration),
    Sweeps(u64),
}

/// What a run of sweeps measured and found.
#[derive(Default)]
pub struct Outcome {
    pub sweeps: u64,
    pub points: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Per-point evaluation time (time since the same runner thread's
    /// previous point, or since the sweep started).
    pub point_ms: Vec<f64>,
    /// Per sweep: sweep start to the first streamed point.
    pub first_ms: Vec<f64>,
    /// Sum of `point_ms`.
    pub busy_ms: f64,
    pub wall: Duration,
    pub threads: usize,
    /// Per point: |estimate − simulated median| / simulated median.
    pub fj_dev: Vec<f64>,
    pub tr_dev: Vec<f64>,
    pub digest: Option<Digest>,
    /// The first sweep's points, for the traced mode's layer probes.
    pub sample: Vec<EvalPoint>,
    /// Process CPU at the start, and progress at the end of each round.
    pub cpu0_ms: f64,
    pub marks: Vec<Mark>,
}

thread_local! {
    /// (sweep number, completion time of this thread's last point).
    static LAST: Cell<Option<(u64, Instant)>> = const { Cell::new(None) };
}

fn digest_point(d: &mut Digest, p: &PointResult) {
    if let Some(m) = &p.model {
        for v in [m.fork_join, m.tripathi, m.aria, m.herodotou, m.makespan] {
            d.f64(v);
        }
        for c in &m.per_class {
            for v in [c.fork_join, c.tripathi, c.aria, c.herodotou] {
                d.f64(v);
            }
        }
    }
    if let Some(s) = &p.sim {
        for v in [s.median_response, s.mean_response, s.makespan] {
            d.f64(v);
        }
        for &v in &s.per_class_median {
            d.f64(v);
        }
    }
}

/// Run whole sweeps of `kind` until `stop`, starting with `first`
/// (sweep 0, generated during set-up) and generating the rest on the
/// way.
pub fn run(
    kind: Sweep,
    seed: u64,
    first: mr2_scenario::Scenario,
    sizes: &mut Sizes,
    cache: &ResultCache,
    stop: Stop,
) -> Outcome {
    let cfg = RunnerConfig {
        threads: runner_threads(),
    };
    let mut out = Outcome {
        threads: runner_threads(),
        digest: Some(Digest::new()),
        ..Outcome::default()
    };
    out.cpu0_ms = process_cpu_ms();
    let start = Instant::now();
    let mut next = Some(first);
    for i in 0.. {
        let scenario = next.take().unwrap_or_else(|| kind.scenario(seed, i, sizes));
        let streamed = Mutex::new(Vec::with_capacity(gen::SWEEP_POINTS));
        let sweep_start = Instant::now();
        let sweep = run_scenario_streaming(&scenario, cache, &cfg, &|p| {
            let now = Instant::now();
            let since = LAST.with(|last| {
                let prev = match last.get() {
                    Some((s, t)) if s == i => t,
                    _ => sweep_start,
                };
                last.set(Some((i, now)));
                now - prev
            });
            streamed
                .lock()
                .expect("observer lock")
                .push((now - sweep_start, since, p));
        });
        let mut streamed = streamed.into_inner().expect("observer lock");
        out.first_ms.push(
            streamed
                .iter()
                .map(|s| ms(s.0))
                .fold(f64::INFINITY, f64::min),
        );
        for s in &streamed {
            out.point_ms.push(ms(s.1));
            out.busy_ms += ms(s.1);
        }
        let mut results: Vec<PointResult> = streamed.drain(..).map(|s| s.2).collect();
        let stream_ok = check::streamed_once(&mut results, &sweep);
        for p in &sweep.points {
            let verdict = stream_ok.clone().and_then(|()| match kind {
                Sweep::Paper => {
                    let m = p.model.as_ref().ok_or("no model result")?;
                    check::model_positive(m)?;
                    check::sim_sound(p)
                }
                Sweep::Sim => check::sim_sound(p),
            });
            if let Err(e) = verdict {
                out.failed += 1;
                if out.errors.len() < 5 {
                    out.errors
                        .push(format!("{} point {}: {e}", scenario.name, p.point.index));
                }
            }
            if let (Some(est), Some(sim)) = (p.model.as_ref(), p.sim.as_ref()) {
                out.fj_dev
                    .push((est.fork_join - sim.median_response).abs() / sim.median_response);
                out.tr_dev
                    .push((est.tripathi - sim.median_response).abs() / sim.median_response);
            }
            digest_point(out.digest.as_mut().expect("digest"), p);
        }
        if i == 0 {
            out.sample = sweep.points.iter().map(|p| p.point.clone()).collect();
        }
        out.sweeps += 1;
        out.points += sweep.points.len() as u64;
        if out.sweeps.is_multiple_of(ROUND_SWEEPS) {
            out.marks.push(Mark {
                ops: out.points,
                at: start.elapsed().as_secs_f64(),
                cpu_ms: process_cpu_ms(),
            });
        }
        let done = match stop {
            Stop::After(budget) => {
                out.sweeps.is_multiple_of(ROUND_SWEEPS) && start.elapsed() >= budget
            }
            Stop::Sweeps(n) => out.sweeps >= n,
        };
        if done {
            break;
        }
    }
    out.wall = start.elapsed();
    out
}
