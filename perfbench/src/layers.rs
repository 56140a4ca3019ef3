//! The traced mode: the workload's fixed work once more in this
//! process, with the program's counters and span profile read around
//! it, then timers around the public calls into each layer, fed with
//! this workload's own inputs. The same fixed work runs untraced in a
//! child process first, for `obs.trace_overhead_pct`.
//!
//! Every workload reports every layer: a layer its traffic does not
//! reach is driven directly with its inputs (a sweep's points are sent
//! as `/v1/estimate` requests through the service layers; the warm
//! working set's points are solved and simulated directly).

use std::collections::HashMap;
use std::process::Command;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use mapreduce_sim::JobSpec;
use mr2_model::{Calibration, Estimator, MixClass, ModelOptions};
use mr2_scenario::{
    evaluate_point, run_scenario, run_scenario_streaming, Backends, EvalPoint, MixEntry,
    PlanRequest, ResultCache, RunnerConfig, Scenario,
};
use mr2_serve::{api, http};

use crate::gen::{self, Endpoint, Req, Sizes};
use crate::sweep::{self, Stop, Sweep};
use crate::util::{mean, median, ms, us, Counters, Rng};
use crate::{warm, Report, Workload};

/// Points of the workload each direct layer probe uses.
const PROBE_POINTS: usize = 8;
/// Repetitions of each warm in-process call.
const WARM_REPS: usize = 25;
/// Loopback rounds over the probe requests when the workload itself
/// does not talk to the service.
const LOOPBACK_ROUNDS: usize = 50;

/// Run the same fixed work untraced in a fresh child process and return
/// its wall time (seconds) and output digest.
fn untraced_pair(w: Workload, seed: u64) -> Result<(f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--fixed",
        ])
        .output()
        .map_err(|e| format!("spawn untraced pair: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("untraced pair failed:\n{text}"));
    }
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .map(str::trim)
            .ok_or_else(|| format!("untraced pair printed no `{key}`"))
    };
    let wall = field("fixed_wall_s")?
        .parse()
        .map_err(|_| "bad fixed_wall_s".to_string())?;
    Ok((wall, field("digest")?.to_string()))
}

/// What the fixed work left for the probes.
struct Fixed {
    wall: Duration,
    digest: String,
    /// Points whose layers are probed directly.
    points: Vec<EvalPoint>,
    backends: Backends,
    /// Requests sent through the in-process service layers.
    requests: Vec<Req>,
    /// A result cache warm for `points` and `requests`.
    cache: ResultCache,
    /// Loopback latency and queue wait of the workload's own service
    /// traffic, when it has any (µs).
    loopback: Option<(f64, f64)>,
    /// Runner busy share of the workload's own sweeps, when it has any.
    busy_pct: Option<f64>,
}

fn sample<T: Clone>(v: &[T]) -> Vec<T> {
    let step = (v.len() / PROBE_POINTS).max(1);
    v.iter().step_by(step).take(PROBE_POINTS).cloned().collect()
}

pub fn traced(w: Workload, seed: u64) -> Report {
    let mut r = Report::default();
    r.line(format!("workload {}  seed {seed}  traced", w.name()));
    let pair = untraced_pair(w, seed);
    mr2_obs::profile::reset();
    let mut before = Counters::read();
    let fixed = match w.sweep() {
        Some(kind) => fixed_sweeps(&mut r, kind, seed, w.fixed_work()),
        None => fixed_warm(&mut r, seed, &mut before),
    };
    let Some(fixed) = fixed else { return r };
    let after = Counters::read();

    let count = |r: &mut Report, name: &'static str, v: f64| {
        r.line(format!("count {name} {v}"));
        v
    };
    r.line(format!("digest {}", fixed.digest));
    match &pair {
        Ok((wall, digest)) => {
            if *digest != fixed.digest {
                r.fail("traced outputs differ from the untraced run's");
            }
            r.metric(
                "obs.trace_overhead_pct",
                (fixed.wall.as_secs_f64() - wall) / wall * 100.0,
                "%",
            );
        }
        Err(e) => r.fail(e.clone()),
    }
    print_profile(&mut r);

    // Deterministic counts of the fixed work.
    let hits = count(
        &mut r,
        "scenario.cache_hits",
        after.since(&before, "mr2_cache_hits_total"),
    );
    let misses = count(
        &mut r,
        "scenario.cache_misses",
        after.since(&before, "mr2_cache_misses_total"),
    );
    let memo_hits = count(
        &mut r,
        "model.memo_hits",
        after.since(&before, "mr2_endpoint_memo_hits_total"),
    );
    let solves = count(
        &mut r,
        "model.solves",
        after.since(&before, "mr2_endpoint_memo_misses_total"),
    );
    count(
        &mut r,
        "model.solver_iters_total",
        after.since(&before, "mr2_solver_iterations_total"),
    );
    count(
        &mut r,
        "queueing.mva_iters_total",
        after.since(&before, "mr2_mva_iterations_total"),
    );
    count(
        &mut r,
        "sim.events_total",
        after.since(&before, "mr2_sim_events_total"),
    );
    if w == Workload::PaperSweep && memo_hits > 0.0 {
        r.fail(format!(
            "{memo_hits} solve-memo hits in a fresh process on distinct inputs"
        ));
    }
    r.metric("scenario.cache_hits", hits, "count");
    r.metric("scenario.cache_misses", misses, "count");
    r.metric("model.solves", solves, "count");
    r.metric("model.memo_hits", memo_hits, "count");

    model_probe(&mut r, &fixed);
    sim_probe(&mut r, &fixed);
    scenario_probe(&mut r, &fixed);
    serve_probe(&mut r, &fixed);
    r
}

/// The program's own span profile of the fixed work: total time and
/// count per span path, slowest first.
fn print_profile(r: &mut Report) {
    let mut entries = mr2_obs::profile::entries();
    entries.sort_by_key(|e| std::cmp::Reverse(e.total_time));
    r.line("program span profile (path, spans, total ms, self ms):");
    for e in entries.iter().take(10) {
        r.line(format!(
            "  {:<40} {:>7} {:>10.2} {:>10.2}",
            e.path.join(">"),
            e.count,
            ms(e.total_time),
            ms(e.self_time)
        ));
    }
}

fn fixed_sweeps(r: &mut Report, kind: Sweep, seed: u64, work: u64) -> Option<Fixed> {
    let cache = ResultCache::new();
    let mut sizes = Sizes::default();
    let first = kind.scenario(seed, 0, &mut sizes);
    let backends = first.backends;
    let out = sweep::run(kind, seed, first, &mut sizes, &cache, Stop::Sweeps(work));
    crate::judge_sweeps(r, kind, &out);
    let points = sample(&out.sample);
    let requests = points
        .iter()
        .map(|p| Req::new(Endpoint::Estimate, gen::estimate_body(p, &backends)))
        .collect();
    Some(Fixed {
        wall: out.wall,
        digest: out.digest.expect("digest").hex(),
        points,
        backends,
        requests,
        cache,
        loopback: None,
        busy_pct: Some(out.busy_ms / (ms(out.wall) * out.threads as f64) * 100.0),
    })
}

fn fixed_warm(r: &mut Report, seed: u64, before: &mut Counters) -> Option<Fixed> {
    let mut sizes = Sizes::default();
    let mut live = match warm::start(seed, 0, &mut sizes) {
        Ok(l) => l,
        Err(e) => {
            r.fail(e);
            return None;
        }
    };
    for e in warm::check_cold(&mut live) {
        r.fail(e);
    }
    mr2_obs::profile::reset();
    *before = Counters::read();
    let out = warm::run(&mut live, seed, None, Workload::ServeWarm.fixed_work());
    let after = Counters::read();
    live.handle.shutdown();
    crate::judge_warm(r, &out);
    let queue_us = after.since(before, "mr2_serve_queue_wait_seconds_sum")
        / after.since(before, "mr2_serve_queue_wait_seconds_count")
        * 1e6;
    let order = gen::request_order(seed, out.requests as usize);
    let requests: Vec<Req> = order.iter().map(|&i| live.reqs[i].clone()).collect();
    let points: Vec<EvalPoint> = live
        .reqs
        .iter()
        .filter(|q| q.endpoint == Endpoint::Estimate)
        .filter_map(|q| api::parse_estimate_request(&q.body).ok())
        .map(|e| e.point)
        .collect();
    Some(Fixed {
        wall: out.wall,
        digest: out.digest.expect("digest").hex(),
        points: sample(&points),
        backends: Backends::analytic_only(),
        requests,
        cache: ResultCache::new(),
        loopback: Some((median(&out.p50_us), queue_us)),
        busy_pct: None,
    })
}

fn classes(p: &EvalPoint, profiled: bool) -> Vec<MixClass> {
    let cfg = p.sim_config();
    p.mix
        .entries
        .iter()
        .map(|e| MixClass {
            spec: e.spec(),
            count: e.count,
            profile: profiled.then(|| mapreduce_sim::profile::profile_job(&e.spec(), &cfg).0),
        })
        .collect()
}

/// `mr2_model::solve` directly (no memo) on both estimators' model
/// inputs of each probe point.
fn model_probe(r: &mut Report, f: &Fixed) {
    let (mut fj, mut tr, mut iters, mut mva) = (vec![], vec![], 0.0, 0.0);
    for p in &f.points {
        let classes = classes(p, f.backends.profile_calibration);
        for estimator in [Estimator::ForkJoin, Estimator::Tripathi] {
            let opts = ModelOptions {
                estimator,
                ..ModelOptions::default()
            };
            let input = mr2_model::mix_model_input(
                &p.sim_config(),
                &classes,
                opts,
                &Calibration::default(),
            );
            let before = Counters::read();
            let t = Instant::now();
            let res = std::hint::black_box(mr2_model::solve(std::hint::black_box(&input)));
            let dt = ms(t.elapsed());
            mva += Counters::read().since(&before, "mr2_mva_iterations_total");
            iters += res.iterations as f64;
            match estimator {
                Estimator::ForkJoin => fj.push(dt),
                Estimator::Tripathi => tr.push(dt),
            }
        }
    }
    let solves = (fj.len() + tr.len()) as f64;
    r.metric(
        "model.solve_ms",
        (fj.iter().sum::<f64>() + tr.iter().sum::<f64>()) / solves,
        "ms",
    );
    r.metric("model.forkjoin_solve_ms", mean(&fj), "ms");
    r.metric("model.tripathi_solve_ms", mean(&tr), "ms");
    r.metric("model.solver_iters", iters / solves, "count");
    r.metric("queueing.mva_iters", mva / solves, "count");
    r.line(format!("count model.solver_iters {}", iters / solves));
    r.line(format!("count queueing.mva_iters {}", mva / solves));
}

/// One simulator repetition and one profiling run per class, directly,
/// on each probe point.
fn sim_probe(r: &mut Report, f: &Fixed) {
    let (mut rep_ms, mut events, mut profile_ms) = (vec![], 0.0, vec![]);
    let before = Counters::read();
    for p in &f.points {
        let cfg = p.sim_config();
        let classes: Vec<(JobSpec, usize)> =
            p.mix.entries.iter().map(|e| (e.spec(), e.count)).collect();
        let submits = p.submit_offsets();
        let c0 = Counters::read();
        let t = Instant::now();
        std::hint::black_box(mapreduce_sim::eval_mix(&cfg, &classes, &submits, 1));
        rep_ms.push(ms(t.elapsed()));
        events += Counters::read().since(&c0, "mr2_sim_events_total");
        for (spec, _) in &classes {
            let t = Instant::now();
            std::hint::black_box(mapreduce_sim::profile::profile_job(spec, &cfg));
            profile_ms.push(ms(t.elapsed()));
        }
    }
    let after = Counters::read();
    let depth = after.since(&before, "mr2_sim_event_heap_depth_sum")
        / after.since(&before, "mr2_sim_event_heap_depth_count");
    let reps = rep_ms.len() as f64;
    r.metric("sim.rep_ms", mean(&rep_ms), "ms");
    r.metric("sim.events", events / reps, "count");
    r.metric(
        "sim.event_ns",
        rep_ms.iter().sum::<f64>() * 1e6 / events,
        "ns",
    );
    r.metric("sim.heap_depth", depth, "count");
    r.metric("sim.profile_ms", mean(&profile_ms), "ms");
    r.line(format!("count sim.events {}", events / reps));
    r.line(format!("count sim.heap_depth {depth}"));
}

/// Median time of `reps` calls of `f`, µs.
fn warm_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            us(t.elapsed())
        })
        .collect();
    median(&v)
}

/// Warm `evaluate_point` lookups, warm capacity plans and the runner's
/// busy share.
fn scenario_probe(r: &mut Report, f: &Fixed) {
    for p in &f.points {
        evaluate_point(p, &f.backends, &f.cache);
    }
    let lookups: Vec<f64> = f
        .points
        .iter()
        .map(|p| {
            warm_us(WARM_REPS, || {
                std::hint::black_box(evaluate_point(p, &f.backends, &f.cache));
            })
        })
        .collect();
    r.metric("scenario.lookup_us", median(&lookups), "us");

    // The workload's own plans, or plans over the probe points' mixes.
    let mut plan_bodies: Vec<String> = f
        .requests
        .iter()
        .filter(|q| q.endpoint == Endpoint::Plan)
        .map(|q| q.body.clone())
        .collect();
    plan_bodies.sort();
    plan_bodies.dedup();
    if plan_bodies.is_empty() {
        let mut rng = Rng::new(0, 0x5000);
        plan_bodies = f
            .points
            .iter()
            .take(4)
            .map(|p| {
                let entries: Vec<MixEntry> = p
                    .mix
                    .entries
                    .iter()
                    .map(|e| MixEntry::new(e.job, e.input_bytes, e.count))
                    .collect();
                gen::plan_body(&mut rng, &entries)
            })
            .collect();
    }
    let plans: Vec<PlanRequest> = plan_bodies
        .iter()
        .filter_map(|b| api::parse_plan_request(b).ok())
        .map(|p| p.plan)
        .collect();
    let (mut plan_us, mut probes, mut feasible) = (vec![], 0.0, 0);
    for p in &plans {
        if let Ok(res) = mr2_scenario::plan(p, &f.cache) {
            probes += res.probes.len() as f64;
            feasible += usize::from(res.feasible);
        }
        plan_us.push(warm_us(WARM_REPS, || {
            let _ = std::hint::black_box(mr2_scenario::plan(p, &f.cache));
        }));
    }
    r.metric("scenario.plan_us", median(&plan_us), "us");
    r.metric("scenario.plan_probes", probes / plans.len() as f64, "count");
    r.line(format!(
        "count scenario.plan_probes {}",
        probes / plans.len() as f64
    ));
    r.line(format!(
        "count scenario.plans_feasible {feasible} of {}",
        plans.len()
    ));

    let busy = f.busy_pct.unwrap_or_else(|| {
        // The working set's scenarios through the runner, warm, on one
        // thread per core.
        let scenarios: Vec<Scenario> = f
            .requests
            .iter()
            .filter(|q| q.endpoint == Endpoint::Scenario)
            .filter_map(|q| api::parse_scenario_request(&q.body).ok())
            .map(|s| s.scenario)
            .collect();
        let threads = sweep::runner_threads();
        let cfg = RunnerConfig { threads };
        let busy = Mutex::new(0.0);
        let mut wall = 0.0;
        for s in &scenarios {
            run_scenario(s, &f.cache, &cfg);
            let last: Mutex<HashMap<ThreadId, Instant>> = Mutex::new(HashMap::new());
            let t = Instant::now();
            run_scenario_streaming(s, &f.cache, &cfg, &|_| {
                let now = Instant::now();
                let mut last = last.lock().expect("observer lock");
                let prev = last.insert(std::thread::current().id(), now).unwrap_or(t);
                drop(last);
                *busy.lock().expect("busy lock") += ms(now - prev);
            });
            wall += ms(t.elapsed()) * threads as f64;
        }
        busy.into_inner().expect("busy lock") / wall * 100.0
    });
    r.metric("scenario.runner_busy_pct", busy, "%");
}

/// Per-request times of the service layers in process, on a warm cache.
#[derive(Default)]
struct ServeLayers {
    parse: Vec<f64>,
    decode: Vec<f64>,
    encode: Vec<f64>,
    render: Vec<f64>,
    total: Vec<f64>,
    bytes: Vec<f64>,
}

fn time<T>(v: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    v.push(us(t.elapsed()));
    out
}

fn serve_in_process(q: &Req, cache: &ResultCache, l: &mut ServeLayers) {
    let t = Instant::now();
    let req = time(&mut l.parse, || {
        let mut parser = http::RequestParser::new();
        parser.feed(&q.http);
        parser.try_next()
    })
    .ok()
    .flatten()
    .expect("benchmark requests are well-formed HTTP");
    let body = std::str::from_utf8(&req.body).expect("UTF-8 body");
    let (mut json, deprecations) = match q.endpoint {
        Endpoint::Estimate => {
            let d = time(&mut l.decode, || api::parse_estimate_request(body)).expect("valid");
            let res = evaluate_point(&d.point, &d.backends, cache);
            (
                time(&mut l.encode, || api::point_json(&res)),
                d.deprecations,
            )
        }
        Endpoint::Plan => {
            let d = time(&mut l.decode, || api::parse_plan_request(body)).expect("valid");
            let res = mr2_scenario::plan(&d.plan, cache).expect("plan answers");
            (
                time(&mut l.encode, || api::plan_json(&d.plan, &res)),
                d.deprecations,
            )
        }
        Endpoint::Scenario => {
            let d = time(&mut l.decode, || api::parse_scenario_request(body)).expect("valid");
            let res = run_scenario(&d.scenario, cache, &RunnerConfig { threads: 1 });
            (time(&mut l.encode, || api::sweep_json(&res)), Vec::new())
        }
    };
    let bytes = time(&mut l.render, || {
        api::stamp_reply(&mut json, &deprecations);
        http::render_response(200, &json.render(), "application/json", false, &[])
    });
    l.total.push(us(t.elapsed()));
    l.bytes.push(bytes.len() as f64);
}

/// HTTP parse, JSON decode, reply encode and render in process, then
/// the loopback remainder.
fn serve_probe(r: &mut Report, f: &Fixed) {
    // One untimed pass warms the cache for every request.
    for q in &f.requests {
        serve_in_process(q, &f.cache, &mut ServeLayers::default());
    }
    let reqs: Vec<&Req> = if f.loopback.is_some() {
        f.requests.iter().collect()
    } else {
        f.requests
            .iter()
            .cycle()
            .take(f.requests.len() * WARM_REPS)
            .collect()
    };
    let mut l = ServeLayers::default();
    for q in &reqs {
        serve_in_process(q, &f.cache, &mut l);
    }
    let (loopback_us, queue_us) = f.loopback.unwrap_or_else(|| loopback(r, &f.requests));
    r.metric("serve.parse_us", median(&l.parse), "us");
    r.metric("serve.decode_us", median(&l.decode), "us");
    r.metric("serve.encode_us", median(&l.encode), "us");
    r.metric("serve.render_us", median(&l.render), "us");
    r.metric("serve.reply_bytes", mean(&l.bytes), "bytes");
    r.metric("serve.queue_wait_us", queue_us, "us");
    r.metric("serve.transport_us", loopback_us - median(&l.total), "us");
    r.line(format!("count serve.reply_bytes {}", mean(&l.bytes)));
    r.line(format!(
        "loopback p50 {loopback_us:.1} us, in-process p50 {:.1} us",
        median(&l.total)
    ));
}

/// Send the probe requests to a fresh service: once cold, then
/// `LOOPBACK_ROUNDS` warm rounds. Returns the warm p50 latency and
/// mean queue wait, µs.
fn loopback(r: &mut Report, requests: &[Req]) -> (f64, f64) {
    let handle = match mr2_serve::serve(warm::config()) {
        Ok(h) => h,
        Err(e) => {
            r.fail(format!("serve: {e}"));
            return (f64::NAN, f64::NAN);
        }
    };
    let mut lat = Vec::new();
    let mut cold = Vec::new();
    let mut before = Counters::read();
    match warm::Client::connect(handle.addr) {
        Ok(mut c) => {
            for round in 0..=LOOPBACK_ROUNDS {
                if round == 1 {
                    before = Counters::read();
                }
                for (i, q) in requests.iter().enumerate() {
                    let t = Instant::now();
                    match c.send(&q.http) {
                        Ok(reply) if reply.status == 200 => {
                            if round == 0 {
                                cold.push(c.body(&reply).to_vec());
                            } else if c.body(&reply) != cold[i].as_slice() {
                                r.fail("warm loopback reply differs from the cold reply");
                            } else {
                                lat.push(us(t.elapsed()));
                            }
                        }
                        Ok(reply) => r.fail(format!("loopback status {}", reply.status)),
                        Err(e) => r.fail(format!("loopback: {e}")),
                    }
                }
            }
        }
        Err(e) => r.fail(format!("connect: {e}")),
    }
    let after = Counters::read();
    handle.shutdown();
    let queue = after.since(&before, "mr2_serve_queue_wait_seconds_sum")
        / after.since(&before, "mr2_serve_queue_wait_seconds_count")
        * 1e6;
    (median(&lat), queue)
}
