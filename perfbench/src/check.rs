//! Output checks. Each compares the program's answer with a bound the
//! benchmark computes itself, with a property the method must have, or
//! with a direct in-process call on the decoded input; none compares
//! with a stored copy of earlier output.

use mapreduce_sim::{JobSpec, SimConfig, MB};
use mr2_model::{Calibration, MixClass, ModelOptions, ModelPoint};
use mr2_scenario::{EvalPoint, PointResult, SloMetric, SweepResult};
use mr2_serve::Json;

/// Share of a job's nominal CPU work the bound counts: the simulator
/// scales each task phase by a lognormal jitter of mean 1 (CV 0.28),
/// so a job's realised work can fall below nominal; half of it is a
/// bound no realisation of a multi-task job gets under.
const JITTER_ALLOWANCE: f64 = 0.5;

/// Work-conservation lower bound on one job's response time, seconds:
/// its map and reduce CPU work divided by the cluster's task capacity.
/// Each container runs one task on at most one core, so the cluster
/// retires at most `nodes × min(containers per node, cores per node)`
/// core-seconds of work per second, however the job is scheduled.
pub fn work_bound(spec: &JobSpec, cfg: &SimConfig) -> f64 {
    let input_mb = spec.input_bytes as f64 / MB as f64;
    let map_work = input_mb * spec.map_cpu_s_per_mb;
    let reduce_work = if spec.reduces == 0 {
        0.0
    } else {
        input_mb * spec.map_output_ratio * spec.reduce_cpu_s_per_mb
    };
    let by_memory = cfg.node_capacity.memory_mb / cfg.container_size.memory_mb.max(1);
    let by_cores = u64::from(cfg.node_capacity.vcores / cfg.container_size.vcores.max(1));
    let per_node = (by_memory.min(by_cores) as f64).min(cfg.cpu_cores);
    JITTER_ALLOWANCE * (map_work + reduce_work) / (cfg.nodes as f64 * per_node)
}

fn positive(name: &str, v: f64) -> Result<(), String> {
    if v.is_finite() && v > 0.0 {
        Ok(())
    } else {
        Err(format!("{name} = {v} is not finite and positive"))
    }
}

/// Every estimate series of a model point, aggregate and per class, is
/// finite and positive.
pub fn model_positive(m: &ModelPoint) -> Result<(), String> {
    positive("fork_join", m.fork_join)?;
    positive("tripathi", m.tripathi)?;
    positive("aria", m.aria)?;
    positive("herodotou", m.herodotou)?;
    positive("makespan", m.makespan)?;
    for c in &m.per_class {
        positive("class fork_join", c.fork_join)?;
        positive("class tripathi", c.tripathi)?;
        positive("class aria", c.aria)?;
        positive("class herodotou", c.herodotou)?;
    }
    Ok(())
}

/// Simulator ground truth of one point: every class median is finite
/// and above its work bound, the mix median above the job-weighted
/// bound, and the makespan at least the slowest class median (per rep,
/// the last finish minus the first submit covers every job's response,
/// and medians keep that order).
pub fn sim_sound(p: &PointResult) -> Result<(), String> {
    let s = p.sim.as_ref().ok_or("no simulator result")?;
    let cfg = p.point.sim_config();
    let mut weighted = 0.0;
    for (e, &median) in p.point.mix.entries.iter().zip(&s.per_class_median) {
        let bound = work_bound(&e.spec(), &cfg);
        positive("class median", median)?;
        if median < bound {
            return Err(format!(
                "class {} median {median:.2}s below its work bound {bound:.2}s",
                e.label()
            ));
        }
        weighted += bound * e.count as f64;
    }
    if s.per_class_median.len() != p.point.mix.entries.len() {
        return Err("per-class medians do not line up with the mix".into());
    }
    let bound = weighted / p.point.total_jobs() as f64;
    if s.median_response.is_nan() || s.median_response < bound {
        return Err(format!(
            "median response {:.2}s below the work bound {bound:.2}s",
            s.median_response
        ));
    }
    let slowest = s.per_class_median.iter().copied().fold(0.0, f64::max);
    if s.makespan.is_nan() || s.makespan < slowest {
        return Err(format!(
            "makespan {:.2}s below the slowest class median {slowest:.2}s",
            s.makespan
        ));
    }
    Ok(())
}

/// Every expanded point was streamed exactly once and equals the point
/// of the same index in the returned sweep.
pub fn streamed_once(streamed: &mut [PointResult], sweep: &SweepResult) -> Result<(), String> {
    streamed.sort_by_key(|p| p.point.index);
    if streamed.len() != sweep.points.len() {
        return Err(format!(
            "{} points streamed for a sweep of {}",
            streamed.len(),
            sweep.points.len()
        ));
    }
    for (i, (got, want)) in streamed.iter().zip(&sweep.points).enumerate() {
        if got.point.index != i || got != want {
            return Err(format!("streamed point {i} differs from the final sweep"));
        }
    }
    Ok(())
}

/// The analytic classes of a point, uncalibrated (what the service's
/// analytic-only backends solve).
pub fn classes(p: &EvalPoint) -> Vec<MixClass> {
    p.mix
        .entries
        .iter()
        .map(|e| MixClass {
            spec: e.spec(),
            count: e.count,
            profile: None,
        })
        .collect()
}

/// The model's answer for `p` from a direct in-process call.
pub fn direct_model(p: &EvalPoint) -> ModelPoint {
    let cfg = p.sim_config();
    let opts = ModelOptions::default();
    let cal = Calibration::default();
    match p.arrival_rate {
        Some(rate) => mr2_model::eval_open_mix(&cfg, &classes(p), rate, &opts, &cal),
        None => mr2_model::eval_mix(&cfg, &classes(p), &p.submit_offsets(), &opts, &cal),
    }
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("reply has no number `{key}`"))
}

/// An estimate reply carries exactly the values a direct model call on
/// the decoded point gives.
pub fn estimate_matches(reply: &Json, p: &EvalPoint) -> Result<(), String> {
    let want = direct_model(p);
    model_positive(&want)?;
    let got = reply.get("model").ok_or("estimate reply has no model")?;
    for (key, w) in [
        ("fork_join", want.fork_join),
        ("tripathi", want.tripathi),
        ("aria", want.aria),
        ("herodotou", want.herodotou),
        ("makespan", want.makespan),
    ] {
        let g = num(got, key)?;
        if g != w {
            return Err(format!("estimate {key}: reply {g} but direct call {w}"));
        }
    }
    Ok(())
}

/// A plan reply's node count meets the SLO and one node fewer does not,
/// by direct evaluation, unless the reply says the SLO is infeasible.
pub fn plan_sound(reply: &Json, req: &mr2_scenario::PlanRequest) -> Result<(), String> {
    let feasible = reply
        .get("feasible")
        .and_then(Json::as_bool)
        .ok_or("plan reply has no `feasible`")?;
    let nodes = num(reply, "nodes")? as usize;
    let metric_at = |n: usize| {
        let p = EvalPoint {
            index: 0,
            nodes: n,
            block_mb: req.block_mb,
            container_mb: req.container_mb,
            scheduler: req.scheduler,
            mix: req.mix.resolve(n),
            arrivals: mr2_scenario::ArrivalSchedule::Batch,
            arrival_rate: Some(req.arrival_rate),
            map_failure_prob: 0.0,
            slow_node_factor: 1.0,
            estimator: req.estimator,
            seed: req.seed,
        };
        let m = direct_model(&p);
        match req.slo.metric {
            SloMetric::Response => mr2_scenario::select(&m, req.estimator),
            SloMetric::Makespan => m.makespan,
            SloMetric::Utilization => m.open.map_or(f64::INFINITY, |o| o.bottleneck_utilization),
        }
    };
    if !feasible {
        return Ok(());
    }
    let at = metric_at(nodes);
    if at.is_nan() || at > req.slo.threshold {
        return Err(format!(
            "plan picks {nodes} nodes but they give {at:.1} > SLO {}",
            req.slo.threshold
        ));
    }
    if nodes > req.search.min_nodes {
        let below = metric_at(nodes - 1);
        if below <= req.slo.threshold {
            return Err(format!(
                "plan picks {nodes} nodes but {} already meet the SLO ({below:.1})",
                nodes - 1
            ));
        }
    }
    Ok(())
}
