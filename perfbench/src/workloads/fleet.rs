//! `fleet`: 2400 seeded requests through a 2-shard × 2-session serve
//! fleet, driven from one thread through `Fleet::submit` and
//! `Fleet::step`. A closed loop of 24-request bursts, each drained
//! before the next (the fleet runs on a virtual clock the caller
//! advances, so there is no arrival rate). A job is one request.

use super::{per_layer, setup_samples, Budget, Row, RunSamples};
use crate::cli::Args;
use crate::inputs;
use crate::metrics::{Metric, Tally};
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use cca_core::Profiler;
use cca_serve::session::PaletteFn;
use cca_serve::{
    fleet_request_stream, fleet_tenants, serve_palette, Fleet, FleetConfig, FleetLoadgenConfig,
    FleetStats, JobKey, JobOutcome, SimJob, SubmitError,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::time::Instant;

/// Passes per run, traced and untraced together. Every framework a job
/// assembles stays allocated after the job (about 150 MB per pass on
/// the reference host), so the pass count, not the time budget, bounds
/// the process's memory.
const MAX_PASSES: usize = 6;

/// Profilers of every framework a traced pass's sessions built.
type Sink = Rc<RefCell<Vec<Profiler>>>;

/// Set-up: generate the request stream and build the fleet. A traced
/// fleet's palette turns on each session framework's port profiler and
/// hands it to `sink`.
fn build(cfg: &FleetLoadgenConfig, sink: Option<Sink>) -> (Vec<SimJob>, Fleet) {
    let requests = fleet_request_stream(cfg);
    let palette: PaletteFn = match sink {
        None => Rc::new(serve_palette),
        Some(sink) => Rc::new(move || {
            let fw = serve_palette();
            fw.profiler().set_enabled(true);
            sink.borrow_mut().push(fw.profiler());
            fw
        }),
    };
    let fleet = Fleet::new(FleetConfig {
        palette,
        shards: cfg.shards,
        sessions_per_shard: cfg.sessions_per_shard,
        queue_capacity: cfg.queue_capacity,
        cache_capacity: cfg.cache_capacity,
        steal: cfg.steal,
        tenants: fleet_tenants(),
        ..FleetConfig::default()
    });
    (requests, fleet)
}

/// What one pass over the request stream measured.
struct Pass {
    setup: f64,
    wall: f64,
    /// Per request: first submit attempt to the first step return after
    /// which its outcome was resolved, seconds.
    turnaround: Vec<f64>,
    submit: Vec<f64>,
    step_secs: f64,
    steps: u64,
    stats: FleetStats,
}

/// Submit the stream in bursts, stepping the fleet dry between bursts.
/// `digests` carries key → digest across passes: duplicates must agree.
fn pass(
    cfg: &FleetLoadgenConfig,
    rec: &mut Recorder,
    tally: &mut Tally,
    digests: &mut BTreeMap<JobKey, String>,
    sink: Option<Sink>,
) -> Pass {
    let ((requests, mut fleet), setup) = rec.time("serve", "fleet.setup", || build(cfg, sink));
    let n = requests.len();
    let keys: Vec<JobKey> = requests.iter().map(SimJob::key).collect();
    let mut pending: VecDeque<(usize, SimJob)> = requests.into_iter().enumerate().collect();
    let mut first_attempt: Vec<Option<Instant>> = vec![None; n];
    let mut turnaround = vec![f64::NAN; n];
    let mut problems: Vec<Option<String>> = vec![None; n];
    let mut submit = Vec::with_capacity(n + n / 4);
    let (mut step_secs, mut steps) = (0.0, 0u64);
    let mut resolved_ids = Vec::with_capacity(n);

    let start = Instant::now();
    while !pending.is_empty() {
        let mut deferred = Vec::new();
        let mut waiting = Vec::new();
        for _ in 0..cfg.burst.max(1) {
            let Some((req, job)) = pending.pop_front() else {
                break;
            };
            first_attempt[req].get_or_insert_with(Instant::now);
            let copy = job.clone();
            let (submitted, secs) = rec.time("serve", "fleet.submit", || fleet.submit(copy));
            submit.push(secs);
            match submitted {
                Ok(id) => waiting.push((req, id)),
                Err(SubmitError::QueueFull { .. }) => deferred.push((req, job)),
                Err(e) => problems[req] = Some(format!("request {req} refused: {e}")),
            }
        }
        loop {
            let (more, secs) = rec.time("serve", "fleet.step", || fleet.step());
            step_secs += secs;
            steps += 1;
            let now = Instant::now();
            waiting.retain(|&(req, id)| {
                if fleet.outcome(id).is_none() {
                    return true;
                }
                let since = first_attempt[req].expect("submitted requests were attempted");
                turnaround[req] = (now - since).as_secs_f64();
                resolved_ids.push((req, id));
                false
            });
            if !more {
                break;
            }
        }
        for (req, _) in waiting {
            problems[req] = Some(format!(
                "request {req} lost: no outcome after the fleet drained"
            ));
        }
        for item in deferred.into_iter().rev() {
            pending.push_front(item);
        }
    }
    let wall = start.elapsed().as_secs_f64();

    for (req, id) in resolved_ids {
        let digest = match fleet.outcome(id) {
            Some(JobOutcome::Completed { artifacts, .. })
            | Some(JobOutcome::Cached { artifacts, .. }) => &artifacts.transcript_digest,
            other => {
                problems[req] = Some(format!("request {req} ended {other:?}"));
                continue;
            }
        };
        let known = digests.entry(keys[req]).or_insert_with(|| digest.clone());
        if known != digest {
            problems[req] = Some(format!(
                "request {req}: duplicate key returned a different digest"
            ));
        }
    }
    let stats = fleet.stats();
    let answered = stats.completed + stats.cached + stats.rejected_deadline;
    let balance = (answered != n as u64).then(|| {
        format!(
            "completed {} + cached {} + rejected {} != {n} requests",
            stats.completed, stats.cached, stats.rejected_deadline
        )
    });
    for problem in problems {
        tally.op(problem.or_else(|| balance.clone()));
    }
    Pass {
        setup,
        wall,
        turnaround: turnaround.into_iter().filter(|t| t.is_finite()).collect(),
        submit,
        step_secs,
        steps,
        stats,
    }
}

/// Run the fleet workload for the budget in `args`: one pass per
/// request stream. Wall and rate are medians over the passes; the
/// turnaround median pools every request of the run.
pub fn run(args: &Args, rec: &mut Recorder, tally: &mut Tally) -> Vec<Metric> {
    let configs = inputs::fleet_configs(args.seed);
    let mut digests = BTreeMap::new();
    if args.trace {
        return traced(&configs, args, rec, tally, &mut digests);
    }
    let budget = Budget::new(args.seconds, 3);
    let passes = MAX_PASSES.min(configs.len());
    let mut run = RunSamples::default();
    let mut p99 = Vec::new();
    let mut k = 0;
    while k < passes && budget.more(k) {
        let cfg = &configs[k];
        let p = pass(cfg, rec, tally, &mut digests, None);
        p99.push(percentile(&p.turnaround, 0.99) * 1e3);
        let mut setups = vec![p.setup];
        setups.extend(setup_samples(rec, "serve", "fleet.setup", || {
            build(cfg, None)
        }));
        let rate = p.turnaround.len() as f64 / p.wall;
        run.job(p.wall, rate, &p.turnaround, &setups);
        k += 1;
    }
    println!(
        "info turnaround_p99_ms {} ms (mean over {k} passes of 2400 requests)",
        p99.iter().sum::<f64>() / p99.len().max(1) as f64
    );
    run.end_to_end()
}

/// The traced run: alternate an untraced and a traced pass over the same
/// stream; the traced pass keeps spans and profiles every session
/// framework.
fn traced(
    configs: &[FleetLoadgenConfig],
    args: &Args,
    rec: &mut Recorder,
    tally: &mut Tally,
    digests: &mut BTreeMap<JobKey, String>,
) -> Vec<Metric> {
    let budget = Budget::new(args.seconds, 2);
    let (mut plain_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let mut rows = Vec::new();
    while budget.more(rows.len()) && 2 * rows.len() < MAX_PASSES {
        let cfg = &configs[rows.len() % configs.len()];
        rec.set_iteration(rows.len() as u64);
        rec.set_enabled(false);
        plain_wall.push(pass(cfg, rec, tally, digests, None).wall);
        let sink: Sink = Rc::default();
        rec.set_enabled(true);
        let p = pass(cfg, rec, tally, digests, Some(sink.clone()));
        rec.set_enabled(false);
        traced_wall.push(p.wall);
        let sessions = Profiler::new();
        for prof in sink.borrow().iter() {
            sessions.absorb(prof);
        }
        rows.push(layer_row(&p, &sessions));
    }
    per_layer(&rows, &plain_wall, &traced_wall)
}

/// Per-layer figures of one traced pass; `sessions` merges the port
/// profilers of every framework the pass's sessions built.
fn layer_row(p: &Pass, sessions: &Profiler) -> Row {
    let s = &p.stats;
    let resolved = (s.completed + s.cached).max(1) as f64;
    let attributed = p.submit.iter().sum::<f64>() + p.step_secs;
    let submit_us: Vec<f64> = p.submit.iter().map(|t| t * 1e6).collect();
    vec![
        ("apps.unattributed_frac", 1.0 - attributed / p.wall),
        (
            "components.diffusion_rhs_cells_per_s",
            sessions
                .stat("DiffusionPhysics.patch-rhs")
                .and_then(|t| t.cells_per_sec())
                .unwrap_or(0.0),
        ),
        ("serve.submit_us_p50", median(&submit_us)),
        ("serve.submit_us_p99", percentile(&submit_us, 0.99)),
        ("serve.step_s", p.step_secs),
        ("serve.steps", p.steps as f64),
        ("serve.cache_hit_frac", s.cached as f64 / resolved),
        ("serve.coalesced", s.coalesced as f64),
        ("serve.rejected_full", s.rejected_full as f64),
        ("serve.steals", s.steals as f64),
        ("serve.migrations", s.migrations as f64),
        ("serve.preemptions", s.preemptions as f64),
        ("serve.queue_wait_p99_ticks", s.queue_wait.p99),
        (
            "serve.turnaround_p99_ms",
            percentile(&p.turnaround, 0.99) * 1e3,
        ),
        ("serve.turnaround_p99_ticks", s.turnaround.p99),
        (
            "serve.ns_per_tick",
            p.step_secs * 1e9 / s.clock.max(1) as f64,
        ),
    ]
}

/// A per-layer row of an idle fleet (names only).
#[cfg(test)]
pub(super) fn sample_row() -> Row {
    let pass = Pass {
        setup: 0.0,
        wall: 1.0,
        turnaround: vec![0.01],
        submit: vec![1e-4],
        step_secs: 0.5,
        steps: 1,
        stats: Fleet::new(FleetConfig::default()).stats(),
    };
    layer_row(&pass, &Profiler::new())
}
