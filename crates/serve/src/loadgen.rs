//! Deterministic load generators: synthetic clients submitting job
//! streams in bursts that deliberately exceed the queue capacity so the
//! backpressure path is exercised. [`run_loadgen`] drives a mixed
//! 0D-ignition / reaction–diffusion stream (fixed duplicate ratio,
//! injected faults and deadlines) through a one-shard fleet;
//! [`run_fleet_loadgen`] drives the multi-tenant stream through N shards.
//! Both share one submit-burst / defer-rejections / drain loop. Used by
//! `tests/serve_loadgen.rs` to pin the no-lost-jobs and cache-hit
//! guarantees, and by `cca-bench` to emit the drift-checked
//! `BENCH_PR3.json` and `BENCH_PR10.json` baselines.
//!
//! Everything is a pure function of the seed: the request mix, the
//! submission order, and (because the fleet runs on a virtual clock)
//! every latency number in the report.

use crate::cost::LatePolicy;
use crate::fleet::{Fleet, FleetConfig, FleetStats, JobOutcome, SubmitError};
use crate::job::{fnv1a64, FaultSpec, JobId, SimJob, FNV_OFFSET};
use crate::session::CancelReason;
use crate::tenant::{QosClass, TenantSpec};
use crate::workload::{IgnitionSpec, RdSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::VecDeque;

/// Loadgen shape. The defaults are the PR's pinned scenario: 200 jobs,
/// 25% duplicates, 4 sessions, bursts of 32 against a 24-deep queue.
#[derive(Clone, Copy, Debug)]
pub struct LoadgenConfig {
    /// Total client requests.
    pub jobs: usize,
    /// Fraction of requests that duplicate an earlier cacheable request.
    pub duplicate_ratio: f64,
    /// PRNG seed — the entire scenario is a function of it.
    pub seed: u64,
    /// Session-pool size of the one-shard fleet.
    pub sessions: usize,
    /// Queue capacity of the one-shard fleet.
    pub queue_capacity: usize,
    /// Requests submitted per burst (set above `queue_capacity` to force
    /// rejection events).
    pub burst: usize,
    /// Result-cache capacity of the one-shard fleet.
    pub cache_capacity: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            jobs: 200,
            duplicate_ratio: 0.25,
            seed: 20_260_806,
            sessions: 4,
            queue_capacity: 24,
            burst: 32,
            cache_capacity: 128,
        }
    }
}

/// What the run produced, in deterministic counters.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// The scenario that was run.
    pub config: LoadgenConfig,
    /// Requests that ran to completion on a session.
    pub completed: u64,
    /// Requests answered from the cache (submit hit or coalesced).
    pub cached: u64,
    /// Requests cancelled by their step-budget deadline.
    pub cancelled_deadline: u64,
    /// Requests cancelled by their client.
    pub cancelled_user: u64,
    /// Requests that failed terminally.
    pub failed: u64,
    /// Queue-full rejection events observed by clients (each rejected
    /// request was resubmitted in a later burst, so none were lost).
    pub rejection_events: u64,
    /// Duplicate requests in the generated stream.
    pub duplicate_requests: u64,
    /// `cached / jobs` — must be ≥ `duplicate_ratio` by construction.
    pub cache_hit_ratio: f64,
    /// Total virtual ticks from first submit to drained queue.
    pub total_ticks: u64,
    /// `jobs * 1000 / total_ticks`.
    pub throughput_jobs_per_kilotick: f64,
    /// Full fleet statistics snapshot at the end.
    pub stats: FleetStats,
    /// Accepted submission ids, in submission order.
    pub ids: Vec<JobId>,
}

/// Generate the request stream for `cfg` (exposed for the example CLI).
pub fn request_stream(cfg: &LoadgenConfig) -> Vec<SimJob> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n_dup = (cfg.jobs as f64 * cfg.duplicate_ratio).round() as usize;
    let n_unique = cfg.jobs.saturating_sub(n_dup);

    let mut uniques: Vec<SimJob> = Vec::with_capacity(n_unique);
    // Jobs whose first occurrence is guaranteed to end in the cache —
    // the only legal duplicate targets.
    let mut cacheable: Vec<SimJob> = Vec::new();
    for i in 0..n_unique {
        if i == 7 {
            // One hopeless job: transient-fault injection outlives the
            // retry budget, so it must end `failed` after poisoning a
            // session on every attempt.
            let mut job = IgnitionSpec {
                t0: 1033.5,
                ..IgnitionSpec::default()
            }
            .job();
            job.fault = FaultSpec {
                fail_attempts: 16,
                panic_at_step: 1,
                ..FaultSpec::default()
            };
            uniques.push(job);
            continue;
        }
        if i % 29 == 13 {
            // Transient fault: first attempt panics, the retry completes.
            let mut job = IgnitionSpec {
                t0: 950.0 + i as f64,
                ..IgnitionSpec::default()
            }
            .job();
            job.fault = FaultSpec {
                fail_attempts: 1,
                panic_at_step: 2,
                ..FaultSpec::default()
            };
            cacheable.push(job.clone());
            uniques.push(job);
            continue;
        }
        if i % 31 == 17 {
            // Deadline job: budget 1 against 4 macro steps.
            let mut job = RdSpec {
                nx: 10,
                n_steps: 4,
                t_hot: 1300.0 + i as f64,
                ..RdSpec::default()
            }
            .job();
            job.step_budget = Some(1);
            uniques.push(job);
            continue;
        }
        if rng.gen_bool(0.75) {
            let job = IgnitionSpec {
                t0: rng.gen_range(950.0..1250.0),
                t_end: 1.0e-6 * rng.gen_range(2.0..8.0),
                chunks: 3,
                ..IgnitionSpec::default()
            }
            .job();
            cacheable.push(job.clone());
            uniques.push(job);
        } else {
            let with_chemistry = rng.gen_bool(0.15);
            let mut job = RdSpec {
                nx: if with_chemistry {
                    8
                } else {
                    *[8, 10, 12].get(rng.gen_range(0usize..3)).expect("in range")
                },
                n_steps: 2,
                max_levels: if rng.gen_bool(0.3) { 2 } else { 1 },
                with_chemistry,
                t_hot: rng.gen_range(1100.0..1500.0),
                ..RdSpec::default()
            }
            .job();
            job.want_checkpoint = rng.gen_bool(0.25);
            cacheable.push(job.clone());
            uniques.push(job);
        }
    }

    let mut requests = uniques;
    for _ in 0..n_dup {
        let target = cacheable[rng.gen_range(0usize..cacheable.len())].clone();
        let pos = rng.gen_range(0usize..requests.len() + 1);
        requests.insert(pos, target);
    }
    requests
}

/// Run the scenario on a one-shard fleet: submit in bursts, resubmit
/// queue-full rejections in the next burst, drain between bursts, and
/// summarize.
pub fn run_loadgen(cfg: &LoadgenConfig) -> LoadgenReport {
    let mut fleet = Fleet::new(FleetConfig {
        shards: 1,
        sessions_per_shard: cfg.sessions,
        queue_capacity: cfg.queue_capacity,
        cache_capacity: cfg.cache_capacity,
        ..FleetConfig::default()
    });
    let run = submit_in_bursts(&mut fleet, request_stream(cfg), cfg.burst);
    if let Some((_, e)) = run.refused.first() {
        unreachable!("loadgen scripts are admission-clean and deadline-free: {e}");
    }
    let ids: Vec<JobId> = run.accepted.iter().map(|&(_, id)| id).collect();
    let mut tally = Tally::default();
    for id in &ids {
        tally.count(fleet.outcome(*id));
    }

    let stats = fleet.stats();
    let total_ticks = stats.clock.max(1);
    LoadgenReport {
        config: *cfg,
        completed: tally.completed,
        cached: tally.cached,
        cancelled_deadline: tally.cancelled_deadline,
        cancelled_user: tally.cancelled_user,
        failed: tally.failed,
        rejection_events: run.rejection_events,
        duplicate_requests: (cfg.jobs as f64 * cfg.duplicate_ratio).round() as u64,
        cache_hit_ratio: tally.cached as f64 / cfg.jobs.max(1) as f64,
        total_ticks,
        throughput_jobs_per_kilotick: cfg.jobs as f64 * 1000.0 / total_ticks as f64,
        stats,
        ids,
    }
}

/// What [`submit_in_bursts`] left behind, each submission tagged with its
/// index in the original request stream.
struct BurstRun {
    /// Accepted submissions, in acceptance order.
    accepted: Vec<(usize, JobId)>,
    /// Refusals other than queue-full backpressure (never resubmitted).
    refused: Vec<(usize, SubmitError)>,
    /// Queue-full rejection events (each was resubmitted later).
    rejection_events: u64,
}

/// The loop both loadgens share: submit `requests` in bursts of `burst`,
/// defer queue-full rejections to the head of the next burst, and drain
/// the fleet between bursts.
fn submit_in_bursts(fleet: &mut Fleet, requests: Vec<SimJob>, burst: usize) -> BurstRun {
    let mut pending: VecDeque<(usize, SimJob)> = requests.into_iter().enumerate().collect();
    let mut run = BurstRun {
        accepted: Vec::with_capacity(pending.len()),
        refused: Vec::new(),
        rejection_events: 0,
    };
    while !pending.is_empty() {
        let mut deferred: Vec<(usize, SimJob)> = Vec::new();
        for _ in 0..burst.max(1) {
            let Some((req, job)) = pending.pop_front() else {
                break;
            };
            match fleet.submit(job.clone()) {
                Ok(id) => run.accepted.push((req, id)),
                Err(SubmitError::QueueFull { .. }) => {
                    run.rejection_events += 1;
                    deferred.push((req, job));
                }
                Err(e) => run.refused.push((req, e)),
            }
        }
        fleet.run_until_idle();
        for item in deferred.into_iter().rev() {
            pending.push_front(item);
        }
    }
    run
}

/// Terminal-outcome counters over a set of accepted submissions.
#[derive(Default)]
struct Tally {
    completed: u64,
    cached: u64,
    cancelled_deadline: u64,
    cancelled_user: u64,
    failed: u64,
    /// Accepted submissions without a terminal outcome.
    lost: u64,
}

impl Tally {
    fn count(&mut self, outcome: Option<&JobOutcome>) {
        match outcome {
            Some(JobOutcome::Completed { .. }) => self.completed += 1,
            Some(JobOutcome::Cached { .. }) => self.cached += 1,
            Some(JobOutcome::Cancelled {
                reason: CancelReason::Deadline { .. },
                ..
            }) => self.cancelled_deadline += 1,
            Some(JobOutcome::Cancelled { .. }) => self.cancelled_user += 1,
            Some(JobOutcome::Failed { .. }) => self.failed += 1,
            None => self.lost += 1,
        }
    }
}

/// Fleet loadgen shape: a multi-tenant traffic mix against an N-shard
/// fleet. The same stream can be replayed at different shard counts —
/// the per-request outcome checksum must not move (the scaling-drift
/// contract `cca-bench fleet` pins), which is why the default scenario
/// contains **no deadline-constrained jobs**: admission decisions depend
/// on fleet capacity and would legitimately differ across shard counts.
/// Set `deadlines: true` for the separate admission scenario.
#[derive(Clone, Copy, Debug)]
pub struct FleetLoadgenConfig {
    /// Total client requests.
    pub jobs: usize,
    /// PRNG seed — the entire scenario is a function of it.
    pub seed: u64,
    /// Fleet shard count.
    pub shards: usize,
    /// Session-pool size per shard.
    pub sessions_per_shard: usize,
    /// Queue capacity per shard.
    pub queue_capacity: usize,
    /// Result-cache capacity per shard.
    pub cache_capacity: usize,
    /// Requests submitted per burst (drained between bursts).
    pub burst: usize,
    /// Enable deterministic work stealing.
    pub steal: bool,
    /// Include deadline-pressured jobs (Reject and Downgrade policies).
    pub deadlines: bool,
}

impl Default for FleetLoadgenConfig {
    fn default() -> Self {
        FleetLoadgenConfig {
            jobs: 240,
            seed: 20_260_808,
            shards: 2,
            sessions_per_shard: 2,
            queue_capacity: 16,
            cache_capacity: 64,
            burst: 24,
            steal: true,
            deadlines: false,
        }
    }
}

/// The fleet loadgen's tenant table: an interactive tenant with a
/// skewed-popularity key mix, a bursty standard tenant, and a heavy
/// batch tenant running long sliceable jobs.
pub fn fleet_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("interactive", QosClass::Interactive, 1),
        TenantSpec::new("bursty", QosClass::Standard, 2),
        TenantSpec::new("heavy", QosClass::Batch, 1),
    ]
}

/// Generate the multi-tenant request stream for `cfg`.
///
/// Tenant mix per request (seeded, deterministic):
/// * **interactive** (~40%) — short ignition jobs drawn from a small
///   *popular pool* with probability 0.65 (skewed key popularity: the
///   consistent-hash router must keep these duplicates coalescing and
///   cache-hitting on their home shard), else a fresh unique job.
/// * **bursty** (~35%) — distinct-key reaction–diffusion jobs; the
///   burst-submission pattern plus consistent-hash skew is what creates
///   the imbalance work stealing flattens.
/// * **heavy** (~25%) — long sliceable RD jobs (`ckpt_interval = 2`,
///   10 macro steps): they run as checkpointed slices, so preemption and
///   cross-shard migration over real checkpoint bytes get exercised.
pub fn fleet_request_stream(cfg: &FleetLoadgenConfig) -> Vec<SimJob> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // The popular pool interactive traffic skews onto.
    let popular: Vec<SimJob> = (0..8)
        .map(|i| {
            let mut job = IgnitionSpec {
                t0: 1010.0 + 15.0 * i as f64,
                t_end: 3.0e-6,
                chunks: 3,
                ..IgnitionSpec::default()
            }
            .job();
            job.tenant = 0;
            job
        })
        .collect();
    let mut requests = Vec::with_capacity(cfg.jobs);
    for i in 0..cfg.jobs {
        let roll = rng.gen_range(0.0..1.0);
        let mut job = if roll < 0.40 {
            // Interactive: popular pool with probability 0.65.
            if rng.gen_bool(0.65) {
                popular[rng.gen_range(0usize..popular.len())].clone()
            } else {
                let mut job = IgnitionSpec {
                    t0: rng.gen_range(950.0..1250.0),
                    t_end: 2.0e-6,
                    chunks: 3,
                    ..IgnitionSpec::default()
                }
                .job();
                job.tenant = 0;
                job
            }
        } else if roll < 0.75 {
            // Bursty: distinct-key medium jobs.
            let mut job = RdSpec {
                nx: *[8, 10, 12].get(rng.gen_range(0usize..3)).expect("in range"),
                n_steps: 2,
                t_hot: 1100.0 + i as f64,
                ..RdSpec::default()
            }
            .job();
            job.tenant = 1;
            job.priority = rng.gen_range(0usize..3) as u8;
            job
        } else {
            // Heavy: long sliceable batch jobs.
            let mut job = RdSpec {
                nx: 8,
                n_steps: 10,
                t_hot: 1300.0 + i as f64,
                ..RdSpec::default()
            }
            .job();
            job.tenant = 2;
            job.ckpt_interval = 2;
            job.want_checkpoint = rng.gen_bool(0.25);
            job
        };
        if cfg.deadlines && i % 23 == 11 {
            // Deadline pressure: a tight deadline with alternating
            // policies, so both admission paths stay exercised.
            job.deadline = Some(2);
            job.on_late = if i % 46 == 11 {
                LatePolicy::Reject
            } else {
                LatePolicy::Downgrade
            };
        }
        requests.push(job);
    }
    requests
}

/// What one fleet loadgen run produced, in deterministic counters.
#[derive(Clone, Debug)]
pub struct FleetLoadgenReport {
    /// The scenario that was run.
    pub config: FleetLoadgenConfig,
    /// Requests that ran to completion on a session.
    pub completed: u64,
    /// Requests answered from a result cache (hit or coalesced).
    pub cached: u64,
    /// Requests cancelled by their step-budget deadline.
    pub cancelled_deadline: u64,
    /// Requests that failed terminally.
    pub failed: u64,
    /// Requests refused at admission because the deadline was provably
    /// unreachable (`LatePolicy::Reject`).
    pub rejected_deadline: u64,
    /// Queue-full rejection events (each was resubmitted later — none
    /// lost).
    pub rejection_events: u64,
    /// Accepted submissions that never resolved — must be zero.
    pub lost: u64,
    /// Total virtual ticks from first submit to drained fleet.
    pub total_ticks: u64,
    /// `jobs * 1000 / total_ticks`.
    pub throughput_jobs_per_kilotick: f64,
    /// FNV-1a fold of every request's outcome in *original request
    /// order* — completed and cached fold the artifact digest (they must
    /// be bit-identical), cancelled/failed/rejected fold a stable tag.
    /// Identical across shard counts when `deadlines` is off.
    pub outcome_checksum: u64,
    /// Full fleet statistics snapshot at the end.
    pub stats: FleetStats,
}

/// Run the fleet scenario: submit in bursts (carrying the original
/// request index through deferrals), drain between bursts, fold the
/// request-order outcome checksum, and summarize.
pub fn run_fleet_loadgen(cfg: &FleetLoadgenConfig) -> FleetLoadgenReport {
    let mut fleet = Fleet::new(FleetConfig {
        shards: cfg.shards,
        sessions_per_shard: cfg.sessions_per_shard,
        queue_capacity: cfg.queue_capacity,
        cache_capacity: cfg.cache_capacity,
        steal: cfg.steal,
        tenants: fleet_tenants(),
        ..FleetConfig::default()
    });

    let requests = fleet_request_stream(cfg);
    // Outcome slot per original request index.
    let mut resolved: Vec<Option<ReqOutcome>> = vec![None; requests.len()];
    let run = submit_in_bursts(&mut fleet, requests, cfg.burst);
    let mut rejected_deadline = 0u64;
    for (req, e) in &run.refused {
        match e {
            SubmitError::Deadline { .. } => {
                rejected_deadline += 1;
                resolved[*req] = Some(ReqOutcome::RejectedDeadline);
            }
            e => unreachable!("fleet loadgen scripts are admission-clean: {e}"),
        }
    }
    let mut tally = Tally::default();
    for &(req, id) in &run.accepted {
        let outcome = fleet.outcome(id);
        tally.count(outcome);
        resolved[req] = outcome.map(ReqOutcome::of);
    }

    // Request-order checksum: schedule-independent by construction —
    // completed and cached results are bit-identical, and which of the
    // two a duplicate lands on depends on timing, so both fold only the
    // digest.
    let mut checksum = FNV_OFFSET;
    for slot in &resolved {
        checksum = match slot {
            Some(ReqOutcome::Artifact(digest)) => fnv1a64(checksum, digest.as_bytes()),
            Some(ReqOutcome::Cancelled) => fnv1a64(checksum, b"cancelled"),
            Some(ReqOutcome::Failed) => fnv1a64(checksum, b"failed"),
            Some(ReqOutcome::RejectedDeadline) => fnv1a64(checksum, b"rejected-deadline"),
            None => fnv1a64(checksum, b"lost"),
        };
    }

    let stats = fleet.stats();
    let total_ticks = stats.clock.max(1);
    FleetLoadgenReport {
        config: *cfg,
        completed: tally.completed,
        cached: tally.cached,
        cancelled_deadline: tally.cancelled_deadline,
        failed: tally.failed,
        rejected_deadline,
        rejection_events: run.rejection_events,
        lost: tally.lost,
        total_ticks,
        throughput_jobs_per_kilotick: cfg.jobs as f64 * 1000.0 / total_ticks as f64,
        outcome_checksum: checksum,
        stats,
    }
}

/// One request's terminal state, reduced to checksum material.
#[derive(Clone, Debug)]
enum ReqOutcome {
    /// Completed or cache-answered: the artifact digest (bit-identical
    /// either way).
    Artifact(String),
    /// Cancelled (step budget — the loadgen never user-cancels).
    Cancelled,
    /// Terminal failure.
    Failed,
    /// Refused by deadline admission.
    RejectedDeadline,
}

impl ReqOutcome {
    fn of(outcome: &JobOutcome) -> Self {
        match outcome {
            JobOutcome::Completed { artifacts, .. } | JobOutcome::Cached { artifacts, .. } => {
                ReqOutcome::Artifact(artifacts.transcript_digest.clone())
            }
            JobOutcome::Cancelled { .. } => ReqOutcome::Cancelled,
            JobOutcome::Failed { .. } => ReqOutcome::Failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_sized() {
        let cfg = LoadgenConfig::default();
        let a = request_stream(&cfg);
        let b = request_stream(&cfg);
        assert_eq!(a.len(), cfg.jobs);
        let keys_a: Vec<_> = a.iter().map(|j| j.key()).collect();
        let keys_b: Vec<_> = b.iter().map(|j| j.key()).collect();
        assert_eq!(keys_a, keys_b);
        // Exactly the configured number of duplicate keys.
        let mut seen = std::collections::BTreeSet::new();
        let dups = keys_a.iter().filter(|k| !seen.insert(**k)).count();
        assert_eq!(dups, 50);
    }
}
