//! Tier-2 pin of the serving subsystem's acceptance criteria (PR 3).
//!
//! The load generator is a pure function of its seed and the fleet runs
//! on a virtual clock, so every number here is deterministic — the same
//! counts `cca-bench serve` freezes into `BENCH_PR3.json`.

use cca_serve::{
    run_fleet_loadgen, run_loadgen, CancelReason, Fleet, FleetConfig, FleetLoadgenConfig,
    IgnitionSpec, JobOutcome, LoadgenConfig, Override, QosClass, RdSpec, SubmitError, TenantSpec,
};

#[test]
fn loadgen_meets_the_pr_acceptance_criteria() {
    let cfg = LoadgenConfig::default();
    let report = run_loadgen(&cfg);

    // Zero lost jobs: all 200 requests were eventually accepted (queue-full
    // rejections were resubmitted) and every accepted id has a terminal
    // outcome.
    assert_eq!(report.ids.len(), cfg.jobs);
    let resolved = report.completed
        + report.cached
        + report.cancelled_deadline
        + report.cancelled_user
        + report.failed;
    assert_eq!(resolved, cfg.jobs as u64, "every accepted job must resolve");

    // 25% duplicates answered from the cache: hit ratio >= duplicate ratio.
    assert_eq!(report.duplicate_requests, 50);
    assert!(
        report.cache_hit_ratio >= cfg.duplicate_ratio,
        "cache hit ratio {} below duplicate ratio {}",
        report.cache_hit_ratio,
        cfg.duplicate_ratio
    );

    // Bursts of 32 against a 24-deep queue must trip backpressure, and the
    // injected faults must exercise retry, poisoning, and terminal failure;
    // the budgeted jobs must hit their deadline.
    assert!(report.rejection_events > 0, "backpressure never engaged");
    let s = &report.stats;
    assert!(s.retries >= 1, "no retry was exercised");
    assert!(s.poisonings >= 1, "no session was poisoned");
    assert!(report.failed >= 1, "the hopeless job must fail terminally");
    assert!(report.cancelled_deadline >= 1, "no deadline fired");

    // Panic isolation: a panic poisons exactly one session, which is
    // rebuilt (epoch bump). Total epoch bumps == total poisonings, and the
    // pool kept serving afterwards.
    let epoch_sum: u64 = s.shards[0].sessions.iter().map(|x| x.epoch).sum();
    assert_eq!(
        epoch_sum, s.poisonings,
        "each poisoning must rebuild exactly one session"
    );
    assert!(s.shards[0].sessions.iter().all(|x| x.runs > 0));

    // The exact deterministic scenario, pinned. If a scheduling or
    // workload change shifts these, BENCH_PR3.json must be regenerated in
    // the same commit.
    assert_eq!(report.completed, 144);
    assert_eq!(report.cached, 50);
    assert_eq!(report.cancelled_deadline, 5);
    assert_eq!(report.cancelled_user, 0);
    assert_eq!(report.failed, 1);
    assert_eq!(report.rejection_events, 13);
    assert_eq!(s.retries, 7);
    assert_eq!(s.poisonings, 8);
    assert_eq!(s.coalesced, 9);
    assert_eq!(report.total_ticks, 147);
    assert_eq!((s.queue_wait.p99, s.queue_wait.max), (24.0, 25.0));
    assert_eq!((s.run_ticks.p99, s.run_ticks.max), (7.0, 7.0));
}

#[test]
fn fleet_loadgen_loses_no_jobs_and_pins_the_pr10_scenario() {
    let cfg = FleetLoadgenConfig::default();
    let r = run_fleet_loadgen(&cfg);

    // Zero lost jobs: every request resolves — completed, cached,
    // cancelled, failed, or provably-late-rejected; nothing vanishes.
    assert_eq!(r.lost, 0, "requests without a terminal outcome");

    // The exact deterministic multi-tenant scenario, pinned. If a
    // scheduling change shifts these, BENCH_PR10.json must be
    // regenerated in the same commit.
    assert_eq!(r.completed, 178);
    assert_eq!(r.cached, 62);
    assert_eq!(r.failed, 0);
    assert_eq!(r.rejected_deadline, 0);
    assert_eq!(r.rejection_events, 4);
    assert_eq!(r.total_ticks, 290);
    assert_eq!(r.outcome_checksum, 0x5113_558c_e54a_6c5e);
    let s = &r.stats;
    assert_eq!(s.steals, 102, "work stealing never engaged");
    assert_eq!(s.migrations, 3, "no checkpoint handoff crossed shards");
    assert_eq!(s.preemptions, 100, "long jobs never ran as slices");

    // Per tenant, every accepted submission resolves as exactly one
    // cache hit or one executed miss — aggregation double-counts
    // nothing, loses nothing.
    for t in &s.tenants {
        assert_eq!(
            t.hits + t.misses,
            t.submitted,
            "tenant {} leaks submissions",
            t.name
        );
    }
    // Skewed popular keys mean only the interactive tenant sees cache
    // hits; the heavy tenant dominates served ticks.
    assert_eq!(s.tenants[0].hits, 62);
    assert_eq!(s.tenants[2].served_ticks, 650);
}

#[test]
fn fleet_loadgen_is_deterministic_and_shard_count_invariant() {
    // Same stream, run twice → byte-identical stats; and the outcome
    // checksum must not depend on the shard count or on stealing (the
    // schedule moves, the physics must not).
    let a = run_fleet_loadgen(&FleetLoadgenConfig::default());
    let b = run_fleet_loadgen(&FleetLoadgenConfig::default());
    assert_eq!(a.outcome_checksum, b.outcome_checksum);
    assert_eq!(a.total_ticks, b.total_ticks);
    assert_eq!(a.stats.executor, b.stats.executor);
    for shards in [1usize, 4] {
        for steal in [false, true] {
            let r = run_fleet_loadgen(&FleetLoadgenConfig {
                shards,
                steal,
                ..FleetLoadgenConfig::default()
            });
            assert_eq!(r.lost, 0, "{shards} shards steal={steal} lost jobs");
            assert_eq!(
                r.outcome_checksum, a.outcome_checksum,
                "{shards} shards steal={steal} drifted the physics"
            );
        }
    }
}

#[test]
fn stride_fair_share_matches_tenant_weights_exactly() {
    // Three batch tenants with weights 1:2:4 saturating one session with
    // identical 3-tick jobs: after 63 ticks (21 jobs) the stride
    // scheduler must have served them 9:18:36 ticks — the exact weight
    // ratio, not an approximation.
    let mut fleet = Fleet::new(FleetConfig {
        shards: 1,
        sessions_per_shard: 1,
        queue_capacity: 128,
        tenants: vec![
            TenantSpec::new("a", QosClass::Batch, 1),
            TenantSpec::new("b", QosClass::Batch, 2),
            TenantSpec::new("c", QosClass::Batch, 4),
        ],
        ..FleetConfig::default()
    });
    for i in 0..30 {
        for t in 0..3u32 {
            let mut job = RdSpec {
                nx: 8,
                n_steps: 2,
                t_hot: 1500.0 + (i * 3 + t as usize) as f64,
                ..RdSpec::default()
            }
            .job();
            job.tenant = t;
            fleet.submit(job).unwrap();
        }
    }
    while fleet.clock() < 63 && fleet.step() {}
    let served: Vec<u64> = fleet
        .stats()
        .tenants
        .iter()
        .map(|t| t.served_ticks)
        .collect();
    assert_eq!(served, vec![9, 18, 36]);
}

#[test]
fn loadgen_is_deterministic_end_to_end() {
    // A smaller scenario run twice must agree on every statistic,
    // including the latency distributions (virtual clock — no wall time).
    let cfg = LoadgenConfig {
        jobs: 60,
        sessions: 2,
        queue_capacity: 12,
        burst: 16,
        ..LoadgenConfig::default()
    };
    let a = run_loadgen(&cfg);
    let b = run_loadgen(&cfg);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.rejection_events, b.rejection_events);
    assert_eq!(a.total_ticks, b.total_ticks);
}

#[test]
fn step_budget_deadline_is_enforced_exactly() {
    // Budget B against a longer run: the job executes exactly B macro
    // steps and resolves Cancelled{Deadline{B}} — no wall clocks involved.
    for budget in [1u64, 2, 4] {
        let mut fleet = Fleet::new(FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        });
        let mut job = RdSpec {
            nx: 8,
            n_steps: 6,
            ..RdSpec::default()
        }
        .job();
        job.step_budget = Some(budget);
        let id = fleet.submit(job).expect("admission-clean job");
        fleet.run_until_idle();
        match fleet.outcome(id).expect("job must resolve") {
            JobOutcome::Cancelled { reason, steps, .. } => {
                assert_eq!(*reason, CancelReason::Deadline { budget });
                assert_eq!(
                    *steps, budget,
                    "budget {budget} must stop after exactly {budget} steps"
                );
            }
            other => panic!("expected deadline cancellation, got {}", other.tag()),
        }
    }
}

#[test]
fn admission_rejects_doomed_jobs_before_any_session_time() {
    // An override targeting an unknown instance makes the vetted script
    // (assembly + synthetic `parameter` lines) fail the static admission
    // check — the job is refused without ever occupying a session.
    let mut fleet = Fleet::new(FleetConfig {
        shards: 1,
        ..FleetConfig::default()
    });
    let mut job = IgnitionSpec::default().job();
    job.overrides.push(Override::new("ghost", "T0", 1.0));
    match fleet.submit(job) {
        Err(SubmitError::Admission { report }) => {
            assert!(report.contains("ghost"), "report must name the culprit")
        }
        other => panic!("expected admission rejection, got {other:?}"),
    }
    let s = fleet.stats();
    assert_eq!(s.rejected_admission, 1);
    assert_eq!(s.submitted, 0);
    assert!(s.shards[0].sessions.iter().all(|x| x.runs == 0));
}

#[test]
fn queued_jobs_cancel_without_spending_a_session() {
    let mut fleet = Fleet::new(FleetConfig {
        shards: 1,
        ..FleetConfig::default()
    });
    let id = fleet
        .submit(RdSpec::default().job())
        .expect("admission-clean job");
    assert!(fleet.cancel(id));
    fleet.run_until_idle();
    match fleet.outcome(id).expect("cancelled job must resolve") {
        JobOutcome::Cancelled { reason, steps, .. } => {
            assert_eq!(*reason, CancelReason::User);
            assert_eq!(*steps, 0, "no session time may be spent");
        }
        other => panic!("expected user cancellation, got {}", other.tag()),
    }
    let s = fleet.stats();
    assert_eq!(s.completed, 0);
    assert!(s.shards[0].sessions.iter().all(|x| x.runs == 0));
}
