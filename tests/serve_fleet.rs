//! Fleet contracts (PR 10): checkpoint-based migration is bit-exact, the
//! no-progress guard survives the mid-snapshot drill, elastic shard
//! resizing replays identically, deadline admission is provable, QoS
//! bands order service with aging as the anti-starvation valve, and the
//! multi-shard stats snapshot never double-counts.

use cca_serve::{
    Fleet, FleetConfig, IgnitionSpec, JobOutcome, LatePolicy, QosClass, RdSpec, SimJob,
    SubmitError, TenantSpec,
};

/// A long, sliceable reaction–diffusion job: 12 macro steps with a
/// commit every 2 — under the default 4-step slice it runs as 3+ legs.
fn long_rd(t_hot: f64) -> SimJob {
    let mut job = RdSpec {
        nx: 8,
        n_steps: 12,
        t_hot,
        ..RdSpec::default()
    }
    .job();
    job.ckpt_interval = 2;
    job.want_checkpoint = true;
    job
}

/// An *unsliceable* rd job (no commit interval) whose only purpose is to
/// occupy a session for exactly `n_steps + 1` ticks, homed on `shard`
/// (probes `t_hot` until the consistent-hash router agrees).
fn busy_filler_at(fleet: &Fleet, shard: usize, n_steps: usize, priority: u8) -> SimJob {
    let mut t_hot = 1450.0;
    loop {
        let mut job = RdSpec {
            nx: 8,
            n_steps,
            t_hot,
            ..RdSpec::default()
        }
        .job();
        job.priority = priority;
        if fleet.home_of(job.key()) == shard {
            return job;
        }
        t_hot += 1.0;
    }
}

/// Digest + checkpoint bytes of a completed outcome.
fn completed_artifacts(fleet: &Fleet, id: u64) -> (String, Option<Vec<u8>>, u64) {
    match fleet.outcome(id).expect("job resolved") {
        JobOutcome::Completed { artifacts, .. } => (
            artifacts.transcript_digest.clone(),
            artifacts.checkpoint.clone(),
            artifacts.steps,
        ),
        other => panic!("expected completion, got {other:?}"),
    }
}

fn completed_wait(fleet: &Fleet, id: u64) -> u64 {
    match fleet.outcome(id).expect("job resolved") {
        JobOutcome::Completed { wait_ticks, .. } => *wait_ticks,
        other => panic!("expected completion, got {other:?}"),
    }
}

/// The reference bits: the same job run unmigrated and unsliced on a
/// single-shard fleet with slicing disabled.
fn unsliced_reference(job: SimJob) -> (String, Option<Vec<u8>>, u64) {
    let mut fleet = Fleet::new(FleetConfig {
        shards: 1,
        slice_steps: 0, // never preempt: one uninterrupted attempt
        ..FleetConfig::default()
    });
    let id = fleet.submit(job).unwrap();
    fleet.run_until_idle();
    assert_eq!(fleet.migrations_of(id), 0);
    completed_artifacts(&fleet, id)
}

/// Run `job` through a 2-shard fleet rigged so the job provably crosses
/// shards: a high-priority 20-step filler pins the job's home session
/// until tick 21 while a 10-step filler keeps the other shard busy only
/// until tick 11 — the idle shard steals the job's early slices, then
/// its home (free again at 21) takes a later continuation back over the
/// checkpoint bytes. Returns the fleet and the job's id.
fn run_migrated(job: SimJob) -> (Fleet, u64) {
    let mut fleet = Fleet::new(FleetConfig {
        shards: 2,
        sessions_per_shard: 1,
        queue_capacity: 32,
        ..FleetConfig::default()
    });
    let home = fleet.home_of(job.key());
    let home_filler = busy_filler_at(&fleet, home, 20, 7);
    let away_filler = busy_filler_at(&fleet, 1 - home, 10, 0);
    fleet.submit(home_filler).unwrap();
    fleet.submit(away_filler).unwrap();
    let id = fleet.submit(job).unwrap();
    fleet.run_until_idle();
    assert!(
        fleet.steals_of(id) >= 1,
        "the long job was never stolen off its busy home shard"
    );
    assert!(
        fleet.migrations_of(id) >= 1,
        "the long job never crossed shards with restore bytes (steals={})",
        fleet.steals_of(id)
    );
    (fleet, id)
}

#[test]
fn stolen_long_job_migrates_over_checkpoint_bytes_bit_identically() {
    let job = long_rd(1405.0);
    let reference = unsliced_reference(job.clone());
    let (fleet, id) = run_migrated(job);
    assert_eq!(
        completed_artifacts(&fleet, id),
        reference,
        "migration changed the bits"
    );
    let s = fleet.stats();
    assert!(s.migrations >= 1);
    assert!(s.steals >= 1);
    assert!(s.preemptions >= 2, "the job never ran as slices");
}

#[test]
fn mid_snapshot_steal_falls_back_to_the_prior_set() {
    // The adversarial drill: every preemption lands mid-snapshot, so the
    // boundary commit of each slice is torn and the continuation must
    // fall back to the previous committed set (re-executing at most
    // ckpt_interval steps).
    let mut job = long_rd(1410.0);
    job.fault.mid_snapshot_preempt = true;
    let mut clean = job.clone();
    clean.fault.mid_snapshot_preempt = false;
    let reference = unsliced_reference(clean);
    let (fleet, id) = run_migrated(job);
    assert_eq!(
        completed_artifacts(&fleet, id),
        reference,
        "torn-snapshot fallback changed the bits"
    );
}

#[test]
fn no_progress_guard_survives_slice_equal_to_interval() {
    // slice == ckpt_interval + mid-snapshot tearing: every slice's only
    // commit is torn, so without the extend-slice guard no leg would
    // ever persist progress and the job would loop forever.
    let mut job = long_rd(1415.0);
    job.fault.mid_snapshot_preempt = true;
    let mut clean = job.clone();
    clean.fault.mid_snapshot_preempt = false;
    let reference = unsliced_reference(clean);

    let mut fleet = Fleet::new(FleetConfig {
        shards: 1,
        sessions_per_shard: 1,
        slice_steps: 2, // == ckpt_interval of the job
        ..FleetConfig::default()
    });
    let id = fleet.submit(job).unwrap();
    fleet.run_until_idle();
    assert_eq!(
        completed_artifacts(&fleet, id),
        reference,
        "extended slices changed the bits"
    );
}

#[test]
fn elastic_resize_replays_bit_identically() {
    let jobs: Vec<SimJob> = (0..10).map(|i| long_rd(1300.0 + 2.0 * i as f64)).collect();

    // Reference: fixed 4-session single shard.
    let mut fixed = Fleet::new(FleetConfig {
        shards: 1,
        sessions_per_shard: 4,
        queue_capacity: 32,
        ..FleetConfig::default()
    });
    let fixed_ids: Vec<u64> = jobs
        .iter()
        .map(|j| fixed.submit(j.clone()).unwrap())
        .collect();
    fixed.run_until_idle();
    let want: Vec<_> = fixed_ids
        .iter()
        .map(|&id| completed_artifacts(&fixed, id))
        .collect();

    // Elastic run: shrink to 1 session mid-flight, then grow to 6.
    // In-flight sliced jobs just resume on whatever pool exists next.
    let mut elastic = Fleet::new(FleetConfig {
        shards: 1,
        sessions_per_shard: 4,
        queue_capacity: 32,
        ..FleetConfig::default()
    });
    let ids: Vec<u64> = jobs
        .iter()
        .map(|j| elastic.submit(j.clone()).unwrap())
        .collect();
    for _ in 0..3 {
        elastic.step();
    }
    elastic.resize_shard(0, 1);
    for _ in 0..4 {
        elastic.step();
    }
    elastic.resize_shard(0, 6);
    elastic.run_until_idle();

    let got: Vec<_> = ids
        .iter()
        .map(|&id| completed_artifacts(&elastic, id))
        .collect();
    assert_eq!(got, want, "elastic resizing changed some job's bits");
    let pool = elastic.stats().shards[0].sessions.len();
    assert_eq!(pool, 6, "grow target never applied");
}

#[test]
fn deadline_admission_accounts_for_queue_pressure() {
    let mut fleet = Fleet::new(FleetConfig {
        shards: 1,
        sessions_per_shard: 1,
        ..FleetConfig::default()
    });
    // Occupy the only session: ignition (cost 5) dispatches at tick 0.
    fleet.submit(IgnitionSpec::default().job()).unwrap();
    fleet.step();

    // A 5-tick job with a 7-tick deadline would fit on an idle fleet,
    // but the session is busy until tick 5 → earliest completion is 10.
    let mut job = IgnitionSpec {
        t0: 1111.0,
        ..IgnitionSpec::default()
    }
    .job();
    job.deadline = Some(7);
    match fleet.submit(job.clone()) {
        Err(SubmitError::Deadline { needed, deadline }) => {
            assert_eq!(needed, 10);
            assert_eq!(deadline, 7);
        }
        other => panic!("expected queue-pressure rejection, got {other:?}"),
    }
    // The same job under Downgrade is accepted and still completes.
    job.on_late = LatePolicy::Downgrade;
    let id = fleet.submit(job).unwrap();
    fleet.run_until_idle();
    assert!(matches!(
        fleet.outcome(id),
        Some(JobOutcome::Completed { .. })
    ));
    let s = fleet.stats();
    assert_eq!(s.rejected_deadline, 1);
    assert_eq!(s.downgraded, 1);
}

/// Three-class tenant table for the QoS tests.
fn classed_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("int", QosClass::Interactive, 1),
        TenantSpec::new("std", QosClass::Standard, 1),
        TenantSpec::new("bat", QosClass::Batch, 1),
    ]
}

fn classed_job(tenant: u32, t0: f64) -> SimJob {
    let mut job = IgnitionSpec {
        t0,
        ..IgnitionSpec::default()
    }
    .job();
    job.tenant = tenant;
    job
}

#[test]
fn qos_bands_order_service_regardless_of_submission_order() {
    // All three classes queued before the first tick on a single
    // session: service order must be interactive, standard, batch —
    // the reverse of submission order. Ignition costs 5 ticks, so the
    // waits are exactly 0 / 5 / 10.
    let mut fleet = Fleet::new(FleetConfig {
        shards: 1,
        sessions_per_shard: 1,
        tenants: classed_tenants(),
        ..FleetConfig::default()
    });
    let batch = fleet.submit(classed_job(2, 1001.0)).unwrap();
    let standard = fleet.submit(classed_job(1, 1002.0)).unwrap();
    let interactive = fleet.submit(classed_job(0, 1003.0)).unwrap();
    fleet.run_until_idle();
    assert_eq!(completed_wait(&fleet, interactive), 0);
    assert_eq!(completed_wait(&fleet, standard), 5);
    assert_eq!(completed_wait(&fleet, batch), 10);
}

/// Queue a batch job behind a 2100-step hog, then (once the hog owns the
/// clock) submit fresh interactive traffic the moment the session frees.
/// Returns (batch wait, interactive wait).
fn aged_batch_vs_fresh_interactive(aging_ticks: u64) -> (u64, u64) {
    let mut fleet = Fleet::new(FleetConfig {
        shards: 1,
        sessions_per_shard: 1,
        aging_ticks,
        tenants: classed_tenants(),
        ..FleetConfig::default()
    });
    let mut hog = RdSpec {
        nx: 8,
        n_steps: 2100,
        t_hot: 1280.0,
        ..RdSpec::default()
    }
    .job();
    hog.tenant = 2;
    fleet.submit(hog).unwrap();
    let starving = fleet.submit(classed_job(2, 1004.0)).unwrap();
    // Dispatch the hog; the clock jumps to its finish (tick 2101) with
    // the batch job still queued — it has now waited 2101 ticks.
    fleet.step();
    assert_eq!(fleet.clock(), 2101);
    let fresh = fleet.submit(classed_job(0, 1005.0)).unwrap();
    fleet.run_until_idle();
    (
        completed_wait(&fleet, starving),
        completed_wait(&fleet, fresh),
    )
}

#[test]
fn aging_lifts_starved_batch_work_over_fresh_interactive() {
    // With aging on (1 tick per priority point), 2101 ticks of waiting
    // out-banks the interactive base band (2048): the batch job runs
    // first and the fresh interactive job eats its 5-tick runtime.
    let (starving, fresh) = aged_batch_vs_fresh_interactive(1);
    assert_eq!(starving, 2101, "aged batch job did not run at once");
    assert_eq!(fresh, 5, "fresh interactive did not yield to aged batch");

    // Control: aging off — class bands alone decide, the fresh
    // interactive job preempts the queue and batch starves longer.
    let (starving, fresh) = aged_batch_vs_fresh_interactive(0);
    assert_eq!(fresh, 0);
    assert_eq!(starving, 2106);
}

#[test]
fn stats_snapshots_are_stable_and_never_double_count() {
    let cfg = cca_serve::FleetLoadgenConfig::default();
    let r = cca_serve::run_fleet_loadgen(&cfg);
    assert_eq!(r.lost, 0);
    let s = &r.stats;
    // Each completed job records exactly one wait/run/turnaround sample,
    // no matter how many slices, retries, or shards it crossed.
    assert_eq!(s.turnaround.count, s.completed);
    assert_eq!(s.queue_wait.count, s.completed);
    assert_eq!(s.run_ticks.count, s.completed);
    // Per tenant: every accepted submission resolves as exactly one hit
    // or one miss.
    for t in &s.tenants {
        assert_eq!(
            t.hits + t.misses,
            t.submitted,
            "tenant {} leaks submissions",
            t.name
        );
    }
    // Shard counters are a partition of the fleet totals.
    assert_eq!(
        s.shards.iter().map(|sh| sh.completed).sum::<u64>(),
        s.completed
    );
    assert_eq!(
        s.shards.iter().map(|sh| sh.steals_in).sum::<u64>(),
        s.steals
    );
    assert_eq!(
        s.shards.iter().map(|sh| sh.steals_out).sum::<u64>(),
        s.steals
    );
}
