//! Comm-plan admission at the serve boundary (PR 6): a distributed job
//! whose communication schedule fails static verification is refused at
//! submit time with C-code diagnostics — no session time, no hung rank
//! team. A clean schedule sails through and the attachment enters the
//! job's cache identity.

use cca_analyze::commplan::OpKind;
use cca_apps::scaling::ScalingConfig;
use cca_apps::schedule::comm_plan;
use cca_serve::{DistributedSpec, Fleet, FleetConfig, IgnitionSpec, SubmitError};

fn scaling_cfg() -> ScalingConfig {
    ScalingConfig {
        n: 24,
        per_rank: false,
        ranks: 4,
        steps: 2,
        overlap: true,
        ..ScalingConfig::default()
    }
}

#[test]
fn clean_distributed_job_is_admitted() {
    let mut fleet = Fleet::new(FleetConfig {
        shards: 1,
        ..FleetConfig::default()
    });
    let mut job = IgnitionSpec::default().job();
    job.distributed = Some(DistributedSpec {
        config: scaling_cfg(),
        plan: None, // derived from the config by the schedule emitter
    });
    let id = fleet.submit(job).expect("derived plans verify clean");
    fleet.run_until_idle();
    assert!(fleet.outcome(id).is_some(), "admitted job must resolve");
    assert_eq!(fleet.stats().rejected_admission, 0);
}

#[test]
fn broken_plan_is_rejected_with_c_code_diagnostics() {
    let mut fleet = Fleet::new(FleetConfig {
        shards: 1,
        ..FleetConfig::default()
    });

    // Start from the real emitted schedule, then drop rank 2's first
    // posted receive — the classic hand-edited-exchange mistake.
    let cfg = scaling_cfg();
    let mut plan = comm_plan(&cca_apps::scaling::decompose(&cfg), &cfg);
    let pos = plan.ranks[2]
        .iter()
        .position(|o| matches!(o.kind, OpKind::Irecv { .. }))
        .expect("rank 2 posts receives");
    plan.ranks[2].remove(pos);

    let mut job = IgnitionSpec::default().job();
    job.distributed = Some(DistributedSpec {
        config: cfg,
        plan: Some(plan),
    });

    let err = fleet
        .submit(job)
        .expect_err("mismatched plan must be refused");
    let SubmitError::Admission { report } = err else {
        panic!("expected admission rejection, got {err}");
    };
    assert!(report.contains("error[C001]"), "{report}");
    assert!(report.contains("comm-plan"), "{report}");
    assert_eq!(fleet.stats().rejected_admission, 1);
    assert_eq!(
        fleet.stats().submitted,
        0,
        "a rejected job must never be counted as submitted"
    );
}

#[test]
fn distributed_attachment_is_part_of_cache_identity() {
    let base = IgnitionSpec::default().job();
    let mut with_spec = base.clone();
    with_spec.distributed = Some(DistributedSpec {
        config: scaling_cfg(),
        plan: None,
    });
    assert_ne!(base.key(), with_spec.key());

    let mut other_schedule = base.clone();
    other_schedule.distributed = Some(DistributedSpec {
        config: ScalingConfig {
            overlap: false,
            ..scaling_cfg()
        },
        plan: None,
    });
    assert_ne!(with_spec.key(), other_schedule.key());
}
