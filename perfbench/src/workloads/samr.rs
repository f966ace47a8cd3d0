//! `samr_recover`: distributed SAMR on 2 SCMD rank threads. Every
//! iteration runs the configuration straight through (checkpointing
//! into a store), then a kill-and-restart drill driven through
//! `run_samr_harnessed`, `CkptHarness` and `CkptStore` the way
//! `run_samr_recovering` drives it. A job is one drill; `wall_s` is the
//! straight run.

use super::{per_layer, setup_samples, Budget, Row, RunSamples};
use crate::cli::Args;
use crate::inputs;
use crate::metrics::{Metric, Tally};
use crate::stats::median;
use crate::trace::Recorder;
use cca_apps::samr::{base_hierarchy, run_samr_harnessed, CkptHarness, SamrConfig, SamrResult};
use cca_ckpt::{CheckpointSet, CkptStore, FaultPlan};
use cca_comm::ClusterModel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Encode/decode repetitions timed per traced iteration.
const CODEC_REPS: usize = 5;

/// What one iteration measured.
struct Iteration {
    straight: SamrResult,
    straight_secs: f64,
    doomed_secs: f64,
    restart_secs: f64,
    /// Newest set the straight run committed.
    last_set: Option<Arc<CheckpointSet>>,
}

/// One straight run, checkpointing into a fresh store: the result, its
/// wall time, and the newest set the store holds.
fn straight(
    cfg: &SamrConfig,
    rec: &mut Recorder,
    name: &str,
) -> (SamrResult, f64, Option<Arc<CheckpointSet>>) {
    let store = Arc::new(CkptStore::new());
    let harness = CkptHarness {
        store: Some(Arc::clone(&store)),
        ..CkptHarness::default()
    };
    let (result, secs) = rec.time("apps", name, || {
        run_samr_harnessed(cfg, ClusterModel::cplant(), harness)
    });
    (result, secs, store.latest())
}

/// One straight run plus one drill; checks both into the tally.
fn iteration(
    cfg: &SamrConfig,
    plan: FaultPlan,
    rec: &mut Recorder,
    tally: &mut Tally,
    reference: &mut Option<u64>,
) -> Iteration {
    let (result, straight_secs, last_set) = straight(cfg, rec, "samr.straight");
    let checksum = result.checksum.to_bits();
    let mut problem = None;
    if *reference.get_or_insert(checksum) != checksum {
        problem = Some("straight-run checksum differs from the first run".to_string());
    }
    for (what, count) in [
        ("regrids", result.regrids as i64),
        ("migrations", result.migrations as i64),
        ("fine cells", result.fine_cells),
        ("checkpoint sets", result.checkpoints as i64),
    ] {
        if count <= 0 && problem.is_none() {
            problem = Some(format!("straight run had no {what}: adaptivity went dead"));
        }
    }
    tally.op(problem);

    // The drill: the kill is expected, so keep its panic message off
    // stderr while the doomed cohort dies.
    let store = Arc::new(CkptStore::new());
    let doomed = CkptHarness {
        store: Some(Arc::clone(&store)),
        fault: Some(plan),
        restore: None,
    };
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (attempt, doomed_secs) = rec.time("apps", "samr.doomed", || {
        catch_unwind(AssertUnwindSafe(|| {
            run_samr_harnessed(cfg, ClusterModel::cplant(), doomed)
        }))
    });
    std::panic::set_hook(hook);
    let mut restart_secs = 0.0;
    let drill = match (attempt, store.latest()) {
        (Ok(_), _) => Err("the armed kill never fired".to_string()),
        (Err(_), None) => Err("the cohort died before its first complete set".to_string()),
        (Err(_), Some(set)) => {
            let resumed = CkptHarness {
                restore: Some(set),
                ..CkptHarness::default()
            };
            let (recovered, secs) = rec.time("apps", "samr.restart", || {
                run_samr_harnessed(cfg, ClusterModel::cplant(), resumed)
            });
            restart_secs = secs;
            if recovered.checksum.to_bits() == checksum {
                Ok(())
            } else {
                Err(format!(
                    "recovered checksum {} differs from the straight run's {}",
                    recovered.checksum, result.checksum
                ))
            }
        }
    };
    tally.op(drill.err());
    Iteration {
        straight: result,
        straight_secs,
        doomed_secs,
        restart_secs,
        last_set,
    }
}

/// The workload's set-up: configuration, kill plans, and the level-0
/// hierarchy the runs start from.
fn setup(seed: u64) -> (SamrConfig, Vec<FaultPlan>) {
    let cfg = inputs::samr_config();
    let plans = inputs::kill_plans(seed, &cfg);
    std::hint::black_box(base_hierarchy(&cfg));
    (cfg, plans)
}

/// Run the workload for the budget in `args`, cycling the kill plans.
pub fn run(args: &Args, rec: &mut Recorder, tally: &mut Tally) -> Vec<Metric> {
    let (cfg, plans) = setup(args.seed);
    let mut reference = None;
    if args.trace {
        return traced(&cfg, &plans, args, rec, tally, &mut reference);
    }
    let budget = Budget::new(args.seconds, plans.len());
    let mut run = RunSamples::default();
    let mut n = 0;
    while budget.more(n) {
        let k = n % plans.len();
        let it = iteration(&cfg, plans[k], rec, tally, &mut reference);
        let setups = setup_samples(rec, "apps", "samr.setup", || setup(args.seed));
        let drill = it.doomed_secs + it.restart_secs;
        run.job(it.straight_secs, 1.0 / drill, &[drill], &setups);
        n += 1;
    }
    run.end_to_end()
}

/// Checkpoint codec figures of one set.
#[derive(Default)]
struct Codec {
    encode_mb_per_s: f64,
    decode_mb_per_s: f64,
    set_bytes: f64,
}

/// Time `CODEC_REPS` encodes and decodes of `set`. Only the
/// `to_bytes` and `from_bytes` calls are timed; the decoded set must
/// re-encode to the same bytes.
fn codec(set: &CheckpointSet, rec: &mut Recorder, tally: &mut Tally) -> Codec {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    for _ in 0..CODEC_REPS {
        let (b, secs) = rec.time("ckpt", "CheckpointSet::to_bytes", || set.to_bytes());
        enc.push(secs);
        bytes = b;
    }
    let mut decoded = None;
    for _ in 0..CODEC_REPS {
        let (d, secs) = rec.time("ckpt", "CheckpointSet::from_bytes", || {
            CheckpointSet::from_bytes(&bytes)
        });
        dec.push(secs);
        decoded = Some(d);
    }
    let back = match decoded {
        Some(Ok(d)) => d.to_bytes(),
        _ => Vec::new(),
    };
    tally.op((back != bytes).then(|| "checkpoint set does not round-trip through bytes".into()));
    let mb = bytes.len() as f64 / 1e6;
    Codec {
        encode_mb_per_s: mb / median(&enc),
        decode_mb_per_s: mb / median(&dec),
        set_bytes: bytes.len() as f64,
    }
}

/// The traced run: alternate an untraced and a traced iteration; the
/// traced one also times the checkpoint codec and a checkpoint-free
/// straight run.
fn traced(
    cfg: &SamrConfig,
    plans: &[FaultPlan],
    args: &Args,
    rec: &mut Recorder,
    tally: &mut Tally,
    reference: &mut Option<u64>,
) -> Vec<Metric> {
    let budget = Budget::new(args.seconds, 2);
    let (mut plain_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let mut rows = Vec::new();
    while budget.more(rows.len()) {
        let plan = plans[rows.len() % plans.len()];
        rec.set_iteration(rows.len() as u64);
        rec.set_enabled(false);
        plain_wall.push(iteration(cfg, plan, rec, tally, reference).straight_secs);
        rec.set_enabled(true);
        let it = iteration(cfg, plan, rec, tally, reference);
        traced_wall.push(it.straight_secs);
        let codec = it
            .last_set
            .as_ref()
            .map(|set| codec(set, rec, tally))
            .unwrap_or_default();
        let no_ckpt = SamrConfig {
            ckpt_interval: 0,
            ..*cfg
        };
        let (bare, bare_secs, _) = straight(&no_ckpt, rec, "samr.straight-no-ckpt");
        tally.op((bare.checksum.to_bits() != it.straight.checksum.to_bits())
            .then(|| "checkpointing changed the straight run's checksum".into()));
        rec.set_enabled(false);
        rows.push(layer_row(&it, &codec, bare_secs));
    }
    per_layer(&rows, &plain_wall, &traced_wall)
}

/// Per-layer figures of one traced iteration; `bare_secs` is the same
/// straight run with checkpointing off.
fn layer_row(it: &Iteration, codec: &Codec, bare_secs: f64) -> Row {
    let r = &it.straight;
    vec![
        // No layer timer runs inside the SCMD ranks yet, so the whole
        // straight run is unattributed.
        ("apps.unattributed_frac", 1.0),
        ("apps.doomed_run_s", it.doomed_secs),
        ("apps.restart_run_s", it.restart_secs),
        ("ckpt.encode_mb_per_s", codec.encode_mb_per_s),
        ("ckpt.decode_mb_per_s", codec.decode_mb_per_s),
        ("ckpt.set_bytes", codec.set_bytes),
        ("ckpt.sets", r.checkpoints as f64),
        (
            "ckpt.overhead_frac",
            (it.straight_secs - bare_secs) / bare_secs,
        ),
        ("comm.messages", r.messages as f64),
        ("comm.bytes", r.bytes as f64),
        ("comm.messages_coalesced", r.messages_coalesced as f64),
        ("mesh.regrids", r.regrids as f64),
        ("mesh.migrations", r.migrations as f64),
        ("mesh.fine_cells", r.fine_cells as f64),
        (
            "comm.model_over_measured",
            r.modeled_time / it.straight_secs,
        ),
    ]
}

/// A per-layer row of a made-up iteration (names only).
#[cfg(test)]
pub(super) fn sample_row() -> Row {
    let it = Iteration {
        straight: SamrResult {
            modeled_time: 1.0,
            messages: 1,
            bytes: 1,
            messages_coalesced: 1,
            regrids: 1,
            migrations: 1,
            fine_cells: 1,
            final_max: 1.0,
            checksum: 1.0,
            checkpoints: 1,
        },
        straight_secs: 1.0,
        doomed_secs: 1.0,
        restart_secs: 1.0,
        last_set: None,
    };
    layer_row(&it, &Codec::default(), 1.0)
}
