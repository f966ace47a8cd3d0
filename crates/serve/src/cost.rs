//! Deadline-aware admission: a cost model predicting a job's
//! virtual-clock runtime (and a modeled wall-time figure) from its
//! script alone — mesh size, mechanism, step budget — before any session
//! is spent on it.
//!
//! The virtual-tick prediction is *exact*: the scheduler charges
//! `1 + macro steps` per attempt, and the macro-step count of both
//! workloads is a pure function of script parameters (`chunks`,
//! `n_steps`) and the step budget. That exactness is what makes deadline
//! rejection **provable**: if even the globally earliest-free session
//! cannot finish the job by its deadline, no schedule can — work
//! stealing included — so the fleet refuses (or degrades) the job
//! instead of letting it rot in a queue it can never leave in time.
//!
//! The modeled-seconds figure is calibrated against the PR 9 machine
//! model (`cca-bench::model`, BENCH_PR9.json). `cca-bench` depends on
//! `cca-serve`, so the calibration constants are mirrored here rather
//! than imported; the bench suite is the drift check.

use crate::job::{canonical_script, Override, SimJob, WorkloadKind};

/// What to do with a job whose deadline is provably unreachable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LatePolicy {
    /// Refuse it at admission with a typed error (the default).
    #[default]
    Reject,
    /// Accept it degraded: the deadline is dropped and the job demoted
    /// to priority 0 — it runs as scavenger traffic.
    Downgrade,
}

/// Modeled throughput of the reaction–diffusion sweep, cells/s: the
/// fleet cost model's frozen calibration constant (the figure a retired
/// 2 GHz machine model gave the diffusion RHS). It sets virtual ticks
/// only; changing it moves every tick figure in BENCH_PR10.json.
pub const RD_CELLS_PER_SEC: f64 = 3.967_884_931_336_991e6;
/// Slowdown factor of a macro step when the implicit chemistry
/// half-steps are on (per-cell BDF integrations dominate the sweep).
pub const CHEMISTRY_FACTOR: f64 = 8.0;
/// Modeled seconds per 0D-ignition chunk with the full 9-species
/// mechanism (one stiff BDF integration over the chunk horizon).
pub const IGN_CHUNK_SECONDS: f64 = 2.5e-4;
/// Chunk-cost ratio of the reduced 8-species/5-reaction mechanism.
pub const REDUCED_MECH_FACTOR: f64 = 0.45;

/// A job's predicted cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostPrediction {
    /// Macro steps the job will execute (budget-clamped).
    pub steps: u64,
    /// Virtual ticks one uninterrupted attempt costs (`1 + steps`) —
    /// exact, because the dispatcher charges the same formula.
    pub run_ticks: u64,
    /// Modeled wall seconds (from the calibration constants), for
    /// capacity planning.
    pub modeled_seconds: f64,
}

/// The calibrated predictor. The default constants are frozen
/// calibration figures (see [`RD_CELLS_PER_SEC`]); tests may override
/// them to probe admission logic.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Reaction–diffusion sweep throughput, cells/s.
    pub rd_cells_per_sec: f64,
    /// Chemistry slowdown multiplier.
    pub chemistry_factor: f64,
    /// Seconds per ignition chunk (full mechanism).
    pub ign_chunk_seconds: f64,
    /// Reduced-mechanism chunk cost ratio.
    pub reduced_mech_factor: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            rd_cells_per_sec: RD_CELLS_PER_SEC,
            chemistry_factor: CHEMISTRY_FACTOR,
            ign_chunk_seconds: IGN_CHUNK_SECONDS,
            reduced_mech_factor: REDUCED_MECH_FACTOR,
        }
    }
}

/// The script parameters the model reads, with the workload defaults
/// (kept in lockstep with `workload::run_ignition` / `run_rd`).
fn param(script_params: &[(String, f64)], overrides: &[Override], key: &str, default: f64) -> f64 {
    // Overrides apply after the script, so the last writer wins.
    let mut value = default;
    for (k, v) in script_params {
        if k == key {
            value = *v;
        }
    }
    for o in overrides {
        if o.instance == "cfg" && o.key == key {
            value = o.value;
        }
    }
    value
}

/// Extract every `parameter cfg <key> <value>` line of the canonical
/// script (the workload's whole configuration surface).
fn cfg_params(script: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in canonical_script(script).lines() {
        let mut tok = line.split(' ');
        if tok.next() != Some("parameter") || tok.next() != Some("cfg") {
            continue;
        }
        if let (Some(key), Some(val)) = (tok.next(), tok.next()) {
            if let Ok(v) = val.parse::<f64>() {
                out.push((key.to_string(), v));
            }
        }
    }
    out
}

impl CostModel {
    /// Predict the cost of one uninterrupted run of `job`.
    pub fn predict(&self, job: &SimJob) -> CostPrediction {
        let params = cfg_params(&job.script);
        let (natural_steps, step_seconds) = match job.kind {
            WorkloadKind::Ignition0d => {
                let chunks = (param(&params, &job.overrides, "chunks", 4.0) as u64).max(1);
                let mech = if job.script.contains("ThermoChemistryReduced") {
                    self.reduced_mech_factor
                } else {
                    1.0
                };
                (chunks, self.ign_chunk_seconds * mech)
            }
            WorkloadKind::ReactionDiffusion => {
                let nx = param(&params, &job.overrides, "nx", 12.0).max(1.0);
                let n_steps = (param(&params, &job.overrides, "n_steps", 2.0) as u64).max(1);
                let max_levels = param(&params, &job.overrides, "max_levels", 1.0).max(1.0);
                let ratio = param(&params, &job.overrides, "ratio", 2.0).max(1.0);
                let with_chemistry = param(&params, &job.overrides, "with_chemistry", 0.0) != 0.0;
                // Effective cells per macro step: the coarse sweep plus a
                // quarter-domain refined patch per extra level (the
                // loadgen hot-spot geometry the PR 7 suite measured).
                let cells = nx * nx * (1.0 + (max_levels - 1.0) * 0.25 * ratio * ratio);
                let mut secs = cells / self.rd_cells_per_sec;
                if with_chemistry {
                    secs *= self.chemistry_factor;
                }
                (n_steps, secs)
            }
        };
        // A restored leg only runs the steps its own script asks for —
        // `n_steps`/`chunks` already describe the leg, not the original
        // submission — so no further adjustment is needed here.
        let steps = match job.step_budget {
            Some(b) => natural_steps.min(b),
            None => natural_steps,
        };
        CostPrediction {
            steps,
            run_ticks: 1 + steps,
            modeled_seconds: steps as f64 * step_seconds,
        }
    }

    /// Is the deadline provably unreachable? `earliest_start` must be a
    /// lower bound on when *any* session in the whole fleet could start
    /// the job (work stealing cannot beat the globally earliest-free
    /// session). Returns the needed completion tick when it proves
    /// lateness, `None` when the deadline is (at least in principle)
    /// reachable.
    pub fn provably_late(
        &self,
        job: &SimJob,
        earliest_start: u64,
        deadline_abs: u64,
    ) -> Option<u64> {
        let needed = earliest_start + self.predict(job).run_ticks;
        (needed > deadline_abs).then_some(needed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{IgnitionSpec, RdSpec};

    #[test]
    fn tick_prediction_matches_the_dispatcher_charge_exactly() {
        let m = CostModel::default();
        let ign = IgnitionSpec {
            chunks: 7,
            ..IgnitionSpec::default()
        }
        .job();
        assert_eq!(m.predict(&ign).run_ticks, 8);
        let rd = RdSpec {
            n_steps: 12,
            ..RdSpec::default()
        }
        .job();
        assert_eq!(m.predict(&rd).run_ticks, 13);
        // Budget clamps the charge, exactly as StepCtl clamps the run.
        let mut budgeted = rd;
        budgeted.step_budget = Some(3);
        assert_eq!(m.predict(&budgeted).run_ticks, 4);
    }

    #[test]
    fn overrides_shift_the_prediction() {
        let m = CostModel::default();
        let mut rd = RdSpec {
            n_steps: 2,
            ..RdSpec::default()
        }
        .job();
        rd.overrides
            .push(crate::job::Override::new("cfg", "n_steps", 9.0));
        assert_eq!(m.predict(&rd).steps, 9);
    }

    #[test]
    fn modeled_seconds_track_mesh_size_mechanism_and_chemistry() {
        let m = CostModel::default();
        let small = m.predict(&RdSpec::default().job()).modeled_seconds;
        let big = m
            .predict(
                &RdSpec {
                    nx: 48,
                    ..RdSpec::default()
                }
                .job(),
            )
            .modeled_seconds;
        assert!(
            big > 10.0 * small,
            "quadratic cell scaling: {big} vs {small}"
        );
        let chem = m
            .predict(
                &RdSpec {
                    with_chemistry: true,
                    ..RdSpec::default()
                }
                .job(),
            )
            .modeled_seconds;
        assert!((chem / small - CHEMISTRY_FACTOR).abs() < 1e-9);
        let full = m.predict(&IgnitionSpec::default().job()).modeled_seconds;
        let reduced = m
            .predict(
                &IgnitionSpec {
                    reduced: true,
                    ..IgnitionSpec::default()
                }
                .job(),
            )
            .modeled_seconds;
        assert!(reduced < full);
    }

    #[test]
    fn provable_lateness_is_a_lower_bound_test() {
        let m = CostModel::default();
        let job = IgnitionSpec {
            chunks: 4,
            ..IgnitionSpec::default()
        }
        .job(); // run_ticks = 5
        assert_eq!(m.provably_late(&job, 10, 14), Some(15));
        assert_eq!(m.provably_late(&job, 10, 15), None);
    }
}
