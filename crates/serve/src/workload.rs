//! Serveable workloads: the two paper applications re-expressed as
//! *driverless* assemblies plus a server-side stepper.
//!
//! The batch codes in `cca-apps` put the time loop inside a driver
//! component invoked by `go` — an all-or-nothing call the server could
//! neither budget nor cancel. Here the same assemblies are built without
//! a driver; the server's stepper drives the ports directly and checks
//! the [`StepCtl`] between macro steps, which is what makes deadlines and
//! cooperative cancellation deterministic (step-counted, never timed).
//!
//! Run configuration travels *inside the script* through a [`JobConfig`]
//! component (a pure parameter holder, the paper's "Database component"):
//! the job really is just rc-script + overrides, and the content hash of
//! the script covers every physics-relevant knob.

use crate::cache::Artifacts;
use crate::job::{FaultSpec, SimJob, WorkloadKind};
use crate::session::{StepCtl, StepError};
use cca_components::ports::{
    CheckpointPort, ChemistryAdvancePort, ChemistrySourcePort, DataPort, InitialConditionPort,
    MeshPort, OdeIntegratorPort, OdeRhsPort, RegridPort, StatisticsPort, TimeIntegratorPort,
};
use cca_core::{Component, Framework, ParameterPort, ParameterStore, Services};
use std::rc::Rc;

/// A pure parameter-holder component: the typed configuration surface of
/// a served job. `parameter cfg <key> <value>` script lines land here and
/// the stepper reads them back — so every run knob is part of the script,
/// hence part of the job's content hash.
#[derive(Default)]
pub struct JobConfig;

impl Component for JobConfig {
    fn set_services(&mut self, s: Services) {
        s.add_provides_port::<Rc<dyn ParameterPort>>("config", Rc::new(ParameterStore::new()));
    }
}

/// The palette served jobs assemble against: the standard application
/// palette plus [`JobConfig`].
pub fn serve_palette() -> Framework {
    let mut fw = cca_apps::palette::standard_palette();
    fw.register_class("JobConfig", || Box::<JobConfig>::default());
    fw
}

/// 0D homogeneous ignition job parameters (paper §4.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IgnitionSpec {
    /// Use the reduced 8-species/5-reaction mechanism?
    pub reduced: bool,
    /// Initial temperature, K.
    pub t0: f64,
    /// Initial pressure, Pa.
    pub p0: f64,
    /// Integration horizon, s.
    pub t_end: f64,
    /// Macro steps the horizon is split into (the deadline granularity).
    pub chunks: u64,
}

impl Default for IgnitionSpec {
    fn default() -> Self {
        IgnitionSpec {
            reduced: false,
            t0: 1000.0,
            p0: 101_325.0,
            t_end: 1.0e-5,
            chunks: 4,
        }
    }
}

impl IgnitionSpec {
    /// The driverless assembly script for this spec.
    pub fn script(&self) -> String {
        let chem_class = if self.reduced {
            "ThermoChemistryReduced"
        } else {
            "ThermoChemistry"
        };
        format!(
            "# serve: 0D ignition (paper Fig. 1, driverless)\n\
             instantiate {chem_class} chem\n\
             instantiate CvodeComponent cvode\n\
             instantiate dPdt dpdt\n\
             instantiate problemModeler modeler\n\
             instantiate JobConfig cfg\n\
             connect dpdt chemistry chem chemistry\n\
             connect modeler chemistry chem chemistry\n\
             connect modeler dpdt dpdt dpdt\n\
             parameter cfg T0 {:e}\n\
             parameter cfg P0 {:e}\n\
             parameter cfg t_end {:e}\n\
             parameter cfg chunks {}\n",
            self.t0, self.p0, self.t_end, self.chunks
        )
    }

    /// A submit-ready job with default scheduling attributes.
    pub fn job(&self) -> SimJob {
        SimJob {
            kind: WorkloadKind::Ignition0d,
            script: self.script(),
            overrides: Vec::new(),
            priority: 0,
            step_budget: None,
            want_checkpoint: false,
            fault: FaultSpec::default(),
            distributed: None,
            restore: None,
            tenant: 0,
            deadline: None,
            ckpt_interval: 0,
            on_late: crate::cost::LatePolicy::Reject,
        }
    }
}

/// 2D reaction–diffusion job parameters (paper §4.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RdSpec {
    /// Coarse cells per side.
    pub nx: i64,
    /// Domain side, m.
    pub length: f64,
    /// Refinement ratio.
    pub ratio: i64,
    /// Maximum SAMR levels (1 = adaptivity off).
    pub max_levels: usize,
    /// Macro time step, s.
    pub dt: f64,
    /// Macro steps.
    pub n_steps: usize,
    /// Steps between regrids.
    pub regrid_interval: usize,
    /// Refinement threshold on T (K per cell).
    pub threshold: f64,
    /// Include the implicit chemistry half-steps?
    pub with_chemistry: bool,
    /// Hot-spot peak temperature, K.
    pub t_hot: f64,
}

impl Default for RdSpec {
    fn default() -> Self {
        RdSpec {
            nx: 12,
            length: 0.01,
            ratio: 2,
            max_levels: 1,
            dt: 1.0e-6,
            n_steps: 2,
            regrid_interval: 2,
            threshold: 40.0,
            with_chemistry: false,
            t_hot: 1400.0,
        }
    }
}

impl RdSpec {
    /// The driverless assembly script for this spec (Fig. 2's wiring
    /// minus the driver component).
    pub fn script(&self) -> String {
        format!(
            "# serve: 2D reaction-diffusion (paper Fig. 2, driverless)\n\
             instantiate GrACEComponent grace\n\
             instantiate ThermoChemistry chem\n\
             instantiate CvodeComponent cvode\n\
             instantiate DRFMComponent drfm\n\
             instantiate DiffusionPhysics diffusion\n\
             instantiate MaxDiffCoeffEvaluator maxdiff\n\
             instantiate AdiabaticWalls walls\n\
             instantiate ExplicitIntegrator rkc\n\
             instantiate ImplicitIntegrator implicit\n\
             instantiate InitialCondition ic\n\
             instantiate ErrorEstAndRegrid regrid\n\
             instantiate StatisticsComponent statistics\n\
             instantiate JobConfig cfg\n\
             connect diffusion chemistry chem chemistry\n\
             connect diffusion transport drfm transport\n\
             connect maxdiff transport drfm transport\n\
             connect maxdiff mesh grace mesh\n\
             connect maxdiff data grace data\n\
             connect rkc mesh grace mesh\n\
             connect rkc data grace data\n\
             connect rkc patch-rhs diffusion patch-rhs\n\
             connect rkc eigen-estimate maxdiff eigen-estimate\n\
             connect rkc bc walls bc\n\
             connect implicit chemistry chem chemistry\n\
             connect implicit integrator cvode integrator\n\
             connect implicit mesh grace mesh\n\
             connect implicit data grace data\n\
             connect ic mesh grace mesh\n\
             connect ic data grace data\n\
             connect ic chemistry chem chemistry\n\
             connect regrid mesh grace mesh\n\
             connect regrid data grace data\n\
             connect regrid bc walls bc\n\
             connect statistics mesh grace mesh\n\
             connect statistics data grace data\n\
             parameter cfg nx {}\n\
             parameter cfg length {:e}\n\
             parameter cfg ratio {}\n\
             parameter cfg max_levels {}\n\
             parameter cfg dt {:e}\n\
             parameter cfg n_steps {}\n\
             parameter cfg regrid_interval {}\n\
             parameter cfg threshold {:e}\n\
             parameter cfg with_chemistry {}\n\
             parameter ic T_hot {:e}\n",
            self.nx,
            self.length,
            self.ratio,
            self.max_levels,
            self.dt,
            self.n_steps,
            self.regrid_interval,
            self.threshold,
            if self.with_chemistry { 1 } else { 0 },
            self.t_hot,
        )
    }

    /// A submit-ready job with default scheduling attributes.
    pub fn job(&self) -> SimJob {
        SimJob {
            kind: WorkloadKind::ReactionDiffusion,
            script: self.script(),
            overrides: Vec::new(),
            priority: 0,
            step_budget: None,
            want_checkpoint: false,
            fault: FaultSpec::default(),
            distributed: None,
            restore: None,
            tenant: 0,
            deadline: None,
            ckpt_interval: 0,
            on_late: crate::cost::LatePolicy::Reject,
        }
    }
}

fn port<P: Clone + 'static>(fw: &Framework, instance: &str, name: &str) -> Result<P, StepError> {
    fw.get_provides_port(instance, name)
        .map_err(|e| StepError::Failed(format!("missing port {instance}.{name}: {e}")))
}

/// Drive the assembled application to completion (or budget/cancel/
/// preemption).
pub(crate) fn execute(job: &SimJob, fw: &Framework, ctl: &StepCtl) -> Result<Artifacts, StepError> {
    match job.kind {
        WorkloadKind::Ignition0d => {
            if job.restore.is_some() {
                return Err(StepError::Failed(
                    "ignition jobs do not support checkpoint restore".into(),
                ));
            }
            run_ignition(fw, ctl)
        }
        WorkloadKind::ReactionDiffusion => run_rd(
            fw,
            ctl,
            job.want_checkpoint,
            job.restore.as_deref(),
            job.ckpt_interval,
        ),
    }
}

/// Stoichiometric H₂–air mass fractions in mechanism layout
/// (H₂ first, O₂ second, bulk N₂ last).
fn stoich(n: usize) -> Vec<f64> {
    let (w_h2, w_o2, w_n2) = (2.0 * 2.016, 31.998, 3.76 * 28.014);
    let total = w_h2 + w_o2 + w_n2;
    let mut y = vec![0.0; n];
    y[0] = w_h2 / total;
    y[1] = w_o2 / total;
    y[n - 1] = w_n2 / total;
    y
}

fn run_ignition(fw: &Framework, ctl: &StepCtl) -> Result<Artifacts, StepError> {
    let cfg: Rc<dyn ParameterPort> = port(fw, "cfg", "config")?;
    let p = |key: &str, default: f64| cfg.get_parameter(key).unwrap_or(default);
    let t0 = p("T0", 1000.0);
    let p0 = p("P0", 101_325.0);
    let t_end = p("t_end", 1.0e-5);
    let chunks = (p("chunks", 4.0) as u64).max(1);

    let chem: Rc<dyn ChemistrySourcePort> = port(fw, "chem", "chemistry")?;
    let rhs: Rc<dyn OdeRhsPort> = port(fw, "modeler", "rhs")?;
    let integ: Rc<dyn OdeIntegratorPort> = port(fw, "cvode", "integrator")?;

    let n = chem.n_species();
    let y0 = stoich(n);
    let rho = chem.density(t0, p0, &y0);
    fw.set_parameter("modeler", "density", rho)
        .map_err(|e| StepError::Failed(format!("setting density failed: {e}")))?;

    let mut state = Vec::with_capacity(n + 1);
    state.push(t0);
    state.extend_from_slice(&y0[..n - 1]);
    state.push(p0);
    integ.set_tolerances(1e-8, 1e-14);
    integ.set_initial_step(Some(1e-8));

    let mut t = 0.0;
    let mut rhs_evals = 0usize;
    for k in 0..chunks {
        begin_or_stop(ctl, None)?;
        let t1 = if k + 1 == chunks {
            t_end
        } else {
            t_end * (k + 1) as f64 / chunks as f64
        };
        let stats = integ
            .integrate(rhs.clone(), t, t1, &mut state)
            .map_err(|e| StepError::Failed(format!("integration failed: {e}")))?;
        rhs_evals += stats.rhs_evals;
        t = t1;
    }

    let l2 = state.iter().map(|v| v * v).sum::<f64>().sqrt();
    Ok(Artifacts {
        norms: vec![
            ("T_final".into(), state[0]),
            ("P_final".into(), *state.last().expect("non-empty state")),
            ("state_l2".into(), l2),
            ("rhs_evals".into(), rhs_evals as f64),
        ],
        transcript_digest: String::new(),
        checkpoint: None,
        steps: ctl.steps(),
    }
    .seal())
}

/// Periodic-commit bookkeeping for sliceable jobs: the last committed
/// component set and the one before it (the fallback a mid-snapshot
/// preemption resumes from).
#[derive(Default)]
struct CommitLog {
    last: Option<(u64, Vec<u8>)>,
    prev: Option<(u64, Vec<u8>)>,
}

impl CommitLog {
    fn push(&mut self, steps_abs: u64, set_bytes: Vec<u8>) {
        self.prev = self.last.take();
        self.last = Some((steps_abs, set_bytes));
    }

    /// The set a preemption at `executed_abs` completed steps hands back.
    /// A commit landing exactly on the yield step is discarded under the
    /// mid-snapshot drill (it is "still being written"), falling back to
    /// the prior set — at most `ckpt_interval` steps of re-execution.
    fn yield_set(&self, executed_abs: u64, mid_snapshot: bool) -> (Option<Vec<u8>>, u64) {
        let take = |c: &Option<(u64, Vec<u8>)>| match c {
            Some((steps, bytes)) => (Some(bytes.clone()), *steps),
            None => (None, 0),
        };
        match &self.last {
            Some((steps, _)) if mid_snapshot && *steps == executed_abs => take(&self.prev),
            _ => take(&self.last),
        }
    }
}

/// Poll the step controller, mapping the stop signals onto stepper
/// errors. `log` carries the periodic-commit state for workloads that
/// support preemptive yield; workloads without one are preempted with no
/// set (their continuation restarts from the initial condition).
fn begin_or_stop(ctl: &StepCtl, log: Option<(&CommitLog, u64)>) -> Result<(), StepError> {
    match ctl.begin_step() {
        Ok(()) => Ok(()),
        Err(crate::session::StepSignal::Cancel(reason)) => Err(StepError::Cancelled(reason)),
        Err(crate::session::StepSignal::Preempt) => {
            let mid_snapshot = ctl.preempt_spec().map(|p| p.mid_snapshot).unwrap_or(false);
            let (set, committed_steps) = match log {
                Some((log, executed_abs)) => log.yield_set(executed_abs, mid_snapshot),
                None => (None, 0),
            };
            Err(StepError::Preempted {
                set,
                committed_steps,
            })
        }
    }
}

/// RNG-free hash of the physics-bearing reaction–diffusion parameters,
/// given as canonical u64 words. `n_steps` is deliberately excluded: a
/// resumed leg runs *fewer* steps than the original submission, but it
/// is still the same simulation.
fn rd_config_hash(words: &[u64]) -> u64 {
    use crate::job::fnv1a64;
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    for word in words {
        h = fnv1a64(h, &word.to_le_bytes());
    }
    h
}

fn run_rd(
    fw: &Framework,
    ctl: &StepCtl,
    want_checkpoint: bool,
    restore: Option<&[u8]>,
    ckpt_interval: u64,
) -> Result<Artifacts, StepError> {
    let cfg: Rc<dyn ParameterPort> = port(fw, "cfg", "config")?;
    let p = |key: &str, default: f64| cfg.get_parameter(key).unwrap_or(default);
    let nx = p("nx", 12.0) as i64;
    let length = p("length", 0.01);
    let ratio = p("ratio", 2.0) as i64;
    let max_levels = p("max_levels", 1.0) as usize;
    let dt = p("dt", 1.0e-6);
    let n_steps = p("n_steps", 2.0) as usize;
    let regrid_interval = (p("regrid_interval", 2.0) as usize).max(1);
    let threshold = p("threshold", 40.0);
    let with_chemistry = p("with_chemistry", 0.0) != 0.0;
    let config_hash = rd_config_hash(&[
        nx as u64,
        length.to_bits(),
        ratio as u64,
        max_levels as u64,
        dt.to_bits(),
        regrid_interval as u64,
        threshold.to_bits(),
        with_chemistry as u64,
    ]);

    let mesh: Rc<dyn MeshPort> = port(fw, "grace", "mesh")?;
    let data: Rc<dyn DataPort> = port(fw, "grace", "data")?;
    let ic: Rc<dyn InitialConditionPort> = port(fw, "ic", "ic")?;
    let integ: Rc<dyn TimeIntegratorPort> = port(fw, "rkc", "time-integrator")?;
    let chem_adv: Rc<dyn ChemistryAdvancePort> = port(fw, "implicit", "chemistry-advance")?;
    let regrid: Rc<dyn RegridPort> = port(fw, "regrid", "regrid")?;
    let stats: Rc<dyn StatisticsPort> = port(fw, "statistics", "statistics")?;

    // Setup (not step-counted: the deadline budgets *time evolution*).
    mesh.create(nx, nx, length, length, ratio);
    data.create_data_object("state", 9, 2);
    let steps_done = match restore {
        None => {
            ic.apply("state");
            for level in 0..max_levels.saturating_sub(1) {
                regrid.estimate_and_regrid("state", level, 0, threshold);
                ic.apply("state");
            }
            0usize
        }
        Some(bytes) => {
            // Resume: integrity-check the component set, refuse a set
            // from a different configuration, and replace the freshly
            // created state wholesale with the checkpointed one.
            let set = cca_ckpt::ComponentSet::from_bytes(bytes)
                .map_err(|e| StepError::Failed(format!("restore rejected: {e}")))?;
            if set.config_hash != config_hash {
                return Err(StepError::Failed(
                    "restore rejected: checkpoint belongs to a different configuration".into(),
                ));
            }
            let grace_bytes = set.part("grace").ok_or_else(|| {
                StepError::Failed("restore rejected: set has no grace state".into())
            })?;
            let ckpt: Rc<dyn CheckpointPort> = port(fw, "grace", "checkpoint")?;
            ckpt.restore_bytes(grace_bytes)
                .map_err(|e| StepError::Failed(format!("restore failed: {e}")))?;
            set.steps_done as usize
        }
    };

    // Bit-replay the time accumulation of the completed steps, so a
    // resumed leg's `t` is the exact float the interrupted run held.
    let mut t = 0.0;
    for _ in 0..steps_done {
        t += dt;
    }
    let ckpt_port: Option<Rc<dyn CheckpointPort>> = if ckpt_interval > 0 {
        Some(port(fw, "grace", "checkpoint")?)
    } else {
        None
    };
    let mut commits = CommitLog::default();
    for step in 0..n_steps {
        begin_or_stop(ctl, Some((&commits, (steps_done + step) as u64)))?;
        // Regrid cadence counts absolute steps across legs.
        let step_abs = steps_done + step;
        if max_levels > 1 && step_abs > 0 && step_abs % regrid_interval == 0 {
            let top = mesh.n_levels().min(max_levels - 1);
            for level in 0..top {
                regrid.estimate_and_regrid("state", level, 0, threshold);
            }
        }
        if with_chemistry {
            chem_adv
                .advance_chemistry("state", 0.5 * dt, 101_325.0)
                .map_err(|e| StepError::Failed(format!("chemistry half-step failed: {e}")))?;
        }
        integ
            .advance("state", t, dt)
            .map_err(|e| StepError::Failed(format!("diffusion step failed: {e}")))?;
        if with_chemistry {
            chem_adv
                .advance_chemistry("state", 0.5 * dt, 101_325.0)
                .map_err(|e| StepError::Failed(format!("chemistry half-step failed: {e}")))?;
        }
        data.restrict_down("state");
        t += dt;
        // Periodic commit: wrap the mesh state in a checksummed set so a
        // preemption (or migration) re-executes at most `ckpt_interval`
        // steps. Commits are pure observation — the physics above never
        // sees them, so a sliced run stays bit-identical to a straight
        // one.
        if let Some(ckpt) = &ckpt_port {
            let done_abs = (steps_done + step + 1) as u64;
            if done_abs.is_multiple_of(ckpt_interval) {
                let grace_bytes = ckpt
                    .save_bytes()
                    .map_err(|e| StepError::Failed(format!("periodic commit failed: {e}")))?;
                let set = cca_ckpt::ComponentSet {
                    config_hash,
                    steps_done: done_abs,
                    parts: vec![("grace".to_string(), grace_bytes)],
                };
                commits.push(done_abs, set.to_bytes());
            }
        }
    }

    let checkpoint = if want_checkpoint {
        // Wrap the raw CheckpointPort bytes in a versioned, checksummed
        // component set carrying the configuration hash and the absolute
        // step count — the artifact a preempted job resumes from.
        let ckpt: Rc<dyn CheckpointPort> = port(fw, "grace", "checkpoint")?;
        let grace_bytes = ckpt
            .save_bytes()
            .map_err(|e| StepError::Failed(format!("checkpoint failed: {e}")))?;
        let set = cca_ckpt::ComponentSet {
            config_hash,
            steps_done: (steps_done + ctl.steps() as usize) as u64,
            parts: vec![("grace".to_string(), grace_bytes)],
        };
        Some(set.to_bytes())
    } else {
        None
    };

    Ok(Artifacts {
        norms: vec![
            ("T_max".into(), stats.max_var("state", 0)),
            ("T_min".into(), stats.min_var("state", 0)),
            ("H2O2_max".into(), stats.max_var("state", 8)),
            ("T_integral".into(), stats.integral("state", 0)),
            ("levels".into(), mesh.n_levels() as f64),
        ],
        transcript_digest: String::new(),
        checkpoint,
        steps: ctl.steps(),
    }
    .seal())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{CancelToken, Session};

    fn palette_fn() -> crate::session::PaletteFn {
        Rc::new(serve_palette)
    }

    #[test]
    fn ignition_job_runs_and_heats_nothing_at_short_horizon() {
        let palette = palette_fn();
        let mut s = Session::new(0, &palette);
        let job = IgnitionSpec::default().job();
        let (outcome, steps, _) = s.execute(&job, CancelToken::new(), false, &palette, None);
        match outcome {
            crate::session::RunOutcome::Done(a) => {
                assert_eq!(steps, 4);
                assert_eq!(a.steps, 4);
                let t = a.norm("T_final").unwrap();
                assert!((999.0..3800.0).contains(&t), "T = {t}");
                assert!(a.norm("rhs_evals").unwrap() > 0.0);
            }
            _ => panic!("expected completion"),
        }
    }

    #[test]
    fn rd_job_respects_step_budget_exactly() {
        let palette = palette_fn();
        let mut s = Session::new(0, &palette);
        let mut job = RdSpec {
            n_steps: 6,
            ..RdSpec::default()
        }
        .job();
        job.step_budget = Some(2);
        let (outcome, steps, _) = s.execute(&job, CancelToken::new(), false, &palette, None);
        match outcome {
            crate::session::RunOutcome::Cancelled(reason) => {
                assert_eq!(steps, 2);
                assert_eq!(reason, crate::session::CancelReason::Deadline { budget: 2 });
            }
            _ => panic!("expected deadline cancellation"),
        }
    }

    #[test]
    fn rd_job_yields_checkpoint_bytes_on_request() {
        let palette = palette_fn();
        let mut s = Session::new(0, &palette);
        let mut job = RdSpec::default().job();
        job.want_checkpoint = true;
        let (outcome, _, _) = s.execute(&job, CancelToken::new(), false, &palette, None);
        match outcome {
            crate::session::RunOutcome::Done(a) => {
                let bytes = a.checkpoint.expect("checkpoint requested");
                assert!(!bytes.is_empty());
            }
            _ => panic!("expected completion"),
        }
    }

    fn run_done(s: &mut Session, job: &SimJob, palette: &crate::session::PaletteFn) -> Artifacts {
        match s.execute(job, CancelToken::new(), false, palette, None).0 {
            crate::session::RunOutcome::Done(a) => a,
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn preempted_rd_job_resumes_bit_identically() {
        let palette = palette_fn();
        let spec = |n_steps| RdSpec {
            n_steps,
            max_levels: 2,
            threshold: 5.0,
            ..RdSpec::default()
        };
        // Ground truth: four macro steps in one uninterrupted leg.
        let mut s = Session::new(0, &palette);
        let direct = run_done(&mut s, &spec(4).job(), &palette);
        // Preemption: two steps, checkpoint, then a fresh session resumes
        // the remaining two from the component set.
        let mut first = spec(2).job();
        first.want_checkpoint = true;
        let mut s1 = Session::new(1, &palette);
        let a1 = run_done(&mut s1, &first, &palette);
        let set = a1.checkpoint.expect("checkpoint requested");
        let parsed = cca_ckpt::ComponentSet::from_bytes(&set).expect("artifact is a valid set");
        assert_eq!(parsed.steps_done, 2);
        let mut second = spec(2).job();
        second.restore = Some(set);
        assert_ne!(
            second.key(),
            spec(2).job().key(),
            "a resumed leg must never share a cache key with a from-scratch run"
        );
        let mut s2 = Session::new(2, &palette);
        let a2 = run_done(&mut s2, &second, &palette);
        for norm in ["T_max", "T_min", "T_integral", "levels"] {
            let (got, want) = (a2.norm(norm).unwrap(), direct.norm(norm).unwrap());
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{norm} drifted across preemption: {got} vs {want}"
            );
        }
    }

    #[test]
    fn corrupt_or_mismatched_restore_sets_are_rejected() {
        let palette = palette_fn();
        let mut first = RdSpec::default().job();
        first.want_checkpoint = true;
        let mut s = Session::new(0, &palette);
        let a1 = run_done(&mut s, &first, &palette);
        let set = a1.checkpoint.expect("checkpoint requested");
        let failed = |job: &SimJob| -> String {
            let mut s = Session::new(9, &palette);
            match s.execute(job, CancelToken::new(), false, &palette, None).0 {
                crate::session::RunOutcome::Failed(msg) => msg,
                other => panic!("expected deterministic failure, got {other:?}"),
            }
        };
        // A flipped byte fails the set checksum — typed failure, no panic.
        let mut corrupt = set.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        let mut job = RdSpec::default().job();
        job.restore = Some(corrupt);
        assert!(failed(&job).contains("restore rejected"), "checksum gate");
        // A set from a different configuration is refused by its hash.
        let mut other_cfg = RdSpec {
            nx: 16,
            ..RdSpec::default()
        }
        .job();
        other_cfg.restore = Some(set.clone());
        assert!(
            failed(&other_cfg).contains("different configuration"),
            "config-hash gate"
        );
        // Ignition jobs cannot restore at all.
        let mut ign = IgnitionSpec::default().job();
        ign.restore = Some(set);
        assert!(failed(&ign).contains("do not support"), "kind gate");
    }

    #[test]
    fn injected_fault_panics_then_clean_retry_succeeds() {
        let palette = palette_fn();
        let mut s = Session::new(0, &palette);
        let mut job = IgnitionSpec::default().job();
        job.fault = FaultSpec {
            fail_attempts: 1,
            panic_at_step: 2,
            ..FaultSpec::default()
        };
        let (outcome, _, _) = s.execute(&job, CancelToken::new(), true, &palette, None);
        assert!(matches!(outcome, crate::session::RunOutcome::Panicked(_)));
        assert_eq!(s.epoch, 1, "poisoning must bump the epoch");
        // Attempt 2: fault no longer injected; the rebuilt slot completes.
        let (outcome, _, _) = s.execute(&job, CancelToken::new(), false, &palette, None);
        assert!(matches!(outcome, crate::session::RunOutcome::Done(_)));
        assert_eq!(s.runs, 2);
    }
}
