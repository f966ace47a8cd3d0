//! `cca-bench` — the CI bench-smoke binary.
//!
//! Runs a deterministic, *counter-based* slice of the paper experiments
//! (no wall-clock anywhere, so the output is byte-stable across hosts
//! and runs) and writes it as `BENCH_PR2.json`:
//!
//! - **Table 4 slice** — NFE (right-hand-side evaluation) counters of the
//!   0D ignition problem through the component assembly vs the direct
//!   library path. Equal counters are the paper's "componentization adds
//!   no work" claim reduced to an integer.
//! - **Table 5 / Fig. 8 slice** — modeled weak-scaling runtimes of the
//!   reaction–diffusion workload on the calibrated CPlant cluster model
//!   (virtual clocks driven by the real SCMD messages).
//!
//! Usage:
//!
//! ```text
//! cca-bench smoke [PATH]          # run the slice, write JSON (default BENCH_PR2.json)
//! cca-bench check [PATH]          # validate an existing file, exit non-zero if malformed
//! cca-bench serve [PATH]          # run the serving loadgen, write BENCH_PR3.json
//! cca-bench serve-check [PATH]    # validate an existing BENCH_PR3.json
//! cca-bench hotpath [PATH]        # run the allocation-discipline suite, write BENCH_PR4.json
//! cca-bench hotpath-check [PATH]  # validate an existing BENCH_PR4.json
//! cca-bench scaling [PATH]        # run the overlap/coalescing sweeps, write BENCH_PR5.json
//! cca-bench scaling-check [PATH]  # validate an existing BENCH_PR5.json
//! cca-bench samr [PATH]           # run the distributed-SAMR P sweep, write BENCH_PR7.json
//! cca-bench samr-check [PATH]     # validate an existing BENCH_PR7.json
//! cca-bench kernels [PATH]        # run the diffusion and flux kernels, write BENCH_PR9.json
//! cca-bench kernels-check [PATH]  # validate an existing BENCH_PR9.json
//! cca-bench fleet [PATH]          # run the serve-fleet shard sweep, write BENCH_PR10.json
//! cca-bench fleet-check [PATH]    # validate an existing BENCH_PR10.json
//! ```
//!
//! The `fleet` pair freezes the PR-10 sharded-serving contract: the
//! multi-tenant loadgen replayed at 1/2/4 shards (identical outcome
//! checksums — the schedule moves, the physics must not), a ≥ 3×
//! modeled-throughput scaling floor at 4 shards, a steal-vs-pinned
//! comparison whose p99 turnaround must improve by ≥ 15%, and the
//! deadline-admission scenario (provably-late jobs rejected or
//! downgraded, zero lost jobs everywhere).
//!
//! The `kernels` pair freezes the diffusion RHS and Godunov flux
//! kernels: one real run of each on a 96×96 patch, pinned by its
//! interior checksum.
//!
//! The `serve` pair freezes the PR-3 serving-subsystem loadgen (200 jobs,
//! 25% duplicates, fault and deadline injection) through a one-shard
//! fleet. The fleet schedules on a virtual tick clock, so every counter
//! *and every latency percentile* in the file is deterministic.
//!
//! The `hotpath` pair freezes the PR-4 memory discipline: each SAMR hot
//! loop (RKC macro step, ghost exchange, kinetics rate evaluation) is
//! run once cold — every scratch checkout allocates — and then warm for
//! a fixed iteration count, recording the `cca_core::scratch` pool-miss
//! counter. The contract is **zero steady-state allocation events**;
//! checkout counts pin the amount of traffic the pool absorbs.
//!
//! The `samr` pair freezes the PR-7 distributed-SAMR contract: the
//! adaptive reaction–diffusion run at P ∈ {1, 2, 4, 6}, audited against
//! its emitted comm plan, with zero checksum drift from the P = 1 bits
//! and regrid-time rebalancing migrating at least one patch at P > 1.
//!
//! The `scaling` pair freezes the PR-5 nonblocking-halo contract: weak
//! and strong sweeps of the distributed diffusion workload, each point
//! run three ways (blocking two-pass exchange, overlapped single-pass
//! without coalescing, overlapped with per-neighbour coalescing). The
//! file pins bit-identical checksums across all three schedules, the
//! exact 9× message reduction from coalescing, and a ≥ 10% modeled
//! runtime improvement at the strong-scaling knee (64² global on 16
//! ranks of the CPlant model with communication-bound work).
//!
//! `./ci.sh` runs all of it when `CI_BENCH=1` and compares the fresh
//! output against the committed baselines.

use cca_apps::recover::run_samr_recovering;
use cca_apps::samr::{run_samr, SamrConfig};
use cca_apps::scaling::{run_scaling, ScalingConfig};
use cca_chem::systems::ConstantVolumeIgnition;
use cca_chem::{h2_air_19, h2_air_reduced_5};
use cca_comm::ClusterModel;
use cca_components::diffusion::diffusion_rhs_with_kernels;
use cca_components::ports::{
    ChemistryKernel, ChemistrySourcePort, OdeIntegratorPort, OdeRhsPort, TransportKernel,
    TransportPort,
};
use cca_core::{scratch, ParameterPort};
use cca_hydro_solver::limiter::Limiter;
use cca_hydro_solver::muscl::compute_rhs;
use cca_hydro_solver::riemann::GodunovFlux;
use cca_hydro_solver::state::{prim_to_cons, Prim, NVARS};
use cca_mesh::ghost::{fill_coarse_fine_ghosts, fill_same_level_ghosts};
use cca_mesh::{DataObject, Hierarchy, IntBox, PatchData};
use cca_solvers::{Bdf, BdfConfig, Rkc, RkcConfig};
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::Arc;

const DEFAULT_PATH: &str = "BENCH_PR2.json";
const SCHEMA: &str = "cca-bench-smoke-v2";
const SERVE_PATH: &str = "BENCH_PR3.json";
const SERVE_SCHEMA: &str = "cca-serve-loadgen-v1";
const HOTPATH_PATH: &str = "BENCH_PR4.json";
const HOTPATH_SCHEMA: &str = "cca-bench-hotpath-v1";
const SCALING_PATH: &str = "BENCH_PR5.json";
const SCALING_SCHEMA: &str = "cca-bench-scaling-v1";
const SAMR_PATH: &str = "BENCH_PR7.json";
const SAMR_SCHEMA: &str = "cca-bench-samr-v1";
const CKPT_PATH: &str = "BENCH_PR8.json";
const CKPT_SCHEMA: &str = "cca-bench-ckpt-v1";
const KERNELS_PATH: &str = "BENCH_PR9.json";
const KERNELS_SCHEMA: &str = "cca-bench-kernels-v2";
const FLEET_PATH: &str = "BENCH_PR10.json";
const FLEET_SCHEMA: &str = "cca-bench-fleet-v1";

/// Stoichiometric H2-air for an n-species table (H2, O2 first; N2 last).
fn stoich(n: usize) -> Vec<f64> {
    let (w_h2, w_o2, w_n2) = (2.0 * 2.016, 31.998, 3.76 * 28.014);
    let total = w_h2 + w_o2 + w_n2;
    let mut y = vec![0.0; n];
    y[0] = w_h2 / total;
    y[1] = w_o2 / total;
    y[n - 1] = w_n2 / total;
    y
}

/// NFE of the direct library path (Table 4's "C-code" column).
fn nfe_direct(t_end: f64) -> usize {
    let mech = h2_air_reduced_5();
    let y0 = stoich(mech.n_species());
    let sys = ConstantVolumeIgnition::new(mech, 1500.0, 101_325.0, &y0);
    let mut state = sys.pack_state(1500.0, &y0, 101_325.0);
    let bdf = Bdf::new(BdfConfig {
        rtol: 1e-8,
        atol: 1e-14,
        h_init: Some(1e-8),
        ..BdfConfig::default()
    });
    bdf.integrate(&sys, 0.0, t_end, &mut state)
        .expect("direct path")
        .rhs_evals
}

/// NFE of the same physics behind CCA ports (Table 4's component column).
fn nfe_component(t_end: f64) -> usize {
    let mut fw = cca_apps::palette::standard_palette();
    cca_core::script::run_script(
        &mut fw,
        "instantiate ThermoChemistryReduced chem\n\
         instantiate CvodeComponent cvode\n\
         instantiate dPdt dpdt\n\
         instantiate problemModeler modeler\n\
         connect dpdt chemistry chem chemistry\n\
         connect modeler chemistry chem chemistry\n\
         connect modeler dpdt dpdt dpdt\n",
    )
    .expect("assembly");
    let rhs: Rc<dyn OdeRhsPort> = fw.get_provides_port("modeler", "rhs").expect("rhs port");
    let integ: Rc<dyn OdeIntegratorPort> = fw
        .get_provides_port("cvode", "integrator")
        .expect("integrator port");
    let cfg: Rc<dyn ParameterPort> = fw.get_provides_port("modeler", "config").expect("config");
    let mech = h2_air_reduced_5();
    let y0 = stoich(mech.n_species());
    let mix = cca_chem::thermo::Mixture::new(&mech.species);
    cfg.set_parameter("density", mix.density(1500.0, 101_325.0, &y0));
    let mut state = vec![1500.0];
    state.extend_from_slice(&y0[..y0.len() - 1]);
    state.push(101_325.0);
    integ.set_tolerances(1e-8, 1e-14);
    integ.set_initial_step(Some(1e-8));
    integ
        .integrate(rhs, 0.0, t_end, &mut state)
        .expect("component path")
        .rhs_evals
}

fn smoke_json() -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str("  \"deterministic\": true,\n");

    // Table 4 slice: two integration lengths = the paper's two NFE levels.
    out.push_str("  \"table4_overhead\": [\n");
    let cases = [("dt1", 1.0e-6), ("dt10", 1.0e-5)];
    for (i, (tag, t_end)) in cases.iter().enumerate() {
        let nd = nfe_direct(*t_end);
        let nc = nfe_component(*t_end);
        let delta = nc as i64 - nd as i64;
        out.push_str(&format!(
            "    {{\"case\": \"{tag}\", \"nfe_direct\": {nd}, \
             \"nfe_component\": {nc}, \"nfe_delta\": {delta}}}{}\n",
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");

    // Weak-scaling slice: Table 5 problem sizes on a CPlant-like model.
    out.push_str("  \"weak_scaling_model\": [\n");
    let model = ClusterModel::cplant();
    let sizes = [50i64, 100, 175];
    let ranks = [1usize, 4, 16];
    for (si, &n) in sizes.iter().enumerate() {
        for (ri, &p) in ranks.iter().enumerate() {
            let r = run_scaling(
                &ScalingConfig {
                    n,
                    per_rank: true,
                    ranks: p,
                    steps: 5,
                    stages_per_step: 2,
                    work_per_cell_var: 0.5,
                    audit: true,
                    ..ScalingConfig::default()
                },
                model,
            );
            let last = si + 1 == sizes.len() && ri + 1 == ranks.len();
            out.push_str(&format!(
                "    {{\"n\": {n}, \"ranks\": {p}, \"modeled_time_s\": {:e}, \
                 \"messages\": {}, \"bytes\": {}, \"checksum\": {:e}}}{}\n",
                r.modeled_time,
                r.messages,
                r.bytes,
                r.checksum,
                if last { "" } else { "," }
            ));
        }
    }
    out.push_str("  ]\n}\n");
    out
}

/// One point of the overlap/coalescing sweep: the same physics run
/// under the three exchange schedules.
struct OverlapPoint {
    n: i64,
    per_rank: bool,
    ranks: usize,
    work_per_cell_var: f64,
}

impl OverlapPoint {
    fn json(&self) -> String {
        let base = ScalingConfig {
            n: self.n,
            per_rank: self.per_rank,
            ranks: self.ranks,
            steps: 5,
            stages_per_step: 2,
            work_per_cell_var: self.work_per_cell_var,
            // Every bench run is audited: the recorded comm trace must
            // refine the static plan (recording never touches the
            // virtual clocks, so timings are unchanged).
            audit: true,
            ..ScalingConfig::default()
        };
        let model = ClusterModel::cplant();
        let blocking = run_scaling(&base, model);
        let naive = run_scaling(
            &ScalingConfig {
                overlap: true,
                coalesce: false,
                ..base
            },
            model,
        );
        let overlap = run_scaling(
            &ScalingConfig {
                overlap: true,
                ..base
            },
            model,
        );
        // The contract, reduced to integers: all three schedules produce
        // the same bits, and coalescing folds NVARS messages into one.
        let checksum_drift = u64::from(
            blocking.checksum.to_bits() != overlap.checksum.to_bits()
                || blocking.checksum.to_bits() != naive.checksum.to_bits(),
        );
        let improvement = (blocking.modeled_time - overlap.modeled_time) / blocking.modeled_time;
        format!(
            "{{\"n\": {}, \"per_rank\": {}, \"ranks\": {}, \
             \"t_blocking_s\": {:e}, \"t_uncoalesced_s\": {:e}, \"t_overlap_s\": {:e}, \
             \"improvement\": {:e}, \"checksum\": {:e}, \"checksum_drift\": {}, \
             \"halo_messages_uncoalesced\": {}, \"halo_messages\": {}, \
             \"messages_coalesced\": {}, \"halo_bytes\": {}}}",
            self.n,
            self.per_rank,
            self.ranks,
            blocking.modeled_time,
            naive.modeled_time,
            overlap.modeled_time,
            improvement,
            blocking.checksum,
            checksum_drift,
            naive.halo_messages,
            overlap.halo_messages,
            overlap.messages_coalesced,
            overlap.halo_bytes,
        )
    }
}

/// PR-5 overlap/coalescing sweeps, frozen as JSON.
fn scaling_json() -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCALING_SCHEMA}\",\n"));
    out.push_str("  \"deterministic\": true,\n");
    // Weak sweep (per-rank tiles, compute-heavy as in Table 5) and
    // strong sweep (fixed global mesh, shrinking tiles as in Fig. 9).
    let sweeps: [(&str, Vec<OverlapPoint>); 2] = [
        (
            "weak_sweep",
            [4usize, 16]
                .iter()
                .map(|&p| OverlapPoint {
                    n: 50,
                    per_rank: true,
                    ranks: p,
                    work_per_cell_var: 0.5,
                })
                .collect(),
        ),
        (
            "strong_sweep",
            [4usize, 16]
                .iter()
                .map(|&p| OverlapPoint {
                    n: 96,
                    per_rank: false,
                    ranks: p,
                    work_per_cell_var: 0.5,
                })
                .collect(),
        ),
    ];
    for (name, points) in &sweeps {
        out.push_str(&format!("  \"{name}\": [\n"));
        for (i, pt) in points.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                pt.json(),
                if i + 1 < points.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
    }
    // The knee: the paper's worst strong-scaling point is a small tile
    // on many processors (29² per rank at P = 48). A 16² tile per rank
    // with communication-bound work is where overlap pays most — the
    // acceptance floor is a 10% modeled-runtime improvement.
    out.push_str("  \"knee\": ");
    out.push_str(
        &OverlapPoint {
            n: 64,
            per_rank: false,
            ranks: 16,
            work_per_cell_var: 2.0e-4,
        }
        .json(),
    );
    out.push_str(",\n  \"knee_improvement_floor\": 1e-1\n}\n");
    out
}

/// Structural + invariant validation of a scaling file. Load-bearing:
/// zero checksum drift everywhere (overlap changes the schedule, never
/// the bits), exact 9× coalescing, and the knee improvement floor.
fn validate_scaling(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    if !text.contains(&format!("\"schema\": \"{SCALING_SCHEMA}\"")) {
        errs.push(format!(
            "missing or wrong schema tag (want {SCALING_SCHEMA})"
        ));
    }
    for (open, close, what) in [('{', '}', "braces"), ('[', ']', "brackets")] {
        let a = text.matches(open).count();
        let b = text.matches(close).count();
        if a != b || a == 0 {
            errs.push(format!("unbalanced {what}: {a} '{open}' vs {b} '{close}'"));
        }
    }
    let points = numbers_after(text, "checksum_drift").len();
    if points != 5 {
        errs.push(format!(
            "want 5 sweep points (2 weak + 2 strong + knee), found {points}"
        ));
    }
    for (i, v) in numbers_after(text, "checksum_drift").iter().enumerate() {
        if *v != 0.0 {
            errs.push(format!(
                "point {i}: overlapped schedule drifted from the blocking bits"
            ));
        }
    }
    for key in ["t_blocking_s", "t_uncoalesced_s", "t_overlap_s"] {
        for (i, v) in numbers_after(text, key).iter().enumerate() {
            if !v.is_finite() || *v <= 0.0 {
                errs.push(format!("point {i}: non-physical \"{key}\" = {v}"));
            }
        }
    }
    let naive = numbers_after(text, "halo_messages_uncoalesced");
    let coalesced = numbers_after(text, "halo_messages");
    for (i, (u, c)) in naive.iter().zip(&coalesced).enumerate() {
        if *c < 1.0 || *u != c * 9.0 {
            errs.push(format!(
                "point {i}: coalescing must fold exactly 9 messages into 1 \
                 ({u} uncoalesced vs {c} coalesced)"
            ));
        }
    }
    let saved = numbers_after(text, "messages_coalesced");
    for (i, (s, c)) in saved.iter().zip(&coalesced).enumerate() {
        if *s != c * 8.0 {
            errs.push(format!(
                "point {i}: {s} messages saved does not match 8 per \
                 coalesced message ({c})"
            ));
        }
    }
    let improvements = numbers_after(text, "improvement");
    let floor = numbers_after(text, "knee_improvement_floor");
    match (improvements.last(), floor.first()) {
        (Some(knee), Some(floor)) if knee >= floor => {}
        (Some(knee), Some(floor)) => errs.push(format!(
            "knee improvement {knee} below the {floor} acceptance floor"
        )),
        _ => errs.push("missing knee improvement or its floor".into()),
    }
    errs
}

/// PR-7 distributed-SAMR sweep, frozen as JSON: the adaptive
/// reaction–diffusion run of `cca_apps::samr` at P ∈ {1, 2, 4, 6} on the
/// CPlant model, every run audited against its emitted comm plan. The
/// load-bearing numbers are the zero in every `checksum_drift` (the
/// distributed hierarchy reproduces the single-rank bits exactly, regrid
/// and migration traffic included) and the nonzero total `migrations`
/// (regrid-time rebalancing actually moved patches between ranks).
fn samr_json() -> String {
    let model = ClusterModel::cplant();
    let ranks = [1usize, 2, 4, 6];
    let runs: Vec<_> = ranks
        .iter()
        .map(|&p| {
            run_samr(
                &SamrConfig {
                    ranks: p,
                    audit: true,
                    ..SamrConfig::default()
                },
                model,
            )
        })
        .collect();
    let base_bits = runs[0].checksum.to_bits();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SAMR_SCHEMA}\",\n"));
    out.push_str("  \"deterministic\": true,\n");
    out.push_str("  \"p_sweep\": [\n");
    for (i, (&p, r)) in ranks.iter().zip(&runs).enumerate() {
        let drift = u64::from(r.checksum.to_bits() != base_bits);
        out.push_str(&format!(
            "    {{\"ranks\": {p}, \"modeled_time_s\": {:e}, \"messages\": {}, \
             \"bytes\": {}, \"messages_coalesced\": {}, \"regrids\": {}, \
             \"migrations\": {}, \"fine_cells\": {}, \"checksum\": {:e}, \
             \"checksum_drift\": {drift}}}{}\n",
            r.modeled_time,
            r.messages,
            r.bytes,
            r.messages_coalesced,
            r.regrids,
            r.migrations,
            r.fine_cells,
            r.checksum,
            if i + 1 < ranks.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let migrated: usize = runs.iter().skip(1).map(|r| r.migrations).sum();
    out.push_str(&format!("  \"migrations_at_p_gt_1\": {migrated}\n}}\n"));
    out
}

/// Structural + invariant validation of a distributed-SAMR file: zero
/// checksum drift at every P, an identical final hierarchy everywhere,
/// periodic regridding exercised, and at least one patch migration at
/// some P > 1.
fn validate_samr(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    if !text.contains(&format!("\"schema\": \"{SAMR_SCHEMA}\"")) {
        errs.push(format!("missing or wrong schema tag (want {SAMR_SCHEMA})"));
    }
    for (open, close, what) in [('{', '}', "braces"), ('[', ']', "brackets")] {
        let a = text.matches(open).count();
        let b = text.matches(close).count();
        if a != b || a == 0 {
            errs.push(format!("unbalanced {what}: {a} '{open}' vs {b} '{close}'"));
        }
    }
    let drifts = numbers_after(text, "checksum_drift");
    if drifts.len() != 4 {
        errs.push(format!("want 4 P-sweep points, found {}", drifts.len()));
    }
    for (i, v) in drifts.iter().enumerate() {
        if *v != 0.0 {
            errs.push(format!(
                "point {i}: distributed run drifted from the P=1 bits"
            ));
        }
    }
    for (i, v) in numbers_after(text, "modeled_time_s").iter().enumerate() {
        if !v.is_finite() || *v <= 0.0 {
            errs.push(format!("point {i}: non-physical modeled time {v}"));
        }
    }
    for (i, v) in numbers_after(text, "regrids").iter().enumerate() {
        if *v < 2.0 {
            errs.push(format!(
                "point {i}: only {v} regrid(s); periodic regridding never ran"
            ));
        }
    }
    let fine = numbers_after(text, "fine_cells");
    if fine.windows(2).any(|w| w[0] != w[1]) {
        errs.push(format!("final fine level differs across P: {fine:?}"));
    }
    if fine.first().is_none_or(|v| *v < 1.0) {
        errs.push("the estimator never refined anything".into());
    }
    if numbers_after(text, "migrations_at_p_gt_1")
        .first()
        .is_none_or(|v| *v < 1.0)
    {
        errs.push("no P > 1 run migrated a patch; rebalancing untested".into());
    }
    errs
}

/// PR-8 checkpoint/restart drill, frozen as JSON: the adaptive SAMR run
/// with a coordinated checkpoint every 2 steps, a rank killed at step 3,
/// and recovery from the last complete set at P' ∈ {4, 1, 2, 6} on the
/// CPlant model. The load-bearing numbers are the zero in every
/// `checksum_drift` (a recovered run — at the same or a different rank
/// count — reproduces the uninterrupted bits exactly) and the zero
/// `ckpt_drift` (checkpointing itself never perturbs a field bit);
/// `ckpt_overhead` records what the periodic snapshots cost in modeled
/// time.
fn ckpt_json() -> String {
    let model = ClusterModel::cplant();
    let cfg = SamrConfig {
        ranks: 4,
        ckpt_interval: 2,
        audit: true,
        ..SamrConfig::default()
    };
    let base = run_samr(
        &SamrConfig {
            ckpt_interval: 0,
            ..cfg
        },
        model,
    );
    let with_ckpt = run_samr(&cfg, model);
    let fault = cca_ckpt::FaultPlan {
        rank: 1,
        step: 3,
        mid_snapshot: false,
    };
    let restart_ranks = [4usize, 1, 2, 6];
    let recoveries: Vec<_> = restart_ranks
        .iter()
        .map(|&p| (p, run_samr_recovering(&cfg, model, fault, p)))
        .collect();
    let base_bits = base.checksum.to_bits();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{CKPT_SCHEMA}\",\n"));
    out.push_str("  \"deterministic\": true,\n");
    out.push_str(&format!(
        "  \"uninterrupted\": {{\"ranks\": {}, \"modeled_time_s\": {:e}, \
         \"checksum\": {:e}, \"fine_cells\": {}}},\n",
        cfg.ranks, base.modeled_time, base.checksum, base.fine_cells
    ));
    let ckpt_drift = u64::from(with_ckpt.checksum.to_bits() != base_bits);
    out.push_str(&format!(
        "  \"checkpointing\": {{\"interval\": {}, \"checkpoints\": {}, \
         \"modeled_time_s\": {:e}, \"ckpt_overhead\": {:e}, \"ckpt_drift\": {ckpt_drift}}},\n",
        cfg.ckpt_interval,
        with_ckpt.checkpoints,
        with_ckpt.modeled_time,
        (with_ckpt.modeled_time - base.modeled_time) / base.modeled_time,
    ));
    out.push_str("  \"recoveries\": [\n");
    for (i, (p, rec)) in recoveries.iter().enumerate() {
        let drift = u64::from(rec.result.checksum.to_bits() != base_bits);
        out.push_str(&format!(
            "    {{\"killed_at_ranks\": {}, \"restart_ranks\": {p}, \
             \"resumed_from_step\": {}, \"sets_before_kill\": {}, \
             \"modeled_time_s\": {:e}, \"checksum\": {:e}, \"checksum_drift\": {drift}}}{}\n",
            cfg.ranks,
            rec.resumed_from,
            rec.checkpoints_before_kill,
            rec.result.modeled_time,
            rec.result.checksum,
            if i + 1 < recoveries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Structural + invariant validation of a checkpoint/restart file: zero
/// drift for the checkpointing run and every recovery (same-P and
/// elastic), the cadence actually fired, and every recovery resumed from
/// a committed set.
fn validate_ckpt(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    if !text.contains(&format!("\"schema\": \"{CKPT_SCHEMA}\"")) {
        errs.push(format!("missing or wrong schema tag (want {CKPT_SCHEMA})"));
    }
    for (open, close, what) in [('{', '}', "braces"), ('[', ']', "brackets")] {
        let a = text.matches(open).count();
        let b = text.matches(close).count();
        if a != b || a == 0 {
            errs.push(format!("unbalanced {what}: {a} '{open}' vs {b} '{close}'"));
        }
    }
    if numbers_after(text, "ckpt_drift").first() != Some(&0.0) {
        errs.push("checkpointing perturbed the run's bits".into());
    }
    if numbers_after(text, "checkpoints")
        .first()
        .is_none_or(|v| *v < 1.0)
    {
        errs.push("the checkpoint cadence never fired".into());
    }
    let drifts = numbers_after(text, "checksum_drift");
    if drifts.len() != 4 {
        errs.push(format!("want 4 recovery points, found {}", drifts.len()));
    }
    for (i, v) in drifts.iter().enumerate() {
        if *v != 0.0 {
            errs.push(format!(
                "recovery {i}: recovered run drifted from the uninterrupted bits"
            ));
        }
    }
    for (i, v) in numbers_after(text, "resumed_from_step").iter().enumerate() {
        if *v < 1.0 {
            errs.push(format!("recovery {i}: resumed from step {v}"));
        }
    }
    for (i, v) in numbers_after(text, "sets_before_kill").iter().enumerate() {
        if *v < 1.0 {
            errs.push(format!("recovery {i}: no complete set before the kill"));
        }
    }
    for (i, v) in numbers_after(text, "modeled_time_s").iter().enumerate() {
        if !v.is_finite() || *v <= 0.0 {
            errs.push(format!("point {i}: non-physical modeled time {v}"));
        }
    }
    errs
}

/// Counters of one hot loop: a cold pass (empty thread pool, every
/// checkout allocates), one settling pass, then a fixed warm run.
struct HotLoop {
    name: &'static str,
    iterations: u64,
    cold_alloc_events: u64,
    steady_alloc_events: u64,
    steady_checkouts: u64,
}

/// Run `step` under the pool-miss counters. The returned numbers are
/// pure functions of the workload (no clocks, no addresses), so the
/// committed baseline can be compared byte-for-byte.
fn measure_hot_loop(name: &'static str, mut step: impl FnMut()) -> HotLoop {
    const ITERATIONS: u64 = 25;
    scratch::clear_thread_pools();
    let cold_from = scratch::thread_alloc_events();
    step(); // cold: the pool is empty, every checkout is a heap miss
    let cold_alloc_events = scratch::thread_alloc_events() - cold_from;
    step(); // settle: lets buffers reach their high-water capacities
    let alloc_from = scratch::thread_alloc_events();
    let checkout_from = scratch::checkouts();
    for _ in 0..ITERATIONS {
        step();
    }
    HotLoop {
        name,
        iterations: ITERATIONS,
        cold_alloc_events,
        steady_alloc_events: scratch::thread_alloc_events() - alloc_from,
        steady_checkouts: scratch::checkouts() - checkout_from,
    }
}

/// RKC macro step over a 512-cell 1D diffusion stencil — the shape of
/// the reaction–diffusion assembly's explicit hot loop. Polynomial
/// initial data keeps every number libm-free and host-stable.
fn hotpath_rkc() -> HotLoop {
    let n = 512usize;
    let sys = (n, |_t: f64, y: &[f64], dydt: &mut [f64]| {
        for i in 0..y.len() {
            let l = if i == 0 { y[i] } else { y[i - 1] };
            let r = if i + 1 == y.len() { y[i] } else { y[i + 1] };
            dydt[i] = l - 2.0 * y[i] + r;
        }
    });
    let y0: Vec<f64> = (0..n)
        .map(|i| (i * (n - i)) as f64 / (n * n) as f64)
        .collect();
    let rkc = Rkc::new(RkcConfig::default());
    let mut y = vec![0.0; n];
    measure_hot_loop("rkc_macro_step", || {
        y.copy_from_slice(&y0);
        rkc.integrate(&sys, 0.0, 1.0, &mut y, |_, _| 4.0, 1e-2)
            .expect("diffusion decay integrates");
    })
}

/// Ghost exchange over a two-level hierarchy with two fine patches —
/// same-level pack/unpack plus coarse–fine prolongation, the loops the
/// clone-free `cca_mesh::ghost` rewrite targets.
fn hotpath_ghost() -> HotLoop {
    let mut h = Hierarchy::new(IntBox::sized(16, 16), [0.0, 0.0], [1.0 / 16.0; 2], 2);
    let a = IntBox::new([4, 4], [7, 11]).refine(2);
    let b = IntBox::new([8, 4], [11, 11]).refine(2);
    h.set_level_boxes(1, &[a, b]);
    let coarse_id = h.levels[0].patches[0].id;
    let ids: Vec<usize> = h.levels[1].patches.iter().map(|p| p.id).collect();
    let mut dobj = DataObject::new(2, 2);
    dobj.allocate(0, coarse_id, h.levels[0].patches[0].interior);
    dobj.allocate(1, ids[0], a);
    dobj.allocate(1, ids[1], b);
    dobj.patch_mut(0, coarse_id)
        .expect("allocated")
        .fill_var(0, 1.0);
    measure_hot_loop("ghost_exchange", || {
        fill_same_level_ghosts(&mut dobj, &h, 0);
        fill_same_level_ghosts(&mut dobj, &h, 1);
        fill_coarse_fine_ghosts(&mut dobj, &h, 1);
    })
}

/// Production rates of the full 9-species/19-reaction mechanism at three
/// temperatures — the vectorizable rate-table loop. The Arrhenius table
/// itself is built once per `Mechanism` (OnceLock), so only the two
/// per-call thermodynamic workspaces touch the pool.
fn hotpath_kinetics() -> HotLoop {
    let mech = h2_air_19();
    let n = mech.n_species();
    let c: Vec<f64> = (0..n).map(|i| 1.0e-3 + 2.0e-4 * i as f64).collect();
    let mut wdot = vec![0.0; n];
    measure_hot_loop("kinetics_rates", || {
        for t in [800.0, 1500.0, 2500.0] {
            mech.production_rates(t, &c, &mut wdot);
        }
    })
}

/// PR-4 allocation-discipline suite, frozen as JSON.
fn hotpath_json() -> String {
    let loops = [hotpath_rkc(), hotpath_ghost(), hotpath_kinetics()];
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{HOTPATH_SCHEMA}\",\n"));
    out.push_str("  \"deterministic\": true,\n");
    out.push_str(&format!(
        "  \"pooling_enabled\": {},\n",
        scratch::pooling_enabled()
    ));
    out.push_str("  \"hot_loops\": [\n");
    for (i, l) in loops.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"loop\": \"{}\", \"iterations\": {}, \"cold_alloc_events\": {}, \
             \"steady_alloc_events\": {}, \"steady_checkouts\": {}}}{}\n",
            l.name,
            l.iterations,
            l.cold_alloc_events,
            l.steady_alloc_events,
            l.steady_checkouts,
            if i + 1 < loops.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"retained_buffers\": {}\n}}\n",
        scratch::retained_buffers()
    ));
    out
}

/// Structural + invariant validation of a hotpath file. The load-bearing
/// invariant is the zero in every `steady_alloc_events`: a warm SAMR hot
/// loop must never touch the heap.
fn validate_hotpath(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    if !text.contains(&format!("\"schema\": \"{HOTPATH_SCHEMA}\"")) {
        errs.push(format!(
            "missing or wrong schema tag (want {HOTPATH_SCHEMA})"
        ));
    }
    for (open, close, what) in [('{', '}', "braces"), ('[', ']', "brackets")] {
        let a = text.matches(open).count();
        let b = text.matches(close).count();
        if a != b || a == 0 {
            errs.push(format!("unbalanced {what}: {a} '{open}' vs {b} '{close}'"));
        }
    }
    let steady = numbers_after(text, "steady_alloc_events");
    if steady.len() != 3 {
        errs.push(format!("want 3 hot loops, found {}", steady.len()));
    }
    for (i, v) in steady.iter().enumerate() {
        if *v != 0.0 {
            errs.push(format!(
                "hot loop {i} allocates in steady state: {v} events"
            ));
        }
    }
    for (key, floor) in [
        ("cold_alloc_events", 1.0),
        ("steady_checkouts", 1.0),
        ("iterations", 1.0),
    ] {
        for (i, v) in numbers_after(text, key).iter().enumerate() {
            if *v < floor {
                errs.push(format!("hot loop {i}: \"{key}\" = {v} below {floor}"));
            }
        }
    }
    if numbers_after(text, "retained_buffers")
        .first()
        .is_none_or(|v| *v < 1.0)
    {
        errs.push("pool retained no buffers after the suite".into());
    }
    errs
}

/// PR-3 serving-subsystem loadgen, frozen as JSON. Every value is a pure
/// function of the loadgen seed (virtual-clock scheduling), so CI can
/// diff this byte-for-byte against the committed baseline.
fn serve_json() -> String {
    let cfg = cca_serve::LoadgenConfig::default();
    let r = cca_serve::run_loadgen(&cfg);
    let s = &r.stats;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SERVE_SCHEMA}\",\n"));
    out.push_str("  \"deterministic\": true,\n");
    out.push_str(&format!(
        "  \"scenario\": {{\"jobs\": {}, \"duplicate_requests\": {}, \"seed\": {}, \
         \"sessions\": {}, \"queue_capacity\": {}, \"burst\": {}, \"cache_capacity\": {}}},\n",
        cfg.jobs,
        r.duplicate_requests,
        cfg.seed,
        cfg.sessions,
        cfg.queue_capacity,
        cfg.burst,
        cfg.cache_capacity
    ));
    out.push_str(&format!(
        "  \"outcomes\": {{\"completed\": {}, \"cached\": {}, \"cancelled_deadline\": {}, \
         \"cancelled_user\": {}, \"failed\": {}}},\n",
        r.completed, r.cached, r.cancelled_deadline, r.cancelled_user, r.failed
    ));
    out.push_str(&format!(
        "  \"service\": {{\"rejection_events\": {}, \"retries\": {}, \"poisonings\": {}, \
         \"coalesced\": {}, \"cache_hit_ratio\": {:e}, \"total_ticks\": {}, \
         \"throughput_jobs_per_kilotick\": {:e}}},\n",
        r.rejection_events,
        s.retries,
        s.poisonings,
        s.coalesced,
        r.cache_hit_ratio,
        r.total_ticks,
        r.throughput_jobs_per_kilotick
    ));
    out.push_str(&format!(
        "  \"queue_wait_ticks\": {{\"count\": {}, \"mean\": {:e}, \"p50\": {:e}, \
         \"p95\": {:e}, \"p99\": {:e}, \"max\": {:e}}},\n",
        s.queue_wait.count,
        s.queue_wait.mean,
        s.queue_wait.p50,
        s.queue_wait.p95,
        s.queue_wait.p99,
        s.queue_wait.max
    ));
    out.push_str(&format!(
        "  \"run_ticks\": {{\"count\": {}, \"mean\": {:e}, \"p50\": {:e}, \
         \"p95\": {:e}, \"p99\": {:e}, \"max\": {:e}}},\n",
        s.run_ticks.count,
        s.run_ticks.mean,
        s.run_ticks.p50,
        s.run_ticks.p95,
        s.run_ticks.p99,
        s.run_ticks.max
    ));
    out.push_str("  \"sessions\": [\n");
    let sessions = &s.shards[0].sessions;
    for (i, sess) in sessions.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"epoch\": {}, \"runs\": {}}}{}\n",
            sess.id,
            sess.epoch,
            sess.runs,
            if i + 1 < sessions.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Structural + invariant validation of a serve loadgen file.
fn validate_serve(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    if !text.contains(&format!("\"schema\": \"{SERVE_SCHEMA}\"")) {
        errs.push(format!("missing or wrong schema tag (want {SERVE_SCHEMA})"));
    }
    for (open, close, what) in [('{', '}', "braces"), ('[', ']', "brackets")] {
        let a = text.matches(open).count();
        let b = text.matches(close).count();
        if a != b || a == 0 {
            errs.push(format!("unbalanced {what}: {a} '{open}' vs {b} '{close}'"));
        }
    }
    let one = |key: &str, errs: &mut Vec<String>| -> f64 {
        let v = numbers_after(text, key);
        if v.len() != 1 {
            errs.push(format!("want exactly one \"{key}\", found {}", v.len()));
            return f64::NAN;
        }
        v[0]
    };
    let jobs = one("jobs", &mut errs);
    let dup = one("duplicate_requests", &mut errs);
    let resolved = [
        "completed",
        "cached",
        "cancelled_deadline",
        "cancelled_user",
        "failed",
    ]
    .iter()
    .map(|k| one(k, &mut errs))
    .sum::<f64>();
    if resolved != jobs {
        errs.push(format!(
            "lost jobs: {resolved} outcomes for {jobs} accepted submissions"
        ));
    }
    let cached = one("cached", &mut errs);
    if cached < dup {
        errs.push(format!(
            "cache hit count {cached} below duplicate count {dup}"
        ));
    }
    for key in [
        "rejection_events",
        "retries",
        "poisonings",
        "cancelled_deadline",
        "failed",
    ] {
        if one(key, &mut errs) < 1.0 {
            errs.push(format!("\"{key}\" was never exercised"));
        }
    }
    let epochs: f64 = numbers_after(text, "epoch").iter().sum();
    if epochs != one("poisonings", &mut errs) {
        errs.push(format!(
            "session epoch sum {epochs} must equal poisonings (panic isolation)"
        ));
    }
    errs
}

/// One latency block for the fleet file.
fn fleet_latency(name: &str, l: &cca_serve::LatencyStat, trailing_comma: bool) -> String {
    format!(
        "    \"{name}\": {{\"count\": {}, \"mean\": {:e}, \"p50\": {:e}, \
         \"p95\": {:e}, \"p99\": {:e}, \"max\": {:e}}}{}\n",
        l.count,
        l.mean,
        l.p50,
        l.p95,
        l.p99,
        l.max,
        if trailing_comma { "," } else { "" }
    )
}

/// The PR-10 fleet contract: shard-scaling sweep, steal-vs-pinned
/// comparison, and the deadline-admission scenario — all on the virtual
/// clock, so every number is byte-stable.
fn fleet_json() -> String {
    let cfg = cca_serve::FleetLoadgenConfig::default();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{FLEET_SCHEMA}\",\n"));
    out.push_str("  \"deterministic\": true,\n");
    out.push_str(&format!(
        "  \"scenario\": {{\"jobs\": {}, \"seed\": {}, \"sessions_per_shard\": {}, \
         \"queue_capacity\": {}, \"cache_capacity\": {}, \"burst\": {}}},\n",
        cfg.jobs,
        cfg.seed,
        cfg.sessions_per_shard,
        cfg.queue_capacity,
        cfg.cache_capacity,
        cfg.burst
    ));

    // Shard-scaling sweep: same request stream, growing fleet.
    let sweep: Vec<cca_serve::FleetLoadgenReport> = [1usize, 2, 4]
        .iter()
        .map(|&shards| {
            cca_serve::run_fleet_loadgen(&cca_serve::FleetLoadgenConfig {
                shards,
                ..cca_serve::FleetLoadgenConfig::default()
            })
        })
        .collect();
    let base_checksum = sweep[0].outcome_checksum;
    out.push_str("  \"shard_scaling\": [\n");
    for (i, r) in sweep.iter().enumerate() {
        let s = &r.stats;
        out.push_str(&format!(
            "    {{\"shards\": {}, \"total_ticks\": {}, \"throughput_jobs_per_kilotick\": {:e}, \
             \"completed\": {}, \"cached\": {}, \"lost\": {}, \"rejection_events\": {}, \
             \"steals\": {}, \"migrations\": {}, \"preemptions\": {}, \
             \"wait_p50\": {:e}, \"wait_p95\": {:e}, \"wait_p99\": {:e}, \
             \"turnaround_p50\": {:e}, \"turnaround_p95\": {:e}, \"turnaround_p99\": {:e}, \
             \"outcome_checksum\": \"{:016x}\", \"checksum_drift\": {}}}{}\n",
            r.config.shards,
            r.total_ticks,
            r.throughput_jobs_per_kilotick,
            r.completed,
            r.cached,
            r.lost,
            r.rejection_events,
            s.steals,
            s.migrations,
            s.preemptions,
            s.queue_wait.p50,
            s.queue_wait.p95,
            s.queue_wait.p99,
            s.turnaround.p50,
            s.turnaround.p95,
            s.turnaround.p99,
            r.outcome_checksum,
            u64::from(r.outcome_checksum != base_checksum),
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let tput1 = sweep[0].throughput_jobs_per_kilotick;
    let tput4 = sweep[2].throughput_jobs_per_kilotick;
    out.push_str(&format!(
        "  \"scaling_4x\": {:e},\n  \"scaling_4x_floor\": 3e0,\n",
        tput4 / tput1
    ));

    // Steal vs pinned at 4 shards: deterministic stealing must buy tail
    // latency, not just shuffle work.
    let steal = &sweep[2];
    let pinned = cca_serve::run_fleet_loadgen(&cca_serve::FleetLoadgenConfig {
        shards: 4,
        steal: false,
        ..cca_serve::FleetLoadgenConfig::default()
    });
    let (p99s, p99p) = (steal.stats.turnaround.p99, pinned.stats.turnaround.p99);
    out.push_str("  \"steal_vs_pinned\": {\n");
    out.push_str(&fleet_latency(
        "steal_turnaround",
        &steal.stats.turnaround,
        true,
    ));
    out.push_str(&fleet_latency(
        "pinned_turnaround",
        &pinned.stats.turnaround,
        true,
    ));
    out.push_str(&format!(
        "    \"steal_total_ticks\": {}, \"pinned_total_ticks\": {}, \
         \"pinned_lost\": {}, \"pinned_checksum_drift\": {},\n",
        steal.total_ticks,
        pinned.total_ticks,
        pinned.lost,
        u64::from(pinned.outcome_checksum != base_checksum)
    ));
    out.push_str(&format!(
        "    \"p99_improvement\": {:e}, \"p99_improvement_floor\": 1.5e-1\n",
        (p99p - p99s) / p99p
    ));
    out.push_str("  },\n");

    // Deadline admission: the cost model must reject or downgrade
    // provably-late jobs at submit time.
    let adm = cca_serve::run_fleet_loadgen(&cca_serve::FleetLoadgenConfig {
        deadlines: true,
        ..cca_serve::FleetLoadgenConfig::default()
    });
    out.push_str(&format!(
        "  \"admission\": {{\"rejected_deadline\": {}, \"downgraded\": {}, \
         \"completed\": {}, \"lost\": {}, \"outcome_checksum\": \"{:016x}\"}}\n",
        adm.rejected_deadline, adm.stats.downgraded, adm.completed, adm.lost, adm.outcome_checksum
    ));
    out.push_str("}\n");
    out
}

/// Structural + invariant validation of a fleet file.
fn validate_fleet(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    if !text.contains(&format!("\"schema\": \"{FLEET_SCHEMA}\"")) {
        errs.push(format!("missing or wrong schema tag (want {FLEET_SCHEMA})"));
    }
    for (open, close, what) in [('{', '}', "braces"), ('[', ']', "brackets")] {
        let a = text.matches(open).count();
        let b = text.matches(close).count();
        if a != b || a == 0 {
            errs.push(format!("unbalanced {what}: {a} '{open}' vs {b} '{close}'"));
        }
    }
    let drifts = numbers_after(text, "checksum_drift");
    if drifts.len() != 3 {
        errs.push(format!(
            "want 3 shard-scaling points, found {}",
            drifts.len()
        ));
    }
    for (i, v) in drifts.iter().enumerate() {
        if *v != 0.0 {
            errs.push(format!(
                "shard-scaling point {i} drifted the outcome checksum (replay broken)"
            ));
        }
    }
    if numbers_after(text, "pinned_checksum_drift").first() != Some(&0.0) {
        errs.push("disabling stealing drifted the outcome checksum".into());
    }
    for key in ["lost", "pinned_lost"] {
        if numbers_after(text, key).iter().any(|v| *v != 0.0) {
            errs.push(format!("\"{key}\" is nonzero: requests vanished"));
        }
    }
    for key in ["steals", "migrations", "preemptions"] {
        if numbers_after(text, key).iter().sum::<f64>() < 1.0 {
            errs.push(format!("\"{key}\" was never exercised across the sweep"));
        }
    }
    for (value, floor) in [
        ("scaling_4x", "scaling_4x_floor"),
        ("p99_improvement", "p99_improvement_floor"),
    ] {
        let v = numbers_after(text, value);
        let f = numbers_after(text, floor);
        match (v.first(), f.first()) {
            (Some(v), Some(f)) if v >= f => {}
            (Some(v), Some(f)) => {
                errs.push(format!("\"{value}\" {v} below the {f} acceptance floor"))
            }
            _ => errs.push(format!("missing \"{value}\" or its floor")),
        }
    }
    for key in ["rejected_deadline", "downgraded"] {
        if numbers_after(text, key).iter().sum::<f64>() < 1.0 {
            errs.push(format!("admission never exercised \"{key}\""));
        }
    }
    errs
}

/// Every number following a `"key":` in (our own, known-shape) JSON.
fn numbers_after(text: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let end = rest.find([',', '}', ']', '\n']).unwrap_or(rest.len());
        if let Ok(v) = rest[..end].trim().parse::<f64>() {
            out.push(v);
        }
    }
    out
}

/// Structural validation of a smoke file. Returns every problem found.
fn validate(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    if !text.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        errs.push(format!("missing or wrong schema tag (want {SCHEMA})"));
    }
    for (open, close, what) in [('{', '}', "braces"), ('[', ']', "brackets")] {
        let a = text.matches(open).count();
        let b = text.matches(close).count();
        if a != b || a == 0 {
            errs.push(format!("unbalanced {what}: {a} '{open}' vs {b} '{close}'"));
        }
    }
    let nd = numbers_after(text, "nfe_direct");
    let nc = numbers_after(text, "nfe_component");
    if nd.len() != 2 || nc.len() != 2 {
        errs.push(format!(
            "want 2 table4 cases, found {} direct / {} component",
            nd.len(),
            nc.len()
        ));
    }
    for (d, c) in nd.iter().zip(&nc) {
        if d != c || *d <= 0.0 {
            errs.push(format!(
                "component path must do identical work: NFE {c} vs {d}"
            ));
        }
    }
    let times = numbers_after(text, "modeled_time_s");
    if times.len() != 9 {
        errs.push(format!("want 9 weak-scaling points, found {}", times.len()));
    }
    for t in &times {
        if !t.is_finite() || *t <= 0.0 {
            errs.push(format!("non-physical modeled time {t}"));
        }
    }
    errs
}

/// Interior edge of the kernel-bench patch.
const KERNEL_N: i64 = 96;
/// Species of the full H2-air mechanism the flame app sweeps.
const KERNEL_NSPEC: usize = 9;
/// The frozen interior checksums of the diffusion RHS and the Godunov
/// flux sweep on the kernel-bench patches.
const DIFFUSION_CHECKSUM: f64 = -3.0684544281154078e4;
const FLUX_CHECKSUM: f64 = -1.331699968708538e2;

/// The flame-app state patch ({T, Y1..Y8}, one ghost ring). Polynomial
/// hot spot: libm-free, host-stable bytes.
fn kernel_diffusion_state() -> PatchData {
    let mut pd = PatchData::new(IntBox::sized(KERNEL_N, KERNEL_N), KERNEL_NSPEC, 1);
    for (i, j) in pd.total_box().cells() {
        let x = (i as f64 + 0.5) / KERNEL_N as f64;
        let y = (j as f64 + 0.5) / KERNEL_N as f64;
        let bump = 16.0 * x * (1.0 - x) * y * (1.0 - y);
        pd.set(0, i, j, 300.0 + 1250.0 * bump);
        pd.set(1, i, j, 0.028 + 0.012 * bump); // H2
        pd.set(2, i, j, 0.226); // O2
        for v in 3..KERNEL_NSPEC {
            pd.set(v, i, j, 2.0e-3 + 1.0e-4 * v as f64); // radicals
        }
    }
    pd
}

/// The shock-app conserved-state patch (two ghost rings). Modular
/// pseudo-noise plus a pressure front keeps every limiter branch live
/// without touching libm.
fn kernel_flux_state() -> PatchData {
    let mut pd = PatchData::new(IntBox::sized(KERNEL_N, KERNEL_N), NVARS, 2);
    for (i, j) in pd.total_box().cells() {
        let a = (i * 37 + j * 23).rem_euclid(17) as f64 / 17.0;
        let b = (i * 13 + j * 7).rem_euclid(29) as f64 / 29.0;
        let w = Prim {
            rho: 0.8 + 0.5 * a,
            u: 0.6 - 1.1 * b,
            v: -0.4 + 0.7 * a,
            p: if b > 0.7 { 4.5 } else { 0.5 },
            zeta: a,
        };
        let u = prim_to_cons(&w, 1.4);
        for (var, &uv) in u.iter().enumerate() {
            pd.set(var, i, j, uv);
        }
    }
    pd
}

/// Chemistry and transport kernel snapshots from the same components the
/// flame assembly wires together.
fn kernel_props() -> (Arc<dyn ChemistryKernel>, Arc<dyn TransportKernel>) {
    let mut fw = cca_apps::palette::standard_palette();
    cca_core::script::run_script(
        &mut fw,
        "instantiate ThermoChemistry chem\n\
         instantiate DRFMComponent drfm\n",
    )
    .expect("assembly");
    let chem: Rc<dyn ChemistrySourcePort> = fw
        .get_provides_port("chem", "chemistry")
        .expect("chemistry");
    let transport: Rc<dyn TransportPort> = fw
        .get_provides_port("drfm", "transport")
        .expect("transport");
    (
        chem.kernel().expect("chemistry kernel"),
        transport.kernel().expect("transport kernel"),
    )
}

/// Row-ordered interior sum over every variable — the drift probe.
fn patch_checksum(pd: &PatchData) -> f64 {
    (0..pd.nvars).map(|v| pd.interior_sum(v)).sum()
}

/// Kernel suite, frozen as JSON: one real run of each kernel on its
/// bench patch, pinned by its interior checksum.
fn kernels_json() -> String {
    let (chem, transport) = kernel_props();
    let state = kernel_diffusion_state();
    let mut rhs = PatchData::new(state.interior, KERNEL_NSPEC, 0);
    let d = 1.0 / KERNEL_N as f64;
    diffusion_rhs_with_kernels(&chem, &transport, &state, &mut rhs, d, d);
    let diffusion = patch_checksum(&rhs);

    let state = kernel_flux_state();
    let mut rhs = PatchData::new(state.interior, NVARS, 0);
    compute_rhs(
        &state,
        &mut rhs,
        0.05,
        0.08,
        1.4,
        &GodunovFlux,
        Limiter::MinMod,
    );
    let flux = patch_checksum(&rhs);

    format!(
        "{{\n  \"schema\": \"{KERNELS_SCHEMA}\",\n  \"deterministic\": true,\n  \
         \"patch\": {{\"nx\": {KERNEL_N}, \"ny\": {KERNEL_N}}},\n  \
         \"diffusion_rhs\": {{\"nvars\": {KERNEL_NSPEC}, \"checksum\": {diffusion:e}}},\n  \
         \"godunov_flux\": {{\"nvars\": {NVARS}, \"checksum\": {flux:e}}}\n}}\n"
    )
}

/// Validation of a kernels file: both kernel checksums parse and equal
/// the frozen bits.
fn validate_kernels(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    if !text.contains(&format!("\"schema\": \"{KERNELS_SCHEMA}\"")) {
        errs.push(format!(
            "missing or wrong schema tag (want {KERNELS_SCHEMA})"
        ));
    }
    let sums = numbers_after(text, "checksum");
    if sums.len() != 2 {
        errs.push(format!("want 2 kernel checksums, found {}", sums.len()));
    }
    for ((kernel, want), got) in [
        ("diffusion_rhs", DIFFUSION_CHECKSUM),
        ("godunov_flux", FLUX_CHECKSUM),
    ]
    .iter()
    .zip(&sums)
    {
        if got.to_bits() != want.to_bits() {
            errs.push(format!("{kernel} checksum {got:e} drifted from {want:e}"));
        }
    }
    errs
}

/// One bench suite: a generator subcommand, its `-check` twin, a default
/// output path, and the generate/validate pair. Adding a suite is one
/// table line in [`SUITES`] (plus a baseline line in `ci.sh`).
struct Suite {
    run: &'static str,
    check: &'static str,
    path: &'static str,
    generate: fn() -> String,
    validate: fn(&str) -> Vec<String>,
}

/// Every bench suite the binary knows, in PR order.
const SUITES: &[Suite] = &[
    Suite {
        run: "smoke",
        check: "check",
        path: DEFAULT_PATH,
        generate: smoke_json,
        validate,
    },
    Suite {
        run: "serve",
        check: "serve-check",
        path: SERVE_PATH,
        generate: serve_json,
        validate: validate_serve,
    },
    Suite {
        run: "hotpath",
        check: "hotpath-check",
        path: HOTPATH_PATH,
        generate: hotpath_json,
        validate: validate_hotpath,
    },
    Suite {
        run: "scaling",
        check: "scaling-check",
        path: SCALING_PATH,
        generate: scaling_json,
        validate: validate_scaling,
    },
    Suite {
        run: "samr",
        check: "samr-check",
        path: SAMR_PATH,
        generate: samr_json,
        validate: validate_samr,
    },
    Suite {
        run: "ckpt",
        check: "ckpt-check",
        path: CKPT_PATH,
        generate: ckpt_json,
        validate: validate_ckpt,
    },
    Suite {
        run: "kernels",
        check: "kernels-check",
        path: KERNELS_PATH,
        generate: kernels_json,
        validate: validate_kernels,
    },
    Suite {
        run: "fleet",
        check: "fleet-check",
        path: FLEET_PATH,
        generate: fleet_json,
        validate: validate_fleet,
    },
];

fn print_errs(path: &str, errs: &[String]) {
    eprintln!("cca-bench: {path} is malformed:");
    for e in errs {
        eprintln!("  - {e}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mode = args.get(1).map(String::as_str).unwrap_or("");
    let Some(suite) = SUITES.iter().find(|s| s.run == mode || s.check == mode) else {
        let names: Vec<String> = SUITES
            .iter()
            .map(|s| format!("{}|{}", s.run, s.check))
            .collect();
        eprintln!(
            "usage: cca-bench {} [PATH]",
            names.join(" [PATH] | cca-bench ")
        );
        return ExitCode::FAILURE;
    };
    let path = args.get(2).map(String::as_str).unwrap_or(suite.path);
    if mode == suite.run {
        let json = (suite.generate)();
        let errs = (suite.validate)(&json);
        if !errs.is_empty() {
            eprintln!("cca-bench: {mode} output failed self-check:");
            for e in &errs {
                eprintln!("  - {e}");
            }
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cca-bench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "cca-bench: wrote {path} ({} bytes, deterministic)",
            json.len()
        );
        ExitCode::SUCCESS
    } else {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let errs = (suite.validate)(&text);
                if errs.is_empty() {
                    println!("cca-bench: {path} is well-formed");
                    ExitCode::SUCCESS
                } else {
                    print_errs(path, &errs);
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("cca-bench: cannot read {path}: {e}");
                ExitCode::FAILURE
            }
        }
    }
}
