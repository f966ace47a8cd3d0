//! `flame` and `shock`: one paper app, assembled from its script
//! without the `go` line, then solved by `Framework::go` on the driver.
//! A job is one solve of a freshly assembled framework.

use super::{per_layer, setup_samples, Budget, Row, RunSamples};
use crate::cli::Args;
use crate::inputs;
use crate::metrics::{Metric, Tally};
use crate::timers::{self, TimerNode, FLAME_TIMERS, SHOCK_TIMERS};
use crate::trace::Recorder;
use cca_apps::reaction_diffusion::{rd_framework, rd_script, RdConfig, RdReport};
use cca_apps::shock_interface::{shock_framework, shock_script, ShockConfig, ShockReport};
use cca_components::ports::{DataPort, MeshPort};
use cca_core::{Framework, Profiler};
use cca_mesh::checkpoint::{fnv1a64, FNV1A_INIT};
use std::cell::RefCell;
use std::rc::Rc;

/// Which app, with its seeded configuration.
pub enum App {
    /// §4.2 reaction–diffusion flame.
    Flame(RdConfig),
    /// §4.3 shock–interface interaction.
    Shock(ShockConfig),
}

/// What one solve produced, reduced to checkable facts.
struct Solved {
    /// Bit-identity digest of every state variable on every patch.
    digest: u64,
    /// Macro steps the driver took.
    steps: usize,
}

impl App {
    /// The flame inputs for `seed`.
    pub fn flames(seed: u64) -> Vec<Self> {
        inputs::flame_configs(seed)
            .into_iter()
            .map(App::Flame)
            .collect()
    }

    /// The shock inputs for `seed`.
    pub fn shocks(seed: u64) -> Vec<Self> {
        inputs::shock_configs(seed)
            .into_iter()
            .map(App::Shock)
            .collect()
    }

    fn tree(&self) -> &'static [TimerNode] {
        match self {
            App::Flame(_) => FLAME_TIMERS,
            App::Shock(_) => SHOCK_TIMERS,
        }
    }

    /// Assembly: build the palette and run the app's script up to, not
    /// including, its `go` line.
    fn assemble(&self) -> Framework {
        let (mut fw, script, workers) = match self {
            App::Flame(cfg) => (rd_framework(), rd_script(cfg), inputs::FLAME_WORKERS),
            App::Shock(cfg) => (shock_framework(), shock_script(cfg), inputs::SHOCK_WORKERS),
        };
        fw.set_workers(workers);
        let assembly: String = script
            .lines()
            .filter(|l| !l.trim_start().starts_with("go "))
            .map(|l| format!("{l}\n"))
            .collect();
        cca_core::script::run_script(&mut fw, &assembly).expect("app scripts assemble");
        fw
    }

    /// Check a finished solve and digest its final fields.
    fn check(&self, fw: &Framework) -> Result<Solved, String> {
        let data: Rc<dyn DataPort> = fw
            .get_provides_port("grace", "data")
            .map_err(|e| e.to_string())?;
        let mesh: Rc<dyn MeshPort> = fw
            .get_provides_port("grace", "mesh")
            .map_err(|e| e.to_string())?;
        let (field, steps) = match self {
            App::Flame(_) => {
                let report: Rc<RefCell<RdReport>> = fw
                    .get_provides_port("driver", "report")
                    .map_err(|e| e.to_string())?;
                let report = report.borrow();
                if let Some((t, tmax)) = report
                    .t_max_series
                    .iter()
                    .find(|(_, tmax)| tmax.is_nan() || *tmax <= 1000.0 || *tmax >= 4000.0)
                {
                    return Err(format!(
                        "T_max = {tmax} K at t = {t:e} s is outside (1000, 4000)"
                    ));
                }
                ("state", report.t_max_series.len())
            }
            App::Shock(_) => {
                let report: Rc<RefCell<ShockReport>> = fw
                    .get_provides_port("driver", "report")
                    .map_err(|e| e.to_string())?;
                let report = report.borrow();
                if report.rho_min.is_nan() || report.rho_min <= 0.0 {
                    return Err(format!("rho_min = {} is not positive", report.rho_min));
                }
                ("U", report.steps)
            }
        };
        if steps == 0 {
            return Err("the driver took no steps".into());
        }
        let nvars = data.nvars(field);
        let mut digest = FNV1A_INIT;
        let mut problem = None;
        for level in 0..mesh.n_levels() {
            for (id, _, _) in mesh.patches(level) {
                data.with_patch(field, level, id, &mut |pd| {
                    for (i, j) in pd.interior.cells() {
                        let mut y_sum = 0.0;
                        for v in 0..nvars {
                            let x = pd.get(v, i, j);
                            digest = fnv1a64(digest, &x.to_bits().to_le_bytes());
                            if !x.is_finite() {
                                problem.get_or_insert(format!("non-finite var {v} at ({i},{j})"));
                            }
                            if matches!(self, App::Flame(_)) && v > 0 {
                                y_sum += x;
                                if !(-1e-6..=1.0 + 1e-6).contains(&x) {
                                    problem.get_or_insert(format!("Y{v} = {x} at ({i},{j})"));
                                }
                            }
                        }
                        // The last species is implied by closure: the
                        // stored fractions sum to at most 1.
                        if matches!(self, App::Flame(_))
                            && !(-1e-6..=1.0 + 1e-6).contains(&(1.0 - y_sum))
                        {
                            problem.get_or_insert(format!(
                                "mass fractions sum to {y_sum} at ({i},{j})"
                            ));
                        }
                    }
                });
            }
        }
        match problem {
            Some(p) => Err(p),
            None => Ok(Solved { digest, steps }),
        }
    }
}

/// One assembled-and-solved job.
struct Job {
    setup: f64,
    go: f64,
    solved: Result<Solved, String>,
    profiler: Profiler,
    alloc_events: u64,
}

fn job(app: &App, rec: &mut Recorder, traced: bool) -> Job {
    rec.set_enabled(traced);
    let (fw, setup) = rec.time("apps", "assemble", || app.assemble());
    fw.profiler().set_enabled(traced);
    let allocs_before = cca_core::scratch::alloc_events();
    let (went, go) = rec.time("apps", "driver.go", || fw.go("driver", "go"));
    let alloc_events = cca_core::scratch::alloc_events() - allocs_before;
    rec.set_enabled(false);
    let solved = went
        .map_err(|e| format!("go failed: {e}"))
        .and_then(|_| app.check(&fw));
    Job {
        setup,
        go,
        solved,
        profiler: fw.profiler(),
        alloc_events,
    }
}

/// Count `job` into the tally, also requiring its digest to match the
/// run's first solve (same seed, same fields).
fn tally_job(tally: &mut Tally, reference: &mut Option<u64>, job: &Job, what: &str) {
    let problem = match &job.solved {
        Err(e) => Some(format!("{what}: {e}")),
        Ok(s) => match reference {
            Some(d) if *d != s.digest => Some(format!(
                "{what}: final fields differ from the first solve ({:016x} vs {d:016x})",
                s.digest
            )),
            Some(_) => None,
            None => {
                *reference = Some(s.digest);
                None
            }
        },
    };
    tally.op(problem);
}

/// Run `apps` (one per seeded input, cycled) for the budget in `args`.
pub fn run(apps: &[App], args: &Args, rec: &mut Recorder, tally: &mut Tally) -> Vec<Metric> {
    let mut reference = vec![None; apps.len()];
    if args.trace {
        return traced(apps, args, rec, tally, &mut reference);
    }
    let budget = Budget::new(args.seconds, apps.len());
    let mut run = RunSamples::default();
    let mut n = 0;
    while budget.more(n) {
        let k = n % apps.len();
        let j = job(&apps[k], rec, false);
        tally_job(tally, &mut reference[k], &j, "solve");
        let mut setups = vec![j.setup];
        setups.extend(setup_samples(rec, "apps", "assemble", || {
            apps[k].assemble()
        }));
        let turnaround = j.setup + j.go;
        run.job(j.go, 1.0 / turnaround, &[turnaround], &setups);
        n += 1;
    }
    run.end_to_end()
}

/// The traced run: alternate an untraced and a traced solve of the same
/// input; the traced one turns on the port-boundary profiler and keeps
/// spans.
fn traced(
    apps: &[App],
    args: &Args,
    rec: &mut Recorder,
    tally: &mut Tally,
    reference: &mut [Option<u64>],
) -> Vec<Metric> {
    let budget = Budget::new(args.seconds, 2);
    let (mut plain_go, mut traced_go) = (Vec::new(), Vec::new());
    let mut rows = Vec::new();
    while budget.more(rows.len()) {
        let k = rows.len() % apps.len();
        let app = &apps[k];
        rec.set_iteration(rows.len() as u64);
        let plain = job(app, rec, false);
        tally_job(tally, &mut reference[k], &plain, "untraced solve");
        plain_go.push(plain.go);
        let t = job(app, rec, true);
        tally_job(tally, &mut reference[k], &t, "traced solve (vs untraced)");
        traced_go.push(t.go);
        rows.push(layer_row(app, &t.profiler, t.alloc_events, &t.solved));
    }
    per_layer(&rows, &plain_go, &traced_go)
}

/// Per-layer figures of one traced solve, from its framework profiler.
fn layer_row(app: &App, p: &Profiler, alloc_events: u64, solved: &Result<Solved, String>) -> Row {
    let tree = app.tree();
    let workers = match app {
        App::Flame(_) => inputs::FLAME_WORKERS,
        App::Shock(_) => inputs::SHOCK_WORKERS,
    };
    let total = |name: &str| p.stat(name).map_or(0.0, |s| s.total_secs);
    let wall = timers::wall_clock(tree, workers, total);
    let selfs = timers::self_times(tree, &wall);
    let self_of = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let rate = |name: &str| p.stat(name).and_then(|s| s.cells_per_sec()).unwrap_or(0.0);
    // Per-worker busy time of the chemistry cell sweep; at one worker
    // the executor keeps no per-worker rows.
    let (busy_max, busy_mean) = if workers > 1 {
        let busy: Vec<f64> = (0..workers)
            .map(|k| total(&format!("ImplicitIntegrator.cell-sweep[w{k}]")))
            .collect();
        let max = busy.iter().copied().fold(0.0, f64::max);
        (max, busy.iter().sum::<f64>() / workers as f64)
    } else {
        let all = total("ImplicitIntegrator.cell-sweep");
        (all, all)
    };
    let imbalance = if busy_mean > 0.0 {
        busy_max / busy_mean
    } else {
        0.0
    };
    let steps = solved.as_ref().map_or(0, |s| s.steps) as f64;
    vec![
        (
            "apps.unattributed_frac",
            timers::unattributed_frac(tree, &wall),
        ),
        (
            "components.chem_advance_s",
            total("ImplicitIntegrator.chemistry-advance"),
        ),
        ("core.executor_busy_max_s", busy_max),
        ("core.executor_imbalance", imbalance),
        (
            "solvers.rkc_advance_self_s",
            self_of("ExplicitIntegrator.advance"),
        ),
        (
            "components.diffusion_rhs_cells_per_s",
            rate("DiffusionPhysics.patch-rhs"),
        ),
        ("core.scratch_alloc_events", alloc_events as f64),
        ("mesh.fill_ghosts_s", total("GrACEComponent.fill-ghosts")),
        ("mesh.regrid_s", total("GrACEComponent.regrid")),
        ("hydro.flux_s", total("InviscidFlux.patch-rhs")),
        ("hydro.flux_cells_per_s", rate("InviscidFlux.patch-rhs")),
        (
            "solvers.rk2_self_s",
            self_of("ExplicitIntegratorRK2.advance"),
        ),
        (
            "mesh.fill_ghosts_calls",
            p.stat("GrACEComponent.fill-ghosts")
                .map_or(0.0, |s| s.calls as f64),
        ),
        ("apps.steps", steps),
    ]
}

/// A per-layer row built from an empty profile (names only).
#[cfg(test)]
pub(super) fn sample_row() -> Row {
    layer_row(&App::flames(1)[0], &Profiler::new(), 0, &Err(String::new()))
}
