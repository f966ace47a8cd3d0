//! Self-time arithmetic over the framework profiler's flat timers.
//!
//! The port-boundary `Profiler` keeps one total per timer name and no
//! nesting. Which timer runs inside which is a property of each app
//! driver's call structure, written down here as a static tree. A
//! timer's self time is its total minus the totals of its children; the
//! root's self time is what no layer timer accounts for.

use std::collections::BTreeMap;

/// One timer of a nesting tree.
#[derive(Clone, Copy, Debug)]
pub struct TimerNode {
    /// Profiler timer name (`instance.port` or `Component.port`).
    pub name: &'static str,
    /// Workspace crate the timed code belongs to.
    pub layer: &'static str,
    /// Enclosing timer; `None` for the root.
    pub parent: Option<&'static str>,
    /// An executor kernel label: its total sums per-item busy time over
    /// the executor's workers (see [`wall_clock`]).
    pub parallel: bool,
}

const fn node(name: &'static str, layer: &'static str, parent: &'static str) -> TimerNode {
    TimerNode {
        name,
        layer,
        parent: Some(parent),
        parallel: false,
    }
}

const fn kernel(name: &'static str, layer: &'static str, parent: &'static str) -> TimerNode {
    TimerNode {
        parallel: true,
        ..node(name, layer, parent)
    }
}

const GO: &str = "driver.go";
const ROOT: TimerNode = TimerNode {
    name: GO,
    layer: "apps",
    parent: None,
    parallel: false,
};

/// Flame driver: Strang-split chemistry around RKC diffusion. Ghost
/// fills issued by the regrid estimator run outside every other timer,
/// so counting all fills under the integrator makes its self time a
/// lower bound and leaves those fills in the root's unattributed time.
pub const FLAME_TIMERS: &[TimerNode] = &[
    ROOT,
    node("InitialCondition.ic", "components", GO),
    node("GrACEComponent.regrid", "mesh", GO),
    node("ImplicitIntegrator.chemistry-advance", "components", GO),
    node("ExplicitIntegrator.advance", "solvers", GO),
    kernel(
        "DiffusionPhysics.patch-rhs",
        "components",
        "ExplicitIntegrator.advance",
    ),
    node(
        "GrACEComponent.fill-ghosts",
        "mesh",
        "ExplicitIntegrator.advance",
    ),
];

/// Shock driver: RK2 over the Godunov flux, with the same ghost-fill
/// caveat as [`FLAME_TIMERS`].
pub const SHOCK_TIMERS: &[TimerNode] = &[
    ROOT,
    node("ConicalInterfaceIC.ic", "components", GO),
    node("GrACEComponent.regrid", "mesh", GO),
    node("ExplicitIntegratorRK2.advance", "solvers", GO),
    kernel(
        "InviscidFlux.patch-rhs",
        "hydro",
        "ExplicitIntegratorRK2.advance",
    ),
    node(
        "GrACEComponent.fill-ghosts",
        "mesh",
        "ExplicitIntegratorRK2.advance",
    ),
];

/// Wall-clock totals for the timers of `tree`, from the profiler's raw
/// totals. A `parallel` timer's raw total sums item busy time over all
/// executor workers; parallel runs also record per-worker totals
/// `{name}[w{k}]`, serial runs do not. Its wall-clock figure keeps the
/// serial runs' time and counts the parallel runs as the busiest
/// worker's total, which is at most their wall time.
pub fn wall_clock<'a>(
    tree: &'a [TimerNode],
    workers: usize,
    total: impl Fn(&str) -> f64 + 'a,
) -> impl Fn(&str) -> f64 + 'a {
    move |name| {
        let raw = total(name);
        if workers < 2 || !tree.iter().any(|n| n.name == name && n.parallel) {
            return raw;
        }
        let busy: Vec<f64> = (0..workers)
            .map(|k| total(&format!("{name}[w{k}]")))
            .collect();
        raw - busy.iter().sum::<f64>() + busy.iter().copied().fold(0.0, f64::max)
    }
}

/// Self time of every timer in `tree`, given each timer's wall-clock
/// total (`total` returns 0 for a timer that never fired; see
/// [`wall_clock`]). Self times are clamped at zero.
pub fn self_times(tree: &[TimerNode], total: impl Fn(&str) -> f64) -> BTreeMap<&'static str, f64> {
    tree.iter()
        .map(|n| {
            let children: f64 = tree
                .iter()
                .filter(|c| c.parent == Some(n.name))
                .map(|c| total(c.name))
                .sum();
            (n.name, (total(n.name) - children).max(0.0))
        })
        .collect()
}

/// The root timer of `tree`.
fn root(tree: &[TimerNode]) -> &TimerNode {
    tree.iter()
        .find(|n| n.parent.is_none())
        .expect("a timer tree has a root")
}

/// Share of the root's total that no layer timer accounts for:
/// `1 − (sum of non-root self times) / root total`.
pub fn unattributed_frac(tree: &[TimerNode], total: impl Fn(&str) -> f64) -> f64 {
    let root = root(tree);
    let solve = total(root.name);
    if solve <= 0.0 {
        return 1.0;
    }
    let attributed: f64 = self_times(tree, &total)
        .iter()
        .filter(|(name, _)| **name != root.name)
        .map(|(_, s)| s)
        .sum();
    1.0 - attributed / solve
}
