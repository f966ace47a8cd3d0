//! `DiffusionPhysics` — the patch-at-a-time evaluator of the diffusive
//! transport source term `K ∇·(B ∇Φ)` of paper Eq. 3, with
//! `Φ = {T, Y₁…Y_{N−1}}`, `K = (1/ρ){1/cp, 1, …}`, `B = {λ, ρD₁, …}`.
//!
//! The stencil lives in `diffusion_rhs`, written once and instantiated
//! twice: over the CCA ports (serial framework-thread path) and over the
//! `Send + Sync` kernels (worker-thread path). When the connected
//! chemistry and transport components offer kernels, the port path
//! itself routes through the kernel, so both paths are one code path.

use crate::ports::{
    ChemistryKernel, ChemistrySourcePort, PatchKernel, PatchRhsPort, TransportKernel, TransportPort,
};
use cca_core::{scratch, Component, Services};
use cca_mesh::data::PatchData;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Fixed ambient pressure of the open-domain flame (Pa): "pressure is
/// assumed to be constant in time and space (i.e. burning in an open
/// domain)".
const P0: f64 = 101_325.0;

/// The gas-property surface the stencil needs, abstracted over port
/// dispatch vs kernel dispatch so the arithmetic is written exactly once
/// (the determinism guarantee of the parallel executor relies on this).
trait DiffProps {
    fn n_species(&self) -> usize;
    fn molar_masses(&self, out: &mut [f64]);
    fn mean_molar_mass(&self, y: &[f64]) -> f64;
    fn density(&self, t: f64, p: f64, y: &[f64]) -> f64;
    fn cp_mass(&self, t: f64, y: &[f64]) -> f64;
    fn mix_diffusivities(&self, t: f64, p: f64, x: &[f64], out: &mut [f64]);
    fn mix_conductivity(&self, t: f64, x: &[f64]) -> f64;
}

struct PortProps<'a> {
    chem: &'a Rc<dyn ChemistrySourcePort>,
    transport: &'a Rc<dyn TransportPort>,
}

impl DiffProps for PortProps<'_> {
    fn n_species(&self) -> usize {
        self.chem.n_species()
    }
    fn molar_masses(&self, out: &mut [f64]) {
        self.chem.molar_masses(out);
    }
    fn mean_molar_mass(&self, y: &[f64]) -> f64 {
        self.chem.mean_molar_mass(y)
    }
    fn density(&self, t: f64, p: f64, y: &[f64]) -> f64 {
        self.chem.density(t, p, y)
    }
    fn cp_mass(&self, t: f64, y: &[f64]) -> f64 {
        self.chem.cp_mass(t, y)
    }
    fn mix_diffusivities(&self, t: f64, p: f64, x: &[f64], out: &mut [f64]) {
        self.transport.mix_diffusivities(t, p, x, out);
    }
    fn mix_conductivity(&self, t: f64, x: &[f64]) -> f64 {
        self.transport.mix_conductivity(t, x)
    }
}

struct KernelProps {
    chem: Arc<dyn ChemistryKernel>,
    transport: Arc<dyn TransportKernel>,
}

impl DiffProps for KernelProps {
    fn n_species(&self) -> usize {
        self.chem.n_species()
    }
    fn molar_masses(&self, out: &mut [f64]) {
        self.chem.molar_masses(out);
    }
    fn mean_molar_mass(&self, y: &[f64]) -> f64 {
        self.chem.mean_molar_mass(y)
    }
    fn density(&self, t: f64, p: f64, y: &[f64]) -> f64 {
        self.chem.density(t, p, y)
    }
    fn cp_mass(&self, t: f64, y: &[f64]) -> f64 {
        self.chem.cp_mass(t, y)
    }
    fn mix_diffusivities(&self, t: f64, p: f64, x: &[f64], out: &mut [f64]) {
        self.transport.mix_diffusivities(t, p, x, out);
    }
    fn mix_conductivity(&self, t: f64, x: &[f64]) -> f64 {
        self.transport.mix_conductivity(t, x)
    }
}

/// The 5-point diffusive RHS of one patch — the single copy of the
/// stencil arithmetic behind both the port and the kernel face.
///
/// One property pass fills per-cell tables over the interior plus its
/// one-cell ring (`λ`, `1/ρcp`, `1/ρ` per cell; `ρD` per species plane,
/// all in pooled scratch), then one stencil pass consumes them row by
/// row over unit-stride slices.
fn diffusion_rhs<P: DiffProps>(
    props: &P,
    state: &PatchData,
    rhs: &mut PatchData,
    dx: f64,
    dy: f64,
) {
    let n = props.n_species();
    assert_eq!(state.nvars, n, "state layout is {{T, Y1..Y_{{N-1}}}}");
    assert!(state.nghost >= 1);
    let mut w = scratch::take_f64(n);
    props.molar_masses(&mut w);

    let int = state.interior;
    let ring = int.grow(1);
    let nxr = ring.nx() as usize;
    let nxi = int.nx() as usize;
    let cells = ring.count() as usize;
    let mut lambda = scratch::take_f64(cells);
    let mut inv_rho_cp = scratch::take_f64(cells);
    let mut inv_rho = scratch::take_f64(cells);
    // One plane per species so each species sweep is unit-stride.
    let mut rho_d = scratch::take_f64(n * cells);
    // Per-cell working slices, hoisted out of the property loop.
    let mut y = scratch::take_f64(n);
    let mut x = scratch::take_f64(n);
    let mut d = scratch::take_f64(n);

    // Column offsets of the ring / the interior inside a stored row.
    // `rhs` may carry a different ghost width than `state`, so its
    // interior column offset is computed from its own total box.
    let c0r = (ring.lo[0] - state.total_box().lo[0]) as usize;
    let c0i = c0r + 1;
    let r0 = (int.lo[0] - rhs.total_box().lo[0]) as usize;

    // Property pass over the ring rows.
    for (r, j) in (ring.lo[1]..=ring.hi[1]).enumerate() {
        let trow = &state.row(0, j)[c0r..c0r + nxr];
        for (ii, tv) in trow.iter().enumerate() {
            let t = tv.max(200.0);
            let mut bulk = 1.0;
            for (v, yv) in y.iter_mut().take(n - 1).enumerate() {
                *yv = state.row(1 + v, j)[c0r + ii];
                bulk -= *yv;
            }
            y[n - 1] = bulk;
            let w_mean = props.mean_molar_mass(&y);
            let rho = props.density(t, P0, &y);
            for (v, xv) in x.iter_mut().enumerate() {
                *xv = y[v] * w_mean / w[v];
            }
            props.mix_diffusivities(t, P0, &x, &mut d);
            let cell = r * nxr + ii;
            lambda[cell] = props.mix_conductivity(t, &x);
            let cp = props.cp_mass(t, &y);
            for (v, di) in d.iter().enumerate() {
                rho_d[v * cells + cell] = rho * di;
            }
            inv_rho_cp[cell] = 1.0 / (rho * cp);
            inv_rho[cell] = 1.0 / rho;
        }
    }
    // Stencil pass over the interior rows.
    for j in int.lo[1]..=int.hi[1] {
        // Table row of stencil row `j` (ring row 0 is the row below).
        let tj = (j - ring.lo[1]) as usize;
        let (lam_s, rest) = lambda[(tj - 1) * nxr..(tj + 2) * nxr].split_at(nxr);
        let (lam_c, lam_n) = rest.split_at(nxr);
        let ircp = &inv_rho_cp[tj * nxr..(tj + 1) * nxr];
        // Temperature: (1/ρcp) ∇·(λ∇T), 5-point form with
        // face-averaged coefficients.
        let (t_s, t_c, t_n) = state.rows3(0, j);
        let out = rhs.row_mut(0, j);
        for ii in 0..nxi {
            let p = ii + 1; // ring/table column of interior column ii
            let s = c0i + ii; // stored-row column
            let lam_cc = lam_c[p];
            let lam_e = 0.5 * (lam_cc + lam_c[p + 1]);
            let lam_w = 0.5 * (lam_cc + lam_c[p - 1]);
            let lam_nn = 0.5 * (lam_cc + lam_n[p]);
            let lam_ss = 0.5 * (lam_cc + lam_s[p]);
            let t_cc = t_c[s];
            let div_x = lam_e * (t_c[s + 1] - t_cc) - lam_w * (t_cc - t_c[s - 1]);
            let div_y = lam_nn * (t_n[s] - t_cc) - lam_ss * (t_cc - t_s[s]);
            out[r0 + ii] = ircp[p] * (div_x / (dx * dx) + div_y / (dy * dy));
        }
        // Species: (1/ρ) ∇·(ρD_i ∇Y_i) for the N-1 stored species.
        let irho = &inv_rho[tj * nxr..(tj + 1) * nxr];
        for v in 0..n - 1 {
            let plane = &rho_d[v * cells..(v + 1) * cells];
            let (b_s, rest) = plane[(tj - 1) * nxr..(tj + 2) * nxr].split_at(nxr);
            let (b_c, b_n) = rest.split_at(nxr);
            let (y_s, y_c, y_n) = state.rows3(1 + v, j);
            let out = rhs.row_mut(1 + v, j);
            for ii in 0..nxi {
                let p = ii + 1;
                let s = c0i + ii;
                let b_cc = b_c[p];
                let b_e = 0.5 * (b_cc + b_c[p + 1]);
                let b_w = 0.5 * (b_cc + b_c[p - 1]);
                let b_nn = 0.5 * (b_cc + b_n[p]);
                let b_ss = 0.5 * (b_cc + b_s[p]);
                let y_cc = y_c[s];
                let div_x = b_e * (y_c[s + 1] - y_cc) - b_w * (y_cc - y_c[s - 1]);
                let div_y = b_nn * (y_n[s] - y_cc) - b_ss * (y_cc - y_s[s]);
                out[r0 + ii] = irho[p] * (div_x / (dx * dx) + div_y / (dy * dy));
            }
        }
    }
}

/// The diffusive RHS over chemistry/transport kernel snapshots, without
/// a component assembly (benches and kernel tests).
pub fn diffusion_rhs_with_kernels(
    chem: &Arc<dyn ChemistryKernel>,
    transport: &Arc<dyn TransportKernel>,
    state: &PatchData,
    rhs: &mut PatchData,
    dx: f64,
    dy: f64,
) {
    let props = KernelProps {
        chem: chem.clone(),
        transport: transport.clone(),
    };
    diffusion_rhs(&props, state, rhs, dx, dy);
}

/// Worker-thread face: chemistry + transport kernel snapshots and the
/// shared evaluation counter.
struct DiffusionKernel {
    props: KernelProps,
    evals: Arc<AtomicUsize>,
}

impl PatchKernel for DiffusionKernel {
    fn eval(&self, state: &PatchData, rhs: &mut PatchData, dx: f64, dy: f64, _t: f64) {
        self.evals.fetch_add(1, Ordering::Relaxed);
        diffusion_rhs(&self.props, state, rhs, dx, dy);
    }

    fn label(&self) -> &'static str {
        "DiffusionPhysics.patch-rhs"
    }
}

struct Inner {
    services: Services,
    evals: Arc<AtomicUsize>,
    /// Built on first use (needs both upstream kernels); never rebuilt —
    /// the component has no mutable configuration to re-snapshot.
    kernel: RefCell<Option<Arc<dyn PatchKernel>>>,
}

impl PatchRhsPort for Inner {
    fn eval_patch(&self, state: &PatchData, rhs: &mut PatchData, dx: f64, dy: f64, t: f64) {
        let _scope = self.services.profiler().scope("DiffusionPhysics.patch-rhs");
        self.services
            .profiler()
            .add_cells("DiffusionPhysics.patch-rhs", state.interior.count() as u64);
        // One code path: if the upstream components can snapshot, the
        // serial call runs the very kernel the executor runs.
        if let Some(k) = self.patch_kernel() {
            k.eval(state, rhs, dx, dy, t);
            return;
        }
        self.evals.fetch_add(1, Ordering::Relaxed);
        let chem = self
            .services
            .get_port::<Rc<dyn ChemistrySourcePort>>("chemistry")
            .expect("DiffusionPhysics needs the chemistry port");
        let transport = self
            .services
            .get_port::<Rc<dyn TransportPort>>("transport")
            .expect("DiffusionPhysics needs the transport port");
        diffusion_rhs(
            &PortProps {
                chem: &chem,
                transport: &transport,
            },
            state,
            rhs,
            dx,
            dy,
        );
    }

    fn evals(&self) -> usize {
        self.evals.load(Ordering::Relaxed)
    }

    fn patch_kernel(&self) -> Option<Arc<dyn PatchKernel>> {
        if let Some(k) = self.kernel.borrow().as_ref() {
            return Some(k.clone());
        }
        let chem = self
            .services
            .get_port::<Rc<dyn ChemistrySourcePort>>("chemistry")
            .ok()?;
        let transport = self
            .services
            .get_port::<Rc<dyn TransportPort>>("transport")
            .ok()?;
        let k: Arc<dyn PatchKernel> = Arc::new(DiffusionKernel {
            props: KernelProps {
                chem: chem.kernel()?,
                transport: transport.kernel()?,
            },
            evals: self.evals.clone(),
        });
        *self.kernel.borrow_mut() = Some(k.clone());
        Some(k)
    }
}

/// The component: provides `patch-rhs` (PatchRhsPort); uses `chemistry`
/// and `transport`.
#[derive(Default)]
pub struct DiffusionPhysics;

impl Component for DiffusionPhysics {
    fn set_services(&mut self, s: Services) {
        s.register_uses_port::<Rc<dyn ChemistrySourcePort>>("chemistry");
        s.register_uses_port::<Rc<dyn TransportPort>>("transport");
        s.add_provides_port::<Rc<dyn PatchRhsPort>>(
            "patch-rhs",
            Rc::new(Inner {
                services: s.clone(),
                evals: Arc::new(AtomicUsize::new(0)),
                kernel: RefCell::new(None),
            }),
        );
    }
}
