//! `aleupdate`: apply the fluxes and rebuild the dependent variables.
//!
//! [`Remapper::step`] performs one full ALE remap:
//!
//! 1. `alegetmesh` — target positions ([`crate::mesh_motion`]);
//! 2. `alegetfvol` + `aleadvect` — one pass: each face's swept volume
//!    ([`crate::fluxvol`]) is evaluated where it becomes mass / energy /
//!    momentum fluxes ([`crate::advect`]);
//! 3. `aleupdate` — this module: move the nodes, update element mass and
//!    extensive energy, recompute geometry, densities and specific
//!    energies, refresh corner masses (uniform sub-zonal density on the
//!    new mesh) and distribute momentum changes to nodal velocities.
//!
//! Conservation: mass, total internal energy and total momentum are
//! conserved to round-off by flux antisymmetry; tests pin this.
//!
//! A remap allocates nothing once warm: its work arrays are the
//! Lagrangian step's per-thread scratch (`bookleaf_hydro::lend_scratch`),
//! idle between steps, and an Eulerian target is the reference mesh
//! itself.

use bookleaf_mesh::geometry::{corner_volumes, quad_area};
use bookleaf_mesh::{split_corner, Mesh, Topology};
use bookleaf_util::{BookLeafError, Result, Vec2};

use bookleaf_hydro::state::{HydroState, LocalRange};
use bookleaf_hydro::{
    lend_scratch, sweep, sweep_reduce, HaloOps, LentScratch, NoComm, Pass, Phase, Threading,
};

use crate::advect::compute_fluxes;
use crate::mesh_motion::{target_positions, AleMode};

/// Remap configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AleOptions {
    /// Target-mesh strategy.
    pub mode: AleMode,
    /// Remap every `frequency` steps (1 = every step ⇒ Eulerian-like).
    pub frequency: usize,
}

impl Default for AleOptions {
    fn default() -> Self {
        AleOptions {
            mode: AleMode::Eulerian,
            frequency: 1,
        }
    }
}

/// Owns the reference mesh and performs remaps.
#[derive(Debug, Clone)]
pub struct Remapper {
    /// Reference (initial) node positions, the Eulerian target.
    x_ref: Vec<Vec2>,
    /// Options.
    pub opts: AleOptions,
}

impl Remapper {
    /// Capture the reference mesh at setup time.
    #[must_use]
    pub fn new(mesh: &Mesh, opts: AleOptions) -> Self {
        Remapper {
            x_ref: mesh.nodes.clone(),
            opts,
        }
    }

    /// Should a remap run after `step_index` (0-based)?
    #[must_use]
    pub fn due(&self, step_index: usize) -> bool {
        self.opts.frequency > 0 && (step_index + 1).is_multiple_of(self.opts.frequency)
    }

    /// Perform one remap over the owned range: serial, no halo.
    pub fn step(&self, mesh: &mut Mesh, state: &mut HydroState, range: LocalRange) -> Result<()> {
        self.step_with(mesh, state, range, Threading::Serial, &mut NoComm)
    }

    /// Perform one remap over the owned range and refresh the halo, on
    /// the `HaloOps` schedule (boundary-first): the entities feeding
    /// the exchange's send buffers (`halo.boundary().remap_pre_*_ids`) are updated
    /// first, the exchange is **posted**, the rest of the mesh is
    /// updated (while the messages are in flight, if `halo` overlaps),
    /// and the exchange **completes** last. The two sweeps run the same
    /// per-entity bodies, so the result is bitwise the remap in one
    /// sweep followed by a blocking exchange — which is what empty
    /// lists give.
    ///
    /// Under [`Threading::Rayon`] every phase (swept volumes, advective
    /// fluxes, the element update and the nodal velocity distribution)
    /// runs element- or node-parallel across the current rayon pool;
    /// the per-index arithmetic is the serial path's, so both produce
    /// bitwise-identical results.
    pub fn step_with<H: HaloOps>(
        &self,
        mesh: &mut Mesh,
        state: &mut HydroState,
        range: LocalRange,
        threading: Threading,
        halo: &mut H,
    ) -> Result<()> {
        lend_scratch(|work| self.remap(mesh, state, range, threading, halo, work))
    }

    /// [`Remapper::step_with`] in the work arrays `work`.
    fn remap<H: HaloOps>(
        &self,
        mesh: &mut Mesh,
        state: &mut HydroState,
        range: LocalRange,
        threading: Threading,
        halo: &mut H,
        work: &mut LentScratch,
    ) -> Result<()> {
        let [target, cell_u, mom] = &mut work.vectors;
        let [d_mass, d_energy] = &mut work.scalars;
        let ne = mesh.n_elements();
        let target = target_positions(mesh, &self.x_ref, self.opts.mode, target);
        cell_u.resize(ne, Vec2::ZERO);
        mom.resize(ne, Vec2::ZERO);
        d_mass.resize(ne, 0.0);
        d_energy.resize(ne, 0.0);

        // Element-centred (mass-weighted corner) velocities for momentum.
        let (elnd, u, cnmass) = (&mesh.elnd, &state.u, &state.cnmass);
        sweep(threading, Pass::All, (&mut cell_u[..],), |e, (cu,)| {
            let mut p = Vec2::ZERO;
            let mut m = 0.0;
            for c in 0..4 {
                let nd = elnd[e][c] as usize;
                p += u[nd] * cnmass[e][c];
                m += cnmass[e][c];
            }
            *cu = if m > 0.0 { p / m } else { Vec2::ZERO };
        });

        // `mom` holds each element's momentum flux until its update
        // turns the entry into the deficit it owes its corners.
        compute_fluxes(
            mesh, target, &state.rho, &state.ein, cell_u, d_mass, d_energy, mom, threading,
        );
        let fx = Fluxes {
            cell_u,
            d_mass,
            d_energy,
        };

        // --- Move the mesh and update element extensive quantities. ---
        // Ghost nodes move too (their owners move them identically from
        // the same deterministic inputs).
        mesh.nodes.copy_from_slice(target);

        // Early sweep: exactly what the exchange packs (and the
        // adjacency those packed nodes gather over); the rest after the
        // post.
        let sets = halo.boundary();
        let (pre_el, pre_nd) = (&sets.remap_pre_el_ids, &sets.remap_pre_nd_ids);
        let early = remap_elements(mesh, state, &fx, mom, threading, Pass::Only(pre_el));
        if early.is_none() {
            remap_nodes(mesh, state, mom, range, threading, Pass::Only(pre_nd));
        }
        let posted = halo.post(Phase::PostRemap, mesh, state);
        let sets = halo.boundary();
        let (pre_el, pre_nd) = (&sets.remap_pre_el_ids, &sets.remap_pre_nd_ids);
        let late = remap_elements(mesh, state, &fx, mom, threading, Pass::Except(pre_el));
        let failure = first_fail(early, late);
        if failure.is_none() {
            remap_nodes(mesh, state, mom, range, threading, Pass::Except(pre_nd));
        }
        if let Some((e, kind)) = failure {
            // The failing element was left untouched, so its original
            // quantities reproduce the offending values exactly. If the
            // exchange was posted successfully it is still completed,
            // keeping the team's message sequence aligned while the
            // (more causal) remap error propagates; a comm failure on
            // this path is swallowed — the run is aborting either way.
            if posted.is_ok() {
                let _ = halo.complete(Phase::PostRemap, mesh, state);
            }
            return Err(match kind {
                Fail::Mass => BookLeafError::InvalidState {
                    element: e,
                    what: format!(
                        "remap drove mass non-positive: {}",
                        state.mass[e] - fx.d_mass[e]
                    ),
                },
                Fail::Volume => BookLeafError::NegativeVolume {
                    element: e,
                    volume: quad_area(&mesh.corners(e)),
                },
            });
        }
        posted?;
        halo.complete(Phase::PostRemap, mesh, state)?;
        // The exchange has the last word on halo node positions. Where
        // an owner's target differs from the one computed here (Smooth:
        // the owner's star sees fresher neighbour positions), re-evaluate
        // the volume of the owned elements round that node, so the remap
        // leaves geometry that matches the mesh it leaves.
        for n in 0..range.n_active_nd {
            if mesh.nodes[n] != target[n] {
                for &id in mesh.elements_of_node(n) {
                    let e = split_corner(id).0;
                    if e < range.n_owned_el {
                        state.volume[e] = quad_area(&mesh.corners(e));
                    }
                }
            }
        }
        Ok(())
    }
}

/// What an element's update reads of the flux pass, besides the
/// momentum flux it rewrites in place.
struct Fluxes<'a> {
    /// Element-centred velocities before the remap.
    cell_u: &'a [Vec2],
    /// Net mass leaving each element.
    d_mass: &'a [f64],
    /// Net internal energy (extensive) leaving each element.
    d_energy: &'a [f64],
}

/// What went wrong in one element's update, if anything.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fail {
    Mass,
    Volume,
}

/// Keep the lowest-element failure (deterministic, and the same element
/// an early-returning serial loop would have named).
fn first_fail(a: Option<(usize, Fail)>, b: Option<(usize, Fail)>) -> Option<(usize, Fail)> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if x.0 <= y.0 { x } else { y }),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Apply the advective fluxes to every element of `elements` (owned
/// and ghost alike): masses, energy, volume, corner masses, and — in
/// place of the momentum flux `mom[e]` came in with — the momentum
/// deficit each element owes its corners. Reads only nodal velocities
/// that no node sweep has rewritten yet (the `OverlapSets` remap
/// invariant); writes only element-local state. Failures (non-positive
/// mass or volume) are returned, not raised, so the sweep needs no
/// early return; failed elements are left untouched.
fn remap_elements(
    mesh: &Mesh,
    state: &mut HydroState,
    fx: &Fluxes<'_>,
    mom: &mut [Vec2],
    threading: Threading,
    elements: Pass<'_>,
) -> Option<(usize, Fail)> {
    let ne = mesh.n_elements();
    let (elnd, x, u) = (&mesh.elnd[..ne], &mesh.nodes, &state.u);
    let columns = (
        &mut state.mass[..ne],
        &mut state.volume[..ne],
        &mut state.rho[..ne],
        &mut state.ein[..ne],
        &mut state.cnmass[..ne],
        mom,
    );
    sweep_reduce(
        threading,
        elements,
        columns,
        None,
        first_fail,
        |e, (mass, volume, rho, ein, cnmass, mom)| {
            let mass_old = *mass;
            let energy_old = mass_old * *ein;
            let mom_old = fx.cell_u[e] * mass_old;

            let mass_new = mass_old - fx.d_mass[e];
            let energy_new = energy_old - fx.d_energy[e];
            let mom_new = mom_old - *mom;
            if mass_new <= 0.0 {
                return Some((e, Fail::Mass));
            }

            let nd = elnd[e];
            let corners = nd.map(|n| x[n as usize]);
            let vol = quad_area(&corners);
            if vol <= 0.0 {
                return Some((e, Fail::Volume));
            }
            *mass = mass_new;
            *volume = vol;
            *rho = mass_new / vol;
            *ein = energy_new / mass_new;
            let cv = corner_volumes(&corners);
            // Uniform sub-zonal density on the fresh mesh: the remap
            // resets sub-zonal pressure deviations (its fluxes carry
            // element totals only, as single-material swept remaps do).
            for c in 0..4 {
                cnmass[c] = *rho * cv[c];
            }
            // Momentum deficit: what the element's corners must gain so
            // that the new-mass-weighted nodal momentum matches the
            // advected element momentum exactly.
            let mut carried = Vec2::ZERO;
            for c in 0..4 {
                carried += u[nd[c] as usize] * cnmass[c];
            }
            *mom = mom_new - carried;
            None
        },
    )
}

/// Distribute momentum deficits to the velocities of every node of
/// `nodes`. Each element hands its corners a share of its deficit
/// weighted by new corner mass; a node converts received momentum to a
/// velocity change with its new mass. By construction
/// Σ_n m_n^new u_n^new = Σ_e mom_new[e], so total momentum is conserved
/// to round-off. Boundary conditions are *not* applied here — the next
/// `getacc` projects wall-normal components, as in the reference code.
/// Node-order gather (like `getacc`'s rewrite): each node owns its own
/// velocity slot — rewritten once, from its own pre-remap value — so
/// this fans out too. Every adjacent element of every node swept must
/// already be remapped.
fn remap_nodes(
    mesh: &Mesh,
    state: &mut HydroState,
    mom_change: &[Vec2],
    range: LocalRange,
    threading: Threading,
    nodes: Pass<'_>,
) {
    let topology: &Topology = mesh;
    let (cnmass, mass) = (state.cnmass.as_flattened(), &state.mass);
    let columns = (&mut state.u[..range.n_active_nd],);
    sweep(threading, nodes, columns, |n, (un,)| {
        let mut dp = Vec2::ZERO;
        let mut m_new = 0.0;
        for &id in topology.elements_of_node(n) {
            let e = split_corner(id).0;
            let w = cnmass[id as usize] / mass[e].max(1e-300);
            dp += mom_change[e] * w;
            m_new += cnmass[id as usize];
        }
        if m_new > 0.0 {
            *un += dp / m_new;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_eos::{EosSpec, MaterialTable};
    use bookleaf_mesh::{generate_rect, OverlapSets, RectSpec};
    use bookleaf_util::approx_eq;

    fn setup(
        n: usize,
        rho_of: impl Fn(usize) -> f64,
        u_of: impl Fn(usize) -> Vec2,
    ) -> (Mesh, HydroState) {
        let mesh = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let st = HydroState::new(&mesh, &mat, rho_of, |_| 1.0, u_of).unwrap();
        (mesh, st)
    }

    #[test]
    fn identity_remap_is_noop() {
        // Mesh already at reference: Eulerian remap changes nothing.
        let (mut mesh, mut st) = setup(
            4,
            |e| 1.0 + 0.1 * e as f64,
            |n| Vec2::new((n as f64).sin(), (n as f64).cos()),
        );
        let range = LocalRange::whole(&mesh);
        let remapper = Remapper::new(&mesh, AleOptions::default());
        let before = st.clone();
        remapper.step(&mut mesh, &mut st, range).unwrap();
        for e in 0..st.n_elements() {
            assert!(approx_eq(st.rho[e], before.rho[e], 1e-13));
            assert!(approx_eq(st.ein[e], before.ein[e], 1e-13));
            assert!(approx_eq(st.mass[e], before.mass[e], 1e-13));
        }
        for n in 0..st.n_nodes() {
            assert!((st.u[n] - before.u[n]).norm() < 1e-13);
        }
    }

    #[test]
    fn eulerian_remap_restores_reference_mesh() {
        let (mut mesh, mut st) = setup(4, |_| 1.0, |_| Vec2::ZERO);
        let range = LocalRange::whole(&mesh);
        let remapper = Remapper::new(&mesh, AleOptions::default());
        let x_ref = mesh.nodes.clone();
        // Push an interior node.
        mesh.nodes[6] += Vec2::new(0.02, -0.01);
        // Keep the state consistent with the moved mesh before the remap.
        for e in 0..mesh.n_elements() {
            let c = mesh.corners(e);
            st.volume[e] = quad_area(&c);
            st.rho[e] = st.mass[e] / st.volume[e];
        }
        remapper.step(&mut mesh, &mut st, range).unwrap();
        for n in 0..mesh.n_nodes() {
            assert!(mesh.nodes[n].distance(x_ref[n]) < 1e-14);
        }
    }

    #[test]
    fn remap_conserves_mass_energy_momentum() {
        let (mut mesh, mut st) = setup(
            6,
            |e| if e % 2 == 0 { 1.0 } else { 3.0 },
            |n| Vec2::new(0.1 * (n % 4) as f64, -0.05 * (n % 3) as f64),
        );
        let range = LocalRange::whole(&mesh);
        let remapper = Remapper::new(&mesh, AleOptions::default());
        // Distort the interior, consistently updating volumes.
        for n in 0..mesh.n_nodes() {
            let bc = mesh.node_bc[n];
            if !bc.fix_x {
                mesh.nodes[n].x += 0.01 * ((n * 7) as f64).sin();
            }
            if !bc.fix_y {
                mesh.nodes[n].y += 0.01 * ((n * 11) as f64).cos();
            }
        }
        for e in 0..mesh.n_elements() {
            let c = mesh.corners(e);
            st.volume[e] = quad_area(&c);
            st.rho[e] = st.mass[e] / st.volume[e];
            let cv = corner_volumes(&c);
            for k in 0..4 {
                st.cnmass[e][k] = st.rho[e] * cv[k];
            }
        }
        let mass0 = st.total_mass(range);
        let ie0 = st.internal_energy(range);
        let mut mom0 = Vec2::ZERO;
        for n in 0..mesh.n_nodes() {
            let m: f64 = mesh
                .elements_of_node(n)
                .iter()
                .map(|&id| st.cnmass.as_flattened()[id as usize])
                .sum();
            mom0 += st.u[n] * m;
        }

        remapper.step(&mut mesh, &mut st, range).unwrap();

        assert!(approx_eq(st.total_mass(range), mass0, 1e-12), "mass drift");
        assert!(
            approx_eq(st.internal_energy(range), ie0, 1e-12),
            "energy drift"
        );
        let mut mom1 = Vec2::ZERO;
        for n in 0..mesh.n_nodes() {
            let m: f64 = mesh
                .elements_of_node(n)
                .iter()
                .map(|&id| st.cnmass.as_flattened()[id as usize])
                .sum();
            mom1 += st.u[n] * m;
        }
        // Momentum conservation is modulo wall projections (BCs can
        // absorb normal momentum, as in the physical problem).
        assert!(
            (mom1 - mom0).norm() < 1e-10,
            "momentum drift: {mom0:?} -> {mom1:?}"
        );
    }

    #[test]
    fn remap_keeps_density_bounds() {
        // Monotone limiter: remapping a step profile must not create new
        // extrema.
        let (mut mesh, mut st) = setup(8, |e| if e % 8 < 4 { 1.0 } else { 0.125 }, |_| Vec2::ZERO);
        let range = LocalRange::whole(&mesh);
        let remapper = Remapper::new(&mesh, AleOptions::default());
        for n in 0..mesh.n_nodes() {
            let bc = mesh.node_bc[n];
            if !bc.fix_x {
                mesh.nodes[n].x += 0.004 * ((n * 3) as f64).sin();
            }
            if !bc.fix_y {
                mesh.nodes[n].y += 0.004 * ((n * 5) as f64).cos();
            }
        }
        for e in 0..mesh.n_elements() {
            let c = mesh.corners(e);
            st.volume[e] = quad_area(&c);
            st.rho[e] = st.mass[e] / st.volume[e];
        }
        remapper.step(&mut mesh, &mut st, range).unwrap();
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &r in &st.rho {
            lo = lo.min(r);
            hi = hi.max(r);
        }
        assert!(lo >= 0.1, "undershoot: {lo}");
        assert!(hi <= 1.3, "overshoot: {hi}");
    }

    #[test]
    fn due_respects_frequency() {
        let mesh = generate_rect(&RectSpec::unit_square(2), |_| 0).unwrap();
        let r = Remapper::new(
            &mesh,
            AleOptions {
                mode: AleMode::Eulerian,
                frequency: 3,
            },
        );
        assert!(!r.due(0));
        assert!(!r.due(1));
        assert!(r.due(2));
        assert!(r.due(5));
        let never = Remapper::new(
            &mesh,
            AleOptions {
                mode: AleMode::Eulerian,
                frequency: 0,
            },
        );
        assert!(!never.due(0));
        assert!(!never.due(99));
    }

    #[test]
    fn smooth_mode_improves_quality() {
        use bookleaf_validate::quality::assess;
        let (mut mesh, mut st) = setup(6, |_| 1.0, |_| Vec2::ZERO);
        let range = LocalRange::whole(&mesh);
        let remapper = Remapper::new(
            &mesh,
            AleOptions {
                mode: AleMode::Smooth { alpha: 0.8 },
                frequency: 1,
            },
        );
        for n in 0..mesh.n_nodes() {
            let bc = mesh.node_bc[n];
            if !bc.fix_x {
                mesh.nodes[n].x += 0.02 * ((n * 13) as f64).sin();
            }
            if !bc.fix_y {
                mesh.nodes[n].y += 0.02 * ((n * 17) as f64).cos();
            }
        }
        for e in 0..mesh.n_elements() {
            let c = mesh.corners(e);
            st.volume[e] = quad_area(&c);
            st.rho[e] = st.mass[e] / st.volume[e];
        }
        let before = assess(&mesh);
        remapper.step(&mut mesh, &mut st, range).unwrap();
        let after = assess(&mesh);
        assert!(after.max_skew <= before.max_skew + 1e-12);
    }

    /// The boundary-first, split-sweep remap must be bitwise identical
    /// to the remap in one sweep for any pair of pre-post lists
    /// upholding the `OverlapSets` invariant (no element outside
    /// `remap_pre_el_ids` adjacent to a node in `remap_pre_nd_ids`).
    #[test]
    fn overlapped_remap_is_bitwise_identical_to_plain() {
        let make = || {
            let (mut mesh, mut st) = setup(
                8,
                |e| if e % 3 == 0 { 1.0 } else { 2.5 },
                |n| Vec2::new(0.07 * (n % 5) as f64, -0.03 * (n % 7) as f64),
            );
            for n in 0..mesh.n_nodes() {
                let bc = mesh.node_bc[n];
                if !bc.fix_x {
                    mesh.nodes[n].x += 0.006 * ((n * 7) as f64).sin();
                }
                if !bc.fix_y {
                    mesh.nodes[n].y += 0.006 * ((n * 11) as f64).cos();
                }
            }
            for e in 0..mesh.n_elements() {
                let c = mesh.corners(e);
                st.volume[e] = quad_area(&c);
                st.rho[e] = st.mass[e] / st.volume[e];
                let cv = corner_volumes(&c);
                for k in 0..4 {
                    st.cnmass[e][k] = st.rho[e] * cv[k];
                }
            }
            (mesh, st)
        };
        // An invariant-respecting split: pre nodes = left third of the
        // grid, pre elements = their full adjacency plus a few extras.
        let (mesh0, _) = make();
        let mut pre_nd = vec![false; mesh0.n_nodes()];
        for (n, p) in mesh0.nodes.iter().enumerate() {
            pre_nd[n] = p.x < 0.34;
        }
        let mut pre_el = vec![false; mesh0.n_elements()];
        for (n, &is_pre) in pre_nd.iter().enumerate() {
            if is_pre {
                for &id in mesh0.elements_of_node(n) {
                    pre_el[split_corner(id).0] = true;
                }
            }
        }
        pre_el[40] = true; // an extra early element is always legal

        let ids = |mask: &[bool]| -> Vec<u32> {
            (0..mask.len() as u32)
                .filter(|&i| mask[i as usize])
                .collect()
        };
        /// Hooks that exchange nothing and name `0` as their lists.
        struct Split(OverlapSets);
        impl HaloOps for Split {
            fn boundary(&self) -> &OverlapSets {
                &self.0
            }
        }
        let mut split = Split(OverlapSets {
            remap_pre_el_ids: ids(&pre_el),
            remap_pre_nd_ids: ids(&pre_nd),
            ..OverlapSets::default()
        });

        for th in [Threading::Serial, Threading::Rayon] {
            let (mut mesh_a, mut st_a) = make();
            let range = LocalRange::whole(&mesh_a);
            let remapper = Remapper::new(&mesh_a, AleOptions::default());
            remapper
                .step_with(&mut mesh_a, &mut st_a, range, th, &mut NoComm)
                .unwrap();
            let (mut mesh_b, mut st_b) = make();
            remapper
                .step_with(&mut mesh_b, &mut st_b, range, th, &mut split)
                .unwrap();
            assert_eq!(st_a.rho, st_b.rho, "{th:?}");
            assert_eq!(st_a.ein, st_b.ein, "{th:?}");
            assert_eq!(st_a.mass, st_b.mass, "{th:?}");
            assert_eq!(st_a.cnmass, st_b.cnmass, "{th:?}");
            assert!(st_a.u.iter().zip(&st_b.u).all(|(a, b)| a == b), "{th:?}");
        }
    }

    #[test]
    fn threaded_remap_is_bitwise_identical_to_serial() {
        let make = || {
            let (mut mesh, mut st) = setup(
                8,
                |e| if e % 3 == 0 { 1.0 } else { 2.5 },
                |n| Vec2::new(0.07 * (n % 5) as f64, -0.03 * (n % 7) as f64),
            );
            for n in 0..mesh.n_nodes() {
                let bc = mesh.node_bc[n];
                if !bc.fix_x {
                    mesh.nodes[n].x += 0.006 * ((n * 7) as f64).sin();
                }
                if !bc.fix_y {
                    mesh.nodes[n].y += 0.006 * ((n * 11) as f64).cos();
                }
            }
            for e in 0..mesh.n_elements() {
                let c = mesh.corners(e);
                st.volume[e] = quad_area(&c);
                st.rho[e] = st.mass[e] / st.volume[e];
                let cv = corner_volumes(&c);
                for k in 0..4 {
                    st.cnmass[e][k] = st.rho[e] * cv[k];
                }
            }
            (mesh, st)
        };
        let (mut mesh_s, mut st_s) = make();
        let range = LocalRange::whole(&mesh_s);
        let remapper = Remapper::new(&mesh_s, AleOptions::default());
        remapper.step(&mut mesh_s, &mut st_s, range).unwrap();
        let (mut mesh_p, mut st_p) = make();
        remapper
            .step_with(&mut mesh_p, &mut st_p, range, Threading::Rayon, &mut NoComm)
            .unwrap();
        assert_eq!(st_s.rho, st_p.rho);
        assert_eq!(st_s.ein, st_p.ein);
        assert_eq!(st_s.mass, st_p.mass);
        assert_eq!(st_s.cnmass, st_p.cnmass);
        assert!(st_s.u.iter().zip(&st_p.u).all(|(a, b)| a == b));
        assert!(mesh_s.nodes.iter().zip(&mesh_p.nodes).all(|(a, b)| a == b));
    }
}
