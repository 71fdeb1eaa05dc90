//! `getforce`: assemble corner forces.
//!
//! The compatible discretisation drives both momentum and energy from the
//! same *corner forces* (Barlow 2008): element `e` exerts `F[e][c]` on
//! the node at its corner `c`. Three contributions:
//!
//! 1. **Pressure**: `F = P ∂V/∂x_c` — the exact gradient of element
//!    volume with respect to the corner position, so pressure work
//!    accounts exactly for volume change.
//! 2. **Artificial viscosity**: each edge's viscous pressure `edge_q`
//!    acts like an extra surface pressure on that edge, split between its
//!    two end nodes.
//! 3. **Hourglass control**: the two non-physical ("hourglass") degrees
//!    of freedom of the staggered quad are damped by a Hancock-style
//!    filter and stiffened by Caramana–Shashkov sub-zonal pressures, both
//!    optional per deck.

use bookleaf_mesh::geometry::quad_centroid;
use bookleaf_mesh::Mesh;

use crate::state::{HydroState, LocalRange};
use crate::sweep::{sweep, Pass};
use crate::viscforce::{
    hourglass, pressure_force, sound_speed, store_force, viscous_pairs, Faces, Gathered,
    HourglassInputs,
};
use crate::Threading;

/// Which hourglass-suppression mechanisms are active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HourglassControl {
    /// Hancock filter coefficient (0 disables).
    pub kappa_filter: f64,
    /// Sub-zonal pressure coefficient (0 disables).
    pub zeta_subzonal: f64,
}

impl Default for HourglassControl {
    fn default() -> Self {
        HourglassControl {
            kappa_filter: bookleaf_util::constants::KAPPA_HG,
            zeta_subzonal: bookleaf_util::constants::ZETA_SZ,
        }
    }
}

impl HourglassControl {
    /// Disable all hourglass control (for tests and ablations).
    #[must_use]
    pub fn none() -> Self {
        HourglassControl {
            kappa_filter: 0.0,
            zeta_subzonal: 0.0,
        }
    }
}

/// Assemble corner forces for the owned range from the stored
/// `edge_q`: the force half of
/// [`viscforce`](crate::viscforce::viscforce), which is what a
/// production step runs.
///
/// `dt` is the step the forces will be integrated over; the viscous pair
/// forces are *momentum-limited* against it (an explicit damping force
/// must not reverse the relative velocity it opposes within one step, or
/// cold compressed slivers blow up — the classic stiff-q instability).
pub fn getforce(
    mesh: &Mesh,
    state: &mut HydroState,
    range: LocalRange,
    hg: HourglassControl,
    dt: f64,
    threading: Threading,
) {
    let n = range.n_owned_el;
    // Element-indexed reads sliced to the owned range so the sweeps
    // (bounded by the same `n` through the force-row zip) index them
    // without bounds checks; `x`, `u` and `nd_mass` stay full-length —
    // they are gathered through node ids.
    let (elnd, x, u) = (&mesh.elnd[..n], &mesh.nodes, &state.u);
    let rho = &state.rho[..n];
    let cs2 = &state.cs2[..n];
    let pressure = &state.pressure[..n];
    let edge_q = &state.edge_q[..n];
    let nd_mass = &state.nd_mass;
    let cnmass = &state.cnmass[..n];
    let cnvol = &state.cnvol[..n];
    let volume = &state.volume[..n];

    let columns = (&mut state.cnforce_x[..n], &mut state.cnforce_y[..n]);
    sweep(threading, Pass::All, columns, |e, (fx, fy)| {
        let g = Gathered::new(elnd[e], x, u);
        let mut force = pressure_force(&g.x, pressure[e]);
        if edge_q[e].iter().any(|&q| q != 0.0) {
            let faces = Faces::new(&g);
            let masses = g.nd.map(|nd| nd_mass[nd]);
            viscous_pairs(&mut force, &faces, &faces.du_mag(), &edge_q[e], &masses, dt);
        }
        let el = HourglassInputs {
            rho: rho[e],
            cs2: cs2[e],
            cs: sound_speed(cs2[e]),
            volume: volume[e],
            cnmass: &cnmass[e],
            cnvol: &cnvol[e],
        };
        hourglass(&mut force, &g, quad_centroid(&g.x), &el, hg);
        store_force(&force, fx, fy);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::viscforce::GAMMA;
    use bookleaf_eos::{EosSpec, MaterialTable};
    use bookleaf_mesh::geometry::area_gradient;
    use bookleaf_mesh::{generate_rect, RectSpec};
    use bookleaf_util::{approx_eq, Vec2};

    fn corner_force(st: &HydroState, e: usize, c: usize) -> Vec2 {
        Vec2::new(st.cnforce_x[e][c], st.cnforce_y[e][c])
    }

    fn setup(n: usize) -> (Mesh, HydroState) {
        let mesh = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let st = HydroState::new(&mesh, &mat, |_| 1.0, |_| 2.5, |_| Vec2::ZERO).unwrap();
        (mesh, st)
    }

    #[test]
    fn pressure_force_is_p_times_area_gradient() {
        let (mesh, mut st) = setup(2);
        getforce(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            HourglassControl::none(),
            1.0,
            Threading::Serial,
        );
        for e in 0..st.n_elements() {
            let g = area_gradient(&mesh.corners(e));
            for c in 0..4 {
                let expect = g[c] * st.pressure[e];
                assert!(approx_eq(corner_force(&st, e, c).x, expect.x, 1e-13));
                assert!(approx_eq(corner_force(&st, e, c).y, expect.y, 1e-13));
            }
        }
    }

    #[test]
    fn uniform_pressure_forces_sum_to_zero_per_element() {
        let (mesh, mut st) = setup(3);
        getforce(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            HourglassControl::none(),
            1.0,
            Threading::Serial,
        );
        for e in 0..st.n_elements() {
            let total: Vec2 = (0..4).map(|c| corner_force(&st, e, c)).sum();
            assert!(total.norm() < 1e-13, "element {e}: net force {total:?}");
        }
    }

    #[test]
    fn interior_nodes_feel_no_net_force_at_uniform_pressure() {
        let (mesh, mut st) = setup(4);
        getforce(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            HourglassControl::none(),
            1.0,
            Threading::Serial,
        );
        // Gather at an interior node: contributions cancel.
        let n = 2 * 5 + 2; // interior node of the 5x5 node grid
        let mut f = Vec2::ZERO;
        for &(e, c) in mesh.elements_of_node(n) {
            f += corner_force(&st, e as usize, c as usize);
        }
        assert!(f.norm() < 1e-13);
    }

    #[test]
    fn viscous_edge_force_opposes_corner_approach() {
        let (mesh, mut st) = setup(1);
        // Bottom edge nodes 0 and 1 rushing at each other.
        st.u[0] = Vec2::new(1.0, 0.0);
        st.u[1] = Vec2::new(-1.0, 0.0);
        st.edge_q[0] = [2.0, 0.0, 0.0, 0.0];
        st.pressure[0] = 0.0;
        // Small dt so the momentum cap does not bind here.
        getforce(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            HourglassControl::none(),
            0.01,
            Threading::Serial,
        );
        // du = (-2, 0), |du| = 2, edge length 1: pair = du/|du| * q * L
        // = (-2, 0). Corner 0 gets +pair, corner 1 gets -pair — each
        // force opposes that corner's motion.
        assert!(approx_eq(corner_force(&st, 0, 0).x, -2.0, 1e-13));
        assert!(approx_eq(corner_force(&st, 0, 1).x, 2.0, 1e-13));
        assert!(
            corner_force(&st, 0, 0).x * st.u[0].x < 0.0,
            "must decelerate corner 0"
        );
        assert!(
            corner_force(&st, 0, 1).x * st.u[1].x < 0.0,
            "must decelerate corner 1"
        );
        // Pair force: zero net on the element.
        let net: Vec2 = (0..4).map(|c| corner_force(&st, 0, c)).sum();
        assert!(net.norm() < 1e-13);
        assert_eq!(corner_force(&st, 0, 2), Vec2::ZERO);
        assert_eq!(corner_force(&st, 0, 3), Vec2::ZERO);
        // Expanding corners feel nothing even with q set.
        st.u[0] = Vec2::new(-1.0, 0.0);
        st.u[1] = Vec2::new(1.0, 0.0);
        getforce(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            HourglassControl::none(),
            0.01,
            Threading::Serial,
        );
        assert_eq!(corner_force(&st, 0, 0), Vec2::ZERO);
    }

    #[test]
    fn viscous_force_is_momentum_limited_at_large_dt() {
        let (mesh, mut st) = setup(1);
        st.u[0] = Vec2::new(1.0, 0.0);
        st.u[1] = Vec2::new(-1.0, 0.0);
        st.edge_q[0] = [1e6, 0.0, 0.0, 0.0]; // absurdly stiff q
        st.pressure[0] = 0.0;
        let dt = 0.1;
        getforce(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            HourglassControl::none(),
            dt,
            Threading::Serial,
        );
        // Nodal masses on a single element are the corner masses (0.25);
        // mu = 0.125, cap = 0.25 * 0.125 * 2 / 0.1 = 0.625.
        let mag = corner_force(&st, 0, 0).norm();
        assert!(approx_eq(mag, 0.625, 1e-12), "capped magnitude {mag}");
        // The applied impulse never reverses the relative velocity.
        assert!(mag * dt <= 0.125 * 2.0 + 1e-12);
    }

    #[test]
    fn hourglass_filter_damps_hourglass_mode_only() {
        let mesh = generate_rect(&RectSpec::unit_square(1), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        // Hourglass velocity pattern: alternate +x/-x *in corner order*.
        // The single element's corners are nodes [0, 1, 3, 2].
        let corner_of_node = [0usize, 1, 3, 2]; // node -> corner
        let mut st = HydroState::new(
            &mesh,
            &mat,
            |_| 1.0,
            |_| 2.5,
            |i| Vec2::new(GAMMA[corner_of_node[i]], 0.0),
        )
        .unwrap();
        st.pressure[0] = 0.0;
        let hg = HourglassControl {
            kappa_filter: 0.5,
            zeta_subzonal: 0.0,
        };
        getforce(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            hg,
            1.0,
            Threading::Serial,
        );
        // Force must oppose the mode: sign opposite to GAMMA * u_hg.
        for c in 0..4 {
            assert!(
                corner_force(&st, 0, c).x * GAMMA[c] < 0.0,
                "corner {c} not damped"
            );
            assert!(corner_force(&st, 0, c).y.abs() < 1e-13);
        }
        // And a rigid translation is untouched by the filter.
        let mut st2 =
            HydroState::new(&mesh, &mat, |_| 1.0, |_| 2.5, |_| Vec2::new(1.0, 0.0)).unwrap();
        st2.pressure[0] = 0.0;
        getforce(
            &mesh,
            &mut st2,
            LocalRange::whole(&mesh),
            hg,
            1.0,
            Threading::Serial,
        );
        for c in 0..4 {
            assert!(corner_force(&st2, 0, c).norm() < 1e-13);
        }
    }

    #[test]
    fn subzonal_pressure_resists_corner_compression() {
        let (mesh, mut st) = setup(1);
        st.pressure[0] = 0.0;
        // Pretend corner 0's sub-zone got compressed: its volume halved
        // while mass is fixed -> sub-zonal density doubled.
        st.cnvol[0][0] *= 0.5;
        let hg = HourglassControl {
            kappa_filter: 0.0,
            zeta_subzonal: 0.5,
        };
        getforce(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            hg,
            1.0,
            Threading::Serial,
        );
        // The restoring force must push corner 0 outward (towards -x,-y
        // for the bottom-left corner of a unit square).
        let f = corner_force(&st, 0, 0);
        assert!(
            f.x < 0.0 && f.y < 0.0,
            "restoring force {f:?} should point outward"
        );
        // The variational force distributes over all corners but sums to
        // zero (no net thrust on the element) and is dominated by the
        // compressed corner.
        let net: Vec2 = (0..4).map(|c| corner_force(&st, 0, c)).sum();
        assert!(net.norm() < 1e-13, "net subzonal force {net:?}");
        assert!(
            corner_force(&st, 0, 2).norm() < f.norm(),
            "far corner should feel less"
        );
    }

    #[test]
    fn serial_matches_rayon() {
        let mesh = generate_rect(&RectSpec::unit_square(6), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let nodes = mesh.nodes.clone();
        let mut a = HydroState::new(
            &mesh,
            &mat,
            |e| 1.0 + 0.01 * e as f64,
            |_| 2.0,
            |i| Vec2::new((3.0 * nodes[i].y).sin(), (2.0 * nodes[i].x).cos()),
        )
        .unwrap();
        for e in 0..a.n_elements() {
            a.edge_q[e] = [0.1, 0.0, 0.3, 0.05];
        }
        let mut b = a.clone();
        getforce(
            &mesh,
            &mut a,
            LocalRange::whole(&mesh),
            HourglassControl::default(),
            1.0,
            Threading::Serial,
        );
        getforce(
            &mesh,
            &mut b,
            LocalRange::whole(&mesh),
            HourglassControl::default(),
            1.0,
            Threading::Rayon,
        );
        assert_eq!(a.cnforce_x, b.cnforce_x);
        assert_eq!(a.cnforce_y, b.cnforce_y);
    }
}
