//! `getein`: compatible internal-energy update.
//!
//! In the compatible discretisation the internal energy equation is
//! driven by the *same* corner forces as the momentum equation:
//!
//! ```text
//! m_z dε/dt = − Σ_corners F_c · u_c
//! ```
//!
//! where `u_c` is the velocity of the node at corner `c`. Because the
//! nodal momentum update uses exactly the corner forces, total energy
//! (internal + kinetic) is conserved to round-off (Barlow 2008). For a
//! uniform-pressure element this reduces to `m dε = −P dV`, the textbook
//! `pdV` work.

use bookleaf_mesh::Mesh;
use bookleaf_util::Vec2;

use crate::state::{HydroState, LocalRange};
use crate::sweep::{sweep, Pass};
use crate::Threading;

/// Which velocity the work term uses: the predictor half-step uses the
/// start-of-step velocity; the corrector uses the time-centred `ubar`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkVelocity {
    /// Start-of-step nodal velocity `u`.
    Current,
    /// Time-centred velocity `ubar` set by `getacc`.
    TimeCentred,
}

/// Advance internal energy by `dt` over the owned range.
pub fn getein(
    mesh: &Mesh,
    state: &mut HydroState,
    range: LocalRange,
    dt: f64,
    which: WorkVelocity,
    threading: Threading,
) {
    let n = range.n_owned_el;
    let vel: &[Vec2] = match which {
        WorkVelocity::Current => &state.u,
        WorkVelocity::TimeCentred => &state.ubar,
    };
    let fx = &state.cnforce_x;
    let fy = &state.cnforce_y;
    let mass = &state.mass;
    let elnd = &mesh.elnd[..n];

    // The work term reads the two dense SoA component rows of the
    // element; each corner contributes `fx·vx + fy·vy` — the same
    // grouping as the former `Vec2::dot`, so the sum is bitwise
    // identical to the interleaved layout.
    sweep(threading, Pass::All, (&mut state.ein[..n],), |e, (ein,)| {
        let nd = elnd[e];
        let (rx, ry) = (&fx[e], &fy[e]);
        let mut work = 0.0;
        for c in 0..4 {
            let v = vel[nd[c] as usize];
            work += rx[c] * v.x + ry[c] * v.y;
        }
        *ein -= dt * work / mass[e];
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_eos::{EosSpec, MaterialTable};
    use bookleaf_mesh::generation::{generate_rect, RectSpec};
    use bookleaf_mesh::geometry::area_gradient;
    use bookleaf_util::approx_eq;

    fn setup(n: usize) -> (Mesh, HydroState) {
        let mesh = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let st = HydroState::new(&mesh, &mat, |_| 1.0, |_| 2.5, |_| Vec2::ZERO).unwrap();
        (mesh, st)
    }

    #[test]
    fn zero_velocity_means_no_work() {
        let (mesh, mut st) = setup(2);
        for e in 0..st.n_elements() {
            st.cnforce_x[e] = [1.0; 4];
            st.cnforce_y[e] = [1.0; 4];
        }
        let before = st.ein.clone();
        getein(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            0.1,
            WorkVelocity::Current,
            Threading::Serial,
        );
        assert_eq!(st.ein, before);
    }

    #[test]
    fn expansion_reduces_internal_energy_as_pdv() {
        // Single unit element at pressure P with outward velocity u = x:
        // dV/dt = 2V, so m dε/dt = -P dV/dt.
        let (mesh, mut st) = setup(1);
        let p = 1.0;
        st.pressure[0] = p;
        let g = area_gradient(&mesh.corners(0));
        for c in 0..4 {
            let f = g[c] * p;
            (st.cnforce_x[0][c], st.cnforce_y[0][c]) = (f.x, f.y);
        }
        // u = position (pure expansion about the origin).
        for n in 0..mesh.n_nodes() {
            st.u[n] = mesh.nodes[n];
        }
        let dt = 1e-3;
        let e0 = st.ein[0];
        getein(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            dt,
            WorkVelocity::Current,
            Threading::Serial,
        );
        // dV/dt = Σ g·u = 2A = 2 (unit square). m = 1.
        let expect = e0 - dt * p * 2.0;
        assert!(
            approx_eq(st.ein[0], expect, 1e-12),
            "{} vs {expect}",
            st.ein[0]
        );
    }

    #[test]
    fn compression_heats() {
        let (mesh, mut st) = setup(1);
        let g = area_gradient(&mesh.corners(0));
        for c in 0..4 {
            (st.cnforce_x[0][c], st.cnforce_y[0][c]) = (g[c].x, g[c].y);
        }
        for n in 0..mesh.n_nodes() {
            st.u[n] = -mesh.nodes[n]; // converging flow
        }
        let e0 = st.ein[0];
        getein(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            1e-3,
            WorkVelocity::Current,
            Threading::Serial,
        );
        assert!(st.ein[0] > e0);
    }

    #[test]
    fn time_centred_uses_ubar() {
        let (mesh, mut st) = setup(1);
        st.cnforce_x[0] = [1.0; 4];
        st.cnforce_y[0] = [0.0; 4];
        // u says "no work", ubar says "work".
        for n in 0..mesh.n_nodes() {
            st.u[n] = Vec2::ZERO;
            st.ubar[n] = Vec2::new(1.0, 0.0);
        }
        let e0 = st.ein[0];
        let mut st2 = st.clone();
        getein(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            0.1,
            WorkVelocity::Current,
            Threading::Serial,
        );
        assert_eq!(st.ein[0], e0);
        getein(
            &mesh,
            &mut st2,
            LocalRange::whole(&mesh),
            0.1,
            WorkVelocity::TimeCentred,
            Threading::Serial,
        );
        // work = Σ F·ubar = 4 * 1 = 4; dε = -0.1 * 4 / m (m = 1).
        assert!(approx_eq(st2.ein[0], e0 - 0.4, 1e-12));
    }

    #[test]
    fn serial_matches_rayon() {
        let (mesh, mut a) = setup(5);
        for e in 0..a.n_elements() {
            a.cnforce_x[e] = [0.1, -0.1, 0.2, -0.2];
            a.cnforce_y[e] = [0.2, 0.3, -0.2, -0.3];
        }
        for n in 0..a.n_nodes() {
            a.u[n] = Vec2::new((n as f64).sin(), (n as f64).cos());
        }
        let mut b = a.clone();
        getein(
            &mesh,
            &mut a,
            LocalRange::whole(&mesh),
            0.05,
            WorkVelocity::Current,
            Threading::Serial,
        );
        getein(
            &mesh,
            &mut b,
            LocalRange::whole(&mesh),
            0.05,
            WorkVelocity::Current,
            Threading::Rayon,
        );
        assert_eq!(a.ein, b.ein);
    }
}
