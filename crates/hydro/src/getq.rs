//! `getq`: edge-centred artificial viscosity.
//!
//! The bilinear FE spatial discretisation is valid for differentiable
//! flow but not across shocks; an artificial viscosity smears shock
//! discontinuities over a few cells. BookLeaf follows the edge-centred
//! form of Caramana, Shashkov & Whalen (1998): every element side gets a
//! viscous pressure with a linear (`cq1`, acoustic) and quadratic (`cq2`)
//! term, active only in compression, multiplied by `(1 − ψ)` where `ψ` is
//! a monotonic velocity-gradient limiter that switches the viscosity off
//! in smooth flow (where it would wrongly diffuse the solution).
//!
//! The limiter compares the velocity difference from cell centre to face
//! with its continuation into the neighbouring cell across that face —
//! the reason the reference code performs one of its two halo exchanges
//! *immediately before* this kernel. This is the paper's most expensive
//! kernel (≈ 64–70 % of single-node runtime on CPUs, Table II).

use bookleaf_mesh::geometry::quad_centroid;
use bookleaf_mesh::Mesh;

use crate::state::{HydroState, LocalRange};
use crate::sweep::{sweep, Pass};
use crate::viscforce::{edge_q_lanes, sound_speed, with_cell_velocities, Faces, Gathered, QInputs};
use crate::Threading;

/// Artificial viscosity coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QCoeffs {
    /// Linear (acoustic) coefficient.
    pub cq1: f64,
    /// Quadratic coefficient.
    pub cq2: f64,
}

impl Default for QCoeffs {
    fn default() -> Self {
        QCoeffs {
            cq1: bookleaf_util::constants::CQ1,
            cq2: bookleaf_util::constants::CQ2,
        }
    }
}

/// Monotonic limiter: `ψ = clamp(min(2r, ½(1+r)), 0, 1)`.
///
/// `r` is the ratio of the downstream to local velocity difference:
/// `r ≈ 1` in smooth flow (ψ = 1, no viscosity), `r ≤ 0` at extrema and
/// discontinuities (ψ = 0, full viscosity).
#[inline]
#[must_use]
pub fn monotonic_limiter(r: f64) -> f64 {
    (2.0 * r).min(0.5 * (1.0 + r)).clamp(0.0, 1.0)
}

/// Compute edge and element viscosities over the owned range: the
/// viscosity half of [`viscforce`](crate::viscforce::viscforce), which
/// is what a production step runs.
///
/// Requires ghost node velocities and positions to be current (exchange
/// phase 1).
pub fn getq(
    mesh: &Mesh,
    state: &mut HydroState,
    range: LocalRange,
    coeffs: QCoeffs,
    threading: Threading,
) {
    let n = range.n_owned_el;
    let (elnd, stencil, x) = (&mesh.elnd[..n], &mesh.face_stencil()[..n], &mesh.nodes);
    let u = &state.u;
    let rho = &state.rho[..n];
    let cs2 = &state.cs2[..n];

    let columns = (&mut state.edge_q[..n], &mut state.q[..n]);
    with_cell_velocities(mesh, u, threading, Pass::All, |cell_u| {
        sweep(threading, Pass::All, columns, |e, (edge_q, q)| {
            let g = Gathered::new(elnd[e], x, u);
            let faces = Faces::new(&g);
            if faces.any_compressive() {
                let inputs = QInputs {
                    e,
                    rho: rho[e],
                    cs: sound_speed(cs2[e]),
                    nbr: &stencil[e],
                    cell_u,
                    coeffs,
                };
                let centre = quad_centroid(&g.x);
                (*edge_q, *q) = edge_q_lanes(&g, &faces, &faces.du_mag(), centre, &inputs);
            } else {
                *edge_q = [0.0; 4];
                *q = 0.0;
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_eos::{EosSpec, MaterialTable};
    use bookleaf_mesh::{generate_rect, RectSpec};
    use bookleaf_util::{approx_eq, Vec2};

    fn setup(n: usize, u_of: impl Fn(usize) -> Vec2) -> (Mesh, HydroState) {
        let mesh = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(5.0 / 3.0));
        let st = HydroState::new(&mesh, &mat, |_| 1.0, |_| 1.0, u_of).unwrap();
        (mesh, st)
    }

    #[test]
    fn limiter_bounds() {
        assert_eq!(monotonic_limiter(1.0), 1.0); // smooth
        assert_eq!(monotonic_limiter(0.0), 0.0); // extremum
        assert_eq!(monotonic_limiter(-3.0), 0.0); // reversal
        assert_eq!(monotonic_limiter(100.0), 1.0); // capped
                                                   // Interior values stay within [0, 1].
        for i in 0..100 {
            let r = -2.0 + 0.05 * i as f64;
            let p = monotonic_limiter(r);
            assert!((0.0..=1.0).contains(&p), "psi({r}) = {p}");
        }
    }

    #[test]
    fn quiescent_flow_has_zero_q() {
        let (mesh, mut st) = setup(4, |_| Vec2::ZERO);
        getq(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            QCoeffs::default(),
            Threading::Serial,
        );
        assert!(st.q.iter().all(|&q| q == 0.0));
        assert!(st.edge_q.iter().flatten().all(|&q| q == 0.0));
    }

    #[test]
    fn uniform_translation_has_zero_q() {
        let (mesh, mut st) = setup(4, |_| Vec2::new(3.0, -1.0));
        getq(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            QCoeffs::default(),
            Threading::Serial,
        );
        assert!(st.q.iter().all(|&q| q == 0.0));
    }

    #[test]
    fn smooth_compression_is_limited_away() {
        // u = -0.05 x: smooth uniform compression; the limiter should see
        // r = 1 in the interior and return psi = 1 => q = 0 there.
        let mesh = generate_rect(&RectSpec::unit_square(8), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(5.0 / 3.0));
        let nodes = mesh.nodes.clone();
        let mut st = HydroState::new(
            &mesh,
            &mat,
            |_| 1.0,
            |_| 1.0,
            |i| Vec2::new(-0.05 * nodes[i].x, 0.0),
        )
        .unwrap();
        getq(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            QCoeffs::default(),
            Threading::Serial,
        );
        // Centre element (row 4ish, col 4ish) fully interior in x.
        let centre = 4 * 8 + 4;
        assert!(
            st.q[centre] < 1e-12,
            "smooth flow wrongly triggers q = {}",
            st.q[centre]
        );
    }

    #[test]
    fn colliding_flow_triggers_q() {
        // Two half-planes colliding at x = 0.5: a genuine discontinuity.
        let mesh = generate_rect(&RectSpec::unit_square(8), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(5.0 / 3.0));
        let nodes = mesh.nodes.clone();
        let mut st = HydroState::new(
            &mesh,
            &mat,
            |_| 1.0,
            |_| 1.0,
            |i| Vec2::new(if nodes[i].x < 0.5 { 1.0 } else { -1.0 }, 0.0),
        )
        .unwrap();
        // Nodes exactly on x=0.5 got u=-1; the jump sits at the interface.
        getq(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            QCoeffs::default(),
            Threading::Serial,
        );
        let max_q = st.q.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            max_q > 0.1,
            "collision should trigger viscosity, got {max_q}"
        );
        // And q is localised near the collision plane: far-field zero.
        assert!(st.q[0] < 1e-12);
        assert!(st.q[7] < 1e-12);
    }

    #[test]
    fn expansion_has_zero_q() {
        // u = +x: pure expansion; viscosity must not act.
        let mesh = generate_rect(&RectSpec::unit_square(6), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(5.0 / 3.0));
        let nodes = mesh.nodes.clone();
        let mut st = HydroState::new(
            &mesh,
            &mat,
            |_| 1.0,
            |_| 1.0,
            |i| nodes[i] - Vec2::new(0.5, 0.5),
        )
        .unwrap();
        getq(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            QCoeffs::default(),
            Threading::Serial,
        );
        let interior = 2 * 6 + 2;
        assert!(st.q[interior] < 1e-12);
    }

    #[test]
    fn serial_matches_rayon() {
        let mesh = generate_rect(&RectSpec::unit_square(7), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let nodes = mesh.nodes.clone();
        let mut a = HydroState::new(
            &mesh,
            &mat,
            |_| 1.0,
            |_| 1.0,
            |i| {
                Vec2::new(
                    (7.0 * nodes[i].x).sin() * 0.3,
                    (5.0 * nodes[i].y).cos() * 0.2,
                )
            },
        )
        .unwrap();
        let mut b = a.clone();
        getq(
            &mesh,
            &mut a,
            LocalRange::whole(&mesh),
            QCoeffs::default(),
            Threading::Serial,
        );
        getq(
            &mesh,
            &mut b,
            LocalRange::whole(&mesh),
            QCoeffs::default(),
            Threading::Rayon,
        );
        assert_eq!(a.q, b.q);
        assert_eq!(a.edge_q, b.edge_q);
    }

    #[test]
    fn q_scales_with_density() {
        let mesh = generate_rect(&RectSpec::unit_square(4), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let nodes = mesh.nodes.clone();
        let mk = |rho: f64| {
            let mut st = HydroState::new(
                &mesh,
                &mat,
                |_| rho,
                |_| 0.0,
                |i| Vec2::new(if nodes[i].x < 0.5 { 1.0 } else { -1.0 }, 0.0),
            )
            .unwrap();
            getq(
                &mesh,
                &mut st,
                LocalRange::whole(&mesh),
                QCoeffs::default(),
                Threading::Serial,
            );
            st.q.iter().cloned().fold(0.0f64, f64::max)
        };
        let q1 = mk(1.0);
        let q2 = mk(2.0);
        assert!(
            approx_eq(q2, 2.0 * q1, 1e-10),
            "q should scale linearly: {q1} vs {q2}"
        );
    }
}
