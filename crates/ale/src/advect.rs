//! `aleadvect`: advect the independent variables through the swept
//! volumes.
//!
//! Mass and internal energy are advected element-to-element with a
//! second-order donor-cell scheme: the face value is the donor's value
//! plus a van Leer-limited correction towards the downwind neighbour
//! (Van Leer 1977), which keeps the update monotone — no new extrema.
//! Momentum is advected as an element-centred field (the mass-weighted
//! corner-velocity average); the remap step then distributes each
//! element's momentum *change* back to its corner nodes by corner-mass
//! weight, which conserves total momentum and leaves nodal velocities
//! untouched in the zero-motion limit.
//!
//! Swept volumes are **bitwise antisymmetric** across faces (both sides
//! evaluate the face in its one canonical orientation — see
//! [`crate::fluxvol`]), so the two elements sharing a face derive
//! bitwise-identical fluxes with exactly opposite signs and
//! conservation of mass, energy and momentum is exact by construction.
//! That also makes the accumulation element-local, which is what lets
//! [`compute_fluxes`] run element-parallel under `Threading::Rayon`.
//!
//! `ALEGETFVOL` and `ALEADVECT` are one pass here: each element
//! evaluates the swept volume of a face where it turns it into fluxes,
//! so no swept-volume table is ever stored.

use bookleaf_hydro::{sweep, Pass, Threading};
use bookleaf_mesh::{Mesh, Topology, STENCIL_BOUNDARY};
use bookleaf_util::Vec2;

use crate::fluxvol::face_swept_volume;

/// Van Leer flux limiter: `φ(r) = (r + |r|) / (1 + |r|)`.
///
/// Smooth (`r ≈ 1`) ⇒ φ ≈ 1 (second order); extremum (`r ≤ 0`) ⇒ φ = 0
/// (first order, monotone).
#[inline]
#[must_use]
fn van_leer(r: f64) -> f64 {
    if r.is_finite() {
        (r + r.abs()) / (1.0 + r.abs())
    } else {
        // r = ±inf arises when the local jump vanishes: fully smooth.
        if r > 0.0 {
            2.0
        } else {
            0.0
        }
    }
}

/// The face value of a quantity, second-order limited.
///
/// `donor`/`down` are the donor and downwind element values; `upstream`
/// is the value behind the donor (its opposite-face neighbour), used for
/// the smoothness ratio `r = (donor − upstream)/(down − donor)`.
#[inline]
fn limited_face_value(donor: f64, down: f64, upstream: Option<f64>) -> f64 {
    match upstream {
        None => donor, // first order where no upstream stencil exists
        Some(up) => {
            let d = down - donor;
            if d == 0.0 {
                return donor;
            }
            let r = (donor - up) / d;
            donor + 0.5 * van_leer(r) * d
        }
    }
}

/// Upstream of the donor: its neighbour across the face opposite the
/// one joining it to `towards`.
#[inline]
fn upstream_of(topology: &Topology, donor: usize, towards: usize) -> Option<usize> {
    let fd = topology.face_towards(donor, towards)?;
    let up = topology.face_stencil()[donor][(fd + 2) % 4];
    (up != STENCIL_BOUNDARY).then_some(up as usize)
}

/// The advective fluxes of one remap to `target`: the net mass,
/// internal energy (extensive) and momentum *leaving* each element,
/// written to `d_mass` / `d_energy` / `d_mom` — every entry, so reused
/// buffers need no clearing.
///
/// `cell_u[e]` is the donor-cell velocity used for momentum advection.
///
/// The accumulation is *element-order*: every element walks its own
/// four faces and sums the signed flux each contributes. Because the
/// `(donor, receiver, vol)` triple derived from a face's swept volume
/// is bitwise identical from either side of it, both sides compute
/// bitwise-identical `dm`/`de`/`dmom` with exactly opposite signs — so
/// conservation stays exact by construction *and* every element's
/// output is independent of every other's, which is what lets the
/// `Threading::Rayon` path fan elements out across the pool (and makes
/// serial and threaded results bitwise identical).
#[allow(clippy::too_many_arguments)]
pub fn compute_fluxes(
    mesh: &Mesh,
    target: &[Vec2],
    rho: &[f64],
    ein: &[f64],
    cell_u: &[Vec2],
    d_mass: &mut [f64],
    d_energy: &mut [f64],
    d_mom: &mut [Vec2],
    threading: Threading,
) {
    let topology: &Topology = mesh;
    let (elnd, stencil, x) = (&topology.elnd, topology.face_stencil(), &mesh.nodes);
    sweep(threading, Pass::All, (d_mass, d_energy, d_mom), |e, out| {
        let (mut d_mass, mut d_energy, mut d_mom) = (0.0, 0.0, Vec2::ZERO);
        for f in 0..4 {
            let nb = stencil[e][f];
            if nb == STENCIL_BOUNDARY {
                continue; // walls are impermeable
            }
            let v = face_swept_volume(x, target, elnd[e], e, f, nb);
            if v == 0.0 {
                continue;
            }
            let nb = nb as usize;
            // Donor = the element losing volume through this face. The
            // triple is a pure function of the face, not of which side
            // evaluates it.
            let (donor, receiver, vol) = if v > 0.0 { (e, nb, v) } else { (nb, e, -v) };
            let up = upstream_of(topology, donor, receiver);

            let rho_face = limited_face_value(rho[donor], rho[receiver], up.map(|u| rho[u]));
            let ein_face = limited_face_value(ein[donor], ein[receiver], up.map(|u| ein[u]));
            let dm = vol * rho_face;
            let de = dm * ein_face;
            // Momentum: the flux mass carries the limited face velocity
            // (component-wise limiting of the element-centred velocity).
            let ux_face =
                limited_face_value(cell_u[donor].x, cell_u[receiver].x, up.map(|u| cell_u[u].x));
            let uy_face =
                limited_face_value(cell_u[donor].y, cell_u[receiver].y, up.map(|u| cell_u[u].y));
            let dmom = Vec2::new(ux_face, uy_face) * dm;

            let sign = if donor == e { 1.0 } else { -1.0 };
            d_mass += sign * dm;
            d_energy += sign * de;
            d_mom += dmom * sign;
        }
        (*out.0, *out.1, *out.2) = (d_mass, d_energy, d_mom);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluxvol::tests::face_flux_volumes;
    use bookleaf_mesh::{generate_rect, RectSpec};
    use bookleaf_util::approx_eq;

    /// The serial fluxes `(d_mass, d_energy, d_mom)` of a move to
    /// `target`, computed into dirty buffers: every entry must be
    /// written, none accumulated into.
    fn fluxes(
        mesh: &Mesh,
        target: &[Vec2],
        rho: &[f64],
        ein: &[f64],
        u: &[Vec2],
    ) -> (Vec<f64>, Vec<f64>, Vec<Vec2>) {
        let ne = mesh.n_elements();
        let mut out = (
            vec![f64::NAN; ne],
            vec![f64::NAN; ne],
            vec![Vec2::new(f64::NAN, f64::NAN); ne],
        );
        compute_fluxes(
            mesh,
            target,
            rho,
            ein,
            u,
            &mut out.0,
            &mut out.1,
            &mut out.2,
            Threading::Serial,
        );
        out
    }

    #[test]
    fn van_leer_properties() {
        assert_eq!(van_leer(1.0), 1.0);
        assert_eq!(van_leer(0.0), 0.0);
        assert_eq!(van_leer(-2.0), 0.0);
        assert!((van_leer(3.0) - 1.5).abs() < 1e-15);
        // Bounded by 2 and symmetric property φ(r)/r = φ(1/r).
        for i in 1..50 {
            let r = 0.1 * i as f64;
            let lhs = van_leer(r) / r;
            let rhs = van_leer(1.0 / r);
            assert!(approx_eq(lhs, rhs, 1e-12), "symmetry broken at r = {r}");
            assert!(van_leer(r) <= 2.0);
        }
    }

    #[test]
    fn limited_face_value_monotone() {
        // Face value must lie between donor and downwind.
        for (donor, down, up) in [
            (1.0, 2.0, Some(0.5)),
            (2.0, 1.0, Some(3.0)),
            (1.0, 2.0, Some(1.5)),
            (1.0, 1.0, Some(0.0)),
        ] {
            let v = limited_face_value(donor, down, up);
            let (lo, hi) = (donor.min(down), donor.max(down));
            assert!(
                (lo..=hi).contains(&v),
                "face value {v} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn first_order_at_missing_stencil() {
        assert_eq!(limited_face_value(3.0, 9.0, None), 3.0);
    }

    #[test]
    fn zero_flux_zero_change() {
        let mesh = generate_rect(&RectSpec::unit_square(3), |_| 0).unwrap();
        let rho = vec![1.0; 9];
        let ein = vec![2.0; 9];
        let u = vec![Vec2::ZERO; 9];
        let (d_mass, d_energy, _) = fluxes(&mesh, &mesh.nodes, &rho, &ein, &u);
        assert!(d_mass.iter().all(|&m| m == 0.0));
        assert!(d_energy.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn conservation_by_antisymmetry() {
        let mesh = generate_rect(&RectSpec::unit_square(4), |_| 0).unwrap();
        let rho: Vec<f64> = (0..16).map(|e| 1.0 + 0.1 * e as f64).collect();
        let ein: Vec<f64> = (0..16).map(|e| 2.0 - 0.05 * e as f64).collect();
        let u: Vec<Vec2> = (0..16).map(|e| Vec2::new(e as f64, -1.0)).collect();
        // Arbitrary antisymmetric swept volumes: from a node displacement.
        let target: Vec<Vec2> = mesh
            .nodes
            .iter()
            .enumerate()
            .map(|(n, &p)| {
                let bc = mesh.node_bc[n];
                let d = Vec2::new(
                    if bc.fix_x {
                        0.0
                    } else {
                        0.01 * (n as f64).sin()
                    },
                    if bc.fix_y {
                        0.0
                    } else {
                        0.01 * (n as f64).cos()
                    },
                );
                p + d
            })
            .collect();
        let (d_mass, d_energy, d_mom) = fluxes(&mesh, &target, &rho, &ein, &u);
        let total_dm: f64 = d_mass.iter().sum();
        let total_de: f64 = d_energy.iter().sum();
        let total_dp: Vec2 = d_mom.iter().copied().sum();
        assert!(total_dm.abs() < 1e-13, "mass created: {total_dm}");
        assert!(total_de.abs() < 1e-13, "energy created: {total_de}");
        assert!(total_dp.norm() < 1e-12, "momentum created: {total_dp:?}");
    }

    #[test]
    fn uniform_field_advects_exactly() {
        // With uniform rho, the mass leaving = rho * net volume leaving.
        let mesh = generate_rect(&RectSpec::unit_square(3), |_| 0).unwrap();
        let rho = vec![2.0; 9];
        let ein = vec![1.0; 9];
        let u = vec![Vec2::ZERO; 9];
        let target: Vec<Vec2> = mesh
            .nodes
            .iter()
            .enumerate()
            .map(|(n, &p)| {
                let bc = mesh.node_bc[n];
                let d = Vec2::new(
                    if bc.fix_x { 0.0 } else { 0.02 },
                    if bc.fix_y { 0.0 } else { -0.015 },
                );
                p + d
            })
            .collect();
        let fvol = face_flux_volumes(&mesh, &target);
        let (d_mass, _, _) = fluxes(&mesh, &target, &rho, &ein, &u);
        for e in 0..9 {
            let net_v: f64 = fvol[e].iter().sum();
            assert!(approx_eq(d_mass[e], 2.0 * net_v, 1e-12));
        }
    }
}
