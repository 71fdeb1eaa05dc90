//! `alegetfvol`: the swept volume of a face — one expression,
//! evaluated by the flux pass ([`crate::advect`]) where it is used.
//!
//! When the mesh moves from the Lagrangian (donor) positions to the
//! target positions, each face sweeps out a quadrilateral. Its signed
//! area is the volume exchanged between the face's two elements: positive
//! means volume leaves the element whose face it is (flow *out* across
//! the face, in the face's outward orientation).
//!
//! For face `f` of element `e` joining corners `a → b`, the swept quad is
//! `(a_old, b_old, b_new, a_new)`; its shoelace area is positive when the
//! face moves outward (the element grows), so the *flux out of `e`* is
//! the negative... — sign conventions are easy to get wrong, so this
//! module pins them with tests: a positive swept volume ⇔ element `e`
//! *loses* volume through face `f` (the face moved inward).

use bookleaf_mesh::geometry::quad_area;
use bookleaf_util::Vec2;

/// The volume leaving element `e`, of corners `nd`, through its face `f`
/// as the nodes move from `x` to `target` (negative = volume entering);
/// `nb` is what lies across the face, as
/// [`bookleaf_mesh::Topology::face_stencil`] packs it.
///
/// **Bitwise** antisymmetric across interior faces: a face has one
/// canonical orientation — its lower-id element's, which is also a
/// boundary face's only one — and both sides evaluate the shoelace
/// formula on that very corner sequence, the higher-id side negating
/// the result. (Evaluating it from each side in its own orientation
/// agrees only to round-off; the advection step's exact conservation
/// rests on the bitwise guarantee.) Adjacent elements both list their
/// nodes counter-clockwise, so they walk a shared face in opposite
/// directions: seen from `e`, the neighbour's `a → b` is `b → a`.
#[inline]
#[must_use]
pub fn face_swept_volume(
    x: &[Vec2],
    target: &[Vec2],
    nd: [u32; 4],
    e: usize,
    f: usize,
    nb: u32,
) -> f64 {
    let (a, b) = (nd[f] as usize, nd[(f + 1) % 4] as usize);
    if e < nb as usize {
        // Swept quad (a_old, b_old, b_new, a_new): for a CCW element
        // this winds CCW (positive area) exactly when the face moves
        // *inward* — the element shrinks and volume leaves through
        // the face — which is the positive-out convention we want.
        quad_area(&[x[a], x[b], target[b], target[a]])
    } else {
        -quad_area(&[x[b], x[a], target[a], target[b]])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bookleaf_mesh::{generate_rect, Mesh, Neighbor, RectSpec};
    use bookleaf_util::approx_eq;

    /// Every face's swept volume as a table: `fvol[e][f]`.
    pub(crate) fn face_flux_volumes(mesh: &Mesh, target: &[Vec2]) -> Vec<[f64; 4]> {
        let (x, stencil) = (&mesh.nodes, mesh.face_stencil());
        (0..mesh.n_elements())
            .map(|e| {
                let nd = mesh.elnd[e];
                std::array::from_fn(|f| face_swept_volume(x, target, nd, e, f, stencil[e][f]))
            })
            .collect()
    }

    /// Sum of an element's four face fluxes = the volume it loses.
    fn net_volume_loss(fvol: &[[f64; 4]], e: usize) -> f64 {
        fvol[e].iter().sum()
    }

    /// The table as it used to be built: every interior face evaluated
    /// once, from its lower-id element, then mirrored with a sign flip
    /// onto the matching face of the other side.
    fn mirrored_table(mesh: &Mesh, target: &[Vec2]) -> Vec<[f64; 4]> {
        let mut fvol = vec![[0.0; 4]; mesh.n_elements()];
        for e in 0..mesh.n_elements() {
            for f in 0..4 {
                if !matches!(mesh.neighbors(e)[f], Neighbor::Element(nb) if (nb as usize) < e) {
                    let a = mesh.elnd[e][f] as usize;
                    let b = mesh.elnd[e][(f + 1) % 4] as usize;
                    fvol[e][f] = quad_area(&[mesh.nodes[a], mesh.nodes[b], target[b], target[a]]);
                }
            }
        }
        for e in 0..mesh.n_elements() {
            for f in 0..4 {
                if let Neighbor::Element(nb) = mesh.neighbors(e)[f] {
                    if (nb as usize) < e {
                        let back = mesh.face_towards(nb as usize, e).unwrap();
                        fvol[e][f] = -fvol[nb as usize][back];
                    }
                }
            }
        }
        fvol
    }

    #[test]
    fn each_face_on_the_spot_is_bitwise_the_mirrored_table() {
        // A rectangle and a skewed, non-square one, nodes displaced
        // everywhere (walls included: boundary faces sweep volume too).
        for (nx, ny) in [(7, 5), (3, 9)] {
            let mut mesh = generate_rect(
                &RectSpec {
                    nx,
                    ny,
                    origin: Vec2::ZERO,
                    extent: Vec2::new(1.3, 0.7),
                },
                |_| 0,
            )
            .unwrap();
            for (n, p) in mesh.nodes.iter_mut().enumerate() {
                *p += Vec2::new(
                    0.01 * (n as f64 * 0.7).sin(),
                    0.008 * (n as f64 * 1.3).cos(),
                );
            }
            let target: Vec<Vec2> = mesh
                .nodes
                .iter()
                .enumerate()
                .map(|(n, &p)| p + Vec2::new(0.013 * (n as f64).sin(), 0.011 * (n as f64).cos()))
                .collect();
            let table = face_flux_volumes(&mesh, &target);
            let oracle = mirrored_table(&mesh, &target);
            for (e, (row, want)) in table.iter().zip(&oracle).enumerate() {
                for f in 0..4 {
                    assert_eq!(row[f].to_bits(), want[f].to_bits(), "element {e} face {f}");
                }
            }
        }
    }

    #[test]
    fn stationary_mesh_zero_flux() {
        let mesh = generate_rect(&RectSpec::unit_square(3), |_| 0).unwrap();
        let fvol = face_flux_volumes(&mesh, &mesh.nodes);
        assert!(fvol.iter().flatten().all(|&v| v == 0.0));
    }

    #[test]
    fn antisymmetric_across_interior_faces() {
        let mesh = generate_rect(&RectSpec::unit_square(4), |_| 0).unwrap();
        // Random-ish interior displacement.
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
                        0.02 * (n as f64).sin()
                    },
                    if bc.fix_y {
                        0.0
                    } else {
                        0.02 * (n as f64 * 1.7).cos()
                    },
                );
                p + d
            })
            .collect();
        let fvol = face_flux_volumes(&mesh, &target);
        for e in 0..mesh.n_elements() {
            for f in 0..4 {
                if let Neighbor::Element(e2) = mesh.neighbors(e)[f] {
                    // Find the matching face on the neighbour.
                    let f2 = (0..4)
                        .find(|&g| mesh.neighbors(e2 as usize)[g] == Neighbor::Element(e as u32))
                        .unwrap();
                    assert!(
                        approx_eq(fvol[e][f], -fvol[e2 as usize][f2], 1e-13),
                        "faces not antisymmetric: {} vs {}",
                        fvol[e][f],
                        fvol[e2 as usize][f2]
                    );
                }
            }
        }
    }

    #[test]
    fn net_flux_equals_volume_change() {
        let mesh = generate_rect(&RectSpec::unit_square(4), |_| 0).unwrap();
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
                        0.03 * ((n * 3) as f64).sin()
                    },
                    if bc.fix_y {
                        0.0
                    } else {
                        0.03 * ((n * 5) as f64).cos()
                    },
                );
                p + d
            })
            .collect();
        let fvol = face_flux_volumes(&mesh, &target);
        for e in 0..mesh.n_elements() {
            let v_old = quad_area(&mesh.corners(e));
            let c = mesh.elnd[e];
            let v_new = quad_area(&[
                target[c[0] as usize],
                target[c[1] as usize],
                target[c[2] as usize],
                target[c[3] as usize],
            ]);
            assert!(
                approx_eq(net_volume_loss(&fvol, e), v_old - v_new, 1e-12),
                "element {e}: net {} vs dV {}",
                net_volume_loss(&fvol, e),
                v_old - v_new
            );
        }
    }

    #[test]
    fn sign_convention_inward_motion_is_outflux() {
        // Single element; move the whole right edge inward (left).
        let mesh = generate_rect(&RectSpec::unit_square(1), |_| 0).unwrap();
        let mut target = mesh.nodes.clone();
        // Nodes 1 (1,0) and 3 (1,1) move to x = 0.8.
        target[1].x = 0.8;
        target[3].x = 0.8;
        let fvol = face_flux_volumes(&mesh, &target);
        // Face 1 is the right edge: element shrinks, volume leaves => +0.2.
        assert!(approx_eq(fvol[0][1], 0.2, 1e-13), "fvol = {}", fvol[0][1]);
        // Other faces: nodes a/b displaced only along the face or not at
        // all; bottom and top faces sweep small triangles.
        assert!(approx_eq(fvol[0][3], 0.0, 1e-13));
    }

    #[test]
    fn wall_constrained_motion_has_zero_boundary_flux() {
        // Nodes sliding *along* walls sweep zero volume through them.
        let mesh = generate_rect(&RectSpec::unit_square(3), |_| 0).unwrap();
        let target: Vec<Vec2> = mesh
            .nodes
            .iter()
            .enumerate()
            .map(|(n, &p)| {
                let bc = mesh.node_bc[n];
                let mut t = p + Vec2::new(0.01, 0.013);
                if bc.fix_x {
                    t.x = p.x;
                }
                if bc.fix_y {
                    t.y = p.y;
                }
                t
            })
            .collect();
        let fvol = face_flux_volumes(&mesh, &target);
        for e in 0..mesh.n_elements() {
            for f in 0..4 {
                if mesh.neighbors(e)[f] == Neighbor::Boundary {
                    assert!(
                        fvol[e][f].abs() < 1e-13,
                        "boundary face leaked volume: {}",
                        fvol[e][f]
                    );
                }
            }
        }
    }

    #[test]
    fn antisymmetry_is_bitwise() {
        let mesh = generate_rect(&RectSpec::unit_square(6), |_| 0).unwrap();
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
                        0.015 * ((n * 7) as f64).sin()
                    },
                    if bc.fix_y {
                        0.0
                    } else {
                        0.015 * ((n * 5) as f64).cos()
                    },
                );
                p + d
            })
            .collect();
        let fvol = face_flux_volumes(&mesh, &target);
        for e in 0..mesh.n_elements() {
            for f in 0..4 {
                if let Neighbor::Element(e2) = mesh.neighbors(e)[f] {
                    let f2 = (0..4)
                        .find(|&g| mesh.neighbors(e2 as usize)[g] == Neighbor::Element(e as u32))
                        .unwrap();
                    // Exact, not approximate: one corner sequence per face.
                    assert_eq!(fvol[e][f], -fvol[e2 as usize][f2]);
                }
            }
        }
    }
}
