//! `alegetmesh`: choose the target mesh for the remap.
//!
//! Two strategies, matching BookLeaf's bounding cases plus its relaxation
//! option:
//!
//! * **Eulerian** — the target is the original (reference) mesh: node
//!   positions snap back every remap, making the overall scheme Eulerian.
//! * **Smooth** — weighted Laplacian (Winslow-flavoured) relaxation: each
//!   interior node moves a fraction `alpha` of the way towards the
//!   average of its topological neighbours. Wall nodes slide along their
//!   wall (the fixed coordinate is preserved), corners stay put.
//!
//! The displacement per remap is what `alegetfvol` turns into face fluxes,
//! so the target must stay close enough to the donor mesh for the swept
//! volumes to remain small; `Smooth`'s `alpha` and the Eulerian step-wise
//! application both guarantee that in practice.

use bookleaf_mesh::Mesh;
use bookleaf_util::Vec2;

/// Remap target-mesh strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AleMode {
    /// Snap back to the reference mesh (Eulerian frame).
    Eulerian,
    /// Laplacian relaxation by factor `alpha` in (0, 1].
    Smooth {
        /// Fraction of the way towards the neighbour average.
        alpha: f64,
    },
}

/// Target node positions for the whole local mesh.
///
/// `x_ref` is the reference (initial) mesh and *is* the
/// [`AleMode::Eulerian`] target, returned as it stands; a relaxed
/// target is computed into `buf` (resized to fit, so a reused buffer
/// costs no allocation). Boundary constraints come from `mesh.node_bc`
/// (fixed coordinates do not move).
#[must_use]
pub fn target_positions<'a>(
    mesh: &Mesh,
    x_ref: &'a [Vec2],
    mode: AleMode,
    buf: &'a mut Vec<Vec2>,
) -> &'a [Vec2] {
    match mode {
        // Walls are identical in the reference mesh, so constraints
        // hold by construction.
        AleMode::Eulerian => x_ref,
        AleMode::Smooth { alpha } => {
            buf.clear();
            buf.extend_from_slice(&mesh.nodes);
            // Neighbour average via the elements around each node: use
            // all corner nodes of adjacent elements except the node
            // itself (the "star" of the node).
            for n in 0..mesh.n_nodes() {
                let bc = mesh.node_bc[n];
                if bc.fix_x && bc.fix_y {
                    continue;
                }
                let mut sum = Vec2::ZERO;
                let mut count = 0.0;
                for &(e, _) in mesh.elements_of_node(n) {
                    for &m in &mesh.elnd[e as usize] {
                        if m as usize != n {
                            sum += mesh.nodes[m as usize];
                            count += 1.0;
                        }
                    }
                }
                if count == 0.0 {
                    continue;
                }
                let avg = sum / count;
                let x0 = mesh.nodes[n];
                let mut t = x0 + (avg - x0) * alpha;
                if bc.fix_x {
                    t.x = x0.x;
                }
                if bc.fix_y {
                    t.y = x0.y;
                }
                buf[n] = t;
            }
            buf
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_mesh::{generate_rect, saltzmann_distort, RectSpec};
    use bookleaf_util::approx_eq;

    #[test]
    fn eulerian_returns_reference() {
        let mut mesh = generate_rect(&RectSpec::unit_square(4), |_| 0).unwrap();
        let x_ref = mesh.nodes.clone();
        // Perturb interior.
        mesh.nodes[6] += Vec2::new(0.01, -0.01);
        let mut buf = Vec::new();
        let t = target_positions(&mesh, &x_ref, AleMode::Eulerian, &mut buf);
        assert_eq!(t, x_ref);
    }

    #[test]
    fn smooth_pulls_displaced_node_back() {
        let mut mesh = generate_rect(&RectSpec::unit_square(4), |_| 0).unwrap();
        let x0 = mesh.nodes.clone();
        let n = 6; // interior node
        mesh.nodes[n] += Vec2::new(0.05, 0.05);
        let mut buf = Vec::new();
        let t = target_positions(&mesh, &x0, AleMode::Smooth { alpha: 0.5 }, &mut buf);
        // Must move back towards the regular position.
        let before = mesh.nodes[n].distance(x0[n]);
        let after = t[n].distance(x0[n]);
        assert!(
            after < before,
            "smoothing must reduce displacement: {after} vs {before}"
        );
    }

    #[test]
    fn smooth_keeps_walls_on_walls() {
        let origin = Vec2::ZERO;
        let extent = Vec2::new(1.0, 0.1);
        let mut mesh = generate_rect(
            &RectSpec {
                nx: 20,
                ny: 4,
                origin,
                extent,
            },
            |_| 0,
        )
        .unwrap();
        saltzmann_distort(&mut mesh, origin, extent);
        let mut buf = Vec::new();
        let t = target_positions(&mesh, &[], AleMode::Smooth { alpha: 1.0 }, &mut buf);
        for n in 0..mesh.n_nodes() {
            let bc = mesh.node_bc[n];
            if bc.fix_x {
                assert!(approx_eq(t[n].x, mesh.nodes[n].x, 1e-14), "x wall slid");
            }
            if bc.fix_y {
                assert!(approx_eq(t[n].y, mesh.nodes[n].y, 1e-14), "y wall slid");
            }
        }
    }

    #[test]
    fn smooth_on_uniform_mesh_is_fixed_point() {
        let mesh = generate_rect(&RectSpec::unit_square(5), |_| 0).unwrap();
        let mut buf = Vec::new();
        let t = target_positions(&mesh, &[], AleMode::Smooth { alpha: 1.0 }, &mut buf);
        for n in 0..mesh.n_nodes() {
            // Interior nodes of a uniform grid sit exactly at their
            // star average (the 8-node stencil is symmetric).
            if mesh.node_bc[n] == bookleaf_mesh::NodeBc::FREE {
                assert!(approx_eq(t[n].x, mesh.nodes[n].x, 1e-13));
                assert!(approx_eq(t[n].y, mesh.nodes[n].y, 1e-13));
            }
        }
    }
}
