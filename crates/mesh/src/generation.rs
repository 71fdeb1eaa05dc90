//! Deck-driven mesh generation.
//!
//! BookLeaf's four standard test problems all run on logically rectangular
//! meshes that are *stored and processed as unstructured* (the code never
//! exploits the (i,j) structure). This module generates those meshes:
//! a rectangular region meshed `nx × ny`, reflective walls on all four
//! sides, an arbitrary region-id function for multi-material decks (Sod's
//! two gases), and the Saltzmann distortion for the piston problem.

use bookleaf_util::{DeckError, Result, Vec2};

use crate::topology::{Mesh, NodeBc, Topology};

/// Specification of a rectangular mesh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RectSpec {
    /// Elements in x.
    pub nx: usize,
    /// Elements in y.
    pub ny: usize,
    /// Domain lower-left corner.
    pub origin: Vec2,
    /// Domain upper-right corner.
    pub extent: Vec2,
}

impl RectSpec {
    /// A unit-square mesh `n × n`.
    #[must_use]
    pub fn unit_square(n: usize) -> Self {
        RectSpec {
            nx: n,
            ny: n,
            origin: Vec2::ZERO,
            extent: Vec2::new(1.0, 1.0),
        }
    }

    /// Mesh spacing in x and y.
    #[must_use]
    pub fn spacing(&self) -> Vec2 {
        Vec2::new(
            (self.extent.x - self.origin.x) / self.nx as f64,
            (self.extent.y - self.origin.y) / self.ny as f64,
        )
    }
}

/// Generate a rectangular mesh.
///
/// Nodes are numbered row-major (`j * (nx+1) + i`), elements likewise
/// (`j * nx + i`) with counter-clockwise corner order (bottom-left,
/// bottom-right, top-right, top-left). All four walls are reflective:
/// nodes on `x = const` walls get `fix_x`, on `y = const` walls `fix_y`,
/// corners both. `region_of` assigns a region (material) id from each
/// element's centroid.
pub fn generate_rect(spec: &RectSpec, region_of: impl Fn(Vec2) -> u32) -> Result<Mesh> {
    let (nodes, topology) = rect_parts(spec, region_of)?;
    Mesh::new(nodes, topology)
}

/// [`generate_rect`] before [`Mesh::new`] shares the topology: the node
/// positions, and a topology whose regions and boundary conditions the
/// caller may still paint.
pub fn rect_parts(
    spec: &RectSpec,
    region_of: impl Fn(Vec2) -> u32,
) -> Result<(Vec<Vec2>, Topology)> {
    let config = |message: &str| DeckError::Config {
        message: message.into(),
    };
    if spec.nx == 0 || spec.ny == 0 {
        return Err(config("mesh must have nx, ny >= 1").into());
    }
    if spec.extent.x <= spec.origin.x || spec.extent.y <= spec.origin.y {
        return Err(config("mesh extent must exceed origin").into());
    }
    let (nx, ny) = (spec.nx, spec.ny);
    let d = spec.spacing();

    let mut nodes = Vec::with_capacity((nx + 1) * (ny + 1));
    let mut node_bc = Vec::with_capacity((nx + 1) * (ny + 1));
    for j in 0..=ny {
        for i in 0..=nx {
            nodes.push(Vec2::new(
                spec.origin.x + i as f64 * d.x,
                spec.origin.y + j as f64 * d.y,
            ));
            let mut bc = NodeBc::FREE;
            if i == 0 || i == nx {
                bc = bc.merge(NodeBc::WALL_X);
            }
            if j == 0 || j == ny {
                bc = bc.merge(NodeBc::WALL_Y);
            }
            node_bc.push(bc);
        }
    }

    let nid = |i: usize, j: usize| (j * (nx + 1) + i) as u32;
    let mut elnd = Vec::with_capacity(nx * ny);
    let mut region = Vec::with_capacity(nx * ny);
    for j in 0..ny {
        for i in 0..nx {
            elnd.push([nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)]);
            let centroid = Vec2::new(
                spec.origin.x + (i as f64 + 0.5) * d.x,
                spec.origin.y + (j as f64 + 0.5) * d.y,
            );
            region.push(region_of(centroid));
        }
    }

    Ok((nodes, Topology::from_raw(elnd, node_bc, region)?))
}

/// Apply the Saltzmann distortion in place.
///
/// The Saltzmann piston problem runs on a deliberately skewed mesh to
/// exacerbate hourglass modes (Dukowicz & Meltz 1992). The canonical
/// distortion on a domain `[x0,x1] × [y0,y1]` shifts each node in x by
/// `(y1 − y) · sin(π (x − x0)/(x1 − x0))`, i.e. the bottom wall is most
/// distorted and the top wall undisturbed. Node y coordinates and the
/// domain boundary extents are preserved, so boundary conditions remain
/// valid.
pub fn saltzmann_distort(mesh: &mut Mesh, origin: Vec2, extent: Vec2) {
    let lx = extent.x - origin.x;
    for p in &mut mesh.nodes {
        let s = (p.x - origin.x) / lx;
        // Keep the left/right walls fixed: sin(0) = sin(pi) = 0.
        p.x += (extent.y - p.y) * (std::f64::consts::PI * s).sin();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::quad_area;
    use crate::topology::Neighbor;
    use bookleaf_util::approx_eq;

    #[test]
    fn counts_match_spec() {
        let m = generate_rect(&RectSpec::unit_square(4), |_| 0).unwrap();
        assert_eq!(m.n_elements(), 16);
        assert_eq!(m.n_nodes(), 25);
        assert_eq!(m.n_boundary_faces(), 16);
        assert_eq!(m.n_interior_faces(), 24);
    }

    #[test]
    fn all_elements_unit_area_over_n2() {
        let m = generate_rect(&RectSpec::unit_square(5), |_| 0).unwrap();
        for e in 0..m.n_elements() {
            assert!(approx_eq(quad_area(&m.corners(e)), 1.0 / 25.0, 1e-14));
        }
    }

    #[test]
    fn interior_nodes_have_valence_four() {
        let m = generate_rect(&RectSpec::unit_square(3), |_| 0).unwrap();
        // Node (1,1) = id 5 is interior.
        assert_eq!(m.elements_of_node(5).len(), 4);
    }

    #[test]
    fn boundary_conditions_tagged() {
        let m = generate_rect(&RectSpec::unit_square(2), |_| 0).unwrap();
        // Corner node 0 fixed in both.
        assert_eq!(m.node_bc[0], NodeBc::CORNER);
        // Mid-bottom node 1 fixed in y only.
        assert_eq!(m.node_bc[1], NodeBc::WALL_Y);
        // Mid-left node 3 fixed in x only.
        assert_eq!(m.node_bc[3], NodeBc::WALL_X);
        // Interior node 4 free.
        assert_eq!(m.node_bc[4], NodeBc::FREE);
    }

    #[test]
    fn region_function_splits_materials() {
        // Sod-style: left half region 0, right half region 1.
        let m = generate_rect(&RectSpec::unit_square(4), |c| u32::from(c.x > 0.5)).unwrap();
        let left: u32 = m.region.iter().filter(|&&r| r == 0).count() as u32;
        let right: u32 = m.region.iter().filter(|&&r| r == 1).count() as u32;
        assert_eq!(left, 8);
        assert_eq!(right, 8);
    }

    #[test]
    fn neighbor_structure_of_grid() {
        let m = generate_rect(&RectSpec::unit_square(3), |_| 0).unwrap();
        // Element 4 is the centre: all four faces interior.
        assert!(m
            .neighbors(4)
            .iter()
            .all(|nb| matches!(nb, Neighbor::Element(_))));
        // Element 0 is the corner: faces 0 (bottom) and 3 (left) boundary.
        use Neighbor::{Boundary, Element};
        assert_eq!(m.neighbors(0), [Boundary, Element(1), Element(3), Boundary]);
    }

    #[test]
    fn zero_size_rejected() {
        assert!(generate_rect(
            &RectSpec {
                nx: 0,
                ny: 2,
                origin: Vec2::ZERO,
                extent: Vec2::new(1.0, 1.0)
            },
            |_| 0
        )
        .is_err());
    }

    #[test]
    fn inverted_extent_rejected() {
        assert!(generate_rect(
            &RectSpec {
                nx: 2,
                ny: 2,
                origin: Vec2::new(1.0, 0.0),
                extent: Vec2::new(0.0, 1.0)
            },
            |_| 0
        )
        .is_err());
    }

    #[test]
    fn saltzmann_mesh_stays_untangled_and_valid() {
        let origin = Vec2::ZERO;
        let extent = Vec2::new(1.0, 0.1);
        let spec = RectSpec {
            nx: 100,
            ny: 10,
            origin,
            extent,
        };
        let mut m = generate_rect(&spec, |_| 0).unwrap();
        saltzmann_distort(&mut m, origin, extent);
        m.validate().unwrap();
        for e in 0..m.n_elements() {
            assert!(quad_area(&m.corners(e)) > 0.0);
        }
    }

    #[test]
    fn saltzmann_preserves_walls() {
        let origin = Vec2::ZERO;
        let extent = Vec2::new(1.0, 0.1);
        let spec = RectSpec {
            nx: 20,
            ny: 4,
            origin,
            extent,
        };
        let mut m = generate_rect(&spec, |_| 0).unwrap();
        let before = m.nodes.clone();
        saltzmann_distort(&mut m, origin, extent);
        for (n, (a, b)) in before.iter().zip(&m.nodes).enumerate() {
            // y never changes.
            assert_eq!(a.y, b.y, "node {n}");
            // Left and right walls keep their x.
            if a.x == 0.0 || (a.x - 1.0).abs() < 1e-14 {
                assert!(approx_eq(a.x, b.x, 1e-12), "wall node {n} moved");
            }
        }
        // Total area preserved (distortion is a shear within the domain)?
        // Not exactly, but every area must stay positive and the mesh valid.
        m.validate().unwrap();
    }

    #[test]
    fn saltzmann_distorts_interior() {
        let origin = Vec2::ZERO;
        let extent = Vec2::new(1.0, 0.1);
        let spec = RectSpec {
            nx: 10,
            ny: 2,
            origin,
            extent,
        };
        let mut m = generate_rect(&spec, |_| 0).unwrap();
        let before = m.nodes.clone();
        saltzmann_distort(&mut m, origin, extent);
        let moved = before.iter().zip(&m.nodes).filter(|(a, b)| a != b).count();
        assert!(moved > 0, "distortion must move interior nodes");
    }
}
