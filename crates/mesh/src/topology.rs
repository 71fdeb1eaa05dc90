//! Mesh storage and connectivity invariants.
//!
//! A [`Mesh`] is an immutable, shared [`Topology`] — connectivity,
//! boundary conditions, regions — plus the node positions its owner
//! moves: cloning a mesh copies the nodes and a pointer.
//!
//! Storage conventions (mirroring the BookLeaf reference arrays):
//!
//! * `elnd[e] = [n0, n1, n2, n3]` — the four nodes of element `e`, listed
//!   counter-clockwise (positive shoelace area).
//! * Face `f` of element `e` joins corner `f` and corner `(f+1) % 4`.
//! * `face_stencil()[e][f]` — the element across face `f`, or
//!   [`STENCIL_BOUNDARY`] for a face on the boundary: one packed `u32`
//!   per face, the table the kernels stream. [`Topology::neighbors`]
//!   reads a row as typed [`Neighbor`]s.
//! * Node→element adjacency is CSR: for node `n`, the corners it
//!   occupies are `ndel[ndel_off[n]..ndel_off[n+1]]`, each one `u32`
//!   *flat corner id* `4e + c` — corner `c` of element `e`, which is also
//!   the corner's index in any `[f64; 4]` row field viewed
//!   `as_flattened()` ([`split_corner`] takes it apart). Valence is
//!   arbitrary — this is what makes the mesh *unstructured*.

use std::ops::Deref;
use std::sync::Arc;

use bookleaf_util::{BookLeafError, Result, Vec2};

use crate::NCORN;

/// Sentinel in [`Topology::face_stencil`] rows marking a boundary face.
pub const STENCIL_BOUNDARY: u32 = u32::MAX;

/// CSR node→element adjacency: offsets, then flat corner ids.
type NodeAdjacency = (Vec<u32>, Vec<u32>);

/// The most elements a mesh may have: every flat corner id `4e + c`, and
/// the corner count `4 · n_elements` that ends the CSR offsets, must fit
/// a `u32`.
const MAX_ELEMENTS: usize = (u32::MAX / NCORN as u32) as usize;

/// The element and the corner within it that a flat corner id `4e + c`
/// of [`Topology::elements_of_node`] names.
#[inline(always)]
#[must_use]
pub fn split_corner(id: u32) -> (usize, usize) {
    (id as usize / NCORN, id as usize % NCORN)
}

/// What lies across a face of an element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Neighbor {
    /// Interior face shared with another element (global element id).
    Element(u32),
    /// Face on the physical boundary.
    Boundary,
}

/// Kinematic boundary condition applied to a node.
///
/// BookLeaf's walls are reflective: the velocity component normal to the
/// wall is pinned to zero (or to a prescribed wall velocity for the
/// Saltzmann piston, handled by the driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeBc {
    /// Zero the x velocity component (node on an x = const wall).
    pub fix_x: bool,
    /// Zero the y velocity component (node on a y = const wall).
    pub fix_y: bool,
}

impl NodeBc {
    /// Free interior node.
    pub const FREE: NodeBc = NodeBc {
        fix_x: false,
        fix_y: false,
    };
    /// Node on a vertical wall.
    pub const WALL_X: NodeBc = NodeBc {
        fix_x: true,
        fix_y: false,
    };
    /// Node on a horizontal wall.
    pub const WALL_Y: NodeBc = NodeBc {
        fix_x: false,
        fix_y: true,
    };
    /// Corner node fixed in both directions.
    pub const CORNER: NodeBc = NodeBc {
        fix_x: true,
        fix_y: true,
    };

    /// Combine two conditions (a node on two walls is fixed in both).
    #[must_use]
    pub fn merge(self, other: NodeBc) -> NodeBc {
        NodeBc {
            fix_x: self.fix_x || other.fix_x,
            fix_y: self.fix_y || other.fix_y,
        }
    }

    /// Apply to a velocity, zeroing fixed components.
    #[must_use]
    pub fn apply(self, v: Vec2) -> Vec2 {
        Vec2::new(
            if self.fix_x { 0.0 } else { v.x },
            if self.fix_y { 0.0 } else { v.y },
        )
    }
}

/// The fixed part of a mesh: everything but the node positions. An
/// owned `Topology` may still be painted (a deck sets regions and
/// boundary conditions); [`Mesh::new`] moves it behind an [`Arc`], and
/// from then on nothing can write it, so its face table and `elnd`
/// cannot disagree.
#[derive(Debug, PartialEq)]
pub struct Topology {
    /// Element → node connectivity, counter-clockwise.
    pub elnd: Vec<[u32; NCORN]>,
    /// Element → element across each face ([`STENCIL_BOUNDARY`] on the
    /// boundary); read through [`Topology::face_stencil`].
    pub(crate) stencil: Vec<[u32; NCORN]>,
    /// CSR offsets for node→element adjacency (length `nnodes + 1`).
    pub ndel_off: Vec<u32>,
    /// CSR items: the flat corner id `4e + c` of each corner the node
    /// occupies, in ascending element order — of the global mesh's ids,
    /// in a sub-mesh — which is the order every nodal sum runs in.
    pub ndel: Vec<u32>,
    /// Kinematic boundary condition per node.
    pub node_bc: Vec<NodeBc>,
    /// Region (material) id per element.
    pub region: Vec<u32>,
}

impl Topology {
    /// Derive face and node adjacency from `elnd` and validate every
    /// invariant. The node count is `node_bc.len()`.
    pub fn from_raw(
        elnd: Vec<[u32; NCORN]>,
        node_bc: Vec<NodeBc>,
        region: Vec<u32>,
    ) -> Result<Topology> {
        if region.len() != elnd.len() {
            return Err(BookLeafError::MeshTopology(format!(
                "region length {} != element count {}",
                region.len(),
                elnd.len()
            )));
        }
        let (ndel_off, ndel) = build_ndel(node_bc.len(), &elnd)?;
        let stencil = build_stencil(&elnd, &ndel_off, &ndel)?;
        let topology = Topology {
            elnd,
            stencil,
            ndel_off,
            ndel,
            node_bc,
            region,
        };
        topology.validate()?;
        Ok(topology)
    }

    /// Number of elements.
    #[inline]
    #[must_use]
    pub fn n_elements(&self) -> usize {
        self.elnd.len()
    }

    /// The corners node `n` occupies, as flat corner ids `4e + c` in
    /// the [`Topology::ndel`] order: index a row field `as_flattened()`
    /// with one directly, or take it apart with [`split_corner`].
    #[inline]
    #[must_use]
    pub fn elements_of_node(&self, n: usize) -> &[u32] {
        &self.ndel[self.ndel_off[n] as usize..self.ndel_off[n + 1] as usize]
    }

    /// The face-neighbour table packed for stride-1 sweeps: row `e`
    /// holds the element across each face of `e`, with
    /// [`STENCIL_BOUNDARY`] marking boundary faces — a bare `u32` per
    /// face, so stencil-hungry inner loops (the artificial viscosity
    /// limiter, the remap's donor walk) stream it without matching on a
    /// tag.
    #[inline]
    #[must_use]
    pub fn face_stencil(&self) -> &[[u32; NCORN]] {
        &self.stencil
    }

    /// Row `e` of [`Topology::face_stencil`] as typed values.
    #[must_use]
    pub fn neighbors(&self, e: usize) -> [Neighbor; NCORN] {
        self.stencil[e].map(|en| match en {
            STENCIL_BOUNDARY => Neighbor::Boundary,
            en => Neighbor::Element(en),
        })
    }

    /// The face of `e` that joins it to neighbour `nb`, if the two
    /// elements share a face. The single source of the
    /// "find-the-matching-face" adjacency scan the ALE kernels need in
    /// several places.
    #[inline]
    #[must_use]
    pub fn face_towards(&self, e: usize, nb: usize) -> Option<usize> {
        self.stencil[e].iter().position(|&x| x as usize == nb)
    }

    /// The elements `ids` together with their face neighbours, ascending
    /// and unique — every element whose cell-centred data a face-stencil
    /// sweep over `ids` reads.
    #[must_use]
    pub fn with_face_neighbours(&self, ids: &[u32]) -> Vec<u32> {
        let mut cells = ids.to_vec();
        for &e in ids {
            let row = self.stencil[e as usize];
            cells.extend(row.into_iter().filter(|&en| en != STENCIL_BOUNDARY));
        }
        cells.sort_unstable();
        cells.dedup();
        cells
    }

    /// Check every connectivity invariant against `node_bc.len()` nodes.
    /// Cheap enough to run in tests and after partitioning; not called
    /// per time step.
    pub fn validate(&self) -> Result<()> {
        let n_nodes = self.node_bc.len();
        // Element node references in range.
        for (e, quad) in self.elnd.iter().enumerate() {
            for &n in quad {
                if n as usize >= n_nodes {
                    return Err(BookLeafError::MeshTopology(format!(
                        "element {e} references node {n} >= {n_nodes}"
                    )));
                }
            }
        }
        // Face adjacency is symmetric and consistent.
        for (e, row) in self.stencil.iter().enumerate() {
            for (f, &e2) in row.iter().enumerate() {
                if e2 == STENCIL_BOUNDARY {
                    continue;
                }
                if e2 as usize >= self.n_elements() {
                    return Err(BookLeafError::MeshTopology(format!(
                        "element {e} face {f} references element {e2} out of range"
                    )));
                }
                if !self.stencil[e2 as usize].contains(&(e as u32)) {
                    return Err(BookLeafError::MeshTopology(format!(
                        "face adjacency not symmetric between {e} and {e2}"
                    )));
                }
                // The two elements must share the face's node pair.
                let a = self.elnd[e][f];
                let b = self.elnd[e][(f + 1) % NCORN];
                let shares = |n: u32| self.elnd[e2 as usize].contains(&n);
                if !(shares(a) && shares(b)) {
                    return Err(BookLeafError::MeshTopology(format!(
                        "elements {e} and {e2} marked adjacent but do not share face nodes"
                    )));
                }
            }
        }
        // CSR consistency.
        if self.ndel_off.len() != n_nodes + 1 {
            return Err(BookLeafError::MeshTopology(
                "ndel_off length mismatch".into(),
            ));
        }
        if *self.ndel_off.last().unwrap() as usize != self.ndel.len() {
            return Err(BookLeafError::MeshTopology("ndel CSR tail mismatch".into()));
        }
        for n in 0..n_nodes {
            for &id in self.elements_of_node(n) {
                let (e, c) = split_corner(id);
                if self.elnd.get(e).is_none_or(|quad| quad[c] != n as u32) {
                    return Err(BookLeafError::MeshTopology(format!(
                        "ndel entry ({e},{c}) does not point back to node {n}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Total number of interior faces (each counted once).
    #[must_use]
    pub fn n_interior_faces(&self) -> usize {
        (self.stencil.len() * NCORN - self.n_boundary_faces()) / 2
    }

    /// Total number of boundary faces.
    #[must_use]
    pub fn n_boundary_faces(&self) -> usize {
        self.stencil
            .iter()
            .flatten()
            .filter(|&&en| en == STENCIL_BOUNDARY)
            .count()
    }
}

/// Refuse more than [`MAX_ELEMENTS`] elements.
fn check_element_count(elements: usize) -> Result<()> {
    if elements > MAX_ELEMENTS {
        return Err(BookLeafError::MeshTooLarge {
            elements,
            max: MAX_ELEMENTS,
        });
    }
    Ok(())
}

/// Check `elnd` (no more than [`MAX_ELEMENTS`], node ids in range, no
/// face joining a node to itself) and build the CSR node→element
/// adjacency from it. Each node's items come out ascending.
fn build_ndel(n_nodes: usize, elnd: &[[u32; NCORN]]) -> Result<NodeAdjacency> {
    check_element_count(elnd.len())?;
    for (e, quad) in elnd.iter().enumerate() {
        for f in 0..NCORN {
            let a = quad[f];
            let b = quad[(f + 1) % NCORN];
            if a as usize >= n_nodes || b as usize >= n_nodes {
                return Err(BookLeafError::MeshTopology(format!(
                    "element {e} references node out of range"
                )));
            }
            if a == b {
                return Err(BookLeafError::MeshTopology(format!(
                    "element {e} has a degenerate face {f} (repeated node {a})"
                )));
            }
        }
    }
    let mut counts = vec![0u32; n_nodes + 1];
    for quad in elnd {
        for &n in quad {
            counts[n as usize + 1] += 1;
        }
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let offsets = counts;
    let mut items = vec![0u32; *offsets.last().unwrap_or(&0) as usize];
    let mut cursor = offsets.clone();
    for (id, &n) in elnd.as_flattened().iter().enumerate() {
        let slot = cursor[n as usize] as usize;
        items[slot] = id as u32;
        cursor[n as usize] += 1;
    }
    Ok((offsets, items))
}

/// Derive the face table from `elnd` and the node→element CSR built
/// from it.
///
/// Face `f` of element `e` joins nodes `a = elnd[e][f]` and
/// `b = elnd[e][(f+1)%4]`; the element across it is the other element
/// around `a` that holds `b` at a corner next to `a`'s — a handful of
/// compares per face, no hashing. A face more than two elements share
/// is a topology error.
fn build_stencil(
    elnd: &[[u32; NCORN]],
    ndel_off: &[u32],
    ndel: &[u32],
) -> Result<Vec<[u32; NCORN]>> {
    let mut stencil = vec![[STENCIL_BOUNDARY; NCORN]; elnd.len()];
    for (e, (quad, faces)) in elnd.iter().zip(&mut stencil).enumerate() {
        for (f, across) in faces.iter_mut().enumerate() {
            let a = quad[f];
            let b = quad[(f + 1) % NCORN];
            let around_a = ndel_off[a as usize] as usize..ndel_off[a as usize + 1] as usize;
            for &id in &ndel[around_a] {
                let (e2, c2) = split_corner(id);
                let other = &elnd[e2];
                let shares_face =
                    other[(c2 + 1) % NCORN] == b || other[(c2 + NCORN - 1) % NCORN] == b;
                let e2 = e2 as u32;
                if e2 as usize == e || !shares_face || *across == e2 {
                    continue;
                }
                if *across != STENCIL_BOUNDARY {
                    return Err(BookLeafError::MeshTopology(format!(
                        "face {f} of element {e} (nodes {a}, {b}) is shared by more \
                         than two elements ({e}, {}, {e2})",
                        *across
                    )));
                }
                *across = e2;
            }
        }
    }
    Ok(stencil)
}

/// An unstructured 2-D quadrilateral mesh: a shared [`Topology`], which
/// it dereferences to (`mesh.elnd[e]`), and the node positions it owns.
/// `clone` copies the positions and shares the topology.
#[derive(Debug, Clone, PartialEq)]
pub struct Mesh {
    topology: Arc<Topology>,
    /// Node positions (Lagrangian: these move during the run).
    pub nodes: Vec<Vec2>,
}

impl Deref for Mesh {
    type Target = Topology;

    /// Always inlined: kernels read the topology through it per entity
    /// (`scripts/hot_loops.sh` holds the line).
    #[inline(always)]
    fn deref(&self) -> &Topology {
        &self.topology
    }
}

impl Mesh {
    /// A mesh of `nodes` on `topology`, which from here on is shared and
    /// read-only.
    pub fn new(nodes: Vec<Vec2>, topology: Topology) -> Result<Mesh> {
        check_node_count(&nodes, &topology.node_bc)?;
        Ok(Mesh {
            topology: Arc::new(topology),
            nodes,
        })
    }

    /// Construct a mesh from raw node + element arrays, deriving face and
    /// node adjacency and validating all invariants.
    pub fn from_raw(
        nodes: Vec<Vec2>,
        elnd: Vec<[u32; NCORN]>,
        node_bc: Vec<NodeBc>,
        region: Vec<u32>,
    ) -> Result<Mesh> {
        Mesh::new(nodes, Topology::from_raw(elnd, node_bc, region)?)
    }

    /// Number of nodes.
    #[inline]
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// True when `self` and `other` read one and the same topology (not
    /// merely equal ones).
    #[must_use]
    pub fn shares_topology(&self, other: &Mesh) -> bool {
        Arc::ptr_eq(&self.topology, &other.topology)
    }

    /// The four corner positions of element `e`, in CCW order.
    ///
    /// Always inlined: every geometry sweep calls it per element, and out
    /// of line its 64 bytes come back through memory
    /// (`scripts/hot_loops.sh` holds the line).
    #[inline(always)]
    #[must_use]
    pub fn corners(&self, e: usize) -> [Vec2; NCORN] {
        self.elnd[e].map(|n| self.nodes[n as usize])
    }

    /// Check every connectivity invariant, and that there is a position
    /// per node.
    pub fn validate(&self) -> Result<()> {
        check_node_count(&self.nodes, &self.node_bc)?;
        self.topology.validate()
    }
}

/// One boundary condition per node position.
fn check_node_count(nodes: &[Vec2], node_bc: &[NodeBc]) -> Result<()> {
    if node_bc.len() != nodes.len() {
        return Err(BookLeafError::MeshTopology(format!(
            "node_bc length {} != node count {}",
            node_bc.len(),
            nodes.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two unit quads side by side: nodes 0..5, elements 0 and 1.
    ///
    /// ```text
    /// 3---4---5
    /// | 0 | 1 |
    /// 0---1---2
    /// ```
    fn two_quads() -> Mesh {
        let nodes = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(2.0, 0.0),
            Vec2::new(0.0, 1.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(2.0, 1.0),
        ];
        let elnd = vec![[0, 1, 4, 3], [1, 2, 5, 4]];
        let bc = vec![NodeBc::FREE; 6];
        Mesh::from_raw(nodes, elnd, bc, vec![0, 0]).unwrap()
    }

    #[test]
    fn adjacency_across_shared_face() {
        let m = two_quads();
        // Element 0's right face (corner 1 -> corner 2: nodes 1,4) borders element 1.
        assert_eq!(m.neighbors(0)[1], Neighbor::Element(1));
        assert_eq!(m.neighbors(1)[3], Neighbor::Element(0));
        assert_eq!(m.n_interior_faces(), 1);
        assert_eq!(m.n_boundary_faces(), 6);
    }

    #[test]
    fn node_element_csr() {
        let m = two_quads();
        // Node 1 belongs to both elements.
        let adj = m.elements_of_node(1);
        assert_eq!(adj.len(), 2);
        // Node 4 too, at corners 2 (el 0) and 3 (el 1): flat ids
        // 4·0 + 2 and 4·1 + 3, in element order.
        assert_eq!(m.elements_of_node(4), [2, 7]);
        let corners: Vec<_> = m
            .elements_of_node(4)
            .iter()
            .map(|&id| split_corner(id))
            .collect();
        assert_eq!(corners, [(0, 2), (1, 3)]);
        // Corner nodes belong to exactly one element.
        assert_eq!(m.elements_of_node(0).len(), 1);
        assert_eq!(m.elements_of_node(2).len(), 1);
    }

    #[test]
    fn a_mesh_whose_corner_ids_overflow_a_u32_is_refused() {
        // 2^30 - 1 elements fit (the last corner id is u32::MAX, the
        // corner count 2^32 - 4); one more does not. `Topology::from_raw`
        // checks the count before it builds anything, so the check is
        // tested on the count alone: such a mesh's `elnd` is 16 GiB.
        assert_eq!(MAX_ELEMENTS, (1 << 30) - 1);
        assert_eq!(4 * MAX_ELEMENTS + 3, u32::MAX as usize);
        let too_many = MAX_ELEMENTS + 1;
        assert_eq!(
            check_element_count(too_many),
            Err(BookLeafError::MeshTooLarge {
                elements: too_many,
                max: MAX_ELEMENTS
            })
        );
        assert_eq!(check_element_count(MAX_ELEMENTS), Ok(()));
    }

    #[test]
    fn validate_accepts_good_mesh() {
        assert!(two_quads().validate().is_ok());
    }

    #[test]
    fn clone_shares_the_topology_and_copies_the_nodes() {
        let m = two_quads();
        let mut moved = m.clone();
        assert!(moved.shares_topology(&m));
        assert!(std::ptr::eq(moved.face_stencil(), m.face_stencil()));
        moved.nodes[4].x += 0.5;
        assert_eq!(m.nodes[4], Vec2::new(1.0, 1.0));
        // Equal topologies built apart are equal, not shared.
        let fresh = two_quads();
        assert_eq!(m, fresh);
        assert!(!fresh.shares_topology(&m));
    }

    /// `two_quads`' topology with face `f` of element `e` rewritten.
    fn with_face(e: usize, f: usize, across: u32) -> Topology {
        let mut t = Topology::from_raw(
            vec![[0, 1, 4, 3], [1, 2, 5, 4]],
            vec![NodeBc::FREE; 6],
            vec![0, 0],
        )
        .unwrap();
        t.stencil[e][f] = across;
        t
    }

    #[test]
    fn neighbour_out_of_range_rejected() {
        let err = with_face(0, 0, 7).validate().unwrap_err();
        assert!(matches!(err, BookLeafError::MeshTopology(_)));
        assert!(
            err.to_string()
                .contains("references element 7 out of range"),
            "{err}"
        );
    }

    #[test]
    fn asymmetric_neighbour_pair_rejected() {
        // Element 0 still names 1 across its right face; 1 forgets 0.
        let err = with_face(1, 3, STENCIL_BOUNDARY).validate().unwrap_err();
        assert!(matches!(err, BookLeafError::MeshTopology(_)));
        assert!(
            err.to_string().contains("not symmetric between 0 and 1"),
            "{err}"
        );
    }

    #[test]
    fn degenerate_face_rejected() {
        let nodes = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1.0),
        ];
        let elnd = vec![[0, 0, 1, 2]];
        let err = Mesh::from_raw(nodes, elnd, vec![NodeBc::FREE; 3], vec![0]).unwrap_err();
        assert!(matches!(err, BookLeafError::MeshTopology(_)));
    }

    #[test]
    fn face_stencil_is_the_pairwise_face_match() {
        // Oracle: compare every face with every other face, on a
        // rectangle and on three quads round one node (valence 3, as at
        // an unstructured "o-grid" corner).
        let mut meshes = vec![crate::generation::generate_rect(
            &crate::generation::RectSpec::unit_square(5),
            |_| 0,
        )
        .unwrap()];
        let tri_star = vec![[0, 1, 2, 3], [0, 3, 4, 5], [0, 5, 6, 1]];
        meshes.push(
            Mesh::from_raw(
                vec![Vec2::ZERO; 7],
                tri_star,
                vec![NodeBc::FREE; 7],
                vec![0; 3],
            )
            .unwrap(),
        );
        for m in &meshes {
            let face = |e: usize, f: usize| {
                let (a, b) = (m.elnd[e][f], m.elnd[e][(f + 1) % NCORN]);
                (a.min(b), a.max(b))
            };
            for e in 0..m.n_elements() {
                for f in 0..NCORN {
                    let across: Vec<u32> = (0..m.n_elements())
                        .filter(|&e2| e2 != e && (0..NCORN).any(|f2| face(e2, f2) == face(e, f)))
                        .map(|e2| e2 as u32)
                        .collect();
                    match m.neighbors(e)[f] {
                        Neighbor::Boundary => assert!(across.is_empty(), "el {e} face {f}"),
                        Neighbor::Element(e2) => assert_eq!(across, [e2], "el {e} face {f}"),
                    }
                }
            }
        }
        assert_eq!(meshes[1].n_interior_faces(), 3);
    }

    #[test]
    fn face_shared_by_three_elements_rejected() {
        // Three quads fanned around the edge 0–1 (a non-manifold "book").
        let nodes = vec![Vec2::ZERO; 8];
        let elnd = vec![[0, 1, 2, 3], [1, 0, 4, 5], [0, 1, 6, 7]];
        let err = Mesh::from_raw(nodes, elnd, vec![NodeBc::FREE; 8], vec![0; 3]).unwrap_err();
        match err {
            BookLeafError::MeshTopology(msg) => {
                assert!(msg.contains("shared by more than two elements"), "{msg}");
            }
            other => panic!("expected MeshTopology, got {other:?}"),
        }
    }

    #[test]
    fn first_bad_element_decides_the_error() {
        // Element 0 has a degenerate face, element 1 an out-of-range
        // node: the checks run element by element, so the degenerate
        // face is what gets reported.
        let nodes = vec![Vec2::ZERO; 4];
        let elnd = vec![[0, 0, 1, 2], [0, 1, 2, 9]];
        let err = Mesh::from_raw(nodes, elnd, vec![NodeBc::FREE; 4], vec![0; 2]).unwrap_err();
        assert!(err.to_string().contains("degenerate face 0"), "{err}");
    }

    #[test]
    fn out_of_range_node_rejected() {
        let nodes = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1.0),
        ];
        let elnd = vec![[0, 1, 2, 9]];
        assert!(Mesh::from_raw(nodes, elnd, vec![NodeBc::FREE; 3], vec![0]).is_err());
    }

    #[test]
    fn bc_merge_and_apply() {
        let bc = NodeBc::WALL_X.merge(NodeBc::WALL_Y);
        assert_eq!(bc, NodeBc::CORNER);
        let v = bc.apply(Vec2::new(3.0, 4.0));
        assert_eq!(v, Vec2::ZERO);
        let v = NodeBc::WALL_Y.apply(Vec2::new(3.0, 4.0));
        assert_eq!(v, Vec2::new(3.0, 0.0));
    }

    #[test]
    fn corners_returns_ccw_positions() {
        let m = two_quads();
        let c = m.corners(1);
        assert_eq!(c[0], Vec2::new(1.0, 0.0));
        assert_eq!(c[2], Vec2::new(2.0, 1.0));
    }

    #[test]
    fn mismatched_bc_length_rejected() {
        let nodes = vec![Vec2::new(0.0, 0.0); 4];
        let err =
            Mesh::from_raw(nodes, vec![[0, 1, 2, 3]], vec![NodeBc::FREE; 2], vec![0]).unwrap_err();
        assert!(matches!(err, BookLeafError::MeshTopology(_)));
    }
}
