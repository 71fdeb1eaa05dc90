//! # bookleaf-mesh
//!
//! The unstructured 2-D quadrilateral mesh substrate of BookLeaf-rs.
//!
//! BookLeaf solves Euler's equations on a mesh of quadrilateral cells.
//! Neighbouring cells connect via faces, faces intersect at nodes, and —
//! because the mesh is unstructured — the number of cells surrounding a
//! node is arbitrary. The discretisation is *staggered*: thermodynamic
//! variables live at cell centres, kinematic variables at nodes.
//!
//! This crate provides:
//!
//! * [`Mesh`] — node coordinates, owned by whoever holds the mesh, over
//!   an immutable, shared [`Topology`]: element→node, element→element
//!   across faces (one packed `u32` row per element), CSR node→corner
//!   (one `u32` flat corner id per item), boundary conditions and
//!   per-element region ids;
//! * [`generation`] — deck-driven mesh generation (rectangular regions,
//!   the Saltzmann distorted mesh);
//! * [`geometry`] — quadrilateral geometry kernels (areas, corner
//!   volumes for sub-zonal pressures, iso-parametric gradients,
//!   characteristic lengths);
//! * [`submesh`] — extraction of per-rank local meshes with ghost
//!   layers, used by the Typhon runtime.

// Index-based loops over element/corner arrays are the house style of
// these kernels (they mirror the reference Fortran and keep index math
// visible); the clippy style lint fires on every one.
#![allow(clippy::needless_range_loop)]

pub mod generation;
pub mod geometry;
pub mod submesh;
mod topology;

pub use generation::{generate_rect, rect_parts, saltzmann_distort, RectSpec};
pub use submesh::{neighbour_union, OverlapSets, SubMesh, SubMeshPlan};
pub use topology::{split_corner, Mesh, Neighbor, NodeBc, Topology, STENCIL_BOUNDARY};

/// Number of corners / faces of a quadrilateral element.
pub const NCORN: usize = bookleaf_util::constants::NCORN;
