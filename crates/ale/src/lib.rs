//! # bookleaf-ale
//!
//! The ALE remap phase of BookLeaf-rs.
//!
//! An Arbitrary Lagrangian–Eulerian method lets the mesh follow the flow
//! (Lagrangian) until mesh quality demands relaxation, then *remaps* the
//! solution onto a better mesh. As bounding cases BookLeaf can run pure
//! Lagrangian (never remap) or Eulerian (remap to the original mesh every
//! step). The remap follows Benson's swept-volume flux approach
//! (second order) with van Leer limiters to enforce monotonicity.
//!
//! The four sub-steps of the paper's `ALESTEP` (Algorithm 1) map to:
//!
//! | paper        | module | role |
//! |--------------|--------|------|
//! | `ALEGETMESH` | [`mesh_motion`] | select the target (relaxed) mesh |
//! | `ALEGETFVOL` + `ALEADVECT` | [`fluxvol`] + [`advect`] | one pass: each face's swept volume, evaluated where it becomes the mass / energy / momentum flux it carries |
//! | `ALEUPDATE`  | [`remap`]       | rebuild dependent variables (ρ, ε, nodal u) |
//!
//! [`Remapper`] owns the reference mesh and orchestrates one full remap
//! in the Lagrangian step's idle scratch arrays: no swept-volume table,
//! no allocation once warm.

// Index-based loops over element/corner arrays are the house style of
// these kernels (they mirror the reference Fortran and keep index math
// visible); the clippy style lint fires on every one.
#![allow(clippy::needless_range_loop)]

pub mod advect;
pub mod fluxvol;
pub mod mesh_motion;
pub mod remap;

pub use mesh_motion::AleMode;
pub use remap::{AleOptions, Remapper};
