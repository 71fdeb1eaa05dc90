//! # bookleaf-hydro
//!
//! The Lagrangian hydrodynamics kernels of BookLeaf-rs.
//!
//! BookLeaf solves Euler's equations of compressible flow on a staggered
//! unstructured quadrilateral mesh: thermodynamic variables (density ρ,
//! pressure P, specific internal energy ε) are piecewise constant per
//! cell; kinematic variables (velocity **u**, position **x**) live on
//! nodes with bilinear elements. A *compatible* discretisation
//! (Barlow 2008) drives both the momentum and energy equations from the
//! same corner forces, conserving total energy to round-off. Shocks are
//! handled by an edge-centred artificial viscosity (Caramana, Shashkov &
//! Whalen 1998) with a monotonic limiter; spurious hourglass modes are
//! suppressed by a Hancock-style filter and Caramana–Shashkov sub-zonal
//! pressures.
//!
//! Each kernel of the reference implementation's hydro loop
//! (Algorithm 1 of the paper) is one module here:
//!
//! | paper kernel | module | role |
//! |--------------|--------|------|
//! | `getdt`      | [`getdt`]    | CFL + divergence time-step control |
//! | `getq`       | [`getq`]     | artificial viscosity |
//! | `getforce`   | [`getforce`] | corner forces: pressure, viscosity, hourglass |
//! | (both)       | [`mod@viscforce`] | the two above as the one fused sweep a step runs |
//! | `getacc`     | [`getacc`]   | nodal mass gather, acceleration, BCs, node motion |
//! | `getgeom`    | [`getgeom`]  | volumes, corner volumes, characteristic lengths |
//! | `getrho`     | [`getrho`]   | density from Lagrangian mass |
//! | `getein`     | [`getein`]   | compatible internal-energy update |
//! | `getpc`      | [`getpc`]    | EoS evaluation |
//!
//! [`lagstep()`] composes them into the predictor–corrector step, with
//! halo-exchange hooks at exactly the two points the paper identifies
//! (immediately before the viscosity calculation and immediately before
//! the acceleration).
//!
//! ## Corner-data layout
//!
//! Corner forces are stored as SoA component rows
//! (`cnforce_x`/`cnforce_y: Vec<[f64; 4]>`) so the force-assembly and
//! work-term inner loops stream dense stride-1 rows; see the layout
//! contract in [`state`]'s module docs. Checkpoint bytes and the halo
//! wire format are unaffected — corner forces are re-derived on restart
//! and packed per corner in the order the interleaved layout used.
//!
//! The viscosity kernel's neighbour gathers are likewise shaped for
//! streaming: it walks a packed per-edge index table
//! (`Mesh::face_stencil`, built lazily once per mesh — element→element
//! topology is fixed at construction) instead of matching on the tagged
//! `elel` rows in the face loop, and gathers cell velocities from a
//! per-call dense scratch row. Indices only — the gathered *values* are
//! exactly the in-loop reads' values, so the output is bitwise
//! unchanged.
//!
//! ## Kernel fusion rules
//!
//! The four EOS-chain kernels (`getgeom → getrho → getein → getpc`) are
//! per-element independent with no floating-point reductions, so they
//! fuse into one element sweep — [`fn@eos_fused`] — that is *bitwise
//! identical* to running the chain unfused under any serial/rayon/subset
//! split. The unfused kernels remain the reference implementation; a
//! [`EosStages`] mask fuses any subset of the chain, with a disabled
//! stage reading current state exactly as the skipped kernel sequence
//! would.
//!
//! `getq` and `getforce` cannot join *that* sweep: nodes move between
//! the viscosity/force phase and the EOS chain, and (in the corrector)
//! `getacc` gathers the corner forces in between. But they do fuse with
//! *each other*: both run on the same unchanged positions and
//! velocities, `getq` reaches its face neighbours only through the
//! cell-velocity table precomputed before the sweep, and `getforce`
//! reads only its own element's `edge_q` — per-element independence
//! holds. [`fn@viscforce`] is that single sweep (gather once, four faces
//! as four lanes, one quiescent-element exit), bitwise identical to
//! `getq` then `getforce` under any serial/rayon/subset split, and the
//! only viscosity/force code a production step runs; the public `getq`
//! and `getforce` are thin drivers over its per-element pieces.
//! Pre-optimisation kernel shapes are preserved in [`mod@reference`]
//! for the roofline bench and the equivalence suite.
//!
//! ## Threading
//!
//! Per the paper's §IV-B, most kernels are trivially parallelisable and
//! accept a [`Threading`] mode (serial or rayon). The acceleration kernel
//! carries a genuine scatter data dependency; [`getacc`] exposes the
//! reference *serial scatter* (what the paper shipped) and a
//! conflict-free *gather* rewrite (the fix the paper left as future
//! work), which the ablation benches compare.

// Index-based loops over element/corner arrays are the house style of
// these kernels (they mirror the reference Fortran and keep index math
// visible); the clippy style lint fires on every one.
#![allow(clippy::needless_range_loop)]

pub mod eos_fused;
pub mod getacc;
pub mod getdt;
pub mod getein;
pub mod getforce;
pub mod getgeom;
pub mod getpc;
pub mod getq;
pub mod getrho;
pub mod lagstep;
pub mod reference;
pub mod state;
pub mod subset;
pub mod viscforce;

pub use eos_fused::{eos_fused, EosStages, FusedEos};
pub use getacc::AccMode;
pub use lagstep::{lagstep, lagstep_timed, HaloOps, KernelSplit, LagOptions, NoComm};
pub use state::{HydroState, LocalRange};
pub use subset::Subset;
pub use viscforce::{lend_scratch, viscforce, viscforce_listed, LentScratch, ViscForce};

/// Intra-rank threading mode for the trivially parallel kernels.
///
/// Maps onto the paper's evaluation axis: `Serial` inside many MPI ranks
/// is the *flat MPI* model; `Rayon` inside fewer ranks is the *hybrid
/// MPI+OpenMP* model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threading {
    /// Plain sequential loops.
    #[default]
    Serial,
    /// Rayon data-parallel loops (the OpenMP-host analogue).
    Rayon,
}
