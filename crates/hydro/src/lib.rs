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
//! (Algorithm 1 of the paper) is one module here, and each is the same
//! shape: a per-entity *body* — what one element or node computes from
//! the state — and one call of [`fn@sweep`], which owns how the index
//! range is traversed (serial or threaded; whole, or split round a halo
//! exchange):
//!
//! | paper kernel | module | body, per |
//! |--------------|--------|-----------|
//! | `getdt`      | [`getdt`]    | element: CFL length, velocity divergence, both extrema (a reduction) |
//! | `getq`       | [`getq`]     | element: artificial viscosity |
//! | `getforce`   | [`getforce`] | element: corner forces — pressure, viscosity, hourglass |
//! | (both)       | [`mod@viscforce`] | element: the two above fused — what a step runs |
//! | `getacc`     | [`getacc`]   | node: mass and force gather, acceleration, BCs, velocity |
//! | `getgeom`    | [`getgeom`]  | element: volume |
//! | `getrho`     | [`getrho`]   | element: density from Lagrangian mass |
//! | `getein`     | [`getein`]   | element: compatible internal-energy update |
//! | `getpc`      | [`getpc`]    | element: EoS evaluation |
//! | (last four)  | [`mod@eos_fused`] | element: the chain fused — what a step runs |
//!
//! [`lagstep()`] composes them into the predictor–corrector step, with
//! halo exchanges at exactly the two points the paper identifies
//! (immediately before the viscosity calculation and immediately before
//! the acceleration), each on the one post / complete schedule
//! documented on [`HaloOps`].
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
//! streaming: it walks the mesh's packed per-face index table
//! (`Topology::face_stencil`, the one face-adjacency table a mesh
//! stores) and gathers cell velocities from a per-call dense scratch
//! row. Indices only — the gathered *values* are exactly the in-loop
//! reads' values, so the output is bitwise unchanged.
//!
//! ## Kernel fusion rules
//!
//! Bodies that are per-element independent on the same inputs fuse by
//! concatenation into one sweep. The four EOS-chain kernels
//! (`getgeom → getrho → getein → getpc`) have no floating-point
//! reductions and read nothing another element writes, so
//! [`fn@eos_fused`] runs them back to back per element, *bitwise
//! identical* to the chain of four sweeps; the unfused kernels remain
//! the reference implementation, and an [`EosStages`] mask fuses any
//! subset of the chain, a disabled stage reading current state exactly
//! as the skipped kernel sequence would.
//!
//! `getq` and `getforce` cannot join *that* sweep: nodes move between
//! the viscosity/force phase and the EOS chain, and (in the corrector)
//! `getacc` gathers the corner forces in between. But they do fuse with
//! *each other*: both run on the same unchanged positions and
//! velocities, `getq` reaches its face neighbours only through the
//! cell-velocity table computed (by a sweep of its own) before the
//! element sweep, and `getforce` reads only its own element's edge
//! viscosities. [`fn@viscforce`] is that single sweep (gather once,
//! four faces as four lanes, one quiescent-element exit, the edge
//! viscosities handed from one half to the other in a local), bitwise
//! identical to `getq` then `getforce`, and the only viscosity/force
//! code a production step runs; the public `getq` and `getforce` sweep
//! its per-element pieces, handing over through `HydroState::edge_q`.
//! Pre-optimisation kernel shapes are preserved in [`mod@reference`]
//! for the `kernels` A/B and the equivalence suite.
//!
//! ## Threading and splitting
//!
//! Per the paper's §IV-B, most kernels are trivially parallelisable:
//! nothing is reduced across entities, so a body gives the same bits
//! under any traversal. [`mod@sweep`] is the one place that knows the
//! traversals — a [`Threading`] mode (serial loops, or a fork-join tree
//! over the rayon pool) and a [`Pass`] (every entity, all but a sorted
//! id list, or exactly the list: the interior and boundary passes of an
//! overlapped exchange). The acceleration kernel carries a genuine
//! scatter data dependency; [`getacc`] keeps the reference *serial
//! scatter* (what the paper shipped) beside the conflict-free per-node
//! *gather* (the fix the paper left as future work) that sweeps like
//! everything else; the ablation benches compare them.

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
pub mod sweep;
pub mod viscforce;

pub use eos_fused::{eos_fused, EosStages, FusedEos};
pub use getacc::AccMode;
pub use lagstep::{lagstep, lagstep_timed, HaloOps, LagOptions, NoComm, Phase};
pub use state::{HydroState, LocalRange};
pub use sweep::{sweep, sweep_reduce, Pass};
pub use viscforce::{lend_scratch, viscforce, LentScratch, ViscForce};

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
