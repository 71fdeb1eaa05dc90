//! # bookleaf-typhon
//!
//! **Typhon** is BookLeaf's distributed communication library for
//! unstructured mesh applications: halo exchanges between neighbouring
//! partitions and global reductions, implemented in the reference code on
//! top of MPI.
//!
//! This Rust port reproduces Typhon's semantics on a single machine: each
//! "MPI rank" is an OS thread owning a disjoint mesh partition, and
//! point-to-point messages travel over `crossbeam` channels. The
//! *communication structure* — who sends what to whom, and when — is
//! identical to the MPI original; only the transport differs: a team
//! lives in one process, where a channel does what an MPI point-to-point
//! call does without a launcher or an MPI library to link. Multi-node
//! wire costs are recovered by the cluster model of the `bookleaf-bench`
//! paper-figure crate.
//!
//! ## Pieces
//!
//! * [`runtime`] — the rank team: spawn N rank threads, point-to-point
//!   send/recv with tag matching, barriers and global min/sum reductions,
//!   plus a per-rank payload-buffer recycle pool;
//! * [`plan`] — the phase-aggregated exchange plan: a rank's neighbour
//!   links, over which each phase moves as **one** packed message per
//!   neighbour. Nothing is registered: the field bindings a phase is
//!   posted with are its layout. Per-phase traffic is accounted;
//! * [`stats`] — per-rank communication counters (messages, doubles
//!   moved, per-phase breakdowns) consumed by the performance models;
//! * [`fault`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   schedule that corrupts, drops, delays or kills at precise
//!   `(attempt, step, rank)` points, every failure surfacing as a typed
//!   `CommError` within one bounded timeout window.

pub mod fault;
pub mod plan;
pub mod runtime;
pub mod stats;

pub use fault::{FaultEntry, FaultKind, FaultPlan};
pub use plan::{Binding, Entity, FieldMut, HaloPlan, PendingPhase};
pub use runtime::{RankCtx, Typhon, TyphonOptions};
pub use stats::{CommStats, PhaseStats};
