//! # BookLeaf-rs
//!
//! A Rust reproduction of **BookLeaf** (Truby et al., 2018): a 2-D
//! unstructured Arbitrary Lagrangian–Eulerian (ALE) shock-hydrodynamics
//! mini-application, including every substrate the paper's evaluation
//! depends on.
//!
//! This facade crate re-exports the workspace's public API under one roof:
//!
//! * [`mesh`] — unstructured quadrilateral mesh, generation, geometry;
//! * [`eos`] — equations of state (ideal gas, Tait, JWL, void);
//! * [`partition`] — recursive coordinate bisection (RCB) mesh
//!   decomposition;
//! * [`typhon`] — the distributed communication runtime (halo exchange,
//!   global reductions) over rank threads;
//! * [`hydro`] — the Lagrangian kernels (`getdt`, `getq`, `getforce`, …);
//! * [`ale`] — the swept-volume remap;
//! * [`core`] — the front door: [`Simulation`] and its builder, the
//!   five standard decks, text input decks, observers, and the
//!   programming-model executors;
//! * [`validate`] — analytic solutions and error norms;
//! * [`util`] — shared numerics;
//! * [`serve`] — the hardened multi-tenant simulation service
//!   (admission control, deadlines, tenant quarantine, graceful drain).
//!
//! The analytic models of the paper's Cray XC50 and P100/V100 testbeds
//! are not part of the product: they live with the paper-figure bins in
//! the `bookleaf-bench` crate (`bookleaf_bench::device`).
//!
//! ## Quickstart
//!
//! One builder drives every executor — swap `.executor(..)` and nothing
//! else changes:
//!
//! ```
//! use bookleaf::{ExecutorKind, Simulation};
//! use bookleaf::core::decks;
//!
//! // Small Sod shock tube, Lagrangian frame, serial execution.
//! let mut sim = Simulation::builder()
//!     .deck(decks::sod(40, 4))               // or .deck_str(..) / .deck_file(..)
//!     .executor(ExecutorKind::Serial)        // or FlatMpi { .. } / Hybrid { .. }
//!     .final_time(0.05)
//!     .build()
//!     .expect("valid deck");
//! let report = sim.run().expect("run to completion");
//! assert!(report.steps > 0);
//! assert!(report.energy_drift() < 1e-9);
//! // The solution (assembled globally for distributed runs):
//! assert!(sim.state().rho.iter().all(|r| r.is_finite()));
//! ```
//!
//! Runs are driven by *input decks* — text files, like the reference
//! code — via [`SimulationBuilder::deck_file`], and instrumented with
//! [`Observer`]s (conservation tracer, dt history, VTK frame dumper,
//! progress logger ship in [`core::observer`]):
//!
//! ```
//! use bookleaf::{ConservationTracer, Shared, Simulation};
//!
//! let deck = "
//!     problem = noh
//!     n = 12
//!     [control]
//!     final_time = 0.02
//! ";
//! let tracer = Shared::new(ConservationTracer::new());
//! let mut sim = Simulation::builder()
//!     .deck_str(deck)
//!     .observer(tracer.clone())
//!     .build()
//!     .expect("valid deck");
//! sim.run().expect("run to completion");
//! assert!(tracer.with(|t| t.max_drift()) < 1e-6);
//! ```

pub use bookleaf_ale as ale;
pub use bookleaf_core as core;
pub use bookleaf_eos as eos;
pub use bookleaf_hydro as hydro;
pub use bookleaf_mesh as mesh;
pub use bookleaf_partition as partition;
pub use bookleaf_serve as serve;
pub use bookleaf_typhon as typhon;
pub use bookleaf_util as util;
pub use bookleaf_validate as validate;

// The front-door types, re-exported at the crate root so `use
// bookleaf::Simulation;` is all a downstream user needs.
pub use bookleaf_core::{
    Checkpoint, ConservationTracer, Deck, DtHistory, ExecutorKind, FrameDumper, GenericSpec,
    InputDeck, Observer, ProblemSpec, ProgressLogger, RunConfig, RunReport, Shared, Simulation,
    SimulationBuilder, StepPhase, StepView, CHECKPOINT_VERSION,
};
pub use bookleaf_util::CheckpointError;
