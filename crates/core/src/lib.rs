//! # bookleaf-core
//!
//! The BookLeaf-rs driver layer: one front door ([`Simulation`]), text
//! input decks, the hydro loop of Algorithm 1, the observer pipeline,
//! and the programming-model executors of the paper's evaluation.
//!
//! * [`sim`] — [`Simulation`]/[`SimulationBuilder`]: the single entry
//!   point that drives serial, flat-MPI and hybrid execution
//!   identically and returns one unified [`RunReport`];
//! * [`decks`] — the five standard shock-hydrodynamics test problems
//!   (Sod's shock tube, the Noh problem, the Sedov problem, Saltzmann's
//!   piston, the underwater-explosion multi-material deck);
//! * [`input`] — text input decks (`decks::from_str`/`to_string`), the
//!   way real BookLeaf is driven: new scenarios are data, not code;
//! * [`scenario`] — the generic deck vocabulary behind [`input`]:
//!   [`GenericSpec`] (mesh + regions + materials + boundary conditions
//!   as data) and its resolution into a runnable [`Deck`];
//! * [`observer`] — step-level instrumentation hooks ([`Observer`],
//!   [`StepView`]) with shipped implementations (conservation tracer,
//!   dt history, VTK frame dumper, progress logger);
//! * [`driver`] — the one hydro loop (`getdt` → `lagstep` → optional
//!   `alestep`), with the health sentinel and the observer hooks in it;
//! * [`halo`] — the one team context behind that loop ([`Team`], over
//!   [`bookleaf_hydro::HaloOps`]): everything a step needs from the
//!   other ranks — halo phases and their boundary lists, the dt
//!   reduction, the collectives, the piston hook — implemented for a
//!   team of one ([`halo::SerialHooks`]) and for a rank of a Typhon
//!   team ([`halo::TyphonHalo`]);
//! * [`executor`] — the one rank engine (build a piece's state, install
//!   restart state, run the loop, gather) that a serial run keeps alive
//!   and that flat MPI (one rank thread per "core") and hybrid
//!   MPI+OpenMP (rank threads × rayon) build per Typhon rank;
//! * [`output`] — VTK visualisation files and the portable checkpoint
//!   format (the one carrier of restart state: `Snapshot::install` and
//!   its inverse `Snapshot::gather`);
//! * [`resilience`] — deterministic fault drills and supervised elastic
//!   recovery: [`CheckpointStore`]s with atomic writes and verified
//!   readback that keep the one file they last verified, and [`Simulation::run_resilient`]
//!   (rewind to the last good checkpoint, reshape the executor, retry
//!   within a budget — with a deterministic [`RecoveryLog`] on the
//!   report).

pub mod config;
pub mod decks;
pub mod driver;
pub mod executor;
pub mod halo;
pub mod input;
pub mod observer;
pub mod output;
pub mod report;
pub mod resilience;
pub mod scenario;
pub mod sim;

pub use config::{ExecutorKind, RunConfig, SentinelConfig};
pub use decks::{Deck, Problem};
pub use driver::LoopState;
pub use halo::Team;
pub use input::{InputDeck, ProblemSpec};
pub use observer::{
    ConservationTracer, DtHistory, DtSample, EnergySample, FrameDumper, Observer, ObserverNeeds,
    ObserverSet, ProgressLogger, Shared, StepView,
};
pub use output::{write_vtk, Checkpoint, Snapshot, CHECKPOINT_VERSION};
pub use report::RunReport;
pub use resilience::{
    CheckpointStore, RecoveryEvent, RecoveryLog, RecoveryPolicy, ReshapePolicy, SaveOutcome,
};
pub use scenario::{
    generic_equivalent, BoundarySpec, EnergyInit, GenericSpec, MeshSpec, NamedMaterial, RegionSpec,
    Shape, SideBc, SkewKind, VelocityInit,
};
pub use sim::{Simulation, SimulationBuilder, SolutionFields};
