//! The single front door: [`Simulation`] and its builder.
//!
//! Real BookLeaf is one binary driven by text input decks; this module
//! is that shape in library form. One fluent path —
//!
//! ```
//! use bookleaf_core::{decks, ExecutorKind, Simulation};
//!
//! let report = Simulation::builder()
//!     .deck(decks::sod(40, 4))           // or .deck_str(..) / .deck_file(..)
//!     .executor(ExecutorKind::Serial)
//!     .final_time(0.02)
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert!(report.steps > 0);
//! ```
//!
//! — drives serial, flat-MPI and hybrid execution identically and
//! returns one unified [`RunReport`] (merged timers, team comm stats,
//! global energy accounting) for all of them. Observers registered via
//! [`SimulationBuilder::observer`] fire under every executor; after the
//! run, [`Simulation::mesh`]/[`Simulation::state`] expose the solution.
//! Every executor runs the one rank engine ([`crate::executor`]). A
//! simulation of one rank — serial, or a flat-MPI / hybrid shape with
//! `ranks: 1` — keeps that rank alive and steps its pair in place (a
//! hybrid rank inside its own pool of threads, built once). One of two
//! or more ranks keeps only the restart [`Snapshot`] its rank team
//! gathered (global order) — what the next team, a checkpoint and
//! [`Simulation::solution`] read; the deck's initial fields until then
//! — and builds the global pair from it when first asked. Either way
//! the simulation itself holds the deck's [`Problem`], not its painted
//! fields. The report is accumulated here, above the
//! executors, so a continued run reports the same way under all of
//! them.
//!
//! Configuration precedence, lowest to highest: the defaults, the text
//! deck's own `[control]`/`[dt]`/`[ale]`/`[executor]` sections, a
//! wholesale [`SimulationBuilder::config`], then the individual builder
//! setters (`.executor(..)`, `.final_time(..)`, …).

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use bookleaf_ale::AleOptions;
use bookleaf_hydro::HydroState;
use bookleaf_mesh::Mesh;
use bookleaf_typhon::{CommStats, FaultPlan, TyphonOptions};
use bookleaf_util::{BookLeafError, CheckpointError, DeckError, Result, TimerReport, Vec2};

use crate::config::{ExecutorKind, RunConfig};
use crate::decks::{Deck, Problem};
use crate::driver::LoopState;
use crate::executor::{
    installed, rank_config, rank_pool, run_team, shape, whole_state, Origin, Piece, Rank,
};
use crate::halo::{LocalPiston, SerialHooks};
use crate::input::InputDeck;
use crate::observer::{Observer, ObserverSet};
use crate::output::{Checkpoint, RestartView, Snapshot};
use crate::report::RunReport;

/// Where the builder's deck comes from.
enum DeckSource {
    /// A programmatically constructed deck.
    Built(Box<Deck>),
    /// A parsed input-deck spec.
    Input(Box<InputDeck>),
    /// Input-deck text, parsed at build time.
    Text(String),
    /// A path to an input-deck file, read and parsed at build time.
    File(PathBuf),
    /// An in-memory checkpoint: deck, config baseline and state.
    Resume(Box<Checkpoint>),
    /// A checkpoint file, read and parsed at build time.
    ResumeFile(PathBuf),
}

/// Fluent constructor for [`Simulation`]; see the module docs.
#[must_use = "call .build() to obtain the Simulation"]
#[derive(Default)]
pub struct SimulationBuilder {
    source: Option<DeckSource>,
    config: Option<RunConfig>,
    executor: Option<ExecutorKind>,
    final_time: Option<f64>,
    max_steps: Option<usize>,
    ale: Option<Option<AleOptions>>,
    overlap: Option<bool>,
    observers: Vec<Box<dyn Observer>>,
    fault_plan: Option<FaultPlan>,
    deadline: Option<std::time::Instant>,
}

impl SimulationBuilder {
    /// Use a programmatically constructed [`Deck`].
    pub fn deck(mut self, deck: Deck) -> Self {
        self.source = Some(DeckSource::Built(Box::new(deck)));
        self
    }

    /// Use a parsed [`InputDeck`] spec (its run options become the
    /// configuration baseline).
    pub fn deck_input(mut self, input: InputDeck) -> Self {
        self.source = Some(DeckSource::Input(Box::new(input)));
        self
    }

    /// Use input-deck text (see [`crate::input`] for the format);
    /// parsed — with line-anchored errors — at [`Self::build`].
    pub fn deck_str(mut self, text: impl Into<String>) -> Self {
        self.source = Some(DeckSource::Text(text.into()));
        self
    }

    /// Use an input-deck file; read and parsed at [`Self::build`].
    pub fn deck_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.source = Some(DeckSource::File(path.into()));
        self
    }

    /// Resume from a checkpoint file (written by
    /// [`Simulation::checkpoint_to`]). The embedded input deck supplies
    /// the problem and the configuration baseline; the builder setters
    /// override on top, so a checkpoint written by a serial run can
    /// resume under `.executor(ExecutorKind::FlatMpi { ranks: 4 })` (or
    /// any other shape) — the state is repartitioned automatically.
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.source = Some(DeckSource::ResumeFile(path.into()));
        self
    }

    /// Resume from an in-memory [`Checkpoint`] (see [`Self::resume`]).
    pub fn resume_from(mut self, checkpoint: Checkpoint) -> Self {
        self.source = Some(DeckSource::Resume(Box::new(checkpoint)));
        self
    }

    /// Replace the whole run configuration (individual setters below
    /// still override on top).
    pub fn config(mut self, config: RunConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Select the execution model.
    pub fn executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Stop once simulated time reaches `t`.
    pub fn final_time(mut self, t: f64) -> Self {
        self.final_time = Some(t);
        self
    }

    /// Hard cap on steps.
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = Some(n);
        self
    }

    /// ALE remap options (`None` = pure Lagrangian frame).
    pub fn ale(mut self, ale: Option<AleOptions>) -> Self {
        self.ale = Some(ale);
        self
    }

    /// Toggle halo-exchange/computation overlap (distributed only).
    pub fn overlap(mut self, overlap: bool) -> Self {
        self.overlap = Some(overlap);
        self
    }

    /// Register an observer; hooks fire under every executor. Wrap in
    /// [`crate::Shared`] and keep a clone to read results afterwards.
    pub fn observer(mut self, observer: impl Observer + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Inject a deterministic [`FaultPlan`] into the communication
    /// layer (executors of two or more ranks only: a run of one rank —
    /// serial, `FlatMpi { ranks: 1 }`, `Hybrid { ranks: 1, .. }` — has
    /// no comm layer to fault, and runs as if no plan were given). Every
    /// scheduled fault surfaces as a typed
    /// [`bookleaf_util::CommError`] — never a hang or a panic — which
    /// is what the resilience test matrix and
    /// [`Simulation::run_resilient`] drills are built on.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Wall-clock deadline for the run (see [`RunConfig::deadline`]):
    /// once `at` passes, the run aborts symmetrically on every rank
    /// with a typed [`BookLeafError::DeadlineExceeded`], checked once
    /// per step at the dt reduction. The per-request supervision knob
    /// of `bookleaf serve`.
    pub fn deadline(mut self, at: std::time::Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Resolve the deck, merge the configuration layers, validate, and
    /// construct the [`Simulation`].
    pub fn build(self) -> Result<Simulation> {
        let Some(source) = self.source else {
            let message = "Simulation::builder() needs a deck: call .deck(..), .deck_str(..), \
                           .deck_file(..) or .resume(..)";
            return Err(DeckError::Config {
                message: message.into(),
            }
            .into());
        };
        // Every source but a built deck resolves to an input deck (and,
        // to resume, the snapshot it continues from), whose deck is built
        // once, below; a deck file names itself in the errors of both.
        let mut file = None;
        let (input, resume_snap) = match source {
            DeckSource::Built(deck) => (Err(deck), None),
            DeckSource::Input(input) => (Ok(*input), None),
            DeckSource::Text(text) => (Ok(text.parse::<InputDeck>()?), None),
            DeckSource::Resume(ckpt) => (Ok(ckpt.input), Some(ckpt.snap)),
            DeckSource::ResumeFile(path) => {
                let ckpt = Checkpoint::read_from(&path)?;
                (Ok(ckpt.input), Some(ckpt.snap))
            }
            DeckSource::File(path) => {
                let text = std::fs::read_to_string(&path).map_err(|e| DeckError::Config {
                    message: format!("cannot read deck file {}: {e}", path.display()),
                })?;
                let input = text
                    .parse::<InputDeck>()
                    .map_err(|e| in_file(Some(&path), e))?;
                file = Some(path);
                (Ok(input), None)
            }
        };
        let (deck, input) = match input {
            Err(deck) => (*deck, None),
            Ok(input) => {
                let deck = input
                    .build_deck()
                    .map_err(|e| in_file(file.as_deref(), e))?;
                (deck, Some(input))
            }
        };

        // Configuration layers: defaults < text deck < .config() <
        // individual setters.
        let mut config = self
            .config
            .or_else(|| input.as_ref().map(InputDeck::run_config))
            .unwrap_or_default();
        if let Some(executor) = self.executor {
            config.executor = executor;
        }
        if let Some(t) = self.final_time {
            config.final_time = t;
        }
        if let Some(n) = self.max_steps {
            config.max_steps = n;
        }
        if let Some(ale) = self.ale {
            config.ale = ale;
        }
        if let Some(overlap) = self.overlap {
            config.overlap = overlap;
        }
        if let Some(deadline) = self.deadline {
            config.deadline = Some(deadline);
        }

        deck.validate()?;
        // The simulation keeps the problem; the initial fields go to the
        // engine, which paints from them (a one-rank engine, now) or
        // holds them until its first team has run. A resumed run starts
        // from the snapshot and never reads them.
        let (problem, fields) = deck.split();
        let origin = resume_snap.map_or(Origin::Fields(fields), Origin::Snapshot);
        let engine = Engine::new(&problem, &config, origin)?;
        let typhon = TyphonOptions {
            fault_plan: self.fault_plan.map(Arc::new),
            ..TyphonOptions::default()
        };
        Ok(Simulation {
            problem,
            input,
            config,
            observers: ObserverSet::new(self.observers),
            engine,
            typhon,
        })
    }
}

/// `e`, still typed (and line-anchored where the parser anchored it),
/// naming the deck file it belongs to, if it came from one.
fn in_file(path: Option<&Path>, e: DeckError) -> DeckError {
    let Some(path) = path else { return e };
    let named = |message| format!("{}: {message}", path.display());
    match e {
        DeckError::Text { line, message } => DeckError::Text {
            line,
            message: named(message),
        },
        DeckError::Config { message } => DeckError::Config {
            message: named(message),
        },
        other => other,
    }
}

impl std::fmt::Debug for SimulationBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationBuilder")
            .field("has_deck", &self.source.is_some())
            .field("observers", &self.observers.len())
            .finish_non_exhaustive()
    }
}

/// A team of two or more ranks between runs. Every `run` spawns a team
/// that builds its own per-rank pieces, so all that is kept here is
/// what a team consumes and leaves — the restart state. A process
/// running ranks holds no second, global `HydroState` unless someone
/// asks to look at one.
struct TeamExec {
    /// Where the next team starts: the deck's initial fields until a
    /// team has gathered its snapshot (a failed first team leaves them,
    /// so a retry starts where it did), then the restart state the last
    /// team left — or a checkpoint's, installed.
    origin: Origin,
    /// The global `(mesh, state)` view of `origin`: built on the first
    /// [`Simulation::mesh`] / [`Simulation::state`] call, dropped when
    /// the next team starts.
    view: OnceLock<(Mesh, HydroState)>,
}

enum Exec {
    /// One rank with nobody to talk to — the serial executor, and the
    /// flat-MPI and hybrid shapes of one rank — kept alive between runs
    /// and stepped in place: no Typhon team, no partition, no gather.
    Serial {
        rank: Rank<SerialHooks>,
        /// A hybrid rank's threads, built once and installed around
        /// everything the rank does; `None` for a rank of one thread.
        pool: Option<rayon::ThreadPool>,
    },
    /// Two or more ranks.
    Team(TeamExec),
}

/// Execution state: the loop cursor the next `run` continues from, what
/// the executor keeps between runs, and — under every executor alike —
/// the account of the trajectory since the engine was built.
struct Engine {
    cursor: LoopState,
    exec: Exec,
    /// The trajectory's reference energy, pinned by the first run: what
    /// every report starts from and the sentinel measures drift against.
    energy_start: Option<f64>,
    /// Wall seconds, timers and comm counters summed over every `run`.
    wall_seconds: f64,
    timers: TimerReport,
    comm: CommStats,
}

/// The whole-mesh rank of `problem` at `origin`, and the pool it steps
/// in: the engine of every one-rank executor. The rank is built on the
/// calling thread, as the serial engine's always was (built on a pool
/// worker, the harness's in-process `build()` of Noh 251×261 read
/// 19–21 ms instead of 6–8).
fn whole_rank(problem: &Problem, config: &RunConfig, origin: &Origin) -> Result<Exec> {
    let hooks = SerialHooks {
        piston: LocalPiston::of(problem, None),
    };
    let rank = Rank::new(problem, config, Piece::whole(&problem.mesh), hooks, origin)?;
    let pool = rank_pool(config.executor)?;
    Ok(Exec::Serial { rank, pool })
}

impl Engine {
    /// Build the engine `config.executor` asks for, at `origin`: the
    /// deck's initial fields, or a snapshot to continue from. The one
    /// constructor behind both the builder and a supervised rewind. An
    /// unphysical deck or restart state is refused here with the same
    /// typed error whichever executor was asked for — a snapshot that
    /// does not fit the problem's mesh is a
    /// [`CheckpointError::DeckMismatch`]. A one-rank engine paints or
    /// installs its state now, and `origin` is dropped on return; a team
    /// keeps it for its first run.
    fn new(problem: &Problem, config: &RunConfig, origin: Origin) -> Result<Self> {
        let mesh = &problem.mesh;
        let cursor = match &origin {
            Origin::Fields(_) => LoopState::default(),
            Origin::Snapshot(snap) => {
                snap.check_shape(mesh)?;
                snap.cursor()
            }
        };
        let exec = match shape(config.executor) {
            (0, _) => return Err(BookLeafError::EmptyExecutor { field: "ranks" }),
            (_, 0) => {
                return Err(BookLeafError::EmptyExecutor {
                    field: "threads_per_rank",
                })
            }
            (1, _) => whole_rank(problem, config, &origin)?,
            _ => {
                // Everything building the whole-mesh rank would have
                // refused, without building it.
                match &origin {
                    Origin::Fields(fields) => fields.check(problem)?,
                    Origin::Snapshot(snap) => snap.check_geometry(mesh)?,
                }
                Exec::Team(TeamExec {
                    origin,
                    view: OnceLock::new(),
                })
            }
        };
        Ok(Engine {
            cursor,
            exec,
            energy_start: None,
            wall_seconds: 0.0,
            timers: TimerReport::zero(),
            comm: CommStats::default(),
        })
    }

    /// The global `(mesh, state)`: the one rank's live pair, a team's
    /// view — built now if nobody asked before.
    fn global(&self, problem: &Problem, config: &RunConfig) -> (&Mesh, &HydroState) {
        match &self.exec {
            Exec::Serial { rank, .. } => (&rank.mesh, &rank.state),
            Exec::Team(team) => {
                let (mesh, state) = team.view.get_or_init(|| {
                    whole_state(problem, config, &team.origin)
                        .expect("Engine::new admitted the deck and every installed snapshot")
                });
                (mesh, state)
            }
        }
    }

    /// The restart state at the cursor, borrowed from whichever side
    /// holds it: the one rank's live pair, the snapshot a team left, or
    /// — a team that has never run — the view of the deck's initial
    /// state (built now if nobody asked before).
    fn restart(&self, problem: &Problem, config: &RunConfig) -> RestartView<'_> {
        if let Exec::Team(TeamExec {
            origin: Origin::Snapshot(snap),
            ..
        }) = &self.exec
        {
            return snap.view();
        }
        let (mesh, state) = self.global(problem, config);
        RestartView::live(mesh, state, self.cursor)
    }

    /// Continue from the cursor to `config`'s final time or step cap,
    /// and add the segment to the account: the report spans the whole
    /// trajectory since the engine was built, whichever executor ran.
    fn run(
        &mut self,
        problem: &Problem,
        config: &RunConfig,
        observers: &ObserverSet,
        typhon: &TyphonOptions,
    ) -> Result<RunReport> {
        let energy_ref = self.energy_start;
        let segment = match &mut self.exec {
            Exec::Serial { rank, pool } => {
                let config = rank_config(config);
                installed(pool.as_ref(), || {
                    rank.run(problem, &config, observers, energy_ref)
                })?
            }
            Exec::Team(team) => {
                // The view shows the state this team is about to move
                // on from, and the ranks need its memory more.
                team.view.take();
                let (segment, snap) =
                    run_team(problem, config, observers, &team.origin, typhon, energy_ref)?;
                team.origin = Origin::Snapshot(snap);
                segment
            }
        };
        self.cursor = segment.cursor;
        self.wall_seconds += segment.wall_seconds;
        self.timers = self.timers.add(&segment.timers);
        self.comm = self.comm.merged(&segment.comm);
        Ok(RunReport {
            name: problem.name.to_string(),
            executor: config.executor,
            ranks: segment.ranks,
            steps: self.cursor.steps,
            time: self.cursor.t,
            wall_seconds: self.wall_seconds,
            timers: self.timers.clone(),
            comm: self.comm.clone(),
            energy_start: *self.energy_start.get_or_insert(segment.energy_start),
            energy_end: segment.energy_end,
            recovery: crate::resilience::RecoveryLog::default(),
        })
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cursor", &self.cursor)
            .field(
                "exec",
                &match &self.exec {
                    Exec::Serial { pool: None, .. } => "serial".to_string(),
                    Exec::Serial {
                        pool: Some(pool), ..
                    } => {
                        format!("serial, {} threads", pool.current_num_threads())
                    }
                    Exec::Team(team) if team.view.get().is_some() => "team, view built".into(),
                    Exec::Team(_) => "team, no view".into(),
                },
            )
            .finish_non_exhaustive()
    }
}

/// The solution fields of a [`Simulation`], in global element / node
/// order (see [`Simulation::solution`]): before any run, the state the
/// run starts from — the deck's initial fields, or a resumed
/// checkpoint's.
#[derive(Debug, Clone, Copy)]
pub struct SolutionFields<'a> {
    /// Density per element.
    pub rho: &'a [f64],
    /// Specific internal energy per element.
    pub ein: &'a [f64],
    /// Velocity per node.
    pub u: &'a [Vec2],
    /// Position per node.
    pub nodes: &'a [Vec2],
}

/// One handle for a whole run, whatever the executor. Build with
/// [`Simulation::builder`]; see the module docs for the shape of the
/// API.
#[derive(Debug)]
pub struct Simulation {
    problem: Problem,
    input: Option<InputDeck>,
    config: RunConfig,
    observers: ObserverSet,
    engine: Engine,
    /// Comm-layer options for distributed runs: fault schedule,
    /// recovery-attempt index.
    pub(crate) typhon: TyphonOptions,
}

impl Simulation {
    /// Start building a simulation.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::default()
    }

    /// Continue from the loop cursor to the configured final time (or
    /// step cap) and report.
    ///
    /// One contract under every executor: a run stops at a step
    /// boundary, the simulation stays resumable, and the next `run` —
    /// after raising `final_time` / `max_steps`, or following a
    /// [`Simulation::run_segment`] — continues where this one stopped,
    /// **bitwise** on the trajectory of a single uninterrupted run of
    /// the same executor shape (Lagrangian and ALE alike). A simulation
    /// that has never run starts from the deck's initial state; one
    /// built by [`SimulationBuilder::resume`] from the checkpoint's.
    ///
    /// Every quantity of the report — steps, time, timers, comm
    /// counters, wall clock, start energy — spans the whole trajectory
    /// since this simulation was built (or last rewound), under every
    /// executor: a `run_segment` loop's last report is one `run`'s.
    pub fn run(&mut self) -> Result<RunReport> {
        self.engine
            .run(&self.problem, &self.config, &self.observers, &self.typhon)
    }

    /// Has the run reached its goal — the configured final time or the
    /// step cap — according to the loop cursor?
    #[must_use]
    pub fn complete(&self) -> bool {
        self.cursor().done(&self.config)
    }

    /// [`Simulation::run`] for at most `steps` more steps (at least
    /// one): the same continuation contract, so a `run_segment` loop
    /// reproduces one `run` bitwise under any executor. This is the
    /// cooperative-scheduling primitive `bookleaf serve` drains with
    /// and [`Simulation::run_resilient`] supervises: a worker can pause
    /// between segments, checkpoint, and hand the request back as a
    /// resumable handle.
    ///
    /// # Errors
    ///
    /// Everything [`Simulation::run`] can return.
    pub fn run_segment(&mut self, steps: usize) -> Result<RunReport> {
        let goal_steps = self.config.max_steps;
        self.config.max_steps = goal_steps.min(self.cursor().steps.saturating_add(steps.max(1)));
        let result = self.run();
        self.config.max_steps = goal_steps;
        result
    }

    /// Capture a portable, versioned [`Checkpoint`]: the full restart
    /// state plus the input deck that rebuilds this problem (so
    /// [`SimulationBuilder::resume`] needs nothing but the file). Works
    /// under every executor — a distributed run hands out the restart
    /// state its team assembled — but requires a deck that carries a
    /// problem spec ([`Problem::spec`]); hand-assembled decks cannot be
    /// checkpointed and return a typed
    /// [`CheckpointError::DeckMismatch`].
    pub fn checkpoint(&self) -> Result<Checkpoint> {
        Ok(Checkpoint {
            input: self.checkpoint_deck()?,
            snap: Snapshot::capture(self.engine.restart(&self.problem, &self.config)),
        })
    }

    /// The deck a checkpoint of this simulation embeds.
    fn checkpoint_deck(&self) -> Result<InputDeck> {
        let Some(problem) = self.problem.spec.clone() else {
            return Err(CheckpointError::DeckMismatch {
                message: "this deck was assembled by hand and carries no problem spec, \
                          so a resumed run could not rebuild it; construct the deck \
                          via bookleaf_core::decks or an input deck to checkpoint"
                    .into(),
            }
            .into());
        };
        // Embed the *effective* configuration so the checkpoint is
        // self-contained: resuming without overrides continues exactly
        // this run (same final time, dt controls, ALE and executor).
        Ok(InputDeck {
            problem,
            final_time: Some(self.config.final_time),
            max_steps: self.config.max_steps,
            overlap: self.config.overlap,
            dt: self.config.dt,
            ale: self.config.ale,
            executor: self.config.executor,
        })
    }

    /// Write [`Simulation::checkpoint`] to a file (see
    /// [`crate::output`] for the on-disk format), streamed from the
    /// restart state this simulation holds — the one rank's live pair,
    /// or the snapshot a team left — without copying it first.
    pub fn checkpoint_to(&self, path: impl Into<PathBuf>) -> Result<()> {
        let input = self.checkpoint_deck()?;
        let view = self.engine.restart(&self.problem, &self.config);
        Checkpoint::stream_to(&path.into(), &input, view)?;
        Ok(())
    }

    /// The loop cursor: where the next `run` continues from (simulated
    /// time, steps taken, the last step's dt).
    #[must_use]
    pub fn cursor(&self) -> &LoopState {
        &self.engine.cursor
    }

    /// Mutable configuration access for the resilience supervisor
    /// (deadlines, executor reshapes).
    pub(crate) fn config_mut(&mut self) -> &mut RunConfig {
        &mut self.config
    }

    /// Rewind for a supervised retry: rebuild the engine to match the
    /// *current* configured executor — the supervisor may have reshaped
    /// it, including across the serial/distributed divide — continuing
    /// from `snap`.
    pub(crate) fn rewind_to(&mut self, snap: Snapshot) -> Result<()> {
        self.engine = Engine::new(&self.problem, &self.config, Origin::Snapshot(snap))?;
        Ok(())
    }

    /// The problem this simulation runs: its deck without the initial
    /// fields (name, initial mesh, materials, piston, spec). The fields
    /// are painted into the state and not kept; [`Simulation::solution`]
    /// of a simulation that has not run shows them.
    #[must_use]
    pub fn deck(&self) -> &Problem {
        &self.problem
    }

    /// The parsed input-deck spec, when the deck came from text.
    #[must_use]
    pub fn input_deck(&self) -> Option<&InputDeck> {
        self.input.as_ref()
    }

    /// The effective run configuration.
    #[must_use]
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The current mesh: live solver state for runs of one rank, the
    /// assembled global view after runs of several — built on the
    /// first call after a run (with [`Simulation::state`]), so a
    /// distributed simulation nobody looks into never holds one.
    #[must_use]
    pub fn mesh(&self) -> &Mesh {
        self.engine.global(&self.problem, &self.config).0
    }

    /// The current state (see [`Simulation::mesh`] for the semantics;
    /// a distributed run assembles the restart fields and re-derives
    /// geometry, pressure and sound speed from them).
    #[must_use]
    pub fn state(&self) -> &HydroState {
        self.engine.global(&self.problem, &self.config).1
    }

    /// The solution at the cursor, borrowed from whichever side holds
    /// it — the one rank's live state, the restart state a team left or
    /// was resumed at, or the deck's initial fields a team that has not
    /// run keeps. What a digest or a plot of a distributed run needs
    /// without the global view [`Simulation::state`] would build.
    #[must_use]
    pub fn solution(&self) -> SolutionFields<'_> {
        let (rho, ein, u, nodes) = match &self.engine.exec {
            Exec::Serial { rank, .. } => (
                &rank.state.rho,
                &rank.state.ein,
                &rank.state.u,
                &rank.mesh.nodes,
            ),
            Exec::Team(team) => match &team.origin {
                Origin::Snapshot(s) => (&s.rho, &s.ein, &s.u, &s.nodes),
                Origin::Fields(f) => (&f.rho, &f.ein, &f.u, &self.problem.mesh.nodes),
            },
        };
        SolutionFields { rho, ein, u, nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decks;
    use crate::observer::{ConservationTracer, Shared};
    use bookleaf_ale::AleMode;
    use bookleaf_util::KernelId;

    #[test]
    fn sod_runs_and_conserves_energy() {
        let mut sim = Simulation::builder()
            .deck(decks::sod(40, 4))
            .final_time(0.05)
            .build()
            .unwrap();
        let s = sim.run().unwrap();
        assert!(s.steps > 10, "only {} steps", s.steps);
        assert!((s.time - 0.05).abs() < 1e-12, "time {}", s.time);
        assert!(s.energy_drift() < 1e-9, "drift {}", s.energy_drift());
        assert_eq!(s.ranks, 1);
        assert_eq!(s.comm.messages_sent, 0, "serial run sent messages?");
        let rho_max = sim.state().rho.iter().cloned().fold(0.0f64, f64::max);
        assert!(rho_max > 0.13, "no wave formed");
    }

    #[test]
    fn noh_forms_a_shock() {
        let mut sim = Simulation::builder()
            .deck(decks::noh(16))
            .final_time(0.1)
            .build()
            .unwrap();
        sim.run().unwrap();
        assert!(sim.state().rho[0] > 3.0, "rho[0] = {}", sim.state().rho[0]);
    }

    #[test]
    fn saltzmann_piston_compresses() {
        let mut sim = Simulation::builder()
            .deck(decks::saltzmann(40, 4))
            .final_time(0.1)
            .build()
            .unwrap();
        let s = sim.run().unwrap();
        assert!(s.steps > 0);
        let min_x = sim
            .mesh()
            .nodes
            .iter()
            .map(|p| p.x)
            .fold(f64::INFINITY, f64::min);
        assert!((min_x - 0.1).abs() < 0.02, "piston at {min_x}");
        let rho_max = sim.state().rho.iter().cloned().fold(0.0f64, f64::max);
        assert!(rho_max > 2.0, "rho_max = {rho_max}");
    }

    #[test]
    fn eulerian_ale_keeps_mesh_fixed() {
        let deck = decks::sod(30, 3);
        let x_ref = deck.mesh.nodes.clone();
        let mut sim = Simulation::builder()
            .deck(deck)
            .final_time(0.03)
            .ale(Some(AleOptions {
                mode: AleMode::Eulerian,
                frequency: 1,
            }))
            .build()
            .unwrap();
        sim.run().unwrap();
        for (n, p) in sim.mesh().nodes.iter().enumerate() {
            assert!(p.distance(x_ref[n]) < 1e-12, "node {n} wandered");
        }
        let m: f64 = sim.state().mass.iter().sum();
        let expect = 0.5 * 0.1 + 0.5 * 0.1 * 0.125;
        assert!((m - expect).abs() < 1e-9, "mass {m} vs {expect}");
    }

    #[test]
    fn timers_populate_table_two_buckets() {
        let mut sim = Simulation::builder()
            .deck(decks::noh(12))
            .final_time(0.02)
            .build()
            .unwrap();
        let s = sim.run().unwrap();
        for k in [
            KernelId::ViscForce,
            KernelId::GetAcc,
            KernelId::GetDt,
            KernelId::EosFused,
        ] {
            assert!(s.timers.calls(k) > 0, "{k:?} never timed");
        }
        // Viscosity and forces are one fused sweep per predictor and
        // corrector, timed as the two passes of the halo schedule (here
        // everything and nothing); the standalone buckets stay empty.
        assert_eq!(s.timers.calls(KernelId::ViscForce), 4 * s.steps as u64);
        assert_eq!(s.timers.calls(KernelId::GetQ), 0);
        assert_eq!(s.timers.calls(KernelId::GetForce), 0);
        assert_eq!(s.timers.calls(KernelId::GetAcc), 2 * s.steps as u64);
        // The four-kernel EOS chain never runs standalone inside the
        // lagstep: its time lands in the fused bucket.
        assert_eq!(s.timers.calls(KernelId::EosFused), 2 * s.steps as u64);
        assert_eq!(s.timers.calls(KernelId::GetGeom), 0);
    }

    #[test]
    fn max_steps_caps_the_run() {
        let mut sim = Simulation::builder()
            .deck(decks::sod(20, 2))
            .final_time(10.0)
            .max_steps(5)
            .build()
            .unwrap();
        let s = sim.run().unwrap();
        assert_eq!(s.steps, 5);
        assert!(s.time < 10.0);
    }

    #[test]
    fn final_time_hit_exactly() {
        let mut sim = Simulation::builder()
            .deck(decks::sod(20, 2))
            .final_time(0.01)
            .build()
            .unwrap();
        let s = sim.run().unwrap();
        assert!((s.time - 0.01).abs() < 1e-14);
    }

    #[test]
    fn builder_without_deck_is_rejected() {
        let err = Simulation::builder().final_time(0.1).build().unwrap_err();
        assert!(
            matches!(err, BookLeafError::Deck(DeckError::Config { .. })),
            "{err}"
        );
    }

    #[test]
    fn builder_validates_the_deck() {
        let mut deck = decks::sod(8, 2);
        deck.ein.truncate(3);
        let err = Simulation::builder().deck(deck).build().unwrap_err();
        assert!(
            matches!(err, BookLeafError::Deck(DeckError::Shape { .. })),
            "{err}"
        );
    }

    /// A distributed engine builds no global state, so the physical
    /// checks building one makes must still run: same typed error as
    /// serial, at `build()`.
    #[test]
    fn unphysical_decks_fail_at_build_under_every_executor() {
        let mut tangled = crate::scenario::noh_generic(8).build().unwrap();
        let centre = tangled.mesh.elnd[27][2] as usize;
        tangled.mesh.nodes[centre] = Vec2::new(-5.0, -5.0);
        let mut hollow = decks::sod(8, 2);
        hollow.rho[5] = f64::NAN;
        let hybrid = |ranks| ExecutorKind::Hybrid {
            ranks,
            threads_per_rank: 2,
        };
        let executors = [
            ExecutorKind::Serial,
            ExecutorKind::FlatMpi { ranks: 2 },
            hybrid(1),
            hybrid(2),
        ];
        for deck in [tangled, hollow] {
            let errors = executors.map(|executor| {
                let built = Simulation::builder()
                    .deck(deck.clone())
                    .executor(executor)
                    .build();
                built.expect_err("an unphysical deck built").to_string()
            });
            assert!(
                errors[0].contains("volume") || errors[0].contains("density"),
                "{}",
                errors[0]
            );
            for (executor, error) in executors.iter().zip(&errors) {
                assert_eq!(error, &errors[0], "{executor:?}");
            }
        }
    }

    /// The same for restart state that arrives from outside: a
    /// checkpoint whose nodes tangle the mesh never becomes an engine.
    #[test]
    fn tangled_restart_state_fails_at_build_under_every_executor() {
        let mut sim = Simulation::builder()
            .deck(decks::noh(8))
            .max_steps(2)
            .build()
            .unwrap();
        sim.run().unwrap();
        let mut ckpt = sim.checkpoint().unwrap();
        ckpt.snap.nodes[40] = Vec2::new(-5.0, -5.0);
        let errors = [ExecutorKind::Serial, ExecutorKind::FlatMpi { ranks: 2 }].map(|executor| {
            let built = Simulation::builder()
                .resume_from(ckpt.clone())
                .executor(executor)
                .build();
            let err = built.expect_err("a tangled checkpoint built");
            assert!(matches!(err, BookLeafError::NegativeVolume { .. }), "{err}");
            err.to_string()
        });
        assert_eq!(errors[1], errors[0]);
    }

    fn distributed_noh_builder(executor: ExecutorKind) -> SimulationBuilder {
        Simulation::builder()
            .deck(decks::noh(10))
            .final_time(1.0)
            .max_steps(8)
            .executor(executor)
    }

    fn distributed_noh(executor: ExecutorKind) -> Simulation {
        distributed_noh_builder(executor).build().unwrap()
    }

    fn view_built(sim: &Simulation) -> bool {
        match &sim.engine.exec {
            Exec::Team(team) => team.view.get().is_some(),
            Exec::Serial { .. } => panic!("a serial engine has no view"),
        }
    }

    /// A shape of no ranks or of no threads per rank is refused at
    /// `build()`, with one typed error naming the count that was zero.
    #[test]
    fn an_empty_executor_shape_is_a_typed_error() {
        for (executor, field) in [
            (ExecutorKind::FlatMpi { ranks: 0 }, "ranks"),
            (
                ExecutorKind::Hybrid {
                    ranks: 0,
                    threads_per_rank: 2,
                },
                "ranks",
            ),
            (
                ExecutorKind::Hybrid {
                    ranks: 1,
                    threads_per_rank: 0,
                },
                "threads_per_rank",
            ),
            (
                ExecutorKind::Hybrid {
                    ranks: 2,
                    threads_per_rank: 0,
                },
                "threads_per_rank",
            ),
        ] {
            let err = distributed_noh_builder(executor).build().unwrap_err();
            assert_eq!(err, BookLeafError::EmptyExecutor { field }, "{executor:?}");
        }
    }

    /// Every one-rank shape builds the serial engine — a hybrid rank of
    /// two threads with its pool of two — and reads its live state: no
    /// view to build, no message, no collective, and the report names
    /// the executor that was asked for.
    #[test]
    fn single_rank_executors_build_the_serial_engine() {
        let mut serial = distributed_noh(ExecutorKind::Serial);
        assert!(format!("{serial:?}").contains("exec: \"serial\""));
        serial.run().unwrap();
        let want = serial.checkpoint().unwrap().snap;
        let hybrid = ExecutorKind::Hybrid {
            ranks: 1,
            threads_per_rank: 2,
        };
        for (executor, debug) in [
            (ExecutorKind::FlatMpi { ranks: 1 }, "exec: \"serial\""),
            (hybrid, "exec: \"serial, 2 threads\""),
        ] {
            let mut sim = distributed_noh(executor);
            assert!(format!("{sim:?}").contains(debug), "{sim:?}");
            let report = sim.run_segment(4).unwrap();
            assert_eq!((report.executor, report.ranks), (executor, 1));
            assert_eq!(report.comm, CommStats::default(), "{executor:?}");
            let live: *const HydroState = sim.state();
            let Exec::Serial { rank, .. } = &sim.engine.exec else {
                panic!("{executor:?} built a team");
            };
            assert!(
                std::ptr::eq(live, &rank.state),
                "state() is not the live state"
            );
            sim.run().unwrap();
            assert_eq!(sim.checkpoint().unwrap().snap, want, "{executor:?}");
        }
    }

    /// Running, checkpointing and reading the solution of a distributed
    /// simulation never build the global state; asking for it does, and
    /// the next team drops it again.
    #[test]
    fn a_distributed_simulation_builds_its_global_view_only_on_request() {
        let mut sim = distributed_noh(ExecutorKind::FlatMpi { ranks: 2 });
        assert_eq!(sim.solution().rho, decks::noh(10).rho);
        sim.run_segment(4).unwrap();
        let ckpt = sim.checkpoint().unwrap();
        assert_eq!(sim.solution().rho, &ckpt.snap.rho[..]);
        assert!(!view_built(&sim), "run / checkpoint / solution built it");

        assert_eq!(sim.state().rho, ckpt.snap.rho);
        assert_eq!(sim.mesh().nodes, ckpt.snap.nodes);
        assert!(view_built(&sim));
        sim.run().unwrap();
        assert!(!view_built(&sim), "a stale view outlived the next team");
        assert_ne!(sim.state().rho, ckpt.snap.rho);
    }

    /// A simulation keeps the problem, not the deck's painted fields:
    /// before any run its solution is those fields, bit for bit, under
    /// every executor — a one-rank engine's painted state, a team's kept
    /// fields — and a one-rank engine holds no copy of them beside it.
    #[test]
    fn the_solution_before_any_run_is_the_decks_painted_fields() {
        let deck = decks::noh(10);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let node_bits = |v: &[Vec2]| bits(&v.iter().flat_map(|p| [p.x, p.y]).collect::<Vec<_>>());
        for executor in [
            ExecutorKind::Serial,
            ExecutorKind::FlatMpi { ranks: 1 },
            ExecutorKind::FlatMpi { ranks: 2 },
            ExecutorKind::Hybrid {
                ranks: 1,
                threads_per_rank: 2,
            },
        ] {
            let sim = distributed_noh(executor);
            let start = sim.solution();
            assert_eq!(bits(start.rho), bits(&deck.rho), "{executor:?}");
            assert_eq!(bits(start.ein), bits(&deck.ein), "{executor:?}");
            assert_eq!(node_bits(start.u), node_bits(&deck.u), "{executor:?}");
            assert_eq!(
                node_bits(start.nodes),
                node_bits(&deck.mesh.nodes),
                "{executor:?}"
            );
            if let Exec::Serial { rank, .. } = &sim.engine.exec {
                assert!(std::ptr::eq(start.rho, &rank.state.rho[..]), "{executor:?}");
            }
        }
    }

    /// A serial simulation is one rank with nobody to talk to: the
    /// whole-mesh rank behind `Exec::Serial`, stepped on the calling
    /// thread (every observer hook fires there, as a team of one), with
    /// no Typhon team behind it — not one message, not one collective.
    #[test]
    fn a_serial_simulation_is_one_rank_on_the_calling_thread() {
        #[derive(Default)]
        struct Where(Vec<(std::thread::ThreadId, usize)>);
        impl Observer for Where {
            fn step_end(&mut self, view: &crate::StepView<'_>) {
                self.0.push((std::thread::current().id(), view.n_ranks));
            }
        }
        let seen = Shared::new(Where::default());
        let mut sim = Simulation::builder()
            .deck(decks::noh(8))
            .max_steps(3)
            .observer(seen.clone())
            .build()
            .unwrap();
        let report = sim.run().unwrap();
        assert!(matches!(sim.engine.exec, Exec::Serial { pool: None, .. }));
        assert_eq!(seen.with(|w| w.0.len()), 3);
        let here = std::thread::current().id();
        assert!(seen.with(|w| w.0.iter().all(|&at| at == (here, 1))));
        assert_eq!((report.ranks, &report.comm), (1, &CommStats::default()));
    }

    /// A run of one rank steps the deck's own topology — built, resumed
    /// from checkpoint bytes, or rebuilt by a supervised rewind — and so
    /// does a team's global view: each mesh owns its nodes and shares
    /// everything else.
    #[test]
    fn every_engine_shares_the_decks_topology() {
        let shares = |sim: &Simulation, what: &str| {
            let (live, deck) = (sim.mesh(), &sim.deck().mesh);
            assert!(live.shares_topology(deck), "{what}");
            assert!(
                std::ptr::eq(live.face_stencil(), deck.face_stencil()),
                "{what}"
            );
        };
        for executor in [
            ExecutorKind::Serial,
            ExecutorKind::FlatMpi { ranks: 1 },
            ExecutorKind::Hybrid {
                ranks: 1,
                threads_per_rank: 2,
            },
            ExecutorKind::FlatMpi { ranks: 2 },
        ] {
            let mut sim = distributed_noh(executor);
            shares(&sim, &format!("{executor:?} built"));
            sim.run_segment(3).unwrap();
            assert_ne!(sim.mesh().nodes, sim.deck().mesh.nodes, "{executor:?}");
            shares(&sim, &format!("{executor:?} stepped"));

            let ckpt = sim.checkpoint().unwrap();
            let bytes = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
            let resumed = distributed_noh_builder(executor)
                .resume_from(bytes)
                .build()
                .unwrap();
            shares(&resumed, &format!("{executor:?} resumed"));
            sim.rewind_to(ckpt.snap).unwrap();
            shares(&sim, &format!("{executor:?} rewound"));
        }
    }

    /// A checkpoint streamed to a file is `checkpoint()?.to_bytes()`,
    /// byte for byte, whichever side holds the restart state: the one
    /// rank's live pair (serial, a hybrid rank of two threads, an
    /// Eulerian remap), a team's snapshot, or — a team that has never
    /// run — the view of the deck's initial state.
    #[test]
    fn a_streamed_checkpoint_file_is_the_checkpoint_bytes() {
        let dir = std::env::temp_dir().join(format!("bookleaf_streamed_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sim.ckpt");
        let same_bytes = |sim: &Simulation, what: &str| {
            sim.checkpoint_to(&path).unwrap();
            let file = std::fs::read(&path).unwrap();
            assert!(
                file == sim.checkpoint().unwrap().to_bytes(),
                "{what}: the file differs"
            );
        };
        let flat2 = ExecutorKind::FlatMpi { ranks: 2 };
        for executor in [
            ExecutorKind::Serial,
            flat2,
            ExecutorKind::Hybrid {
                ranks: 1,
                threads_per_rank: 2,
            },
        ] {
            let mut sim = distributed_noh(executor);
            sim.run_segment(3).unwrap();
            same_bytes(&sim, &format!("{executor:?}"));
        }
        same_bytes(&distributed_noh(flat2), "a team that has never run");
        let mut eulerian = Simulation::builder()
            .deck_str(include_str!("../../../examples/decks/sedov_ale.deck"))
            .build()
            .unwrap();
        eulerian.run_segment(3).unwrap();
        same_bytes(&eulerian, "the Eulerian sedov_ale deck");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Looking at the state between two segments is an observation: the
    /// trajectory does not move.
    #[test]
    fn reading_the_state_between_segments_does_not_move_the_trajectory() {
        let hybrid = |ranks| ExecutorKind::Hybrid {
            ranks,
            threads_per_rank: 2,
        };
        for executor in [ExecutorKind::FlatMpi { ranks: 2 }, hybrid(1), hybrid(2)] {
            let mut watched = distributed_noh(executor);
            let mut blind = distributed_noh(executor);
            let _ = watched.state();
            for sim in [&mut watched, &mut blind] {
                sim.run_segment(3).unwrap();
            }
            assert!(watched.state().rho.iter().all(|r| r.is_finite()));
            for sim in [&mut watched, &mut blind] {
                sim.run().unwrap();
            }
            let (a, b) = (watched.checkpoint().unwrap(), blind.checkpoint().unwrap());
            assert_eq!(a.to_bytes(), b.to_bytes(), "{executor:?}");
        }
    }

    #[test]
    fn deck_str_options_flow_into_config_and_setters_override() {
        let text = "problem = sod\nnx = 16\nny = 2\n\n[control]\nfinal_time = 0.07\n";
        let sim = Simulation::builder().deck_str(text).build().unwrap();
        assert!((sim.config().final_time - 0.07).abs() < 1e-15);
        assert!(sim.input_deck().is_some());

        let sim = Simulation::builder()
            .deck_str(text)
            .final_time(0.01)
            .build()
            .unwrap();
        assert!((sim.config().final_time - 0.01).abs() < 1e-15);
    }

    #[test]
    fn deck_str_parse_errors_are_line_anchored() {
        let err = Simulation::builder()
            .deck_str("problem = sod\nnx = 16\nny = nope\n")
            .build()
            .unwrap_err();
        assert!(
            matches!(err, BookLeafError::Deck(DeckError::Text { line: 3, .. })),
            "{err}"
        );
    }

    #[test]
    fn observers_do_not_perturb_the_physics() {
        let run = |observed: bool| {
            let mut b = Simulation::builder()
                .deck(decks::sod(20, 2))
                .final_time(0.01);
            if observed {
                b = b.observer(ConservationTracer::new());
            }
            let mut sim = b.build().unwrap();
            sim.run().unwrap();
            sim.state().rho.clone()
        };
        let plain = run(false);
        let watched = run(true);
        for (e, (a, b)) in plain.iter().zip(&watched).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "observer moved a bit at {e}");
        }
    }
}
