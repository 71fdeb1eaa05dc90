//! The observer pipeline: step-level instrumentation hooks for every
//! executor.
//!
//! A [`Simulation`](crate::Simulation) carries a set of [`Observer`]s.
//! The run loop fires them at three points — run begin, the end of
//! every step, run end — with a read-only [`StepView`] of the clock,
//! the mesh and state, and (on request) communication counters and the
//! global energy. The same hooks fire under the serial, flat-MPI and
//! hybrid executors, so diagnostics written once work everywhere;
//! under the distributed executors every *rank* fires the hooks with
//! its local partition view (`view.rank`/`view.n_ranks` tell an
//! observer where it is, and rank-0 gating is the usual idiom for
//! global diagnostics).
//!
//! Observers are strictly read-only: they can never perturb the
//! physics, so a run with observers is bitwise identical to one
//! without. Quantities that require communication (the global energy)
//! are provided *by the loop*, symmetrically on every rank, precisely
//! because an observer body must never call a collective itself — rank
//! A could be inside observer 1 while rank B is inside observer 2, and
//! a collective issued from behind an observer's lock would deadlock
//! the team. Declare what you need in [`Observer::needs`] instead.
//!
//! Shipped observers: [`ConservationTracer`] (global energy per step),
//! [`DtHistory`] (time-step record), [`FrameDumper`] (VTK time series),
//! [`ProgressLogger`] (periodic one-line status). To keep access to an
//! observer after handing it to the builder, wrap it in [`Shared`] and
//! keep a clone.

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use bookleaf_hydro::{HydroState, LocalRange};
use bookleaf_mesh::Mesh;
use bookleaf_typhon::CommStats;

/// Which loop-provided quantities an observer wants computed.
///
/// The union over a simulation's observers is taken **once**, before
/// the run starts, and drives the same extra work on every rank (a
/// per-step global-energy reduction is a collective; all ranks must
/// issue it or none). An observer's answer must therefore be constant
/// over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObserverNeeds {
    /// Compute the global total energy (internal + kinetic, every
    /// partition counted once) at each step end — one extra
    /// `allreduce_sum` per step in distributed runs.
    pub global_energy: bool,
    /// Snapshot this rank's [`CommStats`] into every view.
    pub comm_stats: bool,
}

impl ObserverNeeds {
    /// Union of two need sets.
    #[must_use]
    fn union(self, other: ObserverNeeds) -> ObserverNeeds {
        ObserverNeeds {
            global_energy: self.global_energy || other.global_energy,
            comm_stats: self.comm_stats || other.comm_stats,
        }
    }
}

/// Read-only view handed to every observer hook.
///
/// `mesh`/`state`/`range` are this rank's partition (the whole problem
/// for the serial executor). At run begin/end `step` is the cursor's
/// step count and `time` its time; at `step_end` `step` is the 0-based
/// index of the step that finished and `time` that step's end time.
pub struct StepView<'a> {
    /// 0-based step index.
    pub step: usize,
    /// Simulated time at this hook point.
    pub time: f64,
    /// The step's dt (0 before the first step of a run).
    pub dt: f64,
    /// This rank's mesh.
    pub mesh: &'a Mesh,
    /// This rank's state.
    pub state: &'a HydroState,
    /// Owned extents within `mesh`/`state`.
    pub range: LocalRange,
    /// This rank's id (0 for serial).
    pub rank: usize,
    /// Team size (1 for serial).
    pub n_ranks: usize,
    /// This rank's communication counters so far; present when some
    /// observer asked via [`ObserverNeeds::comm_stats`].
    pub comm: Option<CommStats>,
    /// Global total energy; present when some observer asked via
    /// [`ObserverNeeds::global_energy`].
    /// Identical on every rank.
    pub global_energy: Option<f64>,
}

/// Step-level instrumentation attached to a `Simulation`.
///
/// All hooks have empty defaults — implement the ones you care about.
/// Observers must be `Send` (distributed executors fire them from rank
/// threads) and must treat the view as read-only.
pub trait Observer: Send {
    /// Which loop-provided extras this observer wants (constant).
    fn needs(&self) -> ObserverNeeds {
        ObserverNeeds::default()
    }

    /// The run is about to start (or resume); `view.step` is the
    /// cursor's step count (0 for a fresh run).
    fn run_begin(&mut self, _view: &StepView<'_>) {}

    /// The step finished; `view.time` includes the step's dt.
    fn step_end(&mut self, _view: &StepView<'_>) {}

    /// The run loop stopped (final time, step cap, or pause point).
    fn run_end(&mut self, _view: &StepView<'_>) {}
}

/// A clonable, lockable observer wrapper: register one clone with the
/// builder, keep another to read results after the run.
///
/// ```
/// use bookleaf_core::{ConservationTracer, Shared, Simulation, decks};
///
/// let tracer = Shared::new(ConservationTracer::new());
/// let mut sim = Simulation::builder()
///     .deck(decks::sod(20, 2))
///     .final_time(0.01)
///     .observer(tracer.clone())
///     .build()
///     .unwrap();
/// sim.run().unwrap();
/// assert!(tracer.with(|t| t.samples().len()) > 1);
/// ```
///
/// A hook that panicked leaves the observer readable: the lock recovers
/// from poisoning, so what it recorded up to the panic can still be
/// inspected.
pub struct Shared<O>(Arc<Mutex<O>>);

impl<O> Shared<O> {
    /// Wrap an observer for shared access.
    pub fn new(observer: O) -> Self {
        Shared(Arc::new(Mutex::new(observer)))
    }

    /// Run `f` with the observer locked.
    pub fn with<R>(&self, f: impl FnOnce(&mut O) -> R) -> R {
        f(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl<O> Clone for Shared<O> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<O: Observer> Observer for Shared<O> {
    fn needs(&self) -> ObserverNeeds {
        self.with(|o| o.needs())
    }
    fn run_begin(&mut self, view: &StepView<'_>) {
        self.with(|o| o.run_begin(view));
    }
    fn step_end(&mut self, view: &StepView<'_>) {
        self.with(|o| o.step_end(view));
    }
    fn run_end(&mut self, view: &StepView<'_>) {
        self.with(|o| o.run_end(view));
    }
}

/// The simulation's observer collection, borrowed by every rank thread.
///
/// Each observer sits behind its own mutex; ranks fire hooks in
/// registration order, locking one observer at a time, so per-observer
/// state stays consistent without serialising the whole team. Observer
/// code runs under these locks, so they recover from poisoning: a rank
/// that reaches an observer another rank's panic poisoned carries on
/// instead of panicking too.
#[derive(Default)]
pub struct ObserverSet {
    observers: Vec<Mutex<Box<dyn Observer>>>,
    needs: ObserverNeeds,
}

impl std::fmt::Debug for ObserverSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserverSet")
            .field("len", &self.observers.len())
            .field("needs", &self.needs)
            .finish()
    }
}

impl ObserverSet {
    /// Build a set, capturing the union of the observers' needs.
    #[must_use]
    pub fn new(observers: Vec<Box<dyn Observer>>) -> Self {
        let needs = observers
            .iter()
            .fold(ObserverNeeds::default(), |acc, o| acc.union(o.needs()));
        ObserverSet {
            observers: observers.into_iter().map(Mutex::new).collect(),
            needs,
        }
    }

    /// No observers registered?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }

    /// Union of the registered observers' needs.
    #[must_use]
    pub fn needs(&self) -> ObserverNeeds {
        self.needs
    }

    /// Call `hook` on every observer in registration order.
    pub fn each(&self, mut hook: impl FnMut(&mut dyn Observer)) {
        for o in &self.observers {
            hook(&mut **o.lock().unwrap_or_else(PoisonError::into_inner));
        }
    }
}

// ---------------------------------------------------------------------------
// Shipped observers.

/// One global-energy sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergySample {
    /// Step count when the sample was taken (0 = before the first step).
    pub step: usize,
    /// Simulated time.
    pub time: f64,
    /// Global total energy (internal + kinetic).
    pub energy: f64,
}

/// Records the global total energy at run begin and after every step —
/// the conservation audit trail of the compatible discretisation.
/// Records on rank 0 only (the reduced energy is identical everywhere).
#[derive(Debug, Default)]
pub struct ConservationTracer {
    samples: Vec<EnergySample>,
}

impl ConservationTracer {
    /// New, empty tracer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded samples, in step order.
    #[must_use]
    pub fn samples(&self) -> &[EnergySample] {
        &self.samples
    }

    /// Largest relative drift of any sample from the first.
    #[must_use]
    pub fn max_drift(&self) -> f64 {
        let Some(first) = self.samples.first() else {
            return 0.0;
        };
        if first.energy == 0.0 {
            return 0.0;
        }
        self.samples
            .iter()
            .map(|s| ((s.energy - first.energy) / first.energy).abs())
            .fold(0.0, f64::max)
    }

    fn record(&mut self, view: &StepView<'_>, step: usize) {
        if view.rank != 0 {
            return;
        }
        // A resumed run fires run_begin again at the pause step: skip
        // the duplicate sample.
        if self.samples.last().map(|s| s.step) == Some(step) {
            return;
        }
        if let Some(energy) = view.global_energy {
            self.samples.push(EnergySample {
                step,
                time: view.time,
                energy,
            });
        }
    }
}

impl Observer for ConservationTracer {
    fn needs(&self) -> ObserverNeeds {
        ObserverNeeds {
            global_energy: true,
            ..ObserverNeeds::default()
        }
    }
    fn run_begin(&mut self, view: &StepView<'_>) {
        // The run is (re)starting from `view.step`: drop any samples a
        // previous trajectory recorded beyond it — a supervised rewind
        // to an earlier checkpoint abandons the samples past the rewind
        // point, keeping `samples()` in step order on one consistent
        // trajectory; a plain continuation drops nothing.
        if view.rank == 0 {
            self.samples.retain(|s| s.step <= view.step);
        }
        self.record(view, view.step);
    }
    fn step_end(&mut self, view: &StepView<'_>) {
        self.record(view, view.step + 1);
    }
}

/// One time-step sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtSample {
    /// 0-based step index.
    pub step: usize,
    /// Simulated time at the step's end.
    pub time: f64,
    /// The step's dt.
    pub dt: f64,
}

/// Records every step's (globally reduced) dt. Records on rank 0 only —
/// the dt is identical on every rank by construction.
#[derive(Debug, Default)]
pub struct DtHistory {
    samples: Vec<DtSample>,
}

impl DtHistory {
    /// New, empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded samples, in step order.
    #[must_use]
    pub fn samples(&self) -> &[DtSample] {
        &self.samples
    }

    /// Smallest dt taken (∞ when no steps ran).
    #[must_use]
    pub fn min_dt(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.dt)
            .fold(f64::INFINITY, f64::min)
    }
}

impl Observer for DtHistory {
    fn run_begin(&mut self, view: &StepView<'_>) {
        // The run is (re)starting from `view.step`: the steps about to
        // execute are `view.step..`, so drop any samples a previous
        // trajectory recorded for them — a supervised rewind abandons
        // the samples past the checkpoint, and a plain continuation
        // (nothing recorded past the pause step) keeps accumulating.
        if view.rank == 0 {
            self.samples.retain(|s| s.step < view.step);
        }
    }

    fn step_end(&mut self, view: &StepView<'_>) {
        if view.rank == 0 {
            self.samples.push(DtSample {
                step: view.step,
                time: view.time,
                dt: view.dt,
            });
        }
    }
}

/// Writes a VTK time series of the (rank-local) solution: a frame at
/// run begin and after every `every`-th step, plus the final state.
///
/// Under distributed executors each rank writes its own partition piece
/// with a `.r<rank>` infix — the standard per-rank-piece convention of
/// MPI visualisation dumps. I/O errors do not abort the run; the first
/// one is retained in [`FrameDumper::error`].
#[derive(Debug)]
pub struct FrameDumper {
    dir: PathBuf,
    prefix: String,
    every: usize,
    written: Vec<PathBuf>,
    error: Option<String>,
}

impl FrameDumper {
    /// Dump into `dir` (created on first write) as
    /// `<prefix>_step<NNNNNN>[.r<rank>].vtk`, every `every` steps.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, prefix: impl Into<String>, every: usize) -> Self {
        FrameDumper {
            dir: dir.into(),
            prefix: prefix.into(),
            every: every.max(1),
            written: Vec::new(),
            error: None,
        }
    }

    /// Paths written so far (this rank's pieces only).
    #[must_use]
    pub fn written(&self) -> &[PathBuf] {
        &self.written
    }

    /// The first I/O error hit, if any.
    #[must_use]
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    fn frame_path(&self, step: usize, view: &StepView<'_>) -> PathBuf {
        let rank_part = if view.n_ranks > 1 {
            format!(".r{}", view.rank)
        } else {
            String::new()
        };
        self.dir
            .join(format!("{}_step{step:06}{rank_part}.vtk", self.prefix))
    }

    fn dump(&mut self, step: usize, view: &StepView<'_>) {
        let path = self.frame_path(step, view);
        // Always write: frames are deterministic, so rewriting a path
        // (the final frame coinciding with a periodic one; a continued
        // run's first frame coinciding with the paused run's last) is an
        // idempotent overwrite — and it recreates files the user may
        // have moved away between runs. Only the bookkeeping dedups.
        let result = std::fs::create_dir_all(&self.dir).and_then(|()| {
            let file = std::fs::File::create(&path)?;
            let mut w = std::io::BufWriter::new(file);
            crate::output::write_vtk(
                &mut w,
                view.mesh,
                view.state,
                &format!("{} t={:.6}", self.prefix, view.time),
            )
        });
        match result {
            Ok(()) => {
                if !self.written.contains(&path) {
                    self.written.push(path);
                }
            }
            Err(e) => {
                if self.error.is_none() {
                    self.error = Some(format!("{}: {e}", path.display()));
                }
            }
        }
    }
}

impl Observer for FrameDumper {
    fn run_begin(&mut self, view: &StepView<'_>) {
        self.dump(view.step, view);
    }
    fn step_end(&mut self, view: &StepView<'_>) {
        if (view.step + 1).is_multiple_of(self.every) {
            self.dump(view.step + 1, view);
        }
    }
    fn run_end(&mut self, view: &StepView<'_>) {
        self.dump(view.step, view);
    }
}

/// Prints a one-line status every `every` steps (rank 0 only), with
/// rank 0's sent-message count when available (per-rank counters; the
/// team-merged totals arrive in the final `RunReport`).
pub struct ProgressLogger {
    every: usize,
    out: std::io::Stdout,
}

impl ProgressLogger {
    /// Log to stdout.
    #[must_use]
    pub fn stdout(every: usize) -> Self {
        ProgressLogger {
            every: every.max(1),
            out: std::io::stdout(),
        }
    }
}

impl Observer for ProgressLogger {
    fn needs(&self) -> ObserverNeeds {
        ObserverNeeds {
            comm_stats: true,
            ..ObserverNeeds::default()
        }
    }

    fn step_end(&mut self, view: &StepView<'_>) {
        if view.rank != 0 || !(view.step + 1).is_multiple_of(self.every) {
            return;
        }
        let comms = view
            .comm
            .as_ref()
            .map(|c| format!("  msgs = {}", c.messages_sent))
            .unwrap_or_default();
        let _ = writeln!(
            self.out,
            "step {:>7}  t = {:<12.6}  dt = {:.3e}{comms}",
            view.step + 1,
            view.time,
            view.dt,
        );
    }

    fn run_end(&mut self, view: &StepView<'_>) {
        if view.rank == 0 {
            let _ = writeln!(
                self.out,
                "run finished: {} steps, t = {:.6}",
                view.step, view.time
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_union_is_fieldwise_or() {
        let a = ObserverNeeds {
            global_energy: true,
            comm_stats: false,
        };
        let b = ObserverNeeds {
            global_energy: false,
            comm_stats: true,
        };
        let u = a.union(b);
        assert!(u.global_energy && u.comm_stats);
    }

    #[test]
    fn set_captures_need_union() {
        let set = ObserverSet::new(vec![
            Box::new(ConservationTracer::new()),
            Box::new(DtHistory::new()),
        ]);
        assert!(set.needs().global_energy);
        assert!(!set.needs().comm_stats);
    }

    #[test]
    fn tracer_max_drift_over_samples() {
        let mut t = ConservationTracer::new();
        t.samples = vec![
            EnergySample {
                step: 0,
                time: 0.0,
                energy: 2.0,
            },
            EnergySample {
                step: 1,
                time: 0.1,
                energy: 2.1,
            },
            EnergySample {
                step: 2,
                time: 0.2,
                energy: 1.9,
            },
        ];
        assert!((t.max_drift() - 0.05).abs() < 1e-12);
        assert_eq!(ConservationTracer::new().max_drift(), 0.0);
    }

    #[test]
    fn shared_observer_delegates_needs() {
        let shared = Shared::new(ConservationTracer::new());
        assert!(Observer::needs(&shared).global_energy);
        let set = ObserverSet::new(vec![Box::new(shared.clone())]);
        assert!(set.needs().global_energy);
    }
}
