//! Resilient execution: verified checkpoint stores and supervised
//! elastic recovery.
//!
//! A long hydro run dies for mundane reasons — a node is drained, a NIC
//! flakes, a rank is OOM-killed. This module turns those deaths from
//! lost runs into bounded replays, built on two pieces:
//!
//! * [`CheckpointStore`] — atomically-written checkpoints with verified
//!   readback, keeping the one file it last verified. Every write goes
//!   through the tmp+fsync+rename path of
//!   [`Simulation::checkpoint_to`], which streams the file in one pass
//!   from the restart state where the simulation holds it (a fixed
//!   staging buffer and a running CRC, no copy of the state and no
//!   whole-file buffer), and is re-read and verified before it counts;
//!   only then is the file it replaces deleted. A checkpoint that fails
//!   its own readback is deleted and reported as a warning
//!   ([`SaveOutcome::Rejected`]), never silently trusted.
//! * [`Simulation::run_resilient`] — the supervisor. It saves the state
//!   it was handed, drives [`Simulation::run_segment`] in segments of
//!   `checkpoint_every_steps` (the same bitwise continuation contract
//!   every executor honours, so supervision moves no bits), saves each
//!   segment boundary, and on any typed failure — an injected or real
//!   [`bookleaf_util::CommError`] (a team reports its cause, at once: a
//!   killed rank's `Killed`, not its waiting peers' errors), a sentinel
//!   [`bookleaf_util::BookLeafError::Unhealthy`] abort — rewinds to the
//!   last file it verified, optionally **reshapes** the executor (a
//!   dead node means fewer ranks: [`ReshapePolicy::Halve`]) and retries
//!   at once, within a bounded budget. It asks its store for that
//!   file's path: a rewind reads it back
//!   ([`crate::Checkpoint::read_from`], as `--resume` does a serve
//!   drain's file) and rebuilds the engine
//!   through the same constructor and [`crate::Snapshot`] installer a
//!   builder resume uses, so elastic recovery falls out of the portable
//!   restart state: a 4-rank segment's checkpoint continues unchanged
//!   on 2 ranks.
//!
//! Everything the supervisor records ([`RecoveryLog`],
//! [`RecoveryEvent`]) is a pure function of the run and its fault
//! schedule — rank ids, scheduled steps, typed error text; no
//! wall-clock values — so two executions of the same
//! [`bookleaf_typhon::FaultPlan`] produce byte-identical recovery logs.
//! That determinism is what the CI fault matrix pins.
//!
//! ```no_run
//! use bookleaf_core::{decks, ExecutorKind, RecoveryPolicy, ReshapePolicy, Simulation};
//!
//! let mut sim = Simulation::builder()
//!     .deck(decks::noh(16))
//!     .executor(ExecutorKind::FlatMpi { ranks: 4 })
//!     .final_time(0.1)
//!     .build()
//!     .unwrap();
//! let policy = RecoveryPolicy {
//!     checkpoint_every_steps: 25,
//!     reshape: ReshapePolicy::Halve,
//!     ..RecoveryPolicy::new("ckpt_dir")
//! };
//! let report = sim.run_resilient(&policy).unwrap();
//! for event in &report.recovery.events {
//!     println!("survived: {}", event.error);
//! }
//! ```

use std::path::{Path, PathBuf};

use bookleaf_util::{BookLeafError, CheckpointError, CommError, Result};

use crate::config::ExecutorKind;
use crate::output::Checkpoint;
use crate::report::RunReport;
use crate::sim::Simulation;

// ---------------------------------------------------------------------------
// CheckpointStore: atomic writes, verified readback, one file kept.

/// What a [`CheckpointStore::save`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaveOutcome {
    /// The checkpoint was written atomically, read back, verified, and
    /// now lives at this path.
    Written(PathBuf),
    /// The checkpoint was written but failed its verification readback;
    /// the file was deleted so it can never be resumed from. The run
    /// keeps going — a rejected rewind point is a warning, not an
    /// abort.
    Rejected {
        /// Where the rejected file briefly lived.
        path: PathBuf,
        /// Why the readback failed.
        reason: String,
    },
}

/// Checkpoints in a directory with atomic writes and verified readback,
/// keeping the one file this store last verified.
///
/// Files are named `<prefix>_step<NNNNNNNNNN>.ckpt` (step number, zero
/// padded so lexicographic order is step order). [`CheckpointStore::save`]
/// writes a simulation's checkpoint through the atomic
/// [`Simulation::checkpoint_to`] path, re-reads and fully re-parses the
/// file (magic, version, CRC, deck text, shape against the saving run's
/// mesh — the embedded deck is not built), and only then deletes the
/// file it last verified — a bad write can therefore never evict a good
/// rewind point. The store never lists its directory: it deletes only
/// the file it replaced, so a shared directory keeps every other run's
/// files. The write is one
/// pass from the restart state where the simulation holds it: its fields
/// are encoded through a fixed 64 KiB staging buffer into the file as a
/// running CRC folds them, so saving holds no copy of the state and no
/// whole-file byte buffer.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    prefix: String,
    /// The file the last verified save wrote.
    last: Option<PathBuf>,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created on first save), naming its
    /// files after `prefix`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, prefix: impl Into<String>) -> Self {
        CheckpointStore {
            dir: dir.into(),
            prefix: prefix.into(),
            last: None,
        }
    }

    /// The file the last verified save wrote, if any save verified.
    pub(crate) fn last(&self) -> Option<&Path> {
        self.last.as_deref()
    }

    /// The file path a given step's checkpoint lives at.
    fn path_for(&self, step: u64) -> PathBuf {
        self.dir
            .join(format!("{}_step{step:010}.ckpt", self.prefix))
    }

    /// Atomically write `sim`'s checkpoint at its cursor, verify it by
    /// reading it back, then delete the file the previous verified save
    /// wrote (unless this save wrote the same path).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the directory cannot be created or
    /// the atomic write itself fails, and whatever
    /// [`Simulation::checkpoint_to`] refuses (a hand-assembled deck). A
    /// checkpoint that *writes* but fails verification is not an error:
    /// the file is deleted and [`SaveOutcome::Rejected`] reports why.
    pub fn save(&mut self, sim: &Simulation) -> Result<SaveOutcome> {
        std::fs::create_dir_all(&self.dir).map_err(|e| CheckpointError::Io {
            path: self.dir.display().to_string(),
            message: e.to_string(),
        })?;
        let path = self.path_for(sim.cursor().steps as u64);
        sim.checkpoint_to(&path)?;
        // Trust nothing until the file on disk proves it can be resumed
        // from: full re-parse, not just a byte compare, and the state's
        // shape against the mesh this run steps.
        let readback =
            Checkpoint::read_from(&path).and_then(|ckpt| ckpt.snap.check_shape(&sim.deck().mesh));
        if let Err(e) = readback {
            let _ = std::fs::remove_file(&path);
            return Ok(SaveOutcome::Rejected {
                path,
                reason: e.to_string(),
            });
        }
        // Only a verified write earns the right to evict the file it
        // replaces.
        if let Some(old) = self.last.replace(path.clone()) {
            if old != path {
                let _ = std::fs::remove_file(&old);
            }
        }
        Ok(SaveOutcome::Written(path))
    }
}

// ---------------------------------------------------------------------------
// Supervised recovery.

/// How the executor reshapes when a retry follows a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReshapePolicy {
    /// Retry on the same executor shape.
    Keep,
    /// Halve the rank count on each retry (never below one rank) —
    /// the "a node died, run on what's left" policy.
    Halve,
}

impl ReshapePolicy {
    /// The executor shape a retry should use, given the one that
    /// failed.
    #[must_use]
    fn apply(self, current: ExecutorKind) -> ExecutorKind {
        match self {
            ReshapePolicy::Keep => current,
            ReshapePolicy::Halve => match current {
                ExecutorKind::Serial => ExecutorKind::Serial,
                ExecutorKind::FlatMpi { ranks } => ExecutorKind::FlatMpi {
                    ranks: (ranks / 2).max(1),
                },
                ExecutorKind::Hybrid {
                    ranks,
                    threads_per_rank,
                } => ExecutorKind::Hybrid {
                    ranks: (ranks / 2).max(1),
                    threads_per_rank,
                },
            },
        }
    }
}

/// How [`Simulation::run_resilient`] supervises a run.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Directory the supervisor's [`CheckpointStore`] writes into.
    pub dir: PathBuf,
    /// Segment length: checkpoint every this many steps. `0` means a
    /// single unsegmented attempt (still retried from the start).
    pub checkpoint_every_steps: usize,
    /// How many failed attempts the supervisor absorbs before giving
    /// up and returning the last error.
    pub max_retries: usize,
    /// Executor reshaping applied on each retry.
    pub reshape: ReshapePolicy,
}

impl RecoveryPolicy {
    /// A policy checkpointing into `dir`, with defaults: checkpoint
    /// every 50 steps, 3 retries, no reshaping.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        RecoveryPolicy {
            dir: dir.into(),
            checkpoint_every_steps: 50,
            max_retries: 3,
            reshape: ReshapePolicy::Keep,
        }
    }
}

/// One supervised failure and the retry that answered it.
///
/// Every field is deterministic — attempt indices, step counts, the
/// typed error's text, the chosen executor — so logs from two runs of
/// the same fault schedule compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// The attempt index that failed (the builder's starting attempt
    /// for the first failure, incrementing per retry).
    pub attempt: usize,
    /// The step the retry rewound to: the last checkpoint file this run
    /// verified (its starting state's until a segment boundary's is).
    pub from_step: usize,
    /// The typed error, rendered. [`bookleaf_util::CommError`] and the
    /// sentinel diagnoses carry no wall-clock fields, so this text is
    /// stable across runs.
    pub error: String,
    /// The executor shape the retry ran on.
    pub retry_executor: ExecutorKind,
}

/// The supervisor's account of a resilient run; carried on
/// [`RunReport::recovery`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryLog {
    /// One entry per absorbed failure, in order.
    pub events: Vec<RecoveryEvent>,
    /// Steps re-executed after rewinds, summed over the events whose
    /// error names the step it struck at. A scheduled rank death does,
    /// and a failed team reports it, not the peer-loss errors its
    /// survivors saw; an error that names no step is not guessed at.
    pub steps_replayed: usize,
    /// Non-fatal supervision warnings (e.g. a checkpoint that
    /// failed its verification readback and was skipped).
    pub warnings: Vec<String>,
}

impl RecoveryLog {
    /// How many retries the supervisor performed.
    #[must_use]
    pub fn retries(&self) -> usize {
        self.events.len()
    }
}

impl Simulation {
    /// Run to the configured final time under supervision: segmented
    /// execution with checkpoints at the start and at segment
    /// boundaries, and — on any typed failure — rewind to the last
    /// checkpoint file this run verified, optional
    /// executor reshape, and an immediate retry within
    /// `policy.max_retries`. Nothing waits between attempts: a rewind
    /// restores the state the retry needs, and what a retry could
    /// wait for (a peer, a message) is waited on where it is received.
    ///
    /// The returned report's [`RunReport::recovery`] log records every
    /// absorbed fault deterministically (see [`RecoveryLog`]). A
    /// recovered run continues the *same trajectory*: segment
    /// checkpoints capture the full restart state, so replaying a
    /// segment from one reproduces the uninterrupted run bitwise on the
    /// same executor shape, and to solver tolerance across shapes.
    ///
    /// Requires a checkpointable deck (one built from a problem spec or
    /// an input deck — the same constraint as
    /// [`Simulation::checkpoint_to`]).
    ///
    /// # Errors
    ///
    /// The last attempt's error once the retry budget is exhausted, or
    /// any checkpoint-store I/O error (failing to write a rewind point,
    /// the starting state's included, or to read one back is itself a
    /// fault the supervisor cannot absorb). A failure before any file
    /// was verified has nothing to rewind to and is returned as is. When the
    /// simulation's [`crate::RunConfig::deadline`] is set (see
    /// [`crate::SimulationBuilder::deadline`]), a segment that outlives
    /// it returns a typed [`BookLeafError::DeadlineExceeded`], which
    /// ends supervision at once: a deadline does not un-expire, so a
    /// retry could only fail the same way.
    pub fn run_resilient(&mut self, policy: &RecoveryPolicy) -> Result<RunReport> {
        // The rewind target is the store's last verified file: never a
        // listing of the directory, which may hold newer files of
        // another run. The state handed over is saved as a segment's end
        // is, before the first segment runs.
        let mut store = CheckpointStore::new(&policy.dir, "auto");
        let base_attempt = self.typhon.attempt;
        let mut log = RecoveryLog::default();
        let mut failures = 0usize;
        let mut result: Result<Option<RunReport>> = Ok(None);
        loop {
            match result {
                Ok(report) => {
                    if let SaveOutcome::Rejected { path, reason } = store.save(self)? {
                        log.warnings.push(format!(
                            "checkpoint at step {} skipped: {} failed readback: {reason}",
                            self.cursor().steps,
                            path.display()
                        ));
                    }
                    if let Some(mut report) = report.filter(|_| self.complete()) {
                        self.typhon.attempt = base_attempt;
                        report.recovery = log;
                        return Ok(report);
                    }
                }
                Err(err) => {
                    let expired = matches!(err, BookLeafError::DeadlineExceeded { .. });
                    let path = match store.last() {
                        Some(path) if !expired && failures < policy.max_retries => path,
                        _ => {
                            self.typhon.attempt = base_attempt;
                            return Err(err);
                        }
                    };
                    let snap = Checkpoint::read_from(path)?.snap;
                    let from_step = snap.steps as usize;
                    if let BookLeafError::CommFault(CommError::Killed { step, .. }) = &err {
                        log.steps_replayed += step.saturating_sub(from_step);
                    }
                    let retry_executor = policy.reshape.apply(self.config().executor);
                    log.events.push(RecoveryEvent {
                        attempt: base_attempt + failures,
                        from_step,
                        error: err.to_string(),
                        retry_executor,
                    });
                    failures += 1;
                    self.config_mut().executor = retry_executor;
                    self.rewind_to(snap)?;
                }
            }
            self.typhon.attempt = base_attempt + failures;
            result = match policy.checkpoint_every_steps {
                0 => self.run(),
                every => self.run_segment(every),
            }
            .map(Some);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decks;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bookleaf_resilience_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn noh_at(step: u64) -> Simulation {
        let mut sim = Simulation::builder()
            .deck(decks::noh(8))
            .final_time(1.0)
            .max_steps(step as usize)
            .build()
            .unwrap();
        sim.run().unwrap();
        sim
    }

    #[test]
    fn store_names_are_step_ordered() {
        let store = CheckpointStore::new("/tmp/x", "auto");
        let a = store.path_for(7);
        let b = store.path_for(1234);
        assert!(a.to_string_lossy() < b.to_string_lossy());
        assert!(a.to_string_lossy().ends_with("auto_step0000000007.ckpt"));
    }

    #[test]
    fn a_verified_save_deletes_only_the_file_it_replaces() {
        let dir = tmp_dir("replace_last");
        std::fs::create_dir_all(&dir).unwrap();
        // Another run's file, named as this store would name its own.
        let foreign = dir.join("auto_step0000000001.ckpt");
        std::fs::write(&foreign, b"another run's checkpoint").unwrap();
        let mut store = CheckpointStore::new(&dir, "auto");
        for step in [2u64, 4, 6] {
            assert!(matches!(
                store.save(&noh_at(step)).unwrap(),
                SaveOutcome::Written(_)
            ));
        }
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            ["auto_step0000000001.ckpt", "auto_step0000000006.ckpt"],
            "the foreign file and the last verified save, nothing else"
        );
        let last = store.last().expect("a verified save");
        assert_eq!(Checkpoint::read_from(last).unwrap().snap.steps, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_expired_deadline_ends_supervision_at_once() {
        use crate::observer::{Observer, Shared, StepView};
        use bookleaf_typhon::FaultPlan;

        /// Counts run-loop starts: one per rank per attempt.
        struct Starts(usize);
        impl Observer for Starts {
            fn run_begin(&mut self, _: &StepView<'_>) {
                self.0 += 1;
            }
        }

        let dir = tmp_dir("deadline");
        let deadline = std::time::Instant::now();
        let starts = Shared::new(Starts(0));
        let mut sim = Simulation::builder()
            .deck(decks::noh(8))
            .executor(ExecutorKind::FlatMpi { ranks: 2 })
            .final_time(1.0)
            .max_steps(10)
            .fault_plan(FaultPlan::new().kill(0, 1))
            .deadline(deadline)
            .observer(starts.clone())
            .build()
            .unwrap();
        // The kill fires at the first step's reduction, where the
        // deadline would have been seen; the supervisor retries (with
        // budget to spare), and the retry meets the expired deadline: it
        // returns that typed error instead of retrying it.
        let policy = RecoveryPolicy::new(&dir);
        let t0 = std::time::Instant::now();
        let err = sim.run_resilient(&policy).unwrap_err();
        assert!(
            matches!(err, BookLeafError::DeadlineExceeded { .. }),
            "{err}"
        );
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(30),
            "the kill must surface at once and supervision must not wait \
             on an expired deadline"
        );
        assert_eq!(starts.with(|s| s.0), 4, "two attempts of two ranks");
        // Supervision leaves the run's deadline as the builder set it.
        assert_eq!(sim.config().deadline, Some(deadline));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_failure_is_a_typed_error_and_leaves_no_file() {
        let dir = tmp_dir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("blocked.ckpt");
        // A directory squatting on the temporary path forces the
        // injected write failure.
        std::fs::create_dir_all(dir.join("blocked.ckpt.tmp")).unwrap();
        let err = noh_at(2).checkpoint_to(&target).unwrap_err();
        assert!(
            matches!(err, BookLeafError::Checkpoint(CheckpointError::Io { .. })),
            "{err}"
        );
        assert!(!target.exists(), "failed write must not publish a file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_but_never_truncates() {
        let dir = tmp_dir("replace");
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("state.ckpt");
        noh_at(2).checkpoint_to(&target).unwrap();
        let first = std::fs::read(&target).unwrap();
        noh_at(4).checkpoint_to(&target).unwrap();
        let second = std::fs::read(&target).unwrap();
        assert_ne!(first, second);
        assert_eq!(Checkpoint::read_from(&target).unwrap().snap.steps, 4);
        assert!(
            !dir.join("state.ckpt.tmp").exists(),
            "temporary must not linger"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reshape_policies_compose() {
        let four = ExecutorKind::FlatMpi { ranks: 4 };
        assert_eq!(ReshapePolicy::Keep.apply(four), four);
        assert_eq!(
            ReshapePolicy::Halve.apply(four),
            ExecutorKind::FlatMpi { ranks: 2 }
        );
        assert_eq!(
            ReshapePolicy::Halve.apply(ExecutorKind::FlatMpi { ranks: 1 }),
            ExecutorKind::FlatMpi { ranks: 1 }
        );
        assert_eq!(
            ReshapePolicy::Halve.apply(ExecutorKind::Hybrid {
                ranks: 4,
                threads_per_rank: 2
            }),
            ExecutorKind::Hybrid {
                ranks: 2,
                threads_per_rank: 2
            }
        );
    }

    #[test]
    fn resilient_run_without_faults_is_clean_and_matches_plain() {
        let dir = tmp_dir("clean");
        let mut plain = Simulation::builder()
            .deck(decks::noh(8))
            .final_time(0.05)
            .build()
            .unwrap();
        plain.run().unwrap();

        let mut supervised = Simulation::builder()
            .deck(decks::noh(8))
            .final_time(0.05)
            .build()
            .unwrap();
        let policy = RecoveryPolicy {
            checkpoint_every_steps: 7,
            ..RecoveryPolicy::new(&dir)
        };
        let report = supervised.run_resilient(&policy).unwrap();
        assert!(report.recovery.events.is_empty());
        assert_eq!(report.recovery.steps_replayed, 0);
        assert!((report.time - 0.05).abs() < 1e-12);
        // Segmented execution with checkpoint round-trips must not
        // perturb the serial trajectory.
        for (e, (a, b)) in plain
            .state()
            .rho
            .iter()
            .zip(&supervised.state().rho)
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "segmenting moved a bit at {e}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
