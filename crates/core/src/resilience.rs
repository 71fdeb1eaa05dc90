//! Resilient execution: retention-managed checkpoint stores and
//! supervised elastic recovery.
//!
//! A long hydro run dies for mundane reasons — a node is drained, a NIC
//! flakes, a rank is OOM-killed. This module turns those deaths from
//! lost runs into bounded replays, built on two pieces:
//!
//! * [`CheckpointStore`] — a directory of atomically-written
//!   checkpoints with keep-the-newest-K retention and verified
//!   readback. Every write goes through the tmp+fsync+rename path of
//!   [`Checkpoint::write_to`], is re-read and CRC-verified before it
//!   counts, and prunes older files beyond the retention budget; a
//!   checkpoint that fails its own readback is deleted and reported as
//!   a warning ([`SaveOutcome::Rejected`]), never silently trusted.
//! * [`Simulation::run_resilient`] — the supervisor. It drives
//!   [`Simulation::run_segment`] in segments of
//!   `checkpoint_every_steps` (the same bitwise continuation contract
//!   every executor honours, so supervision moves no bits), checkpoints
//!   each segment boundary, and on any typed failure — an injected or real
//!   [`bookleaf_util::CommError`], a sentinel
//!   [`bookleaf_util::BookLeafError::Unhealthy`] abort — rewinds to the
//!   last good checkpoint, optionally **reshapes** the executor (a dead
//!   node means fewer ranks: [`ReshapePolicy::Halve`]), backs off, and
//!   retries within a bounded budget. A rewind rebuilds the engine
//!   through the same constructor and the same [`crate::Snapshot`] installer a
//!   builder resume uses, so elastic recovery falls out of the portable
//!   restart state: a 4-rank segment's checkpoint continues unchanged
//!   on 2 ranks.
//!
//! Everything the supervisor records ([`RecoveryLog`],
//! [`RecoveryEvent`]) is a pure function of the run and its fault
//! schedule — rank ids, scheduled steps, typed error text; no
//! wall-clock values — so two executions of the same seeded
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
//! let policy = RecoveryPolicy::new("ckpt_dir")
//!     .checkpoint_every_steps(25)
//!     .max_retries(3)
//!     .reshape(ReshapePolicy::Halve);
//! let report = sim.run_resilient(&policy).unwrap();
//! for event in &report.recovery.events {
//!     println!("survived: {}", event.error);
//! }
//! ```

use std::path::{Path, PathBuf};
use std::time::Duration;

use bookleaf_util::{BookLeafError, CheckpointError, CommError, Result};

use crate::config::ExecutorKind;
use crate::output::Checkpoint;
use crate::report::RunReport;
use crate::sim::Simulation;

// ---------------------------------------------------------------------------
// CheckpointStore: atomic writes, retention, verified readback.

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

/// A directory of checkpoints with atomic writes, verified readback and
/// keep-the-newest-K retention.
///
/// Files are named `<prefix>_step<NNNNNNNNNN>.ckpt` (step number, zero
/// padded so lexicographic order is step order). [`CheckpointStore::save`]
/// writes through the atomic [`Checkpoint::write_to`] path, re-reads and
/// fully re-parses the file (magic, version, CRC, shape against the
/// embedded deck), and only then prunes older checkpoints down to the
/// retention budget — a bad write can therefore never evict a good
/// rewind point. [`CheckpointStore::latest_valid`] walks the files
/// newest-first and returns the first that parses, skipping corrupt
/// ones.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    prefix: String,
    keep: usize,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created on first save), keeping the
    /// newest `keep` checkpoints (clamped to at least 1).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, prefix: impl Into<String>, keep: usize) -> Self {
        CheckpointStore {
            dir: dir.into(),
            prefix: prefix.into(),
            keep: keep.max(1),
        }
    }

    /// The directory this store writes into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Retention budget: how many checkpoints survive a save.
    #[must_use]
    pub fn keep(&self) -> usize {
        self.keep
    }

    /// The file path a given step's checkpoint lives at.
    #[must_use]
    pub fn path_for(&self, step: u64) -> PathBuf {
        self.dir
            .join(format!("{}_step{step:010}.ckpt", self.prefix))
    }

    /// Atomically write `ckpt`, verify it by reading it back, then
    /// prune older checkpoints beyond the retention budget.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the directory cannot be created or
    /// the atomic write itself fails. A checkpoint that *writes* but
    /// fails verification is not an error: the file is deleted and
    /// [`SaveOutcome::Rejected`] reports why.
    pub fn save(&self, ckpt: &Checkpoint) -> std::result::Result<SaveOutcome, CheckpointError> {
        std::fs::create_dir_all(&self.dir).map_err(|e| CheckpointError::Io {
            path: self.dir.display().to_string(),
            message: e.to_string(),
        })?;
        let path = self.path_for(ckpt.snap.steps);
        ckpt.write_to(&path)?;
        // Trust nothing until the file on disk proves it can be resumed
        // from: full re-parse, not just a byte compare.
        if let Err(e) = Checkpoint::read_from(&path) {
            let _ = std::fs::remove_file(&path);
            return Ok(SaveOutcome::Rejected {
                path,
                reason: e.to_string(),
            });
        }
        // Only a verified write earns the right to evict older files.
        // Newest-first, a file survives while the keep-K count has room;
        // the just-written file always survives.
        let mut kept = 0usize;
        for (_, old) in self.list().into_iter().rev() {
            if old == path || kept < self.keep {
                kept += 1;
            } else {
                let _ = std::fs::remove_file(&old);
            }
        }
        Ok(SaveOutcome::Written(path))
    }

    /// Every checkpoint file currently in the store, as `(step, path)`
    /// sorted ascending by step. Files that do not match this store's
    /// naming scheme are ignored (the directory may be shared).
    #[must_use]
    pub fn list(&self) -> Vec<(u64, PathBuf)> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out: Vec<(u64, PathBuf)> = entries
            .flatten()
            .filter_map(|entry| {
                let name = entry.file_name().into_string().ok()?;
                let stem = name
                    .strip_prefix(&self.prefix)?
                    .strip_prefix("_step")?
                    .strip_suffix(".ckpt")?;
                Some((stem.parse::<u64>().ok()?, entry.path()))
            })
            .collect();
        out.sort();
        out
    }

    /// The newest checkpoint that still parses (magic, version, CRC,
    /// shape), skipping — not deleting — any that do not. `None` when
    /// the store holds no valid checkpoint at all.
    #[must_use]
    pub fn latest_valid(&self) -> Option<(u64, Checkpoint)> {
        self.list()
            .into_iter()
            .rev()
            .find_map(|(step, path)| Some((step, Checkpoint::read_from(&path).ok()?)))
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
    /// Switch to this exact executor for every retry.
    To(ExecutorKind),
}

impl ReshapePolicy {
    /// The executor shape a retry should use, given the one that
    /// failed.
    #[must_use]
    pub fn apply(self, current: ExecutorKind) -> ExecutorKind {
        match self {
            ReshapePolicy::Keep => current,
            ReshapePolicy::To(kind) => kind,
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
    /// Retention budget for segment checkpoints (newest K survive).
    pub keep: usize,
    /// Segment length: checkpoint every this many steps. `0` means a
    /// single unsegmented attempt (still retried from the start).
    pub checkpoint_every_steps: usize,
    /// How many failed attempts the supervisor absorbs before giving
    /// up and returning the last error.
    pub max_retries: usize,
    /// Base backoff slept before a retry; doubles per consecutive
    /// failure, capped at five seconds. Pure supervision — it never
    /// appears in the recovery log.
    pub backoff: Duration,
    /// Executor reshaping applied on each retry.
    pub reshape: ReshapePolicy,
    /// Wall-clock deadline for the whole supervised run. `None`
    /// (default) never fires. When set, it is merged (earliest wins)
    /// into [`crate::RunConfig::deadline`] for the duration of the
    /// supervision, and the retry backoff becomes deadline-aware: a
    /// backoff that would sleep past the deadline returns a typed
    /// [`BookLeafError::DeadlineExceeded`] immediately instead.
    pub deadline: Option<std::time::Instant>,
}

impl RecoveryPolicy {
    /// A policy checkpointing into `dir`, with defaults: keep 2,
    /// checkpoint every 50 steps, 3 retries, 10 ms base backoff, no
    /// reshaping.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        RecoveryPolicy {
            dir: dir.into(),
            keep: 2,
            checkpoint_every_steps: 50,
            max_retries: 3,
            backoff: Duration::from_millis(10),
            reshape: ReshapePolicy::Keep,
            deadline: None,
        }
    }

    /// Set the retention budget.
    #[must_use]
    pub fn keep(mut self, keep: usize) -> Self {
        self.keep = keep;
        self
    }

    /// Set the segment length in steps.
    #[must_use]
    pub fn checkpoint_every_steps(mut self, steps: usize) -> Self {
        self.checkpoint_every_steps = steps;
        self
    }

    /// Set the retry budget.
    #[must_use]
    pub fn max_retries(mut self, retries: usize) -> Self {
        self.max_retries = retries;
        self
    }

    /// Set the base backoff.
    #[must_use]
    pub fn backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Set the reshape policy.
    #[must_use]
    pub fn reshape(mut self, reshape: ReshapePolicy) -> Self {
        self.reshape = reshape;
        self
    }

    /// Set a wall-clock deadline for the whole supervised run (see the
    /// [`RecoveryPolicy::deadline`] field).
    #[must_use]
    pub fn deadline(mut self, at: std::time::Instant) -> Self {
        self.deadline = Some(at);
        self
    }
}

/// One supervised failure and the retry that answered it.
///
/// Every field is deterministic — attempt indices, step counts, the
/// typed error's text, the chosen executor — so logs from two runs of
/// the same seeded fault schedule compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// The attempt index that failed (the builder's starting attempt
    /// for the first failure, incrementing per retry).
    pub attempt: usize,
    /// The step the retry rewound to (the last good checkpoint's step
    /// count; the run's starting step when nothing was checkpointed
    /// yet).
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
    /// error names the step it struck at (a scheduled rank death does;
    /// a timeout observed by a surviving rank cannot know how far the
    /// dead rank got, and is not guessed at).
    pub steps_replayed: usize,
    /// Non-fatal supervision warnings (e.g. a segment checkpoint that
    /// failed its verification readback and was skipped).
    pub warnings: Vec<String>,
}

impl RecoveryLog {
    /// How many retries the supervisor performed.
    #[must_use]
    pub fn retries(&self) -> usize {
        self.events.len()
    }

    /// Did the run complete without absorbing any fault?
    #[must_use]
    pub fn clean(&self) -> bool {
        self.events.is_empty()
    }
}

impl Simulation {
    /// Run to the configured final time under supervision: segmented
    /// execution with checkpoints at segment boundaries, and — on any
    /// typed failure — rewind to the last good checkpoint, optional
    /// executor reshape, bounded backoff, and retry within
    /// `policy.max_retries`.
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
    /// [`Simulation::checkpoint`]).
    ///
    /// # Errors
    ///
    /// The last attempt's error once the retry budget is exhausted, or
    /// any checkpoint-store I/O error (failing to write a rewind point
    /// is itself a fault the supervisor cannot absorb). When
    /// [`RecoveryPolicy::deadline`] (or the simulation's own
    /// [`crate::RunConfig::deadline`]) is set, a segment that outlives
    /// it — or a retry backoff that would sleep past it — returns a
    /// typed [`BookLeafError::DeadlineExceeded`] instead of running or
    /// sleeping on.
    pub fn run_resilient(&mut self, policy: &RecoveryPolicy) -> Result<RunReport> {
        let store = CheckpointStore::new(&policy.dir, "auto", policy.keep);
        let base_attempt = self.typhon.attempt;
        // Merge the policy deadline into the run config (earliest
        // wins): the running segments abort symmetrically on it, and
        // the backoff below refuses to sleep past it.
        let base_deadline = self.config().deadline;
        let deadline = match (base_deadline, policy.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.config_mut().deadline = deadline;
        let mut log = RecoveryLog::default();
        let mut failures = 0usize;
        // The rewind target that predates the first segment boundary:
        // the initial (or builder-resumed) state. Held in memory only —
        // it is not a file the retention budget should count.
        let initial = self.checkpoint()?;
        let mut last_good: Option<Checkpoint> = None;
        loop {
            self.typhon.attempt = base_attempt + failures;
            let result = match policy.checkpoint_every_steps {
                0 => self.run(),
                every => self.run_segment(every),
            };
            match result {
                Ok(mut report) => {
                    let ckpt = self.checkpoint()?;
                    match store.save(&ckpt)? {
                        SaveOutcome::Written(_) => {}
                        SaveOutcome::Rejected { path, reason } => log.warnings.push(format!(
                            "segment checkpoint at step {} skipped: {} failed readback: {reason}",
                            ckpt.snap.steps,
                            path.display()
                        )),
                    }
                    last_good = Some(ckpt);
                    if self.complete() {
                        self.typhon.attempt = base_attempt;
                        self.config_mut().deadline = base_deadline;
                        report.recovery = log;
                        return Ok(report);
                    }
                }
                Err(err) => {
                    if failures >= policy.max_retries {
                        self.typhon.attempt = base_attempt;
                        self.config_mut().deadline = base_deadline;
                        return Err(err);
                    }
                    let target = last_good.as_ref().unwrap_or(&initial);
                    let from_step = target.snap.steps as usize;
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
                    // Bounded exponential backoff: pure supervision
                    // wall time, never recorded anywhere. A backoff
                    // that would sleep past the deadline gives up now
                    // with the typed error the sleep would earn anyway.
                    let exp = u32::try_from(failures.min(8)).unwrap_or(8);
                    let delay = policy
                        .backoff
                        .checked_mul(1 << exp)
                        .unwrap_or(Duration::from_secs(5))
                        .min(Duration::from_secs(5));
                    if let Some(at) = deadline {
                        if std::time::Instant::now() + delay >= at {
                            self.typhon.attempt = base_attempt;
                            self.config_mut().deadline = base_deadline;
                            return Err(BookLeafError::DeadlineExceeded {
                                step: self.cursor().steps,
                            });
                        }
                    }
                    std::thread::sleep(delay);
                    failures += 1;
                    self.config_mut().executor = retry_executor;
                    self.rewind_to(&target.snap)?;
                }
            }
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

    fn noh_checkpoint(step: u64) -> Checkpoint {
        let mut sim = Simulation::builder()
            .deck(decks::noh(8))
            .final_time(1.0)
            .max_steps(step as usize)
            .build()
            .unwrap();
        sim.run().unwrap();
        let ckpt = sim.checkpoint().unwrap();
        assert_eq!(ckpt.snap.steps, step);
        ckpt
    }

    #[test]
    fn store_names_are_step_ordered() {
        let store = CheckpointStore::new("/tmp/x", "auto", 2);
        let a = store.path_for(7);
        let b = store.path_for(1234);
        assert!(a.to_string_lossy() < b.to_string_lossy());
        assert!(a.to_string_lossy().ends_with("auto_step0000000007.ckpt"));
    }

    #[test]
    fn retention_keeps_exactly_the_newest_k_valid_files() {
        let dir = tmp_dir("retention");
        let store = CheckpointStore::new(&dir, "auto", 2);
        for step in [2u64, 4, 6] {
            assert!(matches!(
                store.save(&noh_checkpoint(step)).unwrap(),
                SaveOutcome::Written(_)
            ));
        }
        let listed = store.list();
        assert_eq!(
            listed.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![4, 6],
            "K = 2 must keep exactly the two newest"
        );
        for (_, path) in &listed {
            Checkpoint::read_from(path).unwrap();
        }
        let (step, latest) = store.latest_valid().unwrap();
        assert_eq!(step, 6);
        assert_eq!(latest.snap.steps, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_never_sleeps_past_the_deadline() {
        use bookleaf_typhon::FaultPlan;
        let dir = tmp_dir("deadline");
        let mut sim = Simulation::builder()
            .deck(decks::noh(8))
            .executor(ExecutorKind::FlatMpi { ranks: 2 })
            .final_time(1.0)
            .max_steps(10)
            .fault_plan(FaultPlan::new(7).kill(3, 1))
            .comm_timeout(Duration::from_millis(300))
            .build()
            .unwrap();
        // A backoff of a minute against a deadline milliseconds away:
        // the supervisor must return the typed error immediately
        // instead of sleeping.
        let policy = RecoveryPolicy::new(&dir)
            .max_retries(3)
            .backoff(Duration::from_secs(60))
            .deadline(std::time::Instant::now() + Duration::from_millis(50));
        let t0 = std::time::Instant::now();
        let err = sim.run_resilient(&policy).unwrap_err();
        assert!(
            matches!(err, BookLeafError::DeadlineExceeded { .. }),
            "{err}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "must not sleep the full backoff"
        );
        // Supervision must restore the run's own (unset) deadline.
        assert!(sim.config().deadline.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_valid_skips_a_corrupt_newest_file() {
        let dir = tmp_dir("skip_corrupt");
        let store = CheckpointStore::new(&dir, "auto", 3);
        store.save(&noh_checkpoint(2)).unwrap();
        store.save(&noh_checkpoint(4)).unwrap();
        // Corrupt the newest file in place (flip a payload byte; the
        // CRC trailer catches it).
        let newest = store.path_for(4);
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        let (step, ckpt) = store.latest_valid().unwrap();
        assert_eq!(step, 2, "corrupt newest must be skipped, not trusted");
        assert_eq!(ckpt.snap.steps, 2);
        // The corrupt file is skipped, not deleted: forensics matter.
        assert!(newest.exists());
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
        let err = noh_checkpoint(2).write_to(&target).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }), "{err}");
        assert!(!target.exists(), "failed write must not publish a file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_but_never_truncates() {
        let dir = tmp_dir("replace");
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("state.ckpt");
        noh_checkpoint(2).write_to(&target).unwrap();
        let first = std::fs::read(&target).unwrap();
        noh_checkpoint(4).write_to(&target).unwrap();
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
        assert_eq!(
            ReshapePolicy::To(ExecutorKind::Serial).apply(four),
            ExecutorKind::Serial
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
        let policy = RecoveryPolicy::new(&dir).checkpoint_every_steps(7);
        let report = supervised.run_resilient(&policy).unwrap();
        assert!(report.recovery.clean());
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
