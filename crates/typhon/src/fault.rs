//! Deterministic fault injection for the rank team.
//!
//! A [`FaultPlan`] is a *schedule*: a pure function of
//! `(attempt, step, rank)` deciding whether a fault fires at that point.
//! It reads no clock and no RNG-of-the-day — two runs of the same plan
//! inject byte-identical faults, which is what lets the CI fault matrix
//! assert that two recovery logs match exactly.
//!
//! Faults act at the communication layer (see [`crate::runtime`]):
//!
//! * [`FaultKind::Corrupt`] — the rank's next outgoing payload is
//!   bit-flipped *after* its checksum is computed, so the receiver's
//!   verification fails with `CommError::Corrupt`;
//! * [`FaultKind::Drop`] — the rank's next outgoing message is consumed
//!   and never delivered; once the team is stuck, the receiver gets
//!   `CommError::RecvTimeout`, or `CommError::RankUnreachable` if the
//!   sender has failed or exited by then;
//! * [`FaultKind::Delay`] — the rank's next message is delivered
//!   *held*: a non-blocking receive does not see it, and the first
//!   blocking receive that looks for it takes it. It satisfies that
//!   receive, so a team holding it is never stuck and a delay alone
//!   never fails a run; it exercises the overlap path that falls back
//!   from a missed poll to a wait;
//! * [`FaultKind::Kill`] — the rank dies at the top of the scheduled
//!   step: [`crate::RankCtx::begin_step`] returns `CommError::Killed`,
//!   and every later communication attempt on that rank does too. Peers
//!   observe the death at once, by rule: a receive from it or a send to
//!   it is `RankUnreachable`, a collective `CollectiveTimeout` — typed,
//!   never a hang.
//!
//! Point faults (`Corrupt`/`Drop`/`Delay`) are *one-shot per schedule
//! entry*: armed when the rank enters the scheduled step, consumed by
//! that rank's next send. Entries are scoped to a recovery `attempt`
//! (default `0`), so a supervised re-run after rewinding to a checkpoint
//! does not re-trip the same deterministic fault forever.

/// What a scheduled fault does to the communication stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip a bit in the next outgoing payload after checksumming.
    Corrupt,
    /// Swallow the next outgoing message.
    Drop,
    /// Deliver the next outgoing message held: invisible to a
    /// non-blocking receive, taken by the first blocking one.
    Delay,
    /// Terminate the rank at the top of the scheduled step.
    Kill,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::Corrupt => "corrupt",
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Kill => "kill",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for FaultKind {
    type Err = String;

    /// Parse the exact lowercase names `Display` renders — the wire
    /// spelling `bookleaf serve` accepts in its `X-Fault-Inject`
    /// header and the fault-matrix sweep passes on the command line.
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "corrupt" => Ok(FaultKind::Corrupt),
            "drop" => Ok(FaultKind::Drop),
            "delay" => Ok(FaultKind::Delay),
            "kill" => Ok(FaultKind::Kill),
            other => Err(format!(
                "unknown fault kind {other:?} (expected corrupt|drop|delay|kill)"
            )),
        }
    }
}

/// One scheduled fault: fires for `rank` at the top of `step`, on
/// recovery attempt `attempt` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultEntry {
    /// Recovery attempt this entry belongs to (`0` = the first run).
    attempt: usize,
    /// Simulation step (as announced via `RankCtx::begin_step`).
    step: usize,
    /// The rank the fault acts on.
    rank: usize,
    /// What happens.
    kind: FaultKind,
}

/// A deterministic fault schedule. See the module docs for semantics.
///
/// Built from explicit entries (the builder methods): pure data, cheap
/// to clone, and shared read-only by every rank of a team.
///
/// A plan acts only where a team of two or more ranks runs: a
/// simulation of one rank (`bookleaf_core`'s serial executor and its
/// one-rank flat-MPI and hybrid shapes) spawns no team, so no entry —
/// kill included — ever fires there, and the run is bitwise the
/// fault-free one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule `kind` for `rank` at `step`, attempt 0.
    #[must_use]
    pub fn with(mut self, kind: FaultKind, step: usize, rank: usize) -> Self {
        self.entries.push(FaultEntry {
            attempt: 0,
            step,
            rank,
            kind,
        });
        self
    }

    /// Re-scope the most recently added entry to a recovery attempt.
    ///
    /// # Panics
    ///
    /// If the plan has no entries yet.
    #[must_use]
    pub fn on_attempt(mut self, attempt: usize) -> Self {
        self.entries
            .last_mut()
            .expect("on_attempt needs a preceding entry")
            .attempt = attempt;
        self
    }

    /// Shorthand: corrupt `rank`'s next payload at `step`.
    #[must_use]
    pub fn corrupt(self, step: usize, rank: usize) -> Self {
        self.with(FaultKind::Corrupt, step, rank)
    }

    /// Shorthand: delay `rank`'s next send at `step`.
    #[must_use]
    pub fn delay(self, step: usize, rank: usize) -> Self {
        self.with(FaultKind::Delay, step, rank)
    }

    /// Shorthand: kill `rank` at the top of `step`.
    #[must_use]
    pub fn kill(self, step: usize, rank: usize) -> Self {
        self.with(FaultKind::Kill, step, rank)
    }

    /// The fault (if any) scheduled for `(attempt, step, rank)`. A kill
    /// wins over point faults scheduled at the same spot.
    #[must_use]
    pub fn action(&self, attempt: usize, step: usize, rank: usize) -> Option<FaultKind> {
        let mut hit = None;
        for e in &self.entries {
            if e.attempt == attempt && e.step == step && e.rank == rank {
                if e.kind == FaultKind::Kill {
                    return Some(FaultKind::Kill);
                }
                hit = Some(e.kind);
            }
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_kind_round_trips_through_display_and_from_str() {
        for kind in [
            FaultKind::Corrupt,
            FaultKind::Drop,
            FaultKind::Delay,
            FaultKind::Kill,
        ] {
            assert_eq!(kind.to_string().parse::<FaultKind>(), Ok(kind));
        }
        assert!("nuke".parse::<FaultKind>().is_err());
        assert!(
            "Kill".parse::<FaultKind>().is_err(),
            "wire spelling is exact lowercase"
        );
    }

    #[test]
    fn plan_is_a_pure_function_of_its_inputs() {
        let a = FaultPlan::new().corrupt(3, 1).kill(9, 0);
        let b = FaultPlan::new().corrupt(3, 1).kill(9, 0);
        assert_eq!(a, b);
        assert_eq!(a.action(0, 3, 1), Some(FaultKind::Corrupt));
        assert_eq!(b.action(0, 3, 1), Some(FaultKind::Corrupt));
        assert_eq!(a.action(0, 9, 0), Some(FaultKind::Kill));
        assert_eq!(a.action(0, 9, 1), None);
        assert_eq!(a.action(1, 3, 1), None, "attempt 1 sees no attempt-0 fault");
    }

    #[test]
    fn attempt_scoping_retargets_the_last_entry() {
        let p = FaultPlan::new().with(FaultKind::Drop, 5, 2).on_attempt(1);
        assert_eq!(p.action(0, 5, 2), None);
        assert_eq!(p.action(1, 5, 2), Some(FaultKind::Drop));
    }

    #[test]
    fn kill_wins_over_point_faults_at_the_same_spot() {
        let p = FaultPlan::new().corrupt(4, 1).kill(4, 1);
        assert_eq!(p.action(0, 4, 1), Some(FaultKind::Kill));
        let p = FaultPlan::new().kill(4, 1).corrupt(4, 1);
        assert_eq!(p.action(0, 4, 1), Some(FaultKind::Kill));
    }
}
