//! Run configuration: everything an input namelist would set.

use bookleaf_ale::AleOptions;
use bookleaf_hydro::getdt::DtControls;
use bookleaf_hydro::LagOptions;

/// Which programming model executes the run (the paper's evaluation
/// axis, §V).
///
/// A shape of **one rank** — `Serial`, `FlatMpi { ranks: 1 }`,
/// `Hybrid { ranks: 1, threads_per_rank }` — is not a team of one: it
/// runs the serial engine, the whole mesh stepped in place (a hybrid
/// rank of several threads inside its own pool, built once per
/// simulation). So, like `Serial`, it partitions nothing, sends no
/// message and makes no collective (its report's `comm` is all zero), a
/// [`bookleaf_typhon::FaultPlan`] has nothing to fault on it, and a
/// panic inside it — an observer's, say — unwinds to the caller instead
/// of becoming a [`bookleaf_util::BookLeafError::RankPanic`]. Its
/// report still names the executor asked for, with `ranks` 1, and its
/// answer is bitwise the serial one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Single-threaded reference.
    Serial,
    /// One rank thread per simulated core, serial kernels per rank.
    FlatMpi {
        /// Number of ranks.
        ranks: usize,
    },
    /// Fewer rank threads, rayon threading inside each.
    Hybrid {
        /// Number of ranks (one per simulated NUMA region).
        ranks: usize,
        /// Rayon threads per rank.
        threads_per_rank: usize,
    },
}

/// Health-sentinel controls: the cheap validity sweep after every step
/// that turns silent corruption into a typed
/// [`bookleaf_util::BookLeafError::Unhealthy`] abort.
///
/// The sweep inspects the rank-local state (NaN/Inf in ρ, ε, q, u;
/// non-positive mass/volume), min-reduces an encoded verdict across the
/// team so **every rank aborts together with the same diagnosis**, and
/// checks total-energy drift against `drift_tol` with one extra sum. A
/// collapsing dt is `getdt`'s: it fails each proposal below `dt_min`.
///
/// The sentinel is read-only: a sentinel that is on is bitwise
/// invisible on a healthy run. It is deliberately *not* part of the
/// text input-deck format (and therefore not embedded in checkpoints):
/// it configures the harness around a run, not the problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SentinelConfig {
    /// Sweep after every step; `false` turns the sentinel off entirely.
    pub on: bool,
    /// Abort when the relative total-energy drift from the run's start
    /// exceeds this tolerance. `None` (default) skips the check — it
    /// costs one extra sum-reduction per sweep in distributed runs.
    pub drift_tol: Option<f64>,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        SentinelConfig {
            on: true,
            drift_tol: None,
        }
    }
}

impl SentinelConfig {
    /// A disabled sentinel (no sweeps, no extra collectives).
    #[must_use]
    pub fn disabled() -> Self {
        SentinelConfig {
            on: false,
            ..SentinelConfig::default()
        }
    }
}

/// Full run configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Stop once simulated time reaches this.
    pub final_time: f64,
    /// Hard cap on steps (safety for tests).
    pub max_steps: usize,
    /// Time-step controls.
    pub dt: DtControls,
    /// Lagrangian-step options (threading, viscosity, hourglass).
    pub lag: LagOptions,
    /// ALE remap options; `None` = pure Lagrangian frame.
    pub ale: Option<AleOptions>,
    /// Execution model.
    pub executor: ExecutorKind,
    /// Overlap halo exchanges with computation (distributed executors
    /// only): each phase is posted early, interior entities are swept
    /// while its messages are in flight, and the exchange completes
    /// before the boundary sweep. Bitwise identical to the blocking
    /// schedule — this is purely a latency-hiding toggle, kept for
    /// A/B measurement.
    pub overlap: bool,
    /// Health-sentinel controls (per-step validity sweep). On by
    /// default; never rendered into deck text.
    pub sentinel: SentinelConfig,
    /// Wall-clock deadline for the run; `None` (default) never fires.
    /// When the deadline expires mid-run, the rank that notices
    /// proposes a negative dt through the per-step reduction, so every
    /// rank of a team aborts together with a typed
    /// [`bookleaf_util::BookLeafError::DeadlineExceeded`] — the same
    /// symmetric-abort pattern the health sentinel uses. Like the
    /// sentinel, this configures the harness around a run, not the
    /// problem: it is never rendered into deck text or checkpoints,
    /// and an unexpired deadline is bitwise invisible.
    pub deadline: Option<std::time::Instant>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            final_time: 0.2,
            max_steps: 100_000,
            dt: DtControls::default(),
            lag: LagOptions::default(),
            ale: None,
            executor: ExecutorKind::Serial,
            overlap: true,
            sentinel: SentinelConfig::default(),
            deadline: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_serial_lagrangian() {
        let c = RunConfig::default();
        assert_eq!(c.executor, ExecutorKind::Serial);
        assert!(c.ale.is_none());
        assert!(c.final_time > 0.0);
        assert!(c.overlap, "overlapped halo exchange is the default");
        assert!(c.sentinel.on, "sentinel sweeps by default");
        assert!(c.sentinel.drift_tol.is_none());
        assert!(c.deadline.is_none(), "no wall-clock deadline by default");
    }

    #[test]
    fn disabled_sentinel_never_sweeps() {
        let s = SentinelConfig::disabled();
        assert!(!s.on);
    }
}
