//! The unified run report: what every completed run hands back,
//! regardless of executor.
//!
//! [`RunReport`] carries the full accounting for
//! every executor: merged per-kernel timers (max over ranks — how an
//! MPI code experiences time), team-merged [`CommStats`] (all zeros for
//! a serial run: no wire traffic), and the global start/end energies
//! (partition-exact in distributed runs: boundary nodes are counted
//! once). A continued run's report spans the whole trajectory since the
//! simulation was built (or last rewound), under every executor.

use bookleaf_typhon::CommStats;
use bookleaf_util::TimerReport;

use crate::config::ExecutorKind;
use crate::resilience::RecoveryLog;

/// What a completed run reports, for every executor.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Deck name (for logs and artefacts).
    pub name: String,
    /// Which programming model executed the run.
    pub executor: ExecutorKind,
    /// Rank count (1 for the serial executor).
    pub ranks: usize,
    /// Steps taken.
    pub steps: usize,
    /// Final simulated time.
    pub time: f64,
    /// Wall-clock seconds, summed over every `run` of the trajectory
    /// (team wall for distributed).
    pub wall_seconds: f64,
    /// Per-kernel timing (Table II buckets), max over ranks.
    pub timers: TimerReport,
    /// Team-merged communication counters (zero for serial runs).
    pub comm: CommStats,
    /// Total energy the trajectory started with (internal + kinetic,
    /// global), pinned by the first `run`.
    pub energy_start: f64,
    /// Total energy at the end (global).
    pub energy_end: f64,
    /// What [`Simulation::run_resilient`](crate::Simulation::run_resilient)
    /// survived to produce this report: one event per fault, plus retry
    /// and replay accounting. Empty for plain `run()` calls and for
    /// resilient runs that never hit a fault. Deliberately free of
    /// wall-clock data, so two runs of the same fault schedule
    /// carry identical logs.
    pub recovery: RecoveryLog,
}

impl RunReport {
    /// Relative energy drift over the run (0 for a perfectly compatible
    /// Lagrangian run; the remap and driven boundaries do work).
    #[must_use]
    pub fn energy_drift(&self) -> f64 {
        if self.energy_start == 0.0 {
            return 0.0;
        }
        ((self.energy_end - self.energy_start) / self.energy_start).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(e0: f64, e1: f64) -> RunReport {
        RunReport {
            name: "test".into(),
            executor: ExecutorKind::Serial,
            ranks: 1,
            steps: 10,
            time: 0.1,
            wall_seconds: 0.0,
            timers: TimerReport::zero(),
            comm: CommStats::default(),
            energy_start: e0,
            energy_end: e1,
            recovery: RecoveryLog::default(),
        }
    }

    #[test]
    fn drift_is_relative_and_absolute_valued() {
        assert!((report(2.0, 2.2).energy_drift() - 0.1).abs() < 1e-12);
        assert!((report(2.0, 1.8).energy_drift() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_start_energy_reports_zero_drift() {
        assert_eq!(report(0.0, 1.0).energy_drift(), 0.0);
    }
}
