//! Per-kernel wall-clock timing.
//!
//! The paper's Table II is a per-kernel breakdown (viscosity, acceleration,
//! `getdt`, `getgeom`, `getforce`, `getpc` plus the overall run). The
//! `TimerRegistry` here collects exactly those buckets; drivers wrap each
//! kernel call in [`TimerRegistry::time`] and the bench harness renders the
//! table from a [`TimerReport`].
//!
//! Each rank times into a registry of its own, and the team's reports
//! are merged with [`TimerReport::max`] (the slowest rank gates
//! progress, as in an MPI code). The registry is nonetheless `Sync`, so
//! a hybrid rank can time from inside its pool.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The kernels the paper reports individually, plus a catch-all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelId {
    /// Time-step calculation (global reduction).
    GetDt,
    /// Artificial viscosity (the paper's most expensive kernel).
    GetQ,
    /// Force assembly (pressure + viscosity + hourglass).
    GetForce,
    /// Acceleration: mass gather, F/m, BCs, node motion.
    GetAcc,
    /// Geometry update (volumes, Jacobians, lengths).
    GetGeom,
    /// Density update.
    GetRho,
    /// Internal energy update.
    GetEin,
    /// Pressure / sound-speed EoS evaluation.
    GetPc,
    /// The fused `getgeom→getrho→getein→getpc` element sweep (one pass
    /// over corner coordinates and masses) — the only code that does
    /// the four stages' work, so their buckets above read zero in a
    /// step; the device models still cost them one by one.
    EosFused,
    /// The fused `getq`+`getforce` element sweep — what a production
    /// step runs, so `GetQ` and `GetForce` above read zero there; the
    /// standalone kernels remain as thin drivers over the same pieces.
    ViscForce,
    /// ALE remap phase (all four sub-steps).
    Ale,
    /// Halo exchanges and reductions.
    Comms,
    /// Anything else (setup, I/O…).
    Other,
}

/// Number of timer buckets.
const N_KERNELS: usize = 13;

impl KernelId {
    /// All kernel ids in table order.
    pub const ALL: [KernelId; N_KERNELS] = [
        KernelId::GetDt,
        KernelId::GetQ,
        KernelId::GetForce,
        KernelId::GetAcc,
        KernelId::GetGeom,
        KernelId::GetRho,
        KernelId::GetEin,
        KernelId::GetPc,
        KernelId::EosFused,
        KernelId::ViscForce,
        KernelId::Ale,
        KernelId::Comms,
        KernelId::Other,
    ];

    /// Human-readable label matching the paper's column headings.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            KernelId::GetDt => "getdt",
            KernelId::GetQ => "viscosity",
            KernelId::GetForce => "getforce",
            KernelId::GetAcc => "acceleration",
            KernelId::GetGeom => "getgeom",
            KernelId::GetRho => "getrho",
            KernelId::GetEin => "getein",
            KernelId::GetPc => "getpc",
            KernelId::EosFused => "eos_fused",
            KernelId::ViscForce => "viscosity+force",
            KernelId::Ale => "ale",
            KernelId::Comms => "comms",
            KernelId::Other => "other",
        }
    }

    fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kernel id in ALL")
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Bucket {
    total: Duration,
    calls: u64,
}

/// Thread-safe accumulator of per-kernel wall time.
#[derive(Debug, Default)]
pub struct TimerRegistry {
    buckets: Mutex<[Bucket; N_KERNELS]>,
}

impl TimerRegistry {
    /// New empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Time a closure under `id`, returning its result.
    pub fn time<T>(&self, id: KernelId, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(id, start.elapsed());
        out
    }

    /// Add one interval of `d` to the bucket of `id`.
    fn record(&self, id: KernelId, d: Duration) {
        let mut buckets = self.buckets.lock().expect("timer buckets poisoned");
        let b = &mut buckets[id.index()];
        b.total += d;
        b.calls += 1;
    }

    /// Snapshot into an immutable report.
    #[must_use]
    pub fn report(&self) -> TimerReport {
        let buckets = self.buckets.lock().expect("timer buckets poisoned");
        TimerReport {
            seconds: KernelId::ALL.map(|k| buckets[k.index()].total.as_secs_f64()),
            calls: KernelId::ALL.map(|k| buckets[k.index()].calls),
        }
    }
}

/// Immutable snapshot of a [`TimerRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimerReport {
    seconds: [f64; N_KERNELS],
    calls: [u64; N_KERNELS],
}

impl TimerReport {
    /// An all-zero report.
    #[must_use]
    pub fn zero() -> Self {
        TimerReport {
            seconds: [0.0; N_KERNELS],
            calls: [0; N_KERNELS],
        }
    }

    /// Seconds accumulated under `id`.
    #[must_use]
    pub fn seconds(&self, id: KernelId) -> f64 {
        self.seconds[id.index()]
    }

    /// Number of recorded intervals under `id`.
    #[must_use]
    pub fn calls(&self, id: KernelId) -> u64 {
        self.calls[id.index()]
    }

    /// Sum over all buckets.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Fraction of the total spent in `id` (0 when the total is 0).
    #[must_use]
    pub fn fraction(&self, id: KernelId) -> f64 {
        let t = self.total_seconds();
        if t == 0.0 {
            0.0
        } else {
            self.seconds(id) / t
        }
    }

    /// Element-wise maximum with another report: how an MPI job perceives
    /// per-kernel time (the slowest rank gates progress).
    #[must_use]
    pub fn max(&self, other: &TimerReport) -> TimerReport {
        let mut out = self.clone();
        for i in 0..out.seconds.len() {
            out.seconds[i] = out.seconds[i].max(other.seconds[i]);
            out.calls[i] = out.calls[i].max(other.calls[i]);
        }
        out
    }

    /// Element-wise sum with another report.
    #[must_use]
    pub fn add(&self, other: &TimerReport) -> TimerReport {
        let mut out = self.clone();
        for i in 0..out.seconds.len() {
            out.seconds[i] += other.seconds[i];
            out.calls[i] += other.calls[i];
        }
        out
    }

    /// Overwrite the seconds of a single bucket.
    pub fn set_seconds(&mut self, id: KernelId, s: f64) {
        self.seconds[id.index()] = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn time_accumulates_and_counts() {
        let reg = TimerRegistry::new();
        let v = reg.time(KernelId::GetQ, || 21 * 2);
        assert_eq!(v, 42);
        reg.time(KernelId::GetQ, || ());
        let rep = reg.report();
        assert_eq!(rep.calls(KernelId::GetQ), 2);
        assert!(rep.seconds(KernelId::GetQ) >= 0.0);
    }

    #[test]
    fn record_explicit_durations() {
        let reg = TimerRegistry::new();
        reg.record(KernelId::GetAcc, Duration::from_millis(250));
        reg.record(KernelId::GetAcc, Duration::from_millis(750));
        let rep = reg.report();
        assert!((rep.seconds(KernelId::GetAcc) - 1.0).abs() < 1e-9);
        assert_eq!(rep.calls(KernelId::GetAcc), 2);
    }

    #[test]
    fn report_fraction_sums_to_one() {
        let reg = TimerRegistry::new();
        reg.record(KernelId::GetQ, Duration::from_millis(600));
        reg.record(KernelId::GetAcc, Duration::from_millis(400));
        let rep = reg.report();
        let f: f64 = KernelId::ALL.iter().map(|&k| rep.fraction(k)).sum();
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_takes_slowest_rank() {
        let a = {
            let r = TimerRegistry::new();
            r.record(KernelId::GetQ, Duration::from_secs(2));
            r.report()
        };
        let b = {
            let r = TimerRegistry::new();
            r.record(KernelId::GetQ, Duration::from_secs(3));
            r.report()
        };
        assert_eq!(a.max(&b).seconds(KernelId::GetQ), 3.0);
    }

    #[test]
    fn registry_is_thread_safe() {
        let reg = std::sync::Arc::new(TimerRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    reg.record(KernelId::Comms, Duration::from_micros(10));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.report().calls(KernelId::Comms), 400);
    }

    #[test]
    fn labels_match_paper_columns() {
        assert_eq!(KernelId::GetQ.label(), "viscosity");
        assert_eq!(KernelId::GetAcc.label(), "acceleration");
        assert_eq!(KernelId::GetDt.label(), "getdt");
    }
}
