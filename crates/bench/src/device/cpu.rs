//! CPU node model: flat MPI vs hybrid MPI+OpenMP.
//!
//! Per-kernel node time is a roofline over the platform's aggregate
//! streaming bandwidth and flop rate, plus an Amdahl term for the hybrid
//! model: a kernel's `serial_fraction` runs once per *rank* on a single
//! core instead of spread over all cores. Under flat MPI every core is a
//! rank, so the serial part runs concurrently everywhere and costs
//! nothing extra — which is exactly why the paper's Table II shows flat
//! MPI beating hybrid overall while the (almost fully parallel)
//! viscosity kernel stays within a few percent.

use bookleaf_util::{KernelId, TimerReport};

use super::cost::{KernelCost, WorkloadCount};
use super::platform::CpuPlatform;

/// How the node is programmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuExecution {
    /// One MPI rank per physical core.
    FlatMpi,
    /// One MPI rank per NUMA region (socket), OpenMP threads inside.
    Hybrid,
}

/// Single-node CPU performance model.
#[derive(Debug, Clone, Copy)]
pub struct CpuModel {
    /// The node being modeled.
    pub platform: CpuPlatform,
    /// Threading overhead multiplier applied to the parallel part under
    /// the hybrid model (fork/join, NUMA traffic).
    pub thread_overhead: f64,
    /// Bandwidth multiplier a *single* core achieves when running alone
    /// (serial sections are not squeezed to the all-cores share).
    pub solo_bw_factor: f64,
}

impl CpuModel {
    /// Model with default overheads.
    #[must_use]
    pub fn new(platform: CpuPlatform) -> Self {
        CpuModel {
            platform,
            thread_overhead: 1.06,
            solo_bw_factor: 2.0,
        }
    }

    /// Seconds a kernel takes for `workload` under `exec` on one node.
    #[must_use]
    pub fn kernel_seconds(
        &self,
        kernel: KernelId,
        workload: WorkloadCount,
        exec: CpuExecution,
    ) -> f64 {
        let cost = KernelCost::of(kernel);
        let n = workload.element_calls(kernel);
        if n == 0.0 {
            return 0.0;
        }
        let cores = self.platform.cores() as f64;
        let t_flops = n * cost.flops / (cores * self.platform.gflops_per_core * 1e9);
        let t_bytes = n * cost.bytes / (cores * self.platform.mem_bw_per_core * 1e9);
        let t_par = t_flops.max(t_bytes);

        match exec {
            CpuExecution::FlatMpi => t_par,
            CpuExecution::Hybrid => {
                let ranks = self.platform.sockets as f64;
                let sf = cost.serial_fraction;
                // Serial share: each rank's single thread processes the
                // rank's slice of the serial fraction at solo rate.
                let solo_bw = self.platform.mem_bw_per_core * self.solo_bw_factor * 1e9;
                let solo_fl = self.platform.gflops_per_core * 1e9;
                let t_serial = (n * sf / ranks) * (cost.flops / solo_fl).max(cost.bytes / solo_bw);
                (1.0 - sf) * t_par * self.thread_overhead + t_serial
            }
        }
    }

    /// Full per-kernel report for the hydro loop (no remap).
    #[must_use]
    pub fn report(&self, workload: WorkloadCount, exec: CpuExecution) -> TimerReport {
        let mut rep = TimerReport::zero();
        for k in KernelId::ALL {
            rep.set_seconds(k, self.kernel_seconds(k, workload, exec));
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Noh single-node run: a workload sized so Skylake flat
    /// MPI lands near Table II's 76 s overall.
    fn noh_like() -> WorkloadCount {
        WorkloadCount {
            elements: 4_000_000,
            steps: 930,
        }
    }

    #[test]
    fn flat_mpi_beats_hybrid_overall() {
        for platform in [CpuPlatform::skylake(), CpuPlatform::broadwell()] {
            let m = CpuModel::new(platform);
            let flat = m.report(noh_like(), CpuExecution::FlatMpi).total_seconds();
            let hybrid = m.report(noh_like(), CpuExecution::Hybrid).total_seconds();
            assert!(
                hybrid > 1.5 * flat,
                "{}: hybrid {hybrid:.1} should be well above flat {flat:.1}",
                platform.name
            );
        }
    }

    #[test]
    fn viscosity_within_fifteen_percent_between_models() {
        // Table II / Fig 2a: the viscosity kernel hybrid/flat gap is small.
        let m = CpuModel::new(CpuPlatform::skylake());
        let flat = m.kernel_seconds(KernelId::GetQ, noh_like(), CpuExecution::FlatMpi);
        let hybrid = m.kernel_seconds(KernelId::GetQ, noh_like(), CpuExecution::Hybrid);
        let ratio = hybrid / flat;
        assert!(
            (1.0..1.25).contains(&ratio),
            "viscosity hybrid/flat = {ratio:.3}"
        );
    }

    #[test]
    fn acceleration_suffers_under_hybrid() {
        // Fig 2b: the data-dependent acceleration kernel blows up ~2.4x.
        let m = CpuModel::new(CpuPlatform::skylake());
        let flat = m.kernel_seconds(KernelId::GetAcc, noh_like(), CpuExecution::FlatMpi);
        let hybrid = m.kernel_seconds(KernelId::GetAcc, noh_like(), CpuExecution::Hybrid);
        let ratio = hybrid / flat;
        assert!(
            (1.8..3.5).contains(&ratio),
            "acceleration hybrid/flat = {ratio:.2}"
        );
    }

    #[test]
    fn getdt_and_getgeom_blow_up_most() {
        // Table II: getdt ~6x, getgeom ~7.8x on Skylake.
        let m = CpuModel::new(CpuPlatform::skylake());
        for (k, lo, hi) in [(KernelId::GetDt, 3.0, 9.0), (KernelId::GetGeom, 3.5, 11.0)] {
            let flat = m.kernel_seconds(k, noh_like(), CpuExecution::FlatMpi);
            let hybrid = m.kernel_seconds(k, noh_like(), CpuExecution::Hybrid);
            let r = hybrid / flat;
            assert!(
                (lo..hi).contains(&r),
                "{k:?} ratio {r:.2} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn skylake_faster_than_broadwell() {
        let s = CpuModel::new(CpuPlatform::skylake());
        let b = CpuModel::new(CpuPlatform::broadwell());
        for exec in [CpuExecution::FlatMpi, CpuExecution::Hybrid] {
            let ts = s.report(noh_like(), exec).total_seconds();
            let tb = b.report(noh_like(), exec).total_seconds();
            assert!(ts < tb, "skylake {ts:.1} should beat broadwell {tb:.1}");
        }
    }

    #[test]
    fn skylake_flat_overall_near_paper() {
        // Table II: 76.07 s. The model should land in the right decade
        // and ordering; we accept ±35%.
        let m = CpuModel::new(CpuPlatform::skylake());
        let t = m.report(noh_like(), CpuExecution::FlatMpi).total_seconds();
        assert!((50.0..110.0).contains(&t), "overall = {t:.1}");
    }

    #[test]
    fn viscosity_dominates_flat_profile() {
        // Table II: viscosity is ~70% of Skylake MPI runtime.
        let m = CpuModel::new(CpuPlatform::skylake());
        let rep = m.report(noh_like(), CpuExecution::FlatMpi);
        let frac = rep.fraction(KernelId::GetQ);
        assert!((0.5..0.8).contains(&frac), "viscosity fraction {frac:.2}");
    }

    #[test]
    fn zero_workload_zero_time() {
        let m = CpuModel::new(CpuPlatform::skylake());
        let w = WorkloadCount {
            elements: 0,
            steps: 100,
        };
        assert_eq!(
            m.kernel_seconds(KernelId::GetQ, w, CpuExecution::FlatMpi),
            0.0
        );
    }
}
