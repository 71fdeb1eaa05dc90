//! Multi-node strong-scaling model (Figs 3 and 4).
//!
//! The paper's §V-C study runs the Sod solver (hybrid MPI+OpenMP) on 8 to
//! 64 Cray XC50 nodes and observes **super-linear scaling between 8 and
//! 16 nodes** — attributed to "significantly better cache utilisation
//! ... when the problem set is divided to a certain size" — followed by
//! near-linear scaling, with very little communication in the way (two
//! halo exchanges and one reduction per step).
//!
//! The model captures exactly those terms:
//!
//! * compute: the single-node roofline of [`super::cpu`] divided across
//!   nodes, with the platform's `cache_boost` applied when a core's
//!   working-set share fits its cache (the super-linear regime);
//! * communication: per-step messages (2 exchanges × neighbours) at
//!   Aries latency plus halo bytes over bandwidth — small, as observed;
//! * the serial partitioner term of §V-C (why the paper used hybrid for
//!   this study: fewer ranks keep the serial partitioner off the
//!   critical path). It is included so the flat-MPI configuration shows
//!   the degradation the paper describes.

use bookleaf_util::{KernelId, TimerReport};

use super::cost::WorkloadCount;
use super::cpu::{CpuExecution, CpuModel};
use super::platform::{CpuPlatform, Interconnect};

/// Bytes of state per element that must stream each step (for the cache
/// residency test): the full SoA field set.
const STATE_BYTES_PER_ELEMENT: f64 = 300.0;

/// Strong-scaling cluster model.
#[derive(Debug, Clone, Copy)]
pub struct ClusterModel {
    /// The node type.
    pub node: CpuPlatform,
    /// The network.
    pub network: Interconnect,
    /// Per-element cost of the serial partitioner (seconds) — §V-C.
    pub partitioner_s_per_element: f64,
}

impl ClusterModel {
    /// XC50-like cluster of the given nodes.
    #[must_use]
    pub fn xc50(node: CpuPlatform) -> Self {
        ClusterModel {
            node,
            network: Interconnect::aries(),
            partitioner_s_per_element: 2.0e-7,
        }
    }

    /// Per-kernel + comms report for `workload` on `nodes` nodes under
    /// `exec`.
    #[must_use]
    pub fn report(&self, workload: WorkloadCount, nodes: usize, exec: CpuExecution) -> TimerReport {
        let cpu = CpuModel::new(self.node);
        // Per-node slice of the problem.
        let slice = WorkloadCount {
            elements: workload.elements.div_ceil(nodes),
            steps: workload.steps,
        };

        // Cache residency: does one core's share of the state fit?
        let cores = self.node.cores() as f64;
        let ws_per_core = slice.elements as f64 * STATE_BYTES_PER_ELEMENT / cores;
        let cache = self.node.cache_per_core_mib * 1024.0 * 1024.0;
        let boost = if ws_per_core <= cache {
            self.node.cache_boost
        } else {
            1.0
        };

        let mut rep = TimerReport::zero();
        for k in KernelId::ALL {
            rep.set_seconds(k, cpu.kernel_seconds(k, slice, exec) / boost);
        }

        // Communication: per step, 2 halo exchange phases (before
        // viscosity, before acceleration) with ~4 neighbours each, plus
        // one allreduce (log2(nodes) latency hops); halo volume scales
        // with the partition surface ~ sqrt(elements per rank).
        let ranks_per_node = match exec {
            CpuExecution::FlatMpi => self.node.cores(),
            CpuExecution::Hybrid => self.node.sockets,
        };
        let total_ranks = (ranks_per_node * nodes) as f64;
        let halo_elements = (workload.elements as f64 / total_ranks).sqrt().ceil() * 4.0;
        let halo_bytes = halo_elements * 8.0 * 12.0; // ~12 doubles per halo element
        let per_step = 2.0
            * (4.0 * self.network.latency_us * 1e-6 + halo_bytes / (self.network.bandwidth * 1e9))
            + (total_ranks.log2().ceil() * self.network.latency_us * 1e-6);
        rep.set_seconds(KernelId::Comms, workload.steps as f64 * per_step);

        // Serial partitioner (setup, once): proportional to the global
        // element count and to the rank count's bookkeeping.
        let partition_t = workload.elements as f64
            * self.partitioner_s_per_element
            * (1.0 + (total_ranks / 64.0));
        rep.set_seconds(KernelId::Other, partition_t);
        rep
    }

    /// Overall seconds (all kernels + comms + setup).
    #[must_use]
    pub fn overall(&self, workload: WorkloadCount, nodes: usize, exec: CpuExecution) -> f64 {
        self.report(workload, nodes, exec).total_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Sod strong-scaling workload: sized so the per-core
    /// working set crosses the cache capacity between 8 and 16 nodes
    /// (6M elements / 8 nodes / 56 cores ≈ 4 MB > cache; at 16 nodes
    /// ≈ 2 MB ≤ cache), putting the super-linear regime where Fig 3 has
    /// it, on both platforms.
    fn sod_like() -> WorkloadCount {
        WorkloadCount {
            elements: 6_000_000,
            steps: 12_000,
        }
    }

    #[test]
    fn superlinear_between_8_and_16_nodes() {
        for node in [CpuPlatform::skylake(), CpuPlatform::broadwell()] {
            let m = ClusterModel::xc50(node);
            let t8 = m.overall(sod_like(), 8, CpuExecution::Hybrid);
            let t16 = m.overall(sod_like(), 16, CpuExecution::Hybrid);
            let speedup = t8 / t16;
            assert!(
                speedup > 2.05 && speedup < 4.5,
                "{}: 8->16 nodes speedup {speedup:.2} should be super-linear",
                node.name
            );
        }
    }

    #[test]
    fn near_linear_beyond_16_nodes() {
        let m = ClusterModel::xc50(CpuPlatform::skylake());
        let t16 = m.overall(sod_like(), 16, CpuExecution::Hybrid);
        let t32 = m.overall(sod_like(), 32, CpuExecution::Hybrid);
        let t64 = m.overall(sod_like(), 64, CpuExecution::Hybrid);
        for (a, b, label) in [(t16, t32, "16->32"), (t32, t64, "32->64")] {
            let speedup = a / b;
            assert!(
                (1.5..2.3).contains(&speedup),
                "{label}: speedup {speedup:.2} should be near-linear"
            );
        }
    }

    #[test]
    fn skylake_curve_below_broadwell_with_same_shape() {
        let s = ClusterModel::xc50(CpuPlatform::skylake());
        let b = ClusterModel::xc50(CpuPlatform::broadwell());
        let mut ratios = Vec::new();
        for nodes in [8, 16, 32, 64] {
            let ts = s.overall(sod_like(), nodes, CpuExecution::Hybrid);
            let tb = b.overall(sod_like(), nodes, CpuExecution::Hybrid);
            assert!(
                ts < tb,
                "{nodes} nodes: skylake {ts:.0} vs broadwell {tb:.0}"
            );
            ratios.push(tb / ts);
        }
        // "The scaling curve is similar": the platform gap stays within a
        // narrow band across node counts.
        let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ratios.iter().cloned().fold(0.0f64, f64::max);
        assert!(hi / lo < 1.6, "curve shapes diverge: ratios {ratios:?}");
    }

    #[test]
    fn kernels_scale_like_the_whole(/* Fig 4 */) {
        let m = ClusterModel::xc50(CpuPlatform::skylake());
        for k in [KernelId::GetQ, KernelId::GetAcc] {
            let t8 = m.report(sod_like(), 8, CpuExecution::Hybrid).seconds(k);
            let t16 = m.report(sod_like(), 16, CpuExecution::Hybrid).seconds(k);
            let t64 = m.report(sod_like(), 64, CpuExecution::Hybrid).seconds(k);
            assert!(t8 / t16 > 2.0, "{k:?} should scale super-linearly 8->16");
            assert!(t16 / t64 > 2.0, "{k:?} should keep scaling to 64");
        }
    }

    #[test]
    fn communication_stays_minor() {
        // §V-C: "the communication overhead ... does not cause a
        // significant issue when increasing node counts."
        let m = ClusterModel::xc50(CpuPlatform::skylake());
        for nodes in [8, 64] {
            let rep = m.report(sod_like(), nodes, CpuExecution::Hybrid);
            let frac = rep.seconds(KernelId::Comms) / rep.total_seconds();
            assert!(frac < 0.15, "{nodes} nodes: comm fraction {frac:.3}");
        }
    }

    #[test]
    fn flat_mpi_partitioner_term_grows_with_ranks() {
        // §V-C's reason for using hybrid in the scaling study.
        let m = ClusterModel::xc50(CpuPlatform::skylake());
        let hybrid = m
            .report(sod_like(), 64, CpuExecution::Hybrid)
            .seconds(KernelId::Other);
        let flat = m
            .report(sod_like(), 64, CpuExecution::FlatMpi)
            .seconds(KernelId::Other);
        assert!(
            flat > 5.0 * hybrid,
            "flat {flat:.1}s vs hybrid {hybrid:.1}s"
        );
    }
}
