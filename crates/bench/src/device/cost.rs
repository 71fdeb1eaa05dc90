//! Per-kernel work counts.
//!
//! The roofline models need, for every kernel, the floating-point
//! operations and bytes moved per element per invocation. These are
//! *effective* counts, calibrated so the roofline reproduces Table II's
//! per-kernel proportions — not an audit of this code's kernels.

use bookleaf_util::KernelId;

/// Flop and byte counts per element for one kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Double-precision flops per element.
    pub flops: f64,
    /// Bytes moved per element (read + write, gather-amplified).
    pub bytes: f64,
    /// Invocations per time step (predictor + corrector where relevant).
    pub calls_per_step: f64,
    /// Fraction of the kernel that a threaded (OpenMP-style) port runs
    /// serially *per rank* — Amdahl term for the hybrid model. Calibrated
    /// from the Table II hybrid/flat ratios; the mechanisms are the
    /// acceleration scatter dependency, the `MINVAL`/`MINLOC` scans of
    /// `getdt`, and the error-scan reduction of `getgeom` (§IV-B).
    pub serial_fraction: f64,
}

impl KernelCost {
    /// The calibrated cost table.
    #[must_use]
    pub fn of(kernel: KernelId) -> KernelCost {
        match kernel {
            // NOTE: flop/byte values below are *effective* (cache-aware)
            // counts calibrated so the roofline reproduces Table II's
            // per-kernel proportions; raw code audits gave the same
            // ordering but overweighted the cache-resident kernels.
            // getq: neighbour gathers (5 elements of state), centroid,
            // 4 faces × (midpoints, normalised direction with sqrt+div,
            // limiter, two fused multiplies). Two calls per step.
            KernelId::GetQ => KernelCost {
                flops: 800.0,
                bytes: 800.0,
                calls_per_step: 2.0,
                serial_fraction: 0.007,
            },
            // getacc: node gather of 4-ish corners (mass+force), divide,
            // BC, two axpy. One call per step, node-centred (≈ element
            // count). The scatter formulation serialises nearly all of it
            // in a threaded port.
            KernelId::GetAcc => KernelCost {
                flops: 230.0,
                bytes: 230.0,
                calls_per_step: 1.0,
                serial_fraction: 0.10,
            },
            // getdt: divergence (area gradient dot), CFL ratio, min-scan.
            KernelId::GetDt => KernelCost {
                flops: 306.0,
                bytes: 306.0,
                calls_per_step: 1.0,
                serial_fraction: 0.30,
            },
            // getgeom: shoelace, corner volumes (4 sub-quads), lengths
            // with sqrt; volume-positivity error scan. Two calls.
            KernelId::GetGeom => KernelCost {
                flops: 59.0,
                bytes: 59.0,
                calls_per_step: 2.0,
                serial_fraction: 0.35,
            },
            // getforce: area gradient, 4 edge-q terms, hourglass filter,
            // sub-zonal pressures. Two calls.
            KernelId::GetForce => KernelCost {
                flops: 93.0,
                bytes: 93.0,
                calls_per_step: 2.0,
                serial_fraction: 0.0,
            },
            // getpc: EoS polynomial + sqrt. Two calls.
            KernelId::GetPc => KernelCost {
                flops: 23.0,
                bytes: 23.0,
                calls_per_step: 2.0,
                serial_fraction: 0.0,
            },
            // getrho: one divide, three doubles.
            KernelId::GetRho => KernelCost {
                flops: 8.0,
                bytes: 8.0,
                calls_per_step: 2.0,
                serial_fraction: 0.0,
            },
            // getein: 4 corner dot products + axpy. Two calls.
            KernelId::GetEin => KernelCost {
                flops: 16.0,
                bytes: 16.0,
                calls_per_step: 2.0,
                serial_fraction: 0.0,
            },
            // The fused getgeom→getrho→getein→getpc sweep. The paper
            // platforms (and the calibrated models above) ran the
            // *unfused* reference chain, so the fused kernel gets zero
            // calls per step here — the chain's cost is charged through
            // its four constituents, and pinned model outputs are
            // unchanged. Flops are the exact sum of the chain; bytes
            // drop to one traversal of the shared element arrays
            // (corners, mass, rho, ein read once instead of once per
            // kernel).
            KernelId::EosFused => KernelCost {
                flops: 106.0,
                bytes: 74.0,
                calls_per_step: 0.0,
                serial_fraction: 0.35,
            },
            // The fused getq+getforce sweep, treated like EosFused: the
            // paper platforms ran the two kernels separately, so it gets
            // zero calls per step and pinned model outputs are
            // unchanged. Effective counts are the constituents' sums
            // (the sweep executes their arithmetic verbatim).
            KernelId::ViscForce => KernelCost {
                flops: 893.0,
                bytes: 893.0,
                calls_per_step: 0.0,
                serial_fraction: 0.007,
            },
            // Remap (when active): flux volumes + limited advection.
            KernelId::Ale => KernelCost {
                flops: 260.0,
                bytes: 540.0,
                calls_per_step: 1.0,
                serial_fraction: 0.05,
            },
            // Comms / other: no per-element cost (modeled separately).
            KernelId::Comms | KernelId::Other => KernelCost {
                flops: 0.0,
                bytes: 0.0,
                calls_per_step: 0.0,
                serial_fraction: 0.0,
            },
        }
    }

    /// Number of distinct per-element array arguments the kernel passes
    /// to a device launch — drives the CUDA Fortran dope-vector transfer
    /// overhead (§IV-D: 72–96 bytes per assumed-size array per launch).
    #[must_use]
    pub fn device_array_args(kernel: KernelId) -> usize {
        match kernel {
            KernelId::GetQ => 10,
            KernelId::GetAcc => 8,
            KernelId::GetDt => 7,
            KernelId::GetGeom => 6,
            KernelId::GetForce => 11,
            KernelId::GetPc => 5,
            KernelId::GetRho => 3,
            KernelId::GetEin => 6,
            // Fused chain: the union of its constituents' argument
            // lists, with the shared arrays (geometry, rho, ein, mass)
            // deduplicated.
            KernelId::EosFused => 14,
            // Fused viscosity+force: the union of getq's and getforce's
            // lists, the six shared inputs (x, y, u, v, rho, cs2)
            // counted once.
            KernelId::ViscForce => 15,
            KernelId::Ale => 9,
            KernelId::Comms | KernelId::Other => 0,
        }
    }
}

/// A workload: how many elements and steps a run processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadCount {
    /// Mesh elements.
    pub elements: usize,
    /// Time steps.
    pub steps: usize,
}

impl WorkloadCount {
    /// Element-steps processed by one kernel over the run.
    #[must_use]
    pub fn element_calls(&self, kernel: KernelId) -> f64 {
        self.elements as f64 * self.steps as f64 * KernelCost::of(kernel).calls_per_step
    }

    /// Kernel launches over the run (for GPU launch overheads).
    #[must_use]
    pub fn launches(&self, kernel: KernelId) -> f64 {
        self.steps as f64 * KernelCost::of(kernel).calls_per_step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn viscosity_is_the_heavy_kernel() {
        let q = KernelCost::of(KernelId::GetQ);
        for k in [
            KernelId::GetAcc,
            KernelId::GetDt,
            KernelId::GetGeom,
            KernelId::GetPc,
        ] {
            let other = KernelCost::of(k);
            assert!(
                q.flops * q.calls_per_step > other.flops * other.calls_per_step,
                "{k:?} should be cheaper than getq"
            );
        }
    }

    #[test]
    fn serial_fractions_match_paper_ordering() {
        // Table II hybrid blow-ups: getgeom > getdt > getacc > getq.
        let sf = |k| KernelCost::of(k).serial_fraction;
        assert!(sf(KernelId::GetGeom) > sf(KernelId::GetDt));
        assert!(sf(KernelId::GetDt) > sf(KernelId::GetAcc));
        assert!(sf(KernelId::GetAcc) > sf(KernelId::GetQ));
    }

    #[test]
    fn workload_counting() {
        let w = WorkloadCount {
            elements: 1000,
            steps: 10,
        };
        assert_eq!(w.element_calls(KernelId::GetQ), 20_000.0);
        assert_eq!(w.launches(KernelId::GetAcc), 10.0);
    }

    #[test]
    fn comms_carries_no_element_cost() {
        let c = KernelCost::of(KernelId::Comms);
        assert_eq!(c.flops, 0.0);
        assert_eq!(c.bytes, 0.0);
    }

    #[test]
    fn fused_sweeps_never_launch_in_the_paper_models() {
        // The paper platforms ran the unfused reference kernels; the
        // fused sweeps must not perturb the pinned model outputs.
        for k in [KernelId::EosFused, KernelId::ViscForce] {
            assert_eq!(KernelCost::of(k).calls_per_step, 0.0);
            let w = WorkloadCount {
                elements: 1000,
                steps: 10,
            };
            assert_eq!(w.element_calls(k), 0.0);
        }
    }
}
