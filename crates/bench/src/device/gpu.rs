//! GPU model: CUDA Fortran and OpenMP target offload.
//!
//! Kernel time = launch overhead + (bytes × penalty) / device bandwidth,
//! plus API-specific mechanisms from the paper's §IV-C/D:
//!
//! * **Dope vectors (CUDA Fortran)** — every assumed-size array argument
//!   drags a 72–96-byte descriptor from host to device *per launch*; a
//!   latency-bound synchronous copy each. The paper's fix (declaring
//!   sizes inside the kernels) is the `dope_fix` toggle, and reproduced
//!   the 4.23 s → 2.2 s viscosity improvement.
//! * **Host-side time differential (CUDA)** — CUDA Fortran has no
//!   reduction primitives (no CUB/Thrust for Fortran), so `getdt` runs
//!   on the host: per-step device→host transfers of the dt inputs plus
//!   host-bandwidth compute. OpenMP offload reduces on the device.
//! * **Occupancy penalties** — per-kernel efficiency factors calibrated
//!   against Table II; the CUDA viscosity kernel's register pressure
//!   makes it ~30% slower than the OpenMP offload version, while the
//!   V100's architecture recovers a uniform factor.

use bookleaf_util::{KernelId, TimerReport};

use super::cost::{KernelCost, WorkloadCount};
use super::platform::GpuPlatform;

/// GPU programming model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuExecution {
    /// CUDA Fortran (PGI): dope vectors, host-side getdt.
    Cuda {
        /// Apply the paper's fixed-size-array optimisation (§IV-D).
        dope_fix: bool,
    },
    /// OpenMP 4 target offload (Cray): device reductions, no dope
    /// vectors, different register allocation.
    Offload,
}

/// GPU performance model.
#[derive(Debug, Clone, Copy)]
pub struct GpuModel {
    /// Device description.
    pub platform: GpuPlatform,
    /// Host effective bandwidth for the CUDA host-side getdt (GB/s).
    pub host_bw: f64,
    /// Cost per dope-vector transfer (µs) — latency bound.
    pub dope_us: f64,
    /// Architecture efficiency divisor applied to penalties
    /// (1.0 for P100; ~1.39 for V100, whose scheduler hides the
    /// unstructured-gather stalls better).
    pub arch_efficiency: f64,
}

impl GpuModel {
    /// P100 model.
    #[must_use]
    pub fn p100() -> Self {
        GpuModel {
            platform: GpuPlatform::p100(),
            host_bw: 35.0,
            dope_us: 50.0,
            arch_efficiency: 1.0,
        }
    }

    /// V100 model.
    #[must_use]
    pub fn v100() -> Self {
        GpuModel {
            platform: GpuPlatform::v100(),
            host_bw: 35.0,
            dope_us: 50.0,
            arch_efficiency: 1.39,
        }
    }

    /// Per-kernel bandwidth penalty (unstructured gathers, divergence,
    /// register-pressure occupancy). Calibrated from Table II; the
    /// *differences* between the two APIs are the mechanisms the paper
    /// discusses (register allocation, fused force kernels, EoS transfer
    /// handling).
    #[must_use]
    pub fn penalty(kernel: KernelId, exec: GpuExecution) -> f64 {
        let offload = matches!(exec, GpuExecution::Offload);
        match kernel {
            KernelId::GetQ => {
                if offload {
                    6.4 // better register utilisation (§V-B)
                } else {
                    8.2 // register pressure limits occupancy
                }
            }
            KernelId::GetAcc => {
                if offload {
                    15.7
                } else {
                    12.9
                }
            }
            KernelId::GetGeom => {
                if offload {
                    19.1
                } else {
                    44.9
                }
            }
            KernelId::GetForce => {
                if offload {
                    29.6 // poor codegen for the multi-branch force loop
                } else {
                    0.39 // PGI fuses the force assembly efficiently
                }
            }
            KernelId::GetPc => {
                if offload {
                    10.5
                } else {
                    52.3
                }
            }
            KernelId::GetDt => 5.6, // offload only; CUDA runs on the host
            // EosFused never launches in the paper-platform models
            // (calls_per_step is 0); the bandwidth-bound penalty matches
            // its streaming constituents.
            KernelId::GetRho | KernelId::GetEin | KernelId::EosFused | KernelId::Ale => 8.0,
            // Nor does ViscForce; it would inherit the viscosity
            // kernel's register-pressure penalty.
            KernelId::ViscForce => Self::penalty(KernelId::GetQ, exec),
            KernelId::Comms | KernelId::Other => 0.0,
        }
    }

    /// Seconds for one kernel over the workload.
    #[must_use]
    pub fn kernel_seconds(
        &self,
        kernel: KernelId,
        workload: WorkloadCount,
        exec: GpuExecution,
    ) -> f64 {
        let cost = KernelCost::of(kernel);
        let n = workload.element_calls(kernel);
        if n == 0.0 {
            return 0.0;
        }
        let launches = workload.launches(kernel);
        let launch_t = launches * self.platform.launch_latency_us * 1e-6;

        // CUDA getdt: host path (§IV-D — no reduction primitives).
        if kernel == KernelId::GetDt {
            if let GpuExecution::Cuda { .. } = exec {
                // D2H of the dt inputs (three per-element doubles) each
                // step, then host-bandwidth compute.
                let d2h = workload.steps as f64
                    * (3.0 * 8.0 * workload.elements as f64 / (self.platform.pcie_bw * 1e9)
                        + self.platform.pcie_latency_us * 1e-6);
                let host = n * cost.bytes / (self.host_bw * 1e9);
                return launch_t + d2h + host;
            }
        }

        let penalty = Self::penalty(kernel, exec) / self.arch_efficiency;
        let mut t = launch_t + n * cost.bytes * penalty / (self.platform.mem_bw * 1e9);

        // Dope vectors: one latency-bound descriptor copy per array
        // argument per launch (CUDA Fortran without the fix).
        if let GpuExecution::Cuda { dope_fix: false } = exec {
            t += launches * KernelCost::device_array_args(kernel) as f64 * self.dope_us * 1e-6;
        }
        t
    }

    /// Full per-kernel report.
    #[must_use]
    pub fn report(&self, workload: WorkloadCount, exec: GpuExecution) -> TimerReport {
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

    fn noh_like() -> WorkloadCount {
        WorkloadCount {
            elements: 4_000_000,
            steps: 930,
        }
    }

    const CUDA: GpuExecution = GpuExecution::Cuda { dope_fix: false };

    #[test]
    fn p100_cuda_is_the_slowest_configuration() {
        // Fig 1: P100 CUDA worst; P100 OpenMP between.
        let p100 = GpuModel::p100();
        let cuda = p100.report(noh_like(), CUDA).total_seconds();
        let offload = p100
            .report(noh_like(), GpuExecution::Offload)
            .total_seconds();
        assert!(
            cuda > offload,
            "cuda {cuda:.0} should exceed offload {offload:.0}"
        );
    }

    #[test]
    fn v100_beats_p100_under_cuda() {
        let p = GpuModel::p100().report(noh_like(), CUDA).total_seconds();
        let v = GpuModel::v100().report(noh_like(), CUDA).total_seconds();
        assert!(v < p, "v100 {v:.0} should beat p100 {p:.0}");
    }

    #[test]
    fn offload_viscosity_beats_cuda_viscosity() {
        // §V-B: better register utilisation in the OpenMP offload port.
        let m = GpuModel::p100();
        let q_cuda = m.kernel_seconds(KernelId::GetQ, noh_like(), CUDA);
        let q_off = m.kernel_seconds(KernelId::GetQ, noh_like(), GpuExecution::Offload);
        let ratio = q_cuda / q_off;
        assert!(
            (1.1..1.6).contains(&ratio),
            "cuda/offload viscosity = {ratio:.2}"
        );
    }

    #[test]
    fn cuda_getdt_dominated_by_host_path() {
        // Table II: CUDA getdt ≈ 40 s vs OpenMP ≈ 13 s.
        let m = GpuModel::p100();
        let dt_cuda = m.kernel_seconds(KernelId::GetDt, noh_like(), CUDA);
        let dt_off = m.kernel_seconds(KernelId::GetDt, noh_like(), GpuExecution::Offload);
        assert!(
            dt_cuda > 2.0 * dt_off,
            "host-side getdt {dt_cuda:.1} should dwarf device reduction {dt_off:.1}"
        );
    }

    #[test]
    fn dope_fix_reproduces_the_viscosity_ablation() {
        // §IV-D: 4.23 s -> 2.2 s on "one problem set". Pick a small
        // problem where descriptors dominate, as in the paper's case.
        let m = GpuModel::p100();
        let w = WorkloadCount {
            elements: 45_000,
            steps: 1_870,
        };
        let before = m.kernel_seconds(KernelId::GetQ, w, GpuExecution::Cuda { dope_fix: false });
        let after = m.kernel_seconds(KernelId::GetQ, w, GpuExecution::Cuda { dope_fix: true });
        let speedup = before / after;
        assert!(
            (1.5..2.6).contains(&speedup),
            "dope-fix speedup {speedup:.2} (before {before:.2}s after {after:.2}s)"
        );
    }

    #[test]
    fn cuda_force_kernel_is_nearly_free() {
        // Table II: getforce 0.536 s under CUDA but 40.9 s under offload.
        let m = GpuModel::p100();
        let f_cuda = m.kernel_seconds(
            KernelId::GetForce,
            noh_like(),
            GpuExecution::Cuda { dope_fix: true },
        );
        let f_off = m.kernel_seconds(KernelId::GetForce, noh_like(), GpuExecution::Offload);
        assert!(
            f_off > 20.0 * f_cuda,
            "offload {f_off:.1} vs cuda {f_cuda:.2}"
        );
    }

    #[test]
    fn gpus_slower_than_skylake_flat_mpi() {
        // Fig 1's headline: single-GPU configs lose to the CPU node.
        use crate::device::cpu::{CpuExecution, CpuModel};
        use crate::device::platform::CpuPlatform;
        let cpu = CpuModel::new(CpuPlatform::skylake())
            .report(noh_like(), CpuExecution::FlatMpi)
            .total_seconds();
        for t in [
            GpuModel::p100().report(noh_like(), CUDA).total_seconds(),
            GpuModel::p100()
                .report(noh_like(), GpuExecution::Offload)
                .total_seconds(),
            GpuModel::v100().report(noh_like(), CUDA).total_seconds(),
        ] {
            assert!(
                t > cpu,
                "gpu {t:.0} should be slower than skylake flat {cpu:.0}"
            );
        }
    }
}
