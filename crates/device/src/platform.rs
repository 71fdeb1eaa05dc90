//! Platform descriptions — the machines of the paper's Table I.

/// A dual-socket CPU node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuPlatform {
    /// Marketing name.
    pub name: &'static str,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// Sockets per node.
    pub sockets: usize,
    /// Sustained double-precision GFLOP/s per core on hydro kernels
    /// (far below peak: these kernels are not FMA-dense).
    pub gflops_per_core: f64,
    /// Sustained per-core memory bandwidth when all cores stream (GB/s).
    pub mem_bw_per_core: f64,
    /// Effective cache per core for the residency boost (MiB): L2 plus
    /// the core's share of L3.
    pub cache_per_core_mib: f64,
    /// Bandwidth multiplier when a rank's working set fits in cache.
    pub cache_boost: f64,
}

impl CpuPlatform {
    /// Total cores per node.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores_per_socket * self.sockets
    }

    /// Intel Xeon Platinum 8176 "Skylake" (28 cores × 2 sockets,
    /// Cray XC50) — Table I row 1.
    #[must_use]
    pub fn skylake() -> Self {
        CpuPlatform {
            name: "Intel Xeon Platinum 8176 'Skylake'",
            cores_per_socket: 28,
            sockets: 2,
            gflops_per_core: 3.4,
            mem_bw_per_core: 2.3,
            cache_per_core_mib: 2.4, // 1 MiB L2 + ~1.4 MiB L3 share
            cache_boost: 1.62,
        }
    }

    /// Intel Xeon E5-2699 v4 "Broadwell" (22 cores × 2 sockets,
    /// Cray XC50) — Table I row 2.
    #[must_use]
    pub fn broadwell() -> Self {
        CpuPlatform {
            name: "Intel Xeon E5-2699 v4 'Broadwell'",
            cores_per_socket: 22,
            sockets: 2,
            gflops_per_core: 2.7,
            mem_bw_per_core: 1.93,
            cache_per_core_mib: 2.8, // 256 KiB L2 + 2.5 MiB L3 share
            cache_boost: 1.58,
        }
    }
}

/// A PCIe-attached GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuPlatform {
    /// Marketing name.
    pub name: &'static str,
    /// Sustained device memory bandwidth on these kernels (GB/s).
    pub mem_bw: f64,
    /// Sustained double-precision GFLOP/s on these kernels.
    pub gflops: f64,
    /// Host↔device PCIe bandwidth (GB/s).
    pub pcie_bw: f64,
    /// Per-transfer PCIe latency (µs).
    pub pcie_latency_us: f64,
    /// Kernel launch latency (µs).
    pub launch_latency_us: f64,
}

impl GpuPlatform {
    /// NVIDIA P100 (PCIe, SuperMicro host) — Table I rows 3–4.
    #[must_use]
    pub fn p100() -> Self {
        GpuPlatform {
            name: "NVIDIA P100",
            mem_bw: 500.0, // sustained fraction of 732 peak
            gflops: 1200.0,
            pcie_bw: 11.0,
            pcie_latency_us: 8.0,
            launch_latency_us: 9.0,
        }
    }

    /// NVIDIA V100 (PCIe, SuperMicro host) — Table I row 5.
    #[must_use]
    pub fn v100() -> Self {
        GpuPlatform {
            name: "NVIDIA V100",
            mem_bw: 780.0,
            gflops: 2500.0,
            pcie_bw: 11.0,
            pcie_latency_us: 8.0,
            launch_latency_us: 8.0,
        }
    }
}

/// The inter-node network (Cray Aries on the XC50).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interconnect {
    /// Per-message latency (µs).
    pub latency_us: f64,
    /// Per-link bandwidth (GB/s).
    pub bandwidth: f64,
}

impl Interconnect {
    /// Cray Aries (XC50) class numbers.
    #[must_use]
    pub fn aries() -> Self {
        Interconnect {
            latency_us: 1.3,
            bandwidth: 10.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_counts_match_table_one() {
        assert_eq!(CpuPlatform::skylake().cores(), 56);
        assert_eq!(CpuPlatform::broadwell().cores(), 44);
    }

    #[test]
    fn skylake_outclasses_broadwell() {
        let s = CpuPlatform::skylake();
        let b = CpuPlatform::broadwell();
        assert!(s.gflops_per_core > b.gflops_per_core);
        assert!(s.mem_bw_per_core > b.mem_bw_per_core);
        assert!(s.cores() > b.cores());
    }

    #[test]
    fn v100_outclasses_p100() {
        let p = GpuPlatform::p100();
        let v = GpuPlatform::v100();
        assert!(v.mem_bw > p.mem_bw);
        assert!(v.gflops > p.gflops);
    }

    #[test]
    fn aries_is_low_latency() {
        assert!(Interconnect::aries().latency_us < 5.0);
    }
}
