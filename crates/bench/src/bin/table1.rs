//! Regenerate **Table I** — the experimental configuration.
//!
//! The paper's Table I lists the five hardware/compiler configurations
//! used in the evaluation. Ours lists the `bookleaf-device` *modeled
//! platforms* standing in for those machines, with the parameters the
//! performance models use, plus the execution models attached to each.

use bookleaf_device::{CpuPlatform, GpuPlatform, Interconnect};

fn main() {
    println!("Table I: experimental configuration (modeled platforms)");
    println!("{}", "=".repeat(100));
    println!(
        "{:<42} {:>8} {:>12} {:>12} {:>20}",
        "Hardware", "cores", "GF/s-core", "GB/s-core", "execution models"
    );
    for cpu in [CpuPlatform::skylake(), CpuPlatform::broadwell()] {
        println!(
            "{:<42} {:>8} {:>12.2} {:>12.2} {:>20}",
            cpu.name,
            cpu.cores(),
            cpu.gflops_per_core,
            cpu.mem_bw_per_core,
            "flat MPI, hybrid"
        );
    }
    println!(
        "{:<42} {:>8} {:>12} {:>12} {:>20}",
        "GPU", "-", "GF/s", "GB/s", ""
    );
    for (gpu, models) in [
        (GpuPlatform::p100(), "OpenMP offload, CUDA"),
        (GpuPlatform::v100(), "CUDA"),
    ] {
        println!(
            "{:<42} {:>8} {:>12.0} {:>12.0} {:>20}",
            gpu.name, "-", gpu.gflops, gpu.mem_bw, models
        );
    }
    let net = Interconnect::aries();
    println!();
    println!(
        "Interconnect (Cray Aries class): latency {:.1} us, bandwidth {:.0} GB/s",
        net.latency_us, net.bandwidth
    );
    println!();
    println!("Paper original: Cray XC50 (Cray compiler) for CPU + OpenMP offload;");
    println!("SuperMicro 2028GR-TR (PGI compiler) for CUDA Fortran — see Table I of the paper.");
}
