//! Regenerate **Figure 4** — per-kernel execution times for the Sod
//! problem when strong scaling: (a) viscosity, (b) acceleration.
//!
//! §V-C: "the kernels scale superlinearly up to 16 nodes and then
//! continue to scale almost linearly beyond that ... both kernels are
//! well parallelised and dominate application performance at scale",
//! and the communications they contain stay out of the way.

use bookleaf_bench::device::{ClusterModel, CpuExecution, CpuPlatform};
use bookleaf_bench::SOD_SCALING_WORKLOAD;
use bookleaf_util::KernelId;

fn panel(title: &str, kernel: KernelId) {
    println!("{title}");
    println!(
        "{:<8} {:>14} {:>14} {:>10}",
        "nodes", "Skylake (s)", "Broadwell (s)", "S speedup"
    );
    let skl = ClusterModel::xc50(CpuPlatform::skylake());
    let bdw = ClusterModel::xc50(CpuPlatform::broadwell());
    let mut prev: Option<f64> = None;
    for nodes in [8usize, 16, 32, 64] {
        let ts = skl
            .report(SOD_SCALING_WORKLOAD, nodes, CpuExecution::Hybrid)
            .seconds(kernel);
        let tb = bdw
            .report(SOD_SCALING_WORKLOAD, nodes, CpuExecution::Hybrid)
            .seconds(kernel);
        let speedup = prev.map(|p| p / ts).unwrap_or(1.0);
        println!("{nodes:<8} {ts:>14.2} {tb:>14.2} {speedup:>9.2}x");
        prev = Some(ts);
    }
    println!();
}

fn main() {
    println!("Figure 4: per-kernel strong scaling, Sod problem (hybrid)");
    println!("{}", "=".repeat(78));
    panel("(a) Viscosity calculation kernel", KernelId::GetQ);
    panel("(b) Acceleration calculation kernel", KernelId::GetAcc);
    let skl = ClusterModel::xc50(CpuPlatform::skylake());
    for nodes in [8usize, 64] {
        let rep = skl.report(SOD_SCALING_WORKLOAD, nodes, CpuExecution::Hybrid);
        let frac = rep.seconds(KernelId::Comms) / rep.total_seconds();
        println!("comm fraction at {nodes:>2} nodes: {:.1}%", 100.0 * frac);
    }
    println!("(\"the communication overhead ... does not cause a significant issue\")");
}
