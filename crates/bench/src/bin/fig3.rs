//! Regenerate **Figure 3** — overall execution time for the Sod problem
//! when strong scaling over 8–64 nodes (hybrid MPI+OpenMP), Skylake and
//! Broadwell.
//!
//! Part 1: the cluster model (compute roofline + cache-residency boost +
//! Aries comms + serial partitioner term). The paper's headline: super-
//! linear scaling from 8 to 16 nodes (cache effect), near-linear beyond,
//! Skylake below Broadwell with the same curve shape.
//!
//! Part 2: a *measured* strong-scaling sweep on this host over rank
//! counts (the same code path, real halo exchanges) — bounded by the
//! host's core count, it demonstrates the mechanics rather than the
//! 64-node regime.

use bookleaf_bench::device::{ClusterModel, CpuExecution, CpuPlatform};
use bookleaf_bench::{measured_sod, SOD_SCALING_WORKLOAD};
use bookleaf_core::ExecutorKind;

fn main() {
    println!("Figure 3: Sod strong scaling, overall time (hybrid MPI+OpenMP)");
    println!("{}", "=".repeat(78));
    println!("--- modeled Cray XC50 ---");
    println!(
        "{:<8} {:>14} {:>14} {:>10}",
        "nodes", "Skylake (s)", "Broadwell (s)", "S speedup"
    );
    let skl = ClusterModel::xc50(CpuPlatform::skylake());
    let bdw = ClusterModel::xc50(CpuPlatform::broadwell());
    let mut prev: Option<f64> = None;
    for nodes in [8usize, 16, 32, 64] {
        let ts = skl.overall(SOD_SCALING_WORKLOAD, nodes, CpuExecution::Hybrid);
        let tb = bdw.overall(SOD_SCALING_WORKLOAD, nodes, CpuExecution::Hybrid);
        let speedup = prev.map(|p| p / ts).unwrap_or(1.0);
        println!("{nodes:<8} {ts:>14.1} {tb:>14.1} {speedup:>9.2}x");
        prev = Some(ts);
    }
    println!("(speedup column: vs previous node count; > 2x = super-linear)");

    println!();
    println!("--- measured on this host (Sod 400x50 to t = 0.08, flat ranks) ---");
    println!("{:<8} {:>12} {:>10}", "ranks", "wall (s)", "speedup");
    let mut base: Option<f64> = None;
    for ranks in [1usize, 2, 4] {
        let exec = if ranks == 1 {
            ExecutorKind::Serial
        } else {
            ExecutorKind::FlatMpi { ranks }
        };
        let (_, wall) = measured_sod(400, 0.08, exec);
        let speedup = base.get_or_insert(wall).to_owned() / wall;
        println!("{ranks:<8} {wall:>12.3} {speedup:>9.2}x");
    }
}
