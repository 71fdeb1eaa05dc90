//! Regenerate **Figure 1** — overall performance for the Noh problem on
//! a single node, as a text bar chart over the seven configurations.

use bookleaf_bench::device::{CpuExecution, CpuModel, CpuPlatform, GpuExecution, GpuModel};
use bookleaf_bench::{NOH_MODEL_WORKLOAD, PAPER_TABLE2};

fn main() {
    let w = NOH_MODEL_WORKLOAD;
    let skl = CpuModel::new(CpuPlatform::skylake());
    let bdw = CpuModel::new(CpuPlatform::broadwell());
    let cuda = GpuExecution::Cuda { dope_fix: false };
    let bars: Vec<(&str, f64)> = vec![
        (
            "Skylake MPI",
            skl.report(w, CpuExecution::FlatMpi).total_seconds(),
        ),
        (
            "Skylake Hybrid",
            skl.report(w, CpuExecution::Hybrid).total_seconds(),
        ),
        (
            "Broadwell MPI",
            bdw.report(w, CpuExecution::FlatMpi).total_seconds(),
        ),
        (
            "Broadwell Hybrid",
            bdw.report(w, CpuExecution::Hybrid).total_seconds(),
        ),
        (
            "P100 CUDA",
            GpuModel::p100().report(w, cuda).total_seconds(),
        ),
        (
            "V100 CUDA",
            GpuModel::v100().report(w, cuda).total_seconds(),
        ),
        (
            "P100 OpenMP",
            GpuModel::p100()
                .report(w, GpuExecution::Offload)
                .total_seconds(),
        ),
    ];
    let paper: Vec<f64> = [
        "Skylake MPI",
        "Skylake Hybrid",
        "Broadwell MPI",
        "Broadwell Hybrid",
        "P100 CUDA",
        "V100 CUDA",
        "P100 OpenMP",
    ]
    .iter()
    .map(|name| {
        PAPER_TABLE2
            .iter()
            .find(|(l, _)| l == name)
            .map(|(_, row)| row[0])
            .unwrap()
    })
    .collect();

    println!("Figure 1: overall execution time, Noh problem, single node");
    println!("{}", "=".repeat(78));
    let max = bars.iter().map(|&(_, t)| t).fold(0.0f64, f64::max);
    for ((label, t), p) in bars.iter().zip(paper) {
        let width = (t / max * 50.0).round() as usize;
        println!(
            "{label:<18} {:>8.1}s |{}  (paper: {p:.1}s)",
            t,
            "#".repeat(width)
        );
    }
    println!();
    println!("Expected shape: both flat-MPI CPU bars lowest; hybrids above them;");
    println!("P100 CUDA the tallest bar; V100 CUDA and P100 OpenMP in between.");
}
