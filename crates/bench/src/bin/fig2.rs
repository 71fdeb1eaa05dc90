//! Regenerate **Figure 2** — per-kernel execution times for the Noh
//! problem on a single node: (a) the viscosity kernel, (b) the
//! acceleration kernel.
//!
//! These two kernels carry the paper's §V-B argument: viscosity (the
//! most expensive kernel) stays within a few percent between flat MPI
//! and hybrid, while the acceleration kernel — serialised by its data
//! dependency under OpenMP — blows up ~2.4x.

use bookleaf_bench::{NOH_MODEL_WORKLOAD, PAPER_TABLE2};
use bookleaf_device::{CpuExecution, CpuModel, CpuPlatform, GpuExecution, GpuModel};
use bookleaf_util::{KernelId, TimerReport};

fn reports() -> Vec<(&'static str, TimerReport)> {
    let w = NOH_MODEL_WORKLOAD;
    let skl = CpuModel::new(CpuPlatform::skylake());
    let bdw = CpuModel::new(CpuPlatform::broadwell());
    let cuda = GpuExecution::Cuda { dope_fix: false };
    vec![
        ("Skylake MPI", skl.report(w, CpuExecution::FlatMpi)),
        ("Skylake Hybrid", skl.report(w, CpuExecution::Hybrid)),
        ("Broadwell MPI", bdw.report(w, CpuExecution::FlatMpi)),
        ("Broadwell Hybrid", bdw.report(w, CpuExecution::Hybrid)),
        ("P100 CUDA", GpuModel::p100().report(w, cuda)),
        ("V100 CUDA", GpuModel::v100().report(w, cuda)),
        (
            "P100 OpenMP",
            GpuModel::p100().report(w, GpuExecution::Offload),
        ),
    ]
}

/// One bar per configuration: the summed seconds of `kernels` next to
/// the paper's summed Table II columns `paper_cols`.
fn panel(title: &str, kernels: &[KernelId], paper_cols: &[usize]) {
    println!("{title}");
    println!("{}", "-".repeat(78));
    let data = reports();
    let seconds = |rep: &TimerReport| kernels.iter().map(|&k| rep.seconds(k)).sum::<f64>();
    let max = data.iter().map(|(_, r)| seconds(r)).fold(0.0f64, f64::max);
    for (label, rep) in &data {
        let t = seconds(rep);
        let paper = PAPER_TABLE2
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, row)| paper_cols.iter().map(|&c| row[c]).sum::<f64>())
            .unwrap();
        let width = (t / max * 50.0).round() as usize;
        println!(
            "{label:<18} {t:>8.1}s |{}  (paper: {paper:.1}s)",
            "#".repeat(width)
        );
    }
    println!();
}

fn main() {
    println!("Figure 2: per-kernel execution times, Noh problem, single node");
    println!("{}", "=".repeat(78));
    panel("(a) Viscosity calculation kernel", &[KernelId::GetQ], &[1]);
    // What a run of this code reports as one bucket (`ViscForce`): the
    // paper platforms' viscosity and force kernels taken together.
    panel(
        "(a') Viscosity + force (the fused sweep's share)",
        &[KernelId::GetQ, KernelId::GetForce],
        &[1, 5],
    );
    panel(
        "(b) Acceleration calculation kernel",
        &[KernelId::GetAcc],
        &[2],
    );
    // The §V-B shape statements, checked numerically.
    let data = reports();
    let get =
        |label: &str, k: KernelId| data.iter().find(|(l, _)| *l == label).unwrap().1.seconds(k);
    let q_gap = get("Skylake Hybrid", KernelId::GetQ) / get("Skylake MPI", KernelId::GetQ);
    let acc_gap = get("Skylake Hybrid", KernelId::GetAcc) / get("Skylake MPI", KernelId::GetAcc);
    println!("Skylake hybrid/flat: viscosity x{q_gap:.2} (paper x1.14), acceleration x{acc_gap:.2} (paper x2.39)");
}
