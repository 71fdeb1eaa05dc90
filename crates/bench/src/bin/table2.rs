//! Regenerate **Table II** — per-kernel performance breakdown for the
//! Noh problem on a single node, across all seven configurations.
//!
//! Part 1 prints the *modeled* seconds for the paper's platforms (the
//! `bookleaf_bench::device` substitution) side by side with the paper's
//! published values and the ratio, so the reproduction quality is
//! visible per cell.
//!
//! Part 2 runs a *real, measured* Noh problem on the host machine under
//! the three locally executable models (serial, flat MPI, hybrid) and
//! prints the same breakdown — the shape comparison the paper's §V-B
//! draws (flat MPI beats hybrid; viscosity dominates; the acceleration
//! kernel degrades under threading).

use bookleaf_bench::device::{CpuExecution, CpuModel, CpuPlatform, GpuExecution, GpuModel};
use bookleaf_bench::{
    format_row, measured_noh, table2_header, table2_row, NOH_MODEL_WORKLOAD, PAPER_TABLE2,
};
use bookleaf_core::ExecutorKind;
use bookleaf_util::TimerReport;

fn modeled_reports() -> Vec<(&'static str, TimerReport)> {
    let w = NOH_MODEL_WORKLOAD;
    let skl = CpuModel::new(CpuPlatform::skylake());
    let bdw = CpuModel::new(CpuPlatform::broadwell());
    let cuda = GpuExecution::Cuda { dope_fix: false };
    vec![
        ("Skylake MPI", skl.report(w, CpuExecution::FlatMpi)),
        ("Skylake Hybrid", skl.report(w, CpuExecution::Hybrid)),
        ("Broadwell MPI", bdw.report(w, CpuExecution::FlatMpi)),
        ("Broadwell Hybrid", bdw.report(w, CpuExecution::Hybrid)),
        (
            "P100 OpenMP",
            GpuModel::p100().report(w, GpuExecution::Offload),
        ),
        ("P100 CUDA", GpuModel::p100().report(w, cuda)),
        ("V100 CUDA", GpuModel::v100().report(w, cuda)),
    ]
}

fn main() {
    println!("Table II: per-kernel breakdown, Noh single node (seconds)");
    println!("{}", "=".repeat(100));
    println!("--- modeled platforms (vs paper values) ---");
    println!("{}", table2_header());
    for ((label, rep), (plabel, paper)) in modeled_reports().iter().zip(PAPER_TABLE2) {
        assert_eq!(*label, plabel);
        let row = table2_row(rep);
        println!("{}", format_row(label, &row));
        let ratio: Vec<String> = row
            .iter()
            .zip(paper)
            .map(|(m, p)| format!("{:>9.2}", m / p))
            .collect();
        println!(
            "{:<18} {}   <- model / paper",
            "  paper ratio",
            ratio.join(" ")
        );
    }

    println!();
    println!("--- measured on this host (Noh 60x60 to t = 0.2, 5-run mean) ---");
    println!("(Viscosity = the fused viscosity + force sweep; getforce reads 0)");
    println!("{}", table2_header());
    let configs = [
        ("host serial", ExecutorKind::Serial),
        ("host flat MPI x4", ExecutorKind::FlatMpi { ranks: 4 }),
        (
            "host hybrid 2x2",
            ExecutorKind::Hybrid {
                ranks: 2,
                threads_per_rank: 2,
            },
        ),
    ];
    for (label, exec) in configs {
        // The paper: "the results presented are the average runtime of
        // five executions".
        let mut rows = Vec::new();
        let mut walls = Vec::new();
        for _ in 0..5 {
            let (rep, wall) = measured_noh(60, 0.2, exec);
            rows.push(table2_row(&rep));
            walls.push(wall);
        }
        let mean_row: [f64; 7] =
            std::array::from_fn(|i| rows.iter().map(|r| r[i]).sum::<f64>() / rows.len() as f64);
        println!("{}", format_row(label, &mean_row));
        // §V-B: "viscosity dominates" — read off the merged column,
        // on the one row no oversubscribed rank thread can distort.
        if exec == ExecutorKind::Serial {
            let heaviest = mean_row[1..].iter().copied().fold(0.0f64, f64::max);
            assert!(
                mean_row[1] == heaviest,
                "viscosity + force ({:.3}s) is not the heaviest kernel ({heaviest:.3}s)",
                mean_row[1]
            );
        }
        let rsd = bookleaf_util::stats::rel_std_dev(&walls);
        println!(
            "{:<18} wall {:>6.3}s, run-to-run rel. std dev {:.1}%",
            "",
            bookleaf_util::stats::mean(&walls),
            100.0 * rsd
        );
    }
    println!();
    println!("Shape checks (paper's findings): flat MPI < hybrid overall; viscosity");
    println!("within ~15% between models; acceleration/getdt/getgeom blow up hybrid;");
    println!("GPUs slower than Skylake flat MPI; P100 CUDA slowest overall.");
}
