//! Regenerate the **§IV-D dope-vector ablation**.
//!
//! CUDA Fortran transfers a descriptor ("dope vector", 72–96 bytes) for
//! every assumed-size array argument on every kernel launch. The paper:
//! *"When this optimisation is applied, performance of the kernels
//! improves dramatically; for example, the viscosity kernel runtime is
//! improved from 4.23 seconds to 2.2 seconds for one problem set."*
//!
//! We reproduce the effect with the GPU model's `dope_fix` toggle on a
//! problem sized like the paper's "one problem set" (descriptor-latency
//! dominated), and sweep problem size to show where the overhead stops
//! mattering.

use bookleaf_bench::device::{GpuExecution, GpuModel, WorkloadCount};
use bookleaf_util::KernelId;

fn main() {
    println!("Ablation: CUDA Fortran dope-vector transfers (paper SIV-D)");
    println!("{}", "=".repeat(78));
    let m = GpuModel::p100();

    // The paper's small problem set: descriptor costs comparable to the
    // kernel compute.
    let w = WorkloadCount {
        elements: 45_000,
        steps: 1_870,
    };
    let before = m.kernel_seconds(KernelId::GetQ, w, GpuExecution::Cuda { dope_fix: false });
    let after = m.kernel_seconds(KernelId::GetQ, w, GpuExecution::Cuda { dope_fix: true });
    println!(
        "viscosity kernel, small problem ({} elements, {} steps):",
        w.elements, w.steps
    );
    println!("  with dope-vector transfers:    {before:>6.2} s   (paper: 4.23 s)");
    println!("  fixed-size arrays (optimised): {after:>6.2} s   (paper: 2.2 s)");
    println!(
        "  speedup: x{:.2} (paper: x{:.2})",
        before / after,
        4.23 / 2.2
    );

    println!();
    println!("size sweep (viscosity kernel, 1870 steps):");
    println!(
        "{:<12} {:>10} {:>10} {:>9}",
        "elements", "dope (s)", "fixed (s)", "overhead"
    );
    for elements in [10_000usize, 45_000, 200_000, 1_000_000, 4_000_000] {
        let w = WorkloadCount {
            elements,
            steps: 1_870,
        };
        let b = m.kernel_seconds(KernelId::GetQ, w, GpuExecution::Cuda { dope_fix: false });
        let a = m.kernel_seconds(KernelId::GetQ, w, GpuExecution::Cuda { dope_fix: true });
        println!(
            "{elements:<12} {b:>10.2} {a:>10.2} {:>8.1}%",
            100.0 * (b - a) / a
        );
    }
    println!();
    println!("The overhead is per-launch (latency bound), so it dominates small");
    println!("problems and washes out at scale — exactly the paper's observation.");
}
