//! One deck, three programming models — the paper's evaluation axis in
//! miniature: serial reference, flat MPI (rank threads), and hybrid
//! MPI+OpenMP (rank threads x rayon), with an equivalence check.
//!
//! Every model runs through the *same* `Simulation::builder()` path —
//! only `.executor(..)` changes — and every run hands back the same
//! unified `RunReport`, so the table below needs no per-model code.
//!
//! ```text
//! cargo run --release --example programming_models
//! ```

use bookleaf::core::decks;
use bookleaf::util::KernelId;
use bookleaf::{ExecutorKind, RunReport, Simulation};

fn run(executor: ExecutorKind) -> (Simulation, RunReport) {
    let mut sim = Simulation::builder()
        .deck(decks::noh(80))
        .final_time(0.15)
        .executor(executor)
        .build()
        .expect("valid deck");
    let report = sim.run().expect("noh run");
    (sim, report)
}

fn print_row(label: &str, report: &RunReport) {
    println!(
        "{:<22} {:>10.3} {:>10.3}s {:>10.3}s {:>10.3}s",
        label,
        report.wall_seconds,
        report.timers.seconds(KernelId::ViscForce),
        report.timers.seconds(KernelId::GetAcc),
        report.timers.seconds(KernelId::Comms),
    );
}

fn main() {
    println!("Programming models on the Noh problem (80x80, t = 0.15)");
    println!("{}", "=".repeat(76));
    println!(
        "{:<22} {:>10} {:>11} {:>11} {:>11}",
        "model", "wall (s)", "visc+force", "accel", "comms"
    );

    let (serial, serial_report) = run(ExecutorKind::Serial);
    print_row("serial", &serial_report);

    let mut outputs = Vec::new();
    for (label, executor) in [
        ("flat MPI (4 ranks)", ExecutorKind::FlatMpi { ranks: 4 }),
        (
            "hybrid (2 x 2)",
            ExecutorKind::Hybrid {
                ranks: 2,
                threads_per_rank: 2,
            },
        ),
    ] {
        let (sim, report) = run(executor);
        print_row(label, &report);
        outputs.push((label, sim, report));
    }

    // Every model must produce the same physics.
    println!();
    let ne = serial.mesh().n_elements();
    for (label, sim, _) in &outputs {
        let max_diff = (0..ne)
            .map(|e| (serial.state().rho[e] - sim.state().rho[e]).abs())
            .fold(0.0f64, f64::max);
        println!("max |rho - serial| for {label}: {max_diff:.2e}");
        assert!(max_diff < 1e-9, "executors diverged!");
    }

    // The unified report carries the comm stats for every executor
    // (zero for serial — no wire traffic).
    println!();
    let (_, _, flat) = &outputs[0];
    assert_eq!(serial_report.comm.messages_sent, 0);
    println!(
        "halo traffic (flat MPI): {} messages, {:.2} MB",
        flat.comm.messages_sent,
        flat.comm.bytes_sent() as f64 / 1e6
    );
    println!("(two exchange phases per half-step plus one global dt reduction,");
    println!(" exactly the communication structure of the reference code)");
}
