//! Resilient execution end to end: a Noh run on four ranks loses a
//! rank to a (deterministically injected) death mid-run, and the
//! supervisor recovers **elastically** — rewind to the last good
//! checkpoint, reshape onto two ranks, replay, finish — then the result
//! is checked bitwise against a fault-free run of the same shape
//! sequence.
//!
//! ```text
//! cargo run --release --example resilient_noh
//! ```
//!
//! Exits non-zero if recovery fails or the recovered trajectory
//! diverges.

use bookleaf::core::{decks, RecoveryPolicy, ReshapePolicy};
use bookleaf::typhon::FaultPlan;
use bookleaf::{ExecutorKind, Simulation};

const STEPS: usize = 40;
const SEGMENT: usize = 10;
const KILL_AT: usize = 25;

fn main() {
    let dir = std::env::temp_dir().join(format!("bookleaf_resilient_noh_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    println!("Noh on 4 ranks, rank 2 scheduled to die at step {KILL_AT}; checkpoints every {SEGMENT} steps into {}", dir.display());

    // The fault schedule is pure data: (attempt, step, rank) -> fault.
    // Attempt 0 only, so the post-recovery replay does not re-trip it.
    let plan = FaultPlan::new().kill(KILL_AT, 2);

    let mut sim = Simulation::builder()
        .deck(decks::noh(24))
        .executor(ExecutorKind::FlatMpi { ranks: 4 })
        .final_time(0.3)
        .max_steps(STEPS)
        .fault_plan(plan)
        .build()
        .expect("valid deck");

    let policy = RecoveryPolicy {
        checkpoint_every_steps: SEGMENT,
        max_retries: 3,
        reshape: ReshapePolicy::Halve,
        ..RecoveryPolicy::new(&dir)
    };

    let report = sim.run_resilient(&policy).expect("supervised run");

    println!(
        "\nrecovered: {} steps, t = {:.4}, {} retr{}, {} steps replayed",
        report.steps,
        report.time,
        report.recovery.retries(),
        if report.recovery.retries() == 1 {
            "y"
        } else {
            "ies"
        },
        report.recovery.steps_replayed
    );
    for event in &report.recovery.events {
        println!(
            "  attempt {}: {} -> rewound to step {}, retried on {:?}",
            event.attempt, event.error, event.from_step, event.retry_executor
        );
    }
    assert_eq!(report.steps, STEPS, "supervised run must finish");
    assert_eq!(report.recovery.retries(), 1, "exactly one absorbed fault");

    // Reference: the same shape sequence without the fault — 4 ranks to
    // the rewind point, 2 ranks for the remaining segments, handing
    // over through the same checkpoint machinery.
    let rewind = report.recovery.events[0].from_step;
    let mut reference = Simulation::builder()
        .deck(decks::noh(24))
        .executor(ExecutorKind::FlatMpi { ranks: 4 })
        .final_time(0.3)
        .max_steps(rewind)
        .build()
        .expect("valid deck");
    reference.run().expect("reference head segment");
    let mut ckpt = reference.checkpoint().expect("checkpointable deck");
    let mut boundary = rewind;
    while boundary < STEPS {
        boundary = (boundary + SEGMENT).min(STEPS);
        let mut seg = Simulation::builder()
            .resume_from(ckpt)
            .executor(ExecutorKind::FlatMpi { ranks: 2 })
            .final_time(0.3)
            .max_steps(boundary)
            .build()
            .expect("resume");
        seg.run().expect("reference segment");
        ckpt = seg.checkpoint().expect("segment checkpoint");
    }

    let mut worst = 0usize;
    for (a, b) in ckpt.snap.rho.iter().zip(&sim.state().rho) {
        if a.to_bits() != b.to_bits() {
            worst += 1;
        }
    }
    println!(
        "\nbitwise check against the fault-free shape sequence: {} of {} elements differ",
        worst,
        ckpt.snap.rho.len()
    );
    assert_eq!(worst, 0, "recovered trajectory diverged");
    println!("OK: the recovered run is the uninterrupted run, bit for bit.");

    let _ = std::fs::remove_dir_all(&dir);
}
