//! Drive a run from a *text input deck* — the way real BookLeaf works:
//! every problem in the paper is a file, not code. Loads the committed
//! `examples/decks/sod.deck`, runs it, and shows the deck ⇄ text round
//! trip.
//!
//! ```text
//! cargo run --release --example input_deck
//! ```

use bookleaf::core::decks;
use bookleaf::{ProgressLogger, Simulation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/decks/sod.deck");
    println!("loading {path}");

    let mut sim = Simulation::builder()
        .deck_file(path)
        .observer(ProgressLogger::stdout(50))
        .build()?;

    // The parsed spec is retained: print its canonical text form — the
    // exact round trip decks::from_str/to_string guarantee.
    let input = sim.input_deck().expect("deck came from text").clone();
    println!("canonical form of the parsed deck:");
    for line in decks::to_string(&input).lines() {
        println!("  | {line}");
    }
    assert_eq!(decks::from_str(&decks::to_string(&input))?, input);

    // The text deck reproduces the programmatic constructor exactly.
    let reference = decks::sod(40, 4);
    assert_eq!(sim.deck().mesh.nodes, reference.mesh.nodes);
    assert_eq!(sim.solution().rho, reference.rho);
    println!("deck matches decks::sod(40, 4) exactly");
    println!();

    let report = sim.run()?;
    println!();
    println!(
        "{}: {} steps to t = {:.3}, energy drift {:.2e}",
        report.name,
        report.steps,
        report.time,
        report.energy_drift()
    );

    // Malformed decks fail with a line-anchored, typed error.
    let err = Simulation::builder()
        .deck_str("problem = sod\nnx = 40\nny = oops\n")
        .build()
        .unwrap_err();
    println!("malformed deck example -> {err}");
    Ok(())
}
