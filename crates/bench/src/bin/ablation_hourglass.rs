//! Ablation: hourglass-control mechanisms on the Saltzmann piston.
//!
//! §III-A: "Two of the most common methods for suppressing hourglass
//! modes are filters and sub-zonal pressures. BookLeaf possesses an
//! implementation of a filter following Hancock and sub-zonal pressures
//! following Caramana et al." — and §III-B chooses Saltzmann's piston
//! precisely "to exacerbate hourglass modes".
//!
//! This ablation runs the piston with each mechanism on/off and reports
//! mesh quality and the transverse-velocity noise (the hourglass
//! signature on a 1-D problem), plus the runtime cost of the controls.

use bookleaf_core::{decks, RunConfig, Simulation};
use bookleaf_hydro::getforce::HourglassControl;
use bookleaf_validate::quality::assess;

fn run(hg: HourglassControl) -> std::result::Result<(f64, f64, f64, usize), String> {
    let deck = decks::saltzmann(100, 10);
    let config = RunConfig {
        final_time: 0.45,
        lag: bookleaf_hydro::LagOptions {
            hourglass: hg,
            ..Default::default()
        },
        ..RunConfig::default()
    };
    let mut sim = Simulation::builder()
        .deck(deck)
        .config(config)
        .build()
        .map_err(|e| e.to_string())?;
    let s = sim.run().map_err(|e| e.to_string())?;
    let q = assess(sim.mesh());
    let noise = sim
        .state()
        .u
        .iter()
        .map(|u| u.y.abs())
        .fold(0.0f64, f64::max);
    Ok((q.max_skew, noise, s.wall_seconds, s.steps))
}

fn main() {
    println!("Ablation: hourglass control on the Saltzmann piston (t = 0.45)");
    println!("{}", "=".repeat(78));
    println!(
        "{:<28} {:>10} {:>12} {:>10} {:>8}",
        "configuration", "max skew", "max |u_y|", "wall (s)", "steps"
    );
    for (label, hg) in [
        ("filter + sub-zonal (default)", HourglassControl::default()),
        (
            "filter only",
            HourglassControl {
                kappa_filter: 0.7,
                zeta_subzonal: 0.0,
            },
        ),
        (
            "sub-zonal only",
            HourglassControl {
                kappa_filter: 0.0,
                zeta_subzonal: 0.3,
            },
        ),
        ("no control", HourglassControl::none()),
    ] {
        match run(hg) {
            Ok((skew, noise, wall, steps)) => {
                println!("{label:<28} {skew:>10.4} {noise:>12.4} {wall:>10.3} {steps:>8}")
            }
            Err(e) => println!("{label:<28} FAILED: {e}"),
        }
    }
    println!();
    println!("max |u_y| is the hourglass signature: the exact solution is 1-D, so");
    println!("every transverse velocity is spurious mode energy the controls damp.");
}
