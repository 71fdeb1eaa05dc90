//! Saltzmann's piston: hourglass suppression on a distorted mesh.
//!
//! Paper §III-B: "Saltzmann's piston is a simple one-dimensional piston
//! problem run on a distorted mesh. This is designed to exacerbate
//! hourglass modes and therefore test a code's capability to suppress
//! such modes." The exact solution is a planar strong shock: speed
//! `D = (γ+1)/2 · u_p = 4/3`, post-shock density `(γ+1)/(γ−1) = 4`.

use bookleaf::core::{decks, RunConfig, Simulation};
use bookleaf::hydro::getforce::HourglassControl;
use bookleaf::mesh::geometry::quad_centroid;
use bookleaf::validate::quality::assess;

fn run_saltzmann(t_final: f64, hg: HourglassControl) -> Result<Simulation, String> {
    let deck = decks::saltzmann(100, 10);
    let config = RunConfig {
        final_time: t_final,
        lag: bookleaf::hydro::LagOptions {
            hourglass: hg,
            ..Default::default()
        },
        ..RunConfig::default()
    };
    let mut driver = Simulation::builder()
        .deck(deck)
        .config(config)
        .build()
        .map_err(|e| e.to_string())?;
    driver.run().map_err(|e| e.to_string())?;
    Ok(driver)
}

#[test]
fn piston_shock_speed_and_compression() {
    let t = 0.4;
    let driver = run_saltzmann(t, HourglassControl::default()).expect("run");
    let mesh = driver.mesh();
    let st = driver.state();

    // Shock position: piston at x = t, shock at x = 4t/3.
    let shock_x = (0..mesh.n_elements())
        .filter(|&e| st.rho[e] > 2.5)
        .map(|e| quad_centroid(&mesh.corners(e)).x)
        .fold(0.0f64, f64::max);
    let expect = 4.0 / 3.0 * t;
    assert!(
        (shock_x - expect).abs() < 0.06,
        "shock at x = {shock_x:.3}, exact {expect:.3}"
    );

    // Post-shock density: plateau between piston and shock at 4.
    let plateau: Vec<f64> = (0..mesh.n_elements())
        .filter(|&e| {
            let x = quad_centroid(&mesh.corners(e)).x;
            (t + 0.02..expect - 0.04).contains(&x)
        })
        .map(|e| st.rho[e])
        .collect();
    assert!(!plateau.is_empty());
    let mean = plateau.iter().sum::<f64>() / plateau.len() as f64;
    assert!((mean - 4.0).abs() < 0.6, "plateau density {mean:.3}");
}

#[test]
fn mesh_survives_untangled() {
    let driver = run_saltzmann(0.5, HourglassControl::default()).expect("run");
    let rep = assess(driver.mesh());
    assert_eq!(rep.n_tangled, 0);
    assert!(rep.min_area > 0.0);
}

#[test]
fn piston_wall_tracks_prescribed_motion() {
    let t = 0.3;
    let driver = run_saltzmann(t, HourglassControl::default()).expect("run");
    let min_x = driver
        .mesh()
        .nodes
        .iter()
        .map(|p| p.x)
        .fold(f64::INFINITY, f64::min);
    assert!(
        (min_x - t).abs() < 1e-6,
        "piston wall at {min_x:.4}, expected {t}"
    );
}

#[test]
fn hourglass_control_reduces_distortion() {
    // The deck's entire purpose: with hourglass control off, the
    // distorted mesh must degrade measurably more (or fail outright).
    let with = run_saltzmann(0.35, HourglassControl::default()).expect("controlled run");
    let q_with = assess(with.mesh());

    match run_saltzmann(0.35, HourglassControl::none()) {
        Err(_) => {
            // Uncontrolled run died (tangled / dt collapse): the control
            // is load-bearing. That is a pass.
        }
        Ok(without) => {
            let q_without = assess(without.mesh());
            assert!(
                q_without.max_skew >= q_with.max_skew - 1e-9,
                "hourglass control should not worsen skew: {} vs {}",
                q_with.max_skew,
                q_without.max_skew
            );
        }
    }
}

#[test]
fn transverse_velocities_stay_small() {
    // The exact solution is 1-D: y velocities are pure hourglass noise
    // and must stay far below the piston speed.
    let driver = run_saltzmann(0.4, HourglassControl::default()).expect("run");
    let st = driver.state();
    let max_v = st.u.iter().map(|u| u.y.abs()).fold(0.0f64, f64::max);
    assert!(max_v < 0.5, "transverse velocity {max_v:.3} too large");
}
