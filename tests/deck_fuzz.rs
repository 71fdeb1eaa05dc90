//! Property-based deck fuzzer: generate random **valid** generic decks
//! and check the invariants that must hold for *any* deck —
//! scenarios are a generator, not a list.
//!
//! Per random deck:
//! * the canonical text form round-trips exactly (value- and
//!   byte-level);
//! * the deck builds, runs, and time advances (every dt > 0);
//! * with reflective walls and no driven boundaries, energy is
//!   conserved to roundoff;
//! * a serial run and a hybrid (2 ranks × 2 threads) run agree at
//!   1e-12;
//! * symmetric setups (mirror-symmetric about the x = y diagonal)
//!   stay symmetric under transposition of the solution;
//! * with or without an `[ale]` section, serial or distributed: pause
//!   at a random step, checkpoint through bytes, resume, finish — and
//!   land on the uninterrupted run **bitwise**.
//!
//! And per random deck's canonical *text*, mutated one line at a time
//! (a line deleted, duplicated, swapped with the next, everything after
//! it cut off, a stray `[` injected, a value replaced by junk): the
//! parser never panics, answers `Ok` (and then round-trips
//! byte-exactly), `Config`, or `Text` naming a line that exists — and a
//! rejected value is rejected *at its own line*.
//!
//! The deck generator is *constructive*: every draw yields a valid
//! deck by design (one bounded feature region layered over a
//! whole-domain ambient region, so coverage and shadowing errors are
//! impossible), rather than drawing freely and discarding failures.

use bookleaf::ale::{AleMode, AleOptions};
use bookleaf::core::scenario::{
    BoundarySpec, EnergyInit, GenericSpec, MeshSpec, NamedMaterial, RegionSpec, Shape, VelocityInit,
};
use bookleaf::eos::EosSpec;
use bookleaf::util::{DeckError, Vec2};
use bookleaf::{Checkpoint, ExecutorKind, InputDeck, ProblemSpec, Simulation};
use proptest::prelude::*;

/// Uniform draw in `[lo, hi)` from the shim RNG.
fn f(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

/// A random valid generic deck on `[0,1]²`, all-reflective walls, no
/// piston: at most one bounded feature region (which can never cover
/// the far corner of the domain) over a whole-domain ambient region.
fn random_deck(rng: &mut TestRng) -> InputDeck {
    let nx = 4 + (rng.next_u64() % 6) as usize;
    let ny = 4 + (rng.next_u64() % 6) as usize;

    let gas = NamedMaterial {
        name: "gas".into(),
        eos: EosSpec::IdealGas {
            gamma: f(rng, 1.2, 1.9),
        },
    };
    let water = NamedMaterial {
        name: "water".into(),
        eos: EosSpec::Tait {
            p0: f(rng, 20.0, 120.0),
            rho0: 1.0,
            gamma: 7.0,
        },
    };
    let two_materials = rng.next_u64().is_multiple_of(2);
    let materials = if two_materials {
        vec![gas, water]
    } else {
        vec![gas]
    };

    let region = |rng: &mut TestRng, name: &str, shape: Shape| {
        let mat = &materials[(rng.next_u64() % materials.len() as u64) as usize];
        let energy =
            if matches!(mat.eos, EosSpec::IdealGas { .. }) && rng.next_u64().is_multiple_of(2) {
                EnergyInit::Pressure(f(rng, 0.1, 2.0))
            } else {
                EnergyInit::Ein(f(rng, 0.1, 2.0))
            };
        let velocity = if rng.next_u64().is_multiple_of(3) {
            VelocityInit::Radial {
                speed: f(rng, -0.4, 0.4),
            }
        } else {
            VelocityInit::Constant(Vec2::new(f(rng, -0.3, 0.3), f(rng, -0.3, 0.3)))
        };
        RegionSpec {
            name: name.into(),
            shape,
            material: mat.name.clone(),
            rho: f(rng, 0.5, 2.0),
            energy,
            velocity,
        }
    };

    let mut regions = Vec::new();
    match rng.next_u64() % 4 {
        0 => {} // ambient only
        1 => {
            // A circle with r < 0.45 cannot reach both opposite corner
            // centroids, so the ambient region always keeps elements.
            let shape = Shape::Circle {
                cx: f(rng, 0.0, 1.0),
                cy: f(rng, 0.0, 1.0),
                r: f(rng, 0.15, 0.45),
            };
            regions.push(region(rng, "feature", shape));
        }
        2 => {
            // A rect inside [0, 0.9]² leaves the (1,1) corner uncovered.
            let x0 = f(rng, 0.0, 0.5);
            let y0 = f(rng, 0.0, 0.5);
            let shape = Shape::Rect {
                x0,
                y0,
                x1: (x0 + f(rng, 0.1, 0.5)).min(0.9),
                y1: (y0 + f(rng, 0.1, 0.5)).min(0.9),
            };
            regions.push(region(rng, "feature", shape));
        }
        _ => {
            // n·p ≤ offset with n positive and offset < 0.8 (a+b):
            // always contains the (0,0) corner centroid, never the
            // (1,1) corner.
            let a = f(rng, 0.2, 1.0);
            let b = f(rng, 0.2, 1.0);
            let shape = Shape::HalfPlane {
                normal_x: a,
                normal_y: b,
                offset: f(rng, 0.3, 0.8 * (a + b)),
            };
            regions.push(region(rng, "feature", shape));
        }
    }
    let ambient = Shape::Rect {
        x0: 0.0,
        y0: 0.0,
        x1: 1.0,
        y1: 1.0,
    };
    regions.push(region(rng, "ambient", ambient));

    let spec = GenericSpec {
        name: "fuzz".into(),
        mesh: MeshSpec {
            nx,
            ny,
            origin: Vec2::ZERO,
            extent: Vec2::new(1.0, 1.0),
            skew: None,
        },
        materials,
        regions,
        boundary: BoundarySpec::default(),
    };
    let mut input = InputDeck::new(ProblemSpec::Generic(Box::new(spec)));
    input.final_time = Some(0.01);
    input.max_steps = 6;
    input
}

/// Run `input` to its (short) step budget under `executor`.
fn run(input: &InputDeck, executor: ExecutorKind) -> (Simulation, bookleaf::RunReport) {
    let mut sim = Simulation::builder()
        .deck_input(input.clone())
        .executor(executor)
        .build()
        .expect("fuzzed deck must build");
    let report = sim.run().expect("fuzzed deck must run");
    (sim, report)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The any-deck invariants, 128 random decks.
    #[test]
    fn random_generic_decks_hold_any_deck_invariants(seed in 0u64..1_000_000_000) {
        let mut rng = TestRng::from_name(&format!("deck-fuzz-{seed}"));
        let input = random_deck(&mut rng);

        // Round trip: canonical text reproduces the deck exactly, and
        // re-printing reproduces the bytes.
        let text = input.to_string();
        let reparsed: InputDeck = match text.parse() {
            Ok(deck) => deck,
            Err(e) => return Err(format!("re-parse failed: {e}\n{text}")),
        };
        prop_assert_eq!(&reparsed, &input);
        prop_assert_eq!(reparsed.to_string(), text);

        // Build + run: time advances, so every accepted dt was > 0.
        let (serial, report) = run(&input, ExecutorKind::Serial);
        prop_assert!(report.steps > 0, "no steps taken");
        prop_assert!(
            report.time > 0.0 && report.time.is_finite(),
            "time did not advance: {}",
            report.time
        );

        // Conservation: reflective walls, no piston — energy drift
        // stays at roundoff level.
        prop_assert!(
            report.energy_drift() < 1e-9,
            "energy drift {} over {} steps",
            report.energy_drift(),
            report.steps
        );

        // Executor equivalence: hybrid (2 ranks × 2 threads) matches
        // serial at 1e-12.
        let (hybrid, _) = run(
            &input,
            ExecutorKind::Hybrid { ranks: 2, threads_per_rank: 2 },
        );
        let (a, b) = (serial.state(), hybrid.state());
        for e in 0..a.rho.len() {
            prop_assert!(
                (a.rho[e] - b.rho[e]).abs() <= 1e-12,
                "rho[{e}]: serial {} vs hybrid {}",
                a.rho[e],
                b.rho[e]
            );
            prop_assert!(
                (a.ein[e] - b.ein[e]).abs() <= 1e-12,
                "ein[{e}]: serial {} vs hybrid {}",
                a.ein[e],
                b.ein[e]
            );
        }
        for n in 0..a.u.len() {
            prop_assert!(
                (a.u[n] - b.u[n]).norm() <= 1e-12,
                "u[{n}]: serial {:?} vs hybrid {:?}",
                a.u[n],
                b.u[n]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Decks symmetric about the x = y diagonal produce solutions that
    /// stay symmetric under transposition: `rho(i,j) = rho(j,i)` and
    /// `u(i,j) = swap(u(j,i))`.
    #[test]
    fn symmetric_decks_stay_symmetric(seed in 0u64..1_000_000_000) {
        let mut rng = TestRng::from_name(&format!("deck-sym-{seed}"));
        let n = 4 + (rng.next_u64() % 5) as usize;
        let gamma = f(&mut rng, 1.3, 1.8);
        // An origin-centred circular feature (radially symmetric, so
        // diagonal-symmetric) over a uniform ambient — the Noh/Sedov
        // family, randomized.
        let feature = RegionSpec {
            name: "core".into(),
            shape: Shape::Circle {
                cx: 0.0,
                cy: 0.0,
                r: f(&mut rng, 0.2, 0.6),
            },
            material: "gas".into(),
            rho: f(&mut rng, 0.5, 2.0),
            energy: EnergyInit::Ein(f(&mut rng, 0.5, 2.0)),
            velocity: VelocityInit::Radial {
                speed: f(&mut rng, -0.5, 0.5),
            },
        };
        let ambient = RegionSpec {
            name: "ambient".into(),
            shape: Shape::Rect { x0: 0.0, y0: 0.0, x1: 1.0, y1: 1.0 },
            material: "gas".into(),
            rho: 1.0,
            energy: EnergyInit::Ein(f(&mut rng, 0.05, 0.5)),
            velocity: VelocityInit::Constant(Vec2::ZERO),
        };
        let spec = GenericSpec {
            name: "fuzz-sym".into(),
            mesh: MeshSpec {
                nx: n,
                ny: n,
                origin: Vec2::ZERO,
                extent: Vec2::new(1.0, 1.0),
                skew: None,
            },
            materials: vec![NamedMaterial {
                name: "gas".into(),
                eos: EosSpec::IdealGas { gamma },
            }],
            regions: vec![feature, ambient],
            boundary: BoundarySpec::default(),
        };
        let mut input = InputDeck::new(ProblemSpec::Generic(Box::new(spec)));
        input.final_time = Some(0.01);
        input.max_steps = 8;

        let (sim, _) = run(&input, ExecutorKind::Serial);
        let state = sim.state();
        const TOL: f64 = 1e-9;
        for j in 0..n {
            for i in 0..n {
                let (e, et) = (j * n + i, i * n + j);
                prop_assert!(
                    (state.rho[e] - state.rho[et]).abs() <= TOL,
                    "rho({i},{j}) = {} vs rho({j},{i}) = {}",
                    state.rho[e],
                    state.rho[et]
                );
                prop_assert!(
                    (state.ein[e] - state.ein[et]).abs() <= TOL,
                    "ein({i},{j}) = {} vs ein({j},{i}) = {}",
                    state.ein[e],
                    state.ein[et]
                );
            }
        }
        for j in 0..=n {
            for i in 0..=n {
                let (v, vt) = (j * (n + 1) + i, i * (n + 1) + j);
                let (u, ut) = (state.u[v], state.u[vt]);
                prop_assert!(
                    (u.x - ut.y).abs() <= TOL && (u.y - ut.x).abs() <= TOL,
                    "u({i},{j}) = {u:?} vs swapped u({j},{i}) = {ut:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A pause at a step boundary moves no bits — any deck, Lagrangian
    /// or remapped, any executor shape, any pause step.
    #[test]
    fn resume_from_a_random_step_is_bitwise(seed in 0u64..1_000_000_000) {
        let mut rng = TestRng::from_name(&format!("deck-resume-{seed}"));
        let mut input = random_deck(&mut rng);
        let frequency = 1 + (rng.next_u64() % 3) as usize;
        input.ale = match rng.next_u64() % 3 {
            0 => None,
            1 => Some(AleOptions { mode: AleMode::Eulerian, frequency }),
            _ => Some(AleOptions {
                mode: AleMode::Smooth { alpha: f(&mut rng, 0.1, 0.9) },
                frequency,
            }),
        };
        let executor = match rng.next_u64() % 3 {
            0 => ExecutorKind::Serial,
            1 => ExecutorKind::FlatMpi { ranks: 2 },
            _ => ExecutorKind::Hybrid { ranks: 2, threads_per_rank: 2 },
        };
        let pause = 1 + (rng.next_u64() as usize) % (input.max_steps - 1);
        let (whole, report) = run(&input, executor);

        let mut short = input.clone();
        short.max_steps = pause;
        let (paused, _) = run(&short, executor);
        let ckpt = Checkpoint::from_bytes(&paused.checkpoint().unwrap().to_bytes()).unwrap();
        let mut resumed = Simulation::builder()
            .resume_from(ckpt)
            .max_steps(input.max_steps)
            .build()
            .unwrap();
        let resumed_report = resumed.run().expect("resumed run must finish");

        let label = format!("{:?} on {executor:?} paused at {pause}", input.ale);
        prop_assert!(
            (resumed_report.steps, resumed_report.time.to_bits())
                == (report.steps, report.time.to_bits()),
            "{label}: stopped at step {} t = {:e}, uninterrupted at step {} t = {:e}",
            resumed_report.steps,
            resumed_report.time,
            report.steps,
            report.time
        );
        prop_assert!(
            bookleaf::serve::state_crc(&resumed) == bookleaf::serve::state_crc(&whole),
            "{label}: the solution moved"
        );
    }
}

/// What the parser said of a hostile text.
enum Answer {
    Accepted,
    Config,
    Line(usize),
}

/// Parse hostile `text` and check what any answer must satisfy.
fn answer(text: &str, what: &str) -> Result<Answer, String> {
    let lines = text.lines().count();
    match text.parse::<InputDeck>() {
        Ok(deck) => {
            let canon = deck.to_string();
            let again = canon.parse::<InputDeck>();
            if again.as_ref() != Ok(&deck) || again.unwrap().to_string() != canon {
                return Err(format!("{what}: accepted, but does not round-trip\n{text}"));
            }
            Ok(Answer::Accepted)
        }
        Err(DeckError::Config { .. }) => Ok(Answer::Config),
        Err(DeckError::Text { line, .. }) if (1..=lines).contains(&line) => Ok(Answer::Line(line)),
        Err(other) => Err(format!("{what}: {other:?} on a {lines}-line text\n{text}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Hostile text: every single-line mutation of a valid deck's
    /// canonical text gets a typed answer that names a real line.
    #[test]
    fn mutated_deck_text_gets_typed_line_anchored_answers(seed in 0u64..1_000_000_000) {
        let mut rng = TestRng::from_name(&format!("deck-hostile-{seed}"));
        let mut input = random_deck(&mut rng);
        if rng.next_u64().is_multiple_of(2) {
            input.ale = Some(AleOptions { mode: AleMode::Smooth { alpha: 0.5 }, frequency: 2 });
            input.executor = ExecutorKind::Hybrid { ranks: 2, threads_per_rank: 2 };
        }
        let text = input.to_string();
        let lines: Vec<&str> = text.lines().collect();
        let joined = |lines: &[&str]| lines.join("\n") + "\n";
        for at in 0..lines.len() {
            let mut structural = vec![
                ("delete", [&lines[..at], &lines[at + 1..]].concat()),
                ("duplicate", [&lines[..=at], &lines[at..]].concat()),
                ("truncate after", lines[..=at].to_vec()),
                ("stray [ before", [&lines[..at], &["["], &lines[at..]].concat()),
            ];
            if at + 1 < lines.len() {
                let mut swapped = lines.clone();
                swapped.swap(at, at + 1);
                structural.push(("swap", swapped));
            }
            for (how, mutated) in structural {
                answer(&joined(&mutated), &format!("{how} line {}", at + 1))?;
            }
            let Some((key, _)) = lines[at].split_once(" = ") else { continue };
            for junk in ["zz!", "-1", "0", "1e999", "99999999", ""] {
                let replaced = format!("{key} = {junk}");
                let mut mutated = lines.clone();
                mutated[at] = &replaced;
                let what = format!("`{replaced}` at line {}", at + 1);
                let line = match answer(&joined(&mutated), &what)? {
                    Answer::Accepted => continue,
                    Answer::Config => return Err(format!("{what}: rejected without a line")),
                    Answer::Line(line) => line,
                };
                // The one exception: a bound that crosses its partner
                // (`x0` past `x1`) is reported at the upper bound's line.
                let bounds = ["x0", "y0", "x1", "y1"];
                let partner = bounds.contains(&key)
                    && bounds.iter().any(|b| lines[line - 1].starts_with(b))
                    && line.abs_diff(at + 1) < bounds.len();
                prop_assert!(line == at + 1 || partner, "{what}: rejected at line {line}\n{text}");
            }
        }
    }
}
