//! The restart matrix: portable checkpoint/restart with elastic
//! repartitioning, pinned shape by shape.
//!
//! The killer property: run Noh to t/2, checkpoint, resume under a
//! *different* executor shape, and match the uninterrupted serial run
//! — bitwise when the shape is unchanged, to 1e-12 across shape
//! changes (the same tolerance `tests/hybrid_determinism.rs` pins for
//! serial-vs-distributed agreement). CI runs this file as the
//! `restart-matrix` job and uploads the checkpoint it produces as an
//! artifact.
//!
//! The same matrix holds with the ALE remap on (`Eulerian` and
//! `Smooth`): same-shape resume and `run_segment` loops are bitwise
//! under every executor, shape changes agree at 1e-12.
//!
//! Alongside the matrix: the committed golden fixture
//! `tests/fixtures/noh_v1.ckpt` pins the on-disk format (version bumps
//! must be deliberate), and the failure-path tests pin that malformed
//! files always surface as typed [`CheckpointError`]s, never panics.

use std::path::PathBuf;

use bookleaf::ale::{AleMode, AleOptions};
use bookleaf::core::{decks, Deck};
use bookleaf::{
    Checkpoint, CheckpointError, ExecutorKind, ProblemSpec, Simulation, CHECKPOINT_VERSION,
};
use proptest::prelude::*;

/// Pause/resume agreement tolerance across executor-shape changes.
const TOL: f64 = 1e-12;
/// The matrix problem: Noh on a 16×16 mesh to t = 0.05.
const FINAL_TIME: f64 = 0.05;

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn noh_builder() -> bookleaf::SimulationBuilder {
    Simulation::builder()
        .deck(decks::noh(16))
        .final_time(FINAL_TIME)
}

/// The uninterrupted serial reference run and its step count.
fn reference() -> (Simulation, usize) {
    let mut sim = noh_builder().build().unwrap();
    let report = sim.run().unwrap();
    assert!(report.steps >= 4, "reference too short to halve");
    (sim, report.steps)
}

/// Run to `steps` under `executor`, write a checkpoint file, return its
/// path.
fn checkpoint_at(steps: usize, executor: ExecutorKind, file: &str) -> PathBuf {
    let mut sim = noh_builder()
        .executor(executor)
        .max_steps(steps)
        .build()
        .unwrap();
    let report = sim.run().unwrap();
    assert_eq!(report.steps, steps, "pause landed on the wrong step");
    assert!(report.time < FINAL_TIME, "pause ran past the final time");
    let path = tmp(file);
    sim.checkpoint_to(&path).unwrap();
    path
}

/// Resume a checkpoint file under `executor` and run to completion.
fn resume(path: &PathBuf, executor: ExecutorKind) -> Simulation {
    let mut sim = Simulation::builder()
        .resume(path)
        .executor(executor)
        .max_steps(100_000)
        .build()
        .unwrap();
    let report = sim.run().unwrap();
    assert!(
        (report.time - FINAL_TIME).abs() < 1e-12,
        "resumed run stopped at t = {}",
        report.time
    );
    sim
}

/// Every field of the resumed solution within `tol` of the reference
/// (absolute, per entity — the hybrid-determinism contract).
fn assert_matches(reference: &Simulation, resumed: &Simulation, tol: f64, label: &str) {
    let (a, b) = (reference.state(), resumed.state());
    for e in 0..a.rho.len() {
        assert!(
            (a.rho[e] - b.rho[e]).abs() <= tol,
            "{label}: rho diverged at element {e}: {} vs {}",
            a.rho[e],
            b.rho[e]
        );
        assert!(
            (a.ein[e] - b.ein[e]).abs() <= tol,
            "{label}: ein diverged at element {e}"
        );
        assert!(
            (a.pressure[e] - b.pressure[e]).abs() <= tol,
            "{label}: pressure diverged at element {e}"
        );
    }
    for n in 0..a.u.len() {
        assert!(
            (a.u[n] - b.u[n]).norm() <= tol,
            "{label}: velocity diverged at node {n}"
        );
        assert!(
            reference.mesh().nodes[n].distance(resumed.mesh().nodes[n]) <= tol,
            "{label}: position diverged at node {n}"
        );
    }
}

// ---------------------------------------------------------------- matrix

/// Same shape, no repartition: pausing at a step boundary and resuming
/// through the file must move **no bits** relative to never pausing.
#[test]
fn serial_to_serial_resume_is_bitwise() {
    let (reference, steps) = reference();
    let path = checkpoint_at(steps / 2, ExecutorKind::Serial, "noh_serial_half.ckpt");
    let resumed = resume(&path, ExecutorKind::Serial);
    let (a, b) = (reference.state(), resumed.state());
    for e in 0..a.rho.len() {
        assert_eq!(
            a.rho[e].to_bits(),
            b.rho[e].to_bits(),
            "rho not bitwise at element {e}"
        );
        assert_eq!(
            a.ein[e].to_bits(),
            b.ein[e].to_bits(),
            "ein not bitwise at element {e}"
        );
    }
    for n in 0..a.u.len() {
        assert_eq!(
            a.u[n].x.to_bits(),
            b.u[n].x.to_bits(),
            "u.x not bitwise at node {n}"
        );
        assert_eq!(
            a.u[n].y.to_bits(),
            b.u[n].y.to_bits(),
            "u.y not bitwise at node {n}"
        );
        assert_eq!(
            reference.mesh().nodes[n].x.to_bits(),
            resumed.mesh().nodes[n].x.to_bits(),
            "node x not bitwise at node {n}"
        );
    }
}

/// Serial checkpoint, resumed across 4 ranks (the state is
/// repartitioned through RCB + the halo machinery).
#[test]
fn serial_checkpoint_resumes_on_four_ranks() {
    let (reference, steps) = reference();
    let path = checkpoint_at(steps / 2, ExecutorKind::Serial, "noh_1to4.ckpt");
    let resumed = resume(&path, ExecutorKind::FlatMpi { ranks: 4 });
    assert_matches(&reference, &resumed, TOL, "1 -> 4");
}

/// 4-rank checkpoint (assembled global view), resumed serially.
#[test]
fn four_rank_checkpoint_resumes_serially() {
    let (reference, steps) = reference();
    let path = checkpoint_at(
        steps / 2,
        ExecutorKind::FlatMpi { ranks: 4 },
        "noh_4to1.ckpt",
    );
    let resumed = resume(&path, ExecutorKind::Serial);
    assert_matches(&reference, &resumed, TOL, "4 -> 1");
}

/// Rank-count change without passing through serial: 2 -> 4.
#[test]
fn two_rank_checkpoint_resumes_on_four_ranks() {
    let (reference, steps) = reference();
    let path = checkpoint_at(
        steps / 2,
        ExecutorKind::FlatMpi { ranks: 2 },
        "noh_2to4.ckpt",
    );
    let resumed = resume(&path, ExecutorKind::FlatMpi { ranks: 4 });
    assert_matches(&reference, &resumed, TOL, "2 -> 4");
}

/// A resume with no overrides continues the embedded configuration —
/// the checkpoint is self-contained.
#[test]
fn resume_without_overrides_continues_the_embedded_config() {
    let mut sim = noh_builder().build().unwrap();
    sim.run().unwrap();
    let path = tmp("noh_complete.ckpt");
    sim.checkpoint_to(&path).unwrap();

    // The embedded deck carries problem, final time and executor; the
    // resumed simulation reports the same effective configuration.
    let resumed = Simulation::builder().resume(&path).build().unwrap();
    assert!((resumed.config().final_time - FINAL_TIME).abs() < 1e-15);
    assert!(matches!(resumed.config().executor, ExecutorKind::Serial));
    assert!(matches!(
        resumed.input_deck().unwrap().problem,
        ProblemSpec::Noh { n: 16 }
    ));
}

/// A pause at a *time* rather than a step: the paused run truncates
/// its last dt to land on t/2 and the growth limiter then ramps from
/// that truncated value, so the resumed run takes a different dt
/// sequence — the trajectory must still be the same one, in an
/// integrated norm, with the conserved quantities exact.
#[test]
fn time_targeted_pause_continues_the_trajectory() {
    use bookleaf::hydro::LocalRange;
    use bookleaf::util::approx_eq;
    let builder = || Simulation::builder().deck(decks::sod(60, 3));
    let mut reference = builder().final_time(0.1).build().unwrap();
    reference.run().unwrap();

    let mut first = builder().final_time(0.05).build().unwrap();
    first.run().unwrap();
    let ckpt = Checkpoint::from_bytes(&first.checkpoint().unwrap().to_bytes()).unwrap();
    assert!(approx_eq(ckpt.snap.time, 0.05, 1e-12));
    let mut resumed = Simulation::builder()
        .resume_from(ckpt)
        .final_time(0.1)
        .build()
        .unwrap();
    assert!(approx_eq(resumed.run().unwrap().time, 0.1, 1e-12));

    let l1 = bookleaf::validate::norms::l1_error(
        &reference.state().rho,
        &resumed.state().rho,
        &reference.state().volume,
    );
    assert!(l1 < 5e-4, "L1(rho) reference vs resumed = {l1:.2e}");
    let range = LocalRange::whole(reference.mesh());
    assert!(approx_eq(
        reference.state().total_mass(range),
        resumed.state().total_mass(range),
        1e-12
    ));
    assert!(approx_eq(
        reference.state().total_energy(reference.mesh(), range),
        resumed.state().total_energy(resumed.mesh(), range),
        1e-9
    ));
}

// ------------------------------------------------------------ ALE rows

/// Both remap flavours: Eulerian after every step, and a smoothing
/// remap every second step — paused at an odd step below, so the remap
/// cadence has to come from the absolute step index.
const ALE_MODES: [AleOptions; 2] = [
    AleOptions {
        mode: AleMode::Eulerian,
        frequency: 1,
    },
    AleOptions {
        mode: AleMode::Smooth { alpha: 0.5 },
        frequency: 2,
    },
];
const ALE_STEPS: usize = 16;
const ALE_PAUSE: usize = 7;

/// Run `deck` with `ale` under `executor` to exactly `steps` steps —
/// from the deck's initial state, or continuing `from` a checkpoint
/// (which embeds deck and ALE options).
fn ale_run(
    deck: &Deck,
    ale: AleOptions,
    executor: ExecutorKind,
    from: Option<Checkpoint>,
    steps: usize,
) -> Simulation {
    let builder = match from {
        Some(ckpt) => Simulation::builder().resume_from(ckpt),
        None => Simulation::builder()
            .deck(deck.clone())
            .final_time(1.0)
            .ale(Some(ale)),
    };
    let mut sim = builder.executor(executor).max_steps(steps).build().unwrap();
    assert_eq!(sim.run().unwrap().steps, steps);
    sim
}

/// The checkpoint a paused run hands over, through its byte format.
fn through_bytes(sim: &Simulation) -> Checkpoint {
    Checkpoint::from_bytes(&sim.checkpoint().unwrap().to_bytes()).unwrap()
}

const ALE_SHAPES: [ExecutorKind; 4] = [
    ExecutorKind::Serial,
    ExecutorKind::FlatMpi { ranks: 2 },
    ExecutorKind::Hybrid {
        ranks: 1,
        threads_per_rank: 2,
    },
    ExecutorKind::Hybrid {
        ranks: 2,
        threads_per_rank: 2,
    },
];

/// Serial → serial and N → N with the remap on: a pause moves no bits.
/// (Noh: the flow crosses the partition boundary from the first step.)
#[test]
fn ale_same_shape_resume_is_bitwise() {
    let deck = decks::noh(12);
    for ale in ALE_MODES {
        for executor in ALE_SHAPES {
            let reference = ale_run(&deck, ale, executor, None, ALE_STEPS);
            let paused = ale_run(&deck, ale, executor, None, ALE_PAUSE);
            let resumed = ale_run(
                &deck,
                ale,
                executor,
                Some(through_bytes(&paused)),
                ALE_STEPS,
            );
            let label = format!("{:?} on {executor:?}", ale.mode);
            assert_matches(&reference, &resumed, 0.0, &label);
        }
    }
}

/// A `run_segment(k)` loop is one `run()`, bitwise, under every
/// executor — the in-process pause serve's drain loop and
/// `run_resilient` are built on.
#[test]
fn segmented_ale_runs_match_one_run_bitwise() {
    let deck = decks::noh(12);
    for ale in ALE_MODES {
        for executor in ALE_SHAPES {
            let reference = ale_run(&deck, ale, executor, None, ALE_STEPS);
            let mut segmented = Simulation::builder()
                .deck(deck.clone())
                .final_time(1.0)
                .ale(Some(ale))
                .executor(executor)
                .max_steps(ALE_STEPS)
                .build()
                .unwrap();
            while !segmented.complete() {
                segmented.run_segment(5).unwrap();
            }
            let label = format!("segmented {:?} on {executor:?}", ale.mode);
            assert_matches(&reference, &segmented, 0.0, &label);
        }
    }
}

/// 1 → 4 and 4 → 1 with the remap on, against the uninterrupted serial
/// run. (Sedov: a distributed remap is first order at partition
/// boundaries, so only a flow that has not reached one yet agrees with
/// the serial remap this tightly.)
#[test]
fn ale_checkpoints_resume_across_shapes() {
    let deck = decks::sedov(16);
    let four = ExecutorKind::FlatMpi { ranks: 4 };
    for ale in ALE_MODES {
        let reference = ale_run(&deck, ale, ExecutorKind::Serial, None, ALE_STEPS);
        for (from, to) in [(ExecutorKind::Serial, four), (four, ExecutorKind::Serial)] {
            let paused = ale_run(&deck, ale, from, None, ALE_PAUSE);
            let resumed = ale_run(&deck, ale, to, Some(through_bytes(&paused)), ALE_STEPS);
            let label = format!("{:?} {from:?} -> {to:?}", ale.mode);
            assert_matches(&reference, &resumed, TOL, &label);
        }
    }
}

/// Repartitioning itself is exact whatever the flow: a serial
/// checkpoint scattered over four ranks and assembled straight back
/// (no step taken) is the same restart state, to the bit.
#[test]
fn repartitioning_a_checkpoint_moves_no_bits() {
    let deck = decks::noh(12);
    let paused = ale_run(&deck, ALE_MODES[0], ExecutorKind::Serial, None, ALE_PAUSE);
    let ckpt = through_bytes(&paused);
    let four = ExecutorKind::FlatMpi { ranks: 4 };
    let scattered = ale_run(&deck, ALE_MODES[0], four, Some(ckpt.clone()), ALE_PAUSE);
    assert_eq!(scattered.checkpoint().unwrap().snap, ckpt.snap);
    assert_matches(&paused, &scattered, 0.0, "scatter + assemble");
}

// ------------------------------------------------------------- fixture

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/noh_v1.ckpt")
}

fn fixture_checkpoint() -> Checkpoint {
    let mut sim = Simulation::builder()
        .deck(decks::noh(8))
        .final_time(0.03)
        .max_steps(10)
        .build()
        .unwrap();
    sim.run().unwrap();
    sim.checkpoint().unwrap()
}

/// Format-stability pin: the committed v1 fixture must keep parsing,
/// carry the expected contents, and re-encode **byte-identically**.
/// If this test fails, the on-disk format changed: bump
/// `CHECKPOINT_VERSION`, keep a reader for v1, and regenerate the
/// fixture (`cargo test --test checkpoint_restart -- --ignored`)
/// deliberately.
#[test]
fn golden_fixture_noh_v1_still_parses_and_reencodes_byte_identically() {
    let bytes = std::fs::read(fixture_path()).expect(
        "tests/fixtures/noh_v1.ckpt missing; regenerate with \
         cargo test --test checkpoint_restart -- --ignored",
    );
    assert_eq!(CHECKPOINT_VERSION, 1, "version bumped: regenerate fixture");
    let ckpt = Checkpoint::from_bytes(&bytes).expect("golden fixture no longer parses");
    assert!(matches!(ckpt.input.problem, ProblemSpec::Noh { n: 8 }));
    assert_eq!(ckpt.snap.steps, 10);
    assert_eq!(ckpt.snap.n_nodes(), 9 * 9);
    assert_eq!(ckpt.snap.n_elements(), 8 * 8);
    assert!(ckpt.snap.time > 0.0);
    assert_eq!(
        ckpt.to_bytes(),
        bytes,
        "checkpoint encoding changed without a version bump"
    );

    // The fixture must also still *run*: resume and finish the problem.
    let mut sim = Simulation::builder()
        .resume_from(ckpt)
        .max_steps(100_000)
        .build()
        .unwrap();
    let report = sim.run().unwrap();
    assert!((report.time - 0.03).abs() < 1e-12);
    assert!(sim.state().rho.iter().all(|r| r.is_finite() && *r > 0.0));
}

/// The checkpoint produced today must match the committed fixture
/// byte for byte — the writer is deterministic and format-stable.
#[test]
fn writer_reproduces_the_golden_fixture() {
    let committed = std::fs::read(fixture_path()).unwrap();
    assert_eq!(
        fixture_checkpoint().to_bytes(),
        committed,
        "writer output drifted from tests/fixtures/noh_v1.ckpt"
    );
}

/// Regenerate the committed fixture after a *deliberate* format change:
/// `cargo test --test checkpoint_restart -- --ignored`.
#[test]
#[ignore = "writes tests/fixtures/noh_v1.ckpt; run only on deliberate format changes"]
fn regenerate_golden_fixture() {
    std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
    std::fs::write(fixture_path(), fixture_checkpoint().to_bytes()).unwrap();
}

// ------------------------------------------------------- failure paths

/// A cheap valid checkpoint for corruption tests (no time stepping).
fn small_checkpoint_bytes() -> Vec<u8> {
    Simulation::builder()
        .deck(decks::noh(6))
        .build()
        .unwrap()
        .checkpoint()
        .unwrap()
        .to_bytes()
}

#[test]
fn truncated_files_are_typed_errors() {
    let bytes = small_checkpoint_bytes();
    for cut in [0, 1, 7, 8, 11, 15, bytes.len() / 2, bytes.len() - 1] {
        match Checkpoint::from_bytes(&bytes[..cut]) {
            Err(
                CheckpointError::Truncated { .. }
                | CheckpointError::Corrupt { .. }
                | CheckpointError::BadMagic,
            ) => {}
            other => panic!("cut at {cut}: expected a typed error, got {other:?}"),
        }
    }
}

#[test]
fn corrupted_header_is_rejected() {
    let mut bytes = small_checkpoint_bytes();
    bytes[0] ^= 0xFF;
    assert!(matches!(
        Checkpoint::from_bytes(&bytes),
        Err(CheckpointError::BadMagic)
    ));
}

#[test]
fn future_versions_are_rejected_with_both_versions_named() {
    let mut bytes = small_checkpoint_bytes();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    match Checkpoint::from_bytes(&bytes) {
        Err(CheckpointError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 99);
            assert_eq!(supported, CHECKPOINT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn snapshot_not_matching_its_deck_is_rejected() {
    // Pair a Sod snapshot with a Noh deck by hand; the builder must
    // refuse with the one typed mismatch, whatever path the checkpoint
    // took: in memory, or through its bytes and a file.
    let sod = Simulation::builder()
        .deck(decks::sod(8, 2))
        .build()
        .unwrap()
        .checkpoint()
        .unwrap();
    let noh = Simulation::builder()
        .deck(decks::noh(6))
        .build()
        .unwrap()
        .checkpoint()
        .unwrap();
    let franken = Checkpoint {
        input: noh.input,
        snap: sod.snap,
    };
    // Decoding the bytes builds no deck, so they decode: the shape is
    // refused where the deck is built, by the resume.
    let bytes = franken.to_bytes();
    assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), franken);
    let path = tmp("franken.ckpt");
    std::fs::write(&path, &bytes).unwrap();
    let from_memory = Simulation::builder()
        .resume_from(franken)
        .build()
        .unwrap_err();
    let from_file = Simulation::builder().resume(&path).build().unwrap_err();
    std::fs::remove_file(&path).unwrap();
    for err in [&from_memory, &from_file] {
        assert!(
            matches!(
                err,
                bookleaf::util::BookLeafError::Checkpoint(CheckpointError::DeckMismatch { .. })
            ) && err.to_string().contains("nodes"),
            "expected a shape mismatch, got: {err}"
        );
    }
    assert_eq!(from_memory.to_string(), from_file.to_string());
}

/// A generic-vocabulary deck carries its full `ProblemSpec` through the
/// checkpoint file: pause, resume through disk, and land **bitwise** on
/// the uninterrupted run — exactly like the named problems.
#[test]
fn generic_decks_round_trip_through_checkpoints() {
    const DECK: &str = "\
        name = implosion\n\
        [mesh]\n\
        nx = 8\n\
        ny = 8\n\
        [material.gas]\n\
        eos = ideal_gas\n\
        gamma = 1.4\n\
        [region.core]\n\
        shape = circle\n\
        cx = 0\n\
        cy = 0\n\
        r = 0.4\n\
        material = gas\n\
        rho = 1.5\n\
        ein = 1\n\
        u_radial = -0.5\n\
        [region.ambient]\n\
        shape = rect\n\
        x0 = 0\n\
        y0 = 0\n\
        x1 = 1\n\
        y1 = 1\n\
        material = gas\n\
        rho = 1\n\
        ein = 0.1\n\
        [control]\n\
        final_time = 1\n\
        max_steps = 12\n";

    let mut reference = Simulation::builder().deck_str(DECK).build().unwrap();
    assert_eq!(reference.run().unwrap().steps, 12);

    let mut paused = Simulation::builder()
        .deck_str(DECK)
        .max_steps(6)
        .build()
        .unwrap();
    paused.run().unwrap();
    let path = tmp("generic_half.ckpt");
    paused.checkpoint_to(&path).unwrap();

    // The file embeds the generic spec itself, not a named stand-in.
    let ckpt = Checkpoint::read_from(&path).unwrap();
    let input: bookleaf::InputDeck = DECK.parse().unwrap();
    assert_eq!(ckpt.input.problem, input.problem);
    assert!(
        matches!(ckpt.input.problem, ProblemSpec::Generic(_)),
        "checkpoint lost the generic spec: {:?}",
        ckpt.input.problem
    );

    let mut resumed = Simulation::builder()
        .resume(&path)
        .max_steps(12)
        .build()
        .unwrap();
    assert_eq!(resumed.run().unwrap().steps, 12);
    assert_matches(&reference, &resumed, 0.0, "generic resume");
}

#[test]
fn hand_built_decks_cannot_be_checkpointed() {
    use bookleaf::eos::{EosSpec, MaterialTable};
    use bookleaf::mesh::{generate_rect, RectSpec};
    use bookleaf::util::Vec2;
    let mesh = generate_rect(&RectSpec::unit_square(4), |_| 0).unwrap();
    let deck = bookleaf::core::Deck {
        name: "hand-built".to_string(),
        materials: MaterialTable::single(EosSpec::ideal_gas(1.4)),
        rho: vec![1.0; mesh.n_elements()],
        ein: vec![1.0; mesh.n_elements()],
        u: vec![Vec2::ZERO; mesh.n_nodes()],
        piston: None,
        spec: None,
        mesh,
    };
    let sim = Simulation::builder().deck(deck).build().unwrap();
    let err = sim.checkpoint().unwrap_err();
    assert!(
        err.to_string().contains("problem spec"),
        "expected the no-spec refusal, got: {err}"
    );
}

#[test]
fn missing_file_is_a_typed_io_error() {
    let err = Simulation::builder()
        .resume(tmp("does_not_exist.ckpt"))
        .build()
        .unwrap_err();
    assert!(
        err.to_string().contains("does_not_exist.ckpt"),
        "error should name the file: {err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Any single flipped byte is *detected* (the trailing CRC-32
    /// catches every 1-byte corruption) and surfaces as a typed error —
    /// never a panic, never a silently-wrong resume.
    #[test]
    fn random_byte_flips_never_panic_and_never_parse(
        pos in 0usize..4096,
        flip in 1u8..255,
    ) {
        let mut bytes = small_checkpoint_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        prop_assert!(
            Checkpoint::from_bytes(&bytes).is_err(),
            "flip of byte {pos} by {flip:#04x} went undetected"
        );
    }
}
