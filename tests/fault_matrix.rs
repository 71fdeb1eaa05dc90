//! The resilience fault matrix: every injected fault class — corrupt,
//! drop, delay, rank death — against both frames (Lagrangian and ALE),
//! must surface as a **typed error** (or, for a survivable delay, no
//! error and no perturbation): zero panics, zero hangs, and recovery
//! that is deterministic down to the byte.
//!
//! The killer test injects a rank death mid-Noh and recovers
//! *elastically* onto half the ranks, then demands the recovered
//! trajectory match a fault-free run of the same shape sequence
//! bitwise.
//!
//! The same contract holds for the failures no fault plan injects — a
//! tangled mesh, a collapsing time step, a corrupt or malformed deck, an
//! infeasible partition, a panicking rank: each is a typed error, never
//! UB, a wrong answer or a hang (the tests after the matrix).

use bookleaf::ale::{AleMode, AleOptions};
use bookleaf::core::{
    decks, ExecutorKind, Observer, RecoveryPolicy, ReshapePolicy, RunConfig, Shared, Simulation,
    SimulationBuilder, StepView,
};
use bookleaf::eos::{EosSpec, MaterialTable};
use bookleaf::hydro::getdt::DtControls;
use bookleaf::hydro::{HydroState, LocalRange};
use bookleaf::mesh::{generate_rect, Mesh, NodeBc, RectSpec, SubMeshPlan};
use bookleaf::serve::state_crc;
use bookleaf::typhon::{CommStats, FaultKind, FaultPlan, Typhon};
use bookleaf::util::{BookLeafError, CommError, DeckError, Vec2};

/// A Noh builder on 4 ranks; `ale` switches the frame (the remap adds
/// its own halo phases, widening the faultable surface).
fn noh4(ale: bool) -> SimulationBuilder {
    let mut b = Simulation::builder()
        .deck(decks::noh(12))
        .executor(ExecutorKind::FlatMpi { ranks: 4 })
        .final_time(0.1)
        .max_steps(12);
    if ale {
        b = b.ale(Some(AleOptions {
            mode: AleMode::Eulerian,
            frequency: 1,
        }));
    }
    b
}

#[test]
fn every_fault_class_surfaces_as_a_typed_error_in_both_frames() {
    for ale in [false, true] {
        for kind in [FaultKind::Corrupt, FaultKind::Drop, FaultKind::Kill] {
            let plan = FaultPlan::new().with(kind, 3, 1);
            let err = noh4(ale)
                .fault_plan(plan)
                .build()
                .unwrap()
                .run()
                .unwrap_err();
            assert!(
                matches!(err, BookLeafError::CommFault(_)),
                "{kind} fault in {} frame surfaced as {err:?}, not a CommFault",
                if ale { "ALE" } else { "Lagrangian" }
            );
        }
    }
}

#[test]
fn blocking_schedule_fails_just_as_typed_as_the_overlapped_one() {
    // The overlap toggle changes message scheduling, not the failure
    // contract: the same injected fault class must surface either way.
    for overlap in [true, false] {
        let err = noh4(false)
            .overlap(overlap)
            .fault_plan(FaultPlan::new().corrupt(2, 2))
            .build()
            .unwrap()
            .run()
            .unwrap_err();
        assert!(
            matches!(err, BookLeafError::CommFault(_)),
            "overlap={overlap}: {err:?}"
        );
    }
}

#[test]
fn delays_are_survivable_and_bitwise_invisible() {
    for ale in [false, true] {
        let clean = {
            let mut sim = noh4(ale).build().unwrap();
            sim.run().unwrap();
            sim.state().rho.clone()
        };
        // Several delays, spread over ranks and steps: a delayed message
        // is held for the receiver's first blocking receive, so it
        // arrives without a deadline's help, and latency must never
        // change an answer.
        let plan = FaultPlan::new().delay(2, 0).delay(4, 3).delay(7, 1);
        let mut sim = noh4(ale).fault_plan(plan).build().unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.steps, 12);
        for (e, (a, b)) in clean.iter().zip(&sim.state().rho).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "delay moved a bit at {e} (ale={ale})"
            );
        }
    }
}

#[test]
fn recovery_log_is_identical_across_two_runs_of_the_same_schedule() {
    let dir_for = |tag: &str| {
        let d = std::env::temp_dir().join(format!("bl_fault_matrix_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    };
    let run = |dir: &std::path::Path| {
        // Kill rank 0 at step 6: the supervisor itself sees the typed
        // `Killed {rank: 0, step: 6}`, which also exercises the
        // steps-replayed accounting.
        let plan = FaultPlan::new().kill(6, 0);
        let mut sim = noh4(false).fault_plan(plan).build().unwrap();
        let policy = RecoveryPolicy {
            checkpoint_every_steps: 4,
            max_retries: 2,
            reshape: ReshapePolicy::Halve,
            ..RecoveryPolicy::new(dir)
        };
        sim.run_resilient(&policy).unwrap()
    };
    // Run `b` shares run `a`'s directory, and finds there the newest
    // checkpoints `a` kept — newer than the step-4 file `b` rewinds to.
    // The supervisor rewinds to what it verified in this run, not to
    // the newest file it can find.
    let dir = dir_for("ab");
    let a = run(&dir);
    let stale: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("auto_step") && name.ends_with(".ckpt"))
        .collect();
    assert!(
        stale
            .iter()
            .any(|name| name.as_str() > "auto_step0000000004.ckpt"),
        "run `a` left no file newer than the rewind target: {stale:?}"
    );
    let b = run(&dir);
    assert_eq!(
        a.recovery, b.recovery,
        "recovery logs must be byte-identical"
    );
    assert_eq!(a.recovery.retries(), 1);
    assert!(a.recovery.warnings.is_empty());
    let event = &a.recovery.events[0];
    assert_eq!(event.from_step, 4, "rewind target is the step-4 checkpoint");
    assert_eq!(event.retry_executor, ExecutorKind::FlatMpi { ranks: 2 });
    assert!(event.error.contains("rank 0"), "{}", event.error);
    // The kill named its step, so the replay is accounted: 6 - 4 = 2.
    assert_eq!(a.recovery.steps_replayed, 2);
    assert_eq!(a.steps, 12);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The killer test: rank death mid-Noh, elastic recovery 4 → 2 ranks,
/// and the recovered trajectory matches a fault-free run of the same
/// shape sequence **bitwise**.
#[test]
fn elastic_recovery_from_rank_death_matches_the_uninterrupted_run() {
    let dir = std::env::temp_dir().join(format!("bl_elastic_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Supervised run: 4 ranks, segments of 5 steps, rank 3 dies at
    // step 8 (mid second segment). Recovery rewinds to the step-5
    // checkpoint and finishes on 2 ranks.
    let mut supervised = noh4(false)
        .max_steps(14)
        .fault_plan(FaultPlan::new().kill(8, 3))
        .build()
        .unwrap();
    let policy = RecoveryPolicy {
        checkpoint_every_steps: 5,
        max_retries: 2,
        reshape: ReshapePolicy::Halve,
        ..RecoveryPolicy::new(&dir)
    };
    let report = supervised.run_resilient(&policy).unwrap();
    assert_eq!(report.steps, 14);
    assert_eq!(report.recovery.retries(), 1);
    let event = &report.recovery.events[0];
    assert_eq!(event.from_step, 5);
    assert_eq!(event.retry_executor, ExecutorKind::FlatMpi { ranks: 2 });
    // The team reports rank 3's death, not the errors of the ranks left
    // waiting for it, so the replay is counted: steps 5..8 ran twice.
    let killed = BookLeafError::CommFault(CommError::Killed { rank: 3, step: 8 });
    assert_eq!(event.error, killed.to_string());
    assert_eq!(report.recovery.steps_replayed, 3);

    // Fault-free reference reproducing the exact shape sequence the
    // supervisor produced: 4 ranks for steps 0–5, then 2 ranks for
    // 5–10 and 10–14, handing over through the same checkpoint
    // machinery at the same steps.
    let mut seg0 = noh4(false).max_steps(5).build().unwrap();
    seg0.run().unwrap();
    let ckpt5 = seg0.checkpoint().unwrap();
    let mut seg1 = Simulation::builder()
        .resume_from(ckpt5)
        .executor(ExecutorKind::FlatMpi { ranks: 2 })
        .final_time(0.1)
        .max_steps(10)
        .build()
        .unwrap();
    seg1.run().unwrap();
    let ckpt10 = seg1.checkpoint().unwrap();
    let mut seg2 = Simulation::builder()
        .resume_from(ckpt10)
        .executor(ExecutorKind::FlatMpi { ranks: 2 })
        .final_time(0.1)
        .max_steps(14)
        .build()
        .unwrap();
    seg2.run().unwrap();

    // Same shapes at the same steps: the match must be bitwise (the
    // issue's 1e-12 bound, met exactly).
    for (e, (a, b)) in seg2
        .state()
        .rho
        .iter()
        .zip(&supervised.state().rho)
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "recovered run diverged from the uninterrupted one at element {e}: {a} vs {b}"
        );
    }
    for (n, (a, b)) in seg2.state().u.iter().zip(&supervised.state().u).enumerate() {
        assert_eq!(a.x.to_bits(), b.x.to_bits(), "u.x diverged at node {n}");
        assert_eq!(a.y.to_bits(), b.y.to_bits(), "u.y diverged at node {n}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retry_budget_exhaustion_returns_the_typed_error() {
    let dir = std::env::temp_dir().join(format!("bl_budget_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A kill rescheduled on every attempt the budget allows: the
    // supervisor must give up with the typed error, not loop forever.
    let plan = FaultPlan::new()
        .kill(3, 1)
        .kill(3, 1)
        .on_attempt(1)
        .kill(3, 1)
        .on_attempt(2);
    let mut sim = noh4(false).fault_plan(plan).build().unwrap();
    let policy = RecoveryPolicy {
        checkpoint_every_steps: 10,
        max_retries: 2,
        ..RecoveryPolicy::new(&dir)
    };
    let err = sim.run_resilient(&policy).unwrap_err();
    assert!(matches!(err, BookLeafError::CommFault(_)), "{err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shapes of one rank: no team runs them, so nothing can fault.
const ONE_RANK: [ExecutorKind; 3] = [
    ExecutorKind::Serial,
    ExecutorKind::FlatMpi { ranks: 1 },
    ExecutorKind::Hybrid {
        ranks: 1,
        threads_per_rank: 2,
    },
];

/// A fault plan is inert on a run of one rank: it has no messages to
/// corrupt, drop or delay and no rank to kill, so every fault class in
/// both frames finishes bitwise on the fault-free run, and no message
/// or collective is counted.
#[test]
fn a_fault_plan_is_inert_on_one_rank() {
    for ale in [false, true] {
        let mut clean = noh4(ale).executor(ExecutorKind::Serial).build().unwrap();
        clean.run().unwrap();
        let want = state_crc(&clean);
        for executor in ONE_RANK {
            for kind in [
                FaultKind::Corrupt,
                FaultKind::Drop,
                FaultKind::Delay,
                FaultKind::Kill,
            ] {
                let mut sim = noh4(ale)
                    .executor(executor)
                    .fault_plan(FaultPlan::new().with(kind, 3, 0))
                    .build()
                    .unwrap();
                let report = sim.run().unwrap();
                let what = format!("{kind} on {executor:?} (ale={ale})");
                assert_eq!(report.steps, 12, "{what}");
                assert_eq!(report.comm, CommStats::default(), "{what}");
                assert_eq!(state_crc(&sim), want, "{what}");
            }
        }
    }
}

/// Halving onto one rank still recovers: the 2-rank team dies, the
/// retry runs whole — where the plan's kill for that attempt has
/// nothing to kill — and finishes bitwise on the uninterrupted run.
#[test]
fn elastic_recovery_onto_one_rank_runs_whole() {
    let dir = std::env::temp_dir().join(format!("bl_halve_to_one_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut uninterrupted = noh4(false).executor(ExecutorKind::Serial).build().unwrap();
    uninterrupted.run().unwrap();
    for (two, one) in [
        (
            ExecutorKind::FlatMpi { ranks: 2 },
            ExecutorKind::FlatMpi { ranks: 1 },
        ),
        (
            ExecutorKind::Hybrid {
                ranks: 2,
                threads_per_rank: 2,
            },
            ExecutorKind::Hybrid {
                ranks: 1,
                threads_per_rank: 2,
            },
        ),
    ] {
        let mut sim = noh4(false)
            .executor(two)
            .fault_plan(FaultPlan::new().kill(6, 1).kill(8, 0).on_attempt(1))
            .build()
            .unwrap();
        let policy = RecoveryPolicy {
            checkpoint_every_steps: 4,
            max_retries: 1,
            reshape: ReshapePolicy::Halve,
            ..RecoveryPolicy::new(&dir)
        };
        let report = sim.run_resilient(&policy).unwrap();
        assert_eq!(report.steps, 12);
        assert_eq!(report.recovery.retries(), 1, "{two:?}");
        assert_eq!(report.recovery.events[0].retry_executor, one);
        assert_eq!((report.executor, report.ranks), (one, 1));
        assert_eq!(state_crc(&sim), state_crc(&uninterrupted), "{two:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An observer that panics at a chosen step on rank 0 — stands in for
/// any bug that unwinds a rank thread mid-run.
struct PanicAt(usize);

impl Observer for PanicAt {
    fn step_end(&mut self, view: &StepView<'_>) {
        assert!(
            !(view.rank == 0 && view.step + 1 == self.0),
            "injected observer panic"
        );
    }
}

/// On one rank there is no team to turn a panic into a typed
/// `RankPanic`: a panicking observer unwinds the run to the caller, as
/// under `Serial` — out of a hybrid rank's pool too — the observer it
/// poisoned stays readable, and the next run is healthy.
#[test]
fn a_panicking_observer_unwinds_a_run_of_one_rank() {
    for executor in ONE_RANK {
        let observer = Shared::new(PanicAt(3));
        let unwound = std::panic::catch_unwind(|| {
            let mut sim = noh4(false)
                .executor(executor)
                .observer(observer.clone())
                .build()
                .unwrap();
            sim.run().map(|report| report.steps)
        });
        let payload = unwound.expect_err("the observer's panic was swallowed");
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("injected observer panic"),
            "{executor:?}: {message:?}"
        );
        assert_eq!(observer.with(|p| p.0), 3, "{executor:?}");
        let mut healthy = noh4(false).executor(executor).build().unwrap();
        assert_eq!(healthy.run().unwrap().steps, 12, "{executor:?}");
    }
}

#[test]
fn a_panicked_hybrid_run_is_typed_and_the_next_run_is_healthy() {
    // Rank 0 unwinds inside its rayon pool mid-run; the team must
    // surface a typed RankPanic (its peer finds it gone, the scope
    // joins), and
    // the observer it poisoned stays readable …
    let observer = Shared::new(PanicAt(3));
    let err = Simulation::builder()
        .deck(decks::noh(12))
        .executor(ExecutorKind::Hybrid {
            ranks: 2,
            threads_per_rank: 2,
        })
        .final_time(0.1)
        .max_steps(8)
        .observer(observer.clone())
        .build()
        .unwrap()
        .run()
        .unwrap_err();
    assert!(
        matches!(err, BookLeafError::RankPanic { rank: 0, .. }),
        "{err:?}"
    );
    assert_eq!(observer.with(|p| p.0), 3);

    // … and a fresh simulation right after must run to completion:
    // nothing global — rayon pools, locks, channels — stays poisoned.
    let mut healthy = Simulation::builder()
        .deck(decks::noh(12))
        .executor(ExecutorKind::Hybrid {
            ranks: 2,
            threads_per_rank: 2,
        })
        .final_time(0.1)
        .max_steps(8)
        .build()
        .unwrap();
    let report = healthy.run().unwrap();
    assert_eq!(report.steps, 8);
    assert!(report.energy_end.is_finite());
}

// ---------------------------------------------------------------------------
// Failures without an injected fault.

#[test]
fn tangled_mesh_reports_negative_volume() {
    let mut mesh = generate_rect(&RectSpec::unit_square(3), |_| 0).unwrap();
    let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
    let mut st = HydroState::new(&mesh, &mat, |_| 1.0, |_| 1.0, |_| Vec2::ZERO).unwrap();
    let range = LocalRange::whole(&mesh);
    // Fling an interior node across the domain.
    mesh.nodes[5] = Vec2::new(9.0, 9.0);
    let err = bookleaf::hydro::getgeom::getgeom(
        &mesh,
        &mut st,
        range,
        bookleaf::hydro::Threading::Serial,
    )
    .unwrap_err();
    assert!(matches!(err, BookLeafError::NegativeVolume { .. }), "{err}");
}

#[test]
fn dt_collapse_is_a_typed_error() {
    // dt_min above any feasible CFL step: the first computed dt (after
    // the initial-dt step) must collapse.
    let deck = decks::sod(16, 2);
    let config = RunConfig {
        final_time: 0.2,
        dt: DtControls {
            dt_min: 0.1,
            ..DtControls::default()
        },
        ..RunConfig::default()
    };
    let mut sim = Simulation::builder()
        .deck(deck)
        .config(config)
        .build()
        .unwrap();
    let err = sim.run().unwrap_err();
    assert!(
        matches!(err, BookLeafError::TimestepCollapse { .. }),
        "{err}"
    );
}

#[test]
fn corrupt_deck_is_rejected_before_running() {
    let mut deck = decks::noh(6);
    deck.ein.truncate(3);
    // Shape corruption surfaces as the typed DeckError::Shape.
    let err = Simulation::builder().deck(deck).build().unwrap_err();
    assert!(
        matches!(err, BookLeafError::Deck(DeckError::Shape { .. })),
        "{err}"
    );
}

#[test]
fn deck_with_unknown_material_is_rejected() {
    let mut deck = decks::sod(8, 2);
    deck.materials = MaterialTable::single(EosSpec::ideal_gas(1.4)); // loses region 1
    let err = Simulation::builder().deck(deck).build().unwrap_err();
    assert!(
        matches!(err, BookLeafError::Deck(DeckError::Invalid { .. })),
        "{err}"
    );
}

#[test]
fn malformed_text_deck_is_line_anchored() {
    // Line 3 holds the typo; the typed error must carry that line.
    let err = Simulation::builder()
        .deck_str("problem = noh\nn = 8\nfrequenzy = 2\n")
        .build()
        .unwrap_err();
    match err {
        BookLeafError::Deck(DeckError::Text { line, ref message }) => {
            assert_eq!(line, 3);
            assert!(message.contains("frequenzy"), "{message}");
        }
        other => panic!("expected a line-anchored deck error, got {other}"),
    }
}

#[test]
fn negative_initial_density_is_rejected() {
    let mesh = generate_rect(&RectSpec::unit_square(2), |_| 0).unwrap();
    let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
    let err = HydroState::new(
        &mesh,
        &mat,
        |e| if e == 1 { -2.0 } else { 1.0 },
        |_| 1.0,
        |_| Vec2::ZERO,
    )
    .unwrap_err();
    assert!(
        matches!(err, BookLeafError::InvalidState { element: 1, .. }),
        "{err}"
    );
}

#[test]
fn rank_panic_surfaces_with_rank_id() {
    let err = Typhon::run(3, |ctx| {
        if ctx.rank() == 2 {
            panic!("injected rank failure");
        }
        ctx.rank()
    })
    .unwrap_err();
    match err {
        BookLeafError::RankPanic { rank, message } => {
            assert_eq!(rank, 2);
            assert!(message.contains("injected rank failure"));
        }
        other => panic!("unexpected error: {other}"),
    }
}

#[test]
fn infeasible_partitions_are_rejected() {
    let mesh = generate_rect(&RectSpec::unit_square(2), |_| 0).unwrap();
    // More ranks than elements.
    let err =
        bookleaf::partition::partition(&mesh, 9, bookleaf::partition::Strategy::Rcb).unwrap_err();
    assert!(matches!(err, BookLeafError::Partition(_)), "{err}");
    // Poisoned owner array: element assigned to a missing rank.
    let err = SubMeshPlan::build(&mesh, &[0, 0, 0, 7], 2).unwrap_err();
    assert!(matches!(err, BookLeafError::Partition(_)), "{err}");
}

#[test]
fn bowtie_input_mesh_is_rejected() {
    // A self-intersecting quad passes shoelace positivity checks only if
    // mis-ordered; Mesh::from_raw + HydroState must reject it one way or
    // another.
    let nodes = vec![
        Vec2::new(0.0, 0.0),
        Vec2::new(1.0, 0.0),
        Vec2::new(0.0, 1.0),
        Vec2::new(1.0, 1.0),
    ];
    // Bowtie ordering: (0,0) -> (1,0) -> (0,1) -> (1,1).
    let elnd = vec![[0u32, 1, 2, 3]];
    let mesh = Mesh::from_raw(nodes, elnd, vec![NodeBc::FREE; 4], vec![0]);
    let failed = match mesh {
        Err(_) => true,
        Ok(m) => {
            let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
            HydroState::new(&m, &mat, |_| 1.0, |_| 1.0, |_| Vec2::ZERO).is_err()
        }
    };
    assert!(failed, "bowtie element slipped through setup");
}

#[test]
fn distributed_run_propagates_rank_errors() {
    // A deck that collapses dt must fail identically under the
    // distributed executor (no hang, no partial result).
    let deck = decks::sod(16, 2);
    let config = RunConfig {
        final_time: 0.2,
        dt: DtControls {
            dt_min: 0.1,
            ..DtControls::default()
        },
        executor: ExecutorKind::FlatMpi { ranks: 2 },
        ..RunConfig::default()
    };
    let err = Simulation::builder()
        .deck(deck)
        .config(config)
        .build()
        .unwrap()
        .run()
        .unwrap_err();
    assert!(
        matches!(err, BookLeafError::TimestepCollapse { .. }),
        "{err}"
    );
}

#[test]
fn error_messages_locate_the_offender() {
    let e = BookLeafError::NegativeVolume {
        element: 1234,
        volume: -3.5e-9,
    };
    let msg = e.to_string();
    assert!(msg.contains("1234"));
    assert!(msg.contains("-3.5"));
}
