//! The front-door acceptance suite: one `Simulation::builder()` code
//! path drives Sod serially, Noh hybrid and a 2-rank distributed Noh —
//! observers firing in all three — and a text deck loaded via
//! `deck_file` reproduces `decks::sod` exactly.

use bookleaf::core::decks;
use bookleaf::util::approx_eq;
use bookleaf::{
    ConservationTracer, Deck, DtHistory, ExecutorKind, Observer, RunConfig, RunReport, Shared,
    Simulation, StepView,
};

/// Counts every hook invocation (all ranks), recording where it fired.
#[derive(Debug, Default)]
struct HookCounter {
    run_begin: usize,
    step_end: usize,
    run_end: usize,
    ranks_seen: Vec<usize>,
}

impl Observer for HookCounter {
    fn run_begin(&mut self, view: &StepView<'_>) {
        self.run_begin += 1;
        if !self.ranks_seen.contains(&view.rank) {
            self.ranks_seen.push(view.rank);
        }
    }
    fn step_end(&mut self, _view: &StepView<'_>) {
        self.step_end += 1;
    }
    fn run_end(&mut self, _view: &StepView<'_>) {
        self.run_end += 1;
    }
}

/// THE one code path: every executor goes through the same builder
/// calls; only the `executor` argument differs.
fn run_observed(
    deck: Deck,
    final_time: f64,
    executor: ExecutorKind,
) -> (
    Simulation,
    RunReport,
    Shared<HookCounter>,
    Shared<ConservationTracer>,
) {
    let counter = Shared::new(HookCounter::default());
    let tracer = Shared::new(ConservationTracer::new());
    let mut sim = Simulation::builder()
        .deck(deck)
        .final_time(final_time)
        .executor(executor)
        .observer(counter.clone())
        .observer(tracer.clone())
        .build()
        .expect("valid deck");
    let report = sim.run().expect("run to completion");
    (sim, report, counter, tracer)
}

#[test]
fn one_builder_path_drives_all_three_executors_with_observers() {
    // Sod serial; Noh hybrid; 2-rank distributed (flat MPI) Noh.
    let runs = [
        (decks::sod(24, 3), 0.02, ExecutorKind::Serial, 1),
        (
            decks::noh(12),
            0.02,
            ExecutorKind::Hybrid {
                ranks: 2,
                threads_per_rank: 2,
            },
            2,
        ),
        (decks::noh(12), 0.02, ExecutorKind::FlatMpi { ranks: 2 }, 2),
    ];
    for (deck, t, executor, ranks) in runs {
        let (_, report, counter, tracer) = run_observed(deck, t, executor);
        assert!(report.steps > 0, "{executor:?}: no steps");
        assert_eq!(report.ranks, ranks, "{executor:?}");

        counter.with(|c| {
            // Hooks fire once per rank at run boundaries, once per rank
            // per step inside.
            assert_eq!(c.run_begin, ranks, "{executor:?}: run_begin");
            assert_eq!(c.run_end, ranks, "{executor:?}: run_end");
            assert_eq!(c.step_end, ranks * report.steps, "{executor:?}: step_end");
            assert_eq!(c.ranks_seen.len(), ranks, "{executor:?}: every rank fired");
        });

        // The conservation tracer records the globally reduced energy
        // once per step (plus the initial state), on rank 0 only.
        tracer.with(|tr| {
            assert_eq!(
                tr.samples().len(),
                report.steps + 1,
                "{executor:?}: tracer samples"
            );
            assert!(
                tr.max_drift() < 1e-8,
                "{executor:?}: drift {}",
                tr.max_drift()
            );
            // The tracer's energies and the report's agree end to end.
            let first = tr.samples().first().unwrap().energy;
            let last = tr.samples().last().unwrap().energy;
            assert!(approx_eq(first, report.energy_start, 1e-12));
            assert!(approx_eq(last, report.energy_end, 1e-12));
        });
    }
}

#[test]
fn identical_physics_across_executors_through_the_one_path() {
    // The same Noh problem through all three executors: the serial and
    // distributed solutions agree tightly, through identical builder
    // code.
    let (serial, ..) = run_observed(decks::noh(12), 0.02, ExecutorKind::Serial);
    let (hybrid, ..) = run_observed(
        decks::noh(12),
        0.02,
        ExecutorKind::Hybrid {
            ranks: 2,
            threads_per_rank: 2,
        },
    );
    let (flat, ..) = run_observed(decks::noh(12), 0.02, ExecutorKind::FlatMpi { ranks: 2 });
    for e in 0..serial.deck().mesh.n_elements() {
        for (label, sim) in [("hybrid", &hybrid), ("flat", &flat)] {
            assert!(
                approx_eq(serial.state().rho[e], sim.state().rho[e], 1e-10),
                "{label} diverged at element {e}"
            );
        }
    }
}

#[test]
fn run_report_symmetry_between_serial_and_distributed() {
    // The satellite fix: serial runs now carry (zero) comm stats and
    // distributed runs carry merged timers + comm stats + global
    // energies, all in the same `RunReport`.
    let (_, serial, ..) = run_observed(decks::noh(10), 0.01, ExecutorKind::Serial);
    let (_, dist, ..) = run_observed(decks::noh(10), 0.01, ExecutorKind::FlatMpi { ranks: 2 });

    assert_eq!(serial.comm.messages_sent, 0);
    assert!(dist.comm.messages_sent > 0);
    assert!(dist.comm.phase("pre_viscosity").is_some());
    assert!(serial.timers.calls(bookleaf::util::KernelId::ViscForce) > 0);
    assert!(dist.timers.calls(bookleaf::util::KernelId::ViscForce) > 0);
    // Global energy accounting on both sides, and they agree.
    assert!(serial.energy_start > 0.0 && dist.energy_start > 0.0);
    assert!(approx_eq(serial.energy_start, dist.energy_start, 1e-9));
    assert!(approx_eq(serial.energy_end, dist.energy_end, 1e-6));
}

#[test]
fn deck_file_reproduces_the_programmatic_sod_deck_exactly() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/decks/sod.deck");
    let sim = Simulation::builder()
        .deck_file(path)
        .build()
        .expect("committed deck parses");
    // The committed example is the *generic* re-expression of Sod:
    // every field the physics reads must equal the programmatic
    // constructor bitwise — only the spec provenance differs.
    let reference = decks::sod(40, 4);
    let deck = sim.deck();
    assert_eq!(deck.name, reference.name);
    assert_eq!(deck.mesh, reference.mesh);
    assert_eq!(deck.materials, reference.materials);
    assert_eq!(deck.piston, reference.piston);
    // The simulation keeps no initial fields: what it painted from them
    // is the solution before any run.
    let start = sim.solution();
    assert_eq!(start.rho, reference.rho);
    assert_eq!(start.ein, reference.ein);
    assert_eq!(start.u, reference.u);
    assert_eq!(start.nodes, reference.mesh.nodes);
    assert_eq!(
        sim.config().final_time,
        bookleaf::ProblemSpec::Sod { nx: 40, ny: 4 }.recommended_final_time()
    );
    assert!(matches!(
        sim.input_deck().unwrap().problem,
        bookleaf::ProblemSpec::Generic(_)
    ));
    // The deck's options became the config (Sod's standard end time).
    assert!((sim.config().final_time - 0.2).abs() < 1e-15);
    assert_eq!(sim.config().executor, ExecutorKind::Serial);
    // And its canonical text form round-trips.
    let input = sim.input_deck().unwrap();
    assert_eq!(&decks::from_str(&decks::to_string(input)).unwrap(), input);
}

#[test]
fn continuing_a_distributed_simulation_extends_observer_records() {
    // One continuation contract under every executor: a `run` after a
    // `run_segment` continues from the cursor, so the shipped recorders
    // keep one trace on one trajectory (no restart from step 0, no
    // duplicate sample at the pause step) and the frame dumper extends
    // its series — and a `run` on a finished simulation takes no step.
    use bookleaf::FrameDumper;
    let dir = std::env::temp_dir().join("bookleaf_rerun_frames");
    let _ = std::fs::remove_dir_all(&dir);
    let build = |dumper: &Shared<FrameDumper>, tracer: &Shared<ConservationTracer>| {
        Simulation::builder()
            .deck(decks::noh(10))
            .final_time(0.01)
            .executor(ExecutorKind::FlatMpi { ranks: 2 })
            .observer(dumper.clone())
            .observer(tracer.clone())
            .build()
            .unwrap()
    };
    let whole_tracer = Shared::new(ConservationTracer::new());
    let whole_dumper = Shared::new(FrameDumper::new(dir.join("whole"), "rerun", 2));
    let mut whole = build(&whole_dumper, &whole_tracer);
    let reference = whole.run().expect("uninterrupted run");

    let tracer = Shared::new(ConservationTracer::new());
    let dumper = Shared::new(FrameDumper::new(dir.join("paused"), "rerun", 2));
    let mut sim = build(&dumper, &tracer);
    let first = sim.run_segment(3).expect("first segment");
    assert_eq!(first.steps, 3);
    assert!(!sim.complete());
    let second = sim.run().expect("continuation");
    assert_eq!(second.steps, reference.steps);
    assert_eq!(second.time.to_bits(), reference.time.to_bits());
    assert!(sim.complete());
    for (e, (a, b)) in whole.state().rho.iter().zip(&sim.state().rho).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "pausing moved a bit at {e}");
    }
    // Same trace as the uninterrupted run, sample for sample.
    assert_eq!(
        tracer.with(|t| t.samples().to_vec()),
        whole_tracer.with(|t| t.samples().to_vec())
    );
    tracer.with(|t| assert_eq!(t.samples().len(), second.steps + 1));
    // The paused series holds every frame of the uninterrupted one,
    // plus the frame at the pause step.
    let names = |d: &Shared<FrameDumper>| -> Vec<String> {
        let mut names: Vec<String> = d.with(|d| {
            d.written()
                .iter()
                .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
                .collect()
        });
        names.sort();
        names
    };
    let (paused, uninterrupted) = (names(&dumper), names(&whole_dumper));
    assert!(uninterrupted.iter().all(|f| paused.contains(f)));
    assert!(paused.iter().any(|f| f.contains("step000003")));
    assert_eq!(dumper.with(|d| d.error().map(String::from)), None);

    // Nothing left to do: another run is a no-op continuation.
    let third = sim.run().expect("no-op run");
    assert_eq!(third.steps, second.steps);
    tracer.with(|t| assert_eq!(t.samples().len(), second.steps + 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn vtk_dump_of_a_real_run() {
    let mut sim = Simulation::builder()
        .deck(decks::sedov(16))
        .final_time(0.05)
        .build()
        .unwrap();
    sim.run().unwrap();
    let mut out = Vec::new();
    bookleaf::core::write_vtk(&mut out, sim.mesh(), sim.state(), "sedov t=0.05").unwrap();
    let text = String::from_utf8(out).unwrap();
    // Spot-check structure and that the blast is in the data.
    assert!(text.contains("CELL_TYPES 256"));
    let rho_section = text.split("SCALARS density").nth(1).unwrap();
    assert!(rho_section
        .lines()
        .skip(2)
        .take(256)
        .all(|l| l.trim().parse::<f64>().is_ok()));
}

#[test]
fn text_deck_runs_distributed_from_its_own_executor_section() {
    // Scenario-as-data end to end: the *deck text* selects the 2-rank
    // executor; the builder adds only observers.
    let text = "
        problem = noh
        n = 10

        [control]
        final_time = 0.01

        [executor]
        model = flat_mpi
        ranks = 2
    ";
    let counter = Shared::new(HookCounter::default());
    let mut sim = Simulation::builder()
        .deck_str(text)
        .observer(counter.clone())
        .build()
        .expect("valid deck text");
    let report = sim.run().expect("distributed run from text deck");
    assert_eq!(report.ranks, 2);
    assert!(report.comm.messages_sent > 0);
    counter.with(|c| {
        assert_eq!(c.step_end, 2 * report.steps);
    });
}

const EXECUTORS: [ExecutorKind; 3] = [
    ExecutorKind::Serial,
    ExecutorKind::FlatMpi { ranks: 2 },
    ExecutorKind::Hybrid {
        ranks: 2,
        threads_per_rank: 2,
    },
];

#[test]
fn a_segment_loop_reports_like_one_run_under_every_executor() {
    // The report is accumulated above the executors, so a continued
    // run's spans the whole trajectory whichever of them ran the
    // segments: steps, per-kernel timer calls, comm counters and the
    // energy pinned at the first segment are those of one `run()`.
    use bookleaf::util::KernelId;
    for executor in EXECUTORS {
        let build = || {
            Simulation::builder()
                .deck(decks::noh(12))
                .final_time(1.0)
                .max_steps(9)
                .executor(executor)
                .build()
                .unwrap()
        };
        let whole = build().run().expect("uninterrupted run");
        let mut sim = build();
        let mut wall = 0.0;
        let last = loop {
            // 4 + 4 + 1 steps: the last segment is a short one.
            let report = sim.run_segment(4).expect("segment");
            assert!(report.wall_seconds >= wall, "{executor:?}: wall went back");
            wall = report.wall_seconds;
            if sim.complete() {
                break report;
            }
        };
        assert_eq!(last.steps, whole.steps, "{executor:?}");
        assert_eq!(last.time.to_bits(), whole.time.to_bits(), "{executor:?}");
        for kernel in KernelId::ALL {
            let (a, b) = (last.timers.calls(kernel), whole.timers.calls(kernel));
            assert_eq!(a, b, "{executor:?}: {kernel:?} calls");
        }
        let counters = |r: &RunReport| {
            let c = &r.comm;
            (c.messages_sent, c.doubles_sent, c.collectives)
        };
        assert_eq!(counters(&last), counters(&whole), "{executor:?}");
        let energies = |r: &RunReport| (r.energy_start.to_bits(), r.energy_end.to_bits());
        assert_eq!(energies(&last), energies(&whole), "{executor:?}");
    }
}

#[test]
fn the_sentinels_drift_reference_is_the_trajectorys_under_every_executor() {
    // The piston does work on the gas every step, so the energy drifts
    // steadily from the trajectory's start. A tolerance the first six
    // steps just stay within aborts the uninterrupted run soon after —
    // and a run continued in three-step segments at the same step with
    // the same diagnosis, because its reference is the trajectory's
    // start, not the start of whichever segment is running.
    use bookleaf::core::SentinelConfig;
    for executor in EXECUTORS {
        let build = |drift_tol: Option<f64>| {
            let config = RunConfig {
                final_time: 1.0,
                max_steps: 14,
                executor,
                sentinel: SentinelConfig {
                    drift_tol,
                    ..SentinelConfig::default()
                },
                ..RunConfig::default()
            };
            Simulation::builder()
                .deck(decks::saltzmann(16, 4))
                .config(config)
                .build()
                .unwrap()
        };
        let tol = build(None).run_segment(6).unwrap().energy_drift();
        assert!(tol > 0.0, "{executor:?}: the piston did no work");
        let whole = build(Some(tol))
            .run()
            .expect_err("drifted past the tolerance");
        assert!(whole.to_string().contains("drift"), "{executor:?}: {whole}");
        let mut sim = build(Some(tol));
        let paused = loop {
            match sim.run_segment(3) {
                Ok(_) => assert!(!sim.complete(), "{executor:?}: never tripped"),
                Err(err) => break err,
            }
        };
        assert_eq!(paused.to_string(), whole.to_string(), "{executor:?}");
    }
}

/// An executor shape with no ranks or no threads per rank runs nowhere:
/// the builder refuses it with one typed error naming the zero count,
/// and `bookleaf run` exits non-zero with that message on stderr.
#[test]
fn an_empty_executor_shape_is_refused_by_the_builder_and_the_cli() {
    use bookleaf::util::BookLeafError;
    for (executor, field) in [
        (ExecutorKind::FlatMpi { ranks: 0 }, "ranks"),
        (
            ExecutorKind::Hybrid {
                ranks: 2,
                threads_per_rank: 0,
            },
            "threads_per_rank",
        ),
    ] {
        let err = Simulation::builder()
            .deck(decks::sod(16, 2))
            .executor(executor)
            .build()
            .unwrap_err();
        assert_eq!(err, BookLeafError::EmptyExecutor { field }, "{executor:?}");
    }

    let deck = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/decks/sod.deck");
    for (flags, field) in [
        (&["--ranks", "2", "--threads", "0"][..], "threads_per_rank"),
        (&["--threads", "0"][..], "threads_per_rank"),
        (&["--ranks", "0"][..], "ranks"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bookleaf"))
            .args(["run", deck])
            .args(flags)
            .output()
            .expect("spawn bookleaf");
        assert!(!out.status.success(), "{flags:?} ran");
        assert!(out.stdout.is_empty(), "{flags:?} printed a digest");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("`{field}` must be at least 1, got 0")),
            "{flags:?}: {stderr}"
        );
    }
}

#[test]
fn observers_fire_and_share_state() {
    let tracer = Shared::new(ConservationTracer::new());
    let dts = Shared::new(DtHistory::new());
    let mut sim = Simulation::builder()
        .deck(decks::sod(20, 2))
        .final_time(0.01)
        .observer(tracer.clone())
        .observer(dts.clone())
        .build()
        .unwrap();
    let s = sim.run().unwrap();
    // One energy sample at run begin plus one per step.
    assert_eq!(tracer.with(|t| t.samples().len()), s.steps + 1);
    assert!(tracer.with(|t| t.max_drift()) < 1e-9);
    assert_eq!(dts.with(|d| d.samples().len()), s.steps);
    // The recorded dts integrate to the simulated time.
    let sum: f64 = dts.with(|d| d.samples().iter().map(|s| s.dt).sum());
    assert!((sum - s.time).abs() < 1e-12);
}
