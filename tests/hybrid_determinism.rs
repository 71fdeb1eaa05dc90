//! Scheduling-determinism pin for the hybrid executor, now that the
//! rayon shim is a real work-stealing pool — routed through the one
//! `Simulation` front door, so these tests also pin that the API
//! redesign moved **no bits** of physics.
//!
//! The shim's split tree is a pure function of (length, min leaf, pool
//! width) — never of which worker steals what — so a
//! `Hybrid { ranks, threads_per_rank }` run must be **bitwise**
//! reproducible across repetitions, and must agree with the serial
//! executor to tight tolerance even with the conflict-free parallel
//! acceleration gather (`AccMode::GatherParallel`) enabled. Repeated
//! runs shake out scheduling nondeterminism: any data race or
//! steal-order-dependent reduction would eventually flip a bit.

use bookleaf::core::{decks, Deck, ExecutorKind, RunConfig, Simulation};
use bookleaf::hydro::AccMode;
use bookleaf::util::Vec2;
use bookleaf::{ConservationTracer, RunReport, Shared};

const TOL: f64 = 1e-12;
const REPEATS: usize = 3;

/// One builder path for every run in this file.
fn run(deck: &Deck, config: RunConfig) -> (Simulation, RunReport) {
    let mut sim = Simulation::builder()
        .deck(deck.clone())
        .config(config)
        .build()
        .unwrap();
    let report = sim.run().unwrap();
    (sim, report)
}

#[test]
fn hybrid_gather_parallel_is_deterministic_and_matches_serial() {
    let deck = decks::sod(32, 4);
    let mut config = RunConfig {
        final_time: 0.03,
        ..RunConfig::default()
    };
    config.lag.acc_mode = AccMode::GatherParallel;

    // Serial reference (same acceleration formulation, serial loops).
    let (serial, _) = run(&deck, config);

    let hybrid_config = RunConfig {
        executor: ExecutorKind::Hybrid {
            ranks: 2,
            threads_per_rank: 4,
        },
        ..config
    };

    let (reference, reference_report) = run(&deck, hybrid_config);

    // Against the serial executor: tight tolerance on every field.
    for e in 0..deck.mesh.n_elements() {
        assert!(
            (serial.state().rho[e] - reference.state().rho[e]).abs() <= TOL,
            "rho diverged from serial at element {e}: {} vs {}",
            serial.state().rho[e],
            reference.state().rho[e]
        );
        assert!(
            (serial.state().ein[e] - reference.state().ein[e]).abs() <= TOL,
            "ein diverged from serial at element {e}"
        );
    }
    for n in 0..deck.mesh.n_nodes() {
        assert!(
            (serial.state().u[n] - reference.state().u[n]).norm() <= TOL,
            "velocity diverged from serial at node {n}"
        );
        assert!(
            serial.mesh().nodes[n].distance(reference.mesh().nodes[n]) <= TOL,
            "position diverged from serial at node {n}"
        );
    }

    // Across repetitions: bitwise identical, every time — and an
    // attached observer must not move a bit either (observers are
    // read-only by contract).
    for trial in 0..REPEATS {
        let tracer = Shared::new(ConservationTracer::new());
        let mut sim = Simulation::builder()
            .deck(deck.clone())
            .config(hybrid_config)
            .observer(tracer.clone())
            .build()
            .unwrap();
        let report = sim.run().unwrap();
        assert_eq!(
            report.steps, reference_report.steps,
            "trial {trial}: step count"
        );
        assert_eq!(
            report.time.to_bits(),
            reference_report.time.to_bits(),
            "trial {trial}: final time"
        );
        assert_eq!(
            tracer.with(|t| t.samples().len()),
            report.steps + 1,
            "trial {trial}: observer fired on the hybrid run"
        );
        for e in 0..deck.mesh.n_elements() {
            assert_eq!(
                sim.state().rho[e].to_bits(),
                reference.state().rho[e].to_bits(),
                "trial {trial}: rho not bitwise stable at element {e}"
            );
            assert_eq!(
                sim.state().ein[e].to_bits(),
                reference.state().ein[e].to_bits(),
                "trial {trial}: ein not bitwise stable at element {e}"
            );
        }
        for n in 0..deck.mesh.n_nodes() {
            assert_eq!(
                sim.state().u[n].x.to_bits(),
                reference.state().u[n].x.to_bits(),
                "trial {trial}: u.x not bitwise stable at node {n}"
            );
            assert_eq!(
                sim.state().u[n].y.to_bits(),
                reference.state().u[n].y.to_bits(),
                "trial {trial}: u.y not bitwise stable at node {n}"
            );
            assert_eq!(
                sim.mesh().nodes[n].x.to_bits(),
                reference.mesh().nodes[n].x.to_bits(),
                "trial {trial}: node x not bitwise stable at node {n}"
            );
        }
    }
}

/// The overlapped halo exchange (split post/complete with
/// interior/boundary kernel sweeps — the default) must be **bitwise**
/// identical to the blocking exchange: overlap changes when receives
/// drain, never a single bit of physics. Pinned under the hybrid
/// executor so the split sweeps also cross the work-stealing pool.
#[test]
fn overlap_on_is_bitwise_identical_to_overlap_off() {
    let deck = decks::sod(32, 4);
    let mut config = RunConfig {
        final_time: 0.03,
        executor: ExecutorKind::Hybrid {
            ranks: 2,
            threads_per_rank: 4,
        },
        overlap: true,
        ..RunConfig::default()
    };
    config.lag.acc_mode = AccMode::GatherParallel;

    let (on, on_report) = run(&deck, config);
    let (off, off_report) = run(
        &deck,
        RunConfig {
            overlap: false,
            ..config
        },
    );

    assert_eq!(on_report.steps, off_report.steps);
    assert_eq!(on_report.time.to_bits(), off_report.time.to_bits());
    for e in 0..deck.mesh.n_elements() {
        assert_eq!(
            on.state().rho[e].to_bits(),
            off.state().rho[e].to_bits(),
            "overlap changed rho at element {e}"
        );
        assert_eq!(
            on.state().ein[e].to_bits(),
            off.state().ein[e].to_bits(),
            "overlap changed ein at element {e}"
        );
        assert_eq!(
            on.state().pressure[e].to_bits(),
            off.state().pressure[e].to_bits(),
            "overlap changed pressure at element {e}"
        );
    }
    for n in 0..deck.mesh.n_nodes() {
        assert_eq!(
            on.state().u[n].x.to_bits(),
            off.state().u[n].x.to_bits(),
            "overlap changed u.x at node {n}"
        );
        assert_eq!(
            on.state().u[n].y.to_bits(),
            off.state().u[n].y.to_bits(),
            "overlap changed u.y at node {n}"
        );
        assert_eq!(
            on.mesh().nodes[n].x.to_bits(),
            off.mesh().nodes[n].x.to_bits(),
            "overlap changed node x at node {n}"
        );
        assert_eq!(
            on.mesh().nodes[n].y.to_bits(),
            off.mesh().nodes[n].y.to_bits(),
            "overlap changed node y at node {n}"
        );
    }
    // And the wire contract is untouched: identical message counts,
    // phase by phase.
    assert_eq!(on_report.comm.messages_sent, off_report.comm.messages_sent);
    assert_eq!(on_report.comm.doubles_sent, off_report.comm.doubles_sent);
    for phase in ["pre_viscosity", "pre_acceleration"] {
        let a = on_report.comm.phase(phase).unwrap();
        let b = off_report.comm.phase(phase).unwrap();
        assert_eq!(a.messages_sent, b.messages_sent, "{phase}");
        assert_eq!(a.doubles_sent, b.doubles_sent, "{phase}");
    }
}

/// The same on/off bitwise pin with the ALE remap in the loop — the
/// remap's boundary-first split (early entities, post, interior, then
/// complete) must not move a bit either, and the 4-messages-per-link
/// step contract holds with overlap enabled.
#[test]
fn overlapped_ale_matches_blocking_ale_bitwise() {
    use bookleaf::ale::{AleMode, AleOptions};
    let deck = decks::sod(24, 3);
    let mut config = RunConfig {
        final_time: 0.02,
        ale: Some(AleOptions {
            mode: AleMode::Eulerian,
            frequency: 1,
        }),
        executor: ExecutorKind::Hybrid {
            ranks: 2,
            threads_per_rank: 2,
        },
        overlap: true,
        ..RunConfig::default()
    };
    config.lag.acc_mode = AccMode::GatherParallel;

    let (on, on_report) = run(&deck, config);
    let (off, off_report) = run(
        &deck,
        RunConfig {
            overlap: false,
            ..config
        },
    );

    assert_eq!(on_report.steps, off_report.steps);
    for e in 0..deck.mesh.n_elements() {
        assert_eq!(
            on.state().rho[e].to_bits(),
            off.state().rho[e].to_bits(),
            "overlapped ALE changed rho at element {e}"
        );
        assert_eq!(
            on.state().ein[e].to_bits(),
            off.state().ein[e].to_bits(),
            "overlapped ALE changed ein at element {e}"
        );
    }
    for n in 0..deck.mesh.n_nodes() {
        assert_eq!(
            on.state().u[n].x.to_bits(),
            off.state().u[n].x.to_bits(),
            "overlapped ALE changed u at node {n}"
        );
    }
    assert_eq!(on_report.comm.messages_sent, off_report.comm.messages_sent);
    let remap_on = on_report.comm.phase("post_remap").unwrap();
    let remap_off = off_report.comm.phase("post_remap").unwrap();
    assert_eq!(remap_on.messages_sent, remap_off.messages_sent);
    assert_eq!(remap_on.doubles_sent, remap_off.doubles_sent);
}

/// The same property with the ALE remap in the loop (every phase of the
/// remap is element/node-parallel under the hybrid executor).
#[test]
fn hybrid_eulerian_ale_is_bitwise_reproducible() {
    use bookleaf::ale::{AleMode, AleOptions};
    let deck = decks::sod(24, 3);
    let mut config = RunConfig {
        final_time: 0.02,
        ale: Some(AleOptions {
            mode: AleMode::Eulerian,
            frequency: 1,
        }),
        executor: ExecutorKind::Hybrid {
            ranks: 2,
            threads_per_rank: 2,
        },
        ..RunConfig::default()
    };
    config.lag.acc_mode = AccMode::GatherParallel;

    let (reference, _) = run(&deck, config);
    for trial in 0..2 {
        let (sim, _) = run(&deck, config);
        for e in 0..deck.mesh.n_elements() {
            assert_eq!(
                sim.state().rho[e].to_bits(),
                reference.state().rho[e].to_bits(),
                "trial {trial}: ALE rho not bitwise stable at element {e}"
            );
        }
        for n in 0..deck.mesh.n_nodes() {
            assert_eq!(
                sim.state().u[n].x.to_bits(),
                reference.state().u[n].x.to_bits(),
                "trial {trial}: ALE u not bitwise stable at node {n}"
            );
        }
    }
}

/// Re-derives geometry and the EoS from a clone of the state at every
/// step end and records any owned element whose derived fields move.
struct DerivedStateAudit {
    materials: bookleaf::eos::MaterialTable,
    moved: Vec<String>,
}

impl bookleaf::Observer for DerivedStateAudit {
    fn step_end(&mut self, view: &bookleaf::StepView<'_>) {
        use bookleaf::hydro::{getgeom::getgeom, getpc::getpc, Threading};
        let (was, mut now) = (view.state, view.state.clone());
        getgeom(view.mesh, &mut now, view.range, Threading::Serial).unwrap();
        getpc(
            view.mesh,
            &self.materials,
            &mut now,
            view.range,
            Threading::Serial,
        );
        for e in 0..view.range.n_owned_el {
            let fields = [
                ("pressure", was.pressure[e], now.pressure[e]),
                ("cs2", was.cs2[e], now.cs2[e]),
                ("volume", was.volume[e], now.volume[e]),
                ("length", was.length[e], now.length[e]),
            ];
            let corners = (0..4).map(|c| ("cnvol", was.cnvol[e][c], now.cnvol[e][c]));
            for (name, a, b) in fields.into_iter().chain(corners) {
                if a.to_bits() != b.to_bits() {
                    self.moved.push(format!(
                        "step {} rank {} element {e}: {name} {a:e} -> {b:e}",
                        view.step, view.rank
                    ));
                }
            }
        }
    }
}

/// Every field of the global `(mesh, state)` pair, as bits.
fn global_bits(sim: &Simulation) -> Vec<(&'static str, Vec<u64>)> {
    let (mesh, st) = (sim.mesh(), sim.state());
    let scalars = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let rows = |v: &[[f64; 4]]| scalars(v.as_flattened());
    let vectors = |v: &[Vec2]| {
        v.iter()
            .flat_map(|p| [p.x.to_bits(), p.y.to_bits()])
            .collect()
    };
    vec![
        ("nodes", vectors(&mesh.nodes)),
        ("mass", scalars(&st.mass)),
        ("rho", scalars(&st.rho)),
        ("ein", scalars(&st.ein)),
        ("pressure", scalars(&st.pressure)),
        ("cs2", scalars(&st.cs2)),
        ("volume", scalars(&st.volume)),
        ("length", scalars(&st.length)),
        ("q", scalars(&st.q)),
        ("div_u", scalars(&st.div_u)),
        ("edge_q", rows(&st.edge_q)),
        ("cnmass", rows(&st.cnmass)),
        ("cnvol", rows(&st.cnvol)),
        ("cnforce_x", rows(&st.cnforce_x)),
        ("cnforce_y", rows(&st.cnforce_y)),
        ("u", vectors(&st.u)),
        ("ubar", vectors(&st.ubar)),
        ("nd_mass", scalars(&st.nd_mass)),
    ]
}

/// The invariant every pause rests on: at each step boundary the
/// derived fields (p, c², volume, corner volumes, length) already *are*
/// what `getgeom` + `getpc` make of the restart fields — so installing
/// a checkpoint, which re-derives them, moves no bits. Lagrangian and
/// both ALE flavours, under serial, flat MPI and hybrid.
///
/// A simulation of two or more ranks keeps only those restart fields
/// between runs; the `mesh()` / `state()` it shows are built from them on
/// request, by the same installer a resume goes through — so mid-run
/// and at the end they equal, field for field and bitwise, the pair a
/// serial resume of its checkpoint starts from.
#[test]
fn derived_state_is_a_pure_function_of_the_restart_fields() {
    use bookleaf::ale::{AleMode, AleOptions};
    let deck = decks::noh(12);
    let remaps = [
        None,
        Some(AleOptions {
            mode: AleMode::Eulerian,
            frequency: 1,
        }),
        Some(AleOptions {
            mode: AleMode::Smooth { alpha: 0.5 },
            frequency: 2,
        }),
    ];
    let hybrid = |ranks| ExecutorKind::Hybrid {
        ranks,
        threads_per_rank: 2,
    };
    let executors = [
        ExecutorKind::Serial,
        ExecutorKind::FlatMpi { ranks: 2 },
        hybrid(1),
        hybrid(2),
    ];
    for ale in remaps {
        for executor in executors {
            // A run of one rank shows its live state, not a view: its
            // `div_u` is `getdt`'s scratch, no restart field, so only a
            // team's view is compared with the installed checkpoint.
            let team = !matches!(
                executor,
                ExecutorKind::Serial
                    | ExecutorKind::FlatMpi { ranks: 1 }
                    | ExecutorKind::Hybrid { ranks: 1, .. }
            );
            let audit = Shared::new(DerivedStateAudit {
                materials: deck.materials.clone(),
                moved: Vec::new(),
            });
            let mut sim = Simulation::builder()
                .deck(deck.clone())
                .final_time(1.0)
                .max_steps(12)
                .ale(ale)
                .executor(executor)
                .observer(audit.clone())
                .build()
                .unwrap();
            for segment in [5, 7] {
                sim.run_segment(segment).unwrap();
                if !team {
                    continue;
                }
                let installed = Simulation::builder()
                    .resume_from(sim.checkpoint().unwrap())
                    .executor(ExecutorKind::Serial)
                    .build()
                    .unwrap();
                for (view, want) in global_bits(&sim).iter().zip(&global_bits(&installed)) {
                    assert!(
                        view == want,
                        "{ale:?} on {executor:?}: the view's {} is not the installed \
                         checkpoint's after the segment of {segment}",
                        view.0
                    );
                }
            }
            assert!(sim.complete());
            audit.with(|a| {
                assert!(
                    a.moved.is_empty(),
                    "{ale:?} on {executor:?}: re-deriving moved {} values, first: {}",
                    a.moved.len(),
                    a.moved[0]
                );
            });
        }
    }
}
