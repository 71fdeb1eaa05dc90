//! Bitwise equivalence of the two fused sweeps against the kernels they
//! fuse: the EOS sweep against the unfused
//! `getgeom → getrho → getein → getpc` chain, and the viscosity–force
//! sweep against `getq` then `getforce` and the kept reference shapes
//! (end of this file).
//!
//! The fused sweep's contract (see `bookleaf::hydro::eos_fused`) is that
//! it produces *bitwise identical* state to running the four kernels in
//! sequence — fusion may only change how the arrays are streamed, never
//! the arithmetic. This suite pins that contract:
//!
//! * the full chain, on every standard deck, serial and rayon;
//! * the corrector form (`ein_from`) against restore-then-advance;
//! * every one of the 16 stage-subset masks against the matching
//!   kernel subsequence, on owned ranges of 0, 1, 2, 3, an odd and an
//!   even number of elements (the sweep takes two per row);
//! * a property test over randomised valid states;
//! * the error path on a tangled mesh (same error value, both routes).

use bookleaf::core::decks::{self, Deck};
use bookleaf::core::Simulation;
use bookleaf::eos::MaterialTable;
use bookleaf::hydro::getein::{getein, WorkVelocity};
use bookleaf::hydro::getforce::{getforce, HourglassControl};
use bookleaf::hydro::getgeom::getgeom;
use bookleaf::hydro::getpc::getpc;
use bookleaf::hydro::getq::{getq, QCoeffs};
use bookleaf::hydro::getrho::getrho;
use bookleaf::hydro::reference::{getforce_reference, getq_reference};
use bookleaf::hydro::{
    eos_fused, viscforce, EosStages, FusedEos, HydroState, LocalRange, Pass, Threading, ViscForce,
};
use bookleaf::mesh::{generate_rect, Mesh, RectSpec};
use bookleaf::util::Vec2;
use proptest::prelude::*;

const DT: f64 = 1e-6;

/// A mid-flow state on `deck`: geometry, density, pressure, viscosity
/// and corner forces populated, `ubar` distinct from `u`, so every
/// chain stage sees realistic, non-trivial inputs.
fn prepared(deck: &Deck) -> (Mesh, MaterialTable, HydroState, LocalRange) {
    let mesh = deck.mesh.clone();
    let mut st = HydroState::new(
        &mesh,
        &deck.materials,
        |e| deck.rho[e],
        |e| deck.ein[e],
        |nd| deck.u[nd],
    )
    .expect("state");
    let range = LocalRange::whole(&mesh);
    let th = Threading::Serial;
    getgeom(&mesh, &mut st, range, th).expect("geom");
    getrho(&mut st, range, th).expect("rho");
    getpc(&mesh, &deck.materials, &mut st, range, th);
    getq(&mesh, &mut st, range, QCoeffs::default(), th);
    getforce(&mesh, &mut st, range, HourglassControl::default(), DT, th);
    for i in 0..st.n_nodes() {
        st.ubar[i] = Vec2::new(0.5 * st.u[i].x, 0.5 * st.u[i].y);
    }
    (mesh, deck.materials.clone(), st, range)
}

/// The unfused kernel subsequence selected by `stages`.
fn run_chain(
    mesh: &Mesh,
    materials: &MaterialTable,
    st: &mut HydroState,
    range: LocalRange,
    stages: EosStages,
    which: WorkVelocity,
    th: Threading,
) {
    if stages.geom {
        getgeom(mesh, st, range, th).expect("geom");
    }
    if stages.rho {
        getrho(st, range, th).expect("rho");
    }
    if stages.ein {
        getein(mesh, st, range, DT, which, th);
    }
    if stages.pc {
        getpc(mesh, materials, st, range, th);
    }
}

#[allow(clippy::too_many_arguments)] // mirrors the full eos_fused surface
fn run_fused(
    mesh: &Mesh,
    materials: &MaterialTable,
    st: &mut HydroState,
    range: LocalRange,
    stages: EosStages,
    which: WorkVelocity,
    ein_from: Option<&[f64]>,
    th: Threading,
) {
    eos_fused(
        mesh,
        materials,
        st,
        range,
        FusedEos {
            dt: DT,
            which,
            ein_from,
            stages,
        },
        th,
    )
    .expect("fused");
}

/// Every output array of the chain, compared bit for bit.
fn assert_bits_eq(a: &HydroState, b: &HydroState, what: &str) {
    let scalars: [(&str, &[f64], &[f64]); 6] = [
        ("volume", &a.volume, &b.volume),
        ("length", &a.length, &b.length),
        ("rho", &a.rho, &b.rho),
        ("ein", &a.ein, &b.ein),
        ("pressure", &a.pressure, &b.pressure),
        ("cs2", &a.cs2, &b.cs2),
    ];
    for (name, xs, ys) in scalars {
        assert_eq!(xs.len(), ys.len(), "{what}: {name} length");
        for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: {name}[{i}] {x:e} vs {y:e}"
            );
        }
    }
    for (i, (x, y)) in a.cnvol.iter().zip(&b.cnvol).enumerate() {
        for c in 0..4 {
            assert_eq!(
                x[c].to_bits(),
                y[c].to_bits(),
                "{what}: cnvol[{i}][{c}] {:e} vs {:e}",
                x[c],
                y[c]
            );
        }
    }
}

fn standard_decks() -> Vec<(&'static str, Deck)> {
    vec![
        ("sod", decks::sod(24, 4)),
        ("noh", decks::noh(12)),
        ("sedov", decks::sedov(12)),
        ("saltzmann", decks::saltzmann(20, 5)),
        ("underwater", decks::underwater(12)),
    ]
}

#[test]
fn full_chain_matches_on_every_standard_deck() {
    for (name, deck) in standard_decks() {
        for th in [Threading::Serial, Threading::Rayon] {
            let (mesh, mat, st0, range) = prepared(&deck);
            for which in [WorkVelocity::Current, WorkVelocity::TimeCentred] {
                let mut a = st0.clone();
                let mut b = st0.clone();
                run_fused(
                    &mesh,
                    &mat,
                    &mut a,
                    range,
                    EosStages::all(),
                    which,
                    None,
                    th,
                );
                run_chain(&mesh, &mat, &mut b, range, EosStages::all(), which, th);
                assert_bits_eq(&a, &b, &format!("{name} {th:?} {which:?}"));
            }
        }
    }
}

#[test]
fn corrector_ein_from_matches_restore_then_advance() {
    for (name, deck) in standard_decks() {
        let (mesh, mat, st0, range) = prepared(&deck);
        let n = range.n_owned_el;
        let ein0: Vec<f64> = st0.ein[..n].to_vec();
        let th = Threading::Serial;

        // Perturb the live energies so the restore is observable.
        let mut a = st0.clone();
        let mut b = st0.clone();
        for e in 0..n {
            a.ein[e] *= 1.25;
            b.ein[e] *= 1.25;
        }

        // Fused corrector: integrate from the saved energies directly.
        run_fused(
            &mesh,
            &mat,
            &mut a,
            range,
            EosStages::all(),
            WorkVelocity::TimeCentred,
            Some(&ein0),
            th,
        );
        // Unfused corrector: restore, then advance in place.
        b.ein[..n].copy_from_slice(&ein0);
        run_chain(
            &mesh,
            &mat,
            &mut b,
            range,
            EosStages::all(),
            WorkVelocity::TimeCentred,
            th,
        );
        assert_bits_eq(&a, &b, name);
    }
}

#[test]
fn every_stage_subset_matches_its_kernel_subsequence() {
    // All 16 masks, including the empty one (a no-op on both routes),
    // over owned ranges that end before, inside and on a row of the
    // two-elements-per-row sweep (144 elements: 143 leaves an odd last
    // one), from the live energies and from a saved buffer.
    let (mesh, mat, st0, whole) = prepared(&decks::noh(12));
    let saved: Vec<f64> = st0.ein.iter().map(|e| 1.25 * e).collect();
    for n_owned_el in [0, 1, 2, 3, 143, 144] {
        let range = LocalRange {
            n_owned_el,
            ..whole
        };
        for bits in 0u8..16 {
            let stages = EosStages {
                geom: bits & 1 != 0,
                rho: bits & 2 != 0,
                ein: bits & 4 != 0,
                pc: bits & 8 != 0,
            };
            for ein_from in [None, Some(&saved[..])] {
                for th in [Threading::Serial, Threading::Rayon] {
                    let which = WorkVelocity::Current;
                    let mut a = st0.clone();
                    let mut b = st0.clone();
                    run_fused(&mesh, &mat, &mut a, range, stages, which, ein_from, th);
                    if let (true, Some(saved)) = (stages.ein, ein_from) {
                        b.ein[..n_owned_el].copy_from_slice(&saved[..n_owned_el]);
                    }
                    run_chain(&mesh, &mat, &mut b, range, stages, which, th);
                    let source = if ein_from.is_some() { "saved" } else { "live" };
                    assert_bits_eq(
                        &a,
                        &b,
                        &format!("{n_owned_el} owned, mask {bits:04b}, {source} ein, {th:?}"),
                    );
                }
            }
        }
    }
}

#[test]
fn tangled_mesh_reports_the_same_error_on_both_routes() {
    let (mut mesh, mat, st0, range) = prepared(&decks::noh(8));
    // Collapse element 0: drag its third corner across the quad so the
    // signed area goes negative.
    let nd = mesh.elnd[0][2] as usize;
    mesh.nodes[nd] = mesh.nodes[mesh.elnd[0][0] as usize] - Vec2::new(0.05, 0.05);
    let th = Threading::Serial;

    let mut a = st0.clone();
    let fused_err = eos_fused(
        &mesh,
        &mat,
        &mut a,
        range,
        FusedEos {
            dt: DT,
            which: WorkVelocity::Current,
            ein_from: None,
            stages: EosStages::all(),
        },
        th,
    )
    .expect_err("tangled mesh must fail");
    let mut b = st0.clone();
    let chain_err = getgeom(&mesh, &mut b, range, th).expect_err("tangled mesh must fail");
    assert_eq!(format!("{fused_err:?}"), format!("{chain_err:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random valid states — random density/energy fields, a random
    /// smooth velocity field, random dt-independent force state — fuse
    /// to the same bits as the chain, for every threading.
    #[test]
    fn random_states_fuse_bitwise(
        seed_rho in 0.1f64..5.0,
        seed_ein in 0.1f64..5.0,
        amp in 0.0f64..0.8,
        stride in 1usize..7,
        gamma in 1.1f64..2.0,
    ) {
        let mesh = generate_rect(&RectSpec::unit_square(8), |_| 0).unwrap();
        let mat = MaterialTable::single(bookleaf::eos::EosSpec::ideal_gas(gamma));
        let mut st = HydroState::new(
            &mesh,
            &mat,
            |e| seed_rho * (1.0 + 0.3 * ((e * stride % 7) as f64) / 7.0),
            |e| seed_ein * (1.0 + 0.5 * ((e * 3 % 5) as f64) / 5.0),
            |nd| Vec2::new(
                amp * ((nd * stride % 9) as f64 / 9.0 - 0.5),
                amp * ((nd * 5 % 11) as f64 / 11.0 - 0.5),
            ),
        ).unwrap();
        let range = LocalRange::whole(&mesh);
        let th = Threading::Serial;
        getgeom(&mesh, &mut st, range, th).unwrap();
        getrho(&mut st, range, th).unwrap();
        getpc(&mesh, &mat, &mut st, range, th);
        getq(&mesh, &mut st, range, QCoeffs::default(), th);
        getforce(&mesh, &mut st, range, HourglassControl::default(), DT, th);
        for i in 0..st.n_nodes() {
            st.ubar[i] = Vec2::new(0.5 * st.u[i].x, 0.5 * st.u[i].y);
        }
        for th in [Threading::Serial, Threading::Rayon] {
            let mut a = st.clone();
            let mut b = st.clone();
            run_fused(&mesh, &mat, &mut a, range, EosStages::all(),
                      WorkVelocity::Current, None, th);
            run_chain(&mesh, &mat, &mut b, range, EosStages::all(),
                      WorkVelocity::Current, th);
            assert_bits_eq(&a, &b, &format!("random {th:?}"));
        }
    }
}

// ------------------------------------------- viscosity–force sweep

/// `edge_q`, `q`, `cnforce_x`, `cnforce_y` as bit patterns.
type ViscForceBits = (Vec<[u64; 4]>, Vec<u64>, Vec<[u64; 4]>, Vec<[u64; 4]>);

fn viscforce_bits(st: &HydroState) -> ViscForceBits {
    let rows = |rows: &[[f64; 4]]| rows.iter().map(|r| r.map(f64::to_bits)).collect();
    (
        rows(&st.edge_q),
        st.q.iter().map(|q| q.to_bits()).collect(),
        rows(&st.cnforce_x),
        rows(&st.cnforce_y),
    )
}

/// The end-of-run mesh and state of a serial run (every derived array
/// populated the way the last step left it), and the last step's `dt`.
fn end_of_run(builder: bookleaf::SimulationBuilder) -> (Mesh, HydroState, f64) {
    let mut sim = builder.max_steps(40).build().expect("valid deck");
    let report = sim.run().expect("run");
    assert!(report.steps > 5, "only {} steps", report.steps);
    let dt = report.time / report.steps as f64;
    (sim.mesh().clone(), sim.state().clone(), dt)
}

/// The five named decks and the two-material example deck, at the end
/// of a short run.
fn end_of_run_states() -> Vec<(&'static str, Mesh, HydroState, f64)> {
    let mut out: Vec<_> = standard_decks()
        .into_iter()
        .map(|(name, deck)| {
            let (mesh, st, dt) = end_of_run(Simulation::builder().deck(deck));
            (name, mesh, st, dt)
        })
        .collect();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/decks/two_material.deck"
    );
    let (mesh, st, dt) = end_of_run(Simulation::builder().deck_file(path));
    out.push(("two_material", mesh, st, dt));
    out
}

#[test]
fn viscforce_matches_getq_then_getforce_and_reference_on_every_deck() {
    for (name, mesh, st0, dt) in end_of_run_states() {
        let range = LocalRange::whole(&mesh);
        let sweep = ViscForce {
            q: QCoeffs::default(),
            hourglass: HourglassControl::default(),
            dt,
        };
        // The state must exercise both sides of the element exit.
        let mut probe = st0.clone();
        getq(&mesh, &mut probe, range, sweep.q, Threading::Serial);
        let shocked = probe.q.iter().filter(|&&q| q > 0.0).count();
        assert!(shocked > 0, "{name}: no viscosity anywhere");

        for th in [Threading::Serial, Threading::Rayon] {
            let mut fused = st0.clone();
            viscforce(&mesh, &mut fused, range, sweep, th, Pass::All, Pass::All);

            let mut sequence = st0.clone();
            getq(&mesh, &mut sequence, range, sweep.q, th);
            getforce(&mesh, &mut sequence, range, sweep.hourglass, dt, th);
            assert_eq!(
                viscforce_bits(&fused),
                viscforce_bits(&sequence),
                "{name} {th:?}: fused vs getq+getforce"
            );

            let mut reference = st0.clone();
            getq_reference(&mesh, &mut reference, range, sweep.q);
            let mut aos = Vec::new();
            getforce_reference(&mesh, &reference, range, sweep.hourglass, dt, &mut aos);
            for (e, row) in aos.iter().enumerate() {
                reference.cnforce_x[e] = row.map(|f| f.x);
                reference.cnforce_y[e] = row.map(|f| f.y);
            }
            assert_eq!(
                viscforce_bits(&fused),
                viscforce_bits(&reference),
                "{name} {th:?}: fused vs reference"
            );

            // The overlapped schedule: the interior pass (all but the
            // list) then the listed boundary pass (and the other way
            // round) is the full sweep.
            let ids: Vec<u32> = (0..mesh.n_elements() as u32)
                .filter(|e| e % 5 < 2)
                .collect();
            let cells = mesh.with_face_neighbours(&ids);
            for order in [[false, true], [true, false]] {
                let mut split = st0.clone();
                for listed in order {
                    let (elements, table) = if listed {
                        (Pass::Only(&ids), Pass::Only(&cells))
                    } else {
                        (Pass::Except(&ids), Pass::All)
                    };
                    viscforce(&mesh, &mut split, range, sweep, th, elements, table);
                }
                assert_eq!(
                    viscforce_bits(&fused),
                    viscforce_bits(&split),
                    "{name} {th:?}: split {order:?}"
                );
            }
        }
    }
}
