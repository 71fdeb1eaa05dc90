#![allow(clippy::needless_range_loop)] // index loops mirror the kernel style
//! Property-based tests (proptest) on the core invariants.
//!
//! Random decks, random flows and random partitions must uphold the
//! conservation and monotonicity guarantees the design promises,
//! whatever the inputs.

use bookleaf::ale::{AleMode, AleOptions, Remapper};
use bookleaf::core::{decks, ExecutorKind, RunConfig, Simulation};
use bookleaf::eos::{EosSpec, MaterialTable};
use bookleaf::hydro::{HydroState, LocalRange};
use bookleaf::mesh::{generate_rect, RectSpec};
use bookleaf::partition::{metrics, partition, Strategy};
use bookleaf::util::Vec2;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// A short Lagrangian run of a randomised closed-box deck conserves
    /// mass exactly and total energy to round-off.
    #[test]
    fn random_closed_box_conserves(
        seed_rho in 0.5f64..3.0,
        seed_ein in 0.5f64..3.0,
        hot in 0usize..36,
        n_steps in 1usize..15,
    ) {
        let mesh = generate_rect(&RectSpec::unit_square(6), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let mut st = HydroState::new(
            &mesh,
            &mat,
            |e| seed_rho * (1.0 + 0.2 * ((e * 7 % 5) as f64) / 5.0),
            |e| if e == hot { 5.0 * seed_ein } else { seed_ein },
            |_| Vec2::ZERO,
        ).unwrap();
        let mut mesh = mesh;
        let range = LocalRange::whole(&mesh);
        let m0 = st.total_mass(range);
        let e0 = st.total_energy(&mesh, range);
        for _ in 0..n_steps {
            bookleaf::hydro::lagstep(
                &mut mesh, &mat, &mut st, range, 5e-4,
                &bookleaf::hydro::LagOptions::default(),
                &mut bookleaf::hydro::NoComm,
            ).unwrap();
        }
        prop_assert_eq!(st.total_mass(range), m0);
        let e1 = st.total_energy(&mesh, range);
        prop_assert!(((e1 - e0) / e0).abs() < 1e-9, "energy drift {}", (e1 - e0) / e0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The remap conserves mass and internal energy and never creates new
    /// density extrema, for random fields and random interior distortions.
    #[test]
    fn remap_conserves_and_stays_monotone(
        amp in 0.001f64..0.012,
        phase in 0.0f64..std::f64::consts::TAU,
        rho_hi in 1.5f64..4.0,
    ) {
        let mesh0 = generate_rect(&RectSpec::unit_square(6), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let mut st = HydroState::new(
            &mesh0,
            &mat,
            |e| if e % 2 == 0 { 1.0 } else { rho_hi },
            |e| 1.0 + 0.1 * (e % 3) as f64,
            |_| Vec2::ZERO,
        ).unwrap();
        let mut mesh = mesh0;
        let range = LocalRange::whole(&mesh);
        let remapper = Remapper::new(&mesh, AleOptions { mode: AleMode::Eulerian, frequency: 1 });

        // Distort the interior and keep the state consistent.
        for n in 0..mesh.n_nodes() {
            let bc = mesh.node_bc[n];
            if !bc.fix_x {
                mesh.nodes[n].x += amp * ((n as f64) * 1.3 + phase).sin();
            }
            if !bc.fix_y {
                mesh.nodes[n].y += amp * ((n as f64) * 2.1 + phase).cos();
            }
        }
        for e in 0..mesh.n_elements() {
            let c = mesh.corners(e);
            st.volume[e] = bookleaf::mesh::geometry::quad_area(&c);
            st.rho[e] = st.mass[e] / st.volume[e];
            let cv = bookleaf::mesh::geometry::corner_volumes(&c);
            for k in 0..4 {
                st.cnmass[e][k] = st.rho[e] * cv[k];
            }
        }
        let mass0 = st.total_mass(range);
        let ie0 = st.internal_energy(range);
        let (lo0, hi0) = st.rho.iter().fold((f64::INFINITY, 0.0f64), |(l, h), &r| (l.min(r), h.max(r)));

        remapper.step(&mut mesh, &mut st, range).unwrap();

        prop_assert!((st.total_mass(range) - mass0).abs() < 1e-12 * mass0.max(1.0));
        prop_assert!((st.internal_energy(range) - ie0).abs() < 1e-12 * ie0.abs().max(1.0));
        let (lo1, hi1) = st.rho.iter().fold((f64::INFINITY, 0.0f64), |(l, h), &r| (l.min(r), h.max(r)));
        // Monotone advection: bounds may tighten, not widen (tolerance for
        // the distorted-volume re-derivation).
        prop_assert!(lo1 >= lo0 * 0.9 - 1e-12, "undershoot {lo1} vs {lo0}");
        prop_assert!(hi1 <= hi0 * 1.1 + 1e-12, "overshoot {hi1} vs {hi0}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// RCB balances arbitrary rectangular meshes into any feasible part
    /// count with every part non-empty.
    #[test]
    fn rcb_always_feasible(nx in 2usize..12, ny in 2usize..12, parts in 1usize..8) {
        let mesh = generate_rect(
            &RectSpec { nx, ny, origin: Vec2::ZERO, extent: Vec2::new(1.0, 0.7) },
            |_| 0,
        ).unwrap();
        prop_assume!(parts <= mesh.n_elements());
        let owner = partition(&mesh, parts, Strategy::Rcb).unwrap();
        let rep = metrics::assess_partition(&mesh, &owner, parts).unwrap();
        prop_assert!(rep.sizes.iter().all(|&s| s > 0));
        prop_assert!(rep.imbalance < 2.0, "imbalance {}", rep.imbalance);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Distributed Sod agrees with serial for arbitrary rank counts.
    #[test]
    fn distributed_matches_serial_for_any_rank_count(ranks in 2usize..6) {
        let deck = decks::sod(24, 3);
        let config = RunConfig { final_time: 0.015, ..RunConfig::default() };
        let mut serial = Simulation::builder().deck(deck.clone()).config(config).build().unwrap();
        serial.run().unwrap();
        let mut dist = Simulation::builder()
            .deck(deck)
            .config(config)
            .executor(ExecutorKind::FlatMpi { ranks })
            .build()
            .unwrap();
        dist.run().unwrap();
        for e in 0..serial.deck().mesh.n_elements() {
            prop_assert!(
                (serial.state().rho[e] - dist.state().rho[e]).abs() < 1e-9,
                "rho mismatch at {} with {} ranks", e, ranks
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// `char_length` roots the longest *squared* edge once; the formula
    /// it replaced rooted all four edges and took the maximum. `sqrt` is
    /// monotone and correctly rounded, so the two agree bit for bit —
    /// on random quads, on quads with coincident corners (zero-length
    /// edges) and on fully collapsed ones.
    #[test]
    fn char_length_single_sqrt_matches_four_sqrt_bitwise(
        x0 in -3.0f64..3.0, y0 in -3.0f64..3.0,
        x1 in -3.0f64..3.0, y1 in -3.0f64..3.0,
        x2 in -3.0f64..3.0, y2 in -3.0f64..3.0,
        x3 in -3.0f64..3.0, y3 in -3.0f64..3.0,
        // Tiny and huge quads: squared edges underflow to subnormals
        // and zero at one end of the range, approach overflow at the
        // other.
        scale_exp in 0u32..1060,
        collapse in 0usize..6,
    ) {
        use bookleaf::mesh::geometry::{char_length, quad_area};
        let scale = 2.0f64.powi(scale_exp as i32 - 540);
        let mut c = [(x0, y0), (x1, y1), (x2, y2), (x3, y3)]
            .map(|(x, y)| Vec2::new(x * scale, y * scale));
        match collapse {
            0 => c[1] = c[0], // one zero-length edge
            1 => {
                c[1] = c[0]; // two
                c[3] = c[2];
            }
            2 => c = [c[0]; 4], // a point
            _ => {}
        }
        let longest = (0..4)
            .map(|i| c[i].distance(c[(i + 1) % 4]))
            .fold(0.0f64, f64::max);
        let four_sqrt = if longest == 0.0 { 0.0 } else { quad_area(&c).abs() / longest };
        prop_assert_eq!(char_length(&c).to_bits(), four_sqrt.to_bits());
    }
}
