//! `getacc`: nodal masses, acceleration, boundary conditions, velocity
//! update and node motion.
//!
//! This is the kernel the paper singles out (§IV-B): gathering corner
//! masses and forces to nodes is a *scatter* over elements with write
//! conflicts at shared nodes — "a data dependency that prevents
//! parallelisation" which the reference OpenMP port left serial,
//! "adversely affecting OpenMP performance" (Table II shows the hybrid
//! acceleration kernel ≈ 2.4× slower than flat MPI).
//!
//! We provide both formulations:
//!
//! * [`AccMode::ScatterSerial`] — the reference element-order scatter,
//!   inherently serial (what the paper shipped);
//! * [`AccMode::GatherParallel`] / [`AccMode::GatherSerial`] — the
//!   conflict-free rewrite using the node→element CSR adjacency, safe to
//!   thread (the fix the paper describes as possible "by rewriting the
//!   kernel"). The ablation bench `ablation_scatter` quantifies the gap.

use bookleaf_mesh::{Mesh, Topology};
use bookleaf_util::Vec2;

use crate::state::{HydroState, LocalRange};
use crate::sweep::{sweep, Pass};
use crate::viscforce::{Scratch, SCRATCH};
use crate::Threading;

/// How to accumulate corner masses/forces onto nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccMode {
    /// Element-order scatter with write conflicts — must run serial.
    /// This is the reference implementation's formulation.
    ScatterSerial,
    /// Node-order gather via CSR adjacency, run sequentially.
    #[default]
    GatherSerial,
    /// Node-order gather via CSR adjacency, threaded with rayon.
    GatherParallel,
}

/// Compute accelerations, apply kinematic boundary conditions, advance
/// velocities by `dt` and set the time-centred `ubar`.
///
/// Requires ghost corner masses and forces to be current (exchange
/// phase 2) so that partition-boundary nodes see their complete
/// adjacency.
pub fn getacc(mesh: &Mesh, state: &mut HydroState, range: LocalRange, dt: f64, mode: AccMode) {
    getacc_pass(mesh, state, range, dt, mode, Pass::All);
}

/// [`getacc`] over the active nodes of `nodes`; velocities, `ubar` and
/// nodal masses of the others are left untouched. The overlapped
/// schedule runs `Pass::Except` of the boundary nodes while the corner
/// exchange is in flight — every node it visits has a wholly owned
/// element adjacency (see `bookleaf_mesh::OverlapSets`), so no sum it
/// uses reads a ghost corner mass or force the exchange is about to
/// rewrite — and `Pass::Only` of them once it has completed.
pub fn getacc_pass(
    mesh: &Mesh,
    state: &mut HydroState,
    range: LocalRange,
    dt: f64,
    mode: AccMode,
    nodes: Pass<'_>,
) {
    if matches!(nodes, Pass::Only([])) {
        return;
    }
    let nn = range.n_active_nd;
    let (cnmass, fx, fy) = (&state.cnmass, &state.cnforce_x, &state.cnforce_y);
    let topology: &Topology = mesh;
    let columns = (
        &mut state.nd_mass[..nn],
        &mut state.u[..nn],
        &mut state.ubar[..nn],
    );
    // Acceleration, BCs, velocity update and time-centred velocity of
    // node `n`, given its mass `m` and force `f`.
    let advance = |n: usize, (m, f): (f64, Vec2), (nd_mass, u, ubar): Row<'_>| {
        *nd_mass = m;
        let bc = topology.node_bc[n];
        let a = if m > 0.0 { bc.apply(f / m) } else { Vec2::ZERO };
        let u_old = bc.apply(*u);
        *u = u_old + a * dt;
        *ubar = (u_old + *u) * 0.5;
    };
    // Mass and force gathered at node `n` from its adjacent elements.
    // The CSR adjacency is ordered by element id, so the summation
    // order is identical on every rank that can see the node —
    // distributed and serial runs produce bitwise-identical updates.
    let gather = |n: usize| {
        let (mut m, mut f) = (0.0, Vec2::ZERO);
        for &(e, c) in topology.elements_of_node(n) {
            let (e, c) = (e as usize, c as usize);
            m += cnmass[e][c];
            f += Vec2::new(fx[e][c], fy[e][c]);
        }
        (m, f)
    };
    if mode != AccMode::ScatterSerial {
        let threading = if mode == AccMode::GatherParallel {
            Threading::Rayon
        } else {
            Threading::Serial
        };
        return sweep(threading, nodes, columns, |n, row| {
            advance(n, gather(n), row);
        });
    }
    SCRATCH.with(|scratch| {
        // The thread's nodal-sum buffers (a steady-state step allocates
        // nothing). The scatter runs over *all* local elements, so
        // active nodes adjacent to ghost elements receive those
        // contributions too, and it sums every node — in the one
        // element order, whichever of them `nodes` then advances.
        let Scratch {
            nd_mass, nd_force, ..
        } = &mut *scratch.borrow_mut();
        nd_mass.clear();
        nd_mass.resize(nn, 0.0);
        nd_force.clear();
        nd_force.resize(nn, Vec2::ZERO);
        for e in 0..mesh.n_elements() {
            for c in 0..4 {
                let nd = mesh.elnd[e][c] as usize;
                if nd < nn {
                    nd_mass[nd] += cnmass[e][c];
                    nd_force[nd] += Vec2::new(fx[e][c], fy[e][c]);
                }
            }
        }
        sweep(Threading::Serial, nodes, columns, |n, row| {
            advance(n, (nd_mass[n], nd_force[n]), row);
        });
    });
}

/// One node's outputs: its mass, velocity and time-centred velocity.
type Row<'a> = (&'a mut f64, &'a mut Vec2, &'a mut Vec2);

/// Move nodes by `dt * ubar` (the corrector's time-centred motion; the
/// predictor passes `u` copied into `ubar`).
pub fn move_nodes(mesh: &mut Mesh, state: &HydroState, range: LocalRange, dt: f64) {
    for n in 0..range.n_active_nd {
        mesh.nodes[n] += state.ubar[n] * dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_eos::{EosSpec, MaterialTable};
    use bookleaf_mesh::{generate_rect, RectSpec};
    use bookleaf_util::approx_eq;

    fn setup(n: usize) -> (Mesh, HydroState) {
        let mesh = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let st = HydroState::new(&mesh, &mat, |_| 1.0, |_| 2.5, |_| Vec2::ZERO).unwrap();
        (mesh, st)
    }

    /// Set a known force field: every corner of every element pushes +x.
    fn set_unit_forces(st: &mut HydroState) {
        for e in 0..st.n_elements() {
            st.cnforce_x[e] = [1.0; 4];
            st.cnforce_y[e] = [0.0; 4];
        }
    }

    /// Every mode adds a node's corners in element-id order — the
    /// gathers walk the CSR adjacency, which is sorted by element id,
    /// and the scatter visits elements in order — so all three agree
    /// bit for bit, the threaded gather in pools of width 1, 2 and 4
    /// included. Nodes, masses, forces and velocities are not dyadic,
    /// so the sums round and a different order would show.
    #[test]
    fn all_modes_agree_bitwise() {
        let mut mesh = generate_rect(&RectSpec::unit_square(9), |_| 0).unwrap();
        for (i, p) in mesh.nodes.iter_mut().enumerate() {
            *p += Vec2::new(0.01 * (i as f64).sin(), 0.01 * (1.7 * i as f64).cos());
        }
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let mut st0 = HydroState::new(
            &mesh,
            &mat,
            |e| 1.0 + 0.1 * (0.7 * e as f64).sin(),
            |_| 2.5,
            |n| Vec2::new(0.1 * (n as f64).sin(), 0.1 * (n as f64).cos()),
        )
        .unwrap();
        for e in 0..st0.n_elements() {
            let wave = |k: f64| (k * e as f64 + 0.3).sin() / 3.0;
            st0.cnforce_x[e] = [wave(1.3), wave(0.9), wave(2.1), wave(0.4)];
            st0.cnforce_y[e] = [wave(0.5), wave(1.1), wave(1.9), wave(0.7)];
        }
        let rounds = (0..mesh.n_nodes()).any(|n| {
            let adj = mesh.elements_of_node(n);
            let add = |s: f64, &(e, c): &(u32, u8)| s + st0.cnforce_x[e as usize][c as usize];
            adj.iter().fold(0.0, add).to_bits() != adj.iter().rev().fold(0.0, add).to_bits()
        });
        assert!(
            rounds,
            "no nodal sum rounds: the pin would hold in any order"
        );

        let range = LocalRange::whole(&mesh);
        let run = |mode: AccMode| {
            let mut st = st0.clone();
            getacc(&mesh, &mut st, range, 0.013, mode);
            let bits = |v: &[Vec2]| -> Vec<[u64; 2]> {
                v.iter().map(|p| [p.x.to_bits(), p.y.to_bits()]).collect()
            };
            let mass: Vec<u64> = st.nd_mass.iter().map(|m| m.to_bits()).collect();
            (bits(&st.u), bits(&st.ubar), mass)
        };
        let reference = run(AccMode::GatherSerial);
        assert_eq!(run(AccMode::ScatterSerial), reference, "ScatterSerial");
        for width in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            let threaded = pool.install(|| run(AccMode::GatherParallel));
            assert_eq!(threaded, reference, "GatherParallel x{width}");
        }
    }

    #[test]
    fn free_interior_node_accelerates() {
        let (mesh, mut st) = setup(2);
        set_unit_forces(&mut st);
        let range = LocalRange::whole(&mesh);
        getacc(&mesh, &mut st, range, 0.1, AccMode::GatherSerial);
        // Interior node 4 of the 3x3 node grid: mass = 4 * 1/16 * ... for
        // a 2x2 unit-square mesh each element has mass 1/4, corner mass
        // 1/16; node 4 touches 4 corners -> m = 4/16 = 0.25. Force = 4.
        let n = 4;
        let expect_a = 4.0 / 0.25;
        assert!(approx_eq(st.u[n].x, 0.1 * expect_a, 1e-12));
        assert_eq!(st.u[n].y, 0.0);
        assert!(approx_eq(st.ubar[n].x, 0.05 * expect_a, 1e-12));
    }

    #[test]
    fn boundary_conditions_pin_normal_velocity() {
        let (mesh, mut st) = setup(2);
        set_unit_forces(&mut st);
        for e in 0..st.n_elements() {
            st.cnforce_x[e] = [1.0; 4];
            st.cnforce_y[e] = [1.0; 4];
        }
        let range = LocalRange::whole(&mesh);
        getacc(&mesh, &mut st, range, 0.1, AccMode::GatherSerial);
        // Node 0 is a corner: fully pinned.
        assert_eq!(st.u[0], Vec2::ZERO);
        // Node 1 (bottom edge): y pinned, x free.
        assert!(st.u[1].x > 0.0);
        assert_eq!(st.u[1].y, 0.0);
        // Node 3 (left edge): x pinned, y free.
        assert_eq!(st.u[3].x, 0.0);
        assert!(st.u[3].y > 0.0);
    }

    #[test]
    fn pre_existing_velocity_on_wall_is_projected() {
        let (mesh, mut st) = setup(2);
        // Give wall node 1 an illegal normal velocity; getacc must clear it.
        st.u[1] = Vec2::new(0.5, 2.0);
        let range = LocalRange::whole(&mesh);
        getacc(&mesh, &mut st, range, 0.1, AccMode::GatherSerial);
        assert_eq!(st.u[1].y, 0.0);
        assert!(approx_eq(st.u[1].x, 0.5, 1e-13));
    }

    #[test]
    fn move_nodes_uses_ubar() {
        let (mut mesh, mut st) = setup(2);
        let range = LocalRange::whole(&mesh);
        st.ubar[4] = Vec2::new(1.0, -2.0);
        let before = mesh.nodes[4];
        move_nodes(&mut mesh, &st, range, 0.25);
        assert!(approx_eq(mesh.nodes[4].x, before.x + 0.25, 1e-14));
        assert!(approx_eq(mesh.nodes[4].y, before.y - 0.5, 1e-14));
    }

    #[test]
    fn momentum_conserved_without_boundaries() {
        // Interior-only forces that sum to zero globally: total momentum
        // of interior nodes must remain zero... instead check Newton's
        // third law pairing: total momentum change equals dt * total force
        // over free directions.
        let (mesh, mut st) = setup(4);
        let range = LocalRange::whole(&mesh);
        // Interior-only synthetic forces.
        for e in 0..st.n_elements() {
            st.cnforce_x[e] = [0.3, -0.3, 0.3, -0.3];
            st.cnforce_y[e] = [0.1, 0.1, -0.1, -0.1];
        }
        getacc(&mesh, &mut st, range, 0.2, AccMode::GatherSerial);
        let mut dp = Vec2::ZERO; // Σ m du over free nodes
        let mut expected = Vec2::ZERO;
        for n in 0..mesh.n_nodes() {
            let (mut m, mut f) = (0.0, Vec2::ZERO);
            for &(e, c) in mesh.elements_of_node(n) {
                m += st.cnmass[e as usize][c as usize];
                f += Vec2::new(
                    st.cnforce_x[e as usize][c as usize],
                    st.cnforce_y[e as usize][c as usize],
                );
            }
            let bc = mesh.node_bc[n];
            dp += st.u[n] * m;
            expected += bc.apply(f) * 0.2;
        }
        assert!(approx_eq(dp.x, expected.x, 1e-12));
        assert!(approx_eq(dp.y, expected.y, 1e-12));
    }

    const MODES: [AccMode; 3] = [
        AccMode::ScatterSerial,
        AccMode::GatherSerial,
        AccMode::GatherParallel,
    ];

    /// Corner forces whose nodal sums depend on the summation order.
    fn set_uneven_forces(st: &mut HydroState) {
        for e in 0..st.n_elements() {
            st.cnforce_x[e] = [0.1 * e as f64, -0.2, 0.05, 1.0 / 3.0];
            st.cnforce_y[e] = [-0.05, 0.3, 0.05 * e as f64, -0.1];
        }
    }

    fn true_positions(mask: &[bool]) -> Vec<u32> {
        (0..mask.len() as u32)
            .filter(|&n| mask[n as usize])
            .collect()
    }

    /// Pass over all but the list + pass over the list == the full
    /// sweep on `u`, `ubar` and `nd_mass`, bit for bit, in either order.
    fn assert_split_is_full(mesh: &Mesh, st0: &HydroState, range: LocalRange, mask: &[bool]) {
        let ids = true_positions(mask);
        for mode in MODES {
            let mut full = st0.clone();
            getacc(mesh, &mut full, range, 0.01, mode);
            for order in [
                [Pass::Except(&ids), Pass::Only(&ids)],
                [Pass::Only(&ids), Pass::Except(&ids)],
            ] {
                let mut split = st0.clone();
                for pass in order {
                    getacc_pass(mesh, &mut split, range, 0.01, mode, pass);
                }
                let what = format!("{mode:?}, {order:?}");
                assert_eq!(full.u, split.u, "u, {what}");
                assert_eq!(full.ubar, split.ubar, "ubar, {what}");
                let bits = |st: &HydroState| -> Vec<u64> {
                    st.nd_mass.iter().map(|m| m.to_bits()).collect()
                };
                assert_eq!(bits(&full), bits(&split), "nd_mass, {what}");
            }
        }
    }

    #[test]
    fn interior_pass_plus_listed_pass_is_the_full_sweep_bitwise() {
        let (mesh, mut st) = setup(5);
        set_uneven_forces(&mut st);
        let mask: Vec<bool> = (0..mesh.n_nodes()).map(|n| n % 4 == 1).collect();
        assert_split_is_full(&mesh, &st, LocalRange::whole(&mesh), &mask);
    }

    #[test]
    fn split_passes_are_the_full_sweep_on_a_submesh() {
        // The right-hand rank of a stripe partition: ghost elements,
        // inactive nodes, and the boundary list the executor uses.
        use bookleaf_mesh::SubMeshPlan;
        let n = 6;
        let global = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
        let owner: Vec<usize> = (0..global.n_elements())
            .map(|e| usize::from(e % n >= n / 2))
            .collect();
        let sub = SubMeshPlan::build(&global, &owner, 2).unwrap().remove(1);
        let mut boundary = vec![false; sub.n_active_nd];
        for &nd in &sub.overlap_sets().nd_boundary_ids {
            boundary[nd as usize] = true;
        }
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let mut st = HydroState::new(&sub.mesh, &mat, |_| 1.0, |_| 2.5, |_| Vec2::ZERO).unwrap();
        set_uneven_forces(&mut st);
        let range = LocalRange {
            n_owned_el: sub.n_owned_el,
            n_active_nd: sub.n_active_nd,
        };
        assert_split_is_full(&sub.mesh, &st, range, &boundary);
    }

    #[test]
    fn each_pass_leaves_the_other_passes_nodes_untouched() {
        let (mesh, mut st0) = setup(3);
        set_unit_forces(&mut st0);
        let range = LocalRange::whole(&mesh);
        let frozen = Vec2::new(9.0, -9.0);
        st0.u.fill(frozen);
        st0.ubar.fill(frozen);
        st0.nd_mass.fill(-1.0);
        let mask: Vec<bool> = (0..mesh.n_nodes()).map(|n| n < 6).collect();
        let ids = true_positions(&mask);
        for mode in MODES {
            for listed in [false, true] {
                let mut st = st0.clone();
                let pass = if listed {
                    Pass::Only(&ids)
                } else {
                    Pass::Except(&ids)
                };
                getacc_pass(&mesh, &mut st, range, 0.1, mode, pass);
                for n in 0..mesh.n_nodes() {
                    let kept = (st.u[n], st.ubar[n], st.nd_mass[n]) == (frozen, frozen, -1.0);
                    assert_eq!(
                        kept,
                        mask[n] != listed,
                        "{mode:?} listed {listed}: node {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_list_is_a_no_op() {
        let (mesh, mut st0) = setup(3);
        set_uneven_forces(&mut st0);
        for mode in MODES {
            let mut st = st0.clone();
            let range = LocalRange::whole(&mesh);
            getacc_pass(&mesh, &mut st, range, 0.1, mode, Pass::Only(&[]));
            assert_eq!(
                (st.u, st.ubar, st.nd_mass),
                (st0.u.clone(), st0.ubar.clone(), st0.nd_mass.clone())
            );
        }
    }

    #[test]
    fn active_range_limits_updates() {
        let (mesh, mut st) = setup(3);
        set_unit_forces(&mut st);
        let range = LocalRange {
            n_owned_el: mesh.n_elements(),
            n_active_nd: 4,
        };
        getacc(&mesh, &mut st, range, 0.1, AccMode::GatherSerial);
        // Nodes beyond the active range keep zero velocity.
        assert!(st.u[10..].iter().all(|u| *u == Vec2::ZERO));
    }
}
