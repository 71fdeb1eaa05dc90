//! Distributed execution: the paper's flat-MPI and hybrid models.
//!
//! * **Flat MPI** — one rank (thread) per simulated core; kernels run
//!   serially inside each rank; all parallelism comes from the domain
//!   decomposition. This is the reference code's default and the paper's
//!   best single-node configuration.
//! * **Hybrid MPI+OpenMP** — one rank per simulated NUMA region with a
//!   rayon pool (the OpenMP analogue) inside. The acceleration kernel's
//!   scatter dependency keeps it serial within each rank unless the
//!   conflict-free gather rewrite is selected (`AccMode`), mirroring
//!   §IV-B.
//!
//! Both use real message passing (Typhon) with the two halo-exchange
//! phases and the single global dt reduction per step. A team consumes
//! and returns the same [`Snapshot`] a checkpoint carries: the restart
//! fields assembled back into global element/node order, so validation
//! code can compare executors directly and the next team — any shape —
//! continues from where this one stopped. That snapshot is all that
//! outlives a team: no global `HydroState` exists while ranks run, and
//! the one [`crate::Simulation::state`] shows is derived from the
//! snapshot on request.
//!
//! This module is driven through [`crate::Simulation`]. Observer hooks
//! fire on every rank with the rank's partition view, and the run's
//! energy accounting counts each owned element and owned node exactly
//! once across the team.

use std::collections::HashMap;
use std::sync::Mutex;

use bookleaf_ale::Remapper;
use bookleaf_hydro::{HydroState, LocalRange, Threading};
use bookleaf_mesh::{Mesh, SubMesh, SubMeshPlan};
use bookleaf_partition::{partition, Strategy};
use bookleaf_typhon::{CommStats, Typhon, TyphonOptions};
use bookleaf_util::{BookLeafError, Result, TimerReport, Vec2};

use crate::config::{ExecutorKind, RunConfig};
use crate::decks::Deck;
use crate::driver::{run_loop, LoopState, SentinelOps};
use crate::halo::{LocalPiston, TyphonHalo};
use crate::observer::{LoopWatch, ObserverSet};
use crate::output::Snapshot;
use crate::report::RunReport;

struct RankOut {
    /// Global ids of the rank's owned elements, in local order.
    owned_el: Vec<u32>,
    rho: Vec<f64>,
    ein: Vec<f64>,
    mass: Vec<f64>,
    q: Vec<f64>,
    cnmass: Vec<[f64; 4]>,
    u_owned: Vec<(u32, Vec2)>,
    x_owned: Vec<(u32, Vec2)>,
    nd_mass_owned: Vec<(u32, f64)>,
    /// The team's loop cursor after the run (identical on every rank).
    cursor: LoopState,
    timers: TimerReport,
    comm: CommStats,
    /// Globally reduced start/end energies (identical on every rank).
    energy_start: f64,
    energy_end: f64,
}

/// The distributed run machinery behind [`crate::Simulation`]:
/// partition, spawn the rank team, run the shared loop (observers
/// firing per rank), assemble the global restart state and the unified
/// report.
///
/// With `resume` set, every rank installs its piece — owned and ghost
/// entities alike, read through its local→global maps — of the (global)
/// restart state and continues the loop from its cursor; this is how a
/// serial (or any-shape) checkpoint repartitions onto this executor's
/// rank count. Without it (a team that has never run), each rank builds
/// its state straight from the deck. Either way the deck and the
/// snapshot are the caller's to have validated (`Simulation`'s builder
/// does, once): nothing here walks the global mesh to re-check it.
pub(crate) fn run_with_observers(
    deck: &Deck,
    config: &RunConfig,
    observers: &ObserverSet,
    resume: Option<&Snapshot>,
    typhon: &TyphonOptions,
) -> Result<(RunReport, Snapshot)> {
    let (ranks, threads_per_rank) = match config.executor {
        ExecutorKind::FlatMpi { ranks } => (ranks, 0),
        ExecutorKind::Hybrid {
            ranks,
            threads_per_rank,
        } => (ranks, threads_per_rank),
        ExecutorKind::Serial => {
            return Err(BookLeafError::InvalidDeck(
                "distributed run requested with the serial executor".into(),
            ))
        }
    };
    let owner = partition(&deck.mesh, ranks, Strategy::Rcb)?;
    // Each rank takes its submesh (and works on that mesh) when it starts.
    let subs: Vec<Mutex<Option<SubMesh>>> = SubMeshPlan::build(&deck.mesh, &owner, ranks)?
        .into_iter()
        .map(|sub| Mutex::new(Some(sub)))
        .collect();

    let mut rank_config = *config;
    rank_config.lag.threading = if threads_per_rank > 1 {
        Threading::Rayon
    } else {
        Threading::Serial
    };

    let start = std::time::Instant::now();
    let results: Vec<Result<RankOut>> = Typhon::run_with(ranks, typhon.clone(), |ctx| {
        let sub = subs[ctx.rank()]
            .lock()
            .expect("nothing panics holding a submesh slot")
            .take()
            .expect("each rank starts once");
        let body =
            || -> Result<RankOut> { run_rank(ctx, sub, deck, &rank_config, observers, resume) };
        if threads_per_rank > 1 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads_per_rank)
                .build()
                .map_err(|e| BookLeafError::Comm(format!("rayon pool: {e}")))?;
            pool.install(body)
        } else {
            body()
        }
    })?;
    let wall = start.elapsed().as_secs_f64();

    // Assemble.
    let ne = deck.mesh.n_elements();
    let nn = deck.mesh.n_nodes();
    let mut fields = Snapshot {
        time: 0.0,
        steps: 0,
        dt_prev: None,
        nodes: vec![Vec2::ZERO; nn],
        u: vec![Vec2::ZERO; nn],
        nd_mass: vec![0.0; nn],
        mass: vec![0.0; ne],
        rho: vec![0.0; ne],
        ein: vec![0.0; ne],
        q: vec![0.0; ne],
        cnmass: vec![[0.0; 4]; ne],
    };
    let mut report = RunReport {
        name: deck.name.to_string(),
        executor: config.executor,
        ranks,
        steps: 0,
        time: 0.0,
        wall_seconds: wall,
        timers: TimerReport::zero(),
        comm: CommStats::default(),
        energy_start: 0.0,
        energy_end: 0.0,
        recovery: crate::resilience::RecoveryLog::default(),
    };
    for r in results {
        let r = r?;
        for (l, &g) in r.owned_el.iter().enumerate() {
            fields.rho[g as usize] = r.rho[l];
            fields.ein[g as usize] = r.ein[l];
            fields.mass[g as usize] = r.mass[l];
            fields.q[g as usize] = r.q[l];
            fields.cnmass[g as usize] = r.cnmass[l];
        }
        for &(g, v) in &r.u_owned {
            fields.u[g as usize] = v;
        }
        for &(g, p) in &r.x_owned {
            fields.nodes[g as usize] = p;
        }
        for &(g, m) in &r.nd_mass_owned {
            fields.nd_mass[g as usize] = m;
        }
        fields.time = r.cursor.t;
        fields.steps = r.cursor.steps as u64;
        fields.dt_prev = r.cursor.dt_prev;
        report.steps = report.steps.max(r.cursor.steps);
        // Max, not last-writer-wins: every rank reports the same final
        // time, but a reordered result vector must not leave a stale
        // zero (or any one rank's value) in charge.
        report.time = report.time.max(r.cursor.t);
        report.timers = report.timers.max(&r.timers);
        report.comm = report.comm.merged(&r.comm);
        // Already globally reduced — identical on every rank.
        report.energy_start = r.energy_start;
        report.energy_end = r.energy_end;
    }
    Ok((report, fields))
}

/// One rank's work: local state, halo hooks, the shared run loop.
fn run_rank(
    ctx: &bookleaf_typhon::RankCtx,
    sub: SubMesh,
    deck: &Deck,
    config: &RunConfig,
    observers: &ObserverSet,
    resume: Option<&Snapshot>,
) -> Result<RankOut> {
    // Map global piston nodes to local ids.
    let piston = deck.piston.as_ref().map(|p| {
        let g2l: HashMap<u32, u32> = sub
            .nd_l2g
            .iter()
            .enumerate()
            .map(|(l, &g)| (g, l as u32))
            .collect();
        LocalPiston {
            nodes: p.nodes.iter().filter_map(|g| g2l.get(g).copied()).collect(),
            velocity: p.velocity,
        }
    });
    // Build the rank's aggregated exchange plan once; every halo phase
    // then moves as one message per neighbour. With the overlap toggle
    // on (and a neighbour to exchange with) a phase is posted early and
    // completed only before the sweep over the boundary lists, derived
    // here once per run — latency hiding; bitwise identical physics and
    // identical message counts.
    let mut halo = TyphonHalo::new(ctx, &sub, piston, config.overlap);
    let overlap_sets = halo.overlap_sets(&sub);

    // From here on the rank works on the submesh's own mesh.
    let SubMesh {
        mut mesh,
        n_owned_el,
        n_active_nd,
        mut el_l2g,
        nd_l2g,
        nd_owner,
        ..
    } = sub;
    let owns_node = |n: usize| nd_owner[n] as usize == ctx.rank();
    let owned_nodes = || (0..n_active_nd).filter(|&n| owns_node(n));
    let mut state = HydroState::new(
        &mesh,
        &deck.materials,
        |e| deck.rho[el_l2g[e] as usize],
        |e| deck.ein[el_l2g[e] as usize],
        |n| deck.u[nd_l2g[n] as usize],
    )?;
    let range = LocalRange {
        n_owned_el,
        n_active_nd,
    };

    // The remapper must capture the *deck-initial* node positions
    // (they are the Eulerian remap target), so it is built before any
    // restart state overwrites the mesh.
    let remapper = config.ale.map(|opts| Remapper::new(&mesh, opts));

    let mut cursor = match resume {
        Some(snap) => snap.install(
            &mut mesh,
            &mut state,
            &deck.materials,
            config.lag.threading,
            |e| el_l2g[e] as usize,
            |n| nd_l2g[n] as usize,
        )?,
        None => LoopState::default(),
    };
    let timers = bookleaf_util::TimerRegistry::new();

    // This rank's energy contribution: owned elements, owned nodes —
    // partition-boundary nodes live on several ranks but are summed
    // exactly once across the team.
    let local_energy = |mesh: &Mesh, state: &HydroState| {
        state.internal_energy(range) + state.kinetic_energy_where(mesh, range, owns_node)
    };
    // All collective calls below (start/end energy, dt per step, any
    // sentinel or observer-driven reductions inside the loop) execute
    // in the same order on every rank.
    let energy_start = ctx.allreduce_sum(local_energy(&mesh, &state))?;
    let reduce_sum = |v: f64| -> Result<f64> { Ok(ctx.allreduce_sum(v)?) };
    let reduce_min = |v: f64| -> Result<f64> { Ok(ctx.allreduce_min(v)?) };
    let comm_stats = || ctx.stats();
    let watch = LoopWatch {
        observers,
        rank: ctx.rank(),
        n_ranks: ctx.n_ranks(),
        reduce_sum: &reduce_sum,
        comm_stats: &comm_stats,
        local_energy: &local_energy,
    };
    let sentinel = SentinelOps {
        rank: ctx.rank(),
        reduce_min: &reduce_min,
        reduce_sum: &reduce_sum,
        local_energy: &local_energy,
        energy_ref: energy_start,
    };

    run_loop(
        &mut mesh,
        &deck.materials,
        &mut state,
        range,
        config,
        remapper.as_ref(),
        &mut halo,
        // The one per-step progress announcement: arms scheduled point
        // faults for this step and fires a scheduled rank death, then
        // the single global dt reduction.
        |step, dt| {
            ctx.begin_step(step)?;
            Ok(ctx.allreduce_min(dt)?)
        },
        &timers,
        &mut cursor,
        &overlap_sets,
        Some(&watch),
        Some(&sentinel),
    )?;
    let energy_end = ctx.allreduce_sum(local_energy(&mesh, &state))?;
    let u_owned = owned_nodes().map(|n| (nd_l2g[n], state.u[n])).collect();
    let x_owned = owned_nodes().map(|n| (nd_l2g[n], mesh.nodes[n])).collect();
    let nd_mass_owned = owned_nodes()
        .map(|n| (nd_l2g[n], state.nd_mass[n]))
        .collect();
    el_l2g.truncate(n_owned_el);

    Ok(RankOut {
        owned_el: el_l2g,
        rho: state.rho[..n_owned_el].to_vec(),
        ein: state.ein[..n_owned_el].to_vec(),
        mass: state.mass[..n_owned_el].to_vec(),
        q: state.q[..n_owned_el].to_vec(),
        cnmass: state.cnmass[..n_owned_el].to_vec(),
        u_owned,
        x_owned,
        nd_mass_owned,
        cursor,
        timers: timers.report(),
        comm: ctx.stats(),
        energy_start,
        energy_end,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decks;
    use crate::sim::Simulation;
    use bookleaf_util::approx_eq;

    /// Serial vs distributed equivalence on the Sod problem, all
    /// through the one `Simulation` code path.
    fn compare_with_serial(executor: ExecutorKind, tol: f64) {
        let deck = decks::sod(32, 4);
        let config = RunConfig {
            final_time: 0.03,
            ..RunConfig::default()
        };

        let mut serial = Simulation::builder()
            .deck(deck.clone())
            .config(config)
            .build()
            .unwrap();
        serial.run().unwrap();

        let mut dist = Simulation::builder()
            .deck(deck.clone())
            .config(config)
            .executor(executor)
            .build()
            .unwrap();
        dist.run().unwrap();

        for e in 0..deck.mesh.n_elements() {
            assert!(
                approx_eq(serial.state().rho[e], dist.state().rho[e], tol),
                "rho mismatch at {e}: {} vs {}",
                serial.state().rho[e],
                dist.state().rho[e]
            );
            assert!(
                approx_eq(serial.state().ein[e], dist.state().ein[e], tol),
                "ein mismatch at {e}"
            );
        }
        for n in 0..deck.mesh.n_nodes() {
            assert!(
                (serial.state().u[n] - dist.state().u[n]).norm() < tol,
                "velocity mismatch at node {n}"
            );
            assert!(
                serial.mesh().nodes[n].distance(dist.mesh().nodes[n]) < tol,
                "position mismatch at node {n}"
            );
        }
    }

    #[test]
    fn flat_mpi_matches_serial() {
        compare_with_serial(ExecutorKind::FlatMpi { ranks: 4 }, 1e-9);
    }

    #[test]
    fn hybrid_matches_serial() {
        compare_with_serial(
            ExecutorKind::Hybrid {
                ranks: 2,
                threads_per_rank: 2,
            },
            1e-9,
        );
    }

    #[test]
    fn rank_counts_agree_on_steps_and_energy_is_global() {
        let deck = decks::noh(12);
        let mut sim = Simulation::builder()
            .deck(deck.clone())
            .final_time(0.02)
            .executor(ExecutorKind::FlatMpi { ranks: 3 })
            .build()
            .unwrap();
        let report = sim.run().unwrap();
        assert!(report.steps > 0);
        assert!((report.time - 0.02).abs() < 1e-12);
        assert_eq!(report.ranks, 3);
        // Communication actually happened.
        assert!(report.comm.messages_sent > 0);
        assert!(report.comm.doubles_sent > 0);
        // The energy accounting is global (counts every partition once):
        // it matches the serial run's to tight tolerance.
        let mut serial = Simulation::builder()
            .deck(deck)
            .final_time(0.02)
            .build()
            .unwrap();
        let serial_report = serial.run().unwrap();
        assert!(
            approx_eq(report.energy_start, serial_report.energy_start, 1e-9),
            "start energy {} vs serial {}",
            report.energy_start,
            serial_report.energy_start
        );
        assert!(
            approx_eq(report.energy_end, serial_report.energy_end, 1e-6),
            "end energy {} vs serial {}",
            report.energy_end,
            serial_report.energy_end
        );
    }

    #[test]
    fn serial_executor_is_rejected_by_the_distributed_machinery() {
        let deck = decks::sod(8, 2);
        let config = RunConfig {
            executor: ExecutorKind::Serial,
            ..RunConfig::default()
        };
        assert!(run_with_observers(
            &deck,
            &config,
            &ObserverSet::default(),
            None,
            &TyphonOptions::default()
        )
        .is_err());
    }

    #[test]
    fn distributed_piston_works() {
        let mut sim = Simulation::builder()
            .deck(decks::saltzmann(32, 4))
            .final_time(0.05)
            .executor(ExecutorKind::FlatMpi { ranks: 3 })
            .build()
            .unwrap();
        sim.run().unwrap();
        let min_x = sim
            .mesh()
            .nodes
            .iter()
            .map(|p| p.x)
            .fold(f64::INFINITY, f64::min);
        assert!((min_x - 0.05).abs() < 0.02, "piston wall at {min_x}");
    }

    #[test]
    fn distributed_eulerian_ale_matches_serial_loosely() {
        use bookleaf_ale::{AleMode, AleOptions};
        let deck = decks::sod(24, 3);
        let base = RunConfig {
            final_time: 0.02,
            ale: Some(AleOptions {
                mode: AleMode::Eulerian,
                frequency: 1,
            }),
            ..RunConfig::default()
        };
        let mut serial = Simulation::builder()
            .deck(deck.clone())
            .config(base)
            .build()
            .unwrap();
        serial.run().unwrap();
        let mut dist = Simulation::builder()
            .deck(deck.clone())
            .config(base)
            .executor(ExecutorKind::FlatMpi { ranks: 2 })
            .build()
            .unwrap();
        dist.run().unwrap();
        // ALE at partition boundaries falls back to first order for the
        // limiter stencil (see DESIGN.md), so agreement is looser.
        for e in 0..deck.mesh.n_elements() {
            assert!(
                approx_eq(serial.state().rho[e], dist.state().rho[e], 5e-2),
                "rho far off at {e}: {} vs {}",
                serial.state().rho[e],
                dist.state().rho[e]
            );
        }
    }
}
