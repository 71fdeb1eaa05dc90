//! Execution: the one rank engine, and the rank teams of the paper's
//! flat-MPI and hybrid models.
//!
//! `Rank` is one rank's work, written once: build the state of a piece
//! of the problem's mesh (the whole mesh, or a `SubMesh`) — painted from
//! the deck's initial fields, or a restart [`Snapshot`] installed into
//! it (`Origin`) — run the shared loop to the configured stop, and
//! gather the owned entities back into a snapshot. What it needs from
//! the rest of the team comes through its [`Team`]. A run of one rank
//! is a rank with nobody to talk to — the whole mesh,
//! [`crate::halo::SerialHooks`], no Typhon, no partition, no gather —
//! that [`crate::Simulation`] keeps alive between runs: the
//! serial executor, and the flat-MPI and hybrid shapes with `ranks: 1`
//! (a hybrid rank of several threads steps inside its own pool, built
//! once). `run_team` builds one rank per Typhon rank thread for two or
//! more ranks, each with a [`TyphonHalo`]:
//!
//! * **Flat MPI** — one rank (thread) per simulated core; kernels run
//!   serially inside each rank; all parallelism comes from the domain
//!   decomposition. This is the reference code's default and the paper's
//!   best single-node configuration.
//! * **Hybrid MPI+OpenMP** — one rank per simulated NUMA region with a
//!   rayon pool (the OpenMP analogue) inside. The acceleration kernel
//!   stays serial within each rank, as in §IV-B, though what runs is
//!   the default `AccMode::GatherSerial` — the conflict-free node-order
//!   gather, run serially — not the paper's element-order scatter.
//!   Nothing here selects another mode; a caller can, through
//!   `RunConfig::lag.acc_mode`, as the `ablation_scatter` bench does.
//!
//! Both use real message passing (Typhon) with the two halo-exchange
//! phases and the single global dt reduction per step. A team consumes
//! and returns the same [`Snapshot`] a checkpoint carries: its ranks
//! gather their owned entities straight into it, in global
//! element/node order, so validation code can compare executors
//! directly and the next team — any shape — continues from where this
//! one stopped. That snapshot is all that outlives a team: no global
//! `HydroState` exists while ranks run, and the one
//! [`crate::Simulation::state`] shows is derived from the snapshot on
//! request.
//!
//! This module is driven through [`crate::Simulation`]. Observer hooks
//! fire on every rank with the rank's partition view, and the run's
//! energy accounting counts each owned element and owned node exactly
//! once across the team.

use std::sync::Mutex;
use std::time::Instant;

use bookleaf_ale::Remapper;
use bookleaf_hydro::{HydroState, LocalRange, Threading};
use bookleaf_mesh::{Mesh, SubMesh, SubMeshPlan};
use bookleaf_partition::{partition, Strategy};
use bookleaf_typhon::{CommStats, HaloPlan, Typhon, TyphonOptions};
use bookleaf_util::{BookLeafError, Result, TimerReport};

use crate::config::{ExecutorKind, RunConfig};
use crate::decks::{InitialFields, Problem};
use crate::driver::{local_energy, run_loop, LoopState};
use crate::halo::{LocalPiston, Team, TyphonHalo};
use crate::observer::ObserverSet;
use crate::output::Snapshot;

/// Local→global element and node ids of a piece; `None` for the whole
/// mesh, where they are the identity.
struct L2g(Option<(Vec<u32>, Vec<u32>)>);

impl L2g {
    fn el(&self, e: usize) -> usize {
        self.0.as_ref().map_or(e, |(el, _)| el[e] as usize)
    }

    fn nd(&self, n: usize) -> usize {
        self.0.as_ref().map_or(n, |(_, nd)| nd[n] as usize)
    }
}

/// Where a rank's state starts: the deck's initial fields, painted, or a
/// restart snapshot, installed. A rank team keeps it between runs
/// ([`crate::Simulation`]); a one-rank engine drops it once built.
pub(crate) enum Origin {
    /// The deck's initial fields, before any run.
    Fields(InitialFields),
    /// A restart state: a checkpoint's, a rewind target read from its
    /// file, or the one a rank team left.
    Snapshot(Snapshot),
}

/// The piece of the problem's mesh one rank works on.
pub(crate) struct Piece {
    mesh: Mesh,
    range: LocalRange,
    l2g: L2g,
}

impl Piece {
    /// The whole mesh: a serial run's piece — its own nodes on the
    /// problem's (shared) topology.
    pub(crate) fn whole(mesh: &Mesh) -> Piece {
        Piece {
            mesh: mesh.clone(),
            range: LocalRange::whole(mesh),
            l2g: L2g(None),
        }
    }

    /// This piece's state at `origin`, and the cursor it stands at: the
    /// deck's initial fields painted through the piece's local→global
    /// maps, or the snapshot's restart state installed into a state
    /// sized for the piece — owned and ghost entities alike are read
    /// straight from the (global) restart state through those maps,
    /// which is how a checkpoint of any executor shape repartitions onto
    /// this one ([`Snapshot::install`]).
    fn state(
        &mut self,
        problem: &Problem,
        config: &RunConfig,
        origin: &Origin,
    ) -> Result<(HydroState, LoopState)> {
        let l2g = &self.l2g;
        match origin {
            Origin::Fields(fields) => {
                let state = HydroState::new(
                    &self.mesh,
                    &problem.materials,
                    |e| fields.rho[l2g.el(e)],
                    |e| fields.ein[l2g.el(e)],
                    |n| fields.u[l2g.nd(n)],
                )?;
                Ok((state, LoopState::default()))
            }
            Origin::Snapshot(snap) => {
                let mut state = HydroState::zeroed(&self.mesh);
                let cursor = snap.install(
                    &mut self.mesh,
                    &mut state,
                    &problem.materials,
                    config.lag.threading,
                    |e| l2g.el(e),
                    |n| l2g.nd(n),
                )?;
                Ok((state, cursor))
            }
        }
    }
}

/// The whole mesh and its state at `origin`: the pair a whole-mesh rank
/// would step, without building the rank (no remapper, no hooks).
pub(crate) fn whole_state(
    problem: &Problem,
    config: &RunConfig,
    origin: &Origin,
) -> Result<(Mesh, HydroState)> {
    let mut piece = Piece::whole(&problem.mesh);
    let (state, _) = piece.state(problem, config, origin)?;
    Ok((piece.mesh, state))
}

/// What one [`Rank::run`] did: the stretch of the trajectory since the
/// previous stop. [`crate::Simulation`] adds the stretches up.
pub(crate) struct Segment {
    /// Team size.
    pub(crate) ranks: usize,
    /// Where the loop stopped (identical on every rank of a team).
    pub(crate) cursor: LoopState,
    pub(crate) wall_seconds: f64,
    pub(crate) timers: TimerReport,
    pub(crate) comm: CommStats,
    /// The global energy the trajectory started with: `energy_ref`, or
    /// reduced over the team at this segment's start.
    pub(crate) energy_start: f64,
    /// This rank's share of the energy at the stop.
    pub(crate) energy_end: f64,
}

/// One rank: the live state of a piece, and what steps it.
pub(crate) struct Rank<T: Team> {
    pub(crate) mesh: Mesh,
    pub(crate) state: HydroState,
    range: LocalRange,
    l2g: L2g,
    remapper: Option<Remapper>,
    team: T,
    cursor: LoopState,
}

impl<T: Team> Rank<T> {
    /// The state of `piece` at `origin` (see [`Piece::state`]). The
    /// deck and the snapshot are the caller's to have validated
    /// (`Simulation`'s builder does, once).
    pub(crate) fn new(
        problem: &Problem,
        config: &RunConfig,
        mut piece: Piece,
        team: T,
        origin: &Origin,
    ) -> Result<Self> {
        // Built before any restart state overwrites the node positions:
        // the initial ones are the Eulerian remap target.
        let remapper = config.ale.map(|opts| Remapper::new(&piece.mesh, opts));
        let (state, cursor) = piece.state(problem, config, origin)?;
        let Piece { mesh, range, l2g } = piece;
        Ok(Rank {
            mesh,
            state,
            range,
            l2g,
            remapper,
            team,
            cursor,
        })
    }

    /// Continue from the cursor to `config`'s final time or step cap.
    /// `energy_ref` is the trajectory's starting energy, when an earlier
    /// segment pinned it; without one, the team reduces it now. Every
    /// collective — that one, dt per step, any sentinel or
    /// observer-driven reduction inside the loop — executes in the same
    /// order on every rank.
    pub(crate) fn run(
        &mut self,
        problem: &Problem,
        config: &RunConfig,
        observers: &ObserverSet,
        energy_ref: Option<f64>,
    ) -> Result<Segment> {
        let start = Instant::now();
        let Rank {
            mesh,
            state,
            range,
            remapper,
            team,
            cursor,
            ..
        } = self;
        let range = *range;
        let energy_start = match energy_ref {
            Some(energy) => energy,
            None => team.reduce_sum(local_energy(mesh, state, range, team))?,
        };
        let timers = run_loop(
            mesh,
            &problem.materials,
            state,
            range,
            config,
            remapper.as_ref(),
            team,
            cursor,
            observers,
            energy_start,
        )?;
        Ok(Segment {
            ranks: team.n_ranks(),
            cursor: *cursor,
            wall_seconds: start.elapsed().as_secs_f64(),
            timers,
            comm: team.comm_stats(),
            energy_start,
            energy_end: local_energy(mesh, state, range, team),
        })
    }

    /// Hand this rank's owned entities, and the cursor, over to the
    /// team's restart state `gathered`, a snapshot of `counts` (global
    /// nodes, elements) that the first rank to get here starts.
    /// The rank is used up: all it holds beside its restart fields is
    /// dropped before it waits for the lock, and each of those fields
    /// as soon as it is written ([`Snapshot::gather`]).
    pub(crate) fn gather(self, gathered: &Mutex<Option<Snapshot>>, counts: (usize, usize)) {
        let Rank {
            mesh,
            state,
            range,
            l2g,
            remapper,
            team,
            cursor,
        } = self;
        drop(remapper);
        let piece = Snapshot::take(mesh, state, cursor);
        let mut gathered = gathered.lock().expect("gathering does not panic");
        gathered.get_or_insert_with(Snapshot::default).gather(
            piece,
            counts,
            range,
            |e| l2g.el(e),
            |n| l2g.nd(n),
            |n| team.owns_node(n),
        );
    }
}

/// `(ranks, threads per rank)` of an executor: the serial one is one
/// rank of one thread.
pub(crate) fn shape(executor: ExecutorKind) -> (usize, usize) {
    match executor {
        ExecutorKind::Serial => (1, 1),
        ExecutorKind::FlatMpi { ranks } => (ranks, 1),
        ExecutorKind::Hybrid {
            ranks,
            threads_per_rank,
        } => (ranks, threads_per_rank),
    }
}

/// `config` as each rank of its executor runs it: kernels threaded
/// ([`Threading::Rayon`]) iff a rank has more than one thread.
pub(crate) fn rank_config(config: &RunConfig) -> RunConfig {
    let mut rank_config = *config;
    rank_config.lag.threading = if shape(config.executor).1 > 1 {
        Threading::Rayon
    } else {
        Threading::Serial
    };
    rank_config
}

/// The pool a rank of `executor` installs around its work: its threads,
/// or `None` for a rank of one thread.
pub(crate) fn rank_pool(executor: ExecutorKind) -> Result<Option<rayon::ThreadPool>> {
    let threads = shape(executor).1;
    (threads > 1)
        .then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .map_err(|_| BookLeafError::ThreadSpawn { threads })
        })
        .transpose()
}

/// Run `op` inside `pool`, or on the calling thread without one.
pub(crate) fn installed<R: Send>(
    pool: Option<&rayon::ThreadPool>,
    op: impl FnOnce() -> R + Send,
) -> R {
    match pool {
        Some(pool) => pool.install(op),
        None => op(),
    }
}

/// One run of a rank team of two or more: partition, spawn the ranks,
/// let each build its piece at `origin`, run the shared loop (observers
/// firing per rank) and gather into the restart state the team leaves. The returned segment is the team's: timers
/// max over ranks (how an MPI code experiences time), comm counters
/// merged, end energy summed in rank order, and a wall clock that also
/// covers spawning the ranks and building their pieces. A team of one
/// is not a team: it is the whole-mesh rank `Simulation` keeps alive.
///
/// # Panics
/// With fewer than two ranks.
pub(crate) fn run_team(
    problem: &Problem,
    config: &RunConfig,
    observers: &ObserverSet,
    origin: &Origin,
    typhon: &TyphonOptions,
    energy_ref: Option<f64>,
) -> Result<(Segment, Snapshot)> {
    let ranks = shape(config.executor).0;
    assert!(ranks >= 2, "a rank team of {ranks}: one rank runs whole");
    // Each rank takes its submesh (and works on that mesh) when it
    // starts; the partition is dropped once the plan is built.
    let plan = SubMeshPlan::build(
        &problem.mesh,
        &partition(&problem.mesh, ranks, Strategy::Rcb)?,
        ranks,
    )?;
    let subs: Vec<Mutex<Option<SubMesh>>> =
        plan.into_iter().map(|sub| Mutex::new(Some(sub))).collect();
    // The restart state the team leaves, started by the first rank to
    // finish: while the ranks step, only their own pieces are live.
    let gathered: Mutex<Option<Snapshot>> = Mutex::new(None);
    let counts = (problem.mesh.n_nodes(), problem.mesh.n_elements());
    let rank_config = rank_config(config);

    let start = Instant::now();
    let results: Vec<Result<Segment>> = Typhon::run_with(ranks, typhon.clone(), |ctx| {
        let sub = subs[ctx.rank()]
            .lock()
            .expect("nothing panics holding a submesh slot")
            .take()
            .expect("each rank starts once");
        let body = || -> Result<Segment> {
            // The piston and the overlap lists are read off the submesh
            // first; then its parts move, none copied: the exchange
            // lists into the rank's exchange plan (every halo phase then
            // moves as one message per neighbour), the mesh and maps
            // into its piece.
            let piston = LocalPiston::of(problem, Some(&sub.nd_l2g));
            let boundary = config.overlap.then(|| sub.overlap_sets());
            let SubMesh {
                mesh,
                n_owned_el,
                n_active_nd,
                el_l2g,
                nd_l2g,
                nd_owner,
                el_exchange,
                nd_exchange,
                ..
            } = sub;
            let plan = HaloPlan::new(el_exchange, nd_exchange);
            let halo = TyphonHalo::new(ctx, plan, nd_owner, boundary, piston);
            let piece = Piece {
                mesh,
                range: LocalRange {
                    n_owned_el,
                    n_active_nd,
                },
                l2g: L2g(Some((el_l2g, nd_l2g))),
            };
            let mut rank = Rank::new(problem, &rank_config, piece, halo, origin)?;
            let segment = rank.run(problem, &rank_config, observers, energy_ref)?;
            // This thread exits after the gather, so nothing steps on it
            // again: its step scratch goes first.
            drop(bookleaf_hydro::lend_scratch(std::mem::take));
            rank.gather(&gathered, counts);
            Ok(segment)
        };
        installed(rank_pool(config.executor)?.as_ref(), body)
    })?;
    let wall_seconds = start.elapsed().as_secs_f64();

    // A failed team reports the cause, not its echo: the lowest rank's
    // error that is not a peer-loss symptom, else the lowest rank's.
    let echo = |e: &BookLeafError| matches!(e, BookLeafError::CommFault(c) if c.is_peer_loss());
    let (segments, errors): (Vec<_>, Vec<_>) = results.into_iter().partition(Result::is_ok);
    if let Some(cause) = errors.into_iter().filter_map(Result::err).min_by_key(echo) {
        return Err(cause);
    }
    let mut segments = segments.into_iter().flatten();
    let mut team = segments.next().expect("a team has at least one rank");
    for segment in segments {
        team.timers = team.timers.max(&segment.timers);
        team.comm = team.comm.merged(&segment.comm);
        team.energy_end += segment.energy_end;
    }
    team.wall_seconds = wall_seconds;
    let gathered = gathered.into_inner().expect("gathering does not panic");
    Ok((team, gathered.expect("every rank gathered its piece")))
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

    /// A team of one is never spawned: every one-rank shape is refused
    /// by the team machinery, and threads only where a rank has two.
    #[test]
    fn a_team_of_one_is_not_a_team() {
        let (problem, fields) = decks::sod(8, 2).split();
        let origin = Origin::Fields(fields);
        let (observers, typhon) = (ObserverSet::default(), TyphonOptions::default());
        for executor in [
            ExecutorKind::Serial,
            ExecutorKind::FlatMpi { ranks: 1 },
            ExecutorKind::Hybrid {
                ranks: 1,
                threads_per_rank: 2,
            },
        ] {
            let config = RunConfig {
                executor,
                ..RunConfig::default()
            };
            let spawned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_team(&problem, &config, &observers, &origin, &typhon, None).map(|_| ())
            }));
            assert!(spawned.is_err(), "{executor:?} ran as a team");
        }
        let threading = |executor| {
            let config = RunConfig {
                executor,
                ..RunConfig::default()
            };
            let pool = rank_pool(executor).unwrap();
            (
                rank_config(&config).lag.threading,
                pool.map(|p| p.current_num_threads()),
            )
        };
        assert_eq!(threading(ExecutorKind::Serial), (Threading::Serial, None));
        assert_eq!(
            threading(ExecutorKind::FlatMpi { ranks: 2 }),
            (Threading::Serial, None)
        );
        let hybrid = |threads_per_rank| ExecutorKind::Hybrid {
            ranks: 1,
            threads_per_rank,
        };
        assert_eq!(threading(hybrid(1)), (Threading::Serial, None));
        assert_eq!(threading(hybrid(3)), (Threading::Rayon, Some(3)));
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
        // ALE at partition boundaries falls back to first order wherever
        // the limiter's upstream neighbour lies beyond the one ghost
        // layer, and the remap reads ghost state last refreshed before
        // the viscosity, so agreement is looser.
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
