//! The hydro loop (Algorithm 1 of the paper).
//!
//! ```text
//! procedure HYDRO()
//!     dt ← initial dt
//!     loop
//!         if after first time step then dt ← GETDT(dt)
//!         LAGSTEP(dt)
//!         if grid requires Eulerian remap then ALESTEP(dt)
//!     end loop
//! end procedure
//! ```
//!
//! `run_loop` is the one loop, and the rank engine of
//! [`crate::executor`] its one caller: a serial run and every
//! rank of a team drive it the same way. Everything a step needs from
//! the rest of the team — the halo phases and their boundary lists, the
//! dt reduction, the collectives behind the health sentinel and the
//! observers' global energy — comes through the one [`Team`] it is
//! handed; a serial run's is a team of one.

use bookleaf_ale::Remapper;
use bookleaf_eos::MaterialTable;
use bookleaf_hydro::getdt::getdt;
use bookleaf_hydro::getpc::getpc;
use bookleaf_hydro::{lagstep_timed, HydroState, LocalRange};
use bookleaf_mesh::Mesh;
use bookleaf_util::{
    BookLeafError, HealthDiagnosis, HealthField, KernelId, Result, TimerRegistry, TimerReport,
};

use crate::config::RunConfig;
use crate::halo::Team;
use crate::observer::{ObserverNeeds, ObserverSet, StepView};

/// Mutable loop bookkeeping, persisted across `run_loop` calls so
/// drivers can resume (restart files, incremental advancement).
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopState {
    /// Simulated time.
    pub t: f64,
    /// Steps taken so far.
    pub steps: usize,
    /// Previous dt (None before the first step).
    pub dt_prev: Option<f64>,
}

impl LoopState {
    /// Has the run reached its goal — `config`'s final time or step
    /// cap? The one stopping rule: the loop steps while this is false,
    /// and every caller that loops on segments asks it too.
    pub(crate) fn done(&self, config: &RunConfig) -> bool {
        self.t >= config.final_time - 1e-15 || self.steps >= config.max_steps
    }
}

/// This rank's share of the global energy: its owned elements, and the
/// active nodes `team` says it counts — partition-boundary nodes live
/// on several ranks but are summed exactly once across the team. With
/// every node counted it is `HydroState::total_energy`, to the bit.
pub(crate) fn local_energy<T: Team>(
    mesh: &Mesh,
    state: &HydroState,
    range: LocalRange,
    team: &T,
) -> f64 {
    state.internal_energy(range) + state.kinetic_energy_where(mesh, range, |n| team.owns_node(n))
}

/// The hydro loop: continues from `cursor`, leaves it at the stop point
/// and returns this call's per-kernel timings.
///
/// Once per step `team.begin_step` turns the local dt proposal into the
/// global one. It receives the 0-based index of the step about to
/// execute — the point where a rank announces progress to the comm
/// layer — and it is fallible, because that announcement is where a
/// scheduled rank death fires and where a collective can fail
/// against a dead peer. The kernels run `team`'s halo schedule against
/// `team.boundary()`.
///
/// With observers registered, their hooks fire at run begin, at every
/// step end and at run end. Observers are read-only, so a watched run
/// is bitwise identical to an unwatched one. When they ask for the
/// global energy, every rank issues the extra `reduce_sum` at the same
/// loop points — the symmetry that makes the collective safe.
///
/// With `config.sentinel` on, the health sweep runs after every step:
/// rank-local NaN/Inf and positivity checks are min-reduced into one
/// team-wide verdict, so **all ranks abort together** with the same
/// typed [`BookLeafError::Unhealthy`] diagnosis; the conservation-drift
/// check compares the global energy with `energy_ref`, the trajectory's
/// starting energy. A collapsing dt needs no sentinel: `getdt` fails
/// each rank's proposal below `dt_min` with a typed `TimestepCollapse`
/// before it is reduced.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_loop<T: Team>(
    mesh: &mut Mesh,
    materials: &MaterialTable,
    state: &mut HydroState,
    range: LocalRange,
    config: &RunConfig,
    remapper: Option<&Remapper>,
    team: &mut T,
    cursor: &mut LoopState,
    observers: &ObserverSet,
    energy_ref: f64,
) -> Result<TimerReport> {
    let timers = TimerRegistry::new();
    let mut at = *cursor;

    let watched = !observers.is_empty();
    let needs = observers.needs();

    if watched {
        let dt = at.dt_prev.unwrap_or(0.0);
        let view = step_view(team, needs, at.steps, at.t, dt, mesh, state, range)?;
        observers.each(|o| o.run_begin(&view));
    }

    while !at.done(config) {
        let proposal = timers.time(KernelId::GetDt, || {
            getdt(
                mesh,
                state,
                range,
                &config.dt,
                at.dt_prev,
                config.lag.threading,
            )
        })?;
        // Wall-clock deadline: expiry is rank-local knowledge (clocks
        // are not synchronized), so the rank that notices proposes a
        // negative dt through the reduction every rank already
        // performs — the whole team sees the same negative verdict and
        // aborts together, no extra collective. A hydro dt is always
        // positive, so a negative proposal is unambiguous.
        let mut local_dt = proposal.dt;
        if let Some(deadline) = config.deadline {
            if std::time::Instant::now() >= deadline {
                local_dt = -1.0;
            }
        }
        let mut dt = timers.time(KernelId::Comms, || team.begin_step(at.steps, local_dt))?;
        if dt < 0.0 {
            return Err(BookLeafError::DeadlineExceeded { step: at.steps });
        }
        dt = dt.min(config.final_time - at.t);

        lagstep_timed(
            mesh,
            materials,
            state,
            range,
            dt,
            &config.lag,
            team,
            &timers,
        )?;

        if let (Some(remapper), true) = (remapper, config.ale.is_some()) {
            if remapper.due(at.steps) {
                // The post-remap exchange is posted and completed inside
                // the remap itself, around its deferred sweep, so its
                // cost lands in the ALE bucket; the wait that could not
                // be hidden is in CommStats either way. The remap
                // rewrote ρ and ε (the exchange has delivered the
                // ghosts'), so the ALE step closes the way LAGSTEP does,
                // with GETPC: pressure and sound speed are functions of
                // (ρ, ε) at every step boundary — the state a restart
                // re-derives.
                timers.time(KernelId::Ale, || -> Result<()> {
                    let threading = config.lag.threading;
                    remapper.step_with(mesh, state, range, threading, team)?;
                    let whole = LocalRange::whole(mesh);
                    getpc(mesh, materials, state, whole, config.lag.threading);
                    Ok(())
                })?;
            }
        }

        at.t += dt;
        at.dt_prev = Some(dt);
        at.steps += 1;

        // Health sweep: gated purely by the team-shared config, so every
        // rank reduces (or skips) together.
        if config.sentinel.on {
            sentinel_check(team, config, energy_ref, at.steps - 1, mesh, state, range)?;
        }

        if watched {
            let view = step_view(team, needs, at.steps - 1, at.t, dt, mesh, state, range)?;
            observers.each(|o| o.step_end(&view));
        }
    }
    *cursor = at;

    if watched {
        let dt = at.dt_prev.unwrap_or(0.0);
        let view = step_view(team, needs, at.steps, at.t, dt, mesh, state, range)?;
        observers.each(|o| o.run_end(&view));
    }
    Ok(timers.report())
}

// ---------------------------------------------------------------------------
// The health sentinel.

/// Health-word encoding: a diagnosis packed into an f64 so one
/// `allreduce_min` gives every rank the same verdict. Healthy is +∞;
/// any finite word decodes to the team's lexicographically smallest
/// `(kind, field, rank, index)` finding. The packed integer stays below
/// 2^52, well inside f64's exact range.
fn encode_health(kind: u64, field: HealthField, rank: usize, index: usize) -> f64 {
    debug_assert!(kind < 4 && rank < (1 << 14) && index < (1 << 32));
    let word = (kind << 50) | (field.code() << 46) | ((rank as u64) << 32) | index as u64;
    word as f64
}

/// Inverse of [`encode_health`]; `None` for the healthy word (+∞) or
/// anything malformed.
fn decode_health(word: f64) -> Option<HealthDiagnosis> {
    if !word.is_finite() || word < 0.0 {
        return None;
    }
    let w = word as u64;
    let field = HealthField::from_code((w >> 46) & 0xF)?;
    let rank = ((w >> 32) & 0x3FFF) as usize;
    let index = (w & 0xFFFF_FFFF) as usize;
    match w >> 50 {
        0 => Some(HealthDiagnosis::NonFinite { rank, field, index }),
        1 => Some(HealthDiagnosis::NonPositive { rank, field, index }),
        _ => None,
    }
}

/// Rank-local validity sweep: first finding in a fixed scan order
/// (deterministic), encoded; +∞ when healthy. Scans the owned elements
/// and the active nodes — ghosts mirror their owners, so scanning them
/// would only duplicate findings the min-reduction dedups anyway.
fn sentinel_sweep(state: &HydroState, range: LocalRange, rank: usize) -> f64 {
    for e in 0..range.n_owned_el {
        if !state.rho[e].is_finite() {
            return encode_health(0, HealthField::Rho, rank, e);
        }
        if !state.ein[e].is_finite() {
            return encode_health(0, HealthField::Ein, rank, e);
        }
        if !state.q[e].is_finite() {
            return encode_health(0, HealthField::Q, rank, e);
        }
        if state.mass[e] <= 0.0 || state.mass[e].is_nan() {
            return encode_health(1, HealthField::Mass, rank, e);
        }
        if state.volume[e] <= 0.0 || state.volume[e].is_nan() {
            return encode_health(1, HealthField::Volume, rank, e);
        }
    }
    for n in 0..range.n_active_nd {
        if !state.u[n].x.is_finite() || !state.u[n].y.is_finite() {
            return encode_health(0, HealthField::U, rank, n);
        }
    }
    f64::INFINITY
}

/// One sentinel firing: sweep, min-reduce the verdict, then (opt-in)
/// the conservation-drift check against `energy_ref`. `step` is the
/// 0-based index of the step whose results are being inspected.
fn sentinel_check<T: Team>(
    team: &T,
    config: &RunConfig,
    energy_ref: f64,
    step: usize,
    mesh: &Mesh,
    state: &HydroState,
    range: LocalRange,
) -> Result<()> {
    let verdict = team.reduce_min(sentinel_sweep(state, range, team.rank()))?;
    if let Some(diagnosis) = decode_health(verdict) {
        return Err(BookLeafError::Unhealthy { step, diagnosis });
    }
    if let Some(tol) = config.sentinel.drift_tol {
        let energy = team.reduce_sum(local_energy(mesh, state, range, team))?;
        if energy_ref != 0.0 {
            let drift = ((energy - energy_ref) / energy_ref).abs();
            if drift > tol {
                return Err(BookLeafError::Unhealthy {
                    step,
                    diagnosis: HealthDiagnosis::ConservationDrift { drift, tol },
                });
            }
        }
    }
    Ok(())
}

/// The view a hook gets, with the extras `needs` names: this rank's
/// comm counters, and the global energy. The energy reduction is
/// collective, so whether it runs depends only on the team-shared
/// observer needs and the hook point — never on anything rank-local —
/// and it is what makes this fallible: it can fail against a dead
/// rank.
#[allow(clippy::too_many_arguments)]
fn step_view<'a, T: Team>(
    team: &T,
    needs: ObserverNeeds,
    step: usize,
    time: f64,
    dt: f64,
    mesh: &'a Mesh,
    state: &'a HydroState,
    range: LocalRange,
) -> Result<StepView<'a>> {
    let global_energy = if needs.global_energy {
        Some(team.reduce_sum(local_energy(mesh, state, range, team))?)
    } else {
        None
    };
    Ok(StepView {
        step,
        time,
        dt,
        mesh,
        state,
        range,
        rank: team.rank(),
        n_ranks: team.n_ranks(),
        comm: needs.comm_stats.then(|| team.comm_stats()),
        global_energy,
    })
}

#[cfg(test)]
mod sentinel_tests {
    use super::*;
    use crate::config::SentinelConfig;
    use crate::decks;
    use crate::sim::Simulation;
    use bookleaf_hydro::LocalRange;
    use bookleaf_util::Vec2;

    #[test]
    fn health_words_round_trip_and_order() {
        for (kind, field, rank, index) in [
            (0u64, HealthField::Rho, 0usize, 0usize),
            (0, HealthField::U, 3, 17),
            (1, HealthField::Mass, 1, 999_999),
            (1, HealthField::Volume, 13, u32::MAX as usize),
        ] {
            let w = encode_health(kind, field, rank, index);
            assert!(w.is_finite());
            let d = decode_health(w).expect("decodable");
            match d {
                HealthDiagnosis::NonFinite {
                    rank: r,
                    field: f,
                    index: i,
                } => {
                    assert_eq!(kind, 0);
                    assert_eq!((r, f, i), (rank, field, index));
                }
                HealthDiagnosis::NonPositive {
                    rank: r,
                    field: f,
                    index: i,
                } => {
                    assert_eq!(kind, 1);
                    assert_eq!((r, f, i), (rank, field, index));
                }
                other => panic!("unexpected diagnosis {other:?}"),
            }
        }
        // Healthy word decodes to nothing, and every encoded word beats it
        // in a min-reduction.
        assert!(decode_health(f64::INFINITY).is_none());
        assert!(encode_health(1, HealthField::Volume, 0, 7) < f64::INFINITY);
        // NonFinite findings outrank NonPositive ones in the reduction
        // (smaller kind ⇒ smaller word), so the most alarming diagnosis
        // wins ties deterministically.
        assert!(
            encode_health(0, HealthField::U, 5, 1000) < encode_health(1, HealthField::Mass, 0, 0)
        );
    }

    #[test]
    fn sweep_finds_the_first_bad_entry_in_scan_order() {
        let deck = decks::sod(8, 2);
        let (mesh, materials) = (&deck.mesh, &deck.materials);
        let mut state = HydroState::new(
            mesh,
            materials,
            |e| deck.rho[e],
            |e| deck.ein[e],
            |n| deck.u[n],
        )
        .unwrap();
        let range = LocalRange::whole(&deck.mesh);
        assert_eq!(sentinel_sweep(&state, range, 0), f64::INFINITY);

        state.u[3] = Vec2::new(f64::NAN, 0.0);
        let d = decode_health(sentinel_sweep(&state, range, 2)).unwrap();
        assert_eq!(
            d,
            HealthDiagnosis::NonFinite {
                rank: 2,
                field: HealthField::U,
                index: 3
            }
        );

        // An element finding preempts the node finding (elements scan
        // first), and NaN rho at element 5 preempts bad mass at 6.
        state.mass[6] = 0.0;
        state.rho[5] = f64::NAN;
        let d = decode_health(sentinel_sweep(&state, range, 0)).unwrap();
        assert_eq!(
            d,
            HealthDiagnosis::NonFinite {
                rank: 0,
                field: HealthField::Rho,
                index: 5
            }
        );
    }

    #[test]
    fn drift_tolerance_aborts_when_set_impossibly_tight() {
        let deck = decks::sod(16, 2);
        let config = RunConfig {
            final_time: 0.05,
            sentinel: SentinelConfig {
                drift_tol: Some(0.0), // any rounding-level drift trips it
                ..SentinelConfig::default()
            },
            ..RunConfig::default()
        };
        let err = Simulation::builder()
            .deck(deck)
            .config(config)
            .build()
            .unwrap()
            .run()
            .unwrap_err();
        match err {
            bookleaf_util::BookLeafError::Unhealthy {
                diagnosis: HealthDiagnosis::ConservationDrift { drift, tol },
                ..
            } => {
                assert!(drift > tol);
            }
            other => panic!("expected ConservationDrift, got {other:?}"),
        }
    }

    #[test]
    fn enabled_sentinel_is_bitwise_invisible_on_a_healthy_run() {
        let run = |sentinel: SentinelConfig| {
            let mut sim = Simulation::builder()
                .deck(decks::sod(20, 2))
                .final_time(0.01)
                .config(RunConfig {
                    final_time: 0.01,
                    sentinel,
                    ..RunConfig::default()
                })
                .build()
                .unwrap();
            sim.run().unwrap();
            sim.state().rho.clone()
        };
        let with = run(SentinelConfig {
            drift_tol: Some(1.0),
            ..SentinelConfig::default()
        });
        let without = run(SentinelConfig::disabled());
        for (e, (a, b)) in with.iter().zip(&without).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "sentinel moved a bit at {e}");
        }
    }
}
