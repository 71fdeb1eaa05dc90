//! The Lagrangian step: predictor–corrector composition of the kernels.
//!
//! Algorithm 1 of the paper:
//!
//! ```text
//! Predictor:  GETQ GETFORCE GETGEOM GETRHO GETEIN GETPC   (to t + dt/2)
//! Corrector:  GETQ GETFORCE GETACC GETGEOM GETRHO GETEIN GETPC (to t + dt)
//! ```
//!
//! A first-order forward-Euler half step (predictor) time-centres the
//! state; the corrector then advances the full step with second-order
//! accuracy. Halo exchanges happen at exactly the points the paper names:
//! *immediately before the viscosity calculation* and *immediately before
//! calculating the acceleration* — injected here through the [`HaloOps`]
//! hooks so the same kernel code serves serial and distributed runs.

use bookleaf_eos::MaterialTable;
use bookleaf_mesh::{Mesh, OverlapSets};
use bookleaf_util::{KernelId, Result, TimerRegistry, Vec2};

use crate::eos_fused::{eos_fused, EosStages, FusedEos};
use crate::getacc::{getacc_pass, move_nodes, AccMode};
use crate::getein::WorkVelocity;
use crate::getforce::HourglassControl;
use crate::getq::QCoeffs;
use crate::state::{HydroState, LocalRange};
use crate::sweep::Pass;
use crate::viscforce::{viscforce, ViscForce, SCRATCH};
use crate::Threading;

/// A halo exchange phase: the paper's two exchange points of the
/// Lagrangian step, and the refresh after an ALE remap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Immediately before each viscosity calculation (twice per step:
    /// predictor and corrector): ghost node kinematics and ghost
    /// element thermodynamic state.
    PreViscosity,
    /// Immediately before the acceleration: ghost corner masses and
    /// forces.
    PreAcceleration,
    /// After an ALE remap: ghost copies of everything the remap rewrote
    /// (masses, state, node kinematics).
    PostRemap,
}

impl Phase {
    /// Every phase, in declaration (= `as usize`) order.
    pub const ALL: [Phase; 3] = [
        Phase::PreViscosity,
        Phase::PreAcceleration,
        Phase::PostRemap,
    ];

    /// The name the phase's traffic is accounted under.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::PreViscosity => "pre_viscosity",
            Phase::PreAcceleration => "pre_acceleration",
            Phase::PostRemap => "post_remap",
        }
    }
}

/// Communication hooks: the halo exchange phases, plus a
/// post-acceleration hook used by driven-boundary decks such as the
/// Saltzmann piston. Serial runs use [`NoComm`].
///
/// **One protocol: post, then complete.** Every [`Phase`] is a
/// [`post`](HaloOps::post) — pack and send, as soon as every value the
/// phase sends is final — and a [`complete`](HaloOps::complete) —
/// receive and unpack. The callers run one schedule, whatever the
/// implementation does behind it:
///
/// ```text
/// Lagrangian phase:  post; sweep(Except(boundary)); complete; sweep(Only(boundary))
/// remap:             sweep(Only(pre)); post; sweep(Except(pre)); complete
/// ```
///
/// with the id lists of [`boundary`](HaloOps::boundary). Between a phase's
/// `post` and its `complete` only entities that read no halo-received
/// value of the phase are swept (the interior), the rest (the boundary,
/// from its list, at the cost of the list) after the unpack — so the
/// schedule is bitwise the blocking one. *Blocking* is an
/// implementation that exchanges in full inside one of the two calls
/// and does nothing in the other — inside `post` for a Lagrangian phase
/// (every send value is final by then), inside `complete` for
/// `PostRemap` (posted mid-remap, when only the pre-post entities are
/// final) — and answers `boundary` with empty lists: the first sweep is
/// then the whole range and the second a no-op. Serial runs, ranks
/// without neighbours and `overlap = false` all run exactly that. The
/// lists come from the implementation that exchanges, so a schedule can
/// never run against another halo's lists.
///
/// **Aggregation contract:** a phase moves every field it needs as a
/// **single packed message per neighbouring rank** (see
/// `bookleaf_typhon::plan`), so the per-step point-to-point message
/// count is `phase executions × neighbour links` — never
/// `fields × links` — and the same whether the implementation blocks or
/// overlaps. Posts are issued in the same global order on every rank.
///
/// **Fallibility:** every hook returns a [`Result`] so that a
/// communication failure — a dead peer, a timed-out receive, a payload
/// that fails its checksum — aborts the step *at the exchange that saw
/// it*, as a typed error, instead of panicking or shipping garbage into
/// the next kernel. Serial hooks ([`NoComm`], piston drivers) simply
/// return `Ok(())`.
pub trait HaloOps {
    /// Pack and send `phase`.
    fn post(&mut self, _phase: Phase, _mesh: &mut Mesh, _state: &mut HydroState) -> Result<()> {
        Ok(())
    }
    /// Receive and unpack `phase`; runs before any boundary entity of
    /// the phase is read.
    fn complete(&mut self, _phase: Phase, _mesh: &mut Mesh, _state: &mut HydroState) -> Result<()> {
        Ok(())
    }
    /// Called immediately after the acceleration: impose driven
    /// kinematics (piston walls) on `u`/`ubar`.
    fn post_acceleration(&mut self, _mesh: &Mesh, _state: &mut HydroState) -> Result<()> {
        Ok(())
    }
    /// The entities a sweep between a phase's `post` and its `complete`
    /// must leave for after the `complete`: none, unless the
    /// implementation overlaps its exchanges with computation.
    fn boundary(&self) -> &OverlapSets {
        OverlapSets::NONE
    }
}

/// No-op hooks for serial (single-rank) runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoComm;
impl HaloOps for NoComm {}

/// Per-step options for the Lagrangian step.
#[derive(Debug, Clone, Copy, Default)]
pub struct LagOptions {
    /// Threading of the trivially parallel kernels.
    pub threading: Threading,
    /// Accumulation mode of the acceleration kernel.
    pub acc_mode: AccMode,
    /// Artificial viscosity coefficients.
    pub q: QCoeffs,
    /// Hourglass control coefficients.
    pub hourglass: HourglassControl,
}

/// Advance `state` by one Lagrangian step of size `dt` (see
/// [`lagstep_timed`]), keeping no timings.
pub fn lagstep<H: HaloOps>(
    mesh: &mut Mesh,
    materials: &MaterialTable,
    state: &mut HydroState,
    range: LocalRange,
    dt: f64,
    opts: &LagOptions,
    halo: &mut H,
) -> Result<()> {
    lagstep_timed(
        mesh,
        materials,
        state,
        range,
        dt,
        opts,
        halo,
        &TimerRegistry::new(),
    )
}

/// Advance `state` by one Lagrangian step, recording per-kernel wall
/// time into `timers` (the buckets of the paper's Table II).
///
/// Each exchange phase runs the [`HaloOps`] schedule around the kernel
/// it feeds, with `halo.boundary()` naming the boundary entities: the
/// phase is *posted*, the other entities are swept (while the messages
/// are in flight, if `halo` overlaps), the phase is *completed*, and
/// the listed boundary entities are swept last.
#[allow(clippy::too_many_arguments)]
pub fn lagstep_timed<H: HaloOps>(
    mesh: &mut Mesh,
    materials: &MaterialTable,
    state: &mut HydroState,
    range: LocalRange,
    dt: f64,
    opts: &LagOptions,
    halo: &mut H,
    timers: &TimerRegistry,
) -> Result<()> {
    // Start-of-step node positions and internal energy: the corrector
    // advances both from t^n (the predictor's half-step values only feed
    // the corrector's *forces*), which is what makes the scheme
    // second-order and exactly energy-conserving. The buffers are taken
    // out of the thread's scratch for the step (the sweeps inside borrow
    // the rest of it) and handed back afterwards, so a steady-state step
    // allocates nothing.
    let (mut x0, mut ein0) = SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        (
            std::mem::take(&mut scratch.x0),
            std::mem::take(&mut scratch.ein0),
        )
    });
    x0.clear();
    x0.extend_from_slice(&mesh.nodes[..range.n_active_nd]);
    ein0.clear();
    ein0.extend_from_slice(&state.ein[..range.n_owned_el]);
    let result = step(
        mesh, materials, state, range, dt, opts, halo, timers, &x0, &ein0,
    );
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        scratch.x0 = x0;
        scratch.ein0 = ein0;
    });
    result
}

/// The body of [`lagstep_timed`], given the saved start-of-step node
/// positions `x0` and internal energies `ein0`.
#[allow(clippy::too_many_arguments)]
fn step<H: HaloOps>(
    mesh: &mut Mesh,
    materials: &MaterialTable,
    state: &mut HydroState,
    range: LocalRange,
    dt: f64,
    opts: &LagOptions,
    halo: &mut H,
    timers: &TimerRegistry,
    x0: &[Vec2],
    ein0: &[f64],
) -> Result<()> {
    let th = opts.threading;

    // Viscosity and forces are one fused sweep behind the pre-viscosity
    // exchange (the force stencil is contained in the viscosity
    // stencil, so the one boundary list serves both).
    let visc = ViscForce {
        q: opts.q,
        hourglass: opts.hourglass,
        dt,
    };
    let q_and_force = |mesh: &mut Mesh, state: &mut HydroState, halo: &mut H| -> Result<()> {
        let phase = Phase::PreViscosity;
        timers.time(KernelId::Comms, || halo.post(phase, mesh, state))?;
        timers.time(KernelId::ViscForce, || {
            let interior = Pass::Except(&halo.boundary().el_boundary_ids);
            viscforce(mesh, state, range, visc, th, interior, Pass::All);
        });
        timers.time(KernelId::Comms, || halo.complete(phase, mesh, state))?;
        timers.time(KernelId::ViscForce, || {
            let sets = halo.boundary();
            let boundary = Pass::Only(&sets.el_boundary_ids);
            let cells = Pass::Only(&sets.boundary_cells);
            viscforce(mesh, state, range, visc, th, boundary, cells);
        });
        Ok(())
    };

    // ---- Predictor: advance thermodynamic state to t + dt/2 ----
    q_and_force(mesh, state, halo)?;
    // Move nodes a half step with the start-of-step velocity.
    state.ubar[..range.n_active_nd].copy_from_slice(&state.u[..range.n_active_nd]);
    move_nodes(mesh, state, range, 0.5 * dt);
    // The EOS chain (`getgeom → getrho → getein → getpc`) runs as one
    // fused sweep, bitwise identical to `reference::eos_chain_reference`.
    timers.time(KernelId::EosFused, || {
        eos_fused(
            mesh,
            materials,
            state,
            range,
            FusedEos {
                dt: 0.5 * dt,
                which: WorkVelocity::Current,
                ein_from: None,
                stages: EosStages::all(),
            },
            th,
        )
    })?;

    // ---- Corrector: full step with time-centred quantities ----
    q_and_force(mesh, state, halo)?;
    // The nodes whose whole adjacency is owned are gathered while the
    // ghost corners travel, the boundary nodes once they have arrived.
    // The piston runs after both sweeps.
    let phase = Phase::PreAcceleration;
    timers.time(KernelId::Comms, || halo.post(phase, mesh, state))?;
    timers.time(KernelId::GetAcc, || {
        let interior = Pass::Except(&halo.boundary().nd_boundary_ids);
        getacc_pass(mesh, state, range, dt, opts.acc_mode, interior);
    });
    timers.time(KernelId::Comms, || halo.complete(phase, mesh, state))?;
    timers.time(KernelId::GetAcc, || {
        let boundary = Pass::Only(&halo.boundary().nd_boundary_ids);
        getacc_pass(mesh, state, range, dt, opts.acc_mode, boundary);
        halo.post_acceleration(mesh, state)
    })?;
    // Re-move nodes from the start-of-step positions by dt·ubar.
    mesh.nodes[..range.n_active_nd].copy_from_slice(x0);
    move_nodes(mesh, state, range, dt);
    // The fused corrector integrates the energy straight from the saved
    // start-of-step buffer (`ein_from`) instead of restoring it first.
    timers.time(KernelId::EosFused, || {
        eos_fused(
            mesh,
            materials,
            state,
            range,
            FusedEos {
                dt,
                which: WorkVelocity::TimeCentred,
                ein_from: Some(ein0),
                stages: EosStages::all(),
            },
            th,
        )
    })?;

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_eos::EosSpec;
    use bookleaf_mesh::{generate_rect, RectSpec};
    use bookleaf_util::approx_eq;

    fn setup(n: usize) -> (Mesh, MaterialTable, HydroState) {
        let mesh = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let st = HydroState::new(&mesh, &mat, |_| 1.0, |_| 2.5, |_| Vec2::ZERO).unwrap();
        (mesh, mat, st)
    }

    #[test]
    fn quiescent_uniform_state_is_steady() {
        // Uniform pressure, zero velocity: nothing may change.
        let (mut mesh, mat, mut st) = setup(4);
        let range = LocalRange::whole(&mesh);
        let rho0 = st.rho.clone();
        let ein0 = st.ein.clone();
        let x0 = mesh.nodes.clone();
        for _ in 0..5 {
            lagstep(
                &mut mesh,
                &mat,
                &mut st,
                range,
                1e-3,
                &LagOptions::default(),
                &mut NoComm,
            )
            .unwrap();
        }
        for e in 0..st.n_elements() {
            assert!(approx_eq(st.rho[e], rho0[e], 1e-12));
            assert!(approx_eq(st.ein[e], ein0[e], 1e-12));
        }
        for n in 0..mesh.n_nodes() {
            assert!(approx_eq(mesh.nodes[n].x, x0[n].x, 1e-12));
            assert!(st.u[n].norm() < 1e-14);
        }
    }

    #[test]
    fn total_energy_conserved_in_closed_box() {
        // A pressure blip in a reflecting box: total energy must be
        // conserved to round-off by the compatible discretisation.
        let (mut mesh, mat, _) = setup(8);
        let range = LocalRange::whole(&mesh);
        let mut st = HydroState::new(
            &mesh,
            &mat,
            |_| 1.0,
            |e| if e == 27 { 10.0 } else { 1.0 }, // hot cell near the middle
            |_| Vec2::ZERO,
        )
        .unwrap();
        let e_start = st.total_energy(&mesh, range);
        let opts = LagOptions::default();
        for _ in 0..50 {
            lagstep(&mut mesh, &mat, &mut st, range, 2e-3, &opts, &mut NoComm).unwrap();
        }
        let e_end = st.total_energy(&mesh, range);
        assert!(
            approx_eq(e_start, e_end, 1e-9),
            "energy drifted: {e_start} -> {e_end} (rel {})",
            ((e_end - e_start) / e_start).abs()
        );
        // And something actually happened.
        let ke = st.kinetic_energy_where(&mesh, range, |_| true);
        assert!(ke > 1e-6, "blast should produce motion, ke = {ke}");
    }

    #[test]
    fn mass_exactly_conserved() {
        let (mut mesh, mat, _) = setup(6);
        let range = LocalRange::whole(&mesh);
        let mut st = HydroState::new(
            &mesh,
            &mat,
            |e| if e % 3 == 0 { 2.0 } else { 1.0 },
            |e| 1.0 + 0.1 * (e % 5) as f64,
            |_| Vec2::ZERO,
        )
        .unwrap();
        let m0 = st.total_mass(range);
        for _ in 0..20 {
            lagstep(
                &mut mesh,
                &mat,
                &mut st,
                range,
                1e-3,
                &LagOptions::default(),
                &mut NoComm,
            )
            .unwrap();
        }
        // Lagrangian masses never change at all.
        assert_eq!(st.total_mass(range), m0);
        // But density/volume did evolve consistently: rho * V == mass.
        for e in 0..st.n_elements() {
            assert!(approx_eq(st.rho[e] * st.volume[e], st.mass[e], 1e-12));
        }
    }

    #[test]
    fn symmetric_blast_stays_symmetric() {
        // Energy spike dead centre of an odd grid: the solution must keep
        // the x/y mirror symmetry of the problem.
        let n = 7;
        let mesh0 = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let centre = (n / 2) * n + n / 2;
        let mut st = HydroState::new(
            &mesh0,
            &mat,
            |_| 1.0,
            |e| if e == centre { 20.0 } else { 0.1 },
            |_| Vec2::ZERO,
        )
        .unwrap();
        let mut mesh = mesh0;
        let range = LocalRange::whole(&mesh);
        for _ in 0..20 {
            lagstep(
                &mut mesh,
                &mat,
                &mut st,
                range,
                1e-3,
                &LagOptions::default(),
                &mut NoComm,
            )
            .unwrap();
        }
        // Mirror pairs across the vertical centre line.
        for row in 0..n {
            for col in 0..n / 2 {
                let e = row * n + col;
                let em = row * n + (n - 1 - col);
                assert!(
                    approx_eq(st.rho[e], st.rho[em], 1e-10),
                    "x-mirror broken at ({row},{col}): {} vs {}",
                    st.rho[e],
                    st.rho[em]
                );
            }
        }
        // Mirror pairs across the horizontal centre line.
        for row in 0..n / 2 {
            for col in 0..n {
                let e = row * n + col;
                let em = (n - 1 - row) * n + col;
                assert!(approx_eq(st.rho[e], st.rho[em], 1e-10), "y-mirror broken");
            }
        }
    }

    #[test]
    fn post_acceleration_hook_drives_piston() {
        struct Piston;
        impl HaloOps for Piston {
            fn post_acceleration(&mut self, mesh: &Mesh, state: &mut HydroState) -> Result<()> {
                for n in 0..mesh.n_nodes() {
                    if mesh.nodes[n].x < 1e-12 {
                        state.u[n] = Vec2::new(1.0, 0.0);
                        state.ubar[n] = Vec2::new(1.0, 0.0);
                    }
                }
                Ok(())
            }
        }
        let (mut mesh, mat, mut st) = setup(4);
        let range = LocalRange::whole(&mesh);
        let m0 = st.total_mass(range);
        lagstep(
            &mut mesh,
            &mat,
            &mut st,
            range,
            1e-2,
            &LagOptions::default(),
            &mut Piston,
        )
        .unwrap();
        // Left wall moved right by dt * 1.
        let left_x = mesh.nodes[0].x;
        assert!(approx_eq(left_x, 1e-2, 1e-12), "piston wall at {left_x}");
        // Compression: total volume shrank, densities near piston rose.
        assert!(st.rho[0] > 1.0);
        assert_eq!(st.total_mass(range), m0);
    }

    #[test]
    fn threaded_step_matches_serial() {
        let (mut mesh_a, mat, _) = setup(6);
        let mut mesh_b = mesh_a.clone();
        let range = LocalRange::whole(&mesh_a);
        let mk = |mesh: &Mesh| {
            HydroState::new(
                mesh,
                &mat,
                |e| 1.0 + 0.05 * (e % 4) as f64,
                |e| 1.0 + 0.2 * (e % 3) as f64,
                |_| Vec2::ZERO,
            )
            .unwrap()
        };
        let mut a = mk(&mesh_a);
        let mut b = mk(&mesh_b);
        let serial = LagOptions::default();
        let threaded = LagOptions {
            threading: Threading::Rayon,
            acc_mode: AccMode::GatherParallel,
            ..LagOptions::default()
        };
        for _ in 0..5 {
            lagstep(&mut mesh_a, &mat, &mut a, range, 1e-3, &serial, &mut NoComm).unwrap();
            lagstep(
                &mut mesh_b,
                &mat,
                &mut b,
                range,
                1e-3,
                &threaded,
                &mut NoComm,
            )
            .unwrap();
        }
        for e in 0..a.n_elements() {
            assert!(approx_eq(a.rho[e], b.rho[e], 1e-12));
            assert!(approx_eq(a.ein[e], b.ein[e], 1e-12));
        }
    }
}
