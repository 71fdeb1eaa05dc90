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
use bookleaf_mesh::Mesh;
use bookleaf_util::{KernelId, Result, TimerRegistry, Vec2};

use crate::eos_fused::{eos_fused, EosStages, FusedEos};
use crate::getacc::{getacc, getacc_listed, getacc_subset, move_nodes, AccMode};
use crate::getein::WorkVelocity;
use crate::getforce::HourglassControl;
use crate::getq::QCoeffs;
use crate::state::{HydroState, LocalRange};
use crate::subset::Subset;
use crate::viscforce::{viscforce, viscforce_listed, ViscForce, SCRATCH};
use crate::Threading;

/// Communication hooks called at the paper's two exchange points (plus a
/// post-acceleration hook used by driven-boundary decks such as the
/// Saltzmann piston). Serial runs use [`NoComm`].
///
/// **Aggregation contract:** each hook is one *exchange phase*.
/// Distributed implementations must register every field a phase needs
/// up front and move the whole phase as a **single packed message per
/// neighbouring rank** (see `bookleaf_typhon::plan`), so the per-step
/// point-to-point message count is `phase executions × neighbour links`
/// — never `fields × links`. The cluster cost model charges per message
/// as well as per byte; a hook that sends one message per field inflates
/// the modeled (and real) wire time several-fold.
///
/// **Split (post/complete) protocol:** every exchange phase also comes
/// as a `*_post` / `*_complete` pair so the executor can overlap
/// communication with computation. `post` packs and sends the phase's
/// single message per neighbour immediately; `complete` receives and
/// unpacks it. Between a phase's `post` and its `complete` the caller
/// may compute anything that does not read a halo-received entity of
/// that phase — the **interior/boundary ordering invariant**:
///
/// 1. interior entities (no halo dependency, see
///    `bookleaf_mesh::OverlapSets`) are swept while the messages are in
///    flight — one pass over the full range that skips the boundary
///    entities;
/// 2. the phase is completed;
/// 3. boundary entities are swept with the refreshed halo — from their
///    id lists, visiting nothing else, so the split costs what the halo
///    costs.
///
/// Because interior sweeps touch no received value and boundary sweeps
/// run after the same unpack a blocking exchange would have done, the
/// split schedule is bitwise identical to the blocking one. A rank
/// without neighbour links has nothing to overlap and is simply given
/// the blocking schedule. A split
/// pair must move exactly the messages the blocking hook moves (the
/// message-count contract above applies per *pair*, not per call), and
/// posts must be issued in the same global order on every rank.
///
/// The default implementations keep legacy hooks correct without
/// opting into overlap: for the two Lagrangian phases `post` runs the
/// full blocking exchange and `complete` is a no-op (every send value
/// is final at post time); for `post_remap` — posted mid-remap, when
/// only the pre-post entities are final — `post` is the no-op and
/// `complete`, called after the full remap, runs the blocking exchange.
///
/// **Fallibility:** every hook returns a [`Result`] so that a
/// communication failure — a dead peer, a timed-out receive, a payload
/// that fails its checksum — aborts the step *at the exchange that saw
/// it*, as a typed error, instead of panicking or shipping garbage into
/// the next kernel. Serial hooks ([`NoComm`], piston drivers) simply
/// return `Ok(())`.
pub trait HaloOps {
    /// Called immediately before each viscosity calculation (twice per
    /// step: predictor and corrector): bring ghost node kinematics and
    /// ghost element thermodynamic state up to date.
    fn pre_viscosity(&mut self, _mesh: &mut Mesh, _state: &mut HydroState) -> Result<()> {
        Ok(())
    }
    /// Called immediately before the acceleration: bring ghost corner
    /// masses and forces up to date.
    fn pre_acceleration(&mut self, _state: &mut HydroState) -> Result<()> {
        Ok(())
    }
    /// Called immediately after the acceleration: impose driven
    /// kinematics (piston walls) on `u`/`ubar`.
    fn post_acceleration(&mut self, _mesh: &Mesh, _state: &mut HydroState) -> Result<()> {
        Ok(())
    }
    /// Called after an ALE remap: refresh ghost copies of everything the
    /// remap rewrote (masses, state, node kinematics).
    fn post_remap(&mut self, _mesh: &mut Mesh, _state: &mut HydroState) -> Result<()> {
        Ok(())
    }

    /// Split form of [`HaloOps::pre_viscosity`]: pack and send without
    /// waiting for the peers' payloads.
    fn pre_viscosity_post(&mut self, mesh: &mut Mesh, state: &mut HydroState) -> Result<()> {
        self.pre_viscosity(mesh, state)
    }
    /// Drain and unpack the exchange posted by
    /// [`HaloOps::pre_viscosity_post`]; must run before any boundary
    /// entity of the phase is read.
    fn pre_viscosity_complete(&mut self, _mesh: &mut Mesh, _state: &mut HydroState) -> Result<()> {
        Ok(())
    }

    /// Split form of [`HaloOps::pre_acceleration`]: pack and send
    /// without waiting.
    fn pre_acceleration_post(&mut self, state: &mut HydroState) -> Result<()> {
        self.pre_acceleration(state)
    }
    /// Drain the exchange posted by [`HaloOps::pre_acceleration_post`].
    fn pre_acceleration_complete(&mut self, _state: &mut HydroState) -> Result<()> {
        Ok(())
    }

    /// Split form of [`HaloOps::post_remap`], called as soon as every
    /// entity the pack reads (the remap pre-post sets) has been
    /// remapped — *before* the rest of the remap runs.
    fn post_remap_post(&mut self, _mesh: &mut Mesh, _state: &mut HydroState) -> Result<()> {
        Ok(())
    }
    /// Drain the exchange posted by [`HaloOps::post_remap_post`], after
    /// the full remap. The default runs the blocking exchange here, so
    /// implementations that only provide [`HaloOps::post_remap`] stay
    /// correct under the overlapped remap.
    fn post_remap_complete(&mut self, mesh: &mut Mesh, state: &mut HydroState) -> Result<()> {
        self.post_remap(mesh, state)
    }
}

/// The interior/boundary classification steering the overlapped
/// Lagrangian step: each boundary set as a mask (what the interior pass
/// skips) and as the ascending list of its `true` positions (all the
/// boundary pass visits). Views into `bookleaf_mesh::OverlapSets` (or
/// anything upholding the same guarantees — see the [`HaloOps`]
/// ordering invariant).
#[derive(Debug, Clone, Copy)]
pub struct KernelSplit<'a> {
    /// Per owned element: `true` ⇒ the viscosity-phase stencil touches
    /// a halo-received entity (swept only after the exchange completes).
    pub el_boundary: &'a [bool],
    /// Per active node: `true` ⇒ adjacent to a ghost element (swept
    /// only after the corner exchange completes).
    pub nd_boundary: &'a [bool],
    /// The boundary elements.
    pub el_boundary_ids: &'a [u32],
    /// The cell-velocity entries the boundary elements read: themselves
    /// and their face neighbours.
    pub boundary_cells: &'a [u32],
    /// The boundary nodes.
    pub nd_boundary_ids: &'a [u32],
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

/// Advance `state` by one Lagrangian step of size `dt`.
///
/// Equivalent to [`lagstep_timed`] with a throwaway timer registry.
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
        None,
    )
}

/// Advance `state` by one Lagrangian step, recording per-kernel wall
/// time into `timers` (the buckets of the paper's Table II).
///
/// With `split` set, each exchange phase is overlapped with the kernels
/// it feeds: the phase is *posted*, interior entities are swept while
/// the messages are in flight, the phase is *completed*, and the listed
/// boundary entities are swept last — bitwise identical to the blocking
/// schedule (see the [`HaloOps`] ordering invariant).
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
    split: Option<KernelSplit<'_>>,
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
        mesh, materials, state, range, dt, opts, halo, timers, split, &x0, &ein0,
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
    split: Option<KernelSplit<'_>>,
    x0: &[Vec2],
    ein0: &[f64],
) -> Result<()> {
    let th = opts.threading;

    // Viscosity and forces are one fused sweep behind the pre_viscosity
    // exchange. Overlapped, the interior elements are swept while the
    // messages are in flight and the listed boundary elements after the
    // exchange completes (the force stencil is contained in the
    // viscosity stencil, so the viscosity-phase sets serve both).
    let sweep = ViscForce {
        q: opts.q,
        hourglass: opts.hourglass,
        dt,
    };
    let q_and_force = |mesh: &mut Mesh, state: &mut HydroState, halo: &mut H| -> Result<()> {
        match split {
            None => {
                timers.time(KernelId::Comms, || halo.pre_viscosity(mesh, state))?;
                timers.time(KernelId::ViscForce, || {
                    viscforce(mesh, state, range, sweep, th, Subset::All);
                });
            }
            Some(s) => {
                timers.time(KernelId::Comms, || halo.pre_viscosity_post(mesh, state))?;
                timers.time(KernelId::ViscForce, || {
                    let interior = Subset::Mask {
                        mask: s.el_boundary,
                        keep: false,
                    };
                    viscforce(mesh, state, range, sweep, th, interior);
                });
                timers.time(KernelId::Comms, || halo.pre_viscosity_complete(mesh, state))?;
                timers.time(KernelId::ViscForce, || {
                    let (ids, cells) = (s.el_boundary_ids, s.boundary_cells);
                    viscforce_listed(mesh, state, range, sweep, th, ids, cells);
                });
            }
        }
        Ok(())
    };

    // ---- Predictor: advance thermodynamic state to t + dt/2 ----
    q_and_force(mesh, state, halo)?;
    // Move nodes a half step with the start-of-step velocity.
    state.ubar[..range.n_active_nd].copy_from_slice(&state.u[..range.n_active_nd]);
    move_nodes(mesh, state, range, 0.5 * dt);
    // The EOS chain (`getgeom → getrho → getein → getpc`) runs as one
    // fused sweep, bitwise identical to the four standalone kernels.
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
    match split {
        None => {
            timers.time(KernelId::Comms, || halo.pre_acceleration(state))?;
            timers.time(KernelId::GetAcc, || {
                getacc(mesh, state, range, dt, opts.acc_mode);
                halo.post_acceleration(mesh, state)
            })?;
        }
        Some(s) => {
            // Post the corner exchange, gather the interior nodes while
            // the ghost corners travel, complete, then the boundary
            // nodes. The piston runs after both sweeps, as always.
            timers.time(KernelId::Comms, || halo.pre_acceleration_post(state))?;
            timers.time(KernelId::GetAcc, || {
                getacc_subset(
                    mesh,
                    state,
                    range,
                    dt,
                    opts.acc_mode,
                    Subset::Mask {
                        mask: s.nd_boundary,
                        keep: false,
                    },
                );
            });
            timers.time(KernelId::Comms, || halo.pre_acceleration_complete(state))?;
            timers.time(KernelId::GetAcc, || {
                getacc_listed(mesh, state, range, dt, opts.acc_mode, s.nd_boundary_ids);
                halo.post_acceleration(mesh, state)
            })?;
        }
    }
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
        let ke = st.kinetic_energy(&mesh, range);
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
