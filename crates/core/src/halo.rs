//! The team context: everything a step needs from the rest of the
//! team, behind one object.
//!
//! [`Team`] extends [`bookleaf_hydro::HaloOps`] (the halo phases, the
//! boundary lists their schedule runs against, the piston hook) with
//! what the run loop asks of the other ranks: who am I, the per-step
//! progress announcement and dt reduction, the min/sum collectives of
//! the sentinel and the observers, the comm counters, and which nodes
//! this rank counts in a global sum. It is implemented twice.
//! [`SerialHooks`] is a rank with nobody to talk to — every default, no
//! thread, no Typhon, no partition. [`TyphonHalo`] is a rank of a
//! Typhon team, over a [`bookleaf_typhon::HaloPlan`]: every field a
//! [`Phase`] needs travels in a **single packed message per
//! neighbouring rank** (the reference Typhon's aggregated exchange — see
//! `bookleaf_typhon::plan`). What a phase moves is written once, as the
//! field bindings of `with_fields`, and those bindings in their order
//! are the wire layout:
//!
//! * **`pre_viscosity`** — node kinematics (positions and velocities)
//!   plus ghost element thermodynamic state (ρ, e, p, c²): six fields,
//!   one message per neighbour;
//! * **`pre_acceleration`** — ghost corner masses and corner forces, so
//!   every rank can close the nodal gather for its nodes. Corner forces
//!   are packed straight from the SoA component rows
//!   (`FieldMut::CornerPair`, eight doubles per element: `x`, `y`
//!   interleaved corner by corner) — no staging copies;
//! * **`post_remap`** — everything an ALE remap rewrites (masses, state,
//!   volumes, corner masses, node kinematics): seven fields, one
//!   message per neighbour.
//!
//! The overlap toggle lives here and nowhere else: overlapping, `post`
//! sends and `complete` receives, and the kernels between them sweep
//! the interior its `boundary()` leaves (the submesh's
//! [`bookleaf_mesh::SubMesh::overlap_sets`]); blocking, a phase
//! exchanges in full inside one of the two calls and `boundary()` is
//! empty. The same messages move either way.
//!
//! Resuming moves no messages: the restart state is global, so a rank
//! reads its ghosts' values where it reads its own (`Snapshot::install`).
//!
//! Per-phase message and volume counts land in the rank's
//! [`bookleaf_typhon::CommStats`] breakdown under the phase names above.
//!
//! [`LocalPiston`] (and the piston part of `TyphonHalo`) imposes the
//! Saltzmann driven wall after each acceleration.

use std::collections::HashMap;

use bookleaf_hydro::{HaloOps, HydroState, Phase};
use bookleaf_mesh::{Mesh, OverlapSets};
use bookleaf_typhon::{Binding, CommStats, Entity, FieldMut, HaloPlan, PendingPhase, RankCtx};
use bookleaf_util::{Result, Vec2};

use crate::decks::Problem;

/// What the run loop needs from the rest of the team, on top of the
/// halo schedule. Every default is the answer of a team of one. The
/// loop calls the collectives at identical points on every rank (gated
/// only by the team-shared configuration, the observers' needs and the
/// step counter), which is what keeps them deadlock-free; they are
/// fallible because a collective can fail against a dead rank.
pub trait Team: HaloOps {
    /// This rank's id.
    fn rank(&self) -> usize {
        0
    }
    /// Team size.
    fn n_ranks(&self) -> usize {
        1
    }
    /// Announce that 0-based step `step` is about to execute — the one
    /// per-step point where a scheduled fault is armed and a scheduled
    /// rank death fires — and turn the local dt proposal into the
    /// team's: BookLeaf's single global reduction per step.
    fn begin_step(&mut self, _step: usize, dt: f64) -> Result<f64> {
        Ok(dt)
    }
    /// Global minimum.
    fn reduce_min(&self, value: f64) -> Result<f64> {
        Ok(value)
    }
    /// Global sum.
    fn reduce_sum(&self, value: f64) -> Result<f64> {
        Ok(value)
    }
    /// This rank's communication counters so far.
    fn comm_stats(&self) -> CommStats {
        CommStats::default()
    }
    /// Does this rank count active node `n` in a global sum?
    /// Partition-boundary nodes live on several ranks and are counted
    /// by exactly one.
    fn owns_node(&self, _n: usize) -> bool {
        true
    }
}

/// Node-local piston description (local node ids).
#[derive(Debug, Clone, Default)]
pub struct LocalPiston {
    /// Local node indices of the driven wall.
    pub nodes: Vec<u32>,
    /// Imposed velocity.
    pub velocity: Vec2,
}

impl LocalPiston {
    /// The problem's piston on a piece of its mesh whose local node `l` is
    /// global node `nd_l2g[l]` (`None`: the whole mesh). A piece none of
    /// the driven nodes land on gets an empty piston.
    #[must_use]
    pub fn of(problem: &Problem, nd_l2g: Option<&[u32]>) -> Option<LocalPiston> {
        let p = problem.piston.as_ref()?;
        let nodes = match nd_l2g {
            None => p.nodes.clone(),
            Some(l2g) => {
                let local: HashMap<u32, u32> = (0u32..).zip(l2g).map(|(l, &g)| (g, l)).collect();
                p.nodes
                    .iter()
                    .filter_map(|g| local.get(g).copied())
                    .collect()
            }
        };
        Some(LocalPiston {
            nodes,
            velocity: p.velocity,
        })
    }

    /// Apply the piston to `u` and `ubar`.
    fn apply(&self, state: &mut HydroState) {
        for &n in &self.nodes {
            state.u[n as usize] = self.velocity;
            state.ubar[n as usize] = self.velocity;
        }
    }
}

/// A team of one: no communication, optional piston.
#[derive(Debug, Default)]
pub struct SerialHooks {
    /// Piston, if the deck has one.
    pub piston: Option<LocalPiston>,
}

impl HaloOps for SerialHooks {
    fn post_acceleration(&mut self, _mesh: &Mesh, state: &mut HydroState) -> Result<()> {
        if let Some(p) = &self.piston {
            p.apply(state);
        }
        Ok(())
    }
}

impl Team for SerialHooks {}

/// One rank of a Typhon team: phase-aggregated exchanges, the team's
/// collectives, and the optional piston. The in-flight tickets live
/// here so a posted phase is completed exactly once.
pub struct TyphonHalo<'a> {
    ctx: &'a RankCtx,
    plan: HaloPlan,
    /// Overlap communication with computation? Never on a rank without
    /// neighbour links: nothing would be in flight to hide work behind.
    overlap: bool,
    /// The submesh's boundary lists when overlapping, empty otherwise.
    boundary: OverlapSets,
    /// Owner rank of each local node.
    nd_owner: Vec<u32>,
    /// Indexed by `Phase as usize`.
    pending: [Option<PendingPhase>; 3],
    /// Piston with *local* node ids, if any land on this rank.
    pub piston: Option<LocalPiston>,
}

/// Run `exchange` on `phase`'s field bindings: the one description of
/// what a phase moves, in wire order.
fn with_fields<R>(
    phase: Phase,
    mesh: &mut Mesh,
    state: &mut HydroState,
    exchange: impl FnOnce(&mut [Binding<'_>]) -> R,
) -> R {
    use Entity::{Element as El, Node as Nd};
    match phase {
        Phase::PreViscosity => exchange(&mut [
            (Nd, FieldMut::Vec2(&mut mesh.nodes)),
            (Nd, FieldMut::Vec2(&mut state.u)),
            (El, FieldMut::Scalar(&mut state.rho)),
            (El, FieldMut::Scalar(&mut state.ein)),
            (El, FieldMut::Scalar(&mut state.pressure)),
            (El, FieldMut::Scalar(&mut state.cs2)),
        ]),
        Phase::PreAcceleration => exchange(&mut [
            (El, FieldMut::Corner4(&mut state.cnmass)),
            (
                El,
                FieldMut::CornerPair(&mut state.cnforce_x, &mut state.cnforce_y),
            ),
        ]),
        Phase::PostRemap => exchange(&mut [
            (Nd, FieldMut::Vec2(&mut mesh.nodes)),
            (Nd, FieldMut::Vec2(&mut state.u)),
            (El, FieldMut::Scalar(&mut state.mass)),
            (El, FieldMut::Scalar(&mut state.rho)),
            (El, FieldMut::Scalar(&mut state.ein)),
            (El, FieldMut::Scalar(&mut state.volume)),
            (El, FieldMut::Corner4(&mut state.cnmass)),
        ]),
    }
}

impl<'a> TyphonHalo<'a> {
    /// A rank over its exchange `plan`, with its nodes' owner ranks.
    /// `boundary` (the submesh's overlap sets) asks for the split
    /// schedule, granted if the rank has a neighbour; `None` blocks.
    #[must_use]
    pub fn new(
        ctx: &'a RankCtx,
        plan: HaloPlan,
        nd_owner: Vec<u32>,
        boundary: Option<OverlapSets>,
        piston: Option<LocalPiston>,
    ) -> Self {
        let boundary = boundary.filter(|_| plan.n_links() > 0);
        TyphonHalo {
            ctx,
            overlap: boundary.is_some(),
            boundary: boundary.unwrap_or_default(),
            nd_owner,
            plan,
            pending: [None, None, None],
            piston,
        }
    }

    /// Pack and send `phase`, keeping the ticket.
    fn send(&mut self, phase: Phase, mesh: &mut Mesh, state: &mut HydroState) -> Result<()> {
        let slot = phase as usize;
        assert!(
            self.pending[slot].is_none(),
            "{} posted twice without a complete",
            phase.name()
        );
        let posted = with_fields(phase, mesh, state, |fields| {
            self.plan.post(self.ctx, phase.name(), fields)
        })?;
        self.pending[slot] = Some(posted);
        Ok(())
    }

    /// Receive and unpack the `phase` sent last.
    fn receive(&mut self, phase: Phase, mesh: &mut Mesh, state: &mut HydroState) -> Result<()> {
        let pending = self.pending[phase as usize]
            .take()
            .unwrap_or_else(|| panic!("{} completed without a post", phase.name()));
        with_fields(phase, mesh, state, |fields| {
            self.plan.complete(self.ctx, pending, fields)
        })?;
        Ok(())
    }
}

impl HaloOps for TyphonHalo<'_> {
    // Blocking, a phase exchanges in full inside the call by which
    // everything it sends is final: `post` for a Lagrangian phase,
    // `complete` for the remap's (posted mid-remap).
    fn post(&mut self, phase: Phase, mesh: &mut Mesh, state: &mut HydroState) -> Result<()> {
        if self.overlap {
            return self.send(phase, mesh, state);
        }
        if phase != Phase::PostRemap {
            self.send(phase, mesh, state)?;
            self.receive(phase, mesh, state)?;
        }
        Ok(())
    }

    fn complete(&mut self, phase: Phase, mesh: &mut Mesh, state: &mut HydroState) -> Result<()> {
        if self.overlap {
            return self.receive(phase, mesh, state);
        }
        if phase == Phase::PostRemap {
            self.send(phase, mesh, state)?;
            self.receive(phase, mesh, state)?;
        }
        Ok(())
    }

    fn post_acceleration(&mut self, _mesh: &Mesh, state: &mut HydroState) -> Result<()> {
        if let Some(p) = &self.piston {
            p.apply(state);
        }
        Ok(())
    }

    fn boundary(&self) -> &OverlapSets {
        &self.boundary
    }
}

impl Team for TyphonHalo<'_> {
    fn rank(&self) -> usize {
        self.ctx.rank()
    }
    fn n_ranks(&self) -> usize {
        self.ctx.n_ranks()
    }
    fn begin_step(&mut self, step: usize, dt: f64) -> Result<f64> {
        self.ctx.begin_step(step)?;
        Ok(self.ctx.allreduce_min(dt)?)
    }
    fn reduce_min(&self, value: f64) -> Result<f64> {
        Ok(self.ctx.allreduce_min(value)?)
    }
    fn reduce_sum(&self, value: f64) -> Result<f64> {
        Ok(self.ctx.allreduce_sum(value)?)
    }
    fn comm_stats(&self) -> CommStats {
        self.ctx.stats()
    }
    fn owns_node(&self, n: usize) -> bool {
        self.nd_owner[n] as usize == self.ctx.rank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_eos::{EosSpec, MaterialTable};
    use bookleaf_mesh::{generate_rect, RectSpec, SubMesh, SubMeshPlan};
    use bookleaf_typhon::Typhon;

    #[test]
    fn piston_overrides_velocity() {
        let mesh = generate_rect(&RectSpec::unit_square(2), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let mut st = HydroState::new(&mesh, &mat, |_| 1.0, |_| 1.0, |_| Vec2::ZERO).unwrap();
        let p = LocalPiston {
            nodes: vec![0, 3],
            velocity: Vec2::new(2.0, 0.0),
        };
        p.apply(&mut st);
        assert_eq!(st.u[0], Vec2::new(2.0, 0.0));
        assert_eq!(st.ubar[3], Vec2::new(2.0, 0.0));
        assert_eq!(st.u[1], Vec2::ZERO);
    }

    #[test]
    fn serial_hooks_apply_piston_post_acceleration() {
        let mesh = generate_rect(&RectSpec::unit_square(2), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let mut st = HydroState::new(&mesh, &mat, |_| 1.0, |_| 1.0, |_| Vec2::ZERO).unwrap();
        let mut hooks = SerialHooks {
            piston: Some(LocalPiston {
                nodes: vec![1],
                velocity: Vec2::new(-1.0, 0.0),
            }),
        };
        hooks.post_acceleration(&mesh, &mut st).unwrap();
        assert_eq!(st.u[1], Vec2::new(-1.0, 0.0));
    }

    fn two_stripes(n: usize) -> (Mesh, Vec<SubMesh>) {
        let m = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
        let owner: Vec<usize> = (0..m.n_elements())
            .map(|e| usize::from(e % n >= n / 2))
            .collect();
        let subs = SubMeshPlan::build(&m, &owner, 2).unwrap();
        (m, subs)
    }

    /// A halo over copies of `sub`'s lists, overlapping if asked.
    fn halo_of<'a>(ctx: &'a RankCtx, sub: &SubMesh, overlap: bool) -> TyphonHalo<'a> {
        let plan = HaloPlan::new(sub.el_exchange.clone(), sub.nd_exchange.clone());
        let boundary = overlap.then(|| sub.overlap_sets());
        TyphonHalo::new(ctx, plan, sub.nd_owner.clone(), boundary, None)
    }

    /// The lists a halo answers `boundary()` with are its own submesh's
    /// when it overlaps, and empty when it blocks — by request, or
    /// because the rank has no neighbour to hide work behind.
    #[test]
    fn boundary_is_the_submeshs_lists_only_when_overlapping() {
        let (m, subs) = two_stripes(6);
        Typhon::run(2, |ctx| {
            let sub = &subs[ctx.rank()];
            let overlapping = halo_of(ctx, sub, true);
            assert_eq!(*overlapping.boundary(), sub.overlap_sets());
            assert!(!overlapping.boundary().el_boundary_ids.is_empty());
            let blocking = halo_of(ctx, sub, false);
            assert_eq!(*blocking.boundary(), OverlapSets::default());
        })
        .unwrap();
        let alone = SubMeshPlan::build(&m, &vec![0; m.n_elements()], 1).unwrap();
        Typhon::run(1, |ctx| {
            let halo = halo_of(ctx, &alone[0], true);
            assert_eq!(*halo.boundary(), OverlapSets::default());
        })
        .unwrap();
        assert_eq!(*SerialHooks::default().boundary(), OverlapSets::default());
    }

    /// Each phase sends exactly one message per neighbour link, blocking
    /// or overlapping, and the corner forces round-trip bit-exact
    /// through the `CornerPair` packing of their SoA rows.
    #[test]
    fn phases_are_one_message_per_neighbour() {
        let (_, subs) = two_stripes(6);
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        for overlap in [false, true] {
            let out = Typhon::run(2, |ctx| {
                let sub = &subs[ctx.rank()];
                let mut mesh = sub.mesh.clone();
                let mut st =
                    HydroState::new(&mesh, &mat, |_| 1.0, |_| 1.0, |_| Vec2::ZERO).unwrap();
                // Distinctive owned corner forces; ghosts poisoned.
                for e in 0..mesh.n_elements() {
                    let g = sub.el_l2g[e] as f64;
                    for c in 0..4 {
                        let f = if sub.owns_element(e) {
                            Vec2::new(g + 0.1 * c as f64, -g - 0.1 * c as f64)
                        } else {
                            Vec2::new(f64::NAN, f64::NAN)
                        };
                        (st.cnforce_x[e][c], st.cnforce_y[e][c]) = (f.x, f.y);
                    }
                }
                let mut halo = halo_of(ctx, sub, overlap);
                for phase in Phase::ALL {
                    halo.post(phase, &mut mesh, &mut st).unwrap();
                    halo.complete(phase, &mut mesh, &mut st).unwrap();
                }
                let forces_ok = (0..mesh.n_elements()).all(|e| {
                    let g = sub.el_l2g[e] as f64;
                    (0..4).all(|c| {
                        Vec2::new(st.cnforce_x[e][c], st.cnforce_y[e][c])
                            == Vec2::new(g + 0.1 * c as f64, -g - 0.1 * c as f64)
                    })
                });
                (ctx.stats(), sub.neighbour_ranks().len(), forces_ok)
            })
            .unwrap();
            for (stats, n_links, forces_ok) in out {
                assert!(forces_ok, "corner forces corrupted by aggregated packing");
                // Three phases executed once each: 3 × links messages total.
                assert_eq!(stats.messages_sent, 3 * n_links as u64);
                for phase in Phase::ALL {
                    let p = stats.phase(phase.name()).unwrap();
                    assert_eq!(p.messages_sent, n_links as u64, "{phase:?}");
                    assert!(p.doubles_sent > 0, "{phase:?} moved no data");
                }
            }
        }
    }

    /// A Lagrangian step and a remap on their one schedule, through a
    /// blocking and through an overlapping `TyphonHalo`: 3 messages per
    /// link for the step and a 4th for the remap, the same doubles, and
    /// the same state to the bit.
    #[test]
    fn blocking_and_overlapping_move_identical_bytes() {
        use bookleaf_ale::{AleOptions, Remapper};
        use bookleaf_hydro::{lagstep_timed, LagOptions, LocalRange, Threading};
        use bookleaf_util::TimerRegistry;

        let (global, subs) = two_stripes(8);
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let run = |overlap: bool| {
            Typhon::run(2, |ctx| {
                let sub = &subs[ctx.rank()];
                let mut mesh = sub.mesh.clone();
                // A function of global ids: ghosts start as their owners do.
                let mut st = HydroState::new(
                    &mesh,
                    &mat,
                    |e| 1.0 + 0.1 * (sub.el_l2g[e] % 3) as f64,
                    |e| 2.0 + 0.5 * (sub.el_l2g[e] % 5) as f64,
                    |n| (Vec2::new(0.5, 0.5) - global.nodes[sub.nd_l2g[n] as usize]) * 0.2,
                )
                .unwrap();
                let range = LocalRange {
                    n_owned_el: sub.n_owned_el,
                    n_active_nd: sub.n_active_nd,
                };
                let remapper = Remapper::new(&mesh, AleOptions::default());
                let mut halo = halo_of(ctx, sub, overlap);
                let (opts, timers) = (LagOptions::default(), TimerRegistry::new());
                lagstep_timed(
                    &mut mesh, &mat, &mut st, range, 1e-3, &opts, &mut halo, &timers,
                )
                .unwrap();
                let step = ctx.stats();
                let th = Threading::Serial;
                remapper
                    .step_with(&mut mesh, &mut st, range, th, &mut halo)
                    .unwrap();
                let bits: Vec<u64> = (st.rho.iter().chain(&st.ein))
                    .chain(st.u.iter().chain(&mesh.nodes).flat_map(|v| [&v.x, &v.y]))
                    .map(|x| x.to_bits())
                    .collect();
                let links = sub.neighbour_ranks().len() as u64;
                (step, ctx.stats(), links, bits)
            })
            .unwrap()
        };
        let (blocking, overlapping) = (run(false), run(true));
        for (b, o) in blocking.iter().zip(&overlapping) {
            let (links, what) = (b.2, "blocking vs overlapping");
            for (step, with_remap, ..) in [b, o] {
                assert_eq!(step.messages_sent, 3 * links);
                assert_eq!(with_remap.messages_sent, 4 * links);
            }
            assert_eq!(b.0.doubles_sent, o.0.doubles_sent, "{what}: step doubles");
            assert_eq!(b.1.doubles_sent, o.1.doubles_sent, "{what}: remap doubles");
            for phase in Phase::ALL {
                let of = |s: &bookleaf_typhon::CommStats| {
                    let p = s.phase(phase.name()).unwrap();
                    (p.messages_sent, p.doubles_sent)
                };
                assert_eq!(of(&b.1), of(&o.1), "{what}: {phase:?}");
            }
            assert_eq!(b.3, o.3, "{what}: state bits");
        }
    }
}
