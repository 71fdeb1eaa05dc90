//! Typhon-backed halo operations and the piston hook.
//!
//! [`TyphonHalo`] implements [`bookleaf_hydro::HaloOps`] over a
//! [`bookleaf_typhon::HaloPlan`]: each hook is one registered exchange
//! *phase*, and every field a phase needs travels in a **single packed
//! message per neighbouring rank** (the reference Typhon's aggregated
//! quantity registration — see `bookleaf_typhon::plan`):
//!
//! * **`pre_viscosity`** — node kinematics (positions and velocities)
//!   plus ghost element thermodynamic state (ρ, e, p, c²): six fields,
//!   one message per neighbour;
//! * **`pre_acceleration`** — ghost corner masses and corner forces, so
//!   every rank can close the nodal gather for its nodes. Corner forces
//!   travel as `CornerVec2` wire entries packed straight from the SoA
//!   component rows (`FieldMut::CornerPair`) — no scratch arrays, and
//!   the bytes on the wire are identical to the interleaved layout's;
//! * **`post_remap`** — everything an ALE remap rewrites (masses, state,
//!   volumes, corner masses, node kinematics): seven fields, one
//!   message per neighbour.
//!
//! Resuming moves no messages: the restart state is global, so a rank
//! reads its ghosts' values where it reads its own (`Snapshot::install`).
//!
//! Per-phase message and volume counts land in the rank's
//! [`bookleaf_typhon::CommStats`] breakdown under the phase names above.
//!
//! [`LocalPiston`] (and the piston part of `TyphonHalo`) imposes the
//! Saltzmann driven wall after each acceleration.

use bookleaf_hydro::{HaloOps, HydroState};
use bookleaf_mesh::{Mesh, SubMesh};
use bookleaf_typhon::{
    Entity, FieldMut, HaloPlan, HaloPlanBuilder, PendingPhase, PhaseId, RankCtx, SlotKind,
};
use bookleaf_util::{Result, Vec2};

/// Node-local piston description (local node ids).
#[derive(Debug, Clone, Default)]
pub struct LocalPiston {
    /// Local node indices of the driven wall.
    pub nodes: Vec<u32>,
    /// Imposed velocity.
    pub velocity: Vec2,
}

impl LocalPiston {
    /// Apply the piston to `u` and `ubar`.
    pub fn apply(&self, state: &mut HydroState) {
        for &n in &self.nodes {
            state.u[n as usize] = self.velocity;
            state.ubar[n as usize] = self.velocity;
        }
    }
}

/// Serial hooks: no communication, optional piston.
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

/// Distributed hooks: phase-aggregated Typhon exchanges plus optional
/// piston. Every phase also supports the split post/complete protocol
/// (see [`bookleaf_hydro::HaloOps`]); the in-flight tickets live here
/// so a posted phase is completed exactly once.
pub struct TyphonHalo<'a> {
    ctx: &'a RankCtx,
    plan: HaloPlan,
    pre_visc: PhaseId,
    pre_acc: PhaseId,
    post_remap: PhaseId,
    pending_visc: Option<PendingPhase>,
    pending_acc: Option<PendingPhase>,
    pending_remap: Option<PendingPhase>,
    /// Piston with *local* node ids, if any land on this rank.
    pub piston: Option<LocalPiston>,
}

/// The `pre_viscosity` phase bindings, in registration order.
fn visc_fields<'s>(mesh: &'s mut Mesh, state: &'s mut HydroState) -> [FieldMut<'s>; 6] {
    [
        FieldMut::Vec2(&mut mesh.nodes),
        FieldMut::Vec2(&mut state.u),
        FieldMut::Scalar(&mut state.rho),
        FieldMut::Scalar(&mut state.ein),
        FieldMut::Scalar(&mut state.pressure),
        FieldMut::Scalar(&mut state.cs2),
    ]
}

/// The `pre_acceleration` phase bindings.
fn acc_fields(state: &mut HydroState) -> [FieldMut<'_>; 2] {
    [
        FieldMut::Corner4(&mut state.cnmass),
        FieldMut::CornerPair(&mut state.cnforce_x, &mut state.cnforce_y),
    ]
}

/// The `post_remap` phase bindings.
fn remap_fields<'s>(mesh: &'s mut Mesh, state: &'s mut HydroState) -> [FieldMut<'s>; 7] {
    [
        FieldMut::Vec2(&mut mesh.nodes),
        FieldMut::Vec2(&mut state.u),
        FieldMut::Scalar(&mut state.mass),
        FieldMut::Scalar(&mut state.rho),
        FieldMut::Scalar(&mut state.ein),
        FieldMut::Scalar(&mut state.volume),
        FieldMut::Corner4(&mut state.cnmass),
    ]
}

impl<'a> TyphonHalo<'a> {
    /// Build the rank's exchange plan from the submesh schedules and
    /// register the three standard phases.
    #[must_use]
    pub fn new(ctx: &'a RankCtx, sub: &SubMesh, piston: Option<LocalPiston>) -> Self {
        let mut b = HaloPlanBuilder::new(&sub.el_exchange, &sub.nd_exchange);
        let pre_visc = b.phase(
            "pre_viscosity",
            &[
                (Entity::Node, SlotKind::Vec2),      // mesh.nodes
                (Entity::Node, SlotKind::Vec2),      // u
                (Entity::Element, SlotKind::Scalar), // rho
                (Entity::Element, SlotKind::Scalar), // ein
                (Entity::Element, SlotKind::Scalar), // pressure
                (Entity::Element, SlotKind::Scalar), // cs2
            ],
        );
        let pre_acc = b.phase(
            "pre_acceleration",
            &[
                (Entity::Element, SlotKind::Corner4),    // cnmass
                (Entity::Element, SlotKind::CornerVec2), // cnforce
            ],
        );
        let post_remap = b.phase(
            "post_remap",
            &[
                (Entity::Node, SlotKind::Vec2),       // mesh.nodes
                (Entity::Node, SlotKind::Vec2),       // u
                (Entity::Element, SlotKind::Scalar),  // mass
                (Entity::Element, SlotKind::Scalar),  // rho
                (Entity::Element, SlotKind::Scalar),  // ein
                (Entity::Element, SlotKind::Scalar),  // volume
                (Entity::Element, SlotKind::Corner4), // cnmass
            ],
        );
        TyphonHalo {
            ctx,
            plan: b.build(),
            pre_visc,
            pre_acc,
            post_remap,
            pending_visc: None,
            pending_acc: None,
            pending_remap: None,
            piston,
        }
    }

    /// The rank's frozen exchange plan (for accounting and tests).
    #[must_use]
    pub fn plan(&self) -> &HaloPlan {
        &self.plan
    }
}

impl HaloOps for TyphonHalo<'_> {
    fn pre_viscosity(&mut self, mesh: &mut Mesh, state: &mut HydroState) -> Result<()> {
        self.plan
            .execute(self.ctx, self.pre_visc, &mut visc_fields(mesh, state))?;
        Ok(())
    }

    fn pre_acceleration(&mut self, state: &mut HydroState) -> Result<()> {
        self.plan
            .execute(self.ctx, self.pre_acc, &mut acc_fields(state))?;
        Ok(())
    }

    fn post_acceleration(&mut self, _mesh: &Mesh, state: &mut HydroState) -> Result<()> {
        if let Some(p) = &self.piston {
            p.apply(state);
        }
        Ok(())
    }

    fn post_remap(&mut self, mesh: &mut Mesh, state: &mut HydroState) -> Result<()> {
        self.plan
            .execute(self.ctx, self.post_remap, &mut remap_fields(mesh, state))?;
        Ok(())
    }

    fn pre_viscosity_post(&mut self, mesh: &mut Mesh, state: &mut HydroState) -> Result<()> {
        assert!(
            self.pending_visc.is_none(),
            "pre_viscosity posted twice without a complete"
        );
        self.pending_visc = Some(self.plan.post(
            self.ctx,
            self.pre_visc,
            &visc_fields(mesh, state),
        )?);
        Ok(())
    }

    fn pre_viscosity_complete(&mut self, mesh: &mut Mesh, state: &mut HydroState) -> Result<()> {
        let pending = self
            .pending_visc
            .take()
            .expect("pre_viscosity_complete without a post");
        self.plan
            .complete(self.ctx, pending, &mut visc_fields(mesh, state))?;
        Ok(())
    }

    fn pre_acceleration_post(&mut self, state: &mut HydroState) -> Result<()> {
        assert!(
            self.pending_acc.is_none(),
            "pre_acceleration posted twice without a complete"
        );
        self.pending_acc = Some(self.plan.post(self.ctx, self.pre_acc, &acc_fields(state))?);
        Ok(())
    }

    fn pre_acceleration_complete(&mut self, state: &mut HydroState) -> Result<()> {
        let pending = self
            .pending_acc
            .take()
            .expect("pre_acceleration_complete without a post");
        self.plan
            .complete(self.ctx, pending, &mut acc_fields(state))?;
        Ok(())
    }

    fn post_remap_post(&mut self, mesh: &mut Mesh, state: &mut HydroState) -> Result<()> {
        assert!(
            self.pending_remap.is_none(),
            "post_remap posted twice without a complete"
        );
        self.pending_remap = Some(self.plan.post(
            self.ctx,
            self.post_remap,
            &remap_fields(mesh, state),
        )?);
        Ok(())
    }

    fn post_remap_complete(&mut self, mesh: &mut Mesh, state: &mut HydroState) -> Result<()> {
        let pending = self
            .pending_remap
            .take()
            .expect("post_remap_complete without a post");
        self.plan
            .complete(self.ctx, pending, &mut remap_fields(mesh, state))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_eos::{EosSpec, MaterialTable};
    use bookleaf_mesh::{generate_rect, RectSpec, SubMeshPlan};
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

    /// Each hook sends exactly one message per neighbour link, and the
    /// corner-force exchange round-trips through the native CornerVec2
    /// packing (no scratch arrays, bit-exact values).
    #[test]
    fn hooks_are_one_message_per_neighbour_per_phase() {
        let m = generate_rect(&RectSpec::unit_square(6), |_| 0).unwrap();
        let owner: Vec<usize> = (0..m.n_elements())
            .map(|e| usize::from(e % 6 >= 3))
            .collect();
        let subs = SubMeshPlan::build(&m, &owner, 2).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let out = Typhon::run(2, |ctx| {
            let sub = &subs[ctx.rank()];
            let mut mesh = sub.mesh.clone();
            let mut st = HydroState::new(&mesh, &mat, |_| 1.0, |_| 1.0, |_| Vec2::ZERO).unwrap();
            // Distinctive owned corner forces; ghosts poisoned.
            for e in 0..mesh.n_elements() {
                let g = sub.el_l2g[e] as f64;
                for c in 0..4 {
                    let f = if sub.owns_element(e) {
                        Vec2::new(g + 0.1 * c as f64, -g - 0.1 * c as f64)
                    } else {
                        Vec2::new(f64::NAN, f64::NAN)
                    };
                    st.set_cnforce(e, c, f);
                }
            }
            let mut halo = TyphonHalo::new(ctx, sub, None);
            halo.pre_viscosity(&mut mesh, &mut st).unwrap();
            halo.pre_acceleration(&mut st).unwrap();
            halo.post_remap(&mut mesh, &mut st).unwrap();
            let forces_ok = (0..mesh.n_elements()).all(|e| {
                let g = sub.el_l2g[e] as f64;
                (0..4)
                    .all(|c| st.cnforce(e, c) == Vec2::new(g + 0.1 * c as f64, -g - 0.1 * c as f64))
            });
            (ctx.stats(), halo.plan().n_links(), forces_ok)
        })
        .unwrap();
        for (stats, n_links, forces_ok) in out {
            assert!(forces_ok, "corner forces corrupted by aggregated packing");
            // Three phases executed once each: 3 × links messages total.
            assert_eq!(stats.messages_sent, 3 * n_links as u64);
            for phase in ["pre_viscosity", "pre_acceleration", "post_remap"] {
                let p = stats.phase(phase).unwrap();
                assert_eq!(p.messages_sent, n_links as u64, "{phase}");
                assert!(p.doubles_sent > 0, "{phase} moved no data");
            }
        }
    }
}
