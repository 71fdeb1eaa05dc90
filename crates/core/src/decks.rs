//! Problem decks: the four standard test problems (paper §III-B) plus
//! the multi-material underwater deck, all expressed through the
//! generic scenario vocabulary of [`crate::scenario`].
//!
//! * **Sod's shock tube** — two gases at rest separated by a diaphragm;
//!   removing it launches a shock, contact and rarefaction. Tests basic
//!   shock hydrodynamics.
//! * **The Noh problem** — cold gas imploding radially onto the origin;
//!   an infinite-strength shock reflects outward. Exposes the
//!   wall-heating artefact of artificial-viscosity methods.
//! * **The Sedov problem** — a point blast on a Cartesian mesh, testing
//!   non-mesh-aligned shock propagation.
//! * **Saltzmann's piston** — a 1-D piston driven through a deliberately
//!   distorted mesh, designed to excite hourglass modes.
//! * **Underwater explosion** — a JWL product bubble in Tait water, the
//!   two-material configuration.
//!
//! Each named constructor below is a thin wrapper: it builds the
//! equivalent [`crate::scenario::GenericSpec`] (see
//! `scenario::sod_generic` and friends) and stamps the standard end
//! time and the named [`ProblemSpec`]. The wrappers are *bitwise*
//! equivalent to the pre-scenario hand-rolled constructors — pinned by
//! `tests/deck_generic_parity.rs` — so nothing downstream (checkpoint
//! fixtures, equivalence suites) moves.
//!
//! A [`Deck`] itself stays the fully *resolved* form: mesh, material
//! table, per-element/node initial fields, optional piston. A run keeps
//! only its [`Problem`] — the deck without the initial fields, which go
//! to whatever paints a state from them and no further. Text decks
//! (named or generic — the full grammar is in [`crate::input`]) resolve
//! to a `Deck` via [`from_str`] + `InputDeck::build_deck`.

use bookleaf_eos::MaterialTable;
use bookleaf_mesh::Mesh;
use bookleaf_util::{DeckError, Vec2};

use crate::scenario::{self, GenericSpec};

pub use crate::input::{InputDeck, ProblemSpec};

/// Parse a text input deck (see [`crate::input`] for the format).
pub fn from_str(text: &str) -> Result<InputDeck, DeckError> {
    text.parse()
}

/// Render an input deck in its canonical text form;
/// [`from_str`]`(`[`to_string`]`(d))` reproduces `d` exactly.
#[must_use]
pub fn to_string(deck: &InputDeck) -> String {
    deck.to_string()
}

/// Driven-wall (piston) specification.
#[derive(Debug, Clone, PartialEq)]
pub struct PistonSpec {
    /// Global ids of the driven nodes.
    pub nodes: Vec<u32>,
    /// Imposed velocity.
    pub velocity: Vec2,
}

/// A fully specified problem: mesh, materials, initial fields and any
/// driven boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Deck {
    /// Problem name (for reports).
    pub name: String,
    /// The initial mesh.
    pub mesh: Mesh,
    /// Region-indexed EoS table.
    pub materials: MaterialTable,
    /// Initial density per element.
    pub rho: Vec<f64>,
    /// Initial specific internal energy per element.
    pub ein: Vec<f64>,
    /// Initial velocity per node.
    pub u: Vec<Vec2>,
    /// Optional driven wall.
    pub piston: Option<PistonSpec>,
    /// The [`ProblemSpec`] this deck was constructed from, when it came
    /// from a standard constructor or a generic scenario build.
    /// Checkpointing needs it to embed a rebuildable description of the
    /// problem; hand-assembled decks carry `None` and cannot be
    /// checkpointed.
    pub spec: Option<ProblemSpec>,
}

impl Deck {
    /// Validate field-array lengths, the material table and the mesh,
    /// returning a typed [`DeckError`]. Every build path — the
    /// `Simulation` builder, text decks — routes through this.
    pub fn validate(&self) -> Result<(), DeckError> {
        let shape = |message: String| DeckError::Shape {
            deck: self.name.clone(),
            message,
        };
        if self.rho.len() != self.mesh.n_elements() || self.ein.len() != self.mesh.n_elements() {
            return Err(shape(format!(
                "element fields hold {} / {} entries but the mesh has {} elements",
                self.rho.len(),
                self.ein.len(),
                self.mesh.n_elements()
            )));
        }
        if self.u.len() != self.mesh.n_nodes() {
            return Err(shape(format!(
                "node velocity field holds {} entries but the mesh has {} nodes",
                self.u.len(),
                self.mesh.n_nodes()
            )));
        }
        let invalid = |source| DeckError::Invalid {
            deck: self.name.clone(),
            source: Box::new(source),
        };
        self.materials
            .check_regions(&self.mesh.region)
            .map_err(invalid)?;
        self.mesh.validate().map_err(invalid)?;
        Ok(())
    }

    /// Split this deck into the [`Problem`] a run reads throughout and
    /// the initial fields it paints its state from once.
    pub(crate) fn split(self) -> (Problem, InitialFields) {
        let Deck {
            name,
            mesh,
            materials,
            rho,
            ein,
            u,
            piston,
            spec,
        } = self;
        let problem = Problem {
            name,
            mesh,
            materials,
            piston,
            spec,
        };
        (problem, InitialFields { rho, ein, u })
    }
}

/// The part of a [`Deck`] a run reads for as long as it lives: what a
/// [`crate::Simulation`] holds, and what [`crate::Simulation::deck`]
/// returns. The deck's painted initial fields are not part of it — a
/// run paints its state from them and drops them (see
/// [`crate::Simulation::solution`] for the state it starts from).
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    /// Problem name (for reports).
    pub name: String,
    /// The initial mesh: the shared topology, and the initial node
    /// positions the Eulerian remap returns to and a rank team's pieces
    /// are cut from.
    pub mesh: Mesh,
    /// Region-indexed EoS table.
    pub materials: MaterialTable,
    /// Optional driven wall.
    pub piston: Option<PistonSpec>,
    /// The [`ProblemSpec`] the deck was constructed from, if any: what a
    /// checkpoint embeds to rebuild the problem ([`Deck::spec`]).
    pub spec: Option<ProblemSpec>,
}

/// A deck's painted initial fields, in global element / node order:
/// held only until a run has painted its state from them.
pub(crate) struct InitialFields {
    pub(crate) rho: Vec<f64>,
    pub(crate) ein: Vec<f64>,
    pub(crate) u: Vec<Vec2>,
}

impl InitialFields {
    /// Everything painting these fields over `problem`'s mesh would
    /// refuse — a tangled element, an unphysical density or energy —
    /// with the same typed error and without building a state: the
    /// admission check of the executors that never build the global one.
    pub(crate) fn check(&self, problem: &Problem) -> bookleaf_util::Result<()> {
        bookleaf_hydro::HydroState::check_initial(
            &problem.mesh,
            &problem.materials,
            |e| self.rho[e],
            |e| self.ein[e],
        )
    }
}

/// Tiny positive energy standing in for "zero" in cold-gas decks (an
/// exactly-zero energy is fine physically but makes relative-error
/// comparisons in tests degenerate).
pub const COLD: f64 = 1.0e-12;

/// Sedov blast-wave energy constant for 2-D (cylindrical) γ = 1.4:
/// with total (full-plane) energy `E = SEDOV_ALPHA` the shock reaches
/// r = 1 at t = 1 (Kamm & Timmes cylindrical similarity constant).
pub const SEDOV_ALPHA: f64 = 0.9839;

/// Resolve a standard problem's generic spec and stamp the named
/// [`ProblemSpec`] onto the result. The
/// generic builders are written so this is bitwise identical to the
/// old hand-rolled constructors.
fn named(generic: GenericSpec, spec: ProblemSpec) -> Deck {
    let mut deck = generic
        .build()
        .unwrap_or_else(|e| panic!("standard deck `{}` must build: {e}", spec.name()));
    deck.spec = Some(spec);
    deck
}

/// Sod's shock tube on `[0,1] × [0,h]` with `nx × ny` elements
/// (`h = ny/nx` keeps elements square). Left state (ρ=1, p=1), right
/// state (ρ=0.125, p=0.1), γ = 1.4 both sides. Standard end time 0.2.
pub fn sod(nx: usize, ny: usize) -> Deck {
    named(scenario::sod_generic(nx, ny), ProblemSpec::Sod { nx, ny })
}

/// The Noh problem on the quarter-plane `[0,1]²`, `n × n` elements:
/// γ = 5/3 ideal gas, ρ = 1, ε ≈ 0, radially inward unit velocity.
/// The x = 0 and y = 0 walls are the symmetry planes. Standard end time
/// 0.6 (shock at r = 0.2).
pub fn noh(n: usize) -> Deck {
    named(scenario::noh_generic(n), ProblemSpec::Noh { n })
}

/// The Sedov problem on the quarter-plane `[0,1.1]²`, `n × n` elements:
/// γ = 1.4, ρ = 1, cold everywhere except the origin cell, which receives
/// the quarter share of the blast energy. Standard end time 1.0 (shock
/// at r = 1).
pub fn sedov(n: usize) -> Deck {
    named(scenario::sedov_generic(n), ProblemSpec::Sedov { n })
}

/// Saltzmann's piston on `[0,1] × [0,0.1]`, `nx × ny` elements with the
/// canonical skewed mesh: γ = 5/3 cold gas, a unit-velocity piston
/// driving from the left wall. Standard end time 0.6.
pub fn saltzmann(nx: usize, ny: usize) -> Deck {
    named(
        scenario::saltzmann_generic(nx, ny),
        ProblemSpec::Saltzmann { nx, ny },
    )
}

/// Underwater-explosion deck: a JWL detonation-product bubble in Tait
/// water — the multi-material configuration that exercises the paper's
/// two non-trivial EoS options (§III-A lists ideal gas, Tait and JWL)
/// through the full driver.
///
/// Quarter-plane `[0,1]²`, `n × n` elements. Region 0 (r ≤ 0.15):
/// compressed JWL products; region 1: Tait water at reference density.
/// The bubble drives a pressure wave into the water at the water sound
/// speed. Scaled (non-physical) parameters keep the time step civil.
pub fn underwater(n: usize) -> Deck {
    named(
        scenario::underwater_generic(n),
        ProblemSpec::Underwater { n },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_mesh::{generate_rect, NodeBc, RectSpec};
    use bookleaf_util::approx_eq;

    #[test]
    fn all_decks_validate() {
        for deck in [sod(20, 4), noh(10), sedov(10), saltzmann(20, 4)] {
            deck.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", deck.name));
        }
    }

    #[test]
    fn sod_states_and_pressures() {
        let d = sod(10, 2);
        let gamma = 1.4;
        // Left elements: p = (γ-1) ρ ε = 1; right: 0.1.
        for e in 0..d.mesh.n_elements() {
            let p = (gamma - 1.0) * d.rho[e] * d.ein[e];
            if d.mesh.region[e] == 0 {
                assert!(approx_eq(p, 1.0, 1e-12));
            } else {
                assert!(approx_eq(p, 0.1, 1e-12));
            }
        }
        let left = d.mesh.region.iter().filter(|&&r| r == 0).count();
        assert_eq!(left, d.mesh.n_elements() / 2);
    }

    #[test]
    fn noh_velocity_is_unit_inward_where_unconstrained() {
        let d = noh(8);
        for (n, &u) in d.u.iter().enumerate() {
            let p = d.mesh.nodes[n];
            let bc = d.mesh.node_bc[n];
            if p.norm() <= 1e-12 {
                assert_eq!(u, Vec2::ZERO);
            } else if bc == NodeBc::FREE {
                assert!(approx_eq(u.norm(), 1.0, 1e-12), "node {n}");
                assert!(u.dot(p) < 0.0, "node {n} not inward");
            } else {
                // Wall nodes: the wall-normal component is projected out
                // so the deck is consistent with its reflective BCs.
                let raw = -p / p.norm();
                assert_eq!(u, bc.apply(raw), "node {n} not projected");
            }
        }
    }

    #[test]
    fn sedov_total_energy_is_quarter_alpha() {
        let d = sedov(16);
        let cell_vol = (1.1 / 16.0) * (1.1 / 16.0);
        let total: f64 = d
            .ein
            .iter()
            .enumerate()
            .map(|(e, &ein)| ein * d.rho[e] * cell_vol)
            .sum();
        assert!(approx_eq(total, SEDOV_ALPHA / 4.0, 1e-6), "total = {total}");
        // Energy concentrated in the origin cell.
        assert!(d.ein[0] > 1e3 * d.ein[1]);
    }

    #[test]
    fn saltzmann_piston_setup() {
        let d = saltzmann(20, 4);
        let p = d.piston.as_ref().unwrap();
        assert_eq!(p.nodes.len(), 5); // ny + 1 left-wall nodes
        for &n in &p.nodes {
            assert!(d.mesh.nodes[n as usize].x.abs() < 1e-12);
            assert!(
                !d.mesh.node_bc[n as usize].fix_x,
                "piston node still pinned"
            );
            assert_eq!(d.u[n as usize], Vec2::new(1.0, 0.0));
        }
        // Mesh is actually distorted.
        let undistorted = generate_rect(
            &RectSpec {
                nx: 20,
                ny: 4,
                origin: Vec2::ZERO,
                extent: Vec2::new(1.0, 0.1),
            },
            |_| 0,
        )
        .unwrap();
        assert_ne!(d.mesh.nodes, undistorted.nodes);
    }

    #[test]
    fn deck_validation_catches_corruption() {
        let mut d = sod(4, 2);
        d.rho.pop();
        assert!(d.validate().is_err());
    }
}
