//! Generic scenario decks: meshes, regions, materials and boundary
//! conditions as *data*.
//!
//! The source paper drives every BookLeaf experiment through an input
//! deck — the binary is fixed, the scenario is a text file. This module
//! is the typed form of that vocabulary: a [`GenericSpec`] describes a
//! rectangular mesh ([`MeshSpec`]), a list of named materials mapping
//! onto the [`EosSpec`] menu ([`NamedMaterial`]), a list of named
//! regions each carrying a spatial predicate ([`Shape`]) plus initial
//! fields and a material reference ([`RegionSpec`]), and the boundary
//! conditions as data ([`BoundarySpec`]). `GenericSpec::build`
//! assembles the runtime [`Deck`] — the same structure the five named
//! constructors in [`crate::decks`] produce; those constructors are
//! thin wrappers over this module, so a named deck and its generic
//! re-expression are **bitwise identical**.
//!
//! ## Region semantics
//!
//! Regions use painter (first-match-wins) semantics in declaration
//! order: every element takes the first region whose predicate contains
//! its (undistorted) centroid, and every node's initial velocity comes
//! from the first region containing the node. Two typed errors police
//! the layering: an element covered by *no* region fails with the
//! element's centroid named, and a region whose every covered element
//! was claimed by *earlier* regions is rejected as fully shadowed —
//! the overlap class of mistakes surfaces as shadowing, not silent
//! precedence. A region too small to catch any centroid at the mesh's
//! resolution is legal (the underwater bubble on a coarse mesh must
//! still build).
//!
//! ## Coordinate conventions
//!
//! * Element membership is decided at the element centroid of the
//!   *undistorted* mesh (the optional Saltzmann skew is applied after
//!   region assignment, matching the named Saltzmann constructor).
//! * `u_radial` is radial about the coordinate origin `(0, 0)`:
//!   `u = (p / |p|) · speed` (positive speed = outward), zero within
//!   `1e-12` of the origin.
//! * Region velocities are projected through the node's boundary
//!   constraints (a reflective wall zeroes the wall-normal component),
//!   so decks stay consistent with their own boundary conditions.
//!
//! The text grammar for these types lives in [`crate::input`]; the
//! five standard problems re-expressed in it are available through
//! [`generic_equivalent`].

use bookleaf_eos::{EosSpec, MaterialTable};
use bookleaf_mesh::{rect_parts, saltzmann_distort, Mesh, RectSpec};
use bookleaf_util::{DeckError, Vec2};

use crate::decks::{Deck, PistonSpec, COLD, SEDOV_ALPHA};
use crate::input::ProblemSpec;

/// The mesh section of a generic deck: a rectangular domain
/// `[x0, x1] × [y0, y1]` meshed `nx × ny`, with an optional canonical
/// distortion.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshSpec {
    /// Elements in x.
    pub nx: usize,
    /// Elements in y.
    pub ny: usize,
    /// Domain lower-left corner.
    pub origin: Vec2,
    /// Domain upper-right corner.
    pub extent: Vec2,
    /// Optional mesh distortion, applied after region assignment.
    pub skew: Option<SkewKind>,
}

impl MeshSpec {
    /// A unit-square mesh `n × n`, no skew.
    #[must_use]
    pub fn unit_square(n: usize) -> Self {
        MeshSpec {
            nx: n,
            ny: n,
            origin: Vec2::ZERO,
            extent: Vec2::new(1.0, 1.0),
            skew: None,
        }
    }

    /// Total element count (saturating, for admission checks).
    #[must_use]
    pub fn cells(&self) -> usize {
        self.nx.saturating_mul(self.ny)
    }

    fn rect(&self) -> RectSpec {
        RectSpec {
            nx: self.nx,
            ny: self.ny,
            origin: self.origin,
            extent: self.extent,
        }
    }
}

/// Mesh distortions a deck can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkewKind {
    /// The canonical Saltzmann piston distortion
    /// ([`bookleaf_mesh::saltzmann_distort`]).
    Saltzmann,
}

/// A named material: a handle regions refer to, mapped onto the
/// [`EosSpec`] menu (ideal gas, Tait, JWL).
#[derive(Debug, Clone, PartialEq)]
pub struct NamedMaterial {
    /// The handle `[region.*]` sections reference.
    pub name: String,
    /// The equation of state.
    pub eos: EosSpec,
}

/// A spatial predicate selecting part of the domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Axis-aligned rectangle; contains `p` iff
    /// `x0 ≤ p.x ≤ x1 && y0 ≤ p.y ≤ y1`.
    Rect {
        /// Left edge.
        x0: f64,
        /// Bottom edge.
        y0: f64,
        /// Right edge.
        x1: f64,
        /// Top edge.
        y1: f64,
    },
    /// Disc; contains `p` iff `|p − (cx, cy)| ≤ r`.
    Circle {
        /// Centre x.
        cx: f64,
        /// Centre y.
        cy: f64,
        /// Radius.
        r: f64,
    },
    /// Half-plane; contains `p` iff
    /// `normal_x · p.x + normal_y · p.y ≤ offset`.
    HalfPlane {
        /// Normal x component.
        normal_x: f64,
        /// Normal y component.
        normal_y: f64,
        /// Signed offset along the normal.
        offset: f64,
    },
}

impl Shape {
    /// Whether the shape contains point `p` (boundary inclusive).
    #[must_use]
    fn contains(&self, p: Vec2) -> bool {
        match *self {
            Shape::Rect { x0, y0, x1, y1 } => p.x >= x0 && p.x <= x1 && p.y >= y0 && p.y <= y1,
            Shape::Circle { cx, cy, r } => (p - Vec2::new(cx, cy)).norm() <= r,
            Shape::HalfPlane {
                normal_x,
                normal_y,
                offset,
            } => normal_x * p.x + normal_y * p.y <= offset,
        }
    }
}

/// How a region's specific internal energy is given.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EnergyInit {
    /// Directly, as specific internal energy.
    Ein(f64),
    /// As a pressure, inverted through the region's material EoS
    /// (ideal gas and JWL only — Tait pressure is independent of
    /// energy, so a Tait region must give `ein`).
    Pressure(f64),
}

/// A region's initial velocity field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VelocityInit {
    /// Uniform velocity.
    Constant(Vec2),
    /// Radial about the coordinate origin: `u = (p/|p|) · speed`
    /// (positive = outward), zero within `1e-12` of the origin.
    Radial {
        /// Signed radial speed.
        speed: f64,
    },
}

/// One `[region.<name>]` section: a spatial predicate plus the initial
/// fields and material inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSpec {
    /// Region name (for error messages and the text form).
    pub name: String,
    /// The spatial predicate (evaluated at undistorted centroids).
    pub shape: Shape,
    /// Name of the material filling the region.
    pub material: String,
    /// Initial density.
    pub rho: f64,
    /// Initial energy (direct or via pressure).
    pub energy: EnergyInit,
    /// Initial velocity.
    pub velocity: VelocityInit,
}

/// Boundary condition on one side of the domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SideBc {
    /// Reflective wall: the wall-normal velocity component is pinned
    /// to zero (the default on every side).
    Reflective,
    /// Free: the wall constraint is released.
    Free,
    /// Driven wall: nodes keep their tangential constraint but are
    /// driven at the deck's piston velocity.
    Piston,
}

/// The `[boundary]` section: one condition per side, plus the piston
/// velocity when a side is driven. At most one side may be a piston.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundarySpec {
    /// Condition on `x = x0`.
    pub left: SideBc,
    /// Condition on `x = x1`.
    pub right: SideBc,
    /// Condition on `y = y0`.
    pub bottom: SideBc,
    /// Condition on `y = y1`.
    pub top: SideBc,
    /// Imposed velocity of the piston side; `Some` iff a side is
    /// [`SideBc::Piston`].
    pub piston_u: Option<Vec2>,
}

impl Default for BoundarySpec {
    /// All four walls reflective, no piston — what
    /// [`bookleaf_mesh::generate_rect`] produces unmodified.
    fn default() -> Self {
        BoundarySpec {
            left: SideBc::Reflective,
            right: SideBc::Reflective,
            bottom: SideBc::Reflective,
            top: SideBc::Reflective,
            piston_u: None,
        }
    }
}

impl BoundarySpec {
    pub(crate) fn sides(&self) -> [(&'static str, SideBc); 4] {
        [
            ("left", self.left),
            ("right", self.right),
            ("bottom", self.bottom),
            ("top", self.top),
        ]
    }
}

/// A fully generic scenario: mesh, materials, regions and boundary
/// conditions as data. The typed form of a `[mesh]`-style text deck
/// (see [`crate::input`] for the grammar) and the substrate the five
/// named constructors in [`crate::decks`] are built on.
#[derive(Debug, Clone, PartialEq)]
pub struct GenericSpec {
    /// Scenario name (reports, error messages); defaults to
    /// `"generic"` in the text form.
    pub name: String,
    /// The mesh.
    pub mesh: MeshSpec,
    /// Named materials, in declaration order (the order fixes the
    /// region/material ids the mesh and [`MaterialTable`] use).
    pub materials: Vec<NamedMaterial>,
    /// Regions, in declaration order (first match wins).
    pub regions: Vec<RegionSpec>,
    /// Boundary conditions.
    pub boundary: BoundarySpec,
}

impl GenericSpec {
    /// A minimal valid spec: one material filling the whole domain at
    /// rest — the base the named decks' generic forms start from.
    #[must_use]
    fn uniform(name: &str, mesh: MeshSpec, eos: EosSpec, rho: f64, ein: f64) -> Self {
        let whole = Shape::Rect {
            x0: mesh.origin.x,
            y0: mesh.origin.y,
            x1: mesh.extent.x,
            y1: mesh.extent.y,
        };
        GenericSpec {
            name: name.to_string(),
            mesh,
            materials: vec![NamedMaterial {
                name: "mat".into(),
                eos,
            }],
            regions: vec![RegionSpec {
                name: "all".into(),
                shape: whole,
                material: "mat".into(),
                rho,
                energy: EnergyInit::Ein(ein),
                velocity: VelocityInit::Constant(Vec2::ZERO),
            }],
            boundary: BoundarySpec::default(),
        }
    }

    /// Spec-level validation: mesh dimensions and extents, material
    /// names and EoS parameters, region names, material references,
    /// physical initial fields, shape geometry and boundary
    /// consistency — the grammar's one `check` (see [`crate::input`])
    /// over this spec's flat form. Mesh-dependent checks (element
    /// coverage, shadowed regions) happen in [`GenericSpec::build`].
    fn validate(&self) -> Result<(), DeckError> {
        crate::input::check_generic(self)
    }

    /// Assemble the runtime [`Deck`] this spec describes: generate the
    /// mesh, assign regions (first match wins, at undistorted
    /// centroids), apply the skew and boundary overrides, fill the
    /// initial fields and build the [`MaterialTable`].
    pub fn build(&self) -> Result<Deck, DeckError> {
        self.validate()?;
        self.build_validated()
    }

    /// [`GenericSpec::build`] for a spec the caller has just validated.
    pub(crate) fn build_validated(&self) -> Result<Deck, DeckError> {
        let config = |message: String| DeckError::Config { message };
        let rect = self.mesh.rect();
        // First-match region-section index per element (u32::MAX =
        // uncovered), evaluated at the undistorted centroid. While
        // painting, also count how many elements each region *would*
        // match ignoring paint order, to tell an overlap mistake
        // (shadowed region) from a region merely below resolution.
        let would_match = std::cell::RefCell::new(vec![0usize; self.regions.len()]);
        let parts = rect_parts(&rect, |c| {
            let mut first = u32::MAX;
            let mut matches = would_match.borrow_mut();
            for (i, r) in self.regions.iter().enumerate() {
                if r.shape.contains(c) {
                    matches[i] += 1;
                    if first == u32::MAX {
                        first = i as u32;
                    }
                }
            }
            first
        });
        let invalid = |e| DeckError::Invalid {
            deck: self.name.clone(),
            source: Box::new(e),
        };
        // Regions and boundary overrides are painted on the topology
        // before `Mesh::new` below freezes it.
        let (nodes, mut topology) = parts.map_err(invalid)?;
        let section: Vec<u32> = std::mem::take(&mut topology.region);
        // Coverage: every element must land in a region. A region that
        // claims no element is an error only when earlier regions
        // *stole* everything it covers (the overlap mistake class); a
        // region too small to catch any centroid at this resolution is
        // legal (e.g. the underwater bubble on a coarse mesh).
        let mut counts = vec![0usize; self.regions.len()];
        let d = rect.spacing();
        for (e, &s) in section.iter().enumerate() {
            if s == u32::MAX {
                let (i, j) = (e % self.mesh.nx, e / self.mesh.nx);
                let c = Vec2::new(
                    self.mesh.origin.x + (i as f64 + 0.5) * d.x,
                    self.mesh.origin.y + (j as f64 + 0.5) * d.y,
                );
                return Err(config(format!(
                    "element {e} (centroid ({}, {})) is covered by no region",
                    c.x, c.y
                )));
            }
            counts[s as usize] += 1;
        }
        let would_match = would_match.into_inner();
        for (r, &n) in counts.iter().enumerate() {
            if n == 0 && would_match[r] > 0 {
                return Err(config(format!(
                    "region `{}` assigns no elements — all {} elements it covers \
                     are claimed by earlier regions",
                    self.regions[r].name, would_match[r]
                )));
            }
        }
        // Region ids in the mesh are *material* indices (declaration
        // order of [material.*]), the id space MaterialTable uses.
        let mat_of: Vec<u32> = self
            .regions
            .iter()
            .map(|reg| {
                self.materials
                    .iter()
                    .position(|m| m.name == reg.material)
                    .expect("validated material reference") as u32
            })
            .collect();
        topology.region = section.iter().map(|&s| mat_of[s as usize]).collect();

        // Boundary overrides. Side membership is decided by grid
        // index (row-major node numbering), not coordinates, so it is
        // exact even after the skew.
        let (nx, ny) = (self.mesh.nx, self.mesh.ny);
        let side_nodes = |side: &str| -> Vec<usize> {
            let nid = |i: usize, j: usize| j * (nx + 1) + i;
            match side {
                "left" => (0..=ny).map(|j| nid(0, j)).collect(),
                "right" => (0..=ny).map(|j| nid(nx, j)).collect(),
                "bottom" => (0..=nx).map(|i| nid(i, 0)).collect(),
                _ => (0..=nx).map(|i| nid(i, ny)).collect(),
            }
        };
        let mut piston_nodes: Vec<u32> = Vec::new();
        for (side, bc) in self.boundary.sides() {
            if bc == SideBc::Reflective {
                continue;
            }
            let horizontal = matches!(side, "bottom" | "top");
            for n in side_nodes(side) {
                // Release the wall-normal constraint; tangential
                // constraints (from adjoining walls) are kept.
                if horizontal {
                    topology.node_bc[n].fix_y = false;
                } else {
                    topology.node_bc[n].fix_x = false;
                }
                if bc == SideBc::Piston {
                    piston_nodes.push(n as u32);
                }
            }
        }

        let mut mesh = Mesh::new(nodes, topology).map_err(invalid)?;
        if let Some(SkewKind::Saltzmann) = self.mesh.skew {
            saltzmann_distort(&mut mesh, rect.origin, rect.extent);
        }

        // Per-region energy, with pressure inverted through the
        // region's material EoS once (density is uniform per region).
        let mut region_ein = Vec::with_capacity(self.regions.len());
        for (reg, &mat) in self.regions.iter().zip(&mat_of) {
            let eos = &self.materials[mat as usize].eos;
            let ein = match reg.energy {
                EnergyInit::Ein(e) => e,
                EnergyInit::Pressure(p) => {
                    pressure_to_ein(eos, reg.rho, p).expect("validated pressure-energy inversion")
                }
            };
            if !(ein >= 0.0 && ein.is_finite()) {
                return Err(config(format!(
                    "region `{}`: p = {:?} inverts to ein = {ein} through material `{}`",
                    reg.name, reg.energy, reg.material
                )));
            }
            region_ein.push(ein);
        }
        let rho: Vec<f64> = section
            .iter()
            .map(|&s| self.regions[s as usize].rho)
            .collect();
        let ein: Vec<f64> = section.iter().map(|&s| region_ein[s as usize]).collect();

        // Node velocities: first region containing the node, projected
        // through the node's (final) boundary constraints; nodes
        // outside every region start at rest.
        let mut u: Vec<Vec2> = mesh
            .nodes
            .iter()
            .enumerate()
            .map(|(n, &p)| {
                let Some(reg) = self.regions.iter().find(|r| r.shape.contains(p)) else {
                    return Vec2::ZERO;
                };
                match reg.velocity {
                    VelocityInit::Constant(v) => mesh.node_bc[n].apply(v),
                    VelocityInit::Radial { speed } => {
                        let r = p.norm();
                        if r > 1e-12 {
                            mesh.node_bc[n].apply((p / r) * speed)
                        } else {
                            Vec2::ZERO
                        }
                    }
                }
            })
            .collect();

        // A text deck's omitted `piston_ux`/`piston_uy` parse as zero,
        // so only a spec built in code can drive a side with nothing.
        if !piston_nodes.is_empty() && self.boundary.piston_u.is_none() {
            return Err(config(
                "a side is a piston but no piston velocity is given".into(),
            ));
        }
        let piston = self.boundary.piston_u.map(|velocity| {
            for &n in &piston_nodes {
                u[n as usize] = velocity;
            }
            PistonSpec {
                nodes: piston_nodes,
                velocity,
            }
        });

        Ok(Deck {
            name: self.name.clone(),
            materials: MaterialTable::new(self.materials.iter().map(|m| m.eos).collect()),
            mesh,
            rho,
            ein,
            u,
            piston,
            spec: Some(ProblemSpec::Generic(Box::new(self.clone()))),
        })
    }
}

/// Invert `p(rho, ein) = p` for `ein` where the EoS permits it:
/// ideal gas `ein = p / ((γ−1) ρ)`, JWL in closed form; `None` for the
/// density-only Tait form and the pressureless void.
pub(crate) fn pressure_to_ein(eos: &EosSpec, rho: f64, p: f64) -> Option<f64> {
    match *eos {
        EosSpec::IdealGas { gamma } => Some(p / ((gamma - 1.0) * rho)),
        EosSpec::Tait { .. } | EosSpec::Void => None,
        EosSpec::Jwl {
            a,
            b,
            r1,
            r2,
            omega,
            rho0,
        } => {
            let v = rho0 / rho;
            let cold = a * (1.0 - omega / (r1 * v)) * (-r1 * v).exp()
                + b * (1.0 - omega / (r2 * v)) * (-r2 * v).exp();
            Some((p - cold) / (omega * rho))
        }
    }
}

// ---------------------------------------------------------------------------
// The five standard problems, re-expressed in the generic vocabulary.

/// Sod's shock tube as a [`GenericSpec`] (see [`crate::decks::sod`]).
#[must_use]
pub fn sod_generic(nx: usize, ny: usize) -> GenericSpec {
    let h = ny as f64 / nx as f64;
    let gas = |name: &str| NamedMaterial {
        name: name.into(),
        eos: EosSpec::ideal_gas(1.4),
    };
    let state = |name: &str, x0: f64, x1: f64, material: &str, rho: f64, ein: f64| RegionSpec {
        name: name.into(),
        shape: Shape::Rect {
            x0,
            y0: 0.0,
            x1,
            y1: h,
        },
        material: material.into(),
        rho,
        energy: EnergyInit::Ein(ein),
        velocity: VelocityInit::Constant(Vec2::ZERO),
    };
    GenericSpec {
        name: "sod".into(),
        mesh: MeshSpec {
            nx,
            ny,
            origin: Vec2::ZERO,
            extent: Vec2::new(1.0, h),
            skew: None,
        },
        materials: vec![gas("left"), gas("right")],
        regions: vec![
            state("left", 0.0, 0.5, "left", 1.0, 2.5),
            state("right", 0.5, 1.0, "right", 0.125, 2.0),
        ],
        boundary: BoundarySpec::default(),
    }
}

/// The Noh implosion as a [`GenericSpec`] (see [`crate::decks::noh`]).
#[must_use]
pub fn noh_generic(n: usize) -> GenericSpec {
    let mut spec = GenericSpec::uniform(
        "noh",
        MeshSpec::unit_square(n),
        EosSpec::ideal_gas(5.0 / 3.0),
        1.0,
        COLD,
    );
    spec.regions[0].velocity = VelocityInit::Radial { speed: -1.0 };
    spec
}

/// The Sedov blast as a [`GenericSpec`] (see [`crate::decks::sedov`]).
#[must_use]
pub fn sedov_generic(n: usize) -> GenericSpec {
    let cell_vol = (1.1 / n as f64) * (1.1 / n as f64);
    let e_deposit = SEDOV_ALPHA / 4.0; // quarter plane
    let mut spec = GenericSpec::uniform(
        "sedov",
        MeshSpec {
            nx: n,
            ny: n,
            origin: Vec2::ZERO,
            extent: Vec2::new(1.1, 1.1),
            skew: None,
        },
        EosSpec::ideal_gas(1.4),
        1.0,
        COLD,
    );
    spec.regions[0].name = "rest".into();
    // The blast source: a disc around the origin sized to capture
    // exactly the origin-corner cell's centroid at every resolution
    // (centroid at 0.55·√2/n ≈ 0.78/n < 1.1/n < 1.74/n, the next
    // nearest centroid).
    let source = RegionSpec {
        name: "source".into(),
        shape: Shape::Circle {
            cx: 0.0,
            cy: 0.0,
            r: 1.1 / n as f64,
        },
        material: "mat".into(),
        rho: 1.0,
        energy: EnergyInit::Ein(e_deposit / (1.0 * cell_vol)),
        velocity: VelocityInit::Constant(Vec2::ZERO),
    };
    if n == 1 {
        // A single cell: the source disc covers the whole mesh and
        // would shadow `rest` entirely.
        spec.regions = vec![source];
    } else {
        spec.regions.insert(0, source);
    }
    spec
}

/// Saltzmann's piston as a [`GenericSpec`]
/// (see [`crate::decks::saltzmann`]).
#[must_use]
pub fn saltzmann_generic(nx: usize, ny: usize) -> GenericSpec {
    let mut spec = GenericSpec::uniform(
        "saltzmann",
        MeshSpec {
            nx,
            ny,
            origin: Vec2::ZERO,
            extent: Vec2::new(1.0, 0.1),
            skew: Some(SkewKind::Saltzmann),
        },
        EosSpec::ideal_gas(5.0 / 3.0),
        1.0,
        COLD,
    );
    spec.boundary.left = SideBc::Piston;
    spec.boundary.piston_u = Some(Vec2::new(1.0, 0.0));
    spec
}

/// The underwater-explosion deck as a [`GenericSpec`]
/// (see [`crate::decks::underwater`]).
#[must_use]
pub fn underwater_generic(n: usize) -> GenericSpec {
    GenericSpec {
        name: "underwater".into(),
        mesh: MeshSpec::unit_square(n),
        materials: vec![
            NamedMaterial {
                name: "products".into(),
                eos: EosSpec::Jwl {
                    a: 8.0,
                    b: 0.2,
                    r1: 4.5,
                    r2: 1.5,
                    omega: 0.3,
                    rho0: 1.6,
                },
            },
            NamedMaterial {
                name: "water".into(),
                eos: EosSpec::Tait {
                    p0: 1.0e2,
                    rho0: 1.0,
                    gamma: 7.0,
                },
            },
        ],
        regions: vec![
            RegionSpec {
                name: "bubble".into(),
                shape: Shape::Circle {
                    cx: 0.0,
                    cy: 0.0,
                    r: 0.15,
                },
                material: "products".into(),
                rho: 1.6,
                energy: EnergyInit::Ein(40.0),
                velocity: VelocityInit::Constant(Vec2::ZERO),
            },
            RegionSpec {
                name: "water".into(),
                shape: Shape::Rect {
                    x0: 0.0,
                    y0: 0.0,
                    x1: 1.0,
                    y1: 1.0,
                },
                material: "water".into(),
                rho: 1.0,
                energy: EnergyInit::Ein(COLD),
                velocity: VelocityInit::Constant(Vec2::ZERO),
            },
        ],
        boundary: BoundarySpec::default(),
    }
}

/// The generic re-expression of a named problem, or `None` for specs
/// that are already generic. Built decks are **bitwise identical** to
/// the named constructors' (pinned by tests) — the constructors are
/// wrappers over these specs.
#[must_use]
pub fn generic_equivalent(spec: &ProblemSpec) -> Option<GenericSpec> {
    match *spec {
        ProblemSpec::Sod { nx, ny } => Some(sod_generic(nx, ny)),
        ProblemSpec::Noh { n } => Some(noh_generic(n)),
        ProblemSpec::Sedov { n } => Some(sedov_generic(n)),
        ProblemSpec::Saltzmann { nx, ny } => Some(saltzmann_generic(nx, ny)),
        ProblemSpec::Underwater { n } => Some(underwater_generic(n)),
        ProblemSpec::Generic(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_mesh::NodeBc;

    fn base() -> GenericSpec {
        GenericSpec::uniform(
            "base",
            MeshSpec::unit_square(4),
            EosSpec::ideal_gas(1.4),
            1.0,
            2.5,
        )
    }

    #[test]
    fn uniform_spec_builds_and_validates() {
        let deck = base().build().unwrap();
        deck.validate().unwrap();
        assert_eq!(deck.name, "base");
        assert_eq!(deck.mesh.n_elements(), 16);
        assert!(deck.rho.iter().all(|&r| r == 1.0));
        assert!(deck.ein.iter().all(|&e| e == 2.5));
        assert!(matches!(deck.spec, Some(ProblemSpec::Generic(_))));
    }

    #[test]
    fn uncovered_element_is_a_typed_error() {
        let mut spec = base();
        // Shrink the region to the left half: right-half centroids
        // are uncovered.
        spec.regions[0].shape = Shape::Rect {
            x0: 0.0,
            y0: 0.0,
            x1: 0.5,
            y1: 1.0,
        };
        let err = spec.build().unwrap_err();
        assert!(
            matches!(&err, DeckError::Config { message } if message.contains("covered by no region")),
            "{err:?}"
        );
    }

    #[test]
    fn shadowed_region_is_a_typed_error() {
        let mut spec = base();
        // A second whole-domain region behind the first: first match
        // wins everywhere, so it assigns nothing.
        let mut shadowed = spec.regions[0].clone();
        shadowed.name = "shadowed".into();
        spec.regions.push(shadowed);
        let err = spec.build().unwrap_err();
        assert!(
            matches!(&err, DeckError::Config { message } if message.contains("shadowed")),
            "{err:?}"
        );
    }

    #[test]
    fn unknown_material_reference_is_rejected() {
        let mut spec = base();
        spec.regions[0].material = "unobtainium".into();
        let err = spec.validate().unwrap_err();
        assert!(
            matches!(&err, DeckError::Config { message } if message.contains("unobtainium")),
            "{err:?}"
        );
    }

    #[test]
    fn non_physical_fields_are_rejected() {
        let mut spec = base();
        spec.regions[0].rho = -1.0;
        assert!(spec.validate().is_err());
        let mut spec = base();
        spec.regions[0].energy = EnergyInit::Ein(f64::NAN);
        assert!(spec.validate().is_err());
        let mut spec = base();
        spec.materials[0].eos = EosSpec::ideal_gas(0.9);
        assert!(spec.validate().is_err());
        let mut spec = base();
        spec.mesh.nx = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn tait_region_cannot_be_initialised_by_pressure() {
        let mut spec = base();
        spec.materials[0].eos = EosSpec::Tait {
            p0: 100.0,
            rho0: 1.0,
            gamma: 7.0,
        };
        spec.regions[0].energy = EnergyInit::Pressure(1.0);
        let err = spec.validate().unwrap_err();
        assert!(
            matches!(&err, DeckError::Config { message } if message.contains("density-only")),
            "{err:?}"
        );
    }

    #[test]
    fn pressure_init_matches_ideal_gas_ein() {
        let mut spec = base();
        // p = 1 at rho = 1, gamma = 1.4 → ein = 1 / 0.4.
        spec.regions[0].energy = EnergyInit::Pressure(1.0);
        let deck = spec.build().unwrap();
        let expect = 1.0 / ((1.4 - 1.0) * 1.0);
        assert!(deck.ein.iter().all(|&e| e == expect));
    }

    #[test]
    fn free_side_releases_the_wall_constraint() {
        let mut spec = base();
        spec.boundary.top = SideBc::Free;
        let deck = spec.build().unwrap();
        let n = deck.mesh.n_nodes();
        let nx1 = spec.mesh.nx + 1;
        // Top-row interior nodes are fully free; top corners keep
        // their x-wall constraint.
        for id in (n - nx1)..n {
            assert!(!deck.mesh.node_bc[id].fix_y, "node {id}");
        }
        assert!(deck.mesh.node_bc[n - nx1].fix_x);
        assert_eq!(deck.mesh.node_bc[n - nx1 + 1], NodeBc::FREE);
    }

    #[test]
    fn piston_boundary_matches_saltzmann_shape() {
        let spec = saltzmann_generic(8, 2);
        let deck = spec.build().unwrap();
        let piston = deck.piston.as_ref().unwrap();
        assert_eq!(piston.nodes.len(), 3); // ny + 1 left-wall nodes
        for &n in &piston.nodes {
            assert!(!deck.mesh.node_bc[n as usize].fix_x);
            assert_eq!(deck.u[n as usize], Vec2::new(1.0, 0.0));
        }
    }

    #[test]
    fn first_match_wins_on_the_interface() {
        // Two overlapping rects: the seam column belongs to the first.
        let mut spec = base();
        spec.materials.push(NamedMaterial {
            name: "mat2".into(),
            eos: EosSpec::ideal_gas(1.6),
        });
        spec.regions[0].shape = Shape::Rect {
            x0: 0.0,
            y0: 0.0,
            x1: 0.5,
            y1: 1.0,
        };
        spec.regions.push(RegionSpec {
            name: "rest".into(),
            shape: Shape::Rect {
                x0: 0.0,
                y0: 0.0,
                x1: 1.0,
                y1: 1.0,
            },
            material: "mat2".into(),
            rho: 2.0,
            energy: EnergyInit::Ein(1.0),
            velocity: VelocityInit::Constant(Vec2::ZERO),
        });
        let deck = spec.build().unwrap();
        let left = deck.mesh.region.iter().filter(|&&r| r == 0).count();
        assert_eq!(left, 8);
        assert_eq!(deck.rho.iter().filter(|&&r| r == 2.0).count(), 8);
    }
}
