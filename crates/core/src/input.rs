//! Text input decks: the way real BookLeaf is driven.
//!
//! Every problem in the paper's evaluation is a *text file* fed to one
//! binary. [`InputDeck`] is that file's typed form: the scenario (a
//! named standard problem *or* a fully generic mesh/region/material
//! description) plus every run option an input namelist would carry —
//! time-step controls, ALE options, the executor and overlap toggle.
//! `decks::from_str` / `decks::to_string` convert between [`InputDeck`]
//! and a line-oriented key-value text format (a TOML subset:
//! `key = value` entries under `[section]` headers, `#` comments), and
//! `Simulation::builder().deck_str(..)` / `.deck_file(..)` accept the
//! text directly — new scenarios are data, not code.
//!
//! The codec below is hand-rolled around one table of the grammar,
//! which the parser, the validator and the table in these docs all
//! read.
//!
//! # Named decks
//!
//! A deck with a top-level `problem` key selects one of the five
//! standard problems at a resolution:
//!
//! ```text
//! # BookLeaf-rs input deck
//! problem = sod
//! nx = 40
//! ny = 4
//!
//! [control]
//! final_time = 0.2
//!
//! [executor]
//! model = hybrid
//! ranks = 2
//! threads_per_rank = 2
//! ```
//!
//! # Generic decks
//!
//! A deck with a `[mesh]` section (and no `problem` key) describes the
//! scenario itself — see [`crate::scenario`] for the semantics. Any
//! number of `[material.<name>]` and `[region.<name>]` sections, with
//! distinct names; region order is significant (first match wins). The
//! `[control]`/`[dt]`/`[ale]`/`[executor]` sections are shared with
//! named decks.
//!
//! # The grammar
//!
//! One row per key, checked against the parser's own table by a test.
//! *under* names the values of the section's discriminator key a row
//! applies under (a key given under any other is an error at its
//! line); a default of — means the key has none and may be absent.
//! Mesh dimensions are capped at [`MAX_MESH_DIM`].
//!
//! | section | key | value | under | default | meaning |
//! |---|---|---|---|---|---|
//! | top level | `problem` | `sod` \| `noh` \| `sedov` \| `saltzmann` \| `underwater` |  | — | a standard problem; a deck without it is generic and needs `[mesh]` |
//! | top level | `nx` | int, in 1..=8192 | `problem` = `sod` \| `saltzmann` | required | elements along the tube |
//! | top level | `ny` | int, in 1..=8192 | `problem` = `sod` \| `saltzmann` | required | elements across the tube |
//! | top level | `n` | int, in 1..=8192 | `problem` = `noh` \| `sedov` \| `underwater` | required | elements per side |
//! | top level | `name` | name |  | generic | scenario name, for reports (generic decks only) |
//! | `[mesh]` | `nx` | int, in 1..=8192 |  | required | elements in x |
//! | `[mesh]` | `ny` | int, in 1..=8192 |  | required | elements in y |
//! | `[mesh]` | `x0` | float |  | 0 | domain left edge |
//! | `[mesh]` | `y0` | float |  | 0 | domain bottom edge |
//! | `[mesh]` | `x1` | float |  | 1 | domain right edge, `x1 > x0` |
//! | `[mesh]` | `y1` | float |  | 1 | domain top edge, `y1 > y0` |
//! | `[mesh]` | `skew` | `saltzmann` |  | — | mesh distortion, applied after region assignment |
//! | `[material.<name>]` | `eos` | `ideal_gas` \| `tait` \| `jwl` \| `void` |  | required | EoS form (`void` takes no parameters) |
//! | `[material.<name>]` | `gamma` | float, greater than 1 | `eos` = `ideal_gas` | required | ratio of specific heats |
//! | `[material.<name>]` | `gamma` | float, at least 1 | `eos` = `tait` | required | Tait exponent |
//! | `[material.<name>]` | `p0` | float, positive | `eos` = `tait` | required | Tait reference pressure scale |
//! | `[material.<name>]` | `rho0` | float, positive | `eos` = `tait` \| `jwl` | required | reference density |
//! | `[material.<name>]` | `a` | float, non-negative | `eos` = `jwl` | required | JWL pressure coefficient |
//! | `[material.<name>]` | `b` | float, non-negative | `eos` = `jwl` | required | JWL pressure coefficient |
//! | `[material.<name>]` | `r1` | float, positive | `eos` = `jwl` | required | JWL decay rate |
//! | `[material.<name>]` | `r2` | float, positive | `eos` = `jwl` | required | JWL decay rate |
//! | `[material.<name>]` | `omega` | float, positive | `eos` = `jwl` | required | JWL Grüneisen coefficient |
//! | `[region.<name>]` | `shape` | `rect` \| `circle` \| `halfplane` |  | required | spatial predicate |
//! | `[region.<name>]` | `x0` | float | `shape` = `rect` | required | left edge (inclusive) |
//! | `[region.<name>]` | `y0` | float | `shape` = `rect` | required | bottom edge (inclusive) |
//! | `[region.<name>]` | `x1` | float | `shape` = `rect` | required | right edge (inclusive), `x1 >= x0` |
//! | `[region.<name>]` | `y1` | float | `shape` = `rect` | required | top edge (inclusive), `y1 >= y0` |
//! | `[region.<name>]` | `cx` | float | `shape` = `circle` | required | centre x |
//! | `[region.<name>]` | `cy` | float | `shape` = `circle` | required | centre y |
//! | `[region.<name>]` | `r` | float, positive | `shape` = `circle` | required | radius |
//! | `[region.<name>]` | `normal_x` | float | `shape` = `halfplane` | required | normal x; inside iff `n·p ≤ offset` |
//! | `[region.<name>]` | `normal_y` | float | `shape` = `halfplane` | required | normal y; the normal is non-zero |
//! | `[region.<name>]` | `offset` | float | `shape` = `halfplane` | required | signed offset along the normal |
//! | `[region.<name>]` | `material` | name |  | required | a `[material.<name>]` handle |
//! | `[region.<name>]` | `rho` | float, positive |  | required | initial density |
//! | `[region.<name>]` | `ein` | float, non-negative |  | — | initial specific internal energy (exactly one of `ein`, `p`) |
//! | `[region.<name>]` | `p` | float, non-negative |  | — | initial pressure, inverted through the EoS (not `tait`/`void`) |
//! | `[region.<name>]` | `ux` | float |  | 0 | uniform initial velocity, x |
//! | `[region.<name>]` | `uy` | float |  | 0 | uniform initial velocity, y |
//! | `[region.<name>]` | `u_radial` | float |  | — | radial velocity about the origin (excludes `ux`/`uy`) |
//! | `[boundary]` | `left` | `reflective` \| `free` \| `piston` |  | reflective | condition on `x = x0` (at most one side is a piston) |
//! | `[boundary]` | `right` | `reflective` \| `free` \| `piston` |  | reflective | condition on `x = x1` |
//! | `[boundary]` | `bottom` | `reflective` \| `free` \| `piston` |  | reflective | condition on `y = y0` |
//! | `[boundary]` | `top` | `reflective` \| `free` \| `piston` |  | reflective | condition on `y = y1` |
//! | `[boundary]` | `piston_ux` | float |  | 0 | piston velocity, x (needs a piston side) |
//! | `[boundary]` | `piston_uy` | float |  | 0 | piston velocity, y |
//! | `[control]` | `final_time` | float, positive |  | standard | stop time; `standard` = the named problem's own, generic decks must set it |
//! | `[control]` | `max_steps` | int, at least 1 |  | 100000 | hard step cap |
//! | `[control]` | `overlap` | `true` \| `false` |  | true | overlap halo exchange with computation |
//! | `[dt]` | `cfl_sf` | float, positive |  | 0.5 | CFL safety factor |
//! | `[dt]` | `div_sf` | float, positive |  | 0.25 | divergence safety factor |
//! | `[dt]` | `growth` | float, at least 1 |  | 1.02 | largest step-to-step growth of `dt` |
//! | `[dt]` | `dt_initial` | float, positive |  | 0.00001 | first time step |
//! | `[dt]` | `dt_max` | float, positive |  | 0.1 | largest time step |
//! | `[dt]` | `dt_min` | float, positive |  | 0.000000000001 | smallest time step, `dt_min <= dt_max` |
//! | `[ale]` | `mode` | `eulerian` \| `smooth` |  | required | remap target: back to the initial mesh, or a smoothed one |
//! | `[ale]` | `alpha` | float, in (0, 1] | `mode` = `smooth` | required | smoothing weight |
//! | `[ale]` | `frequency` | int, at least 1 |  | 1 | remap every this many steps |
//! | `[executor]` | `model` | `serial` \| `flat_mpi` \| `hybrid` |  | serial | programming model |
//! | `[executor]` | `ranks` | int, at least 1 | `model` = `flat_mpi` \| `hybrid` | required | rank threads |
//! | `[executor]` | `threads_per_rank` | int, at least 1 | `model` = `hybrid` | required | rayon threads inside each rank |
//!
//! Errors are typed ([`DeckError`]), and every error of a text deck
//! names its 1-based line ([`DeckError::Text`]): a syntax error,
//! an unknown or duplicate key, a key that does not apply under the
//! section's variant, and a value out of range point at the offending
//! line; a missing key points at the variant's discriminator line, or
//! at the section header. Only what has no line is a
//! [`DeckError::Config`] — a generic deck without `final_time`, a
//! shadowed region (mesh-dependent, found when the deck is built), and
//! every error of a deck built in code.
//!
//! ```text
//! name = hot-bubble
//!
//! [mesh]
//! nx = 40
//! ny = 40
//!
//! [material.gas]
//! eos = ideal_gas
//! gamma = 1.4
//!
//! [region.bubble]
//! shape = circle
//! cx = 0.5
//! cy = 0.5
//! r = 0.2
//! material = gas
//! rho = 1
//! p = 10
//!
//! [region.ambient]
//! shape = rect
//! x0 = 0
//! y0 = 0
//! x1 = 1
//! y1 = 1
//! material = gas
//! rho = 1
//! p = 0.1
//!
//! [control]
//! final_time = 0.2
//! ```

use std::fmt;
use std::str::FromStr;

use bookleaf_ale::{AleMode, AleOptions};
use bookleaf_eos::EosSpec;
use bookleaf_hydro::getdt::DtControls;
use bookleaf_util::{DeckError, Vec2};

use crate::config::{ExecutorKind, RunConfig};
use crate::decks::{self, Deck};
use crate::scenario::{
    pressure_to_ein, BoundarySpec, EnergyInit, GenericSpec, MeshSpec, NamedMaterial, RegionSpec,
    Shape, SideBc, SkewKind, VelocityInit,
};

/// Hard cap on a text deck's mesh dimensions: a typo'd `nx = 4000000`
/// should fail fast, not allocate the machine away.
pub const MAX_MESH_DIM: usize = 8192;

/// Which scenario a text deck sets up: one of the five standard
/// problems at a resolution, or a fully generic description.
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemSpec {
    /// Sod's shock tube, `nx × ny` elements.
    Sod {
        /// Elements along the tube.
        nx: usize,
        /// Elements across the tube.
        ny: usize,
    },
    /// The Noh implosion, `n × n` elements.
    Noh {
        /// Elements per side.
        n: usize,
    },
    /// The Sedov blast, `n × n` elements.
    Sedov {
        /// Elements per side.
        n: usize,
    },
    /// Saltzmann's piston, `nx × ny` elements.
    Saltzmann {
        /// Elements along the tube.
        nx: usize,
        /// Elements across the tube.
        ny: usize,
    },
    /// The underwater-explosion multi-material deck, `n × n` elements.
    Underwater {
        /// Elements per side.
        n: usize,
    },
    /// A generic scenario: mesh, regions, materials and boundary
    /// conditions as data (see [`crate::scenario`]).
    Generic(Box<GenericSpec>),
}

impl ProblemSpec {
    /// The scenario's name: the text-deck `problem` value for named
    /// problems, the deck's own `name` for generic scenarios.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            ProblemSpec::Sod { .. } => "sod",
            ProblemSpec::Noh { .. } => "noh",
            ProblemSpec::Sedov { .. } => "sedov",
            ProblemSpec::Saltzmann { .. } => "saltzmann",
            ProblemSpec::Underwater { .. } => "underwater",
            ProblemSpec::Generic(g) => &g.name,
        }
    }

    /// The problem's standard end time (matches the constructed deck's
    /// `recommended_final_time`; pinned by a test). Generic scenarios
    /// have no standard end time — they must set `final_time`
    /// explicitly (enforced by [`InputDeck::validate`]) and report a
    /// placeholder `1.0` here.
    #[must_use]
    pub fn recommended_final_time(&self) -> f64 {
        match self {
            ProblemSpec::Sod { .. } => 0.2,
            ProblemSpec::Noh { .. } | ProblemSpec::Saltzmann { .. } => 0.6,
            ProblemSpec::Sedov { .. } => 1.0,
            ProblemSpec::Underwater { .. } => 0.01,
            ProblemSpec::Generic(_) => 1.0,
        }
    }

    /// Total element count of the mesh this spec would build
    /// (saturating) — what admission control budgets against.
    #[must_use]
    pub fn cells(&self) -> usize {
        match self {
            ProblemSpec::Sod { nx, ny } | ProblemSpec::Saltzmann { nx, ny } => {
                nx.saturating_mul(*ny)
            }
            ProblemSpec::Noh { n } | ProblemSpec::Sedov { n } | ProblemSpec::Underwater { n } => {
                n.saturating_mul(*n)
            }
            ProblemSpec::Generic(g) => g.mesh.cells(),
        }
    }
}

/// A fully parsed input deck: problem spec plus every run option.
///
/// Converts to the runtime pair with [`InputDeck::build_deck`] (the
/// [`Deck`]) and [`InputDeck::run_config`] (the [`RunConfig`], with
/// `final_time` defaulting to the problem's standard end time).
#[derive(Debug, Clone, PartialEq)]
pub struct InputDeck {
    /// Problem and resolution.
    pub problem: ProblemSpec,
    /// Stop time; `None` = the problem's recommended end time
    /// (required for generic scenarios, which have none).
    pub final_time: Option<f64>,
    /// Hard step cap.
    pub max_steps: usize,
    /// Overlap halo exchange with computation (distributed executors).
    pub overlap: bool,
    /// Time-step controls.
    pub dt: DtControls,
    /// ALE remap options; `None` = pure Lagrangian.
    pub ale: Option<AleOptions>,
    /// Execution model.
    pub executor: ExecutorKind,
}

impl InputDeck {
    /// A deck for `problem` with default options (serial Lagrangian,
    /// recommended end time).
    #[must_use]
    pub fn new(problem: ProblemSpec) -> Self {
        let defaults = RunConfig::default();
        InputDeck {
            problem,
            final_time: None,
            max_steps: defaults.max_steps,
            overlap: defaults.overlap,
            dt: defaults.dt,
            ale: None,
            executor: ExecutorKind::Serial,
        }
    }

    /// Check every option for consistency (spec-level; the constructed
    /// [`Deck`] is checked again by `Deck::validate`). The same `check`
    /// the parser runs, over this deck's flat form — a deck built in
    /// code has no source lines, so every error is a
    /// [`DeckError::Config`].
    pub fn validate(&self) -> Result<(), DeckError> {
        let mut flat = Vec::new();
        self.flatten(&mut collector(&mut flat));
        check(&flat, true)
    }

    /// Construct the runtime [`Deck`] this spec describes.
    pub fn build_deck(&self) -> Result<Deck, DeckError> {
        // Fields are public and may have been edited since the parse.
        self.validate()?;
        Ok(match &self.problem {
            ProblemSpec::Sod { nx, ny } => decks::sod(*nx, *ny),
            ProblemSpec::Noh { n } => decks::noh(*n),
            ProblemSpec::Sedov { n } => decks::sedov(*n),
            ProblemSpec::Saltzmann { nx, ny } => decks::saltzmann(*nx, *ny),
            ProblemSpec::Underwater { n } => decks::underwater(*n),
            ProblemSpec::Generic(g) => {
                let mut deck = g.build_validated()?;
                // validate() above guarantees an explicit final_time.
                if let Some(t) = self.final_time {
                    deck.recommended_final_time = t;
                }
                deck
            }
        })
    }

    /// The run configuration this spec describes. `final_time` defaults
    /// to the problem's recommended end time when the deck omits it.
    #[must_use]
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            final_time: self
                .final_time
                .unwrap_or_else(|| self.problem.recommended_final_time()),
            max_steps: self.max_steps,
            dt: self.dt,
            ale: self.ale,
            executor: self.executor,
            overlap: self.overlap,
            ..RunConfig::default()
        }
    }
}

// ---------------------------------------------------------------------------
// The grammar, once, as data. The parser, `check`, the writer's flat
// form and the table in the module docs all read `SCHEMA`.

/// Admissible range of a numeric value, on top of *finite*.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Range {
    Any,
    Positive,
    NonNegative,
    Above1,
    AtLeast1,
    UnitInterval,
    MeshDim,
}

impl Range {
    /// How the range reads in a message, and its test.
    fn rule(self) -> (&'static str, fn(f64) -> bool) {
        match self {
            Range::Any => ("finite", |_| true),
            Range::Positive => ("positive", |v| v > 0.0),
            Range::NonNegative => ("non-negative", |v| v >= 0.0),
            Range::Above1 => ("greater than 1", |v| v > 1.0),
            Range::AtLeast1 => ("at least 1", |v| v >= 1.0),
            Range::UnitInterval => ("in (0, 1]", |v| v > 0.0 && v <= 1.0),
            Range::MeshDim => ("in 1..=8192", |v| v >= 1.0 && v <= MAX_MESH_DIM as f64),
        }
    }
}

/// The type of a key's value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ty {
    Int(Range),
    Num(Range),
    Bool,
    /// A name in `[A-Za-z0-9_-]+`.
    Ident,
    /// One of a fixed list of words.
    Word(&'static [&'static str]),
}

/// Whether a key must be present where it applies; `Opt` carries the
/// default as the docs table prints it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Need {
    Req,
    Opt(&'static str),
}

/// One section of the grammar.
#[derive(Debug)]
struct SectionDef {
    /// The header word; empty for the top level.
    name: &'static str,
    /// The key whose word selects which conditional rows apply.
    disc: Option<&'static str>,
    /// Instances are headed `[name.<instance>]`, any number of them.
    named: bool,
    /// Legal only in a deck that has a `[mesh]` section.
    generic_only: bool,
    /// The section's rows: a contiguous run of `SCHEMA`.
    keys: &'static [KeyDef],
}

/// One row of the grammar: a key of a section. A key whose range
/// depends on the variant (`gamma`) is one row per variant.
#[derive(Debug)]
struct KeyDef {
    section: &'static str,
    key: &'static str,
    ty: Ty,
    /// The discriminator words the key applies under; empty = always.
    when: &'static [&'static str],
    need: Need,
}

impl KeyDef {
    /// Does the row apply under discriminator value `word`?
    fn applies(&self, word: Option<&str>) -> bool {
        self.when.is_empty() || word.is_some_and(|w| self.when.contains(&w))
    }
}

const fn section(
    name: &'static str,
    disc: Option<&'static str>,
    named: bool,
    generic_only: bool,
) -> SectionDef {
    // The run of `SCHEMA` rows that name this section, found at
    // compile time (`str` equality is not `const` yet: compare bytes).
    let (mut start, mut end, mut i) = (0, 0, 0);
    while i < SCHEMA.len() {
        let (row, want) = (SCHEMA[i].section.as_bytes(), name.as_bytes());
        let mut same = row.len() == want.len();
        let mut b = 0;
        while same && b < want.len() {
            same = row[b] == want[b];
            b += 1;
        }
        if same {
            if end == 0 {
                start = i;
            }
            assert!(end == 0 || end == i, "a section's rows are contiguous");
            end = i + 1;
        }
        i += 1;
    }
    SectionDef {
        name,
        disc,
        named,
        generic_only,
        keys: SCHEMA.split_at(end).0.split_at(start).1,
    }
}

const fn key(
    section: &'static str,
    key: &'static str,
    ty: Ty,
    when: &'static [&'static str],
    need: Need,
) -> KeyDef {
    KeyDef {
        section,
        key,
        ty,
        when,
        need,
    }
}

use Need::{Opt, Req};
use Range::{Above1, Any, AtLeast1, MeshDim, NonNegative, Positive, UnitInterval};
use Ty::{Ident, Int, Num, Word};

/// (header word, discriminator key, named instances?, generic decks only?)
const SECTIONS: &[SectionDef] = &[
    section("", Some("problem"), false, false),
    section("mesh", None, false, true),
    section("material", Some("eos"), true, true),
    section("region", Some("shape"), true, true),
    section("boundary", None, false, true),
    section("control", None, false, false),
    section("dt", None, false, false),
    section("ale", Some("mode"), false, false),
    section("executor", Some("model"), false, false),
];

const PROBLEM: Ty = Word(&["sod", "noh", "sedov", "saltzmann", "underwater"]);
const NX_NY: &[&str] = &["sod", "saltzmann"];
const N: &[&str] = &["noh", "sedov", "underwater"];
const EOS: Ty = Word(&["ideal_gas", "tait", "jwl", "void"]);
const TAIT: &[&str] = &["tait"];
const JWL: &[&str] = &["jwl"];
const SHAPE: Ty = Word(&["rect", "circle", "halfplane"]);
const RECT: &[&str] = &["rect"];
const CIRCLE: &[&str] = &["circle"];
const HALFPLANE: &[&str] = &["halfplane"];
const SIDE_BC: Ty = Word(&["reflective", "free", "piston"]);
const MODEL: Ty = Word(&["serial", "flat_mpi", "hybrid"]);
const RANKED: &[&str] = &["flat_mpi", "hybrid"];
const HYBRID: &[&str] = &["hybrid"];

/// (section, key, type and range, applies under, required or default);
/// a section's rows are contiguous.
const SCHEMA: &[KeyDef] = &[
    key("", "problem", PROBLEM, &[], Opt("—")),
    key("", "nx", Int(MeshDim), NX_NY, Req),
    key("", "ny", Int(MeshDim), NX_NY, Req),
    key("", "n", Int(MeshDim), N, Req),
    key("", "name", Ident, &[], Opt("generic")),
    key("mesh", "nx", Int(MeshDim), &[], Req),
    key("mesh", "ny", Int(MeshDim), &[], Req),
    key("mesh", "x0", Num(Any), &[], Opt("0")),
    key("mesh", "y0", Num(Any), &[], Opt("0")),
    key("mesh", "x1", Num(Any), &[], Opt("1")),
    key("mesh", "y1", Num(Any), &[], Opt("1")),
    key("mesh", "skew", Word(&["saltzmann"]), &[], Opt("—")),
    key("material", "eos", EOS, &[], Req),
    key("material", "gamma", Num(Above1), &["ideal_gas"], Req),
    key("material", "gamma", Num(AtLeast1), TAIT, Req),
    key("material", "p0", Num(Positive), TAIT, Req),
    key("material", "rho0", Num(Positive), &["tait", "jwl"], Req),
    key("material", "a", Num(NonNegative), JWL, Req),
    key("material", "b", Num(NonNegative), JWL, Req),
    key("material", "r1", Num(Positive), JWL, Req),
    key("material", "r2", Num(Positive), JWL, Req),
    key("material", "omega", Num(Positive), JWL, Req),
    key("region", "shape", SHAPE, &[], Req),
    key("region", "x0", Num(Any), RECT, Req),
    key("region", "y0", Num(Any), RECT, Req),
    key("region", "x1", Num(Any), RECT, Req),
    key("region", "y1", Num(Any), RECT, Req),
    key("region", "cx", Num(Any), CIRCLE, Req),
    key("region", "cy", Num(Any), CIRCLE, Req),
    key("region", "r", Num(Positive), CIRCLE, Req),
    key("region", "normal_x", Num(Any), HALFPLANE, Req),
    key("region", "normal_y", Num(Any), HALFPLANE, Req),
    key("region", "offset", Num(Any), HALFPLANE, Req),
    key("region", "material", Ident, &[], Req),
    key("region", "rho", Num(Positive), &[], Req),
    key("region", "ein", Num(NonNegative), &[], Opt("—")),
    key("region", "p", Num(NonNegative), &[], Opt("—")),
    key("region", "ux", Num(Any), &[], Opt("0")),
    key("region", "uy", Num(Any), &[], Opt("0")),
    key("region", "u_radial", Num(Any), &[], Opt("—")),
    key("boundary", "left", SIDE_BC, &[], Opt("reflective")),
    key("boundary", "right", SIDE_BC, &[], Opt("reflective")),
    key("boundary", "bottom", SIDE_BC, &[], Opt("reflective")),
    key("boundary", "top", SIDE_BC, &[], Opt("reflective")),
    key("boundary", "piston_ux", Num(Any), &[], Opt("0")),
    key("boundary", "piston_uy", Num(Any), &[], Opt("0")),
    key("control", "final_time", Num(Positive), &[], Opt("standard")),
    key("control", "max_steps", Int(AtLeast1), &[], Opt("100000")),
    key("control", "overlap", Ty::Bool, &[], Opt("true")),
    key("dt", "cfl_sf", Num(Positive), &[], Opt("0.5")),
    key("dt", "div_sf", Num(Positive), &[], Opt("0.25")),
    key("dt", "growth", Num(AtLeast1), &[], Opt("1.02")),
    key("dt", "dt_initial", Num(Positive), &[], Opt("0.00001")),
    key("dt", "dt_max", Num(Positive), &[], Opt("0.1")),
    key("dt", "dt_min", Num(Positive), &[], Opt("0.000000000001")),
    key("ale", "mode", Word(&["eulerian", "smooth"]), &[], Req),
    key("ale", "alpha", Num(UnitInterval), &["smooth"], Req),
    key("ale", "frequency", Int(AtLeast1), &[], Opt("1")),
    key("executor", "model", MODEL, &[], Opt("serial")),
    key("executor", "ranks", Int(AtLeast1), RANKED, Req),
    key("executor", "threads_per_rank", Int(AtLeast1), HYBRID, Req),
];

/// `` `a`, `b` or `c` `` — how a word list reads in a message.
fn one_of(words: &[&str]) -> String {
    let mut out = String::new();
    for (i, word) in words.iter().enumerate() {
        if i > 0 {
            out.push_str(if i + 1 == words.len() { " or " } else { ", " });
        }
        out.push('`');
        out.push_str(word);
        out.push('`');
    }
    out
}

/// `[A-Za-z0-9_-]+` — the charset deck/material/region names must use
/// so section headers like `[material.<name>]` stay parseable.
fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

impl Ty {
    /// Parse `raw` as a value of this type.
    fn parse<'a>(self, key: &str, raw: &'a str) -> Result<Val<'a>, String> {
        match self {
            Ty::Int(_) => raw
                .parse()
                .map(Val::Int)
                .map_err(|_| format!("`{key}` expects an integer, got `{raw}`")),
            // `inf`/`nan` parse as `f64`; no key admits them.
            Ty::Num(_) => match raw.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(Val::Num(v)),
                Ok(_) => Err(format!("`{key}` expects a finite number, got `{raw}`")),
                Err(_) => Err(format!("`{key}` expects a number, got `{raw}`")),
            },
            Ty::Bool => match raw {
                "true" => Ok(Val::Bool(true)),
                "false" => Ok(Val::Bool(false)),
                _ => Err(format!("`{key}` expects `true` or `false`, got `{raw}`")),
            },
            Ty::Ident => Ok(Val::Text(raw)),
            Ty::Word(words) if words.contains(&raw) => Ok(Val::Text(raw)),
            Ty::Word(words) => Err(format!("`{key}` must be {}, got `{raw}`", one_of(words))),
        }
    }

    /// What `val` would have to be to be admissible, when it is not.
    fn violated(self, val: Val<'_>) -> Option<&'static str> {
        let ((must_be, admits), v) = match (self, val) {
            (Ty::Int(range), Val::Int(n)) => (range.rule(), n as f64),
            (Ty::Num(range), Val::Num(v)) => (range.rule(), v),
            (Ty::Ident, Val::Text(name)) if !is_ident(name) => {
                return Some("a non-empty [A-Za-z0-9_-] name");
            }
            _ => return None,
        };
        // Every range implies *finite*.
        (!(v.is_finite() && admits(v))).then_some(must_be)
    }
}

// ---------------------------------------------------------------------------
// The flat form: sections of typed `key = value` entries, each with its
// 1-based source line (0 = built in code, not parsed).

/// A typed value; strings borrow from the deck text or the typed deck.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Val<'a> {
    Int(usize),
    Num(f64),
    Bool(bool),
    Text(&'a str),
}

impl fmt::Display for Val<'_> {
    /// Floats print in shortest round-trip form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Int(n) => n.fmt(f),
            Val::Num(v) => v.fmt(f),
            Val::Bool(b) => b.fmt(f),
            Val::Text(s) => f.write_str(s),
        }
    }
}

#[derive(Debug)]
struct Entry<'a> {
    key: &'static str,
    val: Val<'a>,
    line: usize,
}

#[derive(Debug)]
struct Section<'a> {
    def: &'static SectionDef,
    /// The instance name of a `[material.<name>]`-style section.
    name: &'a str,
    /// The header's line.
    line: usize,
    entries: Vec<Entry<'a>>,
}

impl fmt::Display for Section<'_> {
    /// How messages name the section: `[dt]`, `[region.<name>]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.def.name, self.def.named) {
            ("", _) => f.write_str("the top level"),
            (word, false) => write!(f, "[{word}]"),
            (word, true) => write!(f, "[{word}.{}]", self.name),
        }
    }
}

const CHECKED: &str = "`check` guarantees required keys";

impl<'a> Section<'a> {
    fn new(def: &'static SectionDef, name: &'a str, line: usize) -> Self {
        Section {
            def,
            name,
            line,
            entries: Vec::with_capacity(def.keys.len()),
        }
    }

    fn get(&self, key: &str) -> Option<&Entry<'a>> {
        self.entries.iter().find(|e| e.key == key)
    }

    fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)?.val {
            Val::Num(v) => Some(v),
            _ => None,
        }
    }

    fn int(&self, key: &str) -> Option<usize> {
        match self.get(key)?.val {
            Val::Int(n) => Some(n),
            _ => None,
        }
    }

    fn text(&self, key: &str) -> Option<&'a str> {
        match self.get(key)?.val {
            Val::Text(s) => Some(s),
            _ => None,
        }
    }

    /// An error anchored at `at`'s line, else at the header's; a
    /// [`DeckError::Config`] when there is no line to name.
    fn err(&self, at: Option<&Entry<'_>>, message: impl Into<String>) -> DeckError {
        let message = message.into();
        match at.map_or(self.line, |e| e.line) {
            0 => DeckError::Config { message },
            line => DeckError::Text { line, message },
        }
    }

    /// A named section's instance name: an identifier, used once.
    fn check_name(&self, earlier: &[Section<'_>]) -> Result<(), DeckError> {
        let word = self.def.name;
        if !is_ident(self.name) {
            let message = format!(
                "{word} name `{}` must be non-empty [A-Za-z0-9_-]",
                self.name
            );
            return Err(self.err(None, message));
        }
        if earlier
            .iter()
            .any(|s| s.def.name == word && s.name == self.name)
        {
            return Err(self.err(None, format!("duplicate section `{self}`")));
        }
        Ok(())
    }

    /// The table-driven checks of one section: required keys (in table
    /// order), applicability under the discriminator, value ranges.
    fn check_keys(&self) -> Result<(), DeckError> {
        let def = self.def;
        let disc = def.disc.and_then(|key| self.get(key));
        let word = def.disc.and_then(|key| self.text(key));
        let absent = |k: &&KeyDef| k.need == Req && k.applies(word) && self.get(k.key).is_none();
        if let Some(k) = def.keys.iter().find(absent) {
            // A variant misses its keys at the discriminator's line,
            // the section every other at its header's.
            let (at, who) = match disc {
                Some(d) if !k.when.is_empty() => (disc, format!("`{} = {}`", d.key, d.val)),
                _ => (None, self.to_string()),
            };
            let hint = match k.ty {
                Ty::Word(words) => format!(" = {}", one_of(words)),
                _ => String::new(),
            };
            return Err(self.err(at, format!("{who} requires `{}`{hint}", k.key)));
        }
        for e in &self.entries {
            let key = e.key;
            let Some(row) = def.keys.iter().find(|k| k.key == key && k.applies(word)) else {
                let disc = def
                    .disc
                    .expect("only a discriminator makes a row conditional");
                let message = match word {
                    Some(word) => format!("`{key}` does not apply to `{disc} = {word}`"),
                    None if def.name.is_empty() => format!("`{key}` requires a top-level `{disc}`"),
                    None => format!("`{key}` requires an {} `{disc}`", def.name),
                };
                return Err(self.err(Some(e), message));
            };
            if let Some(must_be) = row.ty.violated(e.val) {
                let message = format!("{self}: `{key}` must be {must_be}, got {}", e.val);
                return Err(self.err(Some(e), message));
            }
        }
        Ok(())
    }
}

fn text_err(line: usize, message: String) -> DeckError {
    DeckError::Text { line, message }
}

fn sections<'s, 'a>(
    flat: &'s [Section<'a>],
    word: &'s str,
) -> impl Iterator<Item = &'s Section<'a>> {
    flat.iter().filter(move |s| s.def.name == word)
}

/// Tokenise `text` into the flat form: look every key up in `SCHEMA`,
/// parse its value by the row's type, reject unknown and duplicate keys.
fn parse(text: &str) -> Result<Vec<Section<'_>>, DeckError> {
    let mut flat = vec![Section::new(&SECTIONS[0], "", 0)];
    let mut current = 0;
    for (idx, full_line) in text.lines().enumerate() {
        let line = idx + 1;
        // Strip comments and whitespace.
        let code = full_line.split('#').next().unwrap_or("").trim();
        if code.is_empty() {
            continue;
        }
        if let Some(rest) = code.strip_prefix('[') {
            let Some(header) = rest.strip_suffix(']') else {
                return Err(text_err(line, format!("unterminated section `{code}`")));
            };
            let header = header.trim();
            let (word, name) = match header.split_once('.') {
                Some((word, name)) => (word, Some(name)),
                None => (header, None),
            };
            let known = |d: &&SectionDef| d.name == word && d.named == name.is_some();
            let Some(def) = SECTIONS[1..].iter().find(known) else {
                return Err(text_err(line, format!("unknown section `[{header}]`")));
            };
            // A repeated `[control]` continues the first; a repeated
            // `[material.<name>]` is a new instance (`check` rejects
            // a duplicate name).
            current = match flat.iter().position(|s| !def.named && s.def.name == word) {
                Some(open) => open,
                None => {
                    flat.push(Section::new(def, name.unwrap_or(""), line));
                    flat.len() - 1
                }
            };
            continue;
        }
        let Some((key, raw)) = code.split_once('=') else {
            let message = format!("expected `key = value` or `[section]`, got `{code}`");
            return Err(text_err(line, message));
        };
        let (key, raw) = (key.trim(), raw.trim());
        if raw.is_empty() {
            return Err(text_err(line, format!("`{key}` has no value")));
        }
        let section = &mut flat[current];
        let Some(def) = section.def.keys.iter().find(|k| k.key == key) else {
            let message = format!("unknown key `{key}` in {section}");
            return Err(text_err(line, message));
        };
        // Duplicate keys are last-wins in many loose formats; TOML (our
        // subset) rejects them, and a silently ignored stale `nx = ..`
        // is exactly the typo class a strict parser exists to catch.
        if section.get(key).is_some() {
            return Err(text_err(line, format!("duplicate key `{key}`")));
        }
        let val = def.ty.parse(key, raw).map_err(|m| text_err(line, m))?;
        section.entries.push(Entry {
            key: def.key,
            val,
            line,
        });
    }
    Ok(flat)
}

/// The only validation a deck gets, text or typed: the table-driven
/// per-section checks, then the rules that span keys. `whole_deck` is
/// false for a bare [`GenericSpec`], which has no `[control]` to hold
/// the `final_time` a generic *deck* must set.
fn check(flat: &[Section<'_>], whole_deck: bool) -> Result<(), DeckError> {
    let top = &flat[0];
    let find = |word| sections(flat, word).next();
    let mesh = find("mesh");
    let problem = top.get("problem");
    if mesh.is_none() {
        if let Some(name) = top.get("name") {
            let message = "`name` applies only to generic decks (add a [mesh] section)";
            return Err(top.err(Some(name), message));
        }
        for def in SECTIONS.iter().filter(|d| d.generic_only) {
            if let Some(s) = find(def.name) {
                let message = format!("{s} applies only to generic decks (add a [mesh] section)");
                return Err(s.err(None, message));
            }
        }
        if problem.is_none() {
            let message =
                "deck needs a top-level `problem` key (named) or a [mesh] section (generic)";
            return Err(top.err(None, message));
        }
    } else if problem.is_some() {
        let message = "a deck gives either `problem` (named) or [mesh] (generic), not both";
        return Err(top.err(problem, message));
    }
    for (i, section) in flat.iter().enumerate().filter(|(_, s)| s.def.named) {
        section.check_name(&flat[..i])?;
    }
    for section in flat {
        section.check_keys()?;
    }

    if let Some(mesh) = mesh {
        let m = build_mesh(mesh);
        for (lo, hi, a, b) in [
            ("x0", "x1", m.origin.x, m.extent.x),
            ("y0", "y1", m.origin.y, m.extent.y),
        ] {
            if b <= a {
                let message = format!("mesh needs {hi} > {lo}, got [{a}, {b}]");
                return Err(mesh.err(mesh.get(hi).or(mesh.get(lo)), message));
            }
        }
        for kind in ["material", "region"] {
            if find(kind).is_none() {
                let message = format!("a generic deck needs at least one [{kind}.<name>] section");
                return Err(mesh.err(mesh.get("nx"), message));
            }
        }
        for region in sections(flat, "region") {
            check_region(region, flat)?;
        }
        if let Some(boundary) = find("boundary") {
            // In table (side) order, as the typed form lists them.
            let keys = boundary.def.keys.iter();
            let pistons: Vec<&Entry<'_>> = keys
                .filter_map(|k| boundary.get(k.key))
                .filter(|e| e.val == Val::Text("piston"))
                .collect();
            if let [_, second, ..] = pistons[..] {
                let sides: Vec<&str> = pistons.iter().map(|e| e.key).collect();
                let message = format!("at most one side may be a piston, got {}", sides.join(", "));
                return Err(boundary.err(Some(second), message));
            }
            let velocity = boundary.get("piston_ux").or(boundary.get("piston_uy"));
            if pistons.is_empty() && velocity.is_some() {
                let message = "piston velocity given but no side is `piston`";
                return Err(boundary.err(velocity, message));
            }
        }
        if whole_deck && find("control").and_then(|c| c.get("final_time")).is_none() {
            let message = "generic decks must set `final_time` in [control] \
                           (no standard end time to fall back on)";
            return Err(top.err(None, message));
        }
    }
    // Against the defaults when only one of the two is given.
    let dt = build_dt(find("dt"));
    if dt.dt_min > dt.dt_max {
        let s = find("dt").expect("the defaults are ordered, so a key was given");
        let message = format!("[dt] dt_min ({}) exceeds dt_max ({})", dt.dt_min, dt.dt_max);
        return Err(s.err(s.get("dt_min").or(s.get("dt_max")), message));
    }
    Ok(())
}

/// The cross-key rules of one `[region.<name>]`.
fn check_region(r: &Section<'_>, flat: &[Section<'_>]) -> Result<(), DeckError> {
    let handle = r.text("material").expect(CHECKED);
    let Some(material) = sections(flat, "material").find(|m| m.name == handle) else {
        let message = format!("{r} references unknown material `{handle}`");
        return Err(r.err(r.get("material"), message));
    };
    match build_shape(r) {
        Shape::Rect { x0, y0, x1, y1 } if x1 < x0 || y1 < y0 => {
            let message = format!("{r} rect needs x1 >= x0 and y1 >= y0");
            return Err(r.err(r.get("x1"), message));
        }
        Shape::HalfPlane {
            normal_x, normal_y, ..
        } if normal_x == 0.0 && normal_y == 0.0 => {
            let message = format!("{r} half-plane normal must be non-zero");
            return Err(r.err(r.get("normal_x"), message));
        }
        _ => {}
    }
    match (r.get("ein"), r.get("p")) {
        (Some(_), Some(p)) => {
            let message = format!("{r} gives both `ein` and `p`; pick one");
            return Err(r.err(Some(p), message));
        }
        (None, None) => return Err(r.err(None, format!("{r} requires `ein` or `p`"))),
        (None, Some(at)) => {
            let (rho, p) = (r.num("rho").expect(CHECKED), r.num("p").expect(CHECKED));
            if pressure_to_ein(&build_eos(material), rho, p).is_none() {
                let message = format!(
                    "{r}: material `{handle}` has a density-only EoS — \
                     pressure does not determine energy; give `ein`"
                );
                return Err(r.err(Some(at), message));
            }
        }
        (Some(_), None) => {}
    }
    if let (Some(_), Some(cartesian)) = (r.get("u_radial"), r.get("ux").or(r.get("uy"))) {
        let message = format!("{r} `ux`/`uy` do not combine with `u_radial`");
        return Err(r.err(Some(cartesian), message));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// flat → typed. `check` has passed: required keys are present, so the
// builders cannot fail.

fn build(flat: &[Section<'_>]) -> InputDeck {
    let top = &flat[0];
    let find = |word| sections(flat, word).next();
    let dims = (top.int("nx"), top.int("ny"), top.int("n"));
    let problem = match (top.text("problem"), dims) {
        (None, _) => ProblemSpec::Generic(Box::new(build_generic(flat))),
        (Some("sod"), (Some(nx), Some(ny), _)) => ProblemSpec::Sod { nx, ny },
        (Some("saltzmann"), (Some(nx), Some(ny), _)) => ProblemSpec::Saltzmann { nx, ny },
        (Some("noh"), (.., Some(n))) => ProblemSpec::Noh { n },
        (Some("sedov"), (.., Some(n))) => ProblemSpec::Sedov { n },
        (Some("underwater"), (.., Some(n))) => ProblemSpec::Underwater { n },
        _ => unreachable!("{CHECKED}"),
    };
    let control = find("control");
    let defaults = RunConfig::default();
    let ale = find("ale").map(|s| AleOptions {
        mode: match s.text("mode") {
            Some("smooth") => AleMode::Smooth {
                alpha: s.num("alpha").expect(CHECKED),
            },
            _ => AleMode::Eulerian,
        },
        frequency: s.int("frequency").unwrap_or(1),
    });
    let executor = find("executor").map_or(ExecutorKind::Serial, |s| {
        let count = |key| s.int(key).expect(CHECKED);
        match s.text("model") {
            Some("flat_mpi") => ExecutorKind::FlatMpi {
                ranks: count("ranks"),
            },
            Some("hybrid") => ExecutorKind::Hybrid {
                ranks: count("ranks"),
                threads_per_rank: count("threads_per_rank"),
            },
            _ => ExecutorKind::Serial,
        }
    });
    InputDeck {
        problem,
        final_time: control.and_then(|c| c.num("final_time")),
        max_steps: control
            .and_then(|c| c.int("max_steps"))
            .unwrap_or(defaults.max_steps),
        overlap: match control.and_then(|c| c.get("overlap")) {
            Some(e) => e.val == Val::Bool(true),
            None => defaults.overlap,
        },
        dt: build_dt(find("dt")),
        ale,
        executor,
    }
}

fn build_dt(section: Option<&Section<'_>>) -> DtControls {
    let d = DtControls::default();
    let num = |key, default| section.and_then(|s| s.num(key)).unwrap_or(default);
    DtControls {
        cfl_sf: num("cfl_sf", d.cfl_sf),
        div_sf: num("div_sf", d.div_sf),
        growth: num("growth", d.growth),
        dt_initial: num("dt_initial", d.dt_initial),
        dt_max: num("dt_max", d.dt_max),
        dt_min: num("dt_min", d.dt_min),
    }
}

fn build_generic(flat: &[Section<'_>]) -> GenericSpec {
    let material = |s: &Section<'_>| NamedMaterial {
        name: s.name.into(),
        eos: build_eos(s),
    };
    let mesh = sections(flat, "mesh").next().expect(CHECKED);
    GenericSpec {
        name: flat[0].text("name").unwrap_or("generic").into(),
        mesh: build_mesh(mesh),
        materials: sections(flat, "material").map(material).collect(),
        regions: sections(flat, "region").map(build_region).collect(),
        boundary: sections(flat, "boundary")
            .next()
            .map_or_else(BoundarySpec::default, build_boundary),
    }
}

fn build_mesh(s: &Section<'_>) -> MeshSpec {
    MeshSpec {
        nx: s.int("nx").expect(CHECKED),
        ny: s.int("ny").expect(CHECKED),
        origin: Vec2::new(s.num("x0").unwrap_or(0.0), s.num("y0").unwrap_or(0.0)),
        extent: Vec2::new(s.num("x1").unwrap_or(1.0), s.num("y1").unwrap_or(1.0)),
        skew: s.get("skew").map(|_| SkewKind::Saltzmann),
    }
}

fn build_eos(s: &Section<'_>) -> EosSpec {
    let p = |key| s.num(key).expect(CHECKED);
    match s.text("eos").expect(CHECKED) {
        "void" => EosSpec::Void,
        "ideal_gas" => EosSpec::IdealGas { gamma: p("gamma") },
        "tait" => EosSpec::Tait {
            p0: p("p0"),
            rho0: p("rho0"),
            gamma: p("gamma"),
        },
        _ => EosSpec::Jwl {
            a: p("a"),
            b: p("b"),
            r1: p("r1"),
            r2: p("r2"),
            omega: p("omega"),
            rho0: p("rho0"),
        },
    }
}

fn build_shape(s: &Section<'_>) -> Shape {
    let p = |key| s.num(key).expect(CHECKED);
    match s.text("shape").expect(CHECKED) {
        "rect" => Shape::Rect {
            x0: p("x0"),
            y0: p("y0"),
            x1: p("x1"),
            y1: p("y1"),
        },
        "circle" => Shape::Circle {
            cx: p("cx"),
            cy: p("cy"),
            r: p("r"),
        },
        _ => Shape::HalfPlane {
            normal_x: p("normal_x"),
            normal_y: p("normal_y"),
            offset: p("offset"),
        },
    }
}

fn build_region(s: &Section<'_>) -> RegionSpec {
    RegionSpec {
        name: s.name.into(),
        shape: build_shape(s),
        material: s.text("material").expect(CHECKED).into(),
        rho: s.num("rho").expect(CHECKED),
        energy: match s.num("ein") {
            Some(ein) => EnergyInit::Ein(ein),
            None => EnergyInit::Pressure(s.num("p").expect(CHECKED)),
        },
        velocity: match s.num("u_radial") {
            Some(speed) => VelocityInit::Radial { speed },
            None => VelocityInit::Constant(Vec2::new(
                s.num("ux").unwrap_or(0.0),
                s.num("uy").unwrap_or(0.0),
            )),
        },
    }
}

fn build_boundary(s: &Section<'_>) -> BoundarySpec {
    let side = |key| match s.text(key) {
        Some("free") => SideBc::Free,
        Some("piston") => SideBc::Piston,
        _ => SideBc::Reflective,
    };
    let sides = [side("left"), side("right"), side("bottom"), side("top")];
    let [left, right, bottom, top] = sides;
    BoundarySpec {
        left,
        right,
        bottom,
        top,
        // `check` admits a piston velocity only beside a piston side.
        piston_u: sides.contains(&SideBc::Piston).then(|| {
            Vec2::new(
                s.num("piston_ux").unwrap_or(0.0),
                s.num("piston_uy").unwrap_or(0.0),
            )
        }),
    }
}

impl FromStr for InputDeck {
    type Err = DeckError;

    fn from_str(text: &str) -> Result<Self, DeckError> {
        let flat = parse(text)?;
        check(&flat, true)?;
        Ok(build(&flat))
    }
}

// ---------------------------------------------------------------------------
// typed → flat, in the writer's order. `Display` prints the walk,
// `validate` collects it for `check`.

/// One step of a walk over a deck in canonical order: a section header
/// `(word, instance name)` or a `(key, value)` entry of the open section.
enum Item<'a> {
    Section(&'static str, &'a str),
    Entry(&'static str, Val<'a>),
}

/// The sink that collects a walk into `flat`, the flat form of a typed
/// deck (no source lines).
fn collector<'a, 'f>(flat: &'f mut Vec<Section<'a>>) -> impl FnMut(Item<'a>) + 'f {
    flat.push(Section::new(&SECTIONS[0], "", 0));
    |item| match item {
        Item::Section(word, name) => {
            let def = SECTIONS.iter().find(|d| d.name == word);
            flat.push(Section::new(def.expect("a grammar section"), name, 0));
        }
        Item::Entry(key, val) => {
            let open = flat.last_mut().expect("starts with the top level");
            open.entries.push(Entry { key, val, line: 0 });
        }
    }
}

/// `check` over a bare [`GenericSpec`] — [`GenericSpec::validate`].
pub(crate) fn check_generic(spec: &GenericSpec) -> Result<(), DeckError> {
    let mut flat = Vec::new();
    flatten_generic(spec, &mut collector(&mut flat));
    check(&flat, false)
}

fn nums<'a>(out: &mut (impl FnMut(Item<'a>) + ?Sized), entries: &[(&'static str, f64)]) {
    for &(key, v) in entries {
        out(Item::Entry(key, Val::Num(v)));
    }
}

/// A discriminator entry, then its variant's numeric entries.
fn variant<'a>(
    out: &mut (impl FnMut(Item<'a>) + ?Sized),
    disc: &'static str,
    word: &'static str,
    entries: &[(&'static str, f64)],
) {
    out(Item::Entry(disc, Val::Text(word)));
    nums(out, entries);
}

impl InputDeck {
    /// Walk the deck in canonical order, omitting what the canonical
    /// text omits (an absent `final_time`, a Lagrangian deck's `[ale]`).
    /// Named decks keep the exact order the versioned checkpoint format
    /// embeds — do not reorder their keys.
    fn flatten<'a>(&'a self, out: &mut (impl FnMut(Item<'a>) + ?Sized)) {
        use Item::{Entry, Section};
        use Val::{Bool, Int, Text};
        match self.problem {
            ProblemSpec::Generic(ref g) => flatten_generic(g, out),
            ProblemSpec::Sod { nx, ny } | ProblemSpec::Saltzmann { nx, ny } => {
                out(Entry("problem", Text(self.problem.name())));
                out(Entry("nx", Int(nx)));
                out(Entry("ny", Int(ny)));
            }
            ProblemSpec::Noh { n } | ProblemSpec::Sedov { n } | ProblemSpec::Underwater { n } => {
                out(Entry("problem", Text(self.problem.name())));
                out(Entry("n", Int(n)));
            }
        }
        out(Section("control", ""));
        if let Some(t) = self.final_time {
            out(Entry("final_time", Val::Num(t)));
        }
        out(Entry("max_steps", Int(self.max_steps)));
        out(Entry("overlap", Bool(self.overlap)));
        out(Section("dt", ""));
        let dt = &self.dt;
        nums(
            out,
            &[
                ("cfl_sf", dt.cfl_sf),
                ("div_sf", dt.div_sf),
                ("growth", dt.growth),
                ("dt_initial", dt.dt_initial),
                ("dt_max", dt.dt_max),
                ("dt_min", dt.dt_min),
            ],
        );
        if let Some(ale) = self.ale {
            out(Section("ale", ""));
            match ale.mode {
                AleMode::Eulerian => variant(out, "mode", "eulerian", &[]),
                AleMode::Smooth { alpha } => variant(out, "mode", "smooth", &[("alpha", alpha)]),
            }
            out(Entry("frequency", Int(ale.frequency)));
        }
        out(Section("executor", ""));
        match self.executor {
            ExecutorKind::Serial => out(Entry("model", Text("serial"))),
            ExecutorKind::FlatMpi { ranks } => {
                out(Entry("model", Text("flat_mpi")));
                out(Entry("ranks", Int(ranks)));
            }
            ExecutorKind::Hybrid {
                ranks,
                threads_per_rank,
            } => {
                out(Entry("model", Text("hybrid")));
                out(Entry("ranks", Int(ranks)));
                out(Entry("threads_per_rank", Int(threads_per_rank)));
            }
        }
    }
}

fn flatten_generic<'a>(g: &'a GenericSpec, out: &mut (impl FnMut(Item<'a>) + ?Sized)) {
    use Item::{Entry, Section};
    use Val::{Int, Text};
    out(Entry("name", Text(&g.name)));
    out(Section("mesh", ""));
    out(Entry("nx", Int(g.mesh.nx)));
    out(Entry("ny", Int(g.mesh.ny)));
    let (origin, extent) = (g.mesh.origin, g.mesh.extent);
    nums(
        out,
        &[
            ("x0", origin.x),
            ("y0", origin.y),
            ("x1", extent.x),
            ("y1", extent.y),
        ],
    );
    if let Some(SkewKind::Saltzmann) = g.mesh.skew {
        out(Entry("skew", Text("saltzmann")));
    }
    for mat in &g.materials {
        out(Section("material", &mat.name));
        match mat.eos {
            EosSpec::Void => variant(out, "eos", "void", &[]),
            EosSpec::IdealGas { gamma } => variant(out, "eos", "ideal_gas", &[("gamma", gamma)]),
            EosSpec::Tait { p0, rho0, gamma } => {
                variant(
                    out,
                    "eos",
                    "tait",
                    &[("p0", p0), ("rho0", rho0), ("gamma", gamma)],
                );
            }
            EosSpec::Jwl {
                a,
                b,
                r1,
                r2,
                omega,
                rho0,
            } => {
                let params = [
                    ("a", a),
                    ("b", b),
                    ("r1", r1),
                    ("r2", r2),
                    ("omega", omega),
                    ("rho0", rho0),
                ];
                variant(out, "eos", "jwl", &params);
            }
        }
    }
    for reg in &g.regions {
        out(Section("region", &reg.name));
        match reg.shape {
            Shape::Rect { x0, y0, x1, y1 } => {
                variant(
                    out,
                    "shape",
                    "rect",
                    &[("x0", x0), ("y0", y0), ("x1", x1), ("y1", y1)],
                );
            }
            Shape::Circle { cx, cy, r } => {
                variant(out, "shape", "circle", &[("cx", cx), ("cy", cy), ("r", r)]);
            }
            Shape::HalfPlane {
                normal_x,
                normal_y,
                offset,
            } => {
                let params = [
                    ("normal_x", normal_x),
                    ("normal_y", normal_y),
                    ("offset", offset),
                ];
                variant(out, "shape", "halfplane", &params);
            }
        }
        out(Entry("material", Text(&reg.material)));
        nums(out, &[("rho", reg.rho)]);
        match reg.energy {
            EnergyInit::Ein(e) => nums(out, &[("ein", e)]),
            EnergyInit::Pressure(p) => nums(out, &[("p", p)]),
        }
        match reg.velocity {
            VelocityInit::Constant(v) => nums(out, &[("ux", v.x), ("uy", v.y)]),
            VelocityInit::Radial { speed } => nums(out, &[("u_radial", speed)]),
        }
    }
    if g.boundary != BoundarySpec::default() {
        out(Section("boundary", ""));
        for (side, bc) in g.boundary.sides() {
            let word = match bc {
                SideBc::Reflective => "reflective",
                SideBc::Free => "free",
                SideBc::Piston => "piston",
            };
            out(Entry(side, Text(word)));
        }
        if let Some(u) = g.boundary.piston_u {
            nums(out, &[("piston_ux", u.x), ("piston_uy", u.y)]);
        }
    }
}

impl fmt::Display for Item<'_> {
    /// One line of canonical text (a header brings its blank line).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Item::Section(word, "") => write!(f, "\n[{word}]\n"),
            Item::Section(word, name) => write!(f, "\n[{word}.{name}]\n"),
            Item::Entry(key, val) => {
                f.write_str(key)?;
                f.write_str(" = ")?;
                val.fmt(f)?;
                f.write_str("\n")
            }
        }
    }
}

impl fmt::Display for InputDeck {
    /// Canonical text form; `deck.to_string().parse()` reproduces the
    /// deck exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("# BookLeaf-rs input deck\n")?;
        let mut result = Ok(());
        self.flatten(&mut |item| result = result.and_then(|()| item.fmt(f)));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_deck_parses_with_defaults() {
        let deck: InputDeck = "problem = noh\nn = 16\n".parse().unwrap();
        assert_eq!(deck.problem, ProblemSpec::Noh { n: 16 });
        assert_eq!(deck.executor, ExecutorKind::Serial);
        assert_eq!(deck.ale, None);
        assert_eq!(deck.final_time, None);
        assert_eq!(deck.dt, DtControls::default());
        let config = deck.run_config();
        assert!((config.final_time - 0.6).abs() < 1e-15);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# a comment\nproblem = sod # inline\n  nx = 8\nny = 2\n\n";
        let deck: InputDeck = text.parse().unwrap();
        assert_eq!(deck.problem, ProblemSpec::Sod { nx: 8, ny: 2 });
    }

    #[test]
    fn full_deck_round_trips_exactly() {
        let deck = InputDeck {
            problem: ProblemSpec::Saltzmann { nx: 40, ny: 4 },
            final_time: Some(0.37),
            max_steps: 1234,
            overlap: false,
            dt: DtControls {
                cfl_sf: 0.41,
                dt_initial: 3.25e-6,
                ..DtControls::default()
            },
            ale: Some(AleOptions {
                mode: AleMode::Smooth { alpha: 0.625 },
                frequency: 7,
            }),
            executor: ExecutorKind::Hybrid {
                ranks: 3,
                threads_per_rank: 2,
            },
        };
        let text = deck.to_string();
        let back: InputDeck = text.parse().unwrap();
        assert_eq!(back, deck);
    }

    #[test]
    fn generic_deck_parses_and_round_trips() {
        let text = "\
name = shocktube

[mesh]
nx = 8
ny = 2
x0 = 0
y0 = 0
x1 = 1
y1 = 0.25

[material.gas]
eos = ideal_gas
gamma = 1.4

[region.left]
shape = rect
x0 = 0
y0 = 0
x1 = 0.5
y1 = 0.25
material = gas
rho = 1
ein = 2.5

[region.right]
shape = rect
x0 = 0.5
y0 = 0
x1 = 1
y1 = 0.25
material = gas
rho = 0.125
p = 0.1

[control]
final_time = 0.2
";
        let deck: InputDeck = text.parse().unwrap();
        let ProblemSpec::Generic(g) = &deck.problem else {
            panic!("expected generic, got {:?}", deck.problem);
        };
        assert_eq!(g.name, "shocktube");
        assert_eq!(g.mesh.nx, 8);
        assert_eq!(g.materials.len(), 1);
        assert_eq!(g.regions.len(), 2);
        assert_eq!(g.regions[1].energy, EnergyInit::Pressure(0.1));
        // Canonical form round trips exactly.
        let canon = deck.to_string();
        let back: InputDeck = canon.parse().unwrap();
        assert_eq!(back, deck);
        assert_eq!(back.to_string(), canon);
        // And builds a runnable deck.
        let built = deck.build_deck().unwrap();
        built.validate().unwrap();
        assert_eq!(built.name, "shocktube");
        assert_eq!(built.mesh.n_elements(), 16);
    }

    #[test]
    fn generic_value_errors_are_line_anchored() {
        // rho on line 12 is negative.
        let text = "\
[mesh]
nx = 4
ny = 4

[material.gas]
eos = ideal_gas
gamma = 1.4

[region.all]
shape = rect
x0 = 0
rho = -1
y0 = 0
x1 = 1
y1 = 1
material = gas
ein = 1

[control]
final_time = 0.1
";
        match text.parse::<InputDeck>().unwrap_err() {
            DeckError::Text { line, message } => {
                assert_eq!(line, 12, "{message}");
                assert!(message.contains("rho"), "{message}");
            }
            other => panic!("expected Text error, got {other:?}"),
        }
    }

    #[test]
    fn generic_unknown_material_is_anchored_to_the_reference() {
        let text = "\
[mesh]
nx = 4
ny = 4

[material.gas]
eos = ideal_gas
gamma = 1.4

[region.all]
shape = rect
x0 = 0
y0 = 0
x1 = 1
y1 = 1
material = steel
rho = 1
ein = 1

[control]
final_time = 0.1
";
        match text.parse::<InputDeck>().unwrap_err() {
            DeckError::Text { line, message } => {
                assert_eq!(line, 15, "{message}");
                assert!(message.contains("steel"), "{message}");
            }
            other => panic!("expected Text error, got {other:?}"),
        }
    }

    #[test]
    fn generic_requires_final_time() {
        let text = "\
[mesh]
nx = 4
ny = 4

[material.gas]
eos = ideal_gas
gamma = 1.4

[region.all]
shape = rect
x0 = 0
y0 = 0
x1 = 1
y1 = 1
material = gas
rho = 1
ein = 1
";
        let err = text.parse::<InputDeck>().unwrap_err();
        assert!(
            matches!(&err, DeckError::Config { message } if message.contains("final_time")),
            "{err:?}"
        );
    }

    #[test]
    fn problem_and_mesh_are_mutually_exclusive() {
        let err = "problem = noh\nn = 4\n[mesh]\nnx = 2\nny = 2\n"
            .parse::<InputDeck>()
            .unwrap_err();
        assert!(matches!(err, DeckError::Text { line: 1, .. }), "{err:?}");
        // Generic-only sections without [mesh] are rejected too.
        let err = "problem = noh\nn = 4\n[boundary]\nleft = free\n"
            .parse::<InputDeck>()
            .unwrap_err();
        assert!(matches!(err, DeckError::Text { line: 3, .. }), "{err:?}");
    }

    #[test]
    fn eos_and_shape_key_sets_are_policed() {
        let base = "[mesh]\nnx = 2\nny = 2\n\n[material.m]\n";
        // tait parameter on an ideal gas (line 7).
        let err = format!("{base}eos = ideal_gas\np0 = 3\ngamma = 1.4\n")
            .parse::<InputDeck>()
            .unwrap_err();
        assert!(matches!(err, DeckError::Text { line: 7, .. }), "{err:?}");
        // Missing circle radius: anchored at the shape line.
        let text = "\
[mesh]
nx = 2
ny = 2

[material.m]
eos = ideal_gas
gamma = 1.4

[region.all]
shape = circle
cx = 0
cy = 0
material = m
rho = 1
ein = 1

[control]
final_time = 0.1
";
        let err = text.parse::<InputDeck>().unwrap_err();
        assert!(matches!(err, DeckError::Text { line: 10, .. }), "{err:?}");
    }

    #[test]
    fn errors_are_line_anchored() {
        // Line 3 holds the bad value.
        let text = "problem = sod\nnx = 8\nny = twelve\n";
        match text.parse::<InputDeck>().unwrap_err() {
            DeckError::Text { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("ny"), "{message}");
            }
            other => panic!("expected Text error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_keys_and_sections_are_rejected() {
        let err = "problem = noh\nn = 8\nfrequncy = 3\n"
            .parse::<InputDeck>()
            .unwrap_err();
        assert!(matches!(err, DeckError::Text { line: 3, .. }), "{err:?}");
        let err = "problem = noh\nn = 8\n[advanced]\n"
            .parse::<InputDeck>()
            .unwrap_err();
        assert!(matches!(err, DeckError::Text { line: 3, .. }), "{err:?}");
    }

    #[test]
    fn mismatched_problem_dimensions_are_rejected() {
        let err = "problem = noh\nnx = 8\nn = 8\n"
            .parse::<InputDeck>()
            .unwrap_err();
        assert!(matches!(err, DeckError::Text { line: 2, .. }), "{err:?}");
        let err = "problem = sod\nnx = 8\n".parse::<InputDeck>().unwrap_err();
        assert!(matches!(err, DeckError::Text { line: 1, .. }), "{err:?}");
    }

    #[test]
    fn executor_key_consistency_is_enforced() {
        let err = "problem = noh\nn = 8\n[executor]\nmodel = flat_mpi\n"
            .parse::<InputDeck>()
            .unwrap_err();
        assert!(matches!(err, DeckError::Text { line: 4, .. }), "{err:?}");
        let err = "problem = noh\nn = 8\n[executor]\nmodel = serial\nranks = 2\n"
            .parse::<InputDeck>()
            .unwrap_err();
        assert!(matches!(err, DeckError::Text { line: 5, .. }), "{err:?}");
    }

    #[test]
    fn semantic_nonsense_fails_config_validation() {
        let mut deck = InputDeck::new(ProblemSpec::Noh { n: 8 });
        deck.max_steps = 0;
        assert!(matches!(
            deck.validate().unwrap_err(),
            DeckError::Config { .. }
        ));
        // The same nonsense in a text deck names its line.
        let err = "problem = noh\nn = 0\n".parse::<InputDeck>().unwrap_err();
        assert!(matches!(err, DeckError::Text { line: 2, .. }), "{err:?}");
        let err = "problem = noh\nn = 8\n\n[control]\nmax_steps = 0\n"
            .parse::<InputDeck>()
            .unwrap_err();
        assert!(matches!(err, DeckError::Text { line: 5, .. }), "{err:?}");
    }

    #[test]
    fn recommended_final_times_match_constructed_decks() {
        for spec in [
            ProblemSpec::Sod { nx: 4, ny: 2 },
            ProblemSpec::Noh { n: 4 },
            ProblemSpec::Sedov { n: 4 },
            ProblemSpec::Saltzmann { nx: 4, ny: 2 },
            ProblemSpec::Underwater { n: 4 },
        ] {
            let deck = InputDeck::new(spec.clone()).build_deck().unwrap();
            assert_eq!(
                deck.recommended_final_time,
                spec.recommended_final_time(),
                "{}",
                spec.name()
            );
        }
    }

    // -----------------------------------------------------------------
    // Table-driven: every assertion below is made once per `SCHEMA` row.

    /// Between them the fixtures hold every row of the grammar.
    const FIXTURES: [&str; 3] = [
        include_str!("../../../tests/fixtures/decks/kitchen_sink.deck"),
        include_str!("../../../tests/fixtures/decks/named_sod.deck"),
        include_str!("../../../tests/fixtures/decks/named_noh.deck"),
    ];

    fn section_of(row: &KeyDef) -> &'static SectionDef {
        let found = SECTIONS.iter().find(|s| s.name == row.section);
        found.unwrap_or_else(|| panic!("row `{}` names no section", row.key))
    }

    fn word_of<'a>(section: &Section<'a>) -> Option<&'a str> {
        section.def.disc.and_then(|key| section.text(key))
    }

    /// The line `text` is rejected at.
    fn rejected_at(text: &str, why: &str) -> usize {
        match text.parse::<InputDeck>() {
            Err(DeckError::Text { line, .. }) => line,
            other => panic!("{why}: expected a line-anchored error, got {other:?}\n{text}"),
        }
    }

    /// `text` with line `at` (1-based) removed, replaced or followed by
    /// `with`.
    fn edit(text: &str, at: usize, with: Option<&str>, keep: bool) -> String {
        let mut out = String::new();
        for (i, line) in text.lines().enumerate() {
            if i + 1 != at || keep {
                out.push_str(line);
                out.push('\n');
            }
            if let (true, Some(with)) = (i + 1 == at, with) {
                out.push_str(with);
                out.push('\n');
            }
        }
        out
    }

    #[test]
    fn schema_is_well_formed() {
        for (i, row) in SCHEMA.iter().enumerate() {
            let section = section_of(row);
            // Contiguous sections: `Section::new` slices them out.
            let first = SCHEMA
                .iter()
                .position(|k| k.section == row.section)
                .unwrap();
            assert!(
                SCHEMA[first..=i].iter().all(|k| k.section == row.section),
                "[{}] rows are split",
                row.section
            );
            // A key with several rows has one type and disjoint variants.
            for other in SCHEMA[..i].iter().filter(|k| k.section == row.section) {
                if other.key == row.key {
                    assert_eq!(
                        std::mem::discriminant(&other.ty),
                        std::mem::discriminant(&row.ty),
                        "{}",
                        row.key
                    );
                    assert!(!row.when.is_empty() && !other.when.is_empty());
                    assert!(row.when.iter().all(|w| !other.when.contains(w)));
                }
            }
            // Conditional rows name words of the section's discriminator.
            if !row.when.is_empty() {
                let disc = section
                    .disc
                    .expect("a conditional row needs a discriminator");
                let words = SCHEMA
                    .iter()
                    .find(|k| k.section == row.section && k.key == disc)
                    .map(|k| k.ty);
                let Some(Ty::Word(words)) = words else {
                    panic!("[{}] discriminator `{disc}` is not a word", row.section);
                };
                assert!(row.when.iter().all(|w| words.contains(w)), "{}", row.key);
            }
        }
        assert!(Range::MeshDim.rule().0.contains(&MAX_MESH_DIM.to_string()));
    }

    #[test]
    fn every_row_parses_prints_and_is_policed() {
        for row in SCHEMA {
            let why = format!("[{}] `{}` under {:?}", row.section, row.key, row.when);
            // Where the row lives: fixture, section, entry.
            let home = FIXTURES.iter().find_map(|text| {
                let flat = parse(text).unwrap();
                let hit = flat.iter().position(|s| {
                    s.def.name == row.section && s.get(row.key).is_some() && row.applies(word_of(s))
                })?;
                Some((*text, flat, hit))
            });
            let (text, flat, hit) = home.unwrap_or_else(|| panic!("{why}: in no fixture"));
            let section = &flat[hit];
            let entry = section.get(row.key).unwrap();

            // It survives the canonical print.
            let canon = text.parse::<InputDeck>().unwrap().to_string();
            let printed = parse(&canon).unwrap();
            let same = |s: &&Section<'_>| s.def.name == row.section && s.name == section.name;
            let reprinted = printed.iter().find(same).and_then(|s| s.get(row.key));
            assert_eq!(reprinted.map(|e| e.val), Some(entry.val), "{why}");

            // Required: deleting it is an error at the discriminator's
            // line for a variant's key, else at the header's.
            if row.need == Req {
                let anchor = match section.def.disc.and_then(|d| section.get(d)) {
                    Some(disc) if !row.when.is_empty() => disc.line,
                    _ => section.line,
                };
                let shifted = anchor - usize::from(anchor > entry.line);
                let got = rejected_at(&edit(text, entry.line, None, false), &why);
                assert_eq!(got, shifted, "{why}: deleted");
            }

            // Conditional: under a variant it does not apply to, it is
            // an error at its own line.
            if !row.when.is_empty() {
                let source = text.lines().nth(entry.line - 1).unwrap();
                let host = FIXTURES.iter().find_map(|text| {
                    let flat = parse(text).unwrap();
                    let host = flat.iter().find(|s| {
                        s.def.name == row.section
                            && s.get(row.key).is_none()
                            && word_of(s).is_some_and(|w| !row.when.contains(&w))
                    })?;
                    let disc = host.get(host.def.disc?)?;
                    Some((*text, disc.line))
                });
                let (host, after) = host.unwrap_or_else(|| panic!("{why}: no other variant"));
                let got = rejected_at(&edit(host, after, Some(source), true), &why);
                assert_eq!(got, after + 1, "{why}: misplaced");
            }

            // Out of range (or of the wrong type): an error at its line.
            let bad: &[&str] = match row.ty {
                Ty::Int(Range::MeshDim) => &["0", "8193", "-1", "1.5"],
                Ty::Int(_) => &["0", "-1", "many"],
                Ty::Num(Range::Any) => &["inf", "nan", "fast"],
                Ty::Num(Range::Positive) => &["0", "-1"],
                Ty::Num(Range::NonNegative) => &["-1"],
                Ty::Num(Range::Above1) => &["1", "0"],
                Ty::Num(Range::AtLeast1) => &["0.5"],
                Ty::Num(Range::UnitInterval) => &["0", "1.5"],
                Ty::Num(Range::MeshDim) => unreachable!("mesh dimensions are integers"),
                Ty::Bool => &["maybe", "1"],
                Ty::Ident => &["no!", "a b"],
                Ty::Word(_) => &["zz", "0"],
            };
            for value in bad {
                let line = format!("{} = {value}", row.key);
                let got = rejected_at(&edit(text, entry.line, Some(&line), false), &why);
                assert_eq!(got, entry.line, "{why}: `{line}`");
            }
        }
    }

    /// The module-docs row of a grammar row, up to its free-text
    /// "meaning" column.
    fn doc_row(row: &KeyDef) -> String {
        let section = section_of(row);
        let place = match (section.name, section.named) {
            ("", _) => "top level".to_string(),
            (word, false) => format!("`[{word}]`"),
            (word, true) => format!("`[{word}.<name>]`"),
        };
        let words = |list: &[&str]| {
            let quoted: Vec<String> = list.iter().map(|w| format!("`{w}`")).collect();
            quoted.join(" \\| ")
        };
        let ranged = |what: &str, range: Range| match range {
            Range::Any => what.to_string(),
            _ => format!("{what}, {}", range.rule().0),
        };
        let value = match row.ty {
            Ty::Int(range) => ranged("int", range),
            Ty::Num(range) => ranged("float", range),
            Ty::Bool => words(&["true", "false"]),
            Ty::Ident => "name".to_string(),
            Ty::Word(list) => words(list),
        };
        let under = match (section.disc, row.when) {
            (_, []) => String::new(),
            (Some(disc), when) => format!("`{disc}` = {}", words(when)),
            (None, _) => unreachable!("checked by schema_is_well_formed"),
        };
        let default = match row.need {
            Req => "required",
            Opt(default) => default,
        };
        format!(
            "//! | {place} | `{}` | {value} | {under} | {default} |",
            row.key
        )
    }

    #[test]
    fn module_docs_table_is_the_schema() {
        let source = include_str!("input.rs");
        let table: Vec<&str> = source
            .lines()
            .filter(|l| l.starts_with("//! | ") && !l.starts_with("//! | section"))
            .collect();
        let expected: Vec<String> = SCHEMA.iter().map(doc_row).collect();
        let listing = expected.join("\n");
        assert_eq!(
            table.len(),
            expected.len(),
            "one docs row per key:\n{listing}"
        );
        for (have, want) in table.iter().zip(&expected) {
            assert!(
                have.starts_with(want.as_str()),
                "docs row\n{have}\nwants\n{want}"
            );
        }
    }

    #[test]
    fn documented_defaults_are_what_an_omitted_key_gets() {
        // Whatever the canonical print adds to a deck that omitted it
        // is that key's default.
        let sparse = "\
[mesh]
nx = 2
ny = 2
[material.m]
eos = void
[region.r]
shape = rect
x0 = 0
y0 = 0
x1 = 1
y1 = 1
material = m
rho = 1
ein = 0
[boundary]
left = piston
[ale]
mode = eulerian
[control]
final_time = 1
";
        let given = parse(sparse).unwrap();
        let canon = sparse.parse::<InputDeck>().unwrap().to_string();
        let mut added = 0;
        for section in parse(&canon).unwrap() {
            let same = |s: &&Section<'_>| s.def.name == section.def.name;
            for entry in &section.entries {
                if given
                    .iter()
                    .find(same)
                    .is_some_and(|s| s.get(entry.key).is_some())
                {
                    continue;
                }
                let row = section
                    .def
                    .keys
                    .iter()
                    .find(|k| k.key == entry.key)
                    .unwrap();
                let default = match row.need {
                    Opt(default) => default,
                    Req => "required",
                };
                assert_eq!(
                    default,
                    entry.val.to_string(),
                    "[{}] {}",
                    row.section,
                    row.key
                );
                added += 1;
            }
        }
        assert_eq!(added, 22, "{canon}");
    }
}
