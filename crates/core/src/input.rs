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
//! which the parser, the validator, the table in these docs, the writer
//! and the reader all read. The table says which keys there are; one
//! description per typed section says which typed field each key is,
//! and the writer (typed → text) and the reader (checked text → typed)
//! both run that one description.
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
use std::mem::discriminant;
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

    /// The problem's standard end time: the run's `final_time` when its
    /// deck sets none ([`InputDeck::run_config`]). Generic scenarios
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
        self.emit(collector(&mut flat));
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
            ProblemSpec::Generic(g) => g.build_validated()?,
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
// The grammar, once, as data. The parser, `check`, the descriptions in
// `keys` (the writer and the reader) and the table in the module docs
// all read `SCHEMA`.

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

// The words of each discriminator, in the order its description in
// `keys` lists the variants they name.
const PROBLEM: &[&str] = &["sod", "noh", "sedov", "saltzmann", "underwater"];
const NX_NY: &[&str] = &["sod", "saltzmann"];
const N: &[&str] = &["noh", "sedov", "underwater"];
const SKEW: &[&str] = &["saltzmann"];
const EOS: &[&str] = &["ideal_gas", "tait", "jwl", "void"];
const TAIT: &[&str] = &["tait"];
const JWL: &[&str] = &["jwl"];
const SHAPE: &[&str] = &["rect", "circle", "halfplane"];
const RECT: &[&str] = &["rect"];
const CIRCLE: &[&str] = &["circle"];
const HALFPLANE: &[&str] = &["halfplane"];
const SIDE_BC: &[&str] = &["reflective", "free", "piston"];
const ALE_MODE: &[&str] = &["eulerian", "smooth"];
const MODEL: &[&str] = &["serial", "flat_mpi", "hybrid"];
const RANKED: &[&str] = &["flat_mpi", "hybrid"];
const HYBRID: &[&str] = &["hybrid"];

/// (section, key, type and range, applies under, required or default);
/// a section's rows are contiguous.
const SCHEMA: &[KeyDef] = &[
    key("", "problem", Word(PROBLEM), &[], Opt("—")),
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
    key("mesh", "skew", Word(SKEW), &[], Opt("—")),
    key("material", "eos", Word(EOS), &[], Req),
    key("material", "gamma", Num(Above1), &["ideal_gas"], Req),
    key("material", "gamma", Num(AtLeast1), TAIT, Req),
    key("material", "p0", Num(Positive), TAIT, Req),
    key("material", "rho0", Num(Positive), &["tait", "jwl"], Req),
    key("material", "a", Num(NonNegative), JWL, Req),
    key("material", "b", Num(NonNegative), JWL, Req),
    key("material", "r1", Num(Positive), JWL, Req),
    key("material", "r2", Num(Positive), JWL, Req),
    key("material", "omega", Num(Positive), JWL, Req),
    key("region", "shape", Word(SHAPE), &[], Req),
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
    key("boundary", "left", Word(SIDE_BC), &[], Opt("reflective")),
    key("boundary", "right", Word(SIDE_BC), &[], Opt("reflective")),
    key("boundary", "bottom", Word(SIDE_BC), &[], Opt("reflective")),
    key("boundary", "top", Word(SIDE_BC), &[], Opt("reflective")),
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
    key("ale", "mode", Word(ALE_MODE), &[], Req),
    key("ale", "alpha", Num(UnitInterval), &["smooth"], Req),
    key("ale", "frequency", Int(AtLeast1), &[], Opt("1")),
    key("executor", "model", Word(MODEL), &[], Opt("serial")),
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

    fn text(&self, key: &str) -> Option<&'a str> {
        Field::of(self.get(key)?.val)
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
        let m = keys::mesh(&mut Fill(Some(mesh)), &MeshSpec::unit_square(0));
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
    let dt = keys::dt(&mut Fill(find("dt")), DtControls::default());
    if dt.dt_min > dt.dt_max {
        let s = find("dt").expect("the defaults are ordered, so a key was given");
        let message = format!("[dt] dt_min ({}) exceeds dt_max ({})", dt.dt_min, dt.dt_max);
        return Err(s.err(s.get("dt_min").or(s.get("dt_max")), message));
    }
    Ok(())
}

/// The cross-key rules of one `[region.<name>]`.
fn check_region(r: &Section<'_>, flat: &[Section<'_>]) -> Result<(), DeckError> {
    let (shape, handle, rho, energy, _) = keys::region(&mut Fill(Some(r)), keys::BLANK_REGION);
    let Some(material) = sections(flat, "material").find(|m| m.name == handle) else {
        let message = format!("{r} references unknown material `{handle}`");
        return Err(r.err(r.get("material"), message));
    };
    match shape {
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
        _ => {}
    }
    if let EnergyInit::Pressure(p) = energy {
        let eos = keys::eos(&mut Fill(Some(material)), EosSpec::Void);
        if pressure_to_ein(&eos, rho, p).is_none() {
            let message = format!(
                "{r}: material `{handle}` has a density-only EoS — \
                 pressure does not determine energy; give `ein`"
            );
            return Err(r.err(r.get("p"), message));
        }
    }
    if let (Some(_), Some(cartesian)) = (r.get("u_radial"), r.get("ux").or(r.get("uy"))) {
        let message = format!("{r} `ux`/`uy` do not combine with `u_radial`");
        return Err(r.err(Some(cartesian), message));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The one description of each typed section: its keys in canonical
// order, each handed its typed field. Run through `Emit` it is the
// writer (typed → items); run through `Fill` over a section `check` has
// passed, it is the reader (flat → typed).

/// A field type a key's value converts to and from.
trait Field<'a>: Copy {
    fn to_val(self) -> Val<'a>;
    fn of(val: Val<'a>) -> Option<Self>;
}

macro_rules! field {
    ($($ty:ty => $v:ident),*) => {$(
        impl<'a> Field<'a> for $ty {
            fn to_val(self) -> Val<'a> {
                Val::$v(self)
            }
            fn of(val: Val<'a>) -> Option<Self> {
                match val {
                    Val::$v(v) => Some(v),
                    _ => None,
                }
            }
        }
    )*};
}

field!(usize => Int, f64 => Num, bool => Bool, &'a str => Text);

/// One direction of a description.
trait Io<'a> {
    /// An optional key, present iff `v` is `Some`: emitting writes `v`
    /// and returns it; filling returns what the section gives the key.
    fn opt<T: Field<'a>>(&mut self, key: &'static str, v: Option<T>) -> Option<T>;

    /// A key with a value: emitting writes `v`; filling keeps `v` (the
    /// default) where the section does not give the key.
    fn val<T: Field<'a>>(&mut self, key: &'static str, v: T) -> T {
        self.opt(key, Some(v)).unwrap_or(v)
    }

    /// A discriminator: `key`'s `words` name `all` the variants, in that
    /// order and with their fields zeroed. Emitting writes the word of
    /// `v`'s variant (nothing for a variant `all` leaves out); filling
    /// turns `v` into the variant the section names — zeroed, for the
    /// description to fill next — and keeps `v` where it names none.
    fn pick<T: Clone>(&mut self, key: &'static str, words: &[&'a str], v: T, all: &[T]) -> T {
        let same = |other: &T| discriminant(other) == discriminant(&v);
        let word = all.iter().position(same).map(|i| words[i]);
        let named = self
            .opt(key, word)
            .and_then(|w| words.iter().position(|&x| x == w));
        match named {
            Some(i) if !same(&all[i]) => all[i].clone(),
            _ => v,
        }
    }
}

/// The writer: each key a description hands over is an [`Item`].
struct Emit<F>(F);

impl<F> Emit<F> {
    fn header<'a>(&mut self, word: &'static str, name: &'a str)
    where
        F: FnMut(Item<'a>),
    {
        (self.0)(Item::Section(word, name));
    }
}

impl<'a, F: FnMut(Item<'a>)> Io<'a> for Emit<F> {
    fn opt<T: Field<'a>>(&mut self, key: &'static str, v: Option<T>) -> Option<T> {
        if let Some(v) = v {
            (self.0)(Item::Entry(key, v.to_val()));
        }
        v
    }
}

/// The reader: each key takes the value a checked section gives it;
/// `None` is a section the deck omits, where every key keeps its default.
struct Fill<'s, 'a>(Option<&'s Section<'a>>);

impl<'a> Io<'a> for Fill<'_, 'a> {
    fn opt<T: Field<'a>>(&mut self, key: &'static str, _: Option<T>) -> Option<T> {
        T::of(self.0?.get(key)?.val)
    }
}

/// An enum described by its discriminator: `key`'s `words` name the
/// variants listed (in that order), and each field of a variant is the
/// key of its own name.
macro_rules! variants {
    ($io:ident, $key:expr, $words:expr, $v:expr, $ty:ident {
        $($variant:ident { $($field:ident),* }),* $(,)?
    }) => {{
        let zeroed = [$($ty::$variant { $($field: Default::default()),* }),*];
        match $io.pick($key, $words, $v, &zeroed) {
            $($ty::$variant { $($field),* } => $ty::$variant {
                $($field: $io.val(stringify!($field), $field)),*
            },)*
            // A variant the list leaves out (a generic `ProblemSpec`).
            #[allow(unreachable_patterns)]
            other => other,
        }
    }};
}

/// One description per typed section. Each takes the typed value to
/// emit — or, to fill, its defaults — and returns what the direction
/// made of it.
mod keys {
    use super::*;

    /// What `[region.<name>]` describes: its [`RegionSpec`] less the
    /// name, with the material handle borrowed.
    pub(super) type Region<'a> = (Shape, &'a str, f64, EnergyInit, VelocityInit);

    /// A region for the reader to fill: its velocity `(0, 0)` is what an
    /// omitted `ux` / `uy` reads as; the rest is required, so any value
    /// will do.
    pub(super) const BLANK_REGION: Region<'static> = (
        Shape::Circle {
            cx: 0.0,
            cy: 0.0,
            r: 0.0,
        },
        "",
        0.0,
        EnergyInit::Ein(0.0),
        VelocityInit::Constant(Vec2::ZERO),
    );

    /// The top level: a named deck's `problem` and its dimensions, or a
    /// generic deck's `name` (`named` is `None`).
    pub(super) fn top<'a>(
        io: &mut impl Io<'a>,
        named: Option<ProblemSpec>,
        name: &'a str,
    ) -> (Option<ProblemSpec>, &'a str) {
        let Some(problem) = named else {
            return (None, io.val("name", name));
        };
        let problem = variants!(io, "problem", PROBLEM, problem, ProblemSpec {
            Sod { nx, ny },
            Noh { n },
            Sedov { n },
            Saltzmann { nx, ny },
            Underwater { n },
        });
        (Some(problem), name)
    }

    /// `[mesh]`.
    pub(super) fn mesh<'a>(io: &mut impl Io<'a>, m: &MeshSpec) -> MeshSpec {
        MeshSpec {
            nx: io.val("nx", m.nx),
            ny: io.val("ny", m.ny),
            origin: Vec2::new(io.val("x0", m.origin.x), io.val("y0", m.origin.y)),
            extent: Vec2::new(io.val("x1", m.extent.x), io.val("y1", m.extent.y)),
            skew: io.pick("skew", SKEW, m.skew, &[Some(SkewKind::Saltzmann)]),
        }
    }

    /// `[material.<name>]`: the material's EoS.
    pub(super) fn eos<'a>(io: &mut impl Io<'a>, eos: EosSpec) -> EosSpec {
        variants!(io, "eos", EOS, eos, EosSpec {
            IdealGas { gamma },
            Tait { p0, rho0, gamma },
            Jwl { a, b, r1, r2, omega, rho0 },
            Void {},
        })
    }

    /// `[region.<name>]`: the shape, `material`, `rho`, the energy as
    /// `ein` or else `p`, the velocity as `u_radial` or else `ux` / `uy`
    /// (`check` admits one of each, so the order the two are asked in
    /// does not show in the text).
    pub(super) fn region<'a>(io: &mut impl Io<'a>, r: Region<'a>) -> Region<'a> {
        let (shape, material, rho, energy, velocity) = r;
        let shape = variants!(io, "shape", SHAPE, shape, Shape {
            Rect { x0, y0, x1, y1 },
            Circle { cx, cy, r },
            HalfPlane { normal_x, normal_y, offset },
        });
        let (material, rho) = (io.val("material", material), io.val("rho", rho));
        let (ein, p) = match energy {
            EnergyInit::Ein(ein) => (Some(ein), 0.0),
            EnergyInit::Pressure(p) => (None, p),
        };
        let energy = match io.opt("ein", ein) {
            Some(ein) => EnergyInit::Ein(ein),
            None => EnergyInit::Pressure(io.val("p", p)),
        };
        let (speed, u) = match velocity {
            VelocityInit::Radial { speed } => (Some(speed), Vec2::ZERO),
            VelocityInit::Constant(u) => (None, u),
        };
        let velocity = match io.opt("u_radial", speed) {
            Some(speed) => VelocityInit::Radial { speed },
            None => VelocityInit::Constant(Vec2::new(io.val("ux", u.x), io.val("uy", u.y))),
        };
        (shape, material, rho, energy, velocity)
    }

    /// `[boundary]`. The piston velocity is there iff a side is a
    /// piston (`check` admits it only then); an omitted component is 0.
    pub(super) fn boundary<'a>(io: &mut impl Io<'a>, b: BoundarySpec) -> BoundarySpec {
        use SideBc::{Free, Piston, Reflective};
        let mut side = |key, bc| io.pick(key, SIDE_BC, bc, &[Reflective, Free, Piston]);
        let (left, right) = (side("left", b.left), side("right", b.right));
        let (bottom, top) = (side("bottom", b.bottom), side("top", b.top));
        let ux = io.opt("piston_ux", b.piston_u.map(|u| u.x));
        let uy = io.opt("piston_uy", b.piston_u.map(|u| u.y));
        let piston = [left, right, bottom, top].contains(&Piston);
        let piston_u = piston.then(|| Vec2::new(ux.unwrap_or(0.0), uy.unwrap_or(0.0)));
        BoundarySpec {
            left,
            right,
            bottom,
            top,
            piston_u,
        }
    }

    /// `[control]`: `final_time`, `max_steps`, `overlap`.
    pub(super) fn control<'a>(io: &mut impl Io<'a>, d: &InputDeck) -> (Option<f64>, usize, bool) {
        let final_time = io.opt("final_time", d.final_time);
        let max_steps = io.val("max_steps", d.max_steps);
        (final_time, max_steps, io.val("overlap", d.overlap))
    }

    /// `[dt]`.
    pub(super) fn dt<'a>(io: &mut impl Io<'a>, d: DtControls) -> DtControls {
        DtControls {
            cfl_sf: io.val("cfl_sf", d.cfl_sf),
            div_sf: io.val("div_sf", d.div_sf),
            growth: io.val("growth", d.growth),
            dt_initial: io.val("dt_initial", d.dt_initial),
            dt_max: io.val("dt_max", d.dt_max),
            dt_min: io.val("dt_min", d.dt_min),
        }
    }

    /// `[ale]`.
    pub(super) fn ale<'a>(io: &mut impl Io<'a>, a: AleOptions) -> AleOptions {
        let mode =
            variants!(io, "mode", ALE_MODE, a.mode, AleMode { Eulerian {}, Smooth { alpha } });
        let frequency = io.val("frequency", a.frequency);
        AleOptions { mode, frequency }
    }

    /// `[executor]`.
    pub(super) fn executor<'a>(io: &mut impl Io<'a>, e: ExecutorKind) -> ExecutorKind {
        variants!(io, "model", MODEL, e, ExecutorKind {
            Serial {},
            FlatMpi { ranks },
            Hybrid { ranks, threads_per_rank },
        })
    }
}

impl InputDeck {
    /// The writer: the deck through the descriptions, in canonical
    /// order, omitting what the canonical text omits (an absent
    /// `final_time`, a Lagrangian deck's `[ale]`, a default
    /// `[boundary]`). Named decks keep the exact order the versioned
    /// checkpoint format embeds — do not reorder their keys.
    fn emit<'a>(&'a self, out: impl FnMut(Item<'a>)) {
        let io = &mut Emit(out);
        match &self.problem {
            ProblemSpec::Generic(g) => emit_generic(io, g),
            named => _ = keys::top(io, Some(named.clone()), ""),
        }
        io.header("control", "");
        keys::control(io, self);
        io.header("dt", "");
        keys::dt(io, self.dt);
        if let Some(ale) = self.ale {
            io.header("ale", "");
            keys::ale(io, ale);
        }
        io.header("executor", "");
        keys::executor(io, self.executor);
    }

    /// The reader: the deck a flat form `check` has passed describes.
    fn fill(flat: &[Section<'_>]) -> InputDeck {
        let find = |word| sections(flat, word).next();
        let at = |word| Fill(find(word));
        let named = find("mesh").is_none().then_some(ProblemSpec::Noh { n: 0 });
        let (named, name) = keys::top(&mut Fill(Some(&flat[0])), named, "generic");
        let problem = named.unwrap_or_else(|| {
            let material = |s: &Section<'_>| NamedMaterial {
                name: s.name.into(),
                eos: keys::eos(&mut Fill(Some(s)), EosSpec::Void),
            };
            let region = |s: &Section<'_>| {
                let blank = keys::BLANK_REGION;
                let (shape, material, rho, energy, velocity) =
                    keys::region(&mut Fill(Some(s)), blank);
                let (name, material) = (s.name.into(), material.into());
                RegionSpec {
                    name,
                    shape,
                    material,
                    rho,
                    energy,
                    velocity,
                }
            };
            ProblemSpec::Generic(Box::new(GenericSpec {
                name: name.into(),
                mesh: keys::mesh(&mut at("mesh"), &MeshSpec::unit_square(0)),
                materials: sections(flat, "material").map(material).collect(),
                regions: sections(flat, "region").map(region).collect(),
                boundary: find("boundary").map_or_else(BoundarySpec::default, |s| {
                    keys::boundary(&mut Fill(Some(s)), BoundarySpec::default())
                }),
            }))
        });
        let mut d = InputDeck::new(problem);
        (d.final_time, d.max_steps, d.overlap) = keys::control(&mut at("control"), &d);
        d.dt = keys::dt(&mut at("dt"), d.dt);
        d.ale = find("ale").map(|s| keys::ale(&mut Fill(Some(s)), AleOptions::default()));
        d.executor = keys::executor(&mut at("executor"), d.executor);
        d
    }
}

/// The generic half of [`InputDeck::emit`]: all of a [`GenericSpec`].
fn emit_generic<'a>(io: &mut Emit<impl FnMut(Item<'a>)>, g: &'a GenericSpec) {
    keys::top(io, None, &g.name);
    io.header("mesh", "");
    keys::mesh(io, &g.mesh);
    for m in &g.materials {
        io.header("material", &m.name);
        keys::eos(io, m.eos);
    }
    for r in &g.regions {
        io.header("region", &r.name);
        keys::region(io, (r.shape, &r.material, r.rho, r.energy, r.velocity));
    }
    if g.boundary != BoundarySpec::default() {
        io.header("boundary", "");
        keys::boundary(io, g.boundary);
    }
}

impl FromStr for InputDeck {
    type Err = DeckError;

    fn from_str(text: &str) -> Result<Self, DeckError> {
        let flat = parse(text)?;
        check(&flat, true)?;
        Ok(InputDeck::fill(&flat))
    }
}

/// The 1-based line at which deck `text` sets `key` in `section` (`""`
/// for the top level, else its header word, e.g. `"control"`): where
/// to anchor an error about a value the parser accepted, such as an
/// admission limit. `None` when the text does not set the key or does
/// not parse.
#[must_use]
pub fn key_line(text: &str, section: &str, key: &str) -> Option<usize> {
    let flat = parse(text).ok()?;
    let entry = sections(&flat, section).find_map(|s| s.get(key))?;
    Some(entry.line)
}

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
    emit_generic(&mut Emit(collector(&mut flat)), spec);
    check(&flat, false)
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
        self.emit(|item| result = result.and_then(|()| item.fmt(f)));
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
