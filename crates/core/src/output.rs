//! Simulation output: legacy-VTK visualisation files and the portable
//! checkpoint format.
//!
//! * [`write_vtk`] emits an ASCII legacy `.vtk` unstructured-grid file
//!   (cell data: ρ, P, ε, q; point data: velocity) loadable by ParaView
//!   or VisIt — the standard way downstream users inspect hydro runs.
//! * [`Snapshot`] is the restart state: the one in-memory carrier every
//!   pause and continuation goes through — the payload of a checkpoint,
//!   what a rank team consumes and hands back. It has exactly one byte
//!   format, the checkpoint's, which is written from a borrowed view of
//!   it or of a live run (`RestartView`). A supervised retry rewinds to
//!   the last file of it that its store verified, read back as a
//!   `--resume` reads a serve drain's ([`Checkpoint::read_from`]).
//! * [`Checkpoint`] is the first-class restart artefact: the state
//!   snapshot **plus the originating [`InputDeck`]**, behind a
//!   magic+version header and guarded by a trailing CRC-32. A
//!   checkpoint file is self-contained — `SimulationBuilder::resume`
//!   rebuilds the problem from the embedded deck, so restarts need no
//!   out-of-band configuration and can change executor shape (serial ↔
//!   N ranks) freely.
//!
//! # Checkpoint format, version 1
//!
//! All integers and floats are little-endian. Layout, in order:
//!
//! | bytes        | field                                          |
//! |--------------|------------------------------------------------|
//! | 8            | magic `b"BLFCKPT\0"`                           |
//! | 4            | format version, `u32` (currently 1)            |
//! | 4            | deck text length `L`, `u32`                    |
//! | `L`          | canonical [`InputDeck`] text (UTF-8)           |
//! | 8            | simulated time, `f64`                          |
//! | 8            | steps taken, `u64`                             |
//! | 1            | `dt_prev` flag (0 = none, 1 = present)         |
//! | 8            | previous dt, `f64` (zero when the flag is 0)   |
//! | 8            | node count `NN`, `u64`                         |
//! | 8            | element count `NE`, `u64`                      |
//! | 16·NN        | node positions, `(f64, f64)` pairs             |
//! | 16·NN        | node velocities, `(f64, f64)` pairs            |
//! | 8·NN         | nodal masses                                   |
//! | 8·NE × 4     | element mass, density, energy, viscosity `q`   |
//! | 32·NE        | corner masses, 4 `f64` per element             |
//! | 4            | CRC-32 (IEEE) of every preceding byte          |
//!
//! The field set is exactly the cross-step state of the hydro loop:
//! positions, velocities and the thermodynamic state plus the two
//! quantities that carry information from step *k* into step *k+1*
//! (`q` feeds the next `getdt`; `nd_mass` feeds the next `getforce`
//! momentum limiter). Everything else (volumes, pressures, sound
//! speeds, corner scratch) is re-derived on load by the one installer
//! every resume path shares (`Snapshot::install`), and the invariant
//! that makes same-shape resume bit-exact — Lagrangian or ALE, any
//! executor — is that doing so changes nothing: at every step boundary
//! the derived fields already *are* what `getgeom` + `getpc` make of
//! the carried ones (a Lagrangian step ends with that evaluation; a
//! remap leaves geometry matching the mesh it leaves and is followed by
//! `getpc`). Pinned by
//! `derived_state_is_a_pure_function_of_the_restart_fields` in
//! `tests/hybrid_determinism.rs`.
//!
//! **How a checkpoint is written.** In one pass, from the restart state
//! where it already is: a `RestartView` borrows the cursor and the
//! eight field slices from a [`Snapshot`] or from a live whole-mesh
//! pair, and the writer encodes them little-endian, a run at a time,
//! into a fixed 64 KiB staging buffer. Each full buffer is folded into
//! a running CRC ([`bookleaf_util::Crc32`]) and then written, and the
//! CRC follows the last of them as the trailer. Nothing is copied
//! first and the file is never held whole, so a checkpoint costs a
//! write and 64 KiB: `Simulation::checkpoint_to` streams the one rank's
//! live pair or the snapshot a team left (and `CheckpointStore::save`
//! writes through it), and [`Checkpoint::to_bytes`] is the same writer
//! into memory. The byte table above is what it writes.
//!
//! **Versioning policy.** The version integer identifies the byte
//! layout above. Any change to the layout — field added, removed,
//! reordered, re-typed — must bump [`CHECKPOINT_VERSION`] and teach the
//! reader the old layout or reject it with
//! [`CheckpointError::UnsupportedVersion`]. The committed golden
//! fixture `tests/fixtures/noh_v1.ckpt` pins version 1: if it stops
//! loading byte-exactly, the format changed and the bump must be
//! deliberate. Corruption anywhere in the file (including the embedded
//! deck text) is caught by the trailing CRC before any field is
//! interpreted; every failure path is a typed
//! [`bookleaf_util::CheckpointError`], never a panic.

use std::io::{self, Write};
use std::path::Path;

use bookleaf_eos::MaterialTable;
use bookleaf_hydro::getein::WorkVelocity;
use bookleaf_hydro::{eos_fused, EosStages, FusedEos, HydroState, LocalRange, Threading};
use bookleaf_mesh::geometry::quad_area;
use bookleaf_mesh::Mesh;
use bookleaf_util::{crc32, BookLeafError, CheckpointError, Crc32, Result, Vec2};

use crate::driver::LoopState;
use crate::input::{InputDeck, MAX_MESH_DIM};

/// Write the current solution as a legacy ASCII VTK unstructured grid.
pub fn write_vtk(
    w: &mut impl Write,
    mesh: &Mesh,
    state: &HydroState,
    title: &str,
) -> io::Result<()> {
    writeln!(w, "# vtk DataFile Version 3.0")?;
    writeln!(w, "{title}")?;
    writeln!(w, "ASCII")?;
    writeln!(w, "DATASET UNSTRUCTURED_GRID")?;

    writeln!(w, "POINTS {} double", mesh.n_nodes())?;
    for p in &mesh.nodes {
        writeln!(w, "{} {} 0.0", p.x, p.y)?;
    }

    writeln!(w, "CELLS {} {}", mesh.n_elements(), mesh.n_elements() * 5)?;
    for quad in &mesh.elnd {
        writeln!(w, "4 {} {} {} {}", quad[0], quad[1], quad[2], quad[3])?;
    }
    writeln!(w, "CELL_TYPES {}", mesh.n_elements())?;
    for _ in 0..mesh.n_elements() {
        writeln!(w, "9")?; // VTK_QUAD
    }

    writeln!(w, "CELL_DATA {}", mesh.n_elements())?;
    for (name, field) in [
        ("density", &state.rho),
        ("pressure", &state.pressure),
        ("internal_energy", &state.ein),
        ("viscosity", &state.q),
    ] {
        writeln!(w, "SCALARS {name} double 1")?;
        writeln!(w, "LOOKUP_TABLE default")?;
        for v in field.iter() {
            writeln!(w, "{v}")?;
        }
    }

    writeln!(w, "POINT_DATA {}", mesh.n_nodes())?;
    writeln!(w, "VECTORS velocity double")?;
    for u in &state.u {
        writeln!(w, "{} {} 0.0", u.x, u.y)?;
    }
    Ok(())
}

/// Magic opening a checkpoint file.
const CHECKPOINT_MAGIC: &[u8; 8] = b"BLFCKPT\0";

/// The checkpoint format version this build writes (and the only one it
/// currently reads). See the module docs for the versioning policy.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Entity counts above this are rejected as corrupt before any
/// allocation: no valid deck can exceed `(MAX_MESH_DIM + 1)²` nodes.
const MAX_ENTITIES: usize = (MAX_MESH_DIM + 1) * (MAX_MESH_DIM + 1);

/// A binary snapshot of everything a restart needs: the cross-step
/// solver state (see the module docs for why exactly these fields).
/// The default is empty: no entity, no field allocated yet.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Simulated time.
    pub time: f64,
    /// Steps taken so far.
    pub steps: u64,
    /// Last time step (`None` before the first step; the growth limiter
    /// ramps from it on restart, and `None` reproduces the initial-dt
    /// path bitwise).
    pub dt_prev: Option<f64>,
    /// Node positions.
    pub nodes: Vec<Vec2>,
    /// Node velocities.
    pub u: Vec<Vec2>,
    /// Nodal masses (refreshed by the previous step's acceleration;
    /// read by the next step's force limiter before it is refreshed
    /// again).
    pub nd_mass: Vec<f64>,
    /// Element mass, density, energy (volume/pressure are re-derived).
    pub mass: Vec<f64>,
    /// Density.
    pub rho: Vec<f64>,
    /// Specific internal energy.
    pub ein: Vec<f64>,
    /// Element artificial viscosity (read by the next step's `getdt`).
    pub q: Vec<f64>,
    /// Corner masses (sub-zonal state).
    pub cnmass: Vec<[f64; 4]>,
}

/// The restart state, borrowed: the loop cursor and the eight restart
/// fields, in file order — the one list of them. [`Snapshot::capture`]
/// copies a view and the checkpoint writer streams one; a rank's piece
/// moves into a team's snapshot field by field in the same order
/// ([`Snapshot::gather`]). A [`Snapshot`] lends a view
/// ([`Snapshot::view`]), and so does a live whole-mesh pair
/// ([`RestartView::live`]), so a checkpoint of either is written
/// without copying the state first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RestartView<'a> {
    cursor: LoopState,
    nodes: &'a [Vec2],
    u: &'a [Vec2],
    nd_mass: &'a [f64],
    mass: &'a [f64],
    rho: &'a [f64],
    ein: &'a [f64],
    q: &'a [f64],
    cnmass: &'a [[f64; 4]],
}

impl<'a> RestartView<'a> {
    /// The restart fields of a live whole-mesh pair at `cursor`.
    pub(crate) fn live(mesh: &'a Mesh, state: &'a HydroState, cursor: LoopState) -> Self {
        RestartView {
            cursor,
            nodes: &mesh.nodes,
            u: &state.u,
            nd_mass: &state.nd_mass,
            mass: &state.mass,
            rho: &state.rho,
            ein: &state.ein,
            q: &state.q,
            cnmass: &state.cnmass,
        }
    }

    /// Serialised body length in bytes.
    fn body_len(&self) -> usize {
        body_len(self.nodes.len(), self.mass.len())
    }

    /// Stream the versioned body.
    fn write_body<W: Write>(&self, w: &mut Staged<W>) -> io::Result<()> {
        let le = |v: &f64| v.to_le_bytes();
        let c = self.cursor;
        w.put(&[c.t], le)?;
        w.put(&[c.steps as u64], |n| n.to_le_bytes())?;
        w.put(&[u8::from(c.dt_prev.is_some())], |b| [*b])?;
        w.put(&[c.dt_prev.unwrap_or(0.0)], le)?;
        let counts = [self.nodes.len() as u64, self.mass.len() as u64];
        w.put(&counts, |n| n.to_le_bytes())?;
        for vs in [self.nodes, self.u] {
            w.put(vs, |v| {
                let mut pair = [0; 16];
                pair[..8].copy_from_slice(&v.x.to_le_bytes());
                pair[8..].copy_from_slice(&v.y.to_le_bytes());
                pair
            })?;
        }
        let cnmass = self.cnmass.as_flattened();
        for field in [self.nd_mass, self.mass, self.rho, self.ein, self.q, cnmass] {
            w.put(field, le)?;
        }
        Ok(())
    }
}

impl Snapshot {
    /// Capture the restart state `view` lends: an owned copy.
    pub(crate) fn capture(view: RestartView<'_>) -> Self {
        let c = view.cursor;
        Snapshot {
            time: c.t,
            steps: c.steps as u64,
            dt_prev: c.dt_prev,
            nodes: view.nodes.to_vec(),
            u: view.u.to_vec(),
            nd_mass: view.nd_mass.to_vec(),
            mass: view.mass.to_vec(),
            rho: view.rho.to_vec(),
            ein: view.ein.to_vec(),
            q: view.q.to_vec(),
            cnmass: view.cnmass.to_vec(),
        }
    }

    /// This snapshot, borrowed as a [`RestartView`].
    pub(crate) fn view(&self) -> RestartView<'_> {
        RestartView {
            cursor: self.cursor(),
            nodes: &self.nodes,
            u: &self.u,
            nd_mass: &self.nd_mass,
            mass: &self.mass,
            rho: &self.rho,
            ein: &self.ein,
            q: &self.q,
            cnmass: &self.cnmass,
        }
    }

    /// A rank's piece of the restart state, in its local order: the
    /// restart fields of `(mesh, state)` moved out — nothing is copied —
    /// with the `cursor`. Everything else the pair holds is dropped
    /// here, so the piece is all that is left of it.
    pub(crate) fn take(mesh: Mesh, state: HydroState, cursor: LoopState) -> Self {
        Snapshot {
            time: cursor.t,
            steps: cursor.steps as u64,
            dt_prev: cursor.dt_prev,
            nodes: mesh.nodes,
            u: state.u,
            nd_mass: state.nd_mass,
            mass: state.mass,
            rho: state.rho,
            ein: state.ein,
            q: state.q,
            cnmass: state.cnmass,
        }
    }

    /// The inverse of [`Snapshot::install`], and the **one** place a
    /// rank's live state becomes the team's restart state: move the
    /// owned entities of `piece` (a [`Snapshot::take`] of the rank's
    /// pair) — elements below `range.n_owned_el`, active nodes
    /// `owns_node` selects — to their global ids `el(e)` / `nd(n)` in
    /// this snapshot of `n_nodes` nodes and `n_elements` elements, and
    /// take the piece's cursor. The ranks of a team each gather their
    /// piece into the team's one snapshot, and between them write every
    /// entity exactly once. Field by field: each global field is
    /// allocated when first written (the team's snapshot starts as
    /// [`Snapshot::default`]), and each of the piece's is dropped as
    /// soon as it is written, so the team's restart state grows as the
    /// rank's shrinks.
    pub(crate) fn gather(
        &mut self,
        piece: Snapshot,
        (n_nodes, n_elements): (usize, usize),
        range: LocalRange,
        el: impl Fn(usize) -> usize,
        nd: impl Fn(usize) -> usize,
        owns_node: impl Fn(usize) -> bool,
    ) {
        /// Write `local[l]` at `global[g]` for each `(l, g)` of `ids`,
        /// `global` allocated at `len` entries first if it is not yet;
        /// `local` is dropped on return.
        fn scatter<T: Copy + Default>(
            global: &mut Vec<T>,
            len: usize,
            local: Vec<T>,
            ids: impl Iterator<Item = (usize, usize)>,
        ) {
            if global.is_empty() {
                *global = vec![T::default(); len];
            }
            for (l, g) in ids {
                global[g] = local[l];
            }
        }
        let nodes = || {
            (0..range.n_active_nd)
                .filter(|&n| owns_node(n))
                .map(|n| (n, nd(n)))
        };
        let elements = || (0..range.n_owned_el).map(|e| (e, el(e)));
        (self.time, self.steps, self.dt_prev) = (piece.time, piece.steps, piece.dt_prev);
        scatter(&mut self.nodes, n_nodes, piece.nodes, nodes());
        scatter(&mut self.u, n_nodes, piece.u, nodes());
        scatter(&mut self.nd_mass, n_nodes, piece.nd_mass, nodes());
        scatter(&mut self.mass, n_elements, piece.mass, elements());
        scatter(&mut self.rho, n_elements, piece.rho, elements());
        scatter(&mut self.ein, n_elements, piece.ein, elements());
        scatter(&mut self.q, n_elements, piece.q, elements());
        scatter(&mut self.cnmass, n_elements, piece.cnmass, elements());
    }

    /// Node count of the captured state.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Element count of the captured state.
    #[must_use]
    pub fn n_elements(&self) -> usize {
        self.mass.len()
    }

    /// Make `(mesh, state)` the state this snapshot captured and return
    /// the loop cursor to continue from: local element `e` / node `n`
    /// takes the snapshot's `el(e)` / `nd(n)` (identity for the global
    /// mesh; a rank's local→global maps for its piece, ghosts included),
    /// then geometry and the EoS are re-derived over the whole of `mesh`
    /// in one [`eos_fused`] sweep (bitwise the two one-stage sweeps; a
    /// tangled element is the same [`BookLeafError::NegativeVolume`]).
    /// The **one** place restart state becomes live state — builder
    /// resume, supervised rewind, a rank team's scatter and the global
    /// view of a distributed run all come through here, into a
    /// [`HydroState::zeroed`] state: nothing that starts from a snapshot
    /// paints the deck's initial fields first — so "a pause at a step
    /// boundary moves no bits" is this function's property, not each
    /// caller's. Shapes are the caller's to check.
    pub(crate) fn install(
        &self,
        mesh: &mut Mesh,
        state: &mut HydroState,
        materials: &MaterialTable,
        threading: Threading,
        el: impl Fn(usize) -> usize,
        nd: impl Fn(usize) -> usize,
    ) -> Result<LoopState> {
        for e in 0..mesh.n_elements() {
            let g = el(e);
            state.mass[e] = self.mass[g];
            state.rho[e] = self.rho[g];
            state.ein[e] = self.ein[g];
            state.q[e] = self.q[g];
            state.cnmass[e] = self.cnmass[g];
        }
        for n in 0..mesh.n_nodes() {
            let g = nd(n);
            mesh.nodes[n] = self.nodes[g];
            state.u[n] = self.u[g];
            state.nd_mass[n] = self.nd_mass[g];
        }
        // Volume, then pressure and sound speed from it, in one sweep.
        let derive = FusedEos {
            dt: 0.0,
            which: WorkVelocity::Current,
            ein_from: None,
            stages: EosStages {
                geom: true,
                rho: false,
                ein: false,
                pc: true,
            },
        };
        eos_fused(
            mesh,
            materials,
            state,
            LocalRange::whole(mesh),
            derive,
            threading,
        )?;
        Ok(self.cursor())
    }

    /// The loop cursor this snapshot continues from.
    pub(crate) fn cursor(&self) -> LoopState {
        LoopState {
            t: self.time,
            steps: self.steps as usize,
            dt_prev: self.dt_prev,
        }
    }

    /// Does this snapshot fit `mesh` (as many nodes and elements)? Asked
    /// by a resumed or rewound engine, and by a checkpoint store's readback.
    pub(crate) fn check_shape(&self, mesh: &Mesh) -> std::result::Result<(), CheckpointError> {
        if self.n_nodes() == mesh.n_nodes() && self.n_elements() == mesh.n_elements() {
            return Ok(());
        }
        Err(CheckpointError::DeckMismatch {
            message: format!(
                "checkpoint carries {} nodes / {} elements but its deck builds a \
                 {}-node / {}-element mesh",
                self.n_nodes(),
                self.n_elements(),
                mesh.n_nodes(),
                mesh.n_elements()
            ),
        })
    }

    /// Would [`Snapshot::install`] over `mesh`'s topology succeed? Its
    /// only failure is a tangled element, so this is that check — same
    /// element, same typed error — without a state to install into: how
    /// a restart state nobody has installed yet (a distributed engine
    /// keeps the snapshot, not a global state) is still refused when it
    /// arrives.
    pub(crate) fn check_geometry(&self, mesh: &Mesh) -> Result<()> {
        for (e, nd) in mesh.elnd.iter().enumerate() {
            let volume = quad_area(&nd.map(|n| self.nodes[n as usize]));
            if volume <= 0.0 {
                return Err(BookLeafError::NegativeVolume { element: e, volume });
            }
        }
        Ok(())
    }

    /// Parse a body from `cur`, consuming it exactly to the end.
    fn read_body(cur: &mut Cursor<'_>) -> std::result::Result<Snapshot, CheckpointError> {
        let time = cur.f64("time")?;
        let steps = cur.u64("steps")?;
        let dt_flag = cur.u8("dt_prev flag")?;
        let dt_raw = cur.f64("dt_prev")?;
        let dt_prev = match dt_flag {
            0 => None,
            1 => Some(dt_raw),
            other => {
                return Err(CheckpointError::Corrupt {
                    what: format!("dt_prev flag must be 0 or 1, found {other}"),
                })
            }
        };
        let n_nodes = cur.count("node count")?;
        let n_elements = cur.count("element count")?;
        let expected = body_len(n_nodes, n_elements) - BODY_HEADER_LEN;
        if cur.remaining() != expected {
            return Err(CheckpointError::Corrupt {
                what: format!(
                    "field payload holds {} bytes but {n_nodes} nodes / {n_elements} \
                     elements need {expected}",
                    cur.remaining()
                ),
            });
        }
        let mut vecs = |what: &'static str, n: usize| {
            (0..n)
                .map(|_| Ok(Vec2::new(cur.f64(what)?, cur.f64(what)?)))
                .collect::<std::result::Result<Vec<Vec2>, CheckpointError>>()
        };
        let nodes = vecs("node positions", n_nodes)?;
        let u = vecs("node velocities", n_nodes)?;
        let mut scalars = |what: &'static str, n: usize| {
            (0..n)
                .map(|_| cur.f64(what))
                .collect::<std::result::Result<Vec<f64>, CheckpointError>>()
        };
        let nd_mass = scalars("nodal masses", n_nodes)?;
        let mass = scalars("element masses", n_elements)?;
        let rho = scalars("densities", n_elements)?;
        let ein = scalars("energies", n_elements)?;
        let q = scalars("viscosities", n_elements)?;
        let mut cnmass = Vec::with_capacity(n_elements);
        for _ in 0..n_elements {
            let mut cm = [0.0; 4];
            for v in &mut cm {
                *v = cur.f64("corner masses")?;
            }
            cnmass.push(cm);
        }
        Ok(Snapshot {
            time,
            steps,
            dt_prev,
            nodes,
            u,
            nd_mass,
            mass,
            rho,
            ein,
            q,
            cnmass,
        })
    }
}

/// Fixed-size prefix of the body: time, steps, dt flag + value, counts.
const BODY_HEADER_LEN: usize = 8 + 8 + 1 + 8 + 8 + 8;

/// Total body bytes for the given entity counts.
fn body_len(n_nodes: usize, n_elements: usize) -> usize {
    BODY_HEADER_LEN + 40 * n_nodes + 64 * n_elements
}

/// Bytes the checkpoint writer encodes ahead of its sink.
const STAGE_BYTES: usize = 64 * 1024;

/// A sink behind a fixed staging buffer and a running CRC: how a
/// checkpoint is written in one pass. Values are encoded little-endian
/// into the buffer a run at a time; each full buffer is folded into the
/// CRC, then written. The CRC is the file's trailer, so nothing is
/// written twice and nothing waits for the whole file.
struct Staged<W: Write> {
    out: W,
    crc: Crc32,
    buf: Box<[u8]>,
    len: usize,
}

impl<W: Write> Staged<W> {
    fn new(out: W) -> Self {
        Staged {
            out,
            crc: Crc32::new(),
            buf: vec![0; STAGE_BYTES].into_boxed_slice(),
            len: 0,
        }
    }

    /// Append `values`, each encoded as the `N` bytes `le` makes of it.
    fn put<T, const N: usize>(
        &mut self,
        mut values: &[T],
        le: impl Fn(&T) -> [u8; N],
    ) -> io::Result<()> {
        while !values.is_empty() {
            let room = (self.buf.len() - self.len) / N;
            if room == 0 {
                self.flush()?;
                continue;
            }
            let (run, rest) = values.split_at(room.min(values.len()));
            let staged = &mut self.buf[self.len..self.len + N * run.len()];
            for (bytes, v) in staged.chunks_exact_mut(N).zip(run) {
                bytes.copy_from_slice(&le(v));
            }
            self.len += N * run.len();
            values = rest;
        }
        Ok(())
    }

    /// Fold what is staged into the CRC and write it out.
    fn flush(&mut self) -> io::Result<()> {
        let staged = &self.buf[..self.len];
        self.crc.update(staged);
        self.out.write_all(staged)?;
        self.len = 0;
        Ok(())
    }

    /// Write what is staged, then the CRC of everything put.
    fn finish(mut self) -> io::Result<()> {
        self.flush()?;
        self.out.write_all(&self.crc.finish().to_le_bytes())
    }
}

/// Write the checkpoint of `deck_text` and `view` to `out`: the
/// version-1 byte format, in one pass.
fn write_checkpoint(out: impl Write, deck_text: &str, view: RestartView<'_>) -> io::Result<()> {
    let mut w = Staged::new(out);
    w.put(&[*CHECKPOINT_MAGIC], |magic| *magic)?;
    w.put(&[CHECKPOINT_VERSION, deck_text.len() as u32], |n| {
        n.to_le_bytes()
    })?;
    w.put(deck_text.as_bytes(), |b| [*b])?;
    view.write_body(&mut w)?;
    w.finish()
}

// ---------------------------------------------------------------------------
// The checkpoint container.

/// A portable, versioned restart artefact: the cross-step solver state
/// plus the [`InputDeck`] that describes the problem it belongs to. See
/// the module docs for the byte format and versioning policy.
///
/// Produced by `Simulation::checkpoint`; consumed by
/// `SimulationBuilder::resume`/`resume_from`, which rebuild the problem
/// from the embedded deck and may change the executor shape freely
/// (the state is global, so any rank count can repartition it).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The originating problem spec and run options.
    pub input: InputDeck,
    /// The captured solver state.
    pub snap: Snapshot,
}

impl Checkpoint {
    /// Serialise to the version-1 byte format (with trailing CRC-32):
    /// the one-pass writer a checkpoint file streams through, into
    /// memory.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let deck_text = self.input.to_string();
        let view = self.snap.view();
        let mut out = Vec::with_capacity(8 + 4 + 4 + deck_text.len() + view.body_len() + 4);
        write_checkpoint(&mut out, &deck_text, view).expect("writing to a Vec does not fail");
        out
    }

    /// Parse the byte format, verifying magic, version and CRC before
    /// interpreting any field, then that the deck text parses and the
    /// body is as long as its counts need — without building the deck:
    /// the state's shape is checked where its mesh is built. Every
    /// failure is a typed [`CheckpointError`]; no input can panic this
    /// parser (pinned by a byte-flip property test).
    pub fn from_bytes(bytes: &[u8]) -> std::result::Result<Checkpoint, CheckpointError> {
        if bytes.len() < 8 {
            return Err(CheckpointError::Truncated { what: "magic" });
        }
        if &bytes[..8] != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        if bytes.len() < 16 {
            return Err(CheckpointError::Truncated { what: "header" });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                supported: CHECKPOINT_VERSION,
            });
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(tail.try_into().expect("4 bytes"));
        let actual = crc32(payload);
        if stored != actual {
            return Err(CheckpointError::Corrupt {
                what: format!("CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"),
            });
        }
        let mut cur = Cursor::new(&payload[12..]);
        let deck_len = cur.u32("deck length")? as usize;
        let deck_bytes = cur.take(deck_len, "deck text")?;
        let deck_text = std::str::from_utf8(deck_bytes).map_err(|_| CheckpointError::Corrupt {
            what: "embedded deck text is not UTF-8".into(),
        })?;
        let input: InputDeck = deck_text.parse().map_err(|e| CheckpointError::Corrupt {
            what: format!("embedded deck does not parse: {e}"),
        })?;
        let snap = Snapshot::read_body(&mut cur)?;
        if cur.remaining() != 0 {
            return Err(CheckpointError::Corrupt {
                what: format!("{} trailing bytes before the CRC", cur.remaining()),
            });
        }
        Ok(Checkpoint { input, snap })
    }

    /// Write the checkpoint `input` and `view` make to `path`
    /// **atomically**: the bytes go to a sibling `<path>.tmp` first, are
    /// fsynced, and the temporary is renamed over the destination. A
    /// crash (or any failure) mid-write therefore never leaves a
    /// truncated file at `path` — either the old checkpoint survives
    /// intact or the new one is complete. Every failure surfaces as a
    /// typed [`CheckpointError::Io`] naming the path involved, and the
    /// temporary is cleaned up on error. The bytes stream from the
    /// view in one pass (see the module docs): the file is never held
    /// in memory whole.
    pub(crate) fn stream_to(
        path: &Path,
        input: &InputDeck,
        view: RestartView<'_>,
    ) -> std::result::Result<(), CheckpointError> {
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp_name);
        let io_err = |at: &Path, e: std::io::Error| CheckpointError::Io {
            path: at.display().to_string(),
            message: e.to_string(),
        };
        let write_tmp = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            write_checkpoint(&mut file, &input.to_string(), view)?;
            // Flush to the medium before the rename publishes the file:
            // rename is atomic in the namespace, fsync makes the
            // content durable first.
            file.sync_all()
        };
        if let Err(e) = write_tmp() {
            let _ = std::fs::remove_file(&tmp);
            return Err(io_err(&tmp, e));
        }
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            io_err(path, e)
        })
    }

    /// Read and parse a checkpoint file ([`Checkpoint::from_bytes`]).
    pub fn read_from(path: impl AsRef<Path>) -> std::result::Result<Checkpoint, CheckpointError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Checkpoint::from_bytes(&bytes)
    }
}

/// Bounds-checked little-endian reader over a byte slice; every
/// overrun is a typed [`CheckpointError::Truncated`].
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes }
    }

    fn remaining(&self) -> usize {
        self.bytes.len()
    }

    fn take(
        &mut self,
        n: usize,
        what: &'static str,
    ) -> std::result::Result<&'a [u8], CheckpointError> {
        if self.bytes.len() < n {
            return Err(CheckpointError::Truncated { what });
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self, what: &'static str) -> std::result::Result<u8, CheckpointError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> std::result::Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &'static str) -> std::result::Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self, what: &'static str) -> std::result::Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// An entity count, rejected before allocation if implausible.
    fn count(&mut self, what: &'static str) -> std::result::Result<usize, CheckpointError> {
        let n = self.u64(what)?;
        if n as usize > MAX_ENTITIES {
            return Err(CheckpointError::Corrupt {
                what: format!("{what} {n} exceeds the maximum mesh size"),
            });
        }
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decks;
    use bookleaf_hydro::HydroState;

    fn sample() -> (Mesh, HydroState) {
        let deck = decks::sod(8, 2);
        let st = HydroState::new(
            &deck.mesh,
            &deck.materials,
            |e| deck.rho[e],
            |e| deck.ein[e],
            |n| deck.u[n],
        )
        .unwrap();
        (deck.mesh, st)
    }

    /// `gather` is the inverse of `install`: a snapshot of random fields
    /// installed into every piece of a 2-, 3- and 4-rank plan — ghosts
    /// included — and gathered back piece by piece is the original to
    /// the bit, and each global entity is written by exactly one rank.
    #[test]
    fn gather_after_install_is_the_identity_over_every_rank_count() {
        use bookleaf_mesh::SubMeshPlan;
        use bookleaf_partition::{partition, Strategy};

        let deck = decks::noh(9);
        let (nn, ne) = (deck.mesh.n_nodes(), deck.mesh.n_elements());
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut random = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut original = Snapshot {
            time: 0.25,
            steps: 7,
            dt_prev: Some(1e-3),
            nodes: vec![Vec2::ZERO; nn],
            u: vec![Vec2::ZERO; nn],
            nd_mass: vec![0.0; nn],
            mass: vec![0.0; ne],
            rho: vec![0.0; ne],
            ein: vec![0.0; ne],
            q: vec![0.0; ne],
            cnmass: vec![[0.0; 4]; ne],
        };
        // Nodes stay within a twentieth of a cell of the mesh's own, so
        // every piece installs without tangling.
        let jitter = 0.05 / 9.0;
        for n in 0..nn {
            original.nodes[n] = deck.mesh.nodes[n] + Vec2::new(random(), random()) * jitter;
            original.u[n] = Vec2::new(random() - 0.5, random() - 0.5);
            original.nd_mass[n] = 0.5 + random();
        }
        for e in 0..ne {
            original.mass[e] = 0.5 + random();
            original.rho[e] = 0.5 + random();
            original.ein[e] = 0.5 + random();
            original.q[e] = random();
            original.cnmass[e] = [random(), random(), random(), random()];
        }

        for ranks in [2, 3, 4] {
            let owner = partition(&deck.mesh, ranks, Strategy::Rcb).unwrap();
            let mut gathered = Snapshot::default();
            let (mut el_writers, mut nd_writers) = (vec![0; ne], vec![0; nn]);
            for mut sub in SubMeshPlan::build(&deck.mesh, &owner, ranks).unwrap() {
                let (el_l2g, nd_l2g) = (&sub.el_l2g, &sub.nd_l2g);
                let el = |e: usize| el_l2g[e] as usize;
                let nd = |n: usize| nd_l2g[n] as usize;
                let materials = &deck.materials;
                let mut state =
                    HydroState::new(&sub.mesh, materials, |_| 1.0, |_| 1.0, |_| Vec2::ZERO)
                        .unwrap();
                let cursor = original
                    .install(
                        &mut sub.mesh,
                        &mut state,
                        materials,
                        Threading::Serial,
                        el,
                        nd,
                    )
                    .unwrap();
                assert_eq!((cursor.t, cursor.steps), (0.25, 7), "{ranks} ranks");
                for e in 0..sub.mesh.n_elements() {
                    assert_eq!(
                        state.ein[e],
                        original.ein[el(e)],
                        "{ranks} ranks: element {e}"
                    );
                }
                for n in 0..sub.mesh.n_nodes() {
                    assert_eq!(state.u[n], original.u[nd(n)], "{ranks} ranks: node {n}");
                }

                let range = LocalRange {
                    n_owned_el: sub.n_owned_el,
                    n_active_nd: sub.n_active_nd,
                };
                let owns = |n: usize| sub.owns_node(n);
                let piece = || Snapshot::take(sub.mesh.clone(), state.clone(), cursor);
                gathered.gather(piece(), (nn, ne), range, el, nd, owns);
                // What this rank alone writes: everything else stays NaN.
                let mut alone = Snapshot {
                    rho: vec![f64::NAN; ne],
                    nd_mass: vec![f64::NAN; nn],
                    ..Snapshot::default()
                };
                alone.gather(piece(), (nn, ne), range, el, nd, owns);
                for (e, rho) in alone.rho.iter().enumerate() {
                    el_writers[e] += usize::from(!rho.is_nan());
                }
                for (n, mass) in alone.nd_mass.iter().enumerate() {
                    nd_writers[n] += usize::from(!mass.is_nan());
                }
            }
            assert!(el_writers.iter().all(|&w| w == 1), "{ranks} ranks");
            assert!(nd_writers.iter().all(|&w| w == 1), "{ranks} ranks");
            let bytes = |snap: &Snapshot| {
                let mut out = Vec::new();
                write_checkpoint(&mut out, "", snap.view()).unwrap();
                out
            };
            assert_eq!(bytes(&gathered), bytes(&original), "{ranks} ranks");
        }
    }

    #[test]
    fn vtk_output_is_well_formed() {
        let (mesh, st) = sample();
        let mut out = Vec::new();
        write_vtk(&mut out, &mesh, &st, "test").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("# vtk DataFile"));
        assert!(text.contains(&format!("POINTS {} double", mesh.n_nodes())));
        assert!(text.contains(&format!(
            "CELLS {} {}",
            mesh.n_elements(),
            mesh.n_elements() * 5
        )));
        assert!(text.contains("SCALARS density double 1"));
        assert!(text.contains("VECTORS velocity double"));
        // One density line per element.
        let after = text.split("LOOKUP_TABLE default").nth(1).unwrap();
        let lines: Vec<&str> = after.trim_start().lines().take(mesh.n_elements()).collect();
        assert_eq!(lines.len(), mesh.n_elements());
        assert_eq!(lines[0].trim(), "1");
    }

    fn sample_checkpoint() -> Checkpoint {
        let input = InputDeck::new(crate::input::ProblemSpec::Sod { nx: 8, ny: 2 });
        let (mesh, st) = sample();
        let cursor = LoopState {
            t: 0.25,
            steps: 17,
            dt_prev: Some(2e-4),
        };
        let snap = Snapshot::capture(RestartView::live(&mesh, &st, cursor));
        Checkpoint { input, snap }
    }

    #[test]
    fn checkpoint_roundtrip_is_exact() {
        let mut ckpt = sample_checkpoint();
        // Perturb so the payload is non-trivial.
        ckpt.snap.u[3] = Vec2::new(0.5, -0.25);
        ckpt.snap.q[1] = 0.375;
        ckpt.snap.nd_mass[5] = 0.0625;
        // With and without a previous dt (the flag byte).
        for dt_prev in [Some(2e-4), None] {
            ckpt.snap.dt_prev = dt_prev;
            let bytes = ckpt.to_bytes();
            let back = Checkpoint::from_bytes(&bytes).unwrap();
            assert_eq!(back, ckpt);
            // The writer is deterministic.
            assert_eq!(back.to_bytes(), bytes);
        }
    }

    /// The one-pass writer makes the bytes a whole-file encoder makes —
    /// the format as the module docs lay it out, CRC over the lot — for
    /// a state many staging buffers long, behind a deck text whose
    /// length leaves every field unaligned in the buffer.
    #[test]
    fn the_streamed_bytes_are_the_format() {
        let deck = decks::noh(100);
        let state = HydroState::new(
            &deck.mesh,
            &deck.materials,
            |e| deck.rho[e] + e as f64 * 1e-3,
            |e| deck.ein[e],
            |n| deck.u[n],
        )
        .unwrap();
        let cursor = LoopState {
            t: 0.5,
            steps: 3,
            dt_prev: Some(1e-4),
        };
        let snap = Snapshot::capture(RestartView::live(&deck.mesh, &state, cursor));
        let deck_text = "name = odd\n".repeat(999);
        let mut streamed = Vec::new();
        write_checkpoint(&mut streamed, &deck_text, snap.view()).unwrap();

        let mut whole = Vec::new();
        whole.extend_from_slice(CHECKPOINT_MAGIC);
        whole.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        whole.extend_from_slice(&(deck_text.len() as u32).to_le_bytes());
        whole.extend_from_slice(deck_text.as_bytes());
        whole.extend_from_slice(&snap.time.to_le_bytes());
        whole.extend_from_slice(&snap.steps.to_le_bytes());
        whole.push(1);
        whole.extend_from_slice(&1e-4f64.to_le_bytes());
        whole.extend_from_slice(&(snap.n_nodes() as u64).to_le_bytes());
        whole.extend_from_slice(&(snap.n_elements() as u64).to_le_bytes());
        for v in snap.nodes.iter().chain(&snap.u) {
            whole.extend_from_slice(&v.x.to_le_bytes());
            whole.extend_from_slice(&v.y.to_le_bytes());
        }
        let scalars = [&snap.nd_mass, &snap.mass, &snap.rho, &snap.ein, &snap.q];
        for v in scalars
            .into_iter()
            .flatten()
            .chain(snap.cnmass.as_flattened())
        {
            whole.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc32(&whole);
        whole.extend_from_slice(&crc.to_le_bytes());
        assert!(whole.len() > 8 * STAGE_BYTES);
        assert!(streamed == whole, "the streamed bytes differ");
    }

    #[test]
    fn checkpoint_rejects_bad_magic_version_and_crc() {
        let bytes = sample_checkpoint().to_bytes();

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(Checkpoint::from_bytes(&bad), Err(CheckpointError::BadMagic));

        let mut bad = bytes.clone();
        bad[8] = 99; // version field
        assert_eq!(
            Checkpoint::from_bytes(&bad),
            Err(CheckpointError::UnsupportedVersion {
                found: 99,
                supported: CHECKPOINT_VERSION
            })
        );

        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        assert!(matches!(
            Checkpoint::from_bytes(&bad),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn checkpoint_rejects_truncation_at_any_header_boundary() {
        let bytes = sample_checkpoint().to_bytes();
        for cut in [0, 4, 8, 12, 15, bytes.len() / 2, bytes.len() - 1] {
            let err = Checkpoint::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::Corrupt { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn checkpoint_file_io_errors_are_typed() {
        let err = Checkpoint::read_from("/nonexistent/no/such.ckpt").unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }), "{err}");
    }

    #[test]
    fn crc32_matches_known_vector_via_util() {
        // The classic check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
