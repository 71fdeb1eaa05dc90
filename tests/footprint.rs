//! A run holds the problem once.
//!
//! A rank team builds per-rank pieces of the mesh and state, and the
//! engine behind `Simulation` keeps only the restart snapshot the team
//! leaves — not a second, global `HydroState` that no rank reads. A run
//! of one rank shares the deck's mesh topology instead of copying it,
//! and a state stores only what a restart or a second kernel reads.
//! The guard needs no wall clock and no RSS sampling: a
//! `#[global_allocator]` tracks live heap bytes (atomically — rank
//! threads allocate too), and build → run → digest must peak within a
//! fixed number of bytes, pinned as a multiple of [`REFERENCE_PEAK`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bookleaf::ale::{AleMode, AleOptions};
use bookleaf::core::decks;
use bookleaf::serve::state_crc;
use bookleaf::{ExecutorKind, Simulation, SimulationBuilder};

/// Heap bytes currently allocated, and the most that ever were.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Tracking;

impl Tracking {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Relaxed) + by;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: defers every request to `System` unchanged; the counters are
// plain statics (statistics — they publish no other data, so `Relaxed`),
// and touching them never re-enters the allocator.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grew(layout.size());
        // SAFETY: `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Relaxed);
        Self::grew(new_size);
        // SAFETY: arguments are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Peak of live heap bytes, above where it started, over deck build
/// (`setup`) → `build()` → two steps → `state_crc`.
fn peak_bytes(setup: impl FnOnce() -> SimulationBuilder) -> usize {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let mut sim = setup().max_steps(2).build().unwrap();
    let report = sim.run().unwrap();
    assert_eq!(report.steps, 2);
    std::hint::black_box(state_crc(&sim));
    PEAK.load(Relaxed) - start
}

/// [`peak_bytes`] of the 128² Noh deck under `executor`.
fn noh(executor: ExecutorKind) -> usize {
    peak_bytes(|| {
        Simulation::builder()
            .deck(decks::noh(128))
            .executor(executor)
    })
}

/// The peak as a multiple of [`REFERENCE_PEAK`], printed (`--nocapture`
/// shows every row).
fn of_reference(what: &str, peak: usize) -> f64 {
    let ratio = peak as f64 / REFERENCE_PEAK as f64;
    println!("peak live heap: {what} {peak} B, {ratio:.3}x");
    ratio
}

/// The serial peak of the sequence above on `decks::noh(128)` (debug
/// and `--release` alike) when a one-rank run still copied the deck's
/// topology and stored face adjacency twice: a fixed unit, so a bound
/// does not loosen when the serial run it used to divide by shrinks.
const REFERENCE_PEAK: usize = 9_401_530;

/// One test function: the counters are process-wide, so nothing else may
/// allocate beside a measurement.
#[test]
fn every_shape_peaks_within_its_pinned_bytes() {
    // A run of one rank — serial, or a flat-MPI or hybrid shape of one
    // rank, which are the serial engine — holds the deck (one topology,
    // its nodes, the painted fields) and one live pair whose mesh shares
    // that topology: measured 0.620x (0.550x for `FlatMpi { ranks: 1 }`).
    // Per element the state holds 152 B — 7 scalars (mass, ρ, ε, p, c²,
    // volume, q) and 3 corner rows (corner masses, both force
    // components) — plus 40 B per node (u, ubar, nodal mass); edge
    // viscosities, corner volumes, CFL length and ∇·u are computed where
    // they are read. The topology's node→corner table is one `u32` per
    // corner, 16 B per element. Storing the four derived fields again
    // costs 0.14x, the node→corner table at 8 B per corner 0.03x, a copy
    // of the topology 0.13x, a second face table 0.03x, a partition or a
    // gathered snapshot beside the live pair a tenth or more.
    for executor in [
        ExecutorKind::Serial,
        ExecutorKind::FlatMpi { ranks: 1 },
        ExecutorKind::Hybrid {
            ranks: 1,
            threads_per_rank: 2,
        },
    ] {
        let one = noh(executor);
        let ratio = of_reference(&format!("{executor:?}"), one);
        assert!(
            ratio <= 0.65,
            "{executor:?} peaks at {ratio:.3}x the reference ({one} B): \
             is the deck's topology copied, a derived field stored, or one \
             rank run as a team?"
        );
    }
    // Deck + two half-mesh ranks with their halo plans, then deck + the
    // ranks' results + one snapshot: measured 0.955x (the spread is how
    // far the two rank threads' lifetimes overlap); with a global pair
    // alive beside the ranks and a capture of it before they start, the
    // same sequence read 1.87x the serial peak of that time.
    let flat = noh(ExecutorKind::FlatMpi { ranks: 2 });
    let ratio = of_reference("flat x2", flat);
    assert!(
        ratio <= 1.0,
        "flat MPI x2 peaks at {ratio:.3}x the reference ({flat} B): \
         is a global state alive while the ranks run?"
    );
    // The remap path: a serial Eulerian Sedov run of the same size,
    // remapping after each step. Beside the Noh run's deck and live pair
    // it holds the remapper's reference positions; its work arrays are
    // the Lagrangian step's scratch, lent out. Measured 0.620x, the
    // serial Noh row's peak to within a few bytes: the remap adds
    // nothing above it.
    let sedov = peak_bytes(|| {
        Simulation::builder()
            .deck(decks::sedov(128))
            .ale(Some(AleOptions {
                mode: AleMode::Eulerian,
                frequency: 1,
            }))
    });
    let ratio = of_reference("serial Sedov-ALE", sedov);
    assert!(
        ratio <= 0.65,
        "serial Sedov-ALE peaks at {ratio:.3}x the reference ({sedov} B): \
         does the remap keep work arrays of its own?"
    );
}
