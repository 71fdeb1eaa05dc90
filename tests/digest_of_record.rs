//! The digests of record, pinned.
//!
//! `tests/fixtures/decks/record_noh.deck` and `record_sedov_ale.deck`
//! are the benchmark harness's two run decks as it renders them for
//! seed 1 (`benchmark/decks/*.deck`: Noh 251 x 261 x 20 steps, Sedov
//! with an Eulerian remap every step 187 x 197 x 30 steps). Their
//! `state_crc` / `time_bits` — what `bookleaf run` prints and the
//! harness checks — must not move under any executor shape or either
//! setting of the overlap toggle: every refactoring of the kernels,
//! the sweeps that drive them or the exchange schedule is held to
//! these numbers.
//!
//! An ALE digest depends on the rank count (a distributed remap is
//! first order at partition boundaries, where the limiter's upstream
//! stencil leaves the ghost layer), so the Sedov deck has one digest
//! per rank count; threads within a rank never move a bit.
//!
//! Debug builds (tier-1) run serial and two flat ranks — Noh with the
//! overlap toggle on and off, the remap deck with the default — about
//! 10 s of CPU per run; `--release` (CI's `scaling-smoke` job) runs the
//! whole matrix: serial, 1 x 2 threads, 2 ranks and 2 x 2, overlap on
//! and off wherever there is a halo.

use bookleaf::core::{ExecutorKind, Simulation};
use bookleaf::serve::state_crc;

const SERIAL: ExecutorKind = ExecutorKind::Serial;
const FLAT2: ExecutorKind = ExecutorKind::FlatMpi { ranks: 2 };
const HYBRID_1X2: ExecutorKind = ExecutorKind::Hybrid {
    ranks: 1,
    threads_per_rank: 2,
};
const HYBRID_2X2: ExecutorKind = ExecutorKind::Hybrid {
    ranks: 2,
    threads_per_rank: 2,
};

/// `(state_crc, time_bits)` of the fixture deck `name` run to its step
/// budget on `executor`.
fn digest(name: &str, executor: ExecutorKind, overlap: bool) -> (u32, u64) {
    let path = format!(
        "{}/tests/fixtures/decks/{name}.deck",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut sim = Simulation::builder()
        .deck_file(path)
        .executor(executor)
        .overlap(overlap)
        .build()
        .unwrap();
    let report = sim.run().unwrap();
    (state_crc(&sim), report.time.to_bits())
}

/// A debug build runs the first `debug_runs` of `runs`, `--release`
/// all of them; each must print `expect`.
fn assert_digests(
    name: &str,
    runs: &[(ExecutorKind, bool)],
    debug_runs: usize,
    expect: (u32, u64),
) {
    let runs = if cfg!(debug_assertions) {
        &runs[..debug_runs]
    } else {
        runs
    };
    for &(executor, overlap) in runs {
        let got = digest(name, executor, overlap);
        assert_eq!(
            got, expect,
            "{name} on {executor:?}, overlap {overlap}: state_crc {} time_bits {:#018x}",
            got.0, got.1
        );
    }
}

const NOH: (u32, u64) = (4_291_502_276, 0x3f2f_d8d8_2c5d_9c7a);
const SEDOV_ALE_TIME: u64 = 0x3f3a_9631_bc06_b4cd;

/// One rank has no halo: the overlap toggle has nothing to switch.
const ONE_RANK: [(ExecutorKind, bool); 2] = [(SERIAL, true), (HYBRID_1X2, true)];
const TWO_RANKS: [(ExecutorKind, bool); 4] = [
    (FLAT2, true),
    (FLAT2, false),
    (HYBRID_2X2, true),
    (HYBRID_2X2, false),
];

#[test]
fn noh_on_one_rank() {
    assert_digests("record_noh", &ONE_RANK, 1, NOH);
}

#[test]
fn noh_on_two_ranks_is_the_serial_digest() {
    assert_digests("record_noh", &TWO_RANKS, 2, NOH);
}

#[test]
fn sedov_ale_on_one_rank() {
    assert_digests(
        "record_sedov_ale",
        &ONE_RANK,
        1,
        (3_388_783_936, SEDOV_ALE_TIME),
    );
}

#[test]
fn sedov_ale_on_two_ranks() {
    assert_digests(
        "record_sedov_ale",
        &TWO_RANKS,
        1,
        (1_740_681_339, SEDOV_ALE_TIME),
    );
}
