#!/bin/sh
# One measurement stack: `benchmark/` is the only thing that times a
# run. `crates/bench` is the paper's tables and figures plus the
# `kernels` A/B of the production kernels against the kept references
# (`BENCH_kernels.json`), and the rayon shim is a fork-join pool with
# no parallel iterators. Fails, naming what it found, if
#
#   * a root `BENCH_*.json` other than `BENCH_kernels.json` exists,
#   * `crates/bench/benches` or a `[[bench]]` table exists,
#   * `criterion` or `serde` appears in the root `Cargo.toml` /
#     `Cargo.lock`,
#   * `par_iter` or `rayon::prelude` appears under `crates/` or
#     `shims/rayon/src`.
#
# Run from anywhere:
#
#   scripts/one_stack.sh
set -eu
cd "$(dirname "$0")/.."

found=$(
    find . -maxdepth 1 -name 'BENCH_*.json' ! -name BENCH_kernels.json
    [ ! -e crates/bench/benches ] || echo crates/bench/benches
    grep -n '^\[\[bench\]\]' Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml || true
    grep -nE 'criterion|serde' Cargo.toml Cargo.lock || true
    grep -rnE 'par_iter|rayon::prelude' crates shims/rayon/src || true
)
if [ -n "$found" ]; then
    echo "one_stack: a second measurement stack (or what only it used) is back:" >&2
    echo "$found" >&2
    exit 1
fi
echo "one_stack: ok"
