#!/bin/sh
# One chain: the EoS is evaluated in `crates/hydro/src/eos_fused.rs`
# (the one body of the `getgeom → getrho → getein → getpc` chain, which
# `getgeom`, `getpc` and `HydroState::new` run with a stage mask) and in
# its serial anchor, `crates/hydro/src/reference.rs`, and nowhere else.
# Fails, naming the lines, if `pressure_cs2` occurs anywhere else in
# `hydro`, `ale`, `core` or `serve` above a file's first `#[cfg(test)]`
# (the cut `scripts/loc.sh` uses). Run from anywhere:
#
#   scripts/one_chain.sh
set -eu
cd "$(dirname "$0")/.."

found=$(find crates/hydro/src crates/ale/src crates/core/src crates/serve/src \
    -name '*.rs' ! -name eos_fused.rs ! -name reference.rs | sort | xargs awk '
    FNR == 1 { in_test = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    !in_test && /pressure_cs2/ {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
    }')
if [ -n "$found" ]; then
    echo "one_chain: the EoS evaluated outside eos_fused.rs and reference.rs:" >&2
    echo "$found" >&2
    exit 1
fi
echo "one_chain: ok"
