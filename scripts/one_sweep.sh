#!/bin/sh
# One sweep: `crates/hydro/src/sweep.rs` is the only code in `hydro`
# and `ale` that names `rayon::join` (or a parallel iterator) or
# branches on `Threading` — a kernel is its per-entity body plus one
# `sweep` call. Fails, naming the lines, if `par_iter`, `rayon::join`
# or a `Threading::Serial =>` / `Threading::Rayon =>` match arm occurs
# anywhere else above a file's first `#[cfg(test)]` (the cut
# `scripts/loc.sh` uses). Run from anywhere:
#
#   scripts/one_sweep.sh
set -eu
cd "$(dirname "$0")/.."

found=$(find crates/hydro/src crates/ale/src -name '*.rs' \
    ! -name sweep.rs | sort | xargs awk '
    FNR == 1 { in_test = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    !in_test && /par_iter|rayon::join|Threading::(Serial|Rayon)[[:space:]]*=>/ {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
    }')
if [ -n "$found" ]; then
    echo "one_sweep: traversal code outside crates/hydro/src/sweep.rs:" >&2
    echo "$found" >&2
    exit 1
fi
echo "one_sweep: ok"
