#!/bin/sh
# One rank: a serial run is a rank with nobody to talk to, so "one
# rank's work" exists once in `core` — the rank engine in
# `crates/core/src/executor.rs` is the only caller of `run_loop`, and
# everything a step needs from the rest of the team comes through the
# one `Team` it is handed. Fails, naming the lines, if above a file's
# first `#[cfg(test)]` (the cut `scripts/loc.sh` uses) `run_loop(` is
# called from more than one place under `crates/core/src`, or if the
# scaffolding the engine replaced comes back anywhere under it:
# `LoopWatch`, `SentinelOps`, `RankOut`, `global_pair`,
# `AutoCheckpoint`, or a `dyn Fn` hook. Run from anywhere:
#
#   scripts/one_rank.sh
set -eu
cd "$(dirname "$0")/.."

files=$(find crates/core/src -name '*.rs' | sort)

calls=$(echo "$files" | xargs awk '
    FNR == 1 { in_test = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    !in_test && /run_loop\(/ && !/fn run_loop/ && !/^[[:space:]]*\/\// {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
    }')
if [ "$(echo "$calls" | grep -c .)" -ne 1 ]; then
    echo "one_rank: run_loop must have exactly one call site, found:" >&2
    echo "$calls" >&2
    exit 1
fi

found=$(echo "$files" | xargs grep -nE \
    'LoopWatch|SentinelOps|RankOut|global_pair|AutoCheckpoint|dyn Fn' || true)
if [ -n "$found" ]; then
    echo "one_rank: forked run scaffolding is back under crates/core/src:" >&2
    echo "$found" >&2
    exit 1
fi
echo "one_rank: ok"
