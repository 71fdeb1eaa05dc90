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
# `AutoCheckpoint`, a `dyn Fn` hook, or the observer hooks no observer
# implemented (`StepPhase`, `fn step_begin`, `fn phase_end`: observers
# see run begin, step end and run end). Also fails if `read_dir(` is
# called above `crates/core/src/resilience.rs`'s first `#[cfg(test)]`:
# the supervisor rewinds to the file its `CheckpointStore` last
# verified, and the store deletes only the file it replaced, so neither
# lists the directory (a shared one holds other runs' files). Run from
# anywhere:
#
#   scripts/one_rank.sh
set -eu
cd "$(dirname "$0")/.."

files=$(find crates/core/src -name '*.rs' | sort)
fail=0

calls=$(echo "$files" | xargs awk '
    FNR == 1 { in_test = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    !in_test && /run_loop\(/ && !/fn run_loop/ && !/^[[:space:]]*\/\// {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
    }')
if [ "$(echo "$calls" | grep -c .)" -ne 1 ]; then
    echo "one_rank: run_loop must have exactly one call site, found:" >&2
    echo "$calls" >&2
    fail=1
fi

found=$(echo "$files" | xargs grep -nE \
    'LoopWatch|SentinelOps|RankOut|global_pair|AutoCheckpoint|dyn Fn|StepPhase|fn step_begin|fn phase_end' || true)
if [ -n "$found" ]; then
    echo "one_rank: forked run scaffolding or an unused observer hook is back under crates/core/src:" >&2
    echo "$found" >&2
    fail=1
fi

listed=$(awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
    /read_dir\(/ && !/^[[:space:]]*\/\// { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' crates/core/src/resilience.rs)
if [ -n "$listed" ]; then
    echo "one_rank: the checkpoint store or the supervisor lists its directory:" >&2
    echo "$listed" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "one_rank: ok"
