#!/bin/sh
# Hot loops: no production sweep calls a named `bookleaf_*` function
# per entity. A per-entity body that LLVM leaves out of line (or that
# calls an out-of-line helper such as `Mesh::corners`) pays a call, a
# return through memory and a serialised dependency chain per element —
# a cliff of 10 % and more of a run that no test sees and no wall-clock
# gate resolves, but the disassembly shows.
#
# Disassembles the release `bookleaf` binary and fails, naming caller
# and callee, if the code of
#
#   * any `bookleaf_hydro::sweep::Run<..>::walk` / `::fork`
#     instantiation (the loops every kernel body is inlined into), or
#   * any closure symbol of `eos_fused`, `getdt`, `viscforce`, `getacc`
#     (a body the inliner left out of line), or of the remap's sweeps
#     in `bookleaf_ale`: `compute_fluxes`, `remap_elements`,
#     `remap_nodes` and the mass-weighted cell-velocity sweep of
#     `Remapper::remap`
#
# contains a `call` to a `bookleaf_*` function that is neither a closure
# nor part of `bookleaf_hydro::sweep` itself (`Run::walk` under `fork`,
# `Columns::split_at` per leaf and per listed entity — the traversal's
# own cost, paid by every kernel alike). Calls to `core::panicking::*`,
# the slice index failure paths and rayon are allowed. Run from
# anywhere, after `cargo build --release`:
#
#   scripts/hot_loops.sh [path/to/bookleaf]
set -eu
cd "$(dirname "$0")/.."

bin=${1:-target/release/bookleaf}
if ! command -v objdump >/dev/null 2>&1; then
    echo "hot_loops: skipped (no objdump on this host)"
    exit 0
fi
if [ ! -x "$bin" ]; then
    echo "hot_loops: $bin not found; run \`cargo build --release\` first" >&2
    exit 2
fi

found=$(objdump -d --no-show-raw-insn -C "$bin" | awk '
    /^[0-9a-f]+ <.*>:$/ {
        caller = $0
        sub(/^[0-9a-f]+ </, "", caller)
        sub(/>:$/, "", caller)
        hot = caller ~ /^bookleaf_hydro::sweep::Run<.*>::(walk|fork)$/ ||
            caller ~ /^bookleaf_hydro::(eos_fused|getdt|viscforce|getacc)::.*\{\{closure\}\}/ ||
            caller ~ /^bookleaf_ale::(advect::compute_fluxes|remap::remap_elements|remap::remap_nodes|remap::Remapper::remap)(<.*>)?::\{\{closure\}\}/
        next
    }
    hot && /[[:space:]]call[[:space:]]/ {
        callee = $0
        if (callee !~ /<.*>/) next
        sub(/^[^<]*</, "", callee)
        sub(/>$/, "", callee)
        sub(/\+0x[0-9a-f]+$/, "", callee)
        if (callee !~ /bookleaf_/) next
        if (callee ~ /\{\{closure\}\}/) next
        if (callee ~ /bookleaf_hydro::sweep::/) next
        print caller " calls " callee
    }' | sort | uniq -c)
if [ -n "$found" ]; then
    echo "hot_loops: out-of-line calls inside a sweep (count, caller, callee):" >&2
    echo "$found" >&2
    exit 1
fi
echo "hot_loops: ok"
