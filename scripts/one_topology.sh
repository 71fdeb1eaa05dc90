#!/bin/sh
# One topology: a mesh's connectivity is built once, frozen behind an
# `Arc` by `Mesh::new`, and shared — by `Mesh::clone`, by a one-rank
# run's piece and by a team's global view — while only node positions
# are copied. Fails, naming the lines, if above a file's first
# `#[cfg(test)]` (the cut `scripts/loc.sh` uses) under `crates/*/src`
# any of these appear:
#
#   * `make_mut` — copy-on-write of a shared value;
#   * a `Clone` for `Topology`: `impl Clone for Topology`,
#     `Topology::clone`, `<Topology as Clone>`, or a `#[derive(..)]`
#     naming `Clone` on `struct Topology`;
#   * a field-by-field copy of one: `.elnd`, `.ndel_off`, `.ndel`,
#     `.node_bc` or `.region` followed by `.clone()` / `.to_vec()`, or
#     `face_stencil().to_vec()`.
#
# Run from anywhere:
#
#   scripts/one_topology.sh
set -eu
cd "$(dirname "$0")/.."

found=$(find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { in_test = 0; derive = "" }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    in_test { next }
    function hit() { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    /make_mut/ ||
    /Clone for Topology|Topology::clone|Topology as Clone/ ||
    /\.(elnd|ndel_off|ndel|node_bc|region)\.(clone|to_vec)\(\)/ ||
    /face_stencil\(\)\.to_vec\(\)/ { hit() }
    # A derive list, then (past any other attributes and doc comments)
    # the struct it decorates.
    /^[[:space:]]*#\[derive\(/ { derive = $0; next }
    /^[[:space:]]*(#\[|\/\/)/ { next }
    /struct Topology([^A-Za-z0-9_]|$)/ && derive ~ /Clone/ { hit() }
    { derive = "" }')
if [ -n "$found" ]; then
    echo "one_topology: a topology is copied, not shared, under crates/*/src:" >&2
    echo "$found" >&2
    exit 1
fi
echo "one_topology: ok"
