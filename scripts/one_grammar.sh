#!/bin/sh
# One grammar: a deck key is named in its `SCHEMA` row, in the one
# description of its typed section (`keys` in
# `crates/core/src/input.rs`, which both the writer and the reader run)
# and, where an error anchors at it, in `check` — and serve asks the
# parser which line set a key instead of reading deck text itself.
# Fails, naming the lines, if above `input.rs`'s first `#[cfg(test)]`
# (the cut `scripts/loc.sh` uses) a per-direction converter comes back
# (`fn build_*`, `fn flatten*`, `fn nums`, `fn variant`), or if above a
# file's first `#[cfg(test)]` under `crates/serve/src` `anchor_line` or
# a line scan of text (`.lines()`, `split('\n')`) appears. And one
# build of a deck per run: above a file's first `#[cfg(test)]` in the
# product (the nine product crates and the facade's `src/`), a call of
# `build_deck(` appears exactly once in `crates/core/src/sim.rs` (the
# builder, whatever the deck's source — text, file, checkpoint) and once
# in `crates/serve/src/cache.rs` (the deck cache), and nowhere else: a
# checkpoint is decoded without building its deck. Run from anywhere:
#
#   scripts/one_grammar.sh
set -eu
cd "$(dirname "$0")/.."

# above_tests PATTERN FILE... -> "file:line: text" of the non-test
# lines that match
above_tests() {
    pattern=$1
    shift
    awk -v pattern="$pattern" '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test && $0 ~ pattern { printf "%s:%d: %s\n", FILENAME, FNR, $0 }' "$@"
}

status=0
# `InputDeck::build_deck` makes the runtime `Deck`, not a converter.
found=$(above_tests 'fn (build|build_[a-z_]*|flatten[a-z_]*|nums|variant)[<(]' \
    crates/core/src/input.rs | grep -v 'fn build_deck(' || true)
if [ -n "$found" ]; then
    echo "one_grammar: a per-direction deck converter is back in input.rs:" >&2
    echo "$found" >&2
    status=1
fi

found=$(above_tests "anchor_line|\\.lines\\(\\)|split\\('\\\\n'\\)" \
    $(find crates/serve/src -name '*.rs' | sort))
if [ -n "$found" ]; then
    echo "one_grammar: serve scans deck text (ask core::input::key_line):" >&2
    echo "$found" >&2
    status=1
fi

found=$(above_tests 'build_deck\(' \
    $(find src crates/util/src crates/mesh/src crates/partition/src \
        crates/typhon/src crates/hydro/src crates/ale/src crates/eos/src \
        crates/core/src crates/serve/src -name '*.rs' | sort) |
    grep -v 'fn build_deck(' | grep -v '^[^:]*:[0-9]*: *//' || true)
for allowed in crates/core/src/sim.rs crates/serve/src/cache.rs; do
    if [ "$(printf '%s\n' "$found" | grep -c "^$allowed:")" -eq 1 ]; then
        found=$(printf '%s\n' "$found" | grep -v "^$allowed:" || true)
    fi
done
if [ -n "$found" ]; then
    echo "one_grammar: a deck is built outside the builder's one call (sim.rs)" >&2
    echo "and the deck cache's (serve/cache.rs):" >&2
    echo "$found" >&2
    status=1
fi

[ "$status" -eq 0 ] && echo "one_grammar: ok"
exit "$status"
