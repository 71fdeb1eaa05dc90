#!/bin/sh
# Waits are on state, not on clocks. A Typhon team's mailboxes, its
# collective, its failure marks and what each rank is blocked on are one
# state behind one lock, and every blocking receive or collective waits
# through one helper on that lock's condition variable; the team sees
# when no rank can progress and ends every wait at once, so no caller
# sets a comm deadline and nothing in the product sleeps and hopes.
# Fails, naming the lines, if above a file's first `#[cfg(test)]` (the
# cut `scripts/loc.sh` uses)
#
#   * any of the nine product crates (util mesh partition typhon hydro
#     ale eos core serve) calls `thread::sleep(`, or names a comm
#     timeout knob: `comm_timeout`, `recv_timeout` or `comm-timeout`, in
#     any case (so the `X-Comm-Timeout-Ms` header, and a channel's
#     `recv_timeout(` wait, too);
#   * `crates/typhon/src` names `mpsc` or `Receiver`, or has any number
#     of `wait_timeout_while(` call sites but exactly one.
#
# Run from anywhere:
#
#   scripts/one_wait.sh
set -eu
cd "$(dirname "$0")/.."

above() {
    # above [-i] PATTERN FILE... -> "file:line: text" for each non-test
    # line matching PATTERN (with -i, in any case)
    icase=0
    if [ "$1" = -i ]; then
        icase=1
        shift
    fi
    pat=$1
    shift
    awk -v pat="$pat" -v icase="$icase" '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test && (icase ? tolower($0) ~ tolower(pat) : $0 ~ pat) {
            printf "%s:%d: %s\n", FILENAME, FNR, $0
        }
    ' "$@"
}

product=$(for c in util mesh partition typhon hydro ale eos core serve; do
    find "crates/$c/src" -name '*.rs'
done | sort)
typhon=$(find crates/typhon/src -name '*.rs' | sort)

status=0
found=$(above 'thread::sleep\(' $product)
if [ -n "$found" ]; then
    echo "one_wait: a sleep in product code:" >&2
    echo "$found" >&2
    status=1
fi
found=$(above -i 'comm_timeout|recv_timeout|comm-timeout' $product)
if [ -n "$found" ]; then
    echo "one_wait: a comm timeout knob in product code:" >&2
    echo "$found" >&2
    status=1
fi
found=$(above 'mpsc|Receiver' $typhon)
if [ -n "$found" ]; then
    echo "one_wait: a channel in typhon:" >&2
    echo "$found" >&2
    status=1
fi
waits=$(above 'wait_timeout_while\(' $typhon)
n=$(printf '%s' "$waits" | grep -c . || true)
if [ "$n" -ne 1 ]; then
    echo "one_wait: $n wait_timeout_while( call sites in typhon, want exactly 1:" >&2
    [ -z "$waits" ] || echo "$waits" >&2
    status=1
fi
[ "$status" -eq 0 ] && echo "one_wait: ok"
exit "$status"
