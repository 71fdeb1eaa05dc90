#!/bin/sh
# Rust lines per crate, `all / non-test`, by the rule ROADMAP's size
# table uses: a file's non-test lines are those above its first
# `#[cfg(test)]` (all of it when there is none). Run from anywhere:
#
#   scripts/loc.sh            # every crate, tests/, and the total
#   scripts/loc.sh core       # one crate, file by file
set -eu
cd "$(dirname "$0")/.."

# count FILE... -> "all non-test" summed over the files
count() {
    awk 'FNR == 1 { in_test = 0 }
         /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
         { all++; if (!in_test) code++ }
         END { printf "%d %d\n", all, code }' "$@"
}

if [ $# -eq 1 ]; then
    for f in crates/"$1"/src/*.rs; do
        set -- $(count "$f")
        printf '%-36s %6d / %6d\n' "$f" "$1" "$2"
    done
    exit 0
fi

total_all=0
total_code=0
for dir in crates/*/src; do
    # one awk over all the files: each file's own first #[cfg(test)]
    # is its cut (FNR == 1 resets it)
    set -- $(count $(find "$dir" -name '*.rs' | sort))
    printf '%-12s %6d / %6d\n' "$(basename "$(dirname "$dir")")" "$1" "$2"
    total_all=$((total_all + $1))
    total_code=$((total_code + $2))
done
printf '%-12s %6d / %6d\n' "crates" "$total_all" "$total_code"
printf '%-12s %6d\n' "tests/" "$(cat tests/*.rs | wc -l)"
