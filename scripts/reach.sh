#!/bin/sh
# Reachability: every `pub` item of the product crates is called by the
# product or listed, with its reason, in `SURFACE.txt`.
#
# Items are the `pub` `fn` / `struct` / `enum` / `trait` / `const` /
# `static` / `type` (a `pub fn` inside an `impl` included) above a
# file's first `#[cfg(test)]` (the cut `scripts/loc.sh` uses) under
# `crates/{util,mesh,partition,typhon,hydro,ale,eos,core,serve}/src`. An
# item is *reached* when its name appears as a word in the non-test,
# non-comment, non-string code of another product file or of
# `src/bin/bookleaf.rs`; `pub use` / `pub mod` statements reach nothing.
# An item's path is its crate, its file's module path and, for a method,
# its type: `hydro::state::HydroState::new`.
#
# `SURFACE.txt` holds one line per unreached item, `<path> <reason>`,
# the reason one word of: tests bench benchmark examples reference
# signature. Blank lines and `#` lines are skipped. Fails, naming the
# lines, on an item neither reached nor listed, and on a listed item
# that no longer exists or is now reached. Run from anywhere:
#
#   scripts/reach.sh
set -eu
cd "$(dirname "$0")/.."

files=$(for c in util mesh partition typhon hydro ale eos core serve; do
    find "crates/$c/src" -name '*.rs'
done | sort)
surface=SURFACE.txt
[ -f "$surface" ] || surface=/dev/null

awk -v surface="$surface" '
# code(LINE) -> LINE with comments removed and the contents of string
# and char literals blanked; block comments and strings carry over
# from line to line (`blk`, `str`).
function code(line,    out, n, i, c, c2, j) {
    out = ""
    n = length(line)
    i = 1
    while (i <= n) {
        c = substr(line, i, 1)
        c2 = substr(line, i, 2)
        if (blk > 0) {
            if (c2 == "*/") { blk--; i += 2 }
            else if (c2 == "/*") { blk++; i += 2 }
            else i++
            out = out " "
            continue
        }
        if (str) {
            if (c == "\\") { i += 2; out = out " "; continue }
            if (c == "\"") str = 0
            else c = " "
            out = out c
            i++
            continue
        }
        if (c2 == "//") break
        if (c2 == "/*") { blk = 1; i += 2; out = out " "; continue }
        if (c == "\"") str = 1
        else if (c == "\047" && substr(line, i + 1, 1) == "\\") {
            j = index(substr(line, i + 3), "\047")
            i += 3 + j
            out = out "\047 \047"
            continue
        } else if (c == "\047" && substr(line, i + 2, 1) == "\047") {
            i += 3
            out = out "\047 \047"
            continue
        }
        out = out c
        i++
    }
    return out
}

# impl_type(CODE) -> the type an `impl` header names (last path segment)
function impl_type(s,    d, i, c) {
    sub(/^[[:space:]]*(unsafe[[:space:]]+)?impl/, "", s)
    if (substr(s, 1, 1) == "<") {
        d = 0
        for (i = 1; i <= length(s); i++) {
            c = substr(s, i, 1)
            if (c == "<") d++
            else if (c == ">" && --d == 0) break
        }
        s = substr(s, i + 1)
    }
    if (match(s, /[[:space:]]for[[:space:]]/)) s = substr(s, RSTART + RLENGTH)
    sub(/^[[:space:]&]*(dyn[[:space:]]+)?/, "", s)
    match(s, /^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*/)
    s = substr(s, 1, RLENGTH)
    sub(/.*::/, "", s)
    return s
}

FILENAME == surface {
    if ($0 ~ /^[[:space:]]*(#|$)/) next
    where = "SURFACE.txt:" FNR ": " $0
    if (NF != 2 || $2 !~ /^(tests|bench|benchmark|examples|reference|signature)$/)
        bad[++nbad] = where " (want `<crate>::<path> <reason>`, reason one of tests bench benchmark examples reference signature)"
    else if ($1 in listed)
        bad[++nbad] = where " (listed twice)"
    else {
        listed[$1] = where
        order[++nlisted] = $1
    }
    next
}

FNR == 1 {
    cut = 0; blk = 0; str = 0; in_use = 0
    depth = 0; top = 0; pending = ""
    product = (FILENAME ~ /^crates\//)
    modpath = FILENAME
    sub(/^crates\//, "", modpath)
    sub(/\/src\//, "/", modpath)
    sub(/(\/lib|\/mod)?\.rs$/, "", modpath)
    gsub(/\//, "::", modpath)
}
/^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
cut { next }

{
    line = code($0)

    # words, except those of `pub use` / `pub mod` statements
    if (line ~ /^[[:space:]]*pub[[:space:]]+(use|mod)[[:space:]]/) in_use = 1
    if (!in_use) {
        rest = line
        while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
            w = substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
            if ((w, FILENAME) in seen) continue
            seen[w, FILENAME] = 1
            if (!(w in first)) first[w] = FILENAME
            else if (first[w] != FILENAME) many[w] = 1
        }
    }
    if (in_use && (line ~ /[;{]/)) in_use = 0

    if (!product) next

    # items, named inside the innermost `impl` or inline `mod`
    s = line
    sub(/^[[:space:]]*(#\[[^]]*\][[:space:]]*)*/, "", s)
    name = ""
    if (match(s, /^pub[[:space:]]+((const|unsafe)[[:space:]]+)*fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/) ||
        match(s, /^pub[[:space:]]+(struct|enum|trait|type|static([[:space:]]+mut)?)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/) ||
        match(s, /^pub[[:space:]]+const[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
        name = substr(s, RSTART, RLENGTH)
        sub(/.*[[:space:]]/, "", name)
    }
    if (name != "" && name != "fn") {
        path = modpath
        for (k = 1; k <= top; k++) path = path "::" frame[k]
        path = path "::" name
        item[++nitems] = path
        iname[nitems] = name
        ifile[nitems] = FILENAME
        iwhere[nitems] = FILENAME ":" FNR
    }

    if (s ~ /^(unsafe[[:space:]]+)?impl([[:space:]<]|$)/) pending = impl_type(s)
    else if (match(s, /^(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*\{/)) {
        pending = substr(s, RSTART, RLENGTH)
        sub(/[[:space:]]*\{$/, "", pending)
        sub(/.*[[:space:]]/, "", pending)
    }
    for (i = 1; i <= length(line); i++) {
        c = substr(line, i, 1)
        if (c == "{") {
            if (pending != "") { frame[++top] = pending; opened[top] = depth; pending = "" }
            depth++
        } else if (c == "}") {
            depth--
            if (top > 0 && opened[top] == depth) top--
        }
    }
}

END {
    status = 0
    for (k = 1; k <= nitems; k++) {
        p = item[k]; w = iname[k]
        reached = (w in many) || ((w in first) && first[w] != ifile[k])
        if (reached) hit[p] = 1
        exists[p] = 1
        if (!reached && !(p in listed) && !(p in told)) {
            told[p] = 1
            if (!status) print "reach: pub items nothing in the product reaches and SURFACE.txt does not list (call them, make them private, delete them, or list them with a reason):" > "/dev/stderr"
            print iwhere[k] ": " p > "/dev/stderr"
            status = 1
        }
    }
    for (k = 1; k <= nlisted; k++) {
        p = order[k]
        if (!(p in exists)) bad[++nbad] = listed[p] " (no such pub item)"
        else if (p in hit) bad[++nbad] = listed[p] " (reached by the product: drop the line)"
    }
    if (nbad) {
        print "reach: stale SURFACE.txt lines:" > "/dev/stderr"
        for (k = 1; k <= nbad; k++) print bad[k] > "/dev/stderr"
        status = 1
    }
    if (!status) print "reach: ok (" nitems " pub items, " nlisted " listed in SURFACE.txt)"
    exit status
}
' "$surface" $files src/bin/bookleaf.rs
