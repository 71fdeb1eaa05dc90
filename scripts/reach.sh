#!/bin/sh
# Reachability: every `pub` item of the product crates is called by the
# product or listed, with its reason, in `SURFACE.txt`.
#
# Items are the `pub` `fn` / `struct` / `enum` / `trait` / `const` /
# `static` / `type` (a `pub fn` inside an `impl` included) above a
# file's first `#[cfg(test)]` (the cut `scripts/loc.sh` uses) under
# `crates/{util,mesh,partition,typhon,hydro,ale,eos,core,serve}/src`,
# named `<crate>::<module path>[::<type>]::<name>`. rustc decides who
# calls an item: a copy of the workspace in `target/reach/` marks item n
# `#[deprecated(note = "REACH n")]`, and `cargo check` of the nine
# crates and the CLI warns at each use (test code is not compiled; a
# field or variant use carries its type's note). An item is *reached*
# by such a warning in another product file or in `src/bin/bookleaf.rs`
# outside a `pub use` / `pub mod` statement. `allow(deprecated)` in
# product code would hide uses, so it fails the script.
#
# `SURFACE.txt` holds one line per unreached item, `<path> <reason>`,
# the reason one word of: tests bench benchmark examples reference
# signature; blank and `#` lines are skipped. Fails, naming the lines,
# on an item neither reached nor listed, and on a listed item that no
# longer exists or is now reached. Run from anywhere: `scripts/reach.sh`.
set -eu
cd "$(dirname "$0")/.."

crates="util mesh partition typhon hydro ale eos core serve"
files=$(find $(printf 'crates/%s/src ' $crates) -name '*.rs' | sort)
surface=SURFACE.txt
[ -f "$surface" ] || surface=/dev/null
out=$(pwd)/target/reach
rm -rf "$out/ws" && mkdir -p "$out/ws"
cp -R Cargo.toml Cargo.lock rust-toolchain.toml crates shims src "$out/ws"
check="cd '$out/ws' && CARGO_TARGET_DIR='$out/target' RUSTFLAGS=--cap-lints=warn cargo check \
    --offline --color never --message-format=short $(printf -- '-p bookleaf-%s ' $crates) \
    -p bookleaf --bin bookleaf > '$out/check' 2>&1"

awk -v surface="$surface" -v ws="$out/ws" -v check="$check" -v census="$out/check" '
# code(LINE) -> LINE with comments removed and the contents of string
# and char literals blanked; block comments and strings carry over
# from line to line (`blk`, `str`).
function code(line,    out, n, i, c, c2, j) {
    n = length(line)
    for (i = 1; i <= n;) {
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
    if (dst != "") close(dst)
    cut = 0; blk = 0; str = 0; in_use = ""
    depth = 0; top = 0; pending = ""
    product = (FILENAME ~ /^crates\//)
    dst = product ? ws "/" FILENAME : ""
    modpath = FILENAME
    sub(/^crates\//, "", modpath)
    sub(/\/src\//, "/", modpath)
    sub(/(\/lib|\/mod)?\.rs$/, "", modpath)
    gsub(/\//, "::", modpath)
    scanned[FILENAME] = 1
}
/^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
cut { if (product) print > dst; next }

{
    line = code($0)
    if (line ~ /allow\([^)]*deprecated/) blind = blind FILENAME ":" FNR ": allow(deprecated) hides uses from reach.sh\n"
    if (match(line, /^[[:space:]]*pub[[:space:]]+(use|mod)[[:space:]]/)) in_use = substr(line, RSTART, RLENGTH) ~ /use/ ? ";" : "[;{]"
    if (in_use != "") { pubuse[FILENAME ":" FNR] = 1; if (line ~ in_use) in_use = "" }

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
    mark = ""
    if (name != "" && name != "fn") {
        path = modpath
        for (k = 1; k <= top; k++) path = path "::" frame[k]
        mark = "#[deprecated(note = \"REACH " ++nitems "\")] "
        item[nitems] = path "::" name
        ifile[nitems] = FILENAME
        iwhere[nitems] = FILENAME ":" FNR
    }
    print mark $0 > dst

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
    if (blind) { printf "%s", blind > "/dev/stderr"; exit 1 }
    if (system(check)) { system("cat \047" census "\047 >&2"); exit 1 }
    # `<file>:<line>:<col>: warning: use of deprecated ...: REACH <n>`
    while ((getline l < census) > 0) {
        if (!match(l, /: REACH [0-9]+$/)) continue
        k = substr(l, RSTART + 8) + 0
        split(l, at, ":")
        if ((at[1] in scanned) && at[1] != ifile[k] && !((at[1] ":" at[2]) in pubuse))
            hit[item[k]] = reached[k] = 1
    }
    for (k = 1; k <= nitems; k++) {
        p = item[k]
        exists[p] = 1
        if (!(k in reached) && !(p in listed) && !told[p]++) {
            if (!status) print "reach: pub items nothing in the product calls and SURFACE.txt does not list (call them, make them private, delete them, or list them with a reason):" > "/dev/stderr"
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
