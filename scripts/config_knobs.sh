#!/bin/sh
# Config knobs nobody sets: for every `pub` field of every `pub struct
# *Config` under crates/*/src, look in every *other* file's non-test code for
# a write — `field: <expression>` (a struct literal), `.field =`, or the
# shorthand `Struct { field, .. }`: a line holding only `field,` or `{ field,`
# on one line. A field with none prints as `file:line Struct.field (unset)`;
# the last line is `knobs N, unset K`. Files are cut the way
# scripts/nontest_loc.sh cuts them (non-test code ends at the first
# `#[cfg(test)]` that opens a `mod`), and everything under tests/ and
# examples/ is test code. It is a floor, not a proof: a field name another
# struct or a local shares counts as set as soon as that one is written, and
# so does a call argument of that name alone on its line. Report-only; CI
# prints it next to scripts/pub_callers.sh.
set -eu
cd "$(dirname "$0")/.."
cut=$(mktemp -d)
trap 'rm -rf "$cut"' EXIT
for file in $(find crates/*/src src benchmark/src -name '*.rs' | sort); do
    mkdir -p "$cut/${file%/*}"
    awk '
        held != "" { if (/^[[:space:]]*(pub(\([^)]*\))? )?mod /) exit; print held; held = "" }
        /^[[:space:]]*#\[cfg\(test\)\]/ { held = $0; next }
        { print }
    ' "$file" >"$cut/$file"
done
cd "$cut"
# A type annotation (`seed: u64,`, `fleet: &[FleetDevice])`, `let w: Vec<f64> =`)
# is not a write.
ty='(&('"'"'[a-z]+ )?(mut )?)?([uif](8|16|32|64|128|size)|bool|char|str|[A-Z][a-z][A-Za-z0-9_]*(<.*>)?|\[.*\])( *[,)]| *=[^=]| *$)'
find crates/*/src -name '*.rs' | sort | xargs awk '
    match($0, /^pub struct [A-Za-z0-9_]*Config[ <{]/) { split(substr($0, 12), w, /[ <{]/); s = w[1]; next }
    s != "" && /^}/ { s = ""; next }
    s != "" && match($0, /^    pub [a-z0-9_]+:/) { print FILENAME, FNR, s, substr($0, 9, RLENGTH - 9) }
' | while read -r file line struct field; do
    if find . -name '*.rs' ! -path "./$file" -exec cat {} + |
        grep -E "(^|[^A-Za-z0-9_.])$field:([^:]|\$)|\.$field *=([^=]|\$)|^[[:space:]]*$field,[[:space:]]*\$|\{ *$field," |
        grep -vqE "(^|[^A-Za-z0-9_.])$field: *$ty"; then
        echo set
    else
        echo "$file:$line $struct.$field (unset)"
    fi
done | awk '
    $0 == "set" { n++; next }
    { print; n++; k++ }
    END { printf "knobs %d, unset %d\n", n, k }
'
