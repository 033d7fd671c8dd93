#!/bin/sh
# Public items nobody names: for every `pub fn|struct|enum|const|trait|type|
# static|mod` declared under crates/<crate>/src (every crate but `bench`),
# print `file:line kind name` when the name has no word-boundary match in any
# *other* `.rs` file under crates/ src/ tests/ examples/ benchmark/src. Last
# line: `uncalled N of M`. It is a floor, not a proof: a name two items share
# (`new`, `len`) is called as soon as one of them is, and an item's own unit
# tests do not count as callers. Report-only; CI prints it next to
# scripts/nontest_loc.sh (ROADMAP items 4 and 13).
set -eu
cd "$(dirname "$0")/.."
files=$(find crates src tests examples benchmark/src -name '*.rs' | sort)
for file in $(find crates/*/src -name '*.rs' ! -path 'crates/bench/*' | sort); do
    others=$(echo "$files" | grep -vxF "$file")
    grep -noE 'pub (fn|struct|enum|const|trait|type|static|mod) +[A-Za-z_0-9]+' "$file" |
        sed -E 's/^([0-9]+):pub ([a-z]+) +/\1 \2 /' |
        while read -r line kind name; do
            # shellcheck disable=SC2086
            if grep -qw -- "$name" $others; then
                echo called
            else
                echo "$file:$line $kind $name"
            fi
        done
done | awk '$0 != "called" { print; n++ } END { printf "uncalled %d of %d\n", n, NR }'
