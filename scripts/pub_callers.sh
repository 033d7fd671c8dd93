#!/bin/sh
# Public items nobody names, and public items only tests name: for every
# `pub fn|struct|enum|const|trait|type|static|mod` declared under
# crates/<crate>/src (every crate but `bench`), look for the name as a word in
# every *other* `.rs` file under crates/ src/ tests/ examples/ benchmark/src.
# Each file is cut the way scripts/nontest_loc.sh cuts it: a file under a
# `tests/` directory is all test code, any other file is test code from its
# first `#[cfg(test)]` that opens a `mod` on. Comment lines (`//`, `///`, `//!`) are dropped
# from both cuts: a name in a doc comment or a link is not a caller. An item
# no other file names prints as
# `file:line kind name`, one only other files' test code names as
# `file:line kind name (test-only)`. Last two lines: `uncalled N of M` and
# `test-only N of M`. It is a floor, not a proof: a name two items share
# (`new`, `len`) is called as soon as one of them is, and an item's own file
# never counts. CI prints it next to scripts/nontest_loc.sh and fails when
# either count exceeds the ceiling committed in .github/workflows/ci.yml
# (ROADMAP items 4 and 13).
set -eu
cd "$(dirname "$0")/.."
cuts=$(mktemp -d)
trap 'rm -rf "$cuts"' EXIT
files=$(find crates src tests examples benchmark/src -name '*.rs' | sort)
for file in $files; do
    mkdir -p "$cuts/real/${file%/*}" "$cuts/test/${file%/*}"
    : >"$cuts/real/$file"
    case "$file" in
    tests/* | */tests/*) cut=1 ;;
    *) cut=0 ;;
    esac
    awk -v cut="$cut" -v real="$cuts/real/$file" -v test="$cuts/test/$file" '
        held != "" {
            if (/^[[:space:]]*(pub(\([^)]*\))? )?mod /) cut = 1
            print held > (cut ? test : real)
            held = ""
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { held = $0; next }
        /^[[:space:]]*\/\// { next }
        { print > (cut ? test : real) }
    ' "$file"
    [ -e "$cuts/test/$file" ] || : >"$cuts/test/$file"
done
for file in $(find crates/*/src -name '*.rs' ! -path 'crates/bench/*' | sort); do
    others=$(echo "$files" | grep -vxF "$file")
    real=$(echo "$others" | sed "s|^|$cuts/real/|")
    test=$(echo "$others" | sed "s|^|$cuts/test/|")
    grep -noE 'pub (fn|struct|enum|const|trait|type|static|mod) +[A-Za-z_0-9]+' "$file" |
        sed -E 's/^([0-9]+):pub ([a-z]+) +/\1 \2 /' |
        while read -r line kind name; do
            # shellcheck disable=SC2086
            if grep -qw -- "$name" $real; then
                echo called
            elif grep -qw -- "$name" $test; then
                echo "$file:$line $kind $name (test-only)"
            else
                echo "$file:$line $kind $name"
            fi
        done
done | awk '
    $0 == "called" { next }
    { print }
    / \(test-only\)$/ { tests++; next }
    { uncalled++ }
    END {
        printf "uncalled %d of %d\n", uncalled, NR
        printf "test-only %d of %d\n", tests, NR
    }
'
