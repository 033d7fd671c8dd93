#!/bin/sh
# The design scoreboard (ROADMAP item 31): every count the least-code and
# fail-closed items are scored on, as one `name value` line each on stdout,
# diffed exactly against the committed scripts/scoreboard.txt.
#
# One cut, made once per file in one pass: a file under a `tests/` directory
# is all test code; any other file is test code from its first `#[cfg(test)]`
# whose next line opens a `mod` (a `#[cfg(test)]` on a lone method or item
# does not end the production code around it). Comment lines (`//`, `///`,
# `//!`) are then dropped before any search, so a name in a doc comment or a
# link is neither a caller nor a write.
#
#   loc.<crate>      non-test lines of crates/<crate>/src, comments included,
#                    and loc.total over the nine crates.
#   pub.items        `pub fn|struct|enum|const|trait|type|static|mod` items
#                    (`pub const fn` and `pub unsafe fn` are `fn`s) under
#                    crates/*/src, bench
#                    aside; pub.uncalled counts those whose name no *other*
#                    `.rs` file under crates src tests examples benchmark/src
#                    holds as a word, pub.test_only those only other files'
#                    test code holds.
#   config.knobs     `pub` fields of every `pub struct *Config` under
#                    crates/*/src; config.unset counts those no other file's
#                    non-test code outside examples/ writes: `field: expr`
#                    (a struct literal; a type annotation is not a write),
#                    `.field =`, or the shorthand `Struct { field, .. }`
#                    (a line holding only `field,`, or `{ field,`).
#   panic.<crate>    `.unwrap()`, `.expect(`, `panic!` and `unreachable!`
#                    sites in non-test code of crates/<crate>/src.
#   doc.<name>       line counts of ARCHITECTURE, README and the verify skill.
#
# The caller and write searches are floors, not proofs: a name two items
# share (`new`, `len`) is called as soon as one of them is, an item's own
# file never counts, and a call argument alone on its line counts as a write.
# Stderr lists each uncalled item as `file:line kind name`, each test-only
# one with ` (test-only)` appended, then each unset knob as
# `file:line Struct.field (unset)`.
#
# Takes no arguments. The counts also go to target/scoreboard.actual, and any
# difference from scripts/scoreboard.txt fails: after an intended change,
# copy target/scoreboard.actual over scripts/scoreboard.txt in the same
# commit, and give the reason for any rise in CHANGES.md.
set -eu
cd "$(dirname "$0")/.."
mkdir -p target
# shellcheck disable=SC2046
awk '
    function take(line,    s, m, n, p, w, k, side, t) {
        if (!test && crate != "") loc[crate]++
        if (line ~ /^[[:space:]]*\/\//) return
        side = test ? "test" : "real"
        n = split(line, w, /[^A-Za-z0-9_]+/)
        for (k = 1; k <= n; k++)
            if (w[k] != "" && !((side, w[k], FILENAME) in seen)) { seen[side, w[k], FILENAME]; files[side, w[k]]++ }
        for (s = line; crate != "" && crate != "bench" && match(s, item); s = substr(s, RSTART + RLENGTH)) {
            m = split(substr(s, RSTART, RLENGTH), p, / +/)
            items++; kind[items] = p[m - 1]; name[items] = p[m]; file[items] = FILENAME; row[items] = FNR
        }
        if (crate != "" && match(line, /^pub struct [A-Za-z0-9_]*Config[ <{]/)) {
            split(substr(line, 12), p, /[ <{]/); config = p[1]
        } else if (config != "" && line ~ /^}/) {
            config = ""
        } else if (config != "" && match(line, /^    pub [a-z0-9_]+:/)) {
            knobs++; field[knobs] = substr(line, 9, RLENGTH - 9); owner[knobs] = FILENAME; knob[knobs] = FILENAME ":" FNR " " config
        }
        if (test) return
        if (crate != "") { t = line; panics[crate] += gsub(/\.unwrap\(\)|\.expect\(|panic!|unreachable!/, "", t) }
        if (FILENAME !~ /(^|\/)examples\//) { lines++; text[lines] = line; from[lines] = FILENAME }
    }
    function elsewhere(side, i) {
        return files[side, name[i]] - ((side, name[i], file[i]) in seen) > 0
    }
    BEGIN {
        item = "pub ((const|unsafe) )?(fn|struct|enum|const|trait|type|static|mod) +[A-Za-z_0-9]+"
        # A type annotation (`seed: u64,`, `fleet: &[FleetDevice])`,
        # `let w: Vec<f64> =`) is not a write.
        type = "(&(\047[a-z]+ )?(mut )?)?([uif](8|16|32|64|128|size)|bool|char|str|[A-Z][a-z][A-Za-z0-9_]*(<.*>)?|\\[.*\\])( *[,)]| *=[^=]| *$)"
    }
    FNR == 1 {
        test = FILENAME ~ /(^|\/)tests\//
        crate = FILENAME ~ /^crates\/[^\/]+\/src\// ? substr(FILENAME, 8, index(substr(FILENAME, 8), "/") - 1) : ""
        held = ""; config = ""
    }
    held != "" {
        if (/^[[:space:]]*(pub(\([^)]*\))? )?mod /) test = 1
        take(held); held = ""
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { held = $0; next }
    { take($0) }
    END {
        n = split("orchestrator cloud sim core vqa circuit device prof bench", crates, " ")
        for (c = 1; c <= n; c++) { print "loc." crates[c], loc[crates[c]] + 0; total += loc[crates[c]] }
        print "loc.total", total
        for (i = 1; i <= items; i++) {
            if (elsewhere("real", i)) continue
            tail = elsewhere("test", i) ? " (test-only)" : ""
            if (tail == "") uncalled++; else tested++
            print file[i] ":" row[i], kind[i], name[i] tail > "/dev/stderr"
        }
        print "pub.items", items + 0; print "pub.uncalled", uncalled + 0; print "pub.test_only", tested + 0
        for (i = 1; i <= knobs; i++) {
            f = field[i]; set = 0
            write = "(^|[^A-Za-z0-9_.])" f ":([^:]|$)|\\." f " *=([^=]|$)|^[[:space:]]*" f ",[[:space:]]*$|\\{ *" f ","
            for (l = 1; l <= lines && !set; l++)
                set = from[l] != owner[i] && index(text[l], f) && text[l] ~ write && text[l] !~ "(^|[^A-Za-z0-9_.])" f ": *" type
            if (!set) { unset++; print knob[i] "." f " (unset)" > "/dev/stderr" }
        }
        print "config.knobs", knobs + 0; print "config.unset", unset + 0
        for (c = 1; c <= n; c++) print "panic." crates[c], panics[crates[c]] + 0
    }
' $(find crates src tests examples benchmark/src -name '*.rs' | LC_ALL=C sort) >target/scoreboard.actual
for doc in architecture=docs/ARCHITECTURE.md readme=README.md verify_skill=.claude/skills/verify/SKILL.md; do
    echo "doc.${doc%%=*} $(wc -l <"${doc#*=}")"
done >>target/scoreboard.actual
cat target/scoreboard.actual
diff scripts/scoreboard.txt target/scoreboard.actual
