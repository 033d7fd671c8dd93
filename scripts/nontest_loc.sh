#!/bin/sh
# Non-test lines per crate: for every `.rs` file anywhere under
# crates/<crate>/src (nested modules and `src/bin/` included), the lines
# before its first `#[cfg(test)]` that opens a `mod` (the whole file when it
# has none; a `#[cfg(test)]` on a lone method or item does not end the
# production code around it), then a `total` line over the crates printed. This is the scoreboard ROADMAP items
# 4 and 13 report deletion PRs against; run it from anywhere, optionally
# naming crates (default: all nine).
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- orchestrator cloud sim core vqa circuit device prof bench
for crate in "$@"; do
    find crates/"$crate"/src -name '*.rs' | sort | xargs awk -v crate="$crate" '
        FNR == 1 { counting = 1; held = 0 }
        held { held = 0; if (/^[[:space:]]*(pub(\([^)]*\))? )?mod /) counting = 0; else lines++ }
        counting && /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1; next }
        counting { lines++ }
        END { printf "%-14s %6d\n", crate, lines }
    '
done | awk '{ print; total += $2 } END { printf "%-14s %6d\n", "total", total }'
