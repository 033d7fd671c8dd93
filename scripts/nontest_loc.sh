#!/bin/sh
# Non-test lines per crate: for every `.rs` file anywhere under
# crates/<crate>/src (nested modules and `src/bin/` included), the lines
# before its first `#[cfg(test)]` (the whole file when it has none). This is
# the scoreboard ROADMAP item 4 reports collapse PRs against; run it from
# anywhere, optionally naming crates (default: orchestrator cloud sim).
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- orchestrator cloud sim
for crate in "$@"; do
    find crates/"$crate"/src -name '*.rs' | sort | xargs awk -v crate="$crate" '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { lines++ }
        END { printf "%-14s %6d\n", crate, lines }
    '
done
