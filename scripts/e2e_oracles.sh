#!/bin/sh
# The library's debug-only oracles at benchmark scale (ROADMAP item 30):
# builds `e2e` optimized but with debug assertions and overflow checks on,
# into its own target dir, and runs each of the four workloads at
# `--seconds 1`. The oracles this turns on include the fair-share
# projection's replay, the urgent index against a walk of the whole queue
# on every dispatch, the resumed-checkpoint check and the batch-duration
# check.
#
# Each workload must exit 0 and print `"correct": true`, except
# `noisy_fleet`: its VQE batches are charged one execution per measurement
# group but priced per evaluation (ROADMAP item 8), so it is pinned to
# panic, exit 101, with "estimated and actual batch durations must agree".
# Any other outcome, including that workload passing, fails the script.
# ~4 minutes on a 2-vCPU host, nearly all of it `engine_churn`.
set -eu
cd "$(dirname "$0")/.."
target=target/oracles
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true CARGO_PROFILE_RELEASE_OVERFLOW_CHECKS=true \
    cargo build --release --locked --offline --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir "$target" --bin e2e
e2e="$target/release/e2e"
for workload in traj_fleet admit_burst engine_churn; do
    start=$(date +%s)
    "$e2e" --workload "$workload" --seconds 1 > "$target/$workload.out"
    tail -n 1 "$target/$workload.out" | grep -q '"correct": true'
    echo "$workload: correct ($(($(date +%s) - start)) s)"
done
status=0
"$e2e" --workload noisy_fleet --seconds 1 > "$target/noisy_fleet.out" 2> "$target/noisy_fleet.err" ||
    status=$?
if [ "$status" -ne 101 ] ||
    ! grep -q 'estimated and actual batch durations must agree' "$target/noisy_fleet.err"; then
    echo "noisy_fleet: expected the batch-duration panic (exit 101), got exit $status:" >&2
    tail -n 5 "$target/noisy_fleet.err" >&2
    exit 1
fi
echo "noisy_fleet: expected failure (batch-duration panic, exit 101)"
