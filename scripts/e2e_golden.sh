#!/bin/sh
# Behaviour gate on the end-to-end benchmark (ROADMAP item 7): a short run of
# each of the four workloads at the default seed must report `"correct": true`
# and print exactly the `# sim_digest` line and the six `sim_*` metric lines
# committed in scripts/e2e_golden.txt. Simulated time is deterministic, so a
# difference is a behaviour change, never host noise. After an intended one,
# copy target/e2e_golden.actual over scripts/e2e_golden.txt in the same PR.
set -eu
cd "$(dirname "$0")/.."
mkdir -p target
for workload in noisy_fleet traj_fleet admit_burst engine_churn; do
    cargo run --release --locked --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir target --bin e2e -- \
        --workload "$workload" --seconds 2 > "target/e2e_$workload.out"
    tail -n 1 "target/e2e_$workload.out" | grep -q '"correct": true'
    echo "## $workload"
    grep -E '^(# sim_digest |sim_)' "target/e2e_$workload.out"
done > target/e2e_golden.actual
diff scripts/e2e_golden.txt target/e2e_golden.actual
