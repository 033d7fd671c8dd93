#!/bin/sh
# Per-layer medians for a performance change on the end-to-end benchmark.
# One traced `e2e` run cannot be compared with another on a shared host, so
# this alternates traced runs (`--trace 1`) of two `e2e` binaries — the
# parent commit's and the change's, each built into its own --target-dir —
# on one workload, alternating which side goes first. It prints each run's
# value of every named per-layer metric, then per metric each side's median
# and quartiles, the change/parent ratio, and whether the medians lie
# further apart than the parent's IQR. Exits 1 when a run prints
# `"correct": false` (or no verdict) or no value for a named metric.
#
# It only reads what `e2e` prints. The per-layer metrics come from the one
# traced repetition of each run, so the untraced repetitions `e2e` also
# times are cut to `--seconds 1`.
#
#   scripts/e2e_layers.sh <parent e2e> <change e2e> <workload> [seed] [runs=15] [metric...]
#
# Runs defaults to 15 a side: on a 2-vCPU host a layer's self-time spreads
# so widely from one traced run to the next that about 15 runs a side are
# needed before a ~20 % layer change lies outside the parent's IQR; 5 runs
# a side resolve only much larger changes.
#
# The default metrics are run.evaluate_s, sim.dm_self_s, sim.sv_self_s,
# vqa.self_s and circuit.self_s; naming any replaces them (seed and runs
# must then be given; an empty seed is the default seed).
set -eu
[ $# -ge 3 ] || {
    echo "usage: $0 <parent e2e binary> <change e2e binary> <workload> [seed] [runs=15] [metric...]" >&2
    exit 2
}
parent=$1 change=$2 workload=$3 seed=${4:-} runs=${5:-15}
if [ $# -gt 5 ]; then shift 5; else set --; fi
[ $# -gt 0 ] || set -- run.evaluate_s sim.dm_self_s sim.sv_self_s vqa.self_s circuit.self_s

out=$(mktemp)
rows=$(mktemp)
trap 'rm -f "$out" "$rows"' EXIT

# One traced run of binary $2, appended to $rows as "<side> <run> <metric> <value>".
run() {
    "$2" --workload "$workload" --trace 1 --seconds 1 ${seed:+--seed "$seed"} > "$out" || true
    if ! tail -n 1 "$out" | grep -q '"correct": true'; then
        echo "FAIL: $1 run $3 did not print \"correct\": true" >&2
        exit 1
    fi
    got=$(awk -v side="$1" -v run="$3" -v names="$metrics" '
        BEGIN { n = split(names, want, " ") }
        { value[$1] = $2 }
        END {
            for (i = 1; i <= n; i++) {
                if (!(want[i] in value)) { print "FAIL: " side " run " run " printed no " want[i] > "/dev/stderr"; exit 1 }
                print side, run, want[i], value[want[i]]
            }
        }' "$out") || exit 1
    echo "$got" | tee -a "$rows"
}

metrics="$*"
echo "# $workload seed ${seed:-default} runs $runs traced"
echo "# side run metric value"
i=1
while [ "$i" -le "$runs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$i"
        run change "$change" "$i"
    else
        run change "$change" "$i"
        run parent "$parent" "$i"
    fi
    i=$((i + 1))
done

awk -v names="$metrics" -v runs="$runs" '
    # Linear-interpolated quantile q of the sorted a[1..n].
    function quantile(a, n, q,    h, lo) {
        h = 1 + (n - 1) * q
        lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    # Sets med, q1 and q3 for one side and metric.
    function summary(side, metric,    n, i, j, t, a) {
        n = 0
        for (i = 1; i <= runs; i++) a[++n] = value[side, i, metric]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        med = quantile(a, n, 0.5)
        q1 = quantile(a, n, 0.25)
        q3 = quantile(a, n, 0.75)
    }
    { value[$1, $2, $3] = $4 }
    END {
        n = split(names, metric, " ")
        printf "# metric: parent median (q1 - q3) | change median (q1 - q3) | ratio | medians apart vs parent IQR, N=%d per side\n", runs
        for (k = 1; k <= n; k++) {
            summary("parent", metric[k]); pm = med; pq1 = q1; pq3 = q3
            summary("change", metric[k]); cm = med; cq1 = q1; cq3 = q3
            apart = cm - pm
            iqr = pq3 - pq1
            verdict = (apart > iqr || -apart > iqr) ? "moved" : "within the parent IQR"
            printf "%-16s %.6g (%.6g - %.6g) | %.6g (%.6g - %.6g) | %s | %+.6g vs %.6g: %s\n", \
                metric[k], pm, pq1, pq3, cm, cq1, cq3, \
                pm == 0 ? "n/a" : sprintf("%.3f", cm / pm), apart, iqr, verdict
        }
    }' "$rows"
