#!/bin/sh
# The pair protocol for a performance claim on the end-to-end benchmark
# (choosing-metrics guide, section 8): run two `e2e` binaries — the parent
# commit's and the change's, each built into its own --target-dir — on one
# workload, alternating which side goes first, and report per run `wall_s`,
# `peak_rss_mib` and `sim_digest`, then each side's median and quartiles and,
# for each of `wall_s` and `peak_rss_mib`, the change/parent median ratio,
# how far apart the medians lie against the parent's IQR, and the pairs the
# change won (the lower value; ties count for neither). Exits 1
# when a run fails or one side disagrees with itself on `sim_digest`: that
# binary is not deterministic and its times mean nothing. Two self-consistent
# sides with different digests are reported, not failed — a change in the
# <= 1e-12 rounding tier moves the digest by design, and whether that is
# allowed is scripts/e2e_golden.sh's call.
#
#   scripts/e2e_pairs.sh <parent e2e> <change e2e> <workload> [seed] [pairs=10] [seconds=8]
set -eu
[ $# -ge 3 ] || {
    echo "usage: $0 <parent e2e binary> <change e2e binary> <workload> [seed] [pairs=10] [seconds=8]" >&2
    exit 2
}
parent=$1 change=$2 workload=$3 seed=${4:-} pairs=${5:-10} seconds=${6:-8}

# One run of binary $2, as a row "<side> <pair> wall_s peak_rss_mib sim_digest".
run() {
    "$2" --workload "$workload" --seconds "$seconds" ${seed:+--seed "$seed"} | awk -v side="$1" -v pair="$3" '
        $1 == "wall_s" { wall = $2 }
        $1 == "peak_rss_mib" { rss = $2 }
        $1 == "#" && $2 == "sim_digest" { digest = $3 }
        END { print side, pair, wall, rss, digest }'
}

echo "# $workload seed ${seed:-default} pairs $pairs seconds $seconds"
echo "# side pair wall_s peak_rss_mib sim_digest"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$i"
        run change "$change" "$i"
    else
        run change "$change" "$i"
        run parent "$parent" "$i"
    fi
    i=$((i + 1))
done | awk '
    # Linear-interpolated quantile q of the sorted a[1..n].
    function quantile(a, n, q,    h, lo) {
        h = 1 + (n - 1) * q
        lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    function summary(side, col, unit,    n, i, j, t, a) {
        for (i = 1; i <= pairs; i++) a[i] = value[side, i, col]
        n = pairs
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        median[side, col] = quantile(a, n, 0.5)
        q1[side, col] = quantile(a, n, 0.25)
        q3[side, col] = quantile(a, n, 0.75)
        printf "%s %-12s median %.4f (q1 %.4f - q3 %.4f) %s\n", side, unit, median[side, col], q1[side, col], q3[side, col], "N=" n
    }
    # The section-8 rule on one metric, lower is better: the median ratio,
    # the medians against the parent IQR, and the pairs won.
    function verdict(col, name, unit,    i, won, lost) {
        for (i = 1; i <= pairs; i++) {
            if (value["change", i, col] < value["parent", i, col]) won++
            else if (value["change", i, col] > value["parent", i, col]) lost++
        }
        printf "change/parent %s median ratio %.3f; medians apart by %.4f %s, parent IQR %.4f %s\n", \
            name, median["change", col] / median["parent", col], \
            median["parent", col] - median["change", col], unit, \
            q3["parent", col] - q1["parent", col], unit
        printf "%s pairs won by change %d/%d (lost %d)\n", name, won + 0, pairs, lost + 0
    }
    {
        print
        fflush()
        value[$1, $2, "wall"] = $3
        value[$1, $2, "rss"] = $4
        if ($2 > pairs) pairs = $2
        if (digest[$1] == "") digest[$1] = $5
        if ($5 != digest[$1]) differ = 1
        if (NF < 5) broken = 1
    }
    END {
        summary("parent", "wall", "wall_s")
        summary("change", "wall", "wall_s")
        summary("parent", "rss", "peak_rss_mib")
        summary("change", "rss", "peak_rss_mib")
        verdict("wall", "wall_s", "s")
        verdict("rss", "peak_rss_mib", "MiB")
        if (broken) { print "FAIL: a run printed no wall_s, peak_rss_mib or sim_digest"; exit 1 }
        if (differ) { print "FAIL: sim_digest differs between runs of one side"; exit 1 }
        if (digest["parent"] == digest["change"]) print "sim_digest " digest["parent"] " on every run"
        else print "sim_digest parent " digest["parent"] " change " digest["change"] \
            ": the sides round differently — the golden gate decides whether that is allowed"
    }'
