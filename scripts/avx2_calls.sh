#!/bin/sh
# The AVX2 builds of the sweeps must not call back into the crate: every
# kernel under `statevector::sweep_avx2` and `noisy::...::step_sweep_avx2` is
# `#[inline(always)]`, so each is compiled again with AVX2 enabled. A kernel
# left out of line is called at the baseline target instead; no test fails
# (the bits are the same) and only `wall_s` shows it. This disassembles the
# release `e2e` (default `target/release/e2e`, or the path given) and fails
# if the body of either function calls a `qoncord_sim::` function, matched by
# the symbol's suffix so a module move does not hide it, or if
# `step_sweep_avx2` calls a `core::array::` function (an `array::map` or
# `array::from_fn` in a density kernel stays out of line and runs at
# baseline; `Strip::dense` uses loops for that reason). Calls through the
# GOT are resolved to their targets. Every allowed call is printed with its
# count (panics, profiler spans, and whatever else std keeps out of line).
# Needs binutils (`objdump`, `nm`); x86-64 only.
set -eu
cd "$(dirname "$0")/.."
bin=${1:-target/release/e2e}
[ -f "$bin" ] || { echo "avx2_calls: no binary at $bin (build e2e first)" >&2; exit 2; }
got=$(mktemp)
trap 'rm -f "$got"' EXIT
# GOT slot -> target address, from the binary's relative relocations.
objdump -R "$bin" | awk '$2 == "R_X86_64_RELATIVE" { sub(/^\*ABS\*\+0x/, "", $3); print $1, $3 }' >"$got"
nm -C "$bin" | awk '$2 ~ /^[TtWw]$/ { a = $1; $1 = ""; $2 = ""; sub(/^ +/, ""); print "sym", a, $0 }' >>"$got"
objdump -d -C --no-show-raw-insn "$bin" | awk -v got="$got" '
    BEGIN {
        while ((getline line < got) > 0) {
            split(line, w, " ")
            if (w[1] == "sym") {
                a = w[2]; sub(/^0+/, "", a)
                s = line; sub(/^sym [0-9a-f]+ /, "", s)
                sym[a] = s
            } else {
                slot = w[1]; sub(/^0+/, "", slot)
                t = w[2]; sub(/^0+/, "", t)
                target[slot] = t
            }
        }
    }
    /^[0-9a-f]+ <.*>:$/ {
        fn = $0; sub(/^[0-9a-f]+ </, "", fn); sub(/>:$/, "", fn)
        inside = fn ~ /(^|::)(step_)?sweep_avx2$/
        if (inside) found[fn] = 1
        next
    }
    inside && /\tcall/ {
        callee = $0; sub(/.*\tcall +/, "", callee)
        if (callee ~ /^\*0x[0-9a-f]+\(%rip\)/) {
            slot = callee; sub(/.*# +/, "", slot); sub(/ .*/, "", slot); sub(/^0+/, "", slot)
            callee = (slot in target && target[slot] in sym) ? sym[target[slot]] : "GOT slot " slot
        } else if (callee ~ /^[0-9a-f]+ </) {
            sub(/^[0-9a-f]+ </, "", callee); sub(/>$/, "", callee)
        } else {
            callee = "indirect " callee
        }
        key = fn " -> " callee
        count[key]++
        if (callee ~ /^<?qoncord_sim::/) bad[key] = 1
        if (fn ~ /step_sweep_avx2$/ && callee ~ /^<?core::array::/) bad[key] = 1
    }
    END {
        for (k in count) printf "%s %3d  %s\n", (k in bad) ? "CALL " : "allow", count[k], k | "sort -k3"
        close("sort -k3")
        nfound = 0
        for (g in found) nfound++
        if (nfound < 2) { print "avx2_calls: expected both sweep_avx2 builds, found " nfound > "/dev/stderr"; exit 1 }
        for (k in bad) { print "avx2_calls: an AVX2 sweep build calls a kernel out of line (qoncord_sim::, or core::array:: from step_sweep_avx2)" > "/dev/stderr"; exit 1 }
        print "avx2_calls: ok"
    }
'
