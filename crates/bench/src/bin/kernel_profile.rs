//! Wall-clock cost attribution of the hot kernels, measured through the
//! [`qoncord_prof`] span profiler rather than criterion: each sweep point
//! (qubit count × circuit depth) drives the statevector gate kernels, a
//! ring-Hamiltonian Pauli expectation, QAOA transpilation, and a
//! fair-share queue churn under a fresh profiler, then pools the retained
//! span durations across repetitions with [`LogHistogram::merge`].
//!
//! Three fast-vs-reference records ride along: a 14-qubit QAOA evaluation
//! on the ideal backend, a 7-qubit noisy density run — the path every
//! orchestrated job up to 8 qubits takes — and a 14-qubit trajectory run,
//! the path above that.
//!
//! Emits `BENCH_kernels.json` in the working directory (the repo root
//! under `cargo run`) alongside the usual CSV + table; the binary
//! self-checks the JSON's schema through [`qoncord_bench::require_keys`]
//! before writing, and CI re-checks the committed copy the same way.
//!
//! Run with `--paper` for the full sweep (the committed JSON's scale).

use qoncord_bench::{fmt, print_table, require_keys, write_csv, ExperimentArgs};
use qoncord_circuit::coupling::CouplingMap;
use qoncord_circuit::transpile::transpile;
use qoncord_cloud::fairshare::{FairShareQueue, QueuedRequest};
use qoncord_device::catalog;
use qoncord_device::noise_model::{SimulatedBackend, AUTO_TRAJECTORIES};
use qoncord_orchestrator::LogHistogram;
use qoncord_prof::Profiler;
use qoncord_sim::dist::ProbDist;
use qoncord_sim::gates;
use qoncord_sim::noisy::DensityProgram;
use qoncord_sim::reference::ScopedReference;
use qoncord_sim::statevector::StateVector;
use qoncord_sim::trajectory::TrajectoryProgram;
use qoncord_vqa::evaluator::{CostEvaluator, QaoaEvaluator};
use qoncord_vqa::graph::Graph;
use qoncord_vqa::maxcut::MaxCut;
use qoncord_vqa::pauli::{PauliString, PauliSum};
use qoncord_vqa::qaoa;
use std::time::Instant;

/// The kernel buckets a span label attributes to, by label prefix.
const BUCKETS: [(&str, &str); 4] = [
    ("statevector_apply", "sim::sv::"),
    ("pauli_expectation", "vqa::pauli::"),
    ("transpile", "circuit::"),
    ("queue_ops", "fairshare::"),
];

/// Pooled per-bucket measurements of one sweep point: a histogram of every
/// retained span's duration (nested spans each contribute a sample) and
/// the exact self-time total from the aggregated entries (no double
/// counting — a `circuit::transpile` span's time excludes its
/// `circuit::decompose` child).
struct Bucket {
    durations: LogHistogram,
    self_ns: u64,
}

/// A ring graph on `n` nodes, the sweep's stand-in for a QAOA instance.
fn ring_graph(n: usize) -> Graph {
    let edges: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
    Graph::new(n, &edges)
}

/// The ring graph's MaxCut-style observable: one ZZ term per edge.
fn ring_zz(n: usize) -> PauliSum {
    let terms: Vec<(f64, PauliString)> = (0..n)
        .map(|i| {
            let mut label = vec![b'I'; n];
            label[i] = b'Z';
            label[(i + 1) % n] = b'Z';
            let s = String::from_utf8(label).expect("ascii label");
            (1.0, PauliString::parse(&s).expect("valid label"))
        })
        .collect();
    PauliSum::new(terms)
}

/// One repetition of the profiled workload at a sweep point. Every kernel
/// below carries its own [`qoncord_prof::span`] instrumentation; this
/// function just exercises them under the installed profiler.
fn workload(qubits: usize, depth: usize) {
    // Statevector kernels: H / RZ / CX-chain layers.
    let h = gates::h();
    let mut sv = StateVector::zero_state(qubits);
    for layer in 0..depth {
        for q in 0..qubits {
            sv.apply_1q(&h, q);
            sv.apply_rz_fast(0.3 + layer as f64 * 0.01, q);
        }
        for q in 0..qubits - 1 {
            sv.apply_cx_fast(q, q + 1);
        }
    }

    // Pauli expectation sweep over the resulting distribution (every ZZ
    // term is diagonal, so the measured distribution is usable directly).
    let obs = ring_zz(qubits);
    let dist = ProbDist::new(sv.probabilities());
    let mut acc = 0.0f64;
    for _ in 0..depth {
        acc += obs
            .terms()
            .iter()
            .map(|(c, p)| c * p.expectation_from_dist(&dist))
            .sum::<f64>();
        acc += obs.qubit_wise_commuting_groups().len() as f64;
    }
    assert!(acc.is_finite());

    // Transpilation of a depth-layer QAOA circuit onto real topology.
    let circuit = qaoa::build_circuit(&ring_graph(qubits), depth.min(8));
    let transpiled = transpile(&circuit, &CouplingMap::falcon_27());
    assert!(!transpiled.circuit.gates().is_empty());

    // Fair-share queue churn: push then drain, with usage charging.
    let mut q = FairShareQueue::new();
    for t in 0..qubits {
        q.record_usage(&format!("t{t}"), (t * 37 % 100) as f64)
            .expect("finite balance");
    }
    let n_requests = 16 * depth;
    for id in 0..n_requests {
        q.push(QueuedRequest {
            id,
            user: format!("t{}", id % qubits),
            requested_seconds: 0.5 + (id * 7 % 100) as f64 * 0.1,
            submitted_at: (id / 4) as f64,
        })
        .expect("unique ids");
    }
    while let Some(r) = q.pop() {
        q.record_usage(&r.user, r.requested_seconds)
            .expect("finite seconds");
    }
}

/// Runs one repetition under a fresh profiler and folds its spans into the
/// point's pooled buckets.
fn profile_once(qubits: usize, depth: usize, buckets: &mut [(&'static str, Bucket)]) {
    let profiler = Profiler::new();
    {
        let _installed = profiler.install();
        workload(qubits, depth);
    }
    let perf = profiler.report();
    assert_eq!(perf.dropped_spans, 0, "sweep stays under the retention cap");
    // Per-repetition histograms, pooled into the point via merge — the
    // merge path is exactly what this binary exists to exercise.
    let mut rep: Vec<LogHistogram> = buckets.iter().map(|_| LogHistogram::new()).collect();
    for span in &perf.spans {
        let label = perf.entries[span.entry].label();
        if let Some(i) = BUCKETS.iter().position(|(_, p)| label.starts_with(p)) {
            rep[i].record(span.dur_ns as f64 * 1e-9);
        }
    }
    for ((_, bucket), hist) in buckets.iter_mut().zip(&rep) {
        bucket.durations.merge(hist);
    }
    for entry in &perf.entries {
        if let Some(i) = BUCKETS
            .iter()
            .position(|(_, p)| entry.label().starts_with(p))
        {
            buckets[i].1.self_ns += entry.self_ns();
        }
    }
}

/// Median of the per-round timings — robust against the scheduler-noise
/// outliers that a mean over few rounds would absorb.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    v[v.len() / 2]
}

/// Median seconds of `run` on the default fast kernels and on the scalar
/// reference kernels, timed in interleaved rounds so slow-machine drift
/// hits both paths equally.
fn interleaved_medians(rounds: usize, mut run: impl FnMut()) -> (f64, f64) {
    let mut fast_t = Vec::with_capacity(rounds);
    let mut ref_t = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        run();
        fast_t.push(t0.elapsed().as_secs_f64());
        let _seed = ScopedReference::new();
        let t0 = Instant::now();
        run();
        ref_t.push(t0.elapsed().as_secs_f64());
    }
    (median(fast_t), median(ref_t))
}

/// The fast-vs-reference axis (ROADMAP item 5): wall-clock of a complete
/// 14-qubit QAOA evaluation — the transpiled-circuit statevector
/// simulation plus Hamiltonian expectation behind
/// [`QaoaEvaluator::evaluate`] — on the default fast kernels (gate fusion
/// with monomial classification, dedicated CX/RZ kernels, batched Pauli
/// sweeps) against the preserved scalar seed kernels in
/// [`qoncord_sim::reference`] (generic per-gate matrix sweeps, one masked
/// pass per Pauli term). The two paths are timed in interleaved rounds and
/// summarised by their medians so slow-machine drift hits both equally,
/// and are cross-checked to agree on the energy before the timings are
/// trusted.
fn fast_vs_reference(evals: usize) -> (String, f64) {
    const QUBITS: usize = 14;
    const LAYERS: usize = 2;
    let problem = MaxCut::new(ring_graph(QUBITS));
    let backend = SimulatedBackend::ideal(catalog::ibmq_kolkata());
    let mut eval = QaoaEvaluator::new(&problem, LAYERS, backend, 0);
    let params: Vec<f64> = (0..eval.n_params())
        .map(|i| 0.35 + 0.1 * i as f64)
        .collect();

    // Warm both paths outside the timed window and cross-check the energy.
    let energy_fast = eval.evaluate(&params).expectation;
    let energy_reference = {
        let _seed = ScopedReference::new();
        eval.evaluate(&params).expectation
    };
    let max_abs_diff = (energy_reference - energy_fast).abs();
    assert!(
        max_abs_diff < 1e-9,
        "fast and reference energies diverged by {max_abs_diff}"
    );

    let (fast_s, reference_s) = interleaved_medians(evals, || {
        eval.evaluate(&params);
    });

    let speedup = reference_s / fast_s.max(1e-12);
    let json = format!(
        "  \"fast_vs_reference\": {{\"qubits\": {QUBITS}, \"layers\": {LAYERS}, \
         \"evals\": {evals}, \"reference_ms\": {:.3}, \"fast_ms\": {:.3}, \
         \"speedup\": {:.2}, \"max_abs_diff\": {:.3e}}}",
        reference_s * 1e3,
        fast_s * 1e3,
        speedup,
        max_abs_diff,
    );
    (json, speedup)
}

/// Largest difference between two outcome distributions.
fn max_abs_diff(a: &ProbDist, b: &ProbDist) -> f64 {
    a.probabilities()
        .iter()
        .zip(b.probabilities())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// The same axis on the path every noisy job takes: one density-matrix run
/// of the transpiled 7-qubit QAOA (p = 1) under `ibmq_toronto` noise, the
/// fused density program ([`qoncord_sim::noisy`]) against the seed's
/// op-at-a-time evolution on the scalar reference kernels. Timed and
/// summarised like [`fast_vs_reference`]; the cross-check is the largest
/// difference between the two outcome distributions. `tiles_visited` of
/// `tiles_full` is how much of ρ the program's light-cone read-out touches.
fn fast_vs_reference_density(runs: usize) -> (String, f64) {
    const LAYERS: usize = 1;
    let calibration = catalog::ibmq_toronto();
    let circuit = qaoa::build_circuit(&Graph::paper_graph_7(), LAYERS);
    let transpiled = transpile(&circuit, calibration.coupling());
    let backend = SimulatedBackend::from_calibration(calibration);
    let qubits = transpiled.circuit.n_qubits();
    let params: Vec<f64> = (0..transpiled.circuit.n_params())
        .map(|i| 0.35 + 0.1 * i as f64)
        .collect();
    let ops = transpiled.circuit.bind_ops(&params);
    let gates = ops.len();
    let noise = backend.noise();
    let stats = DensityProgram::compile(qubits, ops, noise.dep_1q, noise.dep_2q).stats();

    let fast = backend.run(&transpiled, &params, 0);
    let reference = {
        let _seed = ScopedReference::new();
        backend.run(&transpiled, &params, 0)
    };
    let max_abs_diff = max_abs_diff(&fast, &reference);
    assert!(
        max_abs_diff <= 1e-12,
        "fused and reference distributions diverged by {max_abs_diff}"
    );

    let (fast_s, reference_s) = interleaved_medians(runs, || {
        std::hint::black_box(backend.run(&transpiled, &params, 0));
    });

    let speedup = reference_s / fast_s.max(1e-12);
    let json = format!(
        "  \"fast_vs_reference_density\": {{\"qubits\": {qubits}, \"layers\": {LAYERS}, \
         \"device\": \"ibmq_toronto\", \"gates\": {gates}, \"sweeps\": {}, \
         \"tiles_visited\": {}, \"tiles_full\": {}, \
         \"evals\": {runs}, \"reference_ms\": {:.3}, \"fast_ms\": {:.3}, \
         \"speedup\": {:.2}, \"max_abs_diff\": {:.3e}}}",
        stats.sweeps,
        stats.tiles_visited,
        stats.tiles_full,
        reference_s * 1e3,
        fast_s * 1e3,
        speedup,
        max_abs_diff,
    );
    (json, speedup)
}

/// The same axis above the density limit: one 48-trajectory run of the
/// transpiled 14-qubit QAOA (p = 1) under `ibmq_toronto` noise, the
/// trajectory program ([`qoncord_sim::trajectory`]: pre-drawn patterns, one
/// fusion plan of `blocks` blocks, `patched_blocks` of them re-fused around
/// fired Paulis, deduped, prefix-shared) against the seed's loop on the
/// scalar reference kernels. `ops_applied` is the program's sweep count,
/// against `gates × trajectories` gate sweeps (plus the fired channels) in
/// the loop.
fn fast_vs_reference_trajectory(runs: usize) -> (String, f64) {
    const LAYERS: usize = 1;
    const SEED: u64 = 0;
    let calibration = catalog::ibmq_toronto();
    let circuit = qaoa::build_circuit(&Graph::paper_graph_14(), LAYERS);
    let transpiled = transpile(&circuit, calibration.coupling());
    let backend = SimulatedBackend::from_calibration(calibration);
    let qubits = transpiled.circuit.n_qubits();
    let params: Vec<f64> = (0..transpiled.circuit.n_params())
        .map(|i| 0.35 + 0.1 * i as f64)
        .collect();
    let ops = transpiled.circuit.bind_ops(&params);
    let gates = ops.len();
    let noise = backend.noise();
    let mut program = TrajectoryProgram::compile(qubits, ops, noise.dep_1q, noise.dep_2q);
    program.run(SEED, AUTO_TRAJECTORIES);
    let stats = program.stats();

    let fast = backend.run(&transpiled, &params, SEED);
    let reference = {
        let _seed = ScopedReference::new();
        backend.run(&transpiled, &params, SEED)
    };
    let max_abs_diff = max_abs_diff(&fast, &reference);
    assert!(
        max_abs_diff <= 1e-12,
        "trajectory program and seed loop diverged by {max_abs_diff}"
    );

    let (fast_s, reference_s) = interleaved_medians(runs, || {
        std::hint::black_box(backend.run(&transpiled, &params, SEED));
    });

    let speedup = reference_s / fast_s.max(1e-12);
    let json = format!(
        "  \"fast_vs_reference_trajectory\": {{\"qubits\": {qubits}, \"layers\": {LAYERS}, \
         \"device\": \"ibmq_toronto\", \"gates\": {gates}, \"trajectories\": {}, \
         \"distinct_patterns\": {}, \"fired_sites\": {}, \"blocks\": {}, \
         \"patched_blocks\": {}, \"ops_applied\": {}, \
         \"evals\": {runs}, \"reference_ms\": {:.3}, \"fast_ms\": {:.3}, \
         \"speedup\": {:.2}, \"max_abs_diff\": {:.3e}}}",
        stats.trajectories,
        stats.distinct_patterns,
        stats.fired_sites,
        stats.blocks,
        stats.patched_blocks,
        stats.ops_applied,
        reference_s * 1e3,
        fast_s * 1e3,
        speedup,
        max_abs_diff,
    );
    (json, speedup)
}

fn main() {
    let args = ExperimentArgs::parse();
    let qubit_counts: &[usize] = if args.paper {
        &[4, 8, 12, 14]
    } else {
        &[4, 8, 12]
    };
    let depths: &[usize] = if args.paper { &[4, 16, 32] } else { &[4, 16] };
    let reps = args.scale(3, 10);

    let mut rows = Vec::new();
    let mut sweep_json = Vec::new();
    for &qubits in qubit_counts {
        for &depth in depths {
            let mut buckets: Vec<(&'static str, Bucket)> = BUCKETS
                .iter()
                .map(|(name, _)| {
                    (
                        *name,
                        Bucket {
                            durations: LogHistogram::new(),
                            self_ns: 0,
                        },
                    )
                })
                .collect();
            for _ in 0..reps {
                profile_once(qubits, depth, &mut buckets);
            }
            let us = 1e6;
            rows.push(vec![
                qubits.to_string(),
                depth.to_string(),
                fmt(buckets[0].1.self_ns as f64 / 1e6, 2),
                fmt(buckets[1].1.self_ns as f64 / 1e6, 2),
                fmt(buckets[2].1.self_ns as f64 / 1e6, 2),
                fmt(buckets[3].1.self_ns as f64 / 1e6, 2),
            ]);
            let fields: Vec<String> = buckets
                .iter()
                .map(|(name, b)| {
                    format!(
                        "\"{name}\": {{\"spans\": {}, \"total_ms\": {:.4}, \
                         \"mean_us\": {:.3}, \"p50_us\": {:.3}, \"p90_us\": {:.3}, \
                         \"max_us\": {:.3}}}",
                        b.durations.count(),
                        b.self_ns as f64 / 1e6,
                        b.durations.mean() * us,
                        b.durations.quantile(0.5).unwrap_or(0.0) * us,
                        b.durations.quantile(0.9).unwrap_or(0.0) * us,
                        b.durations.max().unwrap_or(0.0) * us,
                    )
                })
                .collect();
            sweep_json.push(format!(
                "    {{\"qubits\": {qubits}, \"depth\": {depth}, {}}}",
                fields.join(", ")
            ));
        }
    }

    println!("Wall-clock kernel attribution ({reps} repetitions per point, self-time)\n");
    print_table(
        &[
            "qubits",
            "depth",
            "statevector (ms)",
            "pauli (ms)",
            "transpile (ms)",
            "queue (ms)",
        ],
        &rows,
    );
    write_csv(
        "kernel_profile.csv",
        &[
            "qubits",
            "depth",
            "statevector_ms",
            "pauli_ms",
            "transpile_ms",
            "queue_ms",
        ],
        &rows,
    );

    let (fvr_json, speedup) = fast_vs_reference(args.scale(3, 9));
    println!("\n14-qubit QAOA evaluation, fast vs reference kernels: {speedup:.2}x");
    let (fvr_density_json, speedup) = fast_vs_reference_density(args.scale(9, 51));
    println!("7-qubit noisy QAOA density run, fused program vs reference kernels: {speedup:.2}x");
    let (fvr_trajectory_json, speedup) = fast_vs_reference_trajectory(args.scale(3, 9));
    println!("14-qubit noisy QAOA trajectory run, program vs reference loop: {speedup:.2}x");

    let json = format!(
        "{{\n  \"experiment\": \"kernel_profile\",\n  \"mode\": \"{}\",\n  \
         \"seed\": {},\n  \"repetitions\": {},\n{fvr_json},\n{fvr_density_json},\n{fvr_trajectory_json},\n  \"sweep\": [\n{}\n  ]\n}}\n",
        if args.paper { "paper" } else { "quick" },
        args.seed,
        reps,
        sweep_json.join(",\n"),
    );
    require_keys(
        &json,
        &[
            "experiment",
            "mode",
            "seed",
            "repetitions",
            "fast_vs_reference",
            "fast_vs_reference_density",
            "fast_vs_reference_trajectory",
            "trajectories",
            "distinct_patterns",
            "fired_sites",
            "blocks",
            "patched_blocks",
            "ops_applied",
            "device",
            "gates",
            "sweeps",
            "tiles_visited",
            "tiles_full",
            "reference_ms",
            "fast_ms",
            "speedup",
            "max_abs_diff",
            "evals",
            "layers",
            "sweep",
            "qubits",
            "depth",
            "statevector_apply",
            "pauli_expectation",
            "transpile",
            "queue_ops",
            "spans",
            "total_ms",
            "mean_us",
            "p50_us",
            "p90_us",
            "max_us",
        ],
    )
    .expect("BENCH_kernels.json schema");
    std::fs::write("BENCH_kernels.json", json).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json");
}
