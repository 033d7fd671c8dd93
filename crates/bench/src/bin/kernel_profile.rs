//! The fast kernels against the seed's, on the three paths a job can take.
//!
//! Each axis times one evaluation on the default fast path and on the seed
//! tier, called directly, in interleaved rounds, and cross-checks the two
//! results before the timings are trusted:
//!
//! - `fast_vs_reference`: a 14-qubit QAOA evaluation on the ideal backend;
//! - `fast_vs_reference_density` (p = 1) and `fast_vs_reference_density_p3`
//!   (p = 3, the depth of the paper's Figs. 8 and 13–20): a 7-qubit noisy
//!   density run, the path every orchestrated job up to 8 qubits takes,
//!   plus what compiling its program costs against re-binding it;
//! - `fast_vs_reference_trajectory`: a 14-qubit trajectory run, the path
//!   above that.
//!
//! `density_vs_trajectory` then times the two noisy paths against each
//! other where `BackendKind::Auto` picks between them by register width:
//! the 9-qubit QAOA at p = 1 and p = 3, each path prepared as an evaluator
//! holds it, beside the work each program counts (density tiles visited,
//! trajectory sweeps and the amplitudes they walk).
//!
//! Both sides of an axis go through the same read-out. What the kernels
//! cost inside real runs is the e2e benchmark's per-layer probes
//! (`sim.sv_apply_ns_per_amp`, `vqa.pauli_expectation_us`,
//! `circuit.transpile_us`, `cloud.push_ns`, …); this binary says only what
//! those cannot: how far the fast path is from the seed's.
//!
//! Every fast-path number is timed on the build of the statevector and
//! density sweeps this CPU runs (`qoncord_sim::sweep_build`: `avx2` or
//! `baseline`, the same for both families), which the JSON records as
//! `sweep_build`.
//!
//! Emits `BENCH_kernels.json` in the working directory (the repo root
//! under `cargo run`); the binary self-checks the JSON's schema through
//! [`qoncord_bench::require_keys`] before writing.
//!
//! Run with `--paper` for the committed JSON's round counts.

use qoncord_bench::{require_keys, ExperimentArgs};
use qoncord_circuit::transpile::{transpile, TranspiledCircuit};
use qoncord_circuit::ResolvedGate;
use qoncord_device::catalog;
use qoncord_device::noise_model::{BackendKind, SimulatedBackend, AUTO_TRAJECTORIES};
use qoncord_sim::density::DensityMatrix;
use qoncord_sim::dist::ProbDist;
use qoncord_sim::fuse::FusedOp;
use qoncord_sim::noisy::{evolve_unfused, DensityProgram};
use qoncord_sim::reference;
use qoncord_sim::statevector::StateVector;
use qoncord_sim::trajectory::{sample_unfused, TrajectoryProgram};
use qoncord_vqa::evaluator::{CostEvaluator, QaoaEvaluator};
use qoncord_vqa::graph::Graph;
use qoncord_vqa::maxcut::MaxCut;
use qoncord_vqa::qaoa;
use std::hint::black_box;
use std::time::Instant;

/// A ring graph on `n` nodes, the ideal axis's QAOA instance.
fn ring_graph(n: usize) -> Graph {
    let edges: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
    Graph::new(n, &edges)
}

/// The parameters every axis evaluates its circuit at.
fn params_for(t: &TranspiledCircuit) -> Vec<f64> {
    (0..t.circuit.n_params())
        .map(|i| 0.35 + 0.1 * i as f64)
        .collect()
}

/// What `SimulatedBackend::run` makes of a physical outcome distribution:
/// readout error applied, routing permutation undone.
fn read_out(backend: &SimulatedBackend, t: &TranspiledCircuit, physical: ProbDist) -> ProbDist {
    let readout = backend.noise().readout;
    let physical = if readout.mean_error() > 0.0 {
        physical.with_uniform_readout_error(readout)
    } else {
        physical
    };
    ProbDist::new(t.remap_probabilities(physical.probabilities()))
}

/// Median of the per-round timings — robust against the scheduler-noise
/// outliers that a mean over few rounds would absorb.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    v[v.len() / 2]
}

/// Median seconds of `fast` and of `reference`, timed in interleaved
/// rounds so slow-machine drift hits both paths equally.
fn interleaved_medians(
    rounds: usize,
    mut fast: impl FnMut(),
    mut reference: impl FnMut(),
) -> (f64, f64) {
    let mut fast_t = Vec::with_capacity(rounds);
    let mut ref_t = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        fast();
        fast_t.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        reference();
        ref_t.push(t0.elapsed().as_secs_f64());
    }
    (median(fast_t), median(ref_t))
}

/// Median microseconds of one call of `f`, over `rounds` rounds of `batch`
/// calls each (a call too short to time alone).
fn median_us(rounds: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(per_call) * 1e6
}

/// The seed of every trajectory run.
const SEED: u64 = 0;

/// Largest difference between two outcome distributions.
fn max_abs_diff(a: &ProbDist, b: &ProbDist) -> f64 {
    a.probabilities()
        .iter()
        .zip(b.probabilities())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// A complete 14-qubit QAOA evaluation on the ideal backend
/// ([`QaoaEvaluator::evaluate`]: simulation, read-out, diagonal energy) on
/// the default fast kernels (gate fusion with monomial classification,
/// dedicated CX/RZ sweeps) against the seed's: one `Gate::resolve` and one
/// generic matrix sweep of [`qoncord_sim::reference`] per gate. The
/// cross-check is the difference between the two energies.
fn fast_vs_reference(evals: usize) -> (String, f64) {
    const QUBITS: usize = 14;
    const LAYERS: usize = 2;
    let problem = MaxCut::new(ring_graph(QUBITS));
    let backend = SimulatedBackend::ideal(catalog::ibmq_kolkata());
    let circuit = qaoa::build_circuit(problem.graph(), LAYERS);
    let transpiled = transpile(&circuit, backend.calibration().coupling());
    let diagonal = problem.energy_diagonal();
    let params = params_for(&transpiled);
    let mut eval = QaoaEvaluator::new(&problem, LAYERS, backend.clone(), 0);
    let seed_evaluate = || {
        let mut sv = StateVector::zero_state(transpiled.circuit.n_qubits());
        for gate in transpiled.circuit.gates() {
            match gate.resolve(&params) {
                ResolvedGate::One(u, q) => reference::sv_apply_1q(&mut sv, &u, q),
                ResolvedGate::Two(u, a, b) => reference::sv_apply_2q(&mut sv, &u, a, b),
            }
        }
        let dist = read_out(&backend, &transpiled, ProbDist::new(sv.probabilities()));
        (dist.expectation_diagonal(&diagonal), dist.shannon_entropy())
    };

    // Warm both paths outside the timed window and cross-check the energy.
    let energy_fast = eval.evaluate(&params).expectation;
    let (energy_reference, _) = seed_evaluate();
    let max_abs_diff = (energy_reference - energy_fast).abs();
    assert!(
        max_abs_diff < 1e-9,
        "fast and reference energies diverged by {max_abs_diff}"
    );

    let (fast_s, reference_s) = interleaved_medians(
        evals,
        || {
            black_box(eval.evaluate(&params));
        },
        || {
            black_box(seed_evaluate());
        },
    );

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

/// The depth-`layers` QAOA of `graph` transpiled for `ibmq_toronto`, and
/// the noisy backend it runs on.
fn toronto_qaoa(graph: &Graph, layers: usize) -> (SimulatedBackend, TranspiledCircuit) {
    let calibration = catalog::ibmq_toronto();
    let transpiled = transpile(&qaoa::build_circuit(graph, layers), calibration.coupling());
    (SimulatedBackend::from_calibration(calibration), transpiled)
}

/// The same axis on the path every noisy job takes: one density-matrix run
/// of the transpiled 7-qubit QAOA (depth `layers`, emitted as `key`) under
/// `ibmq_toronto` noise, the
/// fused density program ([`qoncord_sim::noisy`]) of a prepared executable,
/// as an evaluator holds it, against the seed's op-at-a-time evolution
/// ([`evolve_unfused`]). The cross-check is the largest difference between
/// the two outcome distributions. `tiles_visited` of `tiles_full` is how
/// much of ρ the program's light-cone read-out touches. `compile_us` binds
/// every gate and compiles the program, what each run paid before programs
/// were held; `rebind_us` binds the parametric gates and re-binds the
/// `steps_rebound` sweeps that hold one, what each run pays now.
fn fast_vs_reference_density(key: &str, layers: usize, runs: usize) -> (String, f64) {
    let (backend, transpiled) = toronto_qaoa(&Graph::paper_graph_7(), layers);
    let qubits = transpiled.circuit.n_qubits();
    let params = params_for(&transpiled);
    let gates = transpiled.circuit.gates();
    let noise = *backend.noise();
    let marked = || {
        gates
            .iter()
            .map(|g| (g.bind_op(&params), g.is_parametric()))
    };
    let compile =
        || DensityProgram::compile_parametric(qubits, marked(), noise.dep_1q, noise.dep_2q);
    let mut program = compile();
    let stats = program.stats();
    let parametric: Vec<_> = gates.iter().filter(|g| g.is_parametric()).collect();
    let compile_us = median_us(runs, 100, || {
        black_box(compile());
    });
    let rebind_us = median_us(runs, 100, || {
        let ops: Vec<FusedOp> = parametric.iter().map(|g| g.bind_op(&params)).collect();
        program.rebind(black_box(&ops));
    });
    let seed_run = || {
        let mut rho = DensityMatrix::zero_state(qubits);
        let ops = transpiled.circuit.bind_ops(&params);
        evolve_unfused(&mut rho, &ops, noise.dep_1q, noise.dep_2q);
        read_out(&backend, &transpiled, rho.probabilities())
    };

    let mut prepared = backend.prepare(std::slice::from_ref(&transpiled), gates.len());
    let fast = prepared.run(&params, 0).swap_remove(0);
    assert_eq!(fast, backend.run(&transpiled, &params, 0));
    let max_abs_diff = max_abs_diff(&fast, &seed_run());
    assert!(
        max_abs_diff <= 1e-12,
        "fused and reference distributions diverged by {max_abs_diff}"
    );

    let (fast_s, reference_s) = interleaved_medians(
        runs,
        || {
            black_box(prepared.run(&params, 0));
        },
        || {
            black_box(seed_run());
        },
    );

    let speedup = reference_s / fast_s.max(1e-12);
    let json = format!(
        "  \"{key}\": {{\"qubits\": {qubits}, \"layers\": {layers}, \
         \"device\": \"ibmq_toronto\", \"gates\": {}, \"sweeps\": {}, \
         \"tiles_visited\": {}, \"tiles_full\": {}, \"steps_rebound\": {}, \
         \"compile_us\": {compile_us:.2}, \"rebind_us\": {rebind_us:.2}, \
         \"evals\": {runs}, \"reference_ms\": {:.3}, \"fast_ms\": {:.3}, \
         \"speedup\": {:.2}, \"max_abs_diff\": {:.3e}}}",
        gates.len(),
        stats.sweeps,
        stats.tiles_visited,
        stats.tiles_full,
        stats.steps_rebound,
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
/// fired Paulis, deduped, prefix-shared) against the seed's loop
/// ([`sample_unfused`]). `ops_applied` is the program's sweep count,
/// against `gates × trajectories` gate sweeps (plus the fired channels) in
/// the loop; `amplitudes_swept` is what those sweeps walk, each on the
/// qubits touched so far, where the full register is `ops_applied ×
/// 2^qubits`.
fn fast_vs_reference_trajectory(runs: usize) -> (String, f64) {
    let (backend, transpiled) = toronto_qaoa(&Graph::paper_graph_14(), 1);
    let qubits = transpiled.circuit.n_qubits();
    let params = params_for(&transpiled);
    let ops = transpiled.circuit.bind_ops(&params);
    let gates = ops.len();
    let noise = *backend.noise();
    let mut program = TrajectoryProgram::compile(qubits, ops, noise.dep_1q, noise.dep_2q);
    program.run(SEED, AUTO_TRAJECTORIES);
    let stats = program.stats();
    let seed_run = || {
        let ops = transpiled.circuit.bind_ops(&params);
        let (dep_1q, dep_2q) = (noise.dep_1q, noise.dep_2q);
        let physical = sample_unfused(qubits, &ops, dep_1q, dep_2q, SEED, AUTO_TRAJECTORIES);
        read_out(&backend, &transpiled, physical)
    };

    let fast = backend.run(&transpiled, &params, SEED);
    let max_abs_diff = max_abs_diff(&fast, &seed_run());
    assert!(
        max_abs_diff <= 1e-12,
        "trajectory program and seed loop diverged by {max_abs_diff}"
    );

    let (fast_s, reference_s) = interleaved_medians(
        runs,
        || {
            black_box(backend.run(&transpiled, &params, SEED));
        },
        || {
            black_box(seed_run());
        },
    );

    let speedup = reference_s / fast_s.max(1e-12);
    let json = format!(
        "  \"fast_vs_reference_trajectory\": {{\"qubits\": {qubits}, \"layers\": 1, \
         \"device\": \"ibmq_toronto\", \"gates\": {gates}, \"trajectories\": {}, \
         \"distinct_patterns\": {}, \"fired_sites\": {}, \"blocks\": {}, \
         \"patched_blocks\": {}, \"ops_applied\": {}, \"amplitudes_swept\": {}, \
         \"evals\": {runs}, \"reference_ms\": {:.3}, \"fast_ms\": {:.3}, \
         \"speedup\": {:.2}, \"max_abs_diff\": {:.3e}}}",
        stats.trajectories,
        stats.distinct_patterns,
        stats.fired_sites,
        stats.blocks,
        stats.patched_blocks,
        stats.ops_applied,
        stats.amplitudes_swept,
        reference_s * 1e3,
        fast_s * 1e3,
        speedup,
        max_abs_diff,
    );
    (json, speedup)
}

/// One evaluation of the transpiled 9-qubit QAOA (depth `layers`) under
/// `ibmq_toronto` noise on each noisy path, prepared as an evaluator holds
/// it: the density program (light-cone read-out, `tiles_visited` of
/// `tiles_full`) against 48 trajectories (`ops_applied` sweeps walking
/// `amplitudes_swept` amplitudes). Each path is checked bitwise against its
/// `backend.run` first; `tv_distance` between the two is the trajectories'
/// sampling error. Returns the row and density time over trajectory time.
fn density_vs_trajectory(layers: usize, runs: usize) -> (String, f64) {
    let (backend, transpiled) = toronto_qaoa(&Graph::paper_graph_9(), layers);
    let qubits = transpiled.circuit.n_qubits();
    let params = params_for(&transpiled);
    let ops = transpiled.circuit.bind_ops(&params);
    let gates = ops.len();
    let noise = *backend.noise();
    let (dep_1q, dep_2q) = (noise.dep_1q, noise.dep_2q);
    let tiles = DensityProgram::compile(qubits, ops.iter().copied(), dep_1q, dep_2q).stats();
    let mut program = TrajectoryProgram::compile(qubits, ops, dep_1q, dep_2q);
    program.run(SEED, AUTO_TRAJECTORIES);
    let sweeps = program.stats();

    let density = backend.clone().with_kind(BackendKind::DensityMatrix);
    let trajectory = backend.with_kind(BackendKind::Trajectory {
        n_trajectories: AUTO_TRAJECTORIES,
    });
    let circuit = std::slice::from_ref(&transpiled);
    let mut density_prepared = density.prepare(circuit, transpiled.circuit.len());
    let mut trajectory_prepared = trajectory.prepare(circuit, transpiled.circuit.len());
    let exact = density_prepared.run(&params, SEED).swap_remove(0);
    let sampled = trajectory_prepared.run(&params, SEED).swap_remove(0);
    assert_eq!(exact, density.run(&transpiled, &params, SEED));
    assert_eq!(sampled, trajectory.run(&transpiled, &params, SEED));

    let (density_s, trajectory_s) = interleaved_medians(
        runs,
        || {
            black_box(density_prepared.run(&params, SEED));
        },
        || {
            black_box(trajectory_prepared.run(&params, SEED));
        },
    );

    let json = format!(
        "    {{\"qubits\": {qubits}, \"layers\": {layers}, \"device\": \"ibmq_toronto\", \
         \"gates\": {gates}, \"tiles_visited\": {}, \"tiles_full\": {}, \
         \"trajectories\": {AUTO_TRAJECTORIES}, \"ops_applied\": {}, \
         \"amplitudes_swept\": {}, \"evals\": {runs}, \"density_ms\": {:.3}, \
         \"trajectory_ms\": {:.3}, \"tv_distance\": {:.3e}}}",
        tiles.tiles_visited,
        tiles.tiles_full,
        sweeps.ops_applied,
        sweeps.amplitudes_swept,
        density_s * 1e3,
        trajectory_s * 1e3,
        exact.total_variation(&sampled),
    );
    (json, density_s / trajectory_s.max(1e-12))
}

fn main() {
    let args = ExperimentArgs::parse();
    let sweep_build = qoncord_sim::sweep_build();
    println!("statevector and density sweeps: {sweep_build} build");

    let (fvr_json, speedup) = fast_vs_reference(args.scale(3, 9));
    println!("14-qubit QAOA evaluation, fast vs reference kernels: {speedup:.2}x");
    let density_runs = args.scale(9, 51);
    let (fvr_density_json, speedup) =
        fast_vs_reference_density("fast_vs_reference_density", 1, density_runs);
    println!("7-qubit noisy QAOA density run, fused program vs reference kernels: {speedup:.2}x");
    let (fvr_density_p3_json, speedup) =
        fast_vs_reference_density("fast_vs_reference_density_p3", 3, density_runs);
    println!("7-qubit p = 3 density run, fused program vs reference kernels: {speedup:.2}x");
    let (fvr_trajectory_json, speedup) = fast_vs_reference_trajectory(args.scale(3, 9));
    println!("14-qubit noisy QAOA trajectory run, program vs reference loop: {speedup:.2}x");
    let rows: Vec<String> = [1, 3]
        .into_iter()
        .map(|layers| {
            let (row, ratio) = density_vs_trajectory(layers, args.scale(3, 15));
            println!("9-qubit p = {layers} noisy QAOA, density / 48 trajectories: {ratio:.2}x");
            row
        })
        .collect();

    let json = format!(
        "{{\n  \"experiment\": \"kernel_profile\",\n  \"mode\": \"{}\",\n  \
         \"seed\": {},\n  \"sweep_build\": \"{sweep_build}\",\n{fvr_json},\n\
         {fvr_density_json},\n{fvr_density_p3_json},\n{fvr_trajectory_json},\n  \
         \"density_vs_trajectory\": [\n{}\n  ]\n}}\n",
        if args.paper { "paper" } else { "quick" },
        args.seed,
        rows.join(",\n"),
    );
    require_keys(
        &json,
        &[
            "experiment",
            "mode",
            "seed",
            "sweep_build",
            "fast_vs_reference",
            "fast_vs_reference_density",
            "fast_vs_reference_density_p3",
            "fast_vs_reference_trajectory",
            "density_vs_trajectory",
            "qubits",
            "layers",
            "device",
            "gates",
            "sweeps",
            "tiles_visited",
            "tiles_full",
            "steps_rebound",
            "compile_us",
            "rebind_us",
            "trajectories",
            "distinct_patterns",
            "fired_sites",
            "blocks",
            "patched_blocks",
            "ops_applied",
            "amplitudes_swept",
            "density_ms",
            "trajectory_ms",
            "tv_distance",
            "evals",
            "reference_ms",
            "fast_ms",
            "speedup",
            "max_abs_diff",
        ],
    )
    .expect("BENCH_kernels.json schema");
    std::fs::write("BENCH_kernels.json", json).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json");
}
