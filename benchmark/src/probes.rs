//! Layer probes: timed loops over each layer's public functions, on inputs
//! taken from the workload — its circuit transpiled onto its own fleet, its
//! tenant count and the peak queue depth of its run. A layer the workload
//! never enters reports 0 for its probes.

use crate::metrics::Metrics;
use crate::stats;
use crate::stub::StubFactory;
use crate::workloads::Workload;
use qoncord_circuit::transpile::{transpile, TranspiledCircuit};
use qoncord_cloud::device::CloudDevice;
use qoncord_cloud::fairshare::{FairShareQueue, QueuedRequest};
use qoncord_cloud::policy::{estimate_feasibility_decayed, place_job, Placement, QueueModel};
use qoncord_core::cluster::{select_restarts, SelectionPolicy};
use qoncord_core::convergence::ConvergenceConfig;
use qoncord_core::executor::{EvaluatorFactory, QaoaFactory};
use qoncord_core::phase::{PhaseCheckpoint, PhaseRunner};
use qoncord_core::scheduler::QoncordScheduler;
use qoncord_device::calibration::Calibration;
use qoncord_device::noise_model::{NoiseModel, SimulatedBackend};
use qoncord_orchestrator::{AdmissionController, Deadline, FleetDevice, OrchestratorReport};
use qoncord_sim::density::DensityMatrix;
use qoncord_sim::fuse::{fuse, FusedOp};
use qoncord_sim::noise::NoiseChannel;
use qoncord_sim::statevector::StateVector;
use qoncord_sim::trajectory::apply_stochastic;
use qoncord_vqa::evaluator::{CostEvaluator, QaoaEvaluator, VqeEvaluator};
use qoncord_vqa::graph::Graph;
use qoncord_vqa::maxcut::MaxCut;
use qoncord_vqa::optimizer::Spsa;
use qoncord_vqa::restart::train_step;
use qoncord_vqa::{qaoa, uccsd, vqe};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// A probe loop runs until it has spent this long or made [`MIN_CALLS`].
const MIN_SECONDS: f64 = 0.2;
const MIN_CALLS: usize = 200;
/// Loops feeding a p99 keep going to this many calls while they fit in
/// [`TAIL_SECONDS`].
const TAIL_CALLS: usize = 1000;
const TAIL_SECONDS: f64 = 1.0;

/// Ascending per-call nanoseconds of `f`, timed `batch` calls at a time
/// (nanosecond-scale bodies would otherwise measure the clock).
fn sample_until(calls: usize, seconds: f64, batch: usize, mut f: impl FnMut()) -> Vec<f64> {
    let started = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
        let spent = started.elapsed().as_secs_f64();
        let enough = spent >= MIN_SECONDS || samples.len() >= MIN_CALLS;
        if enough && (samples.len() >= calls || spent >= seconds) {
            return stats::sorted(samples);
        }
    }
}

fn sample(f: impl FnMut()) -> Vec<f64> {
    sample_until(0, 0.0, 1, f)
}

fn sample_batched(f: impl FnMut()) -> Vec<f64> {
    sample_until(0, 0.0, 256, f)
}

fn sample_tail(f: impl FnMut()) -> Vec<f64> {
    sample_until(TAIL_CALLS, TAIL_SECONDS, 1, f)
}

fn p50_us(samples: &[f64]) -> f64 {
    stats::quantile(samples, 0.5) / 1e3
}

/// p99 with at least 1000 calls, else the highest percentile that still
/// has ten samples beyond it (the maximum below 40 calls).
pub fn tail_us(samples: &[f64]) -> f64 {
    let p = stats::tail_percentile(samples.len()).unwrap_or(100);
    stats::percentile(samples, f64::from(p)) / 1e3
}

/// Mean nanoseconds per item of a loop body that handles `items` per call.
fn ns_per_item(samples: &[f64], items: f64) -> f64 {
    stats::quantile(samples, 0.5) / items
}

fn params_for(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.35 + 0.1 * i as f64).collect()
}

/// The first LF (cheapest) and HF (priciest) calibrations of a fleet.
fn lf_hf(fleet: &[FleetDevice]) -> (Calibration, Calibration) {
    let by_cost = |a: &&FleetDevice, b: &&FleetDevice| {
        a.cost_per_second()
            .partial_cmp(&b.cost_per_second())
            .expect("finite prices")
    };
    let lf = fleet.iter().min_by(by_cost).expect("non-empty fleet");
    let hf = fleet.iter().max_by(by_cost).expect("non-empty fleet");
    (lf.calibration().clone(), hf.calibration().clone())
}

const CIRCUIT_PROBES: [&str; 27] = [
    "sim.sv_apply_ns_per_amp",
    "sim.dm_apply_ns_per_elem",
    "sim.dm_depolarize_ns_per_elem",
    "sim.traj_noise_ns_per_site",
    "sim.fuse_us",
    "sim.fused_ops_per_gate",
    "sim.ops",
    "sim.state_bytes",
    "circuit.transpile_us",
    "circuit.bind_ops_us",
    "circuit.gates_1q",
    "circuit.gates_2q",
    "circuit.depth",
    "circuit.swaps_inserted",
    "device.run_lf_p50_us",
    "device.run_lf_p99_us",
    "device.run_hf_p50_us",
    "device.run_ideal_p50_us",
    "device.noisy_over_ideal_ratio",
    "vqa.evaluator_build_us",
    "vqa.qaoa_evaluate_p50_us",
    "vqa.qaoa_evaluate_p99_us",
    "vqa.evaluate_minus_run_us",
    "vqa.train_step_us",
    "vqa.evals_per_step",
    "vqa.vqe_evaluate_p50_us",
    "vqa.pauli_expectation_us",
];

/// Runs every probe for `workload`; `report` is one of its untraced runs.
pub fn run_all(workload: &Workload, report: &OrchestratorReport, m: &mut Metrics) {
    let (lf, hf) = lf_hf(&workload.fleet);
    match &workload.qaoa_graph {
        Some(graph) => {
            let transpiled = sim_and_circuit(graph, &lf, m);
            device_and_vqa(graph, &transpiled, &lf, &hf, workload.has_vqe, m);
        }
        None => CIRCUIT_PROBES.iter().for_each(|name| m.put(name, 0.0)),
    }
    m.put(
        "sim.sv_apply_12q_ns_per_amp",
        if workload.name == "traj_fleet" {
            sv_apply_12q()
        } else {
            0.0
        },
    );
    core(workload, &lf, &hf, m);
    cloud(workload, report, m);
}

/// `sim.*` and `circuit.*` on the workload's QAOA circuit, transpiled onto
/// the LF device the way `QaoaEvaluator::new` does it.
fn sim_and_circuit(graph: &Graph, lf: &Calibration, m: &mut Metrics) -> TranspiledCircuit {
    let logical = qaoa::build_circuit(graph, 1);
    let transpiled = transpile(&logical, lf.coupling());
    let circuit = &transpiled.circuit;
    let n = circuit.n_qubits();
    let params = params_for(circuit.n_params());
    let ops = circuit.bind_ops(&params);
    let noise = NoiseModel::from_calibration(lf);

    m.put(
        "circuit.transpile_us",
        p50_us(&sample(|| {
            black_box(transpile(black_box(&logical), lf.coupling()));
        })),
    );
    m.put(
        "circuit.bind_ops_us",
        p50_us(&sample(|| {
            black_box(circuit.bind_ops(black_box(&params)));
        })),
    );
    let footprint = transpiled.stats;
    m.put("circuit.gates_1q", footprint.n_1q as f64);
    m.put("circuit.gates_2q", footprint.n_2q as f64);
    m.put("circuit.depth", footprint.depth as f64);
    m.put("circuit.swaps_inserted", footprint.swaps_inserted as f64);

    let amps = (1u64 << n) as f64;
    let sweeps = ops.len() as f64;
    m.put(
        "sim.sv_apply_ns_per_amp",
        ns_per_item(
            &sample(|| {
                let mut sv = StateVector::zero_state(n);
                sv.apply_ops(black_box(&ops));
                black_box(sv);
            }),
            sweeps * amps,
        ),
    );
    m.put(
        "sim.dm_apply_ns_per_elem",
        ns_per_item(
            &sample(|| {
                let mut rho = DensityMatrix::zero_state(n);
                for op in black_box(&ops) {
                    rho.apply_op(op);
                }
                black_box(rho);
            }),
            sweeps * amps * amps,
        ),
    );
    m.put(
        "sim.dm_depolarize_ns_per_elem",
        ns_per_item(
            &sample(|| {
                let mut rho = DensityMatrix::zero_state(n);
                for op in black_box(&ops) {
                    match *op {
                        FusedOp::One(_, q) | FusedOp::Rz(_, q) => {
                            rho.apply_depolarizing_1q(noise.dep_1q, q);
                        }
                        FusedOp::Two(_, a, b) | FusedOp::Cx(a, b) | FusedOp::Mono(_, _, a, b) => {
                            rho.apply_depolarizing_2q(noise.dep_2q, a, b);
                        }
                    }
                }
                black_box(rho);
            }),
            sweeps * amps * amps,
        ),
    );
    let ch_1q = NoiseChannel::depolarizing_1q(noise.dep_1q);
    let ch_2q = NoiseChannel::depolarizing_2q(noise.dep_2q);
    let mut rng = StdRng::seed_from_u64(0xC0C0);
    m.put(
        "sim.traj_noise_ns_per_site",
        ns_per_item(
            &sample(|| {
                let mut sv = StateVector::zero_state(n);
                for op in black_box(&ops) {
                    match *op {
                        FusedOp::One(_, q) | FusedOp::Rz(_, q) => {
                            apply_stochastic(&mut sv, &ch_1q, &[q], &mut rng);
                        }
                        FusedOp::Two(_, a, b) | FusedOp::Cx(a, b) | FusedOp::Mono(_, _, a, b) => {
                            apply_stochastic(&mut sv, &ch_2q, &[a, b], &mut rng);
                        }
                    }
                }
                black_box(sv);
            }),
            sweeps,
        ),
    );
    let fused = fuse(n, ops.iter().cloned());
    m.put(
        "sim.fuse_us",
        p50_us(&sample(|| {
            black_box(fuse(n, black_box(&ops).iter().cloned()));
        })),
    );
    m.put("sim.fused_ops_per_gate", fused.len() as f64 / sweeps);
    m.put("sim.ops", sweeps);
    // Computed from n, not measured: a density matrix above the Auto
    // limit is never allocated, a statevector is.
    let elems = if n <= qoncord_device::noise_model::AUTO_DENSITY_LIMIT {
        amps * amps
    } else {
        amps
    };
    m.put("sim.state_bytes", 16.0 * elems);
    transpiled
}

/// The statevector sweep at 12 qubits, so kernel scaling past the
/// workload's own 9 qubits is visible.
fn sv_apply_12q() -> f64 {
    const N: usize = 12;
    let edges: Vec<(usize, usize, f64)> = (0..N).map(|i| (i, (i + 1) % N, 1.0)).collect();
    let circuit = qaoa::build_circuit(&Graph::new(N, &edges), 1);
    let ops = circuit.bind_ops(&params_for(circuit.n_params()));
    ns_per_item(
        &sample(|| {
            let mut sv = StateVector::zero_state(N);
            sv.apply_ops(black_box(&ops));
            black_box(sv);
        }),
        ops.len() as f64 * (1u64 << N) as f64,
    )
}

/// `device.*` and `vqa.*`: the backend run under the kind `Auto` resolves
/// to, the same circuit on the ideal (fused) backend, and the evaluators.
fn device_and_vqa(
    graph: &Graph,
    transpiled: &TranspiledCircuit,
    lf: &Calibration,
    hf: &Calibration,
    has_vqe: bool,
    m: &mut Metrics,
) {
    let params = params_for(transpiled.circuit.n_params());
    let lf_backend = SimulatedBackend::from_calibration(lf.clone());
    let mut seed = 0u64;
    let lf_run = sample_tail(|| {
        seed += 1;
        black_box(lf_backend.run(transpiled, &params, seed));
    });
    m.put("device.run_lf_p50_us", p50_us(&lf_run));
    m.put("device.run_lf_p99_us", tail_us(&lf_run));
    let on_hf = transpile(&qaoa::build_circuit(graph, 1), hf.coupling());
    let hf_backend = SimulatedBackend::from_calibration(hf.clone());
    m.put(
        "device.run_hf_p50_us",
        p50_us(&sample(|| {
            seed += 1;
            black_box(hf_backend.run(&on_hf, &params, seed));
        })),
    );
    let ideal_backend = SimulatedBackend::ideal(lf.clone());
    let ideal = p50_us(&sample(|| {
        black_box(ideal_backend.run(transpiled, &params, 0));
    }));
    m.put("device.run_ideal_p50_us", ideal);
    m.put("device.noisy_over_ideal_ratio", p50_us(&lf_run) / ideal);

    let problem = MaxCut::new(graph.clone());
    m.put(
        "vqa.evaluator_build_us",
        p50_us(&sample(|| {
            black_box(QaoaEvaluator::new(&problem, 1, lf_backend.clone(), 0));
        })),
    );
    let mut evaluator = QaoaEvaluator::new(&problem, 1, lf_backend.clone(), 0);
    let evaluate = sample_tail(|| {
        black_box(evaluator.evaluate(&params));
    });
    m.put("vqa.qaoa_evaluate_p50_us", p50_us(&evaluate));
    m.put("vqa.qaoa_evaluate_p99_us", tail_us(&evaluate));
    m.put(
        "vqa.evaluate_minus_run_us",
        p50_us(&evaluate) - p50_us(&lf_run),
    );
    let mut optimizer = Spsa::default();
    let mut rng = StdRng::seed_from_u64(0xC0C0);
    let mut theta = params.clone();
    let mut iteration = 0;
    let before = evaluator.executions();
    let steps = sample(|| {
        black_box(train_step(
            &mut evaluator,
            &mut optimizer,
            &mut theta,
            iteration,
            &mut rng,
        ));
        iteration += 1;
    });
    m.put("vqa.train_step_us", p50_us(&steps));
    m.put(
        "vqa.evals_per_step",
        (evaluator.executions() - before) as f64 / steps.len() as f64,
    );

    if !has_vqe {
        m.put("vqa.vqe_evaluate_p50_us", 0.0);
        m.put("vqa.pauli_expectation_us", 0.0);
        return;
    }
    let hamiltonian = vqe::h2_hamiltonian();
    let ansatz = uccsd::uccsd_h2_ansatz(vqe::h2_hartree_fock_state());
    let mut vqe_evaluator = VqeEvaluator::new(&hamiltonian, &ansatz, lf_backend, 0);
    let vqe_params = params_for(vqe_evaluator.n_params());
    m.put(
        "vqa.vqe_evaluate_p50_us",
        p50_us(&sample(|| {
            black_box(vqe_evaluator.evaluate(&vqe_params));
        })),
    );
    let dist = vqe_evaluator.evaluate(&vqe_params).dist;
    m.put(
        "vqa.pauli_expectation_us",
        p50_us(&sample(|| {
            let energy: f64 = hamiltonian
                .terms()
                .iter()
                .map(|(c, p)| c * p.expectation_from_dist(black_box(&dist)))
                .sum();
            black_box(energy);
        })),
    );
}

/// `core.*`: the phase machinery over the stub evaluator (so the time is
/// core's own), and the closed-loop scheduler on one of the workload's jobs.
fn core(workload: &Workload, lf: &Calibration, hf: &Calibration, m: &mut Metrics) {
    let stub = StubFactory { centre: [0.4, 1.1] };
    let mut evaluator = stub.make(SimulatedBackend::from_calibration(lf.clone()), 0);
    let fresh = || PhaseRunner::new(vec![0.3, 0.2], ConvergenceConfig::relaxed(), 50, 7);
    let mut runner = fresh();
    m.put(
        "core.phase_step_us",
        p50_us(&sample(|| {
            if runner.is_finished() {
                runner = fresh();
            }
            black_box(runner.step(evaluator.as_mut()));
        })),
    );
    let checkpoint = PhaseCheckpoint {
        params: vec![0.25; 8],
        iteration: 17,
        executions: 51,
    };
    m.put(
        "core.checkpoint_roundtrip_ns",
        stats::quantile(
            &sample_batched(|| {
                let bytes = black_box(&checkpoint).to_bytes();
                black_box(PhaseCheckpoint::from_bytes(&bytes));
            }),
            0.5,
        ),
    );
    let values: Vec<f64> = (0..16)
        .map(|i| -1.0 + 0.05 * ((i * 7) % 16) as f64)
        .collect();
    m.put(
        "core.select_restarts_us",
        p50_us(&sample_batched(|| {
            black_box(select_restarts(
                black_box(&values),
                SelectionPolicy::TopCluster,
            ));
        })),
    );

    let job = &workload.jobs[0];
    let factory: Box<dyn EvaluatorFactory> = match &workload.qaoa_graph {
        Some(graph) => Box::new(QaoaFactory {
            problem: MaxCut::new(graph.clone()),
            layers: 1,
        }),
        None => Box::new(stub),
    };
    let started = Instant::now();
    let solo = QoncordScheduler::new(job.config.clone())
        .run(&[lf.clone(), hf.clone()], factory.as_ref(), job.n_restarts)
        .expect("the workload's own devices pass its fidelity filter");
    m.put("core.solo_schedule_s", started.elapsed().as_secs_f64());
    m.put("core.solo_executions", solo.total_executions() as f64);
}

/// A standalone queue loaded to the workload's tenant count and the peak
/// queue depth its run reached.
fn loaded_queue(tenants: usize, depth: usize, devices: usize) -> FairShareQueue {
    let mut queue = FairShareQueue::new();
    for t in 0..tenants {
        queue
            .record_usage(&format!("t{t}"), ((t * 37) % 1000) as f64)
            .expect("finite balance");
    }
    for id in 0..depth {
        queue
            .push_for_device(request(id, tenants), id % devices)
            .expect("unique ids");
    }
    queue
}

fn request(id: usize, tenants: usize) -> QueuedRequest {
    QueuedRequest {
        id,
        user: format!("t{}", (id * 7919) % tenants),
        requested_seconds: 0.5 + ((id * 13) % 100) as f64 * 0.05,
        submitted_at: (id / 4) as f64,
    }
}

/// `cloud.*` probes and the run's own queue-operation counts, plus
/// `orchestrator.assess_us`.
fn cloud(workload: &Workload, report: &OrchestratorReport, m: &mut Metrics) {
    let tenants = workload.tenants.max(1);
    let devices = workload.fleet.len();
    let depth = (report.trace.queue_depth.max().unwrap_or(0.0) as usize).max(MIN_CALLS);
    let mut queue = loaded_queue(tenants, depth, devices);

    // Each round leaves the depth where the workload had it: push a batch,
    // pop as many, requeue what was popped, then cancel it by id.
    const BATCH: usize = 256;
    let per_request = |t: Instant| t.elapsed().as_nanos() as f64 / BATCH as f64;
    let mut next_id = depth;
    let (mut push_ns, mut pop_ns) = (Vec::new(), Vec::new());
    let (mut requeue_ns, mut cancel_ns) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < 4.0 * MIN_SECONDS {
        // A request always lives on device `id % devices`, and each round
        // pops from the devices it pushed to, so no backlog drains.
        let ids = next_id..next_id + BATCH;
        next_id += BATCH;
        let batch: Vec<QueuedRequest> = ids.clone().map(|id| request(id, tenants)).collect();
        let t = Instant::now();
        for r in batch {
            let device = r.id % devices;
            queue.push_for_device(r, device).expect("unique ids");
        }
        push_ns.push(per_request(t));

        let t = Instant::now();
        let popped: Vec<QueuedRequest> = ids
            .map(|id| {
                queue
                    .pop_for_device(id % devices)
                    .expect("every device keeps a backlog")
            })
            .collect();
        pop_ns.push(per_request(t));

        let t = Instant::now();
        for r in &popped {
            queue
                .requeue_with_credit_for_device(r.clone(), r.id % devices, 0.25)
                .expect("popped ids are free again");
        }
        requeue_ns.push(per_request(t));

        let t = Instant::now();
        for r in &popped {
            black_box(queue.cancel_by_id(r.id));
        }
        cancel_ns.push(per_request(t));
    }
    m.put("cloud.push_ns", stats::median(&push_ns));
    m.put("cloud.pop_ns", stats::median(&pop_ns));
    m.put("cloud.cancel_ns", stats::median(&cancel_ns));
    m.put("cloud.requeue_ns", stats::median(&requeue_ns));

    // A decay marks the index stale; the next pop pays the rebuild.
    m.put(
        "cloud.decay_rebuild_us",
        p50_us(&sample(|| {
            queue.decay_usage(0.999).expect("valid factor");
            let r = queue.pop_for_device(0).expect("device 0 has backlog");
            let device = r.id % devices;
            queue.push_for_device(r, device).expect("id is free again");
        })),
    );

    let views: Vec<CloudDevice> = workload
        .fleet
        .iter()
        .enumerate()
        .map(|(i, d)| CloudDevice::new(i, d.advertised_fidelity(), d.speed()))
        .collect();
    let seconds = vec![1.0; devices];
    let mut k = 0usize;
    let projection = sample_tail(|| {
        k += 1;
        let placements = [Placement {
            device: k % devices,
            circuits: 10,
            quality_weight: 1.0,
        }];
        let probe = QueuedRequest {
            id: usize::MAX,
            user: format!("t{}", (k * 7) % tenants),
            requested_seconds: 8.0,
            submitted_at: 1000.0,
        };
        black_box(estimate_feasibility_decayed(
            &placements,
            &views,
            &seconds,
            0.0,
            QueueModel {
                queue: &queue,
                probe: &probe,
                probe_credit: (k % 3) as f64 * 10.0,
                decay: workload.config.decay,
            },
        ));
    });
    m.put("cloud.projection_p50_us", p50_us(&projection));
    m.put("cloud.projection_p99_us", tail_us(&projection));
    let mut rng = StdRng::seed_from_u64(0xC0C0);
    m.put(
        "cloud.place_job_us",
        p50_us(&sample_batched(|| {
            black_box(place_job(
                workload.config.policy,
                &views,
                54,
                true,
                0.0,
                &mut rng,
            ));
        })),
    );

    let ops = report.queue_ops;
    m.put("cloud.pushes", ops.pushes as f64);
    m.put("cloud.pops", ops.pops as f64);
    m.put("cloud.cancels", ops.cancels as f64);
    m.put("cloud.index_rebuilds", ops.index_rebuilds as f64);
    m.put("cloud.backlog_refreshes", ops.backlog_refreshes as f64);

    let controller = AdmissionController::new(workload.config.admission);
    let estimate = report
        .jobs
        .iter()
        .find_map(|j| j.telemetry.admission_estimate)
        .expect("every workload admits at least one job");
    m.put(
        "orchestrator.assess_us",
        p50_us(&sample_batched(|| {
            black_box(controller.assess(
                0.0,
                Some(Deadline::At(black_box(estimate.completion))),
                estimate,
            ));
        })),
    );
}
