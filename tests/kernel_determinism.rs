//! End-to-end determinism regression for the fast simulator kernels: the
//! contended eight-tenant preemption scenario must produce the same
//! training outcomes whether its evaluators run the fused density programs
//! jobs run or the seed's op-at-a-time evolution
//! (`qoncord_sim::density::evolve_unfused`), and the same bits every time it
//! runs.
//!
//! Two guarantees, at two strengths:
//!
//! * fast vs seed — *within tolerance*: fusion pre-multiplies gate
//!   matrices, which reorders floating-point operations, so per-restart
//!   parameters and energies agree to 1e-9 but not bit-for-bit;
//! * run vs run — *bit-identical*: nothing in the stack depends on the
//!   host (one engine thread, one simulator thread, seeded RNGs, ordered
//!   maps), so the entire report (params, energies, event stream) repeats.

use qoncord::circuit::transpile::{transpile, CircuitStats, TranspiledCircuit};
use qoncord::cloud::policy::Policy;
use qoncord::core::executor::{EvaluatorFactory, QaoaFactory};
use qoncord::core::scheduler::QoncordConfig;
use qoncord::device::noise_model::{BackendKind, SimulatedBackend, AUTO_DENSITY_LIMIT};
use qoncord::orchestrator::trace::{MemorySink, TraceHandle, TraceRecord};
use qoncord::orchestrator::{
    two_lf_one_hf_fleet, DeadlineClass, Orchestrator, OrchestratorConfig, OrchestratorReport,
    PreemptionConfig, TenantJob,
};
use qoncord::sim::density::{evolve_unfused, DensityMatrix};
use qoncord::sim::dist::ProbDist;
use qoncord::vqa::evaluator::{CostEvaluator, Evaluation};
use qoncord::vqa::{graph::Graph, maxcut::MaxCut, qaoa};
use std::cell::RefCell;
use std::rc::Rc;

const N_TENANTS: usize = 8;
const N_RESTARTS: usize = 3;
const URGENT: usize = 7;
const LAYERS: usize = 1;

fn problem() -> MaxCut {
    MaxCut::new(Graph::paper_graph_7())
}

/// What a `QaoaEvaluator` evaluates on the fleet's density path, on the
/// seed tier: the bound ops evolved op by op with a depolarizing sweep after
/// each, then the backend's read-out (readout error, routing undone).
struct SeedQaoa {
    backend: SimulatedBackend,
    transpiled: TranspiledCircuit,
    diagonal: Vec<f64>,
    ground: f64,
    executions: u64,
}

/// The evaluator factory of the seed-tier run.
fn seed_qaoa(backend: SimulatedBackend, _seed: u64) -> Box<dyn CostEvaluator> {
    let problem = problem();
    let transpiled = transpile(
        &qaoa::build_circuit(problem.graph(), LAYERS),
        backend.calibration().coupling(),
    );
    assert_eq!(backend.kind(), BackendKind::Auto);
    assert!(
        transpiled.circuit.n_qubits() <= AUTO_DENSITY_LIMIT,
        "the fleet runs this register as a density matrix"
    );
    Box::new(SeedQaoa {
        backend,
        transpiled,
        diagonal: problem.energy_diagonal(),
        ground: problem.ground_energy(),
        executions: 0,
    })
}

impl CostEvaluator for SeedQaoa {
    fn n_params(&self) -> usize {
        self.transpiled.circuit.n_params()
    }

    fn evaluate(&mut self, params: &[f64]) -> Evaluation {
        self.executions += 1;
        let circuit = &self.transpiled.circuit;
        let noise = self.backend.noise();
        let mut rho = DensityMatrix::zero_state(circuit.n_qubits());
        let ops = circuit.bind_ops(params);
        evolve_unfused(&mut rho, &ops, noise.dep_1q, noise.dep_2q);
        let mut physical = rho.probabilities();
        if noise.readout.mean_error() > 0.0 {
            physical = physical.with_uniform_readout_error(noise.readout);
        }
        let logical = self
            .transpiled
            .remap_probabilities(physical.probabilities());
        let dist = ProbDist::new(logical);
        Evaluation {
            expectation: dist.expectation_diagonal(&self.diagonal),
            entropy: dist.shannon_entropy(),
            dist,
        }
    }

    fn executions(&self) -> u64 {
        self.executions
    }

    fn device_name(&self) -> String {
        self.backend.calibration().name().to_owned()
    }

    fn ground_energy(&self) -> f64 {
        self.ground
    }

    fn circuit_stats(&self) -> CircuitStats {
        self.transpiled.stats
    }
}

fn training_config(tenant: usize) -> QoncordConfig {
    QoncordConfig {
        exploration_max_iterations: 8,
        finetune_max_iterations: 10,
        seed: 0xBEE5 + tenant as u64,
        ..QoncordConfig::default()
    }
}

/// The scenario's jobs, evaluated by `QaoaEvaluator` or, with `seed_tier`,
/// by [`SeedQaoa`].
fn jobs(seed_tier: bool) -> Vec<TenantJob> {
    (0..N_TENANTS)
        .map(|i| {
            let factory: Box<dyn EvaluatorFactory> = if seed_tier {
                Box::new(seed_qaoa)
            } else {
                Box::new(QaoaFactory {
                    problem: problem(),
                    layers: LAYERS,
                })
            };
            let job = TenantJob::new(i, format!("tenant-{i}"), 0.0, factory)
                .with_restarts(N_RESTARTS)
                .with_config(training_config(i));
            if i == URGENT {
                let mut job = job
                    .with_priority(4)
                    .with_deadline_class(DeadlineClass::Interactive);
                job.arrival = 1.0;
                job
            } else {
                job
            }
        })
        .collect()
}

fn run(seed_tier: bool) -> (OrchestratorReport, Vec<TraceRecord>) {
    let sink = Rc::new(RefCell::new(MemorySink::new()));
    let orchestrator = Orchestrator::new(
        OrchestratorConfig {
            policy: Policy::Qoncord,
            preemption: PreemptionConfig::enabled(),
            trace: TraceHandle::to(sink.clone()),
            ..OrchestratorConfig::default()
        },
        two_lf_one_hf_fleet(),
    );
    let report = orchestrator.run(&jobs(seed_tier));
    let records = sink.borrow().records().to_vec();
    (report, records)
}

#[test]
fn fast_kernels_track_the_scalar_seed_run_within_tolerance() {
    let (fast, _) = run(false);
    let (seed, _) = run(true);

    assert_eq!(fast.jobs.len(), seed.jobs.len());
    for (a, b) in fast.jobs.iter().zip(&seed.jobs) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.tenant, b.tenant);
        let (ra, rb) = (
            a.status.report().expect("job completed"),
            b.status.report().expect("job completed"),
        );
        assert_eq!(ra.total_executions(), rb.total_executions());
        assert!(
            (ra.best_expectation() - rb.best_expectation()).abs() < 1e-9,
            "tenant {}: best energy {} vs seed {}",
            a.tenant,
            ra.best_expectation(),
            rb.best_expectation()
        );
        assert_eq!(ra.restarts.len(), rb.restarts.len());
        for (x, y) in ra.restarts.iter().zip(&rb.restarts) {
            assert!(
                (x.final_expectation - y.final_expectation).abs() < 1e-9,
                "tenant {}: restart energy {} vs seed {}",
                a.tenant,
                x.final_expectation,
                y.final_expectation
            );
            assert_eq!(x.final_params.len(), y.final_params.len());
            for (p, q) in x.final_params.iter().zip(&y.final_params) {
                assert!(
                    (p - q).abs() < 1e-9,
                    "tenant {}: param {p} vs seed {q}",
                    a.tenant
                );
            }
        }
    }
}

#[test]
fn running_twice_never_changes_a_single_bit_of_the_run() {
    let (base, base_records) = run(false);
    let (report, records) = run(false);
    assert_eq!(records, base_records, "event stream diverged between runs");
    assert_eq!(report.trace, base.trace);
    assert_eq!(report.queue_ops, base.queue_ops);
    assert_eq!(report.jobs.len(), base.jobs.len());
    for (a, b) in report.jobs.iter().zip(&base.jobs) {
        assert_eq!(a.telemetry, b.telemetry);
        let (ra, rb) = (
            a.status.report().expect("job completed"),
            b.status.report().expect("job completed"),
        );
        assert_eq!(
            ra.best_expectation().to_bits(),
            rb.best_expectation().to_bits(),
            "tenant {}: best energy changed between runs",
            a.tenant
        );
        for (x, y) in ra.restarts.iter().zip(&rb.restarts) {
            assert_eq!(x.final_expectation.to_bits(), y.final_expectation.to_bits());
            let bits_a: Vec<u64> = x.final_params.iter().map(|p| p.to_bits()).collect();
            let bits_b: Vec<u64> = y.final_params.iter().map(|p| p.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "tenant {} params drifted", a.tenant);
        }
    }
}
