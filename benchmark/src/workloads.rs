//! The four workloads: each turns a seed into a fleet, an engine
//! configuration and a job list, through the program's public API only.
//!
//! Sizes and class mixes are fixed, and every workload keeps its fleet
//! saturated, so the amount of work — and with it every metric — is a
//! property of the workload rather than of the seed. The seed draws what
//! is left: arrival instants, tenants, deadlines, training seeds (initial
//! points, SPSA perturbations, trajectory noise) and the stub surfaces'
//! minimisers. Arrivals are an open loop in simulated time: the trace fixes
//! every arrival instant before the run, whatever the service times turn
//! out to be.

use crate::stub::StubFactory;
use qoncord_cloud::job::{JobKind, JobSpec};
use qoncord_core::executor::{EvaluatorFactory, QaoaFactory, VqeFactory};
use qoncord_core::scheduler::QoncordConfig;
use qoncord_device::catalog;
use qoncord_orchestrator::{
    replay_workload, two_lf_one_hf_fleet, AdmissionConfig, AdmissionMode, FleetDevice,
    OrchestratorConfig, PreemptionConfig, ReplayConfig, TenantJob, UsageDecayConfig,
};
use qoncord_vqa::graph::Graph;
use qoncord_vqa::maxcut::MaxCut;
use qoncord_vqa::{uccsd, vqe};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload names, in suite order.
pub const NAMES: [&str; 4] = ["noisy_fleet", "traj_fleet", "admit_burst", "engine_churn"];

/// Wraps a job's factory; the traced invocation uses it to time the
/// `orchestrator -> vqa` boundary, the untraced one passes factories through.
pub type Wrap<'a> = &'a dyn Fn(usize, Box<dyn EvaluatorFactory>) -> Box<dyn EvaluatorFactory>;

/// Generated inputs of one workload.
pub struct Workload {
    pub name: &'static str,
    pub config: OrchestratorConfig,
    pub fleet: Vec<FleetDevice>,
    pub jobs: Vec<TenantJob>,
    /// Distinct tenant names among `jobs` (sizes the `cloud` probes).
    pub tenants: usize,
    /// The Max-Cut instance its QAOA jobs train on (`None`: the jobs are
    /// analytic stubs and the circuit layers do nothing).
    pub qaoa_graph: Option<Graph>,
    /// Whether some jobs are VQE-H2/UCCSD.
    pub has_vqe: bool,
}

/// Builds workload `name` from `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64, wrap: Wrap) -> Option<Workload> {
    match name {
        "noisy_fleet" => Some(noisy_fleet(seed, wrap)),
        "traj_fleet" => Some(traj_fleet(seed, wrap)),
        "admit_burst" => Some(admit_burst(seed, wrap)),
        "engine_churn" => Some(engine_churn(seed, wrap)),
        _ => None,
    }
}

fn rng_for(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn distinct_tenants(jobs: &[TenantJob]) -> usize {
    let mut names: Vec<&str> = jobs.iter().map(|j| j.tenant.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    names.len()
}

fn twins(prefix: &str, n: usize, hf: bool) -> Vec<FleetDevice> {
    (0..n)
        .map(|i| {
            if hf {
                FleetDevice::new(catalog::ibmq_kolkata().renamed(format!("{prefix}_{i}")))
                    .with_cost_per_second(8.0)
                    .expect("positive reference price")
            } else {
                FleetDevice::new(catalog::ibmq_toronto().renamed(format!("{prefix}_{i}")))
            }
        })
        .collect()
}

/// Jobs of `noisy_fleet`: enough that more than 40 complete, so the p75
/// turnaround has ten samples beyond it.
const NOISY_JOBS: usize = 60;

/// The paper-shaped path: a Sec. V-F style trace (60 % VQA sessions of two
/// restarts, 40 % latency-sensitive single-restart tasks) replayed onto the
/// 2-LF/1-HF fleet under preemption and calibrated admission. Every fourth
/// job is VQE-H2/UCCSD (4 qubits), the rest QAOA p=1 on the paper's
/// 7-node graph; all of them run as density matrices under
/// `BackendKind::Auto`.
///
/// The specs are laid out here instead of drawn by `generate_workload`:
/// its Bernoulli class flags and exponential gaps move the amount of work
/// in a 60-job trace by tens of percent from seed to seed, which would
/// drown any change this benchmark is meant to show. The classes follow a
/// fixed pattern and the arrivals are a jittered burst (mean gap 0.05
/// simulated seconds) that keeps the three devices backlogged throughout.
fn noisy_fleet(seed: u64, wrap: Wrap) -> Workload {
    let mut rng = rng_for(seed, 1);
    let specs: Vec<JobSpec> = (0..NOISY_JOBS)
        .map(|id| JobSpec {
            id,
            arrival: (id as f64 + rng.random::<f64>()) * 0.05,
            // `replay_workload` reads only the id, the arrival and the
            // class flag; the queue-simulator shape is a placeholder.
            kind: JobKind::Independent { n_circuits: 1 },
            seconds_per_circuit: 0.05,
            is_vqa: id % 5 < 3,
        })
        .collect();
    let replay = ReplayConfig {
        tenants: 6,
        training: QoncordConfig {
            exploration_max_iterations: 2,
            finetune_max_iterations: 2,
            seed: rng.random::<u64>(),
            ..QoncordConfig::default()
        },
        session_restarts: 2,
        interactive_priority: 2,
        deadline_free_stride: Some(4),
    };
    let hf_state = vqe::h2_hartree_fock_state();
    let jobs = replay_workload(&specs, &replay, |spec| {
        let factory: Box<dyn EvaluatorFactory> = if spec.id % 4 == 3 {
            Box::new(VqeFactory {
                hamiltonian: vqe::h2_hamiltonian(),
                ansatz: uccsd::uccsd_h2_ansatz(hf_state),
            })
        } else {
            Box::new(QaoaFactory {
                problem: MaxCut::new(Graph::paper_graph_7()),
                layers: 1,
            })
        };
        wrap(spec.id, factory)
    });
    Workload {
        name: "noisy_fleet",
        config: OrchestratorConfig {
            preemption: PreemptionConfig::enabled(),
            admission: AdmissionConfig::calibrated(),
            ..OrchestratorConfig::default()
        },
        fleet: two_lf_one_hf_fleet(),
        tenants: distinct_tenants(&jobs),
        jobs,
        qaoa_graph: Some(Graph::paper_graph_7()),
        has_vqe: true,
    }
}

/// The >8-qubit path: QAOA p=1 on the paper's 9-node graph, which `Auto`
/// runs as 48 Monte-Carlo trajectories on the statevector kernels — no
/// density code at all. Two restarts, no deadlines, admit-all, no
/// preemption; eight jobs over four tenants arrive every 0.05 simulated
/// seconds onto two LF and two HF twins. With so few jobs any arrival
/// jitter reorders the whole schedule, so the seed draws only the training
/// seeds here and the simulated timings are the same for every seed.
fn traj_fleet(seed: u64, wrap: Wrap) -> Workload {
    let mut rng = rng_for(seed, 2);
    let jobs: Vec<TenantJob> = (0..8)
        .map(|id| {
            let factory = Box::new(QaoaFactory {
                problem: MaxCut::new(Graph::paper_graph_9()),
                layers: 1,
            });
            let config = QoncordConfig {
                exploration_max_iterations: 2,
                finetune_max_iterations: 2,
                // The 9-qubit circuit sits below the default fidelity floor
                // on the LF twins; this workload is about kernels.
                min_fidelity: 0.0,
                seed: rng.random::<u64>(),
                ..QoncordConfig::default()
            };
            let arrival = id as f64 * 0.05;
            TenantJob::new(id, format!("lab-{}", id % 4), arrival, wrap(id, factory))
                .with_restarts(2)
                .with_config(config)
        })
        .collect();
    let mut fleet = twins("lf", 2, false);
    fleet.extend(twins("hf", 2, true));
    Workload {
        name: "traj_fleet",
        config: OrchestratorConfig::default(),
        fleet,
        tenants: distinct_tenants(&jobs),
        jobs,
        qaoa_graph: Some(Graph::paper_graph_9()),
        has_vqe: false,
    }
}

fn stub_factory(rng: &mut StdRng) -> Box<dyn EvaluatorFactory> {
    Box::new(StubFactory {
        centre: [
            rng.random::<f64>() * std::f64::consts::PI,
            rng.random::<f64>() * std::f64::consts::PI,
        ],
    })
}

fn stub_fleet(n: usize) -> Vec<FleetDevice> {
    let mut fleet = twins("lf", n / 2, false);
    fleet.extend(twins("hf", n - n / 2, true));
    fleet
}

/// Reads of the queue: 5000 stub jobs whose tenant is drawn from 10^4
/// names arrive 500 per simulated second (Poisson), each with a deadline
/// 5 to 205 simulated seconds out, onto 12 devices under rejecting,
/// decay-aware admission. The burst outruns the fleet, so every admission
/// projects over a deep standing backlog while the circuit layers do
/// nothing.
fn admit_burst(seed: u64, wrap: Wrap) -> Workload {
    let mut rng = rng_for(seed, 3);
    let mut clock = 0.0f64;
    let jobs: Vec<TenantJob> = (0..5000)
        .map(|id| {
            clock += -(1.0 / 500.0) * rng.random::<f64>().max(1e-12).ln();
            let tenant = rng.random_range(0..10_000);
            let deadline = clock + 5.0 + 200.0 * rng.random::<f64>();
            let config = QoncordConfig {
                exploration_max_iterations: 3,
                finetune_max_iterations: 3,
                seed: rng.random::<u64>(),
                ..QoncordConfig::default()
            };
            TenantJob::new(
                id,
                format!("t{tenant}"),
                clock,
                wrap(id, stub_factory(&mut rng)),
            )
            .with_restarts(1)
            .with_config(config)
            .with_deadline(deadline)
        })
        .collect();
    Workload {
        name: "admit_burst",
        config: OrchestratorConfig {
            admission: AdmissionConfig {
                mode: AdmissionMode::Reject,
                decay_aware: true,
                ..AdmissionConfig::default()
            },
            decay: UsageDecayConfig::every(50.0, 0.9),
            ..OrchestratorConfig::default()
        },
        fleet: stub_fleet(12),
        tenants: distinct_tenants(&jobs),
        jobs,
        qaoa_graph: None,
        has_vqe: false,
    }
}

/// Writes to the queue: 5000 stub jobs over 10^3 tenants, 40 every half
/// simulated second, one to three restarts in a fixed cycle (triage cancels
/// the pruned ones' reservations; drawn per job they moved the makespan by
/// 2 % between seeds), every seventh job priority 3 with a deadline two
/// simulated seconds out (evictions and requeues), usage decay every 20
/// simulated seconds (index rebuilds), admit-all so no projection runs.
/// 40 per tick is just above what the 12 devices drain: the backlog grows
/// slowly and the median turnaround stays off the knee of its distribution
/// (at 42 to 44 per tick it moved by 10 to 13 % between seeds). The size is
/// set by the host, not by the engine: a repetition takes half a second, and
/// over the same 25 seconds the fastest of forty such repetitions spread a
/// third as wide between invocations as the fastest of fourteen 1.6-second
/// ones at 10000 jobs.
fn engine_churn(seed: u64, wrap: Wrap) -> Workload {
    let mut rng = rng_for(seed, 4);
    let jobs: Vec<TenantJob> = (0..5_000)
        .map(|id| {
            let arrival = (id / 40) as f64 * 0.5;
            let tenant = rng.random_range(0..1000);
            let config = QoncordConfig {
                exploration_max_iterations: 3,
                finetune_max_iterations: 3,
                seed: rng.random::<u64>(),
                ..QoncordConfig::default()
            };
            let job = TenantJob::new(
                id,
                format!("t{tenant}"),
                arrival,
                wrap(id, stub_factory(&mut rng)),
            )
            .with_restarts(1 + id % 3)
            .with_config(config);
            if id % 7 == 0 {
                job.with_priority(3).with_deadline(arrival + 2.0)
            } else {
                job
            }
        })
        .collect();
    Workload {
        name: "engine_churn",
        config: OrchestratorConfig {
            preemption: PreemptionConfig::enabled(),
            decay: UsageDecayConfig::every(20.0, 0.9),
            ..OrchestratorConfig::default()
        },
        fleet: stub_fleet(12),
        tenants: distinct_tenants(&jobs),
        jobs,
        qaoa_graph: None,
        has_vqe: false,
    }
}
