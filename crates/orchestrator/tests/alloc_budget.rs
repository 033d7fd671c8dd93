//! The engine's allocation budget: heap allocations the library makes per
//! trace event, on small replicas of the `engine_churn` and `admit_burst`
//! benchmark shapes (`benchmark/src/workloads.rs`).
//!
//! A counting global allocator tallies allocations on this thread while
//! `Orchestrator::run` executes. The stub evaluator below pauses the count
//! inside its own methods, so what is counted is the engine, queue, driver,
//! optimizer and trace fold — never the surface a real job would simulate.
//! The count is exact and repeats run to run, so the budget is a plain
//! `<=`. It is asserted in release builds only: debug builds run the
//! engine's replay and dispatch oracles, which allocate by design. Run it
//! with `cargo test --release -p qoncord-orchestrator --test alloc_budget --
//! --nocapture` to print the per-event counts.
//!
//! One `#[test]` runs both shapes, and the counts are thread-local, so
//! tests running in parallel cannot add to them.

#![allow(unsafe_code)]

use qoncord_circuit::transpile::CircuitStats;
use qoncord_core::executor::EvaluatorFactory;
use qoncord_core::scheduler::QoncordConfig;
use qoncord_device::catalog;
use qoncord_device::noise_model::SimulatedBackend;
use qoncord_orchestrator::{
    AdmissionConfig, AdmissionMode, FleetDevice, Orchestrator, OrchestratorConfig,
    PreemptionConfig, TenantJob, UsageDecayConfig,
};
use qoncord_sim::dist::ProbDist;
use qoncord_vqa::evaluator::{CostEvaluator, Evaluation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static IN_STUB: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

impl Counting {
    fn count() {
        // `try_with`: the allocator also runs while thread-locals are torn down.
        let paused = IN_STUB.try_with(Cell::get).unwrap_or(true);
        if !paused {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are plain thread-local cells without destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with the count paused: the stub's own allocations are not the
/// library's.
fn in_stub<T>(f: impl FnOnce() -> T) -> T {
    IN_STUB.with(|s| s.set(true));
    let out = f();
    IN_STUB.with(|s| s.set(false));
    out
}

/// The benchmark stub's analytic surface (`benchmark/src/stub.rs`).
struct Stub {
    centre: [f64; 2],
    contrast: f64,
    device: String,
    executions: u64,
}

impl CostEvaluator for Stub {
    fn n_params(&self) -> usize {
        2
    }

    fn evaluate(&mut self, params: &[f64]) -> Evaluation {
        in_stub(|| {
            self.executions += 1;
            let overlap = (params[0] - self.centre[0]).cos() * (params[1] - self.centre[1]).cos();
            let expectation = self.contrast * (-0.55 - 0.45 * overlap);
            Evaluation {
                expectation,
                entropy: 4.0 * (1.0 + expectation),
                dist: ProbDist::uniform(1),
            }
        })
    }

    fn executions(&self) -> u64 {
        self.executions
    }

    fn device_name(&self) -> String {
        in_stub(|| self.device.clone())
    }

    fn ground_energy(&self) -> f64 {
        -1.0
    }

    fn circuit_stats(&self) -> CircuitStats {
        CircuitStats {
            n_1q: 24,
            n_2q: 8,
            depth: 12,
            swaps_inserted: 0,
            n_measured: 4,
        }
    }
}

struct StubFactory {
    centre: [f64; 2],
}

impl EvaluatorFactory for StubFactory {
    fn make(&self, backend: SimulatedBackend, _seed: u64) -> Box<dyn CostEvaluator> {
        in_stub(|| {
            let cal = backend.calibration();
            Box::new(Stub {
                centre: self.centre,
                contrast: (1.0 - 10.0 * cal.error_2q()).clamp(0.05, 1.0),
                device: cal.name().to_owned(),
                executions: 0,
            }) as Box<dyn CostEvaluator>
        })
    }
}

/// Six LF and six HF twins, as the benchmark's 12-device stub fleet.
fn fleet() -> Vec<FleetDevice> {
    let lf = (0..6).map(|i| FleetDevice::new(catalog::ibmq_toronto().renamed(format!("lf_{i}"))));
    let hf = (0..6).map(|i| {
        FleetDevice::new(catalog::ibmq_kolkata().renamed(format!("hf_{i}")))
            .with_cost_per_second(8.0)
            .expect("positive reference price")
    });
    lf.chain(hf).collect()
}

fn job(id: usize, tenant: usize, arrival: f64, rng: &mut StdRng) -> TenantJob {
    let config = QoncordConfig {
        exploration_max_iterations: 3,
        finetune_max_iterations: 3,
        seed: rng.random::<u64>(),
        ..QoncordConfig::default()
    };
    let centre = [
        rng.random::<f64>() * std::f64::consts::PI,
        rng.random::<f64>() * std::f64::consts::PI,
    ];
    TenantJob::new(
        id,
        format!("t{tenant}"),
        arrival,
        Box::new(StubFactory { centre }),
    )
    .with_config(config)
}

/// `engine_churn` at a fifth of its size: 40 jobs every half simulated
/// second over 200 tenants, `1 + id % 3` restarts, every seventh job
/// priority 3 with a deadline two seconds out, decay every 20 s,
/// preemption on, admit-all.
fn engine_churn() -> (OrchestratorConfig, Vec<TenantJob>) {
    let mut rng = StdRng::seed_from_u64(4);
    let jobs = (0..1000)
        .map(|id| {
            let arrival = (id / 40) as f64 * 0.5;
            let tenant = rng.random_range(0..200);
            let job = job(id, tenant, arrival, &mut rng).with_restarts(1 + id % 3);
            if id % 7 == 0 {
                job.with_priority(3).with_deadline(arrival + 2.0)
            } else {
                job
            }
        })
        .collect();
    let config = OrchestratorConfig {
        preemption: PreemptionConfig::enabled(),
        decay: UsageDecayConfig::every(20.0, 0.9),
        ..OrchestratorConfig::default()
    };
    (config, jobs)
}

/// `admit_burst` at a fifth of its size: Poisson arrivals at 500 per
/// simulated second from 2000 tenant names, each with a deadline 5 to 205
/// seconds out, under rejecting decay-aware admission.
fn admit_burst() -> (OrchestratorConfig, Vec<TenantJob>) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut clock = 0.0f64;
    let jobs = (0..1000)
        .map(|id| {
            clock += -(1.0 / 500.0) * rng.random::<f64>().max(1e-12).ln();
            let tenant = rng.random_range(0..2000);
            let deadline = clock + 5.0 + 200.0 * rng.random::<f64>();
            job(id, tenant, clock, &mut rng)
                .with_restarts(1)
                .with_deadline(deadline)
        })
        .collect();
    let config = OrchestratorConfig {
        admission: AdmissionConfig {
            mode: AdmissionMode::Reject,
            decay_aware: true,
        },
        decay: UsageDecayConfig::every(50.0, 0.9),
        ..OrchestratorConfig::default()
    };
    (config, jobs)
}

/// Library allocations per trace event of one run of `shape`.
fn allocations_per_event(shape: (OrchestratorConfig, Vec<TenantJob>)) -> (u64, u64) {
    let (config, jobs) = shape;
    let orchestrator = Orchestrator::new(config, fleet());
    let before = ALLOCATIONS.with(Cell::get);
    let report = orchestrator.run(&jobs);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    (allocations, report.trace.events.total())
}

/// Committed budgets, library allocations per trace event (release), a few
/// percent above the counts they were set at: `engine_churn` 83 885 over
/// 45 891 events (1.828) and `admit_burst` 66 247 over 24 991 (2.651). The
/// engine before dense tables and allocation-free cycles read 3.892 and
/// 5.610. One more allocation per lease grant (0.24–0.27 per event) breaks
/// either.
const CHURN_BUDGET: f64 = 1.9;
const BURST_BUDGET: f64 = 2.75;

#[test]
fn engine_allocations_per_event_stay_within_budget() {
    for (name, shape, budget) in [
        ("engine_churn", engine_churn(), CHURN_BUDGET),
        ("admit_burst", admit_burst(), BURST_BUDGET),
    ] {
        let (allocations, events) = allocations_per_event(shape);
        let per_event = allocations as f64 / events as f64;
        println!("{name}: {allocations} allocations over {events} events = {per_event:.3} per event (budget {budget})");
        if !cfg!(debug_assertions) {
            assert!(
                per_event <= budget,
                "{name}: {per_event:.3} library allocations per trace event exceed the budget of {budget}"
            );
        }
    }
}
