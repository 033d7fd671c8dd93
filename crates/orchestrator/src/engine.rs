//! The multi-tenant orchestration engine: a discrete-event loop over a
//! virtual clock in which every optimizer batch of every tenant's real
//! training run is a preemptible device [`Lease`](crate::lease::Lease) on
//! the shared fleet.
//!
//! Dispatch reuses the cloud layer directly: ladder selection per arriving
//! job goes through [`qoncord_cloud::policy::place_job`] over live
//! [`CloudDevice`] load views, and contention at each device is resolved by
//! a fleet-wide [`FairShareQueue`] (heavy tenants sink, light tenants
//! float; priorities enter as usage credit). When restart triage prunes a
//! restart mid-flight, its provisional fine-tuning reservation is released
//! for the other tenants.
//!
//! # Leases and preemption
//!
//! A granted batch occupies its device as a [`Lease`](crate::lease::Lease):
//! the batch's *real*
//! compute is deferred to the lease's expiry, so until then the lease can be
//! **evicted** — the device is handed to a more urgent tenant immediately,
//! the recalled batch re-enters the fair-share queue with usage credit for
//! the occupancy the eviction burned, and the victim later resumes from the
//! [`PhaseRunner`](qoncord_core::phase::PhaseRunner) checkpoint taken at
//! eviction. Results are bit-identical to an uncontended run; only wasted
//! occupancy (telemetry: wasted-work seconds) is lost. Preemption is decided
//! by [`Urgency::may_preempt`] whenever a batch request queues behind a
//! running lease.
//!
//! # Admission control and calibration
//!
//! Jobs carrying a [`Deadline`](crate::admission::Deadline) are assessed on
//! arrival: [`estimate_feasibility`] projects their completion from the
//! current fleet load over the same placements the dispatch policy chose,
//! and the [`AdmissionController`] admits or rejects per
//! [`AdmissionConfig`]. With [`AdmissionConfig::decay_aware`], the
//! projection instead models the fair-share queue the way dispatch will run
//! it ([`estimate_feasibility_decayed`]): queued work the arrival outranks
//! does not delay it, and usage-decay epochs projected to pass before its
//! start re-rank the queue. Under
//! [`AdmissionMode::Calibrated`](crate::admission::AdmissionMode)
//! the engine also closes the estimate loop: every completion feeds its
//! realized-vs-projected error into a
//! [`MarginModel`], and the static margin of zero is replaced by the
//! learned per-tier/per-class error quantile.
//!
//! # Splitting and fairness
//!
//! With [`SplitConfig::enabled`], a multi-device job is fanned
//! QuSplit-style into per-device shards (see [`crate::split`]); the engine
//! then keeps one batch request or lease in flight *per shard*, so a
//! single job occupies several same-tier devices concurrently. Two
//! fairness guards run underneath: every [`UsageDecayConfig`] epoch of
//! virtual time ages all tenants' fair-share balances (so past-heavy
//! tenants recover priority in the production dispatch path, not just in
//! the fig12 queue simulator), and a job evicted `EVICTION_CAP` (8) times
//! holds its remaining leases with eviction immunity, bounding how hard a
//! stream of urgent arrivals can starve one victim.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionMode};
use crate::calibration::{CalibrationConfig, MarginKey, MarginModel, ServiceClass};
use crate::driver::{circuit_estimate, Runner, SelectedDevice};
use crate::events::{Event, EventQueue};
use crate::fleet::FleetDevice;
use crate::job::TenantJob;
use crate::lease::{LeaseLedger, LeaseTerms, Urgency};
use crate::split::{self, SplitConfig};
use crate::telemetry::{JobRecord, JobStatus, OrchestratorReport, TenantUsage};
use crate::trace::{TraceEvent, TraceHandle, Tracer};
use qoncord_cloud::device::CloudDevice;
use qoncord_cloud::fairshare::{FairShareQueue, QueuedRequest};
use qoncord_cloud::policy::{
    estimate_feasibility, estimate_feasibility_decayed, place_job, Placement, Policy, QueueModel,
};

use qoncord_core::phase::ShardCheckpoint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};

/// Anti-starvation preemption budget: once a job has suffered this many
/// lease evictions, its remaining leases gain eviction immunity, so a
/// stream of urgent arrivals cannot re-evict the same victim without bound.
const EVICTION_CAP: u32 = 8;

/// Device-seconds of fair-share usage credit granted per priority level,
/// so higher-priority jobs dequeue sooner.
const PRIORITY_CREDIT: f64 = 50.0;

/// Seed of the placement RNG (only randomized policies consume it).
const PLACEMENT_SEED: u64 = 0x09C0;

/// Tuning of lease preemption.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PreemptionConfig {
    /// Whether urgent batch requests may evict running leases at all.
    /// Disabled, the engine only ever waits for a lease to expire — the
    /// pre-lease-manager behavior.
    pub enabled: bool,
}

impl PreemptionConfig {
    /// Preemption switched on.
    pub fn enabled() -> Self {
        PreemptionConfig { enabled: true }
    }
}

/// Virtual-time decay of fair-share usage: every
/// [`epoch_seconds`](qoncord_cloud::policy::UsageDecayModel::epoch_seconds)
/// of the virtual clock, every tenant's consumed-seconds balance is
/// multiplied by
/// [`factor`](qoncord_cloud::policy::UsageDecayModel::factor), so
/// past-heavy tenants recover dispatch priority instead of sinking
/// forever. Disabled by default (infinite epoch).
///
/// This is a re-export of the cloud layer's
/// [`UsageDecayModel`](qoncord_cloud::policy::UsageDecayModel) — the same
/// type the decay-aware feasibility projection consumes, so the
/// dispatcher that applies decay and the admission projection that
/// anticipates it can never drift apart.
pub use qoncord_cloud::policy::UsageDecayModel as UsageDecayConfig;

/// Tuning of the orchestration engine.
#[derive(Debug, Clone, PartialEq)]
pub struct OrchestratorConfig {
    /// Ladder-selection policy per arriving job, evaluated over live device
    /// loads: [`Policy::Qoncord`] picks an LF exploration device and an HF
    /// fine-tuning device; [`Policy::BestFidelity`] is the HF-only
    /// baseline; the other policies place single-device ladders.
    pub policy: Policy,
    /// Lease preemption (disabled by default).
    pub preemption: PreemptionConfig,
    /// Deadline-aware admission control (admit-all by default).
    pub admission: AdmissionConfig,
    /// Margin-model warm-up for [`AdmissionMode::Calibrated`]. Outcomes
    /// feed the model in every mode — the estimate-error telemetry is
    /// always recorded — but only the calibrated mode *applies* the learned
    /// margins.
    pub calibration: CalibrationConfig,
    /// QuSplit-style restart splitting (disabled by default).
    pub split: SplitConfig,
    /// Virtual-time fair-share usage decay (disabled by default).
    pub decay: UsageDecayConfig,
    /// Accepted and **ignored**: the engine is single-threaded at every
    /// value (the sharded executor this field once sized was measured and
    /// deleted — "Why the engine is single-threaded" in
    /// `docs/ARCHITECTURE.md`). The field survives only because the frozen
    /// `benchmark/src/harness.rs` still sets it for its
    /// `orchestrator.shard_speedup` probe; the follow-up `benchmark` issue
    /// that retires that probe removes the field with it.
    pub shards: usize,
    /// Flight-recorder sink (detached by default): every engine decision is
    /// emitted as a [`TraceEvent`] to the attached
    /// [`TraceSink`](crate::trace::TraceSink). Detached or not, the engine
    /// folds the same stream into its report, including
    /// [`OrchestratorReport::trace`](crate::telemetry::OrchestratorReport).
    pub trace: TraceHandle,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        OrchestratorConfig {
            policy: Policy::Qoncord,
            preemption: PreemptionConfig::default(),
            admission: AdmissionConfig::default(),
            calibration: CalibrationConfig::default(),
            split: SplitConfig::default(),
            decay: UsageDecayConfig::default(),
            shards: 1,
            trace: TraceHandle::default(),
        }
    }
}

/// The multi-tenant orchestrator over a fixed fleet.
///
/// # Examples
///
/// ```
/// use qoncord_core::executor::QaoaFactory;
/// use qoncord_core::scheduler::QoncordConfig;
/// use qoncord_orchestrator::{
///     fleet::two_lf_one_hf_fleet, Orchestrator, OrchestratorConfig, TenantJob,
/// };
/// use qoncord_vqa::{graph::Graph, maxcut::MaxCut};
///
/// let cfg = QoncordConfig {
///     exploration_max_iterations: 4,
///     finetune_max_iterations: 5,
///     ..QoncordConfig::default()
/// };
/// let jobs: Vec<TenantJob> = (0..2)
///     .map(|i| {
///         let factory = QaoaFactory {
///             problem: MaxCut::new(Graph::new(3, &[(0, 1, 1.0), (1, 2, 1.0)])),
///             layers: 1,
///         };
///         TenantJob::new(i, format!("tenant-{i}"), 0.0, Box::new(factory))
///             .with_restarts(1)
///             .with_config(cfg.clone())
///     })
///     .collect();
/// let orchestrator = Orchestrator::new(OrchestratorConfig::default(), two_lf_one_hf_fleet());
/// let report = orchestrator.run(&jobs);
/// assert_eq!(report.completed(), 2);
/// assert!(report.makespan() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Orchestrator {
    config: OrchestratorConfig,
    fleet: Vec<FleetDevice>,
}

impl Orchestrator {
    /// Creates an orchestrator over `fleet`.
    ///
    /// # Panics
    ///
    /// Panics if the fleet is empty, device names collide (names key the
    /// ladder-to-fleet mapping), or the decay configuration is invalid.
    pub fn new(config: OrchestratorConfig, fleet: Vec<FleetDevice>) -> Self {
        assert!(!fleet.is_empty(), "fleet must not be empty");
        assert!(
            config.decay.epoch_seconds > 0.0,
            "decay epoch must be positive"
        );
        assert!(
            config.decay.factor.is_finite() && (0.0..=1.0).contains(&config.decay.factor),
            "decay factor must lie in [0, 1]"
        );
        let mut names = HashSet::new();
        for device in &fleet {
            assert!(
                names.insert(device.name().to_owned()),
                "duplicate fleet device name {}",
                device.name()
            );
        }
        Orchestrator { config, fleet }
    }

    /// The active configuration.
    pub fn config(&self) -> &OrchestratorConfig {
        &self.config
    }

    /// The fleet.
    pub fn fleet(&self) -> &[FleetDevice] {
        &self.fleet
    }

    /// Runs `jobs` to completion on the virtual clock and returns the full
    /// report (jobs in submission order).
    ///
    /// The engine is single-threaded (see "Why the engine is
    /// single-threaded" in `docs/ARCHITECTURE.md`), and so are the
    /// simulator kernels underneath: a run uses the calling thread only.
    pub fn run(&self, jobs: &[TenantJob]) -> OrchestratorReport {
        let mut sim = Sim::new(&self.config, &self.fleet, jobs);
        sim.run_loop();
        sim.into_report()
    }
}

/// Where a job shard's one pending batch is: a shard never has more than
/// one batch in the system.
enum Pending {
    /// Nothing queued or leased.
    Idle,
    /// A granted-on-pop batch request, queued under its reservation id.
    Queued(QueuedBatch),
    /// Granted: a lease runs it until expiry or eviction.
    Leased,
}

/// A queued batch request of one job shard.
struct QueuedBatch {
    id: usize,
    device: usize,
    seconds: f64,
    /// For a batch requeued by eviction: the shard's checkpoint taken at
    /// eviction. The grant path verifies (in debug builds) that the shard
    /// resumes from exactly this state. Boxed: only evicted batches carry
    /// one, and every `Pending` slot would otherwise pay for it.
    resume: Option<Box<ShardCheckpoint>>,
    /// Its key in `Sim::urgent[device]` while it is queued there.
    urgent_order: Option<u64>,
}

/// A provisional hold for one restart's future fine-tuning block: never
/// granted, released (or silently converted) at triage.
struct Hold {
    id: usize,
    device: usize,
    seconds: f64,
}

/// Determinism invariant (audited; keep it that way): no collection below is
/// keyed by hash. Per-job and per-reservation state is dense and indexed,
/// and every walk over it — holds in restart order, shards in index order,
/// urgent requests in push order — is in an order fixed by the run itself,
/// so the `(time, seq)` replay in `run_loop` is byte-stable across runs.
/// A new hash-keyed collection may only be looked up, never iterated in an
/// order that can reach events, telemetry sums or trace output.
struct Sim<'a> {
    config: &'a OrchestratorConfig,
    fleet: &'a [FleetDevice],
    jobs: &'a [TenantJob],
    rng: StdRng,
    queue: FairShareQueue,
    leases: LeaseLedger,
    events: EventQueue,
    drivers: Vec<Option<Box<Runner>>>,
    /// Per job, per shard: its pending batch, queued or leased (empty until
    /// admission and again after completion).
    pending: Vec<Vec<Pending>>,
    /// Decay epochs already applied to the fair-share balances.
    decay_epochs: u64,
    /// The closed calibration loop: realized-vs-projected completion errors
    /// per (tier, service class), and the learned margins they imply.
    margins: MarginModel,
    /// Per fleet device: a load view for the placement policy and the
    /// feasibility projections, reloaded by `refresh_views` per decision
    /// (one buffer for the run instead of a fresh fleet of views per
    /// arrival).
    views: Vec<CloudDevice>,
    /// Per fleet device: its quality tier (rank of its advertised fidelity
    /// among the fleet's distinct values, 0 = lowest) — one axis of the
    /// calibration key, and the set of devices a split tier fans out over.
    device_tier: Vec<usize>,
    /// Per job: the calibration key its admission used (None until
    /// admission, and for jobs rejected by the fidelity filter).
    margin_key: Vec<Option<MarginKey>>,
    status: Vec<Option<JobStatus>>,
    /// Per job: the priority it runs at, as submitted.
    effective_priority: Vec<u32>,
    /// Per job: outstanding fair-share credit granted for evicted-lease
    /// occupancy, charged back at completion so it cannot outlive the job.
    /// Decayed in lockstep with the queue balances (see `apply_decay`).
    eviction_credit: Vec<f64>,
    /// Per job: the outstanding priority credit granted at admission, also
    /// decayed in lockstep — charging back the undecayed grant would turn
    /// the decayed portion into phantom consumption against the tenant.
    priority_credit: Vec<f64>,
    /// Per job, indexed by restart: its provisional fine-tuning holds (empty
    /// for single-device jobs and after triage).
    holds: Vec<Vec<Hold>>,
    /// Per reservation id (ids are issued densely from 0): the owning job.
    owner: Vec<u32>,
    /// Per device, in the order they were pushed: the queued batch requests
    /// `(reservation, job)` that can ever outrank another request — those
    /// of a job with a positive priority or a deadline, both fixed at
    /// admission, so membership is decided at push time. Every other
    /// request has `Urgency { 0, false }` at all times, which
    /// [`Urgency::may_preempt`] nothing, so `urgent_override` reads only
    /// these instead of the device's whole queue. Entries leave in `grant`.
    urgent: Vec<BTreeMap<u64, (usize, usize)>>,
    next_push: u64,
    /// The flight recorder: stamps every decision with the virtual clock
    /// and a run-wide sequence number, forwards to the configured sink —
    /// and accounts the report: job and fleet telemetry, the calibration
    /// history and the trace summary are a fold of the emitted events,
    /// written nowhere else. A job's deadline and admission estimate are
    /// read back from it too.
    tracer: Tracer,
}

/// Ranks the fleet's devices into quality tiers: tier = rank of the
/// device's advertised fidelity among the fleet's distinct values (0 =
/// lowest). Twin devices share a tier, which is what lets their calibration
/// samples pool.
fn device_tiers(fleet: &[FleetDevice]) -> Vec<usize> {
    let mut distinct: Vec<f64> = fleet.iter().map(|d| d.advertised_fidelity()).collect();
    distinct.sort_by(|a, b| a.partial_cmp(b).expect("finite fidelities"));
    distinct.dedup();
    fleet
        .iter()
        .map(|d| {
            distinct
                .iter()
                .position(|f| *f == d.advertised_fidelity())
                .expect("every fidelity is in the distinct list")
        })
        .collect()
}

impl<'a> Sim<'a> {
    fn new(
        config: &'a OrchestratorConfig,
        fleet: &'a [FleetDevice],
        jobs: &'a [TenantJob],
    ) -> Self {
        let mut events = EventQueue::new();
        for (j, job) in jobs.iter().enumerate() {
            events.push(job.arrival, Event::Arrival(j));
        }
        let device_tier = device_tiers(fleet);
        let mut tracer = Tracer::new(config.trace.clone(), jobs.len());
        // Run preamble: the fleet's identity, so every trace consumer can
        // resolve device indices (and price device-seconds) from the
        // stream alone.
        for (i, device) in fleet.iter().enumerate() {
            tracer.emit(
                0.0,
                TraceEvent::DeviceDefined {
                    device: i,
                    name: device.name().to_owned(),
                    tier: device_tier[i],
                    speed: device.speed(),
                    cost_per_second: device.cost_per_second(),
                },
            );
        }
        Sim {
            config,
            fleet,
            jobs,
            rng: StdRng::seed_from_u64(PLACEMENT_SEED),
            queue: FairShareQueue::new(),
            leases: LeaseLedger::new(fleet.len()),
            events,
            drivers: jobs.iter().map(|_| None).collect(),
            pending: jobs.iter().map(|_| Vec::new()).collect(),
            decay_epochs: 0,
            margins: MarginModel::new(config.calibration),
            views: fleet
                .iter()
                .enumerate()
                .map(|(i, d)| CloudDevice::new(i, d.advertised_fidelity(), d.speed()))
                .collect(),
            device_tier,
            margin_key: jobs.iter().map(|_| None).collect(),
            status: jobs.iter().map(|_| None).collect(),
            effective_priority: jobs.iter().map(|job| job.priority).collect(),
            eviction_credit: jobs.iter().map(|_| 0.0).collect(),
            priority_credit: jobs.iter().map(|_| 0.0).collect(),
            holds: jobs.iter().map(|_| Vec::new()).collect(),
            owner: Vec::new(),
            urgent: vec![BTreeMap::new(); fleet.len()],
            next_push: 0,
            tracer,
        }
    }

    /// The event loop: one thread, one path. Events pop in `(time, seq)`
    /// order and every one — arrival or lease expiry — is handled to
    /// completion, batch compute included, before the next is popped.
    fn run_loop(&mut self) {
        let _prof = qoncord_prof::span("engine::run");
        while let Some((t, event)) = self.events.pop() {
            // A function of the clock alone, so a no-op for every event
            // after the first of an instant.
            self.apply_decay(t);
            match event {
                Event::Arrival(job) => self.admit(job, t),
                Event::LeaseDone { device, lease } => self.on_lease_done(device, lease, t),
            }
        }
    }

    /// Applies every decay epoch the virtual clock has crossed since the
    /// last applied one (this is the production-dispatch hook `decay_usage`
    /// was missing: past-heavy tenants now recover priority as virtual time
    /// passes, not only inside the fig12 queue simulator).
    fn apply_decay(&mut self, now: f64) {
        if !self.config.decay.is_enabled() {
            return;
        }
        let due = (now / self.config.decay.epoch_seconds).floor() as u64;
        if due > self.decay_epochs {
            let crossed = (due - self.decay_epochs).min(i32::MAX as u64) as i32;
            let factor = self.config.decay.factor.powi(crossed);
            self.queue
                .decay_usage(factor)
                .expect("factor validated at construction");
            // Outstanding job-scoped credits live inside the decayed
            // balances; their charge-backs must shrink identically, or the
            // decayed portion would be charged back as usage the tenant
            // never consumed.
            for credit in self
                .eviction_credit
                .iter_mut()
                .chain(self.priority_credit.iter_mut())
            {
                *credit *= factor;
            }
            self.decay_epochs = due;
            self.tracer.emit(
                now,
                TraceEvent::DecayEpoch {
                    crossed: crossed as u64,
                    factor,
                },
            );
        }
    }

    /// Reloads `views` with live loads: each fleet device's schedule carries
    /// its estimated backlog — the running lease's remainder plus, when
    /// `queued`, the device's queued batch work (the placement views), or
    /// the lease alone (the committed views of the decay-aware projection).
    fn refresh_views(&mut self, now: f64, queued: bool) {
        for (i, view) in self.views.iter_mut().enumerate() {
            view.clear_schedule();
            let remaining = self.leases.active(i).map_or(0.0, |l| l.remaining(now));
            let backlog = if queued {
                self.queue.device_backlog(i) + remaining
            } else {
                remaining
            };
            if backlog > 0.0 {
                view.schedule(now, backlog);
            }
        }
    }

    fn admit(&mut self, job: usize, now: f64) {
        let _prof = qoncord_prof::span("engine::admit");
        let jobs = self.jobs;
        let spec = &jobs[job];
        self.tracer.emit(
            now,
            TraceEvent::Arrival {
                job,
                id: spec.id,
                tenant: spec.tenant.clone(),
                priority: spec.priority,
            },
        );
        self.refresh_views(now, true);
        // The policy only steers device choice here; circuit counts are an
        // a-priori estimate of the job's footprint.
        let placements = place_job(
            self.config.policy,
            &self.views,
            circuit_estimate(&spec.config, spec.n_restarts).max(1),
            true,
            now,
            &mut self.rng,
        );
        let mut selected: Vec<SelectedDevice> = Vec::new();
        for p in &placements {
            if !selected.iter().any(|s| s.fleet_index == p.device) {
                selected.push(SelectedDevice {
                    fleet_index: p.device,
                    calibration: self.fleet[p.device].calibration(),
                    speed: self.fleet[p.device].speed(),
                });
            }
        }
        let built = split::build_runner(
            spec,
            &selected,
            self.fleet,
            &self.views,
            &self.device_tier,
            self.config.split.enabled,
            now,
        );
        let runner = match built {
            Err(rejected) => {
                self.tracer.emit(
                    now,
                    TraceEvent::FilterRejected {
                        job,
                        devices: rejected.len(),
                    },
                );
                self.status[job] = Some(JobStatus::Rejected { rejected });
                return;
            }
            Ok(runner) => runner,
        };
        self.tracer.emit(
            now,
            TraceEvent::ShardPlan {
                job,
                shards: runner.shard_count(),
                devices: runner.shard_devices(),
            },
        );

        // Deadline-aware admission: project the job's completion from the
        // fleet load its placements see, then let the controller decide.
        // Placements on devices the fidelity filter rejected from the
        // ladder carry no per-circuit price; their work actually lands on
        // the ladder's entry rung, so reprice them there rather than at
        // zero (which would let unkeepable SLAs through).
        let secs = runner.seconds_per_execution_by_fleet(self.fleet.len());
        let ladder_entry = runner.entry_device();
        let priced: Vec<Placement> = placements
            .iter()
            .map(|p| {
                if secs[p.device] > 0.0 {
                    *p
                } else {
                    Placement {
                        device: ladder_entry,
                        ..*p
                    }
                }
            })
            .collect();
        let assess_prof = qoncord_prof::span("engine::assess");
        let estimate = if self.config.admission.decay_aware {
            // Shard 0's pending batch is the job's first, on the entry rung.
            let first_batch = runner.estimated_next_seconds(0);
            self.estimate_decay_aware(job, &priced, &secs, first_batch, now)
        } else {
            estimate_feasibility(&priced, &self.views, &secs, now)
        };
        let key = MarginKey {
            tier: self.device_tier[ladder_entry],
            class: ServiceClass::of(spec.deadline),
        };
        self.margin_key[job] = Some(key);
        let margin = match self.config.admission.mode {
            AdmissionMode::Calibrated => self.margins.margin_for(key),
            _ => 0.0,
        };
        let outcome = AdmissionController::new(self.config.admission).assess_with_margin(
            now,
            spec.deadline,
            estimate,
            margin,
        );
        drop(assess_prof);
        self.tracer.emit(
            now,
            TraceEvent::AdmissionVerdict {
                job,
                decision: outcome.decision,
                estimate,
                margin: spec.deadline.is_some().then_some(margin),
                deadline: outcome.deadline,
                assessed_deadline: outcome.assessed_deadline,
            },
        );
        if outcome.decision == AdmissionDecision::Reject {
            let snapshot = self.margins.record_denial(now, key);
            self.tracer
                .emit(now, TraceEvent::CalibrationUpdate { job, snapshot });
            self.status[job] = Some(JobStatus::Denied {
                estimate,
                deadline: outcome
                    .assessed_deadline
                    .expect("only deadline jobs are denied"),
            });
            return;
        }

        let priority = self.effective_priority[job];
        if priority > 0 {
            // Priorities enter fair-share as usage credit scoped to the
            // job's lifetime: granted on admission, charged back at
            // completion so it cannot leak onto later jobs.
            let credit = priority as f64 * PRIORITY_CREDIT;
            self.queue
                .credit_usage(&spec.tenant, credit)
                .expect("priority credit is finite and non-negative");
            self.priority_credit[job] = credit;
            self.tracer
                .emit(now, TraceEvent::PriorityCredit { job, credit });
        }
        if runner.is_multi_device() {
            // Hold a provisional fine-tuning reservation per restart,
            // dealt across the fine-tuning shards the way triage will deal
            // the survivors; triage converts survivors and releases the
            // rest.
            let targets = runner.finetune_hold_targets();
            self.holds[job].reserve_exact(spec.n_restarts);
            for restart in 0..spec.n_restarts {
                let (hold_device, hold_seconds) = targets[restart % targets.len()];
                let id = self.next_id(job);
                self.queue
                    .push_hold(
                        QueuedRequest {
                            id,
                            user: spec.tenant.clone(),
                            requested_seconds: hold_seconds,
                            submitted_at: now,
                        },
                        hold_device,
                    )
                    .expect("reservation ids are unique and hold estimates finite");
                self.holds[job].push(Hold {
                    id,
                    device: hold_device,
                    seconds: hold_seconds,
                });
                self.tracer.emit(
                    now,
                    TraceEvent::HoldPush {
                        reservation: id,
                        job,
                        restart,
                        device: hold_device,
                        seconds: hold_seconds,
                    },
                );
            }
        }
        self.pending[job] = (0..runner.shard_count()).map(|_| Pending::Idle).collect();
        self.drivers[job] = Some(runner);
        self.enqueue_ready_batches(job, now);
    }

    /// Issues the next reservation id, owned by `job`.
    fn next_id(&mut self, job: usize) -> usize {
        let id = self.owner.len();
        let job = u32::try_from(job).expect("job indices fit the owner table");
        self.owner.push(job);
        id
    }

    /// Decay-aware feasibility of an arriving job: committed lease backlog
    /// plus only the queued (ungranted) work the job is projected to rank
    /// *behind* under fair-share dispatch — with balances aged by the decay
    /// epochs projected to pass before its start — instead of every
    /// device's whole backlog. Reloads `views` with the committed loads.
    fn estimate_decay_aware(
        &mut self,
        job: usize,
        priced: &[Placement],
        secs: &[f64],
        first_batch: f64,
        now: f64,
    ) -> qoncord_cloud::policy::FeasibilityEstimate {
        self.refresh_views(now, false);
        let probe = QueuedRequest {
            id: usize::MAX,
            user: self.jobs[job].tenant.clone(),
            requested_seconds: first_batch,
            submitted_at: now,
        };
        // If the job is admitted, its priority enters fair-share as usage
        // credit *after* this estimate — rank the probe with that credit
        // already applied (virtually, via the probe-credit input: no queue
        // clone), or the projection would charge a priority job for queued
        // work its credited requests will in fact outrank. The queue's own
        // device tags supply the request-to-device mapping the old path
        // rebuilt from the reservation and hold tables per decision.
        let credit = self.jobs[job].priority as f64 * PRIORITY_CREDIT;
        estimate_feasibility_decayed(
            priced,
            &self.views,
            secs,
            now,
            QueueModel {
                queue: &self.queue,
                probe: &probe,
                probe_credit: credit,
                decay: self.config.decay,
            },
        )
    }

    /// Queues a batch request for every shard of `job` that has pending
    /// work and nothing in flight, offering each target device a dispatch
    /// opportunity — by eviction if the request is urgent enough. Unsplit
    /// jobs have one shard; split jobs enqueue one request per active
    /// shard, which is what turns one job into several concurrently
    /// schedulable sub-leases.
    fn enqueue_ready_batches(&mut self, job: usize, now: f64) {
        let _prof = qoncord_prof::span("engine::enqueue");
        let shards = self.drivers[job]
            .as_ref()
            .expect("active runner")
            .shard_count();
        // Nothing below advances the runner (compute waits for lease
        // expiry), so each shard's readiness reads the same inside the loop
        // as before it.
        for shard in 0..shards {
            let runner = self.drivers[job].as_ref().expect("active runner");
            if !runner.shard_ready(shard) || !matches!(self.pending[job][shard], Pending::Idle) {
                continue;
            }
            let device = runner.shard_device(shard);
            let seconds = runner.estimated_next_seconds(shard);
            let id = self.next_id(job);
            self.pending[job][shard] = Pending::Queued(QueuedBatch {
                id,
                device,
                seconds,
                resume: None,
                urgent_order: None,
            });
            self.queue
                .push_for_device(
                    QueuedRequest {
                        id,
                        user: self.jobs[job].tenant.clone(),
                        requested_seconds: seconds,
                        submitted_at: now,
                    },
                    device,
                )
                .expect("reservation ids are unique and batch estimates finite");
            self.index_urgent(job, id);
            self.tracer.emit(
                now,
                TraceEvent::QueuePush {
                    reservation: id,
                    job,
                    shard,
                    device,
                    seconds,
                    requeued: false,
                },
            );
            self.try_dispatch(device, now);
            if self.leases.active(device).is_some() {
                self.try_preempt(device, job, id, now);
            }
        }
    }

    /// Grants the device its best queued batch, if it is idle: the
    /// fair-share winner, unless preemption is enabled and a queued request
    /// outranks it per [`Urgency::may_preempt`] — granting the winner only
    /// for the urgent request to evict it in the same instant would be pure
    /// churn, and a queued urgent request must never wait out a lease it is
    /// entitled to evict.
    fn try_dispatch(&mut self, device: usize, now: f64) {
        let _prof = qoncord_prof::span("engine::dispatch");
        if self.leases.active(device).is_some() {
            return;
        }
        // The device's ready index holds batch reservations on it and
        // nothing else (holds live in a separate lane), so this is one
        // first-entry read, and what it returns can be granted as is.
        let Some(winner) = self.queue.pop_for_device(device) else {
            return;
        };
        let request = self.urgent_override(device, winner, now);
        self.grant(request, now);
    }

    /// Enters the just-pushed batch request `id` of `job` at the back of
    /// its device's urgent index, if the job can ever outrank anyone. A
    /// request pushed a second time (an overridden winner) gives up its old
    /// place: the queue re-sequenced it to the back as well.
    fn index_urgent(&mut self, job: usize, id: usize) {
        if !self.can_outrank(job) {
            return;
        }
        let shard = self
            .queued_shard(job, id)
            .expect("pushed requests are queued batch reservations");
        let Pending::Queued(batch) = &mut self.pending[job][shard] else {
            unreachable!("queued_shard found a queued batch");
        };
        let index = &mut self.urgent[batch.device];
        if let Some(stale) = batch.urgent_order.replace(self.next_push) {
            index.remove(&stale);
        }
        index.insert(self.next_push, (id, job));
        self.next_push += 1;
    }

    /// Whether `job`'s urgency can ever differ from `Urgency { 0, false }`,
    /// which preempts nothing. Both inputs are fixed by the end of `admit`.
    fn can_outrank(&self, job: usize) -> bool {
        self.effective_priority[job] > 0 || self.tracer.job(job).deadline.is_some()
    }

    /// The job that owns reservation `id`.
    fn owner(&self, id: usize) -> usize {
        self.owner[id] as usize
    }

    /// The shard of `job` whose queued batch request is reservation `id`,
    /// `None` when `id` is not one (a hold, or a granted request).
    fn queued_shard(&self, job: usize, id: usize) -> Option<usize> {
        self.pending[job]
            .iter()
            .position(|p| matches!(p, Pending::Queued(batch) if batch.id == id))
    }

    /// Every queued batch request on `device` as `(reservation, job)`, in
    /// push order, found the slow way — a walk of the whole queue. What
    /// `urgent_override` read before the urgent index; retained as its
    /// debug-build oracle.
    fn queued_batches_on(&self, device: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.queue.pending().filter_map(move |request| {
            let job = self.owner(request.id);
            let shard = self.queued_shard(job, request.id)?;
            let Pending::Queued(batch) = &self.pending[job][shard] else {
                unreachable!("queued_shard found a queued batch");
            };
            (batch.device == device).then_some((request.id, job))
        })
    }

    /// The request among `candidates` — `(reservation, job)` in push order —
    /// that may preempt the popped `winner` and that no other candidate may
    /// preempt in turn; the earliest of equally urgent ones.
    fn most_urgent(
        &self,
        winner: &QueuedRequest,
        candidates: impl Iterator<Item = (usize, usize)>,
        now: f64,
    ) -> Option<usize> {
        let winner_urgency = self.urgency(self.owner(winner.id), now);
        let mut pick: Option<(usize, Urgency)> = None;
        for (id, job) in candidates {
            // The popped winner is still indexed; it is not queued.
            if id == winner.id {
                continue;
            }
            let urgency = self.urgency(job, now);
            if !urgency.may_preempt(&winner_urgency) {
                continue;
            }
            if pick
                .as_ref()
                .is_none_or(|(_, best)| urgency.may_preempt(best))
            {
                pick = Some((id, urgency));
            }
        }
        pick.map(|(id, _)| id)
    }

    /// The most urgent queued batch request for `device` that may preempt
    /// the fair-share `winner`, or the winner itself when none outranks it
    /// (earliest queue position wins among equally urgent challengers).
    /// Only requests in the device's urgent index can, so an empty index
    /// settles it without looking at the queue.
    fn urgent_override(&mut self, device: usize, winner: QueuedRequest, now: f64) -> QueuedRequest {
        let _prof = qoncord_prof::span("engine::override");
        if !self.config.preemption.enabled {
            return winner;
        }
        let index = &self.urgent[device];
        let pick = if index.is_empty() {
            None
        } else {
            self.most_urgent(&winner, index.values().copied(), now)
        };
        debug_assert!(
            index
                .values()
                .copied()
                .filter(|&(id, _)| id != winner.id)
                .eq(self
                    .queued_batches_on(device)
                    .filter(|&(_, job)| self.can_outrank(job))),
            "device {device}'s urgent index is not its queue's urgent requests in push order"
        );
        debug_assert_eq!(
            pick,
            self.most_urgent(&winner, self.queued_batches_on(device), now),
            "urgent index and queue scan disagree on device {device}'s override"
        );
        let Some(id) = pick else {
            return winner;
        };
        let winner_id = winner.id;
        self.queue
            .push_for_device(winner, device)
            .expect("the popped winner re-enqueues cleanly");
        self.index_urgent(self.owner(winner_id), winner_id);
        self.queue
            .pop_by_id(id)
            .expect("override candidate is queued")
    }

    /// Converts a popped batch request into a device lease. The batch's real
    /// compute is deferred to the lease's expiry, which is what makes the
    /// lease preemptible: until it expires, evicting it loses no training
    /// progress.
    fn grant(&mut self, request: QueuedRequest, now: f64) {
        let _prof = qoncord_prof::span("engine::grant");
        let job = self.owner(request.id);
        let shard = self
            .queued_shard(job, request.id)
            .expect("granted requests are queued batch reservations");
        let Pending::Queued(QueuedBatch {
            device,
            seconds,
            resume,
            urgent_order,
            ..
        }) = std::mem::replace(&mut self.pending[job][shard], Pending::Leased)
        else {
            unreachable!("queued_shard found a queued batch");
        };
        if let Some(order) = urgent_order {
            self.urgent[device].remove(&order);
        }
        debug_assert!(
            self.urgent
                .iter()
                .all(|index| index.values().all(|&(id, _)| id != request.id)),
            "granted request {} is still in an urgent index",
            request.id
        );
        if let Some(expected) = resume {
            // An evicted batch must resume from exactly the optimizer state
            // its recalled sub-lease left, on the same shard and restart —
            // the losslessness contract.
            let checkpoint = self.drivers[job]
                .as_ref()
                .expect("granted job is active")
                .shard_checkpoint(shard);
            debug_assert!(
                *expected == checkpoint,
                "evicted shard resumed from a different state than its lease checkpoint"
            );
        }
        let lease = self.leases.grant(
            LeaseTerms {
                job,
                device,
                shard,
                seconds,
            },
            now,
        );
        let (end, id) = (lease.expires_at, lease.id);
        self.tracer.emit(
            now,
            TraceEvent::LeaseGrant {
                lease: id,
                reservation: request.id,
                job,
                shard,
                device,
                seconds,
                expires_at: end,
            },
        );
        self.events
            .push(end, Event::LeaseDone { device, lease: id });
    }

    /// How pressing `job`'s claim on a device is right now.
    fn urgency(&self, job: usize, now: f64) -> Urgency {
        let telemetry = self.tracer.job(job);
        // A job carries a deadline only past an admission verdict, which
        // also recorded the service estimate imminence is judged by.
        let deadline_imminent = match (telemetry.deadline, telemetry.admission_estimate) {
            (Some(deadline), Some(estimate)) => {
                let remaining = (estimate.service_seconds - telemetry.busy_seconds()).max(0.0);
                now + remaining >= deadline
            }
            _ => false,
        };
        Urgency {
            priority: self.effective_priority[job],
            deadline_imminent,
        }
    }

    /// Evicts the running lease on `device` for `challenger`'s queued batch
    /// request `reservation` if the challenger outranks the leaseholder —
    /// preemption overrides fair-share, so the challenger is granted the
    /// device directly.
    fn try_preempt(&mut self, device: usize, challenger: usize, reservation: usize, now: f64) {
        if !self.config.preemption.enabled {
            return;
        }
        let Some(holder) = self.leases.active(device) else {
            return;
        };
        // A lease at its expiry boundary is about to complete on its own;
        // recalling it would waste the whole batch for nothing.
        if holder.remaining(now) <= 0.0 {
            return;
        }
        let holder_job = holder.job;
        if !self
            .urgency(challenger, now)
            .may_preempt(&self.urgency(holder_job, now))
        {
            return;
        }
        if self.tracer.job(holder_job).evictions >= EVICTION_CAP as usize {
            return;
        }
        self.evict(device, now);
        let request = self
            .queue
            .pop_by_id(reservation)
            .expect("challenger's batch request is queued");
        self.grant(request, now);
    }

    /// Recalls the running lease on `device`: the burned occupancy is
    /// accounted as wasted work, and the victim's batch re-enters the
    /// fair-share queue with usage credit for it. The victim's driver was
    /// never advanced (compute is deferred), so the checkpoint taken here is
    /// the state the lease was granted in, and the victim resumes from it
    /// bit-identically.
    fn evict(&mut self, device: usize, now: f64) {
        let evicted = self.leases.evict(device, now);
        let victim = evicted.lease.job;
        let shard = evicted.lease.shard;
        let checkpoint = self.drivers[victim]
            .as_ref()
            .expect("evicted job is active")
            .shard_checkpoint(shard);
        self.eviction_credit[victim] += evicted.burned_seconds;
        self.tracer.emit(
            now,
            TraceEvent::Eviction {
                lease: evicted.lease.id,
                job: victim,
                shard,
                device,
                burned_seconds: evicted.burned_seconds,
                credit: evicted.burned_seconds,
            },
        );
        let id = self.next_id(victim);
        self.pending[victim][shard] = Pending::Queued(QueuedBatch {
            id,
            device,
            seconds: evicted.lease.seconds,
            resume: Some(Box::new(checkpoint)),
            urgent_order: None,
        });
        self.queue
            .requeue_with_credit_for_device(
                QueuedRequest {
                    id,
                    user: self.jobs[victim].tenant.clone(),
                    requested_seconds: evicted.lease.seconds,
                    submitted_at: now,
                },
                device,
                evicted.burned_seconds,
            )
            .expect("burned occupancy is finite and non-negative");
        self.index_urgent(victim, id);
        self.tracer.emit(
            now,
            TraceEvent::QueuePush {
                reservation: id,
                job: victim,
                shard,
                device,
                seconds: evicted.lease.seconds,
                requeued: true,
            },
        );
    }

    /// Lease-completion bookkeeping, and the batch's deferred compute.
    fn on_lease_done(&mut self, device: usize, lease: u64, now: f64) {
        let _prof = qoncord_prof::span("engine::lease_done");
        // Expiry of an evicted lease: the device moved on, nothing to do.
        let Some(lease) = self.leases.complete(device, lease) else {
            self.tracer
                .emit(now, TraceEvent::StaleExpiry { lease, device });
            return;
        };
        let job = lease.job;
        let shard = lease.shard;
        self.pending[job][shard] = Pending::Idle;
        // The batch's real compute runs now, at its virtual completion.
        let result = self.drivers[job]
            .as_mut()
            .expect("granted job is active")
            .execute_batch(shard);
        debug_assert_eq!(result.fleet_index, device, "driver/queue device mismatch");
        debug_assert!(
            (result.duration - lease.seconds).abs() < 1e-9,
            "estimated and actual batch durations must agree"
        );
        self.tracer.emit(
            now,
            TraceEvent::LeaseComplete {
                lease: lease.id,
                job,
                shard,
                device,
                granted_at: lease.granted_at,
                seconds: result.duration,
                executions: result.executions,
                finished: result.finished,
            },
        );
        self.queue
            .record_usage(&self.jobs[job].tenant, result.duration)
            .expect("batch durations are finite and non-negative");

        if let Some(pruned) = &result.pruned {
            self.resolve_holds(job, pruned, now);
        }
        if result.finished {
            debug_assert!(
                self.pending[job].iter().all(|p| matches!(p, Pending::Idle)),
                "a finished job has no shard in flight"
            );
            self.pending[job] = Vec::new();
            // Close the calibration loop: the realized completion against
            // the admission-time projection is one estimate-error sample
            // for the job's (tier, class) key — an SLA miss arrives here as
            // a large positive error.
            if let (Some(key), Some(estimate)) = (
                self.margin_key[job],
                self.tracer.job(job).admission_estimate,
            ) {
                let snapshot = self
                    .margins
                    .record_completion(now, key, estimate.completion, now);
                self.tracer
                    .emit(now, TraceEvent::CalibrationUpdate { job, snapshot });
            }
            let spec = &self.jobs[job];
            if self.priority_credit[job] > 0.0 {
                // Expire the job-scoped priority credit granted at
                // admission — what remains of it after decay.
                self.queue
                    .record_usage(&spec.tenant, self.priority_credit[job])
                    .expect("priority credit is finite and non-negative");
                self.priority_credit[job] = 0.0;
            }
            if self.eviction_credit[job] > 0.0 {
                // Expire the eviction compensation the same way: it boosts
                // the victim while it is still being delayed, but must not
                // discount the tenant's later jobs.
                self.queue
                    .record_usage(&spec.tenant, self.eviction_credit[job])
                    .expect("burned seconds are finite and non-negative");
                self.eviction_credit[job] = 0.0;
            }
            let report = self.drivers[job]
                .take()
                .expect("finished job had a driver")
                .into_report();
            self.status[job] = Some(JobStatus::Completed { report });
            self.tracer.emit(now, TraceEvent::JobComplete { job });
        } else {
            self.enqueue_ready_batches(job, now);
        }
        self.try_dispatch(device, now);
    }

    /// Resolves every provisional hold of `job` at triage: holds of pruned
    /// restarts are released back to the fleet (and counted); holds of
    /// survivors are converted into the real batch requests that follow.
    /// Holds resolve in restart order, the order they are stored in.
    fn resolve_holds(&mut self, job: usize, pruned: &[usize], now: f64) {
        let holds = std::mem::take(&mut self.holds[job]);
        for (
            restart,
            Hold {
                id,
                device,
                seconds,
            },
        ) in holds.into_iter().enumerate()
        {
            let cancelled = self.queue.cancel_by_id(id);
            debug_assert!(cancelled.is_some(), "hold was queued exactly once");
            self.tracer.emit(
                now,
                TraceEvent::HoldRelease {
                    reservation: id,
                    job,
                    restart,
                    device,
                    seconds,
                    pruned: pruned.contains(&restart),
                },
            );
        }
    }

    /// The fold and the job statuses. The queue, the drivers and every
    /// other per-run table drop on return, so report assembly does not
    /// stack on them.
    fn into_fold(self) -> (Tracer, Vec<Option<JobStatus>>) {
        (self.tracer, self.status)
    }

    fn into_report(self) -> OrchestratorReport {
        let mut tenant_usage: Vec<TenantUsage> = self
            .queue
            .balances()
            .map(|(tenant, usage)| TenantUsage {
                tenant: tenant.to_owned(),
                consumed_seconds: usage.consumed_seconds,
            })
            .collect();
        tenant_usage.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let queue_ops = self.queue.stats();
        let (tracer, status) = self.into_fold();
        let accounted = tracer.finish();
        debug_assert_eq!(
            accounted.orphaned, 0,
            "the engine declares every job and device before naming it"
        );
        assert_eq!(
            accounted.jobs.len(),
            status.len(),
            "every job is admitted and resolved"
        );
        let jobs = accounted
            .jobs
            .into_iter()
            .zip(status)
            .map(|(job, status)| JobRecord {
                id: job.id,
                tenant: job.tenant,
                priority: job.priority,
                status: status.expect("every job is admitted and resolved"),
                telemetry: job.telemetry,
            })
            .collect();
        OrchestratorReport {
            jobs,
            fleet: accounted.fleet,
            tenant_usage,
            queue_ops,
            calibration: accounted.calibration,
            trace: accounted.trace,
            // Snapshot of whatever profiler the caller installed on this
            // thread; empty (and free) on unprofiled runs.
            perf: qoncord_prof::current_report(),
        }
    }
}
