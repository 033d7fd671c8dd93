//! The cloud scheduling policies of Sec. V-A: Least Busy, Load Weighted,
//! Fidelity Weighted, Best Fidelity, EQC (ensemble/asynchronous execution),
//! and Qoncord (phase splitting) — plus the feasibility cost models
//! admission control projects job completions with, including the
//! decay-aware variant ([`estimate_feasibility_decayed`]) that ranks
//! queued work by projected fair-share dispatch order under virtual-time
//! usage decay.

use crate::device::CloudDevice;
use crate::fairshare::{FairShareQueue, QueuedRequest};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// A cloud scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Always the least-loaded device (throughput-first).
    LeastBusy,
    /// Random, weighted toward less-loaded devices.
    LoadWeighted,
    /// Random, weighted toward higher-fidelity devices (the organic user
    /// access pattern).
    FidelityWeighted,
    /// Always one of the highest-fidelity devices (quality-first).
    BestFidelity,
    /// EQC-style ensemble execution: least-busy placement but 2× circuit
    /// executions for VQA jobs, with quality limited by the fidelity
    /// *average* of the ensemble.
    Eqc,
    /// Qoncord: exploration circuits on a low-fidelity low-load device,
    /// fine-tuning circuits on a high-fidelity device; early termination
    /// trims the exploration tail.
    Qoncord,
}

impl Policy {
    /// All six policies, in the paper's presentation order.
    pub fn all() -> [Policy; 6] {
        [
            Policy::LeastBusy,
            Policy::LoadWeighted,
            Policy::FidelityWeighted,
            Policy::BestFidelity,
            Policy::Eqc,
            Policy::Qoncord,
        ]
    }

    /// Display label matching the paper.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::LeastBusy => "Least Busy",
            Policy::LoadWeighted => "Load Weighted",
            Policy::FidelityWeighted => "Fidelity Weighted",
            Policy::BestFidelity => "Best Fidelity",
            Policy::Eqc => "EQC",
            Policy::Qoncord => "Qoncord",
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Fraction of a VQA job's circuits Qoncord runs as exploration on the
/// low-fidelity device (Fig. 14 measures ≈ 70 % of executions on the LF
/// device).
const QONCORD_EXPLORATION_FRACTION: f64 = 0.7;

/// Fraction of exploration circuits Qoncord's restart triage eliminates
/// (Fig. 13: 31 of 50 restarts are cut after exploration, trimming their
/// fine-tuning work; net execution savings land near 15 %).
const QONCORD_TERMINATION_SAVINGS: f64 = 0.15;

/// Quality mixing for Qoncord jobs: solution quality tracks the fine-tuning
/// device (the paper's central claim), with a small exploration residue.
const QONCORD_FINETUNE_WEIGHT: f64 = 0.92;

/// EQC's circuit-execution multiplier (the paper: "twice the number of
/// tasks... the minimum overhead for a 1-layer QAOA").
const EQC_CIRCUIT_MULTIPLIER: f64 = 2.0;

/// One placement decision: a device, the circuits to run there, and the
/// fidelity weight those circuits contribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Target device index.
    pub device: usize,
    /// Circuit executions to run there.
    pub circuits: u64,
    /// Weight of this placement in the job's effective fidelity.
    pub quality_weight: f64,
}

/// Chooses placements for a job's `total_circuits` under `policy`.
///
/// `now` is the decision time (loads are evaluated at `now`). For split
/// policies (Qoncord) multiple placements are returned; their circuit counts
/// need not sum to `total_circuits` (EQC doubles, Qoncord trims).
///
/// # Panics
///
/// Panics if `devices` is empty.
pub fn place_job(
    policy: Policy,
    devices: &[CloudDevice],
    total_circuits: u64,
    is_vqa: bool,
    now: f64,
    rng: &mut StdRng,
) -> Vec<Placement> {
    assert!(!devices.is_empty(), "no devices available");
    match policy {
        Policy::LeastBusy => vec![Placement {
            device: least_busy(devices, now),
            circuits: total_circuits,
            quality_weight: 1.0,
        }],
        Policy::BestFidelity => {
            let best = devices
                .iter()
                .enumerate()
                .max_by(|a, b| {
                    a.1.fidelity()
                        .partial_cmp(&b.1.fidelity())
                        .expect("finite fidelity")
                })
                .map(|(i, _)| i)
                .expect("non-empty");
            vec![Placement {
                device: best,
                circuits: total_circuits,
                quality_weight: 1.0,
            }]
        }
        Policy::LoadWeighted => {
            let weights: Vec<f64> = devices
                .iter()
                .map(|d| 1.0 / (1.0 + d.load_after(now)))
                .collect();
            vec![Placement {
                device: weighted_choice(&weights, rng),
                circuits: total_circuits,
                quality_weight: 1.0,
            }]
        }
        Policy::FidelityWeighted => {
            // Quadratic weighting mirrors users' strong preference for the
            // best machines.
            let weights: Vec<f64> = devices.iter().map(|d| d.fidelity().powi(2)).collect();
            vec![Placement {
                device: weighted_choice(&weights, rng),
                circuits: total_circuits,
                quality_weight: 1.0,
            }]
        }
        Policy::Eqc => {
            if !is_vqa {
                return vec![Placement {
                    device: least_busy(devices, now),
                    circuits: total_circuits,
                    quality_weight: 1.0,
                }];
            }
            // Ensemble over the two least-busy devices, 2× total circuits,
            // quality limited by the ensemble average.
            let first = least_busy(devices, now);
            let second = least_busy_excluding(devices, now, first);
            let doubled = (total_circuits as f64 * EQC_CIRCUIT_MULTIPLIER).round() as u64;
            let half = doubled / 2;
            vec![
                Placement {
                    device: first,
                    circuits: half,
                    quality_weight: 0.5,
                },
                Placement {
                    device: second,
                    circuits: doubled - half,
                    quality_weight: 0.5,
                },
            ]
        }
        Policy::Qoncord => {
            if !is_vqa {
                return vec![Placement {
                    device: least_busy(devices, now),
                    circuits: total_circuits,
                    quality_weight: 1.0,
                }];
            }
            // Exploration: least-busy device in the lower fidelity half.
            // Fine-tune: least-busy device within 5 % of the fleet's best
            // fidelity (the paper's "the high-fidelity device").
            let median = median_fidelity(devices);
            let explore_dev = least_busy_among(devices, now, |d| d.fidelity() <= median)
                .unwrap_or_else(|| least_busy(devices, now));
            let max_fidelity = devices.iter().map(|d| d.fidelity()).fold(0.0_f64, f64::max);
            let finetune_dev =
                least_busy_among(devices, now, |d| d.fidelity() >= 0.95 * max_fidelity)
                    .unwrap_or_else(|| least_busy(devices, now));
            let kept = 1.0 - QONCORD_TERMINATION_SAVINGS;
            let total_after_triage = total_circuits as f64 * kept;
            let explore = (total_after_triage * QONCORD_EXPLORATION_FRACTION).round() as u64;
            let finetune = (total_after_triage as u64).saturating_sub(explore).max(1);
            vec![
                Placement {
                    device: explore_dev,
                    circuits: explore,
                    quality_weight: 1.0 - QONCORD_FINETUNE_WEIGHT,
                },
                Placement {
                    device: finetune_dev,
                    circuits: finetune,
                    quality_weight: QONCORD_FINETUNE_WEIGHT,
                },
            ]
        }
    }
}

/// Projected timing of a job's placements over live device loads: when its
/// first placement could start, how much device time the job needs in total,
/// and when its last placement would finish.
///
/// This is the cost model deadline-aware admission control runs before
/// accepting a job: compare [`completion`](FeasibilityEstimate::completion)
/// (plus any safety margin) against the job's deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeasibilityEstimate {
    /// Seconds between the decision time and the projected first start.
    pub queue_seconds: f64,
    /// Total device-seconds of service across all placements.
    pub service_seconds: f64,
    /// Projected completion time (absolute, same clock as `now`).
    pub completion: f64,
}

impl FeasibilityEstimate {
    /// Whether the projected completion (inflated by `margin` seconds of
    /// safety) lands at or before `deadline`.
    ///
    /// A *negative* margin deliberately loosens the check — a calibrated
    /// admission controller uses one when realized completions run
    /// systematically earlier than projections. A non-finite projected
    /// completion (`NaN` or `∞`) never meets any deadline: the comparison
    /// is `false` for every `NaN` operand, so a corrupted projection fails
    /// closed as infeasible rather than admitting on garbage.
    ///
    /// # Examples
    ///
    /// ```
    /// use qoncord_cloud::policy::FeasibilityEstimate;
    ///
    /// let est = FeasibilityEstimate {
    ///     queue_seconds: 4.0,
    ///     service_seconds: 16.0,
    ///     completion: 20.0,
    /// };
    /// assert!(est.meets(25.0, 0.0));
    /// assert!(!est.meets(25.0, 10.0), "margin tightens the check");
    /// assert!(est.meets(18.0, -5.0), "negative margin loosens it");
    /// let bad = FeasibilityEstimate { completion: f64::NAN, ..est };
    /// assert!(!bad.meets(f64::INFINITY, 0.0), "NaN fails closed");
    /// ```
    pub fn meets(&self, deadline: f64, margin: f64) -> bool {
        self.completion.is_finite() && self.completion + margin <= deadline
    }
}

/// Projects when a job placed as `placements` would complete, given each
/// device's committed backlog and per-circuit execution time.
///
/// Placements are assumed to run in order (Qoncord's exploration block
/// precedes its fine-tuning block): each starts once its device's backlog
/// has drained *and* the previous placement has finished.
///
/// # Panics
///
/// Panics if a placement's device index has no entry in `devices` /
/// `seconds_per_circuit`.
pub fn estimate_feasibility(
    placements: &[Placement],
    devices: &[CloudDevice],
    seconds_per_circuit: &[f64],
    now: f64,
) -> FeasibilityEstimate {
    let extra = vec![0.0; devices.len()];
    project_placements(placements, devices, seconds_per_circuit, now, &extra)
}

/// The shared projection walk: placements run in order, each starting once
/// its device's backlog (`load_after` plus `extra_delay` seconds of
/// additional queued work) has drained *and* the previous placement has
/// finished.
fn project_placements(
    placements: &[Placement],
    devices: &[CloudDevice],
    seconds_per_circuit: &[f64],
    now: f64,
    extra_delay: &[f64],
) -> FeasibilityEstimate {
    assert_eq!(
        devices.len(),
        seconds_per_circuit.len(),
        "one per-circuit time per device"
    );
    assert_eq!(
        devices.len(),
        extra_delay.len(),
        "one extra-delay entry per device"
    );
    let mut previous_finish = now;
    let mut first_start = None;
    let mut service_seconds = 0.0;
    for p in placements {
        let backlog_clear = now + devices[p.device].load_after(now) + extra_delay[p.device];
        let start = backlog_clear.max(previous_finish);
        first_start.get_or_insert(start);
        let run = p.circuits as f64 * seconds_per_circuit[p.device];
        service_seconds += run;
        previous_finish = start + run;
    }
    FeasibilityEstimate {
        queue_seconds: first_start.unwrap_or(now) - now,
        service_seconds,
        completion: previous_finish,
    }
}

/// Virtual-time usage-decay parameters, mirrored from the dispatcher that
/// ages fair-share balances: every `epoch_seconds` of the virtual clock,
/// every tenant's consumed-seconds balance is multiplied by `factor`.
///
/// Feasibility projections need the same model the dispatcher runs,
/// because decay between now and a job's projected start changes which
/// queued requests outrank it (a past-heavy tenant recovers priority while
/// the new job waits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageDecayModel {
    /// Virtual seconds between decay epochs (`f64::INFINITY` disables).
    pub epoch_seconds: f64,
    /// Multiplier applied to every balance at each epoch, in `[0, 1]`.
    pub factor: f64,
}

impl UsageDecayModel {
    /// No decay: balances never age (the identity model).
    pub fn none() -> Self {
        UsageDecayModel {
            epoch_seconds: f64::INFINITY,
            factor: 1.0,
        }
    }

    /// Decay by `factor` every `epoch_seconds` of virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_seconds` is not positive or `factor` lies outside
    /// `[0, 1]`.
    pub fn every(epoch_seconds: f64, factor: f64) -> Self {
        assert!(epoch_seconds > 0.0, "decay epoch must be positive");
        assert!(
            factor.is_finite() && (0.0..=1.0).contains(&factor),
            "decay factor must lie in [0, 1]"
        );
        UsageDecayModel {
            epoch_seconds,
            factor,
        }
    }

    /// Epoch boundaries crossed between virtual times `from` and `until`
    /// (absolute boundaries at multiples of the epoch length, matching a
    /// dispatcher that decays whenever `floor(now / epoch)` advances).
    fn epochs_between(&self, from: f64, until: f64) -> u32 {
        if !self.epoch_seconds.is_finite() || until <= from {
            return 0;
        }
        let crossed = (until / self.epoch_seconds).floor() - (from / self.epoch_seconds).floor();
        crossed.max(0.0).min(u32::MAX as f64) as u32
    }

    /// The compound decay factor applied to a balance between `from` and
    /// `until` (1.0 when no epoch boundary is crossed). Epoch counts beyond
    /// `i32::MAX` saturate (the factor is already ~0 long before that).
    fn factor_between(&self, from: f64, until: f64) -> f64 {
        self.factor
            .powi(self.epochs_between(from, until).min(i32::MAX as u32) as i32)
    }

    /// Whether any epoch will ever change a balance.
    pub fn is_enabled(&self) -> bool {
        self.epoch_seconds.is_finite() && self.factor < 1.0
    }
}

/// Decay disabled: the identity model ([`UsageDecayModel::none`]).
impl Default for UsageDecayModel {
    fn default() -> Self {
        UsageDecayModel::none()
    }
}

/// The queue-side inputs of a decay-aware feasibility projection: the
/// fair-share queue as it stands (whose per-request device tags supply the
/// request-to-device mapping), the arriving job's hypothetical first
/// request, any fair-share credit the dispatcher would grant that request's
/// tenant at admission, and the dispatcher's decay model.
#[derive(Debug, Clone, Copy)]
pub struct QueueModel<'a> {
    /// The live fair-share queue (balances + pending requests + device
    /// tags + backlog summary).
    pub queue: &'a FairShareQueue,
    /// The arriving job's hypothetical first request. Its id must not
    /// collide with any queued request's.
    pub probe: &'a QueuedRequest,
    /// Fair-share seconds the dispatcher would credit the probe's tenant at
    /// admission (0 when no priority boost applies). Applied virtually
    /// before ranking, so the projection prices the boost without cloning
    /// and mutating the queue.
    pub probe_credit: f64,
    /// The dispatcher's virtual-time usage-decay parameters.
    pub decay: UsageDecayModel,
}

/// Decay-aware feasibility: like [`estimate_feasibility`], but the queued
/// (ungranted) work ahead of the job is ranked by projected fair-share
/// dispatch order instead of being charged wholesale.
///
/// `devices` must carry only *committed* backlog (granted work that runs
/// regardless of queue order); the [`QueueModel`] holds the ungranted
/// requests. Only queued work projected to pop *before* the probe delays
/// the job — work the job outranks under fair-share does not, which is
/// exactly how the dispatcher will treat it.
///
/// Decay enters as a fixed point: a first pass projects the start time
/// with un-decayed balances, the crossed epochs until that start give the
/// compound decay factor ([`UsageDecayModel`]), and the final projection
/// ranks the queue with balances aged by that factor — so a past-heavy
/// tenant whose balance will have decayed by the time the job could start
/// is projected to outrank it, matching realized dispatch.
///
/// # Examples
///
/// ```
/// use qoncord_cloud::device::CloudDevice;
/// use qoncord_cloud::fairshare::{FairShareQueue, QueuedRequest};
/// use qoncord_cloud::policy::{
///     estimate_feasibility_decayed, Placement, QueueModel, UsageDecayModel,
/// };
///
/// // One idle device; a heavy tenant has 100s of queued work pending.
/// let devices = vec![CloudDevice::new(0, 0.9, 1.0)];
/// let mut queue = FairShareQueue::new();
/// queue.record_usage("heavy", 500.0).unwrap();
/// queue
///     .push_for_device(
///         QueuedRequest {
///             id: 0, user: "heavy".into(), requested_seconds: 100.0, submitted_at: 0.0,
///         },
///         0,
///     )
///     .unwrap();
/// let placements = [Placement { device: 0, circuits: 10, quality_weight: 1.0 }];
/// let probe = QueuedRequest {
///     id: 99, user: "light".into(), requested_seconds: 10.0, submitted_at: 1.0,
/// };
/// let est = estimate_feasibility_decayed(&placements, &devices, &[1.0], 1.0, QueueModel {
///     queue: &queue,
///     probe: &probe,
///     probe_credit: 0.0,
///     decay: UsageDecayModel::none(),
/// });
/// // The light tenant outranks the heavy backlog: no queue delay at all.
/// assert_eq!(est.queue_seconds, 0.0);
/// assert_eq!(est.completion, 11.0);
/// ```
pub fn estimate_feasibility_decayed(
    placements: &[Placement],
    devices: &[CloudDevice],
    seconds_per_circuit: &[f64],
    now: f64,
    model: QueueModel<'_>,
) -> FeasibilityEstimate {
    // Only the placements' own devices can delay this job, so the
    // projection is asked for exactly those — the queue then walks just
    // those devices' slices of its drain-order index up to the probe's
    // rank instead of heap-replaying the whole drain per admission
    // decision. The exact replay survives as a debug-assert oracle inside
    // the queue, and a property test pins the projection to the
    // cloned-queue pop order bit for bit.
    let mut wanted: Vec<usize> = placements.iter().map(|p| p.device).collect();
    wanted.sort_unstable();
    wanted.dedup();
    let ahead = |factor: f64| -> Vec<f64> {
        model.queue.projected_backlog_for(
            model.probe,
            model.probe_credit,
            factor,
            devices.len(),
            &wanted,
        )
    };
    let naive = project_placements(placements, devices, seconds_per_circuit, now, &ahead(1.0));
    let factor = model.decay.factor_between(now, now + naive.queue_seconds);
    if factor >= 1.0 {
        return naive;
    }
    project_placements(
        placements,
        devices,
        seconds_per_circuit,
        now,
        &ahead(factor),
    )
}

/// One shard of a QuSplit-style restart split: a same-tier device plus the
/// restart indices assigned to it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlacement {
    /// Target device (the [`CloudDevice::id`] of the chosen device).
    pub device: usize,
    /// Restart indices this shard owns, in ascending order.
    pub restarts: Vec<usize>,
}

impl ShardPlacement {
    /// Number of restarts the shard owns (its width).
    pub fn width(&self) -> usize {
        self.restarts.len()
    }
}

/// Fans a job's `n_restarts` restarts across same-tier devices, the
/// QuSplit-style split the multi-device orchestrator runs restarts of one
/// job concurrently with.
///
/// Only devices whose fidelity is at least `tier_floor` are eligible — a
/// shard must never land below the job's quality tier. Of those, the
/// `max_fanout` least-loaded devices (load evaluated live at `now`) form
/// the candidate pool, and restarts are dealt greedily onto whichever
/// candidate has the earliest projected finish (`backlog + assigned ×
/// seconds_per_restart`), so the fan-out *width* emerges from live load: a
/// backlogged twin naturally receives few or zero restarts and drops out of
/// the plan. Devices left without restarts are omitted, shard restart lists
/// are ascending, and the widths of the returned shards always sum to
/// `n_restarts`.
///
/// Returns an empty plan when no device reaches `tier_floor` (the caller
/// should fall back to unsplit execution).
///
/// # Panics
///
/// Panics if `max_fanout` is zero or `seconds_per_restart` is negative or
/// not finite.
pub fn split_restarts(
    devices: &[CloudDevice],
    tier_floor: f64,
    n_restarts: usize,
    seconds_per_restart: f64,
    max_fanout: usize,
    now: f64,
) -> Vec<ShardPlacement> {
    assert!(max_fanout > 0, "fan-out must be at least 1");
    assert!(
        seconds_per_restart.is_finite() && seconds_per_restart >= 0.0,
        "seconds per restart must be a non-negative finite number"
    );
    let mut pool: Vec<(usize, f64)> = devices
        .iter()
        .filter(|d| d.fidelity() >= tier_floor)
        .map(|d| (d.id(), d.load_after(now)))
        .collect();
    if pool.is_empty() || n_restarts == 0 {
        return Vec::new();
    }
    // Least-loaded candidates first; device id breaks ties deterministically.
    pool.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("finite load")
            .then(a.0.cmp(&b.0))
    });
    pool.truncate(max_fanout);
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); pool.len()];
    for restart in 0..n_restarts {
        let winner = (0..pool.len())
            .min_by(|&a, &b| {
                let fa = pool[a].1 + assigned[a].len() as f64 * seconds_per_restart;
                let fb = pool[b].1 + assigned[b].len() as f64 * seconds_per_restart;
                fa.partial_cmp(&fb).expect("finite projections")
            })
            .expect("non-empty pool");
        assigned[winner].push(restart);
    }
    pool.iter()
        .zip(assigned)
        .filter(|(_, restarts)| !restarts.is_empty())
        .map(|(&(device, _), restarts)| ShardPlacement { device, restarts })
        .collect()
}

/// Merges per-restart shard outcomes back into restart order, independent
/// of the order shards finished in. `outcomes` yields `(restart index,
/// outcome)` pairs; the merge succeeds only when the indices form exactly
/// the permutation `0..n_restarts` — a missing, duplicate, or out-of-range
/// restart returns `None` instead of silently misattributing results.
pub fn merge_shard_results<T>(
    outcomes: impl IntoIterator<Item = (usize, T)>,
    n_restarts: usize,
) -> Option<Vec<T>> {
    let mut slots: Vec<Option<T>> = (0..n_restarts).map(|_| None).collect();
    let mut filled = 0;
    for (restart, outcome) in outcomes {
        let slot = slots.get_mut(restart)?;
        if slot.is_some() {
            return None;
        }
        *slot = Some(outcome);
        filled += 1;
    }
    if filled != n_restarts {
        return None;
    }
    Some(
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect(),
    )
}

fn least_busy(devices: &[CloudDevice], now: f64) -> usize {
    devices
        .iter()
        .enumerate()
        .min_by(|a, b| {
            a.1.load_after(now)
                .partial_cmp(&b.1.load_after(now))
                .expect("finite load")
        })
        .map(|(i, _)| i)
        .expect("non-empty")
}

fn least_busy_excluding(devices: &[CloudDevice], now: f64, excluded: usize) -> usize {
    devices
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != excluded)
        .min_by(|a, b| {
            a.1.load_after(now)
                .partial_cmp(&b.1.load_after(now))
                .expect("finite load")
        })
        .map(|(i, _)| i)
        .unwrap_or(excluded)
}

fn least_busy_among(
    devices: &[CloudDevice],
    now: f64,
    filter: impl Fn(&CloudDevice) -> bool,
) -> Option<usize> {
    devices
        .iter()
        .enumerate()
        .filter(|(_, d)| filter(d))
        .min_by(|a, b| {
            a.1.load_after(now)
                .partial_cmp(&b.1.load_after(now))
                .expect("finite load")
        })
        .map(|(i, _)| i)
}

fn median_fidelity(devices: &[CloudDevice]) -> f64 {
    let mut f: Vec<f64> = devices.iter().map(|d| d.fidelity()).collect();
    f.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    f[f.len() / 2]
}

fn weighted_choice(weights: &[f64], rng: &mut StdRng) -> usize {
    let total: f64 = weights.iter().sum();
    let mut r = rng.random::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        r -= w;
        if r <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::hypothetical_fleet;
    use rand::SeedableRng;

    fn fleet() -> Vec<CloudDevice> {
        hypothetical_fleet(10, 0.3, 0.9)
    }

    #[test]
    fn least_busy_prefers_idle_device() {
        let mut devices = fleet();
        for d in devices.iter_mut().take(9) {
            d.schedule(0.0, 100.0);
        }
        let mut rng = StdRng::seed_from_u64(0);
        let p = place_job(Policy::LeastBusy, &devices, 10, true, 0.0, &mut rng);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].device, 9);
    }

    #[test]
    fn best_fidelity_always_picks_top_device() {
        let devices = fleet();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..5 {
            let p = place_job(Policy::BestFidelity, &devices, 10, false, 0.0, &mut rng);
            assert_eq!(p[0].device, 9);
        }
    }

    #[test]
    fn qoncord_splits_vqa_jobs_across_tiers() {
        let devices = fleet();
        let mut rng = StdRng::seed_from_u64(0);
        let p = place_job(Policy::Qoncord, &devices, 100, true, 0.0, &mut rng);
        assert_eq!(p.len(), 2);
        let (explore, finetune) = (&p[0], &p[1]);
        assert!(devices[explore.device].fidelity() < devices[finetune.device].fidelity());
        // ~70 % of (triage-trimmed) circuits on the LF device.
        assert!(explore.circuits > finetune.circuits);
        // Quality weighting is dominated by the fine-tune device.
        assert!(finetune.quality_weight > 0.9);
        // Termination savings: fewer total circuits than nominal.
        assert!(explore.circuits + finetune.circuits < 100);
    }

    #[test]
    fn qoncord_routes_non_vqa_like_least_busy() {
        let devices = fleet();
        let mut rng = StdRng::seed_from_u64(0);
        let p = place_job(Policy::Qoncord, &devices, 10, false, 0.0, &mut rng);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].circuits, 10);
    }

    #[test]
    fn eqc_doubles_vqa_circuits() {
        let devices = fleet();
        let mut rng = StdRng::seed_from_u64(0);
        let p = place_job(Policy::Eqc, &devices, 50, true, 0.0, &mut rng);
        let total: u64 = p.iter().map(|x| x.circuits).sum();
        assert_eq!(total, 100);
        assert_eq!(p.len(), 2);
        assert_ne!(p[0].device, p[1].device);
    }

    #[test]
    fn fidelity_weighted_skews_toward_good_devices() {
        let devices = fleet();
        let mut rng = StdRng::seed_from_u64(7);
        let mut hits_top_half = 0;
        let n = 2000;
        for _ in 0..n {
            let p = place_job(Policy::FidelityWeighted, &devices, 1, false, 0.0, &mut rng);
            if p[0].device >= 5 {
                hits_top_half += 1;
            }
        }
        let frac = hits_top_half as f64 / n as f64;
        assert!(frac > 0.6, "expected skew toward high fidelity, got {frac}");
    }

    #[test]
    fn load_weighted_spreads_load() {
        let mut devices = fleet();
        devices[0].schedule(0.0, 1e6); // overloaded device
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits_loaded = 0;
        for _ in 0..500 {
            let p = place_job(Policy::LoadWeighted, &devices, 1, false, 0.0, &mut rng);
            if p[0].device == 0 {
                hits_loaded += 1;
            }
        }
        assert!(
            hits_loaded < 20,
            "overloaded device still chosen {hits_loaded} times"
        );
    }

    #[test]
    fn feasibility_sequences_placements_behind_backlogs() {
        let mut devices = vec![CloudDevice::new(0, 0.5, 1.0), CloudDevice::new(1, 0.9, 1.0)];
        devices[0].schedule(0.0, 4.0); // LF backlog clears at t=4
        let placements = [
            Placement {
                device: 0,
                circuits: 10,
                quality_weight: 0.1,
            },
            Placement {
                device: 1,
                circuits: 5,
                quality_weight: 0.9,
            },
        ];
        let secs = [1.0, 2.0];
        let est = estimate_feasibility(&placements, &devices, &secs, 0.0);
        // Exploration waits for the backlog, runs 10s; fine-tune starts when
        // exploration ends (its own device is idle) and runs 10s.
        assert_eq!(est.queue_seconds, 4.0);
        assert_eq!(est.service_seconds, 20.0);
        assert_eq!(est.completion, 24.0);
        assert!(est.meets(24.0, 0.0));
        assert!(!est.meets(24.0, 1.0));
    }

    #[test]
    fn meets_edge_cases_fail_closed() {
        let est = |completion: f64| FeasibilityEstimate {
            queue_seconds: 0.0,
            service_seconds: 1.0,
            completion,
        };
        // Zero margin: boundary inclusive.
        assert!(est(10.0).meets(10.0, 0.0));
        // Negative margin loosens the check past the deadline.
        assert!(est(12.0).meets(10.0, -3.0));
        assert!(!est(12.0).meets(10.0, -1.0));
        // An infinite deadline is met by any finite projection...
        assert!(est(1e300).meets(f64::INFINITY, 0.0));
        // ...but not by a non-finite one.
        assert!(!est(f64::INFINITY).meets(f64::INFINITY, 0.0));
        // NaN anywhere rejects as infeasible: every NaN comparison is false.
        assert!(!est(f64::NAN).meets(10.0, 0.0));
        assert!(!est(f64::NAN).meets(f64::INFINITY, -1e9));
        assert!(!est(10.0).meets(f64::NAN, 0.0));
        assert!(!est(10.0).meets(20.0, f64::NAN));
    }

    fn req(id: usize, user: &str, seconds: f64, at: f64) -> QueuedRequest {
        QueuedRequest {
            id,
            user: user.into(),
            requested_seconds: seconds,
            submitted_at: at,
        }
    }

    /// Device 0's seconds the projection ranks ahead of `probe`, next to
    /// the seconds a decayed clone of `q` really pops from device 0 before
    /// it once it is pushed there.
    fn ahead_vs_drain(q: &FairShareQueue, probe: &QueuedRequest, factor: f64) -> (f64, f64) {
        let projected = q.projected_backlog_for(probe, 0.0, factor, 1, &[0])[0];
        let mut real = q.clone();
        real.decay_usage(factor).unwrap();
        real.push_for_device(probe.clone(), 0).unwrap();
        let drained = std::iter::from_fn(|| real.pop_for_device(0))
            .take_while(|r| r.id != probe.id)
            .map(|r| r.requested_seconds)
            .sum();
        (projected, drained)
    }

    #[test]
    fn projected_order_matches_real_drain() {
        let mut q = FairShareQueue::new();
        q.record_usage("heavy", 400.0).unwrap();
        q.record_usage("light", 10.0).unwrap();
        // Powers of two, so a sum of seconds names the set popped first.
        q.push_for_device(req(0, "heavy", 8.0, 0.0), 0).unwrap();
        q.push_for_device(req(1, "light", 2.0, 1.0), 0).unwrap();
        q.push_for_device(req(2, "light", 4.0, 2.0), 0).unwrap();
        q.push_for_device(req(3, "fresh", 1.0, 3.0), 0).unwrap();
        for user in ["heavy", "light", "fresh", "newcomer"] {
            let (projected, drained) = ahead_vs_drain(&q, &req(9, user, 5.0, 4.0), 1.0);
            assert_eq!(projected, drained, "probe from {user}");
        }
        let (ahead, _) = ahead_vs_drain(&q, &req(9, "newcomer", 5.0, 4.0), 1.0);
        assert_eq!(ahead, 1.0, "only the unburdened tenant pops first");
    }

    #[test]
    fn projected_order_breaks_full_ties_by_insertion() {
        // Identical size and submission time, and "b"'s balance matches
        // "a"'s three in-flight slots, so the probe ties with "a"'s first
        // request on score and time: real dispatch pops in insertion order
        // (min_by keeps the first of equals), and the projection must agree.
        let mut q = FairShareQueue::new();
        q.record_usage("b", 20.0).unwrap();
        q.push_for_device(req(0, "a", 5.0, 1.0), 0).unwrap();
        q.push_for_device(req(1, "a", 5.0, 1.0), 0).unwrap();
        q.push_for_device(req(2, "a", 5.0, 1.0), 0).unwrap();
        for user in ["a", "b"] {
            let probe = req(9, user, 5.0, 1.0);
            assert_eq!(ahead_vs_drain(&q, &probe, 1.0), (15.0, 15.0), "{user}");
        }
    }

    #[test]
    fn projected_order_shifts_under_decay() {
        // The heavy tenant's balance decays to nothing: with full amnesty
        // its earlier submission outranks the light tenant's.
        let mut q = FairShareQueue::new();
        q.record_usage("heavy", 1000.0).unwrap();
        q.push_for_device(req(0, "heavy", 5.0, 0.0), 0).unwrap();
        let probe = req(1, "light", 5.0, 1.0);
        assert_eq!(ahead_vs_drain(&q, &probe, 1.0), (0.0, 0.0));
        assert_eq!(ahead_vs_drain(&q, &probe, 0.0), (5.0, 5.0));
    }

    #[test]
    fn decayed_feasibility_charges_only_outranking_work() {
        let devices = vec![CloudDevice::new(0, 0.9, 1.0)];
        let placements = [Placement {
            device: 0,
            circuits: 10,
            quality_weight: 1.0,
        }];
        let mut q = FairShareQueue::new();
        q.record_usage("rival", 50.0).unwrap();
        q.push_for_device(req(0, "rival", 30.0, 0.0), 0).unwrap();
        // A probe from a tenant heavier than the rival queues behind the
        // rival's 30s of work; a lighter probe queues ahead of it.
        let heavy_probe = |mut queue: FairShareQueue| {
            queue.record_usage("newcomer", 500.0).unwrap();
            estimate_feasibility_decayed(
                &placements,
                &devices,
                &[1.0],
                0.0,
                QueueModel {
                    queue: &queue,
                    probe: &req(9, "newcomer", 10.0, 1.0),
                    probe_credit: 0.0,
                    decay: UsageDecayModel::none(),
                },
            )
        };
        let heavy = heavy_probe(q.clone());
        assert_eq!(heavy.queue_seconds, 30.0);
        assert_eq!(heavy.completion, 40.0);
        let light = estimate_feasibility_decayed(
            &placements,
            &devices,
            &[1.0],
            0.0,
            QueueModel {
                queue: &q,
                probe: &req(9, "newcomer", 10.0, 1.0),
                probe_credit: 0.0,
                decay: UsageDecayModel::none(),
            },
        );
        assert_eq!(light.queue_seconds, 0.0, "outranked work does not delay");
        assert_eq!(light.completion, 10.0);
        // A probe credit does virtually what a real admission-time credit
        // would: the heavy newcomer outranks the rival again.
        let mut credited_queue = q.clone();
        credited_queue.record_usage("newcomer", 500.0).unwrap();
        let boosted = estimate_feasibility_decayed(
            &placements,
            &devices,
            &[1.0],
            0.0,
            QueueModel {
                queue: &credited_queue,
                probe: &req(9, "newcomer", 10.0, 1.0),
                probe_credit: 500.0,
                decay: UsageDecayModel::none(),
            },
        );
        assert_eq!(boosted.queue_seconds, 0.0);
    }

    #[test]
    fn decayed_feasibility_projects_epochs_until_start() {
        // Committed backlog of 100s delays any start to t=100; with a decay
        // epoch of 30s every balance has decayed 3 times by then (factor
        // 0.125), which shrinks the rival's balance advantage below the
        // probe's larger request-size penalty — so the rival's queued work
        // is projected to outrank the probe after all.
        let mut devices = vec![CloudDevice::new(0, 0.9, 1.0)];
        devices[0].schedule(0.0, 100.0);
        let placements = [Placement {
            device: 0,
            circuits: 10,
            quality_weight: 1.0,
        }];
        let mut q = FairShareQueue::new();
        q.record_usage("rival", 120.0).unwrap();
        q.record_usage("newcomer", 20.0).unwrap();
        q.push_for_device(req(0, "rival", 4.0, 0.0), 0).unwrap();
        let probe = req(9, "newcomer", 30.0, 1.0);
        let undecayed = estimate_feasibility_decayed(
            &placements,
            &devices,
            &[1.0],
            0.0,
            QueueModel {
                queue: &q,
                probe: &probe,
                probe_credit: 0.0,
                decay: UsageDecayModel::none(),
            },
        );
        assert_eq!(
            undecayed.queue_seconds, 100.0,
            "without decay the probe outranks the heavier rival"
        );
        let decayed = estimate_feasibility_decayed(
            &placements,
            &devices,
            &[1.0],
            0.0,
            QueueModel {
                queue: &q,
                probe: &probe,
                probe_credit: 0.0,
                decay: UsageDecayModel::every(30.0, 0.5),
            },
        );
        assert_eq!(
            decayed.queue_seconds, 104.0,
            "by the projected start the rival outranks the probe"
        );
    }

    #[test]
    fn usage_decay_model_counts_epoch_boundaries() {
        let model = UsageDecayModel::every(10.0, 0.5);
        assert_eq!(model.epochs_between(0.0, 9.9), 0);
        assert_eq!(model.epochs_between(0.0, 10.0), 1);
        assert_eq!(model.epochs_between(12.0, 35.0), 2);
        assert_eq!(model.epochs_between(5.0, 5.0), 0);
        assert_eq!(
            model.epochs_between(20.0, 5.0),
            0,
            "time only moves forward"
        );
        assert_eq!(model.factor_between(0.0, 25.0), 0.25);
        let off = UsageDecayModel::none();
        assert_eq!(off.epochs_between(0.0, 1e12), 0);
        assert_eq!(off.factor_between(0.0, 1e12), 1.0);
    }

    #[test]
    fn feasibility_of_empty_placement_is_immediate() {
        let devices = vec![CloudDevice::new(0, 0.5, 1.0)];
        let est = estimate_feasibility(&[], &devices, &[1.0], 7.0);
        assert_eq!(est.queue_seconds, 0.0);
        assert_eq!(est.service_seconds, 0.0);
        assert_eq!(est.completion, 7.0);
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(Policy::Qoncord.label(), "Qoncord");
        assert_eq!(Policy::all().len(), 6);
    }

    #[test]
    fn split_balances_restarts_over_idle_twins() {
        let devices = vec![
            CloudDevice::new(0, 0.5, 1.0),
            CloudDevice::new(1, 0.5, 1.0),
            CloudDevice::new(2, 0.9, 1.0),
        ];
        let plan = split_restarts(&devices, 0.5, 6, 10.0, 4, 0.0);
        // Only the two tier-eligible... all three are >= 0.5; the HF device
        // is eligible too (not *below* the tier) but everything is idle, so
        // the deal spreads evenly over the three.
        assert_eq!(plan.iter().map(ShardPlacement::width).sum::<usize>(), 6);
        assert_eq!(plan.len(), 3);
        for shard in &plan {
            assert_eq!(shard.width(), 2);
        }
    }

    #[test]
    fn split_respects_tier_floor_and_load() {
        let mut devices = vec![
            CloudDevice::new(0, 0.3, 1.0), // below tier
            CloudDevice::new(1, 0.6, 1.0),
            CloudDevice::new(2, 0.6, 1.0),
        ];
        devices[2].schedule(0.0, 1e6); // hopelessly backlogged twin
        let plan = split_restarts(&devices, 0.5, 4, 10.0, 4, 0.0);
        assert_eq!(plan.len(), 1, "backlogged twin receives nothing");
        assert_eq!(plan[0].device, 1);
        assert_eq!(plan[0].restarts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn split_with_no_eligible_device_is_empty() {
        let devices = vec![CloudDevice::new(0, 0.4, 1.0)];
        assert!(split_restarts(&devices, 0.5, 4, 1.0, 4, 0.0).is_empty());
        assert!(split_restarts(&devices, 0.3, 0, 1.0, 4, 0.0).is_empty());
    }

    #[test]
    fn split_honors_max_fanout() {
        let devices: Vec<CloudDevice> = (0..6).map(|i| CloudDevice::new(i, 0.7, 1.0)).collect();
        let plan = split_restarts(&devices, 0.5, 12, 5.0, 2, 0.0);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.iter().map(ShardPlacement::width).sum::<usize>(), 12);
    }

    #[test]
    fn merge_reorders_and_rejects_bad_permutations() {
        let merged = merge_shard_results([(2, "c"), (0, "a"), (1, "b")], 3).unwrap();
        assert_eq!(merged, vec!["a", "b", "c"]);
        assert!(
            merge_shard_results([(0, 1), (0, 2)], 2).is_none(),
            "duplicate"
        );
        assert!(merge_shard_results([(0, 1)], 2).is_none(), "missing");
        assert!(merge_shard_results([(5, 1)], 1).is_none(), "out of range");
        assert_eq!(merge_shard_results::<u8>([], 0), Some(vec![]));
    }
}
