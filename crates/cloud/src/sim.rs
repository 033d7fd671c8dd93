//! The discrete-event queue simulation behind the paper's Fig. 12: jobs
//! arrive, a policy places their circuit batches on devices, runtime
//! sessions leave think-time gaps that other jobs can fill, and the outcome
//! is a (throughput, relative fidelity) point per policy.

use crate::device::CloudDevice;
use crate::job::{JobKind, JobOutcome, JobSpec};
use crate::policy::{place_job, Policy};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Aggregate result of simulating one workload under one policy.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// The policy simulated.
    pub policy: Policy,
    /// Per-job outcomes.
    pub outcomes: Vec<JobOutcome>,
    /// Workload makespan: last circuit completion time.
    pub makespan: f64,
    /// Useful (nominal) circuits completed — EQC's duplicate executions are
    /// excluded here but occupy devices.
    pub useful_circuits: u64,
    /// All circuit executions performed, including policy overheads.
    pub executed_circuits: u64,
    /// Per-device busy seconds.
    pub device_busy: Vec<f64>,
    /// Per-device completed circuit executions.
    pub device_circuits: Vec<u64>,
}

impl SimulationResult {
    /// Throughput in useful circuits per second (the paper's Eq. 2).
    pub fn throughput(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.useful_circuits as f64 / self.makespan
    }

    /// Mean job fidelity relative to `best_fidelity` (the paper's y-axis).
    pub fn mean_relative_fidelity(&self, best_fidelity: f64) -> f64 {
        assert!(best_fidelity > 0.0);
        let sum: f64 = self.outcomes.iter().map(|o| o.fidelity).sum();
        sum / self.outcomes.len() as f64 / best_fidelity
    }

    /// Per-device utilization: busy seconds divided by the workload
    /// makespan, in device order. All zeros when nothing ran.
    pub fn utilization(&self) -> Vec<f64> {
        utilization(&self.device_busy, self.makespan)
    }

    /// Mean utilization across the fleet.
    pub fn mean_utilization(&self) -> f64 {
        mean_utilization(&self.device_busy, self.makespan)
    }

    /// Coefficient of variation of device busy time (load balance; lower is
    /// more balanced). Zero for an empty or entirely idle fleet.
    pub fn load_imbalance(&self) -> f64 {
        if self.device_busy.is_empty() {
            return 0.0;
        }
        let n = self.device_busy.len() as f64;
        let mean = self.device_busy.iter().sum::<f64>() / n;
        if mean <= 0.0 {
            return 0.0;
        }
        let var = self
            .device_busy
            .iter()
            .map(|b| (b - mean).powi(2))
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }
}

/// Per-device utilization of a fleet: each device's busy seconds over the
/// shared makespan. All zeros when the makespan is zero. Shared by the
/// queue simulator and the multi-tenant orchestrator.
///
/// # Examples
///
/// ```
/// use qoncord_cloud::sim::{mean_utilization, utilization};
///
/// assert_eq!(utilization(&[5.0, 10.0], 10.0), vec![0.5, 1.0]);
/// assert_eq!(mean_utilization(&[5.0, 10.0], 10.0), 0.75);
/// assert_eq!(utilization(&[5.0], 0.0), vec![0.0], "idle fleet");
/// ```
pub fn utilization(device_busy: &[f64], makespan: f64) -> Vec<f64> {
    if makespan <= 0.0 {
        return vec![0.0; device_busy.len()];
    }
    device_busy.iter().map(|b| b / makespan).collect()
}

/// Mean of [`utilization`] across the fleet (0 for an empty fleet).
pub fn mean_utilization(device_busy: &[f64], makespan: f64) -> f64 {
    if device_busy.is_empty() {
        return 0.0;
    }
    utilization(device_busy, makespan).iter().sum::<f64>() / device_busy.len() as f64
}

/// Simulates `jobs` (sorted by arrival) on `devices` under `policy`.
///
/// Placement decisions happen at each job's arrival using current loads.
/// Runtime sessions run their batches sequentially with think-time gaps;
/// each batch's circuits are spread over the placements proportionally.
///
/// # Panics
///
/// Panics if `jobs` or `devices` is empty.
pub fn simulate(
    policy: Policy,
    jobs: &[JobSpec],
    devices: &[CloudDevice],
    seed: u64,
) -> SimulationResult {
    assert!(!jobs.is_empty(), "no jobs to simulate");
    assert!(!devices.is_empty(), "no devices to simulate");
    let mut devices: Vec<CloudDevice> = devices.to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut useful = 0u64;
    let mut executed = 0u64;
    let mut makespan = 0.0_f64;
    for job in jobs {
        let placements = place_job(
            policy,
            &devices,
            job.total_circuits(),
            job.is_vqa,
            job.arrival,
            &mut rng,
        );
        let placed_total: u64 = placements.iter().map(|p| p.circuits).sum();
        // Effective fidelity: quality-weighted mix of the placement devices.
        let weight_total: f64 = placements.iter().map(|p| p.quality_weight).sum();
        let fidelity: f64 = placements
            .iter()
            .map(|p| devices[p.device].fidelity() * p.quality_weight)
            .sum::<f64>()
            / weight_total.max(1e-12);
        let mut completion = job.arrival;
        match job.kind {
            JobKind::Independent { .. } => {
                for p in &placements {
                    if p.circuits == 0 {
                        continue;
                    }
                    let dur = devices[p.device]
                        .scaled_duration(p.circuits as f64 * job.seconds_per_circuit);
                    let start = devices[p.device].schedule(job.arrival, dur);
                    devices[p.device].record_circuits(p.circuits);
                    completion = completion.max(start + dur);
                }
            }
            JobKind::RuntimeSession {
                n_batches,
                circuits_per_batch,
                inter_batch_delay,
            } => {
                // Spread each batch's circuits across placements
                // proportionally to their share; batches are serialized with
                // think-time gaps.
                let mut batch_ready = job.arrival;
                let scale = if placed_total == 0 {
                    0.0
                } else {
                    placed_total as f64 / job.total_circuits() as f64
                };
                for _ in 0..n_batches {
                    let mut batch_end = batch_ready;
                    for p in &placements {
                        if p.circuits == 0 {
                            continue;
                        }
                        let share = p.circuits as f64 / placed_total as f64;
                        let batch_circuits = (circuits_per_batch as f64 * scale * share).max(0.0);
                        if batch_circuits < 0.5 {
                            continue;
                        }
                        let n = batch_circuits.round() as u64;
                        let dur =
                            devices[p.device].scaled_duration(n as f64 * job.seconds_per_circuit);
                        let start = devices[p.device].schedule(batch_ready, dur);
                        devices[p.device].record_circuits(n);
                        batch_end = batch_end.max(start + dur);
                    }
                    batch_ready = batch_end + inter_batch_delay;
                    completion = completion.max(batch_end);
                }
            }
        }
        useful += job.total_circuits().min(placed_total.max(1));
        executed += placed_total;
        makespan = makespan.max(completion);
        outcomes.push(JobOutcome {
            id: job.id,
            completion,
            executed_circuits: placed_total,
            fidelity,
        });
    }
    SimulationResult {
        policy,
        outcomes,
        makespan,
        useful_circuits: useful,
        executed_circuits: executed,
        device_busy: devices.iter().map(|d| d.busy_time()).collect(),
        device_circuits: devices.iter().map(|d| d.completed_circuits()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::hypothetical_fleet;
    use crate::workload::{generate_workload, WorkloadConfig};

    fn small_workload(vqa_ratio: f64) -> Vec<JobSpec> {
        generate_workload(&WorkloadConfig {
            n_jobs: 200,
            vqa_ratio,
            ..WorkloadConfig::default()
        })
    }

    fn run(policy: Policy, vqa_ratio: f64) -> SimulationResult {
        simulate(
            policy,
            &small_workload(vqa_ratio),
            &hypothetical_fleet(10, 0.3, 0.9),
            7,
        )
    }

    #[test]
    fn all_policies_complete_all_jobs() {
        for policy in Policy::all() {
            let r = run(policy, 0.5);
            assert_eq!(r.outcomes.len(), 200, "{policy}");
            assert!(r.makespan > 0.0);
            assert!(r.throughput() > 0.0);
        }
    }

    #[test]
    fn best_fidelity_delivers_top_quality_but_low_throughput() {
        let bf = run(Policy::BestFidelity, 0.5);
        let lb = run(Policy::LeastBusy, 0.5);
        assert!(bf.mean_relative_fidelity(0.9) > 0.999);
        assert!(lb.mean_relative_fidelity(0.9) < 0.9);
        assert!(
            lb.throughput() > bf.throughput() * 1.5,
            "least busy {} vs best fidelity {}",
            lb.throughput(),
            bf.throughput()
        );
    }

    #[test]
    fn qoncord_nears_best_fidelity_quality_at_high_throughput() {
        // The Fig. 12 claim: Qoncord sits near the top-right corner — it
        // beats every policy except Best Fidelity on quality while keeping
        // throughput well above Best Fidelity.
        let q = run(Policy::Qoncord, 0.5);
        let bf = run(Policy::BestFidelity, 0.5);
        let q_fid = q.mean_relative_fidelity(0.9);
        for other in [
            Policy::LeastBusy,
            Policy::LoadWeighted,
            Policy::FidelityWeighted,
        ] {
            let o_fid = run(other, 0.5).mean_relative_fidelity(0.9);
            assert!(
                q_fid > o_fid,
                "Qoncord ({q_fid}) must beat {other} ({o_fid}) on quality"
            );
        }
        assert!(
            q.throughput() > bf.throughput(),
            "Qoncord throughput {} must beat best-fidelity {}",
            q.throughput(),
            bf.throughput()
        );
    }

    #[test]
    fn qoncord_quality_approaches_hf_as_vqa_ratio_grows() {
        // With a VQA-dominated workload nearly every job benefits from the
        // phase split; relative fidelity approaches the HF device's.
        let q = run(Policy::Qoncord, 0.9);
        let q_fid = q.mean_relative_fidelity(0.9);
        assert!(q_fid > 0.9, "fidelity {q_fid} at 90 % VQA ratio");
    }

    #[test]
    fn eqc_executes_extra_circuits() {
        let eqc = run(Policy::Eqc, 0.9);
        assert!(
            eqc.executed_circuits as f64 > eqc.useful_circuits as f64 * 1.5,
            "executed {} vs useful {}",
            eqc.executed_circuits,
            eqc.useful_circuits
        );
    }

    #[test]
    fn best_fidelity_has_worst_load_imbalance() {
        let bf = run(Policy::BestFidelity, 0.5);
        let lb = run(Policy::LeastBusy, 0.5);
        assert!(bf.load_imbalance() > lb.load_imbalance());
    }

    #[test]
    fn utilization_is_busy_over_makespan() {
        let r = run(Policy::LeastBusy, 0.5);
        let u = r.utilization();
        assert_eq!(u.len(), r.device_busy.len());
        for (ui, busy) in u.iter().zip(&r.device_busy) {
            assert!((0.0..=1.0 + 1e-9).contains(ui));
            assert!((ui * r.makespan - busy).abs() < 1e-9);
        }
        assert!(r.mean_utilization() > 0.0);
    }

    #[test]
    fn load_imbalance_is_zero_for_empty_or_idle_fleets() {
        let empty = SimulationResult {
            policy: Policy::LeastBusy,
            outcomes: vec![],
            makespan: 0.0,
            useful_circuits: 0,
            executed_circuits: 0,
            device_busy: vec![],
            device_circuits: vec![],
        };
        assert_eq!(empty.load_imbalance(), 0.0);
        assert!(!empty.load_imbalance().is_nan());
        let idle = SimulationResult {
            device_busy: vec![0.0, 0.0],
            device_circuits: vec![0, 0],
            ..empty
        };
        assert_eq!(idle.load_imbalance(), 0.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = run(Policy::Qoncord, 0.3);
        let b = run(Policy::Qoncord, 0.3);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.executed_circuits, b.executed_circuits);
    }

    #[test]
    fn turnaround_positive() {
        let jobs = small_workload(0.5);
        let r = simulate(
            Policy::LeastBusy,
            &jobs,
            &hypothetical_fleet(10, 0.3, 0.9),
            7,
        );
        assert!(r
            .outcomes
            .iter()
            .zip(&jobs)
            .all(|(o, j)| o.turnaround(j) > 0.0));
    }
}
