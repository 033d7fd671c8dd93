//! Cloud job model (Sec. II-E and V-F of the paper).
//!
//! Two job shapes exist on quantum clouds: *independent tasks* submitted to
//! the shared queue and executed once, and *runtime sessions* that submit
//! batches of circuit executions with think-time gaps between batches —
//! gaps other jobs may slot into.

/// The shape of a job's execution.
///
/// # Examples
///
/// ```
/// use qoncord_cloud::job::JobKind;
///
/// let session = JobKind::RuntimeSession {
///     n_batches: 10,
///     circuits_per_batch: 30,
///     inter_batch_delay: 1.0,
/// };
/// assert_eq!(session.total_circuits(), 300);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobKind {
    /// A one-shot task of `n_circuits` circuit executions.
    Independent {
        /// Number of circuit executions.
        n_circuits: u32,
    },
    /// A runtime session: `n_batches` batches of `circuits_per_batch`
    /// executions, separated by `inter_batch_delay` seconds of classical
    /// think time (the optimizer update).
    RuntimeSession {
        /// Number of batches (≈ optimizer iterations).
        n_batches: u32,
        /// Circuit executions per batch.
        circuits_per_batch: u32,
        /// Classical think time between batches, seconds.
        inter_batch_delay: f64,
    },
}

impl JobKind {
    /// Total circuit executions the job nominally needs.
    pub fn total_circuits(&self) -> u64 {
        match *self {
            JobKind::Independent { n_circuits } => n_circuits as u64,
            JobKind::RuntimeSession {
                n_batches,
                circuits_per_batch,
                ..
            } => n_batches as u64 * circuits_per_batch as u64,
        }
    }
}

/// A job submitted to the cloud.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique id.
    pub id: usize,
    /// Arrival (submission) time, seconds.
    pub arrival: f64,
    /// Execution shape.
    pub kind: JobKind,
    /// Seconds per circuit execution on a reference-speed device (the 3×
    /// empirical variation of Sec. V-F is already folded in per job).
    pub seconds_per_circuit: f64,
    /// Whether this is a VQA workload (splittable into exploration and
    /// fine-tuning phases by the Qoncord policy).
    pub is_vqa: bool,
}

impl JobSpec {
    /// Total nominal circuit executions.
    pub fn total_circuits(&self) -> u64 {
        self.kind.total_circuits()
    }
}

/// Outcome of one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job id.
    pub id: usize,
    /// Completion (last circuit finished) time, seconds.
    pub completion: f64,
    /// Circuit executions actually performed (≥ nominal for EQC).
    pub executed_circuits: u64,
    /// Effective execution fidelity delivered to the job.
    pub fidelity: f64,
}

impl JobOutcome {
    /// Turnaround time given the job's arrival.
    pub fn turnaround(&self, spec: &JobSpec) -> f64 {
        self.completion - spec.arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let ind = JobKind::Independent { n_circuits: 7 };
        assert_eq!(ind.total_circuits(), 7);
        let sess = JobKind::RuntimeSession {
            n_batches: 10,
            circuits_per_batch: 4,
            inter_batch_delay: 2.0,
        };
        assert_eq!(sess.total_circuits(), 40);
    }

    #[test]
    fn turnaround_subtracts_arrival() {
        let spec = JobSpec {
            id: 1,
            arrival: 3.0,
            kind: JobKind::Independent { n_circuits: 1 },
            seconds_per_circuit: 1.0,
            is_vqa: false,
        };
        let outcome = JobOutcome {
            id: 1,
            completion: 10.0,
            executed_circuits: 1,
            fidelity: 0.8,
        };
        assert!((outcome.turnaround(&spec) - 7.0).abs() < 1e-12);
    }
}
