//! Preemptible device (sub-)leases.
//!
//! Every granted batch of the orchestration engine is an explicit [`Lease`]:
//! which job holds which device, for how long, and for which shard — a job
//! split QuSplit-style holds several such leases concurrently, one per
//! shard. Because the batch's real compute is deferred to the lease's
//! expiry, the holder's optimizer state does not move while the lease runs,
//! and a lease can be *evicted* before it expires: the device is handed to
//! a more urgent tenant, and the engine takes the shard's
//! [`ShardCheckpoint`](qoncord_core::phase::ShardCheckpoint) *at eviction*
//! (the state it was granted in, since nothing ran in between). The
//! recalled batch re-enters the fair-share queue carrying that checkpoint,
//! and when it is re-granted the engine verifies (in debug builds) that the
//! victim resumes from exactly that state — bit-identically to a run that
//! was never preempted. The only cost of an eviction is the wasted
//! occupancy between grant and recall,
//! which [`LeaseLedger::evict`] returns as
//! [`EvictedLease::burned_seconds`]; totals are the trace fold's job
//! ([`crate::trace`]), the ledger keeps none.
//!
//! Preemption eligibility is decided by [`Urgency::may_preempt`]: a
//! higher-priority challenger may evict a lower-priority holder, and a
//! deadline-imminent challenger may evict an equal-priority holder that is
//! not itself deadline-imminent.
//!
//! Every grant, expiry, and eviction in a lease's life is also emitted to
//! the flight recorder ([`crate::trace`]) as `LeaseGrant`, `LeaseComplete`,
//! `StaleExpiry`, and `Eviction` events, so a device's occupancy can be
//! replayed or rendered as a Perfetto timeline after the fact.

/// One granted device reservation: a batch occupying a fleet device between
/// [`granted_at`](Lease::granted_at) and [`expires_at`](Lease::expires_at),
/// preemptible until it expires.
///
/// # Examples
///
/// ```
/// use qoncord_orchestrator::lease::Lease;
///
/// let lease = Lease {
///     id: 7,
///     job: 2,
///     device: 0,
///     shard: 1,
///     granted_at: 10.0,
///     expires_at: 16.0,
///     seconds: 6.0,
/// };
/// // Two seconds in, four seconds of the batch remain and two would be
/// // wasted if the lease were evicted now.
/// assert_eq!(lease.remaining(12.0), 4.0);
/// assert_eq!(lease.held(12.0), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Lease {
    /// Unique, monotonically increasing lease id (never reused, so a stale
    /// completion event for an evicted lease is detectable).
    pub id: u64,
    /// Index of the holding job (its tenant and urgency live with the job:
    /// preemption decisions evaluate them at decision time).
    pub job: usize,
    /// Fleet device the lease occupies.
    pub device: usize,
    /// Shard of the holding job this sub-lease serves (0 for unsplit jobs).
    /// The shard's optimizer state is not recorded here: it cannot change
    /// before the lease expires, so an eviction reads it off the job then.
    pub shard: usize,
    /// Virtual time the lease was granted.
    pub granted_at: f64,
    /// Virtual time the granted batch completes if not evicted.
    pub expires_at: f64,
    /// Device-seconds the granted batch occupies.
    pub seconds: f64,
}

impl Lease {
    /// Seconds of the granted batch still outstanding at `now`.
    pub fn remaining(&self, now: f64) -> f64 {
        (self.expires_at - now).max(0.0)
    }

    /// Seconds the lease has occupied the device by `now` — the work wasted
    /// if the lease is evicted at `now`.
    pub fn held(&self, now: f64) -> f64 {
        (now - self.granted_at).max(0.0)
    }
}

/// How pressing a job's claim on a device is, for preemption decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Urgency {
    /// Effective dispatch priority.
    pub priority: u32,
    /// Whether the job can no longer meet its deadline without immediate
    /// service (remaining service estimate leaves no slack).
    pub deadline_imminent: bool,
}

impl Urgency {
    /// Whether a challenger with this urgency may evict `holder`'s lease:
    /// strictly higher priority always may; a deadline-imminent challenger
    /// may also evict an equal-priority holder that is not itself imminent.
    pub fn may_preempt(&self, holder: &Urgency) -> bool {
        self.priority > holder.priority
            || (self.deadline_imminent
                && !holder.deadline_imminent
                && self.priority >= holder.priority)
    }
}

/// A lease recalled before its batch completed.
#[derive(Debug, Clone, PartialEq)]
pub struct EvictedLease {
    /// The recalled lease.
    pub lease: Lease,
    /// Device-seconds of occupancy the eviction wasted (grant → recall).
    pub burned_seconds: f64,
}

/// The terms of a lease grant (everything but the ledger-assigned id and
/// timing).
#[derive(Debug, Clone)]
pub struct LeaseTerms {
    /// Index of the job being granted.
    pub job: usize,
    /// Fleet device to occupy.
    pub device: usize,
    /// Shard of the job the sub-lease serves.
    pub shard: usize,
    /// Device-seconds the batch needs.
    pub seconds: f64,
}

/// The book of record for device leases: one active lease per device, and
/// the id the next grant receives.
#[derive(Debug, Clone, Default)]
pub struct LeaseLedger {
    active: Vec<Option<Lease>>,
    next_id: u64,
}

impl LeaseLedger {
    /// Creates a ledger over `n_devices` devices, all idle.
    pub fn new(n_devices: usize) -> Self {
        LeaseLedger {
            active: vec![None; n_devices],
            ..LeaseLedger::default()
        }
    }

    /// The active lease on `device`, if any.
    pub fn active(&self, device: usize) -> Option<&Lease> {
        self.active[device].as_ref()
    }

    /// Grants a lease on `terms` at `now`, expiring after the batch's
    /// duration. Returns the recorded lease.
    ///
    /// # Panics
    ///
    /// Panics if the device already has an active lease or the duration is
    /// not a positive finite number.
    pub fn grant(&mut self, terms: LeaseTerms, now: f64) -> &Lease {
        assert!(
            terms.seconds.is_finite() && terms.seconds > 0.0,
            "lease duration must be a positive finite number"
        );
        assert!(
            self.active[terms.device].is_none(),
            "device {} already leased",
            terms.device
        );
        let id = self.next_id;
        self.next_id += 1;
        let lease = Lease {
            id,
            job: terms.job,
            device: terms.device,
            shard: terms.shard,
            granted_at: now,
            expires_at: now + terms.seconds,
            seconds: terms.seconds,
        };
        self.active[terms.device] = Some(lease);
        self.active[terms.device].as_ref().expect("just granted")
    }

    /// Completes the lease `id` on `device`, returning it — or `None` when
    /// the lease was evicted in the meantime (a stale completion event),
    /// leaving the device's current state untouched.
    pub fn complete(&mut self, device: usize, id: u64) -> Option<Lease> {
        self.active[device].take_if(|l| l.id == id)
    }

    /// Evicts the active lease on `device` at `now`; the occupancy since
    /// its grant is returned as the wasted work.
    ///
    /// # Panics
    ///
    /// Panics if the device is idle.
    pub fn evict(&mut self, device: usize, now: f64) -> EvictedLease {
        let lease = self.active[device].take().expect("evicting an idle device");
        let burned_seconds = lease.held(now);
        EvictedLease {
            lease,
            burned_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn terms(job: usize, device: usize, seconds: f64) -> LeaseTerms {
        LeaseTerms {
            job,
            device,
            shard: 0,
            seconds,
        }
    }

    #[test]
    fn grant_complete_round_trip() {
        let mut ledger = LeaseLedger::new(2);
        let id = ledger.grant(terms(0, 1, 5.0), 10.0).id;
        assert!(ledger.active(0).is_none());
        assert_eq!(ledger.active(1).unwrap().expires_at, 15.0);
        let done = ledger.complete(1, id).expect("live lease completes");
        assert_eq!(done.job, 0);
        assert!(ledger.active(1).is_none());
        assert_eq!(ledger.complete(1, id), None, "a lease completes once");
    }

    #[test]
    fn eviction_burns_held_time_and_staleness_is_detected() {
        let mut ledger = LeaseLedger::new(1);
        let id = ledger.grant(terms(3, 0, 10.0), 100.0).id;
        let evicted = ledger.evict(0, 104.0);
        assert_eq!(evicted.lease.id, id);
        assert_eq!(evicted.burned_seconds, 4.0);
        assert!(ledger.active(0).is_none(), "eviction frees the device");
        // The stale completion event for the evicted lease is a no-op...
        assert_eq!(ledger.complete(0, id), None);
        // ...even when another lease has since taken the device.
        let id2 = ledger.grant(terms(4, 0, 3.0), 104.0).id;
        assert_eq!(ledger.complete(0, id), None);
        assert_eq!(
            ledger.active(0).unwrap().id,
            id2,
            "stale id touched nothing"
        );
        assert!(ledger.complete(0, id2).is_some());
    }

    #[test]
    #[should_panic(expected = "already leased")]
    fn double_grant_rejected() {
        let mut ledger = LeaseLedger::new(1);
        ledger.grant(terms(0, 0, 1.0), 0.0);
        ledger.grant(terms(1, 0, 1.0), 0.5);
    }

    #[test]
    fn urgency_rules() {
        let normal = Urgency {
            priority: 0,
            deadline_imminent: false,
        };
        let high = Urgency {
            priority: 2,
            deadline_imminent: false,
        };
        let imminent = Urgency {
            priority: 0,
            deadline_imminent: true,
        };
        assert!(high.may_preempt(&normal));
        assert!(!normal.may_preempt(&high));
        assert!(!normal.may_preempt(&normal), "equal urgency never preempts");
        assert!(
            imminent.may_preempt(&normal),
            "deadline pressure breaks ties"
        );
        assert!(!imminent.may_preempt(&imminent), "both imminent: no churn");
        assert!(
            !imminent.may_preempt(&high),
            "imminence cannot jump priority"
        );
        assert!(high.may_preempt(&imminent), "priority still dominates");
    }
}
