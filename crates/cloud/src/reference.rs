//! The retained linear-scan fair-share queue — the behavioral oracle.
//!
//! This is the original (pre-index) implementation of
//! [`FairShareQueue`](crate::fairshare::FairShareQueue), kept verbatim so
//! the indexed rewrite stays honest: the equivalence property tests in
//! `tests/properties.rs` drive both queues through random op interleavings
//! and assert bit-identical pop sequences and balances, and the
//! `fleet_scale` bench measures the indexed queue's speedup against this
//! one. It is *not* a production path — every pop rescans the whole queue
//! and every cancellation shifts the pending tail.
//!
//! The seed knew nothing of devices, so its API is untargeted: one `push`,
//! predicate pops and cancels. The indexed queue keeps only the
//! device-bound calls the orchestrator makes, and the tests keep each
//! request's device on the side and express a device pop as
//! `pop_where` over the requests bound to that device — what the seed
//! orchestrator did.
//!
//! Two deliberate contract differences versus the indexed queue, both on
//! paths the oracle comparison never exercises: `push` is infallible (the
//! seed accepted non-finite requests and panicked later inside the pop
//! comparator — the indexed queue instead rejects them at push time), and
//! duplicate ids are not detected.

use std::collections::HashMap;

use crate::fairshare::{FairShareError, QueuedRequest, UserUsage, WEIGHTS};

/// The original `O(n)`-per-op fair-share queue, retained as a reference.
#[derive(Debug, Clone, Default)]
pub struct ReferenceFairShareQueue {
    usage: HashMap<String, UserUsage>,
    pending: Vec<QueuedRequest>,
}

impl ReferenceFairShareQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ReferenceFairShareQueue::default()
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Returns `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Records `seconds` of consumption against `user`'s share.
    ///
    /// # Errors
    ///
    /// Returns [`FairShareError::InvalidSeconds`] when `seconds` is negative
    /// or not finite.
    pub fn record_usage(&mut self, user: &str, seconds: f64) -> Result<(), FairShareError> {
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(FairShareError::InvalidSeconds(seconds));
        }
        self.usage
            .entry(user.to_owned())
            .or_default()
            .consumed_seconds += seconds;
        Ok(())
    }

    /// Grants `user` a fair-share credit of `seconds`.
    ///
    /// # Errors
    ///
    /// Returns [`FairShareError::InvalidSeconds`] when `seconds` is negative
    /// or not finite.
    pub fn credit_usage(&mut self, user: &str, seconds: f64) -> Result<(), FairShareError> {
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(FairShareError::InvalidSeconds(seconds));
        }
        self.usage
            .entry(user.to_owned())
            .or_default()
            .consumed_seconds -= seconds;
        Ok(())
    }

    /// Ages all users' consumption by `factor`.
    ///
    /// # Errors
    ///
    /// Returns [`FairShareError::DecayFactorOutOfRange`] when `factor` is
    /// outside `[0, 1]` or not finite.
    pub fn decay_usage(&mut self, factor: f64) -> Result<(), FairShareError> {
        if !(factor.is_finite() && (0.0..=1.0).contains(&factor)) {
            return Err(FairShareError::DecayFactorOutOfRange(factor));
        }
        for u in self.usage.values_mut() {
            u.consumed_seconds *= factor;
        }
        Ok(())
    }

    /// Current usage record for a user.
    pub fn usage(&self, user: &str) -> UserUsage {
        self.usage.get(user).copied().unwrap_or_default()
    }

    /// Iterates every user the queue has accounted, with their usage
    /// (arbitrary order).
    pub fn balances(&self) -> impl Iterator<Item = (&str, UserUsage)> {
        self.usage
            .iter()
            .map(|(user, usage)| (user.as_str(), *usage))
    }

    /// Iterates the pending requests in insertion order.
    pub fn pending(&self) -> impl Iterator<Item = &QueuedRequest> {
        self.pending.iter()
    }

    /// Enqueues a request and bumps the user's in-flight count.
    pub fn push(&mut self, request: QueuedRequest) {
        self.usage
            .entry(request.user.clone())
            .or_default()
            .jobs_in_flight += 1;
        self.pending.push(request);
    }

    /// Fair-share score of a request: lower dequeues sooner.
    pub fn score(&self, request: &QueuedRequest) -> f64 {
        let usage = self.usage(&request.user);
        WEIGHTS.usage * usage.consumed_seconds
            + WEIGHTS.in_flight * usage.jobs_in_flight as f64
            + WEIGHTS.request_size * request.requested_seconds
    }

    /// Dequeues the request with the lowest score (FIFO on ties) and
    /// releases its in-flight slot.
    pub fn pop(&mut self) -> Option<QueuedRequest> {
        self.pop_where(|_| true)
    }

    /// Dequeues the lowest-score request among those matching `pred` (FIFO
    /// on ties), releasing its in-flight slot — via a full filtered
    /// min-scan, the behavior the indexed queue must reproduce.
    pub fn pop_where(&mut self, pred: impl Fn(&QueuedRequest) -> bool) -> Option<QueuedRequest> {
        let best = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, r)| pred(r))
            .min_by(|a, b| {
                let sa = self.score(a.1);
                let sb = self.score(b.1);
                sa.partial_cmp(&sb).expect("finite scores").then(
                    a.1.submitted_at
                        .partial_cmp(&b.1.submitted_at)
                        .expect("finite times"),
                )
            })
            .map(|(i, _)| i)?;
        let request = self.pending.remove(best);
        if let Some(u) = self.usage.get_mut(&request.user) {
            u.jobs_in_flight = u.jobs_in_flight.saturating_sub(1);
        }
        Some(request)
    }

    /// Requeues a request with a fair-share credit of `burned_seconds`.
    ///
    /// # Errors
    ///
    /// Returns [`FairShareError::InvalidSeconds`] when `burned_seconds` is
    /// negative or not finite; the request is not enqueued in that case.
    pub fn requeue_with_credit(
        &mut self,
        request: QueuedRequest,
        burned_seconds: f64,
    ) -> Result<(), FairShareError> {
        self.credit_usage(&request.user, burned_seconds)?;
        self.push(request);
        Ok(())
    }

    /// Removes every request matching `pred`, releasing the in-flight
    /// slots; returns the cancelled requests in queue order. This is the
    /// seed's quadratic `Vec::remove`-in-a-loop, kept as-is: the oracle
    /// must preserve the original behavior, inefficiency included.
    pub fn cancel_where(&mut self, pred: impl Fn(&QueuedRequest) -> bool) -> Vec<QueuedRequest> {
        let mut cancelled = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if pred(&self.pending[i]) {
                cancelled.push(self.pending.remove(i));
            } else {
                i += 1;
            }
        }
        for request in &cancelled {
            if let Some(u) = self.usage.get_mut(&request.user) {
                u.jobs_in_flight = u.jobs_in_flight.saturating_sub(1);
            }
        }
        cancelled
    }

    /// Drains the queue in fair-share order.
    pub fn drain_ordered(&mut self) -> Vec<QueuedRequest> {
        let mut out = Vec::with_capacity(self.pending.len());
        while let Some(r) = self.pop() {
            out.push(r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: usize, user: &str, seconds: f64, at: f64) -> QueuedRequest {
        QueuedRequest {
            id,
            user: user.into(),
            requested_seconds: seconds,
            submitted_at: at,
        }
    }

    #[test]
    fn reference_keeps_the_seed_ordering_contract() {
        let mut q = ReferenceFairShareQueue::new();
        q.record_usage("heavy", 500.0).unwrap();
        q.push(req(0, "heavy", 10.0, 0.0));
        q.push(req(1, "light", 10.0, 5.0));
        assert_eq!(q.pop().unwrap().id, 1);
        assert_eq!(q.pop().unwrap().id, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn reference_cancel_keeps_queue_order() {
        let mut q = ReferenceFairShareQueue::new();
        for i in 0..4 {
            q.push(req(i, "vqa", 10.0, i as f64));
        }
        let cancelled = q.cancel_where(|r| r.id >= 2);
        assert_eq!(cancelled.iter().map(|r| r.id).collect::<Vec<_>>(), [2, 3]);
        assert_eq!(q.usage("vqa").jobs_in_flight, 2);
    }
}
