//! The virtual-clock event queue: a deterministic min-heap over (time,
//! insertion sequence) so simultaneous events replay in submission order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A discrete event of the orchestration loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// Job `.0` arrives.
    Arrival(usize),
    /// The lease `lease` on `device` expires (its batch completes). Stale
    /// when the lease was evicted in the meantime — the engine drops
    /// expiries whose lease id no longer matches the device's active lease.
    LeaseDone {
        /// Fleet device index.
        device: usize,
        /// Lease id the expiry belongs to.
        lease: u64,
    },
}

#[derive(Debug)]
struct Entry {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are finite")
            .then(other.seq.cmp(&self.seq))
    }
}

/// Min-queue of events in virtual time, FIFO on ties.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Entry>,
    seq: u64,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is negative or not finite.
    pub(crate) fn push(&mut self, time: f64, event: Event) {
        assert!(
            time.is_finite() && time >= 0.0,
            "event time must be a non-negative finite number"
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Pops the earliest event (FIFO among simultaneous ones).
    pub(crate) fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_fifo_on_ties() {
        let done = Event::LeaseDone {
            device: 2,
            lease: 9,
        };
        let mut q = EventQueue::new();
        q.push(5.0, Event::Arrival(0));
        q.push(1.0, done);
        q.push(5.0, Event::Arrival(1));
        assert_eq!(q.pop(), Some((1.0, done)));
        assert_eq!(q.pop(), Some((5.0, Event::Arrival(0))));
        // A push at the instant just popped comes out after everything
        // already queued there: handling an event can never reorder its
        // same-instant successors.
        q.push(5.0, Event::Arrival(2));
        assert_eq!(q.pop(), Some((5.0, Event::Arrival(1))));
        assert_eq!(q.pop(), Some((5.0, Event::Arrival(2))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "event time")]
    fn infinite_time_rejected() {
        EventQueue::new().push(f64::INFINITY, Event::Arrival(0));
    }
}
