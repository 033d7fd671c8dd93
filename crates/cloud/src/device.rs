//! Simulated cloud devices with interval-based schedules.
//!
//! A device's timeline is a sorted list of busy intervals. Jobs placed
//! behind a runtime session's think-time gaps can fill those gaps
//! (first-fit), reproducing the interleaving the paper's Sec. V-F workload
//! model calls for.

/// A quantum device as the queue simulator sees it: a fidelity, a speed,
/// and a busy-interval schedule.
///
/// # Examples
///
/// ```
/// use qoncord_cloud::device::CloudDevice;
///
/// let mut dev = CloudDevice::new(0, 0.9, 1.0);
/// let s1 = dev.schedule(0.0, 5.0);
/// assert_eq!(s1, 0.0);
/// let s2 = dev.schedule(0.0, 3.0); // queues behind the first
/// assert_eq!(s2, 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct CloudDevice {
    id: usize,
    fidelity: f64,
    speed: f64,
    /// Sorted, non-overlapping busy intervals `(start, end)`.
    busy: Vec<(f64, f64)>,
    completed_circuits: u64,
}

impl CloudDevice {
    /// Creates a device with the given execution fidelity and relative
    /// speed (1.0 = reference; larger = faster).
    ///
    /// # Panics
    ///
    /// Panics if fidelity is outside `(0, 1]` or speed is not positive.
    pub fn new(id: usize, fidelity: f64, speed: f64) -> Self {
        assert!(fidelity > 0.0 && fidelity <= 1.0, "fidelity in (0,1]");
        assert!(speed > 0.0, "speed must be positive");
        CloudDevice {
            id,
            fidelity,
            speed,
            busy: Vec::new(),
            completed_circuits: 0,
        }
    }

    /// Device id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Execution fidelity.
    pub fn fidelity(&self) -> f64 {
        self.fidelity
    }

    /// Relative speed.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Wall-clock duration of `reference_seconds` of work on this device.
    pub fn scaled_duration(&self, reference_seconds: f64) -> f64 {
        reference_seconds / self.speed
    }

    /// Earliest start for a block of `duration` seconds at or after
    /// `earliest`, considering gap filling; does **not** commit.
    fn earliest_start(&self, earliest: f64, duration: f64) -> f64 {
        let mut candidate = earliest;
        for &(start, end) in &self.busy {
            if candidate + duration <= start {
                return candidate;
            }
            candidate = candidate.max(end);
        }
        candidate
    }

    /// Commits a block of `duration` seconds at or after `earliest`,
    /// first-fit into schedule gaps. Returns the start time.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative.
    pub fn schedule(&mut self, earliest: f64, duration: f64) -> f64 {
        assert!(duration >= 0.0, "duration must be non-negative");
        let start = self.earliest_start(earliest, duration);
        let end = start + duration;
        let pos = self
            .busy
            .iter()
            .position(|&(s, _)| s > start)
            .unwrap_or(self.busy.len());
        self.busy.insert(pos, (start, end));
        // Merge touching neighbors to keep the list compact.
        self.coalesce();
        start
    }

    /// Merges touching neighbors in place: `kept` intervals survive at the
    /// front, each absorbing the later ones that start before it ends.
    fn coalesce(&mut self) {
        let mut kept = 0;
        for i in 0..self.busy.len() {
            let (s, e) = self.busy[i];
            if kept > 0 && s <= self.busy[kept - 1].1 + 1e-12 {
                let last = &mut self.busy[kept - 1];
                last.1 = last.1.max(e);
            } else {
                self.busy[kept] = (s, e);
                kept += 1;
            }
        }
        self.busy.truncate(kept);
    }

    /// Drops every committed busy interval, keeping the buffer, so one
    /// device view can be reloaded per decision without allocating.
    pub fn clear_schedule(&mut self) {
        self.busy.clear();
    }

    /// Records `n` completed circuit executions.
    pub fn record_circuits(&mut self, n: u64) {
        self.completed_circuits += n;
    }

    /// Total completed circuit executions.
    pub fn completed_circuits(&self) -> u64 {
        self.completed_circuits
    }

    /// Total busy seconds committed so far.
    pub fn busy_time(&self) -> f64 {
        self.busy.iter().map(|&(s, e)| e - s).sum()
    }

    /// Time the last committed block ends (0 when idle forever).
    pub fn horizon(&self) -> f64 {
        self.busy.last().map(|&(_, e)| e).unwrap_or(0.0)
    }

    /// Pending load: busy seconds committed at or after `now`.
    pub fn load_after(&self, now: f64) -> f64 {
        self.busy
            .iter()
            .map(|&(s, e)| (e - s.max(now)).max(0.0))
            .sum()
    }
}

/// Builds the paper's Fig. 12 fleet: `n` hypothetical devices with
/// fidelities evenly spaced over `[lo, hi]` and unit speed.
///
/// # Panics
///
/// Panics if `n < 2` or the fidelity bounds are invalid.
pub fn hypothetical_fleet(n: usize, lo: f64, hi: f64) -> Vec<CloudDevice> {
    assert!(n >= 2, "need at least two devices");
    assert!(0.0 < lo && lo <= hi && hi <= 1.0, "bad fidelity range");
    (0..n)
        .map(|i| {
            let f = lo + (hi - lo) * i as f64 / (n - 1) as f64;
            CloudDevice::new(i, f, 1.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_fifo_when_contended() {
        let mut d = CloudDevice::new(0, 0.5, 1.0);
        assert_eq!(d.schedule(0.0, 10.0), 0.0);
        assert_eq!(d.schedule(0.0, 5.0), 10.0);
        assert_eq!(d.horizon(), 15.0);
    }

    #[test]
    fn gap_filling_first_fit() {
        let mut d = CloudDevice::new(0, 0.5, 1.0);
        d.schedule(0.0, 2.0); // [0,2)
        d.schedule(10.0, 2.0); // [10,12)

        // A 3-second block fits in the [2,10) gap.
        assert_eq!(d.schedule(0.0, 3.0), 2.0);
        // A 9-second block does not; it goes after the horizon.
        assert_eq!(d.schedule(0.0, 9.0), 12.0);
    }

    #[test]
    fn earliest_start_respects_release_time() {
        let mut d = CloudDevice::new(0, 0.5, 1.0);
        d.schedule(0.0, 2.0);
        assert_eq!(d.earliest_start(5.0, 1.0), 5.0);
        assert_eq!(d.earliest_start(1.0, 1.0), 2.0);
    }

    #[test]
    fn speed_scales_duration() {
        let d = CloudDevice::new(0, 0.5, 2.0);
        assert!((d.scaled_duration(10.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn load_after_ignores_past() {
        let mut d = CloudDevice::new(0, 0.5, 1.0);
        d.schedule(0.0, 4.0);
        d.schedule(0.0, 4.0); // [4,8)
        assert!((d.load_after(4.0) - 4.0).abs() < 1e-12);
        assert!((d.load_after(0.0) - 8.0).abs() < 1e-12);
        assert_eq!(d.load_after(100.0), 0.0);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut d = CloudDevice::new(0, 0.5, 1.0);
        d.schedule(0.0, 3.0);
        d.schedule(10.0, 2.0);
        assert!((d.busy_time() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn fleet_spans_fidelity_range() {
        let fleet = hypothetical_fleet(10, 0.3, 0.9);
        assert_eq!(fleet.len(), 10);
        assert!((fleet[0].fidelity() - 0.3).abs() < 1e-12);
        assert!((fleet[9].fidelity() - 0.9).abs() < 1e-12);
        assert!(fleet.windows(2).all(|w| w[0].fidelity() < w[1].fidelity()));
    }

    #[test]
    #[should_panic(expected = "fidelity in (0,1]")]
    fn zero_fidelity_rejected() {
        CloudDevice::new(0, 0.0, 1.0);
    }
}
