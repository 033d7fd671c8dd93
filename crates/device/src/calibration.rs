//! Device calibration data.
//!
//! The Qoncord paper consumes *average* device characteristics (Sec. V-D
//! quotes average two-qubit gate and readout error rates), so calibrations
//! here carry scalar averages plus the coupling map. These are exactly the
//! inputs of the P_correct estimator (Eq. 1) and of the noise-model builder.

use qoncord_circuit::coupling::CouplingMap;
use qoncord_circuit::transpile::CircuitStats;
use std::sync::Arc;

/// Which physical technology a device uses; governs speed/fidelity trade-offs
/// (Sec. III-B1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technology {
    /// Superconducting transmon qubits (IBM, Rigetti): fast, noisier.
    Superconducting,
    /// Trapped ions (IonQ): slow, higher fidelity, all-to-all coupling.
    TrappedIon,
    /// Synthetic device used in sensitivity studies.
    Hypothetical,
}

/// Averaged calibration snapshot of a quantum device.
///
/// # Examples
///
/// ```
/// use qoncord_device::calibration::{Calibration, Technology};
/// use qoncord_circuit::coupling::CouplingMap;
///
/// let cal = Calibration::builder("toy", CouplingMap::linear(3))
///     .technology(Technology::Hypothetical)
///     .error_1q(0.001)
///     .error_2q(0.01)
///     .readout_error(0.02)
///     .build();
/// assert_eq!(cal.n_qubits(), 3);
/// ```
///
/// Name and coupling map are shared: a clone is two reference-count bumps.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    name: Arc<str>,
    coupling: Arc<CouplingMap>,
    technology: Technology,
    /// Average single-qubit gate error rate (probability).
    error_1q: f64,
    /// Average two-qubit gate error rate.
    error_2q: f64,
    /// Average readout assignment error.
    readout_error: f64,
    /// Average relaxation time, microseconds.
    t1_us: f64,
    /// Average dephasing time, microseconds.
    t2_us: f64,
    /// Single-qubit gate duration, nanoseconds.
    gate_time_1q_ns: f64,
    /// Two-qubit gate duration, nanoseconds.
    gate_time_2q_ns: f64,
    /// Readout duration, nanoseconds.
    readout_time_ns: f64,
}

impl Calibration {
    /// Starts building a calibration with required name and coupling map.
    pub fn builder(name: impl Into<String>, coupling: CouplingMap) -> CalibrationBuilder {
        CalibrationBuilder {
            cal: Calibration {
                name: name.into().into(),
                coupling: Arc::new(coupling),
                technology: Technology::Superconducting,
                error_1q: 3e-4,
                error_2q: 1e-2,
                readout_error: 1.5e-2,
                t1_us: 100.0,
                t2_us: 90.0,
                gate_time_1q_ns: 35.0,
                gate_time_2q_ns: 400.0,
                readout_time_ns: 750.0,
            },
        }
    }

    /// Device name (e.g. `"ibmq_kolkata"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Qubit connectivity.
    pub fn coupling(&self) -> &CouplingMap {
        &self.coupling
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.coupling.n_qubits()
    }

    /// Qubit technology.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// Average single-qubit gate error rate.
    pub fn error_1q(&self) -> f64 {
        self.error_1q
    }

    /// Average two-qubit gate error rate.
    pub fn error_2q(&self) -> f64 {
        self.error_2q
    }

    /// Average readout assignment error.
    pub fn readout_error(&self) -> f64 {
        self.readout_error
    }

    /// Average T1 (relaxation), microseconds.
    pub fn t1_us(&self) -> f64 {
        self.t1_us
    }

    /// Average T2 (dephasing), microseconds.
    pub fn t2_us(&self) -> f64 {
        self.t2_us
    }

    /// Single-qubit gate duration, nanoseconds.
    pub fn gate_time_1q_ns(&self) -> f64 {
        self.gate_time_1q_ns
    }

    /// Two-qubit gate duration, nanoseconds.
    pub fn gate_time_2q_ns(&self) -> f64 {
        self.gate_time_2q_ns
    }

    /// Serial execution time of one circuit run with `shots` repetitions,
    /// in seconds (gate latencies summed over the critical path approximated
    /// by total gate count, matching the coarse model the paper uses for
    /// throughput accounting).
    pub fn execution_time_s(&self, stats: &CircuitStats, shots: u64) -> f64 {
        let per_shot_ns = stats.n_1q as f64 * self.gate_time_1q_ns
            + stats.n_2q as f64 * self.gate_time_2q_ns
            + self.readout_time_ns;
        per_shot_ns * 1e-9 * shots as f64
    }

    /// Returns a copy renamed to `name`.
    pub fn renamed(&self, name: impl Into<String>) -> Calibration {
        let mut out = self.clone();
        out.name = name.into().into();
        out
    }
}

/// Builder for [`Calibration`] (see [`Calibration::builder`]).
#[derive(Debug, Clone)]
pub struct CalibrationBuilder {
    cal: Calibration,
}

impl CalibrationBuilder {
    /// Sets the qubit technology.
    pub fn technology(mut self, t: Technology) -> Self {
        self.cal.technology = t;
        self
    }

    /// Sets the average single-qubit gate error rate.
    ///
    /// # Panics
    ///
    /// Panics if outside `[0, 1]`.
    pub fn error_1q(mut self, e: f64) -> Self {
        assert!((0.0..=1.0).contains(&e));
        self.cal.error_1q = e;
        self
    }

    /// Sets the average two-qubit gate error rate.
    ///
    /// # Panics
    ///
    /// Panics if outside `[0, 1]`.
    pub fn error_2q(mut self, e: f64) -> Self {
        assert!((0.0..=1.0).contains(&e));
        self.cal.error_2q = e;
        self
    }

    /// Sets the average readout assignment error.
    ///
    /// # Panics
    ///
    /// Panics if outside `[0, 0.5]`.
    pub fn readout_error(mut self, e: f64) -> Self {
        assert!((0.0..=0.5).contains(&e));
        self.cal.readout_error = e;
        self
    }

    /// Sets T1/T2 in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if either is non-positive or `t2 > 2·t1`.
    pub fn coherence_us(mut self, t1: f64, t2: f64) -> Self {
        assert!(t1 > 0.0 && t2 > 0.0 && t2 <= 2.0 * t1, "unphysical T1/T2");
        self.cal.t1_us = t1;
        self.cal.t2_us = t2;
        self
    }

    /// Sets gate durations in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if any duration is non-positive.
    pub fn gate_times_ns(mut self, t_1q: f64, t_2q: f64, t_readout: f64) -> Self {
        assert!(t_1q > 0.0 && t_2q > 0.0 && t_readout > 0.0);
        self.cal.gate_time_1q_ns = t_1q;
        self.cal.gate_time_2q_ns = t_2q;
        self.cal.readout_time_ns = t_readout;
        self
    }

    /// Finishes building.
    pub fn build(self) -> Calibration {
        self.cal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Calibration {
        Calibration::builder("toy", CouplingMap::linear(4))
            .error_1q(0.001)
            .error_2q(0.02)
            .readout_error(0.03)
            .coherence_us(120.0, 100.0)
            .gate_times_ns(30.0, 300.0, 700.0)
            .build()
    }

    #[test]
    fn builder_round_trips_fields() {
        let c = toy();
        assert_eq!(c.name(), "toy");
        assert_eq!(c.n_qubits(), 4);
        assert_eq!(c.error_2q(), 0.02);
        assert_eq!(c.t1_us(), 120.0);
        assert_eq!(c.gate_time_2q_ns(), 300.0);
    }

    #[test]
    fn execution_time_scales_with_shots() {
        let c = toy();
        let stats = CircuitStats {
            n_1q: 10,
            n_2q: 5,
            depth: 8,
            swaps_inserted: 0,
            n_measured: 4,
        };
        let t1 = c.execution_time_s(&stats, 1);
        let t1000 = c.execution_time_s(&stats, 1000);
        assert!((t1000 / t1 - 1000.0).abs() < 1e-9);
        // 10*30 + 5*300 + 700 = 2500 ns
        assert!((t1 - 2.5e-6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unphysical")]
    fn bad_coherence_panics() {
        let _ = Calibration::builder("bad", CouplingMap::linear(2)).coherence_us(10.0, 50.0);
    }

    // `Arc`, not `Rc`: sharing must keep the type `Send + Sync`, as it was
    // with owned fields.
    const _: () = {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Calibration>()
    };

    #[test]
    fn renamed_copies() {
        let c = toy();
        let r = c.renamed("toy2");
        assert_eq!(r.name(), "toy2");
        assert_ne!(r, c);
        assert_eq!(r.renamed("toy"), c, "every other field carried over");
        assert!(std::ptr::eq(r.coupling(), c.coupling()));
    }

    #[test]
    fn clones_share_the_coupling_and_equality_compares_contents() {
        let a = toy();
        assert!(std::ptr::eq(a.coupling(), a.clone().coupling()));
        let b = toy();
        assert!(!std::ptr::eq(a.coupling(), b.coupling()));
        assert_eq!(a, b, "separately built from the same inputs");
    }
}
