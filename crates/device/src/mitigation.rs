//! Error-mitigation modes for the paper's Fig. 3 trade-off study.
//!
//! Fig. 3 stacks mitigation techniques cumulatively — no mitigation, +DD,
//! +TREX, +Twirling, +ZNE — and shows expectation values approaching the
//! ideal while execution latency grows (ZNE alone costs ~3× latency for a
//! 57–70 % error reduction).
//!
//! **Substitution note (see DESIGN.md):** the paper measures these modes on
//! a 50-qubit ansatz on real hardware. We model each technique by its
//! *effect*: a scale on gate noise, a scale on readout noise, and a latency
//! multiplier, calibrated to the effect sizes the paper reports. The
//! simulated trade-off *shape* (fidelity ↑ with latency ↑) is what Fig. 3
//! demonstrates and what downstream scheduling consumes.

use crate::noise_model::NoiseModel;

/// A single error-mitigation technique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mitigation {
    /// Dynamical decoupling: suppresses idle-time decoherence.
    DynamicalDecoupling,
    /// Twirled readout error extinction: removes readout bias at the cost of
    /// calibration circuits.
    Trex,
    /// Gate (Pauli) twirling: converts coherent errors into stochastic ones.
    Twirling,
    /// Zero-noise extrapolation: amplify-and-extrapolate; large latency cost.
    ZeroNoiseExtrapolation,
}

impl Mitigation {
    /// Multiplier on gate (depolarizing) noise.
    fn gate_error_scale(self) -> f64 {
        match self {
            Mitigation::DynamicalDecoupling => 0.85,
            Mitigation::Trex => 1.0,
            Mitigation::Twirling => 0.90,
            // The paper reports a 57–70 % error reduction for ZNE; model the midpoint.
            Mitigation::ZeroNoiseExtrapolation => 0.35,
        }
    }

    /// Multiplier on readout noise.
    fn readout_error_scale(self) -> f64 {
        match self {
            Mitigation::DynamicalDecoupling => 1.0,
            Mitigation::Trex => 0.12,
            Mitigation::Twirling => 1.0,
            Mitigation::ZeroNoiseExtrapolation => 1.0,
        }
    }

    /// Multiplier on execution latency.
    pub fn latency_multiplier(self) -> f64 {
        match self {
            Mitigation::DynamicalDecoupling => 1.05,
            Mitigation::Trex => 1.30,
            Mitigation::Twirling => 1.30,
            Mitigation::ZeroNoiseExtrapolation => 3.0,
        }
    }

    /// Short display name.
    pub fn label(self) -> &'static str {
        match self {
            Mitigation::DynamicalDecoupling => "DD",
            Mitigation::Trex => "TREX",
            Mitigation::Twirling => "Twirling",
            Mitigation::ZeroNoiseExtrapolation => "ZNE",
        }
    }
}

/// A cumulative stack of mitigation techniques, applied in order.
///
/// # Examples
///
/// ```
/// use qoncord_device::mitigation::{Mitigation, MitigationStack};
///
/// let stack = MitigationStack::fig3_level(4); // + DD + TREX + Twirling + ZNE
/// assert!(stack.latency_multiplier() > 3.0);
/// assert_eq!(stack.label(), "+DD+TREX+Twirling+ZNE");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MitigationStack {
    techniques: Vec<Mitigation>,
}

impl MitigationStack {
    /// An empty stack (no mitigation).
    pub fn none() -> Self {
        MitigationStack::default()
    }

    /// Builds a stack from techniques applied in order.
    pub fn new(techniques: Vec<Mitigation>) -> Self {
        MitigationStack { techniques }
    }

    /// The cumulative stacks of Fig. 3, by level: 0 = no mitigation,
    /// 1 = +DD, 2 = +TREX, 3 = +Twirling, 4 = +ZNE.
    ///
    /// # Panics
    ///
    /// Panics if `level > 4`.
    pub fn fig3_level(level: usize) -> Self {
        assert!(level <= 4, "Fig. 3 has five levels (0..=4)");
        let order = [
            Mitigation::DynamicalDecoupling,
            Mitigation::Trex,
            Mitigation::Twirling,
            Mitigation::ZeroNoiseExtrapolation,
        ];
        MitigationStack {
            techniques: order[..level].to_vec(),
        }
    }

    /// Combined gate-error scale (product over the stack).
    fn gate_error_scale(&self) -> f64 {
        self.techniques
            .iter()
            .map(|t| t.gate_error_scale())
            .product()
    }

    /// Combined readout-error scale.
    fn readout_error_scale(&self) -> f64 {
        self.techniques
            .iter()
            .map(|t| t.readout_error_scale())
            .product()
    }

    /// Combined latency multiplier.
    pub fn latency_multiplier(&self) -> f64 {
        self.techniques
            .iter()
            .map(|t| t.latency_multiplier())
            .product()
    }

    /// Applies the stack to a noise model.
    pub fn apply(&self, noise: &NoiseModel) -> NoiseModel {
        noise.scaled(self.gate_error_scale(), self.readout_error_scale())
    }

    /// Human-readable label, e.g. `"+DD+TREX"`.
    pub fn label(&self) -> String {
        if self.techniques.is_empty() {
            "No Mitigation".to_owned()
        } else {
            self.techniques
                .iter()
                .map(|t| format!("+{}", t.label()))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn levels_monotonically_improve_fidelity_and_cost_latency() {
        let base = NoiseModel::from_calibration(&catalog::ibmq_toronto());
        let mut last_gate = f64::INFINITY;
        let mut last_latency = 0.0;
        for level in 0..=4 {
            let stack = MitigationStack::fig3_level(level);
            let nm = stack.apply(&base);
            assert!(
                nm.dep_2q <= last_gate + 1e-15,
                "gate noise must not increase with stacking"
            );
            assert!(stack.latency_multiplier() >= last_latency);
            last_gate = nm.dep_2q;
            last_latency = stack.latency_multiplier();
        }
    }

    #[test]
    fn zne_reduces_error_57_to_70_percent() {
        let scale = Mitigation::ZeroNoiseExtrapolation.gate_error_scale();
        assert!(
            (0.30..=0.43).contains(&scale),
            "1-scale in paper's 57-70 % band"
        );
        assert!((Mitigation::ZeroNoiseExtrapolation.latency_multiplier() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn trex_targets_readout_only() {
        let t = Mitigation::Trex;
        assert_eq!(t.gate_error_scale(), 1.0);
        assert!(t.readout_error_scale() < 0.5);
    }

    #[test]
    fn labels() {
        assert_eq!(MitigationStack::none().label(), "No Mitigation");
        assert_eq!(MitigationStack::fig3_level(2).label(), "+DD+TREX");
    }

    #[test]
    #[should_panic(expected = "five levels")]
    fn level_out_of_range_panics() {
        let _ = MitigationStack::fig3_level(5);
    }

    #[test]
    fn full_stack_latency_exceeds_three_x() {
        assert!(MitigationStack::fig3_level(4).latency_multiplier() > 3.0);
    }
}
