//! The P_correct execution-fidelity estimator (Eq. 1 of the paper).
//!
//! ```text
//! P_correct = exp(−CD · (µt_G1 + µt_G2)/2 / T_eff)
//!             · (1 − γ)^G1 · (1 − β)^G2 · (1 − ω)^M
//! ```
//!
//! where `CD` is circuit depth, `µt_G1/µt_G2` the average single-/two-qubit
//! gate latencies, `γ/β/ω` the single-qubit, two-qubit and measurement error
//! rates, and `G1/G2/M` the corresponding operation counts. The paper writes
//! the decoherence denominator as `T1 T2`; for dimensional consistency we use
//! the geometric mean `T_eff = √(T1·T2)` (a common reading of the EQC
//! formula the paper cites), which preserves the estimator's ordering across
//! devices — the only property Qoncord consumes.

use crate::calibration::Calibration;
use qoncord_circuit::transpile::CircuitStats;

/// Qoncord's default minimum acceptable execution fidelity (Sec. IV-E):
/// device/task pairs estimated below this are excluded.
pub const MIN_FIDELITY_THRESHOLD: f64 = 0.1;

/// Estimates P_correct for a transpiled circuit on a device.
///
/// # Examples
///
/// ```
/// use qoncord_device::catalog;
/// use qoncord_device::fidelity::p_correct;
/// use qoncord_circuit::transpile::CircuitStats;
///
/// let stats = CircuitStats { n_1q: 40, n_2q: 15, depth: 30, swaps_inserted: 0, n_measured: 7 };
/// let hf = p_correct(&catalog::ibmq_kolkata(), &stats);
/// let lf = p_correct(&catalog::ibmq_toronto(), &stats);
/// assert!(hf > lf, "higher-fidelity device must score higher");
/// ```
pub fn p_correct(cal: &Calibration, stats: &CircuitStats) -> f64 {
    let mean_gate_ns = 0.5 * (cal.gate_time_1q_ns() + cal.gate_time_2q_ns());
    let t_eff_ns = (cal.t1_us() * cal.t2_us()).sqrt() * 1e3;
    let decoherence = (-(stats.depth as f64) * mean_gate_ns / t_eff_ns).exp();
    let gates_1q = (1.0 - cal.error_1q()).powi(stats.n_1q as i32);
    let gates_2q = (1.0 - cal.error_2q()).powi(stats.n_2q as i32);
    let readout = (1.0 - cal.readout_error()).powi(stats.n_measured as i32);
    decoherence * gates_1q * gates_2q * readout
}

/// Ranks devices by estimated execution fidelity, ascending (Qoncord's
/// exploration→fine-tune order), dropping devices below
/// [`MIN_FIDELITY_THRESHOLD`] or too small for the circuit.
///
/// Returns indices into `devices` paired with their estimates.
pub fn rank_devices(devices: &[Calibration], stats: &CircuitStats) -> Vec<(usize, f64)> {
    let mut ranked: Vec<(usize, f64)> = devices
        .iter()
        .enumerate()
        .filter(|(_, d)| d.n_qubits() >= stats.n_measured)
        .map(|(i, d)| (i, p_correct(d, stats)))
        .filter(|&(_, f)| f >= MIN_FIDELITY_THRESHOLD)
        .collect();
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("fidelities are finite"));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn qaoa_stats(layers: usize) -> CircuitStats {
        // Representative 7-qubit Erdős–Rényi QAOA footprint after Falcon
        // transpilation: ~10 edges → ~21 CX plus routing SWAPs per layer.
        CircuitStats {
            n_1q: 60 * layers,
            n_2q: 45 * layers,
            depth: 50 * layers,
            swaps_inserted: 8 * layers,
            n_measured: 7,
        }
    }

    #[test]
    fn fidelity_in_unit_interval() {
        for layers in 1..=3 {
            for cal in catalog::fig8_devices() {
                let f = p_correct(&cal, &qaoa_stats(layers));
                assert!((0.0..=1.0).contains(&f), "{f} out of range");
            }
        }
    }

    #[test]
    fn fidelity_decreases_with_layers() {
        let cal = catalog::ibmq_kolkata();
        let f1 = p_correct(&cal, &qaoa_stats(1));
        let f2 = p_correct(&cal, &qaoa_stats(2));
        let f3 = p_correct(&cal, &qaoa_stats(3));
        assert!(f1 > f2 && f2 > f3, "{f1} {f2} {f3}");
    }

    #[test]
    fn kolkata_beats_toronto() {
        let s = qaoa_stats(1);
        assert!(p_correct(&catalog::ibmq_kolkata(), &s) > p_correct(&catalog::ibmq_toronto(), &s));
    }

    #[test]
    fn toronto_fails_threshold_at_three_layers() {
        // Mirrors the paper's Fig. 8: Toronto's estimate collapses below 0.1
        // by layer 3 while better devices stay above it.
        let s = qaoa_stats(3);
        assert!(p_correct(&catalog::ibmq_toronto(), &s) < MIN_FIDELITY_THRESHOLD);
        assert!(p_correct(&catalog::ibm_hanoi(), &s) >= MIN_FIDELITY_THRESHOLD);
    }

    #[test]
    fn rank_orders_ascending_and_filters() {
        let devices = vec![
            catalog::ibmq_toronto(),
            catalog::ibmq_kolkata(),
            catalog::ibm_hanoi(),
        ];
        let ranked = rank_devices(&devices, &qaoa_stats(1));
        assert!(!ranked.is_empty());
        for w in ranked.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // The best estimate must be Hanoi's.
        assert_eq!(ranked.last().unwrap().0, 2);
    }

    #[test]
    fn rank_skips_too_small_devices() {
        let devices = vec![catalog::ibm_nairobi(), catalog::ibmq_kolkata()];
        let mut stats = qaoa_stats(1);
        stats.n_measured = 9; // 9-qubit task cannot fit Nairobi's 7 qubits
        let ranked = rank_devices(&devices, &stats);
        assert!(ranked.iter().all(|&(i, _)| i == 1));
    }

    #[test]
    fn empty_circuit_has_perfect_fidelity() {
        let stats = CircuitStats::default();
        let f = p_correct(&catalog::ibmq_kolkata(), &stats);
        assert!((f - 1.0).abs() < 1e-12);
    }
}
