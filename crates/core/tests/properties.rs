//! Property-based tests of the scheduler's decision components.

use proptest::prelude::*;
use qoncord_core::cluster::{kmeans_1d, select_restarts, SelectionPolicy};
use qoncord_core::convergence::{ConvergenceChecker, ConvergenceConfig, ConvergenceStatus};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Selection always returns a non-empty subset of valid indices.
    #[test]
    fn selection_returns_valid_subset(values in proptest::collection::vec(-10.0..0.0f64, 1..40)) {
        for policy in [SelectionPolicy::TopCluster, SelectionPolicy::TopK(3), SelectionPolicy::All] {
            let selected = select_restarts(&values, policy);
            prop_assert!(!selected.is_empty());
            prop_assert!(selected.iter().all(|&i| i < values.len()));
            // No duplicates.
            let mut s = selected.clone();
            s.sort_unstable();
            s.dedup();
            prop_assert_eq!(s.len(), selected.len());
        }
    }

    /// The best restart (minimum value) always survives every policy.
    #[test]
    fn best_restart_always_survives(values in proptest::collection::vec(-10.0..0.0f64, 4..40)) {
        let best = values
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        for policy in [SelectionPolicy::TopCluster, SelectionPolicy::TopK(1), SelectionPolicy::All] {
            let selected = select_restarts(&values, policy);
            prop_assert!(selected.contains(&best), "{policy:?} dropped the best restart");
        }
    }

    /// K-means assignments reference valid centroids and every non-empty
    /// cluster's centroid lies within the data range.
    #[test]
    fn kmeans_invariants(values in proptest::collection::vec(-5.0..5.0f64, 2..50)) {
        let c = kmeans_1d(&values, 2, 50);
        prop_assert_eq!(c.assignments.len(), values.len());
        prop_assert!(c.assignments.iter().all(|&a| a < 2));
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for k in 0..2 {
            if !c.members(k).is_empty() {
                prop_assert!((lo - 1e-9..=hi + 1e-9).contains(&c.centroids[k]));
            }
        }
    }

    /// A constant signal always saturates once past min_iterations.
    #[test]
    fn flat_signal_always_saturates(e in -10.0..0.0f64, s in 0.0..4.0f64) {
        let mut checker = ConvergenceChecker::new(ConvergenceConfig::relaxed());
        let mut fired_at = None;
        for i in 0..40 {
            if checker.observe(e, s) == ConvergenceStatus::Saturated {
                fired_at = Some(i);
                break;
            }
        }
        prop_assert!(fired_at.is_some());
        prop_assert!(fired_at.unwrap() >= 7, "cannot fire before min_iterations");
    }
}
