//! Intermediate-value clustering for restart triage (Sec. IV-C/IV-H).
//!
//! The paper observes (Fig. 6) that restarts which eventually reach the
//! global optimum already cluster together in their intermediate expectation
//! values (~40 % through training). Qoncord therefore clusters the
//! intermediate values on the cheap device and promotes only the
//! best-performing cluster to higher-fidelity hardware.

/// Result of a 1-D k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Cluster index per input value.
    pub assignments: Vec<usize>,
    /// Cluster centroids.
    pub centroids: Vec<f64>,
}

impl Clustering {
    /// Indices of inputs assigned to `cluster`.
    pub fn members(&self, cluster: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == cluster)
            .map(|(i, _)| i)
            .collect()
    }

    /// The cluster with the lowest centroid (best for minimization).
    fn best_cluster(&self) -> usize {
        self.centroids
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite centroids"))
            .map(|(i, _)| i)
            .expect("at least one cluster")
    }
}

/// Lloyd's k-means in one dimension with quantile-spread initialization.
///
/// # Panics
///
/// Panics if `values` is empty, `k == 0`, or `k > values.len()`.
pub fn kmeans_1d(values: &[f64], k: usize, max_iters: usize) -> Clustering {
    assert!(!values.is_empty(), "need at least one value");
    assert!(k > 0 && k <= values.len(), "k must be in 1..=len");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    // Initialize centroids at evenly spaced quantiles.
    let mut centroids: Vec<f64> = (0..k)
        .map(|i| {
            let pos = (i as f64 + 0.5) / k as f64 * (sorted.len() - 1) as f64;
            sorted[pos.round() as usize]
        })
        .collect();
    let mut assignments = vec![0usize; values.len()];
    for _ in 0..max_iters {
        // Assign.
        let mut changed = false;
        for (i, &v) in values.iter().enumerate() {
            let nearest = centroids
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    (v - a.1)
                        .abs()
                        .partial_cmp(&(v - b.1).abs())
                        .expect("finite")
                })
                .map(|(c, _)| c)
                .expect("k >= 1");
            if assignments[i] != nearest {
                assignments[i] = nearest;
                changed = true;
            }
        }
        // Update.
        for c in 0..k {
            let members: Vec<f64> = values
                .iter()
                .zip(&assignments)
                .filter(|(_, &a)| a == c)
                .map(|(&v, _)| v)
                .collect();
            if !members.is_empty() {
                centroids[c] = members.iter().sum::<f64>() / members.len() as f64;
            }
        }
        if !changed {
            break;
        }
    }
    Clustering {
        assignments,
        centroids,
    }
}

/// How Qoncord selects restarts to promote after exploration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionPolicy {
    /// Promote the members of the best intermediate-value cluster (the
    /// paper's scheme).
    TopCluster,
    /// Promote the k best restarts by raw intermediate value (the ablation
    /// of DESIGN.md item 3).
    TopK(usize),
    /// Promote everything (no triage).
    All,
}

impl SelectionPolicy {
    /// Upper bound on how many of `n_restarts` restarts can survive triage
    /// under this policy (TopCluster is data-dependent, so its bound is the
    /// full restart count). Capacity planners — e.g. the orchestrator's
    /// fine-tuning shard fan-out — size by this instead of the raw restart
    /// count, since only survivors ever fine-tune.
    pub fn max_survivors(&self, n_restarts: usize) -> usize {
        match self {
            SelectionPolicy::TopK(k) => (*k).clamp(1, n_restarts.max(1)),
            SelectionPolicy::TopCluster | SelectionPolicy::All => n_restarts,
        }
    }
}

/// Minimum centroid separation, relative to the mean |value|, for the triage
/// to act; closer clusters mean the restarts are statistically
/// indistinguishable and all are kept.
const MIN_CLUSTER_SEPARATION: f64 = 0.05;

/// Absolute floor on centroid separation (in expectation-value units) below
/// which triage never acts.
const MIN_ABS_SEPARATION: f64 = 0.02;

/// Selects the restart indices to promote, given per-restart intermediate
/// expectation values (lower = better).
///
/// With [`SelectionPolicy::TopCluster`], values are split by 2-means; if the
/// centroids are closer than 5 % of the mean |value| (and never less than
/// 0.02), everything is promoted.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn select_restarts(values: &[f64], policy: SelectionPolicy) -> Vec<usize> {
    assert!(!values.is_empty(), "no restarts to select from");
    match policy {
        SelectionPolicy::All => (0..values.len()).collect(),
        SelectionPolicy::TopK(k) => {
            let mut indexed: Vec<(usize, f64)> = values.iter().copied().enumerate().collect();
            indexed.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite values"));
            indexed.into_iter().take(k.max(1)).map(|(i, _)| i).collect()
        }
        SelectionPolicy::TopCluster => {
            if values.len() < 4 {
                return (0..values.len()).collect();
            }
            let clustering = kmeans_1d(values, 2, 50);
            let mean_abs = values.iter().map(|v| v.abs()).sum::<f64>() / values.len() as f64;
            let spread = values.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
                - values.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            let separation = (clustering.centroids[0] - clustering.centroids[1]).abs();
            // Two scales: a magnitude-relative floor for well-resolved
            // landscapes, tightened to the observed spread when noise
            // compresses all restarts into a narrow band.
            let required = (MIN_CLUSTER_SEPARATION * mean_abs)
                .min(0.5 * spread)
                .max(MIN_ABS_SEPARATION);
            if separation < required {
                return (0..values.len()).collect();
            }
            let best = clustering.best_cluster();
            let members = clustering.members(best);
            if members.is_empty() {
                (0..values.len()).collect()
            } else {
                members
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmeans_separates_two_blobs() {
        let values = [-6.9, -6.8, -7.0, -3.1, -3.0, -2.9];
        let c = kmeans_1d(&values, 2, 100);
        let good = c.best_cluster();
        let members = c.members(good);
        assert_eq!(members, vec![0, 1, 2]);
        assert!((c.centroids[good] + 6.9).abs() < 0.1);
    }

    #[test]
    fn kmeans_single_cluster_is_mean() {
        let values = [1.0, 2.0, 3.0];
        let c = kmeans_1d(&values, 1, 10);
        assert!((c.centroids[0] - 2.0).abs() < 1e-12);
        assert_eq!(c.assignments, vec![0, 0, 0]);
    }

    #[test]
    fn top_cluster_promotes_good_restarts() {
        // Mirrors Fig. 13: ~19 of 50 restarts form the good cluster.
        let mut values = vec![-6.8; 19];
        values.extend(vec![-4.2; 31]);
        let selected = select_restarts(&values, SelectionPolicy::TopCluster);
        assert_eq!(selected.len(), 19);
        assert!(selected.iter().all(|&i| i < 19));
    }

    #[test]
    fn indistinguishable_values_keep_everything() {
        let values = vec![-5.0, -5.001, -4.999, -5.0005, -5.0, -4.9995];
        let selected = select_restarts(&values, SelectionPolicy::TopCluster);
        assert_eq!(selected.len(), values.len());
    }

    #[test]
    fn tiny_restart_sets_skip_triage() {
        let values = vec![-6.0, -2.0, -4.0];
        let selected = select_restarts(&values, SelectionPolicy::TopCluster);
        assert_eq!(selected.len(), 3, "fewer than 4 restarts are all kept");
    }

    #[test]
    fn top_k_selects_exactly_k_best() {
        let values = vec![-1.0, -5.0, -3.0, -4.0, -2.0];
        let selected = select_restarts(&values, SelectionPolicy::TopK(2));
        assert_eq!(selected, vec![1, 3]);
    }

    #[test]
    fn all_policy_keeps_order() {
        let values = vec![-1.0, -2.0];
        assert_eq!(select_restarts(&values, SelectionPolicy::All), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "no restarts")]
    fn empty_selection_panics() {
        select_restarts(&[], SelectionPolicy::All);
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn kmeans_k_larger_than_data_panics() {
        kmeans_1d(&[1.0], 2, 10);
    }
}
