//! Evaluation metrics (Section VII-D).
//!
//! * **Target accuracy** — how well the sampler meets the `SAMPLESIZE`
//!   target: `min(target, probed) / min(target, unsampled result size)`.
//! * **Probe discretisation error (pde)** — the relative error between the
//!   per-terminal targets and what each terminal actually contributed,
//!   capturing the spatial uniformity of the answer (cached aggregates count
//!   with their cached result size).
//! * **Relative error** — of an approximate aggregate vs ground truth
//!   (Fig 7).

use crate::lookup::QueryOutput;

/// Target accuracy of a sampled query (Fig 6, left):
/// `min(target, contributed) / min(target, unsampled_result_size)`.
///
/// `unsampled_result_size` is the number of sensors in the region — what a
/// non-sampled lookup would return.
pub fn target_accuracy(target: f64, contributed: u64, unsampled_result_size: u64) -> f64 {
    let denom = target.min(unsampled_result_size as f64);
    if denom <= 0.0 {
        return 1.0;
    }
    (target.min(contributed as f64) / denom).min(1.0)
}

/// Probe discretisation error (Fig 6, right):
/// `Σ_i (target(i) − #results(i)) / target(i)` over terminals with a
/// positive target, normalised by the number of such terminals so queries of
/// different shapes are comparable.
pub fn probe_discretisation_error(out: &QueryOutput) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for g in &out.groups {
        if g.target > 0.0 {
            sum += (g.target - g.results as f64) / g.target;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Relative error `|approx − exact| / |exact|`; zero when both are zero.
pub fn relative_error(approx: f64, exact: f64) -> f64 {
    if exact == 0.0 {
        if approx == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (approx - exact).abs() / exact.abs()
    }
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::PartialAgg;
    use crate::lookup::GroupResult;
    use crate::stats::QueryStats;
    use crate::tree::NodeId;
    use colr_geo::Rect;

    fn out_with_groups(groups: Vec<(f64, u64)>) -> QueryOutput {
        QueryOutput {
            groups: groups
                .into_iter()
                .map(|(target, results)| GroupResult {
                    node: NodeId(0),
                    bbox: Rect::from_coords(0.0, 0.0, 1.0, 1.0),
                    agg: {
                        let mut a = PartialAgg::empty();
                        for _ in 0..results {
                            a.insert(1.0);
                        }
                        a
                    },
                    from_cache: false,
                    target,
                    results,
                })
                .collect(),
            readings: Vec::new(),
            stats: QueryStats::default(),
            latency_ms: 0.0,
        }
    }

    #[test]
    fn target_accuracy_perfect_when_target_met() {
        assert_eq!(target_accuracy(100.0, 100, 1_000), 1.0);
        assert_eq!(target_accuracy(100.0, 250, 1_000), 1.0); // surplus capped
    }

    #[test]
    fn target_accuracy_partial() {
        assert!((target_accuracy(100.0, 93, 1_000) - 0.93).abs() < 1e-12);
    }

    #[test]
    fn target_accuracy_when_region_smaller_than_target() {
        // Region holds 50 sensors, target 100 → full marks for 50.
        assert_eq!(target_accuracy(100.0, 50, 50), 1.0);
        assert!((target_accuracy(100.0, 25, 50) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn target_accuracy_empty_region_is_one() {
        assert_eq!(target_accuracy(100.0, 0, 0), 1.0);
    }

    #[test]
    fn pde_zero_when_targets_met_exactly() {
        let out = out_with_groups(vec![(10.0, 10), (5.0, 5)]);
        assert_eq!(probe_discretisation_error(&out), 0.0);
    }

    #[test]
    fn pde_positive_when_under_delivering() {
        let out = out_with_groups(vec![(10.0, 5)]);
        assert!((probe_discretisation_error(&out) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pde_negative_when_cached_aggregates_overshoot() {
        // The Fig 6 discussion: cached aggregates comprise more sensors than
        // the terminal's target → negative per-terminal error (bias).
        let out = out_with_groups(vec![(10.0, 30)]);
        assert!(probe_discretisation_error(&out) < 0.0);
    }

    #[test]
    fn pde_ignores_zero_target_groups() {
        let out = out_with_groups(vec![(0.0, 7), (10.0, 10)]);
        assert_eq!(probe_discretisation_error(&out), 0.0);
    }

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(110.0, 100.0), 0.1);
        assert_eq!(relative_error(90.0, 100.0), 0.1);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
