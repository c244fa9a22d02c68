//! Structural introspection of a built tree.
//!
//! Section VII-B of the paper grounds the Fig 3 analysis in a structural
//! property of the k-means construction: "we verified near uniform
//! distributions of internal node weights (i.e., number of descendents) per
//! layer at lower tree layers". This module computes exactly those
//! statistics so experiments (and users tuning build parameters) can check
//! them.

use crate::tree::{ColrTree, NodeRef};

/// Summary statistics of node weights at one level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelStats {
    /// Tree level (root = 0).
    pub level: u16,
    /// Number of nodes at the level.
    pub nodes: usize,
    /// Minimum node weight.
    pub min_weight: u64,
    /// Maximum node weight.
    pub max_weight: u64,
    /// Mean node weight.
    pub mean_weight: f64,
    /// Coefficient of variation of node weights (stddev / mean); low values
    /// mean near-uniform weights.
    pub weight_cv: f64,
    /// Mean bounding-box diagonal (spatial resolution of the level).
    pub mean_diameter: f64,
}

/// Per-level structural statistics of a tree, root first.
pub fn level_stats(tree: &ColrTree) -> Vec<LevelStats> {
    let levels = tree.leaf_level() as usize + 1;
    let mut buckets: Vec<Vec<NodeRef>> = vec![Vec::new(); levels];
    for id in tree.node_ids() {
        let n = tree.node(id);
        buckets[n.level as usize].push(n);
    }
    buckets
        .iter()
        .enumerate()
        .map(|(level, nodes)| {
            let count = nodes.len();
            let weights: Vec<f64> = nodes.iter().map(|n| n.weight as f64).collect();
            let mean = if count == 0 {
                0.0
            } else {
                weights.iter().sum::<f64>() / count as f64
            };
            let var = if count == 0 {
                0.0
            } else {
                weights.iter().map(|w| (w - mean) * (w - mean)).sum::<f64>() / count as f64
            };
            let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
            LevelStats {
                level: level as u16,
                nodes: count,
                min_weight: nodes.iter().map(|n| n.weight).min().unwrap_or(0),
                max_weight: nodes.iter().map(|n| n.weight).max().unwrap_or(0),
                mean_weight: mean,
                weight_cv: cv,
                mean_diameter: tree.level_diameters()[level],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reading::SensorMeta;
    use crate::time::TimeDelta;
    use crate::tree::ColrConfig;
    use colr_geo::Point;

    fn grid_tree(side: usize) -> ColrTree {
        let sensors: Vec<SensorMeta> = (0..side * side)
            .map(|i| {
                SensorMeta::new(
                    i as u32,
                    Point::new((i % side) as f64, (i / side) as f64),
                    TimeDelta::from_mins(5),
                    1.0,
                )
            })
            .collect();
        ColrTree::build(sensors, ColrConfig::default(), 42)
    }

    #[test]
    fn level_stats_cover_every_level() {
        let tree = grid_tree(30); // 900 sensors
        let stats = level_stats(&tree);
        assert_eq!(stats.len(), tree.leaf_level() as usize + 1);
        assert_eq!(stats[0].nodes, 1, "one root");
        assert_eq!(stats[0].mean_weight, 900.0);
        // Node counts grow with depth; weights shrink.
        for pair in stats.windows(2) {
            assert!(pair[1].nodes >= pair[0].nodes);
            assert!(pair[1].mean_weight <= pair[0].mean_weight);
            assert!(pair[1].mean_diameter <= pair[0].mean_diameter + 1e-9);
        }
    }

    #[test]
    fn stored_level_diameters_are_the_per_node_means_bit_for_bit() {
        // A grid tree, and a tree whose root is its one leaf.
        for tree in [grid_tree(30), grid_tree(2)] {
            let levels = tree.leaf_level() as usize + 1;
            let mut sums = vec![0.0f64; levels];
            let mut counts = vec![0usize; levels];
            for id in tree.node_ids() {
                let n = tree.node(id);
                sums[n.level as usize] += (n.bbox.width().powi(2) + n.bbox.height().powi(2)).sqrt();
                counts[n.level as usize] += 1;
            }
            let want: Vec<u64> = sums
                .iter()
                .zip(&counts)
                .map(|(s, &c)| (s / c as f64).to_bits())
                .collect();
            let stored: Vec<u64> = tree.level_diameters().iter().map(|d| d.to_bits()).collect();
            assert_eq!(stored, want);
            let stats: Vec<u64> = level_stats(&tree)
                .iter()
                .map(|s| s.mean_diameter.to_bits())
                .collect();
            assert_eq!(stats, want);
        }
        assert_eq!(grid_tree(2).node_count(), 1, "a one-leaf tree");
    }

    #[test]
    fn kmeans_weights_are_near_uniform_at_lower_layers() {
        // The paper's VII-B observation: CV of node weights at the lower
        // layers is small for k-means-built trees on uniform data.
        let tree = grid_tree(40); // 1600 sensors
        let stats = level_stats(&tree);
        let leaf_stats = stats.last().unwrap();
        assert!(
            leaf_stats.weight_cv < 0.6,
            "leaf weight CV {} too high for uniform data",
            leaf_stats.weight_cv
        );
    }

    #[test]
    fn weight_totals_telescope() {
        let tree = grid_tree(25);
        let stats = level_stats(&tree);
        for s in &stats {
            let total = s.mean_weight * s.nodes as f64;
            assert!(
                (total - 625.0).abs() < 1e-6,
                "level {} total weight {total} != 625",
                s.level
            );
        }
    }
}
