//! Query planning: mapping the logical portal query onto a physical
//! COLR-Tree lookup.
//!
//! The interesting decision is the `CLUSTER d` clause: SensorMap groups
//! sensors within `d` map units of each other and returns one aggregate per
//! group, which COLR-Tree realises by terminating the descent at the
//! *threshold level* `T` whose nodes have roughly diameter `d`
//! (Section III-C: "a threshold level depending on the query's zoom level").
//! The tree stores the mean node diameter per level when it is assembled;
//! the planner picks the deepest level whose mean diameter still exceeds `d`.

use colr_tree::{ColrTree, Query, TimeDelta, OVERSAMPLE_LEVEL};

use crate::ast::SelectQuery;

/// Staleness applied when the query has no time clause.
pub const DEFAULT_STALENESS: TimeDelta = TimeDelta::from_mins(5);

/// Plans logical portal queries against one built tree: a view of the
/// per-level diameters the tree stores, so making one allocates nothing and
/// walks no node.
#[derive(Debug, Clone, Copy)]
pub struct Planner<'a> {
    /// Mean node bbox diagonal per level, root first: one per level, so the
    /// last is the leaf level's.
    level_diameters: &'a [f64],
}

impl<'a> Planner<'a> {
    /// The planner for `tree`.
    pub fn new(tree: &'a ColrTree) -> Planner<'a> {
        Planner {
            level_diameters: tree.level_diameters(),
        }
    }

    /// The terminal level for a `CLUSTER d` clause: the deepest level whose
    /// mean node diameter is at least `d` (so each returned group spans
    /// roughly the requested distance). No clause → the leaf level, which
    /// is where the walk ends wherever no cached aggregate ends it sooner.
    pub fn terminal_level(&self, cluster: Option<f64>) -> u16 {
        match cluster {
            None => self.level_diameters.len() as u16 - 1,
            Some(d) => {
                let mut level = 0u16;
                for (l, &diam) in self.level_diameters.iter().enumerate() {
                    if diam >= d {
                        level = l as u16;
                    } else {
                        break;
                    }
                }
                level
            }
        }
    }

    /// Lowers a parsed query to a physical [`Query`].
    pub fn plan(&self, q: &SelectQuery) -> Query {
        let terminal = self.terminal_level(q.cluster);
        // `CLUSTER d` asks for one group per level-`T` node, so no cached
        // aggregate above `T` may stand in for them; without it only the
        // combined answer is read, and any covered node down from the root may.
        let cover = if q.cluster.is_some() { terminal } else { 0 };
        let mut query = Query::range(q.within.region(), q.staleness.unwrap_or(DEFAULT_STALENESS))
            .with_terminal_level(terminal)
            .with_cover_level(cover);
        if let Some(n) = q.sample_size {
            query = query.with_sample_size(n as f64);
        }
        if let Some(k) = q.sensor_type {
            query = query.with_kind_filter(k);
        }
        query
    }

    /// Mean node diameter at a level (diagnostics).
    pub fn level_diameter(&self, level: u16) -> Option<f64> {
        self.level_diameters.get(level as usize).copied()
    }

    /// A human-readable plan description (the portal's `EXPLAIN`): the
    /// chosen terminal level, the grouping resolution it implies, the
    /// freshness bound, and the collection strategy, which samples to
    /// `target` (`None`: the full range). A `count(*)` without `SAMPLESIZE`
    /// walks nothing, and says so.
    pub fn explain(&self, q: &SelectQuery, target: Option<usize>) -> String {
        let mut out = String::new();
        if q.counts_population() {
            out.push_str(
                "population count: one group of the region's live sensors\ncollection: \
                 none (answered from the index's live counts; no sensor is contacted)",
            );
        } else {
            let t = self.terminal_level(q.cluster);
            let diameter = self.level_diameter(t).unwrap_or(0.0);
            let staleness = q.staleness.unwrap_or(DEFAULT_STALENESS);
            out.push_str(&format!(
                "terminal level T={t} (mean group diameter {diameter:.1} map units"
            ));
            match q.cluster {
                Some(d) => out.push_str(&format!(", CLUSTER {d})")),
                None => out.push_str(
                    ", no CLUSTER: one group per shallowest contained node whose \
                     cached aggregate covers it, leaf-level groups where caches are cold)",
                ),
            }
            out.push_str(&format!("\nfreshness bound {staleness}"));
            match target {
                Some(r) => out.push_str(&format!(
                    "\ncollection: layered sampling, target R={r}, \
                     oversample level O={OVERSAMPLE_LEVEL}"
                )),
                None => out.push_str("\ncollection: full range (every uncached sensor probed)"),
            }
        }
        if let Some(k) = q.sensor_type {
            out.push_str(&format!(
                "\nfilter: sensor type = {k} (per-type sub-aggregates)"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AggSpec, SpatialPredicate};
    use colr_geo::{Point, Rect};
    use colr_tree::{ColrConfig, SensorMeta};

    fn tree() -> ColrTree {
        let sensors: Vec<SensorMeta> = (0..400)
            .map(|i| {
                SensorMeta::new(
                    i as u32,
                    Point::new((i % 20) as f64, (i / 20) as f64),
                    TimeDelta::from_mins(5),
                    1.0,
                )
            })
            .collect();
        ColrTree::build(sensors, ColrConfig::default(), 3)
    }

    #[test]
    fn diameters_shrink_with_depth() {
        let t = tree();
        let p = Planner::new(&t);
        let mut prev = f64::INFINITY;
        for l in 0..=t.leaf_level() {
            let d = p.level_diameter(l).unwrap();
            assert!(d <= prev + 1e-9, "level {l} diameter {d} grew past {prev}");
            prev = d;
        }
    }

    #[test]
    fn cluster_none_means_leaf_groups() {
        let t = tree();
        let p = Planner::new(&t);
        assert_eq!(p.terminal_level(None), t.leaf_level());
    }

    #[test]
    fn tiny_cluster_distance_goes_deep() {
        let t = tree();
        let p = Planner::new(&t);
        assert_eq!(p.terminal_level(Some(1e-6)), t.leaf_level());
    }

    #[test]
    fn huge_cluster_distance_stays_at_root() {
        let t = tree();
        let p = Planner::new(&t);
        assert_eq!(p.terminal_level(Some(1e9)), 0);
    }

    #[test]
    fn moderate_cluster_lands_between() {
        let t = tree();
        let p = Planner::new(&t);
        let mid = p.level_diameter(1).unwrap() * 0.9;
        let level = p.terminal_level(Some(mid));
        assert!(level >= 1);
        assert!(level <= t.leaf_level());
    }

    #[test]
    fn explain_mentions_the_plan_choices() {
        let t = tree();
        let p = Planner::new(&t);
        let q = SelectQuery {
            agg: AggSpec::Count,
            within: SpatialPredicate::Rect(Rect::from_coords(0.0, 0.0, 5.0, 5.0)),
            staleness: None,
            cluster: Some(3.0),
            sample_size: Some(30),
            sensor_type: Some(2),
        };
        let text = p.explain(&q, q.sample_size);
        assert!(text.contains("terminal level"), "{text}");
        assert!(text.contains("CLUSTER 3"), "{text}");
        assert!(text.contains("R=30"), "{text}");
        assert!(text.contains("type = 2"), "{text}");
        assert!(text.contains("300000ms"), "{text}"); // 5 min default staleness
    }

    #[test]
    fn explain_full_range_when_unsampled() {
        let t = tree();
        let p = Planner::new(&t);
        let q = SelectQuery {
            agg: AggSpec::Avg,
            within: SpatialPredicate::Rect(Rect::from_coords(0.0, 0.0, 5.0, 5.0)),
            staleness: None,
            cluster: None,
            sample_size: None,
            sensor_type: None,
        };
        let text = p.explain(&q, None);
        assert!(text.contains("full range"), "{text}");
        assert!(
            text.contains("shallowest contained node whose cached aggregate covers it"),
            "{text}"
        );
        assert!(
            text.contains("leaf-level groups where caches are cold"),
            "{text}"
        );
        // A target, such as a sampling portal's cap, is layered sampling.
        let capped = p.explain(&q, Some(500));
        assert!(capped.contains("target R=500,"), "{capped}");
        assert!(!capped.contains("full range"), "{capped}");
        // A bare count walks nothing, capped or not.
        let count = SelectQuery {
            agg: AggSpec::Count,
            ..q
        };
        for cap in [None, Some(500)] {
            let text = p.explain(&count, cap);
            assert!(
                text.contains("answered from the index's live counts"),
                "{text}"
            );
            assert!(text.contains("no sensor is contacted"), "{text}");
            assert!(
                !text.contains("R=") && !text.contains("full range"),
                "{text}"
            );
        }
    }

    #[test]
    fn plan_wires_all_fields() {
        let t = tree();
        let p = Planner::new(&t);
        let q = SelectQuery {
            agg: AggSpec::Count,
            within: SpatialPredicate::Rect(Rect::from_coords(0.0, 0.0, 5.0, 5.0)),
            staleness: None,
            cluster: None,
            sample_size: Some(12),
            sensor_type: None,
        };
        let plan = p.plan(&q);
        assert_eq!(plan.staleness, DEFAULT_STALENESS);
        assert_eq!(plan.sample_size, Some(12.0));
        assert_eq!(plan.terminal_level, t.leaf_level());
        assert_eq!(plan.cover_level, 0, "no CLUSTER: no grouping floor");
        let grouped = p.plan(&SelectQuery {
            cluster: Some(3.0),
            ..q
        });
        assert_eq!(grouped.cover_level, grouped.terminal_level);
    }
}
