//! The ring the slot cache used to be — `num_slots + 1` heap entries of
//! `Option<(u64, Slot)>`, every slot carrying its own `by_kind` `Vec` — kept as the `#[cfg(test)]` reference the flat ring of cells is
//! checked against: any sequence of operations must leave both reading the
//! same, bit for bit, through every lookup.

use proptest::prelude::*;

use super::*;

impl Slot {
    fn singleton(value: f64, ts: Timestamp, kind: u16) -> Slot {
        Slot {
            agg: PartialAgg::from_value(value),
            min_ts: ts,
            by_kind: vec![(kind, PartialAgg::from_value(value))],
        }
    }

    fn kind_insert(&mut self, kind: u16, value: f64) {
        match self.by_kind.binary_search_by_key(&kind, |(k, _)| *k) {
            Ok(i) => self.by_kind[i].1.insert(value),
            Err(i) => self
                .by_kind
                .insert(i, (kind, PartialAgg::from_value(value))),
        }
    }

    /// Attempts to decrement `value` from both the total and the per-kind
    /// aggregate; leaves the slot unchanged and reports failure when either
    /// side cannot be decremented.
    fn kind_remove(&mut self, kind: u16, value: f64) -> bool {
        let Ok(i) = self.by_kind.binary_search_by_key(&kind, |(k, _)| *k) else {
            return false; // unknown kind: force a rebuild
        };
        // Trial-remove on copies so failure leaves no partial mutation.
        let mut total = self.agg;
        let mut per = self.by_kind[i].1;
        if !total.try_remove(value) || !per.try_remove(value) {
            return false;
        }
        self.agg = total;
        if per.is_empty() {
            self.by_kind.remove(i);
        } else {
            self.by_kind[i].1 = per;
        }
        true
    }
}

struct RefSlotCache {
    config: SlotConfig,
    /// Ring of `(absolute_slot_index, slot)` keyed by `abs % ring_len`.
    ring: Vec<Option<(u64, Slot)>>,
}

impl RefSlotCache {
    fn new(config: SlotConfig) -> Self {
        RefSlotCache {
            config,
            ring: vec![None; config.num_slots + 1],
        }
    }

    fn bucket(&self, abs: u64) -> usize {
        (abs % self.ring.len() as u64) as usize
    }

    fn held_slots(&self) -> impl Iterator<Item = u64> + '_ {
        self.ring.iter().flatten().map(|(abs, _)| *abs)
    }

    fn slot(&self, abs: u64) -> Option<&Slot> {
        match &self.ring[self.bucket(abs)] {
            Some((a, s)) if *a == abs => Some(s),
            _ => None,
        }
    }

    fn insert_opening(
        &mut self,
        expires_at: Timestamp,
        ts: Timestamp,
        value: f64,
        kind: u16,
        base: u64,
    ) -> Option<bool> {
        let abs = self.config.slot_of(expires_at);
        if abs < base || abs >= base + self.ring.len() as u64 {
            return None;
        }
        let bucket = self.bucket(abs);
        let opened;
        match &mut self.ring[bucket] {
            Some((a, s)) if *a == abs => {
                s.agg.insert(value);
                s.kind_insert(kind, value);
                if ts < s.min_ts {
                    s.min_ts = ts;
                }
                opened = false;
            }
            entry => {
                // Either empty or holds a stale (pre-roll) slot; replace.
                *entry = Some((abs, Slot::singleton(value, ts, kind)));
                opened = true;
            }
        }
        Some(opened)
    }

    fn try_remove_kind(&mut self, expires_at: Timestamp, value: f64, kind: u16) -> RemoveOutcome {
        let abs = self.config.slot_of(expires_at);
        let bucket = self.bucket(abs);
        match &mut self.ring[bucket] {
            Some((a, s)) if *a == abs => {
                if s.kind_remove(kind, value) {
                    if s.agg.is_empty() {
                        self.ring[bucket] = None;
                    }
                    RemoveOutcome::Removed
                } else {
                    RemoveOutcome::NeedsRebuild
                }
            }
            _ => RemoveOutcome::Absent,
        }
    }

    fn set_slot(&mut self, abs: u64, slot: Slot) {
        let bucket = self.bucket(abs);
        if slot.agg.is_empty() {
            if matches!(&self.ring[bucket], Some((a, _)) if *a == abs) {
                self.ring[bucket] = None;
            }
        } else {
            self.ring[bucket] = Some((abs, slot));
        }
    }

    fn roll_to(&mut self, new_base: u64) -> usize {
        let mut dropped = 0;
        for entry in &mut self.ring {
            if matches!(entry, Some((a, _)) if *a < new_base) {
                *entry = None;
                dropped += 1;
            }
        }
        dropped
    }

    fn drop_slot(&mut self, abs: u64) -> bool {
        let bucket = self.bucket(abs);
        let held = matches!(&self.ring[bucket], Some((a, _)) if *a == abs);
        if held {
            self.ring[bucket] = None;
        }
        held
    }

    fn usable_slots(
        &self,
        now: Timestamp,
        staleness: TimeDelta,
    ) -> impl Iterator<Item = &Slot> + '_ {
        let bound = now.saturating_sub(staleness);
        let width = self.config.slot_width.millis();
        self.ring
            .iter()
            .flatten()
            .filter(move |(abs, slot)| abs * width >= now.millis() && slot.min_ts >= bound)
            .map(|(_, slot)| slot)
    }

    fn usable(&self, now: Timestamp, staleness: TimeDelta) -> (PartialAgg, u64) {
        let mut agg = PartialAgg::empty();
        let mut used = 0;
        for slot in self.usable_slots(now, staleness) {
            agg.merge(&slot.agg);
            used += 1;
        }
        (agg, used)
    }

    fn usable_kind(&self, now: Timestamp, staleness: TimeDelta, kind: u16) -> (PartialAgg, u64) {
        let mut agg = PartialAgg::empty();
        let mut used = 0;
        for slot in self.usable_slots(now, staleness) {
            let k = slot.kind_agg(kind);
            if !k.is_empty() {
                agg.merge(&k);
                used += 1;
            }
        }
        (agg, used)
    }
}

/// What a comparison reads of an aggregate: its bits, so that `-0.0` and
/// `0.0` differ.
fn bits(a: &PartialAgg) -> (u64, u64, u64, u64) {
    (a.count, a.sum.to_bits(), a.min.to_bits(), a.max.to_bits())
}

fn slot_bits(s: &Slot) -> impl PartialEq + std::fmt::Debug {
    let rows: Vec<_> = s.by_kind.iter().map(|(k, a)| (*k, bits(a))).collect();
    (bits(&s.agg), s.min_ts, rows)
}

const WIDTH_MS: u64 = 100;

/// Both rings under one configuration, every mutation applied to both.
struct Pair {
    config: SlotConfig,
    flat: SlotCache,
    reference: RefSlotCache,
    base: u64,
}

impl Pair {
    fn new(num_slots: usize) -> Pair {
        let config = SlotConfig {
            slot_width: TimeDelta::from_millis(WIDTH_MS),
            num_slots,
        };
        Pair {
            config,
            flat: SlotCache::new(config),
            reference: RefSlotCache::new(config),
            base: 0,
        }
    }

    fn insert(&mut self, abs: u64, ts: u64, value: f64, kind: u16) {
        let at = Timestamp(abs * WIDTH_MS + 7);
        let got = self
            .flat
            .ring_mut()
            .insert_opening(at, Timestamp(ts), value, kind, self.base);
        let want = self
            .reference
            .insert_opening(at, Timestamp(ts), value, kind, self.base);
        assert_eq!(got, want, "insert into slot {abs}");
    }

    fn remove(&mut self, abs: u64, value: f64, kind: u16) -> RemoveOutcome {
        let at = Timestamp(abs * WIDTH_MS + 7);
        let got = self.flat.try_remove_kind(at, value, kind);
        assert_eq!(got, self.reference.try_remove_kind(at, value, kind));
        got
    }

    fn set_slot(&mut self, abs: u64, slot: Slot) {
        self.flat.set_slot(abs, slot.clone());
        self.reference.set_slot(abs, slot);
    }

    fn drop_slot(&mut self, abs: u64) {
        let got = self.flat.ring_mut().drop_slot(abs);
        assert_eq!(got, self.reference.drop_slot(abs));
    }

    fn roll_to(&mut self, base: u64) {
        self.base = base;
        assert_eq!(self.flat.roll_to(base), self.reference.roll_to(base));
    }

    /// Every lookup, over every slot a ring could hold and every kind.
    fn assert_same(&self) {
        let ring = self.flat.ring();
        assert!(ring.held_slots().eq(self.reference.held_slots()));
        let top = self.base + 2 * self.config.num_slots as u64 + 4;
        for abs in self.base.saturating_sub(2)..top {
            let got = ring.slot(abs);
            let want = self.reference.slot(abs);
            assert_eq!(
                got.as_ref().map(slot_bits),
                want.map(slot_bits),
                "slot {abs}"
            );
        }
        for now in [self.base * WIDTH_MS, (self.base + 2) * WIDTH_MS + 30] {
            let now = Timestamp(now);
            for staleness in [0, 150, 100_000] {
                let staleness = TimeDelta::from_millis(staleness);
                let (got, used) = ring.usable(now, staleness);
                let (want, want_used) = self.reference.usable(now, staleness);
                assert_eq!((bits(&got), used), (bits(&want), want_used));
                for kind in 0..4 {
                    let (got, used) = ring.usable_kind(now, staleness, kind);
                    let (want, want_used) = self.reference.usable_kind(now, staleness, kind);
                    assert_eq!((bits(&got), used), (bits(&want), want_used), "kind {kind}");
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert {
        /// Slot, as an offset from the window base (some beyond the window).
        ahead: u64,
        age: u64,
        value: i32,
        kind: u16,
    },
    /// Remove the `i`-th live reading (modulo how many there are), or a
    /// reading that was never inserted when there is none.
    Remove(usize),
    /// Remove a live reading's value under the wrong kind.
    RemoveAs(usize, u16),
    /// Rebuild the slot `ahead` of the base from the live readings, as the
    /// tree does after `NeedsRebuild` (and sometimes when it need not).
    Rebuild(u64),
    /// Clear the slot `ahead` of the base through `set_slot`.
    SetEmpty(u64),
    Drop(u64),
    Roll(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u64..16, 0u64..300, -3i32..4, 0u16..3).prop_map(|(ahead, age, value, kind)| {
            Op::Insert { ahead, age, value, kind }
        }),
        3 => (0usize..64).prop_map(Op::Remove),
        1 => (0usize..64, 0u16..4).prop_map(|(i, kind)| Op::RemoveAs(i, kind)),
        2 => (0u64..16).prop_map(Op::Rebuild),
        1 => (0u64..16).prop_map(Op::SetEmpty),
        1 => (0u64..16).prop_map(Op::Drop),
        2 => (0u64..4).prop_map(Op::Roll),
    ]
}

#[derive(Debug, Clone, Copy)]
struct Live {
    abs: u64,
    ts: u64,
    value: f64,
    kind: u16,
}

/// The slot `abs` should hold, recomputed from the live readings the way the
/// tree recomputes a leaf's.
fn rebuilt(live: &[Live], abs: u64) -> Slot {
    let mut slot = Slot::empty();
    for r in live.iter().filter(|r| r.abs == abs) {
        slot.add_reading(r.value, Timestamp(r.ts), r.kind);
    }
    slot
}

fn run(num_slots: usize, kinds: u16, ops: &[Op]) {
    let mut pair = Pair::new(num_slots);
    let mut live: Vec<Live> = Vec::new();
    let mut now = 1_000;
    for op in ops {
        now += 10;
        match *op {
            Op::Insert {
                ahead,
                age,
                value,
                kind,
            } => {
                let r = Live {
                    abs: pair.base + ahead,
                    ts: now - age,
                    // `-0.0` among the values: a sum of them keeps its sign.
                    value: if value == 0 { -0.0 } else { f64::from(value) },
                    kind: kind % kinds,
                };
                pair.insert(r.abs, r.ts, r.value, r.kind);
                if ahead <= num_slots as u64 {
                    live.push(r);
                }
            }
            Op::Remove(i) if live.is_empty() => {
                pair.remove(pair.base + i as u64 % 4, 1.5, 0);
            }
            Op::Remove(i) => {
                let r = live.remove(i % live.len());
                if pair.remove(r.abs, r.value, r.kind) == RemoveOutcome::NeedsRebuild {
                    pair.set_slot(r.abs, rebuilt(&live, r.abs));
                }
            }
            Op::RemoveAs(i, kind) => {
                if let Some(r) = live.get(i % live.len().max(1)).copied() {
                    if kind != r.kind {
                        pair.remove(r.abs, r.value, kind);
                    }
                }
            }
            Op::Rebuild(ahead) => {
                let abs = pair.base + ahead;
                pair.set_slot(abs, rebuilt(&live, abs));
                // A slot beyond the window is held all the same, in the
                // bucket of the window slot it aliases.
                let ring = num_slots as u64 + 1;
                live.retain(|r| r.abs == abs || r.abs % ring != abs % ring);
            }
            Op::SetEmpty(ahead) => {
                let abs = pair.base + ahead;
                pair.set_slot(abs, Slot::empty());
                live.retain(|r| r.abs != abs);
            }
            Op::Drop(ahead) => {
                let abs = pair.base + ahead;
                pair.drop_slot(abs);
                live.retain(|r| r.abs != abs);
            }
            Op::Roll(by) => {
                pair.roll_to(pair.base + by);
                live.retain(|r| r.abs >= pair.base);
            }
        }
        pair.assert_same();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_400))]

    #[test]
    fn flat_ring_reads_as_the_option_ring_after_any_sequence(
        shape in (0usize..4, 1u16..4),
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let (m, kinds) = shape;
        run([1, 3, 8, 13][m], kinds, &ops);
    }
}

#[test]
fn a_second_kind_arriving_with_three_slots_open_writes_their_rows_out() {
    let mut pair = Pair::new(8);
    for (abs, value) in [(2, 1.0), (3, 2.5), (3, -1.0), (5, 4.0)] {
        pair.insert(abs, 900, value, 1);
        pair.assert_same();
    }
    assert!(!pair.flat.side.is_allocated(), "one kind: no row is stored");
    pair.insert(3, 950, 7.0, 2);
    pair.assert_same();
    assert!(pair.flat.side.is_allocated());
    let slot = pair.flat.slot(3).expect("held");
    assert_eq!(slot.kind_agg(1).sum, 1.5);
    assert_eq!(slot.kind_agg(2).sum, 7.0);
    assert_eq!(pair.flat.slot(5).expect("held").by_kind.len(), 1);
    // From here the rows are kept like the reference's.
    assert_eq!(pair.remove(3, 7.0, 1), RemoveOutcome::NeedsRebuild);
    assert_eq!(pair.remove(5, 4.0, 2), RemoveOutcome::NeedsRebuild);
    assert_eq!(pair.remove(5, 4.0, 1), RemoveOutcome::Removed);
    pair.assert_same();
    pair.insert(9, 960, 0.5, 0);
    pair.roll_to(4);
    pair.assert_same();
}

#[test]
fn a_rebuild_carrying_two_kinds_into_a_one_kind_ring_writes_the_rows_out() {
    let mut pair = Pair::new(3);
    pair.insert(1, 900, 1.0, 1);
    pair.insert(2, 900, 2.0, 1);
    let live = [
        Live {
            abs: 2,
            ts: 800,
            value: 2.0,
            kind: 1,
        },
        Live {
            abs: 2,
            ts: 850,
            value: 3.0,
            kind: 0,
        },
    ];
    pair.set_slot(2, rebuilt(&live, 2));
    pair.assert_same();
    assert!(pair.flat.side.is_allocated());
    assert_eq!(
        pair.flat.slot(1).expect("held").by_kind,
        [(1, PartialAgg::from_value(1.0))]
    );
    // A one-row rebuild whose row is not the total's bits — a lone `-0.0`
    // sums to `0.0` in the total and stays `-0.0` in the row — is stored as
    // given too.
    let mut pair = Pair::new(3);
    pair.insert(1, 900, 5.0, 1);
    let live = [Live {
        abs: 2,
        ts: 800,
        value: -0.0,
        kind: 1,
    }];
    pair.set_slot(2, rebuilt(&live, 2));
    pair.assert_same();
    assert!(pair.flat.side.is_allocated());
}
