//! The slot cache (Section IV).
//!
//! A slot cache maintains `m = t_max/Δ` *partial aggregates* in globally
//! aligned slots of width `Δ`. Slot `i` (an absolute index: `expiry / Δ`)
//! aggregates exactly the readings whose **expiry instants** fall in
//! `[iΔ, (i+1)Δ)`. Because every cache in the tree uses the same alignment, a
//! parent's slot `i` is the aggregate of its children's slots `i`, which is
//! what makes bottom-up incremental maintenance possible (Section IV-B).
//!
//! The window slides forward as simulated time advances: slots whose entire
//! expiry range is in the past contain only expired readings and are dropped
//! wholesale — no per-reading decrement is ever needed for expiry, only for
//! value *updates* and capacity *evictions* (handled by
//! [`SlotCache::try_remove`], which falls back to a rebuild signal when the
//! aggregate cannot be decremented).
//!
//! ## Freshness
//!
//! In addition to the paper's slot bookkeeping, each slot tracks the minimum
//! *production timestamp* of its constituents (`min_ts`). A user freshness
//! bound `S` accepts a cached slot only when `min_ts >= now - S`, i.e. every
//! constituent reading was produced within the staleness window. This is a
//! conservative *strengthening* of the paper's query-slot heuristic: it can
//! reject a borderline-usable slot but never serves data staler than
//! requested. Under removal `min_ts` stays a valid lower bound (removals can
//! only raise the true minimum).

use crate::agg::PartialAgg;
use crate::time::{TimeDelta, Timestamp};

/// Sizing of a slot cache: `slot_width` is the paper's `Δ`, `num_slots` its
/// `m`. The window must cover `t_max` (the maximum sensor expiry), i.e.
/// `slot_width · num_slots >= t_max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotConfig {
    /// Slot width `Δ`.
    pub slot_width: TimeDelta,
    /// Number of slots `m`.
    pub num_slots: usize,
}

impl SlotConfig {
    /// Derives the configuration from a window size and slot count, the way
    /// the paper parameterises it: `Δ = t_max / m` (rounded up so the window
    /// always covers `t_max`).
    pub fn for_window(t_max: TimeDelta, num_slots: usize) -> Self {
        assert!(num_slots > 0, "need at least one slot");
        let width = t_max.millis().div_ceil(num_slots as u64).max(1);
        SlotConfig {
            slot_width: TimeDelta::from_millis(width),
            num_slots,
        }
    }

    /// Absolute slot index of an instant.
    #[inline]
    pub fn slot_of(&self, t: Timestamp) -> u64 {
        t.millis() / self.slot_width.millis()
    }

    /// The base slot (oldest slot that can still contain live readings) at
    /// `now`.
    #[inline]
    pub fn base_at(&self, now: Timestamp) -> u64 {
        self.slot_of(now)
    }
}

/// One cached partial aggregate plus its freshness watermark and per-type
/// sub-aggregates — the by-value form of a slot: what [`SlotRing::slot`]
/// hands out and [`SlotCache::set_slot`] takes. A ring does not store one
/// (a ring is 48-byte cells; see [`SlotRing`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    /// Partial aggregate over the slot's constituent readings.
    pub agg: PartialAgg,
    /// Minimum production timestamp among constituents (conservative lower
    /// bound after removals).
    pub min_ts: Timestamp,
    /// Per-sensor-type sub-aggregates (sorted by kind). These let
    /// type-filtered queries use aggregate caches instead of bypassing them
    /// — the "per-type slot caches" extension.
    pub by_kind: Vec<(u16, PartialAgg)>,
}

impl Slot {
    /// A slot with nothing in it yet, for a rebuild to fill.
    pub(crate) fn empty() -> Slot {
        Slot {
            agg: PartialAgg::empty(),
            min_ts: Timestamp(u64::MAX),
            by_kind: Vec::new(),
        }
    }

    /// The sub-aggregate for one sensor type (empty aggregate when the slot
    /// holds no readings of that type).
    pub fn kind_agg(&self, kind: u16) -> PartialAgg {
        self.by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, a)| *a)
            .unwrap_or_else(PartialAgg::empty)
    }

    /// Adds one reading of `kind` to a slot under rebuild.
    pub(crate) fn add_reading(&mut self, value: f64, ts: Timestamp, kind: u16) {
        self.agg.insert(value);
        self.min_ts = self.min_ts.min(ts);
        merge_kind(&mut self.by_kind, kind, &PartialAgg::from_value(value));
    }
}

/// Merges `add` into the row of `kind` (`rows` is sorted by kind). Merging a
/// singleton is adding its value: [`PartialAgg::merge`] and
/// [`PartialAgg::insert`] do the same arithmetic in the same order.
fn merge_kind(rows: &mut Vec<(u16, PartialAgg)>, kind: u16, add: &PartialAgg) {
    match rows.binary_search_by_key(&kind, |(k, _)| *k) {
        Ok(i) => rows[i].1.merge(add),
        Err(i) => rows.insert(i, (kind, *add)),
    }
}

/// Outcome of attempting an in-place decrement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoveOutcome {
    /// The value was removed incrementally.
    Removed,
    /// The slot exists but cannot be decremented (the value is an extreme);
    /// the owner must rebuild the slot from the level below.
    NeedsRebuild,
    /// No slot covers that expiry instant (nothing to do).
    Absent,
}

/// One slot of one ring as it is stored: 48 bytes, `Copy`, no pointer in it.
/// A ring is `num_slots + 1` of these side by side, slot `abs` at
/// `abs % (num_slots + 1)`, and a cell whose count is 0 holds no slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Cell {
    /// The absolute slot index held (meaningless while empty).
    abs: u64,
    min_ts: Timestamp,
    agg: PartialAgg,
}

const _: () = assert!(std::mem::size_of::<Cell>() == 48);

impl Cell {
    pub(crate) const EMPTY: Cell = Cell {
        abs: 0,
        min_ts: Timestamp(0),
        agg: PartialAgg::empty(),
    };

    #[inline]
    fn holds(&self, abs: u64) -> bool {
        self.agg.count != 0 && self.abs == abs
    }
}

/// [`SlotRingMut::kinds`] of a ring no reading has reached yet.
pub(crate) const NO_KIND: u32 = u32::MAX;
/// [`SlotRingMut::kinds`] of a ring whose per-kind rows are written out in
/// [`Side::rows`].
const MANY_KINDS: u32 = u32::MAX - 1;

/// What most rings never need, kept out of the cells: explicit per-kind rows,
/// one place per cell of the owner, the table allocated the first time one of
/// the owner's rings wants it.
#[derive(Debug, Clone)]
pub(crate) struct Side {
    /// How many cells the owner has — the length of the table once it exists.
    cells: usize,
    /// `by_kind` of each cell whose ring has held more than one kind.
    rows: Vec<Vec<(u16, PartialAgg)>>,
}

impl Side {
    pub(crate) fn new(cells: usize) -> Side {
        Side {
            cells,
            rows: Vec::new(),
        }
    }

    fn rows_mut(&mut self, i: usize) -> &mut Vec<(u16, PartialAgg)> {
        if self.rows.is_empty() {
            self.rows.resize(self.cells, Vec::new());
        }
        &mut self.rows[i]
    }

    /// Whether the table has been allocated (the structural flatness test).
    #[cfg(test)]
    pub(crate) fn is_allocated(&self) -> bool {
        !self.rows.is_empty()
    }
}

/// A borrowed slot cache: one ring of cells and what describes it, wherever
/// it is stored — a node's run of its stripe's slab, or a [`SlotCache`]'s own
/// ring. Every lookup is here, so both owners answer alike.
///
/// **Per-kind sub-aggregates.** While a ring has only ever held readings of
/// one kind (`kinds` names it), each slot's row for that kind *is* the slot's
/// total: both are built by the same `from_value` / `insert` / `try_remove`
/// calls on the same values, so they agree bit for bit and the row is not
/// stored. The first reading of a second kind — or a [`SlotCache::set_slot`]
/// whose rows are anything else — writes every open slot's row out into
/// a side table from its total, and from then on the rows are kept explicitly.
#[derive(Debug, Clone, Copy)]
pub struct SlotRing<'a> {
    pub(crate) config: &'a SlotConfig,
    pub(crate) cells: &'a [Cell],
    /// Which sensor kinds the ring has held: [`NO_KIND`], the one kind, or
    /// `MANY_KINDS`.
    pub(crate) kinds: u32,
    pub(crate) side: &'a Side,
    /// Index of `cells[0]` in the owner's cells, and so in `side`'s tables.
    pub(crate) at: usize,
}

impl<'a> SlotRing<'a> {
    #[inline]
    fn bucket(&self, abs: u64) -> usize {
        (abs % self.cells.len() as u64) as usize
    }

    /// The slots held, as `(bucket, cell)` in ring order.
    #[inline]
    fn held(&self) -> impl Iterator<Item = (usize, &'a Cell)> {
        let cells = self.cells;
        cells.iter().enumerate().filter(|(_, c)| c.agg.count != 0)
    }

    /// The held slots a query at `now` with freshness bound `staleness` may
    /// use (see [`SlotRing::usable`]), in ring order — the order every
    /// `usable*` adds them in.
    #[inline]
    fn usable_cells(
        &self,
        now: Timestamp,
        staleness: TimeDelta,
    ) -> impl Iterator<Item = (usize, &'a Cell)> {
        let bound = now.saturating_sub(staleness);
        let width = self.config.slot_width.millis();
        self.held()
            .filter(move |(_, c)| c.abs * width >= now.millis() && c.min_ts >= bound)
    }

    /// Absolute indices of the slots currently held, in ring order.
    pub(crate) fn held_slots(&self) -> impl Iterator<Item = u64> + 'a {
        self.held().map(|(_, c)| c.abs)
    }

    /// The explicit rows of the cell in bucket `i` (only with `MANY_KINDS`).
    fn rows(&self, i: usize) -> &'a [(u16, PartialAgg)] {
        &self.side.rows[self.at + i]
    }

    /// Returns the slot with absolute index `abs`, if present.
    pub fn slot(&self, abs: u64) -> Option<Slot> {
        let i = self.bucket(abs);
        let cell = self.cells[i];
        cell.holds(abs).then(|| Slot {
            agg: cell.agg,
            min_ts: cell.min_ts,
            by_kind: match self.kinds {
                MANY_KINDS => self.rows(i).to_vec(),
                sole => vec![(sole as u16, cell.agg)],
            },
        })
    }

    /// Merges the slot with absolute index `abs`, if present, into `into`:
    /// one child's share of a parent slot under rebuild.
    pub(crate) fn merge_slot_into(&self, abs: u64, into: &mut Slot) {
        let i = self.bucket(abs);
        let cell = &self.cells[i];
        if !cell.holds(abs) {
            return;
        }
        into.agg.merge(&cell.agg);
        into.min_ts = into.min_ts.min(cell.min_ts);
        match self.kinds {
            MANY_KINDS => {
                for (kind, agg) in self.rows(i) {
                    merge_kind(&mut into.by_kind, *kind, agg);
                }
            }
            sole => merge_kind(&mut into.by_kind, sole as u16, &cell.agg),
        }
    }

    /// Combines every slot usable for a query at `now` with freshness bound
    /// `staleness` (Section IV-A "Lookup"):
    ///
    /// * the slot must be **fully unexpired** (`abs·Δ >= now`) — the
    ///   partially expired boundary slot is skipped at aggregate level, and
    /// * every constituent must satisfy the freshness bound
    ///   (`min_ts >= now - staleness`).
    ///
    /// Returns the combined aggregate and the number of slots merged.
    #[inline]
    pub fn usable(&self, now: Timestamp, staleness: TimeDelta) -> (PartialAgg, u64) {
        let mut agg = PartialAgg::empty();
        let mut used = 0;
        for (_, cell) in self.usable_cells(now, staleness) {
            agg.merge(&cell.agg);
            used += 1;
        }
        (agg, used)
    }

    /// Like [`SlotRing::usable`], but combines only the per-type
    /// sub-aggregates for `kind`. The freshness watermark is the slot-wide
    /// one (conservative: a stale reading of another type can disqualify a
    /// slot for this type).
    pub fn usable_kind(
        &self,
        now: Timestamp,
        staleness: TimeDelta,
        kind: u16,
    ) -> (PartialAgg, u64) {
        if self.kinds == u32::from(kind) {
            return self.usable(now, staleness);
        }
        let mut agg = PartialAgg::empty();
        let mut used = 0;
        if self.kinds == MANY_KINDS {
            for (i, _) in self.usable_cells(now, staleness) {
                if let Some((_, of_kind)) = self.rows(i).iter().find(|(k, _)| *k == kind) {
                    agg.merge(of_kind);
                    used += 1;
                }
            }
        }
        (agg, used)
    }
}

/// [`SlotRing`] with the right to change it: every mutation of a slot cache,
/// for both owners.
#[derive(Debug)]
pub(crate) struct SlotRingMut<'a> {
    pub(crate) config: &'a SlotConfig,
    pub(crate) cells: &'a mut [Cell],
    pub(crate) kinds: &'a mut u32,
    pub(crate) side: &'a mut Side,
    pub(crate) at: usize,
}

impl SlotRingMut<'_> {
    fn bucket(&self, abs: u64) -> usize {
        (abs % self.cells.len() as u64) as usize
    }

    /// Writes the row every open slot has had implicitly — its total, under
    /// the ring's one kind — into the side table, which holds them from now
    /// on.
    fn write_rows_out(&mut self) {
        let sole = *self.kinds as u16;
        for (i, cell) in self.cells.iter().enumerate() {
            let rows = self.side.rows_mut(self.at + i);
            rows.clear();
            if cell.agg.count != 0 {
                rows.push((sole, cell.agg));
            }
        }
        *self.kinds = MANY_KINDS;
    }

    fn clear(&mut self, i: usize) {
        self.cells[i] = Cell::EMPTY;
        if let Some(rows) = self.side.rows.get_mut(self.at + i) {
            rows.clear();
        }
    }

    /// Inserts one reading's value into the slot covering `expires_at`,
    /// tracking the sensor type's sub-aggregate, and tells the owner whether
    /// the reading opened its slot (`Some(true)`) or joined one already held
    /// (`Some(false)`); `None` when it was rejected. The tree records the
    /// nodes that open a slot so that a roll visits only those.
    ///
    /// `base` is the tree-wide current base slot; readings that would land
    /// below it are already expired and are ignored. Readings beyond the
    /// window top are also ignored — the owner is expected to have rolled
    /// the window first (the paper's "slide until the youngest slot covers
    /// the reading").
    pub(crate) fn insert_opening(
        &mut self,
        expires_at: Timestamp,
        ts: Timestamp,
        value: f64,
        kind: u16,
        base: u64,
    ) -> Option<bool> {
        let abs = self.config.slot_of(expires_at);
        if abs < base || abs >= base + self.cells.len() as u64 {
            crate::flight::with(|f| f.wb_rejected += 1);
            return None;
        }
        if *self.kinds == NO_KIND {
            *self.kinds = u32::from(kind);
        } else if *self.kinds != u32::from(kind) && *self.kinds != MANY_KINDS {
            self.write_rows_out();
        }
        let i = self.bucket(abs);
        let cell = &mut self.cells[i];
        // Either empty or holding a stale (pre-roll) slot: replaced.
        let opened = !cell.holds(abs);
        if opened {
            *cell = Cell {
                abs,
                min_ts: ts,
                agg: PartialAgg::from_value(value),
            };
        } else {
            cell.agg.insert(value);
            cell.min_ts = cell.min_ts.min(ts);
        }
        if *self.kinds == MANY_KINDS {
            let rows = self.side.rows_mut(self.at + i);
            if opened {
                rows.clear();
            }
            merge_kind(rows, kind, &PartialAgg::from_value(value));
        }
        crate::flight::with(|f| f.slot_write(opened));
        Some(opened)
    }

    /// Attempts to decrement `value` of sensor type `kind` from the slot
    /// covering `expires_at`; both the total and the per-type aggregate must
    /// be decrementable or the slot is left, unchanged, for a rebuild.
    pub(crate) fn try_remove_kind(
        &mut self,
        expires_at: Timestamp,
        value: f64,
        kind: u16,
    ) -> RemoveOutcome {
        let abs = self.config.slot_of(expires_at);
        let i = self.bucket(abs);
        if !self.cells[i].holds(abs) {
            return RemoveOutcome::Absent;
        }
        // Trial-remove on copies so failure leaves no partial mutation.
        let mut total = self.cells[i].agg;
        let row = if *self.kinds == MANY_KINDS {
            let rows = &self.side.rows[self.at + i];
            let Ok(r) = rows.binary_search_by_key(&kind, |(k, _)| *k) else {
                return RemoveOutcome::NeedsRebuild; // unknown kind
            };
            let mut of_kind = rows[r].1;
            if !of_kind.try_remove(value) {
                return RemoveOutcome::NeedsRebuild;
            }
            Some((r, of_kind))
        } else if *self.kinds == u32::from(kind) {
            None // the row is the total
        } else {
            return RemoveOutcome::NeedsRebuild; // unknown kind
        };
        if !total.try_remove(value) {
            return RemoveOutcome::NeedsRebuild;
        }
        if total.is_empty() {
            self.clear(i);
            return RemoveOutcome::Removed;
        }
        self.cells[i].agg = total;
        if let Some((r, of_kind)) = row {
            let rows = &mut self.side.rows[self.at + i];
            if of_kind.is_empty() {
                rows.remove(r);
            } else {
                rows[r].1 = of_kind;
            }
        }
        RemoveOutcome::Removed
    }

    /// Replaces the slot with absolute index `abs` outright (used by slot
    /// rebuilds); an empty aggregate clears the slot. The rows stay implicit
    /// only if they are what an implicit row would read as: one row, of the
    /// ring's one kind, equal to the total bit for bit.
    pub(crate) fn set_slot(&mut self, abs: u64, slot: Slot) {
        let i = self.bucket(abs);
        if slot.agg.is_empty() {
            if self.cells[i].holds(abs) {
                self.clear(i);
            }
            return;
        }
        if *self.kinds != MANY_KINDS {
            match slot.by_kind[..] {
                [(kind, row)]
                    if same_bits(&row, &slot.agg)
                        && (*self.kinds == NO_KIND || *self.kinds == u32::from(kind)) =>
                {
                    *self.kinds = u32::from(kind)
                }
                _ => self.write_rows_out(),
            }
        }
        self.cells[i] = Cell {
            abs,
            min_ts: slot.min_ts,
            agg: slot.agg,
        };
        if *self.kinds == MANY_KINDS {
            *self.side.rows_mut(self.at + i) = slot.by_kind;
        }
    }

    /// Drops every slot older than `new_base` (the window slide / roll
    /// trigger). Returns the number of slots expunged.
    pub(crate) fn roll_to(&mut self, new_base: u64) -> usize {
        let mut dropped = 0;
        for i in 0..self.cells.len() {
            let cell = &self.cells[i];
            if cell.agg.count != 0 && cell.abs < new_base {
                self.clear(i);
                dropped += 1;
            }
        }
        dropped
    }

    /// Drops the slot with absolute index `abs`, if held — the roll, aimed
    /// at one slot of a node known to have opened it. Returns whether there
    /// was one to drop.
    pub(crate) fn drop_slot(&mut self, abs: u64) -> bool {
        let i = self.bucket(abs);
        let held = self.cells[i].holds(abs);
        if held {
            self.clear(i);
        }
        held
    }
}

fn same_bits(a: &PartialAgg, b: &PartialAgg) -> bool {
    a.count == b.count
        && a.sum.to_bits() == b.sum.to_bits()
        && a.min.to_bits() == b.min.to_bits()
        && a.max.to_bits() == b.max.to_bits()
}

/// A slot cache that owns its ring: one node's worth, for users outside the
/// tree (whose nodes' rings sit in per-stripe slabs, see
/// `ColrTree::with_cache`). Stores up to `num_slots + 1` consecutive
/// absolute slots (the `+1` covers the partially expired boundary slot while
/// the window is mid-stride).
///
/// ```
/// use colr_tree::{SlotCache, SlotConfig, TimeDelta, Timestamp};
///
/// // 8 slots covering a 10-minute window.
/// let config = SlotConfig::for_window(TimeDelta::from_mins(10), 8);
/// let mut cache = SlotCache::new(config);
///
/// // A reading worth 21.5, produced at t=1s, expiring at t=5min.
/// cache.insert(Timestamp(300_000), Timestamp(1_000), 21.5, 0);
///
/// // A query at t=60s accepting 2-minute-old data can use it...
/// let (agg, slots) = cache.usable(Timestamp(60_000), TimeDelta::from_mins(2));
/// assert_eq!(agg.count, 1);
/// assert_eq!(slots, 1);
///
/// // ...but after the window slides past the reading's slot it is gone.
/// cache.roll_to(config.base_at(Timestamp(310_000)));
/// let (agg, _) = cache.usable(Timestamp(310_000), TimeDelta::from_mins(10));
/// assert!(agg.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SlotCache {
    config: SlotConfig,
    cells: Vec<Cell>,
    kinds: u32,
    side: Side,
}

impl SlotCache {
    /// An empty cache with the given configuration.
    pub fn new(config: SlotConfig) -> Self {
        let ring_len = config.num_slots + 1;
        SlotCache {
            config,
            cells: vec![Cell::EMPTY; ring_len],
            kinds: NO_KIND,
            side: Side::new(ring_len),
        }
    }

    /// The cache's ring, for reading: every lookup is a [`SlotRing`] method.
    #[inline]
    pub fn ring(&self) -> SlotRing<'_> {
        SlotRing {
            config: &self.config,
            cells: &self.cells,
            kinds: self.kinds,
            side: &self.side,
            at: 0,
        }
    }

    #[inline]
    pub(crate) fn ring_mut(&mut self) -> SlotRingMut<'_> {
        SlotRingMut {
            config: &self.config,
            cells: &mut self.cells,
            kinds: &mut self.kinds,
            side: &mut self.side,
            at: 0,
        }
    }

    /// Returns the slot with absolute index `abs`, if present.
    pub fn slot(&self, abs: u64) -> Option<Slot> {
        self.ring().slot(abs)
    }

    /// Inserts one reading's value into the slot covering `expires_at`
    /// (sensor type 0). See [`SlotCache::insert_kind`].
    pub fn insert(&mut self, expires_at: Timestamp, ts: Timestamp, value: f64, base: u64) -> bool {
        self.insert_kind(expires_at, ts, value, 0, base)
    }

    /// Inserts one reading's value into the slot covering `expires_at`,
    /// tracking the sensor type's sub-aggregate.
    ///
    /// `base` is the tree-wide current base slot; readings that would land
    /// below it are already expired and are ignored (returns `false`).
    /// Readings beyond the window top are also ignored — the owner is
    /// expected to have rolled the window first (the paper's "slide until the
    /// youngest slot covers the reading").
    pub fn insert_kind(
        &mut self,
        expires_at: Timestamp,
        ts: Timestamp,
        value: f64,
        kind: u16,
        base: u64,
    ) -> bool {
        self.ring_mut()
            .insert_opening(expires_at, ts, value, kind, base)
            .is_some()
    }

    /// Attempts to decrement `value` (sensor type 0) from the slot covering
    /// `expires_at`.
    pub fn try_remove(&mut self, expires_at: Timestamp, value: f64) -> RemoveOutcome {
        self.try_remove_kind(expires_at, value, 0)
    }

    /// Attempts to decrement `value` of sensor type `kind` from the slot
    /// covering `expires_at`; both the total and the per-type aggregate must
    /// be decrementable or the slot is left for a rebuild.
    pub fn try_remove_kind(
        &mut self,
        expires_at: Timestamp,
        value: f64,
        kind: u16,
    ) -> RemoveOutcome {
        self.ring_mut().try_remove_kind(expires_at, value, kind)
    }

    /// Replaces the slot with absolute index `abs` outright (used by slot
    /// rebuilds); an empty aggregate clears the slot.
    pub fn set_slot(&mut self, abs: u64, slot: Slot) {
        self.ring_mut().set_slot(abs, slot)
    }

    /// Drops every slot older than `new_base` (the window slide / roll
    /// trigger). Returns the number of slots expunged.
    pub fn roll_to(&mut self, new_base: u64) -> usize {
        self.ring_mut().roll_to(new_base)
    }

    /// [`SlotRing::usable`] of the cache's ring.
    pub fn usable(&self, now: Timestamp, staleness: TimeDelta) -> (PartialAgg, u64) {
        self.ring().usable(now, staleness)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggKind;

    fn cfg(width_ms: u64, slots: usize) -> SlotConfig {
        SlotConfig {
            slot_width: TimeDelta::from_millis(width_ms),
            num_slots: slots,
        }
    }

    #[test]
    fn for_window_covers_t_max() {
        let c = SlotConfig::for_window(TimeDelta::from_millis(1_000), 3);
        assert!(c.slot_width.millis() * 3 >= 1_000);
        assert_eq!(c.num_slots, 3);
        let exact = SlotConfig::for_window(TimeDelta::from_millis(900), 3);
        assert_eq!(exact.slot_width, TimeDelta::from_millis(300));
    }

    #[test]
    fn slot_of_uses_floor() {
        let c = cfg(100, 4);
        assert_eq!(c.slot_of(Timestamp(0)), 0);
        assert_eq!(c.slot_of(Timestamp(99)), 0);
        assert_eq!(c.slot_of(Timestamp(100)), 1);
    }

    #[test]
    fn insert_groups_by_expiry_slot() {
        let mut sc = SlotCache::new(cfg(100, 4));
        assert!(sc.insert(Timestamp(150), Timestamp(10), 5.0, 0));
        assert!(sc.insert(Timestamp(199), Timestamp(20), 7.0, 0));
        assert!(sc.insert(Timestamp(250), Timestamp(30), 1.0, 0));
        let s1 = sc.slot(1).unwrap();
        assert_eq!(s1.agg.count, 2);
        assert_eq!(s1.agg.sum, 12.0);
        assert_eq!(s1.min_ts, Timestamp(10));
        assert_eq!(sc.slot(2).unwrap().agg.count, 1);
        assert_eq!(sc.ring().held_slots().collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn insert_below_base_is_rejected() {
        let mut sc = SlotCache::new(cfg(100, 4));
        assert!(!sc.insert(Timestamp(50), Timestamp(0), 1.0, 2));
        assert_eq!(sc.ring().held_slots().count(), 0);
    }

    #[test]
    fn insert_beyond_window_is_rejected() {
        let mut sc = SlotCache::new(cfg(100, 4)); // ring covers base..base+5
        assert!(!sc.insert(Timestamp(501), Timestamp(0), 1.0, 0));
        assert!(sc.insert(Timestamp(499), Timestamp(0), 1.0, 0));
    }

    #[test]
    fn roll_drops_old_slots_only() {
        let mut sc = SlotCache::new(cfg(100, 4));
        sc.insert(Timestamp(50), Timestamp(0), 1.0, 0);
        sc.insert(Timestamp(150), Timestamp(0), 2.0, 0);
        sc.insert(Timestamp(250), Timestamp(0), 3.0, 0);
        assert_eq!(sc.roll_to(2), 2);
        assert!(sc.slot(0).is_none());
        assert!(sc.slot(1).is_none());
        assert_eq!(sc.slot(2).unwrap().agg.sum, 3.0);
    }

    #[test]
    fn try_remove_midrange() {
        let mut sc = SlotCache::new(cfg(100, 4));
        sc.insert(Timestamp(150), Timestamp(0), 1.0, 0);
        sc.insert(Timestamp(150), Timestamp(0), 2.0, 0);
        sc.insert(Timestamp(150), Timestamp(0), 3.0, 0);
        assert_eq!(sc.try_remove(Timestamp(150), 2.0), RemoveOutcome::Removed);
        assert_eq!(sc.slot(1).unwrap().agg.count, 2);
    }

    #[test]
    fn try_remove_extreme_signals_rebuild() {
        let mut sc = SlotCache::new(cfg(100, 4));
        sc.insert(Timestamp(150), Timestamp(0), 1.0, 0);
        sc.insert(Timestamp(150), Timestamp(0), 3.0, 0);
        assert_eq!(
            sc.try_remove(Timestamp(150), 3.0),
            RemoveOutcome::NeedsRebuild
        );
        // State preserved for the rebuild.
        assert_eq!(sc.slot(1).unwrap().agg.count, 2);
    }

    #[test]
    fn try_remove_absent() {
        let mut sc = SlotCache::new(cfg(100, 4));
        assert_eq!(sc.try_remove(Timestamp(150), 1.0), RemoveOutcome::Absent);
    }

    #[test]
    fn remove_last_clears_slot() {
        let mut sc = SlotCache::new(cfg(100, 4));
        sc.insert(Timestamp(150), Timestamp(0), 1.0, 0);
        assert_eq!(sc.try_remove(Timestamp(150), 1.0), RemoveOutcome::Removed);
        assert!(sc.slot(1).is_none());
        assert_eq!(sc.ring().held_slots().count(), 0);
    }

    #[test]
    fn usable_skips_partially_expired_boundary_slot() {
        let mut sc = SlotCache::new(cfg(100, 4));
        sc.insert(Timestamp(150), Timestamp(100), 1.0, 1); // slot 1: [100,200)
        sc.insert(Timestamp(250), Timestamp(100), 2.0, 1); // slot 2: [200,300)
                                                           // now = 150 sits inside slot 1 → slot 1 is partially expired, skip.
        let (agg, used) = sc.usable(Timestamp(150), TimeDelta::from_millis(1_000));
        assert_eq!(used, 1);
        assert_eq!(agg.sum, 2.0);
        // now = 100 exactly at slot 1's lower edge → slot 1 fully unexpired.
        let (agg, used) = sc.usable(Timestamp(100), TimeDelta::from_millis(1_000));
        assert_eq!(used, 2);
        assert_eq!(agg.sum, 3.0);
    }

    #[test]
    fn usable_enforces_freshness_watermark() {
        let mut sc = SlotCache::new(cfg(100, 4));
        sc.insert(Timestamp(250), Timestamp(10), 2.0, 0); // old production ts
        sc.insert(Timestamp(350), Timestamp(90), 5.0, 0); // fresh
        let now = Timestamp(100);
        // staleness 20ms → bound=80 → only the ts=90 slot qualifies.
        let (agg, used) = sc.usable(now, TimeDelta::from_millis(20));
        assert_eq!(used, 1);
        assert_eq!(agg.sum, 5.0);
        // staleness 95ms → bound=5 → both.
        let (agg, used) = sc.usable(now, TimeDelta::from_millis(95));
        assert_eq!(used, 2);
        assert_eq!(agg.sum, 7.0);
    }

    #[test]
    fn usable_freshness_uses_min_constituent() {
        let mut sc = SlotCache::new(cfg(100, 4));
        // Same slot: one stale constituent poisons the slot for tight bounds.
        sc.insert(Timestamp(250), Timestamp(10), 2.0, 0);
        sc.insert(Timestamp(260), Timestamp(90), 5.0, 0);
        let (agg, used) = sc.usable(Timestamp(100), TimeDelta::from_millis(20));
        assert_eq!(used, 0);
        assert!(agg.is_empty());
    }

    #[test]
    fn set_slot_replaces_and_clears() {
        let mut sc = SlotCache::new(cfg(100, 4));
        sc.set_slot(
            3,
            Slot {
                agg: PartialAgg::from_values(&[1.0, 2.0]),
                min_ts: Timestamp(5),
                by_kind: vec![(0, PartialAgg::from_values(&[1.0, 2.0]))],
            },
        );
        assert_eq!(sc.slot(3).unwrap().agg.count, 2);
        sc.set_slot(
            3,
            Slot {
                agg: PartialAgg::empty(),
                min_ts: Timestamp(0),
                by_kind: Vec::new(),
            },
        );
        assert!(sc.slot(3).is_none());
    }

    #[test]
    fn ring_reuses_buckets_across_rolls() {
        let mut sc = SlotCache::new(cfg(100, 2)); // ring len 3
        sc.insert(Timestamp(50), Timestamp(0), 1.0, 0); // slot 0
        sc.roll_to(3);
        // Slot 3 maps to bucket 0 — the rolled-out slot 0 must not alias.
        assert!(sc.slot(3).is_none());
        assert!(sc.insert(Timestamp(350), Timestamp(300), 9.0, 3));
        assert_eq!(sc.slot(3).unwrap().agg.sum, 9.0);
        assert!(sc.slot(0).is_none());
    }

    #[test]
    fn stale_bucket_is_replaced_on_insert_without_roll() {
        // Defensive path: insert into a bucket still holding a pre-roll slot.
        let mut sc = SlotCache::new(cfg(100, 2)); // ring len 3
        sc.insert(Timestamp(50), Timestamp(0), 1.0, 0); // abs 0, bucket 0
                                                        // Window has moved to base 3 but roll_to was not called; abs 3 shares
                                                        // bucket 0.
        assert!(sc.insert(Timestamp(350), Timestamp(300), 9.0, 3));
        let s = sc.slot(3).unwrap();
        assert_eq!(s.agg.count, 1);
        assert_eq!(s.agg.sum, 9.0);
    }

    #[test]
    fn combined_aggregate_finalises_correctly() {
        let mut sc = SlotCache::new(cfg(100, 4));
        sc.insert(Timestamp(150), Timestamp(0), 1.0, 0);
        sc.insert(Timestamp(250), Timestamp(0), 5.0, 0);
        sc.insert(Timestamp(350), Timestamp(0), 3.0, 0);
        let (agg, _) = sc.usable(Timestamp(100), TimeDelta::from_millis(1_000));
        assert_eq!(agg.finalize(AggKind::Count), Some(3.0));
        assert_eq!(agg.finalize(AggKind::Min), Some(1.0));
        assert_eq!(agg.finalize(AggKind::Max), Some(5.0));
        assert_eq!(agg.finalize(AggKind::Avg), Some(3.0));
    }

    #[test]
    fn per_kind_subaggregates_track_inserts() {
        let mut sc = SlotCache::new(cfg(100, 4));
        sc.insert_kind(Timestamp(150), Timestamp(0), 1.0, 1, 0);
        sc.insert_kind(Timestamp(150), Timestamp(0), 2.0, 2, 0);
        sc.insert_kind(Timestamp(160), Timestamp(0), 3.0, 1, 0);
        let slot = sc.slot(1).unwrap();
        assert_eq!(slot.agg.count, 3);
        assert_eq!(slot.kind_agg(1).count, 2);
        assert_eq!(slot.kind_agg(1).sum, 4.0);
        assert_eq!(slot.kind_agg(2).count, 1);
        assert!(slot.kind_agg(9).is_empty());
    }

    #[test]
    fn usable_kind_filters_by_type() {
        let mut sc = SlotCache::new(cfg(100, 4));
        sc.insert_kind(Timestamp(150), Timestamp(0), 1.0, 1, 0);
        sc.insert_kind(Timestamp(250), Timestamp(0), 2.0, 2, 0);
        sc.insert_kind(Timestamp(250), Timestamp(0), 4.0, 1, 0);
        let (agg, used) = sc
            .ring()
            .usable_kind(Timestamp(100), TimeDelta::from_millis(1_000), 1);
        assert_eq!(agg.count, 2);
        assert_eq!(agg.sum, 5.0);
        assert_eq!(used, 2);
        let (agg, used) = sc
            .ring()
            .usable_kind(Timestamp(100), TimeDelta::from_millis(1_000), 2);
        assert_eq!(agg.count, 1);
        assert_eq!(used, 1);
        let (agg, used) = sc
            .ring()
            .usable_kind(Timestamp(100), TimeDelta::from_millis(1_000), 7);
        assert!(agg.is_empty());
        assert_eq!(used, 0);
    }

    #[test]
    fn kind_remove_keeps_total_and_per_kind_consistent() {
        let mut sc = SlotCache::new(cfg(100, 4));
        sc.insert_kind(Timestamp(150), Timestamp(0), 1.0, 1, 0);
        sc.insert_kind(Timestamp(150), Timestamp(0), 2.0, 1, 0);
        sc.insert_kind(Timestamp(150), Timestamp(0), 3.0, 1, 0);
        assert_eq!(
            sc.try_remove_kind(Timestamp(150), 2.0, 1),
            RemoveOutcome::Removed
        );
        let slot = sc.slot(1).unwrap();
        assert_eq!(slot.agg.count, 2);
        assert_eq!(slot.kind_agg(1).count, 2);
        // Removing with the wrong kind forces a rebuild.
        assert_eq!(
            sc.try_remove_kind(Timestamp(150), 3.0, 9),
            RemoveOutcome::NeedsRebuild
        );
    }
}
