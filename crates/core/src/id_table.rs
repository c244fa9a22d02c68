//! A table keyed by dense integer ids, in memory proportional to the ids in
//! use rather than to the largest one seen.
//!
//! Ids are grouped into chunks of [`CHUNK`] consecutive values. A chunk is
//! allocated when the first of its ids is inserted and freed when the last
//! one is removed, so a population whose ids only ever grow — registrations
//! numbered in arrival order and retired oldest first — keeps one chunk per
//! 1,024 live ids plus the chunk at either end of the live run. Lookup is
//! two indexings: no hashing, no search. The chunk list itself costs one
//! word per 1,024 ids up to the largest id inserted.
//!
//! The LSM index keeps its sensor directory here (global id → where the
//! sensor lives, and whether it is retired); the shard router keeps its
//! registration tickets here (ticket → placement).

/// Ids per chunk.
pub const CHUNK: usize = 1_024;

/// [`CHUNK`] consecutive ids and how many of them hold a value.
#[derive(Debug, Clone)]
struct Chunk<T> {
    used: usize,
    slots: Box<[Option<T>]>,
}

/// Id → `T`, chunked; see the module docs.
#[derive(Debug, Clone)]
pub struct IdTable<T> {
    /// `chunks[c]` holds ids `c * CHUNK ..`; `None` when none of them is set.
    chunks: Vec<Option<Chunk<T>>>,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        IdTable { chunks: Vec::new() }
    }
}

impl<T: Copy> IdTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value at `id`, if set.
    #[inline]
    pub fn get(&self, id: usize) -> Option<&T> {
        self.chunks.get(id / CHUNK)?.as_ref()?.slots[id % CHUNK].as_ref()
    }

    /// The value at `id`, if set, for update in place.
    #[inline]
    pub fn get_mut(&mut self, id: usize) -> Option<&mut T> {
        self.chunks.get_mut(id / CHUNK)?.as_mut()?.slots[id % CHUNK].as_mut()
    }

    /// Sets `id` to `value`, returning what it held. Allocates `id`'s chunk
    /// if none of its ids was set.
    pub fn insert(&mut self, id: usize, value: T) -> Option<T> {
        let c = id / CHUNK;
        if self.chunks.len() <= c {
            self.chunks.resize_with(c + 1, || None);
        }
        let chunk = self.chunks[c].get_or_insert_with(|| Chunk {
            used: 0,
            slots: vec![None; CHUNK].into_boxed_slice(),
        });
        let was = chunk.slots[id % CHUNK].replace(value);
        chunk.used += usize::from(was.is_none());
        was
    }

    /// Clears `id`, returning what it held. Frees the chunk once none of its
    /// ids is set.
    pub fn remove(&mut self, id: usize) -> Option<T> {
        let slot = self.chunks.get_mut(id / CHUNK)?;
        let chunk = slot.as_mut()?;
        let was = chunk.slots[id % CHUNK].take()?;
        chunk.used -= 1;
        if chunk.used == 0 {
            *slot = None;
        }
        Some(was)
    }

    /// Every value, by ascending id.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        let chunks = self.chunks.iter_mut().flatten();
        chunks.flat_map(|chunk| chunk.slots.iter_mut().flatten())
    }

    /// Chunks currently allocated.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> usize {
        self.chunks.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// One operation of the model test. Ids span four chunks, so chunks are
    /// freed and allocated again all the time.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(usize, u32),
        Get(usize),
        SetRetired(usize),
        Remove(usize),
    }

    fn any_op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        // Few ids per chunk, so chunks empty out often; the chunk ends are
        // drawn on purpose.
        let id = || {
            prop_oneof![
                3 => (0usize..4).prop_map(|c| c * CHUNK),
                3 => (0usize..4).prop_map(|c| c * CHUNK + CHUNK - 1),
                4 => (0usize..4, 0usize..6).prop_map(|(c, j)| c * CHUNK + 100 + j),
            ]
        };
        prop_oneof![
            4 => (id(), 0u32..1_000).prop_map(|(id, v)| Op::Insert(id, v)),
            2 => id().prop_map(Op::Get),
            2 => id().prop_map(Op::SetRetired),
            4 => id().prop_map(Op::Remove),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// The table against a `HashMap`: every answer, and the chunks held
        /// are exactly those with a set id.
        #[test]
        fn the_table_answers_as_a_hash_map(ops in proptest::collection::vec(any_op(), 1..120)) {
            let mut table: IdTable<(u32, bool)> = IdTable::new();
            let mut model: HashMap<usize, (u32, bool)> = HashMap::new();
            for op in ops {
                match op {
                    Op::Insert(id, v) => {
                        assert_eq!(table.insert(id, (v, false)), model.insert(id, (v, false)));
                    }
                    Op::Get(id) => assert_eq!(table.get(id), model.get(&id)),
                    Op::SetRetired(id) => {
                        if let Some(e) = table.get_mut(id) {
                            e.1 = true;
                        }
                        if let Some(e) = model.get_mut(&id) {
                            e.1 = true;
                        }
                    }
                    Op::Remove(id) => assert_eq!(table.remove(id), model.remove(&id)),
                }
                let mut in_use: Vec<usize> = model.keys().map(|id| id / CHUNK).collect();
                in_use.sort_unstable();
                in_use.dedup();
                assert_eq!(table.chunks(), in_use.len(), "after {op:?}");
            }
            let mut ids: Vec<usize> = model.keys().copied().collect();
            ids.sort_unstable();
            let values: Vec<(u32, bool)> = table.values_mut().map(|v| *v).collect();
            assert_eq!(values, ids.iter().map(|id| model[id]).collect::<Vec<_>>());
        }
    }

    /// Ids issued in order and removed oldest first: the table holds the
    /// chunks the live run touches, however many ids have gone through it.
    #[test]
    fn a_fifo_cohort_keeps_the_chunks_it_touches() {
        let mut table = IdTable::new();
        for live in [1, 1_000, 4_096, 10_000] {
            let mut peak = 0;
            for id in 0..100_000 + live {
                assert_eq!(table.insert(id, id as u32), None);
                if id >= live {
                    assert_eq!(table.remove(id - live), Some((id - live) as u32));
                    assert_eq!(table.remove(id - live), None, "removed twice");
                }
                peak = peak.max(table.chunks());
            }
            assert!(
                peak <= live.div_ceil(CHUNK) + 2,
                "{peak} chunks for {live} live"
            );
            for id in 100_000..100_000 + live {
                assert_eq!(table.remove(id), Some(id as u32));
            }
            assert_eq!(table.chunks(), 0);
            // In a freed chunk, past the end, far past the end.
            for id in [0, 500_000, usize::MAX] {
                assert_eq!(table.get(id), None);
                assert_eq!(table.remove(id), None);
            }
        }
    }
}
