//! A dense map keyed by small integer ids, with a hash spill.
//!
//! The simulator's hottest maps are keyed by configuration ids, which
//! real workloads draw from a small dense range (benchmark suites
//! number their bitstreams from 1) — for those, even a fast hash map
//! pays a multiply-probe where one array index suffices. [`DenseIdMap`]
//! stores values for ids below a fixed bound (2¹⁶) in a plain `Vec`
//! (grown on demand to the largest id seen) and spills ids of 65536 and
//! above — this file's tests use 70 000+ — to an [`FxHashMap`], so
//! correctness never depends on the id range. One implementation serves
//! the reuse-index
//! occurrence lists, the policies' touch stamps and the RU pool's
//! residency masks.

use crate::hash::FxHashMap;

/// Ids below this bound live in the dense table; anything above spills
/// to the hash map. 2¹⁶ slots of a small `V` is a bounded worst case
/// while covering every realistic id scheme densely.
const DENSE_IDS: u32 = 1 << 16;

/// Dense-by-id storage with hash spill (see module docs). Values are
/// created on first [`entry`](DenseIdMap::entry) access via `Default`;
/// [`clear_values`](DenseIdMap::clear_values) resets contents while
/// keeping every allocation, which is what a rebuild of the reuse
/// index or a policy reset wants.
#[derive(Debug, Clone, Default)]
pub struct DenseIdMap<V> {
    dense: Vec<V>,
    spill: FxHashMap<u32, V>,
}

impl<V: Default> DenseIdMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        DenseIdMap {
            dense: Vec::new(),
            spill: FxHashMap::default(),
        }
    }

    /// The value for `id`, creating a default one if absent.
    pub fn entry(&mut self, id: u32) -> &mut V {
        if id < DENSE_IDS {
            let idx = id as usize;
            if idx >= self.dense.len() {
                self.dense.resize_with(idx + 1, V::default);
            }
            &mut self.dense[idx]
        } else {
            self.spill.entry(id).or_default()
        }
    }

    /// The value for `id`, if one was ever created. Dense ids may
    /// return a default-valued slot created by a neighbouring `entry`;
    /// callers treat default values as "absent" (a zero stamp, an empty
    /// list, an empty mask), which makes the two indistinguishable.
    pub fn get(&self, id: u32) -> Option<&V> {
        if id < DENSE_IDS {
            self.dense.get(id as usize)
        } else {
            self.spill.get(&id)
        }
    }

    /// Applies `reset` to every stored value (dense and spill), keeping
    /// all allocations.
    pub fn clear_values(&mut self, mut reset: impl FnMut(&mut V)) {
        for v in &mut self.dense {
            reset(v);
        }
        for v in self.spill.values_mut() {
            reset(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_spill_round_trip() {
        let mut m: DenseIdMap<u64> = DenseIdMap::new();
        *m.entry(3) = 30;
        *m.entry(70_000) = 700; // above the dense bound
        assert_eq!(m.get(3), Some(&30));
        assert_eq!(m.get(70_000), Some(&700));
        assert_eq!(m.get(70_001), None);
        // A dense neighbour slot exists but holds the default.
        assert_eq!(m.get(2), Some(&0));
    }

    #[test]
    fn clear_values_resets_but_keeps_slots() {
        let mut m: DenseIdMap<Vec<u32>> = DenseIdMap::new();
        m.entry(5).push(1);
        m.entry(90_000).push(2);
        m.clear_values(Vec::clear);
        assert!(m.get(5).unwrap().is_empty());
        assert!(m.get(90_000).unwrap().is_empty());
    }
}
