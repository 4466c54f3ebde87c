//! Dense-id slab map.
//!
//! The simulator's request and job identifiers come from monotone
//! counters starting at zero, so a hash map — even a fast one — wastes
//! work: the key space is already a perfect array index. [`IdMap`]
//! stores values in a `Vec<Option<V>>` indexed directly by id. Lookup
//! and removal are a bounds check and an array access; iteration is in
//! ascending id order (deterministic, unlike any hash map).
//!
//! Slots are never reclaimed — the backing vector grows to the largest
//! id ever inserted. That is the right trade for simulation runs, where
//! id cardinality is bounded by the workload and runs are short-lived.

/// A map from dense `u64` ids to values, backed by a slab.
#[derive(Debug, Clone)]
pub struct IdMap<V> {
    slots: Vec<Option<V>>,
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        IdMap { slots: Vec::new() }
    }
}

impl<V> IdMap<V> {
    /// The value for `id`, if present.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&V> {
        self.slots.get(id as usize)?.as_ref()
    }

    /// Mutable access to the value for `id`, if present.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        self.slots.get_mut(id as usize)?.as_mut()
    }

    /// Inserts `v` at `id`, returning the previous value if any.
    pub fn insert(&mut self, id: u64, v: V) -> Option<V> {
        let i = id as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i].replace(v)
    }

    /// Removes and returns the value at `id`, if present.
    #[inline]
    pub fn remove(&mut self, id: u64) -> Option<V> {
        self.slots.get_mut(id as usize)?.take()
    }

    /// Live ids, ascending.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| i as u64)
    }

    /// Live `(id, value)` pairs, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i as u64, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: IdMap<String> = IdMap::default();
        assert_eq!(m.keys().next(), None);
        assert_eq!(m.insert(3, "three".into()), None);
        assert_eq!(m.insert(0, "zero".into()), None);
        assert_eq!(m.keys().count(), 2);
        assert_eq!(m.get(3).map(String::as_str), Some("three"));
        assert_eq!(m.get(1), None);
        assert_eq!(m.get(99), None);
        assert_eq!(m.insert(3, "THREE".into()).as_deref(), Some("three"));
        assert_eq!(m.keys().count(), 2);
        assert_eq!(m.remove(3).as_deref(), Some("THREE"));
        assert_eq!(m.remove(3), None);
        assert_eq!(m.keys().count(), 1);
    }

    #[test]
    fn iteration_is_ascending() {
        let mut m: IdMap<u32> = IdMap::default();
        for id in [5u64, 1, 9, 2] {
            m.insert(id, id as u32 * 10);
        }
        m.remove(9);
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![1, 2, 5]);
        assert_eq!(
            m.iter().map(|(k, &v)| (k, v)).collect::<Vec<_>>(),
            vec![(1, 10), (2, 20), (5, 50)]
        );
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut m: IdMap<u32> = IdMap::default();
        m.insert(4, 1);
        *m.get_mut(4).unwrap() += 10;
        assert_eq!(m.get(4), Some(&11));
        assert_eq!(m.get_mut(5), None);
    }
}
