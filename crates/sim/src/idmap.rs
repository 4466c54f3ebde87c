//! Dense-id slab map.
//!
//! The simulator's request and job identifiers come from monotone
//! counters, so a hash map — even a fast one — wastes work: the key
//! space is already an array index. [`IdMap`] stores values in a
//! window of slots, `slots[i]` holding id `base + i`. Lookup and
//! removal are a subtraction, a bounds check and an array access;
//! iteration is in ascending id order (deterministic, unlike any hash
//! map).
//!
//! The window spans the live ids: the slots below the lowest live id
//! are dead, and once they are at least half as many as the slots
//! from it up, an insert that would grow the slab slides the live
//! slots down over them instead. A run that keeps a bounded number of
//! requests in flight therefore holds a bounded window, however many
//! it starts.

/// A map from dense `u64` ids to values, backed by a slab.
#[derive(Debug, Clone)]
pub struct IdMap<V> {
    /// The id of `slots[0]`.
    base: u64,
    /// Ids `base..base + slots.len()`.
    slots: Vec<Option<V>>,
    /// The slot of the lowest live id, or `slots.len()` when none is
    /// live: every slot below it is empty.
    head: usize,
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        IdMap {
            base: 0,
            slots: Vec::new(),
            head: 0,
        }
    }
}

impl<V> IdMap<V> {
    /// The slot index of `id`: past the end when `id` lies outside the
    /// window (an id below `base` wraps around).
    #[inline]
    fn slot(&self, id: u64) -> Option<usize> {
        usize::try_from(id.wrapping_sub(self.base)).ok()
    }

    /// The value for `id`, if present.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&V> {
        self.slots.get(self.slot(id)?)?.as_ref()
    }

    /// Mutable access to the value for `id`, if present.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        let i = self.slot(id)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Inserts `v` at `id`, returning the previous value if any.
    pub fn insert(&mut self, id: u64, v: V) -> Option<V> {
        let i = match self.slot(id) {
            Some(i) if i < self.slots.len() => i,
            _ => self.open(id),
        };
        self.head = self.head.min(i);
        self.slots[i].replace(v)
    }

    /// Moves the window to take in `id`, which lies outside it, and
    /// returns its slot. Out of line, as is [`IdMap::skip_dead`], so
    /// the inserts and removals inlined into the event loop stay small.
    #[inline(never)]
    fn open(&mut self, id: u64) -> usize {
        let span = |n: u64| usize::try_from(n).expect("id window exceeds the address space");
        if self.head == self.slots.len() {
            // Nothing live: the window restarts at `id`.
            self.slots.clear();
            self.head = 0;
            self.base = id;
        } else if id < self.base {
            let below = span(self.base - id);
            self.slots
                .splice(0..0, std::iter::repeat_with(|| None).take(below));
            self.head += below;
            self.base = id;
        }
        let mut i = span(id - self.base);
        if i >= self.slots.capacity() && self.head * 2 >= self.slots.len() - self.head {
            self.slots.drain(..self.head);
            self.base += self.head as u64;
            i -= self.head;
            self.head = 0;
        }
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        i
    }

    /// Removes and returns the value at `id`, if present.
    #[inline]
    pub fn remove(&mut self, id: u64) -> Option<V> {
        let i = self.slot(id)?;
        let v = self.slots.get_mut(i)?.take();
        if i == self.head {
            self.skip_dead();
        }
        v
    }

    /// Moves `head` past the empty slots at and above it.
    #[inline(never)]
    fn skip_dead(&mut self) {
        while self.slots.get(self.head).is_some_and(Option::is_none) {
            self.head += 1;
        }
    }

    /// Live ids, ascending.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Live `(id, value)` pairs, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        let first = self.base + self.head as u64;
        self.slots[self.head..]
            .iter()
            .zip(first..)
            .filter_map(|(s, id)| s.as_ref().map(|v| (id, v)))
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
    fn resolved_ids_free_their_slots() {
        // Ids ever started far outnumber those live at once: the window
        // follows the live ones and keeps reusing its slots.
        let mut m: IdMap<u64> = IdMap::default();
        let mut live = std::collections::VecDeque::new();
        for id in 0..10_000u64 {
            m.insert(id, id);
            live.push_back(id);
            if live.len() > 8 {
                // Resolve out of order: the second-oldest, then the oldest.
                let second = live.remove(1).unwrap();
                assert_eq!(m.remove(second), Some(second));
                let first = live.pop_front().unwrap();
                assert_eq!(m.remove(first), Some(first));
            }
            assert_eq!(m.keys().collect::<Vec<_>>(), Vec::from(live.clone()));
        }
        assert!(m.slots.capacity() <= 16, "{}", m.slots.capacity());
        assert_eq!(m.get(0), None);
        assert_eq!(m.get(9_999), Some(&9_999));
        // Drained, the window restarts wherever the next id lands.
        for id in live.drain(..) {
            assert_eq!(m.remove(id), Some(id));
        }
        assert_eq!(m.keys().next(), None);
        m.insert(20_000, 2);
        m.insert(5, 1);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(5, &1), (20_000, &2)]);
        assert_eq!(m.get(9_999), None);
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
