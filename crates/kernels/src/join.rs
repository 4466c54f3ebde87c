//! Hash join: the Database Hash Join pipeline's second kernel.
//!
//! Classic build/probe equi-join on `u64` keys with fixed-size row
//! payloads, plus the radix partitioning helper that the data
//! restructuring step uses to split rows across join units.

/// A table row: a join key plus an opaque payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Join key.
    pub key: u64,
    /// Payload carried through the join.
    pub payload: u64,
}

/// Multiplicative hash (Fibonacci hashing); also the function the
/// restructuring step computes on the DRX when partitioning.
pub(crate) fn hash_key(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Partition index for `key` among `1 << radix_bits` partitions.
pub fn partition_of(key: u64, radix_bits: u32) -> usize {
    (hash_key(key) >> (64 - radix_bits)) as usize
}

/// Splits rows into `1 << radix_bits` partitions by key hash.
///
/// # Panics
///
/// Panics if `radix_bits` is 0 or > 16.
pub(crate) fn radix_partition(rows: &[Row], radix_bits: u32) -> Vec<Vec<Row>> {
    assert!((1..=16).contains(&radix_bits), "radix_bits in 1..=16");
    let mut parts = vec![Vec::new(); 1 << radix_bits];
    for row in rows {
        parts[partition_of(row.key, radix_bits)].push(*row);
    }
    parts
}

/// A build-side hash table: open addressing, linear probing.
#[derive(Debug, Clone)]
pub struct HashTable {
    slots: Vec<Option<Row>>,
    mask: usize,
}

impl HashTable {
    /// Builds a table from the build-side rows.
    pub(crate) fn build(rows: &[Row]) -> HashTable {
        let cap = (rows.len() * 2).next_power_of_two().max(8);
        let mut t = HashTable {
            slots: vec![None; cap],
            mask: cap - 1,
        };
        for row in rows {
            t.insert(*row);
        }
        t
    }

    fn insert(&mut self, row: Row) {
        let mut i = (hash_key(row.key) as usize) & self.mask;
        loop {
            match self.slots[i] {
                None => {
                    self.slots[i] = Some(row);
                    return;
                }
                Some(_) => i = (i + 1) & self.mask,
            }
        }
    }

    /// All build rows matching `key` (duplicates included).
    pub(crate) fn probe(&self, key: u64) -> Vec<Row> {
        let mut out = Vec::new();
        let mut i = (hash_key(key) as usize) & self.mask;
        loop {
            match self.slots[i] {
                None => return out,
                Some(r) => {
                    if r.key == key {
                        out.push(r);
                    }
                    i = (i + 1) & self.mask;
                }
            }
        }
    }
}

/// One joined output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Joined {
    /// The shared key.
    pub key: u64,
    /// Build-side payload.
    pub left: u64,
    /// Probe-side payload.
    pub right: u64,
}

/// Hash-joins `build` and `probe` on key equality.
pub fn hash_join(build: &[Row], probe: &[Row]) -> Vec<Joined> {
    let table = HashTable::build(build);
    let mut out = Vec::new();
    for p in probe {
        for b in table.probe(p.key) {
            out.push(Joined {
                key: p.key,
                left: b.payload,
                right: p.payload,
            });
        }
    }
    out
}

/// Partitioned hash join: partitions both sides, joins partition-wise.
/// Produces the same multiset of rows as [`hash_join`]; this is the
/// multi-join-unit layout the DMX restructuring step feeds.
pub fn partitioned_hash_join(build: &[Row], probe: &[Row], radix_bits: u32) -> Vec<Joined> {
    let bp = radix_partition(build, radix_bits);
    let pp = radix_partition(probe, radix_bits);
    let mut out = Vec::new();
    for (b, p) in bp.iter().zip(&pp) {
        out.extend(hash_join(b, p));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(keys: &[u64]) -> Vec<Row> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| Row {
                key: k,
                payload: 100 + i as u64,
            })
            .collect()
    }

    #[test]
    fn simple_join() {
        let build = rows(&[1, 2, 3]);
        let probe = rows(&[2, 3, 4]);
        let mut j = hash_join(&build, &probe);
        j.sort_by_key(|r| r.key);
        assert_eq!(j.len(), 2);
        assert_eq!(j[0].key, 2);
        assert_eq!(j[1].key, 3);
    }

    #[test]
    fn duplicate_keys_produce_cross_product() {
        let build = rows(&[5, 5]);
        let probe = rows(&[5, 5, 5]);
        let j = hash_join(&build, &probe);
        assert_eq!(j.len(), 6);
    }

    #[test]
    fn empty_sides() {
        assert!(hash_join(&[], &rows(&[1])).is_empty());
        assert!(hash_join(&rows(&[1]), &[]).is_empty());
        assert!(HashTable::build(&[]).probe(1).is_empty());
    }

    #[test]
    fn partitioning_is_complete_and_disjoint() {
        let data = rows(&(0..1000u64).collect::<Vec<_>>());
        let parts = radix_partition(&data, 4);
        assert_eq!(parts.len(), 16);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 1000);
        // Every row landed in the partition its key hashes to.
        for (pi, part) in parts.iter().enumerate() {
            for row in part {
                assert_eq!(partition_of(row.key, 4), pi);
            }
        }
    }

    #[test]
    fn partitioned_join_matches_plain_join() {
        let build = rows(&(0..500u64).map(|i| i % 97).collect::<Vec<_>>());
        let probe = rows(&(0..800u64).map(|i| i % 131).collect::<Vec<_>>());
        let mut a = hash_join(&build, &probe);
        let mut b = partitioned_hash_join(&build, &probe, 4);
        let key = |r: &Joined| (r.key, r.left, r.right);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn probe_returns_only_matching_keys() {
        let t = HashTable::build(&rows(&[10, 20, 30, 10]));
        assert_eq!(t.probe(10).len(), 2);
        assert_eq!(t.probe(20).len(), 1);
        assert!(t.probe(99).is_empty());
        // Every build row lands in the table.
        assert_eq!(t.probe(10).len() + t.probe(20).len() + t.probe(30).len(), 4);
    }

    #[test]
    fn hash_spreads_keys() {
        // Adjacent keys should land in different high bits.
        let mut buckets = [0u32; 16];
        for k in 0..1600u64 {
            buckets[partition_of(k, 4)] += 1;
        }
        for (i, b) in buckets.iter().enumerate() {
            assert!(*b > 50, "bucket {i} starved: {b}");
        }
    }
}
