// srclint: allow(R002): the expect re-reads an entry inserted under the same &mut borrow (map/order coherence is this type's invariant)
//! # crosse-cache
//!
//! A small bounded LRU cache shared by the query layers: the statement
//! cache (SQL and SESQL keyed by shape), the compiled SPARQL legs and the
//! SPARQL leg results all key compiled artefacts by query text and must
//! stay bounded under adversarial traffic (millions of distinct query
//! strings must not grow memory without bound).
//!
//! The implementation favours simplicity over peak throughput: a
//! `HashMap` from key to a stamped entry plus a `BTreeMap` from stamp to
//! key gives O(log n) touch/evict, which is noise next to the parse/plan
//! work a hit saves. Statistics ([`CacheStats`]) count hits, misses and
//! evictions so callers can surface cache behaviour to operators.
//!
//! The cache itself is not synchronised; engines wrap it in a mutex (all
//! call sites hold the lock only for the map operation, never while
//! parsing or planning).

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// Cumulative statistics of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries pushed out by capacity pressure (not explicit clears).
    pub evictions: u64,
}

#[derive(Debug)]
struct Entry<K, V> {
    stamp: u64,
    /// Copy of the map key, so a hit can refresh the recency index
    /// without requiring the caller to hand back an owned key.
    key: K,
    value: V,
}

/// A bounded least-recently-used map.
///
/// `get` refreshes recency; `put` evicts the least recently used entry
/// once the capacity is reached. Capacity 0 disables caching entirely
/// (every `get` misses, every `put` is dropped).
#[derive(Debug)]
pub struct Lru<K, V> {
    map: HashMap<K, Entry<K, V>>,
    order: BTreeMap<u64, K>,
    stamp: u64,
    capacity: usize,
    stats: CacheStats,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    pub fn new(capacity: usize) -> Self {
        Lru {
            map: HashMap::new(),
            order: BTreeMap::new(),
            stamp: 0,
            capacity,
            stats: CacheStats::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Change the capacity, evicting LRU entries if the cache shrank.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.map.len() > self.capacity {
            self.evict_one();
        }
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Remove every entry (does not count as evictions).
    pub fn clear(&mut self) {
        self.order.clear();
        self.map.clear();
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    fn evict_one(&mut self) {
        if let Some((_, key)) = self.order.pop_first() {
            self.map.remove(&key);
            self.stats.evictions += 1;
        }
    }

    /// Look up `key` without touching recency or the hit/miss counters —
    /// for diagnostic paths (e.g. `EXPLAIN`) that must not perturb what
    /// they observe.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(key).map(|e| &e.value)
    }

    /// Look up `key`, refreshing its recency. Clones are the caller's
    /// concern — values are typically `Arc`s.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let stamp = self.next_stamp();
        match self.map.get_mut(key) {
            Some(entry) => {
                self.order.remove(&entry.stamp);
                entry.stamp = stamp;
                self.order.insert(stamp, entry.key.clone());
                self.stats.hits += 1;
                Some(&self.map.get(key).expect("just seen").value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) an entry, evicting the LRU entry if full.
    pub fn put(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let stamp = self.next_stamp();
        if let Some(old) = self.map.remove(&key) {
            self.order.remove(&old.stamp);
        } else {
            while self.map.len() >= self.capacity {
                self.evict_one();
            }
        }
        self.order.insert(stamp, key.clone());
        self.map.insert(key.clone(), Entry { stamp, key, value });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_eviction_counting() {
        let mut lru: Lru<String, u32> = Lru::new(2);
        assert!(lru.get("a").is_none());
        lru.put("a".into(), 1);
        lru.put("b".into(), 2);
        assert_eq!(lru.get("a"), Some(&1));
        lru.put("c".into(), 3); // evicts b (LRU)
        assert!(lru.get("b").is_none());
        assert_eq!(lru.get("a"), Some(&1));
        assert_eq!(lru.get("c"), Some(&3));
        let s = lru.stats();
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 2);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn put_refreshes_existing_key_without_eviction() {
        let mut lru: Lru<String, u32> = Lru::new(2);
        lru.put("a".into(), 1);
        lru.put("b".into(), 2);
        lru.put("a".into(), 10);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.stats().evictions, 0);
        assert_eq!(lru.get("a"), Some(&10));
    }

    #[test]
    fn capacity_zero_disables() {
        let mut lru: Lru<u32, u32> = Lru::new(0);
        lru.put(1, 1);
        assert!(lru.is_empty());
        assert!(lru.get(&1).is_none());
    }

    #[test]
    fn shrinking_capacity_evicts() {
        let mut lru: Lru<u32, u32> = Lru::new(4);
        for i in 0..4 {
            lru.put(i, i);
        }
        lru.set_capacity(1);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.stats().evictions, 3);
        // The survivor is the most recently used.
        assert_eq!(lru.get(&3), Some(&3));
    }

    #[test]
    fn clear_resets_entries_not_stats() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.put(1, 1);
        assert_eq!(lru.get(&1), Some(&1));
        lru.clear();
        assert!(lru.is_empty());
        assert!(lru.get(&1).is_none());
        assert_eq!(lru.stats().hits, 1);
        assert_eq!(lru.stats().evictions, 0);
    }

    #[test]
    fn heavy_churn_stays_bounded() {
        let mut lru: Lru<String, usize> = Lru::new(8);
        for i in 0..1000 {
            lru.put(format!("q{i}"), i);
        }
        assert_eq!(lru.len(), 8);
        assert_eq!(lru.stats().evictions, 992);
        // The most recent 8 are present.
        for i in 992..1000 {
            assert!(lru.get(format!("q{i}").as_str()).is_some());
        }
    }
}
