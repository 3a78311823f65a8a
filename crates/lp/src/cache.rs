//! Warm-start basis caches: the per-session bounded LRU ([`BasisCache`])
//! and its process-wide promotion ([`SharedBasisCache`]).
//!
//! A session's cache amortizes factorization work across the LPs of one
//! synthesis run. The shared cache amortizes it across *runs*: a
//! `qavad` daemon installs one [`SharedBasisCache`] into every request
//! session ([`crate::LpSolver::set_shared_cache`]), so the very first
//! solve of a pattern the process has seen before starts from that
//! pattern's last optimal basis. The store lives in memory only and
//! starts cold with each process.
//!
//! A shared basis is **advisory, never trusted**: the solve pipeline
//! validates shape (`len == m`, all indices `< n`) before offering it to
//! a backend, and every warm-capable backend re-validates by
//! refactorizing — a malformed or stale entry degrades to a cold solve,
//! it cannot poison a verdict (the same contract the `warm-poison`
//! fault-injection site pins for the session cache).

use std::collections::HashMap;
use std::sync::Mutex;

/// Bounded LRU map from LP sparsity pattern to final basis.
#[derive(Debug, Default)]
pub(crate) struct BasisCache {
    pub(crate) capacity: usize,
    /// Logical clock for recency; bumped on every touch.
    pub(crate) tick: u64,
    pub(crate) map: HashMap<u64, (Vec<usize>, u64)>,
}

impl BasisCache {
    pub(crate) fn new(capacity: usize) -> Self {
        BasisCache { capacity, tick: 0, map: HashMap::new() }
    }

    pub(crate) fn get(&mut self, key: u64) -> Option<Vec<usize>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|(basis, used)| {
            *used = tick;
            basis.clone()
        })
    }

    /// Inserts, returning the number of entries evicted to stay bounded.
    ///
    /// Evicts in a loop, not once: if the map is ever above capacity
    /// (e.g. after the bound shrank between touches), a single insert
    /// restores the invariant instead of leaving the cache permanently
    /// oversized. The existing entry for `key` is dropped up front —
    /// the insert overwrites it anyway — so the loop only ever has to
    /// make room for exactly one addition.
    pub(crate) fn put(&mut self, key: u64, basis: Vec<usize>) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        self.tick += 1;
        self.map.remove(&key);
        let mut evicted = 0;
        while self.map.len() >= self.capacity && self.evict_lru() {
            evicted += 1;
        }
        self.map.insert(key, (basis, self.tick));
        evicted
    }

    /// Removes the least-recently-used entry (linear scan: the cache is
    /// small by construction). Returns `false` when empty.
    pub(crate) fn evict_lru(&mut self) -> bool {
        match self.map.iter().min_by_key(|(_, (_, used))| *used).map(|(&k, _)| k) {
            Some(victim) => {
                self.map.remove(&victim);
                true
            }
            None => false,
        }
    }

    /// Drops one entry (failover invalidation: a basis that led a
    /// backend into the ladder must not seed the next solve of the same
    /// pattern). Returns whether an entry existed.
    pub(crate) fn remove(&mut self, key: u64) -> bool {
        self.map.remove(&key).is_some()
    }
}

/// Default capacity of a [`SharedBasisCache`]: far above the distinct
/// pattern count of the whole 36-row suite (a few hundred), so a
/// daemon's steady-state working set never thrashes.
pub const DEFAULT_SHARED_CACHE_CAPACITY: usize = 4096;

/// A process-wide, thread-safe, in-memory warm-start basis store: the
/// per-session warm-start cache promoted to process state.
///
/// Sessions consult it read-through (session cache first, then this
/// store) and write-through (every reusable final basis lands in both),
/// so concurrent requests share warmth without sharing sessions. All
/// access is behind one mutex; the critical sections are clone-a-vec
/// sized, far below solve cost.
#[derive(Debug)]
pub struct SharedBasisCache {
    inner: Mutex<BasisCache>,
}

impl Default for SharedBasisCache {
    fn default() -> Self {
        Self::new(DEFAULT_SHARED_CACHE_CAPACITY)
    }
}

impl SharedBasisCache {
    /// An empty (cold) store with the given LRU capacity bound.
    pub fn new(capacity: usize) -> Self {
        SharedBasisCache { inner: Mutex::new(BasisCache::new(capacity)) }
    }

    /// Looks up the basis cached for a sparsity-pattern hash.
    pub fn get(&self, key: u64) -> Option<Vec<usize>> {
        self.lock().get(key)
    }

    /// Stores the final basis for a pattern hash (LRU-bounded).
    pub fn put(&self, key: u64, basis: Vec<usize>) {
        self.lock().put(key, basis);
    }

    /// Drops a pattern's entry (failover invalidation reaches the shared
    /// store too: a basis that sent one request down the ladder must not
    /// seed the next request either).
    pub fn remove(&self, key: u64) {
        self.lock().remove(key);
    }

    /// Number of cached patterns.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the store is empty (cold).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the cached pattern keys (test introspection).
    #[cfg(test)]
    pub(crate) fn keys(&self) -> Vec<u64> {
        self.lock().map.keys().copied().collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BasisCache> {
        // A poisoned mutex means another thread panicked mid-operation;
        // the map itself is always structurally valid (no partial
        // states), so recover the guard rather than propagating the
        // panic into every solve.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_access_is_safe() {
        let cache = std::sync::Arc::new(SharedBasisCache::new(32));
        std::thread::scope(|s| {
            for t in 0..8 {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..200u64 {
                        cache.put(t * 1000 + (i % 40), vec![t as usize, i as usize]);
                        cache.get(i % 40);
                        if i % 17 == 0 {
                            cache.remove(i % 40);
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 32, "LRU bound holds under concurrency");
    }
}
