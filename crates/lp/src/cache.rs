//! Warm-start basis caches: the per-session bounded LRU ([`BasisCache`])
//! and its process-wide, **persistent** promotion ([`SharedBasisCache`]).
//!
//! A session's cache amortizes factorization work across the LPs of one
//! synthesis run. The shared cache amortizes it across *runs*: a
//! `qavad` daemon installs one [`SharedBasisCache`] into every request
//! session ([`crate::LpSolver::set_shared_cache`]), so the very first
//! solve of a pattern the process has seen before starts from that
//! pattern's last optimal basis — and because the store spills to a
//! versioned on-disk file ([`SharedBasisCache::save`] /
//! [`SharedBasisCache::load`]), the warmth survives daemon restarts.
//!
//! # Persistence invariants
//!
//! * The file format is versioned (magic + version byte) and ends in an
//!   FNV-1a checksum of everything after the magic. [`SharedBasisCache::load`]
//!   rejects a truncated, garbage, wrong-version or bit-flipped file
//!   with a descriptive error; [`SharedBasisCache::load_or_cold`] turns
//!   that into a logged warning and a cold (empty) cache. Loading never
//!   panics.
//! * A loaded basis is **advisory, never trusted**: the solve pipeline
//!   validates shape (`len == m`, all indices `< n`) before offering it
//!   to a backend, and every warm-capable backend re-validates by
//!   refactorizing — a corrupted-but-well-formed entry degrades to a
//!   cold solve, it cannot poison a verdict (the same contract the
//!   `warm-poison` fault-injection site pins for the session cache).
//! * [`SharedBasisCache::save`] writes to a temporary sibling and
//!   renames, so a crash mid-spill leaves the previous file intact.
//!   Concurrent saves of one store are serialized, so two spills never
//!   share the temporary file or race its rename.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
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

    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }
}

/// Default capacity of a [`SharedBasisCache`]: far above the distinct
/// pattern count of the whole 36-row suite (a few hundred), so a
/// daemon's steady-state working set never thrashes.
pub const DEFAULT_SHARED_CACHE_CAPACITY: usize = 4096;

/// 7-byte magic + 1-byte format version. Bump the version byte on any
/// layout change: an old daemon reading a new file (or vice versa) must
/// start cold, not misinterpret bytes.
const MAGIC: &[u8; 8] = b"QAVWARM\x01";

/// A process-wide, thread-safe, **persistent** warm-start basis store:
/// the session [`BasisCache`] promoted to process state.
///
/// Sessions consult it read-through (session cache first, then this
/// store) and write-through (every reusable final basis lands in both),
/// so concurrent requests share warmth without sharing sessions. All
/// access is behind one mutex; the critical sections are clone-a-vec
/// sized, far below solve cost.
#[derive(Debug)]
pub struct SharedBasisCache {
    inner: Mutex<BasisCache>,
    /// Mutations since the last [`take_dirty`](Self::take_dirty); lets a
    /// daemon spill only when something changed.
    dirty: AtomicU64,
    /// Held by [`save`](Self::save) from snapshot to rename: concurrent
    /// spills (two requests finishing together) would otherwise write
    /// one temporary file at once and race its rename.
    save_lock: Mutex<()>,
}

impl Default for SharedBasisCache {
    fn default() -> Self {
        Self::new(DEFAULT_SHARED_CACHE_CAPACITY)
    }
}

impl SharedBasisCache {
    /// An empty (cold) store with the given LRU capacity bound.
    pub fn new(capacity: usize) -> Self {
        SharedBasisCache {
            inner: Mutex::new(BasisCache::new(capacity)),
            dirty: AtomicU64::new(0),
            save_lock: Mutex::new(()),
        }
    }

    /// Looks up the basis cached for a sparsity-pattern hash.
    pub fn get(&self, key: u64) -> Option<Vec<usize>> {
        self.lock().get(key)
    }

    /// Stores the final basis for a pattern hash (LRU-bounded).
    pub fn put(&self, key: u64, basis: Vec<usize>) {
        self.lock().put(key, basis);
        self.dirty.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops a pattern's entry (failover invalidation reaches the shared
    /// store too: a basis that sent one request down the ladder must not
    /// seed the next request either).
    pub fn remove(&self, key: u64) {
        if self.lock().remove(key) {
            self.dirty.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of cached patterns.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the store is empty (cold).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the number of mutations since the last call, zeroing the
    /// counter — the daemon's "anything to spill?" probe.
    pub fn take_dirty(&self) -> u64 {
        self.dirty.swap(0, Ordering::Relaxed)
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

    /// Serializes the store to `path` (temp-file + rename, so a crash
    /// mid-write leaves any previous spill intact). Concurrent calls run
    /// one at a time, each writing a complete snapshot, so the last
    /// rename leaves the newest one.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the filesystem.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let _saving = self.save_lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let body = {
            let guard = self.lock();
            // Stable ordering for reproducible files (and tests).
            let mut keys: Vec<u64> = guard.map.keys().copied().collect();
            keys.sort_unstable();
            let mut body = Vec::with_capacity(16 + keys.len() * 64);
            body.extend_from_slice(&(keys.len() as u32).to_le_bytes());
            for key in keys {
                let (basis, _) = &guard.map[&key];
                body.extend_from_slice(&key.to_le_bytes());
                body.extend_from_slice(&(basis.len() as u32).to_le_bytes());
                for &j in basis {
                    body.extend_from_slice(&(j as u32).to_le_bytes());
                }
            }
            body
        };
        let mut file = Vec::with_capacity(MAGIC.len() + body.len() + 8);
        file.extend_from_slice(MAGIC);
        file.extend_from_slice(&body);
        file.extend_from_slice(&fnv1a(&body).to_le_bytes());
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&file)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Deserializes a store previously written by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// A descriptive message for every corruption class — missing file,
    /// truncation, wrong magic, wrong version, length overflow, checksum
    /// mismatch. Never panics: the caller's recovery is always "start
    /// cold".
    pub fn load(path: &Path, capacity: usize) -> Result<Self, String> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(format!("{}: truncated ({} bytes)", path.display(), bytes.len()));
        }
        if bytes[..7] != MAGIC[..7] {
            return Err(format!("{}: not a qava warm-start cache file", path.display()));
        }
        if bytes[7] != MAGIC[7] {
            return Err(format!(
                "{}: cache format version {} (this build reads {})",
                path.display(),
                bytes[7],
                MAGIC[7]
            ));
        }
        let body = &bytes[MAGIC.len()..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        if fnv1a(body) != stored {
            return Err(format!("{}: checksum mismatch (file corrupted)", path.display()));
        }
        let mut cur = Cursor { buf: body, pos: 0 };
        let count = cur.u32()? as usize;
        let cache = SharedBasisCache::new(capacity);
        {
            let mut guard = cache.lock();
            for _ in 0..count {
                let key = cur.u64()?;
                let len = cur.u32()? as usize;
                if len > body.len() / 4 {
                    return Err(format!("{}: basis length {len} overflows the file", path.display()));
                }
                let mut basis = Vec::with_capacity(len);
                for _ in 0..len {
                    basis.push(cur.u32()? as usize);
                }
                guard.put(key, basis);
            }
            if cur.pos != body.len() {
                return Err(format!(
                    "{}: {} trailing bytes after the last entry",
                    path.display(),
                    body.len() - cur.pos
                ));
            }
        }
        Ok(cache)
    }

    /// [`load`](Self::load) with the daemon's recovery policy baked in:
    /// a missing file is a normal cold start (no warning), any other
    /// load failure logs one warning to stderr and starts cold. Never
    /// panics, never refuses to start.
    pub fn load_or_cold(path: &Path, capacity: usize) -> Self {
        if !path.exists() {
            return SharedBasisCache::new(capacity);
        }
        match Self::load(path, capacity) {
            Ok(cache) => cache,
            Err(why) => {
                eprintln!("qava-lp: warm-start cache ignored, starting cold: {why}");
                SharedBasisCache::new(capacity)
            }
        }
    }
}

/// FNV-1a over a byte slice — the same cheap, dependency-free hash the
/// pattern hashing uses, here as the spill file's integrity check.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bounds-checked little-endian reader over the spill file body; every
/// overrun is a descriptive `Err`, never a slice panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        if self.pos + n > self.buf.len() {
            return Err("cache file truncated mid-entry".to_string());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qava-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn populated() -> SharedBasisCache {
        let c = SharedBasisCache::new(64);
        c.put(11, vec![0, 3, 5]);
        c.put(22, vec![7]);
        c.put(33, vec![2, 2, 9, 1_000_000]);
        c
    }

    #[test]
    fn save_load_roundtrip() {
        let path = tmp("roundtrip.warm");
        populated().save(&path).unwrap();
        let back = SharedBasisCache::load(&path, 64).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get(11), Some(vec![0, 3, 5]));
        assert_eq!(back.get(22), Some(vec![7]));
        assert_eq!(back.get(33), Some(vec![2, 2, 9, 1_000_000]));
        assert_eq!(back.get(44), None);
    }

    #[test]
    fn missing_file_is_a_quiet_cold_start() {
        let path = tmp("never-written.warm");
        let cache = SharedBasisCache::load_or_cold(&path, 8);
        assert!(cache.is_empty());
        assert!(SharedBasisCache::load(&path, 8).is_err(), "explicit load still reports");
    }

    #[test]
    fn truncated_file_starts_cold() {
        let path = tmp("truncated.warm");
        populated().save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0, 3, MAGIC.len(), bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = SharedBasisCache::load(&path, 64).unwrap_err();
            assert!(
                err.contains("truncated") || err.contains("checksum") || err.contains("not a qava"),
                "cut at {cut}: {err}"
            );
            assert!(SharedBasisCache::load_or_cold(&path, 64).is_empty());
        }
    }

    #[test]
    fn garbage_file_starts_cold() {
        let path = tmp("garbage.warm");
        std::fs::write(&path, b"{\"this\": \"is json, not a cache\", \"padding\": 123456789}")
            .unwrap();
        let err = SharedBasisCache::load(&path, 64).unwrap_err();
        assert!(err.contains("not a qava"), "{err}");
        assert!(SharedBasisCache::load_or_cold(&path, 64).is_empty());
    }

    #[test]
    fn wrong_version_starts_cold() {
        let path = tmp("version.warm");
        populated().save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[7] = 99;
        std::fs::write(&path, &bytes).unwrap();
        let err = SharedBasisCache::load(&path, 64).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
        assert!(SharedBasisCache::load_or_cold(&path, 64).is_empty());
    }

    #[test]
    fn bit_flip_fails_the_checksum() {
        let path = tmp("bitflip.warm");
        populated().save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = MAGIC.len() + (bytes.len() - MAGIC.len() - 8) / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = SharedBasisCache::load(&path, 64).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        assert!(SharedBasisCache::load_or_cold(&path, 64).is_empty());
    }

    #[test]
    fn oversized_length_field_is_rejected() {
        let path = tmp("oversized.warm");
        // Hand-build a file claiming one entry with a 2^31-element basis
        // but no data behind it — the length sanity check must fire
        // before any allocation of that size.
        let mut body = Vec::new();
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&77u64.to_le_bytes());
        body.extend_from_slice(&0x8000_0000u32.to_le_bytes());
        let mut file = MAGIC.to_vec();
        file.extend_from_slice(&body);
        file.extend_from_slice(&fnv1a(&body).to_le_bytes());
        std::fs::write(&path, &file).unwrap();
        let err = SharedBasisCache::load(&path, 64).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn load_respects_the_capacity_bound() {
        let path = tmp("bounded.warm");
        let big = SharedBasisCache::new(64);
        for k in 0..10 {
            big.put(k, vec![k as usize]);
        }
        big.save(&path).unwrap();
        let small = SharedBasisCache::load(&path, 4).unwrap();
        assert_eq!(small.len(), 4, "loading re-applies the LRU bound");
    }

    #[test]
    fn dirty_counter_tracks_mutations() {
        let c = SharedBasisCache::new(8);
        assert_eq!(c.take_dirty(), 0);
        c.put(1, vec![0]);
        c.put(2, vec![1]);
        c.get(1);
        c.remove(9); // absent: not a mutation
        assert_eq!(c.take_dirty(), 2);
        c.remove(1);
        assert_eq!(c.take_dirty(), 1);
        assert_eq!(c.take_dirty(), 0);
    }

    /// Two daemon requests finishing together both spill: every
    /// concurrent save must succeed and leave a readable file.
    #[test]
    fn concurrent_saves_to_one_path_all_succeed() {
        let path = tmp("concurrent-save.warm");
        let cache = populated();
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        cache.save(&path)
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap().expect("every concurrent save succeeds");
            }
        });
        let back = SharedBasisCache::load(&path, 64).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get(33), Some(vec![2, 2, 9, 1_000_000]));
    }

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
