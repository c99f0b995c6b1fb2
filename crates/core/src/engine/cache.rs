//! LRU cache of decomposition results, with the telemetry serving deployments size it by.

use super::prepared::PreparedSeries;
use crate::config::TasdConfig;
use std::collections::HashMap;
use std::sync::Arc;

/// Cache key: a 64-bit content fingerprint of the matrix
/// ([`Matrix::fingerprint`](tasd_tensor::Matrix::fingerprint)), its shape, and the
/// decomposition configuration. Two requests with the same key get the same series.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub fingerprint: u64,
    pub shape: (usize, usize),
    pub config: TasdConfig,
}

#[derive(Debug)]
struct CacheEntry {
    prepared: Arc<PreparedSeries>,
    last_used: u64,
    hits: u64,
    bytes: usize,
    packed_bytes: usize,
}

/// An LRU cache of *prepared* decomposition results, keyed by (matrix fingerprint,
/// configuration).
///
/// Decomposition is the expensive step of serving a TASD workload — every term walks the
/// full residual — while repeated requests against the same weights are the common case
/// (every forward pass of a deployed model re-multiplies the same decomposed tensors).
/// The cache makes the second request free: it returns the previously materialized
/// [`PreparedSeries`] behind an [`Arc`] — the decomposition *plus* every term already
/// packed in its planned backend's native format — so hits share storage instead of
/// copying and perform zero format conversions.
///
/// Eviction is least-recently-used with a logical clock; lookups bump recency.
///
/// # Zero capacity
///
/// A capacity of 0 is an explicit, supported configuration that disables caching: every
/// lookup misses, and [`insert`](Self::insert) is a documented pass-through — the series
/// is dropped on the floor, nothing is stored, no counter besides the miss count moves,
/// and no operation panics. Engines built with `cache_capacity(0)` therefore decompose on
/// every request, which is the right mode for operands that never repeat (e.g. per-batch
/// activations).
///
/// # Telemetry
///
/// The cache keeps the counters a serving deployment needs to size `cache_capacity` from
/// data: global hit/miss/insertion/eviction counts and resident bytes ([`stats`]
/// (Self::stats)), plus per-entry hit counts and byte sizes
/// ([`entry_stats`](Self::entry_stats)). Resident bytes include the packed execution
/// formats, not just the compressed series — a CSR- or dense-packed term costs real
/// memory and the sizing recipe in the `tasd::engine` module docs budgets for it.
#[derive(Debug)]
pub struct DecompositionCache {
    capacity: usize,
    entries: HashMap<CacheKey, CacheEntry>,
    clock: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    /// Sum of the resident entries' `bytes`.
    bytes_resident: usize,
}

impl DecompositionCache {
    /// A cache holding at most `capacity` series. A `capacity` of 0 disables caching
    /// entirely (see the type docs): the cache stays valid and panic-free, it just never
    /// retains anything.
    pub fn new(capacity: usize) -> Self {
        DecompositionCache {
            capacity,
            entries: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            bytes_resident: 0,
        }
    }

    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<Arc<PreparedSeries>> {
        self.clock += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.clock;
                entry.hits += 1;
                self.hits += 1;
                Some(Arc::clone(&entry.prepared))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    pub(crate) fn insert(&mut self, key: CacheKey, prepared: Arc<PreparedSeries>) {
        if self.capacity == 0 {
            // Documented pass-through: nothing is retained and nothing panics.
            return;
        }
        self.clock += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            // Evict the least-recently-used entry. Linear scan: capacities here are small
            // (tens to hundreds of layers), so an ordered index is not worth its bookkeeping.
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                if let Some(evicted) = self.entries.remove(&lru) {
                    self.bytes_resident -= evicted.bytes;
                    self.evictions += 1;
                }
            }
        }
        let bytes = prepared.storage_bytes();
        let packed_bytes = prepared.packed_bytes();
        self.insertions += 1;
        self.bytes_resident += bytes;
        if let Some(replaced) = self.entries.insert(
            key,
            CacheEntry {
                prepared,
                last_used: self.clock,
                hits: 0,
                bytes,
                packed_bytes,
            },
        ) {
            self.bytes_resident -= replaced.bytes;
        }
    }

    /// Inserts `prepared` under `key` **unless** the key is already resident, in which
    /// case the resident series is returned and `prepared` is dropped. This is the
    /// insert the concurrent serving path uses: two threads racing on the same cold key
    /// both decompose (the lock is not held across decomposition), and first-insert-wins
    /// keeps one canonical allocation resident instead of the loser displacing the
    /// winner — callers already holding the winner's `Arc` keep sharing storage with the
    /// cache, and the byte accounting never churns. Not counted as a hit: no lookup
    /// happened, the entry's recency is merely refreshed.
    pub(crate) fn insert_or_get(
        &mut self,
        key: CacheKey,
        prepared: Arc<PreparedSeries>,
    ) -> Arc<PreparedSeries> {
        if self.capacity == 0 {
            return prepared;
        }
        if let Some(entry) = self.entries.get_mut(&key) {
            self.clock += 1;
            entry.last_used = self.clock;
            return Arc::clone(&entry.prepared);
        }
        self.insert(key, Arc::clone(&prepared));
        prepared
    }

    /// Point-in-time counters of this cache.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries.len(),
            capacity: self.capacity,
            insertions: self.insertions,
            evictions: self.evictions,
            bytes_resident: self.bytes_resident,
        }
    }

    /// Per-entry counters of every resident series, hottest first (ties broken by
    /// fingerprint, for deterministic output). This is the data behind the "sizing
    /// `cache_capacity` from telemetry" recipe in the `tasd::engine` module docs.
    pub fn entry_stats(&self) -> Vec<CacheEntryStats> {
        let mut out: Vec<CacheEntryStats> = self
            .entries
            .iter()
            .map(|(k, e)| CacheEntryStats {
                fingerprint: k.fingerprint,
                shape: k.shape,
                config: k.config.to_string(),
                hits: e.hits,
                bytes: e.bytes,
                packed_bytes: e.packed_bytes,
            })
            .collect();
        out.sort_by(|a, b| b.hits.cmp(&a.hits).then(a.fingerprint.cmp(&b.fingerprint)));
        out
    }

    /// Drops every cached series (counters are preserved; resident bytes go to zero).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes_resident = 0;
    }
}

/// Counters describing cache behaviour, from
/// [`ExecutionEngine::cache_stats`](super::ExecutionEngine::cache_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached series.
    pub hits: u64,
    /// Lookups that had to decompose.
    pub misses: u64,
    /// Series currently resident.
    pub entries: usize,
    /// Maximum resident series.
    pub capacity: usize,
    /// Series stored since construction (pass-through inserts at capacity 0 not counted).
    pub insertions: u64,
    /// Resident series displaced to make room for newer ones.
    pub evictions: u64,
    /// Storage footprint of every resident prepared series, in bytes — the compressed
    /// terms plus their packed execution formats: the sum of the per-entry
    /// [`CacheEntryStats::bytes`]. Each key holds its own allocation (a racing insert
    /// adopts the resident copy), so nothing is counted twice.
    pub bytes_resident: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-entry counters of one resident series, from
/// [`DecompositionCache::entry_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntryStats {
    /// Content fingerprint of the decomposed matrix.
    pub fingerprint: u64,
    /// Shape of the decomposed matrix.
    pub shape: (usize, usize),
    /// Decomposition configuration, in `"n:m+n:m"` notation.
    pub config: String,
    /// Times this entry was returned from the cache since insertion.
    pub hits: u64,
    /// Total storage footprint of the cached prepared series, in bytes (compressed
    /// series + packed execution formats).
    pub bytes: usize,
    /// The packed-format share of `bytes` (zero when every term stayed structured).
    pub packed_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasd_tensor::Matrix;

    fn key(fp: u64) -> CacheKey {
        CacheKey {
            fingerprint: fp,
            shape: (4, 8),
            config: TasdConfig::parse("2:4").unwrap(),
        }
    }

    fn series() -> Arc<PreparedSeries> {
        let raw = Arc::new(crate::decompose(
            &Matrix::filled(4, 8, 1.0),
            &TasdConfig::parse("2:4").unwrap(),
        ));
        // Pack terms into CSR so entries carry non-zero packed bytes and the byte
        // accounting below exercises the packed share, not just the series.
        Arc::new(PreparedSeries::prepare(raw, 1, |_, _, _| {
            crate::engine::BackendKind::Csr
        }))
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut cache = DecompositionCache::new(4);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), series());
        assert!(cache.get(&key(1)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let mut cache = DecompositionCache::new(2);
        cache.insert(key(1), series());
        cache.insert(key(2), series());
        // Touch 1 so that 2 is the LRU.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), series());
        assert!(cache.get(&key(1)).is_some(), "recently used entry kept");
        assert!(cache.get(&key(2)).is_none(), "stale entry evicted");
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_is_a_documented_pass_through() {
        let mut cache = DecompositionCache::new(0);
        // Regression: `new(0)` must stay valid and insert must never panic, however many
        // times it is called — the entry is simply not retained.
        for i in 0..100 {
            cache.insert(key(i), series());
            assert!(cache.get(&key(i)).is_none());
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.capacity, 0);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 100);
        assert_eq!(stats.insertions, 0, "pass-through inserts are not counted");
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.bytes_resident, 0);
        assert!(cache.entry_stats().is_empty());
        cache.clear(); // must also be a no-op, not a panic
    }

    #[test]
    fn distinct_configs_are_distinct_keys() {
        let mut cache = DecompositionCache::new(4);
        cache.insert(key(1), series());
        let other = CacheKey {
            config: TasdConfig::parse("1:4").unwrap(),
            ..key(1)
        };
        assert!(cache.get(&other).is_none());
    }

    #[test]
    fn clear_preserves_counters() {
        let mut cache = DecompositionCache::new(4);
        cache.insert(key(1), series());
        assert!(cache.get(&key(1)).is_some());
        cache.clear();
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().bytes_resident, 0);
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn bytes_resident_tracks_inserts_replacements_and_evictions() {
        let mut cache = DecompositionCache::new(2);
        let per_entry = series().storage_bytes();
        assert!(per_entry > 0);
        cache.insert(key(1), series());
        assert_eq!(cache.stats().bytes_resident, per_entry);
        cache.insert(key(2), series());
        assert_eq!(cache.stats().bytes_resident, 2 * per_entry);
        // Replacing a key must not double-count its bytes.
        cache.insert(key(2), series());
        assert_eq!(cache.stats().bytes_resident, 2 * per_entry);
        // Eviction releases the evicted entry's bytes.
        cache.insert(key(3), series());
        assert_eq!(cache.stats().bytes_resident, 2 * per_entry);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn insert_or_get_keeps_the_first_resident_copy() {
        // Two threads racing on one cold key both prepare; the first insert must win and
        // the loser must adopt the winner's allocation — no replacement churn, no
        // double-charged bytes, no phantom hit.
        let mut cache = DecompositionCache::new(4);
        let winner = series();
        let per_entry = winner.storage_bytes();
        let kept = cache.insert_or_get(key(1), Arc::clone(&winner));
        assert!(Arc::ptr_eq(&kept, &winner));
        let loser = series();
        let kept = cache.insert_or_get(key(1), loser);
        assert!(
            Arc::ptr_eq(&kept, &winner),
            "the racing loser must adopt the resident copy"
        );
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.insertions, 1, "the losing insert is not an insertion");
        assert_eq!(stats.hits, 0, "adopting is not a lookup hit");
        assert_eq!(stats.bytes_resident, per_entry);
        // Zero capacity stays a pass-through.
        let mut off = DecompositionCache::new(0);
        let mine = series();
        let kept = off.insert_or_get(key(2), Arc::clone(&mine));
        assert!(Arc::ptr_eq(&kept, &mine));
        assert_eq!(off.stats().entries, 0);
    }

    #[test]
    fn entry_stats_report_per_entry_hits_hottest_first() {
        let mut cache = DecompositionCache::new(4);
        cache.insert(key(1), series());
        cache.insert(key(2), series());
        for _ in 0..3 {
            assert!(cache.get(&key(2)).is_some());
        }
        assert!(cache.get(&key(1)).is_some());
        let entries = cache.entry_stats();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].fingerprint, 2);
        assert_eq!(entries[0].hits, 3);
        assert_eq!(entries[1].hits, 1);
        assert!(entries.iter().all(|e| e.bytes > 0));
        assert!(entries.iter().all(|e| e.config == "2:4"));
        let total: usize = entries.iter().map(|e| e.bytes).sum();
        assert_eq!(total, cache.stats().bytes_resident);
    }
}
