//! Per-`(A, B, policy, scale)` cache of Phase-I artifacts.
//!
//! One [`SpmmArtifacts`] (thresholds, Boolean masks, symbolic structures,
//! masked GPU width tables, the Phase II/III claim plan) is the entire
//! non-numeric preprocessing of an HH-CPU run — the empirical threshold
//! search alone plans Phases II and III ~10 times. A warm request fetches
//! the `Arc` and goes straight to the numeric work, skipping Phase I's
//! and the plan's host-side work entirely while still being charged their
//! *simulated* nanoseconds, so the reply is bit-identical to a cold
//! single-shot run.
//!
//! The key includes the platform scale because thresholds are picked by
//! the device cost models: the same operands on a differently scaled
//! platform legitimately pick different thresholds.
//!
//! Sharded multiplies store each band's Phase II/III plan inside the
//! shared artifacts after they were inserted
//! ([`SpmmArtifacts::band_plans`]), so an entry's size can change while it
//! is cached. The cache therefore re-measures every entry's
//! [`SpmmArtifacts::byte_size`] whenever it reports or enforces its byte
//! total instead of remembering the size at insert: `stats().bytes` is
//! always exact, and the cap is enforced on the next insert.
//!
//! The key deliberately does *not* include the numeric engine
//! configuration (`ExecConfig`): artifacts are pre-numeric (they record
//! thresholds, masks, width tables and the claim plan, never engine
//! scratch), and every executor and accumulator strategy is bit-identical
//! to the per-claim fixed dense-SPA reference by contract — so the same
//! artifacts drive any of them (`device_shootout`'s `fused_perf` times
//! the reference and the default engine on one set).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use spmm_core::{SpmmArtifacts, ThresholdPolicy};

use super::registry::MatrixKey;

/// Identity of one cached Phase-I computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Content hash of `A`.
    pub a: MatrixKey,
    /// Content hash of `B`.
    pub b: MatrixKey,
    /// Threshold policy the plan was built under.
    pub policy: ThresholdPolicy,
    /// Platform scale ([`spmm_core::Platform::scaled`] argument).
    pub scale: usize,
    /// Shard count the multiply executes under (1 = monolithic). The
    /// *artifacts* are shard-invariant — the sharded driver slices one
    /// global plan — so on a sharded miss the service aliases the
    /// monolithic entry's `Arc` under the sharded key rather than
    /// rebuilding; the key still carries the count so cache stats and
    /// purges see the sharded traffic distinctly.
    pub shards: usize,
}

/// Counters exposed by [`ArtifactCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactStats {
    pub entries: usize,
    pub bytes: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub purged: u64,
}

#[derive(Debug)]
struct Entry {
    artifacts: Arc<SpmmArtifacts>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<ArtifactKey, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    purged: u64,
}

impl Inner {
    /// Current heap bytes of every entry, band plans stored since insert
    /// included.
    fn bytes(&self) -> usize {
        self.map.values().map(|e| e.artifacts.byte_size()).sum()
    }
}

/// Thread-safe LRU cache of shared [`SpmmArtifacts`].
#[derive(Debug)]
pub struct ArtifactCache {
    inner: Mutex<Inner>,
    cap_bytes: usize,
}

impl ArtifactCache {
    /// Cache bounded to `cap_bytes` (`usize::MAX` for unbounded).
    pub fn new(cap_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            cap_bytes,
        }
    }

    /// Fetch, touching LRU recency and the hit/miss counters.
    pub fn get(&self, key: &ArtifactKey) -> Option<Arc<SpmmArtifacts>> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let out = entry.artifacts.clone();
                inner.hits += 1;
                Some(out)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) an entry, evicting LRU entries over the cap.
    /// The entry just inserted is never evicted.
    pub fn insert(&self, key: ArtifactKey, artifacts: Arc<SpmmArtifacts>) {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key,
            Entry {
                artifacts,
                last_used: tick,
            },
        );
        while inner.map.len() > 1 && inner.bytes() > self.cap_bytes {
            let Some((&victim, _)) = inner
                .map
                .iter()
                .filter(|(&k, _)| k != key)
                .min_by_key(|(_, e)| e.last_used)
            else {
                break;
            };
            inner.map.remove(&victim).expect("victim exists");
            inner.evictions += 1;
        }
    }

    /// Drop every entry whose `A` or `B` is `matrix` — called when the
    /// registry evicts a matrix, so artifacts can never outlive their
    /// operands' registration.
    pub fn purge_matrix(&self, matrix: MatrixKey) {
        let mut inner = self.inner.lock().unwrap();
        let victims: Vec<ArtifactKey> = inner
            .map
            .keys()
            .filter(|k| k.a == matrix || k.b == matrix)
            .copied()
            .collect();
        for key in victims {
            inner.map.remove(&key).expect("victim exists");
            inner.purged += 1;
        }
    }

    /// Current counters.
    pub fn stats(&self) -> ArtifactStats {
        let inner = self.inner.lock().unwrap();
        ArtifactStats {
            entries: inner.map.len(),
            bytes: inner.bytes(),
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            purged: inner.purged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_core::{hh_cpu_sharded_with_artifacts, HeteroContext, HhCpuConfig, ShardConfig};
    use spmm_scalefree::{scale_free_matrix, GeneratorConfig};

    fn build(seed: u64) -> Arc<SpmmArtifacts> {
        let ctx = HeteroContext::paper().with_host_threads(1);
        let a = scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(150, 700, 2.5, seed));
        Arc::new(SpmmArtifacts::build(
            &ctx,
            &a,
            &a,
            ThresholdPolicy::default(),
        ))
    }

    fn key(a: MatrixKey, b: MatrixKey) -> ArtifactKey {
        ArtifactKey {
            a,
            b,
            policy: ThresholdPolicy::default(),
            scale: 1,
            shards: 1,
        }
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = ArtifactCache::new(usize::MAX);
        let art = build(1);
        cache.insert(key(1, 1), art.clone());
        let hit = cache.get(&key(1, 1)).unwrap();
        assert!(Arc::ptr_eq(&hit, &art));
        assert!(cache.get(&key(2, 2)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn purge_matrix_drops_both_sides() {
        let cache = ArtifactCache::new(usize::MAX);
        cache.insert(key(1, 2), build(2));
        cache.insert(key(3, 1), build(3));
        cache.insert(key(4, 5), build(4));
        cache.purge_matrix(1);
        assert!(cache.get(&key(1, 2)).is_none());
        assert!(cache.get(&key(3, 1)).is_none());
        assert!(cache.get(&key(4, 5)).is_some());
        assert_eq!(cache.stats().purged, 2);
    }

    #[test]
    fn cached_bytes_include_the_stored_plan() {
        // big enough for the picked split to leave Phase III work
        let ctx = HeteroContext::scaled(16).with_host_threads(1);
        let a = scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(4_000, 32_000, 2.2, 8));
        let art = Arc::new(SpmmArtifacts::build(
            &ctx,
            &a,
            &a,
            ThresholdPolicy::default(),
        ));
        let claims = art.claims.as_ref().expect("built artifacts carry a plan");
        assert!(claims.heap_bytes() > 0, "the plan holds Phase III claims");
        let p1 = &art.plan;
        let masks = p1.thresholds.a_high.len() + p1.thresholds.b_high.len();
        let syms = p1.sym_a.byte_size() + p1.sym_b.as_ref().map_or(0, |s| s.byte_size());
        let widths = (art.w_low.len() + art.w_high.len()) * 4;
        let without_plan = masks + syms + widths + std::mem::size_of::<SpmmArtifacts>();
        assert_eq!(art.byte_size(), without_plan + claims.heap_bytes());

        let cache = ArtifactCache::new(usize::MAX);
        cache.insert(key(1, 1), art.clone());
        assert_eq!(cache.stats().bytes, art.byte_size());

        // a sharded run after the insert stores its band plans in the
        // cached artifacts: the entry grows, and the cache counts it
        let before = art.byte_size();
        let mut run_ctx = HeteroContext::scaled(16).with_host_threads(2);
        let shard = ShardConfig::pooled(4);
        let config = HhCpuConfig::default();
        let out = hh_cpu_sharded_with_artifacts(&mut run_ctx, &a, &a, &config, &shard, &art);
        let bounds = out.plan.bounds();
        let plans = art
            .band_plans(bounds, run_ctx.platform, None)
            .expect("the sharded run stored its band plans");
        let stored: usize = plans
            .iter()
            .map(|p| p.heap_bytes() + std::mem::size_of_val(p))
            .sum();
        let grown = art.byte_size() - before;
        assert!(
            grown >= stored + std::mem::size_of_val(bounds),
            "band plans of {stored} B grew the entry by only {grown} B"
        );
        assert_eq!(cache.stats().bytes, art.byte_size());
        // a warm sharded run reuses the stored plans and stores nothing
        hh_cpu_sharded_with_artifacts(&mut run_ctx, &a, &a, &config, &shard, &art);
        assert_eq!(art.byte_size(), before + grown);
        assert_eq!(cache.stats().bytes, art.byte_size());
    }

    #[test]
    fn lru_eviction_under_cap() {
        let a1 = build(5);
        let cap = a1.byte_size() * 2 + 64;
        let cache = ArtifactCache::new(cap);
        cache.insert(key(1, 1), a1);
        cache.insert(key(2, 2), build(6));
        cache.get(&key(1, 1)).unwrap(); // key 2 becomes LRU
        cache.insert(key(3, 3), build(7));
        assert!(cache.get(&key(2, 2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(1, 1)).is_some());
        assert!(cache.get(&key(3, 3)).is_some());
        assert!(cache.stats().bytes <= cap);
        assert_eq!(cache.stats().evictions, 1);
    }
}
