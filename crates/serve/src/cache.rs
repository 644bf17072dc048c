//! Plan cache: normalized program → prepared plan.
//!
//! The key is [`dmac_lang::Program::fingerprint`] (a hash of the
//! normalized AST — whitespace, comments and intermediate/random
//! variable names don't matter; shapes, ops, sparsities and load/store
//! names do) **plus the current partition scheme and density class of
//! every `load` input**. The scheme component is what the paper's
//! dependency exploitation demands: after a run caches an improved
//! placement for a load input (say Hash → Row), the old plan is wrong
//! for the new layout, so the composite key changes and the next
//! submission re-plans — a deliberate miss, counted as such. The
//! density-class component does the same for the nnz-aware planner: a
//! plan costed against a dense input must not be reused when the same
//! name is re-bound to a sparse matrix of the same shape (the strategy
//! crossover may have moved).
//!
//! Values are `Arc<PreparedProgram>`: prepared plans are bound to
//! scheme assumptions, not to a session, so any session sharing the
//! store can execute a cached plan.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dmac_core::session::PreparedProgram;
use dmac_core::SharedStore;
use dmac_lang::program::MatrixOrigin;
use dmac_lang::Program;

use crate::lock;

/// Composite cache key for `program` given the load-input schemes and
/// density classes currently in `store`. Unbound loads (and entries
/// whose density is unknown, e.g. disk stubs after a restart) key the
/// missing component as `?` — they may fail or re-plan at execution,
/// but the key must still be stable.
pub fn cache_key(program: &Program, store: &SharedStore) -> String {
    let mut loads: Vec<String> = program
        .matrices()
        .iter()
        .filter(|d| matches!(d.origin, MatrixOrigin::Load))
        .map(|d| {
            let scheme = store
                .scheme_of(&d.name)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "?".into());
            let class = store.density_of(&d.name).map(|c| c.as_str()).unwrap_or("?");
            format!("{}={}:{}", d.name, scheme, class)
        })
        .collect();
    loads.sort();
    format!("{:016x}|{}", program.fingerprint(), loads.join(","))
}

/// Counters exposed via the `stats` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached plan.
    pub hits: u64,
    /// Lookups that found nothing (the caller then plans and inserts).
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Current entry count.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over lookups, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<String, (Arc<PreparedProgram>, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded, thread-safe LRU of prepared plans.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl PlanCache {
    /// Cache holding at most `capacity` plans (0 disables caching:
    /// every lookup misses).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            inner: Mutex::new(Inner::default()),
            capacity,
        }
    }

    /// Look up a prepared plan, counting a hit or a miss.
    pub fn lookup(&self, key: &str) -> Option<Arc<PreparedProgram>> {
        let mut g = lock(&self.inner);
        g.tick += 1;
        let tick = g.tick;
        let hit = match g.map.get_mut(key) {
            Some((prep, used)) => {
                *used = tick;
                Some(Arc::clone(prep))
            }
            None => None,
        };
        if hit.is_some() {
            g.hits += 1;
        } else {
            g.misses += 1;
        }
        hit
    }

    /// Insert a freshly prepared plan, evicting the least recently used
    /// entry if over capacity.
    pub fn insert(&self, key: String, prep: Arc<PreparedProgram>) {
        if self.capacity == 0 {
            return;
        }
        let mut g = lock(&self.inner);
        g.tick += 1;
        let tick = g.tick;
        g.map.insert(key, (prep, tick));
        while g.map.len() > self.capacity {
            // Deterministic LRU: oldest tick, name as tiebreak (ticks
            // are unique, but cheap insurance against future edits).
            let victim = g
                .map
                .iter()
                .min_by_key(|(k, (_, used))| (*used, (*k).clone()))
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    g.map.remove(&k);
                    g.evictions += 1;
                }
                None => break,
            }
        }
    }

    /// Drop a cached plan (used when a cached plan turns out stale).
    pub fn invalidate(&self, key: &str) {
        lock(&self.inner).map.remove(key);
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        let g = lock(&self.inner);
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            entries: g.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmac_core::Session;
    use dmac_lang::parse_script;

    fn program(src: &str) -> Program {
        parse_script(src).unwrap().program
    }

    fn prepared(p: &Program) -> Arc<PreparedProgram> {
        let s = Session::builder().workers(2).block_size(8).build();
        Arc::new(s.prepare(p).unwrap())
    }

    #[test]
    fn scheme_changes_change_the_key() {
        let store = SharedStore::new();
        let p = program("A = load(A, 16, 16, 1.0)\nB = A + A\noutput(B)\n");
        let k_unbound = cache_key(&p, &store);

        let m = dmac_matrix::BlockedMatrix::zeros(16, 16, 8).unwrap();
        let mut sess = Session::builder()
            .workers(2)
            .block_size(8)
            .store(store.clone())
            .build();
        sess.bind("A", m).unwrap();
        let k_hash = cache_key(&p, &store);
        assert_ne!(k_unbound, k_hash);

        // Same program, same binding → same key.
        assert_eq!(k_hash, cache_key(&p, &store));

        // Running the program lets the planner cache a better placement
        // for A (DMac dependency exploitation) — the key must move.
        sess.run(&p).unwrap();
        if store.scheme_of("A") != Some(dmac_cluster::PartitionScheme::Hash) {
            assert_ne!(k_hash, cache_key(&p, &store));
        }
    }

    #[test]
    fn density_class_changes_change_the_key() {
        let store = SharedStore::new();
        let p = program("A = load(A, 16, 16, 1.0)\nB = A + A\noutput(B)\n");
        let mut sess = Session::builder()
            .workers(2)
            .block_size(8)
            .store(store.clone())
            .build();
        // Dense binding.
        let dense = dmac_matrix::BlockedMatrix::from_fn(16, 16, 8, |_, _| 1.0).unwrap();
        sess.bind("A", dense).unwrap();
        let k_dense = cache_key(&p, &store);
        assert!(k_dense.contains("A=h:dense"), "{k_dense}");
        // Re-bind the same name, same shape, same scheme — but sparse.
        let sparse = dmac_matrix::BlockedMatrix::from_fn(16, 16, 8, |i, j| {
            if i == 0 && j == 0 {
                1.0
            } else {
                0.0
            }
        })
        .unwrap();
        sess.bind("A", sparse).unwrap();
        let k_sparse = cache_key(&p, &store);
        assert_ne!(k_dense, k_sparse);
        assert!(k_sparse.contains("A=h:sparse"), "{k_sparse}");
    }

    #[test]
    fn random_only_programs_key_on_fingerprint_alone() {
        let store = SharedStore::new();
        let a = program("X = random(X, 8, 8)\nY = X + X\noutput(Y)\n");
        let b = program("Z = random(Z, 8, 8)\nY = Z + Z\noutput(Y)\n");
        assert_eq!(cache_key(&a, &store), cache_key(&b, &store));
    }

    #[test]
    fn lru_counts_and_evicts() {
        let cache = PlanCache::new(2);
        let p1 = program("A = random(A, 8, 8)\noutput(A)\n");
        let p2 = program("A = random(A, 8, 16)\noutput(A)\n");
        let p3 = program("A = random(A, 16, 8)\noutput(A)\n");
        assert!(cache.lookup("k1").is_none());
        cache.insert("k1".into(), prepared(&p1));
        cache.insert("k2".into(), prepared(&p2));
        assert!(cache.lookup("k1").is_some()); // k1 now most recent
        cache.insert("k3".into(), prepared(&p3)); // evicts k2
        assert!(cache.lookup("k2").is_none());
        assert!(cache.lookup("k1").is_some());
        assert!(cache.lookup("k3").is_some());
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 2);
        assert!((s.hit_rate() - 3.0 / 5.0).abs() < 1e-12);
    }
}
