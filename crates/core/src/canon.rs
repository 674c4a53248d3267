//! Hash-consed fact-base compilation: the canonical-state interner.
//!
//! Every equivalence check (and the ANSI/SPARC consistency audit)
//! repeatedly compiles database states to their fact bases — §3.2.3's
//! state equivalence correspondence works entirely on compiled facts.
//! Compilation is the expensive, perfectly cacheable step: a state's
//! fact base depends only on the state's canonical form.
//!
//! [`FactInterner`] memoizes that step where states recur. The first
//! compilation of a state through an interner stores the fact base
//! behind an [`Arc`]; every later request to the same interner for an
//! equal state — from any thread, any checker tier, or any application
//! model of a data-model check — returns the shared `Arc` without
//! recompiling. The table is sharded by state hash so parallel workers
//! rarely contend on the same lock.
//!
//! The engine compiles through one only when a state can recur: across
//! the cells of a Definition 6 grid, across checks that share
//! caller-owned interners (`Checker::interners`), and across the
//! re-checks of an incremental session. A single model-pair check
//! without shared interners compiles each of its (distinct) closure
//! states directly, because a fresh interner could only miss and would
//! copy every state into its table.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dme_logic::{FactBase, ToFacts};
use dme_obs::{Counter, Observer};

const SHARD_COUNT: usize = 16;

/// Cache counters of a [`FactInterner`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternerStats {
    /// Compilations answered from the cache.
    pub hits: u64,
    /// Compilations that had to run [`ToFacts::to_facts`].
    pub misses: u64,
    /// Distinct states currently interned.
    pub unique: usize,
}

impl InternerStats {
    /// Hits as a fraction of all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe, sharded map from canonical states to their compiled
/// fact bases.
pub struct FactInterner<S> {
    shards: Vec<Mutex<HashMap<S, Arc<FactBase>>>>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<S> Default for FactInterner<S>
where
    S: Clone + Eq + Hash + ToFacts,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<S> FactInterner<S>
where
    S: Clone + Eq + Hash + ToFacts,
{
    /// An empty interner.
    pub fn new() -> Self {
        FactInterner {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, state: &S) -> usize {
        (self.hasher.hash_one(state) as usize) % SHARD_COUNT
    }

    fn compile_inner(&self, state: &S) -> (Arc<FactBase>, bool) {
        let shard = &self.shards[self.shard_of(state)];
        if let Some(found) = shard.lock().unwrap_or_else(|e| e.into_inner()).get(state) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(found), true);
        }
        // Compile outside the lock so a slow compilation doesn't stall
        // the shard; a racing thread may compile the same state, in
        // which case the first insert wins and stays canonical.
        let compiled = Arc::new(state.to_facts());
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = shard.lock().unwrap_or_else(|e| e.into_inner());
        (
            Arc::clone(map.entry(state.clone()).or_insert(compiled)),
            false,
        )
    }

    /// The compiled fact base of `state`, computed at most once per
    /// distinct state and shared via [`Arc`] thereafter.
    pub fn compile(&self, state: &S) -> Arc<FactBase> {
        self.compile_inner(state).0
    }

    /// [`FactInterner::compile`], with the hit/miss also charged to the
    /// observer's [`Counter::InternerHits`]/[`Counter::InternerMisses`]
    /// — the engine's per-phase cache attribution.
    pub fn compile_observed(&self, state: &S, obs: &Observer) -> Arc<FactBase> {
        let (compiled, hit) = self.compile_inner(state);
        obs.add(
            if hit {
                Counter::InternerHits
            } else {
                Counter::InternerMisses
            },
            1,
        );
        compiled
    }

    /// Number of distinct states interned.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current cache counters.
    pub fn stats(&self) -> InternerStats {
        InternerStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            unique: self.len(),
        }
    }

    /// Drops all interned states and resets the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl<S> std::fmt::Debug for FactInterner<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FactInterner({} hits, {} misses)",
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_logic::Fact;
    use dme_value::Atom;

    fn base(ns: &[i64]) -> FactBase {
        ns.iter()
            .map(|n| Fact::new("p", [("x", Atom::Int(*n))]))
            .collect()
    }

    #[test]
    fn compiles_once_and_shares() {
        let interner: FactInterner<FactBase> = FactInterner::new();
        let s = base(&[1, 2]);
        let first = interner.compile(&s);
        let second = interner.compile(&s.clone());
        assert!(Arc::ptr_eq(&first, &second), "same Arc on a hit");
        assert_eq!(*first, s, "a fact base compiles to itself");
        let stats = interner.stats();
        assert_eq!((stats.hits, stats.misses, stats.unique), (1, 1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn distinct_states_intern_separately() {
        let interner: FactInterner<FactBase> = FactInterner::new();
        for i in 0..10 {
            interner.compile(&base(&[i]));
        }
        assert_eq!(interner.len(), 10);
        assert_eq!(interner.stats().misses, 10);
        interner.clear();
        assert!(interner.is_empty());
        assert_eq!(interner.stats(), InternerStats::default());
    }

    #[test]
    fn concurrent_compilation_converges_on_one_arc() {
        let interner: FactInterner<FactBase> = FactInterner::new();
        let s = base(&[7]);
        let arcs: Vec<Arc<FactBase>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| interner.compile(&s)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // All returned Arcs alias the single canonical entry.
        for arc in &arcs {
            assert!(Arc::ptr_eq(arc, &arcs[0]));
        }
        assert_eq!(interner.len(), 1);
        let stats = interner.stats();
        assert_eq!(stats.hits + stats.misses, 8);
        assert!(stats.misses >= 1);
    }

    #[test]
    fn observed_compilation_classifies_hits_and_misses() {
        use dme_obs::{Counter, Observer, RingSink};
        let interner: FactInterner<FactBase> = FactInterner::new();
        let obs = Observer::new(RingSink::with_capacity(8));
        let s = base(&[3]);
        interner.compile_observed(&s, &obs);
        interner.compile_observed(&s, &obs);
        assert_eq!(obs.counter(Counter::InternerMisses), 1);
        assert_eq!(obs.counter(Counter::InternerHits), 1);
        // A disabled observer changes nothing and costs nothing.
        interner.compile_observed(&s, &Observer::disabled());
        assert_eq!(interner.stats().hits, 2);
    }

    #[test]
    fn hit_rate_of_empty_interner_is_zero() {
        let interner: FactInterner<FactBase> = FactInterner::new();
        assert_eq!(interner.stats().hit_rate(), 0.0);
    }
}
