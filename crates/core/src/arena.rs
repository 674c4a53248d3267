//! Hash-consed state arena: the integer-ID kernel under the checkers.
//!
//! The closure of an application model (§2.2) can visit the same state
//! along many operation paths. The naive enumeration pays a full
//! `BTreeSet` comparison (deep structural `Ord`) for every probe and
//! clones whole states for every successor. [`StateArena`] hash-conses
//! states instead: every distinct state is stored exactly once and named
//! by a dense [`StateId`] (`u32`), probes go through a 64-bit content
//! fingerprint (see [`crate::FiniteModel::with_fingerprint`]), and the
//! closure machinery downstream — pairing, signatures, reachability —
//! operates on integer IDs and ID-indexed tables rather than on state
//! clones.
//!
//! [`Closure`] couples the arena with the **transition table** recorded
//! while the closure is enumerated: `transitions[s][op]` is the
//! successor's ID (or `None` for the paper's error state). Recording
//! transitions once during enumeration turns the signature computation
//! of Definition 1 into a pure relabelling — no operation is ever
//! applied twice to the same state.
//!
//! IDs are assigned in breadth-first discovery order from the initial
//! state, which makes them deterministic for a given model.

use std::collections::HashMap;
use std::fmt;

use dme_logic::FingerprintBuildHasher;

/// Dense integer name for an interned state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(u32);

impl StateId {
    /// Builds an ID from a raw index (must come from the owning arena).
    pub fn from_index(index: usize) -> StateId {
        StateId(u32::try_from(index).expect("state arena overflow: > u32::MAX states"))
    }

    /// The position of the state in the owning arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Probe statistics for one arena.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Probes answered by an already-interned state.
    pub hits: u64,
    /// Probes that interned a genuinely new state.
    pub misses: u64,
    /// Number of distinct states interned.
    pub unique: usize,
}

impl ArenaStats {
    /// Fraction of probes answered without interning, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A hash-consing arena over whole states.
///
/// States are appended once and never move. Lookup is
/// fingerprint-first: the index maps a 64-bit fingerprint, unhashed (it
/// already is a hash), to the latest ID carrying it, `chain` links each
/// ID to the previous one with the same fingerprint, and every
/// candidate on that (almost always one-long) chain is confirmed with
/// `Eq`. Interning a state allocates nothing beyond the growth of these
/// tables.
#[derive(Clone, Debug)]
pub struct StateArena<S> {
    states: Vec<S>,
    fps: Vec<u64>,
    index: HashMap<u64, u32, FingerprintBuildHasher>,
    /// `chain[id]`: the next ID to try with `id`'s fingerprint; an ID
    /// linked to itself ends its chain.
    chain: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl<S> Default for StateArena<S> {
    fn default() -> Self {
        StateArena::new()
    }
}

impl<S> StateArena<S> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        StateArena {
            states: Vec::new(),
            fps: Vec::new(),
            index: HashMap::default(),
            chain: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of interned states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The interned state named by `id`.
    pub fn get(&self, id: StateId) -> &S {
        &self.states[id.index()]
    }

    /// The cached fingerprint of `id`.
    pub fn fingerprint_of(&self, id: StateId) -> u64 {
        self.fps[id.index()]
    }

    /// All interned states, in ID order.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Iterates `(id, state)` in ID order.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, &S)> {
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| (StateId::from_index(i), s))
    }

    /// Probe statistics so far.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            hits: self.hits,
            misses: self.misses,
            unique: self.states.len(),
        }
    }

    /// Folds probe counts gathered outside [`StateArena::intern`] (a
    /// hit found by [`StateArena::probe`]) into the arena's statistics.
    pub fn add_probe_stats(&mut self, hits: u64, misses: u64) {
        self.hits += hits;
        self.misses += misses;
    }
}

impl<S: Eq> StateArena<S> {
    /// Pure lookup: the ID of `state` if it is already interned.
    ///
    /// Does not touch the statistics — callers that probe before
    /// deciding whether to intern count via [`StateArena::intern`] or
    /// [`StateArena::add_probe_stats`].
    pub fn probe(&self, fp: u64, state: &S) -> Option<StateId> {
        let mut id = *self.index.get(&fp)?;
        loop {
            if self.states[id as usize] == *state {
                return Some(StateId(id));
            }
            let next = self.chain[id as usize];
            if next == id {
                return None;
            }
            id = next;
        }
    }

    /// Interns `state`, returning its ID and whether it was new.
    ///
    /// First insert wins: re-interning an equal state returns the
    /// existing ID (a hit) and drops the argument.
    pub fn intern(&mut self, fp: u64, state: S) -> (StateId, bool) {
        if let Some(id) = self.probe(fp, &state) {
            self.hits += 1;
            return (id, false);
        }
        let id = StateId::from_index(self.states.len());
        self.states.push(state);
        self.fps.push(fp);
        let previous = self.index.insert(fp, id.0);
        self.chain.push(previous.unwrap_or(id.0));
        self.misses += 1;
        (id, true)
    }
}

/// An enumerated closure: the arena of reachable states plus the
/// transition table recorded while enumerating them.
///
/// `transitions[s][op]` is the ID of the state reached by applying the
/// model's `op`-th operation to state `s`, or `None` when the operation
/// errors (§2.1's error state). Because the closure is closed under the
/// operations, every `Some` entry names a state in the arena.
#[derive(Clone, Debug)]
pub struct Closure<S> {
    /// The reachable states, IDs in breadth-first discovery order
    /// (ID 0 is the initial state).
    pub arena: StateArena<S>,
    /// `transitions[state][op]` — the memoized successor table.
    pub transitions: Vec<Vec<Option<StateId>>>,
}

impl<S> Closure<S> {
    /// Number of states in the closure.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True when the closure is empty (never: it holds the initial state).
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_injective_and_stable() {
        let mut arena: StateArena<String> = StateArena::new();
        let (a, new_a) = arena.intern(1, "alpha".into());
        let (b, new_b) = arena.intern(2, "beta".into());
        let (a2, new_a2) = arena.intern(1, "alpha".into());
        assert!(new_a && new_b && !new_a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(arena.get(a), "alpha");
        assert_eq!(arena.fingerprint_of(b), 2);
        assert_eq!(arena.len(), 2);
        let stats = arena.stats();
        assert_eq!((stats.hits, stats.misses, stats.unique), (1, 2, 2));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn fingerprint_collisions_resolved_by_eq() {
        let mut arena: StateArena<String> = StateArena::new();
        let (a, _) = arena.intern(7, "x".into());
        let (b, new_b) = arena.intern(7, "y".into());
        assert_ne!(a, b);
        assert!(new_b);
        assert_eq!(arena.probe(7, &"x".to_string()), Some(a));
        assert_eq!(arena.probe(7, &"y".to_string()), Some(b));
        assert_eq!(arena.probe(7, &"z".to_string()), None);
        assert_eq!(arena.probe(8, &"x".to_string()), None);
    }

    #[test]
    fn a_long_collision_chain_probes_back_to_every_id() {
        // Four states share fingerprint 7, interleaved with states of
        // other fingerprints, so the chain skips over foreign IDs.
        let mut arena: StateArena<String> = StateArena::new();
        let mut sharing = Vec::new();
        for (i, name) in ["p", "q", "r", "s"].into_iter().enumerate() {
            let (id, new) = arena.intern(7, name.into());
            assert!(new, "{name} is distinct");
            sharing.push((id, name));
            arena.intern(100 + i as u64, format!("other-{i}"));
        }
        for &(id, name) in &sharing {
            assert_eq!(arena.probe(7, &name.to_string()), Some(id), "{name}");
            assert_eq!(arena.intern(7, name.into()), (id, false), "{name}");
            assert_eq!(arena.fingerprint_of(id), 7);
        }
        assert_eq!(arena.probe(7, &"t".to_string()), None);
        assert_eq!(arena.probe(7, &"other-0".to_string()), None);
        assert_eq!(arena.probe(100, &"other-0".to_string()), Some(StateId(1)));
        assert_eq!(arena.len(), 8);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut arena: StateArena<u32> = StateArena::new();
        for v in 0..10u32 {
            let (id, _) = arena.intern(u64::from(v), v);
            assert_eq!(id.index(), v as usize);
        }
        let collected: Vec<u32> = arena.iter().map(|(_, &s)| s).collect();
        assert_eq!(collected, (0..10).collect::<Vec<_>>());
        assert_eq!(StateId::from_index(3).to_string(), "s3");
    }
}
