//! Incremental re-verification: a persistent checking session.
//!
//! A [`Checker`](crate::check::Checker) run is stateless — it
//! re-enumerates both closures from scratch, re-compiles every state and
//! re-derives the verdict even when the models are unchanged or differ
//! by a single operation. The [`IncrementalChecker`] is the stateful
//! alternative: one session owns, per side,
//!
//! * a persistent hash-consed [`StateArena`] that only ever grows while
//!   the model's *universe* (name + initial state) is stable;
//! * a memoized **transition column** per operation label — the outcome
//!   of applying that operation to each arena state (`Error` or a target
//!   arena id). A transition is a pure function of `(state, operation,
//!   universe)`, so columns survive arbitrary changes to the *operation
//!   list*: dropping, adding or mutating one operation leaves every
//!   other column valid;
//! * a harvested **pairing-rank cache**: the §3.3.1 pairing sorts every
//!   state's compiled fact base into a total order, and a state's rank
//!   in that order is a pure function of its content and the reachable
//!   state *set* — not of the operation list or the discovery order. As
//!   long as a mutation leaves the reachable set unchanged (the common
//!   case for label or precondition tweaks), re-checks rebuild the full
//!   pairing from the cached ranks in O(states) without compiling a
//!   single fact base. A miss compiles both materialized closures
//!   afresh, each state once; no compiled fact base outlives its
//!   pairing, because another model may hold an equal state that
//!   compiles to other facts (see [`ToFacts`]);
//! * a keyed **verdict cache**: `(left model, right model, equivalence
//!   kind, state cap) → verdict`, answered without any closure work at
//!   all when nothing changed.
//!
//! Re-checking after a change therefore re-expands only the affected
//! frontier: the column of a new or mutated operation, plus any states
//! that column newly reaches. Everything else — including the closure
//! discovered on previous runs — is reused, and
//! [`Counter::TransitionsReused`]/[`Counter::TransitionsRecomputed`]
//! account for exactly how much.
//!
//! ## Verdict fidelity
//!
//! The session never *approximates*. On a verdict-cache miss it
//! materializes a closure — state order and transition table — that is
//! **identical** to what a fresh enumeration would produce, because it
//! runs the same loop: [`FiniteModel::closure`] and the session both
//! discover closures through the model's one breadth-first discovery
//! loop, the session over its persistent arena with its columns passed
//! in as the transition memo. States are numbered densely in discovery
//! order from the initial state, in operation order, and the engine then
//! runs its normal pairing/signature/scan pipeline on the result.
//! Verdicts, witness sets and witness order are the fresh engine's,
//! which `tests/incremental.rs` proves differentially against full
//! enumeration and the [`crate::slow_reference`] oracle.
//!
//! ## Model identity
//!
//! The cache keys a model by its **name**, its **initial state
//! fingerprint** and its ordered **operation labels** (wide 128-bit
//! hashes of all three, see
//! [`content_fingerprint_wide`]).
//! The contract: within one session, two models with the same name,
//! initial state and operation labels must have the same semantics.
//! Anything else that affects behaviour — a constraint set baked into a
//! validator closure, say — must be reflected in the model *name* (the
//! scenario generator in `dme-workload` suffixes a constraint digest for
//! exactly this reason). Changing the name or initial state invalidates
//! the side's arena and columns wholesale ([`Counter::CacheInvalidations`]);
//! changing only operations takes the delta path.

use std::collections::HashMap;
use std::fmt;

use dme_logic::{content_fingerprint_wide, ToFacts};
use dme_obs::{Counter, Observer};

use crate::arena::{StateArena, StateId};
use crate::equiv::{CheckError, EquivKind};
use crate::model::{ClosureTooLarge, Discovery, FiniteModel, TransitionMemo, Tx};
use crate::parallel::{check_prepaired, pair_on_states, PairedIds, Verdict};

/// Running totals of what the session reused versus recomputed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Checks answered entirely from the verdict cache.
    pub verdict_hits: u64,
    /// Checks that had to run the engine.
    pub verdict_misses: u64,
    /// Closure caches rebuilt because a model's universe changed.
    pub invalidations: u64,
    /// Transition-column entries reused instead of re-applied.
    pub transitions_reused: u64,
    /// Transition-column entries computed by applying an operation.
    pub transitions_recomputed: u64,
    /// Engine runs whose pairing was rebuilt from harvested ranks
    /// instead of recompiling every state.
    pub pairings_reused: u64,
}

impl CacheStats {
    /// Fraction of verdict lookups answered from cache (0 when none).
    pub fn verdict_hit_rate(&self) -> f64 {
        let total = self.verdict_hits + self.verdict_misses;
        if total == 0 {
            0.0
        } else {
            self.verdict_hits as f64 / total as f64
        }
    }

    /// Fraction of transition lookups served from memoized columns
    /// (0 when none were needed).
    pub fn transition_reuse_rate(&self) -> f64 {
        let total = self.transitions_reused + self.transitions_recomputed;
        if total == 0 {
            0.0
        } else {
            self.transitions_reused as f64 / total as f64
        }
    }
}

/// The closure materialized for one operation list — its transition
/// table over dense ids — plus the two pieces of identity the
/// pairing-rank cache needs: the dense→persistent id map it was
/// renumbered through, and an order-independent fingerprint of the
/// reachable state *set*. The states themselves stay in the persistent
/// arena; a pairing that cannot reuse cached ranks borrows them there.
struct Materialized {
    /// Wide hash of the ordered operation labels this closure is for.
    ops_digest: u128,
    /// Dense id → per-operation successor dense id (`None` = error).
    transitions: Vec<Vec<Option<StateId>>>,
    /// Dense id → persistent arena id, in discovery order
    /// (`order[d]` is the arena state behind dense state `d`).
    order: Vec<StateId>,
    /// Wide fingerprint of the sorted persistent ids: the identity of
    /// the reachable state set, independent of discovery order.
    set_id: u128,
}

/// A harvested §3.3.1 pairing for one side: the pair rank of every
/// persistent arena state, valid for exactly one reachable state set.
/// A rank — the position of the state's compiled fact base in the
/// pairing's total order — is a pure function of the state's content
/// and the set it was paired within, so it survives any operation-list
/// change that keeps the reachable set intact, even though such changes
/// can permute the *dense* ids.
struct RankCache {
    /// The state set the ranks were harvested against.
    set_id: u128,
    /// Persistent arena index → pair rank. Entries for arena states
    /// outside the set are never read (rebuilds only index through a
    /// closure's `order`, which stays inside the set by construction).
    by_persistent: Vec<u32>,
}

impl RankCache {
    /// Harvests the ranks of a freshly computed pairing, translating
    /// the engine's dense-id-indexed rank table through `order`.
    fn harvest(set_id: u128, order: &[StateId], rank_by_dense: &[u32], arena_len: usize) -> Self {
        let mut by_persistent = vec![u32::MAX; arena_len];
        for (dense, &rank) in rank_by_dense.iter().enumerate() {
            by_persistent[order[dense].index()] = rank;
        }
        RankCache {
            set_id,
            by_persistent,
        }
    }
}

/// Rebuilds the full [`PairedIds`] of a previous pairing in O(states),
/// from the per-side rank caches and the current closures' dense order.
/// Valid only when both sides' reachable sets match the harvest
/// (checked by the caller against [`RankCache::set_id`]); the result is
/// then identical to what [`pair_on_states`] would recompute.
fn rebuild_pairing(
    left: &RankCache,
    m_order: &[StateId],
    right: &RankCache,
    n_order: &[StateId],
) -> PairedIds {
    let pairs = m_order.len();
    debug_assert_eq!(pairs, n_order.len(), "paired sets must have equal size");
    let mut m_by_pair = vec![StateId::from_index(0); pairs];
    let mut n_by_pair = vec![StateId::from_index(0); pairs];
    let mut m_rank = vec![0u32; pairs];
    let mut n_rank = vec![0u32; pairs];
    for d in 0..pairs {
        let r = left.by_persistent[m_order[d].index()];
        m_rank[d] = r;
        m_by_pair[r as usize] = StateId::from_index(d);
        let r = right.by_persistent[n_order[d].index()];
        n_rank[d] = r;
        n_by_pair[r as usize] = StateId::from_index(d);
    }
    PairedIds {
        pairs,
        m_by_pair,
        n_by_pair,
        m_rank,
        n_rank,
    }
}

/// One side's persistent closure cache: the growing arena plus the
/// per-operation-label transition columns over it.
struct ClosureCache<S> {
    /// Wide hash of (model name, initial-state fingerprint); `None`
    /// until the first refresh.
    universe: Option<u128>,
    arena: StateArena<S>,
    /// Label → column; `column[i]` is the outcome of the operation on
    /// arena state `i`. Columns may lag behind the arena (shorter
    /// vectors read as `Unknown`).
    columns: HashMap<String, Vec<Tx>>,
    /// The closure materialized for the most recent operation list.
    materialized: Option<Materialized>,
    /// Pairing ranks harvested from the most recent engine run whose
    /// pairing succeeded; both sides are always harvested together.
    ranks: Option<RankCache>,
}

impl<S> ClosureCache<S> {
    fn new() -> Self {
        ClosureCache {
            universe: None,
            arena: StateArena::new(),
            columns: HashMap::new(),
            materialized: None,
            ranks: None,
        }
    }
}

impl<S> ClosureCache<S>
where
    S: Clone + Ord + ToFacts,
{
    /// The materialized closure's states, in dense-id order.
    fn dense_states(&self) -> Vec<&S> {
        let mat = self
            .materialized
            .as_ref()
            .expect("refreshed before pairing");
        mat.order.iter().map(|&id| self.arena.get(id)).collect()
    }

    /// Brings the cache up to date with `model`, leaving its closure in
    /// [`ClosureCache::materialized`] and reusing every still-valid
    /// transition. The materialized closure is identical — same states,
    /// same ids, same transition table — to [`FiniteModel::closure`] on
    /// the same model, including raising the same [`ClosureTooLarge`]
    /// when more than `cap` states are reachable.
    fn refresh<O: Clone + fmt::Display>(
        &mut self,
        model: &FiniteModel<S, O>,
        universe: u128,
        cap: usize,
        obs: &Observer,
        stats: &mut CacheStats,
    ) -> Result<(), ClosureTooLarge> {
        if self.universe != Some(universe) {
            if self.universe.is_some() {
                stats.invalidations += 1;
                obs.add(Counter::CacheInvalidations, 1);
            }
            self.universe = Some(universe);
            self.arena = StateArena::new();
            self.columns.clear();
            self.materialized = None;
            self.ranks = None;
            self.arena.intern(
                model.state_fingerprint(model.initial()),
                model.initial().clone(),
            );
        }

        let labels: Vec<String> = model.ops().iter().map(|o| o.to_string()).collect();
        let ops_digest = content_fingerprint_wide(&labels);
        if let Some(mat) = &self.materialized {
            if mat.ops_digest == ops_digest {
                if mat.order.len() > cap {
                    return Err(ClosureTooLarge {
                        model: model.name().to_owned(),
                        cap,
                    });
                }
                let reused = (mat.order.len() * labels.len()) as u64;
                stats.transitions_reused += reused;
                obs.add(Counter::TransitionsReused, reused);
                return Ok(());
            }
        }

        // Delta re-expansion: the columns move out of the label map as
        // the walk's memo, indexed by op position so the loop hashes no
        // label per transition, and go back on every exit path.
        let mut memo = TransitionMemo {
            columns: labels
                .iter()
                .map(|l| self.columns.remove(l).unwrap_or_default())
                .collect(),
            ..TransitionMemo::default()
        };
        let before = self.arena.stats();
        let found = model.discover(&mut self.arena, Some(&mut memo), cap, |_| true);
        for (label, col) in labels.iter().zip(memo.columns) {
            self.columns.insert(label.clone(), col);
        }
        let after = self.arena.stats();
        obs.add(Counter::ArenaHits, after.hits - before.hits);
        obs.add(Counter::ArenaMisses, after.misses - before.misses);
        stats.transitions_reused += memo.reused;
        stats.transitions_recomputed += memo.recomputed;
        obs.add(Counter::TransitionsReused, memo.reused);
        obs.add(Counter::TransitionsRecomputed, memo.recomputed);
        let Discovery { order, transitions } = found?.expect("an always-true hook never stops");
        obs.add(Counter::StatesEnumerated, order.len() as u64);

        let mut sorted: Vec<u64> = order.iter().map(|s| s.index() as u64).collect();
        sorted.sort_unstable();
        let set_id = content_fingerprint_wide(&sorted);
        self.materialized = Some(Materialized {
            ops_digest,
            transitions,
            order,
            set_id,
        });
        Ok(())
    }
}

/// The verdict-cache key: wide model keys plus the check parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct VerdictKey {
    m: u128,
    n: u128,
    kind_tag: u8,
    kind_depth: u64,
    cap: u64,
}

fn kind_parts(kind: EquivKind) -> (u8, u64) {
    match kind {
        EquivKind::Isomorphic => (0, 0),
        EquivKind::Composed { max_depth } => (1, max_depth as u64),
        EquivKind::StateDependent { max_depth } => (2, max_depth as u64),
    }
}

fn universe_key<S, O>(model: &FiniteModel<S, O>) -> u128
where
    S: Clone + Ord + ToFacts,
    O: Clone,
{
    content_fingerprint_wide(&(model.name(), model.state_fingerprint(model.initial())))
}

fn full_key<S, O>(model: &FiniteModel<S, O>) -> u128
where
    S: Clone + Ord + ToFacts,
    O: Clone + fmt::Display,
{
    let labels: Vec<String> = model.ops().iter().map(|o| o.to_string()).collect();
    content_fingerprint_wide(&(
        model.name(),
        model.state_fingerprint(model.initial()),
        labels,
    ))
}

/// A persistent checking session: re-checks models incrementally,
/// reusing closures, pairings and verdicts across runs. See the
/// [module docs](self) for the contract and the reuse model.
pub struct IncrementalChecker<MS, NS> {
    left: ClosureCache<MS>,
    right: ClosureCache<NS>,
    verdicts: HashMap<VerdictKey, Verdict>,
    threads: usize,
    obs: Observer,
    stats: CacheStats,
}

impl<MS, NS> Default for IncrementalChecker<MS, NS> {
    fn default() -> Self {
        Self::new()
    }
}

impl<MS, NS> IncrementalChecker<MS, NS> {
    /// An empty session (single-threaded engine, disabled observer).
    pub fn new() -> Self {
        IncrementalChecker {
            left: ClosureCache::new(),
            right: ClosureCache::new(),
            verdicts: HashMap::new(),
            threads: 1,
            obs: Observer::disabled(),
            stats: CacheStats::default(),
        }
    }

    /// Sets the engine thread count used on verdict-cache misses
    /// (0 = all available cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches an observer; cache traffic is charged to
    /// [`Counter::VerdictCacheHits`], [`Counter::VerdictCacheMisses`],
    /// [`Counter::CacheInvalidations`], [`Counter::TransitionsReused`]
    /// and [`Counter::TransitionsRecomputed`].
    pub fn with_observer(mut self, obs: Observer) -> Self {
        self.obs = obs;
        self
    }

    /// The session's reuse statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

impl<MS, NS> IncrementalChecker<MS, NS>
where
    MS: Clone + Ord + ToFacts + Send + Sync,
    NS: Clone + Ord + ToFacts + Send + Sync,
{
    /// Checks `m` against `n` under `kind` with the given state cap,
    /// reusing everything the session already knows. Equivalent to
    /// `Checker::new(&m, &n).tier(Tier::from_kind(kind)).state_cap(cap)`
    /// with a parallel engine — same verdicts, same witnesses, same
    /// errors — but incremental across calls.
    pub fn check<MO, NO>(
        &mut self,
        m: &FiniteModel<MS, MO>,
        n: &FiniteModel<NS, NO>,
        kind: EquivKind,
        cap: usize,
    ) -> Result<Verdict, CheckError>
    where
        MO: Clone + fmt::Display + Send + Sync,
        NO: Clone + fmt::Display + Send + Sync,
    {
        let (kind_tag, kind_depth) = kind_parts(kind);
        let key = VerdictKey {
            m: full_key(m),
            n: full_key(n),
            kind_tag,
            kind_depth,
            cap: cap as u64,
        };
        if let Some(verdict) = self.verdicts.get(&key) {
            self.stats.verdict_hits += 1;
            self.obs.add(Counter::VerdictCacheHits, 1);
            return Ok(verdict.clone());
        }
        self.stats.verdict_misses += 1;
        self.obs.add(Counter::VerdictCacheMisses, 1);
        self.left
            .refresh(m, universe_key(m), cap, &self.obs, &mut self.stats)?;
        self.right
            .refresh(n, universe_key(n), cap, &self.obs, &mut self.stats)?;

        // Both ranks come from one harvest, so matching set ids per side
        // implies the harvested pairing is exactly this pairing: rebuild
        // it in O(states) instead of recompiling every fact base.
        let cached_pairing = match (&self.left.ranks, &self.right.ranks) {
            (Some(lr), Some(rr)) => {
                let lm = self.left.materialized.as_ref().expect("refreshed above");
                let rm = self.right.materialized.as_ref().expect("refreshed above");
                (lr.set_id == lm.set_id && rr.set_id == rm.set_id)
                    .then(|| rebuild_pairing(lr, &lm.order, rr, &rm.order))
            }
            _ => None,
        };
        let paired = match cached_pairing {
            Some(paired) => {
                self.stats.pairings_reused += 1;
                self.obs.add(Counter::PairingsReused, 1);
                paired
            }
            None => {
                let (paired, l_ranks, r_ranks) = {
                    let lm = self.left.materialized.as_ref().expect("refreshed above");
                    let rm = self.right.materialized.as_ref().expect("refreshed above");
                    // A pairing failure propagates before any harvest;
                    // stale ranks stay (they remain valid for the sets
                    // they name — set ids, not recency, gate reuse).
                    let paired = pair_on_states(
                        &self.left.dense_states(),
                        &self.right.dense_states(),
                        self.threads,
                        &self.obs,
                    )?;
                    let l_ranks = RankCache::harvest(
                        lm.set_id,
                        &lm.order,
                        &paired.m_rank,
                        self.left.arena.len(),
                    );
                    let r_ranks = RankCache::harvest(
                        rm.set_id,
                        &rm.order,
                        &paired.n_rank,
                        self.right.arena.len(),
                    );
                    (paired, l_ranks, r_ranks)
                };
                self.left.ranks = Some(l_ranks);
                self.right.ranks = Some(r_ranks);
                paired
            }
        };
        let lm = self.left.materialized.as_ref().expect("refreshed above");
        let rm = self.right.materialized.as_ref().expect("refreshed above");
        let verdict = check_prepaired(
            m.ops(),
            n.ops(),
            &lm.transitions,
            &rm.transitions,
            &paired,
            Some(kind),
            self.threads,
            &self.obs,
        )?;
        self.verdicts.insert(key, verdict.clone());
        Ok(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_logic::{Fact, FactBase};
    use dme_value::Atom;

    fn fact(n: u8) -> Fact {
        Fact::new("p", [("x", Atom::Int(n as i64))])
    }

    /// The toy model of the differential suites: strict single-fact
    /// insert/delete operations labelled by their effect.
    fn toy(name: &str, ops: &[(bool, u8)]) -> FiniteModel<FactBase, String> {
        let universe: std::collections::BTreeMap<String, (bool, Fact)> = ops
            .iter()
            .map(|(add, n)| {
                let f = fact(*n);
                (format!("{}{}", if *add { "+" } else { "-" }, f), (*add, f))
            })
            .collect();
        let names: Vec<String> = universe.keys().cloned().collect();
        FiniteModel::new(name, FactBase::default(), names, move |op, s| {
            let (add, f) = &universe[op];
            let mut next = s.clone();
            if *add {
                next.insert(f.clone()).then_some(next)
            } else {
                next.remove(f).then_some(next)
            }
        })
    }

    #[test]
    fn warm_session_answers_from_the_verdict_cache() {
        let ops = [(true, 0), (false, 0), (true, 1), (false, 1)];
        let m = toy("m", &ops);
        let n = toy("n", &ops);
        let mut session = IncrementalChecker::new();
        let cold = session.check(&m, &n, EquivKind::Isomorphic, 512).unwrap();
        let warm = session.check(&m, &n, EquivKind::Isomorphic, 512).unwrap();
        assert_eq!(cold, warm);
        let stats = session.stats();
        assert_eq!(stats.verdict_hits, 1);
        assert_eq!(stats.verdict_misses, 1);
        assert!(stats.transitions_recomputed > 0);
    }

    #[test]
    fn session_verdicts_match_fresh_runs_after_mutation() {
        use crate::check::{Checker, Tier};
        let base = [(true, 0), (false, 0), (true, 1)];
        let mutated = [(true, 0), (false, 0), (true, 2)];
        let mut session = IncrementalChecker::new();
        for kind in [
            EquivKind::Isomorphic,
            EquivKind::Composed { max_depth: 2 },
            EquivKind::StateDependent { max_depth: 2 },
        ] {
            for ops in [&base[..], &mutated[..], &base[..]] {
                let m = toy("m", ops);
                let n = toy("n", &base);
                let incremental = session.check(&m, &n, kind, 512);
                let fresh = Checker::new(&m, &n)
                    .tier(Tier::from_kind(kind))
                    .state_cap(512)
                    .run();
                assert_eq!(incremental, fresh, "kind {kind:?}, ops {ops:?}");
            }
        }
        assert!(session.stats().transitions_reused > 0);
    }

    #[test]
    fn pairing_ranks_are_reused_across_kinds() {
        use crate::check::{Checker, Tier};
        let ops = [(true, 0), (false, 0), (true, 1)];
        let m = toy("m", &ops);
        let n = toy("n", &ops);
        let mut session = IncrementalChecker::new();
        session.check(&m, &n, EquivKind::Isomorphic, 512).unwrap();
        assert_eq!(session.stats().pairings_reused, 0);
        // Same models, different kind: verdict-cache miss, but both
        // reachable sets match the harvest, so the pairing is rebuilt
        // from ranks — and the verdict still matches a fresh run.
        let kind = EquivKind::Composed { max_depth: 1 };
        let warm = session.check(&m, &n, kind, 512).unwrap();
        assert_eq!(session.stats().pairings_reused, 1);
        let fresh = Checker::new(&m, &n)
            .tier(Tier::from_kind(kind))
            .state_cap(512)
            .run()
            .unwrap();
        assert_eq!(warm, fresh);
    }

    #[test]
    fn closure_cap_errors_are_reproduced() {
        let ops = [(true, 0), (true, 1), (false, 0), (false, 1)];
        let m = toy("m", &ops);
        let n = toy("n", &ops);
        let mut session = IncrementalChecker::new();
        let err = session.check(&m, &n, EquivKind::Isomorphic, 2);
        let fresh = m.closure(2).unwrap_err();
        assert_eq!(err, Err(CheckError::Closure(fresh)));
        // A larger cap on the same session still succeeds.
        assert!(session.check(&m, &n, EquivKind::Isomorphic, 512).is_ok());
    }

    /// Asserts that a side's materialized closure is the one
    /// `FiniteModel::closure` enumerates for the same model: the same
    /// states in the same dense order, the same transition table.
    fn assert_fresh(cache: &ClosureCache<FactBase>, model: &FiniteModel<FactBase, String>) {
        let fresh = model.closure(512).unwrap();
        let mat = cache.materialized.as_ref().expect("refreshed");
        let fresh_states: Vec<&FactBase> = fresh.arena.states().iter().collect();
        assert_eq!(cache.dense_states(), fresh_states, "{model:?}");
        assert_eq!(mat.transitions, fresh.transitions, "{model:?}");
    }

    #[test]
    fn materialized_closures_equal_fresh_enumeration() {
        let base = [(true, 0), (false, 0), (true, 1), (true, 2), (false, 2)];
        let swapped = [(true, 0), (false, 0), (false, 1), (true, 2), (false, 2)];
        let dropped = [(true, 0), (true, 1), (true, 2), (false, 2)];
        let n = toy("n", &base);
        // The same walk twice: `errored` first asks the swapped model
        // (four states, one unknown column) with a cap it exceeds,
        // `clean` does not.
        let mut errored = IncrementalChecker::new();
        let mut clean = IncrementalChecker::new();
        for (step, ops) in [&base[..], &swapped[..], &dropped[..], &base[..]]
            .into_iter()
            .enumerate()
        {
            let m = toy("m", ops);
            if step == 1 {
                let err = errored.check(&m, &n, EquivKind::Isomorphic, 3);
                assert_eq!(err, Err(CheckError::Closure(m.closure(3).unwrap_err())));
            }
            // A new kind per step, so no step is a verdict-cache hit.
            let kind = EquivKind::Composed {
                max_depth: step + 1,
            };
            for session in [&mut errored, &mut clean] {
                let _ = session.check(&m, &n, kind, 512);
                assert_fresh(&session.left, &m);
                assert_fresh(&session.right, &n);
            }
        }
        // The columns written before the cap error survive it: the
        // retry recomputes only what the erroring walk left unknown.
        assert_eq!(
            errored.stats().transitions_recomputed,
            clean.stats().transitions_recomputed
        );
        assert!(errored.stats().transitions_reused > clean.stats().transitions_reused);
    }
}
