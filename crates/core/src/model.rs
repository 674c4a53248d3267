//! The application-model abstraction used by the equivalence checkers.
//!
//! §2.1: "an application model consists of a schema and a finite set of
//! operation types", and §2.2 defines the valid database states as "some
//! initial state, most likely the 'empty state', and those states
//! consisting of the closure of the application model's set of allowable
//! operations applied to this initial state."
//!
//! [`FiniteModel`] packages exactly that: an initial state, a finite list
//! of operations (operation types already applied to concrete arguments —
//! the paper's `operations`), and the application function.
//!
//! The closure is discovered by one breadth-first loop, `discover`. The
//! engine behind [`Checker`](crate::check::Checker) runs it through
//! [`FiniteModel::closure_with`] on a fresh arena; the
//! [`IncrementalChecker`](crate::incremental::IncrementalChecker) runs
//! it on its persistent arena with its memoized transitions passed in,
//! so known transitions are reused rather than re-applied.
//!
//! Each `discover` call also keeps the candidates it rejected, so the
//! validator runs once per distinct new state, valid or not.

use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

use dme_logic::{content_fingerprint, ToFacts};

use dme_graph::{GraphOp, GraphState};
use dme_relation::{CompiledOp, RelOp, RelationState};

use crate::arena::{Closure, StateArena, StateId};

/// A one-shot rollback token produced by [`FiniteModel::expand_delta`]:
/// calling it restores the state to what it was before the delta.
pub type UndoFn<S> = Box<dyn FnOnce(&mut S) + Send>;

type ApplyFn<S, O> = Arc<dyn Fn(&O, &S) -> Option<S> + Send + Sync>;
type FingerprintFn<S> = Arc<dyn Fn(&S) -> u64 + Send + Sync>;
type DeltaFn<S, O> = Arc<dyn Fn(usize, &O, &mut S) -> Option<UndoFn<S>> + Send + Sync>;
type ValidateFn<S> = Arc<dyn Fn(&S) -> bool + Send + Sync>;

/// A finite application model: initial state, operations, application
/// function. `None` from `apply` is the paper's error state.
///
/// Beyond the defining triple, a model carries two *kernel hooks* used
/// by the arena-backed closure machinery ([`FiniteModel::closure`]):
/// a state fingerprint (64-bit content hash, used to probe the
/// [`StateArena`] before constructing successors) and an expansion
/// split (apply an operation in place as an undoable candidate, then
/// validate the candidate only when it is a new state). Both have
/// universal fallbacks — hash the whole state; clone-apply with a
/// trivial validator — so plain models work unchanged; the
/// semantic-model wrappers ([`relational_model`], [`graph_model`])
/// install their own.
#[derive(Clone)]
pub struct FiniteModel<S, O> {
    name: String,
    initial: S,
    ops: Vec<O>,
    apply: ApplyFn<S, O>,
    fingerprint: FingerprintFn<S>,
    /// Deferred-validation split: `apply = candidate` followed by
    /// `validate` accepting the result. The closure enumerator only
    /// runs the validator on candidates that probe-miss the arena — an
    /// interned state already passed it — and at most once per distinct
    /// rejected candidate. Defaults to clone-apply with a validator that
    /// accepts everything.
    candidate: DeltaFn<S, O>,
    validate: ValidateFn<S>,
}

impl<S, O> fmt::Debug for FiniteModel<S, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FiniteModel({}, {} ops)", self.name, self.ops.len())
    }
}

/// The closure enumeration exceeded its cap — the model is too large for
/// exhaustive checking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClosureTooLarge {
    /// The model whose closure blew up.
    pub model: String,
    /// The cap that was exceeded.
    pub cap: usize,
}

impl fmt::Display for ClosureTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "closure of `{}` exceeds {} states; use the translators instead",
            self.model, self.cap
        )
    }
}

impl std::error::Error for ClosureTooLarge {}

/// One memoized transition outcome: applying one operation to one arena
/// state. `Unknown` marks a `(state, operation)` pair not yet explored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tx {
    /// Not yet computed.
    Unknown,
    /// The operation errors (precondition or constraint failure).
    Error,
    /// The operation transitions to this arena state.
    To(StateId),
}

/// Prior transition knowledge for [`FiniteModel::discover`]: one column
/// per operation *position*, indexed by arena id (shorter columns read
/// as [`Tx::Unknown`]), plus how many lookups it answered and how many
/// it had to leave to the model.
#[derive(Default)]
pub(crate) struct TransitionMemo {
    pub(crate) columns: Vec<Vec<Tx>>,
    pub(crate) reused: u64,
    pub(crate) recomputed: u64,
}

impl TransitionMemo {
    fn lookup(&mut self, op: usize, state: StateId) -> Tx {
        let tx = self.columns[op]
            .get(state.index())
            .copied()
            .unwrap_or(Tx::Unknown);
        if tx == Tx::Unknown {
            self.recomputed += 1;
        } else {
            self.reused += 1;
        }
        tx
    }

    fn record(&mut self, op: usize, state: StateId, target: Option<StateId>) {
        let column = &mut self.columns[op];
        if column.len() <= state.index() {
            column.resize(state.index() + 1, Tx::Unknown);
        }
        column[state.index()] = target.map_or(Tx::Error, Tx::To);
    }
}

/// What [`FiniteModel::discover`] found: the reachable states as arena
/// ids in discovery order (`order[d]` is dense state `d`) and the
/// transition table over dense ids (`None` = error).
pub(crate) struct Discovery {
    pub(crate) order: Vec<StateId>,
    pub(crate) transitions: Vec<Vec<Option<StateId>>>,
}

impl<S, O> FiniteModel<S, O>
where
    S: Clone + Ord + Hash + ToFacts + Send + 'static,
    O: Clone + 'static,
{
    /// Creates a model with the fallback kernel hooks: whole-state
    /// hashing for fingerprints and clone-apply for expansion. (The
    /// `Hash + Send + 'static` bounds exist only for those fallbacks;
    /// everything else lives in the laxer impl below.)
    pub fn new(
        name: impl Into<String>,
        initial: S,
        ops: Vec<O>,
        apply: impl Fn(&O, &S) -> Option<S> + Send + Sync + 'static,
    ) -> Self {
        let apply: ApplyFn<S, O> = Arc::new(apply);
        let clone_apply = apply.clone();
        FiniteModel {
            name: name.into(),
            initial,
            ops,
            apply,
            fingerprint: Arc::new(|s: &S| content_fingerprint(s)),
            candidate: Arc::new(move |_, op: &O, s: &mut S| {
                let next = clone_apply(op, s)?;
                let prev = std::mem::replace(s, next);
                Some(Box::new(move |s: &mut S| *s = prev) as UndoFn<S>)
            }),
            validate: Arc::new(|_: &S| true),
        }
    }

    /// Replaces the fingerprint hook.
    ///
    /// The hook must be a pure function of the state's content: equal
    /// states ⇒ equal fingerprints. Distinct states may collide, because
    /// the arena confirms every fingerprint match with `Eq`.
    pub fn with_fingerprint(mut self, f: impl Fn(&S) -> u64 + Send + Sync + 'static) -> Self {
        self.fingerprint = Arc::new(f);
        self
    }

    /// Installs a deferred-validation split of the application function.
    ///
    /// `candidate` applies an operation in place *minus* some final,
    /// state-only validation pass, and `validate` must be that pass: for
    /// every state and operation, `apply` succeeds iff `candidate`
    /// succeeds *and* `validate` accepts the candidate state, in which
    /// case the candidate state is the applied state. On error the
    /// candidate leaves the state untouched; on success its undo token
    /// restores the exact prior state. Because validation is a pure
    /// function of the resulting state, the closure enumerator runs it
    /// once per distinct candidate: not on a candidate that hash-conses
    /// to an already-interned (hence already-validated) state, nor on
    /// one it already rejected.
    ///
    /// `candidate` receives the operation's position in
    /// [`FiniteModel::ops`] along with the operation, so a model can keep
    /// per-operation data (such as a compiled form) in a slot indexed by
    /// position; a model that needs none ignores it.
    pub fn with_candidate(
        mut self,
        candidate: impl Fn(usize, &O, &mut S) -> Option<UndoFn<S>> + Send + Sync + 'static,
        validate: impl Fn(&S) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.candidate = Arc::new(candidate);
        self.validate = Arc::new(validate);
        self
    }
}

impl<S, O> FiniteModel<S, O>
where
    S: Clone + Ord + ToFacts,
    O: Clone,
{
    /// The model's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The initial (empty) state.
    pub fn initial(&self) -> &S {
        &self.initial
    }

    /// The simple operations.
    pub fn ops(&self) -> &[O] {
        &self.ops
    }

    /// Applies one operation; `None` is the error state.
    pub fn apply(&self, op: &O, state: &S) -> Option<S> {
        (self.apply)(op, state)
    }

    /// The state's 64-bit content fingerprint (kernel hook).
    pub fn state_fingerprint(&self, state: &S) -> u64 {
        (self.fingerprint)(state)
    }

    /// The expansion delta used by the closure enumerators (kernel
    /// hook): applies the operation at position `op` of
    /// [`FiniteModel::ops`] in place as a candidate, returning an undo
    /// token on success; on error (`None`) the state is untouched. A
    /// success must be followed by [`FiniteModel::validate_candidate`]
    /// before the resulting state may be interned as new.
    ///
    /// # Panics
    ///
    /// When `op` is not a position in [`FiniteModel::ops`].
    pub fn expand_delta(&self, op: usize, state: &mut S) -> Option<UndoFn<S>> {
        (self.candidate)(op, &self.ops[op], state)
    }

    /// Validates a candidate produced by [`FiniteModel::expand_delta`].
    /// Trivially true without a deferred-validation split (clone-apply
    /// already validated).
    pub fn validate_candidate(&self, state: &S) -> bool {
        (self.validate)(state)
    }

    /// Enumerates the closure into a fresh [`StateArena`] with the
    /// transition table, through the one discovery loop (`discover`)
    /// without a memo: every frontier state is cloned once into a
    /// scratch buffer, every operation is applied as an undoable delta,
    /// and the arena is probed by fingerprint so successors are only
    /// materialized when genuinely new.
    ///
    /// `on_expand` runs once per state before its expansion (with the
    /// number of operations about to be applied); returning `false`
    /// stops the enumeration early and yields `Ok(None)`. The engine
    /// passes its budget charge here. IDs are assigned in breadth-first
    /// discovery order, with ID 0 the initial state.
    pub fn closure_with(
        &self,
        cap: usize,
        on_expand: impl FnMut(usize) -> bool,
    ) -> Result<Option<Closure<S>>, ClosureTooLarge> {
        let mut arena: StateArena<S> = StateArena::new();
        arena.intern(self.state_fingerprint(&self.initial), self.initial.clone());
        let Some(found) = self.discover(&mut arena, None, cap, on_expand)? else {
            return Ok(None);
        };
        // A fresh arena holds only discovered states, so dense ids are
        // arena ids and the dense table is the arena's table.
        debug_assert!(found
            .order
            .iter()
            .enumerate()
            .all(|(d, id)| id.index() == d));
        Ok(Some(Closure {
            arena,
            transitions: found.transitions,
        }))
    }

    /// [`FiniteModel::closure_with`] without a budget hook.
    pub fn closure(&self, cap: usize) -> Result<Closure<S>, ClosureTooLarge> {
        Ok(self
            .closure_with(cap, |_| true)?
            .expect("unbudgeted closure cannot stop early"))
    }

    /// The set of valid states: the closure of the operations from the
    /// initial state (§2.2). Fails when more than `cap` states are
    /// reachable.
    pub fn reachable_states(&self, cap: usize) -> Result<BTreeSet<S>, ClosureTooLarge> {
        Ok(self.closure(cap)?.arena.states().iter().cloned().collect())
    }

    /// The one closure discovery loop: a breadth-first walk from arena
    /// id 0 (which must hold the initial state) over a caller-owned
    /// arena, in operation order. Reachable states are numbered densely
    /// in discovery order; the arena may hold more states than this
    /// model reaches (a session's arena outlives operation lists), so
    /// the result maps dense ids back to arena ids.
    ///
    /// Each expanded state is cloned at most once into a scratch buffer,
    /// operations are applied through [`FiniteModel::expand_delta`] and
    /// undone, and [`FiniteModel::validate_candidate`] runs only on
    /// probe misses, once per distinct candidate: the candidates it
    /// rejected are kept in a second table for the rest of the call and
    /// probed (fingerprint, then `Eq`) before validating. Those probes
    /// count as neither arena hits nor misses. With a `memo`, a known
    /// transition is reused without
    /// touching the state and an unknown one is computed and written
    /// back. `on_expand` is [`FiniteModel::closure_with`]'s budget hook.
    /// A new reachable state beyond `cap` raises [`ClosureTooLarge`] at
    /// the same discovery point for every arena and memo.
    pub(crate) fn discover(
        &self,
        arena: &mut StateArena<S>,
        mut memo: Option<&mut TransitionMemo>,
        cap: usize,
        mut on_expand: impl FnMut(usize) -> bool,
    ) -> Result<Option<Discovery>, ClosureTooLarge> {
        let mut order: Vec<StateId> = vec![StateId::from_index(0)];
        // Arena index → dense id, grown lazily; a flat vector because
        // every transition is remapped through it.
        let mut dense: Vec<Option<u32>> = vec![Some(0)];
        let mut transitions: Vec<Vec<Option<StateId>>> = Vec::new();
        let mut rejected: StateArena<S> = StateArena::new();
        let mut cursor = 0usize;
        while cursor < order.len() {
            if !on_expand(self.ops.len()) {
                return Ok(None);
            }
            let at = order[cursor];
            let mut scratch: Option<S> = None;
            let mut row: Vec<Option<StateId>> = Vec::with_capacity(self.ops.len());
            for oi in 0..self.ops.len() {
                let known = memo
                    .as_deref_mut()
                    .map_or(Tx::Unknown, |m| m.lookup(oi, at));
                let target = match known {
                    Tx::Error => None,
                    Tx::To(t) => Some(t),
                    Tx::Unknown => {
                        let scratch = scratch.get_or_insert_with(|| arena.get(at).clone());
                        let target = self.step(oi, scratch, arena, &mut rejected);
                        if let Some(memo) = memo.as_deref_mut() {
                            memo.record(oi, at, target);
                        }
                        target
                    }
                };
                let Some(t) = target else {
                    row.push(None);
                    continue;
                };
                if t.index() >= dense.len() {
                    dense.resize(t.index() + 1, None);
                }
                let d = match dense[t.index()] {
                    Some(d) => d as usize,
                    None => {
                        if order.len() >= cap {
                            return Err(ClosureTooLarge {
                                model: self.name.clone(),
                                cap,
                            });
                        }
                        dense[t.index()] = Some(order.len() as u32);
                        order.push(t);
                        order.len() - 1
                    }
                };
                row.push(Some(StateId::from_index(d)));
            }
            transitions.push(row);
            cursor += 1;
        }
        Ok(Some(Discovery { order, transitions }))
    }

    /// Applies operation `op` to `scratch` as an undoable candidate and
    /// resolves the successor in `arena`: a probe hit, a newly interned
    /// (and validated) state, or `None` for the error state. A candidate
    /// that fails validation is kept in `rejected`, so an equal one later
    /// is refused without validating again. `scratch` is restored before
    /// returning.
    fn step(
        &self,
        op: usize,
        scratch: &mut S,
        arena: &mut StateArena<S>,
        rejected: &mut StateArena<S>,
    ) -> Option<StateId> {
        let undo = self.expand_delta(op, scratch)?;
        let fp = self.state_fingerprint(scratch);
        let target = if let Some(id) = arena.probe(fp, scratch) {
            arena.add_probe_stats(1, 0);
            Some(id)
        } else if rejected.probe(fp, scratch).is_some() {
            None
        } else if self.validate_candidate(scratch) {
            Some(arena.intern(fp, scratch.clone()).0)
        } else {
            rejected.intern(fp, scratch.clone());
            None
        };
        undo(scratch);
        target
    }
}

/// Wraps a semantic-relation application model for the checkers.
///
/// The closure enumerator applies each operation through its
/// [`CompiledOp`], compiled on the operation's first application and
/// kept for the model's lifetime (one slot per operation position,
/// shared by clones of the model), so building the model compiles
/// nothing and a closure compiles each operation at most once.
///
/// A candidate is applied to the scratch state in place
/// ([`CompiledOp::apply_in_place`]), normalizing only what the
/// operation's changes can affect, and its undo replays the returned
/// log backwards: no transition clones the state. A transition that
/// changes nothing (an insert of stored statements, a delete of facts
/// the state does not assert) logs nothing, and its undo is a no-op
/// that allocates nothing.
pub fn relational_model(
    name: impl Into<String>,
    initial: RelationState,
    ops: Vec<RelOp>,
) -> FiniteModel<RelationState, RelOp> {
    let compiled: Arc<[OnceLock<Option<CompiledOp>>]> =
        ops.iter().map(|_| OnceLock::new()).collect();
    FiniteModel::new(name, initial, ops, |op, state| op.apply(state).ok())
        .with_fingerprint(RelationState::fingerprint)
        // `RelOp::apply` is `apply_candidate` + `check_all`, and the
        // constraint check is by far the expensive half — deferring it
        // to probe-missing candidates is this model's main closure win.
        .with_candidate(
            move |oi, op, state| {
                // A malformed statement fails the operation on every
                // state, so the slot caches that as `None`.
                let compiled = compiled[oi]
                    .get_or_init(|| op.compile(state.schema()).ok())
                    .as_ref()?;
                let log = compiled.apply_in_place(state);
                Some(if log.is_empty() {
                    Box::new(|_: &mut RelationState| {}) as UndoFn<_>
                } else {
                    Box::new(move |s: &mut RelationState| log.undo(s))
                })
            },
            |state| dme_relation::constraints::check_all(state.schema(), state).is_ok(),
        )
}

/// Wraps a semantic-graph application model for the checkers.
pub fn graph_model(
    name: impl Into<String>,
    initial: GraphState,
    ops: Vec<GraphOp>,
) -> FiniteModel<GraphState, GraphOp> {
    FiniteModel::new(name, initial, ops, |op, state| op.apply(state).ok())
        .with_fingerprint(GraphState::fingerprint)
        // `GraphOp::apply` is the raw logged changes + `validate`, and
        // most closure transitions probe-hit an interned state, so the
        // whole-state validation runs only on probe misses.
        .with_candidate(
            |_, op, state| {
                let undo = op.apply_unvalidated(state).ok()?;
                Some(Box::new(move |s: &mut GraphState| undo.revert(s)) as UndoFn<_>)
            },
            |state| state.validate().is_ok(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_logic::FactBase;

    /// A toy state: a set of small integers, compiled to facts
    /// one-per-element.
    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Ints(BTreeSet<i64>);

    impl ToFacts for Ints {
        fn to_facts(&self) -> FactBase {
            self.0
                .iter()
                .map(|i| dme_logic::Fact::new("n", [("v", dme_value::Atom::Int(*i))]))
                .collect()
        }
    }

    fn counter_model(limit: i64) -> FiniteModel<Ints, i64> {
        FiniteModel::new(
            format!("ints<{limit}"),
            Ints(BTreeSet::new()),
            vec![1, 2],
            move |op, s| {
                let mut next = s.clone();
                let max = s.0.iter().max().copied().unwrap_or(0);
                let v = max + op;
                if v > limit {
                    return None;
                }
                next.0.insert(v);
                Some(next)
            },
        )
    }

    #[test]
    fn closure_enumerates_reachable_states() {
        let m = counter_model(3);
        let states = m.reachable_states(100).unwrap();
        // Reachable: {}, {1}, {2}, {1,2}, {1,3}, {2,3}… (chains of +1/+2
        // from the running max, capped at 3).
        assert!(states.contains(&Ints(BTreeSet::new())));
        assert!(states.contains(&Ints([1].into())));
        assert!(states.contains(&Ints([1, 2, 3].into())));
        assert!(!states.iter().any(|s| s.0.iter().any(|&v| v > 3)));
        assert_eq!(states.len(), 7);
    }

    #[test]
    fn closure_cap_enforced() {
        let m = counter_model(20);
        let err = m.reachable_states(5).unwrap_err();
        assert_eq!(err.cap, 5);
        assert!(err.to_string().contains("exceeds 5 states"));
    }

    #[test]
    fn closure_transitions_are_memoized_and_closed() {
        let m = counter_model(3);
        let closure = m.closure(100).unwrap();
        assert_eq!(closure.len(), 7);
        assert_eq!(closure.transitions.len(), 7);
        // ID 0 is the initial state.
        assert_eq!(
            closure.arena.get(crate::arena::StateId::from_index(0)),
            m.initial()
        );
        // Every transition entry agrees with a fresh clone-apply, and
        // every successor is in the arena (closed under operations).
        for (id, state) in closure.arena.iter() {
            for (oi, op) in m.ops().iter().enumerate() {
                let expect = m.apply(op, state);
                let got = closure.transitions[id.index()][oi].map(|t| closure.arena.get(t));
                assert_eq!(got, expect.as_ref());
            }
        }
        // The counter model has no confluence (every successful apply
        // discovers a new state), so all probes were misses.
        let stats = closure.arena.stats();
        assert_eq!(stats.unique, 7);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn confluent_closures_probe_hot() {
        // Two independent toggles: 4 states, every edge revisits the
        // lattice, so most probes hit the arena.
        let m = FiniteModel::new(
            "toggles",
            Ints(BTreeSet::new()),
            vec![1, 2],
            |op, s: &Ints| {
                let mut next = s.clone();
                if !next.0.remove(op) {
                    next.0.insert(*op);
                }
                Some(next)
            },
        );
        let closure = m.closure(100).unwrap();
        assert_eq!(closure.len(), 4);
        let stats = closure.arena.stats();
        // 4 states × 2 ops = 8 successors, 3 of them new.
        assert_eq!(stats.unique, 4);
        assert_eq!(stats.hits, 5);
        assert!(stats.hit_rate() > 0.5);
    }

    #[test]
    fn budget_hook_stops_enumeration() {
        let m = counter_model(3);
        let mut calls = 0usize;
        let stopped = m
            .closure_with(100, |ops| {
                assert_eq!(ops, 2);
                calls += 1;
                calls <= 2
            })
            .unwrap();
        assert!(stopped.is_none());
        assert_eq!(calls, 3);
    }

    /// Toggles of 1, 2 and 3 where at most one element may be held: 4
    /// valid states, and 3 distinct invalid candidates ({1,2}, {1,3},
    /// {2,3}) each reached twice. The validator counts its calls.
    #[test]
    fn rejected_candidates_are_validated_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let toggle = |op: &i64, s: &mut Ints| {
            if !s.0.remove(op) {
                s.0.insert(*op);
            }
        };
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let split = FiniteModel::new(
            "one-hot",
            Ints(BTreeSet::new()),
            vec![1, 2, 3],
            move |op, s| {
                let mut next = s.clone();
                toggle(op, &mut next);
                (next.0.len() <= 1).then_some(next)
            },
        )
        .with_candidate(
            move |_, op, s| {
                toggle(op, s);
                let op = *op;
                Some(Box::new(move |s: &mut Ints| toggle(&op, s)) as UndoFn<Ints>)
            },
            move |s| {
                counted.fetch_add(1, Ordering::Relaxed);
                s.0.len() <= 1
            },
        );
        let closure = split.closure(100).unwrap();
        assert_eq!(closure.len(), 4);
        // 3 new valid states + 3 distinct invalid candidates; without the
        // rejected table each invalid candidate would be validated twice
        // (3 + 6 = 9 calls).
        assert_eq!(calls.load(Ordering::Relaxed), 6);
        // The rejected table moves no arena counter: the clone-apply
        // model, which validates inside `apply`, counts the same hits and
        // misses and finds the same table.
        let plain = FiniteModel::new("one-hot", Ints(BTreeSet::new()), vec![1, 2, 3], {
            let split = split.clone();
            move |op, s: &Ints| split.apply(op, s)
        });
        let reference = plain.closure(100).unwrap();
        assert_eq!(closure.arena.states(), reference.arena.states());
        assert_eq!(closure.transitions, reference.transitions);
        let (stats, expect) = (closure.arena.stats(), reference.arena.stats());
        assert_eq!((stats.hits, stats.misses), (expect.hits, expect.misses));
        assert_eq!((stats.hits, stats.misses), (3, 4));
        // The table lives for one discovery: a second closure validates
        // the same candidates again.
        split.closure(100).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 12);
    }

    /// For every reachable state and every operation position, the
    /// candidate followed by validation equals `apply`, and the undo
    /// token restores the state.
    fn assert_candidate_agrees<S, O>(model: &FiniteModel<S, O>)
    where
        S: Clone + Ord + Hash + ToFacts + Send + fmt::Debug + 'static,
        O: Clone + fmt::Display + 'static,
    {
        let closure = model.closure(4_000).unwrap();
        for (_, state) in closure.arena.iter() {
            for (oi, op) in model.ops().iter().enumerate() {
                let pure = model.apply(op, state);
                let mut scratch = state.clone();
                let via_candidate = model.expand_delta(oi, &mut scratch).and_then(|undo| {
                    let out = model.validate_candidate(&scratch).then(|| scratch.clone());
                    undo(&mut scratch);
                    out
                });
                assert_eq!(pure, via_candidate, "{}: op {oi} ({op})", model.name());
                assert_eq!(&scratch, state, "{}: undo of op {oi}", model.name());
            }
        }
    }

    fn rel_model(
        name: &str,
        schema: dme_relation::RelationalSchema,
    ) -> FiniteModel<RelationState, RelOp> {
        let ops = crate::enumerate::enumerate_rel_ops(&schema, 2);
        relational_model(name, RelationState::empty(Arc::new(schema)), ops)
    }

    #[test]
    fn relational_candidate_agrees_with_apply() {
        use crate::witness;
        assert_candidate_agrees(&rel_model("mini-rel", witness::mini_relational_schema()));
        assert_candidate_agrees(&rel_model("micro-rel", witness::micro_relational_schema()));
        assert_candidate_agrees(&rel_model(
            "micro-rel-ss",
            witness::micro_relational_schema_supervisors_supervised(),
        ));
    }

    #[test]
    fn graph_candidate_agrees_with_apply() {
        use crate::witness;
        let schemas =
            std::iter::once(witness::mini_graph_schema()).chain(witness::all_micro_graph_schemas());
        for (i, schema) in schemas.enumerate() {
            let schema = Arc::new(schema);
            let ops = crate::enumerate::enumerate_graph_ops(&schema);
            assert_candidate_agrees(&graph_model(
                format!("graph-{i}"),
                GraphState::empty(schema),
                ops,
            ));
        }
    }

    /// The mini shop's relational closure validates 520 candidates: its
    /// 56 new states and its 464 distinct rejected candidates. Without
    /// the rejected table it validated every one of its 4 935 rejected
    /// candidates, 4 991 calls in all.
    #[test]
    fn mini_shop_validates_each_rejected_state_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut model = rel_model("mini-rel", crate::witness::mini_relational_schema());
        let calls = Arc::new(AtomicUsize::new(0));
        let check = Arc::clone(&model.validate);
        model.validate = {
            let calls = Arc::clone(&calls);
            Arc::new(move |s: &RelationState| {
                calls.fetch_add(1, Ordering::Relaxed);
                check(s)
            })
        };
        let closure = model.closure(4_000).unwrap();
        assert_eq!(closure.len(), 57);
        assert_eq!(calls.load(Ordering::Relaxed), 520);

        let mut rejected = 0;
        let mut distinct = BTreeSet::new();
        for (_, state) in closure.arena.iter() {
            for oi in 0..model.ops().len() {
                let mut scratch = state.clone();
                if let Some(undo) = model.expand_delta(oi, &mut scratch) {
                    if closure
                        .arena
                        .probe(model.state_fingerprint(&scratch), &scratch)
                        .is_none()
                    {
                        rejected += 1;
                        distinct.insert(scratch.clone());
                    }
                    undo(&mut scratch);
                }
            }
        }
        assert_eq!((rejected, distinct.len()), (4_935, 464));
    }

    #[test]
    fn accessors() {
        let m = counter_model(3);
        assert_eq!(m.ops(), &[1, 2]);
        assert_eq!(m.initial(), &Ints(BTreeSet::new()));
        assert!(m.name().starts_with("ints"));
        assert!(format!("{m:?}").contains("2 ops"));
        assert_eq!(m.apply(&1, m.initial()), Some(Ints([1].into())));
    }
}
