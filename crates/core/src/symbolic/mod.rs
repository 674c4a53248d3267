//! The symbolic bounded-equivalence tier.
//!
//! Every other checker in this crate decides Definitions 2/3/5/6 by
//! *enumerating* the full state closure, so cost is Θ(states) even when
//! a small bound would settle the verdict. This module decides the same
//! definitions **up to a bound** by compiling the model into CNF — in
//! the `bound_size` spirit of VeriEQL's `bound_size = 2` — and asking a
//! vendored CDCL core ([`sat`]) instead of walking states:
//!
//! - [`SymbolicChecker::run`] is the **decide mode**: per-depth path
//!   unrollings enumerate the closure's BFS layers via blocking clauses.
//!   A round that yields no new state proves the closure complete
//!   (every state at BFS distance *d+1* has a predecessor at distance
//!   *d*), after which the engine decides over the discovered states,
//!   so the verdict is **bit-identical** to [`crate::Checker`]'s — the
//!   differential suite in `tests/symbolic.rs` pins this. If the bound
//!   runs out first, the outcome is [`SymbolicOutcome::BoundExhausted`]:
//!   **no verdict** — never "equivalent".
//! - [`SymbolicChecker::find_counterexample`] is the **find mode**: two
//!   parallel path unrollings (with stutter steps) constrain a state
//!   reachable on *both* sides within the bound where a probed
//!   operation behaves differently from every operation of the other
//!   model — a Definition 2 counterexample. One SAT query per operation
//!   pair, independent of closure size: this is where symbolic beats
//!   enumeration (the `symbolic_crossover` bench row), because a
//!   mutated operation is refuted at bound 2 while the enumerative
//!   engine walks 2^toggles states. A `None` answer is *inconclusive*
//!   (no witness within the bound), mirroring the bounded-verification
//!   contract.
//!
//! Once the closure is discovered, this module stops: it hands the
//! engine ([`crate::parallel`]) each closure in the engine's own form —
//! states as fact bases, transitions per state and operation — and the
//! engine pairs states, builds signatures and decides pairs,
//! Definition 1 and Definition 6 grids exactly as it does for
//! [`crate::Checker`]. The independent implementation the differential
//! suite compares against is [`crate::slow_reference`].
//!
//! ## Scope
//!
//! The symbolic tier covers **fact-toggle universes**: models whose
//! states are subsets of a finite fact list and whose operations are
//! strict insert/delete step sequences with `AtMost`/`Excludes`/
//! `Requires` state constraints — exactly the workload scenario corpus
//! (`dme_workload::scenario::Scenario::symbolic_spec`) and the
//! toy-model fixtures of the test suite. The relational and graph
//! witness models go through the enumerative engine or the translators.

pub mod sat;

mod encode;

use std::collections::{BTreeMap, BTreeSet};

use dme_logic::{Fact, FactBase};
use dme_obs::{Counter, Metric, Observer};

use crate::arena::{Closure, StateArena, StateId};
use crate::check::Tier;
use crate::equiv::{CheckError, EquivKind};
use crate::model::ClosureTooLarge;
use crate::parallel::{
    check_prepaired, grid_verdict, pair_on_states, CheckBudget, EngineCtx, Explored, Side, Verdict,
    Witness,
};

use encode::{
    apply_summary, assert_any, block_state, encode_path, read_state, result_bits, success_bit,
    summarize, xor_bit, OpSummary,
};
use sat::{SatResult, Solver};

/// Default path-length bound for [`SymbolicChecker`]: deep enough to
/// close every corpus scenario's BFS layers, small enough that each
/// round's CNF stays tiny.
pub const DEFAULT_BOUND: usize = 12;

/// One operation of a [`SymbolicSpec`]: a strict sequence of
/// insert/delete steps over universe fact indices, with the display
/// label the enumerative engine would report as a witness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymbolicOp {
    /// Witness label; must equal the `Display` form of the concrete
    /// operation for verdicts to be bit-identical.
    pub label: String,
    /// The steps, applied in order: `(true, v)` inserts fact `v` (error
    /// if present), `(false, v)` deletes it (error if absent). Any step
    /// failing means the whole operation errors.
    pub steps: Vec<(bool, usize)>,
}

/// A state constraint over universe fact indices; a state is valid iff
/// every constraint holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymbolicConstraint {
    /// At most `cap` of the listed facts may hold simultaneously.
    AtMost {
        /// The constrained fact indices.
        vars: Vec<usize>,
        /// Maximum number of them that may hold.
        cap: usize,
    },
    /// Facts `a` and `b` may not hold simultaneously.
    Excludes {
        /// First fact index.
        a: usize,
        /// Second fact index.
        b: usize,
    },
    /// If fact `a` holds then fact `b` must hold.
    Requires {
        /// The triggering fact index.
        a: usize,
        /// The required fact index.
        b: usize,
    },
}

/// A fact-toggle model in symbolic form: the input language of the
/// symbolic tier. States are subsets of `facts`, the initial state is
/// empty, and `ops` + `constraints` define the transition relation (an
/// operation succeeds iff all its steps apply strictly and the result
/// satisfies every constraint — the same semantics as the scenario
/// corpus models).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymbolicSpec {
    /// Model name, as reported in closure errors and Definition 6
    /// witnesses; must equal the concrete model's name for verdict
    /// bit-identity.
    pub name: String,
    /// The fact universe; states are subsets of it. At most 128 facts.
    pub facts: Vec<Fact>,
    /// The operation alphabet.
    pub ops: Vec<SymbolicOp>,
    /// The state constraints.
    pub constraints: Vec<SymbolicConstraint>,
}

impl SymbolicSpec {
    /// The toggle spec over `facts`: one insert and one delete
    /// operation per fact, labelled `+{fact}` / `-{fact}` and sorted by
    /// label — the same operation alphabet (and order) as the test
    /// suite's toy models, which build their op list through a
    /// `BTreeMap` keyed by label.
    pub fn toggles(name: &str, facts: Vec<Fact>) -> SymbolicSpec {
        let mut by_label: BTreeMap<String, (bool, usize)> = BTreeMap::new();
        for (v, fact) in facts.iter().enumerate() {
            by_label.insert(format!("+{fact}"), (true, v));
            by_label.insert(format!("-{fact}"), (false, v));
        }
        let ops = by_label
            .into_iter()
            .map(|(label, step)| SymbolicOp {
                label,
                steps: vec![step],
            })
            .collect();
        SymbolicSpec {
            name: name.to_owned(),
            facts,
            ops,
            constraints: Vec::new(),
        }
    }

    /// Replays an operation-index path concretely from the empty state:
    /// the reached fact base, or `None` if any operation along the path
    /// errors or is not an operation index of this spec. This is the
    /// bridge the bound-soundness tests use to show a symbolic witness
    /// is a real concrete execution.
    pub fn replay(&self, path: &[usize]) -> Option<FactBase> {
        let summaries: Vec<OpSummary> = self.ops.iter().map(|op| summarize(&op.steps)).collect();
        let mut state = 0u128;
        for &i in path {
            state = apply_summary(summaries.get(i)?, state, &self.constraints)?;
        }
        Some(self.fact_base(state))
    }

    /// Applies one operation to a concrete fact-subset state (given as
    /// a fact base over this spec's universe); `None` is the error
    /// state, and also the answer for an out-of-range `op_index`.
    pub fn apply_op(&self, op_index: usize, state: &FactBase) -> Option<FactBase> {
        let op = self.ops.get(op_index)?;
        let mut bits = 0u128;
        for (v, fact) in self.facts.iter().enumerate() {
            if state.holds(fact) {
                bits |= 1 << v;
            }
        }
        let sum = summarize(&op.steps);
        apply_summary(&sum, bits, &self.constraints).map(|next| self.fact_base(next))
    }

    fn fact_base(&self, bits: u128) -> FactBase {
        FactBase::from_facts(
            self.facts
                .iter()
                .enumerate()
                .filter(|(v, _)| bits >> v & 1 == 1)
                .map(|(_, f)| f.clone())
                .collect::<Vec<Fact>>(),
        )
    }
}

/// Outcome of a symbolic decide-mode check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymbolicOutcome {
    /// The bound sufficed: every closure reached its fixpoint, and this
    /// is exactly the result the enumerative engine returns for the
    /// same models (bit-identical verdicts, witnesses and errors).
    Definitive(Result<Verdict, CheckError>),
    /// The bound ran out before some closure reached its fixpoint.
    /// This means **no verdict** — in particular it never means
    /// "equivalent": states beyond the bound could still distinguish
    /// the models.
    BoundExhausted {
        /// The bound that was exhausted.
        bound: usize,
        /// States discovered in the closure that failed to complete.
        states_found: usize,
    },
}

impl SymbolicOutcome {
    /// The definitive result, if the bound sufficed.
    pub fn definitive(&self) -> Option<&Result<Verdict, CheckError>> {
        match self {
            SymbolicOutcome::Definitive(r) => Some(r),
            SymbolicOutcome::BoundExhausted { .. } => None,
        }
    }

    /// Whether the bound ran out (no verdict).
    pub fn is_bound_exhausted(&self) -> bool {
        matches!(self, SymbolicOutcome::BoundExhausted { .. })
    }
}

/// One satisfying assignment of a find-mode differ query, decoded into
/// concrete operation paths: replaying `path_m` on the left model and
/// `path_n` on the right model reaches the *same* application state,
/// from which the probed operation and `vs_op` behave differently.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DifferTrace {
    /// Operation indices into the left model, from the empty state.
    pub path_m: Vec<usize>,
    /// Operation indices into the right model, from the empty state.
    pub path_n: Vec<usize>,
    /// The opposite-side operation this trace distinguishes the probed
    /// operation from.
    pub vs_op: usize,
}

/// A Definition 2 counterexample found symbolically: an operation with
/// no behavioural equivalent on the other side, with one replayable
/// [`DifferTrace`] per opposite operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FoundCounterexample {
    /// Which model the unmatched operation belongs to.
    pub side: Side,
    /// Index of the unmatched operation in its model.
    pub op_index: usize,
    /// The operation's witness label.
    pub label: String,
    /// One differ witness per opposite-side operation (empty when the
    /// other side has no operations).
    pub traces: Vec<DifferTrace>,
}

impl FoundCounterexample {
    /// The counterexample as the engine's [`Witness`] type — the same
    /// `(side, label)` entry the enumerative isomorphic check reports.
    pub fn to_witness(&self) -> Witness {
        Witness {
            side: self.side,
            label: self.label.clone(),
        }
    }
}

/// What a [`SymbolicChecker`] compares.
enum SymTarget<'a> {
    Pair(&'a SymbolicSpec, &'a SymbolicSpec),
    Sets(&'a [SymbolicSpec], &'a [SymbolicSpec]),
}

/// The symbolic counterpart of [`crate::Checker`]: same tiers, same
/// verdict type, but decided by bounded CNF encoding instead of closure
/// enumeration. See the module docs for the decide/find split.
pub struct SymbolicChecker<'a> {
    target: SymTarget<'a>,
    tier: Tier,
    state_cap: usize,
    bound: usize,
    observer: Observer,
}

impl<'a> SymbolicChecker<'a> {
    /// A checker over one model pair. Defaults to [`Tier::Isomorphic`],
    /// [`crate::DEFAULT_STATE_CAP`] and [`DEFAULT_BOUND`].
    pub fn new(m: &'a SymbolicSpec, n: &'a SymbolicSpec) -> Self {
        SymbolicChecker {
            target: SymTarget::Pair(m, n),
            tier: Tier::Isomorphic,
            state_cap: crate::check::DEFAULT_STATE_CAP,
            bound: DEFAULT_BOUND,
            observer: Observer::disabled(),
        }
    }

    /// A checker over two data models (sets of application models),
    /// defaulting to Definition 6 over isomorphic equivalence.
    pub fn data_models(ms: &'a [SymbolicSpec], ns: &'a [SymbolicSpec]) -> Self {
        SymbolicChecker {
            target: SymTarget::Sets(ms, ns),
            tier: Tier::DataModel {
                kind: crate::equiv::EquivKind::Isomorphic,
            },
            state_cap: crate::check::DEFAULT_STATE_CAP,
            bound: DEFAULT_BOUND,
            observer: Observer::disabled(),
        }
    }

    /// Selects the equivalence tier (same meaning as on the facade).
    pub fn tier(mut self, tier: Tier) -> Self {
        self.tier = tier;
        self
    }

    /// Caps closure discovery at `cap` states per model; exceeding it
    /// is [`CheckError::Closure`] with the same error the enumerative
    /// engine raises.
    pub fn state_cap(mut self, cap: usize) -> Self {
        self.state_cap = cap;
        self
    }

    /// Sets the path-length bound for both modes (default
    /// [`DEFAULT_BOUND`]). Decide mode needs `bound` ≥ closure BFS
    /// diameter + 1 to certify the fixpoint; find mode searches paths
    /// of exactly `bound` steps (with stutters, so shorter paths are
    /// included).
    pub fn bound(mut self, bound: usize) -> Self {
        self.bound = bound;
        self
    }

    /// Attaches an observer: clause/conflict totals land in the
    /// `symbolic_clauses` / `symbolic_conflicts` counters and exhausted
    /// bounds in `bound_exhausted`.
    pub fn observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Decide mode: the verdict up to the bound. See
    /// [`SymbolicOutcome`] for the definitive-vs-exhausted contract.
    pub fn run(&self) -> SymbolicOutcome {
        let _span = self.observer.span("symbolic/decide");
        let outcome = match (&self.target, self.tier) {
            (SymTarget::Sets(..), Tier::Operation) => {
                SymbolicOutcome::Definitive(Err(CheckError::Unsupported(
                    "Definition 1 compares the aligned operations of a single model pair; \
                     data-model sets have no operation alignment"
                        .into(),
                )))
            }
            (SymTarget::Pair(m, n), Tier::DataModel { kind }) => {
                self.run_grid(std::slice::from_ref(*m), std::slice::from_ref(*n), kind)
            }
            (SymTarget::Sets(ms, ns), tier) => {
                self.run_grid(ms, ns, tier.kind().expect("Operation tier handled above"))
            }
            (SymTarget::Pair(m, n), tier) => self.run_pair(m, n, tier.kind()),
        };
        if outcome.is_bound_exhausted() {
            self.observer.add(Counter::BoundExhausted, 1);
        }
        outcome
    }

    /// One model pair: both closures discovered, then the engine's
    /// pairing and signature match (`kind` is `None` for Definition 1).
    fn run_pair(
        &self,
        m: &SymbolicSpec,
        n: &SymbolicSpec,
        kind: Option<EquivKind>,
    ) -> SymbolicOutcome {
        let m_closure = match self.enumerate(m) {
            Ok(c) => c,
            Err(stop) => return stop,
        };
        let n_closure = match self.enumerate(n) {
            Ok(c) => c,
            Err(stop) => return stop,
        };
        let verdict = pair_on_states(
            m_closure.arena.states(),
            n_closure.arena.states(),
            1,
            &self.observer,
        )
        .and_then(|paired| {
            check_prepaired(
                &labels(m),
                &labels(n),
                &m_closure.transitions,
                &n_closure.transitions,
                &paired,
                kind,
                1,
                &self.observer,
            )
        });
        SymbolicOutcome::Definitive(verdict)
    }

    /// Definition 6: each model's closure discovered once, then the
    /// engine's grid over them.
    fn run_grid(
        &self,
        ms: &[SymbolicSpec],
        ns: &[SymbolicSpec],
        kind: EquivKind,
    ) -> SymbolicOutcome {
        let m_labels: Vec<_> = ms.iter().map(labels).collect();
        let n_labels: Vec<_> = ns.iter().map(labels).collect();
        let m_side = match self.explore(ms, &m_labels) {
            Ok(side) => side,
            Err(stop) => return stop,
        };
        let n_side = match self.explore(ns, &n_labels) {
            Ok(side) => side,
            Err(stop) => return stop,
        };
        let ctx = EngineCtx::new(&CheckBudget::UNLIMITED, self.observer.clone());
        SymbolicOutcome::Definitive(grid_verdict(&m_side, &n_side, kind, 1, &ctx))
    }

    /// Discovers every spec's closure, in order, for the engine's grid.
    fn explore<'s>(
        &self,
        specs: &'s [SymbolicSpec],
        labels: &'s [Vec<String>],
    ) -> Result<Vec<Explored<'s, FactBase, String>>, SymbolicOutcome> {
        specs
            .iter()
            .zip(labels)
            .map(|(spec, ops)| {
                Ok(Explored {
                    name: &spec.name,
                    ops,
                    closure: self.enumerate(spec)?,
                })
            })
            .collect()
    }

    /// Discovers one spec's closure by per-depth SAT layer enumeration,
    /// in the engine's form: states are the discovered fact subsets in
    /// ascending bit order (the empty initial state first) as fact
    /// bases, with `transitions[state][op]`.
    fn enumerate(&self, spec: &SymbolicSpec) -> Result<Closure<FactBase>, SymbolicOutcome> {
        let nvars = spec.facts.len();
        if nvars > 128 {
            return Err(SymbolicOutcome::Definitive(Err(CheckError::Unsupported(
                format!(
                    "symbolic tier supports at most 128 facts per universe; `{}` has {nvars}",
                    spec.name
                ),
            ))));
        }
        // Two fact subsets must compile to two fact bases, one arena
        // state each.
        let mut distinct = BTreeSet::new();
        if let Some(twice) = spec.facts.iter().find(|f| !distinct.insert(*f)) {
            return Err(SymbolicOutcome::Definitive(Err(CheckError::Unsupported(
                format!("symbolic universe of `{}` lists {twice} twice", spec.name),
            ))));
        }
        let summaries: Vec<OpSummary> = spec.ops.iter().map(|op| summarize(&op.steps)).collect();
        let mut known: BTreeSet<u128> = BTreeSet::new();
        known.insert(0);
        let mut complete = false;
        for depth in 1..=self.bound {
            let mut solver = Solver::new();
            let enc = encode_path(
                &mut solver,
                &summaries,
                &spec.constraints,
                nvars,
                depth,
                false,
            );
            for &st in &known {
                block_state(&mut solver, &enc.state[depth], st);
            }
            let mut new_states = 0usize;
            loop {
                match solver.solve() {
                    SatResult::Unsat => break,
                    SatResult::Sat => {
                        let st = read_state(&solver, &enc.state[depth]);
                        if known.len() >= self.state_cap {
                            self.record_solver(&solver);
                            return Err(SymbolicOutcome::Definitive(Err(CheckError::Closure(
                                ClosureTooLarge {
                                    model: spec.name.clone(),
                                    cap: self.state_cap,
                                },
                            ))));
                        }
                        let fresh = known.insert(st);
                        debug_assert!(fresh, "blocked states cannot reappear");
                        new_states += 1;
                        block_state(&mut solver, &enc.state[depth], st);
                    }
                }
            }
            self.record_solver(&solver);
            if new_states == 0 {
                complete = true;
                break;
            }
        }
        if !complete {
            return Err(SymbolicOutcome::BoundExhausted {
                bound: self.bound,
                states_found: known.len(),
            });
        }
        let states: Vec<u128> = known.into_iter().collect();
        let mut arena = StateArena::new();
        for &bits in &states {
            let facts = spec.fact_base(bits);
            arena.intern(facts.fingerprint(), facts);
        }
        let transitions = states
            .iter()
            .map(|&st| {
                summaries
                    .iter()
                    .map(|sum| {
                        apply_summary(sum, st, &spec.constraints).map(|next| {
                            StateId::from_index(
                                states
                                    .binary_search(&next)
                                    .expect("closure is closed under successful operations"),
                            )
                        })
                    })
                    .collect()
            })
            .collect();
        Ok(Closure { arena, transitions })
    }

    /// Records one solver's cumulative work into the observer: the
    /// global counters, plus one observation per per-depth probe
    /// histogram. Each depth layer runs a fresh solver, so one call per
    /// retired solver makes the histograms a per-layer budget profile —
    /// a `BoundExhausted` verdict ships with where the budget went.
    fn record_solver(&self, solver: &Solver) {
        let stats = solver.stats();
        self.observer.add(Counter::SymbolicClauses, stats.clauses);
        self.observer
            .add(Counter::SymbolicConflicts, stats.conflicts);
        self.observer.add(Counter::SymbolicRestarts, stats.restarts);
        self.observer
            .record(Metric::SymbolicDecisionsPerDepth, stats.decisions);
        self.observer
            .record(Metric::SymbolicConflictsPerDepth, stats.conflicts);
        self.observer
            .record(Metric::SymbolicClausesPerDepth, stats.clauses);
        self.observer
            .record(Metric::SymbolicRestartsPerDepth, stats.restarts);
    }

    /// Find mode: searches, within the bound, for a Definition 2
    /// counterexample — an operation that behaves differently from
    /// *every* opposite-side operation at some state reachable on both
    /// sides. One SAT query per operation pair (same-index twins are
    /// probed first, so matching twins cost a single UNSAT query), no
    /// closure enumeration at all.
    ///
    /// `Ok(None)` is **inconclusive**: no witness exists within the
    /// bound, which proves nothing about equivalence. Only defined for
    /// [`SymbolicChecker::new`] pairs.
    pub fn find_counterexample(&self) -> Result<Option<FoundCounterexample>, CheckError> {
        let (m, n) = match self.target {
            SymTarget::Pair(m, n) => (m, n),
            SymTarget::Sets(..) => {
                return Err(CheckError::Unsupported(
                    "find_counterexample compares a single model pair; use run() for \
                     data-model sets"
                        .into(),
                ))
            }
        };
        let _span = self.observer.span("symbolic/find");
        let (joint_facts, m_map, n_map) = joint_universe(m, n);
        if joint_facts.len() > 128 {
            return Err(CheckError::Unsupported(format!(
                "symbolic tier supports at most 128 joint facts; `{}` vs `{}` has {}",
                m.name,
                n.name,
                joint_facts.len()
            )));
        }
        let mctx = JointCtx::build(m, &m_map);
        let nctx = JointCtx::build(n, &n_map);
        let nvars = joint_facts.len();
        for idx in 0..m.ops.len().max(n.ops.len()) {
            for side in [Side::Left, Side::Right] {
                let (probe_ops, against_ops) = match side {
                    Side::Left => (m.ops.len(), n.ops.len()),
                    Side::Right => (n.ops.len(), m.ops.len()),
                };
                if idx >= probe_ops {
                    continue;
                }
                // Twin first: an unmutated operation is dismissed by
                // one UNSAT query against its same-index counterpart.
                let mut order: Vec<usize> = Vec::with_capacity(against_ops);
                if idx < against_ops {
                    order.push(idx);
                }
                order.extend((0..against_ops).filter(|&j| j != idx));
                let mut traces = Vec::with_capacity(against_ops);
                let mut matched = false;
                for j in order {
                    match self.differ_query(&mctx, &nctx, nvars, side, idx, j) {
                        None => {
                            matched = true;
                            break;
                        }
                        Some((path_m, path_n)) => traces.push(DifferTrace {
                            path_m,
                            path_n,
                            vs_op: j,
                        }),
                    }
                }
                if !matched {
                    let label = match side {
                        Side::Left => m.ops[idx].label.clone(),
                        Side::Right => n.ops[idx].label.clone(),
                    };
                    self.observer.add(Counter::WitnessesFound, 1);
                    return Ok(Some(FoundCounterexample {
                        side,
                        op_index: idx,
                        label,
                        traces,
                    }));
                }
            }
        }
        Ok(None)
    }

    /// One differ query: is there a state reachable on both sides
    /// (within the bound) where the probed operation and opposite
    /// operation `j` disagree — one succeeds and the other errors, or
    /// both succeed with different results? Returns the reaching paths.
    fn differ_query(
        &self,
        mctx: &JointCtx,
        nctx: &JointCtx,
        nvars: usize,
        probe_side: Side,
        probe: usize,
        j: usize,
    ) -> Option<(Vec<usize>, Vec<usize>)> {
        let mut s = Solver::new();
        let pm = encode_path(
            &mut s,
            &mctx.summaries,
            &mctx.constraints,
            nvars,
            self.bound,
            true,
        );
        let pn = encode_path(
            &mut s,
            &nctx.summaries,
            &nctx.constraints,
            nvars,
            self.bound,
            true,
        );
        // The two paths meet: final states equal, fact by fact.
        for v in 0..nvars {
            s.add_clause(&[pm.state[self.bound][v].negate(), pn.state[self.bound][v]]);
            s.add_clause(&[pm.state[self.bound][v], pn.state[self.bound][v].negate()]);
        }
        // Everything below reads the *left* path's final state; the
        // equality clauses make it the shared state.
        let shared = &pm.state[self.bound];
        let (a_sum, a_cons, b_sum, b_cons) = match probe_side {
            Side::Left => (
                &mctx.summaries[probe],
                &mctx.constraints,
                &nctx.summaries[j],
                &nctx.constraints,
            ),
            Side::Right => (
                &nctx.summaries[probe],
                &nctx.constraints,
                &mctx.summaries[j],
                &mctx.constraints,
            ),
        };
        let sa = success_bit(&mut s, a_sum, shared, a_cons);
        let sb = success_bit(&mut s, b_sum, shared, b_cons);
        let ra = result_bits(a_sum, shared);
        let rb = result_bits(b_sum, shared);
        let mut differ_clause = vec![sa.not(), sb.not()];
        for v in 0..nvars {
            differ_clause.push(xor_bit(&mut s, ra[v], rb[v]));
        }
        // differ ≡ (sa ∨ sb) ∧ (¬sa ∨ ¬sb ∨ results differ).
        let consistent = assert_any(&mut s, &[sa, sb]) && assert_any(&mut s, &differ_clause);
        if !consistent {
            self.record_solver(&s);
            return None;
        }
        let outcome = s.solve();
        self.record_solver(&s);
        match outcome {
            SatResult::Unsat => None,
            SatResult::Sat => Some((extract_path(&s, &pm), extract_path(&s, &pn))),
        }
    }
}

/// One spec's operation summaries and constraints remapped into a
/// joint pair universe (for find mode).
struct JointCtx {
    summaries: Vec<OpSummary>,
    constraints: Vec<SymbolicConstraint>,
}

impl JointCtx {
    fn build(spec: &SymbolicSpec, map: &[usize]) -> JointCtx {
        let summaries = spec
            .ops
            .iter()
            .map(|op| {
                let steps: Vec<(bool, usize)> =
                    op.steps.iter().map(|&(add, v)| (add, map[v])).collect();
                summarize(&steps)
            })
            .collect();
        let constraints = spec
            .constraints
            .iter()
            .map(|c| match c {
                SymbolicConstraint::AtMost { vars, cap } => SymbolicConstraint::AtMost {
                    vars: vars.iter().map(|&v| map[v]).collect(),
                    cap: *cap,
                },
                SymbolicConstraint::Excludes { a, b } => SymbolicConstraint::Excludes {
                    a: map[*a],
                    b: map[*b],
                },
                SymbolicConstraint::Requires { a, b } => SymbolicConstraint::Requires {
                    a: map[*a],
                    b: map[*b],
                },
            })
            .collect();
        JointCtx {
            summaries,
            constraints,
        }
    }
}

/// The union universe of a model pair, with each side's fact-index map
/// into it (left facts first, then right facts not already present).
fn joint_universe(m: &SymbolicSpec, n: &SymbolicSpec) -> (Vec<Fact>, Vec<usize>, Vec<usize>) {
    let mut joint: Vec<Fact> = m.facts.clone();
    let m_map: Vec<usize> = (0..m.facts.len()).collect();
    let n_map: Vec<usize> = n
        .facts
        .iter()
        .map(|f| match joint.iter().position(|g| g == f) {
            Some(i) => i,
            None => {
                joint.push(f.clone());
                joint.len() - 1
            }
        })
        .collect();
    (joint, m_map, n_map)
}

/// Reads one path's operation sequence from a model, dropping stutter
/// steps.
fn extract_path(s: &Solver, enc: &encode::PathEnc) -> Vec<usize> {
    let mut path = Vec::new();
    for sel in &enc.sel {
        let chosen = sel
            .iter()
            .position(|l| s.value(l.var()))
            .expect("exactly-one selector per step");
        if Some(chosen) != enc.stutter {
            path.push(chosen);
        }
    }
    path
}

/// A spec's witness labels, in operation order.
fn labels(spec: &SymbolicSpec) -> Vec<String> {
    spec.ops.iter().map(|op| op.label.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_value::Atom;

    fn f(n: i64) -> Fact {
        Fact::new("p", [("x", Atom::Int(n))])
    }

    #[test]
    fn identical_toggle_specs_are_equivalent_at_every_tier() {
        let m = SymbolicSpec::toggles("m", vec![f(1), f(2)]);
        let n = SymbolicSpec::toggles("n", vec![f(1), f(2)]);
        for tier in [
            Tier::Operation,
            Tier::Isomorphic,
            Tier::Composed { max_depth: 2 },
            Tier::StateDependent { max_depth: 2 },
        ] {
            let outcome = SymbolicChecker::new(&m, &n).tier(tier).run();
            assert_eq!(
                outcome.definitive().unwrap().as_ref().unwrap(),
                &Verdict::Equivalent { state_pairs: 4 },
                "{tier:?}"
            );
        }
    }

    #[test]
    fn dropped_op_yields_the_enumerative_witness() {
        let m = SymbolicSpec::toggles("m", vec![f(1)]);
        let mut n = SymbolicSpec::toggles("n", vec![f(1)]);
        let dropped = n.ops.remove(1); // "-p(x: 1)"-style delete label
        let outcome = SymbolicChecker::new(&m, &n).run();
        match outcome.definitive().unwrap().as_ref().unwrap() {
            Verdict::Counterexample {
                state_pairs,
                witnesses,
            } => {
                assert_eq!(*state_pairs, 2);
                assert_eq!(witnesses.len(), 1);
                assert_eq!(witnesses[0].side, Side::Left);
                assert_eq!(witnesses[0].label, dropped.label);
            }
            v => panic!("expected counterexample, got {v:?}"),
        }
    }

    #[test]
    fn pairing_failure_matches_the_enumerative_message() {
        let m = SymbolicSpec::toggles("m", vec![f(1)]);
        let n = SymbolicSpec::toggles("n", vec![f(2)]);
        let outcome = SymbolicChecker::new(&m, &n).run();
        let err = outcome.definitive().unwrap().as_ref().unwrap_err();
        assert_eq!(
            err,
            &CheckError::Pairing(
                "state sets are not onto: 1 application states expressible only on the left, \
                 1 only on the right"
                    .into()
            )
        );
    }

    #[test]
    fn state_cap_errors_like_the_enumerative_closure() {
        let m = SymbolicSpec::toggles("m", vec![f(1), f(2), f(3)]);
        let n = SymbolicSpec::toggles("n", vec![f(1), f(2), f(3)]);
        let outcome = SymbolicChecker::new(&m, &n).state_cap(3).run();
        let err = outcome.definitive().unwrap().as_ref().unwrap_err();
        assert_eq!(
            err,
            &CheckError::Closure(ClosureTooLarge {
                model: "m".into(),
                cap: 3
            })
        );
    }

    #[test]
    fn exhausted_bound_is_no_verdict() {
        let m = SymbolicSpec::toggles("m", vec![f(1), f(2), f(3)]);
        let n = SymbolicSpec::toggles("n", vec![f(1), f(2), f(3)]);
        // Closure diameter is 3; bound 2 cannot certify the fixpoint.
        let outcome = SymbolicChecker::new(&m, &n).bound(2).run();
        assert_eq!(
            outcome,
            SymbolicOutcome::BoundExhausted {
                bound: 2,
                states_found: 7
            }
        );
        assert!(outcome.definitive().is_none());
    }

    #[test]
    fn constraints_prune_discovery() {
        let mut m = SymbolicSpec::toggles("m", vec![f(1), f(2)]);
        m.constraints
            .push(SymbolicConstraint::Excludes { a: 0, b: 1 });
        let mut n = SymbolicSpec::toggles("n", vec![f(1), f(2)]);
        n.constraints
            .push(SymbolicConstraint::Excludes { a: 0, b: 1 });
        let outcome = SymbolicChecker::new(&m, &n).run();
        assert_eq!(
            outcome.definitive().unwrap().as_ref().unwrap(),
            &Verdict::Equivalent { state_pairs: 3 },
            "excludes prunes the both-facts state"
        );
    }

    #[test]
    fn find_mode_locates_a_mutated_op_and_traces_replay() {
        let m = SymbolicSpec::toggles("m", vec![f(1), f(2)]);
        let mut n = SymbolicSpec::toggles("n", vec![f(1), f(2)]);
        // Break one delete op: deleting f(9) (never insertable) always
        // errors, like a RenameBinding mutation on a delete step.
        n.facts.push(f(9));
        let broken = n
            .ops
            .iter()
            .position(|op| !op.steps[0].0)
            .expect("toggle spec has delete ops");
        n.ops[broken].steps = vec![(false, 2)];
        n.ops[broken].label = format!("-{}", f(9));
        let found = SymbolicChecker::new(&m, &n)
            .bound(2)
            .find_counterexample()
            .unwrap()
            .expect("mutation must be found");
        // Both the broken right op and its orphaned left twin are
        // detectable; the probe order finds one of them.
        assert!(!found.traces.is_empty());
        for trace in &found.traces {
            let at_m = m.replay(&trace.path_m).expect("left path must replay");
            let at_n = n.replay(&trace.path_n).expect("right path must replay");
            assert_eq!(at_m, at_n, "paths must meet at the same fact base");
        }
        let witness = found.to_witness();
        assert_eq!(witness.side, found.side);
    }

    #[test]
    fn find_mode_is_quiet_on_equivalent_specs() {
        let m = SymbolicSpec::toggles("m", vec![f(1), f(2)]);
        let n = SymbolicSpec::toggles("n", vec![f(1), f(2)]);
        let found = SymbolicChecker::new(&m, &n)
            .bound(2)
            .find_counterexample()
            .unwrap();
        assert_eq!(found, None);
    }

    #[test]
    fn replay_rejects_invalid_paths() {
        let m = SymbolicSpec::toggles("m", vec![f(1)]);
        let ins = m.ops.iter().position(|op| op.steps[0].0).unwrap();
        let del = 1 - ins;
        assert!(m.replay(&[ins, del]).is_some());
        assert!(m.replay(&[del]).is_none(), "deleting from empty errors");
        assert!(m.replay(&[ins, ins]).is_none(), "double insert errors");
        let past_end = m.ops.len();
        assert!(m.replay(&[ins, past_end]).is_none(), "no such operation");
        assert!(m.apply_op(past_end, &FactBase::default()).is_none());
    }

    #[test]
    fn joint_universe_beyond_128_facts_gets_the_engine_verdict() {
        // Each side fits the 128-fact encoding; together they hold 201
        // facts, which decide mode never packs into one word.
        let padded = |name: &str, base: i64| {
            let mut spec = SymbolicSpec::toggles(name, vec![f(1)]);
            spec.facts.extend((0..100).map(|i| f(base + i)));
            spec
        };
        let m = padded("m", 1_000);
        let n = padded("n", 2_000);
        let outcome = SymbolicChecker::new(&m, &n).run();
        assert_eq!(
            outcome.definitive().unwrap().as_ref().unwrap(),
            &Verdict::Equivalent { state_pairs: 2 }
        );
    }

    #[test]
    fn a_fact_listed_twice_is_unsupported() {
        let mut m = SymbolicSpec::toggles("m", vec![f(1)]);
        m.facts.push(f(1));
        let outcome = SymbolicChecker::new(&m, &m).run();
        assert!(matches!(
            outcome.definitive().unwrap().as_ref().unwrap_err(),
            CheckError::Unsupported(_)
        ));
    }

    #[test]
    fn grid_tier_replicates_definition_6() {
        let a = SymbolicSpec::toggles("a", vec![f(1)]);
        let b = SymbolicSpec::toggles("b", vec![f(1)]);
        let lone = SymbolicSpec::toggles("lone", vec![f(1), f(2)]);
        let ms = vec![a.clone(), lone.clone()];
        let ns = vec![b.clone()];
        let outcome = SymbolicChecker::data_models(&ms, &ns).run();
        match outcome.definitive().unwrap().as_ref().unwrap() {
            Verdict::Counterexample {
                state_pairs,
                witnesses,
            } => {
                assert_eq!(*state_pairs, 2, "2x1 grid");
                assert_eq!(witnesses.len(), 1);
                assert_eq!(witnesses[0].label, "lone");
                assert_eq!(witnesses[0].side, Side::Left);
            }
            v => panic!("expected partial equivalence, got {v:?}"),
        }
        let total = SymbolicChecker::data_models(&ms[..1], &ns).run();
        assert_eq!(
            total.definitive().unwrap().as_ref().unwrap(),
            &Verdict::Equivalent { state_pairs: 1 }
        );
    }

    #[test]
    fn operation_tier_rejects_sets() {
        let ms = vec![SymbolicSpec::toggles("m", vec![f(1)])];
        let ns = vec![SymbolicSpec::toggles("n", vec![f(1)])];
        let outcome = SymbolicChecker::data_models(&ms, &ns)
            .tier(Tier::Operation)
            .run();
        assert!(matches!(
            outcome.definitive().unwrap().as_ref().unwrap_err(),
            CheckError::Unsupported(_)
        ));
    }

    #[test]
    fn observer_sees_symbolic_counters() {
        use dme_obs::RingSink;
        let m = SymbolicSpec::toggles("m", vec![f(1), f(2)]);
        let n = SymbolicSpec::toggles("n", vec![f(1), f(2)]);
        let obs = Observer::new(RingSink::with_capacity(16));
        let outcome = SymbolicChecker::new(&m, &n).observer(obs.clone()).run();
        assert!(outcome.definitive().is_some());
        assert!(obs.counter(Counter::SymbolicClauses) > 0);
        assert_eq!(obs.counter(Counter::BoundExhausted), 0);
        // The verdict stage is the engine's: its phases report too.
        assert!(obs.counter(Counter::PairingChecks) > 0);
        assert!(obs.counter(Counter::SignaturesBuilt) > 0);
        let bounded = SymbolicChecker::new(&m, &n)
            .bound(1)
            .observer(obs.clone())
            .run();
        assert!(bounded.is_bound_exhausted());
        assert_eq!(obs.counter(Counter::BoundExhausted), 1);
    }

    #[test]
    fn per_depth_probes_profile_the_budget() {
        use dme_obs::RingSink;
        let facts = vec![f(1), f(2), f(3)];
        let m = SymbolicSpec::toggles("m", facts.clone());
        let n = SymbolicSpec::toggles("n", facts);
        let obs = Observer::new(RingSink::with_capacity(16));
        let outcome = SymbolicChecker::new(&m, &n).observer(obs.clone()).run();
        assert!(outcome.definitive().is_some());
        // One observation lands per retired depth solver, so the probe
        // histograms carry the per-layer budget profile.
        let decisions = obs.histogram(Metric::SymbolicDecisionsPerDepth);
        let clauses = obs.histogram(Metric::SymbolicClausesPerDepth);
        assert!(decisions.count > 0, "at least one depth layer profiled");
        assert_eq!(
            decisions.count,
            obs.histogram(Metric::SymbolicConflictsPerDepth).count,
            "every probe records the same layers"
        );
        assert_eq!(decisions.count, clauses.count);
        assert!(clauses.sum > 0, "each layer holds encoded clauses");
        // Counters agree with the histogram totals they aggregate.
        assert_eq!(obs.counter(Counter::SymbolicClauses), clauses.sum);
        assert_eq!(
            obs.counter(Counter::SymbolicRestarts),
            obs.histogram(Metric::SymbolicRestartsPerDepth).sum
        );
    }
}
