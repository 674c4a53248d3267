//! The symbolic tier: bounded counterexample search.
//!
//! Verdicts come from the enumerative engine behind [`crate::Checker`],
//! which discovers the closure of valid states once and decides
//! Definitions 1/2/3/5/6 over it, so its cost is Θ(states). This module
//! answers a narrower question without building that closure: within a
//! path bound, is there a Definition 2 counterexample? It compiles both
//! models into CNF — in the spirit of VeriEQL's `bound_size = 2` — and
//! asks a vendored CDCL core ([`sat`]) instead of walking states.
//!
//! [`SymbolicChecker::find_counterexample`] unrolls two parallel paths
//! of `bound` steps (with stutter steps, so shorter paths are included)
//! and constrains a state reachable on *both* sides where a probed
//! operation behaves differently from every operation of the other
//! model. That is one SAT query per operation pair, independent of
//! closure size: a mutated operation is refuted at bound 2 while the
//! enumerative engine walks 2^toggles states (the `symbolic_crossover`
//! bench row). A found counterexample replays concretely
//! ([`SymbolicSpec::replay`]) and means "not equivalent"; `Ok(None)` is
//! **inconclusive** — no witness within the bound proves nothing about
//! equivalence. A pair that needs a verdict goes to [`crate::Checker`]
//! in its `FiniteModel` form.
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

use std::collections::BTreeMap;

use dme_logic::{Fact, FactBase};
use dme_obs::{Counter, Metric, Observer};

use crate::equiv::CheckError;
use crate::parallel::{Side, Witness};

use encode::{
    apply_summary, assert_any, encode_path, result_bits, success_bit, summarize, xor_bit, OpSummary,
};
use sat::{SatResult, Solver};

/// Default path-length bound for [`SymbolicChecker`]: 12 operations per
/// side. A query's CNF grows linearly with the bound, and twelve steps
/// exceed the fact count of every corpus scenario (at most five
/// toggles, each set by one operation). Callers that know how deep a
/// divergence lies pass a tighter bound: the crossover fixtures use 2.
pub const DEFAULT_BOUND: usize = 12;

/// One operation of a [`SymbolicSpec`]: a strict sequence of
/// insert/delete steps over universe fact indices, with the display
/// label the enumerative engine reports as a witness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymbolicOp {
    /// Witness label; must equal the `Display` form of the concrete
    /// operation for a found witness to name the operation the
    /// enumerative engine reports.
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
    /// Model name, as reported in errors.
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

/// Bounded counterexample search over one model pair. See the module
/// docs for what an answer means.
pub struct SymbolicChecker<'a> {
    m: &'a SymbolicSpec,
    n: &'a SymbolicSpec,
    bound: usize,
    observer: Observer,
}

impl<'a> SymbolicChecker<'a> {
    /// A search over one model pair, with [`DEFAULT_BOUND`] and no
    /// observer.
    pub fn new(m: &'a SymbolicSpec, n: &'a SymbolicSpec) -> Self {
        SymbolicChecker {
            m,
            n,
            bound: DEFAULT_BOUND,
            observer: Observer::disabled(),
        }
    }

    /// Sets the path-length bound (default [`DEFAULT_BOUND`]): each
    /// side's path has exactly `bound` steps, with stutters, so every
    /// state within `bound` operations of the empty state is searched.
    pub fn bound(mut self, bound: usize) -> Self {
        self.bound = bound;
        self
    }

    /// Attaches an observer: clause, conflict and restart totals land
    /// in the `symbolic_*` counters, and every query adds one
    /// observation to each `symbolic_*_per_depth` histogram.
    pub fn observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Records one retired solver's work into the observer: the global
    /// counters, plus one observation per probe histogram. Every query
    /// runs a fresh solver, so the histograms profile the search query
    /// by query.
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

    /// Searches, within the bound, for a Definition 2 counterexample —
    /// an operation that behaves differently from *every* opposite-side
    /// operation at some state reachable on both sides. One SAT query
    /// per operation pair (same-index twins are probed first, so
    /// matching twins cost a single UNSAT query), no closure
    /// enumeration at all.
    ///
    /// `Ok(None)` is **inconclusive**: no witness exists within the
    /// bound, which proves nothing about equivalence.
    pub fn find_counterexample(&self) -> Result<Option<FoundCounterexample>, CheckError> {
        let (m, n) = (self.m, self.n);
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
        );
        let pn = encode_path(
            &mut s,
            &nctx.summaries,
            &nctx.constraints,
            nvars,
            self.bound,
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
        if chosen != enc.stutter {
            path.push(chosen);
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_value::Atom;

    fn f(n: i64) -> Fact {
        Fact::new("p", [("x", Atom::Int(n))])
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
    fn constraints_prune_the_searched_states() {
        // Without the constraint, `+p(x: 2)` differs at {p(x: 1)}, where
        // only the right side can take it; `Excludes` makes that step an
        // error on both sides.
        let mut m = SymbolicSpec::toggles("m", vec![f(1), f(2)]);
        m.constraints
            .push(SymbolicConstraint::Excludes { a: 0, b: 1 });
        let mut n = SymbolicSpec::toggles("n", vec![f(1), f(2)]);
        let unconstrained = SymbolicChecker::new(&m, &n).bound(2).find_counterexample();
        assert!(unconstrained.unwrap().is_some());
        n.constraints
            .push(SymbolicConstraint::Excludes { a: 0, b: 1 });
        let found = SymbolicChecker::new(&m, &n).bound(2).find_counterexample();
        assert_eq!(found.unwrap(), None);
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
    fn joint_universe_beyond_128_facts_is_unsupported() {
        // Each side fits the 128-fact encoding; together they hold 202
        // facts, which one joint query cannot pack into a word.
        let padded = |name: &str, base: i64| {
            let mut spec = SymbolicSpec::toggles(name, vec![f(1)]);
            spec.facts.extend((0..100).map(|i| f(base + i)));
            spec
        };
        let m = padded("m", 1_000);
        let n = padded("n", 2_000);
        assert!(matches!(
            SymbolicChecker::new(&m, &n).find_counterexample(),
            Err(CheckError::Unsupported(_))
        ));
    }
}
