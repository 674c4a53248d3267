//! CNF compilation for the symbolic tier.
//!
//! A [`super::SymbolicSpec`] is a fact-toggle universe: states are
//! subsets of a finite fact list and operations are strict step
//! sequences over it. This module compiles that world into CNF in the
//! `bound_size` style of the VeriEQL line of work:
//!
//! - **operation summaries** — a strict step sequence collapses into a
//!   precondition/postcondition pair over the touched facts (or is
//!   statically infeasible when a fact is stepped twice the same way);
//! - **path unrolling** — `x[t][v]` variables per time step and fact,
//!   one-hot operation selectors per step, implication clauses for each
//!   summary's pre/post and a frame axiom for untouched facts;
//! - **constraint clauses** — `Excludes`/`Requires` as binary clauses
//!   and `AtMost` via the Sinz sequential-counter encoding, asserted on
//!   every post-operation state of the path;
//! - **three-valued bits** — [`Bit`] values (`Const` or a literal) let
//!   operation *results* be substituted into constraints and compared
//!   across models without full Tseitin expansion: a result bit is
//!   either a constant (touched fact) or the final-state literal
//!   (framed fact).

use super::sat::{Lit, Solver};
use super::SymbolicConstraint;

/// A strict step sequence collapsed to its net effect. `pre` lists the
/// fact values required for every step to succeed; `post` the values
/// after the last step; `infeasible` marks sequences that step the same
/// fact twice in the same direction (they error from every state).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct OpSummary {
    /// Required pre-state values, `(fact index, value)`.
    pub pre: Vec<(usize, bool)>,
    /// Post-state values of every touched fact, `(fact index, value)`.
    pub post: Vec<(usize, bool)>,
    /// Whether the sequence errors from every state.
    pub infeasible: bool,
}

impl OpSummary {
    pub(crate) fn touches(&self, v: usize) -> bool {
        self.post.iter().any(|&(pv, _)| pv == v)
    }
}

/// Collapses a step sequence (`(insert?, fact index)`) into an
/// [`OpSummary`]. Mirrors the strict apply-with-rollback semantics of
/// the scenario operations: an insert requires the fact absent, a
/// delete requires it present, and each step flips the tracked value
/// for later steps of the same operation.
pub(crate) fn summarize(steps: &[(bool, usize)]) -> OpSummary {
    let mut pre: Vec<(usize, bool)> = Vec::new();
    let mut current: Vec<(usize, bool)> = Vec::new();
    for &(add, v) in steps {
        // Insert requires absent, delete requires present.
        let required = !add;
        match current.iter_mut().find(|(cv, _)| *cv == v) {
            Some((_, val)) => {
                if *val != required {
                    return OpSummary {
                        pre: Vec::new(),
                        post: Vec::new(),
                        infeasible: true,
                    };
                }
                *val = add;
            }
            None => {
                pre.push((v, required));
                current.push((v, add));
            }
        }
    }
    OpSummary {
        pre,
        post: current,
        infeasible: false,
    }
}

/// Whether `c` holds in the concrete state `state` (bit `v` = fact `v`
/// present).
pub(crate) fn constraint_holds(c: &SymbolicConstraint, state: u128) -> bool {
    let bit = |v: usize| state >> v & 1 == 1;
    match c {
        SymbolicConstraint::AtMost { vars, cap } => {
            vars.iter().filter(|&&v| bit(v)).count() <= *cap
        }
        SymbolicConstraint::Excludes { a, b } => !(bit(*a) && bit(*b)),
        SymbolicConstraint::Requires { a, b } => !bit(*a) || bit(*b),
    }
}

/// Concretely applies a summarized operation: checks the precondition,
/// writes the postcondition, then requires every constraint on the
/// result — `None` is the error state, exactly the concrete engine's
/// application function.
pub(crate) fn apply_summary(
    sum: &OpSummary,
    state: u128,
    constraints: &[SymbolicConstraint],
) -> Option<u128> {
    if sum.infeasible {
        return None;
    }
    for &(v, want) in &sum.pre {
        if (state >> v & 1 == 1) != want {
            return None;
        }
    }
    let mut next = state;
    for &(v, val) in &sum.post {
        if val {
            next |= 1 << v;
        } else {
            next &= !(1 << v);
        }
    }
    constraints
        .iter()
        .all(|c| constraint_holds(c, next))
        .then_some(next)
}

/// A three-valued circuit bit: a known constant or a solver literal.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Bit {
    Const(bool),
    Is(Lit),
}

impl Bit {
    pub(crate) fn not(self) -> Bit {
        match self {
            Bit::Const(b) => Bit::Const(!b),
            Bit::Is(l) => Bit::Is(l.negate()),
        }
    }
}

/// Asserts the disjunction of `parts` as a clause. Returns `false` when
/// the disjunction is constantly false (the solver is poisoned with the
/// empty clause, so subsequent solves report UNSAT).
pub(crate) fn assert_any(s: &mut Solver, parts: &[Bit]) -> bool {
    let mut lits = Vec::with_capacity(parts.len());
    for &p in parts {
        match p {
            Bit::Const(true) => return true,
            Bit::Const(false) => {}
            Bit::Is(l) => lits.push(l),
        }
    }
    s.add_clause(&lits)
}

/// A fresh bit equivalent to the disjunction of `parts`.
pub(crate) fn or_bit(s: &mut Solver, parts: &[Bit]) -> Bit {
    let mut lits = Vec::with_capacity(parts.len());
    for &p in parts {
        match p {
            Bit::Const(true) => return Bit::Const(true),
            Bit::Const(false) => {}
            Bit::Is(l) => lits.push(l),
        }
    }
    match lits.len() {
        0 => Bit::Const(false),
        1 => Bit::Is(lits[0]),
        _ => {
            let h = Lit::pos(s.new_var());
            let mut clause = vec![h.negate()];
            clause.extend_from_slice(&lits);
            s.add_clause(&clause);
            for l in lits {
                s.add_clause(&[l.negate(), h]);
            }
            Bit::Is(h)
        }
    }
}

/// A bit equivalent to `a ⊕ b`.
pub(crate) fn xor_bit(s: &mut Solver, a: Bit, b: Bit) -> Bit {
    match (a, b) {
        (Bit::Const(x), Bit::Const(y)) => Bit::Const(x != y),
        (Bit::Const(false), bit) | (bit, Bit::Const(false)) => bit,
        (Bit::Const(true), bit) | (bit, Bit::Const(true)) => bit.not(),
        (Bit::Is(l1), Bit::Is(l2)) => {
            if l1 == l2 {
                return Bit::Const(false);
            }
            if l1 == l2.negate() {
                return Bit::Const(true);
            }
            let h = Lit::pos(s.new_var());
            s.add_clause(&[h.negate(), l1, l2]);
            s.add_clause(&[h.negate(), l1.negate(), l2.negate()]);
            s.add_clause(&[h, l1, l2.negate()]);
            s.add_clause(&[h, l1.negate(), l2]);
            Bit::Is(h)
        }
    }
}

/// Exactly one of `lits` is true: an at-least-one clause plus pairwise
/// at-most-one (the selector lists here are small enough that the
/// quadratic encoding is fine).
fn exactly_one(s: &mut Solver, lits: &[Lit]) {
    s.add_clause(lits);
    for i in 0..lits.len() {
        for j in (i + 1)..lits.len() {
            s.add_clause(&[lits[i].negate(), lits[j].negate()]);
        }
    }
}

/// Sinz sequential-counter encoding of "at most `k` of `lits`". When
/// `act` is given, it is prepended to every emitted clause, so the
/// constraint only binds when `act`'s clause-satisfying value is ruled
/// out (pass `h.negate()` to encode `h → AtMost`).
pub(crate) fn at_most(s: &mut Solver, lits: &[Lit], k: usize, act: Option<Lit>) {
    fn emit(s: &mut Solver, act: Option<Lit>, body: &[Lit]) {
        let mut c = Vec::with_capacity(body.len() + 1);
        if let Some(a) = act {
            c.push(a);
        }
        c.extend_from_slice(body);
        s.add_clause(&c);
    }
    let n = lits.len();
    if n <= k {
        return;
    }
    if k == 0 {
        for &l in lits {
            emit(s, act, &[l.negate()]);
        }
        return;
    }
    // r[i][j]: at least j+1 true among lits[0..=i], for i in 0..n-1.
    let r: Vec<Vec<Lit>> = (0..n - 1)
        .map(|_| (0..k).map(|_| Lit::pos(s.new_var())).collect())
        .collect();
    emit(s, act, &[lits[0].negate(), r[0][0]]);
    for rj in r[0].iter().skip(1) {
        emit(s, act, &[rj.negate()]);
    }
    for i in 1..n - 1 {
        emit(s, act, &[lits[i].negate(), r[i][0]]);
        emit(s, act, &[r[i - 1][0].negate(), r[i][0]]);
        for j in 1..k {
            emit(
                s,
                act,
                &[lits[i].negate(), r[i - 1][j - 1].negate(), r[i][j]],
            );
            emit(s, act, &[r[i - 1][j].negate(), r[i][j]]);
        }
        emit(s, act, &[lits[i].negate(), r[i - 1][k - 1].negate()]);
    }
    emit(s, act, &[lits[n - 1].negate(), r[n - 2][k - 1].negate()]);
}

/// "At least `k` of `lits`", by duality (`act` as in [`at_most`]).
pub(crate) fn at_least(s: &mut Solver, lits: &[Lit], k: usize, act: Option<Lit>) {
    if k == 0 {
        return;
    }
    if k > lits.len() {
        // Impossible: the activation literal itself must hold.
        let clause: Vec<Lit> = act.into_iter().collect();
        s.add_clause(&clause);
        return;
    }
    if k == 1 {
        let mut clause: Vec<Lit> = act.into_iter().collect();
        clause.extend_from_slice(lits);
        s.add_clause(&clause);
        return;
    }
    let negated: Vec<Lit> = lits.iter().map(|l| l.negate()).collect();
    at_most(s, &negated, lits.len() - k, act);
}

/// Asserts `c` over a concrete vector of state literals.
pub(crate) fn assert_constraint(s: &mut Solver, c: &SymbolicConstraint, state: &[Lit]) {
    match c {
        SymbolicConstraint::AtMost { vars, cap } => {
            let lits: Vec<Lit> = vars.iter().map(|&v| state[v]).collect();
            at_most(s, &lits, *cap, None);
        }
        SymbolicConstraint::Excludes { a, b } => {
            s.add_clause(&[state[*a].negate(), state[*b].negate()]);
        }
        SymbolicConstraint::Requires { a, b } => {
            s.add_clause(&[state[*a].negate(), state[*b]]);
        }
    }
}

/// A bit equivalent to "`c` holds", where the state is a vector of
/// [`Bit`]s (an operation result with touched facts substituted as
/// constants).
pub(crate) fn constraint_bit(s: &mut Solver, c: &SymbolicConstraint, state: &[Bit]) -> Bit {
    match c {
        SymbolicConstraint::Excludes { a, b } => or_bit(s, &[state[*a].not(), state[*b].not()]),
        SymbolicConstraint::Requires { a, b } => or_bit(s, &[state[*a].not(), state[*b]]),
        SymbolicConstraint::AtMost { vars, cap } => {
            let mut fixed_true = 0usize;
            let mut lits = Vec::new();
            for &v in vars {
                match state[v] {
                    Bit::Const(true) => fixed_true += 1,
                    Bit::Const(false) => {}
                    Bit::Is(l) => lits.push(l),
                }
            }
            if fixed_true > *cap {
                return Bit::Const(false);
            }
            let rem = cap - fixed_true;
            if lits.len() <= rem {
                return Bit::Const(true);
            }
            let h = Lit::pos(s.new_var());
            at_most(s, &lits, rem, Some(h.negate()));
            at_least(s, &lits, rem + 1, Some(h));
            Bit::Is(h)
        }
    }
}

/// A bit equivalent to "this operation succeeds from the state given by
/// `state` literals": the precondition holds and every constraint holds
/// on the result. `Const(false)` for infeasible operations.
pub(crate) fn success_bit(
    s: &mut Solver,
    sum: &OpSummary,
    state: &[Lit],
    constraints: &[SymbolicConstraint],
) -> Bit {
    if sum.infeasible {
        return Bit::Const(false);
    }
    let result = result_bits(sum, state);
    let mut conds: Vec<Lit> = sum
        .pre
        .iter()
        .map(|&(v, want)| if want { state[v] } else { state[v].negate() })
        .collect();
    for c in constraints {
        match constraint_bit(s, c, &result) {
            Bit::Const(false) => return Bit::Const(false),
            Bit::Const(true) => {}
            Bit::Is(l) => conds.push(l),
        }
    }
    match conds.len() {
        0 => Bit::Const(true),
        1 => Bit::Is(conds[0]),
        _ => {
            let h = Lit::pos(s.new_var());
            let mut long = vec![h];
            for &l in &conds {
                s.add_clause(&[h.negate(), l]);
                long.push(l.negate());
            }
            s.add_clause(&long);
            Bit::Is(h)
        }
    }
}

/// The operation's result over `state` literals: touched facts become
/// constants, untouched facts pass the state literal through.
pub(crate) fn result_bits(sum: &OpSummary, state: &[Lit]) -> Vec<Bit> {
    (0..state.len())
        .map(|v| match sum.post.iter().find(|&&(pv, _)| pv == v) {
            Some(&(_, val)) => Bit::Const(val),
            None => Bit::Is(state[v]),
        })
        .collect()
}

/// One unrolled path: `state[t][v]` are the (positive) state literals
/// at time `t ∈ 0..=depth`, `sel[t]` the one-hot operation selectors
/// for the step from `t` to `t+1`, with the stutter selector last.
pub(crate) struct PathEnc {
    pub state: Vec<Vec<Lit>>,
    pub sel: Vec<Vec<Lit>>,
    /// Index of the stutter selector in each `sel[t]`.
    pub stutter: usize,
}

/// Unrolls one model's transition relation to `depth` steps: the
/// initial state is all-false (the empty fact base), each step selects
/// exactly one operation or the stutter, selected operations imply
/// their pre at `t`, post at `t+1` and frame on untouched facts, the
/// stutter frames every fact, and every post-step state satisfies the
/// constraints.
pub(crate) fn encode_path(
    s: &mut Solver,
    summaries: &[OpSummary],
    constraints: &[SymbolicConstraint],
    nvars: usize,
    depth: usize,
) -> PathEnc {
    let state: Vec<Vec<Lit>> = (0..=depth)
        .map(|_| (0..nvars).map(|_| Lit::pos(s.new_var())).collect())
        .collect();
    for l in &state[0] {
        s.add_clause(&[l.negate()]);
    }
    let stutter = summaries.len();
    let sel: Vec<Vec<Lit>> = (0..depth)
        .map(|_| (0..=stutter).map(|_| Lit::pos(s.new_var())).collect())
        .collect();
    for t in 0..depth {
        exactly_one(s, &sel[t]);
        for (o, sum) in summaries.iter().enumerate() {
            let so = sel[t][o];
            if sum.infeasible {
                s.add_clause(&[so.negate()]);
                continue;
            }
            for &(v, want) in &sum.pre {
                let l = if want {
                    state[t][v]
                } else {
                    state[t][v].negate()
                };
                s.add_clause(&[so.negate(), l]);
            }
            for &(v, val) in &sum.post {
                let l = if val {
                    state[t + 1][v]
                } else {
                    state[t + 1][v].negate()
                };
                s.add_clause(&[so.negate(), l]);
            }
            for v in (0..nvars).filter(|&v| !sum.touches(v)) {
                s.add_clause(&[so.negate(), state[t][v].negate(), state[t + 1][v]]);
                s.add_clause(&[so.negate(), state[t][v], state[t + 1][v].negate()]);
            }
        }
        let so = sel[t][stutter];
        for (cur, next) in state[t].iter().zip(&state[t + 1]) {
            s.add_clause(&[so.negate(), cur.negate(), *next]);
            s.add_clause(&[so.negate(), *cur, next.negate()]);
        }
        // Constraints hold on every state an operation produces. (The
        // initial empty state satisfies every constraint kind by
        // construction; stuttered states were already constrained when
        // first produced.)
        for c in constraints {
            assert_constraint(s, c, &state[t + 1]);
        }
    }
    PathEnc {
        state,
        sel,
        stutter,
    }
}

#[cfg(test)]
mod tests {
    use super::super::sat::SatResult;
    use super::*;

    #[test]
    fn summaries_capture_strict_step_semantics() {
        // Insert f0 then delete f0: pre = f0 absent, post = f0 absent.
        let sum = summarize(&[(true, 0), (false, 0)]);
        assert_eq!(sum.pre, vec![(0, false)]);
        assert_eq!(sum.post, vec![(0, false)]);
        assert!(!sum.infeasible);
        // Insert f0 twice: the second insert always fails.
        assert!(summarize(&[(true, 0), (true, 0)]).infeasible);
        // Composite insert f0, delete f1.
        let sum = summarize(&[(true, 0), (false, 1)]);
        assert_eq!(sum.pre, vec![(0, false), (1, true)]);
        assert_eq!(sum.post, vec![(0, true), (1, false)]);
    }

    #[test]
    fn apply_summary_matches_hand_simulation() {
        let ins = summarize(&[(true, 0)]);
        let del = summarize(&[(false, 0)]);
        assert_eq!(apply_summary(&ins, 0b0, &[]), Some(0b1));
        assert_eq!(apply_summary(&ins, 0b1, &[]), None);
        assert_eq!(apply_summary(&del, 0b1, &[]), Some(0b0));
        assert_eq!(apply_summary(&del, 0b0, &[]), None);
        // A constraint on the result turns success into error.
        let excl = SymbolicConstraint::Excludes { a: 0, b: 1 };
        assert_eq!(apply_summary(&ins, 0b10, std::slice::from_ref(&excl)), None);
        assert_eq!(
            apply_summary(&ins, 0b00, std::slice::from_ref(&excl)),
            Some(0b1)
        );
    }

    /// Oracle check: for every assignment of `n` plain variables, the
    /// encoded at-most/at-least agrees with counting.
    #[test]
    fn cardinality_encodings_match_counting() {
        for n in 1..=5usize {
            for k in 0..=n {
                for bits in 0u32..1 << n {
                    let count = bits.count_ones() as usize;
                    // AtMost.
                    let mut s = Solver::new();
                    let vars: Vec<usize> = (0..n).map(|_| s.new_var()).collect();
                    let lits: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
                    at_most(&mut s, &lits, k, None);
                    for (i, &v) in vars.iter().enumerate() {
                        s.add_clause(&[Lit::new(v, bits >> i & 1 == 1)]);
                    }
                    assert_eq!(
                        s.solve() == SatResult::Sat,
                        count <= k,
                        "at_most({n} vars, {k}) on {bits:b}"
                    );
                    // AtLeast.
                    let mut s = Solver::new();
                    let vars: Vec<usize> = (0..n).map(|_| s.new_var()).collect();
                    let lits: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
                    at_least(&mut s, &lits, k, None);
                    for (i, &v) in vars.iter().enumerate() {
                        s.add_clause(&[Lit::new(v, bits >> i & 1 == 1)]);
                    }
                    assert_eq!(
                        s.solve() == SatResult::Sat,
                        count >= k,
                        "at_least({n} vars, {k}) on {bits:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn path_encoding_reaches_exactly_the_states_within_its_depth() {
        // Two independent toggleable facts, insert/delete each: one step
        // (or a stutter) reaches the empty state and the two singletons,
        // never both facts at once.
        let summaries = vec![
            summarize(&[(true, 0)]),
            summarize(&[(false, 0)]),
            summarize(&[(true, 1)]),
            summarize(&[(false, 1)]),
        ];
        for (bits, reachable) in [(0b00, true), (0b01, true), (0b10, true), (0b11, false)] {
            let mut s = Solver::new();
            let enc = encode_path(&mut s, &summaries, &[], 2, 1);
            for (v, &l) in enc.state[1].iter().enumerate() {
                s.add_clause(&[Lit::new(l.var(), bits >> v & 1 == 1)]);
            }
            assert_eq!(s.solve() == SatResult::Sat, reachable, "state {bits:02b}");
        }
    }
}
