//! A small hand-rolled CDCL SAT core for the symbolic tier.
//!
//! This is a deliberately compact conflict-driven solver — two watched
//! literals, first-UIP clause learning, activity-ordered decisions with
//! phase saving — vendored in the same spirit as the proptest/criterion
//! shims under `vendor/`: no registry access, no tuning knobs beyond
//! what the encoders in this module need. Clauses can be added between
//! `solve` calls (the solver backtracks to the root first); find mode
//! adds each query's clauses before its one solve.
//!
//! The instances produced by the `encode` module are tiny by SAT
//! standards (hundreds of variables, low tens of thousands of clauses),
//! so the core optimizes for being obviously correct over being fast:
//! the decision heuristic is a linear scan for the highest-activity
//! unassigned variable, and there is no clause-database reduction. A
//! geometric restart schedule (backtrack to the root after a growing
//! conflict threshold; saved phases keep the search direction) bounds
//! the damage of an early bad decision and is itself observable:
//! [`SolverStats::restarts`] feeds the per-query solver probes.

/// A propositional literal: variable index plus sign, packed as
/// `var << 1 | negated`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of variable `v`.
    pub fn pos(v: usize) -> Lit {
        Lit((v as u32) << 1)
    }

    /// The negative literal of variable `v`.
    pub fn neg(v: usize) -> Lit {
        Lit(((v as u32) << 1) | 1)
    }

    /// A literal of variable `v` with the given truth requirement:
    /// `new(v, true)` is satisfied when `v` is true.
    pub fn new(v: usize, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The variable this literal mentions.
    pub fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether this is the negative literal of its variable.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite literal of the same variable.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index for watch lists (`2 * var + negated`).
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment exists; read it with [`Solver::value`].
    Sat,
    /// The clause set is unsatisfiable.
    Unsat,
}

/// Cumulative work counters for one solver instance.
#[derive(Clone, Copy, Default, Debug)]
pub struct SolverStats {
    /// Clauses added (input and learned).
    pub clauses: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts taken (root-level backtracks after the conflict
    /// threshold, phases preserved).
    pub restarts: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Value {
    True,
    False,
    Unassigned,
}

/// `l`'s truth value under an assignment (free function so `propagate`
/// can read it while holding a mutable borrow on a clause).
fn lit_value_in(assign: &[Value], l: Lit) -> Value {
    match assign[l.var()] {
        Value::Unassigned => Value::Unassigned,
        Value::True => {
            if l.is_neg() {
                Value::False
            } else {
                Value::True
            }
        }
        Value::False => {
            if l.is_neg() {
                Value::True
            } else {
                Value::False
            }
        }
    }
}

struct Clause {
    lits: Vec<Lit>,
}

/// The CDCL solver. Variables are created with [`Solver::new_var`] and
/// clauses added with [`Solver::add_clause`]; clause addition is only
/// legal between `solve` calls (the solver backtracks to the root level
/// internally before accepting a clause).
pub struct Solver {
    clauses: Vec<Clause>,
    /// `watches[lit.index()]` lists clauses currently watching `lit`
    /// (i.e. `lit` sits at position 0 or 1 of their literal list); they
    /// must be revisited when `lit` becomes false.
    watches: Vec<Vec<u32>>,
    assign: Vec<Value>,
    /// Saved polarity from the last assignment, used as the decision
    /// phase (initially false, matching the all-empty initial state of
    /// the encodings, which keeps early models near the BFS frontier).
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    activity: Vec<f64>,
    var_inc: f64,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    seen: Vec<bool>,
    /// False once a top-level conflict proves the instance UNSAT; the
    /// clause set only ever grows, so this is permanent.
    ok: bool,
    /// Conflicts to absorb before the next restart; grows geometrically
    /// so the solver always terminates (learned clauses are never
    /// forgotten, so each restart resumes strictly wiser).
    restart_limit: u64,
    stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// An empty solver with zero variables.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            seen: Vec::new(),
            ok: true,
            restart_limit: 100,
            stats: SolverStats::default(),
        }
    }

    /// Allocates a fresh variable and returns its index.
    pub fn new_var(&mut self) -> usize {
        let v = self.assign.len();
        self.assign.push(Value::Unassigned);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    fn lit_value(&self, l: Lit) -> Value {
        lit_value_in(&self.assign, l)
    }

    /// The model value of variable `v` after a `Sat` result.
    pub fn value(&self, v: usize) -> bool {
        self.assign[v] == Value::True
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause (a disjunction of literals). Returns `false` if
    /// the clause makes the instance trivially unsatisfiable at the
    /// root level. Tautologies and duplicate literals are simplified
    /// away; literals already false at the root level are dropped.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        self.backtrack(0);
        self.stats.clauses += 1;
        let mut simplified: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            debug_assert!(l.var() < self.num_vars(), "literal beyond allocated vars");
            match self.lit_value(l) {
                Value::True => return true,
                Value::False => continue,
                Value::Unassigned => {
                    if simplified.contains(&l.negate()) {
                        return true;
                    }
                    if !simplified.contains(&l) {
                        simplified.push(l);
                    }
                }
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                if !self.enqueue(simplified[0], None) {
                    self.ok = false;
                    return false;
                }
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                let ci = self.clauses.len() as u32;
                self.watches[simplified[0].index()].push(ci);
                self.watches[simplified[1].index()].push(ci);
                self.clauses.push(Clause { lits: simplified });
                true
            }
        }
    }

    /// Assigns `l` true with the given reason clause. Returns `false`
    /// when `l` is already false (a conflict for the caller to handle).
    fn enqueue(&mut self, l: Lit, reason: Option<u32>) -> bool {
        match self.lit_value(l) {
            Value::False => false,
            Value::True => true,
            Value::Unassigned => {
                let v = l.var();
                self.assign[v] = if l.is_neg() {
                    Value::False
                } else {
                    Value::True
                };
                self.phase[v] = !l.is_neg();
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation over the watch lists. Returns the index of a
    /// conflicting clause, or `None` when a fixpoint is reached.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // `p` just became true, so the literal `¬p` is now false;
            // every clause watching `¬p` must find a new watch, become
            // unit, or conflict.
            let false_lit = p.negate();
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            while i < ws.len() {
                let ci = ws[i];
                // Split borrows: watch repair mutates the clause while
                // reading the assignment.
                let (first, moved_to) = {
                    let assign = &self.assign;
                    let clause = &mut self.clauses[ci as usize];
                    // Normalize so the falsified watch sits at position 1.
                    if clause.lits[0] == false_lit {
                        clause.lits.swap(0, 1);
                    }
                    debug_assert_eq!(clause.lits[1], false_lit);
                    let first = clause.lits[0];
                    if lit_value_in(assign, first) == Value::True {
                        i += 1;
                        continue;
                    }
                    // Look for an unfalsified literal to watch instead.
                    let mut moved_to = None;
                    for k in 2..clause.lits.len() {
                        if lit_value_in(assign, clause.lits[k]) != Value::False {
                            clause.lits.swap(1, k);
                            moved_to = Some(clause.lits[1]);
                            break;
                        }
                    }
                    (first, moved_to)
                };
                if let Some(new_watch) = moved_to {
                    self.watches[new_watch.index()].push(ci);
                    ws.swap_remove(i);
                    continue;
                }
                // Clause is unit on `first` (or conflicting).
                if !self.enqueue(first, Some(ci)) {
                    self.watches[false_lit.index()] = ws;
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                i += 1;
            }
            self.watches[false_lit.index()] = ws;
        }
        None
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns the learned clause (with
    /// the asserting literal at position 0) and the backjump level.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let current = self.decision_level();
        let mut learnt: Vec<Lit> = vec![Lit::pos(0)]; // placeholder for the asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = conflict;
        let mut trail_idx = self.trail.len();
        loop {
            let start = if p.is_some() { 1 } else { 0 };
            for k in start..self.clauses[confl as usize].lits.len() {
                let q = self.clauses[confl as usize].lits[k];
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var()] {
                    break;
                }
            }
            let pl = self.trail[trail_idx];
            self.seen[pl.var()] = false;
            p = Some(pl);
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = self.reason[pl.var()].expect("non-decision literal must have a reason");
        }
        learnt[0] = p.expect("conflict analysis always finds a UIP").negate();
        for &l in &learnt[1..] {
            self.seen[l.var()] = false;
        }
        let backjump = learnt[1..]
            .iter()
            .map(|l| self.level[l.var()])
            .max()
            .unwrap_or(0);
        (learnt, backjump)
    }

    fn backtrack(&mut self, target: u32) {
        while self.decision_level() > target {
            let lim = self.trail_lim.pop().expect("level > 0 implies a limit");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail shorter than its limit");
                self.assign[l.var()] = Value::Unassigned;
                self.reason[l.var()] = None;
            }
        }
        self.qhead = self.qhead.min(self.trail.len());
    }

    /// Installs a learned clause, watching the asserting literal and a
    /// literal from the backjump level, and enqueues the assertion.
    fn record_learnt(&mut self, mut learnt: Vec<Lit>, backjump: u32) {
        self.backtrack(backjump);
        if learnt.len() == 1 {
            let ok = self.enqueue(learnt[0], None);
            debug_assert!(ok, "asserting literal must be unassigned after backjump");
            return;
        }
        // Position 1 must hold a literal from the backjump level so the
        // watch invariant survives future backtracking.
        let mut best = 1;
        for k in 2..learnt.len() {
            if self.level[learnt[k].var()] > self.level[learnt[best].var()] {
                best = k;
            }
        }
        learnt.swap(1, best);
        let ci = self.clauses.len() as u32;
        self.stats.clauses += 1;
        self.watches[learnt[0].index()].push(ci);
        self.watches[learnt[1].index()].push(ci);
        let assert_lit = learnt[0];
        self.clauses.push(Clause { lits: learnt });
        let ok = self.enqueue(assert_lit, Some(ci));
        debug_assert!(ok, "asserting literal must be unassigned after backjump");
    }

    fn pick_branch_var(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for v in 0..self.num_vars() {
            if self.assign[v] == Value::Unassigned
                && best.is_none_or(|b| self.activity[v] > self.activity[b])
            {
                best = Some(v);
            }
        }
        best
    }

    /// Runs the CDCL loop to completion. May be called repeatedly; new
    /// clauses added between calls are honored.
    pub fn solve(&mut self) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        self.backtrack(0);
        let mut conflicts_since_restart = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let (learnt, backjump) = self.analyze(conflict);
                self.record_learnt(learnt, backjump);
                self.var_inc /= 0.95;
                conflicts_since_restart += 1;
                if conflicts_since_restart >= self.restart_limit && self.decision_level() > 0 {
                    self.stats.restarts += 1;
                    // Grow ×1.5 so restarts thin out as the search runs
                    // long; phase saving carries the direction across.
                    self.restart_limit += self.restart_limit / 2;
                    conflicts_since_restart = 0;
                    self.backtrack(0);
                }
            } else {
                let Some(v) = self.pick_branch_var() else {
                    return SatResult::Sat;
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let ok = self.enqueue(Lit::new(v, self.phase[v]), None);
                debug_assert!(ok, "decision variable was unassigned");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a DIMACS-style body: one clause per line, literals as
    /// signed 1-based integers, `0` terminators optional. Returns the
    /// variable count and the clauses.
    fn parse_dimacs(body: &str) -> (usize, Vec<Vec<i32>>) {
        let mut clauses = Vec::new();
        let mut max_var = 0usize;
        for line in body.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') || line.starts_with('p') {
                continue;
            }
            let mut clause = Vec::new();
            for tok in line.split_whitespace() {
                let n: i32 = tok.parse().expect("DIMACS literal");
                if n == 0 {
                    break;
                }
                max_var = max_var.max(n.unsigned_abs() as usize);
                clause.push(n);
            }
            if !clause.is_empty() {
                clauses.push(clause);
            }
        }
        (max_var, clauses)
    }

    fn solver_from(num_vars: usize, clauses: &[Vec<i32>]) -> Solver {
        let mut s = Solver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for clause in clauses {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&n| {
                    let v = n.unsigned_abs() as usize - 1;
                    Lit::new(v, n > 0)
                })
                .collect();
            s.add_clause(&lits);
        }
        s
    }

    /// Brute-force satisfiability over all assignments; the oracle for
    /// everything the CDCL core claims. Only usable for ≤ 20 variables.
    fn brute_force_sat(num_vars: usize, clauses: &[Vec<i32>]) -> bool {
        assert!(num_vars <= 20, "oracle is exponential");
        'outer: for bits in 0u32..(1u32 << num_vars) {
            for clause in clauses {
                let sat = clause.iter().any(|&n| {
                    let v = n.unsigned_abs() as usize - 1;
                    (bits >> v) & 1 == u32::from(n > 0)
                });
                if !sat {
                    continue 'outer;
                }
            }
            return true;
        }
        false
    }

    fn check_against_oracle(body: &str) {
        let (num_vars, clauses) = parse_dimacs(body);
        let mut s = solver_from(num_vars, &clauses);
        let got = s.solve();
        let want = if brute_force_sat(num_vars, &clauses) {
            SatResult::Sat
        } else {
            SatResult::Unsat
        };
        assert_eq!(got, want);
        if got == SatResult::Sat {
            // The model must actually satisfy every clause.
            for clause in &clauses {
                assert!(
                    clause.iter().any(|&n| {
                        let v = n.unsigned_abs() as usize - 1;
                        s.value(v) == (n > 0)
                    }),
                    "reported model violates clause {clause:?}"
                );
            }
        }
    }

    #[test]
    fn unit_propagation_chains_to_a_model() {
        // 1; ¬1∨2; ¬2∨3 — pure propagation, no decisions needed.
        let body = "1 0\n-1 2 0\n-2 3 0\n";
        let (n, clauses) = parse_dimacs(body);
        let mut s = solver_from(n, &clauses);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.value(0) && s.value(1) && s.value(2));
        assert_eq!(
            s.stats().decisions,
            0,
            "chain should resolve by propagation alone"
        );
    }

    #[test]
    fn unit_propagation_detects_root_conflict() {
        let body = "1 0\n-1 0\n";
        let (n, clauses) = parse_dimacs(body);
        let mut s = solver_from(n, &clauses);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn conflict_learning_instances_match_oracle() {
        // Micro-instances that force at least one conflict/learned
        // clause before resolution.
        let instances = [
            // XOR-ish chain: (1∨2)(¬1∨¬2)(2∨3)(¬2∨¬3)(3∨1)(¬3∨¬1) — UNSAT (odd cycle).
            "1 2 0\n-1 -2 0\n2 3 0\n-2 -3 0\n3 1 0\n-3 -1 0\n",
            // Same cycle minus one clause — SAT.
            "1 2 0\n-1 -2 0\n2 3 0\n-2 -3 0\n3 1 0\n",
            // Forces learning across two decision levels.
            "1 2 3 0\n1 2 -3 0\n1 -2 3 0\n1 -2 -3 0\n-1 2 3 0\n-1 2 -3 0\n-1 -2 3 0\n",
            // Fully contradictory over three variables — UNSAT.
            "1 2 3 0\n1 2 -3 0\n1 -2 3 0\n1 -2 -3 0\n-1 2 3 0\n-1 2 -3 0\n-1 -2 3 0\n-1 -2 -3 0\n",
        ];
        for body in instances {
            check_against_oracle(body);
        }
    }

    #[test]
    fn learning_is_exercised() {
        // The fully contradictory 3-variable instance cannot be solved
        // without conflicts.
        let body =
            "1 2 3 0\n1 2 -3 0\n1 -2 3 0\n1 -2 -3 0\n-1 2 3 0\n-1 2 -3 0\n-1 -2 3 0\n-1 -2 -3 0\n";
        let (n, clauses) = parse_dimacs(body);
        let mut s = solver_from(n, &clauses);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(
            s.stats().conflicts > 0,
            "UNSAT proof must analyze conflicts"
        );
    }

    /// Pigeonhole principle PHP(n): n+1 pigeons into n holes, UNSAT for
    /// every n. Exercises deep conflict learning.
    fn pigeonhole(n: usize) -> (usize, Vec<Vec<i32>>) {
        // Variable p_{i,j} (pigeon i in hole j) = i*n + j + 1.
        let var = |i: usize, j: usize| (i * n + j + 1) as i32;
        let mut clauses = Vec::new();
        for i in 0..=n {
            clauses.push((0..n).map(|j| var(i, j)).collect());
        }
        for j in 0..n {
            for i1 in 0..=n {
                for i2 in (i1 + 1)..=n {
                    clauses.push(vec![-var(i1, j), -var(i2, j)]);
                }
            }
        }
        ((n + 1) * n, clauses)
    }

    #[test]
    fn pigeonhole_is_unsat_up_to_n6() {
        for n in 1..=6 {
            let (num_vars, clauses) = pigeonhole(n);
            let mut s = solver_from(num_vars, &clauses);
            assert_eq!(s.solve(), SatResult::Unsat, "PHP({n}) must be UNSAT");
        }
    }

    #[test]
    fn restarts_fire_on_long_searches_and_preserve_answers() {
        // PHP(6) needs thousands of conflicts, so the geometric
        // schedule (first restart at 100) must fire — and the verdict
        // must be exactly what the restart-free search proved above.
        let (num_vars, clauses) = pigeonhole(6);
        let mut s = solver_from(num_vars, &clauses);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(
            s.stats().restarts > 0,
            "expected restarts after {} conflicts",
            s.stats().conflicts
        );
        assert!(s.stats().conflicts > s.stats().restarts);
        // Short searches never restart.
        let (n, clauses) = parse_dimacs("1 2 0\n-1 -2 0\n");
        let mut s = solver_from(n, &clauses);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.stats().restarts, 0);
    }

    #[test]
    fn random_instances_match_brute_force_oracle() {
        // Deterministic xorshift so the corpus is stable run to run.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200 {
            let num_vars = 3 + (next() % 15) as usize; // 3..=17 ≤ 20
            let num_clauses = 2 + (next() % (3 * num_vars as u64)) as usize;
            let mut clauses = Vec::with_capacity(num_clauses);
            for _ in 0..num_clauses {
                let width = 1 + (next() % 3) as usize;
                let mut clause = Vec::with_capacity(width);
                for _ in 0..width {
                    let v = (next() % num_vars as u64) as i32 + 1;
                    clause.push(if next() % 2 == 0 { v } else { -v });
                }
                clauses.push(clause);
            }
            let mut s = solver_from(num_vars, &clauses);
            let got = s.solve();
            let want = if brute_force_sat(num_vars, &clauses) {
                SatResult::Sat
            } else {
                SatResult::Unsat
            };
            assert_eq!(
                got, want,
                "round {round}: solver disagrees with oracle on {clauses:?}"
            );
            if got == SatResult::Sat {
                for clause in &clauses {
                    assert!(
                        clause.iter().any(|&n| {
                            let v = n.unsigned_abs() as usize - 1;
                            s.value(v) == (n > 0)
                        }),
                        "round {round}: model violates {clause:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_blocking_enumerates_all_models() {
        // x ∨ y over two variables has exactly three models; blocking
        // each found model must enumerate all of them then go UNSAT.
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause(&[Lit::pos(x), Lit::pos(y)]);
        let mut models = Vec::new();
        while s.solve() == SatResult::Sat {
            let m = (s.value(x), s.value(y));
            models.push(m);
            s.add_clause(&[Lit::new(x, !m.0), Lit::new(y, !m.1)]);
        }
        models.sort();
        assert_eq!(models, vec![(false, true), (true, false), (true, true)]);
    }
}
