//! Scenario corpus: seeded random universes and a mutation engine.
//!
//! This is the fuzzing rig for the incremental re-verification session
//! (`dme_core::incremental`), in the style of bounded adversarial
//! instance generation: a [`Scenario`] is a random fact universe with
//! tunable **fact arity**, **constraint density** and **closure size**
//! (≈ `2^toggles` states, pruned by the constraints — the knobs span
//! 10²–10⁵ comfortably), compiled into a [`FiniteModel`] over
//! [`FactBase`] states. A [`Mutation`] then derives an adversarial
//! *near-equivalent* variant — drop a constraint, swap an operation's
//! direction (its pre/post), rename a case binding, drop an operation —
//! so differential suites can hammer `mutate → incremental re-check →
//! full re-check` and require identical verdicts and witnesses.
//!
//! Everything is deterministic in the seed: the same
//! [`ScenarioConfig`] always generates the same scenario, on every
//! platform.
//!
//! ## Model identity
//!
//! The incremental session caches by model name + initial state +
//! operation labels. Operation labels here are derived from the
//! operation's effect (`+fact`, `-fact`, `+a&-b`), so any operation
//! mutation changes the label; constraints live in the validator
//! closure, invisible to labels, so [`Scenario::model`] suffixes the
//! model name with a digest of the constraint set. Together the two
//! rules make the generated models honest cache citizens: equal keys
//! really do imply equal semantics.

use std::fmt;
use std::sync::{Arc, OnceLock};

use dme_core::model::{FiniteModel, UndoFn};
use dme_logic::{content_fingerprint, Fact, FactBase};
use dme_value::Atom;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs for [`Scenario::generate`]. The closure of the
/// generated model has at most `2^toggles` states; constraints prune
/// that powerset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioConfig {
    /// Seed for the deterministic generator.
    pub seed: u64,
    /// Number of independently toggleable facts (closure ≤ 2^toggles).
    pub toggles: usize,
    /// Case bindings per fact (the paper's named cases).
    pub fact_arity: usize,
    /// Constraints per toggle (rounded); 0.0 disables constraints.
    pub constraint_density: f64,
    /// Extra two-step operations (insert/delete two facts atomically).
    /// They enlarge the operation alphabet without adding states.
    pub composite_ops: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 0,
            toggles: 4,
            fact_arity: 2,
            constraint_density: 0.5,
            composite_ops: 0,
        }
    }
}

impl ScenarioConfig {
    /// A config whose unconstrained closure has at least
    /// `target_states` states (`toggles = ⌈log2 target⌉`, no
    /// constraints). The 10²–10⁵ closure-size knob.
    pub fn sized(seed: u64, target_states: usize) -> Self {
        let mut toggles = 1;
        while (1usize << toggles) < target_states {
            toggles += 1;
        }
        ScenarioConfig {
            seed,
            toggles,
            fact_arity: 3,
            constraint_density: 0.0,
            composite_ops: 0,
        }
    }
}

/// One generated operation: a strict sequence of single-fact steps.
/// `(true, f)` inserts `f` (error if present), `(false, f)` deletes it
/// (error if absent); a later step failing rolls the earlier ones back.
/// The `Display` label is derived from the steps, so equal labels imply
/// equal semantics — the incremental session's keying contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioOp {
    /// The steps, applied in order; all must succeed.
    pub steps: Vec<(bool, Fact)>,
}

impl fmt::Display for ScenarioOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (add, fact)) in self.steps.iter().enumerate() {
            if i > 0 {
                f.write_str("&")?;
            }
            write!(f, "{}{}", if *add { "+" } else { "-" }, fact)?;
        }
        Ok(())
    }
}

impl ScenarioOp {
    /// Applies every step strictly, in place, and reports whether all
    /// succeeded. When a step fails, the steps before it are undone, so
    /// the state is as it was. Allocates nothing beyond what the fact
    /// set's own growth needs.
    fn apply_steps(&self, state: &mut FactBase) -> bool {
        for (done, (add, fact)) in self.steps.iter().enumerate() {
            let ok = if *add {
                state.insert(fact.clone())
            } else {
                state.remove(fact)
            };
            if !ok {
                undo_steps(&self.steps[..done], state);
                return false;
            }
        }
        true
    }
}

/// An operation's steps, shared by the undos of its successful
/// candidates.
type SharedSteps = Arc<[(bool, Fact)]>;

/// Undoes applied `steps`, the last one first.
fn undo_steps(steps: &[(bool, Fact)], state: &mut FactBase) {
    for (add, fact) in steps.iter().rev() {
        if *add {
            state.remove(fact);
        } else {
            state.insert(fact.clone());
        }
    }
}

/// A state-only constraint over the fact base; the generated model's
/// validator accepts exactly the states satisfying all of them. Every
/// kind holds on the empty initial state, so the closure is never
/// vacuously empty.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioConstraint {
    /// At most `cap` facts with this predicate may hold.
    AtMost {
        /// The constrained predicate name.
        predicate: String,
        /// Maximum fact count for the predicate.
        cap: usize,
    },
    /// `a` and `b` may not hold simultaneously.
    Excludes {
        /// First of the mutually exclusive facts.
        a: Fact,
        /// Second of the mutually exclusive facts.
        b: Fact,
    },
    /// If `a` holds then `b` must hold.
    Requires {
        /// The triggering fact.
        a: Fact,
        /// The required fact.
        b: Fact,
    },
}

impl fmt::Display for ScenarioConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioConstraint::AtMost { predicate, cap } => {
                write!(f, "at_most({predicate}, {cap})")
            }
            ScenarioConstraint::Excludes { a, b } => write!(f, "excludes({a}, {b})"),
            ScenarioConstraint::Requires { a, b } => write!(f, "requires({a}, {b})"),
        }
    }
}

impl ScenarioConstraint {
    /// Whether the constraint holds in `state`.
    pub fn holds(&self, state: &FactBase) -> bool {
        match self {
            ScenarioConstraint::AtMost { predicate, cap } => {
                state.with_predicate(predicate).count() <= *cap
            }
            ScenarioConstraint::Excludes { a, b } => !(state.holds(a) && state.holds(b)),
            ScenarioConstraint::Requires { a, b } => !state.holds(a) || state.holds(b),
        }
    }
}

/// One mutation kind: a small, semantics-changing edit deriving an
/// adversarial near-equivalent scenario. Indices refer to
/// [`Scenario::constraints`] / [`Scenario::ops`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Remove one constraint (the mutant's closure is a superset).
    DropConstraint(usize),
    /// Invert every step of one operation (insert ↔ delete) — the
    /// pre/post swap.
    SwapOpDirection(usize),
    /// Rename the first case binding of one operation's first step, so
    /// the operation now toggles a fact outside the original universe.
    RenameBinding(usize),
    /// Remove one operation.
    DropOp(usize),
}

/// A generated universe: toggleable facts, the operation alphabet and
/// the constraint set. Compile with [`Scenario::model`], derive
/// adversarial variants with [`Scenario::mutate`].
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// The config that generated this scenario (mutants keep the
    /// ancestor's config).
    pub config: ScenarioConfig,
    /// The toggleable fact universe.
    pub facts: Vec<Fact>,
    /// The operation alphabet.
    pub ops: Vec<ScenarioOp>,
    /// The constraint set baked into the model's validator.
    pub constraints: Vec<ScenarioConstraint>,
}

impl Scenario {
    /// Generates the scenario determined by `config`.
    pub fn generate(config: ScenarioConfig) -> Scenario {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let toggles = config.toggles.max(1);
        let arity = config.fact_arity.max(1);
        // A few predicate groups so AtMost constraints have something
        // to count.
        let predicates = ["supervise", "operate", "assign", "audit"];
        let pred_count = predicates.len().min(toggles.div_ceil(2)).max(1);
        let facts: Vec<Fact> = (0..toggles)
            .map(|i| {
                let pred = predicates[i % pred_count];
                let args: Vec<(String, Atom)> = (0..arity)
                    .map(|c| {
                        let case = format!("c{c}");
                        // The first case carries the toggle index, so
                        // facts are always distinct; the rest are
                        // random payload.
                        let value = if c == 0 {
                            Atom::Int(i as i64)
                        } else {
                            Atom::Int(rng.gen_range(0..100i64))
                        };
                        (case, value)
                    })
                    .collect();
                Fact::new(pred, args)
            })
            .collect();

        let mut ops: Vec<ScenarioOp> = Vec::with_capacity(2 * toggles + config.composite_ops);
        for fact in &facts {
            ops.push(ScenarioOp {
                steps: vec![(true, fact.clone())],
            });
            ops.push(ScenarioOp {
                steps: vec![(false, fact.clone())],
            });
        }
        for _ in 0..config.composite_ops {
            if toggles < 2 {
                break;
            }
            let i = rng.gen_range(0..toggles);
            let mut j = rng.gen_range(0..toggles);
            if j == i {
                j = (j + 1) % toggles;
            }
            ops.push(ScenarioOp {
                steps: vec![
                    (rng.gen_bool(0.5), facts[i].clone()),
                    (rng.gen_bool(0.5), facts[j].clone()),
                ],
            });
        }

        let constraint_count = (config.constraint_density * toggles as f64)
            .round()
            .max(0.0) as usize;
        let constraints: Vec<ScenarioConstraint> = (0..constraint_count)
            .map(|_| match rng.gen_range(0..3u8) {
                0 => {
                    let predicate = predicates[rng.gen_range(0..pred_count)].to_owned();
                    let population = facts
                        .iter()
                        .filter(|f| f.predicate().as_str() == predicate)
                        .count();
                    ScenarioConstraint::AtMost {
                        predicate,
                        cap: rng.gen_range(1..=population.max(1)),
                    }
                }
                1 => {
                    let (a, b) = distinct_pair(&mut rng, &facts);
                    ScenarioConstraint::Excludes { a, b }
                }
                _ => {
                    let (a, b) = distinct_pair(&mut rng, &facts);
                    ScenarioConstraint::Requires { a, b }
                }
            })
            .collect();

        Scenario {
            config,
            facts,
            ops,
            constraints,
        }
    }

    /// A 64-bit digest of the constraint set (order-sensitive), used to
    /// salt the model name — constraints live in the validator closure
    /// and would otherwise be invisible to the incremental session's
    /// cache key.
    pub fn constraint_digest(&self) -> u64 {
        let rendered: Vec<String> = self.constraints.iter().map(|c| c.to_string()).collect();
        content_fingerprint(&rendered)
    }

    /// Compiles the scenario into a checker model. The model name is
    /// `{name}[c{constraint digest}]`; states are fact bases starting
    /// empty; the application function applies the operation's steps
    /// strictly and then requires every constraint, with the
    /// deferred-validation split installed so the closure enumerators
    /// validate only probe-missing candidates. A candidate that fails
    /// allocates nothing; one that succeeds allocates only its boxed
    /// undo, which shares the operation's steps from a slot per
    /// operation position, filled on the operation's first success and
    /// shared by clones of the model.
    pub fn model(&self, name: &str) -> FiniteModel<FactBase, ScenarioOp> {
        let full_name = format!("{name}[c{:016x}]", self.constraint_digest());
        let apply_constraints = self.constraints.clone();
        let validate_constraints = self.constraints.clone();
        let undo_steps_of: Vec<OnceLock<SharedSteps>> =
            self.ops.iter().map(|_| OnceLock::new()).collect();
        FiniteModel::new(
            full_name,
            FactBase::new(),
            self.ops.clone(),
            move |op: &ScenarioOp, state: &FactBase| {
                let mut next = state.clone();
                (op.apply_steps(&mut next) && apply_constraints.iter().all(|c| c.holds(&next)))
                    .then_some(next)
            },
        )
        .with_fingerprint(FactBase::fingerprint)
        .with_candidate(
            move |i, op: &ScenarioOp, state: &mut FactBase| {
                if !op.apply_steps(state) {
                    return None;
                }
                let steps = Arc::clone(undo_steps_of[i].get_or_init(|| op.steps.as_slice().into()));
                Some(Box::new(move |s: &mut FactBase| undo_steps(&steps, s)) as UndoFn<FactBase>)
            },
            move |state| validate_constraints.iter().all(|c| c.holds(state)),
        )
    }

    /// Compiles the scenario for the symbolic tier: the same model as
    /// [`Scenario::model`] (same salted name, same operation labels,
    /// same transition semantics) expressed as a
    /// [`dme_core::symbolic::SymbolicSpec`] fact-toggle universe, so a
    /// counterexample `SymbolicChecker::find_counterexample` reports
    /// replays on [`Scenario::model`] and names an operation the
    /// enumerative checker reports too.
    ///
    /// The universe is the scenario's fact list extended with any
    /// operation-step facts outside it (mutants from
    /// [`Mutation::RenameBinding`] toggle such facts), in first
    /// appearance order. Constraints are resolved against that
    /// universe: an `AtMost` counts the universe facts of its
    /// predicate, an `Excludes`/`Requires` mentioning a fact no
    /// operation can ever produce reduces to its residual form
    /// (trivially true, or `a` must never hold).
    pub fn symbolic_spec(&self, name: &str) -> dme_core::symbolic::SymbolicSpec {
        use dme_core::symbolic::{SymbolicConstraint, SymbolicOp, SymbolicSpec};
        let mut universe: Vec<Fact> = self.facts.clone();
        let index_of = |facts: &mut Vec<Fact>, fact: &Fact| -> usize {
            match facts.iter().position(|f| f == fact) {
                Some(i) => i,
                None => {
                    facts.push(fact.clone());
                    facts.len() - 1
                }
            }
        };
        let ops: Vec<SymbolicOp> = self
            .ops
            .iter()
            .map(|op| SymbolicOp {
                label: op.to_string(),
                steps: op
                    .steps
                    .iter()
                    .map(|(add, fact)| (*add, index_of(&mut universe, fact)))
                    .collect(),
            })
            .collect();
        let mut constraints = Vec::new();
        for c in &self.constraints {
            match c {
                ScenarioConstraint::AtMost { predicate, cap } => {
                    let vars: Vec<usize> = universe
                        .iter()
                        .enumerate()
                        .filter(|(_, f)| f.predicate().as_str() == predicate)
                        .map(|(v, _)| v)
                        .collect();
                    if !vars.is_empty() {
                        constraints.push(SymbolicConstraint::AtMost { vars, cap: *cap });
                    }
                }
                ScenarioConstraint::Excludes { a, b } => {
                    let ia = universe.iter().position(|f| f == a);
                    let ib = universe.iter().position(|f| f == b);
                    // A fact outside the universe never holds, so the
                    // exclusion is trivially satisfied.
                    if let (Some(a), Some(b)) = (ia, ib) {
                        constraints.push(SymbolicConstraint::Excludes { a, b });
                    }
                }
                ScenarioConstraint::Requires { a, b } => {
                    let ia = universe.iter().position(|f| f == a);
                    let ib = universe.iter().position(|f| f == b);
                    match (ia, ib) {
                        (Some(a), Some(b)) => {
                            constraints.push(SymbolicConstraint::Requires { a, b });
                        }
                        // `b` can never hold, so `a` must never hold.
                        (Some(a), None) => {
                            constraints.push(SymbolicConstraint::AtMost {
                                vars: vec![a],
                                cap: 0,
                            });
                        }
                        // `a` can never hold: trivially satisfied.
                        (None, _) => {}
                    }
                }
            }
        }
        SymbolicSpec {
            name: format!("{name}[c{:016x}]", self.constraint_digest()),
            facts: universe,
            ops,
            constraints,
        }
    }

    /// Every mutation applicable to this scenario, in a deterministic
    /// order: constraint drops first, then per-op direction swaps,
    /// binding renames and drops.
    pub fn mutations(&self) -> Vec<Mutation> {
        let mut out = Vec::new();
        for i in 0..self.constraints.len() {
            out.push(Mutation::DropConstraint(i));
        }
        for i in 0..self.ops.len() {
            out.push(Mutation::SwapOpDirection(i));
            out.push(Mutation::RenameBinding(i));
            out.push(Mutation::DropOp(i));
        }
        out
    }

    /// Applies one mutation, producing the near-equivalent variant.
    /// Out-of-range indices are a caller bug.
    pub fn mutate(&self, mutation: Mutation) -> Scenario {
        let mut next = self.clone();
        match mutation {
            Mutation::DropConstraint(i) => {
                next.constraints.remove(i);
            }
            Mutation::SwapOpDirection(i) => {
                for (add, _) in &mut next.ops[i].steps {
                    *add = !*add;
                }
            }
            Mutation::RenameBinding(i) => {
                let (add, fact) = next.ops[i].steps[0].clone();
                let args: Vec<(String, Atom)> = fact
                    .args()
                    .enumerate()
                    .map(|(k, (case, atom))| {
                        let case = if k == 0 {
                            format!("renamed_{case}")
                        } else {
                            case.as_str().to_owned()
                        };
                        (case, atom.clone())
                    })
                    .collect();
                next.ops[i].steps[0] = (add, Fact::new(fact.predicate().clone(), args));
            }
            Mutation::DropOp(i) => {
                next.ops.remove(i);
            }
        }
        next
    }
}

fn distinct_pair(rng: &mut StdRng, facts: &[Fact]) -> (Fact, Fact) {
    let i = rng.gen_range(0..facts.len());
    let j = if facts.len() < 2 {
        i
    } else {
        let mut j = rng.gen_range(0..facts.len());
        if j == i {
            j = (j + 1) % facts.len();
        }
        j
    };
    (facts[i].clone(), facts[j].clone())
}

/// A deterministic corpus of `count` scenarios with varied knobs
/// (toggles 2–5, arity 1–3, density 0–1, with and without composite
/// operations), for the differential and thread-invariance suites.
pub fn corpus(seed: u64, count: usize) -> Vec<Scenario> {
    (0..count)
        .map(|i| {
            let i = i as u64;
            Scenario::generate(ScenarioConfig {
                seed: seed.wrapping_add(i.wrapping_mul(0x9E37_79B9)),
                toggles: 2 + (i % 4) as usize,
                fact_arity: 1 + (i % 3) as usize,
                constraint_density: (i % 5) as f64 * 0.25,
                composite_ops: (i % 3) as usize,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Scenario::generate(ScenarioConfig::default());
        let b = Scenario::generate(ScenarioConfig::default());
        assert_eq!(a, b);
        let c = Scenario::generate(ScenarioConfig {
            seed: 1,
            ..ScenarioConfig::default()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn closure_size_tracks_toggles() {
        // Unconstrained toggles enumerate the full powerset.
        let s = Scenario::generate(ScenarioConfig {
            seed: 3,
            toggles: 5,
            fact_arity: 2,
            constraint_density: 0.0,
            composite_ops: 0,
        });
        let closure = s.model("m").closure(10_000).unwrap();
        assert_eq!(closure.arena.len(), 32);
        assert_eq!(ScenarioConfig::sized(0, 10_000).toggles, 14);
    }

    #[test]
    fn constraints_prune_the_closure() {
        let free = Scenario::generate(ScenarioConfig {
            seed: 5,
            toggles: 5,
            fact_arity: 2,
            constraint_density: 0.0,
            composite_ops: 0,
        });
        let mut constrained = free.clone();
        constrained.constraints.push(ScenarioConstraint::Excludes {
            a: free.facts[0].clone(),
            b: free.facts[1].clone(),
        });
        let full = free.model("m").closure(10_000).unwrap().arena.len();
        let pruned = constrained.model("m").closure(10_000).unwrap().arena.len();
        assert_eq!(full, 32);
        assert_eq!(pruned, 24, "excluding one pair removes a quarter");
        // The constraint digest differs, so the model names differ.
        assert_ne!(
            free.model("m").name().to_owned(),
            constrained.model("m").name()
        );
    }

    #[test]
    fn apply_agrees_with_candidate_plus_validate() {
        let s = Scenario::generate(ScenarioConfig {
            seed: 7,
            toggles: 4,
            fact_arity: 2,
            constraint_density: 1.0,
            composite_ops: 3,
        });
        let model = s.model("m");
        let states = model.reachable_states(10_000).unwrap();
        for state in &states {
            for (oi, op) in model.ops().iter().enumerate() {
                let pure = model.apply(op, state);
                let mut scratch = state.clone();
                let via_candidate = match model.expand_delta(oi, &mut scratch) {
                    None => None,
                    Some(undo) => {
                        let out = model.validate_candidate(&scratch).then(|| scratch.clone());
                        undo(&mut scratch);
                        out
                    }
                };
                assert_eq!(pure, via_candidate, "op {op} on {state:?}");
                assert_eq!(&scratch, state, "undo restores");
            }
        }
    }

    #[test]
    fn mutations_change_semantics_visibly() {
        let s = Scenario::generate(ScenarioConfig {
            seed: 11,
            toggles: 3,
            fact_arity: 2,
            constraint_density: 1.0,
            composite_ops: 1,
        });
        assert!(!s.mutations().is_empty());
        for mutation in s.mutations() {
            let mutant = s.mutate(mutation);
            match mutation {
                Mutation::DropConstraint(_) => {
                    assert_eq!(mutant.constraints.len(), s.constraints.len() - 1);
                    assert_ne!(mutant.constraint_digest(), s.constraint_digest());
                }
                Mutation::SwapOpDirection(i) | Mutation::RenameBinding(i) => {
                    assert_ne!(mutant.ops[i].to_string(), s.ops[i].to_string());
                }
                Mutation::DropOp(_) => assert_eq!(mutant.ops.len(), s.ops.len() - 1),
            }
        }
    }

    #[test]
    fn corpus_is_deterministic_and_varied() {
        let a = corpus(42, 16);
        let b = corpus(42, 16);
        assert_eq!(a, b);
        let toggles: std::collections::BTreeSet<usize> =
            a.iter().map(|s| s.config.toggles).collect();
        assert!(toggles.len() > 1, "corpus varies closure sizes");
        assert!(a.iter().any(|s| !s.constraints.is_empty()));
        assert!(a.iter().any(|s| s.constraints.is_empty()));
    }
}
