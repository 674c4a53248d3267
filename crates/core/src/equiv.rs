//! The vocabulary of the equivalence hierarchy (Definitions 1–6): the
//! kinds, errors, reports and the behaviour-signature algebra.
//!
//! The decision procedure itself is the [`crate::parallel`] engine, run
//! through [`Checker`](crate::check::Checker). It works on finite
//! application models whose closures of valid states (§2.2) are
//! enumerable:
//!
//! 1. enumerate both closures
//!    ([`FiniteModel::closure`](crate::model::FiniteModel::closure));
//! 2. establish the **state equivalence correspondence** by compiling
//!    every state to its fact base ([`pair_states`]); the paper requires
//!    this correspondence to be 1-1 and onto, which here means: fact
//!    compilation is injective on each side, and the two sides induce the
//!    same set of fact bases;
//! 3. reduce every operation to its **behaviour signature** — the vector,
//!    indexed by state pair, of the resulting pair index (or the error
//!    state). Definition 1's operation equivalence is then signature
//!    equality;
//! 4. Definitions 2/3/5 quantify over signatures: exact match
//!    (isomorphic), match by bounded composition (composed), or
//!    per-state match by bounded composition (state dependent);
//! 5. Definition 6 lifts the chosen application-model equivalence to sets
//!    of application models, reporting *partial equivalence* — exactly
//!    which application models lack a counterpart — when it fails.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use dme_logic::{FactBase, ToFacts};

use crate::bitset::BitSet;
use crate::model::ClosureTooLarge;
use crate::parallel::{Side, Verdict, Witness};

/// Which application-model equivalence (Definition 2, 3 or 5) to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EquivKind {
    /// Definition 2: a 1-1 correspondence of simple operations.
    Isomorphic,
    /// Definition 3: simple operations matched by compositions of at most
    /// `max_depth` operations.
    Composed {
        /// Maximum composition length searched.
        max_depth: usize,
    },
    /// Definition 5: per equivalent state pair, simple operations matched
    /// by compositions of at most `max_depth` operations.
    StateDependent {
        /// Maximum composition length searched.
        max_depth: usize,
    },
}

/// Errors preventing a check from running.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// A closure exceeded the state cap.
    Closure(ClosureTooLarge),
    /// The state equivalence correspondence is not 1-1 onto.
    Pairing(String),
    /// The requested tier/target combination has no decision procedure
    /// (e.g. Definition 1 over data-model *sets*).
    Unsupported(String),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Closure(e) => write!(f, "{e}"),
            CheckError::Pairing(s) => write!(f, "state pairing failed: {s}"),
            CheckError::Unsupported(s) => write!(f, "unsupported check: {s}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<ClosureTooLarge> for CheckError {
    fn from(e: ClosureTooLarge) -> Self {
        CheckError::Closure(e)
    }
}

/// Pairs two state sets through fact compilation. Returns the aligned
/// state lists (index *i* of each list holds equivalent states). The
/// correspondence must be 1-1 (injective compilation per side) and onto
/// (same fact bases on both sides), per §3.3.1.
pub fn pair_states<MS, NS>(
    m_states: &BTreeSet<MS>,
    n_states: &BTreeSet<NS>,
) -> Result<(Vec<MS>, Vec<NS>), CheckError>
where
    MS: Clone + Ord + ToFacts,
    NS: Clone + Ord + ToFacts,
{
    let mut m_by_facts: BTreeMap<FactBase, MS> = BTreeMap::new();
    for s in m_states {
        if m_by_facts.insert(s.to_facts(), s.clone()).is_some() {
            return Err(CheckError::Pairing(
                "two left states share a fact base (compilation not injective)".into(),
            ));
        }
    }
    let mut n_by_facts: BTreeMap<FactBase, NS> = BTreeMap::new();
    for s in n_states {
        if n_by_facts.insert(s.to_facts(), s.clone()).is_some() {
            return Err(CheckError::Pairing(
                "two right states share a fact base (compilation not injective)".into(),
            ));
        }
    }
    if m_by_facts.len() != n_by_facts.len() || !m_by_facts.keys().eq(n_by_facts.keys()) {
        let only_left = m_by_facts
            .keys()
            .filter(|k| !n_by_facts.contains_key(*k))
            .count();
        let only_right = n_by_facts
            .keys()
            .filter(|k| !m_by_facts.contains_key(*k))
            .count();
        return Err(CheckError::Pairing(format!(
            "state sets are not onto: {only_left} application states expressible only on the left, {only_right} only on the right"
        )));
    }
    let m_list: Vec<MS> = m_by_facts.into_values().collect();
    let n_list: Vec<NS> = n_by_facts.into_values().collect();
    Ok((m_list, n_list))
}

/// A behaviour signature: per state-pair index, the resulting pair index
/// or `None` for the error state.
pub type Signature = Vec<Option<u32>>;

pub(crate) fn identity_signature(n: usize) -> Signature {
    (0..n as u32).map(Some).collect()
}

pub(crate) fn compose(first: &Signature, then: &Signature) -> Signature {
    first
        .iter()
        .map(|r| r.and_then(|i| then[i as usize]))
        .collect()
}

/// Per-state reachability from one start: the pair indices reachable
/// from `start` within `max_depth` steps (as a word-packed [`BitSet`]
/// over the pair universe), and whether the error state is reachable
/// (by erroring at any point along a valid prefix) — the Definition 5
/// semantics. The engine fans the starts across workers.
pub(crate) fn reach_from(
    op_sigs: &[Signature],
    pairs: usize,
    start: u32,
    max_depth: usize,
) -> (BitSet, bool) {
    let mut seen = BitSet::with_capacity(pairs);
    seen.insert(start as usize);
    let mut queue: VecDeque<(u32, usize)> = VecDeque::new();
    queue.push_back((start, 0));
    let mut error = false;
    while let Some((state, depth)) = queue.pop_front() {
        if depth >= max_depth {
            continue;
        }
        for sig in op_sigs {
            match sig[state as usize] {
                Some(next) => {
                    if seen.insert(next as usize) {
                        queue.push_back((next, depth + 1));
                    }
                }
                None => error = true,
            }
        }
    }
    (seen, error)
}

/// The outcome of an application-model equivalence check, with the
/// witnesses of failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchReport {
    /// Whether the models are equivalent under the requested definition.
    pub equivalent: bool,
    /// Display forms of left operations without an equivalent.
    pub unmatched_m: Vec<String>,
    /// Display forms of right operations without an equivalent.
    pub unmatched_n: Vec<String>,
    /// Number of equivalent state pairs underlying the check.
    pub state_pairs: usize,
}

impl MatchReport {
    /// The report as a structured [`Verdict`], the parallel engine's
    /// outcome type: witnesses are the unmatched operations, left side
    /// first, each in operation order — exactly the order the parallel
    /// engine reports (proven by the differential test suite).
    pub fn to_verdict(&self) -> Verdict {
        if self.equivalent {
            return Verdict::Equivalent {
                state_pairs: self.state_pairs,
            };
        }
        let witnesses = self
            .unmatched_m
            .iter()
            .map(|label| Witness {
                side: Side::Left,
                label: label.clone(),
            })
            .chain(self.unmatched_n.iter().map(|label| Witness {
                side: Side::Right,
                label: label.clone(),
            }))
            .collect();
        Verdict::Counterexample {
            state_pairs: self.state_pairs,
            witnesses,
        }
    }
}

impl fmt::Display for MatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.equivalent {
            return write!(f, "equivalent over {} state pairs", self.state_pairs);
        }
        writeln!(f, "NOT equivalent over {} state pairs:", self.state_pairs)?;
        for op in &self.unmatched_m {
            writeln!(f, "  left op without equivalent:  {op}")?;
        }
        for op in &self.unmatched_n {
            writeln!(f, "  right op without equivalent: {op}")?;
        }
        Ok(())
    }
}

/// Definition 6 outcome: which application models found counterparts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataModelReport {
    /// Whether the data models are (totally) equivalent.
    pub equivalent: bool,
    /// For each left application model, the names of equivalent right
    /// models.
    pub matches_m: Vec<(String, Vec<String>)>,
    /// For each right application model, the names of equivalent left
    /// models.
    pub matches_n: Vec<(String, Vec<String>)>,
}

impl DataModelReport {
    /// Left application models with no counterpart (the witnesses of a
    /// *partial* equivalence).
    pub fn unmatched_m(&self) -> Vec<&str> {
        self.matches_m
            .iter()
            .filter(|(_, v)| v.is_empty())
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Right application models with no counterpart.
    pub fn unmatched_n(&self) -> Vec<&str> {
        self.matches_n
            .iter()
            .filter(|(_, v)| v.is_empty())
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// The report as a structured [`Verdict`]: `state_pairs` is the
    /// size of the model-pair grid (matching the parallel Definition 6
    /// engine) and witnesses are the names of unmatched application
    /// models, left side first.
    pub fn to_verdict(&self) -> Verdict {
        let grid = self.matches_m.len() * self.matches_n.len();
        if self.equivalent {
            return Verdict::Equivalent { state_pairs: grid };
        }
        let witnesses = self
            .unmatched_m()
            .into_iter()
            .map(|name| Witness {
                side: Side::Left,
                label: name.to_owned(),
            })
            .chain(self.unmatched_n().into_iter().map(|name| Witness {
                side: Side::Right,
                label: name.to_owned(),
            }))
            .collect();
        Verdict::Counterexample {
            state_pairs: grid,
            witnesses,
        }
    }
}

impl fmt::Display for DataModelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.equivalent {
            write!(f, "data models are equivalent")
        } else {
            write!(
                f,
                "data models are only partially equivalent; unmatched left: {:?}, unmatched right: {:?}",
                self.unmatched_m(),
                self.unmatched_n()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_composition() {
        // Two pairs; op a: 0→1, 1→err; op b: 0→0, 1→0.
        let a: Signature = vec![Some(1), None];
        let b: Signature = vec![Some(0), Some(0)];
        assert_eq!(compose(&a, &b), vec![Some(0), None]);
        assert_eq!(compose(&b, &a), vec![Some(1), Some(1)]);
        let id = identity_signature(2);
        assert_eq!(compose(&id, &a), a);
        assert_eq!(compose(&a, &id), a);
        // Definition 1: operation equivalence is signature equality.
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
    }

    fn f(n: i64) -> dme_logic::Fact {
        dme_logic::Fact::new("p", [("x", dme_value::Atom::Int(n))])
    }

    #[test]
    fn pair_states_detects_non_onto_sets() {
        // A fact base compiles to itself: {∅, {p(1)}} against {∅, {p(2)}}.
        let side = |n| BTreeSet::from([FactBase::default(), FactBase::from_facts([f(n)])]);
        let err = pair_states(&side(1), &side(2)).unwrap_err();
        assert!(matches!(err, CheckError::Pairing(_)));
        assert!(err.to_string().contains("not onto"));
    }
    #[test]
    fn data_model_report_accessors_and_display() {
        let report = DataModelReport {
            equivalent: false,
            matches_m: vec![("a".into(), vec!["x".into()]), ("b".into(), vec![])],
            matches_n: vec![("x".into(), vec!["a".into()])],
        };
        assert_eq!(report.unmatched_m(), vec!["b"]);
        assert!(report.unmatched_n().is_empty());
        assert!(report.to_string().contains("partially equivalent"));
        let total = DataModelReport {
            equivalent: true,
            matches_m: vec![],
            matches_n: vec![],
        };
        assert_eq!(total.to_string(), "data models are equivalent");
    }

    #[test]
    fn match_report_display_lists_witnesses() {
        let report = MatchReport {
            equivalent: false,
            unmatched_m: vec!["op-a".into()],
            unmatched_n: vec!["op-b".into()],
            state_pairs: 5,
        };
        let text = report.to_string();
        assert!(text.contains("NOT equivalent over 5 state pairs"));
        assert!(text.contains("op-a"));
        assert!(text.contains("op-b"));
        let equivalent = MatchReport {
            equivalent: true,
            unmatched_m: vec![],
            unmatched_n: vec![],
            state_pairs: 2,
        };
        assert_eq!(equivalent.to_string(), "equivalent over 2 state pairs");
    }

    #[test]
    fn reach_from_tracks_errors_within_depth() {
        // op: 0→1, 1→err.
        let sigs = vec![vec![Some(1), None]];
        let (reach, err) = reach_from(&sigs, 2, 0, 3);
        assert!(reach.contains(1));
        assert!(err, "0 →op→ 1 →op→ error within depth");
        assert!(reach_from(&sigs, 2, 1, 3).1);
        // Depth 1 from state 0 reaches 1 but not the error beyond it.
        assert!(
            !reach_from(&sigs, 2, 0, 1).1,
            "error from 0 needs two steps"
        );
        assert!(reach_from(&sigs, 2, 1, 1).1);
    }
}
