//! State equivalence via logical interpretation.
//!
//! [`ToFacts`] is implemented by every database-state type in the
//! workspace (semantic relation states, semantic graph states, ANSI
//! internal states). [`state_equivalent`] then realises §3.2.3's
//! definition: two states are equivalent iff they induce the same set of
//! true statements. [`EquivalenceReport`] explains a failed check — which
//! statements are true in one state but not the other.

use std::fmt;

use crate::{FactBase, FactDelta};

/// Compilation of a database state into the statements true of the
/// application state it represents.
///
/// A state's facts depend on its model's schema (which column of a
/// relation plays which role, say), but its `Eq` and `Hash` may ignore
/// that schema: two states of different models can be equal and still
/// compile to different fact bases. So no cache that spans models may
/// key a compilation on the state alone.
pub trait ToFacts {
    /// The set of true statements of this state.
    fn to_facts(&self) -> FactBase;
}

/// A borrowed state compiles like the state itself.
impl<T: ToFacts + ?Sized> ToFacts for &T {
    fn to_facts(&self) -> FactBase {
        (**self).to_facts()
    }
}

impl ToFacts for FactBase {
    fn to_facts(&self) -> FactBase {
        self.clone()
    }
}

/// The result of a state-equivalence check, with diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EquivalenceReport {
    /// Facts holding only in the left state.
    pub only_left: FactBase,
    /// Facts holding only in the right state.
    pub only_right: FactBase,
}

impl EquivalenceReport {
    /// Whether the two states were equivalent.
    pub fn is_equivalent(&self) -> bool {
        self.only_left.is_empty() && self.only_right.is_empty()
    }

    /// The delta from left to right, for callers that want to repair.
    pub fn delta(&self) -> FactDelta {
        FactDelta {
            added: self.only_right.clone(),
            removed: self.only_left.clone(),
        }
    }
}

impl fmt::Display for EquivalenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_equivalent() {
            return write!(f, "states are equivalent");
        }
        writeln!(f, "states are NOT equivalent:")?;
        for fact in self.only_left.iter() {
            writeln!(f, "  left only:  {fact}")?;
        }
        for fact in self.only_right.iter() {
            writeln!(f, "  right only: {fact}")?;
        }
        Ok(())
    }
}

/// Checks state equivalence of two (possibly heterogeneous) states by
/// compiling both to facts and comparing.
///
/// ```
/// use dme_logic::{state_equivalent, Fact, FactBase};
/// use dme_value::Atom;
///
/// let a = FactBase::from_facts([Fact::new("p", [("x", Atom::int(1))])]);
/// let b = a.clone();
/// assert!(state_equivalent(&a, &b).is_equivalent());
///
/// let c = FactBase::new();
/// let report = state_equivalent(&a, &c);
/// assert!(!report.is_equivalent());
/// assert_eq!(report.only_left.len(), 1);
/// ```
pub fn state_equivalent<L: ToFacts, R: ToFacts>(left: &L, right: &R) -> EquivalenceReport {
    let lf = left.to_facts();
    let rf = right.to_facts();
    EquivalenceReport {
        only_left: lf.difference(&rf),
        only_right: rf.difference(&lf),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fact;
    use dme_value::Atom;

    fn f(n: i64) -> Fact {
        Fact::new("p", [("x", Atom::int(n))])
    }

    #[test]
    fn equal_states_equivalent() {
        let a = FactBase::from_facts([f(1), f(2)]);
        let r = state_equivalent(&a, &a.clone());
        assert!(r.is_equivalent());
        assert_eq!(r.to_string(), "states are equivalent");
        assert!(r.delta().is_empty());
    }

    #[test]
    fn report_splits_differences() {
        let a = FactBase::from_facts([f(1), f(2)]);
        let b = FactBase::from_facts([f(2), f(3)]);
        let r = state_equivalent(&a, &b);
        assert!(!r.is_equivalent());
        assert_eq!(r.only_left, FactBase::from_facts([f(1)]));
        assert_eq!(r.only_right, FactBase::from_facts([f(3)]));
        let text = r.to_string();
        assert!(text.contains("left only:  p{x: 1}"));
        assert!(text.contains("right only: p{x: 3}"));
    }

    #[test]
    fn delta_repairs_left_to_right() {
        let a = FactBase::from_facts([f(1)]);
        let b = FactBase::from_facts([f(2)]);
        let r = state_equivalent(&a, &b);
        assert_eq!(a.apply(&r.delta()), b);
    }
}
