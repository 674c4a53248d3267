//! Fact bases (Herbrand interpretations) and deltas between them.
//!
//! A [`FactBase`] is the set of all statements true of one application
//! state. The paper's notion that a relation "contains the set of all true
//! statements fitting a certain form" makes the fact base the natural
//! common denominator: the *union over all relations* (resp. the reading
//! of all entities and associations) of their statements.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::{Fact, Pattern};

/// An immutable-ish set of ground facts with set-algebra helpers.
///
/// Carries an incrementally-maintained 64-bit content fingerprint (the
/// XOR of per-fact [`crate::content_fingerprint`] hashes), so the
/// equivalence kernel can probe hash-consing tables without re-hashing
/// the whole set. All comparisons and hashing remain functions of the fact set
/// alone; the fingerprint is derived state.
#[derive(Clone, Default)]
pub struct FactBase {
    facts: BTreeSet<Fact>,
    /// XOR of `content_fingerprint` over `facts` (0 when empty).
    fp: u64,
}

impl PartialEq for FactBase {
    fn eq(&self, other: &Self) -> bool {
        self.fp == other.fp && self.facts == other.facts
    }
}

impl Eq for FactBase {}

impl PartialOrd for FactBase {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FactBase {
    fn cmp(&self, other: &Self) -> Ordering {
        self.facts.cmp(&other.facts)
    }
}

impl Hash for FactBase {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The fingerprint is a function of the fact set, so hashing it
        // keeps `Hash` consistent with `Eq` while making whole-state
        // hashing O(1).
        state.write_u64(self.fp);
    }
}

impl FactBase {
    /// The empty fact base (the paper's "empty state").
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a fact base from any iterable of facts.
    pub fn from_facts(facts: impl IntoIterator<Item = Fact>) -> Self {
        let facts: BTreeSet<Fact> = facts.into_iter().collect();
        let fp = facts.iter().map(Fact::fingerprint).fold(0, |a, h| a ^ h);
        FactBase { facts, fp }
    }

    /// The incrementally-maintained 64-bit content fingerprint: the XOR
    /// of per-fact hashes. Equal fact bases always have equal
    /// fingerprints; distinct ones may collide, so callers must confirm
    /// a match with `==`.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Inserts a fact; returns whether it was new.
    pub fn insert(&mut self, fact: Fact) -> bool {
        let h = fact.fingerprint();
        let inserted = self.facts.insert(fact);
        if inserted {
            self.fp ^= h;
        }
        inserted
    }

    /// Removes a fact; returns whether it was present.
    pub fn remove(&mut self, fact: &Fact) -> bool {
        let removed = self.facts.remove(fact);
        if removed {
            self.fp ^= fact.fingerprint();
        }
        removed
    }

    /// Membership ("is this statement true in the state?").
    pub fn holds(&self, fact: &Fact) -> bool {
        self.facts.contains(fact)
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether no facts hold.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Iterates over facts in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Fact> {
        self.facts.iter()
    }

    /// All facts whose predicate equals `predicate`.
    pub fn with_predicate<'a>(&'a self, predicate: &'a str) -> impl Iterator<Item = &'a Fact> {
        self.facts
            .iter()
            .filter(move |f| f.predicate().as_str() == predicate)
    }

    /// All facts matching a [`Pattern`] (predicate plus required bindings).
    pub fn matching<'a>(&'a self, pattern: &'a Pattern) -> impl Iterator<Item = &'a Fact> {
        self.facts.iter().filter(move |f| pattern.matches(f))
    }

    /// The first fact matching `pattern`, if any.
    pub fn find(&self, pattern: &Pattern) -> Option<&Fact> {
        self.facts.iter().find(|f| pattern.matches(f))
    }

    /// Whether every fact of `other` also holds here.
    pub fn entails(&self, other: &FactBase) -> bool {
        other.facts.is_subset(&self.facts)
    }

    /// Set union.
    pub fn union(&self, other: &FactBase) -> FactBase {
        FactBase::from_facts(self.facts.union(&other.facts).cloned())
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &FactBase) -> FactBase {
        FactBase::from_facts(self.facts.difference(&other.facts).cloned())
    }

    /// The delta that transforms `self` into `target`.
    pub fn delta_to(&self, target: &FactBase) -> FactDelta {
        FactDelta {
            added: target.difference(self),
            removed: self.difference(target),
        }
    }

    /// Applies a delta, producing the new fact base.
    pub fn apply(&self, delta: &FactDelta) -> FactBase {
        self.difference(&delta.removed).union(&delta.added)
    }
}

impl FromIterator<Fact> for FactBase {
    fn from_iter<I: IntoIterator<Item = Fact>>(iter: I) -> Self {
        FactBase::from_facts(iter)
    }
}

impl Extend<Fact> for FactBase {
    fn extend<I: IntoIterator<Item = Fact>>(&mut self, iter: I) {
        for fact in iter {
            self.insert(fact);
        }
    }
}

impl fmt::Debug for FactBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FactBase ({} facts) {{", self.facts.len())?;
        for fact in &self.facts {
            writeln!(f, "  {fact}")?;
        }
        write!(f, "}}")
    }
}

/// The difference between two fact bases: what an operation added and
/// removed at the logic level. Operation equivalence (Definition 1) is
/// checked by comparing the deltas both models' operations induce.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FactDelta {
    /// Facts true after but not before.
    pub added: FactBase,
    /// Facts true before but not after.
    pub removed: FactBase,
}

impl FactDelta {
    /// The identity delta.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

impl fmt::Display for FactDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for fact in self.removed.iter() {
            writeln!(f, "- {fact}")?;
        }
        for fact in self.added.iter() {
            writeln!(f, "+ {fact}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_value::Atom;

    fn f(p: &str, n: i64) -> Fact {
        Fact::new(p, [("x", Atom::int(n))])
    }

    #[test]
    fn insert_remove_holds() {
        let mut fb = FactBase::new();
        assert!(fb.is_empty());
        assert!(fb.insert(f("p", 1)));
        assert!(!fb.insert(f("p", 1)), "duplicate insert is a no-op");
        assert!(fb.holds(&f("p", 1)));
        assert_eq!(fb.len(), 1);
        assert!(fb.remove(&f("p", 1)));
        assert!(!fb.remove(&f("p", 1)));
        assert!(fb.is_empty());
    }

    #[test]
    fn predicate_filter() {
        let fb = FactBase::from_facts([f("p", 1), f("p", 2), f("q", 1)]);
        assert_eq!(fb.with_predicate("p").count(), 2);
        assert_eq!(fb.with_predicate("q").count(), 1);
        assert_eq!(fb.with_predicate("r").count(), 0);
    }

    #[test]
    fn set_algebra() {
        let a = FactBase::from_facts([f("p", 1), f("p", 2)]);
        let b = FactBase::from_facts([f("p", 2), f("p", 3)]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.difference(&b), FactBase::from_facts([f("p", 1)]));
        assert!(a.entails(&FactBase::from_facts([f("p", 1)])));
        assert!(!a.entails(&b));
        assert!(a.entails(&FactBase::new()));
    }

    #[test]
    fn delta_round_trip() {
        let a = FactBase::from_facts([f("p", 1), f("p", 2)]);
        let b = FactBase::from_facts([f("p", 2), f("p", 3), f("q", 9)]);
        let d = a.delta_to(&b);
        assert_eq!(d.added, FactBase::from_facts([f("p", 3), f("q", 9)]));
        assert_eq!(d.removed, FactBase::from_facts([f("p", 1)]));
        assert_eq!(a.apply(&d), b);
        assert!(a.delta_to(&a).is_empty());
        assert_eq!(a.apply(&FactDelta::empty()), a);
    }

    #[test]
    fn fingerprint_is_path_independent_and_maintained() {
        let mut a = FactBase::new();
        a.insert(f("p", 1));
        a.insert(f("p", 2));
        let mut b = FactBase::new();
        b.insert(f("p", 2));
        b.insert(f("p", 3));
        b.insert(f("p", 1));
        b.remove(&f("p", 3));
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.fingerprint(),
            FactBase::from_facts([f("p", 2), f("p", 1)]).fingerprint()
        );
        assert_ne!(a.fingerprint(), FactBase::new().fingerprint());
        // No-op mutations leave the fingerprint alone.
        let before = a.fingerprint();
        a.insert(f("p", 1));
        a.remove(&f("p", 9));
        assert_eq!(a.fingerprint(), before);
        // Set algebra recomputes coherently.
        assert_eq!(a.union(&FactBase::new()).fingerprint(), a.fingerprint());
    }

    #[test]
    fn delta_display_shows_signs() {
        let a = FactBase::from_facts([f("p", 1)]);
        let b = FactBase::from_facts([f("p", 2)]);
        let text = a.delta_to(&b).to_string();
        assert!(text.contains("- p{x: 1}"));
        assert!(text.contains("+ p{x: 2}"));
    }
}
