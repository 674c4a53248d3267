//! Ground facts: a predicate with named-case arguments.
//!
//! A [`Fact`] corresponds to one of the paper's natural-language statements
//! with every blank filled in, e.g. *"An employee named C.Gershag is
//! supervised by an employee named G.Wayshum"* becomes
//! `supervise{agent: G.Wayshum, object: C.Gershag}`.
//!
//! Arguments are keyed by case name and are always non-null [`Atom`]s: a
//! null in a database state means *absence of a statement*, so nulls never
//! reach the logic layer.

use std::fmt;
use std::sync::Arc;

use dme_value::{sort_bindings, Atom, Symbol};

/// A ground atom of the case-grammar logic: predicate + case bindings.
///
/// Facts are immutable after construction (`with_arg`/`with_predicate`
/// return copies), so the case bindings are shared behind an `Arc` —
/// cloning a fact is two reference bumps — and the structural hash is
/// computed once and cached. The bindings are one slice sorted by case
/// (a fact binds two or three cases; a `BTreeMap` would allocate a node
/// with room for eleven). Equality, ordering and hashing are over
/// `(predicate, args)` exactly as a field-derived implementation over a
/// `BTreeMap` of the same bindings would be; the cache is invisible.
#[derive(Clone)]
pub struct Fact {
    predicate: Symbol,
    args: Arc<[(Symbol, Atom)]>,
    /// Cached `(predicate, args)` structural hash (see [`Fact::fingerprint`]).
    fp: u64,
}

impl PartialEq for Fact {
    fn eq(&self, other: &Self) -> bool {
        // The fingerprint is a pure function of (predicate, args), so a
        // mismatch proves inequality without walking the maps.
        self.fp == other.fp && self.predicate == other.predicate && self.args == other.args
    }
}

impl Eq for Fact {}

impl PartialOrd for Fact {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Fact {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.predicate
            .cmp(&other.predicate)
            .then_with(|| self.args.cmp(&other.args))
    }
}

impl std::hash::Hash for Fact {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Field order matches the former derived implementation, so hash
        // values (and the fingerprints built from them) are unchanged.
        self.predicate.hash(state);
        self.args.hash(state);
    }
}

impl Fact {
    /// Builds a fact from a predicate name and case bindings.
    ///
    /// ```
    /// use dme_logic::Fact;
    /// use dme_value::Atom;
    /// let f = Fact::new(
    ///     "operate",
    ///     [("agent", Atom::str("T.Manhart")), ("object", Atom::str("NZ745"))],
    /// );
    /// assert_eq!(f.predicate(), "operate");
    /// assert_eq!(f.get("agent"), Some(&Atom::str("T.Manhart")));
    /// ```
    pub fn new<C, A>(predicate: impl Into<Symbol>, args: impl IntoIterator<Item = (C, A)>) -> Self
    where
        C: Into<Symbol>,
        A: Into<Atom>,
    {
        Self::from_parts(
            predicate.into(),
            args.into_iter()
                .map(|(c, a)| (c.into(), a.into()))
                .collect(),
        )
    }

    /// The least fact with predicate `predicate`: it binds no case, and
    /// facts order by predicate first, so every fact with that predicate
    /// sorts at or after it — the lower bound of a predicate range scan.
    pub(crate) fn least_of(predicate: Symbol) -> Self {
        Self::from_parts(predicate, Vec::new())
    }

    fn from_parts(predicate: Symbol, mut args: Vec<(Symbol, Atom)>) -> Self {
        sort_bindings(&mut args);
        // Tuple hashing visits fields in order, matching the struct
        // hash above — so this equals `content_fingerprint` of the fact.
        // A sorted slice of pairs hashes as the map of the same pairs.
        let fp = crate::content_fingerprint(&(&predicate, &args[..]));
        Fact {
            predicate,
            args: args.into(),
            fp,
        }
    }

    /// The bound atom of a case, by binary search over the sorted cases.
    fn arg(&self, case: &str) -> Option<&(Symbol, Atom)> {
        self.args
            .binary_search_by(|(c, _)| c.as_str().cmp(case))
            .ok()
            .map(|i| &self.args[i])
    }

    /// The cached structural hash of `(predicate, args)` — exactly
    /// [`crate::content_fingerprint`] of this fact, computed once at
    /// construction. Equal facts have equal fingerprints.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// The predicate symbol.
    pub fn predicate(&self) -> &Symbol {
        &self.predicate
    }

    /// The binding of a case, if present.
    pub fn get(&self, case: &str) -> Option<&Atom> {
        self.arg(case).map(|(_, a)| a)
    }

    /// Iterates over `(case, atom)` bindings in case order.
    pub fn args(&self) -> impl Iterator<Item = (&Symbol, &Atom)> {
        self.args.iter().map(|(c, a)| (c, a))
    }

    /// Number of bound cases.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Whether this fact binds the given case.
    pub fn binds(&self, case: &str) -> bool {
        self.arg(case).is_some()
    }

    /// Returns a copy of this fact with one case rebound. Used by
    /// renaming correspondences between data models.
    pub fn with_arg(&self, case: impl Into<Symbol>, atom: impl Into<Atom>) -> Fact {
        let mut args = self.args.to_vec();
        args.push((case.into(), atom.into()));
        Self::from_parts(self.predicate.clone(), args)
    }

    /// Returns a copy with the predicate renamed (correspondence maps,
    /// e.g. graph "operation" association type → relational "operate"
    /// predicate).
    pub fn with_predicate(&self, predicate: impl Into<Symbol>) -> Fact {
        let predicate = predicate.into();
        let fp = crate::content_fingerprint(&(&predicate, &self.args[..]));
        Fact {
            predicate,
            args: Arc::clone(&self.args),
            fp,
        }
    }
}

impl fmt::Debug for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.predicate)?;
        for (i, (case, atom)) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{case}: {atom}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn operate() -> Fact {
        Fact::new(
            "operate",
            [
                ("agent", Atom::str("T.Manhart")),
                ("object", Atom::str("NZ745")),
            ],
        )
    }

    #[test]
    fn construction_and_access() {
        let f = operate();
        assert_eq!(f.predicate(), "operate");
        assert_eq!(f.arity(), 2);
        assert!(f.binds("agent"));
        assert!(!f.binds("instrument"));
        assert_eq!(f.get("object"), Some(&Atom::str("NZ745")));
        assert_eq!(f.get("missing"), None);
    }

    #[test]
    fn args_iterate_in_case_order() {
        let f = Fact::new("p", [("z", Atom::int(1)), ("a", Atom::int(2))]);
        let cases: Vec<_> = f.args().map(|(c, _)| c.as_str().to_owned()).collect();
        assert_eq!(cases, vec!["a", "z"]);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a = Fact::new("p", [("x", Atom::int(1)), ("y", Atom::int(2))]);
        let b = Fact::new("p", [("y", Atom::int(2)), ("x", Atom::int(1))]);
        assert_eq!(a, b);
    }

    #[test]
    fn with_arg_and_with_predicate() {
        let f = operate();
        let g = f.with_arg("agent", Atom::str("C.Gershag"));
        assert_eq!(g.get("agent"), Some(&Atom::str("C.Gershag")));
        assert_eq!(f.get("agent"), Some(&Atom::str("T.Manhart"))); // original untouched

        let h = f.with_predicate("operation");
        assert_eq!(h.predicate(), "operation");
        assert_eq!(h.get("agent"), f.get("agent"));
    }

    #[test]
    fn display_form() {
        assert_eq!(
            operate().to_string(),
            "operate{agent: T.Manhart, object: NZ745}"
        );
    }

    #[test]
    fn hash_and_order_are_those_of_a_case_map() {
        use std::collections::BTreeMap;
        let cases = |f: &Fact| -> BTreeMap<Symbol, Atom> {
            f.args().map(|(c, a)| (c.clone(), a.clone())).collect()
        };
        let facts = [
            operate(),
            Fact::new("operate", [("agent", Atom::str("T.Manhart"))]),
            Fact::new("p", [("z", Atom::int(1)), ("a", Atom::int(2))]),
            Fact::least_of(Symbol::new("operate")),
        ];
        for f in &facts {
            let map = (f.predicate().clone(), cases(f));
            assert_eq!(f.fingerprint(), crate::content_fingerprint(&map));
            for g in &facts {
                let other = (g.predicate().clone(), cases(g));
                assert_eq!(f.cmp(g), map.cmp(&other), "{f} vs {g}");
            }
        }
    }

    #[test]
    fn duplicate_case_last_wins() {
        let f = Fact::new("p", [("x", Atom::int(1)), ("x", Atom::int(2))]);
        assert_eq!(f.arity(), 1);
        assert_eq!(f.get("x"), Some(&Atom::int(2)));
    }
}
