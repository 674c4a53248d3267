//! Interned-style names.
//!
//! Every schema-level name in the workspace — relation names, predicate
//! names, case names, characteristic names, domain names, entity-type
//! names, role names — is a [`Symbol`]. A `Symbol` is a cheaply cloneable,
//! ordered, hashable string. We use `Arc<str>` so that the very wide fan-out
//! of name references in schemas, states, and compiled fact bases shares a
//! single allocation per distinct name.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// An immutable, cheaply cloneable name.
///
/// ```
/// use dme_value::Symbol;
/// let s = Symbol::new("operate");
/// let t = s.clone(); // refcount bump, no allocation
/// assert_eq!(s, t);
/// assert_eq!(s.as_str(), "operate");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(Arc<str>);

impl Symbol {
    /// Creates a symbol from anything string-like.
    pub fn new(name: impl AsRef<str>) -> Self {
        Symbol(Arc::from(name.as_ref()))
    }

    /// The underlying string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether this symbol is the empty string. Empty symbols are never
    /// valid schema names; constructors in higher layers reject them.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", &self.0)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol(Arc::from(s))
    }
}

impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// Convenience macro for building a `Symbol` from a literal.
///
/// ```
/// use dme_value::{sym, Symbol};
/// let s: Symbol = sym!("supervise");
/// assert_eq!(s, "supervise");
/// ```
#[macro_export]
macro_rules! sym {
    ($s:expr) => {
        $crate::Symbol::new($s)
    };
}

/// Sorts name-keyed bindings by name, keeping only the last binding of
/// a name given twice: the entries, in order, of the map
/// `FromIterator` would build from the same pairs. Compact sorted-slice
/// maps (an association's roles, a fact's cases) are built with it.
pub fn sort_bindings<T>(bindings: &mut Vec<(Symbol, T)>) {
    // Reversed, then stably sorted: each name's last binding leads its
    // run, and `dedup_by` keeps the first of a run.
    bindings.reverse();
    bindings.sort_by(|a, b| a.0.cmp(&b.0));
    bindings.dedup_by(|later, kept| later.0 == kept.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn symbols_compare_by_content() {
        assert_eq!(Symbol::new("a"), Symbol::new("a"));
        assert_ne!(Symbol::new("a"), Symbol::new("b"));
        assert!(Symbol::new("a") < Symbol::new("b"));
    }

    #[test]
    fn symbols_work_as_set_keys_via_str_borrow() {
        let mut set = BTreeSet::new();
        set.insert(Symbol::new("operate"));
        assert!(set.contains("operate"));
        assert!(!set.contains("supervise"));
    }

    #[test]
    fn display_and_debug() {
        let s = Symbol::new("employee");
        assert_eq!(s.to_string(), "employee");
        assert_eq!(format!("{s:?}"), "Symbol(\"employee\")");
    }

    #[test]
    fn clone_is_shallow() {
        let s = Symbol::new("x");
        let t = s.clone();
        // Both point at the same allocation.
        assert!(std::ptr::eq(s.as_str(), t.as_str()));
    }

    #[test]
    fn string_round_trip() {
        let s = Symbol::new("machine");
        let back = Symbol::new(s.as_str());
        assert_eq!(back, s);
    }

    #[test]
    fn empty_detection() {
        assert!(Symbol::new("").is_empty());
        assert!(!Symbol::new("x").is_empty());
    }
}
