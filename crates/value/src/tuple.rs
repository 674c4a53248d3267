//! Tuples (the paper's *statements*) and their componentwise semantic
//! partial order.
//!
//! A [`Tuple`] is a fixed-arity sequence of [`Value`]s. The semantic
//! relation model stores relations as sets of tuples; the
//! `insert-statements` operation type "is defined to automatically delete
//! all tuples in a relation *less than* those inserted" (§3.3.1), where
//! "less than" is the componentwise lift of the value order: `t ≤ u` iff
//! the tuples have the same arity and `t[i] ≤ u[i]` for every `i`.
//!
//! Under this order, the Figure 3 Jobs tuple `(----, T.Manhart, NZ745)` is
//! strictly less than the Figure 7 tuple `(G.Wayshum, T.Manhart, NZ745)`,
//! which is why inserting the latter silently removes the former.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Index;

use crate::Value;

/// A fixed-arity sequence of values; one statement of a relation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Box<[Value]>);

impl Tuple {
    /// Builds a tuple from any iterable of values.
    ///
    /// ```
    /// use dme_value::{Tuple, Value};
    /// let t = Tuple::new([Value::str("G.Wayshum"), Value::Null]);
    /// assert_eq!(t.arity(), 2);
    /// ```
    pub fn new(values: impl IntoIterator<Item = Value>) -> Self {
        Tuple(values.into_iter().collect())
    }

    /// Number of components.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Component access without panicking.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// Iterator over components.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &Value> {
        self.0.iter()
    }

    /// The components, consumed in column order.
    pub fn into_values(self) -> std::vec::IntoIter<Value> {
        self.0.into_vec().into_iter()
    }

    /// The underlying slice.
    pub fn as_slice(&self) -> &[Value] {
        &self.0
    }

    /// Whether any component is null.
    pub fn has_null(&self) -> bool {
        self.0.iter().any(Value::is_null)
    }

    /// Projects the tuple onto the given column indices. Returns `None` if
    /// any index is out of range.
    pub fn project(&self, columns: &[usize]) -> Option<Tuple> {
        columns
            .iter()
            .map(|&c| self.0.get(c).cloned())
            .collect::<Option<Vec<_>>>()
            .map(Tuple::new)
    }

    /// Concatenates two tuples (used by the semantic join operations).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple(self.0.iter().chain(other.0.iter()).cloned().collect())
    }

    /// Componentwise semantic partial order (see module docs).
    ///
    /// Tuples of different arity are incomparable.
    ///
    /// ```
    /// use std::cmp::Ordering;
    /// use dme_value::{Tuple, Value};
    ///
    /// let old = Tuple::new([Value::Null, Value::str("T.Manhart")]);
    /// let new = Tuple::new([Value::str("G.Wayshum"), Value::str("T.Manhart")]);
    /// assert_eq!(old.sem_cmp(&new), Some(Ordering::Less));
    /// ```
    pub fn sem_cmp(&self, other: &Tuple) -> Option<Ordering> {
        if self.arity() != other.arity() {
            return None;
        }
        let mut acc = Ordering::Equal;
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            let c = a.sem_cmp(b)?;
            acc = match (acc, c) {
                (Ordering::Equal, c) => c,
                (acc, Ordering::Equal) => acc,
                (Ordering::Less, Ordering::Less) => Ordering::Less,
                (Ordering::Greater, Ordering::Greater) => Ordering::Greater,
                // Mixed directions: incomparable.
                _ => return None,
            };
        }
        Some(acc)
    }

    /// `self ≤ other` componentwise.
    pub fn sem_le(&self, other: &Tuple) -> bool {
        matches!(
            self.sem_cmp(other),
            Some(Ordering::Less) | Some(Ordering::Equal)
        )
    }

    /// `self < other` componentwise: `other` dominates `self`.
    pub fn sem_lt(&self, other: &Tuple) -> bool {
        self.sem_cmp(other) == Some(Ordering::Less)
    }

    /// The least upper bound of two tuples in the semantic order, when it
    /// exists: componentwise, take the non-null value where exactly one
    /// side is null, the common value where both agree, and fail on a
    /// conflict of distinct atoms.
    ///
    /// Used by statement normalization: two statements that agree wherever
    /// both speak can sometimes be combined into their join (e.g. the
    /// Figure 3 Jobs rows `(G.Wayshum, C.Gershag, ----)` and
    /// `(----, C.Gershag, JCL181)` join to
    /// `(G.Wayshum, C.Gershag, JCL181)`).
    ///
    /// ```
    /// use dme_value::{tuple, Value};
    /// let a = tuple!["G.Wayshum", "C.Gershag", Value::Null];
    /// let b = tuple![Value::Null, "C.Gershag", "JCL181"];
    /// assert_eq!(a.sem_join(&b), Some(tuple!["G.Wayshum", "C.Gershag", "JCL181"]));
    ///
    /// let c = tuple![Value::Null, "T.Manhart", "NZ745"];
    /// assert_eq!(a.sem_join(&c), None); // C.Gershag vs T.Manhart conflict
    /// ```
    pub fn sem_join(&self, other: &Tuple) -> Option<Tuple> {
        if self.arity() != other.arity() {
            return None;
        }
        self.0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| match (a, b) {
                (Value::Null, v) | (v, Value::Null) => Some(v.clone()),
                (x, y) if x == y => Some(x.clone()),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()
            .map(Tuple::new)
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple::new(iter)
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    fn from(vs: [Value; N]) -> Self {
        Tuple::new(vs)
    }
}

/// Builds a [`Tuple`] from a comma-separated list of expressions, each
/// convertible into a [`Value`].
///
/// ```
/// use dme_value::{tuple, Tuple, Value};
/// let t = tuple!["T.Manhart", 32];
/// assert_eq!(t, Tuple::new([Value::str("T.Manhart"), Value::int(32)]));
/// let with_null = tuple![Value::Null, "NZ745"];
/// assert!(with_null.has_null());
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new([$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::str(s)
    }

    #[test]
    fn arity_and_access() {
        let t = tuple!["a", 1, Value::Null];
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], v("a"));
        assert_eq!(t.get(2), Some(&Value::Null));
        assert_eq!(t.get(3), None);
        assert!(t.has_null());
    }

    #[test]
    fn projection() {
        let t = tuple!["a", "b", "c"];
        assert_eq!(t.project(&[2, 0]), Some(tuple!["c", "a"]));
        assert_eq!(t.project(&[3]), None);
        assert_eq!(t.project(&[]), Some(Tuple::new([])));
    }

    #[test]
    fn concat() {
        let t = tuple!["a"].concat(&tuple!["b", "c"]);
        assert_eq!(t, tuple!["a", "b", "c"]);
    }

    #[test]
    fn different_arity_incomparable() {
        assert_eq!(tuple!["a"].sem_cmp(&tuple!["a", "b"]), None);
    }

    #[test]
    fn paper_figure7_subsumption_case() {
        // Figure 3 Jobs row 2 vs Figure 7 Jobs row 2.
        let old = tuple![Value::Null, "T.Manhart", "NZ745"];
        let new = tuple!["G.Wayshum", "T.Manhart", "NZ745"];
        assert!(old.sem_lt(&new));
        assert!(!new.sem_le(&old));
    }

    #[test]
    fn mixed_direction_incomparable() {
        let a = tuple![Value::Null, "x"];
        let b = tuple!["y", Value::Null];
        assert_eq!(a.sem_cmp(&b), None);
    }

    #[test]
    fn differing_atoms_incomparable() {
        let a = tuple!["x", "z"];
        let b = tuple!["y", "z"];
        assert_eq!(a.sem_cmp(&b), None);
    }

    #[test]
    fn equal_tuples() {
        let a = tuple!["x", Value::Null];
        assert_eq!(a.sem_cmp(&a.clone()), Some(Ordering::Equal));
        assert!(a.sem_le(&a));
        assert!(!a.sem_lt(&a));
    }

    #[test]
    fn order_properties_hold_on_sample() {
        let sample = vec![
            tuple![Value::Null, Value::Null],
            tuple![Value::Null, "b"],
            tuple!["a", Value::Null],
            tuple!["a", "b"],
            tuple!["a", "c"],
            tuple!["d", "b"],
        ];
        // Reflexivity + antisymmetry + transitivity on the sample.
        for x in &sample {
            assert!(x.sem_le(x));
            for y in &sample {
                if x.sem_le(y) && y.sem_le(x) {
                    assert_eq!(x, y);
                }
                for z in &sample {
                    if x.sem_le(y) && y.sem_le(z) {
                        assert!(x.sem_le(z), "{x} <= {y} <= {z}");
                    }
                }
            }
        }
    }

    #[test]
    fn display() {
        let t = tuple!["G.Wayshum", Value::Null, "JCL181"];
        assert_eq!(t.to_string(), "(G.Wayshum, ----, JCL181)");
    }

    #[test]
    fn join_is_least_upper_bound() {
        let a = tuple![Value::Null, "x"];
        let b = tuple!["y", Value::Null];
        let j = a.sem_join(&b).unwrap();
        assert_eq!(j, tuple!["y", "x"]);
        assert!(a.sem_le(&j));
        assert!(b.sem_le(&j));
    }

    #[test]
    fn join_of_comparable_is_the_larger() {
        let small = tuple![Value::Null, "x"];
        let big = tuple!["y", "x"];
        assert_eq!(small.sem_join(&big), Some(big.clone()));
        assert_eq!(big.sem_join(&small), Some(big.clone()));
        assert_eq!(big.sem_join(&big.clone()), Some(big));
    }

    #[test]
    fn join_fails_on_conflict_or_arity() {
        assert_eq!(tuple!["a"].sem_join(&tuple!["b"]), None);
        assert_eq!(tuple!["a"].sem_join(&tuple!["a", "b"]), None);
    }
}
