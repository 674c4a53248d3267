//! Property tests for fact bases: set-algebra laws and the delta/apply
//! round trip that operation-equivalence checking relies on.

use dme_logic::{Fact, FactBase, Pattern};
use dme_value::Atom;
use proptest::prelude::*;

fn arb_fact() -> impl Strategy<Value = Fact> {
    (
        prop_oneof![Just("p"), Just("q"), Just("be e"), Just("e.age")],
        -5i64..5,
        prop::option::of(-3i64..3),
    )
        .prop_map(|(pred, x, y)| {
            let mut args = vec![("x".to_owned(), Atom::Int(x))];
            if let Some(y) = y {
                args.push(("y".to_owned(), Atom::Int(y)));
            }
            Fact::new(pred, args)
        })
}

fn arb_base() -> impl Strategy<Value = FactBase> {
    prop::collection::vec(arb_fact(), 0..12).prop_map(FactBase::from_facts)
}

/// Patterns over the facts' predicates and one no fact has ("r", and
/// "" which sorts before all of them), binding `x`, `y`, both or neither.
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    (
        prop_oneof![
            Just("p"),
            Just("q"),
            Just("be e"),
            Just("e.age"),
            Just("r"),
            Just("")
        ],
        prop::option::of(-5i64..5),
        prop::option::of(-3i64..3),
    )
        .prop_map(|(pred, x, y)| {
            let mut pattern = Pattern::predicate(pred);
            if let Some(x) = x {
                pattern = pattern.with("x", Atom::Int(x));
            }
            if let Some(y) = y {
                pattern = pattern.with("y", Atom::Int(y));
            }
            pattern
        })
}

proptest! {
    /// `a.apply(a.delta_to(b)) == b` — the identity the translators'
    /// verification step depends on.
    #[test]
    fn delta_apply_round_trip(a in arb_base(), b in arb_base()) {
        let delta = a.delta_to(&b);
        prop_assert_eq!(a.apply(&delta), b);
    }

    #[test]
    fn delta_to_self_is_empty(a in arb_base()) {
        prop_assert!(a.delta_to(&a).is_empty());
    }

    #[test]
    fn union_and_difference_laws(a in arb_base(), b in arb_base()) {
        let u = a.union(&b);
        prop_assert!(u.entails(&a));
        prop_assert!(u.entails(&b));
        prop_assert_eq!(u.len(), a.len() + b.difference(&a).len());
        // difference ∪ intersection-part reconstructs a.
        let a_only = a.difference(&b);
        let shared = a.difference(&a_only);
        prop_assert_eq!(a_only.union(&shared), a);
    }

    #[test]
    fn entails_is_reflexive_and_transitive(a in arb_base(), b in arb_base(), c in arb_base()) {
        prop_assert!(a.entails(&a));
        let ab = a.union(&b);
        let abc = ab.union(&c);
        prop_assert!(abc.entails(&ab));
        prop_assert!(ab.entails(&a));
        prop_assert!(abc.entails(&a));
    }

    #[test]
    fn insert_remove_round_trip(mut a in arb_base(), f in arb_fact()) {
        let had = a.holds(&f);
        let inserted = a.insert(f.clone());
        prop_assert_eq!(inserted, !had);
        prop_assert!(a.holds(&f));
        prop_assert!(a.remove(&f));
        prop_assert!(!a.holds(&f));
    }

    /// The predicate-range lookups return exactly what a scan of every
    /// fact filtered by the pattern returns, in the same order, so the
    /// first match is unchanged.
    #[test]
    fn predicate_range_lookups_match_a_full_scan(a in arb_base(), p in arb_pattern()) {
        let scanned: Vec<&Fact> = a.iter().filter(|f| p.matches(f)).collect();
        prop_assert_eq!(a.matching(&p).collect::<Vec<_>>(), scanned.clone());
        prop_assert_eq!(a.find(&p), scanned.first().copied());
        let named = p.predicate_name().as_str();
        let same_predicate: Vec<&Fact> =
            a.iter().filter(|f| f.predicate().as_str() == named).collect();
        prop_assert_eq!(a.with_predicate(named).collect::<Vec<_>>(), same_predicate);
    }

    /// Deltas compose: applying delta(a→b) then delta(b→c) equals c.
    #[test]
    fn deltas_compose(a in arb_base(), b in arb_base(), c in arb_base()) {
        let ab = a.delta_to(&b);
        let bc = b.delta_to(&c);
        prop_assert_eq!(a.apply(&ab).apply(&bc), c);
    }
}
