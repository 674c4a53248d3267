//! The pre-arena reference checkers: the engine's independent oracle.
//!
//! Before the state-arena kernel, the checkers enumerated closures as
//! `BTreeSet<S>` of whole cloned states, rebuilt every behaviour
//! signature by re-applying each operation to each paired state, and
//! tracked Definition 4–5 reachability in per-state `BTreeSet<u32>`s.
//! That path is kept here as a differential oracle for Definitions 1–6:
//! `tests/differential.rs`, `tests/facade.rs`, `tests/incremental.rs`
//! and `tests/symbolic.rs` assert the engine returns byte-identical
//! [`Verdict`]s — same answers, same witness labels in the same order,
//! same pairing and closure errors — at every thread count.
//!
//! Nothing in this module is reachable from the engine; it exists only
//! so the engine stays falsifiable.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use dme_logic::ToFacts;

use crate::equiv::{
    compose, identity_signature, pair_states, CheckError, DataModelReport, EquivKind, MatchReport,
    Signature,
};
use crate::model::{ClosureTooLarge, FiniteModel};
use crate::parallel::Verdict;

/// The original closure enumeration: breadth-first clone-apply over a
/// `BTreeSet` of whole states, one fresh successor allocation per
/// `(state, op)` probe.
pub fn reachable_states_slow<S, O>(
    model: &FiniteModel<S, O>,
    cap: usize,
) -> Result<BTreeSet<S>, ClosureTooLarge>
where
    S: Clone + Ord + ToFacts,
    O: Clone,
{
    let mut seen: BTreeSet<S> = BTreeSet::new();
    let mut frontier: Vec<S> = vec![model.initial().clone()];
    seen.insert(model.initial().clone());
    while let Some(state) = frontier.pop() {
        for op in model.ops() {
            if let Some(next) = model.apply(op, &state) {
                if !seen.contains(&next) {
                    if seen.len() >= cap {
                        return Err(ClosureTooLarge {
                            model: model.name().to_owned(),
                            cap,
                        });
                    }
                    seen.insert(next.clone());
                    frontier.push(next);
                }
            }
        }
    }
    Ok(seen)
}

/// The original signature construction: re-applies every operation to
/// every paired state and looks the successor up in a state-keyed map.
fn signatures<S, O>(model: &FiniteModel<S, O>, states: &[S]) -> Vec<Signature>
where
    S: Clone + Ord + ToFacts,
    O: Clone,
{
    let index: BTreeMap<&S, u32> = states
        .iter()
        .enumerate()
        .map(|(i, s)| (s, i as u32))
        .collect();
    model
        .ops()
        .iter()
        .map(|op| {
            states
                .iter()
                .map(|s| {
                    model.apply(op, s).map(|next| {
                        *index
                            .get(&next)
                            .expect("closure is closed under operations")
                    })
                })
                .collect()
        })
        .collect()
}

/// Enumerates both closures the old way and aligns them through the
/// §3.3.1 state equivalence correspondence.
fn paired_lists_slow<MS, MO, NS, NO>(
    m: &FiniteModel<MS, MO>,
    n: &FiniteModel<NS, NO>,
    state_cap: usize,
) -> Result<(Vec<MS>, Vec<NS>), CheckError>
where
    MS: Clone + Ord + ToFacts,
    NS: Clone + Ord + ToFacts,
    MO: Clone,
    NO: Clone,
{
    let m_states = reachable_states_slow(m, state_cap)?;
    let n_states = reachable_states_slow(n, state_cap)?;
    pair_states(&m_states, &n_states)
}

/// Definition 1 lifted to whole models, the way
/// [`Tier::Operation`](crate::check::Tier::Operation) decides it: the
/// *i*-th left operation must have the *i*-th right operation's
/// signature. A mismatched pair contributes both operations as
/// witnesses; an operation past the other side's last contributes
/// itself.
pub fn operation_pairs_verdict_slow<MS, MO, NS, NO>(
    m: &FiniteModel<MS, MO>,
    n: &FiniteModel<NS, NO>,
    state_cap: usize,
) -> Result<Verdict, CheckError>
where
    MS: Clone + Ord + ToFacts,
    NS: Clone + Ord + ToFacts,
    MO: Clone + fmt::Display,
    NO: Clone + fmt::Display,
{
    let (m_states, n_states) = paired_lists_slow(m, n, state_cap)?;
    let m_sigs = signatures(m, &m_states);
    let n_sigs = signatures(n, &n_states);
    let mut unmatched_m = Vec::new();
    let mut unmatched_n = Vec::new();
    for i in 0..m_sigs.len().max(n_sigs.len()) {
        match (m_sigs.get(i), n_sigs.get(i)) {
            (Some(a), Some(b)) if a == b => {}
            (Some(_), Some(_)) => {
                unmatched_m.push(m.ops()[i].to_string());
                unmatched_n.push(n.ops()[i].to_string());
            }
            (Some(_), None) => unmatched_m.push(m.ops()[i].to_string()),
            (None, Some(_)) => unmatched_n.push(n.ops()[i].to_string()),
            (None, None) => unreachable!("loop is bounded by the longer side"),
        }
    }
    Ok(MatchReport {
        equivalent: unmatched_m.is_empty() && unmatched_n.is_empty(),
        unmatched_m,
        unmatched_n,
        state_pairs: m_states.len(),
    }
    .to_verdict())
}

/// All signatures reachable by composing at most `max_depth` operations.
fn composable_signatures(
    op_sigs: &[Signature],
    pairs: usize,
    max_depth: usize,
) -> BTreeSet<Signature> {
    let mut seen: BTreeSet<Signature> = BTreeSet::new();
    let identity = identity_signature(pairs);
    seen.insert(identity.clone());
    let mut frontier = vec![identity];
    for _ in 0..max_depth {
        let mut next_frontier = Vec::new();
        for sig in &frontier {
            for op in op_sigs {
                let composed = compose(sig, op);
                if seen.insert(composed.clone()) {
                    next_frontier.push(composed);
                }
            }
        }
        if next_frontier.is_empty() {
            break;
        }
        frontier = next_frontier;
    }
    seen
}

/// The original per-state reachability: one `BTreeSet<u32>` per start
/// state instead of a word-packed bitset row.
fn reach_from_slow(op_sigs: &[Signature], start: u32, max_depth: usize) -> (BTreeSet<u32>, bool) {
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    seen.insert(start);
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
                    if seen.insert(next) {
                        queue.push_back((next, depth + 1));
                    }
                }
                None => error = true,
            }
        }
    }
    (seen, error)
}

fn per_state_reachability(
    op_sigs: &[Signature],
    pairs: usize,
    max_depth: usize,
) -> (Vec<BTreeSet<u32>>, Vec<bool>) {
    let mut reach: Vec<BTreeSet<u32>> = Vec::with_capacity(pairs);
    let mut can_error: Vec<bool> = vec![false; pairs];
    for start in 0..pairs as u32 {
        let (seen, error) = reach_from_slow(op_sigs, start, max_depth);
        reach.push(seen);
        can_error[start as usize] = error;
    }
    (reach, can_error)
}

fn isomorphic_report_slow<MS, MO, NS, NO>(
    m: &FiniteModel<MS, MO>,
    n: &FiniteModel<NS, NO>,
    state_cap: usize,
) -> Result<MatchReport, CheckError>
where
    MS: Clone + Ord + ToFacts,
    NS: Clone + Ord + ToFacts,
    MO: Clone + fmt::Display,
    NO: Clone + fmt::Display,
{
    let (m_states, n_states) = paired_lists_slow(m, n, state_cap)?;
    let m_sigs = signatures(m, &m_states);
    let n_sigs = signatures(n, &n_states);
    let n_set: BTreeSet<&Signature> = n_sigs.iter().collect();
    let m_set: BTreeSet<&Signature> = m_sigs.iter().collect();
    let unmatched_m: Vec<String> = m
        .ops()
        .iter()
        .zip(&m_sigs)
        .filter(|(_, sig)| !n_set.contains(sig))
        .map(|(op, _)| op.to_string())
        .collect();
    let unmatched_n: Vec<String> = n
        .ops()
        .iter()
        .zip(&n_sigs)
        .filter(|(_, sig)| !m_set.contains(sig))
        .map(|(op, _)| op.to_string())
        .collect();
    Ok(MatchReport {
        equivalent: unmatched_m.is_empty() && unmatched_n.is_empty(),
        unmatched_m,
        unmatched_n,
        state_pairs: m_states.len(),
    })
}

fn composed_report_slow<MS, MO, NS, NO>(
    m: &FiniteModel<MS, MO>,
    n: &FiniteModel<NS, NO>,
    state_cap: usize,
    max_depth: usize,
) -> Result<MatchReport, CheckError>
where
    MS: Clone + Ord + ToFacts,
    NS: Clone + Ord + ToFacts,
    MO: Clone + fmt::Display,
    NO: Clone + fmt::Display,
{
    let (m_states, n_states) = paired_lists_slow(m, n, state_cap)?;
    let pairs = m_states.len();
    let m_sigs = signatures(m, &m_states);
    let n_sigs = signatures(n, &n_states);
    let m_star = composable_signatures(&m_sigs, pairs, max_depth);
    let n_star = composable_signatures(&n_sigs, pairs, max_depth);
    let unmatched_m: Vec<String> = m
        .ops()
        .iter()
        .zip(&m_sigs)
        .filter(|(_, sig)| !n_star.contains(*sig))
        .map(|(op, _)| op.to_string())
        .collect();
    let unmatched_n: Vec<String> = n
        .ops()
        .iter()
        .zip(&n_sigs)
        .filter(|(_, sig)| !m_star.contains(*sig))
        .map(|(op, _)| op.to_string())
        .collect();
    Ok(MatchReport {
        equivalent: unmatched_m.is_empty() && unmatched_n.is_empty(),
        unmatched_m,
        unmatched_n,
        state_pairs: pairs,
    })
}

fn state_dependent_report_slow<MS, MO, NS, NO>(
    m: &FiniteModel<MS, MO>,
    n: &FiniteModel<NS, NO>,
    state_cap: usize,
    max_depth: usize,
) -> Result<MatchReport, CheckError>
where
    MS: Clone + Ord + ToFacts,
    NS: Clone + Ord + ToFacts,
    MO: Clone + fmt::Display,
    NO: Clone + fmt::Display,
{
    let (m_states, n_states) = paired_lists_slow(m, n, state_cap)?;
    let pairs = m_states.len();
    let m_sigs = signatures(m, &m_states);
    let n_sigs = signatures(n, &n_states);
    let (n_reach, n_err) = per_state_reachability(&n_sigs, pairs, max_depth);
    let (m_reach, m_err) = per_state_reachability(&m_sigs, pairs, max_depth);

    let check = |sigs: &[Signature],
                 ops: Vec<String>,
                 reach: &[BTreeSet<u32>],
                 err: &[bool]|
     -> Vec<String> {
        ops.into_iter()
            .zip(sigs)
            .filter(|(_, sig)| {
                (0..pairs).any(|i| match sig[i] {
                    Some(target) => !reach[i].contains(&target),
                    None => !err[i],
                })
            })
            .map(|(op, _)| op)
            .collect()
    };

    let unmatched_m = check(
        &m_sigs,
        m.ops().iter().map(ToString::to_string).collect(),
        &n_reach,
        &n_err,
    );
    let unmatched_n = check(
        &n_sigs,
        n.ops().iter().map(ToString::to_string).collect(),
        &m_reach,
        &m_err,
    );
    Ok(MatchReport {
        equivalent: unmatched_m.is_empty() && unmatched_n.is_empty(),
        unmatched_m,
        unmatched_n,
        state_pairs: pairs,
    })
}

/// The old application-model dispatcher: Definition 2, 3 or 5 over the
/// BTreeSet closure path.
pub fn app_models_report_slow<MS, MO, NS, NO>(
    m: &FiniteModel<MS, MO>,
    n: &FiniteModel<NS, NO>,
    kind: EquivKind,
    state_cap: usize,
) -> Result<MatchReport, CheckError>
where
    MS: Clone + Ord + ToFacts,
    NS: Clone + Ord + ToFacts,
    MO: Clone + fmt::Display,
    NO: Clone + fmt::Display,
{
    match kind {
        EquivKind::Isomorphic => isomorphic_report_slow(m, n, state_cap),
        EquivKind::Composed { max_depth } => composed_report_slow(m, n, state_cap, max_depth),
        EquivKind::StateDependent { max_depth } => {
            state_dependent_report_slow(m, n, state_cap, max_depth)
        }
    }
}

/// The old Definition 2/3/5 check as a structured [`Verdict`], for
/// differential comparison against the arena engines.
pub fn app_models_verdict_slow<MS, MO, NS, NO>(
    m: &FiniteModel<MS, MO>,
    n: &FiniteModel<NS, NO>,
    kind: EquivKind,
    state_cap: usize,
) -> Result<Verdict, CheckError>
where
    MS: Clone + Ord + ToFacts,
    NS: Clone + Ord + ToFacts,
    MO: Clone + fmt::Display,
    NO: Clone + fmt::Display,
{
    Ok(app_models_report_slow(m, n, kind, state_cap)?.to_verdict())
}

/// The old Definition 6 grid over the BTreeSet path, re-enumerating each
/// model's closure once per grid cell exactly as the pre-arena engine
/// did.
pub fn data_model_verdict_slow<MS, MO, NS, NO>(
    ms: &[FiniteModel<MS, MO>],
    ns: &[FiniteModel<NS, NO>],
    kind: EquivKind,
    state_cap: usize,
) -> Result<Verdict, CheckError>
where
    MS: Clone + Ord + ToFacts,
    NS: Clone + Ord + ToFacts,
    MO: Clone + fmt::Display,
    NO: Clone + fmt::Display,
{
    let mut matches_m: Vec<(String, Vec<String>)> = Vec::new();
    let mut matches_n: Vec<(String, Vec<String>)> = ns
        .iter()
        .map(|n| (n.name().to_owned(), Vec::new()))
        .collect();
    for m in ms {
        let mut found = Vec::new();
        for (ni, n) in ns.iter().enumerate() {
            // A pairing failure means "not equivalent", not a checker
            // error: the two models express different application states.
            let report = match app_models_report_slow(m, n, kind, state_cap) {
                Ok(r) => r,
                Err(CheckError::Pairing(_)) => continue,
                Err(e) => return Err(e),
            };
            if report.equivalent {
                found.push(n.name().to_owned());
                matches_n[ni].1.push(m.name().to_owned());
            }
        }
        matches_m.push((m.name().to_owned(), found));
    }
    let equivalent = matches_m.iter().all(|(_, v)| !v.is_empty())
        && matches_n.iter().all(|(_, v)| !v.is_empty());
    Ok(DataModelReport {
        equivalent,
        matches_m,
        matches_n,
    }
    .to_verdict())
}
