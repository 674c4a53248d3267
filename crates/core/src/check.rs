//! The unified [`Checker`] facade over the equivalence hierarchy.
//!
//! One builder in front of one engine ([`crate::parallel`]): pick a
//! [`Tier`], optionally a [`ParallelConfig`], a [`CheckBudget`] and an
//! [`Observer`], and [`Checker::run`] returns the engine's structured
//! [`Verdict`].
//!
//! ```
//! use std::sync::Arc;
//! use dme_core::enumerate::enumerate_rel_ops;
//! use dme_core::model::relational_model;
//! use dme_core::{witness, Checker, Tier};
//! use dme_relation::RelationState;
//!
//! let model = |name: &str, schema| {
//!     let ops = enumerate_rel_ops(&schema, 1);
//!     relational_model(name, RelationState::empty(Arc::new(schema)), ops)
//! };
//! let m = model("micro", witness::micro_relational_schema());
//! let n = model("renamed", witness::micro_relational_schema_renamed());
//! let verdict = Checker::new(&m, &n).tier(Tier::Isomorphic).run().unwrap();
//! assert!(verdict.is_equivalent());
//! ```
//!
//! Every tier and target runs on the same engine; the thread count is a
//! setting of it, and the default is one deterministic thread. The
//! differential suites pin the engine's verdicts, at every thread count,
//! to the independent oracle in [`crate::slow_reference`].

use std::fmt;
use std::slice;

use dme_logic::ToFacts;
use dme_obs::{EventSink, Metric, Observer};

use crate::equiv::{CheckError, EquivKind};
use crate::model::FiniteModel;
use crate::parallel::{self, CheckBudget, ParallelConfig, Verdict};

/// Default closure cap when [`Checker::state_cap`] is not called:
/// generous for the paper's witness models, small enough that an
/// accidentally-infinite model errors quickly.
pub const DEFAULT_STATE_CAP: usize = 10_000;

/// Which rung of the equivalence hierarchy (Definitions 1–6) to decide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Definition 1, lifted to whole models: the *i*-th left operation
    /// must be operation equivalent to the *i*-th right operation.
    /// Only meaningful for [`Checker::new`] pairs.
    Operation,
    /// Definition 2: a 1-1 correspondence of simple operations.
    Isomorphic,
    /// Definition 3: simple operations matched by compositions of at
    /// most `max_depth` operations.
    Composed {
        /// Maximum composition length searched.
        max_depth: usize,
    },
    /// Definition 5: per equivalent state pair, simple operations
    /// matched by compositions of at most `max_depth` operations.
    StateDependent {
        /// Maximum composition length searched.
        max_depth: usize,
    },
    /// Definition 6: data-model (set-of-models) equivalence, deciding
    /// each model pair under `kind`.
    DataModel {
        /// The application-model equivalence used per pair.
        kind: EquivKind,
    },
}

impl Tier {
    /// The tier deciding [`EquivKind`] for a single model pair — the
    /// bridge from the historical `application_models_equivalent(kind)`
    /// call shape.
    pub fn from_kind(kind: EquivKind) -> Self {
        match kind {
            EquivKind::Isomorphic => Tier::Isomorphic,
            EquivKind::Composed { max_depth } => Tier::Composed { max_depth },
            EquivKind::StateDependent { max_depth } => Tier::StateDependent { max_depth },
        }
    }

    /// The per-pair [`EquivKind`] this tier decides with (`None` for
    /// [`Tier::Operation`], which has no set-level lifting; the engine
    /// reads `None` as Definition 1's index-aligned comparison).
    pub(crate) fn kind(&self) -> Option<EquivKind> {
        match *self {
            Tier::Operation => None,
            Tier::Isomorphic => Some(EquivKind::Isomorphic),
            Tier::Composed { max_depth } => Some(EquivKind::Composed { max_depth }),
            Tier::StateDependent { max_depth } => Some(EquivKind::StateDependent { max_depth }),
            Tier::DataModel { kind } => Some(kind),
        }
    }
}

/// What a [`Checker`] compares: one model pair or two model sets.
enum Target<'a, MS, MO, NS, NO> {
    Pair(&'a FiniteModel<MS, MO>, &'a FiniteModel<NS, NO>),
    Sets(&'a [FiniteModel<MS, MO>], &'a [FiniteModel<NS, NO>]),
}

/// The unified equivalence checker: a builder over the six tiers,
/// engine threads, budgets and observability.
///
/// Construction picks the target ([`Checker::new`] for an
/// application-model pair, [`Checker::data_models`] for Definition 6
/// sets); the builder methods refine the check; [`Checker::run`]
/// decides it on the engine. Every tier, [`Tier::Operation`] included,
/// honours the thread count and the budget. Each run compiles every
/// closure's states once, for itself alone.
pub struct Checker<'a, MS, MO, NS, NO> {
    target: Target<'a, MS, MO, NS, NO>,
    tier: Tier,
    state_cap: usize,
    parallel: Option<ParallelConfig>,
    budget: Option<CheckBudget>,
    observer: Observer,
}

impl<'a, MS, MO, NS, NO> Checker<'a, MS, MO, NS, NO> {
    fn with_target(target: Target<'a, MS, MO, NS, NO>, tier: Tier) -> Self {
        Checker {
            target,
            tier,
            state_cap: DEFAULT_STATE_CAP,
            parallel: None,
            budget: None,
            observer: Observer::disabled(),
        }
    }

    /// A checker over one application-model pair. Defaults to
    /// [`Tier::Isomorphic`] (Definition 2), one engine thread,
    /// unbudgeted, unobserved.
    pub fn new(m: &'a FiniteModel<MS, MO>, n: &'a FiniteModel<NS, NO>) -> Self {
        Self::with_target(Target::Pair(m, n), Tier::Isomorphic)
    }

    /// A checker over two data models (sets of application models).
    /// Defaults to Definition 6 over [`EquivKind::Isomorphic`].
    pub fn data_models(ms: &'a [FiniteModel<MS, MO>], ns: &'a [FiniteModel<NS, NO>]) -> Self {
        Self::with_target(
            Target::Sets(ms, ns),
            Tier::DataModel {
                kind: EquivKind::Isomorphic,
            },
        )
    }

    /// Selects the equivalence tier. A non-[`Tier::DataModel`] tier on
    /// a [`Checker::data_models`] target is shorthand for Definition 6
    /// with that tier's per-pair kind.
    pub fn tier(mut self, tier: Tier) -> Self {
        self.tier = tier;
        self
    }

    /// Caps closure enumeration at `cap` states per model (default
    /// [`DEFAULT_STATE_CAP`]); exceeding it is [`CheckError::Closure`].
    pub fn state_cap(mut self, cap: usize) -> Self {
        self.state_cap = cap;
        self
    }

    /// Runs the engine with `config` instead of the default one
    /// thread. A budget set via [`Checker::budget`] overrides
    /// `config.budget`.
    pub fn parallel(mut self, config: ParallelConfig) -> Self {
        self.parallel = Some(config);
        self
    }

    /// Bounds the check; exhausting the budget yields
    /// [`Verdict::BudgetExhausted`], never an answer.
    pub fn budget(mut self, budget: CheckBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Attaches an observer; its sink receives the engine's spans and
    /// counters. [`Observer::disabled`] (the default) costs one branch
    /// per instrumentation site.
    pub fn observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Shorthand for [`Checker::observer`] with a fresh
    /// [`Observer::new`] over `sink`.
    pub fn sink(self, sink: impl EventSink + 'static) -> Self {
        self.observer(Observer::new(sink))
    }
}

impl<MS, MO, NS, NO> Checker<'_, MS, MO, NS, NO>
where
    MS: Clone + Ord + ToFacts + Send + Sync,
    NS: Clone + Ord + ToFacts + Send + Sync,
    MO: Clone + fmt::Display + Send + Sync,
    NO: Clone + fmt::Display + Send + Sync,
{
    /// Decides the configured equivalence on the engine and returns the
    /// structured [`Verdict`]. Wall time lands in the observer's
    /// [`Metric::CheckLatency`] histogram.
    pub fn run(&self) -> Result<Verdict, CheckError> {
        let _timer = self.observer.time(Metric::CheckLatency);
        let mut config = self.parallel.unwrap_or(ParallelConfig::with_threads(1));
        if let Some(budget) = self.budget {
            config.budget = budget;
        }
        let (ms, ns, kind) = match (&self.target, self.tier) {
            (Target::Sets(..), Tier::Operation) => {
                return Err(CheckError::Unsupported(
                    "Definition 1 compares the aligned operations of a single model pair; \
                     data-model sets have no operation alignment"
                        .into(),
                ))
            }
            (Target::Pair(m, n), Tier::DataModel { kind }) => {
                (slice::from_ref(*m), slice::from_ref(*n), kind)
            }
            (Target::Sets(ms, ns), tier) => {
                (*ms, *ns, tier.kind().expect("Operation tier handled above"))
            }
            (Target::Pair(m, n), tier) => {
                return parallel::models_verdict(
                    m,
                    n,
                    tier.kind(),
                    self.state_cap,
                    &config,
                    &self.observer,
                )
            }
        };
        parallel::data_models_verdict(ms, ns, kind, self.state_cap, &config, &self.observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_logic::{Fact, FactBase};
    use dme_obs::{Counter, Observer, Report, RingSink};
    use dme_value::Atom;
    use std::collections::BTreeMap;

    fn f(n: i64) -> Fact {
        Fact::new("p", [("x", Atom::Int(n))])
    }

    fn toy_model(name: &str, ops: Vec<(bool, Fact)>) -> FiniteModel<FactBase, String> {
        let universe: BTreeMap<String, (bool, Fact)> = ops
            .into_iter()
            .map(|(add, fact)| {
                (
                    format!("{}{}", if add { "+" } else { "-" }, fact),
                    (add, fact),
                )
            })
            .collect();
        let op_names: Vec<String> = universe.keys().cloned().collect();
        FiniteModel::new(name, FactBase::default(), op_names, move |op, s| {
            let (add, fact) = &universe[op];
            let mut next = s.clone();
            if *add {
                next.insert(fact.clone()).then_some(next)
            } else {
                next.remove(fact).then_some(next)
            }
        })
    }

    fn two_fact_model(name: &str) -> FiniteModel<FactBase, String> {
        toy_model(
            name,
            vec![(true, f(1)), (true, f(2)), (false, f(1)), (false, f(2))],
        )
    }

    #[test]
    fn default_tier_is_isomorphic_on_one_thread() {
        let m = two_fact_model("m");
        let n = two_fact_model("n");
        let verdict = Checker::new(&m, &n).run().unwrap();
        assert_eq!(verdict, Verdict::Equivalent { state_pairs: 4 });
    }

    #[test]
    fn operation_tier_compares_aligned_signatures() {
        let m = two_fact_model("m");
        let n = two_fact_model("n");
        let verdict = Checker::new(&m, &n).tier(Tier::Operation).run().unwrap();
        assert_eq!(verdict, Verdict::Equivalent { state_pairs: 4 });
    }

    #[test]
    fn operation_tier_honours_threads_and_budget() {
        let m = two_fact_model("m");
        let n = two_fact_model("n");
        let verdict = Checker::new(&m, &n)
            .tier(Tier::Operation)
            .parallel(ParallelConfig::with_threads(2))
            .run()
            .unwrap();
        assert_eq!(verdict, Verdict::Equivalent { state_pairs: 4 });
        let starved = Checker::new(&m, &n)
            .tier(Tier::Operation)
            .budget(CheckBudget::nodes(3))
            .run()
            .unwrap();
        assert!(
            matches!(starved, Verdict::BudgetExhausted { .. }),
            "{starved}"
        );
    }

    #[test]
    fn composed_finds_two_step_equivalents() {
        // m's `+1+2` inserts both facts at once; n can only insert them
        // one at a time, so the match needs a composition of depth 2.
        let m = FiniteModel::new(
            "m",
            FactBase::default(),
            vec!["+1".to_owned(), "+2".to_owned(), "+1+2".to_owned()],
            |op: &String, s: &FactBase| {
                let mut next = s.clone();
                let facts: &[i64] = match op.as_str() {
                    "+1" => &[1],
                    "+2" => &[2],
                    _ => &[1, 2],
                };
                facts.iter().all(|&x| next.insert(f(x))).then_some(next)
            },
        );
        let n = toy_model("n", vec![(true, f(1)), (true, f(2))]);
        let run = |tier| Checker::new(&m, &n).tier(tier).run().unwrap();
        assert!(run(Tier::Composed { max_depth: 2 }).is_equivalent());
        let shallow = run(Tier::Composed { max_depth: 1 });
        assert_eq!(shallow.witnesses().len(), 1, "{shallow}");
        assert_eq!(shallow.witnesses()[0].label, "+1+2");
        assert!(!run(Tier::Isomorphic).is_equivalent());
    }

    #[test]
    fn operation_tier_rejects_data_model_sets() {
        let ms = vec![two_fact_model("m")];
        let ns = vec![two_fact_model("n")];
        let err = Checker::data_models(&ms, &ns)
            .tier(Tier::Operation)
            .run()
            .unwrap_err();
        assert!(matches!(err, CheckError::Unsupported(_)), "{err}");
    }

    #[test]
    fn budget_exhausts_without_an_answer() {
        let m = two_fact_model("m");
        let n = two_fact_model("n");
        let verdict = Checker::new(&m, &n)
            .budget(CheckBudget::nodes(3))
            .run()
            .unwrap();
        assert!(
            matches!(verdict, Verdict::BudgetExhausted { .. }),
            "{verdict}"
        );
    }

    #[test]
    fn pair_under_data_model_tier_is_a_singleton_grid() {
        let m = two_fact_model("m");
        let n = two_fact_model("n");
        let verdict = Checker::new(&m, &n)
            .tier(Tier::DataModel {
                kind: EquivKind::Isomorphic,
            })
            .run()
            .unwrap();
        assert_eq!(verdict, Verdict::Equivalent { state_pairs: 1 });
    }

    #[test]
    fn observer_records_phases_without_changing_the_verdict() {
        let m = two_fact_model("m");
        let n = two_fact_model("n");
        let ring = RingSink::with_capacity(256);
        let obs = Observer::new(ring.clone());
        let observed = Checker::new(&m, &n)
            .tier(Tier::StateDependent { max_depth: 2 })
            .observer(obs.clone())
            .run()
            .unwrap();
        let silent = Checker::new(&m, &n)
            .tier(Tier::StateDependent { max_depth: 2 })
            .run()
            .unwrap();
        assert_eq!(observed, silent);
        let report = Report::from_events(&ring.events()).with_totals(obs.counters());
        assert!(report.phase("par/check").is_some());
        assert!(report.phase("par/reachability").is_some());
        assert!(obs.counter(Counter::StatesEnumerated) > 0);
    }

    #[test]
    fn from_kind_round_trips() {
        for kind in [
            EquivKind::Isomorphic,
            EquivKind::Composed { max_depth: 3 },
            EquivKind::StateDependent { max_depth: 1 },
        ] {
            assert_eq!(Tier::from_kind(kind).kind(), Some(kind));
        }
        assert_eq!(Tier::Operation.kind(), None);
        assert_eq!(
            Tier::DataModel {
                kind: EquivKind::Isomorphic
            }
            .kind(),
            Some(EquivKind::Isomorphic)
        );
    }
}
