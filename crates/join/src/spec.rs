//! The declarative description of one uncertain θ-join.

use udf_core::config::AccuracyRequirement;
use udf_core::filtering::Predicate;
use udf_core::udf::BlackBoxUdf;
use udf_core::{CoreError, Result};
use udf_prob::InputDistribution;
use udf_query::{EvalStrategy, Relation, Tuple};

/// Which join side an argument or key column is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The left relation.
    Left,
    /// The right relation.
    Right,
}

/// One UDF argument (or ON operand): a resolved column on one side.
#[derive(Debug, Clone)]
pub struct JoinAttr {
    /// Which side the column lives on.
    pub side: Side,
    /// Column index into that side's schema.
    pub index: usize,
    /// Column name (unqualified).
    pub name: String,
}

/// The pair filter `mean(lhs) < mean(rhs)` over key columns — Q2's
/// `a.objID < b.objID` self-join deduplication. Means make deterministic
/// key columns compare exactly; on uncertain columns this compares
/// expected values (document your keys).
#[derive(Debug, Clone)]
pub struct OnCondition {
    /// Left operand of `<`.
    pub lhs: JoinAttr,
    /// Right operand of `<`.
    pub rhs: JoinAttr,
}

impl OnCondition {
    /// Evaluate the filter for the pair `(left_tuple, right_tuple)`.
    pub(crate) fn keep(&self, left: &Tuple, right: &Tuple) -> bool {
        let value = |attr: &JoinAttr| -> f64 {
            match attr.side {
                Side::Left => left.value(attr.index).mean(),
                Side::Right => right.value(attr.index).mean(),
            }
        };
        value(&self.lhs) < value(&self.rhs)
    }
}

/// Everything one uncertain θ-join needs: named sides, pair
/// filter, pair UDF with per-side argument bindings, the PR predicate,
/// and execution knobs. Build with [`JoinSpec::new`] and the chained
/// setters.
#[derive(Debug)]
pub struct JoinSpec<'a> {
    /// Left relation.
    pub left: &'a Relation,
    /// The left side's name (the UQL alias); the executor does not read it.
    pub left_prefix: String,
    /// Right relation.
    pub right: &'a Relation,
    /// The right side's name.
    pub right_prefix: String,
    /// Optional `ON lhs < rhs` pair filter.
    pub on: Option<OnCondition>,
    /// The pair UDF.
    pub udf: BlackBoxUdf,
    /// Resolved UDF arguments, in call order.
    pub args: Vec<JoinAttr>,
    /// `Pr[f ∈ [lo, hi]] ≥ θ` selection; `None` makes the join a pure
    /// pair projection.
    pub predicate: Option<Predicate>,
    /// Evaluation strategy for pair outputs.
    pub strategy: EvalStrategy,
    /// Accuracy requirement per pair.
    pub accuracy: AccuracyRequirement,
    /// Output-spread estimate (scales Γ and λ on the GP path).
    pub output_range: f64,
    /// GP model cap (0 = uncapped), enforced through
    /// [`udf_core::batch::Evaluator::new`].
    pub model_cap: usize,
    /// Always `false`: pair pruning was removed, and
    /// [`crate::JoinExecutor::new`] rejects a spec that sets it. Kept only
    /// for the benchmark ladder's `.prune(p.prune)` call; it goes when the
    /// ladder drops that call (ROADMAP item 11).
    pub prune: bool,
    /// Master RNG seed; pair `k` evaluates under
    /// [`mix_seed`](udf_core::sched::mix_seed)`(seed, 0, k)`.
    pub seed: u64,
}

impl<'a> JoinSpec<'a> {
    /// Build a spec, resolving `args` as `(side, column_name)` pairs
    /// against the respective schemas and checking the UDF arity.
    #[allow(clippy::too_many_arguments)] // a spec constructor names its parts
    pub fn new(
        left: &'a Relation,
        left_prefix: impl Into<String>,
        right: &'a Relation,
        right_prefix: impl Into<String>,
        udf: BlackBoxUdf,
        args: &[(Side, &str)],
        accuracy: AccuracyRequirement,
        output_range: f64,
    ) -> Result<Self> {
        let left_prefix = left_prefix.into();
        let right_prefix = right_prefix.into();
        if args.len() != udf.dim() {
            return Err(CoreError::InvalidJoin(format!(
                "UDF `{}` takes {} argument(s), got {}",
                udf.name(),
                udf.dim(),
                args.len()
            )));
        }
        let args = args
            .iter()
            .map(|&(side, name)| resolve(left, right, side, name))
            .collect::<Result<Vec<_>>>()?;
        Ok(JoinSpec {
            left,
            left_prefix,
            right,
            right_prefix,
            on: None,
            udf,
            args,
            predicate: None,
            strategy: EvalStrategy::Gp,
            accuracy,
            output_range,
            model_cap: 0,
            prune: false,
            seed: 0,
        })
    }

    /// Add `ON lhs < rhs`, each operand a `(side, column_name)` resolved
    /// against its side's schema.
    pub fn on_less_than(self, lhs: (Side, &str), rhs: (Side, &str)) -> Result<Self> {
        let lhs = resolve(self.left, self.right, lhs.0, lhs.1)?;
        let rhs = resolve(self.left, self.right, rhs.0, rhs.1)?;
        Ok(self.on(OnCondition { lhs, rhs }))
    }

    /// Attach a pre-resolved pair filter.
    pub fn on(mut self, on: OnCondition) -> Self {
        self.on = Some(on);
        self
    }

    /// Attach the PR predicate.
    pub fn predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = Some(predicate);
        self
    }

    /// Choose the evaluation strategy (default GP).
    pub fn strategy(mut self, strategy: EvalStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Set [`prune`](JoinSpec::prune); `true` makes
    /// [`crate::JoinExecutor::new`] fail with
    /// [`CoreError::InvalidJoin`].
    pub fn prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Set the master seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Cap the GP model (0 = uncapped, the default); at the cap it stops
    /// growing, like the UQL surface.
    pub fn model_cap(mut self, cap: usize) -> Self {
        self.model_cap = cap;
        self
    }

    /// The input distribution of pair `(i, j)`: each argument's marginal
    /// from its side, in call order.
    pub(crate) fn pair_input(&self, i: usize, j: usize) -> Result<InputDistribution> {
        let marginals = self
            .args
            .iter()
            .map(|a| match a.side {
                Side::Left => self.left.tuples()[i].value(a.index).clone(),
                Side::Right => self.right.tuples()[j].value(a.index).clone(),
            })
            .collect();
        Ok(InputDistribution::independent(marginals)?)
    }

    /// Candidate-pair filter for `(i, j)` (the `ON` condition, or
    /// everything when absent).
    pub(crate) fn keep(&self, i: usize, j: usize) -> bool {
        match &self.on {
            None => true,
            Some(on) => on.keep(&self.left.tuples()[i], &self.right.tuples()[j]),
        }
    }
}

fn resolve(left: &Relation, right: &Relation, side: Side, name: &str) -> Result<JoinAttr> {
    let schema = match side {
        Side::Left => left.schema(),
        Side::Right => right.schema(),
    };
    let index = schema.index_of(name)?;
    Ok(JoinAttr {
        side,
        index,
        name: name.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use udf_core::config::Metric;
    use udf_query::{Schema, Value};

    fn rel() -> Relation {
        let tuples = (0..3)
            .map(|i| {
                Tuple::new(vec![
                    Value::Det(i as f64),
                    Value::Gaussian {
                        mu: i as f64,
                        sigma: 0.1,
                    },
                ])
            })
            .collect();
        Relation::new(Schema::new(&["id", "z"]), tuples).unwrap()
    }

    fn acc() -> AccuracyRequirement {
        AccuracyRequirement::new(0.2, 0.05, 0.01, Metric::Discrepancy).unwrap()
    }

    #[test]
    fn resolves_args_and_checks_arity() {
        let r = rel();
        let udf = BlackBoxUdf::from_fn("d", 2, |x| x[0] - x[1]);
        let spec = JoinSpec::new(
            &r,
            "a",
            &r,
            "b",
            udf.clone(),
            &[(Side::Left, "z"), (Side::Right, "z")],
            acc(),
            1.0,
        )
        .unwrap();
        let sides: Vec<(Side, usize)> = spec.args.iter().map(|a| (a.side, a.index)).collect();
        assert_eq!(sides, vec![(Side::Left, 1), (Side::Right, 1)]);
        // Pair (0, 2) takes its first marginal from the left tuple 0 and its
        // second from the right tuple 2.
        assert_eq!(
            spec.pair_input(0, 2).unwrap(),
            InputDistribution::diagonal_gaussian(&[(0.0, 0.1), (2.0, 0.1)]).unwrap()
        );
        // Wrong arity.
        assert!(matches!(
            JoinSpec::new(
                &r,
                "a",
                &r,
                "b",
                udf.clone(),
                &[(Side::Left, "z")],
                acc(),
                1.0
            ),
            Err(CoreError::InvalidJoin(_))
        ));
        // Unknown column.
        assert!(matches!(
            JoinSpec::new(
                &r,
                "a",
                &r,
                "b",
                udf,
                &[(Side::Left, "z"), (Side::Right, "nope")],
                acc(),
                1.0
            ),
            Err(CoreError::UnknownColumn(_))
        ));
    }

    #[test]
    fn on_condition_filters_pairs() {
        let r = rel();
        let udf = BlackBoxUdf::from_fn("d", 2, |x| x[0] - x[1]);
        let spec = JoinSpec::new(
            &r,
            "a",
            &r,
            "b",
            udf,
            &[(Side::Left, "z"), (Side::Right, "z")],
            acc(),
            1.0,
        )
        .unwrap()
        .on_less_than((Side::Left, "id"), (Side::Right, "id"))
        .unwrap();
        let kept = r.pairs(&r, |i, j| spec.keep(i, j)).unwrap();
        assert_eq!(kept, vec![(0, 1), (0, 2), (1, 2)]);
    }
}
