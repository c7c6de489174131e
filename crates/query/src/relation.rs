//! Relations whose attributes may be uncertain.

use crate::{QueryError, Result};
use udf_core::udf::BlackBoxUdf;
use udf_prob::{Degenerate, InputDistribution, Normal, Univariate};

/// One attribute value: deterministic or Gaussian-uncertain (the paper's
/// SDSS modeling; richer marginals can be added the same way).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Known constant.
    Det(f64),
    /// Gaussian-uncertain attribute `N(mu, sigma²)`.
    Gaussian {
        /// Mean.
        mu: f64,
        /// Standard deviation.
        sigma: f64,
    },
}

impl Value {
    /// Expected value of the attribute.
    pub fn mean(&self) -> f64 {
        match self {
            Value::Det(v) => *v,
            Value::Gaussian { mu, .. } => *mu,
        }
    }

    /// View as a sampling marginal — the distribution
    /// [`UdfCall::input_distribution`] builds per argument.
    pub fn marginal(&self) -> Result<Box<dyn Univariate>> {
        match self {
            Value::Det(v) => Ok(Box::new(Degenerate::new(*v)?)),
            Value::Gaussian { mu, sigma } => Ok(Box::new(Normal::new(*mu, *sigma)?)),
        }
    }
}

/// Column names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<String>,
}

impl Schema {
    /// Build from column names.
    pub fn new(columns: &[&str]) -> Self {
        Schema {
            columns: columns.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| QueryError::UnknownColumn(name.to_string()))
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Concatenate two schemas with prefixes (for joins):
    /// `g1.redshift`, `g2.redshift`, ...
    ///
    /// Fails with [`QueryError::DuplicateColumn`] when the prefixed names
    /// collide — equal prefixes over overlapping columns, or a prefix that
    /// reproduces an already-qualified column of the other side (joining a
    /// join). The old silent behavior made the duplicate unresolvable by
    /// name, poisoning every later [`Schema::index_of`].
    pub fn join(&self, prefix_a: &str, other: &Schema, prefix_b: &str) -> Result<Schema> {
        let mut columns: Vec<String> = self
            .columns
            .iter()
            .map(|c| format!("{prefix_a}.{c}"))
            .collect();
        columns.extend(other.columns.iter().map(|c| format!("{prefix_b}.{c}")));
        let mut seen = std::collections::BTreeSet::new();
        for c in &columns {
            if !seen.insert(c.as_str()) {
                return Err(QueryError::DuplicateColumn(c.clone()));
            }
        }
        Ok(Schema { columns })
    }
}

/// A row.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Build from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// Attribute at `idx`.
    pub fn value(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// All attributes.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Concatenate (for joins).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = self.values.clone();
        values.extend(other.values.iter().cloned());
        Tuple { values }
    }
}

/// A materialized relation.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    tuples: Vec<Tuple>,
}

impl Relation {
    /// Build, checking arity.
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Result<Self> {
        for t in &tuples {
            if t.values().len() != schema.arity() {
                return Err(QueryError::ArityMismatch {
                    expected: schema.arity(),
                    found: t.values().len(),
                });
            }
        }
        Ok(Relation { schema, tuples })
    }

    /// Schema accessor.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Tuples accessor.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Cartesian product with prefixed column names (Q2's self-join; an
    /// optional pair filter trims the quadratic blowup, e.g. `i < j`).
    ///
    /// Fails with [`QueryError::DuplicateColumn`] on colliding prefixes and
    /// with [`QueryError::JoinTooLarge`] when the cross product exceeds
    /// [`u32::MAX`] pairs — materializing (or even enumerating) more would
    /// OOM long before producing anything useful.
    pub fn cross_join(
        &self,
        prefix_a: &str,
        other: &Relation,
        prefix_b: &str,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Result<Relation> {
        let schema = self.schema.join(prefix_a, &other.schema, prefix_b)?;
        let pairs = (self.len() as u64).checked_mul(other.len() as u64);
        if pairs.is_none_or(|p| p > u32::MAX as u64) {
            return Err(QueryError::JoinTooLarge {
                left: self.len(),
                right: other.len(),
            });
        }
        let mut tuples = Vec::new();
        for (i, a) in self.tuples.iter().enumerate() {
            for (j, b) in other.tuples.iter().enumerate() {
                if keep(i, j) {
                    tuples.push(a.concat(b));
                }
            }
        }
        Ok(Relation { schema, tuples })
    }
}

/// A UDF applied to a list of columns, e.g. `GalAge(redshift)`.
#[derive(Debug, Clone)]
pub struct UdfCall {
    /// The black-box function.
    pub udf: BlackBoxUdf,
    /// Argument column indices (resolved against the input schema).
    pub args: Vec<usize>,
}

impl UdfCall {
    /// Resolve argument names against a schema.
    pub fn resolve(udf: BlackBoxUdf, schema: &Schema, arg_names: &[&str]) -> Result<Self> {
        let args = arg_names
            .iter()
            .map(|n| schema.index_of(n))
            .collect::<Result<Vec<_>>>()?;
        if args.len() != udf.dim() {
            return Err(QueryError::Core(udf_core::CoreError::DimensionMismatch {
                expected: udf.dim(),
                found: args.len(),
            }));
        }
        Ok(UdfCall { udf, args })
    }

    /// The joint distribution of the UDF's input vector on one tuple.
    pub fn input_distribution(&self, tuple: &Tuple) -> Result<InputDistribution> {
        let marginals = self
            .args
            .iter()
            .map(|&i| tuple.value(i).marginal())
            .collect::<Result<Vec<_>>>()?;
        Ok(InputDistribution::independent(marginals)?)
    }

    /// Every tuple of `rel` as a `(tuple index, input distribution)` pair —
    /// the indexed list the executor's batch entry points take.
    pub fn indexed_inputs(&self, rel: &Relation) -> Result<Vec<(usize, InputDistribution)>> {
        rel.tuples()
            .iter()
            .enumerate()
            .map(|(i, t)| Ok((i, self.input_distribution(t)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn galaxy() -> Relation {
        let schema = Schema::new(&["objID", "redshift"]);
        let tuples = vec![
            Tuple::new(vec![
                Value::Det(1.0),
                Value::Gaussian {
                    mu: 0.5,
                    sigma: 0.02,
                },
            ]),
            Tuple::new(vec![
                Value::Det(2.0),
                Value::Gaussian {
                    mu: 1.1,
                    sigma: 0.05,
                },
            ]),
        ];
        Relation::new(schema, tuples).unwrap()
    }

    #[test]
    fn schema_lookup() {
        let r = galaxy();
        assert_eq!(r.schema().index_of("redshift").unwrap(), 1);
        assert!(matches!(
            r.schema().index_of("nope"),
            Err(QueryError::UnknownColumn(_))
        ));
    }

    #[test]
    fn arity_checked() {
        let schema = Schema::new(&["a", "b"]);
        let bad = vec![Tuple::new(vec![Value::Det(1.0)])];
        assert!(matches!(
            Relation::new(schema, bad),
            Err(QueryError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn cross_join_prefixes_and_filters() {
        let r = galaxy();
        let j = r.cross_join("g1", &r, "g2", |i, jj| i < jj).unwrap();
        assert_eq!(j.len(), 1); // (0,1) only
        assert_eq!(j.schema().arity(), 4);
        assert_eq!(j.schema().index_of("g2.redshift").unwrap(), 3);
    }

    #[test]
    fn cross_join_rejects_colliding_prefixes() {
        let r = galaxy();
        // Equal prefixes duplicate every column name.
        assert!(matches!(
            r.cross_join("g", &r, "g", |_, _| true),
            Err(QueryError::DuplicateColumn(c)) if c == "g.objID"
        ));
        // A prefix can also reproduce an already-qualified column of the
        // other side (joining a previous join): "a" + "b.x" ≡ "a.b" + "x".
        let left = Relation::new(
            Schema::new(&["b.x"]),
            vec![Tuple::new(vec![Value::Det(1.0)])],
        )
        .unwrap();
        let right =
            Relation::new(Schema::new(&["x"]), vec![Tuple::new(vec![Value::Det(2.0)])]).unwrap();
        assert!(matches!(
            left.cross_join("a", &right, "a.b", |_, _| true),
            Err(QueryError::DuplicateColumn(c)) if c == "a.b.x"
        ));
        // Distinct prefixes on distinct schemas stay fine.
        assert!(r.cross_join("g1", &r, "g2", |_, _| true).is_ok());
    }

    #[test]
    fn cross_join_rejects_pair_blowup() {
        // 2^16 × 2^16 candidate pairs exceed u32::MAX by one; the join must
        // refuse before enumerating anything.
        let n = 1usize << 16;
        let schema = Schema::new(&["x"]);
        let tuples = vec![Tuple::new(vec![Value::Det(0.0)]); n];
        let big = Relation::new(schema, tuples).unwrap();
        assert!(matches!(
            big.cross_join("a", &big, "b", |_, _| false),
            Err(QueryError::JoinTooLarge {
                left,
                right
            }) if left == n && right == n
        ));
    }

    #[test]
    fn udf_call_builds_input_distribution() {
        let r = galaxy();
        let udf = BlackBoxUdf::from_fn("id", 1, |x| x[0]);
        let call = UdfCall::resolve(udf, r.schema(), &["redshift"]).unwrap();
        let d = call.input_distribution(&r.tuples()[0]).unwrap();
        assert_eq!(d.dim(), 1);
        assert_eq!(d.mean(), vec![0.5]);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(d.sample(&mut rng)[0].is_finite());
    }

    #[test]
    fn udf_call_rejects_wrong_arity() {
        let r = galaxy();
        let udf = BlackBoxUdf::from_fn("two", 2, |x| x[0] + x[1]);
        assert!(UdfCall::resolve(udf, r.schema(), &["redshift"]).is_err());
    }

    #[test]
    fn deterministic_values_become_degenerate() {
        let r = galaxy();
        let udf = BlackBoxUdf::from_fn("both", 2, |x| x[0] + x[1]);
        let call = UdfCall::resolve(udf, r.schema(), &["objID", "redshift"]).unwrap();
        let d = call.input_distribution(&r.tuples()[0]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5 {
            assert_eq!(d.sample(&mut rng)[0], 1.0, "objID is deterministic");
        }
    }
}
