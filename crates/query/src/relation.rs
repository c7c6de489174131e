//! Relations whose attributes may be uncertain.

use udf_core::udf::BlackBoxUdf;
use udf_core::{CoreError, Result};
use udf_prob::{InputDistribution, Value};

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
    pub(crate) fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| CoreError::UnknownColumn(name.to_string()))
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Concatenate two schemas with prefixes (for joins):
    /// `g1.redshift`, `g2.redshift`, ...
    ///
    /// Fails with [`CoreError::DuplicateColumn`] when the prefixed names
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
                return Err(CoreError::DuplicateColumn(c.clone()));
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
    pub(crate) fn values(&self) -> &[Value] {
        &self.values
    }

    /// Concatenate (for joins).
    pub(crate) fn concat(&self, other: &Tuple) -> Tuple {
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
                return Err(CoreError::DimensionMismatch {
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

    /// The `(i, j)` index pairs of the cartesian product with `other` that
    /// `keep` admits, in row-major order: pair `k` is row `k` of
    /// [`cross_join`](Relation::cross_join) under the same `keep`.
    ///
    /// Fails with [`CoreError::JoinTooLarge`] when the cross product exceeds
    /// [`u32::MAX`] pairs — enumerating more would OOM long before producing
    /// anything useful.
    pub fn pairs(
        &self,
        other: &Relation,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Result<Vec<(usize, usize)>> {
        let pairs = (self.len() as u64).checked_mul(other.len() as u64);
        if pairs.is_none_or(|p| p > u32::MAX as u64) {
            return Err(CoreError::JoinTooLarge {
                left: self.len(),
                right: other.len(),
            });
        }
        Ok((0..self.len())
            .flat_map(|i| (0..other.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| keep(i, j))
            .collect())
    }

    /// Cartesian product with prefixed column names (Q2's self-join; an
    /// optional pair filter trims the quadratic blowup, e.g. `i < j`): the
    /// concatenated tuples of [`pairs`](Relation::pairs).
    ///
    /// Fails with [`CoreError::DuplicateColumn`] on colliding prefixes and
    /// as [`pairs`](Relation::pairs) does on a product past [`u32::MAX`].
    pub fn cross_join(
        &self,
        prefix_a: &str,
        other: &Relation,
        prefix_b: &str,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Result<Relation> {
        let schema = self.schema.join(prefix_a, &other.schema, prefix_b)?;
        let tuples = self
            .pairs(other, keep)?
            .into_iter()
            .map(|(i, j)| self.tuples[i].concat(&other.tuples[j]))
            .collect();
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
            return Err(CoreError::DimensionMismatch {
                expected: udf.dim(),
                found: args.len(),
            });
        }
        Ok(UdfCall { udf, args })
    }

    /// The joint distribution of the UDF's input vector on one tuple.
    pub fn input_distribution(&self, tuple: &Tuple) -> Result<InputDistribution> {
        let marginals = self.args.iter().map(|&i| tuple.value(i).clone()).collect();
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
            Err(CoreError::UnknownColumn(_))
        ));
    }

    #[test]
    fn arity_checked() {
        let schema = Schema::new(&["a", "b"]);
        let bad = vec![Tuple::new(vec![Value::Det(1.0)])];
        assert!(matches!(
            Relation::new(schema, bad),
            Err(CoreError::DimensionMismatch { .. })
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
            Err(CoreError::DuplicateColumn(c)) if c == "g.objID"
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
            Err(CoreError::DuplicateColumn(c)) if c == "a.b.x"
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
            Err(CoreError::JoinTooLarge {
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
        let (mut r1, mut r2) = (StdRng::seed_from_u64(1), StdRng::seed_from_u64(1));
        let want = 0.5 + 0.02 * udf_prob::dist::sample_standard_normal(&mut r2);
        assert_eq!(d.sample(&mut r1)[0], want);
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
