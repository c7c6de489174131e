//! One walk over the merged support of several empirical CDFs.
//!
//! Every metric and error bound on ECDFs is a supremum over the union of
//! their step points. The ECDFs already hold their samples sorted, so that
//! union never needs sorting or searching: [`MergedSupport`] merges the
//! `N` sorted arrays and yields each distinct support point once, ascending,
//! together with every ECDF's integer rank there (`count_le`). The CDF value
//! is `rank as f64 / len as f64` — the very float [`Ecdf::cdf`] returns —
//! and the left limit at a point is the previous point's rank.

use crate::ecdf::Ecdf;

/// Iterator over the distinct values of `N` ECDFs in ascending order, each
/// with the ranks `[count_le(v); N]`. `-0.0` and `+0.0` are one point.
#[derive(Debug, Clone)]
pub struct MergedSupport<'a, const N: usize> {
    values: [&'a [f64]; N],
    ranks: [usize; N],
}

impl<'a, const N: usize> MergedSupport<'a, N> {
    /// Start below every support point (all ranks 0).
    pub fn new(ecdfs: [&'a Ecdf; N]) -> Self {
        MergedSupport {
            values: ecdfs.map(Ecdf::values),
            ranks: [0; N],
        }
    }
}

impl<const N: usize> Iterator for MergedSupport<'_, N> {
    type Item = (f64, [usize; N]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        // An exhausted stream reads +∞, which no ECDF value equals (they
        // are finite by construction).
        let heads: [f64; N] = std::array::from_fn(|i| {
            let next = self.values[i].get(self.ranks[i]);
            next.copied().unwrap_or(f64::INFINITY)
        });
        let v = heads.iter().copied().fold(f64::INFINITY, f64::min);
        if v == f64::INFINITY {
            return None;
        }
        for ((rank, values), head) in self.ranks.iter_mut().zip(self.values).zip(heads) {
            // Which stream holds the minimum is a coin flip on interleaved
            // supports, so step over it with an add rather than a branch;
            // the loop only runs on ties inside one ECDF.
            *rank += usize::from(head == v);
            while values.get(*rank) == Some(&v) {
                *rank += 1;
            }
        }
        Some((v, self.ranks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(v: &[f64]) -> Ecdf {
        Ecdf::new(v.to_vec()).unwrap()
    }

    #[test]
    fn yields_each_distinct_point_once_with_count_le_ranks() {
        let a = e(&[1.0, 1.0, 3.0]);
        let b = e(&[0.5, 1.0, 4.0, 4.0]);
        let c = e(&[3.0]);
        let got: Vec<_> = MergedSupport::new([&a, &b, &c]).collect();
        assert_eq!(
            got,
            vec![
                (0.5, [0, 1, 0]),
                (1.0, [2, 2, 0]),
                (3.0, [3, 2, 1]),
                (4.0, [3, 4, 1]),
            ]
        );
        for (v, ranks) in got {
            assert_eq!(ranks, [a.count_le(v), b.count_le(v), c.count_le(v)]);
        }
    }

    #[test]
    fn signed_zeros_are_one_point() {
        let a = e(&[-0.0, 1.0]);
        let b = e(&[0.0, 0.0]);
        let got: Vec<_> = MergedSupport::new([&a, &b]).collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 0.0);
        assert_eq!(got[0].1, [1, 2]);
        assert_eq!(got[1], (1.0, [2, 2]));
    }

    #[test]
    fn single_stream_is_its_distinct_values() {
        let a = e(&[2.0, 2.0, 2.0, 5.0]);
        let got: Vec<_> = MergedSupport::new([&a]).collect();
        assert_eq!(got, vec![(2.0, [3]), (5.0, [4])]);
    }
}
