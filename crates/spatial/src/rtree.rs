//! A scan-backed stand-in for the R-tree that local selection used to
//! query. Selection now reads the distances its γ bound already measures
//! (`udf_gp::local::select_local_with`); this type stays only because
//! `benchmark/src/bin/ladder.rs` names it, and ROADMAP item 11 deletes it.

use crate::BoundingBox;

/// `(point, id)` pairs answered by a linear scan.
///
/// ```
/// use udf_spatial::{BoundingBox, RTree};
/// let mut t = RTree::new(2);
/// for (i, p) in [[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]].iter().enumerate() {
///     t.insert(p.to_vec(), i);
/// }
/// let q = BoundingBox::new(vec![0.0, 0.0], vec![1.5, 1.5]);
/// let mut near = Vec::new();
/// t.query_within_into(&q, 0.1, &mut near);
/// assert_eq!(near, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct RTree {
    dim: usize,
    entries: Vec<(Vec<f64>, usize)>,
}

impl RTree {
    /// Empty set of `dim`-dimensional points.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        RTree {
            dim,
            entries: Vec::new(),
        }
    }

    /// Add a point with caller-assigned `id`.
    ///
    /// # Panics
    /// Panics if the point dimension disagrees (caller bug).
    pub fn insert(&mut self, point: Vec<f64>, id: usize) {
        assert_eq!(point.len(), self.dim, "point dimension disagrees");
        self.entries.push((point, id));
    }

    /// Replace `out` with the ids of every point within `radius` of
    /// `query` (`query.min_dist(p) <= radius`), in insertion order.
    pub fn query_within_into(&self, query: &BoundingBox, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.entries
                .iter()
                .filter(|(p, _)| query.min_dist(p) <= radius)
                .map(|&(_, id)| id),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize) -> Vec<(Vec<f64>, usize)> {
        (0..n)
            .map(|i| (vec![(i % 10) as f64, (i / 10) as f64], i))
            .collect()
    }

    /// What [`RTree::query_within_into`] returns, in a fresh vector.
    fn within(t: &RTree, q: &BoundingBox, r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        t.query_within_into(q, r, &mut out);
        out
    }

    /// Linear-scan oracle for query_within_into.
    fn oracle(points: &[(Vec<f64>, usize)], q: &BoundingBox, r: f64) -> Vec<usize> {
        let mut ids: Vec<usize> = points
            .iter()
            .filter(|(p, _)| q.min_dist(p) <= r)
            .map(|(_, id)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn insert_and_query_matches_oracle() {
        let pts = grid_points(100);
        let mut t = RTree::new(2);
        for (p, id) in &pts {
            t.insert(p.clone(), *id);
        }
        let q = BoundingBox::new(vec![2.0, 2.0], vec![4.0, 4.0]);
        for r in [0.0, 0.5, 1.5, 3.0] {
            assert_eq!(within(&t, &q, r), oracle(&pts, &q, r), "radius {r}");
        }
    }

    #[test]
    fn empty_tree_behaves() {
        let t = RTree::new(3);
        let q = BoundingBox::new(vec![0.0; 3], vec![1.0; 3]);
        let mut out = vec![7];
        t.query_within_into(&q, 10.0, &mut out);
        assert!(out.is_empty(), "the output is replaced, not appended to");
    }

    #[test]
    fn duplicate_points_are_kept() {
        let mut t = RTree::new(1);
        for i in 0..20 {
            t.insert(vec![1.0], i);
        }
        let q = BoundingBox::new(vec![1.0], vec![1.0]);
        assert_eq!(within(&t, &q, 0.0).len(), 20);
    }

    #[test]
    fn high_dimensional_points() {
        let pts: Vec<(Vec<f64>, usize)> = (0..50)
            .map(|i| ((0..10).map(|d| ((i * 7 + d * 3) % 13) as f64).collect(), i))
            .collect();
        let mut t = RTree::new(10);
        for (p, id) in &pts {
            t.insert(p.clone(), *id);
        }
        let q = BoundingBox::new(pts[0].0.clone(), pts[0].0.clone());
        assert!(within(&t, &q, 0.0).contains(&0));
        // Wide radius returns everything.
        assert_eq!(within(&t, &q, 1e6).len(), 50);
    }
}
