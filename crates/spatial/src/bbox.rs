//! Axis-aligned bounding boxes.

/// An axis-aligned box `[lo_i, hi_i]` per dimension.
///
/// The local-inference bound (§5.1) brackets the kernel weight of an excluded
/// training point `x*` over every sample in the box using the *nearest* and
/// *farthest* box points from `x*`; [`BoundingBox::min_dist`] and
/// [`BoundingBox::max_dist`] provide exactly those distances.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundingBox {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl BoundingBox {
    /// Smallest box containing all `points`.
    ///
    /// # Panics
    /// Panics if `points` is empty or dimensions disagree (caller bug).
    pub fn from_points<'a, I>(mut points: I) -> Self
    where
        I: Iterator<Item = &'a [f64]>,
    {
        let first = points.next().expect("from_points: need at least one point");
        let (mut lo, mut hi) = (first.to_vec(), first.to_vec());
        for p in points {
            assert_eq!(p.len(), lo.len(), "point dimension disagrees");
            for (i, &x) in p.iter().enumerate() {
                lo[i] = lo[i].min(x);
                hi[i] = hi[i].max(x);
            }
        }
        BoundingBox { lo, hi }
    }

    /// Explicit corners; `lo[i] <= hi[i]` must hold.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner dimensions disagree");
        debug_assert!(lo.iter().zip(&hi).all(|(l, h)| l <= h));
        BoundingBox { lo, hi }
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Euclidean distance from `p` to the nearest box point
    /// (`x_near` in Fig. 3); zero when `p` is inside.
    pub fn min_dist(&self, p: &[f64]) -> f64 {
        self.min_dist_sq(p).sqrt()
    }

    /// Squared version of [`BoundingBox::min_dist`].
    pub(crate) fn min_dist_sq(&self, p: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.dim());
        p.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(x, (l, h))| {
                let d = if x < l {
                    l - x
                } else if x > h {
                    x - h
                } else {
                    0.0
                };
                d * d
            })
            .sum()
    }

    /// Euclidean distance from `p` to the farthest box point
    /// (`x_far` in Fig. 3).
    pub fn max_dist(&self, p: &[f64]) -> f64 {
        self.max_dist_sq(p).sqrt()
    }

    /// Squared version of [`BoundingBox::max_dist`].
    pub(crate) fn max_dist_sq(&self, p: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.dim());
        p.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(x, (l, h))| {
                let d = (x - l).abs().max((x - h).abs());
                d * d
            })
            .sum()
    }

    /// Split the box into `2^min(dim, max_splits_dims)` child boxes by
    /// bisecting the longest axes — the paper's refinement that tightens the
    /// local-inference γ bound by evaluating it per sub-box.
    pub fn bisect(&self, max_split_dims: usize) -> Vec<BoundingBox> {
        let d = self.dim();
        // Order axes by length, split the longest ones.
        let mut axes: Vec<usize> = (0..d).collect();
        axes.sort_by(|&a, &b| {
            let la = self.hi[a] - self.lo[a];
            let lb = self.hi[b] - self.lo[b];
            lb.partial_cmp(&la).expect("finite box sides")
        });
        let split_axes = &axes[..max_split_dims.min(d)];
        let mut result = vec![self.clone()];
        for &ax in split_axes {
            let mut next = Vec::with_capacity(result.len() * 2);
            for b in result {
                let mid = 0.5 * (b.lo[ax] + b.hi[ax]);
                let mut left = b.clone();
                left.hi[ax] = mid;
                let mut right = b;
                right.lo[ax] = mid;
                next.push(left);
                next.push(right);
            }
            result = next;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hyper-volume (product of side lengths).
    fn volume(b: &BoundingBox) -> f64 {
        b.lo().iter().zip(b.hi()).map(|(l, h)| h - l).product()
    }

    #[test]
    fn construction_and_expansion() {
        let pts = [vec![0.0, 1.0], vec![2.0, -1.0], vec![1.0, 0.5]];
        let b = BoundingBox::from_points(pts.iter().map(|p| p.as_slice()));
        assert_eq!(b.lo(), &[0.0, -1.0]);
        assert_eq!(b.hi(), &[2.0, 1.0]);
    }

    #[test]
    fn near_far_distances() {
        let b = BoundingBox::new(vec![0.0, 0.0], vec![2.0, 2.0]);
        // Point inside: near = 0, far = distance to farthest corner.
        assert_eq!(b.min_dist(&[1.0, 1.0]), 0.0);
        assert!((b.max_dist(&[1.0, 1.0]) - 2.0f64.sqrt()).abs() < 1e-12);
        // Point outside along x.
        assert!((b.min_dist(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        let far = (4.0f64.powi(2) + 2.0f64.powi(2)).sqrt();
        assert!((b.max_dist(&[4.0, 2.0]) - far).abs() < 1e-12);
    }

    #[test]
    fn inflate_and_volume() {
        let b = BoundingBox::new(vec![0.0, 0.0], vec![1.0, 2.0]);
        assert!((volume(&b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bisect_covers_parent() {
        let b = BoundingBox::new(vec![0.0, 0.0], vec![4.0, 2.0]);
        let kids = b.bisect(2);
        assert_eq!(kids.len(), 4);
        let total: f64 = kids.iter().map(volume).sum();
        assert!((total - volume(&b)).abs() < 1e-12);
        // First split axis is the longest (x).
        assert!(kids.iter().any(|k| k.hi()[0] <= 2.0 + 1e-12));
    }
}
