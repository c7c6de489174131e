//! Free functions on `&[f64]` slices.
//!
//! The GP hot loops (posterior mean = `k·α`, variance = `v·v`) are dot
//! products over contiguous slices; keeping them as free functions lets the
//! compiler vectorize without any wrapper-type overhead.

/// Dot product `a · b`.
///
/// # Panics
/// Panics if the slices have different lengths (caller bug).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// In-place `y ← y + alpha * x`.
///
/// # Panics
/// Panics if the slices have different lengths (caller bug).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// In-place `x ← alpha * x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Element-wise difference `a - b` as a new vector.
///
/// # Panics
/// Panics if the slices have different lengths (caller bug).
#[inline]
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_scale_sub() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![3.5, 4.5]);
        assert_eq!(sub(&y, &[0.5, 0.5]), vec![3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
