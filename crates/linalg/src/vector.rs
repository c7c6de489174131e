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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
