//! What the engine keeps per subscription beside its
//! [`BatchCounts`](udf_core::batch::BatchCounts): a ring of emitted-tuple
//! summaries and the determinism digest.

/// A compact record of one emitted tuple, kept in a bounded ring buffer for
/// inspection (dashboards, examples, tests).
#[derive(Debug, Clone, Copy)]
pub struct KeptSummary {
    /// Global index of the source tuple.
    pub tuple: u64,
    /// Median of the output distribution.
    pub median: f64,
    /// Attached total error bound.
    pub error_bound: f64,
    /// Tuple-existence probability (1.0 without a predicate).
    pub tep: f64,
}

/// FNV-1a accumulator hashing emitted distributions byte-for-byte; equal
/// digests across configurations witness the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one 64-bit word into the digest.
    pub(crate) fn push_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold a float's exact bit pattern into the digest.
    pub(crate) fn push_f64(&mut self, value: f64) {
        self.push_u64(value.to_bits());
    }

    /// Fold every sample of an ECDF into the digest.
    pub(crate) fn push_ecdf(&mut self, ecdf: &udf_prob::Ecdf) {
        self.push_u64(ecdf.len() as u64);
        for &v in ecdf.values() {
            self.push_f64(v);
        }
    }

    /// The current digest value.
    pub(crate) fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.push_f64(1.0);
        a.push_f64(2.0);
        let mut b = Digest::default();
        b.push_f64(2.0);
        b.push_f64(1.0);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.push_f64(1.0);
        c.push_f64(2.0);
        assert_eq!(a.value(), c.value());
    }
}
