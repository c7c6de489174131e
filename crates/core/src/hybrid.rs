//! The hybrid MC/GP solution (§5.4, rules calibrated in §6.3).
//!
//! The paper's hybrid picks Monte Carlo or GP emulation per UDF from its
//! dimensionality `d` and evaluation time `T`. [`rule_based_choice`]
//! encodes the §6.3 findings; the UQL binder applies it once per statement
//! to resolve `USING auto`, for relations, joins and streams alike. The
//! rule reads the UDF's nominal cost, not a wall clock, so the pick is
//! deterministic.

use std::time::Duration;

/// Which approach the hybrid rules select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridChoice {
    /// Direct Monte Carlo sampling.
    Mc,
    /// GP emulation via OLGAPRO.
    Gp,
}

/// The paper's §6.3 decision rules from known dimensionality and (nominal)
/// evaluation time: MC for very fast functions, GP for slow low-dimensional
/// ones, MC for very high-dimensional ones unless the UDF is extremely slow.
pub fn rule_based_choice(dim: usize, eval_time: Duration) -> HybridChoice {
    let t = eval_time.as_secs_f64();
    if t <= 10e-6 {
        return HybridChoice::Mc; // "T ≤ 0.01ms → MC"
    }
    if dim <= 2 && t >= 1e-3 {
        return HybridChoice::Gp; // low-dim, ≥ 1 ms → GP
    }
    if dim <= 2 && t >= 1e-4 {
        return HybridChoice::Gp; // simple functions win from 0.1 ms
    }
    if dim >= 10 {
        // very high-dimensional: GP only for ≥ 100 ms functions
        return if t >= 0.1 {
            HybridChoice::Gp
        } else {
            HybridChoice::Mc
        };
    }
    // mid-dimensional: GP from ~10 ms
    if t >= 10e-3 {
        HybridChoice::Gp
    } else {
        HybridChoice::Mc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_match_paper_findings() {
        // Expt 5: GP wins from 0.1 ms for simple (low-dim) functions.
        assert_eq!(
            rule_based_choice(1, Duration::from_micros(1)),
            HybridChoice::Mc
        );
        assert_eq!(
            rule_based_choice(1, Duration::from_millis(1)),
            HybridChoice::Gp
        );
        assert_eq!(
            rule_based_choice(2, Duration::from_micros(200)),
            HybridChoice::Gp
        );
        // Expt 7: d = 10 needs T ≥ 0.1 s.
        assert_eq!(
            rule_based_choice(10, Duration::from_millis(10)),
            HybridChoice::Mc
        );
        assert_eq!(
            rule_based_choice(10, Duration::from_millis(200)),
            HybridChoice::Gp
        );
        // Mid-dimensional crossover around 10 ms.
        assert_eq!(
            rule_based_choice(5, Duration::from_millis(1)),
            HybridChoice::Mc
        );
        assert_eq!(
            rule_based_choice(5, Duration::from_millis(50)),
            HybridChoice::Gp
        );
    }
}
