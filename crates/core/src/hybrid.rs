//! The hybrid MC/GP solution (§5.4, rules calibrated in §6.3).
//!
//! The paper's hybrid picks Monte Carlo or GP emulation per UDF from its
//! dimensionality `d` and evaluation time `T`. [`rule_based_choice`]
//! encodes the §6.3 findings; the UQL binder applies it once per statement
//! to resolve `USING auto`, for relations, joins and streams alike. The
//! rule reads the UDF's nominal cost, not a wall clock, so the pick is
//! deterministic.

use crate::batch::EvalStrategy;
use std::time::Duration;

/// The paper's §6.3 decision rules from known dimensionality and (nominal)
/// evaluation time: MC for very fast functions, GP for slow low-dimensional
/// ones, MC for very high-dimensional ones unless the UDF is extremely slow.
pub fn rule_based_choice(dim: usize, eval_time: Duration) -> EvalStrategy {
    let t = eval_time.as_secs_f64();
    if t <= 10e-6 {
        return EvalStrategy::Mc; // "T ≤ 0.01ms → MC"
    }
    if dim <= 2 && t >= 1e-3 {
        return EvalStrategy::Gp; // low-dim, ≥ 1 ms → GP
    }
    if dim <= 2 && t >= 1e-4 {
        return EvalStrategy::Gp; // simple functions win from 0.1 ms
    }
    if dim >= 10 {
        // very high-dimensional: GP only for ≥ 100 ms functions
        return if t >= 0.1 {
            EvalStrategy::Gp
        } else {
            EvalStrategy::Mc
        };
    }
    // mid-dimensional: GP from ~10 ms
    if t >= 10e-3 {
        EvalStrategy::Gp
    } else {
        EvalStrategy::Mc
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
            EvalStrategy::Mc
        );
        assert_eq!(
            rule_based_choice(1, Duration::from_millis(1)),
            EvalStrategy::Gp
        );
        assert_eq!(
            rule_based_choice(2, Duration::from_micros(200)),
            EvalStrategy::Gp
        );
        // Expt 7: d = 10 needs T ≥ 0.1 s.
        assert_eq!(
            rule_based_choice(10, Duration::from_millis(10)),
            EvalStrategy::Mc
        );
        assert_eq!(
            rule_based_choice(10, Duration::from_millis(200)),
            EvalStrategy::Gp
        );
        // Mid-dimensional crossover around 10 ms.
        assert_eq!(
            rule_based_choice(5, Duration::from_millis(1)),
            EvalStrategy::Mc
        );
        assert_eq!(
            rule_based_choice(5, Duration::from_millis(50)),
            EvalStrategy::Gp
        );
    }
}
