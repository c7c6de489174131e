//! Property tests: bounding-box near/far distances must bracket the
//! distance to any contained point — the exact property the §5.1 γ bound
//! relies on — and bisection must partition the box.

use proptest::prelude::*;
use udf_spatial::BoundingBox;

fn points(dim: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    n.prop_flat_map(move |len| {
        prop::collection::vec(prop::collection::vec(-10.0f64..10.0, dim), len.max(1))
    })
}

/// Hyper-volume (product of side lengths).
fn volume(b: &BoundingBox) -> f64 {
    b.lo().iter().zip(b.hi()).map(|(l, h)| h - l).product()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn near_far_bracket_contained_points(
        pts in points(2, 2..40),
        target in prop::collection::vec(-12.0f64..12.0, 2),
    ) {
        let bbox = BoundingBox::from_points(pts.iter().map(|p| p.as_slice()));
        let near = bbox.min_dist(&target);
        let far = bbox.max_dist(&target);
        for p in &pts {
            let d = p
                .iter()
                .zip(&target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            prop_assert!(d >= near - 1e-9, "near {near} > d {d}");
            prop_assert!(d <= far + 1e-9, "far {far} < d {d}");
        }
    }

    #[test]
    fn bisect_children_partition_volume(
        lo in prop::collection::vec(-5.0f64..0.0, 3),
        side in prop::collection::vec(0.1f64..5.0, 3),
        splits in 1usize..3,
    ) {
        let hi: Vec<f64> = lo.iter().zip(&side).map(|(l, s)| l + s).collect();
        let b = BoundingBox::new(lo, hi);
        let kids = b.bisect(splits);
        prop_assert_eq!(kids.len(), 1 << splits);
        let total: f64 = kids.iter().map(volume).sum();
        prop_assert!((total - volume(&b)).abs() < 1e-9);
    }
}
