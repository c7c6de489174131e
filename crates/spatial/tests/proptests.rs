//! Property tests: R-tree queries must agree with a linear-scan oracle, and
//! bounding-box near/far distances must bracket the distance to any
//! contained point — the exact property the §5.1 γ bound relies on.

use proptest::prelude::*;
use udf_spatial::{BoundingBox, RTree};

fn points(dim: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    n.prop_flat_map(move |len| {
        prop::collection::vec(prop::collection::vec(-10.0f64..10.0, dim), len.max(1))
    })
}

/// What [`RTree::query_within_into`] returns, in a fresh vector.
fn within(tree: &RTree, q: &BoundingBox, radius: f64) -> Vec<usize> {
    let mut out = Vec::new();
    tree.query_within_into(q, radius, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn query_matches_linear_scan(
        pts in points(2, 1..120),
        qlo in prop::collection::vec(-10.0f64..10.0, 2),
        side in 0.0f64..8.0,
        radius in 0.0f64..6.0,
    ) {
        let qhi: Vec<f64> = qlo.iter().map(|v| v + side).collect();
        let q = BoundingBox::new(qlo, qhi);

        let mut tree = RTree::new(2);
        for (i, p) in pts.iter().enumerate() {
            tree.insert(p.clone(), i);
        }
        let mut got = within(&tree, &q, radius);
        got.sort_unstable();

        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| q.min_dist(p) <= radius)
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bulk_load_equals_incremental(pts in points(3, 1..100)) {
        let items: Vec<(Vec<f64>, usize)> =
            pts.iter().cloned().enumerate().map(|(i, p)| (p, i)).collect();
        let bulk = RTree::bulk_load(3, items.clone());
        let mut inc = RTree::new(3);
        for (p, id) in items {
            inc.insert(p, id);
        }
        let q = BoundingBox::new(vec![-2.0; 3], vec![2.0; 3]);
        for radius in [0.0, 1.0, 5.0] {
            let mut a = within(&bulk, &q, radius);
            let mut b = within(&inc, &q, radius);
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }

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
        let total: f64 = kids.iter().map(|k| k.volume()).sum();
        prop_assert!((total - b.volume()).abs() < 1e-9);
    }
}
