//! A point R-tree with quadratic-split insertion and STR bulk loading.
//!
//! The tree stores `(point, id)` pairs; `id` is the caller's handle into its
//! own training-data arrays (the GP keeps points/values in parallel vectors
//! and uses the R-tree only to *select* indices for local inference).

use crate::BoundingBox;

/// Maximum entries per node before a split.
const MAX_ENTRIES: usize = 8;
/// Minimum entries assigned to each side of a split.
const MIN_ENTRIES: usize = 3;

#[derive(Debug, Clone)]
struct Entry {
    point: Vec<f64>,
    id: usize,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        bbox: BoundingBox,
        entries: Vec<Entry>,
    },
    Inner {
        bbox: BoundingBox,
        children: Vec<Node>,
    },
}

impl Node {
    fn bbox(&self) -> &BoundingBox {
        match self {
            Node::Leaf { bbox, .. } | Node::Inner { bbox, .. } => bbox,
        }
    }

    fn recompute_bbox(&mut self) {
        match self {
            Node::Leaf { bbox, entries } => {
                *bbox = BoundingBox::from_points(entries.iter().map(|e| e.point.as_slice()));
            }
            Node::Inner { bbox, children } => {
                let mut b = children[0].bbox().clone();
                for c in &children[1..] {
                    b.expand_box(c.bbox());
                }
                *bbox = b;
            }
        }
    }
}

/// A point R-tree.
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
/// near.sort_unstable();
/// assert_eq!(near, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct RTree {
    dim: usize,
    root: Option<Node>,
    len: usize,
}

impl RTree {
    /// Empty tree for `dim`-dimensional points.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        RTree {
            dim,
            root: None,
            len: 0,
        }
    }

    /// Bulk-load with Sort-Tile-Recursive packing — O(n log n) and produces
    /// well-shaped leaves, preferable when the training set pre-exists.
    pub fn bulk_load(dim: usize, items: Vec<(Vec<f64>, usize)>) -> Self {
        let mut tree = RTree::new(dim);
        if items.is_empty() {
            return tree;
        }
        let entries: Vec<Entry> = items
            .into_iter()
            .map(|(point, id)| {
                assert_eq!(point.len(), dim, "point dimension disagrees");
                Entry { point, id }
            })
            .collect();
        tree.len = entries.len();
        let leaves = str_pack(entries, dim);
        tree.root = Some(build_upward(leaves));
        tree
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of stored points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Insert a point with caller-assigned `id`.
    ///
    /// # Panics
    /// Panics if the point dimension disagrees with the tree (caller bug).
    pub fn insert(&mut self, point: Vec<f64>, id: usize) {
        assert_eq!(point.len(), self.dim, "point dimension disagrees");
        self.len += 1;
        let entry = Entry { point, id };
        match self.root.take() {
            None => {
                self.root = Some(Node::Leaf {
                    bbox: BoundingBox::from_point(&entry.point),
                    entries: vec![entry],
                });
            }
            Some(mut root) => {
                if let Some(sibling) = insert_rec(&mut root, entry) {
                    // Root split: grow the tree by one level.
                    let mut bbox = root.bbox().clone();
                    bbox.expand_box(sibling.bbox());
                    self.root = Some(Node::Inner {
                        bbox,
                        children: vec![root, sibling],
                    });
                } else {
                    self.root = Some(root);
                }
            }
        }
    }

    /// Clears `out` and fills it with the IDs of all points whose Euclidean
    /// distance to the query box is at most `radius` (the §5.1 retrieval:
    /// training points near the sample bounding box), reusing its
    /// capacity. Hot loops (the GP fast path's radius-expansion search)
    /// call this with a scratch vector so steady state performs no
    /// per-query allocation.
    pub fn query_within_into(&self, query: &BoundingBox, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        if let Some(root) = &self.root {
            query_rec(root, query, radius, out);
        }
    }

    /// IDs of all points (iteration order unspecified).
    pub fn all_ids(&self) -> Vec<usize> {
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            collect_ids(root, &mut out);
        }
        out
    }
}

fn collect_ids(node: &Node, out: &mut Vec<usize>) {
    match node {
        Node::Leaf { entries, .. } => out.extend(entries.iter().map(|e| e.id)),
        Node::Inner { children, .. } => {
            for c in children {
                collect_ids(c, out);
            }
        }
    }
}

fn query_rec(node: &Node, query: &BoundingBox, radius: f64, out: &mut Vec<usize>) {
    if node.bbox().min_dist_box(query) > radius {
        return;
    }
    match node {
        Node::Leaf { entries, .. } => {
            for e in entries {
                if query.min_dist(&e.point) <= radius {
                    out.push(e.id);
                }
            }
        }
        Node::Inner { children, .. } => {
            for c in children {
                query_rec(c, query, radius, out);
            }
        }
    }
}

/// Recursive insert; returns a new sibling when the visited node split.
fn insert_rec(node: &mut Node, entry: Entry) -> Option<Node> {
    match node {
        Node::Leaf { bbox, entries } => {
            bbox.expand_point(&entry.point);
            entries.push(entry);
            if entries.len() > MAX_ENTRIES {
                Some(split_leaf(node))
            } else {
                None
            }
        }
        Node::Inner { bbox, children } => {
            bbox.expand_point(&entry.point);
            // Choose subtree: least volume enlargement, ties by volume.
            let eb = BoundingBox::from_point(&entry.point);
            let (best, _) = children
                .iter()
                .enumerate()
                .map(|(i, c)| (i, (c.bbox().enlargement(&eb), c.bbox().volume())))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite volumes"))
                .expect("inner nodes are non-empty");
            if let Some(sibling) = insert_rec(&mut children[best], entry) {
                children.push(sibling);
                if children.len() > MAX_ENTRIES {
                    return Some(split_inner(node));
                }
            }
            None
        }
    }
}

/// Quadratic split of an over-full leaf; `node` keeps one group, the
/// returned sibling gets the other.
fn split_leaf(node: &mut Node) -> Node {
    let entries = match node {
        Node::Leaf { entries, .. } => std::mem::take(entries),
        Node::Inner { .. } => unreachable!("split_leaf on inner node"),
    };
    let (a, b) = quadratic_partition(&entries, |e| BoundingBox::from_point(&e.point));
    let (ga, gb): (Vec<Entry>, Vec<Entry>) = partition_by_index(entries, &a, &b);
    *node = Node::Leaf {
        bbox: BoundingBox::from_points(ga.iter().map(|e| e.point.as_slice())),
        entries: ga,
    };
    Node::Leaf {
        bbox: BoundingBox::from_points(gb.iter().map(|e| e.point.as_slice())),
        entries: gb,
    }
}

/// Quadratic split of an over-full inner node.
fn split_inner(node: &mut Node) -> Node {
    let children = match node {
        Node::Inner { children, .. } => std::mem::take(children),
        Node::Leaf { .. } => unreachable!("split_inner on leaf"),
    };
    let (a, b) = quadratic_partition(&children, |c| c.bbox().clone());
    let (ga, gb): (Vec<Node>, Vec<Node>) = partition_by_index(children, &a, &b);
    let mut na = Node::Inner {
        bbox: ga[0].bbox().clone(),
        children: ga,
    };
    na.recompute_bbox();
    let mut nb = Node::Inner {
        bbox: gb[0].bbox().clone(),
        children: gb,
    };
    nb.recompute_bbox();
    *node = na;
    nb
}

/// Guttman's quadratic partition: pick the two seeds wasting the most volume
/// together, then greedily assign the rest; returns index sets.
#[allow(clippy::needless_range_loop)] // index set membership drives the loop
fn quadratic_partition<T>(
    items: &[T],
    to_box: impl Fn(&T) -> BoundingBox,
) -> (Vec<usize>, Vec<usize>) {
    let n = items.len();
    debug_assert!(n >= 2);
    let boxes: Vec<BoundingBox> = items.iter().map(&to_box).collect();
    // Seeds: pair with largest dead space.
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..n {
        for j in i + 1..n {
            let mut merged = boxes[i].clone();
            merged.expand_box(&boxes[j]);
            let dead = merged.volume() - boxes[i].volume() - boxes[j].volume();
            if dead > worst {
                worst = dead;
                s1 = i;
                s2 = j;
            }
        }
    }
    let mut ga = vec![s1];
    let mut gb = vec![s2];
    let mut ba = boxes[s1].clone();
    let mut bb = boxes[s2].clone();
    for i in 0..n {
        if i == s1 || i == s2 {
            continue;
        }
        let remaining = n - ga.len() - gb.len() - 1;
        // Force-assign to honor the minimum fill.
        if ga.len() + remaining < MIN_ENTRIES {
            ga.push(i);
            ba.expand_box(&boxes[i]);
            continue;
        }
        if gb.len() + remaining < MIN_ENTRIES {
            gb.push(i);
            bb.expand_box(&boxes[i]);
            continue;
        }
        let da = ba.enlargement(&boxes[i]);
        let db = bb.enlargement(&boxes[i]);
        if da < db || (da == db && ga.len() <= gb.len()) {
            ga.push(i);
            ba.expand_box(&boxes[i]);
        } else {
            gb.push(i);
            bb.expand_box(&boxes[i]);
        }
    }
    (ga, gb)
}

fn partition_by_index<T>(items: Vec<T>, a: &[usize], _b: &[usize]) -> (Vec<T>, Vec<T>) {
    let aset: std::collections::HashSet<usize> = a.iter().copied().collect();
    let mut ga = Vec::with_capacity(a.len());
    let mut gb = Vec::new();
    for (i, item) in items.into_iter().enumerate() {
        if aset.contains(&i) {
            ga.push(item);
        } else {
            gb.push(item);
        }
    }
    (ga, gb)
}

/// STR packing of entries into leaves.
fn str_pack(mut entries: Vec<Entry>, dim: usize) -> Vec<Node> {
    // Recursive tiling over dimensions; final runs become leaves.
    fn tile(mut entries: Vec<Entry>, axis: usize, dim: usize, leaf_cap: usize) -> Vec<Vec<Entry>> {
        if entries.len() <= leaf_cap {
            return vec![entries];
        }
        if axis + 1 == dim {
            // Last axis: cut into leaf-sized runs.
            entries.sort_by(|a, b| {
                a.point[axis]
                    .partial_cmp(&b.point[axis])
                    .expect("finite coordinates")
            });
            return entries.chunks(leaf_cap).map(|c| c.to_vec()).collect();
        }
        entries.sort_by(|a, b| {
            a.point[axis]
                .partial_cmp(&b.point[axis])
                .expect("finite coordinates")
        });
        let n = entries.len();
        let n_leaves = n.div_ceil(leaf_cap);
        let slabs = (n_leaves as f64).powf(1.0 / (dim - axis) as f64).ceil() as usize;
        let slab_size = n.div_ceil(slabs.max(1));
        let mut out = Vec::new();
        for chunk in entries.chunks(slab_size.max(1)) {
            out.extend(tile(chunk.to_vec(), axis + 1, dim, leaf_cap));
        }
        out
    }

    entries.shrink_to_fit();
    tile(entries, 0, dim, MAX_ENTRIES)
        .into_iter()
        .map(|es| Node::Leaf {
            bbox: BoundingBox::from_points(es.iter().map(|e| e.point.as_slice())),
            entries: es,
        })
        .collect()
}

/// Pack nodes level by level until a single root remains.
fn build_upward(mut nodes: Vec<Node>) -> Node {
    while nodes.len() > 1 {
        let mut next = Vec::with_capacity(nodes.len().div_ceil(MAX_ENTRIES));
        // Preserve locality from STR ordering: group consecutive runs.
        let mut iter = nodes.into_iter().peekable();
        while iter.peek().is_some() {
            let children: Vec<Node> = iter.by_ref().take(MAX_ENTRIES).collect();
            let mut bbox = children[0].bbox().clone();
            for c in &children[1..] {
                bbox.expand_box(c.bbox());
            }
            next.push(Node::Inner { bbox, children });
        }
        nodes = next;
    }
    nodes.into_iter().next().expect("at least one node")
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
        assert_eq!(t.len(), 100);
        let q = BoundingBox::new(vec![2.0, 2.0], vec![4.0, 4.0]);
        for r in [0.0, 0.5, 1.5, 3.0] {
            let mut got = within(&t, &q, r);
            got.sort_unstable();
            assert_eq!(got, oracle(&pts, &q, r), "radius {r}");
        }
    }

    #[test]
    fn bulk_load_matches_oracle() {
        let pts = grid_points(237);
        let t = RTree::bulk_load(2, pts.clone());
        assert_eq!(t.len(), 237);
        let q = BoundingBox::new(vec![5.0, 3.0], vec![6.0, 20.0]);
        for r in [0.0, 1.0, 2.5] {
            let mut got = within(&t, &q, r);
            got.sort_unstable();
            assert_eq!(got, oracle(&pts, &q, r), "radius {r}");
        }
        let mut all = t.all_ids();
        all.sort_unstable();
        assert_eq!(all, (0..237).collect::<Vec<_>>());
    }

    #[test]
    fn empty_tree_behaves() {
        let t = RTree::new(3);
        assert!(t.is_empty());
        let q = BoundingBox::new(vec![0.0; 3], vec![1.0; 3]);
        assert!(within(&t, &q, 10.0).is_empty());
        assert!(t.all_ids().is_empty());
    }

    #[test]
    fn duplicate_points_are_kept() {
        let mut t = RTree::new(1);
        for i in 0..20 {
            t.insert(vec![1.0], i);
        }
        let q = BoundingBox::from_point(&[1.0]);
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
        let q = BoundingBox::from_point(&pts[0].0);
        let got = within(&t, &q, 0.0);
        assert!(got.contains(&0));
        // Wide radius returns everything.
        let all = within(&t, &q, 1e6);
        assert_eq!(all.len(), 50);
    }
}
