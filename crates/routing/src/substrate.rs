//! The multi-tree routing substrate of \[11\]: several overlapping routing
//! trees with well-separated roots, each carrying semantic routing tables.

use crate::table::{TableEntry, TreeTables};
use crate::tree::{select_roots, RoutingTree};
use crate::AttrId;
use sensor_net::{NodeId, Point, Topology};
use sensor_summaries::Constraint;

pub use crate::table::{IndexedAttr, StaticValues};

/// The substrate: trees + tables + a snapshot of the static values used to
/// verify matches exactly at candidate nodes.
#[derive(Debug, Clone)]
pub struct MultiTreeSubstrate {
    trees: Vec<RoutingTree>,
    tables: Vec<TreeTables>,
    attrs: Vec<IndexedAttr>,
    /// `scalar_values[attr_idx][node]`
    scalar_values: Vec<Vec<Option<u16>>>,
    positions: Vec<Point>,
}

impl MultiTreeSubstrate {
    /// Build `num_trees` trees over `topo`. Tree 0 is rooted at the base
    /// station; later roots maximize separation (§2.2).
    pub fn build(
        topo: &Topology,
        num_trees: usize,
        attrs: Vec<IndexedAttr>,
        values: &(impl StaticValues + ?Sized),
    ) -> Self {
        assert!(num_trees >= 1);
        let roots = select_roots(topo, topo.base(), num_trees);
        let trees: Vec<RoutingTree> = roots.iter().map(|&r| RoutingTree::build(topo, r)).collect();
        let tables: Vec<TreeTables> = trees
            .iter()
            .map(|t| TreeTables::build(t, &attrs, values))
            .collect();
        let scalar_values: Vec<Vec<Option<u16>>> = attrs
            .iter()
            .map(|spec| {
                (0..topo.len())
                    .map(|i| values.scalar(NodeId(i as u16), spec.attr))
                    .collect()
            })
            .collect();
        // Positions come from the value provider, NOT the raw topology:
        // the provider defines the coordinate space shared by spatial
        // constraints, R-tree summaries and `pos` attributes (decimeters
        // in the evaluation workloads).
        let positions = (0..topo.len())
            .map(|i| values.position(NodeId(i as u16)))
            .collect();
        MultiTreeSubstrate {
            trees,
            tables,
            attrs,
            scalar_values,
            positions,
        }
    }

    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    pub fn tree(&self, idx: usize) -> &RoutingTree {
        &self.trees[idx]
    }

    pub fn trees(&self) -> &[RoutingTree] {
        &self.trees
    }

    /// The primary tree, rooted at the base station.
    pub fn primary(&self) -> &RoutingTree {
        &self.trees[0]
    }

    /// Hops from `id` to the base station along the primary tree — the `h`
    /// value exploration messages record for join-node placement (§3.1).
    pub fn hops_to_base(&self, id: NodeId) -> u16 {
        self.trees[0].depth(id)
    }

    pub fn attrs(&self) -> &[IndexedAttr] {
        &self.attrs
    }

    pub fn attr_index(&self, attr: AttrId) -> Option<usize> {
        self.attrs.iter().position(|s| s.attr == attr)
    }

    pub fn tables(&self, tree: usize) -> &TreeTables {
        &self.tables[tree]
    }

    pub fn entry(&self, tree: usize, attr_idx: usize, node: NodeId) -> &TableEntry {
        self.tables[tree].entry(attr_idx, node)
    }

    pub fn len(&self) -> usize {
        self.positions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Exact check: does `node` satisfy every constraint? (Used at
    /// candidate targets, where real values are available.)
    ///
    /// Constraints on un-indexed attributes are *not* resolvable here and
    /// make the node fail conservatively — the query layer must only pass
    /// routable constraints.
    pub fn node_matches(&self, node: NodeId, constraints: &[(AttrId, Constraint)]) -> bool {
        constraints.iter().all(|(attr, c)| {
            if c.is_spatial() {
                return c.eval_point(self.positions[node.index()]);
            }
            match self.attr_index(*attr) {
                Some(ai) => match self.scalar_values[ai][node.index()] {
                    Some(v) => c.eval_value(v),
                    None => false,
                },
                None => false,
            }
        })
    }

    /// Conservative check: may the subtree rooted at `child` (child of
    /// `node` in `tree`) contain a node matching all constraints?
    pub fn child_may_match(
        &self,
        tree: usize,
        node: NodeId,
        child: NodeId,
        constraints: &[(AttrId, Constraint)],
    ) -> bool {
        constraints.iter().all(|(attr, c)| {
            let ai = if c.is_spatial() {
                self.attrs
                    .iter()
                    .position(|s| s.kind == sensor_summaries::SummaryKind::Rects)
            } else {
                self.attr_index(*attr)
            };
            match ai {
                // Un-indexed constraint: cannot prune on it.
                None => true,
                Some(ai) => self.tables[tree].child_may_match(ai, node, child, c),
            }
        })
    }

    pub fn position(&self, node: NodeId) -> Point {
        self.positions[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensor_summaries::SummaryKind;

    struct Vals;
    impl StaticValues for Vals {
        fn scalar(&self, node: NodeId, attr: AttrId) -> Option<u16> {
            match attr {
                0 => Some(node.0),
                1 => Some(node.0 % 4),
                _ => None,
            }
        }
        fn position(&self, node: NodeId) -> Point {
            Point::new(node.0 as f64, 0.0)
        }
    }

    fn build(n_trees: usize) -> (Topology, MultiTreeSubstrate) {
        let topo = sensor_net::gen::grid(8, 8);
        let attrs = vec![
            IndexedAttr::new(0, SummaryKind::Interval),
            IndexedAttr::new(1, SummaryKind::Bloom),
            IndexedAttr::new(254, SummaryKind::Rects),
        ];
        let sub = MultiTreeSubstrate::build(&topo, n_trees, attrs, &Vals);
        (topo, sub)
    }

    #[test]
    fn primary_tree_rooted_at_base() {
        let (topo, sub) = build(3);
        assert_eq!(sub.num_trees(), 3);
        assert_eq!(sub.primary().root(), topo.base());
        assert_eq!(sub.hops_to_base(topo.base()), 0);
    }

    #[test]
    fn roots_are_distinct_and_spread() {
        let (topo, sub) = build(3);
        let r1 = sub.tree(1).root();
        let r2 = sub.tree(2).root();
        assert_ne!(r1, topo.base());
        assert_ne!(r1, r2);
        assert!(topo.hop_distance(topo.base(), r1).unwrap() >= 4);
    }

    #[test]
    fn node_matches_uses_exact_values() {
        let (_, sub) = build(1);
        assert!(sub.node_matches(NodeId(9), &[(0, Constraint::Eq(9))]));
        assert!(!sub.node_matches(NodeId(9), &[(0, Constraint::Eq(10))]));
        // Multi-constraint AND.
        assert!(sub.node_matches(
            NodeId(9),
            &[
                (0, Constraint::Range(5, 15)),
                (
                    1,
                    Constraint::Eq(1) // 9 % 4
                )
            ]
        ));
        // Unknown attribute never matches.
        assert!(!sub.node_matches(NodeId(9), &[(99, Constraint::Eq(9))]));
    }

    #[test]
    fn spatial_matching_via_positions() {
        // Spatial matching happens in the *provider's* coordinate space
        // (Vals maps node i to (i, 0)), not the raw topology's.
        let (_, sub) = build(1);
        let p = Point::new(20.0, 0.0);
        let c = Constraint::NearPoint { p, dist: 0.1 };
        assert!(sub.node_matches(NodeId(20), &[(254, c.clone())]));
        assert!(!sub.node_matches(NodeId(0), &[(254, c)]));
        assert_eq!(sub.position(NodeId(20)), p);
    }

    #[test]
    fn child_pruning_no_false_negative() {
        let (_, sub) = build(2);
        // Along the true root-to-node tree path, every descent step must be
        // admitted by the child summaries (false positives elsewhere are
        // allowed; false negatives never).
        let tree = sub.tree(0);
        for v in 1..sub.len() as u16 {
            let target = NodeId(v);
            let q = vec![(0u8, Constraint::Eq(v))];
            let mut chain = tree.path_to_root(target);
            chain.reverse(); // root ... target
            for w in chain.windows(2) {
                assert!(
                    sub.child_may_match(0, w[0], w[1], &q),
                    "step {} -> {} pruned id {v}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn unindexed_constraint_is_conservative() {
        let (_, sub) = build(1);
        let tree = sub.tree(0);
        let root = tree.root();
        let c = *tree.children(root).first().expect("root has children");
        // Constraints on an attribute with no index must never prune.
        let q = vec![(99u8, Constraint::Eq(0))];
        assert!(sub.child_may_match(0, root, c, &q));
    }
}
