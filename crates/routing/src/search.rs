//! Content-routed search over the multi-tree substrate.
//!
//! Search semantics (§2.2): exploration starts at a source node and, per
//! tree, (a) descends into child subtrees whose summaries may match, and
//! (b) for completeness ascends toward the root; an ascending search may
//! descend into sibling subtrees at every ancestor but **never re-ascends
//! after descending**. Delivered messages record a path vector; targets
//! reply along the reversed path.
//!
//! Two interfaces are provided:
//! - [`next_hops`]: the per-node forwarding decision, used by the real
//!   distributed protocol in `aspen-join` (so initiation traffic is
//!   simulated faithfully);
//! - [`find_paths`]: an offline oracle enumerating the same paths and the
//!   message-hop cost the distributed search would incur (used by the
//!   centralized-optimizer baseline and by tests).

use crate::substrate::MultiTreeSubstrate;
use crate::AttrId;
use sensor_net::NodeId;
use sensor_summaries::Constraint;

/// A conjunctive, routable search target: all constraints must hold.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchQuery {
    pub constraints: Vec<(AttrId, Constraint)>,
}

impl SearchQuery {
    pub fn new(constraints: Vec<(AttrId, Constraint)>) -> Self {
        SearchQuery { constraints }
    }

    /// Wire size of the constraint block in a search message.
    pub fn wire_bytes(&self) -> u32 {
        self.constraints
            .iter()
            .map(|(_, c)| 1 + c.wire_bytes() as u32)
            .sum()
    }
}

/// One discovered source-to-target path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    pub target: NodeId,
    /// Full node path from the searching source to the target (inclusive).
    pub path: Vec<NodeId>,
    /// Which tree the path was found in.
    pub tree: usize,
}

/// Forwarding decision for a search message sitting at `node` in `tree`,
/// for the search target `constraints` (all must hold).
///
/// `descending` reflects the message's current phase; the returned flag is
/// the phase for each next hop. `from_child` must be set when the message
/// arrived ascending from that child (so it is not re-explored).
///
/// Invariant: `tree < sub.num_trees()` — tree ids come off the wire from
/// messages this substrate itself originated, so an out-of-range id is a
/// protocol bug and panics via the index rather than routing garbage.
pub fn next_hops(
    sub: &MultiTreeSubstrate,
    tree: usize,
    node: NodeId,
    descending: bool,
    from_child: Option<NodeId>,
    constraints: &[(AttrId, Constraint)],
) -> Vec<(NodeId, bool)> {
    let t = sub.tree(tree);
    let mut out = Vec::new();
    for &c in t.children(node) {
        if Some(c) == from_child {
            continue;
        }
        if sub.child_may_match(tree, node, c, constraints) {
            out.push((c, true));
        }
    }
    if !descending {
        if let Some(p) = t.parent(node) {
            out.push((p, false));
        }
    }
    out
}

/// Exact match test at a visited node.
pub fn node_matches(sub: &MultiTreeSubstrate, node: NodeId, query: &SearchQuery) -> bool {
    sub.node_matches(node, &query.constraints)
}

/// Traffic the distributed search would generate, in link-layer hops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchTraffic {
    /// Search-message transmissions (one per edge traversal).
    pub search_hops: usize,
    /// Reply-message transmissions (reversed path per discovered target).
    pub reply_hops: usize,
}

/// Offline enumeration of all paths the multi-tree search discovers from
/// `src`, across all trees, with the traffic it would cost. Self-matches
/// (src itself satisfying the query) are excluded: a producer never pairs
/// with itself.
pub fn find_paths(
    sub: &MultiTreeSubstrate,
    src: NodeId,
    query: &SearchQuery,
) -> (Vec<SearchResult>, SearchTraffic) {
    let mut results = Vec::new();
    let mut traffic = SearchTraffic::default();
    for tree in 0..sub.num_trees() {
        search_tree(sub, tree, src, query, &mut results, &mut traffic);
    }
    (results, traffic)
}

fn search_tree(
    sub: &MultiTreeSubstrate,
    tree: usize,
    src: NodeId,
    query: &SearchQuery,
    results: &mut Vec<SearchResult>,
    traffic: &mut SearchTraffic,
) {
    // Work item: message about to be processed AT `node`, having traveled
    // `path` (ending with `node`).
    struct Item {
        node: NodeId,
        descending: bool,
        from_child: Option<NodeId>,
        path: Vec<NodeId>,
    }
    let mut stack = vec![Item {
        node: src,
        descending: false,
        from_child: None,
        path: vec![src],
    }];
    // In a tree each node is visited at most once descending and once
    // ascending; the ascending chain is unique, so no visited-set is
    // needed for termination, but we keep one to guard against table bugs.
    let mut visited_desc = vec![false; sub.len()];

    while let Some(item) = stack.pop() {
        if item.node != src && node_matches(sub, item.node, query) {
            results.push(SearchResult {
                target: item.node,
                path: item.path.clone(),
                tree,
            });
            traffic.reply_hops += item.path.len() - 1;
        }
        for (next, descending) in next_hops(
            sub,
            tree,
            item.node,
            item.descending,
            item.from_child,
            &query.constraints,
        ) {
            if descending {
                if visited_desc[next.index()] {
                    continue;
                }
                visited_desc[next.index()] = true;
            }
            traffic.search_hops += 1;
            let mut path = item.path.clone();
            path.push(next);
            stack.push(Item {
                node: next,
                descending,
                from_child: (!descending).then_some(item.node),
                path,
            });
        }
    }
}

/// Deduplicate discovered paths per target, keeping the shortest (ties:
/// lowest tree index). The optimizer considers all paths, but grouped
/// bookkeeping often wants one best path per (src, target) pair.
pub fn best_path_per_target(results: &[SearchResult]) -> Vec<SearchResult> {
    let mut best: Vec<SearchResult> = Vec::new();
    for r in results {
        match best.iter_mut().find(|b| b.target == r.target) {
            None => best.push(r.clone()),
            Some(b) => {
                if r.path.len() < b.path.len() || (r.path.len() == b.path.len() && r.tree < b.tree)
                {
                    *b = r.clone();
                }
            }
        }
    }
    best.sort_by_key(|r| r.target);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::{IndexedAttr, StaticValues};
    use sensor_net::{Point, Topology};
    use sensor_summaries::SummaryKind;

    struct Vals;
    impl StaticValues for Vals {
        fn scalar(&self, node: NodeId, attr: AttrId) -> Option<u16> {
            match attr {
                0 => Some(node.0),
                1 => Some(node.0 % 3),
                _ => None,
            }
        }
        fn position(&self, node: NodeId) -> Point {
            Point::new(node.0 as f64, 0.0)
        }
    }

    fn grid_substrate(trees: usize) -> (Topology, MultiTreeSubstrate) {
        let topo = sensor_net::gen::grid(8, 8);
        let attrs = vec![
            IndexedAttr::new(0, SummaryKind::Interval),
            IndexedAttr::new(1, SummaryKind::Bloom),
        ];
        let sub = MultiTreeSubstrate::build(&topo, trees, attrs, &Vals);
        (topo, sub)
    }

    #[test]
    fn finds_unique_target_by_id() {
        let (topo, sub) = grid_substrate(2);
        let q = SearchQuery::new(vec![(0, Constraint::Eq(42))]);
        let (results, traffic) = find_paths(&sub, NodeId(7), &q);
        assert!(!results.is_empty());
        for r in &results {
            assert_eq!(r.target, NodeId(42));
            assert_eq!(r.path.first(), Some(&NodeId(7)));
            assert_eq!(r.path.last(), Some(&NodeId(42)));
            for w in r.path.windows(2) {
                assert!(topo.are_neighbors(w[0], w[1]), "path not a walk: {:?}", w);
            }
        }
        assert!(traffic.search_hops > 0);
        assert!(traffic.reply_hops > 0);
    }

    #[test]
    fn finds_all_matching_targets() {
        let (_, sub) = grid_substrate(1);
        // residue-1 nodes: 1, 4, 7, ... (excluding src itself if it matches)
        let q = SearchQuery::new(vec![(1, Constraint::Eq(1))]);
        let (results, _) = find_paths(&sub, NodeId(0), &q);
        let mut targets: Vec<u16> = results.iter().map(|r| r.target.0).collect();
        targets.sort_unstable();
        targets.dedup();
        let expected: Vec<u16> = (0..64u16).filter(|v| v % 3 == 1).collect();
        assert_eq!(targets, expected);
    }

    #[test]
    fn src_never_matches_itself() {
        let (_, sub) = grid_substrate(2);
        let q = SearchQuery::new(vec![(1, Constraint::Eq(0))]);
        let (results, _) = find_paths(&sub, NodeId(0), &q); // 0 % 3 == 0 matches
        assert!(results.iter().all(|r| r.target != NodeId(0)));
    }

    #[test]
    fn no_match_returns_empty_with_bounded_traffic() {
        let (_, sub) = grid_substrate(2);
        let q = SearchQuery::new(vec![(0, Constraint::Eq(9999))]);
        let (results, traffic) = find_paths(&sub, NodeId(5), &q);
        assert!(results.is_empty());
        // Pruning should keep the search near the ascending chain: far less
        // than visiting every node in both trees.
        assert!(
            traffic.search_hops < 2 * sub.len(),
            "search hops {} too high",
            traffic.search_hops
        );
        assert_eq!(traffic.reply_hops, 0);
    }

    #[test]
    fn more_trees_find_more_or_equal_paths() {
        let (_, sub1) = grid_substrate(1);
        let (_, sub3) = grid_substrate(3);
        let q = SearchQuery::new(vec![(0, Constraint::Eq(63))]);
        let (r1, _) = find_paths(&sub1, NodeId(8), &q);
        let (r3, _) = find_paths(&sub3, NodeId(8), &q);
        assert!(r3.len() >= r1.len());
    }

    #[test]
    fn best_path_per_target_picks_shortest() {
        let (_, sub) = grid_substrate(3);
        let q = SearchQuery::new(vec![(1, Constraint::Eq(2))]);
        let (results, _) = find_paths(&sub, NodeId(0), &q);
        let best = best_path_per_target(&results);
        // Unique per target.
        let mut seen = std::collections::HashSet::new();
        for b in &best {
            assert!(seen.insert(b.target));
            let min_len = results
                .iter()
                .filter(|r| r.target == b.target)
                .map(|r| r.path.len())
                .min()
                .unwrap();
            assert_eq!(b.path.len(), min_len);
        }
    }

    #[test]
    fn multi_constraint_and_semantics() {
        let (_, sub) = grid_substrate(2);
        // id in [30, 40] AND id % 3 == 0 -> {30, 33, 36, 39}
        let q = SearchQuery::new(vec![(0, Constraint::Range(30, 40)), (1, Constraint::Eq(0))]);
        let (results, _) = find_paths(&sub, NodeId(1), &q);
        let mut targets: Vec<u16> = results.iter().map(|r| r.target.0).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets, vec![30, 33, 36, 39]);
    }

    #[test]
    fn query_wire_bytes() {
        let q = SearchQuery::new(vec![(0, Constraint::Eq(1)), (1, Constraint::Range(2, 3))]);
        assert_eq!(q.wire_bytes(), (1 + 3) + (1 + 5));
    }
}
