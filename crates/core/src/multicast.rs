//! Multicast trees (Appendix E).
//!
//! A producer sending to several join nodes builds a multicast tree over
//! the union of its unicast paths; interior nodes cache forwarding state,
//! so shared prefixes carry each tuple once. Theorem 1 shows optimal
//! construction is set-cover-hard, motivating this lightweight heuristic:
//! union the paths (first parent wins), then optionally improve with
//! snooped cross-links (path collapsing, Algorithms 2-3).

use sensor_net::NodeId;
use std::collections::{HashMap, HashSet, VecDeque};

/// A multicast tree rooted at the owning producer.
#[derive(Debug, Clone, Default)]
pub struct McastTree {
    /// children[n] = nodes n forwards copies to.
    children: HashMap<NodeId, Vec<NodeId>>,
    root: Option<NodeId>,
    terminals: Vec<NodeId>,
}

impl McastTree {
    /// Build from the union of root-anchored paths (each starts at the
    /// producer). Later paths graft onto the existing tree at their first
    /// divergence point — shared prefixes are stored once.
    pub fn from_paths(root: NodeId, paths: &[Vec<NodeId>]) -> McastTree {
        let mut tree = McastTree {
            children: HashMap::new(),
            root: Some(root),
            terminals: Vec::new(),
        };
        let mut in_tree: HashSet<NodeId> = HashSet::new();
        in_tree.insert(root);
        for path in paths {
            assert!(path.first() == Some(&root), "paths must start at the owner");
            let terminal = *path.last().expect("non-empty path");
            if !tree.terminals.contains(&terminal) {
                tree.terminals.push(terminal);
            }
            for w in path.windows(2) {
                let (a, b) = (w[0], w[1]);
                if in_tree.contains(&b) {
                    continue; // already reachable: keep the first parent
                }
                tree.children.entry(a).or_default().push(b);
                in_tree.insert(b);
            }
        }
        tree
    }

    /// Rebuild with extra cross-links available (snooped collapse
    /// opportunities): BFS shortest-path tree from the root to all
    /// terminals over (path edges ∪ cross links), then prune non-terminal
    /// leaves. Returns the improved tree.
    pub fn rebuild_with_links(
        root: NodeId,
        paths: &[Vec<NodeId>],
        cross_links: &[(NodeId, NodeId)],
    ) -> McastTree {
        let base = McastTree::from_paths(root, paths);
        // Adjacency = all path edges + cross links (both directions).
        let mut adj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        let add = |a: NodeId, b: NodeId, adj: &mut HashMap<NodeId, Vec<NodeId>>| {
            adj.entry(a).or_default().push(b);
            adj.entry(b).or_default().push(a);
        };
        for path in paths {
            for w in path.windows(2) {
                add(w[0], w[1], &mut adj);
            }
        }
        for &(a, b) in cross_links {
            add(a, b, &mut adj);
        }
        // BFS from root.
        let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
        let mut seen: HashSet<NodeId> = HashSet::new();
        seen.insert(root);
        let mut q = VecDeque::new();
        q.push_back(root);
        while let Some(n) = q.pop_front() {
            if let Some(nbrs) = adj.get(&n) {
                let mut sorted = nbrs.clone();
                sorted.sort_unstable();
                sorted.dedup();
                for b in sorted {
                    if seen.insert(b) {
                        parent.insert(b, n);
                        q.push_back(b);
                    }
                }
            }
        }
        // Keep only edges on root→terminal walks.
        let mut tree = McastTree {
            children: HashMap::new(),
            root: Some(root),
            terminals: base.terminals.clone(),
        };
        let mut kept: HashSet<(NodeId, NodeId)> = HashSet::new();
        for &t in &base.terminals {
            let mut at = t;
            while at != root {
                let Some(&p) = parent.get(&at) else {
                    break; // unreachable terminal: keep original handling
                };
                if !kept.insert((p, at)) {
                    break;
                }
                tree.children.entry(p).or_default().push(at);
                at = p;
            }
        }
        tree
    }

    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    pub fn terminals(&self) -> &[NodeId] {
        &self.terminals
    }

    pub fn children(&self, n: NodeId) -> &[NodeId] {
        self.children.get(&n).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of edges = transmissions per multicast of one tuple.
    pub fn edge_count(&self) -> usize {
        self.children.values().map(Vec::len).sum()
    }

    /// All (node, children) entries — the state pushed by McastSetup.
    pub fn entries(&self) -> Vec<(NodeId, Vec<NodeId>)> {
        let mut v: Vec<(NodeId, Vec<NodeId>)> = self
            .children
            .iter()
            .map(|(n, cs)| (*n, cs.clone()))
            .collect();
        v.sort_by_key(|(n, _)| *n);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn shared_prefix_stored_once() {
        // 0-1-2-3 and 0-1-2-4: edge (0,1) and (1,2) shared.
        let paths = vec![vec![n(0), n(1), n(2), n(3)], vec![n(0), n(1), n(2), n(4)]];
        let t = McastTree::from_paths(n(0), &paths);
        assert_eq!(t.edge_count(), 4); // 0-1, 1-2, 2-3, 2-4
        assert_eq!(t.children(n(2)), &[n(3), n(4)]);
        assert_eq!(t.terminals(), &[n(3), n(4)]);
        // vs separate unicast: 3 + 3 = 6 transmissions.
        assert!(t.edge_count() < 6);
    }

    #[test]
    fn single_path_degenerates_to_chain() {
        let t = McastTree::from_paths(n(0), &[vec![n(0), n(5), n(9)]]);
        assert_eq!(t.edge_count(), 2);
        assert_eq!(t.children(n(0)), &[n(5)]);
        assert_eq!(t.children(n(5)), &[n(9)]);
    }

    #[test]
    fn cross_link_shortens_tree() {
        // Two disjoint paths 0-1-2-3(j1) and 0-4-5-6(j2) with a snooped
        // link 2~6: the rebuild reaches j2 via ...2-6 instead of 0-4-5-6.
        let paths = vec![vec![n(0), n(1), n(2), n(3)], vec![n(0), n(4), n(5), n(6)]];
        let plain = McastTree::from_paths(n(0), &paths);
        assert_eq!(plain.edge_count(), 6);
        let collapsed = McastTree::rebuild_with_links(n(0), &paths, &[(n(2), n(6))]);
        assert!(collapsed.edge_count() < plain.edge_count());
        // All terminals still reachable.
        assert_eq!(collapsed.terminals(), &[n(3), n(6)]);
    }

    #[test]
    fn rebuild_without_links_is_no_worse() {
        let paths = vec![
            vec![n(0), n(1), n(2)],
            vec![n(0), n(1), n(3)],
            vec![n(0), n(4)],
        ];
        let a = McastTree::from_paths(n(0), &paths);
        let b = McastTree::rebuild_with_links(n(0), &paths, &[]);
        assert!(b.edge_count() <= a.edge_count());
    }

    #[test]
    fn entries_sorted_for_determinism() {
        let paths = vec![vec![n(0), n(2)], vec![n(0), n(1)]];
        let t = McastTree::from_paths(n(0), &paths);
        let e = t.entries();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].0, n(0));
    }
}
