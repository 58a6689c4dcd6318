//! Network topology: node positions plus unit-disk connectivity.

use crate::cells::CellGrid;
use crate::geom::Point;
use std::collections::VecDeque;

/// Identifier of a sensor node. Node 0 is the base station by convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A deployed sensor network: positions and symmetric unit-disk links.
///
/// The adjacency structure is immutable after construction; node *failures*
/// are modelled at the simulation layer so that the same `Topology` can be
/// shared across runs.
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Point>,
    radio_range: f64,
    adjacency: Vec<Vec<NodeId>>,
    base: NodeId,
}

impl Topology {
    /// Build a topology from positions with unit-disk connectivity at
    /// `radio_range`: `i` and `j` are linked when `positions[i].dist2(
    /// &positions[j]) <= radio_range * radio_range`. Neighbor lists are
    /// sorted by id for determinism.
    ///
    /// Candidate pairs come from a uniform cell grid whose cells are at
    /// least the range wide, so the build is O(n + links) for a spread-out
    /// layout. Each node's later neighbours are sorted before they are
    /// pushed to both ends, which is the push order (and so the list
    /// capacities) of a scan over every pair `i < j`.
    ///
    /// # Panics
    /// If `positions` is empty, has more than 65,536 entries (ids are
    /// 16-bit), or `base` is not one of them.
    pub fn from_positions(positions: Vec<Point>, radio_range: f64, base: NodeId) -> Self {
        assert!(!positions.is_empty(), "topology needs at least one node");
        assert!(
            positions.len() <= 1 << 16,
            "{} nodes: node ids are 16-bit, at most 65536 nodes",
            positions.len()
        );
        assert!(base.index() < positions.len(), "base id out of range");
        let range2 = radio_range * radio_range;
        let cells = CellGrid::new(&positions, range2);
        let mut adjacency = vec![Vec::new(); positions.len()];
        let mut later = Vec::new();
        for i in 0..positions.len() {
            later.clear();
            cells.for_each_later(&positions, i, |j, d2| {
                if d2 <= range2 {
                    later.push(j);
                }
            });
            later.sort_unstable();
            for &j in &later {
                adjacency[i].push(NodeId(j as u16));
                adjacency[j].push(NodeId(i as u16));
            }
        }
        Topology {
            positions,
            radio_range,
            adjacency,
            base,
        }
    }

    pub fn len(&self) -> usize {
        self.positions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    pub fn base(&self) -> NodeId {
        self.base
    }

    pub fn radio_range(&self) -> f64 {
        self.radio_range
    }

    pub fn position(&self, id: NodeId) -> Point {
        self.positions[id.index()]
    }

    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        &self.adjacency[id.index()]
    }

    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency[a.index()].binary_search(&b).is_ok()
    }

    #[cfg(test)]
    pub(crate) fn adjacency(&self) -> &[Vec<NodeId>] {
        &self.adjacency
    }

    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len()).map(|i| NodeId(i as u16))
    }

    /// Mean number of neighbors per node.
    pub fn avg_degree(&self) -> f64 {
        let total: usize = self.adjacency.iter().map(Vec::len).sum();
        total as f64 / self.positions.len() as f64
    }

    /// Hop counts from `from` to every node (BFS). Unreachable nodes get
    /// `u16::MAX`.
    pub fn bfs_hops(&self, from: NodeId) -> Vec<u16> {
        let mut hops = vec![u16::MAX; self.positions.len()];
        let mut queue = VecDeque::new();
        hops[from.index()] = 0;
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            let h = hops[cur.index()];
            for &nb in &self.adjacency[cur.index()] {
                if hops[nb.index()] == u16::MAX {
                    hops[nb.index()] = h + 1;
                    queue.push_back(nb);
                }
            }
        }
        hops
    }

    /// Shortest path between two nodes in hops (inclusive of endpoints), or
    /// `None` if disconnected. Deterministic tie-breaking by node id.
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        if from == to {
            return Some(vec![from]);
        }
        let mut prev: Vec<Option<NodeId>> = vec![None; self.positions.len()];
        let mut seen = vec![false; self.positions.len()];
        let mut queue = VecDeque::new();
        seen[from.index()] = true;
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            for &nb in &self.adjacency[cur.index()] {
                if !seen[nb.index()] {
                    seen[nb.index()] = true;
                    prev[nb.index()] = Some(cur);
                    if nb == to {
                        let mut path = vec![to];
                        let mut at = to;
                        while let Some(p) = prev[at.index()] {
                            path.push(p);
                            at = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(nb);
                }
            }
        }
        None
    }

    /// Hop distance between two nodes, or `None` when disconnected.
    pub fn hop_distance(&self, from: NodeId, to: NodeId) -> Option<u16> {
        let hops = self.bfs_hops(from);
        let h = hops[to.index()];
        (h != u16::MAX).then_some(h)
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        self.bfs_hops(NodeId(0)).iter().all(|&h| h != u16::MAX)
    }

    /// Geometric center of the deployment.
    pub fn centroid(&self) -> Point {
        let n = self.positions.len() as f64;
        let sx: f64 = self.positions.iter().map(|p| p.x).sum();
        let sy: f64 = self.positions.iter().map(|p| p.y).sum();
        Point::new(sx / n, sy / n)
    }

    /// Node closest to an arbitrary point (used by GHT hashing).
    pub fn closest_node(&self, p: Point) -> NodeId {
        let mut best = NodeId(0);
        let mut best_d = f64::INFINITY;
        for (i, pos) in self.positions.iter().enumerate() {
            let d = pos.dist2(&p);
            if d < best_d {
                best_d = d;
                best = NodeId(i as u16);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_topology(n: usize) -> Topology {
        let positions = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
        Topology::from_positions(positions, 1.1, NodeId(0))
    }

    #[test]
    fn line_adjacency() {
        let t = line_topology(5);
        assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(t.neighbors(NodeId(2)), &[NodeId(1), NodeId(3)]);
        assert!(t.are_neighbors(NodeId(3), NodeId(4)));
        assert!(!t.are_neighbors(NodeId(0), NodeId(2)));
    }

    #[test]
    fn line_bfs_and_paths() {
        let t = line_topology(6);
        let hops = t.bfs_hops(NodeId(0));
        assert_eq!(hops, vec![0, 1, 2, 3, 4, 5]);
        let p = t.shortest_path(NodeId(1), NodeId(4)).unwrap();
        assert_eq!(p, vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        assert_eq!(t.hop_distance(NodeId(0), NodeId(5)), Some(5));
        assert!(t.is_connected());
    }

    #[test]
    fn disconnected_detected() {
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(10.0, 0.0),
        ];
        let t = Topology::from_positions(positions, 1.5, NodeId(0));
        assert!(!t.is_connected());
        assert_eq!(t.shortest_path(NodeId(0), NodeId(2)), None);
        assert_eq!(t.hop_distance(NodeId(0), NodeId(2)), None);
    }

    /// Ids are 16-bit: node 70,000 would alias node 4,464.
    #[test]
    #[should_panic(expected = "node ids are 16-bit")]
    fn more_nodes_than_ids_is_refused() {
        Topology::from_positions(vec![Point::new(0.0, 0.0); 70_000], 1.0, NodeId(0));
    }

    #[test]
    fn self_path_is_singleton() {
        let t = line_topology(3);
        assert_eq!(t.shortest_path(NodeId(1), NodeId(1)), Some(vec![NodeId(1)]));
    }

    #[test]
    fn closest_node_picks_nearest() {
        let t = line_topology(5);
        assert_eq!(t.closest_node(Point::new(2.2, 0.3)), NodeId(2));
        assert_eq!(t.closest_node(Point::new(-5.0, 0.0)), NodeId(0));
    }

    #[test]
    fn avg_degree_line() {
        let t = line_topology(5);
        // degrees: 1,2,2,2,1 -> 8/5
        assert!((t.avg_degree() - 1.6).abs() < 1e-12);
    }
}
