//! Limited-exploration path repair (§7, mechanism from \[11\]).
//!
//! When a node on an established producer→join-node path fails, the
//! upstream neighbor attempts a *local* bypass: a one- or two-hop bridge
//! around the failed node using only information available within its radio
//! neighborhood. If no bypass exists the producer falls back to joining at
//! the base station (handled by the join layer).

use sensor_net::{NodeId, Topology};

/// Try to splice a path around `failed`. `is_alive` reports current node
/// liveness (other concurrent failures). Returns the repaired path, or
/// `None` if no local bypass exists.
///
/// Only bridges of one intermediate node (common neighbor) or two
/// intermediate nodes (neighbor-of-neighbor) are explored, mirroring the
/// "limited exploration" strategy: repair traffic stays within the failed
/// node's neighborhood.
pub fn repair_path(
    topo: &Topology,
    path: &[NodeId],
    failed: NodeId,
    is_alive: impl Fn(NodeId) -> bool,
) -> Option<Vec<NodeId>> {
    let idx = path.iter().position(|&n| n == failed)?;
    if idx == 0 || idx + 1 == path.len() {
        // Endpoint failed: not repairable by a bypass.
        return None;
    }
    let before = path[idx - 1];
    let after = path[idx + 1];
    let usable = |n: NodeId| is_alive(n) && n != failed && !path.contains(&n);

    // Direct link may exist if the path was not shortest (multi-tree paths
    // need not be minimal).
    if topo.are_neighbors(before, after) {
        let mut repaired = path.to_vec();
        repaired.remove(idx);
        return Some(repaired);
    }

    // One-node bridge: common alive neighbor.
    let bridge1 = topo
        .neighbors(before)
        .iter()
        .copied()
        .filter(|&w| usable(w))
        .find(|&w| topo.are_neighbors(w, after));
    if let Some(w) = bridge1 {
        let mut repaired = path[..idx].to_vec();
        repaired.push(w);
        repaired.extend_from_slice(&path[idx + 1..]);
        return Some(repaired);
    }

    // Two-node bridge: a -- b with a ~ before, b ~ after.
    for &a in topo.neighbors(before) {
        if !usable(a) {
            continue;
        }
        for &b in topo.neighbors(a) {
            if usable(b) && b != a && topo.are_neighbors(b, after) {
                let mut repaired = path[..idx].to_vec();
                repaired.push(a);
                repaired.push(b);
                repaired.extend_from_slice(&path[idx + 1..]);
                return Some(repaired);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensor_net::Point;
    use sensor_net::Topology;

    /// Ladder topology: two parallel lines with rungs. With radio range 1.1
    /// only orthogonal links exist; with 1.5 diagonals connect too.
    ///   0 - 1 - 2 - 3
    ///   |   |   |   |
    ///   4 - 5 - 6 - 7
    fn ladder(range: f64) -> Topology {
        let mut pts = Vec::new();
        for i in 0..4 {
            pts.push(Point::new(i as f64, 1.0));
        }
        for i in 0..4 {
            pts.push(Point::new(i as f64, 0.0));
        }
        Topology::from_positions(pts, range, NodeId(0))
    }

    #[test]
    fn no_bypass_when_detour_exceeds_two_hops() {
        // Orthogonal-only ladder: bypassing node 2 on 1-2-3 needs the walk
        // 1-5-6-7-3 (three intermediates) — beyond limited exploration.
        let topo = ladder(1.1);
        let path = vec![NodeId(1), NodeId(2), NodeId(3)];
        assert_eq!(repair_path(&topo, &path, NodeId(2), |_| true), None);
    }

    #[test]
    fn repairs_with_single_bridge() {
        // Diagonal links in range: node 6 neighbors both 1 and 3.
        let topo = ladder(1.5);
        let path = vec![NodeId(1), NodeId(2), NodeId(3)];
        let repaired = repair_path(&topo, &path, NodeId(2), |_| true).expect("bypass");
        assert_eq!(repaired, vec![NodeId(1), NodeId(6), NodeId(3)]);
    }

    #[test]
    fn repairs_with_two_node_bridge() {
        // Straight line 0-1-2 with an arc detour 0-3-4-2 above it; no
        // single common neighbor exists, so the two-node bridge (3, 4) is
        // the only local bypass when 1 fails.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.5, 0.9),
            Point::new(1.5, 0.9),
        ];
        let topo = Topology::from_positions(pts, 1.05, NodeId(0));
        let path = vec![NodeId(0), NodeId(1), NodeId(2)];
        let repaired = repair_path(&topo, &path, NodeId(1), |_| true).expect("two-node bypass");
        assert_eq!(repaired, vec![NodeId(0), NodeId(3), NodeId(4), NodeId(2)]);
    }

    #[test]
    fn repaired_path_is_valid_walk_avoiding_failed() {
        let topo = sensor_net::gen::grid(6, 6);
        let path = topo.shortest_path(NodeId(0), NodeId(35)).unwrap();
        let failed = path[path.len() / 2];
        if let Some(rep) = repair_path(&topo, &path, failed, |n| n != failed) {
            assert!(!rep.contains(&failed));
            for w in rep.windows(2) {
                assert!(topo.are_neighbors(w[0], w[1]));
            }
            assert_eq!(rep.first(), path.first());
            assert_eq!(rep.last(), path.last());
        } else {
            panic!("grid interior failure should be repairable");
        }
    }

    #[test]
    fn endpoint_failure_not_repairable() {
        let topo = ladder(1.1);
        let path = vec![NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(repair_path(&topo, &path, NodeId(0), |_| true), None);
        assert_eq!(repair_path(&topo, &path, NodeId(2), |_| true), None);
    }

    #[test]
    fn node_not_on_path_returns_none() {
        let topo = ladder(1.1);
        let path = vec![NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(repair_path(&topo, &path, NodeId(7), |_| true), None);
    }

    #[test]
    fn respects_liveness_of_bridges() {
        let topo = sensor_net::gen::grid(5, 5);
        let path = topo.shortest_path(NodeId(0), NodeId(24)).unwrap();
        let failed = path[1];
        // All potential bridge nodes dead: repair must fail.
        let repaired = repair_path(&topo, &path, failed, |n| path.contains(&n) && n != failed);
        assert_eq!(repaired, None);
    }
}
