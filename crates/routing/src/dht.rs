//! Chord-style DHT overlay for 802.11 mesh networks (Appendix F).
//!
//! On an IP mesh, grouped joins can hash keys into a DHT: the node whose
//! hashed identifier most closely follows the key (clockwise on the ring)
//! is responsible. Overlay routing is greedy in key space via finger
//! tables; once the responsible node is resolved, data takes the mesh's
//! shortest path to it (IP routing). The paper observes DHT paths are
//! slightly shorter than GPSR's (no void traversal) at the price of higher
//! maximum load — both properties emerge from this model.

use sensor_net::{NodeId, Topology};

#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A DHT overlay over all nodes of a topology.
#[derive(Debug, Clone)]
pub struct DhtOverlay {
    /// Ring id of each node (`ids[node]`).
    ids: Vec<u64>,
    /// Ring order: node indices sorted by ring id.
    ring: Vec<NodeId>,
    /// Finger tables: `fingers[node][i]` = responsible(ids[node] + 2^i).
    fingers: Vec<Vec<NodeId>>,
}

impl DhtOverlay {
    pub fn new(topo: &Topology) -> Self {
        let n = topo.len();
        let ids: Vec<u64> = (0..n).map(|i| mix64(0xD47 ^ (i as u64) << 8)).collect();
        let mut ring: Vec<NodeId> = (0..n).map(|i| NodeId(i as u16)).collect();
        ring.sort_by_key(|id| ids[id.index()]);
        let mut overlay = DhtOverlay {
            ids,
            ring,
            fingers: Vec::new(),
        };
        let fingers = (0..n)
            .map(|i| {
                (0..64)
                    .step_by(2) // 32 fingers: O(log n) overlay hops at these scales
                    .map(|b| overlay.responsible(overlay.ids[i].wrapping_add(1u64 << b)))
                    .collect()
            })
            .collect();
        overlay.fingers = fingers;
        overlay
    }

    /// Ring id of a node.
    pub fn ring_id(&self, node: NodeId) -> u64 {
        self.ids[node.index()]
    }

    /// The node responsible for a key: first ring id clockwise from the key.
    pub fn responsible(&self, key: u64) -> NodeId {
        // Binary search in sorted ring order.
        let pos = self.ring.partition_point(|n| self.ids[n.index()] < key);
        self.ring[pos % self.ring.len()]
    }

    /// The home node for a join key.
    pub fn home_for_key(&self, key: u64) -> NodeId {
        self.responsible(mix64(key ^ 0x0c0ffee))
    }

    /// Clockwise distance from `a` to `b` on the ring.
    fn clockwise(a: u64, b: u64) -> u64 {
        b.wrapping_sub(a)
    }

    /// Overlay hop sequence from `from` to the node responsible for `key`
    /// (greedy: the finger making most clockwise progress without
    /// overshooting; the ring successor guarantees progress).
    pub fn overlay_route(&self, from: NodeId, key: u64) -> Vec<NodeId> {
        let target = self.responsible(key);
        let mut path = vec![from];
        let mut at = from;
        let mut guard = 0;
        while at != target {
            let goal = Self::clockwise(self.ids[at.index()], self.ids[target.index()]);
            let next = self.fingers[at.index()]
                .iter()
                .copied()
                .filter(|&f| f != at)
                .filter(|&f| Self::clockwise(self.ids[at.index()], self.ids[f.index()]) <= goal)
                .max_by_key(|&f| Self::clockwise(self.ids[at.index()], self.ids[f.index()]))
                .unwrap_or_else(|| self.successor(at));
            at = next;
            path.push(at);
            guard += 1;
            assert!(guard <= self.ring.len() + 64, "overlay routing diverged");
        }
        path
    }

    fn successor(&self, node: NodeId) -> NodeId {
        let pos = self
            .ring
            .iter()
            .position(|&n| n == node)
            .expect("node on ring");
        self.ring[(pos + 1) % self.ring.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        sensor_net::gen::grid(8, 8)
    }

    #[test]
    fn responsibility_partition_is_total_and_deterministic() {
        let t = topo();
        let dht = DhtOverlay::new(&t);
        for key in (0..2000u64).map(mix64) {
            let r1 = dht.responsible(key);
            let r2 = dht.responsible(key);
            assert_eq!(r1, r2);
        }
    }

    #[test]
    fn responsible_is_clockwise_nearest() {
        let t = topo();
        let dht = DhtOverlay::new(&t);
        let key = 0x1234_5678_9abc_def0;
        let r = dht.responsible(key);
        let d_r = dht.ring_id(r).wrapping_sub(key);
        for i in 0..t.len() {
            let d = dht.ring_id(NodeId(i as u16)).wrapping_sub(key);
            assert!(d_r <= d, "node {i} is clockwise-closer");
        }
    }

    #[test]
    fn overlay_route_reaches_target_quickly() {
        let t = topo();
        let dht = DhtOverlay::new(&t);
        for key in 0..40u64 {
            let k = mix64(key);
            let path = dht.overlay_route(NodeId(0), k);
            assert_eq!(*path.last().unwrap(), dht.responsible(k));
            assert!(
                path.len() <= 16,
                "overlay path unexpectedly long: {}",
                path.len()
            );
        }
    }

    #[test]
    fn homes_are_balanced() {
        let t = topo();
        let dht = DhtOverlay::new(&t);
        let mut counts = vec![0u32; t.len()];
        for key in 0..640u64 {
            counts[dht.home_for_key(key).index()] += 1;
        }
        let max = *counts.iter().max().unwrap();
        // 640 keys over 64 nodes: expect ~10 per node; hash imbalance exists
        // but should stay within an order of magnitude.
        assert!(max < 60, "worst node holds {max} keys");
    }
}
