//! Chord-style DHT key placement for 802.11 mesh networks (Appendix F).
//!
//! On an IP mesh, grouped joins can hash keys into a DHT: the node whose
//! hashed identifier most closely follows the key (clockwise on the ring)
//! is responsible. Once the responsible node is resolved, data takes the
//! mesh's shortest path to it (IP routing). The paper observes DHT paths
//! are slightly shorter than GPSR's (no void traversal) at the price of
//! higher maximum load — both properties emerge from this model.

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
}

impl DhtOverlay {
    pub fn new(topo: &Topology) -> Self {
        let n = topo.len();
        let ids: Vec<u64> = (0..n).map(|i| mix64(0xD47 ^ (i as u64) << 8)).collect();
        let mut ring: Vec<NodeId> = (0..n).map(|i| NodeId(i as u16)).collect();
        ring.sort_by_key(|id| ids[id.index()]);
        DhtOverlay { ids, ring }
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
        let d_r = dht.ids[r.index()].wrapping_sub(key);
        for (i, id) in dht.ids.iter().enumerate() {
            let d = id.wrapping_sub(key);
            assert!(d_r <= d, "node {i} is clockwise-closer");
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
