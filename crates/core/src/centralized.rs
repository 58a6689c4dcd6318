//! Centralized optimization baseline (§4.3, Figures 6-7).
//!
//! The comparison point for the paper's decentralized initiation: every
//! node ships its connectivity and static attributes to the base, which
//! computes globally optimal join-node placements and floods the plan
//! back. The model below charges exactly those flows over the primary
//! routing tree and reports the base-station congestion and latency that
//! Figure 6 contrasts with the distributed scheme.

use sensor_net::{NodeId, Topology};
use sensor_routing::RoutingTree;

/// Traffic and latency of the centralized initiation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CentralizedInit {
    /// Total bytes transmitted network-wide.
    pub total_bytes: u64,
    /// Bytes through the base station (its TX + RX).
    pub base_bytes: u64,
    /// Transmission cycles until the last plan message is delivered.
    pub latency_cycles: u64,
}

/// Per-node report size: neighbor list (2B each) + static excerpt + header.
fn report_bytes(topo: &Topology, n: NodeId, header: u32) -> u64 {
    (2 * topo.neighbors(n).len() as u32 + 24 + header) as u64
}

/// Simulate (analytically, hop-by-hop) the gather + scatter of centralized
/// optimization over the primary tree.
pub fn centralized_initiation(topo: &Topology, pairs: &[(NodeId, NodeId)]) -> CentralizedInit {
    let tree = RoutingTree::build(topo, topo.base());
    let header = 11u32;
    let mut total = 0u64;
    let mut base_bytes = 0u64;
    let mut max_up = 0u64;
    // Gather: every node reports connectivity + statics to the base.
    for n in topo.node_ids() {
        if n == topo.base() {
            continue;
        }
        let hops = tree.depth(n) as u64;
        let bytes = report_bytes(topo, n, header);
        total += hops * bytes;
        base_bytes += bytes; // received at the base
        max_up = max_up.max(hops);
    }
    // Scatter: a plan message (pair, join node, path) to each endpoint.
    let mut max_down = 0u64;
    for &(s, t) in pairs {
        for node in [s, t] {
            let hops = tree.depth(node) as u64;
            let bytes = (16 + header) as u64;
            total += hops * bytes;
            base_bytes += bytes; // transmitted by the base
            max_down = max_down.max(hops);
        }
    }
    CentralizedInit {
        total_bytes: total,
        base_bytes,
        // Gather serializes through the base's single radio: the base
        // receives one report per transmission cycle, then plans go out.
        latency_cycles: (topo.len() as u64 - 1).max(max_up) + max_down,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        sensor_net::random_with_degree(60, 7.0, 4)
    }

    #[test]
    fn gather_dominates_base_traffic() {
        let t = topo();
        let init = centralized_initiation(&t, &[(NodeId(5), NodeId(40))]);
        assert!(init.total_bytes > 0);
        // Base handles at least one report per node.
        assert!(init.base_bytes as usize >= (t.len() - 1) * 24);
        assert!(init.latency_cycles as usize >= t.len() - 1);
    }
}
