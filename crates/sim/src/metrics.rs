//! Traffic accounting: the observables every figure in the paper reports.

use sensor_net::NodeId;

/// Per-node link-layer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Bytes put on the air by this node (each retransmission counts).
    pub tx_bytes: u64,
    /// Bytes successfully received (addressed to this node).
    pub rx_bytes: u64,
    /// Transmission attempts.
    pub tx_msgs: u64,
    /// Messages successfully received.
    pub rx_msgs: u64,
    /// Messages abandoned after exhausting retries.
    pub send_failures: u64,
    /// Messages dropped because the outgoing queue was full.
    pub queue_drops: u64,
    /// Self-addressed unicasts rejected by the link layer (a radio cannot
    /// unicast to itself; these are protocol bugs surfaced as a metric).
    pub self_send_drops: u64,
}

impl NodeMetrics {
    /// Radio load of the node: bytes sent plus received. "Traffic at the
    /// base station" and "max node load" in the figures use this.
    pub fn load_bytes(&self) -> u64 {
        self.tx_bytes + self.rx_bytes
    }

    /// Message-count load (mesh profile, Appendix F).
    pub fn load_msgs(&self) -> u64 {
        self.tx_msgs + self.rx_msgs
    }
}

/// Per-flow link-layer counters. A *flow* is a protocol-defined traffic
/// class ([`crate::engine::Protocol::flow_of`]); the multi-query subsystem
/// maps query `q` to flow `q + 1` and cross-query aggregate frames to
/// flow 0, so per-query radio costs stay separable under contention.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowMetrics {
    /// Bytes put on the air for this flow (each retransmission counts).
    pub tx_bytes: u64,
    /// Transmission attempts for this flow.
    pub tx_msgs: u64,
    /// Bytes successfully delivered for this flow.
    pub rx_bytes: u64,
    /// Messages successfully delivered for this flow.
    pub rx_msgs: u64,
}

/// Aggregated metrics for a simulation run. `PartialEq`/`Eq` support the
/// determinism contract: equal seeds must yield *identical* metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metrics {
    per_node: Vec<NodeMetrics>,
    /// Indexed by flow id; grown lazily (single-flow protocols only ever
    /// touch flow 0).
    flows: Vec<FlowMetrics>,
}

impl Metrics {
    pub fn new(n: usize) -> Self {
        Metrics {
            per_node: vec![NodeMetrics::default(); n],
            flows: Vec::new(),
        }
    }

    pub fn node(&self, id: NodeId) -> &NodeMetrics {
        &self.per_node[id.index()]
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut NodeMetrics {
        &mut self.per_node[id.index()]
    }

    /// Counters of one flow (zeros for a flow never charged).
    pub fn flow(&self, flow: usize) -> FlowMetrics {
        self.flows.get(flow).copied().unwrap_or_default()
    }

    /// Flows charged at least once, as `0..flow_count()`.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    pub(crate) fn flow_mut(&mut self, flow: usize) -> &mut FlowMetrics {
        if flow >= self.flows.len() {
            self.flows.resize(flow + 1, FlowMetrics::default());
        }
        &mut self.flows[flow]
    }

    pub fn per_node(&self) -> &[NodeMetrics] {
        &self.per_node
    }

    /// Total bytes transmitted network-wide ("Total traffic" in the mote
    /// figures). Counting TX only avoids double-counting each hop.
    pub fn total_tx_bytes(&self) -> u64 {
        self.per_node.iter().map(|m| m.tx_bytes).sum()
    }

    /// Total transmission attempts ("Total traffic (msgs)" in the mesh
    /// figures, Appendix F).
    pub fn total_tx_msgs(&self) -> u64 {
        self.per_node.iter().map(|m| m.tx_msgs).sum()
    }

    /// Load (TX+RX bytes) of a given node; the base station's is reported
    /// in the "(b) Load on the base station" panels.
    pub fn load_bytes(&self, id: NodeId) -> u64 {
        self.per_node[id.index()].load_bytes()
    }

    pub fn load_msgs(&self, id: NodeId) -> u64 {
        self.per_node[id.index()].load_msgs()
    }

    /// Highest per-node load in bytes (Fig 5, Fig 13 "max traffic by any
    /// node").
    pub fn max_load_bytes(&self) -> u64 {
        self.per_node
            .iter()
            .map(NodeMetrics::load_bytes)
            .max()
            .unwrap_or(0)
    }

    /// The `k` highest node loads, descending (Fig 5's rank plot).
    pub fn top_loads_bytes(&self, k: usize) -> Vec<u64> {
        let mut loads: Vec<u64> = self.per_node.iter().map(NodeMetrics::load_bytes).collect();
        loads.sort_unstable_by(|a, b| b.cmp(a));
        loads.truncate(k);
        loads
    }

    pub fn total_send_failures(&self) -> u64 {
        self.per_node.iter().map(|m| m.send_failures).sum()
    }

    pub fn total_queue_drops(&self) -> u64 {
        self.per_node.iter().map(|m| m.queue_drops).sum()
    }

    /// Merge counters from another run (averaging across seeds happens in
    /// the harness; this supports summing phases of one run).
    pub fn absorb(&mut self, other: &Metrics) {
        assert_eq!(self.per_node.len(), other.per_node.len());
        for (a, b) in self.per_node.iter_mut().zip(&other.per_node) {
            a.tx_bytes += b.tx_bytes;
            a.rx_bytes += b.rx_bytes;
            a.tx_msgs += b.tx_msgs;
            a.rx_msgs += b.rx_msgs;
            a.send_failures += b.send_failures;
            a.queue_drops += b.queue_drops;
            a.self_send_drops += b.self_send_drops;
        }
        for (f, b) in other.flows.iter().enumerate() {
            let a = self.flow_mut(f);
            a.tx_bytes += b.tx_bytes;
            a.tx_msgs += b.tx_msgs;
            a.rx_bytes += b.rx_bytes;
            a.rx_msgs += b.rx_msgs;
        }
    }

    pub fn total_self_send_drops(&self) -> u64 {
        self.per_node.iter().map(|m| m.self_send_drops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_top_loads() {
        let mut m = Metrics::new(3);
        m.node_mut(NodeId(0)).tx_bytes = 100;
        m.node_mut(NodeId(0)).rx_bytes = 50;
        m.node_mut(NodeId(1)).tx_bytes = 10;
        m.node_mut(NodeId(2)).rx_bytes = 500;
        assert_eq!(m.total_tx_bytes(), 110);
        assert_eq!(m.load_bytes(NodeId(0)), 150);
        assert_eq!(m.max_load_bytes(), 500);
        assert_eq!(m.top_loads_bytes(2), vec![500, 150]);
        assert_eq!(m.top_loads_bytes(10).len(), 3);
    }

    #[test]
    fn flow_counters_grow_lazily_and_absorb() {
        let mut a = Metrics::new(1);
        assert_eq!(a.flow_count(), 0);
        assert_eq!(a.flow(7), FlowMetrics::default());
        a.flow_mut(2).tx_bytes = 10;
        assert_eq!(a.flow_count(), 3);
        let mut b = Metrics::new(1);
        b.flow_mut(4).tx_bytes = 5;
        a.absorb(&b);
        assert_eq!(a.flow(2).tx_bytes, 10);
        assert_eq!(a.flow(4).tx_bytes, 5);
        assert_eq!(a.flow_count(), 5);
    }

    #[test]
    fn absorb_sums() {
        let mut a = Metrics::new(2);
        let mut b = Metrics::new(2);
        a.node_mut(NodeId(0)).tx_msgs = 3;
        b.node_mut(NodeId(0)).tx_msgs = 4;
        b.node_mut(NodeId(1)).queue_drops = 2;
        a.absorb(&b);
        assert_eq!(a.node(NodeId(0)).tx_msgs, 7);
        assert_eq!(a.total_queue_drops(), 2);
    }
}
