//! Simulation parameters.

/// Retransmission attempts after the first (TinyOS-style link ACKs).
pub const MAX_RETRIES: u8 = 3;

/// Link-layer header size in bytes charged per message (TinyOS active
/// message header + CRC).
pub const HEADER_BYTES: u32 = 11;

/// Link-layer and timing parameters of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Probability that a single transmission attempt is lost.
    pub loss_prob: f64,
    /// Messages a node may transmit per transmission cycle (MAC budget).
    pub tx_per_cycle: usize,
    /// Outgoing queue capacity; sends beyond it are dropped and counted
    /// (this is the failure mode that sinks Yang+07 in §4.2).
    pub queue_capacity: usize,
    /// Transmission cycles per sampling cycle (§4.1: 100).
    pub tx_per_sampling_cycle: u32,
    /// Whether neighbors snoop on transmissions (needed by path collapsing;
    /// off by default as it costs simulation time, not simulated traffic).
    /// A session turns it on itself for a path-collapsing query
    /// ([`crate::Engine::set_snooping`]); raw engine runs set it here.
    pub snooping: bool,
    /// RNG seed for link-loss draws.
    pub seed: u64,
    /// Fair per-flow MAC arbitration: when a node's queue holds messages of
    /// several flows (concurrent queries), each transmission slot goes to
    /// the least-served flow this cycle instead of strict FIFO — one hot
    /// query cannot starve the others' share of the shared radio. Off by
    /// default (single-flow protocols see pure FIFO either way).
    pub fair_mac: bool,
    /// Ignored: the engine has one transmit path, and it runs on the
    /// calling thread. Kept only because the `benchmark/` harness still
    /// sets it; the field goes once that harness stops (ROADMAP item 3).
    pub threads: usize,
    /// Per-node energy budget in radio bytes (TX + RX) accumulated since
    /// the last [`crate::Engine::reset_metrics`] — in the standard
    /// harnesses, the execution phase (initiation is excluded, matching
    /// Table 3's cost separation); a node whose load reaches the budget
    /// dies at the next sampling-cycle boundary. `0` disables the model.
    /// The base station is exempt (mains-powered root, as in §7's
    /// failure model).
    pub energy_budget_bytes: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            loss_prob: 0.05,
            tx_per_cycle: 4,
            queue_capacity: 64,
            tx_per_sampling_cycle: 100,
            snooping: false,
            seed: 0,
            fair_mac: false,
            threads: 1,
            energy_budget_bytes: 0,
        }
    }
}

impl SimConfig {
    /// Lossless configuration — used by unit tests and by analytic-vs-
    /// simulated cost-model validation, where retransmission noise would
    /// obscure the comparison.
    pub fn lossless() -> Self {
        SimConfig {
            loss_prob: 0.0,
            ..SimConfig::default()
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_snooping(mut self, on: bool) -> Self {
        self.snooping = on;
        self
    }

    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss probability must be in [0,1)");
        self.loss_prob = p;
        self
    }

    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap;
        self
    }

    pub fn with_fair_mac(mut self, on: bool) -> Self {
        self.fair_mac = on;
        self
    }

    pub fn with_energy_budget(mut self, bytes: u64) -> Self {
        self.energy_budget_bytes = bytes;
        self
    }

    /// Sets the ignored [`SimConfig::threads`]; kept for the same reason.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert!(c.loss_prob > 0.0 && c.loss_prob < 0.5);
        assert!(c.tx_per_cycle >= 1);
        assert_eq!(c.tx_per_sampling_cycle, 100);
    }

    #[test]
    fn builder_chain() {
        let c = SimConfig::lossless().with_seed(9).with_snooping(true);
        assert_eq!(c.loss_prob, 0.0);
        assert_eq!(c.seed, 9);
        assert!(c.snooping);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_rejected() {
        let _ = SimConfig::default().with_loss(1.5);
    }
}
