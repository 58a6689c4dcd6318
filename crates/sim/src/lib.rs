//! Deterministic discrete-time simulator for multi-hop wireless networks.
//!
//! The paper evaluates on TOSSIM (motes) and a Java 802.11 mesh simulator;
//! both report *traffic* (bytes or messages) and *latency in cycles*. This
//! crate reproduces exactly those observables:
//!
//! - time advances in **transmission cycles**; a message traverses one hop
//!   per cycle; the evaluation's *sampling cycle* equals 100 transmission
//!   cycles (§4.1);
//! - links drop messages with a configurable probability and senders
//!   retransmit up to a bound, with every attempt charged to the sender
//!   (modeling the radio-level retransmissions TOSSIM simulates);
//! - per-node TX/RX byte and message counters feed the traffic metrics of
//!   every figure;
//! - radio broadcast lets neighbors *snoop* on transmissions — the hook the
//!   path-collapsing optimization (Appendix E) relies on;
//! - nodes can be killed mid-run for the failure experiments (§7), either
//!   directly or through a declarative [`dynamics::DynamicsPlan`] of
//!   scheduled faults (uniform-random, targeted, region outages) and
//!   link-loss shifts fired at cycle boundaries.
//!
//! Protocols (the join algorithms of `aspen-join`) implement [`Protocol`]
//! and are instantiated once per node; the engine owns them and dispatches
//! link-layer events deterministically (node-id order, seeded RNG).

pub mod config;
pub mod dynamics;
pub mod engine;
pub mod metrics;
mod pool;
pub mod sweep;

pub use config::{SimConfig, HEADER_BYTES, MAX_RETRIES};
pub use dynamics::{DynamicsPlan, FaultEvent, FaultTarget, FireOutcome, LossShift};
pub use engine::{Ctx, Engine, Protocol};
pub use metrics::{FlowMetrics, Metrics, NodeMetrics};
pub use sweep::{parallel_map, Json, SummaryStat, Table};

pub use sensor_net::NodeId;
