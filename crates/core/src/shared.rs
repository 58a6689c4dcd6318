//! Run-wide immutable configuration shared by every node's protocol
//! instance, plus the algorithm/option matrix of the evaluation.

use crate::cost::Sigma;
use sensor_net::{NodeId, Topology};
use sensor_query::JoinQuerySpec;
use sensor_routing::ght::GpsrRouter;
use sensor_routing::MultiTreeSubstrate;
use sensor_sim::SimConfig;
use sensor_workload::WorkloadData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The join algorithm families of §2.2 / §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Grouped at base, no initiation, selection push-down only.
    Naive,
    /// Grouped at base with static-join pre-filtering of producers.
    Base,
    /// Grouped at GHT home nodes (GPSR routing).
    Ght,
    /// Through-the-base (Yang+07).
    Yang07,
    /// Pairwise in-network with cost-based placement (the paper's).
    Innet,
}

impl Algorithm {
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Naive => "Naive",
            Algorithm::Base => "Base",
            Algorithm::Ght => "GHT",
            Algorithm::Yang07 => "Yang+07",
            Algorithm::Innet => "Innet",
        }
    }
}

/// Innet option matrix: the -c/-m/-p/-g suffixes of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InnetOptions {
    /// Multicast trees with cached interior state + opportunistic merging
    /// of results ("-cm").
    pub multicast: bool,
    /// Group-based optimization, Algorithm 1 ("-g").
    pub group_opt: bool,
    /// Path collapsing via snooping, Algorithms 2-3 ("-p").
    pub path_collapse: bool,
    /// Adaptive selectivity learning and join-node migration (§6).
    pub learning: bool,
}

impl InnetOptions {
    pub const PLAIN: InnetOptions = InnetOptions {
        multicast: false,
        group_opt: false,
        path_collapse: false,
        learning: false,
    };
    pub const CM: InnetOptions = InnetOptions {
        multicast: true,
        ..Self::PLAIN
    };
    pub const CMG: InnetOptions = InnetOptions {
        multicast: true,
        group_opt: true,
        ..Self::PLAIN
    };
    pub const CMP: InnetOptions = InnetOptions {
        multicast: true,
        path_collapse: true,
        ..Self::PLAIN
    };
    pub const CMPG: InnetOptions = InnetOptions {
        multicast: true,
        group_opt: true,
        path_collapse: true,
        ..Self::PLAIN
    };

    pub const fn with_learning(mut self) -> Self {
        self.learning = true;
        self
    }

    pub fn suffix(&self) -> String {
        let mut s = String::new();
        if self.multicast {
            s.push_str("cm");
        }
        if self.path_collapse {
            s.push('p');
        }
        if self.group_opt {
            s.push('g');
        }
        let mut out = if s.is_empty() {
            "Innet".to_string()
        } else {
            format!("Innet-{s}")
        };
        if self.learning {
            out.push_str(" learn");
        }
        out
    }
}

/// Full algorithm configuration for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgoConfig {
    pub algorithm: Algorithm,
    pub innet: InnetOptions,
    /// Selectivities the optimizer *assumes* (§3's a-priori knowledge; §6
    /// starts from wrong values and learns).
    pub assumed: Sigma,
}

impl AlgoConfig {
    pub fn new(algorithm: Algorithm, assumed: Sigma) -> Self {
        AlgoConfig {
            algorithm,
            innet: InnetOptions::PLAIN,
            assumed,
        }
    }

    pub fn with_innet_options(mut self, o: InnetOptions) -> Self {
        self.innet = o;
        self
    }

    pub fn label(&self) -> String {
        match self.algorithm {
            Algorithm::Innet => self.innet.suffix(),
            a => a.name().to_string(),
        }
    }
}

/// Display name for an algorithm + options pair ("Naive", "Innet-cmg",
/// "Innet-cmg-learn", …) — the slug grammar every sweep CLI and the serve
/// wire protocol share.
pub fn algo_name(algo: Algorithm, opts: InnetOptions) -> String {
    match algo {
        Algorithm::Innet => opts.suffix().replace(' ', "-"),
        a => a.name().to_string(),
    }
}

/// The evaluation's 11 algorithm variants, in presentation order.
pub const VARIANTS: [(Algorithm, InnetOptions); 11] = [
    (Algorithm::Naive, InnetOptions::PLAIN),
    (Algorithm::Base, InnetOptions::PLAIN),
    (Algorithm::Ght, InnetOptions::PLAIN),
    (Algorithm::Yang07, InnetOptions::PLAIN),
    (Algorithm::Innet, InnetOptions::PLAIN),
    (Algorithm::Innet, InnetOptions::CM),
    (Algorithm::Innet, InnetOptions::CMP),
    (Algorithm::Innet, InnetOptions::CMG),
    (Algorithm::Innet, InnetOptions::CMPG),
    // Learning variants ("innet-learn", "innet-cmg-learn"): §6
    // adaptation on — the interesting setting under dynamics plans.
    (Algorithm::Innet, InnetOptions::PLAIN.with_learning()),
    (Algorithm::Innet, InnetOptions::CMG.with_learning()),
];

/// Parse a sweep-style algorithm slug back into the option matrix
/// (case-insensitive; accepts bare enum names like "ght" too). The
/// inverse of [`algo_name`] over [`VARIANTS`].
pub fn parse_algo(s: &str) -> Option<(Algorithm, InnetOptions)> {
    let want = s.to_ascii_lowercase();
    VARIANTS.into_iter().find(|&(a, o)| {
        algo_name(a, o).to_ascii_lowercase() == want || {
            // Accept the bare enum name too ("ght" for "GHT").
            a != Algorithm::Innet && a.name().to_ascii_lowercase() == want
        }
    })
}

/// Immutable run context shared across nodes (via `Arc`). The `dead` flags
/// are the one mutable element: the session sets them on node failure and
/// neighbors consult them as the outcome of local liveness probes (§7).
pub struct Shared {
    /// The network and the workload are the run's own: every query of a
    /// run shares one `Arc` of each.
    pub topo: Arc<Topology>,
    pub sub: Arc<MultiTreeSubstrate>,
    pub gpsr: Option<GpsrRouter>,
    pub spec: JoinQuerySpec,
    pub data: Arc<WorkloadData>,
    pub cfg: AlgoConfig,
    /// One flag per node, read on every tree-up hop: in a session, the
    /// run's one array, which every query reads. `Relaxed` suffices: a
    /// flag publishes nothing but itself.
    dead: Arc<[AtomicBool]>,
    /// `spec.data_bytes()` / `spec.result_bytes()`, worked out once: every
    /// send sizes its message with them.
    data_bytes: u32,
    result_bytes: u32,
    /// Transmission cycles per sampling cycle: a result generated in
    /// sampling cycle `c` was born at transmission cycle `c` times this.
    tx_per_sampling_cycle: u64,
}

impl Shared {
    /// The run context of one query over `topo`, with no node dead yet
    /// and the default sampling interval; GHT gets its GPSR router.
    pub fn new(
        topo: Arc<Topology>,
        sub: Arc<MultiTreeSubstrate>,
        spec: JoinQuerySpec,
        data: Arc<WorkloadData>,
        cfg: AlgoConfig,
    ) -> Self {
        let dead = all_alive(topo.len());
        let tx_per = SimConfig::default().tx_per_sampling_cycle;
        Shared::reading(dead, tx_per, topo, sub, spec, data, cfg)
    }

    /// [`Shared::new`] over `dead`, the liveness flags of a run's nodes,
    /// sampling every `tx_per_sampling_cycle` transmission cycles.
    pub(crate) fn reading(
        dead: Arc<[AtomicBool]>,
        tx_per_sampling_cycle: u32,
        topo: Arc<Topology>,
        sub: Arc<MultiTreeSubstrate>,
        spec: JoinQuerySpec,
        data: Arc<WorkloadData>,
        cfg: AlgoConfig,
    ) -> Self {
        Shared {
            gpsr: matches!(cfg.algorithm, Algorithm::Ght).then(|| GpsrRouter::new(&topo)),
            dead,
            data_bytes: spec.data_bytes(),
            result_bytes: spec.result_bytes(),
            tx_per_sampling_cycle: tx_per_sampling_cycle.into(),
            topo,
            sub,
            spec,
            data,
            cfg,
        }
    }

    pub fn base(&self) -> NodeId {
        self.topo.base()
    }

    pub fn is_dead(&self, n: NodeId) -> bool {
        self.dead[n.index()].load(Ordering::Relaxed)
    }

    /// Mark `n` dead for every query reading these flags: in a session,
    /// every query of the run.
    pub fn mark_dead(&self, n: NodeId) {
        self.dead[n.index()].store(true, Ordering::Relaxed);
    }

    /// Data-tuple wire size for this query.
    pub fn data_bytes(&self) -> u32 {
        self.data_bytes
    }

    pub fn result_bytes(&self) -> u32 {
        self.result_bytes
    }

    /// Transmission cycle at which sampling cycle `cycle` began.
    pub(crate) fn cycle_start(&self, cycle: u32) -> u64 {
        u64::from(cycle) * self.tx_per_sampling_cycle
    }

    /// Primary-tree path between two nodes (BestRoute-style id routing).
    pub fn tree_path(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        self.sub.primary().path_between(a, b)
    }
}

/// Liveness flags for `n` nodes, none dead.
pub(crate) fn all_alive(n: usize) -> Arc<[AtomicBool]> {
    (0..n).map(|_| AtomicBool::new(false)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_labels() {
        assert_eq!(InnetOptions::PLAIN.suffix(), "Innet");
        assert_eq!(InnetOptions::CM.suffix(), "Innet-cm");
        assert_eq!(InnetOptions::CMG.suffix(), "Innet-cmg");
        assert_eq!(InnetOptions::CMPG.suffix(), "Innet-cmpg");
        assert_eq!(InnetOptions::PLAIN.with_learning().suffix(), "Innet learn");
    }

    #[test]
    fn config_labels() {
        let c = AlgoConfig::new(Algorithm::Naive, Sigma::new(1.0, 1.0, 1.0));
        assert_eq!(c.label(), "Naive");
        let c = AlgoConfig::new(Algorithm::Innet, Sigma::new(1.0, 1.0, 1.0))
            .with_innet_options(InnetOptions::CMG);
        assert_eq!(c.label(), "Innet-cmg");
    }
}
