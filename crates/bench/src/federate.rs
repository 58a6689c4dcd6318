//! The `experiments federate` harness: cross-network joins over a
//! two-network federation, gateway-routed vs ship-everything-to-one-base.
//!
//! Two member networks (alpha, beta) with different sizes and densities
//! are bridged by two gateway links — one clean but slow (latency), one
//! lossy — and a 4-relation chain join is admitted with two relations
//! homed per network. [`CrossMode::Gateway`] joins each share in-network
//! and crosses only the joined sub-stream over the cheapest bridge;
//! [`CrossMode::ShipBase`] crosses every raw constituent tuple and joins
//! only at the root base. Reported per mode: cross-network results,
//! member on-air traffic, gateway bytes (the long-haul budget the
//! federation exists to conserve), and replans taken.

use crate::sweep::seed_range;
use crate::{csv_header, fan_out, Metric, Stats};
use aspen_join::prelude::*;
use aspen_join::{Algorithm, InnetOptions};
use sensor_net::{GatewayLink, NodeId};
use sensor_query::parse_join_graph;
use sensor_query::JoinGraph;
use sensor_sim::sweep::{Json, SummaryStat, Table};
use sensor_workload::WorkloadData;

/// Aggregate metrics reported per cross-mode cell, in column order.
const METRICS: [Metric<FederationOutcome>; 5] = [
    ("cross_results", |o| o.cross_results as f64),
    ("member_bytes", |o| o.member_traffic_bytes() as f64),
    ("gateway_bytes", |o| o.gateway_bytes() as f64),
    ("total_bytes", |o| o.total_traffic_bytes() as f64),
    ("replans", |o| o.replans as f64),
];

/// Everything one gateway-vs-ship comparison needs (minus the cross
/// mode, which is the compared dimension).
#[derive(Debug, Clone)]
pub struct FederateConfig {
    /// Nodes in the root member network (alpha).
    pub nodes_a: usize,
    /// Nodes in the remote member network (beta).
    pub nodes_b: usize,
    pub degree_a: f64,
    pub degree_b: f64,
    /// Selective rates (large `st_den`), so joined sub-streams are
    /// thinner than the raw bands and gateway routing has something to
    /// win.
    pub rates: Rates,
    /// Loss probability of the second (lossy) gateway link.
    pub loss: f64,
    /// Federation cycles; re-plan opportunities fire every 10.
    pub cycles: u32,
    pub seeds: Vec<u64>,
    /// OS threads fanning (mode, seed) runs out; 0 = all cores.
    /// Output is identical for any value.
    pub threads: usize,
    /// Transmit-phase workers *inside* each member run
    /// ([`SimConfig::threads`]; 0 = all cores). Outcome-neutral.
    pub run_threads: usize,
}

impl Default for FederateConfig {
    /// The acceptance workload: 50+40 nodes, 40 cycles, 3 seeds.
    fn default() -> Self {
        FederateConfig {
            nodes_a: 50,
            nodes_b: 40,
            degree_a: 7.0,
            degree_b: 6.0,
            rates: Rates {
                s_den: 2,
                t_den: 2,
                st_den: 50,
            },
            loss: 0.3,
            cycles: 40,
            seeds: seed_range(3),
            threads: 0,
            run_threads: 1,
        }
    }
}

impl FederateConfig {
    /// The CI smoke configuration: 2 seeds, 30 cycles.
    pub fn quick() -> Self {
        FederateConfig {
            cycles: 30,
            seeds: seed_range(2),
            ..FederateConfig::default()
        }
    }

    /// The cross-network query: a 4-relation chain joined on `u`, one
    /// 10-node id band per relation. Bands fit the smaller network, so
    /// every relation has producers in whichever member it is homed on.
    pub fn graph(&self) -> JoinGraph {
        parse_join_graph(
            "SELECT r0.id, r3.id FROM r0, r1, r2, r3 \
             [windowsize=2 sampleinterval=100] \
             WHERE r0.id < 10 AND r1.id >= 10 AND r1.id < 20 \
             AND r2.id >= 20 AND r2.id < 30 AND r3.id >= 30 AND r3.id < 40 \
             AND r0.u = r1.u AND r1.u = r2.u AND r2.u = r3.u",
        )
        .expect("federate chain parses")
    }

    /// Relations r0, r1 live in alpha (the root member), r2, r3 in beta.
    pub fn homes(&self) -> [usize; 4] {
        [0, 0, 1, 1]
    }

    /// §6 learning on, CMG delivery — replanning across the federation
    /// is part of what the experiment exercises.
    fn cfg(&self) -> AlgoConfig {
        AlgoConfig::new(Algorithm::Innet, Sigma::from_rates(self.rates))
            .with_innet_options(InnetOptions::CMG.with_learning())
    }

    fn member(&self, nodes: usize, degree: f64, seed: u64) -> Session {
        let topo = sensor_net::random_with_degree(nodes, degree, seed);
        let data = WorkloadData::new(&topo, Schedule::Uniform(self.rates), seed);
        let sim = SimConfig {
            tx_per_cycle: 64,
            queue_capacity: 1024,
            ..SimConfig::lossless()
                .with_seed(seed)
                .with_threads(self.run_threads)
        };
        Session::builder(topo, data).sim(sim).allow_empty().build()
    }

    fn run_one(&self, mode: CrossMode, seed: u64) -> FederationOutcome {
        let alpha = self.member(self.nodes_a, self.degree_a, seed);
        let beta = self.member(self.nodes_b, self.degree_b, seed + 100);
        let mut fed = FederationBuilder::new()
            .seed(seed)
            .member("alpha", alpha)
            .member("beta", beta)
            .link(GatewayLink::new(0, NodeId(10), 1, NodeId(5)).with_latency(1))
            .link(GatewayLink::new(0, NodeId(20), 1, NodeId(15)).with_loss(self.loss))
            .build();
        let id = fed
            .admit_cross(&self.graph(), &self.homes(), self.cfg(), mode)
            .expect("federate chain admits");
        let mut left = self.cycles;
        while left > 0 {
            let chunk = left.min(10);
            fed.step(chunk);
            left -= chunk;
            if left > 0 {
                fed.maybe_replan(id);
            }
        }
        fed.report()
    }

    /// Fan every (mode, seed) run across OS threads and aggregate.
    pub fn run(&self) -> FederateReport {
        let modes = [CrossMode::Gateway, CrossMode::ShipBase];
        let rows = fan_out(&modes, &self.seeds, self.threads, |&m, s| {
            self.run_one(m, s)
        });
        let cells = modes
            .into_iter()
            .zip(rows)
            .map(|(mode, rows)| ModeResult {
                mode,
                runs: rows.len(),
                stats: Stats::of(rows.iter(), &METRICS),
            })
            .collect();
        FederateReport {
            nodes: (self.nodes_a, self.nodes_b),
            cycles: self.cycles,
            loss: self.loss,
            seeds: self.seeds.clone(),
            cells,
        }
    }
}

/// One cross mode's aggregated replicates.
#[derive(Debug, Clone)]
pub struct ModeResult {
    pub mode: CrossMode,
    pub runs: usize,
    stats: Stats,
}

impl ModeResult {
    pub fn name(&self) -> &'static str {
        match self.mode {
            CrossMode::Gateway => "gateway",
            CrossMode::ShipBase => "ship-base",
        }
    }

    pub fn stat(&self, name: &str) -> &SummaryStat {
        self.stats.stat(name)
    }
}

/// The aggregated outcome of a gateway-vs-ship comparison, with the
/// table / JSON / CSV emitters.
#[derive(Debug, Clone)]
pub struct FederateReport {
    pub nodes: (usize, usize),
    pub cycles: u32,
    pub loss: f64,
    pub seeds: Vec<u64>,
    pub cells: Vec<ModeResult>,
}

impl FederateReport {
    pub fn mode(&self, mode: CrossMode) -> &ModeResult {
        self.cells
            .iter()
            .find(|c| c.mode == mode)
            .expect("mode present")
    }

    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec![
            "mode",
            "runs",
            "cross_results",
            "member_kb",
            "gateway_kb",
            "total_kb",
            "replans",
        ]);
        for c in &self.cells {
            t.push_row(vec![
                c.name().to_string(),
                c.runs.to_string(),
                format!(
                    "{:.0}±{:.0}",
                    c.stat("cross_results").mean,
                    c.stat("cross_results").ci95
                ),
                format!("{:.1}", c.stat("member_bytes").mean / 1024.0),
                format!(
                    "{:.2}±{:.2}",
                    c.stat("gateway_bytes").mean / 1024.0,
                    c.stat("gateway_bytes").ci95 / 1024.0
                ),
                format!("{:.1}", c.stat("total_bytes").mean / 1024.0),
                format!("{:.1}", c.stat("replans").mean),
            ]);
        }
        t
    }

    /// The headline comparison: what fraction of the long-haul gateway
    /// budget in-network joining saves over shipping raw streams
    /// (positive = gateway routing crossed fewer bytes).
    pub fn savings_line(&self) -> String {
        let gw = self.mode(CrossMode::Gateway);
        let ship = self.mode(CrossMode::ShipBase);
        let s = ship.stat("gateway_bytes").mean;
        let pct = if s > 0.0 {
            100.0 * (s - gw.stat("gateway_bytes").mean) / s
        } else {
            0.0
        };
        format!(
            "gateway-routed vs ship-to-base: {pct:+.1}% gateway bytes \
             ({:.0} results vs {:.0})",
            gw.stat("cross_results").mean,
            ship.stat("cross_results").mean,
        )
    }

    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("mode".into(), Json::str(c.name())),
                    ("runs".into(), Json::num(c.runs as f64)),
                    ("metrics".into(), Json::Obj(c.stats.json_fields())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::str("federate-two-network-chain")),
            ("nodes_alpha".into(), Json::num(self.nodes.0 as f64)),
            ("nodes_beta".into(), Json::num(self.nodes.1 as f64)),
            ("cycles".into(), Json::num(self.cycles as f64)),
            ("lossy_link".into(), Json::num(self.loss)),
            (
                "seeds".into(),
                Json::Arr(self.seeds.iter().map(|&s| Json::num(s as f64)).collect()),
            ),
            ("savings".into(), Json::str(self.savings_line())),
            ("cells".into(), Json::Arr(cells)),
        ])
        .render()
    }

    pub fn to_csv(&self) -> String {
        let mut headers = vec!["mode".to_string(), "runs".to_string()];
        headers.extend(csv_header(METRICS.map(|m| m.0)));
        let mut t = Table::new(headers);
        for c in &self.cells {
            let mut row = vec![c.name().to_string(), c.runs.to_string()];
            row.extend(c.stats.csv_cells());
            t.push_row(row);
        }
        t.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> FederateConfig {
        FederateConfig {
            seeds: vec![1],
            ..FederateConfig::quick()
        }
    }

    #[test]
    fn quick_report_shows_gateway_savings_and_emits_all_formats() {
        let rep = test_cfg().run();
        assert_eq!(rep.cells.len(), 2);
        let gw = rep.mode(CrossMode::Gateway);
        let ship = rep.mode(CrossMode::ShipBase);
        // Both modes must actually move tuples across the bridge…
        assert!(gw.stat("cross_results").mean > 0.0);
        assert!(ship.stat("cross_results").mean > 0.0);
        assert!(gw.stat("gateway_bytes").mean > 0.0);
        // …and in-network joining must conserve the long-haul budget.
        assert!(
            gw.stat("gateway_bytes").mean < ship.stat("gateway_bytes").mean,
            "gateway routing crossed no fewer bytes than shipping raw"
        );
        let table = rep.to_table().to_aligned_string();
        assert!(table.contains("gateway") && table.contains("ship-base"));
        let json = rep.to_json();
        assert!(json.contains("\"mode\": \"gateway\""));
        assert!(json.contains("\"gateway_bytes\""));
        let csv = rep.to_csv();
        assert_eq!(csv.lines().count(), 1 + 2);
        assert!(!rep.savings_line().is_empty());
    }
}
