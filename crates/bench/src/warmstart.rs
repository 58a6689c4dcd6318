//! The `experiments warmstart` harness: warm vs cold admission over a
//! repeated-shape workload. One session per mode admits, runs and retires
//! the same query shape for several episodes; with warm-start enabled the
//! retirement harvest seeds every re-admission from the learned-state
//! cache, so later episodes skip the §6 learn-and-migrate ramp the cold
//! session pays every time. Reported per mode: cycles-to-convergence,
//! migrated pairs, migration control bytes (`WindowXfer` traffic), on-air
//! bytes and delivered results of the *repeat* episodes (episode 1 is
//! cold for everyone and only reported for parity), plus the cache hit
//! rate.

use crate::sweep::{algo_name, seed_range};
use crate::{csv_header, fan_out, Metric, Stats};
use aspen_join::prelude::*;
use aspen_join::{Algorithm, InnetOptions};
use sensor_query::parser::parse_query;
use sensor_query::JoinQuerySpec;
use sensor_sim::sweep::{Json, SummaryStat, Table};
use sensor_workload::WorkloadData;

/// Per-episode metrics, in column order. A mode's report aggregates them
/// over the first episode and, followed by `hit_rate` (the per-session
/// cache hit fraction), over the repeat episodes (2..) of every seed.
const EPISODE_METRICS: [Metric<EpisodeMetrics>; 5] = [
    ("convergence_cycles", |e| e.convergence as f64),
    ("migrated_pairs", |e| e.migrated_pairs as f64),
    ("ctrl_bytes", |e| e.ctrl_bytes as f64),
    ("tx_bytes", |e| e.tx_bytes as f64),
    ("results", |e| e.results as f64),
];

/// Everything one warm-vs-cold comparison needs (minus the warm flag,
/// which is the compared dimension).
#[derive(Debug, Clone)]
pub struct WarmstartConfig {
    pub nodes: usize,
    /// Mean radio degree of the random topology.
    pub degree: f64,
    pub rates: Rates,
    /// Deliberately wrong a-priori σ, so a cold admission must learn and
    /// migrate its way to the right placement every episode.
    pub assumed: Sigma,
    /// Admissions of the repeated shape per session (≥ 2; episode 1 warms
    /// the cache, episodes 2.. are measured).
    pub episodes: usize,
    /// Sampling cycles each episode runs before retirement. Must exceed
    /// the §6 learn interval (20) or nobody ever migrates.
    pub episode_cycles: u32,
    pub seeds: Vec<u64>,
    /// OS threads; 0 = all cores. Output is identical for any value.
    pub threads: usize,
    /// Transmit-phase workers *inside* each run ([`SimConfig::threads`];
    /// 0 = all cores). Outcome-neutral like `threads`.
    pub run_threads: usize,
}

impl Default for WarmstartConfig {
    /// The acceptance workload: 60-node network, 3 episodes, 3 seeds.
    fn default() -> Self {
        WarmstartConfig {
            nodes: 60,
            degree: 7.0,
            rates: Rates::new(2, 2, 5),
            assumed: Sigma::new(0.9, 0.1, 0.5),
            episodes: 3,
            episode_cycles: 45,
            seeds: seed_range(3),
            threads: 0,
            run_threads: 1,
        }
    }
}

impl WarmstartConfig {
    /// The CI smoke configuration: 2 episodes, 2 seeds.
    pub fn quick() -> Self {
        WarmstartConfig {
            episodes: 2,
            seeds: seed_range(2),
            ..WarmstartConfig::default()
        }
    }

    /// The repeated query shape. The id split assumes ≥ 40 nodes.
    pub fn spec(&self) -> JoinQuerySpec {
        parse_query(
            "SELECT s.id, t.id FROM s, t [windowsize=2 sampleinterval=100] \
             WHERE s.id < 20 AND t.id >= 20 AND s.u = t.u",
        )
        .expect("warmstart query parses")
    }

    /// §6 learning on, CMG delivery — the adaptive configuration whose
    /// ramp the cache is built to skip.
    pub fn algo(&self) -> (Algorithm, InnetOptions) {
        (Algorithm::Innet, InnetOptions::CMG.with_learning())
    }

    fn cfg(&self) -> AlgoConfig {
        AlgoConfig::new(self.algo().0, self.assumed).with_innet_options(self.algo().1)
    }

    /// Deterministic, contention-free simulator (no loss RNG, roomy MAC)
    /// so warm and cold runs differ only in how admissions are seeded.
    fn sim(&self, seed: u64) -> SimConfig {
        SimConfig {
            tx_per_cycle: 64,
            queue_capacity: 1024,
            ..SimConfig::lossless()
                .with_seed(seed)
                .with_threads(self.run_threads)
        }
    }

    fn run_one(&self, warm: bool, seed: u64) -> SessionSample {
        let topo = sensor_net::random_with_degree(self.nodes, self.degree, seed);
        let data = WorkloadData::new(&topo, Schedule::Uniform(self.rates), seed);
        let mut s = Session::builder(topo, data)
            .sim(self.sim(seed))
            .allow_empty()
            .warm_start(warm)
            .build();
        let log = EventLog::new();
        s.observe(Box::new(log.clone()));
        let mut spans = Vec::new();
        for _ in 0..self.episodes {
            let start = s.cycle();
            let xfer_before = s.migration_xfer_bytes();
            let q = s.admit(self.spec(), self.cfg());
            s.step(self.episode_cycles);
            s.retire(q);
            let ctrl = s.migration_xfer_bytes() - xfer_before;
            spans.push((start, s.cycle(), q, ctrl));
        }
        let out = s.report();
        // A cold start's first learn tick re-places essentially the whole
        // pair population; 10% of that burst is the noise floor below
        // which per-pair estimation jitter no longer counts as "still
        // converging". The burst comes from episode 1, which is identical
        // for warm and cold, so both modes use the same floor.
        let burst = {
            let (start, end, ..) = spans[0];
            log.events()
                .iter()
                .filter_map(|e| match e {
                    SessionEvent::PairsMigrated { cycle, count }
                        if *cycle >= start && *cycle < end =>
                    {
                        Some(*count)
                    }
                    _ => None,
                })
                .next()
                .unwrap_or(0)
        };
        let floor = burst / 10;
        let episodes = spans
            .iter()
            .map(|&(start, end, q, ctrl)| {
                let migrations: Vec<(u32, u64)> = log
                    .events()
                    .iter()
                    .filter_map(|e| match e {
                        SessionEvent::PairsMigrated { cycle, count } if *count > 0 => {
                            Some((*cycle, *count))
                        }
                        _ => None,
                    })
                    .filter(|&(c, _)| c >= start && c < end)
                    .collect();
                EpisodeMetrics {
                    // Offset of the last above-floor placement correction
                    // past the admission cycle (0 = the seeded placement
                    // was already right for the bulk of the pairs).
                    convergence: migrations
                        .iter()
                        .filter(|&&(_, n)| n > floor)
                        .map(|&(c, _)| c - start)
                        .max()
                        .unwrap_or(0),
                    migrated_pairs: migrations.iter().map(|&(_, n)| n).sum(),
                    ctrl_bytes: ctrl,
                    tx_bytes: out.per_query[q.0].flow.tx_bytes,
                    results: out.per_query[q.0].results,
                }
            })
            .collect();
        SessionSample {
            episodes,
            stats: s.cache_stats(),
        }
    }

    /// Fan every (mode, seed) run across OS threads and aggregate.
    pub fn run(&self) -> WarmstartReport {
        let modes = [false, true];
        let rows = fan_out(&modes, &self.seeds, self.threads, |&warm, s| {
            self.run_one(warm, s)
        });
        let cells = modes
            .into_iter()
            .zip(rows)
            .map(|(warm, rows)| ModeResult::aggregate(warm, &rows))
            .collect();
        WarmstartReport {
            algo: algo_name(self.algo().0, self.algo().1),
            nodes: self.nodes,
            episodes: self.episodes,
            episode_cycles: self.episode_cycles,
            seeds: self.seeds.clone(),
            cells,
        }
    }
}

/// One episode's observables.
#[derive(Debug, Clone, Copy)]
pub struct EpisodeMetrics {
    pub convergence: u32,
    /// Pairs whose join node moved during the episode (wasted work when a
    /// correct seed would have placed them right at admission).
    pub migrated_pairs: u64,
    /// §6 migration control traffic: `WindowXfer` bytes on the air.
    pub ctrl_bytes: u64,
    pub tx_bytes: u64,
    pub results: u64,
}

/// One (mode, seed) session's full trace.
#[derive(Debug, Clone)]
struct SessionSample {
    episodes: Vec<EpisodeMetrics>,
    stats: CacheStats,
}

/// One admission mode's aggregated replicates.
#[derive(Debug, Clone)]
pub struct ModeResult {
    pub warm: bool,
    pub runs: usize,
    /// Episode-1 aggregates — cold for both modes, reported so parity is
    /// visible in the output.
    pub first_episode: Stats,
    /// Summed cache counters across the mode's sessions.
    pub cache: CacheStats,
    stats: Stats,
}

impl ModeResult {
    fn aggregate(warm: bool, rows: &[SessionSample]) -> ModeResult {
        let mut cache = CacheStats::default();
        for r in rows {
            cache.entries += r.stats.entries;
            cache.hits += r.stats.hits;
            cache.misses += r.stats.misses;
            cache.insertions += r.stats.insertions;
            cache.evictions += r.stats.evictions;
        }
        let hit_rate: Vec<f64> = rows
            .iter()
            .map(|r| {
                let total = r.stats.hits + r.stats.misses;
                if total == 0 {
                    0.0
                } else {
                    r.stats.hits as f64 / total as f64
                }
            })
            .collect();
        let repeats = rows.iter().flat_map(|r| r.episodes.iter().skip(1));
        let mut stats = Stats::of(repeats, &EPISODE_METRICS);
        stats
            .0
            .push(("hit_rate", SummaryStat::from_samples(&hit_rate)));
        ModeResult {
            warm,
            runs: rows.len(),
            first_episode: Stats::of(
                rows.iter().flat_map(|r| r.episodes.first()),
                &EPISODE_METRICS,
            ),
            cache,
            stats,
        }
    }

    pub fn name(&self) -> &'static str {
        if self.warm {
            "warm"
        } else {
            "cold"
        }
    }

    pub fn stat(&self, name: &str) -> &SummaryStat {
        self.stats.stat(name)
    }
}

/// The aggregated outcome of a warm-vs-cold comparison, with the table /
/// JSON / CSV emitters.
#[derive(Debug, Clone)]
pub struct WarmstartReport {
    pub algo: String,
    pub nodes: usize,
    pub episodes: usize,
    pub episode_cycles: u32,
    pub seeds: Vec<u64>,
    pub cells: Vec<ModeResult>,
}

impl WarmstartReport {
    pub fn mode(&self, warm: bool) -> &ModeResult {
        self.cells
            .iter()
            .find(|c| c.warm == warm)
            .expect("mode present")
    }

    /// One row per (mode, episode band): the first (cold-for-everyone)
    /// episode and the measured repeats.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec![
            "mode",
            "episodes",
            "converge_cyc",
            "migr_pairs",
            "ctrl_kb",
            "tx_kb",
            "results",
            "hit_rate",
        ]);
        for c in &self.cells {
            let first = |n: &str| c.first_episode.stat(n);
            t.push_row(vec![
                c.name().to_string(),
                "1".to_string(),
                format!("{:.1}", first("convergence_cycles").mean),
                format!("{:.1}", first("migrated_pairs").mean),
                format!("{:.1}", first("ctrl_bytes").mean / 1024.0),
                format!("{:.1}", first("tx_bytes").mean / 1024.0),
                format!("{:.0}", first("results").mean),
                "-".to_string(),
            ]);
            t.push_row(vec![
                c.name().to_string(),
                format!("2..{}", self.episodes),
                format!(
                    "{:.1}±{:.1}",
                    c.stat("convergence_cycles").mean,
                    c.stat("convergence_cycles").ci95
                ),
                format!(
                    "{:.1}±{:.1}",
                    c.stat("migrated_pairs").mean,
                    c.stat("migrated_pairs").ci95
                ),
                format!("{:.1}", c.stat("ctrl_bytes").mean / 1024.0),
                format!("{:.1}", c.stat("tx_bytes").mean / 1024.0),
                format!("{:.0}", c.stat("results").mean),
                format!("{:.2}", c.stat("hit_rate").mean),
            ]);
        }
        t
    }

    /// The headline comparison on the repeat episodes (positive = the
    /// warm session saved that fraction; negative = regression).
    pub fn savings_line(&self) -> String {
        let cold = self.mode(false);
        let warm = self.mode(true);
        let pct = |m: &str| {
            let c = cold.stat(m).mean;
            let w = warm.stat(m).mean;
            if c > 0.0 {
                100.0 * (c - w) / c
            } else {
                0.0
            }
        };
        format!(
            "warm vs cold re-admission: convergence {:+.1}%, migrated pairs {:+.1}%, \
             control bytes {:+.1}% (hit rate {:.2})",
            pct("convergence_cycles"),
            pct("migrated_pairs"),
            pct("ctrl_bytes"),
            warm.stat("hit_rate").mean,
        )
    }

    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let cache = Json::Obj(vec![
                    ("entries".into(), Json::num(c.cache.entries as f64)),
                    ("hits".into(), Json::num(c.cache.hits as f64)),
                    ("misses".into(), Json::num(c.cache.misses as f64)),
                    ("insertions".into(), Json::num(c.cache.insertions as f64)),
                    ("evictions".into(), Json::num(c.cache.evictions as f64)),
                ]);
                Json::Obj(vec![
                    ("mode".into(), Json::str(c.name())),
                    ("runs".into(), Json::num(c.runs as f64)),
                    (
                        "first_episode".into(),
                        Json::Obj(c.first_episode.json_fields()),
                    ),
                    ("repeat_episodes".into(), Json::Obj(c.stats.json_fields())),
                    ("cache".into(), cache),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::str("warmstart-repeated-shape")),
            ("algorithm".into(), Json::str(&self.algo)),
            ("nodes".into(), Json::num(self.nodes as f64)),
            ("episodes".into(), Json::num(self.episodes as f64)),
            (
                "episode_cycles".into(),
                Json::num(self.episode_cycles as f64),
            ),
            (
                "seeds".into(),
                Json::Arr(self.seeds.iter().map(|&s| Json::num(s as f64)).collect()),
            ),
            ("savings".into(), Json::str(self.savings_line())),
            ("cells".into(), Json::Arr(cells)),
        ])
        .render()
    }

    /// One row per (mode, episode band).
    pub fn to_csv(&self) -> String {
        let mut headers = vec![
            "mode".to_string(),
            "episodes".to_string(),
            "runs".to_string(),
        ];
        headers.extend(csv_header(
            EPISODE_METRICS.iter().map(|m| m.0).chain(["hit_rate"]),
        ));
        let mut t = Table::new(headers);
        for c in &self.cells {
            let mut row = vec![c.name().to_string(), "1".to_string(), c.runs.to_string()];
            row.extend(c.first_episode.csv_cells());
            row.extend(["", "", ""].map(String::from)); // hit_rate: repeats only
            t.push_row(row);
            let mut row = vec![
                c.name().to_string(),
                format!("2..{}", self.episodes),
                c.runs.to_string(),
            ];
            row.extend(c.stats.csv_cells());
            t.push_row(row);
        }
        t.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> WarmstartConfig {
        WarmstartConfig {
            seeds: vec![1],
            ..WarmstartConfig::quick()
        }
    }

    #[test]
    fn quick_report_shows_warm_savings_and_emits_all_formats() {
        let rep = test_cfg().run();
        assert_eq!(rep.cells.len(), 2);
        let cold = rep.mode(false);
        let warm = rep.mode(true);
        // Cold sessions never touch the cache; warm sessions hit on every
        // re-admission.
        assert_eq!(cold.stat("hit_rate").mean, 0.0);
        assert_eq!(warm.stat("hit_rate").mean, 0.5);
        assert!(warm.cache.insertions >= 1);
        // The scenario must give the cache something to save…
        assert!(
            cold.stat("migrated_pairs").mean > 0.0,
            "cold re-admission never migrated; the scenario no longer exercises §6"
        );
        // …and the hit must converge no slower while moving strictly
        // fewer pairs (and so strictly less window-transfer traffic).
        assert!(warm.stat("convergence_cycles").mean <= cold.stat("convergence_cycles").mean);
        assert!(warm.stat("migrated_pairs").mean < cold.stat("migrated_pairs").mean);
        assert!(warm.stat("ctrl_bytes").mean < cold.stat("ctrl_bytes").mean);
        let table = rep.to_table().to_aligned_string();
        assert!(table.contains("warm") && table.contains("cold"));
        let json = rep.to_json();
        assert!(json.contains("\"mode\": \"warm\""));
        assert!(json.contains("\"repeat_episodes\""));
        let csv = rep.to_csv();
        // Header + 2 episode bands per mode x 2 modes.
        assert_eq!(csv.lines().count(), 1 + 2 * 2);
        assert!(!rep.savings_line().is_empty());
    }
}
