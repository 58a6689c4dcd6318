//! Warm-start admission parity: seeding an admission from the
//! learned-state cache is a pure *optimization* — a cache-hit admission
//! must converge in no more cycles than the cold run and produce
//! identical final results.

use aspen_join::prelude::*;
use aspen_join::Algorithm;
use sensor_query::parser::parse_query;
use sensor_query::JoinQuerySpec;
use sensor_workload::WorkloadData;

const RATES: Rates = Rates {
    s_den: 2,
    t_den: 2,
    st_den: 5,
};

/// Deterministic, contention-free simulator (no loss RNG, roomy MAC) so
/// warm and cold runs differ only in how admissions are seeded.
fn roomy_sim(seed: u64) -> SimConfig {
    SimConfig {
        tx_per_cycle: 64,
        queue_capacity: 1024,
        ..SimConfig::lossless().with_seed(seed)
    }
}

fn spec() -> JoinQuerySpec {
    parse_query(
        "SELECT s.id, t.id FROM s, t [windowsize=2 sampleinterval=100] \
         WHERE s.id < 20 AND t.id >= 20 AND s.u = t.u",
    )
    .expect("query parses")
}

/// §6 learning on, with a deliberately wrong a-priori σ so a cold
/// admission must learn and migrate its way to the right placement.
fn cfg() -> AlgoConfig {
    AlgoConfig::new(Algorithm::Innet, Sigma::new(0.9, 0.1, 0.5))
        .with_innet_options(InnetOptions::CMG.with_learning())
}

struct EpisodeTrace {
    /// Per-episode (convergence cycles, migrated pairs): convergence is
    /// the offset of the last PairsMigrated event past the episode's
    /// admission cycle (0 = the initial placement was never corrected);
    /// migrated pairs is the total number of pairs whose join node moved.
    episodes: Vec<(u32, u64)>,
    /// Per-episode §6 migration control traffic (`WindowXfer` bytes).
    ctrl_bytes: Vec<u64>,
    /// Per-episode delivered results, after draining.
    results: Vec<u64>,
    stats: CacheStats,
}

/// Drive `episodes` admissions of the same shape through one session,
/// retiring each before the next.
fn run_episodes(warm: bool, seed: u64, episodes: usize) -> EpisodeTrace {
    let topo = sensor_net::random_with_degree(60, 7.0, seed);
    let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
    let mut s = Session::builder(topo, data)
        .sim(roomy_sim(seed))
        .allow_empty()
        .warm_start(warm)
        .build();
    let log = EventLog::new();
    s.observe(Box::new(log.clone()));
    let mut spans = Vec::new();
    let mut ctrl_bytes = Vec::new();
    for _ in 0..episodes {
        let start = s.cycle();
        let xfer_before = s.migration_xfer_bytes();
        let q = s.admit(spec(), cfg());
        s.step(45);
        s.retire(q);
        ctrl_bytes.push(s.migration_xfer_bytes() - xfer_before);
        spans.push((start, s.cycle(), q));
    }
    let out = s.report();
    let episodes = spans
        .iter()
        .map(|&(start, end, _)| {
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
            let convergence = migrations
                .iter()
                .map(|&(c, _)| c - start)
                .max()
                .unwrap_or(0);
            (convergence, migrations.iter().map(|&(_, n)| n).sum())
        })
        .collect();
    let results = spans
        .iter()
        .map(|&(_, _, q)| out.per_query[q.0].results)
        .collect();
    EpisodeTrace {
        episodes,
        ctrl_bytes,
        results,
        stats: s.cache_stats(),
    }
}

/// The tentpole's contract: on the repeated shape, the warm session's
/// second admission is a cache hit that converges in ≤ the cold run's
/// cycles with ≤ its migrations — and the result stream is identical, so
/// seeding is invisible to correctness.
#[test]
fn warm_hit_converges_no_slower_with_identical_results() {
    let cold = run_episodes(false, 1, 2);
    let warm = run_episodes(true, 1, 2);

    // Cold sessions never consult or fill the cache.
    assert_eq!(cold.stats, CacheStats::default());
    // The warm session harvested the first retirement and hit on the
    // second admission.
    assert!(warm.stats.insertions >= 1, "stats: {:?}", warm.stats);
    assert_eq!(warm.stats.hits, 1, "stats: {:?}", warm.stats);
    assert_eq!(warm.stats.misses, 1, "stats: {:?}", warm.stats);

    // Episode 1 is cold for both sessions: identical trajectories.
    assert_eq!(warm.episodes[0], cold.episodes[0]);
    assert_eq!(warm.ctrl_bytes[0], cold.ctrl_bytes[0]);
    assert_eq!(warm.results[0], cold.results[0]);

    // Episode 2: the hit must not converge slower, and the seeded
    // placement must move strictly fewer pairs (that is the saving)…
    let (warm_conv, warm_migs) = warm.episodes[1];
    let (cold_conv, cold_migs) = cold.episodes[1];
    assert!(
        warm_conv <= cold_conv,
        "warm admission converged slower: warm={warm_conv} cold={cold_conv}"
    );
    assert!(
        warm_migs < cold_migs,
        "warm admission did not migrate fewer pairs: warm={warm_migs} cold={cold_migs}"
    );
    assert!(
        warm.ctrl_bytes[1] < cold.ctrl_bytes[1],
        "warm admission did not spend fewer control bytes: warm={} cold={}",
        warm.ctrl_bytes[1],
        cold.ctrl_bytes[1]
    );
    // …and the cold run must actually have something to save, or this
    // test is vacuous.
    assert!(
        cold_migs > 0,
        "cold re-admission performed no migrations; the scenario no longer exercises §6"
    );

    // Seeding never costs results: the cold run's extra migrations can
    // only delay or drop in-flight matches, never create them.
    assert!(
        warm.results[1] >= cold.results[1],
        "warm admission delivered fewer results: warm={} cold={}",
        warm.results[1],
        cold.results[1]
    );
}

/// "Correctness unaffected by seeding": a cache-*hit* admission must be
/// byte-identical to explicitly admitting with the harvested σ as the
/// a-priori `assumed`. The cache changes nothing but the number the
/// optimizer starts from.
#[test]
fn cache_hit_equals_explicit_assumed_sigma() {
    let seed = 1;
    let topo = sensor_net::random_with_degree(60, 7.0, seed);
    let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
    // Episode 1 is identical in both sessions, so the harvested σ can be
    // read from either; compute the cache key before topo/data move.
    let fp = aspen_join::spec_fingerprint(&spec());
    let region = aspen_join::region_of(&spec(), &topo, &data);

    let run = |explicit: Option<Sigma>| {
        let topo = sensor_net::random_with_degree(60, 7.0, seed);
        let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
        let mut s = Session::builder(topo, data)
            .sim(roomy_sim(seed))
            .allow_empty()
            .warm_start(explicit.is_none())
            .build();
        let q1 = s.admit(spec(), cfg());
        s.step(45);
        s.retire(q1);
        let seeded = match explicit {
            // Manual seeding: same σ, no cache involved.
            Some(sigma) => {
                let mut c = cfg();
                c.assumed = sigma;
                c
            }
            None => cfg(),
        };
        let q2 = s.admit(spec(), seeded);
        s.step(45);
        s.retire(q2);
        let cycle = s.cycle();
        aspen_join::ReportSummary::from_outcome(cycle, &s.report())
    };

    // Probe run to learn what the harvest produced.
    let topo2 = sensor_net::random_with_degree(60, 7.0, seed);
    let data2 = WorkloadData::new(&topo2, Schedule::Uniform(RATES), seed);
    let mut probe = Session::builder(topo2, data2)
        .sim(roomy_sim(seed))
        .allow_empty()
        .build();
    let q = probe.admit(spec(), cfg());
    probe.step(45);
    probe.retire(q);
    let harvested = probe
        .learned_cache()
        .peek(&fp, region)
        .expect("retirement harvested an entry")
        .sigma;

    let via_cache = run(None);
    let via_config = run(Some(harvested));
    assert_eq!(
        via_cache, via_config,
        "cache-hit admission diverged from an explicit same-σ admission"
    );
}

/// The cache itself: the harvested σ of the retired query is what seeds
/// the next admission, and disabling warm-start really disables it.
#[test]
fn harvest_then_seed_round_trip() {
    let topo = sensor_net::random_with_degree(60, 7.0, 5);
    let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), 5);
    let mut s = Session::builder(topo, data)
        .sim(roomy_sim(5))
        .allow_empty()
        .build();
    let q = s.admit(spec(), cfg());
    s.step(45);
    s.retire(q);
    let st = s.cache_stats();
    assert_eq!(st.entries, 1, "one shape harvested: {st:?}");
    assert_eq!(st.misses, 1, "first admission missed: {st:?}");
    s.admit(spec(), cfg());
    let st = s.cache_stats();
    assert_eq!(st.hits, 1, "re-admission hit: {st:?}");
}
