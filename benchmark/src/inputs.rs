//! Everything a workload feeds the program: a fixed deployment and query
//! text, and on them what `--seed` draws — sensor readings, producer
//! gates, the link-loss stream, `OPEN` seeds. The program sees only these
//! generated inputs, never the seed's meaning.

use aspen::join::prelude::*;
use aspen::net::{random_with_degree, Topology};
use aspen::workload::WorkloadData;

/// SplitMix64 step: the harness's only source of derived seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Every run of a workload simulates the same deployment and admits the
/// same queries; `--seed` draws what happens on it (sensor readings,
/// producer gates, link losses, `OPEN` seeds). With the topology drawn from the seed too,
/// `dense_steady` ranged over 16-44 cycles/s across seeds 1-10 and
/// `sparse_large` over 910-1590: fan-in at the base and path lengths
/// differ, and the benchmark would compare deployments, not code.
const DEPLOYMENT_SEED: u64 = 1;

pub fn deployment(nodes: usize, degree: f64) -> Topology {
    random_with_degree(nodes, degree, DEPLOYMENT_SEED)
}

/// The uniform Table 1 workload `aspen-serve` sessions run on.
pub fn workload_data(topo: &Topology, seed: u64) -> WorkloadData {
    WorkloadData::new(topo, Schedule::Uniform(Rates::new(2, 2, 5)), seed)
}

/// The simulator configuration of `aspen::serve::open_session`, pinned to
/// one transmit thread (the box has two cores and the harness owns one).
pub fn session_sim(seed: u64) -> SimConfig {
    SimConfig {
        tx_per_cycle: 64,
        queue_capacity: 1024,
        threads: 1,
        ..SimConfig::lossless().with_seed(seed)
    }
}

/// The `chain5` graph of `crates/bench/src/optimize.rs`: five 50 m
/// `pos_x` strips, so every node of the field is a producer.
pub const CHAIN5_SQL: &str = "SELECT a.id, e.id FROM a, b, c, d, e \
     [windowsize=3 sampleinterval=100] \
     WHERE a.pos_x < 500 AND b.pos_x >= 500 AND b.pos_x < 1000 \
     AND c.pos_x >= 1000 AND c.pos_x < 1500 \
     AND d.pos_x >= 1500 AND d.pos_x < 2000 AND e.pos_x >= 2000 \
     AND a.u = b.u AND b.u = c.u AND c.v = d.v AND d.u = e.u";

/// Pairwise query with 3 x 4 producers (node 0 is the base and never
/// produces) in a field of thousands of idle nodes.
pub const SPARSE_SQL: &str = "SELECT s.id, t.id FROM s, t \
     [windowsize=3 sampleinterval=100] \
     WHERE s.id < 4 AND t.id >= 4 AND t.id < 8 AND s.u = t.u";

/// The pairwise query of `serve-load`, on 24-node sessions.
pub const SERVE_ADMIT: &str = "ADMIT innet-cmg SELECT s.id, t.id FROM s, t \
     [windowsize=2 sampleinterval=100] \
     WHERE s.id < 12 AND t.id >= 12 AND s.u = t.u";

/// Relation counts of the eight `admit_churn` graphs. Fixed, so every
/// run plans the same mix of DP sizes.
const CHURN_RELATIONS: [usize; 8] = [3, 4, 5, 6, 7, 8, 5, 4];
const BAND_DM: u32 = 100;
const BANDS: u32 = 25;

/// The `admit_churn` SQL pool: eight chain graphs whose relations are
/// distinct 10 m `pos_x` bands of `topo`, each holding at least three
/// producers. Where the bands fall is drawn once, like the deployment:
/// drawn per seed it moved the workload's speed by +-7 %, on top of the
/// host's noise.
pub fn churn_pool(topo: &Topology) -> Vec<String> {
    let seed = DEPLOYMENT_SEED;
    let mut occupancy = [0usize; BANDS as usize];
    for id in topo.node_ids().filter(|&id| id != topo.base()) {
        let dm = (topo.position(id).x * 10.0).round() as u32;
        if let Some(slot) = occupancy.get_mut((dm / BAND_DM) as usize) {
            *slot += 1;
        }
    }
    let usable: Vec<u32> = (0..BANDS).filter(|&b| occupancy[b as usize] >= 3).collect();
    assert!(
        usable.len() >= 8,
        "topology too sparse for 8-relation band graphs"
    );
    CHURN_RELATIONS
        .iter()
        .enumerate()
        .map(|(g, &k)| {
            // Seeded partial Fisher-Yates: the first k picks, then ordered
            // west to east so the chain follows the field.
            let mut bands = usable.clone();
            for i in 0..k {
                let j = i + (mix(seed, (g * 16 + i) as u64) % (bands.len() - i) as u64) as usize;
                bands.swap(i, j);
            }
            bands.truncate(k);
            bands.sort_unstable();
            let names: Vec<char> = ('a'..='h').take(k).collect();
            let from: Vec<String> = names.iter().map(char::to_string).collect();
            let mut clauses: Vec<String> = names
                .iter()
                .zip(&bands)
                .map(|(r, b)| {
                    format!(
                        "{r}.pos_x >= {} AND {r}.pos_x < {}",
                        b * BAND_DM,
                        (b + 1) * BAND_DM
                    )
                })
                .collect();
            for (e, pair) in names.windows(2).enumerate() {
                let attr = if mix(seed, (g * 16 + 8 + e) as u64).is_multiple_of(3) {
                    'v'
                } else {
                    'u'
                };
                clauses.push(format!("{}.{attr} = {}.{attr}", pair[0], pair[1]));
            }
            format!(
                "SELECT {}.id, {}.id FROM {} [windowsize=3 sampleinterval=100] WHERE {}",
                names[0],
                names[k - 1],
                from.join(", "),
                clauses.join(" AND ")
            )
        })
        .collect()
}

/// Four `OPEN ... seed=S` values for `serve_small`, each checked to build
/// in-process first so no server worker ever meets a topology panic.
pub fn serve_open_seeds(seed: u64, nodes: usize, degree: f64) -> Vec<u64> {
    let seeds: Vec<u64> = (0..64u64)
        .map(|i| mix(seed, 0x5e12e + i) % 1_000_000)
        .filter(|&s| std::panic::catch_unwind(|| random_with_degree(nodes, degree, s)).is_ok())
        .take(4)
        .collect();
    assert_eq!(seeds.len(), 4, "no four buildable OPEN seeds for {seed}");
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen::query::{parse, Parsed};

    #[test]
    fn same_seed_same_inputs() {
        let a = deployment(400, 7.0);
        let b = deployment(400, 7.0);
        assert_eq!(a.positions(), b.positions());
        assert_eq!(churn_pool(&a), churn_pool(&b));
        assert_eq!(serve_open_seeds(3, 24, 7.0), serve_open_seeds(3, 24, 7.0));
    }

    #[test]
    fn churn_pool_parses_as_graphs_of_the_fixed_sizes() {
        let topo = deployment(400, 7.0);
        let pool = churn_pool(&topo);
        assert_eq!(pool.len(), CHURN_RELATIONS.len());
        for (sql, &k) in pool.iter().zip(&CHURN_RELATIONS) {
            match parse(sql) {
                Ok(Parsed::Graph(g)) => {
                    assert_eq!(g.n_relations(), k, "{sql}");
                    assert_eq!(g.edges.len(), k - 1, "{sql}");
                }
                other => panic!("{sql}: {other:?}"),
            }
        }
    }
}
