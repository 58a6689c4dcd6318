//! Test-only reference for deployment generation: the all-pairs unit-disk
//! build and the range fit that builds one topology per bisection probe.
//! The production code must reproduce both bit for bit: the same
//! positions, the same `radio_range` bits, the same neighbour lists (and
//! capacities), or the same `NoTopology`.

use crate::gen::{draw_positions, NoTopology, AREA_SIDE_M, RESAMPLES};
use crate::geom::Point;
use crate::topology::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Every pair's squared length, row `i` holding `j = i + 1..n`: the
/// all-pairs scan's order and its one `dist2` per pair.
fn pair_lengths(positions: &[Point]) -> Vec<f64> {
    let n = positions.len();
    let mut d2s = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            d2s.push(positions[i].dist2(&positions[j]));
        }
    }
    d2s
}

/// Neighbour lists of the unit-disk graph at `radio_range` over
/// [`pair_lengths`], every pair tested in `(i, j)` order with `i < j`.
fn links_within(n: usize, d2s: &[f64], radio_range: f64) -> Vec<Vec<NodeId>> {
    let range2 = radio_range * radio_range;
    let mut adjacency = vec![Vec::new(); n];
    let mut rest = d2s;
    for i in 0..n {
        let (row, tail) = rest.split_at(n - 1 - i);
        rest = tail;
        for (k, &d2) in row.iter().enumerate() {
            if d2 <= range2 {
                let j = i + 1 + k;
                adjacency[i].push(NodeId(j as u16));
                adjacency[j].push(NodeId(i as u16));
            }
        }
    }
    adjacency
}

/// The parent of the grid build: every pair tested, in `(i, j)` order.
pub fn all_pairs(positions: &[Point], radio_range: f64) -> Vec<Vec<NodeId>> {
    links_within(positions.len(), &pair_lengths(positions), radio_range)
}

fn avg_degree(adjacency: &[Vec<NodeId>]) -> f64 {
    let total: usize = adjacency.iter().map(Vec::len).sum();
    total as f64 / adjacency.len() as f64
}

fn is_connected(adjacency: &[Vec<NodeId>]) -> bool {
    let mut seen = vec![false; adjacency.len()];
    let mut queue = VecDeque::from([0usize]);
    seen[0] = true;
    while let Some(cur) = queue.pop_front() {
        for nb in &adjacency[cur] {
            if !seen[nb.index()] {
                seen[nb.index()] = true;
                queue.push_back(nb.index());
            }
        }
    }
    seen.iter().all(|&s| s)
}

/// A deployment as the reference builds it.
pub struct Deployment {
    pub positions: Vec<Point>,
    pub radio_range: f64,
    pub adjacency: Vec<Vec<NodeId>>,
}

/// The range fit with an all-pairs build per probe (the pair lengths are
/// measured once per layout: the same values the build would compute).
fn fit_range(positions: &[Point], target_degree: f64) -> Option<(f64, Vec<Vec<NodeId>>)> {
    let mut lo = 1.0;
    let mut hi = AREA_SIDE_M * 1.5;
    let mut best = None;
    let d2s = pair_lengths(positions);
    for _ in 0..48 {
        let mid = (lo + hi) / 2.0;
        let adjacency = links_within(positions.len(), &d2s, mid);
        let deg = avg_degree(&adjacency);
        if (deg - target_degree).abs() < 0.25 && is_connected(&adjacency) {
            return Some((mid, adjacency));
        }
        if deg < target_degree {
            lo = mid;
        } else {
            hi = mid;
            if is_connected(&adjacency) {
                best = Some((mid, adjacency));
            }
        }
    }
    best.filter(|(_, adj)| (avg_degree(adj) - target_degree).abs() < 1.5)
}

/// [`crate::try_random_with_degree`] over the reference fit.
pub fn try_random_with_degree(
    n: usize,
    target_degree: f64,
    seed: u64,
) -> Result<Deployment, NoTopology> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x05ee_d700_ba5e);
    for _ in 0..RESAMPLES {
        let positions = draw_positions(&mut rng, n);
        if let Some((radio_range, adjacency)) = fit_range(&positions, target_degree) {
            return Ok(Deployment {
                positions,
                radio_range,
                adjacency,
            });
        }
    }
    Err(NoTopology {
        nodes: n,
        target_degree,
    })
}

/// Panics unless `topo` is `want`, bit for bit.
pub fn assert_same(topo: &Topology, want: &Deployment, what: &str) {
    let bits = |p: &Point| (p.x.to_bits(), p.y.to_bits());
    assert!(
        topo.positions()
            .iter()
            .map(bits)
            .eq(want.positions.iter().map(bits)),
        "{what}: positions differ"
    );
    assert_eq!(
        topo.radio_range().to_bits(),
        want.radio_range.to_bits(),
        "{what}: radio range"
    );
    assert_same_adjacency(topo, &want.adjacency, what);
}

/// Panics unless `topo`'s neighbour lists equal `want`, capacities included.
pub fn assert_same_adjacency(topo: &Topology, want: &[Vec<NodeId>], what: &str) {
    assert_eq!(topo.len(), want.len(), "{what}: node count");
    for (i, (got, want)) in topo.adjacency().iter().zip(want).enumerate() {
        assert_eq!(got, want, "{what}: neighbours of node {i}");
        assert_eq!(got.capacity(), want.capacity(), "{what}: capacity at {i}");
    }
}

mod tests {
    use super::*;
    use crate::gen::{grid, try_random_with_degree as production};
    use rand::Rng;

    fn check(n: usize, degree: f64, seed: u64) {
        let what = format!("n={n} degree={degree} seed={seed}");
        match (
            production(n, degree, seed),
            try_random_with_degree(n, degree, seed),
        ) {
            (Ok(topo), Ok(want)) => assert_same(&topo, &want, &what),
            (Err(got), Err(want)) => assert_eq!(
                (got.nodes, got.target_degree.to_bits()),
                (want.nodes, want.target_degree.to_bits()),
                "{what}"
            ),
            (got, want) => panic!(
                "{what}: production {} but reference {}",
                if got.is_ok() { "built" } else { "failed" },
                if want.is_ok() { "built" } else { "failed" },
            ),
        }
    }

    /// Every generator input of the small grid: the same deployment or the
    /// same `NoTopology` as the per-probe all-pairs fit.
    fn check_seeds(seeds: std::ops::Range<u64>) {
        for n in [2, 3, 4, 5, 8, 12, 24, 50, 100, 200, 400] {
            for degree in [
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 13.0, 20.0, 40.0,
            ] {
                for seed in seeds.clone() {
                    check(n, degree, seed);
                }
            }
        }
    }

    // Two halves, so the test threads share the reference's full scans.
    #[test]
    fn deployments_match_the_reference_seeds_0_to_2() {
        check_seeds(0..3);
    }

    #[test]
    fn deployments_match_the_reference_seeds_3_to_5() {
        check_seeds(3..6);
    }

    /// Degrees at the edges of the fit's decisions: within 0.25 and 1.5 of
    /// what a complete graph reaches, beyond it, and not a degree at all
    /// (`OPEN` takes any number).
    #[test]
    fn odd_degrees_match_the_reference() {
        for n in [2, 3, 5, 12, 40] {
            let full = (n - 1) as f64;
            for degree in [
                full + 0.2,
                full + 0.3,
                full - 0.2,
                full + 1.4,
                full + 1.6,
                full - 2.5,
                0.0,
                -1.0,
                1e9,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ] {
                for seed in 0..2 {
                    check(n, degree, seed);
                }
            }
        }
    }

    /// The deployments the benchmark and the figures run on.
    #[test]
    #[ignore = "long; run in release mode"]
    fn large_deployments_match_the_reference() {
        for (n, degree, seed) in [
            (2000, 10.0, 1),
            (1000, 7.0, 1),
            (400, 7.0, 1),
            (2000, 7.0, 1),
        ] {
            check(n, degree, seed);
        }
        let topo = grid(45, 45);
        let want = all_pairs(topo.positions(), topo.radio_range());
        assert_same_adjacency(&topo, &want, "grid(45, 45)");
    }

    /// Layouts no generator draws: duplicate points, negative coordinates,
    /// lattice points and twins exactly one range apart, range 0, a
    /// negative range, ranges beyond the extent, one whose square
    /// overflows, and infinite and NaN ranges.
    #[test]
    fn from_positions_matches_the_reference_on_odd_layouts() {
        let mut rng = StdRng::seed_from_u64(40);
        let ranges = [
            0.0,
            0.5,
            1.0,
            2.0,
            2.5,
            5.0,
            7.0,
            30.0,
            1e6,
            1e200,
            f64::INFINITY,
            f64::NAN,
            -3.0,
        ];
        for n in [1, 2, 3, 7, 20, 64, 150, 300] {
            for layout in 0..5 {
                let mut positions: Vec<Point> = Vec::with_capacity(n);
                for i in 0..n {
                    let p = match layout {
                        // Integer lattice: many pairs exactly at range.
                        0 => Point::new(
                            rng.random_range(0..20u32) as f64 - 10.0,
                            rng.random_range(0..20u32) as f64 - 10.0,
                        ),
                        // Continuous, around the origin.
                        1 => {
                            Point::new(rng.random_range(-40.0..40.0), rng.random_range(-40.0..40.0))
                        }
                        // A thin strip far from the origin.
                        2 => Point::new(
                            rng.random_range(1e4..1e4 + 200.0),
                            rng.random_range(-1.0..1.0),
                        ),
                        // Every point at one of a few sites.
                        3 => Point::new(rng.random_range(0..3u32) as f64, 0.5),
                        // Twins one range (7) apart, anywhere across cell
                        // boundaries.
                        _ if i % 2 == 1 => {
                            let q = positions[i - 1];
                            Point::new(q.x + 7.0, q.y)
                        }
                        _ => Point::new(rng.random_range(0.0..100.0), rng.random_range(0.0..9.0)),
                    };
                    // Every fifth point repeats an earlier one.
                    let p = if i > 0 && i % 5 == 0 {
                        positions[rng.random_range(0..i)]
                    } else {
                        p
                    };
                    positions.push(p);
                }
                for range in ranges {
                    let topo = Topology::from_positions(positions.clone(), range, NodeId(0));
                    let want = all_pairs(&positions, range);
                    assert_same_adjacency(
                        &topo,
                        &want,
                        &format!("n={n} layout={layout} range={range}"),
                    );
                }
            }
        }
    }
}
