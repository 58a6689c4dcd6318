//! Topology generators for the evaluation's deployment families.
//!
//! The paper (§4.1, App. C) studies random deployments with average degrees
//! of 6 ("sparse random"), 7 ("moderate"), 8 ("medium") and 13 ("dense
//! random"), a regular grid with ~7 average neighbors, and the Intel
//! Research-Berkeley lab topology.

use crate::cells::CellGrid;
use crate::geom::Point;
use crate::topology::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The named deployment density classes of Appendix C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DensityClass {
    /// ~6 neighbors on average.
    Sparse,
    /// ~7 neighbors on average.
    Moderate,
    /// ~8 neighbors on average.
    Medium,
    /// ~13 neighbors on average.
    Dense,
    /// Regular grid, ~7 neighbors on average.
    Grid,
}

impl DensityClass {
    pub fn target_degree(self) -> f64 {
        match self {
            DensityClass::Sparse => 6.0,
            DensityClass::Moderate => 7.0,
            DensityClass::Medium => 8.0,
            DensityClass::Dense => 13.0,
            DensityClass::Grid => 7.0,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            DensityClass::Sparse => "Sparse Random",
            DensityClass::Moderate => "Moderate Random",
            DensityClass::Medium => "Medium Random",
            DensityClass::Dense => "Dense Random",
            DensityClass::Grid => "Grid",
        }
    }

    pub const ALL: [DensityClass; 5] = [
        DensityClass::Dense,
        DensityClass::Medium,
        DensityClass::Moderate,
        DensityClass::Sparse,
        DensityClass::Grid,
    ];
}

/// Specification of a topology to build; hashes down to a concrete seeded
/// deployment via [`TopologySpec::build`].
#[derive(Debug, Clone, Copy)]
pub struct TopologySpec {
    pub class: DensityClass,
    pub nodes: usize,
    pub seed: u64,
}

impl TopologySpec {
    pub fn new(class: DensityClass, nodes: usize, seed: u64) -> Self {
        TopologySpec { class, nodes, seed }
    }

    pub fn build(&self) -> Topology {
        match self.class {
            DensityClass::Grid => grid_with_nodes(self.nodes),
            c => random_with_degree(self.nodes, c.target_degree(), self.seed),
        }
    }
}

/// Deployment area side used by the synthetic experiments (Table 1: positions
/// live on a 256m-by-256m grid).
pub const AREA_SIDE_M: f64 = 256.0;

/// [`try_random_with_degree`] found no connected deployment near the
/// asked-for degree in any of its resamples.
#[derive(Debug, Clone, PartialEq)]
pub struct NoTopology {
    pub nodes: usize,
    pub target_degree: f64,
}

impl std::fmt::Display for NoTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "failed to generate a connected topology after {RESAMPLES} attempts (n={}, degree={})",
            self.nodes, self.target_degree
        )
    }
}

impl std::error::Error for NoTopology {}

/// Deployments [`try_random_with_degree`] draws before it gives up.
pub(crate) const RESAMPLES: u32 = 64;

/// Generate a connected random deployment of `n` nodes in the standard
/// 256m x 256m area whose average unit-disk degree is close to
/// `target_degree`. The base station (node 0) is placed at the area edge
/// midpoint, matching the evaluation setups where the base sits at the
/// network boundary.
///
/// The radio range is solved by bisection on the average degree, read
/// from one sorted list of the layout's short link lengths; a probe's
/// connectivity is a comparison with the list's bottleneck length (see
/// `fit_range`). Disconnected deployments are rejected and resampled
/// deterministically, 64 times at most: large sparse deployments (4000
/// nodes at degree 7) and degrees no connected graph has run out of
/// them. A draw costs O(n + short pairs) plus the sort, not a graph
/// build per probe.
///
/// # Panics
/// If `n < 2` or `n > 65,536` (node ids are 16-bit).
pub fn try_random_with_degree(
    n: usize,
    target_degree: f64,
    seed: u64,
) -> Result<Topology, NoTopology> {
    assert!(n >= 2, "a network has a base station and a sensor");
    assert!(
        n <= 1 << 16,
        "{n} nodes: node ids are 16-bit, at most 65536 nodes"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x05ee_d700_ba5e);
    for _ in 0..RESAMPLES {
        let positions = draw_positions(&mut rng, n);
        if let Some(topo) = fit_range(&positions, target_degree) {
            return Ok(topo);
        }
        // Deterministic resample: the RNG stream continues.
    }
    Err(NoTopology {
        nodes: n,
        target_degree,
    })
}

/// One draw of `n` positions: the base station at the bottom edge
/// midpoint, every sensor uniform over the area.
pub(crate) fn draw_positions(rng: &mut StdRng, n: usize) -> Vec<Point> {
    let mut positions: Vec<Point> = Vec::with_capacity(n);
    positions.push(Point::new(AREA_SIDE_M / 2.0, 0.0));
    for _ in 1..n {
        positions.push(Point::new(
            rng.random_range(0.0..AREA_SIDE_M),
            rng.random_range(0.0..AREA_SIDE_M),
        ));
    }
    positions
}

/// [`try_random_with_degree`] for callers that chose `n`, `target_degree`
/// and `seed` themselves (experiments, tests).
///
/// # Panics
/// If no connected deployment was found.
pub fn random_with_degree(n: usize, target_degree: f64, seed: u64) -> Topology {
    try_random_with_degree(n, target_degree, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// The upper end of [`fit_range`]'s bisection: beyond the area's diagonal,
/// so every pair of a drawn layout is a link there.
const MAX_RANGE: f64 = AREA_SIDE_M * 1.5;

/// Find a radio range achieving `target_degree` (within tolerance) over fixed
/// positions, requiring connectivity.
///
/// A 48-step bisection on the range. A probe whose average degree is within
/// 0.25 of the target and whose graph is connected is the answer. Below the
/// target the range grows; otherwise it shrinks, and a connected probe
/// becomes the fallback, accepted at the end if its degree is within 1.5.
///
/// No probe builds a graph. [`LinkLengths`] sorts the squared lengths of the
/// layout's short pairs once: a probe's link count is a binary search in
/// that list, and its connectivity is a comparison with the bottleneck, the
/// length at which a union-find pass over the sorted list first joins every
/// node. The list holds every count a decision can tell apart (see
/// `first_far`), so the probes, and the one [`Topology`] built at the range
/// returned, are those of a full graph build per probe.
fn fit_range(positions: &[Point], target_degree: f64) -> Option<Topology> {
    let n = positions.len();
    let pairs = n * (n - 1) / 2;
    // The three decisions, as functions of a probe's link count.
    let degree = |links: usize| (2 * links) as f64 / n as f64;
    let on_target = |links| (degree(links) - target_degree).abs() < 0.25;
    let below = |links| degree(links) < target_degree;
    let acceptable = |links| (degree(links) - target_degree).abs() < 1.5;
    // Too sparse even with every pair linked: each probe raises `lo`.
    if below(pairs) && !on_target(pairs) {
        return None;
    }
    // From `first_far` links on, a probe lowers `hi`, and, kept as the
    // fallback, fails the final filter: no decision needs a larger count
    // exactly. `far` is monotone in the count, so it holds on a suffix of
    // `0..=pairs` (possibly empty).
    let far = |links| !below(links) && !acceptable(links);
    let (mut first_far, mut end) = (0, pairs + 1);
    while first_far < end {
        let mid = first_far + (end - first_far) / 2;
        if far(mid) {
            end = mid;
        } else {
            first_far = mid + 1;
        }
    }
    let lengths = LinkLengths::new(positions, first_far);
    let mut lo = 1.0;
    let mut hi = MAX_RANGE;
    let mut best = None;
    for _ in 0..48 {
        let mid = (lo + hi) / 2.0;
        let links = lengths.links(mid);
        if on_target(links) && lengths.connected(mid) {
            return Some(Topology::from_positions(positions.to_vec(), mid, NodeId(0)));
        }
        if below(links) {
            lo = mid;
        } else {
            hi = mid;
            if lengths.connected(mid) {
                best = Some(mid);
            }
        }
    }
    // Accept a connected topology with slightly-too-high degree rather than a
    // disconnected one that nails the degree.
    best.filter(|&r| acceptable(lengths.links(r)))
        .map(|r| Topology::from_positions(positions.to_vec(), r, NodeId(0)))
}

/// The squared lengths of a layout's pairs within a cover radius, sorted,
/// and the bottleneck: the least squared range at which those pairs join
/// every node (infinite when they never do).
///
/// At a range within the cover, [`LinkLengths::links`] is the exact link
/// count and [`LinkLengths::connected`] the exact connectivity. Past it
/// the count is the list's length, at least the `at_least` it was built
/// for, which [`fit_range`] treats alike whatever the true count.
struct LinkLengths {
    /// `(d2, i, j)` for `i < j`, ascending by `d2`.
    links: Vec<(f64, u32, u32)>,
    bottleneck: f64,
}

impl LinkLengths {
    /// Grows the cover radius from an estimate until the list holds
    /// `at_least` pairs, or until it reaches [`MAX_RANGE`].
    fn new(positions: &[Point], at_least: usize) -> Self {
        let n = positions.len();
        let pairs = n * (n - 1) / 2;
        // About pairs · πr² / area pairs lie within r of each other, a
        // little fewer at the area's edges: aim a quarter above.
        let mut reach = if at_least > pairs {
            MAX_RANGE
        } else {
            let area = AREA_SIDE_M * AREA_SIDE_M;
            (1.25 * at_least as f64 * area / (std::f64::consts::PI * pairs as f64)).sqrt()
        };
        let mut links = Vec::new();
        loop {
            let reach2 = reach * reach;
            let cells = CellGrid::new(positions, reach2);
            links.clear();
            for i in 0..n {
                cells.for_each_later(positions, i, |j, d2| {
                    if d2 <= reach2 {
                        links.push((d2, i as u32, j as u32));
                    }
                });
            }
            if links.len() >= at_least || reach >= MAX_RANGE {
                break;
            }
            reach = (reach * 1.5).min(MAX_RANGE);
        }
        links.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut parts = n;
        let mut bottleneck = f64::INFINITY;
        for &(d2, i, j) in &links {
            let (a, b) = (root(&mut parent, i), root(&mut parent, j));
            if a != b {
                parent[a as usize] = b;
                parts -= 1;
                if parts == 1 {
                    bottleneck = d2;
                    break;
                }
            }
        }
        LinkLengths { links, bottleneck }
    }

    /// Links at radio range `r`.
    fn links(&self, r: f64) -> usize {
        let r2 = r * r;
        self.links.partition_point(|l| l.0 <= r2)
    }

    /// Whether the links at radio range `r` connect every node.
    fn connected(&self, r: f64) -> bool {
        self.bottleneck <= r * r
    }
}

/// Union-find root of `x`, halving the path on the way.
fn root(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// Regular grid over the standard area with a radio range covering the 8
/// surrounding cells, yielding ~7 neighbors on average once edge effects are
/// counted (matching App. C's "grid with an average of 7 neighbors").
pub fn grid(cols: usize, rows: usize) -> Topology {
    assert!(cols >= 2 && rows >= 2);
    let spacing_x = AREA_SIDE_M / cols as f64;
    let spacing_y = AREA_SIDE_M / rows as f64;
    let mut positions = Vec::with_capacity(cols * rows);
    for r in 0..rows {
        for c in 0..cols {
            positions.push(Point::new(
                (c as f64 + 0.5) * spacing_x,
                (r as f64 + 0.5) * spacing_y,
            ));
        }
    }
    // Range covering orthogonal and diagonal neighbors but not 2-step ones.
    let diag = (spacing_x * spacing_x + spacing_y * spacing_y).sqrt();
    let range = diag * 1.05;
    Topology::from_positions(positions, range, NodeId(0))
}

/// Grid with approximately `n` nodes (rounded to the nearest full square).
pub fn grid_with_nodes(n: usize) -> Topology {
    let side = (n as f64).sqrt().round().max(2.0) as usize;
    grid(side, side)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_degrees_hit_targets() {
        for class in [
            DensityClass::Sparse,
            DensityClass::Moderate,
            DensityClass::Medium,
            DensityClass::Dense,
        ] {
            let t = random_with_degree(100, class.target_degree(), 42);
            assert!(t.is_connected(), "{class:?} disconnected");
            let deg = t.avg_degree();
            assert!(
                (deg - class.target_degree()).abs() < 1.5,
                "{class:?}: degree {deg} far from {}",
                class.target_degree()
            );
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = random_with_degree(60, 7.0, 7);
        let b = random_with_degree(60, 7.0, 7);
        assert_eq!(a.positions().len(), b.positions().len());
        for (pa, pb) in a.positions().iter().zip(b.positions()) {
            assert_eq!(pa, pb);
        }
        let c = random_with_degree(60, 7.0, 8);
        let same = a.positions().iter().zip(c.positions()).all(|(x, y)| x == y);
        assert!(!same, "different seeds should give different layouts");
    }

    /// No connected graph has average degree 1, so every resample fails:
    /// that is an `Err` for whoever passes outside input, not a panic.
    #[test]
    fn unreachable_degree_is_an_error() {
        let err = try_random_with_degree(40, 1.0, 1).unwrap_err();
        assert_eq!(
            err,
            NoTopology {
                nodes: 40,
                target_degree: 1.0
            }
        );
        assert!(err.to_string().contains("n=40, degree=1"), "{err}");
    }

    /// Distance tests, pinned exactly: the deterministic cost of a draw.
    /// The `sparse_large` deployment, then one that fails all 64
    /// resamples. A graph build per bisection probe made up to
    /// 48 × n(n−1)/2 tests per resample: 115,942,000 for the first (58
    /// probes over two resamples) and 24,569,856,000 for the second.
    const PINNED_DIST_TESTS: (u64, u64) = (104_727, 3_722_902);

    #[test]
    fn deployments_test_few_distances() {
        let tests_during = |f: &dyn Fn()| {
            let before = crate::cells::dist_tests();
            f();
            crate::cells::dist_tests() - before
        };
        let built = tests_during(&|| {
            random_with_degree(2000, 10.0, 1);
        });
        let failed = tests_during(&|| {
            try_random_with_degree(4000, 7.0, 1).unwrap_err();
        });
        println!("{built} distance tests to build, {failed} to fail");
        assert_eq!((built, failed), PINNED_DIST_TESTS);
    }

    #[test]
    #[should_panic(expected = "node ids are 16-bit")]
    fn more_nodes_than_ids_is_refused() {
        let _ = try_random_with_degree(70_000, 7.0, 1);
    }

    #[test]
    fn base_is_node_zero_at_edge() {
        let t = random_with_degree(80, 7.0, 3);
        assert_eq!(t.base(), NodeId(0));
        assert_eq!(t.position(NodeId(0)).y, 0.0);
    }

    #[test]
    fn grid_structure() {
        let t = grid(10, 10);
        assert_eq!(t.len(), 100);
        assert!(t.is_connected());
        // Interior nodes have 8 neighbors, corners 3: average is ~7.
        let deg = t.avg_degree();
        assert!((6.0..8.0).contains(&deg), "grid degree {deg}");
    }

    #[test]
    fn grid_with_nodes_rounds() {
        assert_eq!(grid_with_nodes(100).len(), 100);
        assert_eq!(grid_with_nodes(50).len(), 49);
        assert_eq!(grid_with_nodes(200).len(), 196);
    }

    #[test]
    fn spec_builds_all_classes() {
        for class in DensityClass::ALL {
            let t = TopologySpec::new(class, 64, 11).build();
            assert!(t.is_connected(), "{class:?}");
            assert!(t.len() >= 49);
        }
    }
}
