//! Topology generators for the evaluation's deployment families.
//!
//! The paper (§4.1, App. C) studies random deployments with average degrees
//! of 6 ("sparse random"), 7 ("moderate"), 8 ("medium") and 13 ("dense
//! random"), a regular grid with ~7 average neighbors, and the Intel
//! Research-Berkeley lab topology.

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
const RESAMPLES: u32 = 64;

/// Generate a connected random deployment of `n` nodes in the standard
/// 256m x 256m area whose average unit-disk degree is close to
/// `target_degree`. The base station (node 0) is placed at the area edge
/// midpoint, matching the evaluation setups where the base sits at the
/// network boundary.
///
/// The radio range is solved by bisection on the measured average degree;
/// disconnected deployments are rejected and resampled deterministically,
/// 64 times at most: large sparse deployments (4000 nodes at
/// degree 7) and degrees no connected graph has run out of them.
///
/// # Panics
/// If `n < 2`.
pub fn try_random_with_degree(
    n: usize,
    target_degree: f64,
    seed: u64,
) -> Result<Topology, NoTopology> {
    assert!(n >= 2, "a network has a base station and a sensor");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x05ee_d700_ba5e);
    for _ in 0..RESAMPLES {
        let mut positions: Vec<Point> = Vec::with_capacity(n);
        // Base station at the bottom edge midpoint.
        positions.push(Point::new(AREA_SIDE_M / 2.0, 0.0));
        for _ in 1..n {
            positions.push(Point::new(
                rng.random_range(0.0..AREA_SIDE_M),
                rng.random_range(0.0..AREA_SIDE_M),
            ));
        }
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

/// [`try_random_with_degree`] for callers that chose `n`, `target_degree`
/// and `seed` themselves (experiments, tests).
///
/// # Panics
/// If no connected deployment was found.
pub fn random_with_degree(n: usize, target_degree: f64, seed: u64) -> Topology {
    try_random_with_degree(n, target_degree, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// Find a radio range achieving `target_degree` (within tolerance) over fixed
/// positions, requiring connectivity.
fn fit_range(positions: &[Point], target_degree: f64) -> Option<Topology> {
    let mut lo = 1.0;
    let mut hi = AREA_SIDE_M * 1.5;
    let mut best: Option<Topology> = None;
    for _ in 0..48 {
        let mid = (lo + hi) / 2.0;
        let topo = Topology::from_positions(positions.to_vec(), mid, NodeId(0));
        let deg = topo.avg_degree();
        if (deg - target_degree).abs() < 0.25 && topo.is_connected() {
            return Some(topo);
        }
        if deg < target_degree {
            lo = mid;
        } else {
            hi = mid;
            if topo.is_connected() {
                best = Some(topo);
            }
        }
    }
    // Accept a connected topology with slightly-too-high degree rather than a
    // disconnected one that nails the degree.
    best.filter(|t| (t.avg_degree() - target_degree).abs() < 1.5)
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
