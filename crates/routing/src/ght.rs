//! Geographic Hash Tables over GPSR (\[13\]).
//!
//! GHT hashes a join key to a point in the deployment area; the node
//! closest to that point is the key's *home node* where the grouped join
//! computation lives. Packets reach it via GPSR: greedy geographic
//! forwarding with a right-hand-rule perimeter mode on the Gabriel-graph
//! planarization for escaping local minima.

use sensor_net::{NodeId, Point, Rect, Topology};

/// splitmix64 finalizer (same mixer as the summaries crate; duplicated to
/// keep the crates independent).
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Bounding box of a deployment (the hash target space).
pub fn deployment_bbox(topo: &Topology) -> Rect {
    let mut r = Rect::from_point(topo.position(NodeId(0)));
    for p in topo.positions() {
        r = r.union(&Rect::from_point(*p));
    }
    r
}

/// Hash a key to a point inside `bbox`.
pub fn hash_key_to_point(key: u64, bbox: Rect) -> Point {
    let h = mix64(key);
    let fx = (h & 0xffff_ffff) as f64 / u32::MAX as f64;
    let fy = (h >> 32) as f64 / u32::MAX as f64;
    Point::new(
        bbox.min_x + fx * (bbox.max_x - bbox.min_x),
        bbox.min_y + fy * (bbox.max_y - bbox.min_y),
    )
}

/// The home node for a key: closest node to the hashed location. Its
/// placement is arbitrary w.r.t. the producers — the cost drawback §2.2
/// points out.
pub fn ght_home(topo: &Topology, key: u64) -> NodeId {
    topo.closest_node(hash_key_to_point(key, deployment_bbox(topo)))
}

/// GPSR router with a precomputed Gabriel-graph planarization.
#[derive(Debug, Clone)]
pub struct GpsrRouter {
    /// Planar neighbor lists (subset of radio neighbors).
    planar: Vec<Vec<NodeId>>,
}

impl GpsrRouter {
    pub fn new(topo: &Topology) -> Self {
        let n = topo.len();
        let mut planar = vec![Vec::new(); n];
        for (u, planar_u) in planar.iter_mut().enumerate() {
            let pu = topo.position(NodeId(u as u16));
            'edges: for &v in topo.neighbors(NodeId(u as u16)) {
                let pv = topo.position(v);
                let mid = Point::new((pu.x + pv.x) / 2.0, (pu.y + pv.y) / 2.0);
                let rad2 = pu.dist2(&pv) / 4.0;
                // Gabriel test: keep edge iff no witness strictly inside the
                // circle with diameter (u, v).
                for w in 0..n {
                    if w == u || w == v.index() {
                        continue;
                    }
                    if topo.position(NodeId(w as u16)).dist2(&mid) < rad2 - 1e-9 {
                        continue 'edges;
                    }
                }
                planar_u.push(v);
            }
        }
        GpsrRouter { planar }
    }

    /// Route from `from` toward the node closest to `dest` (the `home`
    /// node, which the caller determines via [`ght_home`]). Returns the
    /// node path inclusive of both endpoints, or `None` on routing failure
    /// (pathological planarization); callers fall back to tree routing.
    pub fn route(&self, topo: &Topology, from: NodeId, home: NodeId) -> Option<Vec<NodeId>> {
        let dest = topo.position(home);
        let mut path = vec![from];
        let mut at = from;
        let mut perimeter: Option<PerimeterState> = None;
        let budget = 4 * topo.len() + 16;

        for _ in 0..budget {
            if at == home {
                return Some(path);
            }
            let d_at = topo.position(at).dist(&dest);
            match perimeter {
                None => {
                    // Greedy: strictly closer neighbor, nearest first.
                    // `total_cmp` keeps this panic-free even for the NaN
                    // distances a degenerate position table could produce
                    // (`partial_cmp().unwrap()` would abort the route).
                    let next = topo
                        .neighbors(at)
                        .iter()
                        .copied()
                        .filter(|&nb| topo.position(nb).dist(&dest) < d_at - 1e-12)
                        .min_by(|&a, &b| {
                            topo.position(a)
                                .dist(&dest)
                                .total_cmp(&topo.position(b).dist(&dest))
                                .then(a.cmp(&b))
                        });
                    match next {
                        Some(nb) => {
                            path.push(nb);
                            at = nb;
                        }
                        None => {
                            // Local minimum: enter perimeter mode.
                            let first = self.perimeter_first_hop(topo, at, dest)?;
                            perimeter = Some(PerimeterState {
                                entry_dist: d_at,
                                prev: at,
                            });
                            path.push(first);
                            at = first;
                        }
                    }
                }
                Some(ref st) => {
                    if d_at < st.entry_dist - 1e-12 {
                        // Escaped the void: resume greedy.
                        perimeter = None;
                        continue;
                    }
                    let next = self.perimeter_next_hop(topo, at, st.prev)?;
                    perimeter = Some(PerimeterState {
                        entry_dist: st.entry_dist,
                        prev: at,
                    });
                    path.push(next);
                    at = next;
                }
            }
        }
        None
    }

    /// First perimeter hop: the planar neighbor first encountered sweeping
    /// counterclockwise from the (at -> dest) direction (right-hand rule).
    fn perimeter_first_hop(&self, topo: &Topology, at: NodeId, dest: Point) -> Option<NodeId> {
        let pa = topo.position(at);
        let base = (dest.y - pa.y).atan2(dest.x - pa.x);
        self.sweep_ccw(topo, at, base, None)
    }

    /// Subsequent perimeter hop: sweep counterclockwise from the edge we
    /// arrived on.
    fn perimeter_next_hop(&self, topo: &Topology, at: NodeId, prev: NodeId) -> Option<NodeId> {
        let pa = topo.position(at);
        let pp = topo.position(prev);
        let base = (pp.y - pa.y).atan2(pp.x - pa.x);
        // Prefer any other planar neighbor; fall back to going back.
        self.sweep_ccw(topo, at, base, Some(prev))
            .or(Some(prev).filter(|p| self.planar[at.index()].contains(p)))
    }

    fn sweep_ccw(
        &self,
        topo: &Topology,
        at: NodeId,
        base_angle: f64,
        exclude: Option<NodeId>,
    ) -> Option<NodeId> {
        let pa = topo.position(at);
        self.planar[at.index()]
            .iter()
            .copied()
            .filter(|&nb| Some(nb) != exclude)
            .min_by(|&a, &b| {
                let ang = |n: NodeId| {
                    let p = topo.position(n);
                    let mut d = (p.y - pa.y).atan2(p.x - pa.x) - base_angle;
                    while d <= 1e-12 {
                        d += std::f64::consts::TAU;
                    }
                    d
                };
                // Total order: sweep angles are finite by construction
                // (nodes never share a position with `at`), but routing
                // must not be able to panic on a malformed deployment.
                ang(a).total_cmp(&ang(b)).then(a.cmp(&b))
            })
    }
}

struct PerimeterState {
    entry_dist: f64,
    prev: NodeId,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Topology {
        sensor_net::gen::grid(10, 10)
    }

    #[test]
    fn hash_points_stay_in_bbox() {
        let topo = grid();
        let bbox = deployment_bbox(&topo);
        for key in 0..200u64 {
            let p = hash_key_to_point(key, bbox);
            assert!(bbox.contains_point(&p), "key {key} -> {p:?}");
        }
    }

    #[test]
    fn home_nodes_are_spread() {
        let topo = grid();
        let homes: std::collections::HashSet<NodeId> =
            (0..50u64).map(|k| ght_home(&topo, k)).collect();
        assert!(homes.len() > 15, "only {} distinct homes", homes.len());
    }

    #[test]
    fn greedy_routes_on_grid() {
        let topo = grid();
        let router = GpsrRouter::new(&topo);
        let home = ght_home(&topo, 7);
        let path = router.route(&topo, NodeId(0), home).expect("route");
        assert_eq!(path.first(), Some(&NodeId(0)));
        assert_eq!(path.last(), Some(&home));
        for w in path.windows(2) {
            assert!(topo.are_neighbors(w[0], w[1]));
        }
    }

    #[test]
    fn routes_all_pairs_random_topology() {
        let topo = sensor_net::random_with_degree(60, 7.0, 5);
        let router = GpsrRouter::new(&topo);
        let mut failures = 0;
        let mut total = 0;
        for s in (0..60u16).step_by(7) {
            for t in (0..60u16).step_by(11) {
                if s == t {
                    continue;
                }
                total += 1;
                match router.route(&topo, NodeId(s), NodeId(t)) {
                    Some(path) => {
                        assert_eq!(path.last(), Some(&NodeId(t)));
                        for w in path.windows(2) {
                            assert!(topo.are_neighbors(w[0], w[1]));
                        }
                    }
                    None => failures += 1,
                }
            }
        }
        // GPSR with GG planarization should deliver nearly always on a
        // connected unit-disk graph.
        assert!(
            failures * 10 <= total,
            "{failures}/{total} GPSR routing failures"
        );
    }

    #[test]
    fn gpsr_paths_no_shorter_than_bfs() {
        let topo = sensor_net::random_with_degree(60, 7.0, 9);
        let router = GpsrRouter::new(&topo);
        for (s, t) in [(1u16, 50u16), (3, 40), (10, 59)] {
            if let Some(p) = router.route(&topo, NodeId(s), NodeId(t)) {
                let bfs = topo.hop_distance(NodeId(s), NodeId(t)).unwrap() as usize;
                assert!(p.len() > bfs);
            }
        }
    }

    #[test]
    fn planar_graph_is_subset_and_symmetric() {
        let topo = sensor_net::random_with_degree(50, 8.0, 2);
        let router = GpsrRouter::new(&topo);
        for u in 0..50u16 {
            for &v in &router.planar[NodeId(u).index()] {
                assert!(topo.are_neighbors(NodeId(u), v));
                assert!(
                    router.planar[v.index()].contains(&NodeId(u)),
                    "gabriel graph must be symmetric"
                );
            }
        }
    }

    #[test]
    fn deterministic_hashing() {
        let topo = grid();
        assert_eq!(ght_home(&topo, 99), ght_home(&topo, 99));
    }
}
