//! The cost model: §3.1's pairwise placement expression, §5.2's group
//! cost difference ΔCp, and Table 3's per-algorithm analytic formulas.
//!
//! Costs are expected *tuple transmissions* (hop-weighted); multiplying by
//! tuple wire size gives bytes. The optimizer only ever compares costs, so
//! the unit cancels.

use std::borrow::Borrow;

/// Selectivities as the optimizer consumes them (possibly estimates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sigma {
    /// Probability an S producer sends in a sampling cycle.
    pub s: f64,
    /// Probability a T producer sends in a sampling cycle.
    pub t: f64,
    /// Probability a pair of tuples joins.
    pub st: f64,
}

impl Sigma {
    pub fn new(s: f64, t: f64, st: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&s));
        debug_assert!((0.0..=1.0).contains(&t));
        debug_assert!((0.0..=1.0).contains(&st));
        Sigma { s, t, st }
    }

    pub fn from_rates(r: sensor_workload::Rates) -> Self {
        Sigma::new(r.sigma_s(), r.sigma_t(), r.sigma_st())
    }

    /// Absolute floor for the divergence denominator. Selectivities are
    /// probabilities, so a change smaller than `threshold × this` is
    /// operationally meaningless no matter how large it looks *relatively*:
    /// with `old ≈ 0` (e.g. a pair that has produced no join results yet) a
    /// pure relative test declares any nonzero estimate "diverged" and
    /// migrates the join node every evaluation — the thrash the hybrid
    /// absolute/relative test below exists to prevent.
    pub const DIVERGENCE_ABS_FLOOR: f64 = 0.02;

    /// Hybrid divergence between two estimates of one parameter — the §6
    /// re-optimization trigger compares against 33%. Relative for
    /// non-negligible baselines, absolute (floored denominator) near zero.
    pub fn rel_divergence(old: f64, new: f64) -> f64 {
        let denom = old.abs().max(Self::DIVERGENCE_ABS_FLOOR);
        (new - old).abs() / denom
    }

    /// Whether any parameter diverged by more than `threshold` (paper:
    /// 0.33).
    pub fn diverged(&self, other: &Sigma, threshold: f64) -> bool {
        Self::rel_divergence(self.s, other.s) > threshold
            || Self::rel_divergence(self.t, other.t) > threshold
            || Self::rel_divergence(self.st, other.st) > threshold
    }
}

/// §3.1: expected per-cycle cost of placing the join for pair (s, t) at a
/// node `j` with hop distances `d_sj` (s→j), `d_tj` (t→j) and `d_jr`
/// (j→base):
///
/// `σs·Dsj + σt·Dtj + (σs+σt)·w·σst·Djr`
pub fn pair_cost_at(sig: Sigma, w: usize, d_sj: f64, d_tj: f64, d_jr: f64) -> f64 {
    sig.s * d_sj + sig.t * d_tj + (sig.s + sig.t) * w as f64 * sig.st * d_jr
}

/// §3.1: cost of computing the pair at the base station instead:
/// `σs·Dsr + σt·Dtr` (results are born at the base).
pub fn pair_cost_at_base(sig: Sigma, d_sr: f64, d_tr: f64) -> f64 {
    sig.s * d_sr + sig.t * d_tr
}

/// N-way generalization (plan optimizer, [`mod@crate::optimize`]): expected
/// per-cycle output rate of a join whose input streams arrive at combined
/// rates `rate_l`/`rate_r`. Each arriving tuple probes the opposite
/// window (`w` tuples deep) under the joint selectivity `sigma` of the
/// edges crossing the split. With singleton inputs this is exactly the
/// result term `(σs+σt)·w·σst` of [`pair_cost_at`].
pub fn join_out_rate(rate_l: f64, rate_r: f64, w: usize, sigma: f64) -> f64 {
    (rate_l + rate_r) * w as f64 * sigma
}

/// Transporting a stream of `rate` tuples/cycle over `dist` hops: the
/// hop-weighted tuple-transmission unit every §3.1 term is built from.
pub fn transport_cost(rate: f64, dist: f64) -> f64 {
    rate * dist
}

/// Outcome of pairwise placement over a discovered path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// Join at `path[index]`.
    OnPath { index: usize, cost: f64 },
    /// Join at the base station.
    AtBase { cost: f64 },
}

impl Placement {
    pub fn cost(&self) -> f64 {
        match self {
            Placement::OnPath { cost, .. } | Placement::AtBase { cost } => *cost,
        }
    }
}

/// Choose the cheapest join node along a path (s = `path[0]`, t = last),
/// comparing against a join at the base (§3.2). `hops_to_base` yields the
/// base distance of each `path[i]` in order: a slice of them, or depths
/// read off the routing tree as the path is walked.
///
/// Ties prefer on-path placement (avoids base congestion at equal cost)
/// and, among path nodes, the one closest to `t` (the nominator reaches it
/// soonest).
pub fn place_join_node(
    sig: Sigma,
    w: usize,
    hops_to_base: impl IntoIterator<Item = impl Borrow<u16>, IntoIter: ExactSizeIterator>,
) -> Placement {
    let hops = hops_to_base.into_iter();
    let n = hops.len();
    assert!(n > 0);
    let (mut d_sr, mut d_tr) = (0.0, 0.0);
    let mut best_idx = 0usize;
    let mut best_cost = f64::INFINITY;
    for (i, h) in hops.enumerate() {
        let h = *h.borrow() as f64;
        if i == 0 {
            d_sr = h;
        }
        d_tr = h;
        let cost = pair_cost_at(sig, w, i as f64, (n - 1 - i) as f64, h);
        if cost < best_cost - 1e-12 || (cost < best_cost + 1e-12 && i > best_idx) {
            best_cost = cost;
            best_idx = i;
        }
    }
    let base_cost = pair_cost_at_base(sig, d_sr, d_tr);
    if base_cost < best_cost - 1e-12 {
        Placement::AtBase { cost: base_cost }
    } else {
        Placement::OnPath {
            index: best_idx,
            cost: best_cost,
        }
    }
}

/// §5.2: a producer's cost difference between fully in-network computation
/// and computation at the base:
///
/// `ΔCp = σp·Σ_j (D_pj + w·σst·N_pj·D_jr) − σp·D_pr`
///
/// `per_join_node` = (D_pj, N_pj, D_jr) for each join node handling pairs
/// of `p`. Negative ΔCp favors in-network.
pub fn delta_cp(
    sigma_p: f64,
    w: usize,
    sigma_st: f64,
    per_join_node: &[(f64, u32, f64)],
    d_pr: f64,
) -> f64 {
    let innet: f64 = per_join_node
        .iter()
        .map(|&(d_pj, n_pj, d_jr)| d_pj + w as f64 * sigma_st * n_pj as f64 * d_jr)
        .sum();
    sigma_p * innet - sigma_p * d_pr
}

/// Table 3 analytic whole-query costs (expected tuple transmissions per
/// sampling cycle), used by the `table3` experiment to validate the
/// simulator against the formulas.
pub mod analytic {
    use super::Sigma;

    /// Inputs: per-producer base distances and join-pair structure.
    pub struct QueryShape {
        /// Base distance of every eligible S producer.
        pub d_sr: Vec<f64>,
        /// Base distance of every eligible T producer.
        pub d_tr: Vec<f64>,
        /// For In-Net/GHT: per pair (d_sj, d_tj, d_jr).
        pub pair_distances: Vec<(f64, f64, f64)>,
    }

    /// Naive: `σs·Σs Dsr + σt·Σt Dtr` (no pre-filtering: pass the full
    /// selection-eligible sets).
    pub fn naive_per_cycle(sig: Sigma, shape: &QueryShape) -> f64 {
        sig.s * shape.d_sr.iter().sum::<f64>() + sig.t * shape.d_tr.iter().sum::<f64>()
    }

    /// Base: same form, over the join-pruned producer sets.
    pub fn base_per_cycle(sig: Sigma, shape: &QueryShape) -> f64 {
        naive_per_cycle(sig, shape)
    }

    /// In-Net / GHT execution: `Σ_pairs σs·Dsj + σt·Dtj +
    /// (σs+σt)·w·σst·Djr` (cs = ct = 1 per pair; grouped sharing appears
    /// through repeated (s, j) legs in `pair_distances`).
    pub fn pairwise_per_cycle(sig: Sigma, w: usize, shape: &QueryShape) -> f64 {
        shape
            .pair_distances
            .iter()
            .map(|&(d_sj, d_tj, d_jr)| super::pair_cost_at(sig, w, d_sj, d_tj, d_jr))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(s: f64, t: f64, st: f64) -> Sigma {
        Sigma::new(s, t, st)
    }

    #[test]
    fn pair_cost_formula() {
        // σs=0.5, σt=0.5, w=3, σst=0.2: results term = 1.0*3*0.2 = 0.6/hop.
        let c = pair_cost_at(sig(0.5, 0.5, 0.2), 3, 2.0, 4.0, 5.0);
        assert!((c - (1.0 + 2.0 + 3.0)).abs() < 1e-12);
    }

    #[test]
    fn base_beats_innet_for_hot_joins() {
        // With σst=1 and a large window, shipping both inputs to the base
        // (where results are free) wins over any midpoint.
        let s = sig(1.0, 1.0, 1.0);
        // Path of 5 nodes; base distances shaped like a tree walk.
        let hops = [4u16, 3, 4, 5, 6];
        match place_join_node(s, 8, hops) {
            Placement::AtBase { cost } => {
                assert!((cost - (4.0 + 6.0)).abs() < 1e-12);
            }
            other => panic!("expected base placement, got {other:?}"),
        }
    }

    #[test]
    fn innet_wins_for_rare_joins() {
        // σst≈0: cost is pure transport; the midpoint of the path beats
        // shipping both sides to a distant base.
        let s = sig(1.0, 1.0, 0.001);
        let hops = [10u16, 9, 8, 9, 10];
        match place_join_node(s, 1, hops) {
            Placement::OnPath { index, .. } => {
                assert_eq!(index, 2, "balanced rates place at the midpoint");
            }
            other => panic!("expected on-path placement, got {other:?}"),
        }
    }

    #[test]
    fn asymmetric_rates_pull_join_node_toward_heavy_side() {
        // σs >> σt: join node should sit near s (path[0..]).
        let heavy_s = place_join_node(sig(1.0, 0.1, 0.01), 1, [5, 5, 5, 5, 5]);
        let heavy_t = place_join_node(sig(0.1, 1.0, 0.01), 1, [5, 5, 5, 5, 5]);
        match (heavy_s, heavy_t) {
            (Placement::OnPath { index: i_s, .. }, Placement::OnPath { index: i_t, .. }) => {
                assert!(i_s < i_t, "i_s={i_s} i_t={i_t}");
                assert_eq!(i_s, 0);
                assert_eq!(i_t, 4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn delta_cp_sign_flips_with_result_rate() {
        // One join node 2 hops away, 1 pair, 5 hops from base; base 6 hops.
        let cold = delta_cp(1.0, 3, 0.01, &[(2.0, 1, 5.0)], 6.0);
        assert!(cold < 0.0, "rare joins favor in-network: {cold}");
        let hot = delta_cp(1.0, 3, 1.0, &[(2.0, 1, 5.0)], 6.0);
        assert!(hot > 0.0, "hot joins favor the base: {hot}");
    }

    #[test]
    fn divergence_trigger() {
        let old = sig(0.5, 0.5, 0.2);
        assert!(!old.diverged(&sig(0.5, 0.5, 0.25), 0.33)); // 25% change
        assert!(old.diverged(&sig(0.5, 0.5, 0.27), 0.33)); // 35% change
        assert!(old.diverged(&sig(0.1, 0.5, 0.2), 0.33));
        assert!(Sigma::rel_divergence(0.0, 0.1) > 1.0); // from zero: diverged
    }

    /// Regression (ISSUE 3): a pair with no join results yet (`old ≈ 0`)
    /// must not treat a tiny nonzero estimate as >33% divergence — the
    /// old `1e-9` denominator made `0 → 0.005` look like a 5-million-fold
    /// change and re-migrated the join node on every evaluation cycle.
    #[test]
    fn near_zero_baseline_does_not_thrash() {
        let cold = sig(0.5, 0.5, 0.0);
        assert!(!cold.diverged(&sig(0.5, 0.5, 0.005), 0.33));
        assert!(Sigma::rel_divergence(0.0, 0.005) < 0.33);
        // Changes that matter in absolute terms still trigger.
        assert!(cold.diverged(&sig(0.5, 0.5, 0.05), 0.33));
        // And the relative test is unchanged away from zero.
        assert!((Sigma::rel_divergence(0.4, 0.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn placement_never_worse_than_base() {
        // The §3.2 claim: explicit minimization means the chosen strategy
        // never exceeds the at-base cost.
        for (s, t, st, w) in [
            (1.0, 1.0, 0.2, 3),
            (0.1, 1.0, 0.05, 1),
            (1.0, 0.1, 1.0, 8),
            (0.5, 0.1667, 0.1, 3),
        ] {
            let sigv = sig(s, t, st);
            let hops = [7u16, 6, 5, 6, 7, 8];
            let p = place_join_node(sigv, w, hops);
            let base = pair_cost_at_base(sigv, 7.0, 8.0);
            assert!(p.cost() <= base + 1e-9, "{sigv:?} w={w}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The placement must equal the brute-force minimum over all
            /// path nodes and the base option.
            #[test]
            fn prop_placement_is_brute_force_min(
                hops in proptest::collection::vec(0u16..20, 2..12),
                s_den in 1u16..12,
                t_den in 1u16..12,
                st_den in 1u16..25,
                w in 1usize..8,
            ) {
                let sig = Sigma::new(
                    1.0 / s_den as f64,
                    1.0 / t_den as f64,
                    1.0 / st_den as f64,
                );
                let placement = place_join_node(sig, w, &hops);
                let n = hops.len();
                let brute_path = (0..n)
                    .map(|i| pair_cost_at(sig, w, i as f64, (n - 1 - i) as f64, hops[i] as f64))
                    .fold(f64::INFINITY, f64::min);
                let brute_base =
                    pair_cost_at_base(sig, hops[0] as f64, hops[n - 1] as f64);
                let brute = brute_path.min(brute_base);
                prop_assert!((placement.cost() - brute).abs() < 1e-9,
                    "placement {} vs brute {}", placement.cost(), brute);
            }

            /// §3.2's guarantee: never more expensive than joining at base.
            #[test]
            fn prop_never_worse_than_base(
                hops in proptest::collection::vec(0u16..20, 2..12),
                w in 1usize..8,
            ) {
                let sig = Sigma::new(0.5, 0.5, 0.2);
                let p = place_join_node(sig, w, &hops);
                let base = pair_cost_at_base(
                    sig,
                    hops[0] as f64,
                    hops[hops.len() - 1] as f64,
                );
                prop_assert!(p.cost() <= base + 1e-9);
            }

            /// ΔCp is monotone in the result rate: hotter joins only make
            /// in-network relatively less attractive.
            #[test]
            fn prop_delta_cp_monotone_in_sigma_st(
                d_pj in 0.0f64..10.0,
                n_pj in 1u32..6,
                d_jr in 0.0f64..10.0,
                d_pr in 0.0f64..10.0,
            ) {
                let lo = delta_cp(1.0, 3, 0.05, &[(d_pj, n_pj, d_jr)], d_pr);
                let hi = delta_cp(1.0, 3, 0.50, &[(d_pj, n_pj, d_jr)], d_pr);
                prop_assert!(hi >= lo - 1e-12);
            }

            /// Divergence detection is symmetric in threshold direction:
            /// scaling any parameter by >1.33 or <0.67 triggers.
            #[test]
            fn prop_divergence_triggers_on_large_change(
                base in 0.05f64..1.0,
                factor in 1.4f64..4.0,
            ) {
                let a = Sigma::new(base.min(1.0), 0.5, 0.2);
                let b = Sigma::new((base * factor).min(1.0), 0.5, 0.2);
                // Only assert when the clamp didn't erase the change.
                if (b.s - a.s).abs() / a.s > 0.33 {
                    prop_assert!(a.diverged(&b, 0.33));
                }
                prop_assert!(!a.diverged(&a, 0.33));
            }
        }
    }
}
