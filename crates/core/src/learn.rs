//! Adaptive selectivity learning (§6).
//!
//! The join node for a pair tracks the tuples received from each producer
//! (`Ns`, `Nt`), the join results produced (`Nst`), and the elapsed
//! sampling cycles `T` since the last reset. Estimates:
//!
//! - σp = Np / T,
//! - σst = Nst / (w · (Ns + Nt))  — every arriving tuple generates w·σst
//!   results in expectation.
//!
//! A new placement is triggered when any estimate diverges >33% from the
//! values the current placement was optimized for; counters are
//! periodically reset "to allow learning within a local time span".

use crate::cost::Sigma;

/// Sampling cycles between learning evaluations at join nodes.
pub const LEARN_INTERVAL: u32 = 20;

/// How far a learned selectivity may stray from the one a placement (or
/// a graph plan) assumed before it is re-optimized: the paper's 33 %.
pub const DIVERGENCE_THRESHOLD: f64 = 0.33;

/// Minimum sampling cycles since the last reset before
/// [`PairStats::estimate`] yields anything. One cycle of history is pure
/// noise: a counter straight out of `reset()` would otherwise estimate
/// from a single cycle, and one unlucky sample could trip the §6
/// divergence test and trigger a replan thrash loop (replan → reset →
/// one noisy sample → replan …).
pub const MIN_ESTIMATE_CYCLES: u32 = 2;

/// Minimum received tuples (`Ns + Nt`) before [`PairStats::estimate`]
/// yields anything, for the same thrash-damping reason as
/// [`MIN_ESTIMATE_CYCLES`].
pub const MIN_ESTIMATE_TUPLES: u32 = 2;

/// Per-pair learning counters at a join node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairStats {
    pub n_s: u32,
    pub n_t: u32,
    pub n_st: u32,
    /// Sampling cycles since the last reset.
    pub cycles: u32,
}

impl PairStats {
    pub fn record_s(&mut self) {
        self.n_s += 1;
    }

    pub fn record_t(&mut self) {
        self.n_t += 1;
    }

    pub fn record_results(&mut self, produced: u32) {
        self.n_st += produced;
    }

    pub fn tick(&mut self) {
        self.cycles += 1;
    }

    pub fn reset(&mut self) {
        *self = PairStats::default();
    }

    /// Estimate σ values; `None` until the minimum-evidence floor is met
    /// ([`MIN_ESTIMATE_CYCLES`] sampling cycles *and*
    /// [`MIN_ESTIMATE_TUPLES`] received tuples since the last reset — no
    /// usable information otherwise).
    pub fn estimate(&self, w: usize) -> Option<Sigma> {
        if self.cycles < MIN_ESTIMATE_CYCLES || self.n_s + self.n_t < MIN_ESTIMATE_TUPLES {
            return None;
        }
        let t = self.cycles as f64;
        let s = (self.n_s as f64 / t).min(1.0);
        let tt = (self.n_t as f64 / t).min(1.0);
        let st = (self.n_st as f64 / (w as f64 * (self.n_s + self.n_t) as f64)).min(1.0);
        Some(Sigma::new(s, tt, st))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_estimate_without_evidence() {
        let st = PairStats::default();
        assert_eq!(st.estimate(3), None);
        let mut st2 = PairStats::default();
        st2.tick();
        assert_eq!(st2.estimate(3), None); // cycles but no tuples
    }

    #[test]
    fn estimates_match_paper_formulas() {
        let mut st = PairStats::default();
        for _ in 0..100 {
            st.tick();
        }
        for _ in 0..50 {
            st.record_s();
        }
        for _ in 0..10 {
            st.record_t();
        }
        st.record_results(36);
        let e = st.estimate(3).unwrap();
        assert!((e.s - 0.5).abs() < 1e-12);
        assert!((e.t - 0.1).abs() < 1e-12);
        // σst = 36 / (3 * 60) = 0.2
        assert!((e.st - 0.2).abs() < 1e-12);
    }

    #[test]
    fn estimates_clamped_to_probability() {
        let mut st = PairStats::default();
        st.tick();
        st.tick();
        for _ in 0..5 {
            st.record_s();
        }
        st.record_results(1000);
        let e = st.estimate(1).unwrap();
        assert!(e.s <= 1.0 && e.st <= 1.0);
    }

    /// Regression: a counter straight out of `reset()` must not estimate
    /// from one tuple in one cycle — that single noisy sample could trip
    /// `sigmas_diverged` and start a replan thrash cycle.
    #[test]
    fn no_estimate_below_minimum_evidence_floor() {
        let mut st = PairStats::default();
        st.reset();
        st.tick();
        st.record_s(); // one tuple, one cycle — below both floors
        assert_eq!(st.estimate(2), None);
        st.tick(); // two cycles, still one tuple
        assert_eq!(st.estimate(2), None);
        st.record_t(); // two cycles, two tuples — floor met
        let e = st.estimate(2).expect("evidence floor met");
        // The estimate the single wild sample would have produced
        // (σs = 1.0 from one tuple in one cycle) is now averaged over
        // the evidence floor instead of taken at face value.
        assert!((e.s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes() {
        let mut st = PairStats::default();
        st.tick();
        st.record_s();
        st.reset();
        assert_eq!(st, PairStats::default());
    }
}
