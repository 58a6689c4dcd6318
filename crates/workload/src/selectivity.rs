//! Selectivity configurations and schedules.
//!
//! The paper parameterizes every synthetic experiment by a triple
//! (σs, σt, σst): producer send rates and the per-tuple-pair join
//! probability. All values used are reciprocals of small integers
//! (1, 1/2, 1/6, 1/10 for producers; 20%, 10%, 5% for joins), which we
//! store exactly as denominators.

/// One selectivity configuration: σ = 1/den for each knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rates {
    /// σs = 1 / s_den.
    pub s_den: u16,
    /// σt = 1 / t_den.
    pub t_den: u16,
    /// σst = 1 / st_den; also the size of `u`'s domain (Table 1).
    pub st_den: u16,
}

impl Rates {
    pub const fn new(s_den: u16, t_den: u16, st_den: u16) -> Self {
        assert!(s_den >= 1 && t_den >= 1 && st_den >= 1);
        Rates {
            s_den,
            t_den,
            st_den,
        }
    }

    pub fn sigma_s(&self) -> f64 {
        1.0 / self.s_den as f64
    }

    pub fn sigma_t(&self) -> f64 {
        1.0 / self.t_den as f64
    }

    pub fn sigma_st(&self) -> f64 {
        1.0 / self.st_den as f64
    }

    /// The five σs:σt ratio stages on every figure's x-axis:
    /// 1/10:1, 1/6:1/2, 1/2:1/2, 1/2:1/6, 1:1/10.
    pub fn ratio_stages(st_den: u16) -> [Rates; 5] {
        [
            Rates::new(10, 1, st_den),
            Rates::new(6, 2, st_den),
            Rates::new(2, 2, st_den),
            Rates::new(2, 6, st_den),
            Rates::new(1, 10, st_den),
        ]
    }

    /// Display label like "1/10:1".
    pub fn ratio_label(&self) -> String {
        let part = |d: u16| {
            if d == 1 {
                "1".to_string()
            } else {
                format!("1/{d}")
            }
        };
        format!("{}:{}", part(self.s_den), part(self.t_den))
    }

    /// §6.1's Sel1: σs = 10%, σt = 100%, σst = 5%.
    pub const SEL1: Rates = Rates::new(10, 1, 20);
    /// §6.1's Sel2: σs = 100%, σt = 10%, σst = 20%.
    pub const SEL2: Rates = Rates::new(1, 10, 5);
}

/// How selectivities vary across nodes and time (§6: spatial skew and
/// temporal change).
#[derive(Debug, Clone)]
pub enum Schedule {
    /// Same rates everywhere, always (§3's base assumption).
    Uniform(Rates),
    /// Half the nodes (by deployment x-coordinate) follow `west`, the rest
    /// `east` — the skewed-data experiment of Fig 12(a).
    SpatialSplit {
        west: Rates,
        east: Rates,
        split_x_dm: u16,
    },
    /// Rates switch mid-run — the changing-selectivities experiment of
    /// Fig 12(b).
    TemporalSwitch {
        before: Rates,
        after: Rates,
        at_cycle: u32,
    },
    /// Fully general per-node assignment.
    PerNode(Vec<Rates>),
}

impl Schedule {
    /// Effective rates for a node at a cycle. `pos_x_dm` is the node's
    /// deployment x in decimeters (the spatial split key); `node` indexes
    /// `PerNode`.
    pub fn rates(&self, node: usize, pos_x_dm: u16, cycle: u32) -> Rates {
        match self {
            Schedule::Uniform(r) => *r,
            Schedule::SpatialSplit {
                west,
                east,
                split_x_dm,
            } => {
                if pos_x_dm < *split_x_dm {
                    *west
                } else {
                    *east
                }
            }
            Schedule::TemporalSwitch {
                before,
                after,
                at_cycle,
            } => {
                if cycle < *at_cycle {
                    *before
                } else {
                    *after
                }
            }
            Schedule::PerNode(v) => v[node],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_values() {
        let r = Rates::new(10, 1, 5);
        assert!((r.sigma_s() - 0.1).abs() < 1e-12);
        assert!((r.sigma_t() - 1.0).abs() < 1e-12);
        assert!((r.sigma_st() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn stage_labels_match_paper() {
        let stages = Rates::ratio_stages(5);
        let labels: Vec<String> = stages.iter().map(Rates::ratio_label).collect();
        assert_eq!(
            labels,
            ["1/10:1", "1/6:1/2", "1/2:1/2", "1/2:1/6", "1:1/10"]
        );
    }

    #[test]
    fn spatial_split_by_position() {
        let s = Schedule::SpatialSplit {
            west: Rates::SEL1,
            east: Rates::SEL2,
            split_x_dm: 1280,
        };
        assert_eq!(s.rates(0, 100, 0), Rates::SEL1);
        assert_eq!(s.rates(0, 2000, 0), Rates::SEL2);
    }

    #[test]
    fn temporal_switch_at_cycle() {
        let s = Schedule::TemporalSwitch {
            before: Rates::SEL1,
            after: Rates::SEL2,
            at_cycle: 400,
        };
        assert_eq!(s.rates(3, 0, 399), Rates::SEL1);
        assert_eq!(s.rates(3, 0, 400), Rates::SEL2);
    }

    #[test]
    fn per_node_lookup() {
        let s = Schedule::PerNode(vec![Rates::SEL1, Rates::SEL2]);
        assert_eq!(s.rates(1, 0, 0), Rates::SEL2);
    }
}
