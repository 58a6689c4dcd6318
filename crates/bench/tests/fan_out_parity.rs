//! Fan-out parity of every grid harness: a report must be byte-identical
//! however its `(key, seed)` runs fan out across OS threads (`threads`).
//! One test runs each harness's quick config — the grids CI drives
//! through `experiments <name> --quick` — on one thread, then on 2, 8 and
//! all cores, and compares the rendered reports. Each run must first show
//! real work, so two empty reports cannot pass as equal.

use aspen_bench::answers::AnswersConfig;
use aspen_bench::federate::FederateConfig;
use aspen_bench::multiq::MultiqConfig;
use aspen_bench::optimize::OptimizeConfig;
use aspen_bench::sweep::SweepGrid;
use aspen_bench::warmstart::WarmstartConfig;
use aspen_join::prelude::*;

struct Case {
    name: &'static str,
    /// The quick report fanned out over `threads`, rendered, after
    /// asserting that the run did real work.
    render: fn(usize) -> Vec<String>,
}

const CASES: [Case; 7] = [
    Case {
        name: "sweep",
        render: |threads| {
            let r = SweepGrid {
                threads,
                ..SweepGrid::quick()
            }
            .run();
            assert!(
                r.cells
                    .iter()
                    .all(|c| c.stat("total_traffic_bytes").mean > 0.0),
                "every sweep cell must carry traffic"
            );
            vec![r.to_json(), r.to_csv()]
        },
    },
    Case {
        name: "recovery",
        render: |threads| {
            let r = SweepGrid {
                threads,
                ..SweepGrid::recovery_quick()
            }
            .run();
            assert!(
                r.cells
                    .iter()
                    .any(|c| c.stat("repair_attempts").mean + c.stat("tuples_lost").mean > 0.0),
                "the recovery grid must exercise failure recovery"
            );
            let table = r.to_recovery_table().to_aligned_string();
            vec![r.to_json(), r.to_csv(), table]
        },
    },
    Case {
        name: "multiq",
        render: |threads| {
            let r = MultiqConfig {
                threads,
                ..MultiqConfig::quick()
            }
            .run();
            assert!(
                r.cells.iter().all(|c| c.stat("results").mean > 0.0),
                "both sharing modes must deliver results"
            );
            vec![r.to_json(), r.to_csv()]
        },
    },
    Case {
        name: "optimize",
        render: |threads| {
            let r = OptimizeConfig {
                threads,
                ..OptimizeConfig::quick()
            }
            .run();
            assert!(
                r.cells.iter().all(|c| c.stat("dp_cost").mean > 0.0),
                "every workload must have a costed plan"
            );
            vec![r.to_json(), r.to_csv()]
        },
    },
    Case {
        name: "warmstart",
        render: |threads| {
            let r = WarmstartConfig {
                threads,
                ..WarmstartConfig::quick()
            }
            .run();
            assert!(
                r.mode(false).stat("migrated_pairs").mean > 0.0
                    && r.mode(true).stat("hit_rate").mean > 0.0,
                "cold sessions must migrate and warm ones hit the cache"
            );
            vec![r.to_json(), r.to_csv()]
        },
    },
    Case {
        name: "federate",
        render: |threads| {
            let r = FederateConfig {
                threads,
                ..FederateConfig::quick()
            }
            .run();
            assert!(
                [CrossMode::Gateway, CrossMode::ShipBase].iter().all(|&m| {
                    r.mode(m).stat("cross_results").mean > 0.0
                        && r.mode(m).stat("gateway_bytes").mean > 0.0
                }),
                "both modes must join across the gateways"
            );
            vec![r.to_json(), r.to_csv()]
        },
    },
    Case {
        name: "answers",
        render: |threads| {
            let r = AnswersConfig {
                threads,
                ..AnswersConfig::quick()
            }
            .run();
            assert!(
                r.cells
                    .iter()
                    .any(|c| c.stat("results").mean > 0.0 && c.stat("base_results").mean > 0.0),
                "the answers grid must return results"
            );
            vec![r.to_json(), r.to_csv()]
        },
    },
];

#[test]
fn quick_reports_identical_across_thread_counts() {
    for case in &CASES {
        let baseline = (case.render)(1);
        // 0 = all cores.
        for threads in [2, 8, 0] {
            assert!(
                (case.render)(threads) == baseline,
                "{} report differs at threads={threads}",
                case.name
            );
        }
    }
}
