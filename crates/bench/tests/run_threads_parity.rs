//! Thread-count parity of every grid harness: a report must be
//! byte-identical however its `(key, seed)` runs fan out across OS threads
//! (`threads`) and for any transmit-phase worker count inside each run
//! (`run_threads`, [`sensor_sim::SimConfig::threads`]). One test runs
//! each harness's quick config — the grids CI drives through
//! `experiments <name> --quick` — at one thread of each kind, then at
//! every `(threads, run_threads)` pair of its row, and compares the
//! rendered reports. Each run must first show real work, so two empty
//! reports cannot pass as equal.

use aspen_bench::federate::FederateConfig;
use aspen_bench::multiq::MultiqConfig;
use aspen_bench::optimize::OptimizeConfig;
use aspen_bench::sweep::SweepGrid;
use aspen_bench::warmstart::WarmstartConfig;
use aspen_join::prelude::*;

struct Case {
    name: &'static str,
    /// The quick report at `(threads, run_threads)`, rendered, after
    /// asserting that the run did real work.
    render: fn(usize, usize) -> Vec<String>,
    /// Compared with the `(1, 1)` baseline; 0 = all cores.
    pairs: &'static [(usize, usize)],
}

const CASES: [Case; 6] = [
    Case {
        name: "sweep",
        render: |threads, run_threads| {
            let r = SweepGrid {
                threads,
                run_threads,
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
        pairs: &[(0, 2), (0, 8)],
    },
    Case {
        name: "recovery",
        render: |threads, run_threads| {
            let r = SweepGrid {
                threads,
                run_threads,
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
        pairs: &[(0, 2), (0, 8)],
    },
    Case {
        name: "multiq",
        render: |threads, run_threads| {
            let r = MultiqConfig {
                threads,
                run_threads,
                ..MultiqConfig::quick()
            }
            .run();
            assert!(
                r.cells.iter().all(|c| c.stat("results").mean > 0.0),
                "both sharing modes must deliver results"
            );
            vec![r.to_json(), r.to_csv()]
        },
        pairs: &[(4, 1), (1, 4), (2, 3), (0, 2), (0, 8)],
    },
    Case {
        name: "optimize",
        // Pure plan costing: no intra-run workers.
        render: |threads, _| {
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
        pairs: &[(2, 1), (8, 1)],
    },
    Case {
        name: "warmstart",
        render: |threads, run_threads| {
            let r = WarmstartConfig {
                threads,
                run_threads,
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
        pairs: &[(4, 1), (1, 8), (2, 2)],
    },
    Case {
        name: "federate",
        render: |threads, run_threads| {
            let r = FederateConfig {
                threads,
                run_threads,
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
        pairs: &[(4, 1), (1, 8), (2, 2)],
    },
];

#[test]
fn quick_reports_identical_across_thread_counts() {
    for case in &CASES {
        let baseline = (case.render)(1, 1);
        for &(threads, run_threads) in case.pairs {
            assert!(
                (case.render)(threads, run_threads) == baseline,
                "{} report differs at threads={threads} run_threads={run_threads}",
                case.name
            );
        }
    }
}
