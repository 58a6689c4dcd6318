//! Golden-output snapshot tests: the JSON and CSV reports of `experiments
//! sweep|recovery|multiq|optimize|warmstart|federate --quick` are
//! compared byte-for-byte against committed fixtures, so a
//! report-format change or a determinism regression (seeding, float
//! formatting, aggregation order, engine behavior) fails loudly instead
//! of silently shifting every downstream number.
//!
//! When a change is *intentional*, re-bless the fixtures:
//!
//! ```text
//! BLESS=1 cargo test -q -p aspen_bench --test golden_outputs
//! ```
//!
//! and commit the updated files under `crates/bench/tests/golden/`,
//! explaining in the commit message why the numbers moved (see
//! EXPERIMENTS.md § Golden outputs).

use aspen_bench::federate::FederateConfig;
use aspen_bench::multiq::MultiqConfig;
use aspen_bench::optimize::OptimizeConfig;
use aspen_bench::sweep::SweepGrid;
use aspen_bench::warmstart::WarmstartConfig;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare against the committed fixture, or rewrite it under `BLESS=1`.
/// On mismatch, point at the first differing line instead of dumping two
/// multi-kilobyte strings.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    // Bless only on a truthy value: `BLESS=0` / `BLESS=` must still
    // *compare* (silently rewriting fixtures would mask the very drift
    // this suite exists to catch).
    let bless = std::env::var("BLESS").is_ok_and(|v| !v.is_empty() && v != "0");
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, actual).expect("bless golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden fixture {} — create it with BLESS=1 cargo test -p aspen_bench --test golden_outputs",
            path.display()
        )
    });
    if actual == expected {
        return;
    }
    let mismatch = actual
        .lines()
        .zip(expected.lines())
        .enumerate()
        .find(|(_, (a, e))| a != e);
    match mismatch {
        Some((i, (a, e))) => panic!(
            "{name} drifted at line {}:\n  expected: {e}\n  actual:   {a}\n\
             (re-bless with BLESS=1 if the change is intentional)",
            i + 1
        ),
        None => panic!(
            "{name} drifted in length: expected {} lines, got {} \
             (re-bless with BLESS=1 if the change is intentional)",
            expected.lines().count(),
            actual.lines().count()
        ),
    }
}

/// `experiments sweep --quick` JSON and CSV (the 24-run CI grid).
#[test]
fn sweep_quick_json_matches_golden() {
    let report = SweepGrid::quick().run();
    check_golden("sweep_quick.json", &report.to_json());
    check_golden("sweep_quick.csv", &report.to_csv());
}

/// `experiments recovery --quick` JSON and CSV (the §7 failure-schedule grid).
#[test]
fn recovery_quick_json_matches_golden() {
    let report = SweepGrid::recovery_quick().run();
    check_golden("recovery_quick.json", &report.to_json());
    check_golden("recovery_quick.csv", &report.to_csv());
}

/// `experiments multiq --quick` JSON and CSV (the 4-query shared-vs-independent
/// comparison).
#[test]
fn multiq_quick_json_matches_golden() {
    let report = MultiqConfig::quick().run();
    check_golden("multiq_quick.json", &report.to_json());
    check_golden("multiq_quick.csv", &report.to_csv());
}

/// `experiments optimize --quick` JSON and CSV (the n-way join plan quality
/// comparison: bushy DP vs left-deep vs pairwise-greedy).
#[test]
fn optimize_quick_json_matches_golden() {
    let report = OptimizeConfig::quick().run();
    check_golden("optimize_quick.json", &report.to_json());
    check_golden("optimize_quick.csv", &report.to_csv());
}

/// `experiments warmstart --quick` JSON and CSV (the warm-vs-cold admission
/// comparison over a repeated-shape workload).
#[test]
fn warmstart_quick_json_matches_golden() {
    let report = WarmstartConfig::quick().run();
    check_golden("warmstart_quick.json", &report.to_json());
    check_golden("warmstart_quick.csv", &report.to_csv());
}

/// `experiments federate --quick` JSON and CSV (the cross-network federation
/// comparison: gateway-routed joins vs ship-everything-to-one-base).
#[test]
fn federate_quick_json_matches_golden() {
    let report = FederateConfig::quick().run();
    check_golden("federate_quick.json", &report.to_json());
    check_golden("federate_quick.csv", &report.to_csv());
}

/// The figure drivers that finish in well under a second each in a debug
/// build: each one's `--quick` stdout must appear, whole and in one piece,
/// in `figures_quick.txt` (the stdout of `experiments all --quick`, which
/// CI regenerates and diffs). The slow drivers are covered by that step.
#[test]
fn quick_figures_match_the_figure_golden() {
    let golden = std::fs::read_to_string(golden_path("figures_quick.txt")).expect("figure golden");
    for id in [
        "table1", "table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig13", "fig14", "fig16",
        "fig17", "fig18", "appg",
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args([id, "--quick"])
            .output()
            .expect("run experiments");
        assert!(out.status.success(), "experiments {id} --quick failed");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert!(
            !stdout.is_empty() && golden.contains(&stdout),
            "experiments {id} --quick drifted from figures_quick.txt:\n{stdout}"
        );
    }
}
