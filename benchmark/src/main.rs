//! The repo benchmark (see `benchmark/README.md` and `BENCHMARK.json`).
//!
//! ```text
//! aspen_benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! aspen_benchmark --workload all [--seed N] [--seconds S] [--trace 0|1] [--sets K] [--smoke]
//! aspen_benchmark compare A.json B.json
//! ```
//!
//! One workload runs in this process and ends with the result object as
//! the last line of standard output. `all` runs each workload in a child
//! process of its own and writes the result file `compare` reads.

mod churn;
mod compare;
mod engine;
mod gossip;
mod harness;
mod inputs;
mod json;
mod metrics;
mod serve;
mod session;
mod stats;
mod steady;
mod trace;

use harness::Run;
use json::Value;
use metrics::{end_to_end, per_layer, RunResult, WORKLOADS};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    sets: usize,
    out_dir: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
         [--sets K] [--smoke]\n       run.sh compare A.json B.json\nworkloads: {}",
        WORKLOADS.join(" ")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut a = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        smoke: false,
        sets: 1,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let v = it.next()?;
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().ok()?,
            "--seconds" => a.seconds = v.parse().ok().filter(|s| *s > 0.0 && *s <= 600.0)?,
            "--trace" => {
                a.traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--sets" => a.sets = v.parse().ok().filter(|k| *k >= 1)?,
            "--out-dir" => a.out_dir = PathBuf::from(v),
            _ => return None,
        }
    }
    (a.workload == "all" || WORKLOADS.contains(&a.workload.as_str())).then_some(a)
}

fn run_workload(run: &Run) -> RunResult {
    match run.workload {
        "dense_steady" => steady::dense_steady(run),
        "sparse_large" => steady::sparse_large(run),
        "admit_churn" => churn::admit_churn(run),
        "serve_small" => serve::serve_small(run),
        "engine_gossip" => engine::engine_gossip(run),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Run one workload here: every metric as `workload metric value unit`,
/// then the result object as the last line.
fn run_one(args: &Args) -> ExitCode {
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == args.workload)
        .expect("validated by parse_args");
    let run = Run {
        workload,
        seed: args.seed,
        // A smoke run is 1/20 the length: checks and schema only.
        seconds: if args.smoke {
            args.seconds / 20.0
        } else {
            args.seconds
        },
        traced: args.traced,
        smoke: args.smoke,
        out_dir: args.out_dir.clone(),
        epoch: Instant::now(),
    };
    let res = run_workload(&run);
    let defs = if run.traced {
        per_layer()
    } else {
        end_to_end()
    };
    if run.smoke {
        println!("# smoke run: 1/20 length, numbers not comparable");
    }
    for d in &defs {
        println!("{workload} {} {} {}", d.name, res.get(&d.name), d.unit);
    }
    println!(
        "{workload} fail_ratio {} ratio",
        res.failed as f64 / res.attempted.max(1) as f64
    );
    for f in &res.failures {
        eprintln!("{workload} FAILED: {f}");
    }
    println!("{}", res.to_json(&defs).render());
    ExitCode::SUCCESS
}

/// The file `--workload all` writes: one entry per (workload, set, trace)
/// run, each the child's result object plus its coordinates.
pub fn results_file(
    seed: u64,
    seconds: f64,
    comparable: bool,
    runs: &[(&str, usize, u8, Value)],
) -> Value {
    Value::Obj(vec![
        ("schema".into(), Value::Num(1.0)),
        ("comparable".into(), Value::Bool(comparable)),
        ("seed".into(), Value::Num(seed as f64)),
        ("seconds".into(), Value::Num(seconds)),
        (
            "runs".into(),
            Value::Arr(
                runs.iter()
                    .map(|(workload, set, trace, result)| {
                        let mut kv = vec![
                            ("workload".to_string(), Value::Str(workload.to_string())),
                            ("set".to_string(), Value::Num(*set as f64)),
                            ("trace".to_string(), Value::Num(f64::from(*trace))),
                        ];
                        kv.extend(result.as_obj().unwrap_or(&[]).iter().cloned());
                        Value::Obj(kv)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Run `workload` in a child process; its stdout is passed through and its
/// last line parsed as the result object.
fn run_child(args: &Args, workload: &str, trace: u8) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn().map_err(|e| e.to_string())?;
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("piped")).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{workload} exited with {status}"));
    }
    json::parse(&last).map_err(|e| format!("{workload}: {e}"))
}

fn run_all(args: &Args) -> ExitCode {
    let mut runs = Vec::new();
    let mut correct = true;
    for set in 0..args.sets {
        for workload in WORKLOADS {
            for trace in 0..=u8::from(args.traced) {
                match run_child(args, workload, trace) {
                    Ok(result) => {
                        correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
                        runs.push((workload, set, trace, result));
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    let file = results_file(args.seed, args.seconds, !args.smoke, &runs);
    let path = args.out_dir.join(format!("results-seed{}.json", args.seed));
    let written =
        std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, file.render()));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("some checks failed (see FAILED lines above)");
        ExitCode::FAILURE
    }
}

fn run_compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let rows = match load(a).and_then(|a| load(b).and_then(|b| compare::compare(&a, &b))) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let table: String = rows.iter().map(|r| r.render() + "\n").collect();
    // A reader that stops early (`| head`) is not an error.
    let _ = std::io::stdout().write_all(table.as_bytes());
    if rows.iter().any(|r| r.verdict == compare::Verdict::Worse) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match &argv[1..] {
            [a, b] => run_compare(Path::new(a), Path::new(b)),
            _ => usage(),
        };
    }
    match parse_args(&argv) {
        Some(args) if args.workload == "all" => run_all(&args),
        Some(args) => run_one(&args),
        None => usage(),
    }
}
