//! `compare A.json B.json`: two result files of `--workload all`, A the
//! parent and B the change, held against the bounds `BENCHMARK.json` fixes.
//! One row per workload and end-to-end metric, every ratio with its base.

use crate::json::Value;
use crate::metrics::{end_to_end, per_layer, Def, WORKLOADS};
use crate::stats::median;

/// Per-layer metrics computed over a fixed, seed-determined prefix of
/// simulated cycles: two runs of the same code and seed must agree to the
/// last digit, whatever the host does.
pub const EXACT: [&str; 2] = ["sim.results", "sim.bytes_per_result"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Run-to-run spread exceeds the bound: one side's runs cannot tell.
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    /// Medians over each file's runs.
    pub a: f64,
    pub b: f64,
    pub runs: (usize, usize),
    /// `None` for the exact metrics.
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

impl Row {
    pub fn render(&self) -> String {
        let verdict = match self.verdict {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        };
        let bound = self
            .bound
            .map_or("exact".to_string(), |b| format!("{:.0}%", b * 100.0));
        format!(
            "{} {} A={} B={} {} B/A={:.4} (base A={}, runs {}/{}) bound={bound} {verdict}",
            self.workload,
            self.metric,
            self.a,
            self.b,
            self.unit,
            if self.a != 0.0 { self.b / self.a } else { 0.0 },
            self.a,
            self.runs.0,
            self.runs.1,
        )
    }
}

/// Values of `metric` over the file's runs of `workload` with `trace`.
fn values(file: &Value, workload: &str, trace: f64, metric: &str) -> Vec<f64> {
    file.get("runs")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Value::as_str) == Some(workload)
                && r.get("trace").and_then(Value::as_f64) == Some(trace)
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn spread(xs: &[f64]) -> f64 {
    let (lo, hi) = xs
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let m = median(xs);
    if xs.len() < 2 || m == 0.0 {
        0.0
    } else {
        (hi - lo) / m
    }
}

fn judge(def: &Def, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let higher = def.better == "higher";
    let (ma, mb) = (median(a), median(b));
    let worse_by = if higher { ma - mb } else { mb - ma } / ma.abs().max(f64::MIN_POSITIVE);
    if spread(a).max(spread(b)) > bound {
        let all_better = b
            .iter()
            .all(|&y| a.iter().all(|&x| if higher { y > x } else { y < x }));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    for (name, file) in [("A", a), ("B", b)] {
        if file.get("comparable").and_then(Value::as_bool) != Some(true) {
            return Err(format!(
                "{name} is not comparable (a --smoke run, or not a result file)"
            ));
        }
    }
    if a.get("seconds") != b.get("seconds") {
        return Err("A and B measured windows of different length".into());
    }
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        for def in end_to_end() {
            let (va, vb) = (
                values(a, workload, 0.0, &def.name),
                values(b, workload, 0.0, &def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            rows.push(Row {
                workload: workload.into(),
                metric: def.name.clone(),
                unit: def.unit.into(),
                a: median(&va),
                b: median(&vb),
                runs: (va.len(), vb.len()),
                bound: def.bound,
                verdict: judge(&def, &va, &vb),
            });
        }
        if a.get("seed") != b.get("seed") {
            continue;
        }
        for metric in EXACT {
            let (va, vb) = (
                values(a, workload, 1.0, metric),
                values(b, workload, 1.0, metric),
            );
            let (Some(&x), Some(&y)) = (va.first(), vb.first()) else {
                continue;
            };
            let all_equal = va.iter().chain(&vb).all(|&v| v == x);
            rows.push(Row {
                workload: workload.into(),
                metric: metric.into(),
                unit: per_layer()
                    .iter()
                    .find(|d| d.name == metric)
                    .map_or("", |d| d.unit)
                    .into(),
                a: x,
                b: y,
                runs: (va.len(), vb.len()),
                bound: None,
                verdict: if all_equal {
                    Verdict::Ok
                } else {
                    Verdict::Worse
                },
            });
        }
    }
    if rows.is_empty() {
        return Err("A and B share no workload".into());
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::metrics::RunResult;
    use crate::results_file;

    /// A result file as `--workload all` writes it, with the given
    /// `dense_steady` throughputs (one run each) and warm-up result count.
    fn file(ops_per_s: &[f64], sim_results: f64, comparable: bool) -> Value {
        let mut runs = Vec::new();
        for (set, &ops) in ops_per_s.iter().enumerate() {
            let mut e2e = RunResult::default();
            e2e.ops(100, 0);
            e2e.set("ops_per_s", ops);
            e2e.set("op_p50_ms", 1000.0 / ops);
            e2e.set("peak_rss_mb", 40.0);
            e2e.set("setup_s", 1.5);
            runs.push(("dense_steady", set, 0, e2e.to_json(&end_to_end())));
            let mut layers = RunResult::default();
            layers.ops(100, 0);
            layers.set("sim.results", sim_results);
            layers.set("sim.bytes_per_result", 97.25);
            runs.push(("dense_steady", set, 1, layers.to_json(&per_layer())));
        }
        // Through text, as `compare` reads it from disk.
        json::parse(&results_file(7, 10.0, comparable, &runs).render()).unwrap()
    }

    fn row<'a>(rows: &'a [Row], metric: &str) -> &'a Row {
        rows.iter().find(|r| r.metric == metric).unwrap()
    }

    #[test]
    fn result_file_round_trips_through_compare() {
        let a = file(&[15.0, 15.2, 15.1], 4321.0, true);
        let rows = compare(&a, &a).unwrap();
        assert_eq!(rows.len(), end_to_end().len() + EXACT.len());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok), "{rows:?}");
        let r = row(&rows, "ops_per_s");
        assert_eq!((r.a, r.b, r.runs), (15.1, 15.1, (3, 3)));
        assert!(r
            .render()
            .contains("dense_steady ops_per_s A=15.1 B=15.1 1/s B/A=1.0000"));
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let a = file(&[15.0, 15.2, 15.1], 4321.0, true);
        // 30 % fewer ops/s, tight runs: worse on throughput and latency.
        let slow = compare(&a, &file(&[10.5, 10.6, 10.55], 4321.0, true)).unwrap();
        assert_eq!(row(&slow, "ops_per_s").verdict, Verdict::Worse);
        assert_eq!(row(&slow, "op_p50_ms").verdict, Verdict::Worse);
        assert_eq!(row(&slow, "peak_rss_mb").verdict, Verdict::Ok);
        // 5 % fewer: inside the bound.
        let near = compare(&a, &file(&[14.4, 14.3, 14.35], 4321.0, true)).unwrap();
        assert_eq!(row(&near, "ops_per_s").verdict, Verdict::Ok);
        // B's runs scatter by more than the bound: cannot tell...
        let noisy = compare(&a, &file(&[11.0, 17.0, 14.0], 4321.0, true)).unwrap();
        assert_eq!(row(&noisy, "ops_per_s").verdict, Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        let fast = compare(&a, &file(&[20.0, 30.0, 25.0], 4321.0, true)).unwrap();
        assert_eq!(row(&fast, "ops_per_s").verdict, Verdict::Ok);
        // A simulated count that moved at all is flagged.
        let moved = compare(&a, &file(&[15.0, 15.2, 15.1], 4322.0, true)).unwrap();
        assert_eq!(row(&moved, "sim.results").verdict, Verdict::Worse);
        assert_eq!(row(&moved, "sim.bytes_per_result").verdict, Verdict::Ok);
    }

    #[test]
    fn smoke_files_are_refused() {
        let a = file(&[15.0], 1.0, true);
        assert!(compare(&a, &file(&[15.0], 1.0, false)).is_err());
    }
}
