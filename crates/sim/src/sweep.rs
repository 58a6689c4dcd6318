//! Scenario-sweep machinery: deterministic parallel fan-out plus the
//! aggregation and output plumbing every sweep driver shares.
//!
//! The domain-specific grid (which topologies, which algorithms, …) lives in
//! the bench crate; this module owns the parts that must behave identically
//! regardless of what is being swept:
//!
//! - [`parallel_map`] fans independent jobs across OS threads and returns
//!   results in *job order*, so a sweep's output is byte-identical whether it
//!   ran on 1 thread or N;
//! - [`SummaryStat`] aggregates per-cell replicates into mean / stddev /
//!   95% confidence half-interval;
//! - [`Table`] renders aligned text and CSV; [`Json`] renders the
//!   machine-readable report without external dependencies.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Mean, spread and 95% confidence half-interval of a sample of replicates
/// (one simulation run per seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryStat {
    /// Number of samples aggregated.
    pub n: usize,
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator); 0 for n < 2.
    pub stddev: f64,
    /// 95% confidence half-interval `t_{0.975,n-1} * stddev / sqrt(n)`.
    pub ci95: f64,
    pub min: f64,
    pub max: f64,
}

impl SummaryStat {
    pub fn from_samples(xs: &[f64]) -> Self {
        let n = xs.len();
        if n == 0 {
            return SummaryStat {
                n: 0,
                mean: 0.0,
                stddev: 0.0,
                ci95: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in xs {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if n < 2 {
            return SummaryStat {
                n,
                mean,
                stddev: 0.0,
                ci95: 0.0,
                min: lo,
                max: hi,
            };
        }
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        let sd = var.sqrt();
        SummaryStat {
            n,
            mean,
            stddev: sd,
            ci95: t975(n - 1) * sd / (n as f64).sqrt(),
            min: lo,
            max: hi,
        }
    }
}

/// Two-sided 97.5% Student-t quantile for small degrees of freedom (the seed
/// counts sweeps actually use), converging to the normal 1.96 beyond.
pub fn t975(dof: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match dof {
        0 => f64::INFINITY,
        d if d <= TABLE.len() => TABLE[d - 1],
        d if d <= 60 => 2.000,
        _ => 1.960,
    }
}

/// Fan `jobs` out across `threads` OS threads (`0` = all available cores)
/// and return results in job order. Work-stealing via an atomic cursor; the
/// result slot of job `i` is fixed, so thread count and scheduling cannot
/// reorder (or otherwise perturb) the output — the determinism contract the
/// sweep subsystem's replay tests assert.
pub fn parallel_map<T: Send + Sync, R: Send>(
    jobs: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        threads
    }
    .min(jobs.len().max(1));
    let results: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let r = f(&jobs[i]);
                *results[i].lock().unwrap() = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("job completed"))
        .collect()
}

/// A rectangular result table renderable as aligned text or CSV.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn push_row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// Column-aligned text rendering (right-aligned cells, two-space gutter).
    pub fn to_aligned_string(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let render = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = render(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        for row in &self.rows {
            out.push('\n');
            out.push_str(&render(row));
        }
        out
    }

    /// RFC-4180-ish CSV (quotes fields containing commas/quotes/newlines).
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            out.push_str(&cells.iter().map(&esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        };
        line(&self.headers, &mut out);
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

/// A JSON value with deterministic rendering (insertion-ordered objects,
/// shortest-roundtrip floats) — enough for sweep reports without a serde
/// dependency.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn num(x: impl Into<f64>) -> Json {
        Json::Num(x.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| out.push_str(&"  ".repeat(n));
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    if x.fract() == 0.0 && x.abs() < 9e15 {
                        out.push_str(&format!("{}", *x as i64));
                    } else {
                        out.push_str(&format!("{x}"));
                    }
                } else {
                    // JSON has no Inf/NaN; null is the conventional stand-in.
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for ch in s.chars() {
                    match ch {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push('\n');
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push('\n');
                    pad(out, indent + 1);
                    Json::Str(k.clone()).write(out, indent + 1);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

/// JSON rendering of a [`SummaryStat`] (shared by every report emitter).
pub fn stat_json(s: &SummaryStat) -> Json {
    Json::Obj(vec![
        ("n".into(), Json::num(s.n as f64)),
        ("mean".into(), Json::num(s.mean)),
        ("stddev".into(), Json::num(s.stddev)),
        ("ci95".into(), Json::num(s.ci95)),
        ("min".into(), Json::num(s.min)),
        ("max".into(), Json::num(s.max)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_stat_basics() {
        let s = SummaryStat::from_samples(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.stddev - 1.0).abs() < 1e-12);
        // t975(2) = 4.303; ci = 4.303 * 1/sqrt(3).
        assert!((s.ci95 - 4.303 / 3f64.sqrt()).abs() < 1e-9);
        assert_eq!((s.min, s.max), (1.0, 3.0));
        assert_eq!(SummaryStat::from_samples(&[]).n, 0);
        assert_eq!(SummaryStat::from_samples(&[7.0]).ci95, 0.0);
    }

    #[test]
    fn t_quantile_monotone() {
        assert!(t975(1) > t975(2));
        assert!(t975(8) > t975(40));
        assert_eq!(t975(1000), 1.960);
    }

    #[test]
    fn parallel_map_is_order_and_thread_count_invariant() {
        let jobs: Vec<u64> = (0..53).collect();
        let one = parallel_map(&jobs, 1, |&x| x * x + 1);
        let many = parallel_map(&jobs, 8, |&x| x * x + 1);
        assert_eq!(one, many);
        assert_eq!(one, jobs.iter().map(|&x| x * x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn table_alignment_and_csv() {
        let mut t = Table::new(vec!["a", "metric,x"]);
        t.push_row(vec!["1", "2.5"]);
        t.push_row(vec!["long", "3"]);
        let text = t.to_aligned_string();
        assert!(text.lines().count() == 4);
        let csv = t.to_csv();
        assert!(csv.starts_with("a,\"metric,x\"\n"));
        assert!(csv.ends_with("long,3\n"));
    }

    #[test]
    fn json_rendering() {
        let j = Json::Obj(vec![
            ("k".into(), Json::str("a\"b")),
            ("v".into(), Json::Num(2.0)),
            ("frac".into(), Json::Num(0.25)),
            ("arr".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        let s = j.render();
        assert!(s.contains("\"k\": \"a\\\"b\""));
        assert!(s.contains("\"v\": 2,"));
        assert!(s.contains("\"frac\": 0.25"));
        assert!(s.contains("null,"));
    }
}
