//! Regenerates every table and figure of the paper's evaluation, and runs
//! the seed-replicated grid harnesses.
//!
//! Usage: `experiments <id>... [--quick|--full|--seeds N|--cycles N]`
//! where `<id>` is one of: table1 table2 table3 fig2 fig3 fig4 fig5 fig6
//! fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig16 fig17 fig18 fig19
//! fig20 appg all.
//!
//! `experiments <sub> [options]` runs one of the grid subcommands —
//! `sweep`, `recovery`, `multiq`, `optimize`, `warmstart`, `federate`,
//! `answers` —
//! each a [`Harness`] row over one runner: the shared flags, the aligned
//! table on stdout, the `--check-determinism` re-runs and the
//! `PREFIX.json`/`PREFIX.csv` files are the runner's; a row supplies its
//! defaults, its own flags and its emitters. See `<sub> --help`.
//!
//! The figure drivers share three shapes: `sigma_matrix`, a true-ratio ×
//! assumed-ratio matrix (fig4, fig8, fig10, fig11); `stage_grid`, one sweep
//! grid over ratio stage × σ_st (fig2/3, fig19/20); and `sample_pair` with
//! `PathTally`, sampled node pairs tallied into path length and node load
//! (fig16-18). Their sessions come from `standard_session` and run over
//! the replicate seeds through `run_seeds`.
//!
//! Numbers will not equal the paper's absolute values (different simulator,
//! synthetic Intel data) — the *shape* is the reproduction target: who
//! wins, by what rough factor, and where crossovers fall. The figure
//! drivers print that shape; nothing yet checks it against the paper.

use aspen_bench::answers::{AnswersConfig, AnswersReport};
use aspen_bench::federate::{FederateConfig, FederateReport};
use aspen_bench::multiq::{MultiqConfig, MultiqReport};
use aspen_bench::optimize::{OptimizeConfig, OptimizeReport};
use aspen_bench::sweep::{
    algo_name, parse_algo, parse_density, seed_range, CellResult, DynamicsSpec, MultiSpec, QueryId,
    SweepGrid, SweepReport, WorkloadSel, SEED_BASE,
};
use aspen_bench::warmstart::{WarmstartConfig, WarmstartReport};
use aspen_bench::*;
use aspen_join::cost::analytic;
use aspen_join::prelude::*;
use aspen_join::scenario::default_indexed_attrs;
use aspen_join::{centralized, place_join_node, Algorithm, Placement};
use sensor_net::{DensityClass, NodeId, Topology, TopologySpec};
use sensor_routing::dht::DhtOverlay;
use sensor_routing::ght::GpsrRouter;
use sensor_routing::search::{best_path_per_target, find_paths, SearchQuery};
use sensor_routing::substrate::MultiTreeSubstrate;
use sensor_sim::sweep::parallel_map;
use sensor_summaries::Constraint;
use sensor_workload::WorkloadData;
use std::fmt::Display;
use std::str::FromStr;
use std::time::Instant;

struct Opts {
    seeds: u64,
    quick: bool,
    cycles_override: Option<u32>,
}

impl Opts {
    fn cycles(&self, default: u32) -> u32 {
        self.cycles_override
            .unwrap_or(if self.quick { default.min(60) } else { default })
    }
}

type ExpFn = fn(&Opts);

/// Every named experiment, in presentation order. `main`'s dispatch *and*
/// the usage string derive from this one table, so a new experiment
/// registers exactly once and can no longer be omitted from the usage
/// list (the drift this replaces: sweep/recovery were missing from it).
const EXPERIMENTS: &[(&str, ExpFn)] = &[
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("fig2", |o| fig2_or_3(o, false)),
    ("fig3", |o| fig2_or_3(o, true)),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig16", fig16),
    ("fig17", fig17),
    ("fig18", fig18),
    ("fig19", |o| fig19_or_20(o, false)),
    ("fig20", |o| fig19_or_20(o, true)),
    ("appg", appg),
];

/// The grid subcommands, dispatched before figure parsing and listed in
/// the generated usage.
const SUBCOMMANDS: [&dyn Subcommand; 7] = [
    &SWEEP, &RECOVERY, &MULTIQ, &OPTIMIZE, &WARMSTART, &FEDERATE, &ANSWERS,
];

fn usage_string() -> String {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|&(n, _)| n).collect();
    let mut out = format!(
        "usage: experiments <{}|all>... [--quick|--full|--seeds N|--cycles N]\n",
        ids.join("|")
    );
    for sub in SUBCOMMANDS {
        let name = sub.name();
        out.push_str(&format!(
            "       experiments {name} [options]   # {} (see `{name} --help`)\n",
            sub.blurb()
        ));
    }
    out.pop();
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match SUBCOMMANDS
        .iter()
        .find(|s| args.first().is_some_and(|a| a == s.name()))
    {
        Some(sub) => sub.main(&args[1..]),
        None => figures(&args),
    }
}

/// Figure mode: every argument is an experiment id or one of the flags
/// `--quick`, `--full`, `--seeds N`, `--cycles N`, checked before anything
/// runs.
fn figures(args: &[String]) {
    let cli = Cli {
        cmd: "experiments",
        usage: usage_string(),
    };
    let quick = args.iter().any(|a| a == "--quick");
    let mut opts = Opts {
        seeds: if quick { 2 } else { QUICK_SEEDS },
        quick,
        cycles_override: None,
    };
    let mut which: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {}
            "--full" => opts.seeds = FULL_SEEDS,
            "--seeds" => opts.seeds = cli.seeds(it.next()),
            "--cycles" => {
                let v = it.next().map(String::as_str);
                let n = at_least(a, v, 1, "the figures divide by the cycle count");
                opts.cycles_override = Some(n.unwrap_or_else(|e| cli.fail(&e)));
            }
            id if id == "all" || EXPERIMENTS.iter().any(|&(n, _)| n == id) => which.push(id),
            flag if flag.starts_with('-') => cli.fail(&format!("unknown option {flag}")),
            other => cli.fail(&format!("unknown experiment {other}")),
        }
    }
    if which.is_empty() {
        cli.fail("name an experiment");
    }
    if which.contains(&"all") {
        which = EXPERIMENTS.iter().map(|&(n, _)| n).collect();
    }
    for exp in which {
        let &(_, f) = EXPERIMENTS
            .iter()
            .find(|&&(n, _)| n == exp)
            .expect("ids were checked while parsing");
        let t0 = Instant::now();
        f(&opts);
        eprintln!("[{exp} done in {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
}

// ----------------------------------------------------------------------
// Argument parsing shared by figure mode and the grid subcommands.

/// One command's argument errors: `CMD: message`, then the usage, on
/// stderr, and exit status 2 — before anything runs.
struct Cli {
    cmd: &'static str,
    usage: String,
}

impl Cli {
    fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}\n{}", self.cmd, self.usage);
        std::process::exit(2);
    }

    /// `v`, the value after `flag`.
    fn value<T: FromStr>(&self, flag: &str, v: Option<&String>) -> T {
        num(flag, v.map(String::as_str)).unwrap_or_else(|e| self.fail(&e))
    }

    /// The `--seeds N` count: at least 1.
    fn seeds(&self, v: Option<&String>) -> u64 {
        match self.value("--seeds", v) {
            0 => self.fail("--seeds must be at least 1"),
            n => n,
        }
    }
}

/// `v`, the value of `flag`, read by `f`.
fn read<T>(flag: &str, v: Option<&str>, f: impl Fn(&str) -> Option<T>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    f(v).ok_or_else(|| format!("bad {flag} {v}"))
}

fn num<T: FromStr>(flag: &str, v: Option<&str>) -> Result<T, String> {
    read(flag, v, |s| s.parse().ok())
}

/// A count of at least `min`; `why` says what a smaller one would break.
fn at_least<T>(flag: &str, v: Option<&str>, min: T, why: &str) -> Result<T, String>
where
    T: FromStr + PartialOrd + Display,
{
    match num(flag, v)? {
        n if n < min => Err(format!("{flag} must be at least {min} ({why})")),
        n => Ok(n),
    }
}

fn loss(p: f64) -> Result<f64, String> {
    if (0.0..1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("loss {p} outside [0,1)"))
    }
}

/// The comma-separated list value of `flag`, each item read by `f`. An
/// empty list is an error: an empty dimension would silently yield a
/// 0-cell sweep.
fn list<T>(flag: &str, v: Option<&str>, f: impl Fn(&str) -> Option<T>) -> Result<Vec<T>, String> {
    let items: Vec<&str> = v
        .unwrap_or("")
        .split(',')
        .filter(|p| !p.is_empty())
        .collect();
    if items.is_empty() {
        return Err(format!("{flag} needs a comma-separated value list"));
    }
    items.into_iter().map(|s| read(flag, Some(s), &f)).collect()
}

// ----------------------------------------------------------------------
// The grid subcommands: one runner, one row per harness.

/// One grid subcommand as a row of the runner: its defaults, its own flags
/// and its emitters. The shared flags (`--quick`, `--seeds`, `--threads`,
/// `--out`, `--check-determinism`, `--help`), the determinism re-runs and
/// the output files are the runner's.
struct Harness<C, R> {
    name: &'static str,
    blurb: &'static str,
    /// Help for `--quick`, then for the row's own flags (empty if none).
    quick_help: &'static str,
    flags_help: &'static str,
    /// The base config without and with `--quick`.
    default: fn() -> C,
    quick: fn() -> C,
    /// Applies one of the row's own flags to the config; `Ok(false)` if
    /// `flag` is not one of them.
    flag: fn(&mut C, &str, Option<&str>) -> Result<bool, String>,
    seeds: fn(&mut C) -> &mut Vec<u64>,
    threads: fn(&mut C) -> &mut usize,
    run: fn(&C) -> R,
    /// What a run prints: the table and any summary line.
    print: fn(&R) -> String,
    json: fn(&R) -> String,
    csv: fn(&R) -> String,
    /// `--out`'s default under `--quick`, where not `target/NAME/NAME`.
    quick_out: Option<&'static str>,
    /// A file in the working directory that also records the JSON.
    record: Option<&'static str>,
}

/// A [`Harness`] row with its config and report types erased, so the
/// rows share one table.
trait Subcommand {
    fn name(&self) -> &'static str;
    fn blurb(&self) -> &'static str;
    fn main(&self, args: &[String]);
}

impl<C: Clone, R> Harness<C, R> {
    fn usage(&self) -> String {
        let name = self.name;
        let mut base = (self.default)();
        let seeds = (self.seeds)(&mut base).len();
        let threads = *(self.threads)(&mut base);
        let record = self
            .record
            .map(|r| format!(" and ./{r}"))
            .unwrap_or_default();
        let flags: String = self.flags_help.lines().map(|l| format!("\n{l}")).collect();
        format!(
            "usage: experiments {name} [options]
  --quick              {}{flags}
  --seeds N            replicate seeds           (default {seeds})
  --threads N          OS threads fanning runs out, 0 = all cores (default {threads})
  --out PREFIX         write PREFIX.json, PREFIX.csv{record}
                       (default target/{name}/{name})
  --check-determinism  re-run at --threads 1|2|8,
                       verifying byte-identical output",
            self.quick_help
        )
    }
}

impl<C: Clone, R> Subcommand for Harness<C, R> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn blurb(&self) -> &'static str {
        self.blurb
    }

    fn main(&self, args: &[String]) {
        let cli = Cli {
            cmd: self.name,
            usage: self.usage(),
        };
        // --quick selects the base config, so apply it first regardless of
        // where it appears: every other flag then overrides it, in any order.
        let quick = args.iter().any(|a| a == "--quick");
        let mut cfg = if quick {
            (self.quick)()
        } else {
            (self.default)()
        };
        let mut out = match self.quick_out {
            Some(prefix) if quick => prefix.to_string(),
            _ => format!("target/{0}/{0}", self.name),
        };
        let mut check_determinism = false;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--help" | "-h" => {
                    println!("{}", cli.usage);
                    return;
                }
                "--quick" => {}
                "--seeds" => *(self.seeds)(&mut cfg) = seed_range(cli.seeds(it.next())),
                "--threads" => *(self.threads)(&mut cfg) = cli.value(a, it.next()),
                "--out" => out = cli.value(a, it.next()),
                "--check-determinism" => check_determinism = true,
                flag => match (self.flag)(&mut cfg, flag, it.next().map(String::as_str)) {
                    Ok(true) => {}
                    Ok(false) => cli.fail(&format!("unknown option {flag}")),
                    Err(e) => cli.fail(&e),
                },
            }
        }
        let t0 = Instant::now();
        let report = (self.run)(&cfg);
        let elapsed = t0.elapsed().as_secs_f64();
        println!("{}", (self.print)(&report));
        let (json, csv) = ((self.json)(&report), (self.csv)(&report));
        if check_determinism {
            for n in [1, 2, 8] {
                let mut rerun = cfg.clone();
                *(self.threads)(&mut rerun) = n;
                let r = (self.run)(&rerun);
                assert!(
                    (self.json)(&r) == json && (self.csv)(&r) == csv,
                    "{} output must not depend on thread counts",
                    self.name
                );
            }
            eprintln!("{}: determinism check ✓ (thread counts 1|2|8)", self.name);
        }
        if let Some(dir) = std::path::Path::new(&out).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create output directory");
            }
        }
        std::fs::write(format!("{out}.json"), &json).expect("write JSON");
        std::fs::write(format!("{out}.csv"), &csv).expect("write CSV");
        let mut wrote = format!("{out}.json, {out}.csv");
        if let Some(record) = self.record {
            std::fs::write(record, &json).expect("write the JSON record");
            wrote += &format!(", {record}");
        }
        eprintln!("{}: ran in {elapsed:.1}s -> {wrote}", self.name);
    }
}

const GRID_FLAGS: &str = "  \
  --sizes N,N,..       topology sizes            (default 100)
  --densities a,b,..   sparse|moderate|medium|dense|grid (default moderate)
  --loss p,p,..        link-loss probabilities   (default 0.05)
  --queries q,q,..     q0|q1|q2|q3, or concurrent sets qKxN / mixN with
                       optional @S arrival stagger and +shared aggregation
                       (e.g. q1x4, mix4@5+shared)  (default q1)
  --st-dens N,N,..     sigma_st denominators, crossed with the 5 ratio stages
  --algos a,a,..       naive|base|ght|yang+07|innet|innet-cm|innet-cmp|innet-cmg|innet-cmpg|innet-learn|innet-cmg-learn
  --dynamics d,d,..    network-dynamics scenarios fired at cycle boundaries:
                       none | randN@C (N random kills at cycle C) | join@C (busiest
                       join node) | regionR@C (all nodes within R radio ranges of a
                       random center) | rateshift@C (swap sigma_s/sigma_t) | lossP@C
                       (step link loss to P) | move@C (re-home a random mobile
                       leaf, App. G)              (default none)
  --cycles N           execution sampling cycles (default 60)
  --trees N            routing trees             (default 3)";

/// The grid flags of `sweep` and `recovery`.
fn grid_flag(g: &mut SweepGrid, flag: &str, v: Option<&str>) -> Result<bool, String> {
    match flag {
        "--sizes" => g.sizes = list(flag, v, |s| s.parse().ok())?,
        "--densities" => g.densities = list(flag, v, parse_density)?,
        "--loss" => {
            let ps = list(flag, v, |s| s.parse().ok())?;
            g.loss_probs = ps.into_iter().map(loss).collect::<Result<_, _>>()?;
        }
        "--queries" => g.queries = list(flag, v, WorkloadSel::parse)?,
        "--st-dens" => {
            let st_dens: Vec<u16> = list(flag, v, |s| s.parse().ok())?;
            g.rates = st_dens.into_iter().flat_map(Rates::ratio_stages).collect();
        }
        "--algos" => g.algorithms = list(flag, v, parse_algo)?,
        "--dynamics" => g.dynamics = list(flag, v, DynamicsSpec::parse)?,
        "--cycles" => g.cycles = num(flag, v)?,
        "--trees" => g.num_trees = num(flag, v)?,
        _ => return Ok(false),
    }
    Ok(true)
}

const SWEEP: Harness<SweepGrid, SweepReport> = Harness {
    name: "sweep",
    blurb: "declarative multi-seed scenario grid",
    quick_help: "the 24-run CI grid (2 sizes x 3 loss x 2 algos x 2 seeds)",
    flags_help: GRID_FLAGS,
    default: SweepGrid::default,
    quick: SweepGrid::quick,
    flag: grid_flag,
    seeds: |g| &mut g.seeds,
    threads: |g| &mut g.threads,
    run: SweepGrid::run,
    print: |r| r.to_table().to_aligned_string(),
    json: SweepReport::to_json,
    csv: SweepReport::to_csv,
    quick_out: Some("target/sweep/quick"),
    record: None,
};

/// The same grid with the §7 failure schedules as defaults and the
/// recovery-metric table (repair success rate, tuples lost, recovery
/// overhead, re-convergence) as output.
const RECOVERY: Harness<SweepGrid, SweepReport> = Harness {
    name: "recovery",
    blurb: "§7 failure schedules + recovery metrics",
    quick_help: "2 seeds instead of 3: the 16-run CI grid\n                       \
                 (static + 3 failure schedules x 2 algos x 2 seeds)",
    default: || SweepGrid {
        seeds: seed_range(3),
        ..SweepGrid::recovery_quick()
    },
    quick: SweepGrid::recovery_quick,
    print: |r| r.to_recovery_table().to_aligned_string(),
    quick_out: None,
    ..SWEEP
};

const MULTIQ: Harness<MultiqConfig, MultiqReport> = Harness {
    name: "multiq",
    blurb: "concurrent multi-query workloads, shared vs independent",
    quick_help: "CI smoke config (60 nodes, 4 mixed queries, 2 seeds, 20 cycles)",
    flags_help: "  \
  --nodes N            topology size                  (default 100)
  --queries SPEC       workload: qKxN | mixN, optional @S arrival stagger
                       (default mix4; any +shared/+indep suffix is ignored —
                       both sharing modes always run and are compared)
  --algo A             naive|base|innet|innet-cm|innet-cmg|... (default innet-cmg)
  --loss P             link-loss probability          (default 0.05)
  --cycles N           execution sampling cycles      (default 40)
  --trees N            routing trees                  (default 3)",
    default: MultiqConfig::default,
    quick: MultiqConfig::quick,
    flag: |c, flag, v| {
        match flag {
            "--nodes" => c.nodes = num(flag, v)?,
            "--queries" => {
                let m = read(flag, v, MultiSpec::parse)?;
                (c.n_queries, c.base_query, c.stagger) = (m.n, m.base, m.stagger);
            }
            "--algo" => c.algo = read(flag, v, parse_algo)?,
            "--loss" => c.loss = loss(num(flag, v)?)?,
            "--cycles" => c.cycles = num(flag, v)?,
            "--trees" => c.num_trees = num(flag, v)?,
            _ => return Ok(false),
        }
        Ok(true)
    },
    seeds: |c| &mut c.seeds,
    threads: |c| &mut c.threads,
    run: MultiqConfig::run,
    print: |r| format!("{}\n{}", r.to_table().to_aligned_string(), r.savings_line()),
    json: MultiqReport::to_json,
    csv: MultiqReport::to_csv,
    quick_out: None,
    record: None,
};

/// n-way join plan quality — the bushy DP vs the left-deep restriction vs
/// the pairwise-greedy heuristic, on the §3 cost model over
/// seed-replicated topologies. Pure plan costing, no simulation.
const OPTIMIZE: Harness<OptimizeConfig, OptimizeReport> = Harness {
    name: "optimize",
    blurb: "n-way join plans: bushy DP vs left-deep vs greedy",
    quick_help: "CI smoke config (60 nodes, 4 seeds)",
    flags_help: "  --nodes N            topology size             (default 100)",
    default: OptimizeConfig::default,
    quick: OptimizeConfig::quick,
    flag: |c, flag, v| {
        match flag {
            "--nodes" => c.nodes = num(flag, v)?,
            _ => return Ok(false),
        }
        Ok(true)
    },
    seeds: |c| &mut c.seeds,
    threads: |c| &mut c.threads,
    run: OptimizeConfig::run,
    print: |r| format!("{}\n{}", r.to_table().to_aligned_string(), r.headline()),
    json: OptimizeReport::to_json,
    csv: OptimizeReport::to_csv,
    quick_out: None,
    record: None,
};

/// Warm vs cold admission over a repeated-shape workload, measuring what
/// the learned-state cache saves.
const WARMSTART: Harness<WarmstartConfig, WarmstartReport> = Harness {
    name: "warmstart",
    blurb: "warm vs cold admission over a repeated-shape workload",
    quick_help: "CI smoke config (60 nodes, 2 episodes, 2 seeds)",
    flags_help: "  \
  --nodes N            topology size                  (default 60)
  --episodes N         admissions of the repeated shape per session, >= 2
                       (default 3; episode 1 warms the cache, 2.. are measured)
  --cycles N           sampling cycles per episode    (default 45; must exceed
                       the learn interval of 20 or nobody migrates)",
    default: WarmstartConfig::default,
    quick: WarmstartConfig::quick,
    flag: |c, flag, v| {
        match flag {
            "--nodes" => c.nodes = at_least(flag, v, 40, "the query splits ids at 20/40")?,
            "--episodes" => c.episodes = at_least(flag, v, 2, "episode 1 only warms the cache")?,
            "--cycles" => c.episode_cycles = num(flag, v)?,
            _ => return Ok(false),
        }
        Ok(true)
    },
    seeds: |c| &mut c.seeds,
    threads: |c| &mut c.threads,
    run: WarmstartConfig::run,
    print: |r| format!("{}\n{}", r.to_table().to_aligned_string(), r.savings_line()),
    json: WarmstartReport::to_json,
    csv: WarmstartReport::to_csv,
    quick_out: None,
    // The convergence trajectory of record, next to the other BENCH_*
    // files when run from the repo root.
    record: Some("BENCH_warmstart.json"),
};

/// Cross-network joins over a two-network federation, gateway-routed vs
/// ship-everything-to-one-base.
const FEDERATE: Harness<FederateConfig, FederateReport> = Harness {
    name: "federate",
    blurb: "cross-network joins over gateways, routed vs ship-to-base",
    quick_help: "CI smoke config (50+40 nodes, 30 cycles, 2 seeds)",
    flags_help: "  \
  --nodes-a N          root member (alpha) topology size   (default 50)
  --nodes-b N          remote member (beta) topology size  (default 40)
  --cycles N           federation sampling cycles          (default 40;
                       re-plan opportunities fire every 10)
  --loss P             loss probability of the lossy link  (default 0.3)",
    default: FederateConfig::default,
    quick: FederateConfig::quick,
    flag: |c, flag, v| {
        // Both networks must cover the chain's four 10-node id bands.
        const BANDS: &str = "the chain uses id bands up to 40";
        match flag {
            "--nodes-a" => c.nodes_a = at_least(flag, v, 40, BANDS)?,
            "--nodes-b" => c.nodes_b = at_least(flag, v, 40, BANDS)?,
            "--cycles" => c.cycles = num(flag, v)?,
            "--loss" => c.loss = loss(num(flag, v)?)?,
            _ => return Ok(false),
        }
        Ok(true)
    },
    seeds: |c| &mut c.seeds,
    threads: |c| &mut c.threads,
    run: FederateConfig::run,
    print: |r| format!("{}\n{}", r.to_table().to_aligned_string(), r.savings_line()),
    json: FederateReport::to_json,
    csv: FederateReport::to_csv,
    quick_out: None,
    // The cross-network comparison of record.
    record: Some("BENCH_federate.json"),
};

/// The result count of every variant against Base's on the same network
/// and seed, lossless: the join's correctness status as a golden.
const ANSWERS: Harness<AnswersConfig, AnswersReport> = Harness {
    name: "answers",
    blurb: "result counts of every variant against Base, lossless",
    quick_help: "1 seed instead of 3: the 154-run CI grid\n                       \
                 (7 queries x 11 algos x 1|3 trees)",
    flags_help: "",
    default: AnswersConfig::default,
    quick: AnswersConfig::quick,
    flag: |_, _, _| Ok(false),
    seeds: |c| &mut c.seeds,
    threads: |c| &mut c.threads,
    run: AnswersConfig::run,
    print: |r| r.to_table().to_aligned_string(),
    json: AnswersReport::to_json,
    csv: AnswersReport::to_csv,
    quick_out: None,
    record: None,
};

// ----------------------------------------------------------------------
// The figure drivers and the shapes they share (see the module doc).

/// `algo` with `opts`, optimized for the selectivities of `assumed`.
fn algo_cfg(algo: Algorithm, opts: InnetOptions, assumed: Rates) -> AlgoConfig {
    AlgoConfig::new(algo, Sigma::from_rates(assumed)).with_innet_options(opts)
}

/// `query` with its usual pairs under uniform `rates`, run for `cycles`
/// on the first `seeds` replicate seeds.
fn uniform_runs(
    seeds: u64,
    cycles: u32,
    query: QueryId,
    rates: Rates,
    cfg: AlgoConfig,
) -> Vec<Outcome> {
    run_seeds(seeds, cycles, |seed| {
        standard_session(query, query.n_pairs(), Schedule::Uniform(rates), cfg, seed)
    })
}

/// Mean total traffic in KB.
fn total_kb(runs: &[Outcome]) -> f64 {
    mean(runs, |s| kb(s.total_traffic_bytes() as f64))
}

/// The multi-tree routing substrate of `topo` over `data`.
fn substrate(topo: &Topology, trees: usize, data: &WorkloadData) -> MultiTreeSubstrate {
    MultiTreeSubstrate::build(topo, trees, default_indexed_attrs(), data)
}

/// One ` {name:>width}` column head per algorithm.
fn heads(algos: &[(Algorithm, InnetOptions)], width: usize) -> String {
    algos
        .iter()
        .map(|&(a, o)| format!(" {:>width$}", algo_name(a, o)))
        .collect()
}

/// Shape 1 — a true-ratio × assumed-ratio matrix over `stages` (Figs 4,
/// 8, 10, 11), `width` columns wide. `cell(true, assumed)` gives a cell's
/// value and its text; `tail(row, values)` what ends row `row`.
fn sigma_matrix(
    stages: &[Rates],
    width: usize,
    cell: impl Fn(Rates, Rates) -> (f64, String),
    tail: impl Fn(usize, &[f64]) -> String,
) {
    print!("{:>10}", "true\\opt");
    for a in stages {
        print!(" {:>width$}", a.ratio_label());
    }
    println!();
    for (i, &true_r) in stages.iter().enumerate() {
        print!("{:>10}", true_r.ratio_label());
        let mut values = Vec::new();
        for &assumed in stages {
            let (value, text) = cell(true_r, assumed);
            print!(" {text}");
            values.push(value);
        }
        println!("{}", tail(i, &values));
    }
}

/// Shape 2 — `query` over every ratio stage × σ_st ∈ {20%, 10%, 5%} for
/// each of `algos` (Figs 2, 3, 19, 20), as one sweep grid. `row` gets each
/// grid row's rates and its cells, in `algos` order.
fn stage_grid(
    query: QueryId,
    algos: &[(Algorithm, InnetOptions)],
    seeds: u64,
    cycles: u32,
    row: impl Fn(Rates, &[CellResult]),
) {
    let grid = SweepGrid {
        queries: vec![query.into()],
        rates: Rates::ratio_stages(5)
            .iter()
            .flat_map(|stage| [5, 10, 20].map(|st| Rates::new(stage.s_den, stage.t_den, st)))
            .collect(),
        algorithms: algos.to_vec(),
        seeds: seed_range(seeds),
        cycles,
        ..SweepGrid::default()
    };
    let report = grid.run();
    for (&rates, cells) in grid.rates.iter().zip(report.cells.chunks(algos.len())) {
        row(rates, cells);
    }
}

/// Shape 3 — the `k`-th sampled node pair of an `n`-node network
/// (Figs 16-18): deterministic, pseudo-random, possibly `a == b`.
fn sample_pair(k: u64, n: usize) -> (NodeId, NodeId) {
    let n = n as u64;
    (
        NodeId((k.wrapping_mul(2654435761) % n) as u16),
        NodeId(((k.wrapping_mul(40503) + 7) % n) as u16),
    )
}

/// Paths tallied into their average length (hops) and the most paths
/// through one node.
struct PathTally {
    hops: Vec<f64>,
    load: Vec<u64>,
}

impl PathTally {
    fn new(nodes: usize) -> Self {
        PathTally {
            hops: Vec::new(),
            load: vec![0; nodes],
        }
    }

    fn add(&mut self, path: &[NodeId]) {
        self.hops.push((path.len() - 1) as f64);
        for n in path {
            self.load[n.index()] += 1;
        }
    }

    fn avg(&self) -> f64 {
        self.hops.iter().sum::<f64>() / self.hops.len().max(1) as f64
    }

    fn max_load(&self) -> u64 {
        self.load.iter().copied().max().unwrap_or(0)
    }

    /// `avg/max-load`, the cell of Figs 16 and 17.
    fn cell(&self) -> String {
        format!("{:5.2}/{}", self.avg(), self.max_load())
    }
}

/// One row of a path-quality table: `label` right-aligned to `width`, then
/// each cell to 12.
fn path_row(label: impl Display, width: usize, cells: &[impl Display]) {
    let cells: String = cells.iter().map(|c| format!(" {c:>12}")).collect();
    println!("{label:>width$}{cells}");
}

// Table 1: attribute distributions of the synthetic workload.
fn table1(_o: &Opts) {
    println!("== Table 1: attribute sanity over the 100-node topology ==");
    let topo = standard_topology(1);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 5)), 1);
    use sensor_query::schema::*;
    let mut x_center = (0.0, 0u32);
    let mut x_edge = (0.0, 0u32);
    let center = topo.centroid();
    let mut ys = vec![0u32; 10];
    let mut cells = std::collections::HashSet::new();
    for n in topo.node_ids() {
        let t = data.static_of(n);
        let d = topo.position(n).dist(&center);
        if d < 40.0 {
            x_center = (x_center.0 + t.get(ATTR_X) as f64, x_center.1 + 1);
        } else if d > 100.0 {
            x_edge = (x_edge.0 + t.get(ATTR_X) as f64, x_edge.1 + 1);
        }
        ys[t.get(ATTR_Y) as usize] += 1;
        cells.insert((t.get(ATTR_CID), t.get(ATTR_RID)));
    }
    println!(
        "x: exponential-spatial, mean near center {:.1} >> mean at edge {:.1}",
        x_center.0 / x_center.1.max(1) as f64,
        x_edge.0 / x_edge.1.max(1) as f64
    );
    println!("y: uniform[0,10) counts {ys:?}");
    println!("cid/rid: {} of 16 4x4 cells occupied", cells.len());
}

// Table 2: the compiled query workload.
fn table2(_o: &Opts) {
    println!("== Table 2: compiled query workload ==");
    for query in QueryId::ALL {
        let q = query.spec();
        println!(
            "{:8} w={} | sel clauses S/T: {}/{} static, {}/{} dynamic | join: {} static, {} dynamic | routable: {} | near: {:?}",
            q.name,
            query.window(),
            q.analysis.s_static_sel.len(),
            q.analysis.t_static_sel.len(),
            q.analysis.s_dynamic_sel.len(),
            q.analysis.t_dynamic_sel.len(),
            q.analysis.static_join.len(),
            q.analysis.dynamic_join.len(),
            q.plan.is_routable(),
            q.plan.near.map(|n| n.dist_dm),
        );
    }
}

// Table 3: analytic cost formulas vs simulated traffic.
fn table3(o: &Opts) {
    println!(
        "== Table 3: analytic per-cycle cost vs simulated (Query 1, 1/2:1/2, sigma_st=20%) =="
    );
    println!(
        "{:12} {:>14} {:>14} {:>7}",
        "algorithm", "analytic(B/cyc)", "simulated", "ratio"
    );
    let rates = Rates::new(2, 2, 5);
    let sig = Sigma::from_rates(rates);
    let cycles = o.cycles(100);
    let spec = QueryId::Q1.spec();
    let a = &spec.analysis;
    for (algo, opts_a) in [
        (Algorithm::Naive, InnetOptions::PLAIN),
        (Algorithm::Base, InnetOptions::PLAIN),
        (Algorithm::Innet, InnetOptions::PLAIN),
    ] {
        // Analytic shape from the actual deployment.
        let cfg = algo_cfg(algo, opts_a, rates);
        let uniform = Schedule::Uniform(rates);
        let mut session = standard_session(QueryId::Q1, 0, uniform, cfg, SEED_BASE).build();
        let (topo, data) = (session.topology(), session.workload());
        let sub = substrate(topo, 3, data);
        let mut d_sr = Vec::new();
        let mut d_tr = Vec::new();
        let mut pair_d = Vec::new();
        for n in topo.node_ids() {
            if n == topo.base() {
                continue;
            }
            let st = data.static_of(n);
            let joins_any = |side_s: bool| {
                topo.node_ids().any(|m| {
                    m != n && m != topo.base() && {
                        let mt = data.static_of(m);
                        if side_s {
                            a.t_eligible(mt) && a.static_join_matches(st, mt)
                        } else {
                            a.s_eligible(mt) && a.static_join_matches(mt, st)
                        }
                    }
                })
            };
            let s_ok = a.s_eligible(st) && (algo == Algorithm::Naive || joins_any(true));
            let t_ok = a.t_eligible(st) && (algo == Algorithm::Naive || joins_any(false));
            if s_ok {
                d_sr.push(sub.hops_to_base(n) as f64);
            }
            if t_ok {
                d_tr.push(sub.hops_to_base(n) as f64);
            }
            if algo == Algorithm::Innet && s_ok {
                // Pairwise: one entry per statically-joining pair, using
                // the best discovered path and the model's placement.
                let q = SearchQuery::new(spec.plan.search_constraints(st));
                let (results, _) = find_paths(&sub, n, &q);
                for r in best_path_per_target(&results) {
                    let hops: Vec<u16> = r.path.iter().map(|&x| sub.hops_to_base(x)).collect();
                    match place_join_node(sig, 3, &hops) {
                        Placement::OnPath { index, .. } => pair_d.push((
                            index as f64,
                            (r.path.len() - 1 - index) as f64,
                            hops[index] as f64,
                        )),
                        Placement::AtBase { .. } => {
                            pair_d.push((hops[0] as f64, hops[hops.len() - 1] as f64, 0.0))
                        }
                    }
                }
            }
        }
        let shape = analytic::QueryShape {
            d_sr,
            d_tr,
            pair_distances: pair_d,
        };
        let tuples_per_cycle = match algo {
            Algorithm::Naive => analytic::naive_per_cycle(sig, &shape),
            Algorithm::Base => analytic::base_per_cycle(sig, &shape),
            _ => analytic::pairwise_per_cycle(sig, 3, &shape),
        };
        let bytes_per_tuple = (spec.data_bytes() + 1 + 11) as f64;
        let analytic = tuples_per_cycle * bytes_per_tuple;
        session.step(cycles);
        let stats = session.report();
        let simulated = stats.execution_traffic_bytes() as f64 / cycles as f64;
        println!(
            "{:12} {:>14.0} {:>14.0} {:>7.2}",
            cfg.label(),
            analytic,
            simulated,
            simulated / analytic.max(1e-9)
        );
    }
}

/// The algorithm set of Figures 2-3.
const FIG2_ALGOS: [(Algorithm, InnetOptions); 6] = [
    (Algorithm::Naive, InnetOptions::PLAIN),
    (Algorithm::Base, InnetOptions::PLAIN),
    (Algorithm::Ght, InnetOptions::PLAIN),
    (Algorithm::Innet, InnetOptions::PLAIN),
    (Algorithm::Innet, InnetOptions::CMG),
    (Algorithm::Innet, InnetOptions::CMPG),
];

// Figures 2 & 3: total traffic + base load across selectivity stages.
fn fig2_or_3(o: &Opts, q2: bool) {
    let (name, query) = if q2 {
        ("Figure 3 (Query 2, w=1)", QueryId::Q2)
    } else {
        ("Figure 2 (Query 1, w=3)", QueryId::Q1)
    };
    let cycles = o.cycles(100);
    println!(
        "== {name}: total traffic (KB) / base load (KB), {cycles} cycles, {} seeds ==",
        o.seeds
    );
    println!("{:10} {:6} |{}", "ratio", "sig_st", heads(&FIG2_ALGOS, 22));
    stage_grid(query, &FIG2_ALGOS, o.seeds, cycles, |rates, cells| {
        let cells: String = cells
            .iter()
            .map(|c| {
                let (tot, bl) = (c.stat("total_traffic_bytes"), c.stat("base_load_bytes"));
                let text = format!(
                    "{:7.1}±{:<4.1}/{:6.1}",
                    kb(tot.mean),
                    kb(tot.ci95),
                    kb(bl.mean)
                );
                format!(" {text:>22}")
            })
            .collect();
        let st = 100.0 / rates.st_den as f64;
        println!("{:10} {st:5.0}% |{cells}", rates.ratio_label());
    });
}

// Figure 4: cost-model validation on Query 0 — optimize for each assumed
// ratio while the data follows each true ratio; the diagonal should win.
fn fig4(o: &Opts) {
    println!("== Figure 4: Innet traffic (KB), Query 0, sigma_st=20%, w=3; rows=true ratio, cols=assumed ==");
    let cycles = o.cycles(100);
    sigma_matrix(
        &Rates::ratio_stages(5),
        10,
        |true_r, assumed| {
            let cfg = algo_cfg(Algorithm::Innet, InnetOptions::PLAIN, assumed);
            let tot = total_kb(&uniform_runs(o.seeds, cycles, QueryId::Q0, true_r, cfg));
            (tot, format!("{tot:>10.1}"))
        },
        |row, values| {
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let diag = if values[row] > min * 1.10 {
                "off"
            } else {
                "ok"
            };
            format!("  (diag {diag})")
        },
    );
}

// Figure 5: the 15 most-loaded nodes per algorithm.
fn fig5(o: &Opts) {
    println!(
        "== Figure 5: load (KB) of the 15 most-loaded nodes, Query 1, 1/2:1/2, sigma_st=20% =="
    );
    let algos = [
        (Algorithm::Naive, InnetOptions::PLAIN),
        (Algorithm::Base, InnetOptions::PLAIN),
        (Algorithm::Innet, InnetOptions::PLAIN),
        (Algorithm::Innet, InnetOptions::CM),
        (Algorithm::Innet, InnetOptions::CMP),
        (Algorithm::Innet, InnetOptions::CMG),
        (Algorithm::Innet, InnetOptions::CMPG),
    ];
    println!("{:>5}{}", "rank", heads(&algos, 10));
    let rates = Rates::new(2, 2, 5);
    let columns: Vec<Vec<f64>> = algos
        .iter()
        .map(|&(algo, opts_a)| {
            let cfg = algo_cfg(algo, opts_a, rates);
            let runs = uniform_runs(o.seeds, o.cycles(100), QueryId::Q1, rates, cfg);
            // Average the rank profile across seeds.
            let mut avg = vec![0.0f64; 15];
            for s in &runs {
                for (i, l) in s.top_loads(15).iter().enumerate() {
                    avg[i] += *l as f64 / runs.len() as f64;
                }
            }
            avg
        })
        .collect();
    for rank in 0..15 {
        print!("{:>5}", rank + 1);
        for col in &columns {
            print!(" {:>10.1}", kb(col[rank]));
        }
        println!();
    }
}

// Figure 6: centralized vs distributed initiation.
fn fig6(o: &Opts) {
    println!("== Figure 6: initiation — distributed (Innet) vs centralized ==");
    let rates = Rates::new(1, 1, 5);
    let cfg = algo_cfg(Algorithm::Innet, InnetOptions::CMG, rates);
    // Per seed: distributed base KB and latency, centralized base KB and
    // latency on the same pairs.
    let runs = parallel_map(&seed_range(o.seeds), 0, |&seed| {
        let mut session =
            standard_session(QueryId::Q0, 10, Schedule::Uniform(rates), cfg, seed).build();
        session.step(0); // initiation only
        let out = session.report();
        let pairs: Vec<(NodeId, NodeId)> = (0..session.topology().len() as u16)
            .map(NodeId)
            .flat_map(|n| {
                session
                    .query_node(QueryId(0), n)
                    .expect("the query is live")
                    .assigns
                    .keys()
                    .filter(move |p| p.s == n)
                    .map(|p| (p.s, p.t))
                    .collect::<Vec<_>>()
            })
            .collect();
        let cent = centralized::centralized_initiation(session.topology(), &pairs);
        (
            kb(out.initiation.load_bytes(out.base) as f64),
            out.initiation_cycles as f64,
            kb(cent.base_bytes as f64),
            cent.latency_cycles as f64,
        )
    });
    let (db, dl) = (mean(&runs, |r| r.0), mean(&runs, |r| r.1));
    let (cb, cl) = (mean(&runs, |r| r.2), mean(&runs, |r| r.3));
    println!(
        "(a) base traffic:   distributed {db:.2} KB vs centralized {cb:.2} KB  (x{:.1})",
        cb / db.max(1e-9)
    );
    println!(
        "(b) latency:        distributed {dl:.0} cycles vs centralized {cl:.0} cycles (x{:.1})",
        cl / dl.max(1e-9)
    );
}

// Figure 7: optimal (centralized) vs distributed computation across
// topology classes; 10 random 1:1 pairs with sigma_s=1, sigma_t=sigma_st~0,
// so traffic reduces to shipping S data along the chosen route — the
// experiment contrasts globally-optimal routes (centralized knowledge)
// with the multi-tree-discovered ones ("within 3%" in the paper).
fn fig7(o: &Opts) {
    println!("== Figure 7: per-cycle S-data traffic (tuple-hops), optimal routes (O) vs distributed (D) ==");
    println!("{:>18} {:>10} {:>10} {:>8}", "topology", "O", "D", "D/O");
    let spec = QueryId::Q0.spec();
    for class in DensityClass::ALL {
        let mut o_hops = Vec::new();
        let mut d_hops = Vec::new();
        for seed in 0..o.seeds {
            let topo = TopologySpec::new(class, 100, 40 + seed).build();
            let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), 40 + seed)
                .with_pairs(10);
            let sub = substrate(&topo, 3, &data);
            for a in topo.node_ids() {
                let sa = data.static_of(a);
                if a == topo.base() || !spec.analysis.s_eligible(sa) {
                    continue;
                }
                let q = SearchQuery::new(spec.plan.search_constraints(sa));
                let (results, _) = find_paths(&sub, a, &q);
                if let Some(best) = best_path_per_target(&results).first() {
                    // A discovered tree path implies connectivity, but a
                    // whole figure run must not panic if BFS disagrees:
                    // skip the pair instead of unwrapping.
                    if let Some(h) = topo.hop_distance(a, best.target) {
                        d_hops.push((best.path.len() - 1) as f64);
                        o_hops.push(h as f64);
                    }
                }
            }
        }
        let (om, dm) = (mean(&o_hops, |&h| h), mean(&d_hops, |&h| h));
        println!(
            "{:>18} {:>10.2} {:>10.2} {:>8.3}",
            class.name(),
            om,
            dm,
            dm / om.max(1e-9)
        );
    }
}

// Figure 8: MPO cost-model validation (5x5) for Query 1 and Query 2.
fn fig8(o: &Opts) {
    let cycles = o.cycles(100);
    for (label, query, st_den) in [
        ("(a) Query 1, sigma_st=5%, w=3", QueryId::Q1, 20),
        ("(b) Query 2, sigma_st=10%, w=1", QueryId::Q2, 10),
    ] {
        println!("== Figure 8{label}: Innet-cmpg traffic (KB); rows=true ratio, cols=assumed ==");
        sigma_matrix(
            &Rates::ratio_stages(st_den),
            10,
            |true_r, assumed| {
                let cfg = algo_cfg(Algorithm::Innet, InnetOptions::CMPG, assumed);
                let tot = total_kb(&uniform_runs(o.seeds, cycles, query, true_r, cfg));
                (tot, format!("{tot:>10.1}"))
            },
            |_, _| String::new(),
        );
    }
}

// Figure 9: (a) traffic vs duration; (b) MPO variants at long horizons.
// Both panels are sweep grids; durations vary the run length, so panel (a)
// is one grid per duration.
fn fig9(o: &Opts) {
    println!(
        "== Figure 9(a): total traffic (KB) vs duration, Query 2, w=1, 1/2:1/2 sigma_st=10% =="
    );
    let algos = [
        (Algorithm::Naive, InnetOptions::PLAIN),
        (Algorithm::Base, InnetOptions::PLAIN),
        (Algorithm::Ght, InnetOptions::PLAIN),
        (Algorithm::Innet, InnetOptions::PLAIN),
        (Algorithm::Innet, InnetOptions::CM),
        (Algorithm::Innet, InnetOptions::CMG),
        (Algorithm::Innet, InnetOptions::CMPG),
    ];
    let durations: Vec<u32> = if o.quick {
        vec![30, 90, 150]
    } else {
        vec![30, 60, 90, 120, 150, 180, 210, 240, 270, 300]
    };
    println!("{:>7}{}", "cycles", heads(&algos, 10));
    for d in durations {
        let grid = SweepGrid {
            queries: vec![QueryId::Q2.into()],
            rates: vec![Rates::new(2, 2, 10)],
            algorithms: algos.to_vec(),
            seeds: seed_range(o.seeds.min(3)),
            cycles: d,
            ..SweepGrid::default()
        };
        let report = grid.run();
        print!("{d:>7}");
        for cell in &report.cells {
            print!(" {:>10.1}", kb(cell.stat("total_traffic_bytes").mean));
        }
        println!();
    }
    let long = if o.quick { 300 } else { 1000 };
    println!("== Figure 9(b): MPO variants, {long} cycles, Query 2 w=1 ==");
    let variants = [
        InnetOptions::PLAIN,
        InnetOptions::CM,
        InnetOptions::CMG,
        InnetOptions::CMPG,
    ]
    .map(|v| (Algorithm::Innet, v));
    let grid = SweepGrid {
        queries: vec![QueryId::Q2.into()],
        rates: [5, 10, 20].map(|st| Rates::new(2, 2, st)).to_vec(),
        algorithms: variants.to_vec(),
        seeds: seed_range(o.seeds.min(3)),
        cycles: long,
        ..SweepGrid::default()
    };
    let report = grid.run();
    println!("{:>7}{}", "sig_st", heads(&variants, 10));
    for (rates, cells) in grid.rates.iter().zip(report.cells.chunks(variants.len())) {
        print!("{:>6.0}%", 100.0 / rates.st_den as f64);
        for cell in cells {
            print!(" {:>10.1}", kb(cell.stat("total_traffic_bytes").mean));
        }
        println!();
    }
}

// Figures 10-11: learning gain/loss matrices.
fn learning_matrix(o: &Opts, query: QueryId, st_den: u16, cycles: u32, label: &str) {
    println!("== {label}: Innet-cmpg traffic (KB) static->learned; rows=true, cols=assumed ==");
    let seeds = o.seeds.min(3);
    sigma_matrix(
        &Rates::ratio_stages(st_den),
        17,
        |true_r, assumed| {
            let [st, ln] = [InnetOptions::CMPG, InnetOptions::CMPG.with_learning()].map(|opts| {
                let cfg = algo_cfg(Algorithm::Innet, opts, assumed);
                total_kb(&uniform_runs(seeds, cycles, query, true_r, cfg))
            });
            (st, format!("{st:>8.1}->{ln:<7.1}"))
        },
        |_, _| String::new(),
    );
}

fn fig10(o: &Opts) {
    let c = o.cycles(200);
    learning_matrix(o, QueryId::Q0, 5, c, "Figure 10(a) Query 0, sigma_st=20%");
    learning_matrix(o, QueryId::Q1, 20, c, "Figure 10(b) Query 1, sigma_st=5%");
    learning_matrix(o, QueryId::Q2, 10, c, "Figure 10(c) Query 2, sigma_st=10%");
}

fn fig11(o: &Opts) {
    for cycles in [200u32, 400, 800] {
        let c = if o.quick { cycles.min(200) } else { cycles };
        let label = format!("Figure 11 Query 0, sigma_st=20%, {c} cycles");
        learning_matrix(o, QueryId::Q0, 5, c, &label);
        if o.quick {
            break;
        }
    }
}

// Figure 12: spatial skew and temporal change.
fn fig12(o: &Opts) {
    let cycles = o.cycles(800);
    let learn = InnetOptions::CMPG.with_learning();
    for (panel, schedule) in [
        (
            "(a) spatial skew (west=Sel1, east=Sel2)",
            Schedule::SpatialSplit {
                west: Rates::SEL1,
                east: Rates::SEL2,
                split_x_dm: 1280,
            },
        ),
        (
            "(b) temporal change (Sel1 then Sel2 at half-run)",
            Schedule::TemporalSwitch {
                before: Rates::SEL1,
                after: Rates::SEL2,
                at_cycle: cycles / 2,
            },
        ),
    ] {
        println!("== Figure 12{panel}: traffic (MB), {cycles} cycles ==");
        for (qname, query) in [("Q1", QueryId::Q1), ("Q2", QueryId::Q2)] {
            print!("{qname:>3}:");
            for (name, assumed, opts) in [
                ("Sel1", Rates::SEL1, InnetOptions::CMPG),
                ("Sel2", Rates::SEL2, InnetOptions::CMPG),
                ("Sel1 learn", Rates::SEL1, learn),
                ("Sel2 learn", Rates::SEL2, learn),
            ] {
                let cfg = algo_cfg(Algorithm::Innet, opts, assumed);
                let runs = run_seeds(o.seeds.min(3), cycles, |seed| {
                    standard_session(query, 0, schedule.clone(), cfg, seed)
                });
                let m = mean(&runs, |s| mb(s.total_traffic_bytes() as f64));
                print!("  {name}={m:.3}");
            }
            println!();
        }
    }
}

// Figure 13: Intel dataset with learning (log-scale panels in the paper).
fn fig13(o: &Opts) {
    let cycles = o.cycles(400);
    println!("== Figure 13: Intel lab, Query 3, {cycles} cycles — total / base / max-node traffic (KB) ==");
    let topo = sensor_net::intel::intel_lab();
    let static_sigma = Sigma::new(1.0, 1.0, 0.2);
    let configs = [
        (
            "Yang+07",
            Algorithm::Yang07,
            InnetOptions::PLAIN,
            static_sigma,
        ),
        (
            "GHT/GPSR",
            Algorithm::Ght,
            InnetOptions::PLAIN,
            static_sigma,
        ),
        (
            "Naive/Base",
            Algorithm::Naive,
            InnetOptions::PLAIN,
            static_sigma,
        ),
        ("In-net", Algorithm::Innet, InnetOptions::CM, static_sigma),
        // Initially optimized for sigma=100% everywhere: placement
        // starts at the base and migrates inward as estimates arrive.
        (
            "In-net learn",
            Algorithm::Innet,
            InnetOptions::CM.with_learning(),
            Sigma::new(1.0, 1.0, 1.0),
        ),
    ];
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>9}",
        "strategy", "total", "base", "max-node", "results"
    );
    for (name, algo, opts, assumed) in configs {
        let cfg = AlgoConfig::new(algo, assumed).with_innet_options(opts);
        let runs = run_seeds(o.seeds.min(3), cycles, |seed| {
            // Replicate i seeds the engine with i and the workload with
            // 100 + i.
            let i = seed - SEED_BASE;
            let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), 100 + i)
                .with_humidity(&topo);
            Session::builder(topo.clone(), data)
                .sim(SimConfig::default().with_seed(i))
                .query(QueryId::Q3.spec(), cfg)
                .bare_wire()
        });
        let t = total_kb(&runs);
        let b = mean(&runs, |s| kb(s.base_load_bytes() as f64));
        let m = mean(&runs, |s| kb(s.max_node_load_bytes() as f64));
        let r = mean(&runs, |s| s.results_total() as f64);
        println!("{name:>14} {t:>10.1} {b:>10.1} {m:>10.1} {r:>9.0}");
    }
}

// Figure 14: join-node failure.
fn fig14(o: &Opts) {
    let cycles = o.cycles(60);
    println!("== Figure 14: single-pair query, join-node failure at mid-run, {cycles} cycles ==");
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>12}",
        "sig_st", "delay-ok", "delay-fail", "kb-ok", "kb-fail"
    );
    for st_den in [10u16, 5] {
        let rates = Rates::new(1, 1, st_den);
        let cfg = algo_cfg(Algorithm::Innet, InnetOptions::PLAIN, rates);
        let session = |seed| standard_session(QueryId::Q0, 1, Schedule::Uniform(rates), cfg, seed);
        let ok = run_seeds(o.seeds, cycles, session);
        // The same runs with the busiest join node killed at mid-run; a run
        // without a join node is left out.
        let failed: Vec<Outcome> = parallel_map(&seed_range(o.seeds), 0, |&seed| {
            let mut faulty = session(seed).build();
            faulty.step(0); // initiate, so the busiest join node is known
            let v = faulty.busiest_join_node()?;
            faulty.set_plan(DynamicsPlan::none().kill_nodes(cycles / 2, vec![v]));
            faulty.step(cycles);
            Some(faulty.report())
        })
        .into_iter()
        .flatten()
        .collect();
        let delay = |runs: &[Outcome]| mean(runs, |s| s.avg_delay_tx());
        let exec_kb = |runs: &[Outcome]| mean(runs, |s| kb(s.execution_traffic_bytes() as f64));
        let (od, fd) = (delay(&ok), delay(&failed));
        let (okb, fkb) = (exec_kb(&ok), exec_kb(&failed));
        println!(
            "{:>6.0}% {od:>12.1} {fd:>12.1} {okb:>12.2} {fkb:>12.2}",
            100.0 / st_den as f64
        );
    }
}

// Figures 16-18: routing-substrate path quality.

/// The best multi-tree path of each of the first `pairs` distinct sampled
/// pairs (a pair without one still counts), tallied.
fn path_quality(topo: &Topology, trees: usize, pairs: usize, seed: u64) -> PathTally {
    let data = WorkloadData::new(topo, Schedule::Uniform(Rates::new(1, 1, 5)), seed);
    let sub = substrate(topo, trees, &data);
    let mut tally = PathTally::new(topo.len());
    let mut pairs_done = 0;
    let mut k = 0u64;
    while pairs_done < pairs {
        k += 1;
        let (a, b) = sample_pair(k, topo.len());
        if a == b {
            continue;
        }
        let q = SearchQuery::new(vec![(sensor_query::schema::ATTR_ID, Constraint::Eq(b.0))]);
        let (results, _) = find_paths(&sub, a, &q);
        if let Some(best) = results.iter().min_by_key(|r| r.path.len()) {
            tally.add(&best.path);
        }
        pairs_done += 1;
    }
    tally
}

fn fig16(o: &Opts) {
    println!("== Figure 16: mote path quality — avg path length (hops) / max node load (paths) ==");
    let pairs = if o.quick { 200 } else { 1000 };
    let head = ["1 tree", "2 trees", "3 trees", "GPSR", "full graph"];
    path_row("topology", 18, &head);
    for class in DensityClass::ALL {
        let topo = TopologySpec::new(class, 100, 77).build();
        let mut cells: Vec<String> = (1..=3)
            .map(|trees| path_quality(&topo, trees, pairs, 77).cell())
            .collect();
        let router = GpsrRouter::new(&topo);
        let mut gpsr = PathTally::new(topo.len());
        // Full graph: BFS shortest paths.
        let mut full = PathTally::new(topo.len());
        for k in 0..pairs as u64 {
            let (a, b) = sample_pair(k, topo.len());
            if a == b {
                continue;
            }
            if let Some(p) = router.route(&topo, a, b) {
                gpsr.add(&p);
            }
            if let Some(p) = topo.shortest_path(a, b) {
                full.add(&p);
            }
        }
        cells.push(gpsr.cell());
        cells.push(format!("{:5.2}/-", full.avg()));
        path_row(class.name(), 18, &cells);
    }
}

fn fig17(o: &Opts) {
    println!(
        "== Figure 17: mesh path quality — avg path length / max node load; DHT instead of GPSR =="
    );
    let pairs = if o.quick { 200 } else { 1000 };
    path_row("topology", 18, &["1 tree", "2 trees", "3 trees", "DHT"]);
    for class in DensityClass::ALL {
        let topo = TopologySpec::new(class, 100, 78).build();
        let mut cells: Vec<String> = (1..=3)
            .map(|trees| path_quality(&topo, trees, pairs, 78).cell())
            .collect();
        // On an IP mesh the DHT overlay only resolves the responsible
        // node; data then takes the direct shortest path (App. F: DHT
        // paths slightly beat GPSR, max load rises from hash imbalance).
        let dht = DhtOverlay::new(&topo);
        let mut tally = PathTally::new(topo.len());
        for k in 0..pairs as u64 {
            let (a, _) = sample_pair(k, topo.len());
            let home = dht.home_for_key(k.wrapping_mul(0x9E3779B97F4A7C15));
            if let Some(p) = topo.shortest_path(a, home) {
                tally.add(&p);
            }
        }
        cells.push(tally.cell());
        path_row(class.name(), 18, &cells);
    }
}

fn fig18(o: &Opts) {
    println!(
        "== Figure 18: mesh scale-up — avg path length / max load per path, medium density =="
    );
    let pairs = if o.quick { 200 } else { 1000 };
    path_row("nodes", 10, &["1 tree", "2 trees", "3 trees"]);
    for nodes in [50usize, 100, 200] {
        let topo = TopologySpec::new(DensityClass::Medium, nodes, 79).build();
        let cells: Vec<String> = (1..=3)
            .map(|trees| {
                let t = path_quality(&topo, trees, pairs, 79);
                format!("{:5.2}/{:.2}", t.avg(), t.max_load() as f64 / pairs as f64)
            })
            .collect();
        path_row(nodes, 10, &cells);
    }
}

// Figures 19-20: mesh-profile query runs (message counts, DHT grouped).
// Mesh profile means no snooping/path collapse (App. F), which holds for
// every algorithm here.
fn fig19_or_20(o: &Opts, q2: bool) {
    let (name, query) = if q2 {
        ("Figure 20 (Query 2, w=1, mesh)", QueryId::Q2)
    } else {
        ("Figure 19 (Query 1, w=3, mesh)", QueryId::Q1)
    };
    let n_seeds = o.seeds.min(3);
    println!("== {name}: total msgs (1000s) / base msgs (1000s), {n_seeds} seeds ==");
    let algos = [
        (Algorithm::Naive, InnetOptions::PLAIN),
        (Algorithm::Base, InnetOptions::PLAIN),
        (Algorithm::Ght, InnetOptions::PLAIN),
        (Algorithm::Innet, InnetOptions::CMG),
    ];
    // On the mesh, GHT's grouped joins hash into the DHT.
    let head = heads(&algos, 15).replace("GHT", "DHT");
    println!("{:>10} {:>6}{head}", "ratio", "sig_st");
    stage_grid(query, &algos, n_seeds, o.cycles(100), |rates, cells| {
        print!(
            "{:>10} {:>5.0}%",
            rates.ratio_label(),
            100.0 / rates.st_den as f64
        );
        for c in cells {
            print!(
                " {:>8.2}/{:<6.2}",
                c.stat("total_traffic_msgs").mean / 1000.0,
                c.stat("base_load_msgs").mean / 1000.0
            );
        }
        println!();
    });
}

// Appendix G: mobile leaf node.
fn appg(o: &Opts) {
    println!("== Appendix G: mobile leaf re-homing on the medium random topology ==");
    let mut delays = Vec::new();
    let mut bytes = Vec::new();
    for seed in 0..o.seeds.max(3) {
        let topo = TopologySpec::new(DensityClass::Medium, 100, 90 + seed).build();
        let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), seed);
        let sub = substrate(&topo, 3, &data);
        // Move a leaf toward the centroid.
        let leaf = NodeId((topo.len() - 1) as u16);
        let mv = sensor_routing::mobility::move_leaf(&topo, &sub, leaf, topo.centroid());
        delays.push(mv.delay_cycles as f64);
        bytes.push(mv.traffic_bytes as f64);
    }
    let (d, b) = (mean(&delays, |&x| x), mean(&bytes, |&x| x));
    println!("update propagation: {d:.1} cycles, {b:.0} bytes (paper: 19.4 cycles, 1195 bytes)");
    println!(
        "max sustainable speed at 10 m range: {:.2} m/s (paper: ~0.5 m/s)",
        sensor_routing::mobility::max_speed_m_per_s(10.0, d as u32)
    );
}
