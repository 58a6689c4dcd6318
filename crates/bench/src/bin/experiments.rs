//! Regenerates every table and figure of the paper's evaluation, and runs
//! the seed-replicated grid harnesses.
//!
//! Usage: `experiments <id>... [--quick|--full|--seeds N|--cycles N]`
//! where `<id>` is one of: table1 table2 table3 fig2 fig3 fig4 fig5 fig6
//! fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig16 fig17 fig18 fig19
//! fig20 appg all.
//!
//! `experiments <sub> [options]` runs one of the grid subcommands —
//! `sweep`, `recovery`, `multiq`, `optimize`, `warmstart`, `federate` —
//! each a [`Harness`] row over one runner: the shared flags, the aligned
//! table on stdout, the `--check-determinism` re-runs and the
//! `PREFIX.json`/`PREFIX.csv` files are the runner's; a row supplies its
//! defaults, its own flags and its emitters. See `<sub> --help`.
//!
//! Numbers will not equal the paper's absolute values (different simulator,
//! synthetic Intel data) — the *shape* is the reproduction target: who
//! wins, by what rough factor, and where crossovers fall. The figure
//! drivers print that shape; nothing yet checks it against the paper.

use aspen_bench::federate::{FederateConfig, FederateReport};
use aspen_bench::multiq::{MultiqConfig, MultiqReport};
use aspen_bench::optimize::{OptimizeConfig, OptimizeReport};
use aspen_bench::sweep::{
    parse_algo, parse_density, seed_range, DynamicsSpec, MultiSpec, QueryId, SweepGrid,
    SweepReport, WorkloadSel, SEED_BASE,
};
use aspen_bench::warmstart::{WarmstartConfig, WarmstartReport};
use aspen_bench::*;
use aspen_join::prelude::*;
use aspen_join::{centralized, Algorithm};
use sensor_net::{DensityClass, NodeId, TopologySpec};
use sensor_routing::dht::DhtOverlay;
use sensor_routing::ght::GpsrRouter;
use sensor_routing::search::{best_path_per_target, find_paths, SearchQuery};
use sensor_routing::substrate::MultiTreeSubstrate;
use sensor_summaries::Constraint;
use sensor_workload::{query0, query1, query2, query3, WorkloadData};
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
const SUBCOMMANDS: [&dyn Subcommand; 6] =
    [&SWEEP, &RECOVERY, &MULTIQ, &OPTIMIZE, &WARMSTART, &FEDERATE];

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
            "--cycles" => opts.cycles_override = Some(cli.value(a, it.next())),
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

fn sigma_of(r: Rates) -> Sigma {
    Sigma::from_rates(r)
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
fn at_least(flag: &str, v: Option<&str>, min: usize, why: &str) -> Result<usize, String> {
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
    /// Help for `--quick`, then for the row's own flags.
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

/// A [`Harness`] row with its config and report types erased, so the six
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
        format!(
            "usage: experiments {name} [options]
  --quick              {}
{}
  --seeds N            replicate seeds           (default {seeds})
  --threads N          OS threads fanning runs out, 0 = all cores (default {threads})
  --out PREFIX         write PREFIX.json, PREFIX.csv{record}
                       (default target/{name}/{name})
  --check-determinism  re-run at --threads 1|2|8,
                       verifying byte-identical output",
            self.quick_help, self.flags_help
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

// ----------------------------------------------------------------------
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
    for (q, w) in [
        (query0(3), 3usize),
        (query1(3), 3),
        (query2(1), 1),
        (query3(3), 3),
    ] {
        println!(
            "{:8} w={} | sel clauses S/T: {}/{} static, {}/{} dynamic | join: {} static, {} dynamic | routable: {} | near: {:?}",
            q.name,
            w,
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
    let cycles = o.cycles(100);
    let bench = Bench {
        query: query1,
        window: 3,
        n_pairs: 0,
        cycles,
    };
    for (algo, opts_a) in [
        (Algorithm::Naive, InnetOptions::PLAIN),
        (Algorithm::Base, InnetOptions::PLAIN),
        (Algorithm::Innet, InnetOptions::PLAIN),
    ] {
        // Analytic shape from the actual deployment.
        let mut session = bench
            .scenario(rates, sigma_of(rates), algo, opts_a, 1000)
            .build();
        let (topo, data) = (session.topology(), session.workload());
        let spec = (bench.query)(bench.window);
        let sub =
            MultiTreeSubstrate::build(topo, 3, aspen_join::scenario::default_indexed_attrs(), data);
        let a = &spec.analysis;
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
                    let placement = aspen_join::place_join_node(sigma_of(rates), 3, &hops);
                    match placement {
                        aspen_join::Placement::OnPath { index, .. } => pair_d.push((
                            index as f64,
                            (r.path.len() - 1 - index) as f64,
                            hops[index] as f64,
                        )),
                        aspen_join::Placement::AtBase { .. } => {
                            pair_d.push((hops[0] as f64, hops[hops.len() - 1] as f64, 0.0))
                        }
                    }
                }
            }
        }
        let shape = aspen_join::cost::analytic::QueryShape {
            d_sr,
            d_tr,
            pair_distances: pair_d,
        };
        let sig = sigma_of(rates);
        let tuples_per_cycle = match algo {
            Algorithm::Naive => aspen_join::cost::analytic::naive_per_cycle(sig, &shape),
            Algorithm::Base => aspen_join::cost::analytic::base_per_cycle(sig, &shape),
            _ => aspen_join::cost::analytic::pairwise_per_cycle(sig, 3, &shape),
        };
        let bytes_per_tuple = (spec.data_bytes() + 1 + 11) as f64;
        let analytic = tuples_per_cycle * bytes_per_tuple;
        session.step(cycles);
        let stats = session.report();
        let simulated = stats.execution_traffic_bytes() as f64 / cycles as f64;
        println!(
            "{:12} {:>14.0} {:>14.0} {:>7.2}",
            AlgoConfig::new(algo, sig)
                .with_innet_options(opts_a)
                .label(),
            analytic,
            simulated,
            simulated / analytic.max(1e-9)
        );
    }
}

// ----------------------------------------------------------------------
// Figures 2 & 3: total traffic + base load across selectivity stages.
// One declarative sweep over the figure's (ratio x sigma_st x algorithm)
// grid; all runs fan out together instead of per-point seed loops.
fn fig2_or_3(o: &Opts, q2: bool) {
    let (name, query) = if q2 {
        ("Figure 3 (Query 2, w=1)", QueryId::Q2)
    } else {
        ("Figure 2 (Query 1, w=3)", QueryId::Q1)
    };
    let st_dens = [5u16, 10, 20];
    let grid = SweepGrid {
        queries: vec![query.into()],
        rates: Rates::ratio_stages(5)
            .iter()
            .flat_map(|stage| st_dens.map(|st| Rates::new(stage.s_den, stage.t_den, st)))
            .collect(),
        algorithms: figure2_algorithms(),
        seeds: seed_range(o.seeds),
        cycles: o.cycles(100),
        ..SweepGrid::default()
    };
    println!(
        "== {name}: total traffic (KB) / base load (KB), {} cycles, {} seeds ==",
        grid.cycles, o.seeds
    );
    let report = grid.run();
    println!(
        "{:10} {:6} | {:>22} {:>22} {:>22} {:>22} {:>22} {:>22}",
        "ratio", "sig_st", "Naive", "Base", "GHT", "Innet", "Innet-cmg", "Innet-cmpg"
    );
    for stage in Rates::ratio_stages(5) {
        for st in st_dens {
            let rates = Rates::new(stage.s_den, stage.t_den, st);
            let mut cells = Vec::new();
            for (algo, opts_a) in figure2_algorithms() {
                let cell = report
                    .find(|c| c.rates == rates && c.algo == algo && c.opts == opts_a)
                    .expect("cell in grid");
                let tot = cell.stat("total_traffic_bytes");
                let bl = cell.stat("base_load_bytes");
                cells.push(format!(
                    "{:7.1}±{:<4.1}/{:6.1}",
                    kb(tot.mean),
                    kb(tot.ci95),
                    kb(bl.mean)
                ));
            }
            println!(
                "{:10} {:5.0}% | {}",
                rates.ratio_label(),
                100.0 / st as f64,
                cells
                    .iter()
                    .map(|c| format!("{c:>22}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
    }
}

// Figure 4: cost-model validation on Query 0 — optimize for each assumed
// ratio while the data follows each true ratio; the diagonal should win.
fn fig4(o: &Opts) {
    println!("== Figure 4: Innet traffic (KB), Query 0, sigma_st=20%, w=3; rows=true ratio, cols=assumed ==");
    let stages = Rates::ratio_stages(5);
    let bench = Bench {
        query: query0,
        window: 3,
        n_pairs: 10,
        cycles: o.cycles(100),
    };
    print!("{:>10}", "true\\opt");
    for a in &stages {
        print!(" {:>10}", a.ratio_label());
    }
    println!();
    for true_r in &stages {
        print!("{:>10}", true_r.ratio_label());
        let mut diag_ok = true;
        let mut row = Vec::new();
        for assumed_r in &stages {
            let stats = bench.run_seeds(
                *true_r,
                sigma_of(*assumed_r),
                Algorithm::Innet,
                InnetOptions::PLAIN,
                o.seeds,
            );
            let (tot, _) = mean_ci(
                &stats
                    .iter()
                    .map(|s| kb(s.total_traffic_bytes() as f64))
                    .collect::<Vec<_>>(),
            );
            row.push(tot);
            print!(" {tot:>10.1}");
        }
        let true_idx = stages
            .iter()
            .position(|r| r.ratio_label() == true_r.ratio_label())
            .unwrap();
        let min = row.iter().cloned().fold(f64::INFINITY, f64::min);
        if row[true_idx] > min * 1.10 {
            diag_ok = false;
        }
        println!("  {}", if diag_ok { "(diag ok)" } else { "(diag off)" });
    }
}

// Figure 5: the 15 most-loaded nodes per algorithm.
fn fig5(o: &Opts) {
    println!(
        "== Figure 5: load (KB) of the 15 most-loaded nodes, Query 1, 1/2:1/2, sigma_st=20% =="
    );
    let bench = Bench {
        query: query1,
        window: 3,
        n_pairs: 0,
        cycles: o.cycles(100),
    };
    let rates = Rates::new(2, 2, 5);
    let algos: Vec<(Algorithm, InnetOptions, &str)> = vec![
        (Algorithm::Naive, InnetOptions::PLAIN, "Naive"),
        (Algorithm::Base, InnetOptions::PLAIN, "Base"),
        (Algorithm::Innet, InnetOptions::PLAIN, "Innet"),
        (Algorithm::Innet, InnetOptions::CM, "Innet-cm"),
        (Algorithm::Innet, InnetOptions::CMP, "Innet-cmp"),
        (Algorithm::Innet, InnetOptions::CMG, "Innet-cmg"),
        (Algorithm::Innet, InnetOptions::CMPG, "Innet-cmpg"),
    ];
    print!("{:>5}", "rank");
    for (_, _, n) in &algos {
        print!(" {n:>10}");
    }
    println!();
    let mut columns = Vec::new();
    for (algo, opts_a, _) in &algos {
        let stats = bench.run_seeds(rates, sigma_of(rates), *algo, *opts_a, o.seeds);
        // Average the rank profile across seeds.
        let mut avg = vec![0.0f64; 15];
        for s in &stats {
            for (i, l) in s.top_loads(15).iter().enumerate() {
                avg[i] += *l as f64 / stats.len() as f64;
            }
        }
        columns.push(avg);
    }
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
    let bench = Bench {
        query: query0,
        window: 3,
        n_pairs: 10,
        cycles: 1,
    };
    let rates = Rates::new(1, 1, 5);
    let mut d_base = Vec::new();
    let mut d_lat = Vec::new();
    let mut c_base = Vec::new();
    let mut c_lat = Vec::new();
    for seed in 0..o.seeds {
        let mut session = bench
            .scenario(
                rates,
                sigma_of(rates),
                Algorithm::Innet,
                InnetOptions::CMG,
                SEED_BASE + seed,
            )
            .build();
        session.step(0); // initiation only
        let out = session.report();
        d_base.push(kb(out.initiation.load_bytes(out.base) as f64));
        d_lat.push(out.initiation_cycles as f64);
        // Centralized on the same pairs.
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
        c_base.push(kb(cent.base_bytes as f64));
        c_lat.push(cent.latency_cycles as f64);
    }
    let (db, _) = mean_ci(&d_base);
    let (cb, _) = mean_ci(&c_base);
    let (dl, _) = mean_ci(&d_lat);
    let (cl, _) = mean_ci(&c_lat);
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
    for class in DensityClass::ALL {
        let mut o_hops = Vec::new();
        let mut d_hops = Vec::new();
        for seed in 0..o.seeds {
            let topo = TopologySpec::new(class, 100, 40 + seed).build();
            let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), 40 + seed)
                .with_pairs(10);
            let sub = MultiTreeSubstrate::build(
                &topo,
                3,
                aspen_join::scenario::default_indexed_attrs(),
                &data,
            );
            let spec = query0(3);
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
        let (om, _) = mean_ci(&o_hops);
        let (dm, _) = mean_ci(&d_hops);
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
    for (label, query, window, st_den) in [
        (
            "(a) Query 1, sigma_st=5%, w=3",
            query1 as fn(usize) -> _,
            3usize,
            20u16,
        ),
        (
            "(b) Query 2, sigma_st=10%, w=1",
            query2 as fn(usize) -> _,
            1usize,
            10u16,
        ),
    ] {
        println!("== Figure 8{label}: Innet-cmpg traffic (KB); rows=true ratio, cols=assumed ==");
        let stages = Rates::ratio_stages(st_den);
        let bench = Bench {
            query,
            window,
            n_pairs: 0,
            cycles: o.cycles(100),
        };
        print!("{:>10}", "true\\opt");
        for a in &stages {
            print!(" {:>10}", a.ratio_label());
        }
        println!();
        for true_r in &stages {
            print!("{:>10}", true_r.ratio_label());
            for assumed_r in &stages {
                let stats = bench.run_seeds(
                    *true_r,
                    sigma_of(*assumed_r),
                    Algorithm::Innet,
                    InnetOptions::CMPG,
                    o.seeds,
                );
                let (tot, _) = mean_ci(
                    &stats
                        .iter()
                        .map(|s| kb(s.total_traffic_bytes() as f64))
                        .collect::<Vec<_>>(),
                );
                print!(" {tot:>10.1}");
            }
            println!();
        }
    }
}

// Figure 9: (a) traffic vs duration; (b) MPO variants at long horizons.
// Both panels are sweep grids; durations vary the run length, so panel (a)
// is one grid per duration.
fn fig9(o: &Opts) {
    println!(
        "== Figure 9(a): total traffic (KB) vs duration, Query 2, w=1, 1/2:1/2 sigma_st=10% =="
    );
    let algos: Vec<(Algorithm, InnetOptions)> = vec![
        (Algorithm::Naive, InnetOptions::PLAIN),
        (Algorithm::Base, InnetOptions::PLAIN),
        (Algorithm::Ght, InnetOptions::PLAIN),
        (Algorithm::Innet, InnetOptions::PLAIN),
        (Algorithm::Innet, InnetOptions::CM),
        (Algorithm::Innet, InnetOptions::CMG),
        (Algorithm::Innet, InnetOptions::CMPG),
    ];
    let names = [
        "Naive",
        "Base",
        "GHT",
        "Innet",
        "Innet-cm",
        "Innet-cmg",
        "Innet-cmpg",
    ];
    let durations: Vec<u32> = if o.quick {
        vec![30, 90, 150]
    } else {
        vec![30, 60, 90, 120, 150, 180, 210, 240, 270, 300]
    };
    print!("{:>7}", "cycles");
    for n in &names {
        print!(" {n:>10}");
    }
    println!();
    for d in durations {
        let grid = SweepGrid {
            queries: vec![QueryId::Q2.into()],
            rates: vec![Rates::new(2, 2, 10)],
            algorithms: algos.clone(),
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
    ];
    let grid = SweepGrid {
        queries: vec![QueryId::Q2.into()],
        rates: [5u16, 10, 20].map(|st| Rates::new(2, 2, st)).to_vec(),
        algorithms: variants.map(|v| (Algorithm::Innet, v)).to_vec(),
        seeds: seed_range(o.seeds.min(3)),
        cycles: long,
        ..SweepGrid::default()
    };
    let report = grid.run();
    print!("{:>7}", "sig_st");
    for n in ["Innet", "Innet-cm", "Innet-cmg", "Innet-cmpg"] {
        print!(" {n:>10}");
    }
    println!();
    for st in [5u16, 10, 20] {
        let rates = Rates::new(2, 2, st);
        print!("{:>6.0}%", 100.0 / st as f64);
        for opts_a in variants {
            let cell = report
                .find(|c| c.rates == rates && c.opts == opts_a)
                .expect("cell in grid");
            print!(" {:>10.1}", kb(cell.stat("total_traffic_bytes").mean));
        }
        println!();
    }
}

// Figures 10-11: learning gain/loss matrices.
fn learning_matrix(
    o: &Opts,
    query: fn(usize) -> sensor_query::JoinQuerySpec,
    window: usize,
    n_pairs: usize,
    st_den: u16,
    cycles: u32,
    label: &str,
) {
    println!("== {label}: Innet-cmpg traffic (KB) static->learned; rows=true, cols=assumed ==");
    let stages = Rates::ratio_stages(st_den);
    let bench = Bench {
        query,
        window,
        n_pairs,
        cycles,
    };
    print!("{:>10}", "true\\opt");
    for a in &stages {
        print!(" {:>17}", a.ratio_label());
    }
    println!();
    for true_r in &stages {
        print!("{:>10}", true_r.ratio_label());
        for assumed_r in &stages {
            let static_stats = bench.run_seeds(
                *true_r,
                sigma_of(*assumed_r),
                Algorithm::Innet,
                InnetOptions::CMPG,
                o.seeds.min(3),
            );
            let learn_stats: Vec<Outcome> = (0..o.seeds.min(3))
                .map(|s| {
                    let sc = bench.scenario(
                        *true_r,
                        sigma_of(*assumed_r),
                        Algorithm::Innet,
                        InnetOptions::CMPG.with_learning(),
                        SEED_BASE + s,
                    );
                    run_stats(sc, cycles)
                })
                .collect();
            let (st, _) = mean_ci(
                &static_stats
                    .iter()
                    .map(|s| kb(s.total_traffic_bytes() as f64))
                    .collect::<Vec<_>>(),
            );
            let (ln, _) = mean_ci(
                &learn_stats
                    .iter()
                    .map(|s| kb(s.total_traffic_bytes() as f64))
                    .collect::<Vec<_>>(),
            );
            print!(" {st:>8.1}->{ln:<7.1}");
        }
        println!();
    }
}

fn fig10(o: &Opts) {
    let c = o.cycles(200);
    learning_matrix(o, query0, 3, 10, 5, c, "Figure 10(a) Query 0, sigma_st=20%");
    learning_matrix(o, query1, 3, 0, 20, c, "Figure 10(b) Query 1, sigma_st=5%");
    learning_matrix(o, query2, 1, 0, 10, c, "Figure 10(c) Query 2, sigma_st=10%");
}

fn fig11(o: &Opts) {
    for cycles in [200u32, 400, 800] {
        let c = if o.quick { cycles.min(200) } else { cycles };
        learning_matrix(
            o,
            query0,
            3,
            10,
            5,
            c,
            &format!("Figure 11 Query 0, sigma_st=20%, {c} cycles"),
        );
        if o.quick {
            break;
        }
    }
}

// Figure 12: spatial skew and temporal change.
fn fig12(o: &Opts) {
    let cycles = o.cycles(800);
    for (panel, mk_schedule) in [
        (
            "(a) spatial skew (west=Sel1, east=Sel2)",
            (|_c: u32| Schedule::SpatialSplit {
                west: Rates::SEL1,
                east: Rates::SEL2,
                split_x_dm: 1280,
            }) as fn(u32) -> Schedule,
        ),
        (
            "(b) temporal change (Sel1 then Sel2 at half-run)",
            (|c: u32| Schedule::TemporalSwitch {
                before: Rates::SEL1,
                after: Rates::SEL2,
                at_cycle: c / 2,
            }) as fn(u32) -> Schedule,
        ),
    ] {
        println!("== Figure 12{panel}: traffic (MB), {cycles} cycles ==");
        for (qname, query, window) in [
            ("Q1", query1 as fn(usize) -> _, 3usize),
            ("Q2", query2 as fn(usize) -> _, 1usize),
        ] {
            let bench = Bench {
                query,
                window,
                n_pairs: 0,
                cycles,
            };
            let cols: Vec<(&str, Sigma, bool)> = vec![
                ("Sel1", Sigma::from_rates(Rates::SEL1), false),
                ("Sel2", Sigma::from_rates(Rates::SEL2), false),
                ("Sel1 learn", Sigma::from_rates(Rates::SEL1), true),
                ("Sel2 learn", Sigma::from_rates(Rates::SEL2), true),
            ];
            print!("{qname:>3}:");
            for (name, assumed, learn) in cols {
                let opts_a = if learn {
                    InnetOptions::CMPG.with_learning()
                } else {
                    InnetOptions::CMPG
                };
                let vals: Vec<f64> = (0..o.seeds.min(3))
                    .map(|s| {
                        let sc = bench.scenario_with_schedule(
                            mk_schedule(cycles),
                            assumed,
                            Algorithm::Innet,
                            opts_a,
                            SEED_BASE + s,
                        );
                        mb(run_stats(sc, cycles).total_traffic_bytes() as f64)
                    })
                    .collect();
                let (m, _) = mean_ci(&vals);
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
    let configs: Vec<(&str, Algorithm, InnetOptions, Sigma)> = vec![
        (
            "Yang+07",
            Algorithm::Yang07,
            InnetOptions::PLAIN,
            Sigma::new(1.0, 1.0, 0.2),
        ),
        (
            "GHT/GPSR",
            Algorithm::Ght,
            InnetOptions::PLAIN,
            Sigma::new(1.0, 1.0, 0.2),
        ),
        (
            "Naive/Base",
            Algorithm::Naive,
            InnetOptions::PLAIN,
            Sigma::new(1.0, 1.0, 0.2),
        ),
        (
            "In-net",
            Algorithm::Innet,
            InnetOptions::CM,
            Sigma::new(1.0, 1.0, 0.2),
        ),
        (
            "In-net learn",
            Algorithm::Innet,
            InnetOptions::CM.with_learning(),
            // Initially optimized for sigma=100% everywhere: placement
            // starts at the base and migrates inward as estimates arrive.
            Sigma::new(1.0, 1.0, 1.0),
        ),
    ];
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>9}",
        "strategy", "total", "base", "max-node", "results"
    );
    for (name, algo, opts_a, assumed) in configs {
        let vals: Vec<(f64, f64, f64, f64)> = (0..o.seeds.min(3))
            .map(|s| {
                let data =
                    WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), 100 + s)
                        .with_humidity(&topo);
                let sc = Session::builder(topo.clone(), data)
                    .sim(SimConfig::default().with_seed(s))
                    .query(
                        query3(3),
                        AlgoConfig::new(algo, assumed).with_innet_options(opts_a),
                    )
                    .bare_wire();
                let st = run_stats(sc, cycles);
                (
                    kb(st.total_traffic_bytes() as f64),
                    kb(st.base_load_bytes() as f64),
                    kb(st.max_node_load_bytes() as f64),
                    st.results_total() as f64,
                )
            })
            .collect();
        let (t, _) = mean_ci(&vals.iter().map(|v| v.0).collect::<Vec<_>>());
        let (b, _) = mean_ci(&vals.iter().map(|v| v.1).collect::<Vec<_>>());
        let (m, _) = mean_ci(&vals.iter().map(|v| v.2).collect::<Vec<_>>());
        let (r, _) = mean_ci(&vals.iter().map(|v| v.3).collect::<Vec<_>>());
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
        let mut ok_delay = Vec::new();
        let mut fail_delay = Vec::new();
        let mut ok_kb = Vec::new();
        let mut fail_kb = Vec::new();
        for seed in 0..o.seeds {
            let bench = Bench {
                query: query0,
                window: 3,
                n_pairs: 1,
                cycles,
            };
            let rates = Rates::new(1, 1, st_den);
            let sc = || {
                bench.scenario(
                    rates,
                    sigma_of(rates),
                    Algorithm::Innet,
                    InnetOptions::PLAIN,
                    SEED_BASE + seed,
                )
            };
            let cs = run_stats(sc(), cycles);
            ok_delay.push(cs.avg_delay_tx());
            ok_kb.push(kb(cs.execution_traffic_bytes() as f64));
            let mut faulty = sc().build();
            faulty.step(0); // initiate, so the busiest join node is known
            if let Some(v) = faulty.busiest_join_node() {
                faulty.set_plan(DynamicsPlan::none().kill_nodes(cycles / 2, vec![v]));
                faulty.step(cycles);
                let fs = faulty.report();
                fail_delay.push(fs.avg_delay_tx());
                fail_kb.push(kb(fs.execution_traffic_bytes() as f64));
            }
        }
        let (od, _) = mean_ci(&ok_delay);
        let (fd, _) = mean_ci(&fail_delay);
        let (okb, _) = mean_ci(&ok_kb);
        let (fkb, _) = mean_ci(&fail_kb);
        println!(
            "{:>6.0}% {od:>12.1} {fd:>12.1} {okb:>12.2} {fkb:>12.2}",
            100.0 / st_den as f64
        );
    }
}

// Figures 16-18: routing-substrate path quality.
fn path_quality(
    topo: &sensor_net::Topology,
    trees: usize,
    sample_pairs: usize,
    seed: u64,
) -> (f64, u64) {
    let data = WorkloadData::new(topo, Schedule::Uniform(Rates::new(1, 1, 5)), seed);
    let sub = MultiTreeSubstrate::build(
        topo,
        trees,
        aspen_join::scenario::default_indexed_attrs(),
        &data,
    );
    let mut lens = Vec::new();
    let mut load = vec![0u64; topo.len()];
    let n = topo.len() as u16;
    let mut pairs_done = 0;
    let mut k = 0u64;
    while pairs_done < sample_pairs {
        // Deterministic pseudo-random pair sampling.
        k += 1;
        let a = NodeId(((k.wrapping_mul(2654435761)) % n as u64) as u16);
        let b = NodeId(((k.wrapping_mul(40503) + 7) % n as u64) as u16);
        if a == b {
            continue;
        }
        let q = SearchQuery::new(vec![(sensor_query::schema::ATTR_ID, Constraint::Eq(b.0))]);
        let (results, _) = find_paths(&sub, a, &q);
        let best = results.iter().map(|r| r.path.len() - 1).min();
        if let Some(len) = best {
            lens.push(len as f64);
            let path = &results
                .iter()
                .find(|r| r.path.len() - 1 == len)
                .unwrap()
                .path;
            for nd in path {
                load[nd.index()] += 1;
            }
        }
        pairs_done += 1;
    }
    let avg = lens.iter().sum::<f64>() / lens.len().max(1) as f64;
    (avg, load.into_iter().max().unwrap_or(0))
}

fn fig16(o: &Opts) {
    println!("== Figure 16: mote path quality — avg path length (hops) / max node load (paths) ==");
    let pairs = if o.quick { 200 } else { 1000 };
    println!(
        "{:>18} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "topology", "1 tree", "2 trees", "3 trees", "GPSR", "full graph"
    );
    for class in DensityClass::ALL {
        let topo = TopologySpec::new(class, 100, 77).build();
        let mut cells = Vec::new();
        for trees in 1..=3 {
            let (avg, max_load) = path_quality(&topo, trees, pairs, 77);
            cells.push(format!("{avg:5.2}/{max_load}"));
        }
        // GPSR.
        let router = GpsrRouter::new(&topo);
        let mut lens = Vec::new();
        let mut load = vec![0u64; topo.len()];
        let n = topo.len() as u16;
        for k in 0..pairs as u64 {
            let a = NodeId(((k.wrapping_mul(2654435761)) % n as u64) as u16);
            let b = NodeId(((k.wrapping_mul(40503) + 7) % n as u64) as u16);
            if a == b {
                continue;
            }
            if let Some(p) = router.route(&topo, a, b) {
                lens.push((p.len() - 1) as f64);
                for nd in &p {
                    load[nd.index()] += 1;
                }
            }
        }
        let gpsr_avg = lens.iter().sum::<f64>() / lens.len().max(1) as f64;
        cells.push(format!("{gpsr_avg:5.2}/{}", load.iter().max().unwrap()));
        // Full graph (BFS shortest paths).
        let mut lens = Vec::new();
        for k in 0..pairs as u64 {
            let a = NodeId(((k.wrapping_mul(2654435761)) % n as u64) as u16);
            let b = NodeId(((k.wrapping_mul(40503) + 7) % n as u64) as u16);
            if a == b {
                continue;
            }
            if let Some(h) = topo.hop_distance(a, b) {
                lens.push(h as f64);
            }
        }
        let full_avg = lens.iter().sum::<f64>() / lens.len().max(1) as f64;
        cells.push(format!("{full_avg:5.2}/-"));
        println!(
            "{:>18} {:>12} {:>12} {:>12} {:>12} {:>12}",
            class.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4]
        );
    }
}

fn fig17(o: &Opts) {
    println!(
        "== Figure 17: mesh path quality — avg path length / max node load; DHT instead of GPSR =="
    );
    let pairs = if o.quick { 200 } else { 1000 };
    println!(
        "{:>18} {:>12} {:>12} {:>12} {:>12}",
        "topology", "1 tree", "2 trees", "3 trees", "DHT"
    );
    for class in DensityClass::ALL {
        let topo = TopologySpec::new(class, 100, 78).build();
        let mut cells = Vec::new();
        for trees in 1..=3 {
            let (avg, max_load) = path_quality(&topo, trees, pairs, 78);
            cells.push(format!("{avg:5.2}/{max_load}"));
        }
        // On an IP mesh the DHT overlay only resolves the responsible
        // node; data then takes the direct shortest path (App. F: DHT
        // paths slightly beat GPSR, max load rises from hash imbalance).
        let dht = DhtOverlay::new(&topo);
        let mut lens = Vec::new();
        let mut load = vec![0u64; topo.len()];
        let n = topo.len() as u16;
        for k in 0..pairs as u64 {
            let a = NodeId(((k.wrapping_mul(2654435761)) % n as u64) as u16);
            let key = k.wrapping_mul(0x9E3779B97F4A7C15);
            let home = dht.home_for_key(key);
            if let Some(p) = topo.shortest_path(a, home) {
                lens.push((p.len() - 1) as f64);
                for nd in &p {
                    load[nd.index()] += 1;
                }
            }
        }
        let avg = lens.iter().sum::<f64>() / lens.len().max(1) as f64;
        cells.push(format!("{avg:5.2}/{}", load.iter().max().unwrap()));
        println!(
            "{:>18} {:>12} {:>12} {:>12} {:>12}",
            class.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }
}

fn fig18(o: &Opts) {
    println!(
        "== Figure 18: mesh scale-up — avg path length / max load per path, medium density =="
    );
    let pairs = if o.quick { 200 } else { 1000 };
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "nodes", "1 tree", "2 trees", "3 trees"
    );
    for nodes in [50usize, 100, 200] {
        let topo = TopologySpec::new(DensityClass::Medium, nodes, 79).build();
        let mut cells = Vec::new();
        for trees in 1..=3 {
            let (avg, max_load) = path_quality(&topo, trees, pairs, 79);
            cells.push(format!("{avg:5.2}/{:.2}", max_load as f64 / pairs as f64));
        }
        println!(
            "{:>10} {:>12} {:>12} {:>12}",
            nodes, cells[0], cells[1], cells[2]
        );
    }
}

// Figures 19-20: mesh-profile query runs (message counts, DHT grouped).
// One sweep grid over (ratio x sigma_st x algorithm); mesh profile means no
// snooping/path collapse (App. F), which holds for every algorithm here.
fn fig19_or_20(o: &Opts, q2: bool) {
    let (name, query) = if q2 {
        ("Figure 20 (Query 2, w=1, mesh)", QueryId::Q2)
    } else {
        ("Figure 19 (Query 1, w=3, mesh)", QueryId::Q1)
    };
    let st_dens = [5u16, 10, 20];
    let n_seeds = o.seeds.min(3);
    println!("== {name}: total msgs (1000s) / base msgs (1000s), {n_seeds} seeds ==");
    let algos: Vec<(Algorithm, InnetOptions)> = vec![
        (Algorithm::Naive, InnetOptions::PLAIN),
        (Algorithm::Base, InnetOptions::PLAIN),
        (Algorithm::Ght, InnetOptions::PLAIN),
        (Algorithm::Innet, InnetOptions::CMG),
    ];
    let grid = SweepGrid {
        queries: vec![query.into()],
        rates: Rates::ratio_stages(5)
            .iter()
            .flat_map(|stage| st_dens.map(|st| Rates::new(stage.s_den, stage.t_den, st)))
            .collect(),
        algorithms: algos.clone(),
        seeds: seed_range(n_seeds),
        cycles: o.cycles(100),
        ..SweepGrid::default()
    };
    let report = grid.run();
    print!("{:>10} {:>6}", "ratio", "sig_st");
    for n in ["Naive", "Base", "DHT", "Innet-cmg"] {
        print!(" {n:>15}");
    }
    println!();
    for stage in Rates::ratio_stages(5) {
        for st in st_dens {
            let rates = Rates::new(stage.s_den, stage.t_den, st);
            print!("{:>10} {:>5.0}%", rates.ratio_label(), 100.0 / st as f64);
            for &(algo, opts_a) in &algos {
                let cell = report
                    .find(|c| c.rates == rates && c.algo == algo && c.opts == opts_a)
                    .expect("cell in grid");
                print!(
                    " {:>8.2}/{:<6.2}",
                    cell.stat("total_traffic_msgs").mean / 1000.0,
                    cell.stat("base_load_msgs").mean / 1000.0
                );
            }
            println!();
        }
    }
}

// Appendix G: mobile leaf node.
fn appg(o: &Opts) {
    println!("== Appendix G: mobile leaf re-homing on the medium random topology ==");
    let mut delays = Vec::new();
    let mut bytes = Vec::new();
    for seed in 0..o.seeds.max(3) {
        let topo = TopologySpec::new(DensityClass::Medium, 100, 90 + seed).build();
        let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), seed);
        let sub = MultiTreeSubstrate::build(
            &topo,
            3,
            aspen_join::scenario::default_indexed_attrs(),
            &data,
        );
        // Move a leaf toward the centroid.
        let leaf = NodeId((topo.len() - 1) as u16);
        let mv = sensor_routing::mobility::move_leaf(&topo, &sub, leaf, topo.centroid());
        delays.push(mv.delay_cycles as f64);
        bytes.push(mv.traffic_bytes as f64);
    }
    let (d, _) = mean_ci(&delays);
    let (b, _) = mean_ci(&bytes);
    println!("update propagation: {d:.1} cycles, {b:.0} bytes (paper: 19.4 cycles, 1195 bytes)");
    println!(
        "max sustainable speed at 10 m range: {:.2} m/s (paper: ~0.5 m/s)",
        sensor_routing::mobility::max_speed_m_per_s(10.0, d as u32)
    );
}
