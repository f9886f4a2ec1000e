//! `bench` — the benchmark's command line.
//!
//! ```text
//! bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//!     One run of one workload (S defaults to 15). The last line of
//!     standard output is the result: {"correct", "attempted", "failed",
//!     "metrics"}; the line before it is the output digest.
//! bench [--seed N] [--runs R] [--seconds S] [--traced]
//!     The suite: R runs per workload (default 5), each in its own child
//!     process, plus one traced run with --traced; prints every metric's
//!     median, quartiles, extremes and sample count and writes
//!     target/bench/results.json.
//! bench --compare A.json B.json
//!     Verdict per workload and end-to-end metric: better, worse, within
//!     bound, or unresolved. Exits 1 if any is worse or if the two sides'
//!     outputs differ.
//! ```
//!
//! Seed 1 is the default; seed 2 is held out for confirming a claimed
//! gain on inputs the change was not tuned on.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::run::{self, DEFAULT_SECONDS};
use perfbench::suite;
use perfbench::workloads::{self, Spec, Workload};

fn usage() -> String {
    "usage: bench --workload W [--seed N] [--seconds S] [--trace 0|1]\n       \
     bench [--seed N] [--runs R] [--seconds S] [--traced]\n       \
     bench --compare A.json B.json"
        .to_owned()
}

/// Parsed command line: `--flag value` pairs and bare switches.
struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    const SWITCHES: [&str; 1] = ["--traced"];
    const VALUED: [&str; 5] = ["--workload", "--seed", "--seconds", "--trace", "--runs"];
    let mut args = Args {
        values: Vec::new(),
        switches: Vec::new(),
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if SWITCHES.contains(&flag.as_str()) {
            args.switches.push(flag.clone());
        } else if flag == "--compare" {
            let (Some(a), Some(b)) = (it.next(), it.next()) else {
                return Err("--compare needs two result files".into());
            };
            args.compare = Some((a.into(), b.into()));
        } else if VALUED.contains(&flag.as_str()) {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            args.values.push((flag.clone(), value.clone()));
        } else {
            return Err(format!("unknown argument {flag:?}"));
        }
    }
    Ok(args)
}

impl Args {
    fn get(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.get(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("invalid {flag} value {v:?}"))
        })
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })
}

fn single_run(args: &Args, name: &str) -> Result<ExitCode, String> {
    let w = workload(name)?;
    let spec = Spec {
        workload: w,
        seed: args.num("--seed", 1u64)?,
        size: w.size(),
        jobs: 1,
        scratch: run::out_dir().join("tmp"),
    };
    let seconds: f64 = args.num("--seconds", DEFAULT_SECONDS as f64)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let traced = match args.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let report = run::run(&spec, seconds, traced);
    for (m, v) in &report.metrics {
        eprintln!("{:<42} {:>14.4} {}", m.name, v, m.unit);
    }
    println!("digest {}", report.digest);
    println!("{}", report.json_line());
    Ok(ExitCode::SUCCESS)
}

fn main_inner(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse(argv)?;
    if let Some((a, b)) = &args.compare {
        return suite::compare(a, b).map(ExitCode::from);
    }
    if let Some(name) = args.get("--workload") {
        return single_run(&args, name);
    }
    let plan = suite::Plan {
        seed: args.num("--seed", 1)?,
        runs: args.num("--runs", 5usize)?.max(1),
        seconds: args.num("--seconds", DEFAULT_SECONDS)?.max(1),
        traced: args.has("--traced"),
    };
    suite::run(&plan).map(ExitCode::from)
}

fn main() -> ExitCode {
    perfbench::scrub_environment();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: {e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
