//! The one command-line grammar of the experiment binaries.
//!
//! Every binary declares, once, each flag it accepts with its [`Kind`],
//! and the names of its positional arguments; [`parse`] splits the command
//! line against that declaration. No binary reads `argv` any other way.
//!
//! **Flags** may appear anywhere, as `--flag V` or `--flag=V`: each token
//! is split into name and inline value once, so both forms take one code
//! path. A [`Kind::Bare`] switch such as `--shrink` takes no value. The
//! last occurrence of a flag wins. The kinds with a fixed domain (an
//! intensity in `[0, 1]`, a positive integer, `on|off`) are checked while
//! parsing, so a bad value is a usage error before anything runs. An
//! unknown `--flag` is a usage error: the diagnostic names it, suggests
//! the nearest accepted flag within edit distance 2, and lists every flag
//! the binary accepts.
//!
//! **Positionals** are the remaining tokens, matched in order to the
//! declared names; a final `name...` takes all the rest. A surplus
//! positional is a usage error, and so is a value that is present but
//! malformed: the diagnostic names the argument. An empty string counts as
//! absent, so `fig6 "" 0.4` runs fig6's default thresholds at scale 0.4.
//!
//! Every binary but `torture`, which builds its own execution contexts,
//! also accepts the shared flags ([`COMMON_FLAGS`]):
//!
//! * `--jobs N` — pool width (env `DEPBURST_JOBS`; default: available
//!   parallelism). `--jobs 1` reproduces the historical sequential
//!   harness exactly.
//! * `--point-timeout SECS` — per-point wall-clock watchdog (env
//!   `DEPBURST_POINT_TIMEOUT`; `0` disables).
//! * `--retries N` — retry budget for failed points (env
//!   `DEPBURST_RETRIES`; default 2).
//! * `--run-id ID` — start a fresh checkpoint store at
//!   `results/checkpoints/<ID>/` (directory `DEPBURST_CHECKPOINT_DIR`);
//!   every completed point is committed there as a cache envelope.
//! * `--resume ID` — resume that store, replaying completed points;
//!   output is byte-identical to an uninterrupted run.
//! * `--invariants MODE` — runtime invariant monitor mode (`off`,
//!   `cheap`, or `full`; env `DEPBURST_INVARIANTS`; default off). See
//!   `simx::invariants`.
//! * `--sampling SETTING` — sampled execution tier (`off`, `on`, or a
//!   measure fraction in (probe, 1); env `DEPBURST_SAMPLING`; default
//!   off). See `simx::sampling`.
//! * `--storage-faults SPEC` — storage-fault injection on the cache and
//!   checkpoint stores (`off`, an intensity in `[0, 1]`, `seed=N`,
//!   `crash=N`, comma-separated; env `DEPBURST_STORAGE_FAULTS`; default
//!   off — all durable I/O goes straight through the real filesystem).
//!   See `harness::vfs`.
//!
//! Exit codes are standardized across all binaries: **0** success, **1**
//! usage or internal error, **2** the run completed but some points
//! ultimately failed (a failure report was written to
//! `results/<exp>_failures.json` and summarized on stderr; for `torture`,
//! a durability contract was breached). No panics.

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use crate::cache::{CacheStats, SimCache};
use crate::run::ExecCtx;

/// The boxed error a binary's command body returns: `depburst_core`
/// errors and I/O or serialization errors both flow through it.
pub type CliResult = Result<(), Box<dyn std::error::Error>>;

/// What a flag takes on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Any value: the binary converts it with [`Args::get`] or reads it
    /// raw with [`Args::value`].
    Value,
    /// An intensity in `[0, 1]`.
    Intensity,
    /// An integer `>= 1`.
    Positive,
    /// `on` or `off`, read with [`Args::on`]; absent means off.
    OnOff,
    /// A switch that takes no value, read with [`Args::has`].
    Bare,
}

impl Kind {
    /// Checks a flag's value against this kind's domain.
    fn check(self, flag: &str, value: &str) -> Result<(), String> {
        match self {
            Kind::Value | Kind::Bare => Ok(()),
            Kind::Intensity => parse_as(flag, value, "an intensity in [0, 1]", |i: &f64| {
                (0.0..=1.0).contains(i)
            })
            .map(drop),
            Kind::Positive => {
                parse_as(flag, value, "a positive integer", |n: &usize| *n >= 1).map(drop)
            }
            Kind::OnOff => parse_as(flag, value, "on or off", |s: &String| {
                s == "on" || s == "off"
            })
            .map(drop),
        }
    }
}

/// A flag a binary accepts: its name, leading `--` included, and its kind.
pub type Flag = (&'static str, Kind);

/// The flags every binary but `torture` accepts (see the module docs).
pub const COMMON_FLAGS: [Flag; 8] = [
    ("--jobs", Kind::Positive),
    ("--point-timeout", Kind::Value),
    ("--retries", Kind::Value),
    ("--run-id", Kind::Value),
    ("--resume", Kind::Value),
    ("--invariants", Kind::Value),
    ("--sampling", Kind::Value),
    ("--storage-faults", Kind::Value),
];

/// Parses `value`, given for the argument `name`, as a `T` satisfying
/// `ok`, or fails with the usage diagnostic
/// `invalid NAME value "VALUE" (want WANT)`.
fn parse_as<T: FromStr>(
    name: &str,
    value: &str,
    want: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, String> {
    value
        .parse()
        .ok()
        .filter(|v| ok(v))
        .ok_or_else(|| format!("invalid {name} value {value:?} (want {want})"))
}

/// A command line split by [`parse`]: flag values and positionals, read
/// back by name (`"--out"` for a flag, `"scale"` for a positional).
#[derive(Debug, Default)]
pub struct Args {
    /// `(flag, value)` in command-line order; a bare switch's value is
    /// empty.
    flags: Vec<(&'static str, String)>,
    /// The declared positional names.
    names: &'static [&'static str],
    /// The positional values, in order.
    positionals: Vec<String>,
}

impl Args {
    /// The raw value of a flag (its last occurrence) or of a declared
    /// positional (absent when missing or empty).
    ///
    /// # Panics
    /// On a positional name the binary did not declare: a bug in the
    /// binary, not a usage error.
    pub fn value(&self, name: &str) -> Option<&str> {
        if name.starts_with("--") {
            let last = self.flags.iter().rev().find(|(flag, _)| *flag == name);
            last.map(|(_, value)| value.as_str())
        } else {
            let value = self.positionals.get(self.index(name));
            value.map(String::as_str).filter(|v| !v.is_empty())
        }
    }

    /// [`value`](Self::value) parsed as a `T`: `None` when absent.
    ///
    /// # Errors
    /// The usage diagnostic naming the argument when the value is present
    /// but malformed.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get_where(name, std::any::type_name::<T>(), |_| true)
    }

    /// [`get`](Self::get) for a value that must also satisfy `ok`; `want`
    /// describes the accepted values in the diagnostic.
    ///
    /// # Errors
    /// As [`get`](Self::get), and when the value fails `ok`.
    pub fn get_where<T: FromStr>(
        &self,
        name: &str,
        want: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| parse_as(name, v, want, ok))
            .transpose()
    }

    /// [`get`](Self::get) for an argument that must be present.
    ///
    /// # Errors
    /// As [`get`](Self::get), and `missing NAME` when it is absent.
    pub fn required<T: FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?.ok_or_else(|| format!("missing {name}"))
    }

    /// Whether a [`Kind::Bare`] switch was given.
    pub fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// Whether a [`Kind::OnOff`] flag is `on`.
    pub fn on(&self, flag: &str) -> bool {
        self.value(flag) == Some("on")
    }

    /// The positionals the final, variadic name (`benchmarks...`) takes.
    pub fn rest(&self, name: &str) -> &[String] {
        &self.positionals[self.index(name).min(self.positionals.len())..]
    }

    fn index(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("positional {name} is not declared"))
    }
}

/// Splits `argv` against a binary's accepted `flags` and declared
/// positional `names` (see the module docs for the grammar).
///
/// # Errors
/// A usage error: an unknown flag, a missing or out-of-domain flag value,
/// a value given to a bare switch, or a surplus positional.
pub fn parse(
    argv: &[String],
    flags: &[Flag],
    names: &'static [&'static str],
) -> Result<Args, String> {
    let mut args = Args {
        names,
        ..Args::default()
    };
    let mut tokens = argv.iter();
    while let Some(token) = tokens.next() {
        if !token.starts_with("--") {
            args.positionals.push(token.clone());
            continue;
        }
        let (name, inline) = match token.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (token.as_str(), None),
        };
        let &(flag, kind) = flags
            .iter()
            .find(|(f, _)| *f == name)
            .ok_or_else(|| unknown_flag_error(name, flags))?;
        let value = match (kind, inline) {
            (Kind::Bare, None) => String::new(),
            (Kind::Bare, Some(_)) => return Err(format!("{flag} takes no value")),
            (_, Some(value)) => value.to_owned(),
            (_, None) => tokens
                .next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))?,
        };
        kind.check(flag, &value)?;
        args.flags.push((flag, value));
    }
    let variadic = names.last().is_some_and(|n| n.ends_with("..."));
    match args.positionals.get(names.len()) {
        Some(surplus) if !variadic => {
            let usage = if names.is_empty() {
                "none".to_owned()
            } else {
                names.join(" ")
            };
            Err(format!(
                "unexpected argument {surplus:?} (positional arguments: {usage})"
            ))
        }
        _ => Ok(args),
    }
}

/// Renders the unknown-flag usage error: the offending flag, a
/// nearest-valid-flag suggestion when one is within edit distance 2, and
/// the full list of flags this binary accepts.
fn unknown_flag_error(flag: &str, flags: &[Flag]) -> String {
    let mut known: Vec<&str> = flags.iter().map(|(name, _)| *name).collect();
    known.sort_unstable();
    let suggestion = known
        .iter()
        .map(|k| (edit_distance(flag, k), *k))
        .filter(|(d, _)| *d <= 2)
        .min()
        .map(|(_, k)| format!(" (did you mean {k}?)"))
        .unwrap_or_default();
    format!(
        "unknown flag {flag}{suggestion}; valid flags: {}",
        known.join(", ")
    )
}

/// Levenshtein distance between two short flag names (classic
/// two-row dynamic program; inputs are a handful of bytes, so no
/// cleverness needed).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut row = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            row[j + 1] = substitute.min(prev[j + 1] + 1).min(row[j] + 1);
        }
        std::mem::swap(&mut prev, &mut row);
    }
    prev[b.len()]
}

/// The shared flags of a command line, converted, and the rest of it.
#[derive(Debug)]
pub struct CommonOpts {
    /// `--jobs N`.
    pub jobs: Option<usize>,
    /// `--point-timeout SECS`: `Some(None)` = explicit `0` (disable),
    /// `Some(Some(d))` = a budget, `None` = not given (use the env).
    pub point_timeout: Option<Option<Duration>>,
    /// `--retries N`.
    pub retries: Option<u32>,
    /// `--run-id ID`.
    pub run_id: Option<String>,
    /// `--resume ID`.
    pub resume: Option<String>,
    /// `--invariants MODE`.
    pub invariants: Option<simx::InvariantMode>,
    /// `--sampling SETTING`: `Some(None)` = explicit `off`,
    /// `Some(Some(cfg))` = the sampled tier, `None` = not given (use the
    /// env).
    pub sampling: Option<Option<simx::SamplingConfig>>,
    /// `--storage-faults SPEC`: `Some(None)` = explicit `off`,
    /// `Some(Some(cfg))` = an injector, `None` = not given (use the env).
    pub storage_faults: Option<Option<crate::vfs::StorageFaultConfig>>,
    /// The binary's own flags and its positionals.
    pub args: Args,
}

/// [`parse`] with the shared flags accepted alongside the binary's own
/// `flags`, converting the shared ones.
///
/// # Errors
/// A usage error from [`parse`] or from a shared flag's value.
pub fn parse_common(
    argv: &[String],
    flags: &[Flag],
    names: &'static [&'static str],
) -> Result<CommonOpts, String> {
    let accepted: Vec<Flag> = COMMON_FLAGS.iter().chain(flags).copied().collect();
    let args = parse(argv, &accepted, names)?;
    let timeout = args.get_where("--point-timeout", "seconds >= 0", |s: &f64| {
        *s >= 0.0 && s.is_finite()
    })?;
    let invariants = args.value("--invariants").map(|v| {
        simx::InvariantMode::parse(v)
            .ok_or_else(|| format!("invalid --invariants value {v:?} (want off, cheap, or full)"))
    });
    let sampling = args.value("--sampling").map(|v| {
        crate::run::parse_sampling_setting(v).map_err(|e| format!("invalid --sampling value: {e}"))
    });
    let storage_faults = args.value("--storage-faults").map(|v| {
        crate::vfs::parse_storage_faults(v)
            .map_err(|e| format!("invalid --storage-faults value: {e}"))
    });
    Ok(CommonOpts {
        jobs: args.get("--jobs")?,
        point_timeout: timeout.map(|s| (s > 0.0).then(|| Duration::from_secs_f64(s))),
        retries: args.get("--retries")?,
        run_id: args.value("--run-id").map(str::to_owned),
        resume: args.value("--resume").map(str::to_owned),
        invariants: invariants.transpose()?,
        sampling: sampling.transpose()?,
        storage_faults: storage_faults.transpose()?,
        args,
    })
}

/// Refuses the sampled execution tier for an experiment that
/// characterizes machines from full two-point runs (the fleet and the
/// thermal matrix): silently accepting it would misreport coverage.
///
/// # Errors
/// `UnsupportedOption` naming `--sampling` when `ctx` samples.
pub fn require_exact(ctx: &ExecCtx, experiment: &str) -> Result<(), depburst_core::DepburstError> {
    match ctx.sampling {
        None => Ok(()),
        Some(_) => Err(depburst_core::DepburstError::UnsupportedOption {
            option: "--sampling".to_owned(),
            detail: format!(
                "{experiment} characterizes machines from full two-point runs; \
                 the sampled tier applies to the point pipeline only"
            ),
        }),
    }
}

/// Reads the test-only `DEPBURST_BREAK_INVARIANT` sabotage hook: CI sets
/// it to an invariant name to deliberately weaken that check and prove
/// the detector (and its reporting path) actually fires. Unset in every
/// real run.
///
/// # Errors
/// Returns a usage error when the value names no invariant.
pub fn sabotage_from_env() -> Result<Option<simx::Invariant>, String> {
    match std::env::var("DEPBURST_BREAK_INVARIANT") {
        Err(_) => Ok(None),
        Ok(name) => match simx::Invariant::from_name(name.trim()) {
            Some(inv) => Ok(Some(inv)),
            None => Err(format!(
                "DEPBURST_BREAK_INVARIANT={name:?} names no invariant (see simx::invariants)"
            )),
        },
    }
}

/// Writes a binary's JSON report to `out` (its `--out PATH` value) or,
/// without one, to `default`, creating the parent directory. Returns the
/// path written.
///
/// # Errors
/// Directory creation or the write itself failing.
pub fn write_report(out: Option<&str>, default: &str, json: &str) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(out.unwrap_or(default));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, json)?;
    Ok(path)
}

/// [`write_report`] plus the rendered text report beside the JSON: same
/// path, `.txt` extension. Returns the JSON path written.
///
/// # Errors
/// Directory creation or either write failing.
pub fn write_reports(
    out: Option<&str>,
    default: &str,
    json: &str,
    text: &str,
) -> std::io::Result<PathBuf> {
    let path = write_report(out, default, json)?;
    std::fs::write(path.with_extension("txt"), text)?;
    Ok(path)
}

/// Builds the execution context `opts` asks for: environment defaults,
/// overridden by the explicit flags, plus the checkpoint store when a
/// run id was given (`--resume` wins over `--run-id`).
pub fn build_ctx(opts: &CommonOpts) -> std::io::Result<ExecCtx> {
    if let Some(mode) = opts.invariants {
        // Machines read DEPBURST_INVARIANTS at construction; exporting the
        // flag's value here — before any pool worker builds one — makes
        // the flag and the environment variable exactly equivalent.
        std::env::set_var("DEPBURST_INVARIANTS", mode.as_str());
    }
    let mut ctx = ExecCtx::from_env(opts.jobs);
    if let Some(timeout) = opts.point_timeout {
        ctx.point_timeout = timeout;
    }
    if let Some(retries) = opts.retries {
        ctx.policy.retries = retries;
    }
    if let Some(sampling) = opts.sampling {
        ctx.sampling = sampling;
    }
    match opts.storage_faults {
        // Explicit `--storage-faults off` clears an env-installed one.
        Some(None) => ctx = ctx.without_storage(),
        Some(Some(cfg)) => ctx = ctx.with_storage_faults(cfg),
        None => {}
    }
    // An invalid run id is a usage error, but a checkpoint store that
    // cannot be prepared is a *degraded* run, not a dead one:
    // checkpointing is best-effort (mirroring how persist and fsync
    // failures are counted, never fatal), so the sweep proceeds
    // non-resumable with a loud warning instead of dying before it starts.
    let checkpoint = match (&opts.resume, &opts.run_id) {
        (Some(id), _) => Some((id, false)),
        (None, Some(id)) => Some((id, true)),
        (None, None) => None,
    };
    if let Some((id, fresh)) = checkpoint {
        let root = SimCache::checkpoint_root(id)?;
        if let Err(e) = ctx.open_checkpoint(&root, fresh) {
            eprintln!(
                "warning: cannot open checkpoint {}: {e}; this run will not be resumable",
                root.display()
            );
        }
    }
    Ok(ctx)
}

/// Parses the command line (the shared flags plus the binary's own
/// `flags` and positional `names`), builds the execution context, runs
/// `body`, then writes/clears the experiment's failure report and
/// translates the outcome into the standardized exit codes (0 ok, 1
/// usage/internal error, 2 point failures).
pub fn main_with(
    experiment: &str,
    flags: &[Flag],
    names: &'static [&'static str],
    body: impl FnOnce(&ExecCtx, &Args) -> CliResult,
) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let setup = || -> Result<(ExecCtx, Args), Box<dyn std::error::Error>> {
        let opts = parse_common(&argv, flags, names)?;
        Ok((build_ctx(&opts)?, opts.args))
    };
    match setup() {
        Ok((ctx, args)) => {
            let result = body(&ctx, &args);
            finish(experiment, &ctx, result)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Warns about a store's lost entries: failed persists (those points
/// `lost`) and failed fsyncs.
fn warn_store(store: &str, stats: CacheStats, lost: &str) {
    if stats.persist_failures > 0 {
        eprintln!(
            "warning: {} {store} persist attempt(s) failed; those points {lost}",
            stats.persist_failures
        );
    }
    if stats.fsync_failures > 0 {
        eprintln!(
            "warning: {} {store} fsync(s) failed; those entries may not survive a crash",
            stats.fsync_failures
        );
    }
}

/// The exit code for "the sweep ran but some points ultimately failed".
pub const EXIT_POINT_FAILURES: u8 = 2;

fn finish(experiment: &str, ctx: &ExecCtx, result: CliResult) -> ExitCode {
    warn_store("cache", ctx.cache.stats(), "will re-simulate next run");
    if let Some(checkpoint) = ctx.checkpoint() {
        warn_store("checkpoint", checkpoint.stats(), "are not resumable");
    }
    if let Some(storage) = ctx.storage() {
        let s = storage.stats();
        eprintln!(
            "storage faults: {} ops, {} torn writes, {} dropped fsyncs, {} rename failures, \
             {} enospc, {} corrupted reads{}",
            s.ops,
            s.torn_writes,
            s.dropped_fsyncs,
            s.rename_failures,
            s.enospc_failures,
            s.corrupted_reads,
            if s.crashed { ", CRASHED" } else { "" }
        );
        // A fired crash point escalates to a structured storage failure:
        // the run must exit through the failure-report path, never as a
        // clean success over half-written state.
        if let Some(failure) = ctx.storage_failure() {
            ctx.record_failure(failure);
        }
    }
    let report_path = format!("results/{experiment}_failures.json");
    let report = ctx.failure_report(experiment);
    match &report {
        Some(report) => {
            match serde_json::to_string_pretty(report) {
                Ok(json) => {
                    let written = std::fs::create_dir_all("results")
                        .and_then(|()| std::fs::write(&report_path, json));
                    match written {
                        Ok(()) => eprintln!("wrote {report_path}"),
                        Err(e) => eprintln!("warning: could not write {report_path}: {e}"),
                    }
                }
                Err(e) => eprintln!("warning: could not serialize the failure report: {e}"),
            }
            eprintln!("{}", report.summary_line());
        }
        // A clean run clears any stale report from a previous failed one.
        None => {
            let _ = std::fs::remove_file(&report_path);
        }
    }
    match result {
        Ok(()) if report.is_none() => ExitCode::SUCCESS,
        Ok(()) => ExitCode::from(EXIT_POINT_FAILURES),
        Err(e) => {
            eprintln!("error: {e}");
            if report.is_some() {
                ExitCode::from(EXIT_POINT_FAILURES)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    /// The shared flags alone, with no positionals declared.
    fn common(v: &[&str]) -> Result<CommonOpts, String> {
        parse_common(&strs(v), &[], &[])
    }

    #[test]
    fn jobs_takes_both_forms_and_rejects_bad_values() {
        let opts = parse_common(&strs(&["0.1", "--jobs", "4", "2"]), &[], &["scale", "seed"]);
        let opts = opts.unwrap();
        assert_eq!(opts.jobs, Some(4));
        assert_eq!(opts.args.value("scale"), Some("0.1"));
        assert_eq!(opts.args.value("seed"), Some("2"));
        assert_eq!(common(&["--jobs=2"]).unwrap().jobs, Some(2));
        assert_eq!(common(&[]).unwrap().jobs, None);
        assert!(common(&["--jobs"]).is_err(), "missing value");
        assert!(common(&["--jobs", "zero"]).is_err());
        assert!(common(&["--jobs=0"]).is_err());
        let err = common(&["--jobs", "0"]).expect_err("zero workers");
        assert_eq!(err, "invalid --jobs value \"0\" (want a positive integer)");
    }

    #[test]
    fn parse_common_strips_all_shared_flags() {
        let opts = parse_common(
            &strs(&[
                "0.1",
                "--jobs",
                "4",
                "--point-timeout=2.5",
                "--retries",
                "1",
                "--run-id",
                "nightly",
                "7",
            ]),
            &[],
            &["scale", "seed"],
        )
        .unwrap();
        assert_eq!(opts.jobs, Some(4));
        assert_eq!(opts.point_timeout, Some(Some(Duration::from_secs_f64(2.5))));
        assert_eq!(opts.retries, Some(1));
        assert_eq!(opts.run_id.as_deref(), Some("nightly"));
        assert_eq!(opts.resume, None);
        assert_eq!(
            opts.args.value("scale"),
            Some("0.1"),
            "positional order survives"
        );
        assert_eq!(opts.args.value("seed"), Some("7"));
    }

    #[test]
    fn parse_common_timeout_zero_disables() {
        let opts = common(&["--point-timeout", "0"]).unwrap();
        assert_eq!(opts.point_timeout, Some(None));
        assert!(common(&["--point-timeout", "-1"]).is_err());
        assert!(common(&["--point-timeout", "inf"]).is_err());
        assert!(common(&["--retries", "-1"]).is_err());
        assert!(common(&["--resume"]).is_err());
    }

    #[test]
    fn binary_flags_take_both_forms_in_one_path() {
        let flags = [("--panic-point", Kind::Intensity), ("--out", Kind::Value)];
        let args = parse(
            &strs(&["a", "--panic-point", "0.5", "b"]),
            &flags,
            &["x", "y"],
        )
        .unwrap();
        assert_eq!(args.get::<f64>("--panic-point").unwrap(), Some(0.5));
        assert_eq!(args.value("x"), Some("a"));
        assert_eq!(args.value("y"), Some("b"));
        let args = parse(&strs(&["--panic-point=1.0"]), &flags, &[]).unwrap();
        assert_eq!(args.get::<f64>("--panic-point").unwrap(), Some(1.0));
        // Only the first `=` splits: the rest belongs to the value.
        let args = parse(&strs(&["--out=a=b"]), &flags, &[]).unwrap();
        assert_eq!(args.value("--out"), Some("a=b"));
        // The last occurrence wins.
        let args = parse(&strs(&["--out", "a", "--out=b"]), &flags, &[]).unwrap();
        assert_eq!(args.value("--out"), Some("b"));
        assert_eq!(args.value("--panic-point"), None);
        let err = parse(&strs(&["--panic-point"]), &flags, &[]).expect_err("no value");
        assert_eq!(err, "--panic-point requires a value");
    }

    #[test]
    fn kinds_are_checked_while_parsing() {
        let flags = [
            ("--chaos", Kind::Intensity),
            ("--shards", Kind::Positive),
            ("--thermal", Kind::OnOff),
            ("--shrink", Kind::Bare),
        ];
        let parse = |v: &[&str]| parse(&strs(v), &flags, &[]);
        for bad in ["1.5", "-0.1", "NaN", "x"] {
            let err = parse(&["--chaos", bad]).expect_err(bad);
            assert!(err.contains("invalid --chaos value"), "{err}");
            assert!(err.contains("(want an intensity in [0, 1])"), "{err}");
        }
        assert!(parse(&["--chaos=0"]).is_ok() && parse(&["--chaos", "1"]).is_ok());
        for bad in ["0", "-1", "2.5"] {
            let err = parse(&["--shards", bad]).expect_err(bad);
            assert!(err.contains("(want a positive integer)"), "{err}");
        }
        assert_eq!(
            parse(&["--shards=3"])
                .unwrap()
                .get::<usize>("--shards")
                .unwrap(),
            Some(3)
        );
        let err = parse(&["--thermal", "yes"]).expect_err("not on|off");
        assert_eq!(err, "invalid --thermal value \"yes\" (want on or off)");
        assert!(parse(&["--thermal=on"]).unwrap().on("--thermal"));
        assert!(!parse(&["--thermal", "off"]).unwrap().on("--thermal"));
        assert!(!parse(&[]).unwrap().on("--thermal"), "absent means off");
        // A bare switch takes no value, so the next token stays positional.
        assert!(parse(&["--shrink"]).unwrap().has("--shrink"));
        assert!(!parse(&[]).unwrap().has("--shrink"));
        assert_eq!(
            parse(&["--shrink=1"]).expect_err("bare"),
            "--shrink takes no value"
        );
        assert!(parse(&["--shrink", "1"]).is_err(), "no positional declared");
    }

    #[test]
    fn positionals_are_strict_and_empty_means_absent() {
        let names = &["scale", "seed"];
        let args = parse(&strs(&["", "7"]), &[], names).unwrap();
        assert_eq!(
            args.get::<f64>("scale").unwrap(),
            None,
            "empty counts as absent"
        );
        assert_eq!(args.get::<u64>("seed").unwrap(), Some(7));
        let args = parse(&strs(&["abc"]), &[], names).unwrap();
        let err = args.get::<f64>("scale").expect_err("malformed");
        assert_eq!(err, "invalid scale value \"abc\" (want f64)");
        assert_eq!(args.get::<u64>("seed").unwrap(), None, "missing is absent");
        assert_eq!(
            args.required::<u64>("seed").expect_err("missing"),
            "missing seed"
        );
        let err = parse(&strs(&["1", "2", "3"]), &[], names).expect_err("surplus");
        assert_eq!(
            err,
            "unexpected argument \"3\" (positional arguments: scale seed)"
        );
        let err = parse(&strs(&["x"]), &[], &[]).expect_err("none declared");
        assert_eq!(
            err,
            "unexpected argument \"x\" (positional arguments: none)"
        );
        // A final `name...` takes the rest.
        let names = &["scale", "benchmarks..."];
        let args = parse(&strs(&["0.1", "a", "b"]), &[], names).unwrap();
        assert_eq!(args.rest("benchmarks..."), strs(&["a", "b"]));
        let args = parse(&strs(&[]), &[], names).unwrap();
        assert!(args.rest("benchmarks...").is_empty());
    }

    #[test]
    fn unknown_flags_are_diagnosed_with_suggestion_and_list() {
        let err = common(&["--job", "4"]).expect_err("unknown flag");
        assert!(err.contains("unknown flag --job"), "got: {err}");
        assert!(err.contains("did you mean --jobs?"), "got: {err}");
        for (flag, _) in COMMON_FLAGS {
            assert!(err.contains(flag), "valid list must include {flag}: {err}");
        }
        // The `=`-form reports the bare flag name.
        let err = common(&["--restries=1"]).expect_err("typo");
        assert!(err.contains("unknown flag --restries"), "got: {err}");
        assert!(err.contains("did you mean --retries?"), "got: {err}");
        // A flag nothing resembles gets the list but no suggestion.
        let err = common(&["--frobnicate"]).expect_err("unknown");
        assert!(!err.contains("did you mean"), "got: {err}");
        assert!(err.contains("valid flags:"), "got: {err}");
    }

    #[test]
    fn binary_flags_join_the_diagnostic() {
        let flags = [("--panic-point", Kind::Intensity)];
        let opts = parse_common(&strs(&["--panic-point", "0.5", "--jobs=2"]), &flags, &[]);
        let opts = opts.unwrap();
        assert_eq!(opts.jobs, Some(2));
        assert_eq!(opts.args.value("--panic-point"), Some("0.5"));
        // A typo of the binary-specific flag is suggested too.
        let err = parse_common(&strs(&["--panic-pont=1.0"]), &flags, &[]).expect_err("typo");
        assert!(err.contains("did you mean --panic-point?"), "got: {err}");
        // Without the declaration it is unknown.
        assert!(common(&["--panic-point=1.0"]).is_err());
        // `parse` alone accepts only what it is given: no shared flags.
        let err = parse(&strs(&["--jobs", "2"]), &flags, &[]).expect_err("not shared");
        assert_eq!(err, "unknown flag --jobs; valid flags: --panic-point");
    }

    #[test]
    fn invariants_flag_parses_all_modes() {
        let opts = common(&["--invariants", "full"]).unwrap();
        assert_eq!(opts.invariants, Some(simx::InvariantMode::Full));
        let opts = common(&["--invariants=cheap"]).unwrap();
        assert_eq!(opts.invariants, Some(simx::InvariantMode::Cheap));
        let opts = common(&["--invariants=off"]).unwrap();
        assert_eq!(opts.invariants, Some(simx::InvariantMode::Off));
        assert!(common(&["--invariants", "loud"]).is_err());
        assert_eq!(common(&[]).unwrap().invariants, None);
    }

    #[test]
    fn sampling_flag_parses_all_settings() {
        let opts = common(&["--sampling", "on"]).unwrap();
        assert_eq!(opts.sampling, Some(Some(simx::SamplingConfig::default())));
        let opts = common(&["--sampling=off"]).unwrap();
        assert_eq!(opts.sampling, Some(None));
        let opts = common(&["--sampling=0.5"]).unwrap();
        let cfg = opts.sampling.flatten().expect("fraction enables sampling");
        assert_eq!(cfg.measure_fraction, 0.5);
        assert_eq!(
            cfg.probe_fraction,
            simx::SamplingConfig::default().probe_fraction
        );
        // Fractions outside (probe, 1) and junk are usage errors.
        assert!(common(&["--sampling", "1.5"]).is_err());
        assert!(common(&["--sampling", "0.01"]).is_err());
        assert!(common(&["--sampling", "sometimes"]).is_err());
        assert_eq!(common(&[]).unwrap().sampling, None);
    }

    #[test]
    fn storage_faults_flag_parses_specs() {
        let opts = common(&["--storage-faults", "off"]).unwrap();
        assert_eq!(opts.storage_faults, Some(None));
        let opts = common(&["--storage-faults=0.2,seed=7"]).unwrap();
        let cfg = opts.storage_faults.flatten().expect("injector on");
        assert_eq!(cfg.seed, 7);
        assert!(cfg.torn_write > 0.0);
        let opts = common(&["--storage-faults=crash=12"]).unwrap();
        assert_eq!(
            opts.storage_faults
                .flatten()
                .expect("crash mode")
                .crash_after,
            Some(12)
        );
        assert!(common(&["--storage-faults", "2.0"]).is_err());
        assert_eq!(common(&[]).unwrap().storage_faults, None);
    }

    #[test]
    fn edit_distance_is_the_usual_levenshtein() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("--jobs", "--jobs"), 0);
        assert_eq!(edit_distance("--job", "--jobs"), 1);
        assert_eq!(edit_distance("--restries", "--retries"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn build_ctx_applies_overrides() {
        let opts = common(&["--jobs=3", "--retries=0", "--point-timeout=1.5"]).unwrap();
        let ctx = build_ctx(&opts).expect("no checkpoint requested");
        assert_eq!(ctx.jobs, 3);
        assert_eq!(ctx.policy.retries, 0);
        assert_eq!(ctx.point_timeout, Some(Duration::from_secs_f64(1.5)));
        assert!(ctx.checkpoint().is_none());
        // A bad run id is a usage error, not a panic.
        let bad = common(&["--run-id", "../escape"]).unwrap();
        assert!(build_ctx(&bad).is_err());
    }

    #[test]
    fn unwritable_journal_degrades_the_run_instead_of_killing_it() {
        // crash=0 fails the very first VFS operation, so the checkpoint
        // store can never be prepared: the context must still build —
        // checkpointing is best-effort — just without a checkpoint. The id
        // is still validated strictly even on that path.
        let opts = common(&["--run-id", "cli-degraded", "--storage-faults", "crash=0"]).unwrap();
        let ctx = build_ctx(&opts).expect("degraded, not dead");
        assert!(ctx.checkpoint().is_none());
        assert!(ctx.storage().expect("injector installed").crashed());
        let bad = common(&["--run-id", "../escape", "--storage-faults", "crash=0"]).unwrap();
        assert!(build_ctx(&bad).is_err(), "id validation must stay hard");
    }

    #[test]
    fn reports_go_to_out_with_the_text_beside_the_json() {
        let dir = std::env::temp_dir().join(format!("depburst-cli-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.join("nested").join("sweep.json");
        let path = write_reports(out.to_str(), "results/never.json", "{}", "table\n")
            .expect("writes both");
        assert_eq!(path, out);
        assert_eq!(std::fs::read_to_string(&out).expect("json"), "{}");
        assert_eq!(
            std::fs::read_to_string(dir.join("nested").join("sweep.txt")).expect("text"),
            "table\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
