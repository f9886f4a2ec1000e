//! Shared command-line plumbing for the experiment binaries.
//!
//! Every binary accepts, anywhere on the command line (both `--flag V`
//! and `--flag=V` forms):
//!
//! * `--jobs N` — pool width (env `DEPBURST_JOBS`; default: available
//!   parallelism). `--jobs 1` reproduces the historical sequential
//!   harness exactly.
//! * `--point-timeout SECS` — per-point wall-clock watchdog (env
//!   `DEPBURST_POINT_TIMEOUT`; `0` disables).
//! * `--retries N` — retry budget for failed points (env
//!   `DEPBURST_RETRIES`; default 2).
//! * `--run-id ID` — start a fresh checkpoint journal at
//!   `results/checkpoints/<ID>.jsonl`.
//! * `--resume ID` — resume that journal, replaying completed points;
//!   output is byte-identical to an uninterrupted run.
//! * `--invariants MODE` — runtime invariant monitor mode (`off`,
//!   `cheap`, or `full`; env `DEPBURST_INVARIANTS`; default off). See
//!   `simx::invariants`.
//! * `--sampling SETTING` — sampled execution tier (`off`, `on`, or a
//!   measure fraction in (probe, 1); env `DEPBURST_SAMPLING`; default
//!   off). See `simx::sampling`.
//! * `--storage-faults SPEC` — storage-fault injection on the cache and
//!   checkpoint journal (`off`, an intensity in `[0, 1]`, `seed=N`,
//!   `crash=N`, comma-separated; env `DEPBURST_STORAGE_FAULTS`; default
//!   off — all durable I/O goes straight through the real filesystem).
//!   See `harness::vfs`.
//!
//! An unknown `--flag` is a usage error: the diagnostic names the
//! offending flag, suggests the nearest valid one when the typo is small,
//! and lists every flag the binary accepts (binary-specific flags such as
//! the faults sweep's `--panic-point` included).
//!
//! Exit codes are standardized across all binaries: **0** success, **1**
//! usage or internal error, **2** the sweep ran but some points
//! ultimately failed (a failure report was written to
//! `results/<exp>_failures.json` and summarized on stderr). No panics.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::checkpoint::Journal;
use crate::run::ExecCtx;

/// The boxed error a binary's command body returns: `depburst_core`
/// errors and I/O or serialization errors both flow through it.
pub type CliResult = Result<(), Box<dyn std::error::Error>>;

/// The options shared by every experiment binary, split from its
/// positional arguments.
#[derive(Debug, Default)]
pub struct CommonOpts {
    /// `--jobs N`.
    pub jobs: Option<usize>,
    /// `--point-timeout SECS`: `Some(None)` = explicit `0` (disable),
    /// `Some(Some(d))` = a budget, `None` = not given (use the env).
    pub point_timeout: Option<Option<std::time::Duration>>,
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
    /// Remaining positional arguments (and pass-through binary-specific
    /// flags), in order.
    pub rest: Vec<String>,
}

/// The flags every binary understands, for the unknown-flag diagnostic.
const COMMON_FLAGS: [&str; 8] = [
    "--jobs",
    "--point-timeout",
    "--retries",
    "--run-id",
    "--resume",
    "--invariants",
    "--sampling",
    "--storage-faults",
];

/// Extracts `--jobs N` / `--jobs=N` from `args`, returning the requested
/// worker count and the remaining arguments in order. Kept for callers
/// that only care about jobs; the binaries use [`parse_common`], which
/// also strips the resilience flags.
pub fn split_jobs(args: &[String]) -> Result<(Option<usize>, Vec<String>), String> {
    let mut jobs = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            let v = it.next().ok_or("--jobs requires a value")?;
            jobs = Some(parse_jobs(v)?);
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            jobs = Some(parse_jobs(v)?);
        } else {
            rest.push(a.clone());
        }
    }
    Ok((jobs, rest))
}

/// Extracts one `--name V` / `--name=V` flag from `args`, returning its
/// value (last occurrence wins) and the remaining arguments in order.
/// Binaries use this for experiment-specific flags (e.g. the faults
/// sweep's `--panic-point`).
pub fn split_flag(args: &[String], name: &str) -> Result<(Option<String>, Vec<String>), String> {
    let inline = format!("{name}=");
    let mut value = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            value = Some(it.next().ok_or_else(|| format!("{name} requires a value"))?.clone());
        } else if let Some(v) = a.strip_prefix(&inline) {
            value = Some(v.to_owned());
        } else {
            rest.push(a.clone());
        }
    }
    Ok((value, rest))
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
pub fn write_report(out: Option<String>, default: &str, json: &str) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(out.unwrap_or_else(|| default.to_owned()));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, json)?;
    Ok(path)
}

fn parse_jobs(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("invalid --jobs value {v:?} (want a positive integer)")),
    }
}

fn parse_timeout(v: &str) -> Result<Option<std::time::Duration>, String> {
    match v.parse::<f64>() {
        Ok(0.0) => Ok(None),
        Ok(secs) if secs > 0.0 && secs.is_finite() => {
            Ok(Some(std::time::Duration::from_secs_f64(secs)))
        }
        _ => Err(format!(
            "invalid --point-timeout value {v:?} (want seconds >= 0)"
        )),
    }
}

fn parse_retries(v: &str) -> Result<u32, String> {
    v.parse::<u32>()
        .map_err(|_| format!("invalid --retries value {v:?} (want a non-negative integer)"))
}

fn parse_invariants(v: &str) -> Result<simx::InvariantMode, String> {
    simx::InvariantMode::parse(v).ok_or_else(|| {
        format!("invalid --invariants value {v:?} (want off, cheap, or full)")
    })
}

fn parse_sampling(v: &str) -> Result<Option<simx::SamplingConfig>, String> {
    crate::run::parse_sampling_setting(v).map_err(|e| format!("invalid --sampling value: {e}"))
}

fn parse_storage(v: &str) -> Result<Option<crate::vfs::StorageFaultConfig>, String> {
    crate::vfs::parse_storage_faults(v)
        .map_err(|e| format!("invalid --storage-faults value: {e}"))
}

/// Splits the shared flags from `args`, leaving the binary's positional
/// arguments in [`CommonOpts::rest`]. Equivalent to
/// [`parse_common_with`] with no binary-specific flags: any unrecognized
/// `--flag` is a usage error.
pub fn parse_common(args: &[String]) -> Result<CommonOpts, String> {
    parse_common_with(args, &[])
}

/// [`parse_common`] for binaries with their own flags: every name in
/// `extra_flags` (e.g. `"--panic-point"`) passes through to
/// [`CommonOpts::rest`] untouched — in both its `--flag V` and
/// `--flag=V` forms — for the binary to extract with [`split_flag`]. Any
/// other `--`-prefixed token is rejected with a diagnostic that names
/// the flag, suggests the nearest valid one, and lists them all.
pub fn parse_common_with(args: &[String], extra_flags: &[&str]) -> Result<CommonOpts, String> {
    let mut opts = CommonOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value_of = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match a.as_str() {
            "--jobs" => opts.jobs = Some(parse_jobs(&value_of("--jobs")?)?),
            "--point-timeout" => {
                opts.point_timeout = Some(parse_timeout(&value_of("--point-timeout")?)?);
            }
            "--retries" => opts.retries = Some(parse_retries(&value_of("--retries")?)?),
            "--run-id" => opts.run_id = Some(value_of("--run-id")?),
            "--resume" => opts.resume = Some(value_of("--resume")?),
            "--invariants" => {
                opts.invariants = Some(parse_invariants(&value_of("--invariants")?)?);
            }
            "--sampling" => opts.sampling = Some(parse_sampling(&value_of("--sampling")?)?),
            "--storage-faults" => {
                opts.storage_faults = Some(parse_storage(&value_of("--storage-faults")?)?);
            }
            other => {
                if let Some(v) = other.strip_prefix("--jobs=") {
                    opts.jobs = Some(parse_jobs(v)?);
                } else if let Some(v) = other.strip_prefix("--point-timeout=") {
                    opts.point_timeout = Some(parse_timeout(v)?);
                } else if let Some(v) = other.strip_prefix("--retries=") {
                    opts.retries = Some(parse_retries(v)?);
                } else if let Some(v) = other.strip_prefix("--run-id=") {
                    opts.run_id = Some(v.to_owned());
                } else if let Some(v) = other.strip_prefix("--resume=") {
                    opts.resume = Some(v.to_owned());
                } else if let Some(v) = other.strip_prefix("--invariants=") {
                    opts.invariants = Some(parse_invariants(v)?);
                } else if let Some(v) = other.strip_prefix("--sampling=") {
                    opts.sampling = Some(parse_sampling(v)?);
                } else if let Some(v) = other.strip_prefix("--storage-faults=") {
                    opts.storage_faults = Some(parse_storage(v)?);
                } else if other.starts_with("--") {
                    let bare = other.split('=').next().unwrap_or(other);
                    if extra_flags.contains(&bare) {
                        opts.rest.push(other.to_owned());
                    } else {
                        return Err(unknown_flag_error(bare, extra_flags));
                    }
                } else {
                    opts.rest.push(other.to_owned());
                }
            }
        }
    }
    Ok(opts)
}

/// Renders the unknown-flag usage error: the offending flag, a
/// nearest-valid-flag suggestion when one is within edit distance 2, and
/// the full list of flags this binary accepts.
fn unknown_flag_error(flag: &str, extra_flags: &[&str]) -> String {
    let mut known: Vec<&str> = COMMON_FLAGS.to_vec();
    known.extend_from_slice(extra_flags);
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

/// Builds the execution context `opts` asks for: environment defaults,
/// overridden by the explicit flags, plus the checkpoint journal when a
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
    // Build the journal *after* storage so it shares the injector. An
    // invalid run id is a usage error, but a journal that cannot be
    // created or read is a *degraded* run, not a dead one: checkpointing
    // is best-effort (mirroring how append/fsync failures are counted,
    // never fatal), so the sweep proceeds non-resumable with a loud
    // warning instead of dying before it starts.
    let journal = match (&opts.resume, &opts.run_id) {
        (Some(id), _) => {
            Journal::path_for(id)?;
            match Journal::resume_with(id, ctx.storage_vfs()) {
                Ok(journal) => Some(journal),
                Err(e) => {
                    eprintln!(
                        "warning: cannot resume checkpoint journal {id}: {e}; \
                         continuing without checkpointing"
                    );
                    None
                }
            }
        }
        (None, Some(id)) => {
            Journal::path_for(id)?;
            match Journal::create_with(id, ctx.storage_vfs()) {
                Ok(journal) => Some(journal),
                Err(e) => {
                    eprintln!(
                        "warning: cannot create checkpoint journal {id}: {e}; \
                         this run will not be resumable"
                    );
                    None
                }
            }
        }
        (None, None) => None,
    };
    if let Some(journal) = journal {
        ctx = ctx.with_journal(journal);
    }
    Ok(ctx)
}

/// Parses the shared flags, builds the execution context, runs `body` on
/// the remaining arguments, then writes/clears the experiment's failure
/// report and translates the outcome into the standardized exit codes
/// (0 ok, 1 usage/internal error, 2 point failures).
pub fn main_with(
    experiment: &str,
    body: impl FnOnce(&ExecCtx, &[String]) -> CliResult,
) -> ExitCode {
    main_with_flags(experiment, &[], body)
}

/// [`main_with`] for binaries with their own flags (see
/// [`parse_common_with`]): `extra_flags` pass through to the body's
/// arguments and join the unknown-flag diagnostic's valid list.
pub fn main_with_flags(
    experiment: &str,
    extra_flags: &[&str],
    body: impl FnOnce(&ExecCtx, &[String]) -> CliResult,
) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_common_with(&argv, extra_flags) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = match build_ctx(&opts) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = body(&ctx, &opts.rest);
    finish(experiment, &ctx, result)
}

/// The exit code for "the sweep ran but some points ultimately failed".
pub const EXIT_POINT_FAILURES: u8 = 2;

fn finish(experiment: &str, ctx: &ExecCtx, result: CliResult) -> ExitCode {
    let cache = ctx.cache.stats();
    if cache.persist_failures > 0 {
        eprintln!(
            "warning: {} cache persist attempt(s) failed; those points will re-simulate next run",
            cache.persist_failures
        );
    }
    if let Some(journal) = ctx.journal() {
        let js = journal.stats();
        if js.append_failures > 0 {
            eprintln!(
                "warning: {} checkpoint append(s) failed; those points are not resumable",
                js.append_failures
            );
        }
        if js.fsync_failures > 0 {
            eprintln!(
                "warning: {} checkpoint fsync(s) failed; recent appends may not survive a crash",
                js.fsync_failures
            );
        }
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

    #[test]
    fn split_jobs_extracts_both_forms() {
        let (jobs, rest) = split_jobs(&strs(&["0.1", "--jobs", "4", "2"])).unwrap();
        assert_eq!(jobs, Some(4));
        assert_eq!(rest, strs(&["0.1", "2"]));
        let (jobs, rest) = split_jobs(&strs(&["--jobs=2"])).unwrap();
        assert_eq!(jobs, Some(2));
        assert!(rest.is_empty());
        let (jobs, rest) = split_jobs(&strs(&["a", "b"])).unwrap();
        assert_eq!(jobs, None);
        assert_eq!(rest, strs(&["a", "b"]));
    }

    #[test]
    fn split_jobs_rejects_bad_values() {
        assert!(split_jobs(&strs(&["--jobs"])).is_err());
        assert!(split_jobs(&strs(&["--jobs", "zero"])).is_err());
        assert!(split_jobs(&strs(&["--jobs=0"])).is_err());
    }

    #[test]
    fn parse_common_strips_all_shared_flags() {
        let opts = parse_common(&strs(&[
            "0.1",
            "--jobs",
            "4",
            "--point-timeout=2.5",
            "--retries",
            "1",
            "--run-id",
            "nightly",
            "7",
        ]))
        .unwrap();
        assert_eq!(opts.jobs, Some(4));
        assert_eq!(
            opts.point_timeout,
            Some(Some(std::time::Duration::from_secs_f64(2.5)))
        );
        assert_eq!(opts.retries, Some(1));
        assert_eq!(opts.run_id.as_deref(), Some("nightly"));
        assert_eq!(opts.resume, None);
        assert_eq!(opts.rest, strs(&["0.1", "7"]), "positional order survives");
    }

    #[test]
    fn parse_common_timeout_zero_disables() {
        let opts = parse_common(&strs(&["--point-timeout", "0"])).unwrap();
        assert_eq!(opts.point_timeout, Some(None));
        assert!(parse_common(&strs(&["--point-timeout", "-1"])).is_err());
        assert!(parse_common(&strs(&["--retries", "-1"])).is_err());
        assert!(parse_common(&strs(&["--resume"])).is_err());
    }

    #[test]
    fn split_flag_extracts_and_preserves_rest() {
        let (v, rest) =
            split_flag(&strs(&["a", "--panic-point", "0.5", "b"]), "--panic-point").unwrap();
        assert_eq!(v.as_deref(), Some("0.5"));
        assert_eq!(rest, strs(&["a", "b"]));
        let (v, rest) = split_flag(&strs(&["--panic-point=1.0"]), "--panic-point").unwrap();
        assert_eq!(v.as_deref(), Some("1.0"));
        assert!(rest.is_empty());
        assert!(split_flag(&strs(&["--panic-point"]), "--panic-point").is_err());
    }

    #[test]
    fn unknown_flags_are_diagnosed_with_suggestion_and_list() {
        let err = parse_common(&strs(&["--job", "4"])).expect_err("unknown flag");
        assert!(err.contains("unknown flag --job"), "got: {err}");
        assert!(err.contains("did you mean --jobs?"), "got: {err}");
        for flag in COMMON_FLAGS {
            assert!(err.contains(flag), "valid list must include {flag}: {err}");
        }
        // The `=`-form reports the bare flag name.
        let err = parse_common(&strs(&["--restries=1"])).expect_err("typo");
        assert!(err.contains("unknown flag --restries"), "got: {err}");
        assert!(err.contains("did you mean --retries?"), "got: {err}");
        // A flag nothing resembles gets the list but no suggestion.
        let err = parse_common(&strs(&["--frobnicate"])).expect_err("unknown");
        assert!(!err.contains("did you mean"), "got: {err}");
        assert!(err.contains("valid flags:"), "got: {err}");
    }

    #[test]
    fn extra_flags_pass_through_and_join_the_diagnostic() {
        let opts = parse_common_with(
            &strs(&["--panic-point", "0.5", "--jobs=2", "x"]),
            &["--panic-point"],
        )
        .unwrap();
        assert_eq!(opts.jobs, Some(2));
        assert_eq!(opts.rest, strs(&["--panic-point", "0.5", "x"]));
        let opts =
            parse_common_with(&strs(&["--panic-point=1.0"]), &["--panic-point"]).unwrap();
        assert_eq!(opts.rest, strs(&["--panic-point=1.0"]));
        // A typo of the binary-specific flag is suggested too.
        let err = parse_common_with(&strs(&["--panic-pont=1.0"]), &["--panic-point"])
            .expect_err("typo");
        assert!(err.contains("did you mean --panic-point?"), "got: {err}");
        // Without the pass-through declaration it is unknown.
        assert!(parse_common(&strs(&["--panic-point=1.0"])).is_err());
    }

    #[test]
    fn invariants_flag_parses_all_modes() {
        let opts = parse_common(&strs(&["--invariants", "full"])).unwrap();
        assert_eq!(opts.invariants, Some(simx::InvariantMode::Full));
        let opts = parse_common(&strs(&["--invariants=cheap"])).unwrap();
        assert_eq!(opts.invariants, Some(simx::InvariantMode::Cheap));
        let opts = parse_common(&strs(&["--invariants=off"])).unwrap();
        assert_eq!(opts.invariants, Some(simx::InvariantMode::Off));
        assert!(parse_common(&strs(&["--invariants", "loud"])).is_err());
        assert_eq!(parse_common(&strs(&[])).unwrap().invariants, None);
    }

    #[test]
    fn sampling_flag_parses_all_settings() {
        let opts = parse_common(&strs(&["--sampling", "on"])).unwrap();
        assert_eq!(opts.sampling, Some(Some(simx::SamplingConfig::default())));
        let opts = parse_common(&strs(&["--sampling=off"])).unwrap();
        assert_eq!(opts.sampling, Some(None));
        let opts = parse_common(&strs(&["--sampling=0.5"])).unwrap();
        let cfg = opts.sampling.flatten().expect("fraction enables sampling");
        assert_eq!(cfg.measure_fraction, 0.5);
        assert_eq!(
            cfg.probe_fraction,
            simx::SamplingConfig::default().probe_fraction
        );
        // Fractions outside (probe, 1) and junk are usage errors.
        assert!(parse_common(&strs(&["--sampling", "1.5"])).is_err());
        assert!(parse_common(&strs(&["--sampling", "0.01"])).is_err());
        assert!(parse_common(&strs(&["--sampling", "sometimes"])).is_err());
        assert_eq!(parse_common(&strs(&[])).unwrap().sampling, None);
    }

    #[test]
    fn storage_faults_flag_parses_specs() {
        let opts = parse_common(&strs(&["--storage-faults", "off"])).unwrap();
        assert_eq!(opts.storage_faults, Some(None));
        let opts = parse_common(&strs(&["--storage-faults=0.2,seed=7"])).unwrap();
        let cfg = opts.storage_faults.flatten().expect("injector on");
        assert_eq!(cfg.seed, 7);
        assert!(cfg.torn_write > 0.0);
        let opts = parse_common(&strs(&["--storage-faults=crash=12"])).unwrap();
        assert_eq!(
            opts.storage_faults.flatten().expect("crash mode").crash_after,
            Some(12)
        );
        assert!(parse_common(&strs(&["--storage-faults", "2.0"])).is_err());
        assert_eq!(parse_common(&strs(&[])).unwrap().storage_faults, None);
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
        let opts = parse_common(&strs(&["--jobs=3", "--retries=0", "--point-timeout=1.5"]))
            .unwrap();
        let ctx = build_ctx(&opts).expect("no journal requested");
        assert_eq!(ctx.jobs, 3);
        assert_eq!(ctx.policy.retries, 0);
        assert_eq!(
            ctx.point_timeout,
            Some(std::time::Duration::from_secs_f64(1.5))
        );
        assert!(ctx.journal().is_none());
        // A bad run id is a usage error, not a panic.
        let bad = parse_common(&strs(&["--run-id", "../escape"])).unwrap();
        assert!(build_ctx(&bad).is_err());
    }

    #[test]
    fn unwritable_journal_degrades_the_run_instead_of_killing_it() {
        // crash=0 fails the very first VFS operation, so the journal can
        // never be created: the context must still build — checkpointing
        // is best-effort — just without a journal. The id is still
        // validated strictly even on that path.
        let opts = parse_common(&strs(&[
            "--run-id",
            "cli-degraded",
            "--storage-faults",
            "crash=0",
        ]))
        .unwrap();
        let ctx = build_ctx(&opts).expect("degraded, not dead");
        assert!(ctx.journal().is_none());
        assert!(ctx.storage().expect("injector installed").crashed());
        let bad = parse_common(&strs(&[
            "--run-id",
            "../escape",
            "--storage-faults",
            "crash=0",
        ]))
        .unwrap();
        assert!(build_ctx(&bad).is_err(), "id validation must stay hard");
    }
}
