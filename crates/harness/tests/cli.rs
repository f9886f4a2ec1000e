//! The binaries' command lines, driven through the real executables: a
//! malformed argument fails before any simulation starts, naming the
//! argument, and a well-formed one reaches the experiment unchanged.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh working directory per run, so no run touches the repo's
/// `results/` and parallel tests never share one.
fn workdir(test: &str) -> PathBuf {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let name = format!("depburst-cli-{}-{test}-{run}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create the test's working directory");
    dir
}

fn run(exe: &str, args: &[&str], dir: &Path) -> Output {
    Command::new(exe)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

/// Runs `exe args` and requires a usage failure (exit 1) whose stderr
/// contains every one of `needles`.
fn usage_error(exe: &str, args: &[&str], needles: &[&str]) {
    let dir = workdir("usage");
    let out = run(exe, args, &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: stderr {stderr}");
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "{args:?}: want {needle:?} in {stderr}"
        );
    }
    assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn malformed_positionals_name_the_argument() {
    usage_error(
        env!("CARGO_BIN_EXE_fleet"),
        &["1O24"],
        &["machines", "\"1O24\""],
    );
    usage_error(
        env!("CARGO_BIN_EXE_fig3"),
        &["both", "abc"],
        &["scale", "\"abc\""],
    );
    usage_error(
        env!("CARGO_BIN_EXE_dvfs-lab"),
        &["run", "lusearch", "2", "x"],
        &["scale", "\"x\""],
    );
    usage_error(
        env!("CARGO_BIN_EXE_fuzz"),
        &["5"],
        &["unexpected argument \"5\""],
    );
}

#[test]
fn zero_shards_is_rejected_by_fleet_and_thermal() {
    for exe in [env!("CARGO_BIN_EXE_fleet"), env!("CARGO_BIN_EXE_thermal")] {
        usage_error(exe, &["--shards", "0"], &["invalid --shards value \"0\""]);
        usage_error(exe, &["--shards=0"], &["invalid --shards value \"0\""]);
    }
}

#[test]
fn torture_shares_the_unknown_flag_diagnostic() {
    let exe = env!("CARGO_BIN_EXE_torture");
    usage_error(
        exe,
        &["--jbos", "3"],
        &["unknown flag --jbos", "valid flags: --bitflips"],
    );
    usage_error(exe, &["--strdie", "3"], &["did you mean --stride?"]);
    // The shared flags stay refused: torture builds its own contexts.
    usage_error(exe, &["--jobs", "3"], &["unknown flag --jobs"]);
}

#[test]
fn record_takes_an_output_path_where_run_takes_a_scale() {
    let dir = workdir("record");
    let exe = env!("CARGO_BIN_EXE_dvfs-lab");
    let out = run(
        exe,
        &["record", "lusearch", "2", "trace.json", "0.02"],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "record failed: {stderr}");
    assert!(dir.join("trace.json").is_file(), "record wrote no trace");
    // The recorded trace reads back: every model predicts from it.
    for model in ["dep+burst", "dep", "coop+burst", "coop", "m+crit+burst", "m+crit"] {
        let out = run(exe, &["predict", "trace.json", "4", model], &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "predict with {model} failed: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("at 2 GHz, predicted") && stdout.contains("at 4 GHz"),
            "predict with {model}: {stdout}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fleet_argv_reproduces_the_committed_evidence() {
    let dir = workdir("fleet");
    let out = run(
        env!("CARGO_BIN_EXE_fleet"),
        &[
            "8",
            "120",
            "0.05",
            "1",
            "--shards=2",
            "--chaos",
            "0.5",
            "--chaos-seed=7",
            "--policy",
            "depburst",
            "--out",
            "fleet.json",
        ],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "fleet failed: {stderr}");
    let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/fleet.json");
    let want = fs::read(&committed).expect("read the committed results/fleet.json");
    let got = fs::read(dir.join("fleet.json")).expect("fleet wrote its --out report");
    assert!(
        got == want,
        "fleet's argv path no longer reproduces results/fleet.json"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Every `.rs` file under `dir`, recursively (none when `dir` is absent).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("read a directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Each run setting has one source, its flag; the environment holds only
/// deployment paths and diagnostics that never change result bytes. So
/// the code of `crates/*/src` names exactly these five variables and
/// never writes the process environment.
#[test]
fn the_environment_holds_only_paths_and_diagnostics() {
    const KEPT: [&str; 5] = [
        "DEPBURST_BREAK_INVARIANT",
        "DEPBURST_CACHE",
        "DEPBURST_CHECKPOINT_DIR",
        "DEPBURST_INVARIANTS",
        "DEPBURST_TRACE_POINTS",
    ];
    const PREFIX: &str = "DEPBURST_";
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for krate in fs::read_dir(&crates).expect("list the crates") {
        let src = krate.expect("a crate entry").path().join("src");
        rust_files(&src, &mut files);
    }
    assert!(files.len() > 50, "found only {} source files", files.len());
    let mut names = BTreeSet::new();
    let mut writes = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("read a source file");
        let code = text.lines().filter(|l| !l.trim_start().starts_with("//"));
        for (n, line) in code.enumerate() {
            if line.contains("set_var") {
                writes.push(format!("{} (code line {})", file.display(), n + 1));
            }
            let mut rest = line;
            while let Some(at) = rest.find(PREFIX) {
                let tail = &rest[at + PREFIX.len()..];
                let len = tail
                    .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
                    .unwrap_or(tail.len());
                if len > 0 {
                    names.insert(format!("{PREFIX}{}", &tail[..len]));
                }
                rest = &tail[len..];
            }
        }
    }
    let kept: BTreeSet<String> = KEPT.iter().map(|s| (*s).to_owned()).collect();
    assert_eq!(names, kept, "environment variables read by the crates");
    assert!(writes.is_empty(), "environment writes at {writes:?}");
}
