//! The paper-shape verdicts EXPERIMENTS.md states for Fig. 1, 3, 4, 6
//! and 7, checked against the committed evidence: the tables in
//! `results/fig{1,3,4,6,7}.txt`. Nothing is simulated. A change that
//! moves the evidence so that a verdict no longer holds fails here,
//! whatever the prose still says. The sampled tier's accuracy bound is
//! checked the same way, against `results/sampling_error.json`.
//!
//! The Fig. 3 ordering M+CRIT > COOP > DEP > DEP+BURST is asserted only
//! at the paper's cells, 1→4 and 4→1 GHz: at base 1 GHz, COOP beats DEP
//! at the 2 and 3 GHz targets.

use std::fs;
use std::path::PathBuf;

use serde::Value;

/// The committed result file `name`.
fn read_result(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// One rendered table as text: the line above its header (empty when
/// there is none), the header's cells and each row's cells.
#[derive(Debug)]
struct Block {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// One Fig. 3 or Fig. 4 table: its frequencies, column names,
/// per-benchmark signed errors and the `avg |err|` row, all in percent.
#[derive(Debug)]
struct Table {
    base: f64,
    target: f64,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
    avg: Vec<f64>,
}

impl Table {
    /// The `avg |err|` of the column named `name`.
    fn avg_of(&self, name: &str) -> f64 {
        let i = self
            .columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column {name} in {:?}", self.columns));
        self.avg[i]
    }

    fn label(&self) -> String {
        format!("{} -> {} GHz", self.base, self.target)
    }
}

/// The cells of a rendered row: columns are at least two spaces apart,
/// and names hold at most single spaces.
fn cells(line: &str) -> Vec<String> {
    line.split("  ")
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .map(str::to_owned)
        .collect()
}

fn percent(cell: &str) -> f64 {
    cell.strip_suffix('%')
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("not a percentage: {cell:?}"))
}

/// The number after `marker` in `text`, up to the next `%`.
fn percent_after(text: &str, marker: &str) -> f64 {
    text.split_once(marker)
        .and_then(|(_, rest)| rest.split_once('%'))
        .and_then(|(n, _)| n.parse().ok())
        .unwrap_or_else(|| panic!("no percentage after {marker:?} in {text:?}"))
}

/// Every table of a committed result file: a header over a rule of
/// dashes, the line above the header as its title, and the rows down to
/// the next blank line. The JSON after the tables has no rule and is not
/// read.
fn blocks(name: &str) -> Vec<Block> {
    let text = read_result(name);
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    for (i, rule) in lines.iter().enumerate().skip(1) {
        if rule.is_empty() || !rule.chars().all(|c| c == '-') {
            continue;
        }
        let title = if i >= 2 { lines[i - 2] } else { "" };
        let header = cells(lines[i - 1]);
        let rows: Vec<Vec<String>> = lines[i + 1..]
            .iter()
            .take_while(|l| !l.trim().is_empty())
            .map(|l| cells(l))
            .collect();
        for row in &rows {
            assert_eq!(row.len(), header.len(), "{name}: {title}: {row:?}");
        }
        out.push(Block {
            title: title.to_owned(),
            header,
            rows,
        });
    }
    out
}

/// Parses every Fig. 3 or Fig. 4 table of a committed result file: a
/// title ending `base B GHz -> target T GHz`, the benchmark rows and the
/// `avg |err|` row last.
fn tables(name: &str) -> Vec<Table> {
    blocks(name)
        .into_iter()
        .map(|b| {
            let (_, freqs) = b
                .title
                .split_once("base ")
                .unwrap_or_else(|| panic!("{name}: bad title {:?}", b.title));
            let ghz: Vec<f64> = freqs
                .split(" GHz")
                .filter_map(|part| part.trim_start_matches(" -> target ").trim().parse().ok())
                .collect();
            let [base, target] = ghz[..] else {
                panic!("{name}: bad title {:?}", b.title);
            };
            assert_eq!(b.header[0], "benchmark", "{name}: {}", b.title);
            let (avg, rows) = b.rows.split_last().expect("an avg |err| row");
            assert_eq!(avg[0], "avg |err|", "{name}: {}", b.title);
            let values =
                |row: &[String]| -> Vec<f64> { row[1..].iter().map(|c| percent(c)).collect() };
            Table {
                base,
                target,
                columns: b.header[1..].to_vec(),
                rows: rows.iter().map(|r| (r[0].clone(), values(r))).collect(),
                avg: values(avg),
            }
        })
        .collect()
}

fn fig3() -> Vec<Table> {
    tables("fig3.txt")
}

/// Fig. 3's table at `base` → `target` GHz.
fn cell(tables: &[Table], base: f64, target: f64) -> &Table {
    tables
        .iter()
        .find(|t| t.base == base && t.target == target)
        .unwrap_or_else(|| panic!("no fig3 table {base} -> {target} GHz"))
}

const MODELS: [&str; 3] = ["M+CRIT", "COOP", "DEP"];

#[test]
fn the_committed_tables_parse_completely() {
    let fig3 = fig3();
    let directions: Vec<(f64, f64)> = fig3.iter().map(|t| (t.base, t.target)).collect();
    assert_eq!(
        directions,
        [(1.0, 2.0), (1.0, 3.0), (1.0, 4.0), (4.0, 3.0), (4.0, 2.0), (4.0, 1.0)]
    );
    let fig4 = tables("fig4.txt");
    let directions: Vec<(f64, f64)> = fig4.iter().map(|t| (t.base, t.target)).collect();
    assert_eq!(directions, [(1.0, 4.0), (4.0, 1.0)]);
    for t in fig3.iter().chain(&fig4) {
        let expected: &[&str] = if t.columns.len() == 6 {
            &[
                "M+CRIT",
                "M+CRIT+BURST",
                "COOP",
                "COOP+BURST",
                "DEP",
                "DEP+BURST",
            ]
        } else {
            &["per-epoch CTP", "across-epoch CTP"]
        };
        assert_eq!(t.columns, expected, "{}", t.label());
        assert_eq!(t.rows.len(), 7, "{}: one row per benchmark", t.label());
        // The printed average is the mean of the printed magnitudes, up
        // to the rounding of each to 0.1 points.
        for (i, avg) in t.avg.iter().enumerate() {
            let mean = t.rows.iter().map(|(_, v)| v[i].abs()).sum::<f64>() / t.rows.len() as f64;
            assert!(
                (mean - avg).abs() <= 0.1 + 1e-9,
                "{} {}: avg {avg} against row mean {mean}",
                t.label(),
                t.columns[i]
            );
        }
    }
}

#[test]
fn burst_never_hurts_a_model_on_average() {
    for t in &fig3() {
        for model in MODELS {
            let (plain, burst) = (t.avg_of(model), t.avg_of(&format!("{model}+BURST")));
            assert!(burst <= plain, "{} {model}: +BURST {burst}% > {plain}%", t.label());
        }
    }
}

#[test]
fn m_crit_is_the_worst_column_everywhere() {
    for t in &fig3() {
        let worst = t.avg_of("M+CRIT");
        for (name, avg) in t.columns.iter().zip(&t.avg).skip(1) {
            assert!(worst > *avg, "{}: M+CRIT {worst}% <= {name} {avg}%", t.label());
        }
    }
}

#[test]
fn error_grows_with_frequency_distance_in_both_directions() {
    let fig3 = fig3();
    for (base, targets) in [(1.0, [2.0, 3.0, 4.0]), (4.0, [3.0, 2.0, 1.0])] {
        let nearest_first: Vec<&Table> = targets.iter().map(|&t| cell(&fig3, base, t)).collect();
        for (i, name) in nearest_first[0].columns.iter().enumerate() {
            for pair in nearest_first.windows(2) {
                let (near, far) = (pair[0].avg[i], pair[1].avg[i]);
                assert!(
                    near < far,
                    "{name}: {}% at {} is not below {}% at {}",
                    near,
                    pair[0].label(),
                    far,
                    pair[1].label()
                );
            }
        }
    }
}

#[test]
fn the_paper_ordering_holds_at_its_cells() {
    let fig3 = fig3();
    for (base, target) in [(1.0, 4.0), (4.0, 1.0)] {
        let t = cell(&fig3, base, target);
        let ordered = ["M+CRIT", "COOP", "DEP", "DEP+BURST"].map(|m| (m, t.avg_of(m)));
        for pair in ordered.windows(2) {
            let ((worse, a), (better, b)) = (pair[0], pair[1]);
            assert!(a > b, "{}: {worse} {a}% <= {better} {b}%", t.label());
        }
    }
}

#[test]
fn high_to_low_is_harder_than_low_to_high() {
    let fig3 = fig3();
    let (up, down) = (cell(&fig3, 1.0, 4.0), cell(&fig3, 4.0, 1.0));
    for ((name, low_to_high), high_to_low) in up.columns.iter().zip(&up.avg).zip(&down.avg) {
        assert!(
            high_to_low > low_to_high,
            "{name}: 4 -> 1 GHz {high_to_low}% <= 1 -> 4 GHz {low_to_high}%"
        );
    }
}

#[test]
fn across_epoch_ctp_beats_per_epoch_by_half_again() {
    for t in &tables("fig4.txt") {
        let (per, across) = (t.avg_of("per-epoch CTP"), t.avg_of("across-epoch CTP"));
        assert!(
            across <= per / 1.5,
            "{}: across-epoch {across}% > per-epoch {per}% / 1.5",
            t.label()
        );
    }
}

/// The paper's Fig. 1 gap at 4 GHz: 27% for M+CRIT against 6% for
/// DEP+BURST.
const PAPER_FIG1_GAP: f64 = 4.5;

#[test]
fn fig1_dep_burst_beats_m_crit_and_the_gap_grows_with_target() {
    let blocks = blocks("fig1.txt");
    let [table] = &blocks[..] else {
        panic!("fig1.txt: want one table, got {}", blocks.len());
    };
    assert_eq!(
        table.header,
        ["target", "M+CRIT avg |err|", "DEP+BURST avg |err|"]
    );
    assert_eq!(table.rows.len(), 3, "one row per target");
    // (target GHz, M+CRIT, DEP+BURST)
    let rows: Vec<(f64, f64, f64)> = table
        .rows
        .iter()
        .map(|r| {
            let ghz = r[0].strip_suffix(" GHz").and_then(|g| g.parse().ok());
            let ghz = ghz.unwrap_or_else(|| panic!("not a target: {:?}", r[0]));
            (ghz, percent(&r[1]), percent(&r[2]))
        })
        .collect();
    let targets: Vec<f64> = rows.iter().map(|r| r.0).collect();
    assert_eq!(targets, [2.0, 3.0, 4.0]);
    for &(ghz, mcrit, dep_burst) in &rows {
        assert!(dep_burst < mcrit, "{ghz} GHz: DEP+BURST {dep_burst}% >= M+CRIT {mcrit}%");
    }
    for pair in rows.windows(2) {
        let ((near, m0, d0), (far, m1, d1)) = (pair[0], pair[1]);
        assert!(m0 < m1, "M+CRIT {m0}% at {near} GHz is not below {m1}% at {far} GHz");
        assert!(d0 < d1, "DEP+BURST {d0}% at {near} GHz is not below {d1}% at {far} GHz");
    }
    let (_, mcrit, dep_burst) = rows[2];
    assert!(
        mcrit / dep_burst >= PAPER_FIG1_GAP,
        "4 GHz: M+CRIT {mcrit}% is only {:.2}x DEP+BURST {dep_burst}%",
        mcrit / dep_burst
    );
}

/// A managed benchmark's row of Fig. 6 or Fig. 7: its name, whether it
/// is memory-intensive (type M) and its percentage columns.
struct Managed {
    name: String,
    memory: bool,
    values: Vec<f64>,
}

/// A Fig. 6 or Fig. 7 table with its title: seven benchmark rows of
/// type M or C, both types present.
fn managed(block: &Block, columns: &[&str]) -> Vec<Managed> {
    assert_eq!(block.header, columns, "{}", block.title);
    assert_eq!(block.rows.len(), 7, "{}: one row per benchmark", block.title);
    let rows: Vec<Managed> = block
        .rows
        .iter()
        .map(|r| Managed {
            name: r[0].clone(),
            memory: match r[1].as_str() {
                "M" => true,
                "C" => false,
                other => panic!("{}: type {other:?}", block.title),
            },
            values: r[2..4].iter().map(|c| percent(c)).collect(),
        })
        .collect();
    assert!(rows.iter().any(|r| r.memory) && rows.iter().any(|r| !r.memory));
    rows
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0), |(s, n), v| (s + v, n + 1));
    sum / f64::from(n)
}

/// Fig. 6's two tables: the threshold in percent, the title's
/// memory-intensive mean savings, and rows of (slowdown, savings).
fn fig6() -> Vec<(f64, f64, Vec<Managed>)> {
    let blocks = blocks("fig6.txt");
    assert_eq!(blocks.len(), 2, "fig6.txt: one table per threshold");
    let columns = ["benchmark", "type", "slowdown", "energy savings", "mean GHz"];
    let tables: Vec<(f64, f64, Vec<Managed>)> = blocks
        .iter()
        .map(|b| {
            let threshold = percent_after(&b.title, "tolerable slowdown ");
            let title_mean = percent_after(&b.title, "mean savings ");
            (threshold, title_mean, managed(b, &columns))
        })
        .collect();
    let thresholds: Vec<f64> = tables.iter().map(|t| t.0).collect();
    assert_eq!(thresholds, [5.0, 10.0]);
    tables
}

#[test]
fn fig6_no_slowdown_overshoots_its_threshold_by_more_than_one_and_a_half_points() {
    for (threshold, _, rows) in fig6() {
        for r in rows {
            let slowdown = r.values[0];
            assert!(
                slowdown <= threshold + 1.5,
                "{threshold}% threshold: {} slowed down {slowdown}%",
                r.name
            );
        }
    }
}

#[test]
fn fig6_memory_intensive_savings_beat_compute_intensive() {
    for (threshold, title_mean, rows) in fig6() {
        let savings = |memory: bool| {
            mean(rows.iter().filter(|r| r.memory == memory).map(|r| r.values[1]))
        };
        let (m, c) = (savings(true), savings(false));
        assert!(m > c, "{threshold}% threshold: type M saves {m}%, type C {c}%");
        // The title's mean is of unrounded savings, each row of rounded
        // ones: 0.05 points apart at most, plus the title's own rounding.
        assert!(
            (m - title_mean).abs() <= 0.1 + 1e-9,
            "{threshold}% threshold: title says {title_mean}%, rows average {m}%"
        );
    }
}

/// Fig. 7's table: the title's mean memory-intensive advantage and rows
/// of (dynamic savings, static-optimal savings).
fn fig7() -> (f64, Vec<Managed>) {
    let blocks = blocks("fig7.txt");
    let [table] = &blocks[..] else {
        panic!("fig7.txt: want one table, got {}", blocks.len());
    };
    let columns = [
        "benchmark",
        "type",
        "dynamic savings",
        "static-optimal savings",
        "static f*",
    ];
    let advantage = percent_after(&table.title, "dynamic advantage ");
    (advantage, managed(table, &columns))
}

#[test]
fn fig7_dynamic_beats_static_optimal_on_every_memory_intensive_row() {
    let (title_advantage, rows) = fig7();
    let memory: Vec<&Managed> = rows.iter().filter(|r| r.memory).collect();
    for r in &memory {
        let (dynamic, fixed) = (r.values[0], r.values[1]);
        assert!(dynamic > fixed, "{}: dynamic {dynamic}% <= static-optimal {fixed}%", r.name);
    }
    // Each row's advantage is a difference of two values rounded to 0.1
    // points (0.1 off at most), the title's a rounding of the exact mean
    // (0.05 off).
    let advantage = mean(memory.iter().map(|r| r.values[0] - r.values[1]));
    assert!(
        (advantage - title_advantage).abs() <= 0.15 + 1e-9,
        "title says +{title_advantage}%, rows average +{advantage}%"
    );
}

#[test]
fn fig7_compute_intensive_rows_are_on_par_with_static_optimal() {
    let (_, rows) = fig7();
    for r in rows.iter().filter(|r| !r.memory) {
        let (dynamic, fixed) = (r.values[0], r.values[1]);
        assert!(
            (dynamic - fixed).abs() <= 3.0,
            "{}: dynamic {dynamic}% against static-optimal {fixed}%",
            r.name
        );
    }
}

/// The sampled tier's accepted error against exact runs, on execution
/// time and on GC time alike.
const SAMPLING_BOUND: f64 = 0.02;

/// The number under `key` in a JSON map.
fn number(value: &Value, key: &str) -> f64 {
    match value.get(key) {
        Some(Value::F64(x)) => *x,
        Some(Value::U64(n)) => *n as f64,
        Some(Value::I64(n)) => *n as f64,
        other => panic!("{key}: want a number, got {other:?}"),
    }
}

/// The committed sampled-vs-exact report (regenerate with
/// `sampling_error 1.0 3 --jobs 4` after touching the extrapolator)
/// covers every workload × frequency cell, each within the bound, and
/// its summary maxima are the maxima over its cells.
#[test]
fn sampled_tier_error_stays_within_two_percent_of_exact() {
    let report: Value =
        serde_json::from_str(&read_result("sampling_error.json")).expect("report parses");
    let Some(Value::Seq(cells)) = report.get("cells") else {
        panic!("sampling_error.json has no cells");
    };
    let (mut max_exec, mut max_gc) = (0.0f64, 0.0f64);
    let mut covered = Vec::new();
    for cell in cells {
        let Some(Value::Str(bench)) = cell.get("benchmark") else {
            panic!("a cell names no benchmark: {cell:?}");
        };
        let ghz = number(cell, "freq_ghz");
        let exec = number(cell, "exec_error").abs();
        let gc = number(cell, "gc_error").abs();
        assert!(
            exec <= SAMPLING_BOUND && gc <= SAMPLING_BOUND,
            "{bench} @ {ghz} GHz: |exec err| {exec}, |gc err| {gc} (bound {SAMPLING_BOUND})"
        );
        max_exec = max_exec.max(exec);
        max_gc = max_gc.max(gc);
        covered.push((bench.clone(), ghz.to_bits()));
    }
    covered.sort_unstable();
    covered.dedup();
    assert!(
        covered.len() >= 28,
        "the report covers {} cells (want all 7 workloads × 4 frequencies)",
        covered.len()
    );
    assert_eq!(number(&report, "max_exec_error"), max_exec, "summary max");
    assert_eq!(number(&report, "max_gc_error"), max_gc, "summary max");
}
