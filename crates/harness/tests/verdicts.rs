//! The paper-shape verdicts EXPERIMENTS.md states for Fig. 3 and Fig. 4,
//! checked against the committed evidence: the `avg |err|` rows of the
//! tables in `results/fig3.txt` and `results/fig4.txt`. Nothing is
//! simulated. A change that moves the evidence so that a verdict no
//! longer holds fails here, whatever the prose still says.
//!
//! The Fig. 3 ordering M+CRIT > COOP > DEP > DEP+BURST is asserted only
//! at the paper's cells, 1→4 and 4→1 GHz: at base 1 GHz, COOP beats DEP
//! at the 2 and 3 GHz targets.

use std::fs;
use std::path::PathBuf;

/// One rendered table: its frequencies, column names, per-benchmark
/// signed errors and the `avg |err|` row, all in percent.
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
fn cells(line: &str) -> Vec<&str> {
    line.split("  ")
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .collect()
}

fn percent(cell: &str) -> f64 {
    cell.strip_suffix('%')
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("not a percentage: {cell:?}"))
}

/// Parses every table of a committed result file: a title line ending
/// `base B GHz -> target T GHz`, the header, a rule, the benchmark rows
/// and the `avg |err|` row. The JSON after the tables is not read.
fn tables(name: &str) -> Vec<Table> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut out = Vec::new();
    let mut lines = text.lines();
    while let Some(title) = lines.next() {
        let Some((_, freqs)) = title.split_once("base ") else {
            continue;
        };
        let ghz: Vec<f64> = freqs
            .split(" GHz")
            .filter_map(|part| part.trim_start_matches(" -> target ").trim().parse().ok())
            .collect();
        let [base, target] = ghz[..] else {
            panic!("{name}: bad title {title:?}");
        };
        let header = cells(lines.next().expect("a header"));
        assert_eq!(header.first(), Some(&"benchmark"), "{name}: {title}");
        let columns: Vec<String> = header[1..].iter().map(|c| (*c).to_owned()).collect();
        let rule = lines.next().expect("a rule");
        assert!(rule.chars().all(|c| c == '-'), "{name}: {title}: {rule:?}");
        let mut rows = Vec::new();
        let avg = loop {
            let row = cells(lines.next().expect("an avg |err| row"));
            assert_eq!(row.len(), columns.len() + 1, "{name}: {title}: {row:?}");
            let values: Vec<f64> = row[1..].iter().map(|c| percent(c)).collect();
            if row[0] == "avg |err|" {
                break values;
            }
            rows.push((row[0].to_owned(), values));
        };
        out.push(Table {
            base,
            target,
            columns,
            rows,
            avg,
        });
    }
    out
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
