//! Order statistics over repeated runs and the regression verdict of
//! `bench --compare`.

/// Whether a metric improves downwards (times, memory) or upwards (rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json` and `results.json`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// True when `a` is strictly better than `b`.
    #[must_use]
    pub fn improves(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `xs`; NaN for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, exactly as Python's
/// `statistics.quantiles(xs, n=4)` (its default "exclusive" method) gives
/// them — the definition the benchmark's spread is judged by. One sample
/// is its own quartiles; an empty slice gives NaN.
#[must_use]
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => return (f64::NAN, f64::NAN),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: the clamp can put `j` past the exact position, and the
        // interpolation then extrapolates, as Python's does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The summary the suite reports for one metric over repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarizes `xs`.
    #[must_use]
    pub fn of(xs: &[f64]) -> Self {
        let (q1, q3) = quartiles(xs);
        Summary {
            median: median(xs),
            q1,
            q3,
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: xs.len(),
        }
    }

    /// Run-to-run spread: the interquartile distance as a share of the
    /// median.
    #[must_use]
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The outcome of comparing a change's runs against its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Each side has at least [`MIN_RUNS_FOR_GAIN`] runs, the change wins
    /// at least nine tenths of the run pairs, and its median moved by more
    /// than the parent's interquartile distance.
    Better,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// Neither better nor worse beyond the bound.
    WithinBound,
    /// One side's spread exceeds the bound, so the runs cannot tell a
    /// regression from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for tables.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Runs each side needs before a gain can be claimed.
pub const MIN_RUNS_FOR_GAIN: usize = 10;

/// Judges `change` against `parent` for a metric that may worsen by at
/// most `bound` (a share of the parent's median): a spread wider than the
/// bound is unresolved unless every change run beats every parent run; a
/// gain needs ten runs a side, nine tenths of the pairs (ties count for
/// neither) and a median shift larger than the parent's interquartile
/// distance.
#[must_use]
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let p = Summary::of(parent);
    let c = Summary::of(change);
    let mut wins = 0usize;
    let mut every_run_better = true;
    for &a in parent {
        for &b in change {
            if better.improves(b, a) {
                wins += 1;
            } else {
                every_run_better = false;
            }
        }
    }
    let pairs = parent.len() * change.len();
    if pairs == 0 {
        return Verdict::Unresolved;
    }
    if p.spread().max(c.spread()) > bound && !every_run_better {
        return Verdict::Unresolved;
    }
    let worsening = match better {
        Better::Lower => (c.median - p.median) / p.median.abs(),
        Better::Higher => (p.median - c.median) / p.median.abs(),
    };
    if worsening > bound {
        return Verdict::Worse;
    }
    let enough_runs = parent.len().min(change.len()) >= MIN_RUNS_FOR_GAIN;
    let won_pairs = wins as f64 >= 0.9 * pairs as f64;
    let shift_beats_noise = (c.median - p.median).abs() > p.q3 - p.q1;
    if enough_runs && won_pairs && shift_beats_noise && better.improves(c.median, p.median) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference values from Python 3.11's `statistics.quantiles(d, n=4)`
    // and `statistics.median(d)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let cases: [(&[f64], (f64, f64), f64); 6] = [
            (&[1.0, 2.0], (0.75, 2.25), 1.5),
            (&[3.0, 1.0, 2.0], (1.0, 3.0), 2.0),
            (&[1.0, 2.0, 3.0, 4.0], (1.25, 3.75), 2.5),
            (&[5.0, 1.0, 4.0, 2.0, 3.0], (1.5, 4.5), 3.0),
            (
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
                (2.75, 8.25),
                5.5,
            ),
            (&[2.5, 0.5, 1.5], (0.5, 2.5), 1.5),
        ];
        for (data, (q1, q3), med) in cases {
            let (a, b) = quartiles(data);
            assert!(
                (a - q1).abs() < 1e-12 && (b - q3).abs() < 1e-12,
                "{data:?}: {a} {b}"
            );
            assert!((median(data) - med).abs() < 1e-12, "{data:?}");
        }
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn summary_reports_extremes_and_spread() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
        assert!((s.spread() - 3.0 / 3.0).abs() < 1e-12);
    }

    /// Ten runs around `center`, within half a percent of it.
    fn runs(center: f64) -> Vec<f64> {
        [
            1.0, 1.004, 0.996, 1.002, 0.998, 1.001, 0.999, 1.003, 0.997, 1.0,
        ]
        .iter()
        .map(|f| f * center)
        .collect()
    }

    #[test]
    fn identical_runs_are_within_bound() {
        let r = runs(10.0);
        assert_eq!(verdict(&r, &r, Better::Lower, 0.1), Verdict::WithinBound);
    }

    #[test]
    fn a_clear_slowdown_beyond_the_bound_is_worse() {
        let (parent, change) = (runs(10.0), runs(12.0));
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Worse
        );
        // The same numbers as a higher-is-better rate read as a gain.
        assert_eq!(
            verdict(&parent, &change, Better::Higher, 0.1),
            Verdict::Better
        );
        // A worsening needs no minimum run count; a gain does.
        assert_eq!(
            verdict(&parent[..3], &change[..3], Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent[..5], &change[..5], Better::Higher, 0.1),
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_small_consistent_gain_is_better() {
        assert_eq!(
            verdict(&runs(10.0), &runs(9.5), Better::Lower, 0.1),
            Verdict::Better
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = [10.0, 14.0, 8.0, 12.0, 9.0];
        let change = [10.5, 13.0, 8.5, 12.5, 9.5];
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ...even when the change's median is much worse: noise that wide
        // cannot tell a regression from luck.
        let slower = [13.0, 17.0, 11.0, 15.0, 12.0];
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn every_run_better_resolves_a_wide_spread() {
        let parent: Vec<f64> = (0..10).map(|i| 8.0 + f64::from(i)).collect();
        let change: Vec<f64> = (0..10).map(|i| 2.0 + 0.1 * f64::from(i)).collect();
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Better
        );
    }

    #[test]
    fn a_gain_inside_the_parent_noise_is_not_claimed() {
        // Wins every pair, but the median moved less than the parent's
        // interquartile distance.
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.2 * f64::from(i)).collect();
        let change: Vec<f64> = (0..10).map(|i| 9.9 + 0.01 * f64::from(i)).collect();
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.25),
            Verdict::WithinBound
        );
    }
}
