//! Clock frequencies and DVFS operating-point ladders.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::TimeDelta;

/// A core clock frequency, stored with megahertz resolution.
///
/// Megahertz resolution matches the paper's 125 MHz DVFS step and keeps
/// `Freq` hashable and exactly comparable.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Freq(u32);

impl Freq {
    /// Creates a frequency from megahertz.
    #[must_use]
    #[inline]
    pub fn from_mhz(mhz: u32) -> Self {
        Freq(mhz)
    }

    /// Creates a frequency from gigahertz.
    ///
    /// # Panics
    /// Panics if `ghz` is not representable at megahertz resolution or is
    /// non-positive.
    #[must_use]
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        let mhz = ghz * 1e3;
        assert!(
            mhz > 0.0 && (mhz - mhz.round()).abs() < 1e-6,
            "frequency {ghz} GHz is not a whole number of MHz"
        );
        Freq(mhz.round() as u32)
    }

    /// This frequency in megahertz.
    #[must_use]
    #[inline]
    pub fn mhz(self) -> u32 {
        self.0
    }

    /// This frequency in gigahertz.
    #[must_use]
    #[inline]
    pub fn ghz(self) -> f64 {
        f64::from(self.0) * 1e-3
    }

    /// This frequency in hertz.
    #[must_use]
    #[inline]
    pub fn hz(self) -> f64 {
        f64::from(self.0) * 1e6
    }

    /// The time taken to execute `cycles` clock cycles at this frequency.
    #[must_use]
    #[inline]
    pub fn cycles_to_time(self, cycles: f64) -> TimeDelta {
        TimeDelta::from_secs(cycles / self.hz())
    }

    /// The scaling ratio `self / target`: the factor by which a purely
    /// frequency-scaled duration measured at `self` grows when re-run at
    /// `target` (paper §II-A: scaling component × base/target).
    #[must_use]
    #[inline]
    pub fn scaling_ratio_to(self, target: Freq) -> f64 {
        f64::from(self.0) / f64::from(target.0)
    }
}

impl fmt::Display for Freq {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1000) {
            write!(f, "{} GHz", self.0 / 1000)
        } else {
            write!(f, "{:.3} GHz", self.ghz())
        }
    }
}

/// An inclusive ladder of DVFS operating points: `min`, `min + step`, …,
/// `max`, matching the paper's 1.0–4.0 GHz range with 125 MHz steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FreqLadder {
    min: Freq,
    max: Freq,
    step_mhz: u32,
}

impl FreqLadder {
    /// The paper's ladder: 1.0 GHz to 4.0 GHz in 125 MHz steps (25 states).
    #[must_use]
    #[inline]
    pub fn paper_default() -> Self {
        Self::new(Freq::from_ghz(1.0), Freq::from_ghz(4.0), 125)
            .expect("the paper ladder is well-formed")
    }

    /// Creates a ladder. `max - min` must be a whole number of steps.
    #[inline]
    pub fn new(min: Freq, max: Freq, step_mhz: u32) -> Result<Self, LadderError> {
        if step_mhz == 0 {
            return Err(LadderError::ZeroStep);
        }
        if max < min {
            return Err(LadderError::Inverted { min, max });
        }
        if !(max.mhz() - min.mhz()).is_multiple_of(step_mhz) {
            return Err(LadderError::Misaligned { min, max, step_mhz });
        }
        Ok(FreqLadder { min, max, step_mhz })
    }

    /// The lowest operating point.
    #[must_use]
    #[inline]
    pub fn min(&self) -> Freq {
        self.min
    }

    /// The highest operating point.
    #[must_use]
    #[inline]
    pub fn max(&self) -> Freq {
        self.max
    }

    /// The step between adjacent operating points, in MHz.
    #[must_use]
    #[inline]
    pub fn step_mhz(&self) -> u32 {
        self.step_mhz
    }

    /// The number of operating points on the ladder.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        ((self.max.mhz() - self.min.mhz()) / self.step_mhz) as usize + 1
    }

    /// A ladder always contains at least one point.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if `freq` is one of the ladder's operating points.
    #[must_use]
    #[inline]
    pub fn contains(&self, freq: Freq) -> bool {
        freq >= self.min
            && freq <= self.max
            && (freq.mhz() - self.min.mhz()).is_multiple_of(self.step_mhz)
    }

    /// Iterates the operating points from lowest to highest.
    #[inline]
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = Freq> + '_ {
        (0..self.len() as u32).map(move |i| Freq::from_mhz(self.min.mhz() + i * self.step_mhz))
    }

    /// The nearest ladder point at or below `freq` (clamped to `min`).
    #[must_use]
    #[inline]
    pub fn floor(&self, freq: Freq) -> Freq {
        if freq <= self.min {
            return self.min;
        }
        if freq >= self.max {
            return self.max;
        }
        let steps = (freq.mhz() - self.min.mhz()) / self.step_mhz;
        Freq::from_mhz(self.min.mhz() + steps * self.step_mhz)
    }
}

/// Errors constructing a [`FreqLadder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderError {
    /// The step was zero.
    ZeroStep,
    /// `max` was below `min`.
    Inverted {
        /// Requested minimum.
        min: Freq,
        /// Requested maximum.
        max: Freq,
    },
    /// The range is not a whole number of steps.
    Misaligned {
        /// Requested minimum.
        min: Freq,
        /// Requested maximum.
        max: Freq,
        /// Requested step in MHz.
        step_mhz: u32,
    },
}

impl fmt::Display for LadderError {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LadderError::ZeroStep => write!(f, "frequency ladder step must be non-zero"),
            LadderError::Inverted { min, max } => {
                write!(f, "frequency ladder max {max} below min {min}")
            }
            LadderError::Misaligned { min, max, step_mhz } => write!(
                f,
                "range {min}..{max} is not a whole number of {step_mhz} MHz steps"
            ),
        }
    }
}

impl std::error::Error for LadderError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghz_mhz_roundtrip() {
        let f = Freq::from_ghz(3.875);
        assert_eq!(f.mhz(), 3875);
        assert!((f.ghz() - 3.875).abs() < 1e-12);
    }

    #[test]
    fn cycle_time_at_one_ghz_is_one_ns() {
        let f = Freq::from_ghz(1.0);
        assert!((f.cycles_to_time(1.0).as_nanos() - 1.0).abs() < 1e-12);
        assert!((f.cycles_to_time(1000.0).as_micros() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scaling_ratio_matches_paper_convention() {
        // Predicting 1 GHz -> 4 GHz: scaling time shrinks by 4.
        let base = Freq::from_ghz(1.0);
        let target = Freq::from_ghz(4.0);
        assert!((base.scaling_ratio_to(target) - 0.25).abs() < 1e-12);
        assert!((target.scaling_ratio_to(base) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn paper_ladder_has_25_points() {
        let ladder = FreqLadder::paper_default();
        assert_eq!(ladder.len(), 25);
        let points: Vec<_> = ladder.iter().collect();
        assert_eq!(points[0], Freq::from_ghz(1.0));
        assert_eq!(points[24], Freq::from_ghz(4.0));
        assert_eq!(points[1], Freq::from_mhz(1125));
        assert!(ladder.contains(Freq::from_mhz(2500)));
        assert!(!ladder.contains(Freq::from_mhz(2501)));
    }

    #[test]
    fn ladder_floor_clamps_and_snaps() {
        let ladder = FreqLadder::paper_default();
        assert_eq!(ladder.floor(Freq::from_mhz(900)), Freq::from_ghz(1.0));
        assert_eq!(ladder.floor(Freq::from_mhz(4100)), Freq::from_ghz(4.0));
        assert_eq!(ladder.floor(Freq::from_mhz(1300)), Freq::from_mhz(1250));
    }

    #[test]
    fn ladder_rejects_bad_shapes() {
        assert_eq!(
            FreqLadder::new(Freq::from_mhz(1000), Freq::from_mhz(2000), 0),
            Err(LadderError::ZeroStep)
        );
        assert!(matches!(
            FreqLadder::new(Freq::from_mhz(2000), Freq::from_mhz(1000), 125),
            Err(LadderError::Inverted { .. })
        ));
        assert!(matches!(
            FreqLadder::new(Freq::from_mhz(1000), Freq::from_mhz(2060), 125),
            Err(LadderError::Misaligned { .. })
        ));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Freq::from_ghz(4.0)), "4 GHz");
        assert_eq!(format!("{}", Freq::from_mhz(3875)), "3.875 GHz");
    }
}
