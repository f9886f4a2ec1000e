//! The analytical chip power model (McPAT substitute).
//!
//! `P = Σ_cores [ C_eff · V² · f · activity + idle_dyn ] + leakage(V) +
//! uncore(V)`. Absolute watts are calibrated loosely to a 22 nm quad-core
//! Haswell (≈ 85 W fully busy at 4 GHz / 1.05 V); the experiments only use
//! power *ratios*, which depend on the dynamic/static split and the V/f
//! curve, not on the absolute scale.

use dvfs_trace::{Freq, TimeDelta};

use crate::vf::VfCurve;

/// Instantaneous chip power decomposition, in watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// Switching power of busy cores.
    pub core_dynamic: f64,
    /// Leakage of all cores (voltage-dependent, frequency-independent).
    pub core_static: f64,
    /// Uncore/L3/memory-controller power.
    pub uncore: f64,
}

impl PowerBreakdown {
    /// Total watts.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.core_dynamic + self.core_static + self.uncore
    }
}

/// The chip power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    vf: VfCurve,
    /// Effective switched capacitance per core (farads).
    c_eff: f64,
    /// Leakage current coefficient per core: `P = k · V` (watts per volt).
    core_leak_per_volt: f64,
    /// Uncore power at nominal voltage: `P = k · V` (watts per volt).
    uncore_per_volt: f64,
}

impl PowerModel {
    /// The default 22 nm quad-core model. At 4 GHz / 1.05 V, fully busy:
    /// ≈ 62 W dynamic + 27 W core leakage + 10 W uncore ≈ 99 W — a ~62/38
    /// dynamic/static split (22 nm leakage is substantial in McPAT).
    #[must_use]
    pub fn haswell_22nm() -> Self {
        PowerModel {
            vf: VfCurve::haswell(),
            c_eff: 3.5e-9,
            core_leak_per_volt: 6.5,
            uncore_per_volt: 9.5,
        }
    }

    /// The V/f curve in use.
    #[must_use]
    pub fn vf(&self) -> &VfCurve {
        &self.vf
    }

    /// Chip power at `freq` with the given per-core activity factors
    /// (0 = idle, 1 = fully busy).
    #[must_use]
    pub fn power(&self, freq: Freq, core_activity: &[f64]) -> PowerBreakdown {
        let v = self.vf.voltage(freq);
        let dyn_per_busy_core = self.c_eff * v * v * freq.hz();
        let core_dynamic: f64 = core_activity
            .iter()
            .map(|&a| dyn_per_busy_core * a.clamp(0.0, 1.0))
            .sum();
        self.breakdown(v, core_dynamic, core_activity.len())
    }

    /// [`power`](Self::power) with every one of `cores` cores at the same
    /// `activity`, bit for bit, without an activity slice: the per-core
    /// term is summed `cores` times from `-0.0`, as `Iterator::sum` does.
    #[must_use]
    pub fn power_uniform(&self, freq: Freq, activity: f64, cores: usize) -> PowerBreakdown {
        let v = self.vf.voltage(freq);
        let per_core = self.c_eff * v * v * freq.hz() * activity.clamp(0.0, 1.0);
        let core_dynamic = (0..cores).fold(-0.0, |sum, _| sum + per_core);
        self.breakdown(v, core_dynamic, cores)
    }

    fn breakdown(&self, v: f64, core_dynamic: f64, cores: usize) -> PowerBreakdown {
        PowerBreakdown {
            core_dynamic,
            core_static: self.core_leak_per_volt * v * cores as f64,
            uncore: self.uncore_per_volt * v,
        }
    }

    /// Energy (joules) of an interval of `duration` at `freq` with the
    /// given mean per-core activity.
    #[must_use]
    pub fn energy(&self, freq: Freq, duration: TimeDelta, core_activity: &[f64]) -> f64 {
        self.power(freq, core_activity).total() * duration.as_secs()
    }

    /// Energy of a whole constant-frequency run. Power is linear in
    /// activity, so only the run's total busy (scheduled) core time
    /// matters, not its distribution over intervals.
    #[must_use]
    pub fn energy_of_run(
        &self,
        freq: Freq,
        exec: TimeDelta,
        total_busy: TimeDelta,
        cores: usize,
    ) -> f64 {
        let idle = self.power_uniform(freq, 0.0, cores).total();
        let v = self.vf.voltage(freq);
        let dyn_rate = self.c_eff * v * v * freq.hz();
        idle * exec.as_secs() + dyn_rate * total_busy.as_secs()
    }

    /// Energy of a run with *per-core* frequencies (the per-core DVFS
    /// extension): each core contributes its own leakage and dynamic
    /// energy; the uncore runs at the fastest core's voltage.
    #[must_use]
    pub fn energy_of_heterogeneous_run(
        &self,
        core_freqs: &[Freq],
        exec: TimeDelta,
        core_busy: &[TimeDelta],
    ) -> f64 {
        assert_eq!(core_freqs.len(), core_busy.len());
        let mut joules = 0.0;
        let mut v_max: f64 = 0.0;
        for (f, busy) in core_freqs.iter().zip(core_busy) {
            let v = self.vf.voltage(*f);
            v_max = v_max.max(v);
            let dyn_rate = self.c_eff * v * v * f.hz();
            joules += self.core_leak_per_volt * v * exec.as_secs();
            joules += dyn_rate * busy.as_secs();
        }
        joules + self.uncore_per_volt * v_max * exec.as_secs()
    }
}

/// Accumulates energy over a run's intervals.
#[derive(Debug, Clone, Default)]
pub struct EnergyAccount {
    joules: f64,
    elapsed: TimeDelta,
}

impl EnergyAccount {
    /// An empty account.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one interval at `freq` with every one of `cores` cores at the
    /// same `activity`: the joules of [`PowerModel::energy`] over a slice
    /// of `cores` copies of `activity`, bit for bit, without the slice.
    pub fn add_uniform(
        &mut self,
        model: &PowerModel,
        freq: Freq,
        duration: TimeDelta,
        activity: f64,
        cores: usize,
    ) {
        self.joules += model.power_uniform(freq, activity, cores).total() * duration.as_secs();
        self.elapsed += duration;
    }

    /// Total joules so far.
    #[must_use]
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Total time accounted.
    #[must_use]
    pub fn elapsed(&self) -> TimeDelta {
        self.elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_uniform_matches_power_over_a_uniform_slice_bit_for_bit() {
        let m = PowerModel::haswell_22nm();
        for ghz in [1.0, 2.3, 4.0] {
            let f = Freq::from_ghz(ghz);
            for a in [-0.5, -0.0, 0.0, 1e-9, 0.3, 0.1 + 0.2, 1.0, 1.7] {
                for cores in [0, 1, 2, 3, 4, 7, 16, 64] {
                    let slice = m.power(f, &vec![a; cores]);
                    let uniform = m.power_uniform(f, a, cores);
                    for (got, want) in [
                        (uniform.core_dynamic, slice.core_dynamic),
                        (uniform.core_static, slice.core_static),
                        (uniform.uncore, slice.uncore),
                        (uniform.total(), slice.total()),
                    ] {
                        assert_eq!(got.to_bits(), want.to_bits(), "{ghz} GHz, {a} x {cores}");
                    }
                }
            }
        }
    }

    #[test]
    fn busy_chip_at_4ghz_is_haswell_class() {
        let m = PowerModel::haswell_22nm();
        let p = m.power(Freq::from_ghz(4.0), &[1.0; 4]).total();
        assert!((60.0..110.0).contains(&p), "got {p} W");
    }

    #[test]
    fn power_decreases_with_frequency_and_activity() {
        let m = PowerModel::haswell_22nm();
        let hi = m.power(Freq::from_ghz(4.0), &[1.0; 4]).total();
        let lo = m.power(Freq::from_ghz(2.0), &[1.0; 4]).total();
        assert!(lo < 0.6 * hi, "V² f scaling should bite: {lo} vs {hi}");
        let idle = m.power(Freq::from_ghz(4.0), &[0.0; 4]).total();
        assert!(idle < 0.45 * hi, "idle power is mostly static: {idle}");
        assert!(idle > 0.0);
    }

    #[test]
    fn energy_per_op_favours_lower_frequency_for_compute() {
        // A fixed amount of compute: T ∝ 1/f; E = P·T.
        let m = PowerModel::haswell_22nm();
        let e = |ghz: f64| {
            m.energy(
                Freq::from_ghz(ghz),
                TimeDelta::from_secs(1.0 / ghz),
                &[1.0; 4],
            )
        };
        // Dynamic energy ∝ V² falls with f, but leakage time rises: the
        // curve must not be monotone all the way down.
        let e4 = e(4.0);
        let e3 = e(3.0);
        let e1 = e(1.0);
        assert!(e3 < e4, "mid frequency should beat max: {e3} vs {e4}");
        assert!(
            e1 > 0.5 * e4,
            "leakage must punish the lowest frequency: {e1} vs {e4}"
        );
    }

    #[test]
    fn account_accumulates() {
        let m = PowerModel::haswell_22nm();
        let mut acc = EnergyAccount::new();
        let interval = TimeDelta::from_millis(10.0);
        acc.add_uniform(&m, Freq::from_ghz(4.0), interval, 1.0, 4);
        acc.add_uniform(&m, Freq::from_ghz(1.0), interval, 1.0, 4);
        assert!(acc.joules() > 0.0);
        assert!((acc.elapsed().as_millis() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_account_matches_energy_over_a_slice_bit_for_bit() {
        let m = PowerModel::haswell_22nm();
        let mut acc = EnergyAccount::new();
        let mut want = 0.0;
        for (ghz, ms, a, cores) in [
            (4.0, 1.0, 0.3, 4),
            (2.3, 0.7, 0.1 + 0.2, 7),
            (1.0, 3.0, 1.7, 2),
        ] {
            let (f, d) = (Freq::from_ghz(ghz), TimeDelta::from_millis(ms));
            acc.add_uniform(&m, f, d, a, cores);
            want += m.energy(f, d, &vec![a; cores]);
            assert_eq!(
                acc.joules().to_bits(),
                want.to_bits(),
                "{ghz} GHz, {a} x {cores}"
            );
        }
    }
}
