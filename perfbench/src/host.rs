//! How fast the host runs right now, and wall times rescaled to a fixed
//! host speed.
//!
//! On a 2-vCPU Intel Xeon VM shared with other tenants, the same
//! operation ran up to 1.9x slower for minutes at a time, with no CPU
//! steal and no page faults to show for it. A dependent multiply chain did
//! not slow at all and a pointer chase slowed less than the operations,
//! while throughput-bound loops slowed in step with them: the neighbours
//! take execution throughput, as a busy sibling hyperthread does. So the
//! probe here is throughput-bound code that the program under test does
//! not contain and no change to it can speed up: eight independent
//! multiply chains, a sort, and a hash-map build and lookup. Its wall
//! time, measured right before and right after an operation, tells how
//! much of the host the operation got, and [`Clock::rescale`] divides
//! that out.
//!
//! The probe slows about as much as the operations do, not exactly as
//! much. Between the slower half of a minute of operations and their
//! fastest tenth (the neighbours paused), raw times differed 1.17x to
//! 1.61x depending on the workload, rescaled ones 1.02x to 1.21x.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's wall time on the reference host, ms: about its time on an
/// otherwise idle core of a 2-vCPU Intel Xeon VM. A rescaled time is the
/// time the operation would take on a host that runs the probe this fast.
pub const REFERENCE_MS: f64 = 3.4;

const CHAIN_STEPS: u64 = 400_000;
const SORTED: usize = 60_000;
const MAPPED: usize = 20_000;

/// The probe's inputs and buffers, allocated once so that a probe
/// measures no page faults.
#[derive(Debug)]
pub struct Probe {
    keys: Vec<u64>,
    scratch: Vec<u64>,
    map: HashMap<u64, u64>,
}

impl Default for Probe {
    fn default() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let keys = (0..SORTED)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Probe {
            keys,
            scratch: Vec::with_capacity(SORTED),
            map: HashMap::with_capacity(MAPPED),
        }
    }
}

impl Probe {
    /// Runs the probe once; returns its wall time, ms.
    pub fn run_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(self.work());
        t0.elapsed().as_secs_f64() * 1e3
    }

    fn work(&mut self) -> u64 {
        let mut chains = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for i in 0..black_box(CHAIN_STEPS) {
            for (j, c) in chains.iter_mut().enumerate() {
                *c = c
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(i ^ j as u64);
            }
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(black_box(&self.keys));
        self.scratch.sort_unstable();
        self.map.clear();
        for (i, &k) in self.keys[..MAPPED].iter().enumerate() {
            self.map.insert(k, i as u64);
        }
        let found: u64 = self
            .keys
            .iter()
            .map(|k| self.map.get(k).copied().unwrap_or(1))
            .sum();
        chains
            .iter()
            .fold(found ^ self.scratch[SORTED / 2], |a, c| a ^ c)
    }
}

/// Rescales wall times to the reference host speed, probing the host
/// between the timed intervals.
#[derive(Debug)]
pub struct Clock {
    probe: Probe,
    last_ms: f64,
    probes_ms: Vec<f64>,
}

impl Clock {
    /// Probes the host once, before the first interval.
    #[must_use]
    pub fn start() -> Self {
        let mut probe = Probe::default();
        probe.run_ms();
        let last_ms = probe.run_ms();
        Clock {
            probe,
            last_ms,
            probes_ms: vec![last_ms],
        }
    }

    /// `secs`, the wall time of an interval that ended just now, rescaled
    /// by the mean of the probes before and after it.
    pub fn rescale(&mut self, secs: f64) -> f64 {
        let now = self.probe.run_ms();
        let host_ms = (self.last_ms + now) / 2.0;
        self.last_ms = now;
        self.probes_ms.push(now);
        secs * REFERENCE_MS / host_ms
    }

    /// Every probe's wall time so far, ms.
    #[must_use]
    pub fn probes_ms(&self) -> &[f64] {
        &self.probes_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescaling_divides_out_the_probe() {
        let mut clock = Clock::start();
        let secs = 0.5;
        let rescaled = clock.rescale(secs);
        let p = clock.probes_ms();
        let host_ms = (p[0] + p[1]) / 2.0;
        assert!((rescaled - secs * REFERENCE_MS / host_ms).abs() < 1e-12);
        assert!(p.iter().all(|&ms| ms > 0.0));
    }
}
