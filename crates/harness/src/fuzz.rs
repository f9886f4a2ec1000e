//! Deterministic structure-aware fuzzing of the simulator under the
//! invariant monitor, with shrinking.
//!
//! A fuzz *case* is drawn from a small grammar of valid-by-construction
//! inputs: a benchmark and workload seed, a machine shape (cores,
//! store-queue depth, cache sampling, watchdog stride), a DVFS ladder
//! (min/step/point-count plus a base and target operating point), and an
//! optional seeded fault schedule from the measurable classes of
//! [`simx::faults`]. Every case runs under
//! [`InvariantMode::Full`]; fault-free cases
//! additionally run at the target frequency so the *metamorphic*
//! invariants — non-scaling time invariant under frequency change, total
//! execution time monotone non-increasing in frequency, predictor output
//! finite and bounded over the ladder — can compare the two runs.
//!
//! Campaigns are a pure function of `(campaign_seed, case count)`: case
//! generation uses [`SplitMix64`] streams, the simulator is seeded, and
//! the checks are deterministic, so a campaign's findings — and the
//! shrunk reproducer of each finding — are byte-for-byte reproducible.
//!
//! Shrinking is greedy over a fixed, ordered list of simplifying
//! transforms (drop the fault schedule, minimum scale, one core, seed 1,
//! default machine shape, two-point ladder, first benchmark), accepting a
//! candidate only if it still violates the *same* invariant, and
//! repeating until a full pass changes nothing. Fixed order + determinism
//! ⇒ the minimal reproducer is itself deterministic (asserted by a
//! proptest in `tests/fuzz.rs`).

use depburst::DvfsPredictor;
use depburst_core::stablehash::SplitMix64;
use depburst_core::DepburstError;
use dvfs_trace::{ExecutionTrace, Freq, FreqLadder};
use serde::Serialize;
use simx::{FaultClass, FaultConfig, Invariant, InvariantMode, Machine, MachineConfig, RunOutcome};

use crate::run::finish_run;

/// The fault classes the fuzzer draws schedules from: the measurable
/// classes that corrupt observations or timing without killing the run.
/// `PanicPoint` is excluded (it exercises the *harness*, not the
/// physics) and so are the transition faults (a denied transition aborts
/// unmanaged runs by design).
pub const FUZZ_FAULTS: [FaultClass; 5] = [
    FaultClass::CounterNoise,
    FaultClass::CounterDropout,
    FaultClass::CounterSaturation,
    FaultClass::DelayedHarvest,
    FaultClass::DramJitter,
];

/// Menu of work scales, in thousandths (`10` = scale 0.01). Small enough
/// that a case simulates in tens of milliseconds.
const SCALE_MILLI: [u32; 4] = [10, 15, 20, 30];
/// Menu of core counts.
const CORES: [usize; 3] = [1, 2, 4];
/// Menu of store-queue depths (42 is the Haswell default).
const SQ_ENTRIES: [u32; 4] = [8, 16, 42, 64];
/// Menu of cache sampling ratios (64 is the default).
const SAMPLE_RATIO: [u32; 3] = [16, 64, 128];
/// Menu of watchdog poll strides (4096 is the historic default).
const WATCHDOG_STRIDE: [u32; 3] = [256, 1024, 4096];
/// Menu of ladder minimum frequencies (MHz).
const LADDER_MIN_MHZ: [u32; 3] = [800, 1000, 2000];
/// Menu of ladder steps (MHz); 125 is the paper's.
const LADDER_STEP_MHZ: [u32; 4] = [100, 125, 200, 500];

/// An optional seeded fault schedule riding on a case.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FuzzFault {
    /// The injected class ([`FaultClass::name`] form).
    pub class: String,
    /// Intensity in thousandths (`500` = 0.5).
    pub intensity_milli: u32,
    /// The injector seed.
    pub seed: u64,
}

/// One structure-aware fuzz input: everything a case's machine, ladder,
/// workload, and fault schedule are built from. Plain data — generation,
/// mutation (shrinking), and JSON reporting all operate on this.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FuzzCase {
    /// The benchmark name (always a valid `dacapo_sim` benchmark).
    pub bench: String,
    /// Work scale in thousandths (`10` = scale 0.01).
    pub scale_milli: u32,
    /// Workload RNG seed.
    pub workload_seed: u64,
    /// Machine core count.
    pub cores: usize,
    /// Store-queue depth (entries).
    pub sq_entries: u32,
    /// Cache sampling ratio.
    pub sample_ratio: u32,
    /// Watchdog poll stride (events per deadline check).
    pub watchdog_stride: u32,
    /// DVFS ladder minimum (MHz).
    pub ladder_min_mhz: u32,
    /// DVFS ladder step (MHz).
    pub ladder_step_mhz: u32,
    /// DVFS ladder operating-point count (≥ 2).
    pub ladder_points: u32,
    /// Ladder index the case runs at (the machine's base frequency).
    pub base_point: u32,
    /// Ladder index of the metamorphic comparison run
    /// (`> base_point`, i.e. a strictly higher frequency).
    pub target_point: u32,
    /// The fault schedule, if any. Metamorphic checks only run on
    /// fault-free cases — injected faults corrupt observations on
    /// purpose, so cross-run comparisons would report the injection, not
    /// a bug.
    pub fault: Option<FuzzFault>,
}

impl FuzzCase {
    /// The case's work scale as a fraction.
    #[must_use]
    pub fn scale(&self) -> f64 {
        f64::from(self.scale_milli) / 1000.0
    }

    /// The case's DVFS ladder (valid by construction: the maximum is
    /// `min + (points - 1) * step`, so alignment cannot fail).
    #[must_use]
    pub fn ladder(&self) -> FreqLadder {
        let min = Freq::from_mhz(self.ladder_min_mhz);
        let max =
            Freq::from_mhz(self.ladder_min_mhz + (self.ladder_points - 1) * self.ladder_step_mhz);
        FreqLadder::new(min, max, self.ladder_step_mhz).expect("fuzz ladders align by construction")
    }

    /// The frequency at ladder index `point`.
    #[must_use]
    pub fn freq_at(&self, point: u32) -> Freq {
        Freq::from_mhz(self.ladder_min_mhz + point * self.ladder_step_mhz)
    }

    /// The machine configuration the case describes, at its base
    /// frequency.
    #[must_use]
    pub fn machine_config(&self) -> MachineConfig {
        let mut mc = MachineConfig::haswell_quad();
        mc.cores = self.cores;
        mc.store_queue_entries = self.sq_entries;
        mc.sample_ratio = self.sample_ratio;
        mc.watchdog_stride = self.watchdog_stride;
        mc.initial_freq = self.freq_at(self.base_point);
        mc
    }

    /// The fault injector configuration, when the case carries one.
    #[must_use]
    pub fn fault_config(&self) -> Option<FaultConfig> {
        self.fault.as_ref().map(|f| {
            let class = FaultClass::from_name(&f.class).expect("fuzz faults use valid names");
            FaultConfig::single(class, f64::from(f.intensity_milli) / 1000.0, f.seed)
        })
    }
}

fn pick<T: Copy>(rng: &mut SplitMix64, menu: &[T]) -> T {
    menu[(rng.next_u64() % menu.len() as u64) as usize]
}

/// Generates case `index` of the campaign seeded by `campaign_seed`.
/// Pure: the same `(campaign_seed, index)` always yields the same case,
/// independent of every other case.
#[must_use]
pub fn generate(campaign_seed: u64, index: u64) -> FuzzCase {
    let mut rng = SplitMix64::keyed(campaign_seed, index);
    let benches = dacapo_sim::all_benchmarks();
    let bench = benches[(rng.next_u64() % benches.len() as u64) as usize]
        .name
        .to_owned();
    let ladder_points = 2 + (rng.next_u64() % 7) as u32; // 2..=8
    let a = (rng.next_u64() % u64::from(ladder_points)) as u32;
    let b = (rng.next_u64() % u64::from(ladder_points - 1)) as u32;
    let b = if b >= a { b + 1 } else { b };
    let fault = if rng.chance(0.5) {
        Some(FuzzFault {
            class: pick(&mut rng, &FUZZ_FAULTS).name().to_owned(),
            intensity_milli: 50 + (rng.next_u64() % 951) as u32, // 50..=1000
            seed: rng.next_u64(),
        })
    } else {
        None
    };
    FuzzCase {
        bench,
        scale_milli: pick(&mut rng, &SCALE_MILLI),
        workload_seed: 1 + rng.next_u64() % 4,
        cores: pick(&mut rng, &CORES),
        sq_entries: pick(&mut rng, &SQ_ENTRIES),
        sample_ratio: pick(&mut rng, &SAMPLE_RATIO),
        watchdog_stride: pick(&mut rng, &WATCHDOG_STRIDE),
        ladder_min_mhz: pick(&mut rng, &LADDER_MIN_MHZ),
        ladder_step_mhz: pick(&mut rng, &LADDER_STEP_MHZ),
        ladder_points,
        base_point: a.min(b),
        target_point: a.max(b),
        fault,
    }
}

/// An invariant violation a case provoked, keyed by the invariant's
/// stable name so the shrinker can insist on preserving *this* failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CaseViolation {
    /// The violated invariant's name (`simx::Invariant::name` form, or
    /// `"machine-error"` when the simulator failed outright).
    pub invariant: String,
    /// Human-readable description.
    pub detail: String,
}

/// Tolerances of the metamorphic checks. Generous by design: they must
/// hold across every machine shape and workload the grammar can draw, at
/// epoch granularity — a tight bound here would fuzz the tolerance, not
/// the simulator.
const NONSCALING_REL_TOL: f64 = 0.30;
const NONSCALING_ABS_TOL: f64 = 5e-6;
const MONOTONE_REL_TOL: f64 = 0.05;
const PREDICTOR_SLACK: f64 = 3.0;

/// Runs one simulation of `case` at `freq` under the full invariant
/// monitor (plus the optional sabotage hook), returning the execution
/// time (seconds) and harvested trace.
fn simulate(
    case: &FuzzCase,
    freq: Freq,
    sabotage: Option<Invariant>,
) -> depburst_core::Result<(f64, ExecutionTrace)> {
    let mut mc = case.machine_config();
    mc.initial_freq = freq;
    let mut machine = Machine::new(mc);
    machine.set_invariant_mode(InvariantMode::Full);
    if let Some(inv) = sabotage {
        machine.monitor_mut().sabotage(inv);
    }
    if let Some(fault) = case.fault_config() {
        machine.install_faults(fault);
    }
    let bench = dacapo_sim::benchmark(&case.bench).expect("fuzz cases name valid benchmarks");
    let runtime = bench.install(&mut machine, case.scale(), case.workload_seed);
    let outcome = machine.run()?;
    let RunOutcome::Completed(end) = outcome else {
        unreachable!("run() only returns at completion");
    };
    let trace = machine.harvest_trace();
    finish_run(&mut machine, &runtime)?;
    Ok((end.since(dvfs_trace::Time::ZERO).as_secs(), trace))
}

/// Sum of the frequency-invariant (non-scaling) time counters over a
/// trace: leading loads, epoch-level stall, and store-queue-full time.
fn nonscaling_secs(trace: &ExecutionTrace) -> f64 {
    trace
        .epochs
        .iter()
        .flat_map(|e| e.threads.iter())
        .map(|s| {
            s.counters.leading_loads.as_secs()
                + s.counters.stall.as_secs()
                + s.counters.sq_full.as_secs()
        })
        .sum()
}

/// Runs `case` under the full invariant monitor and returns its first
/// violation, or `None` for a clean case. Fault-free cases also run at
/// the target frequency and go through the metamorphic checks.
/// `sabotage` threads the test-only invariant-weakening hook through to
/// the machines (see [`simx::Monitor::sabotage`]).
#[must_use]
pub fn run_case(case: &FuzzCase, sabotage: Option<Invariant>) -> Option<CaseViolation> {
    // The fuzzed ladder's V/f curve must itself be sane before any
    // machine runs on it.
    let vf = energyx::VfCurve::new(case.ladder(), 0.65, 1.05);
    if let Some(detail) = vf.monotonicity_issue() {
        return Some(CaseViolation {
            invariant: Invariant::VfMonotonicity.name().to_owned(),
            detail,
        });
    }
    let base = match simulate(case, case.freq_at(case.base_point), sabotage) {
        Ok(run) => run,
        Err(err) => return Some(violation_of(err)),
    };
    if case.fault.is_some() {
        return None;
    }
    let target = match simulate(case, case.freq_at(case.target_point), sabotage) {
        Ok(run) => run,
        Err(err) => return Some(violation_of(err)),
    };
    metamorphic_violation(case, &base, &target)
}

/// Converts a simulation error into the violation it represents.
fn violation_of(err: DepburstError) -> CaseViolation {
    match err {
        DepburstError::InvariantViolation {
            invariant,
            at_secs,
            detail,
        } => CaseViolation {
            invariant,
            detail: format!("at t={at_secs} s: {detail}"),
        },
        other => CaseViolation {
            invariant: "machine-error".to_owned(),
            detail: other.to_string(),
        },
    }
}

/// The metamorphic checks over a fault-free case's base- and
/// target-frequency runs.
fn metamorphic_violation(
    case: &FuzzCase,
    base: &(f64, ExecutionTrace),
    target: &(f64, ExecutionTrace),
) -> Option<CaseViolation> {
    let (base_exec, base_trace) = base;
    let (target_exec, target_trace) = target;
    let base_mhz = case.freq_at(case.base_point).mhz();
    let target_mhz = case.freq_at(case.target_point).mhz();

    // M1: non-scaling time must not shrink with rising frequency the way
    // scaling work does. The check is directional on purpose: queue and
    // stall pressure legitimately *grows* at higher frequency (the core
    // issues faster than memory drains), but memory-bound time melting
    // away as the clock rises means it was misclassified scaling work.
    // `base` is the lower frequency by construction.
    let ns_base = nonscaling_secs(base_trace);
    let ns_target = nonscaling_secs(target_trace);
    if ns_base > ns_target * (1.0 + NONSCALING_REL_TOL) + NONSCALING_ABS_TOL {
        return Some(CaseViolation {
            invariant: Invariant::MetamorphicNonScaling.name().to_owned(),
            detail: format!(
                "non-scaling time fell from {ns_base} s at {base_mhz} MHz to {ns_target} s at \
                 {target_mhz} MHz: it tracks frequency like scaling work"
            ),
        });
    }

    // M2: execution time is monotone non-increasing in frequency.
    if *target_exec > base_exec * (1.0 + MONOTONE_REL_TOL) + 1e-9 {
        return Some(CaseViolation {
            invariant: Invariant::MetamorphicMonotone.name().to_owned(),
            detail: format!(
                "raising the frequency from {base_mhz} to {target_mhz} MHz slowed the run: \
                 {base_exec} s -> {target_exec} s"
            ),
        });
    }

    // M3: predictor output is finite, non-negative, and within ladder
    // bounds at every operating point.
    let ladder = case.ladder();
    let scan: Vec<Freq> = std::iter::once(ladder.max()).chain(ladder.iter()).collect();
    let mut predicted = Vec::with_capacity(scan.len());
    depburst::Dep::dep_burst().predict_many(base_trace, &scan, &mut predicted);
    let at_max = predicted[0].as_secs();
    if !at_max.is_finite() || at_max < 0.0 {
        return Some(CaseViolation {
            invariant: Invariant::PredictorBounds.name().to_owned(),
            detail: format!("prediction at the ladder maximum is {at_max} s"),
        });
    }
    for (&f, p) in scan[1..].iter().zip(&predicted[1..]) {
        let p = p.as_secs();
        if !p.is_finite() || p < 0.0 {
            return Some(CaseViolation {
                invariant: Invariant::PredictorBounds.name().to_owned(),
                detail: format!("prediction at {} MHz is {p} s", f.mhz()),
            });
        }
        // A run can only get slower below the maximum frequency, and no
        // slower than perfect scaling times a generous slack.
        let ratio = ladder.max().ghz() / f.ghz();
        if p > at_max * ratio * PREDICTOR_SLACK + NONSCALING_ABS_TOL {
            return Some(CaseViolation {
                invariant: Invariant::PredictorBounds.name().to_owned(),
                detail: format!(
                    "prediction at {} MHz is {p} s, beyond {PREDICTOR_SLACK}x perfect-scaling \
                     bound of the {at_max} s maximum-frequency prediction",
                    f.mhz()
                ),
            });
        }
    }
    None
}

/// One named shrinking transform over a case.
type Transform = (&'static str, fn(&FuzzCase) -> FuzzCase);

/// The fixed, ordered shrinking transforms: each simplifies one
/// dimension toward its most boring value. Order matters — it is part of
/// the shrinker's determinism contract.
fn transforms() -> Vec<Transform> {
    vec![
        ("drop-fault", |c| FuzzCase {
            fault: None,
            ..c.clone()
        }),
        ("min-scale", |c| FuzzCase {
            scale_milli: SCALE_MILLI[0],
            ..c.clone()
        }),
        ("one-core", |c| FuzzCase {
            cores: 1,
            ..c.clone()
        }),
        ("seed-one", |c| FuzzCase {
            workload_seed: 1,
            ..c.clone()
        }),
        ("default-sq", |c| FuzzCase {
            sq_entries: 42,
            ..c.clone()
        }),
        ("default-sampling", |c| FuzzCase {
            sample_ratio: 64,
            ..c.clone()
        }),
        ("default-stride", |c| FuzzCase {
            watchdog_stride: 4096,
            ..c.clone()
        }),
        ("two-point-ladder", |c| FuzzCase {
            ladder_min_mhz: 1000,
            ladder_step_mhz: 125,
            ladder_points: 2,
            base_point: 0,
            target_point: 1,
            ..c.clone()
        }),
        ("first-bench", |c| FuzzCase {
            bench: dacapo_sim::all_benchmarks()[0].name.to_owned(),
            ..c.clone()
        }),
    ]
}

/// Greedily shrinks a violating case to a minimal reproducer: each
/// transform is accepted only if the candidate still violates the *same*
/// invariant, and passes repeat until one changes nothing. Deterministic:
/// same case + same violation (+ same sabotage) → same reproducer.
#[must_use]
pub fn shrink(case: &FuzzCase, violation: &CaseViolation, sabotage: Option<Invariant>) -> FuzzCase {
    let mut current = case.clone();
    // Each accepted transform is idempotent, so one pass per transform
    // bounds the loop; the cap is belt-and-braces.
    for _ in 0..4 {
        let mut changed = false;
        for (_, transform) in transforms() {
            let candidate = transform(&current);
            if candidate == current {
                continue;
            }
            if let Some(v) = run_case(&candidate, sabotage) {
                if v.invariant == violation.invariant {
                    current = candidate;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    current
}

/// One campaign case's outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Finding {
    /// The case's index within the campaign.
    pub index: u64,
    /// The generated input.
    pub case: FuzzCase,
    /// The violation, if the case provoked one.
    pub violation: Option<CaseViolation>,
    /// The shrunk minimal reproducer (only when a violation was found
    /// and shrinking was requested).
    pub shrunk: Option<FuzzCase>,
}

/// Runs a campaign of `cases` generated from `campaign_seed`, in order,
/// optionally shrinking each violating case. Sequential and pure: the
/// returned findings are byte-for-byte reproducible.
#[must_use]
pub fn run_campaign(
    campaign_seed: u64,
    cases: u64,
    shrink_violations: bool,
    sabotage: Option<Invariant>,
) -> Vec<Finding> {
    (0..cases)
        .map(|index| {
            let case = generate(campaign_seed, index);
            let violation = run_case(&case, sabotage);
            let shrunk = match (&violation, shrink_violations) {
                (Some(v), true) => Some(shrink(&case, v, sabotage)),
                _ => None,
            };
            Finding {
                index,
                case,
                violation,
                shrunk,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fleet tier: structure-aware fuzzing of the fleet round loop — chaos
// schedules, governor topology, and the thermal/power-integrity layer —
// under the fleet's own invariants (power-budget and hierarchy-budget
// conservation, ladder membership, rejoin and throttle monotonicity,
// thermal ceiling), with the same greedy deterministic shrinking.
// ---------------------------------------------------------------------------

use crate::experiments::fleet::{self, FleetConfig, SyntheticMachine};
use simx::fleet::ChaosConfig;
use simx::ThermalConfig;

/// Menu of fleet round counts. Small enough that a case runs in
/// milliseconds on synthetic machines (no characterization).
const FLEET_ROUNDS: [usize; 4] = [20, 30, 40, 60];
/// Menu of per-machine power budgets, watts.
const FLEET_BUDGET_W: [u32; 4] = [40, 60, 90, 120];
/// Menu of mean outage durations, rounds: shorter than, at, and well
/// past the thermal time constant.
const FLEET_OUTAGE_ROUNDS: [u32; 3] = [4, 8, 16];

/// The synthetic machine profile menu, index-addressable so cases stay
/// plain data. Spans CPU-bound, GC-heavy, and fixed-cost-heavy shapes.
#[must_use]
pub fn fleet_profile(index: usize) -> SyntheticMachine {
    match index % 4 {
        0 => SyntheticMachine {
            scaling_s: 2.4e-3,
            fixed_s: 0.4e-3,
            alloc_per_req: 1.5e5,
            bytes_per_gc: 6.0e7,
            gc_pause_s: 8e-3,
        },
        1 => SyntheticMachine {
            scaling_s: 1.2e-3,
            fixed_s: 1.4e-3,
            alloc_per_req: 4.0e5,
            bytes_per_gc: 2.5e7,
            gc_pause_s: 20e-3,
        },
        2 => SyntheticMachine {
            scaling_s: 3.6e-3,
            fixed_s: 0.1e-3,
            alloc_per_req: 0.0,
            bytes_per_gc: 0.0,
            gc_pause_s: 0.0,
        },
        _ => SyntheticMachine {
            scaling_s: 1.8e-3,
            fixed_s: 0.8e-3,
            alloc_per_req: 2.5e5,
            bytes_per_gc: 1.0e8,
            gc_pause_s: 5e-3,
        },
    }
}

/// One structure-aware fleet fuzz input: the fleet shape, topology, the
/// full chaos schedule (legacy classes plus brownout / aggregator-crash
/// / stuck-sensor), and the thermal switch. Plain data, like
/// [`FuzzCase`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetFuzzCase {
    /// Machines (2..=8).
    pub machines: usize,
    /// Shards (1..=2, never more than machines).
    pub shards: usize,
    /// Region aggregators (1..=3, never more than machines).
    pub regions: usize,
    /// Fleet rounds.
    pub rounds: usize,
    /// Master seed (traffic, chaos, and sensors derive from it).
    pub seed: u64,
    /// Hierarchical governance on.
    pub hierarchy: bool,
    /// Thermal model + throttle ladder + breaker armed.
    pub thermal: bool,
    /// Legacy chaos intensity in thousandths (crash, partition,
    /// telemetry loss, stale telemetry, slow links).
    pub chaos_milli: u32,
    /// Brownout intensity, thousandths.
    pub brownout_milli: u32,
    /// Region-aggregator/root crash intensity, thousandths.
    pub aggregator_milli: u32,
    /// Stuck-sensor intensity, thousandths.
    pub sensor_milli: u32,
    /// Mean outage duration, rounds. Long incidents (past the thermal
    /// time constant) are what let budget-oblivious heat run away.
    pub outage_rounds: u32,
    /// Per-machine power budget, watts.
    pub budget_w_per_machine: u32,
    /// Indices into [`fleet_profile`], cycled across machines.
    pub profiles: Vec<usize>,
}

impl FleetFuzzCase {
    /// The fleet configuration this case describes.
    #[must_use]
    pub fn config(&self) -> FleetConfig {
        let mut config = FleetConfig::new(self.machines, self.shards, self.rounds, 0.02, self.seed);
        // DepBurst is the interesting policy: it exercises the delayed
        // telemetry ingest, demotion ladder, and rejoin paths.
        config.policy = energyx::GovernorPolicy::DepBurst;
        let mut chaos = ChaosConfig::uniform(f64::from(self.chaos_milli) / 1000.0, self.seed);
        chaos.brownout = f64::from(self.brownout_milli) / 1000.0;
        chaos.aggregator_crash = f64::from(self.aggregator_milli) / 1000.0;
        chaos.sensor_stuck = f64::from(self.sensor_milli) / 1000.0;
        chaos.mean_outage_rounds = self.outage_rounds.max(1);
        config.chaos = chaos;
        config.regions = self.regions;
        config.hierarchy = self.hierarchy;
        if self.thermal {
            config.thermal = ThermalConfig::datacenter(self.seed);
        }
        config.budget_w = f64::from(self.budget_w_per_machine) * self.machines as f64;
        config
    }

    /// The synthetic machine profiles, resolved from the menu.
    #[must_use]
    pub fn params(&self) -> Vec<SyntheticMachine> {
        self.profiles.iter().map(|&ix| fleet_profile(ix)).collect()
    }
}

/// Stream salt separating the fleet campaign from the point campaign at
/// the same seed.
const FLEET_CASE_SALT: u64 = 0x666C656574;

/// Generates fleet case `index` of the campaign seeded by
/// `campaign_seed`. Pure, like [`generate`].
#[must_use]
pub fn generate_fleet(campaign_seed: u64, index: u64) -> FleetFuzzCase {
    let mut rng = SplitMix64::keyed(campaign_seed ^ FLEET_CASE_SALT, index);
    let machines = 2 + (rng.next_u64() % 7) as usize; // 2..=8
    let shards = 1 + (rng.next_u64() % 2) as usize;
    let shards = shards.min(machines);
    let regions = (1 + (rng.next_u64() % 3) as usize).min(machines);
    let intensity = |rng: &mut SplitMix64| -> u32 {
        if rng.chance(0.5) {
            0
        } else {
            100 + (rng.next_u64() % 701) as u32 // 100..=800
        }
    };
    let chaos_milli = intensity(&mut rng);
    let brownout_milli = intensity(&mut rng);
    let aggregator_milli = intensity(&mut rng);
    let sensor_milli = intensity(&mut rng);
    let profile_count = 1 + (rng.next_u64() % 3) as usize;
    let profiles = (0..profile_count)
        .map(|_| (rng.next_u64() % 4) as usize)
        .collect();
    FleetFuzzCase {
        machines,
        shards,
        regions,
        rounds: pick(&mut rng, &FLEET_ROUNDS),
        seed: 1 + rng.next_u64() % 1000,
        hierarchy: rng.chance(0.5),
        thermal: rng.chance(0.6),
        chaos_milli,
        brownout_milli,
        aggregator_milli,
        sensor_milli,
        outage_rounds: pick(&mut rng, &FLEET_OUTAGE_ROUNDS),
        budget_w_per_machine: pick(&mut rng, &FLEET_BUDGET_W),
        profiles,
    }
}

/// Runs one fleet case under the full fleet invariant set (plus the
/// optional sabotage hook) and returns its violation, if any. Chaos is
/// *weather*, not failure: a clean run under any schedule returns
/// `None`; only an invariant violation (or an outright error) reports.
#[must_use]
pub fn run_fleet_case(case: &FleetFuzzCase, sabotage: Option<Invariant>) -> Option<CaseViolation> {
    let mut config = case.config();
    config.sabotage = sabotage;
    match fleet::run_synthetic(&config, &case.params()) {
        Ok(_) => None,
        Err(err) => Some(violation_of(err)),
    }
}

/// One named shrinking transform over a fleet case.
type FleetTransform = (&'static str, fn(&FleetFuzzCase) -> FleetFuzzCase);

/// The fixed, ordered fleet shrinking transforms. Transforms that would
/// remove a violation's trigger (calm weather for a chaos-dependent
/// finding, thermal-off for a ceiling breach) are naturally rejected by
/// the same-invariant rule, so the reproducer keeps exactly the
/// machinery the bug needs.
fn fleet_transforms() -> Vec<FleetTransform> {
    vec![
        ("calm-weather", |c| FleetFuzzCase {
            chaos_milli: 0,
            brownout_milli: 0,
            aggregator_milli: 0,
            sensor_milli: 0,
            ..c.clone()
        }),
        ("thermal-off", |c| FleetFuzzCase {
            thermal: false,
            ..c.clone()
        }),
        ("short-outages", |c| FleetFuzzCase {
            outage_rounds: FLEET_OUTAGE_ROUNDS[0],
            ..c.clone()
        }),
        ("flat-topology", |c| FleetFuzzCase {
            hierarchy: false,
            ..c.clone()
        }),
        ("one-region", |c| FleetFuzzCase {
            regions: 1,
            ..c.clone()
        }),
        ("short-run", |c| FleetFuzzCase {
            rounds: FLEET_ROUNDS[0],
            ..c.clone()
        }),
        ("small-fleet", |c| {
            let machines = 2.max(c.regions);
            FleetFuzzCase {
                machines,
                shards: 1,
                ..c.clone()
            }
        }),
        ("seed-one", |c| FleetFuzzCase {
            seed: 1,
            ..c.clone()
        }),
        ("one-profile", |c| FleetFuzzCase {
            profiles: vec![c.profiles[0]],
            ..c.clone()
        }),
    ]
}

/// Greedily shrinks a violating fleet case to a minimal reproducer,
/// with the same accept-only-same-invariant contract as [`shrink`].
#[must_use]
pub fn shrink_fleet(
    case: &FleetFuzzCase,
    violation: &CaseViolation,
    sabotage: Option<Invariant>,
) -> FleetFuzzCase {
    let mut current = case.clone();
    for _ in 0..4 {
        let mut changed = false;
        for (_, transform) in fleet_transforms() {
            let candidate = transform(&current);
            if candidate == current {
                continue;
            }
            if let Some(v) = run_fleet_case(&candidate, sabotage) {
                if v.invariant == violation.invariant {
                    current = candidate;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    current
}

/// One fleet campaign case's outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetFinding {
    /// The case's index within the campaign.
    pub index: u64,
    /// The generated input.
    pub case: FleetFuzzCase,
    /// The violation, if the case provoked one.
    pub violation: Option<CaseViolation>,
    /// The shrunk minimal reproducer (when violating and requested).
    pub shrunk: Option<FleetFuzzCase>,
}

/// Runs a fleet campaign of `cases` from `campaign_seed`, in order,
/// optionally shrinking each violating case. Sequential and pure.
#[must_use]
pub fn run_fleet_campaign(
    campaign_seed: u64,
    cases: u64,
    shrink_violations: bool,
    sabotage: Option<Invariant>,
) -> Vec<FleetFinding> {
    (0..cases)
        .map(|index| {
            let case = generate_fleet(campaign_seed, index);
            let violation = run_fleet_case(&case, sabotage);
            let shrunk = match (&violation, shrink_violations) {
                (Some(v), true) => Some(shrink_fleet(&case, v, sabotage)),
                _ => None,
            };
            FleetFinding {
                index,
                case,
                violation,
                shrunk,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        for index in 0..64 {
            let case = generate(42, index);
            assert_eq!(case, generate(42, index), "same inputs, same case");
            assert!(case.base_point < case.target_point);
            assert!(case.target_point < case.ladder_points);
            let ladder = case.ladder();
            assert!(ladder.contains(case.freq_at(case.base_point)));
            assert!(ladder.contains(case.freq_at(case.target_point)));
            assert!(dacapo_sim::benchmark(&case.bench).is_some());
            assert!(case.scale() > 0.0);
            if let Some(fault) = &case.fault {
                let class = FaultClass::from_name(&fault.class).expect("valid class");
                assert!(FUZZ_FAULTS.contains(&class), "{class} is fuzz-safe");
                assert!((50..=1000).contains(&fault.intensity_milli));
            }
        }
        assert_ne!(generate(1, 0), generate(2, 0), "seeds separate campaigns");
    }

    #[test]
    fn distinct_indices_draw_distinct_cases() {
        let cases: Vec<FuzzCase> = (0..16).map(|i| generate(7, i)).collect();
        let firsts = cases.iter().filter(|c| c.bench == cases[0].bench).count();
        assert!(firsts < 16, "cases must not all collapse to one benchmark");
    }

    #[test]
    fn a_clean_case_runs_without_violations() {
        // Index chosen arbitrarily; any violation here is a real bug (the
        // CI campaign covers many more).
        let case = generate(0xF00D, 0);
        assert_eq!(run_case(&case, None), None);
    }

    #[test]
    fn sabotage_is_caught_and_shrunk() {
        let case = generate(0xF00D, 1);
        let sabotage = Some(Invariant::CounterConservation);
        let violation = run_case(&case, sabotage).expect("sabotaged monitor must fire");
        assert_eq!(violation.invariant, "counter-conservation");
        let minimal = shrink(&case, &violation, sabotage);
        assert_eq!(
            run_case(&minimal, sabotage).expect("reproducer still fires").invariant,
            violation.invariant
        );
        // The shrinker reached the boring corner of the grammar.
        assert!(minimal.fault.is_none());
        assert_eq!(minimal.scale_milli, SCALE_MILLI[0]);
        assert_eq!(minimal.cores, 1);
        assert_eq!(minimal.ladder_points, 2);
    }

    // --- fleet tier ---

    /// A fleet case that exercises every extension at once: hierarchy,
    /// thermal, and a heavy mixed-class storm. Anchors the sabotage
    /// tests so they do not depend on what `generate_fleet` happens to
    /// draw.
    fn stormy_fleet_case() -> FleetFuzzCase {
        FleetFuzzCase {
            machines: 6,
            shards: 2,
            regions: 3,
            rounds: 60,
            seed: 1,
            hierarchy: true,
            thermal: true,
            chaos_milli: 400,
            brownout_milli: 600,
            aggregator_milli: 600,
            sensor_milli: 300,
            outage_rounds: 16,
            budget_w_per_machine: 60,
            profiles: vec![0, 1],
        }
    }

    #[test]
    fn fleet_generation_is_deterministic_and_valid() {
        for index in 0..64 {
            let case = generate_fleet(42, index);
            assert_eq!(case, generate_fleet(42, index), "same inputs, same case");
            assert!((2..=8).contains(&case.machines));
            assert!(case.shards >= 1 && case.shards <= case.machines);
            assert!(case.regions >= 1 && case.regions <= case.machines);
            assert!(FLEET_ROUNDS.contains(&case.rounds));
            assert!(FLEET_OUTAGE_ROUNDS.contains(&case.outage_rounds));
            assert!(FLEET_BUDGET_W.contains(&case.budget_w_per_machine));
            assert!(!case.profiles.is_empty() && case.profiles.len() <= 3);
            for milli in [
                case.chaos_milli,
                case.brownout_milli,
                case.aggregator_milli,
                case.sensor_milli,
            ] {
                assert!(milli == 0 || (100..=800).contains(&milli));
            }
        }
        assert_ne!(generate_fleet(1, 0), generate_fleet(2, 0));
        // The fleet stream must not mirror the point stream's draws.
        assert_ne!(generate_fleet(7, 0), generate_fleet(7, 1));
    }

    #[test]
    fn a_clean_fleet_case_runs_without_violations() {
        assert_eq!(run_fleet_case(&stormy_fleet_case(), None), None);
    }

    #[test]
    fn fleet_sabotage_throttle_monotonicity_is_caught_and_shrunk() {
        let case = stormy_fleet_case();
        let sabotage = Some(Invariant::ThrottleMonotonicity);
        let violation = run_fleet_case(&case, sabotage).expect("forged transition must fire");
        assert_eq!(violation.invariant, "throttle-monotonicity");
        let minimal = shrink_fleet(&case, &violation, sabotage);
        assert_eq!(
            run_fleet_case(&minimal, sabotage).expect("reproducer still fires").invariant,
            violation.invariant
        );
        // The forge only runs with thermal armed, so the shrinker must
        // keep the thermal layer while dropping everything else it can.
        assert!(minimal.thermal, "thermal-off would remove the trigger");
        assert!(!minimal.hierarchy);
        assert_eq!(minimal.rounds, FLEET_ROUNDS[0]);
        assert_eq!(minimal.profiles.len(), 1);
    }

    #[test]
    fn fleet_sabotage_hierarchy_budget_is_caught_and_shrunk() {
        let case = stormy_fleet_case();
        let sabotage = Some(Invariant::HierarchyBudgetConservation);
        let violation = run_fleet_case(&case, sabotage).expect("inflated region must fire");
        assert_eq!(violation.invariant, "hierarchy-budget-conservation");
        let minimal = shrink_fleet(&case, &violation, sabotage);
        assert_eq!(
            run_fleet_case(&minimal, sabotage).expect("reproducer still fires").invariant,
            violation.invariant
        );
        // The inflation lives in the hierarchical branch.
        assert!(minimal.hierarchy, "flat-topology would remove the trigger");
    }

    #[test]
    fn fleet_sabotage_thermal_ceiling_is_caught() {
        // The weakened ceiling only arms when a machine actually reaches
        // Emergency, which needs chaos-driven budget-oblivious heat.
        let case = stormy_fleet_case();
        let sabotage = Some(Invariant::ThermalCeiling);
        let violation = run_fleet_case(&case, sabotage).expect("weakened ceiling must fire");
        assert_eq!(violation.invariant, "thermal-ceiling");
        let minimal = shrink_fleet(&case, &violation, sabotage);
        assert_eq!(
            run_fleet_case(&minimal, sabotage).expect("reproducer still fires").invariant,
            violation.invariant
        );
        assert!(minimal.thermal, "the ceiling needs the thermal layer");
    }
}
