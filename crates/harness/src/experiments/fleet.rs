//! Fleet-scale DVFS governance under chaos: a sharded multi-machine
//! simulation where a central governor allocates frequencies to N
//! machines under a global power budget, and every machine degrades
//! gracefully — central → local DEP+BURST → fallback-to-max — when the
//! fleet misbehaves.
//!
//! # Structure
//!
//! The fleet layers on the existing point pipeline twice over:
//!
//! 1. **Characterization** — each shard runs its benchmarks at 1 GHz and
//!    4 GHz through [`ExecCtx::execute_in`] with a per-shard checkpoint
//!    namespace; the memo cache shares the points fleet-wide (they are
//!    the exact points of the golden grid), the checkpoint keeps
//!    each shard's resume state independent. From the two points each
//!    machine gets the DEP+BURST decomposition at request granularity:
//!    `s(f) = scaling_s / f_ghz + fixed_s` over [`REQS`] requests.
//! 2. **Round loop** — simulated time advances in [`ROUND_SECS`] rounds,
//!    each a fixed sequence of stages over buffers that persist across
//!    rounds: *deliver* the telemetry landing this round; *assign* — the
//!    central governor (sequential, pure) batches one allocation from the
//!    telemetry it has; *step* — every shard steps its machines in place,
//!    in parallel on the context's pool ([`ExecCtx::for_each_mut`]; each
//!    step is a pure function of its inputs); *gather* — check, account
//!    and send the machines' telemetry back, delayed, staled, or dropped
//!    per the chaos schedule; *breaker* — trip overshooting machines.
//!
//! # Chaos and degradation
//!
//! A seeded [`ChaosSchedule`] (pure function of the chaos config) injects
//! machine crash/restart outages, telemetry dropout, stale harvests,
//! governor↔machine partitions and slow links. Each machine runs a
//! [`DegradationLadder`]; its transitions land in the report, feed the
//! `rejoin-monotonicity` invariant, and explain every SLO/energy number.
//! Crashed rounds are *partial by design*: the machine sheds its traffic
//! and its row says so — the sweep itself never loses a point.
//!
//! # Thermal and power integrity
//!
//! With [`FleetConfig::thermal`] enabled, every machine carries a
//! deterministic RC [`ThermalModel`] (power → temperature with leakage
//! feedback, seeded sensor noise) and a [`ThrottleLadder`]:
//! proactive throttle below the power cap, emergency throttle with a
//! forced V/f floor at T_crit, thermal shutdown plus staggered
//! black-start past T_shutdown. A thermal emergency blocks the
//! degradation ladder's *rejoin* streak but never demotes — heat is not
//! a reachability failure. At the feed, an [`OvershootBreaker`] trips
//! budget-overshooting machines to their floor with staggered release,
//! containing brownout-induced cascades. With `regions > 1` and
//! `hierarchy` on, a root [`HierarchicalGovernor`] splits the effective
//! budget across region aggregators with damped, dead-banded rebalances;
//! regions whose aggregator is up keep allocating autonomously when the
//! root is down, whereas the flat topology loses every machine with it.
//!
//! All of it is pay-for-what-you-use: thermal disabled (the default)
//! draws no randomness, touches no accumulators, and reproduces the
//! pre-thermal fleet byte-for-byte.
//!
//! At zero chaos intensity a fleet of one lusearch machine reproduces the
//! single-machine golden byte-for-byte (the characterization points are
//! the golden points), which is what pins this whole subsystem to the
//! paper pipeline.

use std::collections::BTreeMap;
use std::f64::consts::TAU;
use std::sync::Arc;

use dacapo_sim::{all_benchmarks, Benchmark};
use depburst_core::num::round_i64;
use depburst_core::stablehash::SplitMix64;
use dvfs_trace::{Freq, FreqLadder};
use energyx::{
    AllocScratch, BreakerConfig, CentralGovernor, DegradationConfig, DegradationLadder,
    GovernorMode, GovernorPolicy, HierarchicalGovernor, LocalGovernor, MachineView,
    OvershootBreaker, PowerModel, TableSet, Transition,
};
use serde::Serialize;
use simx::fleet::{region_of, ChaosConfig, ChaosSchedule, ChaosState, FleetTopology};
use simx::thermal::{CEILING_MARGIN_MC, CEILING_SETTLE_ROUNDS};
use simx::{
    Invariant, InvariantViolation, ThermalConfig, ThermalModel, ThrottleConfig, ThrottleLadder,
    ThrottleStage, ThrottleTransition,
};

use crate::report::TextTable;
use crate::run::{ExecCtx, RunSummary, SimPoint, SweepPlan};

/// Requests one characterization run stands for: per-request service
/// time is the run's execution time over this many requests.
pub const REQS: f64 = 100.0;

/// Simulated seconds per fleet round.
pub const ROUND_SECS: f64 = 1.0;

/// Stream salt of the per-machine traffic draws.
const TRAFFIC_SALT: u64 = 0x0074_7261_6666_6963;

/// Baseline utilization of a machine's max-frequency capacity.
const BASE_UTIL: f64 = 0.6;

/// Relative tolerance on the fleet-power overshoot metric.
const OVERSHOOT_REL_TOL: f64 = 0.05;

/// The whole fleet experiment configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Simulated machines.
    pub machines: usize,
    /// Shards (parallel step granularity and checkpoint namespaces).
    pub shards: usize,
    /// Fleet rounds to simulate.
    pub rounds: usize,
    /// Characterization work scale (1.0 = the paper's full runs).
    pub scale: f64,
    /// Master seed: characterization runs use it directly, per-machine
    /// traffic streams derive from it.
    pub seed: u64,
    /// The chaos schedule configuration (its own seed).
    pub chaos: ChaosConfig,
    /// Central allocation policy under comparison.
    pub policy: GovernorPolicy,
    /// Global fleet power budget, watts.
    pub budget_w: f64,
    /// Latency SLO as a multiple of the unloaded max-frequency service
    /// time (per machine).
    pub slo_factor: f64,
    /// Slowdown bound of the degraded local DEP+BURST governor.
    pub local_slowdown: f64,
    /// Degradation-ladder thresholds.
    pub degradation: DegradationConfig,
    /// Region aggregators the machines are tiled across (contiguously,
    /// like shards). One region ≡ the pre-hierarchy fleet.
    pub regions: usize,
    /// Hierarchical governance: the root splits the budget across region
    /// aggregators and each region allocates its own machines. Off =
    /// one flat central governor whose reachability depends on the root
    /// *and* the machine's region aggregator (single point of failure).
    pub hierarchy: bool,
    /// Per-machine thermal model. [`ThermalConfig::disabled`] (the
    /// default) draws nothing and reproduces the pre-thermal fleet
    /// byte-for-byte.
    pub thermal: ThermalConfig,
    /// Throttle-ladder thresholds (only consulted when thermal is on).
    pub throttle: ThrottleConfig,
    /// Overshoot-breaker thresholds (armed only when thermal is on).
    pub breaker: BreakerConfig,
    /// CI sabotage hook: deliberately break this invariant so the gate
    /// can prove the detector fires. Never set in real runs.
    pub sabotage: Option<Invariant>,
    /// Benchmark pool; machine `i` runs `benches[i % benches.len()]`.
    pub benches: Vec<&'static Benchmark>,
}

impl FleetConfig {
    /// A fleet with the default knobs: every benchmark in rotation, no
    /// chaos, oracle policy, a budget of 60 W per machine, one region,
    /// flat governance, thermal disabled.
    #[must_use]
    pub fn new(machines: usize, shards: usize, rounds: usize, scale: f64, seed: u64) -> Self {
        FleetConfig {
            machines: machines.max(1),
            shards,
            rounds,
            scale,
            seed,
            chaos: ChaosConfig::none(seed),
            policy: GovernorPolicy::Oracle,
            budget_w: 60.0 * machines.max(1) as f64,
            slo_factor: 2.0,
            local_slowdown: 0.10,
            degradation: DegradationConfig::default(),
            regions: 1,
            hierarchy: false,
            thermal: ThermalConfig::disabled(),
            throttle: ThrottleConfig::default(),
            breaker: BreakerConfig::default(),
            sabotage: None,
            benches: all_benchmarks().iter().collect(),
        }
    }

    /// True when this config exercises any of the thermal/hierarchy
    /// extensions — gates the optional report fields so legacy runs
    /// serialize byte-identically.
    #[must_use]
    pub fn extended(&self) -> bool {
        self.thermal.enabled
            || self.hierarchy
            || self.regions > 1
            || self.chaos.sensor_stuck > 0.0
            || self.chaos.aggregator_crash > 0.0
            || self.chaos.brownout > 0.0
    }
}

/// The V/f ladder of machine `m` — heterogeneous by position so the
/// central governor and the membership proptests face three distinct
/// ladders, all inside the paper's 1–4 GHz envelope.
#[must_use]
pub fn machine_ladder(machine: usize) -> FreqLadder {
    match machine % 3 {
        0 => FreqLadder::paper_default(),
        1 => FreqLadder::new(Freq::from_ghz(1.0), Freq::from_ghz(3.5), 250)
            .expect("1–3.5 GHz / 250 MHz ladder"),
        _ => FreqLadder::new(Freq::from_mhz(1250), Freq::from_mhz(3750), 125)
            .expect("1.25–3.75 GHz / 125 MHz ladder"),
    }
}

/// One characterization point the fleet executed (exact golden-grid
/// points at the golden scale/seed — tests compare these byte-for-byte).
#[derive(Debug, Clone)]
pub struct CharactPoint {
    /// Benchmark name.
    pub bench: String,
    /// Characterization frequency, GHz.
    pub ghz: f64,
    /// The memoized summary.
    pub summary: Arc<RunSummary>,
}

/// Per-machine fleet outcome. The thermal fields are serialized only on
/// thermal runs, so legacy reports stay byte-identical.
#[derive(Debug, Clone, Serialize)]
pub struct MachineRow {
    /// Fleet-wide machine id.
    pub machine: usize,
    /// Owning shard.
    pub shard: usize,
    /// The benchmark this machine serves.
    pub benchmark: String,
    /// Rounds spent under central control.
    pub rounds_central: u32,
    /// Rounds self-governed by the local DEP+BURST policy.
    pub rounds_local: u32,
    /// Rounds pinned at the hardened fallback maximum.
    pub rounds_fallback: u32,
    /// Rounds down (crashed or thermally shut down) — partial by design.
    pub rounds_down: u32,
    /// Crash outages the chaos schedule dealt this machine.
    pub crashes: u32,
    /// Requests served.
    pub served: f64,
    /// Requests shed while down.
    pub shed: f64,
    /// Fraction of up-rounds meeting the latency SLO.
    pub slo_attainment: f64,
    /// Mean per-request latency over up-rounds, seconds.
    pub mean_latency_s: f64,
    /// Energy consumed, joules.
    pub energy_j: f64,
    /// Every degradation-ladder transition (serialized as its text).
    pub transitions: Vec<Transition>,
    /// Peak true die temperature over the run, milli-°C (thermal runs).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub peak_temp_mc: Option<i64>,
    /// Up-rounds spent above the Normal throttle stage (thermal runs).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub throttle_rounds: Option<u32>,
    /// Every throttle-ladder transition (thermal runs; serialized as its
    /// text).
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub thermal_transitions: Vec<ThrottleTransition>,
}

/// Fleet-level aggregates. Like [`MachineRow`]'s thermal fields, the
/// `Option` fields are serialized only on extended runs.
#[derive(Debug, Clone, Serialize)]
pub struct FleetSummary {
    /// Machines simulated.
    pub machines: usize,
    /// Shards.
    pub shards: usize,
    /// Rounds simulated.
    pub rounds: usize,
    /// Allocation policy name.
    pub policy: String,
    /// Chaos seed.
    pub chaos_seed: u64,
    /// Crash outages fleet-wide.
    pub crash_events: usize,
    /// Partition outages fleet-wide.
    pub partition_events: usize,
    /// Global power budget, watts.
    pub budget_w: f64,
    /// Rounds where actual fleet power exceeded the effective budget
    /// (plus tolerance) — the naive policy's signature failure.
    pub overshoot_rounds: usize,
    /// Total requests served.
    pub served: f64,
    /// Total requests shed.
    pub shed: f64,
    /// Served-weighted mean SLO attainment over machines.
    pub slo_attainment: f64,
    /// Fleet energy, joules.
    pub energy_j: f64,
    /// Machine-rounds spent below central control (local + fallback +
    /// down).
    pub degraded_machine_rounds: u64,
    /// Strict SLO attainment over *all* machine-rounds (extended runs):
    /// a crashed or thermally-shut-down round serves nobody, so it counts
    /// as a miss instead of vanishing from the denominator. This is the
    /// lens that makes budget-oblivious "run hot, crash, restart empty"
    /// behaviour cost what it should.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub strict_slo_attainment: Option<f64>,
    /// Region aggregators (extended runs).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub regions: Option<usize>,
    /// Hierarchical governance on (extended runs).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub hierarchy: Option<bool>,
    /// Rounds spent under a brownout (extended runs).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub brownout_rounds: Option<usize>,
    /// Aggregator + root outage windows (extended runs).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub aggregator_events: Option<usize>,
    /// Emergency-throttle engagements fleet-wide (thermal runs).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub emergency_throttles: Option<u64>,
    /// Thermal shutdowns fleet-wide (thermal runs).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub thermal_shutdowns: Option<u64>,
    /// Staggered black-start recoveries fleet-wide (thermal runs).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub black_starts: Option<u64>,
    /// Overshoot-breaker trips fleet-wide (thermal runs).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub breaker_trips: Option<u64>,
    /// Hottest true die temperature any machine reached, milli-°C
    /// (thermal runs).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub peak_temp_mc: Option<i64>,
    /// Mean effective (browned-out) budget over the run, watts
    /// (extended runs).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub mean_effective_budget_w: Option<f64>,
}

/// The serializable fleet report.
#[derive(Debug, Clone, Serialize)]
pub struct FleetReport {
    /// Per-machine rows, in machine order.
    pub machines: Vec<MachineRow>,
    /// Fleet aggregates.
    pub summary: FleetSummary,
}

/// Everything a fleet run produces: the report plus the raw
/// characterization points (for golden-identity tests).
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The report.
    pub report: FleetReport,
    /// The characterization points, in execution order.
    pub charact: Vec<CharactPoint>,
}

/// Synthetic per-machine characterization: what the fleet fuzzer feeds
/// [`run_synthetic`] in place of real simulator runs. All times at
/// request granularity, like the fitted values.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticMachine {
    /// Frequency-scaling service seconds per request (the `A/f` part).
    pub scaling_s: f64,
    /// Fixed service seconds per request (the `B` part).
    pub fixed_s: f64,
    /// Bytes allocated per request.
    pub alloc_per_req: f64,
    /// Bytes per collection (0 = never collects).
    pub bytes_per_gc: f64,
    /// Seconds per collection pause.
    pub gc_pause_s: f64,
}

/// Static per-machine parameters plus mutable round state: what a shard
/// steps. The governor side's per-machine data lives in [`Columns`].
#[derive(Debug, Clone)]
struct MachineState {
    id: usize,
    ladder: FreqLadder,
    scaling_s: f64,
    fixed_s: f64,
    cores: usize,
    slo_s: f64,
    cap_max: f64,
    alloc_per_req: f64,
    bytes_per_gc: f64,
    gc_pause_s: f64,
    traffic_seed: u64,
    /// The local DEP+BURST governor's choice: a function of the static
    /// fields above, so made once.
    local_freq: Freq,
    /// Largest ladder frequency the Proactive stage permits (mid-ladder).
    proactive_cap: Freq,
    sabotage_ceiling: bool,
    // Mutable round state.
    ladder_state: DegradationLadder,
    thermal: ThermalModel,
    throttle: ThrottleLadder,
    freq: Freq,
    backlog: f64,
    alloc_acc: f64,
    pending_gc_s: f64,
    was_crashed: bool,
    /// Post-emergency ceiling bound (armed while at/above Emergency).
    ceiling_bound_mc: Option<i64>,
    /// Round the ceiling bound engaged.
    ceiling_since: u64,
    // Accumulators.
    rounds_central: u32,
    rounds_local: u32,
    rounds_fallback: u32,
    rounds_down: u32,
    crashes: u32,
    served: f64,
    shed: f64,
    lat_sum: f64,
    lat_rounds: u32,
    slo_ok: u32,
    energy_j: f64,
    peak_temp_mc: i64,
    throttle_rounds: u32,
}

impl MachineState {
    /// The machine's unloaded characterization, as a governor sees it.
    fn view(&self) -> MachineView<'_> {
        MachineView {
            id: self.id,
            ladder: &self.ladder,
            scaling_s: self.scaling_s,
            fixed_s: self.fixed_s,
            cores: self.cores,
        }
    }

    /// Advances the thermal/throttle state one round at `p_w` watts of
    /// electrical draw. Returns the leakage-corrected power and whether
    /// the post-emergency ceiling was breached. Thermal-disabled states
    /// never call this.
    fn thermal_round(&mut self, round: usize, p_w: f64, stuck: bool) -> (f64, bool) {
        let tcfg = *self.thermal.config();
        let prev_sev = self.throttle.stage().severity();
        let p_mw = round_i64(p_w * 1e3);
        let eff_mw = self.thermal.update(p_mw);
        let sensor = self.thermal.read_sensor(stuck);
        let stage = self
            .throttle
            .observe(round as u64, sensor, self.thermal.true_mc(), &tcfg);
        self.peak_temp_mc = self.peak_temp_mc.max(self.thermal.true_mc());
        // The sabotage hook arms at any throttle engagement (not just
        // Emergency) so fleets that never heat past T_crit — e.g. the
        // fuzzer's synthetic machines — still prove the detector fires.
        let emergency = if self.sabotage_ceiling {
            ThrottleStage::Proactive.severity()
        } else {
            ThrottleStage::Emergency.severity()
        };
        if stage.severity() >= emergency && prev_sev < emergency {
            // Emergency just engaged: the forced floor must turn the RC
            // around — the truth may coast a margin past the entry
            // point, never further.
            let entry = self.thermal.true_mc().max(tcfg.t_crit_mc);
            self.ceiling_bound_mc = Some(if self.sabotage_ceiling {
                tcfg.ambient_mc
            } else {
                entry + CEILING_MARGIN_MC
            });
            self.ceiling_since = round as u64;
        } else if stage.severity() < emergency {
            self.ceiling_bound_mc = None;
        }
        let settle = if self.sabotage_ceiling {
            0
        } else {
            CEILING_SETTLE_ROUNDS
        };
        let breach = self.ceiling_bound_mc.is_some_and(|bound| {
            round as u64 >= self.ceiling_since + settle && self.thermal.true_mc() > bound
        });
        (eff_mw as f64 * 1e-3, breach)
    }
}

/// What one machine reports after a round (the telemetry payload plus
/// the fleet-side accounting inputs).
#[derive(Debug, Clone, Copy)]
struct RoundOut {
    machine: usize,
    /// Mode the round ran under; `None` = down.
    mode: Option<GovernorMode>,
    /// Backlog after the round (the telemetry content).
    backlog: f64,
    /// Frequency the round ran at (ladder-membership check).
    freq: Freq,
    /// Energy spent this round, joules.
    energy: f64,
    /// The post-emergency thermal ceiling was violated this round.
    ceiling_breach: bool,
}

/// One shard: its machines' states and their outputs of the current
/// round, both kept in place across rounds.
#[derive(Debug)]
struct Shard {
    states: Vec<MachineState>,
    outs: Vec<RoundOut>,
}

/// The governor's last-known view of one machine, and the payload of a
/// telemetry datagram.
#[derive(Debug, Clone, Copy)]
struct Known {
    backlog: f64,
    mode: GovernorMode,
}

/// The governor side's per-machine data, one flat vector per field,
/// indexed by machine id.
#[derive(Debug)]
struct Columns {
    /// The benchmark each machine serves.
    bench: Vec<&'static str>,
    /// The region aggregator each machine reports to.
    region: Vec<usize>,
    /// Each machine's power table in the run's [`TableSet`].
    table: Vec<usize>,
    /// What the governor currently believes (DepBurst policy).
    known: Vec<Known>,
    /// Telemetry in flight to the governor: `landing[r % LANDING_SLOTS]`
    /// holds, in send order, the datagrams that land in round `r`.
    landing: [Vec<(usize, Known)>; LANDING_SLOTS],
    /// The round each machine's latest datagram lands.
    lands: Vec<usize>,
    /// Last round's backlog: what a stale harvest delivers.
    prev_backlog: Vec<f64>,
    /// This round's central assignment (`None`: no fresh assignment).
    assigned: Vec<Option<Freq>>,
    /// This round's measured power, watts: the breaker's input.
    power: Vec<f64>,
}

/// Slots of the telemetry in flight, one per round a datagram can still
/// land in. A machine's datagrams reach the governor in the order sent,
/// so one held up by a slow link holds back those sent after it: each
/// lands at the later of its own due round and its predecessor's
/// landing. One round of transit plus a slow link's three puts every
/// landing within four rounds of its sending.
const LANDING_SLOTS: usize = 4;

/// Rounds of the diurnal traffic wave.
const WAVE_PERIOD: usize = 32;

/// The traffic wave at each phase of its period.
fn wave_table() -> [f64; WAVE_PERIOD] {
    std::array::from_fn(|phase| 1.0 + 0.3 * (TAU * phase as f64 / 32.0).sin())
}

/// What every machine step reads and no step changes.
#[derive(Debug)]
struct StepEnv {
    model: PowerModel,
    wave: [f64; WAVE_PERIOD],
}

fn violation(invariant: Invariant, round: usize, detail: String) -> depburst_core::DepburstError {
    InvariantViolation {
        invariant,
        at_secs: round as f64 * ROUND_SECS,
        detail,
    }
    .to_error()
}

/// This round's arrival count for one machine: a diurnal-ish wave over
/// [`BASE_UTIL`] of max-frequency capacity, with seeded jitter and rare
/// bursts. Stateless — a pure function of (traffic seed, round) — so
/// shard stepping order can never perturb it.
fn arrivals(state: &MachineState, round: usize, wave: &[f64; WAVE_PERIOD]) -> f64 {
    let mut rng = SplitMix64::keyed(state.traffic_seed, round as u64);
    let wave = wave[round % WAVE_PERIOD];
    let burst = if rng.chance(0.1) { 1.8 } else { 1.0 };
    let jitter = 1.0 + 0.1 * rng.next_signed();
    BASE_UTIL * state.cap_max * wave * burst * jitter
}

/// Steps one machine through one round: degradation-ladder observation,
/// frequency selection under the throttle/breaker caps, request service
/// with GC debt, thermal update, and metric accumulation. Pure in
/// (state, round, chaos, central assignment, trip flag).
fn step_machine(
    state: &mut MachineState,
    round: usize,
    chaos: ChaosState,
    central: Option<Freq>,
    tripped: bool,
    env: &StepEnv,
) -> RoundOut {
    let thermal_on = state.thermal.config().enabled;
    // The stage that actuates this round is last round's observation —
    // the control loop has a one-round actuation delay, like real
    // closed-loop DVFS.
    let stage = state.throttle.stage();

    if chaos.crashed || (thermal_on && stage == ThrottleStage::Shutdown) {
        if chaos.crashed && !state.was_crashed {
            state.crashes += 1;
            // A restart reboots into the hardened fallback whatever the
            // mode was; re-earning central control takes full healthy
            // windows.
            state.ladder_state.force_fallback(round as u64, "crash-restart");
            state.freq = state.ladder.max();
        }
        state.was_crashed = chaos.crashed;
        state.shed += state.backlog + arrivals(state, round, &env.wave);
        state.backlog = 0.0;
        state.alloc_acc = 0.0;
        state.pending_gc_s = 0.0;
        state.rounds_down += 1;
        let mut breach = false;
        if thermal_on {
            // The package is off: zero electrical power, the RC cools,
            // the shutdown hold counts down toward its black-start.
            let (_, b) = state.thermal_round(round, 0.0, chaos.sensor_stuck);
            breach = b;
        }
        return RoundOut {
            machine: state.id,
            mode: None,
            backlog: 0.0,
            freq: state.ladder.max(),
            energy: 0.0,
            ceiling_breach: breach,
        };
    }
    state.was_crashed = false;

    // A thermal emergency blocks the rejoin streak but never demotes:
    // heat is a local actuation problem, not a reachability failure.
    let thermal_ok = !thermal_on || stage.severity() < ThrottleStage::Emergency.severity();
    let mode = state.ladder_state.observe_health(
        round as u64,
        !chaos.partitioned,
        !chaos.telemetry_lost,
        thermal_ok,
    );
    let mut freq = match mode {
        GovernorMode::Central => {
            // A fresh assignment only lands when the control link is up;
            // otherwise the machine holds its last allocated frequency.
            if let Some(f) = central {
                if !chaos.partitioned {
                    state.freq = state.ladder.floor(f);
                }
            }
            state.freq
        }
        GovernorMode::LocalDepBurst => state.local_freq,
        GovernorMode::FallbackMax => state.ladder.max(),
    };
    if thermal_on {
        // Power-integrity caps override every governor, strongest last.
        freq = match stage {
            ThrottleStage::Normal => freq,
            ThrottleStage::Proactive => {
                if freq > state.proactive_cap {
                    state.proactive_cap
                } else {
                    freq
                }
            }
            ThrottleStage::Emergency | ThrottleStage::Shutdown => state.ladder.min(),
        };
        if tripped {
            freq = state.ladder.min();
        }
        if stage != ThrottleStage::Normal {
            state.throttle_rounds += 1;
        }
    }
    state.freq = freq;
    match mode {
        GovernorMode::Central => state.rounds_central += 1,
        GovernorMode::LocalDepBurst => state.rounds_local += 1,
        GovernorMode::FallbackMax => state.rounds_fallback += 1,
    }

    // Service: capacity is the round minus last round's GC debt.
    let service_s = state.view().service_time(freq);
    let budget_s = (ROUND_SECS - state.pending_gc_s).max(ROUND_SECS * 0.25);
    state.pending_gc_s = 0.0;
    let mu = budget_s / service_s;
    let arr = arrivals(state, round, &env.wave);
    let demand = state.backlog + arr;
    let served = demand.min(mu);
    state.backlog = demand - served;

    // GC debt for the next round: served requests allocate; full heaps
    // collect at the characterized (non-scaling) pause.
    if state.bytes_per_gc > 0.0 {
        state.alloc_acc += served * state.alloc_per_req;
        let gcs = (state.alloc_acc / state.bytes_per_gc).floor();
        if gcs > 0.0 {
            state.alloc_acc -= gcs * state.bytes_per_gc;
            state.pending_gc_s = (gcs * state.gc_pause_s).min(ROUND_SECS * 0.75);
        }
    }

    let latency = service_s * (1.0 + state.backlog / mu.max(1e-12));
    let util = (served / mu.max(1e-12)).min(1.0);
    let power = env.model.power_uniform(freq, util, state.cores).total();
    let (energy, breach) = if thermal_on {
        let (eff_w, breach) = state.thermal_round(round, power, chaos.sensor_stuck);
        (eff_w * ROUND_SECS, breach)
    } else {
        (power * ROUND_SECS, false)
    };

    state.served += served;
    state.lat_sum += latency;
    state.lat_rounds += 1;
    state.slo_ok += u32::from(latency <= state.slo_s);
    state.energy_j += energy;

    RoundOut {
        machine: state.id,
        mode: Some(mode),
        backlog: state.backlog,
        freq,
        energy,
        ceiling_breach: breach,
    }
}

/// Builds the per-shard machine states and the governor-side columns
/// from fitted (or synthetic) per-machine parameters, looked up by
/// machine id, entering each machine's ladder into `tables`.
fn build_fleet(
    config: &FleetConfig,
    topo: &FleetTopology,
    bench_name: &dyn Fn(usize) -> &'static str,
    params: &dyn Fn(usize) -> SyntheticMachine,
    cores: usize,
    tables: &mut TableSet,
) -> (Vec<Shard>, Columns) {
    let local = LocalGovernor::new(config.local_slowdown);
    let state = |m: usize| {
        let p = params(m);
        let ladder = machine_ladder(m);
        let s_max = p.scaling_s / ladder.max().ghz() + p.fixed_s;
        let mid_mhz = (ladder.min().mhz() + ladder.max().mhz()) / 2;
        let mut state = MachineState {
            id: m,
            scaling_s: p.scaling_s,
            fixed_s: p.fixed_s,
            cores,
            slo_s: config.slo_factor * s_max,
            cap_max: ROUND_SECS / s_max,
            alloc_per_req: p.alloc_per_req,
            bytes_per_gc: p.bytes_per_gc,
            gc_pause_s: p.gc_pause_s,
            traffic_seed: topo.machine_seed(m) ^ TRAFFIC_SALT,
            local_freq: ladder.max(),
            proactive_cap: ladder.floor(Freq::from_mhz(mid_mhz)),
            sabotage_ceiling: config.sabotage == Some(Invariant::ThermalCeiling),
            ladder_state: DegradationLadder::new(config.degradation),
            thermal: ThermalModel::new(config.thermal, m),
            throttle: ThrottleLadder::new(config.throttle, m),
            freq: ladder.max(),
            ladder,
            backlog: 0.0,
            alloc_acc: 0.0,
            pending_gc_s: 0.0,
            was_crashed: false,
            ceiling_bound_mc: None,
            ceiling_since: 0,
            rounds_central: 0,
            rounds_local: 0,
            rounds_fallback: 0,
            rounds_down: 0,
            crashes: 0,
            served: 0.0,
            shed: 0.0,
            lat_sum: 0.0,
            lat_rounds: 0,
            slo_ok: 0,
            energy_j: 0.0,
            peak_temp_mc: i64::MIN,
            throttle_rounds: 0,
        };
        state.local_freq = local.choose(&state.view());
        state
    };
    let shards = (0..topo.shards)
        .map(|shard| Shard {
            states: topo.machines_in(shard).map(&state).collect(),
            outs: Vec::new(),
        })
        .collect();
    let machines = topo.machines;
    let cols = Columns {
        bench: (0..machines).map(bench_name).collect(),
        region: (0..machines)
            .map(|m| region_of(machines, config.regions, m))
            .collect(),
        table: (0..machines)
            .map(|m| tables.insert(&machine_ladder(m), cores))
            .collect(),
        known: vec![
            Known {
                backlog: 0.0,
                mode: GovernorMode::Central,
            };
            machines
        ],
        landing: Default::default(),
        lands: vec![0; machines],
        prev_backlog: vec![0.0; machines],
        assigned: vec![None; machines],
        power: vec![0.0; machines],
    };
    (shards, cols)
}

/// Can a machine of `region` reach its central allocator in `round`?
/// Flat topology has no aggregator tier — every machine talks to the
/// root, so a root outage orphans the *whole fleet at once*. The
/// hierarchy answers from the machine's own region aggregator: a root
/// outage merely freezes cross-region rebalancing, and an aggregator
/// outage orphans one region, never the fleet.
fn governor_unreachable(
    hierarchy: bool,
    schedule: &ChaosSchedule,
    round: usize,
    region: usize,
) -> bool {
    if hierarchy {
        schedule.aggregator_down(round, region)
    } else {
        schedule.root_down(round)
    }
}

/// The round loop's central-allocation stage: turns the governor's view
/// of the fleet into this round's per-machine frequency assignments.
/// Owns the hierarchy root, whose shares persist across rounds, and the
/// buffers every round refills.
struct CentralStage<'a> {
    config: &'a FleetConfig,
    schedule: &'a ChaosSchedule,
    tables: &'a TableSet,
    machines: usize,
    /// Machines per region: a region's pro-rata denominator.
    region_size: Vec<usize>,
    hier: HierarchicalGovernor,
    /// This round's candidates as load-weighted demand views, in
    /// ascending id order, so each allocation slice is one contiguous
    /// run; with their power tables and (thermal runs) leak factors.
    views: Vec<MachineView<'a>>,
    table_of: Vec<usize>,
    leak: Vec<f64>,
    /// Candidates per slice: a region under the hierarchy, else the
    /// whole fleet.
    slice_len: Vec<usize>,
    /// Per region: demand, orphaned aggregator, budget (hierarchy).
    demand: Vec<f64>,
    orphaned: Vec<bool>,
    region_w: Vec<f64>,
    scratch: AllocScratch,
}

impl<'a> CentralStage<'a> {
    fn new(
        config: &'a FleetConfig,
        schedule: &'a ChaosSchedule,
        tables: &'a TableSet,
        region: &[usize],
    ) -> Self {
        let regions = schedule.regions();
        let mut region_size = vec![0usize; regions];
        for &r in region {
            region_size[r] += 1;
        }
        CentralStage {
            config,
            schedule,
            tables,
            machines: region.len(),
            region_size,
            hier: HierarchicalGovernor::new(regions),
            views: Vec::new(),
            table_of: Vec::new(),
            leak: Vec::new(),
            slice_len: vec![0; if config.hierarchy { regions } else { 1 }],
            demand: vec![0.0; regions],
            orphaned: vec![false; regions],
            region_w: vec![0.0; regions],
            scratch: AllocScratch::default(),
        }
    }

    /// Writes this round's central assignments into `cols.assigned`.
    /// `eff_w` is the effective (browned-out) budget every allocator
    /// sees.
    ///
    /// # Errors
    /// A hierarchy or power-budget conservation violation.
    fn assign(
        &mut self,
        round: usize,
        eff_w: f64,
        row: &[ChaosState],
        shards: &[Shard],
        cols: &mut Columns,
    ) -> depburst_core::Result<()> {
        cols.assigned.fill(None);
        if self.config.policy == GovernorPolicy::NaiveStatic {
            // No budget awareness: central says "maximum" to every
            // reachable machine.
            for s in shards.iter().flat_map(|shard| &shard.states) {
                cols.assigned[s.id] = Some(s.ladder.max());
            }
            return Ok(());
        }
        self.candidates(round, row, shards, cols);
        if self.config.hierarchy {
            self.split_budget(round, eff_w)?;
        }
        self.allocate_slices(round, eff_w, &mut cols.assigned)
    }

    /// Collects the candidates: machines the governor believes are under
    /// central control and can reach right now. The oracle reads true
    /// state; DepBurst trusts its (possibly stale, lossy, delayed)
    /// telemetry. Queued machines look slower, so the latency-levelling
    /// allocator feeds them first.
    fn candidates(&mut self, round: usize, row: &[ChaosState], shards: &[Shard], cols: &Columns) {
        let (config, tables) = (self.config, self.tables);
        self.views.clear();
        self.table_of.clear();
        self.leak.clear();
        self.slice_len.fill(0);
        self.demand.fill(0.0);
        for s in shards.iter().flat_map(|shard| &shard.states) {
            let (m, region) = (s.id, cols.region[s.id]);
            if row[m].crashed
                || row[m].partitioned
                || governor_unreachable(config.hierarchy, self.schedule, round, region)
            {
                continue;
            }
            let (mode, backlog) = match config.policy {
                GovernorPolicy::Oracle => (s.ladder_state.mode(), s.backlog),
                _ => (cols.known[m].mode, cols.known[m].backlog),
            };
            if mode != GovernorMode::Central {
                continue;
            }
            if config.hierarchy {
                self.slice_len[region] += 1;
                self.demand[region] += 1.0 + backlog / s.cap_max;
            } else {
                self.slice_len[0] += 1;
            }
            self.views.push(MachineView {
                id: m,
                ladder: tables.ladder(cols.table[m]),
                scaling_s: s.scaling_s * (1.0 + backlog / s.cap_max),
                fixed_s: s.fixed_s,
                cores: s.cores,
            });
            self.table_of.push(cols.table[m]);
            if config.thermal.enabled {
                self.leak.push(s.thermal.leak_factor());
            }
        }
    }

    /// The root tier: a damped, dead-banded share rebalance toward
    /// per-region demand, frozen while the root itself is down (the
    /// regions run autonomously), then each region's watts.
    ///
    /// # Errors
    /// The region budgets sum past the effective budget.
    fn split_budget(&mut self, round: usize, eff_w: f64) -> depburst_core::Result<()> {
        // Orphaned regions (aggregator down) report silence, not zero
        // demand: freeze their shares so the outage cannot cascade into
        // sibling windfalls and a starved rejoin.
        for (r, orphaned) in self.orphaned.iter_mut().enumerate() {
            *orphaned = self.schedule.aggregator_down(round, r);
        }
        self.hier
            .rebalance_masked(&self.demand, &self.orphaned, self.schedule.root_down(round));
        for (r, w) in self.region_w.iter_mut().enumerate() {
            *w = self.hier.region_budget(r, eff_w);
        }
        if self.config.sabotage == Some(Invariant::HierarchyBudgetConservation) {
            self.region_w[0] *= 1.10;
        }
        let total: f64 = self.region_w.iter().sum();
        if total > eff_w * (1.0 + 1e-9) + 1e-9 {
            return Err(violation(
                Invariant::HierarchyBudgetConservation,
                round,
                format!("region budgets sum to {total:.2} W over an effective {eff_w:.2} W"),
            ));
        }
        Ok(())
    }

    /// Water-fills each non-empty slice inside its budget and records
    /// the assignments.
    ///
    /// # Errors
    /// A slice's allocation spends budget it did not have.
    fn allocate_slices(
        &mut self,
        round: usize,
        eff_w: f64,
        assigned: &mut [Option<Freq>],
    ) -> depburst_core::Result<()> {
        let mut start = 0;
        for (slice, &len) in self.slice_len.iter().enumerate() {
            let range = start..start + len;
            start += len;
            if len == 0 {
                continue;
            }
            let (budget, fleet) = if self.config.hierarchy {
                (self.region_w[slice], self.region_size[slice])
            } else {
                (eff_w, self.machines)
            };
            // Thermal-aware derating: the allocator plans in raw
            // electrical watts, but hot silicon draws `leak × planned`
            // from the feed. A governor that ignores this allocates
            // "within budget" and still overshoots — and the breaker then
            // punishes machines that obeyed every order. Divide each
            // slice's budget by its members' mean reported leak factor so
            // the *effective* draw is what fits the slice.
            let leak = if self.config.thermal.enabled {
                let sum: f64 = self.leak[range.clone()].iter().sum();
                (sum / len as f64).max(1.0)
            } else {
                1.0
            };
            let views = &self.views[range.clone()];
            let alloc = CentralGovernor::new(budget / leak).allocate_indexed(
                self.tables,
                views,
                &self.table_of[range],
                fleet,
                &mut self.scratch,
            );
            for (view, &freq) in views.iter().zip(&alloc.freqs) {
                assigned[view.id] = Some(freq);
            }
            // The water-filling cannot descend below the ladder minimum,
            // so a browned-out or starved-share slice smaller than the
            // mandatory floor is not a violation; only allocating *above*
            // both the slice and the floor means the governor spent
            // budget it did not have.
            let bound = alloc.available_w.max(alloc.floor_w);
            if alloc.power_w > bound * (1.0 + 1e-9) + 1e-9 {
                return Err(violation(
                    Invariant::PowerBudgetConservation,
                    round,
                    format!(
                        "central allocation estimates {:.1} W over a {:.1} W slice \
                         (floor {:.1} W)",
                        alloc.power_w, alloc.available_w, alloc.floor_w
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// The round loop: one value holding the shards, the governor-side
/// columns and the stages, each round running deliver → assign → step →
/// gather → breaker over buffers that persist across rounds. Shared by
/// the simulator-backed [`run_with`] and the fuzzer's [`run_synthetic`].
struct RoundLoop<'a> {
    ctx: &'a ExecCtx,
    config: &'a FleetConfig,
    schedule: &'a ChaosSchedule,
    env: StepEnv,
    shards: Vec<Shard>,
    cols: Columns,
    central: CentralStage<'a>,
    breaker: OvershootBreaker,
    overshoot_rounds: usize,
    eff_budget_sum: f64,
}

/// Builds the fleet, runs every round, checks the post-run invariants
/// and assembles the report.
fn run_rounds(
    ctx: &ExecCtx,
    config: &FleetConfig,
    topo: &FleetTopology,
    bench_name: &dyn Fn(usize) -> &'static str,
    params: &dyn Fn(usize) -> SyntheticMachine,
) -> depburst_core::Result<FleetReport> {
    let model = PowerModel::haswell_22nm();
    let cores = simx::MachineConfig::haswell_quad().cores;
    let mut tables = TableSet::new(&model);
    let (shards, cols) = build_fleet(config, topo, bench_name, params, cores, &mut tables);
    let schedule = ChaosSchedule::generate_with_regions(
        &config.chaos,
        topo.machines,
        config.rounds,
        config.regions,
    );
    let mut fleet = RoundLoop {
        ctx,
        config,
        schedule: &schedule,
        env: StepEnv {
            model,
            wave: wave_table(),
        },
        shards,
        central: CentralStage::new(config, &schedule, &tables, &cols.region),
        cols,
        breaker: OvershootBreaker::new(topo.machines, config.breaker),
        overshoot_rounds: 0,
        eff_budget_sum: 0.0,
    };
    for round in 0..config.rounds {
        fleet.round(round)?;
    }
    let rows = fleet.machine_rows()?;
    let summary = fleet.summary(topo, &rows);
    Ok(FleetReport {
        machines: rows,
        summary,
    })
}

impl RoundLoop<'_> {
    /// One round, stage by stage.
    ///
    /// # Errors
    /// The first invariant violation of the round.
    fn round(&mut self, round: usize) -> depburst_core::Result<()> {
        let schedule = self.schedule;
        let row = schedule.round_states(round);
        self.deliver(round);
        // The effective (browned-out) budget every allocator sees.
        let eff_w = self.config.budget_w * f64::from(schedule.budget_milli(round)) / 1000.0;
        self.eff_budget_sum += eff_w;
        self.central
            .assign(round, eff_w, row, &self.shards, &mut self.cols)?;
        self.step(round, row);
        let round_power = self.gather(round, row)?;
        self.breaker(round, eff_w, round_power);
        Ok(())
    }

    /// Delivers the telemetry landing in `round` to the governor's view.
    fn deliver(&mut self, round: usize) {
        let slot = &mut self.cols.landing[round % LANDING_SLOTS];
        for &(m, datagram) in slot.iter() {
            self.cols.known[m] = datagram;
        }
        slot.clear();
    }

    /// Steps every shard on the context's pool: pure per-machine
    /// functions of this round's chaos row, assignments and breaker
    /// state.
    fn step(&mut self, round: usize, row: &[ChaosState]) {
        let (hierarchy, breaker_on) = (self.config.hierarchy, self.config.thermal.enabled);
        let (schedule, env, cols, breaker) = (self.schedule, &self.env, &self.cols, &self.breaker);
        self.ctx.for_each_mut(&mut self.shards, |shard| {
            shard.outs.clear();
            for state in &mut shard.states {
                let m = state.id;
                let mut chaos = row[m];
                // Aggregator/root outages read as partitions at the
                // machine: no fresh assignment, no rejoin credit.
                chaos.partitioned = chaos.partitioned
                    || governor_unreachable(hierarchy, schedule, round, cols.region[m]);
                let tripped = breaker_on && breaker.is_tripped(round as u64, m);
                let out = step_machine(state, round, chaos, cols.assigned[m], tripped, env);
                shard.outs.push(out);
            }
        });
    }

    /// Checks ladder membership and the thermal ceiling, records each
    /// machine's power, and queues its telemetry. Returns the fleet's
    /// power this round.
    ///
    /// # Errors
    /// The first machine, in id order, that ran off its ladder or past
    /// its post-emergency ceiling.
    fn gather(&mut self, round: usize, row: &[ChaosState]) -> depburst_core::Result<f64> {
        let cols = &mut self.cols;
        let mut round_power = 0.0;
        for shard in &self.shards {
            for (state, out) in shard.states.iter().zip(&shard.outs) {
                let m = out.machine;
                if !state.ladder.contains(out.freq) {
                    return Err(violation(
                        Invariant::LadderMembership,
                        round,
                        format!("machine {m} ran off-ladder at {}", out.freq),
                    ));
                }
                if out.ceiling_breach {
                    return Err(violation(
                        Invariant::ThermalCeiling,
                        round,
                        format!(
                            "machine {m} coasted past its post-emergency ceiling at {} m°C",
                            state.thermal.true_mc()
                        ),
                    ));
                }
                cols.power[m] = out.energy / ROUND_SECS;
                round_power += cols.power[m];
                let chaos = row[m];
                if let Some(mode) = out.mode.filter(|_| !chaos.telemetry_lost) {
                    // Stale harvests deliver the previous round's value;
                    // slow links arrive late, in send order, so delivery
                    // order is deterministic.
                    let due = round + 1 + usize::from(chaos.link_delay);
                    let lands = due.max(cols.lands[m]);
                    assert!(lands - round <= LANDING_SLOTS, "link delay past the slots");
                    cols.lands[m] = lands;
                    let backlog = if chaos.stale {
                        cols.prev_backlog[m]
                    } else {
                        out.backlog
                    };
                    cols.landing[lands % LANDING_SLOTS].push((m, Known { backlog, mode }));
                }
                cols.prev_backlog[m] = out.backlog;
            }
        }
        Ok(round_power)
    }

    /// Counts a budget overshoot and, on thermal runs, lets the feed's
    /// anti-cascade breaker trip the heaviest overshooters to the floor
    /// and release them staggered.
    fn breaker(&mut self, round: usize, eff_w: f64, round_power: f64) {
        if round_power > eff_w * (1.0 + OVERSHOOT_REL_TOL) {
            self.overshoot_rounds += 1;
        }
        if self.config.thermal.enabled {
            self.breaker.observe(round as u64, eff_w, &self.cols.power);
        }
    }

    /// Post-run invariants: checks every machine's transition logs and
    /// renders its row.
    ///
    /// # Errors
    /// A rejoin- or throttle-monotonicity violation.
    fn machine_rows(&mut self) -> depburst_core::Result<Vec<MachineRow>> {
        let config = self.config;
        let thermal_on = config.thermal.enabled;
        let sabotage_throttle = config.sabotage == Some(Invariant::ThrottleMonotonicity);
        let mut rows = Vec::with_capacity(self.cols.bench.len());
        for (shard, states) in self.shards.iter_mut().enumerate() {
            for s in &mut states.states {
                if let Some(issue) = s.ladder_state.monotonicity_issue() {
                    return Err(violation(
                        Invariant::RejoinMonotonicity,
                        config.rounds,
                        format!("machine {}: {issue}", s.id),
                    ));
                }
                if thermal_on {
                    if sabotage_throttle && s.id == 0 {
                        s.throttle.forge_transition(ThrottleTransition {
                            round: config.rounds as u64,
                            from: ThrottleStage::Emergency,
                            to: ThrottleStage::Normal,
                            reason: "sabotage",
                        });
                    }
                    if let Some(issue) = s.throttle.monotonicity_issue() {
                        return Err(violation(
                            Invariant::ThrottleMonotonicity,
                            config.rounds,
                            format!("machine {}: {issue}", s.id),
                        ));
                    }
                }
                let per_round = |x: f64| {
                    if s.lat_rounds > 0 {
                        x / f64::from(s.lat_rounds)
                    } else {
                        0.0
                    }
                };
                rows.push(MachineRow {
                    machine: s.id,
                    shard,
                    benchmark: self.cols.bench[s.id].to_owned(),
                    rounds_central: s.rounds_central,
                    rounds_local: s.rounds_local,
                    rounds_fallback: s.rounds_fallback,
                    rounds_down: s.rounds_down,
                    crashes: s.crashes,
                    served: s.served,
                    shed: s.shed,
                    slo_attainment: per_round(f64::from(s.slo_ok)),
                    mean_latency_s: per_round(s.lat_sum),
                    energy_j: s.energy_j,
                    transitions: s.ladder_state.transitions().to_vec(),
                    peak_temp_mc: thermal_on.then_some(s.peak_temp_mc),
                    throttle_rounds: thermal_on.then_some(s.throttle_rounds),
                    thermal_transitions: if thermal_on {
                        s.throttle.transitions().to_vec()
                    } else {
                        Vec::new()
                    },
                });
            }
        }
        Ok(rows)
    }

    /// The fleet-level aggregates over the rows and the final states.
    fn summary(&self, topo: &FleetTopology, rows: &[MachineRow]) -> FleetSummary {
        let config = self.config;
        let schedule = self.schedule;
        let states = || self.shards.iter().flat_map(|shard| &shard.states);
        let served: f64 = rows.iter().map(|r| r.served).sum();
        let slo = if served > 0.0 {
            rows.iter()
                .map(|r| r.slo_attainment * r.served)
                .sum::<f64>()
                / served
        } else {
            0.0
        };
        let slo_ok_total: u64 = states().map(|s| u64::from(s.slo_ok)).sum();
        let machine_rounds = (topo.machines * config.rounds).max(1) as f64;
        let thermal_on = config.thermal.enabled;
        let extended = config.extended();
        let throttle_reason_count = |reason: &str| -> u64 {
            states()
                .map(|s| {
                    s.throttle
                        .transitions()
                        .iter()
                        .filter(|t| t.reason == reason)
                        .count() as u64
                })
                .sum()
        };
        FleetSummary {
            machines: topo.machines,
            shards: topo.shards,
            rounds: config.rounds,
            policy: config.policy.name().to_owned(),
            chaos_seed: config.chaos.seed,
            crash_events: schedule.crash_events(),
            partition_events: schedule.partition_events(),
            budget_w: config.budget_w,
            overshoot_rounds: self.overshoot_rounds,
            served,
            shed: rows.iter().map(|r| r.shed).sum(),
            slo_attainment: slo,
            strict_slo_attainment: extended.then(|| slo_ok_total as f64 / machine_rounds),
            energy_j: rows.iter().map(|r| r.energy_j).sum(),
            degraded_machine_rounds: rows
                .iter()
                .map(|r| u64::from(r.rounds_local + r.rounds_fallback + r.rounds_down))
                .sum(),
            regions: extended.then_some(schedule.regions()),
            hierarchy: extended.then_some(config.hierarchy),
            brownout_rounds: extended.then_some(schedule.brownout_rounds()),
            aggregator_events: extended.then_some(schedule.aggregator_events()),
            emergency_throttles: thermal_on.then(|| throttle_reason_count("emergency-throttle")),
            thermal_shutdowns: thermal_on.then(|| throttle_reason_count("thermal-shutdown")),
            black_starts: thermal_on.then(|| throttle_reason_count("black-start")),
            breaker_trips: thermal_on.then(|| self.breaker.trips()),
            peak_temp_mc: thermal_on.then(|| states().map(|s| s.peak_temp_mc).max().unwrap_or(0)),
            mean_effective_budget_w: extended
                .then(|| self.eff_budget_sum / (config.rounds.max(1)) as f64),
        }
    }
}

/// Runs the fleet on `ctx`: characterization through the memoized,
/// checkpointed point pipeline (per-shard namespaces), then the round loop
/// with per-shard parallel stepping. The outcome is a pure function of
/// the config — any worker count, any cache temperature.
///
/// # Errors
/// Characterization failures propagate as the usual sweep errors; a
/// power-budget, thermal, hierarchy, or rejoin-monotonicity violation
/// surfaces as `DepburstError::InvariantViolation`.
pub fn run_with(ctx: &ExecCtx, config: &FleetConfig) -> depburst_core::Result<FleetOutcome> {
    let topo = FleetTopology::new(config.machines, config.shards, config.seed);
    let machines = topo.machines;
    let bench_of: Vec<&'static Benchmark> = (0..machines)
        .map(|m| config.benches[m % config.benches.len()])
        .collect();

    // Characterization: per shard (its own checkpoint namespace), each
    // distinct benchmark at 1 GHz and 4 GHz. The memo cache collapses
    // repeats across shards into one simulation each.
    let mut charact = Vec::new();
    let mut fit: BTreeMap<&'static str, (Arc<RunSummary>, Arc<RunSummary>)> = BTreeMap::new();
    for shard in 0..topo.shards {
        let mut names: Vec<&'static Benchmark> = Vec::new();
        for m in topo.machines_in(shard) {
            if !names.iter().any(|b| b.name == bench_of[m].name) {
                names.push(bench_of[m]);
            }
        }
        let mut plan = SweepPlan::new();
        for bench in &names {
            for ghz in [1.0, 4.0] {
                plan.push(SimPoint::new(
                    bench,
                    Freq::from_ghz(ghz),
                    config.scale,
                    config.seed,
                ));
            }
        }
        let namespace = format!("shard{shard}");
        let results = ctx.execute_in(Some(&namespace), &plan)?;
        for (i, bench) in names.iter().enumerate() {
            let t1 = results[2 * i].clone();
            let t4 = results[2 * i + 1].clone();
            charact.push(CharactPoint {
                bench: bench.name.to_owned(),
                ghz: 1.0,
                summary: t1.clone(),
            });
            charact.push(CharactPoint {
                bench: bench.name.to_owned(),
                ghz: 4.0,
                summary: t4.clone(),
            });
            fit.entry(bench.name).or_insert((t1, t4));
        }
    }

    let params = |m: usize| {
        let bench = bench_of[m];
        let (t1, t4) = &fit[bench.name];
        let (t1, t4) = (t1.exec.as_secs(), t4.exec.as_secs());
        // Two-point DEP+BURST fit: T(f) = A / f_ghz + B.
        let a = ((t1 - t4) * 4.0 / 3.0).max(0.0);
        let b = (t4 - a / 4.0).max(t4 * 0.01).max(1e-9);
        let summary4 = &fit[bench.name].1;
        let gc_count = summary4.gc_count as f64;
        SyntheticMachine {
            scaling_s: a / REQS,
            fixed_s: b / REQS,
            alloc_per_req: summary4.allocated as f64 / REQS,
            bytes_per_gc: if gc_count > 0.0 {
                summary4.allocated as f64 / gc_count
            } else {
                0.0
            },
            gc_pause_s: if gc_count > 0.0 {
                summary4.gc_time.as_secs() / gc_count
            } else {
                0.0
            },
        }
    };
    let report = run_rounds(ctx, config, &topo, &|m| bench_of[m].name, &params)?;
    Ok(FleetOutcome { report, charact })
}

/// Runs the round loop over *synthetic* machine characterizations —
/// no simulator in the loop, so a whole fleet run costs microseconds.
/// This is the fleet fuzzer's entry point: every chaos class, the
/// thermal/throttle/breaker stack, the hierarchy, and all the fleet
/// invariants run exactly as in [`run_with`]. Machine `m` takes
/// `params[m % params.len()]`.
///
/// # Errors
/// An invariant violation surfaces as
/// `DepburstError::InvariantViolation`, exactly as in [`run_with`].
pub fn run_synthetic(
    config: &FleetConfig,
    params: &[SyntheticMachine],
) -> depburst_core::Result<FleetReport> {
    assert!(!params.is_empty(), "synthetic fleet needs at least one machine profile");
    let topo = FleetTopology::new(config.machines, config.shards, config.seed);
    run_rounds(
        &ExecCtx::sequential(),
        config,
        &topo,
        &|_| "synthetic",
        &|m| params[m % params.len()],
    )
}

/// Renders the fleet report as the experiment's text table plus the
/// summary block.
#[must_use]
pub fn render(report: &FleetReport) -> String {
    let mut table = TextTable::new(&[
        "machine", "shard", "bench", "central", "local", "fallback", "down", "crashes", "slo",
        "lat(ms)", "energy(J)", "transitions",
    ]);
    for r in &report.machines {
        table.row(vec![
            r.machine.to_string(),
            r.shard.to_string(),
            r.benchmark.clone(),
            r.rounds_central.to_string(),
            r.rounds_local.to_string(),
            r.rounds_fallback.to_string(),
            r.rounds_down.to_string(),
            r.crashes.to_string(),
            format!("{:.1}%", r.slo_attainment * 100.0),
            format!("{:.2}", r.mean_latency_s * 1e3),
            format!("{:.1}", r.energy_j),
            r.transitions.len().to_string(),
        ]);
    }
    let s = &report.summary;
    let mut out = format!(
        "{}\nfleet: {} machines / {} shards, {} rounds, policy {} \
         (chaos seed {})\n\
         outages: {} crashes, {} partitions; degraded machine-rounds: {}\n\
         budget {:.0} W, overshoot rounds: {}\n\
         served {:.0}, shed {:.0}, SLO attainment {:.1}%, energy {:.1} J\n",
        table.render(),
        s.machines,
        s.shards,
        s.rounds,
        s.policy,
        s.chaos_seed,
        s.crash_events,
        s.partition_events,
        s.degraded_machine_rounds,
        s.budget_w,
        s.overshoot_rounds,
        s.served,
        s.shed,
        s.slo_attainment * 100.0,
        s.energy_j,
    );
    if let (Some(regions), Some(hierarchy)) = (s.regions, s.hierarchy) {
        out.push_str(&format!(
            "governance: {} regions, {}; brownout rounds: {}, aggregator outages: {}, \
             mean effective budget {:.1} W\n",
            regions,
            if hierarchy { "hierarchical" } else { "flat-central" },
            s.brownout_rounds.unwrap_or(0),
            s.aggregator_events.unwrap_or(0),
            s.mean_effective_budget_w.unwrap_or(0.0),
        ));
    }
    if let Some(peak) = s.peak_temp_mc {
        out.push_str(&format!(
            "thermal: peak {:.1} °C; emergency-throttle: {}, thermal-shutdown: {}, \
             black-start: {}, breaker trips: {}\n",
            peak as f64 / 1000.0,
            s.emergency_throttles.unwrap_or(0),
            s.thermal_shutdowns.unwrap_or(0),
            s.black_starts.unwrap_or(0),
            s.breaker_trips.unwrap_or(0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::fleet_profile;

    #[test]
    fn wave_table_is_the_sine_formula_at_every_phase() {
        let table = wave_table();
        for round in 0..3 * WAVE_PERIOD {
            let formula = 1.0 + 0.3 * (TAU * (round % 32) as f64 / 32.0).sin();
            assert_eq!(
                table[round % WAVE_PERIOD].to_bits(),
                formula.to_bits(),
                "round {round}"
            );
        }
    }

    #[test]
    fn precomputed_local_choice_is_the_local_governor_on_every_ladder_class() {
        let mut below_max = 0;
        for slowdown in [0.0, 0.05, 0.10, 0.5] {
            let mut config = FleetConfig::new(12, 2, 1, 0.02, 3);
            config.local_slowdown = slowdown;
            let topo = FleetTopology::new(config.machines, config.shards, config.seed);
            let mut tables = TableSet::new(&PowerModel::haswell_22nm());
            let profile = |m: usize| fleet_profile(m % 4);
            let (shards, _) =
                build_fleet(&config, &topo, &|_| "synthetic", &profile, 4, &mut tables);
            let states: Vec<&MachineState> = shards.iter().flat_map(|s| &s.states).collect();
            assert_eq!(states.len(), 12, "every machine, so every ladder class");
            for s in states {
                let ladder = machine_ladder(s.id);
                let p = profile(s.id);
                let view = MachineView {
                    id: s.id,
                    ladder: &ladder,
                    scaling_s: p.scaling_s,
                    fixed_s: p.fixed_s,
                    cores: 4,
                };
                let chosen = LocalGovernor::new(slowdown).choose(&view);
                assert_eq!(s.local_freq, chosen, "machine {} at {slowdown}", s.id);
                below_max += usize::from(chosen < ladder.max());
            }
        }
        assert!(below_max > 0, "some choice must leave the ladder top");
    }
}
