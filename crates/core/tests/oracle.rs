//! The table-based predictors against the map-based oracles kept in
//! `depburst::reference`: on generated traces, every configuration of DEP
//! (both CTP modes), COOP and M+CRIT must predict the same bits as its
//! oracle at every step of the paper's frequency ladder, both one target at
//! a time and through `predict_many`, and the trace's per-thread totals
//! must match the oracle's map rescans bit for bit.
//!
//! The generator covers what the simulator rarely or never produces:
//! sparse thread ids, threads that run in epochs but were never
//! registered, stalls by threads absent from the epoch, zero-duration
//! epochs, a thread listed twice in one epoch, nested or unbalanced GC
//! markers (some outside the traced window), and epochs out of time order.

use std::collections::BTreeMap;

use depburst::{reference, Coop, CtpMode, Dep, DvfsPredictor, MCrit, NonScalingModel};
use dvfs_trace::{
    DvfsCounters, EpochEnd, EpochRecord, ExecutionTrace, Freq, FreqLadder, PhaseKind, PhaseMarker,
    ThreadId, ThreadInfo, ThreadRole, ThreadSlice, Time, TimeDelta,
};
use proptest::prelude::*;

/// Thread ids the generator draws from: sparse, with gaps.
const IDS: [u32; 8] = [0, 2, 3, 7, 8, 13, 31, 64];

const MODELS: [NonScalingModel; 3] = [
    NonScalingModel::StallTime,
    NonScalingModel::LeadingLoads,
    NonScalingModel::Crit,
];

/// One slice: (thread pick, active share, crit share, sq_full share,
/// instructions).
type SliceSpec = (usize, f64, f64, f64, u32);

/// One epoch: (duration kind, duration, slices, end kind, end thread pick).
type EpochSpec = (u8, f64, Vec<SliceSpec>, u8, usize);

/// Trace-wide knobs: (registered-thread mask, start offset, base frequency
/// step, markers as (position, is_start), swap two epochs, lifetimes seed).
type TraceSpec = (u8, f64, usize, Vec<(f64, bool)>, bool, u64);

fn counters(duration: f64, (_, active, crit, sq, instr): SliceSpec) -> DvfsCounters {
    let active = duration * active;
    DvfsCounters {
        active: TimeDelta::from_secs(active),
        crit: TimeDelta::from_secs(active * crit),
        leading_loads: TimeDelta::from_secs(active * crit * 0.8),
        stall: TimeDelta::from_secs(active * (crit + sq).min(1.0)),
        sq_full: TimeDelta::from_secs(active * sq),
        instructions: u64::from(instr),
        loads: u64::from(instr / 4),
        stores: u64::from(instr / 8),
        llc_misses: u64::from(instr / 100),
    }
}

fn build(epochs: Vec<EpochSpec>, spec: TraceSpec) -> ExecutionTrace {
    let (mask, offset, base_step, markers, swap, lifetimes) = spec;
    let ladder: Vec<Freq> = FreqLadder::paper_default().iter().collect();
    let start = Time::from_secs(offset);
    let mut cursor = start;
    let mut records = Vec::with_capacity(epochs.len());
    for (kind, dur, slices, end_kind, end_pick) in epochs {
        // One epoch in four lasts zero time.
        let duration = if kind == 0 { 0.0 } else { dur };
        let thread = ThreadId(IDS[end_pick]);
        let end = match end_kind {
            0 | 1 => EpochEnd::Stall(thread),
            2 => EpochEnd::Wake(thread),
            3 => EpochEnd::Exit(thread),
            4 => EpochEnd::QuantumBoundary,
            _ => EpochEnd::TraceEnd,
        };
        let threads = slices
            .into_iter()
            .map(|s| ThreadSlice {
                thread: ThreadId(IDS[s.0]),
                counters: counters(duration, s),
            })
            .collect();
        let duration = TimeDelta::from_secs(duration);
        records.push(EpochRecord {
            start: cursor,
            duration,
            threads,
            end,
        });
        cursor += duration;
    }
    let total = cursor.since(start);
    if swap && records.len() >= 3 {
        records.swap(0, 2);
    }
    let mut markers: Vec<PhaseMarker> = markers
        .into_iter()
        .map(|(at, is_start)| {
            let kind = if is_start {
                PhaseKind::GcStart
            } else {
                PhaseKind::GcEnd
            };
            PhaseMarker::new(start + total * at, kind)
        })
        .collect();
    markers.sort_by(|a, b| a.time.as_secs().total_cmp(&b.time.as_secs()));
    // Registered threads: the mask's bits over IDS; some spawn late or
    // exit early, so presence varies by window.
    let mut threads = Vec::new();
    for (bit, &id) in IDS.iter().enumerate() {
        if mask & (1 << bit) == 0 {
            continue;
        }
        let roll = lifetimes.rotate_left(8 * bit as u32) & 0xff;
        let spawn = if roll % 3 == 0 {
            start + total * 0.3
        } else {
            start
        };
        let exit = (roll % 5 == 0).then(|| start + total * 0.7);
        let role = match roll % 4 {
            0 => ThreadRole::GcWorker,
            1 => ThreadRole::Jit,
            _ => ThreadRole::Application,
        };
        threads.push(ThreadInfo {
            id: ThreadId(id),
            role,
            name: format!("t{id}"),
            spawn,
            exit,
        });
    }
    ExecutionTrace {
        base: ladder[base_step % ladder.len()],
        start,
        total,
        epochs: records,
        markers,
        threads,
    }
}

fn trace_strategy() -> impl Strategy<Value = ExecutionTrace> {
    let slice = (
        0..IDS.len(),
        0.0..1.0f64,
        0.0..1.0f64,
        0.0..0.5f64,
        0u32..1_000_000,
    );
    let epoch = (
        0u8..4,
        1e-6..2e-3f64,
        proptest::collection::vec(slice, 0..5),
        0u8..6,
        0..IDS.len(),
    );
    let spec = (
        0u8..=255,
        0.0..0.5f64,
        0usize..25,
        proptest::collection::vec((-0.1..1.1f64, 0.0..1.0f64), 0..8),
        0u8..4,
        0u64..u64::MAX,
    )
        .prop_map(|(mask, offset, base, markers, swap, lifetimes)| {
            let markers = markers.into_iter().map(|(at, k)| (at, k < 0.5)).collect();
            (mask, offset, base, markers, swap == 0, lifetimes)
        });
    (proptest::collection::vec(epoch, 0..40), spec).prop_map(|(epochs, spec)| build(epochs, spec))
}

fn counter_bits(c: &DvfsCounters) -> [u64; 9] {
    [
        c.active.as_secs().to_bits(),
        c.crit.as_secs().to_bits(),
        c.leading_loads.as_secs().to_bits(),
        c.stall.as_secs().to_bits(),
        c.sq_full.as_secs().to_bits(),
        c.instructions,
        c.loads,
        c.stores,
        c.llc_misses,
    ]
}

fn window_bits(m: &BTreeMap<ThreadId, DvfsCounters>) -> Vec<(ThreadId, [u64; 9])> {
    m.iter().map(|(&t, c)| (t, counter_bits(c))).collect()
}

/// Every predictor configuration, paired with its oracle.
fn roster() -> Vec<(Box<dyn DvfsPredictor>, Box<dyn DvfsPredictor>)> {
    let mut pairs: Vec<(Box<dyn DvfsPredictor>, Box<dyn DvfsPredictor>)> = Vec::new();
    for model in MODELS {
        for burst in [false, true] {
            for ctp in [CtpMode::PerEpoch, CtpMode::AcrossEpoch] {
                let dep = Dep::new(model, burst, ctp);
                pairs.push((Box::new(dep), Box::new(reference::Dep(dep))));
            }
            let coop = Coop::new(model, burst);
            pairs.push((Box::new(coop), Box::new(reference::Coop(coop))));
            let mcrit = MCrit::new(model, burst);
            pairs.push((Box::new(mcrit), Box::new(reference::MCrit(mcrit))));
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Each predictor matches its map-based oracle bit for bit at every
    /// ladder step.
    #[test]
    fn predictors_match_map_oracles_bit_for_bit(trace in trace_strategy()) {
        let roster = roster();
        for target in FreqLadder::paper_default().iter() {
            for (fast, oracle) in &roster {
                let got = fast.predict(&trace, target).as_secs();
                let want = oracle.predict(&trace, target).as_secs();
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} at {}: {} vs oracle {}",
                    fast.name(),
                    target,
                    got,
                    want
                );
            }
        }
    }

    /// `predict_many` of each predictor matches its oracle's per-target
    /// calls bit for bit, over target lists drawn from the ladder, the
    /// trace's base and two off-ladder frequencies (repeats and any order
    /// included), plus the empty list and a fixed unsorted list with
    /// repeats.
    #[test]
    fn predict_many_matches_map_oracles_bit_for_bit(
        trace in trace_strategy(),
        picks in proptest::collection::vec(0usize..28, 0..30),
    ) {
        let mut choices: Vec<Freq> = FreqLadder::paper_default().iter().collect();
        choices.extend([trace.base, Freq::from_mhz(1_062), Freq::from_mhz(4_300)]);
        let drawn: Vec<Freq> = picks.iter().map(|&i| choices[i]).collect();
        let fixed = [choices[24], trace.base, choices[0], trace.base, choices[26], choices[24]];
        let mut out = vec![TimeDelta::from_secs(1.0)];
        for targets in [&drawn[..], &[], &fixed] {
            for (fast, oracle) in &roster() {
                fast.predict_many(&trace, targets, &mut out);
                prop_assert_eq!(out.len(), targets.len(), "{}", fast.name());
                for (&target, got) in targets.iter().zip(&out) {
                    let want = oracle.predict(&trace, target).as_secs();
                    prop_assert_eq!(
                        got.as_secs().to_bits(),
                        want.to_bits(),
                        "{} at {} of {:?}: {} vs oracle {}",
                        fast.name(),
                        target,
                        targets,
                        got,
                        want
                    );
                }
            }
        }
    }

    /// The per-thread totals behind M+CRIT, COOP, the summary, regression
    /// and sampling match the oracle's map rescans bit for bit, over the
    /// phase windows and over windows that straddle epochs, run past the
    /// trace or are inverted.
    #[test]
    fn trace_totals_match_map_rescans(
        trace in trace_strategy(),
        cuts in proptest::collection::vec((-0.2..1.2f64, -0.2..1.2f64), 1..6),
    ) {
        let totals: Vec<_> = trace
            .thread_totals_by_id()
            .into_iter()
            .map(|(t, tt)| (t, tt.presence.as_secs().to_bits(), counter_bits(&tt.counters)))
            .collect();
        let oracle: Vec<_> = reference::thread_totals(&trace)
            .into_iter()
            .map(|(t, tt)| (t, tt.presence.as_secs().to_bits(), counter_bits(&tt.counters)))
            .collect();
        prop_assert_eq!(totals, oracle);

        let mut windows: Vec<(Time, Time)> =
            trace.phase_windows().iter().map(|w| (w.start, w.end)).collect();
        windows.extend(
            cuts.iter()
                .map(|&(a, b)| (trace.start + trace.total * a, trace.start + trace.total * b)),
        );
        for (lo, hi) in windows {
            prop_assert_eq!(
                window_bits(&trace.totals_in_window(lo, hi)),
                window_bits(&reference::totals_in_window(&trace, lo, hi)),
                "window [{}, {}]",
                lo,
                hi
            );
        }
    }
}

/// The generator reaches the cases the module doc promises.
#[test]
fn generated_traces_cover_the_awkward_cases() {
    let strategy = trace_strategy();
    let (mut zero, mut unregistered, mut absent_stall, mut unbalanced, mut unordered) =
        (false, false, false, false, false);
    for case in 0..96 {
        let trace = strategy.generate(&mut proptest::rng_for("coverage", case));
        let registered = |t: ThreadId| trace.threads.iter().any(|i| i.id == t);
        for e in &trace.epochs {
            zero |= e.duration == TimeDelta::ZERO && !e.threads.is_empty();
            unregistered |= e.threads.iter().any(|s| !registered(s.thread));
            absent_stall |= e.end.stalled_thread().is_some_and(|t| e.slice(t).is_none());
        }
        let starts = trace
            .markers
            .iter()
            .filter(|m| m.kind == PhaseKind::GcStart)
            .count();
        unbalanced |= 2 * starts != trace.markers.len();
        unordered |= trace.epochs.windows(2).any(|w| w[1].start < w[0].start);
    }
    assert!(zero && unregistered && absent_stall && unbalanced && unordered);
}
