//! Cross-crate integration tests: workload → simulator → trace →
//! predictor, end to end.

use depburst::{paper_roster, relative_error, Coop, Dep, DvfsPredictor, MCrit};
use dvfs_trace::Freq;
use harness::{run_benchmark, RunConfig};

const SCALE: f64 = 0.04;

#[test]
fn every_benchmark_runs_and_emits_a_valid_trace() {
    for bench in dacapo_sim::all_benchmarks() {
        let r = run_benchmark(bench, RunConfig::at_ghz(2.0).scaled(SCALE));
        r.trace.validate().unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert!(r.exec.as_secs() > 0.0, "{}", bench.name);
        // Epoch durations tile the run exactly.
        let sum: f64 = r.trace.epochs.iter().map(|e| e.duration.as_secs()).sum();
        assert!(
            (sum - r.exec.as_secs()).abs() < 1e-6,
            "{}: epochs {sum} vs exec {}",
            bench.name,
            r.exec
        );
    }
}

#[test]
fn self_prediction_is_nearly_exact_for_all_models() {
    let bench = dacapo_sim::benchmark("pmd-scale").expect("exists");
    let r = run_benchmark(bench, RunConfig::at_ghz(2.0).scaled(SCALE));
    for model in paper_roster() {
        let p = model.predict(&r.trace, Freq::from_ghz(2.0));
        let err = relative_error(p, r.exec);
        assert!(
            err.abs() < 0.02,
            "{} self-prediction error {err}",
            model.name()
        );
    }
}

#[test]
fn dep_burst_beats_mcrit_on_memory_intensive_both_directions() {
    let bench = dacapo_sim::benchmark("lusearch").expect("exists");
    for (base_ghz, target_ghz) in [(1.0, 4.0), (4.0, 1.0)] {
        let base = run_benchmark(bench, RunConfig::at_ghz(base_ghz).scaled(SCALE));
        let actual = run_benchmark(bench, RunConfig::at_ghz(target_ghz).scaled(SCALE));
        let target = Freq::from_ghz(target_ghz);
        let dep = relative_error(Dep::dep_burst().predict(&base.trace, target), actual.exec);
        let mcrit = relative_error(MCrit::plain().predict(&base.trace, target), actual.exec);
        assert!(
            dep.abs() < mcrit.abs(),
            "{base_ghz}->{target_ghz}: DEP+BURST {dep} must beat M+CRIT {mcrit}"
        );
        assert!(
            dep.abs() < 0.12,
            "{base_ghz}->{target_ghz}: DEP+BURST error {dep} too large"
        );
    }
}

#[test]
fn burst_modeling_helps_on_allocation_heavy_runs() {
    let bench = dacapo_sim::benchmark("lusearch").expect("exists");
    let base = run_benchmark(bench, RunConfig::at_ghz(1.0).scaled(SCALE));
    let actual = run_benchmark(bench, RunConfig::at_ghz(4.0).scaled(SCALE));
    let target = Freq::from_ghz(4.0);
    for (plain, with_burst) in [
        (
            Box::new(Dep::plain()) as Box<dyn DvfsPredictor>,
            Box::new(Dep::dep_burst()) as Box<dyn DvfsPredictor>,
        ),
        (Box::new(Coop::plain()), Box::new(Coop::with_burst())),
        (Box::new(MCrit::plain()), Box::new(MCrit::with_burst())),
    ] {
        let e_plain = relative_error(plain.predict(&base.trace, target), actual.exec);
        let e_burst = relative_error(with_burst.predict(&base.trace, target), actual.exec);
        assert!(
            e_burst.abs() < e_plain.abs(),
            "{} {e_burst} should improve on {} {e_plain}",
            with_burst.name(),
            plain.name()
        );
    }
}

#[test]
fn across_epoch_ctp_does_not_lose_to_per_epoch_on_sync_heavy_runs() {
    let bench = dacapo_sim::benchmark("avrora").expect("exists");
    let base = run_benchmark(bench, RunConfig::at_ghz(4.0).scaled(SCALE));
    let actual = run_benchmark(bench, RunConfig::at_ghz(1.0).scaled(SCALE));
    let target = Freq::from_ghz(1.0);
    let across = relative_error(
        Dep::dep_burst().predict(&base.trace, target),
        actual.exec,
    );
    let per = relative_error(
        Dep::dep_burst_per_epoch().predict(&base.trace, target),
        actual.exec,
    );
    // Per-epoch CTP double-counts when the critical thread changes; on a
    // barrier-heavy workload across-epoch must not be worse.
    assert!(
        across.abs() <= per.abs() + 0.01,
        "across {across} vs per-epoch {per}"
    );
}

#[test]
fn runs_are_deterministic_per_seed() {
    let bench = dacapo_sim::benchmark("xalan").expect("exists");
    let a = run_benchmark(bench, RunConfig::at_ghz(3.0).scaled(SCALE).with_seed(9));
    let b = run_benchmark(bench, RunConfig::at_ghz(3.0).scaled(SCALE).with_seed(9));
    assert_eq!(a.exec, b.exec);
    assert_eq!(a.gc_count, b.gc_count);
    assert_eq!(a.trace.epochs.len(), b.trace.epochs.len());
    let c = run_benchmark(bench, RunConfig::at_ghz(3.0).scaled(SCALE).with_seed(10));
    assert_ne!(a.exec, c.exec, "different seeds should differ");
}

#[test]
fn memory_intensive_scales_worse_than_compute_intensive() {
    let speedup = |name: &str| {
        let bench = dacapo_sim::benchmark(name).expect("exists");
        let t1 = run_benchmark(bench, RunConfig::at_ghz(1.0).scaled(SCALE)).exec;
        let t4 = run_benchmark(bench, RunConfig::at_ghz(4.0).scaled(SCALE)).exec;
        t1.as_secs() / t4.as_secs()
    };
    let lusearch = speedup("lusearch");
    let sunflow = speedup("sunflow");
    assert!(
        lusearch < sunflow,
        "memory-bound lusearch ({lusearch}x) must scale worse than sunflow ({sunflow}x)"
    );
    assert!(sunflow > 3.0, "sunflow is compute-bound: {sunflow}x");
    assert!(lusearch < 3.4, "lusearch is memory-bound: {lusearch}x");
}

#[test]
fn gc_time_tracks_memory_intensity_classification() {
    // At small scale the GC counts are noisy; just check the extremes.
    let frac = |name: &str| {
        let bench = dacapo_sim::benchmark(name).expect("exists");
        let r = run_benchmark(bench, RunConfig::at_ghz(1.0).scaled(0.08));
        r.gc_time.as_secs() / r.exec.as_secs()
    };
    let lusearch = frac("lusearch");
    let avrora = frac("avrora");
    assert!(
        lusearch > 0.06,
        "lusearch must be GC-heavy, got {lusearch}"
    );
    assert!(avrora < 0.05, "avrora must be GC-light, got {avrora}");
}

#[test]
fn trace_summary_and_criticality_reflect_workload_structure() {
    use depburst::CriticalityStack;
    use dvfs_trace::{ThreadRole, TraceSummary};
    let bench = dacapo_sim::benchmark("sunflow").expect("exists");
    let r = run_benchmark(bench, RunConfig::at_ghz(2.0).scaled(SCALE));
    let summary = TraceSummary::compute(&r.trace);
    // Compute-intensive: app threads dominate activity, GC is small.
    assert!(summary.application.active > summary.gc.active * 4.0);
    assert!(summary.mean_parallelism > 2.0, "{}", summary.mean_parallelism);
    assert!(summary.gc_fraction() < 0.1);
    assert_eq!(summary.application.threads, 4);

    // Criticality: the most critical thread is an application thread.
    let stack = CriticalityStack::compute(&r.trace);
    let top = stack.most_critical().expect("threads ran");
    let role = r.trace.thread(top).expect("known").role;
    assert_eq!(role, ThreadRole::Application);
    // Shares + idle tile the run.
    let sum: f64 = stack.shares.values().map(|s| s.as_secs()).sum();
    assert!((sum + stack.idle.as_secs() - r.exec.as_secs()).abs() < 1e-6);
}

#[test]
fn per_core_study_runs_at_small_scale() {
    use harness::experiments::percore;
    let bench = dacapo_sim::benchmark("pmd-scale").expect("exists");
    let rows = percore::collect_with(&harness::ExecCtx::sequential(), bench, 0.05, 1)
        .expect("study completes");
    assert_eq!(rows.len(), 7); // baseline + 2 groups x 3 frequencies
    // The pinned baseline is the reference.
    assert_eq!(rows[0].slowdown, 0.0);
    // Scaling the service core is always cheaper than scaling the three
    // application cores at the same frequency.
    let service_1ghz = rows
        .iter()
        .find(|r| matches!(r.group, percore::ScaledGroup::Service) && r.scaled_ghz == 1.0)
        .expect("row");
    let app_1ghz = rows
        .iter()
        .find(|r| matches!(r.group, percore::ScaledGroup::Application) && r.scaled_ghz == 1.0)
        .expect("row");
    assert!(
        service_1ghz.slowdown < app_1ghz.slowdown,
        "service {} vs app {}",
        service_1ghz.slowdown,
        app_1ghz.slowdown
    );
}
