//! The profiler must be a pure observer on a deterministic timebase:
//! every image, cycle count, and statistic is bit-identical with
//! profiling on or off, across the batched engine and the frame
//! pipeline at every thread/shard combination; two profiled runs
//! — even at different thread counts — produce byte-identical
//! `grtx-prof-v1` reports and virtual-clock Chrome traces; and the
//! per-(launch, SM) counter matrix sums exactly to the global
//! [`grtx_sim::SimStats`].

use grtx::{ExperimentResult, PipelineVariant, Profiler, RunOptions, SceneSetup};
use grtx_scene::SceneKind;
use grtx_sim::SimStats;

fn tiny_setup() -> SceneSetup {
    SceneSetup::evaluation(SceneKind::Room, 2000, 24, 11)
}

fn assert_results_identical(a: &ExperimentResult, b: &ExperimentResult, what: &str) {
    assert_eq!(
        a.report.image.pixels(),
        b.report.image.pixels(),
        "{what}: image"
    );
    assert_eq!(a.report.cycles, b.report.cycles, "{what}: cycles");
    assert_eq!(a.report.stats, b.report.stats, "{what}: stats");
    assert_eq!(
        a.report.l2_accesses, b.report.l2_accesses,
        "{what}: L2 accesses"
    );
    assert_eq!(
        a.report.dram_accesses, b.report.dram_accesses,
        "{what}: DRAM accesses"
    );
    assert_eq!(
        a.report.footprint_bytes, b.report.footprint_bytes,
        "{what}: footprint"
    );
    assert_eq!(a.report.secondary, b.report.secondary, "{what}: secondary");
}

#[test]
fn render_batch_is_bit_identical_with_profiling_on() {
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx();
    for threads in [1, 4] {
        let off = RunOptions {
            k: 8,
            threads,
            ..Default::default()
        };
        let on = RunOptions {
            profiler: Profiler::enabled(),
            ..off.clone()
        };
        let plain = setup
            .try_run_batch(&variant, &off, &setup.orbit_cameras(2))
            .unwrap();
        let profiled = setup
            .try_run_batch(&variant, &on, &setup.orbit_cameras(2))
            .unwrap();
        assert_eq!(plain.len(), profiled.len());
        for (a, b) in plain.iter().zip(&profiled) {
            assert_results_identical(a, b, &format!("try_run_batch threads={threads}"));
        }
        // The profiled run actually collected the full matrix: one row
        // per (launch, SM), launches keyed by camera index.
        let report = on.profiler.report().expect("enabled handle reports");
        let sms = on.gpu.num_sms;
        assert_eq!(report.launches.len(), 2, "one launch per view");
        assert_eq!(report.matrix.len(), 2 * sms, "one cell per (launch, SM)");
    }
}

#[test]
fn run_stream_is_bit_identical_with_profiling_on() {
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx();
    for threads in [1, 4] {
        for shards in [1, 4] {
            let off = RunOptions {
                k: 8,
                threads,
                shards,
                ..Default::default()
            };
            let on = RunOptions {
                profiler: Profiler::enabled(),
                ..off.clone()
            };
            let what = format!("try_run_stream threads={threads} shards={shards}");
            let source = setup.jitter_source(0.05, 2);
            let plain = setup.try_run_stream(&source, 4, &variant, &off, 1).unwrap();
            let profiled = setup.try_run_stream(&source, 4, &variant, &on, 1).unwrap();
            assert_eq!(plain.len(), profiled.len(), "{what}: frame count");
            for (fa, fb) in plain.iter().zip(&profiled) {
                assert_eq!(fa.index(), fb.index(), "{what}: frame order");
                assert_eq!(fa.rebuilt(), fb.rebuilt(), "{what}: rebuild decisions");
                assert_eq!(fa.results().len(), fb.results().len());
                for (a, b) in fa.results().iter().zip(fb.results()) {
                    assert_results_identical(a, b, &what);
                }
            }
        }
    }
}

/// The acceptance bar for the virtual clock: the profile artifacts are
/// bit-identical across runs *and* across thread counts and shard
/// counts — the scheduler decides when fragments run,
/// never what they record, and every export re-sorts into canonical
/// `(launch, SM)` order.
#[test]
fn profiled_artifacts_are_byte_identical_across_schedules() {
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx();
    let run = |threads: usize, shards: usize| {
        let options = RunOptions {
            k: 8,
            threads,
            shards,
            profiler: Profiler::enabled(),
            ..Default::default()
        };
        let source = setup.jitter_source(0.05, 2);
        let frames = setup
            .try_run_stream(&source, 4, &variant, &options, 1)
            .unwrap();
        assert_eq!(frames.len(), 4);
        let report = options.profiler.report().expect("enabled handle reports");
        let trace = options
            .profiler
            .chrome_trace()
            .expect("enabled handle traces");
        (report.to_json(), trace)
    };
    let (base_json, base_trace) = run(4, 4);
    for (threads, shards) in [(4, 4), (1, 1), (1, 4), (4, 1)] {
        let (json, trace) = run(threads, shards);
        assert_eq!(
            base_json, json,
            "grtx-prof-v1 report must be byte-identical at threads={threads} shards={shards}"
        );
        assert_eq!(
            base_trace, trace,
            "virtual-clock trace must be byte-identical at threads={threads} shards={shards}"
        );
    }
}

/// The counter-matrix conservation law: folding every `(launch, SM)`
/// cell with [`SimStats::merge`] reproduces exactly the global
/// statistics the launches reported — every event the simulator counted
/// is attributed to precisely one cell.
#[test]
fn counter_matrix_sums_exactly_to_global_simstats() {
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx();
    let options = RunOptions {
        k: 8,
        threads: 4,
        shards: 4,
        profiler: Profiler::enabled(),
        ..Default::default()
    };
    let source = setup.jitter_source(0.05, 2);
    let frames = setup
        .try_run_stream(&source, 4, &variant, &options, 3)
        .unwrap();
    let mut global = SimStats::default();
    for frame in &frames {
        for result in frame.results() {
            global.merge(&result.report.stats);
        }
    }
    let report = options.profiler.report().expect("enabled handle reports");
    assert_eq!(
        report.matrix_totals(),
        global,
        "per-(launch, SM) matrix cells must fold to the global SimStats"
    );
    assert!(global.rounds > 0, "the workload really simulated");
}

/// A disabled profiler must cost nothing measurable: every hook is one
/// `Option` branch. Wall-clock assertions are too noisy for shared CI
/// runners, so this only arms itself on dedicated hardware: set
/// `GRTX_PERF=1` (with a note when skipping).
#[test]
fn disabled_profiler_adds_no_measurable_overhead() {
    if std::env::var("GRTX_PERF").is_err() {
        eprintln!("skipping overhead assertion: set GRTX_PERF=1 on dedicated hardware");
        return;
    }
    use std::time::Instant;
    let setup = SceneSetup::evaluation(SceneKind::Train, 200, 96, 42);
    let variant = PipelineVariant::grtx();
    let accel = setup.build_accel(&variant, &grtx::LayoutConfig::default());
    let time = |options: &RunOptions| {
        // Warm up, then best-of-three to damp scheduler noise.
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            let result = setup.try_run_with_accel(&accel, &variant, options).unwrap();
            best = best.min(start.elapsed().as_secs_f64());
            assert!(result.report.cycles > 0);
        }
        best
    };
    let off = RunOptions {
        k: 8,
        threads: 1,
        ..Default::default()
    };
    let baseline = time(&off);
    let rerun = time(&off); // re-measure: the honest noise floor
    let disabled = time(&RunOptions {
        profiler: Profiler::disabled(),
        ..off.clone()
    });
    let enabled = time(&RunOptions {
        profiler: Profiler::enabled(),
        ..off.clone()
    });
    let noise = (baseline - rerun).abs() / baseline;
    let delta = (disabled - baseline) / baseline;
    assert!(
        delta < 0.05 + 2.0 * noise,
        "disabled profiler must be within noise of no profiler: \
         baseline {baseline:.3}s, disabled-handle {disabled:.3}s \
         ({delta:+.1}% vs noise floor {noise:.1}%)"
    );
    // Sanity bound on the *enabled* path too: recording is allowed to
    // cost something, but an accidental always-on hot-loop (quadratic
    // interval scans, lock thrash) would blow well past this.
    let enabled_delta = (enabled - baseline) / baseline;
    assert!(
        enabled_delta < 0.5 + 2.0 * noise,
        "enabled profiler overhead out of bounds: baseline {baseline:.3}s, \
         enabled {enabled:.3}s ({enabled_delta:+.1}%)"
    );
}
