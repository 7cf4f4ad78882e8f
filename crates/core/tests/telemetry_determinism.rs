//! Telemetry must be a pure observer: every image, cycle count, and
//! statistic is bit-identical with telemetry on or off, across the
//! batched engine and the frame pipeline at every thread/shard
//! combination — and two identical traced runs produce structurally
//! identical reports (same span tree and counts; wall-clock fields
//! exempt).

use grtx::{
    ClockMode, ExperimentResult, PipelineVariant, RunOptions, SceneSetup, ShardedAccel, Telemetry,
};
use grtx_scene::SceneKind;

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
    assert_eq!(a.size, b.size, "{what}: structure size");
    assert_eq!(a.height, b.height, "{what}: structure height");
}

#[test]
fn render_batch_is_bit_identical_with_telemetry_on() {
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx();
    for threads in [1, 4] {
        let off = RunOptions {
            k: 8,
            threads,
            ..Default::default()
        };
        let on = RunOptions {
            telemetry: Telemetry::enabled(),
            ..off.clone()
        };
        let plain = setup
            .try_run_batch(&variant, &off, &setup.orbit_cameras(2))
            .unwrap();
        let traced = setup
            .try_run_batch(&variant, &on, &setup.orbit_cameras(2))
            .unwrap();
        assert_eq!(plain.len(), traced.len());
        for (a, b) in plain.iter().zip(&traced) {
            assert_results_identical(a, b, &format!("render_batch threads={threads}"));
        }
        // The traced run actually collected something.
        let report = on.telemetry.report().expect("enabled handle reports");
        assert!(
            report.spans.iter().any(|s| s.path == "render.fragment"),
            "traced render must record fragment spans"
        );
    }
}

#[test]
fn run_stream_is_bit_identical_with_telemetry_on() {
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
                telemetry: Telemetry::enabled(),
                ..off.clone()
            };
            let what = format!("run_stream threads={threads} shards={shards}");
            let source = setup.jitter_source(0.05, 2);
            let plain = setup.try_run_stream(&source, 4, &variant, &off, 1).unwrap();
            let traced = setup.try_run_stream(&source, 4, &variant, &on, 1).unwrap();
            assert_eq!(plain.len(), traced.len(), "{what}: frame count");
            for (fa, fb) in plain.iter().zip(&traced) {
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

#[test]
fn identical_traced_runs_report_identical_structure() {
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx();
    let run = || {
        let options = RunOptions {
            k: 8,
            threads: 4,
            shards: 4,
            telemetry: Telemetry::enabled(),
            ..Default::default()
        };
        let source = setup.jitter_source(0.05, 2);
        let frames = setup
            .try_run_stream(&source, 4, &variant, &options, 3)
            .unwrap();
        assert_eq!(frames.len(), 4);
        options.telemetry.report().expect("enabled handle reports")
    };
    let first = run();
    let second = run();
    assert_eq!(
        first.structural(),
        second.structural(),
        "two identical traced runs must agree on span paths/counts, \
         counter values, and histogram sample counts"
    );
    // The structural skeleton covers the interesting signals.
    let keys: Vec<String> = first.structural().into_iter().map(|(k, _)| k).collect();
    for expected in [
        "span:pipeline.update",
        "span:pipeline.build",
        "span:pipeline.merge",
        "span:shard.subtree",
        "counter:pipeline.frames",
        "span:pipeline.fragment",
        "histogram:pipeline.frame_latency_us",
    ] {
        assert!(keys.iter().any(|k| k == expected), "missing {expected}");
    }
}

#[test]
fn null_clock_sharded_builds_compare_exactly_equal() {
    let setup = tiny_setup();
    let build = || {
        let telemetry = Telemetry::with_clock(ClockMode::Null);
        ShardedAccel::build_traced(
            &setup.scene,
            grtx::BoundingPrimitive::Mesh20,
            true,
            &grtx::LayoutConfig::default(),
            4,
            2,
            &telemetry,
        )
        .summary()
    };
    let a = build();
    let b = build();
    // Under the null clock every wall-clock field pins to 0.0, so the
    // whole summary — timings included — compares with plain `==`.
    assert_eq!(a, b, "null-clock sharded summaries must be exactly equal");
    assert_eq!(a.plan_seconds, 0.0);
    assert_eq!(a.build_seconds, 0.0);
    assert_eq!(a.assemble_seconds, 0.0);
    assert!(a.shard_count > 0, "the build really happened");
}

#[test]
fn disabled_handles_never_produce_reports() {
    let telemetry = Telemetry::disabled();
    telemetry.counter_add("ignored", 1);
    telemetry.record_value("ignored", 1);
    assert!(telemetry.report().is_none());
    assert!(telemetry.chrome_trace().is_none());
    assert!(!telemetry.is_enabled());
}
