//! The frame pipeline's end-to-end contract: every frame coming out of
//! `SceneSetup::try_run_stream` is bit-identical — images, cycles, all
//! statistics, structure accounting — to running `SceneSetup::try_run_batch`
//! sequentially per frame, across shards {1, 4} and threads {1, 4},
//! with results delivered in strict frame order.

use grtx::{ExperimentResult, FrameSource, PipelineVariant, RunOptions, SceneSetup, StreamFrame};
use grtx_scene::SceneKind;
use std::sync::Arc;

fn tiny_setup() -> SceneSetup {
    SceneSetup::evaluation(SceneKind::Room, 2000, 24, 11)
}

/// The sequential oracle: one `try_run_batch` per frame, resolving the
/// source's scene chain by hand.
fn sequential_frames(
    setup: &SceneSetup,
    source: &dyn FrameSource,
    frames: usize,
    variant: &PipelineVariant,
    options: &RunOptions,
) -> Vec<Vec<ExperimentResult>> {
    let mut scene: Option<Arc<grtx_scene::GaussianScene>> = None;
    (0..frames)
        .map(|n| {
            let spec = source.frame(n);
            if let Some(s) = spec.scene {
                scene = Some(s);
            }
            let frame_scene = scene.clone().expect("frame 0 supplies a scene");
            setup
                .with_scene((*frame_scene).clone())
                .try_run_batch(variant, options, &spec.cameras)
                .unwrap()
        })
        .collect()
}

fn assert_stream_matches(label: &str, stream: &[StreamFrame], oracle: &[Vec<ExperimentResult>]) {
    assert_eq!(stream.len(), oracle.len(), "{label}: frame count");
    for (n, (frame, expected)) in stream.iter().zip(oracle).enumerate() {
        let tag = format!("{label}, frame {n}");
        assert_eq!(frame.index(), n, "{tag}: strict frame order");
        assert_eq!(frame.results().len(), expected.len(), "{tag}: view count");
        for (view, (got, want)) in frame.results().iter().zip(expected).enumerate() {
            let tag = format!("{tag}, view {view}");
            assert_eq!(
                got.report.image.pixels(),
                want.report.image.pixels(),
                "{tag}: image"
            );
            assert_eq!(got.report.cycles, want.report.cycles, "{tag}: cycles");
            assert_eq!(got.report.stats, want.report.stats, "{tag}: stats");
            assert_eq!(got.report.l2_accesses, want.report.l2_accesses, "{tag}: L2");
            assert_eq!(
                got.report.dram_accesses, want.report.dram_accesses,
                "{tag}: DRAM"
            );
            assert_eq!(
                got.report.footprint_bytes, want.report.footprint_bytes,
                "{tag}: footprint"
            );
            assert_eq!(
                got.report.secondary, want.report.secondary,
                "{tag}: secondary"
            );
            assert!(
                (got.report.l1_hit_rate - want.report.l1_hit_rate).abs() < 1e-12,
                "{tag}: L1 hit rate"
            );
            assert_eq!(got.size, want.size, "{tag}: size report");
            assert_eq!(got.height, want.height, "{tag}: height");
            assert!(
                (got.scale_factor - want.scale_factor).abs() < 1e-12,
                "{tag}: scale factor"
            );
            // Sharded accounting matches on every deterministic field
            // (build-phase wall-clock seconds are exempt by contract).
            match (&got.sharding, &want.sharding) {
                (None, None) => {}
                (Some(g), Some(w)) => {
                    assert_eq!(g.shard_count, w.shard_count, "{tag}: shard count");
                    assert_eq!(g.shard_sizes, w.shard_sizes, "{tag}: shard sizes");
                    assert_eq!(g.directory, w.directory, "{tag}: directory");
                }
                _ => panic!("{tag}: sharding presence differs"),
            }
        }
    }
}

/// An orbiting-camera stream (one rebuild, then pure reuse) is
/// bit-identical to sequential per-frame batches across the whole
/// shards × threads grid.
#[test]
fn orbit_stream_matches_sequential_batches() {
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx();
    let source = setup.orbit_source(2, 0.4);
    const FRAMES: usize = 3;
    for shards in [1usize, 4] {
        let oracle_options = RunOptions {
            k: 8,
            shards,
            threads: 1,
            ..Default::default()
        };
        let oracle = sequential_frames(&setup, &source, FRAMES, &variant, &oracle_options);
        for threads in [1usize, 4] {
            let options = RunOptions {
                k: 8,
                shards,
                threads,
                ..Default::default()
            };
            let stream = setup
                .try_run_stream(&source, FRAMES, &variant, &options, 1)
                .unwrap();
            assert_stream_matches(
                &format!("orbit, shards {shards}, threads {threads}"),
                &stream,
                &oracle,
            );
        }
    }
}

/// An animated-scene stream (period-2 jitter: rebuild, reuse, rebuild…)
/// matches the sequential oracle too — the rebuild-skip is invisible in
/// the results.
#[test]
fn jitter_stream_matches_sequential_batches() {
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx_sw();
    let source = setup.jitter_source(0.05, 2);
    const FRAMES: usize = 4;
    let options = RunOptions {
        k: 8,
        shards: 4,
        threads: 4,
        ..Default::default()
    };
    let oracle = sequential_frames(&setup, &source, FRAMES, &variant, &options);
    let stream = setup
        .try_run_stream(&source, FRAMES, &variant, &options, 1)
        .unwrap();
    assert_stream_matches("jitter", &stream, &oracle);
    let rebuilds: Vec<bool> = stream.iter().map(|f| f.rebuilt()).collect();
    assert_eq!(rebuilds, [true, false, true, false]);
}

/// Effect objects (secondary rays) ride through the pipeline unchanged.
#[test]
fn stream_with_effects_matches_sequential_batches() {
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx();
    let source = setup.orbit_source(1, 0.5);
    let options = RunOptions {
        k: 8,
        effects_seed: Some(5),
        threads: 2,
        ..Default::default()
    };
    let oracle = sequential_frames(&setup, &source, 2, &variant, &options);
    let stream = setup
        .try_run_stream(&source, 2, &variant, &options, 2)
        .unwrap();
    assert_stream_matches("effects", &stream, &oracle);
}

/// Frame 0 of an orbit stream is exactly a `try_run_batch` sweep over
/// `orbit_cameras` — the
/// stream entry point strictly generalizes the batched one.
#[test]
fn orbit_stream_frame_zero_is_run_views() {
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx();
    let options = RunOptions {
        k: 8,
        ..Default::default()
    };
    let views = setup
        .try_run_batch(&variant, &options, &setup.orbit_cameras(2))
        .unwrap();
    let stream = setup
        .try_run_stream(&setup.orbit_source(2, 0.7), 1, &variant, &options, 3)
        .unwrap();
    assert_eq!(stream.len(), 1);
    for (got, want) in stream[0].results().iter().zip(&views) {
        assert_eq!(got.report.image.pixels(), want.report.image.pixels());
        assert_eq!(got.report.cycles, want.report.cycles);
        assert_eq!(got.report.stats, want.report.stats);
    }
}
