//! `stream-rebuild`: a jittered scene through the frame pipeline, every
//! frame rebuilding the Baseline's monolithic structure with a sharded
//! build.

use std::time::Instant;

use grtx::{
    AccelStruct, FrameSource, GrtxError, JitterSource, LayoutConfig, PipelineVariant, RenderReport,
    RunOptions, ShardedAccel, StreamFrame,
};
use grtx_render::renderer::render_functional;

use crate::check::{compare, same_image, sanity, Counters, Tally};
use crate::lineup::{functional_problems, push_end_to_end, push_speedups, trace_lineup, Lineup};
use crate::trace::Spans;
use crate::{median, pins, timed_setup, Config, Metrics, Report};

/// World units each Gaussian mean jitters by per frame.
const AMPLITUDE: f32 = 0.05;
/// Frames in flight in the timed stream.
const DEPTH: usize = 3;
/// Spatial shards of each frame's structure build.
const SHARDS: usize = 2;
/// k-buffer capacity.
const K: usize = 8;

/// The scene and the reference lineup's structures.
fn setup(config: &Config) -> Lineup {
    Lineup::new(
        Lineup::scene(config.scale.divisor, config.scale.stream_res, config.seed),
        K,
    )
}

/// The options a stream call runs with.
fn options(threads: usize) -> RunOptions {
    RunOptions {
        k: K,
        threads,
        shards: SHARDS,
        ..Default::default()
    }
}

/// The jittered frame source: the scene changes every frame.
fn source(lineup: &Lineup) -> JitterSource {
    lineup.setup.jitter_source(AMPLITUDE, 1)
}

/// One stream call of `config.scale.stream_frames` frames, with its wall
/// seconds.
fn stream_call(
    lineup: &Lineup,
    source: &JitterSource,
    config: &Config,
    threads: usize,
    depth: usize,
) -> (Result<Vec<StreamFrame>, GrtxError>, f64) {
    let start = Instant::now();
    let frames = lineup.setup.try_run_stream(
        source,
        config.scale.stream_frames,
        &PipelineVariant::baseline(),
        &options(threads),
        depth,
    );
    (frames, start.elapsed().as_secs_f64())
}

/// Tallies every frame of a stream call and returns its rendered
/// reports. A frame fails if it errored, did not rebuild, or differs
/// from the pins (when given) or from the first call's frame.
fn check_call(
    call: Result<Vec<StreamFrame>, GrtxError>,
    frames: usize,
    pins: Option<&[Counters]>,
    first: &mut Vec<Counters>,
    tally: &mut Tally,
) -> Vec<RenderReport> {
    let outcomes = match call {
        Ok(outcomes) => outcomes,
        Err(e) => {
            for _ in 0..frames {
                tally.frame(vec![format!("stream: {e}")]);
            }
            return Vec::new();
        }
    };
    let mut rendered = Vec::new();
    for (i, frame) in outcomes.into_iter().enumerate() {
        let label = format!("frame {i}");
        let mut problems = Vec::new();
        match frame {
            StreamFrame::Failed { error, .. } => problems.push(format!("{label}: {error}")),
            StreamFrame::Rendered {
                rebuilt,
                mut results,
                ..
            } => {
                if !rebuilt {
                    problems.push(format!("{label}: structure was not rebuilt"));
                }
                match results.pop().filter(|_| results.is_empty()) {
                    None => problems.push(format!("{label}: expected one view")),
                    Some(result) => {
                        let report = result.report;
                        problems.extend(sanity(&label, &report));
                        let got = Counters::of(&report);
                        let want = pins.map(|p| p[i]).or_else(|| first.get(i).copied());
                        match want {
                            Some(want) => problems.extend(compare(&label, got, want)),
                            None => first.push(got),
                        }
                        rendered.push(report);
                    }
                }
            }
        }
        tally.frame(problems);
    }
    rendered
}

/// Problems where the stream's frames differ from standalone renders:
/// frame 0 against the reference Baseline render (the pipeline's
/// bit-identity contract), frame 1 against `render_functional` of the
/// jittered scene.
fn stream_problems(
    lineup: &Lineup,
    source: &JitterSource,
    frames: &[RenderReport],
    baseline: &RenderReport,
) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(frame0) = frames.first() {
        if Counters::of(frame0) != Counters::of(baseline)
            || !same_image(&frame0.image, &baseline.image)
        {
            problems.push("frame 0 differs from a standalone Baseline render".to_string());
        }
    }
    if let Some(frame1) = frames.get(1) {
        let scene = source.epoch_scene(1);
        let baseline_variant = &lineup.variants[0];
        let accel = AccelStruct::build(
            &scene,
            baseline_variant.primitive,
            baseline_variant.two_level,
            &LayoutConfig::default(),
        );
        let image = render_functional(&accel, &scene, &lineup.setup.camera, &lineup.config(0));
        if !same_image(&image, &frame1.image) {
            problems.push("frame 1 differs from render_functional".to_string());
        }
    }
    problems
}

/// The untraced run: set-up, then stream calls for `config.seconds`,
/// then the reference lineup for the speedups and output checks.
pub fn run_timed(config: &Config) -> Report {
    let (lineup, setup_s) = timed_setup(|| setup(config));
    let source = source(&lineup);
    let frames = config.scale.stream_frames;
    let pins = config.pinned().then(pins::stream_frames);
    let mut tally = Tally::default();
    let mut first = Vec::new();
    let mut first_frames = None;
    let mut frame_times = Vec::new();
    let mut rays = 0u64;
    let start = Instant::now();
    loop {
        let (call, wall_s) = stream_call(&lineup, &source, config, config.threads, DEPTH);
        let failed_before = tally.failed;
        let rendered = check_call(call, frames, pins, &mut first, &mut tally);
        if !rendered.is_empty() {
            frame_times.push(wall_s / rendered.len() as f64);
        }
        rays += rendered.iter().map(|r| r.stats.rays).sum::<u64>();
        if first_frames.is_none() && tally.failed == failed_before {
            first_frames = Some(rendered);
        }
        if start.elapsed().as_secs_f64() >= config.seconds {
            break;
        }
    }
    let timed_s = start.elapsed().as_secs_f64();

    let reference = reference_lineup(&lineup, config, &mut tally);
    if let (Some(stream), Some(reference)) = (&first_frames, &reference) {
        for problem in stream_problems(&lineup, &source, stream, &reference[0]) {
            tally.fail_all(problem);
        }
    }
    let mut metrics = Metrics::default();
    push_end_to_end(
        &mut metrics,
        &frame_times,
        rays as f64 / timed_s,
        setup_s,
        &tally,
    );
    metrics.note(format!(
        "frame_s on stream-rebuild: stream call wall / frames delivered, {frames} frames per call at depth {DEPTH}"
    ));
    push_speedups(&mut metrics, reference.as_deref());
    Report {
        tally,
        metrics,
        trace_json: None,
    }
}

/// The lineup at the stream's scene and resolution, checked against the
/// pins and `render_functional`; `None` if any variant failed.
fn reference_lineup(
    lineup: &Lineup,
    config: &Config,
    tally: &mut Tally,
) -> Option<Vec<RenderReport>> {
    let reports = lineup.render(config.threads);
    let pins = config.pinned().then(|| pins::lineup(config.workload));
    let mut problems = crate::lineup::check_frame(&reports, pins, &mut None);
    let reports: Option<Vec<RenderReport>> = reports.into_iter().collect::<Result<_, _>>().ok();
    if let Some(reports) = &reports {
        problems.extend(functional_problems(lineup, reports, config.threads));
    }
    tally.frame(problems);
    reports
}

/// The traced run: the reference lineup's layers, then the stream's
/// frames driven stage by stage (source, sharded build, plan, fragments,
/// merge), then whole stream calls at depth 1 and 3.
pub fn run_traced(config: &Config) -> Report {
    let mut spans = Spans::new();
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let (setup, synth_s) = spans.time("scene.evaluation", 0, || {
        Lineup::scene(config.scale.divisor, config.scale.stream_res, config.seed)
    });
    metrics.push("scene.synth_s", synth_s, "s");
    let lineup = Lineup::new_traced(setup, K, &mut spans, &mut metrics);
    let reference_pins = config.pinned().then(|| pins::lineup(config.workload));
    let lineup_frame = trace_lineup(
        &lineup,
        config,
        reference_pins,
        &mut spans,
        &mut metrics,
        &mut tally,
    );
    metrics.note(format!(
        "render.* and sim.* on stream-rebuild come from the reference lineup on frame 0's scene; \
         its tracing overhead was {:.4}",
        lineup_frame.traced_s / lineup_frame.untraced_1t_s - 1.0
    ));

    let source = source(&lineup);
    let frames = config.scale.stream_frames;
    let pins = config.pinned().then(pins::stream_frames);
    let mut first = Vec::new();
    let baseline = &lineup.variants[0];
    let render_config = lineup.config(0);
    let engine = lineup.engine(1);
    let (mut build_s, mut plan_s, mut subtree_s, mut assemble_s) = (vec![], vec![], vec![], vec![]);
    let mut scene = None;
    let traced_start = Instant::now();
    for i in 0..frames {
        let frame = spans.new_frame();
        let (spec, _) = spans.time("pipeline.source_frame", frame, || source.frame(i));
        scene = spec.scene.or(scene);
        let Some(scene) = scene.as_deref() else {
            tally.frame(vec![format!("frame {i}: source supplied no scene")]);
            continue;
        };
        let (sharded, s) = spans.time("shard.build", frame, || {
            ShardedAccel::build(
                scene,
                baseline.primitive,
                baseline.two_level,
                &LayoutConfig::default(),
                SHARDS,
                1,
            )
        });
        let summary = sharded.summary();
        build_s.push(s);
        plan_s.push(summary.plan_seconds);
        subtree_s.push(summary.build_seconds);
        assemble_s.push(summary.assemble_seconds);
        let camera = &spec.cameras[0];
        let (launch, _) = spans.time("render.plan_launch", frame, || {
            engine.plan_launch(camera, None)
        });
        let outcomes = (0..engine.fragments_per_launch())
            .map(|sm| {
                spans
                    .time("render.simulate_fragment.baseline", frame, || {
                        engine.simulate_fragment(
                            sharded.accel(),
                            scene,
                            &render_config,
                            &launch,
                            sm,
                        )
                    })
                    .0
            })
            .collect();
        let (report, _) = spans.time("render.merge_launch.baseline", frame, || {
            engine.merge_launch(&launch, camera, &render_config, outcomes)
        });
        let label = format!("frame {i}");
        let mut problems = sanity(&label, &report);
        let got = Counters::of(&report);
        match pins.map(|p| p[i]).or_else(|| first.get(i).copied()) {
            Some(want) => problems.extend(compare(&label, got, want)),
            None => first.push(got),
        }
        tally.frame(problems);
    }
    let traced_s = traced_start.elapsed().as_secs_f64();

    let (call, sequential_1t_s) = stream_call(&lineup, &source, config, 1, 1);
    check_call(call, frames, pins, &mut first, &mut tally);
    let (call, stream_s) = stream_call(&lineup, &source, config, config.threads, DEPTH);
    let rebuilds = call
        .as_ref()
        .map_or(0, |f| f.iter().filter(|f| f.rebuilt()).count());
    check_call(call, frames, pins, &mut first, &mut tally);
    let (call, sequential_s) = stream_call(&lineup, &source, config, config.threads, 1);
    check_call(call, frames, pins, &mut first, &mut tally);

    metrics.push("shard.build_s", median(&build_s), "s");
    metrics.push("shard.plan_s", median(&plan_s), "s");
    metrics.push("shard.subtree_s", median(&subtree_s), "s");
    metrics.push("shard.assemble_s", median(&assemble_s), "s");
    metrics.push("pipeline.stream_s", stream_s, "s");
    metrics.push("pipeline.sequential_s", sequential_s, "s");
    metrics.push("pipeline.overlap_gain", sequential_s / stream_s, "ratio");
    metrics.push("pipeline.rebuilds", rebuilds as f64, "count");
    metrics.push(
        "trace.overhead_frac",
        traced_s / sequential_1t_s - 1.0,
        "ratio",
    );
    metrics.note(format!(
        "shard.*: median per frame over {frames} frames, {SHARDS} shards on 1 thread; \
         pipeline.*: {frames} frames at depth {DEPTH} and 1 on {} threads",
        config.threads
    ));
    metrics.note(format!(
        "trace.overhead_frac: {frames} stage-driven traced frames {traced_s:.4} s against \
         an untraced depth-1 stream {sequential_1t_s:.4} s, both on 1 thread"
    ));
    Report {
        tally,
        metrics,
        trace_json: Some(spans.chrome_json(&crate::trace_metadata(config))),
    }
}

/// Counters of one untimed stream call, for regenerating the pins.
pub fn observed_counters(config: &Config) -> Vec<Counters> {
    let lineup = setup(config);
    let source = source(&lineup);
    let (call, _) = stream_call(&lineup, &source, config, config.threads, DEPTH);
    call.expect("stream runs")
        .iter()
        .map(|f| Counters::of(&f.results()[0].report))
        .collect()
}
