//! The frame-stream scheduler: a three-stage graph (update → build →
//! render) driven by one scoped worker pool.
//!
//! # Stage graph
//!
//! ```text
//!  FrameSource ──► update ──► build ──► render ──► Vec<FrameResult>
//!                 (N + 2)    (N + 1)     (N)        (frame order)
//! ```
//!
//! * **update** produces a frame's scene and cameras from the
//!   [`FrameSource`] and plans its raygen launches
//!   ([`RenderEngine::plan_launch`] — pure, scene-independent). Updates
//!   run in frame order, one at a time.
//! * **build** constructs the frame's acceleration structure — sharded
//!   in parallel through the `grtx-shard` builder when
//!   [`StreamConfig::shards`] > 0 — or, when the source reports the
//!   scene unchanged, reuses the previous frame's structure without
//!   rebuilding. Builds run in frame order, one at a time.
//! * **render** fans the frame into `cameras × SMs` closed fragments
//!   ([`RenderEngine::simulate_fragment`]) and merges them per camera in
//!   fixed SM order ([`RenderEngine::merge_launch`]).
//!
//! Stages are connected by bounded, double-buffered handoffs: `update(n)`
//! starts only when `n ≤ builds_done + 2` (one spec feeding the build in
//! progress, two buffered behind it), and `build(n)` only when
//! `n ≤ merged + 1` (the structure being rendered plus one queued).
//! A frame's slot releases its scene, structure, and launches as soon as
//! no successor can still reuse them, so a long stream holds a bounded
//! working set — not every frame to the end. [`StreamConfig::depth`]
//! additionally caps the total frames in flight — depth 1 degenerates to
//! the sequential per-frame path ([`run_sequential`]), depth 3 reaches
//! the full update(N+2) ∥ build(N+1) ∥ render(N) overlap, and the
//! handoff bounds cap useful depth at 5 regardless.
//!
//! # One pool, work stealing across stages
//!
//! All stage work executes on a single `std::thread::scope` worker pool.
//! Workers claim whatever is ready, preferring downstream work (merge,
//! then fragments, then build, then update) on the oldest frame first —
//! so a worker that runs out of render fragments for frame N naturally
//! steals the build of frame N+1 or the update of frame N+2, and the
//! machine stays busy across stage boundaries.
//!
//! # Determinism
//!
//! Every task is a pure function of its frame's inputs, results land in
//! slots keyed by frame (and fragment) index, and merges follow the
//! engine's fixed `(camera, SM)` order — so images, cycles, and every
//! statistic are **bit-identical** to running the frames sequentially
//! ([`run_sequential`], and therefore to per-frame
//! `RenderEngine::render_batch` calls) at any thread count and any
//! pipeline depth. Only wall-clock time changes. Build timings inside
//! [`ShardingSummary`] are wall-clock measurements and are exempt.

use crate::source::FrameSource;
use grtx_bvh::{AccelStruct, BoundingPrimitive, BvhSizeReport, LayoutConfig};
use grtx_fault::{FaultInjector, FaultSite, GrtxError, InjectedFault, RetryPolicy};
use grtx_prof::Profiler;
use grtx_render::engine::{CameraLaunch, SmOutcome};
use grtx_render::renderer::{RenderConfig, RenderReport};
use grtx_render::RenderEngine;
use grtx_scene::{Camera, EffectObjects, GaussianScene};
use grtx_shard::{ShardedAccel, ShardingSummary};
use grtx_sim::GpuConfig;
use grtx_telemetry::Telemetry;
use std::sync::{Arc, Condvar, Mutex};

/// Everything the pipeline needs to turn a [`FrameSource`] into frames:
/// the acceleration-structure recipe, the render configuration, and the
/// pipeline shape (depth, threads, shards).
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Maximum frames in flight. `0`/`1` runs the sequential per-frame
    /// path; `2` overlaps rendering with the next frame's update+build;
    /// `3` (the default) reaches the full three-stage overlap. Depths
    /// above 5 change nothing — the bounded stage handoffs (update ≤ 2
    /// frames past completed builds, build ≤ 1 frame past the oldest
    /// unmerged frame) admit at most five frames in flight.
    pub depth: usize,
    /// Worker threads for the pool (`0` = all available cores). Thread
    /// count never changes results, only wall-clock time.
    pub threads: usize,
    /// Spatial shards for acceleration-structure builds (`0` = the
    /// serial unsharded build). Shard count never changes results.
    pub shards: usize,
    /// Bounding proxy for Gaussians.
    pub primitive: BoundingPrimitive,
    /// Two-level (TLAS + shared BLAS) vs monolithic organization.
    pub two_level: bool,
    /// Structure byte layout.
    pub layout: LayoutConfig,
    /// Render configuration (trace params, cycle charging, background).
    pub render: RenderConfig,
    /// Simulated GPU configuration.
    pub gpu: GpuConfig,
    /// Effect objects applied to every frame's cameras, if any.
    pub effects: Option<EffectObjects>,
    /// Telemetry handle. The default (disabled) handle records nothing;
    /// an enabled one collects per-worker task spans, stage-handoff
    /// histograms (frame latency, queue dwell, handoff depth), and
    /// scheduler counters — without changing any frame result.
    pub telemetry: Telemetry,
    /// Simulated-cycle profiler handle. The default (disabled) handle
    /// records nothing; an enabled one collects per-(launch, SM)
    /// hardware counters and warp timelines on the virtual clock, keyed
    /// `(frame << 32) | camera` — byte-identical at every depth, thread,
    /// and shard count, and invisible in every frame result.
    pub profiler: Profiler,
    /// Fault-injection handle. The default (disabled) handle never
    /// fires; an enabled one panics stage tasks per its seeded
    /// [`grtx_fault::FaultPlan`], keyed by the same
    /// `(frame << 32) | camera` launch keys the profiler uses — so
    /// injection is schedule-independent and the recovered stream is
    /// bit-identical to a fault-free run.
    pub faults: FaultInjector,
    /// How the pipeline responds to a panicking stage task. The default
    /// (one attempt, no quarantine) is the legacy behavior: the first
    /// panic poisons the pipeline and re-raises on the caller. A
    /// [`RetryPolicy::resilient`] policy retries deterministically and
    /// quarantines frames that exhaust their attempts as
    /// [`FrameOutcome::Failed`] while later frames keep flowing.
    pub retry: RetryPolicy,
}

impl Default for StreamConfig {
    /// GRTX-SW structure (TLAS + shared 20-triangle BLAS), default
    /// render/GPU configuration, full three-stage overlap on all cores.
    fn default() -> Self {
        Self {
            depth: 3,
            threads: 0,
            shards: 0,
            primitive: BoundingPrimitive::Mesh20,
            two_level: true,
            layout: LayoutConfig::default(),
            render: RenderConfig::default(),
            gpu: GpuConfig::default(),
            effects: None,
            telemetry: Telemetry::disabled(),
            profiler: Profiler::disabled(),
            faults: FaultInjector::disabled(),
            retry: RetryPolicy::default(),
        }
    }
}

impl StreamConfig {
    /// Whether this configuration needs the fault/retry machinery at
    /// all. When it doesn't (the default), the sequential path runs the
    /// exact legacy code with zero catch points.
    fn wants_fault_machinery(&self) -> bool {
        self.faults.is_enabled() || self.retry.attempts() > 1 || self.retry.quarantine
    }
}

/// One rendered frame, in frame order, with everything the sequential
/// path would have produced.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// Frame index in the stream.
    pub index: usize,
    /// Gaussians in this frame's scene.
    pub gaussians: usize,
    /// Whether this frame rebuilt the acceleration structure (`false`
    /// when the source reported the scene unchanged and the previous
    /// structure was reused).
    pub rebuilt: bool,
    /// One report per camera, in view order — each bit-identical to a
    /// standalone render of that camera against this frame's scene.
    pub reports: Vec<RenderReport>,
    /// Acceleration-structure byte accounting for this frame.
    pub size: BvhSizeReport,
    /// Structure height.
    pub height: u32,
    /// Sharded-build accounting when [`StreamConfig::shards`] > 0.
    /// Reused (cloned) from the building frame on reuse frames. Shard
    /// sizes and the directory are deterministic; the summary's
    /// build-phase timings and worker count are wall-clock/scheduling
    /// metadata (overlapped builds size themselves to the pool's spare
    /// capacity) and are exempt from the determinism contract.
    pub sharding: Option<ShardingSummary>,
}

/// One frame's outcome under a quarantining [`RetryPolicy`]: rendered,
/// or failed after exhausting its retries — in frame order either way.
#[derive(Debug, Clone)]
pub enum FrameOutcome {
    /// The frame rendered completely; bit-identical to a fault-free
    /// run of the same stream.
    Rendered(FrameResult),
    /// The frame exhausted its retries (or depended on a frame that
    /// did) and was quarantined; later frames keep flowing.
    Failed {
        /// Frame index in the stream.
        index: usize,
        /// Why the frame was quarantined.
        error: GrtxError,
    },
}

impl FrameOutcome {
    /// Frame index in the stream.
    pub fn index(&self) -> usize {
        match self {
            FrameOutcome::Rendered(result) => result.index,
            FrameOutcome::Failed { index, .. } => *index,
        }
    }

    /// Whether the frame was quarantined.
    pub fn is_failed(&self) -> bool {
        matches!(self, FrameOutcome::Failed { .. })
    }

    /// The quarantine error, if the frame failed.
    pub fn error(&self) -> Option<&GrtxError> {
        match self {
            FrameOutcome::Rendered(_) => None,
            FrameOutcome::Failed { error, .. } => Some(error),
        }
    }

    /// The rendered result, if the frame succeeded.
    pub fn rendered(&self) -> Option<&FrameResult> {
        match self {
            FrameOutcome::Rendered(result) => Some(result),
            FrameOutcome::Failed { .. } => None,
        }
    }

    /// Unwraps into the rendered result or the quarantine error.
    pub fn into_rendered(self) -> Result<FrameResult, GrtxError> {
        match self {
            FrameOutcome::Rendered(result) => Ok(result),
            FrameOutcome::Failed { error, .. } => Err(error),
        }
    }
}

/// A built acceleration structure plus the accounting a frame reports.
struct Built {
    accel: Arc<AccelStruct>,
    size: BvhSizeReport,
    height: u32,
    sharding: Option<ShardingSummary>,
}

/// Builds a frame's structure per the config — sharded in parallel on
/// `build_threads` workers when `shards` > 0.
fn build_structure(scene: &GaussianScene, config: &StreamConfig, build_threads: usize) -> Built {
    if config.shards > 0 {
        let sharded = ShardedAccel::build_traced(
            scene,
            config.primitive,
            config.two_level,
            &config.layout,
            config.shards,
            build_threads,
            &config.telemetry,
        );
        let sharding = Some(sharded.summary());
        let accel = sharded.into_accel();
        Built {
            size: *accel.size_report(),
            height: accel.height(),
            accel: Arc::new(accel),
            sharding,
        }
    } else {
        let accel = AccelStruct::build(scene, config.primitive, config.two_level, &config.layout);
        Built {
            size: *accel.size_report(),
            height: accel.height(),
            accel: Arc::new(accel),
            sharding: None,
        }
    }
}

/// Runs `frames` frames of `source` through the pipeline, returning
/// results in strict frame order.
///
/// Every frame's images, cycles, and statistics are **bit-identical** to
/// [`run_sequential`] — and therefore to building and batch-rendering
/// each frame one at a time — at any [`StreamConfig::depth`],
/// [`StreamConfig::threads`], and [`StreamConfig::shards`].
///
/// # Panics
///
/// Panics if frame 0's [`FrameSpec`](crate::FrameSpec) carries no scene,
/// if the source/build/render work itself panics past the retry budget
/// (worker panics are forwarded to the caller under the default
/// [`RetryPolicy`]), if the configuration is invalid, or if a
/// quarantining policy produced a `Failed` frame — callers that expect
/// failures should use [`try_run_stream`], which surfaces them as
/// [`FrameOutcome::Failed`] instead.
pub fn run_stream(
    source: &dyn FrameSource,
    frames: usize,
    config: &StreamConfig,
) -> Vec<FrameResult> {
    try_run_stream(source, frames, config)
        .unwrap_or_else(|e| panic!("{e}"))
        .into_iter()
        .map(|outcome| outcome.into_rendered().unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

/// Fallible [`run_stream`]: validates the configuration up front
/// (returning [`GrtxError::InvalidConfig`] for degenerate GPU shapes or
/// a zero-capacity k-buffer)
/// and, under a quarantining [`RetryPolicy`], yields per-frame
/// [`FrameOutcome`]s — failed frames surface in order as
/// [`FrameOutcome::Failed`] while later frames keep rendering.
///
/// Zero-fault runs take exactly the legacy code paths and are
/// bit-identical to [`run_stream`] today; recovered transient-fault
/// runs are bit-identical to fault-free runs at any depth, thread
/// count, and shard count.
///
/// # Panics
///
/// Under the default non-quarantining policy, a stage panic that
/// exhausts [`RetryPolicy::max_attempts`] still poisons the pipeline
/// and re-raises the original payload — preserving the legacy contract
/// (and the panic payload) for callers that want panics.
pub fn try_run_stream(
    source: &dyn FrameSource,
    frames: usize,
    config: &StreamConfig,
) -> Result<Vec<FrameOutcome>, GrtxError> {
    grtx_render::validate_gpu(&config.gpu)?;
    grtx_render::validate_render(&config.render)?;
    if frames == 0 {
        return Ok(Vec::new());
    }
    if config.depth <= 1 {
        if !config.wants_fault_machinery() {
            return Ok(run_sequential(source, frames, config)
                .into_iter()
                .map(FrameOutcome::Rendered)
                .collect());
        }
        return Ok(resilient_sequential(source, frames, config));
    }
    Ok(Pipeline::new(source, frames, config).run())
}

/// The sequential per-frame path: update, build, render, one frame at a
/// time — the proof anchor the pipelined scheduler is tested against
/// (and the `depth ≤ 1` behavior of [`run_stream`]).
///
/// The unchanged-scene rebuild skip applies here too, so reuse frames
/// cost no build; skipping is invisible in the results because the
/// serial rebuild is deterministic.
pub fn run_sequential(
    source: &dyn FrameSource,
    frames: usize,
    config: &StreamConfig,
) -> Vec<FrameResult> {
    let engine = RenderEngine::new(config.gpu.clone())
        .with_threads(config.threads)
        .with_telemetry(config.telemetry.clone())
        .with_profiler(config.profiler.clone());
    let telemetry = &config.telemetry;
    let mut recorder = telemetry.recorder("stream-sequential");
    let mut results = Vec::with_capacity(frames);
    let mut scene: Option<Arc<GaussianScene>> = None;
    let mut built: Option<Arc<Built>> = None;
    for index in 0..frames {
        let frame_start = telemetry.now_us();
        let (rebuilt, reports) = recorder.scope("pipeline.frame", index as u64, |rec| {
            let spec = rec.scope("pipeline.update", index as u64, |_| source.frame(index));
            let rebuilt = spec.scene.is_some();
            if let Some(s) = spec.scene {
                scene = Some(s);
            }
            let scene = scene.as_ref().expect("frame 0 must supply a scene");
            if rebuilt || built.is_none() {
                telemetry.counter_add("pipeline.rebuilds", 1);
                built = Some(Arc::new(rec.scope("pipeline.build", index as u64, |_| {
                    build_structure(scene, config, config.threads)
                })));
            } else {
                telemetry.counter_add("pipeline.rebuild_skips", 1);
            }
            let built = built.as_ref().expect("structure built above");
            let reports = rec.scope("pipeline.render", index as u64, |_| {
                // The same `(frame << 32) | camera` profile keys as the
                // task-graph path, so profiles are depth-independent.
                engine.render_batch_keyed(
                    (index as u64) << 32,
                    &built.accel,
                    scene,
                    &spec.cameras,
                    config.effects.as_ref(),
                    &config.render,
                )
            });
            (rebuilt, reports)
        });
        telemetry.record_value(
            "pipeline.frame_latency_us",
            telemetry.now_us().saturating_sub(frame_start),
        );
        telemetry.counter_add("pipeline.frames", 1);
        let scene = scene.as_ref().expect("frame 0 must supply a scene");
        let built = built.as_ref().expect("structure built above");
        results.push(FrameResult {
            index,
            gaussians: scene.len(),
            rebuilt,
            reports,
            size: built.size,
            height: built.height,
            sharding: built.sharding.clone(),
        });
    }
    results
}

/// Outcome of one stage task run under the retry policy.
enum StageRun<T> {
    /// The body completed (possibly after retries).
    Done(T),
    /// Every permitted attempt panicked; quarantine converted the last
    /// payload into a typed error (which records the attempt count).
    Exhausted { error: GrtxError },
}

/// Builds the `StageFailed` error for an exhausted stage task. Injected
/// payloads attribute to their true site (a build task probes both the
/// partition and build sites) and foreign payloads contribute their
/// message when they carry one.
fn stage_failed(
    stage: FaultSite,
    frame: usize,
    attempts: u32,
    payload: &(dyn std::any::Any + Send),
) -> GrtxError {
    let (stage, reason) = if let Some(fault) = payload.downcast_ref::<InjectedFault>() {
        (fault.site, fault.to_string())
    } else if let Some(message) = payload.downcast_ref::<&str>() {
        (stage, (*message).to_string())
    } else if let Some(message) = payload.downcast_ref::<String>() {
        (stage, message.clone())
    } else {
        (stage, "stage task panicked".to_string())
    };
    GrtxError::StageFailed {
        stage,
        frame: frame as u64,
        attempts,
        reason,
    }
}

/// Runs one stage body under the retry policy: catches panics, counts
/// attempts (passing the 0-based attempt number to the body so fault
/// probes see it), and — under quarantine — converts exhaustion into a
/// typed error. Non-quarantine exhaustion re-raises the original
/// payload, preserving the legacy panic contract.
fn run_stage<T>(
    config: &StreamConfig,
    recorder: &mut grtx_telemetry::SpanRecorder,
    stage: FaultSite,
    frame: usize,
    body: &mut dyn FnMut(u32) -> T,
) -> StageRun<T> {
    let telemetry = &config.telemetry;
    let mut attempt = 0u32;
    loop {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(attempt))) {
            Ok(value) => return StageRun::Done(value),
            Err(payload) => {
                if payload.downcast_ref::<InjectedFault>().is_some() {
                    telemetry.counter_add("fault.injected", 1);
                }
                attempt += 1;
                if attempt < config.retry.attempts() {
                    telemetry.counter_add("fault.retries", 1);
                    recorder.scope("pipeline.retry", frame as u64, |_| ());
                    continue;
                }
                if config.retry.quarantine {
                    return StageRun::Exhausted {
                        error: stage_failed(stage, frame, attempt, payload.as_ref()),
                    };
                }
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// The fault-aware sequential path (`depth ≤ 1` with fault injection,
/// retries, or quarantine enabled): the same per-frame update → build →
/// fragment → merge structure as the task graph, probing the same
/// `(site, key, unit, attempt)` points — so its [`FaultLog`] and its
/// recovered results are bit-identical to the pipelined scheduler's at
/// any depth.
///
/// [`FaultLog`]: grtx_fault::FaultLog
fn resilient_sequential(
    source: &dyn FrameSource,
    frames: usize,
    config: &StreamConfig,
) -> Vec<FrameOutcome> {
    let engine = RenderEngine::new(config.gpu.clone())
        .with_threads(config.threads)
        .with_telemetry(config.telemetry.clone())
        .with_profiler(config.profiler.clone());
    let sms = engine.fragments_per_launch();
    let telemetry = &config.telemetry;
    let mut recorder = telemetry.recorder("stream-sequential");
    let mut results: Vec<FrameOutcome> = Vec::with_capacity(frames);
    let mut scene: Option<Arc<GaussianScene>> = None;
    let mut built: Option<Arc<Built>> = None;
    // Root of the most recent scene-chain break: set when an update
    // fails, cleared when a later frame supplies a fresh scene.
    let mut broken_dependency: Option<usize> = None;

    let fail = |results: &mut Vec<FrameOutcome>, index: usize, error: GrtxError| {
        telemetry.counter_add("fault.frames_failed", 1);
        results.push(FrameOutcome::Failed { index, error });
    };

    for index in 0..frames {
        let key = (index as u64) << 32;
        let frame_start = telemetry.now_us();

        // Update: produce the spec and plan launches. Not an injection
        // site, but foreign panics quarantine like any other stage.
        let update = run_stage(config, &mut recorder, FaultSite::Update, index, &mut |_| {
            let spec = source.frame(index);
            assert!(
                spec.scene.is_some() || index > 0,
                "frame 0 must supply a scene"
            );
            let launches: Vec<CameraLaunch> = spec
                .cameras
                .iter()
                .map(|camera| engine.plan_launch(camera, config.effects.as_ref()))
                .collect();
            (spec, launches)
        });
        let (spec, launches) = match update {
            StageRun::Done(value) => value,
            StageRun::Exhausted { error, .. } => {
                // The frame never resolved a scene; successors that rely
                // on an unchanged scene inherit the break until a frame
                // supplies a fresh one.
                scene = None;
                built = None;
                broken_dependency = broken_dependency.or(Some(index));
                fail(&mut results, index, error);
                continue;
            }
        };
        let rebuilt = spec.scene.is_some();
        if let Some(fresh) = spec.scene {
            scene = Some(fresh);
            broken_dependency = None;
        }
        let Some(frame_scene) = scene.clone() else {
            let dependency = broken_dependency.unwrap_or(0) as u64;
            fail(
                &mut results,
                index,
                GrtxError::DependencyFailed {
                    frame: index as u64,
                    dependency,
                },
            );
            continue;
        };

        // Build (or reuse). Probes the partition and build sites — on
        // reuse frames too, matching the task-graph build task.
        let reuse = if rebuilt { None } else { built.clone() };
        let build = run_stage(
            config,
            &mut recorder,
            FaultSite::Build,
            index,
            &mut |attempt| {
                config.faults.probe(FaultSite::Partition, key, 0, attempt);
                config.faults.probe(FaultSite::Build, key, 0, attempt);
                match &reuse {
                    Some(structure) => {
                        telemetry.counter_add("pipeline.rebuild_skips", 1);
                        structure.clone()
                    }
                    None => {
                        telemetry.counter_add("pipeline.rebuilds", 1);
                        Arc::new(build_structure(&frame_scene, config, config.threads))
                    }
                }
            },
        );
        let frame_built = match build {
            StageRun::Done(structure) => structure,
            StageRun::Exhausted { error, .. } => {
                // A failed build invalidates only its own frame; the
                // next reuse frame rebuilds fresh from its scene.
                built = None;
                fail(&mut results, index, error);
                continue;
            }
        };
        built = Some(frame_built.clone());

        // Fragments: every fragment runs to completion or exhaustion —
        // even after a sibling exhausted — so the set of probed
        // `(site, key, unit, attempt)` points is schedule-independent.
        // The lowest exhausted fragment's error is the frame's error.
        let fragment_count = spec.cameras.len() * sms;
        let mut outcomes: Vec<Option<SmOutcome>> = (0..fragment_count).map(|_| None).collect();
        let mut fragment_error: Option<GrtxError> = None;
        for (fragment, slot) in outcomes.iter_mut().enumerate() {
            let camera = fragment / sms;
            let sm = fragment % sms;
            let run = run_stage(
                config,
                &mut recorder,
                FaultSite::Fragment,
                index,
                &mut |attempt| {
                    config.faults.probe(
                        FaultSite::Fragment,
                        key | camera as u64,
                        sm as u64,
                        attempt,
                    );
                    engine.simulate_fragment(
                        &frame_built.accel,
                        &frame_scene,
                        &config.render,
                        &launches[camera],
                        sm,
                    )
                },
            );
            match run {
                StageRun::Done(outcome) => *slot = Some(outcome),
                StageRun::Exhausted { error, .. } => {
                    fragment_error.get_or_insert(error);
                }
            }
        }
        if let Some(error) = fragment_error {
            fail(&mut results, index, error);
            continue;
        }

        // Merge. The probe fires before any outcome is consumed, so an
        // injected merge fault retries against intact inputs; a foreign
        // panic mid-merge leaves them consumed and the retry exhausts
        // on the "inputs consumed" panic instead (the task graph fails
        // such frames immediately for the same reason).
        let merge = run_stage(
            config,
            &mut recorder,
            FaultSite::Merge,
            index,
            &mut |attempt| {
                config.faults.probe(FaultSite::Merge, key, 0, attempt);
                spec.cameras
                    .iter()
                    .enumerate()
                    .map(|(cam, camera)| {
                        let sm_outcomes: Vec<SmOutcome> = outcomes[cam * sms..(cam + 1) * sms]
                            .iter_mut()
                            .map(|o| o.take().expect("merge inputs consumed by a failed attempt"))
                            .collect();
                        engine.merge_launch_keyed(
                            key | cam as u64,
                            &launches[cam],
                            camera,
                            &config.render,
                            sm_outcomes,
                        )
                    })
                    .collect::<Vec<RenderReport>>()
            },
        );
        match merge {
            StageRun::Done(reports) => {
                telemetry.record_value(
                    "pipeline.frame_latency_us",
                    telemetry.now_us().saturating_sub(frame_start),
                );
                telemetry.counter_add("pipeline.frames", 1);
                results.push(FrameOutcome::Rendered(FrameResult {
                    index,
                    gaussians: frame_scene.len(),
                    rebuilt,
                    reports,
                    size: frame_built.size,
                    height: frame_built.height,
                    sharding: frame_built.sharding.clone(),
                }));
            }
            StageRun::Exhausted { error, .. } => {
                fail(&mut results, index, error);
            }
        }
    }
    results
}

/// Per-frame pipeline slot, filled stage by stage.
#[derive(Default)]
struct Slot {
    /// After update: this frame's cameras.
    cameras: Vec<Camera>,
    /// After update: the frame's resolved scene (the previous frame's
    /// when the source reported it unchanged).
    scene: Option<Arc<GaussianScene>>,
    /// Whether the source supplied a fresh scene for this frame.
    scene_changed: bool,
    /// After update: planned launches, one per camera.
    launches: Option<Arc<Vec<CameraLaunch>>>,
    /// After build: the structure to render against.
    built: Option<Arc<Built>>,
    /// Fragment outcomes, camera-major (`camera × SMs + sm`).
    outcomes: Vec<Option<SmOutcome>>,
    /// Fragments handed to workers so far.
    issued: usize,
    /// Fragments completed so far.
    fragments_done: usize,
    /// Whether the merge task was claimed.
    merge_claimed: bool,
    /// Whether the merge completed (or the frame was sealed as failed).
    merged: bool,
    /// Attempts already made per stage task (0 until a task panics).
    update_attempts: u32,
    build_attempts: u32,
    merge_attempts: u32,
    /// Per-fragment attempt counters, sized with `outcomes`.
    fragment_attempts: Vec<u32>,
    /// Fragments requeued for retry after a caught panic.
    requeued: Vec<usize>,
    /// Fragments that exhausted their attempts (settled without an
    /// outcome).
    fragments_exhausted: usize,
    /// The merge task consumed its inputs; a panic after this point
    /// cannot retry (the outcomes are gone).
    merge_inputs_taken: bool,
    /// Quarantine error plus the canonical (lowest) failing fragment
    /// index, once the frame has failed. Failed frames keep draining
    /// their in-flight fragments — so the probe set stays
    /// schedule-independent — and seal once everything settles.
    failed: Option<(GrtxError, usize)>,
    /// Telemetry timestamps (µs since the handle's epoch; all `0` with
    /// telemetry disabled): when the frame's update was claimed, when it
    /// completed, and when the build completed — the anchors for the
    /// frame-latency and queue-dwell histograms.
    t_update_claim: u64,
    t_update_done: u64,
    t_build_done: u64,
}

/// A claimed unit of pool work.
enum Task {
    /// Produce frame `n`'s spec and plan its launches.
    Update(usize),
    /// Build (or reuse) frame `n`'s structure. Carries the resolved
    /// scene and, when the scene is unchanged, the structure to reuse.
    Build {
        frame: usize,
        scene: Arc<GaussianScene>,
        reuse: Option<Arc<Built>>,
        /// Worker threads for the nested sharded build: the pool's spare
        /// capacity at claim time, so an overlapped build soaks up idle
        /// cores instead of oversubscribing busy ones.
        build_threads: usize,
        /// 0-based attempt number, for fault probes.
        attempt: u32,
    },
    /// Simulate fragment `fragment` (camera-major) of frame `frame`.
    Fragment {
        frame: usize,
        fragment: usize,
        scene: Arc<GaussianScene>,
        built: Arc<Built>,
        launches: Arc<Vec<CameraLaunch>>,
        /// 0-based attempt number, for fault probes.
        attempt: u32,
    },
    /// Merge frame `frame`'s fragments into its result. The cameras and
    /// outcomes stay in the slot until the task's fault probe has
    /// passed, so an injected merge fault retries against intact
    /// inputs.
    Merge {
        frame: usize,
        scene: Arc<GaussianScene>,
        built: Arc<Built>,
        launches: Arc<Vec<CameraLaunch>>,
        scene_changed: bool,
        /// 0-based attempt number, for fault probes.
        attempt: u32,
    },
}

/// Identity of a claimed task, captured before execution so a caught
/// panic can be attributed, retried, or quarantined.
#[derive(Clone, Copy)]
struct TaskId {
    stage: FaultSite,
    frame: usize,
    /// Fragment index for fragment tasks.
    fragment: Option<usize>,
}

/// Shared scheduler state, guarded by one mutex.
struct State {
    slots: Vec<Slot>,
    results: Vec<Option<FrameOutcome>>,
    /// Next frame index the update stage will claim / has completed.
    update_claimed: usize,
    update_done: usize,
    /// Next frame index the build stage will claim / has completed.
    build_claimed: usize,
    build_done: usize,
    /// Frames `0..merged_prefix` are fully rendered and merged.
    merged_prefix: usize,
    /// Frames `0..released_prefix` have dropped their slot's scene,
    /// structure, and launches (no successor can still reuse them).
    released_prefix: usize,
    /// Tasks currently executing on workers (claimed, not yet
    /// completed) — the pool's busy count, used to size nested builds.
    running: usize,
    /// A worker panicked; everyone else drains out.
    poisoned: bool,
}

struct Pipeline<'a> {
    source: &'a dyn FrameSource,
    frames: usize,
    config: &'a StreamConfig,
    engine: RenderEngine,
    sms: usize,
    depth: usize,
    workers: usize,
    state: Mutex<State>,
    ready: Condvar,
}

impl<'a> Pipeline<'a> {
    /// Locks the scheduler state. Poisoning is survivable by design:
    /// critical sections only mutate state as their final step, and a
    /// panicking task marks the whole pipeline poisoned anyway — the
    /// first panic is what reaches the caller, not a `PoisonError`.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn new(source: &'a dyn FrameSource, frames: usize, config: &'a StreamConfig) -> Self {
        let engine = RenderEngine::new(config.gpu.clone())
            .with_threads(config.threads)
            .with_telemetry(config.telemetry.clone())
            .with_profiler(config.profiler.clone());
        let sms = engine.fragments_per_launch();
        // The shard builder's worker policy: 0 = all cores. No work-item
        // cap — the pool's parallel width (in-flight frames × cameras ×
        // SMs fragments plus builds and updates) isn't known until the
        // source produces frames, and idle workers just park on the
        // condvar.
        let workers = grtx_shard::effective_threads(config.threads, usize::MAX);
        Self {
            source,
            frames,
            config,
            engine,
            sms,
            depth: config.depth.max(1),
            workers,
            state: Mutex::new(State {
                slots: (0..frames).map(|_| Slot::default()).collect(),
                results: (0..frames).map(|_| None).collect(),
                update_claimed: 0,
                update_done: 0,
                build_claimed: 0,
                build_done: 0,
                merged_prefix: 0,
                released_prefix: 0,
                running: 0,
                poisoned: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn run(self) -> Vec<FrameOutcome> {
        std::thread::scope(|scope| {
            let this = &self;
            let handles: Vec<_> = (0..self.workers)
                .map(|index| scope.spawn(move || this.worker(index)))
                .collect();
            for handle in handles {
                if let Err(payload) = handle.join() {
                    // Re-raise the first worker panic on the caller.
                    std::panic::resume_unwind(payload);
                }
            }
        });
        let state = self
            .state
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state
            .results
            .into_iter()
            .map(|r| r.expect("every frame settled"))
            .collect()
    }

    /// One pool worker: claim, execute, publish, until the stream is
    /// fully merged (or a sibling panicked).
    fn worker(&self, index: usize) {
        let mut recorder = self
            .config
            .telemetry
            .recorder(format!("pipeline-worker-{index:02}"));
        loop {
            let task = {
                let mut state = self.lock_state();
                loop {
                    if state.poisoned {
                        return;
                    }
                    if state.merged_prefix == self.frames {
                        return;
                    }
                    match self.claim(&mut state) {
                        Some(task) => {
                            state.running += 1;
                            break task;
                        }
                        None => {
                            state = self
                                .ready
                                .wait(state)
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                        }
                    }
                }
            };
            // Execute outside the lock. A panic is caught at this choke
            // point and routed through `handle_panic`: retried (within
            // the retry budget), quarantined to its frame (resilient
            // policy), or — under the default policy — the pipeline is
            // poisoned so sibling workers drain out, then the payload
            // re-raises. Which worker runs which task is
            // scheduling-dependent, so span *tracks* vary run to run —
            // but the per-path span counts are deterministic (one
            // update/build/merge per frame, one fragment per
            // (camera, SM)).
            let (span, key) = match &task {
                Task::Update(n) => ("pipeline.update", *n),
                Task::Build { frame, reuse, .. } => (
                    if reuse.is_some() {
                        "pipeline.build_reuse"
                    } else {
                        "pipeline.build"
                    },
                    *frame,
                ),
                Task::Fragment { frame, .. } => ("pipeline.fragment", *frame),
                Task::Merge { frame, .. } => ("pipeline.merge", *frame),
            };
            let id = match &task {
                Task::Update(n) => TaskId {
                    stage: FaultSite::Update,
                    frame: *n,
                    fragment: None,
                },
                Task::Build { frame, .. } => TaskId {
                    stage: FaultSite::Build,
                    frame: *frame,
                    fragment: None,
                },
                Task::Fragment {
                    frame, fragment, ..
                } => TaskId {
                    stage: FaultSite::Fragment,
                    frame: *frame,
                    fragment: Some(*fragment),
                },
                Task::Merge { frame, .. } => TaskId {
                    stage: FaultSite::Merge,
                    frame: *frame,
                    fragment: None,
                },
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                recorder.scope(span, key as u64, |_| self.execute(task));
            }));
            if let Err(payload) = outcome {
                if self.handle_panic(id, payload) {
                    recorder.scope("pipeline.retry", id.frame as u64, |_| ());
                }
            }
        }
    }

    /// Handles a stage-task panic caught at the worker choke point:
    /// requeue the task for a retry (returns `true`), quarantine its
    /// frame under the resilient policy (returns `false`), or — under
    /// the default policy — poison the pipeline and re-raise the
    /// original payload on this worker (diverges, preserving legacy
    /// fail-fast semantics byte for byte).
    fn handle_panic(&self, id: TaskId, payload: Box<dyn std::any::Any + Send>) -> bool {
        let telemetry = &self.config.telemetry;
        if payload.downcast_ref::<InjectedFault>().is_some() {
            telemetry.counter_add("fault.injected", 1);
        }
        let policy = self.config.retry;
        let mut state = self.lock_state();
        state.running -= 1;
        let (attempts, retryable) = {
            let slot = &mut state.slots[id.frame];
            let counter = match (id.stage, id.fragment) {
                (FaultSite::Fragment, Some(f)) => &mut slot.fragment_attempts[f],
                (FaultSite::Update, _) => &mut slot.update_attempts,
                (FaultSite::Merge, _) => &mut slot.merge_attempts,
                _ => &mut slot.build_attempts,
            };
            *counter += 1;
            // A merge that already consumed its inputs cannot re-run;
            // injected merge faults fire before the take, so they stay
            // retryable.
            (
                *counter,
                id.stage != FaultSite::Merge || !slot.merge_inputs_taken,
            )
        };
        if retryable && attempts < policy.attempts() {
            telemetry.counter_add("fault.retries", 1);
            match (id.stage, id.fragment) {
                (FaultSite::Fragment, Some(f)) => state.slots[id.frame].requeued.push(f),
                (FaultSite::Update, _) => state.update_claimed = id.frame,
                (FaultSite::Merge, _) => state.slots[id.frame].merge_claimed = false,
                _ => state.build_claimed = id.frame,
            }
            drop(state);
            self.ready.notify_all();
            return true;
        }
        if policy.quarantine {
            if id.stage == FaultSite::Fragment {
                state.slots[id.frame].fragments_exhausted += 1;
            }
            let error = stage_failed(id.stage, id.frame, attempts, payload.as_ref());
            self.fail_frame(
                &mut state,
                id.frame,
                id.stage,
                id.fragment.unwrap_or(usize::MAX),
                error,
            );
            drop(state);
            self.ready.notify_all();
            return false;
        }
        state.poisoned = true;
        drop(state);
        self.ready.notify_all();
        std::panic::resume_unwind(payload);
    }

    /// Quarantines `frame` with `error`, advancing the stage cursor the
    /// failed task held so successors keep flowing, and seals the frame
    /// once its in-flight fragments settle. When several fragments of
    /// one frame exhaust, the lowest fragment index wins the recorded
    /// error — a schedule-independent choice.
    fn fail_frame(
        &self,
        state: &mut State,
        frame: usize,
        stage: FaultSite,
        fragment: usize,
        error: GrtxError,
    ) {
        {
            let slot = &mut state.slots[frame];
            let replace = match &slot.failed {
                None => {
                    self.config.telemetry.counter_add("fault.frames_failed", 1);
                    true
                }
                Some((_, existing)) => stage == FaultSite::Fragment && fragment < *existing,
            };
            if replace {
                slot.failed = Some((error, fragment));
            }
        }
        match stage {
            FaultSite::Update => state.update_done = state.update_done.max(frame + 1),
            FaultSite::Partition | FaultSite::Build => {
                state.build_done = state.build_done.max(frame + 1)
            }
            FaultSite::Fragment | FaultSite::Merge => {}
        }
        self.try_seal(state, frame);
    }

    /// Seals a failed frame — publishes its `FrameOutcome::Failed` and
    /// advances the merged prefix — once none of its fragments are
    /// still unissued, in flight, or awaiting a retry. Draining every
    /// fragment to settlement before sealing keeps the fault-probe set
    /// (and thus the `FaultLog`) schedule-independent.
    fn try_seal(&self, state: &mut State, frame: usize) {
        let slot = &state.slots[frame];
        if slot.merged || slot.failed.is_none() {
            return;
        }
        let fragments_pending = slot.built.is_some()
            && (slot.issued < slot.outcomes.len()
                || slot.fragments_done + slot.fragments_exhausted < slot.outcomes.len());
        if fragments_pending {
            return;
        }
        let error = slot
            .failed
            .as_ref()
            .map(|(e, _)| e.clone())
            .expect("frame failed");
        state.slots[frame].merged = true;
        state.results[frame] = Some(FrameOutcome::Failed {
            index: frame,
            error,
        });
        while state.merged_prefix < self.frames && state.slots[state.merged_prefix].merged {
            state.merged_prefix += 1;
        }
    }

    /// Claims the next ready task, preferring downstream work on the
    /// oldest frame — this is the cross-stage steal: a worker with no
    /// render fragments left picks up the next build or update instead.
    fn claim(&self, state: &mut State) -> Option<Task> {
        self.release_slots(state);
        // 1. Merge: any built frame whose fragments all completed.
        //    Failed frames never merge — they seal via `try_seal`.
        for n in state.merged_prefix..state.build_done {
            let slot = &state.slots[n];
            if slot.merged || slot.merge_claimed || slot.failed.is_some() || slot.built.is_none() {
                continue;
            }
            if slot.fragments_done == slot.outcomes.len() {
                let slot = &mut state.slots[n];
                slot.merge_claimed = true;
                return Some(Task::Merge {
                    frame: n,
                    scene: slot.scene.clone().expect("updated frame has a scene"),
                    built: slot.built.clone().expect("built frame has a structure"),
                    launches: slot.launches.clone().expect("updated frame has launches"),
                    scene_changed: slot.scene_changed,
                    attempt: slot.merge_attempts,
                });
            }
        }
        // 2. Fragments: requeued retries first, then the oldest built
        //    frame with unissued fragments. Failed frames keep issuing
        //    so their probe set stays schedule-independent.
        for n in state.merged_prefix..state.build_done {
            let slot = &state.slots[n];
            if slot.built.is_none() {
                continue;
            }
            let has_retry = !slot.requeued.is_empty();
            if !has_retry && slot.issued >= slot.outcomes.len() {
                continue;
            }
            let slot = &mut state.slots[n];
            let fragment = if let Some(fragment) = slot.requeued.pop() {
                fragment
            } else {
                if slot.issued == 0 {
                    // How long the built structure waited before any
                    // render fragment picked it up.
                    let now = self.config.telemetry.now_us();
                    self.config.telemetry.record_value(
                        "pipeline.dwell.render_us",
                        now.saturating_sub(slot.t_build_done),
                    );
                }
                let fragment = slot.issued;
                slot.issued += 1;
                fragment
            };
            return Some(Task::Fragment {
                frame: n,
                fragment,
                scene: slot.scene.clone().expect("updated frame has a scene"),
                built: slot.built.clone().expect("built frame has a structure"),
                launches: slot.launches.clone().expect("updated frame has launches"),
                attempt: slot.fragment_attempts[fragment],
            });
        }
        // 3. Build: in frame order, one at a time, at most one frame
        //    ahead of the oldest unmerged frame (the structure being
        //    rendered plus one queued — the double-buffered handoff).
        while state.build_claimed == state.build_done
            && state.build_claimed < state.update_done
            && state.build_claimed - state.merged_prefix < 2
        {
            let n = state.build_claimed;
            if state.slots[n].failed.is_some() {
                // The frame failed at update (or an earlier build
                // attempt): skip its build so successors keep flowing.
                state.build_claimed = n + 1;
                state.build_done = n + 1;
                continue;
            }
            state.build_claimed += 1;
            let now = self.config.telemetry.now_us();
            // Queue dwell: update finished → build claimed. Handoff
            // depth: how far the build stage runs ahead of the oldest
            // unmerged frame when it claims (bounded at 2 by design).
            self.config.telemetry.record_value(
                "pipeline.dwell.build_us",
                now.saturating_sub(state.slots[n].t_update_done),
            );
            self.config.telemetry.record_value(
                "pipeline.handoff.build_depth",
                (n - state.merged_prefix) as u64,
            );
            // Spare pool capacity for the nested sharded build: every
            // worker not currently executing a task, plus the one this
            // build will block while its scoped builders run.
            let build_threads = (self.workers - self.workers.min(state.running)).max(1);
            let scene = state.slots[n]
                .scene
                .clone()
                .expect("updated frame has a scene");
            // An unchanged scene reuses the previous structure; if the
            // previous frame's build was quarantined the reuse source is
            // gone, so fall back to a fresh (bit-identical) build.
            let reuse = if state.slots[n].scene_changed {
                None
            } else if self.config.retry.quarantine {
                state.slots[n - 1].built.clone()
            } else {
                Some(
                    state.slots[n - 1]
                        .built
                        .clone()
                        .expect("previous frame built before an unchanged frame"),
                )
            };
            return Some(Task::Build {
                frame: n,
                scene,
                reuse,
                build_threads,
                attempt: state.slots[n].build_attempts,
            });
        }
        // 4. Update: in frame order, one at a time, within the depth
        //    cap and at most two frames ahead of completed builds.
        if state.update_claimed == state.update_done
            && state.update_claimed < self.frames
            && state.update_claimed - state.merged_prefix < self.depth
            && state.update_claimed - state.build_done < 3
        {
            // Handoff depth: how far the update stage runs ahead of
            // completed builds when it claims (bounded at 2 by design).
            self.config.telemetry.record_value(
                "pipeline.handoff.update_depth",
                (state.update_claimed - state.build_done) as u64,
            );
            let n = state.update_claimed;
            state.update_claimed += 1;
            state.slots[n].t_update_claim = self.config.telemetry.now_us();
            return Some(Task::Update(n));
        }
        None
    }

    /// Drops merged frames' slot data (scene, structure, launches) once
    /// no successor can still read it — `update(n + 1)` has completed
    /// (it resolves an unchanged scene from slot `n`) and `build(n + 1)`
    /// has been claimed (it copies the reuse structure at claim time) —
    /// so a long stream's working set stays bounded by the pipeline
    /// window instead of accumulating every frame's structure.
    fn release_slots(&self, state: &mut State) {
        while state.released_prefix < state.merged_prefix {
            let n = state.released_prefix;
            let successor_updated = n + 2 <= state.update_done || n + 1 >= self.frames;
            let successor_build_claimed = n + 2 <= state.build_claimed || n + 1 >= self.frames;
            if !(successor_updated && successor_build_claimed) {
                break;
            }
            let slot = &mut state.slots[n];
            slot.scene = None;
            slot.built = None;
            slot.launches = None;
            state.released_prefix += 1;
        }
    }

    /// Executes a task and publishes its result under the lock.
    fn execute(&self, task: Task) {
        match task {
            Task::Update(n) => {
                let spec = self.source.frame(n);
                assert!(spec.scene.is_some() || n > 0, "frame 0 must supply a scene");
                let launches: Vec<CameraLaunch> = spec
                    .cameras
                    .iter()
                    .map(|camera| {
                        self.engine
                            .plan_launch(camera, self.config.effects.as_ref())
                    })
                    .collect();
                let fragment_count = spec.cameras.len() * self.sms;
                let mut state = self.lock_state();
                let scene_changed = spec.scene.is_some();
                let scene = match spec.scene {
                    Some(scene) => scene,
                    None => {
                        assert!(n > 0, "frame 0 must supply a scene");
                        match state.slots[n - 1].scene.clone() {
                            Some(scene) => scene,
                            None if self.config.retry.quarantine => {
                                // The predecessor's update was
                                // quarantined, so this frame's scene is
                                // unreachable: fail it against the root
                                // of the dependency chain and move on.
                                let dependency = match &state.slots[n - 1].failed {
                                    Some((GrtxError::DependencyFailed { dependency, .. }, _)) => {
                                        *dependency
                                    }
                                    _ => (n - 1) as u64,
                                };
                                state.running -= 1;
                                self.fail_frame(
                                    &mut state,
                                    n,
                                    FaultSite::Update,
                                    usize::MAX,
                                    GrtxError::DependencyFailed {
                                        frame: n as u64,
                                        dependency,
                                    },
                                );
                                drop(state);
                                self.ready.notify_all();
                                return;
                            }
                            None => panic!("previous frame updated before this one"),
                        }
                    }
                };
                let slot = &mut state.slots[n];
                slot.cameras = spec.cameras;
                slot.scene = Some(scene);
                slot.scene_changed = scene_changed;
                slot.launches = Some(Arc::new(launches));
                slot.outcomes = (0..fragment_count).map(|_| None).collect();
                slot.fragment_attempts = vec![0; fragment_count];
                slot.t_update_done = self.config.telemetry.now_us();
                state.update_done = n + 1;
                state.running -= 1;
                drop(state);
                self.config
                    .telemetry
                    .counter_add("pipeline.tasks.update", 1);
                self.ready.notify_all();
            }
            Task::Build {
                frame,
                scene,
                reuse,
                build_threads,
                attempt,
            } => {
                // Probe before any side effect, so a retried attempt
                // replays no counters.
                let key = (frame as u64) << 32;
                self.config
                    .faults
                    .probe(FaultSite::Partition, key, 0, attempt);
                self.config.faults.probe(FaultSite::Build, key, 0, attempt);
                let telemetry = &self.config.telemetry;
                let built = match reuse {
                    Some(built) => {
                        telemetry.counter_add("pipeline.rebuild_skips", 1);
                        built
                    }
                    None => {
                        telemetry.counter_add("pipeline.rebuilds", 1);
                        Arc::new(build_structure(&scene, self.config, build_threads))
                    }
                };
                // Drop the task-held scene clone before publishing, so
                // "completed" implies "no task still pins the frame".
                drop(scene);
                let mut state = self.lock_state();
                state.running -= 1;
                state.slots[frame].built = Some(built);
                state.slots[frame].t_build_done = telemetry.now_us();
                state.build_done = frame + 1;
                drop(state);
                telemetry.counter_add("pipeline.tasks.build", 1);
                self.ready.notify_all();
            }
            Task::Fragment {
                frame,
                fragment,
                scene,
                built,
                launches,
                attempt,
            } => {
                let camera = fragment / self.sms;
                let sm = fragment % self.sms;
                self.config.faults.probe(
                    FaultSite::Fragment,
                    ((frame as u64) << 32) | camera as u64,
                    sm as u64,
                    attempt,
                );
                let outcome = self.engine.simulate_fragment(
                    &built.accel,
                    &scene,
                    &self.config.render,
                    &launches[camera],
                    sm,
                );
                // As in the build arm: release the task's Arc clones
                // before the completion publish.
                drop(scene);
                drop(built);
                drop(launches);
                let mut state = self.lock_state();
                state.running -= 1;
                let slot = &mut state.slots[frame];
                slot.outcomes[fragment] = Some(outcome);
                slot.fragments_done += 1;
                // The last settling fragment of a quarantined frame
                // seals it.
                if slot.failed.is_some() {
                    self.try_seal(&mut state, frame);
                }
                drop(state);
                self.config
                    .telemetry
                    .counter_add("pipeline.tasks.fragment", 1);
                self.ready.notify_all();
            }
            Task::Merge {
                frame,
                scene,
                built,
                launches,
                scene_changed,
                attempt,
            } => {
                // Probe first, take second: an injected merge fault
                // fires while the cameras and outcomes are still in the
                // slot, so the retry re-runs against intact inputs. A
                // foreign panic after the take is non-retryable
                // (`merge_inputs_taken`).
                self.config
                    .faults
                    .probe(FaultSite::Merge, (frame as u64) << 32, 0, attempt);
                let (cameras, mut outcomes) = {
                    let mut state = self.lock_state();
                    let slot = &mut state.slots[frame];
                    slot.merge_inputs_taken = true;
                    (
                        std::mem::take(&mut slot.cameras),
                        std::mem::take(&mut slot.outcomes),
                    )
                };
                let reports: Vec<RenderReport> = cameras
                    .iter()
                    .enumerate()
                    .map(|(cam, camera)| {
                        let sm_outcomes: Vec<SmOutcome> = outcomes
                            [cam * self.sms..(cam + 1) * self.sms]
                            .iter_mut()
                            .map(|o| o.take().expect("every fragment completed before merge"))
                            .collect();
                        self.engine.merge_launch_keyed(
                            ((frame as u64) << 32) | cam as u64,
                            &launches[cam],
                            camera,
                            &self.config.render,
                            sm_outcomes,
                        )
                    })
                    .collect();
                let result = FrameResult {
                    index: frame,
                    gaussians: scene.len(),
                    rebuilt: scene_changed,
                    reports,
                    size: built.size,
                    height: built.height,
                    sharding: built.sharding.clone(),
                };
                // As in the build arm: release the task's Arc clones
                // before the completion publish.
                drop(scene);
                drop(built);
                drop(launches);
                let telemetry = &self.config.telemetry;
                let mut state = self.lock_state();
                state.running -= 1;
                state.results[frame] = Some(FrameOutcome::Rendered(result));
                state.slots[frame].merged = true;
                telemetry.record_value(
                    "pipeline.frame_latency_us",
                    telemetry
                        .now_us()
                        .saturating_sub(state.slots[frame].t_update_claim),
                );
                while state.merged_prefix < self.frames && state.slots[state.merged_prefix].merged {
                    state.merged_prefix += 1;
                }
                drop(state);
                telemetry.counter_add("pipeline.tasks.merge", 1);
                telemetry.counter_add("pipeline.frames", 1);
                self.ready.notify_all();
            }
        }
    }
}
