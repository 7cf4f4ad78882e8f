//! The frame-stream executor: frames run one at a time, in order, with
//! the parallelism inside each frame's build and render.
//!
//! # Steps
//!
//! ```text
//!  FrameSource ──► update ──► build ──► fragments ──► merge ──► FrameOutcome
//!                 (frame n)  (frame n) (cameras × SMs) (frame n)
//! ```
//!
//! For each frame, in order:
//!
//! 1. **update** produces the frame's scene and cameras from the
//!    [`FrameSource`], validates them, and plans the raygen launches
//!    ([`RenderEngine::plan_launch`] — pure, scene-independent);
//! 2. **build** constructs the frame's acceleration structure — sharded
//!    in parallel on all [`StreamConfig::threads`] through the
//!    `grtx-shard` builder when [`StreamConfig::shards`] > 0 — or, when
//!    the source reports the scene unchanged, reuses the previous frame's
//!    structure without rebuilding;
//! 3. **fragments** fans the frame's `cameras × SMs` closed fragments
//!    ([`RenderEngine::simulate_fragment`]) out over one
//!    `std::thread::scope` pool;
//! 4. **merge** folds them per camera in fixed `(camera, SM)` order
//!    ([`RenderEngine::merge_launch_keyed`]).
//!
//! Between frames the executor keeps only what the next frame may reuse:
//! the current scene and structure. A fresh scene drops both before its
//! own build, so a long stream holds at most one structure at a time.
//!
//! # Failure handling
//!
//! Every step runs through one `catch_unwind` choke point that retries
//! a panicking step per [`StreamConfig::retry`], quarantines its frame
//! once the attempts run out (under a quarantining policy), or re-raises
//! the original payload on the caller (under the default policy).
//!
//! # Determinism
//!
//! Every step is a pure function of its frame's inputs and fragments
//! merge in the engine's fixed `(camera, SM)` order, so images, cycles,
//! and every statistic are **bit-identical** to building each frame's
//! structure and calling `RenderEngine::try_render_batch` on it, at any
//! thread and shard count. Only wall-clock time changes. Build timings
//! inside [`ShardingSummary`] are wall-clock measurements and are exempt.

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
use grtx_telemetry::{SpanRecorder, Telemetry};
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Everything the pipeline needs to turn a [`FrameSource`] into frames:
/// the acceleration-structure recipe, the render configuration, and the
/// parallelism (threads, shards).
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Worker threads for each frame's sharded build and fragment pool
    /// (`0` = all available cores). Thread count never changes results,
    /// only wall-clock time.
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
    /// an enabled one collects per-worker step spans, the frame-latency
    /// histogram, and step counters — without changing any frame result.
    pub telemetry: Telemetry,
    /// Simulated-cycle profiler handle. The default (disabled) handle
    /// records nothing; an enabled one collects per-(launch, SM)
    /// hardware counters and warp timelines on the virtual clock, keyed
    /// `(frame << 32) | camera` — byte-identical at every thread and
    /// shard count, and invisible in every frame result.
    pub profiler: Profiler,
    /// Fault-injection handle. The default (disabled) handle never
    /// fires; an enabled one panics steps per its seeded
    /// [`grtx_fault::FaultPlan`], keyed by the same
    /// `(frame << 32) | camera` launch keys the profiler uses — so
    /// injection is schedule-independent and the recovered stream is
    /// bit-identical to a fault-free run.
    pub faults: FaultInjector,
    /// How the pipeline responds to a panicking step. Under the default
    /// (one attempt, no quarantine) the first panic re-raises its
    /// original payload on the caller. A [`RetryPolicy::resilient`]
    /// policy retries deterministically and quarantines frames that
    /// exhaust their attempts as [`FrameOutcome::Failed`] while later
    /// frames keep flowing.
    pub retry: RetryPolicy,
}

impl Default for StreamConfig {
    /// GRTX-SW structure (TLAS + shared 20-triangle BLAS), default
    /// render/GPU configuration, on all cores.
    fn default() -> Self {
        Self {
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

/// One rendered frame, in frame order, with everything a standalone
/// build and batch render of the frame would have produced.
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
    /// build-phase timings are wall-clock measurements and are exempt
    /// from the determinism contract.
    pub sharding: Option<ShardingSummary>,
}

/// One frame's outcome: rendered, or failed — on invalid input under
/// any [`RetryPolicy`], or after exhausting its retries under a
/// quarantining one — in frame order either way.
#[derive(Debug, Clone)]
pub enum FrameOutcome {
    /// The frame rendered completely; bit-identical to a fault-free
    /// run of the same stream.
    Rendered(FrameResult),
    /// The frame had an invalid camera or scene, or exhausted its
    /// retries (or depended on a frame that did either), and was
    /// quarantined; later frames keep flowing.
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

    /// Whether the frame failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, FrameOutcome::Failed { .. })
    }

    /// The frame's error, if it failed.
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

/// A built acceleration structure plus its sharding accounting.
struct Built {
    accel: AccelStruct,
    sharding: Option<ShardingSummary>,
}

/// Builds a frame's structure per the config — sharded in parallel on
/// all of `threads` when `shards` > 0.
fn build_structure(scene: &GaussianScene, config: &StreamConfig) -> Built {
    if config.shards > 0 {
        let sharded = ShardedAccel::build_traced(
            scene,
            config.primitive,
            config.two_level,
            &config.layout,
            config.shards,
            config.threads,
            &config.telemetry,
        );
        let sharding = Some(sharded.summary());
        Built {
            accel: sharded.into_accel(),
            sharding,
        }
    } else {
        Built {
            accel: AccelStruct::build(scene, config.primitive, config.two_level, &config.layout),
            sharding: None,
        }
    }
}

/// Runs `frames` frames of `source` through the pipeline, one at a time
/// and in order, returning per-frame [`FrameOutcome`]s in frame order.
///
/// Every rendered frame's images, cycles, and statistics are
/// **bit-identical** to building and batch-rendering each frame on its
/// own — at any [`StreamConfig::threads`] and [`StreamConfig::shards`].
///
/// The configuration is validated up front: degenerate GPU shapes, an
/// out-of-range k-buffer capacity, or a primitive the organization
/// cannot build return [`GrtxError::InvalidConfig`].
///
/// The update step validates each frame's cameras and fresh scene: a
/// frame with an invalid camera ([`GrtxError::InvalidCamera`]), an
/// invalid scene, or no scene at frame 0 ([`GrtxError::InvalidScene`])
/// comes back [`FrameOutcome::Failed`] under every [`RetryPolicy`], and
/// later frames that reuse its scene fail with
/// [`GrtxError::DependencyFailed`]. Under a quarantining policy, frames
/// whose steps exhaust their attempts fail the same way while later
/// frames keep rendering; recovered transient-fault runs are
/// bit-identical to fault-free runs at any thread and shard count.
///
/// # Panics
///
/// Under the default non-quarantining policy, a step panic that
/// exhausts [`RetryPolicy::max_attempts`] re-raises the original payload
/// on the caller.
pub fn try_run_stream(
    source: &dyn FrameSource,
    frames: usize,
    config: &StreamConfig,
) -> Result<Vec<FrameOutcome>, GrtxError> {
    grtx_render::validate_gpu(&config.gpu)?;
    grtx_render::validate_render(&config.render)?;
    grtx_render::validate_structure(config.primitive, config.two_level)?;
    let engine = RenderEngine::new(config.gpu.clone())
        .with_threads(config.threads)
        .with_telemetry(config.telemetry.clone())
        .with_profiler(config.profiler.clone());
    let pipeline = Pipeline {
        source,
        config,
        sms: engine.fragments_per_launch(),
        engine,
        poisoned: AtomicBool::new(false),
    };
    // The calling thread runs every update, build, and merge, and is
    // worker 0 of each frame's fragment pool.
    let mut recorder = config.telemetry.recorder("pipeline-worker-00");
    let mut carry = Carry {
        scene: Err(0),
        built: None,
    };
    Ok((0..frames)
        .map(|n| pipeline.frame(n, &mut carry, &mut recorder))
        .collect())
}

/// Builds the `StageFailed` error for an exhausted step. Injected
/// payloads attribute to their true site (a build step probes both the
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

/// The profiler and fault-probe key of frame `frame`, camera `camera`.
fn launch_key(frame: usize, camera: usize) -> u64 {
    ((frame as u64) << 32) | camera as u64
}

/// What one frame leaves for the next.
struct Carry {
    /// The last frame's resolved scene, or — when its update failed —
    /// the root frame of the failure chain an unchanged successor
    /// inherits as [`GrtxError::DependencyFailed`].
    scene: Result<Arc<GaussianScene>, u64>,
    /// The last built structure, while an unchanged successor may still
    /// reuse it (`None` after a quarantined build, so the successor
    /// rebuilds fresh).
    built: Option<Built>,
}

/// A frame after its update step.
struct Update {
    cameras: Vec<Camera>,
    scene_changed: bool,
    launches: Vec<CameraLaunch>,
}

struct Pipeline<'a> {
    source: &'a dyn FrameSource,
    config: &'a StreamConfig,
    engine: RenderEngine,
    sms: usize,
    /// A step re-raised its panic; fragment workers stop claiming.
    poisoned: AtomicBool,
}

impl Pipeline<'_> {
    /// Runs frame `n` through update, build, fragments, and merge.
    fn frame(&self, n: usize, carry: &mut Carry, recorder: &mut SpanRecorder) -> FrameOutcome {
        let telemetry = &self.config.telemetry;
        let start_us = telemetry.now_us();
        let update = self
            .step(
                recorder,
                "pipeline.update",
                FaultSite::Update,
                n,
                || true,
                |_| self.update(n, carry),
            )
            .and_then(|update| update);
        let Update {
            cameras,
            scene_changed,
            launches,
        } = match update {
            Ok(update) => update,
            Err(error) => {
                carry.scene = Err(match error {
                    GrtxError::DependencyFailed { dependency, .. } => dependency,
                    _ => n as u64,
                });
                carry.built = None;
                return self.failed(n, error);
            }
        };
        telemetry.counter_add("pipeline.tasks.update", 1);
        let scene = carry.scene.clone().expect("an updated frame has a scene");

        // An unchanged scene reuses the previous structure; if that
        // build was quarantined, the frame rebuilds fresh (bit-identical).
        let reuse = !scene_changed && carry.built.is_some();
        let span = if reuse {
            "pipeline.build_reuse"
        } else {
            "pipeline.build"
        };
        let built = self.step(
            recorder,
            span,
            FaultSite::Build,
            n,
            || true,
            |attempt| {
                // Probe before any side effect, so a retried attempt replays
                // no counters.
                let key = launch_key(n, 0);
                self.config
                    .faults
                    .probe(FaultSite::Partition, key, 0, attempt);
                self.config.faults.probe(FaultSite::Build, key, 0, attempt);
                if reuse {
                    telemetry.counter_add("pipeline.rebuild_skips", 1);
                    None
                } else {
                    telemetry.counter_add("pipeline.rebuilds", 1);
                    Some(build_structure(&scene, self.config))
                }
            },
        );
        match built {
            Ok(Some(built)) => carry.built = Some(built),
            Ok(None) => {}
            Err(error) => {
                carry.built = None;
                return self.failed(n, error);
            }
        }
        telemetry.counter_add("pipeline.tasks.build", 1);
        let built = carry.built.as_ref().expect("a built frame has a structure");

        // Every fragment settles, even after a sibling is quarantined,
        // so the probe set stays schedule-independent; the lowest
        // failing fragment's error wins.
        let outcomes = match self
            .fragments(n, &scene, built, &launches, recorder)
            .into_iter()
            .collect::<Result<Vec<SmOutcome>, GrtxError>>()
        {
            Ok(outcomes) => outcomes,
            Err(error) => return self.failed(n, error),
        };

        // Probe first, take second: an injected merge fault fires while
        // the outcomes are intact, so the retry re-runs against them. A
        // foreign panic after the take cannot retry.
        let taken = Cell::new(false);
        let mut outcomes = Some(outcomes);
        let reports = self.step(
            recorder,
            "pipeline.merge",
            FaultSite::Merge,
            n,
            || !taken.get(),
            |attempt| {
                self.config
                    .faults
                    .probe(FaultSite::Merge, launch_key(n, 0), 0, attempt);
                taken.set(true);
                let mut outcomes = outcomes.take().expect("merge inputs").into_iter();
                cameras
                    .iter()
                    .zip(&launches)
                    .enumerate()
                    .map(|(cam, (camera, launch))| {
                        self.engine.merge_launch_keyed(
                            launch_key(n, cam),
                            launch,
                            camera,
                            &self.config.render,
                            outcomes.by_ref().take(self.sms).collect(),
                        )
                    })
                    .collect::<Vec<RenderReport>>()
            },
        );
        let reports = match reports {
            Ok(reports) => reports,
            Err(error) => return self.failed(n, error),
        };
        telemetry.counter_add("pipeline.tasks.merge", 1);
        telemetry.counter_add("pipeline.frames", 1);
        telemetry.record_value(
            "pipeline.frame_latency_us",
            telemetry.now_us().saturating_sub(start_us),
        );
        FrameOutcome::Rendered(FrameResult {
            index: n,
            gaussians: scene.len(),
            rebuilt: scene_changed,
            reports,
            size: *built.accel.size_report(),
            height: built.accel.height(),
            sharding: built.sharding.clone(),
        })
    }

    /// Produces frame `n` from the source, validates it, resolves its
    /// scene against `carry`, and plans its launches. An invalid frame
    /// fails here, under every retry policy, and never reaches the
    /// engine.
    fn update(&self, n: usize, carry: &mut Carry) -> Result<Update, GrtxError> {
        let spec = self.source.frame(n);
        spec.cameras
            .iter()
            .try_for_each(grtx_render::validate_camera)?;
        let scene_changed = spec.scene.is_some();
        match spec.scene {
            Some(scene) => {
                scene.validate()?;
                // A fresh scene never reuses: release the previous
                // structure before this frame builds its own.
                carry.scene = Ok(scene);
                carry.built = None;
            }
            None if n == 0 => {
                return Err(GrtxError::InvalidScene {
                    index: None,
                    reason: "frame 0 must supply a scene".to_string(),
                })
            }
            None => {
                if let Err(dependency) = carry.scene {
                    return Err(GrtxError::DependencyFailed {
                        frame: n as u64,
                        dependency,
                    });
                }
            }
        }
        let launches = spec
            .cameras
            .iter()
            .map(|camera| {
                self.engine
                    .plan_launch(camera, self.config.effects.as_ref())
            })
            .collect();
        Ok(Update {
            cameras: spec.cameras,
            scene_changed,
            launches,
        })
    }

    /// Simulates frame `n`'s `cameras × SMs` fragments (camera-major)
    /// over one scoped pool: the calling thread is worker 0, and workers
    /// claim fragments from a shared counter. Returns one outcome per
    /// fragment, in fragment order.
    fn fragments(
        &self,
        n: usize,
        scene: &GaussianScene,
        built: &Built,
        launches: &[CameraLaunch],
        recorder: &mut SpanRecorder,
    ) -> Vec<Result<SmOutcome, GrtxError>> {
        let count = launches.len() * self.sms;
        let next = AtomicUsize::new(0);
        let work = |recorder: &mut SpanRecorder| {
            let mut done = Vec::new();
            loop {
                let fragment = next.fetch_add(1, Ordering::Relaxed);
                if fragment >= count || self.poisoned.load(Ordering::Relaxed) {
                    return done;
                }
                let (camera, sm) = (fragment / self.sms, fragment % self.sms);
                let outcome = self.step(
                    recorder,
                    "pipeline.fragment",
                    FaultSite::Fragment,
                    n,
                    || true,
                    |attempt| {
                        self.config.faults.probe(
                            FaultSite::Fragment,
                            launch_key(n, camera),
                            sm as u64,
                            attempt,
                        );
                        self.engine.simulate_fragment(
                            &built.accel,
                            scene,
                            &self.config.render,
                            &launches[camera],
                            sm,
                        )
                    },
                );
                if outcome.is_ok() {
                    self.config
                        .telemetry
                        .counter_add("pipeline.tasks.fragment", 1);
                }
                done.push((fragment, outcome));
            }
        };
        let workers = self.engine.effective_threads_for(launches.len()).min(count);
        let mut settled = std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = (1..workers)
                .map(|worker| {
                    scope.spawn(move || {
                        work(
                            &mut self
                                .config
                                .telemetry
                                .recorder(format!("pipeline-worker-{worker:02}")),
                        )
                    })
                })
                .collect();
            let mut settled = work(recorder);
            for handle in handles {
                // Re-raise a worker's panic with its original payload.
                settled.extend(
                    handle
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
                );
            }
            settled
        });
        settled.sort_unstable_by_key(|&(fragment, _)| fragment);
        settled.into_iter().map(|(_, outcome)| outcome).collect()
    }

    /// Runs one step through the `catch_unwind` choke point, under a
    /// `span` keyed by `frame`. `body` gets the 0-based attempt number
    /// for its fault probes. A panic is retried (while `retryable` holds
    /// and attempts remain), quarantined as [`GrtxError::StageFailed`]
    /// under a quarantining policy, or — under the default policy —
    /// re-raised with its original payload after poisoning the pool.
    fn step<T>(
        &self,
        recorder: &mut SpanRecorder,
        span: &'static str,
        stage: FaultSite,
        frame: usize,
        retryable: impl Fn() -> bool,
        mut body: impl FnMut(u32) -> T,
    ) -> Result<T, GrtxError> {
        let telemetry = &self.config.telemetry;
        let policy = self.config.retry;
        let mut attempt = 0;
        loop {
            let payload = match recorder.scope(span, frame as u64, |_| {
                std::panic::catch_unwind(AssertUnwindSafe(|| body(attempt)))
            }) {
                Ok(value) => return Ok(value),
                Err(payload) => payload,
            };
            attempt += 1;
            if payload.downcast_ref::<InjectedFault>().is_some() {
                telemetry.counter_add("fault.injected", 1);
            }
            if retryable() && attempt < policy.attempts() {
                telemetry.counter_add("fault.retries", 1);
                recorder.scope("pipeline.retry", frame as u64, |_| ());
                continue;
            }
            if policy.quarantine {
                return Err(stage_failed(stage, frame, attempt, payload.as_ref()));
            }
            self.poisoned.store(true, Ordering::Relaxed);
            std::panic::resume_unwind(payload);
        }
    }

    /// Quarantines frame `n` with `error`.
    fn failed(&self, n: usize, error: GrtxError) -> FrameOutcome {
        self.config.telemetry.counter_add("fault.frames_failed", 1);
        FrameOutcome::Failed { index: n, error }
    }
}
