//! The experiment layer: named pipeline variants and scene setups that
//! map one-to-one onto the paper's figures.

use grtx_bvh::{AccelStruct, BoundingPrimitive, BvhSizeReport, LayoutConfig};
use grtx_fault::{FaultInjector, GrtxError, RetryPolicy};
use grtx_pipeline::{FrameSource, JitterSource, OrbitSource, StreamConfig};
use grtx_prof::Profiler;
use grtx_render::engine::RenderEngine;
use grtx_render::renderer::{RenderConfig, RenderReport};
use grtx_render::tracer::{KBufferStorage, TraceMode, TraceParams};
use grtx_scene::profile::DEFAULT_SCALE_DIVISOR;
use grtx_scene::synth::generate_scene;
use grtx_scene::{Camera, EffectObjects, GaussianScene, SceneKind, SceneProfile};
use grtx_shard::{ShardedAccel, ShardingSummary};
use grtx_sim::GpuConfig;
use grtx_telemetry::Telemetry;

/// One named acceleration/hardware configuration from the paper's
/// evaluation (Figs. 12, 13, 22, 24).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineVariant {
    /// Display name used in experiment tables.
    pub name: &'static str,
    /// Bounding proxy for Gaussians.
    pub primitive: BoundingPrimitive,
    /// Two-level (TLAS + shared BLAS) vs monolithic organization.
    pub two_level: bool,
    /// GRTX-HW traversal checkpointing + eviction buffer.
    pub checkpointing: bool,
}

impl PipelineVariant {
    /// 3DGRT baseline: monolithic BVH over stretched icosahedra.
    pub fn baseline() -> Self {
        Self {
            name: "Baseline",
            primitive: BoundingPrimitive::Mesh20,
            two_level: false,
            checkpointing: false,
        }
    }

    /// Condor et al. baseline: monolithic BVH over 80-triangle icospheres.
    pub fn baseline_80() -> Self {
        Self {
            name: "80-tri",
            primitive: BoundingPrimitive::Mesh80,
            two_level: false,
            checkpointing: false,
        }
    }

    /// EVER/RayGauss-style custom primitive: one software ellipsoid per
    /// Gaussian (Fig. 5).
    pub fn custom_primitive() -> Self {
        Self {
            name: "Custom Gaussian",
            primitive: BoundingPrimitive::CustomEllipsoid,
            two_level: false,
            checkpointing: false,
        }
    }

    /// GRTX-SW: TLAS + shared 20-triangle BLAS.
    pub fn grtx_sw() -> Self {
        Self {
            name: "GRTX-SW",
            primitive: BoundingPrimitive::Mesh20,
            two_level: true,
            checkpointing: false,
        }
    }

    /// GRTX-SW with the 80-triangle shared BLAS (Fig. 12 "TLAS+80-tri").
    pub fn grtx_sw_80() -> Self {
        Self {
            name: "TLAS+80-tri",
            primitive: BoundingPrimitive::Mesh80,
            two_level: true,
            checkpointing: false,
        }
    }

    /// GRTX-SW with the hardware sphere primitive (Fig. 22).
    pub fn grtx_sw_sphere() -> Self {
        Self {
            name: "TLAS+sphere",
            primitive: BoundingPrimitive::UnitSphere,
            two_level: true,
            checkpointing: false,
        }
    }

    /// GRTX-HW: baseline structure plus traversal checkpointing only.
    pub fn grtx_hw() -> Self {
        Self {
            name: "GRTX-HW",
            primitive: BoundingPrimitive::Mesh20,
            two_level: false,
            checkpointing: true,
        }
    }

    /// Full GRTX: shared-BLAS structure plus checkpointing.
    pub fn grtx() -> Self {
        Self {
            name: "GRTX",
            primitive: BoundingPrimitive::Mesh20,
            two_level: true,
            checkpointing: true,
        }
    }

    /// The four-variant lineup of Fig. 13.
    pub fn fig13_lineup() -> [Self; 4] {
        [
            Self::baseline(),
            Self::grtx_sw(),
            Self::grtx_hw(),
            Self::grtx(),
        ]
    }
}

/// Per-run knobs shared by all experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// k-buffer capacity.
    pub k: usize,
    /// Use single-round tracing instead of multi-round (Fig. 6a).
    pub single_round: bool,
    /// GPU configuration (Table I by default; `GpuConfig::amd_like()`
    /// for Fig. 24).
    pub gpu: GpuConfig,
    /// Structure byte layout (NVIDIA-like default, `LayoutConfig::amd()`
    /// for Fig. 24). Applied at build time via [`SceneSetup::try_run`].
    pub layout_amd: bool,
    /// Charge any-hit sorting cycles (Fig. 4b isolation).
    pub charge_sorting: bool,
    /// Charge blending cycles (Fig. 4b isolation).
    pub charge_blending: bool,
    /// k-buffer storage discipline (Fig. 21).
    pub storage: KBufferStorage,
    /// Add the glass sphere + mirror objects and trace secondary rays
    /// (Fig. 23); the value is the placement seed.
    pub effects_seed: Option<u64>,
    /// Host worker threads for the render engine (`0` = all available
    /// cores, capped at the parallel work available: simulated SMs ×
    /// cameras in the launch). Thread count never changes results —
    /// images, cycles, and statistics are bit-identical at any value —
    /// only wall-clock time.
    pub threads: usize,
    /// Scene shards for the acceleration-structure build (`0` = the
    /// serial unsharded build). With `k > 0`, the structure is built as
    /// `k` spatial shards in parallel (on [`RunOptions::threads`]
    /// workers) and the result carries per-shard accounting in
    /// [`ExperimentResult::sharding`]. Shard count never changes results
    /// — images, cycles, and statistics are bit-identical to the
    /// unsharded path at any value — only build wall-clock time.
    pub shards: usize,
    /// Telemetry handle threaded through every layer the run touches
    /// (sharded build, render engine, frame pipeline). The default
    /// (disabled) handle records nothing and costs one branch per
    /// event; an enabled one collects spans, counters, and histograms
    /// without changing any result — images, cycles, and statistics
    /// stay bit-identical with telemetry on or off.
    pub telemetry: Telemetry,
    /// Simulated-cycle profiler handle threaded through the render
    /// engine and frame pipeline. The default (disabled) handle records
    /// nothing and costs one branch per hook; an enabled one collects
    /// per-(launch, SM) hardware counters, warp timelines, and occupancy
    /// series on the simulated clock — bit-identical at any thread,
    /// shard, or pipeline-depth setting, and without changing any
    /// result. Export via [`Profiler::report`] /
    /// [`Profiler::chrome_trace`] or the `GRTX_PROFILE` helpers in
    /// [`crate::profile`].
    pub profiler: Profiler,
    /// Deterministic fault-injection handle threaded through the frame
    /// pipeline ([`Self::retry`] decides what happens when a fault
    /// fires). The default (disabled) handle injects nothing and costs
    /// one branch per probe; zero-fault runs are bit-identical with the
    /// handle on or off.
    pub faults: FaultInjector,
    /// Stage-failure policy for frame streams: how many attempts each
    /// stage task gets and whether exhausted frames quarantine to
    /// [`StreamFrame::Failed`] instead of poisoning the run. The default
    /// preserves the legacy panic-through behavior exactly.
    pub retry: RetryPolicy,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            k: 16,
            single_round: false,
            gpu: GpuConfig::default(),
            layout_amd: false,
            charge_sorting: true,
            charge_blending: true,
            storage: KBufferStorage::GlobalSoA,
            effects_seed: None,
            threads: 0,
            shards: 0,
            telemetry: Telemetry::disabled(),
            profiler: Profiler::disabled(),
            faults: FaultInjector::disabled(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Everything an experiment row needs from one run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The simulated render report (time, caches, fetches, image).
    pub report: RenderReport,
    /// Acceleration-structure byte accounting at the generated scale.
    pub size: BvhSizeReport,
    /// Structure height.
    pub height: u32,
    /// Factor to extrapolate sizes to paper scale
    /// (`full_gaussian_count / generated count`).
    pub scale_factor: f64,
    /// Sharded-build metadata when [`RunOptions::shards`] > 0: per-shard
    /// and directory accounting plus build-phase timings. `None` for the
    /// serial unsharded build.
    pub sharding: Option<ShardingSummary>,
}

/// One frame of a [`SceneSetup::try_run_stream`] frame stream, in frame
/// order. Frames with an invalid camera or scene come back
/// [`StreamFrame::Failed`] under every [`RunOptions::retry`] policy; a
/// quarantining policy also surfaces frames whose stage tasks exhausted
/// their attempts that way — in order, while later frames keep
/// rendering.
#[derive(Debug, Clone)]
pub enum StreamFrame {
    /// The frame rendered: its per-view experiment rows plus stream
    /// metadata.
    Rendered {
        /// Frame index in the stream.
        index: usize,
        /// Whether this frame rebuilt the acceleration structure
        /// (`false` when the frame source reported the scene unchanged
        /// and the previous frame's structure was reused).
        rebuilt: bool,
        /// One result per camera, in view order — each bit-identical to
        /// the corresponding [`SceneSetup::try_run_batch`] row for that
        /// frame.
        results: Vec<ExperimentResult>,
    },
    /// The frame had invalid input, exhausted its retry budget, or
    /// depended on a frame that did.
    Failed {
        /// Frame index in the stream.
        index: usize,
        /// Why the frame failed.
        error: GrtxError,
    },
}

impl StreamFrame {
    /// Frame index in the stream (results arrive in frame order).
    pub fn index(&self) -> usize {
        match self {
            Self::Rendered { index, .. } | Self::Failed { index, .. } => *index,
        }
    }

    /// Whether this frame rebuilt the acceleration structure. Failed
    /// frames report `false`.
    pub fn rebuilt(&self) -> bool {
        match self {
            Self::Rendered { rebuilt, .. } => *rebuilt,
            Self::Failed { .. } => false,
        }
    }

    /// The frame's per-view experiment rows (empty for failed frames).
    pub fn results(&self) -> &[ExperimentResult] {
        match self {
            Self::Rendered { results, .. } => results,
            Self::Failed { .. } => &[],
        }
    }

    /// Whether the frame was quarantined.
    pub fn is_failed(&self) -> bool {
        matches!(self, Self::Failed { .. })
    }

    /// The failure, when the frame was quarantined.
    pub fn error(&self) -> Option<&GrtxError> {
        match self {
            Self::Rendered { .. } => None,
            Self::Failed { error, .. } => Some(error),
        }
    }
}

/// A generated scene plus its evaluation camera, reused across variants.
#[derive(Debug)]
pub struct SceneSetup {
    /// Which paper scene this mimics.
    pub kind: SceneKind,
    /// The profile the scene was generated from.
    pub profile: SceneProfile,
    /// The synthetic Gaussians.
    pub scene: GaussianScene,
    /// The evaluation camera.
    pub camera: Camera,
    /// Scene-scale divisor used for cache scaling.
    pub divisor: usize,
}

impl SceneSetup {
    /// Builds the paper's evaluation setup for a scene: Gaussian count
    /// scaled down by `divisor`, rendered at `resolution`² with the
    /// original FoV (Section V-A renders at 128×128 preserving FoV).
    pub fn evaluation(kind: SceneKind, divisor: usize, resolution: u32, seed: u64) -> Self {
        let base = kind.profile();
        let budget = (base.full_gaussian_count / divisor.max(1)).max(1);
        let profile = base
            .with_gaussian_budget(budget)
            .with_resolution(resolution, resolution);
        Self::from_profile(kind, profile, divisor, seed)
    }

    /// Builds a setup from an explicit profile (custom resolutions/FoVs,
    /// Fig. 19).
    pub fn from_profile(kind: SceneKind, profile: SceneProfile, divisor: usize, seed: u64) -> Self {
        let scene = generate_scene(profile.clone(), seed);
        let camera = Camera::for_profile(&profile);
        Self {
            kind,
            profile,
            scene,
            camera,
            divisor,
        }
    }

    /// The default evaluation scale divisor, overridable with the
    /// `GRTX_SCALE` environment variable (benches use this to trade
    /// fidelity for wall-clock time).
    pub fn env_divisor() -> usize {
        std::env::var("GRTX_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_SCALE_DIVISOR * 2)
    }

    /// Default evaluation resolution, overridable with `GRTX_RES`.
    pub fn env_resolution() -> u32 {
        std::env::var("GRTX_RES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(96)
    }

    /// Builds the acceleration structure for a variant.
    pub fn build_accel(&self, variant: &PipelineVariant, layout: &LayoutConfig) -> AccelStruct {
        AccelStruct::build(&self.scene, variant.primitive, variant.two_level, layout)
    }

    /// Builds the variant's structure as `shards` spatial shards in
    /// parallel on `threads` workers (`0` = all cores). The result is
    /// bit-identical to [`Self::build_accel`] and additionally carries
    /// per-shard/directory accounting.
    pub fn build_sharded_accel(
        &self,
        variant: &PipelineVariant,
        layout: &LayoutConfig,
        shards: usize,
        threads: usize,
    ) -> ShardedAccel {
        ShardedAccel::build(
            &self.scene,
            variant.primitive,
            variant.two_level,
            layout,
            shards,
            threads,
        )
    }

    /// [`Self::build_sharded_accel`] with telemetry: build-phase spans
    /// and the summary's wall-clock fields route through the handle (see
    /// [`ShardedAccel::build_traced`]). The structure itself is
    /// bit-identical either way.
    pub fn build_sharded_accel_traced(
        &self,
        variant: &PipelineVariant,
        layout: &LayoutConfig,
        shards: usize,
        threads: usize,
        telemetry: &Telemetry,
    ) -> ShardedAccel {
        ShardedAccel::build_traced(
            &self.scene,
            variant.primitive,
            variant.two_level,
            layout,
            shards,
            threads,
            telemetry,
        )
    }

    /// The variant/options-prescribed acceleration-structure layout.
    fn layout(options: &RunOptions) -> LayoutConfig {
        if options.layout_amd {
            LayoutConfig::amd()
        } else {
            LayoutConfig::default()
        }
    }

    /// The variant/options-prescribed render configuration.
    fn render_config(variant: &PipelineVariant, options: &RunOptions) -> RenderConfig {
        let mode = if options.single_round {
            TraceMode::SingleRound
        } else if variant.checkpointing {
            TraceMode::MultiRoundCheckpoint
        } else {
            TraceMode::MultiRoundRestart
        };
        RenderConfig {
            params: TraceParams {
                k: options.k,
                mode,
                storage: options.storage,
                ..Default::default()
            },
            charge_sorting: options.charge_sorting,
            charge_blending: options.charge_blending,
            ..Default::default()
        }
    }

    /// The options-prescribed effect objects, if any.
    fn effects(&self, options: &RunOptions) -> Option<EffectObjects> {
        options
            .effects_seed
            .map(|s| EffectObjects::place_in(self.profile.half_extent, s))
    }

    /// Wraps a render report into a per-view experiment row.
    fn result_for(&self, accel: &AccelStruct, report: RenderReport) -> ExperimentResult {
        ExperimentResult {
            report,
            size: *accel.size_report(),
            height: accel.height(),
            scale_factor: self.profile.full_gaussian_count as f64 / self.scene.len().max(1) as f64,
            sharding: None,
        }
    }

    /// Cameras for a deterministic `views`-view sweep of this scene:
    /// view 0 is the profile's evaluation camera; the remaining views
    /// orbit the eye around the vertical axis at the same radius and
    /// height, all looking at the scene center ([`Camera::orbit`] at
    /// phase 0 — the same rig the frame pipeline's orbit streams use).
    pub fn orbit_cameras(&self, views: usize) -> Vec<Camera> {
        self.camera.orbit(views, 0.0)
    }

    /// Validates the inputs a run of `(variant, options, cameras)` would
    /// consume: the GPU shape, the render configuration, the
    /// primitive/organization pair, every camera, and the scene
    /// (non-finite Gaussian parameters would otherwise corrupt bounds
    /// silently).
    fn validate_run(
        &self,
        variant: &PipelineVariant,
        options: &RunOptions,
        cameras: &[Camera],
    ) -> Result<(), GrtxError> {
        grtx_render::validate_gpu(&options.gpu)?;
        grtx_render::validate_render(&Self::render_config(variant, options))?;
        grtx_render::validate_structure(variant.primitive, variant.two_level)?;
        for camera in cameras {
            grtx_render::validate_camera(camera)?;
        }
        self.scene.validate()
    }

    /// Runs one full simulated render of the evaluation camera for
    /// `(variant, options)`: [`Self::try_run_batch`] over that one
    /// camera.
    pub fn try_run(
        &self,
        variant: &PipelineVariant,
        options: &RunOptions,
    ) -> Result<ExperimentResult, GrtxError> {
        let mut results =
            self.try_run_batch(variant, options, std::slice::from_ref(&self.camera))?;
        Ok(results.pop().expect("one camera yields one result"))
    }

    /// [`Self::try_run`] with a pre-built structure (lets benches reuse
    /// expensive builds across parameter sweeps).
    pub fn try_run_with_accel(
        &self,
        accel: &AccelStruct,
        variant: &PipelineVariant,
        options: &RunOptions,
    ) -> Result<ExperimentResult, GrtxError> {
        let mut results = self.try_run_batch_with_accel(
            accel,
            variant,
            options,
            std::slice::from_ref(&self.camera),
        )?;
        Ok(results.pop().expect("one camera yields one result"))
    }

    /// Renders `cameras` views of this scene in one batched engine
    /// invocation, building the acceleration structure **exactly once**
    /// (sharded when [`RunOptions::shards`] > 0, in which case every
    /// view's result carries the same sharding summary).
    ///
    /// Validates the GPU shape, the render configuration, the
    /// primitive/organization pair, every camera, and the scene before
    /// building anything, returning a typed [`GrtxError`] instead of
    /// panicking (or silently rendering garbage from non-finite
    /// Gaussians).
    ///
    /// Returns one [`ExperimentResult`] per view, in camera order; each
    /// view's report is bit-identical to a standalone [`Self::try_run`]
    /// render of that camera. Sweep views with [`Self::orbit_cameras`].
    pub fn try_run_batch(
        &self,
        variant: &PipelineVariant,
        options: &RunOptions,
        cameras: &[Camera],
    ) -> Result<Vec<ExperimentResult>, GrtxError> {
        self.validate_run(variant, options, cameras)?;
        if cameras.is_empty() {
            // A view-less batch renders nothing — and builds nothing.
            return Ok(Vec::new());
        }
        let layout = Self::layout(options);
        if options.shards > 0 {
            let sharded = self.build_sharded_accel_traced(
                variant,
                &layout,
                options.shards,
                options.threads,
                &options.telemetry,
            );
            let mut results =
                self.try_run_batch_with_accel(sharded.accel(), variant, options, cameras)?;
            for result in &mut results {
                result.sharding = Some(sharded.summary());
            }
            Ok(results)
        } else {
            let accel = self.build_accel(variant, &layout);
            self.try_run_batch_with_accel(&accel, variant, options, cameras)
        }
    }

    /// [`Self::try_run_batch`] with a pre-built structure (lets benches
    /// reuse expensive builds across view-count sweeps): the one body
    /// every run shares. Input errors come from
    /// [`RenderEngine::try_render_batch`].
    pub fn try_run_batch_with_accel(
        &self,
        accel: &AccelStruct,
        variant: &PipelineVariant,
        options: &RunOptions,
        cameras: &[Camera],
    ) -> Result<Vec<ExperimentResult>, GrtxError> {
        let config = Self::render_config(variant, options);
        let gpu = options.gpu.clone().with_cache_scale(self.divisor);
        let effects = self.effects(options);
        let reports = RenderEngine::new(gpu)
            .with_threads(options.threads)
            .with_telemetry(options.telemetry.clone())
            .with_profiler(options.profiler.clone())
            .try_render_batch(accel, &self.scene, cameras, effects.as_ref(), &config)?;
        Ok(reports
            .into_iter()
            .map(|report| self.result_for(accel, report))
            .collect())
    }

    /// A copy of this setup rendering a different scene — the per-frame
    /// unit a frame stream mutates (profile, camera, and divisor stay,
    /// so cache scaling and effect placement match frame-for-frame).
    pub fn with_scene(&self, scene: GaussianScene) -> SceneSetup {
        SceneSetup {
            kind: self.kind,
            profile: self.profile.clone(),
            scene,
            camera: self.camera.clone(),
            divisor: self.divisor,
        }
    }

    /// The [`StreamConfig`] equivalent of `(variant, options)`: a
    /// pipelined frame of this configuration simulates exactly what a
    /// per-frame [`Self::try_run_batch`] would.
    fn stream_config(
        &self,
        variant: &PipelineVariant,
        options: &RunOptions,
        depth: usize,
    ) -> StreamConfig {
        StreamConfig {
            depth,
            threads: options.threads,
            shards: options.shards,
            primitive: variant.primitive,
            two_level: variant.two_level,
            layout: Self::layout(options),
            render: Self::render_config(variant, options),
            gpu: options.gpu.clone().with_cache_scale(self.divisor),
            effects: self.effects(options),
            telemetry: options.telemetry.clone(),
            profiler: options.profiler.clone(),
            faults: options.faults.clone(),
            retry: options.retry,
        }
    }

    /// Converts a pipeline frame outcome into a [`StreamFrame`].
    fn stream_frame(&self, outcome: grtx_pipeline::FrameOutcome) -> StreamFrame {
        match outcome {
            grtx_pipeline::FrameOutcome::Rendered(frame) => StreamFrame::Rendered {
                index: frame.index,
                rebuilt: frame.rebuilt,
                results: frame
                    .reports
                    .into_iter()
                    .map(|report| ExperimentResult {
                        report,
                        size: frame.size,
                        height: frame.height,
                        scale_factor: self.profile.full_gaussian_count as f64
                            / frame.gaussians.max(1) as f64,
                        sharding: frame.sharding.clone(),
                    })
                    .collect(),
            },
            grtx_pipeline::FrameOutcome::Failed { index, error } => {
                StreamFrame::Failed { index, error }
            }
        }
    }

    /// Runs `frames` frames of `source` through the async frame pipeline
    /// (`grtx-pipeline`): scene update, acceleration-structure build
    /// (sharded per [`RunOptions::shards`], skipped when the source
    /// reports the scene unchanged), and batched rendering overlap
    /// across up to `depth` frames in flight on
    /// [`RunOptions::threads`] workers.
    ///
    /// Frames arrive in strict frame order, and every frame's images,
    /// cycles, and statistics are **bit-identical** to a sequential
    /// per-frame [`Self::try_run_batch`] of the same scene and cameras —
    /// at any depth, thread count, and shard count. Every depth runs on
    /// the pipeline's one task-graph executor: `depth ≤ 1` keeps one
    /// frame in flight; `depth = 3` reaches the full update(N+2) ∥
    /// build(N+1) ∥ render(N) overlap.
    ///
    /// An invalid configuration returns a typed [`GrtxError`] before any
    /// frame starts. A frame with an invalid camera or scene (or a
    /// sceneless frame 0) comes back [`StreamFrame::Failed`] under every
    /// retry policy, and frames reusing its scene fail as
    /// [`GrtxError::DependencyFailed`].
    /// Under a quarantining [`RunOptions::retry`] policy, frames whose
    /// stage tasks exhaust their attempts come back as
    /// [`StreamFrame::Failed`] — in frame order, while unaffected frames
    /// keep rendering, bit-identical to a fault-free run.
    pub fn try_run_stream(
        &self,
        source: &dyn FrameSource,
        frames: usize,
        variant: &PipelineVariant,
        options: &RunOptions,
        depth: usize,
    ) -> Result<Vec<StreamFrame>, GrtxError> {
        let outcomes = grtx_pipeline::try_run_stream(
            source,
            frames,
            &self.stream_config(variant, options, depth),
        )?;
        Ok(outcomes
            .into_iter()
            .map(|outcome| self.stream_frame(outcome))
            .collect())
    }

    /// An [`OrbitSource`] over this setup's scene: `views` cameras per
    /// frame on the evaluation camera's orbit, the rig advancing `step`
    /// radians per frame. Frame 0 reproduces [`Self::orbit_cameras`]
    /// exactly; no frame after 0 rebuilds the structure.
    pub fn orbit_source(&self, views: usize, step: f32) -> OrbitSource {
        OrbitSource::new(
            std::sync::Arc::new(self.scene.clone()),
            self.camera.clone(),
            views,
            step,
        )
    }

    /// A [`JitterSource`] over this setup's scene: the evaluation camera
    /// every frame, Gaussian means jittering by `amplitude` world units
    /// every `period` frames (each jitter frame rebuilds the structure).
    pub fn jitter_source(&self, amplitude: f32, period: usize) -> JitterSource {
        JitterSource::with_period(
            std::sync::Arc::new(self.scene.clone()),
            vec![self.camera.clone()],
            amplitude,
            period,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_setup() -> SceneSetup {
        SceneSetup::evaluation(SceneKind::Room, 2000, 24, 11)
    }

    #[test]
    fn variants_have_distinct_configurations() {
        let lineup = PipelineVariant::fig13_lineup();
        assert_eq!(lineup[0].name, "Baseline");
        assert!(!lineup[0].two_level && !lineup[0].checkpointing);
        assert!(lineup[1].two_level && !lineup[1].checkpointing);
        assert!(!lineup[2].two_level && lineup[2].checkpointing);
        assert!(lineup[3].two_level && lineup[3].checkpointing);
    }

    #[test]
    fn run_produces_consistent_result() {
        let setup = tiny_setup();
        let r = setup
            .try_run(&PipelineVariant::grtx_sw(), &RunOptions::default())
            .unwrap();
        assert!(r.report.time_ms > 0.0);
        assert!(r.size.total_bytes > 0);
        assert!(r.height >= 2);
        assert!(r.scale_factor > 1.0);
    }

    #[test]
    fn all_variants_render_identical_images() {
        // The paper's implicit correctness claim: none of the structure
        // or hardware changes alter rendering output. Checkpointing is
        // bitwise invisible; across structure organizations the triangle
        // arithmetic differs in rounding only (high PSNR).
        let setup = tiny_setup();
        let opts = RunOptions {
            k: 8,
            ..Default::default()
        };
        let images: Vec<_> = PipelineVariant::fig13_lineup()
            .iter()
            .map(|v| setup.try_run(v, &opts).unwrap().report.image)
            .collect();
        assert_eq!(
            images[0].psnr(&images[2]),
            f64::INFINITY,
            "HW vs baseline must be bitwise"
        );
        assert_eq!(
            images[1].psnr(&images[3]),
            f64::INFINITY,
            "GRTX vs SW must be bitwise"
        );
        assert!(
            images[0].psnr(&images[1]) > 50.0,
            "cross-structure divergence"
        );
    }

    #[test]
    fn grtx_beats_baseline_end_to_end() {
        let setup = tiny_setup();
        let opts = RunOptions::default();
        let base = setup.try_run(&PipelineVariant::baseline(), &opts).unwrap();
        let grtx = setup.try_run(&PipelineVariant::grtx(), &opts).unwrap();
        assert!(
            grtx.report.time_ms < base.report.time_ms,
            "GRTX {} ms should beat baseline {} ms",
            grtx.report.time_ms,
            base.report.time_ms
        );
        assert!(grtx.size.total_bytes < base.size.total_bytes / 2);
    }

    #[test]
    fn orbit_cameras_start_at_the_evaluation_view() {
        let setup = tiny_setup();
        let cams = setup.orbit_cameras(4);
        assert_eq!(cams.len(), 4);
        assert_eq!(cams[0], setup.camera);
        // All views share the eye's orbit radius and height.
        let r = |c: &Camera| (c.eye().x * c.eye().x + c.eye().z * c.eye().z).sqrt();
        for cam in &cams[1..] {
            assert!((r(cam) - r(&cams[0])).abs() < 1e-3);
            assert!((cam.eye().y - cams[0].eye().y).abs() < 1e-5);
            assert_ne!(cam.eye(), cams[0].eye(), "views must differ");
        }
        // Deterministic: a second call yields identical cameras.
        assert_eq!(setup.orbit_cameras(4), cams);
    }

    #[test]
    fn run_views_matches_run_on_the_first_view() {
        let setup = tiny_setup();
        let opts = RunOptions {
            k: 8,
            ..Default::default()
        };
        let variant = PipelineVariant::grtx();
        let batch = setup
            .try_run_batch(&variant, &opts, &setup.orbit_cameras(2))
            .unwrap();
        assert_eq!(batch.len(), 2);
        let standalone = setup.try_run(&variant, &opts).unwrap();
        assert_eq!(
            batch[0].report.image.pixels(),
            standalone.report.image.pixels()
        );
        assert_eq!(batch[0].report.cycles, standalone.report.cycles);
        assert_eq!(batch[0].report.stats, standalone.report.stats);
        // Different views see different images (orbit moved the eye).
        assert_ne!(
            batch[0].report.image.pixels(),
            batch[1].report.image.pixels()
        );
    }

    #[test]
    fn sharded_batches_carry_the_summary_on_every_view() {
        let setup = tiny_setup();
        let opts = RunOptions {
            shards: 2,
            ..Default::default()
        };
        let results = setup
            .try_run_batch(&PipelineVariant::grtx_sw(), &opts, &setup.orbit_cameras(2))
            .unwrap();
        for r in &results {
            let sharding = r.sharding.as_ref().expect("sharded run carries summary");
            assert_eq!(sharding.shard_sizes.len(), 2);
        }
    }

    #[test]
    fn zero_view_sweeps_are_empty() {
        let setup = tiny_setup();
        assert!(setup.orbit_cameras(0).is_empty());
        assert!(setup
            .try_run_batch(&PipelineVariant::grtx(), &RunOptions::default(), &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn stream_sources_start_from_the_evaluation_view() {
        let setup = tiny_setup();
        let orbit = setup.orbit_source(3, 0.25);
        let frame0 = grtx_pipeline::FrameSource::frame(&orbit, 0);
        assert_eq!(frame0.cameras, setup.orbit_cameras(3));
        assert!(frame0.scene.is_some());
        let jitter = setup.jitter_source(0.1, 2);
        let frame0 = grtx_pipeline::FrameSource::frame(&jitter, 0);
        assert_eq!(frame0.cameras, vec![setup.camera.clone()]);
    }

    #[test]
    fn env_overrides_have_sane_defaults() {
        assert!(SceneSetup::env_divisor() >= 1);
        assert!(SceneSetup::env_resolution() >= 16);
    }

    #[test]
    fn effects_seed_adds_secondary_rays_or_none() {
        let setup = tiny_setup();
        let opts = RunOptions {
            effects_seed: Some(5),
            ..Default::default()
        };
        let r = setup.try_run(&PipelineVariant::baseline(), &opts).unwrap();
        // Placement is random; either outcome is legal but the run must
        // complete with a valid report.
        assert!(r.report.time_ms > 0.0);
    }
}
