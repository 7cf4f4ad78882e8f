#![forbid(unsafe_code)]

//! # GRTX — Efficient Ray Tracing for 3D Gaussian-Based Rendering
//!
//! A full reproduction of the HPCA 2026 paper *"GRTX: Efficient Ray
//! Tracing for 3D Gaussian-Based Rendering"* (Lee et al.): a software +
//! hardware co-design that accelerates 3DGRT-style Gaussian ray tracing
//! with
//!
//! 1. **GRTX-SW** — a two-level acceleration structure whose TLAS leaves
//!    are per-Gaussian instances all sharing **one** template BLAS
//!    (anisotropic Gaussians become unit spheres under the instance
//!    transform), shrinking the BVH ~10× and making the BLAS L1-resident;
//! 2. **GRTX-HW** — RT-core **traversal checkpointing and replay**:
//!    multi-round k-buffer tracing resumes from checkpointed nodes
//!    instead of the root, eliminating redundant node fetches, plus an
//!    eviction buffer that recycles k-buffer rejects.
//!
//! The crate re-exports the substrates (`grtx-math`, `grtx-scene`,
//! `grtx-bvh`, `grtx-sim`, `grtx-render`) and adds the experiment layer
//! used by the paper-reproduction benches.
//!
//! ## Quickstart
//!
//! ```
//! use grtx::{PipelineVariant, RunOptions, SceneSetup};
//! use grtx_scene::SceneKind;
//!
//! // A miniature Train-statistics scene at 32×32 for doc-test speed.
//! let setup = SceneSetup::evaluation(SceneKind::Train, 2000, 32, 42);
//! let result = setup.try_run(&PipelineVariant::grtx(), &RunOptions::default())?;
//! assert!(result.report.time_ms > 0.0);
//! assert!(result.report.image.mean_luminance() > 0.0);
//! # Ok::<(), grtx::GrtxError>(())
//! ```
//!
//! Many views of one scene batch into a single engine invocation that
//! builds the acceleration structure exactly once — each view's report
//! bit-identical to a standalone render:
//!
//! ```
//! use grtx::{PipelineVariant, RunOptions, SceneSetup};
//! use grtx_scene::SceneKind;
//!
//! let setup = SceneSetup::evaluation(SceneKind::Train, 2000, 32, 42);
//! let cameras = setup.orbit_cameras(3);
//! let views = setup.try_run_batch(&PipelineVariant::grtx(), &RunOptions::default(), &cameras)?;
//! assert_eq!(views.len(), 3);
//! # Ok::<(), grtx::GrtxError>(())
//! ```
//!
//! Streams of frames run through the frame pipeline (`grtx-pipeline`):
//! one frame at a time, in order — scene update, structure build (or
//! reuse when the scene is unchanged), then rendering — with the
//! parallelism inside each build and render, bit-identical to per-frame
//! batches at any thread and shard count. The last argument is ignored:
//! frames run one at a time, in order.
//!
//! ```
//! use grtx::{PipelineVariant, RunOptions, SceneSetup};
//! use grtx_scene::SceneKind;
//!
//! let setup = SceneSetup::evaluation(SceneKind::Train, 2000, 32, 42);
//! let source = setup.orbit_source(2, 0.3);
//! let options = RunOptions::default();
//! let frames = setup.try_run_stream(&source, 3, &PipelineVariant::grtx(), &options, 1)?;
//! assert_eq!(frames.len(), 3);
//! assert!(frames[0].rebuilt() && !frames[1].rebuilt());
//! # Ok::<(), grtx::GrtxError>(())
//! ```
//!
//! Faults inject deterministically into a stream and quarantined frames
//! surface in order while later frames keep rendering (`grtx-fault`):
//!
//! ```
//! use grtx::{FaultPlan, FaultSite, PipelineVariant, RetryPolicy, RunOptions, SceneSetup};
//! use grtx_scene::SceneKind;
//!
//! grtx::silence_injected_panics();
//! let setup = SceneSetup::evaluation(SceneKind::Train, 2000, 32, 42);
//! let source = setup.orbit_source(1, 0.3);
//! let options = RunOptions {
//!     faults: grtx::FaultInjector::with_plan(FaultPlan::new().permanent(FaultSite::Build, 1)),
//!     retry: RetryPolicy::resilient(2),
//!     ..Default::default()
//! };
//! let frames = setup.try_run_stream(&source, 3, &PipelineVariant::grtx(), &options, 1)?;
//! assert!(!frames[0].is_failed() && frames[1].is_failed() && !frames[2].is_failed());
//! # Ok::<(), grtx::GrtxError>(())
//! ```

pub mod experiment;
pub mod profile;
pub mod trace;

pub use experiment::{ExperimentResult, PipelineVariant, RunOptions, SceneSetup, StreamFrame};
pub use profile::{
    profile_path_from_env, profiler_from_env, write_profile, write_profile_from_env, PROFILE_ENV,
};
pub use trace::{
    report_path_for, telemetry_from_env, trace_path_from_env, write_trace, write_trace_from_env,
    TRACE_ENV,
};

pub use grtx_bvh::{format_bytes, AccelStruct, BoundingPrimitive, BvhSizeReport, LayoutConfig};
pub use grtx_fault::{
    silence_injected_panics, FaultInjector, FaultKind, FaultLog, FaultPlan, FaultRecord, FaultSite,
    FaultSpec, GrtxError, RetryPolicy,
};
pub use grtx_pipeline::{
    try_run_stream, FrameOutcome, FrameResult, FrameSource, FrameSpec, JitterSource, OrbitSource,
    StreamConfig,
};
pub use grtx_prof::{ProfReport, Profiler};
pub use grtx_render::{
    try_render_rasterized, Image, RenderConfig, RenderEngine, RenderReport, TraceMode, TraceParams,
};
pub use grtx_scene::{Camera, CameraModel, EffectObjects, Gaussian, GaussianScene, SceneKind};
pub use grtx_shard::{ShardInfo, ShardedAccel, ShardingSummary};
pub use grtx_sim::{checkpoint_hw_cost_bytes, GpuConfig};
pub use grtx_telemetry::{ClockMode, Telemetry, TelemetryReport};
