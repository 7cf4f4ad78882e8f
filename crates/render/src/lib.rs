#![forbid(unsafe_code)]

//! The 3DGRT-style Gaussian ray-tracing renderer and its 3DGS
//! rasterization baseline.
//!
//! The rendering pipeline follows Fig. 3 of the paper: rays are generated
//! from the camera, each ray gathers its `k` closest Gaussians per
//! traversal round using an any-hit k-buffer (Section III-A), blends them
//! front-to-back with early ray termination, and repeats with an advanced
//! `t_min` until the ray saturates or the scene is exhausted.
//!
//! Three tracing disciplines are implemented (they must produce identical
//! images — a property the tests enforce):
//!
//! * [`TraceMode::SingleRound`] — collect every intersected Gaussian in
//!   one traversal, sort afterwards, then blend (the strawman of
//!   Fig. 6a);
//! * [`TraceMode::MultiRoundRestart`] — the 3DGRT baseline: each round
//!   restarts BVH traversal from the root;
//! * [`TraceMode::MultiRoundCheckpoint`] — GRTX-HW: rounds resume from
//!   the checkpoint buffer and rejected Gaussians are recycled through
//!   the eviction buffer (Listing 1 / Fig. 11).
//!
//! [`renderer`] drives whole images through the `grtx-sim` GPU model in
//! SIMT warps; [`raster`] implements the tile-based 3DGS rasterizer used
//! as the Fig. 4a reference point.

pub mod blend;
pub mod engine;
pub mod image;
pub mod kbuffer;
pub mod raster;
pub mod renderer;
pub mod tracer;

pub use blend::{BlendState, MIN_BLEND_ALPHA};
pub use engine::{
    validate_camera, validate_gpu, validate_render, validate_structure, CameraLaunch, RenderEngine,
    SmOutcome,
};
pub use image::Image;
pub use kbuffer::{InsertOutcome, KBuffer};
pub use raster::{try_render_rasterized, RasterConfig, RasterReport};
pub use renderer::{RenderConfig, RenderReport, SecondaryBreakdown};
pub use tracer::{KBufferStorage, RayTracer, RoundReport, RoundStatus, TraceMode, TraceParams};
