#![forbid(unsafe_code)]

//! Frame-stream pipeline: scene update, acceleration-structure rebuild,
//! and batched rendering for streams of frames.
//!
//! The paper's workload is not one frame — it is *streams* of frames
//! (animated scenes, orbiting cameras) that each need a scene, a
//! structure, and a ray-traced render. This crate runs them:
//!
//! * [`FrameSource`] describes the stream — per-frame scene mutation
//!   (or reuse) and camera paths — with ready-made [`OrbitSource`]
//!   (static scene, orbiting rig) and [`JitterSource`] (animated scene)
//!   scenario generators;
//! * [`try_run_stream`] runs the frames one at a time, in order:
//!   **update** (produce the frame's scene and cameras, plan its
//!   launches) → **build** (the sharded structure on all threads, or the
//!   previous one reused when the scene is unchanged) → **render** (the
//!   frame's `cameras × SMs` fragments over one scoped pool, merged in
//!   fixed `(camera, SM)` order). The parallelism lives inside the build
//!   and the render; frames never overlap.
//!
//! # Determinism contract
//!
//! Frames come back as [`FrameOutcome`]s in strict frame order, and every
//! rendered frame's images, cycles, and statistics are **bit-identical** to
//! building and batch-rendering each frame on its own — at any thread
//! count and any shard count. Threads change wall-clock time only.
//! The executor details live in [`stream`].
//!
//! # Faults and graceful degradation
//!
//! [`try_run_stream`] returns a typed error instead of panicking: it
//! validates the configuration up front and each frame's cameras and scene as the
//! frame is produced ([`grtx_fault::GrtxError`]) and, when
//! [`StreamConfig::retry`] enables quarantine, converts stage-task
//! panics — injected by a [`grtx_fault::FaultPlan`] or genuine — into
//! per-frame [`FrameOutcome::Failed`] entries after
//! [`grtx_fault::RetryPolicy`]-bounded retries, while unaffected frames
//! keep flowing. Recovered streams are bit-identical to fault-free
//! runs; the determinism contract extends to failure handling.

pub mod source;
pub mod stream;

pub use grtx_fault::{FaultInjector, FaultPlan, GrtxError, RetryPolicy};
pub use source::{FrameSource, FrameSpec, JitterSource, OrbitSource};
pub use stream::{try_run_stream, FrameOutcome, FrameResult, StreamConfig};
