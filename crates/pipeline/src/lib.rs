#![forbid(unsafe_code)]

//! Frame-stream pipeline: overlapped scene update, acceleration-structure
//! rebuild, and batched rendering.
//!
//! The paper's workload is not one frame — it is *streams* of frames
//! (animated scenes, orbiting cameras) in which scene generation, BVH
//! construction, and ray-traced rendering each occupy a different part
//! of the machine. This crate keeps all three busy at once:
//!
//! * [`FrameSource`] describes the stream — per-frame scene mutation
//!   (or reuse) and camera paths — with ready-made [`OrbitSource`]
//!   (static scene, orbiting rig) and [`JitterSource`] (animated scene)
//!   scenario generators;
//! * [`try_run_stream`] drives a three-stage graph — **update** (produce
//!   frame N+2's scene/cameras) → **build** (frame N+1's sharded
//!   structure, reusing the previous one when the scene is unchanged) →
//!   **render** (frame N's `cameras × SMs` fragment fan-out) — over one
//!   scoped worker pool that steals across stages, with bounded
//!   double-buffered stage handoffs. It is the only executor:
//!   [`StreamConfig::depth`] ≤ 1 runs the same graph one frame at a
//!   time.
//!
//! # Determinism contract
//!
//! Frames come back as [`FrameOutcome`]s in strict frame order, and every
//! rendered frame's images, cycles, and statistics are **bit-identical** to
//! building and batch-rendering each frame on its own — at any pipeline
//! depth, any thread count, and any shard count. Overlap changes wall-clock time only.
//! The scheduler details and the proof sketch live in [`stream`].
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
