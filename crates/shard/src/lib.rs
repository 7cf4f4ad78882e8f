#![forbid(unsafe_code)]

//! Scene sharding: parallel per-shard acceleration-structure builds
//! with deterministic stitching.
//!
//! Multi-million-Gaussian scenes make the TLAS the build bottleneck: the
//! binned-SAH builder is serial and whole-scene. [`ShardedAccel`] splits
//! the structure's build primitives into K spatial shards along the
//! canonical builder's own top-of-tree splits
//! ([`grtx_bvh::plan_frontier`]), builds one subtree per shard
//! concurrently over `std::thread::scope` workers (the render engine's
//! fan-out pattern), and stitches them, in shard order, under the *shard
//! directory*: the small top-level shard BVH a ray walks before
//! dispatching into a shard's subtree. Byte accounting is reported per
//! shard and for the directory, summing exactly to the whole-structure
//! [`BvhSizeReport`](grtx_bvh::BvhSizeReport).
//!
//! # Determinism guarantee
//!
//! Because shard boundaries are builder-aligned, the stitched structure
//! is **bit-identical** to the serial build — the same nodes, the same
//! primitive order, the same simulated fetch addresses. Rendering a
//! sharded scene therefore produces bit-identical images, cycle counts,
//! and statistics for *any* shard count and *any* thread count; sharding
//! changes build wall-clock time only. The equivalence is enforced by
//! this crate's structural tests and by the end-to-end render tests in
//! the experiment layer.
//!
//! The frame pipeline (`grtx-pipeline`) reuses [`ShardedAccel`]
//! as its build stage: every rebuild frame of a stream constructs its
//! structure through this crate's parallel builder, and the determinism
//! guarantee above is what lets pipelined frames stay bit-identical to
//! sequential ones at any shard count.

pub mod accel;

pub use accel::{ShardInfo, ShardedAccel, ShardingSummary};

/// Worker threads a parallel phase should actually use: `requested = 0`
/// means all available cores, clamped to `1..=work_items`.
pub(crate) fn effective_threads(requested: usize, work_items: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let requested = if requested == 0 { hw } else { requested };
    requested.clamp(1, work_items.max(1))
}
