#![forbid(unsafe_code)]

//! Cycle-level GPU model for Gaussian ray tracing — the stand-in for
//! Vulkan-Sim plus the paper's in-house RT simulator.
//!
//! The paper evaluates GRTX on "Vulkan-Sim, a cycle-level graphics
//! simulator ... alongside an in-house cycle-level simulator that models
//! the ray tracing behavior with any-hit shaders" (Section V-A), with the
//! GPU configuration of Table I. This crate reproduces that methodology
//! at the architecture level:
//!
//! * [`config`] — Table I parameters (8 SMs at 1365 MHz, 128 KB L1D with
//!   128 B lines, 4 MB unified L2, one RT unit per SM with an 8-entry
//!   warp buffer) plus the fixed-function cost model and an AMD-like
//!   variant (shader-core node fetches, Fig. 24);
//! * [`cache`] / [`mem`] — set-associative LRU caches over the virtual
//!   addresses `grtx-bvh` assigns to structure elements, with the
//!   sibling-prefetch calibration the paper describes;
//! * [`observer`] — a [`grtx_bvh::TraversalObserver`] implementation
//!   that charges cycles and memory latency for every traversal event
//!   (node fetch, box/primitive test, ray transform, checkpoint
//!   read/write) and logs each ray's fetches, deduplicated when the ray
//!   retires ([`GpuSim::retire_ray`]), for the Fig. 7 unique-vs-total
//!   analysis;
//! * [`stats`] — the counter set every experiment reads: node fetches,
//!   unique visits, L1 hit rate, L2 accesses, average fetch latency,
//!   checkpoint/eviction buffer occupancy, and cycle totals;
//! * [`schedule`] — warp-to-SM assignment and the makespan model that
//!   converts per-warp cycle counts into render time.
//!
//! What "cycle-level" means here (and in DESIGN.md §6): per-ray traversal
//! charges a latency for every memory access through the modeled cache
//! hierarchy and a fixed-function cost for every intersection/transform;
//! warps execute in SIMT lockstep (a warp's round time is the maximum
//! over its rays); SMs overlap warps up to the warp-buffer depth. This
//! reproduces the architecture-level effects the paper measures without
//! modeling pipelines at RTL granularity.

pub mod cache;
pub mod config;
pub mod fasthash;
mod lines;
pub mod mem;
pub mod observer;
pub mod schedule;
pub mod stats;

pub use cache::Cache;
pub use config::{checkpoint_hw_cost_bytes, CostModel, GpuConfig};
pub use mem::{AccessClass, MemorySystem};
pub use observer::{RayTraceState, SimObserver};
pub use schedule::WarpSchedule;
pub use stats::SimStats;

/// A complete simulated GPU: configuration, memory hierarchy, and
/// statistics. The renderer drives it one (ray, round) at a time through
/// [`SimObserver`]s.
#[derive(Debug)]
pub struct GpuSim {
    /// Architecture parameters and cost model.
    pub config: GpuConfig,
    /// L1/L2/DRAM model.
    pub mem: MemorySystem,
    /// Global counters.
    pub stats: SimStats,
}

impl GpuSim {
    /// Creates a simulator for the given configuration.
    pub fn new(config: GpuConfig) -> Self {
        let mem = MemorySystem::new(&config);
        Self {
            config,
            mem,
            stats: SimStats::default(),
        }
    }

    /// Creates the simulator for one SM's shard of this configuration
    /// (see [`GpuConfig::sm_slice`]): a private L1 over an L2 slice.
    pub fn sm_shard(config: &GpuConfig) -> Self {
        Self::new(config.sm_slice())
    }

    /// Merges another shard's statistics and memory-traffic counters
    /// into this simulator (cache contents are not merged).
    ///
    /// Folding every shard of a render into one `GpuSim` — in any order —
    /// yields the same totals, which is what makes the parallel render
    /// engine's reports independent of thread count.
    pub fn absorb(&mut self, other: &GpuSim) {
        self.stats.merge(&other.stats);
        self.mem.absorb_counters(&other.mem);
    }

    /// Converts accumulated cycles into milliseconds at the configured
    /// core clock (see [`GpuConfig::cycles_to_ms`]).
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        self.config.cycles_to_ms(cycles)
    }
}
