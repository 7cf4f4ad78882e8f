#![forbid(unsafe_code)]

//! Simulated-cycle microarchitecture profiling for the GRTX stack.
//!
//! `grtx-telemetry` (PR 7) sees *host* time: wall-clock spans around the
//! pipeline's update/build/render stages. This crate opens up the other
//! clock domain — the **simulated GPU's** — so the machine the simulator
//! models (SMs, warp buffers, L1/sliced-L2, k-buffer, checkpoint and
//! eviction buffers) stops being a black box between `try_render()` and an
//! aggregate [`SimStats`].
//!
//! # The virtual clock
//!
//! Every timestamp in a profile is a **simulated cycle count**, never a
//! wall-clock reading: one trace tick = one cycle of the configured core
//! clock ([`GpuDesc::cycles_to_ms`] converts for human-readable
//! columns). Each `(launch, SM)` fragment carries its own virtual SM
//! clock, advanced by the warp scheduler's round times; launches are laid
//! out back-to-back in canonical launch-key order at export. A profile is
//! therefore a *pure function of the simulated work* — bit-identical
//! across runs and host thread counts by construction, and free of the
//! wall-clock reads `grtx-analyze --deny` forbids outside the telemetry
//! crate.
//!
//! # What gets recorded
//!
//! * a per-SM × per-launch **counter matrix**: the fragment's full
//!   [`SimStats`] snapshot plus L1/L2-slice/DRAM traffic — each parallel
//!   fragment simulates one SM against its private cache slice, so the
//!   fragment's own counters *are* the per-SM hardware counters, and the
//!   matrix sums exactly to the global totals the reports publish;
//! * **per-warp activity intervals** on the SM's virtual clock (one
//!   Chrome-trace track per simulated SM);
//! * SIMD **lane-occupancy** and **warp-divergence** histograms, sampled
//!   per warp-round;
//! * **k-buffer / checkpoint / eviction occupancy high-water** time
//!   series, sampled once per scheduler round (the Fig. 20 curves).
//!
//! # Cost when disabled
//!
//! Like [`Telemetry`], a [`Profiler`] is an `Option<Arc<_>>` handle:
//! the default ([`Profiler::disabled`]) records nothing, and every hook
//! in the render engine's warp queue is one branch on that `Option`.
//! Profiles ride through [`FragmentProfile`]s drained at merge time —
//! never through `SimStats` or `RenderReport` — so profiling on vs. off
//! leaves images, cycles, and every statistic bit-identical.
//!
//! # Consumers
//!
//! [`Profiler::chrome_trace`] exports one track per simulated SM
//! (virtual-time `"X"` events — Perfetto shows the simulated GPU, not
//! the host threads); [`Profiler::report`] builds the `grtx-prof-v1`
//! [`ProfReport`] with its per-SM utilization / cache / divergence /
//! fetch-latency [`ProfReport::summary_table`].

pub mod report;

pub use report::{HistDigest, LaunchSummary, MatrixRow, ProfReport};

use grtx_sim::{GpuConfig, GpuSim, SimStats};
use grtx_telemetry::{ClockMode, Histogram, Telemetry};
use std::sync::{Arc, Mutex};

/// Architecture parameters embedded in every profile, so a report is
/// self-describing (clock for cycle→ms conversion, latencies for the
/// fetch-latency breakdown, SM count for track layout).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuDesc {
    /// Streaming multiprocessor count.
    pub num_sms: usize,
    /// Core clock in MHz.
    pub clock_mhz: f64,
    /// Threads per warp.
    pub warp_size: usize,
    /// RT-unit warp buffer entries per SM.
    pub warp_buffer_size: usize,
    /// Cache line size in bytes (traffic counters are line-granular).
    pub line_bytes: usize,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// DRAM access latency in cycles.
    pub dram_latency: u64,
}

impl GpuDesc {
    /// Snapshots the profile-relevant subset of a [`GpuConfig`].
    pub fn of(config: &GpuConfig) -> Self {
        Self {
            num_sms: config.num_sms,
            clock_mhz: config.clock_mhz,
            warp_size: config.warp_size,
            warp_buffer_size: config.warp_buffer_size,
            line_bytes: config.line_bytes,
            l1_latency: config.l1_latency,
            l2_latency: config.l2_latency,
            dram_latency: config.dram_latency,
        }
    }

    /// Converts virtual-clock cycles to milliseconds at the snapshot's
    /// core clock (mirrors [`GpuConfig::cycles_to_ms`]).
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz * 1_000.0)
    }
}

/// One warp's activity interval on its SM's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpInterval {
    /// Launch-local warp index.
    pub warp: usize,
    /// Admission cycle (the warp entered the SM's warp buffer).
    pub start: u64,
    /// Retire cycle (all lanes done).
    pub end: u64,
}

/// One scheduler-round occupancy sample: the high-water marks across the
/// SM's resident warps at that cycle (the Fig. 20 buffer-sizing curves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancySample {
    /// Virtual cycle the sample was taken at (end of the round).
    pub cycle: u64,
    /// Largest checkpoint-buffer occupancy across resident lanes.
    pub checkpoint: u64,
    /// Largest eviction-buffer occupancy across resident lanes.
    pub eviction: u64,
    /// Largest k-buffer occupancy across resident lanes this round.
    pub kbuffer: u64,
}

/// Everything one `(launch, SM)` fragment records: the per-SM hardware
/// counters, the warp timeline, and the per-round histograms/series.
///
/// Produced by [`FragmentRecorder::finish`] inside the render engine's
/// fragment simulation, submitted to the [`Profiler`] sink at merge time
/// with the launch's canonical key.
#[derive(Debug, Clone)]
pub struct FragmentProfile {
    /// Simulated SM index within the launch.
    pub sm: usize,
    /// The SM's virtual clock at fragment end — its busy-cycle total.
    pub busy_cycles: u64,
    /// Warp activity intervals, sorted by `(start, warp)`.
    pub warps: Vec<WarpInterval>,
    /// Active SIMT lanes per warp-round.
    pub lane_occupancy: Histogram,
    /// Idle SIMT lanes per warp-round (the divergence profile).
    pub divergence: Histogram,
    /// Per-scheduler-round buffer occupancy high-water series.
    pub occupancy: Vec<OccupancySample>,
    /// The fragment simulator's full counter set — the per-(launch, SM)
    /// cell of the hardware-counter matrix. Snapshotted *before* the
    /// merge absorbs the fragment, so summing the matrix reproduces the
    /// global totals exactly.
    pub stats: SimStats,
    /// L1 structure accesses (line-granular) on this SM's private L1.
    pub l1_accesses: u64,
    /// L1 structure hits.
    pub l1_hits: u64,
    /// Accesses reaching this SM's private L2 slice.
    pub l2_accesses: u64,
    /// L2-slice structure hits.
    pub l2_hits: u64,
    /// Accesses falling through to DRAM.
    pub dram_accesses: u64,
    /// Lines installed by the sibling prefetcher.
    pub prefetch_installs: u64,
}

/// Records one `(launch, SM)` fragment's timeline while the render
/// engine's warp queue executes it. Obtained from
/// [`Profiler::fragment_recorder`] (`None` when profiling is disabled,
/// so every hook in the queue is one `Option` branch).
///
/// The recorder owns the fragment's **virtual SM clock**: each scheduler
/// round advances it by the slowest resident warp's round time
/// (compute + round overhead + stall) — a pure function of the simulated
/// work, identical at any host thread count.
#[derive(Debug)]
pub struct FragmentRecorder {
    sm: usize,
    now: u64,
    warp_base: usize,
    /// `(launch-local warp, admission cycle)` for resident warps — at
    /// most the warp-buffer depth, so linear scans stay trivial.
    admitted: Vec<(usize, u64)>,
    warps: Vec<WarpInterval>,
    lane_occupancy: Histogram,
    divergence: Histogram,
    occupancy: Vec<OccupancySample>,
}

impl FragmentRecorder {
    /// A fresh recorder for fragment `sm`, with its clock at cycle 0.
    pub fn new(sm: usize) -> Self {
        Self {
            sm,
            now: 0,
            warp_base: 0,
            admitted: Vec::new(),
            warps: Vec::new(),
            lane_occupancy: Histogram::default(),
            divergence: Histogram::default(),
            occupancy: Vec::new(),
        }
    }

    /// Starts a launch phase whose queue uses phase-local warp indices
    /// offset by `warp_base` (the secondary-ray phase continues the
    /// round-robin where the primaries left off). The virtual clock
    /// keeps running across phases.
    pub fn begin_phase(&mut self, warp_base: usize) {
        self.warp_base = warp_base;
    }

    /// A warp entered the warp buffer at the current cycle.
    pub fn admit(&mut self, warp: usize) {
        self.admitted.push((self.warp_base + warp, self.now));
    }

    /// One warp executed one round with `active` of `lanes` SIMT lanes
    /// live — feeds the lane-occupancy and divergence histograms.
    pub fn warp_round(&mut self, active: u64, lanes: u64) {
        self.lane_occupancy.record(active);
        self.divergence.record(lanes.saturating_sub(active));
    }

    /// Ends one scheduler round: advances the virtual clock by the
    /// slowest resident warp's round time and samples the buffer
    /// occupancy high-water marks observed across resident lanes.
    pub fn round_end(&mut self, advance: u64, checkpoint: u64, eviction: u64, kbuffer: u64) {
        self.now += advance;
        self.occupancy.push(OccupancySample {
            cycle: self.now,
            checkpoint,
            eviction,
            kbuffer,
        });
    }

    /// A warp retired (all lanes done) at the current cycle.
    ///
    /// # Panics
    ///
    /// Panics if the warp was never [admitted](Self::admit).
    pub fn retire(&mut self, warp: usize) {
        let warp = self.warp_base + warp;
        let pos = self
            .admitted
            .iter()
            .position(|(w, _)| *w == warp)
            .expect("retired warp was admitted");
        let (_, start) = self.admitted.swap_remove(pos);
        self.warps.push(WarpInterval {
            warp,
            start,
            end: self.now,
        });
    }

    /// The fragment's virtual clock, in cycles.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Seals the recording, snapshotting the fragment simulator's
    /// counters into the matrix cell. Call after the queue drains and
    /// *before* the merge absorbs `sim` into the aggregate.
    pub fn finish(mut self, sim: &GpuSim) -> FragmentProfile {
        // Retire order is not admission order (an early warp can outlive
        // a late one); canonicalize the timeline by (start, warp).
        self.warps
            .sort_by(|a, b| a.start.cmp(&b.start).then(a.warp.cmp(&b.warp)));
        FragmentProfile {
            sm: self.sm,
            busy_cycles: self.now,
            warps: self.warps,
            lane_occupancy: self.lane_occupancy,
            divergence: self.divergence,
            occupancy: self.occupancy,
            stats: sim.stats.clone(),
            l1_accesses: sim.mem.l1_structure_accesses,
            l1_hits: sim.mem.l1_structure_hits,
            l2_accesses: sim.mem.l2_structure_accesses,
            l2_hits: sim.mem.l2_structure_hits,
            dram_accesses: sim.mem.dram_structure_accesses,
            prefetch_installs: sim.mem.prefetch_installs,
        }
    }
}

#[derive(Debug)]
struct ProfInner {
    gpu: Mutex<Option<GpuDesc>>,
    /// `(launch key, fragment)` in arrival order; every export sorts by
    /// `(key, sm)`, so concurrent merges (pipeline frames finishing out
    /// of order) cannot perturb the canonical profile.
    fragments: Mutex<Vec<(u64, FragmentProfile)>>,
}

/// The profiling handle threaded through the render engine, the frame
/// pipeline, and the facade. Cheap to clone; disabled by default. See
/// the [crate docs](self) for the design.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<ProfInner>>,
}

/// Two handles are equal when they are the *same* sink (or both
/// disabled) — configuration structs deriving `PartialEq` compare
/// identity, not recorded content (the [`Telemetry`] convention).
impl PartialEq for Profiler {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Profiler {
    /// The no-op handle: every hook is a single `None` branch.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled handle with an empty sink. One handle should observe
    /// each launch once — profile a run with a fresh handle.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(ProfInner {
                gpu: Mutex::new(None),
                fragments: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Captures the GPU description once (first caller wins; profiled
    /// launches all run the same engine configuration).
    pub fn observe_gpu(&self, config: &GpuConfig) {
        let Some(inner) = &self.inner else { return };
        let mut gpu = inner
            .gpu
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if gpu.is_none() {
            *gpu = Some(GpuDesc::of(config));
        }
    }

    /// A recorder for one `(launch, SM)` fragment, or `None` when
    /// disabled — the engine holds the `Option` and every hook costs
    /// one branch on it.
    pub fn fragment_recorder(&self, sm: usize) -> Option<FragmentRecorder> {
        self.inner.as_ref().map(|_| FragmentRecorder::new(sm))
    }

    /// Submits one fragment's profile under its launch's canonical key
    /// (camera index for a batch; `frame << 32 | camera` for a stream).
    /// Arrival order is irrelevant — exports sort by `(key, sm)`.
    pub fn submit(&self, key: u64, profile: FragmentProfile) {
        let Some(inner) = &self.inner else { return };
        inner
            .fragments
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((key, profile));
    }

    /// The captured GPU description, if any launch ran yet.
    pub fn gpu_desc(&self) -> Option<GpuDesc> {
        let inner = self.inner.as_ref()?;
        inner
            .gpu
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Snapshot of every submitted fragment in canonical `(key, sm)`
    /// order.
    fn sorted_fragments(&self) -> Vec<(u64, FragmentProfile)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut frags: Vec<(u64, FragmentProfile)> = inner
            .fragments
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        frags.sort_by(|(ka, fa), (kb, fb)| ka.cmp(kb).then(fa.sm.cmp(&fb.sm)));
        frags
    }

    /// Builds the canonical `grtx-prof-v1` [`ProfReport`]. Returns
    /// `None` when disabled.
    pub fn report(&self) -> Option<ProfReport> {
        self.inner.as_ref()?;
        Some(ProfReport::build(self.gpu_desc(), self.sorted_fragments()))
    }

    /// Exports the profile as a Chrome trace-event JSON document with
    /// **one track per simulated SM** and all timestamps in simulated
    /// cycles (1 tick = 1 cycle; `displayTimeUnit` stays ms, so Perfetto
    /// renders cycle counts as if they were microseconds — exact
    /// integers, no sub-tick rounding). Launches lay out back-to-back in
    /// canonical key order, each fragment contributing a `launch` span
    /// and one `warp` span per warp interval; SMs that executed no
    /// fragment flush no events and get no track. Returns `None` when
    /// disabled.
    pub fn chrome_trace(&self) -> Option<String> {
        self.inner.as_ref()?;
        let frags = self.sorted_fragments();
        let num_sms = self.gpu_desc().map_or_else(
            || frags.iter().map(|(_, f)| f.sm + 1).max().unwrap_or(1),
            |g| g.num_sms.max(1),
        );
        // Reuse telemetry's exporter through a virtual-clock handle: the
        // recorders never read a wall clock, every timestamp below comes
        // from the fragments' virtual SM clocks.
        let t = Telemetry::with_clock(ClockMode::Virtual);
        let mut recorders: Vec<_> = (0..num_sms)
            .map(|sm| t.recorder(format!("sm-{sm:02}")))
            .collect();
        let mut offset = 0u64;
        let mut i = 0;
        while i < frags.len() {
            let key = frags[i].0;
            let mut span = 0u64;
            while i < frags.len() && frags[i].0 == key {
                let f = &frags[i].1;
                span = span.max(f.busy_cycles);
                if let Some(rec) = recorders.get_mut(f.sm) {
                    rec.record_at("launch", key, offset, f.busy_cycles);
                    for w in &f.warps {
                        rec.record_at("warp", w.warp as u64, offset + w.start, w.end - w.start);
                    }
                }
                i += 1;
            }
            offset += span;
        }
        drop(recorders);
        t.chrome_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile(sm: usize, busy: u64) -> FragmentProfile {
        let mut rec = FragmentRecorder::new(sm);
        rec.admit(0);
        rec.warp_round(32, 32);
        rec.round_end(busy, 3, 1, 8);
        rec.retire(0);
        rec.finish(&GpuSim::new(GpuConfig::default().sm_slice()))
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        assert!(p.fragment_recorder(0).is_none());
        p.observe_gpu(&GpuConfig::default());
        p.submit(0, sample_profile(0, 100));
        assert!(p.report().is_none());
        assert!(p.chrome_trace().is_none());
        assert!(p.gpu_desc().is_none());
    }

    #[test]
    fn recorder_clock_is_a_pure_function_of_rounds() {
        let mut rec = FragmentRecorder::new(2);
        rec.admit(0);
        rec.admit(1);
        rec.warp_round(32, 32);
        rec.warp_round(16, 32);
        rec.round_end(500, 4, 2, 8);
        rec.retire(1);
        rec.warp_round(32, 32);
        rec.round_end(200, 4, 2, 8);
        rec.retire(0);
        rec.begin_phase(10);
        rec.admit(0); // warp 10 of the secondary phase
        rec.round_end(300, 0, 0, 5);
        rec.retire(0);
        assert_eq!(rec.now(), 1000);
        let profile = rec.finish(&GpuSim::new(GpuConfig::default().sm_slice()));
        assert_eq!(profile.sm, 2);
        assert_eq!(profile.busy_cycles, 1000);
        // Sorted by (start, warp); the clock runs on across phases.
        assert_eq!(
            profile.warps,
            vec![
                WarpInterval {
                    warp: 0,
                    start: 0,
                    end: 700
                },
                WarpInterval {
                    warp: 1,
                    start: 0,
                    end: 500
                },
                WarpInterval {
                    warp: 10,
                    start: 700,
                    end: 1000
                },
            ]
        );
        assert_eq!(profile.occupancy.len(), 3);
        assert_eq!(profile.occupancy[0].cycle, 500);
        assert_eq!(profile.occupancy[0].kbuffer, 8);
        assert_eq!(profile.lane_occupancy.count(), 3);
        assert_eq!(profile.divergence.max(), 16);
    }

    #[test]
    fn exports_sort_fragments_canonically() {
        let build = |submit_order: &[(u64, usize)]| {
            let p = Profiler::enabled();
            p.observe_gpu(&GpuConfig::default());
            for &(key, sm) in submit_order {
                p.submit(key, sample_profile(sm, 100 * (key + 1)));
            }
            (p.chrome_trace().unwrap(), p.report().unwrap().to_json())
        };
        let (trace_a, report_a) = build(&[(0, 0), (0, 1), (1, 0)]);
        let (trace_b, report_b) = build(&[(1, 0), (0, 1), (0, 0)]);
        assert_eq!(trace_a, trace_b, "arrival order must not leak");
        assert_eq!(report_a, report_b);
    }

    #[test]
    fn launches_lay_out_back_to_back() {
        let p = Profiler::enabled();
        p.observe_gpu(&GpuConfig::default());
        p.submit(0, sample_profile(0, 100));
        p.submit(1, sample_profile(0, 50));
        let trace = p.chrome_trace().unwrap();
        // Launch 1 starts where launch 0's slowest SM ended.
        assert!(trace.contains("\"name\":\"launch\",\"cat\":\"grtx\",\"ts\":0,\"dur\":100"));
        assert!(trace.contains("\"name\":\"launch\",\"cat\":\"grtx\",\"ts\":100,\"dur\":50"));
        // SMs that recorded fragments get a named track; idle SMs flush
        // no events and therefore no track.
        assert!(trace.contains("\"name\":\"sm-00\""));
        assert!(!trace.contains("\"name\":\"sm-07\""));
    }

    #[test]
    fn handles_compare_by_identity() {
        let a = Profiler::enabled();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, Profiler::enabled());
        assert_eq!(Profiler::disabled(), Profiler::disabled());
        assert_ne!(a, Profiler::disabled());
    }
}
