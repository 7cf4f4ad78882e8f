//! Per-ray multi-round tracing — the raygen-shader render loop of
//! Listing 1.

use crate::blend::BlendState;
use crate::kbuffer::{Entry, InsertOutcome, KBuffer};
use grtx_bvh::{trace_round, AccelStruct, AnyHitVerdict, CheckpointEntry, TraversalObserver};
use grtx_math::Ray;
use grtx_scene::GaussianScene;

/// Tracing discipline (Figs. 6 and 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// One traversal collecting every intersected Gaussian, sorted and
    /// blended afterwards (no ERT benefit during traversal).
    SingleRound,
    /// Multi-round k-buffer tracing, restarting each round from the BVH
    /// root (3DGRT baseline and GRTX-SW).
    MultiRoundRestart,
    /// Multi-round tracing with GRTX-HW traversal checkpointing and the
    /// eviction buffer.
    MultiRoundCheckpoint,
}

/// Where the per-ray k-buffer lives (Fig. 21: OptiX payload registers vs
/// Vulkan global-memory SoA).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KBufferStorage {
    /// OptiX-style payload registers: fast access, but payload limits
    /// cap `k` at 16.
    PayloadRegisters,
    /// Vulkan-style global-memory structure-of-arrays: coalesced but
    /// slightly costlier per sort step.
    GlobalSoA,
}

impl KBufferStorage {
    /// Relative cost multiplier on k-buffer sort steps.
    pub fn sort_cost_factor(self) -> f64 {
        match self {
            KBufferStorage::PayloadRegisters => 1.0,
            KBufferStorage::GlobalSoA => 1.25,
        }
    }
}

/// Per-ray tracing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceParams {
    /// k-buffer capacity (paper default: 16 baseline, 8 for GRTX).
    pub k: usize,
    /// Tracing discipline.
    pub mode: TraceMode,
    /// Early ray termination: stop once transmittance drops below this
    /// (the paper's "accumulated alpha exceeds a predefined threshold").
    pub min_transmittance: f32,
    /// Safety bound on rounds per ray.
    pub max_rounds: u32,
    /// Scene cut-off distance: Gaussians beyond it are not blended
    /// (used to composite secondary-ray objects, Fig. 23).
    pub t_scene_max: f32,
    /// k-buffer storage discipline (Fig. 21).
    pub storage: KBufferStorage,
}

impl Default for TraceParams {
    fn default() -> Self {
        Self {
            k: 16,
            mode: TraceMode::MultiRoundRestart,
            min_transmittance: 0.01,
            max_rounds: 1024,
            t_scene_max: f32::INFINITY,
            storage: KBufferStorage::GlobalSoA,
        }
    }
}

/// Whether the ray needs more rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundStatus {
    /// More Gaussians may remain: run another round.
    Continue,
    /// The ray saturated (ERT), exhausted the scene, or hit its round
    /// budget.
    Done,
}

/// Shader-side work performed in one round, for the cost model (the
/// simulator charges these; functional callers ignore them).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundReport {
    /// Continue or done.
    pub status: Option<RoundStatus>,
    /// Insertion-sort steps inside the any-hit shader.
    pub sort_steps: u64,
    /// Entries appended to the eviction buffer.
    pub eviction_writes: u64,
    /// Entries seeded from the eviction buffer into the k-buffer.
    pub eviction_reads: u64,
    /// Gaussians blended this round.
    pub blended: u32,
    /// Post-traversal sort steps (single-round mode only).
    pub deferred_sort_steps: u64,
    /// Largest k-buffer occupancy this round (single-round mode reports
    /// the full buffered hit list). Pure observability for the profiler's
    /// Fig. 20-style occupancy series — the cost model never reads it.
    pub kbuffer_high_water: u64,
}

impl RoundReport {
    /// `true` when the ray is finished.
    pub fn is_done(&self) -> bool {
        self.status == Some(RoundStatus::Done)
    }
}

/// Drives one ray to completion over multiple rounds, owning all per-ray
/// buffers (k-buffer, eviction buffer, ping-pong checkpoint buffers).
#[derive(Debug)]
pub struct RayTracer<'a> {
    accel: &'a AccelStruct,
    scene: &'a GaussianScene,
    ray: Ray,
    params: TraceParams,
    blend: BlendState,
    t_min: f32,
    ckpt_src: Vec<CheckpointEntry>,
    ckpt_dst: Vec<CheckpointEntry>,
    evictions: Vec<Entry>,
    rounds: u32,
    done: bool,
    /// Largest checkpoint-buffer occupancy seen (Fig. 20).
    pub peak_checkpoint_entries: usize,
    /// Largest eviction-buffer occupancy seen (Fig. 20).
    pub peak_eviction_entries: usize,
    /// When enabled, records the blended `(t, gaussian)` sequence for
    /// equivalence tests.
    pub record_blends: bool,
    /// The recorded sequence.
    pub blend_log: Vec<Entry>,
}

impl<'a> RayTracer<'a> {
    /// Creates a tracer for one ray.
    pub fn new(
        accel: &'a AccelStruct,
        scene: &'a GaussianScene,
        ray: Ray,
        params: TraceParams,
    ) -> Self {
        Self {
            accel,
            scene,
            ray,
            params,
            blend: BlendState::new(),
            t_min: 0.0,
            ckpt_src: Vec::new(),
            ckpt_dst: Vec::new(),
            evictions: Vec::new(),
            rounds: 0,
            done: false,
            peak_checkpoint_entries: 0,
            peak_eviction_entries: 0,
            record_blends: false,
            blend_log: Vec::new(),
        }
    }

    /// `true` once the ray has terminated.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Current checkpoint-buffer occupancy (entries pending replay next
    /// round) — the profiler samples this per tracing round.
    pub fn checkpoint_occupancy(&self) -> usize {
        self.ckpt_src.len()
    }

    /// Current eviction-buffer occupancy (entries awaiting k-buffer
    /// reseed) — the profiler samples this per tracing round.
    pub fn eviction_occupancy(&self) -> usize {
        self.evictions.len()
    }

    /// Final (or in-progress) blend state.
    pub fn blend_state(&self) -> &BlendState {
        &self.blend
    }

    /// Executes one tracing round (`traceRayEXT` + blending). No-op
    /// returning `Done` if the ray already finished.
    pub fn round(&mut self, observer: &mut dyn TraversalObserver) -> RoundReport {
        if self.done {
            return RoundReport {
                status: Some(RoundStatus::Done),
                ..Default::default()
            };
        }
        self.rounds += 1;
        match self.params.mode {
            TraceMode::SingleRound => self.single_round(observer),
            TraceMode::MultiRoundRestart => self.multi_round(observer, false),
            TraceMode::MultiRoundCheckpoint => self.multi_round(observer, true),
        }
    }

    fn single_round(&mut self, observer: &mut dyn TraversalObserver) -> RoundReport {
        let mut all: Vec<Entry> = Vec::new();
        trace_round(
            self.accel,
            self.scene,
            &self.ray,
            0.0,
            None,
            None,
            observer,
            &mut |g, t| {
                all.push((t, g));
                AnyHitVerdict::Ignore
            },
        );
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.dedup();
        let n = all.len() as u64;
        // Post-traversal sort: n log n comparison steps.
        let deferred_sort_steps = if n > 1 {
            n * (64 - (n - 1).leading_zeros() as u64)
        } else {
            0
        };
        let mut blended = 0;
        for (t, g) in all {
            if t > self.params.t_scene_max {
                break;
            }
            self.blend_one(t, g);
            blended += 1;
            if self.blend.saturated(self.params.min_transmittance) {
                break;
            }
        }
        self.done = true;
        RoundReport {
            status: Some(RoundStatus::Done),
            blended,
            deferred_sort_steps,
            kbuffer_high_water: n,
            ..Default::default()
        }
    }

    fn multi_round(
        &mut self,
        observer: &mut dyn TraversalObserver,
        checkpointing: bool,
    ) -> RoundReport {
        let k = self.params.k;
        let mut kbuf = KBuffer::new(k);
        let mut report = RoundReport::default();

        // moveEvictToKBuf (Listing 1, line 3): seed the k closest evicted
        // Gaussians; the remainder stays buffered for later rounds.
        if checkpointing && !self.evictions.is_empty() {
            self.evictions
                .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let take = self.evictions.len().min(k);
            let seeds: Vec<Entry> = self.evictions.drain(..take).collect();
            kbuf.seed(&seeds);
            report.eviction_reads = take as u64;
        }

        let replay_owned;
        let replay: Option<&[CheckpointEntry]> = if checkpointing && self.rounds > 1 {
            replay_owned = std::mem::take(&mut self.ckpt_src);
            Some(&replay_owned)
        } else {
            None
        };
        self.ckpt_dst.clear();

        let mut sort_steps = 0u64;
        let mut new_evictions: Vec<Entry> = Vec::new();
        trace_round(
            self.accel,
            self.scene,
            &self.ray,
            self.t_min,
            replay,
            if checkpointing {
                Some(&mut self.ckpt_dst)
            } else {
                None
            },
            observer,
            &mut |g, t| match kbuf.insert(t, g) {
                InsertOutcome::Accepted {
                    rejected,
                    sort_steps: s,
                } => {
                    sort_steps += s as u64;
                    if let Some(e) = rejected {
                        if checkpointing {
                            new_evictions.push(e);
                        }
                    }
                    AnyHitVerdict::Ignore
                }
                InsertOutcome::RejectedIncoming { sort_steps: s } => {
                    sort_steps += s as u64;
                    if checkpointing {
                        new_evictions.push((t, g));
                    }
                    AnyHitVerdict::Commit
                }
                InsertOutcome::Duplicate => AnyHitVerdict::Ignore,
            },
        );
        report.sort_steps = sort_steps;
        report.eviction_writes = new_evictions.len() as u64;
        if checkpointing {
            self.evictions.extend(new_evictions);
            std::mem::swap(&mut self.ckpt_src, &mut self.ckpt_dst);
            self.peak_checkpoint_entries = self.peak_checkpoint_entries.max(self.ckpt_src.len());
            self.peak_eviction_entries = self.peak_eviction_entries.max(self.evictions.len());
        }

        // Blend the k-buffer front-to-back with ERT.
        let entries = kbuf.drain_sorted();
        let n = entries.len();
        report.kbuffer_high_water = n as u64;
        for (t, g) in entries {
            if t > self.params.t_scene_max {
                self.done = true;
                break;
            }
            self.blend_one(t, g);
            report.blended += 1;
            self.t_min = t;
            if self.blend.saturated(self.params.min_transmittance) {
                self.done = true;
                break;
            }
        }
        // Fewer than k found after a complete traversal: scene exhausted
        // (Listing 1, line 6: `if prd.size < k: break`).
        if !self.done && n < k {
            self.done = true;
        }
        if !self.done && self.rounds >= self.params.max_rounds {
            self.done = true;
        }
        report.status = Some(if self.done {
            RoundStatus::Done
        } else {
            RoundStatus::Continue
        });
        report
    }

    fn blend_one(&mut self, t: f32, g: u32) {
        if self.record_blends {
            self.blend_log.push((t, g));
        }
        self.blend.blend(self.scene.gaussian(g as usize), &self.ray);
    }

    /// Runs the ray to completion with the given observer, returning the
    /// final blend state (functional path used by tests and examples).
    pub fn run_to_completion(&mut self, observer: &mut dyn TraversalObserver) -> BlendState {
        while !self.done {
            self.round(observer);
        }
        self.blend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grtx_bvh::{BoundingPrimitive, LayoutConfig, NullObserver};
    use grtx_math::Vec3;
    use grtx_scene::Gaussian;

    fn line_scene(n: usize) -> GaussianScene {
        (0..n)
            .map(|i| {
                Gaussian::isotropic(
                    Vec3::new(0.0, 0.0, i as f32 * 1.5),
                    0.25,
                    0.3,
                    Vec3::new((i % 3) as f32 / 2.0, 0.5, 1.0 - (i % 3) as f32 / 2.0),
                )
            })
            .collect()
    }

    fn accel(scene: &GaussianScene) -> AccelStruct {
        AccelStruct::build(
            scene,
            BoundingPrimitive::UnitSphere,
            true,
            &LayoutConfig::default(),
        )
    }

    fn ray() -> Ray {
        Ray::new(Vec3::new(0.02, 0.01, -4.0), Vec3::Z)
    }

    fn trace(
        scene: &GaussianScene,
        accel: &AccelStruct,
        params: TraceParams,
    ) -> (BlendState, Vec<Entry>) {
        let mut tracer = RayTracer::new(accel, scene, ray(), params);
        tracer.record_blends = true;
        let state = tracer.run_to_completion(&mut NullObserver);
        (state, tracer.blend_log)
    }

    #[test]
    fn all_three_modes_blend_identically() {
        let scene = line_scene(30);
        let accel = accel(&scene);
        let base = TraceParams {
            k: 4,
            ..Default::default()
        };
        let (s_single, log_single) = trace(
            &scene,
            &accel,
            TraceParams {
                mode: TraceMode::SingleRound,
                ..base
            },
        );
        let (s_restart, log_restart) = trace(
            &scene,
            &accel,
            TraceParams {
                mode: TraceMode::MultiRoundRestart,
                ..base
            },
        );
        let (s_ckpt, log_ckpt) = trace(
            &scene,
            &accel,
            TraceParams {
                mode: TraceMode::MultiRoundCheckpoint,
                ..base
            },
        );

        assert_eq!(log_single, log_restart, "single vs restart blend order");
        assert_eq!(log_restart, log_ckpt, "restart vs checkpoint blend order");
        assert!((s_single.color - s_restart.color).length() < 1e-5);
        assert!((s_restart.color - s_ckpt.color).length() < 1e-5);
    }

    #[test]
    fn multi_round_uses_multiple_rounds_for_small_k() {
        let scene = line_scene(30);
        let accel = accel(&scene);
        let mut tracer = RayTracer::new(
            &accel,
            &scene,
            ray(),
            TraceParams {
                k: 4,
                mode: TraceMode::MultiRoundRestart,
                ..Default::default()
            },
        );
        tracer.run_to_completion(&mut NullObserver);
        assert!(tracer.rounds() > 1, "30 hits with k=4 need several rounds");
    }

    #[test]
    fn ert_stops_early_on_opaque_scene() {
        let scene: GaussianScene = (0..50)
            .map(|i| {
                Gaussian::isotropic(Vec3::new(0.0, 0.0, i as f32 * 1.5), 0.25, 0.95, Vec3::ONE)
            })
            .collect();
        let accel = accel(&scene);
        let mut tracer = RayTracer::new(
            &accel,
            &scene,
            ray(),
            TraceParams {
                k: 8,
                mode: TraceMode::MultiRoundRestart,
                ..Default::default()
            },
        );
        tracer.record_blends = true;
        let state = tracer.run_to_completion(&mut NullObserver);
        assert!(state.saturated(0.01));
        assert!(
            tracer.blend_log.len() < 10,
            "ERT should stop long before 50: blended {}",
            tracer.blend_log.len()
        );
    }

    #[test]
    fn checkpoint_mode_tracks_buffer_peaks() {
        let scene = line_scene(40);
        let accel = accel(&scene);
        let mut tracer = RayTracer::new(
            &accel,
            &scene,
            ray(),
            TraceParams {
                k: 4,
                mode: TraceMode::MultiRoundCheckpoint,
                ..Default::default()
            },
        );
        tracer.run_to_completion(&mut NullObserver);
        assert!(tracer.peak_checkpoint_entries > 0 || tracer.peak_eviction_entries > 0);
    }

    #[test]
    fn t_scene_max_cuts_blending() {
        let scene = line_scene(30);
        let accel = accel(&scene);
        let cut = TraceParams {
            k: 8,
            t_scene_max: 10.0,
            ..Default::default()
        };
        let (_, log) = trace(&scene, &accel, cut);
        assert!(log.iter().all(|&(t, _)| t <= 10.0));
        let (_, full_log) = trace(
            &scene,
            &accel,
            TraceParams {
                k: 8,
                ..Default::default()
            },
        );
        assert!(full_log.len() > log.len());
    }

    #[test]
    fn done_ray_round_is_noop() {
        let scene = line_scene(5);
        let accel = accel(&scene);
        let mut tracer = RayTracer::new(&accel, &scene, ray(), TraceParams::default());
        tracer.run_to_completion(&mut NullObserver);
        let rounds_before = tracer.rounds();
        let report = tracer.round(&mut NullObserver);
        assert!(report.is_done());
        assert_eq!(tracer.rounds(), rounds_before);
    }

    #[test]
    fn miss_ray_terminates_immediately() {
        let scene = line_scene(5);
        let accel = accel(&scene);
        let miss = Ray::new(Vec3::new(100.0, 100.0, -5.0), Vec3::Z);
        let mut tracer = RayTracer::new(&accel, &scene, miss, TraceParams::default());
        let state = tracer.run_to_completion(&mut NullObserver);
        assert_eq!(tracer.rounds(), 1);
        assert_eq!(state.blended, 0);
        assert_eq!(state.transmittance, 1.0);
    }
}
