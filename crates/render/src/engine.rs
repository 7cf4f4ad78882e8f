//! The parallel render engine: per-SM fragment simulation fanned out
//! over host threads, for one camera or a whole batch of them.
//!
//! # Execution model
//!
//! A simulated render decomposes into one *fragment* per simulated SM:
//! the warps assigned to that SM (round-robin, as the raygen tile
//! scheduler distributes them), simulated against that SM's private L1
//! and its address-interleaved slice of the L2 ([`GpuConfig::sm_slice`]).
//! Because a fragment never observes another SM's memory accesses, each
//! one is a closed deterministic computation — so fragments can execute
//! on any number of worker threads in any order and still produce the
//! same per-SM cycle counts, statistics, and blend states.
//!
//! # Batched launches
//!
//! A batch of cameras over one scene is a sequence of raygen *launches*
//! against the same acceleration structure. Each launch restarts the
//! warp round-robin at SM 0 and starts from cold per-launch SM state, so
//! the fragment unit generalizes to **fragments = SM × camera**: warp
//! `w` of camera `c` runs on [`WarpSchedule::sm_of_launch_warp`]`(w)`
//! inside fragment `(c, s)`, and every `(camera, SM)` fragment is still
//! a closed deterministic computation. [`RenderEngine::try_render_batch`]
//! fans all `cameras × SMs` fragments over one worker pool — amortizing
//! thread spin-up and sharing the structure — and merges them per
//! camera in fixed `(camera, SM)` order, so each camera's report is
//! **bit-identical** to a standalone [`RenderEngine::try_render`] of
//! that camera. Single-camera `try_render` *is* the batch path at
//! `N = 1`.
//!
//! After the fan-out, per-fragment state is merged in fixed SM order
//! (miden-style fragment replay): [`grtx_sim::SimStats`] counters sum (peaks take
//! the max), memory-traffic counters sum with the touched-line footprint
//! unioned, per-warp `(compute, stall)` times land in a launch-indexed
//! vector that the [`WarpSchedule`] makespan model reduces per camera
//! (batch-wide flat storage addresses warps with
//! [`WarpSchedule::launch_warp_bases`]), and blend states scatter back to
//! their pixels. The result is **bit-identical** for `threads = 1` and
//! `threads = N` — a property the test-suite enforces on images, cycles,
//! and every counter.
//!
//! # Stage-level building blocks
//!
//! External drivers (the `grtx-pipeline` frame-stream pipeline) need the
//! same three phases as individually schedulable units of work, so the
//! engine exposes them: [`RenderEngine::plan_launch`] (pure, per camera),
//! [`RenderEngine::simulate_fragment`] (one closed `(camera, SM)`
//! fragment), and [`RenderEngine::merge_launch`] (fixed-SM-order merge of
//! one camera's fragments). Driving those three by hand — in any
//! interleaving across cameras, frames, or threads — produces reports
//! **bit-identical** to [`RenderEngine::try_render`], because
//! `try_render_batch` itself is nothing more than that plan → fragment →
//! merge sequence.

use crate::blend::BlendState;
use crate::image::Image;
use crate::renderer::{shader_cycles, RenderConfig, RenderReport, SecondaryBreakdown};
use crate::tracer::{RayTracer, TraceParams};
use grtx_bvh::{AccelStruct, BoundingPrimitive};
use grtx_fault::GrtxError;
use grtx_math::Ray;
use grtx_prof::{FragmentProfile, FragmentRecorder, Profiler};
use grtx_scene::{Camera, EffectObjects, GaussianScene};
use grtx_sim::fasthash::FastMap;
use grtx_sim::{GpuConfig, GpuSim, RayTraceState, WarpSchedule};
use grtx_telemetry::Telemetry;
use std::collections::VecDeque;

/// One traced job: pixel index, ray, scene cut-off.
struct Job {
    pixel: usize,
    ray: Ray,
    t_cut: f32,
}

/// One camera's planned raygen launch: its primary/secondary jobs and
/// warp counts, in the camera-local namespace (job and warp indices both
/// start at 0 for every launch).
///
/// Produced by [`RenderEngine::plan_launch`], consumed by
/// [`RenderEngine::simulate_fragment`] and
/// [`RenderEngine::merge_launch`]. Planning is pure and deterministic —
/// it depends only on the camera, the effect objects, and the warp size —
/// so a launch may be planned once and simulated any number of times.
pub struct CameraLaunch {
    primary_jobs: Vec<Job>,
    secondary_jobs: Vec<Job>,
    primary_warps: usize,
    secondary_warps: usize,
}

impl CameraLaunch {
    /// Partitions a camera's pixels into primary jobs (with effect
    /// cut-offs) and secondary jobs — serial and deterministic.
    fn plan(camera: &Camera, effects: Option<&EffectObjects>, warp_size: usize) -> Self {
        let mut primary_jobs: Vec<Job> = Vec::with_capacity(camera.pixel_count());
        let mut secondary_jobs: Vec<Job> = Vec::new();
        for (pixel, ray) in camera.rays() {
            let mut t_cut = f32::INFINITY;
            if let Some(objects) = effects {
                if let Some(hit) = objects.intersect(&ray) {
                    t_cut = hit.t();
                    secondary_jobs.push(Job {
                        pixel,
                        ray: hit.secondary(),
                        t_cut: f32::INFINITY,
                    });
                }
            }
            primary_jobs.push(Job { pixel, ray, t_cut });
        }
        let primary_warps = primary_jobs.len().div_ceil(warp_size);
        let secondary_warps = secondary_jobs.len().div_ceil(warp_size);
        Self {
            primary_jobs,
            secondary_jobs,
            primary_warps,
            secondary_warps,
        }
    }

    /// Warps this launch issues (primary + secondary).
    pub fn total_warps(&self) -> usize {
        self.primary_warps + self.secondary_warps
    }

    /// Traced jobs this launch issues (primary + secondary rays).
    pub fn job_count(&self) -> usize {
        self.primary_jobs.len() + self.secondary_jobs.len()
    }
}

/// Everything one `(camera, SM)` fragment produces; merged per camera
/// in SM order afterwards. Indices are camera-local.
///
/// Opaque to callers: produced by [`RenderEngine::simulate_fragment`],
/// consumed (in SM order) by [`RenderEngine::merge_launch`].
pub struct SmOutcome {
    /// The fragment's simulator (stats + memory counters).
    sim: GpuSim,
    /// `(launch-local warp index, (compute, stall))` for this SM's warps.
    warp_times: Vec<(usize, (u64, u64))>,
    /// `(launch-local job index, final blend state)` for this SM's rays.
    blends: Vec<(usize, BlendState)>,
    /// The fragment's microarchitecture profile, recorded only when the
    /// engine's [`Profiler`] is enabled. Rides on the side — never into
    /// `SimStats`/`RenderReport` — and is drained into the profiler sink
    /// at merge time.
    profile: Option<FragmentProfile>,
}

/// Whole-image renderer executing simulated SMs in parallel.
///
/// `threads = 0` (the default) uses every available core, capped at the
/// parallel work available (simulated SMs × cameras). Any thread count
/// produces bit-identical images, cycle totals, and statistics; threads
/// only change wall-clock time.
#[derive(Debug, Clone)]
pub struct RenderEngine {
    gpu: GpuConfig,
    threads: usize,
    telemetry: Telemetry,
    profiler: Profiler,
}

impl RenderEngine {
    /// Creates an engine for the given GPU configuration, using all
    /// available cores.
    pub fn new(gpu: GpuConfig) -> Self {
        Self {
            gpu,
            threads: 0,
            telemetry: Telemetry::disabled(),
            profiler: Profiler::disabled(),
        }
    }

    /// Sets the worker-thread count (`0` = all available cores). The
    /// count is capped at the fragment count (simulated SMs × cameras),
    /// the unit of parallel work.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a telemetry handle: render workers record per-fragment
    /// spans and the merge records one span per camera. The default
    /// (disabled) handle records nothing and costs one branch per event.
    /// Telemetry never changes images, cycles, or statistics.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a simulated-cycle profiler: fragments record per-SM
    /// hardware counters, warp timelines, and per-round occupancy on the
    /// virtual clock, drained into the handle's sink at merge time. The
    /// default (disabled) handle records nothing, and every hook in the
    /// warp queue costs one `Option` branch. Profiling never changes
    /// images, cycles, or statistics.
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// The GPU configuration this engine simulates.
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// Worker threads a single-camera render will actually use.
    pub fn effective_threads(&self) -> usize {
        self.effective_threads_for(1)
    }

    /// Worker threads a `cameras`-view batch will actually use: the
    /// requested count capped at `SMs × cameras` fragments.
    pub fn effective_threads_for(&self, cameras: usize) -> usize {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let requested = if self.threads == 0 { hw } else { self.threads };
        requested.clamp(1, self.gpu.num_sms.max(1) * cameras.max(1))
    }

    /// Renders a camera view through the simulated GPU.
    ///
    /// With `effects`, rays hitting the glass sphere / mirror spawn
    /// secondary rays whose Gaussian traversal is simulated separately
    /// (Fig. 23) and composited into the image.
    ///
    /// This is [`Self::try_render_batch`] at `N = 1`, the only render
    /// body, and it rejects the same inputs with the same typed
    /// [`GrtxError`]s.
    pub fn try_render(
        &self,
        accel: &AccelStruct,
        scene: &GaussianScene,
        camera: &Camera,
        effects: Option<&EffectObjects>,
        config: &RenderConfig,
    ) -> Result<RenderReport, GrtxError> {
        let mut reports =
            self.try_render_batch(accel, scene, std::slice::from_ref(camera), effects, config)?;
        Ok(reports.pop().expect("one camera yields one report"))
    }

    /// Renders every camera of a batch against one shared acceleration
    /// structure in a single fan-out.
    ///
    /// All cameras' launches flatten into `SMs × cameras` fragments over
    /// one worker pool, amortizing engine warm-up and structure sharing
    /// across views; per-fragment state merges per camera in fixed
    /// `(camera, SM)` order. Each returned report — image, cycles, and
    /// every statistic — is **bit-identical** to a standalone
    /// [`Self::try_render`] of that camera at any thread count, because
    /// each launch restarts the warp round-robin and simulates against
    /// cold per-launch SM state.
    ///
    /// With `effects`, the same effect objects apply to every camera.
    /// Returns one report per camera, in input order.
    ///
    /// Rejects degenerate GPU and render configurations
    /// ([`GrtxError::InvalidConfig`]), zero-resolution or non-finite
    /// cameras ([`GrtxError::InvalidCamera`]), and scenes carrying
    /// non-finite Gaussians ([`GrtxError::InvalidScene`]) before any
    /// work happens.
    pub fn try_render_batch(
        &self,
        accel: &AccelStruct,
        scene: &GaussianScene,
        cameras: &[Camera],
        effects: Option<&EffectObjects>,
        config: &RenderConfig,
    ) -> Result<Vec<RenderReport>, GrtxError> {
        validate_gpu(&self.gpu)?;
        validate_render(config)?;
        for camera in cameras {
            validate_camera(camera)?;
        }
        scene.validate()?;
        if cameras.is_empty() {
            // An empty batch renders nothing: no planning, no worker
            // fan-out, no reports.
            return Ok(Vec::new());
        }
        let warp_size = self.gpu.warp_size.max(1);
        let num_sms = self.gpu.num_sms.max(1);
        let threads = self.effective_threads_for(cameras.len());

        // Plan every camera's launch up front, serially: planning is
        // pure and costs well under a millisecond per camera, next to
        // seconds of fragment simulation.
        let launches: Vec<CameraLaunch> = cameras
            .iter()
            .map(|camera| CameraLaunch::plan(camera, effects, warp_size))
            .collect();
        // Single source of the warp-to-SM policy: the same schedule that
        // reduces warp times to a makespan decides which fragment
        // simulates each warp.
        let schedule = WarpSchedule::new(&self.gpu);

        // Fan the SM × camera fragments out over worker threads.
        // Fragment `f` is camera `f / SMs`, SM `f % SMs`, and goes to
        // worker `f % threads`; each fragment is self-contained, so the
        // assignment only affects load balance, never results.
        let fragments = cameras.len() * num_sms;
        let mut outcomes: Vec<Option<SmOutcome>> = (0..fragments).map(|_| None).collect();
        std::thread::scope(|scope| {
            let launches = &launches;
            let schedule = &schedule;
            let handles: Vec<_> = (0..threads)
                .map(|worker| {
                    scope.spawn(move || {
                        let mut recorder = self
                            .telemetry
                            .recorder(format!("render-worker-{worker:02}"));
                        (worker..fragments)
                            .step_by(threads)
                            .map(|fragment| {
                                let launch = &launches[fragment / num_sms];
                                let sm = fragment % num_sms;
                                let outcome =
                                    recorder.scope("render.fragment", fragment as u64, |_| {
                                        self.run_sm_fragment(
                                            sm, schedule, accel, scene, config, launch, warp_size,
                                        )
                                    });
                                (fragment, outcome)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (fragment, outcome) in handle.join().expect("render worker panicked") {
                    outcomes[fragment] = Some(outcome);
                }
            }
        });

        // Merge per camera in fixed (camera, SM) order — the same merge
        // the pipeline drives through `merge_launch`. Batch-wide flat
        // warp storage would be addressed by
        // `WarpSchedule::launch_warp_bases`; here each camera's warps
        // merge launch-locally, which holds identical values.
        let mut outcomes = outcomes.into_iter();
        let mut merge_recorder = self.telemetry.recorder("render-merge");
        Ok(launches
            .iter()
            .zip(cameras)
            .enumerate()
            .map(|(cam, (launch, camera))| {
                let mine = outcomes
                    .by_ref()
                    .take(num_sms)
                    .map(|o| o.expect("every SM fragment ran"));
                merge_recorder.scope("render.merge", cam as u64, |_| {
                    merge_camera(
                        launch,
                        camera,
                        config,
                        &schedule,
                        mine,
                        &self.profiler,
                        cam as u64,
                    )
                })
            })
            .collect())
    }

    /// Plans one camera's raygen launch: pixels partition into primary
    /// jobs (with effect-object cut-offs) and secondary jobs, serially
    /// and deterministically.
    ///
    /// Planning depends only on the camera, the effects, and this
    /// engine's warp size — never on the scene or the acceleration
    /// structure — so the update stage of a frame pipeline can plan
    /// launches before the frame's structure exists.
    pub fn plan_launch(&self, camera: &Camera, effects: Option<&EffectObjects>) -> CameraLaunch {
        CameraLaunch::plan(camera, effects, self.gpu.warp_size.max(1))
    }

    /// Fragments a planned launch decomposes into: one per simulated SM.
    pub fn fragments_per_launch(&self) -> usize {
        self.gpu.num_sms.max(1)
    }

    /// Simulates fragment `sm` of a planned launch: the launch's warps
    /// assigned to that SM, against the SM's private L1 and L2 slice,
    /// from cold per-launch state.
    ///
    /// Each fragment is a closed deterministic computation — fragments
    /// of one launch (or of many launches over many scenes) may execute
    /// on any thread in any order.
    ///
    /// # Panics
    ///
    /// Panics if `sm >= self.fragments_per_launch()`.
    pub fn simulate_fragment(
        &self,
        accel: &AccelStruct,
        scene: &GaussianScene,
        config: &RenderConfig,
        launch: &CameraLaunch,
        sm: usize,
    ) -> SmOutcome {
        assert!(
            sm < self.fragments_per_launch(),
            "fragment {sm} out of range: engine simulates {} SMs",
            self.fragments_per_launch()
        );
        let schedule = WarpSchedule::new(&self.gpu);
        self.run_sm_fragment(
            sm,
            &schedule,
            accel,
            scene,
            config,
            launch,
            self.gpu.warp_size.max(1),
        )
    }

    /// Merges one launch's fragment outcomes — **in SM order** — into
    /// the camera's report.
    ///
    /// The result is bit-identical to [`Self::try_render`] of the same
    /// camera: `try_render_batch` is exactly this merge applied per
    /// camera.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes.len() != self.fragments_per_launch()`.
    pub fn merge_launch(
        &self,
        launch: &CameraLaunch,
        camera: &Camera,
        config: &RenderConfig,
        outcomes: Vec<SmOutcome>,
    ) -> RenderReport {
        self.merge_launch_keyed(0, launch, camera, config, outcomes)
    }

    /// [`Self::merge_launch`] with an explicit profiler launch key.
    ///
    /// When the engine profiles, every fragment profile lands in the sink
    /// under `key`, and exports order launches by it. Drivers that merge
    /// many launches through one engine (the frame pipeline keys by
    /// `(frame << 32) | camera`) must pass distinct keys so per-launch
    /// rows stay separable; `merge_launch` files everything under key 0.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes.len() != self.fragments_per_launch()`.
    pub fn merge_launch_keyed(
        &self,
        key: u64,
        launch: &CameraLaunch,
        camera: &Camera,
        config: &RenderConfig,
        outcomes: Vec<SmOutcome>,
    ) -> RenderReport {
        assert_eq!(
            outcomes.len(),
            self.fragments_per_launch(),
            "merge needs exactly one outcome per SM, in SM order"
        );
        let schedule = WarpSchedule::new(&self.gpu);
        merge_camera(
            launch,
            camera,
            config,
            &schedule,
            outcomes,
            &self.profiler,
            key,
        )
    }

    /// Simulates one `(camera, SM)` fragment: the launch's primary warps
    /// to completion, then its secondary warps, against its own cold L1
    /// + L2 slice.
    #[allow(clippy::too_many_arguments)]
    fn run_sm_fragment(
        &self,
        sm: usize,
        schedule: &WarpSchedule,
        accel: &AccelStruct,
        scene: &GaussianScene,
        config: &RenderConfig,
        launch: &CameraLaunch,
        warp_size: usize,
    ) -> SmOutcome {
        let mut sim = GpuSim::sm_shard(&self.gpu);
        // When profiling, this fragment gets its own recorder on the
        // SM-local virtual clock; the finished profile snapshots the
        // fragment's private counters *before* the merge absorbs them,
        // which is what makes the counter matrix sum exactly to the
        // global `SimStats`.
        self.profiler.observe_gpu(&self.gpu);
        let mut profile = self.profiler.fragment_recorder(sm);
        let mut warp_times = Vec::new();
        let mut blends = Vec::new();
        // Secondary warps continue the round-robin where the primary
        // warps left off. The two phases run back-to-back, preserving the
        // seed renderer's ordering (all primaries retire before any
        // secondary starts).
        let phases: [(&[Job], usize, usize, usize); 2] = [
            (&launch.primary_jobs, launch.primary_warps, 0, 0),
            (
                &launch.secondary_jobs,
                launch.secondary_warps,
                launch.primary_warps,
                launch.primary_jobs.len(),
            ),
        ];
        for (jobs, warp_count, warp_base, job_base) in phases {
            let my_warps: Vec<usize> = (0..warp_count)
                .filter(|w| schedule.sm_of_launch_warp(warp_base + w) == sm)
                .collect();
            if let Some(rec) = profile.as_mut() {
                rec.begin_phase(warp_base);
            }
            run_warp_queue(
                &mut sim,
                accel,
                scene,
                jobs,
                config,
                &my_warps,
                warp_size,
                profile.as_mut(),
                |warp, times| warp_times.push((warp_base + warp, times)),
                |job, blend| blends.push((job_base + job, blend)),
            );
        }
        let profile = profile.map(|rec| rec.finish(&sim));
        SmOutcome {
            sim,
            warp_times,
            blends,
            profile,
        }
    }
}

/// Merges one camera's fragment outcomes in the order given (callers
/// pass SM order): warp times land at their launch-local indices, blend
/// states at their jobs, and the per-SM simulators absorb in sequence.
fn merge_camera(
    launch: &CameraLaunch,
    camera: &Camera,
    config: &RenderConfig,
    schedule: &WarpSchedule,
    outcomes: impl IntoIterator<Item = SmOutcome>,
    profiler: &Profiler,
    key: u64,
) -> RenderReport {
    let mut warps = vec![(0u64, 0u64); launch.total_warps()];
    let mut primary_blends = vec![BlendState::new(); launch.primary_jobs.len()];
    let mut secondary_blends = vec![BlendState::new(); launch.secondary_jobs.len()];
    let mut agg: Option<GpuSim> = None;
    for mut outcome in outcomes {
        // Fragment profiles detach before the sims fold together: the
        // sink receives per-(launch, SM) snapshots and re-sorts every
        // export by (key, SM), so concurrent camera merges may submit in
        // any order.
        if let Some(profile) = outcome.profile.take() {
            profiler.submit(key, profile);
        }
        for (warp, times) in &outcome.warp_times {
            warps[*warp] = *times;
        }
        for (job, blend) in &outcome.blends {
            if *job < launch.primary_jobs.len() {
                primary_blends[*job] = *blend;
            } else {
                secondary_blends[*job - launch.primary_jobs.len()] = *blend;
            }
        }
        match agg.as_mut() {
            None => agg = Some(outcome.sim),
            Some(acc) => acc.absorb(&outcome.sim),
        }
    }
    let sim = agg.expect("at least one SM fragment");
    compose_report(
        launch,
        camera,
        config,
        schedule,
        &warps,
        &primary_blends,
        &secondary_blends,
        sim,
    )
}

/// Composes one camera's image and report from its merged launch state.
#[allow(clippy::too_many_arguments)]
fn compose_report(
    launch: &CameraLaunch,
    camera: &Camera,
    config: &RenderConfig,
    schedule: &WarpSchedule,
    all_warps: &[(u64, u64)],
    primary_blends: &[BlendState],
    secondary_blends: &[BlendState],
    sim: GpuSim,
) -> RenderReport {
    // Background-filled canvas: fisheye cameras skip pixels outside the
    // image circle, and those must show the background, not black.
    let mut image = Image::filled(camera.width, camera.height, config.background);
    for (job, blend) in launch.primary_jobs.iter().zip(primary_blends) {
        image.set_pixel(job.pixel, blend.over_background(config.background));
    }
    if !launch.secondary_jobs.is_empty() {
        // Pixel -> primary blend index (cameras may skip pixels, so
        // the job index is not the pixel index).
        let primary_of_pixel: FastMap<u64, usize> = launch
            .primary_jobs
            .iter()
            .enumerate()
            .map(|(i, job)| (job.pixel as u64, i))
            .collect();
        for (job, blend) in launch.secondary_jobs.iter().zip(secondary_blends) {
            // The primary path's remaining transmittance scales the
            // reflected/refracted radiance.
            let primary = primary_of_pixel
                .get(&(job.pixel as u64))
                .map(|&i| primary_blends[i])
                .expect("secondary jobs come from primary pixels");
            let color =
                primary.color + blend.over_background(config.background) * primary.transmittance;
            image.set_pixel(job.pixel, color);
        }
    }

    let cycles = schedule.makespan(all_warps);
    let secondary = if launch.secondary_jobs.is_empty() {
        None
    } else {
        Some(SecondaryBreakdown {
            primary_cycles: schedule.makespan(&all_warps[..launch.primary_warps]),
            secondary_cycles: schedule
                .makespan_from(launch.primary_warps, &all_warps[launch.primary_warps..]),
            secondary_rays: launch.secondary_jobs.len() as u64,
        })
    };

    RenderReport {
        time_ms: sim.cycles_to_ms(cycles),
        cycles,
        l1_hit_rate: sim.mem.l1_hit_rate(),
        l2_accesses: sim.mem.l2_structure_accesses,
        dram_accesses: sim.mem.dram_structure_accesses,
        avg_fetch_latency: sim.stats.avg_fetch_latency(),
        footprint_bytes: sim.mem.footprint_bytes(),
        stats: sim.stats,
        image,
        secondary,
    }
}

/// One resident warp being executed round-by-round.
struct WarpExec<'a> {
    tracers: Vec<RayTracer<'a>>,
    states: Vec<RayTraceState>,
    compute: u64,
    stall: u64,
    index: usize,
}

impl WarpExec<'_> {
    fn is_done(&self) -> bool {
        self.tracers.iter().all(RayTracer::is_done)
    }
}

/// Executes one SM's warp queue exactly as the RT unit's warp buffer
/// does: up to `warp_buffer_size` warps stay resident and advance one
/// round at a time.
///
/// This interleaving is what gives the cache model realistic contention —
/// running each warp to completion in isolation would overstate
/// cross-round L1 locality and hide the redundant-traversal cost GRTX-HW
/// removes.
#[allow(clippy::too_many_arguments)]
fn run_warp_queue<'a>(
    sim: &mut GpuSim,
    accel: &'a AccelStruct,
    scene: &'a GaussianScene,
    jobs: &'a [Job],
    config: &RenderConfig,
    warps: &[usize],
    warp_size: usize,
    mut profile: Option<&mut FragmentRecorder>,
    mut on_warp_done: impl FnMut(usize, (u64, u64)),
    mut on_blend: impl FnMut(usize, BlendState),
) {
    let round_overhead = sim.config.costs.round_overhead;
    let buffer_depth = sim.config.warp_buffer_size.max(1);
    let mut pending: VecDeque<usize> = warps.iter().copied().collect();
    let mut resident: Vec<WarpExec<'a>> = Vec::new();
    // Retired warps hand their per-ray fetch logs back here, so admitted
    // warps reuse the allocations instead of regrowing them.
    let mut spare_states: Vec<Vec<RayTraceState>> = Vec::new();

    let make_exec = |w: usize, mut states: Vec<RayTraceState>| -> WarpExec<'a> {
        let chunk = &jobs[w * warp_size..((w + 1) * warp_size).min(jobs.len())];
        let tracers: Vec<RayTracer<'a>> = chunk
            .iter()
            .map(|job| {
                let params = TraceParams {
                    t_scene_max: job.t_cut,
                    ..config.params
                };
                RayTracer::new(accel, scene, job.ray, params)
            })
            .collect();
        states.iter_mut().for_each(RayTraceState::clear);
        states.resize_with(chunk.len(), RayTraceState::new);
        WarpExec {
            tracers,
            states,
            compute: 0,
            stall: 0,
            index: w,
        }
    };

    // Profiling reads what the cost model already computes (plus cheap
    // occupancy getters), so the simulated outcome is identical with the
    // recorder on or off; with it off, every hook is one `Option` branch.
    let profiling = profile.is_some();
    loop {
        // Admit warps up to the buffer depth.
        while resident.len() < buffer_depth {
            let Some(w) = pending.pop_front() else { break };
            if let Some(rec) = profile.as_deref_mut() {
                rec.admit(w);
            }
            resident.push(make_exec(w, spare_states.pop().unwrap_or_default()));
        }
        if resident.is_empty() {
            break;
        }
        // Advance every resident warp by one round.
        let mut finished: Vec<usize> = Vec::new();
        let mut round_advance = 0u64;
        let mut ckpt_high = 0u64;
        let mut evict_high = 0u64;
        let mut kbuf_high = 0u64;
        for (slot, warp) in resident.iter_mut().enumerate() {
            let mut round_compute = 0u64;
            let mut round_stall = 0u64;
            let mut active_lanes = 0u64;
            for (tracer, state) in warp.tracers.iter_mut().zip(warp.states.iter_mut()) {
                if tracer.is_done() {
                    continue;
                }
                let mut obs = sim.observer(0, state);
                let report = tracer.round(&mut obs);
                let shader = shader_cycles(&report, obs.costs(), config);
                round_compute = round_compute.max(obs.compute_cycles + shader);
                round_stall = round_stall.max(obs.stall_cycles);
                sim.stats.rounds += 1;
                sim.stats.blended_gaussians += report.blended as u64;
                sim.stats.eviction_writes += report.eviction_writes;
                sim.stats.peak_checkpoint_entries = sim
                    .stats
                    .peak_checkpoint_entries
                    .max(tracer.peak_checkpoint_entries as u64);
                sim.stats.peak_eviction_entries = sim
                    .stats
                    .peak_eviction_entries
                    .max(tracer.peak_eviction_entries as u64);
                if profiling {
                    active_lanes += 1;
                    kbuf_high = kbuf_high.max(report.kbuffer_high_water);
                    ckpt_high = ckpt_high.max(tracer.checkpoint_occupancy() as u64);
                    evict_high = evict_high.max(tracer.eviction_occupancy() as u64);
                }
            }
            warp.compute += round_compute + round_overhead;
            warp.stall += round_stall;
            if let Some(rec) = profile.as_deref_mut() {
                rec.warp_round(active_lanes, warp.tracers.len() as u64);
                // The SM's clock advances by the slowest resident warp's
                // full round: issue + memory stall + fixed overhead.
                round_advance = round_advance.max(round_compute + round_overhead + round_stall);
            }
            if warp.is_done() {
                finished.push(slot);
            }
        }
        if let Some(rec) = profile.as_deref_mut() {
            rec.round_end(round_advance, ckpt_high, evict_high, kbuf_high);
        }
        // Retire finished warps (back to front to keep indices valid).
        for &slot in finished.iter().rev() {
            let mut warp = resident.swap_remove(slot);
            for state in &mut warp.states {
                sim.retire_ray(state);
            }
            if let Some(rec) = profile.as_deref_mut() {
                rec.retire(warp.index);
            }
            on_warp_done(warp.index, (warp.compute, warp.stall));
            let base = warp.index * warp_size;
            for (i, tracer) in warp.tracers.iter().enumerate() {
                on_blend(base + i, *tracer.blend_state());
            }
            sim.stats.rays += warp.tracers.len() as u64;
            spare_states.push(warp.states);
        }
    }
}

/// Largest simulated SM count [`validate_gpu`] accepts. Table I models 8
/// SMs and the largest shipping GPUs have under 150; each SM is one
/// fragment with its own cache state, so the bound keeps a run's
/// allocation proportional to a real GPU.
pub const MAX_SMS: usize = 1024;

/// Lowest core clock, in MHz, [`validate_gpu`] accepts. Table I clocks
/// at 1365 MHz; at the floor every `u64` cycle count still converts to
/// a finite millisecond time.
pub const MIN_CLOCK_MHZ: f64 = 1.0;

/// Largest k-buffer capacity [`validate_render`] accepts. The paper
/// sweeps k from 4 to 64 (Figs. 6b and 18); every traced ray reserves
/// `k + 1` entries up front, so the bound keeps that reservation small.
pub const MAX_K: usize = 1024;

/// Largest L1 or L2 capacity, in bytes, [`validate_gpu`] accepts
/// (256 MiB). Table I models a 128 KiB L1 and a 4 MiB L2, and the largest
/// shipping GPU last-level caches are around 100 MiB. The cache model
/// keeps an 8-byte tag per line, so at the smallest legal line size the
/// bound caps one cache's tag array at 2 GiB of lazily zeroed memory
/// instead of an allocation the host cannot satisfy.
pub const MAX_CACHE_BYTES: usize = 256 << 20;

/// Largest frame, in pixels, [`validate_camera`] accepts: 4096 × 4096.
/// The paper renders views of about two megapixels; a launch plans one
/// 48-byte ray job per pixel up front, so the bound keeps a frame's
/// primary job array under 1 GiB.
pub const MAX_PIXELS: u64 = 1 << 24;

/// Rejects GPU configurations no hardware could execute: zero or more
/// than [`MAX_SMS`] SMs, zero-size warps, zero SIMT lanes, an empty warp
/// buffer, cache lines that are not a power of two, caches smaller than
/// one line, larger than [`MAX_CACHE_BYTES`] or with no ways, and a clock
/// that is not finite or is below [`MIN_CLOCK_MHZ`].
pub fn validate_gpu(gpu: &GpuConfig) -> Result<(), GrtxError> {
    let invalid = |reason: String| Err(GrtxError::InvalidConfig { reason });
    let checks = [
        (gpu.num_sms, "num_sms"),
        (gpu.warp_size, "warp_size"),
        (gpu.simt_lanes, "simt_lanes"),
        (gpu.warp_buffer_size, "warp_buffer_size"),
        (gpu.l1_ways, "l1_ways"),
        (gpu.l2_ways, "l2_ways"),
    ];
    for (value, name) in checks {
        if value == 0 {
            return invalid(format!("{name} must be >= 1, got 0"));
        }
    }
    if gpu.num_sms > MAX_SMS {
        return invalid(format!("num_sms must be <= {MAX_SMS}, got {}", gpu.num_sms));
    }
    if !gpu.line_bytes.is_power_of_two() {
        return invalid(format!(
            "line_bytes must be a power of two, got {}",
            gpu.line_bytes
        ));
    }
    for (bytes, name) in [(gpu.l1_bytes, "l1_bytes"), (gpu.l2_bytes, "l2_bytes")] {
        if bytes < gpu.line_bytes {
            return invalid(format!(
                "{name} must hold at least one {}-byte line, got {bytes}",
                gpu.line_bytes
            ));
        }
        if bytes > MAX_CACHE_BYTES {
            return invalid(format!("{name} must be <= {MAX_CACHE_BYTES}, got {bytes}"));
        }
    }
    if !(gpu.clock_mhz.is_finite() && gpu.clock_mhz >= MIN_CLOCK_MHZ) {
        return invalid(format!(
            "clock_mhz must be finite and >= {MIN_CLOCK_MHZ}, got {}",
            gpu.clock_mhz
        ));
    }
    Ok(())
}

/// Rejects render configurations the tracer cannot run: a k-buffer
/// capacity of zero or above [`MAX_K`].
pub fn validate_render(config: &RenderConfig) -> Result<(), GrtxError> {
    let k = config.params.k;
    if k == 0 || k > MAX_K {
        return Err(GrtxError::InvalidConfig {
            reason: format!("k must be in 1..={MAX_K}, got {k}"),
        });
    }
    Ok(())
}

/// Rejects primitive/organization pairs [`AccelStruct::build`] cannot
/// build: hardware unit spheres exist only behind instance transforms,
/// so [`BoundingPrimitive::UnitSphere`] needs the two-level organization.
pub fn validate_structure(primitive: BoundingPrimitive, two_level: bool) -> Result<(), GrtxError> {
    if primitive == BoundingPrimitive::UnitSphere && !two_level {
        return Err(GrtxError::InvalidConfig {
            reason: "unit-sphere primitives require the two-level (shared BLAS) organization"
                .to_string(),
        });
    }
    Ok(())
}

/// Rejects cameras the renderer cannot shoot rays through:
/// zero-resolution images, frames above [`MAX_PIXELS`], and non-finite
/// or non-positive projection parameters.
pub fn validate_camera(camera: &Camera) -> Result<(), GrtxError> {
    if camera.width == 0 || camera.height == 0 {
        return Err(GrtxError::InvalidCamera {
            reason: format!(
                "resolution must be nonzero, got {}x{}",
                camera.width, camera.height
            ),
        });
    }
    let pixels = u64::from(camera.width) * u64::from(camera.height);
    if pixels > MAX_PIXELS {
        return Err(GrtxError::InvalidCamera {
            reason: format!(
                "resolution must be at most {MAX_PIXELS} pixels, got {}x{}",
                camera.width, camera.height
            ),
        });
    }
    match camera.model() {
        grtx_scene::CameraModel::Pinhole { fov_y } => {
            if !(fov_y.is_finite() && fov_y > 0.0 && fov_y < std::f32::consts::PI) {
                return Err(GrtxError::InvalidCamera {
                    reason: format!("pinhole fov_y must be finite in (0, pi), got {fov_y}"),
                });
            }
        }
        grtx_scene::CameraModel::Fisheye { max_theta } => {
            if !(max_theta.is_finite() && max_theta > 0.0) {
                return Err(GrtxError::InvalidCamera {
                    reason: format!(
                        "fisheye max_theta must be finite and positive, got {max_theta}"
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::TraceMode;
    use grtx_bvh::LayoutConfig;
    use grtx_math::Vec3;
    use grtx_scene::{synth::generate_scene, CameraModel, SceneKind};

    fn tiny_setup() -> (GaussianScene, AccelStruct, Camera) {
        let scene = generate_scene(SceneKind::Train.profile().with_gaussian_budget(400), 7);
        let accel = AccelStruct::build(
            &scene,
            BoundingPrimitive::UnitSphere,
            true,
            &LayoutConfig::default(),
        );
        let camera = Camera::look_at(
            24,
            24,
            CameraModel::Pinhole { fov_y: 0.9 },
            SceneKind::Train.profile().camera_eye(),
            grtx_math::Vec3::ZERO,
            grtx_math::Vec3::Y,
        );
        (scene, accel, camera)
    }

    /// The render entry points reject degenerate inputs with typed
    /// errors and render valid ones.
    #[test]
    fn try_render_validates_inputs() {
        let (scene, accel, camera) = tiny_setup();
        let config = RenderConfig::default();
        let engine = RenderEngine::new(GpuConfig::default()).with_threads(1);

        let ok = engine
            .try_render(&accel, &scene, &camera, None, &config)
            .expect("valid inputs render");
        assert_eq!(ok.image.pixels().len(), camera.pixel_count());
        assert!(ok.cycles > 0);

        let mut flat = camera.clone();
        flat.height = 0;
        let err = engine
            .try_render(&accel, &scene, &flat, None, &config)
            .unwrap_err();
        assert!(matches!(err, GrtxError::InvalidCamera { .. }), "{err}");

        let no_sms = RenderEngine::new(GpuConfig {
            num_sms: 0,
            ..GpuConfig::default()
        });
        let err = no_sms
            .try_render(&accel, &scene, &camera, None, &config)
            .unwrap_err();
        assert!(matches!(err, GrtxError::InvalidConfig { .. }), "{err}");

        // Empty camera batches stay a silent no-op, as before.
        let none = engine
            .try_render_batch(&accel, &scene, &[], None, &config)
            .expect("empty batch is fine");
        assert!(none.is_empty());
    }

    /// Shared immutable scene state must be shareable across workers.
    #[test]
    fn scene_and_accel_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AccelStruct>();
        assert_send_sync::<GaussianScene>();
        assert_send_sync::<GpuConfig>();
        assert_send_sync::<Camera>();
    }

    #[test]
    fn thread_counts_produce_bit_identical_reports() {
        let (scene, accel, camera) = tiny_setup();
        let config = RenderConfig {
            params: TraceParams {
                k: 6,
                mode: TraceMode::MultiRoundCheckpoint,
                ..Default::default()
            },
            ..Default::default()
        };
        let render = |threads: usize| {
            RenderEngine::new(GpuConfig::default())
                .with_threads(threads)
                .try_render(&accel, &scene, &camera, None, &config)
                .unwrap()
        };
        let serial = render(1);
        for threads in [2, 4, 8] {
            let parallel = render(threads);
            assert_eq!(
                serial.image.pixels(),
                parallel.image.pixels(),
                "{threads} threads: image"
            );
            assert_eq!(serial.cycles, parallel.cycles, "{threads} threads: cycles");
            assert_eq!(serial.stats, parallel.stats, "{threads} threads: stats");
            assert_eq!(
                serial.l2_accesses, parallel.l2_accesses,
                "{threads} threads: L2"
            );
            assert_eq!(
                serial.dram_accesses, parallel.dram_accesses,
                "{threads} threads: DRAM"
            );
            assert_eq!(
                serial.footprint_bytes, parallel.footprint_bytes,
                "{threads} threads: footprint"
            );
            assert!((serial.l1_hit_rate - parallel.l1_hit_rate).abs() < 1e-12);
        }
    }

    #[test]
    fn thread_counts_match_with_effects() {
        let (scene, accel, camera) = tiny_setup();
        let effects = EffectObjects::place_in(SceneKind::Train.profile().half_extent, 3);
        let config = RenderConfig::default();
        let render = |threads: usize| {
            RenderEngine::new(GpuConfig::default())
                .with_threads(threads)
                .try_render(&accel, &scene, &camera, Some(&effects), &config)
                .unwrap()
        };
        let serial = render(1);
        let parallel = render(4);
        assert_eq!(serial.image.pixels(), parallel.image.pixels());
        assert_eq!(serial.cycles, parallel.cycles);
        assert_eq!(serial.secondary, parallel.secondary);
    }

    #[test]
    fn batch_of_one_is_a_standalone_render() {
        let (scene, accel, camera) = tiny_setup();
        let config = RenderConfig::default();
        let engine = RenderEngine::new(GpuConfig::default()).with_threads(2);
        let standalone = engine
            .try_render(&accel, &scene, &camera, None, &config)
            .unwrap();
        let mut batch = engine
            .try_render_batch(&accel, &scene, std::slice::from_ref(&camera), None, &config)
            .unwrap();
        assert_eq!(batch.len(), 1);
        let report = batch.pop().unwrap();
        assert_eq!(standalone.image.pixels(), report.image.pixels());
        assert_eq!(standalone.cycles, report.cycles);
        assert_eq!(standalone.stats, report.stats);
    }

    /// The exposed plan → fragment → merge building blocks, driven by
    /// hand in scrambled fragment order, reproduce `try_render()` exactly —
    /// the contract the frame pipeline's render stage is built on.
    #[test]
    fn hand_driven_fragments_match_render() {
        let (scene, accel, camera) = tiny_setup();
        let config = RenderConfig::default();
        let engine = RenderEngine::new(GpuConfig::default()).with_threads(2);
        let launch = engine.plan_launch(&camera, None);
        assert!(launch.total_warps() > 0);
        assert_eq!(launch.job_count(), camera.pixel_count());
        // Simulate fragments in reverse order; merge in SM order.
        let mut outcomes: Vec<SmOutcome> = (0..engine.fragments_per_launch())
            .rev()
            .map(|sm| engine.simulate_fragment(&accel, &scene, &config, &launch, sm))
            .collect();
        outcomes.reverse();
        let merged = engine.merge_launch(&launch, &camera, &config, outcomes);
        let standalone = engine
            .try_render(&accel, &scene, &camera, None, &config)
            .unwrap();
        assert_eq!(standalone.image.pixels(), merged.image.pixels());
        assert_eq!(standalone.cycles, merged.cycles);
        assert_eq!(standalone.stats, merged.stats);
        assert_eq!(standalone.footprint_bytes, merged.footprint_bytes);
    }

    #[test]
    fn empty_batch_renders_nothing() {
        let (scene, accel, _) = tiny_setup();
        let reports = RenderEngine::new(GpuConfig::default())
            .try_render_batch(&accel, &scene, &[], None, &RenderConfig::default())
            .unwrap();
        assert!(reports.is_empty());
    }

    /// Regression: fisheye pixels outside the image circle used to stay
    /// `Vec3::ZERO` (the black canvas) because `Camera::rays()` skips
    /// them and no job ever wrote them — ignoring the configured
    /// background.
    #[test]
    fn fisheye_corners_show_the_background() {
        let (scene, accel, _) = tiny_setup();
        let camera = Camera::look_at(
            24,
            24,
            CameraModel::Fisheye { max_theta: 1.4 },
            SceneKind::Train.profile().camera_eye(),
            Vec3::ZERO,
            Vec3::Y,
        );
        let background = Vec3::new(0.25, 0.5, 0.75);
        let config = RenderConfig {
            background,
            ..Default::default()
        };
        assert!(
            camera.primary_ray(0, 0).is_none(),
            "corner must lie outside the image circle"
        );
        let report = RenderEngine::new(GpuConfig::default())
            .try_render(&accel, &scene, &camera, None, &config)
            .unwrap();
        assert_eq!(
            report.image.pixel(0),
            background,
            "unwritten fisheye corner must show the configured background"
        );
        // The last pixel of the first row is outside the circle too.
        assert_eq!(report.image.pixel(23), background);
    }

    #[test]
    fn effective_threads_is_capped_by_sms() {
        let engine = RenderEngine::new(GpuConfig::default()).with_threads(64);
        assert_eq!(engine.effective_threads(), GpuConfig::default().num_sms);
        let one = RenderEngine::new(GpuConfig::default()).with_threads(1);
        assert_eq!(one.effective_threads(), 1);
    }

    #[test]
    fn batches_raise_the_thread_cap() {
        let engine = RenderEngine::new(GpuConfig::default()).with_threads(64);
        let sms = GpuConfig::default().num_sms;
        assert_eq!(engine.effective_threads_for(4), 64.min(sms * 4));
        assert_eq!(engine.effective_threads_for(1), engine.effective_threads());
    }
}
