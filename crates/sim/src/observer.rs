//! The bridge between BVH traversal and the simulated hardware: a
//! [`TraversalObserver`] that charges cycles for every event.

use crate::config::CostModel;
use crate::mem::{AccessClass, MemorySystem};
use crate::stats::SimStats;
use crate::GpuSim;
use grtx_bvh::{FetchKind, PrimTestKind, TraversalObserver};

/// Per-ray state that persists across tracing rounds (used to separate
/// unique from redundant node visits, Fig. 7).
///
/// While the ray is in flight this is an append-only log of its fetches;
/// [`GpuSim::retire_ray`] sorts and deduplicates it once, when the ray
/// finishes, instead of probing a set on every fetch.
#[derive(Debug, Clone, Default)]
pub struct RayTraceState {
    /// One entry per fetch: `addr << 1 | internal`. After retirement,
    /// one entry per distinct element, sorted.
    fetches: Vec<u64>,
}

impl RayTraceState {
    /// Fresh state for a new ray.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the log for a new ray, keeping its allocation.
    pub fn clear(&mut self) {
        self.fetches.clear();
    }

    /// Number of distinct structure elements this ray has fetched; exact
    /// once the ray is retired.
    pub fn unique_visits(&self) -> usize {
        self.fetches.len()
    }
}

impl GpuSim {
    /// Retires a traced ray: deduplicates its fetch log in place and adds
    /// its unique and internal-unique visit counts to the statistics.
    /// Call once per ray, after its last round.
    pub fn retire_ray(&mut self, ray: &mut RayTraceState) {
        ray.fetches.sort_unstable();
        // An address is always the same kind of element, so duplicates
        // are equal entries.
        ray.fetches.dedup();
        let internal = ray.fetches.iter().filter(|&&e| e & 1 == 1).count();
        self.stats
            .record_unique(ray.fetches.len() as u64, internal as u64);
    }
}

/// Charges cycle and memory costs for one (ray, round) traversal.
///
/// `compute_cycles` accumulates fixed-function/shader work;
/// `stall_cycles` accumulates memory latency. The renderer combines them
/// into warp times (SIMT max over lanes).
#[derive(Debug)]
pub struct SimObserver<'a> {
    mem: &'a mut MemorySystem,
    stats: &'a mut SimStats,
    costs: CostModel,
    shader_fetch_overhead: u64,
    sm: usize,
    ray: &'a mut RayTraceState,
    /// Fixed-function + shader cycles this round.
    pub compute_cycles: u64,
    /// Memory stall cycles this round.
    pub stall_cycles: u64,
}

impl GpuSim {
    /// Creates the observer for one (ray, round) executing on SM `sm`.
    ///
    /// # Panics
    ///
    /// Panics if `sm >= num_sms`.
    pub fn observer<'a>(&'a mut self, sm: usize, ray: &'a mut RayTraceState) -> SimObserver<'a> {
        assert!(sm < self.config.num_sms, "SM index out of range");
        SimObserver {
            mem: &mut self.mem,
            stats: &mut self.stats,
            costs: self.config.costs,
            shader_fetch_overhead: self.config.shader_issued_fetch_overhead,
            sm,
            ray,
            compute_cycles: 0,
            stall_cycles: 0,
        }
    }
}

impl SimObserver<'_> {
    /// The cost model in effect (renderers read shader-cost constants
    /// from here).
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }
}

impl TraversalObserver for SimObserver<'_> {
    fn node_fetch(&mut self, addr: u64, bytes: u64, kind: FetchKind) {
        let latency = self
            .mem
            .access(self.sm, addr, bytes, AccessClass::Structure);
        self.ray.fetches.push(addr << 1 | kind.is_internal() as u64);
        self.stats.record_fetch(kind, latency);
        self.stall_cycles += latency;
        self.compute_cycles += self.shader_fetch_overhead;
    }

    fn box_tests(&mut self, count: u32) {
        self.stats.box_tests += count as u64;
        // A wide node's boxes are tested in parallel: flat cost per node.
        self.compute_cycles += self.costs.node_visit;
    }

    fn prim_test(&mut self, kind: PrimTestKind) {
        let cost = match kind {
            PrimTestKind::HardwareTriangle => {
                self.stats.triangle_tests += 1;
                self.costs.triangle_test
            }
            PrimTestKind::HardwareSphere => {
                self.stats.sphere_tests += 1;
                self.costs.sphere_test
            }
            PrimTestKind::SoftwareEllipsoid => {
                self.stats.ellipsoid_tests += 1;
                self.costs.software_ellipsoid_test
            }
        };
        self.compute_cycles += cost;
    }

    fn ray_transform(&mut self) {
        self.stats.ray_transforms += 1;
        self.compute_cycles += self.costs.ray_transform;
    }

    fn checkpoint_write(&mut self) {
        self.stats.checkpoint_writes += 1;
        self.compute_cycles += self.costs.checkpoint_write;
    }

    fn checkpoint_read(&mut self) {
        self.stats.checkpoint_reads += 1;
        self.compute_cycles += self.costs.checkpoint_read;
    }

    fn any_hit_invocation(&mut self) {
        self.stats.any_hit_invocations += 1;
        self.compute_cycles += self.costs.any_hit_base;
    }

    fn prefetch_hint(&mut self, addr: u64, bytes: u64) {
        self.mem.prefetch(self.sm, addr, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    #[test]
    fn fetch_charges_latency_and_dedupes_unique() {
        let mut sim = GpuSim::new(GpuConfig::default());
        let mut ray = RayTraceState::new();
        {
            let mut obs = sim.observer(0, &mut ray);
            obs.node_fetch(0x1000, 224, FetchKind::MonoNode);
            obs.node_fetch(0x1000, 224, FetchKind::MonoNode);
            assert!(obs.stall_cycles > 0);
        }
        sim.retire_ray(&mut ray);
        assert_eq!(sim.stats.node_fetches_total, 2);
        assert_eq!(sim.stats.node_fetches_unique, 1);
        assert_eq!(ray.unique_visits(), 1);
    }

    #[test]
    fn unique_persists_across_rounds() {
        let mut sim = GpuSim::new(GpuConfig::default());
        let mut ray = RayTraceState::new();
        {
            let mut obs = sim.observer(0, &mut ray);
            obs.node_fetch(0x1000, 224, FetchKind::TlasNode);
        }
        {
            // Second round, same ray: same node is NOT unique.
            let mut obs = sim.observer(0, &mut ray);
            obs.node_fetch(0x1000, 224, FetchKind::TlasNode);
        }
        sim.retire_ray(&mut ray);
        assert_eq!(sim.stats.node_fetches_total, 2);
        assert_eq!(sim.stats.node_fetches_unique, 1);
    }

    #[test]
    fn different_rays_count_separately() {
        let mut sim = GpuSim::new(GpuConfig::default());
        let mut ray_a = RayTraceState::new();
        let mut ray_b = RayTraceState::new();
        sim.observer(0, &mut ray_a)
            .node_fetch(0x1000, 224, FetchKind::TlasNode);
        sim.observer(0, &mut ray_b)
            .node_fetch(0x1000, 224, FetchKind::TlasNode);
        sim.retire_ray(&mut ray_a);
        sim.retire_ray(&mut ray_b);
        assert_eq!(sim.stats.node_fetches_unique, 2, "uniqueness is per ray");
    }

    #[test]
    fn software_prim_test_costs_more() {
        let mut sim = GpuSim::new(GpuConfig::default());
        let mut ray = RayTraceState::new();
        let mut obs = sim.observer(0, &mut ray);
        obs.prim_test(PrimTestKind::HardwareTriangle);
        let hw = obs.compute_cycles;
        obs.prim_test(PrimTestKind::SoftwareEllipsoid);
        let sw = obs.compute_cycles - hw;
        assert!(sw > 5 * hw);
    }

    #[test]
    fn amd_config_charges_fetch_issue_overhead() {
        let mut nv = GpuSim::new(GpuConfig::default());
        let mut amd = GpuSim::new(GpuConfig::amd_like());
        let mut ray1 = RayTraceState::new();
        let mut ray2 = RayTraceState::new();
        let nv_cycles = {
            let mut obs = nv.observer(0, &mut ray1);
            obs.node_fetch(0x1000, 224, FetchKind::TlasNode);
            obs.compute_cycles
        };
        let amd_cycles = {
            let mut obs = amd.observer(0, &mut ray2);
            obs.node_fetch(0x1000, 224, FetchKind::TlasNode);
            obs.compute_cycles
        };
        assert!(amd_cycles > nv_cycles);
    }

    #[test]
    fn prefetch_hint_warms_l1() {
        let mut sim = GpuSim::new(GpuConfig::default());
        let mut ray = RayTraceState::new();
        let mut obs = sim.observer(0, &mut ray);
        obs.prefetch_hint(0x4000, 128);
        obs.node_fetch(0x4000, 64, FetchKind::Prim);
        assert_eq!(obs.stall_cycles, 20, "prefetched line must hit L1");
    }

    #[test]
    fn retire_ray_splits_internal_unique_across_rounds() {
        let mut sim = GpuSim::new(GpuConfig::default());
        let mut ray = RayTraceState::new();
        let rounds: [&[(u64, FetchKind)]; 2] = [
            &[
                (0x1000, FetchKind::TlasNode),
                (0x2000, FetchKind::Instance),
                (0x3000, FetchKind::BlasNode),
                (0x4000, FetchKind::Prim),
            ],
            // The next round replays part of the first one's path.
            &[
                (0x1000, FetchKind::TlasNode),
                (0x3000, FetchKind::BlasNode),
                (0x4000, FetchKind::Prim),
                (0x5000, FetchKind::Prim),
            ],
        ];
        for round in rounds {
            let mut obs = sim.observer(0, &mut ray);
            for &(addr, kind) in round {
                obs.node_fetch(addr, 64, kind);
            }
        }
        assert_eq!(sim.stats.node_fetches_unique, 0, "counted at retirement");
        sim.retire_ray(&mut ray);
        assert_eq!(sim.stats.node_fetches_total, 8);
        assert_eq!(sim.stats.internal_fetches_total, 4);
        assert_eq!(sim.stats.node_fetches_unique, 5);
        assert_eq!(sim.stats.internal_fetches_unique, 2);
        assert_eq!(ray.unique_visits(), 5);

        // A reused state starts a fresh ray.
        ray.clear();
        sim.observer(0, &mut ray)
            .node_fetch(0x1000, 224, FetchKind::TlasNode);
        sim.retire_ray(&mut ray);
        assert_eq!(sim.stats.node_fetches_unique, 6);
        assert_eq!(sim.stats.internal_fetches_unique, 3);
    }
}
