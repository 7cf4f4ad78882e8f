//! RT-core traversal state machine with checkpoint/replay.
//!
//! This module models what the paper's RT unit does for one ray in one
//! tracing round:
//!
//! * stack-based traversal of the acceleration structure, nearest-child
//!   first;
//! * the *t-value validation unit*: a popped element whose entry distance
//!   exceeds the current `t_max` is not fetched — under GRTX-HW it is
//!   **checkpointed** to the destination buffer instead (Fig. 11 step ④);
//! * instance (TLAS-leaf) ray transforms into Gaussian-local space;
//! * any-hit shader invocation for primitive hits inside `(t_min, t_max]`;
//!   a [`AnyHitVerdict::Commit`] shrinks `t_max` to the committed `t`
//!   (the `reportIntersection` path of Listing 1), while
//!   [`AnyHitVerdict::Ignore`] leaves it unchanged
//!   (`ignoreIntersectionEXT`);
//! * **replay**: a round may start from the previous round's checkpoint
//!   buffer instead of the root, re-validating each stored element against
//!   the new interval before fetching anything.
//!
//! All memory traffic and fixed-function work is reported through a
//! [`TraversalObserver`] so `grtx-sim` can charge cycle costs and model
//! caches without this module knowing about either.
//!
//! [`trace_round`] is generic over the observer and the any-hit shader,
//! so both are dispatched statically: a [`NullObserver`] run compiles
//! its hooks away and a simulator observer inlines into the loop. The
//! leaf payloads it tests are stored in BVH leaf order, so a leaf range
//! is one contiguous slice handed straight to the 4-wide triangle
//! kernel.

use crate::monolithic::MonolithicBvh;
use crate::two_level::{SharedBlas, TwoLevelBvh};
use crate::wide::{ChildKind, WideBvh, MAX_WIDTH};
use crate::AccelStruct;
use grtx_math::simd::{slab_test_8, HitMask8};
use grtx_math::{ray::Interval, Ray, RayInv};
use grtx_scene::GaussianScene;

/// What kind of memory a fetch touched (drives Fig. 7's internal/leaf
/// split and the cache model's address classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchKind {
    /// Interior node of a monolithic BVH.
    MonoNode,
    /// Interior node of the TLAS.
    TlasNode,
    /// Interior node of the shared BLAS.
    BlasNode,
    /// TLAS leaf instance record (transform matrix).
    Instance,
    /// Leaf primitive record (triangle / sphere / ellipsoid).
    Prim,
}

impl FetchKind {
    /// `true` for interior-node fetches (Fig. 7 "Internal").
    pub fn is_internal(self) -> bool {
        matches!(
            self,
            FetchKind::MonoNode | FetchKind::TlasNode | FetchKind::BlasNode
        )
    }
}

/// Which fixed-function (or shader) unit executes a primitive test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimTestKind {
    /// Hardware ray–triangle unit.
    HardwareTriangle,
    /// Hardware ray–sphere unit (Blackwell-class).
    HardwareSphere,
    /// User-defined intersection shader on the SM (custom primitive).
    SoftwareEllipsoid,
}

/// Any-hit shader decision for a reported primitive hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnyHitVerdict {
    /// Accept the hit: the RT core updates `t_max` to the hit distance
    /// (the "report hit" path — taken when the incoming Gaussian is not
    /// closer than everything in a full k-buffer).
    Commit,
    /// `ignoreIntersectionEXT`: traversal continues with `t_max`
    /// unchanged (the Gaussian entered the k-buffer).
    Ignore,
}

/// Sink for per-event instrumentation. `grtx-sim` implements this to
/// charge cycle/cache costs; [`NullObserver`] runs traversal functionally.
pub trait TraversalObserver {
    /// A structure element of `bytes` at `addr` was fetched from memory.
    fn node_fetch(&mut self, addr: u64, bytes: u64, kind: FetchKind) {
        let _ = (addr, bytes, kind);
    }
    /// `count` ray–box slab tests were executed (one wide node feeds up
    /// to eight).
    fn box_tests(&mut self, count: u32) {
        let _ = count;
    }
    /// One ray–primitive test was executed on the given unit.
    fn prim_test(&mut self, kind: PrimTestKind) {
        let _ = kind;
    }
    /// The ray was transformed into an instance's object space.
    fn ray_transform(&mut self) {}
    /// One checkpoint entry was appended to the destination buffer.
    fn checkpoint_write(&mut self) {}
    /// One checkpoint entry was consumed from the source buffer.
    fn checkpoint_read(&mut self) {}
    /// The any-hit shader was invoked once.
    fn any_hit_invocation(&mut self) {}
    /// A child element at `addr` was intersected during parent expansion
    /// and will be visited soon. The simulator's sibling prefetcher (the
    /// paper's L1 calibration mechanism, Section V-A) installs these
    /// lines without charging fetch latency.
    fn prefetch_hint(&mut self, addr: u64, bytes: u64) {
        let _ = (addr, bytes);
    }
}

/// Observer that ignores every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl TraversalObserver for NullObserver {}

/// A traversal element: everything that can sit on the stack or in a
/// checkpoint buffer. Checkpoint entries store (element, `t`), matching
/// the paper's 20-byte {node address, TLAS-leaf address, t_hit} records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Slot {
    /// Interior node of a monolithic BVH.
    MonoNode(u32),
    /// Leaf primitive range of a monolithic BVH.
    MonoLeaf {
        /// First `prim_order` position.
        start: u32,
        /// Primitive count.
        count: u32,
    },
    /// A single monolithic primitive (`prim_order` position) whose test
    /// failed the `t_max` check.
    MonoPrim(u32),
    /// Interior node of the TLAS.
    TlasNode(u32),
    /// TLAS leaf instance range.
    TlasLeaf {
        /// First `prim_order` position.
        start: u32,
        /// Instance count.
        count: u32,
    },
    /// A whole instance (checkpointed when its world box failed `t_max`).
    Instance(u32),
    /// Interior node of the shared BLAS under one instance.
    BlasNode {
        /// Owning instance (the paper's stored TLAS-leaf address, needed
        /// to redo the ray transform on replay).
        instance: u32,
        /// BLAS node id.
        node: u32,
    },
    /// BLAS leaf triangle range under one instance.
    BlasLeaf {
        /// Owning instance.
        instance: u32,
        /// First BLAS `prim_order` position.
        start: u32,
        /// Triangle count.
        count: u32,
    },
    /// A single BLAS triangle under one instance.
    BlasPrim {
        /// Owning instance.
        instance: u32,
        /// BLAS `prim_order` position.
        pos: u32,
    },
    /// The sphere / custom primitive of one instance.
    SpherePrim {
        /// Owning instance.
        instance: u32,
    },
}

/// One checkpoint-buffer record: a traversal element plus the `t` value
/// that failed validation (box entry distance for nodes, exact hit
/// distance for primitives).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointEntry {
    /// Validation distance.
    pub t: f32,
    /// The stored element.
    pub slot: Slot,
}

/// Hardware checkpoint-entry size in bytes (8 B node address + 8 B TLAS
/// leaf address + 4 B t), per Section IV-B.
pub const CHECKPOINT_ENTRY_BYTES: u64 = 20;

/// Destination checkpoint buffer handle (ping-pong "destination" side).
pub type CheckpointSink<'a> = Option<&'a mut Vec<CheckpointEntry>>;

/// Functional statistics returned from one round (tests use these; the
/// simulator uses the observer instead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundOutcome {
    /// Interior node fetches this round.
    pub nodes_fetched: u64,
    /// Primitive tests this round.
    pub prims_tested: u64,
    /// Checkpoint entries written this round.
    pub checkpoints_written: u64,
}

/// Runs one tracing round for one ray.
///
/// * `t_min` — exclusive lower bound (hits at or before it were blended
///   in earlier rounds).
/// * `replay_source` — `Some(entries)` resumes from the previous round's
///   checkpoint buffer (GRTX-HW); `None` restarts from the root
///   (baseline).
/// * `checkpoint_dest` — `Some(buf)` enables checkpointing of elements
///   that fail the `t_max` validation; `None` discards them (baseline).
/// * `any_hit` — the any-hit shader: receives `(gaussian id, t_hit)` and
///   decides whether to commit (shrink `t_max`) or ignore.
#[allow(clippy::too_many_arguments)] // mirrors the traceRayEXT surface: structure, ray, interval, buffers, hooks
pub fn trace_round<O, F>(
    accel: &AccelStruct,
    scene: &GaussianScene,
    ray: &Ray,
    t_min: f32,
    replay_source: Option<&[CheckpointEntry]>,
    checkpoint_dest: CheckpointSink<'_>,
    observer: &mut O,
    any_hit: &mut F,
) -> RoundOutcome
where
    O: TraversalObserver + ?Sized,
    F: FnMut(u32, f32) -> AnyHitVerdict + ?Sized,
{
    let mut ctx = TraceCtx {
        accel,
        scene,
        ray,
        // The slab-test view (origin + reciprocal directions) is derived
        // once per ray here, never per box test.
        ray_inv: ray.inv(),
        interval: Interval::new(t_min, f32::INFINITY),
        observer,
        any_hit,
        dest: checkpoint_dest,
        stack: Vec::with_capacity(64),
        blas_stack: Vec::new(),
        outcome: RoundOutcome::default(),
    };

    match replay_source {
        Some(entries) => {
            for entry in entries {
                ctx.observer.checkpoint_read();
                ctx.replay_entry(*entry);
            }
        }
        None => {
            match accel {
                AccelStruct::Monolithic(m) => {
                    if m.bvh.node_count() > 0 {
                        ctx.push_root_checked(&m.bvh, Slot::MonoNode);
                    }
                }
                AccelStruct::TwoLevel(t) => {
                    if t.tlas.node_count() > 0 {
                        ctx.push_root_checked(&t.tlas, Slot::TlasNode);
                    }
                }
            }
            ctx.drain();
        }
    }
    ctx.outcome
}

struct TraceCtx<'a, O: ?Sized, F: ?Sized> {
    accel: &'a AccelStruct,
    scene: &'a GaussianScene,
    ray: &'a Ray,
    ray_inv: RayInv,
    interval: Interval,
    observer: &'a mut O,
    any_hit: &'a mut F,
    dest: CheckpointSink<'a>,
    stack: Vec<(f32, Slot)>,
    /// [`Self::drain_blas`]'s stack, kept across instance entries so a
    /// round allocates it at most once (it is never re-entered).
    blas_stack: Vec<(f32, BlasItem)>,
    outcome: RoundOutcome,
}

impl<'a, O, F> TraceCtx<'a, O, F>
where
    O: TraversalObserver + ?Sized,
    F: FnMut(u32, f32) -> AnyHitVerdict + ?Sized,
{
    /// Tests the root AABB and pushes the root node if the ray enters the
    /// scene within the interval.
    fn push_root_checked(&mut self, bvh: &WideBvh, make: impl Fn(u32) -> Slot) {
        self.observer.box_tests(1);
        if let Some((t_enter, t_exit)) = bvh.root_aabb.intersect_ray_inv(&self.ray_inv) {
            if t_exit < self.interval.t_min {
                return;
            }
            if t_enter > self.interval.t_max {
                self.checkpoint(t_enter, make(0));
                return;
            }
            self.stack.push((t_enter, make(0)));
        }
    }

    fn checkpoint(&mut self, t: f32, slot: Slot) {
        if let Some(dest) = self.dest.as_deref_mut() {
            dest.push(CheckpointEntry { t, slot });
            self.observer.checkpoint_write();
            self.outcome.checkpoints_written += 1;
        }
    }

    /// Replays one checkpoint entry: re-validate against the (new)
    /// interval, then resume traversal of the stored element. The paper
    /// traverses checkpointed subtrees sequentially, so each entry is
    /// drained before the next.
    fn replay_entry(&mut self, entry: CheckpointEntry) {
        // t-value validation without any fetch: the stored t makes this
        // free (Fig. 11 — entries failing the new t_max go straight back
        // to the destination buffer).
        if entry.t > self.interval.t_max {
            self.checkpoint(entry.t, entry.slot);
            return;
        }
        match entry.slot {
            // Prim-level entries re-run the intersection (cheap; the node
            // path above them is skipped entirely).
            Slot::MonoPrim(pos) => self.process_mono_prim(pos),
            Slot::SpherePrim { instance } => {
                let two = self.two_level();
                let local = self.enter_instance(two, instance);
                self.process_sphere_prim(two, instance, &local);
            }
            Slot::BlasPrim { instance, pos } => {
                let two = self.two_level();
                let local = self.enter_instance(two, instance);
                self.process_blas_prims(two, instance, &local, pos, 1);
            }
            Slot::BlasLeaf {
                instance,
                start,
                count,
            } => {
                let two = self.two_level();
                let local = self.enter_instance(two, instance);
                self.process_blas_prims(two, instance, &local, start, count);
            }
            Slot::BlasNode { instance, node } => {
                let two = self.two_level();
                let local = self.enter_instance(two, instance);
                self.drain_blas(two, instance, &local, entry.t, node);
            }
            Slot::Instance(instance) => {
                let two = self.two_level();
                self.process_instance(two, instance, entry.t);
            }
            // Node / leaf-range entries resume normal stack traversal.
            slot @ (Slot::MonoNode(_)
            | Slot::MonoLeaf { .. }
            | Slot::TlasNode(_)
            | Slot::TlasLeaf { .. }) => {
                self.stack.push((entry.t, slot));
                self.drain();
            }
        }
    }

    fn two_level(&self) -> &'a TwoLevelBvh {
        match self.accel {
            AccelStruct::TwoLevel(t) => t,
            AccelStruct::Monolithic(_) => {
                unreachable!("instance slots only exist for two-level structures")
            }
        }
    }

    fn mono(&self) -> &'a MonolithicBvh {
        match self.accel {
            AccelStruct::Monolithic(m) => m,
            AccelStruct::TwoLevel(_) => {
                unreachable!("mono slots only exist for monolithic structures")
            }
        }
    }

    /// Main stack loop: pop, t-validate, dispatch.
    fn drain(&mut self) {
        while let Some((t_key, slot)) = self.stack.pop() {
            // t-value validation unit: stale entries (t_max shrank since
            // the push) are checkpointed without a fetch.
            if t_key > self.interval.t_max {
                self.checkpoint(t_key, slot);
                continue;
            }
            match slot {
                Slot::MonoNode(id) => {
                    let m = self.mono();
                    self.observer
                        .node_fetch(m.node_addr(id), m.node_stride, FetchKind::MonoNode);
                    self.outcome.nodes_fetched += 1;
                    self.visit_wide_node(&m.bvh, id, Slot::MonoNode, |s, n| Slot::MonoLeaf {
                        start: s,
                        count: n,
                    });
                }
                Slot::MonoLeaf { start, count } => {
                    // One leaf-node fetch covers the contiguous primitive
                    // records; the intersection unit then tests each.
                    let m = self.mono();
                    self.observer.node_fetch(
                        m.prim_addr(start),
                        count as u64 * m.prim_stride,
                        FetchKind::Prim,
                    );
                    if m.primitive.triangle_count().is_some() && count > 1 {
                        // Mesh proxies: 4-wide batched triangle kernel
                        // over the leaf range (bit-identical per prim).
                        self.test_mono_prims_batched(start, count);
                    } else {
                        for pos in start..start + count {
                            self.test_mono_prim(pos);
                        }
                    }
                }
                Slot::MonoPrim(pos) => self.process_mono_prim(pos),
                Slot::TlasNode(id) => {
                    let t = self.two_level();
                    self.observer.node_fetch(
                        t.tlas_node_addr(id),
                        t.node_stride,
                        FetchKind::TlasNode,
                    );
                    self.outcome.nodes_fetched += 1;
                    self.visit_wide_node(&t.tlas, id, Slot::TlasNode, |s, n| Slot::TlasLeaf {
                        start: s,
                        count: n,
                    });
                }
                Slot::TlasLeaf { start, count } => {
                    let two = self.two_level();
                    for pos in start..start + count {
                        let instance = two.tlas.prim_order[pos as usize];
                        self.process_instance(two, instance, t_key);
                    }
                }
                Slot::Instance(instance) => {
                    let two = self.two_level();
                    self.process_instance(two, instance, t_key);
                }
                Slot::SpherePrim { instance } => {
                    let two = self.two_level();
                    let local = self.enter_instance(two, instance);
                    self.process_sphere_prim(two, instance, &local);
                }
                Slot::BlasNode { instance, node } => {
                    let two = self.two_level();
                    let local = self.enter_instance(two, instance);
                    self.drain_blas(two, instance, &local, t_key, node);
                }
                Slot::BlasLeaf {
                    instance,
                    start,
                    count,
                } => {
                    let two = self.two_level();
                    let local = self.enter_instance(two, instance);
                    self.process_blas_prims(two, instance, &local, start, count);
                }
                Slot::BlasPrim { instance, pos } => {
                    let two = self.two_level();
                    let local = self.enter_instance(two, instance);
                    self.process_blas_prims(two, instance, &local, pos, 1);
                }
            }
        }
    }

    /// Fetches and expands a wide node: box-test every child with one
    /// vectorized 8-wide slab call, skip behind-children, checkpoint
    /// beyond-`t_max` children, push the rest nearest-first.
    fn visit_wide_node(
        &mut self,
        bvh: &WideBvh,
        id: u32,
        make_node: impl Fn(u32) -> Slot,
        make_leaf: impl Fn(u32, u32) -> Slot,
    ) {
        let node = &bvh.nodes[id as usize];
        // Charge one box test per *occupied* lane, exactly like the
        // scalar per-child loop: sentinel padding lanes are free.
        self.observer.box_tests(node.len() as u32);
        // All eight child slabs in one batched kernel call — the
        // software analogue of the RT unit consuming one wide-node fetch
        // as eight parallel ray–box tests (this is the hottest loop in
        // the simulator). Lane results are bit-identical to the scalar
        // test.
        let tested: HitMask8 = slab_test_8(&self.ray_inv, &node.bounds);
        // Fixed-capacity hit list: wide nodes have at most eight
        // children, so this stays off the heap.
        let mut hits: [(f32, Slot); MAX_WIDTH] = [(0.0, Slot::MonoNode(0)); MAX_WIDTH];
        let mut n_hits = 0;
        for i in 0..node.len() {
            if tested.mask & (1 << i) == 0 {
                continue;
            }
            let (t_enter, t_exit) = (tested.t_enter[i], tested.t_exit[i]);
            if t_exit < self.interval.t_min {
                continue; // Entirely behind what has been blended.
            }
            let slot = match node.kinds[i] {
                ChildKind::Node(c) => make_node(c),
                ChildKind::Leaf { start, count } => make_leaf(start, count),
            };
            if t_enter > self.interval.t_max {
                self.checkpoint(t_enter, slot);
            } else {
                hits[n_hits] = (t_enter, slot);
                n_hits += 1;
            }
        }
        // Far children first so the nearest is popped first.
        hits[..n_hits].sort_by(|a, b| b.0.total_cmp(&a.0));
        for &(_, slot) in &hits[..n_hits] {
            self.hint_slot(slot);
        }
        self.stack.extend_from_slice(&hits[..n_hits]);
    }

    /// Emits a prefetch hint for intersected sibling **leaf** content.
    ///
    /// This models the paper's calibration (Section V-A): "upon the first
    /// demand fetch of any child leaf node, we issue a one-time prefetch
    /// for its sibling nodes whose bounding boxes are also intersected."
    /// Interior children are *not* prefetched — only leaf-level records.
    fn hint_slot(&mut self, slot: Slot) {
        match (self.accel, slot) {
            (AccelStruct::Monolithic(m), Slot::MonoLeaf { start, count }) => {
                self.observer
                    .prefetch_hint(m.prim_addr(start), count as u64 * m.prim_stride);
            }
            (AccelStruct::TwoLevel(t), Slot::TlasLeaf { start, count }) => {
                for pos in start..start + count {
                    let inst = t.tlas.prim_order[pos as usize];
                    self.observer
                        .prefetch_hint(t.instance_addr(inst), t.instance_stride);
                }
            }
            _ => {}
        }
    }

    /// One monolithic primitive with its own record fetch (checkpoint
    /// replay path, where the surrounding leaf fetch is skipped).
    fn process_mono_prim(&mut self, pos: u32) {
        let m = self.mono();
        self.observer
            .node_fetch(m.prim_addr(pos), m.prim_stride, FetchKind::Prim);
        self.test_mono_prim(pos);
    }

    /// Runs the intersection unit on one already-fetched monolithic
    /// primitive and routes the result (skip / checkpoint / any-hit).
    fn test_mono_prim(&mut self, pos: u32) {
        let m = self.mono();
        let kind = match m.primitive {
            crate::BoundingPrimitive::CustomEllipsoid => PrimTestKind::SoftwareEllipsoid,
            _ => PrimTestKind::HardwareTriangle,
        };
        self.observer.prim_test(kind);
        self.outcome.prims_tested += 1;
        if let Some((gaussian, t)) = m.intersect_prim(self.scene, pos, self.ray) {
            self.route_prim_hit(gaussian, t, Slot::MonoPrim(pos));
        }
    }

    /// Runs the intersection unit over a whole mesh leaf range in 4-wide
    /// triangle batches, routing each result in position order — the
    /// same observer events, any-hit invocations, and checkpoint order
    /// as the scalar per-primitive loop.
    fn test_mono_prims_batched(&mut self, start: u32, count: u32) {
        let m = self.mono();
        let mut pos = start;
        while pos < start + count {
            let n = (start + count - pos).min(4);
            let hits = m.intersect_tri4(pos, n as usize, self.ray);
            for (j, hit) in hits.iter().enumerate().take(n as usize) {
                self.observer.prim_test(PrimTestKind::HardwareTriangle);
                self.outcome.prims_tested += 1;
                if let Some((gaussian, t)) = *hit {
                    self.route_prim_hit(gaussian, t, Slot::MonoPrim(pos + j as u32));
                }
            }
            pos += n;
        }
    }

    /// Fetches an instance record and performs the hardware ray
    /// transform; returns the object-space ray (t-preserving).
    fn enter_instance(&mut self, two: &TwoLevelBvh, instance: u32) -> Ray {
        self.observer.node_fetch(
            two.instance_addr(instance),
            two.instance_stride,
            FetchKind::Instance,
        );
        self.observer.ray_transform();
        two.instances[instance as usize]
            .transform
            .inverse_transform_ray(self.ray)
    }

    /// Processes a whole instance reached from the TLAS (or replayed).
    fn process_instance(&mut self, two: &'a TwoLevelBvh, instance: u32, t_key: f32) {
        let local = self.enter_instance(two, instance);
        match &two.blas {
            SharedBlas::UnitSphere | SharedBlas::CustomEllipsoid => {
                self.process_sphere_prim(two, instance, &local);
            }
            SharedBlas::Mesh { .. } => {
                self.drain_blas(two, instance, &local, t_key, 0);
            }
        }
    }

    fn process_sphere_prim(&mut self, two: &TwoLevelBvh, instance: u32, local: &Ray) {
        self.observer
            .node_fetch(two.blas_prim_addr(0), two.blas_prim_stride, FetchKind::Prim);
        let kind = match &two.blas {
            SharedBlas::CustomEllipsoid => PrimTestKind::SoftwareEllipsoid,
            _ => PrimTestKind::HardwareSphere,
        };
        self.observer.prim_test(kind);
        self.outcome.prims_tested += 1;
        if let Some(t) = two.intersect_blas_prim(0, local) {
            let gaussian = two.instances[instance as usize].gaussian;
            self.route_prim_hit(gaussian, t, Slot::SpherePrim { instance });
        }
    }

    /// Drains the BLAS subtree under node `root` (entered at `t_root`)
    /// with its own stack (the ray stays in object space for the whole
    /// subtree — one transform per instance entry, as in hardware).
    fn drain_blas(
        &mut self,
        two: &'a TwoLevelBvh,
        instance: u32,
        local: &Ray,
        t_root: f32,
        root: u32,
    ) {
        let SharedBlas::Mesh { bvh, .. } = &two.blas else {
            unreachable!("drain_blas requires a mesh BLAS")
        };
        // One slab-test view per instance entry: the object-space ray's
        // reciprocals serve every node of the BLAS subtree.
        let local_inv = local.inv();
        let mut stack = std::mem::take(&mut self.blas_stack);
        stack.push((t_root, BlasItem::Node(root)));
        while let Some((t_key, item)) = stack.pop() {
            if t_key > self.interval.t_max {
                let slot = match item {
                    BlasItem::Node(node) => Slot::BlasNode { instance, node },
                    BlasItem::Leaf { start, count } => Slot::BlasLeaf {
                        instance,
                        start,
                        count,
                    },
                };
                self.checkpoint(t_key, slot);
                continue;
            }
            match item {
                BlasItem::Node(id) => {
                    self.observer.node_fetch(
                        two.blas_node_addr(id),
                        two.node_stride,
                        FetchKind::BlasNode,
                    );
                    self.outcome.nodes_fetched += 1;
                    let node = &bvh.nodes[id as usize];
                    self.observer.box_tests(node.len() as u32);
                    // Same batched 8-wide slab kernel as the TLAS loop.
                    let tested = slab_test_8(&local_inv, &node.bounds);
                    let mut hits: [(f32, BlasItem); MAX_WIDTH] =
                        [(0.0, BlasItem::Node(0)); MAX_WIDTH];
                    let mut n_hits = 0;
                    for i in 0..node.len() {
                        if tested.mask & (1 << i) == 0 {
                            continue;
                        }
                        let (t_enter, t_exit) = (tested.t_enter[i], tested.t_exit[i]);
                        if t_exit < self.interval.t_min {
                            continue;
                        }
                        let item = match node.kinds[i] {
                            ChildKind::Node(c) => BlasItem::Node(c),
                            ChildKind::Leaf { start, count } => BlasItem::Leaf { start, count },
                        };
                        if t_enter > self.interval.t_max {
                            let slot = match item {
                                BlasItem::Node(node) => Slot::BlasNode { instance, node },
                                BlasItem::Leaf { start, count } => Slot::BlasLeaf {
                                    instance,
                                    start,
                                    count,
                                },
                            };
                            self.checkpoint(t_enter, slot);
                        } else {
                            hits[n_hits] = (t_enter, item);
                            n_hits += 1;
                        }
                    }
                    hits[..n_hits].sort_by(|a, b| b.0.total_cmp(&a.0));
                    for &(_, item) in &hits[..n_hits] {
                        // Leaf-sibling prefetch only (see hint_slot).
                        if let BlasItem::Leaf { start, count } = item {
                            self.observer.prefetch_hint(
                                two.blas_prim_addr(start),
                                count as u64 * two.blas_prim_stride,
                            );
                        }
                    }
                    stack.extend_from_slice(&hits[..n_hits]);
                }
                BlasItem::Leaf { start, count } => {
                    self.process_blas_prims(two, instance, local, start, count);
                }
            }
        }
        self.blas_stack = stack;
    }

    fn process_blas_prims(
        &mut self,
        two: &TwoLevelBvh,
        instance: u32,
        local: &Ray,
        start: u32,
        count: u32,
    ) {
        // One leaf fetch for the contiguous triangle records.
        self.observer.node_fetch(
            two.blas_prim_addr(start),
            count as u64 * two.blas_prim_stride,
            FetchKind::Prim,
        );
        if matches!(&two.blas, SharedBlas::Mesh { .. }) && count > 1 {
            self.process_blas_prims_batched(two, instance, local, start, count);
            return;
        }
        for pos in start..start + count {
            self.observer.prim_test(PrimTestKind::HardwareTriangle);
            self.outcome.prims_tested += 1;
            if let Some(t) = two.intersect_blas_prim(pos, local) {
                let gaussian = two.instances[instance as usize].gaussian;
                self.route_prim_hit(gaussian, t, Slot::BlasPrim { instance, pos });
            }
        }
    }

    /// Runs a mesh-BLAS leaf range through the 4-wide triangle kernel,
    /// routing each result in position order — the same observer events,
    /// any-hit invocations, and checkpoint order as the scalar loop
    /// (mirror of [`Self::test_mono_prims_batched`]).
    fn process_blas_prims_batched(
        &mut self,
        two: &TwoLevelBvh,
        instance: u32,
        local: &Ray,
        start: u32,
        count: u32,
    ) {
        let mut pos = start;
        while pos < start + count {
            let n = (start + count - pos).min(4);
            let hits = two.intersect_blas_tri4(pos, n as usize, local);
            for (j, hit) in hits.iter().enumerate().take(n as usize) {
                self.observer.prim_test(PrimTestKind::HardwareTriangle);
                self.outcome.prims_tested += 1;
                if let Some(t) = *hit {
                    let gaussian = two.instances[instance as usize].gaussian;
                    self.route_prim_hit(
                        gaussian,
                        t,
                        Slot::BlasPrim {
                            instance,
                            pos: pos + j as u32,
                        },
                    );
                }
            }
            pos += n;
        }
    }

    /// Routes a primitive hit through the t-value validation: behind →
    /// drop, beyond `t_max` → checkpoint, inside → any-hit shader.
    fn route_prim_hit(&mut self, gaussian: u32, t: f32, ckpt_slot: Slot) {
        if t <= self.interval.t_min {
            return;
        }
        if t > self.interval.t_max {
            self.checkpoint(t, ckpt_slot);
            return;
        }
        self.observer.any_hit_invocation();
        match (self.any_hit)(gaussian, t) {
            AnyHitVerdict::Commit => self.interval.t_max = t,
            AnyHitVerdict::Ignore => {}
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum BlasItem {
    Node(u32),
    Leaf { start: u32, count: u32 },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutConfig;
    use crate::BoundingPrimitive;
    use grtx_math::Vec3;
    use grtx_scene::Gaussian;

    fn line_scene(n: usize) -> GaussianScene {
        // Gaussians strung along +Z so a single ray crosses all of them
        // in a known order.
        (0..n)
            .map(|i| Gaussian::isotropic(Vec3::new(0.0, 0.0, i as f32 * 2.0), 0.2, 0.8, Vec3::ONE))
            .collect()
    }

    /// A ray down the line, slightly offset so it never passes exactly
    /// through proxy-mesh edges (a measure-zero degeneracy).
    fn line_ray() -> Ray {
        Ray::new(Vec3::new(0.05, 0.03, -5.0), Vec3::Z)
    }

    fn collect_hits(accel: &AccelStruct, scene: &GaussianScene, ray: &Ray) -> Vec<(u32, f32)> {
        let mut hits = Vec::new();
        trace_round(
            accel,
            scene,
            ray,
            0.0,
            None,
            None,
            &mut NullObserver,
            &mut |g, t| {
                hits.push((g, t));
                AnyHitVerdict::Ignore
            },
        );
        hits.sort_by(|a, b| a.1.total_cmp(&b.1));
        hits
    }

    #[test]
    fn finds_all_gaussians_along_ray_sphere() {
        let scene = line_scene(10);
        let accel = AccelStruct::build(
            &scene,
            BoundingPrimitive::UnitSphere,
            true,
            &LayoutConfig::default(),
        );
        let ray = line_ray();
        let hits = collect_hits(&accel, &scene, &ray);
        assert_eq!(hits.len(), 10);
        // Order along the ray must be the line order.
        let ids: Vec<u32> = hits.iter().map(|h| h.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn finds_all_gaussians_along_ray_mesh_monolithic() {
        let scene = line_scene(10);
        let accel = AccelStruct::build(
            &scene,
            BoundingPrimitive::Mesh20,
            false,
            &LayoutConfig::default(),
        );
        let ray = line_ray();
        let hits = collect_hits(&accel, &scene, &ray);
        assert_eq!(hits.len(), 10, "one front-face hit per proxy");
    }

    #[test]
    fn t_min_culls_blended_prefix() {
        let scene = line_scene(10);
        let accel = AccelStruct::build(
            &scene,
            BoundingPrimitive::UnitSphere,
            true,
            &LayoutConfig::default(),
        );
        let ray = line_ray();
        // Gaussian i sits at z = 2i, so t = 5 + 2i - 0.6σ-bound; t_min = 10
        // drops roughly the first 3.
        let mut hits = Vec::new();
        trace_round(
            &accel,
            &scene,
            &ray,
            10.0,
            None,
            None,
            &mut NullObserver,
            &mut |g, t| {
                hits.push((g, t));
                AnyHitVerdict::Ignore
            },
        );
        assert!(hits.iter().all(|&(_, t)| t > 10.0));
        assert!(!hits.is_empty());
    }

    #[test]
    fn commit_shrinks_t_max_and_stops_far_hits() {
        let scene = line_scene(10);
        let accel = AccelStruct::build(
            &scene,
            BoundingPrimitive::UnitSphere,
            true,
            &LayoutConfig::default(),
        );
        let ray = line_ray();
        let mut hits = Vec::new();
        trace_round(
            &accel,
            &scene,
            &ray,
            0.0,
            None,
            None,
            &mut NullObserver,
            &mut |g, t| {
                hits.push((g, t));
                // Commit immediately: t_max collapses onto the first hit.
                AnyHitVerdict::Commit
            },
        );
        // Only hits at or before the earliest committed t can be reported.
        let min_t = hits.iter().map(|h| h.1).fold(f32::INFINITY, f32::min);
        assert!(hits.iter().all(|&(_, t)| t <= min_t + 1e-6 || t == min_t));
    }

    #[test]
    fn checkpoint_plus_replay_finds_exactly_the_remainder() {
        let scene = line_scene(12);
        let accel = AccelStruct::build(
            &scene,
            BoundingPrimitive::UnitSphere,
            true,
            &LayoutConfig::default(),
        );
        let ray = line_ray();

        // Round 1: a real k-buffer (k = 4) keeping the closest hits;
        // displaced/rejected Gaussians go to the eviction buffer, exactly
        // as Listing 1 prescribes.
        let k = 4;
        let mut kbuf: Vec<(f32, u32)> = Vec::new();
        let mut evicted: Vec<(f32, u32)> = Vec::new();
        let mut ckpt = Vec::new();
        trace_round(
            &accel,
            &scene,
            &ray,
            0.0,
            None,
            Some(&mut ckpt),
            &mut NullObserver,
            &mut |g, t| {
                let pos = kbuf.partition_point(|&(bt, bg)| (bt, bg) < (t, g));
                kbuf.insert(pos, (t, g));
                if kbuf.len() <= k {
                    return AnyHitVerdict::Ignore;
                }
                let rejected = kbuf.pop().unwrap();
                evicted.push(rejected);
                if rejected == (t, g) {
                    AnyHitVerdict::Commit // incoming was the farthest → report
                } else {
                    AnyHitVerdict::Ignore
                }
            },
        );
        assert!(!ckpt.is_empty(), "far nodes must be checkpointed");
        assert_eq!(kbuf.len(), k);

        // Round 2 (replay): resume from checkpoints with t_min = last
        // blended t; union with the eviction buffer.
        let t_min = kbuf.last().unwrap().0;
        let mut replay_found: Vec<(f32, u32)> = evicted.clone();
        trace_round(
            &accel,
            &scene,
            &ray,
            t_min,
            Some(&ckpt),
            None,
            &mut NullObserver,
            &mut |g, t| {
                replay_found.push((t, g));
                AnyHitVerdict::Ignore
            },
        );
        replay_found.retain(|&(t, _)| t > t_min);
        replay_found.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        // Baseline round 2: restart from the root with the same t_min.
        let mut baseline_found: Vec<(f32, u32)> = Vec::new();
        trace_round(
            &accel,
            &scene,
            &ray,
            t_min,
            None,
            None,
            &mut NullObserver,
            &mut |g, t| {
                baseline_found.push((t, g));
                AnyHitVerdict::Ignore
            },
        );
        baseline_found.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        assert_eq!(
            replay_found, baseline_found,
            "replay + eviction buffer must equal a root restart"
        );
    }

    #[test]
    fn replay_fetches_fewer_nodes_than_restart() {
        let scene = line_scene(64);
        let accel = AccelStruct::build(
            &scene,
            BoundingPrimitive::Mesh20,
            true,
            &LayoutConfig::default(),
        );
        let ray = line_ray();

        let k = 4;
        let run_round1 = |ckpt: CheckpointSink<'_>| {
            let mut taken = 0;
            let mut last_t = 0.0f32;
            let outcome = trace_round(
                &accel,
                &scene,
                &ray,
                0.0,
                None,
                ckpt,
                &mut NullObserver,
                &mut |_, t| {
                    if taken < k {
                        taken += 1;
                        last_t = last_t.max(t);
                        AnyHitVerdict::Ignore
                    } else {
                        AnyHitVerdict::Commit
                    }
                },
            );
            (outcome, last_t)
        };

        let mut ckpt = Vec::new();
        let (_, t_min) = run_round1(Some(&mut ckpt));

        let noop = &mut |_: u32, _: f32| AnyHitVerdict::Ignore;
        let replay = trace_round(
            &accel,
            &scene,
            &ray,
            t_min,
            Some(&ckpt),
            None,
            &mut NullObserver,
            noop,
        );
        let restart = trace_round(
            &accel,
            &scene,
            &ray,
            t_min,
            None,
            None,
            &mut NullObserver,
            noop,
        );
        assert!(
            replay.nodes_fetched < restart.nodes_fetched,
            "replay {} should fetch fewer nodes than restart {}",
            replay.nodes_fetched,
            restart.nodes_fetched
        );
    }

    #[test]
    fn empty_scene_traverses_nothing() {
        let scene = GaussianScene::new(vec![]);
        let accel = AccelStruct::build(
            &scene,
            BoundingPrimitive::UnitSphere,
            true,
            &LayoutConfig::default(),
        );
        let ray = Ray::new(Vec3::ZERO, Vec3::Z);
        let outcome = trace_round(
            &accel,
            &scene,
            &ray,
            0.0,
            None,
            None,
            &mut NullObserver,
            &mut |_, _| panic!("no hits possible"),
        );
        assert_eq!(outcome.nodes_fetched, 0);
    }

    #[test]
    fn ray_missing_scene_reports_nothing() {
        let scene = line_scene(5);
        let accel = AccelStruct::build(
            &scene,
            BoundingPrimitive::UnitSphere,
            true,
            &LayoutConfig::default(),
        );
        let ray = Ray::new(Vec3::new(100.0, 100.0, 0.0), Vec3::Z);
        let hits = collect_hits(&accel, &scene, &ray);
        assert!(hits.is_empty());
    }
}
