#![forbid(unsafe_code)]

//! # grtx-fault — deterministic fault injection and typed errors
//!
//! The workspace's failure model, in three pieces:
//!
//! 1. **[`GrtxError`]** — the typed error taxonomy every `try_*` entry
//!    point returns instead of panicking: invalid scenes/cameras/configs
//!    at the validation boundary, and [`GrtxError::StageFailed`] /
//!    [`GrtxError::DependencyFailed`] when a pipeline stage exhausts its
//!    retries.
//! 2. **[`FaultPlan`] / [`FaultInjector`]** — a seeded, wall-clock-free
//!    fault plan that injects panics at named pipeline sites
//!    ([`FaultSite`]), keyed by the same `(frame << 32) | camera` launch
//!    keys the profiler uses. Transient faults fail the first N attempts
//!    of a stage task then succeed; permanent faults fail every attempt.
//!    Every injection is recorded in a [`FaultLog`] whose canonical order
//!    is schedule-independent: the same plan produces the same log at
//!    any thread count or shard count.
//! 3. **[`RetryPolicy`]** — how the pipeline responds to a panicking
//!    stage task. The default (`max_attempts: 1`, no quarantine) is
//!    exactly the legacy poison-everything behavior; a resilient policy
//!    retries deterministically (attempt counts, never timers) and
//!    quarantines frames that exhaust their retries so the rest of the
//!    stream keeps flowing.
//!
//! Determinism is the contract: fault decisions are pure functions of
//! `(plan, site, key, unit, attempt)` — no clocks, no global RNG — so a
//! stream that recovers from transient faults is bit-identical to a
//! fault-free run.

mod error;
mod inject;
mod plan;

pub use error::GrtxError;
pub use inject::{silence_injected_panics, FaultInjector, FaultLog, FaultRecord, InjectedFault};
pub use plan::{FaultKind, FaultPlan, FaultSite, FaultSpec, RetryPolicy};
