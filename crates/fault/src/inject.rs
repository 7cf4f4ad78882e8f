//! The runtime half of fault injection: a cheap cloneable handle that
//! pipeline stages probe, a log of every injection, and a panic-hook
//! filter that keeps injected panics out of test output.

use crate::plan::{FaultKind, FaultPlan, FaultSite};
use std::fmt;
use std::sync::{Arc, Mutex, Once};

/// The panic payload an injected fault unwinds with. The pipeline's
/// catch point downcasts to this to distinguish injected faults from
/// foreign panics (and to attribute build-task faults to the partition
/// vs build site).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: FaultSite,
    /// The launch key `(frame << 32) | camera` the probe carried.
    pub key: u64,
    /// The execution unit (SM index for fragment probes, else 0).
    pub unit: u64,
    /// The 0-based attempt number that failed.
    pub attempt: u32,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} fault (frame {}, camera {}, unit {}, attempt {})",
            self.site.name(),
            self.key >> 32,
            self.key & 0xffff_ffff,
            self.unit,
            self.attempt
        )
    }
}

/// One recorded injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultRecord {
    /// The site that fired.
    pub site: FaultSite,
    /// The launch key `(frame << 32) | camera`.
    pub key: u64,
    /// The execution unit (SM index for fragment probes, else 0).
    pub unit: u64,
    /// The 0-based attempt number that failed.
    pub attempt: u32,
    /// Whether the matching spec was permanent.
    pub permanent: bool,
}

/// Every injection an injector performed, in canonical
/// `(site, key, unit, attempt)` order — identical for the same plan and
/// workload at any thread count or shard count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// The sorted records.
    pub records: Vec<FaultRecord>,
}

impl FaultLog {
    /// Number of injections.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was injected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Injections at one site.
    pub fn count_for(&self, site: FaultSite) -> usize {
        self.records.iter().filter(|r| r.site == site).count()
    }
}

struct Inner {
    plan: FaultPlan,
    log: Mutex<Vec<FaultRecord>>,
}

/// A cheap cloneable fault-injection handle, following the workspace's
/// `Telemetry`/`Profiler` handle pattern: [`FaultInjector::disabled`]
/// (the default) is a no-op whose probes cost one branch; an enabled
/// handle evaluates its [`FaultPlan`] on every probe and panics with an
/// [`InjectedFault`] payload when a fault fires.
#[derive(Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("FaultInjector")
                .field("specs", &inner.plan.specs().len())
                .finish(),
            None => f.write_str("FaultInjector(disabled)"),
        }
    }
}

/// Handle identity (`Arc::ptr_eq`), like `Telemetry`: two clones of one
/// injector are equal; two separately-enabled injectors are not.
impl PartialEq for FaultInjector {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl FaultInjector {
    /// The no-op handle: probes never fire, nothing is logged.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An injector driven by `plan`.
    pub fn with_plan(plan: FaultPlan) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                plan,
                log: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this handle can ever inject.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Evaluates the plan at `(site, key, unit, attempt)`; if a fault
    /// fires, records it and panics with an [`InjectedFault`] payload.
    /// The decision is a pure function of the arguments — no clocks, no
    /// ambient state — so probes are schedule-independent.
    pub fn probe(&self, site: FaultSite, key: u64, unit: u64, attempt: u32) {
        let Some(inner) = &self.inner else {
            return;
        };
        let Some(kind) = inner.plan.fault_for(site, key, unit, attempt) else {
            return;
        };
        {
            let mut log = inner
                .log
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            log.push(FaultRecord {
                site,
                key,
                unit,
                attempt,
                permanent: kind == FaultKind::Permanent,
            });
        }
        std::panic::panic_any(InjectedFault {
            site,
            key,
            unit,
            attempt,
        });
    }

    /// Snapshot of every injection so far, in canonical order.
    pub fn log(&self) -> FaultLog {
        let mut records = match &self.inner {
            Some(inner) => inner
                .log
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone(),
            None => Vec::new(),
        };
        records.sort_unstable();
        FaultLog { records }
    }
}

/// Installs (once, process-wide) a panic hook that suppresses the
/// default "thread panicked" report for [`InjectedFault`] payloads and
/// delegates everything else to the previously-installed hook. Chaos
/// tests and examples call this so thousands of injected panics don't
/// drown real output; foreign panics still print normally.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    #[test]
    fn disabled_probe_is_a_no_op() {
        let injector = FaultInjector::disabled();
        injector.probe(FaultSite::Build, 0, 0, 0);
        assert!(injector.log().is_empty());
        assert!(!injector.is_enabled());
    }

    #[test]
    fn probe_records_then_panics_with_typed_payload() {
        silence_injected_panics();
        let injector =
            FaultInjector::with_plan(FaultPlan::new().transient(FaultSite::Fragment, 0, 1));
        let clone = injector.clone();
        let payload = std::panic::catch_unwind(move || clone.probe(FaultSite::Fragment, 5, 2, 0))
            .expect_err("fault must fire on attempt 0");
        let fault = payload
            .downcast_ref::<InjectedFault>()
            .expect("payload is InjectedFault");
        assert_eq!(fault.site, FaultSite::Fragment);
        assert_eq!(fault.unit, 2);
        // Attempt 1 succeeds (transient with 1 failure).
        injector.probe(FaultSite::Fragment, 5, 2, 1);
        let log = injector.log();
        assert_eq!(log.len(), 1);
        assert_eq!(log.records[0].attempt, 0);
        assert!(!log.records[0].permanent);
    }

    #[test]
    fn log_is_canonically_sorted() {
        silence_injected_panics();
        let plan = FaultPlan::new()
            .transient(FaultSite::Merge, 1, 1)
            .transient(FaultSite::Build, 0, 1);
        let injector = FaultInjector::with_plan(plan);
        for (site, key) in [(FaultSite::Merge, 1u64 << 32), (FaultSite::Build, 0)] {
            let handle = injector.clone();
            let _ = std::panic::catch_unwind(move || handle.probe(site, key, 0, 0));
        }
        let log = injector.log();
        assert_eq!(log.records[0].site, FaultSite::Build);
        assert_eq!(log.records[1].site, FaultSite::Merge);
    }

    #[test]
    fn handle_equality_is_identity() {
        let a = FaultInjector::with_plan(FaultPlan::new());
        let b = FaultInjector::with_plan(FaultPlan::new());
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
        assert_eq!(FaultInjector::disabled(), FaultInjector::disabled());
    }
}
