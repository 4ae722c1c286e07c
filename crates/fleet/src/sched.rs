//! The fleet's worker pool and its observability wiring: worker threads
//! pull session specs from a shared list and return one outcome each.
//! The executor they run is [`crate::chaos_run::execute_with_chaos`].

use std::sync::atomic::{AtomicUsize, Ordering};

use tinman_obs::{MetricsRegistry, TraceHandle};

use crate::session::SessionOutcome;
use crate::spec::SessionSpec;

/// Observability wiring for a fleet run: a trace emitter shared by the
/// scheduler and every session runtime, plus the fleet-level metrics
/// registry. The default is fully disabled tracing and a fresh registry
/// — the configuration the determinism tests pin down.
#[derive(Clone, Debug, Default)]
pub struct FleetObs {
    /// Trace emitter. Scheduler events (placement, failover, backoff,
    /// pool clamp) and each session's runtime events share the sink;
    /// session `spec.id` is the track.
    pub trace: TraceHandle,
    /// Fleet-level counters and histograms. Counter sums commute across
    /// worker threads, so their totals are the same at any worker count.
    pub metrics: MetricsRegistry,
}

/// Runs `work` over every spec on `workers` threads and collects the
/// outcomes (in no particular order). Each worker claims the next
/// unclaimed spec by bumping a shared index. If a worker panics, its
/// original panic payload is re-raised here, not replaced by
/// `thread::scope`'s generic "a scoped thread panicked".
pub(crate) fn run_worker_pool<F>(
    workers: usize,
    specs: &[SessionSpec],
    work: F,
) -> Vec<SessionOutcome>
where
    F: Fn(&SessionSpec) -> SessionOutcome + Sync,
{
    // `Relaxed` is enough: the index publishes no data (the specs are
    // shared read-only before any worker starts), and `fetch_add` alone
    // guarantees each index is claimed exactly once.
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut outcomes = Vec::new();
                    while let Some(spec) = specs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        outcomes.push(work(spec));
                    }
                    outcomes
                })
            })
            .collect();
        let mut outcomes = Vec::with_capacity(specs.len());
        for handle in handles {
            match handle.join() {
                Ok(done) => outcomes.extend(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        outcomes
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{build_session_specs, FleetConfig};

    #[test]
    fn worker_panic_is_propagated_not_masked() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let specs = build_session_specs(&FleetConfig::new(64, 1));
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_worker_pool(1, &specs, |_spec| panic!("worker died mid-session"))
        }));
        let payload = result.expect_err("the worker panic must surface");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "worker died mid-session", "the pool masked the worker's panic");
    }
}
