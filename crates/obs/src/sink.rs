//! Trace sinks: where records go, and the cheap handle that emits them.
//!
//! The default sink is a no-op whose `emit` does nothing and whose
//! `is_enabled` is `false`, so instrumented hot paths cost one branch
//! when tracing is off — and, critically, never read the wall clock, so
//! determinism tests stay byte-identical with the default sink.
//!
//! The ring-buffer sink is bounded: when full it evicts the oldest
//! record and counts the drop, so a long fleet run can never exhaust
//! memory through its own observability.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use tinman_sim::{SimClock, SimTime};

use crate::event::TraceEvent;

/// Locks `m`, recovering the guard if a panicking thread poisoned it:
/// every update the crate makes under these locks is a single step, so a
/// poisoned value is still valid.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Chrome-style phase of a record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracePhase {
    /// A point event (`ph: "i"`).
    Instant,
    /// A span opening (`ph: "B"`); spans nest stack-wise per track.
    Begin,
    /// A span closing (`ph: "E"`).
    End,
}

/// One recorded occurrence, stamped with **both** clocks: the simulated
/// instant (what the evaluation reasons about) and wall nanoseconds since
/// the sink was created (what the host actually did, e.g. worker-thread
/// interleaving). Only the simulated stamp is deterministic.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// Monotone sequence number assigned by the sink (gap-free unless
    /// records were dropped).
    pub seq: u64,
    /// Logical track (Chrome `tid`): 0 for a standalone runtime, the
    /// session id inside a fleet.
    pub track: u64,
    /// Simulated time of the event, nanoseconds since simulation start.
    pub sim_ns: u64,
    /// Wall-clock nanoseconds since the sink was created.
    pub wall_ns: u64,
    /// Instant, span begin, or span end.
    pub phase: TracePhase,
    /// The typed payload.
    pub event: TraceEvent,
}

/// Where trace records go. Implementations must be thread-safe: a fleet's
/// worker threads share one sink.
pub trait TraceSink: Send + Sync {
    /// Records one occurrence. `sim_ns` is the simulated stamp; the sink
    /// supplies the wall stamp (a no-op sink never reads any clock).
    fn record(&self, phase: TracePhase, track: u64, sim_ns: u64, event: TraceEvent);
}

/// The disabled sink: does nothing, costs nothing.
struct NoopSink;

impl TraceSink for NoopSink {
    fn record(&self, _phase: TracePhase, _track: u64, _sim_ns: u64, _event: TraceEvent) {}
}

struct Ring {
    records: VecDeque<TraceRecord>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded in-memory event log. When the buffer fills, the **oldest**
/// record is evicted and counted in [`RingBufferSink::dropped`] — recent
/// history survives, which is what post-mortems want.
pub struct RingBufferSink {
    capacity: usize,
    start: Instant,
    inner: Mutex<Ring>,
}

impl RingBufferSink {
    /// A sink holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Arc<RingBufferSink> {
        Arc::new(RingBufferSink {
            capacity: capacity.max(1),
            start: Instant::now(),
            inner: Mutex::new(Ring { records: VecDeque::new(), next_seq: 0, dropped: 0 }),
        })
    }

    /// A copy of the records currently buffered, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        lock(&self.inner).records.iter().cloned().collect()
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        lock(&self.inner).records.len()
    }

    /// True if nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        lock(&self.inner).records.is_empty()
    }

    /// Records evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        lock(&self.inner).dropped
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, phase: TracePhase, track: u64, sim_ns: u64, event: TraceEvent) {
        let wall_ns = self.start.elapsed().as_nanos() as u64;
        let mut ring = lock(&self.inner);
        if ring.records.len() == self.capacity {
            ring.records.pop_front();
            ring.dropped += 1;
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.records.push_back(TraceRecord { seq, track, sim_ns, wall_ns, phase, event });
    }
}

/// The cheap, clonable emitter the whole stack carries. Defaults to the
/// no-op sink; [`TraceHandle::is_enabled`] lets hot paths skip building
/// event payloads entirely when tracing is off.
#[derive(Clone)]
pub struct TraceHandle {
    enabled: bool,
    sink: Arc<dyn TraceSink>,
}

impl Default for TraceHandle {
    fn default() -> Self {
        TraceHandle::noop()
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TraceHandle(enabled={})", self.enabled)
    }
}

impl TraceHandle {
    /// The disabled handle (the default everywhere).
    pub fn noop() -> TraceHandle {
        TraceHandle { enabled: false, sink: Arc::new(NoopSink) }
    }

    /// A handle over a custom sink.
    pub fn new(sink: Arc<dyn TraceSink>) -> TraceHandle {
        TraceHandle { enabled: true, sink }
    }

    /// A handle plus its ring-buffer sink (the usual enabled pairing).
    pub fn ring(capacity: usize) -> (TraceHandle, Arc<RingBufferSink>) {
        let sink = RingBufferSink::new(capacity);
        (TraceHandle::new(sink.clone()), sink)
    }

    /// False for the no-op handle. Guard expensive payload construction:
    /// `if trace.is_enabled() { trace.emit(...) }`.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an instant event on track 0.
    pub fn emit(&self, sim: SimTime, event: TraceEvent) {
        self.emit_on(0, sim, event);
    }

    /// Records an instant event on a specific track.
    pub fn emit_on(&self, track: u64, sim: SimTime, event: TraceEvent) {
        if self.enabled {
            self.sink.record(TracePhase::Instant, track, sim.as_nanos(), event);
        }
    }

    /// Opens a span. Pair with [`TraceHandle::span_end`] (same track;
    /// spans nest stack-wise), or use [`TraceHandle::span_guard`].
    pub fn span_start(&self, track: u64, sim: SimTime, name: &str) {
        if self.enabled {
            self.sink.record(
                TracePhase::Begin,
                track,
                sim.as_nanos(),
                TraceEvent::Span { name: name.to_owned() },
            );
        }
    }

    /// Closes the innermost open span on `track`.
    pub fn span_end(&self, track: u64, sim: SimTime, name: &str) {
        if self.enabled {
            self.sink.record(
                TracePhase::End,
                track,
                sim.as_nanos(),
                TraceEvent::Span { name: name.to_owned() },
            );
        }
    }

    /// Opens a span and returns a guard that closes it (stamping the
    /// simulated clock at drop time) on every exit path, including `?`.
    pub fn span_guard(&self, track: u64, clock: &SimClock, name: &str) -> SpanGuard {
        self.span_start(track, clock.now(), name);
        SpanGuard { trace: self.clone(), clock: clock.clone(), track, name: name.to_owned() }
    }
}

/// RAII span: emits the matching [`TracePhase::End`] record when dropped,
/// reading the simulated clock at that moment. Not `Send` (it holds a
/// `SimClock`); use explicit `span_start`/`span_end` across threads.
pub struct SpanGuard {
    trace: TraceHandle,
    clock: SimClock,
    track: u64,
    name: String,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.trace.span_end(self.track, self.clock.now(), &self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinman_sim::SimDuration;

    #[test]
    fn noop_handle_is_disabled_and_silent() {
        let h = TraceHandle::default();
        assert!(!h.is_enabled());
        h.emit(SimTime::ZERO, TraceEvent::NetInject { bytes: 1 });
        // Nothing to observe — the point is it cannot panic or allocate a log.
    }

    #[test]
    fn ring_buffer_records_and_bounds() {
        let (h, sink) = TraceHandle::ring(3);
        assert!(h.is_enabled());
        for i in 0..7u64 {
            h.emit(SimTime::ZERO, TraceEvent::NetRedirect { bytes: i });
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 4);
        let recs = sink.snapshot();
        // Oldest evicted: the survivors are the last three, in order.
        assert_eq!(recs[0].event, TraceEvent::NetRedirect { bytes: 4 });
        assert_eq!(recs[2].event, TraceEvent::NetRedirect { bytes: 6 });
        assert!(recs.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn records_carry_both_clocks() {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_millis(5));
        let (h, sink) = TraceHandle::ring(8);
        h.emit(clock.now(), TraceEvent::TcpPayloadReplace { bytes: 64 });
        let rec = &sink.snapshot()[0];
        assert_eq!(rec.sim_ns, 5_000_000);
        // Wall stamp exists and is plausibly tiny; it is not deterministic.
        assert!(rec.wall_ns < 60_000_000_000);
    }

    #[test]
    fn span_guard_balances_on_early_exit() {
        let clock = SimClock::new();
        let (h, sink) = TraceHandle::ring(8);
        let run = |fail: bool| -> Result<(), ()> {
            let _g = h.span_guard(0, &clock, "work");
            if fail {
                return Err(());
            }
            Ok(())
        };
        run(true).unwrap_err();
        run(false).unwrap();
        let recs = sink.snapshot();
        let begins = recs.iter().filter(|r| r.phase == TracePhase::Begin).count();
        let ends = recs.iter().filter(|r| r.phase == TracePhase::End).count();
        assert_eq!(begins, 2);
        assert_eq!(ends, 2);
    }
}
