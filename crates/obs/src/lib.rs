#![warn(missing_docs)]
//! **tinman-obs** — structured tracing and metrics for the whole stack.
//!
//! TinMan's evaluation is built entirely from runtime measurements
//! (offload counts, DSM sync causes, per-phase latency), and a
//! flow-enforcement system needs an audit trail of every policy-relevant
//! event. This crate provides both without touching the simulation:
//!
//! - [`TraceEvent`] — the typed event taxonomy (offload triggers with
//!   taint labels, DSM syncs with cause, SSL injection, TCP payload
//!   replacement, migrate-back, fleet placement/failover/backoff).
//! - [`TraceHandle`] / [`TraceSink`] — the emitter the stack carries and
//!   the destinations: a no-op sink (the default — one branch on the hot
//!   path, never reads any clock, so determinism tests stay
//!   byte-identical) and a bounded [`RingBufferSink`].
//! - Dual clocks: every [`TraceRecord`] is stamped with simulated **and**
//!   wall time. Simulated time is the deterministic evaluation timeline;
//!   wall time shows what the host (worker threads, admission stalls)
//!   actually did.
//! - Spans: [`TraceHandle::span_start`]/[`TraceHandle::span_end`] nest
//!   stack-wise per track, Chrome `B`/`E` style; [`SpanGuard`] closes on
//!   every exit path.
//! - Exporters: [`chrome_trace_json`] (loads in `chrome://tracing` /
//!   Perfetto) and [`json_lines`].
//! - [`MetricsRegistry`] — named counters and histograms, emitted only
//!   by the fleet executor (`FleetObs::metrics` in `tinman-fleet`); sums
//!   commute and histograms sort before summarizing, so registry-derived
//!   numbers are deterministic under any worker interleaving.

pub mod event;
pub mod export;
pub mod metrics;
pub mod sink;

pub use event::TraceEvent;
pub use export::{chrome_trace_json, chrome_trace_value, json_lines};
pub use metrics::{HistogramStats, MetricsRegistry};
pub use sink::{RingBufferSink, SpanGuard, TraceHandle, TracePhase, TraceRecord, TraceSink};
