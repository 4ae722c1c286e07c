//! The DSM engine: migration packets, sync accounting, and the
//! endpoint-pair heap-mirroring protocol.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use tinman_obs::{TraceEvent, TraceHandle};
use tinman_sim::{SimClock, SimTime};
use tinman_vm::machine::LockSite;
use tinman_vm::{Frame, Machine, ObjId};

use crate::delta::HeapDelta;
use crate::error::DsmError;
use crate::token::CorMaterializer;

/// Why a synchronization happened — the paper's three observed causes
/// (§6.3) plus the return migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncCause {
    /// The client touched a tainted placeholder (offload trigger).
    OffloadTrigger,
    /// The trusted node invoked a non-offloadable native (migrate back).
    NonOffloadableNative,
    /// A happens-before edge required transferring a remotely-owned lock.
    LockTransfer,
    /// The trusted node went taint-idle (migrate back, §3.1 case 1).
    TaintIdle,
}

impl SyncCause {
    /// Stable snake_case name for trace events and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SyncCause::OffloadTrigger => "offload_trigger",
            SyncCause::NonOffloadableNative => "non_offloadable_native",
            SyncCause::LockTransfer => "lock_transfer",
            SyncCause::TaintIdle => "taint_idle",
        }
    }
}

/// Cumulative DSM statistics for one app session — the raw material of
/// Table 3.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DsmStats {
    /// Number of synchronizations (either direction).
    pub sync_count: u64,
    /// Bytes shipped by the initial full-heap sync.
    pub init_bytes: u64,
    /// Bytes shipped by all subsequent dirty syncs.
    pub dirty_bytes: u64,
    /// Per-cause sync counts, indexed by [`SyncCause`] order.
    pub causes: Vec<(SyncCause, u64)>,
}

impl DsmStats {
    fn record_cause(&mut self, cause: SyncCause) {
        if let Some((_, n)) = self.causes.iter_mut().find(|(c, _)| *c == cause) {
            *n += 1;
        } else {
            self.causes.push((cause, 1));
        }
    }

    /// Count of syncs attributed to `cause`.
    pub fn cause_count(&self, cause: SyncCause) -> u64 {
        self.causes.iter().find(|(c, _)| *c == cause).map_or(0, |(_, n)| *n)
    }

    /// Total bytes shipped.
    pub fn total_bytes(&self) -> u64 {
        self.init_bytes + self.dirty_bytes
    }

    /// Merges another engine's statistics into this one (multi-node
    /// aggregation).
    pub fn absorb(&mut self, other: &DsmStats) {
        self.sync_count += other.sync_count;
        self.init_bytes += other.init_bytes;
        self.dirty_bytes += other.dirty_bytes;
        for (cause, n) in &other.causes {
            if let Some((_, m)) = self.causes.iter_mut().find(|(c, _)| c == cause) {
                *m += n;
            } else {
                self.causes.push((*cause, *n));
            }
        }
    }
}

/// One migration message: the suspended thread plus the heap changes the
/// other endpoint has not seen.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MigrationPacket {
    /// The thread's full call stack. Frames are small (the paper's DSM
    /// ships them wholesale).
    pub frames: Vec<Frame>,
    /// Heap changes since the last sync.
    pub delta: HeapDelta,
    /// The sender's monitor table. Ownership is rewritten on both sides so
    /// that monitors held by the migrating thread follow it (COMET's
    /// lock-ownership transfer).
    pub locks: HashMap<ObjId, (LockSite, u32)>,
    /// Monitors held by non-migrating background threads (these stay with
    /// their endpoint across thread migrations).
    pub pinned: std::collections::HashSet<ObjId>,
    /// Which endpoint sent this packet.
    pub from: LockSite,
    /// Why this sync happened.
    pub cause: SyncCause,
}

impl MigrationPacket {
    /// Serialized size in bytes (what the radio transfers): the length of
    /// the canonical JSON encoding, counted without writing it.
    pub fn wire_bytes(&self) -> u64 {
        self.json_len()
    }
}

/// A scheduled DSM outage: synchronizations attempted while the clock is
/// inside any of the `windows` fail with [`DsmError::SyncTimeout`] — the
/// simulated form of "the trusted node stopped answering mid-session".
///
/// An empty window list is a valid, inert fault: the chaos layer installs
/// one unconditionally so checkpoint recording behaves identically whether
/// or not a crash is scheduled.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyncFault {
    /// Half-open outage windows `[from, until)` on the session timeline.
    pub windows: Vec<(SimTime, SimTime)>,
}

impl SyncFault {
    /// A fault with no outage windows (checkpoint recording only).
    pub fn inert() -> Self {
        SyncFault::default()
    }

    /// A single open-ended outage starting at `from` — a node crash with
    /// no recovery inside this session.
    pub fn crash_at(from: SimTime) -> Self {
        SyncFault { windows: vec![(from, SimTime::MAX)] }
    }

    /// True if `now` falls inside any outage window.
    pub fn active_at(&self, now: SimTime) -> bool {
        self.windows.iter().any(|&(from, until)| now >= from && now < until)
    }

    /// When the outage window covering `now` ends, or `None` if `now` is
    /// outside every window. A retry-with-backoff loop uses this to
    /// decide whether waiting can ever clear the fault (open-ended
    /// crashes return `SimTime::MAX`: waiting is hopeless, fail closed).
    pub fn clears_at(&self, now: SimTime) -> Option<SimTime> {
        self.windows
            .iter()
            .filter(|&&(from, until)| now >= from && now < until)
            .map(|&(_, until)| until)
            .max()
    }
}

/// A guard budget on DSM activity for one session: sync count and shipped
/// delta bytes. Installed by the runtime when a [`GuardPolicy`] is armed;
/// absent (the default), the engine behaves exactly as before.
///
/// [`GuardPolicy`]: https://docs.rs/tinman-guard
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncBudget {
    /// Maximum synchronizations (either direction).
    pub max_syncs: u64,
    /// Maximum total bytes shipped by deltas.
    pub max_bytes: u64,
}

/// The offloading engine for one (client, trusted node) machine pair.
///
/// The engine itself is endpoint-agnostic: the runtime holds one instance
/// and calls [`DsmEngine::migrate`] to move execution either direction, or
/// [`DsmEngine::lock_transfer`] to exchange heap state without moving the
/// thread (lock transfers).
#[derive(Clone, Debug, Default)]
pub struct DsmEngine {
    stats: DsmStats,
    init_done: bool,
    /// Tracing wiring: `(handle, clock, track)`. `None` (the default)
    /// keeps every sync path free of clock reads and event construction.
    trace: Option<(TraceHandle, SimClock, u64)>,
    /// Fault wiring: `(fault, clock)`. `None` (the default) keeps sync
    /// paths free of clock reads; checkpoints are recorded only when this
    /// is present, never from the trace wiring, so traced and untraced
    /// runs stay byte-identical.
    fault: Option<(SyncFault, SimClock)>,
    /// Guard budget wiring. `None` (the default) keeps every sync path
    /// free of budget arithmetic, so unguarded runs are byte-identical to
    /// the pre-guard engine.
    budget: Option<SyncBudget>,
    /// The instant of the most recent completed synchronization — the
    /// checkpoint a replay can resume from.
    last_sync_at: Option<SimTime>,
}

impl DsmEngine {
    /// A fresh engine (no sync performed yet).
    pub fn new() -> Self {
        DsmEngine::default()
    }

    /// Wires the engine to a trace sink: every synchronization emits a
    /// `dsm_sync` event (cause, direction, wire bytes) stamped with
    /// `clock` on `track`. The runtime re-wires its engines at the start
    /// of each run (engines are rebuilt per run).
    pub fn set_trace(&mut self, trace: TraceHandle, clock: SimClock, track: u64) {
        self.trace = if trace.is_enabled() { Some((trace, clock, track)) } else { None };
    }

    /// Installs a sync-fault window read against `clock`. Synchronizations
    /// attempted inside a window fail with [`DsmError::SyncTimeout`];
    /// completed synchronizations record a checkpoint readable via
    /// [`DsmEngine::last_sync_at`]. Like [`DsmEngine::set_trace`], this
    /// must be re-applied each run (the runtime rebuilds engines).
    pub fn set_fault(&mut self, fault: SyncFault, clock: SimClock) {
        self.fault = Some((fault, clock));
    }

    /// The checkpoint: when the last completed synchronization happened.
    /// `None` before the first sync or when no fault wiring is installed.
    pub fn last_sync_at(&self) -> Option<SimTime> {
        self.last_sync_at
    }

    /// When the sync-fault window covering the current clock ends —
    /// `None` when no fault is wired or the clock is outside every
    /// window. The runtime's bounded re-sync retry consults this to pick
    /// a backoff that can actually clear the outage.
    pub fn fault_clears_at(&self) -> Option<SimTime> {
        let (fault, clock) = self.fault.as_ref()?;
        fault.clears_at(clock.now())
    }

    /// Installs a guard budget on sync count and shipped bytes. Like
    /// [`DsmEngine::set_trace`], this must be re-applied each run (the
    /// runtime rebuilds engines).
    pub fn set_budget(&mut self, budget: SyncBudget) {
        self.budget = Some(budget);
    }

    /// Refuses a sync that would cross the sync-count budget (checked
    /// before any state moves, so a refused sync ships nothing).
    fn check_sync_count(&self) -> Result<(), DsmError> {
        if let Some(b) = &self.budget {
            if self.stats.sync_count >= b.max_syncs {
                return Err(DsmError::SyncBudgetExhausted { syncs: self.stats.sync_count });
            }
        }
        Ok(())
    }

    /// Flags a crossed byte budget after the sync's bytes were accounted
    /// (sizes are only known post-serialization).
    fn check_sync_bytes(&self) -> Result<(), DsmError> {
        if let Some(b) = &self.budget {
            let bytes = self.stats.total_bytes();
            if bytes > b.max_bytes {
                return Err(DsmError::SyncBytesExhausted { bytes });
            }
        }
        Ok(())
    }

    fn check_sync_fault(&self) -> Result<(), DsmError> {
        if let Some((fault, clock)) = &self.fault {
            let now = clock.now();
            if fault.active_at(now) {
                return Err(DsmError::SyncTimeout { at_ns: now.as_nanos() });
            }
        }
        Ok(())
    }

    fn record_checkpoint(&mut self) {
        if let Some((_, clock)) = &self.fault {
            self.last_sync_at = Some(clock.now());
        }
    }

    fn emit_sync(&self, cause: SyncCause, init: bool, bytes: u64) {
        if let Some((trace, clock, track)) = &self.trace {
            trace.emit_on(
                *track,
                clock.now(),
                TraceEvent::DsmSync { cause: cause.as_str(), init, bytes },
            );
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &DsmStats {
        &self.stats
    }

    /// True once the initial full-heap sync has happened (the app is "warm"
    /// on the trusted node).
    pub fn init_done(&self) -> bool {
        self.init_done
    }

    /// Resets statistics but keeps warm state.
    pub fn reset_stats(&mut self) {
        self.stats = DsmStats::default();
    }

    /// Builds the outgoing packet on the sending endpoint. The first sync of
    /// a session ships the full heap; later ones ship fresh/dirty state
    /// only. The sender's heap sync-marks are cleared. Returns the packet
    /// and the wire bytes charged for it.
    pub fn depart(
        &mut self,
        machine: &mut Machine,
        from: LockSite,
        cause: SyncCause,
        mat: &mut dyn CorMaterializer,
    ) -> Result<(MigrationPacket, u64), DsmError> {
        self.check_sync_fault()?;
        self.check_sync_count()?;
        let delta = if self.init_done {
            HeapDelta::build_dirty(&machine.heap, mat)?
        } else {
            HeapDelta::build_full(&machine.heap, mat)?
        };
        machine.heap.clear_sync_marks();
        let packet = MigrationPacket {
            frames: machine.frames.clone(),
            delta,
            locks: machine.locks.clone(),
            pinned: machine.pinned_locks.clone(),
            from,
            cause,
        };
        // The thread leaves this endpoint: monitors it holds go with it.
        machine.transfer_locks(from, from.other());
        let bytes = packet.wire_bytes();
        let init = !self.init_done;
        if self.init_done {
            self.stats.dirty_bytes += bytes;
        } else {
            self.stats.init_bytes += bytes;
            self.init_done = true;
        }
        self.stats.sync_count += 1;
        self.stats.record_cause(cause);
        self.check_sync_bytes()?;
        self.record_checkpoint();
        self.emit_sync(cause, init, bytes);
        Ok((packet, bytes))
    }

    /// Applies an incoming packet on the receiving endpoint: heap delta,
    /// thread frames, and lock ownership transfer.
    pub fn arrive(
        &mut self,
        machine: &mut Machine,
        packet: &MigrationPacket,
        mat: &mut dyn CorMaterializer,
    ) -> Result<(), DsmError> {
        packet.delta.apply(&mut machine.heap, mat)?;
        machine.heap.clear_sync_marks();
        machine.frames = packet.frames.clone();
        // Mirror the sender's monitor table, with the migrating thread's
        // monitors re-homed to this endpoint (pinned monitors stay put).
        machine.locks = packet.locks.clone();
        machine.pinned_locks = packet.pinned.clone();
        machine.transfer_locks(packet.from, packet.from.other());
        Ok(())
    }

    /// Full migration: departs from `src` and arrives at `dst` in one call.
    /// Returns the wire bytes charged, as [`DsmEngine::lock_transfer`] does.
    pub fn migrate(
        &mut self,
        src: &mut Machine,
        dst: &mut Machine,
        from: LockSite,
        cause: SyncCause,
        src_mat: &mut dyn CorMaterializer,
        dst_mat: &mut dyn CorMaterializer,
    ) -> Result<u64, DsmError> {
        let (packet, bytes) = self.depart(src, from, cause, src_mat)?;
        self.arrive(dst, &packet, dst_mat)?;
        Ok(bytes)
    }

    /// The lock-transfer synchronization (no thread movement): the
    /// `requester` is blocked on a monitor owned by the (paused) `holder`
    /// endpoint. COMET establishes the happens-before edge by exchanging
    /// state **both ways** and handing the monitor over; counted as one
    /// synchronization. Returns the total bytes exchanged.
    pub fn lock_transfer(
        &mut self,
        requester: &mut Machine,
        holder: &mut Machine,
        holder_site: LockSite,
        requester_mat: &mut dyn CorMaterializer,
        holder_mat: &mut dyn CorMaterializer,
    ) -> Result<u64, DsmError> {
        self.check_sync_fault()?;
        self.check_sync_count()?;
        // holder -> requester: anything the paused side still has unsynced.
        let d1 = HeapDelta::build_dirty(&holder.heap, holder_mat)?;
        d1.apply(&mut requester.heap, requester_mat)?;
        holder.heap.clear_sync_marks();
        // requester -> holder: what the running side produced so far, so
        // no fresh object is ever silently unmarked.
        let d2 = HeapDelta::build_dirty(&requester.heap, requester_mat)?;
        d2.apply(&mut holder.heap, holder_mat)?;
        requester.heap.clear_sync_marks();
        // Hand every monitor the holder endpoint owns (including the
        // pinned, background-thread one that caused this sync) to the
        // requester, in both endpoints' views.
        requester.pinned_locks = holder.pinned_locks.clone();
        requester.transfer_all_locks(holder_site, holder_site.other());
        holder.transfer_all_locks(holder_site, holder_site.other());
        requester.pinned_locks.clear();
        holder.pinned_locks.clear();

        let bytes = d1.wire_bytes() + d2.wire_bytes();
        self.stats.dirty_bytes += bytes;
        self.stats.sync_count += 1;
        self.stats.record_cause(SyncCause::LockTransfer);
        self.check_sync_bytes()?;
        self.record_checkpoint();
        self.emit_sync(SyncCause::LockTransfer, false, bytes);
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::PassthroughMaterializer;
    use tinman_taint::{Label, TaintSet};
    use tinman_vm::{FuncId, ObjId, Value};

    /// True if the packet's serialized form contains `needle`.
    fn wire_contains(packet: &MigrationPacket, needle: &str) -> bool {
        serde_json::to_string(packet).expect("a packet serializes").contains(needle)
    }

    /// Length of the JSON text actually written: the oracle every charged
    /// byte count must equal.
    fn written_len<T: Serialize>(v: &T) -> u64 {
        serde_json::to_vec(v).expect("serializes").len() as u64
    }

    fn machine_with_data() -> Machine {
        let mut m = Machine::new();
        m.heap.alloc_str("shared state");
        let o = m.heap.alloc_obj(0, 2);
        m.heap.field_set(o, 0, Value::Int(5)).unwrap();
        // Enough bulk that the initial sync dwarfs dirty syncs, as in a
        // real app heap.
        for i in 0..60 {
            m.heap.alloc_str(format!("framework object {i} with some payload bytes"));
        }
        m.frames.push(Frame::new(FuncId(0), "main", 2));
        m
    }

    #[test]
    fn first_sync_is_init_later_syncs_are_dirty() {
        let mut eng = DsmEngine::new();
        let mut client = machine_with_data();
        let mut node = Machine::new();

        let (p1, b1) = eng
            .depart(
                &mut client,
                LockSite::Client,
                SyncCause::OffloadTrigger,
                &mut PassthroughMaterializer,
            )
            .unwrap();
        eng.arrive(&mut node, &p1, &mut PassthroughMaterializer).unwrap();
        assert!(eng.init_done());
        assert_eq!(eng.stats().sync_count, 1);
        assert_eq!(b1, written_len(&p1), "the init sync is charged its JSON length");
        assert_eq!(p1.delta.wire_bytes(), written_len(&p1.delta));
        assert_eq!(eng.stats().init_bytes, b1);
        assert_eq!(eng.stats().dirty_bytes, 0);

        // Node mutates a little, migrates back.
        node.heap.field_set(ObjId(1), 1, Value::Int(42)).unwrap();
        let (p2, b2) = eng
            .depart(
                &mut node,
                LockSite::TrustedNode,
                SyncCause::TaintIdle,
                &mut PassthroughMaterializer,
            )
            .unwrap();
        eng.arrive(&mut client, &p2, &mut PassthroughMaterializer).unwrap();
        assert_eq!(eng.stats().sync_count, 2);
        assert_eq!(b2, written_len(&p2), "a dirty sync is charged its JSON length");
        assert_eq!(p2.delta.wire_bytes(), written_len(&p2.delta));
        assert_eq!(eng.stats().dirty_bytes, b2);
        assert!(b2 < b1 / 2, "dirty sync must be much smaller");
        assert_eq!(client.heap.field_get(ObjId(1), 1).unwrap(), Value::Int(42));

        // `migrate` charges the same count `depart` returns.
        node.heap.field_set(ObjId(1), 0, Value::Int(7)).unwrap();
        let before = eng.stats().dirty_bytes;
        let b3 = eng
            .migrate(
                &mut node,
                &mut client,
                LockSite::TrustedNode,
                SyncCause::TaintIdle,
                &mut PassthroughMaterializer,
                &mut PassthroughMaterializer,
            )
            .unwrap();
        assert!(b3 > 0);
        assert_eq!(eng.stats().dirty_bytes, before + b3);
    }

    #[test]
    fn migration_moves_frames_and_heap() {
        let mut eng = DsmEngine::new();
        let mut client = machine_with_data();
        let mut node = Machine::new();
        client.frames[0].push(Value::Int(9), TaintSet::EMPTY);
        client.frames[0].pc = 17;

        eng.migrate(
            &mut client,
            &mut node,
            LockSite::Client,
            SyncCause::OffloadTrigger,
            &mut PassthroughMaterializer,
            &mut PassthroughMaterializer,
        )
        .unwrap();
        assert_eq!(node.call_depth(), 1);
        assert_eq!(node.frames[0].pc, 17);
        assert_eq!(node.frames[0].peek(0).unwrap().0, Value::Int(9));
        assert_eq!(node.heap.str_value(ObjId(0)).unwrap(), "shared state");
    }

    #[test]
    fn lock_ownership_transfers_on_migration() {
        let mut eng = DsmEngine::new();
        let mut client = machine_with_data();
        client.locks.insert(ObjId(0), (LockSite::Client, 1));
        let mut node = Machine::new();

        eng.migrate(
            &mut client,
            &mut node,
            LockSite::Client,
            SyncCause::OffloadTrigger,
            &mut PassthroughMaterializer,
            &mut PassthroughMaterializer,
        )
        .unwrap();
        assert_eq!(node.lock_site(ObjId(0)), Some(LockSite::TrustedNode));
    }

    #[test]
    fn lock_transfer_hands_over_pinned_monitor_and_exchanges_state() {
        let mut eng = DsmEngine::new();
        let mut client = machine_with_data();
        let mut node = Machine::new();
        // A background thread on the client holds a pinned monitor.
        client.locks.insert(ObjId(0), (LockSite::Client, 1));
        client.pinned_locks.insert(ObjId(0));
        // Warm up (migration must NOT move the pinned monitor).
        eng.migrate(
            &mut client,
            &mut node,
            LockSite::Client,
            SyncCause::OffloadTrigger,
            &mut PassthroughMaterializer,
            &mut PassthroughMaterializer,
        )
        .unwrap();
        assert_eq!(node.lock_site(ObjId(0)), Some(LockSite::Client), "pinned stays");

        // Node runs, allocates, then blocks on the pinned monitor.
        let fresh = node.heap.alloc_str("node-made this");
        // Replay the two deltas on copies: the charge is their JSON length.
        let (mut requester, mut holder) = (node.clone(), client.clone());
        let d1 = HeapDelta::build_dirty(&holder.heap, &mut PassthroughMaterializer).unwrap();
        d1.apply(&mut requester.heap, &mut PassthroughMaterializer).unwrap();
        holder.heap.clear_sync_marks();
        let d2 = HeapDelta::build_dirty(&requester.heap, &mut PassthroughMaterializer).unwrap();
        assert!(!d2.is_empty(), "the node's fresh object ships");
        let bytes = eng
            .lock_transfer(
                &mut node,
                &mut client,
                LockSite::Client,
                &mut PassthroughMaterializer,
                &mut PassthroughMaterializer,
            )
            .unwrap();
        assert_eq!(bytes, written_len(&d1) + written_len(&d2));
        assert_eq!(node.lock_site(ObjId(0)), Some(LockSite::TrustedNode));
        assert_eq!(client.lock_site(ObjId(0)), Some(LockSite::TrustedNode));
        // Both directions of state flowed: the client learned about the
        // node's fresh object.
        assert_eq!(client.heap.str_value(fresh).unwrap(), "node-made this");
        assert_eq!(eng.stats().cause_count(SyncCause::LockTransfer), 1);
        assert_eq!(client.call_depth(), 1, "frames are not clobbered");
    }

    #[test]
    fn tainted_wire_traffic_is_clean() {
        let mut eng = DsmEngine::new();
        let mut client = Machine::new();
        client.heap.alloc_str_tainted("plaintext-cor-99", Label::new(0).unwrap().as_set());
        let mut node = Machine::new();

        let (p, _) = eng
            .depart(
                &mut client,
                LockSite::Client,
                SyncCause::OffloadTrigger,
                &mut PassthroughMaterializer,
            )
            .unwrap();
        eng.arrive(&mut node, &p, &mut PassthroughMaterializer).unwrap();
        assert!(!wire_contains(&p, "plaintext-cor-99"));
    }

    #[test]
    fn wired_engine_emits_sync_events() {
        let (h, sink) = TraceHandle::ring(16);
        let mut eng = DsmEngine::new();
        eng.set_trace(h, SimClock::new(), 7);
        let mut a = machine_with_data();
        let mut b = Machine::new();
        eng.migrate(
            &mut a,
            &mut b,
            LockSite::Client,
            SyncCause::OffloadTrigger,
            &mut PassthroughMaterializer,
            &mut PassthroughMaterializer,
        )
        .unwrap();
        eng.lock_transfer(
            &mut b,
            &mut a,
            LockSite::Client,
            &mut PassthroughMaterializer,
            &mut PassthroughMaterializer,
        )
        .unwrap();
        let recs = sink.snapshot();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].track, 7);
        match &recs[0].event {
            TraceEvent::DsmSync { cause, init, bytes } => {
                assert_eq!(*cause, "offload_trigger");
                assert!(*init, "first sync ships the full heap");
                assert!(*bytes > 0);
            }
            other => panic!("expected DsmSync, got {other:?}"),
        }
        match &recs[1].event {
            TraceEvent::DsmSync { cause, init, .. } => {
                assert_eq!(*cause, "lock_transfer");
                assert!(!*init);
            }
            other => panic!("expected DsmSync, got {other:?}"),
        }
    }

    #[test]
    fn sync_fault_window_times_out_and_checkpoints_survive() {
        use tinman_sim::SimDuration;
        let clock = SimClock::new();
        let mut eng = DsmEngine::new();
        let from = SimTime::ZERO + SimDuration::from_millis(100);
        eng.set_fault(SyncFault { windows: vec![(from, SimTime::MAX)] }, clock.clone());
        let mut a = machine_with_data();
        let mut b = Machine::new();

        // Before the window: sync succeeds and records a checkpoint.
        assert_eq!(eng.last_sync_at(), None);
        clock.advance(SimDuration::from_millis(40));
        eng.migrate(
            &mut a,
            &mut b,
            LockSite::Client,
            SyncCause::OffloadTrigger,
            &mut PassthroughMaterializer,
            &mut PassthroughMaterializer,
        )
        .unwrap();
        let cp = eng.last_sync_at().expect("checkpoint recorded");
        assert_eq!(cp.as_nanos(), 40_000_000);

        // Inside the window: both sync flavors time out, checkpoint keeps
        // its pre-crash value, and stats are untouched by the failures.
        clock.advance(SimDuration::from_millis(100));
        let synced = eng.stats().sync_count;
        let err = eng
            .migrate(
                &mut a,
                &mut b,
                LockSite::Client,
                SyncCause::TaintIdle,
                &mut PassthroughMaterializer,
                &mut PassthroughMaterializer,
            )
            .unwrap_err();
        assert!(matches!(err, DsmError::SyncTimeout { at_ns: 140_000_000 }));
        assert!(matches!(
            eng.lock_transfer(
                &mut a,
                &mut b,
                LockSite::Client,
                &mut PassthroughMaterializer,
                &mut PassthroughMaterializer,
            )
            .unwrap_err(),
            DsmError::SyncTimeout { .. }
        ));
        assert_eq!(eng.last_sync_at(), Some(cp));
        assert_eq!(eng.stats().sync_count, synced);
    }

    #[test]
    fn inert_fault_records_checkpoints_without_failing() {
        use tinman_sim::SimDuration;
        let clock = SimClock::new();
        let mut eng = DsmEngine::new();
        eng.set_fault(SyncFault::inert(), clock.clone());
        let mut a = machine_with_data();
        let mut b = Machine::new();
        clock.advance(SimDuration::from_millis(7));
        eng.migrate(
            &mut a,
            &mut b,
            LockSite::Client,
            SyncCause::OffloadTrigger,
            &mut PassthroughMaterializer,
            &mut PassthroughMaterializer,
        )
        .unwrap();
        assert_eq!(eng.last_sync_at().unwrap().as_nanos(), 7_000_000);
    }

    #[test]
    fn no_fault_wiring_means_no_checkpoints() {
        let mut eng = DsmEngine::new();
        let mut a = machine_with_data();
        let mut b = Machine::new();
        eng.migrate(
            &mut a,
            &mut b,
            LockSite::Client,
            SyncCause::OffloadTrigger,
            &mut PassthroughMaterializer,
            &mut PassthroughMaterializer,
        )
        .unwrap();
        assert_eq!(eng.last_sync_at(), None, "checkpoints need explicit fault wiring");
    }

    #[test]
    fn sync_budget_refuses_excess_syncs_and_bytes() {
        let mut eng = DsmEngine::new();
        eng.set_budget(SyncBudget { max_syncs: 2, max_bytes: u64::MAX });
        let mut a = machine_with_data();
        let mut b = Machine::new();
        for _ in 0..2 {
            eng.migrate(
                &mut a,
                &mut b,
                LockSite::Client,
                SyncCause::TaintIdle,
                &mut PassthroughMaterializer,
                &mut PassthroughMaterializer,
            )
            .unwrap();
        }
        let err = eng
            .migrate(
                &mut a,
                &mut b,
                LockSite::Client,
                SyncCause::TaintIdle,
                &mut PassthroughMaterializer,
                &mut PassthroughMaterializer,
            )
            .unwrap_err();
        assert_eq!(err, DsmError::SyncBudgetExhausted { syncs: 2 });
        assert_eq!(eng.stats().sync_count, 2, "a refused sync ships nothing");

        // Byte budget: a tiny cap trips on the very first (init) sync.
        let mut eng = DsmEngine::new();
        eng.set_budget(SyncBudget { max_syncs: u64::MAX, max_bytes: 16 });
        let mut a = machine_with_data();
        let mut b = Machine::new();
        let err = eng
            .migrate(
                &mut a,
                &mut b,
                LockSite::Client,
                SyncCause::OffloadTrigger,
                &mut PassthroughMaterializer,
                &mut PassthroughMaterializer,
            )
            .unwrap_err();
        assert!(matches!(err, DsmError::SyncBytesExhausted { bytes } if bytes > 16));
    }

    #[test]
    fn no_budget_means_no_refusals() {
        let mut eng = DsmEngine::new();
        let mut a = machine_with_data();
        let mut b = Machine::new();
        for _ in 0..8 {
            eng.migrate(
                &mut a,
                &mut b,
                LockSite::Client,
                SyncCause::TaintIdle,
                &mut PassthroughMaterializer,
                &mut PassthroughMaterializer,
            )
            .unwrap();
        }
        assert_eq!(eng.stats().sync_count, 8);
    }

    #[test]
    fn cause_accounting() {
        let mut eng = DsmEngine::new();
        let mut a = Machine::new();
        let mut b = Machine::new();
        for cause in [SyncCause::OffloadTrigger, SyncCause::TaintIdle, SyncCause::TaintIdle] {
            eng.migrate(
                &mut a,
                &mut b,
                LockSite::Client,
                cause,
                &mut PassthroughMaterializer,
                &mut PassthroughMaterializer,
            )
            .unwrap();
        }
        assert_eq!(eng.stats().cause_count(SyncCause::OffloadTrigger), 1);
        assert_eq!(eng.stats().cause_count(SyncCause::TaintIdle), 2);
        assert_eq!(eng.stats().cause_count(SyncCause::LockTransfer), 0);
        assert_eq!(eng.stats().sync_count, 3);
    }
}
