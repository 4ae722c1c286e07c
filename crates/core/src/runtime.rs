//! The TinMan runtime event loop.
//!
//! [`TinmanRuntime::run_app`] drives one application run across the client
//! and the trusted node, reproducing the paper's §3 mechanisms end to end:
//! on-demand offloading on taint triggers, DSM migration with cor
//! tokenization, SSL session injection and TCP payload replacement for
//! cor-bearing sends, migrate-back on non-offloadable natives or taint
//! idleness, lock-transfer syncs, and the §3.4 policy enforcement.
//!
//! The same runtime also runs the paper's two comparison baselines
//! ([`Mode::Stock`] and [`Mode::FullTaint`]), which keeps every measured
//! difference attributable to the mechanism rather than the harness.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use tinman_cor::{CorStore, PolicyDecision};
use tinman_dsm::{DsmEngine, DsmError, DsmStats, SyncBudget, SyncCause};
use tinman_guard::{GuardPolicy, KillReason, ScrubReceipt};
use tinman_net::{HostId, MarkFilter, NetWorld, Traffic};
use tinman_obs::{MetricsRegistry, TraceEvent, TraceHandle};
use tinman_sim::{Breakdown, MicroJoules, RetryPolicy, SimClock, SimDuration, SimTime, SplitMix64};
use tinman_taint::TaintEngine;
use tinman_tls::{TlsConfig, TINMAN_MARK};
use tinman_vm::machine::LockSite;
use tinman_vm::{
    AppImage, CompiledImage, ExecConfig, ExecEvent, Machine, NativeHost, TierTelemetry, Value,
    VmError,
};

use crate::device::ClientDevice;
use crate::error::RuntimeError;
use crate::hosts::{ClientHost, ClientMode, NodeHost};
use crate::materialize::{ClientMaterializer, NodeMaterializer};
use crate::node::TrustedNode;
use crate::scan::{scan_device, ResidueReport};

/// Which system configuration a run uses (the paper's comparison set).
#[derive(Clone, Debug)]
pub enum Mode {
    /// TinMan: asymmetric client tainting + offloading; the user selects
    /// placeholders.
    TinMan,
    /// Stock Android: no tainting, no trusted node; the user types secrets
    /// (description -> plaintext).
    Stock(HashMap<String, String>),
    /// TaintDroid-style full tainting on the client, with TinMan
    /// offloading — the middle bar of Figure 13. Behaviourally the full
    /// engine never raises client triggers, so cor-touching apps cannot run
    /// in this mode; it exists for the overhead comparison on taint-free
    /// workloads.
    FullTaint,
}

/// Tunables for a runtime instance.
#[derive(Clone, Debug)]
pub struct TinmanConfig {
    /// Migrate back after this many node instructions without touching
    /// taint (§3.1 case 1).
    pub taint_idle_limit: u64,
    /// Per-segment instruction budget (runaway guard).
    pub fuel: u64,
    /// Toy-PKI pre-shared secret for the TLS handshakes.
    pub psk: [u8; 32],
    /// Seed for all runtime randomness (placeholders, nonces).
    pub seed: u64,
    /// Whether the device currently has connectivity (§5.4).
    pub online: bool,
    /// Fixed coordination cost of one SSL/TCP offload (arming the packet
    /// filter, netfilter queue handling, SSL-library synchronization in
    /// the prototype). Not derivable from first principles; calibrated to
    /// the paper's measured ~1.2 s (Wi-Fi) / ~1.6 s (3G) SSL/TCP overhead
    /// together with `ssl_coordination_rtts`.
    pub ssl_coordination_fixed: SimDuration,
    /// Client<->node round trips in the SSL/TCP offload control protocol
    /// (state export ack, filter arming, progress sync).
    pub ssl_coordination_rtts: u32,
    /// §3.5's *selective tainting*: when set, only app images whose hash
    /// is listed run with the asymmetric taint engine; every other app
    /// runs untracked (zero overhead — and zero cor protection: a
    /// non-critical app that selects a cor will send the placeholder
    /// verbatim and fail, by design). `None` = taint everything.
    pub critical_apps: Option<Vec<[u8; 32]>>,
    /// Per-session resource governance for node-side execution. `None`
    /// (the default) leaves every run byte-identical to the unguarded
    /// runtime; `Some` arms budget enforcement, watchdog deadline, and
    /// scrub-on-kill teardown for the guest.
    pub guard: Option<GuardPolicy>,
    /// Build the world as a routed internet instead of a flat link: the
    /// phone lives on an access subnet behind a NAT gateway, the trusted
    /// node on its own subnet, servers on the public core, joined by
    /// routers. `false` (the default) keeps the world byte-identical to
    /// the flat original.
    pub topology: bool,
    /// Bounded re-sync attempts after a DSM synchronization times out
    /// mid-session (a mobility handoff blackout or node outage). `0`
    /// (the default) surfaces the timeout immediately, exactly as
    /// before; with retries armed, exhaustion fails closed as a guest
    /// kill (`KillReason::Resync`) with the node heap scrubbed.
    pub resync_retries: u32,
    /// First re-sync backoff; doubles each attempt.
    pub resync_backoff: SimDuration,
}

impl Default for TinmanConfig {
    fn default() -> Self {
        TinmanConfig {
            taint_idle_limit: 2_000,
            fuel: 50_000_000,
            psk: [0x42; 32],
            seed: 12345,
            online: true,
            ssl_coordination_fixed: SimDuration::from_millis(680),
            ssl_coordination_rtts: 2,
            critical_apps: None,
            guard: None,
            topology: false,
            resync_retries: 0,
            resync_backoff: SimDuration::from_millis(500),
        }
    }
}

/// A DSM wire exchange between the client and the active node, named so
/// the re-sync retry loop can replay it verbatim after a timeout.
enum DsmOp {
    /// Full migrate client → node (offload trigger).
    MigrateToNode,
    /// Full migrate node → client with the given cause.
    MigrateToClient(SyncCause),
    /// Lock-ownership transfer: the node holds the monitor the client
    /// is blocked on.
    LockFromNode,
    /// Lock-ownership transfer: a client background thread holds the
    /// monitor the offloaded code is blocked on.
    LockFromClient,
}

/// The block tier as the runtime drives it: both endpoints run every
/// segment through [`tinman_vm::run_tiered`], which is bit-identical to
/// the interpreter by the `tinman-vm` tier contract, so reports and events
/// match an interpreted run and only host wall time changes.
#[derive(Default)]
struct BlockTier {
    /// The compiled image, keyed by app-image hash (one app is warm at a
    /// time, like the node's dex cache).
    compiled_cache: Option<([u8; 32], CompiledImage)>,
    /// Cumulative counters across every client and node segment.
    telemetry: TierTelemetry,
}

impl BlockTier {
    /// Runs one segment of `image` (whose hash is `app_hash`) on
    /// `machine`, compiling the image on a cache miss, and adds the
    /// segment's counter deltas to the runtime-local `tier.*` metrics.
    #[allow(clippy::too_many_arguments)]
    fn run_segment<H: NativeHost>(
        &mut self,
        metrics: &MetricsRegistry,
        image: &AppImage,
        app_hash: [u8; 32],
        machine: &mut Machine,
        host: &mut H,
        engine: &mut TaintEngine,
        exec: ExecConfig,
    ) -> Result<ExecEvent, VmError> {
        if self.compiled_cache.as_ref().is_some_and(|(h, _)| *h != app_hash) {
            self.compiled_cache = None;
        }
        let (_, compiled) = self.compiled_cache.get_or_insert_with(|| {
            metrics.incr("tier.compiles");
            (app_hash, CompiledImage::compile(image))
        });
        let before = self.telemetry;
        let r = tinman_vm::run_tiered(
            machine,
            image,
            compiled,
            host,
            engine,
            exec,
            &mut self.telemetry,
        );
        let t = self.telemetry;
        metrics.add("tier.block_runs", t.block_runs - before.block_runs);
        metrics.add("tier.fast_insns", t.fast_insns - before.fast_insns);
        metrics.add("tier.stepped_insns", t.stepped_insns - before.stepped_insns);
        metrics.add("tier.deopts", t.deopts - before.deopts);
        r
    }
}

/// A serialized suspension of an in-flight offloaded thread, taken at a
/// DSM sync point when the serving node drains (planned membership change
/// or a dying region).
///
/// The checkpoint is the unit of **live session migration**: the source
/// node serializes its guest machine and taint engine, scrubs its own
/// heap (carrying the proof as a [`ScrubReceipt`]), and the scheduler
/// ships these bytes to an attested peer through the sealed replica
/// channel. The target decodes the same bytes ([`NodeCheckpoint::restore`])
/// before resuming and refuses a checkpoint that does not decode; the
/// checkpoint instant is the replay credit charged against the session's
/// penalty deadline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NodeCheckpoint {
    /// The node index the guest drained from.
    pub node: usize,
    /// Simulated instant of the checkpoint, nanoseconds since session
    /// start.
    pub taken_at_ns: u64,
    /// The suspended guest machine (heap, frames, locks, counters), as
    /// canonical JSON.
    pub machine_json: String,
    /// The node-side taint engine at the sync point, as canonical JSON.
    pub engine_json: String,
    /// Proof the source heap was scrubbed before the state left the node.
    pub scrub: ScrubReceipt,
}

impl NodeCheckpoint {
    /// Bytes this checkpoint ships over the sealed replica channel.
    pub fn wire_bytes(&self) -> u64 {
        (self.machine_json.len() + self.engine_json.len()) as u64
    }

    /// The checkpoint instant on the session timeline.
    pub fn taken_at(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(self.taken_at_ns)
    }

    /// Decodes the suspended guest on the migration target. This checks
    /// that the bytes parse back into a machine and a taint engine; it
    /// does not compare them with the source. An error means the
    /// checkpoint cannot be trusted and the migration must be abandoned
    /// (fail closed), never resumed from guesswork.
    pub fn restore(&self) -> Result<(Machine, TaintEngine), RuntimeError> {
        let machine: Machine = serde_json::from_str(&self.machine_json)
            .map_err(|e| RuntimeError::CheckpointCorrupt { reason: e.to_string() })?;
        let engine: TaintEngine = serde_json::from_str(&self.engine_json)
            .map_err(|e| RuntimeError::CheckpointCorrupt { reason: e.to_string() })?;
        Ok((machine, engine))
    }
}

/// Everything measured about one app run — the raw material for Figures
/// 14-16 and Table 3.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The program's result value.
    pub result: Value,
    /// End-to-end simulated latency.
    pub latency: SimDuration,
    /// Stacked latency attribution: `exec.client`, `exec.node`, `dsm`,
    /// `ssl_tcp`, `net.server`, `warmup`.
    pub breakdown: Breakdown,
    /// DSM statistics (sync count, init/dirty bytes).
    pub dsm: DsmStats,
    /// Method invocations executed on the client.
    pub client_methods: u64,
    /// Method invocations executed on the trusted node (Table 3's
    /// "Off. Code").
    pub node_methods: u64,
    /// Times execution moved client -> node.
    pub offloads: u64,
    /// Client battery energy consumed by this run.
    pub energy: MicroJoules,
    /// Client radio traffic during the run.
    pub traffic: Traffic,
}

impl RunReport {
    /// Fraction of method invocations that ran on the trusted node.
    pub fn offloaded_fraction(&self) -> f64 {
        let total = self.client_methods + self.node_methods;
        if total == 0 {
            return 0.0;
        }
        self.node_methods as f64 / total as f64
    }
}

/// The composed system: world + client + node + DSM engine.
pub struct TinmanRuntime {
    /// The simulated internet (servers are installed here by the caller).
    pub world: NetWorld,
    /// The phone.
    pub client: ClientDevice,
    /// The primary trusted node.
    pub node: TrustedNode,
    /// The offloading engine for the primary node.
    pub dsm: DsmEngine,
    /// Additional trusted nodes (§5.3: different nodes for different
    /// passwords). Added with [`TinmanRuntime::add_trusted_node`]; cors are
    /// routed to the node whose store owns their label range.
    pub extra_nodes: Vec<TrustedNode>,
    extra_dsms: Vec<DsmEngine>,
    /// Which host the runtime last pointed the mark filter at. The filter
    /// is only reinstalled when the target node changes, so externally
    /// installed filters (tests, custom deployments) are not clobbered.
    filter_target: HostId,
    config: TinmanConfig,
    rng: SplitMix64,
    clock: SimClock,
    trace: TraceHandle,
    trace_track: u64,
    metrics: MetricsRegistry,
    /// DSM sync-fault window installed by the chaos layer. Like tracing,
    /// it must be re-applied to the engines each run (engines are rebuilt
    /// per run).
    dsm_fault: Option<tinman_dsm::SyncFault>,
    /// The block tier every client and node segment runs on.
    tier: BlockTier,
    /// Membership drain trigger: when set, the first node-segment sync
    /// point at or after this instant checkpoints the guest and drains
    /// the node instead of running the segment.
    drain_at: Option<SimTime>,
    /// Session secrets a drain-time scrub is verified against.
    drain_probes: Vec<String>,
    /// The checkpoint the last drain produced, awaiting pickup by the
    /// scheduler's migration path.
    node_checkpoint: Option<NodeCheckpoint>,
}

impl TinmanRuntime {
    /// Builds a runtime: a world containing the phone (with the given
    /// radio link) and the trusted node, wired with the egress mark filter.
    /// The caller installs web servers on `world` afterwards.
    pub fn new(store: CorStore, link: tinman_sim::LinkProfile, config: TinmanConfig) -> Self {
        let clock = SimClock::new();
        let mut world = NetWorld::new(clock.clone());
        let phone_host = world.add_host("phone", link.clone());
        let node_host = world.add_host("trusted-node", tinman_sim::LinkProfile::ethernet());
        if config.topology {
            // The routed internet the paper never tested: the phone on an
            // access subnet behind a NAT gateway, the trusted node on its
            // own subnet, web servers on the public core (subnet 0, where
            // callers install them), all joined by routers.
            world.enable_topology(tinman_net::TopologyConfig::default());
            world.assign_subnet(phone_host, 1);
            world.assign_subnet(node_host, 2);
            world.add_router("r-access", &[1, 0], &[]);
            world.add_router("r-core", &[0, 2], &[]);
            world.enable_nat(1);
        }
        // The iptables analogue: divert TinMan-marked packets to the node.
        world.set_egress_filter(
            phone_host,
            Box::new(MarkFilter { mark: TINMAN_MARK, to: node_host }),
        );
        let directory = store.client_directory();
        let client = ClientDevice::new(
            phone_host,
            "phone-1",
            TaintEngine::asymmetric(),
            directory,
            TlsConfig::tinman_client(config.psk),
            link,
        );
        let node = TrustedNode::new(node_host, store);
        let rng = SplitMix64::new(config.seed);
        TinmanRuntime {
            world,
            client,
            node,
            dsm: DsmEngine::new(),
            extra_nodes: Vec::new(),
            extra_dsms: Vec::new(),
            filter_target: node_host,
            config,
            rng,
            clock,
            trace: TraceHandle::noop(),
            trace_track: 0,
            metrics: MetricsRegistry::new(),
            dsm_fault: None,
            tier: BlockTier::default(),
            drain_at: None,
            drain_probes: Vec::new(),
            node_checkpoint: None,
        }
    }

    /// Cumulative block-tier counters across every client and node
    /// segment run so far.
    pub fn tier_telemetry(&self) -> TierTelemetry {
        self.tier.telemetry
    }

    /// Wires the runtime (and its world) to a trace sink. Every event the
    /// runtime emits — offload triggers, DSM syncs, SSL injection, payload
    /// replacement, migrate-back, plus the `run_app`/`offload` spans —
    /// lands on `track` (one track per device session in a fleet).
    pub fn set_trace(&mut self, trace: TraceHandle, track: u64) {
        self.world.set_trace(trace.clone(), track);
        self.trace = trace;
        self.trace_track = track;
    }

    /// Arms the per-session guard: node-side execution runs under
    /// `policy`'s budgets, and any exhaustion becomes a deterministic
    /// [`RuntimeError::GuestKilled`] with the node heap scrubbed.
    pub fn set_guard(&mut self, policy: GuardPolicy) {
        self.config.guard = Some(policy);
    }

    /// Installs a DSM sync-fault window (chaos-injected node outage).
    /// Synchronizations attempted while the session clock is inside a
    /// window fail with [`tinman_dsm::DsmError::SyncTimeout`], which
    /// surfaces from [`TinmanRuntime::run_app`] as [`RuntimeError::Dsm`].
    /// Installing a fault (even an inert one) also turns on checkpoint
    /// recording — see [`TinmanRuntime::dsm_checkpoint`].
    pub fn set_dsm_fault(&mut self, fault: tinman_dsm::SyncFault) {
        self.dsm_fault = Some(fault);
    }

    /// The instant of the primary engine's last completed synchronization —
    /// the checkpoint a chaos replay resumes from. `None` before the first
    /// sync or when no fault has been installed.
    pub fn dsm_checkpoint(&self) -> Option<tinman_sim::SimTime> {
        self.dsm.last_sync_at()
    }

    /// Arms the membership drain trigger: the first node-segment sync
    /// point at or after `at` serializes the guest into a
    /// [`NodeCheckpoint`], scrubs the source heap (verified against
    /// `probes` — the session's secrets), and surfaces
    /// [`RuntimeError::NodeDraining`] so the scheduler can migrate the
    /// session to a peer. A session that completes before `at` never
    /// observes the trigger.
    pub fn set_drain_at(&mut self, at: SimTime, probes: Vec<String>) {
        self.drain_at = Some(at);
        self.drain_probes = probes;
    }

    /// Takes the checkpoint the last drain produced, if any. The
    /// scheduler calls this after a [`RuntimeError::NodeDraining`] run to
    /// ship the suspended guest to the migration target.
    pub fn take_node_checkpoint(&mut self) -> Option<NodeCheckpoint> {
        self.node_checkpoint.take()
    }

    /// Checkpoints the guest on node `active` and drains it: serializes
    /// machine + taint engine, scrubs the source heap and stack, verifies
    /// the scrub against the drain probes, stores the checkpoint for
    /// pickup, and returns the [`RuntimeError::NodeDraining`] the run
    /// surfaces. Unlike [`Self::kill_guest`] the machine is not marked
    /// faulted — the serialized guest is healthy and resumable; only this
    /// node's copy of it is destroyed.
    fn checkpoint_and_drain(&mut self, active: usize) -> RuntimeError {
        let at_ns = self.clock.now().since(SimTime::ZERO).as_nanos();
        let probes = std::mem::take(&mut self.drain_probes);
        let node = if active == 0 { &mut self.node } else { &mut self.extra_nodes[active - 1] };
        let machine_json = serde_json::to_string(&node.machine).unwrap_or_default();
        let engine_json = serde_json::to_string(&node.engine).unwrap_or_default();
        node.machine.heap.scrub();
        node.machine.frames.clear();
        let residue: u64 = probes.iter().map(|p| node.machine.scan_residue(p).len() as u64).sum();
        let scrub = ScrubReceipt { node: active, at_ns, residue };
        self.metrics.incr("fleet.region.drains");
        self.node_checkpoint = Some(NodeCheckpoint {
            node: active,
            taken_at_ns: at_ns,
            machine_json,
            engine_json,
            scrub,
        });
        self.drain_at = None;
        RuntimeError::NodeDraining { node: active, at_ns }
    }

    /// The runtime's metrics registry. [`RunReport::offloads`] is read
    /// from the `runtime.offloads` counter here rather than from a
    /// hand-threaded local.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Replaces the metrics registry. Each runtime reads per-run counter
    /// *deltas* out of its registry, so give concurrent runtimes their own
    /// registries (the default) — sharing one across threads would mix
    /// their deltas.
    pub fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics;
    }

    /// Adds another trusted node owning `store`'s label range (§5.3 —
    /// "deploy different trusted nodes for different passwords to avoid
    /// putting all eggs in one basket"). The store's labels must be
    /// disjoint from every existing node's (use
    /// [`tinman_cor::CorStore::with_label_range`]). Returns the node's
    /// index (0 is the primary).
    ///
    /// The client's directory gains the new node's placeholders; each
    /// offload episode is routed to the node owning the touched cor, and a
    /// single derived value may not mix cors from different nodes.
    pub fn add_trusted_node(&mut self, name: &str, store: CorStore) -> usize {
        let host = self.world.add_host(name, tinman_sim::LinkProfile::ethernet());
        for (id, desc) in store.client_directory().listing() {
            let ph = store.placeholder(id).expect("has placeholder").to_owned();
            self.client.directory.insert(id, desc, &ph);
        }
        self.extra_nodes.push(TrustedNode::new(host, store));
        self.extra_dsms.push(DsmEngine::new());
        self.extra_nodes.len()
    }

    /// The index of the node whose store owns every label in `labels`, or
    /// an error if the labels span nodes (a derived value cannot be split
    /// across trust domains).
    fn route_labels(&self, labels: tinman_taint::TaintSet) -> Result<usize, RuntimeError> {
        let mut chosen: Option<usize> = None;
        for l in labels.iter() {
            let id = tinman_cor::CorId::from_label(l);
            let idx = if self.node.store.owns_label(id) {
                0
            } else if let Some(i) = self.extra_nodes.iter().position(|n| n.store.owns_label(id)) {
                i + 1
            } else {
                0 // unknown labels default to the primary node
            };
            match chosen {
                None => chosen = Some(idx),
                Some(c) if c == idx => {}
                Some(c) => {
                    return Err(RuntimeError::CrossNodeCor { node_a: c, node_b: idx });
                }
            }
        }
        Ok(chosen.unwrap_or(0))
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The phone's host id.
    pub fn phone_host(&self) -> HostId {
        self.client.host
    }

    /// The trusted node's host id.
    pub fn node_host(&self) -> HostId {
        self.node.host
    }

    /// The server-side TLS config matching this runtime's PSK.
    pub fn server_tls_config(&self) -> TlsConfig {
        TlsConfig::permissive(self.config.psk)
    }

    /// Scans the device for plaintext residue (§5.1's attacker).
    pub fn scan_residue(&self, needle: &str) -> ResidueReport {
        scan_device(&self.client, &self.world, needle)
    }

    /// Scans every trusted node's heap for plaintext residue — the §5.1
    /// memory-dump attacker pointed at the node, used to verify the
    /// guard's scrub-on-kill teardown left nothing behind.
    pub fn scan_node_residue(&self, needle: &str) -> Vec<tinman_vm::ObjId> {
        let mut hits = self.node.machine.scan_residue(needle);
        for n in &self.extra_nodes {
            hits.extend(n.machine.scan_residue(needle));
        }
        hits
    }

    /// Kills the guest on node `active`: scrubs the node heap (no cor
    /// byte survives for a §5.1 dump to find), tears down its stack,
    /// marks the machine faulted, bumps the `guard.*` counters, emits a
    /// `guest_killed` event, and returns the fail-closed error the run
    /// surfaces. A kill is terminal for the session — after exhaustion
    /// nothing on the node can be trusted enough to migrate back.
    fn kill_guest(&mut self, active: usize, reason: KillReason) -> RuntimeError {
        let node = if active == 0 { &mut self.node } else { &mut self.extra_nodes[active - 1] };
        node.machine.heap.scrub();
        node.machine.frames.clear();
        node.machine.status = tinman_vm::MachineStatus::Faulted;
        self.metrics.incr("guard.kills");
        self.metrics.incr(reason.budget().1);
        if self.trace.is_enabled() {
            self.trace.emit_on(
                self.trace_track,
                self.clock.now(),
                TraceEvent::GuestKilled {
                    session: self.trace_track,
                    node: active as u64,
                    reason: reason.as_str(),
                },
            );
        }
        RuntimeError::GuestKilled { reason }
    }

    /// Maps a DSM result through the guard: budget exhaustion becomes a
    /// kill of the active node's guest, everything else passes through.
    fn guard_dsm<T>(&mut self, active: usize, r: Result<T, DsmError>) -> Result<T, RuntimeError> {
        match r {
            Ok(v) => Ok(v),
            Err(DsmError::SyncBudgetExhausted { .. }) => {
                Err(self.kill_guest(active, KillReason::DsmSyncs))
            }
            Err(DsmError::SyncBytesExhausted { .. }) => {
                Err(self.kill_guest(active, KillReason::DsmBytes))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Performs one DSM wire exchange between the client and the active
    /// node. Expressed as data (see [`DsmOp`]) so [`Self::dsm_exchange`]
    /// can replay the identical exchange during bounded re-sync retries.
    fn run_dsm_op(&mut self, active: usize, op: &DsmOp) -> Result<u64, DsmError> {
        let node = if active == 0 { &mut self.node } else { &mut self.extra_nodes[active - 1] };
        let dsm = if active == 0 { &mut self.dsm } else { &mut self.extra_dsms[active - 1] };
        match op {
            DsmOp::MigrateToNode => dsm.migrate(
                &mut self.client.machine,
                &mut node.machine,
                LockSite::Client,
                SyncCause::OffloadTrigger,
                &mut ClientMaterializer { directory: &mut self.client.directory },
                &mut NodeMaterializer { store: &mut node.store },
            ),
            DsmOp::MigrateToClient(cause) => dsm.migrate(
                &mut node.machine,
                &mut self.client.machine,
                LockSite::TrustedNode,
                *cause,
                &mut NodeMaterializer { store: &mut node.store },
                &mut ClientMaterializer { directory: &mut self.client.directory },
            ),
            DsmOp::LockFromNode => dsm.lock_transfer(
                &mut self.client.machine,
                &mut node.machine,
                LockSite::TrustedNode,
                &mut ClientMaterializer { directory: &mut self.client.directory },
                &mut NodeMaterializer { store: &mut node.store },
            ),
            DsmOp::LockFromClient => dsm.lock_transfer(
                &mut node.machine,
                &mut self.client.machine,
                LockSite::Client,
                &mut NodeMaterializer { store: &mut node.store },
                &mut ClientMaterializer { directory: &mut self.client.directory },
            ),
        }
    }

    /// A DSM exchange with bounded re-sync. A `SyncTimeout` — the node
    /// unreachable mid-session because of a mobility handoff blackout or
    /// a chaos outage — is retried up to `resync_retries` times with
    /// doubling backoff (the shared [`RetryPolicy`] exponential curve,
    /// unjittered — byte-identical to the hand-rolled doubling loop this
    /// replaced). Each wait lets due network events (handoffs, NAT
    /// flushes) apply and refreshes the client radio, so the retry
    /// rides whatever link the phone holds afterwards; when the wired
    /// fault window is known to lift later than the backoff, the wait
    /// jumps to the lift instead of burning attempts inside the window.
    /// Exhaustion fails closed: the guest is killed and the node heap
    /// scrubbed ([`KillReason::Resync`]). With `resync_retries == 0`
    /// (the default) this is byte-identical to the unretried exchange.
    fn dsm_exchange(
        &mut self,
        active: usize,
        op: DsmOp,
        breakdown: &mut Breakdown,
    ) -> Result<u64, RuntimeError> {
        let mut r = self.run_dsm_op(active, &op);
        if matches!(r, Err(DsmError::SyncTimeout { .. })) && self.config.resync_retries > 0 {
            let policy = RetryPolicy::exponential(self.config.resync_backoff, 63, None);
            for attempt in 0..self.config.resync_retries {
                let t_wait = self.clock.now();
                let mut until = t_wait + policy.delay(attempt as u64);
                let dsm = if active == 0 { &self.dsm } else { &self.extra_dsms[active - 1] };
                if let Some(clear) = dsm.fault_clears_at() {
                    // An open-ended crash never clears; keep the plain
                    // backoff and let exhaustion fail the session closed.
                    if clear > until && clear < tinman_sim::SimTime::MAX {
                        until = clear;
                    }
                }
                self.clock.advance_to(until);
                breakdown.charge("dsm", self.clock.now().since(t_wait));
                self.world.poll_network();
                if let Ok(link) = self.world.host_link(self.client.host) {
                    self.client.link = link;
                }
                self.metrics.incr("net.handoff.resync_retries");
                r = self.run_dsm_op(active, &op);
                if !matches!(r, Err(DsmError::SyncTimeout { .. })) {
                    break;
                }
            }
            if matches!(r, Err(DsmError::SyncTimeout { .. })) {
                return Err(self.kill_guest(active, KillReason::Resync));
            }
        }
        self.guard_dsm(active, r)
    }

    /// Charges ambient power (display + idle + radio-active) for a period —
    /// used by the battery benchmarks between and during workloads.
    pub fn charge_ambient(&mut self, d: SimDuration, display_on: bool) {
        let idle = MicroJoules::from_power(self.client.profile.idle_power_mw, d);
        self.client.energy.idle += idle;
        self.client.battery.drain(idle);
        if display_on {
            let disp = MicroJoules::from_power(self.client.profile.display_power_mw, d);
            self.client.energy.display += disp;
            self.client.battery.drain(disp);
        }
    }

    fn charge_radio(&mut self, before: Traffic) -> Result<(), RuntimeError> {
        let after = self.world.traffic(self.client.host)?;
        let tx = self.client.link.tx_energy(after.tx_bytes - before.tx_bytes);
        let rx = self.client.link.rx_energy(after.rx_bytes - before.rx_bytes);
        self.client.energy.radio_tx += tx;
        self.client.energy.radio_rx += rx;
        self.client.battery.drain(tx);
        self.client.battery.drain(rx);
        Ok(())
    }

    fn charge_client_cpu(&mut self, cycles: u64, breakdown: &mut Breakdown) {
        let dt = self.client.profile.exec_time(cycles);
        self.clock.advance(dt);
        breakdown.charge("exec.client", dt);
        let e = self.client.profile.exec_energy(cycles);
        self.client.energy.cpu += e;
        self.client.battery.drain(e);
    }

    fn charge_node_cpu(&mut self, cycles: u64, breakdown: &mut Breakdown) {
        let dt = self.node.profile.exec_time(cycles);
        self.clock.advance(dt);
        breakdown.charge("exec.node", dt);
    }

    /// Ships a migration packet over the client's radio and charges the
    /// clock/breakdown/battery accordingly.
    fn charge_migration(&mut self, bytes: u64, breakdown: &mut Breakdown) {
        let dt = self.client.link.transfer_time(bytes);
        self.clock.advance(dt);
        breakdown.charge("dsm", dt);
    }

    /// Runs `image` to completion under `mode` with the given scripted
    /// inputs. Returns the run report; state relevant to later runs (warm
    /// caches, battery, audit log) persists on the runtime.
    pub fn run_app(
        &mut self,
        image: &AppImage,
        mode: Mode,
        inputs: &HashMap<String, String>,
    ) -> Result<RunReport, RuntimeError> {
        let app_hash = image.hash();
        let t_run_start = self.clock.now();
        let traffic_start = self.world.traffic(self.client.host)?;
        let topo_start = self.world.topology_stats();
        let mut breakdown = Breakdown::new();

        // Fresh machines; the client engine depends on the mode (and on
        // the selective-tainting list, §3.5).
        let selective_off =
            self.config.critical_apps.as_ref().is_some_and(|list| !list.contains(&app_hash));
        let (client_engine, client_mode, tls_config) = match &mode {
            Mode::TinMan => (
                if selective_off { TaintEngine::none() } else { TaintEngine::asymmetric() },
                ClientMode::TinMan,
                TlsConfig::tinman_client(self.config.psk),
            ),
            Mode::Stock(secrets) => (
                TaintEngine::none(),
                ClientMode::Stock(secrets.clone()),
                TlsConfig::permissive(self.config.psk),
            ),
            Mode::FullTaint => {
                (TaintEngine::full(), ClientMode::TinMan, TlsConfig::tinman_client(self.config.psk))
            }
        };
        self.client.reset_for_run(client_engine);
        self.client.tls_config = tls_config;
        self.node.reset_for_run();
        self.dsm = DsmEngine::new();
        for n in &mut self.extra_nodes {
            n.reset_for_run();
        }
        for d in &mut self.extra_dsms {
            *d = DsmEngine::new();
        }
        // Engines are rebuilt per run, so re-wire them to the trace sink.
        if self.trace.is_enabled() {
            self.dsm.set_trace(self.trace.clone(), self.clock.clone(), self.trace_track);
            for d in &mut self.extra_dsms {
                d.set_trace(self.trace.clone(), self.clock.clone(), self.trace_track);
            }
        }
        // ... and to the chaos fault window, which also enables
        // checkpoint recording.
        if let Some(fault) = &self.dsm_fault {
            self.dsm.set_fault(fault.clone(), self.clock.clone());
            for d in &mut self.extra_dsms {
                d.set_fault(fault.clone(), self.clock.clone());
            }
        }
        // ... and to the guard's sync budget, so a SyncFlood guest is
        // refused by the engine itself before the flood ships bytes.
        if let Some(g) = &self.config.guard {
            let budget = SyncBudget { max_syncs: g.max_dsm_syncs, max_bytes: g.max_dsm_bytes };
            self.dsm.set_budget(budget);
            for d in &mut self.extra_dsms {
                d.set_budget(budget);
            }
        }
        let _run_span = self.trace.span_guard(self.trace_track, &self.clock, "run_app");
        // Which trusted node the current offload episode targets.
        let mut active: usize = 0;

        let mut last_tls_error: Option<tinman_tls::TlsError> = None;
        let mut last_denial: Option<PolicyDecision> = None;
        // Offloads are counted in the metrics registry; the report reads
        // the delta back at the end of the run.
        let offloads_start = self.metrics.get("runtime.offloads");
        // Whether an "offload" span is currently open on our track.
        let mut offload_span_open = false;
        // Ping-pong detector: (func name, pc, client instrs at trigger,
        // consecutive no-progress count). A loop may legitimately trigger
        // at the same pc many times; the pathological case is re-triggering
        // with (almost) no instructions retired in between — tainted data
        // handed to a native neither endpoint can run.
        let mut last_trigger: Option<(String, usize, u64, u32)> = None;

        // Baseline cycle counters for attribution.
        let mut client_cycles_seen = 0u64;
        let mut node_cycles_seen = 0u64;

        let result = 'outer: loop {
            // ---- client segment ----
            // Apply any due network events first (mobility handoffs, NAT
            // flushes): the radio the guest runs on is the post-event one.
            // A no-op in worlds with nothing scheduled.
            self.world.poll_network();
            if let Ok(link) = self.world.host_link(self.client.host) {
                self.client.link = link;
            }
            let t0 = self.clock.now();
            let event = {
                let phone_host = self.client.host;
                let ClientDevice {
                    machine,
                    engine,
                    conns,
                    directory,
                    tls_config,
                    disk,
                    device_log,
                    ..
                } = &mut self.client;
                let mut next_handle: i64 = conns.keys().max().copied().unwrap_or(0) + 1;
                let mut host = ClientHost {
                    world: &mut self.world,
                    host: phone_host,
                    conns,
                    next_handle: &mut next_handle,
                    directory,
                    mode: match &client_mode {
                        ClientMode::TinMan => ClientMode::TinMan,
                        ClientMode::Stock(s) => ClientMode::Stock(s.clone()),
                    },
                    tls_config,
                    inputs,
                    device_log,
                    disk,
                    rng: &mut self.rng,
                    last_tls_error: &mut last_tls_error,
                };
                self.tier.run_segment(
                    &self.metrics,
                    image,
                    app_hash,
                    machine,
                    &mut host,
                    engine,
                    ExecConfig::client().with_fuel(self.config.fuel),
                )?
            };
            // Attribute the segment: the world advanced the clock for
            // network/server time; CPU time is charged from cycles.
            let net_dt = self.clock.now().since(t0);
            breakdown.charge("net.server", net_dt);
            let cycles = self.client.machine.stats.cycles - client_cycles_seen;
            self.charge_client_cpu(cycles, &mut breakdown);
            client_cycles_seen = self.client.machine.stats.cycles;

            match event {
                ExecEvent::Halted(v) => break 'outer v,
                ExecEvent::OutOfFuel => return Err(RuntimeError::FuelExhausted),
                ExecEvent::LockRemote(_) => {
                    // The node endpoint holds the monitor: exchange state
                    // and transfer ownership to the client.
                    let bytes = self.dsm_exchange(active, DsmOp::LockFromNode, &mut breakdown)?;
                    self.charge_migration(bytes, &mut breakdown);
                    continue;
                }
                ExecEvent::MigrateBack { .. } | ExecEvent::TaintIdle => {
                    // The client has no idle limit and its host never
                    // returns MigrateBack; fail closed if it ever does.
                    return Err(RuntimeError::UnexpectedEvent {
                        site: LockSite::Client,
                        event: "node-side migrate-back",
                    });
                }
                ExecEvent::OffloadTrigger { labels, .. } => {
                    if !self.config.online {
                        return Err(RuntimeError::Offline);
                    }
                    // Route the episode to the node owning the touched cor
                    // and point the packet filter at it (the client knows
                    // which trusted node it is talking to).
                    active = self.route_labels(labels)?;
                    let active_host = if active == 0 {
                        self.node.host
                    } else {
                        self.extra_nodes[active - 1].host
                    };
                    if active_host != self.filter_target {
                        self.world.set_egress_filter(
                            self.client.host,
                            Box::new(MarkFilter { mark: TINMAN_MARK, to: active_host }),
                        );
                        self.filter_target = active_host;
                    }
                    // Ping-pong detection (same pc, no progress).
                    let frame =
                        self.client.machine.top_frame().ok_or(RuntimeError::UnexpectedEvent {
                            site: LockSite::Client,
                            event: "offload trigger with no suspended frame",
                        })?;
                    let key = (frame.func_name.clone(), frame.pc);
                    let instrs_now = self.client.machine.stats.instrs;
                    if self.trace.is_enabled() {
                        self.trace.emit_on(
                            self.trace_track,
                            self.clock.now(),
                            TraceEvent::OffloadTrigger {
                                labels: labels.iter().map(|l| l.id()).collect(),
                                func: key.0.clone(),
                                pc: key.1 as u64,
                            },
                        );
                        self.trace.span_start(self.trace_track, self.clock.now(), "offload");
                        offload_span_open = true;
                    }
                    match &mut last_trigger {
                        Some((f, pc, instrs, n))
                            if *f == key.0
                                && *pc == key.1
                                && instrs_now.saturating_sub(*instrs) <= 2 =>
                        {
                            *n += 1;
                            *instrs = instrs_now;
                            if *n >= 3 {
                                return Err(RuntimeError::OffloadPingPong {
                                    func: key.0,
                                    pc: key.1,
                                });
                            }
                        }
                        _ => last_trigger = Some((key.0, key.1, instrs_now, 1)),
                    }

                    // §3.4: the node refuses known malware outright.
                    let node = if active == 0 {
                        &mut self.node
                    } else {
                        &mut self.extra_nodes[active - 1]
                    };
                    if node.policy.malware_db().contains(&app_hash) {
                        return Err(RuntimeError::MalwareRejected {
                            app_hash_hex: image.hash_hex(),
                        });
                    }
                    // One-time dex upload for cold apps.
                    if !node.is_warm(&app_hash) {
                        let bytes = image.image_bytes();
                        let dt = self.client.link.transfer_time(bytes);
                        self.clock.advance(dt);
                        breakdown.charge("warmup", dt);
                        node.mark_warm(app_hash);
                    }
                    // Migrate client -> the active node.
                    let bytes = self.dsm_exchange(active, DsmOp::MigrateToNode, &mut breakdown)?;
                    self.metrics.incr("runtime.offloads");
                    // Carry execution counters over so stats stay cumulative
                    // per machine (each machine counts its own retire).
                    let node = if active == 0 {
                        &mut self.node
                    } else {
                        &mut self.extra_nodes[active - 1]
                    };
                    node.machine.status = tinman_vm::MachineStatus::Runnable;
                    self.charge_migration(bytes, &mut breakdown);
                }
            }

            // ---- node segments (run until execution returns to client) ----
            loop {
                // Mobility events due before the segment apply now, so the
                // migrate-back (if any) is charged on the current radio.
                self.world.poll_network();
                if let Ok(link) = self.world.host_link(self.client.host) {
                    self.client.link = link;
                }
                // Membership drain: a segment boundary is a DSM sync
                // point — the only place the guest can be serialized with
                // nothing in flight. A due drain checkpoints and leaves
                // instead of running the segment on a node that is going
                // away. Checked before the guard watchdog: a draining
                // node hands its guest off rather than killing it.
                if let Some(at) = self.drain_at {
                    if self.clock.now() >= at {
                        return Err(self.checkpoint_and_drain(active));
                    }
                }
                // Watchdog: the guard charges everything a guest retires on
                // trusted hardware against one session-wide budget. Fuel is
                // what remains of the policy's allowance after every node
                // segment so far this run (node machines are fresh per run,
                // so their cumulative instruction counters are exactly the
                // per-run spend); the wall deadline is checked against the
                // simulated clock before each segment.
                let guard_cfg = self.config.guard.map(|g| {
                    let used: u64 = self.node.machine.stats.instrs
                        + self.extra_nodes.iter().map(|n| n.machine.stats.instrs).sum::<u64>();
                    (g, g.fuel.saturating_sub(used))
                });
                if let Some((g, _)) = &guard_cfg {
                    if let Some(deadline) = g.deadline {
                        if self.clock.now().since(t_run_start) > deadline {
                            return Err(self.kill_guest(active, KillReason::Deadline));
                        }
                    }
                }
                let t0 = self.clock.now();
                let event = {
                    let active_node = if active == 0 {
                        &mut self.node
                    } else {
                        &mut self.extra_nodes[active - 1]
                    };
                    let node_host_id = active_node.host;
                    let client_host_id = self.client.host;
                    let client_link = self.client.link.clone();
                    let device_name = self.client.name.clone();
                    let TrustedNode { machine, engine, store, policy, audit, .. } = active_node;
                    let mut host = NodeHost {
                        world: &mut self.world,
                        node_host: node_host_id,
                        client_host: client_host_id,
                        conns: &mut self.client.conns,
                        store,
                        policy,
                        audit,
                        app_hash,
                        device_name,
                        clock: self.clock.clone(),
                        breakdown: &mut breakdown,
                        rng: &mut self.rng,
                        last_denial: &mut last_denial,
                        client_link,
                        ssl_coordination_fixed: self.config.ssl_coordination_fixed,
                        ssl_coordination_rtts: self.config.ssl_coordination_rtts,
                        trace: self.trace.clone(),
                        trace_track: self.trace_track,
                    };
                    let exec = match &guard_cfg {
                        Some((g, remaining)) => {
                            ExecConfig::trusted_node(self.config.taint_idle_limit, *remaining)
                                .with_heap_quota(g.max_heap_objects, g.max_heap_bytes)
                                .with_depth_limit(g.max_call_depth)
                        }
                        None => {
                            ExecConfig::trusted_node(self.config.taint_idle_limit, self.config.fuel)
                        }
                    };
                    self.tier.run_segment(
                        &self.metrics,
                        image,
                        app_hash,
                        machine,
                        &mut host,
                        engine,
                        exec,
                    )
                };
                let event = match event {
                    Ok(ev) => ev,
                    // Quota faults raised inside the VM are guard kills:
                    // scrub, tear down, fail closed.
                    Err(VmError::HeapQuotaExceeded { .. }) if guard_cfg.is_some() => {
                        return Err(self.kill_guest(active, KillReason::Heap));
                    }
                    Err(VmError::CallDepthExceeded { .. }) if guard_cfg.is_some() => {
                        return Err(self.kill_guest(active, KillReason::Depth));
                    }
                    Err(e) => return Err(e.into()),
                };
                // Node CPU time from cycles; the wall time the segment's
                // natives spent (SSL/TCP path, server think) was already
                // attributed by the host.
                let _ = t0;
                let active_cycles = if active == 0 {
                    self.node.machine.stats.cycles
                } else {
                    self.extra_nodes[active - 1].machine.stats.cycles
                };
                let cycles = active_cycles - node_cycles_seen;
                self.charge_node_cpu(cycles, &mut breakdown);
                node_cycles_seen = active_cycles;

                match event {
                    ExecEvent::Halted(v) => {
                        // Final migrate-back so the client sees the end
                        // state (tokenized).
                        let bytes = self.dsm_exchange(
                            active,
                            DsmOp::MigrateToClient(SyncCause::TaintIdle),
                            &mut breakdown,
                        )?;
                        self.charge_migration(bytes, &mut breakdown);
                        if self.trace.is_enabled() {
                            self.trace.emit_on(
                                self.trace_track,
                                self.clock.now(),
                                TraceEvent::MigrateBack { cause: "run_complete" },
                            );
                            if offload_span_open {
                                // The run ends here; no need to clear the flag.
                                self.trace.span_end(self.trace_track, self.clock.now(), "offload");
                            }
                        }
                        break 'outer v;
                    }
                    ExecEvent::OutOfFuel => {
                        // Under the guard, running the node dry is a hostile
                        // act (Spin), not a tuning problem.
                        return Err(if guard_cfg.is_some() {
                            self.kill_guest(active, KillReason::Fuel)
                        } else {
                            RuntimeError::FuelExhausted
                        });
                    }
                    ExecEvent::OffloadTrigger { .. } => {
                        // The node's full engine never triggers offload;
                        // fail closed if it ever does.
                        return Err(RuntimeError::UnexpectedEvent {
                            site: LockSite::TrustedNode,
                            event: "offload trigger",
                        });
                    }
                    ExecEvent::LockRemote(_) => {
                        // A client-side (background-thread) monitor blocks
                        // the offloaded code — the github case.
                        let bytes =
                            self.dsm_exchange(active, DsmOp::LockFromClient, &mut breakdown)?;
                        self.charge_migration(bytes, &mut breakdown);
                        continue;
                    }
                    ExecEvent::MigrateBack { .. } | ExecEvent::TaintIdle => {
                        let cause = match event {
                            ExecEvent::TaintIdle => SyncCause::TaintIdle,
                            _ => SyncCause::NonOffloadableNative,
                        };
                        let bytes = self.dsm_exchange(
                            active,
                            DsmOp::MigrateToClient(cause),
                            &mut breakdown,
                        )?;
                        self.charge_migration(bytes, &mut breakdown);
                        if self.trace.is_enabled() {
                            self.trace.emit_on(
                                self.trace_track,
                                self.clock.now(),
                                TraceEvent::MigrateBack { cause: cause.as_str() },
                            );
                            if offload_span_open {
                                self.trace.span_end(self.trace_track, self.clock.now(), "offload");
                                offload_span_open = false;
                            }
                        }
                        self.client.machine.status = tinman_vm::MachineStatus::Runnable;
                        break; // back to the client loop
                    }
                }
            }
        };

        // A policy denial mid-run is surfaced as the run's error even if
        // the app soldiered on with a failure code.
        if let Some(denial) = last_denial {
            return Err(RuntimeError::PolicyDenied(denial));
        }

        // Ambient power for the whole interaction (screen on).
        let latency = self.clock.now().since(t_run_start);
        self.charge_ambient(latency, true);
        self.charge_radio(traffic_start)?;
        // Radio burst tails: every network activation holds the radio in
        // its high-power state for a tail period after the traffic ends
        // (the dominant hidden cost of chatty protocols on phones).
        // A stock login has ~2 bursts (request, response); TinMan adds one
        // per DSM sync and two per offload round (state export + the
        // redirect/inject exchange).
        let mut dsm_stats = self.dsm.stats().clone();
        for d in &self.extra_dsms {
            dsm_stats.absorb(d.stats());
        }
        let node_methods: u64 = self.node.machine.stats.method_invocations
            + self.extra_nodes.iter().map(|n| n.machine.stats.method_invocations).sum::<u64>();
        // The report reads the run's offload count back from the registry
        // (this runtime is single-threaded, so the delta is exact).
        let offloads = self.metrics.get("runtime.offloads") - offloads_start;
        self.metrics.observe("runtime.latency_ns", latency.as_nanos());
        self.metrics.add("runtime.dsm_syncs", dsm_stats.sync_count);
        let bursts = 2 + dsm_stats.sync_count + 2 * offloads;
        let tail = MicroJoules::from_power(
            self.client.link.active_radio_mw,
            SimDuration::from_millis(800) * bursts,
        );
        self.client.energy.radio_active += tail;
        self.client.battery.drain(tail);

        // Topology-layer observability: only emitted once a routed world
        // exists, so flat runs keep a byte-identical metrics registry.
        let topo_end = self.world.topology_stats();
        if self.world.topology_enabled() || topo_end != topo_start {
            self.metrics
                .add("net.topology.router_hops", topo_end.router_hops - topo_start.router_hops);
            self.metrics
                .add("net.topology.route_drops", topo_end.route_drops - topo_start.route_drops);
            self.metrics.add(
                "net.topology.firewall_drops",
                topo_end.firewall_drops - topo_start.firewall_drops,
            );
            self.metrics
                .add("net.topology.nat_rewrites", topo_end.nat_rewrites - topo_start.nat_rewrites);
            self.metrics.add("net.topology.nat_drops", topo_end.nat_drops - topo_start.nat_drops);
            self.metrics
                .add("net.topology.dns_lookups", topo_end.dns_lookups - topo_start.dns_lookups);
            self.metrics
                .add("net.topology.dns_failures", topo_end.dns_failures - topo_start.dns_failures);
            self.metrics.add("net.handoff.count", topo_end.handoffs - topo_start.handoffs);
            self.metrics
                .add("net.handoff.nat_rebinds", topo_end.nat_rebinds - topo_start.nat_rebinds);
        }

        let traffic_end = self.world.traffic(self.client.host)?;
        Ok(RunReport {
            result,
            latency,
            breakdown,
            dsm: dsm_stats,
            client_methods: self.client.machine.stats.method_invocations,
            node_methods,
            offloads,
            energy: self.client.energy.total(),
            traffic: Traffic {
                tx_bytes: traffic_end.tx_bytes - traffic_start.tx_bytes,
                rx_bytes: traffic_end.rx_bytes - traffic_start.rx_bytes,
            },
        })
    }
}
