//! Chaos plans: validated, seeded fault schedules.
//!
//! A plan speaks two time axes. *Within-session* offsets ([`SimDuration`])
//! are interpreted on each session's own hermetic clock (every session sim
//! starts at `SimTime::ZERO`): a crash "at 600 ms" hits every affected
//! session 600 ms into its run. The *fleet* axis is the session-id order
//! (`from_session`/`until_session`): a crash "from session 3" means
//! sessions 0–2 saw a healthy node and later ones hit the outage — this is
//! what drives the circuit breaker's deterministic history.

use std::fmt;

use tinman_sim::{SimDuration, SplitMix64};

/// Which durability fault a [`ChaosEvent::VaultCrash`] injects into the
/// node's cor vault. All three leave artifacts recovery must handle:
/// uncommitted work lost, a torn final write, or a half-finished
/// snapshot publish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VaultCrashKind {
    /// Power cut between `append` and the commit barrier: the staged
    /// frame is lost and the previous frame lands duplicated (the retry
    /// path re-sent it), exercising the idempotent LSN apply.
    MidCommit,
    /// Power cut mid-append: the final WAL write lands as a prefix and
    /// recovery must truncate it away.
    TornTail,
    /// Power cut inside snapshot+truncate compaction, at a seeded point
    /// in the publish protocol.
    Compaction,
}

impl VaultCrashKind {
    /// Stable lowercase name (obs labels, report rows).
    pub fn as_str(self) -> &'static str {
        match self {
            VaultCrashKind::MidCommit => "mid_commit",
            VaultCrashKind::TornTail => "torn_tail",
            VaultCrashKind::Compaction => "compaction",
        }
    }
}

/// Which resource-exhaustion attack a hostile guest mounts against the
/// trusted node that agreed to run it. Each kind is engineered to exhaust
/// exactly one [budget] axis, so a kill's reported reason is a meaningful
/// assertion target rather than "whichever limit tripped first".
///
/// [budget]: https://en.wikipedia.org/wiki/Resource_exhaustion_attack
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostileGuestKind {
    /// A post-offload busy loop that keeps touching tainted data so
    /// taint-idle migrate-back never fires: burns node fuel forever.
    Spin,
    /// Repeated doubling of a tainted string: exhausts the heap byte
    /// quota long before fuel runs low.
    HeapBomb,
    /// Unbounded recursion with a tainted argument pinning every frame
    /// to the node: trips the call-depth limit.
    DeepRecursion,
    /// A loop engineered to bounce state between client and node on
    /// every iteration: floods the DSM sync budget.
    SyncFlood,
}

impl HostileGuestKind {
    /// Stable lowercase name (obs labels, report rows).
    pub fn as_str(self) -> &'static str {
        match self {
            HostileGuestKind::Spin => "spin",
            HostileGuestKind::HeapBomb => "heap_bomb",
            HostileGuestKind::DeepRecursion => "deep_recursion",
            HostileGuestKind::SyncFlood => "sync_flood",
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Node `node` stops answering DSM syncs `at` into each affected
    /// session, for every session id ≥ `from_session` (until a matching
    /// [`ChaosEvent::NodeRecover`]).
    NodeCrash {
        /// Pool index of the crashed node.
        node: usize,
        /// Within-session offset at which syncs start timing out.
        at: SimDuration,
        /// First session id that observes the crash.
        from_session: u64,
    },
    /// Node `node` answers again for session ids ≥ `from_session`.
    NodeRecover {
        /// Pool index of the recovering node.
        node: usize,
        /// First session id that observes the recovery.
        from_session: u64,
    },
    /// Radio outage window `[from, until)` on every session's timeline:
    /// transfers that start inside it stall until it closes.
    LinkFlap {
        /// Window start (within-session offset).
        from: SimDuration,
        /// Window end (within-session offset).
        until: SimDuration,
    },
    /// Percent (0–100) of data segments lost and retransmitted.
    PacketLoss {
        /// Loss probability in percent.
        pct: u8,
    },
    /// Percent (0–100) of data segments corrupted and retransmitted.
    PacketCorrupt {
        /// Corruption probability in percent.
        pct: u8,
    },
    /// Extra one-way delay on every data segment.
    PacketDelay {
        /// The added delay.
        delay: SimDuration,
    },
    /// Node `node` is unreachable from the phone for session ids in
    /// `[from_session, until_session)`. Marked segments diverted toward it
    /// die on the wire (fail-closed by construction).
    Partition {
        /// Pool index of the unreachable node.
        node: usize,
        /// First session id that observes the partition.
        from_session: u64,
        /// First session id that no longer observes it.
        until_session: u64,
    },
    /// DSM syncs against `node` time out inside `[from, until)` on every
    /// affected session's timeline (transient stall rather than a crash).
    SyncTimeout {
        /// Pool index of the stalling node.
        node: usize,
        /// Window start (within-session offset).
        from: SimDuration,
        /// Window end (within-session offset).
        until: SimDuration,
    },
    /// Node `node`'s cor vault crashes (power-cut model) after the
    /// session's cor writes, for session ids in
    /// `[from_session, until_session)`. The session's durability audit
    /// injects the crash, recovers, and must reproduce the committed
    /// store exactly — any divergence is a lost-cor incident.
    VaultCrash {
        /// Pool index of the node whose vault crashes.
        node: usize,
        /// Which crash artifact to leave behind.
        kind: VaultCrashKind,
        /// First session id that observes the crash.
        from_session: u64,
        /// First session id that no longer observes it.
        until_session: u64,
    },
    /// Replication to node `node`'s failover replica lags by `lsns`
    /// records for session ids in `[from_session, until_session)`.
    /// Cor-aware failover must anti-entropy the replica up (charged
    /// against the session's penalty deadline) or fail the session
    /// closed — never serve from the stale store.
    ReplicaLag {
        /// Pool index of the node whose replica lags.
        node: usize,
        /// How many LSNs the replica's watermark trails the primary.
        lsns: u64,
        /// First session id that observes the lag.
        from_session: u64,
        /// First session id that no longer observes it.
        until_session: u64,
    },
    /// Sessions in `[from_session, until_session)` run a hostile app
    /// instead of their scripted one. Unlike node faults, the attack
    /// travels with the *session* — whichever node admits it gets
    /// attacked — so there is no node index. When several windows cover
    /// the same session, the matching kinds alternate by session id, so
    /// four full-width events exercise every kind over any session count.
    HostileGuest {
        /// Which exhaustion attack the guest mounts.
        kind: HostileGuestKind,
        /// First hostile session id.
        from_session: u64,
        /// First session id that runs its scripted app again.
        until_session: u64,
    },
    /// Tenant `tenant`'s key hierarchy rotates to the next epoch inside
    /// the window. Like [`ChaosEvent::HostileGuest`], the fault travels
    /// with the *session* (a tenant's keys rotate fleet-wide, not on one
    /// node), so there is no node index. The rotation fires at the
    /// tenant's first session id ≥ `from_session`; that session pays the
    /// re-encryption cost or fails closed, and every later session of
    /// the tenant seals under the new epoch — the old epoch is revoked.
    TenantKeyRotation {
        /// Raw tenant number whose keys rotate.
        tenant: u64,
        /// First session id at which the rotation may fire.
        from_session: u64,
        /// First session id past the rotation window.
        until_session: u64,
    },
    /// Every router in each affected session's routed topology is down
    /// inside `[from, until)` on the session's own timeline: cross-subnet
    /// traffic (phone → server, phone → node control plane) fails closed
    /// with `NoRoute` until the window lifts. A no-op for flat worlds.
    RouterCrash {
        /// Window start (within-session offset).
        from: SimDuration,
        /// Window end (within-session offset).
        until: SimDuration,
    },
    /// The NAT gateway's connection-tracking table is flushed `at` into
    /// each affected session: every established flow's binding vanishes,
    /// and the next segment on an old flow fails closed (`NatExpired`)
    /// until the session reconnects. A no-op for worlds without NAT.
    NatTableFlush {
        /// Within-session offset of the flush.
        at: SimDuration,
    },
    /// The DNS resolver is dark inside `[from, until)` on each affected
    /// session's timeline: cold names fail closed, cached records keep
    /// serving until their TTL expires. A no-op for flat worlds (flat
    /// lookup is a host-directory read, not a resolver query).
    DnsOutage {
        /// Window start (within-session offset).
        from: SimDuration,
        /// Window end (within-session offset).
        until: SimDuration,
        /// Session-axis slice `[from_session, until_session)` the outage
        /// applies to (like `Partition`): sessions outside it resolve
        /// normally, sessions inside meet the dead resolver and must
        /// fail closed if the window covers their lookup.
        from_session: u64,
        /// End of the session-axis slice (exclusive).
        until_session: u64,
    },
    /// Mid-session mobility: the phone hands off between Wi-Fi and 3G
    /// `count` times, every `every`, each with a radio blackout of
    /// `blackout` and a NAT rebind. Handoff `i` (1-based) lands at
    /// `every * i`; odd handoffs move to 3G, even ones back to Wi-Fi.
    HandoffStorm {
        /// How many handoffs the storm schedules.
        count: u32,
        /// Spacing between consecutive handoffs.
        every: SimDuration,
        /// Radio blackout charged at each handoff.
        blackout: SimDuration,
    },
    /// Like [`ChaosEvent::TenantKeyRotation`], but the rotation is an
    /// emergency response to a suspected key compromise: if the rotating
    /// session cannot afford the re-encryption inside its deadline it
    /// must fail closed (reason `revoked_key`) — serving under the
    /// suspect epoch is never an option.
    TenantKeyCompromise {
        /// Raw tenant number whose keys are suspect.
        tenant: u64,
        /// First session id at which the forced rotation may fire.
        from_session: u64,
        /// First session id past the rotation window.
        until_session: u64,
    },
    /// Node `node` is *Draining* for session ids in
    /// `[from_session, until_session)`: a planned membership change (the
    /// operator is taking the node out for maintenance). Unlike a crash,
    /// a draining node still *admits* sessions — but checkpoints them at
    /// the first DSM sync point and hands the serialized guest to an
    /// attested peer, scrubbing its own heap. After the window the node
    /// is *Evacuated* and admits nothing.
    NodeDrain {
        /// Pool index of the draining node.
        node: usize,
        /// First session id that observes the drain.
        from_session: u64,
        /// First session id that observes the node evacuated.
        until_session: u64,
    },
    /// Every node in region `region` dies for session ids in
    /// `[from_session, until_session)`: sessions in flight on the region
    /// when the window opens are checkpointed and must migrate to an
    /// attested peer *region* (or fail closed, reason `no_region`);
    /// sessions placed inside the window skip the region entirely. After
    /// the window the region's nodes rejoin as *CatchingUp* — they must
    /// reach the acked vault watermark before serving again.
    RegionOutage {
        /// Region index (checked against the fleet's region count at
        /// membership-schedule build, not here — the plan does not know
        /// how many regions the fleet runs).
        region: u32,
        /// First session id that observes the outage.
        from_session: u64,
        /// First session id at which the region begins catching up.
        until_session: u64,
    },
    /// A rolling upgrade: starting at `from_session`, node 0 drains for
    /// `wave_sessions` session ids, then node 1, then node 2, … one node
    /// per wave, so the fleet is never more than one node short. Each
    /// drained node rejoins as *CatchingUp* when its wave ends and is
    /// serving again one wave later.
    RollingUpgrade {
        /// Session ids each node's drain wave lasts.
        wave_sessions: u64,
        /// First session id of node 0's wave.
        from_session: u64,
    },
    /// Node `node` flaps: alternating *Down* and rejoining windows of
    /// `period_sessions` session ids each, inside
    /// `[from_session, until_session)`. The first period is Down; each
    /// rejoin period starts *CatchingUp* — a flapping node that never
    /// catches up before its next outage must never serve, no matter how
    /// often it waves hello.
    RejoinFlap {
        /// Pool index of the flapping node.
        node: usize,
        /// Session ids per half-cycle (down, then catching up/serving).
        period_sessions: u64,
        /// First session id of the first Down period.
        from_session: u64,
        /// First session id at which the node is stably back.
        until_session: u64,
    },
}

/// A plan that failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosPlanError {
    /// An event referenced a node index outside the pool.
    BadNode {
        /// The offending index.
        node: usize,
        /// The pool size it was checked against.
        pool_len: usize,
    },
    /// A percentage was above 100.
    BadPercent {
        /// The offending value.
        pct: u8,
    },
    /// A window's end was not after its start.
    EmptyWindow,
    /// `trip_after` or `probe_every` was zero.
    BadBreakerConfig,
    /// A [`ChaosEvent::ReplicaLag`] with `lsns == 0` — a no-op lag is a
    /// plan bug, not a fault.
    ZeroLag,
    /// A [`ChaosEvent::HandoffStorm`] with `count == 0` or
    /// `every == 0` — a storm that never moves is a plan bug.
    BadHandoffStorm,
    /// A membership event with a degenerate schedule: a
    /// [`ChaosEvent::RollingUpgrade`] wave or [`ChaosEvent::RejoinFlap`]
    /// period of zero sessions.
    BadMembership,
}

impl fmt::Display for ChaosPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosPlanError::BadNode { node, pool_len } => {
                write!(f, "chaos event references node {node}, but the pool has {pool_len} nodes")
            }
            ChaosPlanError::BadPercent { pct } => {
                write!(f, "chaos percentage {pct} is above 100")
            }
            ChaosPlanError::EmptyWindow => write!(f, "chaos window end is not after its start"),
            ChaosPlanError::BadBreakerConfig => {
                write!(f, "breaker trip_after and probe_every must be nonzero")
            }
            ChaosPlanError::ZeroLag => write!(f, "replica lag of zero LSNs is not a fault"),
            ChaosPlanError::BadHandoffStorm => {
                write!(f, "handoff storm count and spacing must be nonzero")
            }
            ChaosPlanError::BadMembership => {
                write!(f, "membership wave and flap period must be nonzero sessions")
            }
        }
    }
}

impl std::error::Error for ChaosPlanError {}

/// A complete fault schedule plus recovery policy for one fleet run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed of every dice stream the plan spawns (packet loss/corruption).
    pub seed: u64,
    /// Per-session budget of *penalty* time (failed attempts + backoff).
    /// A session whose accumulated penalty exceeds this fails closed
    /// instead of retrying further.
    pub deadline: SimDuration,
    /// Consecutive failures before a node's breaker opens.
    pub trip_after: u64,
    /// While Open, every `probe_every`-th placement becomes a HalfOpen
    /// probe instead of a fast skip.
    pub probe_every: u64,
    /// The scheduled faults.
    pub events: Vec<ChaosEvent>,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan {
            seed: 0xc4a0_5bad_c0ff_ee00,
            deadline: SimDuration::from_secs(60),
            trip_after: 3,
            probe_every: 4,
            events: Vec::new(),
        }
    }
}

impl ChaosPlan {
    /// An empty plan (no faults, default recovery policy) — the chaos
    /// executor under an empty plan must reproduce a fault-free run.
    pub fn empty() -> Self {
        ChaosPlan::default()
    }

    /// Checks every event against a pool of `pool_len` nodes. Mirrors the
    /// `FaultPlan` index validation: a plan naming a nonexistent node is a
    /// configuration bug, not something to silently ignore.
    pub fn validate(&self, pool_len: usize) -> Result<(), ChaosPlanError> {
        if self.trip_after == 0 || self.probe_every == 0 {
            return Err(ChaosPlanError::BadBreakerConfig);
        }
        for ev in &self.events {
            let node = match *ev {
                ChaosEvent::NodeCrash { node, .. }
                | ChaosEvent::NodeRecover { node, .. }
                | ChaosEvent::Partition { node, .. }
                | ChaosEvent::SyncTimeout { node, .. }
                | ChaosEvent::VaultCrash { node, .. }
                | ChaosEvent::ReplicaLag { node, .. }
                | ChaosEvent::NodeDrain { node, .. }
                | ChaosEvent::RejoinFlap { node, .. } => Some(node),
                _ => None,
            };
            if let Some(node) = node {
                if node >= pool_len {
                    return Err(ChaosPlanError::BadNode { node, pool_len });
                }
            }
            match *ev {
                ChaosEvent::PacketLoss { pct } | ChaosEvent::PacketCorrupt { pct } if pct > 100 => {
                    return Err(ChaosPlanError::BadPercent { pct });
                }
                ChaosEvent::LinkFlap { from, until } if until <= from => {
                    return Err(ChaosPlanError::EmptyWindow);
                }
                ChaosEvent::SyncTimeout { from, until, .. } if until <= from => {
                    return Err(ChaosPlanError::EmptyWindow);
                }
                ChaosEvent::RouterCrash { from, until }
                | ChaosEvent::DnsOutage { from, until, .. }
                    if until <= from =>
                {
                    return Err(ChaosPlanError::EmptyWindow);
                }
                ChaosEvent::HandoffStorm { count, every, .. }
                    if count == 0 || every == SimDuration::ZERO =>
                {
                    return Err(ChaosPlanError::BadHandoffStorm);
                }
                ChaosEvent::Partition { from_session, until_session, .. }
                | ChaosEvent::DnsOutage { from_session, until_session, .. }
                | ChaosEvent::VaultCrash { from_session, until_session, .. }
                | ChaosEvent::ReplicaLag { from_session, until_session, .. }
                | ChaosEvent::HostileGuest { from_session, until_session, .. }
                | ChaosEvent::TenantKeyRotation { from_session, until_session, .. }
                | ChaosEvent::TenantKeyCompromise { from_session, until_session, .. }
                | ChaosEvent::NodeDrain { from_session, until_session, .. }
                | ChaosEvent::RegionOutage { from_session, until_session, .. }
                | ChaosEvent::RejoinFlap { from_session, until_session, .. }
                    if until_session <= from_session =>
                {
                    return Err(ChaosPlanError::EmptyWindow);
                }
                ChaosEvent::ReplicaLag { lsns: 0, .. } => {
                    return Err(ChaosPlanError::ZeroLag);
                }
                ChaosEvent::RollingUpgrade { wave_sessions: 0, .. }
                | ChaosEvent::RejoinFlap { period_sessions: 0, .. } => {
                    return Err(ChaosPlanError::BadMembership);
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// A named, canned scenario, or several joined with `+` (e.g.
    /// `"crash-primary+vault-crash"`): their events concatenate in order,
    /// and the seed, deadline and breaker settings come from the first.
    /// `None` if any name is unknown; see [`ChaosPlan::canned_names`].
    pub fn canned(name: &str) -> Option<ChaosPlan> {
        let mut parts = name.split('+');
        let mut plan = ChaosPlan::canned_one(parts.next()?)?;
        for part in parts {
            plan.events.extend(ChaosPlan::canned_one(part)?.events);
        }
        Some(plan)
    }

    fn canned_one(name: &str) -> Option<ChaosPlan> {
        let mut plan = ChaosPlan::default();
        match name {
            // The acceptance scenario: crash the primary mid-session with
            // 5% packet loss and one radio flap. Sessions placed on node 0
            // fail their first attempt partway through and succeed on a
            // replica via checkpoint/replay. The 900 ms offset lands after
            // a typical session's first TCP payload replacement, so the
            // replay re-sends it and the origin-side dedup has real work.
            "crash-primary" => {
                plan.events = vec![
                    ChaosEvent::NodeCrash {
                        node: 0,
                        at: SimDuration::from_millis(900),
                        from_session: 0,
                    },
                    ChaosEvent::PacketLoss { pct: 5 },
                    ChaosEvent::LinkFlap {
                        from: SimDuration::from_millis(200),
                        until: SimDuration::from_millis(350),
                    },
                ];
            }
            // Crash then recover on the session axis: exercises the full
            // breaker cycle (trip, fast skips, HalfOpen probes, reclose).
            "recovery" => {
                plan.trip_after = 2;
                plan.probe_every = 3;
                plan.events = vec![
                    ChaosEvent::NodeCrash { node: 0, at: SimDuration::ZERO, from_session: 0 },
                    ChaosEvent::NodeRecover { node: 0, from_session: 12 },
                ];
            }
            // Hard partition of the first four nodes: sessions whose whole
            // replica set is unreachable must fail closed.
            "partition" => {
                plan.events = (0..4)
                    .map(|node| ChaosEvent::Partition {
                        node,
                        from_session: 0,
                        until_session: u64::MAX,
                    })
                    .collect();
            }
            // Durability gauntlet: every vault crash artifact plus stale
            // replicas, layered over a node 0 crash so failover actually
            // happens while the vault is being tortured. Node 0 tears
            // mid-commit, node 1 tears its WAL tail, node 2 dies inside
            // compaction, node 3 tears its tail again; nodes 1 and 2
            // additionally ship to lagging replicas, so cor-aware
            // failover must anti-entropy before serving.
            "vault-crash" => {
                plan.events = vec![
                    ChaosEvent::NodeCrash {
                        node: 0,
                        at: SimDuration::from_millis(900),
                        from_session: 0,
                    },
                    ChaosEvent::VaultCrash {
                        node: 0,
                        kind: VaultCrashKind::MidCommit,
                        from_session: 0,
                        until_session: u64::MAX,
                    },
                    ChaosEvent::VaultCrash {
                        node: 1,
                        kind: VaultCrashKind::TornTail,
                        from_session: 0,
                        until_session: u64::MAX,
                    },
                    ChaosEvent::VaultCrash {
                        node: 2,
                        kind: VaultCrashKind::Compaction,
                        from_session: 0,
                        until_session: u64::MAX,
                    },
                    ChaosEvent::VaultCrash {
                        node: 3,
                        kind: VaultCrashKind::TornTail,
                        from_session: 4,
                        until_session: u64::MAX,
                    },
                    ChaosEvent::ReplicaLag {
                        node: 1,
                        lsns: 2,
                        from_session: 0,
                        until_session: u64::MAX,
                    },
                    ChaosEvent::ReplicaLag {
                        node: 2,
                        lsns: 1,
                        from_session: 2,
                        until_session: u64::MAX,
                    },
                ];
            }
            // The guard's acceptance scenario: every session is hostile,
            // cycling through all four exhaustion attacks by session id.
            // Every run must end in a deterministic kill with the right
            // reason, a scrubbed node heap, and an untouched pool.
            "hostile-guest" => {
                plan.events = [
                    HostileGuestKind::Spin,
                    HostileGuestKind::HeapBomb,
                    HostileGuestKind::DeepRecursion,
                    HostileGuestKind::SyncFlood,
                ]
                .into_iter()
                .map(|kind| ChaosEvent::HostileGuest {
                    kind,
                    from_session: 0,
                    until_session: u64::MAX,
                })
                .collect();
            }
            // The tenant subsystem's acceptance scenario: tenant 0's
            // keys rotate routinely mid-run, while tenant 1 suffers a
            // suspected compromise and must force-rotate. With two
            // tenants, tenant 0's rotation fires at session 4 and
            // tenant 1's at session 7 — both mid-run for the canonical
            // 12-session test fleet, so earlier sessions seal under
            // epoch 0 and later ones under epoch 1, never mixing.
            "tenant-rotation" => {
                plan.events = vec![
                    ChaosEvent::TenantKeyRotation {
                        tenant: 0,
                        from_session: 4,
                        until_session: u64::MAX,
                    },
                    ChaosEvent::TenantKeyCompromise {
                        tenant: 1,
                        from_session: 6,
                        until_session: u64::MAX,
                    },
                ];
            }
            // The mobility acceptance scenario: the phone hands off
            // Wi-Fi → 3G → Wi-Fi mid-session (the first switch lands
            // inside a typical session's offload window), each with a
            // 150 ms radio blackout and a NAT rebind. Requires the fleet
            // to run routed worlds (`topology`); sessions must complete
            // after bounded re-sync retries or fail closed.
            "handoff" => {
                plan.events = vec![ChaosEvent::HandoffStorm {
                    count: 2,
                    every: SimDuration::from_millis(700),
                    blackout: SimDuration::from_millis(150),
                }];
            }
            // The routed-internet gauntlet: a router outage window, a
            // conntrack flush, and a DNS brownout, layered so each
            // session crosses at least one of them. Established flows
            // must fail closed (`NatExpired`/`NoRoute`) and reconnect,
            // cached DNS records must keep serving through the brownout.
            "nat-traversal" => {
                plan.events = vec![
                    ChaosEvent::RouterCrash {
                        from: SimDuration::from_millis(250),
                        until: SimDuration::from_millis(400),
                    },
                    ChaosEvent::NatTableFlush { at: SimDuration::from_millis(2200) },
                    // One slice of the fleet meets a dead resolver at
                    // connect time and must fail closed; the rest
                    // resolve normally and exercise the NAT path.
                    ChaosEvent::DnsOutage {
                        from: SimDuration::ZERO,
                        until: SimDuration::from_millis(120),
                        from_session: 6,
                        until_session: 12,
                    },
                ];
            }
            // The region acceptance scenario: region 0 dies whole for the
            // middle of the run. Sessions in flight on region-0 nodes when
            // the outage opens are checkpointed mid-offload and must
            // migrate to an attested peer region (or fail closed, reason
            // `no_region`); sessions placed inside the window route
            // around the dead region. Node 1 (a peer-region node under
            // the canonical 2-region split) ships to a lagging replica,
            // so some migration targets must anti-entropy before serving
            // — the stale-replica refusal applies to migrated-in guests
            // exactly as to fresh placements. Requires region mode
            // (`regions >= 2`).
            "region-failover" => {
                // Session 6 is the first id homed in region 0 inside the
                // window (the region hash is a pure function of the id),
                // so the outage's opening session is genuinely in flight
                // on a region-0 node and must checkpoint-migrate.
                plan.events = vec![
                    ChaosEvent::RegionOutage { region: 0, from_session: 6, until_session: 12 },
                    ChaosEvent::ReplicaLag { node: 1, lsns: 2, from_session: 6, until_session: 12 },
                ];
            }
            // The rolling-upgrade acceptance scenario: one node drains
            // per three-session wave starting at session 2, so the fleet
            // is never more than one node short. Every wave forces live
            // migrations off the draining node; drained nodes rejoin
            // CatchingUp and must hit the acked vault watermark before
            // serving again.
            "rolling-upgrade" => {
                plan.events =
                    vec![ChaosEvent::RollingUpgrade { wave_sessions: 3, from_session: 2 }];
            }
            // A standing drain of node 0: every session placed there is
            // checkpointed at a DSM sync point and live-migrates to a
            // peer, so any run exercises the checkpoint/migrate/scrub
            // path without a region outage.
            "drain" => {
                plan.events = vec![ChaosEvent::NodeDrain {
                    node: 0,
                    from_session: 0,
                    until_session: u64::MAX,
                }];
            }
            // A noisy but survivable wire: loss, corruption, and delay.
            "wire-noise" => {
                plan.events = vec![
                    ChaosEvent::PacketLoss { pct: 10 },
                    ChaosEvent::PacketCorrupt { pct: 5 },
                    ChaosEvent::PacketDelay { delay: SimDuration::from_millis(20) },
                ];
            }
            _ => return None,
        }
        Some(plan)
    }

    /// The plan names [`ChaosPlan::canned`] recognizes and joins with `+`.
    pub fn canned_names() -> &'static [&'static str] {
        &[
            "crash-primary",
            "recovery",
            "partition",
            "wire-noise",
            "vault-crash",
            "hostile-guest",
            "tenant-rotation",
            "handoff",
            "nat-traversal",
            "region-failover",
            "rolling-upgrade",
            "drain",
        ]
    }

    /// The first session id at which `node` recovers (`u64::MAX` if it
    /// never does).
    fn recover_session(&self, node: usize) -> u64 {
        self.events
            .iter()
            .filter_map(|ev| match *ev {
                ChaosEvent::NodeRecover { node: n, from_session } if n == node => {
                    Some(from_session)
                }
                _ => None,
            })
            .min()
            .unwrap_or(u64::MAX)
    }

    /// The crash interval for `node` on the session axis:
    /// `(from_session, recover_session, within-session offset)`.
    pub fn crash_interval(&self, node: usize) -> Option<(u64, u64, SimDuration)> {
        self.events
            .iter()
            .filter_map(|ev| match *ev {
                ChaosEvent::NodeCrash { node: n, at, from_session } if n == node => {
                    Some((from_session, at))
                }
                _ => None,
            })
            .min()
            .map(|(from, at)| (from, self.recover_session(node).max(from), at))
    }
}

/// A plan projected onto one (node, session) pair: plain data the executor
/// translates into `NetChaos` + `SyncFault` for that session's hermetic
/// world.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionFaults {
    /// Within-session offset at which the node stops answering syncs
    /// (`None` = no crash for this session).
    pub crash: Option<SimDuration>,
    /// Transient DSM-timeout windows `[from, until)`.
    pub sync_windows: Vec<(SimDuration, SimDuration)>,
    /// Packet-loss percent (summed over events, capped at 100).
    pub loss_pct: u8,
    /// Packet-corruption percent (summed over events, capped at 100).
    pub corrupt_pct: u8,
    /// Extra one-way delay per data segment.
    pub delay: SimDuration,
    /// Radio flap window `[from, until)`.
    pub flap: Option<(SimDuration, SimDuration)>,
    /// True if the phone cannot reach this node at all.
    pub partitioned: bool,
    /// Vault crash injected into this session's durability audit
    /// (`None` = the vault survives this session).
    pub vault_crash: Option<VaultCrashKind>,
    /// LSNs the node's failover replica trails the primary by (0 = the
    /// replica's watermark covers everything).
    pub replica_lag: u64,
    /// The hostile app this session runs instead of its scripted one
    /// (`None` = the session is well behaved).
    pub hostile_guest: Option<HostileGuestKind>,
    /// Router outage windows `[from, until)` covering every router in
    /// the session's topology (empty or ignored for flat worlds).
    pub router_outages: Vec<(SimDuration, SimDuration)>,
    /// Within-session offsets at which the NAT conntrack table flushes.
    pub nat_flushes: Vec<SimDuration>,
    /// DNS resolver outage windows `[from, until)`.
    pub dns_outages: Vec<(SimDuration, SimDuration)>,
    /// Scheduled mobility handoffs, in firing order.
    pub handoffs: Vec<HandoffSpec>,
    /// Seed of this session's loss/corruption dice stream.
    pub dice_seed: u64,
}

/// One scheduled mobility handoff, as plain data (the executor maps
/// `to_3g` onto the concrete link profiles of its world).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HandoffSpec {
    /// Within-session offset at which the radio switches.
    pub at: SimDuration,
    /// Radio blackout charged at the switch.
    pub blackout: SimDuration,
    /// `true` = hand off to 3G, `false` = back to Wi-Fi.
    pub to_3g: bool,
}

/// Projects `plan` onto the session with id `session` (and per-session
/// seed `session_seed`) attempting node `node`. Pure: the same inputs
/// always produce the same faults, regardless of worker interleaving.
pub fn session_faults(
    plan: &ChaosPlan,
    node: usize,
    session: u64,
    session_seed: u64,
) -> SessionFaults {
    let mut f = SessionFaults {
        dice_seed: SplitMix64::new(
            plan.seed
                ^ session_seed.rotate_left(17)
                ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        )
        .next_u64(),
        ..SessionFaults::default()
    };
    if let Some((from, recover, at)) = plan.crash_interval(node) {
        if session >= from && session < recover {
            f.crash = Some(at);
        }
    }
    let mut hostile: Vec<HostileGuestKind> = Vec::new();
    for ev in &plan.events {
        match *ev {
            ChaosEvent::LinkFlap { from, until } => f.flap = Some((from, until)),
            ChaosEvent::PacketLoss { pct } => {
                f.loss_pct = f.loss_pct.saturating_add(pct).min(100);
            }
            ChaosEvent::PacketCorrupt { pct } => {
                f.corrupt_pct = f.corrupt_pct.saturating_add(pct).min(100);
            }
            ChaosEvent::PacketDelay { delay } => f.delay += delay,
            ChaosEvent::Partition { node: n, from_session, until_session }
                if n == node && session >= from_session && session < until_session =>
            {
                f.partitioned = true;
            }
            ChaosEvent::SyncTimeout { node: n, from, until } if n == node => {
                f.sync_windows.push((from, until));
            }
            ChaosEvent::VaultCrash { node: n, kind, from_session, until_session }
                if n == node && session >= from_session && session < until_session =>
            {
                f.vault_crash = Some(kind);
            }
            ChaosEvent::ReplicaLag { node: n, lsns, from_session, until_session }
                if n == node && session >= from_session && session < until_session =>
            {
                f.replica_lag = f.replica_lag.max(lsns);
            }
            ChaosEvent::HostileGuest { kind, from_session, until_session }
                if session >= from_session && session < until_session =>
            {
                hostile.push(kind);
            }
            ChaosEvent::RouterCrash { from, until } => f.router_outages.push((from, until)),
            ChaosEvent::NatTableFlush { at } => f.nat_flushes.push(at),
            ChaosEvent::DnsOutage { from, until, from_session, until_session }
                if session >= from_session && session < until_session =>
            {
                f.dns_outages.push((from, until));
            }
            ChaosEvent::HandoffStorm { count, every, blackout } => {
                for i in 1..=count as u64 {
                    f.handoffs.push(HandoffSpec { at: every * i, blackout, to_3g: i % 2 == 1 });
                }
            }
            _ => {}
        }
    }
    if !hostile.is_empty() {
        // Overlapping windows alternate by session id (see the event's
        // doc); a session's attack is independent of the node attempted.
        f.hostile_guest = Some(hostile[(session % hostile.len() as u64) as usize]);
    }
    f
}

/// A plan projected onto one (tenant, session) pair: which key epoch the
/// session seals under and whether it is the one paying for a rotation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantFaults {
    /// Key epoch this session's tenant seals under (rotations before or
    /// at this session bumped it from 0).
    pub epoch: u32,
    /// True when this is the tenant's rotation session: it pays the
    /// re-encryption cost (or fails closed) before serving.
    pub rotates: bool,
    /// True when the rotation this session pays for was forced by a
    /// suspected compromise: an unaffordable rotation must fail closed
    /// with reason `revoked_key` rather than degrade gracefully.
    pub compromised: bool,
}

/// The session id at which a rotation scheduled `from` lands for
/// `tenant` under round-robin assignment over `tenants`: the tenant's
/// first session id ≥ `from`.
fn rotation_session(tenants: u64, tenant: u64, from: u64) -> u64 {
    from + ((tenant + tenants - from % tenants) % tenants)
}

/// Projects `plan`'s tenant-key events onto the session with id
/// `session` belonging to `tenant` (round-robin over `tenants`). Pure:
/// the same inputs always produce the same faults, regardless of worker
/// interleaving. With tenancy disabled (`tenants == 0`) there are no
/// tenant faults.
pub fn tenant_faults(plan: &ChaosPlan, tenants: u64, tenant: u64, session: u64) -> TenantFaults {
    let mut f = TenantFaults::default();
    if tenants == 0 {
        return f;
    }
    for ev in &plan.events {
        let (t, from, until, forced) = match *ev {
            ChaosEvent::TenantKeyRotation { tenant, from_session, until_session } => {
                (tenant, from_session, until_session, false)
            }
            ChaosEvent::TenantKeyCompromise { tenant, from_session, until_session } => {
                (tenant, from_session, until_session, true)
            }
            _ => continue,
        };
        if t != tenant {
            continue;
        }
        let fires_at = rotation_session(tenants, tenant, from);
        if fires_at >= until {
            // The window closes before the tenant ever runs a session
            // inside it: the rotation never fires.
            continue;
        }
        if session >= fires_at {
            f.epoch += 1;
        }
        if session == fires_at {
            f.rotates = true;
            f.compromised |= forced;
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_out_of_range_nodes() {
        let mut plan = ChaosPlan::empty();
        plan.events =
            vec![ChaosEvent::NodeCrash { node: 7, at: SimDuration::ZERO, from_session: 0 }];
        assert_eq!(plan.validate(4), Err(ChaosPlanError::BadNode { node: 7, pool_len: 4 }));
        assert_eq!(plan.validate(8), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_percent_and_empty_windows() {
        let mut plan = ChaosPlan::empty();
        plan.events = vec![ChaosEvent::PacketLoss { pct: 101 }];
        assert_eq!(plan.validate(1), Err(ChaosPlanError::BadPercent { pct: 101 }));
        plan.events = vec![ChaosEvent::LinkFlap {
            from: SimDuration::from_millis(5),
            until: SimDuration::from_millis(5),
        }];
        assert_eq!(plan.validate(1), Err(ChaosPlanError::EmptyWindow));
        plan.events = vec![ChaosEvent::Partition { node: 0, from_session: 3, until_session: 3 }];
        assert_eq!(plan.validate(1), Err(ChaosPlanError::EmptyWindow));
        plan.events.clear();
        plan.trip_after = 0;
        assert_eq!(plan.validate(1), Err(ChaosPlanError::BadBreakerConfig));
    }

    #[test]
    fn canned_plans_validate_against_default_pool() {
        for name in ChaosPlan::canned_names() {
            let plan = ChaosPlan::canned(name).unwrap();
            plan.validate(4).unwrap_or_else(|e| panic!("canned plan {name} invalid: {e}"));
        }
        assert!(ChaosPlan::canned("nope").is_none());
    }

    #[test]
    fn joined_canned_plans_concatenate_onto_the_first() {
        let crash = ChaosPlan::canned("crash-primary").unwrap();
        let mut spliced = crash.clone();
        spliced.events.extend(ChaosPlan::canned("vault-crash").unwrap().events);
        assert_eq!(ChaosPlan::canned("crash-primary+vault-crash"), Some(spliced));
        // The first plan's parameters win, even when a later one has its own.
        let joined = ChaosPlan::canned("crash-primary+recovery").unwrap();
        assert_eq!((joined.trip_after, joined.probe_every), (crash.trip_after, crash.probe_every));
        let recovery = ChaosPlan::canned("recovery+crash-primary").unwrap();
        assert_eq!((recovery.trip_after, recovery.probe_every), (2, 3));
        for bad in ["crash-primary+nope", "nope+drain", "drain+", "+drain"] {
            assert!(ChaosPlan::canned(bad).is_none(), "{bad:?} must not resolve");
        }
    }

    #[test]
    fn crash_interval_respects_recovery_order() {
        let mut plan = ChaosPlan::empty();
        plan.events = vec![
            ChaosEvent::NodeCrash { node: 1, at: SimDuration::from_millis(9), from_session: 4 },
            ChaosEvent::NodeRecover { node: 1, from_session: 10 },
            ChaosEvent::NodeRecover { node: 0, from_session: 1 },
        ];
        assert_eq!(plan.crash_interval(1), Some((4, 10, SimDuration::from_millis(9))));
        assert_eq!(plan.crash_interval(0), None);
    }

    #[test]
    fn session_faults_projects_both_axes() {
        let mut plan = ChaosPlan::empty();
        plan.events = vec![
            ChaosEvent::NodeCrash { node: 0, at: SimDuration::from_millis(50), from_session: 2 },
            ChaosEvent::NodeRecover { node: 0, from_session: 5 },
            ChaosEvent::PacketLoss { pct: 60 },
            ChaosEvent::PacketLoss { pct: 70 },
            ChaosEvent::Partition { node: 1, from_session: 0, until_session: 3 },
            ChaosEvent::SyncTimeout {
                node: 0,
                from: SimDuration::from_millis(1),
                until: SimDuration::from_millis(2),
            },
        ];
        // Session axis: before / inside / after the crash interval.
        assert_eq!(session_faults(&plan, 0, 1, 9).crash, None);
        assert_eq!(session_faults(&plan, 0, 2, 9).crash, Some(SimDuration::from_millis(50)));
        assert_eq!(session_faults(&plan, 0, 5, 9).crash, None);
        // Other nodes never see the crash.
        assert_eq!(session_faults(&plan, 1, 2, 9).crash, None);
        // Percentages cap at 100; global events reach every node.
        assert_eq!(session_faults(&plan, 1, 0, 9).loss_pct, 100);
        // Partition respects its session window and node.
        assert!(session_faults(&plan, 1, 2, 9).partitioned);
        assert!(!session_faults(&plan, 1, 3, 9).partitioned);
        assert!(!session_faults(&plan, 0, 2, 9).partitioned);
        // Sync windows land only on their node.
        assert_eq!(session_faults(&plan, 0, 0, 9).sync_windows.len(), 1);
        assert!(session_faults(&plan, 1, 0, 9).sync_windows.is_empty());
    }

    #[test]
    fn vault_faults_project_onto_their_node_and_window() {
        let mut plan = ChaosPlan::empty();
        plan.events = vec![
            ChaosEvent::VaultCrash {
                node: 0,
                kind: VaultCrashKind::TornTail,
                from_session: 2,
                until_session: 4,
            },
            ChaosEvent::ReplicaLag { node: 1, lsns: 3, from_session: 0, until_session: 2 },
            ChaosEvent::ReplicaLag { node: 1, lsns: 5, from_session: 1, until_session: 2 },
        ];
        assert_eq!(session_faults(&plan, 0, 1, 9).vault_crash, None);
        assert_eq!(session_faults(&plan, 0, 2, 9).vault_crash, Some(VaultCrashKind::TornTail));
        assert_eq!(session_faults(&plan, 0, 4, 9).vault_crash, None);
        assert_eq!(session_faults(&plan, 1, 2, 9).vault_crash, None, "wrong node");
        // Overlapping lags take the max; outside the window they vanish.
        assert_eq!(session_faults(&plan, 1, 0, 9).replica_lag, 3);
        assert_eq!(session_faults(&plan, 1, 1, 9).replica_lag, 5);
        assert_eq!(session_faults(&plan, 1, 2, 9).replica_lag, 0);
        assert_eq!(session_faults(&plan, 0, 1, 9).replica_lag, 0, "wrong node");
    }

    #[test]
    fn validate_rejects_bad_vault_events() {
        let mut plan = ChaosPlan::empty();
        plan.events = vec![ChaosEvent::VaultCrash {
            node: 9,
            kind: VaultCrashKind::MidCommit,
            from_session: 0,
            until_session: 1,
        }];
        assert_eq!(plan.validate(4), Err(ChaosPlanError::BadNode { node: 9, pool_len: 4 }));
        plan.events = vec![ChaosEvent::VaultCrash {
            node: 0,
            kind: VaultCrashKind::MidCommit,
            from_session: 3,
            until_session: 3,
        }];
        assert_eq!(plan.validate(4), Err(ChaosPlanError::EmptyWindow));
        plan.events =
            vec![ChaosEvent::ReplicaLag { node: 0, lsns: 0, from_session: 0, until_session: 1 }];
        assert_eq!(plan.validate(4), Err(ChaosPlanError::ZeroLag));
    }

    #[test]
    fn hostile_guest_projects_by_session_window_and_alternates_kinds() {
        let plan = ChaosPlan::canned("hostile-guest").unwrap();
        plan.validate(4).unwrap();
        // Full-width windows: every session is hostile, cycling kinds,
        // on every node it might be placed on.
        for node in 0..4 {
            assert_eq!(
                session_faults(&plan, node, 0, 9).hostile_guest,
                Some(HostileGuestKind::Spin)
            );
        }
        assert_eq!(session_faults(&plan, 0, 1, 9).hostile_guest, Some(HostileGuestKind::HeapBomb));
        assert_eq!(
            session_faults(&plan, 0, 2, 9).hostile_guest,
            Some(HostileGuestKind::DeepRecursion)
        );
        assert_eq!(session_faults(&plan, 0, 3, 9).hostile_guest, Some(HostileGuestKind::SyncFlood));
        assert_eq!(session_faults(&plan, 0, 4, 9).hostile_guest, Some(HostileGuestKind::Spin));
        // A bounded window leaves later sessions well behaved.
        let mut bounded = ChaosPlan::empty();
        bounded.events = vec![ChaosEvent::HostileGuest {
            kind: HostileGuestKind::HeapBomb,
            from_session: 2,
            until_session: 4,
        }];
        assert_eq!(session_faults(&bounded, 0, 1, 9).hostile_guest, None);
        assert_eq!(
            session_faults(&bounded, 0, 3, 9).hostile_guest,
            Some(HostileGuestKind::HeapBomb)
        );
        assert_eq!(session_faults(&bounded, 0, 4, 9).hostile_guest, None);
        // An empty window is a plan bug.
        bounded.events = vec![ChaosEvent::HostileGuest {
            kind: HostileGuestKind::Spin,
            from_session: 3,
            until_session: 3,
        }];
        assert_eq!(bounded.validate(4), Err(ChaosPlanError::EmptyWindow));
    }

    #[test]
    fn tenant_rotation_fires_at_the_tenants_first_session_in_window() {
        let plan = ChaosPlan::canned("tenant-rotation").unwrap();
        plan.validate(4).unwrap();
        // Tenant 0 (sessions 0, 2, 4, ...): rotation from session 4
        // lands exactly on session 4.
        assert_eq!(tenant_faults(&plan, 2, 0, 2), TenantFaults::default());
        assert_eq!(
            tenant_faults(&plan, 2, 0, 4),
            TenantFaults { epoch: 1, rotates: true, compromised: false }
        );
        assert_eq!(
            tenant_faults(&plan, 2, 0, 6),
            TenantFaults { epoch: 1, rotates: false, compromised: false },
            "later sessions hold the new epoch without re-paying"
        );
        // Tenant 1 (sessions 1, 3, 5, 7, ...): the compromise from
        // session 6 fires at tenant 1's next session, 7, and is forced.
        assert_eq!(tenant_faults(&plan, 2, 1, 5).epoch, 0);
        assert_eq!(
            tenant_faults(&plan, 2, 1, 7),
            TenantFaults { epoch: 1, rotates: true, compromised: true }
        );
        assert_eq!(tenant_faults(&plan, 2, 1, 9).epoch, 1);
    }

    #[test]
    fn tenant_faults_are_scoped_and_pure() {
        let plan = ChaosPlan::canned("tenant-rotation").unwrap();
        // Tenancy disabled: no faults at all.
        assert_eq!(tenant_faults(&plan, 0, 0, 4), TenantFaults::default());
        // A window that closes before the tenant's first session inside
        // it never fires.
        let mut narrow = ChaosPlan::empty();
        narrow.events =
            vec![ChaosEvent::TenantKeyRotation { tenant: 1, from_session: 4, until_session: 5 }];
        assert_eq!(tenant_faults(&narrow, 2, 1, 5), TenantFaults::default());
        assert_eq!(tenant_faults(&narrow, 2, 1, 7), TenantFaults::default());
        // Purity.
        assert_eq!(tenant_faults(&plan, 2, 0, 4), tenant_faults(&plan, 2, 0, 4));
        // Empty windows are plan bugs for both tenant event kinds.
        let mut bad = ChaosPlan::empty();
        bad.events =
            vec![ChaosEvent::TenantKeyRotation { tenant: 0, from_session: 3, until_session: 3 }];
        assert_eq!(bad.validate(4), Err(ChaosPlanError::EmptyWindow));
        bad.events =
            vec![ChaosEvent::TenantKeyCompromise { tenant: 0, from_session: 3, until_session: 2 }];
        assert_eq!(bad.validate(4), Err(ChaosPlanError::EmptyWindow));
    }

    #[test]
    fn topology_faults_project_and_validate() {
        let mut plan = ChaosPlan::empty();
        plan.events = vec![
            ChaosEvent::RouterCrash {
                from: SimDuration::from_millis(10),
                until: SimDuration::from_millis(20),
            },
            ChaosEvent::NatTableFlush { at: SimDuration::from_millis(30) },
            ChaosEvent::DnsOutage {
                from: SimDuration::ZERO,
                until: SimDuration::from_millis(5),
                from_session: 0,
                until_session: u64::MAX,
            },
            ChaosEvent::HandoffStorm {
                count: 3,
                every: SimDuration::from_millis(100),
                blackout: SimDuration::from_millis(40),
            },
        ];
        plan.validate(4).unwrap();
        let f = session_faults(&plan, 0, 0, 9);
        assert_eq!(
            f.router_outages,
            vec![(SimDuration::from_millis(10), SimDuration::from_millis(20))]
        );
        assert_eq!(f.nat_flushes, vec![SimDuration::from_millis(30)]);
        assert_eq!(f.dns_outages, vec![(SimDuration::ZERO, SimDuration::from_millis(5))]);
        // Handoffs land at every*i and alternate 3G / Wi-Fi.
        assert_eq!(f.handoffs.len(), 3);
        assert_eq!(
            f.handoffs[0],
            HandoffSpec {
                at: SimDuration::from_millis(100),
                blackout: SimDuration::from_millis(40),
                to_3g: true,
            }
        );
        assert!(!f.handoffs[1].to_3g);
        assert_eq!(f.handoffs[2].at, SimDuration::from_millis(300));
        // Global faults hit every node identically.
        assert_eq!(session_faults(&plan, 3, 7, 9).handoffs, f.handoffs);

        // Empty windows and degenerate storms are plan bugs.
        let mut bad = ChaosPlan::empty();
        bad.events = vec![ChaosEvent::RouterCrash {
            from: SimDuration::from_millis(5),
            until: SimDuration::from_millis(5),
        }];
        assert_eq!(bad.validate(1), Err(ChaosPlanError::EmptyWindow));
        bad.events = vec![ChaosEvent::DnsOutage {
            from: SimDuration::from_millis(5),
            until: SimDuration::from_millis(4),
            from_session: 0,
            until_session: u64::MAX,
        }];
        assert_eq!(bad.validate(1), Err(ChaosPlanError::EmptyWindow));
        bad.events = vec![ChaosEvent::HandoffStorm {
            count: 0,
            every: SimDuration::from_millis(1),
            blackout: SimDuration::ZERO,
        }];
        assert_eq!(bad.validate(1), Err(ChaosPlanError::BadHandoffStorm));
        bad.events = vec![ChaosEvent::HandoffStorm {
            count: 1,
            every: SimDuration::ZERO,
            blackout: SimDuration::ZERO,
        }];
        assert_eq!(bad.validate(1), Err(ChaosPlanError::BadHandoffStorm));
    }

    #[test]
    fn membership_events_validate_nodes_windows_and_periods() {
        let mut plan = ChaosPlan::empty();
        // Node indices are checked for the node-scoped families.
        plan.events = vec![ChaosEvent::NodeDrain { node: 9, from_session: 0, until_session: 4 }];
        assert_eq!(plan.validate(4), Err(ChaosPlanError::BadNode { node: 9, pool_len: 4 }));
        plan.events = vec![ChaosEvent::RejoinFlap {
            node: 5,
            period_sessions: 2,
            from_session: 0,
            until_session: 8,
        }];
        assert_eq!(plan.validate(4), Err(ChaosPlanError::BadNode { node: 5, pool_len: 4 }));
        // Session windows must be non-empty.
        plan.events = vec![ChaosEvent::NodeDrain { node: 0, from_session: 3, until_session: 3 }];
        assert_eq!(plan.validate(4), Err(ChaosPlanError::EmptyWindow));
        plan.events =
            vec![ChaosEvent::RegionOutage { region: 0, from_session: 5, until_session: 4 }];
        assert_eq!(plan.validate(4), Err(ChaosPlanError::EmptyWindow));
        plan.events = vec![ChaosEvent::RejoinFlap {
            node: 0,
            period_sessions: 2,
            from_session: 6,
            until_session: 6,
        }];
        assert_eq!(plan.validate(4), Err(ChaosPlanError::EmptyWindow));
        // Degenerate schedules are plan bugs.
        plan.events = vec![ChaosEvent::RollingUpgrade { wave_sessions: 0, from_session: 0 }];
        assert_eq!(plan.validate(4), Err(ChaosPlanError::BadMembership));
        plan.events = vec![ChaosEvent::RejoinFlap {
            node: 0,
            period_sessions: 0,
            from_session: 0,
            until_session: 8,
        }];
        assert_eq!(plan.validate(4), Err(ChaosPlanError::BadMembership));
        // Well-formed membership events pass (the region index itself is
        // checked at membership-schedule build, where the region count
        // is known).
        plan.events = vec![
            ChaosEvent::NodeDrain { node: 0, from_session: 0, until_session: 4 },
            ChaosEvent::RegionOutage { region: 7, from_session: 4, until_session: 8 },
            ChaosEvent::RollingUpgrade { wave_sessions: 3, from_session: 2 },
            ChaosEvent::RejoinFlap {
                node: 1,
                period_sessions: 2,
                from_session: 0,
                until_session: 8,
            },
        ];
        assert_eq!(plan.validate(4), Ok(()));
    }

    #[test]
    fn dice_seed_varies_by_every_input() {
        let plan = ChaosPlan::empty();
        let base = session_faults(&plan, 0, 0, 1).dice_seed;
        assert_ne!(session_faults(&plan, 1, 0, 1).dice_seed, base);
        assert_ne!(session_faults(&plan, 0, 0, 2).dice_seed, base);
        let mut other = ChaosPlan::empty();
        other.seed ^= 1;
        assert_ne!(session_faults(&other, 0, 0, 1).dice_seed, base);
        // But it is a pure function.
        assert_eq!(session_faults(&plan, 0, 0, 1).dice_seed, base);
    }
}
