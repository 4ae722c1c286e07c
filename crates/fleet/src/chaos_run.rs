//! The fleet executor: runs every session of a fleet under a
//! [`ChaosPlan`] — the empty plan for a clean fleet — with fail-closed
//! session recovery. [`execute_with_chaos`] drives one session through
//! five stages, each of which can end it fail-closed with a typed reason:
//!
//! 1. **admit** — guard load shedding (`overloaded`) and the tenant
//!    declassification policy (`policy_denied`), before any placement.
//! 2. **gate** — walk the replica order ([`RegionMap::order`]: home region
//!    first), skipping nodes that are down, breaker-Open (a precomputed
//!    [`BreakerSchedule`] view; HalfOpen lets a deterministic probe
//!    through), outside a startable membership state, or unattested.
//! 3. **prepare** — build the world and arm it: the guard, vault replica
//!    and rejoin catch-up charged against the deadline (`stale_replica`:
//!    never served from a stale store), the drain checkpoint, tenant key
//!    rotation (`revoked_key`), and the plan projected onto the
//!    `(node, session)` pair ([`session_faults`]) as the world's own fault
//!    hooks. The projection is pure, so worker interleaving cannot change
//!    what any session experiences.
//! 4. **run + audit** — run the guest, then record topology columns,
//!    exactly-once payload deliveries ([`DeliveryLedger`]), a residue scan
//!    of the device host on *every* attempt, and a hermetic
//!    [`crate::vault_audit`] (WAL replay, projected crash, recovery,
//!    byte-compare).
//! 5. **settle** — serve; or turn the failure into a guard kill
//!    (`guest_killed`), a live migration to the next admissible peer, or a
//!    retry credited with the checkpointed DSM prefix, so recovered
//!    latency reflects resuming, not restarting.
//!
//! Running out of deadline or placements fails closed as `deadline`,
//! `unattested` or `attempts_exhausted` — or `no_region` once the session
//! has migrated. The device keeps only placeholders; no retry path ever
//! relaxes that.

use tinman_chaos::{
    session_faults, BreakerSchedule, BreakerState, ChaosPlan, DeliveryLedger, SessionFaults,
    VaultCrashKind,
};
use tinman_core::runtime::{Mode, RunReport, TinmanRuntime};
use tinman_core::RuntimeError;
use tinman_dsm::{DsmError, SyncFault};
use tinman_net::{Handoff, NetChaos};
use tinman_obs::TraceEvent;
use tinman_sim::{LinkProfile, SimDuration, SimTime, SplitMix64};
use tinman_tenant::rotation_cost;
use tinman_vault::catch_up_within;

use crate::failure::{backoff_delay, degraded_link, FleetError, NodeHealth};
use crate::hostile::{build_hostile_world, fleet_policy, GuardSchedule};
use crate::membership::{MembershipSchedule, MembershipState};
use crate::pool::{CapacityPermit, NodePool, NodeShard};
use crate::region::RegionMap;
use crate::report::FleetReport;
use crate::retry::{migration_policy, RetryBudget};
use crate::sched::{run_worker_pool, FleetObs};
use crate::session::{
    base_link, build_session_world_net, expect_success, session_inputs, SessionNet, SessionOutcome,
    SessionWorld,
};
use crate::spec::{build_session_specs, FleetConfig, SessionSpec};
use crate::tenancy::TenantSchedule;
use crate::vault_audit::{audit_session_vault, audit_session_vault_sealed};

/// Translates a session's projected faults into the hermetic world's own
/// hooks. The DSM fault is installed even when inert (no windows): that
/// keeps checkpoint recording on for every chaos session, so traced and
/// untraced runs see identical replay credits.
pub fn apply_session_faults(rt: &mut TinmanRuntime, faults: &SessionFaults) {
    let at = |d: SimDuration| SimTime::ZERO + d;
    rt.world.set_chaos(NetChaos {
        loss_pct: faults.loss_pct,
        corrupt_pct: faults.corrupt_pct,
        extra_delay: faults.delay,
        flap: faults.flap.map(|(from, until)| (at(from), at(until))),
        partitions: if faults.partitioned {
            vec![(rt.phone_host(), rt.node_host())]
        } else {
            Vec::new()
        },
        seed: faults.dice_seed,
    });
    // Routed-internet faults. Router/NAT/DNS arming is gated on the world
    // actually having a topology — arming them would otherwise *create*
    // one (`topo_mut` auto-enables), silently changing a flat session.
    if rt.world.topology_enabled() {
        if !faults.router_outages.is_empty() {
            rt.world.set_all_router_outages(
                faults.router_outages.iter().map(|&(f, u)| (at(f), at(u))).collect(),
            );
        }
        for &flush in &faults.nat_flushes {
            rt.world.schedule_nat_flush(at(flush));
        }
        if !faults.dns_outages.is_empty() {
            rt.world
                .set_dns_outages(faults.dns_outages.iter().map(|&(f, u)| (at(f), at(u))).collect());
        }
    }
    // Handoffs are meaningful on any world (they swap the radio profile);
    // on a routed world they additionally rebind the NAT.
    for h in &faults.handoffs {
        let link = if h.to_3g { LinkProfile::three_g() } else { LinkProfile::wifi() };
        rt.world.schedule_handoff(
            rt.phone_host(),
            Handoff { at: at(h.at), link, blackout: h.blackout, rebind_nat: true, to_subnet: None },
        );
    }
    let mut windows: Vec<(SimTime, SimTime)> = Vec::new();
    if let Some(crash) = faults.crash {
        windows.push((at(crash), SimTime::MAX));
    }
    for &(from, until) in &faults.sync_windows {
        windows.push((at(from), at(until)));
    }
    // A handoff blackout also blinds the DSM channel (DSM bytes ride the
    // same radio, but its transfers are charged outside `NetWorld`), so
    // each blackout is projected into a sync-timeout window: a sync that
    // lands inside it times out and the runtime's bounded re-sync retry
    // must carry the session across or fail it closed.
    for h in &faults.handoffs {
        if h.blackout > SimDuration::ZERO {
            windows.push((at(h.at), at(h.at + h.blackout)));
        }
    }
    rt.set_dsm_fault(SyncFault { windows });
}

/// One `chaos_inject` event per armed fault kind, on the session's track.
fn emit_fault_events(
    faults: &SessionFaults,
    node: usize,
    session: u64,
    penalty: SimDuration,
    obs: &FleetObs,
) {
    let armed = [
        faults.crash.map(|_| "crash"),
        faults.partitioned.then_some("partition"),
        (!faults.sync_windows.is_empty()).then_some("sync_timeout"),
        (faults.loss_pct > 0).then_some("packet_loss"),
        (faults.corrupt_pct > 0).then_some("packet_corrupt"),
        (faults.delay > SimDuration::ZERO).then_some("packet_delay"),
        faults.flap.map(|_| "link_flap"),
        faults.vault_crash.map(|kind| match kind {
            VaultCrashKind::MidCommit => "vault_mid_commit",
            VaultCrashKind::TornTail => "vault_torn_tail",
            VaultCrashKind::Compaction => "vault_compaction",
        }),
        (faults.replica_lag > 0).then_some("replica_lag"),
        (!faults.router_outages.is_empty()).then_some("router_crash"),
        (!faults.nat_flushes.is_empty()).then_some("nat_table_flush"),
        (!faults.dns_outages.is_empty()).then_some("dns_outage"),
        (!faults.handoffs.is_empty()).then_some("handoff_storm"),
    ];
    let t = SimTime::ZERO + penalty;
    for kind in armed.into_iter().flatten() {
        obs.trace.emit_on(session, t, TraceEvent::ChaosInject { kind, node: node as u64, session });
    }
}

/// Everything a fleet run derives from its config and chaos plan before
/// any session runs, built once per run and shared read-only by every
/// worker. Each part is a pure replay on the session-id axis, so what a
/// session meets never depends on worker interleaving.
pub struct FleetSchedule {
    /// The fault plan (empty for a clean fleet).
    plan: ChaosPlan,
    /// Per-node circuit-breaker views.
    breaker: BreakerSchedule,
    /// Guard arming and load-shedding verdicts.
    guard: GuardSchedule,
    /// Tenant policy verdicts, attestation, and key epochs.
    tenancy: TenantSchedule,
    /// The region map and every node's membership state.
    membership: MembershipSchedule,
}

impl FleetSchedule {
    /// Validates `plan` against the (post-clamp) pool and precomputes
    /// every schedule `specs` will consult.
    pub fn build(
        cfg: &FleetConfig,
        pool: &NodePool,
        plan: &ChaosPlan,
        specs: &[SessionSpec],
    ) -> Result<FleetSchedule, FleetError> {
        plan.validate(pool.len())?;
        let regions = RegionMap::new(cfg.regions, pool.len())?;
        Ok(FleetSchedule {
            breaker: BreakerSchedule::build(plan, pool.len(), cfg.sessions as u64),
            guard: GuardSchedule::build(cfg, pool, regions, plan, specs),
            tenancy: TenantSchedule::build(cfg, pool.len(), plan, specs),
            membership: MembershipSchedule::build(plan, pool.len(), regions)?,
            plan: plan.clone(),
        })
    }

    /// Replays the breaker and membership transitions into the trace,
    /// stamped on the session-id axis they happen on.
    fn emit_transitions(&self, nodes: usize, sessions: u64, obs: &FleetObs) {
        for node in 0..nodes {
            for (session, from, to) in self.breaker.transitions(node) {
                obs.trace.emit_on(
                    session,
                    SimTime::ZERO,
                    TraceEvent::BreakerTransition {
                        node: node as u64,
                        session,
                        from: from.as_str(),
                        to: to.as_str(),
                    },
                );
            }
        }
        if !self.membership.has_events() {
            return;
        }
        for node in 0..nodes {
            let mut prev = MembershipState::Serving;
            for session in 0..sessions {
                let state = self.membership.state_at(node, session);
                if state != prev {
                    obs.trace.emit_on(
                        session,
                        SimTime::ZERO,
                        TraceEvent::MembershipTransition {
                            node: node as u64,
                            session,
                            from: prev.as_str(),
                            to: state.as_str(),
                        },
                    );
                    prev = state;
                }
            }
        }
    }
}

/// Why a session failed closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FailReason {
    /// Guard admission shed the session before any attempt.
    Overloaded,
    /// The tenant declassification policy refused the session's flow.
    PolicyDenied,
    /// The guard killed the guest for exhausting a budget.
    GuestKilled,
    /// A lagging vault replica could not catch up inside the deadline.
    StaleReplica,
    /// A compromised tenant key could not afford its forced re-seal.
    RevokedKey,
    /// Checkpointed off a draining or dying node, with no admissible
    /// peer inside the deadline.
    NoRegion,
    /// The penalty deadline ran out.
    Deadline,
    /// Every replica the session reached failed attestation; it never ran.
    Unattested,
    /// Every placement attempt failed.
    AttemptsExhausted,
}

impl FailReason {
    /// The stable name the `fail_closed` trace event carries.
    fn as_str(self) -> &'static str {
        match self {
            FailReason::Overloaded => "overloaded",
            FailReason::PolicyDenied => "policy_denied",
            FailReason::GuestKilled => "guest_killed",
            FailReason::StaleReplica => "stale_replica",
            FailReason::RevokedKey => "revoked_key",
            FailReason::NoRegion => "no_region",
            FailReason::Deadline => "deadline",
            FailReason::Unattested => "unattested",
            FailReason::AttemptsExhausted => "attempts_exhausted",
        }
    }
}

/// Cor bytes of `world`'s secrets on one surface (the device or the node
/// heap); `hits` scans for a single secret.
fn residue(world: &SessionWorld, hits: impl Fn(&TinmanRuntime, &str) -> usize) -> u64 {
    world.secrets.iter().map(|secret| hits(&world.rt, secret) as u64).sum()
}

/// A node that passed the gate stage.
struct Slot<'p> {
    node: usize,
    shard: &'p NodeShard,
    /// The node's membership state at this session id.
    mstate: MembershipState,
    /// This is the session the node dies under mid-offload.
    dying: bool,
}

/// One placement the prepare stage built and armed, holding its node's
/// admission permit until the attempt settles.
struct Attempt<'p> {
    slot: Slot<'p>,
    world: SessionWorld,
    faults: SessionFaults,
    _permit: CapacityPermit<'p>,
}

/// One session's walk through its placement order: what it reads, and
/// the state its stages carry from attempt to attempt.
struct SessionRun<'a> {
    cfg: &'a FleetConfig,
    spec: &'a SessionSpec,
    schedule: &'a FleetSchedule,
    obs: &'a FleetObs,
    out: SessionOutcome,
    /// Simulated time charged before the serving attempt: backoff,
    /// catch-up, re-seal, and what failed attempts burned.
    penalty: SimDuration,
    /// Session time already covered by completed DSM syncs on a failed
    /// attempt — the replay resumes from this boundary.
    credit: SimDuration,
    ran_before: bool,
    ledger: DeliveryLedger,
    /// (source node, wire bytes) of a shipped checkpoint waiting to
    /// resume on the next admissible peer.
    pending_migration: Option<(usize, u64)>,
}

impl SessionRun<'_> {
    /// The driver: admit, then walk the placement order through gate →
    /// prepare → run + audit → settle until an attempt serves. Every
    /// fail-closed reason comes back as the `Err` of the stage that
    /// decided it.
    fn drive(&mut self, pool: &NodePool) -> Result<(), FailReason> {
        // Region-salted placement: home-region nodes first, then foreign
        // regions in rotation. Identity order on a flat fleet.
        let order = self.schedule.membership.regions().order(pool, self.spec.placement_key());
        self.admit(order[0])?;
        for (i, &node) in order.iter().take(self.cfg.max_attempts as usize).enumerate() {
            if self.penalty > self.schedule.plan.deadline {
                return Err(self.or_no_region(FailReason::Deadline));
            }
            self.out.attempts += 1;
            self.obs.metrics.incr("fleet.attempts");
            if i > 0 {
                self.obs.metrics.incr("fleet.failovers");
            }
            let attempt = match self.gate(pool, node, i) {
                Some(slot) => self.prepare(slot)?,
                None => None,
            };
            let Some(mut attempt) = attempt else {
                self.fail_over(node, i, backoff_delay(self.cfg.backoff, i as u32));
                continue;
            };
            let run = self.run_and_audit(&mut attempt);
            if self.settle(run, &mut attempt, i)? {
                return Ok(());
            }
        }
        let reason = if self.out.unattested_refusals > 0 && !self.ran_before {
            FailReason::Unattested
        } else {
            FailReason::AttemptsExhausted
        };
        Err(self.or_no_region(reason))
    }

    /// Closes the session as a placeholder-only failure after `penalty`
    /// of simulated time, counting and tracing `reason`.
    fn fail_closed(mut self, reason: FailReason) -> SessionOutcome {
        let (obs, id) = (self.obs, self.spec.id);
        obs.metrics.incr("chaos.fail_closed");
        obs.trace.emit_on(
            id,
            SimTime::ZERO + self.penalty,
            TraceEvent::FailClosed { session: id, reason: reason.as_str() },
        );
        if reason == FailReason::NoRegion {
            self.out.no_region = true;
            obs.metrics.incr("fleet.region.no_region_kills");
        }
        self.out.fail_closed = true;
        self.out.latency = self.penalty;
        self.out
    }

    /// A session that migrated but found no peer is a failed region
    /// evacuation, which outranks a deadline or running out of
    /// placements. (`guest_killed`, `stale_replica` and `revoked_key`
    /// outrank it in turn: their stages return them directly.)
    fn or_no_region(&self, reason: FailReason) -> FailReason {
        if self.out.migrations > 0 {
            FailReason::NoRegion
        } else {
            reason
        }
    }

    /// Charges a skipped or failed placement its backoff `delay` and
    /// traces the failover.
    fn fail_over(&mut self, node: usize, i: usize, delay: SimDuration) {
        self.penalty += delay;
        self.obs.metrics.add("fleet.backoff_ns", delay.as_nanos());
        let (session, t, attempt) = (self.spec.id, SimTime::ZERO + self.penalty, i as u32);
        self.obs.trace.emit_on(
            session,
            t,
            TraceEvent::FleetFailover { session, node: node as u64, attempt },
        );
        self.obs.trace.emit_on(
            session,
            t,
            TraceEvent::FleetBackoff { session, attempt, delay_ns: delay.as_nanos() },
        );
    }

    /// Admit stage, before any placement. Load shedding: when the guard
    /// schedule says this session's budget reservation does not fit its
    /// `first` placement, it is shed. Tenant policy: a session the engine
    /// refused fails closed, so its cors never leave the device toward
    /// the denied domain.
    fn admit(&mut self, first: usize) -> Result<(), FailReason> {
        let (spec, obs) = (self.spec, self.obs);
        if self.schedule.guard.shed(spec.id) {
            obs.metrics.incr("guard.sheds");
            obs.trace.emit_on(
                spec.id,
                SimTime::ZERO,
                TraceEvent::SessionShed {
                    session: spec.id,
                    node: first as u64,
                    reason: FailReason::Overloaded.as_str(),
                },
            );
            self.out.shed = true;
            return Err(FailReason::Overloaded);
        }
        if let Some(reason) = self.schedule.tenancy.denial(spec.id) {
            obs.metrics.incr("tenant.policy_denials");
            obs.trace.emit_on(
                spec.id,
                SimTime::ZERO,
                TraceEvent::TenantPolicyDecision {
                    session: spec.id,
                    tenant: spec.tenant,
                    allowed: false,
                    reason,
                },
            );
            self.out.policy_denials = 1;
            return Err(FailReason::PolicyDenied);
        }
        Ok(())
    }

    /// Gate stage: `None` skips a vanished shard, an Open breaker, a
    /// `Down` node, a membership state that admits nothing, and (tenancy
    /// on) a node that cannot attest the full four-class taint engine. A
    /// node that fell over still runs the session in flight on it
    /// (`in_flight_death`), which then migrates from its checkpoint.
    fn gate<'p>(&mut self, pool: &'p NodePool, node: usize, i: usize) -> Option<Slot<'p>> {
        let FleetSchedule { breaker, tenancy, membership, .. } = self.schedule;
        let (spec, obs) = (self.spec, self.obs);
        let shard = pool.try_shard(node).ok()?;
        if breaker.view(node, spec.id) == BreakerState::Open {
            obs.metrics.incr("chaos.breaker_skips");
            return None;
        }
        if !shard.health().can_serve() {
            return None;
        }
        let mstate = membership.state_at(node, spec.id);
        let dying = membership.in_flight_death(node, spec.id);
        if !mstate.can_start() && !dying {
            obs.metrics.incr("fleet.region.membership_skips");
            return None;
        }
        if tenancy.enabled() && !tenancy.attested(node) {
            self.out.unattested_refusals += 1;
            obs.metrics.incr("tenant.unattested_refusals");
            let at = SimTime::ZERO + self.penalty + backoff_delay(self.cfg.backoff, i as u32);
            obs.trace.emit_on(
                spec.id,
                at,
                TraceEvent::AttestationRefused {
                    session: spec.id,
                    tenant: spec.tenant,
                    node: node as u64,
                },
            );
            return None;
        }
        Some(Slot { node, shard, mstate, dying })
    }

    /// Prepare stage: takes the node's admission permit, builds the
    /// session world (`Ok(None)` skips a node whose world will not
    /// build), and arms it — guard, vault and rejoin catch-up, drain,
    /// key rotation, and the projected faults.
    fn prepare<'p>(&mut self, slot: Slot<'p>) -> Result<Option<Attempt<'p>>, FailReason> {
        let (cfg, spec, obs) = (self.cfg, self.spec, self.obs);
        let FleetSchedule { plan, guard, .. } = self.schedule;
        let node = slot.node;
        let faults = session_faults(plan, node, spec.id, spec.seed);
        let base = base_link(spec.link);
        let link =
            if slot.shard.health() == NodeHealth::Degraded { degraded_link(&base) } else { base };
        if obs.trace.is_enabled() {
            obs.trace.emit_on(
                spec.id,
                SimTime::ZERO + self.penalty,
                TraceEvent::FleetPlacement { session: spec.id, node: node as u64 },
            );
            emit_fault_events(&faults, node, spec.id, self.penalty, obs);
        }
        // Admission control: wall-clock flow only, no simulated effect.
        let permit = slot.shard.acquire();
        let labels = (slot.shard.label_start, slot.shard.label_end);
        // Routed sessions get bounded re-sync retries: a handoff
        // blackout mid-offload must be survivable, and exhaustion
        // fails closed as a guest kill. Flat sessions surface a sync
        // timeout immediately.
        let net =
            SessionNet { topology: cfg.topology, resync_retries: if cfg.topology { 3 } else { 0 } };
        let built = match faults.hostile_guest {
            Some(kind) => build_hostile_world(spec, kind, labels, link, &obs.trace),
            None => build_session_world_net(spec, labels, link, &obs.trace, net),
        };
        let Ok(mut world) = built else {
            return Ok(None);
        };
        // On a hostile run every session — benign or not — executes under
        // the guard; hostile worlds arm it themselves.
        if guard.armed() && faults.hostile_guest.is_none() {
            world.rt.set_guard(fleet_policy());
        }
        // Cor-aware failover: a lagging vault replica must cover the
        // session's cor writes (one LSN per secret) before it serves, and
        // so must a node rejoining after an outage or upgrade — up to the
        // acked watermark.
        let lsns = world.secrets.len() as u64;
        let missing = faults.replica_lag.min(lsns);
        if missing > 0 {
            self.catch_up(node, missing, "vault.catch_ups")?;
        }
        if slot.mstate == MembershipState::CatchingUp {
            self.catch_up(node, lsns, "fleet.region.rejoin_catch_ups")?;
        }
        // A draining node admits the session but checkpoints it at the
        // first DSM sync past a seeded offset (live migration); a node
        // dying mid-outage does the same involuntarily — its "crash"
        // leaves the DSM-checkpointed state behind for the hand-off.
        if slot.mstate == MembershipState::Draining || slot.dying {
            let dice = SplitMix64::new(
                plan.seed ^ spec.seed ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            )
            .next_u64();
            let offset = SimDuration::from_millis(1)
                + SimDuration::from_nanos(dice % SimDuration::from_millis(400).as_nanos());
            world.rt.set_drain_at(SimTime::ZERO + offset, world.secrets.clone());
        }
        self.rotate_key(lsns)?;
        apply_session_faults(&mut world.rt, &faults);
        Ok(Some(Attempt { slot, world, faults, _permit: permit }))
    }

    /// Anti-entropy for `lsns` missing records on `node`, charged against
    /// the remaining deadline and counted under `metric`. When the budget
    /// cannot absorb it the session fails closed: it is never served from
    /// a stale store.
    fn catch_up(&mut self, node: usize, lsns: u64, metric: &str) -> Result<(), FailReason> {
        let obs = self.obs;
        let mut budget = RetryBudget::new(self.schedule.plan.deadline.saturating_sub(self.penalty));
        let Some(cost) = catch_up_within(lsns, &mut budget) else {
            obs.metrics.incr("vault.stale_blocked");
            return Err(FailReason::StaleReplica);
        };
        self.penalty += cost;
        self.out.vault_catchup_lsns += lsns;
        obs.metrics.incr(metric);
        obs.metrics.add("vault.catchup_lsns", lsns);
        obs.trace.emit_on(
            self.spec.id,
            SimTime::ZERO + self.penalty,
            TraceEvent::VaultCatchUp {
                session: self.spec.id,
                node: node as u64,
                lsns,
                cost_ns: cost.as_nanos(),
            },
        );
        Ok(())
    }

    /// Mid-session tenant key rotation: re-sealing this session's `lsns`
    /// vault records under the new epoch is charged against the deadline
    /// and paid once per session. An unaffordable re-seal fails closed —
    /// `revoked_key` if a key compromise forced the rotation (nothing may
    /// be served under the revoked epoch), a plain deadline otherwise.
    fn rotate_key(&mut self, lsns: u64) -> Result<(), FailReason> {
        let (tf, obs) = (self.schedule.tenancy.faults(self.spec), self.obs);
        if !self.schedule.tenancy.enabled() || !tf.rotates || self.out.tenant_key_rotations > 0 {
            return Ok(());
        }
        let cost = rotation_cost(lsns);
        if self.penalty + cost > self.schedule.plan.deadline {
            if tf.compromised {
                obs.metrics.incr("tenant.revoked_blocked");
                return Err(FailReason::RevokedKey);
            }
            return Err(self.or_no_region(FailReason::Deadline));
        }
        self.out.tenant_key_rotations = 1;
        self.penalty += cost;
        obs.metrics.incr("tenant.key_rotations");
        obs.trace.emit_on(
            self.spec.id,
            SimTime::ZERO + self.penalty,
            TraceEvent::TenantKeyRotation {
                session: self.spec.id,
                tenant: self.spec.tenant,
                epoch: u64::from(tf.epoch),
                forced: tf.compromised,
            },
        );
        Ok(())
    }

    /// Run + audit stage: resumes a shipped checkpoint or replays a failed
    /// attempt, runs the guest, and records what the attempt did —
    /// including the device residue scan, on *every* attempt.
    fn run_and_audit(&mut self, attempt: &mut Attempt<'_>) -> Result<RunReport, RuntimeError> {
        let (spec, obs) = (self.spec, self.obs);
        let node = attempt.slot.node;
        let at = SimTime::ZERO + self.penalty;
        if let Some((from_node, bytes)) = self.pending_migration.take() {
            obs.metrics.incr("fleet.region.migrations_resumed");
            obs.trace.emit_on(
                spec.id,
                at,
                TraceEvent::Migration {
                    session: spec.id,
                    from_node: from_node as u64,
                    to_node: node as u64,
                    bytes,
                    resume_ns: self.credit.as_nanos(),
                },
            );
        }
        if self.ran_before {
            self.out.replays += 1;
            obs.metrics.incr("chaos.replays");
            obs.trace.emit_on(
                spec.id,
                at,
                TraceEvent::SessionReplay {
                    session: spec.id,
                    node: node as u64,
                    attempt: self.out.attempts,
                    resume_ns: self.credit.as_nanos(),
                },
            );
        }
        self.ran_before = true;
        let world = &mut attempt.world;
        let run = world.rt.run_app(&world.app, Mode::TinMan, &session_inputs());
        // Topology availability columns: what the wire actually did this
        // attempt (all zero on flat worlds).
        let topo = world.rt.world.topology_stats();
        self.out.handoffs += topo.handoffs;
        self.out.nat_rewrites += topo.nat_rewrites;
        self.out.nat_rebinds += topo.nat_rebinds;
        self.out.dns_faults += topo.dns_failures;
        self.out.route_drops += topo.route_drops + topo.firewall_drops;
        if world.rt.world.topology_enabled() {
            obs.metrics.add("net.handoff.count", topo.handoffs);
            obs.metrics.add("net.topology.nat_rewrites", topo.nat_rewrites);
            obs.metrics.add("net.topology.dns_failures", topo.dns_failures);
            obs.metrics.add("net.topology.route_drops", topo.route_drops + topo.firewall_drops);
        }
        // Exactly-once accounting: the k-th payload replacement of a
        // deterministic session is byte-identical on every replay, so the
        // origin's (session, seq) dedup reduces to prefix bookkeeping.
        let (_, suppressed) = self.ledger.record_attempt(world.rt.world.injected_count());
        self.out.deliveries = self.ledger.unique();
        self.out.duplicate_deliveries = self.ledger.suppressed();
        if suppressed > 0 {
            obs.metrics.add("chaos.dedup_suppressed", suppressed);
            obs.trace.emit_on(
                spec.id,
                at,
                TraceEvent::DeliveryDedup { session: spec.id, duplicates: suppressed },
            );
        }
        self.count_residue(residue(world, |rt, secret| rt.scan_residue(secret).len()));
        // A killed guest's teardown discards its cor writes with its
        // scrubbed heap: nothing durable survives the kill to audit.
        if !matches!(&run, Err(RuntimeError::GuestKilled { .. })) {
            self.audit_vault(attempt);
        }
        run
    }

    /// Counts cor bytes found where they must never be.
    fn count_residue(&mut self, hits: u64) {
        if hits > 0 {
            self.out.residue_violations += hits;
            self.obs.metrics.add("chaos.residue_violations", hits);
        }
    }

    /// Durability audit: replay the node's cor writes through a real WAL,
    /// inject the projected crash, recover, and byte-compare against the
    /// committed-prefix reference. With tenancy on the log is sealed
    /// under the owning tenant's current-epoch WAL key, and the foreign
    /// keyring doubles as the cross-tenant residue probe.
    fn audit_vault(&mut self, attempt: &Attempt<'_>) {
        let (spec, obs, tenancy) = (self.spec, self.obs, &self.schedule.tenancy);
        let Attempt { world, faults, .. } = attempt;
        let audit = if tenancy.enabled() {
            let seal = tenancy.seal_context(spec, tenancy.faults(spec).epoch);
            audit_session_vault_sealed(
                &world.rt,
                &world.secrets,
                faults.vault_crash,
                faults.dice_seed,
                &seal,
            )
        } else {
            audit_session_vault(&world.rt, &world.secrets, faults.vault_crash, faults.dice_seed)
        };
        self.out.vault_recoveries += audit.recoveries;
        self.out.torn_tail_repairs += audit.torn_repairs;
        self.out.lost_cors += audit.lost_cors;
        self.out.wal_plaintexts += audit.wal_plaintexts;
        self.out.wal_device_leaks += audit.wal_device_leaks;
        self.out.cross_tenant_residue += audit.cross_tenant_hits;
        obs.metrics.add("tenant.cross_tenant_residue", audit.cross_tenant_hits);
        obs.metrics.add("vault.recoveries", audit.recoveries);
        obs.metrics.add("vault.torn_repairs", audit.torn_repairs);
        obs.metrics.add("vault.lost_cors", audit.lost_cors);
        obs.metrics.add("vault.appends", audit.appends);
        obs.metrics.add("vault.fsyncs", audit.fsyncs);
        obs.metrics.add("vault.wal_device_leaks", audit.wal_device_leaks);
        obs.trace.emit_on(
            spec.id,
            SimTime::ZERO + self.penalty,
            TraceEvent::VaultRecovery {
                session: spec.id,
                node: attempt.slot.node as u64,
                applied_lsn: audit.applied_lsn,
                torn_repaired: audit.torn_repairs > 0,
                duplicates: audit.duplicates,
            },
        );
    }

    /// Settle stage: serves a completed attempt (`Ok(true)`), or turns a
    /// failed one into a guard kill, a live migration, or a retry on the
    /// next replica (`Ok(false)`).
    fn settle(
        &mut self,
        run: Result<RunReport, RuntimeError>,
        attempt: &mut Attempt<'_>,
        i: usize,
    ) -> Result<bool, FailReason> {
        let (spec, obs) = (self.spec, self.obs);
        let (node, world) = (attempt.slot.node, &attempt.world);
        match run {
            Ok(report) if expect_success(&report, world.workload).is_ok() => {
                // The replay re-simulated the checkpointed prefix; credit
                // it back so latency reflects resume-from-checkpoint.
                let effective = self.penalty + (report.latency - self.credit);
                obs.metrics.observe("fleet.session_latency_ns", effective.as_nanos());
                if self.out.attempts > 1 {
                    obs.metrics.incr("chaos.success_after_retry");
                }
                self.out.serve(node, effective, &report);
                // Served outside the home region: a region failover.
                let regions = self.schedule.membership.regions();
                if !regions.flat()
                    && regions.region_of(node) != regions.home_region(spec.placement_key())
                {
                    self.out.region_failovers = 1;
                    obs.metrics.incr("fleet.region.failovers");
                }
                return Ok(true);
            }
            Err(RuntimeError::GuestKilled { reason }) => {
                // A guard kill is deterministic: replaying the same guest
                // on a replica dies the same way, so the kill is terminal.
                // The watchdog scrubbed the node heap before returning;
                // verify, counting any surviving cor bytes as violations.
                self.out.guest_kill = Some(reason);
                obs.metrics.incr("guard.kills");
                obs.metrics.incr(reason.budget().1);
                self.count_residue(residue(world, |rt, secret| rt.scan_node_residue(secret).len()));
                self.penalty += world.rt.clock().now().since(SimTime::ZERO);
                return Err(FailReason::GuestKilled);
            }
            Err(RuntimeError::NodeDraining { .. }) => self.migrate(attempt, i),
            other => {
                if matches!(&other, Err(RuntimeError::Dsm(DsmError::SyncTimeout { .. }))) {
                    obs.metrics.incr("chaos.crashes");
                }
                // Where the attempt died on its own timeline: that much
                // simulated time was genuinely burned.
                self.penalty += world.rt.clock().now().since(SimTime::ZERO);
                if let Some(cp) = world.rt.dsm_checkpoint() {
                    self.credit = self.credit.max(cp.since(SimTime::ZERO));
                }
                self.fail_over(node, i, backoff_delay(self.cfg.backoff, i as u32));
            }
        }
        Ok(false)
    }

    /// Live migration: the node checkpointed the guest at a DSM sync point
    /// and scrubbed its heap. Audit the scrub receipt and re-scan the node
    /// (residue is counted, never assumed zero), decode the checkpoint
    /// (one that does not decode is abandoned), and carry its instant as
    /// the replay credit for the next admissible peer. Shipping it pays
    /// the seeded migration backoff against the same deadline as every
    /// retry.
    fn migrate(&mut self, attempt: &mut Attempt<'_>, i: usize) {
        let (cfg, spec, obs) = (self.cfg, self.spec, self.obs);
        let (node, world) = (attempt.slot.node, &mut attempt.world);
        self.out.migrations += 1;
        obs.metrics.incr("fleet.region.migrations");
        if attempt.slot.mstate == MembershipState::Draining {
            self.out.evacuations += 1;
            obs.metrics.incr("fleet.region.evacuations");
        }
        if let Some(cp) = world.rt.take_node_checkpoint() {
            let hits =
                cp.scrub.residue + residue(world, |rt, secret| rt.scan_node_residue(secret).len());
            if hits > 0 {
                self.out.migration_residue += hits;
                obs.metrics.add("fleet.region.migration_residue", hits);
            }
            match cp.restore() {
                Ok(_) => {
                    self.credit = self.credit.max(cp.taken_at().since(SimTime::ZERO));
                    self.pending_migration = Some((node, cp.wire_bytes()));
                }
                // An unfaithful checkpoint is abandoned: the replay
                // restarts from scratch, never resumes from guesswork.
                Err(_) => obs.metrics.incr("fleet.region.checkpoint_corrupt"),
            }
        }
        self.penalty += world.rt.clock().now().since(SimTime::ZERO);
        let delay =
            migration_policy(cfg.backoff, self.schedule.plan.seed ^ spec.seed.rotate_left(23))
                .delay(self.out.migrations - 1);
        self.fail_over(node, i, delay);
    }
}

/// Runs one session under the schedule's plan through the admit → gate →
/// prepare → run + audit → settle stages described in the
/// [module docs](self), and returns its outcome: served, or failed closed
/// with the reason the deciding stage returned.
pub fn execute_with_chaos(
    cfg: &FleetConfig,
    pool: &NodePool,
    spec: &SessionSpec,
    schedule: &FleetSchedule,
    obs: &FleetObs,
) -> SessionOutcome {
    let mut session = SessionRun {
        cfg,
        spec,
        schedule,
        obs,
        out: SessionOutcome { id: spec.id, ..SessionOutcome::default() },
        penalty: SimDuration::ZERO,
        credit: SimDuration::ZERO,
        ran_before: false,
        ledger: DeliveryLedger::new(),
        pending_migration: None,
    };
    match session.drive(pool) {
        Ok(()) => session.out,
        Err(reason) => session.fail_closed(reason),
    }
}

/// Drives `cfg.sessions` device sessions across `cfg.workers` threads
/// against a fresh node pool under `plan`, and returns the aggregated
/// report. Validates the config's fault plan and `plan` against the
/// (post-clamp) pool before running anything, builds the
/// [`FleetSchedule`] once, runs every session through
/// [`execute_with_chaos`], and folds breaker time-in-state into the
/// per-node rows. Scheduler and session events land in `obs.trace`,
/// counters in `obs.metrics`.
///
/// The report ([`FleetReport::simulated_value`]) is bit-identical for
/// any worker count: every session's result depends only on its spec,
/// the schedule, and its (deterministic) placement; outcomes are
/// re-sorted by session id before aggregation, and the executor never
/// reads the host clock.
pub fn run_fleet_chaos(
    cfg: &FleetConfig,
    plan: &ChaosPlan,
    obs: &FleetObs,
) -> Result<FleetReport, FleetError> {
    let specs = build_session_specs(cfg);
    let pool = NodePool::new(cfg.nodes, cfg.node_capacity, &cfg.faults)?;
    let schedule = FleetSchedule::build(cfg, &pool, plan, &specs)?;
    surface_clamp(&pool, obs);
    if obs.trace.is_enabled() {
        schedule.emit_transitions(pool.len(), cfg.sessions as u64, obs);
    }
    let mut outcomes = run_worker_pool(cfg.workers, &specs, |spec| {
        execute_with_chaos(cfg, &pool, spec, &schedule, obs)
    });
    outcomes.sort_by_key(|o| o.id);
    let mut report = FleetReport::aggregate(&pool, outcomes);
    for (node, row) in report.per_node.iter_mut().enumerate() {
        (row.breaker_closed, row.breaker_open, row.breaker_half_open) =
            schedule.breaker.time_in_state(node);
    }
    Ok(report)
}

/// A fleet run with no injected faults: [`run_fleet_chaos`] under the
/// empty plan, untraced. Every session is still residue-scanned and
/// vault-audited.
pub fn run_fleet(cfg: &FleetConfig) -> Result<FleetReport, FleetError> {
    run_fleet_chaos(cfg, &ChaosPlan::empty(), &FleetObs::default())
}

/// Surfaces a clamped pool build: stderr warning, `fleet.pool_clamped`
/// counter, and a `pool_clamp` trace event.
fn surface_clamp(pool: &NodePool, obs: &FleetObs) {
    if !pool.was_clamped() {
        return;
    }
    eprintln!(
        "tinman-fleet: requested {} nodes but the label space only supports {}; \
         running with {} shards",
        pool.requested_nodes(),
        NodePool::max_nodes(),
        pool.len()
    );
    obs.metrics.incr("fleet.pool_clamped");
    obs.trace.emit_on(
        0,
        SimTime::ZERO,
        TraceEvent::PoolClamp {
            requested: pool.requested_nodes() as u64,
            effective: pool.len() as u64,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FaultPlan;
    use tinman_chaos::ChaosEvent;
    use tinman_obs::{MetricsRegistry, TraceHandle};

    fn chaos_cfg(sessions: usize, nodes: usize) -> FleetConfig {
        let mut cfg = FleetConfig::new(sessions, 2);
        cfg.nodes = nodes;
        cfg
    }

    fn node0_down(sessions: usize, workers: usize) -> FleetConfig {
        let mut cfg = FleetConfig::new(sessions, workers);
        cfg.nodes = 2;
        cfg.faults = FaultPlan { down_nodes: vec![0], slow_nodes: vec![] };
        cfg
    }

    #[test]
    fn small_fleet_completes_every_session() {
        let report = run_fleet(&FleetConfig::new(12, 4)).expect("fleet runs");
        assert_eq!(report.sessions, 12);
        assert_eq!(report.ok, 12, "all sessions succeed on a healthy pool");
        assert_eq!(report.failovers, 0);
        assert!(report.offloads >= 12, "every workload offloads at least once");
        assert_eq!(report.outcomes.len(), 12);
        assert!(report.outcomes.windows(2).all(|w| w[0].id < w[1].id), "sorted by id");
    }

    #[test]
    fn clean_fleet_carries_audit_evidence() {
        // The empty plan runs the same residue scans and vault audits as
        // any chaos plan: the zero leak columns are measured.
        let report = run_fleet(&chaos_cfg(6, 2)).expect("runs");
        assert_eq!(report.ok, report.sessions);
        assert_eq!(report.vault_recoveries, report.sessions, "one audit per attempt");
        assert_eq!(report.violations(), []);
        assert_eq!(report.replays, 0);
        assert_eq!(report.duplicate_deliveries, 0);
        assert!(report.deliveries > 0, "payload replacements happen and are counted");
    }

    #[test]
    fn down_primary_fails_over_to_replica() {
        let cfg = node0_down(6, 2);
        let report = run_fleet(&cfg).expect("fleet runs");
        assert_eq!(report.ok, 6, "replica absorbs the downed node's sessions");
        let served_by_down = report.outcomes.iter().filter(|o| o.node == Some(0)).count();
        assert_eq!(served_by_down, 0, "nothing runs on the downed node");
        assert!(report.failovers > 0, "some primaries were down");
        // Failed-over sessions carry the simulated backoff penalty.
        let penalized = report.outcomes.iter().find(|o| o.attempts > 1).expect("a failover");
        assert!(penalized.latency >= cfg.backoff);
    }

    #[test]
    fn all_nodes_down_reports_failures_not_panics() {
        let mut cfg = node0_down(3, 2);
        cfg.faults.down_nodes = vec![0, 1];
        let report = run_fleet(&cfg).expect("fleet runs");
        assert_eq!(report.ok, 0);
        assert_eq!(report.fail_closed, 3);
        assert!(report.outcomes.iter().all(|o| !o.success && o.node.is_none()));
    }

    #[test]
    fn registry_and_outcomes_agree() {
        let obs = FleetObs::default();
        let report = run_fleet_chaos(&node0_down(6, 2), &ChaosPlan::empty(), &obs).expect("runs");
        let attempts: u64 = report.outcomes.iter().map(|o| u64::from(o.attempts)).sum();
        let failovers: u64 = report.outcomes.iter().map(|o| u64::from(o.attempts) - 1).sum();
        assert_eq!(report.attempts, attempts, "registry delta == outcome-derived attempts");
        assert_eq!(report.failovers, failovers, "registry delta == outcome-derived failovers");
        assert_eq!(report.attempts, obs.metrics.get("fleet.attempts"));
        assert!(report.failovers > 0, "the downed primary forces failovers");
    }

    #[test]
    fn fleet_trace_records_placements_and_failovers() {
        let (handle, sink) = TraceHandle::ring(4096);
        let obs = FleetObs { trace: handle, metrics: MetricsRegistry::default() };
        let report = run_fleet_chaos(&node0_down(4, 1), &ChaosPlan::empty(), &obs).expect("runs");
        assert_eq!(report.ok, 4);
        let records = sink.snapshot();
        let count = |name: &str| records.iter().filter(|r| r.event.name() == name).count() as u64;
        assert_eq!(count("fleet_placement"), report.ok);
        assert_eq!(count("fleet_failover"), report.failovers);
        assert_eq!(count("fleet_backoff"), report.failovers);
        assert!(
            records.iter().any(|r| r.event.name() == "offload_trigger"),
            "session runtime events share the fleet sink"
        );
    }

    #[test]
    fn degraded_node_still_serves_but_slower() {
        let mut base = FleetConfig::new(4, 2);
        base.nodes = 1;
        let healthy = run_fleet(&base).expect("fleet runs");

        let mut slow = base.clone();
        slow.faults = FaultPlan { down_nodes: vec![], slow_nodes: vec![0] };
        let degraded = run_fleet(&slow).expect("fleet runs");

        assert_eq!(degraded.ok, 4);
        assert!(
            degraded.latency.mean > healthy.latency.mean,
            "degraded link must cost simulated time: {:?} vs {:?}",
            degraded.latency.mean,
            healthy.latency.mean
        );
    }

    #[test]
    fn bad_plan_is_rejected_before_running() {
        let cfg = chaos_cfg(2, 2);
        let mut plan = ChaosPlan::empty();
        plan.events =
            vec![ChaosEvent::NodeCrash { node: 9, at: SimDuration::ZERO, from_session: 0 }];
        let err = run_fleet_chaos(&cfg, &plan, &FleetObs::default()).unwrap_err();
        assert!(matches!(err, FleetError::ChaosPlan(_)));
        let mut cfg_bad = chaos_cfg(2, 2);
        cfg_bad.faults.down_nodes = vec![5];
        let err = run_fleet_chaos(&cfg_bad, &ChaosPlan::empty(), &FleetObs::default()).unwrap_err();
        assert!(matches!(err, FleetError::FaultPlan(_)));
    }

    #[test]
    fn hostile_plan_kills_sheds_and_stays_clean() {
        let cfg = chaos_cfg(8, 2);
        let plan = ChaosPlan::canned("hostile-guest").expect("canned plan");
        let report = run_fleet_chaos(&cfg, &plan, &FleetObs::default()).expect("runs");
        assert!(report.guest_kills > 0, "hostile guests are killed");
        assert!(report.shed_sessions > 0, "full-ceiling asks overflow node headroom");
        assert_eq!(report.ok, 0, "every session in an all-hostile plan fails");
        assert_eq!(report.violations(), [], "kills scrub node heaps and land in one budget");
        assert_eq!(report.wal_plaintexts, 0, "killed sessions leave nothing durable");
        assert!(report.outcomes.iter().all(|o| o.guest_kill.is_some() ^ o.shed));
    }

    #[test]
    fn nat_traversal_plan_completes_or_fails_closed() {
        // Router crash + NAT table flush + DNS outage: every session
        // either completes (payload replacement traversing the rewritten
        // path) or fails closed — never a leak, never residue.
        let mut cfg = chaos_cfg(8, 2);
        cfg.topology = true;
        let plan = ChaosPlan::canned("nat-traversal").expect("canned plan");
        let report = run_fleet_chaos(&cfg, &plan, &FleetObs::default()).expect("runs");
        assert!(report.nat_rewrites > 0, "phone traffic traverses the NAT gateway");
        assert!(report.dns_faults > 0, "the brownout tail meets the dead resolver");
        assert_eq!(report.violations(), []);
    }

    #[test]
    fn flat_fleet_ignores_topology_faults_and_reports_zero_columns() {
        // Without `topology`, router/NAT/DNS families are inert and the
        // availability columns stay zero — the flat report is unchanged.
        let cfg = chaos_cfg(6, 2);
        let plan = ChaosPlan::canned("nat-traversal").expect("canned plan");
        let report = run_fleet_chaos(&cfg, &plan, &FleetObs::default()).expect("runs");
        let clean = run_fleet(&cfg).expect("runs");
        assert_eq!(report.handoffs, 0);
        assert_eq!(report.nat_rewrites, 0);
        assert_eq!(report.nat_rebinds, 0);
        assert_eq!(report.dns_faults, 0);
        assert_eq!(report.route_drops, 0);
        assert_eq!(report.ok, clean.ok, "flat fleets are untouched by topology families");
    }

    #[test]
    fn joined_plan_layers_a_handoff_storm_onto_another_plan() {
        let mut cfg = chaos_cfg(4, 2);
        cfg.topology = true;
        let plan = ChaosPlan::canned("crash-primary+handoff").expect("canned plans join");
        let report = run_fleet_chaos(&cfg, &plan, &FleetObs::default()).expect("runs");
        assert!(report.handoffs > 0, "the joined storm fires");
        assert_eq!(report.violations(), []);
    }

    #[test]
    fn standing_drain_live_migrates_and_stays_clean() {
        let plan = ChaosPlan::canned("drain").expect("canned plan");
        let report = run_fleet_chaos(&chaos_cfg(8, 2), &plan, &FleetObs::default()).expect("runs");
        assert!(report.migrations > 0, "draining node 0 checkpoints in-flight guests");
        assert!(report.evacuations > 0, "a planned drain counts as evacuation");
        assert_eq!(report.violations(), [], "source heaps scrub clean on hand-off");
        assert!(report.ok > 0, "migrated sessions resume and complete on the peer");
    }

    #[test]
    fn partitioned_pool_fails_closed_without_leaks() {
        let cfg = chaos_cfg(4, 2);
        let mut plan = ChaosPlan::empty();
        plan.events = (0..2)
            .map(|node| ChaosEvent::Partition { node, from_session: 0, until_session: u64::MAX })
            .collect();
        let report = run_fleet_chaos(&cfg, &plan, &FleetObs::default()).expect("runs");
        assert_eq!(report.ok, 0);
        assert_eq!(report.fail_closed, report.sessions);
        assert_eq!(report.violations(), [], "fail-closed sessions never leak cor bytes");
    }
}
