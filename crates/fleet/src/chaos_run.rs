//! The fleet executor: runs every session of a fleet under a
//! [`ChaosPlan`] — the empty plan for a clean fleet — with fail-closed
//! session recovery. Every session goes through the same pipeline:
//!
//! 1. **Fault arming** — before each attempt the plan is projected onto
//!    the `(node, session)` pair ([`session_faults`]) and translated into
//!    the session world's own fault hooks (`NetChaos` on the wire,
//!    `SyncFault` on the DSM engine). The projection is pure, so worker
//!    interleaving cannot change what any session experiences.
//! 2. **Circuit breaking** — placement consults a precomputed
//!    [`BreakerSchedule`] view instead of raw health flips: an Open
//!    breaker skips the node (fast failover), a HalfOpen view lets a
//!    deterministic probe through.
//! 3. **Checkpoint/replay** — a crashed attempt leaves its last completed
//!    DSM sync boundary behind as a checkpoint; the replay on a replica
//!    re-runs the deterministic session and is *credited* the
//!    checkpointed prefix, so recovered latency reflects resuming, not
//!    restarting. The per-session [`DeliveryLedger`] keeps TCP payload
//!    replacement exactly-once toward the origin server across replays.
//! 4. **Fail-closed enforcement** — a session that exhausts its attempts
//!    or its deadline budget degrades to a placeholder-only failure, and
//!    *every* attempt (crashed or not) is residue-scanned so the "no cor
//!    bytes on a device host" invariant is checked, not assumed.
//! 5. **Cor-aware durability** — every attempt runs a hermetic
//!    [`crate::vault_audit`] (WAL replay, projected crash, recovery,
//!    byte-compare), and a lagging vault replica must anti-entropy
//!    catch up — charged against the deadline — before serving, or the
//!    session fails closed with reason `"stale_replica"`. A session is
//!    never served from a stale store.

use std::time::Instant;

use tinman_chaos::{
    session_faults, BreakerSchedule, BreakerState, ChaosPlan, DeliveryLedger, SessionFaults,
    VaultCrashKind,
};
use tinman_core::runtime::{Mode, TinmanRuntime};
use tinman_core::RuntimeError;
use tinman_dsm::{DsmError, SyncFault};
use tinman_net::{Handoff, NetChaos};
use tinman_obs::TraceEvent;
use tinman_sim::{LinkProfile, SimDuration, SimTime, SplitMix64};
use tinman_tenant::rotation_cost;
use tinman_vault::{catch_up_cost, catch_up_within};

use crate::failure::{backoff_delay, degraded_link, FleetError, NodeHealth};
use crate::hostile::{build_hostile_world, fleet_policy, GuardSchedule};
use crate::membership::{MembershipSchedule, MembershipState};
use crate::pool::NodePool;
use crate::region::RegionMap;
use crate::report::FleetReport;
use crate::retry::{migration_policy, RetryBudget};
use crate::sched::{run_worker_pool, FleetObs};
use crate::session::{
    base_link, build_session_world_net, expect_success, session_inputs, SessionNet, SessionOutcome,
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
    let t = SimTime::ZERO + penalty;
    let emit = |kind: &'static str| {
        obs.trace.emit_on(session, t, TraceEvent::ChaosInject { kind, node: node as u64, session });
    };
    if faults.crash.is_some() {
        emit("crash");
    }
    if faults.partitioned {
        emit("partition");
    }
    if !faults.sync_windows.is_empty() {
        emit("sync_timeout");
    }
    if faults.loss_pct > 0 {
        emit("packet_loss");
    }
    if faults.corrupt_pct > 0 {
        emit("packet_corrupt");
    }
    if faults.delay > SimDuration::ZERO {
        emit("packet_delay");
    }
    if faults.flap.is_some() {
        emit("link_flap");
    }
    if let Some(kind) = faults.vault_crash {
        emit(match kind {
            VaultCrashKind::MidCommit => "vault_mid_commit",
            VaultCrashKind::TornTail => "vault_torn_tail",
            VaultCrashKind::Compaction => "vault_compaction",
        });
    }
    if faults.replica_lag > 0 {
        emit("replica_lag");
    }
    if !faults.router_outages.is_empty() {
        emit("router_crash");
    }
    if !faults.nat_flushes.is_empty() {
        emit("nat_table_flush");
    }
    if !faults.dns_outages.is_empty() {
        emit("dns_outage");
    }
    if !faults.handoffs.is_empty() {
        emit("handoff_storm");
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
            guard: GuardSchedule::build(cfg, pool, plan, specs),
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

/// Closes `out` as a placeholder-only failure after `penalty` of
/// simulated time, counting and tracing `reason`.
fn fail_closed(
    mut out: SessionOutcome,
    reason: FailReason,
    penalty: SimDuration,
    obs: &FleetObs,
) -> SessionOutcome {
    obs.metrics.incr("chaos.fail_closed");
    if obs.trace.is_enabled() {
        obs.trace.emit_on(
            out.id,
            SimTime::ZERO + penalty,
            TraceEvent::FailClosed { session: out.id, reason: reason.as_str() },
        );
    }
    if reason == FailReason::NoRegion {
        out.no_region = true;
        obs.metrics.incr("fleet.region.no_region_kills");
    }
    out.fail_closed = true;
    out.latency = penalty;
    out
}

/// Runs one session under the schedule's plan: walk the replica order,
/// skip nodes whose breaker is Open (or whose static health is Down),
/// arm the projected faults, run, and on a mid-session failure retry on
/// the next replica with a checkpoint credit — until success, attempt
/// exhaustion, or the deadline budget runs out. Exhaustion is a
/// *fail-closed* outcome: the device keeps only placeholders; no retry
/// path ever relaxes that.
///
/// With tenancy enabled ([`TenantSchedule::enabled`]) three more gates
/// apply, all deterministic replays: the declassification policy can
/// refuse the session before any attempt (`policy_denied`), unattested
/// nodes are skipped in the replica walk, and a mid-session key
/// rotation charges its re-seal cost against the deadline — a
/// compromised key that cannot afford the re-seal fails closed with
/// reason `revoked_key` rather than ever serving under the old epoch.
///
/// With a live [`MembershipSchedule`] the walk becomes region-aware:
/// placement follows [`RegionMap::order`] (home region first), nodes
/// outside a startable membership state are skipped, a *CatchingUp*
/// rejoiner charges vault anti-entropy to the acked watermark before
/// serving, and a *Draining* (or mid-outage dying) node checkpoints the
/// in-flight guest at a DSM sync point — the checkpoint is
/// fidelity-checked ([`tinman_core::NodeCheckpoint::restore`]), its
/// scrub receipt audited, and the session resumes on the next admissible
/// peer with the checkpoint instant as replay credit. A session that
/// migrates but finds no admissible target within its deadline fails
/// closed with reason `no_region`.
pub fn execute_with_chaos(
    cfg: &FleetConfig,
    pool: &NodePool,
    spec: &SessionSpec,
    schedule: &FleetSchedule,
    obs: &FleetObs,
) -> SessionOutcome {
    let FleetSchedule { plan, breaker, guard, tenancy, membership } = schedule;
    let mut out = SessionOutcome { id: spec.id, ..SessionOutcome::default() };
    // Load shedding: when the guard schedule says this session's budget
    // reservation does not fit its node, it is shed before any attempt —
    // a deterministic, breaker-style fail-closed outcome.
    if guard.shed(spec.id) {
        let node = pool.place(spec.placement_key());
        obs.metrics.incr("guard.sheds");
        if obs.trace.is_enabled() {
            obs.trace.emit_on(
                spec.id,
                SimTime::ZERO,
                TraceEvent::SessionShed {
                    session: spec.id,
                    node: node as u64,
                    reason: FailReason::Overloaded.as_str(),
                },
            );
        }
        out.shed = true;
        return fail_closed(out, FailReason::Overloaded, SimDuration::ZERO, obs);
    }
    // Tenant declassification policy: a session the engine refused
    // fails closed before any placement — its cors never leave the
    // device toward the denied domain.
    if let Some(deny_reason) = tenancy.denial(spec.id) {
        obs.metrics.incr("tenant.policy_denials");
        if obs.trace.is_enabled() {
            obs.trace.emit_on(
                spec.id,
                SimTime::ZERO,
                TraceEvent::TenantPolicyDecision {
                    session: spec.id,
                    tenant: spec.tenant,
                    allowed: false,
                    reason: deny_reason,
                },
            );
        }
        out.policy_denials = 1;
        return fail_closed(out, FailReason::PolicyDenied, SimDuration::ZERO, obs);
    }
    // Region-salted placement: home-region nodes first, then foreign
    // regions in rotation. Identity order on a flat fleet.
    let regions = membership.regions();
    let order = regions.order(pool, spec.placement_key());
    let home = regions.home_region(spec.placement_key());
    let mut penalty = SimDuration::ZERO;
    let mut ledger = DeliveryLedger::new();
    // Session time already covered by completed DSM syncs on a failed
    // attempt — the replay resumes from this boundary.
    let mut credit = SimDuration::ZERO;
    let mut ran_before = false;
    // The plan's key faults for this (tenant, session).
    let tf = tenancy.faults(spec);
    // Live-migration state: how many checkpoints have shipped, and the
    // (source node, wire bytes) of one waiting to resume on the next
    // admissible peer.
    let mut migration_idx = 0u64;
    let mut pending_migration: Option<(usize, u64)> = None;
    // Charges a skipped or failed placement its backoff `delay` and
    // traces the failover.
    let fail_over = |penalty: &mut SimDuration, node: usize, i: usize, delay: SimDuration| {
        *penalty += delay;
        obs.metrics.add("fleet.backoff_ns", delay.as_nanos());
        if obs.trace.is_enabled() {
            let t = SimTime::ZERO + *penalty;
            let session = spec.id;
            obs.trace.emit_on(
                session,
                t,
                TraceEvent::FleetFailover { session, node: node as u64, attempt: i as u32 },
            );
            obs.trace.emit_on(
                session,
                t,
                TraceEvent::FleetBackoff { session, attempt: i as u32, delay_ns: delay.as_nanos() },
            );
        }
    };

    // The walk ends in `return` on success; `stopped` names why it ended
    // early, and running out of placements leaves it `None`.
    let mut stopped: Option<FailReason> = None;
    for (i, &node) in order.iter().take(cfg.max_attempts as usize).enumerate() {
        if penalty > plan.deadline {
            stopped = Some(FailReason::Deadline);
            break;
        }
        out.attempts += 1;
        obs.metrics.incr("fleet.attempts");
        if i > 0 {
            obs.metrics.incr("fleet.failovers");
        }
        // A vanished shard (stale order naming a decommissioned index)
        // is a skipped attempt, never a panic.
        let Ok(shard) = pool.try_shard(node) else {
            fail_over(&mut penalty, node, i, backoff_delay(cfg.backoff, i as u32));
            continue;
        };
        let health = shard.health();
        let view = breaker.view(node, spec.id);
        if !health.can_serve() || view == BreakerState::Open {
            if view == BreakerState::Open {
                obs.metrics.incr("chaos.breaker_skips");
            }
            fail_over(&mut penalty, node, i, backoff_delay(cfg.backoff, i as u32));
            continue;
        }
        // Membership gate: a node outside a startable state admits
        // nothing — unless this is the exact session id the node fell
        // over on (`in_flight_death`): that session is already in flight
        // when the node dies mid-offload, so it runs, dies at its DSM
        // sync point, and migrates from its checkpoint.
        let mstate = membership.state_at(node, spec.id);
        let dying = membership.in_flight_death(node, spec.id);
        if !mstate.can_start() && !dying {
            obs.metrics.incr("fleet.region.membership_skips");
            fail_over(&mut penalty, node, i, backoff_delay(cfg.backoff, i as u32));
            continue;
        }
        // Attestation gate: a node that cannot prove it runs the full
        // four-class taint engine is refused tenant plaintext placement
        // — the walk moves on to the next replica.
        if tenancy.enabled() && !tenancy.attested(node) {
            out.unattested_refusals += 1;
            obs.metrics.incr("tenant.unattested_refusals");
            let delay = backoff_delay(cfg.backoff, i as u32);
            if obs.trace.is_enabled() {
                obs.trace.emit_on(
                    spec.id,
                    SimTime::ZERO + penalty + delay,
                    TraceEvent::AttestationRefused {
                        session: spec.id,
                        tenant: spec.tenant,
                        node: node as u64,
                    },
                );
            }
            fail_over(&mut penalty, node, i, delay);
            continue;
        }
        let faults = session_faults(plan, node, spec.id, spec.seed);
        let base = base_link(spec.link);
        let link = if health == NodeHealth::Degraded { degraded_link(&base) } else { base };
        if obs.trace.is_enabled() {
            obs.trace.emit_on(
                spec.id,
                SimTime::ZERO + penalty,
                TraceEvent::FleetPlacement { session: spec.id, node: node as u64 },
            );
            emit_fault_events(&faults, node, spec.id, penalty, obs);
        }
        // Admission control: wall-clock flow only, no simulated effect.
        let _permit = shard.acquire();
        let shard_labels = (shard.label_start, shard.label_end);
        // Routed sessions get bounded re-sync retries: a handoff
        // blackout mid-offload must be survivable, and exhaustion
        // fails closed as a guest kill. Flat sessions surface a sync
        // timeout immediately.
        let net =
            SessionNet { topology: cfg.topology, resync_retries: if cfg.topology { 3 } else { 0 } };
        let built = match faults.hostile_guest {
            Some(kind) => build_hostile_world(spec, kind, shard_labels, link, &obs.trace),
            None => build_session_world_net(spec, shard_labels, link, &obs.trace, net),
        };
        let Ok(mut world) = built else {
            fail_over(&mut penalty, node, i, backoff_delay(cfg.backoff, i as u32));
            continue;
        };
        // On a hostile run every session — benign or not — executes under
        // the guard; hostile worlds arm it themselves.
        if guard.armed() && faults.hostile_guest.is_none() {
            world.rt.set_guard(fleet_policy());
        }
        // Cor-aware failover: when this node's vault replica lags the
        // primary, the session's cor writes (one LSN per secret) must be
        // covered before it is served. Anti-entropy replays the missing
        // LSNs, charged against the deadline budget; if the budget cannot
        // absorb the catch-up the session degrades fail-closed — it is
        // never served from a stale store.
        if faults.replica_lag > 0 {
            let needed = world.secrets.len() as u64;
            let missing = faults.replica_lag.min(needed);
            if missing > 0 {
                let cost = catch_up_cost(missing);
                if penalty + cost > plan.deadline {
                    obs.metrics.incr("vault.stale_blocked");
                    stopped = Some(FailReason::StaleReplica);
                    break;
                }
                penalty += cost;
                out.vault_catchup_lsns += missing;
                obs.metrics.incr("vault.catch_ups");
                obs.metrics.add("vault.catchup_lsns", missing);
                if obs.trace.is_enabled() {
                    obs.trace.emit_on(
                        spec.id,
                        SimTime::ZERO + penalty,
                        TraceEvent::VaultCatchUp {
                            session: spec.id,
                            node: node as u64,
                            lsns: missing,
                            cost_ns: cost.as_nanos(),
                        },
                    );
                }
            }
        }
        // Membership catch-up: a rejoining node (post-outage or
        // post-upgrade) must cover this session's cor writes to the
        // acked watermark before serving — the stale-replica refusal
        // applied to rejoins. The cost is admitted against the remaining
        // deadline budget or the session fails closed; a rejoiner is
        // never served stale.
        if mstate == MembershipState::CatchingUp {
            let lsns = world.secrets.len() as u64;
            let mut budget = RetryBudget::new(plan.deadline.saturating_sub(penalty));
            let Some(cost) = catch_up_within(lsns, &mut budget) else {
                obs.metrics.incr("vault.stale_blocked");
                stopped = Some(FailReason::StaleReplica);
                break;
            };
            penalty += cost;
            out.vault_catchup_lsns += lsns;
            obs.metrics.incr("fleet.region.rejoin_catch_ups");
            obs.metrics.add("vault.catchup_lsns", lsns);
            if obs.trace.is_enabled() {
                obs.trace.emit_on(
                    spec.id,
                    SimTime::ZERO + penalty,
                    TraceEvent::VaultCatchUp {
                        session: spec.id,
                        node: node as u64,
                        lsns,
                        cost_ns: cost.as_nanos(),
                    },
                );
            }
        }
        // A draining node admits the session but checkpoints it at the
        // first DSM sync past a seeded offset (live migration); a node
        // dying mid-outage does the same involuntarily — its "crash"
        // leaves the DSM-checkpointed state behind for the hand-off.
        if mstate == MembershipState::Draining || dying {
            let dice = SplitMix64::new(
                plan.seed ^ spec.seed ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            )
            .next_u64();
            let offset = SimDuration::from_millis(1)
                + SimDuration::from_nanos(dice % SimDuration::from_millis(400).as_nanos());
            world.rt.set_drain_at(SimTime::ZERO + offset, world.secrets.clone());
        }
        // Mid-session tenant key rotation: re-sealing this session's
        // vault bytes under the new epoch costs simulated time,
        // charged against the deadline like a replica catch-up, and
        // paid once per session. When the budget cannot absorb the
        // re-seal the session fails closed — with reason
        // `revoked_key` if the rotation was forced by a key
        // compromise (the old epoch is revoked; nothing may be served
        // under it), plain `deadline` otherwise.
        if tenancy.enabled() && tf.rotates && out.tenant_key_rotations == 0 {
            let cost = rotation_cost(world.secrets.len() as u64);
            if penalty + cost > plan.deadline {
                stopped = Some(if tf.compromised {
                    obs.metrics.incr("tenant.revoked_blocked");
                    FailReason::RevokedKey
                } else {
                    FailReason::Deadline
                });
                break;
            }
            out.tenant_key_rotations = 1;
            penalty += cost;
            obs.metrics.incr("tenant.key_rotations");
            if obs.trace.is_enabled() {
                obs.trace.emit_on(
                    spec.id,
                    SimTime::ZERO + penalty,
                    TraceEvent::TenantKeyRotation {
                        session: spec.id,
                        tenant: spec.tenant,
                        epoch: u64::from(tf.epoch),
                        forced: tf.compromised,
                    },
                );
            }
        }
        apply_session_faults(&mut world.rt, &faults);
        // A checkpoint shipped from a drained/dying source lands here:
        // this node is the migration target, and the replay below resumes
        // from the checkpoint instant (the `credit`).
        if let Some((from_node, bytes)) = pending_migration.take() {
            obs.metrics.incr("fleet.region.migrations_resumed");
            if obs.trace.is_enabled() {
                obs.trace.emit_on(
                    spec.id,
                    SimTime::ZERO + penalty,
                    TraceEvent::Migration {
                        session: spec.id,
                        from_node: from_node as u64,
                        to_node: node as u64,
                        bytes,
                        resume_ns: credit.as_nanos(),
                    },
                );
            }
        }
        if ran_before {
            out.replays += 1;
            obs.metrics.incr("chaos.replays");
            if obs.trace.is_enabled() {
                obs.trace.emit_on(
                    spec.id,
                    SimTime::ZERO + penalty,
                    TraceEvent::SessionReplay {
                        session: spec.id,
                        node: node as u64,
                        attempt: out.attempts,
                        resume_ns: credit.as_nanos(),
                    },
                );
            }
        }
        ran_before = true;
        let run = world.rt.run_app(&world.app, Mode::TinMan, &session_inputs());
        // Topology availability columns: what the wire actually did this
        // attempt (all zero on flat worlds).
        let topo = world.rt.world.topology_stats();
        out.handoffs += topo.handoffs;
        out.nat_rewrites += topo.nat_rewrites;
        out.nat_rebinds += topo.nat_rebinds;
        out.dns_faults += topo.dns_failures;
        out.route_drops += topo.route_drops + topo.firewall_drops;
        if world.rt.world.topology_enabled() {
            obs.metrics.add("net.handoff.count", topo.handoffs);
            obs.metrics.add("net.topology.nat_rewrites", topo.nat_rewrites);
            obs.metrics.add("net.topology.dns_failures", topo.dns_failures);
            obs.metrics.add("net.topology.route_drops", topo.route_drops + topo.firewall_drops);
        }
        // Exactly-once accounting: the k-th payload replacement of a
        // deterministic session is byte-identical on every replay, so the
        // origin's (session, seq) dedup reduces to prefix bookkeeping.
        let (_, suppressed) = ledger.record_attempt(world.rt.world.injected_count());
        out.deliveries = ledger.unique();
        out.duplicate_deliveries = ledger.suppressed();
        if suppressed > 0 {
            obs.metrics.add("chaos.dedup_suppressed", suppressed);
            if obs.trace.is_enabled() {
                obs.trace.emit_on(
                    spec.id,
                    SimTime::ZERO + penalty,
                    TraceEvent::DeliveryDedup { session: spec.id, duplicates: suppressed },
                );
            }
        }
        // The invariant is checked on *every* attempt: a crash mid-run
        // must not have left cor plaintext anywhere on the device host.
        for secret in &world.secrets {
            let hits = world.rt.scan_residue(secret).len() as u64;
            if hits > 0 {
                out.residue_violations += hits;
                obs.metrics.add("chaos.residue_violations", hits);
            }
        }
        // Durability audit on every attempt that was not guard-killed:
        // replay the node's cor writes through a real WAL, inject the
        // projected crash, recover, and byte-compare against the
        // committed-prefix reference. A killed guest's fail-closed
        // teardown discards its cor writes along with its scrubbed heap —
        // nothing durable may survive the kill, so there is nothing to
        // audit (and `wal_plaintexts` stays zero for killed sessions).
        if !matches!(&run, Err(RuntimeError::GuestKilled { .. })) {
            // With tenancy on, the audit runs sealed: the log carries
            // ciphertext under the owning tenant's current-epoch WAL
            // key, and the foreign keyring doubles as the cross-tenant
            // residue probe.
            let audit = if tenancy.enabled() {
                let seal = tenancy.seal_context(spec, tf.epoch);
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
            out.vault_recoveries += audit.recoveries;
            out.torn_tail_repairs += audit.torn_repairs;
            out.lost_cors += audit.lost_cors;
            out.wal_plaintexts += audit.wal_plaintexts;
            out.wal_device_leaks += audit.wal_device_leaks;
            out.cross_tenant_residue += audit.cross_tenant_hits;
            obs.metrics.add("tenant.cross_tenant_residue", audit.cross_tenant_hits);
            obs.metrics.add("vault.recoveries", audit.recoveries);
            obs.metrics.add("vault.torn_repairs", audit.torn_repairs);
            obs.metrics.add("vault.lost_cors", audit.lost_cors);
            obs.metrics.add("vault.appends", audit.appends);
            obs.metrics.add("vault.fsyncs", audit.fsyncs);
            obs.metrics.add("vault.wal_device_leaks", audit.wal_device_leaks);
            if obs.trace.is_enabled() {
                obs.trace.emit_on(
                    spec.id,
                    SimTime::ZERO + penalty,
                    TraceEvent::VaultRecovery {
                        session: spec.id,
                        node: node as u64,
                        applied_lsn: audit.applied_lsn,
                        torn_repaired: audit.torn_repairs > 0,
                        duplicates: audit.duplicates,
                    },
                );
            }
        }
        match run {
            Ok(report) if expect_success(&report, world.workload).is_ok() => {
                // The replay re-simulated the checkpointed prefix; credit
                // it back so latency reflects resume-from-checkpoint.
                let effective = penalty + (report.latency - credit);
                obs.metrics.observe("fleet.session_latency_ns", effective.as_nanos());
                if out.attempts > 1 {
                    obs.metrics.incr("chaos.success_after_retry");
                }
                out.serve(node, effective, &report);
                // Served outside the home region: a region failover.
                if !regions.flat() && regions.region_of(node) != home {
                    out.region_failovers = 1;
                    obs.metrics.incr("fleet.region.failovers");
                }
                return out;
            }
            Err(RuntimeError::GuestKilled { reason }) => {
                // A guard kill is deterministic: replaying the same guest
                // on a replica dies the same way, so the kill is terminal
                // and the session fails closed immediately.
                out.guest_kill = Some(reason);
                obs.metrics.incr("guard.kills");
                obs.metrics.incr(match reason.column() {
                    "fuel" => "guard.fuel_exhausted",
                    "heap" => "guard.heap_exhausted",
                    "depth" => "guard.depth_exhausted",
                    "dsm" => "guard.dsm_exhausted",
                    _ => "guard.deadline_exhausted",
                });
                // The watchdog scrubbed the node heap before returning;
                // verify, counting any surviving cor bytes as violations.
                for secret in &world.secrets {
                    let hits = world.rt.scan_node_residue(secret).len() as u64;
                    if hits > 0 {
                        out.residue_violations += hits;
                        obs.metrics.add("chaos.residue_violations", hits);
                    }
                }
                penalty += world.rt.clock().now().since(SimTime::ZERO);
                stopped = Some(FailReason::GuestKilled);
                break;
            }
            Err(RuntimeError::NodeDraining { .. }) => {
                // Live migration: the node checkpointed the guest at its
                // DSM sync point and scrubbed its own heap. Audit the
                // scrub receipt and re-scan the node surface (residue is
                // a reportable violation, never assumed zero), prove the
                // serialized state is faithful by round-tripping it, and
                // carry the checkpoint instant as the replay credit for
                // the next admissible peer.
                out.migrations += 1;
                obs.metrics.incr("fleet.region.migrations");
                if mstate == MembershipState::Draining {
                    out.evacuations += 1;
                    obs.metrics.incr("fleet.region.evacuations");
                }
                let t_fail = world.rt.clock().now().since(SimTime::ZERO);
                if let Some(cp) = world.rt.take_node_checkpoint() {
                    let mut hits = cp.scrub.residue;
                    for secret in &world.secrets {
                        hits += world.rt.scan_node_residue(secret).len() as u64;
                    }
                    if hits > 0 {
                        out.migration_residue += hits;
                        obs.metrics.add("fleet.region.migration_residue", hits);
                    }
                    match cp.restore() {
                        Ok(_) => {
                            credit = credit.max(cp.taken_at().since(SimTime::ZERO));
                            pending_migration = Some((node, cp.wire_bytes()));
                        }
                        Err(_) => {
                            // An unfaithful checkpoint is abandoned: the
                            // replay restarts from scratch, never resumes
                            // from guesswork.
                            obs.metrics.incr("fleet.region.checkpoint_corrupt");
                        }
                    }
                }
                // Shipping the checkpoint pays the unified migration
                // backoff (seeded jitter over the failover curve),
                // charged against the same penalty deadline as every
                // other retry.
                let delay = migration_policy(cfg.backoff, plan.seed ^ spec.seed.rotate_left(23))
                    .delay(migration_idx);
                migration_idx += 1;
                penalty += t_fail;
                fail_over(&mut penalty, node, i, delay);
            }
            other => {
                if matches!(&other, Err(RuntimeError::Dsm(DsmError::SyncTimeout { .. }))) {
                    obs.metrics.incr("chaos.crashes");
                }
                // Where the attempt died on its own timeline: that much
                // simulated time was genuinely burned.
                penalty += world.rt.clock().now().since(SimTime::ZERO);
                if let Some(cp) = world.rt.dsm_checkpoint() {
                    credit = credit.max(cp.since(SimTime::ZERO));
                }
                fail_over(&mut penalty, node, i, backoff_delay(cfg.backoff, i as u32));
            }
        }
    }

    // A hard stop names itself. A session that migrated but found no
    // peer is a failed region evacuation, which outranks a plain
    // deadline.
    let reason = match stopped {
        Some(
            hard @ (FailReason::GuestKilled | FailReason::StaleReplica | FailReason::RevokedKey),
        ) => hard,
        _ if out.migrations > 0 => FailReason::NoRegion,
        Some(stop) => stop,
        None if out.unattested_refusals > 0 && !ran_before => FailReason::Unattested,
        None => FailReason::AttemptsExhausted,
    };
    fail_closed(out, reason, penalty, obs)
}

/// Drives `cfg.sessions` device sessions across `cfg.workers` threads
/// against a fresh node pool under `plan`, and returns the aggregated
/// report. Validates the config's fault plan and `plan` against the
/// (post-clamp) pool before running anything, builds the
/// [`FleetSchedule`] once, runs every session through
/// [`execute_with_chaos`], and folds breaker time-in-state into the
/// per-node rows.
///
/// Scheduler and session events land in `obs.trace`, and the report's
/// `attempts` / `failovers` are read back from `obs.metrics` (registry
/// deltas) — the registry is the source of truth the outcomes mirror.
///
/// The simulated aggregate ([`FleetReport::simulated_value`]) is
/// bit-identical for any worker count: every session's result depends
/// only on its spec, the schedule, and its (deterministic) placement;
/// outcomes are re-sorted by session id before aggregation, and
/// wall-clock never enters the simulated fields.
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
    // Snapshot the registry so report fields are per-run deltas even when
    // the caller reuses one registry across several fleet runs.
    let attempts_start = obs.metrics.get("fleet.attempts");
    let failovers_start = obs.metrics.get("fleet.failovers");
    let start = Instant::now();

    let mut outcomes = run_worker_pool(cfg.workers, &specs, |spec| {
        execute_with_chaos(cfg, &pool, spec, &schedule, obs)
    });

    let wall_secs = start.elapsed().as_secs_f64();
    outcomes.sort_by_key(|o| o.id);
    let mut report = FleetReport::aggregate(cfg, &pool, outcomes, wall_secs);
    report.attempts = obs.metrics.get("fleet.attempts") - attempts_start;
    report.failovers = obs.metrics.get("fleet.failovers") - failovers_start;
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
    if obs.trace.is_enabled() {
        obs.trace.emit_on(
            0,
            SimTime::ZERO,
            TraceEvent::PoolClamp {
                requested: pool.requested_nodes() as u64,
                effective: pool.len() as u64,
            },
        );
    }
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
        assert_eq!(report.residue_violations, 0);
        assert_eq!(report.wal_device_leaks, 0);
        assert_eq!(report.fail_closed, 0);
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
    fn rejoining_node_serves_nothing_while_behind() {
        let cfg = node0_down(6, 2);
        let pool = NodePool::new(cfg.nodes, cfg.node_capacity, &cfg.faults).unwrap();
        // While node 0 was down, node 1's vault advanced.
        pool.set_watermark(1, 9).unwrap();
        // Node 0 comes back — but behind, so the rejoin gates it.
        pool.set_health(0, NodeHealth::Healthy).unwrap();
        assert_eq!(pool.shard(0).health(), NodeHealth::CatchingUp);
        let specs = build_session_specs(&cfg);
        let schedule = FleetSchedule::build(&cfg, &pool, &ChaosPlan::empty(), &specs).unwrap();
        let obs = FleetObs::default();
        for spec in &specs {
            let out = execute_with_chaos(&cfg, &pool, spec, &schedule, &obs);
            assert!(out.success);
            assert_ne!(out.node, Some(0), "a catching-up node must not serve session {}", out.id);
        }
        // After anti-entropy the node serves again.
        pool.catch_up(0).unwrap();
        assert_eq!(pool.shard(0).health(), NodeHealth::Healthy);
        assert!(execute_with_chaos(&cfg, &pool, &specs[0], &schedule, &obs).success);
    }

    #[test]
    fn all_nodes_down_reports_failures_not_panics() {
        let mut cfg = node0_down(3, 2);
        cfg.faults.down_nodes = vec![0, 1];
        let report = run_fleet(&cfg).expect("fleet runs");
        assert_eq!(report.ok, 0);
        assert_eq!(report.failed, 3);
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
        assert_eq!(report.fail_closed, report.sessions);
        assert_eq!(
            report.guest_kills + report.shed_sessions,
            report.sessions,
            "each session is either admitted-and-killed or shed"
        );
        assert_eq!(
            report.budget_exhaustions.iter().sum::<u64>(),
            report.guest_kills,
            "every kill lands in exactly one exhaustion column"
        );
        assert_eq!(report.residue_violations, 0, "kills scrub node heaps");
        assert_eq!(report.wal_plaintexts, 0, "killed sessions leave nothing durable");
        assert!(report
            .outcomes
            .iter()
            .all(|o| o.fail_closed && !o.success && (o.guest_kill.is_some() ^ o.shed)));
    }

    #[test]
    fn handoff_plan_is_byte_identical_across_worker_counts() {
        // The acceptance bar: a login fleet with mid-offload Wi-Fi ↔ 3G
        // handoffs produces byte-identical simulated aggregates at 1, 4,
        // and 8 workers, with the handoffs actually exercised.
        let plan = ChaosPlan::canned("handoff").expect("canned plan");
        let mut reference: Option<(String, FleetReport)> = None;
        for workers in [1usize, 4, 8] {
            let mut cfg = chaos_cfg(8, 2);
            cfg.workers = workers;
            cfg.topology = true;
            let report = run_fleet_chaos(&cfg, &plan, &FleetObs::default()).expect("runs");
            let bytes = serde_json::to_string(&report.simulated_value()).unwrap();
            assert!(report.handoffs > 0, "handoff storm fires at {workers} workers");
            assert!(report.nat_rebinds > 0, "NAT bindings re-punch after handoff");
            assert_eq!(report.residue_violations, 0, "handoffs never leave node residue");
            assert!(report.ok > 0, "sessions re-sync and complete across the blackout");
            match &reference {
                None => reference = Some((bytes, report)),
                Some((ref_bytes, _)) => {
                    assert_eq!(&bytes, ref_bytes, "simulated aggregate diverged at {workers}")
                }
            }
        }
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
        assert_eq!(report.residue_violations, 0);
        assert_eq!(report.wal_device_leaks, 0, "vault bytes never reach a device surface");
        assert!(report.dns_faults > 0, "the brownout tail meets the dead resolver");
        assert!(report.outcomes.iter().all(|o| o.success || o.fail_closed));
        assert_eq!(report.ok + report.fail_closed, report.sessions);
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
        assert_eq!(report.residue_violations, 0);
        assert_eq!(report.ok + report.fail_closed, report.sessions);
    }

    #[test]
    fn standing_drain_live_migrates_and_stays_clean() {
        let plan = ChaosPlan::canned("drain").expect("canned plan");
        let report = run_fleet_chaos(&chaos_cfg(8, 2), &plan, &FleetObs::default()).expect("runs");
        assert!(report.migrations > 0, "draining node 0 checkpoints in-flight guests");
        assert!(report.evacuations > 0, "a planned drain counts as evacuation");
        assert_eq!(report.migration_residue, 0, "source heaps scrub clean on hand-off");
        assert_eq!(report.residue_violations, 0);
        assert_eq!(report.lost_cors, 0);
        assert_eq!(report.ok + report.fail_closed, report.sessions);
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
        assert_eq!(report.residue_violations, 0, "fail-closed sessions never leak cor bytes");
        assert!(report.outcomes.iter().all(|o| o.fail_closed && !o.success));
    }
}
