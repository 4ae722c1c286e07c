//! Chaos acceptance: deterministic fault injection with fail-closed
//! session recovery, end to end through the public facade.
//!
//! The headline scenario mirrors the subsystem's contract: crash the
//! primary mid-session under packet loss and a radio flap, and the fleet
//! must finish every session via replica replay, deliver each TCP payload
//! replacement exactly once at the origin server, break no fail-closed
//! invariant ([`FleetReport::violations`]), and report the same bytes
//! traced or not. `tests/smoke_matrix.rs` checks every canned plan across
//! worker counts.

use tinman::chaos::{ChaosEvent, ChaosPlan};
use tinman::fleet::{run_fleet_chaos, FleetConfig, FleetObs, FleetReport};
use tinman::obs::{TraceEvent, TraceHandle};
use tinman::sim::SimDuration;

fn config(sessions: usize, workers: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(sessions, workers);
    cfg.nodes = 4;
    cfg
}

fn run(cfg: &FleetConfig, plan: &ChaosPlan) -> FleetReport {
    run_fleet_chaos(cfg, plan, &FleetObs::default()).expect("chaos fleet runs")
}

fn simulated(report: &FleetReport) -> String {
    serde_json::to_string(&report.simulated_value()).unwrap()
}

#[test]
fn crash_primary_recovers_every_session_exactly_once() {
    let cfg = config(12, 4);
    let plan = ChaosPlan::canned("crash-primary").unwrap();
    let report = run(&cfg, &plan);

    assert_eq!(report.ok, 12, "every session completes despite the crashed primary");
    assert_eq!(report.fail_closed, 0);
    assert!(report.replays >= 1, "a crashed session resumed on a replica");
    assert!(report.success_after_retry >= 1);
    assert!(
        report.duplicate_deliveries >= 1,
        "the replay re-sent an already-delivered payload and the origin deduped it"
    );
    assert!(report.vault_recoveries > 0, "every attempt is durability-audited");
    assert_eq!(report.violations(), []);

    // Exactly-once: the origin server accepted the same unique delivery
    // count a fault-free run produces — replays added duplicates, never
    // double-sends.
    let baseline = run(&cfg, &ChaosPlan::empty());
    assert_eq!(report.deliveries, baseline.deliveries);
    assert_eq!(baseline.duplicate_deliveries, 0);
}

#[test]
fn tracing_does_not_change_the_simulated_report() {
    let cfg = config(8, 2);
    let plan = ChaosPlan::canned("crash-primary").unwrap();
    let silent = run(&cfg, &plan);

    let (trace, sink) = TraceHandle::ring(1 << 16);
    let obs = FleetObs { trace, ..FleetObs::default() };
    let traced = run_fleet_chaos(&cfg, &plan, &obs).expect("chaos fleet runs");

    assert_eq!(simulated(&silent), simulated(&traced));

    let records = sink.snapshot();
    let count = |name: &str| records.iter().filter(|r| r.event.name() == name).count();
    assert!(count("chaos_inject") > 0, "armed faults are traced");
    assert!(count("breaker_transition") > 0, "node 0's breaker tripped");
    assert_eq!(count("session_replay"), traced.replays as usize);
    assert_eq!(count("delivery_dedup") > 0, traced.duplicate_deliveries > 0);
}

#[test]
fn full_partition_fails_closed_and_leaks_nothing() {
    let cfg = config(6, 2);
    let plan = ChaosPlan::canned("partition").unwrap();

    let (trace, sink) = TraceHandle::ring(1 << 16);
    let obs = FleetObs { trace, ..FleetObs::default() };
    let report = run_fleet_chaos(&cfg, &plan, &obs).expect("chaos fleet runs");

    assert_eq!(report.ok, 0);
    assert_eq!(report.fail_closed, report.sessions, "every session degrades fail-closed");
    assert_eq!(report.violations(), []);
    assert!(report.outcomes.iter().all(|o| o.fail_closed && !o.success && o.node.is_none()));

    let records = sink.snapshot();
    let fails = records.iter().filter(|r| r.event.name() == "fail_closed").count() as u64;
    assert_eq!(fails, report.sessions, "each degradation is audited");
}

#[test]
fn breaker_cycle_shows_up_in_the_report() {
    let mut cfg = config(24, 2);
    cfg.nodes = 4;
    let plan = ChaosPlan::canned("recovery").unwrap();
    let report = run(&cfg, &plan);

    let node0 = &report.per_node[0];
    assert!(node0.breaker_open > 0, "the crash tripped node 0's breaker");
    assert!(node0.breaker_half_open > 0, "probe placements happened while open");
    assert_eq!(
        node0.breaker_closed + node0.breaker_open + node0.breaker_half_open,
        report.sessions,
        "time-in-state covers the whole session axis"
    );
    for n in &report.per_node[1..] {
        assert_eq!(n.breaker_open, 0, "healthy nodes never trip");
        assert_eq!(n.breaker_closed, report.sessions);
    }
    assert_eq!(report.ok, report.sessions, "replicas absorb the crashed node's sessions");
}

#[test]
fn exhausted_deadline_budget_fails_closed() {
    let mut cfg = config(8, 2);
    cfg.nodes = 2;
    let mut plan = ChaosPlan::empty();
    // Crash both nodes for every session and give no budget to retry:
    // the first failed attempt blows the deadline and the session must
    // degrade instead of walking more replicas.
    plan.deadline = SimDuration::ZERO;
    plan.events = vec![
        ChaosEvent::NodeCrash { node: 0, at: SimDuration::ZERO, from_session: 0 },
        ChaosEvent::NodeCrash { node: 1, at: SimDuration::ZERO, from_session: 0 },
    ];
    let report = run(&cfg, &plan);
    assert_eq!(report.ok, 0);
    assert_eq!(report.fail_closed, report.sessions);
    assert!(
        report.outcomes.iter().all(|o| o.attempts <= 1),
        "a blown deadline stops the replica walk immediately"
    );
    assert_eq!(report.violations(), []);
}

#[test]
fn vault_crash_plan_loses_no_cor_and_leaks_nothing_deviceward() {
    let cfg = config(16, 2);
    let plan = ChaosPlan::canned("vault-crash").unwrap();
    let report = run(&cfg, &plan);

    assert_eq!(report.ok, report.sessions, "crashed WALs recover; sessions still complete");
    assert_eq!(report.violations(), []);
    assert!(report.vault_recoveries >= report.sessions, "every attempt recovered a vault");
    assert!(report.torn_tail_repairs > 0, "torn tails actually happened and were repaired");
    assert!(report.wal_plaintexts > 0, "node-side WALs hold plaintext — the scan bites");
    assert!(report.vault_catchup_lsns > 0, "lagging replicas anti-entropy caught up");
}

#[test]
fn replica_lag_catch_up_is_charged_not_free() {
    let cfg = config(8, 2);
    let mut plan = ChaosPlan::empty();
    plan.events = (0..4)
        .map(|node| ChaosEvent::ReplicaLag {
            node,
            lsns: 4,
            from_session: 0,
            until_session: u64::MAX,
        })
        .collect();
    let lagged = run(&cfg, &plan);
    let clean = run(&cfg, &ChaosPlan::empty());

    assert_eq!(lagged.ok, lagged.sessions, "catch-up within budget still serves everyone");
    assert!(lagged.vault_catchup_lsns > 0);
    assert_eq!(lagged.violations(), []);
    assert!(
        lagged.latency.mean > clean.latency.mean,
        "anti-entropy costs simulated time: {:?} vs {:?}",
        lagged.latency.mean,
        clean.latency.mean
    );
    // Catch-up changes timing only, never the session's logical work.
    assert_eq!(lagged.offloads, clean.offloads);
    assert_eq!(lagged.deliveries, clean.deliveries);
}

#[test]
fn stale_replica_with_no_budget_fails_closed() {
    let mut cfg = config(6, 2);
    cfg.nodes = 2;
    let mut plan = ChaosPlan::empty();
    // Every replica lags and there is no deadline budget to catch up:
    // cor-aware failover must refuse to serve rather than serve stale.
    plan.deadline = SimDuration::ZERO;
    plan.events = (0..2)
        .map(|node| ChaosEvent::ReplicaLag {
            node,
            lsns: 8,
            from_session: 0,
            until_session: u64::MAX,
        })
        .collect();

    let (trace, sink) = TraceHandle::ring(1 << 16);
    let obs = FleetObs { trace, ..FleetObs::default() };
    let report = run_fleet_chaos(&cfg, &plan, &obs).expect("chaos fleet runs");

    assert_eq!(report.ok, 0);
    assert_eq!(report.fail_closed, report.sessions, "refusal, not stale service");
    assert_eq!(report.violations(), []);

    let records = sink.snapshot();
    let stale = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::FailClosed { reason: "stale_replica", .. }))
        .count() as u64;
    assert_eq!(stale, report.sessions, "each refusal names the stale replica as its reason");
}

#[test]
fn tenant_key_rotation_mid_session_completes_with_resealed_vaults() {
    // The canned tenant-rotation plan rotates tenant 0's keys from
    // session 4 and force-rotates (compromises) tenant 1's from session
    // 6; with two tenants those fire at sessions 4 and 7. Under the
    // default deadline both re-seals are affordable: the sessions pay
    // the rotation cost, complete, and everything at rest stays
    // ciphertext under the *new* epoch.
    let mut cfg = config(12, 2);
    cfg.tenants = 2;
    let plan = ChaosPlan::canned("tenant-rotation").unwrap();

    let (trace, sink) = TraceHandle::ring(1 << 16);
    let obs = FleetObs { trace, ..FleetObs::default() };
    let report = run_fleet_chaos(&cfg, &plan, &obs).expect("chaos fleet runs");

    assert_eq!(report.ok, report.sessions, "affordable rotations never cost a session");
    assert_eq!(report.tenant_key_rotations, 2, "one rotation per tenant fired");
    assert_eq!(report.wal_plaintexts, 0, "sealed vaults stay ciphertext through rotation");
    assert_eq!(report.violations(), [], "re-sealed records still recover exactly");

    let records = sink.snapshot();
    let rotations =
        records.iter().filter(|r| matches!(r.event, TraceEvent::TenantKeyRotation { .. })).count()
            as u64;
    assert_eq!(rotations, report.tenant_key_rotations, "every paid rotation is traced");
    let forced = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::TenantKeyRotation { forced: true, .. }))
        .count();
    assert_eq!(forced, 1, "tenant 1's rotation was a key compromise");
    // Rotated sessions cost more than their unrotated twins: the
    // re-seal is charged, not free.
    let unrotated = run(&cfg, &ChaosPlan::empty());
    assert!(report.latency.mean > unrotated.latency.mean);
    assert_eq!(report.offloads, unrotated.offloads, "rotation changes timing, not work");
}

#[test]
fn unaffordable_rotation_of_a_compromised_key_fails_closed_as_revoked() {
    // Same plan, zero deadline budget: neither re-seal is affordable.
    // Tenant 0's scheduled rotation degrades as a plain deadline miss;
    // tenant 1's *forced* rotation means the old epoch is revoked — the
    // session must fail closed with reason `revoked_key` rather than
    // ever serve under the compromised key.
    let mut cfg = config(10, 2);
    cfg.tenants = 2;
    let mut plan = ChaosPlan::canned("tenant-rotation").unwrap();
    plan.deadline = SimDuration::ZERO;

    let (trace, sink) = TraceHandle::ring(1 << 16);
    let obs = FleetObs { trace, ..FleetObs::default() };
    let report = run_fleet_chaos(&cfg, &plan, &obs).expect("chaos fleet runs");

    assert_eq!(report.tenant_key_rotations, 0, "no re-seal fit the budget");
    assert_eq!(report.fail_closed, 2, "both rotation sessions degrade");
    assert_eq!(report.ok, report.sessions - 2, "only the rotation sessions are affected");
    assert_eq!(report.wal_plaintexts, 0);
    assert_eq!(report.violations(), [], "fail-closed sessions leak nothing");

    let records = sink.snapshot();
    let revoked: Vec<u64> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::FailClosed { session, reason: "revoked_key" } => Some(session),
            _ => None,
        })
        .collect();
    assert_eq!(revoked, vec![7], "tenant 1's compromised session refuses the revoked key");
}

#[test]
fn wire_noise_slows_sessions_but_never_breaks_them() {
    let cfg = config(8, 2);
    let noisy = run(&cfg, &ChaosPlan::canned("wire-noise").unwrap());
    let clean = run(&cfg, &ChaosPlan::empty());
    assert_eq!(noisy.ok, noisy.sessions, "loss and corruption retransmit, not fail");
    assert_eq!(noisy.violations(), []);
    assert!(
        noisy.latency.mean > clean.latency.mean,
        "retransmissions and delay must cost simulated time: {:?} vs {:?}",
        noisy.latency.mean,
        clean.latency.mean
    );
    // Wire noise slows the session but never changes its logical work.
    assert_eq!(noisy.offloads, clean.offloads);
    assert_eq!(noisy.dsm_syncs, clean.dsm_syncs);
    assert_eq!(noisy.deliveries, clean.deliveries);
}
