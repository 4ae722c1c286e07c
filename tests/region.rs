//! Region acceptance: live membership, session migration, and
//! fail-closed region evacuation, end to end through the public facade.
//!
//! Every membership scenario must finish with each session either
//! migrated-and-completed on a peer or failed closed with a scrubbed
//! heap, breaking no fail-closed invariant
//! ([`FleetReport::violations`]). `tests/smoke_matrix.rs` runs the canned
//! `region-failover` and `rolling-upgrade` plans across worker counts.
//! Flat single-region configs are pinned byte-for-byte by the golden
//! reports below.

use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

use tinman::chaos::ChaosPlan;
use tinman::core::{Mode, NodeCheckpoint, RuntimeError};
use tinman::fleet::session::base_link;
use tinman::fleet::{
    build_session_specs, build_session_world, run_fleet, run_fleet_chaos, FaultPlan, FleetConfig,
    FleetObs, FleetReport, MembershipState, NodePool,
};
use tinman::obs::TraceHandle;
use tinman::sim::{SimDuration, SimTime};

fn simulated(report: &FleetReport) -> String {
    serde_json::to_string(&report.simulated_value()).unwrap()
}

/// Three golden reports (clean fleet, crash-primary plan, tenant
/// rotation) pin flat configs — regions ≤ 1, no membership events — byte
/// for byte. Regenerate them only with a reviewed diff that explains
/// every changed value.
#[test]
fn flat_reports_match_pre_pr_goldens() {
    let obs = FleetObs::default();

    let r = run_fleet(&FleetConfig::new(24, 2)).expect("fleet runs");
    assert_eq!(simulated(&r), include_str!("golden/flat_24.json").trim_end());

    let mut cfg = FleetConfig::new(16, 2);
    cfg.seed = 7;
    let plan = ChaosPlan::canned("crash-primary").expect("canned plan");
    let r = run_fleet_chaos(&cfg, &plan, &obs).expect("fleet runs");
    assert_eq!(simulated(&r), include_str!("golden/chaos_crash_primary_16.json").trim_end());

    let mut cfg = FleetConfig::new(12, 2);
    cfg.seed = 7;
    cfg.tenants = 2;
    cfg.tenant_deny = vec!["shop.com".to_owned()];
    cfg.unattested_nodes = vec![1];
    let plan = ChaosPlan::canned("tenant-rotation").expect("canned plan");
    let r = run_fleet_chaos(&cfg, &plan, &obs).expect("fleet runs");
    assert_eq!(simulated(&r), include_str!("golden/tenant_rotation_12.json").trim_end());
}

/// Metrics registry snapshot and per-kind trace event counts of one
/// traced run, as the JSON the `counts_*` goldens hold.
fn counts(cfg: &FleetConfig, plan: &str) -> String {
    use serde_json::Value;
    let (trace, sink) = TraceHandle::ring(1 << 20);
    let obs = FleetObs { trace, ..FleetObs::default() };
    run_fleet_chaos(cfg, &ChaosPlan::canned(plan).expect("canned plan"), &obs).expect("fleet runs");
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    for r in sink.snapshot() {
        *kinds.entry(r.event.name().to_owned()).or_default() += 1;
    }
    let kinds = Value::Map(kinds.into_iter().map(|(k, n)| (k, Value::U64(n))).collect());
    let counts = Value::Map(vec![
        ("metrics".to_owned(), obs.metrics.snapshot_value()),
        ("trace_kinds".to_owned(), kinds),
    ]);
    serde_json::to_string(&counts).unwrap()
}

/// Two mixed-family runs pin every metric the executor emits and how many
/// trace events of each kind it records: a tenant fleet on a routed
/// topology, and a two-region fleet with a region outage. Regenerate them
/// only with a reviewed diff that explains every changed value.
#[test]
fn mixed_runs_match_metric_and_trace_count_goldens() {
    let mut cfg = FleetConfig::new(12, 1);
    cfg.tenants = 2;
    cfg.topology = true;
    assert_eq!(
        counts(&cfg, "tenant-rotation+vault-crash+handoff"),
        include_str!("golden/counts_tenant_topology_12.json").trim_end()
    );

    let mut cfg = FleetConfig::new(12, 1);
    cfg.regions = 2;
    assert_eq!(
        counts(&cfg, "region-failover+vault-crash"),
        include_str!("golden/counts_region_failover_12.json").trim_end()
    );
}

/// Rolling upgrade: one node drains per wave; every session lands on a
/// serving node (or migrates off the draining one) and the fleet never
/// loses a cor.
#[test]
fn rolling_upgrade_drains_one_wave_at_a_time() {
    let plan = ChaosPlan::canned("rolling-upgrade").expect("canned plan");
    let mut cfg = FleetConfig::new(16, 2);
    cfg.regions = 2;
    let report = run_fleet_chaos(&cfg, &plan, &FleetObs::default()).expect("runs");
    assert!(report.migrations > 0, "sessions admitted to a draining node migrate off it");
    assert!(report.evacuations > 0, "a planned drain is an evacuation");
    assert_eq!(report.violations(), []);
    assert!(report.ok > 0);
}

/// The `no_region` fail-closed path: drain every node so a checkpointed
/// session has nowhere admissible to resume. It must fail closed with a
/// scrubbed heap, never serve from an inadmissible node.
#[test]
fn no_admissible_target_fails_closed_as_no_region() {
    use tinman::chaos::ChaosEvent;
    let mut plan = ChaosPlan::empty();
    plan.events = (0..4)
        .map(|node| ChaosEvent::NodeDrain { node, from_session: 0, until_session: u64::MAX })
        .collect();
    let mut cfg = FleetConfig::new(6, 2);
    cfg.regions = 2;
    let report = run_fleet_chaos(&cfg, &plan, &FleetObs::default()).expect("runs");
    // A session whose node work all lands before the drain deadline may
    // legitimately complete; every other one must fail closed as a
    // no_region kill — no third outcome, and even abandoned migrations
    // scrub clean.
    assert_eq!(report.violations(), []);
    assert!(report.fail_closed > 0, "drained sessions with no target fail closed");
    assert!(report.no_region_kills > 0, "checkpointed sessions with no target fail as no_region");
    assert_eq!(
        report.no_region_kills, report.fail_closed,
        "every failure here is a no_region kill"
    );
}

/// Every report carries the region keys; a flat fleet with no
/// membership events carries them at zero (`migration_residue` is
/// checked by `violations`).
#[test]
fn flat_reports_carry_region_keys_at_zero() {
    let flat = run_fleet(&FleetConfig::new(6, 2)).expect("runs");
    assert_eq!(flat.violations(), []);
    let bytes = simulated(&flat);
    for key in ["migrations", "evacuations", "region_failovers", "no_region_kills"] {
        assert!(bytes.contains(&format!("\"{key}\":0,")), "{key} missing or nonzero: {bytes}");
    }
}

// ---------- arbitrary membership plans ----------

use proptest::prelude::*;

proptest! {
    // Fleet runs are heavy; a handful of arbitrary plans per test run
    // keeps the suite fast while the seed corpus accumulates coverage.
    #![cases(6)]

    /// The robustness property: under ANY combination of membership
    /// change (drains, region outages, rolling upgrade waves, flapping
    /// rejoins) interleaved with existing chaos families, the report
    /// breaks no fail-closed invariant — every session completes or
    /// fails closed, no cor residue on any surface, no cor lost — and
    /// is byte-identical across worker counts.
    #[test]
    fn arbitrary_membership_plans_complete_or_fail_closed(
        families in any::<u8>(),
        drain in (0usize..4, 0u64..4, 1u64..4),
        outage in (0u32..2, 0u64..4, 1u64..4),
        wave in (1u64..3, 0u64..3),
        flap in (0usize..4, 1u64..3, 0u64..3, 2u64..6),
        lag in (0usize..4, 1u64..3),
    ) {
        use tinman::chaos::ChaosEvent;

        // Always at least one drain (the migration path must be on the
        // table in every case); the low bits of `families` layer the
        // other membership families and a vault-lag interleaving on top.
        let (dn, df, dl) = drain;
        let mut events =
            vec![ChaosEvent::NodeDrain { node: dn, from_session: df, until_session: df + dl }];
        if families & 1 != 0 {
            let (region, from, len) = outage;
            events.push(ChaosEvent::RegionOutage {
                region,
                from_session: from,
                until_session: from + len,
            });
        }
        if families & 2 != 0 {
            let (wave_sessions, from_session) = wave;
            events.push(ChaosEvent::RollingUpgrade { wave_sessions, from_session });
        }
        if families & 4 != 0 {
            let (node, period_sessions, from, len) = flap;
            events.push(ChaosEvent::RejoinFlap {
                node,
                period_sessions,
                from_session: from,
                until_session: from + len,
            });
        }
        if families & 8 != 0 {
            let (node, lsns) = lag;
            events.push(ChaosEvent::ReplicaLag {
                node,
                lsns,
                from_session: 0,
                until_session: 6,
            });
        }
        let mut plan = ChaosPlan::empty();
        plan.events = events;

        let mut reference: Option<String> = None;
        for workers in [1usize, 4] {
            let mut cfg = FleetConfig::new(6, workers);
            cfg.regions = 2;
            let report = run_fleet_chaos(&cfg, &plan, &FleetObs::default()).unwrap();
            prop_assert_eq!(report.violations(), []);
            let bytes = simulated(&report);
            match &reference {
                None => reference = Some(bytes),
                Some(r) => prop_assert_eq!(&bytes, r, "report diverged at {} workers", workers),
            }
        }
    }
}

/// A real migration checkpoint: session 0 (a login) runs on node 0 with
/// a drain armed 1 ms in, so its first node sync point after that
/// serializes the guest and surfaces `NodeDraining`.
fn drained_checkpoint() -> &'static NodeCheckpoint {
    static CHECKPOINT: OnceLock<NodeCheckpoint> = OnceLock::new();
    CHECKPOINT.get_or_init(|| {
        let cfg = FleetConfig::new(1, 1);
        let spec = &build_session_specs(&cfg)[0];
        let pool = NodePool::new(1, 1, &FaultPlan::default()).unwrap();
        let shard = pool.shard(0);
        let link = base_link(spec.link);
        let mut world = build_session_world(
            spec,
            (shard.label_start, shard.label_end),
            link,
            &TraceHandle::noop(),
        )
        .unwrap();
        world.rt.set_drain_at(SimTime::ZERO + SimDuration::from_millis(1), world.secrets.clone());
        let inputs = HashMap::from([
            ("username".to_owned(), "alice".to_owned()),
            ("amount".to_owned(), "99.95".to_owned()),
        ]);
        let run = world.rt.run_app(&world.app, Mode::TinMan, &inputs);
        assert!(matches!(run, Err(RuntimeError::NodeDraining { .. })), "{run:?}");
        world.rt.take_node_checkpoint().expect("a drained run leaves a checkpoint")
    })
}

#[test]
fn drained_checkpoint_restores() {
    drained_checkpoint().restore().expect("an intact checkpoint restores");
}

/// Cuts `s` at the char boundary at or below `at`.
fn truncated(s: &str, at: usize) -> String {
    let mut at = at.min(s.len());
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    s[..at].to_owned()
}

proptest! {
    #![cases(48)]

    /// A checkpoint cut short in transit — either half, at any offset —
    /// is refused as corrupt, never resumed and never a panic.
    #[test]
    fn truncated_checkpoints_are_refused_as_corrupt(cut in any::<u64>(), engine in any::<bool>()) {
        let mut cp = drained_checkpoint().clone();
        let field = if engine { &mut cp.engine_json } else { &mut cp.machine_json };
        *field = truncated(field, (cut % field.len() as u64) as usize);
        let restored = cp.restore();
        prop_assert!(
            matches!(restored, Err(RuntimeError::CheckpointCorrupt { .. })),
            "a truncated checkpoint restored: {:?}",
            restored.map(|_| ())
        );
    }
}

/// Membership is a pure replay — spot-check the exposed state machine
/// through the facade (the `fleet::membership` unit tests own the
/// exhaustive walks).
#[test]
fn membership_states_expose_stable_names() {
    for (state, name) in [
        (MembershipState::Serving, "serving"),
        (MembershipState::Draining, "draining"),
        (MembershipState::Down, "down"),
        (MembershipState::CatchingUp, "catching_up"),
        (MembershipState::Evacuated, "evacuated"),
        (MembershipState::Decommissioned, "decommissioned"),
    ] {
        assert_eq!(state.as_str(), name);
    }
}
