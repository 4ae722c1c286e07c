//! Guard acceptance: per-session resource governance and hostile-guest
//! hardening, end to end through the public facade.
//!
//! The contract under test: a guest engineered to exhaust any one budget
//! (fuel, heap, call depth, DSM syncs, deadline) dies with a typed
//! [`KillReason`] — deterministically, at the same simulated instant on
//! every run — its node heap is scrubbed of every cor byte before the
//! error surfaces, and the fleet around it keeps serving benign sessions.
//! `tests/smoke_matrix.rs` runs the canned `hostile-guest` plan across
//! worker counts.

use std::collections::HashMap;

use tinman::chaos::{ChaosEvent, ChaosPlan, HostileGuestKind};
use tinman::core::{Mode, RuntimeError};
use tinman::fleet::{
    build_hostile_world, expected_kill, fleet_policy, run_fleet_chaos, FleetConfig, FleetObs,
    LinkKind, SessionSpec, WorkloadKind,
};
use tinman::guard::KillReason;
use tinman::obs::TraceHandle;
use tinman::sim::{LinkProfile, SimDuration, SimTime};

const ALL_KINDS: [HostileGuestKind; 4] = [
    HostileGuestKind::Spin,
    HostileGuestKind::HeapBomb,
    HostileGuestKind::DeepRecursion,
    HostileGuestKind::SyncFlood,
];

fn spec(id: u64) -> SessionSpec {
    SessionSpec {
        id,
        workload: WorkloadKind::Login(0),
        link: LinkKind::Wifi,
        seed: 1000 + id,
        tenant: 0,
    }
}

/// Runs one hostile guest to its kill and returns the error, the sim
/// instant it landed at, and the world (for residue inspection).
fn run_hostile(kind: HostileGuestKind) -> (RuntimeError, SimDuration, tinman::fleet::SessionWorld) {
    let s = spec(kind as u64);
    let mut world =
        build_hostile_world(&s, kind, (0, 16), LinkProfile::wifi(), &TraceHandle::noop())
            .expect("hostile world builds");
    let err = world
        .rt
        .run_app(&world.app, Mode::TinMan, &HashMap::new())
        .expect_err("a hostile guest must never complete");
    let at = world.rt.clock().now().since(SimTime::ZERO);
    (err, at, world)
}

fn config(sessions: usize, workers: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(sessions, workers);
    cfg.nodes = 4;
    cfg
}

/// Every hostile kind dies against exactly the budget it attacks, at the
/// same simulated instant on every run, and the node heap it ran on is
/// scrubbed of the session's cor before the kill surfaces.
#[test]
fn every_hostile_kind_is_killed_deterministically_and_scrubbed() {
    for kind in ALL_KINDS {
        let (err, at, world) = run_hostile(kind);
        match err {
            RuntimeError::GuestKilled { reason } => {
                assert_eq!(reason, expected_kill(kind), "{kind:?} dies against its own budget");
            }
            other => panic!("{kind:?}: expected a guest kill, got {other:?}"),
        }
        let secret = &world.secrets[0];
        assert!(
            world.rt.scan_node_residue(secret).is_empty(),
            "{kind:?}: zero cor bytes may survive the kill on the node heap"
        );
        // Determinism: a second run dies identically, at the same instant.
        let (err2, at2, _world2) = run_hostile(kind);
        assert_eq!(format!("{err:?}"), format!("{err2:?}"), "{kind:?} kill is deterministic");
        assert_eq!(at, at2, "{kind:?} kill lands at the same simulated instant");
    }
}

/// The wall/sim deadline is a budget like any other: a guest that would
/// be well-behaved still dies (typed, scrubbed) when its deadline is set
/// below what the session needs.
#[test]
fn deadline_watchdog_kills_an_overdue_guest() {
    let s = spec(7);
    let mut world = build_hostile_world(
        &s,
        HostileGuestKind::Spin,
        (0, 16),
        LinkProfile::wifi(),
        &TraceHandle::noop(),
    )
    .expect("hostile world builds");
    // Re-arm with an impossible deadline; it must trip before the (much
    // larger) fuel budget does.
    let mut policy = fleet_policy();
    policy.deadline = Some(SimDuration::from_nanos(1));
    world.rt.set_guard(policy);
    match world.rt.run_app(&world.app, Mode::TinMan, &HashMap::new()) {
        Err(RuntimeError::GuestKilled { reason }) => assert_eq!(reason, KillReason::Deadline),
        other => panic!("expected a deadline kill, got {other:?}"),
    }
    assert!(world.rt.scan_node_residue(&world.secrets[0]).is_empty());
}

/// A node that killed a hostile guest keeps serving: sessions outside
/// the hostile window complete normally on the same pool, and the
/// aggregate books every session as exactly one of ok / killed / shed.
#[test]
fn nodes_serve_benign_sessions_after_kills() {
    let cfg = config(12, 4);
    let mut plan = ChaosPlan::empty();
    // Sessions [0, 4) run a heap bomb; the other eight are scripted.
    plan.events.push(ChaosEvent::HostileGuest {
        kind: HostileGuestKind::HeapBomb,
        from_session: 0,
        until_session: 4,
    });
    let report = run_fleet_chaos(&cfg, &plan, &FleetObs::default()).expect("fleet runs");

    assert!(report.guest_kills > 0, "the hostile window produced kills");
    assert!(report.ok > 0, "benign sessions after the kills still complete");
    assert_eq!(
        report.ok + report.guest_kills + report.shed_sessions,
        report.sessions as u64,
        "every session is exactly one of ok / killed / shed"
    );
    assert_eq!(report.violations(), [], "kills leave no residue and land in one budget");
}
