//! The determinism and invariant matrix: every canned chaos plan, plus
//! the fleet shapes that bring the rest of the executor into play, run
//! at 1, 4 and 8 workers. Each row must
//!
//! - serialize byte-identical simulated reports and metrics registries
//!   at all three worker counts,
//! - break no fail-closed invariant ([`FleetReport::violations`]), and
//! - show that its fault actually fired.
//!
//! Each row is its own test, so the harness runs rows side by side.

use tinman::chaos::ChaosPlan;
use tinman::fleet::{run_fleet_chaos, FaultPlan, FleetConfig, FleetObs, FleetReport};

/// One matrix row.
struct Row {
    /// Canned plan names joined with `+`; empty for the empty plan.
    plan: &'static str,
    /// Sessions per run.
    sessions: usize,
    /// Fleet settings beyond the defaults (4 nodes, flat, no tenants).
    shape: fn(&mut FleetConfig),
    /// The row's own proof that its fault fired.
    fired: fn(&FleetReport),
}

/// The defaults the rows start from.
const ROW: Row = Row { plan: "", sessions: 0, shape: |_| {}, fired: |_| {} };

impl Row {
    fn check(&self) {
        let plan = match self.plan {
            "" => ChaosPlan::empty(),
            name => ChaosPlan::canned(name).expect("canned plan"),
        };
        let mut reference: Option<(String, String)> = None;
        for workers in [1, 4, 8] {
            let mut cfg = FleetConfig::new(self.sessions, workers);
            (self.shape)(&mut cfg);
            let obs = FleetObs::default();
            let report = run_fleet_chaos(&cfg, &plan, &obs).expect("fleet runs");
            let violations: Vec<String> =
                report.violations().iter().map(ToString::to_string).collect();
            assert!(violations.is_empty(), "{:?} at {workers} workers: {violations:?}", self.plan);
            let bytes = serde_json::to_string(&report.simulated_value()).unwrap();
            let registry = serde_json::to_string(&obs.metrics.snapshot_value()).unwrap();
            match &reference {
                None => {
                    (self.fired)(&report);
                    reference = Some((bytes, registry));
                }
                Some((r, m)) => {
                    assert_eq!(&bytes, r, "{:?} diverged at {workers} workers", self.plan);
                    assert_eq!(
                        &registry, m,
                        "{:?} metrics diverged at {workers} workers",
                        self.plan
                    );
                }
            }
        }
    }
}

/// Defines `ROWS` and one test per row.
macro_rules! matrix {
    ($($test:ident: $row:expr;)*) => {
        const ROWS: &[Row] = &[$($row),*];
        $(#[test] fn $test() { $row.check() })*
    };
}

matrix! {
    node_0_down: Row {
        sessions: 3,
        shape: |c| c.faults = FaultPlan { down_nodes: vec![0], slow_nodes: vec![] },
        fired: |r| {
            assert_eq!(r.ok, r.sessions, "the replicas serve node 0's sessions");
            assert!(r.failovers > 0);
        },
        ..ROW
    };
    crash_primary: Row {
        plan: "crash-primary",
        sessions: 3,
        fired: |r| {
            assert_eq!(r.ok, r.sessions, "crash-primary recovers every session");
            assert!(r.replays > 0, "a crashed session resumed on a replica");
        },
        ..ROW
    };
    recovery: Row {
        plan: "recovery",
        sessions: 3,
        fired: |r| {
            assert!(r.per_node[0].breaker_open > 0, "the crash tripped node 0's breaker");
            assert_eq!(r.ok, r.sessions, "replicas absorb the crashed node's sessions");
        },
        ..ROW
    };
    partition: Row {
        plan: "partition",
        sessions: 1,
        // Each partitioned attempt runs to its timeout; one is enough.
        shape: |c| c.max_attempts = 1,
        fired: |r| assert_eq!(r.fail_closed, r.sessions, "every partitioned session fails closed"),
    };
    wire_noise: Row {
        plan: "wire-noise",
        sessions: 2,
        fired: |r| assert_eq!(r.ok, r.sessions, "loss and corruption retransmit, not fail"),
        ..ROW
    };
    vault_crash: Row {
        plan: "vault-crash",
        sessions: 3,
        fired: |r| {
            assert_eq!(r.ok, r.sessions, "crashed WALs recover and sessions complete");
            assert!(r.vault_recoveries >= r.sessions, "every attempt recovered a vault");
            assert!(r.torn_tail_repairs > 0, "torn tails happened and were repaired");
            assert!(r.wal_plaintexts > 0, "the WAL scan bites");
            assert!(r.vault_catchup_lsns > 0, "lagging replicas caught up");
        },
        ..ROW
    };
    hostile_guest: Row { plan: "hostile-guest", sessions: 8, fired: all_killed_or_shed, ..ROW };
    hostile_guest_two_regions: Row {
        plan: "hostile-guest",
        sessions: 8,
        shape: |c| c.regions = 2,
        fired: all_killed_or_shed,
    };
    tenant_rotation: Row {
        plan: "tenant-rotation",
        sessions: 5,
        shape: |c| c.tenants = 2,
        fired: |r| {
            assert_eq!(r.ok, r.sessions, "affordable rotations never cost a session");
            assert!(r.tenant_key_rotations > 0, "tenant 0's rotation fires at session 4");
            assert_eq!(r.wal_plaintexts, 0, "tenant vaults hold ciphertext at rest");
        },
    };
    tenant_rotation_deny_unattested: Row {
        plan: "tenant-rotation",
        // Session 5 is the first checkout, the flow the deny list refuses.
        sessions: 6,
        shape: |c| {
            c.tenants = 2;
            c.tenant_deny = vec!["shop.com".to_owned()];
            c.unattested_nodes = vec![1];
        },
        fired: |r| {
            assert!(r.policy_denials > 0, "the deny list bites");
            assert!(r.unattested_refusals > 0, "the attestation gate bites");
            assert!(r.tenant_key_rotations > 0, "the rotation plan fires");
            assert_eq!(r.fail_closed, r.policy_denials, "no policy-denied session escapes");
            assert_eq!(r.wal_plaintexts, 0, "tenant vaults hold ciphertext at rest");
        },
    };
    handoff: Row {
        plan: "handoff",
        sessions: 2,
        shape: |c| {
            c.nodes = 2;
            c.topology = true;
        },
        fired: |r| {
            assert!(r.handoffs > 0, "the handoff storm fires");
            assert!(r.nat_rebinds > 0, "NAT bindings re-punch after a handoff");
            assert!(r.nat_rewrites > 0, "traffic traverses the NAT");
            assert!(r.ok > 0, "sessions re-sync and complete across the blackout");
        },
    };
    nat_traversal: Row {
        plan: "nat-traversal",
        // The DNS brownout starts at session 6, past this row; the
        // `fleet::chaos_run` unit test
        // `nat_traversal_plan_completes_or_fails_closed` reaches it.
        sessions: 2,
        shape: |c| c.topology = true,
        fired: |r| assert!(r.nat_rewrites > 0, "traffic traverses the NAT"),
    };
    region_failover: Row {
        plan: "region-failover",
        // The region outage opens at session 6.
        sessions: 7,
        shape: |c| c.regions = 2,
        fired: |r| {
            assert!(r.migrations > 0, "in-flight sessions migrate off the dying region");
            assert!(r.ok > 0, "the peer region serves");
        },
    };
    rolling_upgrade: Row {
        plan: "rolling-upgrade",
        sessions: 3,
        shape: |c| c.regions = 2,
        fired: |r| {
            assert!(r.migrations > 0, "sessions migrate off the draining node");
            assert!(r.evacuations > 0, "a planned drain is an evacuation");
            assert!(r.ok > 0);
        },
    };
    drain: Row {
        plan: "drain",
        sessions: 3,
        fired: |r| {
            assert!(r.migrations > 0, "draining node 0 checkpoints in-flight guests");
            assert!(r.evacuations > 0, "a planned drain is an evacuation");
            assert!(r.ok > 0, "migrated sessions complete on the peer");
        },
        ..ROW
    };
    crash_primary_vault_crash_handoff: Row {
        plan: "crash-primary+vault-crash+handoff",
        sessions: 5,
        shape: |c| c.topology = true,
        fired: |r| {
            assert!(r.per_node[0].breaker_open > 0, "the crash trips node 0's breaker");
            assert!(r.torn_tail_repairs > 0, "the vault crashes fire");
            assert!(r.handoffs > 0, "the handoff storm fires");
        },
    };
    // The `chaos_mix` benchmark workload's composition, with its four
    // coverage checks.
    chaos_mix: Row {
        plan: "tenant-rotation+vault-crash+handoff",
        sessions: 5,
        shape: |c| {
            c.tenants = 2;
            c.topology = true;
        },
        fired: |r| {
            assert!(r.torn_tail_repairs > 0, "the vault crashes fire");
            assert!(r.tenant_key_rotations > 0, "the rotation plan fires");
            assert!(r.handoffs > 0, "the handoff storm fires");
            assert!(r.nat_rewrites > 0, "traffic traverses the NAT");
        },
    };
}

/// Every session of an all-hostile plan is killed or shed, each kill
/// leaving nothing durable behind.
fn all_killed_or_shed(r: &FleetReport) {
    assert!(r.guest_kills > 0, "the guard kills");
    assert!(r.shed_sessions > 0, "admission sheds");
    assert_eq!(r.guest_kills + r.shed_sessions, r.sessions);
    assert_eq!(r.wal_plaintexts, 0, "a killed guest leaves nothing on the WAL");
}

#[test]
fn every_canned_plan_has_a_row() {
    for name in ChaosPlan::canned_names() {
        assert!(ROWS.iter().any(|row| row.plan == *name), "no matrix row runs {name:?}");
    }
}
