//! Multi-tenant isolation tests: key-hierarchy properties (proptest)
//! and interleaved two-tenant fleet runs.
//!
//! The invariants here are the tinman-tenant acceptance bars:
//!
//! - key derivation is a pure function of `(master, tenant, epoch)` and
//!   separates on every input;
//! - a blob sealed by tenant A never opens — never even authenticates —
//!   under tenant B's keys, at any epoch, for any purpose;
//! - a two-tenant fleet run, at any worker interleaving, breaks no
//!   fail-closed invariant (zero cross-tenant residue among them) and
//!   holds zero plaintext at rest. `tests/smoke_matrix.rs` checks the
//!   tenant rows byte for byte across worker counts.

use proptest::prelude::*;

use tinman::chaos::ChaosPlan;
use tinman::fleet::{run_fleet_chaos, FleetConfig, FleetObs};
use tinman::tenant::{KeyPurpose, TenantId, TenantKeyring};

proptest! {
    #[test]
    fn key_derivation_is_deterministic(master in any::<u64>(),
                                       tenant in any::<u64>(),
                                       epoch in any::<u32>()) {
        let a = TenantKeyring::derive(master, TenantId::new(tenant), epoch);
        let b = TenantKeyring::derive(master, TenantId::new(tenant), epoch);
        prop_assert_eq!(&a, &b);
        for purpose in KeyPurpose::ALL {
            prop_assert_eq!(a.purpose_key(purpose), b.purpose_key(purpose));
        }
    }

    #[test]
    fn key_hierarchy_separates_on_every_input(master in any::<u64>(),
                                              tenant in any::<u64>(),
                                              epoch in 0u32..u32::MAX) {
        let base = TenantKeyring::derive(master, TenantId::new(tenant), epoch);
        let other_tenant = TenantKeyring::derive(master, TenantId::new(tenant ^ 1), epoch);
        let other_epoch = TenantKeyring::derive(master, TenantId::new(tenant), epoch + 1);
        let other_master = TenantKeyring::derive(master ^ 1, TenantId::new(tenant), epoch);
        for purpose in KeyPurpose::ALL {
            let key = base.purpose_key(purpose);
            prop_assert_ne!(key, other_tenant.purpose_key(purpose));
            prop_assert_ne!(key, other_epoch.purpose_key(purpose));
            prop_assert_ne!(key, other_master.purpose_key(purpose));
        }
    }

    #[test]
    fn tenant_a_blobs_never_authenticate_under_tenant_b(
        master in any::<u64>(),
        tenant_a in 0u64..1 << 32,
        offset in 1u64..1 << 16,
        epoch in any::<u32>(),
        nonce in any::<u64>(),
        plaintext in "[ -~]{0,80}",
    ) {
        let a = TenantKeyring::derive(master, TenantId::new(tenant_a), epoch);
        let b = TenantKeyring::derive(master, TenantId::new(tenant_a + offset), epoch);
        for purpose in KeyPurpose::ALL {
            let blob = a.seal(purpose, nonce, &plaintext);
            prop_assert_eq!(a.open(purpose, &blob).unwrap(), plaintext.clone());
            prop_assert!(a.can_authenticate(purpose, &blob));
            prop_assert!(!b.can_authenticate(purpose, &blob),
                "tenant B must not authenticate tenant A's blob");
            prop_assert!(b.open(purpose, &blob).is_err());
        }
    }
}

fn tenant_cfg(sessions: usize, workers: usize, seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::new(sessions, workers);
    cfg.nodes = 3;
    cfg.seed = seed;
    cfg.tenants = 2;
    cfg
}

proptest! {
    // Fleet runs are comparatively expensive; a handful of interleaved
    // cases is plenty to shake scheduling-dependent leaks out.
    #![cases(6)]

    #[test]
    fn interleaved_two_tenant_runs_have_zero_cross_tenant_residue(
        seed in any::<u64>(),
        sessions in 4usize..10,
        workers in 1usize..4,
    ) {
        let cfg = tenant_cfg(sessions, workers, seed);
        let report =
            run_fleet_chaos(&cfg, &ChaosPlan::empty(), &FleetObs::default()).expect("runs");
        prop_assert_eq!(report.violations(), [],
            "no cross-tenant residue, and sealing must not cost durability");
        prop_assert_eq!(report.wal_plaintexts, 0, "tenant vaults hold ciphertext at rest");
    }
}

/// With tenancy off the fleet must serialize exactly as before, modulo
/// the four new (all-zero) columns — tenant 0 keeps historical placement
/// and the audits run unsealed.
#[test]
fn disabled_tenancy_keeps_plaintext_vaults_and_zero_tenant_columns() {
    let mut cfg = FleetConfig::new(8, 2);
    cfg.nodes = 2;
    let report = run_fleet_chaos(&cfg, &ChaosPlan::empty(), &FleetObs::default()).expect("runs");
    assert!(report.wal_plaintexts > 0, "single-tenant vaults hold plaintext by design");
    assert_eq!(report.policy_denials, 0);
    assert_eq!(report.violations(), []);
    assert_eq!(report.unattested_refusals, 0);
    assert_eq!(report.tenant_key_rotations, 0);
}
