//! Vault acceptance: crash-consistent, replicated cor state through the
//! public facade.
//!
//! The contract under test: committed cor records survive every canned
//! crash schedule — mid-commit duplicates, torn WAL tails, crashes at
//! any point inside compaction — and the recovered store is
//! byte-identical to the crash-free reference. Replication adds the
//! failover side: only a replica whose acknowledged watermark covers a
//! session's writes may serve it immediately.

use tinman::cor::CorStore;
use tinman::vault::{
    catch_up_cost, CompactionCrash, ReplicatedVault, Vault, VaultOp, CATCH_UP_PER_LSN, WAL_FILE,
};

fn base() -> CorStore {
    CorStore::with_label_range(11, 0, 32).unwrap()
}

/// Registers cor `i` into `store` and returns the matching WAL op.
fn put(store: &mut CorStore, i: usize) -> VaultOp {
    let id =
        store.register(&format!("secret-{i}"), &format!("cor {i}"), &["site.example"]).unwrap();
    VaultOp::Put { record: store.get(id).unwrap().clone(), next_id: id.raw() + 1 }
}

/// A vault holding `n` committed records, plus the reference store.
fn committed_vault(n: usize) -> (Vault, CorStore) {
    let mut reference = base();
    let mut vault = Vault::create(&base()).unwrap();
    for i in 0..n {
        let op = put(&mut reference, i);
        vault.append(&op).unwrap();
        vault.commit();
    }
    (vault, reference)
}

#[test]
fn torn_tail_is_truncated_and_the_committed_prefix_replays() {
    let (mut vault, reference) = committed_vault(3);
    // A fourth record is staged but never reaches its barrier; the crash
    // lands a torn prefix of its frame.
    let mut extra = base();
    for i in 0..4 {
        let op = put(&mut extra, i);
        if i == 3 {
            vault.append(&op).unwrap();
        }
    }
    let mut disk = vault.into_disk();
    disk.crash_keeping(WAL_FILE, 5);

    let recovered = Vault::recover(disk, 99).unwrap();
    assert!(recovered.report.torn_tail_repaired, "the partial frame was truncated away");
    assert_eq!(recovered.report.applied_lsn, 3);
    assert_eq!(recovered.store.to_json().unwrap(), reference.to_json().unwrap());
}

#[test]
fn duplicated_appends_replay_idempotently() {
    let (mut vault, reference) = committed_vault(2);
    // A retried shipment re-lands the last committed frame verbatim.
    vault.inject_duplicate_of_last_committed();
    vault.commit();

    let recovered = Vault::recover(vault.into_disk(), 7).unwrap();
    assert!(recovered.report.duplicates > 0, "the duplicate landed and was skipped by LSN");
    assert_eq!(recovered.report.applied_lsn, 2);
    assert_eq!(recovered.store.to_json().unwrap(), reference.to_json().unwrap());
}

#[test]
fn committed_cors_survive_every_compaction_crash_point() {
    for (k, &point) in CompactionCrash::ALL.iter().enumerate() {
        let (vault, reference) = committed_vault(3);
        let disk = vault.compact_crashing_at(&reference, point, 0x1000 + k as u64).unwrap();
        let recovered = Vault::recover(disk, 42).unwrap();
        assert_eq!(
            recovered.store.to_json().unwrap(),
            reference.to_json().unwrap(),
            "{point:?}: compaction must be atomic from the reader's view"
        );
    }
}

#[test]
fn failover_is_gated_on_the_acknowledged_watermark() {
    let mut reference = base();
    let mut rv = ReplicatedVault::new(&base(), 2).unwrap();
    rv.set_lag(1, 3);
    for i in 0..5 {
        let op = put(&mut reference, i);
        rv.append(&op).unwrap();
        rv.commit_and_ship().unwrap();
    }
    assert_eq!(rv.primary().durable_lsn(), 5);
    assert_eq!(rv.watermark(0), 5);
    assert_eq!(rv.watermark(1), 2, "shipping lag holds the watermark back");

    // A session whose writes reached lsn 5 may only fail over to replica
    // 0; replica 1 must anti-entropy catch up first, at a visible cost.
    assert_eq!(rv.covering_replica(5), Some(0));
    let missing = rv.lag_of(1);
    assert_eq!(catch_up_cost(missing), CATCH_UP_PER_LSN * 3);
    assert_eq!(rv.catch_up(1).unwrap(), 3);
    assert_eq!(rv.watermark(1), 5);
    assert_eq!(rv.replica_store_json(1).unwrap(), reference.to_json().unwrap());
}
