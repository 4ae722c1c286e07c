//! Per-session vault durability audit.
//!
//! After every chaos attempt the executor replays the session's node-side
//! cor writes through a real [`Vault`] on a simulated fsync-barrier disk,
//! injects the crash the chaos plan projected for this `(node, session)`
//! pair, recovers, and byte-compares the recovered store against the
//! committed-prefix reference. Divergence is a **lost-cor incident** — a
//! wrong placeholder↔plaintext binding, the one thing the paper's trusted
//! node may never produce.
//!
//! The audit is hermetic per session (its own disk, its own stores), so
//! it is a pure function of `(node store, crash kind, dice seed)` — the
//! fleet's simulated report stays byte-identical at any worker count.

use tinman_chaos::VaultCrashKind;
use tinman_cor::{CorRecord, CorStore};
use tinman_core::runtime::TinmanRuntime;
use tinman_sim::SplitMix64;
use tinman_tenant::KeyPurpose;
use tinman_vault::{
    CompactionCrash, ReplicatedVault, SimDisk, Vault, VaultOp, SNAP_FILE, SNAP_TMP, WAL_FILE,
};

use crate::tenancy::TenantSealContext;

/// What one session's durability audit observed. All counters, all
/// deterministic; the executor folds them into the session's outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VaultAudit {
    /// Recoveries run (1 per attempt; the audit always recovers).
    pub recoveries: u64,
    /// Torn WAL tails truncated away during recovery.
    pub torn_repairs: u64,
    /// Lost-cor incidents: the recovered store diverged from the
    /// committed-prefix reference, or recovery failed outright. The
    /// acceptance bar is zero.
    pub lost_cors: u64,
    /// Duplicated appends the idempotent LSN apply skipped.
    pub duplicates: u64,
    /// Highest LSN the recovered store reached.
    pub applied_lsn: u64,
    /// Disk appends the audit's vault issued.
    pub appends: u64,
    /// Fsync barriers the audit's vault issued.
    pub fsyncs: u64,
    /// Session secrets found in the vault's durable bytes. Expected
    /// positive fleet-wide: plaintext *belongs* on the trusted node's
    /// disk, which is what makes the device-side scan meaningful.
    pub wal_plaintexts: u64,
    /// Session secrets found in vault bytes **and** on a device surface
    /// by the residue scan. The fail-closed bar is zero: durability must
    /// never widen the exposure surface toward the device.
    pub wal_device_leaks: u64,
    /// Sealed vault blobs a *foreign* tenant's keys authenticated
    /// (sealed audits only). The isolation bar is zero: tenant key
    /// hierarchies must be cryptographically disjoint.
    pub cross_tenant_hits: u64,
}

/// Builds the audit's base store: same label range as the node's, empty.
fn empty_base(store: &CorStore, seed: u64) -> Option<CorStore> {
    let (lo, hi) = store.label_range();
    CorStore::with_label_range(seed, lo, hi).ok()
}

/// Installs `records` into a fresh base — the committed-prefix reference
/// the recovered store must match byte-for-byte.
fn reference_json(store: &CorStore, seed: u64, records: &[CorRecord]) -> Option<String> {
    let mut reference = empty_base(store, seed)?;
    for r in records {
        reference.install_record(r.clone(), r.id.raw() + 1).ok()?;
    }
    reference.to_json().ok()
}

/// Scans the crashed disk's durable bytes for each secret and checks the
/// device side for the same needle: `(in_vault, also_on_device)` counts.
fn scan_vault_bytes(disk: &SimDisk, rt: &TinmanRuntime, secrets: &[String]) -> (u64, u64) {
    let mut hay = String::from_utf8_lossy(disk.read(WAL_FILE)).into_owned();
    hay.push_str(&String::from_utf8_lossy(disk.read(SNAP_FILE)));
    hay.push_str(&String::from_utf8_lossy(disk.read(SNAP_TMP)));
    let mut in_vault = 0u64;
    let mut on_device = 0u64;
    for secret in secrets {
        if hay.contains(secret.as_str()) {
            in_vault += 1;
            if !rt.scan_residue(secret).is_empty() {
                on_device += 1;
            }
        }
    }
    (in_vault, on_device)
}

/// Runs the durability audit for one session attempt: log the node
/// store's records into a vault (committing per record), inject the
/// projected crash, recover, and compare against the committed-prefix
/// reference. Never panics; every internal failure lands in `lost_cors`.
pub fn audit_session_vault(
    rt: &TinmanRuntime,
    secrets: &[String],
    crash: Option<VaultCrashKind>,
    dice_seed: u64,
) -> VaultAudit {
    run_audit(rt, secrets, crash, dice_seed, None)
}

/// The multi-tenant audit: identical crash/recover flow, but every
/// record's plaintext is sealed under the owning tenant's WAL-at-rest
/// key before it touches the log, so the same residue scan that must
/// find plaintext in the single-tenant vault must find **zero** here.
/// After recovery the owner keyring must open every committed blob back
/// to its original plaintext (anything else is a lost cor), the foreign
/// keyring must authenticate none of them (any hit is cross-tenant
/// residue), and a replica ships only ciphertext.
pub fn audit_session_vault_sealed(
    rt: &TinmanRuntime,
    secrets: &[String],
    crash: Option<VaultCrashKind>,
    dice_seed: u64,
    seal: &TenantSealContext,
) -> VaultAudit {
    run_audit(rt, secrets, crash, dice_seed, Some(seal))
}

fn run_audit(
    rt: &TinmanRuntime,
    secrets: &[String],
    crash: Option<VaultCrashKind>,
    dice_seed: u64,
    seal: Option<&TenantSealContext>,
) -> VaultAudit {
    let mut audit = VaultAudit::default();
    let mut dice = SplitMix64::new(dice_seed ^ 0x7a61_1e55_0c0d_e5af);
    let seed = dice.next_u64();
    let store = &rt.nodes[0].store;
    let plain_records = store.export_records();
    // With a seal context the log carries ciphertext: each record's
    // plaintext is replaced by its tmt1 blob (nonce bound to the dice
    // seed and record id, so attempts stay deterministic).
    let records: Vec<CorRecord> = match seal {
        Some(ctx) => plain_records
            .iter()
            .map(|r| {
                let mut sealed = r.clone();
                sealed.plaintext = ctx.owner.seal(
                    KeyPurpose::WalAtRest,
                    dice_seed ^ u64::from(r.id.raw()),
                    &r.plaintext,
                );
                sealed
            })
            .collect(),
        None => plain_records.clone(),
    };
    let n = records.len();
    // How much of the log the crash lets become durable: mid-commit and
    // torn-tail cut the final record short; compaction and clean
    // shutdown lose nothing committed.
    let committed_len = match crash {
        Some(VaultCrashKind::MidCommit) | Some(VaultCrashKind::TornTail) => n.saturating_sub(1),
        _ => n,
    };

    let (Some(base), Some(expected)) =
        (empty_base(store, seed), reference_json(store, seed, &records[..committed_len]))
    else {
        audit.lost_cors += 1;
        return audit;
    };
    let Ok(mut vault) = Vault::create(&base) else {
        audit.lost_cors += 1;
        return audit;
    };

    let op = |r: &CorRecord| VaultOp::Put { record: r.clone(), next_id: r.id.raw() + 1 };
    for r in &records[..committed_len] {
        if vault.append(&op(r)).is_err() {
            audit.lost_cors += 1;
            return audit;
        }
        vault.commit();
    }

    let disk = match crash {
        Some(VaultCrashKind::MidCommit) => {
            // The retry path re-sent the last committed frame (its ack
            // was lost) and the power died before the next barrier: a
            // duplicate lands, the staged final record does not.
            vault.inject_duplicate_of_last_committed();
            vault.commit();
            if let Some(last) = records.last() {
                let _ = vault.append(&op(last));
            }
            let mut disk = vault.into_disk();
            disk.crash_losing_pending();
            disk
        }
        Some(VaultCrashKind::TornTail) => {
            // The final append lands as a seeded prefix: a torn write
            // recovery must truncate away.
            if let Some(last) = records.last() {
                let _ = vault.append(&op(last));
            }
            let mut disk = vault.into_disk();
            let pending = disk.pending_bytes(WAL_FILE);
            let budget = if pending > 1 { 1 + dice.below(pending as u64 - 1) as usize } else { 0 };
            disk.crash_keeping(WAL_FILE, budget);
            disk
        }
        Some(VaultCrashKind::Compaction) => {
            // Die at a seeded point inside the snapshot+truncate publish.
            let point =
                CompactionCrash::ALL[dice.below(CompactionCrash::ALL.len() as u64) as usize];
            let Ok(reference) = CorStore::from_json(&expected, seed ^ 1) else {
                audit.lost_cors += 1;
                return audit;
            };
            match vault.compact_crashing_at(&reference, point, dice.next_u64()) {
                Ok(disk) => disk,
                Err(_) => {
                    audit.lost_cors += 1;
                    return audit;
                }
            }
        }
        None => vault.into_disk(),
    };

    let stats = disk.stats();
    audit.appends = stats.appends;
    audit.fsyncs = stats.fsyncs;
    let (in_vault, on_device) = scan_vault_bytes(&disk, rt, secrets);
    audit.wal_plaintexts = in_vault;
    audit.wal_device_leaks = on_device;

    audit.recoveries = 1;
    match Vault::recover(disk, seed ^ 2) {
        Ok(recovered) => {
            audit.torn_repairs = u64::from(recovered.report.torn_tail_repaired);
            audit.duplicates = recovered.report.duplicates;
            audit.applied_lsn = recovered.report.applied_lsn;
            match recovered.store.to_json() {
                Ok(json) if json == expected => {}
                _ => audit.lost_cors += 1,
            }
        }
        Err(_) => audit.lost_cors += 1,
    }

    if let Some(ctx) = seal {
        // Cryptographic isolation check on every committed blob: the
        // owner must round-trip it, the foreign ring must not even
        // authenticate it.
        for (plain, sealed) in plain_records[..committed_len].iter().zip(&records[..committed_len])
        {
            match ctx.owner.open(KeyPurpose::WalAtRest, &sealed.plaintext) {
                Ok(pt) if pt == plain.plaintext => {}
                _ => audit.lost_cors += 1,
            }
            if ctx.foreign.can_authenticate(KeyPurpose::WalAtRest, &sealed.plaintext) {
                audit.cross_tenant_hits += 1;
            }
        }
        // Replica shipping must also stay ciphertext: ship the sealed
        // log to one replica and scan its store image for plaintext.
        match sealed_shipping_leaks(store, seed, &records[..committed_len], secrets) {
            Some(leaks) => audit.wal_plaintexts += leaks,
            None => audit.lost_cors += 1,
        }
    }
    audit
}

/// Ships `records` through a single-replica [`ReplicatedVault`] and
/// counts how many session secrets appear in the replica's store image
/// (`None` when shipping itself fails).
fn sealed_shipping_leaks(
    store: &CorStore,
    seed: u64,
    records: &[CorRecord],
    secrets: &[String],
) -> Option<u64> {
    let base = empty_base(store, seed ^ 3)?;
    let mut replicated = ReplicatedVault::new(&base, 1).ok()?;
    for r in records {
        replicated.append(&VaultOp::Put { record: r.clone(), next_id: r.id.raw() + 1 }).ok()?;
        replicated.commit_and_ship().ok()?;
    }
    let image = replicated.replica_store_json(0).ok()?;
    Some(secrets.iter().filter(|s| image.contains(s.as_str())).count() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::build_session_world;
    use crate::spec::{LinkKind, SessionSpec, WorkloadKind};
    use tinman_core::runtime::Mode;
    use tinman_obs::TraceHandle;
    use tinman_sim::LinkProfile;

    fn ran_world(workload: WorkloadKind) -> crate::session::SessionWorld {
        let spec = SessionSpec { id: 3, workload, link: LinkKind::Wifi, seed: 77, tenant: 0 };
        let mut world =
            build_session_world(&spec, (0, 16), LinkProfile::wifi(), &TraceHandle::noop())
                .expect("world builds");
        world
            .rt
            .run_app(&world.app, Mode::TinMan, &crate::session::session_inputs())
            .expect("session runs");
        world
    }

    #[test]
    fn clean_audit_recovers_exactly() {
        let world = ran_world(WorkloadKind::Bankdroid);
        let audit = audit_session_vault(&world.rt, &world.secrets, None, 0xd1ce);
        assert_eq!(audit.recoveries, 1);
        assert_eq!(audit.lost_cors, 0, "clean shutdown must recover exactly");
        assert_eq!(audit.torn_repairs, 0);
        assert!(audit.wal_plaintexts > 0, "the node-side WAL holds plaintext by design");
        assert_eq!(audit.wal_device_leaks, 0, "vault bytes never reach a device surface");
        assert!(audit.fsyncs > 0, "commit discipline means barriers ran");
    }

    #[test]
    fn every_crash_kind_recovers_without_losing_committed_cors() {
        let world = ran_world(WorkloadKind::BrowserCheckout);
        for kind in
            [VaultCrashKind::MidCommit, VaultCrashKind::TornTail, VaultCrashKind::Compaction]
        {
            for seed in 0..8u64 {
                let audit =
                    audit_session_vault(&world.rt, &world.secrets, Some(kind), 0xabc0 + seed);
                assert_eq!(audit.recoveries, 1, "{kind:?}/{seed}");
                assert_eq!(audit.lost_cors, 0, "{kind:?}/{seed}: committed cors survived");
                assert_eq!(audit.wal_device_leaks, 0, "{kind:?}/{seed}");
            }
        }
    }

    #[test]
    fn torn_tail_is_actually_torn_and_repaired() {
        let world = ran_world(WorkloadKind::Bankdroid);
        let repaired: u64 = (0..16u64)
            .map(|s| {
                audit_session_vault(&world.rt, &world.secrets, Some(VaultCrashKind::TornTail), s)
                    .torn_repairs
            })
            .sum();
        assert!(repaired > 0, "seeded tears must exercise the truncation repair");
    }

    #[test]
    fn mid_commit_duplicates_are_deduped() {
        let world = ran_world(WorkloadKind::Bankdroid);
        let audit =
            audit_session_vault(&world.rt, &world.secrets, Some(VaultCrashKind::MidCommit), 5);
        assert!(audit.duplicates > 0, "the re-sent frame landed and was skipped by LSN");
        assert_eq!(audit.lost_cors, 0);
    }

    #[test]
    fn audit_is_a_pure_function_of_its_inputs() {
        let world = ran_world(WorkloadKind::Login(0));
        let a = audit_session_vault(&world.rt, &world.secrets, Some(VaultCrashKind::TornTail), 9);
        let b = audit_session_vault(&world.rt, &world.secrets, Some(VaultCrashKind::TornTail), 9);
        assert_eq!(a, b);
    }

    fn seal_ctx() -> TenantSealContext {
        use tinman_tenant::{TenantId, TenantKeyring};
        TenantSealContext {
            owner: TenantKeyring::derive(0xfeed, TenantId::new(0), 0),
            foreign: TenantKeyring::derive(0xfeed, TenantId::new(1), 0),
        }
    }

    #[test]
    fn sealed_audit_leaves_no_plaintext_and_no_cross_tenant_residue() {
        let world = ran_world(WorkloadKind::Bankdroid);
        let ctx = seal_ctx();
        let audit = audit_session_vault_sealed(&world.rt, &world.secrets, None, 0xd1ce, &ctx);
        assert_eq!(audit.lost_cors, 0, "owner keyring round-trips every committed blob");
        assert_eq!(audit.wal_plaintexts, 0, "sealed WAL and replica image hold no plaintext");
        assert_eq!(audit.cross_tenant_hits, 0, "foreign keyring authenticates nothing");
        assert_eq!(audit.wal_device_leaks, 0);
        assert_eq!(audit.recoveries, 1);
    }

    #[test]
    fn sealed_audit_survives_every_crash_kind() {
        let world = ran_world(WorkloadKind::BrowserCheckout);
        let ctx = seal_ctx();
        for kind in
            [VaultCrashKind::MidCommit, VaultCrashKind::TornTail, VaultCrashKind::Compaction]
        {
            for seed in 0..4u64 {
                let audit = audit_session_vault_sealed(
                    &world.rt,
                    &world.secrets,
                    Some(kind),
                    0xbee0 + seed,
                    &ctx,
                );
                assert_eq!(audit.lost_cors, 0, "{kind:?}/{seed}");
                assert_eq!(audit.wal_plaintexts, 0, "{kind:?}/{seed}: ciphertext at rest");
                assert_eq!(audit.cross_tenant_hits, 0, "{kind:?}/{seed}");
            }
        }
    }
}
