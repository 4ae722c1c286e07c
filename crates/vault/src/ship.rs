//! Primary→replica log shipping with acknowledged watermarks.
//!
//! The primary ships committed WAL frames to each replica; a replica
//! applies them to its own vault (its own disk, its own barriers) and
//! acknowledges the highest LSN it has made durable — its *watermark*.
//! Failover policy reads watermarks, nothing else: a replica may serve a
//! session only if its watermark covers every LSN that session's cor
//! writes reached, because a lower watermark means some
//! placeholder↔plaintext binding exists that the replica provably does
//! not hold. A lagging replica first *anti-entropy catches up* — the
//! per-LSN cost here is what the fleet charges against the session's
//! penalty deadline — or the session degrades fail-closed.

use tinman_cor::CorStore;
use tinman_sim::{RetryBudget, RetryPolicy, SimDuration};

use crate::vault::{Vault, VaultError, VaultOp};
use crate::wal::decode_frames;

/// Simulated anti-entropy cost of replaying one LSN to a lagging
/// replica. Charged against the session's penalty deadline by the
/// cor-aware failover path.
pub const CATCH_UP_PER_LSN: SimDuration = SimDuration::from_millis(25);

/// The anti-entropy curve as a shared [`RetryPolicy`]: linear per-LSN,
/// no jitter — the same bytes the hand-rolled multiply produced.
pub fn catch_up_policy() -> RetryPolicy {
    RetryPolicy::linear(CATCH_UP_PER_LSN)
}

/// The anti-entropy cost of covering `lsns` missing records.
pub fn catch_up_cost(lsns: u64) -> SimDuration {
    catch_up_policy().delay(lsns)
}

/// Deadline-aware catch-up admission: the cost of covering `lsns`
/// missing records if (and only if) it fits in `budget`, which is
/// charged on success. `None` means the new owner cannot reach the
/// acked watermark within the session's remaining deadline — the caller
/// must refuse to serve (stale-replica fail-closed), never serve stale.
pub fn catch_up_within(lsns: u64, budget: &mut RetryBudget) -> Option<SimDuration> {
    let cost = catch_up_cost(lsns);
    if budget.admit(cost) {
        Some(cost)
    } else {
        None
    }
}

/// One replica: its own vault + store, and the injected lag that keeps
/// its watermark behind the primary until anti-entropy clears it.
struct Replica {
    vault: Vault,
    store: CorStore,
    /// Highest LSN this replica has applied *and made durable*.
    acked: u64,
    /// Injected shipping lag in LSNs (0 = ships fully).
    lag: u64,
}

impl Replica {
    /// Applies every primary frame in `(acked, limit]`.
    fn apply_up_to(&mut self, primary: &Vault, limit: u64) -> Result<u64, VaultError> {
        let mut applied = 0u64;
        for (lsn, frame) in primary.frames_after(self.acked) {
            if lsn > limit {
                break;
            }
            let (frames, _) = decode_frames(&frame).map_err(VaultError::CorruptLog)?;
            for f in frames {
                let op: VaultOp = serde_json::from_slice(&f.payload)
                    .map_err(|_| VaultError::BadPayload { lsn: f.lsn })?;
                let VaultOp::Put { ref record, next_id } = op;
                self.store
                    .install_record(record.clone(), next_id)
                    .map_err(|e| VaultError::Apply { lsn: f.lsn, reason: e.to_string() })?;
                self.vault.append(&op)?;
                self.vault.commit();
            }
            self.acked = lsn;
            applied += 1;
        }
        Ok(applied)
    }
}

/// A primary vault with a set of watermarked replicas.
pub struct ReplicatedVault {
    primary: Vault,
    primary_store_json: String,
    replicas: Vec<Replica>,
}

impl ReplicatedVault {
    /// A primary plus `replicas` replicas, all starting from `base`'s
    /// state (replica stores are rebuilt from the base snapshot, each
    /// with its own placeholder reseed — placeholders of existing
    /// records travel in the snapshot, so the stores stay identical).
    pub fn new(base: &CorStore, replicas: usize) -> Result<ReplicatedVault, VaultError> {
        let json = base.to_json().map_err(|e| VaultError::Persist(e.to_string()))?;
        let primary = Vault::create(base)?;
        let mut reps = Vec::with_capacity(replicas);
        for i in 0..replicas {
            let store = CorStore::from_json(&json, 0x5e11_ca00 ^ i as u64)
                .map_err(|e| VaultError::CorruptSnapshot(e.to_string()))?;
            reps.push(Replica { vault: Vault::create(&store)?, store, acked: 0, lag: 0 });
        }
        Ok(ReplicatedVault { primary, primary_store_json: json, replicas: reps })
    }

    /// The primary vault.
    pub fn primary(&self) -> &Vault {
        &self.primary
    }

    /// Appends an op on the primary (staged; ship on the next commit).
    pub fn append(&mut self, op: &VaultOp) -> Result<u64, VaultError> {
        self.primary.append(op)
    }

    /// Commits the primary and ships committed frames to every replica,
    /// honoring injected lag. Returns the primary's durable LSN.
    pub fn commit_and_ship(&mut self) -> Result<u64, VaultError> {
        self.primary.commit();
        let durable = self.primary.durable_lsn();
        for r in &mut self.replicas {
            let limit = durable.saturating_sub(r.lag);
            r.apply_up_to(&self.primary, limit)?;
        }
        Ok(durable)
    }

    /// Replica count.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Replica `i`'s acknowledged watermark.
    pub fn watermark(&self, i: usize) -> u64 {
        self.replicas[i].acked
    }

    /// Injects shipping lag: replica `i`'s watermark stays `lsns` behind
    /// the primary until [`ReplicatedVault::catch_up`].
    pub fn set_lag(&mut self, i: usize, lsns: u64) {
        self.replicas[i].lag = lsns;
    }

    /// LSNs replica `i` is missing relative to the primary.
    pub fn lag_of(&self, i: usize) -> u64 {
        self.primary.durable_lsn().saturating_sub(self.replicas[i].acked)
    }

    /// Anti-entropy: replays everything replica `i` is missing and
    /// clears its injected lag. Returns the LSNs applied (multiply by
    /// [`CATCH_UP_PER_LSN`] for the simulated cost).
    pub fn catch_up(&mut self, i: usize) -> Result<u64, VaultError> {
        let durable = self.primary.durable_lsn();
        let r = &mut self.replicas[i];
        r.lag = 0;
        r.apply_up_to(&self.primary, durable)
    }

    /// The first replica whose watermark covers `needed_lsn` — the only
    /// legal immediate-failover targets.
    pub fn covering_replica(&self, needed_lsn: u64) -> Option<usize> {
        self.replicas.iter().position(|r| r.acked >= needed_lsn)
    }

    /// Replica `i`'s store as snapshot JSON (for byte-identity checks).
    pub fn replica_store_json(&self, i: usize) -> Result<String, VaultError> {
        self.replicas[i].store.to_json().map_err(|e| VaultError::Persist(e.to_string()))
    }

    /// The base snapshot every member started from.
    pub fn base_json(&self) -> &str {
        &self.primary_store_json
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinman_cor::CorRecord;

    fn base() -> CorStore {
        CorStore::with_label_range(1, 0, 32).unwrap()
    }

    fn put(store: &mut CorStore, i: usize) -> (CorRecord, u8) {
        let id = store.register(&format!("pw-{i}"), &format!("cor {i}"), &["a.example"]).unwrap();
        (store.get(id).unwrap().clone(), id.raw() + 1)
    }

    #[test]
    fn shipping_tracks_the_primary_watermark() {
        let mut reference = base();
        let mut rv = ReplicatedVault::new(&base(), 2).unwrap();
        for i in 0..3 {
            let (rec, next) = put(&mut reference, i);
            rv.append(&VaultOp::Put { record: rec, next_id: next }).unwrap();
            let durable = rv.commit_and_ship().unwrap();
            assert_eq!(durable, i as u64 + 1);
            assert_eq!(rv.watermark(0), durable);
            assert_eq!(rv.watermark(1), durable);
        }
        for i in 0..2 {
            assert_eq!(rv.replica_store_json(i).unwrap(), reference.to_json().unwrap());
        }
    }

    #[test]
    fn lagging_replica_stays_behind_until_catch_up() {
        let mut reference = base();
        let mut rv = ReplicatedVault::new(&base(), 2).unwrap();
        rv.set_lag(1, 2);
        for i in 0..4 {
            let (rec, next) = put(&mut reference, i);
            rv.append(&VaultOp::Put { record: rec, next_id: next }).unwrap();
            rv.commit_and_ship().unwrap();
        }
        assert_eq!(rv.primary().durable_lsn(), 4);
        assert_eq!(rv.watermark(0), 4);
        assert_eq!(rv.watermark(1), 2, "injected lag holds the watermark back");
        assert_eq!(rv.lag_of(1), 2);
        // Cor-aware failover: replica 1 may not serve a session whose
        // writes reached lsn 4.
        assert_eq!(rv.covering_replica(4), Some(0));
        assert_eq!(rv.covering_replica(2), Some(0));
        let applied = rv.catch_up(1).unwrap();
        assert_eq!(applied, 2);
        assert_eq!(rv.watermark(1), 4);
        assert_eq!(rv.replica_store_json(1).unwrap(), reference.to_json().unwrap());
    }

    #[test]
    fn no_covering_replica_means_fail_closed() {
        let mut reference = base();
        let mut rv = ReplicatedVault::new(&base(), 1).unwrap();
        rv.set_lag(0, u64::MAX);
        let (rec, next) = put(&mut reference, 0);
        rv.append(&VaultOp::Put { record: rec, next_id: next }).unwrap();
        rv.commit_and_ship().unwrap();
        assert_eq!(rv.covering_replica(1), None, "nobody may serve this session");
        assert_eq!(rv.covering_replica(0), Some(0), "sessions that wrote nothing are fine");
    }

    #[test]
    fn catch_up_cost_is_linear_and_visible() {
        assert_eq!(catch_up_cost(0), SimDuration::ZERO);
        assert_eq!(catch_up_cost(4), SimDuration::from_millis(100));
    }

    #[test]
    fn catch_up_within_budget_charges_or_refuses() {
        let mut budget = RetryBudget::new(SimDuration::from_millis(60));
        assert_eq!(catch_up_within(2, &mut budget), Some(SimDuration::from_millis(50)));
        assert_eq!(budget.remaining(), SimDuration::from_millis(10));
        assert_eq!(catch_up_within(1, &mut budget), None, "25ms no longer fits");
        assert_eq!(budget.spent(), SimDuration::from_millis(50), "refusal charges nothing");
    }

    #[test]
    fn replica_recovery_matches_primary_recovery() {
        let mut reference = base();
        let mut rv = ReplicatedVault::new(&base(), 1).unwrap();
        for i in 0..3 {
            let (rec, next) = put(&mut reference, i);
            rv.append(&VaultOp::Put { record: rec, next_id: next }).unwrap();
            rv.commit_and_ship().unwrap();
        }
        let ReplicatedVault { primary, mut replicas, .. } = rv;
        let p = Vault::recover(primary.into_disk(), 5).unwrap();
        let r = Vault::recover(replicas.remove(0).vault.into_disk(), 5).unwrap();
        assert_eq!(p.store.to_json().unwrap(), reference.to_json().unwrap());
        assert_eq!(r.store.to_json().unwrap(), reference.to_json().unwrap());
    }
}
