//! The trusted node.

use std::collections::HashSet;

use tinman_cor::{AuditLog, CorStore, PolicyEngine};
use tinman_dsm::DsmEngine;
use tinman_net::HostId;
use tinman_sim::DeviceProfile;
use tinman_taint::TaintEngine;
use tinman_vm::Machine;

/// The trusted node: cor store, policy, audit, the mirrored execution
/// environment offloaded threads run in, and the DSM engine that syncs it
/// with the client.
pub struct TrustedNode {
    /// The node's identity in the simulated world.
    pub host: HostId,
    /// All cor plaintexts, placeholders, and derived cors.
    pub store: CorStore,
    /// The §3.4 policy engine (bindings, revocation, malware DB, limits).
    pub policy: PolicyEngine,
    /// The append-only access log.
    pub audit: AuditLog,
    /// The mirrored VM thread (populated by DSM migration).
    pub machine: Machine,
    /// The full (TaintDroid-grade) taint engine.
    pub engine: TaintEngine,
    /// The offloading engine between the client and this node.
    pub dsm: DsmEngine,
    /// App images already uploaded ("warm" dex cache, §6.2) keyed by image
    /// hash.
    pub warm_apps: HashSet<[u8; 32]>,
    /// Compute profile (the i5 PC).
    pub profile: DeviceProfile,
}

impl TrustedNode {
    /// A fresh node around an existing cor store.
    pub fn new(host: HostId, store: CorStore) -> Self {
        TrustedNode {
            host,
            store,
            policy: PolicyEngine::new(),
            audit: AuditLog::new(),
            machine: Machine::new(),
            engine: TaintEngine::full(),
            dsm: DsmEngine::new(),
            warm_apps: HashSet::new(),
            profile: DeviceProfile::trusted_pc(),
        }
    }

    /// True if the app image was already uploaded.
    pub fn is_warm(&self, app_hash: &[u8; 32]) -> bool {
        self.warm_apps.contains(app_hash)
    }

    /// Marks an app image uploaded.
    pub fn mark_warm(&mut self, app_hash: [u8; 32]) {
        self.warm_apps.insert(app_hash);
    }

    /// Resets the mirrored machine and the DSM engine for a fresh app run
    /// (warm caches and the store survive).
    pub fn reset_for_run(&mut self) {
        self.machine = Machine::new();
        self.engine = TaintEngine::full();
        self.dsm = DsmEngine::new();
    }

    /// Scrubs the guest's heap and tears down its stack, so no cor byte
    /// survives for a §5.1 dump to find.
    pub(crate) fn scrub_guest(&mut self) {
        self.machine.heap.scrub();
        self.machine.frames.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_cache_tracks_uploads() {
        let mut n = TrustedNode::new(HostId(1), CorStore::new(1));
        let h = [7u8; 32];
        assert!(!n.is_warm(&h));
        n.mark_warm(h);
        assert!(n.is_warm(&h));
        n.reset_for_run();
        assert!(n.is_warm(&h), "warm cache survives runs");
    }
}
