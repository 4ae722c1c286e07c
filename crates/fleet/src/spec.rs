//! Fleet configuration and deterministic session-spec generation.

use tinman_sim::{SimDuration, SplitMix64};

use crate::failure::FaultPlan;

/// Which application a session runs. The fleet cycles through the three
/// workload families the paper evaluates (§4 case studies + §6 logins).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// One of the Table 3 login apps (index into
    /// `LoginAppSpec::table3()`).
    Login(usize),
    /// The §4.1 BankDroid hash-of-password login.
    Bankdroid,
    /// The §4.2 browser checkout with credit-card cors.
    BrowserCheckout,
}

/// The device's radio link for a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkKind {
    /// Home/office Wi-Fi.
    Wifi,
    /// Cellular 3G.
    ThreeG,
}

/// Everything a worker needs to run one device session, all plain data
/// (`Send`): the runtime itself is constructed inside the worker thread.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Session index, `0..sessions`; doubles as the user identity.
    pub id: u64,
    /// Which app this session runs.
    pub workload: WorkloadKind,
    /// Which link profile the device uses.
    pub link: LinkKind,
    /// Seed for all of this session's randomness (cor plaintexts,
    /// placeholder minting, runtime nonces). Derived from the fleet seed
    /// and `id` only, so results are independent of scheduling.
    pub seed: u64,
    /// Raw tenant number this session belongs to (`id % cfg.tenants`;
    /// 0 when tenancy is disabled). The tenant decides which key
    /// hierarchy seals the session's vault bytes and which
    /// declassification policy governs its flows.
    pub tenant: u64,
}

impl SessionSpec {
    /// The consistent-hash key placing this session's cors on a shard.
    /// Keyed by the user identity *and* tenant, not the arrival order,
    /// so the same user's secrets always live on the same trusted node
    /// and tenants get distinct placement streams (per-tenant
    /// placement). Tenant 0 — including every session when tenancy is
    /// off — preserves the historical single-tenant keying exactly.
    pub fn placement_key(&self) -> u64 {
        SplitMix64::new(
            self.id ^ 0x9e37_79b9_7f4a_7c15 ^ self.tenant.wrapping_mul(0xd6e8_feb8_6659_fd93),
        )
        .next_u64()
    }
}

/// Fleet-wide configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of device sessions to drive.
    pub sessions: usize,
    /// Worker threads executing sessions. Affects wall-clock only; the
    /// simulated aggregate is bit-identical for any worker count.
    pub workers: usize,
    /// Trusted-node shards partitioning the cor label space.
    pub nodes: usize,
    /// Max sessions one node serves concurrently (admission control;
    /// wall-clock only).
    pub node_capacity: usize,
    /// Master seed; every per-session seed derives from it.
    pub seed: u64,
    /// Injected faults (downed nodes, slow links).
    pub faults: FaultPlan,
    /// How many placements a session tries (primary + replicas) before it
    /// is reported failed.
    pub max_attempts: u32,
    /// Base simulated retry backoff; attempt `n` waits `base * 2^n`.
    pub backoff: SimDuration,
    /// Number of tenants sessions are round-robined over. 0 disables
    /// tenancy entirely (the historical single-tenant behaviour,
    /// byte-identical reports included); ≥ 1 turns on per-tenant key
    /// hierarchies, sealed vault audits, the declassification policy
    /// layer, and the attestation gate.
    pub tenants: usize,
    /// Node indices that fail the taint-engine attestation challenge
    /// (they run the asymmetric engine instead of the full one). With
    /// tenancy on, these nodes are refused tenant plaintext placement.
    pub unattested_nodes: Vec<usize>,
    /// Domains every tenant's declassification policy denies (suffix
    /// match). Sessions whose workload targets a denied domain fail
    /// closed with reason `policy_denied`.
    pub tenant_deny: Vec<String>,
    /// Optional per-tenant declassification rate window
    /// `(window_sessions, max_declass)` on the session-id axis.
    pub tenant_window: Option<(u64, u32)>,
    /// Run every session's world as a routed internet (subnets, routers,
    /// NAT in front of the phone, a DNS resolver) instead of the flat
    /// link. Required for the `RouterCrash`/`NatTableFlush`/`DnsOutage`/
    /// `HandoffStorm` chaos families to have any effect.
    pub topology: bool,
    /// Number of regions the node pool is split into behind the
    /// deterministic load-balancer front (round-robin by node index).
    /// 0 or 1 = the flat fleet; ≥ 2 turns on region-salted placement
    /// and region-failover accounting.
    pub regions: u32,
}

impl FleetConfig {
    /// A config with sensible defaults for the given scale.
    pub fn new(sessions: usize, workers: usize) -> Self {
        FleetConfig {
            sessions,
            workers: workers.max(1),
            nodes: 4,
            node_capacity: 8,
            seed: 0x7153_1a2b_3c4d_5e6f,
            faults: FaultPlan::default(),
            max_attempts: 3,
            backoff: SimDuration::from_millis(250),
            tenants: 0,
            unattested_nodes: Vec::new(),
            tenant_deny: Vec::new(),
            tenant_window: None,
            topology: false,
            regions: 1,
        }
    }
}

/// The deterministic spec list for a config: workloads cycle through the
/// families, links and seeds come from per-session streams of the master
/// seed. Independent of worker count and of execution order by
/// construction.
pub fn build_session_specs(cfg: &FleetConfig) -> Vec<SessionSpec> {
    (0..cfg.sessions as u64)
        .map(|id| {
            let mut stream = SplitMix64::new(cfg.seed ^ id.wrapping_mul(0xa076_1d64_78bd_642f));
            let workload = match id % 6 {
                0 => WorkloadKind::Login(0),
                1 => WorkloadKind::Login(1),
                2 => WorkloadKind::Login(2),
                3 => WorkloadKind::Login(3),
                4 => WorkloadKind::Bankdroid,
                _ => WorkloadKind::BrowserCheckout,
            };
            let link = if stream.below(4) == 0 { LinkKind::ThreeG } else { LinkKind::Wifi };
            let tenant = if cfg.tenants == 0 { 0 } else { id % cfg.tenants as u64 };
            SessionSpec { id, workload, link, seed: stream.next_u64(), tenant }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_deterministic_and_cover_all_workloads() {
        let cfg = FleetConfig::new(24, 4);
        let a = build_session_specs(&cfg);
        let b = build_session_specs(&cfg);
        assert_eq!(a.len(), 24);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.workload, y.workload);
            assert_eq!(x.link, y.link);
            assert_eq!(x.seed, y.seed);
        }
        assert!(a.iter().any(|s| s.workload == WorkloadKind::Bankdroid));
        assert!(a.iter().any(|s| s.workload == WorkloadKind::BrowserCheckout));
        assert!(a.iter().any(|s| matches!(s.workload, WorkloadKind::Login(_))));
    }

    #[test]
    fn tenants_round_robin_and_salt_placement() {
        let mut cfg = FleetConfig::new(8, 1);
        cfg.tenants = 3;
        let specs = build_session_specs(&cfg);
        for s in &specs {
            assert_eq!(s.tenant, s.id % 3);
        }
        // Tenant 0 keeps the historical placement key; other tenants
        // get distinct streams.
        let baseline = build_session_specs(&FleetConfig::new(8, 1));
        assert_eq!(specs[0].placement_key(), baseline[0].placement_key());
        assert_ne!(specs[1].placement_key(), baseline[1].placement_key());
    }

    #[test]
    fn different_fleet_seeds_give_different_session_seeds() {
        let mut a = FleetConfig::new(8, 1);
        let mut b = FleetConfig::new(8, 1);
        a.seed = 1;
        b.seed = 2;
        let sa = build_session_specs(&a);
        let sb = build_session_specs(&b);
        assert!(sa.iter().zip(&sb).any(|(x, y)| x.seed != y.seed));
    }
}
