//! Worker-side session execution: builds a hermetic TinMan world for one
//! device session and runs its workload to completion.
//!
//! Everything here is a pure function of the [`SessionSpec`] plus the
//! placement decided by the pool — runtimes are constructed inside the
//! worker thread (they are not `Send` and never need to be), and two
//! executions of the same spec on the same shard produce identical
//! simulated results on any thread.

use std::collections::{HashMap, HashSet};

use sha2::{Digest, Sha256};
use tinman_apps::bankdroid::{build_bankdroid, SAMPLE_TRANSACTIONS};
use tinman_apps::browser::build_browser_checkout;
use tinman_apps::logins::{build_login_app, LoginAppSpec};
use tinman_apps::servers::{install_auth_server, install_payment_server, AuthServerSpec};
use tinman_cor::CorStore;
use tinman_core::runtime::{RunReport, TinmanConfig, TinmanRuntime};
use tinman_core::server::HttpsServerApp;
use tinman_guard::KillReason;
use tinman_net::{Addr, NetWorld};
use tinman_obs::TraceHandle;
use tinman_sim::{LinkProfile, SimDuration, SplitMix64};
use tinman_tls::TlsConfig;
use tinman_vm::{AppImage, Value};

use crate::failure::FleetError;
use crate::spec::{LinkKind, SessionSpec, WorkloadKind};

/// What one session contributed to the fleet, all plain data. The
/// simulated fields depend only on (spec, shard, link) — never on worker
/// count or wall-clock interleaving. The default is an unserved session
/// with every counter at zero.
#[derive(Clone, Debug, Default)]
pub struct SessionOutcome {
    /// The session this outcome belongs to.
    pub id: u64,
    /// Shard that ultimately served the session (`None` if every attempt
    /// found its node down).
    pub node: Option<usize>,
    /// Placements tried (1 = primary served it directly).
    pub attempts: u32,
    /// Whether the workload completed with its expected result.
    pub success: bool,
    /// End-to-end simulated latency, including retry backoff.
    pub latency: SimDuration,
    /// Client→node execution migrations.
    pub offloads: u64,
    /// Method invocations on the trusted node.
    pub node_methods: u64,
    /// Method invocations on the client.
    pub client_methods: u64,
    /// DSM synchronizations.
    pub dsm_syncs: u64,
    /// Client battery energy, microjoules.
    pub energy_uj: u64,
    /// Client radio bytes sent.
    pub tx_bytes: u64,
    /// Client radio bytes received.
    pub rx_bytes: u64,
    /// Checkpoint/replay resumptions after a mid-session crash.
    pub replays: u32,
    /// True if the session exhausted its retry/deadline budget and
    /// degraded to a placeholder-only failure (never leaked a cor).
    pub fail_closed: bool,
    /// Unique payload-replacement deliveries the origin server accepted.
    pub deliveries: u64,
    /// Re-sent deliveries the origin server's dedup suppressed.
    pub duplicate_deliveries: u64,
    /// Cor byte sequences found on a device host by the post-run residue
    /// scan. Must be zero; counted so the invariant is checkable.
    pub residue_violations: u64,
    /// Vault recoveries the session's durability audits ran (one per
    /// attempt that was not guard-killed).
    pub vault_recoveries: u64,
    /// Torn WAL tails those recoveries truncated away.
    pub torn_tail_repairs: u64,
    /// Lost-cor incidents: a recovered store diverged from its
    /// committed-prefix reference. Must be zero.
    pub lost_cors: u64,
    /// LSNs anti-entropy replayed to lagging replicas on this session's
    /// behalf (the catch-up cost is charged into `latency`).
    pub vault_catchup_lsns: u64,
    /// Session secrets found in vault durable bytes (node side — expected
    /// positive under chaos; plaintext belongs on the trusted node).
    pub wal_plaintexts: u64,
    /// Session secrets found in vault bytes *and* on a device surface.
    /// Must be zero: durability never widens exposure toward the device.
    pub wal_device_leaks: u64,
    /// 1 when the tenant declassification policy denied this session's
    /// flow and it failed closed before any attempt ran.
    pub policy_denials: u64,
    /// Sealed vault bytes a *foreign* tenant's keys could authenticate
    /// in this session's durability audit. Must be zero: tenant key
    /// hierarchies are cryptographically disjoint.
    pub cross_tenant_residue: u64,
    /// Placement attempts refused because the candidate node failed the
    /// taint-engine attestation challenge (tenancy on only).
    pub unattested_refusals: u64,
    /// Tenant key rotations this session paid the re-encryption cost
    /// for (0 or 1).
    pub tenant_key_rotations: u64,
    /// Why the guard killed this session's guest (`None` if it was not
    /// killed). A kill is terminal: the node heap was scrubbed and the
    /// session failed closed without retries.
    pub guest_kill: Option<KillReason>,
    /// True if guard admission shed this session (reason `overloaded`)
    /// before any attempt ran.
    pub shed: bool,
    /// Mid-session mobility handoffs the session's world applied
    /// (topology runs only).
    pub handoffs: u64,
    /// Untrusted-wire segments whose source the NAT gateway rewrote.
    pub nat_rewrites: u64,
    /// NAT bindings transparently re-punched after a handoff.
    pub nat_rebinds: u64,
    /// DNS lookups that failed closed inside an outage window.
    pub dns_faults: u64,
    /// Segments dropped by routing (router down / firewall deny).
    pub route_drops: u64,
    /// Live migrations: checkpointed hand-offs of this session's
    /// in-flight guest from a draining or dying node to a peer.
    pub migrations: u64,
    /// The subset of `migrations` triggered by a *planned* drain (the
    /// source node checkpointed voluntarily at a sync point).
    pub evacuations: u64,
    /// 1 when the session was ultimately served outside its home region
    /// (always 0 on a single-region fleet).
    pub region_failovers: u64,
    /// Cor bytes found on a source node's heap *after* its migration
    /// scrub. Must be zero: a node hands off its guest clean or not at
    /// all.
    pub migration_residue: u64,
    /// True when the session failed closed because no attested,
    /// caught-up, policy-admissible target existed inside its deadline
    /// after a migration (reason `no_region`).
    pub no_region: bool,
}

impl SessionOutcome {
    /// Marks the session served by `node` with end-to-end `latency`,
    /// folding in the run report's simulated totals.
    pub fn serve(&mut self, node: usize, latency: SimDuration, report: &RunReport) {
        self.node = Some(node);
        self.success = true;
        self.latency = latency;
        self.offloads = report.offloads;
        self.node_methods = report.node_methods;
        self.client_methods = report.client_methods;
        self.dsm_syncs = report.dsm.sync_count;
        self.energy_uj = report.energy.as_microjoules();
        self.tx_bytes = report.traffic.tx_bytes;
        self.rx_bytes = report.traffic.rx_bytes;
    }
}

/// The base link profile for a session's radio.
pub fn base_link(kind: LinkKind) -> LinkProfile {
    match kind {
        LinkKind::Wifi => LinkProfile::wifi(),
        LinkKind::ThreeG => LinkProfile::three_g(),
    }
}

pub(crate) fn session_inputs() -> HashMap<String, String> {
    HashMap::from([
        ("username".to_owned(), "alice".to_owned()),
        ("amount".to_owned(), "99.95".to_owned()),
    ])
}

/// The per-session derivation stream plus the cor store it seeds. Cors
/// are registered into the store *before* the runtime is built (they are
/// provisioned "in a safe environment in advance", §2.3).
///
/// Fails with [`FleetError::BadLabelRange`] instead of panicking: pool
/// shards carry valid ranges by construction, but membership makes a
/// decommissioned or mis-sliced shard a reachable runtime state and the
/// executor must degrade it to a failover, not abort the worker.
pub(crate) fn session_store(
    spec: &SessionSpec,
    labels: (u8, u8),
) -> Result<(CorStore, SplitMix64, u64), FleetError> {
    let mut stream = SplitMix64::new(spec.seed);
    let store_seed = stream.next_u64();
    let runtime_seed = stream.next_u64();
    let store = CorStore::with_label_range(store_seed, labels.0, labels.1).map_err(|e| {
        FleetError::BadLabelRange { start: labels.0, end: labels.1, reason: e.to_string() }
    })?;
    Ok((store, stream, runtime_seed))
}

/// Network shape for a session world. The default — flat link, no
/// retries — reproduces the historical worlds byte-for-byte.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionNet {
    /// Build the session's world as a routed internet (subnets, routers,
    /// NAT in front of the phone, DNS) instead of the flat link.
    pub topology: bool,
    /// Bounded DSM re-sync retries after a sync timeout (mobility
    /// blackout recovery); 0 surfaces the timeout immediately.
    pub resync_retries: u32,
}

pub(crate) fn session_runtime(
    store: CorStore,
    link: LinkProfile,
    runtime_seed: u64,
    trace: &TraceHandle,
    track: u64,
    net: SessionNet,
) -> TinmanRuntime {
    let config = TinmanConfig {
        seed: runtime_seed,
        topology: net.topology,
        resync_retries: net.resync_retries,
        ..TinmanConfig::default()
    };
    let mut rt = TinmanRuntime::new(store, link, config);
    if trace.is_enabled() {
        rt.set_trace(trace.clone(), track);
    }
    rt
}

/// A bank that expects `sha256(password)` and serves transactions after a
/// successful login on the same connection (the §4.1 server, stateful).
fn install_bank_server(
    world: &mut NetWorld,
    tls: TlsConfig,
    domain: &'static str,
    password: &str,
    think: SimDuration,
) {
    let expected_hash: String =
        Sha256::digest(password.as_bytes()).iter().map(|b| format!("{b:02x}")).collect();
    let mut authed: HashSet<Addr> = HashSet::new();
    let app = HttpsServerApp::new(tls, move |peer: Addr, request: &str| {
        if request.starts_with("GET /transactions") {
            if authed.contains(&peer) {
                (SAMPLE_TRANSACTIONS.to_owned(), think)
            } else {
                ("401 UNAUTHENTICATED".to_owned(), SimDuration::from_millis(10))
            }
        } else {
            let user = request.split('&').find_map(|kv| kv.strip_prefix("user=")).unwrap_or("");
            let pass = request.split('&').find_map(|kv| kv.strip_prefix("pass=")).unwrap_or("");
            if user == "alice" && pass == expected_hash {
                authed.insert(peer);
                ("200 OK welcome".to_owned(), think)
            } else {
                ("403 FORBIDDEN".to_owned(), SimDuration::from_millis(20))
            }
        }
    });
    let host = world.add_host(domain, LinkProfile::ethernet());
    world.install_server(Addr::new(host, 443), Box::new(app));
}

/// A fully built, not-yet-run session world: the hermetic runtime with
/// its origin server installed, the workload's app image, and the secret
/// plaintexts the post-run residue scan must never find on a device host.
///
/// Splitting construction from execution is what makes checkpoint/replay
/// possible: the fleet executor rebuilds the identical world on a replica
/// (same spec ⇒ same secrets, same server, same app) and re-runs it.
pub struct SessionWorld {
    /// The hermetic per-session runtime (client, node, servers, clock).
    pub rt: TinmanRuntime,
    /// The workload's app image.
    pub app: AppImage,
    /// Stable workload name for error messages.
    pub workload: &'static str,
    /// Every cor plaintext this session registered.
    pub secrets: Vec<String>,
}

/// Builds the hermetic world for one session without running it: derives
/// the session's cors, registers them in a store scoped to the shard's
/// label range, installs the origin server, and assembles the app image.
pub fn build_session_world(
    spec: &SessionSpec,
    labels: (u8, u8),
    link: LinkProfile,
    trace: &TraceHandle,
) -> Result<SessionWorld, String> {
    build_session_world_net(spec, labels, link, trace, SessionNet::default())
}

/// [`build_session_world`] with an explicit network shape: a routed
/// topology (NAT, routers, DNS) and/or bounded re-sync retries. The
/// default shape reproduces [`build_session_world`] exactly.
pub fn build_session_world_net(
    spec: &SessionSpec,
    labels: (u8, u8),
    link: LinkProfile,
    trace: &TraceHandle,
    net: SessionNet,
) -> Result<SessionWorld, String> {
    match spec.workload {
        WorkloadKind::Login(idx) => {
            let apps = LoginAppSpec::table3();
            let login = &apps[idx % apps.len()];
            let (mut store, mut stream, runtime_seed) =
                session_store(spec, labels).map_err(|e| e.to_string())?;
            let password = stream.alphanumeric(16);
            store
                .register(&password, login.cor_description, &[login.domain])
                .ok_or_else(|| "label space exhausted".to_owned())?;
            let mut rt = session_runtime(store, link, runtime_seed, trace, spec.id, net);
            let tls = rt.server_tls_config();
            install_auth_server(
                &mut rt.world,
                tls,
                AuthServerSpec {
                    domain: login.domain,
                    user: "alice",
                    password: password.clone(),
                    hash_login: login.hash_login,
                    think: SimDuration::from_millis(300),
                    page_bytes: 60_000,
                },
            );
            let app = build_login_app(login);
            Ok(SessionWorld { rt, app, workload: login.name, secrets: vec![password] })
        }
        WorkloadKind::Bankdroid => {
            let (mut store, mut stream, runtime_seed) =
                session_store(spec, labels).map_err(|e| e.to_string())?;
            let password = stream.alphanumeric(16);
            store
                .register(&password, "Citibank password", &["citibank.com"])
                .ok_or_else(|| "label space exhausted".to_owned())?;
            let mut rt = session_runtime(store, link, runtime_seed, trace, spec.id, net);
            let tls = rt.server_tls_config();
            install_bank_server(
                &mut rt.world,
                tls,
                "citibank.com",
                &password,
                SimDuration::from_millis(150),
            );
            let app = build_bankdroid("citibank.com", "Citibank password");
            Ok(SessionWorld { rt, app, workload: "bankdroid", secrets: vec![password] })
        }
        WorkloadKind::BrowserCheckout => {
            let (mut store, mut stream, runtime_seed) =
                session_store(spec, labels).map_err(|e| e.to_string())?;
            let mut card = String::with_capacity(16);
            for _ in 0..16 {
                card.push(char::from(b'0' + stream.below(10) as u8));
            }
            let mut cvv = String::with_capacity(3);
            for _ in 0..3 {
                cvv.push(char::from(b'0' + stream.below(10) as u8));
            }
            store
                .register(&card, "Visa card number", &["shop.com"])
                .ok_or_else(|| "label space exhausted".to_owned())?;
            store
                .register(&cvv, "Visa security code", &["shop.com"])
                .ok_or_else(|| "label space exhausted".to_owned())?;
            let mut rt = session_runtime(store, link, runtime_seed, trace, spec.id, net);
            let tls = rt.server_tls_config();
            install_payment_server(
                &mut rt.world,
                tls,
                "shop.com",
                &card,
                &cvv,
                SimDuration::from_millis(200),
            );
            let app = build_browser_checkout("shop.com", "Visa card number", "Visa security code");
            Ok(SessionWorld { rt, app, workload: "browser-checkout", secrets: vec![card, cvv] })
        }
    }
}

pub(crate) fn expect_success(report: &RunReport, workload: &str) -> Result<(), String> {
    if report.result == Value::Int(1) {
        Ok(())
    } else {
        Err(format!("{workload} finished with {:?}, expected Int(1)", report.result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FleetConfig, SessionSpec};
    use tinman_core::runtime::Mode;

    fn spec(id: u64, workload: WorkloadKind) -> SessionSpec {
        SessionSpec { id, workload, link: LinkKind::Wifi, seed: 42 + id, tenant: 0 }
    }

    fn run_session(
        spec: &SessionSpec,
        labels: (u8, u8),
        link: LinkProfile,
    ) -> Result<RunReport, String> {
        let mut world = build_session_world(spec, labels, link, &TraceHandle::noop())?;
        let report = world
            .rt
            .run_app(&world.app, Mode::TinMan, &session_inputs())
            .map_err(|e| e.to_string())?;
        expect_success(&report, world.workload)?;
        Ok(report)
    }

    #[test]
    fn every_workload_family_completes() {
        for (i, w) in [
            WorkloadKind::Login(0),
            WorkloadKind::Login(2),
            WorkloadKind::Bankdroid,
            WorkloadKind::BrowserCheckout,
        ]
        .into_iter()
        .enumerate()
        {
            let s = spec(i as u64, w);
            let report = run_session(&s, (0, 16), LinkProfile::wifi()).expect("session runs");
            assert!(report.offloads >= 1, "{w:?} offloaded");
        }
    }

    #[test]
    fn same_spec_same_shard_is_bit_identical() {
        let s = spec(7, WorkloadKind::Bankdroid);
        let a = run_session(&s, (16, 32), LinkProfile::wifi()).unwrap();
        let b = run_session(&s, (16, 32), LinkProfile::wifi()).unwrap();
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.offloads, b.offloads);
        assert_eq!(a.traffic.tx_bytes, b.traffic.tx_bytes);
        assert_eq!(a.energy.as_microjoules(), b.energy.as_microjoules());
    }

    #[test]
    fn specs_from_config_all_run() {
        let cfg = FleetConfig::new(6, 1);
        for s in crate::spec::build_session_specs(&cfg) {
            let link = base_link(s.link);
            run_session(&s, (0, 16), link).expect("config-derived session runs");
        }
    }
}
