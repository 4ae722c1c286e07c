//! End-to-end tier equivalence: a full TinMan login run, with both the
//! client and the node executing on the block tier (the only tier the
//! runtime has), must produce exactly the report the reference interpreter
//! produced for the same run — the runtime-level face of the `tinman-vm`
//! tier contract — with every retired instruction accounted for by the
//! tier and a clean residue scan.

use std::collections::HashMap;

use tinman::apps::logins::{build_login_app, LoginAppSpec};
use tinman::apps::servers::{install_auth_server, AuthServerSpec};
use tinman::cor::CorStore;
use tinman::core::runtime::{Mode, RunReport, TinmanConfig, TinmanRuntime};
use tinman::dsm::{DsmStats, SyncCause};
use tinman::sim::{LinkProfile, SimDuration};
use tinman::vm::Value;

const PASSWORD: &str = "hunter2-sUp3r-s3cret";

fn run_login() -> (RunReport, TinmanRuntime) {
    let spec = LoginAppSpec::paypal();
    let app = build_login_app(&spec);
    let mut store = CorStore::new(99);
    store.register(PASSWORD, spec.cor_description, &[spec.domain]).expect("label space");
    let mut rt = TinmanRuntime::new(store, LinkProfile::wifi(), TinmanConfig::default());
    let tls = rt.server_tls_config();
    install_auth_server(
        &mut rt.world,
        tls,
        AuthServerSpec {
            domain: spec.domain,
            user: "alice",
            password: PASSWORD.to_owned(),
            hash_login: spec.hash_login,
            think: SimDuration::from_millis(120),
            page_bytes: 64_000,
        },
    );
    let inputs = HashMap::from([("username".to_owned(), "alice".to_owned())]);
    let report = rt.run_app(&app, Mode::TinMan, &inputs).expect("login runs");
    (report, rt)
}

#[test]
fn block_tier_login_matches_the_interpreter_run_exactly() {
    let (report, rt) = run_login();

    // The same login run on the per-opcode interpreter, recorded before
    // the runtime dropped it.
    assert_eq!(report.result, Value::Int(1), "result value");
    assert_eq!(report.latency, SimDuration::from_nanos(2_398_952_067), "simulated latency");
    assert_eq!(report.offloads, 1, "offload count");
    assert_eq!(report.client_methods, 198_137, "client methods");
    assert_eq!(report.node_methods, 10_274, "node methods");
    assert_eq!(
        report.dsm,
        DsmStats {
            sync_count: 2,
            init_bytes: 786_125,
            dirty_bytes: 24_686,
            causes: vec![(SyncCause::OffloadTrigger, 1), (SyncCause::NonOffloadableNative, 1)],
        },
        "DSM stats (sync count, init/dirty bytes, causes)"
    );

    // Every instruction either endpoint retired went through the tier,
    // from one compile of the image shared by both endpoints.
    let t = rt.tier_telemetry();
    assert_eq!(
        t.fast_insns + t.stepped_insns,
        rt.client.machine.stats.instrs + rt.nodes[0].machine.stats.instrs,
        "client and node segments must all run tiered: {t:?}"
    );
    assert!(t.fast_insns > t.stepped_insns, "most instructions retire in blocks: {t:?}");
    assert_eq!(rt.metrics().get("tier.compiles"), 1, "one warm compile");

    // Same security outcome: zero plaintext residue on the device.
    assert!(rt.scan_residue(PASSWORD).is_clean());
}
