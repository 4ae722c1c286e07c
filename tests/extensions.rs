//! Tests for the paper's optional/discussion features implemented beyond
//! the core mechanisms: selective tainting (§3.5), generated passwords
//! (§5.4), and the authentication-token attack window (§5.4).

use std::collections::HashMap;

use tinman::apps::logins::{build_login_app, LoginAppSpec};
use tinman::apps::servers::{install_auth_server, AuthServerSpec};
use tinman::cor::CorStore;
use tinman::core::runtime::{Mode, TinmanConfig, TinmanRuntime};
use tinman::sim::{LinkProfile, SimDuration};
use tinman::vm::Value;

const PASSWORD: &str = "hunter2-sUp3r-s3cret";

fn inputs() -> HashMap<String, String> {
    HashMap::from([("username".to_owned(), "alice".to_owned())])
}

fn world(spec: &LoginAppSpec, config: TinmanConfig) -> TinmanRuntime {
    let mut store = CorStore::new(99);
    store.register(PASSWORD, spec.cor_description, &[spec.domain]).unwrap();
    let mut rt = TinmanRuntime::new(store, LinkProfile::wifi(), config);
    let tls = rt.server_tls_config();
    install_auth_server(
        &mut rt.world,
        tls,
        AuthServerSpec {
            domain: spec.domain,
            user: "alice",
            password: PASSWORD.to_owned(),
            hash_login: false,
            think: SimDuration::from_millis(50),
            page_bytes: 0,
        },
    );
    rt
}

#[test]
fn selective_tainting_critical_app_is_protected() {
    // §3.5: only listed apps run with tainting. The listed app behaves as
    // usual: tainted placeholder, offload, successful login, clean device.
    let spec = LoginAppSpec::github();
    let app = build_login_app(&spec);
    let config = TinmanConfig { critical_apps: Some(vec![app.hash()]), ..TinmanConfig::default() };
    let mut rt = world(&spec, config);
    let report = rt.run_app(&app, Mode::TinMan, &inputs()).expect("critical app runs");
    assert_eq!(report.result, Value::Int(1));
    assert!(report.offloads >= 1);
    assert!(rt.scan_residue(PASSWORD).is_clean());
}

#[test]
fn selective_tainting_untracked_app_pays_nothing_and_protects_nothing() {
    // An app NOT in the critical list runs untracked: zero
    // taint-instrumentation cycles — and if it selects a cor anyway, the
    // placeholder goes out verbatim and the site rejects it. That failure
    // mode is the documented cost of turning tracking off.
    let spec = LoginAppSpec::github();
    let app = build_login_app(&spec);
    let config = TinmanConfig {
        critical_apps: Some(vec![[0u8; 32]]), // some other app
        ..TinmanConfig::default()
    };
    let mut rt = world(&spec, config);
    let report = rt.run_app(&app, Mode::TinMan, &inputs()).expect("untracked app runs");
    assert_eq!(report.result, Value::Int(0), "placeholder sent verbatim; site rejects");
    assert_eq!(report.offloads, 0, "nothing triggers without tracking");
    assert_eq!(
        rt.client.machine.stats.taint_cycles, 0,
        "zero instrumentation cost for non-critical apps"
    );
}

#[test]
fn generated_password_logs_in_without_anyone_typing_it() {
    // §5.4 "Generate New Password": the node mints the secret; the user
    // (and the device) never see it. We provision the site with the
    // generated plaintext — as the "create account" flow would — and then
    // log in through TinMan.
    let spec = LoginAppSpec::github();
    let mut store = CorStore::new(123);
    let id =
        store.generate_password(24, spec.cor_description, &[spec.domain]).expect("label space");
    let generated = store.plaintext(id).unwrap().to_owned();

    let mut rt = TinmanRuntime::new(store, LinkProfile::wifi(), TinmanConfig::default());
    let tls = rt.server_tls_config();
    install_auth_server(
        &mut rt.world,
        tls,
        AuthServerSpec {
            domain: spec.domain,
            user: "alice",
            password: generated.clone(),
            hash_login: false,
            think: SimDuration::from_millis(50),
            page_bytes: 0,
        },
    );
    let app = build_login_app(&spec);
    let report = rt.run_app(&app, Mode::TinMan, &inputs()).expect("login runs");
    assert_eq!(report.result, Value::Int(1));
    assert!(rt.scan_residue(&generated).is_clean(), "the generated secret never hit the phone");
}

#[test]
fn auth_token_window_exists_but_cor_stays_protected() {
    // §5.4 "attack time window": a session token the server returns is NOT
    // a cor — it is visible to the app, it lands on the device, and a
    // thief could reuse it until it expires. TinMan's claim is narrower
    // and holds: the password itself is never exposed, so the token
    // window cannot become password theft (no reuse across sites).
    let spec = LoginAppSpec::github();
    let app = build_login_app(&spec);
    let mut rt = world(&spec, TinmanConfig::default());
    let report = rt.run_app(&app, Mode::TinMan, &inputs()).expect("login runs");
    assert_eq!(report.result, Value::Int(1));

    // The token is on the device (by design: the app must use it).
    let token_residue = rt.scan_residue("token=tk");
    assert!(!token_residue.is_clean(), "the session token is ordinary app data");
    // The password is not.
    assert!(rt.scan_residue(PASSWORD).is_clean());
}

#[test]
fn full_taint_mode_runs_taint_free_workloads_with_higher_cost() {
    // Mode::FullTaint exists for the Figure 13 comparison: on an app that
    // never touches cor it completes with strictly more instrumentation
    // cycles than TinMan's asymmetric client.
    use tinman::apps::malicious::build_residue_probe;
    let probe = build_residue_probe("MARKER-XYZ");
    let spec = LoginAppSpec::github();

    let mut rt = world(&spec, TinmanConfig::default());
    rt.run_app(&probe, Mode::TinMan, &inputs()).expect("asym run");
    let asym_cycles = rt.client.machine.stats.taint_cycles;

    let mut rt = world(&spec, TinmanConfig::default());
    rt.run_app(&probe, Mode::FullTaint, &inputs()).expect("full run");
    let full_cycles = rt.client.machine.stats.taint_cycles;

    assert!(full_cycles > asym_cycles, "full {full_cycles} must exceed asymmetric {asym_cycles}");
}

#[test]
fn anomaly_detection_flags_the_phishing_attempt() {
    // End-to-end: after a legitimate login and a denied phishing attempt,
    // the node-side analysis produces exactly the warnings a user should
    // see — a denial plus the novel app hash.
    use tinman::apps::malicious::build_phishing_app;
    use tinman::cor::{analyze, AnomalyConfig, PolicyRule, Warning};

    let spec = LoginAppSpec::github();
    let app = build_login_app(&spec);
    let mut rt = world(&spec, TinmanConfig::default());
    let cor = rt.nodes[0].store.ids()[0];
    rt.nodes[0]
        .policy
        .set_rule(cor, PolicyRule { bound_app_hash: Some(app.hash()), ..Default::default() });

    rt.run_app(&app, Mode::TinMan, &inputs()).expect("legit login");
    let phish = build_phishing_app(spec.domain, spec.cor_description);
    let _ = rt.run_app(&phish, Mode::TinMan, &inputs()); // denied

    let warnings = analyze(&rt.nodes[0].audit, &AnomalyConfig::default());
    assert!(warnings.iter().any(|w| matches!(w, Warning::Denied { .. })), "{warnings:?}");
    assert!(warnings.iter().any(|w| matches!(w, Warning::NovelApp { .. })), "{warnings:?}");
}

#[test]
fn node_state_survives_a_restart() {
    // Persist the node's store + policy mid-session, rebuild the runtime
    // from the snapshots, and log in again.
    use tinman::cor::PolicyRule;

    let spec = LoginAppSpec::github();
    let app = build_login_app(&spec);
    let mut rt = world(&spec, TinmanConfig::default());
    let cor = rt.nodes[0].store.ids()[0];
    rt.nodes[0]
        .policy
        .set_rule(cor, PolicyRule { bound_app_hash: Some(app.hash()), ..Default::default() });
    rt.run_app(&app, Mode::TinMan, &inputs()).expect("first login");

    // "Restart": serialize, rebuild, restore.
    let store_json = rt.nodes[0].store.to_json().expect("store serializes");
    let policy_snapshot = rt.nodes[0].policy.to_snapshot();
    let restored_store = CorStore::from_json(&store_json, 4242).expect("store restores");
    let mut rt2 = TinmanRuntime::new(restored_store, LinkProfile::wifi(), TinmanConfig::default());
    rt2.nodes[0].policy = tinman::cor::PolicyEngine::from_snapshot(policy_snapshot);
    let tls = rt2.server_tls_config();
    install_auth_server(
        &mut rt2.world,
        tls,
        AuthServerSpec {
            domain: spec.domain,
            user: "alice",
            password: PASSWORD.to_owned(),
            hash_login: false,
            think: SimDuration::from_millis(50),
            page_bytes: 0,
        },
    );
    let report = rt2.run_app(&app, Mode::TinMan, &inputs()).expect("post-restart login");
    assert_eq!(report.result, Value::Int(1));
    assert!(rt2.scan_residue(PASSWORD).is_clean());
}
