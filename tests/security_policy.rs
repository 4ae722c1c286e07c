//! Security experiments: the §3.4 bindings, §5.2 phishing defense, and the
//! §5 attacker scenarios, end to end through the full stack.

use std::collections::HashMap;

use tinman::apps::logins::{build_login_app, LoginAppSpec};
use tinman::apps::malicious::{build_exfiltration_app, build_phishing_app, build_residue_probe};
use tinman::apps::servers::{install_auth_server, AuthServerSpec};
use tinman::cor::{CorStore, PolicyDecision, PolicyRule};
use tinman::core::error::RuntimeError;
use tinman::core::runtime::{Mode, TinmanConfig, TinmanRuntime};
use tinman::sim::{LinkProfile, SimDuration};
use tinman::vm::Value;

const PASSWORD: &str = "hunter2-sUp3r-s3cret";

fn inputs() -> HashMap<String, String> {
    HashMap::from([("username".to_owned(), "alice".to_owned())])
}

/// World with the legitimate PayPal server plus an attacker-controlled
/// server, and the password cor whitelisted for paypal.com only.
fn setup() -> TinmanRuntime {
    let spec = LoginAppSpec::paypal();
    let mut store = CorStore::new(7);
    store.register(PASSWORD, spec.cor_description, &["paypal.com"]).unwrap();
    let mut rt = TinmanRuntime::new(store, LinkProfile::wifi(), TinmanConfig::default());
    let tls = rt.server_tls_config();
    install_auth_server(
        &mut rt.world,
        tls.clone(),
        AuthServerSpec {
            domain: "paypal.com",
            user: "alice",
            password: PASSWORD.to_owned(),
            hash_login: false,
            think: SimDuration::from_millis(100),
            page_bytes: 32_000,
        },
    );
    // The attacker's collection endpoint accepts anything.
    install_auth_server(
        &mut rt.world,
        tls,
        AuthServerSpec {
            domain: "evil.com",
            user: "whatever",
            password: "irrelevant".into(),
            hash_login: false,
            think: SimDuration::from_millis(10),
            page_bytes: 0,
        },
    );
    rt
}

#[test]
fn phishing_app_is_rejected_by_the_app_binding() {
    let mut rt = setup();
    let legit = build_login_app(&LoginAppSpec::paypal());
    // Bind the cor to the legitimate app's image hash.
    let cor = rt.nodes[0].store.ids()[0];
    rt.nodes[0]
        .policy
        .set_rule(cor, PolicyRule { bound_app_hash: Some(legit.hash()), ..Default::default() });

    // The legitimate app logs in fine under the binding.
    let report = rt.run_app(&legit, Mode::TinMan, &inputs()).expect("legit app runs");
    assert_eq!(report.result, Value::Int(1));

    // The phishing app (different hash, same flow) is denied.
    let phish = build_phishing_app("paypal.com", "PayPal password");
    let err = rt.run_app(&phish, Mode::TinMan, &inputs()).unwrap_err();
    assert!(
        matches!(err, RuntimeError::PolicyDenied(PolicyDecision::DeniedAppMismatch)),
        "got {err:?}"
    );
    // The denial is on the audit log.
    assert!(rt.nodes[0]
        .audit
        .abnormal()
        .iter()
        .any(|e| e.decision == PolicyDecision::DeniedAppMismatch));
    // And the password never reached the attacker or the device.
    assert!(rt.scan_residue(PASSWORD).is_clean());
}

#[test]
fn exfiltration_to_unlisted_domain_is_denied() {
    let mut rt = setup();
    let exfil = build_exfiltration_app("evil.com", "PayPal password");
    let err = rt.run_app(&exfil, Mode::TinMan, &inputs()).unwrap_err();
    match err {
        RuntimeError::PolicyDenied(PolicyDecision::DeniedDomain { domain }) => {
            assert_eq!(domain, "evil.com");
        }
        other => panic!("expected domain denial, got {other:?}"),
    }
    assert!(rt.scan_residue(PASSWORD).is_clean());
    // Audit captured the attempt with the target domain.
    let abnormal = rt.nodes[0].audit.abnormal();
    assert!(!abnormal.is_empty());
    assert_eq!(abnormal[0].domain.as_deref(), Some("evil.com"));
}

#[test]
fn auth_endpoint_narrowing_blocks_in_domain_misuse() {
    // §3.4's comment-post attack: the send targets the right domain but
    // not the dedicated authentication endpoint.
    let mut rt = setup();
    // www.paypal.com is a *content* host inside the whitelisted domain.
    let tls = rt.server_tls_config();
    install_auth_server(
        &mut rt.world,
        tls,
        AuthServerSpec {
            domain: "www.paypal.com",
            user: "whatever",
            password: "irrelevant".into(),
            hash_login: false,
            think: SimDuration::from_millis(10),
            page_bytes: 0,
        },
    );
    let cor = rt.nodes[0].store.ids()[0];
    rt.nodes[0].policy.set_rule(
        cor,
        PolicyRule {
            domain_whitelist: vec!["paypal.com".into()],
            auth_endpoints: vec!["paypal.com".into()],
            ..Default::default()
        },
    );
    let misuse = build_exfiltration_app("www.paypal.com", "PayPal password");
    let err = rt.run_app(&misuse, Mode::TinMan, &inputs()).unwrap_err();
    assert!(
        matches!(err, RuntimeError::PolicyDenied(PolicyDecision::DeniedNotAuthEndpoint { .. })),
        "got {err:?}"
    );
}

#[test]
fn stolen_device_revocation_blocks_all_cor_access() {
    let mut rt = setup();
    let app = build_login_app(&LoginAppSpec::paypal());
    // Before revocation: works.
    assert_eq!(rt.run_app(&app, Mode::TinMan, &inputs()).unwrap().result, Value::Int(1));
    // The user reports the phone stolen.
    rt.nodes[0].policy.revoke_device("phone-1");
    let err = rt.run_app(&app, Mode::TinMan, &inputs()).unwrap_err();
    assert!(matches!(err, RuntimeError::PolicyDenied(PolicyDecision::DeniedRevoked)));
    // Un-revoking restores access.
    rt.nodes[0].policy.unrevoke_device("phone-1");
    assert_eq!(rt.run_app(&app, Mode::TinMan, &inputs()).unwrap().result, Value::Int(1));
}

#[test]
fn known_malware_is_refused_before_running() {
    let mut rt = setup();
    let app = build_login_app(&LoginAppSpec::paypal());
    rt.nodes[0].policy.malware_db_mut().add(app.hash());
    let err = rt.run_app(&app, Mode::TinMan, &inputs()).unwrap_err();
    assert!(matches!(err, RuntimeError::MalwareRejected { .. }));
}

#[test]
fn rate_limit_applies_across_logins() {
    let mut rt = setup();
    let app = build_login_app(&LoginAppSpec::paypal());
    let cor = rt.nodes[0].store.ids()[0];
    rt.nodes[0]
        .policy
        .set_rule(cor, PolicyRule { max_uses_per_day: Some(2), ..Default::default() });
    assert!(rt.run_app(&app, Mode::TinMan, &inputs()).is_ok());
    assert!(rt.run_app(&app, Mode::TinMan, &inputs()).is_ok());
    let err = rt.run_app(&app, Mode::TinMan, &inputs()).unwrap_err();
    assert!(matches!(err, RuntimeError::PolicyDenied(PolicyDecision::DeniedRateLimit)));
}

#[test]
fn audit_log_records_allowed_accesses_too() {
    let mut rt = setup();
    let app = build_login_app(&LoginAppSpec::paypal());
    rt.run_app(&app, Mode::TinMan, &inputs()).unwrap();
    let entries = rt.nodes[0].audit.entries();
    assert!(!entries.is_empty());
    assert!(entries.iter().all(|e| e.decision.is_allowed()));
    assert!(entries.iter().any(|e| e.domain.as_deref() == Some("paypal.com")));
    // JSONL export works and contains no plaintext.
    let jsonl = rt.nodes[0].audit.export_jsonl();
    assert!(!jsonl.contains(PASSWORD));
}

#[test]
fn residue_scanner_is_demonstrably_sensitive() {
    // A scanner that reports "clean" is only meaningful if it can find a
    // marker that IS present.
    let mut rt = setup();
    let probe = build_residue_probe("CANARY-0xDEADBEEF");
    let report = rt.run_app(&probe, Mode::TinMan, &inputs()).unwrap();
    assert_eq!(report.result, Value::Int(1));
    let found = rt.scan_residue("CANARY-0xDEADBEEF");
    assert!(found.len() >= 3, "heap + disk + log expected, got {:?}", found.hits);
}

#[test]
fn placeholder_differs_from_cor_but_matches_length() {
    let rt = setup();
    let cor = rt.nodes[0].store.ids()[0];
    let ph = rt.nodes[0].store.placeholder(cor).unwrap();
    assert_eq!(ph.len(), PASSWORD.len(), "§5.1: length is the one unprotected property");
    assert_ne!(ph, PASSWORD);
}
