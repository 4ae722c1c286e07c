//! Multiple trusted nodes (§5.3): "a user can deploy different trusted
//! nodes for different passwords to avoid putting all eggs in one basket.
//! Further, deploying passwords on multiple sites can also tolerate
//! various kinds of service failure."

use std::collections::HashMap;

use tinman::apps::logins::{build_login_app, LoginAppSpec};
use tinman::apps::servers::{install_auth_server, AuthServerSpec};
use tinman::cor::{CorStore, PolicyDecision};
use tinman::core::error::RuntimeError;
use tinman::core::runtime::{Mode, TinmanConfig, TinmanRuntime};
use tinman::guard::{GuardPolicy, KillReason};
use tinman::sim::{LinkProfile, SimDuration, SimTime};
use tinman::vm::{MachineStatus, Value};

const WORK_PASSWORD: &str = "employer-vault-secret";
const PERSONAL_PASSWORD: &str = "personal-social-secret";

fn inputs() -> HashMap<String, String> {
    HashMap::from([("username".to_owned(), "alice".to_owned())])
}

/// Two trusted nodes: the employer's (labels 0..32, holds the work
/// password for github.com) and a personal one (labels 32..64, holds the
/// personal password for askfm.com). Both sites installed.
fn setup() -> TinmanRuntime {
    // Employer node: the primary.
    let mut work_store = CorStore::with_label_range(11, 0, 32).unwrap();
    work_store.register(WORK_PASSWORD, "GitHub password", &["github.com"]).unwrap();
    let mut rt = TinmanRuntime::new(work_store, LinkProfile::wifi(), TinmanConfig::default());

    // Personal node: disjoint label range.
    let mut personal_store = CorStore::with_label_range(22, 32, 64).unwrap();
    personal_store.register(PERSONAL_PASSWORD, "Ask.fm password", &["askfm.com"]).unwrap();
    let idx = rt.add_trusted_node("personal-node", personal_store);
    assert_eq!(idx, 1);

    let tls = rt.server_tls_config();
    for (domain, password) in [("github.com", WORK_PASSWORD), ("askfm.com", PERSONAL_PASSWORD)] {
        install_auth_server(
            &mut rt.world,
            tls.clone(),
            AuthServerSpec {
                domain,
                user: "alice",
                password: password.to_owned(),
                hash_login: false,
                think: SimDuration::from_millis(50),
                page_bytes: 0,
            },
        );
    }
    rt
}

#[test]
fn each_login_routes_to_its_own_node() {
    let mut rt = setup();
    let github = build_login_app(&LoginAppSpec::github());
    let askfm = build_login_app(&LoginAppSpec::askfm());

    // Work login: served by the primary (employer) node.
    let r1 = rt.run_app(&github, Mode::TinMan, &inputs()).expect("github login");
    assert_eq!(r1.result, Value::Int(1));
    assert!(!rt.nodes[0].audit.is_empty(), "employer node audited the access");
    assert!(rt.nodes[1].audit.is_empty(), "personal node saw nothing");

    // Personal login: served by the personal node.
    let r2 = rt.run_app(&askfm, Mode::TinMan, &inputs()).expect("askfm login");
    assert_eq!(r2.result, Value::Int(1));
    assert!(!rt.nodes[1].audit.is_empty(), "personal node audited the access");

    // Neither secret ever touched the phone.
    assert!(rt.scan_residue(WORK_PASSWORD).is_clean());
    assert!(rt.scan_residue(PERSONAL_PASSWORD).is_clean());
}

#[test]
fn personal_secrets_never_reach_the_employer_node() {
    // The §5.3 privacy motivation: the employer's node must not learn the
    // personal password, even as a derived cor.
    let mut rt = setup();
    let askfm = build_login_app(&LoginAppSpec::askfm());
    rt.run_app(&askfm, Mode::TinMan, &inputs()).expect("askfm login");

    // All derived cors from the personal login live in the personal
    // node's store, none in the employer's.
    assert_eq!(rt.nodes[0].store.len(), 1, "employer store holds only the work password");
    assert!(rt.nodes[1].store.len() > 1, "personal store gained derived cors");
    // And the employer's store has no record whose plaintext embeds the
    // personal password.
    assert!(rt.nodes[0].store.find_by_plaintext(PERSONAL_PASSWORD).is_none());
}

#[test]
fn revoking_one_node_leaves_the_other_usable() {
    // Service failure / compromise of one basket: the other keeps working.
    let mut rt = setup();
    let github = build_login_app(&LoginAppSpec::github());
    let askfm = build_login_app(&LoginAppSpec::askfm());

    // The employer revokes the device on ITS node only.
    rt.nodes[0].policy.revoke_device("phone-1");

    let err = rt.run_app(&github, Mode::TinMan, &inputs()).unwrap_err();
    assert!(matches!(err, RuntimeError::PolicyDenied(PolicyDecision::DeniedRevoked)));

    let ok = rt.run_app(&askfm, Mode::TinMan, &inputs()).expect("personal login unaffected");
    assert_eq!(ok.result, Value::Int(1));
}

#[test]
fn directory_lists_cors_from_all_nodes() {
    let rt = setup();
    assert!(rt.client.directory.find_by_description("GitHub password").is_some());
    assert!(rt.client.directory.find_by_description("Ask.fm password").is_some());
    // The merged directory still contains no plaintext.
    assert!(!rt.client.directory.contains_text(WORK_PASSWORD));
    assert!(!rt.client.directory.contains_text(PERSONAL_PASSWORD));
}

#[test]
fn warm_caches_are_per_node() {
    let mut rt = setup();
    let github = build_login_app(&LoginAppSpec::github());
    let askfm = build_login_app(&LoginAppSpec::askfm());
    rt.run_app(&github, Mode::TinMan, &inputs()).unwrap();
    assert!(rt.nodes[0].is_warm(&github.hash()));
    assert!(!rt.nodes[1].is_warm(&askfm.hash()), "other node still cold");
    rt.run_app(&askfm, Mode::TinMan, &inputs()).unwrap();
    assert!(rt.nodes[1].is_warm(&askfm.hash()));
    assert!(!rt.nodes[0].is_warm(&askfm.hash()), "employer node never saw the personal app");
}

#[test]
fn guard_kill_on_a_secondary_node_scrubs_that_node() {
    // The askfm login offloads to node 1; an impossible deadline kills the
    // guest there, before its first node segment.
    let mut rt = setup();
    rt.set_guard(GuardPolicy {
        deadline: Some(SimDuration::from_nanos(1)),
        ..GuardPolicy::unlimited()
    });
    let askfm = build_login_app(&LoginAppSpec::askfm());
    match rt.run_app(&askfm, Mode::TinMan, &inputs()) {
        Err(RuntimeError::GuestKilled { reason }) => assert_eq!(reason, KillReason::Deadline),
        other => panic!("expected a deadline kill, got {other:?}"),
    }
    assert_eq!(rt.nodes[1].machine.status, MachineStatus::Faulted, "node 1 ran the guest");
    assert_ne!(rt.nodes[0].machine.status, MachineStatus::Faulted, "node 0 was never touched");
    assert!(rt.scan_node_residue(PERSONAL_PASSWORD).is_empty());
}

#[test]
fn drain_on_a_secondary_node_checkpoints_that_node() {
    let mut rt = setup();
    rt.set_drain_at(
        SimTime::ZERO + SimDuration::from_millis(1),
        vec![PERSONAL_PASSWORD.to_owned()],
    );
    let askfm = build_login_app(&LoginAppSpec::askfm());
    let err = rt.run_app(&askfm, Mode::TinMan, &inputs()).unwrap_err();
    assert!(matches!(err, RuntimeError::NodeDraining { node: 1, .. }), "{err:?}");
    let cp = rt.take_node_checkpoint().expect("a drained run leaves a checkpoint");
    assert_eq!(cp.node, 1);
    assert_eq!(cp.scrub.node, 1);
    assert_eq!(cp.scrub.residue, 0, "the scrub left no session secret behind");
    cp.restore().expect("an intact checkpoint restores");
    assert!(rt.nodes[1].machine.scan_residue(PERSONAL_PASSWORD).is_empty());
    assert!(rt.nodes[1].machine.frames.is_empty(), "node 1's stack is torn down");
}
