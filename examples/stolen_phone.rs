//! The threat-model scenario: a stolen phone (§2.3, §5).
//!
//! An attacker with physical control of the device (1) dumps its memory
//! and storage hunting for secrets, and (2) runs the victim's own app to
//! abuse the credentials. TinMan's answer: the dump is empty of cor, and
//! the victim's revocation cuts the device off from the trusted node.
//!
//! ```bash
//! cargo run --example stolen_phone
//! ```

use std::collections::HashMap;

use tinman::apps::logins::{build_login_app, LoginAppSpec};
use tinman::apps::servers::{install_auth_server, AuthServerSpec};
use tinman::cor::{CorStore, PolicyDecision};
use tinman::core::error::RuntimeError;
use tinman::core::runtime::{Mode, TinmanConfig, TinmanRuntime};
use tinman::sim::{LinkProfile, SimDuration};

fn main() {
    let password = "hunter2-sUp3r-s3cret";
    let spec = LoginAppSpec::paypal();

    let mut store = CorStore::new(11);
    store.register(password, spec.cor_description, &[spec.domain]).unwrap();
    let mut rt = TinmanRuntime::new(store, LinkProfile::wifi(), TinmanConfig::default());
    let tls = rt.server_tls_config();
    install_auth_server(
        &mut rt.world,
        tls,
        AuthServerSpec {
            domain: spec.domain,
            user: "alice",
            password: password.to_owned(),
            hash_login: false,
            think: SimDuration::from_millis(200),
            page_bytes: 40_000,
        },
    );

    // The victim used the phone normally this morning.
    let app = build_login_app(&spec);
    let inputs = HashMap::from([("username".to_owned(), "alice".to_owned())]);
    rt.run_app(&app, Mode::TinMan, &inputs).expect("victim's login");
    println!("victim logged in normally.");

    // --- the phone is stolen ---

    // Attack 1: cold-boot-style dump of memory, socket buffers, disk, log.
    let residue = rt.scan_residue(password);
    println!(
        "\n[attack 1] full memory/disk dump scan: {}",
        if residue.is_clean() {
            "NOTHING FOUND — no cor plaintext exists on the device"
        } else {
            "found secrets (bug!)"
        }
    );

    // Attack 2: the thief runs the app (phone unlocked). Before the victim
    // reacts, the trusted node still honours the device... and the thief
    // can log in (cor *abuse* — §5.4 acknowledges this window).
    let report = rt.run_app(&app, Mode::TinMan, &inputs).expect("thief's login");
    println!("\n[attack 2] thief runs the app before revocation: login {:?}", report.result);
    println!("           (the password itself still never touched the phone;");
    println!("            every access is on the audit log and cannot be denied)");

    // The victim notices and revokes the device on the trusted node.
    rt.nodes[0].policy.revoke_device("phone-1");
    match rt.run_app(&app, Mode::TinMan, &inputs) {
        Err(RuntimeError::PolicyDenied(PolicyDecision::DeniedRevoked)) => {
            println!("\n[response] victim revokes the device: further cor access DENIED.");
        }
        other => println!("unexpected: {other:?}"),
    }

    println!(
        "\naudit log had {} entries, {} abnormal.",
        rt.nodes[0].audit.len(),
        rt.nodes[0].audit.abnormal().len()
    );
}
