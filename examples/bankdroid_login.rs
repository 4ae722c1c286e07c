//! The §4.1 BankDroid case study as a runnable scenario.
//!
//! The bank requires `sha256(password)` for login. Hashing the placeholder
//! is the offload trigger; the hash the trusted node computes becomes a
//! *derived cor* with its own placeholder, so neither the password nor its
//! hash ever exists on the phone — while the transaction history the app
//! then fetches is ordinary private data, displayed and cached in
//! plaintext.
//!
//! ```bash
//! cargo run --example bankdroid_login
//! ```

use std::collections::HashMap;

use sha2::{Digest, Sha256};
use tinman::apps::bankdroid::build_bankdroid;
use tinman::apps::servers::{install_auth_server, AuthServerSpec};
use tinman::cor::CorStore;
use tinman::core::runtime::{Mode, TinmanConfig, TinmanRuntime};
use tinman::sim::{LinkProfile, SimDuration};

fn main() {
    let password = "correct-horse-battery";

    let mut store = CorStore::new(7);
    store.register(password, "Citibank password", &["citibank.com"]).unwrap();

    let mut rt = TinmanRuntime::new(store, LinkProfile::wifi(), TinmanConfig::default());
    let tls = rt.server_tls_config();
    install_auth_server(
        &mut rt.world,
        tls,
        AuthServerSpec {
            domain: "citibank.com",
            user: "alice",
            password: password.to_owned(),
            hash_login: true, // the bank checks sha256(password)
            think: SimDuration::from_millis(400),
            page_bytes: 30_000,
        },
    );

    let app = build_bankdroid("citibank.com", "Citibank password");
    let inputs = HashMap::from([("username".to_owned(), "alice".to_owned())]);
    let report = rt.run_app(&app, Mode::TinMan, &inputs).expect("bankdroid runs");

    println!("login result: {:?}", report.result);
    println!("cors on the trusted node now: {} (original + derived)", rt.nodes[0].store.len());

    // Neither the password nor its hash is on the device.
    let hash_hex: String =
        Sha256::digest(password.as_bytes()).iter().map(|b| format!("{b:02x}")).collect();
    println!(
        "password residue: {}",
        if rt.scan_residue(password).is_clean() { "none" } else { "FOUND" }
    );
    println!(
        "hash residue:     {} (the hash is a derived cor)",
        if rt.scan_residue(&hash_hex).is_clean() { "none" } else { "FOUND" }
    );

    // The device log shows what the user saw.
    println!("\ndevice log:");
    for line in &rt.client.device_log {
        let shown: String = line.chars().take(72).collect();
        println!("  | {shown}");
    }

    // The audit trail on the trusted node.
    println!("\ntrusted-node audit log ({} entries):", rt.nodes[0].audit.len());
    for e in rt.nodes[0].audit.entries() {
        println!(
            "  | t={:.2}s cor={:?} domain={:?} decision={:?}",
            e.time.as_secs_f64(),
            e.cor,
            e.domain,
            e.decision
        );
    }
}
