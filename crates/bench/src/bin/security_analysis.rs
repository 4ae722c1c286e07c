//! Security analysis harness (§5 and §3.2 / Figure 7).
//!
//! Reproduces the paper's attacker scenarios as observable experiments:
//!
//! 1. **memory/disk scan** (§5.1): a full device residue scan after a
//!    TinMan login finds nothing, while the identical scan on stock
//!    Android finds the password in heap and on disk;
//! 2. **phishing / exfiltration** (§5.2, §3.4): the app binding and the
//!    domain whitelist stop both, with audit evidence;
//! 3. **implicit-IV leakage** (Figure 7): the plaintext-recovery
//!    computation succeeds against TLS 1.0 chaining, and the TinMan
//!    client's version floor refuses the handshake that would permit it;
//! 4. **revocation** (§3.4): a stolen device loses all cor access.

use std::collections::HashMap;

use tinman_apps::logins::{build_login_app, LoginAppSpec};
use tinman_apps::malicious::{build_exfiltration_app, build_phishing_app};
use tinman_apps::servers::{install_auth_server, AuthServerSpec};
use tinman_bench::{banner, emit_json, harness_inputs, login_world, HARNESS_PASSWORD};
use tinman_cor::{PolicyDecision, PolicyRule};
use tinman_core::error::RuntimeError;
use tinman_core::runtime::Mode;
use tinman_sim::{LinkProfile, SimDuration};
use tinman_tls::attack::demo_implicit_iv_leak;
use tinman_tls::cipher::Xtea;
use tinman_tls::{Handshake, TlsConfig, TlsError};

fn check(name: &str, ok: bool) -> bool {
    println!("  [{}] {name}", if ok { "PASS" } else { "FAIL" });
    ok
}

fn main() {
    banner("Security analysis — §5 attacker scenarios", "TinMan (EuroSys'15) §5, §3.2 Fig 7");
    let mut all = true;
    let spec = LoginAppSpec::paypal();
    let app = build_login_app(&spec);
    let inputs = harness_inputs();

    // 1. Residue scan: TinMan vs stock.
    println!("\n[1] §5.1 — cor residue scan after login");
    let mut rt = login_world(&spec, LinkProfile::wifi());
    rt.run_app(&app, Mode::TinMan, &inputs).expect("tinman login");
    all &= check("TinMan device scans clean", rt.scan_residue(HARNESS_PASSWORD).is_clean());

    let mut rt = login_world(&spec, LinkProfile::wifi());
    let secrets = HashMap::from([(spec.cor_description.to_owned(), HARNESS_PASSWORD.to_owned())]);
    rt.run_app(&app, Mode::Stock(secrets), &inputs).expect("stock login");
    let stock_hits = rt.scan_residue(HARNESS_PASSWORD).len();
    all &= check(&format!("stock Android leaves residue ({stock_hits} sites)"), stock_hits > 0);

    // 2. Phishing + exfiltration.
    println!("\n[2] §5.2 / §3.4 — phishing app and exfiltration");
    let mut rt = login_world(&spec, LinkProfile::wifi());
    let cor = rt.nodes[0].store.ids()[0];
    rt.nodes[0]
        .policy
        .set_rule(cor, PolicyRule { bound_app_hash: Some(app.hash()), ..Default::default() });
    let phish = build_phishing_app(spec.domain, spec.cor_description);
    let denied = matches!(
        rt.run_app(&phish, Mode::TinMan, &inputs),
        Err(RuntimeError::PolicyDenied(PolicyDecision::DeniedAppMismatch))
    );
    all &= check("phishing app denied by app-hash binding", denied);
    all &= check("denial is on the audit log", !rt.nodes[0].audit.abnormal().is_empty());

    let mut rt = login_world(&spec, LinkProfile::wifi());
    let tls = rt.server_tls_config();
    install_auth_server(
        &mut rt.world,
        tls,
        AuthServerSpec {
            domain: "evil.com",
            user: "x",
            password: "x".into(),
            hash_login: false,
            think: SimDuration::ZERO,
            page_bytes: 0,
        },
    );
    let exfil = build_exfiltration_app("evil.com", spec.cor_description);
    let denied = matches!(
        rt.run_app(&exfil, Mode::TinMan, &inputs),
        Err(RuntimeError::PolicyDenied(PolicyDecision::DeniedDomain { .. }))
    );
    all &= check("exfiltration to unlisted domain denied", denied);
    all &=
        check("device still clean after the attempt", rt.scan_residue(HARNESS_PASSWORD).is_clean());

    // 3. Figure 7: implicit-IV leakage and the version floor.
    println!("\n[3] §3.2 Figure 7 — implicit-IV leakage / TLS version floor");
    let key = Xtea::new(b"session-key-16b!");
    let cor = b"passwd=hunter2-the-cor!!";
    let (recovered, _) = demo_implicit_iv_leak(&key, [0xAA; 8], cor);
    all &= check("client recovers the node's plaintext under TLS 1.0 chaining", recovered == cor);
    let client_cfg = TlsConfig::tinman_client([1u8; 32]);
    let hello = Handshake::client_hello(&client_cfg, [2u8; 32]);
    let legacy = TlsConfig::legacy_tls10([1u8; 32]);
    let refused = matches!(
        Handshake::accept(&legacy, &hello, [3u8; 32], 1)
            .and_then(|(sh, _)| { Handshake::finish(&client_cfg, &hello, &sh, 2) }),
        Err(TlsError::VersionBelowFloor { .. })
    );
    all &= check("TinMan client refuses any handshake below TLS 1.1", refused);

    // 4. Revocation.
    println!("\n[4] §3.4 — stolen-device revocation");
    let mut rt = login_world(&spec, LinkProfile::wifi());
    rt.run_app(&app, Mode::TinMan, &inputs).expect("pre-revocation login");
    rt.nodes[0].policy.revoke_device("phone-1");
    let revoked = matches!(
        rt.run_app(&app, Mode::TinMan, &inputs),
        Err(RuntimeError::PolicyDenied(PolicyDecision::DeniedRevoked))
    );
    all &= check("revoked device loses all cor access", revoked);

    println!("\noverall: {}", if all { "ALL SCENARIOS PASS" } else { "FAILURES PRESENT" });
    emit_json("security_analysis", serde_json::json!({ "all_pass": all }));
    if !all {
        std::process::exit(1);
    }
}
