//! The paper's §4 case studies, end to end: BankDroid (hash-of-password
//! login, the hash becoming a derived cor) and the browser checkout
//! (credit-card cor with the §4.2 policy rules).

use std::collections::HashMap;

use tinman::apps::bankdroid::{build_bankdroid, SAMPLE_TRANSACTIONS};
use tinman::apps::browser::build_browser_checkout;
use tinman::apps::servers::install_payment_server;
use tinman::cor::{CorStore, PolicyDecision, PolicyRule};
use tinman::core::error::RuntimeError;
use tinman::core::runtime::{Mode, TinmanConfig, TinmanRuntime};
use tinman::net::{Addr, ServerApp, ServerReply};
use tinman::sim::{LinkProfile, SimDuration};
use tinman::vm::Value;

const BANK_PASSWORD: &str = "correct-horse-battery";
const CARD_NUMBER: &str = "4111111111111111";
const CARD_CVV: &str = "847";

fn inputs() -> HashMap<String, String> {
    HashMap::from([
        ("username".to_owned(), "alice".to_owned()),
        ("amount".to_owned(), "99.95".to_owned()),
    ])
}

type BankHandler = Box<dyn FnMut(Addr, &str) -> (String, SimDuration)>;

/// A bank that expects `sha256(password)` and serves transactions after a
/// successful login (stateful across requests on one connection).
struct BankServer {
    tls: tinman::core::server::HttpsServerApp<BankHandler>,
}

impl BankServer {
    fn new(tls_config: tinman::tls::TlsConfig, password: &str) -> Self {
        use sha2::{Digest, Sha256};
        let hash: String =
            Sha256::digest(password.as_bytes()).iter().map(|b| format!("{b:02x}")).collect();
        let authed =
            std::rc::Rc::new(std::cell::RefCell::new(std::collections::HashSet::<Addr>::new()));
        let a2 = authed;
        let eu = "alice".to_owned();
        let eh = hash;
        let handler: BankHandler = Box::new(move |peer, request| {
            if request.starts_with("GET /transactions") {
                if a2.borrow().contains(&peer) {
                    (SAMPLE_TRANSACTIONS.to_owned(), SimDuration::from_millis(60))
                } else {
                    ("401 UNAUTHENTICATED".to_owned(), SimDuration::from_millis(10))
                }
            } else {
                let user = request.split('&').find_map(|kv| kv.strip_prefix("user=")).unwrap_or("");
                let pass = request.split('&').find_map(|kv| kv.strip_prefix("pass=")).unwrap_or("");
                if user == eu && pass == eh {
                    a2.borrow_mut().insert(peer);
                    ("200 OK welcome".to_owned(), SimDuration::from_millis(150))
                } else {
                    ("403 FORBIDDEN".to_owned(), SimDuration::from_millis(20))
                }
            }
        });
        BankServer { tls: tinman::core::server::HttpsServerApp::new(tls_config, handler) }
    }
}

impl ServerApp for BankServer {
    fn on_connect(&mut self, peer: Addr) {
        self.tls.on_connect(peer);
    }
    fn on_data(&mut self, peer: Addr, data: &[u8]) -> ServerReply {
        self.tls.on_data(peer, data)
    }
    fn on_close(&mut self, peer: Addr) {
        self.tls.on_close(peer);
    }
}

fn bank_runtime() -> TinmanRuntime {
    let mut store = CorStore::new(31);
    store.register(BANK_PASSWORD, "Citibank password", &["citibank.com"]).unwrap();
    let mut rt = TinmanRuntime::new(store, LinkProfile::wifi(), TinmanConfig::default());
    let tls = rt.server_tls_config();
    let host = rt.world.add_host("citibank.com", LinkProfile::ethernet());
    rt.world.install_server(Addr::new(host, 443), Box::new(BankServer::new(tls, BANK_PASSWORD)));
    rt
}

#[test]
fn bankdroid_hash_login_works_and_hash_is_a_derived_cor() {
    let app = build_bankdroid("citibank.com", "Citibank password");
    let mut rt = bank_runtime();
    let report = rt.run_app(&app, Mode::TinMan, &inputs()).expect("bankdroid runs");
    assert_eq!(report.result, Value::Int(1), "bank accepted sha256(password)");

    // Neither the password nor its hash may exist on the device.
    use sha2::{Digest, Sha256};
    let hash_hex: String =
        Sha256::digest(BANK_PASSWORD.as_bytes()).iter().map(|b| format!("{b:02x}")).collect();
    assert!(rt.scan_residue(BANK_PASSWORD).is_clean(), "password residue");
    assert!(rt.scan_residue(&hash_hex).is_clean(), "hash residue (it is a derived cor)");

    // The node's store now holds derived cors (the hash, the request body).
    assert!(
        rt.nodes[0].store.len() >= 3,
        "original + derived cors, got {}",
        rt.nodes[0].store.len()
    );

    // The transactions ARE on the device — they are ordinary private data
    // (§5.4), displayed and cached in plaintext.
    assert!(!rt.scan_residue("salary").is_clean(), "transactions are not cor");
}

#[test]
fn bankdroid_with_wrong_password_cor_fails_cleanly() {
    let app = build_bankdroid("citibank.com", "Citibank password");
    let mut store = CorStore::new(31);
    store.register("wrong-password-entirely", "Citibank password", &["citibank.com"]).unwrap();
    let mut rt = TinmanRuntime::new(store, LinkProfile::wifi(), TinmanConfig::default());
    let tls = rt.server_tls_config();
    let host = rt.world.add_host("citibank.com", LinkProfile::ethernet());
    rt.world.install_server(Addr::new(host, 443), Box::new(BankServer::new(tls, BANK_PASSWORD)));
    let report = rt.run_app(&app, Mode::TinMan, &inputs()).expect("run completes");
    assert_eq!(report.result, Value::Int(0), "server rejects the wrong hash");
}

fn shop_runtime() -> TinmanRuntime {
    let mut store = CorStore::new(77);
    store.register(CARD_NUMBER, "Visa card number", &["shop.com"]).unwrap();
    store.register(CARD_CVV, "Visa security code", &["shop.com"]).unwrap();
    let mut rt = TinmanRuntime::new(store, LinkProfile::wifi(), TinmanConfig::default());
    let tls = rt.server_tls_config();
    install_payment_server(
        &mut rt.world,
        tls,
        "shop.com",
        CARD_NUMBER,
        CARD_CVV,
        SimDuration::from_millis(200),
    );
    rt
}

#[test]
fn browser_checkout_pays_without_card_data_on_device() {
    let app = build_browser_checkout("shop.com", "Visa card number", "Visa security code");
    let mut rt = shop_runtime();
    let report = rt.run_app(&app, Mode::TinMan, &inputs()).expect("checkout runs");
    assert_eq!(report.result, Value::Int(1), "payment accepted");
    assert!(rt.scan_residue(CARD_NUMBER).is_clean(), "card number residue");
    assert!(rt.scan_residue(CARD_CVV).is_clean(), "cvv residue");
    // The amount is NOT a cor and was typed normally.
    assert!(report.offloads >= 1);
}

#[test]
fn card_time_window_rule_applies_to_checkout() {
    // §4.2 rule 2: access allowed 10:00-22:00 only. The simulation starts
    // at hour 0, so the send is outside the window.
    let app = build_browser_checkout("shop.com", "Visa card number", "Visa security code");
    let mut rt = shop_runtime();
    for cor in rt.nodes[0].store.ids() {
        rt.nodes[0]
            .policy
            .set_rule(cor, PolicyRule { time_window_hours: Some((10, 22)), ..Default::default() });
    }
    let err = rt.run_app(&app, Mode::TinMan, &inputs()).unwrap_err();
    assert!(matches!(err, RuntimeError::PolicyDenied(PolicyDecision::DeniedTimeWindow)));
}

#[test]
fn card_rate_limit_rule_applies_to_checkout() {
    // §4.2 rule 3: at most N uses per day.
    let app = build_browser_checkout("shop.com", "Visa card number", "Visa security code");
    let mut rt = shop_runtime();
    for cor in rt.nodes[0].store.ids() {
        rt.nodes[0]
            .policy
            .set_rule(cor, PolicyRule { max_uses_per_day: Some(1), ..Default::default() });
    }
    assert!(rt.run_app(&app, Mode::TinMan, &inputs()).is_ok());
    let err = rt.run_app(&app, Mode::TinMan, &inputs()).unwrap_err();
    assert!(matches!(err, RuntimeError::PolicyDenied(PolicyDecision::DeniedRateLimit)));
}

#[test]
fn every_checkout_is_audited() {
    let app = build_browser_checkout("shop.com", "Visa card number", "Visa security code");
    let mut rt = shop_runtime();
    rt.run_app(&app, Mode::TinMan, &inputs()).unwrap();
    // §4.2 rule 4: all access operations logged.
    assert!(!rt.nodes[0].audit.is_empty());
    assert!(rt.nodes[0].audit.entries().iter().any(|e| e.domain.as_deref() == Some("shop.com")));
}
