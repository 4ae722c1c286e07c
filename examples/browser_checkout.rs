//! The §4.2 browser-checkout case study as a runnable scenario.
//!
//! The user pays for an order; card number and CVV come from the cor
//! dropdown, and the trusted node enforces the §4.2 card rules (domain
//! whitelist, time window, rate limit, full audit). The second run of the
//! day trips the rate limit.
//!
//! ```bash
//! cargo run --example browser_checkout
//! ```

use std::collections::HashMap;

use tinman::apps::browser::build_browser_checkout;
use tinman::apps::servers::install_payment_server;
use tinman::cor::{CorStore, PolicyRule};
use tinman::core::error::RuntimeError;
use tinman::core::runtime::{Mode, TinmanConfig, TinmanRuntime};
use tinman::sim::{LinkProfile, SimDuration};

fn main() {
    let card = "4111111111111111";
    let cvv = "847";

    let mut store = CorStore::new(5);
    store.register(card, "Visa card number", &["shop.com"]).unwrap();
    store.register(cvv, "Visa security code", &["shop.com"]).unwrap();

    let mut rt = TinmanRuntime::new(store, LinkProfile::wifi(), TinmanConfig::default());
    let tls = rt.server_tls_config();
    install_payment_server(
        &mut rt.world,
        tls,
        "shop.com",
        card,
        cvv,
        SimDuration::from_millis(350),
    );

    // §4.2 rules: one purchase per day, only to shop.com.
    for cor in rt.nodes[0].store.ids() {
        rt.nodes[0].policy.set_rule(
            cor,
            PolicyRule {
                domain_whitelist: vec!["shop.com".into()],
                max_uses_per_day: Some(1),
                ..Default::default()
            },
        );
    }

    let app = build_browser_checkout("shop.com", "Visa card number", "Visa security code");
    let inputs = HashMap::from([("amount".to_owned(), "99.95".to_owned())]);

    // First checkout: accepted.
    let report = rt.run_app(&app, Mode::TinMan, &inputs).expect("checkout runs");
    println!("first checkout:  result {:?} (1 = PAID)", report.result);
    println!(
        "card residue:    {}",
        if rt.scan_residue(card).is_clean() { "none" } else { "FOUND" }
    );
    println!("cvv residue:     {}", if rt.scan_residue(cvv).is_clean() { "none" } else { "FOUND" });

    // Second checkout the same day: the rate limit stops it on the node.
    match rt.run_app(&app, Mode::TinMan, &inputs) {
        Err(RuntimeError::PolicyDenied(decision)) => {
            println!("second checkout: DENIED by the trusted node ({decision:?})");
        }
        other => println!("second checkout: unexpected {other:?}"),
    }

    println!("\naudit trail:");
    for e in rt.nodes[0].audit.entries() {
        println!("  | cor={:?} domain={:?} decision={:?}", e.cor, e.domain, e.decision);
    }
}
