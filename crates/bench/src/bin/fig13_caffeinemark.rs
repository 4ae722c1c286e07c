//! Figure 13: Caffeinemark scores under the three taint configurations.
//!
//! The paper runs CaffeineMark on the phone with (a) stock Android, (b)
//! TaintDroid-style full tainting, (c) TinMan's asymmetric tainting, and
//! reports per-kernel scores. Its headline numbers: asymmetric averages
//! ~9.6% overhead, full ~20.1%, with the String kernel worst (string-op
//! optimizations disabled + high heap-to-stack ratio).

use tinman_apps::caffeinemark::{run_kernel, CaffeinemarkKernel};
use tinman_bench::{banner, emit_json};
use tinman_taint::TaintEngine;

const SCALE: u32 = 8;

fn main() {
    banner(
        "Figure 13 — Caffeinemark under none / full / asymmetric tainting",
        "TinMan (EuroSys'15) §6.1, Figure 13",
    );

    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "kernel", "score(none)", "score(full)", "score(asym)", "ovh(full)", "ovh(asym)"
    );

    let mut rows = Vec::new();
    let mut sum_full = 0.0;
    let mut sum_asym = 0.0;
    for kernel in CaffeinemarkKernel::ALL {
        let base = run_kernel(kernel, &mut TaintEngine::none(), SCALE);
        let full = run_kernel(kernel, &mut TaintEngine::full(), SCALE);
        let asym = run_kernel(kernel, &mut TaintEngine::asymmetric(), SCALE);
        let ovh_full = full.cycles as f64 / base.cycles as f64 - 1.0;
        let ovh_asym = asym.cycles as f64 / base.cycles as f64 - 1.0;
        sum_full += ovh_full;
        sum_asym += ovh_asym;
        println!(
            "{:<10} {:>12.0} {:>12.0} {:>12.0} {:>9.1}% {:>9.1}%",
            kernel.name(),
            base.score(),
            full.score(),
            asym.score(),
            100.0 * ovh_full,
            100.0 * ovh_asym
        );
        rows.push(serde_json::json!({
            "kernel": kernel.name(),
            "score_none": base.score(),
            "score_full": full.score(),
            "score_asym": asym.score(),
            "overhead_full": ovh_full,
            "overhead_asym": ovh_asym,
        }));
    }
    let n = CaffeinemarkKernel::ALL.len() as f64;
    let avg_full = 100.0 * sum_full / n;
    let avg_asym = 100.0 * sum_asym / n;
    println!("----------------------------------------------------------------");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>9.1}% {:>9.1}%",
        "average", "", "", "", avg_full, avg_asym
    );
    println!("\npaper: full-taint avg 20.1%, asymmetric avg 9.6%, String worst");

    let record = serde_json::json!({
        "schema": "tinman.caffeinemark/v1",
        "config": { "scale": SCALE },
        "taint_overhead": {
            "rows": rows,
            "avg_overhead_full_pct": avg_full,
            "avg_overhead_asym_pct": avg_asym,
            "paper_avg_full_pct": 20.1,
            "paper_avg_asym_pct": 9.6,
        },
    });
    emit_json("fig13_caffeinemark", record);
}
