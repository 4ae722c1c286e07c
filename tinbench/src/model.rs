//! Model error against the paper's reference figures, computed with the
//! same helpers the figure binaries use. Informational: these values are
//! simulated, do not move with host speed, and carry no bound.

use tinman_apps::caffeinemark::run_kernel;
use tinman_apps::{CaffeinemarkKernel, LoginAppSpec};
use tinman_bench::{run_stock_login, run_warm_login};
use tinman_sim::{LinkProfile, SimDuration};
use tinman_taint::TaintEngine;

use crate::RunResult;

/// Figure 13: average Caffeinemark taint overhead, percent.
const PAPER_FULL_PCT: f64 = 20.1;
const PAPER_ASYM_PCT: f64 = 9.6;
/// Figure 14 (Wi-Fi) averages, seconds.
const PAPER_STOCK_S: f64 = 4.0;
const PAPER_TINMAN_S: f64 = 5.95;
const PAPER_DSM_S: f64 = 0.8;
const PAPER_SSL_TCP_S: f64 = 1.2;

/// Kernel size the Figure 13 binary uses.
const FIG13_SCALE: u32 = 8;

/// Adds `model.<name>_abs_error`, the model's relative distance from the
/// paper's value, to the per-layer metrics, and prints both values.
fn compare(out: &mut RunResult, name: &str, model: f64, paper: f64, unit: &str) {
    let error = model / paper - 1.0;
    eprintln!("model {name}: {model:.4} {unit} vs paper {paper} {unit} ({:+.1}%)", 100.0 * error);
    out.layer(&format!("model.{name}_abs_error"), error.abs(), "share");
}

/// Reports the Figure 13 and Figure 14 model values and their errors.
pub fn report(out: &mut RunResult) {
    let (mut full, mut asym) = (0.0, 0.0);
    for kernel in CaffeinemarkKernel::ALL {
        let base = run_kernel(kernel, &mut TaintEngine::none(), FIG13_SCALE).cycles as f64;
        full +=
            run_kernel(kernel, &mut TaintEngine::full(), FIG13_SCALE).cycles as f64 / base - 1.0;
        asym += run_kernel(kernel, &mut TaintEngine::asymmetric(), FIG13_SCALE).cycles as f64
            / base
            - 1.0;
    }
    let n = CaffeinemarkKernel::ALL.len() as f64;
    compare(out, "fig13_full_overhead", 100.0 * full / n, PAPER_FULL_PCT, "%");
    compare(out, "fig13_asym_overhead", 100.0 * asym / n, PAPER_ASYM_PCT, "%");

    let specs = LoginAppSpec::table3();
    let mut sums = [SimDuration::ZERO; 4];
    for spec in &specs {
        let (_, stock) = run_stock_login(spec, LinkProfile::wifi());
        let (_, tinman) = run_warm_login(spec, LinkProfile::wifi());
        sums[0] += stock.latency;
        sums[1] += tinman.latency;
        sums[2] += tinman.breakdown.get("dsm");
        sums[3] += tinman.breakdown.get("ssl_tcp");
    }
    let avg = |d: SimDuration| d.as_secs_f64() / specs.len() as f64;
    compare(out, "fig14_stock", avg(sums[0]), PAPER_STOCK_S, "s");
    compare(out, "fig14_tinman", avg(sums[1]), PAPER_TINMAN_S, "s");
    compare(out, "fig14_dsm", avg(sums[2]), PAPER_DSM_S, "s");
    compare(out, "fig14_ssl_tcp", avg(sums[3]), PAPER_SSL_TCP_S, "s");
}
