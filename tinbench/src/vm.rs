//! The `vm_kernels` workload: the six Caffeinemark kernels under the full
//! taint engine, each run on the interpreter and on the block tier.

use std::time::Instant;

use tinman_apps::caffeinemark::run_kernel_prebuilt;
use tinman_apps::CaffeinemarkKernel;
use tinman_sim::SplitMix64;
use tinman_taint::TaintEngine;
use tinman_vm::{AppImage, CompiledImage, TierTelemetry};

use crate::spans::{span_cost_ns, Tracer};
use crate::stats::{geomean, median};
use crate::{sys, Args, RunResult};

/// Kernel size: the Figure 13 harness's scale.
const SCALE: u32 = 8;

/// Span names per kernel: `(interpreter, block tier)`.
fn span_names(kernel: CaffeinemarkKernel) -> (&'static str, &'static str) {
    match kernel {
        CaffeinemarkKernel::Sieve => ("vm.interp.Sieve", "vm.tier.Sieve"),
        CaffeinemarkKernel::Loop => ("vm.interp.Loop", "vm.tier.Loop"),
        CaffeinemarkKernel::Logic => ("vm.interp.Logic", "vm.tier.Logic"),
        CaffeinemarkKernel::String => ("vm.interp.String", "vm.tier.String"),
        CaffeinemarkKernel::Float => ("vm.interp.Float", "vm.tier.Float"),
        CaffeinemarkKernel::Method => ("vm.interp.Method", "vm.tier.Method"),
    }
}

struct Kernel {
    kernel: CaffeinemarkKernel,
    image: AppImage,
    compiled: CompiledImage,
    /// (cycles, instrs) the warm-up interpreter run retired: every timed
    /// run on either tier must retire exactly these.
    expected: (u64, u64),
}

/// Builds every kernel image, compiles it for the block tier, and runs
/// it once on each tier as a warm-up; returns the kernels and the
/// compile time alone.
fn setup() -> (Vec<Kernel>, f64) {
    let mut compile_s = 0.0;
    let kernels = CaffeinemarkKernel::ALL
        .into_iter()
        .map(|kernel| {
            let image = kernel.build(SCALE);
            let t0 = Instant::now();
            let compiled = CompiledImage::compile(&image);
            compile_s += t0.elapsed().as_secs_f64();
            let (interp, _) = run_kernel_prebuilt(kernel, &image, None, &mut TaintEngine::full());
            std::hint::black_box(run_kernel_prebuilt(
                kernel,
                &image,
                Some(&compiled),
                &mut TaintEngine::full(),
            ));
            Kernel { kernel, image, compiled, expected: (interp.cycles, interp.instrs) }
        })
        .collect();
    (kernels, compile_s)
}

/// One pass's run order: every (kernel, tier) pair once, shuffled by the
/// seed so no kernel always runs on a cache its predecessor warmed.
fn pass_order(rng: &mut SplitMix64) -> Vec<(usize, bool)> {
    let mut order: Vec<(usize, bool)> =
        (0..CaffeinemarkKernel::ALL.len()).flat_map(|k| [(k, false), (k, true)]).collect();
    for i in (1..order.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// Passes each worker runs in one round.
const PASSES_PER_WORKER: u64 = 2;

/// What one worker's passes of a round produced.
struct WorkerPasses {
    passes: u64,
    ok: u64,
    problems: Vec<String>,
    /// Block-tier telemetry of each kernel's last run, by kernel.
    telemetry: Vec<TierTelemetry>,
    tracer: Option<Tracer>,
}

/// Passes `first..first + PASSES_PER_WORKER` on one worker; with
/// `traced`, one span per kernel run on a recorder with that origin.
fn worker_passes(
    kernels: &[Kernel],
    seed: u64,
    first: u64,
    traced: Option<Instant>,
) -> WorkerPasses {
    let mut rng = SplitMix64::new(seed ^ first.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut w = WorkerPasses {
        passes: PASSES_PER_WORKER,
        ok: 0,
        problems: Vec::new(),
        telemetry: vec![TierTelemetry::default(); kernels.len()],
        tracer: traced.map(Tracer::starting_at),
    };
    for pass in first..first + PASSES_PER_WORKER {
        let mut ok = true;
        for (k, tier) in pass_order(&mut rng) {
            let kern = &kernels[k];
            let compiled = tier.then_some(&kern.compiled);
            let mut engine = TaintEngine::full();
            let mut go = || run_kernel_prebuilt(kern.kernel, &kern.image, compiled, &mut engine);
            let (result, tel) = match w.tracer.as_mut() {
                Some(tr) => {
                    let (interp, blocks) = span_names(kern.kernel);
                    tr.time(if tier { blocks } else { interp }, pass, go)
                }
                None => go(),
            };
            let got = (result.cycles, result.instrs);
            if got != kern.expected {
                ok = false;
                let (name, want) = (kern.kernel.name(), kern.expected);
                let tier = if tier { "block tier" } else { "interpreter" };
                w.problems.push(format!(
                    "{name} on the {tier}: (cycles, instrs) = {got:?}, want {want:?}"
                ));
            }
            if tier {
                w.telemetry[k] = tel;
            }
        }
        w.ok += u64::from(ok);
    }
    w
}

/// One timed round: every worker runs its passes side by side.
struct Round {
    wall: f64,
    cpu: f64,
    workers: Vec<WorkerPasses>,
}

fn run_round(
    kernels: &[Kernel],
    seed: u64,
    index: u64,
    workers: usize,
    traced: Option<Instant>,
) -> Round {
    let cpu0 = sys::cpu_time();
    let t0 = Instant::now();
    let done = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers as u64)
            .map(|w| {
                let first = (index * workers as u64 + w) * PASSES_PER_WORKER;
                scope.spawn(move || worker_passes(kernels, seed, first, traced))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("kernel worker finishes")).collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let cpu = sys::cpu_time().saturating_sub(cpu0).as_secs_f64();
    Round { wall, cpu, workers: done }
}

/// Runs the workload: a closed loop of `workers = nproc` threads, each
/// running whole passes; a session is one pass over all six kernels on
/// both tiers. With `--trace 1`, every other round is traced, so the
/// traced rounds' time against the untraced ones' is the tracing cost.
pub fn run(args: &Args, out: &mut RunResult) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t0 = Instant::now();
    let (kernels, compile_s) = setup();
    let mut setup_times = vec![t0.elapsed().as_secs_f64()];
    let mut compile_times = vec![compile_s];
    let origin = Instant::now();

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let started = Instant::now();
    for index in 0.. {
        let trace_this = args.trace && index % 2 == 1;
        let round = run_round(&kernels, args.seed, index, workers, trace_this.then_some(origin));
        if trace_this { &mut traced } else { &mut untraced }.push(round);
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= args.seconds && (!args.trace || !traced.is_empty()) {
            break;
        }
        // Set-up repeats between rounds, outside their timing.
        if crate::setup_due(setup_times.len(), elapsed, args.seconds) {
            let t0 = Instant::now();
            let (_, compile_s) = setup();
            setup_times.push(t0.elapsed().as_secs_f64());
            compile_times.push(compile_s);
        }
    }
    let peak_rss = sys::peak_rss_mb();

    let all = || untraced.iter().chain(&traced).flat_map(|r| &r.workers);
    out.attempted = all().map(|w| w.passes).sum();
    out.failed = all().map(|w| w.passes - w.ok).sum();
    out.problems.extend(all().flat_map(|w| w.problems.iter().cloned()));
    let per_round = (workers as u64 * PASSES_PER_WORKER) as f64;
    let rate: Vec<f64> = untraced.iter().map(|r| per_round / r.wall).collect();
    let cpu_ms: Vec<f64> = untraced.iter().map(|r| r.cpu * 1e3 / per_round).collect();
    out.e2e("sessions_per_wall_s", median(&rate), "1/s");
    out.e2e("cpu_ms_per_session", median(&cpu_ms), "ms");
    out.e2e("ok_share", (out.attempted - out.failed) as f64 / out.attempted as f64, "share");
    out.e2e("setup_s", median(&setup_times), "s");
    out.e2e("peak_rss_mb", peak_rss, "MB");
    for kern in &kernels {
        let (cycles, instrs) = kern.expected;
        out.pinned.push((format!("{}.cycles", kern.kernel.name()), cycles));
        out.pinned.push((format!("{}.instrs", kern.kernel.name()), instrs));
    }
    if !args.trace {
        return;
    }

    let mut tr = Tracer::starting_at(origin);
    let telemetry = traced[0].workers[0].telemetry.clone();
    let traced_wall: Vec<f64> = traced.iter().map(|r| r.wall).collect();
    for w in traced.into_iter().flat_map(|r| r.workers) {
        tr.absorb(w.tracer.expect("traced rounds record spans"));
    }
    let mut interp_rates = Vec::new();
    let mut tier_rates = Vec::new();
    let mut deopts = 0;
    for (kern, tel) in kernels.iter().zip(&telemetry) {
        let instrs = kern.expected.1 as f64;
        let (interp, blocks) = span_names(kern.kernel);
        let rate = |name: &str| {
            let per_run: Vec<f64> =
                tr.durations(name).iter().map(|&ns| instrs * 1e3 / ns as f64).collect();
            median(&per_run)
        };
        let (i, b) = (rate(interp), rate(blocks));
        out.layer(&format!("{interp}_minstr_per_s"), i, "Minstr/s");
        out.layer(&format!("{blocks}_minstr_per_s"), b, "Minstr/s");
        let retired = (tel.fast_insns + tel.stepped_insns).max(1) as f64;
        out.layer(
            &format!("{blocks}_fast_insn_fraction"),
            tel.fast_insns as f64 / retired,
            "share",
        );
        interp_rates.push(i);
        tier_rates.push(b);
        deopts += tel.deopts;
    }
    out.layer("vm.interp_minstr_per_s", geomean(&interp_rates), "Minstr/s");
    out.layer("vm.tier_minstr_per_s", geomean(&tier_rates), "Minstr/s");
    out.layer("vm.tier.deopts", deopts as f64, "count");
    out.layer("vm.tier.compile_ms", median(&compile_times) * 1e3, "ms");
    let spans = tr.spans().len() as f64;
    let traced_ns: f64 = tr.spans().iter().map(|s| s.ns() as f64).sum();
    out.layer("trace.spans", spans, "count");
    out.layer("trace.overhead_share", spans * span_cost_ns() / traced_ns, "share");
    let untraced_wall: Vec<f64> = untraced.iter().map(|r| r.wall).collect();
    out.layer("trace.traced_over_untraced", median(&traced_wall) / median(&untraced_wall), "ratio");
    crate::write_spans(args, &tr);
}
