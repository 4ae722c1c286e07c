//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path tinbench/Cargo.toml -- \
//!     --workload <steady_mix|chaos_mix|drain_migrate|vm_kernels> \
//!     --seed <n> --seconds <s> --trace <0|1> [--pin]
//! ```
//!
//! Prints one JSON object as its last line: `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits 1 when the output check
//! fails. `--pin` (default seed only) records the run's simulated fields
//! into `pins.json`. See `README.md`.

mod fleet;
mod model;
mod spans;
mod stats;
mod sys;
mod vm;

use std::fmt::Write as _;
use std::process::ExitCode;

use serde_json::Value;

use crate::fleet::Fleet;
use crate::spans::Tracer;

/// The seed whose simulated fields `pins.json` holds.
const DEFAULT_SEED: u64 = 1;

/// Set-up (inputs, then a warm-up) runs once before the timed region and
/// is repeated between rounds up to this many times in all, spread evenly
/// over the run, so its median samples the host across the run the way
/// the timed metrics do.
const SETUP_REPEATS: usize = 15;

const PINS: &str = include_str!("../pins.json");

/// The benchmark's definition: the metric lists printed here are read
/// from it, so a metric is named and given its unit in one place.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in `BENCHMARK.json`'s list `key`
/// (`end_to_end` or `per_layer`), in order.
fn listed_metrics(key: &str) -> Vec<(String, String)> {
    let spec: Value = serde_json::from_str(BENCHMARK).expect("BENCHMARK.json parses");
    let list = spec.get(key).and_then(Value::as_seq);
    list.unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                let v = m.get(f).and_then(Value::as_str);
                v.unwrap_or_else(|| panic!("every {key} metric has a {f}")).to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Parsed command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        pin: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--pin" => args.pin = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    if args.pin && args.seed != DEFAULT_SEED {
        return Err(format!("--pin records the default seed {DEFAULT_SEED} only"));
    }
    Ok(args)
}

/// Whether another set-up repetition is due after `done` of them,
/// `elapsed` seconds into a run of `seconds`.
pub fn setup_due(done: usize, elapsed: f64, seconds: f64) -> bool {
    done < SETUP_REPEATS && elapsed >= seconds * done as f64 / SETUP_REPEATS as f64
}

/// One named measurement.
pub struct Metric {
    name: String,
    value: f64,
    unit: String,
}

/// Everything a run measured and checked.
#[derive(Default)]
pub struct RunResult {
    /// Operations (sessions, kernel passes) run in the timed region.
    pub attempted: u64,
    /// Of those, operations without a valid outcome.
    pub failed: u64,
    /// Output-check failures, one line each.
    pub problems: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Simulated fields compared against `pins.json` at the default seed.
    pub pinned: Vec<(String, u64)>,
}

impl RunResult {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        self.end_to_end.push(Metric { name: name.to_owned(), value, unit: unit.to_owned() });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.per_layer.push(Metric { name: name.to_owned(), value, unit: unit.to_owned() });
    }

    /// Records an output-check failure unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// Writes a traced pass's spans as JSON lines under `out/`.
pub fn write_spans(args: &Args, tracer: &Tracer) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-seed{}.jsonl", args.workload, args.seed);
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    if let Err(e) = written {
        eprintln!("could not write {path}: {e}");
    }
}

/// Compares this run's simulated fields with the pinned ones (default
/// seed only; other seeds rely on the invariant and identity checks).
fn check_pins(args: &Args, out: &mut RunResult) {
    if args.seed != DEFAULT_SEED || args.pin {
        return;
    }
    let pins: Value = serde_json::from_str(PINS).expect("pins.json parses");
    let Some(want) = pins.get(&args.workload).and_then(Value::as_map) else {
        out.problems.push(format!("pins.json has no entry for {}", args.workload));
        return;
    };
    for (name, got) in &out.pinned {
        let expected = want.iter().find(|(k, _)| k == name).map(|(_, v)| v.to_string());
        if expected.as_deref() != Some(got.to_string().as_str()) {
            let shown = expected.unwrap_or_else(|| "nothing".to_owned());
            out.problems.push(format!("pinned {name}: got {got}, pins.json has {shown}"));
        }
    }
}

/// Records this run's simulated fields as the workload's pins, keeping
/// the other workloads' entries of the file on disk.
fn write_pins(args: &Args, out: &RunResult) -> std::io::Result<()> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/pins.json");
    let current: Value = serde_json::from_str(&std::fs::read_to_string(path)?)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut entries: Vec<(String, Value)> = match current {
        Value::Map(m) => m,
        _ => Vec::new(),
    };
    let pinned = Value::Map(out.pinned.iter().map(|(k, v)| (k.clone(), Value::U64(*v))).collect());
    match entries.iter_mut().find(|(k, _)| *k == args.workload) {
        Some(entry) => entry.1 = pinned,
        None => entries.push((args.workload.clone(), pinned)),
    }
    let text = serde_json::to_string_pretty(&Value::Map(entries)).expect("serializable");
    std::fs::write(path, text + "\n")
}

fn result_line(correct: bool, out: &RunResult, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // A non-finite value already failed the output check; print 0 so
        // the line stays valid JSON.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ =
            write!(line, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    line + "}}"
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tinbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = RunResult::default();
    match args.workload.as_str() {
        "steady_mix" => fleet::run(Fleet::SteadyMix, &args, &mut out),
        "chaos_mix" => fleet::run(Fleet::ChaosMix, &args, &mut out),
        "drain_migrate" => fleet::run(Fleet::DrainMigrate, &args, &mut out),
        "vm_kernels" => vm::run(&args, &mut out),
        other => {
            eprintln!(
                "tinbench: unknown workload {other:?} \
                 (steady_mix, chaos_mix, drain_migrate, vm_kernels)"
            );
            return ExitCode::from(2);
        }
    }
    if args.pin {
        if let Err(e) = write_pins(&args, &out) {
            eprintln!("tinbench: could not write pins.json: {e}");
            return ExitCode::from(2);
        }
    }
    check_pins(&args, &mut out);
    if args.trace {
        model::report(&mut out);
    }

    // Print exactly BENCHMARK.json's list, in its order. A per-layer
    // metric a workload does not exercise reads 0; every workload records
    // every end-to-end metric.
    let (key, recorded) = if args.trace {
        ("per_layer", std::mem::take(&mut out.per_layer))
    } else {
        ("end_to_end", std::mem::take(&mut out.end_to_end))
    };
    let listed = listed_metrics(key);
    for m in &recorded {
        assert!(
            listed.iter().any(|(name, unit)| *name == m.name && *unit == m.unit),
            "metric {} ({}) is missing from BENCHMARK.json's {key} list",
            m.name,
            m.unit
        );
    }
    let metrics: Vec<Metric> = listed
        .into_iter()
        .map(|(name, unit)| {
            let value = recorded.iter().find(|m| m.name == name).map(|m| m.value);
            assert!(args.trace || value.is_some(), "end-to-end metric {name} was not recorded");
            Metric { name, value: value.unwrap_or(0.0), unit }
        })
        .collect();
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        out.problems.push(format!("metric {} is not a finite number", m.name));
    }
    for p in &out.problems {
        eprintln!("output check: {p}");
    }
    let correct = out.problems.is_empty();
    println!("{}", result_line(correct, &out, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
