//! Fleet throughput: drives N concurrent device sessions against the
//! trusted-node pool and reports aggregate throughput, latency
//! percentiles, and per-node utilization.
//!
//! Usage: `fleet_throughput [--sessions N] [--workers N] [--nodes N]
//! [--seed N] [--down NODE ...] [--trace PATH] [--chaos [PLAN]]
//! [--chaos-seed N] [--tenants N] [--deny DOMAIN ...] [--unattested NODE
//! ...] [--topology] [--regions N] [--json-out [PATH]]`
//!
//! The simulated aggregate is bit-identical for any `--workers` value;
//! only the wall-clock fields change. Run with `--workers 1` and
//! `--workers 8` and diff the `simulated` blobs to check.
//!
//! Every run goes through the one fleet executor: each session attempt
//! is residue-scanned and vault-audited, so the `chaos`, `vault` and
//! `guard` summary lines are measured even with no faults injected.
//!
//! `--trace PATH` writes a Chrome trace_event JSON of the whole run
//! (one track per device session) — open it at `chrome://tracing` or
//! <https://ui.perfetto.dev>. Tracing never changes the simulated
//! aggregate.
//!
//! `--chaos PLAN` runs the fleet under a canned `tinman-chaos` fault
//! plan (`crash-primary`, `recovery`, `partition`, `wire-noise`,
//! `vault-crash`, `hostile-guest`, `tenant-rotation`, `handoff`,
//! `nat-traversal`, `region-failover`, `rolling-upgrade`, `drain`), or
//! several joined with `+` (e.g. `--chaos crash-primary+vault-crash`):
//! their events concatenate and the first plan sets the seed, deadline
//! and breaker policy. With no PLAN (or no `--chaos`) the plan is empty.
//! `--chaos-seed N` reseeds the plan's fault dice; two runs with the same
//! seeds emit byte-identical simulated aggregates. `hostile-guest` runs
//! every session under the per-session guard, and the `guard` line
//! reports kills, sheds, and the exhaustion breakdown.
//!
//! `--tenants N` round-robins sessions over N tenants: vault audits run
//! sealed under per-tenant key hierarchies (ciphertext at rest, zero
//! cross-tenant residue), nodes must pass the taint-engine attestation
//! gate, and the per-tenant declassification policy (`--deny DOMAIN`
//! adds a denied domain; `--unattested NODE` marks a node as failing
//! attestation) is enforced fail-closed. The summary grows a `tenant`
//! line.
//!
//! `--topology` runs every session's world as a routed internet —
//! subnets, routers, a NAT gateway in front of the phone, a DNS
//! resolver — so the `RouterCrash`/`NatTableFlush`/`DnsOutage` chaos
//! families (e.g. `--chaos nat-traversal`) have teeth, and a `handoff`
//! storm rebinds the NAT. It adds a `net` summary line with the
//! availability columns (handoffs, NAT rewrites/rebinds, DNS faults,
//! route drops).
//!
//! `--regions N` partitions the pool into N trusted-node regions behind
//! the deterministic placement front: sessions home to a region by
//! placement key, membership chaos families (`--chaos region-failover`,
//! `--chaos rolling-upgrade`, `--chaos drain`) drain and kill nodes or
//! whole regions, and in-flight sessions live-migrate to a peer or fail
//! closed as `no_region`. A `region` summary line (migrations,
//! evacuations, region failovers, migration residue, no-region kills)
//! appears whenever `--regions` is above 1 or a session migrated.
//!
//! `--json-out [PATH]` additionally writes a schema'd benchmark record
//! (throughput, latency percentiles, bytes synced, tenancy counters) to
//! PATH — default `BENCH_fleet_throughput.json` — for baseline diffing.

use tinman_bench::{banner, emit_json};
use tinman_chaos::ChaosPlan;
use tinman_fleet::{run_fleet_chaos, FleetConfig, FleetObs};
use tinman_obs::{chrome_trace_json, TraceHandle};

struct Args {
    sessions: usize,
    workers: usize,
    nodes: usize,
    seed: Option<u64>,
    down: Vec<usize>,
    trace: Option<String>,
    chaos: String,
    chaos_seed: Option<u64>,
    tenants: usize,
    deny: Vec<String>,
    unattested: Vec<usize>,
    topology: bool,
    regions: u32,
    json_out: Option<String>,
}

/// Pops the flag's required value out of `argv`.
fn take(argv: &[String], i: &mut usize, name: &str) -> String {
    let v = argv.get(*i).unwrap_or_else(|| panic!("{name} needs a value")).clone();
    *i += 1;
    v
}

fn parse_args() -> Args {
    let mut args = Args {
        sessions: 200,
        workers: 4,
        nodes: 4,
        seed: None,
        down: Vec::new(),
        trace: None,
        chaos: String::new(),
        chaos_seed: None,
        tenants: 0,
        deny: Vec::new(),
        unattested: Vec::new(),
        topology: false,
        regions: 1,
        json_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].clone();
        i += 1;
        match flag.as_str() {
            "--sessions" => args.sessions = take(&argv, &mut i, &flag).parse().expect("--sessions"),
            "--workers" => args.workers = take(&argv, &mut i, &flag).parse().expect("--workers"),
            "--nodes" => args.nodes = take(&argv, &mut i, &flag).parse().expect("--nodes"),
            "--seed" => args.seed = Some(take(&argv, &mut i, &flag).parse().expect("--seed")),
            "--down" => args.down.push(take(&argv, &mut i, &flag).parse().expect("--down")),
            "--trace" => args.trace = Some(take(&argv, &mut i, &flag)),
            "--chaos" => {
                // The plan name is optional: a following flag (or end of
                // argv) means the empty plan.
                let named = argv.get(i).filter(|v| !v.starts_with("--")).cloned();
                if named.is_some() {
                    i += 1;
                }
                args.chaos = named.unwrap_or_default();
            }
            "--chaos-seed" => {
                args.chaos_seed = Some(take(&argv, &mut i, &flag).parse().expect("--chaos-seed"));
            }
            "--tenants" => args.tenants = take(&argv, &mut i, &flag).parse().expect("--tenants"),
            "--deny" => args.deny.push(take(&argv, &mut i, &flag)),
            "--unattested" => {
                args.unattested.push(take(&argv, &mut i, &flag).parse().expect("--unattested"));
            }
            "--topology" => args.topology = true,
            "--regions" => args.regions = take(&argv, &mut i, &flag).parse().expect("--regions"),
            "--json-out" => {
                // Optional value, same shape as --chaos: with no PATH the
                // record lands in BENCH_fleet_throughput.json.
                let named = argv.get(i).filter(|v| !v.starts_with("--")).cloned();
                if named.is_some() {
                    i += 1;
                }
                args.json_out =
                    Some(named.unwrap_or_else(|| "BENCH_fleet_throughput.json".to_owned()));
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// Ring capacity for `--trace`: roughly 60 events per login session,
/// with headroom; the sink drops oldest past this and reports the count.
const TRACE_CAPACITY: usize = 1 << 20;

fn main() {
    let parsed = parse_args();
    banner(
        &format!(
            "Fleet throughput — {} sessions, {} workers, {} nodes",
            parsed.sessions, parsed.workers, parsed.nodes
        ),
        "tinman-fleet (deployment-scale extension of the paper's evaluation)",
    );

    let mut cfg = FleetConfig::new(parsed.sessions, parsed.workers);
    cfg.nodes = parsed.nodes;
    if let Some(seed) = parsed.seed {
        cfg.seed = seed;
    }
    cfg.faults.down_nodes = parsed.down.clone();
    cfg.tenants = parsed.tenants;
    cfg.tenant_deny = parsed.deny.clone();
    cfg.unattested_nodes = parsed.unattested.clone();
    cfg.topology = parsed.topology;
    cfg.regions = parsed.regions;

    let mut obs = FleetObs::default();
    let sink = parsed.trace.as_ref().map(|_| {
        let (handle, sink) = TraceHandle::ring(TRACE_CAPACITY);
        obs.trace = handle;
        sink
    });

    let mut plan = if parsed.chaos.is_empty() {
        ChaosPlan::empty()
    } else {
        ChaosPlan::canned(&parsed.chaos).unwrap_or_else(|| {
            eprintln!(
                "unknown chaos plan {:?}; known plans (join with '+'): {}",
                parsed.chaos,
                ChaosPlan::canned_names().join(", ")
            );
            std::process::exit(2);
        })
    };
    if let Some(seed) = parsed.chaos_seed {
        plan.seed = seed;
    }

    let report = run_fleet_chaos(&cfg, &plan, &obs).unwrap_or_else(|e| {
        eprintln!("fleet refused to start: {e}");
        std::process::exit(2);
    });

    if let (Some(path), Some(sink)) = (parsed.trace.as_deref(), sink) {
        let records = sink.snapshot();
        std::fs::write(path, chrome_trace_json(&records)).expect("write --trace file");
        let dropped = sink.dropped();
        println!(
            "trace: {} events -> {path}{}",
            records.len(),
            if dropped > 0 { format!(" ({dropped} oldest dropped)") } else { String::new() }
        );
    }

    println!(
        "\nsessions {} | ok {} | failed {} | failovers {}",
        report.sessions, report.ok, report.failed, report.failovers
    );
    println!(
        "chaos    replays {} | success-after-retry {} | fail-closed {} | \
             deliveries {} (+{} deduped) | residue violations {}",
        report.replays,
        report.success_after_retry,
        report.fail_closed,
        report.deliveries,
        report.duplicate_deliveries,
        report.residue_violations,
    );
    println!(
        "vault    recoveries {} | torn repairs {} | lost cors {} | stale serves {} | \
             catch-up lsns {} | wal plaintexts {} | device leaks {}",
        report.vault_recoveries,
        report.torn_tail_repairs,
        report.lost_cors,
        report.stale_serves,
        report.vault_catchup_lsns,
        report.wal_plaintexts,
        report.wal_device_leaks,
    );
    let [fuel, heap, depth, dsm, deadline] = report.budget_exhaustions;
    println!(
        "guard    kills {} | shed {} | exhausted fuel/heap/depth/dsm/deadline \
             {}/{}/{}/{}/{}",
        report.guest_kills, report.shed_sessions, fuel, heap, depth, dsm, deadline,
    );
    if parsed.topology {
        println!(
            "net      handoffs {} | nat rewrites {} | nat rebinds {} | dns faults {} | \
             route drops {}",
            report.handoffs,
            report.nat_rewrites,
            report.nat_rebinds,
            report.dns_faults,
            report.route_drops,
        );
    }
    if cfg.regions > 1 || report.migrations > 0 {
        println!(
            "region   regions {} | migrations {} | evacuations {} | region failovers {} | \
             migration residue {} | no-region kills {}",
            parsed.regions,
            report.migrations,
            report.evacuations,
            report.region_failovers,
            report.migration_residue,
            report.no_region_kills,
        );
    }
    if parsed.tenants > 0 {
        println!(
            "tenant   tenants {} | policy denials {} | cross-tenant residue {} | \
             unattested refusals {} | key rotations {} | wal plaintexts {}",
            parsed.tenants,
            report.policy_denials,
            report.cross_tenant_residue,
            report.unattested_refusals,
            report.tenant_key_rotations,
            report.wal_plaintexts,
        );
    }
    println!(
        "latency  p50 {:>8.2}s  p95 {:>8.2}s  p99 {:>8.2}s  mean {:>8.2}s",
        report.latency.p50.as_secs_f64(),
        report.latency.p95.as_secs_f64(),
        report.latency.p99.as_secs_f64(),
        report.latency.mean.as_secs_f64(),
    );
    println!(
        "offloads {} | node methods {} | dsm syncs {} | tx {} B | rx {} B",
        report.offloads, report.node_methods, report.dsm_syncs, report.tx_bytes, report.rx_bytes
    );
    for n in &report.per_node {
        print!(
            "  {:<20} {:>5} sessions  busy {:>9.2}s  util {:>5.1}%  [{}]",
            n.name,
            n.sessions,
            n.busy.as_secs_f64(),
            n.utilization * 100.0,
            n.health
        );
        println!(
            "  breaker closed/open/half {}/{}/{}",
            n.breaker_closed, n.breaker_open, n.breaker_half_open
        );
    }
    println!(
        "throughput: {:.2} sessions/sim-s | {:.2} sessions/wall-s ({} workers, {:.2}s wall)",
        report.sim_throughput, report.wall_throughput, report.workers, report.wall_secs
    );

    if let Some(path) = parsed.json_out.as_deref() {
        let record = bench_record(&parsed, &report);
        let blob = serde_json::to_string_pretty(&record).expect("serialize bench record");
        std::fs::write(path, blob + "\n").expect("write --json-out file");
        println!("bench record -> {path}");
    }

    emit_json("fleet_throughput", report.to_value());
}

/// The schema'd benchmark record `--json-out` writes: a stable,
/// versioned subset for baseline diffing — throughput, latency
/// percentiles, bytes synced, and (when tenancy is on) the tenant
/// isolation counters.
fn bench_record(parsed: &Args, report: &tinman_fleet::FleetReport) -> serde_json::Value {
    serde_json::json!({
        "schema": "tinman.fleet_throughput/v1",
        "config": {
            "sessions": parsed.sessions as u64,
            "workers": parsed.workers as u64,
            "nodes": parsed.nodes as u64,
            "tenants": parsed.tenants as u64,
            "chaos": parsed.chaos,
            "topology": parsed.topology,
            "regions": parsed.regions as u64,
        },
        "throughput": {
            "sessions_per_sim_sec": report.sim_throughput,
            "sessions_per_wall_sec": report.wall_throughput,
            "ok": report.ok,
            "failed": report.failed,
        },
        "latency_ns": {
            "p50": report.latency.p50.as_nanos(),
            "p95": report.latency.p95.as_nanos(),
            "p99": report.latency.p99.as_nanos(),
            "mean": report.latency.mean.as_nanos(),
        },
        "bytes_synced": {
            "tx": report.tx_bytes,
            "rx": report.rx_bytes,
            "dsm_syncs": report.dsm_syncs,
        },
        "net": {
            "handoffs": report.handoffs,
            "nat_rewrites": report.nat_rewrites,
            "nat_rebinds": report.nat_rebinds,
            "dns_faults": report.dns_faults,
            "route_drops": report.route_drops,
        },
        "region": {
            "migrations": report.migrations,
            "evacuations": report.evacuations,
            "region_failovers": report.region_failovers,
            "migration_residue": report.migration_residue,
            "no_region_kills": report.no_region_kills,
        },
        "tenancy": {
            "policy_denials": report.policy_denials,
            "cross_tenant_residue": report.cross_tenant_residue,
            "unattested_refusals": report.unattested_refusals,
            "tenant_key_rotations": report.tenant_key_rotations,
            "wal_plaintexts": report.wal_plaintexts,
            "wal_device_leaks": report.wal_device_leaks,
        },
    })
}
