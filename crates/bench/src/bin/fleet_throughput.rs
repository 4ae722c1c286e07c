//! Fleet throughput: drives N concurrent device sessions against the
//! trusted-node pool and reports aggregate throughput, latency
//! percentiles, and per-node utilization.
//!
//! Usage: `fleet_throughput [--sessions N] [--workers N] [--nodes N]
//! [--seed N] [--down NODE ...] [--trace PATH] [--chaos [PLAN]]
//! [--chaos-seed N] [--tenants N] [--deny DOMAIN ...] [--unattested NODE
//! ...] [--topology] [--regions N]`
//!
//! The report is simulated: the `JSON:` line is bit-identical for any
//! `--workers` value. Run with `--workers 1` and `--workers 8` and diff
//! the two lines to check.
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

    println!("\nsessions {} | ok {} | failovers {}", report.sessions, report.ok, report.failovers);
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
    println!("throughput: {:.2} sessions/sim-s", report.sim_throughput);

    emit_json("fleet_throughput", report.simulated_value());
}
