//! The three fleet workloads, driven through `run_fleet_chaos` as a
//! closed loop of `workers = nproc` threads, plus the traced pass that
//! times each layer's public calls session by session.

use std::time::{Duration, Instant};

use tinman_bench::harness_inputs;
use tinman_chaos::{session_faults, ChaosEvent, ChaosPlan};
use tinman_core::{Mode, RuntimeError};
use tinman_fleet::session::base_link;
use tinman_fleet::{
    apply_session_faults, audit_session_vault, audit_session_vault_sealed, build_session_specs,
    build_session_world_net, run_fleet_chaos, FleetConfig, FleetObs, FleetReport,
    MembershipSchedule, MembershipState, NodePool, RegionMap, SessionNet, SessionSpec,
    TenantSchedule, WorkloadKind,
};
use tinman_obs::TraceHandle;
use tinman_sim::{SimDuration, SimTime, SplitMix64};

use crate::spans::{span_cost_ns, Tracer};
use crate::stats::{median, percentile, scaled};
use crate::{sys, Args, RunResult};

/// Which fleet workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fleet {
    /// The spec generator's standard mix on a clean, flat fleet.
    SteadyMix,
    /// Tenants, routed worlds with a handoff storm, key rotation and
    /// vault crashes.
    ChaosMix,
    /// Two regions with node 0 draining: logins homed there checkpoint
    /// and live-migrate.
    DrainMigrate,
}

impl Fleet {
    /// Sessions in one fleet round. Large enough that a round's tail
    /// (one worker idle while the other finishes) is a small share of
    /// it. `drain_migrate` runs six: two of them (ids 2 and 3, homed on
    /// the draining node) migrate and cost seconds each, and with two
    /// workers they run side by side instead of queueing behind each
    /// other, so the round's length does not depend on thread timing.
    fn sessions(self) -> usize {
        match self {
            Fleet::SteadyMix => 60,
            Fleet::ChaosMix => 48,
            Fleet::DrainMigrate => 6,
        }
    }
}

/// Sessions in the warm-up fleet that ends set-up: the workload's first
/// two (on `drain_migrate`, neither is homed on the draining node).
const WARMUP_SESSIONS: usize = 2;

/// A fleet workload's inputs, all derived from the seed.
struct Setup {
    cfg: FleetConfig,
    plan: ChaosPlan,
    specs: Vec<SessionSpec>,
    pool: NodePool,
    regions: RegionMap,
    membership: MembershipSchedule,
    tenancy: TenantSchedule,
}

fn canned(name: &str) -> ChaosPlan {
    ChaosPlan::canned(name).unwrap_or_else(|| panic!("canned chaos plan {name:?} exists"))
}

fn setup(kind: Fleet, seed: u64, workers: usize) -> Setup {
    let mut cfg = FleetConfig::new(kind.sessions(), workers);
    cfg.seed = seed;
    let mut plan = ChaosPlan::empty();
    match kind {
        Fleet::SteadyMix => {}
        Fleet::ChaosMix => {
            cfg.tenants = 2;
            cfg.topology = true;
            plan = canned("tenant-rotation");
            plan.events.extend(canned("vault-crash").events);
            // The canned handoff storm, standing over every session.
            plan.events.extend(canned("handoff").events);
        }
        Fleet::DrainMigrate => {
            cfg.regions = 2;
            plan.events.push(ChaosEvent::NodeDrain {
                node: 0,
                from_session: 0,
                until_session: u64::MAX,
            });
        }
    }
    let specs = build_session_specs(&cfg);
    let pool = NodePool::new(cfg.nodes, cfg.node_capacity, &cfg.faults).expect("valid pool");
    plan.validate(pool.len()).expect("the workload's chaos plan is valid");
    let regions = RegionMap::new(cfg.regions, pool.len()).expect("valid region count");
    let membership = MembershipSchedule::build(&plan, pool.len(), regions).expect("membership");
    let tenancy = TenantSchedule::build(&cfg, pool.len(), &plan, &specs);
    // Warm-up: the workload's first sessions as a fleet of their own, so
    // lazy set-up and allocator growth happen before the timed region.
    let mut warm = cfg.clone();
    warm.sessions = WARMUP_SESSIONS;
    std::hint::black_box(run_fleet_chaos(&warm, &plan, &FleetObs::default()).expect("starts"));
    Setup { cfg, plan, specs, pool, regions, membership, tenancy }
}

/// One timed fleet run.
struct Round {
    wall: Duration,
    cpu: Duration,
    report: FleetReport,
    simulated: String,
    registry: String,
}

fn run_round(cfg: &FleetConfig, plan: &ChaosPlan) -> Round {
    let obs = FleetObs::default();
    let cpu0 = sys::cpu_time();
    let t0 = Instant::now();
    let report = run_fleet_chaos(cfg, plan, &obs).expect("the fleet starts");
    let wall = t0.elapsed();
    let cpu = sys::cpu_time().saturating_sub(cpu0);
    let simulated = serde_json::to_string(&report.simulated_value()).expect("serializable");
    let registry = serde_json::to_string(&obs.metrics.snapshot_value()).expect("serializable");
    Round { wall, cpu, report, simulated, registry }
}

/// The fail-closed invariants every fleet round must hold.
fn check_invariants(r: &FleetReport, tenants: usize, what: &str, out: &mut RunResult) {
    let zero = [
        ("residue_violations", r.residue_violations),
        ("migration_residue", r.migration_residue),
        ("lost_cors", r.lost_cors),
        ("stale_serves", r.stale_serves),
        ("wal_device_leaks", r.wal_device_leaks),
        ("cross_tenant_residue", r.cross_tenant_residue),
    ];
    for (name, value) in zero {
        out.check(value == 0, || format!("{what}: {name} = {value}, must be 0"));
    }
    if tenants > 0 {
        let v = r.wal_plaintexts;
        out.check(v == 0, || format!("{what}: wal_plaintexts = {v} with tenants on, must be 0"));
    }
    out.check(r.ok + r.fail_closed == r.sessions, || {
        format!("{what}: ok {} + fail_closed {} != sessions {}", r.ok, r.fail_closed, r.sessions)
    });
}

/// Checks that the workload still exercises the layers it was chosen for.
fn check_coverage(kind: Fleet, r: &FleetReport, out: &mut RunResult) {
    let need = match kind {
        Fleet::SteadyMix => vec![("every session ok", r.ok == r.sessions)],
        Fleet::ChaosMix => vec![
            ("torn-tail repairs", r.torn_tail_repairs > 0),
            ("tenant key rotations", r.tenant_key_rotations > 0),
            ("handoffs", r.handoffs > 0),
            ("NAT rewrites", r.nat_rewrites > 0),
        ],
        Fleet::DrainMigrate => vec![("migrations", r.migrations > 0)],
    };
    for (what, held) in need {
        out.check(held, || format!("{kind:?} no longer exercises its layers: no {what}"));
    }
}

/// The simulated fields pinned per workload at the default seed.
fn pinned_fields(r: &FleetReport) -> Vec<(String, u64)> {
    [
        ("sessions", r.sessions),
        ("ok", r.ok),
        ("fail_closed", r.fail_closed),
        ("latency_p50_ns", r.latency.p50.as_nanos()),
        ("latency_p95_ns", r.latency.p95.as_nanos()),
        ("offloads", r.offloads),
        ("dsm_syncs", r.dsm_syncs),
        ("tx_bytes", r.tx_bytes),
        ("rx_bytes", r.rx_bytes),
        ("migrations", r.migrations),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

/// Runs one fleet workload: set-up (repeated, median reported), timed
/// rounds, the output check, and with `--trace 1` the traced pass.
pub fn run(kind: Fleet, args: &Args, out: &mut RunResult) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t0 = Instant::now();
    let w = setup(kind, args.seed, workers);
    let mut setup_times = vec![t0.elapsed().as_secs_f64()];

    // Timed region: whole rounds until the run's time is used up, each
    // timed on its own; set-up repeats between rounds, outside them.
    let started = Instant::now();
    let mut rounds = Vec::new();
    loop {
        rounds.push(run_round(&w.cfg, &w.plan));
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= args.seconds {
            break;
        }
        if crate::setup_due(setup_times.len(), elapsed, args.seconds) {
            let t0 = Instant::now();
            std::hint::black_box(setup(kind, args.seed, workers));
            setup_times.push(t0.elapsed().as_secs_f64());
        }
    }
    let peak_rss = sys::peak_rss_mb();

    // Output check: invariants on every round, exact agreement between
    // rounds and with a 1-worker run.
    let first = &rounds[0];
    for (i, r) in rounds.iter().enumerate() {
        check_invariants(&r.report, w.cfg.tenants, &format!("round {i}"), out);
        out.check(r.simulated == first.simulated, || {
            format!("round {i}: simulated report differs from round 0")
        });
        out.check(r.registry == first.registry, || {
            format!("round {i}: metrics registry counts differ from round 0")
        });
    }
    check_coverage(kind, &first.report, out);
    let mut single = w.cfg.clone();
    single.workers = 1;
    let reference = run_round(&single, &w.plan);
    check_invariants(&reference.report, w.cfg.tenants, "1-worker run", out);
    out.check(reference.simulated == first.simulated, || {
        format!("simulated report at 1 worker differs from {workers} workers")
    });
    out.check(reference.registry == first.registry, || {
        format!("metrics registry counts at 1 worker differ from {workers} workers")
    });
    out.pinned = pinned_fields(&first.report);

    let r = &first.report;
    let sessions = r.sessions as f64;
    out.attempted = rounds.len() as u64 * r.sessions;
    out.failed = rounds
        .iter()
        .map(|x| x.report.sessions.saturating_sub(x.report.ok + x.report.fail_closed))
        .sum();

    let rate: Vec<f64> = rounds.iter().map(|x| sessions / x.wall.as_secs_f64()).collect();
    let cpu_ms: Vec<f64> = rounds.iter().map(|x| x.cpu.as_secs_f64() * 1e3 / sessions).collect();
    out.e2e("sessions_per_wall_s", median(&rate), "1/s");
    out.e2e("cpu_ms_per_session", median(&cpu_ms), "ms");
    out.e2e("ok_share", r.ok as f64 / sessions, "share");
    out.e2e("setup_s", median(&setup_times), "s");
    out.e2e("peak_rss_mb", peak_rss, "MB");

    if args.trace {
        layer_counts(&rounds, workers, out);
        traced_pass(&w, &single, &reference, args, out);
    }
}

/// Per-layer counts from the untraced rounds: `FleetReport` columns and
/// the fleet's metrics registry, which repeat exactly between rounds.
fn layer_counts(rounds: &[Round], workers: usize, out: &mut RunResult) {
    let r = &rounds[0].report;
    let registry: serde_json::Value =
        serde_json::from_str(&rounds[0].registry).expect("registry snapshot parses");
    let counter = |name: &str| -> f64 {
        registry
            .get("counters")
            .and_then(|c| c.get(name))
            .map_or(0.0, |v| v.to_string().parse::<f64>().unwrap_or(0.0))
    };
    let sessions = r.sessions as f64;
    out.layer("fleet.attempts_per_session", r.attempts as f64 / sessions, "ratio");
    out.layer("fleet.ok_per_attempt", r.ok as f64 / (r.attempts.max(1)) as f64, "ratio");
    out.layer("fleet.failovers", r.failovers as f64, "count");
    out.layer("fleet.replays", r.replays as f64, "count");
    out.layer("fleet.migrations", r.migrations as f64, "count");
    let idle: Vec<f64> = rounds
        .iter()
        .map(|x| 1.0 - x.cpu.as_secs_f64() / (workers as f64 * x.wall.as_secs_f64()))
        .collect();
    out.layer("fleet.worker_idle_share", median(&idle), "share");
    out.layer("vault.appends", counter("vault.appends"), "count");
    out.layer("vault.fsyncs", counter("vault.fsyncs"), "count");
    out.layer("vault.recoveries", r.vault_recoveries as f64, "count");
    out.layer("vault.torn_repairs", r.torn_tail_repairs as f64, "count");
    out.layer("tenant.key_rotations", r.tenant_key_rotations as f64, "count");
    out.layer("net.handoffs", r.handoffs as f64, "count");
    out.layer("net.nat_rewrites", r.nat_rewrites as f64, "count");
    out.layer("net.nat_rebinds", r.nat_rebinds as f64, "count");
    out.layer("net.dns_faults", r.dns_faults as f64, "count");
    out.layer("dsm.syncs_per_session", r.dsm_syncs as f64 / sessions, "ratio");
    out.layer("dsm.tx_bytes", r.tx_bytes as f64, "count");
    out.layer("dsm.rx_bytes", r.rx_bytes as f64, "count");
    out.layer("chaos.fail_closed", counter("chaos.fail_closed"), "count");
    out.layer("chaos.dedup_suppressed", counter("chaos.dedup_suppressed"), "count");
    out.layer("sim.latency_p50_ms", r.latency.p50.as_secs_f64() * 1e3, "ms");
    out.layer("sim.latency_p95_ms", r.latency.p95.as_secs_f64() * 1e3, "ms");
    let cpu_ns = median(&rounds.iter().map(|x| x.cpu.as_nanos() as f64).collect::<Vec<_>>());
    let methods = (r.node_methods + r.client_methods).max(1) as f64;
    out.layer("vm.host_ns_per_guest_method", cpu_ns / methods, "ns");
}

/// The seeded offset at which a draining node checkpoints a session —
/// the executor's own rule, so the traced pass checkpoints at the same
/// sync point the fleet does.
fn drain_offset(plan_seed: u64, session_seed: u64, node: usize) -> SimDuration {
    let dice = SplitMix64::new(
        plan_seed ^ session_seed ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    )
    .next_u64();
    SimDuration::from_millis(1)
        + SimDuration::from_nanos(dice % SimDuration::from_millis(400).as_nanos())
}

/// The traced pass: every session's first attempt replayed from the
/// benchmark's own code, one public layer call per span.
///
/// The spans are measured against 1-worker fleet runs over the same
/// sessions — `before`, and one more right after the pass, averaged so
/// a drift in host speed during the pass cancels — to give the share of
/// session time no layer span covers.
fn traced_pass(w: &Setup, single: &FleetConfig, before: &Round, args: &Args, out: &mut RunResult) {
    let inputs = harness_inputs();
    let net =
        SessionNet { topology: w.cfg.topology, resync_retries: if w.cfg.topology { 3 } else { 0 } };
    let noop = TraceHandle::noop();
    let mut tr = Tracer::new();
    let mut checkpoint_bytes = Vec::new();
    let mut sessions = Vec::new();
    for spec in &w.specs {
        if w.tenancy.denial(spec.id).is_some() {
            continue;
        }
        let id = spec.id;
        let login = matches!(spec.workload, WorkloadKind::Login(_));
        let node = w.regions.order(&w.pool, spec.placement_key())[0];
        let shard = w.pool.shard(node);
        let labels = (shard.label_start, shard.label_end);
        let faults = session_faults(&w.plan, node, id, spec.seed);
        let link = base_link(spec.link);

        let session = tr.begin("fleet.session", id);
        sessions.push(session);
        let mut world = tr
            .time("fleet.world_build", id, || {
                build_session_world_net(spec, labels, link.clone(), &noop, net)
            })
            .expect("session world builds");
        if w.membership.state_at(node, id) == MembershipState::Draining {
            let at = SimTime::ZERO + drain_offset(w.plan.seed, spec.seed, node);
            world.rt.set_drain_at(at, world.secrets.clone());
        }
        apply_session_faults(&mut world.rt, &faults);
        let run_name = match (w.cfg.topology, login) {
            (false, true) => "core.run_app.login",
            (false, false) => "core.run_app.form",
            (true, true) => "core.run_app_routed.login",
            (true, false) => "core.run_app_routed.form",
        };
        let run = tr.time(run_name, id, || world.rt.run_app(&world.app, Mode::TinMan, &inputs));
        if matches!(run, Err(RuntimeError::NodeDraining { .. })) {
            let cp = world.rt.take_node_checkpoint().expect("a drained run leaves a checkpoint");
            let (machine, engine) = tr
                .time("core.checkpoint_restore", id, || cp.restore())
                .expect("the checkpoint restores");
            let bytes = tr.time("core.checkpoint_serialize", id, || {
                let m = serde_json::to_string(&machine).expect("machine serializes");
                let e = serde_json::to_string(&engine).expect("engine serializes");
                m.len() + e.len()
            });
            out.check(bytes as u64 == cp.wire_bytes(), || {
                format!(
                    "session {id}: restored checkpoint re-serializes to {bytes} bytes, shipped {}",
                    cp.wire_bytes()
                )
            });
            checkpoint_bytes.push(cp.wire_bytes() as f64);
        }
        let residue: usize = tr.time("core.residue_scan", id, || {
            world.secrets.iter().map(|s| world.rt.scan_residue(s).len()).sum()
        });
        out.check(residue == 0, || format!("session {id}: {residue} residue hits on the device"));
        let audit = if w.tenancy.enabled() {
            let seal = w.tenancy.seal_context(spec, w.tenancy.faults(spec).epoch);
            tr.time("tenant.sealed_audit", id, || {
                audit_session_vault_sealed(
                    &world.rt,
                    &world.secrets,
                    faults.vault_crash,
                    faults.dice_seed,
                    &seal,
                )
            })
        } else {
            tr.time("vault.audit", id, || {
                audit_session_vault(&world.rt, &world.secrets, faults.vault_crash, faults.dice_seed)
            })
        };
        out.check(audit.lost_cors == 0 && audit.wal_device_leaks == 0, || {
            format!("session {id}: vault audit lost cors or leaked to the device")
        });
        tr.end(session);

        // Routed workloads also run the same session, with the same
        // faults, on a flat world, so the routed topology's cost shows as
        // the difference.
        if w.cfg.topology {
            let mut flat =
                build_session_world_net(spec, labels, link, &noop, SessionNet::default())
                    .expect("flat session world builds");
            apply_session_faults(&mut flat.rt, &faults);
            let name = if login { "core.run_app.login" } else { "core.run_app.form" };
            let _ = tr.time(name, id, || flat.rt.run_app(&flat.app, Mode::TinMan, &inputs));
        }
    }

    let after = run_round(single, &w.plan);
    out.check(after.simulated == before.simulated, || {
        "the second 1-worker run's simulated report differs from the first".to_owned()
    });
    let exec_ns = (before.wall + after.wall).as_nanos() as f64 / 2.0;

    let ms = |names: &[&str]| -> Vec<f64> {
        let ns: Vec<u64> = names.iter().flat_map(|n| tr.durations(n)).collect();
        scaled(&ns, 1e6)
    };
    let us = |name: &str| scaled(&tr.durations(name), 1e3);
    let run_app = ms(&["core.run_app.login", "core.run_app.form"]);
    out.layer("core.run_app_ms_p50", percentile(&run_app, 50.0), "ms");
    out.layer("core.run_app_ms_p95", percentile(&run_app, 95.0), "ms");
    out.layer("core.run_app_login_ms_p50", percentile(&ms(&["core.run_app.login"]), 50.0), "ms");
    out.layer("core.run_app_form_ms_p50", percentile(&ms(&["core.run_app.form"]), 50.0), "ms");
    let routed = ms(&["core.run_app_routed.login", "core.run_app_routed.form"]);
    out.layer("core.run_app_routed_ms_p50", percentile(&routed, 50.0), "ms");
    let restore = ms(&["core.checkpoint_restore"]);
    let serialize = ms(&["core.checkpoint_serialize"]);
    out.layer("core.checkpoints", restore.len() as f64, "count");
    out.layer("core.checkpoint_restore_ms", median(&restore), "ms");
    out.layer("core.checkpoint_serialize_ms", median(&serialize), "ms");
    out.layer("core.checkpoint_bytes", median(&checkpoint_bytes), "bytes");
    let checkpoint_ns: f64 = (restore.iter().sum::<f64>() + serialize.iter().sum::<f64>()) * 1e6;
    out.layer("core.checkpoint_share", checkpoint_ns / exec_ns, "share");
    out.layer("core.residue_scan_us", percentile(&us("core.residue_scan"), 50.0), "us");
    out.layer("fleet.world_build_us_p50", percentile(&us("fleet.world_build"), 50.0), "us");
    out.layer("vault.audit_us_p50", percentile(&us("vault.audit"), 50.0), "us");
    out.layer("tenant.sealed_audit_us_p50", percentile(&us("tenant.sealed_audit"), 50.0), "us");
    out.layer("fleet.session_exec_ms", exec_ns / 1e6 / w.specs.len() as f64, "ms");
    let attributed: f64 = sessions.iter().map(|&s| tr.children_ns(s) as f64).sum();
    out.layer("fleet.unattributed_share", 1.0 - attributed / exec_ns, "share");
    let spans = tr.spans().len() as f64;
    let traced_ns: f64 =
        tr.spans().iter().filter(|s| s.parent.is_none()).map(|s| s.ns() as f64).sum();
    let session_ns: f64 = sessions.iter().map(|&s| tr.spans()[s].ns() as f64).sum();
    out.layer("trace.spans", spans, "count");
    out.layer("trace.overhead_share", spans * span_cost_ns() / traced_ns, "share");
    out.layer("trace.traced_over_untraced", session_ns / exec_ns, "ratio");
    crate::write_spans(args, &tr);
}
