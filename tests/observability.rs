//! Observability guarantees: a traced login run emits the paper's event
//! sequence in causal order, tracing never perturbs the simulated
//! result, and the Chrome trace export is well-formed JSON.

use std::collections::HashMap;

use tinman::apps::logins::{build_login_app, LoginAppSpec};
use tinman::apps::servers::{install_auth_server, AuthServerSpec};
use tinman::chaos::ChaosPlan;
use tinman::cor::CorStore;
use tinman::core::runtime::{Mode, RunReport, TinmanConfig, TinmanRuntime};
use tinman::fleet::{
    build_session_specs, run_fleet, run_fleet_chaos, FaultPlan, FleetConfig, FleetObs, NodePool,
    RegionMap,
};
use tinman::obs::{chrome_trace_json, TraceHandle, TraceRecord};
use tinman::sim::{LinkProfile, SimDuration};
use tinman::vm::Value;

const PASSWORD: &str = "hunter2-sUp3r-s3cret";

fn inputs() -> HashMap<String, String> {
    HashMap::from([("username".to_owned(), "alice".to_owned())])
}

/// Runs one Table-3 login through the full stack with the given trace
/// handle and returns its report.
fn traced_login(trace: &TraceHandle) -> RunReport {
    let spec = &LoginAppSpec::table3()[0];
    let mut store = CorStore::new(99);
    store.register(PASSWORD, spec.cor_description, &[spec.domain]).expect("label space");
    let mut rt = TinmanRuntime::new(store, LinkProfile::wifi(), TinmanConfig::default());
    rt.set_trace(trace.clone(), 0);
    let tls = rt.server_tls_config();
    install_auth_server(
        &mut rt.world,
        tls,
        AuthServerSpec {
            domain: spec.domain,
            user: "alice",
            password: PASSWORD.to_owned(),
            hash_login: spec.hash_login,
            think: SimDuration::from_millis(120),
            page_bytes: 64_000,
        },
    );
    let app = build_login_app(spec);
    let report = rt.run_app(&app, Mode::TinMan, &inputs()).expect("login runs");
    assert_eq!(report.result, Value::Int(1), "login succeeds");
    report
}

fn first_index(records: &[TraceRecord], name: &str) -> usize {
    records
        .iter()
        .position(|r| r.event.name() == name)
        .unwrap_or_else(|| panic!("no `{name}` event in the trace"))
}

#[test]
fn login_emits_the_paper_event_sequence() {
    let (trace, sink) = TraceHandle::ring(4096);
    traced_login(&trace);
    let records = sink.snapshot();
    assert!(!records.is_empty(), "a traced login produces events");

    // The §3 pipeline, in causal order: taint trigger → execution
    // offload (DSM syncs) → SSL session injection → TCP payload
    // replacement → migrate-back.
    let trigger = first_index(&records, "offload_trigger");
    let sync = first_index(&records, "dsm_sync");
    let injection = first_index(&records, "ssl_injection");
    let replace = first_index(&records, "tcp_payload_replace");
    let back = first_index(&records, "migrate_back");
    assert!(trigger < sync, "taint trigger precedes the first DSM sync");
    assert!(sync < injection, "state migrates before the SSL session is injected");
    assert!(injection < replace, "injection precedes payload replacement");
    assert!(replace < back, "execution migrates back only after the real bytes go out");

    // The trigger names the offloaded function and carries taint labels.
    match &records[trigger].event {
        tinman::obs::TraceEvent::OffloadTrigger { labels, func, .. } => {
            assert!(!labels.is_empty(), "the trigger carries the tainted labels");
            assert!(!func.is_empty(), "the trigger names the offloaded function");
        }
        other => panic!("expected OffloadTrigger, got {other:?}"),
    }

    // Dual-clock stamping: simulated time is monotone over the single
    // track, and every record also carries a wall-clock stamp.
    assert!(
        records.windows(2).all(|w| w[0].sim_ns <= w[1].sim_ns),
        "simulated timestamps are monotone within one session"
    );
    assert!(records.iter().all(|r| r.wall_ns > 0), "wall stamps present");

    // The run is wrapped in a span pair.
    use tinman::obs::TracePhase;
    assert!(records.iter().any(|r| r.phase == TracePhase::Begin));
    assert!(records.iter().any(|r| r.phase == TracePhase::End));
}

#[test]
fn tracing_does_not_perturb_the_simulated_run() {
    let silent = traced_login(&TraceHandle::noop());
    let (trace, sink) = TraceHandle::ring(4096);
    let traced = traced_login(&trace);
    assert!(!sink.snapshot().is_empty());

    assert_eq!(silent.latency, traced.latency);
    assert_eq!(silent.offloads, traced.offloads);
    assert_eq!(silent.node_methods, traced.node_methods);
    assert_eq!(silent.client_methods, traced.client_methods);
    assert_eq!(silent.dsm.sync_count, traced.dsm.sync_count);
    assert_eq!(silent.traffic.tx_bytes, traced.traffic.tx_bytes);
    assert_eq!(silent.traffic.rx_bytes, traced.traffic.rx_bytes);
    assert_eq!(silent.energy.as_microjoules(), traced.energy.as_microjoules());
}

#[test]
fn tracing_does_not_perturb_the_fleet_aggregate() {
    let mut cfg = FleetConfig::new(8, 2);
    cfg.nodes = 2;
    cfg.faults = FaultPlan { down_nodes: vec![0], slow_nodes: vec![] };

    let silent = run_fleet(&cfg).expect("fleet runs");
    let (trace, sink) = TraceHandle::ring(1 << 16);
    let obs = FleetObs { trace, ..FleetObs::default() };
    let traced = run_fleet_chaos(&cfg, &ChaosPlan::empty(), &obs).expect("fleet runs");

    assert!(!sink.snapshot().is_empty());
    assert_eq!(
        serde_json::to_string(&silent.simulated_value()).unwrap(),
        serde_json::to_string(&traced.simulated_value()).unwrap(),
        "tracing must not perturb the simulated aggregate"
    );
}

/// Runs the hostile-guest plan on a flat fleet and on a two-region one.
/// On a region fleet a session's first placement is its home region's
/// first node, which need not be its ring primary; admission and the
/// `session_shed` event must both name that first placement.
#[test]
fn hostile_run_emits_guard_counters_and_events() {
    for regions in [0u32, 2] {
        let mut cfg = FleetConfig::new(if regions == 0 { 8 } else { 24 }, 2);
        cfg.nodes = 4;
        cfg.regions = regions;
        let plan = ChaosPlan::canned("hostile-guest").expect("canned plan");
        let (trace, sink) = TraceHandle::ring(1 << 16);
        let obs = FleetObs { trace, ..FleetObs::default() };
        let report = run_fleet_chaos(&cfg, &plan, &obs).expect("fleet runs");
        assert!(
            report.guest_kills > 0 && report.shed_sessions > 0,
            "the plan exercises both paths"
        );

        // Counters mirror the report exactly, including the per-budget
        // breakdown.
        assert_eq!(obs.metrics.get("guard.kills"), report.guest_kills);
        assert_eq!(obs.metrics.get("guard.sheds"), report.shed_sessions);
        let breakdown: u64 = [
            "guard.fuel_exhausted",
            "guard.heap_exhausted",
            "guard.depth_exhausted",
            "guard.dsm_exhausted",
            "guard.deadline_exhausted",
        ]
        .iter()
        .map(|n| obs.metrics.get(n))
        .sum();
        assert_eq!(breakdown, report.guest_kills, "every kill lands in exactly one budget counter");

        // One trace event per kill and per shed, each naming its reason.
        let records = sink.snapshot();
        let kills: Vec<_> = records
            .iter()
            .filter_map(|r| match &r.event {
                tinman::obs::TraceEvent::GuestKilled { reason, .. } => Some(*reason),
                _ => None,
            })
            .collect();
        let sheds: Vec<(u64, u64)> = records
            .iter()
            .filter_map(|r| match &r.event {
                tinman::obs::TraceEvent::SessionShed { session, node, reason }
                    if *reason == "overloaded" =>
                {
                    Some((*session, *node))
                }
                _ => None,
            })
            .collect();
        assert_eq!(kills.len() as u64, report.guest_kills);
        assert_eq!(sheds.len() as u64, report.shed_sessions);
        assert!(kills.iter().all(|r| !r.is_empty()), "each kill event names its budget");

        // Every shed names the session's first placement.
        let pool = NodePool::new(cfg.nodes, cfg.node_capacity, &cfg.faults).expect("pool");
        let map = RegionMap::new(cfg.regions, pool.len()).expect("regions");
        let specs = build_session_specs(&cfg);
        for (session, node) in sheds {
            let first = map.order(&pool, specs[session as usize].placement_key())[0];
            assert_eq!(node, first as u64, "session {session} shed on the wrong node");
        }
    }
}

#[test]
fn tracing_does_not_perturb_the_hostile_aggregate() {
    let mut cfg = FleetConfig::new(8, 2);
    cfg.nodes = 4;
    let plan = ChaosPlan::canned("hostile-guest").expect("canned plan");

    let silent = run_fleet_chaos(&cfg, &plan, &FleetObs::default()).expect("fleet runs");
    let (trace, sink) = TraceHandle::ring(1 << 16);
    let obs = FleetObs { trace, ..FleetObs::default() };
    let traced = run_fleet_chaos(&cfg, &plan, &obs).expect("fleet runs");

    assert!(!sink.snapshot().is_empty());
    assert_eq!(
        serde_json::to_string(&silent.simulated_value()).unwrap(),
        serde_json::to_string(&traced.simulated_value()).unwrap(),
        "guard instrumentation must be invisible to the simulated aggregate"
    );
}

#[test]
fn chrome_trace_export_is_valid_json_with_one_track_per_session() {
    let mut cfg = FleetConfig::new(4, 2);
    cfg.nodes = 2;
    let (trace, sink) = TraceHandle::ring(1 << 16);
    let obs = FleetObs { trace, ..FleetObs::default() };
    run_fleet_chaos(&cfg, &ChaosPlan::empty(), &obs).expect("fleet runs");

    let records = sink.snapshot();
    let json = chrome_trace_json(&records);
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("export parses");
    let events = match &parsed {
        serde_json::Value::Map(map) => match map.iter().find(|(k, _)| k == "traceEvents") {
            Some((_, serde_json::Value::Seq(events))) => events,
            other => panic!("traceEvents must be an array, got {other:?}"),
        },
        other => panic!("expected a top-level object, got {other:?}"),
    };
    assert_eq!(events.len(), records.len());

    // One Chrome track (tid) per device session.
    let mut tracks: Vec<u64> = records.iter().map(|r| r.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    assert_eq!(tracks, vec![0, 1, 2, 3], "each session owns its track");

    // Every event carries the phase/timestamp fields the viewer needs.
    for ev in events {
        let map = match ev {
            serde_json::Value::Map(m) => m,
            other => panic!("trace event must be an object, got {other:?}"),
        };
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(map.iter().any(|(k, _)| k == key), "missing `{key}`: {map:?}");
        }
    }
}
