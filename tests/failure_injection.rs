//! Failure injection: what the runtime does when pieces misbehave.
//!
//! DESIGN.md commits to exercising dropped segments, refused handshakes,
//! malformed records, policy denials mid-flow, and corrupted migration
//! state — the paths a production system must fail *cleanly* on.

use std::collections::HashMap;

use tinman::apps::logins::{build_login_app, LoginAppSpec};
use tinman::apps::servers::{install_auth_server, AuthServerSpec};
use tinman::cor::CorStore;
use tinman::core::error::RuntimeError;
use tinman::core::runtime::{Mode, TinmanConfig, TinmanRuntime};
use tinman::net::{Addr, FilterAction, NetWorld, Segment, ServerApp, ServerReply};
use tinman::sim::{LinkProfile, SimClock, SimDuration};
use tinman::tls::{ContentType, Record};
use tinman::vm::Value;

const PASSWORD: &str = "hunter2-sUp3r-s3cret";

fn inputs() -> HashMap<String, String> {
    HashMap::from([("username".to_owned(), "alice".to_owned())])
}

fn world(spec: &LoginAppSpec) -> TinmanRuntime {
    let mut store = CorStore::new(99);
    store.register(PASSWORD, spec.cor_description, &[spec.domain]).unwrap();
    let mut rt = TinmanRuntime::new(store, LinkProfile::wifi(), TinmanConfig::default());
    let tls = rt.server_tls_config();
    install_auth_server(
        &mut rt.world,
        tls,
        AuthServerSpec {
            domain: spec.domain,
            user: "alice",
            password: PASSWORD.to_owned(),
            hash_login: false,
            think: SimDuration::from_millis(20),
            page_bytes: 0,
        },
    );
    rt
}

#[test]
fn missing_dns_entry_fails_cleanly() {
    // No server installed at all: net.connect fails inside the app.
    let spec = LoginAppSpec::github();
    let app = build_login_app(&spec);
    let mut store = CorStore::new(99);
    store.register(PASSWORD, spec.cor_description, &[spec.domain]).unwrap();
    let mut rt = TinmanRuntime::new(store, LinkProfile::wifi(), TinmanConfig::default());
    let err = rt.run_app(&app, Mode::TinMan, &inputs()).unwrap_err();
    assert!(matches!(err, RuntimeError::Vm(tinman::vm::VmError::NativeError { .. })));
    // Nothing leaked before the failure.
    assert!(rt.scan_residue(PASSWORD).is_clean());
}

#[test]
fn connection_refused_fails_cleanly() {
    // Host exists but nothing listens on 443.
    let spec = LoginAppSpec::github();
    let app = build_login_app(&spec);
    let mut store = CorStore::new(99);
    store.register(PASSWORD, spec.cor_description, &[spec.domain]).unwrap();
    let mut rt = TinmanRuntime::new(store, LinkProfile::wifi(), TinmanConfig::default());
    rt.world.add_host(spec.domain, LinkProfile::ethernet());
    let err = rt.run_app(&app, Mode::TinMan, &inputs()).unwrap_err();
    assert!(matches!(err, RuntimeError::Vm(tinman::vm::VmError::NativeError { .. })));
}

#[test]
fn missing_scripted_input_is_reported() {
    let spec = LoginAppSpec::github();
    let app = build_login_app(&spec);
    let mut rt = world(&spec);
    let empty: HashMap<String, String> = HashMap::new();
    let err = rt.run_app(&app, Mode::TinMan, &empty).unwrap_err();
    match err {
        RuntimeError::Vm(tinman::vm::VmError::NativeError { message, .. }) => {
            assert!(message.contains("username"), "{message}");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn server_that_garbles_records_fails_the_login_not_the_runtime() {
    // A server that answers the handshake, then replies with corrupt
    // records: the client's record layer rejects them, the app sees an
    // empty/failed response, and the run completes with result 0.
    type PlainHandler = fn(Addr, &str) -> (String, SimDuration);

    struct Garbler {
        inner: tinman::core::server::HttpsServerApp<PlainHandler>,
        after_handshake: bool,
    }
    impl ServerApp for Garbler {
        fn on_connect(&mut self, peer: Addr) {
            self.inner.on_connect(peer);
        }
        fn on_data(&mut self, peer: Addr, data: &[u8]) -> ServerReply {
            if !self.after_handshake {
                self.after_handshake = true;
                return self.inner.on_data(peer, data); // let TLS establish
            }
            // From now on: syntactically valid records with garbage bodies.
            let rec = Record {
                content_type: ContentType::ApplicationData,
                version: 0x33,
                body: vec![0xFF; 64],
            };
            ServerReply { data: rec.to_bytes(), think: SimDuration::ZERO, close: false }
        }
    }
    fn noop(_: Addr, _: &str) -> (String, SimDuration) {
        (String::new(), SimDuration::ZERO)
    }

    let spec = LoginAppSpec::github();
    let app = build_login_app(&spec);
    let mut store = CorStore::new(99);
    store.register(PASSWORD, spec.cor_description, &[spec.domain]).unwrap();
    let mut rt = TinmanRuntime::new(store, LinkProfile::wifi(), TinmanConfig::default());
    let tls = rt.server_tls_config();
    let host = rt.world.add_host(spec.domain, LinkProfile::ethernet());
    rt.world.install_server(
        Addr::new(host, 443),
        Box::new(Garbler {
            inner: tinman::core::server::HttpsServerApp::new(tls, noop),
            after_handshake: false,
        }),
    );
    let result = rt.run_app(&app, Mode::TinMan, &inputs());
    // Either a clean app-level failure (result 0) or a surfaced record
    // error — never a panic, never residue.
    match result {
        Ok(report) => assert_eq!(report.result, Value::Int(0)),
        Err(RuntimeError::Vm(tinman::vm::VmError::NativeError { .. })) => {}
        other => panic!("unexpected: {other:?}"),
    }
    assert!(rt.scan_residue(PASSWORD).is_clean());
}

#[test]
fn dropping_the_marked_packet_surfaces_a_clean_error() {
    // An egress filter that DROPS marked packets instead of redirecting
    // them (a broken iptables rule): the node waits for a diverted packet
    // that never comes, and reports it.
    let spec = LoginAppSpec::github();
    let app = build_login_app(&spec);
    let mut rt = world(&spec);
    let phone = rt.phone_host();
    rt.world.set_egress_filter(
        phone,
        Box::new(|seg: &Segment| {
            if seg.payload.first() == Some(&tinman::tls::TINMAN_MARK) {
                FilterAction::Drop
            } else {
                FilterAction::Pass
            }
        }),
    );
    let err = rt.run_app(&app, Mode::TinMan, &inputs()).unwrap_err();
    match err {
        RuntimeError::Vm(tinman::vm::VmError::NativeError { message, .. }) => {
            assert!(message.contains("diverted"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    assert!(rt.scan_residue(PASSWORD).is_clean());
}

#[test]
fn disabling_the_filter_lets_only_the_placeholder_escape() {
    // Worst-case misconfiguration: no egress filter at all. The marked
    // record goes straight to the site — but it carries only the
    // PLACEHOLDER, so the secret still does not leak; the login simply
    // fails (the server ignores/garbles the unexpected record type or
    // rejects the wrong password).
    let spec = LoginAppSpec::github();
    let app = build_login_app(&spec);
    let mut rt = world(&spec);
    let phone = rt.phone_host();
    rt.world.clear_egress_filter(phone);
    let result = rt.run_app(&app, Mode::TinMan, &inputs());
    match result {
        Ok(report) => assert_eq!(report.result, Value::Int(0), "login must fail"),
        Err(RuntimeError::Vm(_)) => {}
        other => panic!("unexpected: {other:?}"),
    }
    assert!(rt.scan_residue(PASSWORD).is_clean(), "even now, no plaintext on the device");
}

#[test]
fn injecting_a_corrupted_flow_is_rejected_by_the_world() {
    let clock = SimClock::new();
    let mut w = NetWorld::new(clock);
    let a = w.add_host("a", LinkProfile::wifi());
    let b = w.add_host("b", LinkProfile::ethernet());
    let bogus = Segment {
        src: Addr::new(a, 5),
        dst: Addr::new(b, 443),
        seq: 0,
        ack: 0,
        flags: tinman::net::tcp::TcpFlags::ACK,
        payload: vec![1, 2, 3],
    };
    assert!(w.inject(a, bogus).is_err(), "no matching flow");
}

#[test]
fn fuel_exhaustion_is_surfaced_not_hung() {
    // An app that loops forever: the runtime's fuel budget converts the
    // hang into an error.
    use tinman::vm::{Insn, ProgramBuilder};
    let mut p = ProgramBuilder::new("spinner");
    let main = p.define("main", 0, 2, |b, _| {
        let top = b.label();
        b.bind(top);
        b.const_i(1).op(Insn::Pop);
        b.jump(top);
    });
    let app = p.build(main);
    let spec = LoginAppSpec::github();
    let mut rt = world(&spec);
    let err = rt.run_app(&app, Mode::TinMan, &inputs()).unwrap_err();
    assert!(matches!(err, RuntimeError::FuelExhausted));
}

// ---------------------------------------------------------------------------
// Property: under ANY chaos plan, every session either completes or fails
// closed — and the whole run is a deterministic function of its seeds.

mod chaos_properties {
    use proptest::prelude::*;
    use tinman::chaos::{ChaosEvent, ChaosPlan};
    use tinman::fleet::{run_fleet_chaos, FleetConfig, FleetObs};
    use tinman::sim::SimDuration;

    /// Assembles a valid-by-construction plan from raw dice. Windows get a
    /// nonzero length and node indices stay inside the two-node pool, so
    /// every generated plan passes validation and actually runs.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        seed: u64,
        trip_after: u64,
        probe_every: u64,
        crash: Option<(usize, u64, u64)>,
        recover_from: Option<u64>,
        loss_pct: u8,
        corrupt_pct: u8,
        delay_ms: u64,
        flap: Option<(u64, u64)>,
        partition: Option<(usize, u64, u64)>,
        sync: Option<(usize, u64, u64)>,
    ) -> ChaosPlan {
        let mut plan = ChaosPlan::empty();
        plan.seed = seed;
        plan.trip_after = trip_after;
        plan.probe_every = probe_every;
        if let Some((node, at_ms, from_session)) = crash {
            plan.events.push(ChaosEvent::NodeCrash {
                node,
                at: SimDuration::from_millis(at_ms),
                from_session,
            });
            if let Some(from_session) = recover_from {
                plan.events.push(ChaosEvent::NodeRecover { node, from_session });
            }
        }
        if loss_pct > 0 {
            plan.events.push(ChaosEvent::PacketLoss { pct: loss_pct });
        }
        if corrupt_pct > 0 {
            plan.events.push(ChaosEvent::PacketCorrupt { pct: corrupt_pct });
        }
        if delay_ms > 0 {
            plan.events.push(ChaosEvent::PacketDelay { delay: SimDuration::from_millis(delay_ms) });
        }
        if let Some((from_ms, len_ms)) = flap {
            plan.events.push(ChaosEvent::LinkFlap {
                from: SimDuration::from_millis(from_ms),
                until: SimDuration::from_millis(from_ms + len_ms),
            });
        }
        if let Some((node, from_session, len)) = partition {
            plan.events.push(ChaosEvent::Partition {
                node,
                from_session,
                until_session: from_session + len,
            });
        }
        if let Some((node, from_ms, len_ms)) = sync {
            plan.events.push(ChaosEvent::SyncTimeout {
                node,
                from: SimDuration::from_millis(from_ms),
                until: SimDuration::from_millis(from_ms + len_ms),
            });
        }
        plan
    }

    proptest! {
        // Every case runs a whole 3-session fleet twice; 16 cases keeps the
        // property inside the debug-build test budget.
        #![cases(16)]
        #[test]
        fn arbitrary_plans_fail_closed_and_deterministically(
            seed in any::<u64>(),
            trip_after in 1u64..4,
            probe_every in 1u64..4,
            with_crash in any::<bool>(),
            crash_node in 0usize..2,
            crash_at_ms in 0u64..2000,
            crash_from in 0u64..3,
            with_recover in any::<bool>(),
            recover_from in 0u64..4,
            loss_pct in 0u8..35,
            corrupt_pct in 0u8..15,
            delay_ms in 0u64..40,
            with_flap in any::<bool>(),
            flap_from_ms in 0u64..1500,
            flap_len_ms in 1u64..400,
            with_partition in any::<bool>(),
            part_node in 0usize..2,
            part_from in 0u64..3,
            part_len in 1u64..4,
            with_sync in any::<bool>(),
            sync_node in 0usize..2,
            sync_from_ms in 0u64..1500,
            sync_len_ms in 1u64..500,
        ) {
            let plan = assemble(
                seed,
                trip_after,
                probe_every,
                with_crash.then_some((crash_node, crash_at_ms, crash_from)),
                with_recover.then_some(recover_from),
                loss_pct,
                corrupt_pct,
                delay_ms,
                with_flap.then_some((flap_from_ms, flap_len_ms)),
                with_partition.then_some((part_node, part_from, part_len)),
                with_sync.then_some((sync_node, sync_from_ms, sync_len_ms)),
            );
            let mut cfg = FleetConfig::new(3, 2);
            cfg.nodes = 2;
            prop_assert!(plan.validate(cfg.nodes).is_ok());

            let report = run_fleet_chaos(&cfg, &plan, &FleetObs::default())
                .expect("valid plan runs");
            // Fail-closed invariant: no third state between success and an
            // audited placeholder-only failure, and never any residue.
            prop_assert_eq!(report.violations(), []);

            // Determinism: the same seeds replay byte-for-byte.
            let again = run_fleet_chaos(&cfg, &plan, &FleetObs::default())
                .expect("valid plan runs");
            prop_assert_eq!(
                serde_json::to_string(&report.simulated_value()).unwrap(),
                serde_json::to_string(&again.simulated_value()).unwrap()
            );
        }
    }
}

#[test]
fn faulted_machine_does_not_resume() {
    use tinman::taint::TaintEngine;
    use tinman::vm::{interp, ExecConfig, Insn, Machine, ProgramBuilder, VmError};
    let mut p = ProgramBuilder::new("fault");
    let main = p.define("main", 0, 1, |b, _| {
        b.const_i(1).const_i(0).op(Insn::Div).op(Insn::Halt);
    });
    let img = p.build(main);
    let mut m = Machine::new();
    let mut host = interp::NullHost;
    let mut engine = TaintEngine::none();
    let first = interp::run(&mut m, &img, &mut host, &mut engine, ExecConfig::client());
    assert!(first.is_err());
    let second = interp::run(&mut m, &img, &mut host, &mut engine, ExecConfig::client());
    assert!(matches!(second, Err(VmError::NotRunnable { .. })));
}
