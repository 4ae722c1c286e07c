//! Hostile-guest workloads and guard-aware admission for the fleet.
//!
//! The trusted node is trusted; the guest bytecode it runs is not. This
//! module provides the two fleet-side halves of per-session resource
//! governance:
//!
//! - **Hostile workloads** — [`build_hostile_app`] synthesizes one guest
//!   per [`HostileGuestKind`], each engineered to exhaust exactly one
//!   [`GuardPolicy`] budget on the node: `Spin` burns fuel, `HeapBomb`
//!   doubles a string until the heap quota trips, `DeepRecursion` blows
//!   the call-depth limit, and `SyncFlood` ping-pongs DSM migrations
//!   until the sync budget is gone. [`build_hostile_world`] wraps one in
//!   a hermetic session world with the guard armed.
//! - **Load shedding** — [`GuardSchedule`] replays per-node budget
//!   reservations over the session-id axis (the same pure-projection
//!   trick as the chaos `BreakerSchedule`): each placement reserves its
//!   ask from a sliding window of the node's recent admissions, and a
//!   session whose ask does not fit is shed with reason `overloaded`
//!   before any attempt runs. The schedule is a pure function of
//!   `(config, plan, topology)`, so shedding is identical at any worker
//!   count.

use std::collections::{HashSet, VecDeque};

use tinman_chaos::{session_faults, ChaosEvent, ChaosPlan, HostileGuestKind};
use tinman_guard::{GuardPolicy, KillReason};
use tinman_obs::TraceHandle;
use tinman_sim::LinkProfile;
use tinman_vm::{AppImage, Insn, ProgramBuilder};

use crate::pool::NodePool;
use crate::region::RegionMap;
use crate::session::{session_runtime, session_store, SessionNet, SessionWorld};
use crate::spec::{FleetConfig, SessionSpec};

/// The cor description every hostile guest asks for; registered by
/// [`build_hostile_world`] so the guest genuinely carries cor — the
/// post-kill node residue scan has something real to look for.
pub const HOSTILE_COR_DESCRIPTION: &str = "Hostile secret";

/// The guard policy the fleet arms on every session of a hostile run:
/// the default envelope, sized so every legitimate workload in this
/// repository finishes with a wide margin while each hostile guest dies
/// against exactly one budget.
pub fn fleet_policy() -> GuardPolicy {
    GuardPolicy::default()
}

/// The budget each hostile kind is engineered to exhaust first.
pub fn expected_kill(kind: HostileGuestKind) -> KillReason {
    match kind {
        HostileGuestKind::Spin => KillReason::Fuel,
        HostileGuestKind::HeapBomb => KillReason::Heap,
        HostileGuestKind::DeepRecursion => KillReason::Depth,
        HostileGuestKind::SyncFlood => KillReason::DsmSyncs,
    }
}

/// Stable workload name for one hostile kind.
pub fn hostile_workload_name(kind: HostileGuestKind) -> &'static str {
    match kind {
        HostileGuestKind::Spin => "hostile-spin",
        HostileGuestKind::HeapBomb => "hostile-heap-bomb",
        HostileGuestKind::DeepRecursion => "hostile-deep-recursion",
        HostileGuestKind::SyncFlood => "hostile-sync-flood",
    }
}

/// Synthesizes the guest program for one hostile kind. Every program
/// first picks a cor and derives from it (the Figure 11 trigger), so the
/// attack runs *on the trusted node* where the real plaintext lives —
/// that is what makes the guard's scrub-on-kill obligation meaningful.
pub fn build_hostile_app(kind: HostileGuestKind) -> AppImage {
    match kind {
        HostileGuestKind::Spin => build_spin(),
        HostileGuestKind::HeapBomb => build_heap_bomb(),
        HostileGuestKind::DeepRecursion => build_deep_recursion(),
        HostileGuestKind::SyncFlood => build_sync_flood(),
    }
}

/// An infinite tainted-read loop: after the offload it re-reads the cor
/// forever, so taint never idles, no migrate-back happens, and the only
/// way out is the node-side fuel budget.
fn build_spin() -> AppImage {
    let mut p = ProgramBuilder::new("hostile-spin");
    let n_select = p.native("ui.select_cor");
    let s_desc = p.string(HOSTILE_COR_DESCRIPTION);
    let s_bang = p.string("!");
    let main = p.define("main", 0, 2, |b, _| {
        // locals: 0=pw, 1=body
        b.op(Insn::ConstS(s_desc)).op(Insn::CallNative(n_select, 1)).store(0);
        // Tainted derive: triggers the offload, so the burn below runs on
        // the trusted node.
        b.load(0).op(Insn::ConstS(s_bang)).op(Insn::StrConcat).store(1);
        let top = b.label();
        b.bind(top);
        b.load(1).const_i(0).op(Insn::StrCharAt).op(Insn::Pop);
        b.jump(top);
        b.const_i(0).op(Insn::Halt); // unreachable
    });
    p.build(main)
}

/// Doubles a cor-derived string forever. The heap has no GC, so live
/// payload bytes grow geometrically and the byte quota trips after a few
/// dozen iterations — long before fuel would.
fn build_heap_bomb() -> AppImage {
    let mut p = ProgramBuilder::new("hostile-heap-bomb");
    let n_select = p.native("ui.select_cor");
    let s_desc = p.string(HOSTILE_COR_DESCRIPTION);
    let main = p.define("main", 0, 2, |b, _| {
        // locals: 0=pw, 1=body
        b.op(Insn::ConstS(s_desc)).op(Insn::CallNative(n_select, 1)).store(0);
        b.load(0).store(1);
        let top = b.label();
        b.bind(top);
        // body = body + body — the first iteration is the offload trigger.
        b.load(1).load(1).op(Insn::StrConcat).store(1);
        b.jump(top);
        b.const_i(0).op(Insn::Halt); // unreachable
    });
    p.build(main)
}

/// Unbounded self-recursion carrying the tainted cor in every frame, so
/// the stack can never migrate back and depth grows until the call-depth
/// budget trips.
fn build_deep_recursion() -> AppImage {
    let mut p = ProgramBuilder::new("hostile-deep-recursion");
    let n_select = p.native("ui.select_cor");
    let s_desc = p.string(HOSTILE_COR_DESCRIPTION);
    let s_bang = p.string("!");
    let rec = p.declare("rec", 1, 1);
    p.define("rec", 1, 1, |b, _| {
        // Touch the taint in every frame so the guest looks busy, not idle.
        b.load(0).const_i(0).op(Insn::StrCharAt).op(Insn::Pop);
        b.load(0).op(Insn::Call(rec));
        b.op(Insn::Ret);
    });
    let main = p.define("main", 0, 2, |b, _| {
        // locals: 0=pw, 1=body
        b.op(Insn::ConstS(s_desc)).op(Insn::CallNative(n_select, 1)).store(0);
        // Trigger the offload first, so the recursion runs on the node.
        b.load(0).op(Insn::ConstS(s_bang)).op(Insn::StrConcat).store(1);
        b.load(1).op(Insn::Call(rec)).op(Insn::Pop);
        b.const_i(0).op(Insn::Halt); // unreachable
    });
    p.build(main)
}

/// Forces a migration pair on every cycle: the cor is parked in a heap
/// field (locals stay untainted), each cycle pokes it once and then runs
/// a long untainted filler. On the node the filler exceeds the
/// taint-idle limit — migrate back; on the client the next poke is a
/// tainted read — offload again. Two DSM syncs per cycle until the sync
/// budget is gone.
fn build_sync_flood() -> AppImage {
    let mut p = ProgramBuilder::new("hostile-sync-flood");
    let n_select = p.native("ui.select_cor");
    let s_desc = p.string(HOSTILE_COR_DESCRIPTION);
    let cls = p.class("Stash", &["secret"]);
    let main = p.define("main", 0, 5, |b, _| {
        // locals: 0=stash, 1=pw, 2=i, 3=limit, 4=acc
        b.op(Insn::New(cls)).store(0);
        b.op(Insn::ConstS(s_desc)).op(Insn::CallNative(n_select, 1)).store(1);
        // Park the cor in the heap (StackToHeap never triggers) and clear
        // the tainted local so migrate-back is never blocked by a resting
        // tainted slot.
        b.load(0).load(1).op(Insn::PutField(0));
        b.const_i(0).store(1);
        b.const_i(0).store(4);
        let top = b.label();
        b.bind(top);
        // The poke: on the client this tainted read is the re-offload
        // trigger; on the node it just resets the idle counter.
        b.load(0).op(Insn::GetField(0)).const_i(0).op(Insn::StrCharAt).op(Insn::Pop);
        // Untainted filler, comfortably longer than the node's taint-idle
        // limit, with nothing tainted on stack or locals: the node
        // migrates back mid-filler every cycle.
        b.const_i(600).store(3);
        b.for_loop(2, 3, |b| {
            b.load(4).const_i(1).op(Insn::Add).store(4);
        });
        b.jump(top);
        b.const_i(0).op(Insn::Halt); // unreachable
    });
    p.build(main)
}

/// Builds the hermetic world for one hostile session: derives the
/// session's cor exactly like a benign world (same spec ⇒ same secret),
/// registers it, arms the guard, and installs the hostile app. No origin
/// server: these guests never get far enough to talk to one.
pub fn build_hostile_world(
    spec: &SessionSpec,
    kind: HostileGuestKind,
    labels: (u8, u8),
    link: LinkProfile,
    trace: &TraceHandle,
) -> Result<SessionWorld, String> {
    let (mut store, mut stream, runtime_seed) =
        session_store(spec, labels).map_err(|e| e.to_string())?;
    let secret = stream.alphanumeric(16);
    store
        .register(&secret, HOSTILE_COR_DESCRIPTION, &["hostile.example"])
        .ok_or_else(|| "label space exhausted".to_owned())?;
    // Hostile worlds stay on the flat net: the attack targets the node's
    // budgets, not the wire, and the guard verdict must not depend on
    // routing detours.
    let mut rt = session_runtime(store, link, runtime_seed, trace, spec.id, SessionNet::default());
    rt.set_guard(fleet_policy());
    let app = build_hostile_app(kind);
    Ok(SessionWorld { rt, app, workload: hostile_workload_name(kind), secrets: vec![secret] })
}

/// A deterministic replay of per-node budget admission over the
/// session-id axis. Armed only when the plan carries hostile-guest
/// events; unarmed it sheds nothing, so clean and ordinary chaos runs
/// are byte-identical to their pre-guard behavior.
#[derive(Clone, Debug)]
pub struct GuardSchedule {
    armed: bool,
    shed: HashSet<u64>,
}

impl GuardSchedule {
    /// Replays placements in session-id order: each session asks its first
    /// placement ([`RegionMap::order`]'s head — the ring primary on a flat
    /// fleet) for a (fuel, heap-bytes) reservation — the full policy
    /// ceiling for a hostile guest, the nominal fraction for a
    /// well-behaved one — against a sliding window of the node's last
    /// `node_capacity` placements. An ask that does not fit on either
    /// axis is shed (it still occupies a zero-reservation window slot, so
    /// overload ages out deterministically as the window slides).
    pub fn build(
        cfg: &FleetConfig,
        pool: &NodePool,
        regions: RegionMap,
        plan: &ChaosPlan,
        specs: &[SessionSpec],
    ) -> GuardSchedule {
        let armed = plan.events.iter().any(|e| matches!(e, ChaosEvent::HostileGuest { .. }));
        let mut shed = HashSet::new();
        if armed {
            let policy = fleet_policy();
            let cap_fuel = policy.fuel.saturating_mul(2);
            let cap_heap = policy.max_heap_bytes.saturating_mul(2);
            let window = cfg.node_capacity.max(1);
            let mut recent: Vec<VecDeque<(u64, u64)>> = vec![VecDeque::new(); pool.len()];
            for spec in specs {
                let node = regions.order(pool, spec.placement_key())[0];
                let faults = session_faults(plan, node, spec.id, spec.seed);
                let ask = if faults.hostile_guest.is_some() {
                    (policy.fuel, policy.max_heap_bytes)
                } else {
                    (policy.nominal_fuel(), policy.nominal_heap_bytes())
                };
                let w = &mut recent[node];
                let (fuel_sum, heap_sum) =
                    w.iter().fold((0u64, 0u64), |(f, h), &(af, ah)| (f + af, h + ah));
                let admit = fuel_sum.saturating_add(ask.0) <= cap_fuel
                    && heap_sum.saturating_add(ask.1) <= cap_heap;
                if w.len() == window {
                    w.pop_front();
                }
                w.push_back(if admit { ask } else { (0, 0) });
                if !admit {
                    shed.insert(spec.id);
                }
            }
        }
        GuardSchedule { armed, shed }
    }

    /// True when the plan carries hostile-guest events: only then does
    /// the executor arm guards and consult shedding at all.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// True if admission shed this session before any attempt.
    pub fn shed(&self, session: u64) -> bool {
        self.shed.contains(&session)
    }

    /// How many sessions the schedule sheds.
    pub fn shed_count(&self) -> usize {
        self.shed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FaultPlan;
    use crate::spec::{build_session_specs, LinkKind};
    use tinman_core::runtime::Mode;
    use tinman_core::RuntimeError;
    use tinman_sim::SimDuration;

    fn spec(id: u64) -> SessionSpec {
        SessionSpec {
            id,
            workload: crate::spec::WorkloadKind::Login(0),
            link: LinkKind::Wifi,
            seed: 42 + id,
            tenant: 0,
        }
    }

    fn run_hostile(kind: HostileGuestKind) -> (RuntimeError, SessionWorld) {
        let s = spec(kind as u64);
        let mut world =
            build_hostile_world(&s, kind, (0, 16), LinkProfile::wifi(), &TraceHandle::noop())
                .expect("world builds");
        let err = world
            .rt
            .run_app(&world.app, Mode::TinMan, &std::collections::HashMap::new())
            .expect_err("hostile guest must not complete");
        (err, world)
    }

    #[test]
    fn each_hostile_kind_is_killed_for_its_own_reason() {
        for kind in [
            HostileGuestKind::Spin,
            HostileGuestKind::HeapBomb,
            HostileGuestKind::DeepRecursion,
            HostileGuestKind::SyncFlood,
        ] {
            let (err, _world) = run_hostile(kind);
            match err {
                RuntimeError::GuestKilled { reason } => {
                    assert_eq!(reason, expected_kill(kind), "{kind:?}");
                }
                other => panic!("{kind:?}: expected a guest kill, got {other:?}"),
            }
        }
    }

    #[test]
    fn killed_guest_leaves_no_cor_bytes_in_node_heaps() {
        for kind in [
            HostileGuestKind::Spin,
            HostileGuestKind::HeapBomb,
            HostileGuestKind::DeepRecursion,
            HostileGuestKind::SyncFlood,
        ] {
            let (_, world) = run_hostile(kind);
            let secret = &world.secrets[0];
            assert!(
                world.rt.scan_node_residue(secret).is_empty(),
                "{kind:?}: node heap must be scrubbed after a kill"
            );
        }
    }

    #[test]
    fn kills_are_deterministic_across_runs() {
        for kind in [HostileGuestKind::Spin, HostileGuestKind::SyncFlood] {
            let (a, wa) = run_hostile(kind);
            let (b, wb) = run_hostile(kind);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_eq!(
                wa.rt.clock().now().since(tinman_sim::SimTime::ZERO),
                wb.rt.clock().now().since(tinman_sim::SimTime::ZERO),
                "{kind:?}: kill lands at the same simulated instant"
            );
        }
    }

    #[test]
    fn deadline_watchdog_kills_an_overdue_benign_session() {
        let s = spec(0);
        let mut world = crate::session::build_session_world(
            &s,
            (0, 16),
            LinkProfile::wifi(),
            &TraceHandle::noop(),
        )
        .expect("world builds");
        let mut policy = fleet_policy();
        policy.deadline = Some(SimDuration::from_nanos(1));
        world.rt.set_guard(policy);
        let err = world
            .rt
            .run_app(&world.app, Mode::TinMan, &crate::session::session_inputs())
            .expect_err("a 1ns deadline cannot be met");
        match err {
            RuntimeError::GuestKilled { reason } => assert_eq!(reason, KillReason::Deadline),
            other => panic!("expected a deadline kill, got {other:?}"),
        }
        for secret in &world.secrets {
            assert!(world.rt.scan_node_residue(secret).is_empty());
        }
    }

    #[test]
    fn guarded_benign_sessions_complete_normally() {
        let s = spec(3);
        let mut world = crate::session::build_session_world(
            &s,
            (0, 16),
            LinkProfile::wifi(),
            &TraceHandle::noop(),
        )
        .expect("world builds");
        world.rt.set_guard(fleet_policy());
        let report = world
            .rt
            .run_app(&world.app, Mode::TinMan, &crate::session::session_inputs())
            .expect("benign session fits the default envelope");
        crate::session::expect_success(&report, world.workload).expect("succeeds");
    }

    #[test]
    fn schedule_unarmed_for_plans_without_hostile_events() {
        let cfg = FleetConfig::new(8, 1);
        let pool = NodePool::new(cfg.nodes, cfg.node_capacity, &FaultPlan::default()).unwrap();
        let specs = build_session_specs(&cfg);
        let flat = RegionMap::new(1, pool.len()).unwrap();
        let sched = GuardSchedule::build(&cfg, &pool, flat, &ChaosPlan::empty(), &specs);
        assert!(!sched.armed());
        assert_eq!(sched.shed_count(), 0);
    }

    #[test]
    fn all_hostile_plan_sheds_beyond_per_node_headroom() {
        let mut cfg = FleetConfig::new(12, 1);
        cfg.nodes = 4;
        let pool = NodePool::new(cfg.nodes, cfg.node_capacity, &FaultPlan::default()).unwrap();
        let specs = build_session_specs(&cfg);
        let plan = ChaosPlan::canned("hostile-guest").expect("canned plan");
        let flat = RegionMap::new(1, pool.len()).unwrap();
        let sched = GuardSchedule::build(&cfg, &pool, flat, &plan, &specs);
        assert!(sched.armed());
        assert!(sched.shed_count() > 0, "full-ceiling asks must overflow node capacity");
        assert!(sched.shed_count() < specs.len(), "the first asks on each node are admitted");
        // Pure replay: building twice sheds the identical set.
        let again = GuardSchedule::build(&cfg, &pool, flat, &plan, &specs);
        let mut a: Vec<u64> = specs.iter().map(|s| s.id).filter(|&id| sched.shed(id)).collect();
        let mut b: Vec<u64> = specs.iter().map(|s| s.id).filter(|&id| again.shed(id)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
