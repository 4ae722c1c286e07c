//! Differential tests for the block-compiled tier.
//!
//! The contract (see `tinman_vm::tier`): for **any** bytecode, any taint
//! engine, and any [`ExecConfig`], running under the block tier must yield
//! the same `Result<ExecEvent, VmError>`, the same serialized [`Machine`]
//! bytes, and the same serialized [`TaintEngine`] state as the reference
//! interpreter — at every suspension point, not just at the end. These
//! tests enforce that with arbitrary-bytecode proptests, canned kernels
//! for every suspension kind (offload trigger, migrate-back, remote lock,
//! taint idle, out-of-fuel, guard kills), and locally-rebuilt hostile
//! workloads (spin, heap bomb, deep recursion).

use proptest::prelude::*;
use tinman_taint::{Label, TaintEngine, TaintSet};
use tinman_vm::interp::{run, ExecConfig, ExecEvent, NativeOutcome, NullHost, TriggerReason};
use tinman_vm::machine::LockSite;
use tinman_vm::{
    run_tiered, AppImage, CompiledImage, FuncId, Insn, Machine, NativeCtx, NativeHost, ObjId,
    PassPipeline, ProgramBuilder, StrIdx, TierTelemetry, Value, VmError,
};

fn label() -> TaintSet {
    Label::new(1).unwrap().as_set()
}

fn program(f: impl FnOnce(&mut tinman_vm::FnBuilder, &mut ProgramBuilder)) -> AppImage {
    let mut p = ProgramBuilder::new("t");
    let main = p.define("main", 0, 8, f);
    p.build(main)
}

type Outcome = Result<ExecEvent, VmError>;

/// What one differential run produced (identical across tiers by the time
/// it is returned — every divergence panics inside the loop).
struct DiffReport {
    outcome: Outcome,
    machine_json: String,
    telemetry: TierTelemetry,
    rounds: usize,
}

/// Runs `image` on two fresh machines — one per tier — resuming through
/// resumable events (`OutOfFuel`, `TaintIdle`) up to `max_rounds` times,
/// and asserts after **every** round that the event, the serialized
/// machine bytes, and the serialized taint-engine state are identical.
fn diff_run_full<H: NativeHost>(
    image: &AppImage,
    pipeline: &PassPipeline,
    mk_host: impl Fn() -> H,
    mk_engine: impl Fn() -> TaintEngine,
    config: ExecConfig,
    max_rounds: usize,
) -> DiffReport {
    let compiled = CompiledImage::compile_with(image, pipeline);
    assert!(compiled.matches(image), "compiled image must bind to its source");
    let mut mi = Machine::new();
    let mut mt = Machine::new();
    let mut hi = mk_host();
    let mut ht = mk_host();
    let mut ei = mk_engine();
    let mut et = mk_engine();
    let mut telemetry = TierTelemetry::default();
    let mut rounds = 0;
    loop {
        let ri = run(&mut mi, image, &mut hi, &mut ei, config.clone());
        let rt =
            run_tiered(&mut mt, image, &compiled, &mut ht, &mut et, config.clone(), &mut telemetry);
        rounds += 1;
        assert_eq!(ri, rt, "events diverged at round {rounds}");
        let ji = serde_json::to_string(&mi).expect("machine serializes");
        let jt = serde_json::to_string(&mt).expect("machine serializes");
        assert_eq!(ji, jt, "machine bytes diverged at round {rounds}");
        assert_eq!(
            serde_json::to_string(&ei).unwrap(),
            serde_json::to_string(&et).unwrap(),
            "taint-engine state diverged at round {rounds}"
        );
        let resumable = matches!(ri, Ok(ExecEvent::OutOfFuel) | Ok(ExecEvent::TaintIdle));
        if !resumable || rounds >= max_rounds || !mi.is_runnable() {
            return DiffReport { outcome: ri, machine_json: ji, telemetry, rounds };
        }
    }
}

/// The common case: null host, default pipeline, generous resume budget.
fn diff_run(
    image: &AppImage,
    mk_engine: impl Fn() -> TaintEngine,
    config: ExecConfig,
) -> DiffReport {
    diff_run_full(image, &PassPipeline::default(), || NullHost, mk_engine, config, 5_000)
}

// ---------- arbitrary bytecode (the fuzzer) ----------

/// Maps `(selector, parameter)` pairs to an image whose `main` mixes fast
/// ops, step-only ops, out-of-range local slots, and jumps to arbitrary
/// (including out-of-range) targets, with a callable auxiliary function.
fn arbitrary_image(ops: &[(u8, i64)]) -> AppImage {
    fuzz_image(ops, false)
}

/// [`arbitrary_image`] plus, when `secrets` is set, a native import that
/// [`SecretHost`] serves as a tainted string. `main` then opens by storing
/// a secret in local 5 and pushing three ints, and three more selectors
/// work on that local: 30 refreshes it from the native, 31 reads a char of
/// it, 32 concatenates onto it. Under the asymmetric engine the reads and
/// derivations trigger offload at whatever pc the fuzzed prefix reaches
/// them. Selectors below 30 mean the same in both shapes.
fn fuzz_image(ops: &[(u8, i64)], secrets: bool) -> AppImage {
    let mut p = ProgramBuilder::new("fuzz");
    let s0 = p.string("ab");
    let secret = secrets.then(|| p.native("test.get_secret"));
    let aux = p.define("aux", 1, 2, |b, _| {
        b.load(0).const_i(3).op(Insn::Mul).op(Insn::Ret);
    });
    let code_len = ops.len() as i64 + 1; // + trailing Halt
    let main = p.define("main", 0, 8, |b, _| {
        if let Some(nat) = secret {
            // Seed a tainted local and a stack three ints deep, so the
            // fuzzed ops reach tainted data before they underflow.
            b.op(Insn::CallNative(nat, 0)).store(5);
            b.const_i(1).const_i(2).const_i(3);
        }
        for &(sel, k) in ops {
            let target = k.rem_euclid(code_len + 2) as u32;
            match (sel, secret) {
                (30, Some(nat)) => b.op(Insn::CallNative(nat, 0)).store(5),
                (31, Some(_)) => b.load(5).const_i(k.rem_euclid(3)).op(Insn::StrCharAt),
                (32, Some(_)) => b.load(5).op(Insn::ConstS(s0)).op(Insn::StrConcat),
                _ => b.op(fuzz_insn(sel % 30, k, target, aux, s0)),
            };
        }
        b.op(Insn::Halt);
    });
    p.build(main)
}

/// The selector mapping shared by both fuzz image shapes.
fn fuzz_insn(sel: u8, k: i64, target: u32, aux: FuncId, s0: StrIdx) -> Insn {
    match sel {
        0 => Insn::ConstI(k),
        1 => Insn::ConstD(k as f64 * 0.5),
        2 => Insn::Add,
        3 => Insn::Sub,
        4 => Insn::Mul,
        5 => Insn::Div,
        6 => Insn::Rem,
        7 => Insn::Shl,
        8 => Insn::Shr,
        9 => Insn::BitAnd,
        10 => Insn::BitXor,
        11 => Insn::Neg,
        12 => Insn::I2D,
        13 => Insn::D2I,
        14 => Insn::Dup,
        15 => Insn::Pop,
        16 => Insn::Swap,
        17 => Insn::Load(k.rem_euclid(10) as u16), // slots 8/9 are invalid
        18 => Insn::Store(k.rem_euclid(10) as u16),
        19 => Insn::Jump(target),
        20 => Insn::JumpIfZero(target),
        21 => Insn::JumpIfNonZero(target),
        22 => Insn::CmpLt,
        23 => Insn::CmpEq,
        24 => Insn::Nop,
        25 => Insn::Call(aux),
        26 => Insn::ConstS(s0),
        27 => Insn::StrLen,
        28 => Insn::StrFromChar,
        29 => Insn::NewArr,
        _ => unreachable!(),
    }
}

proptest! {
    #![cases(48)]
    #[test]
    fn arbitrary_bytecode_is_bit_identical_across_tiers(
        ops in proptest::collection::vec((0u8..30, -9i64..81), 0..36),
        fuel in 1u64..90,
    ) {
        let image = arbitrary_image(&ops);
        for pipeline in [PassPipeline::default(), PassPipeline::decode_only()] {
            // Client shape: fuel-bounded, no idle limit, no taint.
            diff_run_full(
                &image,
                &pipeline,
                || NullHost,
                TaintEngine::none,
                ExecConfig::client().with_fuel(fuel),
                8,
            );
            // Node shape: full engine, aggressive taint-idle limit, plus a
            // tight guard envelope so kills land mid-program.
            diff_run_full(
                &image,
                &pipeline,
                || NullHost,
                TaintEngine::full,
                ExecConfig::trusted_node(23, fuel).with_heap_quota(24, 4096).with_depth_limit(12),
                8,
            );
        }
    }
}

proptest! {
    #![cases(48)]
    /// The production client shape: the asymmetric engine and a host whose
    /// native hands back a tainted string, so tainted reads, tainted
    /// derivations and offload triggers land at arbitrary pcs.
    #[test]
    fn arbitrary_secret_bytecode_is_bit_identical_on_the_client(
        ops in proptest::collection::vec((0u8..33, -9i64..81), 0..36),
        fuel in 1u64..90,
    ) {
        let image = fuzz_image(&ops, true);
        for pipeline in [PassPipeline::default(), PassPipeline::decode_only()] {
            diff_run_full(
                &image,
                &pipeline,
                || SecretHost,
                TaintEngine::asymmetric,
                ExecConfig::client().with_fuel(fuel),
                8,
            );
        }
    }
}

// ---------- canned kernels: halting paths ----------

fn sum_kernel(n: i64) -> AppImage {
    program(move |b, _| {
        b.const_i(n).store(2);
        b.const_i(0).store(3);
        b.for_loop(1, 2, |b| {
            b.load(3).load(1).op(Insn::Add).store(3); // acc += i   (BinLL fusion)
            b.load(3).const_i(1).op(Insn::Add).store(3); // acc += 1 (IncLocal fusion)
        });
        b.load(3).op(Insn::Halt);
    })
}

#[test]
fn loop_kernel_halts_identically_and_mostly_runs_in_blocks() {
    let n = 200i64;
    let image = sum_kernel(n);
    let report = diff_run(&image, TaintEngine::none, ExecConfig::client());
    let expected = n * (n - 1) / 2 + n;
    assert_eq!(report.outcome, Ok(ExecEvent::Halted(Value::Int(expected))));
    assert!(report.telemetry.block_runs > 0, "the hot loop must run as blocks");
    assert!(
        report.telemetry.fast_insns > report.telemetry.stepped_insns,
        "most instructions must retire through the fast path: {:?}",
        report.telemetry
    );
    let stats = CompiledImage::compile(&image).stats();
    assert!(stats.fused > 0, "loop header and increments must fuse: {stats:?}");
}

#[test]
fn passes_fire_without_perturbing_engine_state() {
    // Constant expressions and dead stores, under the full engine so every
    // replayed charge and batched EMPTY move is observable in engine state.
    let image = program(|b, _| {
        b.const_i(2).const_i(3).op(Insn::Add).const_i(4).op(Insn::Mul).store(0); // folds
        b.const_i(5).store(4);
        b.const_i(6).store(4); // kills the store above
        b.load(0).load(4).op(Insn::Add).op(Insn::Halt);
    });
    let stats = CompiledImage::compile(&image).stats();
    assert!(stats.folded > 0, "constant expression must fold: {stats:?}");
    assert!(stats.eliminated > 0, "dead store must be eliminated: {stats:?}");
    let report = diff_run(&image, TaintEngine::full, ExecConfig::trusted_node(1_000_000, u64::MAX));
    assert_eq!(report.outcome, Ok(ExecEvent::Halted(Value::Int(26))));
}

#[test]
fn mixed_object_string_call_kernel_is_identical() {
    let mut p = ProgramBuilder::new("t");
    let cls = p.class("Pair", &["a", "b"]);
    let hello = p.string("hello");
    let twice = p.define("twice", 1, 1, |b, _| {
        b.load(0).load(0).op(Insn::Add).op(Insn::Ret);
    });
    let main = p.define("main", 0, 6, |b, _| {
        b.op(Insn::New(cls)).store(0);
        b.load(0).const_i(21).op(Insn::PutField(0));
        b.load(0).op(Insn::GetField(0)).op(Insn::Call(twice)).store(1); // 42
        b.const_i(3).op(Insn::NewArr).store(2);
        b.load(2).const_i(1).load(1).op(Insn::ArrStore);
        b.load(2).const_i(1).op(Insn::ArrLoad);
        b.op(Insn::ConstS(hello)).op(Insn::StrLen);
        b.op(Insn::Add); // 47
        b.op(Insn::Halt);
    });
    let image = p.build(main);
    for pipeline in [PassPipeline::default(), PassPipeline::decode_only()] {
        let report = diff_run_full(
            &image,
            &pipeline,
            || NullHost,
            TaintEngine::full,
            ExecConfig::trusted_node(1_000_000, u64::MAX),
            4,
        );
        assert_eq!(report.outcome, Ok(ExecEvent::Halted(Value::Int(47))));
    }
}

// ---------- suspension points ----------

#[test]
fn out_of_fuel_suspends_at_identical_instructions_for_every_fuel_level() {
    // Small odd fuel values land suspensions mid-block; the differential
    // loop asserts machine bytes after every resume, so this exercises the
    // reserve-or-step boundary and mid-block (non-leader pc) resume.
    let image = sum_kernel(40);
    for fuel in [1u64, 2, 3, 5, 7, 11, 13, 23, 64, 101] {
        let report = diff_run(&image, TaintEngine::none, ExecConfig::client().with_fuel(fuel));
        assert!(
            matches!(report.outcome, Ok(ExecEvent::Halted(_))),
            "fuel {fuel}: {:?}",
            report.outcome
        );
        if fuel < 64 {
            assert!(report.rounds > 1, "fuel {fuel} must force at least one suspension");
        }
    }
}

struct SecretHost;
impl NativeHost for SecretHost {
    fn call(&mut self, ctx: NativeCtx<'_>) -> Result<NativeOutcome, VmError> {
        let obj = ctx.heap.alloc_str_tainted("placeholdr", label());
        Ok(NativeOutcome::ret(Value::Ref(obj)))
    }
}

#[test]
fn offload_trigger_suspends_identically_before_the_instruction() {
    let mut p = ProgramBuilder::new("t");
    let nat = p.native("test.get_secret");
    let main = p.define("main", 0, 4, |b, _| {
        b.op(Insn::CallNative(nat, 0)).store(0);
        b.load(0).const_i(0).op(Insn::StrCharAt).op(Insn::Halt);
    });
    let image = p.build(main);
    let report = diff_run_full(
        &image,
        &PassPipeline::default(),
        || SecretHost,
        TaintEngine::asymmetric,
        ExecConfig::client(),
        4,
    );
    match report.outcome {
        Ok(ExecEvent::OffloadTrigger { labels, reason }) => {
            assert_eq!(labels, label());
            assert_eq!(reason, TriggerReason::TaintedRead);
        }
        other => panic!("expected an offload trigger, got {other:?}"),
    }
    // Suspended BEFORE the instruction: both machines re-runnable with no
    // stack taint (asserted once here; byte-equality already held above).
    let m: Machine = serde_json::from_str(&report.machine_json).unwrap();
    assert!(m.is_runnable());
    assert!(!m.any_stack_taint());
}

#[test]
fn migrate_back_native_suspends_identically() {
    struct IoHost;
    impl NativeHost for IoHost {
        fn call(&mut self, _ctx: NativeCtx<'_>) -> Result<NativeOutcome, VmError> {
            Ok(NativeOutcome::MigrateBack)
        }
    }
    let mut p = ProgramBuilder::new("t");
    let nat = p.native("io.display");
    let main = p.define("main", 0, 2, |b, _| {
        b.const_i(1).op(Insn::CallNative(nat, 1)).op(Insn::Halt);
    });
    let image = p.build(main);
    let report = diff_run_full(
        &image,
        &PassPipeline::default(),
        || IoHost,
        TaintEngine::full,
        ExecConfig::trusted_node(1_000_000, u64::MAX),
        4,
    );
    assert_eq!(report.outcome, Ok(ExecEvent::MigrateBack { native: "io.display".to_owned() }));
}

#[test]
fn taint_idle_fires_identically_on_the_node_config() {
    let image = program(|b, _| {
        b.const_i(5_000).store(2);
        b.for_loop(1, 2, |b| {
            b.load(1).op(Insn::Pop);
        });
        b.const_i(0).op(Insn::Halt);
    });
    let report = diff_run(&image, TaintEngine::full, ExecConfig::trusted_node(1_000, u64::MAX));
    // Resumed through repeated idles up to the round cap or completion —
    // either way, every round compared equal.
    assert!(report.rounds > 1, "the idle limit must fire at least once");
}

#[test]
fn remote_pinned_lock_suspends_identically() {
    let mut p = ProgramBuilder::new("t");
    let cls = p.class("L", &["x"]);
    let main = p.define("main", 0, 2, |b, _| {
        b.op(Insn::New(cls)).op(Insn::Dup).store(0);
        b.op(Insn::PinLock);
        b.load(0).op(Insn::MonitorEnter);
        b.const_i(1).op(Insn::Halt);
    });
    let image = p.build(main);
    let compiled = CompiledImage::compile(&image);

    // Run just past PinLock, flip lock ownership to the other endpoint
    // (as a DSM sync would), then resume — under each tier.
    let run_one = |tiered: bool| -> (Outcome, String) {
        let mut m = Machine::new();
        let mut host = NullHost;
        let mut engine = TaintEngine::full();
        let mut tel = TierTelemetry::default();
        let cfg = ExecConfig::client().with_fuel(4);
        let first = if tiered {
            run_tiered(&mut m, &image, &compiled, &mut host, &mut engine, cfg, &mut tel)
        } else {
            run(&mut m, &image, &mut host, &mut engine, cfg)
        };
        assert_eq!(first, Ok(ExecEvent::OutOfFuel));
        m.locks.insert(ObjId(0), (LockSite::TrustedNode, 1));
        m.pinned_locks.insert(ObjId(0));
        let cfg = ExecConfig::client();
        let ev = if tiered {
            run_tiered(&mut m, &image, &compiled, &mut host, &mut engine, cfg, &mut tel)
        } else {
            run(&mut m, &image, &mut host, &mut engine, cfg)
        };
        (ev, serde_json::to_string(&m).unwrap())
    };
    let (ev_i, json_i) = run_one(false);
    let (ev_t, json_t) = run_one(true);
    assert_eq!(ev_i, ev_t);
    assert_eq!(json_i, json_t);
    assert!(matches!(ev_i, Ok(ExecEvent::LockRemote(_))), "got {ev_i:?}");
}

// ---------- guard kills (hostile workloads, rebuilt locally) ----------
//
// `tinman-fleet` depends on this crate, so its hostile-guest builders are
// not importable here; the same shapes are rebuilt minus the cor natives.

#[test]
fn hostile_spin_burns_fuel_identically() {
    let image = program(|b, _| {
        b.const_i(1).store(0);
        let top = b.label();
        b.bind(top);
        b.load(0).op(Insn::Pop);
        b.jump(top);
        b.op(Insn::Halt); // unreachable
    });
    let report = diff_run_full(
        &image,
        &PassPipeline::default(),
        || NullHost,
        TaintEngine::none,
        ExecConfig::client().with_fuel(64),
        6,
    );
    // Never halts: every round is an identical OutOfFuel suspension.
    assert_eq!(report.outcome, Ok(ExecEvent::OutOfFuel));
    assert_eq!(report.rounds, 6);
    assert!(report.telemetry.block_runs > 0, "the spin loop must run as a block");
}

#[test]
fn hostile_heap_bomb_trips_the_quota_identically() {
    let mut p = ProgramBuilder::new("bomb");
    let seed = p.string("aaaaaaaa");
    let main = p.define("main", 0, 2, |b, _| {
        b.op(Insn::ConstS(seed)).store(0);
        let top = b.label();
        b.bind(top);
        b.load(0).load(0).op(Insn::StrConcat).store(0); // s = s + s
        b.jump(top);
        b.op(Insn::Halt); // unreachable
    });
    let image = p.build(main);
    let report =
        diff_run(&image, TaintEngine::none, ExecConfig::client().with_heap_quota(64, 4096));
    assert!(
        matches!(report.outcome, Err(VmError::HeapQuotaExceeded { .. })),
        "got {:?}",
        report.outcome
    );
    let m: Machine = serde_json::from_str(&report.machine_json).unwrap();
    assert_eq!(m.status, tinman_vm::MachineStatus::Faulted);
}

#[test]
fn hostile_deep_recursion_trips_the_depth_limit_identically() {
    let mut p = ProgramBuilder::new("rec");
    let rec = p.declare("rec", 1, 1);
    p.define("rec", 1, 1, |b, _| {
        b.load(0).const_i(1).op(Insn::Add);
        b.op(Insn::Call(rec));
        b.op(Insn::Ret);
    });
    let main = p.define("main", 0, 1, |b, _| {
        b.const_i(0).op(Insn::Call(rec)).op(Insn::Halt);
    });
    let image = p.build(main);
    let report = diff_run(&image, TaintEngine::none, ExecConfig::client().with_depth_limit(24));
    assert!(
        matches!(report.outcome, Err(VmError::CallDepthExceeded { depth: 25 })),
        "got {:?}",
        report.outcome
    );
}

// ---------- pinned interpreter-semantics bugs (the satellites) ----------

#[test]
fn shift_counts_are_masked_to_six_bits_in_both_tiers() {
    // (value, count, expected) for Shl / Shr with the `& 63` mask. Counts
    // 64, 65, -1, and i64::MIN are the formerly-truncating edge cases.
    let shl_cases: &[(i64, i64, i64)] =
        &[(3, 64, 3), (3, 65, 6), (1, -1, i64::MIN), (7, i64::MIN, 7), (3, 2, 12)];
    let shr_cases: &[(i64, i64, i64)] =
        &[(5, 64, 5), (-8, 65, -4), (i64::MIN, -1, -1), (5, i64::MIN, 5), (12, 2, 3)];
    for (insn, cases) in [(Insn::Shl, shl_cases), (Insn::Shr, shr_cases)] {
        for &(v, count, expected) in cases {
            // Constant-operand form (exercises the folding pass)...
            let folded = program(move |b, _| {
                b.const_i(v).const_i(count).op(insn).op(Insn::Halt);
            });
            // ...and the runtime form through locals (no folding possible).
            let dynamic = program(move |b, _| {
                b.const_i(v).store(0);
                b.const_i(count).store(1);
                b.load(0).load(1).op(insn).op(Insn::Halt);
            });
            for image in [folded, dynamic] {
                let report = diff_run(&image, TaintEngine::none, ExecConfig::client());
                assert_eq!(
                    report.outcome,
                    Ok(ExecEvent::Halted(Value::Int(expected))),
                    "{insn:?} {v} by {count}"
                );
            }
        }
    }
}

#[test]
fn str_from_char_rejects_invalid_scalars_identically() {
    for bad in [-1i64, 0xD800, 0x11_0000, i64::MAX] {
        let image = program(move |b, _| {
            b.const_i(bad).op(Insn::StrFromChar).op(Insn::Halt);
        });
        let report = diff_run(&image, TaintEngine::none, ExecConfig::client());
        assert!(
            matches!(report.outcome, Err(VmError::BadStringOp { .. })),
            "char {bad:#x}: {:?}",
            report.outcome
        );
        let m: Machine = serde_json::from_str(&report.machine_json).unwrap();
        assert_eq!(m.status, tinman_vm::MachineStatus::Faulted);
    }
    // Boundary-valid scalars still construct.
    for good in [65i64, 0x10_FFFF] {
        let image = program(move |b, _| {
            b.const_i(good).op(Insn::StrFromChar).op(Insn::StrLen).op(Insn::Halt);
        });
        let report = diff_run(&image, TaintEngine::none, ExecConfig::client());
        assert!(
            matches!(report.outcome, Ok(ExecEvent::Halted(Value::Int(_)))),
            "char {good:#x}: {:?}",
            report.outcome
        );
    }
}

#[test]
fn missing_taint_slot_is_a_typed_error_in_both_tiers() {
    struct SlotProbe;
    impl NativeHost for SlotProbe {
        fn call(&mut self, ctx: NativeCtx<'_>) -> Result<NativeOutcome, VmError> {
            ctx.arg_effective_taint(3)?; // only 1 argument exists
            Ok(NativeOutcome::ret(Value::Int(0)))
        }
    }
    let mut p = ProgramBuilder::new("t");
    let nat = p.native("test.probe");
    let main = p.define("main", 0, 1, |b, _| {
        b.const_i(9).op(Insn::CallNative(nat, 1)).op(Insn::Halt);
    });
    let image = p.build(main);
    let report = diff_run_full(
        &image,
        &PassPipeline::default(),
        || SlotProbe,
        TaintEngine::none,
        ExecConfig::client(),
        4,
    );
    assert!(
        matches!(report.outcome, Err(VmError::TaintSlotMismatch { index: 3, .. })),
        "got {:?}",
        report.outcome
    );
}

// ---------- tier plumbing ----------

#[test]
fn compiled_image_mismatch_is_rejected_before_any_mutation() {
    let a = sum_kernel(5);
    let b = program(|b, _| {
        b.const_i(1).op(Insn::Halt);
    });
    let compiled_a = CompiledImage::compile(&a);
    assert!(!compiled_a.matches(&b));
    let mut m = Machine::new();
    let mut tel = TierTelemetry::default();
    let ev = run_tiered(
        &mut m,
        &b,
        &compiled_a,
        &mut NullHost,
        &mut TaintEngine::none(),
        ExecConfig::client(),
        &mut tel,
    );
    assert_eq!(ev, Err(VmError::CompiledImageMismatch));
    // The machine was not touched: still pristine and runnable.
    assert!(m.is_runnable());
    assert_eq!(serde_json::to_string(&m).unwrap(), serde_json::to_string(&Machine::new()).unwrap());
}

#[test]
fn one_compiled_image_serves_many_machines() {
    let image = sum_kernel(30);
    let compiled = CompiledImage::compile(&image);
    for _ in 0..3 {
        let mut m = Machine::new();
        let mut tel = TierTelemetry::default();
        let ev = run_tiered(
            &mut m,
            &image,
            &compiled,
            &mut NullHost,
            &mut TaintEngine::none(),
            ExecConfig::client(),
            &mut tel,
        );
        assert_eq!(ev, Ok(ExecEvent::Halted(Value::Int(30 * 29 / 2 + 30))));
    }
}
