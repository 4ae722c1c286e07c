//! The Caffeinemark micro-benchmark suite (Figure 13).
//!
//! CaffeineMark 3.0 scores a JVM with six embedded kernels. This module
//! reimplements the six workload *classes* as programs for the
//! reproduction's VM: Sieve (array-bound integer work), Loop (nested
//! control flow), Logic (bit operations), String (heap/string churn —
//! the worst case for tainting, as the paper observes), Float (double
//! arithmetic), and Method (call-heavy recursion). Scores follow the
//! CaffeineMark convention that *higher is better*; overhead of a taint
//! configuration is `1 - score/score_baseline`.

use tinman_taint::TaintEngine;
use tinman_vm::{
    interp, run_tiered, AppImage, CompiledImage, ExecConfig, ExecEvent, Insn, Machine,
    ProgramBuilder, TierTelemetry,
};

/// The six kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CaffeinemarkKernel {
    /// Prime sieve over an array.
    Sieve,
    /// Nested counting loops.
    Loop,
    /// Bitwise logic.
    Logic,
    /// String concatenation/search churn.
    String,
    /// Floating-point arithmetic.
    Float,
    /// Deep call chains.
    Method,
}

impl CaffeinemarkKernel {
    /// All six kernels in display order.
    pub const ALL: [CaffeinemarkKernel; 6] = [
        CaffeinemarkKernel::Sieve,
        CaffeinemarkKernel::Loop,
        CaffeinemarkKernel::Logic,
        CaffeinemarkKernel::String,
        CaffeinemarkKernel::Float,
        CaffeinemarkKernel::Method,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CaffeinemarkKernel::Sieve => "Sieve",
            CaffeinemarkKernel::Loop => "Loop",
            CaffeinemarkKernel::Logic => "Logic",
            CaffeinemarkKernel::String => "String",
            CaffeinemarkKernel::Float => "Float",
            CaffeinemarkKernel::Method => "Method",
        }
    }

    /// Builds the kernel's program (self-contained, no natives).
    pub fn build(self, scale: u32) -> AppImage {
        match self {
            CaffeinemarkKernel::Sieve => build_sieve(scale),
            CaffeinemarkKernel::Loop => build_loop(scale),
            CaffeinemarkKernel::Logic => build_logic(scale),
            CaffeinemarkKernel::String => build_string(scale),
            CaffeinemarkKernel::Float => build_float(scale),
            CaffeinemarkKernel::Method => build_method(scale),
        }
    }
}

fn build_sieve(scale: u32) -> AppImage {
    let mut p = ProgramBuilder::new("cm-sieve");
    let n = 2048i64;
    // sieve(): classic flag-array sieve; returns prime count.
    let sieve = p.define("sieve", 0, 6, |b, _| {
        // locals: 0=flags, 1=i, 2=limit, 3=j, 4=count, 5=scratch
        b.const_i(n).op(Insn::NewArr).store(0);
        b.const_i(n).store(2);
        b.for_loop(1, 2, |b| {
            b.load(0).load(1).const_i(1).op(Insn::ArrStore);
        });
        b.const_i(0).store(4);
        b.const_i(2).store(1);
        let top = b.label();
        let done = b.label();
        b.bind(top);
        b.load(1).const_i(n).op(Insn::CmpLt);
        b.jump_if_zero(done);
        let not_prime = b.label();
        b.load(0).load(1).op(Insn::ArrLoad);
        b.jump_if_zero(not_prime);
        b.inc_local(4, 1);
        // j = i+i; while j < n { flags[j] = 0; j += i }
        b.load(1).load(1).op(Insn::Add).store(3);
        let jtop = b.label();
        let jdone = b.label();
        b.bind(jtop);
        b.load(3).const_i(n).op(Insn::CmpLt);
        b.jump_if_zero(jdone);
        b.load(0).load(3).const_i(0).op(Insn::ArrStore);
        b.load(3).load(1).op(Insn::Add).store(3);
        b.jump(jtop);
        b.bind(jdone);
        b.bind(not_prime);
        b.inc_local(1, 1);
        b.jump(top);
        b.bind(done);
        b.load(4).op(Insn::Ret);
    });
    let main = p.define("main", 0, 3, |b, _| {
        b.const_i(scale as i64).store(2);
        b.const_i(0).op(Insn::Pop);
        b.for_loop(1, 2, |b| {
            b.op(Insn::Call(sieve)).op(Insn::Pop);
        });
        b.op(Insn::Call(sieve)).op(Insn::Halt);
    });
    p.build(main)
}

fn build_loop(scale: u32) -> AppImage {
    let mut p = ProgramBuilder::new("cm-loop");
    let main = p.define("main", 0, 6, |b, _| {
        // locals: 1=i 2=ilimit 3=j 4=jlimit 5=acc
        b.const_i(scale as i64 * 40).store(2);
        b.const_i(50).store(4);
        b.const_i(0).store(5);
        b.for_loop(1, 2, |b| {
            b.for_loop(3, 4, |b| {
                b.load(5).load(3).op(Insn::Add).load(1).op(Insn::Sub).store(5);
            });
        });
        b.load(5).op(Insn::Halt);
    });
    p.build(main)
}

fn build_logic(scale: u32) -> AppImage {
    let mut p = ProgramBuilder::new("cm-logic");
    let main = p.define("main", 0, 4, |b, _| {
        // locals: 1=i 2=limit 3=x
        b.const_i(scale as i64 * 1500).store(2);
        b.const_i(0x5a5a).store(3);
        b.for_loop(1, 2, |b| {
            b.load(3).load(1).op(Insn::BitXor);
            b.const_i(3).op(Insn::Shl);
            b.load(1).op(Insn::BitOr);
            b.const_i(0xffff).op(Insn::BitAnd);
            b.const_i(5).op(Insn::Shr);
            b.store(3);
        });
        b.load(3).op(Insn::Halt);
    });
    p.build(main)
}

fn build_string(scale: u32) -> AppImage {
    let mut p = ProgramBuilder::new("cm-string");
    let s_base = p.string("The quick brown fox jumps over the lazy dog. ");
    let s_needle = p.string("lazy");
    let main = p.define("main", 0, 5, |b, _| {
        // locals: 1=i 2=limit 3=s 4=acc
        b.const_i(scale as i64 * 25).store(2);
        b.const_i(0).store(4);
        b.for_loop(1, 2, |b| {
            // s = base + base (fresh heap churn every iteration)
            b.op(Insn::ConstS(s_base)).op(Insn::ConstS(s_base)).op(Insn::StrConcat).store(3);
            // acc += s.indexOf("lazy") + s.charAt(i % len) + len(substring)
            b.load(3).op(Insn::ConstS(s_needle)).op(Insn::StrIndexOf);
            b.load(3).load(1).load(3).op(Insn::StrLen).op(Insn::Rem).op(Insn::StrCharAt);
            b.op(Insn::Add);
            b.load(3).const_i(4).const_i(20).op(Insn::StrSub).op(Insn::StrLen);
            b.op(Insn::Add);
            b.load(4).op(Insn::Add).store(4);
        });
        b.load(4).op(Insn::Halt);
    });
    p.build(main)
}

fn build_float(scale: u32) -> AppImage {
    let mut p = ProgramBuilder::new("cm-float");
    let main = p.define("main", 0, 5, |b, _| {
        // locals: 1=i 2=limit 3=x(double) — numeric integration-ish loop
        b.const_i(scale as i64 * 1200).store(2);
        b.op(Insn::ConstD(1.0)).store(3);
        b.for_loop(1, 2, |b| {
            b.load(3).op(Insn::ConstD(1.0000003)).op(Insn::Mul);
            b.op(Insn::ConstD(0.0000001)).op(Insn::Add);
            b.op(Insn::ConstD(1.0)).op(Insn::Div);
            b.store(3);
        });
        b.load(3).op(Insn::D2I).op(Insn::Halt);
    });
    p.build(main)
}

fn build_method(scale: u32) -> AppImage {
    let mut p = ProgramBuilder::new("cm-method");
    // a(n) -> b(n) -> c(n) -> n-1 chain, repeated.
    let c = p.define("c", 1, 1, |b, _| {
        b.load(0).const_i(1).op(Insn::Sub).op(Insn::Ret);
    });
    let bfn = p.define("b", 1, 1, |b, _| {
        b.load(0).op(Insn::Call(c)).op(Insn::Ret);
    });
    let a = p.define("a", 1, 1, |b, _| {
        b.load(0).op(Insn::Call(bfn)).op(Insn::Ret);
    });
    let main = p.define("main", 0, 4, |b, _| {
        b.const_i(scale as i64 * 700).store(2);
        b.const_i(0).store(3);
        b.for_loop(1, 2, |b| {
            b.load(3).op(Insn::Call(a)).store(3);
        });
        b.load(3).op(Insn::Halt);
    });
    p.build(main)
}

/// One kernel × engine measurement.
#[derive(Clone, Debug)]
pub struct CaffeinemarkResult {
    /// Which kernel ran.
    pub kernel: CaffeinemarkKernel,
    /// Interpreter cycles consumed (base + taint instrumentation).
    pub cycles: u64,
    /// Instructions retired.
    pub instrs: u64,
}

impl CaffeinemarkResult {
    /// The CaffeineMark-style score: work per cycle, scaled. Higher is
    /// better.
    pub fn score(&self) -> f64 {
        1e9 * self.instrs as f64 / self.cycles as f64
    }
}

/// Runs one kernel under the given taint engine on a client-configured
/// machine; no natives, no offloading — pure interpreter cost, exactly
/// what Figure 13 isolates.
pub fn run_kernel(
    kernel: CaffeinemarkKernel,
    engine: &mut TaintEngine,
    scale: u32,
) -> CaffeinemarkResult {
    let image = kernel.build(scale);
    let mut machine = Machine::new();
    let mut host = tinman_vm::interp::NullHost;
    let event = interp::run(&mut machine, &image, &mut host, engine, ExecConfig::client())
        .expect("caffeinemark kernels cannot fault");
    assert!(matches!(event, ExecEvent::Halted(_)), "kernels must halt");
    CaffeinemarkResult { kernel, cycles: machine.stats.cycles, instrs: machine.stats.instrs }
}

/// Runs one kernel against an already-built image: on the interpreter
/// when `compiled` is `None`, else on the block tier. By the tier
/// contract the retired counters (and thus the score) are identical to
/// [`run_kernel`]. Taking the image and compiled code prebuilt keeps
/// build and compile cost out of a caller's timed region. Returns the
/// tier telemetry so callers can verify fast-path coverage (all zeros
/// on the interpreter).
pub fn run_kernel_prebuilt(
    kernel: CaffeinemarkKernel,
    image: &AppImage,
    compiled: Option<&CompiledImage>,
    engine: &mut TaintEngine,
) -> (CaffeinemarkResult, TierTelemetry) {
    let mut machine = Machine::new();
    let mut host = tinman_vm::interp::NullHost;
    let mut telemetry = TierTelemetry::default();
    let config = ExecConfig::client();
    let event = match compiled {
        None => interp::run(&mut machine, image, &mut host, engine, config),
        Some(compiled) => {
            run_tiered(&mut machine, image, compiled, &mut host, engine, config, &mut telemetry)
        }
    }
    .expect("caffeinemark kernels cannot fault");
    assert!(matches!(event, ExecEvent::Halted(_)), "kernels must halt");
    (
        CaffeinemarkResult { kernel, cycles: machine.stats.cycles, instrs: machine.stats.instrs },
        telemetry,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinman_vm::Value;

    fn run_result(kernel: CaffeinemarkKernel) -> Value {
        let image = kernel.build(1);
        let mut machine = Machine::new();
        let mut host = tinman_vm::interp::NullHost;
        let mut engine = TaintEngine::none();
        match interp::run(&mut machine, &image, &mut host, &mut engine, ExecConfig::client())
            .unwrap()
        {
            ExecEvent::Halted(v) => v,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sieve_counts_primes_correctly() {
        // pi(2048) = 309.
        assert_eq!(run_result(CaffeinemarkKernel::Sieve), Value::Int(309));
    }

    #[test]
    fn all_kernels_halt_and_consume_cycles() {
        for k in CaffeinemarkKernel::ALL {
            let mut e = TaintEngine::none();
            let r = run_kernel(k, &mut e, 1);
            assert!(r.cycles > 10_000, "{k:?} too small: {}", r.cycles);
            assert!(r.score() > 0.0);
        }
    }

    #[test]
    fn full_taint_costs_more_than_asymmetric_costs_more_than_none() {
        for k in CaffeinemarkKernel::ALL {
            let base = run_kernel(k, &mut TaintEngine::none(), 1).cycles;
            let asym = run_kernel(k, &mut TaintEngine::asymmetric(), 1).cycles;
            let full = run_kernel(k, &mut TaintEngine::full(), 1).cycles;
            assert!(base <= asym, "{k:?}: none {base} vs asym {asym}");
            assert!(asym <= full, "{k:?}: asym {asym} vs full {full}");
            assert!(full > base, "{k:?}: full tainting must cost something");
        }
    }

    #[test]
    fn scores_scale_with_cycles_not_workload() {
        // Doubling the workload should leave the score roughly unchanged
        // (same work/cycle ratio).
        let a = run_kernel(CaffeinemarkKernel::Loop, &mut TaintEngine::none(), 1).score();
        let b = run_kernel(CaffeinemarkKernel::Loop, &mut TaintEngine::none(), 2).score();
        let ratio = a / b;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn block_tier_matches_interpreter_counters_on_every_kernel() {
        // Every engine at scale 1, plus Figure 13's scale with no taint.
        let cases: [(fn() -> TaintEngine, u32); 4] = [
            (TaintEngine::none, 1),
            (TaintEngine::asymmetric, 1),
            (TaintEngine::full, 1),
            (TaintEngine::none, 8),
        ];
        for k in CaffeinemarkKernel::ALL {
            for (mk, scale) in cases {
                let base = run_kernel(k, &mut mk(), scale);
                let image = k.build(scale);
                let compiled = CompiledImage::compile(&image);
                let (tiered, tel) = run_kernel_prebuilt(k, &image, Some(&compiled), &mut mk());
                assert_eq!(base.cycles, tiered.cycles, "{k:?} cycles at scale {scale}");
                assert_eq!(base.instrs, tiered.instrs, "{k:?} instrs at scale {scale}");
                assert!(tel.block_runs > 0, "{k:?} must run blocks at scale {scale}: {tel:?}");
            }
        }
    }

    #[test]
    fn hot_kernels_retire_mostly_through_the_fast_path() {
        for k in [CaffeinemarkKernel::Loop, CaffeinemarkKernel::Logic, CaffeinemarkKernel::Sieve] {
            let image = k.build(1);
            let compiled = CompiledImage::compile(&image);
            let (_, tel) =
                run_kernel_prebuilt(k, &image, Some(&compiled), &mut TaintEngine::none());
            assert!(
                tel.fast_insns > 4 * tel.stepped_insns,
                "{k:?}: fast path must dominate: {tel:?}"
            );
        }
    }

    #[test]
    fn kernels_are_deterministic() {
        let a = run_kernel(CaffeinemarkKernel::Logic, &mut TaintEngine::full(), 1);
        let b = run_kernel(CaffeinemarkKernel::Logic, &mut TaintEngine::full(), 1);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instrs, b.instrs);
    }
}
