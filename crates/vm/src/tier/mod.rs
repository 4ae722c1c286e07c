//! The compiled execution tier: block-decoded, pass-optimized, and
//! **bit-identical** to the interpreter.
//!
//! The interpreter ([`crate::interp`]) decides every offload trigger, taint
//! propagation, and guard kill one opcode at a time — fetch, dispatch,
//! frame lookup, budget check, per instruction. That is the right shape for
//! the security argument and the wrong shape for throughput. This module
//! adds a translation tier:
//!
//! 1. **decode** (`decode`): each function is decoded once into a CFG of
//!    basic blocks over a compact op IR, with static stack-depth and
//!    local-slot verification per block;
//! 2. **passes** (`passes`): a small pipeline — constant folding,
//!    dead-store elimination, superinstruction fusion — rewrites each
//!    block while preserving every observable charge (retired instruction
//!    counts, cycle costs, taint-engine move reports);
//! 3. **execute** (`exec`): blocks whose guard budgets
//!    (fuel/heap/depth/taint-idle) are satisfied for the *whole block* run
//!    through a tight native loop that pays the fetch/dispatch/budget
//!    overhead once per block; any precondition failure, offload trigger,
//!    guard kill, or opcode outside the fast subset **deoptimizes** to the
//!    interpreter's own `Interp::step`, so machine state at every
//!    suspension point is byte-for-byte what the interpreter would have
//!    produced.
//!
//! The equivalence contract (enforced by `tests/tier.rs` differential
//! proptests and the hostile-bytecode fuzzer): for any bytecode, any taint
//! engine, and any [`crate::ExecConfig`], running under this tier yields
//! the same `Result<ExecEvent, VmError>`, the same serialized
//! [`crate::Machine`] bytes, and the same serialized
//! [`tinman_taint::TaintEngine`] state as the interpreter.

pub(crate) mod decode;
pub(crate) mod exec;
pub(crate) mod passes;

pub use passes::PassPipeline;

use serde::{Deserialize, Serialize};

use crate::error::VmError;
use crate::interp::{ExecConfig, ExecEvent, NativeHost};
use crate::machine::Machine;
use crate::program::AppImage;
use tinman_taint::TaintEngine;

/// A function's worth of decoded, optimized basic blocks.
#[derive(Clone, Debug)]
pub(crate) struct CompiledFunc {
    /// Source code length, for the cheap image-binding check.
    pub code_len: usize,
    /// Basic blocks, in leader order.
    pub blocks: Vec<decode::Block>,
    /// `block_at[pc]` = index into `blocks` if `pc` is a leader, else
    /// `u32::MAX`. Sized `code_len` (pc == code_len falls to stepping,
    /// which handles the implicit `RetVoid`).
    pub block_at: Vec<u32>,
}

impl CompiledFunc {
    /// The block starting at `pc`, if `pc` is a leader.
    pub fn block_index(&self, pc: usize) -> Option<usize> {
        match self.block_at.get(pc) {
            Some(&i) if i != u32::MAX => Some(i as usize),
            _ => None,
        }
    }
}

/// Aggregate counters from one compilation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileStats {
    /// Functions compiled.
    pub functions: u64,
    /// Basic blocks formed.
    pub blocks: u64,
    /// Source instructions decoded.
    pub insns: u64,
    /// Ops in the final IR (after passes).
    pub ops: u64,
    /// Constant-folding rewrites applied.
    pub folded: u64,
    /// Dead stores (and dead pushes) eliminated.
    pub eliminated: u64,
    /// Superinstructions fused.
    pub fused: u64,
}

/// An [`AppImage`] decoded and optimized for the block tier.
///
/// Compile once, run many times: compilation is pure (no machine state
/// involved), so one `CompiledImage` serves every machine executing the
/// same image, concurrently or sequentially.
#[derive(Clone, Debug)]
pub struct CompiledImage {
    pub(crate) funcs: Vec<CompiledFunc>,
    stats: CompileStats,
}

impl CompiledImage {
    /// Decodes and optimizes every function of `image` with the default
    /// pass pipeline.
    pub fn compile(image: &AppImage) -> CompiledImage {
        Self::compile_with(image, &passes::PassPipeline::default())
    }

    /// Decodes every function and runs the given pass pipeline.
    pub fn compile_with(image: &AppImage, pipeline: &passes::PassPipeline) -> CompiledImage {
        let mut stats = CompileStats::default();
        let mut funcs = Vec::with_capacity(image.functions.len());
        for func in &image.functions {
            let compiled = decode::compile_function(func, pipeline, &mut stats);
            funcs.push(compiled);
        }
        stats.functions = funcs.len() as u64;
        CompiledImage { funcs, stats }
    }

    /// Counters from the compilation.
    pub fn stats(&self) -> CompileStats {
        self.stats
    }

    /// Cheap structural binding check: does this compiled image plausibly
    /// belong to `image`? (Function count and per-function code lengths.)
    pub fn matches(&self, image: &AppImage) -> bool {
        self.funcs.len() == image.functions.len()
            && self.funcs.iter().zip(&image.functions).all(|(c, f)| c.code_len == f.code.len())
    }
}

/// Runtime counters from tiered execution. Deliberately **not** part of
/// [`Machine`]: machine bytes must stay identical across tiers, so tier
/// bookkeeping lives outside the serialized state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierTelemetry {
    /// Blocks executed natively (all preconditions held).
    pub block_runs: u64,
    /// Source instructions retired through native block execution.
    pub fast_insns: u64,
    /// Source instructions retired by deoptimized per-opcode stepping.
    pub stepped_insns: u64,
    /// Block-entry precondition failures (each falls back to stepping).
    pub deopts: u64,
}

impl TierTelemetry {
    /// Merges another telemetry snapshot into this one.
    pub fn absorb(&mut self, other: &TierTelemetry) {
        self.block_runs += other.block_runs;
        self.fast_insns += other.fast_insns;
        self.stepped_insns += other.stepped_insns;
        self.deopts += other.deopts;
    }
}

/// Runs a machine under the block tier until an event occurs, exactly like
/// [`crate::interp::run`] — same events, same errors, same machine bytes.
///
/// `compiled` must have been produced from `image` (checked cheaply;
/// mismatch is [`VmError::CompiledImageMismatch`]). `telemetry` accumulates
/// tier counters across calls.
pub fn run_tiered<H: NativeHost>(
    machine: &mut Machine,
    image: &AppImage,
    compiled: &CompiledImage,
    host: &mut H,
    engine: &mut TaintEngine,
    config: ExecConfig,
    telemetry: &mut TierTelemetry,
) -> Result<ExecEvent, VmError> {
    exec::run(machine, image, compiled, host, engine, config, telemetry)
}
