#![warn(missing_docs)]
//! A small managed-runtime bytecode VM that stands in for Dalvik.
//!
//! TinMan's prototype modifies Android's Dalvik VM: it instruments data
//! movement for taint tracking, pauses execution when tainted placeholders
//! are touched, serializes the thread + heap state for COMET-style DSM
//! migration, and resumes on the trusted node. None of that machinery exists
//! in the Rust ecosystem, so this crate rebuilds the minimum managed runtime
//! with the properties the paper's mechanisms rely on:
//!
//! * a **heap/stack split** identical in kind to the JVM's — primitives live
//!   in stack slots, objects (strings, arrays, field records) live on a
//!   garbage-free heap — so the four taint-propagation classes of the
//!   paper's Table 2 arise naturally;
//! * **per-object taint labels** and **per-slot stack shadow labels**,
//!   updated through a pluggable [`tinman_taint::TaintEngine`];
//! * **suspendable execution**: the interpreter returns an [`ExecEvent`]
//!   instead of a value whenever offloading must intervene, leaving the
//!   machine state exactly at the triggering instruction so the other
//!   endpoint can re-execute it;
//! * **fully serializable machine state** (frames + heap + locks), which is
//!   what the DSM layer ships between the client and the trusted node;
//! * **dirty tracking** on heap writes, feeding the DSM's
//!   init-versus-dirty sync accounting (the paper's Table 3);
//! * an execution **cost model** (cycles per instruction) that drives the
//!   simulated clock and the Caffeinemark reproduction of Figure 13.
//!
//! Programs ("apps") are built with [`build::ProgramBuilder`] into an
//! [`AppImage`], the analogue of an Android dex file — including the SHA-256
//! image hash the trusted node uses for its app↔cor access-control binding.

pub mod asm;
pub mod build;
pub mod disasm;
pub mod error;
pub mod frame;
pub mod heap;
pub mod insn;
pub mod interp;
pub mod machine;
pub mod program;
pub mod tier;
pub mod value;

pub use asm::{assemble, assemble_and_run, AsmError};
pub use build::{FnBuilder, ProgramBuilder};
pub use disasm::{disassemble, disassemble_function};
pub use error::VmError;
pub use frame::Frame;
pub use heap::{Heap, HeapKind, HeapObj};
pub use insn::Insn;
pub use interp::{ExecConfig, ExecEvent, Interp, NativeCtx, NativeHost, NativeOutcome};
pub use machine::{ExecStats, Machine, MachineStatus};
pub use program::{AppImage, ClassDef, ClassId, FuncId, Function, NativeId, StrIdx};
pub use tier::{run_tiered, CompileStats, CompiledImage, PassPipeline, TierTelemetry};
pub use value::{ObjId, Value};
