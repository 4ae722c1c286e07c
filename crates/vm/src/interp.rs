//! The interpreter.
//!
//! [`Interp::run`] executes a [`Machine`] against an [`AppImage`] until the
//! program halts, an error occurs, or an *execution event* requires the
//! embedding runtime to intervene — which is how TinMan's on-demand
//! offloading is expressed: the machine suspends exactly at the triggering
//! instruction (no state mutated), the runtime migrates it, and the other
//! endpoint re-executes that instruction with the real cor materialized.

use serde::{Deserialize, Serialize};
use tinman_taint::{PropClass, TaintEngine, TaintSet};

use crate::error::VmError;
use crate::frame::Frame;
use crate::heap::Heap;
use crate::insn::Insn;
use crate::machine::{LockSite, Machine, MachineStatus};
use crate::program::AppImage;
use crate::value::{ObjId, Value};

/// Why an offload trigger fired.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TriggerReason {
    /// Tainted heap data was about to be read onto the operand stack
    /// (Figure 10, line 3).
    TaintedRead,
    /// A new value was about to be derived from tainted heap data
    /// (Figure 11, line 6).
    TaintedDerive,
    /// A native was invoked with a tainted argument the client cannot
    /// process locally (e.g. hashing a placeholder).
    TaintedNative {
        /// Native name.
        name: String,
    },
}

/// Why the interpreter returned control to the runtime.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ExecEvent {
    /// The program finished; the payload is its result value.
    Halted(Value),
    /// Offloading must intervene before this instruction can execute.
    /// Machine state is unchanged (the pc still points at the triggering
    /// instruction).
    OffloadTrigger {
        /// The taint labels involved.
        labels: TaintSet,
        /// What kind of access triggered.
        reason: TriggerReason,
    },
    /// A native that cannot run on this endpoint was invoked (I/O or
    /// third-party library on the trusted node — §3.1 migrate-back case 2).
    /// State unchanged; re-execute after migrating back.
    MigrateBack {
        /// Native name.
        native: String,
    },
    /// A monitor owned by the other endpoint was entered; a DSM sync must
    /// transfer ownership (the paper's third sync cause). State unchanged.
    LockRemote(ObjId),
    /// No tainted data has been touched for the configured number of
    /// instructions (§3.1 migrate-back case 1). Only raised when
    /// [`ExecConfig::taint_idle_limit`] is set.
    TaintIdle,
    /// The fuel budget ran out; call `run` again to continue.
    OutOfFuel,
}

/// Per-run execution configuration.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Which endpoint this machine currently executes on (monitor ownership
    /// checks compare against it).
    pub site: LockSite,
    /// Raise [`ExecEvent::TaintIdle`] after this many instructions without
    /// touching taint. `None` disables (client side).
    pub taint_idle_limit: Option<u64>,
    /// Stop with [`ExecEvent::OutOfFuel`] after this many instructions.
    pub fuel: Option<u64>,
    /// Fault with [`VmError::HeapQuotaExceeded`] once the heap holds more
    /// than this many live objects.
    pub max_heap_objects: Option<u64>,
    /// Fault with [`VmError::HeapQuotaExceeded`] once the heap's allocated
    /// payload exceeds this many bytes.
    pub max_heap_bytes: Option<u64>,
    /// Fault with [`VmError::CallDepthExceeded`] once the call stack grows
    /// deeper than this many frames.
    pub max_call_depth: Option<usize>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            site: LockSite::Client,
            taint_idle_limit: None,
            fuel: None,
            max_heap_objects: None,
            max_heap_bytes: None,
            max_call_depth: None,
        }
    }
}

impl ExecConfig {
    /// Client-side defaults.
    pub fn client() -> Self {
        ExecConfig::default()
    }

    /// Trusted-node defaults with the given migrate-back idle threshold.
    /// The node executes *untrusted guest bytecode*, so fuel is mandatory
    /// here: a node-side segment can never spin forever.
    pub fn trusted_node(taint_idle_limit: u64, fuel: u64) -> Self {
        ExecConfig {
            site: LockSite::TrustedNode,
            taint_idle_limit: Some(taint_idle_limit),
            fuel: Some(fuel),
            max_heap_objects: None,
            max_heap_bytes: None,
            max_call_depth: None,
        }
    }

    /// Caps the instruction budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Caps live heap objects and allocated payload bytes.
    pub fn with_heap_quota(mut self, objects: u64, bytes: u64) -> Self {
        self.max_heap_objects = Some(objects);
        self.max_heap_bytes = Some(bytes);
        self
    }

    /// Caps the call-stack depth.
    pub fn with_depth_limit(mut self, depth: usize) -> Self {
        self.max_call_depth = Some(depth);
        self
    }
}

/// Everything a native implementation may touch.
pub struct NativeCtx<'a> {
    /// The native's imported name.
    pub name: &'a str,
    /// Argument values (first argument first).
    pub args: &'a [Value],
    /// Shadow taint of each argument slot. Note that for `Ref` arguments
    /// the *object's* taint matters too; use [`NativeCtx::arg_effective_taint`].
    pub arg_taints: &'a [TaintSet],
    /// The machine's heap, for reading strings and allocating results.
    pub heap: &'a mut Heap,
    /// The endpoint executing this native.
    pub site: LockSite,
}

impl NativeCtx<'_> {
    /// The taint of argument `i` including, for references, the referenced
    /// object's labels.
    ///
    /// A missing taint slot is a typed error, not an empty default: the
    /// shadow arrays are the only record of which arguments carry cor
    /// labels, so an args/taints length mismatch (an embedder building a
    /// [`NativeCtx`] by hand) must fail closed rather than silently launder
    /// a tainted argument as clean.
    pub fn arg_effective_taint(&self, i: usize) -> Result<TaintSet, VmError> {
        let slot = *self.arg_taints.get(i).ok_or(VmError::TaintSlotMismatch {
            index: i,
            args: self.args.len(),
            taints: self.arg_taints.len(),
        })?;
        match self.args.get(i) {
            Some(Value::Ref(id)) => Ok(slot.union(self.heap.taint_of(*id)?)),
            _ => Ok(slot),
        }
    }

    /// Union of effective taints across all arguments.
    pub fn args_taint(&self) -> Result<TaintSet, VmError> {
        let mut t = TaintSet::EMPTY;
        for i in 0..self.args.len() {
            t = t.union(self.arg_effective_taint(i)?);
        }
        Ok(t)
    }

    /// Convenience: argument `i` as a heap string.
    pub fn str_arg(&self, i: usize) -> Result<&str, VmError> {
        let v = self.args.get(i).ok_or_else(|| VmError::NativeError {
            name: self.name.to_owned(),
            message: format!("missing argument {i}"),
        })?;
        self.heap.str_value(v.as_ref_id().map_err(|found| VmError::NativeError {
            name: self.name.to_owned(),
            message: format!("argument {i}: expected ref, found {found}"),
        })?)
    }

    /// Convenience: argument `i` as an integer.
    pub fn int_arg(&self, i: usize) -> Result<i64, VmError> {
        let v = self.args.get(i).ok_or_else(|| VmError::NativeError {
            name: self.name.to_owned(),
            message: format!("missing argument {i}"),
        })?;
        v.as_int().map_err(|found| VmError::NativeError {
            name: self.name.to_owned(),
            message: format!("argument {i}: expected int, found {found}"),
        })
    }

    /// Convenience error constructor.
    pub fn error(&self, message: impl Into<String>) -> VmError {
        VmError::NativeError { name: self.name.to_owned(), message: message.into() }
    }
}

/// What a native decided.
#[derive(Clone, Debug, PartialEq)]
pub enum NativeOutcome {
    /// The native executed; push this result.
    Ret {
        /// Result value (may be `Value::Null` for void natives).
        value: Value,
        /// Taint to attach to the result's stack slot.
        taint: TaintSet,
        /// Extra interpreter cycles the native consumed (I/O setup, crypto,
        /// …); charged to the executing device.
        cycles: u64,
    },
    /// The native touches tainted data and must run on the trusted node;
    /// suspend and offload (client side only).
    TriggerOffload,
    /// The native cannot run on this endpoint (non-offloadable I/O on the
    /// trusted node); suspend and migrate back.
    MigrateBack,
}

impl NativeOutcome {
    /// A plain return with no taint and no extra cycles.
    pub fn ret(value: Value) -> Self {
        NativeOutcome::Ret { value, taint: TaintSet::EMPTY, cycles: 0 }
    }

    /// A void return.
    pub fn void() -> Self {
        Self::ret(Value::Null)
    }
}

/// The embedder's native-function dispatcher.
pub trait NativeHost {
    /// Executes (or refuses) the named native.
    fn call(&mut self, ctx: NativeCtx<'_>) -> Result<NativeOutcome, VmError>;
}

/// A host with no natives bound; any native call errors. Useful for pure
/// computations such as the Caffeinemark kernels.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullHost;

impl NativeHost for NullHost {
    fn call(&mut self, ctx: NativeCtx<'_>) -> Result<NativeOutcome, VmError> {
        Err(VmError::UnboundNative { name: ctx.name.to_owned() })
    }
}

impl<F> NativeHost for F
where
    F: FnMut(NativeCtx<'_>) -> Result<NativeOutcome, VmError>,
{
    fn call(&mut self, ctx: NativeCtx<'_>) -> Result<NativeOutcome, VmError> {
        self(ctx)
    }
}

/// The interpreter: borrows the machine, image, host and taint engine for
/// one `run` call.
///
/// Field visibility is `pub(crate)` so the compiled tier
/// ([`crate::tier`]) can wrap `Interp::step` for every opcode outside
/// its fast subset — complex opcodes are then bit-identical between tiers
/// *by construction*, because both tiers execute the same code.
pub struct Interp<'a, H: NativeHost> {
    pub(crate) machine: &'a mut Machine,
    pub(crate) image: &'a AppImage,
    pub(crate) host: &'a mut H,
    pub(crate) engine: &'a mut TaintEngine,
    pub(crate) config: ExecConfig,
}

/// Outcome of executing one instruction.
pub(crate) enum Step {
    /// Continue with the next instruction.
    Continue,
    /// Suspend with this event (machine state already consistent).
    Event(ExecEvent),
}

impl<'a, H: NativeHost> Interp<'a, H> {
    /// Creates an interpreter for one run.
    pub fn new(
        machine: &'a mut Machine,
        image: &'a AppImage,
        host: &'a mut H,
        engine: &'a mut TaintEngine,
        config: ExecConfig,
    ) -> Self {
        Interp { machine, image, host, engine, config }
    }

    /// Pushes the entry frame if the machine has never run. A runnable
    /// machine with no frames that has already retired instructions is
    /// malformed (its stack was torn down externally); restarting it from
    /// the entry point would silently re-run the program, so refuse.
    pub(crate) fn ensure_started(&mut self) -> Result<(), VmError> {
        if self.machine.frames.is_empty() {
            if self.machine.stats.instrs > 0 {
                return Err(VmError::NoFrame);
            }
            let entry = self.image.entry;
            let f = self.image.function(entry).ok_or(VmError::NoSuchFunction { id: entry.0 })?;
            self.machine.frames.push(Frame::new(entry, f.name.clone(), f.n_locals));
        }
        Ok(())
    }

    /// Checks the heap quota and call-depth limits (guard budgets).
    pub(crate) fn check_budgets(&self) -> Result<(), VmError> {
        if let Some(limit) = self.config.max_call_depth {
            let depth = self.machine.call_depth();
            if depth > limit {
                return Err(VmError::CallDepthExceeded { depth });
            }
        }
        let objects = self.machine.heap.len() as u64;
        let bytes = self.machine.heap.allocated_bytes();
        if self.config.max_heap_objects.is_some_and(|m| objects > m)
            || self.config.max_heap_bytes.is_some_and(|m| bytes > m)
        {
            return Err(VmError::HeapQuotaExceeded { objects, bytes });
        }
        Ok(())
    }

    /// Runs until an event occurs. On `Err`, the machine is marked faulted.
    pub fn run(mut self) -> Result<ExecEvent, VmError> {
        if !self.machine.is_runnable() {
            return Err(VmError::NotRunnable { status: self.machine.status.name() });
        }
        if let Err(e) = self.ensure_started() {
            self.machine.status = MachineStatus::Faulted;
            return Err(e);
        }
        let mut fuel = self.config.fuel;
        loop {
            if let Some(f) = fuel.as_mut() {
                if *f == 0 {
                    return Ok(ExecEvent::OutOfFuel);
                }
                *f -= 1;
            }
            match self.step() {
                Ok(Step::Continue) => {
                    if let Err(e) = self.check_budgets() {
                        self.machine.status = MachineStatus::Faulted;
                        return Err(e);
                    }
                    if let Some(limit) = self.config.taint_idle_limit {
                        // Migrating back is only safe once no tainted value
                        // rests in any stack or local slot — otherwise the
                        // migration itself would ship cor-derived data to
                        // the client.
                        if self.machine.stats.instrs_since_taint_use >= limit
                            && !self.machine.any_stack_taint()
                        {
                            self.machine.stats.instrs_since_taint_use = 0;
                            return Ok(ExecEvent::TaintIdle);
                        }
                    }
                }
                Ok(Step::Event(ev)) => {
                    if let ExecEvent::Halted(v) = &ev {
                        self.machine.status = MachineStatus::Halted;
                        self.machine.result = *v;
                    }
                    return Ok(ev);
                }
                Err(e) => {
                    self.machine.status = MachineStatus::Faulted;
                    return Err(e);
                }
            }
        }
    }

    /// Charges cycles to the machine's counters.
    pub(crate) fn charge(&mut self, cycles: u64) {
        self.machine.stats.cycles += cycles;
    }

    /// Charges taint-instrumentation cycles.
    pub(crate) fn charge_taint(&mut self, cycles: u64) {
        self.machine.stats.cycles += cycles;
        self.machine.stats.taint_cycles += cycles;
    }

    /// Notes whether the just-executed move touched tainted data, for the
    /// migrate-back-on-idle rule.
    pub(crate) fn note_taint_touch(&mut self, src: TaintSet) {
        if src.is_tainted() {
            self.machine.stats.instrs_since_taint_use = 0;
        }
    }

    /// Fetches the current instruction.
    fn fetch(&self) -> Result<(Insn, usize), VmError> {
        let frame = self.machine.top_frame().ok_or(VmError::NoFrame)?;
        let func =
            self.image.function(frame.func).ok_or(VmError::NoSuchFunction { id: frame.func.0 })?;
        match func.code.get(frame.pc) {
            Some(&insn) => Ok((insn, frame.pc)),
            // Falling off the end behaves as RetVoid, matching builder
            // convenience.
            None => Ok((Insn::RetVoid, frame.pc)),
        }
    }

    fn frame(&mut self) -> Result<&mut Frame, VmError> {
        self.machine.top_frame_mut().ok_or(VmError::NoFrame)
    }

    /// Executes one instruction.
    pub(crate) fn step(&mut self) -> Result<Step, VmError> {
        let (insn, _pc) = self.fetch()?;
        self.machine.stats.instrs += 1;
        self.machine.stats.instrs_since_taint_use =
            self.machine.stats.instrs_since_taint_use.saturating_add(1);
        self.charge(insn.base_cost());

        // Most instructions advance the pc by one; control flow overrides.
        macro_rules! advance {
            () => {{
                self.frame()?.pc += 1;
                Ok(Step::Continue)
            }};
        }

        match insn {
            Insn::Nop => advance!(),
            Insn::ConstI(i) => {
                self.frame()?.push(Value::Int(i), TaintSet::EMPTY);
                advance!()
            }
            Insn::ConstD(d) => {
                self.frame()?.push(Value::Double(d), TaintSet::EMPTY);
                advance!()
            }
            Insn::ConstNull => {
                self.frame()?.push(Value::Null, TaintSet::EMPTY);
                advance!()
            }
            Insn::ConstS(idx) => {
                let content = self
                    .image
                    .string(idx)
                    .ok_or(VmError::NoSuchString { index: idx.0 })?
                    .to_owned();
                let id = self.machine.heap.intern_str(idx.0, &content);
                self.frame()?.push(Value::Ref(id), TaintSet::EMPTY);
                advance!()
            }
            Insn::Load(n) => {
                let (v, t) = self.frame()?.local(n)?;
                let out = self.engine.on_move(PropClass::StackToStack, t);
                self.charge_taint(out.extra_cycles);
                self.note_taint_touch(t);
                self.frame()?.push(v, out.dst_taint);
                advance!()
            }
            Insn::Store(n) => {
                let (v, t) = self.frame()?.pop()?;
                let out = self.engine.on_move(PropClass::StackToStack, t);
                self.charge_taint(out.extra_cycles);
                self.note_taint_touch(t);
                self.frame()?.set_local(n, v, out.dst_taint)?;
                advance!()
            }
            Insn::Dup => {
                let (v, t) = self.frame()?.peek(0)?;
                let out = self.engine.on_move(PropClass::StackToStack, t);
                self.charge_taint(out.extra_cycles);
                self.frame()?.push(v, out.dst_taint.union(t));
                advance!()
            }
            Insn::Pop => {
                self.frame()?.pop()?;
                advance!()
            }
            Insn::Swap => {
                let (a, ta) = self.frame()?.pop()?;
                let (b, tb) = self.frame()?.pop()?;
                self.frame()?.push(a, ta);
                self.frame()?.push(b, tb);
                advance!()
            }
            Insn::Add
            | Insn::Sub
            | Insn::Mul
            | Insn::Div
            | Insn::Rem
            | Insn::BitAnd
            | Insn::BitOr
            | Insn::BitXor
            | Insn::Shl
            | Insn::Shr => {
                let (b, tb) = self.frame()?.pop()?;
                let (a, ta) = self.frame()?.pop()?;
                let srcs = ta.union(tb);
                let out = self.engine.on_move(PropClass::StackToStack, srcs);
                self.charge_taint(out.extra_cycles);
                self.note_taint_touch(srcs);
                let v = self.binop(insn, a, b)?;
                self.frame()?.push(v, out.dst_taint);
                advance!()
            }
            Insn::Neg => {
                let (a, ta) = self.frame()?.pop()?;
                let out = self.engine.on_move(PropClass::StackToStack, ta);
                self.charge_taint(out.extra_cycles);
                self.note_taint_touch(ta);
                let v = match a {
                    Value::Int(i) => Value::Int(i.wrapping_neg()),
                    Value::Double(d) => Value::Double(-d),
                    other => return Err(self.type_err("number", other.type_name())),
                };
                self.frame()?.push(v, out.dst_taint);
                advance!()
            }
            Insn::CmpEq | Insn::CmpNe | Insn::CmpLt | Insn::CmpLe | Insn::CmpGt | Insn::CmpGe => {
                let (b, tb) = self.frame()?.pop()?;
                let (a, ta) = self.frame()?.pop()?;
                let srcs = ta.union(tb);
                let out = self.engine.on_move(PropClass::StackToStack, srcs);
                self.charge_taint(out.extra_cycles);
                self.note_taint_touch(srcs);
                let r = self.compare(insn, a, b)?;
                self.frame()?.push(Value::Int(r as i64), out.dst_taint);
                advance!()
            }
            Insn::I2D => {
                let (a, ta) = self.frame()?.pop()?;
                let out = self.engine.on_move(PropClass::StackToStack, ta);
                self.charge_taint(out.extra_cycles);
                let i = a.as_int().map_err(|f| self.type_err("int", f))?;
                self.frame()?.push(Value::Double(i as f64), out.dst_taint);
                advance!()
            }
            Insn::D2I => {
                let (a, ta) = self.frame()?.pop()?;
                let out = self.engine.on_move(PropClass::StackToStack, ta);
                self.charge_taint(out.extra_cycles);
                let d = a.as_double().map_err(|f| self.type_err("double", f))?;
                self.frame()?.push(Value::Int(d as i64), out.dst_taint);
                advance!()
            }
            Insn::Jump(target) => self.jump(target),
            Insn::JumpIfZero(target) => {
                let (v, t) = self.frame()?.pop()?;
                self.note_taint_touch(t);
                if !v.is_truthy() {
                    self.jump(target)
                } else {
                    advance!()
                }
            }
            Insn::JumpIfNonZero(target) => {
                let (v, t) = self.frame()?.pop()?;
                self.note_taint_touch(t);
                if v.is_truthy() {
                    self.jump(target)
                } else {
                    advance!()
                }
            }
            Insn::New(class) => {
                let def = self.image.class(class).ok_or(VmError::NoSuchClass { id: class.0 })?;
                let id = self.machine.heap.alloc_obj(class.0, def.field_count());
                self.frame()?.push(Value::Ref(id), TaintSet::EMPTY);
                advance!()
            }
            Insn::GetField(n) => {
                // Peek (not pop) so a trigger leaves state untouched.
                let (objv, _) = self.frame()?.peek(0)?;
                let obj = objv.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let value = self.machine.heap.field_get(obj, n)?;
                if value.is_ref_like() {
                    // Copying a reference moves no tainted data (§3.5).
                    self.frame()?.pop()?;
                    self.frame()?.push(value, TaintSet::EMPTY);
                    return advance!();
                }
                let src = self.machine.heap.taint_of(obj)?;
                let out = self.engine.on_move(PropClass::HeapToStack, src);
                self.charge_taint(out.extra_cycles);
                if out.trigger_offload {
                    return Ok(Step::Event(ExecEvent::OffloadTrigger {
                        labels: src,
                        reason: TriggerReason::TaintedRead,
                    }));
                }
                self.note_taint_touch(src);
                self.frame()?.pop()?;
                self.frame()?.push(value, out.dst_taint);
                advance!()
            }
            Insn::PutField(n) => {
                let (value, vt) = self.frame()?.peek(0)?;
                let (objv, _) = self.frame()?.peek(1)?;
                let obj = objv.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let out = self.engine.on_move(PropClass::StackToHeap, vt);
                self.charge_taint(out.extra_cycles);
                self.note_taint_touch(vt);
                self.frame()?.pop()?;
                self.frame()?.pop()?;
                self.machine.heap.field_set(obj, n, value)?;
                if out.dst_taint.is_tainted() {
                    self.machine.heap.add_taint(obj, out.dst_taint)?;
                }
                advance!()
            }
            Insn::CloneObj => {
                let (objv, _) = self.frame()?.peek(0)?;
                let obj = objv.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let src = self.machine.heap.taint_of(obj)?;
                // A clone is a heap→heap *copy*: tracked on both endpoints,
                // never a trigger.
                let out = self.engine.on_move(PropClass::HeapToHeap, src);
                self.charge_taint(out.extra_cycles);
                self.note_taint_touch(src);
                let bytes = self.machine.heap.get(obj)?.kind.byte_size();
                self.charge(bytes / 8);
                self.frame()?.pop()?;
                let copy = self.machine.heap.clone_obj(obj)?;
                // clone_obj preserved the full source taint; narrow it to
                // what the engine propagates (None-engine: nothing).
                self.machine.heap.set_taint(copy, out.dst_taint)?;
                self.frame()?.push(Value::Ref(copy), TaintSet::EMPTY);
                advance!()
            }
            Insn::NewArr => {
                let (lenv, _) = self.frame()?.pop()?;
                let len = lenv.as_int().map_err(|f| self.type_err("int", f))?;
                if len < 0 {
                    return Err(VmError::BadStringOp {
                        message: format!("negative array length {len}"),
                    });
                }
                // Charge the byte quota *before* the backing store exists:
                // the length is guest-controlled, and a hostile `ConstI(2^40);
                // NewArr` must die on the quota, not drive the allocator.
                // Unquota'd machines still cap a single allocation — no
                // bytecode may ask the simulator for terabytes of backing.
                const MAX_ARR_ELEMS: u64 = 1 << 28;
                let bytes = self
                    .machine
                    .heap
                    .allocated_bytes()
                    .saturating_add((len as u64).saturating_mul(8));
                if len as u64 > MAX_ARR_ELEMS
                    || self.config.max_heap_bytes.is_some_and(|m| bytes > m)
                {
                    return Err(VmError::HeapQuotaExceeded {
                        objects: self.machine.heap.len() as u64,
                        bytes,
                    });
                }
                self.charge(len as u64 / 8);
                let id = self.machine.heap.alloc_arr(len as usize);
                self.frame()?.push(Value::Ref(id), TaintSet::EMPTY);
                advance!()
            }
            Insn::ArrLoad => {
                let (idxv, _) = self.frame()?.peek(0)?;
                let (arrv, _) = self.frame()?.peek(1)?;
                let arr = arrv.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let index = idxv.as_int().map_err(|f| self.type_err("int", f))?;
                let value = self.machine.heap.arr_get(arr, index)?;
                if value.is_ref_like() {
                    self.frame()?.pop()?;
                    self.frame()?.pop()?;
                    self.frame()?.push(value, TaintSet::EMPTY);
                    return advance!();
                }
                let src = self.machine.heap.taint_of(arr)?;
                let out = self.engine.on_move(PropClass::HeapToStack, src);
                self.charge_taint(out.extra_cycles);
                if out.trigger_offload {
                    return Ok(Step::Event(ExecEvent::OffloadTrigger {
                        labels: src,
                        reason: TriggerReason::TaintedRead,
                    }));
                }
                self.note_taint_touch(src);
                self.frame()?.pop()?;
                self.frame()?.pop()?;
                self.frame()?.push(value, out.dst_taint);
                advance!()
            }
            Insn::ArrStore => {
                let (value, vt) = self.frame()?.peek(0)?;
                let (idxv, _) = self.frame()?.peek(1)?;
                let (arrv, _) = self.frame()?.peek(2)?;
                let arr = arrv.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let index = idxv.as_int().map_err(|f| self.type_err("int", f))?;
                let out = self.engine.on_move(PropClass::StackToHeap, vt);
                self.charge_taint(out.extra_cycles);
                self.note_taint_touch(vt);
                self.frame()?.pop()?;
                self.frame()?.pop()?;
                self.frame()?.pop()?;
                self.machine.heap.arr_set(arr, index, value)?;
                if out.dst_taint.is_tainted() {
                    self.machine.heap.add_taint(arr, out.dst_taint)?;
                }
                advance!()
            }
            Insn::ArrLen => {
                let (arrv, _) = self.frame()?.pop()?;
                let arr = arrv.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let len = self.machine.heap.arr_len(arr)?;
                self.frame()?.push(Value::Int(len as i64), TaintSet::EMPTY);
                advance!()
            }
            Insn::ArrCopy => {
                // Stack (top first): count, dst_off, dst, src_off, src.
                let (countv, _) = self.frame()?.peek(0)?;
                let (doffv, _) = self.frame()?.peek(1)?;
                let (dstv, _) = self.frame()?.peek(2)?;
                let (soffv, _) = self.frame()?.peek(3)?;
                let (srcv, _) = self.frame()?.peek(4)?;
                let count = countv.as_int().map_err(|f| self.type_err("int", f))?;
                let doff = doffv.as_int().map_err(|f| self.type_err("int", f))?;
                let soff = soffv.as_int().map_err(|f| self.type_err("int", f))?;
                let dst = dstv.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let src = srcv.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let src_taint = self.machine.heap.taint_of(src)?;
                // arraycopy is a heap→heap copy: propagate, never trigger.
                let out = self.engine.on_move(PropClass::HeapToHeap, src_taint);
                self.charge_taint(out.extra_cycles);
                self.note_taint_touch(src_taint);
                self.charge(count.max(0) as u64 / 4);
                for k in 0..count.max(0) {
                    let v = self.machine.heap.arr_get(src, soff + k)?;
                    self.machine.heap.arr_set(dst, doff + k, v)?;
                }
                if out.dst_taint.is_tainted() {
                    self.machine.heap.add_taint(dst, out.dst_taint)?;
                }
                for _ in 0..5 {
                    self.frame()?.pop()?;
                }
                advance!()
            }
            Insn::StrConcat => {
                let (bv, _) = self.frame()?.peek(0)?;
                let (av, _) = self.frame()?.peek(1)?;
                let b = bv.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let a = av.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let srcs = self.machine.heap.taint_of(a)?.union(self.machine.heap.taint_of(b)?);
                // Concatenation derives a new value: on the client this is
                // the Figure 11 line-6 trigger.
                let out = self.engine.on_derive(srcs);
                self.charge_taint(out.extra_cycles);
                if out.trigger_offload {
                    return Ok(Step::Event(ExecEvent::OffloadTrigger {
                        labels: srcs,
                        reason: TriggerReason::TaintedDerive,
                    }));
                }
                self.note_taint_touch(srcs);
                let joined = {
                    let sa = self.machine.heap.str_value(a)?;
                    let sb = self.machine.heap.str_value(b)?;
                    let mut s = String::with_capacity(sa.len() + sb.len());
                    s.push_str(sa);
                    s.push_str(sb);
                    s
                };
                self.charge(joined.len() as u64 / 8);
                self.frame()?.pop()?;
                self.frame()?.pop()?;
                let id = self.machine.heap.alloc_str_tainted(joined, out.dst_taint);
                self.frame()?.push(Value::Ref(id), TaintSet::EMPTY);
                advance!()
            }
            Insn::StrCharAt => {
                let (idxv, _) = self.frame()?.peek(0)?;
                let (sv, _) = self.frame()?.peek(1)?;
                let s = sv.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let index = idxv.as_int().map_err(|f| self.type_err("int", f))?;
                let src = self.machine.heap.taint_of(s)?;
                let out = self.engine.on_move(PropClass::HeapToStack, src);
                self.charge_taint(out.extra_cycles);
                if out.trigger_offload {
                    return Ok(Step::Event(ExecEvent::OffloadTrigger {
                        labels: src,
                        reason: TriggerReason::TaintedRead,
                    }));
                }
                self.note_taint_touch(src);
                let content = self.machine.heap.str_value(s)?;
                let ch = content
                    .as_bytes()
                    .get(index.max(0) as usize)
                    .copied()
                    .ok_or(VmError::IndexOutOfBounds { obj: s, index, len: content.len() })?;
                self.frame()?.pop()?;
                self.frame()?.pop()?;
                self.frame()?.push(Value::Int(ch as i64), out.dst_taint);
                advance!()
            }
            Insn::StrLen => {
                // Length is deliberately an untainted read: the placeholder
                // has the same length as the cor (§5.1), so this neither
                // leaks nor needs to trigger offloading.
                let (sv, _) = self.frame()?.pop()?;
                let s = sv.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let len = self.machine.heap.str_value(s)?.len();
                self.frame()?.push(Value::Int(len as i64), TaintSet::EMPTY);
                advance!()
            }
            Insn::StrSub => {
                let (endv, _) = self.frame()?.peek(0)?;
                let (startv, _) = self.frame()?.peek(1)?;
                let (sv, _) = self.frame()?.peek(2)?;
                let s = sv.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let src = self.machine.heap.taint_of(s)?;
                let out = self.engine.on_derive(src);
                self.charge_taint(out.extra_cycles);
                if out.trigger_offload {
                    return Ok(Step::Event(ExecEvent::OffloadTrigger {
                        labels: src,
                        reason: TriggerReason::TaintedDerive,
                    }));
                }
                self.note_taint_touch(src);
                let start = startv.as_int().map_err(|f| self.type_err("int", f))?;
                let end = endv.as_int().map_err(|f| self.type_err("int", f))?;
                let content = self.machine.heap.str_value(s)?;
                if start < 0 || end < start || end as usize > content.len() {
                    return Err(VmError::BadStringOp {
                        message: format!("substring [{start}, {end}) of len {}", content.len()),
                    });
                }
                let sub = content[start as usize..end as usize].to_owned();
                self.charge(sub.len() as u64 / 8);
                for _ in 0..3 {
                    self.frame()?.pop()?;
                }
                let id = self.machine.heap.alloc_str_tainted(sub, out.dst_taint);
                self.frame()?.push(Value::Ref(id), TaintSet::EMPTY);
                advance!()
            }
            Insn::StrIndexOf => {
                let (needlev, _) = self.frame()?.peek(0)?;
                let (hayv, _) = self.frame()?.peek(1)?;
                let needle = needlev.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let hay = hayv.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let srcs =
                    self.machine.heap.taint_of(needle)?.union(self.machine.heap.taint_of(hay)?);
                let out = self.engine.on_move(PropClass::HeapToStack, srcs);
                self.charge_taint(out.extra_cycles);
                if out.trigger_offload {
                    return Ok(Step::Event(ExecEvent::OffloadTrigger {
                        labels: srcs,
                        reason: TriggerReason::TaintedRead,
                    }));
                }
                self.note_taint_touch(srcs);
                let (pos, scan_len) = {
                    let h = self.machine.heap.str_value(hay)?;
                    let n = self.machine.heap.str_value(needle)?;
                    (h.find(n).map(|i| i as i64).unwrap_or(-1), (h.len() + n.len()) as u64)
                };
                self.charge(scan_len / 8);
                self.frame()?.pop()?;
                self.frame()?.pop()?;
                self.frame()?.push(Value::Int(pos), out.dst_taint);
                advance!()
            }
            Insn::StrEq => {
                let (bv, _) = self.frame()?.peek(0)?;
                let (av, _) = self.frame()?.peek(1)?;
                let b = bv.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let a = av.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let srcs = self.machine.heap.taint_of(a)?.union(self.machine.heap.taint_of(b)?);
                // Comparing contents is a value-dependent heap read: a
                // placeholder would compare wrongly, so this must offload.
                let out = self.engine.on_move(PropClass::HeapToStack, srcs);
                self.charge_taint(out.extra_cycles);
                if out.trigger_offload {
                    return Ok(Step::Event(ExecEvent::OffloadTrigger {
                        labels: srcs,
                        reason: TriggerReason::TaintedRead,
                    }));
                }
                self.note_taint_touch(srcs);
                let (eq, cmp_len) = {
                    let sa = self.machine.heap.str_value(a)?;
                    let sb = self.machine.heap.str_value(b)?;
                    (sa == sb, sa.len().min(sb.len()) as u64)
                };
                self.charge(cmp_len / 8);
                self.frame()?.pop()?;
                self.frame()?.pop()?;
                self.frame()?.push(Value::Int(eq as i64), out.dst_taint);
                advance!()
            }
            Insn::StrFromInt => {
                let (v, vt) = self.frame()?.pop()?;
                let out = self.engine.on_move(PropClass::StackToHeap, vt);
                self.charge_taint(out.extra_cycles);
                self.note_taint_touch(vt);
                let i = v.as_int().map_err(|f| self.type_err("int", f))?;
                let id = self.machine.heap.alloc_str_tainted(i.to_string(), out.dst_taint);
                self.frame()?.push(Value::Ref(id), TaintSet::EMPTY);
                advance!()
            }
            Insn::StrFromChar => {
                let (v, vt) = self.frame()?.pop()?;
                let out = self.engine.on_move(PropClass::StackToHeap, vt);
                self.charge_taint(out.extra_cycles);
                self.note_taint_touch(vt);
                let i = v.as_int().map_err(|f| self.type_err("int", f))?;
                // Only valid Unicode scalar values convert; truncating
                // through `as u32` and papering over failures with a
                // replacement character would give re-execution on the
                // other endpoint (and the compiled tier) room to diverge
                // silently. Out-of-range codes trap instead.
                let ch = u32::try_from(i).ok().and_then(char::from_u32).ok_or_else(|| {
                    VmError::BadStringOp {
                        message: format!("char code {i} is not a Unicode scalar value"),
                    }
                })?;
                let id = self.machine.heap.alloc_str_tainted(ch.to_string(), out.dst_taint);
                self.frame()?.push(Value::Ref(id), TaintSet::EMPTY);
                advance!()
            }
            Insn::Call(fid) => {
                let callee =
                    self.image.function(fid).ok_or(VmError::NoSuchFunction { id: fid.0 })?;
                self.machine.stats.method_invocations += 1;
                let n_args = callee.n_args as usize;
                let mut new_frame = Frame::new(fid, callee.name.clone(), callee.n_locals);
                // Pop args (last arg on top) into the callee's first locals.
                for i in (0..n_args).rev() {
                    let (v, t) = self.frame()?.pop()?;
                    let out = self.engine.on_move(PropClass::StackToStack, t);
                    self.charge_taint(out.extra_cycles);
                    new_frame.set_local(i as u16, v, out.dst_taint)?;
                }
                // Return to the instruction after the call.
                self.frame()?.pc += 1;
                self.machine.frames.push(new_frame);
                Ok(Step::Continue)
            }
            Insn::CallNative(nid, argc) => {
                let name =
                    self.image.native(nid).ok_or(VmError::NoSuchNative { id: nid.0 })?.to_owned();
                let argc = argc as usize;
                let frame = self.machine.top_frame().ok_or(VmError::NoFrame)?;
                if frame.depth() < argc {
                    return Err(VmError::StackUnderflow {
                        func: frame.func_name.clone(),
                        pc: frame.pc,
                    });
                }
                let base = frame.depth() - argc;
                let args: Vec<Value> = frame.stack[base..].to_vec();
                let arg_taints: Vec<TaintSet> = frame.stack_taint[base..].to_vec();
                let taint_in: TaintSet = {
                    let mut t = TaintSet::EMPTY;
                    for (i, v) in args.iter().enumerate() {
                        t = t.union(arg_taints[i]);
                        if let Value::Ref(id) = v {
                            t = t.union(self.machine.heap.taint_of(*id)?);
                        }
                    }
                    t
                };
                let outcome = self.host.call(NativeCtx {
                    name: &name,
                    args: &args,
                    arg_taints: &arg_taints,
                    heap: &mut self.machine.heap,
                    site: self.config.site,
                })?;
                match outcome {
                    NativeOutcome::Ret { value, taint, cycles } => {
                        self.machine.stats.native_calls += 1;
                        self.charge(cycles);
                        self.note_taint_touch(taint_in);
                        for _ in 0..argc {
                            self.frame()?.pop()?;
                        }
                        self.frame()?.push(value, taint);
                        advance!()
                    }
                    NativeOutcome::TriggerOffload => Ok(Step::Event(ExecEvent::OffloadTrigger {
                        labels: taint_in,
                        reason: TriggerReason::TaintedNative { name },
                    })),
                    NativeOutcome::MigrateBack => {
                        Ok(Step::Event(ExecEvent::MigrateBack { native: name }))
                    }
                }
            }
            Insn::Ret => {
                let (v, t) = self.frame()?.pop()?;
                self.machine.frames.pop();
                if self.machine.frames.is_empty() {
                    return Ok(Step::Event(ExecEvent::Halted(v)));
                }
                let out = self.engine.on_move(PropClass::StackToStack, t);
                self.charge_taint(out.extra_cycles);
                self.frame()?.push(v, out.dst_taint);
                Ok(Step::Continue)
            }
            Insn::RetVoid => {
                self.machine.frames.pop();
                if self.machine.frames.is_empty() {
                    return Ok(Step::Event(ExecEvent::Halted(Value::Null)));
                }
                self.frame()?.push(Value::Null, TaintSet::EMPTY);
                Ok(Step::Continue)
            }
            Insn::MonitorEnter => {
                let (objv, _) = self.frame()?.peek(0)?;
                let obj = objv.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                let here = self.config.site;
                match self.machine.locks.get_mut(&obj) {
                    Some((site, count)) if *site == here => {
                        *count += 1;
                    }
                    Some((site, _)) if *site != here => {
                        // Owned remotely: a DSM sync must transfer it first.
                        return Ok(Step::Event(ExecEvent::LockRemote(obj)));
                    }
                    _ => {
                        self.machine.locks.insert(obj, (here, 1));
                    }
                }
                self.frame()?.pop()?;
                advance!()
            }
            Insn::MonitorExit => {
                let (objv, _) = self.frame()?.pop()?;
                let obj = objv.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                match self.machine.locks.get_mut(&obj) {
                    Some((_, count)) if *count > 0 => {
                        *count -= 1;
                    }
                    _ => return Err(VmError::MonitorStateError { obj }),
                }
                advance!()
            }
            Insn::PinLock => {
                let (objv, _) = self.frame()?.pop()?;
                let obj = objv.as_ref_id().map_err(|f| self.type_err("ref", f))?;
                self.machine.locks.insert(obj, (self.config.site, 1));
                self.machine.pinned_locks.insert(obj);
                advance!()
            }
            Insn::Halt => {
                let v =
                    if self.frame()?.depth() > 0 { self.frame()?.pop()?.0 } else { Value::Null };
                Ok(Step::Event(ExecEvent::Halted(v)))
            }
        }
    }

    fn jump(&mut self, target: u32) -> Result<Step, VmError> {
        let frame = self.machine.top_frame().ok_or(VmError::NoFrame)?;
        let func =
            self.image.function(frame.func).ok_or(VmError::NoSuchFunction { id: frame.func.0 })?;
        if target as usize > func.code.len() {
            return Err(VmError::BadJump {
                func: frame.func_name.clone(),
                pc: frame.pc,
                target: target as i64,
            });
        }
        self.frame()?.pc = target as usize;
        Ok(Step::Continue)
    }

    pub(crate) fn type_err(&self, expected: &'static str, found: &'static str) -> VmError {
        match self.machine.top_frame() {
            Some(frame) => VmError::TypeMismatch {
                func: frame.func_name.clone(),
                pc: frame.pc,
                expected,
                found,
            },
            None => VmError::NoFrame,
        }
    }

    fn binop(&self, insn: Insn, a: Value, b: Value) -> Result<Value, VmError> {
        eval_binop(insn, a, b).map_err(|e| self.arith_err(e))
    }

    fn compare(&self, insn: Insn, a: Value, b: Value) -> Result<bool, VmError> {
        eval_compare(insn, a, b).map_err(|e| self.arith_err(e))
    }

    /// Attaches the current frame's function/pc context to a pure
    /// arithmetic error.
    pub(crate) fn arith_err(&self, e: ArithErr) -> VmError {
        match e {
            ArithErr::DivZero => self.div_zero(),
            ArithErr::Type { expected, found } => self.type_err(expected, found),
        }
    }

    fn div_zero(&self) -> VmError {
        match self.machine.top_frame() {
            Some(frame) => VmError::DivisionByZero { func: frame.func_name.clone(), pc: frame.pc },
            None => VmError::NoFrame,
        }
    }
}

/// A context-free arithmetic failure; callers attach function/pc context.
///
/// Shared by the interpreter and the compiled tier so both evaluate binary
/// operations through literally the same code path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ArithErr {
    /// Integer division or remainder by zero.
    DivZero,
    /// Operand type the operation cannot accept.
    Type {
        /// The type the operation required.
        expected: &'static str,
        /// The type actually found.
        found: &'static str,
    },
}

/// Evaluates a binary arithmetic/bitwise instruction on two operands.
pub(crate) fn eval_binop(insn: Insn, a: Value, b: Value) -> Result<Value, ArithErr> {
    use Insn::*;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => {
            let r = match insn {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div => {
                    if y == 0 {
                        return Err(ArithErr::DivZero);
                    }
                    x.wrapping_div(y)
                }
                Rem => {
                    if y == 0 {
                        return Err(ArithErr::DivZero);
                    }
                    x.wrapping_rem(y)
                }
                BitAnd => x & y,
                BitOr => x | y,
                BitXor => x ^ y,
                // Shift counts take only their low six bits (JVM `lshl`
                // semantics, documented on `Insn::Shl`/`Insn::Shr`): the
                // explicit mask pins down what `wrapping_shl(y as u32)`
                // merely happened to compute, so negative and ≥64 counts
                // have *specified* behavior the compiled tier and constant
                // folding can rely on.
                Shl => x.wrapping_shl((y & 63) as u32),
                Shr => x.wrapping_shr((y & 63) as u32),
                _ => unreachable!("binop called with non-binop insn"),
            };
            Ok(Value::Int(r))
        }
        (x, y) if matches!(x, Value::Double(_)) || matches!(y, Value::Double(_)) => {
            let xd = x.as_double().map_err(|f| ArithErr::Type { expected: "number", found: f })?;
            let yd = y.as_double().map_err(|f| ArithErr::Type { expected: "number", found: f })?;
            let r = match insn {
                Add => xd + yd,
                Sub => xd - yd,
                Mul => xd * yd,
                Div => xd / yd,
                Rem => xd % yd,
                _ => return Err(ArithErr::Type { expected: "int", found: "double" }),
            };
            Ok(Value::Double(r))
        }
        (x, y) => {
            let found = if x.as_int().is_err() { x.type_name() } else { y.type_name() };
            Err(ArithErr::Type { expected: "number", found })
        }
    }
}

/// Evaluates a comparison instruction on two operands.
pub(crate) fn eval_compare(insn: Insn, a: Value, b: Value) -> Result<bool, ArithErr> {
    use Insn::*;
    // Reference comparisons: only Eq/Ne.
    if a.is_ref_like() || b.is_ref_like() {
        let eq = a == b;
        return match insn {
            CmpEq => Ok(eq),
            CmpNe => Ok(!eq),
            _ => Err(ArithErr::Type { expected: "number", found: "ref" }),
        };
    }
    let xd = a.as_double().map_err(|f| ArithErr::Type { expected: "number", found: f })?;
    let yd = b.as_double().map_err(|f| ArithErr::Type { expected: "number", found: f })?;
    Ok(match insn {
        CmpEq => xd == yd,
        CmpNe => xd != yd,
        CmpLt => xd < yd,
        CmpLe => xd <= yd,
        CmpGt => xd > yd,
        CmpGe => xd >= yd,
        _ => unreachable!("compare called with non-compare insn"),
    })
}

/// Runs a machine to an event with the given pieces — a convenience wrapper
/// over [`Interp::new`] + [`Interp::run`].
pub fn run<H: NativeHost>(
    machine: &mut Machine,
    image: &AppImage,
    host: &mut H,
    engine: &mut TaintEngine,
    config: ExecConfig,
) -> Result<ExecEvent, VmError> {
    Interp::new(machine, image, host, engine, config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{FuncId, Function};

    fn image(code: Vec<Insn>) -> AppImage {
        AppImage {
            name: "guarded".into(),
            functions: vec![Function { name: "main".into(), n_args: 0, n_locals: 2, code }],
            classes: Vec::new(),
            strings: vec!["seed".into()],
            natives: Vec::new(),
            entry: FuncId(0),
        }
    }

    fn run_image(code: Vec<Insn>, config: ExecConfig) -> (Machine, Result<ExecEvent, VmError>) {
        let mut m = Machine::new();
        let img = image(code);
        let mut engine = TaintEngine::none();
        let r = run(&mut m, &img, &mut NullHost, &mut engine, config);
        (m, r)
    }

    #[test]
    fn frameless_resumed_machine_errors_instead_of_restarting() {
        // Run a program to a suspension point, strip its stack, resume:
        // the interpreter must refuse with NoFrame, not re-run from entry.
        let mut m = Machine::new();
        let img = image(vec![Insn::ConstI(1), Insn::ConstI(2), Insn::Halt]);
        let mut engine = TaintEngine::none();
        let ev = run(&mut m, &img, &mut NullHost, &mut engine, ExecConfig::client().with_fuel(1));
        assert_eq!(ev, Ok(ExecEvent::OutOfFuel));
        m.frames.clear(); // malformed external teardown
        let err = run(&mut m, &img, &mut NullHost, &mut engine, ExecConfig::client());
        assert_eq!(err, Err(VmError::NoFrame));
        assert_eq!(m.status, MachineStatus::Faulted);
    }

    #[test]
    fn machine_with_retired_instrs_but_no_frames_is_rejected() {
        // A runnable machine that has already executed but lost its stack
        // is malformed; re-running it from entry would repeat the program.
        let mut m = Machine::new();
        m.stats.instrs = 7;
        let img = image(vec![Insn::Halt]);
        let mut engine = TaintEngine::none();
        let err = run(&mut m, &img, &mut NullHost, &mut engine, ExecConfig::client());
        assert_eq!(err, Err(VmError::NoFrame));
    }

    #[test]
    fn heap_object_quota_kills_allocation_loop() {
        // while(true) { new arr(1); } — dies on the object quota.
        let code = vec![Insn::ConstI(1), Insn::NewArr, Insn::Pop, Insn::Jump(0)];
        let (m, r) =
            run_image(code, ExecConfig::client().with_fuel(100_000).with_heap_quota(16, 1 << 20));
        match r {
            Err(VmError::HeapQuotaExceeded { objects, .. }) => assert!(objects > 16),
            other => panic!("expected HeapQuotaExceeded, got {other:?}"),
        }
        assert_eq!(m.status, MachineStatus::Faulted);
    }

    #[test]
    fn heap_byte_quota_kills_doubling_string() {
        // s = "seed"; while(true) { s = s + s; } — bytes blow up fast.
        let code = vec![
            Insn::ConstS(crate::program::StrIdx(0)),
            Insn::Store(0),
            Insn::Load(0),
            Insn::Load(0),
            Insn::StrConcat,
            Insn::Store(0),
            Insn::Jump(2),
        ];
        let (m, r) =
            run_image(code, ExecConfig::client().with_fuel(100_000).with_heap_quota(1 << 20, 4096));
        match r {
            Err(VmError::HeapQuotaExceeded { bytes, .. }) => assert!(bytes > 4096),
            other => panic!("expected HeapQuotaExceeded, got {other:?}"),
        }
        assert_eq!(m.status, MachineStatus::Faulted);
    }

    #[test]
    fn call_depth_limit_kills_unbounded_recursion() {
        // main() { main(); } — no base case.
        let code = vec![Insn::Call(FuncId(0)), Insn::Halt];
        let (m, r) = run_image(code, ExecConfig::client().with_fuel(100_000).with_depth_limit(32));
        assert_eq!(r, Err(VmError::CallDepthExceeded { depth: 33 }));
        assert_eq!(m.status, MachineStatus::Faulted);
    }

    #[test]
    fn spin_loop_runs_out_of_fuel_not_forever() {
        let code = vec![Insn::Nop, Insn::Jump(0)];
        let (m, r) = run_image(code, ExecConfig::client().with_fuel(10_000));
        assert_eq!(r, Ok(ExecEvent::OutOfFuel));
        assert_eq!(m.stats.instrs, 10_000);
    }

    #[test]
    fn budgets_do_not_disturb_well_behaved_programs() {
        let code = vec![Insn::ConstI(41), Insn::ConstI(1), Insn::Add, Insn::Halt];
        let (m, r) = run_image(
            code,
            ExecConfig::client().with_fuel(1_000).with_heap_quota(64, 4096).with_depth_limit(8),
        );
        assert_eq!(r, Ok(ExecEvent::Halted(Value::Int(42))));
        assert_eq!(m.status, MachineStatus::Halted);
    }
}
