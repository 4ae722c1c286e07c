//! Per-session resource governance for the trusted node.
//!
//! TinMan's trust model is asymmetric: the *node* is trusted, the *apps*
//! running on it are not — they are arbitrary guest bytecode that merely
//! carries cor. A hostile or runaway guest (infinite loop, heap bomb,
//! unbounded recursion, DSM-sync flood) must not be able to wedge a node
//! shared across many users' sessions. This crate defines the policy
//! vocabulary the rest of the system enforces:
//!
//! - [`GuardPolicy`] — the per-session budget envelope (fuel, heap, call
//!   depth, DSM sync count and shipped bytes, a simulated-time deadline).
//!   The `vm` crate enforces the fuel/heap/depth budgets per instruction,
//!   the `dsm` crate meters syncs, and `core`'s runtime turns any
//!   exhaustion into a deterministic kill with a scrubbed node heap.
//! - [`KillReason`] — why a guest was killed; stable names feed trace
//!   events, metrics, and fleet report columns.
//! - [`GuardVerdict`] — the outcome of running a session under a guard.

#![warn(missing_docs)]

use std::fmt;

use serde::{Deserialize, Serialize};
use tinman_sim::SimDuration;

/// The per-session budget envelope the trusted node grants a guest.
///
/// Every limit is a hard ceiling; crossing any of them is a deterministic
/// [`KillReason`]-stamped kill, never a panic and never an unbounded wait.
/// The [`Default`] policy is sized so that every legitimate workload in
/// this repository finishes with a wide margin while each of the canned
/// hostile guests dies within a few simulated milliseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardPolicy {
    /// Node-side instruction budget per session (all node segments
    /// combined).
    pub fuel: u64,
    /// Maximum live objects in the node heap.
    pub max_heap_objects: u64,
    /// Maximum allocated payload bytes in the node heap.
    pub max_heap_bytes: u64,
    /// Maximum call-stack depth on the node.
    pub max_call_depth: usize,
    /// Maximum DSM synchronizations (either direction) per session.
    pub max_dsm_syncs: u64,
    /// Maximum bytes shipped by DSM deltas per session.
    pub max_dsm_bytes: u64,
    /// Simulated wall-clock deadline for the whole session, measured from
    /// the first node segment. `None` disables the watchdog timer.
    pub deadline: Option<SimDuration>,
}

impl Default for GuardPolicy {
    fn default() -> Self {
        GuardPolicy {
            fuel: 2_000_000,
            max_heap_objects: 50_000,
            max_heap_bytes: 8 << 20,
            max_call_depth: 128,
            max_dsm_syncs: 64,
            max_dsm_bytes: 16 << 20,
            deadline: Some(SimDuration::from_secs(120)),
        }
    }
}

impl GuardPolicy {
    /// A policy with every limit at its maximum — useful for tests that
    /// want the guard plumbing armed without any budget ever binding.
    pub fn unlimited() -> Self {
        GuardPolicy {
            fuel: u64::MAX,
            max_heap_objects: u64::MAX,
            max_heap_bytes: u64::MAX,
            max_call_depth: usize::MAX,
            max_dsm_syncs: u64::MAX,
            max_dsm_bytes: u64::MAX,
            deadline: None,
        }
    }

    /// The nominal fuel reservation fleet admission accounts for a
    /// well-behaved session: most sessions use a small fraction of the
    /// ceiling, so reserving the full budget for everyone would shed
    /// sessions a node could easily serve.
    pub fn nominal_fuel(&self) -> u64 {
        self.fuel / 16
    }

    /// The nominal heap-byte reservation for a well-behaved session
    /// (companion of [`GuardPolicy::nominal_fuel`]).
    pub fn nominal_heap_bytes(&self) -> u64 {
        self.max_heap_bytes / 16
    }
}

/// Which budget a killed guest exhausted. Variants map 1:1 onto the
/// `guard.*_exhausted` metrics and the `budget_exhaustions` report columns
/// (the DSM flavors — syncs, bytes, resync — share the `dsm` column).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KillReason {
    /// The node-side instruction budget ran out.
    Fuel,
    /// The node heap crossed its object or byte quota.
    Heap,
    /// The call stack crossed its depth limit.
    Depth,
    /// Too many DSM synchronizations.
    DsmSyncs,
    /// Too many bytes shipped over DSM.
    DsmBytes,
    /// The session's simulated deadline passed.
    Deadline,
    /// A DSM re-synchronization (after a network disruption such as a
    /// mobility handoff) exhausted its bounded retry budget; the guest
    /// fails closed instead of running on divergent state.
    Resync,
}

impl KillReason {
    /// Stable snake_case name for trace events and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            KillReason::Fuel => "fuel",
            KillReason::Heap => "heap",
            KillReason::Depth => "depth",
            KillReason::DsmSyncs => "dsm_syncs",
            KillReason::DsmBytes => "dsm_bytes",
            KillReason::Deadline => "deadline",
            KillReason::Resync => "resync",
        }
    }

    /// The budget this reason exhausted: its index into
    /// [`BUDGET_COLUMNS`] and its `guard.*_exhausted` counter. The DSM
    /// flavors (syncs, bytes, resync) share the `dsm` budget.
    pub fn budget(self) -> (usize, &'static str) {
        match self {
            KillReason::Fuel => (0, "guard.fuel_exhausted"),
            KillReason::Heap => (1, "guard.heap_exhausted"),
            KillReason::Depth => (2, "guard.depth_exhausted"),
            KillReason::DsmSyncs | KillReason::DsmBytes | KillReason::Resync => {
                (3, "guard.dsm_exhausted")
            }
            KillReason::Deadline => (4, "guard.deadline_exhausted"),
        }
    }
}

/// The `budget_exhaustions` report columns, indexed by
/// [`KillReason::budget`].
pub const BUDGET_COLUMNS: [&str; 5] = ["fuel", "heap", "depth", "dsm", "deadline"];

impl fmt::Display for KillReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The outcome of running one session under a guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GuardVerdict {
    /// The session ran to completion within every budget.
    Completed,
    /// The guard killed the guest; its node heap was scrubbed and the
    /// session failed closed.
    Killed {
        /// Which budget was exhausted.
        reason: KillReason,
    },
}

impl GuardVerdict {
    /// True if the guard killed the guest.
    pub fn is_killed(self) -> bool {
        matches!(self, GuardVerdict::Killed { .. })
    }
}

/// Evidence that a node heap was scrubbed before its guest state left the
/// node — the scrub-on-migrate half of the kill-time scrub guarantee.
///
/// A live session migration serializes the guest (machine + taint engine)
/// and then must leave *nothing* behind on the source: the checkpoint
/// carries this receipt so the scheduler can verify, per migration, that
/// the source heap and stack were torn down and that a post-scrub residue
/// scan found zero live objects. A receipt with `residue != 0` is a
/// reportable violation (the `migration_residue` fleet column), never
/// silently accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubReceipt {
    /// The node index that was scrubbed.
    pub node: usize,
    /// Simulated instant of the scrub, nanoseconds since session start.
    pub at_ns: u64,
    /// Heap objects still alive after the scrub (acceptance bar: zero).
    pub residue: u64,
}

impl ScrubReceipt {
    /// True when the scrub left no live heap object behind.
    pub fn clean(&self) -> bool {
        self.residue == 0
    }
}

/// Block-granular fuel metering for the VM's compiled tier.
///
/// The interpreter charges one unit of fuel per instruction, checking for
/// exhaustion *before* each instruction executes. A block-compiled executor
/// wants to pay the check once per basic block instead of once per
/// instruction — but the guest must still die on **exactly the same
/// instruction** as under per-instruction charging, or the tier would change
/// the guard's observable kill point. `BlockFuel` encodes the protocol that
/// makes that equivalence hold:
///
/// 1. at block entry, [`BlockFuel::can_reserve`] asks whether the whole
///    block's retired-instruction count fits in the remaining budget;
/// 2. if it fits, the executor runs the block natively and settles with
///    [`BlockFuel::spend`] as ops retire (infallible: the reservation
///    guaranteed capacity);
/// 3. if it does not fit, the executor falls back to per-instruction
///    stepping gated by [`BlockFuel::charge_one`], which replicates the
///    interpreter's check-then-decrement order bit for bit — so exhaustion
///    surfaces before the same instruction, with the same retired count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockFuel {
    remaining: Option<u64>,
}

impl BlockFuel {
    /// A meter with the given budget; `None` means unlimited.
    pub fn new(limit: Option<u64>) -> Self {
        BlockFuel { remaining: limit }
    }

    /// A meter that never exhausts.
    pub fn unlimited() -> Self {
        BlockFuel { remaining: None }
    }

    /// True if a block retiring `instrs` instructions can run without
    /// exhausting mid-block.
    pub fn can_reserve(&self, instrs: u64) -> bool {
        self.remaining.is_none_or(|r| r >= instrs)
    }

    /// Per-instruction gate, identical to the interpreter's loop: returns
    /// `false` (without decrementing) when the budget is already zero,
    /// otherwise decrements and returns `true`.
    pub fn charge_one(&mut self) -> bool {
        match self.remaining.as_mut() {
            Some(0) => false,
            Some(r) => {
                *r -= 1;
                true
            }
            None => true,
        }
    }

    /// Settles `instrs` retired instructions against the budget. Only valid
    /// after a successful [`BlockFuel::can_reserve`] covering them.
    pub fn spend(&mut self, instrs: u64) {
        if let Some(r) = self.remaining.as_mut() {
            debug_assert!(*r >= instrs, "spend without a covering reservation");
            *r = r.saturating_sub(instrs);
        }
    }

    /// Remaining budget (`None` = unlimited).
    pub fn remaining(&self) -> Option<u64> {
        self.remaining
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_generous_but_bounded() {
        let p = GuardPolicy::default();
        assert!(p.fuel >= 1_000_000);
        assert!(p.max_heap_bytes >= 1 << 20);
        assert!(p.max_call_depth >= 64);
        assert!(p.nominal_fuel() < p.fuel);
        assert!(p.nominal_heap_bytes() < p.max_heap_bytes);
        assert!(p.deadline.is_some());
    }

    #[test]
    fn unlimited_policy_never_binds() {
        let p = GuardPolicy::unlimited();
        assert_eq!(p.fuel, u64::MAX);
        assert_eq!(p.deadline, None);
    }

    #[test]
    fn kill_reason_names_are_stable() {
        let all = [
            KillReason::Fuel,
            KillReason::Heap,
            KillReason::Depth,
            KillReason::DsmSyncs,
            KillReason::DsmBytes,
            KillReason::Deadline,
        ];
        let names: Vec<&str> = all.iter().map(|r| r.as_str()).collect();
        assert_eq!(names, ["fuel", "heap", "depth", "dsm_syncs", "dsm_bytes", "deadline"]);
        for dsm in [KillReason::DsmSyncs, KillReason::DsmBytes, KillReason::Resync] {
            assert_eq!(dsm.budget(), (3, "guard.dsm_exhausted"));
        }
        assert_eq!(BUDGET_COLUMNS[KillReason::Deadline.budget().0], "deadline");
        assert_eq!(format!("{}", KillReason::Fuel), "fuel");
    }

    #[test]
    fn verdict_predicates() {
        assert!(!GuardVerdict::Completed.is_killed());
        assert!(GuardVerdict::Killed { reason: KillReason::Heap }.is_killed());
    }

    /// Reference model: the interpreter's per-instruction fuel loop.
    /// Returns how many instructions retire before exhaustion.
    fn per_insn_retired(limit: u64, program_len: u64) -> u64 {
        let mut fuel = limit;
        let mut retired = 0;
        while retired < program_len {
            if fuel == 0 {
                return retired;
            }
            fuel -= 1;
            retired += 1;
        }
        retired
    }

    #[test]
    fn block_charging_exhausts_on_the_same_instruction_as_per_insn() {
        // Partition programs into blocks of varying sizes and drive them
        // through the reserve-or-step protocol; the retired count at
        // exhaustion must equal the per-instruction model for every
        // (limit, block-size) combination.
        for limit in [0u64, 1, 2, 3, 7, 8, 9, 100] {
            for block in [1u64, 2, 3, 5, 8] {
                let program_len = 24u64;
                let mut meter = BlockFuel::new(Some(limit));
                let mut retired = 0;
                'run: while retired < program_len {
                    let blk = block.min(program_len - retired);
                    if meter.can_reserve(blk) {
                        meter.spend(blk);
                        retired += blk;
                    } else {
                        // Deopt: per-instruction stepping for this block.
                        for _ in 0..blk {
                            if !meter.charge_one() {
                                break 'run;
                            }
                            retired += 1;
                        }
                    }
                }
                assert_eq!(
                    retired,
                    per_insn_retired(limit, program_len),
                    "limit {limit} block {block}: kill instruction must not move"
                );
            }
        }
    }

    #[test]
    fn unlimited_meter_never_binds() {
        let mut m = BlockFuel::unlimited();
        assert!(m.can_reserve(u64::MAX));
        assert!(m.charge_one());
        m.spend(1 << 40);
        assert_eq!(m.remaining(), None);
    }

    #[test]
    fn charge_one_checks_before_decrementing() {
        // The interpreter returns OutOfFuel *before* executing when fuel is
        // zero; the last unit is consumed by the last executed instruction.
        let mut m = BlockFuel::new(Some(2));
        assert!(m.charge_one());
        assert!(m.charge_one());
        assert!(!m.charge_one(), "third instruction must not run");
        assert_eq!(m.remaining(), Some(0));
    }

    #[test]
    fn scrub_receipt_is_clean_only_at_zero_residue() {
        let ok = ScrubReceipt { node: 2, at_ns: 1_000, residue: 0 };
        assert!(ok.clean());
        let bad = ScrubReceipt { node: 2, at_ns: 1_000, residue: 3 };
        assert!(!bad.clean(), "any surviving object is a violation");
        // Receipts travel inside serialized checkpoints; round-trip them.
        let json = serde_json::to_string(&ok).unwrap();
        assert_eq!(serde_json::from_str::<ScrubReceipt>(&json).unwrap(), ok);
    }
}
