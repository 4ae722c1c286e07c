//! The trusted-node pool: label-space sharding, consistent-hash
//! placement, per-node admission control, and static health.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use tinman_sim::SplitMix64;
use tinman_taint::Label;

use crate::failure::{FaultPlan, FaultPlanError, NodeHealth};

/// Virtual points per node on the consistent-hash ring. Enough to spread
/// load within a few percent at fleet scale.
const VNODES: usize = 16;

/// One trusted-node shard: a disjoint slice of the cor label space plus
/// the state the scheduler needs (health, in-flight count).
pub struct NodeShard {
    /// Shard index, `0..nodes`.
    pub id: usize,
    /// Host name sessions connect to.
    pub name: String,
    /// Inclusive lower bound of this shard's label range.
    pub label_start: u8,
    /// Exclusive upper bound of this shard's label range.
    pub label_end: u8,
    health: NodeHealth,
    inflight: Mutex<usize>,
    admit: Condvar,
    capacity: usize,
}

/// Locks `m`, recovering the guard if a panicking thread poisoned it:
/// every update under the lock is a single step, so a poisoned value is
/// still valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// RAII admission permit: holding one counts against the node's capacity.
pub struct CapacityPermit<'a> {
    shard: &'a NodeShard,
}

impl Drop for CapacityPermit<'_> {
    fn drop(&mut self) {
        let mut inflight = lock(&self.shard.inflight);
        *inflight -= 1;
        drop(inflight);
        self.shard.admit.notify_one();
    }
}

impl NodeShard {
    /// The health the fault plan gave this node. Rejoin after an outage
    /// is a membership state ([`crate::MembershipState::CatchingUp`]),
    /// not a health flip.
    pub fn health(&self) -> NodeHealth {
        self.health
    }

    /// Sessions currently admitted.
    pub fn inflight(&self) -> usize {
        *lock(&self.inflight)
    }

    /// Blocks until the node has capacity, then admits the caller.
    /// Admission is wall-clock flow control only; it never changes
    /// simulated results.
    pub fn acquire(&self) -> CapacityPermit<'_> {
        let mut inflight = self
            .admit
            .wait_while(lock(&self.inflight), |n| *n >= self.capacity)
            .unwrap_or_else(PoisonError::into_inner);
        *inflight += 1;
        CapacityPermit { shard: self }
    }
}

/// Error from [`NodePool::try_shard`]: the shard index does not exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoSuchNode {
    /// The out-of-range index the caller passed.
    pub node: usize,
    /// How many shards the pool actually has.
    pub pool_len: usize,
}

impl std::fmt::Display for NoSuchNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no node {} in a pool of {} shards", self.node, self.pool_len)
    }
}

impl std::error::Error for NoSuchNode {}

/// The pool of trusted-node shards a fleet runs against.
pub struct NodePool {
    shards: Vec<NodeShard>,
    /// Consistent-hash ring: `(point, shard)` sorted by point.
    ring: Vec<(u64, usize)>,
    /// The node count the caller asked for, before clamping.
    requested: usize,
}

impl NodePool {
    /// The largest shard count a pool will build: every shard must keep at
    /// least four labels of the cor label space (a session registers one
    /// user cor plus a few derived ones), so with [`Label::MAX_LABELS`]
    /// labels this is `MAX_LABELS / 4`.
    pub fn max_nodes() -> usize {
        (Label::MAX_LABELS as usize) / 4
    }

    /// Builds `nodes` shards partitioning the label space evenly, each
    /// with the given concurrent-session capacity, health-initialized from
    /// the fault plan.
    ///
    /// The shard count is clamped to `1..=`[`NodePool::max_nodes`]. A
    /// clamped request is **not** silent: [`NodePool::requested_nodes`]
    /// and [`NodePool::was_clamped`] expose it, the fleet report carries
    /// `nodes_requested`/`nodes_effective`, and the scheduler emits a
    /// `pool_clamp` trace event when tracing is on.
    ///
    /// Fails with [`FaultPlanError`] if the plan names nodes outside the
    /// *effective* (post-clamp) shard range — a fault plan that silently
    /// does nothing is worse than one that refuses to build.
    pub fn new(
        nodes: usize,
        capacity: usize,
        faults: &FaultPlan,
    ) -> Result<NodePool, FaultPlanError> {
        let n = nodes.clamp(1, NodePool::max_nodes());
        faults.validate(n)?;
        let span = Label::MAX_LABELS as usize;
        let shards: Vec<NodeShard> = (0..n)
            .map(|i| NodeShard {
                id: i,
                name: format!("node{i}.pool.tinman"),
                label_start: (i * span / n) as u8,
                label_end: ((i + 1) * span / n) as u8,
                health: faults.initial_health(i),
                inflight: Mutex::new(0),
                admit: Condvar::new(),
                capacity: capacity.max(1),
            })
            .collect();
        let mut ring = Vec::with_capacity(n * VNODES);
        for shard in &shards {
            let mut h = SplitMix64::new(0xf1ee_7000 ^ shard.id as u64);
            for _ in 0..VNODES {
                ring.push((h.next_u64(), shard.id));
            }
        }
        ring.sort_unstable();
        Ok(NodePool { shards, ring, requested: nodes })
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// The shard count the caller asked [`NodePool::new`] for, before
    /// clamping to `1..=`[`NodePool::max_nodes`].
    pub fn requested_nodes(&self) -> usize {
        self.requested
    }

    /// True if the pool is running fewer (or more — `nodes: 0` rounds up
    /// to one) shards than requested.
    pub fn was_clamped(&self) -> bool {
        self.requested != self.shards.len()
    }

    /// True if the pool has no shards (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard at `id`. Panics on an out-of-range index; only safe for
    /// callers iterating `0..len()`. Ring- or schedule-derived indices
    /// must go through [`NodePool::try_shard`].
    pub fn shard(&self, id: usize) -> &NodeShard {
        &self.shards[id]
    }

    /// The shard at `id`, or [`NoSuchNode`] when the index is out of
    /// range. Membership change makes "node vanished mid-call" a real
    /// runtime path — a stale placement order can outlive the shard it
    /// names — so the executors use this instead of panicking.
    pub fn try_shard(&self, id: usize) -> Result<&NodeShard, NoSuchNode> {
        self.shards.get(id).ok_or(NoSuchNode { node: id, pool_len: self.shards.len() })
    }

    /// The primary shard for a placement key: the first ring point at or
    /// after the key, wrapping.
    pub fn place(&self, key: u64) -> usize {
        let i = self.ring.partition_point(|&(p, _)| p < key);
        self.ring[i % self.ring.len()].1
    }

    /// Primary followed by replicas: the distinct shards in ring order
    /// starting at the key. Failover walks this list.
    pub fn replica_order(&self, key: u64) -> Vec<usize> {
        let start = self.ring.partition_point(|&(p, _)| p < key);
        let mut order = Vec::with_capacity(self.shards.len());
        for off in 0..self.ring.len() {
            let shard = self.ring[(start + off) % self.ring.len()].1;
            if !order.contains(&shard) {
                order.push(shard);
                if order.len() == self.shards.len() {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_ranges_partition_the_space() {
        let pool = NodePool::new(4, 2, &FaultPlan::default()).unwrap();
        let mut covered = vec![false; Label::MAX_LABELS as usize];
        for i in 0..pool.len() {
            let s = pool.shard(i);
            assert!(s.label_start < s.label_end);
            for l in s.label_start..s.label_end {
                assert!(!covered[l as usize], "label {l} owned twice");
                covered[l as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "every label owned");
    }

    #[test]
    fn placement_is_deterministic_and_spread() {
        let pool = NodePool::new(4, 2, &FaultPlan::default()).unwrap();
        let mut counts = vec![0usize; pool.len()];
        let mut h = SplitMix64::new(9);
        for _ in 0..4000 {
            let key = h.next_u64();
            let a = pool.place(key);
            assert_eq!(a, pool.place(key), "placement is a pure function");
            counts[a] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 400, "shard {i} got only {c}/4000 sessions");
        }
    }

    #[test]
    fn replica_order_starts_at_primary_and_covers_all() {
        let pool = NodePool::new(3, 2, &FaultPlan::default()).unwrap();
        let order = pool.replica_order(12345);
        assert_eq!(order[0], pool.place(12345));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn capacity_gates_admission() {
        let pool = NodePool::new(1, 2, &FaultPlan::default()).unwrap();
        let s = pool.shard(0);
        let a = s.acquire();
        let _b = s.acquire();
        assert_eq!(s.inflight(), 2);
        drop(a);
        assert_eq!(s.inflight(), 1);
        let _c = s.acquire();
        assert_eq!(s.inflight(), 2);
    }

    #[test]
    fn new_rejects_fault_plans_naming_missing_nodes() {
        let plan = FaultPlan { down_nodes: vec![7], slow_nodes: vec![] };
        let err = NodePool::new(2, 1, &plan).map(|_| ()).unwrap_err();
        assert_eq!(err.bad_down, vec![7]);
        assert_eq!(err.pool_len, 2);
        // Validation runs against the *clamped* size: node 1 exists in a
        // 2-shard pool but not after a 0-node request rounds up to one.
        let one = FaultPlan { down_nodes: vec![1], slow_nodes: vec![] };
        assert!(NodePool::new(0, 1, &one).is_err());
    }

    #[test]
    fn try_shard_rejects_bad_index_without_panicking() {
        let pool = NodePool::new(2, 1, &FaultPlan::default()).unwrap();
        assert!(pool.try_shard(1).is_ok());
        let err = pool.try_shard(9).err().expect("out of range");
        assert_eq!(err, NoSuchNode { node: 9, pool_len: 2 });
    }

    #[test]
    fn clamp_is_surfaced_not_silent() {
        let max = NodePool::max_nodes();
        let big = NodePool::new(max + 10, 1, &FaultPlan::default()).unwrap();
        assert_eq!(big.len(), max);
        assert_eq!(big.requested_nodes(), max + 10);
        assert!(big.was_clamped());

        let zero = NodePool::new(0, 1, &FaultPlan::default()).unwrap();
        assert_eq!(zero.len(), 1);
        assert!(zero.was_clamped());

        let exact = NodePool::new(4, 1, &FaultPlan::default()).unwrap();
        assert_eq!(exact.requested_nodes(), 4);
        assert!(!exact.was_clamped());
    }
}
