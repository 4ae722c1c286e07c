//! Failure model: static per-node health, the fault plan, and the
//! deterministic retry/backoff schedule.

use tinman_sim::{LinkProfile, RetryPolicy, SimDuration};

/// A trusted node's health as the fleet sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeHealth {
    /// Serving normally.
    Healthy,
    /// Serving, but behind a degraded link (sessions still succeed, just
    /// slower).
    Degraded,
    /// Not serving; sessions placed here fail over to a replica.
    Down,
}

impl NodeHealth {
    /// Stable lowercase name for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            NodeHealth::Healthy => "healthy",
            NodeHealth::Degraded => "degraded",
            NodeHealth::Down => "down",
        }
    }

    /// True if the scheduler may place a session here. Sessions placed
    /// on a `Down` node fail over to a replica.
    pub fn can_serve(self) -> bool {
        self != NodeHealth::Down
    }
}

/// Static fault injection applied when the pool is built. Faults that
/// change during a run come from the chaos plan (breaker and membership
/// schedules).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Nodes that refuse every session (tested by the failover path).
    pub down_nodes: Vec<usize>,
    /// Nodes reachable only over a degraded link.
    pub slow_nodes: Vec<usize>,
}

impl FaultPlan {
    /// The health a node starts with under this plan.
    pub fn initial_health(&self, node: usize) -> NodeHealth {
        if self.down_nodes.contains(&node) {
            NodeHealth::Down
        } else if self.slow_nodes.contains(&node) {
            NodeHealth::Degraded
        } else {
            NodeHealth::Healthy
        }
    }

    /// Checks every node index against the (effective, post-clamp) pool
    /// size. A plan naming nodes that don't exist used to be silently
    /// ignored — the operator thought they had injected a fault and the
    /// run quietly tested nothing.
    pub fn validate(&self, pool_len: usize) -> Result<(), FaultPlanError> {
        let bad = |ns: &[usize]| -> Vec<usize> {
            let mut v: Vec<usize> = ns.iter().copied().filter(|&n| n >= pool_len).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let bad_down = bad(&self.down_nodes);
        let bad_slow = bad(&self.slow_nodes);
        if bad_down.is_empty() && bad_slow.is_empty() {
            Ok(())
        } else {
            Err(FaultPlanError { bad_down, bad_slow, pool_len })
        }
    }
}

/// A [`FaultPlan`] referenced nodes outside the pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlanError {
    /// `down_nodes` entries with no matching shard, sorted and deduped.
    pub bad_down: Vec<usize>,
    /// `slow_nodes` entries with no matching shard, sorted and deduped.
    pub bad_slow: Vec<usize>,
    /// The effective pool size the plan was checked against.
    pub pool_len: usize,
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fault plan names nodes outside the pool of {} shards: down {:?}, slow {:?}",
            self.pool_len, self.bad_down, self.bad_slow
        )
    }
}

impl std::error::Error for FaultPlanError {}

/// Any error a fleet run can refuse to start with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetError {
    /// The static fault plan names nonexistent nodes.
    FaultPlan(FaultPlanError),
    /// The chaos plan is internally inconsistent or names nonexistent
    /// nodes.
    ChaosPlan(tinman_chaos::ChaosPlanError),
    /// A membership event targets a region outside the configured region
    /// count — the plan would silently test nothing, so refuse loudly.
    BadRegion {
        /// The region the plan named.
        region: u32,
        /// Regions the fleet actually has.
        regions: u32,
    },
    /// A pool operation named a shard that does not exist (membership
    /// makes "node vanished mid-call" reachable; it must surface as a
    /// typed refusal, not a panic).
    NoSuchNode(crate::pool::NoSuchNode),
    /// A shard's cor label range could not back a session store. This
    /// was an `expect` before membership; a decommissioned shard handing
    /// out its range now makes it a real runtime path.
    BadLabelRange {
        /// First label of the rejected range.
        start: u8,
        /// One-past-last label of the rejected range.
        end: u8,
        /// What the cor store objected to.
        reason: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::FaultPlan(e) => write!(f, "{e}"),
            FleetError::ChaosPlan(e) => write!(f, "{e}"),
            FleetError::BadRegion { region, regions } => {
                write!(f, "membership event names region {region} but the fleet has {regions}")
            }
            FleetError::NoSuchNode(e) => write!(f, "{e}"),
            FleetError::BadLabelRange { start, end, reason } => {
                write!(
                    f,
                    "shard label range [{start}, {end}) cannot back a session store: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for FleetError {}

impl From<FaultPlanError> for FleetError {
    fn from(e: FaultPlanError) -> Self {
        FleetError::FaultPlan(e)
    }
}

impl From<tinman_chaos::ChaosPlanError> for FleetError {
    fn from(e: tinman_chaos::ChaosPlanError) -> Self {
        FleetError::ChaosPlan(e)
    }
}

/// Hard ceiling on any single retry delay. Exponential backoff with only
/// a shift clamp still reaches `base * 65536` — for the default 250ms base
/// that is over four simulated hours charged to one session's latency.
/// Thirty seconds is already far past the point where a replica either
/// answered or the session failed.
pub const MAX_BACKOFF: SimDuration = SimDuration::from_secs(30);

/// The fleet failover curve as a shared [`RetryPolicy`]: exponential,
/// shift-clamped at 16, capped at [`MAX_BACKOFF`], no jitter. The
/// zero-jitter construction keeps every pre-existing report
/// byte-identical to the hand-rolled implementation this replaced.
pub fn failover_policy(base: SimDuration) -> RetryPolicy {
    RetryPolicy::exponential(base, 16, Some(MAX_BACKOFF))
}

/// Simulated wait before retry attempt `attempt` (0-based): exponential,
/// `base * 2^attempt`, capped at [`MAX_BACKOFF`]. Purely simulated time —
/// it is added to the session's reported latency, never slept.
/// Delegates to the shared [`RetryPolicy`]; the curve (and therefore
/// every report) is unchanged.
pub fn backoff_delay(base: SimDuration, attempt: u32) -> SimDuration {
    failover_policy(base).delay(attempt as u64)
}

/// The link a session sees when its node is degraded: 4x the round-trip
/// time and a quarter of the goodput of `base`.
pub fn degraded_link(base: &LinkProfile) -> LinkProfile {
    LinkProfile {
        name: "degraded",
        rtt: base.rtt * 4,
        bytes_per_sec: (base.bytes_per_sec / 4).max(1),
        tx_nj_per_byte: base.tx_nj_per_byte,
        rx_nj_per_byte: base.rx_nj_per_byte,
        active_radio_mw: base.active_radio_mw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential() {
        let base = SimDuration::from_millis(100);
        assert_eq!(backoff_delay(base, 0), SimDuration::from_millis(100));
        assert_eq!(backoff_delay(base, 1), SimDuration::from_millis(200));
        assert_eq!(backoff_delay(base, 3), SimDuration::from_millis(800));
    }

    #[test]
    fn backoff_is_capped() {
        let base = SimDuration::from_millis(250);
        // 250ms << 16 = ~4.5 hours without the ceiling.
        assert_eq!(backoff_delay(base, 16), MAX_BACKOFF);
        assert_eq!(backoff_delay(base, u32::MAX), MAX_BACKOFF);
        // A huge base saturates the multiply instead of wrapping, then caps.
        let huge = SimDuration::from_nanos(u64::MAX);
        assert_eq!(backoff_delay(huge, 8), MAX_BACKOFF);
        // The cap never *raises* a small delay.
        assert!(backoff_delay(base, 2) < MAX_BACKOFF);
    }

    #[test]
    fn serving_is_gated_on_health() {
        assert!(NodeHealth::Healthy.can_serve());
        assert!(NodeHealth::Degraded.can_serve());
        assert!(!NodeHealth::Down.can_serve());
    }

    #[test]
    fn fault_plan_maps_to_health() {
        let plan = FaultPlan { down_nodes: vec![1], slow_nodes: vec![2] };
        assert_eq!(plan.initial_health(0), NodeHealth::Healthy);
        assert_eq!(plan.initial_health(1), NodeHealth::Down);
        assert_eq!(plan.initial_health(2), NodeHealth::Degraded);
    }

    #[test]
    fn validate_rejects_out_of_range_nodes() {
        let plan = FaultPlan { down_nodes: vec![0, 5, 5, 9], slow_nodes: vec![1, 4] };
        let err = plan.validate(4).unwrap_err();
        assert_eq!(err.bad_down, vec![5, 9], "sorted and deduped");
        assert_eq!(err.bad_slow, vec![4]);
        assert_eq!(err.pool_len, 4);
        assert!(err.to_string().contains("outside the pool of 4 shards"));
        // In-range plans pass.
        let ok = FaultPlan { down_nodes: vec![0], slow_nodes: vec![3] };
        assert!(ok.validate(4).is_ok());
        assert!(FaultPlan::default().validate(1).is_ok());
    }

    #[test]
    fn degraded_link_is_slower() {
        let wifi = LinkProfile::wifi();
        let slow = degraded_link(&wifi);
        assert!(slow.rtt > wifi.rtt);
        assert!(slow.bytes_per_sec < wifi.bytes_per_sec);
    }
}
