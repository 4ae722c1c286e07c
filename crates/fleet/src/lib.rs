//! **tinman-fleet** — a concurrent session-serving subsystem that drives
//! many deterministic TinMan device sessions against a pool of trusted
//! nodes.
//!
//! The paper evaluates TinMan one device at a time; this crate answers
//! the deployment question: what does a *node* see when it serves
//! thousands of devices? It is built from these parts:
//!
//! - [`pool`] — trusted-node shards partitioning the cor label space,
//!   with consistent-hash placement (a user's cors always land on the
//!   same node), per-node admission control, and static health.
//! - [`spec`] — deterministic generation of session specs (workload,
//!   link, seed) from a single fleet seed.
//! - [`chaos_run`] — the fleet executor: [`run_fleet_chaos`] runs every
//!   session under a `tinman-chaos` fault plan (the empty plan for a
//!   clean fleet, which is all [`run_fleet`] is) through five stages:
//!   admit (shedding, tenant policy), gate (health, breaker, membership,
//!   attestation), prepare (world, guard, catch-up, drain, key rotation,
//!   faults), run + audit (residue scan, dedup, vault audit), and settle
//!   (serve, kill, migrate, or fail over with a checkpoint credit). Each
//!   stage can fail the session closed with a typed reason.
//! - [`sched`] — the worker-thread pool the executor fans sessions out
//!   to, and the [`FleetObs`] trace/metrics wiring.
//! - [`report`] — the aggregated [`FleetReport`]: throughput, latency
//!   percentiles, offload totals, per-node utilization, JSON export.
//! - [`vault_audit`] — the per-session durability audit: replays each
//!   session's cor writes through a `tinman-vault` WAL, injects the
//!   plan's crash, recovers, and byte-compares against the
//!   committed-prefix reference (lost cors must be zero).
//! - [`tenancy`] — multi-tenant scheduling: per-tenant declassification
//!   policy verdicts, the taint-engine attestation gate, and
//!   `tinman-tenant` key-hierarchy plumbing (sealed WAL audits, key
//!   epochs from the chaos plan), all precomputed as pure replays so
//!   tenancy keeps the determinism contract.
//! - [`region`] + [`membership`] — trusted-node regions behind a
//!   deterministic load-balancer front, the per-node membership state
//!   machine (drains, outages, rolling upgrades, flapping rejoins), and
//!   the live-migration machinery: a draining or dying node checkpoints
//!   its in-flight guest at a DSM sync point, scrubs its heap, and the
//!   executor resumes the session on an attested peer — or fails it
//!   closed (`no_region`).
//! - [`retry`] — the one deterministic retry/backoff/budget policy
//!   shared by failover, DSM re-sync, vault catch-up, and migration
//!   shipping.
//!
//! # Determinism contract
//!
//! Every session's **simulated** result is a pure function of the fleet
//! seed, the session id, and the static topology (node count, fault
//! plan). Worker count, admission stalls, and OS scheduling affect only
//! how long a run takes on the host, and the report holds no host time.
//! Concretely: [`FleetReport::simulated_value`] serializes to identical
//! bytes for `workers = 1` and `workers = 8` — the tests enforce it.

pub mod chaos_run;
pub mod failure;
pub mod hostile;
pub mod membership;
pub mod pool;
pub mod region;
pub mod report;
pub mod retry;
pub mod sched;
pub mod session;
pub mod spec;
pub mod tenancy;
pub mod vault_audit;

pub use chaos_run::{
    apply_session_faults, execute_with_chaos, run_fleet, run_fleet_chaos, FleetSchedule,
};
pub use failure::{
    backoff_delay, degraded_link, failover_policy, FaultPlan, FaultPlanError, FleetError,
    NodeHealth, MAX_BACKOFF,
};
pub use hostile::{
    build_hostile_app, build_hostile_world, expected_kill, fleet_policy, hostile_workload_name,
    GuardSchedule, HOSTILE_COR_DESCRIPTION,
};
pub use membership::{MembershipSchedule, MembershipState, CATCHUP_SESSIONS};
pub use pool::{CapacityPermit, NoSuchNode, NodePool, NodeShard};
pub use region::RegionMap;
pub use report::{FleetReport, LatencyStats, NodeReport, Violation};
pub use retry::{migration_policy, BackoffShape, RetryBudget, RetryPolicy};
pub use sched::FleetObs;
pub use session::{
    build_session_world, build_session_world_net, SessionNet, SessionOutcome, SessionWorld,
};
pub use spec::{build_session_specs, FleetConfig, LinkKind, SessionSpec, WorkloadKind};
pub use tenancy::{workload_domain, TenantSchedule, TenantSealContext};
pub use vault_audit::{audit_session_vault, audit_session_vault_sealed, VaultAudit};
