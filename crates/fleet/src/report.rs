//! Fleet-wide aggregation: throughput, latency percentiles, offload
//! totals, and per-node utilization, with a JSON export.
//!
//! Every field is simulated: a pure function of the fleet config,
//! identical for any worker count. [`FleetReport::simulated_value`] is
//! the report's one serialization; the determinism tests compare it
//! byte-for-byte across worker counts. Host wall time is measured by the
//! repository benchmark, never here. [`FleetReport::violations`] is the
//! one checker of the fleet's fail-closed invariants.

use std::fmt;

use serde_json::Value;
use tinman_guard::BUDGET_COLUMNS;
use tinman_sim::SimDuration;

use crate::pool::NodePool;
use crate::session::SessionOutcome;

/// Latency distribution over the successful sessions (simulated time,
/// backoff included).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyStats {
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Median (nearest-rank).
    pub p50: SimDuration,
    /// 95th percentile (nearest-rank).
    pub p95: SimDuration,
    /// 99th percentile (nearest-rank).
    pub p99: SimDuration,
}

impl LatencyStats {
    /// Folds an ascending-sorted latency slice into `{mean, p50, p95,
    /// p99}` using nearest-rank percentiles. An empty slice yields all
    /// zeros. Callers must pre-sort; this does not check.
    pub fn from_sorted(sorted: &[SimDuration]) -> LatencyStats {
        if sorted.is_empty() {
            return LatencyStats {
                mean: SimDuration::ZERO,
                p50: SimDuration::ZERO,
                p95: SimDuration::ZERO,
                p99: SimDuration::ZERO,
            };
        }
        let total: u64 = sorted.iter().map(|d| d.as_nanos()).sum();
        let nearest = |q: u64| {
            // Nearest-rank: the ceil(q/100 * n)-th smallest, 1-indexed.
            let n = sorted.len() as u64;
            let rank = (q * n).div_ceil(100).max(1);
            sorted[(rank - 1) as usize]
        };
        LatencyStats {
            mean: SimDuration::from_nanos(total / sorted.len() as u64),
            p50: nearest(50),
            p95: nearest(95),
            p99: nearest(99),
        }
    }
}

/// One trusted node's share of the run.
#[derive(Clone, Debug)]
pub struct NodeReport {
    /// Shard index.
    pub node: usize,
    /// Host name.
    pub name: String,
    /// The node's static health from the config's fault plan.
    pub health: &'static str,
    /// Sessions this node served to completion.
    pub sessions: u64,
    /// Total simulated busy time (sum of served-session latencies).
    pub busy: SimDuration,
    /// `busy / sim_makespan`: 1.0 for the busiest node.
    pub utilization: f64,
    /// Sessions (on the session-id axis) this node's circuit breaker
    /// spent Closed.
    pub breaker_closed: u64,
    /// Sessions the breaker spent Open (placements skipped).
    pub breaker_open: u64,
    /// Sessions the breaker spent HalfOpen (probing).
    pub breaker_half_open: u64,
}

/// The aggregated result of one fleet run.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Sessions driven.
    pub sessions: u64,
    /// Sessions that completed their workload successfully.
    pub ok: u64,
    /// Placements retried fleet-wide: Σ `attempts − 1` over all sessions,
    /// saturating at zero for sessions that never attempted (shed or
    /// denied).
    pub failovers: u64,
    /// Placements tried fleet-wide.
    pub attempts: u64,
    /// Sessions that failed at least one placement but still completed.
    pub success_after_retry: u64,
    /// Checkpoint/replay resumptions fleet-wide.
    pub replays: u64,
    /// Sessions that degraded to a placeholder-only fail-closed outcome.
    pub fail_closed: u64,
    /// Unique payload-replacement deliveries origin servers accepted.
    pub deliveries: u64,
    /// Re-sent deliveries origin-server dedup suppressed (exactly-once
    /// evidence: `deliveries` counts each payload once no matter how many
    /// replays re-sent it).
    pub duplicate_deliveries: u64,
    /// Cor bytes found on device hosts by post-run residue scans. The
    /// fail-closed invariant demands zero; reported so tests can check.
    pub residue_violations: u64,
    /// Vault recoveries the durability audits ran, fleet-wide.
    pub vault_recoveries: u64,
    /// Torn WAL tails those recoveries truncated away.
    pub torn_tail_repairs: u64,
    /// Lost-cor incidents (recovered store diverged from its
    /// committed-prefix reference). Acceptance bar: zero.
    pub lost_cors: u64,
    /// Sessions served from a stale vault replica. Always 0: the prepare
    /// stage catches a lagging replica up inside the deadline or fails
    /// the session closed as `stale_replica`, so no outcome can record a
    /// stale serve. The column stays in the report for its readers.
    pub stale_serves: u64,
    /// LSNs anti-entropy replayed to lagging replicas, fleet-wide.
    pub vault_catchup_lsns: u64,
    /// Session secrets found in vault durable bytes (node side; expected
    /// positive under chaos — the scan has to actually bite).
    pub wal_plaintexts: u64,
    /// Session secrets found in vault bytes *and* on a device surface.
    /// Acceptance bar: zero.
    pub wal_device_leaks: u64,
    /// Sessions the tenant declassification policy engine refused before
    /// any attempt ran (tenancy runs only; each failed closed with
    /// reason `policy_denied`).
    pub policy_denials: u64,
    /// Sealed vault blobs a foreign tenant's keyring authenticated.
    /// Acceptance bar: zero — tenant key hierarchies are disjoint.
    pub cross_tenant_residue: u64,
    /// Placements refused because the node failed the taint-engine
    /// attestation challenge (tenancy runs only).
    pub unattested_refusals: u64,
    /// Sessions that paid a mid-session tenant key rotation (re-sealed
    /// their vault bytes under the new epoch).
    pub tenant_key_rotations: u64,
    /// Mid-session mobility handoffs applied fleet-wide (topology runs
    /// only — zero on flat fleets).
    pub handoffs: u64,
    /// Untrusted-wire segments whose source the NAT gateways rewrote.
    pub nat_rewrites: u64,
    /// NAT bindings transparently re-punched after handoffs.
    pub nat_rebinds: u64,
    /// DNS lookups that failed closed inside outage windows.
    pub dns_faults: u64,
    /// Segments dropped by routing (router down / firewall deny) —
    /// every one a fail-closed refusal, never a leak.
    pub route_drops: u64,
    /// Live migrations fleet-wide: checkpointed hand-offs of in-flight
    /// guests from draining or dying nodes to peers.
    pub migrations: u64,
    /// The subset of `migrations` triggered by planned drains.
    pub evacuations: u64,
    /// Sessions ultimately served outside their home region.
    pub region_failovers: u64,
    /// Cor bytes found on source-node heaps after migration scrubs.
    /// Acceptance bar: zero.
    pub migration_residue: u64,
    /// Sessions that failed closed with reason `no_region`: after a
    /// migration, no attested, caught-up, policy-admissible target
    /// existed inside the deadline.
    pub no_region_kills: u64,
    /// Guests the guard killed for exhausting a budget. Each kill scrubbed
    /// its node heap and failed the session closed.
    pub guest_kills: u64,
    /// Sessions guard admission shed with reason `overloaded` before any
    /// attempt ran.
    pub shed_sessions: u64,
    /// Guest kills by exhausted budget: `[fuel, heap, depth, dsm,
    /// deadline]` (the two DSM flavors share the `dsm` column).
    pub budget_exhaustions: [u64; 5],
    /// Client→node execution migrations, total.
    pub offloads: u64,
    /// Method invocations on trusted nodes, total.
    pub node_methods: u64,
    /// Method invocations on clients, total.
    pub client_methods: u64,
    /// DSM synchronizations, total.
    pub dsm_syncs: u64,
    /// Client battery energy, microjoules, total.
    pub energy_uj: u64,
    /// Client radio bytes sent, total.
    pub tx_bytes: u64,
    /// Client radio bytes received, total.
    pub rx_bytes: u64,
    /// Latency distribution over successful sessions.
    pub latency: LatencyStats,
    /// Shard count the config asked for — may exceed what the label
    /// space supports (see [`NodePool::max_nodes`]).
    pub nodes_requested: u64,
    /// Shard count the pool actually built. When this is below
    /// `nodes_requested`, the pool clamped (loudly — the scheduler logs
    /// it and emits a `pool_clamp` trace event).
    pub nodes_effective: u64,
    /// Per-shard breakdown, in shard order.
    pub per_node: Vec<NodeReport>,
    /// Simulated makespan: the busiest node's busy time.
    pub sim_makespan: SimDuration,
    /// `ok / sim_makespan` in sessions per simulated second.
    pub sim_throughput: f64,
    /// Every session's outcome, sorted by session id.
    pub outcomes: Vec<SessionOutcome>,
}

/// One broken fail-closed invariant, as [`FleetReport::violations`]
/// finds it in a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Cor bytes on a device host (`residue_violations`).
    DeviceResidue(u64),
    /// Cor bytes on a source node heap after a migration scrub
    /// (`migration_residue`).
    MigrationResidue(u64),
    /// Committed cor records a vault recovery lost (`lost_cors`).
    LostCors(u64),
    /// Session secrets in vault bytes and on a device surface
    /// (`wal_device_leaks`).
    WalDeviceLeaks(u64),
    /// Sealed vault blobs a foreign tenant's keys authenticated
    /// (`cross_tenant_residue`).
    CrossTenantResidue(u64),
    /// `ok + fail_closed != sessions`.
    Unaccounted {
        /// Sessions served.
        ok: u64,
        /// Sessions failed closed.
        fail_closed: u64,
        /// Sessions driven.
        sessions: u64,
    },
    /// A session both served and failed closed (`success == true`), or
    /// neither (`success == false`).
    Outcome {
        /// The session.
        session: u64,
        /// Whether it was served.
        success: bool,
    },
    /// `budget_exhaustions` does not sum to `guest_kills`.
    UnattributedKills {
        /// Kills across the budget columns.
        attributed: u64,
        /// Guests the guard killed.
        guest_kills: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Violation::DeviceResidue(n) => write!(f, "residue_violations = {n}, must be 0"),
            Violation::MigrationResidue(n) => write!(f, "migration_residue = {n}, must be 0"),
            Violation::LostCors(n) => write!(f, "lost_cors = {n}, must be 0"),
            Violation::WalDeviceLeaks(n) => write!(f, "wal_device_leaks = {n}, must be 0"),
            Violation::CrossTenantResidue(n) => write!(f, "cross_tenant_residue = {n}, must be 0"),
            Violation::Unaccounted { ok, fail_closed, sessions } => {
                write!(f, "ok {ok} + fail_closed {fail_closed} != sessions {sessions}")
            }
            Violation::Outcome { session, success: true } => {
                write!(f, "session {session} was served and failed closed")
            }
            Violation::Outcome { session, success: false } => {
                write!(f, "session {session} was neither served nor failed closed")
            }
            Violation::UnattributedKills { attributed, guest_kills } => {
                write!(f, "budget_exhaustions sum to {attributed}, guest_kills is {guest_kills}")
            }
        }
    }
}

impl FleetReport {
    /// Every fail-closed invariant this report breaks; empty for a sound
    /// run. The leak columns must be zero, every session must be exactly
    /// one of served or failed closed, and every guest kill must land in
    /// exactly one budget column.
    pub fn violations(&self) -> Vec<Violation> {
        let leaks = [
            (self.residue_violations, Violation::DeviceResidue as fn(u64) -> Violation),
            (self.migration_residue, Violation::MigrationResidue),
            (self.lost_cors, Violation::LostCors),
            (self.wal_device_leaks, Violation::WalDeviceLeaks),
            (self.cross_tenant_residue, Violation::CrossTenantResidue),
        ];
        let mut found: Vec<Violation> =
            leaks.into_iter().filter(|&(n, _)| n > 0).map(|(n, leak)| leak(n)).collect();
        if self.ok + self.fail_closed != self.sessions {
            found.push(Violation::Unaccounted {
                ok: self.ok,
                fail_closed: self.fail_closed,
                sessions: self.sessions,
            });
        }
        found.extend(
            self.outcomes
                .iter()
                .filter(|o| o.success == o.fail_closed)
                .map(|o| Violation::Outcome { session: o.id, success: o.success }),
        );
        let attributed = self.budget_exhaustions.iter().sum();
        if attributed != self.guest_kills {
            found.push(Violation::UnattributedKills { attributed, guest_kills: self.guest_kills });
        }
        found
    }

    /// Folds sorted outcomes into the aggregate. `outcomes` must already
    /// be sorted by session id (the scheduler guarantees it).
    pub fn aggregate(pool: &NodePool, outcomes: Vec<SessionOutcome>) -> FleetReport {
        let ok = outcomes.iter().filter(|o| o.success).count() as u64;
        let attempts: u64 = outcomes.iter().map(|o| u64::from(o.attempts)).sum();
        // Shed sessions never attempted at all (attempts == 0), so the
        // per-session failover count saturates rather than underflows.
        let failovers: u64 = outcomes.iter().map(|o| u64::from(o.attempts).saturating_sub(1)).sum();

        let mut node_sessions = vec![0u64; pool.len()];
        let mut node_busy = vec![SimDuration::ZERO; pool.len()];
        for o in outcomes.iter().filter(|o| o.success) {
            if let Some(n) = o.node {
                node_sessions[n] += 1;
                node_busy[n] += o.latency;
            }
        }
        let sim_makespan = node_busy.iter().copied().max().unwrap_or(SimDuration::ZERO);
        let per_node = (0..pool.len())
            .map(|n| {
                let shard = pool.shard(n);
                NodeReport {
                    node: n,
                    name: shard.name.clone(),
                    health: shard.health().as_str(),
                    sessions: node_sessions[n],
                    busy: node_busy[n],
                    utilization: if sim_makespan == SimDuration::ZERO {
                        0.0
                    } else {
                        node_busy[n].as_nanos() as f64 / sim_makespan.as_nanos() as f64
                    },
                    breaker_closed: 0,
                    breaker_open: 0,
                    breaker_half_open: 0,
                }
            })
            .collect();

        let mut ok_latencies: Vec<SimDuration> =
            outcomes.iter().filter(|o| o.success).map(|o| o.latency).collect();
        ok_latencies.sort_unstable();

        let sum = |f: fn(&SessionOutcome) -> u64| -> u64 { outcomes.iter().map(f).sum() };
        FleetReport {
            sessions: outcomes.len() as u64,
            ok,
            failovers,
            attempts,
            success_after_retry: outcomes.iter().filter(|o| o.success && o.attempts > 1).count()
                as u64,
            replays: sum(|o| u64::from(o.replays)),
            fail_closed: outcomes.iter().filter(|o| o.fail_closed).count() as u64,
            deliveries: sum(|o| o.deliveries),
            duplicate_deliveries: sum(|o| o.duplicate_deliveries),
            residue_violations: sum(|o| o.residue_violations),
            vault_recoveries: sum(|o| o.vault_recoveries),
            torn_tail_repairs: sum(|o| o.torn_tail_repairs),
            lost_cors: sum(|o| o.lost_cors),
            stale_serves: 0,
            vault_catchup_lsns: sum(|o| o.vault_catchup_lsns),
            wal_plaintexts: sum(|o| o.wal_plaintexts),
            wal_device_leaks: sum(|o| o.wal_device_leaks),
            policy_denials: sum(|o| o.policy_denials),
            cross_tenant_residue: sum(|o| o.cross_tenant_residue),
            unattested_refusals: sum(|o| o.unattested_refusals),
            tenant_key_rotations: sum(|o| o.tenant_key_rotations),
            handoffs: sum(|o| o.handoffs),
            nat_rewrites: sum(|o| o.nat_rewrites),
            nat_rebinds: sum(|o| o.nat_rebinds),
            dns_faults: sum(|o| o.dns_faults),
            route_drops: sum(|o| o.route_drops),
            migrations: sum(|o| o.migrations),
            evacuations: sum(|o| o.evacuations),
            region_failovers: sum(|o| o.region_failovers),
            migration_residue: sum(|o| o.migration_residue),
            no_region_kills: outcomes.iter().filter(|o| o.no_region).count() as u64,
            guest_kills: outcomes.iter().filter(|o| o.guest_kill.is_some()).count() as u64,
            shed_sessions: outcomes.iter().filter(|o| o.shed).count() as u64,
            budget_exhaustions: {
                let mut columns = [0; 5];
                for reason in outcomes.iter().filter_map(|o| o.guest_kill) {
                    columns[reason.budget().0] += 1;
                }
                columns
            },
            offloads: sum(|o| o.offloads),
            node_methods: sum(|o| o.node_methods),
            client_methods: sum(|o| o.client_methods),
            dsm_syncs: sum(|o| o.dsm_syncs),
            energy_uj: sum(|o| o.energy_uj),
            tx_bytes: sum(|o| o.tx_bytes),
            rx_bytes: sum(|o| o.rx_bytes),
            latency: LatencyStats::from_sorted(&ok_latencies),
            nodes_requested: pool.requested_nodes() as u64,
            nodes_effective: pool.len() as u64,
            per_node,
            sim_makespan,
            sim_throughput: if sim_makespan == SimDuration::ZERO {
                0.0
            } else {
                ok as f64 / sim_makespan.as_secs_f64()
            },
            outcomes,
        }
    }

    /// The report as JSON: every aggregate field, without the
    /// per-session `outcomes`. Two runs of the same config — at any
    /// worker count — serialize this to identical bytes.
    pub fn simulated_value(&self) -> Value {
        let mut map: Vec<(String, Value)> = Vec::new();
        let mut put = |k: &str, v: Value| map.push((k.to_owned(), v));
        put("sessions", Value::U64(self.sessions));
        put("ok", Value::U64(self.ok));
        put("failovers", Value::U64(self.failovers));
        put("attempts", Value::U64(self.attempts));
        put("success_after_retry", Value::U64(self.success_after_retry));
        put("replays", Value::U64(self.replays));
        put("fail_closed", Value::U64(self.fail_closed));
        put("deliveries", Value::U64(self.deliveries));
        put("duplicate_deliveries", Value::U64(self.duplicate_deliveries));
        put("residue_violations", Value::U64(self.residue_violations));
        put("vault_recoveries", Value::U64(self.vault_recoveries));
        put("torn_tail_repairs", Value::U64(self.torn_tail_repairs));
        put("lost_cors", Value::U64(self.lost_cors));
        put("stale_serves", Value::U64(self.stale_serves));
        put("vault_catchup_lsns", Value::U64(self.vault_catchup_lsns));
        put("wal_plaintexts", Value::U64(self.wal_plaintexts));
        put("wal_device_leaks", Value::U64(self.wal_device_leaks));
        put("policy_denials", Value::U64(self.policy_denials));
        put("cross_tenant_residue", Value::U64(self.cross_tenant_residue));
        put("unattested_refusals", Value::U64(self.unattested_refusals));
        put("tenant_key_rotations", Value::U64(self.tenant_key_rotations));
        put("handoffs", Value::U64(self.handoffs));
        put("nat_rewrites", Value::U64(self.nat_rewrites));
        put("nat_rebinds", Value::U64(self.nat_rebinds));
        put("dns_faults", Value::U64(self.dns_faults));
        put("route_drops", Value::U64(self.route_drops));
        put("guest_kills", Value::U64(self.guest_kills));
        put("shed_sessions", Value::U64(self.shed_sessions));
        put(
            "budget_exhaustions",
            Value::Map(
                BUDGET_COLUMNS
                    .iter()
                    .zip(self.budget_exhaustions)
                    .map(|(k, v)| ((*k).to_owned(), Value::U64(v)))
                    .collect(),
            ),
        );
        put("migrations", Value::U64(self.migrations));
        put("evacuations", Value::U64(self.evacuations));
        put("region_failovers", Value::U64(self.region_failovers));
        put("migration_residue", Value::U64(self.migration_residue));
        put("no_region_kills", Value::U64(self.no_region_kills));
        put("offloads", Value::U64(self.offloads));
        put("node_methods", Value::U64(self.node_methods));
        put("client_methods", Value::U64(self.client_methods));
        put("dsm_syncs", Value::U64(self.dsm_syncs));
        put("energy_uj", Value::U64(self.energy_uj));
        put("tx_bytes", Value::U64(self.tx_bytes));
        put("rx_bytes", Value::U64(self.rx_bytes));
        put(
            "latency_ns",
            Value::Map(vec![
                ("mean".to_owned(), Value::U64(self.latency.mean.as_nanos())),
                ("p50".to_owned(), Value::U64(self.latency.p50.as_nanos())),
                ("p95".to_owned(), Value::U64(self.latency.p95.as_nanos())),
                ("p99".to_owned(), Value::U64(self.latency.p99.as_nanos())),
            ]),
        );
        put("nodes_requested", Value::U64(self.nodes_requested));
        put("nodes_effective", Value::U64(self.nodes_effective));
        put(
            "per_node",
            Value::Seq(
                self.per_node
                    .iter()
                    .map(|n| {
                        Value::Map(vec![
                            ("node".to_owned(), Value::U64(n.node as u64)),
                            ("name".to_owned(), Value::Str(n.name.clone())),
                            ("health".to_owned(), Value::Str(n.health.to_owned())),
                            ("sessions".to_owned(), Value::U64(n.sessions)),
                            ("busy_ns".to_owned(), Value::U64(n.busy.as_nanos())),
                            ("utilization".to_owned(), Value::F64(n.utilization)),
                            ("breaker_closed".to_owned(), Value::U64(n.breaker_closed)),
                            ("breaker_open".to_owned(), Value::U64(n.breaker_open)),
                            ("breaker_half_open".to_owned(), Value::U64(n.breaker_half_open)),
                        ])
                    })
                    .collect(),
            ),
        );
        put("sim_makespan_ns", Value::U64(self.sim_makespan.as_nanos()));
        put("sim_throughput", Value::F64(self.sim_throughput));
        Value::Map(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FaultPlan;
    use tinman_guard::KillReason;

    fn outcome(id: u64, node: usize, latency_ms: u64) -> SessionOutcome {
        SessionOutcome {
            id,
            node: Some(node),
            attempts: 1,
            success: true,
            latency: SimDuration::from_millis(latency_ms),
            offloads: 2,
            node_methods: 10,
            client_methods: 5,
            dsm_syncs: 3,
            energy_uj: 1000,
            tx_bytes: 200,
            rx_bytes: 400,
            deliveries: 1,
            ..SessionOutcome::default()
        }
    }

    #[test]
    fn violations_names_every_broken_invariant() {
        let pool = NodePool::new(2, 4, &FaultPlan::default()).unwrap();
        let clean = vec![
            outcome(0, 0, 100),
            SessionOutcome {
                id: 1,
                fail_closed: true,
                guest_kill: Some(KillReason::DsmBytes),
                ..SessionOutcome::default()
            },
        ];
        assert!(FleetReport::aggregate(&pool, clean).violations().is_empty());

        let leaky = SessionOutcome {
            residue_violations: 1,
            migration_residue: 2,
            lost_cors: 3,
            wal_device_leaks: 4,
            cross_tenant_residue: 5,
            ..outcome(0, 0, 100)
        };
        let both = SessionOutcome { fail_closed: true, ..outcome(1, 1, 100) };
        let neither = |id| SessionOutcome { id, ..SessionOutcome::default() };
        let mut r = FleetReport::aggregate(&pool, vec![leaky, both, neither(2), neither(3)]);
        // Aggregation attributes every kill by construction; break it by
        // hand to exercise the check.
        r.guest_kills = 1;
        assert_eq!(
            r.violations(),
            [
                Violation::DeviceResidue(1),
                Violation::MigrationResidue(2),
                Violation::LostCors(3),
                Violation::WalDeviceLeaks(4),
                Violation::CrossTenantResidue(5),
                Violation::Unaccounted { ok: 2, fail_closed: 1, sessions: 4 },
                Violation::Outcome { session: 1, success: true },
                Violation::Outcome { session: 2, success: false },
                Violation::Outcome { session: 3, success: false },
                Violation::UnattributedKills { attributed: 0, guest_kills: 1 },
            ]
        );
        assert_eq!(r.violations()[1].to_string(), "migration_residue = 2, must be 0");
        assert_eq!(r.violations()[5].to_string(), "ok 2 + fail_closed 1 != sessions 4");
    }

    #[test]
    fn aggregate_totals_and_percentiles() {
        let pool = NodePool::new(2, 4, &FaultPlan::default()).unwrap();
        let outcomes = vec![
            outcome(0, 0, 100),
            outcome(1, 1, 200),
            outcome(2, 0, 300),
            SessionOutcome {
                id: 3,
                attempts: 3,
                latency: SimDuration::from_millis(250),
                ..SessionOutcome::default()
            },
        ];
        let r = FleetReport::aggregate(&pool, outcomes);
        assert_eq!(r.sessions, 4);
        assert_eq!(r.ok, 3);
        assert_eq!(r.failovers, 2, "the failed session burned two failovers");
        assert_eq!(r.offloads, 6);
        assert_eq!(r.latency.mean, SimDuration::from_millis(200));
        assert_eq!(r.latency.p50, SimDuration::from_millis(200));
        assert_eq!(r.latency.p99, SimDuration::from_millis(300));
        // Node 0 served 100+300ms, node 1 served 200ms.
        assert_eq!(r.sim_makespan, SimDuration::from_millis(400));
        assert!((r.per_node[0].utilization - 1.0).abs() < 1e-9);
        assert!((r.per_node[1].utilization - 0.5).abs() < 1e-9);
    }
}
