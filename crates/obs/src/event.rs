//! The typed event taxonomy.
//!
//! Every policy- or measurement-relevant thing that happens in a TinMan
//! run has a variant here: the paper's evaluation (§6) is built entirely
//! from these occurrences, and a flow-enforcement system needs an audit
//! trail of each one. Events carry structured payloads rather than
//! preformatted strings so exporters and tests can match on fields.

use serde_json::Value;

/// One policy- or measurement-relevant occurrence in a TinMan run.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// The client touched a tainted placeholder and must offload (§3.1).
    OffloadTrigger {
        /// The taint labels (cor classes) on the touched value.
        labels: Vec<u8>,
        /// The function whose frame triggered.
        func: String,
        /// Program counter at the trigger.
        pc: u64,
    },
    /// One DSM synchronization, either direction (§3.1, Table 3).
    DsmSync {
        /// Why the sync happened (`SyncCause` name).
        cause: &'static str,
        /// True for the initial full-heap sync, false for dirty syncs.
        init: bool,
        /// Serialized packet bytes on the wire.
        bytes: u64,
    },
    /// The trusted node rebuilt the client's TLS session from exported
    /// state — SSL session injection (§3.2, Figure 8 step 2).
    SslInjection {
        /// Destination domain of the cor-bearing send.
        domain: String,
        /// Serialized size of the exported session state.
        state_bytes: u64,
    },
    /// The node swapped a diverted segment's placeholder payload for the
    /// sealed cor — TCP payload replacement (§3.3, Figure 8 step 4).
    TcpPayloadReplace {
        /// Payload bytes replaced (old and new are equal length).
        bytes: u64,
    },
    /// Execution returned from the trusted node to the client.
    MigrateBack {
        /// Why (`SyncCause` name: taint idle or non-offloadable native).
        cause: &'static str,
    },
    /// The egress filter diverted a marked segment to the trusted node.
    NetRedirect {
        /// Wire bytes of the diverted segment.
        bytes: u64,
    },
    /// The trusted node re-injected a reframed segment as the client.
    NetInject {
        /// Wire bytes of the injected segment.
        bytes: u64,
    },
    /// The fleet scheduler placed a session on its primary shard.
    FleetPlacement {
        /// Session id.
        session: u64,
        /// Primary shard index.
        node: u64,
    },
    /// A session left a shard (down or erroring) for the next replica.
    FleetFailover {
        /// Session id.
        session: u64,
        /// The shard being abandoned.
        node: u64,
        /// 1-based attempt number that failed.
        attempt: u32,
    },
    /// Simulated retry backoff charged to a session.
    FleetBackoff {
        /// Session id.
        session: u64,
        /// 0-based retry attempt.
        attempt: u32,
        /// Simulated delay charged, nanoseconds.
        delay_ns: u64,
    },
    /// The node pool clamped a requested node count to keep shards at
    /// least four labels wide.
    PoolClamp {
        /// Nodes the config asked for.
        requested: u64,
        /// Nodes the pool actually built.
        effective: u64,
    },
    /// The chaos layer armed a fault for a session attempt.
    ChaosInject {
        /// Fault kind: `"crash"`, `"partition"`, `"sync_timeout"`,
        /// `"packet_loss"`, `"packet_corrupt"`, `"packet_delay"`,
        /// `"link_flap"`, `"vault_mid_commit"`, `"vault_torn_tail"`,
        /// `"vault_compaction"`, `"replica_lag"`, `"router_crash"`,
        /// `"nat_table_flush"`, `"dns_outage"`, or `"handoff_storm"`.
        kind: &'static str,
        /// Target node index.
        node: u64,
        /// Session id the fault applies to.
        session: u64,
    },
    /// A node's circuit breaker changed state on the session-id axis.
    BreakerTransition {
        /// Node index.
        node: u64,
        /// First session id observing the new state.
        session: u64,
        /// Previous state name (`closed`/`open`/`half_open`).
        from: &'static str,
        /// New state name.
        to: &'static str,
    },
    /// A crashed session resumed on a replica from its DSM checkpoint.
    SessionReplay {
        /// Session id.
        session: u64,
        /// Replica node index the replay runs on.
        node: u64,
        /// 1-based attempt number of the replay.
        attempt: u32,
        /// Checkpoint credit: session time already covered by completed
        /// syncs, nanoseconds.
        resume_ns: u64,
    },
    /// A session exhausted its retry or deadline budget and degraded to a
    /// placeholder-only failure (the fail-closed guarantee).
    FailClosed {
        /// Session id.
        session: u64,
        /// Why: `"attempts_exhausted"`, `"deadline"`, `"stale_replica"`
        /// (a lagging vault replica could not catch up within the
        /// deadline budget), `"policy_denied"` (the tenant
        /// declassification policy refused the session's flow),
        /// `"unattested"` (no attested node was available to hold
        /// tenant plaintext), `"revoked_key"` (a compromise-forced
        /// key rotation could not complete within the deadline and the
        /// session refused to serve under the suspect epoch), or
        /// `"no_region"` (after a live migration, no attested,
        /// caught-up, policy-admissible target node existed inside the
        /// deadline — the checkpointed guest was discarded and the
        /// source heap scrubbed).
        reason: &'static str,
    },
    /// A live migration: a draining or dying node checkpointed its
    /// in-flight guest at a DSM sync point and a peer node resumed it.
    Migration {
        /// Session id that migrated.
        session: u64,
        /// Source node index (the drained/dying node).
        from_node: u64,
        /// Target node index that resumed the checkpoint.
        to_node: u64,
        /// Serialized checkpoint size shipped through the replica
        /// channel, bytes.
        bytes: u64,
        /// Checkpoint credit at resume: session time already covered,
        /// nanoseconds.
        resume_ns: u64,
    },
    /// A node's membership state changed on the session-id axis
    /// (`serving`/`draining`/`evacuated`/`decommissioned`/`down`/
    /// `catching_up`).
    MembershipTransition {
        /// Node index.
        node: u64,
        /// First session id observing the new state.
        session: u64,
        /// Previous state name.
        from: &'static str,
        /// New state name.
        to: &'static str,
    },
    /// The origin-server dedup suppressed re-sent payload replacements
    /// from a replayed session.
    DeliveryDedup {
        /// Session id.
        session: u64,
        /// Re-deliveries suppressed on this attempt.
        duplicates: u64,
    },
    /// A session's durability audit recovered the node's cor vault after
    /// an injected (or clean-shutdown) crash.
    VaultRecovery {
        /// Session id whose audit ran the recovery.
        session: u64,
        /// Node index whose vault recovered.
        node: u64,
        /// Highest LSN the recovered store reached.
        applied_lsn: u64,
        /// True if a torn final write was truncated away.
        torn_repaired: bool,
        /// Duplicated appends skipped by the idempotent apply.
        duplicates: u64,
    },
    /// Cor-aware failover caught a lagging replica up before letting it
    /// serve (anti-entropy charged against the session's deadline).
    VaultCatchUp {
        /// Session id that paid for the catch-up.
        session: u64,
        /// Node index whose replica was behind.
        node: u64,
        /// LSNs replayed to close the gap.
        lsns: u64,
        /// Simulated catch-up cost charged, nanoseconds.
        cost_ns: u64,
    },
    /// The guard killed a guest that exhausted a session budget; its node
    /// heap was scrubbed and the session failed closed.
    GuestKilled {
        /// Session id.
        session: u64,
        /// Node index the guest was running on.
        node: u64,
        /// Which budget was exhausted (`KillReason` name).
        reason: &'static str,
    },
    /// Fleet admission shed a session before placement because the target
    /// node's in-flight budget reservations exceeded its capacity.
    SessionShed {
        /// Session id.
        session: u64,
        /// The overloaded node index.
        node: u64,
        /// Why: currently always `"overloaded"`.
        reason: &'static str,
    },
    /// The tenant declassification policy engine decided a session's
    /// flow (emitted for denials, and for allows when tracing them is
    /// cheap enough to matter).
    TenantPolicyDecision {
        /// Session id.
        session: u64,
        /// Raw tenant number the session belongs to.
        tenant: u64,
        /// True when the flow proceeds.
        allowed: bool,
        /// Stable verdict reason (`DeclassVerdict::reason` string).
        reason: &'static str,
    },
    /// The attestation gate refused to place tenant plaintext on a node
    /// that could not prove it runs the full four-class taint engine.
    AttestationRefused {
        /// Session id.
        session: u64,
        /// Raw tenant number whose plaintext was withheld.
        tenant: u64,
        /// The unattested node index.
        node: u64,
    },
    /// A tenant's key hierarchy rotated to a new epoch; the session
    /// paid the re-encryption cost before serving.
    TenantKeyRotation {
        /// Session id that paid for the rotation.
        session: u64,
        /// Raw tenant number whose keys rotated.
        tenant: u64,
        /// The new epoch sessions seal under from here on.
        epoch: u64,
        /// True when the rotation was forced by a suspected compromise.
        forced: bool,
    },
    /// A mobility handoff was applied mid-session: the radio switched
    /// link profiles, the air went dark for the blackout, and (when
    /// `rebind` is set) the host's NAT bindings were flushed with
    /// transparent re-allocation allowed.
    Handoff {
        /// The link profile after the switch (`"wifi"`, `"3g"`, ...).
        link: &'static str,
        /// Radio blackout duration in simulated nanoseconds.
        blackout_ns: u64,
        /// True when the handoff flushed-and-rebound NAT state.
        rebind: bool,
    },
    /// A segment's source address was rewritten through a NAT gateway's
    /// connection-tracking table on its way to the untrusted wire.
    NatRewrite {
        /// The public source port the segment now carries.
        port: u16,
    },
    /// A DNS resolution failed closed inside a resolver outage window.
    DnsFault {
        /// The domain that could not be resolved.
        domain: String,
    },
    /// A named span; appears with [`crate::TracePhase::Begin`] and
    /// [`crate::TracePhase::End`] records (Chrome `B`/`E` semantics:
    /// spans nest per track, stack-wise).
    Span {
        /// Span name, e.g. `"run_app"` or `"offload"`.
        name: String,
    },
}

impl TraceEvent {
    /// Stable snake_case name, used as the exported event name.
    pub fn name(&self) -> &str {
        match self {
            TraceEvent::OffloadTrigger { .. } => "offload_trigger",
            TraceEvent::DsmSync { .. } => "dsm_sync",
            TraceEvent::SslInjection { .. } => "ssl_injection",
            TraceEvent::TcpPayloadReplace { .. } => "tcp_payload_replace",
            TraceEvent::MigrateBack { .. } => "migrate_back",
            TraceEvent::NetRedirect { .. } => "net_redirect",
            TraceEvent::NetInject { .. } => "net_inject",
            TraceEvent::FleetPlacement { .. } => "fleet_placement",
            TraceEvent::FleetFailover { .. } => "fleet_failover",
            TraceEvent::FleetBackoff { .. } => "fleet_backoff",
            TraceEvent::PoolClamp { .. } => "pool_clamp",
            TraceEvent::ChaosInject { .. } => "chaos_inject",
            TraceEvent::BreakerTransition { .. } => "breaker_transition",
            TraceEvent::SessionReplay { .. } => "session_replay",
            TraceEvent::FailClosed { .. } => "fail_closed",
            TraceEvent::Migration { .. } => "migration",
            TraceEvent::MembershipTransition { .. } => "membership_transition",
            TraceEvent::DeliveryDedup { .. } => "delivery_dedup",
            TraceEvent::VaultRecovery { .. } => "vault_recovery",
            TraceEvent::VaultCatchUp { .. } => "vault_catch_up",
            TraceEvent::GuestKilled { .. } => "guest_killed",
            TraceEvent::SessionShed { .. } => "session_shed",
            TraceEvent::TenantPolicyDecision { .. } => "tenant_policy_decision",
            TraceEvent::AttestationRefused { .. } => "attestation_refused",
            TraceEvent::TenantKeyRotation { .. } => "tenant_key_rotation",
            TraceEvent::Handoff { .. } => "handoff",
            TraceEvent::NatRewrite { .. } => "nat_rewrite",
            TraceEvent::DnsFault { .. } => "dns_fault",
            TraceEvent::Span { name } => name,
        }
    }

    /// The structured payload as insertion-ordered JSON map entries
    /// (exporters put these under `args`).
    pub fn args(&self) -> Vec<(String, Value)> {
        let s = |v: &str| Value::Str(v.to_owned());
        match self {
            TraceEvent::OffloadTrigger { labels, func, pc } => vec![
                (
                    "labels".to_owned(),
                    Value::Seq(labels.iter().map(|&l| Value::U64(l as u64)).collect()),
                ),
                ("func".to_owned(), s(func)),
                ("pc".to_owned(), Value::U64(*pc)),
            ],
            TraceEvent::DsmSync { cause, init, bytes } => vec![
                ("cause".to_owned(), s(cause)),
                ("init".to_owned(), Value::Bool(*init)),
                ("bytes".to_owned(), Value::U64(*bytes)),
            ],
            TraceEvent::SslInjection { domain, state_bytes } => vec![
                ("domain".to_owned(), s(domain)),
                ("state_bytes".to_owned(), Value::U64(*state_bytes)),
            ],
            TraceEvent::TcpPayloadReplace { bytes } => {
                vec![("bytes".to_owned(), Value::U64(*bytes))]
            }
            TraceEvent::MigrateBack { cause } => vec![("cause".to_owned(), s(cause))],
            TraceEvent::NetRedirect { bytes } => vec![("bytes".to_owned(), Value::U64(*bytes))],
            TraceEvent::NetInject { bytes } => vec![("bytes".to_owned(), Value::U64(*bytes))],
            TraceEvent::FleetPlacement { session, node } => vec![
                ("session".to_owned(), Value::U64(*session)),
                ("node".to_owned(), Value::U64(*node)),
            ],
            TraceEvent::FleetFailover { session, node, attempt } => vec![
                ("session".to_owned(), Value::U64(*session)),
                ("node".to_owned(), Value::U64(*node)),
                ("attempt".to_owned(), Value::U64(*attempt as u64)),
            ],
            TraceEvent::FleetBackoff { session, attempt, delay_ns } => vec![
                ("session".to_owned(), Value::U64(*session)),
                ("attempt".to_owned(), Value::U64(*attempt as u64)),
                ("delay_ns".to_owned(), Value::U64(*delay_ns)),
            ],
            TraceEvent::PoolClamp { requested, effective } => vec![
                ("requested".to_owned(), Value::U64(*requested)),
                ("effective".to_owned(), Value::U64(*effective)),
            ],
            TraceEvent::ChaosInject { kind, node, session } => vec![
                ("kind".to_owned(), s(kind)),
                ("node".to_owned(), Value::U64(*node)),
                ("session".to_owned(), Value::U64(*session)),
            ],
            TraceEvent::BreakerTransition { node, session, from, to } => vec![
                ("node".to_owned(), Value::U64(*node)),
                ("session".to_owned(), Value::U64(*session)),
                ("from".to_owned(), s(from)),
                ("to".to_owned(), s(to)),
            ],
            TraceEvent::SessionReplay { session, node, attempt, resume_ns } => vec![
                ("session".to_owned(), Value::U64(*session)),
                ("node".to_owned(), Value::U64(*node)),
                ("attempt".to_owned(), Value::U64(*attempt as u64)),
                ("resume_ns".to_owned(), Value::U64(*resume_ns)),
            ],
            TraceEvent::FailClosed { session, reason } => {
                vec![("session".to_owned(), Value::U64(*session)), ("reason".to_owned(), s(reason))]
            }
            TraceEvent::Migration { session, from_node, to_node, bytes, resume_ns } => vec![
                ("session".to_owned(), Value::U64(*session)),
                ("from_node".to_owned(), Value::U64(*from_node)),
                ("to_node".to_owned(), Value::U64(*to_node)),
                ("bytes".to_owned(), Value::U64(*bytes)),
                ("resume_ns".to_owned(), Value::U64(*resume_ns)),
            ],
            TraceEvent::MembershipTransition { node, session, from, to } => vec![
                ("node".to_owned(), Value::U64(*node)),
                ("session".to_owned(), Value::U64(*session)),
                ("from".to_owned(), s(from)),
                ("to".to_owned(), s(to)),
            ],
            TraceEvent::DeliveryDedup { session, duplicates } => vec![
                ("session".to_owned(), Value::U64(*session)),
                ("duplicates".to_owned(), Value::U64(*duplicates)),
            ],
            TraceEvent::VaultRecovery { session, node, applied_lsn, torn_repaired, duplicates } => {
                vec![
                    ("session".to_owned(), Value::U64(*session)),
                    ("node".to_owned(), Value::U64(*node)),
                    ("applied_lsn".to_owned(), Value::U64(*applied_lsn)),
                    ("torn_repaired".to_owned(), Value::Bool(*torn_repaired)),
                    ("duplicates".to_owned(), Value::U64(*duplicates)),
                ]
            }
            TraceEvent::VaultCatchUp { session, node, lsns, cost_ns } => vec![
                ("session".to_owned(), Value::U64(*session)),
                ("node".to_owned(), Value::U64(*node)),
                ("lsns".to_owned(), Value::U64(*lsns)),
                ("cost_ns".to_owned(), Value::U64(*cost_ns)),
            ],
            TraceEvent::GuestKilled { session, node, reason } => vec![
                ("session".to_owned(), Value::U64(*session)),
                ("node".to_owned(), Value::U64(*node)),
                ("reason".to_owned(), s(reason)),
            ],
            TraceEvent::SessionShed { session, node, reason } => vec![
                ("session".to_owned(), Value::U64(*session)),
                ("node".to_owned(), Value::U64(*node)),
                ("reason".to_owned(), s(reason)),
            ],
            TraceEvent::TenantPolicyDecision { session, tenant, allowed, reason } => vec![
                ("session".to_owned(), Value::U64(*session)),
                ("tenant".to_owned(), Value::U64(*tenant)),
                ("allowed".to_owned(), Value::Bool(*allowed)),
                ("reason".to_owned(), s(reason)),
            ],
            TraceEvent::AttestationRefused { session, tenant, node } => vec![
                ("session".to_owned(), Value::U64(*session)),
                ("tenant".to_owned(), Value::U64(*tenant)),
                ("node".to_owned(), Value::U64(*node)),
            ],
            TraceEvent::TenantKeyRotation { session, tenant, epoch, forced } => vec![
                ("session".to_owned(), Value::U64(*session)),
                ("tenant".to_owned(), Value::U64(*tenant)),
                ("epoch".to_owned(), Value::U64(*epoch)),
                ("forced".to_owned(), Value::Bool(*forced)),
            ],
            TraceEvent::Handoff { link, blackout_ns, rebind } => vec![
                ("link".to_owned(), s(link)),
                ("blackout_ns".to_owned(), Value::U64(*blackout_ns)),
                ("rebind".to_owned(), Value::Bool(*rebind)),
            ],
            TraceEvent::NatRewrite { port } => {
                vec![("port".to_owned(), Value::U64(u64::from(*port)))]
            }
            TraceEvent::DnsFault { domain } => vec![("domain".to_owned(), s(domain))],
            TraceEvent::Span { .. } => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        let e = TraceEvent::DsmSync { cause: "offload_trigger", init: true, bytes: 9 };
        assert_eq!(e.name(), "dsm_sync");
        let sp = TraceEvent::Span { name: "offload".to_owned() };
        assert_eq!(sp.name(), "offload");
        let m =
            TraceEvent::Migration { session: 1, from_node: 0, to_node: 2, bytes: 64, resume_ns: 7 };
        assert_eq!(m.name(), "migration");
        let t = TraceEvent::MembershipTransition {
            node: 0,
            session: 4,
            from: "serving",
            to: "draining",
        };
        assert_eq!(t.name(), "membership_transition");
    }

    #[test]
    fn args_carry_typed_fields() {
        let e = TraceEvent::FleetBackoff { session: 3, attempt: 1, delay_ns: 500 };
        let args = e.args();
        assert_eq!(args[0], ("session".to_owned(), Value::U64(3)));
        assert_eq!(args[2], ("delay_ns".to_owned(), Value::U64(500)));
        let m =
            TraceEvent::Migration { session: 1, from_node: 0, to_node: 2, bytes: 64, resume_ns: 7 };
        let margs = m.args();
        assert_eq!(margs[1], ("from_node".to_owned(), Value::U64(0)));
        assert_eq!(margs[2], ("to_node".to_owned(), Value::U64(2)));
        assert_eq!(margs[4], ("resume_ns".to_owned(), Value::U64(7)));
    }
}
