//! Runtime error type.

use std::fmt;

use tinman_cor::PolicyDecision;
use tinman_dsm::DsmError;
use tinman_guard::KillReason;
use tinman_net::NetError;
use tinman_tls::TlsError;
use tinman_vm::machine::LockSite;
use tinman_vm::VmError;

/// An error raised by the TinMan runtime while driving an app.
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeError {
    /// The VM faulted.
    Vm(VmError),
    /// DSM synchronization failed.
    Dsm(DsmError),
    /// The simulated network failed.
    Net(NetError),
    /// The TLS stack failed (including the version-floor refusal).
    Tls(TlsError),
    /// The trusted node's policy denied a cor access mid-flow.
    PolicyDenied(PolicyDecision),
    /// The app image is in the malware database; the node refused to run
    /// it at all (§3.4).
    MalwareRejected {
        /// Hex of the rejected image hash.
        app_hash_hex: String,
    },
    /// The same instruction triggered offloading twice without progress —
    /// tainted data was handed to a native that can run on neither
    /// endpoint.
    OffloadPingPong {
        /// The function containing the instruction.
        func: String,
        /// The instruction index.
        pc: usize,
    },
    /// The run exceeded its instruction budget (runaway app).
    FuelExhausted,
    /// The guard killed the guest for exhausting a session budget; the
    /// node heap was scrubbed and the session failed closed.
    GuestKilled {
        /// Which budget was exhausted.
        reason: KillReason,
    },
    /// The serving node began draining (planned membership change or a
    /// dying region) mid-offload: the guest was checkpointed at a DSM
    /// sync point, the source heap was scrubbed, and the session must
    /// resume from the checkpoint on a peer node — or fail closed.
    NodeDraining {
        /// The node index that drained.
        node: usize,
        /// Simulated instant of the checkpoint, nanoseconds since
        /// session start.
        at_ns: u64,
    },
    /// A migration checkpoint failed to rehydrate on the target node.
    /// The serialized guest cannot be trusted; the migration is
    /// abandoned and the session fails closed.
    CheckpointCorrupt {
        /// What the deserializer objected to.
        reason: String,
    },
    /// An app asked for an input key the harness did not script.
    MissingInput(String),
    /// The device is offline (connectivity requirement, §5.4).
    Offline,
    /// A derived value mixed cors owned by two different trusted nodes —
    /// a single offload episode cannot span trust domains (§5.3).
    CrossNodeCor {
        /// One involved node index.
        node_a: usize,
        /// The other involved node index.
        node_b: usize,
    },
    /// A VM segment returned an event its endpoint can never raise: a
    /// migrate-back or taint-idle on the client, an offload trigger under
    /// the node's full engine, or a trigger with no suspended frame. The
    /// run fails closed instead of guessing how to continue.
    UnexpectedEvent {
        /// The endpoint whose segment returned the event.
        site: LockSite,
        /// What was unexpected about it.
        event: &'static str,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Vm(e) => write!(f, "vm: {e}"),
            RuntimeError::Dsm(e) => write!(f, "dsm: {e}"),
            RuntimeError::Net(e) => write!(f, "net: {e}"),
            RuntimeError::Tls(e) => write!(f, "tls: {e}"),
            RuntimeError::PolicyDenied(d) => write!(f, "trusted node denied cor access: {d:?}"),
            RuntimeError::MalwareRejected { app_hash_hex } => {
                write!(f, "trusted node refused known-malware image {app_hash_hex}")
            }
            RuntimeError::OffloadPingPong { func, pc } => write!(
                f,
                "offload ping-pong at {func}:{pc}: tainted data passed to a native \
                 runnable on neither endpoint"
            ),
            RuntimeError::FuelExhausted => write!(f, "instruction budget exhausted"),
            RuntimeError::GuestKilled { reason } => {
                write!(f, "guard killed guest: {reason} budget exhausted")
            }
            RuntimeError::CheckpointCorrupt { reason } => {
                write!(f, "migration checkpoint failed to rehydrate: {reason}")
            }
            RuntimeError::NodeDraining { node, at_ns } => write!(
                f,
                "node {node} drained mid-offload at {at_ns}ns; session checkpointed for migration"
            ),
            RuntimeError::MissingInput(k) => write!(f, "no scripted input for key '{k}'"),
            RuntimeError::Offline => {
                write!(f, "device is offline; cor access requires the trusted node")
            }
            RuntimeError::CrossNodeCor { node_a, node_b } => write!(
                f,
                "cor labels span trusted nodes {node_a} and {node_b}; a derived value \
                 cannot mix trust domains"
            ),
            RuntimeError::UnexpectedEvent { site, event } => {
                write!(f, "unexpected {event} from a {site:?} segment")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<VmError> for RuntimeError {
    fn from(e: VmError) -> Self {
        RuntimeError::Vm(e)
    }
}
impl From<DsmError> for RuntimeError {
    fn from(e: DsmError) -> Self {
        RuntimeError::Dsm(e)
    }
}
impl From<NetError> for RuntimeError {
    fn from(e: NetError) -> Self {
        RuntimeError::Net(e)
    }
}
impl From<TlsError> for RuntimeError {
    fn from(e: TlsError) -> Self {
        RuntimeError::Tls(e)
    }
}
