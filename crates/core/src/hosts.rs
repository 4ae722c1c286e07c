//! Native hosts: what `ui.*`, `net.*`, `crypto.*` do on each endpoint.
//!
//! The client host executes device I/O for real and *refuses* to touch
//! tainted data (returning [`NativeOutcome::TriggerOffload`]); the node host
//! executes computation, refuses ordinary I/O (returning
//! [`NativeOutcome::MigrateBack`]), and implements the one special case the
//! whole paper revolves around: a **cor-bearing `net.send`**, performed by
//! SSL session injection plus TCP payload replacement (§3.2–§3.3).

use std::collections::HashMap;

use serde::Serialize;
use sha2::{Digest, Sha256};
use tinman_cor::{
    AccessRequest, AuditEntry, AuditLog, CorId, CorStore, PlaceholderDirectory, PolicyEngine,
};
use tinman_net::{HostId, NetWorld};
use tinman_sim::{Breakdown, SimClock, SimDuration, SplitMix64};
use tinman_tls::{ContentType, Handshake, Record, TlsError, TlsSession};
use tinman_vm::{NativeCtx, NativeHost, NativeOutcome, Value, VmError};

use crate::device::{ConnHandle, ConnState};
use crate::natives;

/// Cycle cost charged for a SHA-256 invocation (crypto is not free).
const SHA256_CYCLES: u64 = 4_000;
/// Cycle cost charged for sealing/opening a TLS record.
const TLS_RECORD_CYCLES: u64 = 1_500;
/// Fixed coordination cost of one SSL/TCP offload (arming the packet
/// filter, netfilter queue handling, SSL-library synchronization in the
/// prototype). Not derivable from first principles; calibrated to the
/// paper's measured ~1.2 s (Wi-Fi) / ~1.6 s (3G) SSL/TCP overhead together
/// with [`SSL_COORDINATION_RTTS`].
const SSL_COORDINATION_FIXED: SimDuration = SimDuration::from_millis(680);
/// Client<->node round trips in the SSL/TCP offload control protocol
/// (state export ack, filter arming, progress sync).
const SSL_COORDINATION_RTTS: u64 = 2;

/// How the client resolves `ui.select_cor`.
pub enum ClientMode {
    /// TinMan: the user picks from the placeholder directory; the app gets
    /// the tainted placeholder.
    TinMan,
    /// Stock Android: the user types the secret; the app gets plaintext.
    /// The map is description -> typed plaintext.
    Stock(HashMap<String, String>),
}

/// The client-side native host for one run segment.
pub struct ClientHost<'a> {
    /// The simulated internet.
    pub world: &'a mut NetWorld,
    /// The device's host id.
    pub host: HostId,
    /// Open connections.
    pub conns: &'a mut HashMap<ConnHandle, ConnState>,
    /// Connection-handle allocator (mirrors `ClientDevice::add_conn`).
    pub next_handle: &'a mut ConnHandle,
    /// The placeholder directory (TinMan mode).
    pub directory: &'a PlaceholderDirectory,
    /// cor resolution mode.
    pub mode: ClientMode,
    /// The device's TLS policy.
    pub tls_config: &'a tinman_tls::TlsConfig,
    /// Scripted inputs for `app.input`.
    pub inputs: &'a HashMap<String, String>,
    /// The device log (`sys.log`, `ui.show`).
    pub device_log: &'a mut Vec<String>,
    /// The flash storage (`disk.write`).
    pub disk: &'a mut Vec<String>,
    /// Handshake randomness.
    pub rng: &'a mut SplitMix64,
    /// Records the last TLS failure so the runtime can surface it.
    pub last_tls_error: &'a mut Option<TlsError>,
}

impl ClientHost<'_> {
    fn handle_arg(&self, ctx: &NativeCtx<'_>, i: usize) -> Result<ConnHandle, VmError> {
        ctx.int_arg(i)
    }

    fn random32(&mut self) -> [u8; 32] {
        let mut r = [0u8; 32];
        self.rng.fill_bytes(&mut r);
        r
    }
}

impl NativeHost for ClientHost<'_> {
    fn call(&mut self, ctx: NativeCtx<'_>) -> Result<NativeOutcome, VmError> {
        match ctx.name {
            natives::UI_SELECT_COR => {
                let desc = ctx.str_arg(0)?.to_owned();
                match &self.mode {
                    ClientMode::TinMan => {
                        let id = self
                            .directory
                            .find_by_description(&desc)
                            .ok_or_else(|| ctx.error(format!("no cor described '{desc}'")))?;
                        let placeholder = self
                            .directory
                            .placeholder(id)
                            .expect("directory entries have placeholders")
                            .to_owned();
                        // The placeholder lands on the heap carrying the
                        // cor's taint label; the reference itself is clean.
                        let obj = ctx.heap.alloc_str_tainted(placeholder, id.taint());
                        Ok(NativeOutcome::ret(Value::Ref(obj)))
                    }
                    ClientMode::Stock(secrets) => {
                        let plaintext = secrets
                            .get(&desc)
                            .ok_or_else(|| ctx.error(format!("no typed secret for '{desc}'")))?
                            .clone();
                        let obj = ctx.heap.alloc_str(plaintext);
                        Ok(NativeOutcome::ret(Value::Ref(obj)))
                    }
                }
            }
            natives::UI_SHOW | natives::SYS_LOG => {
                if ctx.args_taint()?.is_tainted() {
                    // Displaying or logging a cor would leave residue; the
                    // node cannot do it either — but it will refuse with
                    // MigrateBack and the runtime detects the ping-pong.
                    return Ok(NativeOutcome::TriggerOffload);
                }
                let line = ctx.str_arg(0)?.to_owned();
                self.device_log.push(line);
                Ok(NativeOutcome::void())
            }
            natives::DISK_WRITE => {
                if ctx.args_taint()?.is_tainted() {
                    return Ok(NativeOutcome::TriggerOffload);
                }
                let line = ctx.str_arg(0)?.to_owned();
                self.disk.push(line);
                Ok(NativeOutcome::void())
            }
            natives::APP_INPUT => {
                let key = ctx.str_arg(0)?.to_owned();
                let value = self
                    .inputs
                    .get(&key)
                    .ok_or_else(|| ctx.error(format!("missing scripted input '{key}'")))?
                    .clone();
                let obj = ctx.heap.alloc_str(value);
                Ok(NativeOutcome::ret(Value::Ref(obj)))
            }
            natives::CRYPTO_SHA256 => {
                if ctx.args_taint()?.is_tainted() {
                    // Hashing a placeholder locally would produce garbage —
                    // the §4.1 trigger.
                    return Ok(NativeOutcome::TriggerOffload);
                }
                let input = ctx.str_arg(0)?.to_owned();
                let digest = Sha256::digest(input.as_bytes());
                let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
                let obj = ctx.heap.alloc_str(hex);
                Ok(NativeOutcome::Ret {
                    value: Value::Ref(obj),
                    taint: tinman_taint::TaintSet::EMPTY,
                    cycles: SHA256_CYCLES,
                })
            }
            natives::NET_CONNECT => {
                let domain = ctx.str_arg(0)?.to_owned();
                let port = ctx.int_arg(1)? as u16;
                let server =
                    self.world.resolve(&domain).map_err(|e| ctx.error(format!("dns: {e}")))?;
                let conn = self
                    .world
                    .connect(self.host, tinman_net::Addr::new(server, port))
                    .map_err(|e| ctx.error(format!("connect: {e}")))?;
                let handle = *self.next_handle;
                *self.next_handle += 1;
                self.conns.insert(handle, ConnState { conn, domain, tls: None });
                Ok(NativeOutcome::ret(Value::Int(handle)))
            }
            natives::NET_TLS_HANDSHAKE => {
                let handle = self.handle_arg(&ctx, 0)?;
                let random = self.random32();
                let seed = self.rng.next_u64();
                let state = self
                    .conns
                    .get_mut(&handle)
                    .ok_or_else(|| ctx.error(format!("bad conn handle {handle}")))?;
                let hello = Handshake::client_hello(self.tls_config, random);
                let rec = Record {
                    content_type: ContentType::Handshake,
                    version: hello.max_version,
                    body: serde_json::to_vec(&hello).expect("hello serializes"),
                };
                self.world
                    .send(state.conn, &rec.to_bytes())
                    .map_err(|e| ctx.error(format!("send hello: {e}")))?;
                let reply = self
                    .world
                    .recv_available(state.conn)
                    .map_err(|e| ctx.error(format!("recv hello: {e}")))?;
                let parsed = Record::parse(&reply)
                    .map_err(|e| ctx.error(format!("parse server hello: {e}")))?;
                let Some((rec, _)) = parsed else {
                    *self.last_tls_error = Some(TlsError::BadHandshake("no server hello".into()));
                    return Ok(NativeOutcome::ret(Value::Int(0)));
                };
                if rec.content_type == ContentType::Alert {
                    *self.last_tls_error = Some(TlsError::BadHandshake(
                        String::from_utf8_lossy(&rec.body).into_owned(),
                    ));
                    return Ok(NativeOutcome::ret(Value::Int(0)));
                }
                let server_hello: tinman_tls::ServerHello = serde_json::from_slice(&rec.body)
                    .map_err(|e| ctx.error(format!("bad server hello: {e}")))?;
                match Handshake::finish(self.tls_config, &hello, &server_hello, seed) {
                    Ok(session) => {
                        state.tls = Some(session);
                        Ok(NativeOutcome::Ret {
                            value: Value::Int(1),
                            taint: tinman_taint::TaintSet::EMPTY,
                            cycles: TLS_RECORD_CYCLES,
                        })
                    }
                    Err(e) => {
                        // The TinMan floor refusing TLS 1.0 lands here.
                        *self.last_tls_error = Some(e);
                        Ok(NativeOutcome::ret(Value::Int(0)))
                    }
                }
            }
            natives::NET_SEND => {
                if ctx.args_taint()?.is_tainted() {
                    // A cor-bearing send needs the trusted node (payload
                    // replacement).
                    return Ok(NativeOutcome::TriggerOffload);
                }
                let handle = self.handle_arg(&ctx, 0)?;
                let data = ctx.str_arg(1)?.to_owned();
                let state = self
                    .conns
                    .get_mut(&handle)
                    .ok_or_else(|| ctx.error(format!("bad conn handle {handle}")))?;
                let session =
                    state.tls.as_mut().ok_or_else(|| ctx.error("send before TLS handshake"))?;
                let wire = session.seal(ContentType::ApplicationData, data.as_bytes());
                self.world.send(state.conn, &wire).map_err(|e| ctx.error(format!("send: {e}")))?;
                Ok(NativeOutcome::Ret {
                    value: Value::Int(1),
                    taint: tinman_taint::TaintSet::EMPTY,
                    cycles: TLS_RECORD_CYCLES,
                })
            }
            natives::NET_RECV => {
                let handle = self.handle_arg(&ctx, 0)?;
                let state = self
                    .conns
                    .get_mut(&handle)
                    .ok_or_else(|| ctx.error(format!("bad conn handle {handle}")))?;
                let wire = self
                    .world
                    .recv_available(state.conn)
                    .map_err(|e| ctx.error(format!("recv: {e}")))?;
                let session =
                    state.tls.as_mut().ok_or_else(|| ctx.error("recv before TLS handshake"))?;
                let mut text = String::new();
                if !wire.is_empty() {
                    let opened =
                        session.open(&wire).map_err(|e| ctx.error(format!("open records: {e}")))?;
                    for (ctype, plaintext) in opened {
                        if ctype == ContentType::ApplicationData {
                            text.push_str(&String::from_utf8_lossy(&plaintext));
                        }
                    }
                }
                // Bulk page/resource content streams to the app's cache
                // rather than materializing as one managed-heap string
                // (what a real HTTP stack does); the VM sees the response
                // head. The full bytes were transferred and charged.
                const RECV_HEAD: usize = 4096;
                if text.len() > RECV_HEAD {
                    text.truncate(RECV_HEAD);
                }
                let obj = ctx.heap.alloc_str(text);
                Ok(NativeOutcome::Ret {
                    value: Value::Ref(obj),
                    taint: tinman_taint::TaintSet::EMPTY,
                    cycles: TLS_RECORD_CYCLES,
                })
            }
            natives::NET_CLOSE => {
                let handle = self.handle_arg(&ctx, 0)?;
                if let Some(state) = self.conns.remove(&handle) {
                    let _ = self.world.close(state.conn);
                }
                Ok(NativeOutcome::void())
            }
            other => Err(VmError::UnboundNative { name: other.to_owned() }),
        }
    }
}

/// The node-side native host for one run segment.
pub struct NodeHost<'a> {
    /// The simulated internet.
    pub world: &'a mut NetWorld,
    /// The node's host id (redirect queue owner, physical sender of
    /// reframed packets).
    pub node_host: HostId,
    /// The client device's host id (for diagnostics).
    pub client_host: HostId,
    /// The client's open connections (their TLS sessions get injected).
    pub conns: &'a mut HashMap<ConnHandle, ConnState>,
    /// The cor store.
    pub store: &'a mut CorStore,
    /// The policy engine.
    pub policy: &'a mut PolicyEngine,
    /// The audit log.
    pub audit: &'a mut AuditLog,
    /// The running app's image hash (the app↔cor binding subject).
    pub app_hash: [u8; 32],
    /// The requesting device's name (the revocation key).
    pub device_name: String,
    /// The shared clock (policy time windows, audit timestamps).
    pub clock: SimClock,
    /// Latency attribution: the SSL/TCP offloading path charges here.
    pub breakdown: &'a mut Breakdown,
    /// Session-injection nonce source.
    pub rng: &'a mut SplitMix64,
    /// Set when a policy denial occurred (the runtime surfaces it).
    pub last_denial: &'a mut Option<tinman_cor::PolicyDecision>,
    /// The client's radio profile (the exported session state crosses that
    /// link).
    pub client_link: tinman_sim::LinkProfile,
    /// Trace emitter (no-op by default): the SSL/TCP offload path emits
    /// `ssl_injection` and `tcp_payload_replace` events.
    pub trace: tinman_obs::TraceHandle,
    /// The track those events land on.
    pub trace_track: u64,
}

impl NodeHost<'_> {
    fn audit_access(
        &mut self,
        cor: CorId,
        domain: Option<&str>,
        decision: tinman_cor::PolicyDecision,
    ) {
        self.audit.record(AuditEntry {
            time: self.clock.now(),
            app_hash_hex: self.app_hash.iter().map(|b| format!("{b:02x}")).collect(),
            cor,
            domain: domain.map(str::to_owned),
            decision,
            device: self.device_name.clone(),
        });
    }

    /// Policy-checks one cor access; records the audit entry; returns
    /// whether it may proceed.
    fn check_access(&mut self, cor: CorId, domain: Option<&str>) -> bool {
        let fallback: Vec<String> =
            self.store.get(cor).map(|r| r.whitelist.clone()).unwrap_or_default();
        let req = AccessRequest {
            cor,
            app_hash: self.app_hash,
            dest_domain: domain.map(str::to_owned),
            device: self.device_name.clone(),
            now: self.clock.now(),
        };
        let decision = self.policy.check(&req, &fallback);
        let allowed = decision.is_allowed();
        if !allowed {
            *self.last_denial = Some(decision.clone());
        }
        self.audit_access(cor, domain, decision);
        allowed
    }

    /// The §3.2/§3.3 flow: session injection + payload replacement.
    ///
    /// Precondition: `data` is the *plaintext* (the node's heap holds real
    /// values) and carries taint.
    fn send_cor(
        &mut self,
        ctx: &mut NativeCtx<'_>,
        handle: ConnHandle,
        data: String,
        taint: tinman_taint::TaintSet,
    ) -> Result<NativeOutcome, VmError> {
        let t_start = self.clock.now();
        let think_start = self.world.think_time_total();
        let rx_start = self
            .world
            .traffic(self.client_host)
            .map_err(|e| ctx.error(format!("client traffic: {e}")))?
            .rx_bytes;
        let state = self
            .conns
            .get_mut(&handle)
            .ok_or_else(|| ctx.error(format!("bad conn handle {handle}")))?;
        let domain = state.domain.clone();

        // -- policy: every cor label in the payload must be sendable to
        // this destination (the derived cor inherited its parents'
        // whitelists).
        let labels: Vec<CorId> = taint.iter().map(CorId::from_label).collect();
        for cor in &labels {
            if !self.check_access(*cor, Some(&domain)) {
                return Ok(NativeOutcome::ret(Value::Int(0)));
            }
        }

        // -- figure 8 step 1: the client exports its SSL session state.
        let state = self.conns.get_mut(&handle).expect("checked above");
        let session =
            state.tls.as_mut().ok_or_else(|| ctx.error("cor send before TLS handshake"))?;
        let exported = session.export_state();
        // The state crosses client -> node; its serialized size is tiny but
        // the transfer is real. Charged as its JSON length, counted
        // without writing it.
        let state_bytes = exported.json_len();

        // -- figure 8 step 3: the client seals the *placeholder* under the
        // marked record type and sends it through its own TCP stack; the
        // egress filter redirects it here.
        let placeholder = match self.store.find_by_plaintext(&data) {
            Some(id) => self.store.placeholder(id).expect("has placeholder").to_owned(),
            None => {
                let id = self
                    .store
                    .register_derived(&data, taint)
                    .ok_or_else(|| ctx.error("cor label space exhausted"))?;
                self.store.placeholder(id).expect("has placeholder").to_owned()
            }
        };
        debug_assert_eq!(placeholder.len(), data.len());
        let marked_wire = session.seal(ContentType::TinManMarked, placeholder.as_bytes());
        if marked_wire.len() > tinman_net::tcp::MSS {
            return Err(ctx.error(format!(
                "cor record of {} bytes exceeds one segment ({}); payload replacement \
                 requires a single-packet record",
                marked_wire.len(),
                tinman_net::tcp::MSS
            )));
        }
        self.world
            .send(state.conn, &marked_wire)
            .map_err(|e| ctx.error(format!("send marked record: {e}")))?;

        // -- figure 8 step 4: pick up the diverted packet, replace the
        // payload with the cor sealed under the injected session, forward
        // with the TCP header untouched.
        let mut diverted = self
            .world
            .take_redirected(self.node_host)
            .map_err(|e| ctx.error(format!("redirect queue: {e}")))?;
        let Some(mut seg) = diverted.pop() else {
            return Err(ctx.error("marked packet was not diverted (filter not installed?)"));
        };
        let mut node_session = TlsSession::from_state(exported, self.rng.next_u64());
        if self.trace.is_enabled() {
            self.trace.emit_on(
                self.trace_track,
                self.clock.now(),
                tinman_obs::TraceEvent::SslInjection { domain: domain.clone(), state_bytes },
            );
        }
        let real_wire = node_session.seal(ContentType::ApplicationData, data.as_bytes());
        if real_wire.len() != seg.payload.len() {
            return Err(ctx.error(format!(
                "payload replacement length mismatch: {} != {}",
                real_wire.len(),
                seg.payload.len()
            )));
        }
        seg.payload = real_wire;
        if self.trace.is_enabled() {
            self.trace.emit_on(
                self.trace_track,
                self.clock.now(),
                tinman_obs::TraceEvent::TcpPayloadReplace { bytes: seg.payload.len() as u64 },
            );
        }
        self.world
            .inject(self.node_host, seg)
            .map_err(|e| ctx.error(format!("inject reframed packet: {e}")))?;

        // -- the client's session resumes from the node's progress (a
        // no-op for equal-length records, but the call also enforces the
        // implicit-IV refusal).
        let state = self.conns.get_mut(&handle).expect("still open");
        let session = state.tls.as_mut().expect("established");
        session
            .import_progress(node_session.send_seq(), node_session.send_stream_offset())
            .map_err(|e| ctx.error(format!("resume session: {e}")))?;

        // Attribute the path. The wall time so far splits into (a) server
        // processing, which belongs to the site, and (b) TinMan's transfer
        // work; on top come the state-export transfer and the control
        // protocol (filter arming, acks, progress sync) — the fixed +
        // per-RTT coordination cost the prototype measures as "SSL/TCP
        // offloading related overhead".
        let think = self.world.think_time_total().saturating_sub(think_start);
        // The server's response (page download) arrives inside this window
        // but is site traffic, not TinMan overhead: attribute it by the
        // client's received bytes.
        let rx_bytes = self
            .world
            .traffic(self.client_host)
            .map_err(|e| ctx.error(format!("client traffic: {e}")))?
            .rx_bytes
            - rx_start;
        let download = self.client_link.serialize_time(rx_bytes);
        let flow = self.clock.now().since(t_start).saturating_sub(think).saturating_sub(download);
        let coordination = SSL_COORDINATION_FIXED
            + self.client_link.rtt * SSL_COORDINATION_RTTS
            + self.client_link.transfer_time(state_bytes);
        self.clock.advance(coordination);
        self.breakdown.charge("ssl_tcp", flow + coordination);
        self.breakdown.charge("net.server", think + download);
        Ok(NativeOutcome::Ret {
            value: Value::Int(1),
            taint: tinman_taint::TaintSet::EMPTY,
            cycles: 2 * TLS_RECORD_CYCLES,
        })
    }
}

impl NativeHost for NodeHost<'_> {
    fn call(&mut self, mut ctx: NativeCtx<'_>) -> Result<NativeOutcome, VmError> {
        match ctx.name {
            natives::CRYPTO_SHA256 => {
                let taint = ctx.args_taint()?;
                // Access control on computation: the app must be allowed to
                // touch each cor at all (the app↔cor binding; phishing apps
                // stop here).
                for label in taint.iter() {
                    if !self.check_access(CorId::from_label(label), None) {
                        return Ok(NativeOutcome::ret(Value::Null));
                    }
                }
                let input = ctx.str_arg(0)?.to_owned();
                let digest = Sha256::digest(input.as_bytes());
                let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
                let result_taint = if taint.is_tainted() {
                    // The hash of a cor is a new cor (§4.1): mint it now so
                    // it has a placeholder before any sync.
                    let id = self
                        .store
                        .register_derived(&hex, taint)
                        .ok_or_else(|| ctx.error("cor label space exhausted"))?;
                    id.taint()
                } else {
                    tinman_taint::TaintSet::EMPTY
                };
                let obj = ctx.heap.alloc_str_tainted(hex, result_taint);
                Ok(NativeOutcome::Ret {
                    value: Value::Ref(obj),
                    taint: tinman_taint::TaintSet::EMPTY,
                    cycles: SHA256_CYCLES,
                })
            }
            natives::NET_SEND => {
                let taint = ctx.args_taint()?;
                if taint.is_empty() {
                    // Ordinary I/O belongs on the device.
                    return Ok(NativeOutcome::MigrateBack);
                }
                let handle = ctx.int_arg(0)?;
                let data = ctx.str_arg(1)?.to_owned();
                self.send_cor(&mut ctx, handle, data, taint)
            }
            natives::UI_SELECT_COR
            | natives::UI_SHOW
            | natives::SYS_LOG
            | natives::DISK_WRITE
            | natives::APP_INPUT
            | natives::NET_CONNECT
            | natives::NET_TLS_HANDSHAKE
            | natives::NET_RECV
            | natives::NET_CLOSE => Ok(NativeOutcome::MigrateBack),
            other => Err(VmError::UnboundNative { name: other.to_owned() }),
        }
    }
}
