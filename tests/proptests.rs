//! Property-based tests over the core invariants (proptest).
//!
//! These cover the invariants DESIGN.md calls out: cipher round-trips,
//! TCP delivery under adversarial segment scheduling, DSM convergence with
//! cor tokenization, taint-engine fidelity (the asymmetric engine never
//! misses a trigger), placeholder properties, and engine-independence of
//! program results.

use proptest::prelude::*;

use tinman::cor::CorStore;
use tinman::dsm::{CorMaterializer, HeapDelta, PassthroughMaterializer};
use tinman::taint::{EngineKind, Label, PropClass, TaintEngine, TaintSet};
use tinman::tls::cipher::{cbc_decrypt, cbc_encrypt, Rc4, Xtea, BLOCK};
use tinman::tls::{CipherSuite, ContentType, TlsRole, TlsSession, TlsVersion};
use tinman::vm::Heap;

// ---------- ciphers ----------

proptest! {
    #[test]
    fn rc4_round_trips(key in proptest::collection::vec(any::<u8>(), 1..64),
                       msg in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut enc = Rc4::new(&key);
        let mut data = msg.clone();
        enc.apply(&mut data);
        let mut dec = Rc4::new(&key);
        dec.apply(&mut data);
        prop_assert_eq!(data, msg);
    }

    #[test]
    fn cbc_round_trips_any_length(key in any::<[u8; 16]>(),
                                  iv in any::<[u8; BLOCK]>(),
                                  msg in proptest::collection::vec(any::<u8>(), 0..600)) {
        let cipher = Xtea::new(&key);
        let ct = cbc_encrypt(&cipher, &iv, &msg);
        prop_assert_eq!(ct.len() % BLOCK, 0);
        prop_assert!(ct.len() > msg.len(), "padding always present");
        let back = cbc_decrypt(&cipher, &iv, &ct).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn cbc_equal_lengths_stay_equal(key in any::<[u8; 16]>(),
                                    iv in any::<[u8; BLOCK]>(),
                                    len in 0usize..300) {
        // The property payload replacement rests on: two plaintexts of the
        // same length always seal to ciphertexts of the same length.
        let cipher = Xtea::new(&key);
        let a = cbc_encrypt(&cipher, &iv, &vec![0x41; len]);
        let b = cbc_encrypt(&cipher, &iv, &vec![0x42; len]);
        prop_assert_eq!(a.len(), b.len());
    }

    #[test]
    fn tls_records_round_trip_any_payload(
        payload in proptest::collection::vec(any::<u8>(), 0..2000),
        use_rc4 in any::<bool>(),
    ) {
        let suite = if use_rc4 { CipherSuite::Rc4HmacSha256 } else { CipherSuite::XteaCbcHmacSha256 };
        let master = [5u8; 32];
        let mut c = TlsSession::from_master(master, TlsVersion::Tls12, suite, TlsRole::Client, 1);
        let mut s = TlsSession::from_master(master, TlsVersion::Tls12, suite, TlsRole::Server, 2);
        let wire = c.seal(ContentType::ApplicationData, &payload);
        let opened = s.open(&wire).unwrap();
        prop_assert_eq!(opened.len(), 1);
        prop_assert_eq!(&opened[0].1, &payload);
    }

    #[test]
    fn tls_tampering_any_byte_is_detected(
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        flip in any::<usize>(),
    ) {
        let master = [5u8; 32];
        let mut c = TlsSession::from_master(
            master, TlsVersion::Tls12, CipherSuite::XteaCbcHmacSha256, TlsRole::Client, 1);
        let mut s = TlsSession::from_master(
            master, TlsVersion::Tls12, CipherSuite::XteaCbcHmacSha256, TlsRole::Server, 2);
        let mut wire = c.seal(ContentType::ApplicationData, &payload);
        // Flip one bit somewhere in the record body (skip the 4-byte
        // header: header corruption may legitimately parse as a shorter or
        // pending record).
        let n = wire.len();
        let idx = 4 + (flip % (n - 4));
        wire[idx] ^= 0x01;
        prop_assert!(s.open(&wire).is_err());
    }
}

// ---------- TCP under adversarial scheduling ----------

proptest! {
    #[test]
    fn tcp_reassembles_under_reordering_and_duplication(
        data in proptest::collection::vec(any::<u8>(), 1..8000),
        order_seed in any::<u64>(),
        duplicate in any::<bool>(),
    ) {
        use tinman::net::tcp::TcpConn;
        use tinman::net::Addr;
        use tinman::net::HostId;

        let c_addr = Addr::new(HostId(1), 40000);
        let s_addr = Addr::new(HostId(2), 443);
        let (mut client, syn) = TcpConn::connect(c_addr, s_addr, 77);
        let (mut server, syn_ack) = TcpConn::accept(s_addr, &syn, 990);
        for a in client.on_segment(&syn_ack) {
            server.on_segment(&a);
        }

        let mut segs = client.send(&data);
        if duplicate {
            let dup = segs.clone();
            segs.extend(dup);
        }
        // Deterministic shuffle from the seed.
        let mut rng = order_seed;
        for i in (1..segs.len()).rev() {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (rng >> 33) as usize % (i + 1);
            segs.swap(i, j);
        }
        for seg in segs {
            for reply in server.on_segment(&seg) {
                client.on_segment(&reply);
            }
        }
        prop_assert_eq!(server.read_available(), data);
    }
}

// ---------- taint engines ----------

proptest! {
    /// The asymmetric engine triggers exactly when tainted heap data would
    /// reach the stack or derive a new value — i.e. it cannot "miss" a flow
    /// the full engine would track onto the stack.
    #[test]
    fn asymmetric_never_misses_a_heap_exit(
        moves in proptest::collection::vec((0u8..5, any::<bool>()), 1..100),
    ) {
        let mut asym = TaintEngine::asymmetric();
        let tainted = Label::new(3).unwrap().as_set();
        let mut triggered = false;
        let mut tainted_escaped_heap = false;
        for (class, is_tainted) in moves {
            let src = if is_tainted { tainted } else { TaintSet::EMPTY };
            let outcome = match class {
                0 => asym.on_move(PropClass::HeapToHeap, src),
                1 => asym.on_move(PropClass::HeapToStack, src),
                2 => asym.on_move(PropClass::StackToStack, src),
                3 => asym.on_move(PropClass::StackToHeap, src),
                _ => asym.on_derive(src),
            };
            if matches!(class, 1 | 4) && is_tainted && !triggered {
                tainted_escaped_heap = true;
            }
            if outcome.trigger_offload {
                triggered = true;
            }
        }
        prop_assert_eq!(triggered, tainted_escaped_heap,
            "trigger iff tainted data attempted to leave the heap");
    }

    /// A pure computation's result does not depend on the taint engine.
    #[test]
    fn results_are_engine_independent(a in -1000i64..1000, b in -1000i64..1000, n in 1u32..20) {
        use tinman::vm::{interp, ExecConfig, ExecEvent, Insn, Machine, ProgramBuilder};

        let build = || {
            let mut p = ProgramBuilder::new("prop");
            let main = p.define("main", 0, 4, |bld, _| {
                bld.const_i(a).store(0);
                bld.const_i(n as i64).store(2);
                bld.for_loop(1, 2, |bld| {
                    bld.load(0).const_i(b).op(Insn::Add).const_i(3).op(Insn::Mul).store(0);
                });
                bld.load(0).op(Insn::Halt);
            });
            p.build(main)
        };
        let run = |kind: EngineKind| {
            let image = build();
            let mut m = Machine::new();
            let mut host = interp::NullHost;
            let mut e = match kind {
                EngineKind::None => TaintEngine::none(),
                EngineKind::Full => TaintEngine::full(),
                EngineKind::Asymmetric => TaintEngine::asymmetric(),
            };
            match interp::run(&mut m, &image, &mut host, &mut e, ExecConfig::client()).unwrap() {
                ExecEvent::Halted(v) => v,
                other => panic!("{other:?}"),
            }
        };
        let r0 = run(EngineKind::None);
        prop_assert_eq!(run(EngineKind::Full), r0);
        prop_assert_eq!(run(EngineKind::Asymmetric), r0);
    }
}

// ---------- DSM convergence ----------

proptest! {
    /// After a full sync, the receiving heap matches the sender except for
    /// tainted content, for arbitrary heaps.
    #[test]
    fn dsm_full_sync_converges(
        strings in proptest::collection::vec(("[a-z]{0,40}", any::<bool>()), 0..40),
    ) {
        let mut src = Heap::new();
        let label = Label::new(7).unwrap().as_set();
        for (content, tainted) in &strings {
            if *tainted {
                src.alloc_str_tainted(content.clone(), label);
            } else {
                src.alloc_str(content.clone());
            }
        }
        let mut mat = PassthroughMaterializer;
        let delta = HeapDelta::build_full(&src, &mut mat).unwrap();
        let mut dst = Heap::new();
        delta.apply(&mut dst, &mut mat).unwrap();

        prop_assert_eq!(dst.len(), src.len());
        for (id, obj) in src.iter() {
            let d = dst.get(id).unwrap();
            prop_assert_eq!(d.taint, obj.taint);
            if obj.taint.is_empty() {
                prop_assert_eq!(&d.kind, &obj.kind, "untainted content identical");
            } else {
                // Tainted content is shape-preserved but scrubbed.
                prop_assert_eq!(
                    dst.str_value(id).unwrap().len(),
                    src.str_value(id).unwrap().len()
                );
            }
        }
    }

    /// Incremental dirty syncs converge to the same state as one full sync.
    #[test]
    fn dsm_dirty_syncs_converge(
        batches in proptest::collection::vec(
            proptest::collection::vec("[a-z]{1,20}", 1..10), 1..5),
    ) {
        let mut mat = PassthroughMaterializer;
        let mut src = Heap::new();
        let mut dst = Heap::new();
        // Initial sync of an empty heap.
        HeapDelta::build_full(&src, &mut mat).unwrap().apply(&mut dst, &mut mat).unwrap();
        src.clear_sync_marks();
        for batch in &batches {
            for s in batch {
                src.alloc_str(s.clone());
            }
            let delta = HeapDelta::build_dirty(&src, &mut mat).unwrap();
            delta.apply(&mut dst, &mut mat).unwrap();
            src.clear_sync_marks();
        }
        prop_assert_eq!(dst.len(), src.len());
        for (id, obj) in src.iter() {
            prop_assert_eq!(&dst.get(id).unwrap().kind, &obj.kind);
        }
    }
}

// ---------- cor store ----------

proptest! {
    #[test]
    fn placeholders_match_length_never_value(secret in "[!-~]{1,60}") {
        let mut store = CorStore::new(3);
        // NB: the description must not share text with the secret — the
        // residue scan is substring-based and descriptions are public.
        let id = store.register(&secret, " ", &[]).unwrap();
        let ph = store.placeholder(id).unwrap();
        prop_assert_eq!(ph.len(), secret.len());
        prop_assert_ne!(ph, secret.as_str());
        // The serialized client directory never contains the secret.
        let dir = store.client_directory();
        prop_assert!(!dir.contains_text(&secret));
    }

    #[test]
    fn derived_cor_round_trip(parent in "[a-z]{4,20}", derived in "[A-Z0-9]{4,40}") {
        let mut store = CorStore::new(9);
        let p = store.register(&parent, "parent", &["site.com"]).unwrap();
        let d = store.register_derived(&derived, p.taint()).unwrap();
        prop_assert_eq!(store.plaintext(d).unwrap(), derived.as_str());
        prop_assert_eq!(store.find_by_plaintext(&derived), Some(d));
        prop_assert_eq!(store.placeholder(d).unwrap().len(), derived.len());
        // Whitelist inherited.
        prop_assert!(store.get(d).unwrap().whitelist.contains(&"site.com".to_owned()));
    }
}

// ---------- materializer leak-freedom ----------

proptest! {
    /// For any plaintext, the node-side tokenization of a tainted string
    /// never serializes the plaintext.
    #[test]
    fn node_tokens_never_leak(secret in "[a-zA-Z0-9]{8,40}") {
        use tinman::core::materialize::NodeMaterializer;
        use tinman::vm::HeapKind;

        let mut store = CorStore::new(1);
        let id = store.register(&secret, "s", &[]).unwrap();
        let mut nm = NodeMaterializer { store: &mut store };
        let token = nm.tokenize(&HeapKind::Str(secret.clone()), id.taint()).unwrap();
        let wire = serde_json::to_string(&token).unwrap();
        prop_assert!(!wire.contains(&secret));
    }
}

// ---------- vault recovery ----------

use tinman::vault::{Vault, VaultOp};

proptest! {
    /// For arbitrary WAL contents (any record set, any interleaving of
    /// commit barriers) and an arbitrary seeded crash point, recovery
    /// either reproduces the exact reference store — byte-identical
    /// snapshot JSON for the prefix it reports applied, which must cover
    /// at least every committed record — or reports a checked error.
    /// Never a panic, never a silently divergent store.
    #[test]
    fn vault_recovery_is_exact_or_a_checked_error(
        secrets in proptest::collection::vec("[a-zA-Z0-9]{4,24}", 1..6),
        commit_mask in any::<u64>(),
        crash_seed in any::<u64>(),
        reseed in any::<u64>(),
    ) {
        // Build the records by registering into a reference-seeded store;
        // duplicates are dropped (the store rejects them) rather than
        // discarded wholesale, so the generator keeps its full range.
        let mut filler = CorStore::with_label_range(7, 0, 32).unwrap();
        // The anchor cannot collide with the generated secrets (they
        // never contain '!'), so the record set is never empty.
        let anchor = filler.register("anchor!", " ", &[]).unwrap();
        let mut records = vec![filler.get(anchor).unwrap().clone()];
        for s in &secrets {
            if let Some(id) = filler.register(s, " ", &[]) {
                records.push(filler.get(id).unwrap().clone());
            }
        }

        let base = CorStore::with_label_range(7, 0, 32).unwrap();
        let mut vault = Vault::create(&base).unwrap();
        let mut committed = 0usize;
        for (i, r) in records.iter().enumerate() {
            vault.append(&VaultOp::Put { record: r.clone(), next_id: r.id.raw() + 1 }).unwrap();
            if commit_mask >> (i % 64) & 1 == 1 {
                vault.commit();
                committed = i + 1;
            }
        }
        let mut disk = vault.into_disk();
        // Arbitrary crash point: every staged byte may land, partially
        // land (a torn tail), or vanish, per the seeded budget.
        disk.crash(crash_seed);

        match Vault::recover(disk, reseed) {
            Ok(recovered) => {
                let applied = recovered.report.applied_lsn as usize;
                prop_assert!(applied >= committed,
                    "fsynced records must survive: applied {applied} < committed {committed}");
                prop_assert!(applied <= records.len());
                let mut reference = CorStore::with_label_range(7, 0, 32).unwrap();
                for r in &records[..applied] {
                    reference.install_record(r.clone(), r.id.raw() + 1).unwrap();
                }
                prop_assert_eq!(
                    recovered.store.to_json().unwrap(),
                    reference.to_json().unwrap(),
                    "recovered store must be byte-identical to the applied-prefix reference"
                );
            }
            Err(_) => {
                // A checked refusal is acceptable; silent divergence and
                // panics are not (reaching here proves neither happened).
            }
        }
    }
}

// ---------- guard: hostile bytecode always terminates, never panics ----------

/// Decodes one fuzzed `(selector, payload)` pair into an instruction.
/// Indices are taken modulo one-past-the-pool so out-of-range string,
/// class, function, local, and field references all stay reachable —
/// each must surface as a *typed* `VmError`, never a panic.
fn fuzz_insn(sel: u8, a: i64, code_len: usize) -> tinman::vm::Insn {
    use tinman::vm::{ClassId, FuncId, Insn as I, StrIdx};
    let target = (a.unsigned_abs() % (code_len as u64 + 2)) as u32;
    match sel % 44 {
        0 => I::ConstI(a),
        1 => I::ConstD(a as f64),
        2 => I::ConstS(StrIdx((a as u32) % 3)),
        3 => I::ConstNull,
        4 => I::Load((a as u16) % 6),
        5 => I::Store((a as u16) % 6),
        6 => I::Dup,
        7 => I::Pop,
        8 => I::Swap,
        9 => I::Add,
        10 => I::Sub,
        11 => I::Mul,
        12 => I::Div,
        13 => I::Rem,
        14 => I::Neg,
        15 => I::BitAnd,
        16 => I::BitOr,
        17 => I::BitXor,
        18 => I::Shl,
        19 => I::Shr,
        20 => I::CmpEq,
        21 => I::CmpLt,
        22 => I::I2D,
        23 => I::D2I,
        24 => I::Jump(target),
        25 => I::JumpIfZero(target),
        26 => I::JumpIfNonZero(target),
        27 => I::New(ClassId((a as u32) % 2)),
        28 => I::GetField((a as u16) % 3),
        29 => I::PutField((a as u16) % 3),
        30 => I::NewArr,
        31 => I::ArrLoad,
        32 => I::ArrStore,
        33 => I::ArrLen,
        34 => I::ArrCopy,
        35 => I::StrConcat,
        36 => I::StrCharAt,
        37 => I::StrLen,
        38 => I::StrSub,
        39 => I::StrIndexOf,
        40 => I::Call(FuncId((a as u32) % 3)),
        41 => I::Ret,
        42 => I::MonitorEnter,
        _ => I::Nop,
    }
}

proptest! {
    /// Arbitrary guest bytecode under a guard envelope (fuel + heap
    /// quota + depth limit) always terminates — with a halt, a
    /// suspension event, fuel exhaustion, or a *typed* `VmError` — and
    /// never retires more instructions than its fuel. Reaching the
    /// assertions at all proves no panic was reachable.
    #[test]
    fn hostile_bytecode_always_terminates_within_fuel(
        raw in proptest::collection::vec((any::<u8>(), any::<i64>()), 1..80),
        fuel in 1u64..3_000,
    ) {
        use tinman::taint::TaintEngine;
        use tinman::vm::{interp, AppImage, ClassDef, ExecConfig, FuncId, Function, Machine};

        let code_len = raw.len();
        let code: Vec<_> =
            raw.iter().map(|&(sel, a)| fuzz_insn(sel, a, code_len)).collect();
        let image = AppImage {
            name: "fuzz".to_owned(),
            functions: vec![
                Function { name: "main".to_owned(), n_args: 0, n_locals: 5, code },
                Function {
                    name: "callee".to_owned(),
                    n_args: 1,
                    n_locals: 2,
                    code: vec![tinman::vm::Insn::Load(0), tinman::vm::Insn::Ret],
                },
            ],
            classes: vec![ClassDef { name: "C".to_owned(), fields: vec!["a".into(), "b".into()] }],
            strings: vec!["s".to_owned(), "tt".to_owned()],
            natives: vec![],
            entry: FuncId(0),
        };
        let mut m = Machine::new();
        let mut host = interp::NullHost;
        let mut engine = TaintEngine::asymmetric();
        // Taint-idle above fuel so the run exercises the budgets, not the
        // migrate-back path.
        let cfg = ExecConfig::trusted_node(fuel + 1_000, fuel)
            .with_heap_quota(64, 1 << 16)
            .with_depth_limit(12);
        // Ok(any event) and Err(any typed VmError) are both termination;
        // the property is that we get *here* (no panic, no hang).
        let _ = interp::run(&mut m, &image, &mut host, &mut engine, cfg);
        prop_assert!(m.stats.instrs <= fuel, "retired {} > fuel {fuel}", m.stats.instrs);
    }
}

// ---------- fleet report stats & pool placement ----------

use tinman::fleet::{FaultPlan, LatencyStats, NodePool};
use tinman::sim::SimDuration;

proptest! {
    /// Quantiles of any latency sample are ordered and bounded by the
    /// sample's min/max; the empty sample is all zeros.
    #[test]
    fn latency_stats_quantiles_are_ordered_and_bounded(
        nanos in proptest::collection::vec(0u64..10_000_000_000, 0..200)
    ) {
        let mut sorted: Vec<SimDuration> =
            nanos.iter().map(|&n| SimDuration::from_nanos(n)).collect();
        sorted.sort_unstable();
        let stats = LatencyStats::from_sorted(&sorted);
        if sorted.is_empty() {
            prop_assert_eq!(stats.mean, SimDuration::ZERO);
            prop_assert_eq!(stats.p50, SimDuration::ZERO);
            prop_assert_eq!(stats.p99, SimDuration::ZERO);
        } else {
            let min = sorted[0];
            let max = *sorted.last().unwrap();
            prop_assert!(stats.p50 <= stats.p95);
            prop_assert!(stats.p95 <= stats.p99);
            prop_assert!(min <= stats.p50 && stats.p99 <= max);
            prop_assert!(min <= stats.mean && stats.mean <= max,
                "mean sits between min and max");
        }
    }

    /// A single sample IS every quantile and the mean.
    #[test]
    fn latency_stats_single_sample_is_every_quantile(n in 0u64..1 << 62) {
        let d = SimDuration::from_nanos(n);
        let stats = LatencyStats::from_sorted(&[d]);
        prop_assert_eq!(stats.mean, d);
        prop_assert_eq!(stats.p50, d);
        prop_assert_eq!(stats.p95, d);
        prop_assert_eq!(stats.p99, d);
    }

    /// Nearest-rank boundary behavior: over the sample `1ns..=len ns`
    /// the q-th percentile is exactly the `max(1, ceil(q*len/100))`-th
    /// smallest — checked against an independent formula so off-by-one
    /// rank arithmetic (the classic `(q*n)/100` truncation bug) fails.
    #[test]
    fn latency_stats_nearest_rank_boundaries(len in 1u64..150) {
        let sorted: Vec<SimDuration> = (1..=len).map(SimDuration::from_nanos).collect();
        let stats = LatencyStats::from_sorted(&sorted);
        let nearest = |q: u64| SimDuration::from_nanos((q * len).div_ceil(100).max(1));
        prop_assert_eq!(stats.p50, nearest(50));
        prop_assert_eq!(stats.p95, nearest(95));
        prop_assert_eq!(stats.p99, nearest(99));
    }

    /// The failover walk starts at the consistent-hash primary, never
    /// repeats a shard, and reaches every shard in the pool.
    #[test]
    fn replica_order_starts_at_primary_distinct_covers_all(
        nodes in 1usize..17, capacity in 1usize..4, key in any::<u64>()
    ) {
        let pool = NodePool::new(nodes, capacity, &FaultPlan::default()).unwrap();
        let order = pool.replica_order(key);
        prop_assert_eq!(order[0], pool.place(key), "walk starts at the primary");
        let mut dedup = order.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), order.len(), "no shard appears twice");
        prop_assert_eq!(order.len(), pool.len(), "walk covers every shard");
        prop_assert!(order.iter().all(|&n| n < pool.len()), "indices in range");
    }
}

// ---------- wire chaos on the routed net ----------

proptest! {
    /// Satellite invariant for the routed internet: a TCP exchange under
    /// combined loss + corruption + delay chaos either delivers the exact
    /// bytes or fails with a checked error (never a partial/garbled
    /// delivery), and the whole run — outcome, retransmit/sequence
    /// accounting, radio traffic — is a pure function of the dice seed:
    /// rerunning it yields byte-identical `NetChaosStats`.
    #[test]
    fn tcp_chaos_delivers_exactly_or_fails_closed_deterministically(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        loss in 0u8..101,
        corrupt in 0u8..101,
        delay_ms in 0u64..50,
        seed in any::<u64>(),
    ) {
        use tinman::net::{Addr, NetChaos, NetChaosStats, NetWorld, ServerApp, ServerReply, Traffic};
        use tinman::sim::{LinkProfile, SimClock, SimDuration};

        struct Echo;
        impl ServerApp for Echo {
            fn on_data(&mut self, _peer: Addr, data: &[u8]) -> ServerReply {
                ServerReply { data: data.to_vec(), ..ServerReply::default() }
            }
        }

        let run = || -> (Result<Vec<u8>, String>, NetChaosStats, Traffic, (u32, u32)) {
            let mut world = NetWorld::new(SimClock::new());
            let phone = world.add_host("phone", LinkProfile::wifi());
            let server = world.add_host("server", LinkProfile::ethernet());
            world.install_server(Addr::new(server, 443), Box::new(Echo));
            world.set_chaos(NetChaos {
                loss_pct: loss,
                corrupt_pct: corrupt,
                extra_delay: SimDuration::from_millis(delay_ms),
                flap: None,
                partitions: Vec::new(),
                seed,
            });
            let mut seq = (0, 0);
            let out = (|| {
                let conn =
                    world.connect(phone, Addr::new(server, 443)).map_err(|e| e.to_string())?;
                world.send(conn, &data).map_err(|e| e.to_string())?;
                let got = world.recv_available(conn).map_err(|e| e.to_string())?;
                seq = world.conn_seq(conn).map_err(|e| e.to_string())?;
                Ok(got)
            })();
            let traffic = world.traffic(phone).expect("phone exists");
            (out, world.chaos_stats(), traffic, seq)
        };

        let (a, stats_a, traffic_a, seq_a) = run();
        let (b, stats_b, traffic_b, seq_b) = run();
        prop_assert_eq!(&a, &b, "outcome is a pure function of the dice seed");
        prop_assert_eq!(stats_a, stats_b, "NetChaosStats byte-identical across reruns");
        prop_assert_eq!(traffic_a, traffic_b, "radio accounting byte-identical across reruns");
        prop_assert_eq!(seq_a, seq_b, "sequence accounting byte-identical across reruns");
        match a {
            // Loss and corruption are modeled as retransmissions, so a
            // surviving exchange must deliver the bytes exactly.
            Ok(got) => prop_assert_eq!(got, data, "delivery is exact, never garbled"),
            // Fail closed: a checked error and nothing delivered.
            Err(msg) => prop_assert!(!msg.is_empty()),
        }
    }
}

// ---------- arbitrary topology chaos plans ----------

proptest! {
    // Fleet runs are heavy; a handful of arbitrary plans per test run
    // keeps the suite fast while the seed corpus accumulates coverage.
    #![cases(6)]

    /// The acceptance property for the routed-internet families: under
    /// ANY combination of `RouterCrash`/`NatTableFlush`/`DnsOutage`/
    /// `HandoffStorm`, every session either completes (after bounded
    /// re-sync retries) or fails closed — and no outcome ever leaves cor
    /// plaintext residue on a device or ships vault bytes to one.
    #[test]
    fn arbitrary_topology_plans_complete_or_fail_closed(
        families in any::<u8>(),
        crash in (50u64..1200, 1u64..400),
        flush_at in 200u64..1500,
        dns in (0u64..300, 1u64..300, 0u64..4),
        storm in (1u32..3, 200u64..900, 0u64..250),
    ) {
        use tinman::chaos::{ChaosEvent, ChaosPlan};
        use tinman::fleet::{run_fleet_chaos, FleetConfig, FleetObs};
        use tinman::sim::SimDuration;

        // The low 4 bits of `families` pick which families this plan
        // combines, so singletons and every interaction both get cases.
        let mut events = Vec::new();
        if families & 1 != 0 {
            let (from, len) = crash;
            events.push(ChaosEvent::RouterCrash {
                from: SimDuration::from_millis(from),
                until: SimDuration::from_millis(from + len),
            });
        }
        if families & 2 != 0 {
            events.push(ChaosEvent::NatTableFlush { at: SimDuration::from_millis(flush_at) });
        }
        if families & 4 != 0 {
            let (from, len, from_session) = dns;
            events.push(ChaosEvent::DnsOutage {
                from: SimDuration::from_millis(from),
                until: SimDuration::from_millis(from + len),
                from_session,
                until_session: from_session + 2,
            });
        }
        if families & 8 != 0 {
            let (count, every, blackout) = storm;
            events.push(ChaosEvent::HandoffStorm {
                count,
                every: SimDuration::from_millis(every),
                blackout: SimDuration::from_millis(blackout),
            });
        }
        let mut plan = ChaosPlan::empty();
        plan.events = events;
        let mut cfg = FleetConfig::new(4, 2);
        cfg.nodes = 2;
        cfg.topology = true;
        let report = run_fleet_chaos(&cfg, &plan, &FleetObs::default()).unwrap();
        prop_assert_eq!(report.violations(), []);
    }
}
