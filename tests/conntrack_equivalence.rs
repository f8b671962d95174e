//! Conntrack equivalence: random bidirectional TCP/UDP traces must drive
//! every datapath architecture to identical connection states, identical
//! NAT rewrites, and identical verdicts.
//!
//! Single-switch: the three executions of `common::executions` — the
//! interpreter (`DirectDatapath`, the ground truth), the compiled datapath
//! (`EswitchRuntime`) and the OVS cache hierarchy — each run the same trace
//! through `Datapath::process_ct` (a burst of one) against their own private
//! engine. After every event the verdict **and the frame bytes** (NAT
//! rewrites happen in place) must agree; after the trace the engines'
//! counter snapshots and live-connection counts must agree. Each trace runs
//! twice: with the packets as built, and with every copy under test received
//! through a `Port` first (carrying the RX parse stamp). A burst-level case
//! pins the order of ct side effects inside one burst.
//!
//! Sharded: the same trace is dispatched through the 1-, 2- and 4-shard
//! runtime on both backends. With one shard the verdict *sequence* must
//! equal the interpreter's; with more shards symmetric RSS keeps each
//! connection's two directions on one shard, so the verdict *multiset*
//! must still match and the merged per-shard counters must reproduce the
//! single-engine totals and satisfy the conservation identity.

mod common;

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use common::{checksums_verify, executions, received};
use conntrack::CtEngine;
use openflow::ct::CtTuple;
use openflow::{Pipeline, Verdict};
use pkt::builder::PacketBuilder;
use pkt::{parse, Ipv4Addr4, Packet, ParseDepth, TcpFlags};
use proptest::prelude::*;
use shard::{BackendSpec, LaunchParts, ShardedConfig, ShardedSwitch, VerdictSink};
use workloads::usecases::{PORT_NET, PORT_USER};
use workloads::{snat_edge, stateful_acl_gateway as acl};

/// One trace event: a packet of connection `conn`, in the original (client
/// → net) or reply direction, carrying one of four TCP flag shapes
/// (ignored for UDP connections).
#[derive(Debug, Clone, Copy)]
struct Event {
    conn: usize,
    reply: bool,
    flag_sel: u8,
}

fn flags_of(sel: u8) -> TcpFlags {
    match sel % 4 {
        0 => TcpFlags {
            syn: true,
            ..Default::default()
        },
        1 => TcpFlags {
            ack: true,
            ..Default::default()
        },
        2 => TcpFlags {
            fin: true,
            ack: true,
            ..Default::default()
        },
        _ => TcpFlags {
            rst: true,
            ..Default::default()
        },
    }
}

/// The client-side frame of connection `conn` (even ids are TCP, odd UDP).
fn forward_packet(conn: usize, flag_sel: u8) -> Packet {
    let tcp = conn.is_multiple_of(2);
    let src = Ipv4Addr4::new(10, 0, (conn >> 8) as u8, conn as u8);
    let dst = Ipv4Addr4::new(198, 51, 100, (conn % 200) as u8 + 1);
    let sport = 1024 + (conn % 30000) as u16;
    let builder = if tcp {
        PacketBuilder::tcp()
            .tcp_src(sport)
            .tcp_dst(80)
            .tcp_flags(flags_of(flag_sel))
    } else {
        PacketBuilder::udp().udp_src(sport).udp_dst(53)
    };
    builder
        .ipv4_src(src)
        .ipv4_dst(dst)
        .in_port(PORT_USER)
        .build()
}

/// A reply to `frame` *as it was forwarded* (so NAT translations are
/// answered like a real peer answers them), carrying `flag_sel`'s flags.
fn reply_packet(frame: &Packet, flag_sel: u8) -> Option<Packet> {
    let headers = parse(frame.data(), ParseDepth::L4);
    let t = CtTuple::from_frame(frame.data(), &headers)?;
    let builder = if t.proto == 6 {
        PacketBuilder::tcp()
            .tcp_src(t.dst_port)
            .tcp_dst(t.src_port)
            .tcp_flags(flags_of(flag_sel))
    } else {
        PacketBuilder::udp().udp_src(t.dst_port).udp_dst(t.src_port)
    };
    Some(
        builder
            .ipv4_src(Ipv4Addr4::from_u32(t.dst_ip))
            .ipv4_dst(Ipv4Addr4::from_u32(t.src_ip))
            .in_port(PORT_NET)
            .build(),
    )
}

fn event_strategy(conns: usize) -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (0..conns, any::<bool>(), 0u8..4).prop_map(|(conn, reply, flag_sel)| Event {
            conn,
            reply,
            flag_sel,
        }),
        1..96,
    )
}

/// Materialises a trace into concrete input packets, interpreting reply
/// events against the frame the *reference* datapath last forwarded for
/// that connection (`last_forward`). Replies to connections that never
/// forwarded anything probe the reverse of the original tuple —
/// unsolicited traffic a stateful verb must deny.
fn event_input(ev: &Event, last_forward: &HashMap<usize, Packet>) -> Packet {
    if ev.reply {
        let base = last_forward
            .get(&ev.conn)
            .cloned()
            .unwrap_or_else(|| forward_packet(ev.conn, 0));
        reply_packet(&base, ev.flag_sel).expect("ipv4 tcp/udp frame is replyable")
    } else {
        forward_packet(ev.conn, ev.flag_sel)
    }
}

/// Runs `events` through the three executions of the given stateful use
/// case, asserting equivalence with the interpreter event by event. With
/// `stamped` the executions under test get each packet through a `Port`;
/// the interpreter always takes it as built.
fn assert_single_switch_equivalence(
    label: &str,
    pipeline: &Pipeline,
    ct_config: &conntrack::CtConfig,
    events: &[Event],
    stamped: bool,
) {
    let executions = executions(pipeline);
    let mut engines: Vec<CtEngine> = executions
        .iter()
        .map(|_| CtEngine::new(ct_config))
        .collect();

    let mut last_forward: HashMap<usize, Packet> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        let input = event_input(ev, &last_forward);
        let copies = vec![input.clone(); executions.len() - 1];
        let mut frames = vec![input];
        frames.extend(if stamped { received(&copies) } else { copies });
        let verdicts: Vec<Verdict> = executions
            .iter()
            .zip(&mut engines)
            .zip(&mut frames)
            .map(|(((_, datapath), engine), frame)| datapath.process_ct(frame, engine))
            .collect();

        let (want, want_frame) = (&verdicts[0], &frames[0]);
        for (((name, _), got), frame) in executions.iter().zip(&verdicts).zip(&frames).skip(1) {
            assert_eq!(
                got.outputs, want.outputs,
                "{label}/{name}: verdict diverged at event {i} ({ev:?})"
            );
            assert_eq!(
                frame.data(),
                want_frame.data(),
                "{label}/{name}: frame bytes (NAT rewrites) diverged at event {i} ({ev:?})"
            );
        }

        // Every execution forwarded these same bytes; a NAT rewrite must
        // leave them acceptable to the receiver.
        assert!(
            want.outputs.is_empty() || checksums_verify(want_frame.data()),
            "{label}: forwarded frame fails checksum verification at event {i} ({ev:?})"
        );

        if !ev.reply && !want.outputs.is_empty() {
            last_forward.insert(ev.conn, want_frame.clone());
        }
    }

    // Identical traces must leave identical connection state behind.
    let snaps: Vec<_> = engines
        .iter_mut()
        .map(|engine| {
            engine.advance_to(engine.now()); // flush batched hit counts
            (engine.live(), engine.stats().snapshot())
        })
        .collect();
    let (want_live, want_snap) = snaps[0];
    for ((name, _), (live, snap)) in executions.iter().zip(&snaps) {
        assert_eq!(
            *live, want_live,
            "{label}/{name}: live connections diverged"
        );
        assert_eq!(*snap, want_snap, "{label}/{name}: ct counters diverged");
        assert!(snap.identity_holds(), "{label}/{name}: identity violated");
    }
}

/// Inside one burst, ct side effects happen in arrival order on every
/// execution. The case is the one the OVS burst path's stateful fallback
/// exists for (`ovsdp::datapath`, `n > 1 && unresolved > 0 &&
/// ct.is_stateful()`): a connection's RST replays from the caches, and the
/// reply behind it in the same burst misses them. Run out of order, the
/// slow-path reply would be admitted on the connection the RST closes.
#[test]
fn a_cached_teardown_is_not_outrun_by_a_slow_path_reply() {
    let pipeline = acl::build_pipeline(&acl::StatefulAclConfig::default());
    let syn = forward_packet(0, 0);
    let bursts = [
        // Opens the connection and caches the forward direction.
        vec![syn.clone()],
        // The RST hits that cache; no reply has been seen yet, so the reply
        // misses every cache level.
        vec![
            forward_packet(0, 3),
            reply_packet(&syn, 1).expect("tcp frame"),
        ],
    ];
    let mut runs = Vec::new();
    for (name, datapath) in &executions(&pipeline) {
        let mut engine = CtEngine::new(&acl::ct_config());
        let mut verdicts = Vec::new();
        let outputs: Vec<Vec<Vec<u32>>> = bursts
            .iter()
            .map(|burst| {
                let mut burst = burst.clone();
                datapath.process_burst(&mut burst, &mut verdicts, &mut engine);
                verdicts.iter().map(|v| v.outputs.to_vec()).collect()
            })
            .collect();
        engine.advance_to(engine.now());
        runs.push((*name, outputs, engine.live(), engine.stats().snapshot()));
    }
    let (_, want, want_live, want_snap) = &runs[0];
    assert!(
        want[1][1].is_empty(),
        "the interpreter drops the late reply"
    );
    assert_eq!((*want_live, want_snap.teardown), (0, 1));
    for (name, outputs, live, snap) in &runs[1..] {
        assert_eq!(outputs, want, "{name}: verdicts diverged");
        assert_eq!(
            (live, snap),
            (want_live, want_snap),
            "{name}: ct state diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stateful_acl_architectures_agree(events in event_strategy(24)) {
        for stamped in [false, true] {
            assert_single_switch_equivalence(
                "acl",
                &acl::build_pipeline(&acl::StatefulAclConfig::default()),
                &acl::ct_config(),
                &events,
                stamped,
            );
        }
    }

    #[test]
    fn snat_architectures_agree(events in event_strategy(24)) {
        for stamped in [false, true] {
            assert_single_switch_equivalence(
                "snat",
                &snat_edge::build_pipeline(&snat_edge::SnatEdgeConfig::default()),
                &snat_edge::ct_config(),
                &events,
                stamped,
            );
        }
    }
}

/// The ACL ct config with effectively infinite idle timeouts. The sharded
/// workers tick their engines once per burst (real time passes), while the
/// single-engine reference never ticks — equal timeouts would let a
/// SYN-state connection idle out mid-trace in one world but not the other.
/// Timeout behaviour has its own tests; this suite pins state equivalence.
fn patient_ct_config() -> conntrack::CtConfig {
    let mut config = acl::ct_config();
    config.timeouts = conntrack::CtTimeouts {
        tcp_syn: 1 << 40,
        tcp_established: 1 << 40,
        tcp_fin: 1 << 40,
        udp_new: 1 << 40,
        udp_established: 1 << 40,
    };
    config
}

/// The interpreter's verdicts for an ACL trace, with replies synthesised
/// from original tuples (the ACL gateway never rewrites, so the sharded
/// runs below can feed the byte-identical packet stream).
fn reference_run(events: &[Event]) -> (Vec<Packet>, Vec<Verdict>, conntrack::CtSnapshot) {
    let pipeline = acl::build_pipeline(&acl::StatefulAclConfig::default());
    let mut engine = CtEngine::new(&patient_ct_config());
    let mut last_forward: HashMap<usize, Packet> = HashMap::new();
    let mut inputs = Vec::with_capacity(events.len());
    let mut verdicts = Vec::with_capacity(events.len());
    for ev in events {
        let input = event_input(ev, &last_forward);
        let mut p = input.clone();
        let v = pipeline.process_ct(&mut p, &mut engine);
        if !ev.reply && !v.outputs.is_empty() {
            last_forward.insert(ev.conn, p);
        }
        inputs.push(input);
        verdicts.push(v);
    }
    engine.advance_to(engine.now());
    (inputs, verdicts, engine.stats().snapshot())
}

fn multiset(outputs: impl Iterator<Item = Vec<u32>>) -> HashMap<Vec<u32>, usize> {
    let mut m = HashMap::new();
    for o in outputs {
        *m.entry(o).or_insert(0) += 1;
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// 1-/2-/4-shard runtime equivalence on both backends (the dispatcher
    /// stamps every packet, the reference takes them as built). Connection
    /// state is strictly shard-local; symmetric RSS pins both directions
    /// of a connection to one shard, so verdicts and aggregated counters
    /// must reproduce the single-engine reference exactly.
    #[test]
    fn sharded_runtime_agrees_with_reference(events in event_strategy(16)) {
        let (inputs, want_verdicts, want_snap) = reference_run(&events);
        let want_multiset = multiset(want_verdicts.iter().map(|v| v.outputs.to_vec()));

        for workers in [1usize, 2, 4] {
            for spec in [BackendSpec::eswitch(), BackendSpec::ovs()] {
                let seen: Arc<Mutex<Vec<Vec<u32>>>> = Arc::new(Mutex::new(Vec::new()));
                let sink_seen = Arc::clone(&seen);
                let sink: VerdictSink = Arc::new(move |_, _packet, verdict: &Verdict| {
                    sink_seen.lock().unwrap().push(verdict.outputs.to_vec());
                });
                let (switch, mut dispatcher) = ShardedSwitch::launch_with(spec, acl::build_pipeline(&acl::StatefulAclConfig::default()), ShardedConfig {
                        workers,
                        ct: Some(patient_ct_config()),
                        ..ShardedConfig::default()
                    }, LaunchParts { sink: Some(sink), ..LaunchParts::default() })
                .expect("pipeline compiles");
                for input in &inputs {
                    dispatcher.dispatch(input.clone());
                }
                dispatcher.flush();
                let report = switch.shutdown(dispatcher);
                let label = format!("{}x{workers}", spec.label());

                let got = seen.lock().unwrap();
                prop_assert_eq!(got.len(), inputs.len(), "{}: verdict count", &label);
                if workers == 1 {
                    // One shard processes in dispatch order: exact sequence.
                    for (i, (g, w)) in got.iter().zip(want_verdicts.iter()).enumerate() {
                        prop_assert_eq!(
                            g,
                            &w.outputs.to_vec(),
                            "{}: verdict sequence diverged at {}", &label, i
                        );
                    }
                } else {
                    prop_assert_eq!(
                        multiset(got.iter().cloned()),
                        want_multiset.clone(),
                        "{}: verdict multiset diverged", &label
                    );
                }

                // Shard-local state must aggregate to the single-engine
                // truth and satisfy the conservation identity per shard.
                let per_shard = report.ct_per_shard.as_ref().expect("ct stats recorded");
                prop_assert_eq!(per_shard.len(), workers, "{}", &label);
                for (shard, snap) in per_shard.iter().enumerate() {
                    prop_assert!(
                        snap.identity_holds(),
                        "{}: shard {} identity violated: {:?}", &label, shard, snap
                    );
                }
                let merged = report.ct_merged().expect("ct stats recorded");
                prop_assert_eq!(merged, want_snap, "{}: merged ct counters diverged", &label);
            }
        }
    }
}
