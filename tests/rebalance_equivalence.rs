//! Rebalance equivalence: moving flow buckets between shards mid-stream
//! must be invisible to the traffic.
//!
//! Identical packet streams are dispatched twice through the sharded
//! runtime: once with the launch-time static indirection table, once with
//! bucket remaps injected halfway through the trace (every active
//! connection's bucket is re-homed via `RssDispatcher::remap_bucket` — the
//! same quiesce/export/import handshake the elastic rebalancer drives).
//! Per-flow, the two runs must produce identical verdict sequences and
//! byte-identical output frames, and the aggregated conntrack counters
//! must agree — i.e. the remap migrated connection state (verdict pinning),
//! NAT port allocations (rewrite pinning), and LB backend choices intact,
//! and reordered nothing within any flow.
//!
//! Three stateful use cases, both backends (the OVS run additionally
//! exercises the moved-flow EMC/megaflow invalidation; the ESWITCH replica
//! is placement-independent):
//!
//! * **Stateful ACL** — bidirectional proptest traces; established-only
//!   reverse path means a dropped migration would flip reply verdicts.
//! * **SNAT edge** — forward streams from unique clients; the bucket-strided
//!   port allocator must survive the move so rewrites stay byte-identical.
//! * **L4 LB** — connections pinned to consistent-hash backends; the pinned
//!   choice must follow the connection to its new shard.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use conntrack::{bucket_of, CtConfig};
use openflow::ct::CtTuple;
use openflow::Pipeline;
use pkt::builder::PacketBuilder;
use pkt::{parse, Ipv4Addr4, Packet, ParseDepth, TcpFlags};
use proptest::prelude::*;
use shard::{
    rss_hash_symmetric, BackendSpec, LaunchParts, ShardedConfig, ShardedSwitch, VerdictSink,
};
use workloads::usecases::{PORT_NET, PORT_USER};
use workloads::{l4_lb, snat_edge, stateful_acl_gateway as acl, L4LbConfig};

/// Idle timeouts long enough that no connection ages out mid-trace (the
/// workers tick real time; the comparison needs state to survive both
/// runs identically regardless of wall-clock jitter).
fn patient(mut config: CtConfig) -> CtConfig {
    config.timeouts = conntrack::CtTimeouts {
        tcp_syn: 1 << 40,
        tcp_established: 1 << 40,
        tcp_fin: 1 << 40,
        udp_new: 1 << 40,
        udp_established: 1 << 40,
    };
    config
}

/// What one run observed for one flow, in that flow's processing order.
type FlowLog = Vec<(Vec<u8>, Vec<u32>)>;

/// The raw sink feed: (flow hash, frame bytes, verdict outputs).
type SinkLog = Arc<Mutex<Vec<(u64, Vec<u8>, Vec<u32>)>>>;

/// Runs `inputs` through a 2-shard launch of (`spec`, `pipeline`). With
/// `remap` set, every distinct flow bucket seen in the stream is re-homed
/// to the *other* shard after `split` packets — a migration storm squarely
/// in the middle of the live connections. Returns the per-flow logs keyed
/// by the symmetric RSS hash (stamped on each packet at dispatch, so the
/// key survives NAT rewrites) plus the merged conntrack snapshot and the
/// executed remap count.
fn run_sharded(
    spec: BackendSpec,
    pipeline: Pipeline,
    ct: CtConfig,
    inputs: &[Packet],
    remap: bool,
) -> (HashMap<u64, FlowLog>, conntrack::CtSnapshot, u64) {
    let seen: SinkLog = Arc::new(Mutex::new(Vec::new()));
    let sink_seen = Arc::clone(&seen);
    let sink: VerdictSink = Arc::new(move |_shard, packet: &Packet, verdict| {
        sink_seen.lock().unwrap().push((
            packet.rss_hash().expect("dispatch stamps the hash"),
            packet.data().to_vec(),
            verdict.outputs.to_vec(),
        ));
    });
    let (switch, mut dispatcher) = ShardedSwitch::launch_with(
        spec,
        pipeline,
        ShardedConfig {
            workers: 2,
            ct: Some(ct),
            ..ShardedConfig::default()
        },
        LaunchParts {
            sink: Some(sink),
            ..LaunchParts::default()
        },
    )
    .expect("pipeline compiles");
    assert!(dispatcher.is_symmetric(), "ct launch uses symmetric RSS");

    let split = inputs.len() / 2;
    for input in &inputs[..split] {
        dispatcher.dispatch(input.clone());
    }
    if remap {
        dispatcher.flush();
        // Re-home every bucket the stream touches — connections mid-trace
        // included — to the opposite shard.
        let mut buckets: Vec<usize> = inputs
            .iter()
            .map(|p| bucket_of(rss_hash_symmetric(p)))
            .collect();
        buckets.sort_unstable();
        buckets.dedup();
        for bucket in buckets {
            let owner = dispatcher.table().owner(bucket);
            dispatcher.remap_bucket(bucket, 1 - owner);
        }
    }
    for input in &inputs[split..] {
        dispatcher.dispatch(input.clone());
    }
    dispatcher.flush();
    let remaps = dispatcher.remaps();
    let report = switch.shutdown(dispatcher);
    for (shard, snap) in report
        .ct_per_shard
        .as_ref()
        .expect("ct stats recorded")
        .iter()
        .enumerate()
    {
        assert!(
            snap.identity_holds(),
            "shard {shard} ct identity violated after remap: {snap:?}"
        );
    }
    let merged = report.ct_merged().expect("ct stats recorded");

    let mut flows: HashMap<u64, FlowLog> = HashMap::new();
    for (hash, frame, outputs) in seen.lock().unwrap().drain(..) {
        flows.entry(hash).or_default().push((frame, outputs));
    }
    (flows, merged, remaps)
}

/// The differential assertion: a static run and a mid-stream-remapped run
/// of the same inputs must be indistinguishable per flow.
fn assert_remap_invisible(
    label: &str,
    spec: BackendSpec,
    build: impl Fn() -> Pipeline,
    ct: CtConfig,
    inputs: &[Packet],
) {
    let (want, want_ct, baseline_remaps) = run_sharded(spec, build(), ct.clone(), inputs, false);
    let (got, got_ct, remaps) = run_sharded(spec, build(), ct, inputs, true);

    assert_eq!(baseline_remaps, 0, "{label}: static run must not remap");
    assert!(remaps > 0, "{label}: remap run executed no migrations");
    assert_eq!(
        got.len(),
        want.len(),
        "{label}: flow population diverged across the remap"
    );
    for (hash, want_log) in &want {
        let got_log = got
            .get(hash)
            .unwrap_or_else(|| panic!("{label}: flow {hash:#x} lost across the remap"));
        assert_eq!(
            got_log.len(),
            want_log.len(),
            "{label}: flow {hash:#x} packet count diverged"
        );
        for (i, ((got_frame, got_out), (want_frame, want_out))) in
            got_log.iter().zip(want_log.iter()).enumerate()
        {
            assert_eq!(
                got_out, want_out,
                "{label}: flow {hash:#x} verdict diverged at its packet {i}"
            );
            assert_eq!(
                got_frame, want_frame,
                "{label}: flow {hash:#x} frame bytes (NAT/LB rewrites) diverged at its packet {i}"
            );
        }
    }
    // The remap run's snapshot additionally records the migrations
    // themselves; every other counter — creations, hits, denials,
    // evictions, live population — must be untouched by the moves.
    assert!(
        got_ct.migrated_out > 0 && got_ct.migrated_in == got_ct.migrated_out,
        "{label}: migration counters off: {got_ct:?}"
    );
    let mut normalized = got_ct;
    normalized.migrated_in = want_ct.migrated_in;
    normalized.migrated_out = want_ct.migrated_out;
    assert_eq!(
        normalized, want_ct,
        "{label}: merged conntrack counters diverged across the remap"
    );
}

fn backends() -> [BackendSpec; 2] {
    [BackendSpec::eswitch(), BackendSpec::ovs()]
}

/// A client frame of connection `conn` for the ACL gateway (even ids TCP,
/// odd UDP).
fn acl_forward(conn: usize, flags: TcpFlags) -> Packet {
    let src = Ipv4Addr4::new(10, 0, (conn >> 8) as u8, conn as u8);
    let dst = Ipv4Addr4::new(198, 51, 100, (conn % 200) as u8 + 1);
    let builder = if conn.is_multiple_of(2) {
        PacketBuilder::tcp()
            .tcp_src(1024 + conn as u16)
            .tcp_dst(80)
            .tcp_flags(flags)
    } else {
        PacketBuilder::udp().udp_src(1024 + conn as u16).udp_dst(53)
    };
    builder
        .ipv4_src(src)
        .ipv4_dst(dst)
        .in_port(PORT_USER)
        .build()
}

/// The peer's answer to `frame` as forwarded.
fn reply_to(frame: &Packet, flags: TcpFlags) -> Packet {
    let headers = parse(frame.data(), ParseDepth::L4);
    let t = CtTuple::from_frame(frame.data(), &headers).expect("replyable frame");
    let builder = if t.proto == 6 {
        PacketBuilder::tcp()
            .tcp_src(t.dst_port)
            .tcp_dst(t.src_port)
            .tcp_flags(flags)
    } else {
        PacketBuilder::udp().udp_src(t.dst_port).udp_dst(t.src_port)
    };
    builder
        .ipv4_src(Ipv4Addr4::from_u32(t.dst_ip))
        .ipv4_dst(Ipv4Addr4::from_u32(t.src_ip))
        .in_port(PORT_NET)
        .build()
}

fn syn() -> TcpFlags {
    TcpFlags {
        syn: true,
        ..Default::default()
    }
}

fn ack() -> TcpFlags {
    TcpFlags {
        ack: true,
        ..Default::default()
    }
}

/// ACL trace: open `conns` connections, then interleave forward/reply
/// traffic so every connection is established and mid-conversation when
/// the remap storm hits (the stream's second half keeps both directions
/// flowing across the migrated table).
fn acl_trace(conns: usize, rounds: usize) -> Vec<Packet> {
    let mut inputs = Vec::new();
    for conn in 0..conns {
        inputs.push(acl_forward(conn, syn()));
    }
    for _ in 0..rounds {
        for conn in 0..conns {
            let fwd = acl_forward(conn, ack());
            inputs.push(reply_to(&fwd, ack()));
            inputs.push(fwd);
        }
    }
    inputs
}

#[test]
fn acl_verdicts_survive_a_midstream_remap_storm() {
    for spec in backends() {
        assert_remap_invisible(
            &format!("acl/{}", spec.label()),
            spec,
            || acl::build_pipeline(&acl::StatefulAclConfig::default()),
            patient(acl::ct_config()),
            &acl_trace(24, 4),
        );
    }
}

#[test]
fn snat_rewrites_survive_a_midstream_remap_storm() {
    // Unique clients through the SNAT edge: each connection holds a
    // bucket-strided source-port allocation that must migrate with it.
    let mut inputs = Vec::new();
    for conn in 0..32 {
        inputs.push(acl_forward(conn * 2, syn())); // even ids: TCP only
    }
    for _ in 0..3 {
        for conn in 0..32 {
            inputs.push(acl_forward(conn * 2, ack()));
        }
    }
    for spec in backends() {
        assert_remap_invisible(
            &format!("snat/{}", spec.label()),
            spec,
            || snat_edge::build_pipeline(&snat_edge::SnatEdgeConfig::default()),
            patient(snat_edge::ct_config()),
            &inputs,
        );
    }
}

#[test]
fn lb_backend_pinning_survives_a_midstream_remap_storm() {
    // Requests from distinct clients to the VIP: the consistent-hash
    // backend choice is pinned per connection at first packet and must
    // follow the connection's bucket to its new shard.
    let config = L4LbConfig::default();
    let mut inputs = Vec::new();
    let request = |client: usize, flags: TcpFlags| {
        PacketBuilder::tcp()
            .tcp_src(2048 + client as u16)
            .tcp_dst(80)
            .tcp_flags(flags)
            .ipv4_src(Ipv4Addr4::new(172, 16, (client >> 8) as u8, client as u8))
            .ipv4_dst(l4_lb::vip())
            .in_port(PORT_NET)
            .build()
    };
    for client in 0..32 {
        inputs.push(request(client, syn()));
    }
    for _ in 0..3 {
        for client in 0..32 {
            inputs.push(request(client, ack()));
        }
    }
    for spec in backends() {
        assert_remap_invisible(
            &format!("l4_lb/{}", spec.label()),
            spec,
            || l4_lb::build_pipeline(&config),
            patient(l4_lb::ct_config(&config)),
            &inputs,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomised ACL differential: arbitrary interleavings of forward and
    /// reply events across 16 connections, with the full bucket-migration
    /// storm injected at the stream's midpoint, stay per-flow identical to
    /// the static run on both backends.
    #[test]
    fn random_acl_traces_are_remap_invariant(
        events in prop::collection::vec((0usize..16, any::<bool>(), 0u8..4), 8..64)
    ) {
        let mut last_forward: HashMap<usize, Packet> = HashMap::new();
        let mut inputs = Vec::with_capacity(events.len());
        for (conn, reply, sel) in &events {
            let flags = match sel % 4 {
                0 => syn(),
                1 => ack(),
                2 => TcpFlags { fin: true, ack: true, ..Default::default() },
                _ => TcpFlags { rst: true, ..Default::default() },
            };
            if *reply {
                let base = last_forward
                    .get(conn)
                    .cloned()
                    .unwrap_or_else(|| acl_forward(*conn, syn()));
                inputs.push(reply_to(&base, flags));
            } else {
                let fwd = acl_forward(*conn, flags);
                last_forward.insert(*conn, fwd.clone());
                inputs.push(fwd);
            }
        }
        for spec in backends() {
            assert_remap_invisible(
                &format!("acl-prop/{}", spec.label()),
                spec,
                || acl::build_pipeline(&acl::StatefulAclConfig::default()),
                patient(acl::ct_config()),
                &inputs,
            );
        }
    }
}
