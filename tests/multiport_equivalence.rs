//! Multi-port differential suite: the per-port-dispatcher front end must be
//! invisible to the traffic.
//!
//! Identical traffic is replayed through two deployments of the multi-port
//! runtime: one ingress port behind a single dispatcher (the PR-6 shape),
//! and every port active behind per-port dispatchers over the full
//! per-(port, shard) SPSC ring matrix. Per flow, both runs must produce
//! identical verdict sequences and byte-identical frames — including when a
//! bucket-migration storm is injected at the stream's midpoint through the
//! barrier-quiesce remap (`MultiPortSwitch::remap_bucket`), and on both
//! datapath backends. On the wire side, every output port must carry the
//! same multiset of frames in both deployments. Every packet in those runs
//! carries the RX parse stamp (it entered through a `Port`); the bare
//! datapaths, fed the same trace unstamped and one packet at a time, must
//! log the same verdicts and bytes.
//!
//! A final test pins the classifier contract: controller-bound traffic
//! steered with `ClassifyAction::Steer` only ever lands on its designated
//! shard, from every ingress port, while ordinary traffic still spreads.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use conntrack::bucket_of;
use eswitch::runtime::EswitchRuntime;
use netdev::classify::{Classifier, ClassifyAction};
use netdev::{MatchSpec, PortSet};
use openflow::flow_match::FlowMatch;
use openflow::instruction::terminal_actions;
use openflow::{Action, Field, FlowEntry, Pipeline};
use ovsdp::OvsDatapath;
use pkt::builder::PacketBuilder;
use pkt::{parse, Packet, ParseDepth};
use shard::rss::rss_hash;
use shard::{BackendSpec, MultiPortConfig, MultiPortSwitch, VerdictSink};

const PORTS: u32 = 4;
const SHARDS: usize = 2;
const FLOWS: u16 = 16;
const ROUNDS: usize = 40;

/// A pipeline steering by TCP destination port — deliberately independent
/// of `in_port`, so the same frame takes the same verdict whichever ingress
/// port carried it: 1000+i → Output(i % PORTS), catch-all drop.
fn pipeline() -> Pipeline {
    let mut p = Pipeline::with_tables(1);
    let t = p.table_mut(0).unwrap();
    for i in 0..FLOWS {
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, u128::from(1000 + i)),
            100,
            terminal_actions(vec![Action::Output(u32::from(i) % PORTS)]),
        ));
    }
    t.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
    p
}

/// Flow `flow`'s `seq`-th packet: distinct payload per packet so frame
/// comparisons are meaningful, distinct `tcp_src` per flow so flows are
/// identifiable from the frame alone (the `in_port` metadata differs
/// between deployments by design).
fn flow_packet(flow: u16, seq: usize) -> Packet {
    PacketBuilder::tcp()
        .tcp_dst(1000 + flow)
        .tcp_src(4000 + flow)
        .payload(&[flow as u8, seq as u8, (seq >> 8) as u8])
        .build()
}

/// The trace: ROUNDS interleaved packets per flow.
fn trace() -> Vec<(u16, Packet)> {
    let mut inputs = Vec::new();
    for seq in 0..ROUNDS {
        for flow in 0..FLOWS {
            inputs.push((flow, flow_packet(flow, seq)));
        }
    }
    inputs
}

/// What one run observed for one flow, in that flow's processing order.
type FlowLog = Vec<(Vec<u8>, Vec<u32>)>;

/// Runs the trace through a multi-port launch. `ingress_ports == 1` sends
/// everything through port 0 (single dispatcher); otherwise flow `f` enters
/// on port `f % ingress_ports`, one consistent port per flow so in-flow
/// order is preserved. With `remap`, every bucket the stream occupies is
/// re-homed to the opposite shard at the midpoint through the barrier
/// quiesce. Returns per-flow logs keyed by `tcp_src` plus the per-port
/// egress frames (sorted multiset).
fn run_multiport(
    spec: BackendSpec,
    ingress_ports: u32,
    remap: bool,
) -> (HashMap<u16, FlowLog>, Vec<Vec<Vec<u8>>>, u64) {
    let ports = Arc::new(PortSet::with_ports(PORTS));
    type Seen = Arc<Mutex<Vec<(u16, Vec<u8>, Vec<u32>)>>>;
    let seen: Seen = Arc::new(Mutex::new(Vec::new()));
    let sink_seen = Arc::clone(&seen);
    let sink: VerdictSink = Arc::new(move |_shard, packet: &Packet, verdict| {
        let headers = parse(packet.data(), ParseDepth::L4);
        let flow_key = headers.l4_src(packet.data()).expect("tcp frame") - 4000;
        sink_seen.lock().unwrap().push((
            flow_key,
            packet.data().to_vec(),
            verdict.outputs.as_slice().to_vec(),
        ));
    });
    let mut switch = MultiPortSwitch::launch_with_sink(
        spec,
        pipeline(),
        MultiPortConfig {
            shards: SHARDS,
            ..MultiPortConfig::default()
        },
        Arc::clone(&ports),
        Some(sink),
    )
    .expect("pipeline compiles");

    let inputs = trace();
    let ingress = |flow: u16| u32::from(flow) % ingress_ports;
    let split = inputs.len() / 2;
    for (flow, packet) in &inputs[..split] {
        assert!(ports.get(ingress(*flow)).unwrap().inject(packet.clone()));
    }
    let mut remaps = 0u64;
    if remap {
        // Re-home every bucket the stream occupies — hashes cover the
        // stamped in_port, so probe with the ingress port each flow uses.
        let mut buckets: Vec<usize> = inputs
            .iter()
            .map(|(flow, packet)| {
                let mut probe = packet.clone();
                probe.in_port = ingress(*flow);
                bucket_of(rss_hash(&probe))
            })
            .collect();
        buckets.sort_unstable();
        buckets.dedup();
        for bucket in buckets {
            let owner = switch.table().owner(bucket);
            switch.remap_bucket(bucket, (owner + 1) % SHARDS);
            remaps += 1;
        }
    }
    for (flow, packet) in &inputs[split..] {
        assert!(ports.get(ingress(*flow)).unwrap().inject(packet.clone()));
    }
    let report = switch.shutdown();
    assert_eq!(
        report.dispatched,
        inputs.len() as u64,
        "dispatch lost frames"
    );
    let processed: u64 = report.per_shard.iter().map(|s| s.packets).sum();
    assert_eq!(processed, inputs.len() as u64, "processing lost frames");

    // Drain the wire side: per-port egress as a sorted frame multiset.
    let mut egress: Vec<Vec<Vec<u8>>> = Vec::new();
    for port in ports.iter() {
        assert_eq!(port.stats().tx.drops(), 0, "egress dropped frames");
        let mut drained = Vec::new();
        while port.tx_drain_into(&mut drained, 256) > 0 {}
        let mut frames: Vec<Vec<u8>> = drained.iter().map(|p| p.data().to_vec()).collect();
        frames.sort_unstable();
        egress.push(frames);
    }

    let mut flows: HashMap<u16, FlowLog> = HashMap::new();
    for (flow, frame, outputs) in seen.lock().unwrap().drain(..) {
        flows.entry(flow).or_default().push((frame, outputs));
    }
    (flows, egress, remaps)
}

/// The per-flow log of the bare datapath behind `spec`, fed the trace one
/// unstamped packet at a time (no port, no dispatcher, no ring).
fn run_unstamped(spec: BackendSpec) -> HashMap<u16, FlowLog> {
    let eswitch = EswitchRuntime::compile(pipeline()).expect("pipeline compiles");
    let ovs = OvsDatapath::new(pipeline());
    let mut flows: HashMap<u16, FlowLog> = HashMap::new();
    for (flow, mut packet) in trace() {
        assert!(packet.parsed().is_none());
        let verdict = match spec {
            BackendSpec::Eswitch(_) => eswitch.process(&mut packet),
            BackendSpec::Ovs(_) => ovs.process(&mut packet),
        };
        let log = (packet.data().to_vec(), verdict.outputs.as_slice().to_vec());
        flows.entry(flow).or_default().push(log);
    }
    flows
}

/// The differential assertion: the single-dispatcher and per-port-
/// dispatcher deployments must be indistinguishable per flow and on the
/// wire, and agree with the bare datapath on unstamped packets.
fn assert_front_ends_agree(label: &str, spec: BackendSpec, remap: bool) {
    let (want, want_egress, _) = run_multiport(spec, 1, false);
    let (got, got_egress, remaps) = run_multiport(spec, PORTS, remap);
    assert_eq!(
        want,
        run_unstamped(spec),
        "{label}: stamped and unstamped packets diverged"
    );

    if remap {
        assert!(remaps > 0, "{label}: remap run executed no migrations");
    }
    assert_eq!(
        got.len(),
        want.len(),
        "{label}: flow population diverged across front ends"
    );
    for (flow, want_log) in &want {
        let got_log = got
            .get(flow)
            .unwrap_or_else(|| panic!("{label}: flow {flow} lost in the multi-port run"));
        assert_eq!(
            got_log.len(),
            want_log.len(),
            "{label}: flow {flow} packet count diverged"
        );
        for (i, ((got_frame, got_out), (want_frame, want_out))) in
            got_log.iter().zip(want_log.iter()).enumerate()
        {
            assert_eq!(
                got_out, want_out,
                "{label}: flow {flow} verdict diverged at its packet {i}"
            );
            assert_eq!(
                got_frame, want_frame,
                "{label}: flow {flow} frame bytes diverged at its packet {i}"
            );
        }
    }
    assert_eq!(
        got_egress, want_egress,
        "{label}: wire-side egress diverged across front ends"
    );
}

#[test]
fn per_port_dispatchers_match_single_dispatcher() {
    for spec in [BackendSpec::eswitch(), BackendSpec::ovs()] {
        assert_front_ends_agree(&format!("static/{}", spec.label()), spec, false);
    }
}

#[test]
fn per_port_dispatchers_match_across_a_midstream_remap_storm() {
    for spec in [BackendSpec::eswitch(), BackendSpec::ovs()] {
        assert_front_ends_agree(&format!("remap/{}", spec.label()), spec, true);
    }
}

#[test]
fn classifier_steering_isolates_controller_traffic() {
    const CONTROLLER_SHARD: usize = 3;
    let ports = Arc::new(PortSet::with_ports(PORTS));
    type Seen = Arc<Mutex<Vec<(usize, u16)>>>;
    let seen: Seen = Arc::new(Mutex::new(Vec::new()));
    let sink_seen = Arc::clone(&seen);
    let sink: VerdictSink = Arc::new(move |shard, packet: &Packet, _verdict| {
        let headers = parse(packet.data(), ParseDepth::L4);
        let dst = headers.l4_dst(packet.data()).unwrap_or(0);
        sink_seen.lock().unwrap().push((shard, dst));
    });
    // OpenFlow-over-TCP to the controller pins to the designated shard;
    // everything else hashes.
    let classifier = Classifier::new().rule(
        MatchSpec::any().ip_proto(6).l4_dst(6653),
        ClassifyAction::Steer(CONTROLLER_SHARD),
    );
    let switch = MultiPortSwitch::launch_with_sink(
        BackendSpec::eswitch(),
        pipeline(),
        MultiPortConfig {
            shards: 4,
            classifier,
            ..MultiPortConfig::default()
        },
        Arc::clone(&ports),
        Some(sink),
    )
    .expect("pipeline compiles");
    for seq in 0..64usize {
        for pid in 0..PORTS {
            let port = ports.get(pid).unwrap();
            assert!(port.inject(
                PacketBuilder::tcp()
                    .tcp_dst(6653)
                    .tcp_src(5000 + pid as u16)
                    .payload(&[seq as u8])
                    .build()
            ));
            assert!(port.inject(flow_packet((seq % usize::from(FLOWS)) as u16, seq)));
        }
    }
    switch.shutdown();
    let seen = seen.lock().unwrap();
    let (steered, hashed): (Vec<_>, Vec<_>) = seen.iter().partition(|(_, dst)| *dst == 6653);
    assert_eq!(steered.len(), 64 * PORTS as usize);
    assert!(
        steered.iter().all(|(shard, _)| *shard == CONTROLLER_SHARD),
        "controller-bound traffic leaked off its designated shard"
    );
    assert!(
        hashed.iter().any(|(shard, _)| *shard != CONTROLLER_SHARD),
        "ordinary traffic never spread beyond the designated shard"
    );
}
