//! Multi-port differential suite: the per-port-dispatcher front end must be
//! invisible to the traffic.
//!
//! Identical traffic is replayed through two port-attached launches of the
//! sharded runtime: one ingress port behind a single dispatcher,
//! and every port active behind per-port dispatchers over the full
//! per-(port, shard) SPSC ring matrix. Per flow, both runs must produce
//! identical verdict sequences and byte-identical frames — including when a
//! bucket-migration storm is injected at the stream's midpoint through the
//! one remap protocol (`RssDispatcher::remap_bucket`), and on both
//! datapath backends. On the wire side, every output port must carry the
//! same multiset of frames in both deployments. Every packet in those runs
//! carries the RX parse stamp (it entered through a `Port`); the bare
//! datapaths, fed the same trace unstamped and one packet at a time, must
//! log the same verdicts and bytes.
//!
//! One test pins the classifier contract: controller-bound traffic
//! steered with `ClassifyAction::Steer` only ever lands on its designated
//! shard, from every ingress port, while ordinary traffic still spreads.
//!
//! The port stages are stages of the one sharded runtime, so a port-attached
//! launch has everything the runtime has. Two cases hold it to that: a
//! `flow_mod` issued mid-trace reaches every shard of a 4-port launch, and
//! the stateful `stateful_acl_gateway` and `snat_edge` pipelines run over
//! 4 shards with conntrack behind four racing port dispatchers exactly as
//! they do behind the one caller-owned dispatcher — per connection, across
//! two remap storms that migrate live connection and NAT state.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use conntrack::{bucket_of, CtConfig, CtTimeouts};
use eswitch::runtime::EswitchRuntime;
use netdev::classify::{Classifier, ClassifyAction};
use netdev::{MatchSpec, PortSet};
use openflow::ct::CtTuple;
use openflow::flow_match::FlowMatch;
use openflow::instruction::terminal_actions;
use openflow::{Action, Datapath, Field, FlowEntry, FlowMod, Pipeline};
use ovsdp::OvsDatapath;
use pkt::builder::PacketBuilder;
use pkt::{parse, Ipv4Addr4, Packet, ParseDepth, TcpFlags};
use shard::rss::rss_hash;
use shard::{
    rss_hash_symmetric, BackendSpec, LaunchParts, RssDispatcher, ShardedConfig, ShardedSwitch,
    VerdictSink,
};
use workloads::usecases::{PORT_NET, PORT_USER};
use workloads::{snat_edge, stateful_acl_gateway as acl};

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
/// re-homed to the opposite shard at the midpoint through the remap
/// handshake. Returns per-flow logs keyed by `tcp_src` plus the per-port
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
    let (switch, mut dispatcher) = ShardedSwitch::launch_with(
        spec,
        pipeline(),
        ShardedConfig {
            workers: SHARDS,
            ..ShardedConfig::default()
        },
        LaunchParts {
            ports: Some((Arc::clone(&ports), Classifier::new())),
            sink: Some(sink),
            ..LaunchParts::default()
        },
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
            let owner = dispatcher.table().owner(bucket);
            dispatcher.remap_bucket(bucket, (owner + 1) % SHARDS);
            remaps += 1;
        }
    }
    for (flow, packet) in &inputs[split..] {
        assert!(ports.get(ingress(*flow)).unwrap().inject(packet.clone()));
    }
    let report = switch.shutdown(dispatcher);
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
    let datapath: Box<dyn Datapath> = match spec {
        BackendSpec::Eswitch => {
            Box::new(EswitchRuntime::compile(pipeline()).expect("pipeline compiles"))
        }
        BackendSpec::Ovs(_) => Box::new(OvsDatapath::new(pipeline())),
    };
    let mut flows: HashMap<u16, FlowLog> = HashMap::new();
    for (flow, mut packet) in trace() {
        assert!(packet.parsed().is_none());
        let verdict = datapath.process(&mut packet);
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
    let (switch, dispatcher) = ShardedSwitch::launch_with(
        BackendSpec::eswitch(),
        pipeline(),
        ShardedConfig {
            workers: 4,
            ..ShardedConfig::default()
        },
        LaunchParts {
            ports: Some((Arc::clone(&ports), classifier)),
            sink: Some(sink),
            ..LaunchParts::default()
        },
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
    switch.shutdown(dispatcher);
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

/// Spins until the switch has processed `target` ingress packets.
fn await_processed(switch: &ShardedSwitch, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while switch.stats().packets < target {
        assert!(
            Instant::now() < deadline,
            "switch stalled short of {target}"
        );
        std::thread::yield_now();
    }
}

#[test]
fn a_midstream_flow_mod_reaches_every_shard_of_a_four_port_launch() {
    let ports = Arc::new(PortSet::with_ports(PORTS));
    let (switch, dispatcher) = ShardedSwitch::launch_with(
        BackendSpec::eswitch(),
        pipeline(),
        ShardedConfig {
            workers: 4,
            ..ShardedConfig::default()
        },
        LaunchParts {
            ports: Some((Arc::clone(&ports), Classifier::new())),
            ..LaunchParts::default()
        },
    )
    .expect("pipeline compiles");
    let inputs = trace();
    let inject = |flow: u16, packet: &Packet| {
        let port = ports.get(u32::from(flow) % PORTS).unwrap();
        assert!(port.inject(packet.clone()));
    };
    let (before, after) = inputs.split_at(inputs.len() / 2);
    before
        .iter()
        .for_each(|(flow, packet)| inject(*flow, packet));
    // A destination the base pipeline drops, now forwarded to port 1.
    let added = FlowMatch::any().with_exact(Field::TcpDst, 2000);
    let forward = terminal_actions(vec![Action::Output(1)]);
    switch
        .flow_mod(&FlowMod::add(0, added, 100, forward))
        .expect("valid flow-mod");
    after
        .iter()
        .for_each(|(flow, packet)| inject(*flow, packet));
    let deadline = Instant::now() + Duration::from_secs(30);
    while switch.shard_epochs().iter().any(|e| *e != switch.epoch()) {
        assert!(Instant::now() < deadline, "{:?}", switch.shard_epochs());
        std::thread::yield_now();
    }
    assert_eq!(switch.shard_epochs(), vec![1; 4]);
    // Every shard now serves the new rule, whichever port a frame enters by.
    let probes = 4 * u64::from(PORTS);
    for seq in 0..probes {
        let probe = PacketBuilder::tcp().tcp_dst(2000).tcp_src(seq as u16);
        let port = ports.get(seq as u32 % PORTS).unwrap();
        assert!(port.inject(probe.build()));
    }
    let report = switch.shutdown(dispatcher);
    assert_eq!(report.epoch, 1);
    assert_eq!(report.processed.packets, inputs.len() as u64 + probes);
    let mut wire = Vec::new();
    while ports.get(1).unwrap().tx_drain_into(&mut wire, 256) > 0 {}
    let forwarded = |p: &&Packet| parse(p.data(), ParseDepth::L4).l4_dst(p.data()) == Some(2000);
    assert_eq!(wire.iter().filter(forwarded).count() as u64, probes);
}

// ---- stateful pipelines: four port dispatchers vs the caller's one --------

const CT_SHARDS: usize = 4;
const CONNS: usize = 48;
/// The switch's user-side and net-side ports. The workload pipelines tell
/// direction by `in_port` ([`PORT_USER`] / [`PORT_NET`]), so the four-port
/// topology doubles each side and [`four_port`] twins the rules.
const USER_PORTS: [u32; 2] = [PORT_USER, 2];
const NET_PORTS: [u32; 2] = [PORT_NET, 3];

/// `pipeline` with every `in_port = p` rule twinned for port `p + 2`.
fn four_port(mut pipeline: Pipeline) -> Pipeline {
    let table = pipeline.table_mut(0).unwrap();
    let twins: Vec<FlowEntry> = table
        .entries()
        .iter()
        .filter_map(|entry| {
            let in_port = entry.flow_match.field(Field::InPort)?.value;
            let mut twin = entry.flow_match.clone();
            twin.remove_field(Field::InPort);
            Some(FlowEntry::new(
                twin.with_exact(Field::InPort, in_port + 2),
                entry.priority,
                entry.instructions.clone(),
            ))
        })
        .collect();
    twins.into_iter().for_each(|twin| {
        table.insert(twin);
    });
    pipeline
}

/// Idle timeouts no trace outlives (workers tick once per burst, and burst
/// boundaries differ between front ends).
fn patient(mut config: CtConfig) -> CtConfig {
    config.timeouts = CtTimeouts {
        tcp_syn: 1 << 40,
        tcp_established: 1 << 40,
        tcp_fin: 1 << 40,
        udp_new: 1 << 40,
        udp_established: 1 << 40,
    };
    config
}

const SERVERS: u32 = 0xc633_6400; // 198.51.100.0/24, one server per connection

fn tuple_of(frame: &[u8]) -> CtTuple {
    CtTuple::from_frame(frame, &parse(frame, ParseDepth::L4)).expect("tcp/ipv4 frame")
}

/// Connection `conn`'s client frame: 10.0.0.conn:1024+conn → its server.
fn client_frame(conn: usize, flags: TcpFlags) -> Packet {
    PacketBuilder::tcp()
        .ipv4_src(Ipv4Addr4::new(10, 0, 0, conn as u8))
        .ipv4_dst(Ipv4Addr4::from_u32(SERVERS + conn as u32 + 1))
        .tcp_src(1024 + conn as u16)
        .tcp_dst(80)
        .tcp_flags(flags)
        .payload(&[conn as u8])
        .build()
}

/// The server's answer to `forwarded` — the frame as the switch emitted it,
/// so a NAT translation is answered to the public endpoint.
fn server_frame(forwarded: &[u8], flags: TcpFlags) -> Packet {
    let t = tuple_of(forwarded);
    PacketBuilder::tcp()
        .ipv4_src(Ipv4Addr4::from_u32(t.dst_ip))
        .ipv4_dst(Ipv4Addr4::from_u32(t.src_ip))
        .tcp_src(t.dst_port)
        .tcp_dst(t.src_port)
        .tcp_flags(flags)
        .build()
}

/// Which connection a processed frame belongs to, and whether it is the
/// server's direction: the server address survives every translation.
fn conn_of(frame: &[u8]) -> (usize, bool) {
    let t = tuple_of(frame);
    let reply = t.src_ip & !0xff == SERVERS;
    let server = if reply { t.src_ip } else { t.dst_ip };
    assert_eq!(server & !0xff, SERVERS, "frame of no connection");
    ((server & 0xff) as usize - 1, reply)
}

/// `frame` with the client-side L4 port and the TCP checksum zeroed when it
/// carries the NAT pool's address: what is left must not depend on which
/// public port the connection was allocated.
fn modulo_public_port(frame: &[u8]) -> Vec<u8> {
    let l4 = usize::from(parse(frame, ParseDepth::L4).l4_offset);
    let t = tuple_of(frame);
    let mut out = frame.to_vec();
    if t.src_ip == snat_edge::public_ip().to_u32() {
        out[l4..l4 + 2].fill(0);
        out[l4 + 16..l4 + 18].fill(0);
    }
    out
}

/// One verdict a stateful launch's sink saw: (shard, processed frame,
/// outputs).
type Observed = (usize, Vec<u8>, Vec<u32>);
type Seen = Arc<Mutex<Vec<Observed>>>;

/// A 4-port × 4-shard ct launch of [`four_port`]`(pipeline)` whose sink logs
/// every verdict and costs the worker `sink_delay` per packet.
fn launch_stateful(
    spec: BackendSpec,
    pipeline: Pipeline,
    ct: CtConfig,
    sink_delay: Duration,
) -> (Arc<PortSet>, Seen, ShardedSwitch, RssDispatcher) {
    let ports = Arc::new(PortSet::with_ports(PORTS));
    let seen: Seen = Arc::new(Mutex::new(Vec::new()));
    let sink_seen = Arc::clone(&seen);
    let sink: VerdictSink = Arc::new(move |shard, packet: &Packet, verdict| {
        if !sink_delay.is_zero() {
            std::thread::sleep(sink_delay);
        }
        let outputs = verdict.outputs.as_slice().to_vec();
        let entry = (shard, packet.data().to_vec(), outputs);
        sink_seen.lock().unwrap().push(entry);
    });
    let (switch, dispatcher) = ShardedSwitch::launch_with(
        spec,
        four_port(pipeline),
        ShardedConfig {
            workers: CT_SHARDS,
            ct: Some(patient(ct)),
            ..ShardedConfig::default()
        },
        LaunchParts {
            ports: Some((Arc::clone(&ports), Classifier::new())),
            sink: Some(sink),
            ..LaunchParts::default()
        },
    )
    .expect("pipeline compiles");
    assert!(dispatcher.is_symmetric(), "ct launch uses symmetric RSS");
    (ports, seen, switch, dispatcher)
}

/// What one stateful run observed.
struct StatefulRun {
    /// Per connection, in processing order.
    flows: BTreeMap<usize, Vec<Observed>>,
    /// Per port, the sorted multiset of transmitted frames.
    egress: Vec<Vec<Vec<u8>>>,
    /// Connections whose server answered.
    replied: HashSet<usize>,
    ct: conntrack::CtSnapshot,
    remaps: u64,
}

/// Drives `CONNS` connections through a 4-port × 4-shard launch of
/// `pipeline`: SYN, storm, SYN+ACK, ACK, storm, ACK from the server, ACK.
/// Every phase offers one packet per connection and is waited out before the
/// next, so a connection's two directions — which enter by different ports —
/// cannot race; within a phase the dispatchers race freely. With
/// `through_ports` each frame enters by its port's own dispatcher; without,
/// the same frames carry the same `in_port` through the caller's dispatcher.
/// A storm re-homes every bucket a connection (or its translated reply
/// tuple) occupies to the next shard.
///
/// A NAT'd reply hashes by its *translated* tuple (`conntrack::bucket`'s
/// documented symmetric-RSS limitation), so on `snat_edge` a server answers
/// only where that tuple's shard is the connection's shard; the storms move
/// both buckets alike and keep it so.
fn drive_stateful(
    spec: BackendSpec,
    pipeline: Pipeline,
    ct: CtConfig,
    through_ports: bool,
) -> StatefulRun {
    let (ports, seen, switch, mut dispatcher) = launch_stateful(spec, pipeline, ct, Duration::ZERO);

    let mut offered = 0u64;
    let mut phase =
        |dispatcher: &mut RssDispatcher, side: [u32; 2], frames: Vec<(usize, Packet)>| {
            for (conn, mut frame) in frames {
                let port = side[conn % 2];
                if through_ports {
                    assert!(ports.get(port).unwrap().inject(frame));
                } else {
                    frame.in_port = port;
                    dispatcher.dispatch(frame);
                }
                offered += 1;
            }
            dispatcher.flush();
            await_processed(&switch, offered);
        };
    // The latest frame the switch forwarded for `conn` in the client's
    // direction, as the server sees it.
    let forwarded = |conn: usize| -> Vec<u8> {
        let seen = seen.lock().unwrap();
        let of_conn = |(_, frame, _): &&Observed| conn_of(frame) == (conn, false);
        seen.iter()
            .rev()
            .find(of_conn)
            .expect("forwarded")
            .1
            .clone()
    };
    let storm = |dispatcher: &mut RssDispatcher, frames: &mut dyn Iterator<Item = Packet>| {
        let mut buckets: Vec<usize> = frames.map(|p| bucket_of(rss_hash_symmetric(&p))).collect();
        buckets.sort_unstable();
        buckets.dedup();
        for bucket in buckets {
            let owner = dispatcher.table().owner(bucket);
            dispatcher.remap_bucket(bucket, (owner + 1) % CT_SHARDS);
        }
    };
    let flags = |syn, ack| TcpFlags {
        syn,
        ack,
        ..TcpFlags::default()
    };
    let from_clients = |f: TcpFlags| (0..CONNS).map(|c| (c, client_frame(c, f))).collect();

    phase(
        &mut dispatcher,
        USER_PORTS,
        from_clients(flags(true, false)),
    );
    let replied: HashSet<usize> = (0..CONNS)
        .filter(|&conn| {
            let reply = server_frame(&forwarded(conn), flags(true, true));
            let home = dispatcher.shard_for(&client_frame(conn, flags(true, false)));
            dispatcher.shard_for(&reply) == home
        })
        .collect();
    let from_servers = |f: TcpFlags| -> Vec<(usize, Packet)> {
        let answer = |&conn: &usize| (conn, server_frame(&forwarded(conn), f));
        replied.iter().map(answer).collect()
    };
    let occupied = |replies: Vec<(usize, Packet)>| {
        let clients = (0..CONNS).map(|c| client_frame(c, TcpFlags::default()));
        clients.chain(replies.into_iter().map(|(_, frame)| frame))
    };
    storm(
        &mut dispatcher,
        &mut occupied(from_servers(flags(true, true))),
    );
    phase(&mut dispatcher, NET_PORTS, from_servers(flags(true, true)));
    phase(
        &mut dispatcher,
        USER_PORTS,
        from_clients(flags(false, true)),
    );
    storm(
        &mut dispatcher,
        &mut occupied(from_servers(flags(false, true))),
    );
    phase(&mut dispatcher, NET_PORTS, from_servers(flags(false, true)));
    phase(
        &mut dispatcher,
        USER_PORTS,
        from_clients(flags(false, true)),
    );

    let remaps = dispatcher.remaps();
    let report = switch.shutdown(dispatcher);
    assert_eq!(report.processed.packets, offered);
    for (shard, snap) in report.ct_per_shard.as_ref().unwrap().iter().enumerate() {
        assert!(snap.identity_holds(), "shard {shard} ct identity: {snap:?}");
    }
    let egress = ports
        .iter()
        .map(|port| {
            assert_eq!(port.stats().tx.drops(), 0, "egress dropped frames");
            let mut drained = Vec::new();
            while port.tx_drain_into(&mut drained, 256) > 0 {}
            let mut frames: Vec<_> = drained
                .iter()
                .map(|p| modulo_public_port(p.data()))
                .collect();
            frames.sort_unstable();
            frames
        })
        .collect();
    let mut flows: BTreeMap<usize, Vec<_>> = BTreeMap::new();
    for (shard, frame, outputs) in seen.lock().unwrap().drain(..) {
        let (conn, _) = conn_of(&frame);
        flows.entry(conn).or_default().push((shard, frame, outputs));
    }
    StatefulRun {
        flows,
        egress,
        replied,
        ct: report.ct_merged().expect("ct launch"),
        remaps,
    }
}

/// The differential assertion for one stateful pipeline. `translated`: the
/// pipeline source-NATs, so frames are compared modulo the allocated port
/// and the allocation itself is checked.
fn assert_stateful_front_ends_agree(
    label: &str,
    spec: BackendSpec,
    build: impl Fn() -> Pipeline,
    ct: CtConfig,
    translated: bool,
) {
    let want = drive_stateful(spec, build(), ct.clone(), false);
    let got = drive_stateful(spec, build(), ct, true);
    for (side, run) in [("one dispatcher", &want), ("four ports", &got)] {
        let label = format!("{label}/{side}");
        assert!(run.ct.identity_holds(), "{label}: {:?}", run.ct);
        assert_eq!(run.ct.created, CONNS as u64, "{label}: {:?}", run.ct);
        assert!(
            run.remaps > 0 && run.ct.migrated_out > 0,
            "{label}: no storm moved a live connection ({} remaps, {:?})",
            run.remaps,
            run.ct
        );
        assert_eq!(run.ct.migrated_in, run.ct.migrated_out, "{label}");
        assert!(!run.replied.is_empty(), "{label}: no server answered");
        assert_eq!(run.flows.len(), CONNS, "{label}: connections lost");
        let mut public_ports = HashSet::new();
        for (conn, log) in &run.flows {
            let shards: HashSet<usize> = log.iter().map(|(shard, _, _)| *shard).collect();
            assert!(shards.len() > 1, "{label}: connection {conn} never moved");
            let client = tuple_of(client_frame(*conn, TcpFlags::default()).data());
            let mut allocated = HashSet::new();
            for (_, frame, outputs) in log {
                let t = tuple_of(frame);
                if conn_of(frame).1 {
                    // Delivered (and, under NAT, reverse-translated) to the
                    // client's own endpoint.
                    assert_eq!(outputs, &[PORT_USER], "{label}: connection {conn} reply");
                    assert_eq!((t.dst_ip, t.dst_port), (client.src_ip, client.src_port));
                } else {
                    assert_eq!(outputs, &[PORT_NET], "{label}: connection {conn}");
                    if translated {
                        assert_eq!(t.src_ip, snat_edge::public_ip().to_u32(), "{label}");
                        allocated.insert(t.src_port);
                    } else {
                        assert_eq!(t, client, "{label}: connection {conn} rewritten");
                    }
                }
            }
            if translated {
                assert_eq!(
                    allocated.len(),
                    1,
                    "{label}: connection {conn}'s public port changed: {allocated:?}"
                );
                assert!(
                    public_ports.insert(allocated.into_iter().next().unwrap()),
                    "{label}: connection {conn} shares a public port with a live connection"
                );
            }
        }
    }

    // Across the front ends: the same connections answered, and per
    // connection the same verdicts on the same bytes.
    assert_eq!(got.replied, want.replied, "{label}: placement diverged");
    for (conn, want_log) in &want.flows {
        let got_log = &got.flows[conn];
        assert_eq!(got_log.len(), want_log.len(), "{label}: connection {conn}");
        for (i, ((_, got_frame, got_out), (_, want_frame, want_out))) in
            got_log.iter().zip(want_log).enumerate()
        {
            assert_eq!(got_out, want_out, "{label}: connection {conn} packet {i}");
            assert_eq!(
                modulo_public_port(got_frame),
                modulo_public_port(want_frame),
                "{label}: connection {conn} bytes diverged at its packet {i}"
            );
        }
    }
    assert_eq!(
        got.egress, want.egress,
        "{label}: wire-side egress diverged"
    );
    let mut got_ct = got.ct;
    (got_ct.migrated_in, got_ct.migrated_out) = (want.ct.migrated_in, want.ct.migrated_out);
    assert_eq!(
        got_ct, want.ct,
        "{label}: merged conntrack counters diverged"
    );
}

#[test]
fn stateful_pipelines_match_across_front_ends_and_remap_storms() {
    for spec in [BackendSpec::eswitch(), BackendSpec::ovs()] {
        assert_stateful_front_ends_agree(
            &format!("acl/{}", spec.label()),
            spec,
            || acl::build_pipeline(&acl::StatefulAclConfig::default()),
            acl::ct_config(),
            false,
        );
        assert_stateful_front_ends_agree(
            &format!("snat/{}", spec.label()),
            spec,
            || snat_edge::build_pipeline(&snat_edge::SnatEdgeConfig::default()),
            snat_edge::ct_config(),
            true,
        );
    }
}

/// The quiesce step's addition for port-attached launches: a remap issued
/// while SYNs sit queued behind a slow worker must wait for the packets the
/// *port dispatchers* handed that worker, not only the caller's dispatcher's
/// (which handed it none). Every SYN enters by one port, so each shard's
/// ring holds more than one drain pass of them; were they not covered, the
/// export would run between two passes, the later SYNs would commit their
/// connections on the old owner, and the replies — steered to the new owner
/// — would be denied.
#[test]
fn a_remap_covers_what_the_port_dispatchers_already_dispatched() {
    let acl = acl::build_pipeline(&acl::StatefulAclConfig::default());
    let (ports, seen, switch, mut dispatcher) = launch_stateful(
        BackendSpec::eswitch(),
        acl,
        acl::ct_config(),
        Duration::from_millis(1),
    );
    let syn = TcpFlags {
        syn: true,
        ..TcpFlags::default()
    };
    const CONNS: usize = 200;
    for conn in 0..CONNS {
        assert!(ports
            .get(PORT_USER)
            .unwrap()
            .inject(client_frame(conn, syn)));
    }
    // Off the RX queues means in a dispatcher's hands or a worker's ring.
    while ports.iter().any(|port| port.rx_pending() > 0) {
        std::thread::yield_now();
    }
    let mut buckets: Vec<usize> = (0..CONNS)
        .map(|conn| bucket_of(rss_hash_symmetric(&client_frame(conn, syn))))
        .collect();
    buckets.sort_unstable();
    buckets.dedup();
    for bucket in buckets {
        let owner = dispatcher.table().owner(bucket);
        dispatcher.remap_bucket(bucket, (owner + 1) % CT_SHARDS);
    }
    for conn in 0..CONNS {
        let port = ports.get(NET_PORTS[conn % 2]).unwrap();
        let syn_ack = TcpFlags { ack: true, ..syn };
        assert!(port.inject(server_frame(client_frame(conn, syn).data(), syn_ack)));
    }
    let report = switch.shutdown(dispatcher);
    assert!(report.ct_merged().unwrap().migrated_out > 0);
    let seen = seen.lock().unwrap();
    let replies: Vec<_> = seen.iter().filter(|(_, f, _)| conn_of(f).1).collect();
    assert_eq!(replies.len(), CONNS);
    for (_, frame, outputs) in replies {
        let (conn, _) = conn_of(frame);
        assert_eq!(
            outputs,
            &[PORT_USER],
            "connection {conn}'s reply was denied"
        );
    }
}
