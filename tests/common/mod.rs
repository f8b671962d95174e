//! Helpers shared by the differential suites (each uses some of them).
#![allow(dead_code)]

use conntrack::CtEngine;
use eswitch::{CompilerConfig, EswitchRuntime};
use netdev::{Port, BURST_SIZE};
use openflow::{Controller, Datapath, DirectDatapath, NullController, Pipeline, Verdict};
use ovsdp::{OvsConfig, OvsDatapath};
use pkt::builder::PacketBuilder;
use pkt::ipv4::Ipv4Header;
use pkt::{checksum, parse, Packet, ParseDepth, TcpFlags};

/// One execution of a pipeline, named for assertion messages.
pub type Execution = (&'static str, Box<dyn Datapath>);

/// The paper's three executions of `pipeline` as one list — the reference
/// interpreter first, then the compiled ESWITCH runtime and the OVS cache
/// hierarchy — so a suite that iterates it checks every execution, and a new
/// execution is one line here.
pub fn executions(pipeline: &Pipeline) -> Vec<Execution> {
    executions_with(pipeline, || Box::new(NullController::new()))
}

/// [`executions`], each answering punts through its own controller, made by
/// `controller` in list order.
pub fn executions_with(
    pipeline: &Pipeline,
    controller: impl Fn() -> Box<dyn Controller>,
) -> Vec<Execution> {
    let interpreter = DirectDatapath::with_controller(pipeline.clone(), controller());
    let compiled =
        EswitchRuntime::with_config(pipeline.clone(), CompilerConfig::default(), controller())
            .expect("pipeline compiles");
    let cached = OvsDatapath::with_config(pipeline.clone(), OvsConfig::default(), controller());
    vec![
        ("interpreter", Box::new(interpreter)),
        ("eswitch", Box::new(compiled)),
        ("ovs", Box::new(cached)),
    ]
}

/// Runs a copy of `packet` through every execution and asserts that each
/// agrees with the first (the interpreter) on the forwarding decision and on
/// the bytes it forwards. Returns the interpreter's verdict and frame.
pub fn assert_agree(executions: &[Execution], packet: &Packet, context: &str) -> (Verdict, Packet) {
    let (reference, rest) = executions.split_first().expect("at least one execution");
    let mut want_frame = packet.clone();
    let want = reference.1.process(&mut want_frame);
    for (name, datapath) in rest {
        let mut frame = packet.clone();
        let got = datapath.process(&mut frame);
        assert_eq!(got.decision(), want.decision(), "{context}: {name} verdict");
        assert_eq!(frame.data(), want_frame.data(), "{context}: {name} bytes");
    }
    (want, want_frame)
}

/// The packets as a switch receives them: each goes through a [`Port`]
/// numbered as its `in_port`, so it comes back carrying the RX stage's parse
/// stamp. The suites run their packets both this way and as built
/// (unstamped): the stamp is an optimisation, never a semantic change.
pub fn received(packets: &[Packet]) -> Vec<Packet> {
    let mut out = Vec::with_capacity(packets.len());
    for packet in packets {
        let port = Port::with_depth(packet.in_port, 1);
        assert!(port.inject(packet.clone()));
        assert_eq!(port.rx_burst_into(&mut out, 1), 1);
    }
    assert!(out.iter().all(|p| p.parsed().is_some()));
    out
}

/// True when the checksums a receiver would verify hold: the IPv4 header's
/// and, over the segment the IP total length delimits, TCP's or UDP's (a UDP
/// checksum of 0 means none was sent). Frames without IPv4 have none.
pub fn checksums_verify(frame: &[u8]) -> bool {
    let headers = parse(frame, ParseDepth::L4);
    if !headers.has_ipv4() {
        return true;
    }
    let (l3, l4) = (
        usize::from(headers.l3_offset),
        usize::from(headers.l4_offset),
    );
    if !Ipv4Header::verify_checksum(&frame[l3..]) {
        return false;
    }
    if !(headers.has_tcp() || headers.has_udp())
        || (headers.has_udp() && frame[l4 + 6..l4 + 8] == [0, 0])
    {
        return true;
    }
    let ip = &frame[l3..];
    let segment = &frame[l4..l3 + usize::from(u16::from_be_bytes([ip[2], ip[3]]))];
    let (src, dst) = (
        ip[12..16].try_into().unwrap(),
        ip[16..20].try_into().unwrap(),
    );
    checksum::pseudo_header_checksum(src, dst, headers.ip_proto, segment) == 0
}

/// `packet` (an untagged IPv4 frame with a 20-byte header, as the builder
/// makes them) with its header grown to `ihl` 32-bit words: `options`'s
/// bytes, repeated, fill the option space; IHL, total length and the header
/// checksum are brought in step, so the frame verifies again. (The TCP/UDP
/// checksum covers neither the options nor the IP length.)
pub fn with_ipv4_options(packet: &Packet, ihl: u8, options: u64) -> Packet {
    const L3: usize = 14;
    let extra = usize::from(ihl - 5) * 4;
    let fill: Vec<u8> = options
        .to_be_bytes()
        .into_iter()
        .cycle()
        .take(extra)
        .collect();
    let mut out = packet.clone();
    out.insert(L3 + 20, &fill);
    let frame = out.data_mut();
    frame[L3] = 0x40 | ihl;
    let total = u16::from_be_bytes([frame[L3 + 2], frame[L3 + 3]]) + extra as u16;
    frame[L3 + 2..L3 + 4].copy_from_slice(&total.to_be_bytes());
    frame[L3 + 10..L3 + 12].fill(0);
    let check = checksum::ones_complement(&frame[L3..L3 + 20 + extra]);
    frame[L3 + 10..L3 + 12].copy_from_slice(&check.to_be_bytes());
    out
}

/// `flows` established-direction data packets (client → server, ACK set),
/// one per connection, padded to a whole number of bursts. The same ring
/// warms a connection table (each packet's first pass commits its
/// connection) and is then replayed, so every replayed packet is an
/// established-path hit.
pub fn data_ring(flows: usize, in_port: u32) -> Vec<Packet> {
    let n = flows.max(BURST_SIZE).div_ceil(BURST_SIZE) * BURST_SIZE;
    (0..n)
        .map(|f| {
            let f = f % flows.max(1);
            PacketBuilder::tcp()
                .ipv4_src([10, 0, (f >> 8) as u8, f as u8])
                .ipv4_dst([198, 51, 100, (f % 200) as u8 + 1])
                .tcp_src(1024 + (f % 30_000) as u16)
                .tcp_dst(80)
                .tcp_flags(TcpFlags {
                    ack: true,
                    ..TcpFlags::default()
                })
                .in_port(in_port)
                .build()
        })
        .collect()
}

/// Warms every connection of `ring` to the established state: one forward
/// pass creates the connections, then each *forwarded* frame is answered
/// (tuple-swapped, arriving on `reply_port`) so the reverse direction is
/// seen too. Works for translating pipelines as well because the reply
/// answers the frame as it left the datapath.
pub fn warm_established(
    dp: &dyn Datapath,
    engine: &mut CtEngine,
    ring: &[Packet],
    reply_port: u32,
) {
    let mut verdicts: Vec<Verdict> = Vec::with_capacity(BURST_SIZE);
    for packet in ring {
        let mut forward = packet.clone();
        dp.process_burst(std::slice::from_mut(&mut forward), &mut verdicts, engine);
        if let Some(mut reply) = workloads::reply_to(&forward, reply_port) {
            dp.process_burst(std::slice::from_mut(&mut reply), &mut verdicts, engine);
        }
    }
}
