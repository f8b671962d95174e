//! Shared workload definitions for the fastpath throughput harness (the
//! `fastpath` sweep binary and the `fastpath` criterion bench).
//!
//! The OVS workloads run over a four-class forwarding pipeline whose traffic
//! classes produce four distinct megaflow masks, so steady state exercises
//! genuine tuple-space search; the knob that moves between the Fig. 14
//! regimes is the active-flow count relative to the EMC capacity.

use openflow::flow_match::FlowMatch;
use openflow::instruction::terminal_actions;
use openflow::{Action, Field, FlowEntry, Pipeline};
use pkt::builder::PacketBuilder;
use pkt::Packet;
use workloads::FlowSet;

/// Burst size of the measurement loops (DPDK's conventional rx burst).
pub const BURST: usize = 32;
/// Distinct destination ports per transport protocol in the port pipeline.
pub const PORTS_PER_PROTO: u16 = 64;
/// Number of `eth_dst` rules (the fourth traffic class below).
pub const MAC_RULES: u64 = 32;

/// A four-class forwarding pipeline: 64 `tcp_dst` rules over 64 `udp_dst`
/// rules over an ICMP rule over 32 `eth_dst` rules over a catch-all drop.
/// Under slow-path un-wildcarding the four traffic classes produce four
/// distinct megaflow masks — `{tcp_dst}`, `{tcp_dst, udp_dst}`,
/// `{tcp_dst, udp_dst, icmp_type}` and `{…, eth_dst}` — so steady state is
/// genuine tuple-space search over several subtables, the regime whose cost
/// the paper's §2.2 attributes OVS's megaflow-level slowdown to.
pub fn port_pipeline() -> Pipeline {
    let mut p = Pipeline::with_tables(1);
    let t = p.table_mut(0).unwrap();
    for i in 0..PORTS_PER_PROTO {
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, u128::from(1000 + i)),
            100,
            terminal_actions(vec![Action::Output(u32::from(i % 4))]),
        ));
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::UdpDst, u128::from(1000 + i)),
            90,
            terminal_actions(vec![Action::Output(u32::from(i % 4))]),
        ));
    }
    t.insert(FlowEntry::new(
        FlowMatch::any().with_exact(Field::Icmpv4Type, 8),
        80,
        terminal_actions(vec![Action::Output(5)]),
    ));
    for m in 0..MAC_RULES {
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::EthDst, u128::from(0x0200_0000_2000 + m)),
            70,
            terminal_actions(vec![Action::Output((m % 4) as u32)]),
        ));
    }
    t.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
    p
}

/// `flows` distinct flows in a 2:1:1:1 mix of the four traffic classes of
/// [`port_pipeline`]: TCP port flows, UDP port flows, ICMP flows, and
/// odd-port TCP flows answered by the `eth_dst` rules.
pub fn port_traffic(flows: usize) -> FlowSet {
    let protos: Vec<Packet> = (0..flows)
        .map(|f| {
            let dst = 1000 + (f as u16 % PORTS_PER_PROTO);
            let src = 1024 + (f / PORTS_PER_PROTO as usize) as u16;
            match f % 5 {
                0 | 1 => PacketBuilder::tcp().tcp_dst(dst).tcp_src(src).build(),
                2 => PacketBuilder::udp().udp_dst(dst).udp_src(src).build(),
                3 => PacketBuilder::icmp()
                    .ipv4_src([10, (f >> 10) as u8, (f >> 2) as u8, f as u8])
                    .build(),
                _ => PacketBuilder::tcp()
                    .eth_dst(
                        pkt::MacAddr::from_u64(0x0200_0000_2000 + (f as u64 % MAC_RULES)).octets(),
                    )
                    .tcp_dst(5000)
                    .tcp_src(src)
                    .build(),
            }
        })
        .collect();
    FlowSet::new(protos, 0xfa57)
}

/// Builds the packet ring a timed loop cycles over: every flow once, padded
/// to a multiple of the burst size.
pub fn build_ring(traffic: &FlowSet) -> Vec<Packet> {
    let n = traffic.active_flows().max(BURST).div_ceil(BURST) * BURST;
    (0..n).map(|i| traffic.packet(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::Datapath;
    use ovsdp::OvsDatapath;

    #[test]
    fn workload_reaches_cache_steady_state() {
        let dp = OvsDatapath::new(port_pipeline());
        let mut ring = build_ring(&port_traffic(320));
        assert_eq!(ring.len() % BURST, 0);
        for p in ring.iter_mut() {
            dp.process(p);
        }
        // Megaflows aggregate flows: far fewer entries than flows, spread
        // over the four traffic classes.
        assert!(dp.megaflow_count() >= 100 && dp.megaflow_count() <= 200);
        // Warm again: everything must now be answered by the caches.
        let slow_before = dp.stats.slowpath_hits.packets();
        for p in ring.iter_mut() {
            dp.process(p);
        }
        assert_eq!(dp.stats.slowpath_hits.packets(), slow_before);
    }
}
