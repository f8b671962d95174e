//! The load-balancer use case (Fig. 7).
//!
//! "The load balancer use case captures the functionality of a web frontend,
//! which distributes HTTP traffic for different web services, available at
//! different IP addresses, between backend servers. Load distribution happens
//! based on the first bit of the source IP address in the incoming packets.
//! In the ingress direction only web traffic is allowed, while traffic is
//! forwarded unconditionally in the other direction."
//!
//! The natural controller-emitted pipeline is a single flow table (Fig. 7a),
//! which only fits the linked-list template; the ESWITCH table-decomposition
//! pass promotes it to an equivalent multi-stage pipeline (Fig. 7b) whose
//! tables fit the direct-code/hash templates — this use case exists precisely
//! to demonstrate that promotion.

use openflow::flow_match::FlowMatch;
use openflow::instruction::terminal_actions;
use openflow::{Action, Field, FlowEntry, Pipeline};
use pkt::builder::PacketBuilder;
use pkt::ipv4::Ipv4Addr4;
use rand::prelude::*;

use super::{PORT_NET, PORT_USER};
use crate::traffic::FlowSet;

/// Configuration of the load-balancer use case.
#[derive(Debug, Clone, Copy)]
pub struct LoadBalancerConfig {
    /// Number of web services (the paper sweeps 1–100).
    pub services: usize,
    /// RNG seed for traffic generation.
    pub seed: u64,
}

impl Default for LoadBalancerConfig {
    fn default() -> Self {
        LoadBalancerConfig {
            services: 10,
            seed: 0x1b,
        }
    }
}

/// Virtual IP of web service `s`.
pub fn service_vip(s: usize) -> Ipv4Addr4 {
    Ipv4Addr4::new(203, 0, (s / 250) as u8, (s % 250 + 1) as u8)
}

/// Backend address a request for service `s` is rewritten to, picked by the
/// first bit of the client's source address.
pub fn backend_for(s: usize, src_first_bit_set: bool) -> Ipv4Addr4 {
    Ipv4Addr4::new(10, 10, s as u8, if src_first_bit_set { 2 } else { 1 })
}

/// Builds the single-table pipeline of Fig. 7a.
///
/// Per service two ingress rules (one per source-address half, rewriting the
/// destination to the chosen backend), one egress rule forwarding everything
/// from the internal port, and a final drop.
pub fn build_pipeline(config: &LoadBalancerConfig) -> Pipeline {
    let mut pipeline = Pipeline::with_tables(1);
    let table = pipeline.table_mut(0).unwrap();
    table.name = "load-balancer".to_string();
    // Egress direction: forwarded unconditionally.
    table.insert(FlowEntry::new(
        FlowMatch::any().with_exact(Field::InPort, u128::from(PORT_USER)),
        400,
        terminal_actions(vec![Action::Output(PORT_NET)]),
    ));
    for s in 0..config.services {
        let vip = u128::from(service_vip(s).to_u32());
        for first_bit in [false, true] {
            let src_match = if first_bit { 0x8000_0000u128 } else { 0 };
            let backend = backend_for(s, first_bit);
            table.insert(FlowEntry::new(
                FlowMatch::any()
                    .with_exact(Field::InPort, u128::from(PORT_NET))
                    .with_exact(Field::Ipv4Dst, vip)
                    .with_exact(Field::TcpDst, 80)
                    .with(openflow::MatchField::masked(
                        Field::Ipv4Src,
                        src_match,
                        0x8000_0000,
                    )),
                300,
                terminal_actions(vec![
                    Action::SetField(Field::Ipv4Dst, u128::from(backend.to_u32())),
                    Action::Output(PORT_USER),
                ]),
            ));
        }
    }
    table.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
    pipeline
}

/// Builds a traffic mix of `active_flows` flows: half the flows are HTTP
/// requests to a random service (admitted and load balanced), the other half
/// target closed ports or unknown addresses and are dropped, as in the paper
/// ("half of the packets go to a random web service and the rest of the
/// traffic be dropped").
pub fn build_traffic(config: &LoadBalancerConfig, active_flows: usize) -> FlowSet {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let prototypes = (0..active_flows.max(1))
        .map(|f| {
            let src = Ipv4Addr4::from_u32(rng.gen::<u32>() | 0x0100_0000);
            let sport = rng.gen_range(1024..60_000);
            if f % 2 == 0 {
                let s = rng.gen_range(0..config.services.max(1));
                PacketBuilder::tcp()
                    .ipv4_src(src.octets())
                    .ipv4_dst(service_vip(s).octets())
                    .tcp_src(sport)
                    .tcp_dst(80)
                    .in_port(PORT_NET)
                    .build()
            } else {
                // Not web traffic: dropped by the frontend.
                PacketBuilder::tcp()
                    .ipv4_src(src.octets())
                    .ipv4_dst([203, 0, 250, 250])
                    .tcp_src(sport)
                    .tcp_dst(8443)
                    .in_port(PORT_NET)
                    .build()
            }
        })
        .collect();
    FlowSet::new(prototypes, config.seed ^ active_flows as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_size_scales_with_services() {
        let p = build_pipeline(&LoadBalancerConfig {
            services: 10,
            seed: 0,
        });
        // 1 egress + 2 per service + 1 drop.
        assert_eq!(p.entry_count(), 1 + 20 + 1);
    }

    #[test]
    fn web_traffic_balanced_by_source_bit() {
        let config = LoadBalancerConfig {
            services: 3,
            seed: 0,
        };
        let pipeline = build_pipeline(&config);

        let mut low = PacketBuilder::tcp()
            .ipv4_src([10, 0, 0, 1]) // first bit 0
            .ipv4_dst(service_vip(1).octets())
            .tcp_dst(80)
            .in_port(PORT_NET)
            .build();
        let verdict = pipeline.process_ct(&mut low, &mut openflow::NoCt);
        assert_eq!(verdict.outputs, vec![PORT_USER]);
        assert_eq!(
            openflow::FlowKey::extract(&low).ipv4_dst,
            Some(backend_for(1, false).to_u32())
        );

        let mut high = PacketBuilder::tcp()
            .ipv4_src([192, 0, 2, 1]) // first bit 1
            .ipv4_dst(service_vip(1).octets())
            .tcp_dst(80)
            .in_port(PORT_NET)
            .build();
        pipeline.process_ct(&mut high, &mut openflow::NoCt);
        assert_eq!(
            openflow::FlowKey::extract(&high).ipv4_dst,
            Some(backend_for(1, true).to_u32())
        );
    }

    #[test]
    fn non_web_traffic_dropped_and_egress_forwarded() {
        let config = LoadBalancerConfig::default();
        let pipeline = build_pipeline(&config);

        let mut ssh = PacketBuilder::tcp()
            .ipv4_dst(service_vip(0).octets())
            .tcp_dst(22)
            .in_port(PORT_NET)
            .build();
        assert!(pipeline.process_ct(&mut ssh, &mut openflow::NoCt).is_drop());

        let mut egress = PacketBuilder::tcp().in_port(PORT_USER).build();
        assert_eq!(
            pipeline
                .process_ct(&mut egress, &mut openflow::NoCt)
                .outputs,
            vec![PORT_NET]
        );
    }

    #[test]
    fn traffic_mix_half_admitted_half_dropped() {
        let config = LoadBalancerConfig {
            services: 5,
            seed: 3,
        };
        let pipeline = build_pipeline(&config);
        let traffic = build_traffic(&config, 400);
        let mut admitted = 0;
        let mut dropped = 0;
        for mut packet in traffic.one_cycle() {
            if pipeline
                .process_ct(&mut packet, &mut openflow::NoCt)
                .is_drop()
            {
                dropped += 1;
            } else {
                admitted += 1;
            }
        }
        assert_eq!(admitted + dropped, 400);
        assert_eq!(admitted, 200);
        assert_eq!(dropped, 200);
    }
}
