//! The L3 routing use case: longest prefix match over an IP routing table.
//!
//! "For the L3 use case routing tables were randomly sampled from a real
//! Internet router and again the traces were adjusted accordingly." The
//! synthetic sampler of [`crate::prefixes`] stands in for the real table;
//! ESWITCH compiles the pipeline into the LPM template, "yielding a datapath
//! identical to that of an IP softrouter".

use openflow::flow_match::FlowMatch;
use openflow::instruction::terminal_actions;
use openflow::{Action, Field, FlowEntry, Pipeline};
use pkt::builder::PacketBuilder;
use rand::prelude::*;

use crate::prefixes::{sample_covered_addresses, sample_routing_table, PrefixTableConfig, Route};
use crate::traffic::FlowSet;

/// Configuration of the L3 use case.
#[derive(Debug, Clone, Copy)]
pub struct L3Config {
    /// Number of routes (the paper sweeps 1, 10, 1K, and uses 2K and 10K in
    /// other experiments).
    pub prefixes: usize,
    /// Number of next hops / output ports.
    pub next_hops: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for L3Config {
    fn default() -> Self {
        L3Config {
            prefixes: 1_000,
            next_hops: 8,
            seed: 0x13,
        }
    }
}

/// Builds the routing table used by the pipeline (exposed so benchmarks can
/// derive covered traffic from the very same routes).
pub fn routes(config: &L3Config) -> Vec<Route> {
    sample_routing_table(&PrefixTableConfig {
        prefixes: config.prefixes,
        seed: config.seed,
        next_hops: config.next_hops,
    })
}

/// Builds the single-table L3 pipeline: one prefix entry per route with
/// priority = prefix length (LPM-consistent), a TTL decrement and an output
/// action, plus a lowest-priority drop.
pub fn build_pipeline(config: &L3Config) -> Pipeline {
    build_pipeline_from_routes(&routes(config))
}

/// Builds the pipeline from an explicit route list.
pub fn build_pipeline_from_routes(routes: &[Route]) -> Pipeline {
    let mut pipeline = Pipeline::with_tables(1);
    let table = pipeline.table_mut(0).unwrap();
    table.name = "l3-rib".to_string();
    for route in routes {
        table.insert(FlowEntry::new(
            FlowMatch::any().with_prefix(
                Field::Ipv4Dst,
                u128::from(route.prefix.to_u32()),
                u32::from(route.len),
            ),
            100 + u16::from(route.len),
            terminal_actions(vec![Action::DecNwTtl, Action::Output(route.next_hop)]),
        ));
    }
    table.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
    pipeline
}

/// Builds a traffic mix of `active_flows` flows whose destinations are
/// covered by the routing table and whose transport tuples differ.
pub fn build_traffic(config: &L3Config, active_flows: usize) -> FlowSet {
    build_traffic_from_routes(&routes(config), config.seed, active_flows)
}

/// Builds the traffic mix from an explicit route list.
pub fn build_traffic_from_routes(routes: &[Route], seed: u64, active_flows: usize) -> FlowSet {
    let destinations = sample_covered_addresses(routes, active_flows.max(1), seed ^ 0xbeef);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xcafe);
    let prototypes = destinations
        .into_iter()
        .enumerate()
        .map(|(f, dst)| {
            PacketBuilder::udp()
                .ipv4_src([10, (f >> 16) as u8, (f >> 8) as u8, f as u8])
                .ipv4_dst(dst.octets())
                .udp_src(rng.gen_range(1024..60_000))
                .udp_dst(53)
                .in_port(0)
                .build()
        })
        .collect();
    FlowSet::new(prototypes, seed ^ active_flows as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_contains_all_routes() {
        let config = L3Config {
            prefixes: 200,
            next_hops: 4,
            seed: 5,
        };
        let p = build_pipeline(&config);
        assert_eq!(p.entry_count(), 201);
    }

    #[test]
    fn traffic_hits_installed_routes_and_ttl_is_decremented() {
        let config = L3Config {
            prefixes: 300,
            next_hops: 4,
            seed: 6,
        };
        let pipeline = build_pipeline(&config);
        let traffic = build_traffic(&config, 100);
        for mut packet in traffic.one_cycle() {
            let ttl_before = packet.data()[14 + 8];
            let verdict = pipeline.process_ct(&mut packet, &mut openflow::NoCt);
            assert!(!verdict.is_drop(), "covered destination must be routed");
            assert!(verdict.outputs[0] < config.next_hops);
            assert_eq!(packet.data()[14 + 8], ttl_before - 1);
        }
    }

    #[test]
    fn longest_prefix_semantics_respected() {
        // Construct overlapping routes explicitly and check the more specific
        // one wins, matching plain LPM expectations.
        let routes = vec![
            Route {
                prefix: pkt::Ipv4Addr4::new(10, 0, 0, 0),
                len: 8,
                next_hop: 1,
            },
            Route {
                prefix: pkt::Ipv4Addr4::new(10, 7, 0, 0),
                len: 16,
                next_hop: 2,
            },
        ];
        let pipeline = build_pipeline_from_routes(&routes);
        let mut specific = PacketBuilder::udp().ipv4_dst([10, 7, 1, 1]).build();
        let mut broad = PacketBuilder::udp().ipv4_dst([10, 8, 1, 1]).build();
        assert_eq!(
            pipeline
                .process_ct(&mut specific, &mut openflow::NoCt)
                .outputs,
            vec![2]
        );
        assert_eq!(
            pipeline.process_ct(&mut broad, &mut openflow::NoCt).outputs,
            vec![1]
        );
    }

    #[test]
    fn uncovered_destination_dropped() {
        let config = L3Config {
            prefixes: 50,
            next_hops: 2,
            seed: 8,
        };
        let pipeline = build_pipeline(&config);
        // 240.0.0.0/4 is never generated by the sampler.
        let mut pkt = PacketBuilder::udp().ipv4_dst([240, 0, 0, 1]).build();
        assert!(pipeline.process_ct(&mut pkt, &mut openflow::NoCt).is_drop());
    }
}
