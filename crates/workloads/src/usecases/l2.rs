//! The L2 switching use case: exact matching on a MAC table.
//!
//! "The L2 flow tables contained random MAC addresses and the L2 destination
//! addresses in the flow mix were adequately aligned to avoid frequent table
//! misses." ESWITCH compiles this pipeline into the compound-hash template,
//! "effectively reducing into a conventional Ethernet software switch".

use openflow::flow_match::FlowMatch;
use openflow::instruction::terminal_actions;
use openflow::{Action, Field, FlowEntry, Pipeline};
use pkt::builder::PacketBuilder;
use pkt::MacAddr;
use rand::prelude::*;

use crate::traffic::FlowSet;

/// Configuration of the L2 use case.
#[derive(Debug, Clone, Copy)]
pub struct L2Config {
    /// Number of MAC table entries (the paper sweeps 1, 10, 100, 1K).
    pub table_size: usize,
    /// Number of switch ports the MACs are spread over.
    pub ports: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for L2Config {
    fn default() -> Self {
        L2Config {
            table_size: 1_000,
            ports: 4,
            seed: 0x12,
        }
    }
}

/// Deterministic pseudo-random unicast MAC for index `i` under `seed`.
fn mac_for(i: u64, seed: u64) -> MacAddr {
    let mut rng = StdRng::seed_from_u64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut bytes = [0u8; 6];
    rng.fill(&mut bytes);
    bytes[0] = 0x02; // locally administered, unicast
    MacAddr::new(bytes)
}

/// Builds the single-table L2 pipeline: one exact `eth_dst` entry per known
/// MAC, forwarding to a port, plus a lowest-priority drop for unknown MACs.
pub fn build_pipeline(config: &L2Config) -> Pipeline {
    let mut pipeline = Pipeline::with_tables(1);
    let table = pipeline.table_mut(0).unwrap();
    table.name = "l2-mac".to_string();
    for i in 0..config.table_size as u64 {
        table.insert(FlowEntry::new(
            FlowMatch::any()
                .with_exact(Field::EthDst, u128::from(mac_for(i, config.seed).to_u64())),
            100,
            terminal_actions(vec![Action::Output(i as u32 % config.ports.max(1))]),
        ));
    }
    table.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
    pipeline
}

/// Builds a traffic mix of `active_flows` distinct flows whose destination
/// MACs cycle over the installed table entries (aligned traffic, no misses);
/// flows differ in their UDP source port so they are distinct transport
/// connections for the microflow cache.
pub fn build_traffic(config: &L2Config, active_flows: usize) -> FlowSet {
    let prototypes = (0..active_flows.max(1))
        .map(|f| {
            let mac = mac_for((f % config.table_size.max(1)) as u64, config.seed);
            PacketBuilder::udp()
                .eth_dst(mac.octets())
                .eth_src([0x02, 0xaa, 0, 0, (f >> 8) as u8, f as u8])
                .udp_src(1024 + (f % 60_000) as u16)
                .udp_dst(4789)
                .in_port(0)
                .build()
        })
        .collect();
    FlowSet::new(prototypes, config.seed ^ active_flows as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_size_matches_config() {
        let p = build_pipeline(&L2Config {
            table_size: 100,
            ports: 4,
            seed: 1,
        });
        assert_eq!(p.table_count(), 1);
        assert_eq!(p.entry_count(), 101);
    }

    #[test]
    fn traffic_is_aligned_with_table() {
        let config = L2Config {
            table_size: 50,
            ports: 4,
            seed: 3,
        };
        let pipeline = build_pipeline(&config);
        let traffic = build_traffic(&config, 200);
        assert_eq!(traffic.active_flows(), 200);
        // Every generated packet hits a programmed MAC entry (no table miss).
        for mut packet in traffic.one_cycle() {
            let verdict = pipeline.process_ct(&mut packet, &mut openflow::NoCt);
            assert!(!verdict.is_drop(), "aligned traffic must not miss");
            assert!(verdict.outputs[0] < config.ports);
        }
    }

    #[test]
    fn unknown_mac_is_dropped() {
        let config = L2Config::default();
        let pipeline = build_pipeline(&config);
        let mut stranger = PacketBuilder::udp().eth_dst([0x06, 1, 2, 3, 4, 5]).build();
        assert!(pipeline
            .process_ct(&mut stranger, &mut openflow::NoCt)
            .is_drop());
    }

    #[test]
    fn flows_are_distinct_transport_connections() {
        let config = L2Config {
            table_size: 10,
            ports: 2,
            seed: 9,
        };
        let traffic = build_traffic(&config, 100);
        let mut tuples = std::collections::HashSet::new();
        for packet in traffic.one_cycle() {
            let key = openflow::FlowKey::extract(&packet);
            tuples.insert((key.eth_src, key.eth_dst, key.udp_src));
        }
        assert_eq!(tuples.len(), 100);
    }
}
