//! The telco access-gateway (vPE) use case (Fig. 8).
//!
//! "Each CE is identified by a unique VLAN tag and each user is assigned a
//! per-CE unique private IP address. Table 0 separates user–network traffic
//! on a per-CE basis from network–user traffic; user–network traffic in turn
//! goes to separate per-CE tables that identify users and swap the (private)
//! source IP address with a unique public address (realizing a simple NAT)
//! and then to the Internet based on an IP routing table (Table 110). In the
//! reverse direction, packets are mapped from the public IP back to the
//! adequate combination of VLAN tag and user private address."
//!
//! Table numbering follows the paper: table 0 is the demux, tables 1..=N are
//! the per-CE NAT tables, table 110 is the IP routing table, and table 120
//! (not named in the paper) is the network→user mapping table.

use openflow::controller::FnController;
use openflow::flow_match::FlowMatch;
use openflow::instruction::{actions_then_goto, terminal_actions};
use openflow::{
    Action, Controller, ControllerDecision, Field, FlowEntry, FlowKey, FlowMod, Pipeline,
};
use pkt::builder::PacketBuilder;
use pkt::ipv4::Ipv4Addr4;
use rand::prelude::*;

use super::{PORT_NET, PORT_USER};
use crate::prefixes::{sample_covered_addresses, sample_routing_table, PrefixTableConfig, Route};
use crate::traffic::FlowSet;

/// Routing table id, as in the paper.
pub const ROUTING_TABLE: u32 = 110;
/// Network→user (downstream) mapping table id.
pub const DOWNSTREAM_TABLE: u32 = 120;

/// Configuration of the gateway use case.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// Number of Customer Endpoints (VLANs). The paper provisions 10.
    pub ces: usize,
    /// Users per CE. The paper provisions 20.
    pub users_per_ce: usize,
    /// Prefixes in the Internet routing table. The paper uses 10K.
    pub routing_prefixes: usize,
    /// RNG seed.
    pub seed: u64,
    /// When true, per-user NAT rules are pre-installed (proactive mode); when
    /// false they are left out and the per-CE tables punt unknown users to
    /// the controller, which installs them reactively.
    pub preinstall_users: bool,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            ces: 10,
            users_per_ce: 20,
            routing_prefixes: 10_000,
            seed: 0x6a7e,
            preinstall_users: true,
        }
    }
}

/// VLAN tag of CE `ce` (tags start at 100).
pub fn ce_vlan(ce: usize) -> u16 {
    100 + ce as u16
}

/// Private address of `user` behind CE `ce` (10.ce.user.2).
pub fn user_private_ip(ce: usize, user: usize) -> Ipv4Addr4 {
    Ipv4Addr4::new(10, ce as u8, (user / 250) as u8, (user % 250 + 2) as u8)
}

/// Public address allocated to (`ce`, `user`) (100.64.ce.user — RFC 6598
/// space standing in for the provider pool).
pub fn user_public_ip(ce: usize, user: usize) -> Ipv4Addr4 {
    Ipv4Addr4::new(
        100,
        64 + ce as u8,
        (user / 250) as u8,
        (user % 250 + 2) as u8,
    )
}

/// Per-CE NAT table id.
pub fn ce_table(ce: usize) -> u32 {
    1 + ce as u32
}

/// The gateway's routing table (exposed so traffic can target covered
/// destinations).
pub fn routes(config: &GatewayConfig) -> Vec<Route> {
    sample_routing_table(&PrefixTableConfig {
        prefixes: config.routing_prefixes,
        seed: config.seed,
        next_hops: 1, // everything leaves on the network port
    })
}

/// Installs the NAT rule pair for one user: upstream (private → public, then
/// route) and downstream (public → private, tag with the CE VLAN, out the
/// user port). Returned as flow-mods so both the proactive builder and the
/// reactive controller share the exact same rules.
pub fn user_flow_mods(ce: usize, user: usize) -> Vec<FlowMod> {
    let private = u128::from(user_private_ip(ce, user).to_u32());
    let public = u128::from(user_public_ip(ce, user).to_u32());
    vec![
        FlowMod::add(
            ce_table(ce),
            FlowMatch::any().with_exact(Field::Ipv4Src, private),
            100,
            actions_then_goto(
                vec![Action::SetField(Field::Ipv4Src, public), Action::PopVlan],
                ROUTING_TABLE,
            ),
        ),
        FlowMod::add(
            DOWNSTREAM_TABLE,
            FlowMatch::any()
                .with_exact(Field::InPort, u128::from(PORT_NET))
                .with_exact(Field::Ipv4Dst, public),
            100,
            terminal_actions(vec![
                Action::SetField(Field::Ipv4Dst, private),
                Action::PushVlan(0x8100),
                Action::SetField(Field::VlanVid, u128::from(ce_vlan(ce))),
                Action::Output(PORT_USER),
            ]),
        ),
    ]
}

/// Builds the gateway pipeline.
pub fn build_pipeline(config: &GatewayConfig) -> Pipeline {
    let mut pipeline = Pipeline::new();

    // Table 0: per-CE demux of user→network traffic, plus network→user.
    let mut t0 = openflow::FlowTable::named(0, "demux");
    for ce in 0..config.ces {
        t0.insert(FlowEntry::new(
            FlowMatch::any()
                .with_exact(Field::InPort, u128::from(PORT_USER))
                .with_exact(Field::VlanVid, u128::from(ce_vlan(ce))),
            200,
            vec![openflow::Instruction::GotoTable(ce_table(ce))],
        ));
    }
    // Everything that is not tagged user traffic of a known CE (i.e. the
    // network→user direction, plus stray frames) falls through to the
    // downstream mapping table; keeping this as the single catch-all keeps
    // table 0 uniform so it compiles to the hash template, as the paper
    // describes ("the hash template for each table except Table 110").
    t0.insert(FlowEntry::new(
        FlowMatch::any(),
        1,
        vec![openflow::Instruction::GotoTable(DOWNSTREAM_TABLE)],
    ));
    pipeline.add_table(t0);

    // Per-CE NAT tables: unknown users go to the controller for admission.
    for ce in 0..config.ces {
        let mut t = openflow::FlowTable::named(ce_table(ce), format!("ce{ce}-nat"));
        t.miss = openflow::TableMissBehavior::ToController;
        pipeline.add_table(t);
    }

    // Table 110: the Internet routing table.
    let mut routing = openflow::FlowTable::named(ROUTING_TABLE, "routing");
    for route in routes(config) {
        routing.insert(FlowEntry::new(
            FlowMatch::any().with_prefix(
                Field::Ipv4Dst,
                u128::from(route.prefix.to_u32()),
                u32::from(route.len),
            ),
            100 + u16::from(route.len),
            terminal_actions(vec![Action::DecNwTtl, Action::Output(PORT_NET)]),
        ));
    }
    routing.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
    pipeline.add_table(routing);

    // Downstream mapping table.
    let mut downstream = openflow::FlowTable::named(DOWNSTREAM_TABLE, "downstream");
    downstream.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
    pipeline.add_table(downstream);

    // Per-user NAT rules.
    if config.preinstall_users {
        for ce in 0..config.ces {
            for user in 0..config.users_per_ce {
                for fm in user_flow_mods(ce, user) {
                    openflow::flow_mod::apply_flow_mod(&mut pipeline, &fm)
                        .expect("static gateway rules apply cleanly");
                }
            }
        }
    }
    pipeline
}

/// The gateway's reactive admission controller: on a packet-in from a per-CE
/// table it allocates the user's public address and installs the NAT rule
/// pair. Used by the update-intensity experiments and the reactive example.
pub fn admission_controller(config: &GatewayConfig) -> impl Controller {
    let ces = config.ces;
    let users = config.users_per_ce;
    FnController::new(move |pi| {
        let key = FlowKey::extract(&pi.packet);
        let (Some(vid), Some(src)) = (key.vlan_vid, key.ipv4_src) else {
            return vec![ControllerDecision::Drop];
        };
        let ce = usize::from(vid.saturating_sub(100));
        if ce >= ces {
            return vec![ControllerDecision::Drop];
        }
        // Recover the user index from the private address layout.
        let octets = Ipv4Addr4::from_u32(src).octets();
        let user = usize::from(octets[2]) * 250 + usize::from(octets[3]).saturating_sub(2);
        if user >= users {
            return vec![ControllerDecision::Drop];
        }
        user_flow_mods(ce, user)
            .into_iter()
            .map(ControllerDecision::FlowMod)
            .collect()
    })
}

/// Builds the upstream (user→network) traffic mix: `active_flows` distinct
/// flows spread over the provisioned users, each targeting a destination
/// covered by the routing table, with varying ports for flow diversity.
pub fn build_traffic(config: &GatewayConfig, active_flows: usize) -> FlowSet {
    let routes = routes(config);
    let destinations = sample_covered_addresses(&routes, active_flows.max(1), config.seed ^ 0xd57);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7247);
    let prototypes = destinations
        .into_iter()
        .enumerate()
        .map(|(f, dst)| {
            let ce = f % config.ces.max(1);
            let user = (f / config.ces.max(1)) % config.users_per_ce.max(1);
            PacketBuilder::tcp()
                .vlan(ce_vlan(ce))
                .ipv4_src(user_private_ip(ce, user).octets())
                .ipv4_dst(dst.octets())
                .tcp_src(rng.gen_range(1024..60_000))
                .tcp_dst([80u16, 443, 53, 8080][f % 4])
                .in_port(PORT_USER)
                .build()
        })
        .collect();
    FlowSet::new(prototypes, config.seed ^ active_flows as u64)
}

/// Builds the downstream (network→user) traffic mix: packets addressed to the
/// users' public addresses arriving on the network port.
pub fn build_downstream_traffic(config: &GatewayConfig, active_flows: usize) -> FlowSet {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xd04e);
    let prototypes = (0..active_flows.max(1))
        .map(|f| {
            let ce = f % config.ces.max(1);
            let user = (f / config.ces.max(1)) % config.users_per_ce.max(1);
            PacketBuilder::tcp()
                .ipv4_src([198, 51, 100, (f % 200) as u8 + 1])
                .ipv4_dst(user_public_ip(ce, user).octets())
                .tcp_src(80)
                .tcp_dst(rng.gen_range(1024..60_000))
                .in_port(PORT_NET)
                .build()
        })
        .collect();
    FlowSet::new(prototypes, config.seed ^ active_flows as u64 ^ 0xd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> GatewayConfig {
        GatewayConfig {
            ces: 3,
            users_per_ce: 4,
            routing_prefixes: 200,
            seed: 1,
            preinstall_users: true,
        }
    }

    #[test]
    fn pipeline_structure_matches_fig8() {
        let config = small_config();
        let p = build_pipeline(&config);
        // demux + 3 per-CE tables + routing + downstream.
        assert_eq!(p.table_count(), 6);
        assert!(p.table(ROUTING_TABLE).is_some());
        assert!(p.table(DOWNSTREAM_TABLE).is_some());
        p.validate().unwrap();
        // Per-CE tables hold one NAT entry per user.
        assert_eq!(p.table(ce_table(0)).unwrap().len(), 4);
        // Downstream table: one entry per user overall plus the drop.
        assert_eq!(p.table(DOWNSTREAM_TABLE).unwrap().len(), 12 + 1);
    }

    #[test]
    fn flow_mod_gate_sees_ce_rewrites_only_upstream_of_routing() {
        // What a user's rule pair touches — a CE table, the downstream
        // table — has only the demux upstream, which rewrites nothing; the
        // CE tables' NAT and VLAN pop are upstream of routing alone.
        let p = build_pipeline(&small_config());
        for ce in 0..3 {
            assert_eq!(p.fields_written_upstream(&[ce_table(ce)]), 0, "ce {ce}");
        }
        assert_eq!(p.fields_written_upstream(&[DOWNSTREAM_TABLE]), 0);
        let ce_rewrites = [Field::Ipv4Src, Field::VlanVid, Field::VlanPcp]
            .iter()
            .fold(0u64, |bits, f| bits | 1 << f.index());
        assert_eq!(p.fields_written_upstream(&[ROUTING_TABLE]), ce_rewrites);
    }

    #[test]
    fn upstream_packet_is_natted_and_routed() {
        let config = small_config();
        let pipeline = build_pipeline(&config);
        let traffic = build_traffic(&config, 16);
        for mut packet in traffic.one_cycle() {
            let verdict = pipeline.process_ct(&mut packet, &mut openflow::NoCt);
            assert_eq!(
                verdict.outputs,
                vec![PORT_NET],
                "upstream must reach the network"
            );
            let key = FlowKey::extract(&packet);
            // Source rewritten into the public pool, VLAN tag removed.
            assert_eq!(Ipv4Addr4::from_u32(key.ipv4_src.unwrap()).octets()[0], 100);
            assert_eq!(key.vlan_vid, None);
        }
    }

    #[test]
    fn downstream_packet_is_mapped_back_to_the_user() {
        let config = small_config();
        let pipeline = build_pipeline(&config);
        let mut packet = PacketBuilder::tcp()
            .ipv4_src([198, 51, 100, 1])
            .ipv4_dst(user_public_ip(1, 2).octets())
            .in_port(PORT_NET)
            .build();
        let verdict = pipeline.process_ct(&mut packet, &mut openflow::NoCt);
        assert_eq!(verdict.outputs, vec![PORT_USER]);
        let key = FlowKey::extract(&packet);
        assert_eq!(key.ipv4_dst, Some(user_private_ip(1, 2).to_u32()));
        assert_eq!(key.vlan_vid, Some(ce_vlan(1)));
    }

    #[test]
    fn unknown_user_is_punted_without_preinstall() {
        let config = GatewayConfig {
            preinstall_users: false,
            ..small_config()
        };
        let pipeline = build_pipeline(&config);
        let mut packet = PacketBuilder::tcp()
            .vlan(ce_vlan(0))
            .ipv4_src(user_private_ip(0, 0).octets())
            .ipv4_dst([8, 8, 8, 8])
            .in_port(PORT_USER)
            .build();
        let verdict = pipeline.process_ct(&mut packet, &mut openflow::NoCt);
        assert!(verdict.to_controller);
    }

    #[test]
    fn traffic_spreads_over_ces_and_users() {
        let config = small_config();
        let traffic = build_traffic(&config, 60);
        let mut vlans = std::collections::HashSet::new();
        let mut sources = std::collections::HashSet::new();
        for packet in traffic.one_cycle() {
            let key = FlowKey::extract(&packet);
            vlans.insert(key.vlan_vid.unwrap());
            sources.insert(key.ipv4_src.unwrap());
        }
        assert_eq!(vlans.len(), 3);
        assert_eq!(sources.len(), 12);
    }
}
