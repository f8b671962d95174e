//! The telco access-gateway (vPE) use case end to end, in reactive mode:
//! the per-CE tables start empty, unknown users are punted to the admission
//! controller, which allocates a public address and installs the NAT rule
//! pair; subsequent packets of the user take the compiled fast path. The
//! controller loop (`eswitch::Reactive`) answers the runtime's punts.
//!
//! Run with: `cargo run --release --example access_gateway`

use eswitch::runtime::EswitchRuntime;
use eswitch::Reactive;
use openflow::{Datapath, FlowKey};
use pkt::ipv4::Ipv4Addr4;
use workloads::gateway::{self, GatewayConfig};

fn main() {
    let config = GatewayConfig {
        ces: 4,
        users_per_ce: 8,
        routing_prefixes: 2_000,
        seed: 42,
        preinstall_users: false, // reactive admission
    };
    let switch = Reactive::new(
        EswitchRuntime::compile(gateway::build_pipeline(&config))
            .expect("gateway pipeline compiles"),
        Box::new(gateway::admission_controller(&config)),
    );
    let runtime = switch.inner();

    println!("compiled templates:");
    for (id, kind) in runtime.datapath().template_kinds() {
        println!("  table {id:>3}: {kind:?}");
    }

    // First packets from three users behind two CEs: all punted, NAT rules
    // installed reactively.
    let users = [(0usize, 1usize), (0, 2), (1, 1)];
    for &(ce, user) in &users {
        let mut packet = pkt::builder::PacketBuilder::tcp()
            .vlan(gateway::ce_vlan(ce))
            .ipv4_src(gateway::user_private_ip(ce, user).octets())
            .ipv4_dst([198, 51, 100, 10])
            .tcp_dst(443)
            .in_port(0)
            .build();
        let verdict = switch.process(&mut packet);
        println!(
            "first packet of CE{ce}/user{user}: to_controller = {}",
            verdict.to_controller
        );
    }
    println!(
        "controller handled {} packet-ins; updates: incremental={}, table rebuilds={}, full recompiles={}",
        switch.stats().packet_ins,
        runtime.updates.incremental.updates(),
        runtime.updates.table_rebuilds.updates(),
        runtime.updates.full_recompiles.updates(),
    );

    // Second packets of the same users: NATted and routed in the fast path.
    for &(ce, user) in &users {
        let mut packet = pkt::builder::PacketBuilder::tcp()
            .vlan(gateway::ce_vlan(ce))
            .ipv4_src(gateway::user_private_ip(ce, user).octets())
            .ipv4_dst([198, 51, 100, 10])
            .tcp_dst(443)
            .in_port(0)
            .build();
        let verdict = switch.process(&mut packet);
        let key = FlowKey::extract(&packet);
        println!(
            "CE{ce}/user{user}: outputs {:?}, source rewritten to {}",
            verdict.outputs,
            Ipv4Addr4::from_u32(key.ipv4_src.unwrap_or_default())
        );
    }

    // And a downstream packet towards one of the users.
    let mut down = pkt::builder::PacketBuilder::tcp()
        .ipv4_src([198, 51, 100, 10])
        .ipv4_dst(gateway::user_public_ip(0, 1).octets())
        .tcp_src(443)
        .in_port(1)
        .build();
    let verdict = switch.process(&mut down);
    let key = FlowKey::extract(&down);
    println!(
        "downstream to user0@CE0: outputs {:?}, destination {} vlan {:?}",
        verdict.outputs,
        Ipv4Addr4::from_u32(key.ipv4_dst.unwrap_or_default()),
        key.vlan_vid
    );
}
