//! Integration tests for update handling: ESWITCH's per-table, mostly
//! non-destructive updates versus the OVS architecture's cache invalidation
//! (§3.4 and Figs. 17–18).

use eswitch::runtime::EswitchRuntime;
use openflow::flow_match::FlowMatch;
use openflow::instruction::terminal_actions;
use openflow::{Action, Datapath, Field, FlowMod};
use ovsdp::OvsDatapath;
use workloads::gateway::{self, GatewayConfig};
use workloads::l2::{self, L2Config};

fn small_gateway() -> GatewayConfig {
    GatewayConfig {
        ces: 3,
        users_per_ce: 5,
        routing_prefixes: 300,
        seed: 31,
        preinstall_users: true,
    }
}

#[test]
fn route_update_is_incremental_for_eswitch_and_flushes_ovs() {
    let config = small_gateway();
    let eswitch = EswitchRuntime::compile(gateway::build_pipeline(&config)).unwrap();
    let ovs = OvsDatapath::new(gateway::build_pipeline(&config));
    let traffic = gateway::build_traffic(&config, 200);

    // Warm both.
    for i in 0..2_000 {
        eswitch.process(&mut traffic.packet(i));
        ovs.process(&mut traffic.packet(i));
    }
    let megaflows_before = ovs.megaflow_count();
    assert!(megaflows_before > 0);

    // A single route added to the last-level routing table.
    let fm = FlowMod::add(
        gateway::ROUTING_TABLE,
        FlowMatch::any().with_prefix(
            Field::Ipv4Dst,
            u128::from(u32::from_be_bytes([203, 0, 113, 0])),
            24,
        ),
        134,
        terminal_actions(vec![Action::Output(1)]),
    );
    eswitch.flow_mod(&fm).unwrap();
    ovs.flow_mod(&fm).unwrap();

    // ESWITCH absorbed it in place (LPM insert), no full recompilation; the
    // counter records meaningful units (one update touching one entry).
    assert_eq!(eswitch.updates.incremental.updates(), 1);
    assert_eq!(eswitch.updates.incremental.entries(), 1);
    assert_eq!(eswitch.updates.full_recompiles.updates(), 0);
    // OVS flushed only the megaflows the route can overlap: Ipv4Dst is
    // rewritten in the downstream table, which is not upstream of routing,
    // so the route's delta is selective-safe and the rest of the cache
    // survives.
    let megaflows_after = ovs.megaflow_count();
    assert!(
        megaflows_after > 0 && megaflows_after <= megaflows_before,
        "{megaflows_before} megaflows before the route, {megaflows_after} after"
    );

    // Both still forward the pre-existing traffic identically, and both now
    // route the new prefix.
    for i in 0..200 {
        let mut a = traffic.packet(i);
        let mut b = traffic.packet(i);
        assert_eq!(
            eswitch.process(&mut a).decision(),
            ovs.process(&mut b).decision()
        );
    }
    let new_dst = pkt::builder::PacketBuilder::tcp()
        .vlan(gateway::ce_vlan(0))
        .ipv4_src(gateway::user_private_ip(0, 0).octets())
        .ipv4_dst([203, 0, 113, 7])
        .in_port(0)
        .build();
    assert_eq!(eswitch.process(&mut new_dst.clone()).outputs, vec![1]);
    assert_eq!(ovs.process(&mut new_dst.clone()).outputs, vec![1]);

    // A route keyed on the source address the CE tables rewrite upstream
    // cannot be checked against the cached, pre-NAT keys: OVS flushes
    // every megaflow.
    let public = gateway::user_public_ip(0, 0).to_u32();
    let by_source = FlowMod::add(
        gateway::ROUTING_TABLE,
        FlowMatch::any().with_exact(Field::Ipv4Src, u128::from(public)),
        300,
        terminal_actions(vec![Action::Output(2)]),
    );
    eswitch.flow_mod(&by_source).unwrap();
    ovs.flow_mod(&by_source).unwrap();
    assert_eq!(ovs.megaflow_count(), 0);
    for mut packet in [new_dst.clone(), traffic.packet(0)] {
        let mut copy = packet.clone();
        assert_eq!(
            eswitch.process(&mut packet).decision(),
            ovs.process(&mut copy).decision()
        );
    }
    assert_eq!(ovs.process(&mut new_dst.clone()).outputs, vec![2]);
}

#[test]
fn batched_updates_keep_both_switches_consistent() {
    // The Fig. 18 "batched updates" scenario: 20 adds and 20 strict deletes
    // applied back to back; afterwards both architectures agree on fresh
    // traffic and ESWITCH never needed a full recompile.
    let config = L2Config {
        table_size: 256,
        ports: 4,
        seed: 33,
    };
    let eswitch = EswitchRuntime::compile(l2::build_pipeline(&config)).unwrap();
    let ovs = OvsDatapath::new(l2::build_pipeline(&config));

    for round in 0..5u64 {
        let base = 0x0600_0000_0000 + round * 100;
        let mods: Vec<FlowMod> = (0..20)
            .map(|i| {
                FlowMod::add(
                    0,
                    FlowMatch::any().with_exact(Field::EthDst, u128::from(base + i)),
                    100,
                    terminal_actions(vec![Action::Output(2)]),
                )
            })
            .collect();
        let dels: Vec<FlowMod> = (0..20)
            .map(|i| {
                FlowMod::delete_strict(
                    0,
                    FlowMatch::any().with_exact(Field::EthDst, u128::from(base + i)),
                    100,
                )
            })
            .collect();
        for fm in mods.iter().chain(dels.iter()) {
            eswitch.flow_mod(fm).unwrap();
            ovs.flow_mod(fm).unwrap();
        }
    }
    assert_eq!(eswitch.updates.full_recompiles.updates(), 0);
    assert!(eswitch.updates.incremental.updates() > 0);

    let traffic = l2::build_traffic(&config, 300);
    for packet in traffic.one_cycle() {
        let mut a = packet.clone();
        let mut b = packet;
        assert_eq!(
            eswitch.process(&mut a).decision(),
            ovs.process(&mut b).decision()
        );
    }
}

#[test]
fn updates_concurrent_with_forwarding_never_misroute() {
    // Packets processed while another thread updates an unrelated table must
    // never observe a broken datapath (the trampoline swap is atomic).
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let config = small_gateway();
    let eswitch = Arc::new(EswitchRuntime::compile(gateway::build_pipeline(&config)).unwrap());
    let traffic = gateway::build_traffic(&config, 100);
    let stop = Arc::new(AtomicBool::new(false));

    let updater = {
        let eswitch = Arc::clone(&eswitch);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let prefix = u32::from_be_bytes([202, (i % 200) as u8, 0, 0]);
                let fm = FlowMod::add(
                    gateway::ROUTING_TABLE,
                    FlowMatch::any().with_prefix(Field::Ipv4Dst, u128::from(prefix), 16),
                    126,
                    terminal_actions(vec![Action::Output(1)]),
                );
                eswitch.flow_mod(&fm).unwrap();
                i += 1;
            }
            i
        })
    };

    for i in 0..5_000 {
        let mut packet = traffic.packet(i);
        let verdict = eswitch.process(&mut packet);
        // Every upstream packet of a provisioned user reaches the network.
        assert_eq!(verdict.outputs, vec![1]);
    }
    stop.store(true, Ordering::Relaxed);
    assert!(updater.join().unwrap() > 0);
}
