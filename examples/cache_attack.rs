//! The "malicious workload" scenario of §2.3/§4.3: a single tenant emitting
//! high-entropy traffic (a port scan) degrades a flow-caching switch for
//! everyone, while the compiled datapath is unaffected.
//!
//! Act two aims the same adversary at the slow path it actually threatens:
//! the sharded *reactive* runtime, where the gateway admits users through
//! the controller. The scan mutates into a fake-user storm (every packet a
//! fresh unknown source, none ever installable), and the layered punt
//! admission — per-flow gate, per-source token buckets, aggregate budget —
//! sheds it while the legitimate users still get their NAT rules installed.
//!
//! Run with: `cargo run --release --example cache_attack`

use std::time::Instant;

use eswitch::runtime::EswitchRuntime;
use openflow::Datapath;
use ovsdp::OvsDatapath;
use pkt::builder::PacketBuilder;
use pkt::Packet;
use rand::prelude::*;
use shard::{BackendSpec, LaunchParts, PuntPolicy, ShardedConfig, ShardedSwitch};
use workloads::gateway::{self, GatewayConfig};

/// Builds the attacker's traffic: one provisioned user cycling destination
/// ports and addresses as fast as possible (every packet is a new flow).
fn attack_packets(count: usize, seed: u64) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            PacketBuilder::tcp()
                .vlan(gateway::ce_vlan(0))
                .ipv4_src(gateway::user_private_ip(0, 0).octets())
                .ipv4_dst([198, 51, 100, rng.gen_range(1..250)])
                .tcp_src(rng.gen_range(1024..u16::MAX))
                .tcp_dst(rng.gen())
                .in_port(0)
                .build()
        })
        .collect()
}

fn measure(
    label: &str,
    mut process: impl FnMut(&mut Packet),
    victim: &workloads::FlowSet,
    attack: &[Packet],
) {
    // Interleave victim traffic (a well-behaved user population) with the
    // attacker's scan, 1:1, and measure the aggregate rate.
    let packets = 200_000usize;
    let start = Instant::now();
    for i in 0..packets {
        if i % 2 == 0 {
            process(&mut victim.packet(i));
        } else {
            process(&mut attack[i % attack.len()].clone());
        }
    }
    let rate = packets as f64 / start.elapsed().as_secs_f64();
    println!("{label}: {:>12.0} packets/s under attack", rate);
}

/// The punt-path adversary: packets from CE 0 claiming private addresses no
/// provisioned user owns. Each one misses the NAT table, punts, and is
/// refused by the admission controller — so unlike the port scan (one punt,
/// then the user's NAT rule covers every probe), this storm punts forever.
/// Each fake identity scans from many distinct flows: the per-flow gate
/// (layer 1) only dedups an in-flight flow, so the identity's *aggregate*
/// punt rate is what the per-source bucket (layer 2) has to catch.
fn fake_user_packets(users: usize, flows_per_user: usize, seed: u64) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut packets = Vec::with_capacity(users * flows_per_user);
    for user in 0..users {
        let src = [10, 0, 200 + (user / 250) as u8, (user % 250 + 2) as u8];
        for _ in 0..flows_per_user {
            packets.push(
                PacketBuilder::tcp()
                    .vlan(gateway::ce_vlan(0))
                    .ipv4_src(src)
                    .ipv4_dst([198, 51, 100, rng.gen_range(1..250)])
                    .tcp_src(rng.gen_range(1024..u16::MAX))
                    .tcp_dst(80)
                    .in_port(0)
                    .build(),
            );
        }
    }
    packets.shuffle(&mut rng);
    packets
}

/// Act two: the fake-user storm against the sharded reactive runtime, with
/// the hardened punt-admission policy shedding it.
fn reactive_storm() {
    let config = GatewayConfig {
        preinstall_users: false,
        ..GatewayConfig::default()
    };
    let victim = gateway::build_traffic(&config, 1_000);
    // A pool of fake identities, each scanning from many flows, cycled
    // hard: every identity is far over the per-source punt rate, so layer 2
    // does the shedding. (Minting a fresh identity per packet instead
    // spreads thin over the bucket table and runs into the aggregate budget
    // — layer 3 — as the storm soak test shows.)
    let storm = fake_user_packets(64, 32, 0xbad);

    let (switch, mut dispatcher) = ShardedSwitch::launch_with(
        BackendSpec::eswitch(),
        gateway::build_pipeline(&config),
        ShardedConfig {
            workers: 2,
            controller_workers: 2,
            punt_policy: PuntPolicy::hardened(50, 10_000),
            ..ShardedConfig::default()
        },
        LaunchParts {
            controller: Some(Box::new(gateway::admission_controller(&config))),
            ..LaunchParts::default()
        },
    )
    .expect("gateway pipeline compiles");

    // Legitimate users (each needs one reactive admission) interleaved 1:1
    // with the fake-user storm.
    let mut packets = 60_000usize;
    let start = Instant::now();
    for i in 0..packets {
        if i % 2 == 0 {
            dispatcher.dispatch(victim.packet(i));
        } else {
            dispatcher.dispatch(storm[(i / 2) % storm.len()].clone());
        }
    }
    // A storm hot enough to drain the aggregate budget can shed a late
    // victim install too (the gate re-arms, the user's next packet
    // retries). Let the steady feed run until a full victim pass raises no
    // new punt attempt: every user on the fast path.
    let stats = |switch: &ShardedSwitch| switch.reactive_stats().expect("reactive launch");
    loop {
        let before = stats(&switch).attempts();
        for i in 0..victim.active_flows() {
            dispatcher.dispatch(victim.packet(packets + i));
        }
        packets += victim.active_flows();
        dispatcher.flush();
        while switch.stats().packets < dispatcher.dispatched() {
            std::thread::yield_now();
        }
        let s = stats(&switch);
        if s.attempts() == before && s.answered == s.punted {
            break;
        }
        assert!(
            start.elapsed().as_secs() < 60,
            "legitimate users starved by the storm: {s:?}"
        );
    }
    let report = switch.shutdown(dispatcher);
    let rate = packets as f64 / start.elapsed().as_secs_f64();
    let r = report.reactive.expect("reactive launch");

    println!("\nreactive gateway under fake-user storm (sharded runtime, 2 controller workers):");
    println!("  {rate:>12.0} packets/s end to end");
    println!(
        "  punts: {} admitted to the controller, {} suppressed in flight, {} shed per-source, {} shed aggregate, {} ring overflow",
        r.punted, r.suppressed, r.shed_source, r.shed_aggregate, r.overflow
    );
    let drains: Vec<u64> = r.per_worker.iter().map(|w| w.drained).collect();
    println!(
        "  {} NAT flow-mods installed for legitimate users (idempotent re-installs included); per-controller-worker drains {drains:?}",
        r.flow_mods
    );
    // The layered admission's exactly-once accounting, demonstrated live.
    assert_eq!(
        r.admitted,
        r.punted + r.overflow + r.shed_source + r.shed_aggregate
    );
    assert_eq!(r.answered, r.punted);
    // The convergence pass proved every active victim flow reached the fast
    // path; the flow-mod count shows the bulk of the user population was
    // admitted *through* the storm (2 NAT rules per user).
    let users = (config.ces * config.users_per_ce) as u64;
    assert!(
        r.flow_mods >= users,
        "legitimate users starved: {} flow-mods for {users} users",
        r.flow_mods
    );
    assert!(
        r.shed_source + r.shed_aggregate > 0,
        "the storm should have tripped the admission layers: {r:?}"
    );
    println!("  every active victim flow converged through the storm");
}

fn main() {
    let config = GatewayConfig::default();
    let victim = gateway::build_traffic(&config, 1_000);
    let attack = attack_packets(50_000, 0xbad);

    let eswitch = EswitchRuntime::compile(gateway::build_pipeline(&config)).expect("compiles");
    let ovs = OvsDatapath::new(gateway::build_pipeline(&config));

    // Warm both switches with the victim traffic only.
    for i in 0..20_000 {
        eswitch.process(&mut victim.packet(i));
        ovs.process(&mut victim.packet(i));
    }

    measure(
        "ESWITCH",
        |p| {
            eswitch.process(p);
        },
        &victim,
        &attack,
    );
    measure(
        "OVS    ",
        |p| {
            ovs.process(p);
        },
        &victim,
        &attack,
    );

    let (micro, mega, slow) = ovs.stats.hit_fractions();
    println!(
        "OVS hit fractions under attack: microflow {micro:.2}, megaflow {mega:.2}, slow path {slow:.2}"
    );
    println!(
        "OVS megaflows cached: {} (the scan punches one hole per probed flow)",
        ovs.megaflow_count()
    );
    println!("ESWITCH compiled tables are unaffected by the scan: no per-flow state exists.");

    reactive_storm();
}
