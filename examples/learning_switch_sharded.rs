//! A classic L2 learning switch on the sharded runtime's reactive slow path.
//!
//! Worker shards forward on a seeded MAC table; unknown destinations punt to
//! the asynchronous controller channel. The controller learns source MACs
//! from the punts, installs destination rules back through the epoch-swap
//! control plane (incremental §3.4 epochs), and re-injects each triggering
//! packet through the RSS dispatcher so it takes the fresh rule on the fast
//! path. After one punt per destination, every flow runs punt-free.
//!
//! Run with: `cargo run --example learning_switch_sharded`

use std::collections::HashMap;
use std::time::{Duration, Instant};

use eswitch_repro::openflow::controller::FnController;
use eswitch_repro::openflow::flow_match::FlowMatch;
use eswitch_repro::openflow::instruction::terminal_actions;
use eswitch_repro::openflow::{
    Action, ControllerDecision, Field, FlowKey, FlowMod, PacketIn, PacketOut, Pipeline,
    TableMissBehavior,
};
use eswitch_repro::pkt::builder::PacketBuilder;
use eswitch_repro::pkt::{MacAddr, Packet};
use eswitch_repro::shard::{BackendSpec, LaunchParts, ShardedConfig, ShardedSwitch};

const HOSTS: u64 = 8;
const MAC_BASE: u64 = 0x0200_0000_aa00;

fn host_mac(i: u64) -> MacAddr {
    MacAddr::from_u64(MAC_BASE + i)
}

fn packet(src: u64, dst: u64) -> Packet {
    PacketBuilder::udp()
        .eth_src(host_mac(src))
        .eth_dst(host_mac(dst))
        .in_port(src as u32)
        .build()
}

fn main() {
    println!(
        "== sharded learning switch: reactive installs over the async controller channel ==\n"
    );

    // An empty-but-punting pipeline: every miss goes to the controller.
    let mut pipeline = Pipeline::with_tables(1);
    pipeline.table_mut(0).unwrap().miss = TableMissBehavior::ToController;

    // The learning-switch controller application: learn src → port, install
    // a dst rule once the destination is known, re-inject the trigger.
    let mut learned: HashMap<u64, u32> = HashMap::new();
    let controller = FnController::new(move |pi: PacketIn| {
        let key = FlowKey::extract(&pi.packet);
        learned.insert(key.eth_src, pi.packet.in_port);
        match learned.get(&key.eth_dst) {
            Some(port) => vec![
                ControllerDecision::FlowMod(FlowMod::add(
                    0,
                    FlowMatch::any().with_exact(Field::EthDst, u128::from(key.eth_dst)),
                    10,
                    terminal_actions(vec![Action::Output(*port)]),
                )),
                ControllerDecision::PacketOut(PacketOut::resubmit(pi.packet)),
            ],
            None => vec![ControllerDecision::PacketOut(PacketOut::new(
                pi.packet,
                vec![Action::Flood],
            ))],
        }
    });

    let (switch, mut dispatcher) = ShardedSwitch::launch_with(
        BackendSpec::eswitch(),
        pipeline,
        ShardedConfig {
            workers: 2,
            ring_capacity: 512,
            ..ShardedConfig::default()
        },
        LaunchParts {
            controller: Some(Box::new(controller)),
            ..LaunchParts::default()
        },
    )
    .expect("pipeline compiles");
    println!(
        "launched {} worker shards + 1 controller thread",
        switch.workers()
    );

    // Phase 1: ping-pong traffic between all host pairs while the punts
    // resolve asynchronously — workers never block on the controller.
    let pairs: Vec<(u64, u64)> = (0..HOSTS)
        .flat_map(|s| (0..HOSTS).filter(move |d| *d != s).map(move |d| (s, d)))
        .collect();
    for _ in 0..400 {
        for &(s, d) in &pairs {
            dispatcher.dispatch(packet(s, d));
        }
    }
    dispatcher.flush();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = switch.reactive_stats().expect("reactive launch");
        if switch.stats().packets == dispatcher.dispatched()
            && stats.answered == stats.punted
            && stats.injected == stats.reinjected
        {
            break;
        }
        assert!(Instant::now() < deadline, "never converged: {stats:?}");
        std::thread::yield_now();
    }
    while switch.shard_epochs().iter().any(|e| *e != switch.epoch()) {
        std::thread::yield_now();
    }
    let converged = switch.reactive_stats().unwrap();
    println!(
        "converged: {} punts raised ({} suppressed as duplicates), {} answered, {} rules installed, {} packet-outs re-injected",
        converged.punted,
        converged.suppressed,
        converged.answered,
        converged.flow_mods,
        converged.reinjected,
    );
    println!(
        "mean punt round-trip {:.1}µs; update classes {:?}",
        converged.rtt_mean_nanos() / 1_000.0,
        switch.update_classes(),
    );

    // Phase 2: every destination is installed — the same traffic now runs
    // entirely on the fast path, with zero further punts.
    for _ in 0..200 {
        for &(s, d) in &pairs {
            dispatcher.dispatch(packet(s, d));
        }
    }
    dispatcher.flush();
    while switch.stats().packets < dispatcher.dispatched() {
        std::thread::yield_now();
    }
    let settled = switch.reactive_stats().unwrap();
    assert_eq!(
        settled.attempts(),
        converged.attempts(),
        "installed flows must not punt again"
    );
    println!(
        "\nphase 2: {} more packets, zero new punts — every flow on the fast path",
        200 * pairs.len()
    );

    let report = switch.shutdown(dispatcher);
    assert_eq!(report.dispatched, report.processed.packets);
    let reactive = report.reactive.unwrap();
    assert_eq!(reactive.answered, reactive.punted);
    assert_eq!(reactive.injected, reactive.reinjected);
    println!(
        "shutdown: {} dispatched == {} processed; every punt answered, every re-injection processed",
        report.dispatched, report.processed.packets
    );
}
