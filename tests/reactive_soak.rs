//! Soak and backpressure tests for the sharded runtime's asynchronous
//! controller channel (the reactive slow path).
//!
//! * `sharded_learning_switch_converges_under_load` — streams ≥100K packets
//!   over 256 (src, dst) MAC flows through a sharded learning switch while
//!   punts resolve asynchronously: zero packets lost, punts for every flow
//!   go to zero once its install lands, and the reactive installs publish as
//!   `Incremental` epochs (the §3.4 ladder under miss-driven churn).
//! * `punt_ring_overflow_is_counted_never_blocking` — shrinks the punt ring
//!   to 4 slots under a miss storm with a deliberately slow controller:
//!   workers keep forwarding (never block on the ring), shed punt copies are
//!   counted as overflow, and every counter identity holds at shutdown.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use eswitch_repro::openflow::controller::FnController;
use eswitch_repro::openflow::flow_match::FlowMatch;
use eswitch_repro::openflow::instruction::terminal_actions;
use eswitch_repro::openflow::{
    Action, Controller, ControllerDecision, Field, FlowEntry, FlowKey, FlowMod, PacketIn,
    PacketOut, Pipeline, TableMissBehavior,
};
use eswitch_repro::pkt::builder::PacketBuilder;
use eswitch_repro::pkt::{MacAddr, Packet};
use eswitch_repro::shard::{BackendSpec, LaunchParts, RssDispatcher, ShardedConfig, ShardedSwitch};

const HOSTS: u64 = 16;
const HOST_MAC_BASE: u64 = 0x0200_0000_2000;
/// Seeded MACs in a range disjoint from the hosts, so table 0 compiles to
/// the compound-hash template and learned installs absorb incrementally.
const SEED_MAC_BASE: u64 = 0x0200_0000_7000;

fn host_mac(i: u64) -> MacAddr {
    MacAddr::from_u64(HOST_MAC_BASE + i)
}

/// Table 0: 64 seeded MAC rules (hash template) + miss punts to controller.
fn learning_pipeline() -> Pipeline {
    let mut p = Pipeline::with_tables(1);
    let t = p.table_mut(0).unwrap();
    t.miss = TableMissBehavior::ToController;
    for i in 0..64u64 {
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::EthDst, u128::from(SEED_MAC_BASE + i)),
            10,
            terminal_actions(vec![Action::Output((i % 4) as u32)]),
        ));
    }
    p
}

/// A classic L2 learning switch as a controller application: learn the
/// source MAC's port from every packet-in; once the destination is known,
/// install a dst rule (through the epoch-swap control plane) and resubmit
/// the triggering packet so it takes the new rule; flood while unknown.
fn learning_controller() -> Box<dyn Controller> {
    let mut learned: HashMap<u64, u32> = HashMap::new();
    Box::new(FnController::new(move |pi: PacketIn| {
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
    }))
}

fn flow_packet(src: u64, dst: u64) -> Packet {
    PacketBuilder::udp()
        .eth_src(host_mac(src))
        .eth_dst(host_mac(dst))
        .in_port(src as u32)
        .build()
}

/// Waits until the reactive flow is provably quiescent: every dispatched
/// packet processed, every punt answered, every re-injected packet
/// processed, twice in a row.
fn quiesce(switch: &ShardedSwitch, dispatcher: &mut RssDispatcher) {
    dispatcher.flush();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = switch.reactive_stats().expect("reactive launch");
        let settled = switch.stats().packets == dispatcher.dispatched()
            && stats.answered == stats.punted
            && stats.injected == stats.reinjected;
        if settled
            && switch.reactive_stats().expect("reactive launch") == stats
            && switch.stats().packets == dispatcher.dispatched()
        {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "reactive flow never quiesced: {stats:?}"
        );
        std::thread::yield_now();
    }
}

/// [`quiesce`], then additionally wait for every shard to serve the newest
/// epoch — the moment the last punt is answered its install is published
/// but a shard only swaps it in at the next burst boundary.
fn quiesce_and_converge(switch: &ShardedSwitch, dispatcher: &mut RssDispatcher) {
    quiesce(switch, dispatcher);
    let deadline = Instant::now() + Duration::from_secs(30);
    while switch.shard_epochs().iter().any(|e| *e != switch.epoch()) {
        assert!(Instant::now() < deadline, "shards never converged");
        std::thread::yield_now();
    }
}

#[test]
fn sharded_learning_switch_converges_under_load() {
    let (switch, mut dispatcher) = ShardedSwitch::launch_with(
        BackendSpec::eswitch(),
        learning_pipeline(),
        ShardedConfig {
            workers: 2,
            ring_capacity: 1024,
            ..ShardedConfig::default()
        },
        LaunchParts {
            controller: Some(learning_controller()),
            ..LaunchParts::default()
        },
    )
    .unwrap();

    // Phase 0: every host speaks once, so the controller learns all ports.
    for i in 0..HOSTS {
        dispatcher.dispatch(flow_packet(i, (i + 1) % HOSTS));
    }

    // Phase 1: ≥100K packets round-robin over all 256 (src, dst) pairs while
    // the punts resolve. In-flight + processed always adds up: nothing is
    // dropped on the punt path, and the shutdown fixpoint proves it below.
    let flows: Vec<(u64, u64)> = (0..HOSTS)
        .flat_map(|s| (0..HOSTS).map(move |d| (s, d)))
        .collect();
    assert_eq!(flows.len(), 256);
    let mut streamed = 0usize;
    while streamed < 100_000 {
        for &(s, d) in &flows {
            dispatcher.dispatch(flow_packet(s, d));
        }
        streamed += flows.len();
    }
    quiesce_and_converge(&switch, &mut dispatcher);
    let converged = switch.reactive_stats().unwrap();
    assert!(converged.punted > 0, "the miss path never punted");
    assert!(
        converged.flow_mods >= HOSTS,
        "installs missing: {converged:?}"
    );
    assert!(converged.reinjected > 0, "no packet-out was re-injected");

    // Phase 2: punts for every flow are zero after its install — another
    // 50K packets over the same flows must not raise a single new punt
    // attempt (admitted or suppressed): every flow hits the fast path.
    for _ in 0..200 {
        for &(s, d) in &flows {
            dispatcher.dispatch(flow_packet(s, d));
        }
    }
    quiesce(&switch, &mut dispatcher);
    let settled = switch.reactive_stats().unwrap();
    assert_eq!(
        settled.attempts(),
        converged.attempts(),
        "installed flows kept punting"
    );
    assert_eq!(settled.answered, converged.answered);

    // The reactive installs went through the §3.4 planner: the histogram is
    // dominated by Incremental epochs (hash-shaped MAC adds).
    let classes = switch.update_classes();
    assert!(
        classes.incremental >= HOSTS,
        "learned installs should be incremental: {classes:?}"
    );
    assert!(
        classes.incremental > classes.per_table + classes.full,
        "histogram not dominated by Incremental: {classes:?}"
    );

    let report = switch.shutdown(dispatcher);
    // Zero lost packets: processed + in-flight == dispatched, and at
    // shutdown in-flight is provably zero.
    assert_eq!(report.processed.packets, report.dispatched);
    let reactive = report.reactive.expect("reactive launch");
    // Every punted, answered, re-injected and suppressed packet accounted
    // exactly once.
    assert_eq!(reactive.answered, reactive.punted);
    assert_eq!(reactive.injected, reactive.reinjected);
    assert_eq!(reactive.admitted, reactive.punted + reactive.overflow);
    assert_eq!(reactive.attempts(), reactive.admitted + reactive.suppressed);
    assert!(
        reactive.suppressed > 0,
        "dedup never suppressed a duplicate"
    );
}

#[test]
fn punt_ring_overflow_is_counted_never_blocking() {
    // Everything misses, every flow is distinct (dedup cannot absorb the
    // storm), the controller is deliberately slow, and the punt ring holds
    // only 4 slots: the overwhelming majority of punt copies must be shed —
    // counted — while the workers keep forwarding at full rate.
    let mut pipeline = Pipeline::with_tables(1);
    pipeline.table_mut(0).unwrap().miss = TableMissBehavior::ToController;

    let slow_controller: Box<dyn Controller> = Box::new(FnController::new(|_pi: PacketIn| {
        std::thread::sleep(Duration::from_micros(200));
        vec![ControllerDecision::Drop]
    }));

    let (switch, mut dispatcher) = ShardedSwitch::launch_with(
        BackendSpec::eswitch(),
        pipeline,
        ShardedConfig {
            workers: 2,
            ring_capacity: 256,
            punt_ring_capacity: 4,
            ..ShardedConfig::default()
        },
        LaunchParts {
            controller: Some(slow_controller),
            ..LaunchParts::default()
        },
    )
    .unwrap();

    let total = 8_192u64;
    for i in 0..total {
        // Distinct source MACs: every packet is a fresh flow.
        dispatcher.dispatch(
            PacketBuilder::udp()
                .eth_src(MacAddr::from_u64(0x0200_0000_9000 + i))
                .eth_dst(host_mac(0))
                .build(),
        );
    }
    dispatcher.flush();
    // Workers never block on the full punt ring: the whole storm is
    // processed while the controller has barely answered a thing.
    let deadline = Instant::now() + Duration::from_secs(30);
    while switch.stats().packets < total {
        assert!(Instant::now() < deadline, "workers stalled on punt ring");
        std::thread::yield_now();
    }
    let mid = switch.reactive_stats().unwrap();
    assert!(
        mid.overflow > 0,
        "4-slot punt ring never overflowed under a {total}-flow storm: {mid:?}"
    );
    // Every processed packet missed, every flow was distinct: each produced
    // exactly one punt attempt, resolved as enqueued or shed — none lost.
    assert_eq!(
        mid.punted + mid.overflow + mid.suppressed,
        total,
        "punt attempts unaccounted mid-storm: {mid:?}"
    );

    let report = switch.shutdown(dispatcher);
    assert_eq!(report.processed.packets, total, "packets lost under storm");
    let reactive = report.reactive.expect("reactive launch");
    // Every counter identity holds at shutdown: nothing silently dropped.
    assert_eq!(reactive.answered, reactive.punted);
    assert_eq!(reactive.admitted, reactive.punted + reactive.overflow);
    assert_eq!(reactive.attempts(), reactive.admitted + reactive.suppressed);
    assert_eq!(reactive.reinjected, 0);
    assert_eq!(reactive.injected, 0);
    assert_eq!(reactive.attempts(), total, "a punt attempt went missing");
}
