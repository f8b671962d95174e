//! Differential property test for the reactive slow path: a random
//! miss-to-controller pipeline driven by the *same* deterministic controller
//! must converge to identical final table contents — and therefore identical
//! per-flow verdicts — no matter which runtime carried the punts:
//!
//! (a) the synchronous controller loop, `Reactive`, over a single-switch
//!     `EswitchRuntime`,
//! (b) the same loop over a single-switch `OvsDatapath`,
//! (c) the sharded runtime's asynchronous controller channel, with 1, 2 and
//!     4 worker shards, on both the ESWITCH and the OVS backend.
//!
//! The asynchronous channel reorders, buffers and deduplicates punts; none
//! of that may change *what* ends up installed, only *when*.
//!
//! Both loops answer through one decision applier, so they also count the
//! answers the same way: applied and refused flow-mods, direct packet-outs
//! and drops.

use std::time::{Duration, Instant};

use eswitch::runtime::EswitchRuntime;
use eswitch::Reactive;
use openflow::controller::FnController;
use openflow::flow_match::FlowMatch;
use openflow::instruction::terminal_actions;
use openflow::{
    Action, Controller, ControllerDecision, Datapath, Field, FlowEntry, FlowKey, FlowMod,
    Instruction, NoCt, PacketIn, PacketOut, Pipeline, TableMissBehavior,
};
use ovsdp::OvsDatapath;
use pkt::builder::PacketBuilder;
use pkt::{MacAddr, Packet};
use proptest::prelude::*;
use shard::{BackendSpec, LaunchParts, RssDispatcher, ShardedConfig, ShardedSwitch};

const SEED_MAC_BASE: u64 = 0x0200_0000_5000;
const FLOW_MAC_BASE: u64 = 0x0200_0000_6000;
const DROP_MAC_BASE: u64 = 0x0200_0000_7000;

/// Table 0: a few seeded MAC rules plus a miss that punts to the controller.
fn reactive_pipeline(seeded: u64) -> Pipeline {
    let mut p = Pipeline::with_tables(1);
    let t = p.table_mut(0).unwrap();
    t.miss = TableMissBehavior::ToController;
    for i in 0..seeded {
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::EthDst, u128::from(SEED_MAC_BASE + i)),
            10,
            terminal_actions(vec![Action::Output((i % 4) as u32)]),
        ));
    }
    p
}

/// A deterministic reactive controller: the install is a pure function of
/// the punted packet's key, so every runtime must converge to the same
/// table contents regardless of punt order, duplication or suppression.
fn deterministic_controller() -> Box<dyn Controller> {
    Box::new(FnController::new(|pi: PacketIn| {
        let key = FlowKey::extract(&pi.packet);
        let out = (key.eth_dst % 5) as u32;
        vec![ControllerDecision::FlowMod(FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::EthDst, u128::from(key.eth_dst)),
            10,
            terminal_actions(vec![Action::Output(out)]),
        ))]
    }))
}

fn flow_packet(flow: u64, rep: u64) -> Packet {
    PacketBuilder::udp()
        .eth_dst(MacAddr::from_u64(FLOW_MAC_BASE + flow))
        .udp_src(40_000 + (rep % 16) as u16)
        .build()
}

/// Canonical dump of every table's contents, order-independent.
fn canonical_tables(pipeline: &Pipeline) -> Vec<(u32, u16, String, String)> {
    let mut out: Vec<(u32, u16, String, String)> = pipeline
        .tables()
        .iter()
        .flat_map(|t| {
            t.entries().iter().map(|e| {
                (
                    t.id,
                    e.priority,
                    format!("{:?}", e.flow_match),
                    format!("{:?}", e.instructions),
                )
            })
        })
        .collect();
    out.sort();
    out
}

/// Per-flow verdicts of a pipeline on the probe set, via the reference
/// interpreter (the runtimes' fast paths are pinned to it elsewhere).
fn per_flow_verdicts(pipeline: &Pipeline, flows: &[u64]) -> Vec<(Vec<u32>, bool, bool)> {
    flows
        .iter()
        .map(|f| {
            pipeline
                .process_ct(&mut flow_packet(*f, 0), &mut NoCt)
                .decision()
        })
        .collect()
}

/// Runs the traffic through a reactive sharded launch and returns a clone of
/// the final canonical pipeline once the punt flow is quiescent.
fn sharded_final_pipeline(
    spec: BackendSpec,
    workers: usize,
    base: &Pipeline,
    traffic: &[Packet],
) -> Pipeline {
    let (switch, mut dispatcher) = ShardedSwitch::launch_with(
        spec,
        base.clone(),
        ShardedConfig {
            workers,
            ring_capacity: 256,
            ..ShardedConfig::default()
        },
        LaunchParts {
            controller: Some(deterministic_controller()),
            ..LaunchParts::default()
        },
    )
    .expect("base pipeline compiles");
    for packet in traffic {
        dispatcher.dispatch(packet.clone());
    }
    quiesce(&switch, &mut dispatcher);
    let pipeline = switch.with_pipeline(Pipeline::clone);
    let report = switch.shutdown(dispatcher);
    assert_eq!(report.processed.packets, report.dispatched);
    let reactive = report.reactive.expect("reactive launch");
    assert_eq!(reactive.answered, reactive.punted);
    assert_eq!(reactive.admitted, reactive.punted + reactive.overflow);
    pipeline
}

fn quiesce(switch: &ShardedSwitch, dispatcher: &mut RssDispatcher) {
    dispatcher.flush();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = switch.reactive_stats().expect("reactive launch");
        if switch.stats().packets == dispatcher.dispatched()
            && stats.answered == stats.punted
            && stats.injected == stats.reinjected
            && switch.reactive_stats().expect("reactive launch") == stats
        {
            return;
        }
        assert!(Instant::now() < deadline, "never quiesced: {stats:?}");
        std::thread::yield_now();
    }
}

/// A controller giving every kind of answer. A flow below `DROP_MAC_BASE`
/// gets one valid install, one install with a backward `GotoTable` (which
/// every flow-mod path refuses) and one packet-out with an explicit
/// `Output`; any other flow is dropped.
fn mixed_answer_controller() -> Box<dyn Controller> {
    Box::new(FnController::new(|pi: PacketIn| {
        let key = FlowKey::extract(&pi.packet);
        if key.eth_dst >= DROP_MAC_BASE {
            return vec![ControllerDecision::Drop];
        }
        let flow = FlowMatch::any().with_exact(Field::EthDst, u128::from(key.eth_dst));
        vec![
            ControllerDecision::FlowMod(FlowMod::add(
                0,
                flow.clone(),
                10,
                terminal_actions(vec![Action::Output(1)]),
            )),
            ControllerDecision::FlowMod(FlowMod::add(1, flow, 10, vec![Instruction::GotoTable(0)])),
            ControllerDecision::PacketOut(PacketOut::new(pi.packet, vec![Action::Output(2)])),
        ]
    }))
}

#[test]
fn both_loops_count_the_same_answers() {
    let base = reactive_pipeline(2);
    // One packet per flow, so each flow raises exactly one packet-in in
    // either loop: three installing flows, two dropped ones.
    let traffic: Vec<Packet> = (0..3)
        .map(|f| flow_packet(f, 0))
        .chain((0..2).map(|f| {
            PacketBuilder::udp()
                .eth_dst(MacAddr::from_u64(DROP_MAC_BASE + f))
                .build()
        }))
        .collect();

    let sync = Reactive::new(
        EswitchRuntime::compile(base.clone()).unwrap(),
        mixed_answer_controller(),
    );
    for packet in &traffic {
        sync.process(&mut packet.clone());
    }
    let sync = sync.stats();

    let (switch, mut dispatcher) = ShardedSwitch::launch_with(
        BackendSpec::eswitch(),
        base,
        ShardedConfig {
            workers: 1,
            ring_capacity: 256,
            ..ShardedConfig::default()
        },
        LaunchParts {
            controller: Some(mixed_answer_controller()),
            ..LaunchParts::default()
        },
    )
    .expect("base pipeline compiles");
    for packet in &traffic {
        dispatcher.dispatch(packet.clone());
    }
    quiesce(&switch, &mut dispatcher);
    let sharded = switch
        .shutdown(dispatcher)
        .reactive
        .expect("reactive launch");

    // [flow_mods, flow_mods_rejected, direct_outs, dropped]
    let sync = [
        sync.flow_mods,
        sync.flow_mods_rejected,
        sync.direct_outs,
        sync.dropped,
    ];
    let sharded = [
        sharded.flow_mods,
        sharded.flow_mods_rejected,
        sharded.direct_outs,
        sharded.dropped,
    ];
    assert_eq!(sync, sharded, "the two loops counted different answers");
    assert_eq!(sync, [3, 3, 3, 2]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every punt-carrying runtime converges to the same installed state.
    #[test]
    fn reactive_runtimes_converge_to_identical_tables(
        seeded in 1u64..8,
        flows in prop::collection::vec(0u64..24, 2..20),
        reps in 1u64..4,
    ) {
        let base = reactive_pipeline(seeded);
        // The traffic: every flow `reps` times, interleaved.
        let traffic: Vec<Packet> = (0..reps)
            .flat_map(|r| flows.iter().map(move |f| flow_packet(*f, r)))
            .collect();

        // (a) the synchronous loop over the ESWITCH runtime.
        let es = Reactive::new(
            EswitchRuntime::compile(base.clone()).unwrap(),
            deterministic_controller(),
        );
        for packet in &traffic {
            es.process(&mut packet.clone());
        }
        let expected_tables = es.inner().with_pipeline(canonical_tables);
        let expected_verdicts = es.inner().with_pipeline(|p| per_flow_verdicts(p, &flows));

        // (b) the same loop over the OVS datapath.
        let ovs = Reactive::new(OvsDatapath::new(base.clone()), deterministic_controller());
        for packet in &traffic {
            ovs.process(&mut packet.clone());
        }
        {
            let pipeline = ovs.inner().pipeline();
            let guard = pipeline.read();
            prop_assert_eq!(&canonical_tables(&guard), &expected_tables, "OVS single-switch diverged");
            prop_assert_eq!(&per_flow_verdicts(&guard, &flows), &expected_verdicts);
        }

        // (c) the asynchronous controller channel: 1, 2 and 4 shards, both
        // backends. Buffering, reordering and dedup must not change what
        // converges.
        for spec in [BackendSpec::eswitch(), BackendSpec::ovs()] {
            for workers in [1usize, 2, 4] {
                let converged = sharded_final_pipeline(spec, workers, &base, &traffic);
                prop_assert_eq!(
                    &canonical_tables(&converged),
                    &expected_tables,
                    "sharded {}x{} diverged",
                    spec.label(),
                    workers
                );
                prop_assert_eq!(
                    &per_flow_verdicts(&converged, &flows),
                    &expected_verdicts,
                    "sharded {}x{} per-flow verdicts diverged",
                    spec.label(),
                    workers
                );
            }
        }
    }
}
