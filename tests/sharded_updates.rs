//! Updates-under-traffic: flow-mods racing live packets through the sharded
//! runtime.
//!
//! The §3.4 guarantee the `shard` control plane must uphold: an update is
//! atomic per packet. While packets stream through N worker shards and
//! flow-mods fire from another thread, every verdict must be consistent with
//! either the pre-update or the post-update pipeline — never a mixture
//! within one packet — and the epoch swap must not drop a single packet.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eswitch_repro::openflow::flow_match::FlowMatch;
use eswitch_repro::openflow::instruction::terminal_actions;
use eswitch_repro::openflow::{Action, Field, FlowEntry, FlowMod, Pipeline, Verdict};
use eswitch_repro::pkt::builder::PacketBuilder;
use eswitch_repro::pkt::Packet;
use eswitch_repro::shard::{BackendSpec, LaunchParts, ShardedConfig, ShardedSwitch, VerdictSink};

/// The two-output entry the updater keeps flipping. A torn update would show
/// up as a verdict mixing the pairs (e.g. ports `[1, 4]`).
const OLD_OUTPUTS: [u32; 2] = [1, 2];
const NEW_OUTPUTS: [u32; 2] = [3, 4];
const FINAL_OUTPUTS: [u32; 2] = [9, 10];

/// `(shard, output ports)` pairs recorded by the verdict sink.
type SeenVerdicts = Arc<Mutex<Vec<(usize, Vec<u32>)>>>;

fn pipeline_with(outputs: &[u32]) -> Vec<Action> {
    outputs.iter().map(|p| Action::Output(*p)).collect()
}

fn base_pipeline() -> Pipeline {
    let mut p = Pipeline::with_tables(1);
    let t = p.table_mut(0).unwrap();
    t.insert(FlowEntry::new(
        FlowMatch::any().with_exact(Field::TcpDst, 80),
        100,
        terminal_actions(pipeline_with(&OLD_OUTPUTS)),
    ));
    t.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
    p
}

fn flip_to(outputs: &[u32]) -> FlowMod {
    FlowMod::add(
        0,
        FlowMatch::any().with_exact(Field::TcpDst, 80),
        100,
        terminal_actions(pipeline_with(outputs)),
    )
}

fn traffic_packet(i: usize) -> Packet {
    PacketBuilder::tcp()
        .tcp_dst(80)
        .tcp_src(1024 + (i % 2048) as u16)
        .build()
}

#[test]
fn flow_mods_under_load_are_per_packet_atomic_and_lossless() {
    for spec in [BackendSpec::eswitch(), BackendSpec::ovs()] {
        let seen: SeenVerdicts = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let sink: VerdictSink = Arc::new(move |shard, _packet, verdict: &Verdict| {
            sink_seen
                .lock()
                .unwrap()
                .push((shard, verdict.outputs.to_vec()));
        });
        let (switch, mut dispatcher) = ShardedSwitch::launch_with(
            spec,
            base_pipeline(),
            ShardedConfig {
                workers: 2,
                ring_capacity: 256,
                ..ShardedConfig::default()
            },
            LaunchParts {
                sink: Some(sink),
                ..LaunchParts::default()
            },
        )
        .expect("pipeline compiles");
        let switch = Arc::new(switch);

        // Updater: flips the entry between the two output pairs from another
        // thread while the main thread keeps dispatching.
        let updates = 24u64;
        let updater = {
            let switch = Arc::clone(&switch);
            let updating = Arc::new(AtomicBool::new(true));
            let flag = Arc::clone(&updating);
            let handle = std::thread::spawn(move || {
                for round in 0..updates {
                    let outputs = if round % 2 == 0 {
                        &NEW_OUTPUTS
                    } else {
                        &OLD_OUTPUTS
                    };
                    switch
                        .flow_mod(&flip_to(outputs))
                        .expect("flow-mod applies");
                    std::thread::yield_now();
                }
                flag.store(false, Ordering::Release);
            });
            (handle, updating)
        };

        // Traffic: keep dispatching until every update has been published.
        let mut dispatched = 0usize;
        while updater.1.load(Ordering::Acquire) {
            for _ in 0..256 {
                dispatcher.dispatch(traffic_packet(dispatched));
                dispatched += 1;
            }
        }
        updater.0.join().expect("updater panicked");
        assert_eq!(switch.epoch(), updates, "{}", spec.label());

        // Workers must have kept processing while epochs advanced.
        let mid = switch.stats();
        assert!(
            mid.packets > 0,
            "{}: no packets processed during the update storm",
            spec.label()
        );

        // Final update; then stream until *every* shard demonstrably serves
        // it (a shard applies an epoch at its next loop iteration, so this
        // converges quickly — the deadline is pure paranoia).
        switch.flow_mod(&flip_to(&FINAL_OUTPUTS)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut converged: HashSet<usize> = HashSet::new();
        while converged.len() < switch.workers() {
            for _ in 0..64 {
                dispatcher.dispatch(traffic_packet(dispatched));
                dispatched += 1;
            }
            dispatcher.flush();
            for (shard, outputs) in seen.lock().unwrap().iter() {
                if outputs == &FINAL_OUTPUTS {
                    converged.insert(*shard);
                }
            }
            assert!(
                Instant::now() < deadline,
                "{}: shards never converged to the final update (saw {:?})",
                spec.label(),
                converged
            );
        }

        let report = switch_into_inner(switch).shutdown(dispatcher);

        // Losslessness: every dispatched packet was processed and produced
        // exactly one verdict.
        assert_eq!(report.dispatched, dispatched as u64, "{}", spec.label());
        assert_eq!(
            report.processed.packets,
            report.dispatched,
            "{}: packets lost across the epoch swaps",
            spec.label()
        );
        let verdicts = seen.lock().unwrap();
        assert_eq!(verdicts.len(), dispatched, "{}", spec.label());

        // Per-packet atomicity: every verdict matches exactly one epoch's
        // pipeline; a mixed pair would be a torn update.
        let valid: [&[u32]; 3] = [&OLD_OUTPUTS, &NEW_OUTPUTS, &FINAL_OUTPUTS];
        let mut seen_pairs: HashSet<Vec<u32>> = HashSet::new();
        for (shard, outputs) in verdicts.iter() {
            assert!(
                valid.contains(&outputs.as_slice()),
                "{}: shard {shard} emitted a torn verdict {outputs:?}",
                spec.label()
            );
            seen_pairs.insert(outputs.clone());
        }
        // The updates genuinely raced the traffic: more than one epoch's
        // behaviour must appear in the stream.
        assert!(
            seen_pairs.len() >= 2,
            "{}: traffic never observed an update ({seen_pairs:?})",
            spec.label()
        );
        assert_eq!(report.epoch, updates + 1, "{}", spec.label());
    }
}

/// The gateway's user churn on a 2-shard OVS switch: removing and re-adding
/// a user's NAT rule pair touches a CE table and the downstream table, whose
/// goto-graph ancestor (the demux) rewrites nothing. So every epoch ships a
/// selective delta and is counted incremental — although a sibling CE table
/// rewrites `Ipv4Src`, the field the CE rules match — while traffic keeps
/// flowing through both shards' warm caches.
#[test]
fn gateway_user_churn_on_ovs_publishes_incremental_epochs() {
    use eswitch_repro::workloads::gateway::{self, GatewayConfig};
    let config = GatewayConfig {
        ces: 2,
        users_per_ce: 4,
        routing_prefixes: 32,
        seed: 7,
        preinstall_users: true,
    };
    let (switch, mut dispatcher) = ShardedSwitch::launch(
        BackendSpec::ovs(),
        gateway::build_pipeline(&config),
        ShardedConfig {
            workers: 2,
            ring_capacity: 256,
            ..ShardedConfig::default()
        },
    )
    .expect("gateway pipeline launches");
    let traffic = gateway::build_traffic(&config, 64);
    let mut flow_mods = 0u64;
    for round in 0..8 {
        // Remove one user's rule pair, then re-add it.
        let rules = gateway::user_flow_mods(round % 2, round / 2);
        let mut mods: Vec<FlowMod> = rules
            .iter()
            .map(|fm| {
                FlowMod::delete_strict(fm.table_id.unwrap(), fm.flow_match.clone(), fm.priority)
            })
            .collect();
        mods.extend(rules);
        for fm in &mods {
            switch.flow_mod(fm).expect("user rule applies");
            flow_mods += 1;
            for packet in traffic.one_cycle() {
                dispatcher.dispatch(packet);
            }
        }
    }
    let report = switch.shutdown(dispatcher);
    assert_eq!(report.processed.packets, report.dispatched);
    assert_eq!(report.epoch, flow_mods);
    assert_eq!(
        report.update_classes.incremental, flow_mods,
        "{:?}",
        report.update_classes
    );
    assert_eq!(report.update_classes.full, 0);
}

/// Unwraps the `Arc` once the updater thread is joined (sole owner again).
fn switch_into_inner(switch: Arc<ShardedSwitch>) -> ShardedSwitch {
    Arc::try_unwrap(switch).unwrap_or_else(|_| panic!("switch still shared"))
}
