//! Differential property test for the §3.4 update planner: replaying a
//! random flow-mod sequence must leave every update path observationally
//! identical —
//!
//! (a) the three executions (`common::executions`: the interpreter, the
//!     planner-driven `EswitchRuntime` — incremental edits, per-table
//!     trampoline swaps, full recompiles, whatever the planner picked — and
//!     the OVS caches), each fed the sequence through `Datapath::flow_mod`,
//! (b) a from-scratch full recompilation of the final pipeline,
//! (c) the sharded runtime after epoch convergence, on both the ESWITCH and
//!     the OVS backend (delta-aware cache invalidation included),
//!
//! all compared against the reference interpreter on a fixed probe set. The
//! ladder is an optimisation, never a semantic change.

mod common;

use common::{assert_agree, executions};
use eswitch::runtime::EswitchRuntime;
use openflow::flow_match::FlowMatch;
use openflow::flow_mod::{apply_flow_mod, FlowModCommand};
use openflow::instruction::terminal_actions;
use openflow::{Action, Field, FlowEntry, FlowMod, Pipeline};
use pkt::builder::PacketBuilder;
use pkt::Packet;
use proptest::prelude::*;
use shard::{BackendSpec, LaunchParts, ShardedConfig, ShardedSwitch, VerdictSink};

const MAC_BASE: u64 = 0x0200_0000_0000;

/// A hash-templated L2 pipeline (table 0) and an LPM-templated routing
/// pipeline share the flow-mod universe below.
fn base_pipeline(lpm: bool) -> Pipeline {
    let mut p = Pipeline::with_tables(1);
    let t = p.table_mut(0).unwrap();
    if lpm {
        for i in 0..12u32 {
            let len = if i % 2 == 0 { 16 } else { 24 };
            t.insert(FlowEntry::new(
                FlowMatch::any().with_prefix(
                    Field::Ipv4Dst,
                    u128::from(u32::from_be_bytes([10, i as u8, 1, 0])),
                    len,
                ),
                (len + 10) as u16,
                terminal_actions(vec![Action::Output(i % 3)]),
            ));
        }
    } else {
        for i in 0..48u64 {
            t.insert(FlowEntry::new(
                FlowMatch::any().with_exact(Field::EthDst, u128::from(MAC_BASE + i)),
                10,
                terminal_actions(vec![Action::Output((i % 4) as u32)]),
            ));
        }
    }
    t.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
    p
}

/// One randomly generated flow-mod over the shared universe: hash-shaped MAC
/// adds/deletes, LPM-shaped route adds/deletes, non-strict deletes, modifies,
/// and the occasional structural add into a fresh table.
fn arb_flow_mod() -> impl Strategy<Value = FlowMod> {
    prop_oneof![
        // Template-shaped MAC add. Priorities vary deliberately: a
        // same-match add at another priority creates a duplicate a single
        // hash slot cannot express, which must escalate to a rebuild that
        // preserves highest-priority-wins semantics (and priority 1 ties
        // the catch-all, breaking the template prerequisite entirely).
        (
            0u64..64,
            0u32..4,
            prop_oneof![Just(1u16), Just(5), Just(10), Just(15)]
        )
            .prop_map(|(mac, out, priority)| FlowMod::add(
                0,
                FlowMatch::any().with_exact(Field::EthDst, u128::from(MAC_BASE + mac)),
                priority,
                terminal_actions(vec![Action::Output(out)]),
            )),
        // Strict MAC delete (incremental when present and unduplicated).
        (0u64..64, prop_oneof![Just(5u16), Just(10), Just(15)]).prop_map(|(mac, priority)| {
            FlowMod::delete_strict(
                0,
                FlowMatch::any().with_exact(Field::EthDst, u128::from(MAC_BASE + mac)),
                priority,
            )
        }),
        // Route add (incremental on the LPM pipeline).
        (0u8..16, prop_oneof![Just(16u32), Just(24u32)], 0u32..4).prop_map(|(octet, len, out)| {
            FlowMod::add(
                0,
                FlowMatch::any().with_prefix(
                    Field::Ipv4Dst,
                    u128::from(u32::from_be_bytes([10, octet, 1, 0])),
                    len,
                ),
                (len + 10) as u16,
                terminal_actions(vec![Action::Output(out)]),
            )
        }),
        // Strict route delete.
        (0u8..16, prop_oneof![Just(16u32), Just(24u32)]).prop_map(|(octet, len)| {
            FlowMod::delete_strict(
                0,
                FlowMatch::any().with_prefix(
                    Field::Ipv4Dst,
                    u128::from(u32::from_be_bytes([10, octet, 1, 0])),
                    len,
                ),
                (len + 10) as u16,
            )
        }),
        // Non-strict delete (per-table rebuild).
        (0u64..64).prop_map(|mac| FlowMod::delete(
            0,
            FlowMatch::any().with_exact(Field::EthDst, u128::from(MAC_BASE + mac)),
        )),
        // Modify the catch-all's instructions.
        (0u32..4).prop_map(|out| FlowMod {
            command: FlowModCommand::Modify,
            table_id: Some(0),
            flow_match: FlowMatch::any(),
            priority: 0,
            instructions: terminal_actions(vec![Action::Output(90 + out)]),
            cookie: None,
        }),
        // Structural: install into a table the datapath does not have yet.
        (1u32..3, 0u32..4).prop_map(|(t, out)| FlowMod::add(
            t,
            FlowMatch::any().with_exact(Field::TcpDst, 8000 + u128::from(t)),
            20,
            terminal_actions(vec![Action::Output(out)]),
        )),
    ]
}

/// Probe packets covering the whole universe the flow-mods touch.
fn probes() -> Vec<Packet> {
    let mut probes = Vec::new();
    for mac in (0u64..64).step_by(5) {
        probes.push(
            PacketBuilder::udp()
                .eth_dst(pkt::MacAddr::from_u64(MAC_BASE + mac).octets())
                .build(),
        );
    }
    for octet in (0u8..16).step_by(3) {
        probes.push(PacketBuilder::udp().ipv4_dst([10, octet, 1, 9]).build());
        probes.push(PacketBuilder::udp().ipv4_dst([10, octet, 200, 9]).build());
    }
    for port in [8001u16, 8002, 443] {
        probes.push(PacketBuilder::tcp().tcp_dst(port).build());
    }
    probes
}

/// Runs the flow-mod sequence through the sharded runtime (one worker, so
/// the verdict sink observes dispatch order) and returns per-probe decisions
/// after every shard converged to the final epoch.
type Decision = (Vec<u32>, bool, bool);

fn sharded_decisions(
    spec: BackendSpec,
    base: &Pipeline,
    mods: &[FlowMod],
    probes: &[Packet],
) -> Vec<Decision> {
    use std::sync::{Arc, Mutex};

    let seen: Arc<Mutex<Vec<Decision>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_seen = Arc::clone(&seen);
    let sink: VerdictSink = Arc::new(move |_shard, _packet, verdict| {
        sink_seen.lock().unwrap().push(verdict.decision());
    });
    let (switch, mut dispatcher) = ShardedSwitch::launch_with(
        spec,
        base.clone(),
        ShardedConfig {
            workers: 1,
            ring_capacity: 128,
            ..ShardedConfig::default()
        },
        LaunchParts {
            sink: Some(sink),
            ..LaunchParts::default()
        },
    )
    .expect("base pipeline compiles");

    for fm in mods {
        let _ = switch.flow_mod(fm);
    }
    // Wait for the single shard to converge to the newest epoch before
    // probing, so every probe sees the final state.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while switch.shard_epochs().iter().any(|e| *e != switch.epoch()) {
        assert!(
            std::time::Instant::now() < deadline,
            "shards never converged"
        );
        std::thread::yield_now();
    }
    for p in probes {
        dispatcher.dispatch(p.clone());
    }
    let report = switch.shutdown(dispatcher);
    assert_eq!(report.processed.packets, probes.len() as u64);
    let decisions = seen.lock().unwrap().clone();
    decisions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn planner_full_recompile_and_sharded_paths_agree(
        lpm in any::<bool>(),
        mods in prop::collection::vec(arb_flow_mod(), 1..14),
    ) {
        let base = base_pipeline(lpm);

        // (a) every execution takes the same mods, rejected ones included.
        let mut executions = executions(&base);
        for (_, datapath) in &executions {
            for fm in &mods {
                let _ = datapath.flow_mod(fm);
            }
        }
        // (b) a from-scratch full recompile of the final pipeline.
        let mut reference = base.clone();
        for fm in &mods {
            let _ = apply_flow_mod(&mut reference, fm);
        }
        executions.push(("recompiled", Box::new(EswitchRuntime::compile(reference).unwrap())));

        let probes = probes();
        let mut expected = Vec::with_capacity(probes.len());
        for (i, probe) in probes.iter().enumerate() {
            let (verdict, _) = assert_agree(&executions, probe, &format!("probe {i} (lpm={lpm})"));
            expected.push(verdict.decision());
        }

        // (c) the sharded runtime after convergence, both backends.
        for spec in [BackendSpec::eswitch(), BackendSpec::ovs()] {
            let got = sharded_decisions(spec, &base, &mods, &probes);
            prop_assert_eq!(
                &got,
                &expected,
                "sharded {} diverged (lpm={})",
                spec.label(),
                lpm
            );
        }
    }
}
