//! Differential property test for the §3.4 update planner and for flow-cache
//! invalidation: replaying a random flow-mod sequence must leave every update
//! path observationally identical —
//!
//! (a) the three executions (`common::executions`: the interpreter, the
//!     planner-driven `EswitchRuntime` — incremental edits, per-table
//!     trampoline swaps, full recompiles, whatever the planner picked — and
//!     the OVS caches), each fed the sequence through `Datapath::flow_mod`,
//! (b) a from-scratch full recompilation of the pipeline so far,
//! (c) the sharded runtime after epoch convergence, on both the ESWITCH and
//!     the OVS backend (delta-aware cache invalidation included),
//!
//! all compared against the reference interpreter on a fixed probe set. The
//! probes run after the base pipeline and again after every flow-mod, so
//! each change lands on caches the previous round warmed: a cached flow the
//! invalidation wrongly spares answers the next round with its old verdict.
//! The ladder and the selective flushes are optimisations, never a semantic
//! change — and neither is decomposition: one base is the Fig. 5a table,
//! which the compiler decomposes into a chain the controller never wrote,
//! and its flow-mods address the controller's table all the same.

mod common;

use common::{assert_agree, executions, Execution};
use eswitch::analysis::TemplateKind;
use eswitch::runtime::EswitchRuntime;
use openflow::flow_match::FlowMatch;
use openflow::flow_mod::{apply_flow_mod, FlowModCommand, FlowModError};
use openflow::instruction::terminal_actions;
use openflow::{Action, Field, FlowEntry, FlowMod, Instruction, Pipeline};
use pkt::builder::PacketBuilder;
use pkt::Packet;
use proptest::prelude::*;
use shard::{BackendSpec, LaunchParts, ShardedConfig, ShardedSwitch, VerdictSink};
use workloads::gateway::{self, GatewayConfig, DOWNSTREAM_TABLE, ROUTING_TABLE};
use workloads::prefixes::sample_covered_addresses;
use workloads::usecases::{PORT_NET, PORT_USER};

const MAC_BASE: u64 = 0x0200_0000_0000;

/// The three shapes of table 0 that share the flow-mod universe below.
#[derive(Debug, Clone, Copy)]
enum Base {
    /// An L2 table: the hash template.
    Mac,
    /// A routing table: the LPM template.
    Routes,
    /// The Fig. 5a table: five-tuple-style rules that fit no single
    /// template, so the compiler decomposes the table into a chain.
    Fig5,
}

/// The Fig. 5a rows: (ip_dst last octet, tcp_dst, output port), `None`
/// wildcarding the field, at priorities 100 down to 95.
const FIG5_ROWS: [(Option<u8>, Option<u16>, u32); 6] = [
    (Some(1), Some(80), 1),
    (Some(2), Some(80), 2),
    (Some(3), None, 3),
    (Some(1), Some(22), 4),
    (Some(2), Some(22), 5),
    (None, None, 6),
];

/// The match of a Fig. 5a-style rule on `10.0.0.<ip>` and `tcp_dst`.
fn fig5_match(ip: Option<u8>, port: Option<u16>) -> FlowMatch {
    let mut m = FlowMatch::any();
    if let Some(ip) = ip {
        m = m.with_exact(
            Field::Ipv4Dst,
            u128::from(u32::from_be_bytes([10, 0, 0, ip])),
        );
    }
    if let Some(port) = port {
        m = m.with_exact(Field::TcpDst, u128::from(port));
    }
    m
}

fn base_pipeline(base: Base) -> Pipeline {
    let mut p = Pipeline::with_tables(1);
    let t = p.table_mut(0).unwrap();
    match base {
        Base::Routes => {
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
        }
        Base::Mac => {
            for i in 0..48u64 {
                t.insert(FlowEntry::new(
                    FlowMatch::any().with_exact(Field::EthDst, u128::from(MAC_BASE + i)),
                    10,
                    terminal_actions(vec![Action::Output((i % 4) as u32)]),
                ));
            }
        }
        Base::Fig5 => {
            for (i, (ip, port, out)) in FIG5_ROWS.into_iter().enumerate() {
                t.insert(FlowEntry::new(
                    fig5_match(ip, port),
                    100 - i as u16,
                    terminal_actions(vec![Action::Output(out)]),
                ));
            }
            return p;
        }
    }
    t.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
    p
}

fn arb_base() -> impl Strategy<Value = Base> {
    prop_oneof![Just(Base::Mac), Just(Base::Routes), Just(Base::Fig5)]
}

/// A Fig. 5a-style match: exact on both fields, on one, or on neither.
fn arb_fig5_match() -> impl Strategy<Value = FlowMatch> {
    (
        prop::option::of(1u8..5),
        prop::option::of(prop_oneof![Just(80u16), Just(22), Just(443)]),
    )
        .prop_map(|(ip, port)| fig5_match(ip, port))
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
        // Fig. 5a-style add, exact or wildcarded, at priorities above,
        // among and below the table's rules.
        (
            arb_fig5_match(),
            prop_oneof![Just(50u16), Just(96), Just(98), Just(99), Just(120)],
            0u32..10,
        )
            .prop_map(|(flow_match, priority, out)| FlowMod::add(
                0,
                flow_match,
                priority,
                terminal_actions(vec![Action::Output(out)]),
            )),
        // Strict delete of a Fig. 5a rule, at its own or another priority.
        (arb_fig5_match(), 94u16..101)
            .prop_map(|(flow_match, priority)| FlowMod::delete_strict(0, flow_match, priority)),
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
    for ip in 1u8..=4 {
        for port in [80u16, 22, 443] {
            probes.push(
                PacketBuilder::tcp()
                    .ipv4_dst([10, 0, 0, ip])
                    .tcp_dst(port)
                    .build(),
            );
        }
    }
    probes
}

/// A small access gateway (Fig. 8): the demux table, CE tables that rewrite
/// `Ipv4Src` and pop the VLAN on the way to the routing table, and the
/// downstream table. Users `0..3` of each CE are provisioned.
fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        ces: 2,
        users_per_ce: 3,
        routing_prefixes: 16,
        seed: 5,
        preinstall_users: true,
    }
}

/// Users `0..GATEWAY_USERS` of each CE appear in the gateway flow-mods and
/// probes: the provisioned ones and two that are not.
const GATEWAY_USERS: usize = 5;

/// One randomly generated flow-mod against the gateway: a user's CE or
/// downstream rule added or removed, a demux rule re-pointed, a routing rule
/// matching `Ipv4Src` — which the CE tables upstream rewrite, so the caches
/// must flush whole — added or removed, or a goto every path refuses.
fn arb_gateway_flow_mod() -> impl Strategy<Value = FlowMod> {
    let user_rule = |ce: usize, user: usize, downstream: bool| {
        gateway::user_flow_mods(ce, user).swap_remove(usize::from(downstream))
    };
    let source_route = |ce: usize, user: usize| {
        FlowMatch::any().with_exact(
            Field::Ipv4Src,
            u128::from(gateway::user_public_ip(ce, user).to_u32()),
        )
    };
    prop_oneof![
        (0usize..2, 0usize..GATEWAY_USERS, any::<bool>())
            .prop_map(move |(ce, user, down)| user_rule(ce, user, down)),
        (0usize..2, 0usize..GATEWAY_USERS, any::<bool>()).prop_map(move |(ce, user, down)| {
            let fm = user_rule(ce, user, down);
            FlowMod::delete_strict(fm.table_id.unwrap(), fm.flow_match, fm.priority)
        }),
        (0usize..2, 0usize..2).prop_map(|(vlan_of, ce)| FlowMod::add(
            0,
            FlowMatch::any()
                .with_exact(Field::InPort, u128::from(PORT_USER))
                .with_exact(Field::VlanVid, u128::from(gateway::ce_vlan(vlan_of))),
            200,
            vec![Instruction::GotoTable(gateway::ce_table(ce))],
        )),
        (0usize..2, 0usize..GATEWAY_USERS, 7u32..9).prop_map(move |(ce, user, out)| {
            FlowMod::add(
                ROUTING_TABLE,
                source_route(ce, user),
                300,
                terminal_actions(vec![Action::Output(out)]),
            )
        }),
        (0usize..2, 0usize..GATEWAY_USERS).prop_map(move |(ce, user)| FlowMod::delete_strict(
            ROUTING_TABLE,
            source_route(ce, user),
            300,
        )),
        Just(FlowMod::add(
            ROUTING_TABLE,
            FlowMatch::any(),
            300,
            vec![Instruction::GotoTable(0)],
        )),
    ]
}

/// Upstream probes from every user of the universe to covered destinations,
/// and downstream probes to every user's public address.
fn gateway_probes() -> Vec<Packet> {
    let config = gateway_config();
    let destinations = sample_covered_addresses(&gateway::routes(&config), 4, 11);
    let mut probes = Vec::new();
    for ce in 0..config.ces {
        for user in 0..GATEWAY_USERS {
            let dst = destinations[(ce + user) % destinations.len()];
            probes.push(
                PacketBuilder::tcp()
                    .vlan(gateway::ce_vlan(ce))
                    .ipv4_src(gateway::user_private_ip(ce, user).octets())
                    .ipv4_dst(dst.octets())
                    .tcp_src(40_000 + user as u16)
                    .tcp_dst(443)
                    .in_port(PORT_USER)
                    .build(),
            );
            probes.push(
                PacketBuilder::tcp()
                    .ipv4_src([198, 51, 100, 1])
                    .ipv4_dst(gateway::user_public_ip(ce, user).octets())
                    .tcp_src(443)
                    .tcp_dst(40_000 + user as u16)
                    .in_port(PORT_NET)
                    .build(),
            );
        }
    }
    probes
}

type Decision = (Vec<u32>, bool, bool);

/// One probe round: every probe through every execution plus a fresh
/// compilation of `reference`, all agreeing with the interpreter. Returns
/// the interpreter's decisions.
fn probe_round(
    executions: &mut Vec<Execution>,
    reference: &Pipeline,
    probes: &[Packet],
    context: &str,
) -> Vec<Decision> {
    let recompiled = EswitchRuntime::compile(reference.clone()).expect("pipeline compiles");
    executions.push(("recompiled", Box::new(recompiled)));
    let decisions = probes
        .iter()
        .enumerate()
        .map(|(i, probe)| {
            assert_agree(executions, probe, &format!("{context}, probe {i}"))
                .0
                .decision()
        })
        .collect();
    executions.pop();
    decisions
}

/// Paths (a) and (b): a probe round after the base pipeline and after every
/// flow-mod. Returns the interpreter's decisions, round by round.
fn executions_agree(base: &Pipeline, mods: &[FlowMod], probes: &[Packet]) -> Vec<Vec<Decision>> {
    let mut executions = executions(base);
    let mut reference = base.clone();
    let mut rounds = vec![probe_round(&mut executions, &reference, probes, "base")];
    for (i, fm) in mods.iter().enumerate() {
        // Every execution takes the same mods, rejected ones included.
        for (_, datapath) in &executions {
            let _ = datapath.flow_mod(fm);
        }
        let _ = apply_flow_mod(&mut reference, fm);
        let context = format!("after flow-mod {i} ({fm:?})");
        rounds.push(probe_round(&mut executions, &reference, probes, &context));
    }
    rounds
}

/// Path (c): runs the same rounds through the sharded runtime (one worker,
/// so the verdict sink observes dispatch order), each round once the shard
/// serves the newest epoch. Returns per-round decisions.
fn sharded_decisions(
    spec: BackendSpec,
    base: &Pipeline,
    mods: &[FlowMod],
    probes: &[Packet],
) -> Vec<Vec<Decision>> {
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

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut probe_round = || {
        // Probe only once the shard serves the newest epoch.
        while switch.shard_epochs().iter().any(|e| *e != switch.epoch()) {
            assert!(
                std::time::Instant::now() < deadline,
                "shards never converged"
            );
            std::thread::yield_now();
        }
        let before = switch.stats().packets;
        for p in probes {
            dispatcher.dispatch(p.clone());
        }
        dispatcher.flush();
        while switch.stats().packets < before + probes.len() as u64 {
            assert!(std::time::Instant::now() < deadline, "probes never drained");
            std::thread::yield_now();
        }
        std::mem::take(&mut *seen.lock().unwrap())
    };
    let mut rounds = vec![probe_round()];
    for fm in mods {
        let _ = switch.flow_mod(fm);
        rounds.push(probe_round());
    }
    let report = switch.shutdown(dispatcher);
    assert_eq!(
        report.processed.packets,
        (probes.len() * (mods.len() + 1)) as u64
    );
    rounds
}

/// Every path agrees with the interpreter, round by round.
fn all_paths_agree(base: &Pipeline, mods: &[FlowMod], probes: &[Packet], label: &str) {
    let expected = executions_agree(base, mods, probes);
    for spec in [BackendSpec::eswitch(), BackendSpec::ovs()] {
        let got = sharded_decisions(spec, base, mods, probes);
        for (round, (got, expected)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                got,
                expected,
                "sharded {} diverged in round {round} ({label})",
                spec.label()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn planner_full_recompile_and_sharded_paths_agree(
        base in arb_base(),
        mods in prop::collection::vec(arb_flow_mod(), 1..14),
    ) {
        all_paths_agree(&base_pipeline(base), &mods, &probes(), &format!("{base:?}"));
    }

    #[test]
    fn gateway_flow_mods_agree_against_warm_caches(
        mods in prop::collection::vec(arb_gateway_flow_mod(), 1..14),
    ) {
        let base = gateway::build_pipeline(&gateway_config());
        all_paths_agree(&base, &mods, &gateway_probes(), "gateway");
    }
}

/// The Fig. 5a base is what the generated sequences above decompose: the
/// compiler builds table 0 as a chain with no linked-list stage, and keeps
/// the controller's one table as written.
#[test]
fn fig5_base_compiles_to_a_chain_without_linked_lists() {
    let base = base_pipeline(Base::Fig5);
    let eswitch = EswitchRuntime::compile(base.clone()).unwrap();
    let datapath = eswitch.datapath();
    assert!(datapath.chain(0).is_some(), "table 0 not decomposed");
    let kinds = datapath.template_kinds();
    assert!(kinds.len() > 1);
    for (id, kind) in kinds {
        assert_eq!(id, 0);
        assert_ne!(kind, TemplateKind::LinkedList);
    }
    eswitch.with_pipeline(|p| {
        assert_eq!(p.table_count(), 1);
        assert_eq!(p.entry_count(), base.entry_count());
    });
}

/// The sequence that diverged when decomposition rewrote the controller's
/// pipeline: a strict delete of one of the controller's rules, then an add
/// into table 0 below them, each followed by a probe round on every path.
#[test]
fn flow_mods_on_a_decomposed_table_agree() {
    let mods = [
        FlowMod::delete_strict(0, fig5_match(Some(1), Some(80)), 100),
        FlowMod::add(
            0,
            fig5_match(None, Some(443)),
            50,
            terminal_actions(vec![Action::Output(9)]),
        ),
    ];
    let eswitch = EswitchRuntime::compile(base_pipeline(Base::Fig5)).unwrap();
    for fm in &mods {
        eswitch
            .flow_mod(fm)
            .expect("the controller's table takes it");
    }
    assert_eq!(eswitch.updates.full_recompiles.updates(), 2);
    all_paths_agree(&base_pipeline(Base::Fig5), &mods, &probes(), "Fig5");
}

/// A goto to the same table, an earlier one, or one that does not exist is
/// refused by every execution and by the sharded control plane, before
/// anything changes: accepted, it would hang or dangle every packet that
/// matched it.
#[test]
fn backward_and_dangling_gotos_are_refused_everywhere() {
    let base = gateway::build_pipeline(&gateway_config());
    let goto = |table, target| {
        FlowMod::add(
            table,
            FlowMatch::any(),
            300,
            vec![Instruction::GotoTable(target)],
        )
    };
    let bad = [
        goto(gateway::ce_table(0), gateway::ce_table(0)),
        goto(ROUTING_TABLE, 0),
        goto(DOWNSTREAM_TABLE, 200),
        FlowMod::add(1, FlowMatch::any(), 1, vec![Instruction::GotoTable(1)]),
    ];
    let probes = gateway_probes();
    let mut executions = executions(&base);
    for (name, datapath) in &executions {
        for fm in &bad {
            assert!(
                matches!(datapath.flow_mod(fm), Err(FlowModError::BadGoto(_))),
                "{name} accepted {fm:?}"
            );
        }
    }
    // Nothing changed: every execution still forwards like fresh ones over
    // the base pipeline.
    let unchanged = probe_round(&mut executions, &base, &probes, "after refused gotos");
    assert_eq!(unchanged, executions_agree(&base, &[], &probes)[0]);

    for spec in [BackendSpec::eswitch(), BackendSpec::ovs()] {
        let (switch, dispatcher) = ShardedSwitch::launch(
            spec,
            base.clone(),
            ShardedConfig {
                workers: 1,
                ring_capacity: 64,
                ..ShardedConfig::default()
            },
        )
        .expect("gateway launches");
        for fm in &bad {
            assert!(
                matches!(switch.flow_mod(fm), Err(FlowModError::BadGoto(_))),
                "sharded {} accepted {fm:?}",
                spec.label()
            );
        }
        assert_eq!(switch.epoch(), 0, "a refused flow-mod published an epoch");
        switch.shutdown(dispatcher);
    }
}
