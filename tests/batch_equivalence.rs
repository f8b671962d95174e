//! Differential property test for the burst-mode fast path: for random
//! pipelines and random bursts, `Datapath::process_burst` must be
//! observationally identical to per-packet `process` (a burst of one) on
//! every execution in one list — the interpreter, the compiled ESWITCH
//! datapath and the OVS-style caching datapath in three cache
//! configurations — and every burst must agree with the interpreter's: same
//! verdicts, same rewritten packet bytes. Batching (key pre-extraction,
//! per-flow grouping, hoisted locks) is an optimisation, never a semantic
//! change.
//!
//! A second property holds the compiled burst path to three-way agreement —
//! burst == per-packet == the reference interpreter — on pipelines built to
//! stress what a burst resolves once: VLAN push/pop (single tags, QinQ,
//! untagged frames hitting a pop) ahead of L3/L4 matches, write-action sets
//! accumulated over four chained tables, every table revisited by many
//! packets of one burst, and the batched stats flush.
//!
//! In both properties the burst side receives its packets through a `Port`
//! (so they carry the RX parse stamp) and the per-packet side takes them as
//! built: the stamp must change neither verdicts nor bytes.

mod common;

use common::{executions, received, Execution};
use eswitch::runtime::EswitchRuntime;
use openflow::flow_match::FlowMatch;
use openflow::instruction::{actions_then_goto, terminal_actions};
use openflow::{
    Action, Datapath, Field, FlowEntry, Instruction, NoCt, Pipeline, TableMissBehavior,
};
use ovsdp::{OvsConfig, OvsDatapath};
use pkt::builder::PacketBuilder;
use pkt::Packet;
use proptest::prelude::*;

/// A restricted but expressive random rule over the fields the use cases
/// exercise (same universe as `tests/semantic_equivalence.rs`).
fn arb_rule() -> impl Strategy<Value = FlowEntry> {
    let field_matches = prop::collection::vec(
        prop_oneof![
            (0u32..4).prop_map(|p| (Field::InPort, u128::from(p), 32u32)),
            (0u64..16).prop_map(|m| (Field::EthDst, u128::from(0x0200_0000_0000 + m), 48u32)),
            (0u8..4).prop_map(|x| (
                Field::Ipv4Dst,
                u128::from(u32::from_be_bytes([10, 0, 0, x])),
                32u32
            )),
            (8u32..=24).prop_map(|len| {
                (
                    Field::Ipv4Dst,
                    u128::from(u32::from_be_bytes([10, 0, 0, 0])),
                    len,
                )
            }),
            (0u16..4).prop_map(|p| (Field::TcpDst, u128::from(80 + p), 16u32)),
            Just((Field::IpProto, 6u128, 8u32)),
        ],
        0..3,
    );
    (field_matches, 1u16..200, 0u32..4).prop_map(|(fields, priority, out_port)| {
        let mut m = FlowMatch::any();
        for (field, value, len) in fields {
            if len >= field.width_bits() {
                m = m.with_exact(field, value);
            } else {
                m = m.with_prefix(field, value, len);
            }
        }
        FlowEntry::new(
            m,
            priority,
            terminal_actions(vec![Action::Output(out_port)]),
        )
    })
}

/// A random 1- or 2-table pipeline; some table-0 rules rewrite a header and
/// forward to table 1 so batched replay also covers packet mutation.
fn arb_pipeline() -> impl Strategy<Value = Pipeline> {
    (
        prop::collection::vec(arb_rule(), 1..16),
        prop::collection::vec(arb_rule(), 0..8),
        any::<bool>(),
    )
        .prop_map(|(t0_rules, t1_rules, add_catch_all)| {
            let two_stage = !t1_rules.is_empty();
            let mut pipeline = Pipeline::with_tables(if two_stage { 2 } else { 1 });
            for (i, mut rule) in t0_rules.into_iter().enumerate() {
                if two_stage && i % 3 == 0 {
                    rule.instructions =
                        actions_then_goto(vec![Action::SetField(Field::IpDscp, 10)], 1);
                }
                pipeline.table_mut(0).unwrap().insert(rule);
            }
            for rule in t1_rules {
                pipeline.table_mut(1).unwrap().insert(rule);
            }
            if add_catch_all {
                pipeline.table_mut(0).unwrap().insert(FlowEntry::new(
                    FlowMatch::any(),
                    0,
                    terminal_actions(vec![Action::Output(3)]),
                ));
            }
            pipeline
        })
}

/// Random packets drawn from the same small universe the rules match over.
/// The narrow port/address ranges make intra-burst flow repeats (the
/// grouping path) common.
fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        0u32..4,
        0u64..20,
        0u8..6,
        75u16..90,
        1000u16..1004,
        any::<bool>(),
    )
        .prop_map(|(in_port, mac, ip_last, dport, sport, udp)| {
            let builder = if udp {
                PacketBuilder::udp().udp_src(sport).udp_dst(dport)
            } else {
                PacketBuilder::tcp().tcp_src(sport).tcp_dst(dport)
            };
            builder
                .eth_dst(pkt::MacAddr::from_u64(0x0200_0000_0000 + mac).octets())
                .ipv4_dst([10, 0, 0, ip_last])
                .in_port(in_port)
                .build()
        })
}

/// The OVS configurations under test: the default one `executions` holds,
/// deliberately tiny caches (so bursts straddle evictions) and the EMC
/// disabled.
fn ovs_configs() -> [(&'static str, OvsConfig); 3] {
    [
        ("ovs", OvsConfig::default()),
        (
            "ovs-tiny",
            OvsConfig {
                microflow_entries: 16,
                megaflow_entries: 8,
            },
        ),
        (
            "ovs-no-emc",
            OvsConfig {
                microflow_entries: 0,
                ..OvsConfig::default()
            },
        ),
    ]
}

fn ovs(pipeline: &Pipeline, config: OvsConfig) -> OvsDatapath {
    OvsDatapath::with_config(pipeline.clone(), config)
}

/// The three executions plus the non-default OVS configurations.
fn burst_executions(pipeline: &Pipeline) -> Vec<Execution> {
    let mut list = executions(pipeline);
    for (name, config) in ovs_configs().into_iter().skip(1) {
        list.push((name, Box::new(ovs(pipeline, config))));
    }
    list
}

/// In-port reserved for QinQ frames, so table-0 rules can tell them apart.
const QINQ_PORT: u32 = 3;

/// Table-0 apply-actions touching the VLAN layout. One known divergence of
/// the *reference* is kept out of reach (recorded in CHANGES.md): its flow
/// key is not re-derived after a layout change, so it loses the inner tag
/// after a QinQ pop and still sees L3 behind a third tag (the parser walks
/// two) — hence no bare push onto QinQ frames and no VLAN matches after
/// table 0. A bare push onto an untagged or single-tagged frame is in: both
/// copy the outer tag's VID and PCP into the new one.
fn layout_actions(choice: u8, vid: u16, qinq: bool) -> Vec<Action> {
    let set_vid = Action::SetField(Field::VlanVid, u128::from(vid));
    match (choice % 6, qinq) {
        (0, _) => vec![Action::PopVlan],
        (1, false) => vec![Action::PushVlan(0x8100)],
        (2, false) => vec![Action::PushVlan(0x88a8), set_vid],
        (1 | 2, true) | (3, _) => vec![Action::PopVlan, Action::PushVlan(0x8100), set_vid],
        (4, _) => vec![set_vid],
        _ => vec![],
    }
}

/// A write-actions list the compiled accumulator and the reference action
/// set agree on: distinct set-fields plus at most one output.
fn written_actions(choice: u8, port: u32) -> Option<Vec<Action>> {
    let dscp = Action::SetField(Field::IpDscp, u128::from(choice % 8));
    let src = Action::SetField(Field::EthSrc, 0x0200_0000_00a0 + u128::from(choice % 3));
    match choice % 5 {
        0 => None,
        1 => Some(vec![dscp]),
        2 => Some(vec![src, Action::Output(port)]),
        3 => Some(vec![Action::Output(port)]),
        _ => Some(vec![dscp, src]),
    }
}

/// A four-table chain 0 → 1 → 2 → 3. Table 0 demuxes on tag state and
/// changes the layout; tables 1–3 match the (shifted) L2–L4 fields, rewrite
/// them, and each may add to the action set; table 3 terminates.
fn arb_layout_pipeline() -> impl Strategy<Value = Pipeline> {
    // One gene per later-table rule: what it matches (field, value), applies
    // and writes.
    let gene = || (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>());
    (
        prop::collection::vec((0u8..8, any::<u8>(), any::<u8>()), 2..8),
        prop::collection::vec(gene(), 1..6),
        prop::collection::vec(gene(), 1..6),
        prop::collection::vec(gene(), 1..6),
        any::<u8>(),
    )
        .prop_map(|(demux, t1, t2, t3, misses)| {
            let mut pipeline = Pipeline::with_tables(4);
            let instructions =
                |apply: Vec<Action>, write: Option<Vec<Action>>, goto: Option<u32>| {
                    let mut out = Vec::new();
                    if !apply.is_empty() {
                        out.push(Instruction::ApplyActions(apply));
                    }
                    out.extend(write.map(Instruction::WriteActions));
                    out.extend(goto.map(Instruction::GotoTable));
                    out
                };
            for (i, (selector, choice, write)) in demux.into_iter().enumerate() {
                // Single tags carry VIDs 5–6, QinQ outer tags 7–8 on their
                // own in-port; everything else is keyed by in-port.
                let (flow_match, qinq) = match selector {
                    0 | 1 => (
                        FlowMatch::any().with_exact(Field::VlanVid, 5 + u128::from(selector)),
                        false,
                    ),
                    2 | 3 => (
                        FlowMatch::any().with_exact(Field::VlanVid, 5 + u128::from(selector)),
                        true,
                    ),
                    4 => (
                        FlowMatch::any().with_exact(Field::InPort, u128::from(QINQ_PORT)),
                        true,
                    ),
                    _ => (
                        FlowMatch::any().with_exact(Field::InPort, u128::from(selector % 3)),
                        false,
                    ),
                };
                pipeline.table_mut(0).unwrap().insert(FlowEntry::new(
                    flow_match,
                    100 - i as u16,
                    instructions(
                        layout_actions(choice, 20 + u16::from(choice % 4), qinq),
                        written_actions(write, u32::from(write % 4)),
                        Some(1),
                    ),
                ));
            }
            pipeline.table_mut(0).unwrap().insert(FlowEntry::new(
                FlowMatch::any(),
                1,
                instructions(vec![Action::PopVlan], None, Some(1)),
            ));
            for (table, genes) in [(1u32, t1), (2, t2), (3, t3)] {
                for (i, (matched, value, apply, write)) in genes.into_iter().enumerate() {
                    let v = u128::from(value % 4);
                    let flow_match = match matched % 5 {
                        0 => FlowMatch::any().with_exact(Field::EthDst, 0x0200_0000_0000 + v),
                        1 => FlowMatch::any()
                            .with_exact(Field::Ipv4Dst, u128::from(0x0a00_0000u32) + v),
                        2 => FlowMatch::any().with_prefix(Field::Ipv4Dst, 0x0a00_0000, 30),
                        3 => FlowMatch::any()
                            .with_exact(Field::IpProto, 6)
                            .with_exact(Field::TcpDst, 80 + v),
                        _ => FlowMatch::any().with_exact(Field::InPort, v),
                    };
                    let applied = match apply % 5 {
                        0 => vec![Action::DecNwTtl],
                        1 => vec![Action::SetField(Field::Ipv4Src, 0xc0a8_0000 + v)],
                        2 => vec![Action::SetField(Field::TcpDst, 8080)],
                        3 => vec![Action::Output(u32::from(apply % 4))],
                        _ => vec![],
                    };
                    let written = written_actions(write, u32::from(write % 4));
                    let mut instrs =
                        instructions(applied, written, (table < 3).then_some(table + 1));
                    if table == 3 && write % 7 == 0 {
                        instrs.insert(0, Instruction::ClearActions);
                    }
                    pipeline.table_mut(table).unwrap().insert(FlowEntry::new(
                        flow_match,
                        50 - i as u16,
                        instrs,
                    ));
                }
            }
            pipeline.table_mut(1).unwrap().miss = TableMissBehavior::Continue;
            pipeline.table_mut(2).unwrap().miss = match misses % 3 {
                0 => TableMissBehavior::ToController,
                1 => TableMissBehavior::Continue,
                _ => TableMissBehavior::Drop,
            };
            pipeline
        })
}

/// Packets over the universe the layout pipelines match on: untagged,
/// single-tagged and QinQ TCP/UDP frames.
fn arb_tagged_packet() -> impl Strategy<Value = Packet> {
    (0u8..4, 0u32..3, 0u64..5, 0u8..5, 78u16..85, any::<bool>()).prop_map(
        |(tagging, in_port, mac, ip_last, dport, udp)| {
            let builder = if udp {
                PacketBuilder::udp().udp_dst(dport)
            } else {
                PacketBuilder::tcp().tcp_dst(dport)
            };
            let builder = builder
                .eth_dst(pkt::MacAddr::from_u64(0x0200_0000_0000 + mac).octets())
                .ipv4_dst([10, 0, 0, ip_last]);
            match tagging {
                0 => builder.in_port(in_port).build(),
                1 | 2 => builder
                    .vlan(4 + u16::from(tagging))
                    .vlan_pcp(ip_last)
                    .in_port(in_port)
                    .build(),
                _ => {
                    // QinQ: an 802.1ad outer tag stacked on an 802.1Q inner.
                    let mut packet = builder.vlan(9).in_port(QINQ_PORT).build();
                    packet.insert(12, &[0x88, 0xa8, 0, 7 + (ip_last % 2)]);
                    packet
                }
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The compiled burst path, the compiled per-packet path and the
    /// reference interpreter agree — verdicts and output bytes — and the
    /// burst's batched stats flush leaves the same totals as per-packet
    /// processing.
    #[test]
    fn compiled_burst_matches_per_packet_and_interpreter(
        pipeline in arb_layout_pipeline(),
        packets in prop::collection::vec(arb_tagged_packet(), 1..80),
    ) {
        let burst_switch = EswitchRuntime::compile(pipeline.clone()).expect("compiles");
        let seq_switch = EswitchRuntime::compile(pipeline.clone()).expect("compiles");
        let mut burst_pkts = received(&packets);
        let mut verdicts = Vec::new();
        burst_switch.process_burst(&mut burst_pkts, &mut verdicts, &mut NoCt);
        prop_assert_eq!(verdicts.len(), packets.len());

        for (i, ingress) in packets.iter().enumerate() {
            let mut seq_pkt = ingress.clone();
            let seq = seq_switch.process(&mut seq_pkt);
            let mut ref_pkt = ingress.clone();
            let reference = pipeline.process_ct(&mut ref_pkt, &mut NoCt);
            prop_assert_eq!(verdicts[i].decision(), reference.decision(), "burst verdict {}", i);
            prop_assert_eq!(seq.decision(), reference.decision(), "per-packet verdict {}", i);
            prop_assert_eq!(verdicts[i].tables_visited, reference.tables_visited, "walk {}", i);
            prop_assert_eq!(burst_pkts[i].data(), ref_pkt.data(), "burst bytes {}", i);
            prop_assert_eq!(seq_pkt.data(), ref_pkt.data(), "per-packet bytes {}", i);
        }

        let (burst_dp, seq_dp) = (burst_switch.datapath(), seq_switch.datapath());
        prop_assert_eq!(burst_dp.stats.processed.snapshot(), seq_dp.stats.processed.snapshot());
        prop_assert_eq!(burst_dp.stats.punted.snapshot(), seq_dp.stats.punted.snapshot());
        prop_assert_eq!(burst_dp.stats.processed.packets(), packets.len() as u64);
        prop_assert_eq!(
            burst_dp.stats.punted.packets(),
            verdicts.iter().filter(|v| v.to_controller).count() as u64
        );
        for (burst_slot, seq_slot) in burst_dp.slots().iter().zip(seq_dp.slots()) {
            prop_assert_eq!(
                burst_slot.lookups.snapshot(),
                seq_slot.lookups.snapshot(),
                "table {} lookups",
                burst_slot.id
            );
        }
        prop_assert_eq!(burst_dp.slots()[0].lookups.packets(), packets.len() as u64);
    }

    /// On every execution, one burst (stamped) and packet-by-packet
    /// processing (unstamped, on a twin instance) agree, and every
    /// execution's burst agrees with the interpreter's.
    #[test]
    fn process_batch_matches_per_packet_processing(
        pipeline in arb_pipeline(),
        packets in prop::collection::vec(arb_packet(), 1..80),
    ) {
        let mut reference: Option<(Vec<Packet>, Vec<openflow::Verdict>)> = None;
        for ((name, burst_dp), (_, seq_dp)) in
            burst_executions(&pipeline).iter().zip(&burst_executions(&pipeline))
        {
            let mut burst_pkts = received(&packets);
            let mut verdicts = Vec::new();
            burst_dp.process_burst(&mut burst_pkts, &mut verdicts, &mut NoCt);
            prop_assert_eq!(verdicts.len(), packets.len());

            let mut seq_pkts = packets.clone();
            for (i, p) in seq_pkts.iter_mut().enumerate() {
                let v = seq_dp.process(p);
                prop_assert_eq!(v.decision(), verdicts[i].decision(), "{} verdict {}", name, i);
            }
            for (i, (a, b)) in burst_pkts.iter().zip(&seq_pkts).enumerate() {
                prop_assert_eq!(a.data(), b.data(), "{} packet bytes {}", name, i);
            }

            let (want_pkts, want) = reference.get_or_insert((burst_pkts.clone(), verdicts.clone()));
            for (i, (a, b)) in verdicts.iter().zip(want.iter()).enumerate() {
                prop_assert_eq!(a.decision(), b.decision(), "{} vs interpreter, verdict {}", name, i);
            }
            for (i, (a, b)) in burst_pkts.iter().zip(want_pkts.iter()).enumerate() {
                prop_assert_eq!(a.data(), b.data(), "{} vs interpreter, bytes {}", name, i);
            }
        }

        // The burst's cache statistics count every packet exactly once, in
        // every OVS configuration.
        for (name, config) in ovs_configs() {
            let burst_dp = ovs(&pipeline, config);
            let mut burst_pkts = received(&packets);
            burst_dp.process_burst(&mut burst_pkts, &mut Vec::new(), &mut NoCt);
            prop_assert_eq!(burst_dp.stats.total(), packets.len() as u64, "{} cache stats", name);
        }
    }
}
