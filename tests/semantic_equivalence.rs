//! Cross-crate integration tests: the three datapath architectures (direct
//! reference interpreter, OVS-style cache hierarchy, compiled ESWITCH) must
//! agree packet-for-packet on randomly generated pipelines and traffic. Each
//! property iterates `common::executions`, one list of `dyn Datapath`.
//!
//! This is the master correctness property of the reproduction: dataplane
//! specialization (and flow caching) are *optimisations*, never semantic
//! changes.

mod common;

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use common::{assert_agree, checksums_verify, executions, executions_with, with_ipv4_options};
use openflow::controller::FnController;
use openflow::flow_match::FlowMatch;
use openflow::instruction::{actions_then_goto, terminal_actions};
use openflow::{
    Action, Controller, ControllerDecision, Datapath, Field, FlowEntry, PacketIn, PacketInReason,
    Pipeline, TableMissBehavior,
};
use ovsdp::OvsDatapath;
use pkt::builder::PacketBuilder;
use pkt::ipv4::Ipv4Header;
use pkt::Packet;
use proptest::prelude::*;

/// A restricted but expressive random rule: exact or prefix matches over the
/// fields the use cases exercise, forwarding to a small port set.
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

/// A random 1- or 2-table pipeline; a fraction of table-0 rules forward to
/// table 1 instead of outputting directly.
fn arb_pipeline() -> impl Strategy<Value = Pipeline> {
    (
        prop::collection::vec(arb_rule(), 1..20),
        prop::collection::vec(arb_rule(), 0..10),
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
fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        0u32..4,
        0u64..20,
        0u8..6,
        75u16..90,
        1000u16..1010,
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

/// The three executions, each under the controller loop, hand the
/// controller the same packet-ins: an explicit output-to-controller after a
/// rewrite is reported as an action punt and a table miss as a miss, each
/// with the frame as it arrived. A flow that keeps punting raises a
/// packet-in in every burst, also where OVS answers it from a cache.
#[test]
fn packet_ins_agree_across_executions() {
    let mut pipeline = Pipeline::with_tables(1);
    let table = pipeline.table_mut(0).unwrap();
    table.miss = TableMissBehavior::ToController;
    table.insert(FlowEntry::new(
        FlowMatch::any().with_exact(Field::TcpDst, 80),
        10,
        terminal_actions(vec![
            Action::SetField(Field::IpDscp, 42),
            Action::ToController,
        ]),
    ));
    type Log = Arc<Mutex<Vec<PacketIn>>>;
    let logs: RefCell<Vec<Log>> = RefCell::default();
    let executions = executions_with(&pipeline, || -> Box<dyn Controller> {
        let log = Log::default();
        logs.borrow_mut().push(Arc::clone(&log));
        Box::new(FnController::new(move |pi: PacketIn| {
            log.lock().unwrap().push(pi);
            vec![ControllerDecision::Drop]
        }))
    });

    // Two flows, the rewrite-then-punt rule and a miss, each sent in two
    // separate bursts: the second burst of each finds OVS's caches warm.
    let flows = [
        PacketBuilder::tcp().tcp_dst(80).build(),
        PacketBuilder::udp().udp_dst(53).build(),
    ];
    let packets = [&flows[0], &flows[1], &flows[0], &flows[1]];
    for (name, datapath) in &executions {
        for packet in packets {
            assert!(
                datapath.process(&mut packet.clone()).to_controller,
                "{name}"
            );
        }
        assert_eq!(datapath.stats().packet_ins, 4, "{name}");
    }

    let ingress: Vec<&[u8]> = packets.iter().map(|p| p.data()).collect();
    for ((name, _), log) in executions.iter().zip(logs.into_inner()) {
        let log = log.lock().unwrap();
        let reasons: Vec<PacketInReason> = log.iter().map(|pi| pi.reason).collect();
        assert_eq!(
            reasons,
            [
                PacketInReason::Action,
                PacketInReason::NoMatch,
                PacketInReason::Action,
                PacketInReason::NoMatch
            ],
            "{name}"
        );
        let frames: Vec<&[u8]> = log.iter().map(|pi| pi.packet.data()).collect();
        assert_eq!(frames, ingress, "{name}: packet-in bytes");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All three architectures produce identical forwarding decisions and
    /// identical rewritten packets.
    #[test]
    fn datapaths_agree_on_random_pipelines(
        pipeline in arb_pipeline(),
        packets in prop::collection::vec(arb_packet(), 1..40),
    ) {
        let executions = executions(&pipeline);
        for (i, packet) in packets.iter().enumerate() {
            assert_agree(&executions, packet, &format!("packet {i}"));
        }
    }

    /// Replaying the same traffic twice through the caching datapath (cold
    /// then warm caches) yields identical decisions: caching is transparent.
    #[test]
    fn ovs_caching_is_transparent_across_replays(
        pipeline in arb_pipeline(),
        packets in prop::collection::vec(arb_packet(), 1..20),
    ) {
        let ovs = OvsDatapath::new(pipeline);
        let first: Vec<_> = packets
            .iter()
            .map(|p| ovs.process(&mut p.clone()).decision())
            .collect();
        let second: Vec<_> = packets
            .iter()
            .map(|p| ovs.process(&mut p.clone()).decision())
            .collect();
        prop_assert_eq!(first, second);
    }

    /// Hostile input, first step (ROADMAP item 6a): a frame whose IPv4
    /// header checksum is already wrong goes through NAT-style rewrites on
    /// all three architectures. RFC 1624's incremental update carries the
    /// error along, so each forwards the same bytes as for the intact twin
    /// except for a header checksum that is still wrong — none launders the
    /// header into a valid one (a full re-sum would), for any header length.
    #[test]
    fn corrupted_ipv4_checksums_stay_corrupted_on_every_datapath(
        ihl in 5u8..=15,
        options in any::<u64>(),
        udp in any::<bool>(),
        corruption in 1u16..=u16::MAX,
        (new_src, new_dst, dscp) in (any::<u32>(), any::<u32>(), 0u8..64),
    ) {
        let mut pipeline = Pipeline::with_tables(1);
        pipeline.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any(),
            1,
            terminal_actions(vec![
                Action::SetField(Field::Ipv4Src, u128::from(new_src)),
                Action::SetField(Field::Ipv4Dst, u128::from(new_dst)),
                Action::SetField(Field::IpDscp, u128::from(dscp)),
                Action::DecNwTtl,
                Action::Output(1),
            ]),
        ));
        let executions = executions(&pipeline);

        let builder = if udp { PacketBuilder::udp() } else { PacketBuilder::tcp() };
        let intact = with_ipv4_options(&builder.build(), ihl, options);
        let mut corrupt = intact.clone();
        corrupt.data_mut()[24] ^= (corruption >> 8) as u8;
        corrupt.data_mut()[25] ^= corruption as u8;
        // 0x0000 and 0xffff are the same checksum: flipping one into the
        // other is not a corruption.
        if Ipv4Header::verify_checksum(&corrupt.data()[14..]) {
            continue;
        }

        let mut expected = intact.clone();
        prop_assert_eq!(executions[0].1.process(&mut expected).outputs.to_vec(), vec![1]);
        prop_assert!(checksums_verify(expected.data()));

        // Twice: the second pass finds the OVS caches warm.
        let (_, a) = assert_agree(&executions, &corrupt, "cold");
        assert_agree(&executions, &corrupt, "warm");

        prop_assert!(!Ipv4Header::verify_checksum(&a.data()[14..]));
        prop_assert_eq!(&a.data()[..24], &expected.data()[..24]);
        prop_assert_eq!(&a.data()[26..], &expected.data()[26..]);
    }
}
