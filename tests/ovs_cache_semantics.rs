//! Integration tests for the flow-cache behaviours the paper's §2.3 critique
//! rests on: megaflow masks reflect what the slow path consulted, arrival
//! order shapes the cache, fine-grained rules fragment aggregates, and
//! updates invalidate what they can affect.

use openflow::flow_match::FlowMatch;
use openflow::instruction::terminal_actions;
use openflow::{Action, Datapath, Field, FlowEntry, FlowMod, Pipeline};
use ovsdp::{MegaflowCache, MiniKey, OvsDatapath};
use pkt::builder::PacketBuilder;
use pkt::Packet;

fn port_pipeline(rules: &[(u16, u32)]) -> Pipeline {
    let mut p = Pipeline::with_tables(1);
    let t = p.table_mut(0).unwrap();
    for (i, (port, out)) in rules.iter().enumerate() {
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, u128::from(*port)),
            200 - i as u16,
            terminal_actions(vec![Action::Output(*out)]),
        ));
    }
    t.insert(FlowEntry::new(
        FlowMatch::any(),
        1,
        terminal_actions(vec![Action::Output(99)]),
    ));
    p
}

fn tcp(port: u16, src: u16) -> Packet {
    PacketBuilder::tcp().tcp_dst(port).tcp_src(src).build()
}

/// The Fig. 3 experiment: replaying the same seven destination ports in two
/// different orders against the same table. With sound mask construction the
/// megaflow count is order-independent (documented divergence from the
/// paper's 7-vs-1), but the cache still records the per-packet unwildcarding
/// behaviour the figure is really about: packets that only had to be proven
/// different from the high-priority rule get broader megaflows than the
/// packet that matched it.
#[test]
fn fig3_arrival_orders_and_mask_specificity() {
    let ports = [190u16, 189, 187, 183, 175, 159, 191];
    let pipeline = || port_pipeline(&[(191, 1)]);

    let seq1 = OvsDatapath::new(pipeline());
    for &p in &ports {
        seq1.process(&mut tcp(p, 40_000));
    }
    let mut seq2_order = ports.to_vec();
    seq2_order.rotate_right(1); // 191 first
    let seq2 = OvsDatapath::new(pipeline());
    for &p in &seq2_order {
        seq2.process(&mut tcp(p, 40_000));
    }

    // Both orders classify every distinct packet once (seven slow-path trips)
    // and produce one megaflow per distinct first-difference position.
    assert_eq!(seq1.stats.slowpath_hits.packets(), 7);
    assert_eq!(seq2.stats.slowpath_hits.packets(), 7);
    assert_eq!(seq1.megaflow_count(), 7);
    assert_eq!(seq2.megaflow_count(), 7);

    // Broad megaflows absorb later traffic: after 159's megaflow exists, any
    // port in 128..=159 is answered without another slow-path trip.
    let dp = OvsDatapath::new(pipeline());
    dp.process(&mut tcp(159, 1));
    let slow_before = dp.stats.slowpath_hits.packets();
    dp.process(&mut tcp(130, 2));
    dp.process(&mut tcp(140, 3));
    assert_eq!(dp.stats.slowpath_hits.packets(), slow_before);
    // While a port outside that range still needs the slow path.
    dp.process(&mut tcp(200, 4));
    assert_eq!(dp.stats.slowpath_hits.packets(), slow_before + 1);
}

/// "Only a single fine-grained rule is enough to punch a hole in all
/// aggregates": adding a rule on a high-entropy field makes every megaflow
/// pin that field, so aggregates stop covering whole port ranges.
#[test]
fn fine_grained_rule_fragments_megaflows() {
    // Coarse pipeline: one rule on the destination /24 only.
    let mut coarse = Pipeline::with_tables(1);
    coarse.table_mut(0).unwrap().insert(FlowEntry::new(
        FlowMatch::any().with_prefix(Field::Ipv4Dst, u128::from(0xc0000200u32), 24),
        100,
        terminal_actions(vec![Action::Output(1)]),
    ));
    coarse
        .table_mut(0)
        .unwrap()
        .insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));

    // Same pipeline plus one fine-grained rule on an exact TCP source port.
    let mut fine = coarse.clone();
    fine.table_mut(0).unwrap().insert(FlowEntry::new(
        FlowMatch::any().with_exact(Field::TcpSrc, 31337),
        200,
        terminal_actions(vec![Action::Output(9)]),
    ));

    // Both runs disable the address/ports tries (prefix tracking) so the
    // comparison isolates the aggregate-fragmentation effect itself — this is
    // the behaviour OVS exhibits for fields its tries do not cover.
    let run = |pipeline: Pipeline| {
        let config = ovsdp::OvsConfig {
            slowpath: ovsdp::slowpath::SlowPathConfig {
                prefix_tracking: false,
            },
            ..ovsdp::OvsConfig::default()
        };
        let dp = OvsDatapath::with_config(pipeline, config);
        for src in 0..200u16 {
            dp.process(
                &mut PacketBuilder::tcp()
                    .ipv4_dst([192, 0, 2, 50])
                    .tcp_src(1000 + src)
                    .tcp_dst(80)
                    .build(),
            );
        }
        (dp.megaflow_count(), dp.stats.slowpath_hits.packets())
    };
    let (coarse_megaflows, coarse_slow) = run(coarse);
    let (fine_megaflows, fine_slow) = run(fine);

    assert_eq!(
        coarse_megaflows, 1,
        "destination-only traffic is one aggregate"
    );
    assert_eq!(coarse_slow, 1);
    assert!(
        fine_megaflows > coarse_megaflows * 20,
        "the high-entropy rule must fragment the cache ({fine_megaflows} megaflows)"
    );
    assert!(fine_slow > coarse_slow * 20);
}

/// Flow-table changes invalidate the caches — but only as much as the
/// change's delta demands. A rule add provably disjoint from every cached
/// flow spares them (delta-aware invalidation); overlapping rules and
/// delta-less pipeline swaps flush, and the cache is rebuilt reactively from
/// the slow path (§2.3, footnote 2).
#[test]
fn updates_invalidate_and_repopulate_reactively() {
    let dp = OvsDatapath::new(port_pipeline(&[(80, 1), (443, 2)]));
    for src in 0..50 {
        dp.process(&mut tcp(80, 1000 + src));
        dp.process(&mut tcp(443, 1000 + src));
    }
    let megaflows = dp.megaflow_count();
    assert!(megaflows >= 2);
    let slow_before = dp.stats.slowpath_hits.packets();

    // An unrelated rule change (port 8080, nothing rewritten in this
    // pipeline) keeps every disjoint megaflow and EMC entry alive...
    dp.flow_mod(&FlowMod::add(
        0,
        FlowMatch::any().with_exact(Field::TcpDst, 8080),
        150,
        terminal_actions(vec![Action::Output(3)]),
    ))
    .unwrap();
    assert_eq!(dp.megaflow_count(), megaflows);
    assert!(dp.microflow_count() > 0);
    // ...so the old flows never revisit the slow path.
    dp.process(&mut tcp(80, 1000));
    dp.process(&mut tcp(443, 1000));
    assert_eq!(dp.stats.slowpath_hits.packets(), slow_before);

    // A rule overlapping a cached flow flushes that flow (and anything not
    // provably disjoint), which then repopulates reactively.
    dp.flow_mod(&FlowMod::add(
        0,
        FlowMatch::any().with_exact(Field::TcpDst, 443),
        210,
        terminal_actions(vec![Action::Output(7)]),
    ))
    .unwrap();
    let slow_mid = dp.stats.slowpath_hits.packets();
    dp.process(&mut tcp(443, 1000));
    assert!(dp.stats.slowpath_hits.packets() > slow_mid);
    assert_eq!(dp.process(&mut tcp(443, 1000)).outputs, vec![7]);

    // A delta-less pipeline replacement is the brute-force §2.3 behaviour:
    // everything flushed, every flow back through the slow path.
    dp.replace_pipeline(port_pipeline(&[(80, 1), (443, 2)]));
    assert_eq!(dp.megaflow_count(), 0);
    assert_eq!(dp.microflow_count(), 0);
    let slow_late = dp.stats.slowpath_hits.packets();
    dp.process(&mut tcp(80, 1000));
    dp.process(&mut tcp(443, 1000));
    assert!(dp.stats.slowpath_hits.packets() >= slow_late + 2);
}

/// The megaflow store itself: disjoint aggregates, eviction at capacity, and
/// tuple-space search cost growing with mask diversity.
#[test]
fn megaflow_store_disjointness_and_eviction() {
    let mut cache = MegaflowCache::with_capacity(8);
    let key = |port: u16| openflow::FlowKey {
        tcp_dst: Some(port),
        eth_type: 0x0800,
        ip_proto: Some(6),
        ..Default::default()
    };
    let mut mask = ovsdp::FieldMask::wildcard_all();
    mask.unwildcard_exact(Field::TcpDst);
    for port in 0..20u16 {
        cache.insert(
            &MiniKey::from_flow(&key(port)),
            &mask,
            std::sync::Arc::new(ovsdp::Program::new(
                vec![Action::Output(1)],
                Default::default(),
            )),
        );
    }
    assert!(cache.len() <= 8, "capacity must bound the cache");
    assert!(
        cache.lookup(&MiniKey::from_flow(&key(19))).is_some(),
        "recent entries survive"
    );
    assert!(
        cache.lookup(&MiniKey::from_flow(&key(0))).is_none(),
        "oldest entries evicted"
    );
    assert_eq!(cache.subtable_count(), 1, "one mask, one subtable");
}
