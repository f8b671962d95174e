//! The slow path against the interpreter's matcher: the same walk and
//! recorder with each table classified by [`FlowTable::scan`], entry by
//! entry, every examined entry un-wildcarded. The two must return the same
//! [`SlowPathResult`] bit for bit — program, punt reason, mask, verdict with
//! its work counts, and `cacheable` — leave the packet the same, and bump the
//! same table and entry counters, on the gateway at 256, 2 000 and 10 000
//! prefixes (every upstream and downstream flow), on the ACL at 72 and 369
//! rules, and on the stateful ACL with live connection state.

use openflow::{ConnCtx, FlowKey, FlowTable, NoCt, Pipeline};
use pkt::builder::PacketBuilder;
use pkt::Packet;
use workloads::{gateway, stateful_acl_gateway as sacl, AclConfig, GatewayConfig};

use super::{record, SlowPath, SlowPathResult};

fn classify_by_scan(
    pipeline: &Pipeline,
    packet: &mut Packet,
    key: &mut FlowKey,
    ct: &mut dyn ConnCtx,
) -> SlowPathResult {
    record(pipeline, packet, key, ct, FlowTable::scan)
}

fn assert_same(got: &SlowPathResult, want: &SlowPathResult, context: &str) {
    assert_eq!(&got.actions[..], &want.actions[..], "{context}: program");
    assert_eq!(
        got.actions.punt_reason(),
        want.actions.punt_reason(),
        "{context}: punt reason"
    );
    assert_eq!(got.mask, want.mask, "{context}: mask");
    assert_eq!(got.verdict, want.verdict, "{context}: verdict");
    assert_eq!(got.cacheable, want.cacheable, "{context}: cacheable");
}

/// Every table's and entry's counters, in pipeline order.
fn counters(pipeline: &Pipeline) -> Vec<u64> {
    let mut all = Vec::new();
    for table in pipeline.tables() {
        all.extend([table.lookups.packets(), table.matches.packets()]);
        for entry in table.entries() {
            all.extend([entry.counters.packets(), entry.counters.bytes()]);
        }
    }
    all
}

/// Classifies every packet of `packets` through the index on one copy of
/// the pipeline and through the scan on another, built apart so counters
/// are not shared, with a tracker per copy.
fn differential<C: ConnCtx>(
    name: &str,
    build: impl Fn() -> Pipeline,
    packets: &[Packet],
    mut tracker: impl FnMut() -> C,
) {
    let (indexed, scanned) = (build(), build());
    let (mut ct_indexed, mut ct_scanned) = (tracker(), tracker());
    for (i, packet) in packets.iter().enumerate() {
        let (mut a, mut b) = (packet.clone(), packet.clone());
        let mut key_a = FlowKey::extract(&a);
        let mut key_b = key_a;
        let got = SlowPath.classify_ct(&indexed, &mut a, &mut key_a, &mut ct_indexed);
        let want = classify_by_scan(&scanned, &mut b, &mut key_b, &mut ct_scanned);
        let context = format!("{name} packet {i}");
        assert_same(&got, &want, &context);
        assert_eq!(a.data(), b.data(), "{context}: packet");
        assert_eq!(key_a, key_b, "{context}: key");
    }
    assert!(counters(&indexed) == counters(&scanned), "{name}: counters");
    for table in indexed.tables() {
        table.audit_index().expect("index in step");
    }
}

#[test]
fn gateway_classifies_as_the_scan_at_every_routing_table_size() {
    for prefixes in [256, 2_000, 10_000] {
        let config = GatewayConfig {
            routing_prefixes: prefixes,
            seed: 1,
            ..GatewayConfig::default()
        };
        let mut packets: Vec<Packet> = gateway::build_traffic(&config, 4_096).one_cycle().collect();
        packets.extend(gateway::build_downstream_traffic(&config, 512).one_cycle());
        // Unknown users punt from their CE table; unknown CEs fall through.
        packets.push(
            PacketBuilder::tcp()
                .vlan(100)
                .ipv4_src([10, 0, 0, 250])
                .in_port(1)
                .build(),
        );
        packets.push(PacketBuilder::tcp().vlan(999).in_port(1).build());
        differential(
            &format!("gateway/{prefixes}"),
            || gateway::build_pipeline(&config),
            &packets,
            || NoCt,
        );
    }
}

#[test]
fn acl_classifies_as_the_scan() {
    for rules in [72, 369] {
        let config = AclConfig {
            rules,
            ..AclConfig::default()
        };
        let build = || {
            let mut pipeline = Pipeline::new();
            pipeline.add_table(workloads::generate_acl_table(&config));
            pipeline
        };
        // One packet per rule, agreeing with it on its matched fields and
        // drawing the wildcarded ones from the generator's pools, so most
        // packets hit somewhere down the table.
        let table = workloads::generate_acl_table(&config);
        let mut packets = Vec::new();
        for (i, entry) in table.entries().iter().enumerate() {
            let get = |field| entry.flow_match.field(field).map(|mf| mf.value);
            let i = i as u128;
            let src = get(openflow::Field::Ipv4Src).unwrap_or(0xc633_6401 + i % 200) as u32;
            let dst = get(openflow::Field::Ipv4Dst).unwrap_or(0xc000_0201 + i % 40) as u32;
            let udp = get(openflow::Field::IpProto) == Some(17)
                || get(openflow::Field::UdpDst).is_some()
                || get(openflow::Field::UdpSrc).is_some();
            let sport = get(openflow::Field::TcpSrc)
                .or(get(openflow::Field::UdpSrc))
                .unwrap_or(1024 + i * 7) as u16;
            let dport = get(openflow::Field::TcpDst)
                .or(get(openflow::Field::UdpDst))
                .unwrap_or([80, 443, 22, 53][(i % 4) as usize]) as u16;
            let builder = if udp {
                PacketBuilder::udp().udp_src(sport).udp_dst(dport)
            } else {
                PacketBuilder::tcp().tcp_src(sport).tcp_dst(dport)
            };
            packets.push(
                builder
                    .ipv4_src(src.to_be_bytes())
                    .ipv4_dst(dst.to_be_bytes())
                    .build(),
            );
        }
        differential(&format!("acl/{rules}"), build, &packets, || NoCt);
    }
}

#[test]
fn stateful_acl_classifies_as_the_scan_with_live_connections() {
    let config = sacl::StatefulAclConfig::default();
    let requests: Vec<Packet> = sacl::build_requests(&config, 64).one_cycle().collect();
    let mut packets = requests.clone();
    packets.extend(
        requests
            .iter()
            .filter_map(|p| workloads::reply_to(p, workloads::usecases::PORT_NET)),
    );
    packets.extend(sacl::build_unsolicited(&config, 32).one_cycle());
    differential(
        "stateful_acl",
        || sacl::build_pipeline(&config),
        &packets,
        || conntrack::CtEngine::new(&sacl::ct_config()),
    );
}
