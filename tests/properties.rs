//! Property-based tests on the core data structures and invariants:
//! the DIR-24-8 LPM versus a linear-scan oracle, the flat hash table versus
//! `HashMap`, the linear LPM-prerequisite check versus the all-pairs one, the
//! incremental header checksums versus re-summing, match/mask algebra, parser
//! robustness against arbitrary bytes, and semantic preservation of
//! flow-table decomposition.

mod common;

use std::collections::HashMap;

use common::{checksums_verify, with_ipv4_options};
use eswitch::decompose::decompose_table;
use eswitch::templates::action::CompiledActionSet;
use netdev::flat_hash::HashKey;
use netdev::{FlatHash, Lpm};
use openflow::flow_match::{FlowMatch, MatchField};
use openflow::instruction::terminal_actions;
use openflow::{Action, Field, FlowEntry, FlowKey, FlowTable, NoCt, Pipeline};
use pkt::builder::PacketBuilder;
use pkt::ipv4::{prefix_mask, Ipv4Addr4};
use pkt::parser::{parse, ParseDepth};
use proptest::prelude::*;

/// Drives a [`FlatHash`] and a `HashMap` through the same inserts, replaces
/// and removes and compares them after every step: every stored key is found
/// with its value (so no removal broke a probe chain and no insert left an
/// entry outside its probe window), every absent key misses, and the table
/// never fills past a quarter.
fn flat_hash_matches_model<K: HashKey + std::hash::Hash + std::fmt::Debug>(
    key_of: impl Fn(u16) -> K,
    ops: &[(bool, u16, u16)],
) {
    let mut table: FlatHash<K, u16> = FlatHash::new();
    let mut model: HashMap<K, u16> = HashMap::new();
    for &(insert, index, value) in ops {
        let key = key_of(index);
        if insert {
            assert_eq!(table.insert(key, value), model.insert(key, value));
        } else {
            assert_eq!(table.remove(key), model.remove(&key));
        }
        assert_eq!(table.len(), model.len());
        assert!(table.capacity() >= 4 * table.len());
        for index in 0..KEY_UNIVERSE {
            let key = key_of(index);
            assert_eq!(table.get(key), model.get(&key), "{key:?}");
        }
    }
}

/// Keys the model test draws from (small, so replaces and removes hit).
const KEY_UNIVERSE: u16 = 160;

/// The all-pairs form of the LPM prerequisite, as `eswitch::analysis`
/// computed it before the per-prefix-length maps: the oracle for
/// `lpm_shape_agrees_with_the_pairwise_check`.
fn lpm_shape_pairwise(table: &FlowTable) -> Option<Field> {
    let (body, _) = eswitch::analysis::split_catch_all(table);
    let first = body.first()?;
    if first.flow_match.len() != 1 {
        return None;
    }
    let field = first.flow_match.fields()[0].field;
    if !field.supports_prefix() || field.width_bits() != 32 {
        return None;
    }
    let mut rules: Vec<(&MatchField, u16)> = Vec::new();
    for entry in &body {
        let fields = entry.flow_match.fields();
        if fields.len() != 1 || fields[0].field != field {
            return None;
        }
        fields[0].prefix_len()?;
        rules.push((&fields[0], entry.priority));
    }
    for (a, prio_a) in &rules {
        for (b, prio_b) in &rules {
            let (len_a, len_b) = (a.prefix_len()?, b.prefix_len()?);
            if len_a > len_b && a.value & b.mask == b.value && prio_a <= prio_b {
                return None;
            }
        }
    }
    Some(field)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The DIR-24-8 structure agrees with a brute-force longest-prefix scan
    /// for arbitrary rule sets and lookups.
    #[test]
    fn lpm_matches_linear_scan(
        rules in prop::collection::vec((any::<u32>(), 0u8..=32, 1u16..100), 1..60),
        lookups in prop::collection::vec(any::<u32>(), 1..60),
    ) {
        let mut lpm = Lpm::new();
        let mut oracle: Vec<(u32, u8, u16)> = Vec::new();
        for (addr, len, hop) in rules {
            let prefix = addr & prefix_mask(len);
            lpm.add(Ipv4Addr4::from_u32(prefix), len, hop).unwrap();
            oracle.retain(|(p, l, _)| !(*p == prefix && *l == len));
            oracle.push((prefix, len, hop));
        }
        for addr in lookups {
            let expected = oracle
                .iter()
                .filter(|(p, l, _)| addr & prefix_mask(*l) == *p)
                .max_by_key(|(_, l, _)| *l)
                .map(|(_, _, h)| *h);
            prop_assert_eq!(lpm.lookup(Ipv4Addr4::from_u32(addr)), expected);
        }
    }

    /// After deletions the LPM still agrees with the oracle.
    #[test]
    fn lpm_delete_matches_linear_scan(
        rules in prop::collection::vec((any::<u32>(), 8u8..=32, 1u16..50), 5..40),
        delete_every in 2usize..5,
        lookups in prop::collection::vec(any::<u32>(), 1..40),
    ) {
        let mut lpm = Lpm::new();
        let mut oracle: HashMap<(u32, u8), u16> = HashMap::new();
        for (addr, len, hop) in &rules {
            let prefix = addr & prefix_mask(*len);
            lpm.add(Ipv4Addr4::from_u32(prefix), *len, *hop).unwrap();
            oracle.insert((prefix, *len), *hop);
        }
        for (i, (addr, len, _)) in rules.iter().enumerate() {
            if i % delete_every == 0 {
                let prefix = addr & prefix_mask(*len);
                if oracle.remove(&(prefix, *len)).is_some() {
                    lpm.delete(Ipv4Addr4::from_u32(prefix), *len).unwrap();
                }
            }
        }
        for addr in lookups {
            let expected = oracle
                .iter()
                .filter(|((p, l), _)| addr & prefix_mask(*l) == *p)
                .max_by_key(|((_, l), _)| *l)
                .map(|(_, h)| *h);
            prop_assert_eq!(lpm.lookup(Ipv4Addr4::from_u32(addr)), expected);
        }
    }

    /// The flat hash table behaves exactly like a `HashMap` under an
    /// arbitrary interleaving of inserts, replaces and removes — with 64-bit
    /// and 128-bit keys that differ only in their low bits, only in their
    /// high bits (one field of a compound key, packed first or last), and in
    /// both.
    #[test]
    fn flat_hash_matches_hashmap(
        ops in prop::collection::vec((any::<bool>(), 0..KEY_UNIVERSE, any::<u16>()), 1..400),
    ) {
        flat_hash_matches_model(u64::from, &ops);
        flat_hash_matches_model(|i| u64::from(i) << 52, &ops);
        flat_hash_matches_model(|i| u64::from(i) << 52 | u64::from(i % 7), &ops);
        flat_hash_matches_model(u128::from, &ops);
        flat_hash_matches_model(|i| u128::from(i) << 116, &ops);
        flat_hash_matches_model(|i| u128::from(i) << 64 | u128::from(i / 3), &ops);
    }

    /// The linear LPM-prerequisite check (one map per prefix length) accepts
    /// exactly the tables the all-pairs check accepts: nested prefixes with
    /// priorities that follow the lengths, that invert them, that tie, and
    /// duplicates of one prefix at several priorities.
    #[test]
    fn lpm_shape_agrees_with_the_pairwise_check(
        rules in prop::collection::vec((0u8..4, 0u8..4, 8u32..=32, 0u16..6), 1..24),
        by_length in any::<bool>(),
        catch_all in any::<bool>(),
    ) {
        let mut table = FlowTable::new(0);
        for (a, b, len, noise) in rules {
            // Addresses share long runs of bits, so most rule pairs nest.
            let addr = u32::from_be_bytes([10, a, b << 6, b]);
            let priority = if by_length { 10 + 4 * len as u16 + noise % 5 } else { 10 + noise };
            table.insert(FlowEntry::new(
                FlowMatch::any().with_prefix(Field::Ipv4Dst, u128::from(addr), len),
                priority,
                terminal_actions(vec![Action::Output(1)]),
            ));
        }
        if catch_all {
            table.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
        }
        prop_assert_eq!(eswitch::analysis::lpm_shape(&table), lpm_shape_pairwise(&table));
    }

    /// RFC 1624 on valid headers: after an address, DSCP or TTL rewrite —
    /// by the interpreter's action and by the compiled one — the stepped
    /// IPv4 header checksum is the one a full re-sum gives, for every header
    /// length, and the TCP/UDP checksum follows an address change.
    #[test]
    fn incremental_checksums_equal_full_recompute(
        ihl in 5u8..=15,
        options in any::<u64>(),
        udp in any::<bool>(),
        (src, dst, new_addr) in (any::<u32>(), any::<u32>(), any::<u32>()),
        (ttl, dscp) in (any::<u8>(), 0u8..64),
        rewrite in 0usize..4,
    ) {
        let builder = if udp { PacketBuilder::udp() } else { PacketBuilder::tcp() };
        let built = builder.ipv4_src(Ipv4Addr4::from_u32(src)).ipv4_dst(Ipv4Addr4::from_u32(dst)).ttl(ttl).build();
        let packet = with_ipv4_options(&built, ihl, options);
        prop_assert!(checksums_verify(packet.data()));
        let action = [
            Action::SetField(Field::Ipv4Src, u128::from(new_addr)),
            Action::SetField(Field::Ipv4Dst, u128::from(new_addr)),
            Action::SetField(Field::IpDscp, u128::from(dscp)),
            Action::DecNwTtl,
        ][rewrite].clone();

        let mut interpreted = packet.clone();
        let mut key = FlowKey::extract(&interpreted);
        let headers = parse(interpreted.data(), ParseDepth::L4);
        let actions = std::slice::from_ref(&action);
        openflow::action::apply_action_list(actions, &mut interpreted, &mut key, headers, |_| {}, &mut NoCt);
        let mut compiled = packet.clone();
        let mut headers = parse(compiled.data(), ParseDepth::L4);
        CompiledActionSet::from_actions(&[action]).execute(
            &mut compiled,
            &mut headers,
            ParseDepth::L4,
            &mut openflow::Verdict::default(),
        );
        prop_assert_eq!(interpreted.data(), compiled.data());

        let header = &interpreted.data()[14..14 + usize::from(ihl) * 4];
        let mut zeroed = header.to_vec();
        zeroed[10..12].fill(0);
        prop_assert_eq!(header[10..12], pkt::checksum::ones_complement(&zeroed).to_be_bytes());
        prop_assert!(checksums_verify(interpreted.data()));
    }

    /// Prefix-mask constructors and the prefix-length recogniser are inverses.
    #[test]
    fn prefix_len_roundtrip(len in 0u32..=32, value in any::<u32>()) {
        let mf = MatchField::prefix(Field::Ipv4Dst, u128::from(value), len);
        prop_assert_eq!(mf.prefix_len(), Some(len));
        // The masked value always satisfies its own match.
        prop_assert!(mf.matches_value(u128::from(value)));
    }

    /// The parser never panics and never reports layers beyond the frame, for
    /// completely arbitrary input bytes.
    #[test]
    fn parser_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let headers = parse(&bytes, ParseDepth::L4);
        if headers.has_tcp() || headers.has_udp() {
            prop_assert!(usize::from(headers.l4_offset) < bytes.len());
        }
        if headers.has_ipv4() {
            prop_assert!(usize::from(headers.l3_offset) + 20 <= bytes.len());
        }
    }

    /// FlowKey extraction is consistent with the matcher-template field loads
    /// for arbitrary well-formed packets.
    #[test]
    fn flow_key_and_template_loads_agree(
        dst_port in any::<u16>(),
        src_port in any::<u16>(),
        ip_last in any::<u8>(),
        vlan in prop::option::of(1u16..4095),
    ) {
        let mut builder = PacketBuilder::tcp()
            .tcp_src(src_port)
            .tcp_dst(dst_port)
            .ipv4_dst([192, 0, 2, ip_last]);
        if let Some(vid) = vlan {
            builder = builder.vlan(vid);
        }
        let packet = builder.build();
        let key = FlowKey::extract(&packet);
        let headers = parse(packet.data(), ParseDepth::L4);
        let regs = eswitch::templates::matcher::Regs { in_port: packet.in_port, ..Default::default() };
        for field in [Field::TcpDst, Field::TcpSrc, Field::Ipv4Dst, Field::EthDst, Field::VlanVid] {
            prop_assert_eq!(
                eswitch::templates::matcher::load_field(field, packet.data(), &headers, &regs),
                key.get(field),
                "field {:?}", field
            );
        }
    }

    /// Decomposing a random exact-or-wildcard table preserves its semantics.
    #[test]
    fn decomposition_preserves_semantics(
        rows in prop::collection::vec(
            (prop::option::of(0u8..4), prop::option::of(0u16..4), prop::option::of(0u8..3), 0u32..4),
            1..12,
        ),
        packets in prop::collection::vec((0u8..5, 0u16..5, 0u8..4), 1..30),
    ) {
        let mut table = FlowTable::new(0);
        let row_count = rows.len() as u16;
        for (i, (ip, port, proto, out)) in rows.into_iter().enumerate() {
            let mut m = FlowMatch::any();
            if let Some(ip) = ip {
                m = m.with_exact(Field::Ipv4Dst, u128::from(u32::from_be_bytes([10, 0, 0, ip])));
            }
            if let Some(port) = port {
                m = m.with_exact(Field::TcpDst, u128::from(1000 + port));
            }
            if let Some(proto) = proto {
                m = m.with_exact(Field::IpDscp, u128::from(proto));
            }
            table.insert(FlowEntry::new(
                m,
                100 + row_count - i as u16,
                terminal_actions(vec![Action::Output(out)]),
            ));
        }
        let mut original = Pipeline::new();
        original.add_table(table.clone());

        let mut next_id = 1;
        let mut decomposed = Pipeline::new();
        for t in decompose_table(&table, &mut next_id) {
            decomposed.add_table(t);
        }
        prop_assert!(decomposed.validate().is_ok());

        for (ip, port, dscp) in packets {
            let packet = PacketBuilder::tcp()
                .ipv4_dst([10, 0, 0, ip])
                .tcp_dst(1000 + port)
                .dscp(dscp)
                .build();
            let mut a = packet.clone();
            let mut b = packet;
            prop_assert_eq!(
                original.process_ct(&mut a, &mut NoCt).decision(),
                decomposed.process_ct(&mut b, &mut NoCt).decision()
            );
        }
    }
}
