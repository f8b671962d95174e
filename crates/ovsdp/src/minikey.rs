//! Miniflow-style compact flow keys.
//!
//! OVS does not hash `struct flow` (large, mostly-empty) on the fast path; it
//! builds a `miniflow` — a presence bitmap plus the packed `u64` words of only
//! the fields the packet actually carries — and computes the key's hash once,
//! during extraction. [`MiniKey`] is that structure for this reproduction,
//! built once per packet and read by both caches: the microflow cache keys on
//! it, so an EMC probe is one precomputed-hash index plus one compact
//! compare, and each megaflow subtable ANDs the few words its mask pins
//! ([`WordRef`], [`MiniKey::packed`]) — OVS's `dpcls` probe.
//!
//! Every present field packs as one `u64` word (an IPv6 address as two), so
//! a key is 240 bytes whatever it carries and an EMC slot with its program
//! pointer is 248. The key stays exact: the presence bitmap separates an absent field from a
//! zero one, and equality compares the bitmap and every packed word.

use netdev::fx_mix;
use openflow::{Field, FlowKey};

/// Number of [`FlowKey`] fields a [`MiniKey`] can mark present: the six
/// always-present pipeline/L2 fields plus the twenty optional ones, in a
/// fixed order. Real packets populate far fewer (a VLAN TCP/IPv4 frame packs
/// 15), but keys mutated through `FlowKey::set` can populate any subset.
const MINI_FIELDS: u32 = 26;

/// Number of `u64` words a [`MiniKey`] can pack: one per field, plus the
/// second word of each of the two IPv6 addresses.
pub(crate) const MINI_WORDS: usize = MINI_FIELDS as usize + 2;

/// Packing bits of the two IPv6 addresses, the only two-word fields.
const WIDE_BITS: u32 = 1 << 13 | 1 << 14;

/// The packing bit of `field` in a [`MiniKey`] (its position in
/// [`MiniKey::from_flow`]'s fixed order), or `None` for the fields the key
/// never carries (MPLS, PBB, IPv6 ND/exthdr, SCTP, ICMPv6), which
/// `FlowKey::get` reports absent on every packet. `InPhyPort` reads
/// `InPort`'s word, as `FlowKey::get` does.
pub(crate) const fn packing_bit(field: Field) -> Option<u32> {
    Some(match field {
        Field::InPort | Field::InPhyPort => 0,
        Field::Metadata => 1,
        Field::TunnelId => 2,
        Field::EthDst => 3,
        Field::EthSrc => 4,
        Field::EthType => 5,
        Field::VlanVid => 6,
        Field::VlanPcp => 7,
        Field::IpDscp => 8,
        Field::IpEcn => 9,
        Field::IpProto => 10,
        Field::Ipv4Src => 11,
        Field::Ipv4Dst => 12,
        Field::Ipv6Src => 13,
        Field::Ipv6Dst => 14,
        Field::TcpSrc => 15,
        Field::TcpDst => 16,
        Field::UdpSrc => 17,
        Field::UdpDst => 18,
        Field::Icmpv4Type => 19,
        Field::Icmpv4Code => 20,
        Field::ArpOp => 21,
        Field::ArpSpa => 22,
        Field::ArpTpa => 23,
        Field::ArpSha => 24,
        Field::ArpTha => 25,
        _ => return None,
    })
}

/// One packed word of a [`MiniKey`], named by field rather than by position:
/// the word's position depends on which fields the packet carries, so a
/// reference keeps what [`WordRef::rank`] needs to find it with one
/// popcount. Built once per megaflow subtable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WordRef {
    /// The field's presence bit (`1 << packing bit`).
    present: u32,
    /// Which word of the field: 0, or 1 for an IPv6 address's high half.
    half: u8,
    /// The presence bits below the field (low half) and the two-word
    /// fields among them (high half): a key's word rank is the popcount of
    /// its doubled presence bitmap under this mask.
    below: u64,
}

impl WordRef {
    /// Word `half` of the field at packing bit `bit`.
    pub(crate) const fn new(bit: u32, half: u8) -> Self {
        let below = (1u32 << bit) - 1;
        WordRef {
            present: 1 << bit,
            half,
            below: below as u64 | ((below & WIDE_BITS) as u64) << 32,
        }
    }

    /// The position of this word among the packed words of any key whose
    /// presence bitmap is `present`, or `None` when such keys lack the
    /// field: one per present field below it, plus one per IPv6 address
    /// among those, plus the half.
    #[inline]
    pub(crate) fn rank(self, present: u32) -> Option<usize> {
        if present & self.present == 0 {
            return None;
        }
        let present = u64::from(present);
        let doubled = present | present << 32;
        Some((doubled & self.below).count_ones() as usize + usize::from(self.half))
    }

    /// The field's presence bit (`1 << packing bit`).
    pub(crate) const fn present_bit(self) -> u32 {
        self.present
    }

    /// True for an IPv6 address's high half.
    pub(crate) const fn is_high_half(self) -> bool {
        self.half == 1
    }
}

/// A compact exact-match key: presence bitmap + packed present words +
/// precomputed FxHash.
#[derive(Debug, Clone, Copy)]
pub struct MiniKey {
    /// Precomputed hash over (presence bitmap, packed words).
    hash: u64,
    /// Bit `i` set ⇔ the `i`-th key field (in the fixed packing order) is
    /// present; its word(s) then appear in `words` after those of all
    /// lower-index present fields.
    present: u32,
    /// Number of packed words (`present.count_ones()`, plus one per IPv6
    /// address present).
    n: u8,
    words: [u64; MINI_WORDS],
}

impl MiniKey {
    /// Builds the compact key (and its hash) from an extracted flow key.
    /// Allocation-free; this is the once-per-packet extraction cost.
    pub fn from_flow(key: &FlowKey) -> Self {
        let mut mini = MiniKey {
            hash: 0,
            present: 0,
            n: 0,
            words: [0; MINI_WORDS],
        };
        let mut bit = 0u32;
        // Two independent mix lanes halve the latency of the (serially
        // dependent) multiply chain; they are folded together at the end.
        // The lane is picked by field index, a constant at each site below.
        let mut lane0 = 0u64;
        let mut lane1 = 0x9e37_79b9_7f4a_7c15u64;
        macro_rules! word {
            ($word:expr, $lane:expr) => {{
                let w: u64 = $word;
                mini.words[usize::from(mini.n)] = w;
                mini.n += 1;
                if $lane {
                    lane1 = fx_mix(lane1, w);
                } else {
                    lane0 = fx_mix(lane0, w);
                }
            }};
        }
        macro_rules! push {
            ($value:expr) => {{
                mini.present |= 1 << bit;
                word!(u64::from($value), bit % 2 == 1);
                bit += 1;
            }};
        }
        macro_rules! push_opt {
            ($value:expr) => {{
                if let Some(v) = $value {
                    push!(v);
                } else {
                    bit += 1;
                }
            }};
        }
        macro_rules! push_wide {
            ($value:expr) => {{
                if let Some(v) = $value {
                    mini.present |= 1 << bit;
                    word!(v as u64, false);
                    word!((v >> 64) as u64, true);
                }
                bit += 1;
            }};
        }
        push!(key.in_port);
        push!(key.metadata);
        push!(key.tunnel_id);
        push!(key.eth_dst);
        push!(key.eth_src);
        push!(key.eth_type);
        push_opt!(key.vlan_vid);
        push_opt!(key.vlan_pcp);
        push_opt!(key.ip_dscp);
        push_opt!(key.ip_ecn);
        push_opt!(key.ip_proto);
        push_opt!(key.ipv4_src);
        push_opt!(key.ipv4_dst);
        push_wide!(key.ipv6_src);
        push_wide!(key.ipv6_dst);
        push_opt!(key.tcp_src);
        push_opt!(key.tcp_dst);
        push_opt!(key.udp_src);
        push_opt!(key.udp_dst);
        push_opt!(key.icmpv4_type);
        push_opt!(key.icmpv4_code);
        push_opt!(key.arp_op);
        push_opt!(key.arp_spa);
        push_opt!(key.arp_tpa);
        push_opt!(key.arp_sha);
        push_opt!(key.arp_tha);
        debug_assert_eq!(bit, MINI_FIELDS);
        // Fold the lanes and the presence bitmap in so "field absent" and
        // "field zero" cannot hash alike. The final multiply leaves the
        // best-mixed bits at the top, which is where the EMC takes its set.
        mini.hash = fx_mix(fx_mix(lane0, lane1), u64::from(mini.present));
        mini
    }

    /// The precomputed key hash.
    #[inline]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The presence bitmap: bit `packing_bit(f)` set ⇔ the packet carries
    /// field `f`.
    #[inline]
    pub(crate) fn present(&self) -> u32 {
        self.present
    }

    /// The packed word at position `rank` ([`WordRef::rank`]).
    #[inline]
    pub(crate) fn packed(&self, rank: usize) -> u64 {
        self.words[rank]
    }
}

impl PartialEq for MiniKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // The hash is a cheap first-word reject; the bitmap + packed words
        // are the authoritative comparison.
        self.hash == other.hash
            && self.present == other.present
            && self.words[..usize::from(self.n)] == other.words[..usize::from(other.n)]
    }
}

impl Eq for MiniKey {}

#[cfg(test)]
mod tests {
    use super::*;
    use pkt::builder::PacketBuilder;

    fn mini(key: &FlowKey) -> MiniKey {
        MiniKey::from_flow(key)
    }

    #[test]
    fn same_flow_same_key_and_hash() {
        let a = FlowKey::extract(&PacketBuilder::tcp().tcp_dst(80).tcp_src(9).build());
        let b = FlowKey::extract(&PacketBuilder::tcp().tcp_dst(80).tcp_src(9).build());
        assert_eq!(mini(&a), mini(&b));
        assert_eq!(mini(&a).hash(), mini(&b).hash());
    }

    #[test]
    fn different_flows_differ() {
        let a = FlowKey::extract(&PacketBuilder::tcp().tcp_dst(80).build());
        let b = FlowKey::extract(&PacketBuilder::tcp().tcp_dst(81).build());
        let c = FlowKey::extract(&PacketBuilder::udp().udp_dst(80).build());
        assert_ne!(mini(&a), mini(&b));
        assert_ne!(mini(&a), mini(&c));
        assert_ne!(mini(&b), mini(&c));
    }

    #[test]
    fn absent_field_distinct_from_zero() {
        // A TCP packet with src port 0 and a bare ICMP packet must not
        // collide just because packed values happen to line up.
        let zero_port = FlowKey::extract(&PacketBuilder::tcp().tcp_src(0).tcp_dst(0).build());
        let mut no_ports = zero_port;
        no_ports.tcp_src = None;
        no_ports.tcp_dst = None;
        assert_ne!(mini(&zero_port), mini(&no_ports));
        assert_ne!(mini(&zero_port).hash(), mini(&no_ports).hash());
    }

    #[test]
    fn every_optional_field_participates() {
        let base = FlowKey::extract(&PacketBuilder::tcp().tcp_dst(80).build());
        for field in [
            openflow::Field::VlanVid,
            openflow::Field::Ipv6Src,
            openflow::Field::ArpTha,
            openflow::Field::Metadata,
        ] {
            let mut changed = base;
            changed.set(field, 0x7f);
            assert_ne!(mini(&base), mini(&changed), "{field:?}");
        }
    }

    #[test]
    fn hash_separates_nearby_flows() {
        // Same flow → same hash (determinism); close-by flows → different
        // hashes in practice (no cross-flow grouping in typical bursts).
        let a = FlowKey::extract(&PacketBuilder::tcp().tcp_dst(80).tcp_src(9).build());
        let a2 = FlowKey::extract(&PacketBuilder::tcp().tcp_dst(80).tcp_src(9).build());
        let b = FlowKey::extract(&PacketBuilder::tcp().tcp_dst(80).tcp_src(10).build());
        let c = FlowKey::extract(&PacketBuilder::udp().udp_dst(80).udp_src(9).build());
        assert_eq!(mini(&a).hash(), mini(&a2).hash());
        assert_ne!(mini(&a).hash(), mini(&b).hash());
        assert_ne!(mini(&a).hash(), mini(&c).hash());
    }

    #[test]
    fn words_are_found_by_field_whatever_the_packet_carries() {
        // Every field of `FlowKey::get`, read back through its packing bit,
        // on keys carrying different subsets (so ranks shift), including
        // both IPv6 addresses ahead of the L4 ports.
        let tcp = FlowKey::extract(&PacketBuilder::tcp().tcp_dst(80).tcp_src(9).build());
        let mut v6 = tcp;
        v6.ipv6_src = Some(0x1111_2222_3333_4444_5555_6666_7777_8888);
        v6.ipv6_dst = Some(u128::MAX);
        v6.vlan_vid = Some(7);
        let mut full = tcp;
        for field in openflow::Field::ALL {
            full.set(field, 0x5a5a);
        }
        for key in [tcp, v6, full] {
            let m = mini(&key);
            for field in openflow::Field::ALL {
                let want = key.get(field);
                let Some(bit) = packing_bit(field) else {
                    assert_eq!(want, None, "{field:?} is carried but has no bit");
                    continue;
                };
                assert_eq!(m.present() & 1 << bit != 0, want.is_some(), "{field:?}");
                let word = |half| {
                    let rank = WordRef::new(bit, half).rank(m.present());
                    rank.map_or(0, |rank| m.packed(rank))
                };
                let low = word(0);
                let high = if WIDE_BITS & 1 << bit != 0 {
                    word(1)
                } else {
                    0
                };
                let got = u128::from(low) | u128::from(high) << 64;
                assert_eq!(got, want.unwrap_or(0), "{field:?}");
            }
        }
    }

    #[test]
    fn fully_populated_key_fits() {
        // Populate every optional field through `set`; MINI_WORDS must hold
        // them all, IPv6 addresses two words each, without panicking.
        let mut key = FlowKey::extract(&PacketBuilder::tcp().build());
        for field in openflow::Field::ALL {
            key.set(field, 1);
        }
        let m = mini(&key);
        assert_eq!(m.present.count_ones(), MINI_FIELDS);
        assert_eq!(usize::from(m.n), MINI_WORDS);
    }

    #[test]
    fn ipv6_addresses_compare_both_words() {
        // Two addresses that differ only in the high or only in the low
        // word must not share a key.
        let base = FlowKey::extract(&PacketBuilder::tcp().build());
        let with = |v6: u128| FlowKey {
            ipv6_src: Some(v6),
            ..base
        };
        let low = 0x2001_0db8_u128;
        let keys = [with(low), with(low | (1 << 64)), with(low + 1)];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(mini(a), mini(b));
            }
        }
        assert_eq!(mini(&keys[1]), mini(&with(low | (1 << 64))));
    }
}
