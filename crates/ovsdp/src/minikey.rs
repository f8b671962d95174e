//! Miniflow-style compact flow keys.
//!
//! OVS does not hash `struct flow` (large, mostly-empty) on the fast path; it
//! builds a `miniflow` — a presence bitmap plus the packed `u64` words of only
//! the fields the packet actually carries — and computes the key's hash once,
//! during extraction. [`MiniKey`] is that structure for this reproduction:
//! the microflow cache keys on it, so an EMC probe is one precomputed-hash
//! index plus one compact compare, instead of SipHashing a 27-field
//! [`FlowKey`] per lookup.
//!
//! Every present field packs as one `u64` word (an IPv6 address as two), so
//! a key is 240 bytes whatever it carries and an EMC slot with its program
//! pointer is 248. The key stays exact: the presence bitmap separates an absent field from a
//! zero one, and equality compares the bitmap and every packed word.

use netdev::fx_mix;
use openflow::FlowKey;

/// Number of [`FlowKey`] fields a [`MiniKey`] can mark present: the six
/// always-present pipeline/L2 fields plus the twenty optional ones, in a
/// fixed order. Real packets populate far fewer (a VLAN TCP/IPv4 frame packs
/// 15), but keys mutated through `FlowKey::set` can populate any subset.
const MINI_FIELDS: u32 = 26;

/// Number of `u64` words a [`MiniKey`] can pack: one per field, plus the
/// second word of each of the two IPv6 addresses.
const MINI_WORDS: usize = MINI_FIELDS as usize + 2;

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

    /// A cheap grouping hash over the main flow discriminators (ports,
    /// addresses, MACs, protocol, VLAN). Used by the batch path to group a
    /// burst by flow when the microflow cache (and therefore the full
    /// `MiniKey`) is not needed. Fields left out of the hash and hash
    /// collisions only cost a full [`FlowKey`] comparison — grouping always
    /// confirms equality — never a wrong answer.
    #[inline]
    pub fn group_hash(key: &FlowKey) -> u64 {
        #[inline]
        fn opt8(v: Option<u8>) -> u64 {
            match v {
                Some(x) => 0x100 | u64::from(x),
                None => 0,
            }
        }
        #[inline]
        fn opt16(v: Option<u16>) -> u64 {
            match v {
                Some(x) => 0x1_0000 | u64::from(x),
                None => 0,
            }
        }
        #[inline]
        fn opt32(v: Option<u32>) -> u64 {
            match v {
                Some(x) => 0x1_0000_0000 | u64::from(x),
                None => 0,
            }
        }
        let mut lane0 = fx_mix(0, u64::from(key.in_port) | (u64::from(key.eth_type) << 32));
        let mut lane1 = fx_mix(0x9e37_79b9_7f4a_7c15, key.eth_dst);
        lane0 = fx_mix(lane0, key.eth_src);
        lane1 = fx_mix(lane1, opt32(key.ipv4_src) | (opt16(key.vlan_vid) << 40));
        lane0 = fx_mix(lane0, opt32(key.ipv4_dst) | (opt8(key.ip_proto) << 40));
        lane1 = fx_mix(
            lane1,
            opt16(key.tcp_src) | (opt16(key.tcp_dst) << 20) | (opt8(key.icmpv4_type) << 44),
        );
        lane0 = fx_mix(
            lane0,
            opt16(key.udp_src) | (opt16(key.udp_dst) << 20) | (opt8(key.ip_dscp) << 44),
        );
        // Rarely-present discriminators join only when present.
        if key.metadata != 0 || key.tunnel_id != 0 {
            lane1 = fx_mix(lane1, key.metadata ^ key.tunnel_id.rotate_left(23));
        }
        if let Some(v6) = key.ipv6_src {
            lane0 = fx_mix(lane0, v6 as u64 ^ (v6 >> 64) as u64);
        }
        if let Some(v6) = key.ipv6_dst {
            lane1 = fx_mix(lane1, v6 as u64 ^ (v6 >> 64) as u64);
        }
        if key.arp_op.is_some() {
            lane0 = fx_mix(lane0, opt16(key.arp_op) | (opt32(key.arp_spa) << 17));
            lane1 = fx_mix(lane1, opt32(key.arp_tpa) ^ key.arp_sha.unwrap_or(0));
        }
        fx_mix(lane0, lane1)
    }

    /// The precomputed key hash.
    #[inline]
    pub fn hash(&self) -> u64 {
        self.hash
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
    fn group_hash_separates_nearby_flows() {
        // Same flow → same hash (determinism); close-by flows → different
        // hashes in practice (no cross-flow grouping in typical bursts).
        let a = FlowKey::extract(&PacketBuilder::tcp().tcp_dst(80).tcp_src(9).build());
        let a2 = FlowKey::extract(&PacketBuilder::tcp().tcp_dst(80).tcp_src(9).build());
        let b = FlowKey::extract(&PacketBuilder::tcp().tcp_dst(80).tcp_src(10).build());
        let c = FlowKey::extract(&PacketBuilder::udp().udp_dst(80).udp_src(9).build());
        assert_eq!(MiniKey::group_hash(&a), MiniKey::group_hash(&a2));
        assert_ne!(MiniKey::group_hash(&a), MiniKey::group_hash(&b));
        assert_ne!(MiniKey::group_hash(&a), MiniKey::group_hash(&c));
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
