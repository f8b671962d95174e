//! Matcher templates: one per OpenFlow match field.
//!
//! A matcher template is the paper's
//! `mov eax,[r13+0x10]; xor eax,ADDR; and eax,MASK; jne next` fragment: load
//! the field straight from the frame at the offset the parser template
//! recorded, compare against the key that was *patched into the code* at
//! specialization time, and fall through to the next flow entry on mismatch.
//! The crucial difference from the flow-cache architecture is that only the
//! fields the installed rules actually match on are ever loaded.

use openflow::field::{Field, FieldValue};
use pkt::parser::{ParsedHeaders, ProtoMask};

use crate::fastpath::{FieldLoad, KeyLoader, KeyPart, Layer, LoadSource};

/// Per-packet register state that is not part of the frame: the ingress port
/// and the pipeline metadata register (the paper keeps these in CPU
/// registers, hence the name).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Regs {
    /// Ingress port of the packet.
    pub in_port: u32,
    /// OpenFlow metadata register, written by `WriteMetadata`.
    pub metadata: u64,
    /// Tunnel id metadata.
    pub tunnel_id: u64,
}

/// Protocol-presence bits a match on `field` requires, used to build the
/// per-entry prologue check (`mov eax,IP|TCP; or eax,r15d; cmp eax,r15d`).
pub fn required_protocols(field: Field) -> ProtoMask {
    match field {
        Field::InPort | Field::InPhyPort | Field::Metadata | Field::TunnelId => ProtoMask::NONE,
        Field::EthDst | Field::EthSrc | Field::EthType => ProtoMask::ETH,
        Field::VlanVid | Field::VlanPcp => ProtoMask::VLAN,
        Field::IpDscp | Field::IpEcn | Field::IpProto | Field::Ipv4Src | Field::Ipv4Dst => {
            ProtoMask::IPV4
        }
        Field::Ipv6Src
        | Field::Ipv6Dst
        | Field::Ipv6Flabel
        | Field::Ipv6Exthdr
        | Field::Ipv6NdTarget
        | Field::Ipv6NdSll
        | Field::Ipv6NdTll => ProtoMask::IPV6,
        Field::ArpOp | Field::ArpSpa | Field::ArpTpa | Field::ArpSha | Field::ArpTha => {
            ProtoMask::ARP
        }
        Field::TcpSrc | Field::TcpDst => ProtoMask::TCP,
        Field::UdpSrc | Field::UdpDst => ProtoMask::UDP,
        Field::SctpSrc | Field::SctpDst => ProtoMask::NONE,
        Field::Icmpv4Type | Field::Icmpv4Code => ProtoMask::ICMP,
        Field::Icmpv6Type | Field::Icmpv6Code => ProtoMask::IPV6,
        Field::MplsLabel | Field::MplsTc | Field::MplsBos | Field::PbbIsid => ProtoMask::ETH,
    }
}

impl FieldLoad {
    /// Resolves where `field` lives — layer base, byte offset and width in
    /// the frame, or a register / parser-recorded value — once, at
    /// specialization time. This is the single table of field locations;
    /// matchers, hash keys and LPM keys all load through it.
    pub fn for_field(field: Field) -> FieldLoad {
        let frame = |layer, offset, len, need| (LoadSource::Frame { layer, offset, len }, need);
        let (source, need) = match field {
            Field::InPort | Field::InPhyPort => (LoadSource::InPort, ProtoMask::NONE),
            Field::Metadata => (LoadSource::Metadata, ProtoMask::NONE),
            Field::TunnelId => (LoadSource::TunnelId, ProtoMask::NONE),
            Field::EthDst => frame(Layer::L2, 0, 6, ProtoMask::NONE),
            Field::EthSrc => frame(Layer::L2, 6, 6, ProtoMask::NONE),
            Field::EthType => (LoadSource::EthType, ProtoMask::NONE),
            Field::VlanVid => (LoadSource::VlanVid, ProtoMask::VLAN),
            Field::VlanPcp => (LoadSource::VlanPcp, ProtoMask::VLAN),
            Field::IpDscp | Field::IpEcn => frame(Layer::L3, 1, 1, ProtoMask::IPV4),
            Field::IpProto => (LoadSource::IpProto, ProtoMask::IPV4 | ProtoMask::IPV6),
            Field::Ipv4Src => frame(Layer::L3, 12, 4, ProtoMask::IPV4),
            Field::Ipv4Dst => frame(Layer::L3, 16, 4, ProtoMask::IPV4),
            Field::Ipv6Src => frame(Layer::L3, 8, 16, ProtoMask::IPV6),
            Field::Ipv6Dst => frame(Layer::L3, 24, 16, ProtoMask::IPV6),
            Field::TcpSrc => frame(Layer::L4, 0, 2, ProtoMask::TCP),
            Field::TcpDst => frame(Layer::L4, 2, 2, ProtoMask::TCP),
            Field::UdpSrc => frame(Layer::L4, 0, 2, ProtoMask::UDP),
            Field::UdpDst => frame(Layer::L4, 2, 2, ProtoMask::UDP),
            Field::Icmpv4Type => frame(Layer::L4, 0, 1, ProtoMask::ICMP),
            Field::Icmpv4Code => frame(Layer::L4, 1, 1, ProtoMask::ICMP),
            Field::ArpOp => frame(Layer::L3, 6, 2, ProtoMask::ARP),
            Field::ArpSha => frame(Layer::L3, 8, 6, ProtoMask::ARP),
            Field::ArpSpa => frame(Layer::L3, 14, 4, ProtoMask::ARP),
            Field::ArpTha => frame(Layer::L3, 18, 6, ProtoMask::ARP),
            Field::ArpTpa => frame(Layer::L3, 24, 4, ProtoMask::ARP),
            // Fields the prototype does not model in the frame.
            Field::MplsLabel
            | Field::MplsTc
            | Field::MplsBos
            | Field::PbbIsid
            | Field::Ipv6Flabel
            | Field::Ipv6NdTarget
            | Field::Ipv6NdSll
            | Field::Ipv6NdTll
            | Field::Ipv6Exthdr
            | Field::SctpSrc
            | Field::SctpDst
            | Field::Icmpv6Type
            | Field::Icmpv6Code => (LoadSource::Unmodelled, ProtoMask::NONE),
        };
        let (shift, keep) = match field {
            Field::IpDscp => (2, 0x3f),
            Field::IpEcn => (0, 0x03),
            _ => (0, u64::MAX),
        };
        FieldLoad {
            source,
            need,
            shift,
            keep,
        }
    }
}

/// Loads the raw value of `field` from the frame (or the register file),
/// using the offsets recorded by the parser template. Returns `None` when the
/// field's protocol layer is absent. Resolves the field's location on every
/// call — compiled templates hold a pre-resolved [`FieldLoad`] instead.
pub fn load_field(
    field: Field,
    frame: &[u8],
    headers: &ParsedHeaders,
    regs: &Regs,
) -> Option<FieldValue> {
    FieldLoad::for_field(field).load(frame, headers, regs)
}

impl KeyLoader {
    /// Specialises the key builder for a compound key over `fields` (with
    /// their global masks), most significant field first.
    pub(crate) fn for_fields(fields: &[(Field, FieldValue)]) -> KeyLoader {
        KeyLoader {
            parts: fields
                .iter()
                .map(|(field, mask)| KeyPart {
                    load: FieldLoad::for_field(*field),
                    width: field.width_bits(),
                    mask: *mask,
                })
                .collect(),
            required: fields.iter().fold(ProtoMask::NONE, |required, (field, _)| {
                required.or(required_protocols(*field))
            }),
            narrow: fields.iter().map(|(f, _)| f.width_bits()).sum::<u32>() <= 64,
        }
    }
}

/// A specialised matcher: the field to load plus the key and mask that were
/// patched in at template-specialization time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledMatcher {
    /// Field the matcher loads.
    pub field: Field,
    /// Patched key (pre-masked).
    pub key: FieldValue,
    /// Patched mask.
    pub mask: FieldValue,
    /// The pre-resolved load of `field`.
    load: FieldLoad,
}

impl CompiledMatcher {
    /// Specialises a matcher template with a key and mask.
    pub fn new(field: Field, key: FieldValue, mask: FieldValue) -> Self {
        CompiledMatcher {
            field,
            key: key & mask,
            mask,
            load: FieldLoad::for_field(field),
        }
    }

    /// Runs the matcher against a packet.
    #[inline]
    pub fn matches(&self, frame: &[u8], headers: &ParsedHeaders, regs: &Regs) -> bool {
        self.load
            .load(frame, headers, regs)
            .is_some_and(|value| value & self.mask == self.key)
    }

    /// Renders the matcher in the paper's macro notation, e.g.
    /// `IP_DST_ADDR_MATCHER(0xc0000201, 0xffffff00)`.
    pub fn disassemble(&self) -> String {
        let name = format!("{:?}", self.field)
            .chars()
            .flat_map(|c| {
                if c.is_uppercase() {
                    vec!['_', c]
                } else {
                    vec![c.to_ascii_uppercase()]
                }
            })
            .collect::<String>()
            .trim_start_matches('_')
            .to_string();
        if self.mask == self.field.full_mask() {
            format!("    {name}_MATCHER({:#x})", self.key)
        } else {
            format!("    {name}_MATCHER({:#x}, {:#x})", self.key, self.mask)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkt::builder::PacketBuilder;
    use pkt::parser::{parse, ParseDepth};

    fn packet_headers_regs(pkt: &pkt::Packet) -> (ParsedHeaders, Regs) {
        let headers = parse(pkt.data(), ParseDepth::L4);
        let regs = Regs {
            in_port: pkt.in_port,
            ..Default::default()
        };
        (headers, regs)
    }

    #[test]
    fn load_field_agrees_with_flow_key_extraction() {
        let pkt = PacketBuilder::tcp()
            .eth_src([2, 0, 0, 0, 0, 7])
            .ipv4_src([10, 1, 2, 3])
            .ipv4_dst([192, 0, 2, 9])
            .tcp_src(4000)
            .tcp_dst(443)
            .in_port(5)
            .build();
        let key = openflow::FlowKey::extract(&pkt);
        let (headers, regs) = packet_headers_regs(&pkt);
        for field in [
            Field::InPort,
            Field::EthDst,
            Field::EthSrc,
            Field::EthType,
            Field::IpProto,
            Field::Ipv4Src,
            Field::Ipv4Dst,
            Field::TcpSrc,
            Field::TcpDst,
        ] {
            assert_eq!(
                load_field(field, pkt.data(), &headers, &regs),
                key.get(field),
                "field {field:?}"
            );
        }
        // Fields absent from a TCP packet.
        assert_eq!(load_field(Field::UdpDst, pkt.data(), &headers, &regs), None);
        assert_eq!(
            load_field(Field::VlanVid, pkt.data(), &headers, &regs),
            None
        );
        assert_eq!(load_field(Field::ArpOp, pkt.data(), &headers, &regs), None);
    }

    #[test]
    fn vlan_and_arp_loads() {
        let tagged = PacketBuilder::udp().vlan(42).udp_dst(53).build();
        let (headers, regs) = packet_headers_regs(&tagged);
        assert_eq!(
            load_field(Field::VlanVid, tagged.data(), &headers, &regs),
            Some(42)
        );
        assert_eq!(
            load_field(Field::UdpDst, tagged.data(), &headers, &regs),
            Some(53)
        );

        let arp = PacketBuilder::arp_request(
            pkt::MacAddr::new([2, 0, 0, 0, 0, 1]),
            pkt::Ipv4Addr4::new(10, 0, 0, 1),
            pkt::Ipv4Addr4::new(10, 0, 0, 2),
        );
        let headers = parse(arp.data(), ParseDepth::L3);
        let regs = Regs::default();
        assert_eq!(
            load_field(Field::ArpOp, arp.data(), &headers, &regs),
            Some(1)
        );
        assert_eq!(
            load_field(Field::ArpTpa, arp.data(), &headers, &regs),
            Some(FieldValue::from(pkt::Ipv4Addr4::new(10, 0, 0, 2).to_u32()))
        );
    }

    #[test]
    fn matcher_exact_and_masked() {
        let pkt = PacketBuilder::tcp()
            .ipv4_dst([192, 0, 2, 77])
            .tcp_dst(80)
            .build();
        let (headers, regs) = packet_headers_regs(&pkt);

        let exact = CompiledMatcher::new(Field::TcpDst, 80, Field::TcpDst.full_mask());
        assert!(exact.matches(pkt.data(), &headers, &regs));
        let wrong = CompiledMatcher::new(Field::TcpDst, 81, Field::TcpDst.full_mask());
        assert!(!wrong.matches(pkt.data(), &headers, &regs));

        let prefix = CompiledMatcher::new(Field::Ipv4Dst, 0xc000_0200, 0xffff_ff00);
        assert!(prefix.matches(pkt.data(), &headers, &regs));
        let other_net = CompiledMatcher::new(Field::Ipv4Dst, 0xc000_0300, 0xffff_ff00);
        assert!(!other_net.matches(pkt.data(), &headers, &regs));

        // Matching a UDP field on a TCP packet fails rather than panics.
        let udp = CompiledMatcher::new(Field::UdpDst, 80, Field::UdpDst.full_mask());
        assert!(!udp.matches(pkt.data(), &headers, &regs));
    }

    #[test]
    fn required_protocol_masks() {
        assert_eq!(required_protocols(Field::TcpDst), ProtoMask::TCP);
        assert_eq!(required_protocols(Field::Ipv4Dst), ProtoMask::IPV4);
        assert_eq!(required_protocols(Field::InPort), ProtoMask::NONE);
        assert_eq!(required_protocols(Field::VlanVid), ProtoMask::VLAN);
    }

    #[test]
    fn disassembly_shows_patched_keys() {
        let m = CompiledMatcher::new(Field::Ipv4Dst, 0xc0000201, 0xffffff00);
        let text = m.disassemble();
        assert!(text.contains("IPV4_DST_MATCHER"), "{text}");
        assert!(text.contains("0xc0000200"));
        assert!(text.contains("0xffffff00"));
    }
}
