//! Layered packet parsing.
//!
//! This module is the Rust analogue of the ESWITCH *parser templates* (§3.1 of
//! the paper): a packet is parsed incrementally, layer by layer, into a
//! [`ParsedHeaders`] record holding a protocol bitmask (the paper stores it in
//! `r15`) and the byte offset of each protocol layer (`r12`–`r14`). Field
//! values are *not* decoded eagerly; matcher templates load them straight from
//! the frame through the offset accessors, exactly as the generated machine
//! code would (`mov eax, [r13+0x10]`).

use crate::ethernet::{EtherType, ETHERNET_HEADER_LEN};
use crate::ipv4::{IpProto, Ipv4Addr4};
use crate::mac::MacAddr;
use crate::vlan::VLAN_TAG_LEN;

/// Bitmask of protocol headers found in a packet.
///
/// Mirrors the "protocol bitmask in `r15`" of the parser template: the direct
/// code template's prologue checks this mask before touching any field
/// (`mov eax, IP|TCP; or eax, r15d; cmp eax, r15d`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct ProtoMask(pub u32);

impl ProtoMask {
    /// Ethernet header present (always set for a parsed packet).
    pub const ETH: ProtoMask = ProtoMask(1 << 0);
    /// One or more 802.1Q tags present.
    pub const VLAN: ProtoMask = ProtoMask(1 << 1);
    /// IPv4 header present.
    pub const IPV4: ProtoMask = ProtoMask(1 << 2);
    /// IPv6 header present.
    pub const IPV6: ProtoMask = ProtoMask(1 << 3);
    /// ARP body present.
    pub const ARP: ProtoMask = ProtoMask(1 << 4);
    /// TCP header present.
    pub const TCP: ProtoMask = ProtoMask(1 << 5);
    /// UDP header present.
    pub const UDP: ProtoMask = ProtoMask(1 << 6);
    /// ICMP header present.
    pub const ICMP: ProtoMask = ProtoMask(1 << 7);

    /// The empty mask.
    pub const NONE: ProtoMask = ProtoMask(0);

    /// Returns the union of two masks.
    pub const fn or(self, other: ProtoMask) -> ProtoMask {
        ProtoMask(self.0 | other.0)
    }

    /// True if every bit of `required` is present in `self`.
    /// This is the template prologue check.
    pub const fn contains(self, required: ProtoMask) -> bool {
        self.0 & required.0 == required.0
    }

    /// True if any bit of `other` is present in `self`.
    pub const fn intersects(self, other: ProtoMask) -> bool {
        self.0 & other.0 != 0
    }
}

impl std::ops::BitOr for ProtoMask {
    type Output = ProtoMask;
    fn bitor(self, rhs: ProtoMask) -> ProtoMask {
        self.or(rhs)
    }
}

impl std::ops::BitOrAssign for ProtoMask {
    fn bitor_assign(&mut self, rhs: ProtoMask) {
        self.0 |= rhs.0;
    }
}

/// How deep to parse.
///
/// The paper's parser templates are composed incrementally: pure L2 MAC
/// forwarding never pays for L3/L4 parsing, L3 routing skips L4, and so on.
/// The ESWITCH compiler picks the depth from the deepest field any table in
/// the pipeline matches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ParseDepth {
    /// Ethernet + VLAN tags only.
    L2,
    /// Plus IPv4/IPv6/ARP network headers.
    L3,
    /// Plus TCP/UDP/ICMP transport headers.
    L4,
}

/// Result of parsing a frame: the protocol bitmask plus per-layer offsets.
///
/// Offsets are `u16` because frames are bounded by [`crate::MAX_FRAME_LEN`];
/// `u16::MAX` marks "layer absent" internally (checked through the mask).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParsedHeaders {
    /// Protocol presence bitmask (the template prologue operand).
    pub mask: ProtoMask,
    /// Offset of the Ethernet header (always 0 for a full frame).
    pub l2_offset: u16,
    /// Offset of the L3 header (IPv4/IPv6/ARP), if present.
    pub l3_offset: u16,
    /// Offset of the L4 header (TCP/UDP/ICMP), if present.
    pub l4_offset: u16,
    /// VLAN VID of the outermost tag, if present.
    pub vlan_vid: u16,
    /// VLAN PCP of the outermost tag, if present.
    pub vlan_pcp: u8,
    /// Raw EtherType of the payload after any VLAN tags.
    pub ethertype: u16,
    /// IP protocol number, if an IPv4/IPv6 header is present.
    pub ip_proto: u8,
    /// How deep the parse went (parsing to L3 leaves L4 fields unset even if
    /// a transport header exists in the frame).
    pub depth_parsed: ParseDepthTag,
}

/// Internal record of how deep [`parse`] actually went; distinct from
/// [`ParseDepth`] so `ParsedHeaders` can derive `Default`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParseDepthTag {
    /// Nothing parsed yet.
    #[default]
    None,
    /// Parsed through L2.
    L2,
    /// Parsed through L3.
    L3,
    /// Parsed through L4.
    L4,
}

/// The network-layer bits of a [`ProtoMask`].
const L3_PROTOS: ProtoMask = ProtoMask::IPV4.or(ProtoMask::IPV6).or(ProtoMask::ARP);
/// The transport-layer bits of a [`ProtoMask`].
const L4_PROTOS: ProtoMask = ProtoMask::TCP.or(ProtoMask::UDP).or(ProtoMask::ICMP);

impl ParsedHeaders {
    /// True if an IPv4 header was found.
    pub fn has_ipv4(&self) -> bool {
        self.mask.contains(ProtoMask::IPV4)
    }

    /// True if a TCP header was found.
    pub fn has_tcp(&self) -> bool {
        self.mask.contains(ProtoMask::TCP)
    }

    /// True if a UDP header was found.
    pub fn has_udp(&self) -> bool {
        self.mask.contains(ProtoMask::UDP)
    }

    /// True if at least one VLAN tag was found.
    pub fn has_vlan(&self) -> bool {
        self.mask.contains(ProtoMask::VLAN)
    }

    /// This record cut down to `depth`: equal to `parse(frame, depth)` for
    /// the frame `self` was parsed from at `depth` or deeper. It is how a
    /// consumer compiled for a shallow parser template uses the RX stage's L4
    /// stamp and still sees exactly the headers its own parser would produce.
    #[must_use]
    pub fn at_depth(mut self, depth: ParseDepth) -> ParsedHeaders {
        if depth < ParseDepth::L4 && self.depth_parsed == ParseDepthTag::L4 {
            self.mask.0 &= !L4_PROTOS.0;
            self.l4_offset = 0;
            self.depth_parsed = ParseDepthTag::L3;
        }
        if depth < ParseDepth::L3 && self.depth_parsed == ParseDepthTag::L3 {
            self.mask.0 &= !L3_PROTOS.0;
            self.l3_offset = 0;
            self.ip_proto = 0;
            self.depth_parsed = ParseDepthTag::L2;
        }
        self
    }

    /// Updates the record after the outermost VLAN tag was popped from the
    /// frame it described (`frame` is the frame *after* the pop), so that it
    /// equals `parse(frame, depth)`. When that was the only tag, every layer
    /// above L2 simply sits one tag lower — all parser length checks are
    /// relative to the layer offsets — so the offsets are shifted and nothing
    /// is re-parsed; a frame that still carries a tag (QinQ) is re-parsed.
    pub fn vlan_popped(&mut self, frame: &[u8], depth: ParseDepth) {
        if !self.has_vlan() || outer_ethertype_is_vlan(frame) {
            *self = parse(frame, depth);
            return;
        }
        self.mask = ProtoMask(self.mask.0 & !ProtoMask::VLAN.0);
        self.vlan_vid = 0;
        self.vlan_pcp = 0;
        self.shift_upper_layers(|offset| offset - VLAN_TAG_LEN as u16);
    }

    /// Updates the record after a VLAN tag was pushed as the outermost tag of
    /// the frame it described (`frame` is the frame *after* the push), so
    /// that it equals `parse(frame, depth)`. The counterpart of
    /// [`ParsedHeaders::vlan_popped`]: a previously untagged frame only has
    /// its upper layers moved up by one tag; stacking onto an existing tag
    /// (or pushing a non-VLAN TPID) is re-parsed.
    pub fn vlan_pushed(&mut self, frame: &[u8], depth: ParseDepth) {
        let was_untagged = self.mask.contains(ProtoMask::ETH) && !self.has_vlan();
        let tci = frame.get(ETHERNET_HEADER_LEN..ETHERNET_HEADER_LEN + 2);
        let (true, true, Some(tci)) = (was_untagged, outer_ethertype_is_vlan(frame), tci) else {
            *self = parse(frame, depth);
            return;
        };
        let tci = u16::from_be_bytes([tci[0], tci[1]]);
        self.mask |= ProtoMask::VLAN;
        self.vlan_vid = tci & 0x0fff;
        self.vlan_pcp = (tci >> 13) as u8;
        self.shift_upper_layers(|offset| offset + VLAN_TAG_LEN as u16);
    }

    /// Moves the offsets of the layers that are present (absent layers keep
    /// their default offset, exactly as `parse` leaves them).
    fn shift_upper_layers(&mut self, shift: impl Fn(u16) -> u16) {
        if self.mask.intersects(L3_PROTOS) {
            self.l3_offset = shift(self.l3_offset);
        }
        if self.mask.intersects(L4_PROTOS) {
            self.l4_offset = shift(self.l4_offset);
        }
    }

    /// Destination MAC, loaded from the frame.
    pub fn eth_dst(&self, frame: &[u8]) -> Option<MacAddr> {
        let off = usize::from(self.l2_offset);
        frame.get(off..off + 6).map(MacAddr::from_slice)
    }

    /// Source MAC, loaded from the frame.
    pub fn eth_src(&self, frame: &[u8]) -> Option<MacAddr> {
        let off = usize::from(self.l2_offset) + 6;
        frame.get(off..off + 6).map(MacAddr::from_slice)
    }

    /// IPv4 source address, loaded from the frame.
    pub fn ipv4_src(&self, frame: &[u8]) -> Option<Ipv4Addr4> {
        if !self.has_ipv4() {
            return None;
        }
        crate::ipv4::ip_src_at(frame, usize::from(self.l3_offset))
    }

    /// IPv4 destination address, loaded from the frame.
    pub fn ipv4_dst(&self, frame: &[u8]) -> Option<Ipv4Addr4> {
        if !self.has_ipv4() {
            return None;
        }
        crate::ipv4::ip_dst_at(frame, usize::from(self.l3_offset))
    }

    /// TCP destination port, loaded from the frame.
    pub fn tcp_dst(&self, frame: &[u8]) -> Option<u16> {
        if !self.has_tcp() {
            return None;
        }
        crate::tcp::tcp_dst_at(frame, usize::from(self.l4_offset))
    }

    /// TCP source port, loaded from the frame.
    pub fn tcp_src(&self, frame: &[u8]) -> Option<u16> {
        if !self.has_tcp() {
            return None;
        }
        crate::tcp::tcp_src_at(frame, usize::from(self.l4_offset))
    }

    /// UDP destination port, loaded from the frame.
    pub fn udp_dst(&self, frame: &[u8]) -> Option<u16> {
        if !self.has_udp() {
            return None;
        }
        crate::udp::udp_dst_at(frame, usize::from(self.l4_offset))
    }

    /// UDP source port, loaded from the frame.
    pub fn udp_src(&self, frame: &[u8]) -> Option<u16> {
        if !self.has_udp() {
            return None;
        }
        crate::udp::udp_src_at(frame, usize::from(self.l4_offset))
    }

    /// Generic L4 destination port (TCP or UDP).
    pub fn l4_dst(&self, frame: &[u8]) -> Option<u16> {
        if self.has_tcp() {
            self.tcp_dst(frame)
        } else if self.has_udp() {
            self.udp_dst(frame)
        } else {
            None
        }
    }

    /// Generic L4 source port (TCP or UDP).
    pub fn l4_src(&self, frame: &[u8]) -> Option<u16> {
        if self.has_tcp() {
            self.tcp_src(frame)
        } else if self.has_udp() {
            self.udp_src(frame)
        } else {
            None
        }
    }
}

/// True when the frame's outer EtherType (bytes 12–13) announces a VLAN tag.
fn outer_ethertype_is_vlan(frame: &[u8]) -> bool {
    frame
        .get(12..ETHERNET_HEADER_LEN)
        .is_some_and(|t| EtherType::from_u16(u16::from_be_bytes([t[0], t[1]])).is_vlan())
}

/// L2 parser template: records the Ethernet offset, walks any VLAN tags and
/// notes the effective EtherType.
fn parse_l2(frame: &[u8], out: &mut ParsedHeaders) -> Option<usize> {
    if frame.len() < ETHERNET_HEADER_LEN {
        return None;
    }
    out.mask |= ProtoMask::ETH;
    out.l2_offset = 0;
    let mut ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    let mut offset = ETHERNET_HEADER_LEN;
    // Walk at most two tags (802.1ad QinQ outer + 802.1Q inner).
    for _ in 0..2 {
        if !EtherType::from_u16(ethertype).is_vlan() {
            break;
        }
        let tag = frame.get(offset..offset + VLAN_TAG_LEN)?;
        let tci = u16::from_be_bytes([tag[0], tag[1]]);
        if !out.mask.contains(ProtoMask::VLAN) {
            out.vlan_vid = tci & 0x0fff;
            out.vlan_pcp = (tci >> 13) as u8;
        }
        out.mask |= ProtoMask::VLAN;
        ethertype = u16::from_be_bytes([tag[2], tag[3]]);
        offset += VLAN_TAG_LEN;
    }
    out.ethertype = ethertype;
    out.depth_parsed = ParseDepthTag::L2;
    Some(offset)
}

/// L3 parser template: composes the L2 parser and records the network-layer
/// offset and protocol.
fn parse_l3(frame: &[u8], out: &mut ParsedHeaders) -> Option<(usize, IpProto)> {
    let l3_offset = parse_l2(frame, out)?;
    out.depth_parsed = ParseDepthTag::L3;
    match EtherType::from_u16(out.ethertype) {
        EtherType::Ipv4 => {
            let hdr = frame.get(l3_offset..)?;
            if hdr.len() < crate::ipv4::IPV4_MIN_HEADER_LEN || hdr[0] >> 4 != 4 {
                return None;
            }
            let ihl = usize::from(hdr[0] & 0x0f) * 4;
            if ihl < crate::ipv4::IPV4_MIN_HEADER_LEN || hdr.len() < ihl {
                return None;
            }
            out.mask |= ProtoMask::IPV4;
            out.l3_offset = l3_offset as u16;
            out.ip_proto = hdr[9];
            Some((l3_offset + ihl, IpProto::from_u8(hdr[9])))
        }
        EtherType::Ipv6 => {
            let hdr = frame.get(l3_offset..)?;
            if hdr.len() < crate::ipv6::IPV6_HEADER_LEN || hdr[0] >> 4 != 6 {
                return None;
            }
            out.mask |= ProtoMask::IPV6;
            out.l3_offset = l3_offset as u16;
            out.ip_proto = hdr[6];
            Some((
                l3_offset + crate::ipv6::IPV6_HEADER_LEN,
                IpProto::from_u8(hdr[6]),
            ))
        }
        EtherType::Arp => {
            if frame.len() >= l3_offset + crate::arp::ARP_LEN {
                out.mask |= ProtoMask::ARP;
                out.l3_offset = l3_offset as u16;
            }
            None
        }
        _ => None,
    }
}

/// L4 parser template: composes L2 and L3 and records the transport offset.
fn parse_l4(frame: &[u8], out: &mut ParsedHeaders) {
    let Some((l4_offset, proto)) = parse_l3(frame, out) else {
        return;
    };
    out.depth_parsed = ParseDepthTag::L4;
    match proto {
        IpProto::Tcp => {
            if frame.len() >= l4_offset + crate::tcp::TCP_MIN_HEADER_LEN {
                out.mask |= ProtoMask::TCP;
                out.l4_offset = l4_offset as u16;
            }
        }
        IpProto::Udp => {
            if frame.len() >= l4_offset + crate::udp::UDP_HEADER_LEN {
                out.mask |= ProtoMask::UDP;
                out.l4_offset = l4_offset as u16;
            }
        }
        IpProto::Icmp => {
            if frame.len() >= l4_offset + 4 {
                out.mask |= ProtoMask::ICMP;
                out.l4_offset = l4_offset as u16;
            }
        }
        IpProto::Other(_) => {}
    }
}

/// Parses a frame to the requested depth.
///
/// Never fails: malformed or truncated layers simply leave the corresponding
/// bits unset in the protocol mask, so match templates requiring those layers
/// fall through to the next flow entry — the same behaviour as the generated
/// code of the paper.
pub fn parse(frame: &[u8], depth: ParseDepth) -> ParsedHeaders {
    let mut out = ParsedHeaders::default();
    match depth {
        ParseDepth::L2 => {
            let _ = parse_l2(frame, &mut out);
        }
        ParseDepth::L3 => {
            let _ = parse_l3(frame, &mut out);
        }
        ParseDepth::L4 => parse_l4(frame, &mut out),
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::PacketBuilder;

    #[test]
    fn l2_only_parse_skips_upper_layers() {
        let pkt = PacketBuilder::tcp().tcp_dst(443).build();
        let h = parse(pkt.data(), ParseDepth::L2);
        assert!(h.mask.contains(ProtoMask::ETH));
        assert!(!h.has_ipv4());
        assert!(!h.has_tcp());
        assert_eq!(h.ethertype, 0x0800);
        assert_eq!(h.depth_parsed, ParseDepthTag::L2);
    }

    #[test]
    fn l4_parse_exposes_ports() {
        let pkt = PacketBuilder::tcp()
            .ipv4_src([10, 1, 2, 3])
            .ipv4_dst([192, 0, 2, 1])
            .tcp_src(50000)
            .tcp_dst(80)
            .build();
        let h = parse(pkt.data(), ParseDepth::L4);
        assert!(h.has_ipv4() && h.has_tcp());
        assert_eq!(h.ipv4_dst(pkt.data()).unwrap().to_string(), "192.0.2.1");
        assert_eq!(h.tcp_dst(pkt.data()), Some(80));
        assert_eq!(h.tcp_src(pkt.data()), Some(50000));
        assert_eq!(h.l4_dst(pkt.data()), Some(80));
    }

    #[test]
    fn vlan_tagged_udp() {
        let pkt = PacketBuilder::udp().vlan(3).udp_dst(4739).build();
        let h = parse(pkt.data(), ParseDepth::L4);
        assert!(h.has_vlan());
        assert_eq!(h.vlan_vid, 3);
        assert!(h.has_udp());
        assert_eq!(h.udp_dst(pkt.data()), Some(4739));
        // l3 offset shifted by the 4-byte tag
        assert_eq!(h.l3_offset, 18);
    }

    #[test]
    fn truncated_ip_header_clears_upper_bits() {
        let pkt = PacketBuilder::tcp().build();
        let frame = &pkt.data()[..20]; // cut inside the IP header
        let h = parse(frame, ParseDepth::L4);
        assert!(h.mask.contains(ProtoMask::ETH));
        assert!(!h.has_ipv4());
        assert!(!h.has_tcp());
    }

    #[test]
    fn non_ip_frame_has_no_l3() {
        let mut frame = vec![0u8; 60];
        frame[12] = 0x88;
        frame[13] = 0xb5; // local experimental EtherType
        let h = parse(&frame, ParseDepth::L4);
        assert!(h.mask.contains(ProtoMask::ETH));
        assert!(!h.has_ipv4());
        assert_eq!(h.ethertype, 0x88b5);
    }

    /// Prepends an outermost tag with the given TPID and TCI.
    fn tag(frame: &[u8], tpid: u16, tci: u16) -> Vec<u8> {
        let mut out = frame[..12].to_vec();
        out.extend_from_slice(&tpid.to_be_bytes());
        out.extend_from_slice(&tci.to_be_bytes());
        out.extend_from_slice(&frame[12..]);
        out
    }

    /// Frames no parse shortcut may get wrong: tagged / untagged TCP, UDP
    /// and ARP, QinQ and a triple tag (the parser walks two), frames cut
    /// inside the tag, the IP header and the L4 header.
    pub(crate) fn awkward_frames() -> Vec<Vec<u8>> {
        let tcp = PacketBuilder::tcp().tcp_dst(80).build().data().to_vec();
        let udp = PacketBuilder::udp().udp_dst(53).build().data().to_vec();
        let arp = PacketBuilder::arp_request(
            MacAddr::new([2, 0, 0, 0, 0, 1]),
            Ipv4Addr4::new(10, 0, 0, 1),
            Ipv4Addr4::new(10, 0, 0, 2),
        )
        .data()
        .to_vec();
        let mut frames = Vec::new();
        for base in [&tcp, &udp, &arp] {
            let single = tag(base, 0x8100, 0x6007);
            let qinq = tag(&single, 0x88a8, 9);
            let triple = tag(&qinq, 0x8100, 11);
            for f in [base.clone(), single, qinq, triple] {
                for cut in [f.len(), 16, 20, 30, 40, 52] {
                    frames.push(f[..cut.min(f.len())].to_vec());
                }
            }
        }
        frames
    }

    #[test]
    fn a_deeper_parse_cut_down_equals_the_shallower_parse() {
        use ParseDepth::{L2, L3, L4};
        for frame in &awkward_frames() {
            for (deep, shallow) in [(L4, L4), (L4, L3), (L4, L2), (L3, L3), (L3, L2), (L2, L2)] {
                let cut = parse(frame, deep).at_depth(shallow);
                assert_eq!(
                    cut,
                    parse(frame, shallow),
                    "{frame:02x?} {deep:?} to {shallow:?}"
                );
            }
        }
    }

    #[test]
    fn vlan_pop_and_push_updates_equal_a_fresh_parse() {
        let frames = awkward_frames();
        for frame in &frames {
            for depth in [ParseDepth::L2, ParseDepth::L3, ParseDepth::L4] {
                let before = parse(frame, depth);
                if before.has_vlan() {
                    let mut popped = frame[..12].to_vec();
                    popped.extend_from_slice(&frame[16..]);
                    let mut h = before;
                    h.vlan_popped(&popped, depth);
                    assert_eq!(h, parse(&popped, depth), "pop {frame:02x?} {depth:?}");
                }
                if frame.len() >= ETHERNET_HEADER_LEN {
                    for tpid in [0x8100u16, 0x88a8, 0x0800] {
                        let pushed = tag(frame, tpid, 0);
                        let mut h = before;
                        h.vlan_pushed(&pushed, depth);
                        assert_eq!(h, parse(&pushed, depth), "push {frame:02x?} {depth:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn proto_mask_contains_semantics() {
        let m = ProtoMask::ETH | ProtoMask::IPV4 | ProtoMask::TCP;
        assert!(m.contains(ProtoMask::IPV4 | ProtoMask::TCP));
        assert!(!m.contains(ProtoMask::UDP));
        assert!(m.intersects(ProtoMask::TCP | ProtoMask::UDP));
        assert!(!m.intersects(ProtoMask::UDP | ProtoMask::ICMP));
    }
}
