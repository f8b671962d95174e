//! OpenFlow actions and action sets.

use pkt::checksum;
use pkt::ethernet::ETHERNET_HEADER_LEN;
use pkt::parser::{parse, ParseDepth, ParsedHeaders};
use pkt::vlan::VLAN_TAG_LEN;
use pkt::Packet;

use crate::ct::{ConnCtx, CtVerb};
use crate::field::{Field, FieldValue};
use crate::key::FlowKey;

/// A single OpenFlow action.
///
/// Each variant corresponds to an ESWITCH *action template*; composite
/// behaviour is expressed by [`ActionSet`]s, which the compiled datapath
/// shares across flows ("identical action sets are shared across flows",
/// §3.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Action {
    /// Forward the packet out of the given port.
    Output(u32),
    /// Flood the packet on every port except the ingress port.
    Flood,
    /// Send the packet to the controller (packet-in).
    ToController,
    /// Explicitly drop the packet (an empty action set drops implicitly; the
    /// explicit action exists so intent shows up in dumps and tests).
    Drop,
    /// Rewrite a header field.
    SetField(Field, FieldValue),
    /// Push an 802.1Q VLAN tag with the given TPID (0x8100 or 0x88a8).
    PushVlan(u16),
    /// Pop the outermost VLAN tag.
    PopVlan,
    /// Decrement the IPv4 TTL.
    DecNwTtl,
    /// Set the output queue for subsequent outputs (modelled as metadata
    /// only; queues are not simulated).
    SetQueue(u32),
    /// Apply a group (modelled as a no-op placeholder; none of the paper's
    /// use cases require groups).
    Group(u32),
    /// Consult the connection tracker (commit / established-only / NAT /
    /// LB). Executed by the list-level executors, which thread a
    /// [`ConnCtx`]; a denying tracker halts the packet. In a write-actions
    /// set this is a no-op on every datapath (ct state must be consulted
    /// mid-pipeline, not at exit).
    Ct(CtVerb),
}

impl Action {
    /// Applies the action to `packet` (frame rewrite) and `key` (so later
    /// pipeline stages match on the rewritten values).
    ///
    /// `headers` must describe the current frame layout; actions that change
    /// the layout (push/pop VLAN) return `true` to signal the caller that
    /// offsets must be re-derived before any further field access.
    pub fn apply(&self, packet: &mut Packet, headers: &ParsedHeaders, key: &mut FlowKey) -> bool {
        match self {
            Action::Output(_)
            | Action::Flood
            | Action::ToController
            | Action::Drop
            | Action::SetQueue(_)
            | Action::Group(_)
            // Ct is executed by the list-level executors (which hold the
            // tracker); as a bare frame rewrite it touches nothing.
            | Action::Ct(_) => false,
            Action::SetField(field, value) => {
                key.set(*field, *value);
                write_field(packet, headers, *field, *value);
                false
            }
            Action::DecNwTtl => {
                if headers.has_ipv4() {
                    let l3 = usize::from(headers.l3_offset);
                    let frame = packet.data_mut();
                    if let Some(ttl) = frame.get(l3 + 8).copied() {
                        checksum::rewrite_ipv4_byte(frame, l3, 8, ttl.saturating_sub(1));
                    }
                }
                false
            }
            Action::PushVlan(tpid) => {
                // OpenFlow 1.3 push semantics: the new tag copies the VID and
                // PCP of the outer tag it lands on (0 on an untagged frame).
                let (vid, pcp) = (key.vlan_vid.unwrap_or(0), key.vlan_pcp.unwrap_or(0));
                key.vlan_vid = Some(vid);
                key.vlan_pcp = Some(pcp);
                let tci = (u16::from(pcp) << 13) | (vid & 0x0fff);
                // Insert the tag after the MAC addresses; the original
                // EtherType becomes the inner EtherType.
                let [inner0, inner1] = [packet.data()[12], packet.data()[13]];
                let [tci0, tci1] = tci.to_be_bytes();
                packet.data_mut()[12..14].copy_from_slice(&tpid.to_be_bytes());
                packet.insert(ETHERNET_HEADER_LEN, &[tci0, tci1, inner0, inner1]);
                true
            }
            Action::PopVlan => {
                if key.vlan_vid.is_some() {
                    key.vlan_vid = None;
                    key.vlan_pcp = None;
                    // The inner EtherType replaces the 0x8100 at offset 12 and
                    // the 4-byte tag disappears.
                    let inner = [packet.data()[16], packet.data()[17]];
                    packet.data_mut()[12..14].copy_from_slice(&inner);
                    packet.remove(ETHERNET_HEADER_LEN, VLAN_TAG_LEN);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// True for actions that terminate packet processing with a forwarding
    /// decision (used when collapsing action sets).
    pub fn is_output_like(&self) -> bool {
        matches!(
            self,
            Action::Output(_) | Action::Flood | Action::ToController | Action::Drop
        )
    }
}

/// Writes `value` into the frame bytes backing `field`, stepping every
/// checksum that covers them (RFC 1624): the IPv4 header's for an IP header
/// field, TCP's or UDP's for a port or — through the pseudo-header — an
/// address. Fields without a frame representation (metadata, tunnel id) are
/// key-only and ignored here.
fn write_field(packet: &mut Packet, headers: &ParsedHeaders, field: Field, value: FieldValue) {
    let l2 = usize::from(headers.l2_offset);
    let l3 = usize::from(headers.l3_offset);
    let frame = packet.data_mut();
    match field {
        Field::EthDst => frame[l2..l2 + 6].copy_from_slice(&(value as u64).to_be_bytes()[2..8]),
        Field::EthSrc => {
            frame[l2 + 6..l2 + 12].copy_from_slice(&(value as u64).to_be_bytes()[2..8])
        }
        Field::VlanVid if headers.has_vlan() => {
            let off = l2 + ETHERNET_HEADER_LEN;
            let pcp_dei = frame[off] & 0xf0;
            frame[off] = pcp_dei | (((value as u16) >> 8) as u8 & 0x0f);
            frame[off + 1] = value as u8;
        }
        Field::VlanPcp if headers.has_vlan() => {
            let off = l2 + ETHERNET_HEADER_LEN;
            frame[off] = (frame[off] & 0x1f) | ((value as u8 & 0x07) << 5);
        }
        Field::Ipv4Src if headers.has_ipv4() => {
            checksum::rewrite_ipv4_addr(frame, headers, 12, value as u32);
        }
        Field::Ipv4Dst if headers.has_ipv4() => {
            checksum::rewrite_ipv4_addr(frame, headers, 16, value as u32);
        }
        Field::IpDscp if headers.has_ipv4() => {
            let tos = (frame[l3 + 1] & 0x03) | ((value as u8 & 0x3f) << 2);
            checksum::rewrite_ipv4_byte(frame, l3, 1, tos);
        }
        Field::TcpSrc | Field::UdpSrc if (headers.has_tcp() || headers.has_udp()) => {
            checksum::rewrite_l4_port(frame, headers, 0, value as u16);
        }
        Field::TcpDst | Field::UdpDst if (headers.has_tcp() || headers.has_udp()) => {
            checksum::rewrite_l4_port(frame, headers, 2, value as u16);
        }
        // Metadata-like and unmodelled fields have no frame bytes.
        _ => {}
    }
}

/// An OpenFlow action set: at most one action per kind, executed in the
/// specification's fixed order when the pipeline terminates.
///
/// The write-actions instruction merges into the set (replacing same-kind
/// actions); clear-actions empties it. Output-like actions are kept last.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ActionSet {
    set_fields: Vec<(Field, FieldValue)>,
    push_vlan: Option<u16>,
    pop_vlan: bool,
    dec_ttl: bool,
    queue: Option<u32>,
    group: Option<u32>,
    output: Option<OutputKind>,
}

/// Terminal forwarding decision stored in an action set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputKind {
    /// Unicast out of one port.
    Port(u32),
    /// Flood.
    Flood,
    /// Punt to the controller.
    Controller,
    /// Explicit drop.
    Drop,
}

impl ActionSet {
    /// Creates an empty action set (which drops the packet if executed as-is).
    pub fn new() -> Self {
        ActionSet::default()
    }

    /// Builds an action set from a list of actions (write-actions semantics).
    pub fn from_actions(actions: &[Action]) -> Self {
        let mut set = ActionSet::new();
        for a in actions {
            set.write(a.clone());
        }
        set
    }

    /// Merges one action into the set, replacing any previous action of the
    /// same kind.
    pub fn write(&mut self, action: Action) {
        match action {
            Action::SetField(f, v) => {
                if let Some(slot) = self.set_fields.iter_mut().find(|(ef, _)| *ef == f) {
                    slot.1 = v;
                } else {
                    self.set_fields.push((f, v));
                }
            }
            Action::PushVlan(tpid) => self.push_vlan = Some(tpid),
            Action::PopVlan => self.pop_vlan = true,
            Action::DecNwTtl => self.dec_ttl = true,
            Action::SetQueue(q) => self.queue = Some(q),
            Action::Group(g) => self.group = Some(g),
            Action::Output(p) => self.output = Some(OutputKind::Port(p)),
            Action::Flood => self.output = Some(OutputKind::Flood),
            Action::ToController => self.output = Some(OutputKind::Controller),
            Action::Drop => self.output = Some(OutputKind::Drop),
            // Ct in a write-actions set is a no-op on every datapath:
            // connection state must be consulted while the packet traverses
            // the pipeline, not at exit.
            Action::Ct(_) => {}
        }
    }

    /// Clears the set (clear-actions instruction).
    pub fn clear(&mut self) {
        *self = ActionSet::new();
    }

    /// True when the set contains no actions at all.
    pub fn is_empty(&self) -> bool {
        *self == ActionSet::default()
    }

    /// The terminal forwarding decision, if any.
    pub fn output(&self) -> Option<OutputKind> {
        self.output
    }

    /// Materialises the set into the ordered action list the spec prescribes
    /// (pop, set-fields/dec-TTL, push, queue, group, output).
    pub fn to_action_list(&self) -> Vec<Action> {
        let mut list = Vec::new();
        if self.pop_vlan {
            list.push(Action::PopVlan);
        }
        if self.dec_ttl {
            list.push(Action::DecNwTtl);
        }
        for (f, v) in &self.set_fields {
            list.push(Action::SetField(*f, *v));
        }
        if let Some(tpid) = self.push_vlan {
            list.push(Action::PushVlan(tpid));
        }
        if let Some(q) = self.queue {
            list.push(Action::SetQueue(q));
        }
        if let Some(g) = self.group {
            list.push(Action::Group(g));
        }
        match self.output {
            Some(OutputKind::Port(p)) => list.push(Action::Output(p)),
            Some(OutputKind::Flood) => list.push(Action::Flood),
            Some(OutputKind::Controller) => list.push(Action::ToController),
            Some(OutputKind::Drop) => list.push(Action::Drop),
            None => {}
        }
        list
    }
}

/// Applies an ordered action list to a packet whose current layout
/// `headers` describes, re-parsing after each layout change, and hands every
/// forwarding decision an output-like action produces to `sink`. Ct actions
/// run against `ct`; pass [`NoCt`](crate::ct::NoCt) for stateless pipelines.
///
/// Returns `true` when a ct action denied the packet: the remaining actions
/// were skipped, and the caller must stop processing (no further tables, no
/// action-set flush) and treat the packet as dropped.
///
/// This is the one action executor: the interpreter's walk, the OVS slow path
/// and OVS's cache replay all run it. Callers that have not parsed the frame
/// call [`parse`] first; callers that want the decisions in a `Vec` push them
/// from `sink`.
#[inline]
pub fn apply_action_list(
    actions: &[Action],
    packet: &mut Packet,
    key: &mut FlowKey,
    mut headers: ParsedHeaders,
    mut sink: impl FnMut(OutputKind),
    ct: &mut dyn ConnCtx,
) -> bool {
    for action in actions {
        match action {
            Action::Output(p) => sink(OutputKind::Port(*p)),
            Action::Flood => sink(OutputKind::Flood),
            Action::ToController => sink(OutputKind::Controller),
            Action::Drop => sink(OutputKind::Drop),
            Action::Ct(verb) => {
                let outcome = crate::ct::execute_ct(ct, verb, packet, &headers);
                if outcome.halted() {
                    return true;
                }
                for &(field, value) in outcome.rewrites() {
                    let value = FieldValue::from(value);
                    key.set(field, value);
                    write_field(packet, &headers, field, value);
                }
            }
            other => {
                if other.apply(packet, &headers, key) {
                    headers = parse(packet.data(), ParseDepth::L4);
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkt::builder::PacketBuilder;
    use pkt::ipv4::{Ipv4Addr4, Ipv4Header};

    fn packet_and_key() -> (Packet, FlowKey) {
        let p = PacketBuilder::tcp()
            .ipv4_src([10, 0, 0, 1])
            .ipv4_dst([192, 0, 2, 1])
            .tcp_dst(80)
            .build();
        let k = FlowKey::extract(&p);
        (p, k)
    }

    #[test]
    fn set_field_rewrites_frame_and_key() {
        let (mut p, mut k) = packet_and_key();
        let headers = parse(p.data(), ParseDepth::L4);
        let new_src = Ipv4Addr4::new(203, 0, 113, 9);
        Action::SetField(Field::Ipv4Src, u128::from(new_src.to_u32()))
            .apply(&mut p, &headers, &mut k);
        assert_eq!(k.ipv4_src, Some(new_src.to_u32()));
        let reparsed = FlowKey::extract(&p);
        assert_eq!(reparsed.ipv4_src, Some(new_src.to_u32()));
        // checksum still valid after rewrite
        assert!(Ipv4Header::verify_checksum(
            &p.data()[usize::from(headers.l3_offset)..]
        ));
    }

    #[test]
    fn set_tcp_port_rewrites_frame() {
        let (mut p, mut k) = packet_and_key();
        let headers = parse(p.data(), ParseDepth::L4);
        Action::SetField(Field::TcpDst, 8080).apply(&mut p, &headers, &mut k);
        assert_eq!(FlowKey::extract(&p).tcp_dst, Some(8080));
    }

    #[test]
    fn dec_ttl_updates_checksum() {
        let (mut p, mut k) = packet_and_key();
        let headers = parse(p.data(), ParseDepth::L4);
        let l3 = usize::from(headers.l3_offset);
        let before = p.data()[l3 + 8];
        Action::DecNwTtl.apply(&mut p, &headers, &mut k);
        assert_eq!(p.data()[l3 + 8], before - 1);
        assert!(Ipv4Header::verify_checksum(&p.data()[l3..]));
    }

    #[test]
    fn push_and_pop_vlan_roundtrip() {
        let (mut p, mut k) = packet_and_key();
        let original = p.clone();
        let headers = parse(p.data(), ParseDepth::L4);
        let relayout = Action::PushVlan(0x8100).apply(&mut p, &headers, &mut k);
        assert!(relayout);
        let tagged = FlowKey::extract(&p);
        assert_eq!(tagged.vlan_vid, Some(0));
        assert_eq!(p.len(), original.len() + VLAN_TAG_LEN);

        // Now set the VID and pop it again.
        let headers = parse(p.data(), ParseDepth::L4);
        Action::SetField(Field::VlanVid, 7).apply(&mut p, &headers, &mut k);
        assert_eq!(FlowKey::extract(&p).vlan_vid, Some(7));
        let headers = parse(p.data(), ParseDepth::L4);
        let relayout = Action::PopVlan.apply(&mut p, &headers, &mut k);
        assert!(relayout);
        assert_eq!(p.len(), original.len());
        assert_eq!(FlowKey::extract(&p).vlan_vid, None);
        assert_eq!(FlowKey::extract(&p).tcp_dst, Some(80));
    }

    #[test]
    fn push_vlan_copies_vid_and_pcp_of_the_outer_tag() {
        let mut p = PacketBuilder::tcp().vlan(7).vlan_pcp(5).build();
        let mut k = FlowKey::extract(&p);
        let headers = parse(p.data(), ParseDepth::L4);
        assert!(Action::PushVlan(0x88a8).apply(&mut p, &headers, &mut k));
        assert_eq!(&p.data()[12..20], &[0x88, 0xa8, 0xa0, 7, 0x81, 0, 0xa0, 7]);
        let pushed = FlowKey::extract(&p);
        assert_eq!((pushed.vlan_vid, pushed.vlan_pcp), (Some(7), Some(5)));
        assert_eq!((k.vlan_vid, k.vlan_pcp), (Some(7), Some(5)), "key in step");
    }

    #[test]
    fn pop_vlan_on_untagged_is_noop() {
        let (mut p, mut k) = packet_and_key();
        let headers = parse(p.data(), ParseDepth::L4);
        let before = p.clone();
        assert!(!Action::PopVlan.apply(&mut p, &headers, &mut k));
        assert_eq!(p, before);
    }

    #[test]
    fn action_set_merging_and_ordering() {
        let mut set = ActionSet::new();
        set.write(Action::Output(1));
        set.write(Action::SetField(Field::EthDst, 0xaabbccddeeff));
        set.write(Action::SetField(Field::EthDst, 0x112233445566));
        set.write(Action::Output(2)); // replaces the first output
        set.write(Action::DecNwTtl);
        let list = set.to_action_list();
        assert_eq!(
            list,
            vec![
                Action::DecNwTtl,
                Action::SetField(Field::EthDst, 0x112233445566),
                Action::Output(2),
            ]
        );
        assert_eq!(set.output(), Some(OutputKind::Port(2)));
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.to_action_list(), vec![]);
    }

    #[test]
    fn apply_action_list_collects_outputs() {
        let (mut p, mut k) = packet_and_key();
        let headers = parse(p.data(), ParseDepth::L4);
        let mut outs = Vec::new();
        let denied = apply_action_list(
            &[
                Action::SetField(Field::Ipv4Dst, 0x0a0a0a0a),
                Action::Output(4),
                Action::Output(5),
            ],
            &mut p,
            &mut k,
            headers,
            |out| outs.push(out),
            &mut crate::ct::NoCt,
        );
        assert!(!denied);
        assert_eq!(outs, vec![OutputKind::Port(4), OutputKind::Port(5)]);
        assert_eq!(FlowKey::extract(&p).ipv4_dst, Some(0x0a0a0a0a));
    }
}
