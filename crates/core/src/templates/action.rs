//! Action templates and shared action sets.
//!
//! "Every action type is a separate action template and action templates are
//! collapsed into composite action sets. Identical action sets are shared
//! across flows." (§3.1). The compiler interns every distinct action set in
//! an [`ActionStore`]; compiled flow entries reference sets by index, so a
//! 1K-entry MAC table whose entries all "output on port 3" carries a single
//! shared action-set object.

use openflow::action::OutputKind;
use openflow::ct::{ConnCtx, CtVerb, NoCt};
use openflow::{Action, Field, FieldValue, Verdict};
use pkt::checksum;
use pkt::ethernet::ETHERNET_HEADER_LEN;
use pkt::parser::{ParseDepth, ParsedHeaders};
use pkt::vlan::VLAN_TAG_LEN;
use pkt::Packet;

/// A specialised action: the per-type template with its parameters patched
/// in. Compared to [`openflow::Action`] the set-field variants are already
/// split per target field, mirroring the per-type action templates of the
/// paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CompiledAction {
    /// Transmit on the given port.
    Output(u32),
    /// Flood on every port but the ingress one.
    Flood,
    /// Punt to the controller.
    ToController,
    /// Explicit drop (terminates the action set).
    Drop,
    /// Rewrite the destination MAC.
    SetEthDst([u8; 6]),
    /// Rewrite the source MAC.
    SetEthSrc([u8; 6]),
    /// Rewrite the VLAN VID of an already-tagged packet.
    SetVlanVid(u16),
    /// Rewrite the IPv4 DSCP code point (updates the header checksum).
    SetIpDscp(u8),
    /// Rewrite the IPv4 source address (updates the header checksum and the
    /// TCP/UDP one, whose pseudo-header covers it).
    SetIpv4Src(u32),
    /// Rewrite the IPv4 destination address (as [`CompiledAction::SetIpv4Src`]).
    SetIpv4Dst(u32),
    /// Rewrite the TCP/UDP source port (updates the TCP/UDP checksum).
    SetL4Src(u16),
    /// Rewrite the TCP/UDP destination port (updates the TCP/UDP checksum).
    SetL4Dst(u16),
    /// Decrement the IPv4 TTL (updates the header checksum).
    DecNwTtl,
    /// Push an 802.1Q tag with the given TPID.
    PushVlan(u16),
    /// Pop the outermost 802.1Q tag.
    PopVlan,
    /// Connection-tracking verb, executed against the per-shard engine the
    /// caller threads through [`CompiledActionSet::execute_ct`]. Compiled
    /// programs keep the verb — connection state is live data, so the action
    /// re-executes per packet rather than specialising away.
    Ct(CtVerb),
    /// Actions the templates model as no-ops (queues, groups, unsupported
    /// set-fields); kept so compiled pipelines stay structurally faithful.
    Nop,
}

impl CompiledAction {
    /// Specialises one OpenFlow action into its template.
    pub fn from_action(action: &Action) -> Self {
        match action {
            Action::Output(p) => CompiledAction::Output(*p),
            Action::Flood => CompiledAction::Flood,
            Action::ToController => CompiledAction::ToController,
            Action::Drop => CompiledAction::Drop,
            Action::DecNwTtl => CompiledAction::DecNwTtl,
            Action::PushVlan(tpid) => CompiledAction::PushVlan(*tpid),
            Action::PopVlan => CompiledAction::PopVlan,
            Action::Ct(verb) => CompiledAction::Ct(*verb),
            Action::SetQueue(_) | Action::Group(_) => CompiledAction::Nop,
            Action::SetField(field, value) => Self::from_set_field(*field, *value),
        }
    }

    fn from_set_field(field: Field, value: FieldValue) -> Self {
        match field {
            Field::EthDst => CompiledAction::SetEthDst(mac_bytes(value)),
            Field::EthSrc => CompiledAction::SetEthSrc(mac_bytes(value)),
            Field::VlanVid => CompiledAction::SetVlanVid(value as u16 & 0x0fff),
            Field::IpDscp => CompiledAction::SetIpDscp(value as u8 & 0x3f),
            Field::Ipv4Src => CompiledAction::SetIpv4Src(value as u32),
            Field::Ipv4Dst => CompiledAction::SetIpv4Dst(value as u32),
            Field::TcpSrc | Field::UdpSrc => CompiledAction::SetL4Src(value as u16),
            Field::TcpDst | Field::UdpDst => CompiledAction::SetL4Dst(value as u16),
            _ => CompiledAction::Nop,
        }
    }

    /// Executes the action. A VLAN push/pop changes the frame layout and
    /// brings `headers` (parsed to `depth`) up to date itself: shifted
    /// arithmetically for a single tag, re-parsed once otherwise.
    #[inline]
    fn execute(
        &self,
        packet: &mut Packet,
        headers: &mut ParsedHeaders,
        depth: ParseDepth,
        verdict: &mut Verdict,
    ) {
        let l3 = usize::from(headers.l3_offset);
        match self {
            CompiledAction::Output(p) => verdict.outputs.push(*p),
            CompiledAction::Flood => verdict.flood = true,
            CompiledAction::ToController => {
                verdict.to_controller = true;
                verdict.punt_reason = openflow::PacketInReason::Action;
            }
            // Ct is executed at the set level (it needs the engine and can
            // halt the pipeline); as a bare action it is a no-op.
            CompiledAction::Drop | CompiledAction::Nop | CompiledAction::Ct(_) => {}
            CompiledAction::SetEthDst(mac) => {
                packet.data_mut()[0..6].copy_from_slice(mac);
            }
            CompiledAction::SetEthSrc(mac) => {
                packet.data_mut()[6..12].copy_from_slice(mac);
            }
            CompiledAction::SetVlanVid(vid) => {
                if headers.has_vlan() {
                    let off = ETHERNET_HEADER_LEN;
                    let frame = packet.data_mut();
                    let pcp_dei = frame[off] & 0xf0;
                    frame[off] = pcp_dei | ((vid >> 8) as u8 & 0x0f);
                    frame[off + 1] = *vid as u8;
                    // The parser caches the outermost VID; later tables
                    // matching on it must see the rewrite.
                    headers.vlan_vid = *vid;
                }
            }
            CompiledAction::SetIpDscp(dscp) => {
                if headers.has_ipv4() {
                    let frame = packet.data_mut();
                    checksum::rewrite_ipv4_byte(frame, l3, 1, (frame[l3 + 1] & 0x03) | (dscp << 2));
                }
            }
            CompiledAction::SetIpv4Src(addr) => {
                if headers.has_ipv4() {
                    checksum::rewrite_ipv4_addr(packet.data_mut(), headers, 12, *addr);
                }
            }
            CompiledAction::SetIpv4Dst(addr) => {
                if headers.has_ipv4() {
                    checksum::rewrite_ipv4_addr(packet.data_mut(), headers, 16, *addr);
                }
            }
            CompiledAction::SetL4Src(port) => {
                if headers.has_tcp() || headers.has_udp() {
                    checksum::rewrite_l4_port(packet.data_mut(), headers, 0, *port);
                }
            }
            CompiledAction::SetL4Dst(port) => {
                if headers.has_tcp() || headers.has_udp() {
                    checksum::rewrite_l4_port(packet.data_mut(), headers, 2, *port);
                }
            }
            CompiledAction::DecNwTtl => {
                if headers.has_ipv4() {
                    let frame = packet.data_mut();
                    checksum::rewrite_ipv4_byte(frame, l3, 8, frame[l3 + 8].saturating_sub(1));
                }
            }
            CompiledAction::PushVlan(tpid) => {
                // The new tag copies VID and PCP of the outer tag it lands on
                // (both 0 in `headers` for an untagged frame).
                let tci = (u16::from(headers.vlan_pcp) << 13) | headers.vlan_vid;
                let [inner0, inner1] = [packet.data()[12], packet.data()[13]];
                let [tci0, tci1] = tci.to_be_bytes();
                packet.data_mut()[12..14].copy_from_slice(&tpid.to_be_bytes());
                packet.insert(ETHERNET_HEADER_LEN, &[tci0, tci1, inner0, inner1]);
                headers.vlan_pushed(packet.data(), depth);
            }
            CompiledAction::PopVlan => {
                if headers.has_vlan() {
                    let inner = [packet.data()[16], packet.data()[17]];
                    packet.data_mut()[12..14].copy_from_slice(&inner);
                    packet.remove(ETHERNET_HEADER_LEN, VLAN_TAG_LEN);
                    headers.vlan_popped(packet.data(), depth);
                }
            }
        }
    }

    /// Renders the action in the style of the paper's listings.
    pub fn disassemble(&self) -> String {
        match self {
            CompiledAction::Output(p) => format!("OUTPUT({p})"),
            CompiledAction::Flood => "FLOOD".to_string(),
            CompiledAction::ToController => "CONTROLLER".to_string(),
            CompiledAction::Drop => "DROP".to_string(),
            CompiledAction::SetEthDst(m) => format!("SET_ETH_DST({m:02x?})"),
            CompiledAction::SetEthSrc(m) => format!("SET_ETH_SRC({m:02x?})"),
            CompiledAction::SetVlanVid(v) => format!("SET_VLAN_VID({v})"),
            CompiledAction::SetIpDscp(d) => format!("SET_IP_DSCP({d})"),
            CompiledAction::SetIpv4Src(a) => format!("SET_IPV4_SRC({:#x})", a),
            CompiledAction::SetIpv4Dst(a) => format!("SET_IPV4_DST({:#x})", a),
            CompiledAction::SetL4Src(p) => format!("SET_L4_SRC({p})"),
            CompiledAction::SetL4Dst(p) => format!("SET_L4_DST({p})"),
            CompiledAction::DecNwTtl => "DEC_NW_TTL".to_string(),
            CompiledAction::PushVlan(t) => format!("PUSH_VLAN({t:#x})"),
            CompiledAction::PopVlan => "POP_VLAN".to_string(),
            CompiledAction::Ct(v) => format!("CT({v:?})"),
            CompiledAction::Nop => "NOP".to_string(),
        }
    }
}

fn mac_bytes(value: FieldValue) -> [u8; 6] {
    let v = value as u64;
    let mut out = [0u8; 6];
    out.copy_from_slice(&v.to_be_bytes()[2..8]);
    out
}

/// A composite, shared action set: the ordered list of compiled actions a
/// flow entry executes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct CompiledActionSet {
    actions: Vec<CompiledAction>,
}

impl CompiledActionSet {
    /// Specialises a list of OpenFlow actions.
    pub fn from_actions(actions: &[Action]) -> Self {
        CompiledActionSet {
            actions: actions.iter().map(CompiledAction::from_action).collect(),
        }
    }

    /// The compiled actions, in execution order.
    pub fn actions(&self) -> &[CompiledAction] {
        &self.actions
    }

    /// True when the set contains no actions (a drop).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Executes the whole set against a packet, merging forwarding decisions
    /// into `verdict` and keeping `headers` (parsed to `depth`) in step with
    /// any layout change. Ct verbs execute against the no-op tracker (Commit
    /// passes, stateful verbs halt) — stateful pipelines use
    /// [`CompiledActionSet::execute_ct`].
    pub fn execute(
        &self,
        packet: &mut Packet,
        headers: &mut ParsedHeaders,
        depth: ParseDepth,
        verdict: &mut Verdict,
    ) {
        self.execute_ct(packet, headers, depth, verdict, &mut NoCt);
    }

    /// Like [`CompiledActionSet::execute`] but with a live connection
    /// tracker. Returns `true` when a ct verb halted the pipeline (stateful
    /// deny): the caller must discard the verdict's forwarding decisions and
    /// stop processing the packet.
    pub fn execute_ct(
        &self,
        packet: &mut Packet,
        headers: &mut ParsedHeaders,
        depth: ParseDepth,
        verdict: &mut Verdict,
        ct: &mut dyn ConnCtx,
    ) -> bool {
        for action in &self.actions {
            if let CompiledAction::Ct(verb) = action {
                let outcome = openflow::ct::execute_ct(ct, verb, packet, headers);
                if outcome.halted() {
                    return true;
                }
                for &(field, value) in outcome.rewrites() {
                    CompiledAction::from_set_field(field, FieldValue::from(value))
                        .execute(packet, headers, depth, verdict);
                }
                continue;
            }
            action.execute(packet, headers, depth, verdict);
        }
        false
    }

    /// Executes only the packet-modifying actions of the set, skipping the
    /// output-like ones. Used when several write-action sets accumulate along
    /// a multi-stage pipeline and only the last forwarding decision may take
    /// effect (OpenFlow action-set semantics: one output per set, last write
    /// wins).
    pub fn execute_modifiers(
        &self,
        packet: &mut Packet,
        headers: &mut ParsedHeaders,
        depth: ParseDepth,
    ) {
        let mut scratch = Verdict::default();
        for action in &self.actions {
            if matches!(
                action,
                CompiledAction::Output(_)
                    | CompiledAction::Flood
                    | CompiledAction::ToController
                    | CompiledAction::Drop
                    // Ct in a write-action set is a no-op everywhere (the
                    // reference ActionSet ignores it too).
                    | CompiledAction::Ct(_)
            ) {
                continue;
            }
            action.execute(packet, headers, depth, &mut scratch);
        }
    }

    /// The last output-like action of the set, if any.
    pub fn output_action(&self) -> Option<&CompiledAction> {
        self.actions.iter().rev().find(|a| {
            matches!(
                a,
                CompiledAction::Output(_)
                    | CompiledAction::Flood
                    | CompiledAction::ToController
                    | CompiledAction::Drop
            )
        })
    }

    /// Renders the action set.
    pub fn disassemble(&self) -> String {
        if self.actions.is_empty() {
            return "    DROP".to_string();
        }
        self.actions
            .iter()
            .map(|a| format!("    {}", a.disassemble()))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Converts a cached [`OutputKind`]-style decision into verdict bits; used by
/// tests comparing against the reference datapath.
pub fn merge_output(verdict: &mut Verdict, out: OutputKind) {
    match out {
        OutputKind::Port(p) => verdict.outputs.push(p),
        OutputKind::Flood => verdict.flood = true,
        OutputKind::Controller => {
            verdict.to_controller = true;
            verdict.punt_reason = openflow::PacketInReason::Action;
        }
        OutputKind::Drop => {}
    }
}

/// Interning store for shared action sets.
#[derive(Debug, Default, Clone)]
pub struct ActionStore {
    sets: Vec<std::sync::Arc<CompiledActionSet>>,
}

impl ActionStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ActionStore::default()
    }

    /// Interns an action list, returning the shared compiled set. Identical
    /// lists map to the same `Arc`, so flows with the same behaviour share
    /// one physical action-set object.
    pub fn intern(&mut self, actions: &[Action]) -> std::sync::Arc<CompiledActionSet> {
        let compiled = CompiledActionSet::from_actions(actions);
        if let Some(existing) = self.sets.iter().find(|s| ***s == compiled) {
            return std::sync::Arc::clone(existing);
        }
        let shared = std::sync::Arc::new(compiled);
        self.sets.push(std::sync::Arc::clone(&shared));
        shared
    }

    /// Number of distinct action sets interned.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True when no sets have been interned.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkt::builder::PacketBuilder;
    use pkt::ipv4::Ipv4Header;
    use pkt::parser::parse;

    fn run(actions: &[Action], packet: &mut Packet) -> Verdict {
        let mut headers = parse(packet.data(), ParseDepth::L4);
        let set = CompiledActionSet::from_actions(actions);
        let mut verdict = Verdict::default();
        set.execute(packet, &mut headers, ParseDepth::L4, &mut verdict);
        assert_eq!(headers, parse(packet.data(), ParseDepth::L4));
        verdict
    }

    #[test]
    fn output_and_flood_merge_into_verdict() {
        let mut p = PacketBuilder::tcp().build();
        let v = run(&[Action::Output(3), Action::Flood], &mut p);
        assert_eq!(v.outputs, vec![3]);
        assert!(v.flood);
    }

    #[test]
    fn nat_rewrite_matches_reference_action() {
        // The compiled SetIpv4Src must produce the same frame as the
        // reference openflow action implementation.
        let mut compiled_pkt = PacketBuilder::tcp().ipv4_src([10, 0, 0, 1]).build();
        let mut reference_pkt = compiled_pkt.clone();

        run(
            &[Action::SetField(Field::Ipv4Src, 0xcb00_7101)],
            &mut compiled_pkt,
        );

        let headers = parse(reference_pkt.data(), ParseDepth::L4);
        let mut key = openflow::FlowKey::extract(&reference_pkt);
        Action::SetField(Field::Ipv4Src, 0xcb00_7101).apply(&mut reference_pkt, &headers, &mut key);

        assert_eq!(compiled_pkt.data(), reference_pkt.data());
        assert!(Ipv4Header::verify_checksum(&compiled_pkt.data()[14..]));
    }

    #[test]
    fn ttl_decrement_and_checksum() {
        let mut p = PacketBuilder::udp().ttl(7).build();
        run(&[Action::DecNwTtl], &mut p);
        let headers = parse(p.data(), ParseDepth::L3);
        let l3 = usize::from(headers.l3_offset);
        assert_eq!(p.data()[l3 + 8], 6);
        assert!(Ipv4Header::verify_checksum(&p.data()[l3..]));
    }

    #[test]
    fn push_set_pop_vlan_roundtrip() {
        let mut p = PacketBuilder::tcp().tcp_dst(80).build();
        let original_len = p.len();
        run(
            &[
                Action::PushVlan(0x8100),
                Action::SetField(Field::VlanVid, 9),
            ],
            &mut p,
        );
        let key = openflow::FlowKey::extract(&p);
        assert_eq!(key.vlan_vid, Some(9));
        assert_eq!(p.len(), original_len + 4);

        run(&[Action::PopVlan], &mut p);
        let key = openflow::FlowKey::extract(&p);
        assert_eq!(key.vlan_vid, None);
        assert_eq!(key.tcp_dst, Some(80));
        assert_eq!(p.len(), original_len);
    }

    #[test]
    fn push_vlan_copies_the_outer_tag_like_the_reference_action() {
        for packet in [
            PacketBuilder::tcp().vlan(7).vlan_pcp(5).build(),
            PacketBuilder::udp().build(),
        ] {
            let (mut compiled_pkt, mut reference_pkt) = (packet.clone(), packet);
            run(&[Action::PushVlan(0x88a8)], &mut compiled_pkt);
            let headers = parse(reference_pkt.data(), ParseDepth::L4);
            let mut key = openflow::FlowKey::extract(&reference_pkt);
            Action::PushVlan(0x88a8).apply(&mut reference_pkt, &headers, &mut key);
            assert_eq!(compiled_pkt.data(), reference_pkt.data());
        }
    }

    #[test]
    fn l4_port_rewrite() {
        let mut p = PacketBuilder::udp().udp_dst(53).build();
        run(&[Action::SetField(Field::UdpDst, 5353)], &mut p);
        assert_eq!(openflow::FlowKey::extract(&p).udp_dst, Some(5353));
    }

    #[test]
    fn store_shares_identical_sets() {
        let mut store = ActionStore::new();
        let a = store.intern(&[Action::Output(1)]);
        let b = store.intern(&[Action::Output(2)]);
        let c = store.intern(&[Action::Output(1)]);
        assert!(std::sync::Arc::ptr_eq(&a, &c));
        assert!(!std::sync::Arc::ptr_eq(&a, &b));
        assert_eq!(store.len(), 2);
        assert_eq!(a.actions(), &[CompiledAction::Output(1)]);
    }

    #[test]
    fn modifier_only_execution_and_output_extraction() {
        let set = CompiledActionSet::from_actions(&[
            Action::SetField(Field::Ipv4Dst, 0x0a00_0001),
            Action::Output(3),
            Action::Output(5),
        ]);
        assert_eq!(set.output_action(), Some(&CompiledAction::Output(5)));

        let mut p = PacketBuilder::tcp().build();
        let mut headers = parse(p.data(), ParseDepth::L4);
        set.execute_modifiers(&mut p, &mut headers, ParseDepth::L4);
        // The rewrite happened, but no forwarding decision was taken.
        assert_eq!(openflow::FlowKey::extract(&p).ipv4_dst, Some(0x0a00_0001));
    }

    #[test]
    fn disassembly_mentions_patched_parameters() {
        let set = CompiledActionSet::from_actions(&[
            Action::SetField(Field::Ipv4Src, 0x0a000001),
            Action::Output(7),
        ]);
        let text = set.disassemble();
        assert!(text.contains("SET_IPV4_SRC(0xa000001)"));
        assert!(text.contains("OUTPUT(7)"));
        assert_eq!(CompiledActionSet::default().disassemble(), "    DROP");
    }
}
