//! The slow path: full OpenFlow pipeline classification plus megaflow mask
//! construction ("un-wildcarding").
//!
//! This is the `vswitchd` level of the OVS hierarchy. For a packet that missed
//! both caches it (1) walks the pipeline with the reference interpreter's
//! instruction semantics, (2) records the *action program* — the ordered list
//! of actions the packet experienced — so the caches can replay it on later
//! packets, and (3) computes the megaflow mask: every field that influenced
//! the decision is un-wildcarded, and on the prefix-tracked address and port
//! fields only the bits down to the first difference a failed comparison
//! needed.
//!
//! The interpreter scans each table entry by entry; the slow path classifies
//! each table through its tuple-space index
//! ([`FlowTable::lookup_unwildcarding`]): one hash probe per distinct match
//! shape, best shape first, with early exit. The index answers exactly what
//! the scan would — the entry, the count of entries examined, and the bits
//! the comparisons consulted — so megaflow contents are the scan's. They
//! depend on packet arrival order (Fig. 3 of the paper), and a single
//! fine-grained rule "punches a hole" in every aggregate: matching a packet
//! against a rule un-wildcards the fields of that rule *and* of every rule
//! ranked above it.

use std::sync::Arc;

use openflow::action::{apply_action_list, apply_action_list_into_ct, ActionSet};
use openflow::ct::{ConnCtx, NoCt};
use openflow::table::TableMissBehavior;
use openflow::{Action, Field, FlowEntry, FlowKey, FlowTable, Instruction, Pipeline, Verdict};
use pkt::Packet;

use crate::mask::FieldMask;
use crate::program::Program;

/// Result of one slow-path classification.
#[derive(Debug, Clone)]
pub struct SlowPathResult {
    /// The ordered action program the caches will replay for this megaflow.
    pub actions: Arc<Program>,
    /// The megaflow mask (un-wildcarded fields/bits).
    pub mask: FieldMask,
    /// The forwarding verdict for this packet.
    pub verdict: Verdict,
    /// False when a ct verb halted classification mid-pipeline: the program
    /// is truncated at the deny, so it must not be installed in any cache —
    /// the connection's state may change and a replay would then skip the
    /// rest of the pipeline walk. Denied flows re-classify per packet.
    pub cacheable: bool,
}

/// The slow-path classifier. Stateless: the pipeline is borrowed per call so
/// the datapath can keep it behind its own lock, and each table's index is
/// derived state of the table itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlowPath;

impl SlowPath {
    /// Creates a slow path.
    pub fn new() -> Self {
        SlowPath
    }

    /// Classifies one packet against `pipeline`, applying actions to the
    /// packet, and returns the action program + megaflow mask + verdict.
    /// Ct actions run against the no-op tracker; stateful datapaths use
    /// [`SlowPath::classify_ct`].
    pub fn classify(
        &self,
        pipeline: &Pipeline,
        packet: &mut Packet,
        key: &mut FlowKey,
    ) -> SlowPathResult {
        self.classify_ct(pipeline, packet, key, &mut NoCt)
    }

    /// Like [`SlowPath::classify`] but with a live connection tracker.
    ///
    /// Two ct-specific rules keep the caches sound: the program *retains*
    /// the ct action (connection state is live data — cached replays must
    /// re-execute it per packet), and the megaflow mask un-wildcards the
    /// full 5-tuple whenever a ct action executes, so no wildcard entry can
    /// ever cover two connections whose tracked state may differ.
    pub fn classify_ct(
        &self,
        pipeline: &Pipeline,
        packet: &mut Packet,
        key: &mut FlowKey,
        ct: &mut dyn ConnCtx,
    ) -> SlowPathResult {
        walk(pipeline, packet, key, ct, |table, key, mask| {
            table.lookup_unwildcarding(key, mask)
        })
    }
}

/// The pipeline walk, classifying each table with `lookup`: the entry it
/// picks, the entries a scan would have examined to pick it, and the bits
/// those comparisons consulted, un-wildcarded into the mask.
fn walk(
    pipeline: &Pipeline,
    packet: &mut Packet,
    key: &mut FlowKey,
    ct: &mut dyn ConnCtx,
    lookup: impl for<'t> Fn(&'t FlowTable, &FlowKey, &mut FieldMask) -> (Option<&'t FlowEntry>, usize),
) -> SlowPathResult {
    let mut mask = FieldMask::wildcard_all();
    let mut program: Vec<Action> = Vec::new();
    let mut verdict = Verdict::default();
    let mut action_set = ActionSet::new();
    let mut table_id = 0u32;

    while let Some(table) = pipeline.table(table_id) {
        verdict.tables_visited += 1;
        table.lookups.record(0);

        let (matched, examined) = lookup(table, key, &mut mask);
        verdict.entries_examined += examined as u32;

        match matched {
            Some(entry) => {
                table.matches.record(0);
                entry.record(packet.len());
                let mut next = None;
                for instruction in &entry.instructions {
                    match instruction {
                        Instruction::ApplyActions(actions) => {
                            program.extend(actions.iter().cloned());
                            if actions.iter().any(|a| matches!(a, Action::Ct(_))) {
                                unwildcard_ct_tuple(&mut mask);
                            }
                            if apply_action_list_into_ct(actions, packet, key, &mut verdict, ct) {
                                // Stateful deny: drop, discarding every
                                // forwarding decision merged so far and
                                // the accumulated write-action set; keep
                                // the accounting. The truncated program
                                // is marked non-cacheable.
                                return SlowPathResult {
                                    actions: Arc::new(Program::new(program, verdict.punt_reason)),
                                    mask,
                                    verdict: Verdict {
                                        tables_visited: verdict.tables_visited,
                                        entries_examined: verdict.entries_examined,
                                        ..Verdict::default()
                                    },
                                    cacheable: false,
                                };
                            }
                        }
                        Instruction::WriteActions(actions) => {
                            for a in actions {
                                action_set.write(a.clone());
                            }
                        }
                        Instruction::ClearActions => action_set.clear(),
                        Instruction::WriteMetadata { value, mask: m } => {
                            key.metadata = (key.metadata & !m) | (value & m);
                        }
                        Instruction::GotoTable(t) => next = Some(*t),
                        Instruction::Meter(_) => {}
                    }
                }
                match next {
                    Some(t) => table_id = t,
                    None => break,
                }
            }
            None => {
                match table.miss {
                    TableMissBehavior::Drop => {}
                    TableMissBehavior::ToController => {
                        verdict.to_controller = true;
                        program.push(Action::ToController);
                    }
                    TableMissBehavior::Continue => {
                        if let Some(next) = pipeline
                            .tables()
                            .iter()
                            .map(|t| t.id)
                            .find(|id| *id > table_id)
                        {
                            table_id = next;
                            continue;
                        }
                    }
                }
                break;
            }
        }
    }

    // Flush the accumulated action set into the program and the packet.
    if !action_set.is_empty() {
        let list = action_set.to_action_list();
        program.extend(list.iter().cloned());
        for out in apply_action_list(&list, packet, key) {
            verdict.add(out);
        }
    }

    SlowPathResult {
        actions: Arc::new(Program::new(program, verdict.punt_reason)),
        mask,
        verdict,
        cacheable: true,
    }
}

/// Un-wildcards the full connection 5-tuple. Executing a ct action makes the
/// decision depend on per-connection state, so the megaflow must be exact on
/// everything that identifies the connection.
fn unwildcard_ct_tuple(mask: &mut FieldMask) {
    for field in [
        Field::IpProto,
        Field::Ipv4Src,
        Field::Ipv4Dst,
        Field::TcpSrc,
        Field::TcpDst,
        Field::UdpSrc,
        Field::UdpDst,
    ] {
        mask.unwildcard(field, field.full_mask());
    }
}

#[cfg(test)]
mod reference_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::action::OutputKind;
    use openflow::flow_match::FlowMatch;
    use openflow::instruction::terminal_actions;
    use openflow::tuple_index::{prefix_to_first_difference, top_bits_mask};
    use pkt::builder::PacketBuilder;

    fn port_entry(priority: u16, port: u16, out: u32) -> FlowEntry {
        FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, u128::from(port)),
            priority,
            terminal_actions(vec![Action::Output(out)]),
        )
    }

    fn pipeline_with_entries(entries: Vec<FlowEntry>) -> Pipeline {
        let mut p = Pipeline::with_tables(1);
        for e in entries {
            p.table_mut(0).unwrap().insert(e);
        }
        p
    }

    fn classify(pipeline: &Pipeline, packet: &mut Packet) -> SlowPathResult {
        let mut key = FlowKey::extract(packet);
        SlowPath::new().classify(pipeline, packet, &mut key)
    }

    #[test]
    fn verdict_matches_reference_pipeline() {
        let pipeline = pipeline_with_entries(vec![
            port_entry(100, 80, 1),
            port_entry(50, 443, 2),
            FlowEntry::new(FlowMatch::any(), 1, vec![]),
        ]);
        for port in [80u16, 443, 22, 8080] {
            let mut a = PacketBuilder::tcp().tcp_dst(port).build();
            let mut b = a.clone();
            let slow = classify(&pipeline, &mut a);
            let reference = pipeline.process_ct(&mut b, &mut NoCt);
            assert_eq!(slow.verdict.decision(), reference.decision(), "port {port}");
        }
    }

    #[test]
    fn action_program_replays_to_same_decision() {
        let pipeline = pipeline_with_entries(vec![
            FlowEntry::new(
                FlowMatch::any().with_exact(Field::TcpDst, 80),
                100,
                terminal_actions(vec![
                    Action::SetField(Field::Ipv4Dst, 0x0a00_0001),
                    Action::Output(4),
                ]),
            ),
            FlowEntry::new(FlowMatch::any(), 1, vec![]),
        ]);
        let mut first = PacketBuilder::tcp()
            .tcp_dst(80)
            .ipv4_dst([192, 0, 2, 1])
            .build();
        let result = classify(&pipeline, &mut first);
        assert_eq!(result.verdict.outputs, vec![4]);
        // Replaying the cached program on a fresh packet of the same flow
        // must produce the same rewrite and output.
        let mut second = PacketBuilder::tcp()
            .tcp_dst(80)
            .ipv4_dst([192, 0, 2, 1])
            .build();
        let mut key = FlowKey::extract(&second);
        let outs = apply_action_list(&result.actions, &mut second, &mut key);
        assert_eq!(outs, vec![OutputKind::Port(4)]);
        assert_eq!(FlowKey::extract(&second).ipv4_dst, Some(0x0a00_0001));
    }

    #[test]
    fn mask_includes_fields_of_higher_priority_misses() {
        // Packet matches the catch-all, but the port-80 rule was examined, so
        // the megaflow must pin the port (otherwise a later port-80 packet
        // would wrongly reuse it).
        let pipeline = pipeline_with_entries(vec![
            port_entry(100, 80, 1),
            FlowEntry::new(
                FlowMatch::any(),
                1,
                terminal_actions(vec![Action::Output(9)]),
            ),
        ]);
        let mut pkt = PacketBuilder::tcp().tcp_dst(443).build();
        let result = classify(&pipeline, &mut pkt);
        assert!(result.mask.mask_of(Field::TcpDst) != 0);
    }

    #[test]
    fn prefix_tracking_limits_unwildcarded_bits_on_mismatch() {
        // 443 = 0b0000_0001_1011_1011, 80 = 0b0000_0000_0101_0000: the first
        // difference seen from the MSB is at bit position 7 (value 0x100), so
        // only the top 8 bits need pinning, not the full 16.
        let catch_all = || {
            FlowEntry::new(
                FlowMatch::any(),
                1,
                terminal_actions(vec![Action::Output(9)]),
            )
        };
        let pipeline = pipeline_with_entries(vec![port_entry(100, 80, 1), catch_all()]);
        let mut pkt = PacketBuilder::tcp().tcp_dst(443).build();
        let tracked = classify(&pipeline, &mut pkt);
        assert_eq!(tracked.mask.mask_of(Field::TcpDst), 0xff00);

        // An untracked field proven different pins the rule's whole mask.
        let mac = FlowMatch::any().with_exact(Field::EthSrc, 0x0200_0000_0001);
        let pipeline = pipeline_with_entries(vec![
            FlowEntry::new(mac, 100, terminal_actions(vec![Action::Output(1)])),
            catch_all(),
        ]);
        let mut pkt = PacketBuilder::tcp().eth_src([2, 0, 0, 0, 0, 0x80]).build();
        let untracked = classify(&pipeline, &mut pkt);
        assert_eq!(untracked.mask.mask_of(Field::EthSrc), 0xffff_ffff_ffff);
    }

    #[test]
    fn helper_math() {
        assert_eq!(top_bits_mask(0, 16), 0);
        assert_eq!(top_bits_mask(8, 16), 0xff00);
        assert_eq!(top_bits_mask(16, 16), 0xffff);
        // 0b1011_1110 vs 0b1011_1111 differ at the last bit -> all 8 bits.
        assert_eq!(prefix_to_first_difference(0xbe, 0xbf, 0xff, 8), 0xff);
        // 0b1001_1111 vs 0b1011_1111 differ at bit 3 from the MSB.
        assert_eq!(prefix_to_first_difference(0x9f, 0xbf, 0xff, 8), 0xe0);
        // Equal under the mask: the rule mask itself is returned.
        assert_eq!(prefix_to_first_difference(0xbf, 0xbf, 0xf0, 8), 0xf0);
    }

    #[test]
    fn matched_rule_pins_its_full_mask() {
        // A match on tcp_dst=80 must pin all 16 port bits; otherwise the
        // megaflow would also cover ports that should fall through to the
        // catch-all.
        let pipeline = pipeline_with_entries(vec![
            port_entry(100, 80, 1),
            FlowEntry::new(
                FlowMatch::any(),
                1,
                terminal_actions(vec![Action::Output(9)]),
            ),
        ]);
        let mut pkt = PacketBuilder::tcp().tcp_dst(80).build();
        let result = classify(&pipeline, &mut pkt);
        assert_eq!(result.mask.mask_of(Field::TcpDst), 0xffff);
    }

    #[test]
    fn table_miss_behaviours_reflected_in_program() {
        let mut p = Pipeline::with_tables(1);
        p.table_mut(0).unwrap().miss = TableMissBehavior::ToController;
        let mut pkt = PacketBuilder::tcp().build();
        let result = classify(&p, &mut pkt);
        assert!(result.verdict.to_controller);
        assert_eq!(&result.actions[..], &[Action::ToController]);
    }

    #[test]
    fn multi_stage_pipeline_accumulates_masks_across_tables() {
        // Table 0 matches in_port and jumps to table 1, which matches tcp_dst.
        let mut p = Pipeline::with_tables(2);
        p.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::InPort, 0),
            10,
            vec![Instruction::GotoTable(1)],
        ));
        p.table_mut(1).unwrap().insert(port_entry(10, 80, 5));
        p.table_mut(1)
            .unwrap()
            .insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));

        let mut pkt = PacketBuilder::tcp().tcp_dst(80).in_port(0).build();
        let result = classify(&p, &mut pkt);
        assert_eq!(result.verdict.outputs, vec![5]);
        assert_ne!(result.mask.mask_of(Field::InPort), 0);
        assert_ne!(result.mask.mask_of(Field::TcpDst), 0);
        assert_eq!(result.verdict.tables_visited, 2);
    }
}
