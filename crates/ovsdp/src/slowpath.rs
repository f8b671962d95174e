//! The slow path: full OpenFlow pipeline classification plus megaflow mask
//! construction ("un-wildcarding").
//!
//! This is the `vswitchd` level of the OVS hierarchy. For a packet that missed
//! both caches it runs the interpreter's own walk ([`Pipeline::walk`]), so
//! OVS's instruction semantics are the oracle's by construction, with a
//! recorder watching it: (1) the *action program* — every apply-actions
//! list the packet experienced, a punting miss, and the action-set flush, in
//! order — so the caches can replay it on later packets, and (2) the megaflow
//! mask: every field that influenced the decision is un-wildcarded, and on
//! the prefix-tracked address and port fields only the bits down to the
//! first difference a failed comparison needed.
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

use openflow::ct::{ConnCtx, NoCt};
use openflow::{Action, Field, FlowEntry, FlowKey, FlowTable, Pipeline, Verdict, WalkObserver};
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
        record(pipeline, packet, key, ct, FlowTable::lookup_unwildcarding)
    }
}

/// Runs the walk with `lookup` as its per-table matcher, un-wildcarding into
/// the recorder's mask, and packages what the recorder saw.
fn record(
    pipeline: &Pipeline,
    packet: &mut Packet,
    key: &mut FlowKey,
    ct: &mut dyn ConnCtx,
    lookup: impl for<'t> Fn(&'t FlowTable, &FlowKey, &mut FieldMask) -> (Option<&'t FlowEntry>, usize),
) -> SlowPathResult {
    let mut recorder = Recorder {
        program: Vec::new(),
        mask: FieldMask::wildcard_all(),
        cacheable: true,
    };
    let verdict = pipeline.walk(packet, key, ct, &mut recorder, |table, key, recorder| {
        lookup(table, key, &mut recorder.mask)
    });
    SlowPathResult {
        actions: Arc::new(Program::new(recorder.program, verdict.punt_reason)),
        mask: recorder.mask,
        verdict,
        cacheable: recorder.cacheable,
    }
}

/// What the slow path keeps of a walk: the program, the megaflow mask, and
/// whether a ct deny truncated the program.
struct Recorder {
    program: Vec<Action>,
    mask: FieldMask,
    cacheable: bool,
}

impl WalkObserver for Recorder {
    fn applied(&mut self, actions: &[Action], denied: bool) {
        self.program.extend_from_slice(actions);
        if actions.iter().any(|a| matches!(a, Action::Ct(_))) {
            // The decision now depends on per-connection state: the
            // megaflow is exact on everything that identifies the
            // connection.
            for field in [
                Field::IpProto,
                Field::Ipv4Src,
                Field::Ipv4Dst,
                Field::TcpSrc,
                Field::TcpDst,
                Field::UdpSrc,
                Field::UdpDst,
            ] {
                self.mask.unwildcard(field, field.full_mask());
            }
        }
        self.cacheable &= !denied;
    }

    fn punted(&mut self) {
        self.program.push(Action::ToController);
    }

    fn flushed(&mut self, actions: &[Action]) {
        self.program.extend_from_slice(actions);
    }
}

#[cfg(test)]
mod reference_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::action::{apply_action_list, OutputKind};
    use openflow::flow_match::FlowMatch;
    use openflow::instruction::terminal_actions;
    use openflow::tuple_index::{prefix_to_first_difference, top_bits_mask};
    use openflow::{Instruction, TableMissBehavior};
    use pkt::builder::PacketBuilder;
    use pkt::parser::{parse, ParseDepth};

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
        let headers = parse(second.data(), ParseDepth::L4);
        let mut outs = Vec::new();
        let sink = |out| outs.push(out);
        apply_action_list(
            &result.actions,
            &mut second,
            &mut key,
            headers,
            sink,
            &mut NoCt,
        );
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
    fn a_miss_that_ends_the_walk_leaves_the_action_set_unexecuted() {
        // Table 0 writes `Output(3)` into the action set and jumps to table
        // 1, the last table, which is empty: every packet misses there, and
        // whichever way the miss ends the walk, the set never runs.
        for (miss, punts, program) in [
            (TableMissBehavior::Drop, false, vec![]),
            (
                TableMissBehavior::ToController,
                true,
                vec![Action::ToController],
            ),
            (TableMissBehavior::Continue, false, vec![]),
        ] {
            let mut p = Pipeline::with_tables(2);
            p.table_mut(0).unwrap().insert(FlowEntry::new(
                FlowMatch::any(),
                10,
                vec![
                    Instruction::WriteActions(vec![Action::Output(3)]),
                    Instruction::GotoTable(1),
                ],
            ));
            p.table_mut(1).unwrap().miss = miss;
            let mut a = PacketBuilder::tcp().tcp_dst(80).build();
            let mut b = a.clone();
            let interpreted = p.process_ct(&mut a, &mut NoCt);
            assert_eq!(interpreted.decision(), (vec![], false, punts), "{miss:?}");
            let slow = classify(&p, &mut b);
            assert_eq!(slow.verdict.decision(), interpreted.decision(), "{miss:?}");
            assert_eq!(&slow.actions[..], &program[..], "{miss:?}");
            assert!(slow.cacheable);
        }
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
