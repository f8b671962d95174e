//! The OpenFlow pipeline: a linked hierarchy of flow tables, plus the
//! reference processing semantics every datapath must agree with.

use std::fmt;

use pkt::parser::{parse, ParseDepth};
use pkt::Packet;

use crate::action::{apply_action_list, Action, ActionSet, OutputKind};
use crate::ct::ConnCtx;
use crate::entry::FlowEntry;
use crate::instruction::Instruction;
use crate::key::FlowKey;
use crate::messages::PacketInReason;
use crate::portlist::PortList;
use crate::table::{FlowTable, TableMissBehavior};

/// Identifier of a flow table within a pipeline.
///
/// OpenFlow limits the wire-visible table space to 255 tables; the internal
/// decomposition pass of ESWITCH may create more ("we are not restricted by
/// OpenFlow's limit on maximum flow table number here, since decomposition is
/// internal"), so table ids are a full `u32` internally.
pub type TableId = u32;

/// Errors raised while building or walking a pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A `goto_table` instruction referenced a table that does not exist.
    NoSuchTable(TableId),
    /// A `goto_table` instruction pointed backwards (or to the same table),
    /// which OpenFlow forbids because it could loop forever.
    BackwardGoto {
        /// Table containing the offending instruction.
        from: TableId,
        /// Referenced table.
        to: TableId,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::NoSuchTable(t) => write!(f, "goto_table references missing table {t}"),
            PipelineError::BackwardGoto { from, to } => {
                write!(f, "goto_table from table {from} to non-later table {to}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// The forwarding decision for one packet after pipeline processing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Verdict {
    /// Ports the (possibly rewritten) packet must be transmitted on.
    /// Inline up to four ports so cache hits never allocate.
    pub outputs: PortList,
    /// True if the packet must be flooded on all ports but the ingress one.
    pub flood: bool,
    /// True if the packet (or a copy) must be sent to the controller.
    pub to_controller: bool,
    /// Why the packet was punted, when `to_controller` is set: a table miss
    /// leaves the default `NoMatch`; an explicit output-to-controller action
    /// flips it to `Action`. The punting runtimes forward this on the
    /// packet-in so a reactive controller can tell the two apart. Not part
    /// of [`Verdict::decision`].
    pub punt_reason: PacketInReason,
    /// Number of flow tables the packet traversed.
    pub tables_visited: u32,
    /// Total number of flow entries examined across all tables — the "work"
    /// metric of the direct datapath.
    pub entries_examined: u32,
}

impl Verdict {
    /// True when the packet is dropped (no output, no flood, no controller).
    pub fn is_drop(&self) -> bool {
        self.outputs.is_empty() && !self.flood && !self.to_controller
    }

    /// Convenience constructor used by caches: forward to a single port.
    pub fn output(port: u32) -> Self {
        Verdict {
            outputs: PortList::one(port),
            ..Default::default()
        }
    }

    /// Convenience constructor used by caches: drop.
    pub fn drop() -> Self {
        Verdict::default()
    }

    /// Merges an [`OutputKind`] into the verdict.
    pub fn add(&mut self, out: OutputKind) {
        match out {
            OutputKind::Port(p) => self.outputs.push(p),
            OutputKind::Flood => self.flood = true,
            OutputKind::Controller => {
                self.to_controller = true;
                self.punt_reason = PacketInReason::Action;
            }
            OutputKind::Drop => {}
        }
    }

    /// The forwarding decision without the work accounting — what flow caches
    /// store, and what semantic-equivalence tests compare.
    pub fn decision(&self) -> (Vec<u32>, bool, bool) {
        (self.outputs.to_vec(), self.flood, self.to_controller)
    }
}

/// A complete OpenFlow pipeline: tables indexed by id, starting at table 0.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    tables: Vec<FlowTable>,
}

impl Pipeline {
    /// Creates an empty pipeline (packets are dropped until a table 0 exists).
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// Creates a pipeline with `count` empty tables numbered `0..count`.
    pub fn with_tables(count: u32) -> Self {
        let mut p = Pipeline::new();
        for id in 0..count {
            p.add_table(FlowTable::new(id));
        }
        p
    }

    /// Adds a table.
    ///
    /// # Panics
    /// Panics if a table with the same id already exists.
    pub fn add_table(&mut self, table: FlowTable) -> &mut FlowTable {
        assert!(
            self.table(table.id).is_none(),
            "duplicate table id {}",
            table.id
        );
        let id = table.id;
        self.tables.push(table);
        self.tables.sort_by_key(|t| t.id);
        self.table_mut(id).expect("just inserted")
    }

    /// Ensures a table with this id exists and returns it mutably.
    pub fn table_mut_or_create(&mut self, id: TableId) -> &mut FlowTable {
        if self.table(id).is_none() {
            self.tables.push(FlowTable::new(id));
            self.tables.sort_by_key(|t| t.id);
        }
        self.table_mut(id).expect("just created")
    }

    /// Looks up a table by id.
    pub fn table(&self, id: TableId) -> Option<&FlowTable> {
        self.tables.iter().find(|t| t.id == id)
    }

    /// Looks up a table by id, mutably.
    pub fn table_mut(&mut self, id: TableId) -> Option<&mut FlowTable> {
        self.tables.iter_mut().find(|t| t.id == id)
    }

    /// Removes a table by id, returning it if present. Used by transactional
    /// flow-mod rollback when an add implicitly created the table.
    pub fn remove_table(&mut self, id: TableId) -> Option<FlowTable> {
        let pos = self.tables.iter().position(|t| t.id == id)?;
        Some(self.tables.remove(pos))
    }

    /// All tables in ascending id order.
    pub fn tables(&self) -> &[FlowTable] {
        &self.tables
    }

    /// All tables, mutably.
    pub fn tables_mut(&mut self) -> &mut [FlowTable] {
        &mut self.tables
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total number of flow entries across all tables.
    pub fn entry_count(&self) -> usize {
        self.tables.iter().map(FlowTable::len).sum()
    }

    /// Validates every `goto_table` reference (target exists and is a later
    /// table). Datapath compilers call this before accepting a pipeline.
    pub fn validate(&self) -> Result<(), PipelineError> {
        for table in &self.tables {
            for entry in table.entries() {
                if let Some(target) = entry.goto_target() {
                    if target <= table.id {
                        return Err(PipelineError::BackwardGoto {
                            from: table.id,
                            to: target,
                        });
                    }
                    if self.table(target).is_none() {
                        return Err(PipelineError::NoSuchTable(target));
                    }
                }
            }
        }
        Ok(())
    }

    /// Bitmask (by [`Field::index`](crate::Field::index)) of the match
    /// fields that the strict goto-graph ancestors of `tables` can rewrite:
    /// the tables from which a packet can reach one of `tables` through
    /// `GotoTable` instructions and `Continue` misses, each contributing what
    /// its entries' instructions rewrite
    /// ([`written_match_fields`](crate::instruction::written_match_fields)).
    /// A packet's key at table T has been rewritten only by the
    /// apply-actions of the tables it passed on the way, and each of those
    /// reaches T; so a match in T on a field outside this mask reads the
    /// packet's extraction-time value. Flow caches keyed on extraction-time
    /// keys use that to invalidate selectively.
    ///
    /// Reads the per-table summaries only: O(tables + goto edges), never
    /// O(entries). It relies on gotos running forward, to an existing later
    /// table, which [`apply_flow_mod`](crate::flow_mod::apply_flow_mod)
    /// enforces; a hand-built pipeline holding a backward goto gets every
    /// bit, the answer that is sound for any graph.
    pub fn fields_written_upstream(&self, tables: &[TableId]) -> u64 {
        // Every edge runs from a lower to a higher table id, so one pass from
        // the highest table down settles each table's successors before the
        // table itself. `reaches[i]`: table i is one of `tables` or an
        // ancestor of one.
        let mut reaches = vec![false; self.tables.len()];
        let mut written = 0u64;
        for (i, table) in self.tables.iter().enumerate().rev() {
            if table.goto_targets().next().is_some_and(|to| to <= table.id) {
                return u64::MAX;
            }
            let reached = |to: TableId| {
                self.tables
                    .binary_search_by_key(&to, |t| t.id)
                    .is_ok_and(|j| reaches[j])
            };
            let ancestor = (table.miss == TableMissBehavior::Continue
                && reaches.get(i + 1) == Some(&true))
                || table.goto_targets().any(reached);
            if ancestor {
                written |= table.written_fields();
            }
            reaches[i] = ancestor || tables.contains(&table.id);
        }
        written
    }

    /// Reference pipeline processing ("direct datapath" semantics, §2.1),
    /// with `ct` threaded through ct actions ([`NoCt`](crate::ct::NoCt) for
    /// stateless pipelines): [`Pipeline::walk`] with the linear
    /// [`FlowTable::scan`] and no observer. [`DirectDatapath`](crate::DirectDatapath)
    /// runs every packet through it; the frozen `benchmark/src/sut.rs`
    /// oracle calls it directly.
    pub fn process_ct(&self, packet: &mut Packet, ct: &mut dyn ConnCtx) -> Verdict {
        let mut key = FlowKey::extract(packet);
        self.walk(packet, &mut key, ct, &mut (), FlowTable::scan)
    }

    /// The pipeline walk: the one implementation of OpenFlow's instruction
    /// semantics, run by the interpreter and by the OVS slow path.
    ///
    /// The packet is looked up from table 0, each table classified by
    /// `matcher`: the entry it picks and the number of entries a linear scan
    /// examines to pick it. The matched entry's instructions run in order:
    /// apply-actions rewrite `packet` and `key` in place, write- and
    /// clear-actions edit the action set, metadata is written, and a goto
    /// moves on. An entry without a goto ends the walk, and the accumulated
    /// action set runs. A table miss drops, punts, or continues at the next
    /// table, per the table's miss behaviour; a miss that ends the walk
    /// leaves the action set unexecuted, as does a goto to a missing table.
    /// A ct deny halts the walk: no further instructions or tables, no
    /// flush, and every decision merged so far is discarded — the verdict is
    /// a drop.
    ///
    /// `observer` is told each apply-actions list (and whether it was
    /// denied), a punting table miss, and the action-set flush; `matcher`
    /// receives it too, so a recorder can collect what the lookups
    /// consulted. Records each table's lookup and match counters and each
    /// matched entry's.
    pub fn walk<O: WalkObserver>(
        &self,
        packet: &mut Packet,
        key: &mut FlowKey,
        ct: &mut dyn ConnCtx,
        observer: &mut O,
        mut matcher: impl for<'t> FnMut(
            &'t FlowTable,
            &FlowKey,
            &mut O,
        ) -> (Option<&'t FlowEntry>, usize),
    ) -> Verdict {
        let mut verdict = Verdict::default();
        let mut action_set = ActionSet::new();
        let mut table_id: TableId = 0;
        while let Some(table) = self.table(table_id) {
            verdict.tables_visited += 1;
            table.lookups.record(0);
            let (hit, examined) = matcher(table, key, observer);
            verdict.entries_examined += examined as u32;
            let Some(entry) = hit else {
                match table.miss {
                    TableMissBehavior::Drop => {}
                    TableMissBehavior::ToController => {
                        verdict.to_controller = true;
                        observer.punted();
                    }
                    TableMissBehavior::Continue => {
                        if let Some(next) =
                            self.tables.iter().map(|t| t.id).find(|id| *id > table_id)
                        {
                            table_id = next;
                            continue;
                        }
                    }
                }
                return verdict;
            };
            table.matches.record(0);
            entry.record(packet.len());
            let mut next = None;
            for instruction in &entry.instructions {
                match instruction {
                    Instruction::ApplyActions(actions) => {
                        let headers = parse(packet.data(), ParseDepth::L4);
                        let denied = apply_action_list(
                            actions,
                            packet,
                            key,
                            headers,
                            |out| verdict.add(out),
                            ct,
                        );
                        observer.applied(actions, denied);
                        if denied {
                            return Verdict {
                                tables_visited: verdict.tables_visited,
                                entries_examined: verdict.entries_examined,
                                ..Verdict::default()
                            };
                        }
                    }
                    Instruction::WriteActions(actions) => {
                        for a in actions {
                            action_set.write(a.clone());
                        }
                    }
                    Instruction::ClearActions => action_set.clear(),
                    Instruction::WriteMetadata { value, mask } => {
                        key.metadata = (key.metadata & !mask) | (value & mask);
                    }
                    Instruction::GotoTable(t) => next = Some(*t),
                    Instruction::Meter(_) => {}
                }
            }
            match next {
                Some(t) => table_id = t,
                None => {
                    if !action_set.is_empty() {
                        // An action set holds no ct action, so it cannot be
                        // denied.
                        let list = action_set.to_action_list();
                        let headers = parse(packet.data(), ParseDepth::L4);
                        apply_action_list(&list, packet, key, headers, |out| verdict.add(out), ct);
                        observer.flushed(&list);
                    }
                    return verdict;
                }
            }
        }
        verdict
    }
}

/// What [`Pipeline::walk`] reports beside the verdict, for a caller that
/// records the walk (the OVS slow path builds its cached program and
/// megaflow mask from it). Every method does nothing by default; `()` is
/// the interpreter's observer.
pub trait WalkObserver {
    /// An apply-actions list ran; `denied` when a ct action in it halted the
    /// walk (the actions after it did not run).
    fn applied(&mut self, _actions: &[Action], _denied: bool) {}
    /// A table miss punted the packet to the controller.
    fn punted(&mut self) {}
    /// The action set ran at the end of the walk, as `actions`.
    fn flushed(&mut self, _actions: &[Action]) {}
}

impl WalkObserver for () {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ct::NoCt;
    use crate::field::Field;
    use crate::flow_match::FlowMatch;
    use crate::instruction::{actions_then_goto, terminal_actions};
    use pkt::builder::PacketBuilder;

    /// The single-table firewall of Fig. 1a.
    fn firewall_single_stage() -> Pipeline {
        let mut p = Pipeline::with_tables(1);
        let t = p.table_mut(0).unwrap();
        // internal port = 1, external port = 0; web server at 192.0.2.1.
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::InPort, 1),
            300,
            terminal_actions(vec![Action::Output(0)]),
        ));
        t.insert(FlowEntry::new(
            FlowMatch::any()
                .with_exact(Field::InPort, 0)
                .with_exact(Field::Ipv4Dst, u128::from(0xc0000201u32))
                .with_exact(Field::TcpDst, 80),
            200,
            terminal_actions(vec![Action::Output(1)]),
        ));
        t.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
        p
    }

    /// The equivalent two-stage firewall of Fig. 1b.
    fn firewall_multi_stage() -> Pipeline {
        let mut p = Pipeline::with_tables(2);
        {
            let t0 = p.table_mut(0).unwrap();
            t0.insert(FlowEntry::new(
                FlowMatch::any().with_exact(Field::InPort, 1),
                300,
                terminal_actions(vec![Action::Output(0)]),
            ));
            t0.insert(FlowEntry::new(
                FlowMatch::any().with_exact(Field::InPort, 0),
                200,
                vec![Instruction::GotoTable(1)],
            ));
        }
        {
            let t1 = p.table_mut(1).unwrap();
            t1.insert(FlowEntry::new(
                FlowMatch::any()
                    .with_exact(Field::Ipv4Dst, u128::from(0xc0000201u32))
                    .with_exact(Field::TcpDst, 80),
                100,
                terminal_actions(vec![Action::Output(1)]),
            ));
            t1.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
        }
        p
    }

    fn web_packet(in_port: u32, dst_port: u16) -> Packet {
        PacketBuilder::tcp()
            .ipv4_dst([192, 0, 2, 1])
            .tcp_dst(dst_port)
            .in_port(in_port)
            .build()
    }

    #[test]
    fn firewall_semantics_single_stage() {
        let p = firewall_single_stage();
        p.validate().unwrap();

        let mut from_inside = web_packet(1, 12345);
        assert_eq!(p.process_ct(&mut from_inside, &mut NoCt).outputs, vec![0]);

        let mut http_in = web_packet(0, 80);
        assert_eq!(p.process_ct(&mut http_in, &mut NoCt).outputs, vec![1]);

        let mut ssh_in = web_packet(0, 22);
        assert!(p.process_ct(&mut ssh_in, &mut NoCt).is_drop());
    }

    #[test]
    fn multi_stage_firewall_is_equivalent() {
        let single = firewall_single_stage();
        let multi = firewall_multi_stage();
        multi.validate().unwrap();
        for (in_port, dst_port) in [(1u32, 443u16), (0, 80), (0, 22), (1, 80), (0, 443)] {
            let mut a = web_packet(in_port, dst_port);
            let mut b = a.clone();
            assert_eq!(
                single.process_ct(&mut a, &mut NoCt).decision(),
                multi.process_ct(&mut b, &mut NoCt).decision(),
                "in_port={in_port} dst_port={dst_port}"
            );
        }
        // The multi-stage pipeline visits two tables for external traffic.
        let mut http_in = web_packet(0, 80);
        assert_eq!(multi.process_ct(&mut http_in, &mut NoCt).tables_visited, 2);
    }

    #[test]
    fn apply_actions_rewrite_then_goto() {
        // Table 0 rewrites the destination IP then sends to table 1, which
        // matches on the rewritten value.
        let mut p = Pipeline::with_tables(2);
        p.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any(),
            10,
            actions_then_goto(vec![Action::SetField(Field::Ipv4Dst, 0x0a00_0001)], 1),
        ));
        p.table_mut(1).unwrap().insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::Ipv4Dst, 0x0a00_0001),
            10,
            terminal_actions(vec![Action::Output(7)]),
        ));
        let mut pkt = web_packet(0, 80);
        let verdict = p.process_ct(&mut pkt, &mut NoCt);
        assert_eq!(verdict.outputs, vec![7]);
        assert_eq!(FlowKey::extract(&pkt).ipv4_dst, Some(0x0a00_0001));
    }

    #[test]
    fn write_actions_execute_at_pipeline_exit() {
        let mut p = Pipeline::with_tables(2);
        p.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any(),
            10,
            vec![
                Instruction::WriteActions(vec![Action::Output(3)]),
                Instruction::GotoTable(1),
            ],
        ));
        // Table 1: the matched entry overrides the output in the action set.
        p.table_mut(1).unwrap().insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, 80),
            10,
            vec![Instruction::WriteActions(vec![Action::Output(5)])],
        ));
        p.table_mut(1)
            .unwrap()
            .insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));

        let mut http = web_packet(0, 80);
        assert_eq!(p.process_ct(&mut http, &mut NoCt).outputs, vec![5]);
        let mut other = web_packet(0, 22);
        assert_eq!(p.process_ct(&mut other, &mut NoCt).outputs, vec![3]);
    }

    #[test]
    fn clear_actions_drops_accumulated_set() {
        let mut p = Pipeline::with_tables(2);
        p.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any(),
            10,
            vec![
                Instruction::WriteActions(vec![Action::Output(3)]),
                Instruction::GotoTable(1),
            ],
        ));
        p.table_mut(1).unwrap().insert(FlowEntry::new(
            FlowMatch::any(),
            10,
            vec![Instruction::ClearActions],
        ));
        let mut pkt = web_packet(0, 80);
        assert!(p.process_ct(&mut pkt, &mut NoCt).is_drop());
    }

    #[test]
    fn metadata_written_and_matched() {
        let mut p = Pipeline::with_tables(2);
        p.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any(),
            10,
            vec![
                Instruction::WriteMetadata {
                    value: 0x5,
                    mask: 0xf,
                },
                Instruction::GotoTable(1),
            ],
        ));
        p.table_mut(1).unwrap().insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::Metadata, 0x5),
            10,
            terminal_actions(vec![Action::Output(9)]),
        ));
        let mut pkt = web_packet(0, 80);
        assert_eq!(p.process_ct(&mut pkt, &mut NoCt).outputs, vec![9]);
    }

    #[test]
    fn table_miss_behaviours() {
        let mut p = Pipeline::with_tables(2);
        p.table_mut(0).unwrap().miss = TableMissBehavior::Continue;
        p.table_mut(1).unwrap().miss = TableMissBehavior::ToController;
        let mut pkt = web_packet(0, 80);
        let verdict = p.process_ct(&mut pkt, &mut NoCt);
        assert!(verdict.to_controller);
        assert_eq!(verdict.tables_visited, 2);

        let mut drop_pipeline = Pipeline::with_tables(1);
        drop_pipeline.table_mut(0).unwrap().miss = TableMissBehavior::Drop;
        let mut pkt = web_packet(0, 80);
        assert!(drop_pipeline.process_ct(&mut pkt, &mut NoCt).is_drop());
    }

    #[test]
    fn validation_rejects_bad_gotos() {
        let mut p = Pipeline::with_tables(2);
        p.table_mut(1).unwrap().insert(FlowEntry::new(
            FlowMatch::any(),
            1,
            vec![Instruction::GotoTable(0)],
        ));
        assert_eq!(
            p.validate(),
            Err(PipelineError::BackwardGoto { from: 1, to: 0 })
        );

        let mut p = Pipeline::with_tables(1);
        p.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any(),
            1,
            vec![Instruction::GotoTable(9)],
        ));
        assert_eq!(p.validate(), Err(PipelineError::NoSuchTable(9)));
    }

    fn bits(fields: &[Field]) -> u64 {
        fields.iter().fold(0, |b, f| b | 1 << f.index())
    }

    /// The access gateway's shape (Fig. 8): a demux that rewrites nothing,
    /// CE tables that rewrite `Ipv4Src` and pop the VLAN on the way to
    /// routing, and a downstream table that rewrites on its way out.
    fn gateway_shape() -> Pipeline {
        let mut p = Pipeline::new();
        for id in [0, 1, 2, 110, 120] {
            p.add_table(FlowTable::new(id));
        }
        for ce in [1, 2] {
            p.table_mut(0).unwrap().insert(FlowEntry::new(
                FlowMatch::any().with_exact(Field::VlanVid, u128::from(ce) + 100),
                200,
                vec![Instruction::GotoTable(ce)],
            ));
            p.table_mut(ce).unwrap().insert(FlowEntry::new(
                FlowMatch::any().with_exact(Field::Ipv4Src, 0x0a00_0002),
                100,
                actions_then_goto(
                    vec![
                        Action::SetField(Field::Ipv4Src, 0x6440_0002),
                        Action::PopVlan,
                    ],
                    110,
                ),
            ));
        }
        p.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any(),
            1,
            vec![Instruction::GotoTable(120)],
        ));
        p.table_mut(120).unwrap().insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::Ipv4Dst, 0x6440_0002),
            100,
            terminal_actions(vec![
                Action::SetField(Field::Ipv4Dst, 0x0a00_0002),
                Action::PushVlan(0x8100),
                Action::Output(0),
            ]),
        ));
        p
    }

    #[test]
    fn gate_sees_only_goto_graph_ancestors() {
        let p = gateway_shape();
        p.validate().unwrap();
        // A sibling CE table's rewrites are upstream of routing alone.
        assert_eq!(p.fields_written_upstream(&[0]), 0);
        assert_eq!(p.fields_written_upstream(&[1]), 0);
        assert_eq!(p.fields_written_upstream(&[120]), 0);
        assert_eq!(p.fields_written_upstream(&[1, 120]), 0);
        let ce_rewrites = bits(&[Field::Ipv4Src, Field::VlanVid, Field::VlanPcp]);
        assert_eq!(p.fields_written_upstream(&[110]), ce_rewrites);
        assert_eq!(p.fields_written_upstream(&[110, 120]), ce_rewrites);
        // A touched table that is itself upstream of another touched table
        // counts; one that is not (table 120 writes, reaches nothing) does
        // not.
        assert_eq!(p.fields_written_upstream(&[1, 110]), ce_rewrites);
    }

    #[test]
    fn gate_follows_continue_misses_and_refuses_backward_gotos() {
        // Table 0 rewrites Ipv4Dst and stops, or misses on to table 1, whose
        // miss continues to table 2: the miss edges make 0 upstream of 2.
        let mut p = Pipeline::with_tables(3);
        p.table_mut(0).unwrap().insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, 80),
            10,
            terminal_actions(vec![Action::SetField(Field::Ipv4Dst, 1)]),
        ));
        p.table_mut(0).unwrap().miss = TableMissBehavior::Continue;
        p.table_mut(1).unwrap().miss = TableMissBehavior::Continue;
        assert_eq!(p.fields_written_upstream(&[2]), bits(&[Field::Ipv4Dst]));
        p.table_mut(1).unwrap().miss = TableMissBehavior::Drop;
        assert_eq!(p.fields_written_upstream(&[2]), 0);
        assert_eq!(p.fields_written_upstream(&[1]), bits(&[Field::Ipv4Dst]));

        // Only a hand-built pipeline can hold a backward goto; the gate then
        // suspects every field.
        p.table_mut(2).unwrap().insert(FlowEntry::new(
            FlowMatch::any(),
            1,
            vec![Instruction::GotoTable(1)],
        ));
        assert_eq!(p.fields_written_upstream(&[2]), u64::MAX);
    }

    #[test]
    fn entry_counters_updated() {
        let p = firewall_single_stage();
        let mut pkt = web_packet(0, 80);
        p.process_ct(&mut pkt, &mut NoCt);
        let table = p.table(0).unwrap();
        let http_entry = &table.entries()[1];
        assert_eq!(http_entry.counters.packets(), 1);
        assert_eq!(table.lookups.packets(), 1);
        assert_eq!(table.matches.packets(), 1);
    }

    #[test]
    fn work_accounting_grows_with_entries_examined() {
        let p = firewall_single_stage();
        let mut ssh = web_packet(0, 22);
        let verdict = p.process_ct(&mut ssh, &mut NoCt);
        // Examined all three entries of the single table.
        assert_eq!(verdict.entries_examined, 3);
    }
}
