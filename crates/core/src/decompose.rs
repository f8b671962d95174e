//! Flow table decomposition (§3.2, Figs. 5–6, and the Appendix).
//!
//! A complex table that would only fit the slow linked-list template is
//! split into an equivalent chain of stages that each match on a single
//! field — and therefore fit the exact-match (compound hash) template. The
//! split follows the greedy heuristic of
//! Fig. 6: pick the column of minimal key diversity, split the table along
//! it (wildcard rows are replicated into every sub-table in priority order),
//! and recurse. Finding the *minimum* number of regular tables is coNP-hard
//! (Appendix Theorem 1, reproduced in [`sat`]), which is why a heuristic is
//! the right tool.
//!
//! Decomposition is the compiler's choice, not a pass over the pipeline. The
//! paper notes that for production pipelines "in essentially all cases our
//! decomposer simply returned its input intact"; here the compiler
//! (`compile::layout`) decomposes only a table that would compile to the
//! linked list, keeps the chain only when the performance model charges it
//! less, and compiles it in the table's place, leaving the pipeline as is.
//! The split is planned over references to the table's rows and given up
//! past the stage count whose upkeep alone would cost what the list does,
//! so a table whose chain blows up (a wildcarded ACL) costs the compiler a
//! bounded plan, not the chain.

pub mod sat;

use openflow::field::{Field, FieldValue};
use openflow::flow_match::{FlowMatch, MatchField};
use openflow::instruction::Instruction;
use openflow::pipeline::TableId;
use openflow::table::TableMissBehavior;
use openflow::{FlowEntry, FlowTable, Pipeline};

/// Decomposes a single flow table into a chain of single-field exact-match
/// tables, returning the new tables. `next_id` supplies fresh table ids; the
/// first returned table keeps the original table's id so that incoming
/// `goto_table` references stay valid.
///
/// Entries whose instructions are preserved verbatim on the leaf tables;
/// intermediate tables link stages with `goto_table`.
pub fn decompose_table(table: &FlowTable, next_id: &mut TableId) -> Vec<FlowTable> {
    decompose_within(table, next_id, usize::MAX).expect("no stage budget")
}

/// [`decompose_table`], given up (`None`) once it would build more than
/// `budget` stages. The split is planned over row references first and the
/// stages are built only when it fits, so giving up costs no table.
fn decompose_within(
    table: &FlowTable,
    next_id: &mut TableId,
    budget: usize,
) -> Option<Vec<FlowTable>> {
    let entries = table.entries();
    let rows = (0..entries.len())
        .map(|entry| Row { entry, split: 0 })
        .collect();
    let mut plan = Vec::new();
    decompose_rec(table.id, entries, rows, next_id, &mut plan, budget)?;
    Some(plan.into_iter().map(|stage| stage.build(table)).collect())
}

/// A row of a (sub-)table under decomposition: an entry of the original
/// table, less the columns split off above it (one bit per [`Field`]).
#[derive(Debug, Clone, Copy)]
struct Row {
    entry: usize,
    split: u64,
}

fn bit(field: Field) -> u64 {
    1 << field as u64
}

impl Row {
    /// The row's remaining columns.
    fn fields<'a>(&self, entries: &'a [FlowEntry]) -> impl Iterator<Item = &'a MatchField> {
        let split = self.split;
        entries[self.entry]
            .flow_match
            .fields()
            .iter()
            .filter(move |mf| split & bit(mf.field) == 0)
    }
}

/// One planned stage of the chain.
enum Stage {
    /// A table of the rows left, matching on what each row has left.
    Leaf(TableId, Vec<Row>),
    /// A table dispatching on `field`: one goto per key, then the wildcard
    /// rows' sub-table.
    Dispatch {
        id: TableId,
        field: Field,
        keys: Vec<(FieldValue, TableId)>,
        wildcard: Option<TableId>,
    },
}

impl Stage {
    fn build(self, original: &FlowTable) -> FlowTable {
        match self {
            Stage::Leaf(id, rows) => {
                let mut table = FlowTable::named(id, format!("{}-leaf", original.name));
                table.miss = original.miss;
                let entries = original.entries();
                table.set_entries(
                    rows.iter()
                        .map(|row| {
                            let entry = &entries[row.entry];
                            let flow_match = FlowMatch::new(row.fields(entries).copied());
                            FlowEntry::new(flow_match, entry.priority, entry.instructions.clone())
                                .with_cookie(entry.cookie)
                        })
                        .collect(),
                );
                table
            }
            Stage::Dispatch {
                id,
                field,
                keys,
                wildcard,
            } => {
                let mut dispatch = FlowTable::named(id, format!("{}-{:?}", original.name, field));
                dispatch.miss = original.miss;
                for (key, sub_id) in keys {
                    dispatch.insert(FlowEntry::new(
                        FlowMatch::any().with_exact(field, key),
                        10,
                        vec![Instruction::GotoTable(sub_id)],
                    ));
                }
                if let Some(sub_id) = wildcard {
                    dispatch.insert(FlowEntry::new(
                        FlowMatch::any(),
                        1,
                        vec![Instruction::GotoTable(sub_id)],
                    ));
                }
                dispatch
            }
        }
    }
}

/// Recursive step: DECOMPOSE(τ) of Fig. 6, planned into `out`; `None` once
/// `out` would hold more than `budget` stages.
fn decompose_rec(
    id: TableId,
    entries: &[FlowEntry],
    mut rows: Vec<Row>,
    next_id: &mut TableId,
    out: &mut Vec<Stage>,
    budget: usize,
) -> Option<()> {
    if out.len() >= budget {
        return None;
    }
    // 0. Rows behind one that matches everything are never reached; a row
    //    stripped of every column it matched is such a row. Dropping them
    //    keeps them out of every sub-table, and leaves a leaf's wildcard row
    //    where the templates allow one: last.
    if let Some(all) = rows.iter().position(|r| r.fields(entries).next().is_none()) {
        rows.truncate(all + 1);
    }

    // 1. The columns used. Only columns whose every present match is exact
    //    are splittable — the simplified exposition of Fig. 6 disallows
    //    arbitrary masks, and a masked column cannot be dispatched on with
    //    exact-match goto entries.
    let (mut used, mut masked) = (0u64, 0u64);
    for mf in rows.iter().flat_map(|r| r.fields(entries)) {
        used |= bit(mf.field);
        if !mf.is_exact() {
            masked |= bit(mf.field);
        }
    }

    // Base case: the remaining matches span at most one field, or nothing
    // can be split (masked columns only) — emit the table as a leaf.
    if used.count_ones() <= 1 || used & !masked == 0 {
        out.push(Stage::Leaf(id, rows));
        return Some(());
    }

    // 2. Column of minimal key diversity (the first such, in field order).
    let (field, keys) = Field::ALL
        .iter()
        .filter(|f| (used & !masked) & bit(**f) != 0)
        .map(|f| {
            let mut keys: Vec<FieldValue> = rows
                .iter()
                .filter_map(|r| entries[r.entry].flow_match.field(*f))
                .map(|mf| mf.value)
                .collect();
            keys.sort_unstable();
            keys.dedup();
            (*f, keys)
        })
        .min_by_key(|(_, keys)| keys.len())
        .expect("at least two fields");

    // 3–4. One sub-table per distinct key of the chosen column, and one for
    //    rows that wildcard it: exact rows go to their key's sub-table,
    //    wildcard rows to every sub-table (and to the wildcard sub-table),
    //    all with the chosen column split off.
    let mut subtables: Vec<Vec<Row>> = vec![Vec::new(); keys.len()];
    let mut wildcard_rows = Vec::new();
    for row in &rows {
        let split = Row {
            split: row.split | bit(field),
            ..*row
        };
        match entries[row.entry].flow_match.field(field) {
            Some(mf) => {
                let key = keys.binary_search(&mf.value).expect("key collected");
                subtables[key].push(split);
            }
            None => {
                subtables.iter_mut().for_each(|sub| sub.push(split));
                wildcard_rows.push(split);
            }
        }
    }

    // 5. The table for `id` now matches only on `field`, dispatching to the
    //    sub-tables.
    let mut pending = Vec::with_capacity(subtables.len() + 1);
    let mut keys: Vec<(FieldValue, TableId)> = keys.into_iter().map(|k| (k, 0)).collect();
    for ((_, sub_id), rows) in keys.iter_mut().zip(subtables) {
        *sub_id = *next_id;
        pending.push((*next_id, rows));
        *next_id += 1;
    }
    let wildcard = (!wildcard_rows.is_empty()).then(|| {
        pending.push((*next_id, wildcard_rows));
        *next_id += 1;
        *next_id - 1
    });
    out.push(Stage::Dispatch {
        id,
        field,
        keys,
        wildcard,
    });

    // 6. Recurse into every sub-table.
    for (sub_id, rows) in pending {
        decompose_rec(sub_id, entries, rows, next_id, out, budget)?;
    }
    Some(())
}

/// The chain that compiles in place of `table` of `pipeline`: its stages
/// take ids above every table of the pipeline, and a miss anywhere in the
/// chain acts as the table's own miss. That holds for every miss behaviour
/// the stages inherit but `Continue`, which goes to the next table rather
/// than the next stage: the chain reaches that table through a final
/// catch-all instead (and drops where the pipeline ends). `None` when the
/// chain would take more than `budget` stages.
pub(crate) fn decompose_in_place(
    pipeline: &Pipeline,
    table: &FlowTable,
    budget: usize,
) -> Option<Vec<FlowTable>> {
    let ids = pipeline.tables().iter().map(|t| t.id);
    let mut next_id = ids.clone().max().map_or(0, |max| max + 1);
    let mut source = table.clone();
    if table.miss == TableMissBehavior::Continue {
        source.miss = TableMissBehavior::Drop;
        let misses = !table.entries().iter().any(|e| e.flow_match.is_empty());
        if let Some(next) = ids.clone().find(|id| *id > table.id).filter(|_| misses) {
            let to_next = vec![Instruction::GotoTable(next)];
            source.insert(FlowEntry::new(FlowMatch::any(), 0, to_next));
        }
    }
    decompose_within(&source, &mut next_id, budget)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::analysis::TemplateKind;
    use openflow::instruction::terminal_actions;
    use openflow::Action;
    use pkt::builder::PacketBuilder;
    use pkt::Packet;
    use std::collections::BTreeSet;

    /// The Fig. 5a example table: three fields, where decomposing along the
    /// tcp_dst column (diversity 2) is optimal.
    pub(crate) fn fig5_table() -> FlowTable {
        let mut t = FlowTable::new(0);
        let ips = [0x0a000001u32, 0x0a000002, 0x0a000003];
        // Rows: (ip_dst, tcp_dst, action port). The third row wildcards the
        // port, so the table fits no single-stage fast template and must be
        // decomposed (as in Fig. 5a).
        let rows: [(Option<u32>, Option<u16>, u32); 6] = [
            (Some(ips[0]), Some(80), 1),
            (Some(ips[1]), Some(80), 2),
            (Some(ips[2]), None, 3),
            (Some(ips[0]), Some(22), 4),
            (Some(ips[1]), Some(22), 5),
            (None, None, 6),
        ];
        for (i, (ip, port, out)) in rows.iter().enumerate() {
            let mut m = FlowMatch::any();
            if let Some(ip) = ip {
                m = m.with_exact(Field::Ipv4Dst, u128::from(*ip));
            }
            if let Some(port) = port {
                m = m.with_exact(Field::TcpDst, u128::from(*port));
            }
            t.insert(FlowEntry::new(
                m,
                (100 - i) as u16,
                terminal_actions(vec![Action::Output(*out)]),
            ));
        }
        t
    }

    fn semantically_equivalent(a: &Pipeline, b: &Pipeline, packets: &[Packet]) {
        for (i, p) in packets.iter().enumerate() {
            let mut x = p.clone();
            let mut y = p.clone();
            assert_eq!(
                a.process_ct(&mut x, &mut openflow::NoCt).decision(),
                b.process_ct(&mut y, &mut openflow::NoCt).decision(),
                "packet {i} diverged"
            );
        }
    }

    /// The Fig. 5a table without its final catch-all row, missing into the
    /// next table, and with web rules for eight more hosts (10.0.0.5–12):
    /// wide enough that the model charges its chain clearly less than the
    /// linked list.
    pub(crate) fn fig5_continue_table() -> FlowTable {
        let mut table = fig5_table();
        let last = table.entries().last().unwrap().clone();
        table.remove_strict(&last.flow_match, last.priority);
        table.miss = TableMissBehavior::Continue;
        for host in 5..13u32 {
            table.insert(FlowEntry::new(
                FlowMatch::any()
                    .with_exact(Field::Ipv4Dst, u128::from(0x0a00_0000 | host))
                    .with_exact(Field::TcpDst, 80),
                50,
                terminal_actions(vec![Action::Output(host)]),
            ));
        }
        table
    }

    pub(crate) fn fig5_packets() -> Vec<Packet> {
        let mut packets = Vec::new();
        for ip_last in 1..=4u8 {
            for port in [80u16, 22, 443] {
                packets.push(
                    PacketBuilder::tcp()
                        .ipv4_dst([10, 0, 0, ip_last])
                        .tcp_dst(port)
                        .build(),
                );
            }
        }
        packets.push(PacketBuilder::udp().ipv4_dst([10, 0, 0, 1]).build());
        packets
    }

    #[test]
    fn fig5_decomposition_is_minimal_and_equivalent() {
        let table = fig5_table();
        let mut original = Pipeline::new();
        original.add_table(table.clone());

        let mut next_id = 1;
        let tables = decompose_table(&table, &mut next_id);
        // The optimal decomposition of Fig. 5c: the tcp_dst dispatch table
        // plus one table per distinct port key and one for the wildcard row —
        // 4 tables, not the 9 the ip_dst-first order would give.
        assert_eq!(tables.len(), 4);

        let mut decomposed = Pipeline::new();
        for t in tables {
            decomposed.add_table(t);
        }
        decomposed.validate().unwrap();
        semantically_equivalent(&original, &decomposed, &fig5_packets());

        // Every resulting table is single-field (regular), hence fits the
        // exact-match template family.
        for t in decomposed.tables() {
            let fields: BTreeSet<Field> = t
                .entries()
                .iter()
                .flat_map(|e| e.flow_match.fields().iter().map(|mf| mf.field))
                .collect();
            assert!(fields.len() <= 1, "table {} not regular", t.id);
        }
    }

    #[test]
    fn friendly_pipelines_returned_intact() {
        // A pure L2 MAC table is already optimal: the compiler must not
        // decompose it (the paper's observation about production pipelines).
        let mut p = Pipeline::with_tables(1);
        for i in 0..50u64 {
            p.table_mut(0).unwrap().insert(FlowEntry::new(
                FlowMatch::any().with_exact(Field::EthDst, u128::from(i)),
                10,
                terminal_actions(vec![Action::Output(1)]),
            ));
        }
        let dp = crate::compile::compile(&p).unwrap();
        assert!(dp.chain(0).is_none());
        assert_eq!(dp.template_kinds(), vec![(0, TemplateKind::CompoundHash)]);
        assert_eq!(dp.slot(0).unwrap().table.read().len(), 50);
    }

    #[test]
    fn firewall_single_table_promoted_to_multistage() {
        // The Fig. 1a firewall: small enough for direct code, so only a
        // direct call decomposes it; the heterogeneous table becomes
        // single-field stages and stays equivalent.
        let mut t = FlowTable::new(0);
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
        let mut original = Pipeline::new();
        original.add_table(t.clone());

        let mut next_id = 1;
        let mut decomposed = Pipeline::new();
        for table in decompose_table(&t, &mut next_id) {
            decomposed.add_table(table);
        }
        assert!(decomposed.table_count() > 1);
        decomposed.validate().unwrap();

        let packets = vec![
            PacketBuilder::tcp()
                .ipv4_dst([192, 0, 2, 1])
                .tcp_dst(80)
                .in_port(0)
                .build(),
            PacketBuilder::tcp()
                .ipv4_dst([192, 0, 2, 1])
                .tcp_dst(22)
                .in_port(0)
                .build(),
            PacketBuilder::tcp()
                .ipv4_dst([192, 0, 2, 7])
                .tcp_dst(80)
                .in_port(0)
                .build(),
            PacketBuilder::tcp()
                .ipv4_dst([192, 0, 2, 1])
                .tcp_dst(80)
                .in_port(1)
                .build(),
            PacketBuilder::udp().in_port(1).build(),
        ];
        semantically_equivalent(&original, &decomposed, &packets);
    }

    #[test]
    fn wildcard_rows_replicated_into_every_subtable() {
        // A wildcard row must keep applying no matter which key the packet
        // carries in the decomposed column.
        let mut t = FlowTable::new(0);
        t.insert(FlowEntry::new(
            FlowMatch::any()
                .with_exact(Field::TcpDst, 80)
                .with_exact(Field::Ipv4Dst, u128::from(0x0a000001u32)),
            100,
            terminal_actions(vec![Action::Output(1)]),
        ));
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::Ipv4Dst, u128::from(0x0a000002u32)),
            90,
            terminal_actions(vec![Action::Output(2)]),
        ));
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, 22),
            80,
            terminal_actions(vec![Action::Output(3)]),
        ));
        let mut original = Pipeline::new();
        original.add_table(t.clone());

        let mut next_id = 1;
        let mut decomposed = Pipeline::new();
        for table in decompose_table(&t, &mut next_id) {
            decomposed.add_table(table);
        }
        decomposed.validate().unwrap();

        let packets = vec![
            PacketBuilder::tcp()
                .ipv4_dst([10, 0, 0, 1])
                .tcp_dst(80)
                .build(),
            PacketBuilder::tcp()
                .ipv4_dst([10, 0, 0, 2])
                .tcp_dst(80)
                .build(),
            PacketBuilder::tcp()
                .ipv4_dst([10, 0, 0, 2])
                .tcp_dst(22)
                .build(),
            PacketBuilder::tcp()
                .ipv4_dst([10, 0, 0, 3])
                .tcp_dst(22)
                .build(),
            PacketBuilder::tcp()
                .ipv4_dst([10, 0, 0, 3])
                .tcp_dst(443)
                .build(),
        ];
        semantically_equivalent(&original, &decomposed, &packets);
    }

    #[test]
    fn decomposed_pipeline_compiles_to_fast_templates() {
        // End to end: the Fig. 5a table would be a linked list, so the
        // compiler decomposes it; no linked-list stage remains for a table
        // made of exact matches, and the controller's table is untouched.
        let mut original = Pipeline::new();
        original.add_table(fig5_table());
        let dp = crate::compile::compile(&original).unwrap();
        assert!(dp.chain(0).is_some(), "table 0 not decomposed");
        for (id, kind) in dp.template_kinds() {
            assert_eq!(id, 0, "a chain stage left table 0's id");
            assert_ne!(
                kind,
                TemplateKind::LinkedList,
                "table {id} still linked-list"
            );
        }
        assert_eq!(original.table_count(), 1);
        // The compiled chain agrees with the original.
        for packet in fig5_packets() {
            let mut a = packet.clone();
            let mut b = packet.clone();
            assert_eq!(
                crate::process_one(&dp, &mut a).decision(),
                original.process_ct(&mut b, &mut openflow::NoCt).decision()
            );
        }
    }

    #[test]
    fn stats_reflect_growth() {
        // The compiled chain is the optimal Fig. 5c decomposition: four
        // stages holding at least the table's six entries, two of them on
        // the longest path (dispatch, then one port's stage).
        let mut p = Pipeline::new();
        p.add_table(fig5_table());
        let dp = crate::compile::compile(&p).unwrap();
        assert_eq!(dp.slots().len(), 4);
        let entries: usize = dp.slots().iter().map(|s| s.table.read().len()).sum();
        assert!(entries >= p.entry_count());
        assert_eq!(dp.chain(0).map(|chain| chain.path.len()), Some(2));
        assert_eq!(dp.chain(0).unwrap().path[0], 0);
    }

    #[test]
    fn continue_miss_of_a_chain_reaches_the_next_table() {
        // A decomposed table whose misses continue: every stage's miss must
        // land on the next controller table, not on the stage behind it.
        let mut p = Pipeline::new();
        p.add_table(fig5_continue_table());
        let mut next = FlowTable::new(1);
        next.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, 443),
            10,
            terminal_actions(vec![Action::Output(9)]),
        ));
        p.add_table(next);
        let dp = crate::compile::compile(&p).unwrap();
        assert!(dp.chain(0).is_some());
        let mut reached = 0;
        for packet in fig5_packets() {
            let mut a = packet.clone();
            let mut b = packet.clone();
            let reference = p.process_ct(&mut b, &mut openflow::NoCt);
            reached += usize::from(reference.outputs == [9]);
            assert_eq!(
                crate::process_one(&dp, &mut a).decision(),
                reference.decision()
            );
        }
        assert!(reached > 0, "no probe reached table 1");
    }
}
