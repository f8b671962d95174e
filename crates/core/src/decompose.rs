//! Flow table decomposition (§3.2, Figs. 5–6, and the Appendix).
//!
//! Complex single-table pipelines that would only fit the slow linked-list
//! template are rewritten into an equivalent multi-stage pipeline whose
//! tables each match on a single field — and therefore fit the exact-match
//! (compound hash) template. The rewrite follows the greedy heuristic of
//! Fig. 6: pick the column of minimal key diversity, split the table along
//! it (wildcard rows are replicated into every sub-table in priority order),
//! and recurse. Finding the *minimum* number of regular tables is coNP-hard
//! (Appendix Theorem 1, reproduced in [`sat`]), which is why a heuristic is
//! the right tool.

pub mod sat;

use std::collections::BTreeSet;

use openflow::field::{Field, FieldValue};
use openflow::flow_match::FlowMatch;
use openflow::instruction::Instruction;
use openflow::pipeline::TableId;
use openflow::{FlowEntry, FlowTable, Pipeline};

/// Statistics of one decomposition run, used by the §3.2 ACL experiment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecomposeStats {
    /// Tables in the input pipeline.
    pub input_tables: usize,
    /// Flow entries in the input pipeline.
    pub input_entries: usize,
    /// Tables in the decomposed pipeline.
    pub output_tables: usize,
    /// Flow entries in the decomposed pipeline.
    pub output_entries: usize,
    /// Tables that were already template-friendly and returned intact.
    pub untouched_tables: usize,
}

/// Result of decomposing a pipeline.
#[derive(Debug, Clone)]
pub struct DecomposedPipeline {
    /// The rewritten pipeline.
    pub pipeline: Pipeline,
    /// Decomposition statistics.
    pub stats: DecomposeStats,
}

/// A table is *regular* (in the Appendix's sense, generalised to our template
/// library) when it already fits one of the fast templates: at most a handful
/// of entries, a uniform exact-match shape, or single-field prefix rules.
fn is_template_friendly(table: &FlowTable, config: &crate::analysis::CompilerConfig) -> bool {
    crate::analysis::select_template(table, config) != crate::analysis::TemplateKind::LinkedList
}

/// Decomposes a single flow table into a chain of single-field exact-match
/// tables, returning the new tables. `next_id` supplies fresh table ids; the
/// first returned table keeps the original table's id so that incoming
/// `goto_table` references stay valid.
///
/// Entries whose instructions are preserved verbatim on the leaf tables;
/// intermediate tables link stages with `goto_table`.
pub fn decompose_table(table: &FlowTable, next_id: &mut TableId) -> Vec<FlowTable> {
    let entries: Vec<FlowEntry> = table.entries().to_vec();
    let mut out = Vec::new();
    decompose_rec(table.id, table, entries, next_id, &mut out);
    out
}

/// Recursive step: DECOMPOSE(τ) of Fig. 6.
fn decompose_rec(
    id: TableId,
    original: &FlowTable,
    entries: Vec<FlowEntry>,
    next_id: &mut TableId,
    out: &mut Vec<FlowTable>,
) {
    // 1. Distinct keys per column (field), over the fields actually used.
    //    Only columns whose every present match is exact are splittable — the
    //    simplified exposition of Fig. 6 disallows arbitrary masks, and a
    //    masked column cannot be dispatched on with exact-match goto entries.
    let used_fields: BTreeSet<Field> = entries
        .iter()
        .flat_map(|e| e.flow_match.fields().iter().map(|mf| mf.field))
        .collect();
    let fields: BTreeSet<Field> = used_fields
        .into_iter()
        .filter(|f| {
            entries
                .iter()
                .filter_map(|e| e.flow_match.field(*f))
                .all(|mf| mf.is_exact())
        })
        .collect();

    // Base case: the remaining matches span at most one splittable field, or
    // nothing can be split (masked columns only) — emit the table as a leaf.
    let remaining_fields: BTreeSet<Field> = entries
        .iter()
        .flat_map(|e| e.flow_match.fields().iter().map(|mf| mf.field))
        .collect();
    if remaining_fields.len() <= 1 || fields.is_empty() {
        let mut table = FlowTable::named(id, format!("{}-leaf", original.name));
        table.miss = original.miss;
        table.set_entries(entries);
        out.push(table);
        return;
    }

    // 2. Column of minimal diversity.
    let (best_field, keys) = fields
        .iter()
        .map(|f| {
            let keys: BTreeSet<Option<FieldValue>> = entries
                .iter()
                .map(|e| e.flow_match.field(*f).map(|mf| mf.value))
                .filter(Option::is_some)
                .collect();
            (*f, keys)
        })
        .min_by_key(|(_, keys)| keys.len())
        .expect("at least two fields");

    // 3. One sub-table per distinct key of the chosen column.
    let mut subtables: Vec<(FieldValue, Vec<FlowEntry>)> =
        keys.iter().flatten().map(|k| (*k, Vec::new())).collect();
    // A separate sub-table for rows that wildcard the chosen column entirely.
    let mut wildcard_rows: Vec<FlowEntry> = Vec::new();

    // 4. Distribute rows: exact rows go to their key's sub-table, wildcard
    //    rows go to every sub-table (and to the wildcard sub-table), both
    //    with the chosen column stripped.
    for entry in &entries {
        let stripped = strip_field(entry, best_field);
        match entry.flow_match.field(best_field) {
            Some(mf) => {
                let slot = subtables
                    .iter_mut()
                    .find(|(k, _)| *k == mf.value)
                    .expect("key collected above");
                slot.1.push(stripped);
            }
            None => {
                for (_, rows) in subtables.iter_mut() {
                    rows.push(stripped.clone());
                }
                wildcard_rows.push(stripped);
            }
        }
    }

    // 5. The table for `id` now matches only on `best_field`, dispatching to
    //    the sub-tables.
    let mut dispatch = FlowTable::named(id, format!("{}-{:?}", original.name, best_field));
    dispatch.miss = original.miss;
    let mut pending: Vec<(TableId, Vec<FlowEntry>)> = Vec::new();
    for (key, rows) in subtables {
        let sub_id = *next_id;
        *next_id += 1;
        dispatch.insert(FlowEntry::new(
            FlowMatch::any().with_exact(best_field, key),
            10,
            vec![Instruction::GotoTable(sub_id)],
        ));
        pending.push((sub_id, rows));
    }
    if !wildcard_rows.is_empty() {
        let sub_id = *next_id;
        *next_id += 1;
        dispatch.insert(FlowEntry::new(
            FlowMatch::any(),
            1,
            vec![Instruction::GotoTable(sub_id)],
        ));
        pending.push((sub_id, wildcard_rows));
    }
    out.push(dispatch);

    // 6. Recurse into every sub-table.
    for (sub_id, rows) in pending {
        decompose_rec(sub_id, original, rows, next_id, out);
    }
}

/// Returns a copy of `entry` with the match on `field` removed.
fn strip_field(entry: &FlowEntry, field: Field) -> FlowEntry {
    let mut flow_match = entry.flow_match.clone();
    flow_match.remove_field(field);
    FlowEntry::new(flow_match, entry.priority, entry.instructions.clone()).with_cookie(entry.cookie)
}

/// Decomposes every template-unfriendly table of a pipeline, leaving friendly
/// tables untouched ("in essentially all cases our decomposer simply returned
/// its input intact" for production pipelines).
pub fn decompose_pipeline(pipeline: &Pipeline) -> DecomposedPipeline {
    decompose_pipeline_with(pipeline, &crate::analysis::CompilerConfig::default())
}

/// Like [`decompose_pipeline`] but with an explicit compiler configuration
/// (the direct-code limit decides which tables count as already friendly).
pub fn decompose_pipeline_with(
    pipeline: &Pipeline,
    config: &crate::analysis::CompilerConfig,
) -> DecomposedPipeline {
    let mut stats = DecomposeStats {
        input_tables: pipeline.table_count(),
        input_entries: pipeline.entry_count(),
        ..Default::default()
    };
    // Fresh ids start above every existing id so goto references stay unique.
    let mut next_id: TableId = pipeline.tables().iter().map(|t| t.id).max().unwrap_or(0) + 1;
    let mut out = Pipeline::new();
    for table in pipeline.tables() {
        if is_template_friendly(table, config) {
            stats.untouched_tables += 1;
            out.add_table(table.clone());
            continue;
        }
        for new_table in decompose_table(table, &mut next_id) {
            out.add_table(new_table);
        }
    }
    stats.output_tables = out.table_count();
    stats.output_entries = out.entry_count();
    DecomposedPipeline {
        pipeline: out,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::CompilerConfig;
    use openflow::instruction::terminal_actions;
    use openflow::Action;
    use pkt::builder::PacketBuilder;
    use pkt::Packet;

    /// The Fig. 5a example table: three fields, where decomposing along the
    /// tcp_dst column (diversity 2) is optimal.
    fn fig5_table() -> FlowTable {
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

    fn fig5_packets() -> Vec<Packet> {
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
        // A pure L2 MAC table is already optimal: decomposition must not
        // touch it (the paper's observation about production pipelines).
        let mut p = Pipeline::with_tables(1);
        for i in 0..50u64 {
            p.table_mut(0).unwrap().insert(FlowEntry::new(
                FlowMatch::any().with_exact(Field::EthDst, u128::from(i)),
                10,
                terminal_actions(vec![Action::Output(1)]),
            ));
        }
        let result = decompose_pipeline(&p);
        assert_eq!(result.stats.untouched_tables, 1);
        assert_eq!(result.stats.output_tables, 1);
        assert_eq!(result.stats.input_entries, result.stats.output_entries);
    }

    #[test]
    fn firewall_single_table_promoted_to_multistage() {
        // The Fig. 1a firewall: with a direct-code limit of 0 (forcing the
        // issue for this small example) the single heterogeneous table is
        // decomposed into single-field stages and stays equivalent.
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
        original.add_table(t);

        let config = CompilerConfig {
            direct_code_limit: 0,
            ..CompilerConfig::default()
        };
        let result = decompose_pipeline_with(&original, &config);
        assert!(result.stats.output_tables > 1);
        result.pipeline.validate().unwrap();

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
        semantically_equivalent(&original, &result.pipeline, &packets);
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
        // End to end: decompose then compile; no linked-list tables remain
        // for a table made of exact matches.
        let table = fig5_table();
        let mut original = Pipeline::new();
        original.add_table(table);
        let config = CompilerConfig {
            direct_code_limit: 0,
            ..CompilerConfig::default()
        };
        let result = decompose_pipeline_with(&original, &config);
        let dp = crate::compile::compile(&result.pipeline, &config).unwrap();
        for (id, kind) in dp.template_kinds() {
            assert_ne!(
                kind,
                crate::analysis::TemplateKind::LinkedList,
                "table {id} still linked-list"
            );
        }
        // The compiled decomposed pipeline agrees with the original too.
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
        let table = fig5_table();
        let mut p = Pipeline::new();
        p.add_table(table);
        let config = CompilerConfig {
            direct_code_limit: 0,
            ..CompilerConfig::default()
        };
        let result = decompose_pipeline_with(&p, &config);
        assert_eq!(result.stats.input_tables, 1);
        assert_eq!(result.stats.input_entries, 6);
        assert_eq!(result.stats.output_tables, 4);
        assert!(result.stats.output_entries >= result.stats.input_entries);
        assert_eq!(result.stats.untouched_tables, 0);
    }
}
