//! Flow-table analysis: recognise which table template a flow table fits.
//!
//! "ESWITCH always attempts to compile into the most efficient table template
//! available; whenever it detects that the prerequisite no longer applies it
//! gradually falls back to the next most efficient representation" (§3.2,
//! Fig. 4). The fallback chain is
//! direct code → compound hash → LPM → linked list.
//!
//! Nothing here is configurable: the direct-code limit is the paper's
//! calibrated constant ([`DIRECT_CODE_LIMIT`]), and a table that falls to
//! the linked list is where [`compile`](mod@crate::compile) takes over,
//! decomposing it into a chain of faster templates when the performance
//! model charges the chain less (§3.2).

use std::collections::HashMap;

use openflow::field::{Field, FieldValue};
use openflow::{FlowEntry, FlowTable};

/// The four table templates of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TemplateKind {
    /// Straight-line specialised code; universal but only efficient for a
    /// handful of entries.
    DirectCode,
    /// Exact match over a global mask via one probe of a flat hash table.
    CompoundHash,
    /// Longest prefix match on a single address field.
    Lpm,
    /// Tuple space search — the last-resort fallback.
    LinkedList,
}

impl TemplateKind {
    /// The fallback of this template when its prerequisite breaks (Fig. 4).
    pub fn fallback(self) -> Option<TemplateKind> {
        match self {
            TemplateKind::DirectCode => Some(TemplateKind::CompoundHash),
            TemplateKind::CompoundHash => Some(TemplateKind::Lpm),
            TemplateKind::Lpm => Some(TemplateKind::LinkedList),
            TemplateKind::LinkedList => None,
        }
    }
}

/// Most entries a table may hold to compile to the direct-code template:
/// the constant the paper calibrates with the Fig. 9 measurement.
pub const DIRECT_CODE_LIMIT: usize = 4;

/// Splits a table into its body entries and an optional final catch-all
/// (an entry with an empty match at the lowest priority). Both the compound
/// hash and the LPM templates allow "a potential final catch-all rule".
pub fn split_catch_all(table: &FlowTable) -> (Vec<&FlowEntry>, Option<&FlowEntry>) {
    let entries = table.entries();
    match entries.split_last() {
        Some((last, body)) if last.flow_match.is_empty() => (body.iter().collect(), Some(last)),
        _ => (entries.iter().collect(), None),
    }
}

/// Checks the compound-hash prerequisite: every body entry matches exactly
/// the same set of fields, each field with exactly the same mask in every
/// entry, and the concatenated key fits 128 bits. Returns the global
/// field/mask list on success.
pub fn compound_hash_shape(table: &FlowTable) -> Option<Vec<(Field, FieldValue)>> {
    let (body, _) = split_catch_all(table);
    let first = body.first()?;
    if first.flow_match.is_empty() {
        return None;
    }
    let shape: Vec<(Field, FieldValue)> = first
        .flow_match
        .fields()
        .iter()
        .map(|mf| (mf.field, mf.mask))
        .collect();
    let total_bits: u32 = shape.iter().map(|(f, _)| f.width_bits()).sum();
    if total_bits > 128 {
        return None;
    }
    for entry in &body {
        let fields = entry.flow_match.fields();
        if fields.len() != shape.len() {
            return None;
        }
        for (mf, (field, mask)) in fields.iter().zip(&shape) {
            if mf.field != *field || mf.mask != *mask {
                return None;
            }
        }
    }
    Some(shape)
}

/// Checks the LPM prerequisite: single-field prefix rules on an address
/// field, with priorities consistent with prefix lengths ("whenever rules
/// overlap the more specific one has higher priority"). Returns the matched
/// field on success.
///
/// Linear in the rules: the highest priority of each distinct prefix is kept
/// in one map per prefix length, and a rule then only has to outrank the
/// prefixes that contain it — its own address cut to each shorter length, at
/// most 32 probes.
pub fn lpm_shape(table: &FlowTable) -> Option<Field> {
    let (body, _) = split_catch_all(table);
    let first = body.first()?;
    if first.flow_match.len() != 1 {
        return None;
    }
    let field = first.flow_match.fields()[0].field;
    if !field.supports_prefix() || field.width_bits() != 32 {
        return None;
    }
    let mut rules: Vec<(u32, u32, u16)> = Vec::with_capacity(body.len());
    let mut by_len: [HashMap<u32, u16>; 33] = std::array::from_fn(|_| HashMap::new());
    for entry in &body {
        let fields = entry.flow_match.fields();
        if fields.len() != 1 || fields[0].field != field {
            return None;
        }
        let len = fields[0].prefix_len()?; // must be a prefix mask
        let prefix = fields[0].value as u32;
        rules.push((prefix, len, entry.priority));
        let highest = by_len[len as usize].entry(prefix).or_insert(entry.priority);
        *highest = (*highest).max(entry.priority);
    }
    // A more specific (longer) prefix must have strictly higher priority
    // than any shorter prefix that contains it.
    for (prefix, len, priority) in rules {
        for shorter in (0..len).filter(|l| !by_len[*l as usize].is_empty()) {
            let containing = prefix & u32::MAX.checked_shl(32 - shorter).unwrap_or(0);
            if by_len[shorter as usize]
                .get(&containing)
                .is_some_and(|outranked| priority <= *outranked)
            {
                return None;
            }
        }
    }
    Some(field)
}

/// The template [`select_shape`] picked for a table, carrying what the
/// prerequisite check already worked out so the compiler does not run it
/// again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateShape {
    /// Direct code: any table within the size limit.
    DirectCode,
    /// Compound hash over these fields and global masks.
    CompoundHash(Vec<(Field, FieldValue)>),
    /// LPM on this address field.
    Lpm(Field),
    /// Tuple space search.
    LinkedList,
}

impl TemplateShape {
    /// The template kind.
    pub fn kind(&self) -> TemplateKind {
        match self {
            TemplateShape::DirectCode => TemplateKind::DirectCode,
            TemplateShape::CompoundHash(_) => TemplateKind::CompoundHash,
            TemplateShape::Lpm(_) => TemplateKind::Lpm,
            TemplateShape::LinkedList => TemplateKind::LinkedList,
        }
    }
}

/// Selects the most efficient template whose prerequisite the table
/// satisfies, walking the fallback chain of Fig. 4.
pub fn select_shape(table: &FlowTable) -> TemplateShape {
    if table.len() <= DIRECT_CODE_LIMIT {
        TemplateShape::DirectCode
    } else if let Some(shape) = compound_hash_shape(table) {
        TemplateShape::CompoundHash(shape)
    } else if let Some(field) = lpm_shape(table) {
        TemplateShape::Lpm(field)
    } else {
        TemplateShape::LinkedList
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::flow_match::FlowMatch;
    use openflow::instruction::terminal_actions;
    use openflow::Action;

    fn table_with(entries: Vec<FlowEntry>) -> FlowTable {
        let mut t = FlowTable::new(0);
        for e in entries {
            t.insert(e);
        }
        t
    }

    fn mac_entry(mac: u64, priority: u16) -> FlowEntry {
        FlowEntry::new(
            FlowMatch::any().with_exact(Field::EthDst, u128::from(mac)),
            priority,
            terminal_actions(vec![Action::Output(1)]),
        )
    }

    fn prefix_entry(addr: u32, len: u32, priority: u16) -> FlowEntry {
        FlowEntry::new(
            FlowMatch::any().with_prefix(Field::Ipv4Dst, u128::from(addr), len),
            priority,
            terminal_actions(vec![Action::Output(1)]),
        )
    }

    #[test]
    fn small_tables_compile_direct() {
        let t = table_with((0..4).map(|i| mac_entry(i, 10)).collect());
        assert_eq!(select_shape(&t).kind(), TemplateKind::DirectCode);
        // One more entry pushes it over the calibrated limit.
        let t = table_with((0..5).map(|i| mac_entry(i, 10)).collect());
        assert_eq!(select_shape(&t).kind(), TemplateKind::CompoundHash);
    }

    #[test]
    fn mac_table_fits_compound_hash() {
        let t = table_with((0..100).map(|i| mac_entry(i, 10)).collect());
        let shape = compound_hash_shape(&t).unwrap();
        assert_eq!(shape, vec![(Field::EthDst, Field::EthDst.full_mask())]);
        assert_eq!(select_shape(&t).kind(), TemplateKind::CompoundHash);
    }

    #[test]
    fn catch_all_is_tolerated_by_hash_and_lpm() {
        let mut entries: Vec<FlowEntry> = (0..50).map(|i| mac_entry(i, 10)).collect();
        entries.push(FlowEntry::new(FlowMatch::any(), 1, vec![]));
        let t = table_with(entries);
        assert!(compound_hash_shape(&t).is_some());

        let mut entries: Vec<FlowEntry> = (0..50)
            .map(|i| prefix_entry(u32::from_be_bytes([10, i as u8, 0, 0]), 16, 50))
            .collect();
        entries.push(FlowEntry::new(FlowMatch::any(), 1, vec![]));
        let t = table_with(entries);
        assert_eq!(lpm_shape(&t), Some(Field::Ipv4Dst));
    }

    #[test]
    fn paper_example_hash_prerequisite_violation() {
        // The §3.1 example: two /24+port entries fit the hash template, but
        // adding a third entry that wildcards the port violates the global
        // mask prerequisite.
        let two = table_with(vec![
            FlowEntry::new(
                FlowMatch::any()
                    .with_prefix(
                        Field::Ipv4Dst,
                        u128::from(u32::from_be_bytes([192, 0, 2, 0])),
                        24,
                    )
                    .with_exact(Field::TcpDst, 80),
                10,
                vec![],
            ),
            FlowEntry::new(
                FlowMatch::any()
                    .with_prefix(
                        Field::Ipv4Dst,
                        u128::from(u32::from_be_bytes([198, 51, 100, 0])),
                        24,
                    )
                    .with_exact(Field::TcpDst, 21),
                10,
                vec![],
            ),
        ]);
        assert!(compound_hash_shape(&two).is_some());

        let mut three = two.clone();
        three.insert(FlowEntry::new(
            FlowMatch::any().with_prefix(
                Field::Ipv4Dst,
                u128::from(u32::from_be_bytes([203, 0, 113, 0])),
                24,
            ),
            10,
            vec![],
        ));
        assert!(compound_hash_shape(&three).is_none());
    }

    #[test]
    fn lpm_prerequisite_and_priority_consistency() {
        // The §3.1 violation example: a /30 nested inside a /24 with *lower*
        // priority breaks the LPM prerequisite.
        let bad = table_with(vec![
            prefix_entry(u32::from_be_bytes([192, 0, 2, 0]), 24, 100),
            prefix_entry(u32::from_be_bytes([192, 0, 2, 12]), 30, 20),
        ]);
        assert_eq!(lpm_shape(&bad), None);

        let good = table_with(vec![
            prefix_entry(u32::from_be_bytes([192, 0, 2, 0]), 24, 20),
            prefix_entry(u32::from_be_bytes([192, 0, 2, 12]), 30, 100),
        ]);
        assert_eq!(lpm_shape(&good), Some(Field::Ipv4Dst));

        // Disjoint prefixes do not constrain each other's priorities.
        let disjoint = table_with(vec![
            prefix_entry(u32::from_be_bytes([10, 0, 0, 0]), 8, 10),
            prefix_entry(u32::from_be_bytes([192, 0, 2, 0]), 24, 5),
        ]);
        assert_eq!(lpm_shape(&disjoint), Some(Field::Ipv4Dst));
    }

    #[test]
    fn heterogeneous_table_falls_back_to_linked_list() {
        // Mixed port and address rules with wildcards: the Fig. 1a firewall.
        let t = table_with(vec![
            FlowEntry::new(FlowMatch::any().with_exact(Field::InPort, 1), 300, vec![]),
            FlowEntry::new(
                FlowMatch::any()
                    .with_exact(Field::InPort, 0)
                    .with_exact(Field::Ipv4Dst, 0xc0000201)
                    .with_exact(Field::TcpDst, 80),
                200,
                vec![],
            ),
            FlowEntry::new(FlowMatch::any().with_exact(Field::TcpSrc, 1), 150, vec![]),
            FlowEntry::new(FlowMatch::any().with_exact(Field::TcpSrc, 2), 140, vec![]),
            FlowEntry::new(FlowMatch::any().with_exact(Field::TcpSrc, 3), 130, vec![]),
            FlowEntry::new(FlowMatch::any(), 1, vec![]),
        ]);
        assert_eq!(select_shape(&t).kind(), TemplateKind::LinkedList);
    }

    #[test]
    fn fallback_chain_is_the_figure_4_chain() {
        assert_eq!(
            TemplateKind::DirectCode.fallback(),
            Some(TemplateKind::CompoundHash)
        );
        assert_eq!(
            TemplateKind::CompoundHash.fallback(),
            Some(TemplateKind::Lpm)
        );
        assert_eq!(TemplateKind::Lpm.fallback(), Some(TemplateKind::LinkedList));
        assert_eq!(TemplateKind::LinkedList.fallback(), None);
    }

    #[test]
    fn ipv6_key_too_wide_for_hash() {
        let t = table_with(
            (0..10)
                .map(|i| {
                    FlowEntry::new(
                        FlowMatch::any()
                            .with_exact(Field::Ipv6Src, i)
                            .with_exact(Field::Ipv6Dst, i),
                        10,
                        vec![],
                    )
                })
                .collect(),
        );
        assert!(compound_hash_shape(&t).is_none());
        assert_eq!(select_shape(&t).kind(), TemplateKind::LinkedList);
    }
}
