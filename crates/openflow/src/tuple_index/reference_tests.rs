//! Differential tests of the tuple-space index against the interpreter's
//! scan ([`FlowTable::scan`]): every entry in match order until the first
//! hit, each un-wildcarded with [`super::unwildcard_entry`]. Random flow-mod
//! sequences — replacing adds, strict and non-strict deletes, modifies,
//! rolled-back and refused flow-mods — over prefix, non-prefix and empty
//! masks, tied priorities, values with bits outside their mask, and fields
//! the keys lack; after every step the maintained index must equal a fresh
//! build and agree with the scan on every key, starting from a mask earlier
//! tables may already have filled, and a rollback must leave the entries in
//! the order it found them.

use proptest::prelude::*;

use super::{TupleIndex, Unwildcard};
use crate::flow_match::{FlowMatch, MatchField};
use crate::flow_mod::{apply_flow_mod, apply_flow_mod_undoable, FlowMod, FlowModCommand};
use crate::instruction::{terminal_actions, Instruction};
use crate::{Action, Field, FieldValue, FlowEntry, FlowKey, FlowTable, Pipeline};

/// A megaflow mask as the OVS slow path accumulates it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Mask([FieldValue; Field::COUNT]);

impl Unwildcard for Mask {
    fn mask_of(&self, field: Field) -> FieldValue {
        self.0[field.index()]
    }

    fn unwildcard(&mut self, field: Field, bits: FieldValue) {
        self.0[field.index()] |= bits & field.full_mask();
    }
}

/// Asserts that `table`'s index is in step and agrees with the scan on
/// `key`, starting from `seed`.
fn assert_agrees(table: &FlowTable, key: &FlowKey, seed: &Mask, context: &str) {
    let (mut by_index, mut by_scan) = (seed.clone(), seed.clone());
    let (entry, examined) = table.lookup_unwildcarding(key, &mut by_index);
    let (want, want_examined) = table.scan(key, &mut by_scan);
    assert!(
        match (entry, want) {
            (Some(a), Some(b)) => std::ptr::eq(a, b),
            (None, None) => true,
            _ => false,
        },
        "{context}: picked {entry:?}, scan picks {want:?}, key {key:?}"
    );
    assert_eq!(examined, want_examined, "{context}: examined, key {key:?}");
    assert_eq!(by_index, by_scan, "{context}: mask, key {key:?}");
    if let Err(e) = table.audit_index() {
        panic!("{context}: {e}");
    }
}

/// A deterministic stream of choices from one seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }

    /// One of a few values per field, so rules and keys collide often.
    fn value(&mut self, field: Field) -> FieldValue {
        let v = self.pick(&[0u128, 1, 0x50, 0x51, 0x8000_0050, 0xc0a8_0001, u128::MAX]);
        v & field.full_mask()
    }

    /// A shape: up to three (field, mask) pairs over prefix, non-prefix
    /// and empty masks, on fields keys carry, lack, or carry sometimes.
    fn shape(&mut self) -> Vec<(Field, FieldValue)> {
        const FIELDS: [Field; 9] = [
            Field::InPort,
            Field::EthSrc,
            Field::VlanVid,
            Field::Ipv4Src,
            Field::Ipv4Dst,
            Field::TcpDst,
            Field::UdpDst,
            Field::Ipv6Dst,
            Field::Metadata,
        ];
        (0..self.below(4))
            .map(|_| {
                let field = self.pick(&FIELDS);
                let width = field.width_bits();
                let mask = match self.below(6) {
                    0..=2 => field.full_mask(),
                    3 => MatchField::prefix(field, 0, self.pick(&[1, width / 2])).mask,
                    4 => 0x0f0f,
                    _ => 0,
                };
                (field, mask & field.full_mask())
            })
            .collect()
    }

    /// A rule of `shape`, each value taken from one of `keys` or drawn at
    /// random, so rules match keys and shapes hold several rules. One rule
    /// in eight stores a bit outside its mask and never matches.
    fn rule(&mut self, shape: &[(Field, FieldValue)], keys: &[FlowKey]) -> FlowMatch {
        let key = keys[self.below(keys.len())];
        let irregular = self.below(8) == 0;
        let mut m = FlowMatch::any();
        for &(field, mask) in shape {
            let value = match key.get(field) {
                Some(v) if self.below(3) != 0 => v,
                _ => self.value(field),
            };
            m.push(if irregular {
                MatchField {
                    field,
                    value: value | 2,
                    mask: mask & !2,
                }
            } else {
                MatchField::masked(field, value, mask)
            });
        }
        m
    }

    fn key(&mut self) -> FlowKey {
        let mut key = FlowKey {
            in_port: self.value(Field::InPort) as u32,
            eth_src: self.value(Field::EthSrc) as u64,
            metadata: self.value(Field::Metadata) as u64,
            eth_type: 0x0800,
            ..FlowKey::default()
        };
        let maybe = |draw: &mut Self, field: Field| (draw.below(4) != 0).then(|| draw.value(field));
        key.vlan_vid = maybe(self, Field::VlanVid).map(|v| v as u16);
        key.ipv4_src = maybe(self, Field::Ipv4Src).map(|v| v as u32);
        key.ipv4_dst = maybe(self, Field::Ipv4Dst).map(|v| v as u32);
        if self.below(2) == 0 {
            key.tcp_dst = maybe(self, Field::TcpDst).map(|v| v as u16);
        } else {
            key.udp_dst = maybe(self, Field::UdpDst).map(|v| v as u16);
        }
        key.ipv6_dst = maybe(self, Field::Ipv6Dst);
        key
    }

    fn mask(&mut self) -> Mask {
        let mut mask = Mask([0; Field::COUNT]);
        for _ in 0..self.below(3) {
            let field = self.pick(&[Field::Ipv4Dst, Field::TcpDst, Field::EthSrc, Field::UdpDst]);
            let bits = self.pick(&[FieldValue::MAX, 0xff00, 0xffff_0000, 0x8000_0000]);
            mask.unwildcard(field, bits);
        }
        mask
    }
}

fn output(port: u32) -> Vec<Instruction> {
    terminal_actions(vec![Action::Output(port)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn maintained_index_agrees_with_the_scan_under_random_flow_mods(
        seed in any::<u64>(),
        ops in prop::collection::vec(0u8..12, 10..70),
    ) {
        let mut draw = Draw(seed | 1);
        let keys: Vec<FlowKey> = (0..12).map(|_| draw.key()).collect();
        let shapes: Vec<_> = (0..4).map(|_| draw.shape()).collect();
        let rules: Vec<FlowMatch> = (0..16)
            .map(|_| {
                let shape = &shapes[draw.below(shapes.len())];
                draw.rule(shape, &keys)
            })
            .collect();
        let seeds: Vec<Mask> = (0..3).map(|_| draw.mask()).collect();
        let priorities = [1u16, 5, 5, 10, 10, 10, 20];
        let mut pipeline = Pipeline::with_tables(2);
        for (step, &op) in ops.iter().enumerate() {
            let rule = rules[draw.below(rules.len())].clone();
            let priority = draw.pick(&priorities);
            let port = step as u32;
            let fm = match op {
                0..=3 => FlowMod::add(0, rule, priority, output(port)),
                4 => FlowMod::delete_strict(0, rule, priority),
                5 => {
                    // A pattern of the rule's first fields: wider deletes.
                    let keep = draw.below(rule.len() + 1);
                    FlowMod::delete(0, FlowMatch::new(rule.fields()[..keep].iter().copied()))
                }
                6 => FlowMod::delete(0, rule).with_cookie(u64::from(port % 3)),
                7 => FlowMod {
                    command: draw.pick(&[FlowModCommand::Modify, FlowModCommand::ModifyStrict]),
                    ..FlowMod::add(0, rule, priority, output(port))
                },
                // Refused before anything changes: a goto that is not later.
                8 => FlowMod::add(0, rule, priority, vec![Instruction::GotoTable(0)]),
                _ => {
                    // Applied, then rolled back through its undo log.
                    let fm = match op {
                        9 => FlowMod::add(0, rule, priority, output(port)),
                        10 => FlowMod::delete(0, rules[draw.below(rules.len())].clone()),
                        _ => FlowMod::delete_strict(0, rule, priority),
                    };
                    let before = pipeline.table(0).expect("table 0").entries().to_vec();
                    if let Ok((_, undo)) = apply_flow_mod_undoable(&mut pipeline, &fm) {
                        for key in &keys {
                            let table = pipeline.table(0).expect("table 0");
                            assert_agrees(table, key, &seeds[0], &format!("step {step} applied"));
                        }
                        undo.undo(&mut pipeline);
                    }
                    let after = pipeline.table(0).expect("table 0").entries();
                    assert_eq!(after, &before[..], "step {step}: rollback reorders the table");
                    for (i, key) in keys.iter().enumerate() {
                        let table = pipeline.table(0).expect("table 0");
                        assert_agrees(table, key, &seeds[i % 3], &format!("step {step} undone"));
                    }
                    continue;
                }
            };
            let fm = if op == 0 { fm.with_cookie(u64::from(port % 3)) } else { fm };
            let _ = apply_flow_mod(&mut pipeline, &fm);
            for (i, key) in keys.iter().enumerate() {
                let table = pipeline.table(0).expect("table 0");
                assert_agrees(table, key, &seeds[i % 3], &format!("step {step} {:?}", fm.command));
            }
        }
    }
}

fn table_of(entries: Vec<FlowEntry>) -> FlowTable {
    let mut table = FlowTable::new(0);
    for entry in entries {
        table.insert(entry);
    }
    table
}

fn dst_key(dst: u32) -> FlowKey {
    FlowKey {
        ipv4_dst: Some(dst),
        tcp_dst: Some(80),
        ..FlowKey::default()
    }
}

#[test]
fn a_shape_straddling_the_winner_skips_values_ranked_below_it() {
    // Two /24s in one shape on either side of a port rule. Against
    // 10.0.0.5 the scan compares only 10.0.2.0/24 (first difference at bit
    // 22) before the port rule wins; the nearer 10.0.1.0/24 (bit 23) ranks
    // after the winner and must not deepen the mask.
    let table = table_of(vec![
        FlowEntry::new(
            FlowMatch::any().with_prefix(Field::Ipv4Dst, 0x0a00_0200, 24),
            100,
            output(1),
        ),
        FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, 80),
            50,
            output(2),
        ),
        FlowEntry::new(
            FlowMatch::any().with_prefix(Field::Ipv4Dst, 0x0a00_0100, 24),
            10,
            output(3),
        ),
    ]);
    let mut mask = Mask([0; Field::COUNT]);
    let (entry, examined) = table.lookup_unwildcarding(&dst_key(0x0a00_0005), &mut mask);
    assert_eq!(entry.map(|e| e.priority), Some(50));
    assert_eq!(examined, 2);
    assert_eq!(mask.mask_of(Field::Ipv4Dst), 0xffff_fe00);
    assert_agrees(
        &table,
        &dst_key(0x0a00_0005),
        &Mask([0; Field::COUNT]),
        "straddle",
    );
}

#[test]
fn equal_priorities_keep_insertion_order_through_removal_and_reinsertion() {
    let rule = |dst: u32| FlowMatch::any().with_prefix(Field::Ipv4Dst, u128::from(dst), 16);
    let mut table = table_of(vec![
        FlowEntry::new(rule(0x0a01_0000), 7, output(1)),
        FlowEntry::new(FlowMatch::any().with_exact(Field::TcpDst, 80), 7, output(2)),
        FlowEntry::new(rule(0x0a00_0000), 7, output(3)),
    ]);
    let key = dst_key(0x0a00_0001);
    assert_agrees(&table, &key, &Mask([0; Field::COUNT]), "built");
    // The port rule goes to the back of its priority run: the /16 now wins.
    let (_, port) = table
        .remove_strict(&FlowMatch::any().with_exact(Field::TcpDst, 80), 7)
        .expect("present");
    table.insert(port);
    let mut mask = Mask([0; Field::COUNT]);
    let (entry, examined) = table.lookup_unwildcarding(&key, &mut mask);
    assert_eq!(entry.map(|e| e.instructions.clone()), Some(output(3)));
    assert_eq!(examined, 2);
    assert_agrees(&table, &key, &Mask([0; Field::COUNT]), "reinserted");
}

#[test]
fn audit_catches_an_index_out_of_step() {
    let entries = table_of(vec![
        FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, 80),
            20,
            output(1),
        ),
        FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, 81),
            20,
            output(2),
        ),
        FlowEntry::new(
            FlowMatch::any().with_exact(Field::Ipv4Dst, 1),
            10,
            output(3),
        ),
    ])
    .entries()
    .to_vec();
    let index = TupleIndex::build(&entries);
    assert_eq!(index.audit(&entries), Ok(()));
    // Two members of one shape trade ranks behind the table's back.
    let mut swapped = index.clone();
    swapped.ranks.swap(0, 1);
    assert!(swapped.audit(&entries).is_err());
    // A member value drops out of its shape's value order.
    let mut lost = index.clone();
    let id = lost.order[0];
    let shape = &mut lost.shapes[id];
    let first = *shape.tracked[0].values.first().expect("two values");
    shape.tracked[0].values.remove(&first);
    assert!(lost.audit(&entries).is_err());
    // A shape probed out of order.
    let mut reordered = index;
    reordered.order.reverse();
    assert!(reordered.audit(&entries).is_err());
}
