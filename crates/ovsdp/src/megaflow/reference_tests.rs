//! Differential test of [`MegaflowCache`] against a linear reference: a
//! `Vec` of (mask, `FlowKey::get`-projected values, program) in insertion
//! order, searched front to back. Random masks over carried, two-word,
//! shared-word (`InPort`/`InPhyPort`) and never-carried (MPLS) fields meet
//! random keys with absent fields and all-ones values, through insert,
//! lookup, selective invalidation and eviction at small capacities.

use std::sync::Arc;

use openflow::flow_match::{FlowMatch, MatchField};
use openflow::{Action, Field, FieldValue, FlowKey};
use pkt::builder::PacketBuilder;
use proptest::prelude::*;

use super::MegaflowCache;
use crate::mask::FieldMask;
use crate::minikey::MiniKey;
use crate::program::Program;

/// The fields masks and rules draw from.
const FIELDS: [Field; 12] = [
    Field::InPort,
    Field::InPhyPort,
    Field::EthType,
    Field::VlanVid,
    Field::IpProto,
    Field::Ipv4Dst,
    Field::Ipv6Src,
    Field::Ipv6Dst,
    Field::TcpDst,
    Field::UdpDst,
    Field::MplsLabel,
    Field::Metadata,
];

/// A value domain small enough that keys, masks and rules collide often.
const VALUES: [FieldValue; 6] = [0, 1, 2, 0x50, 1 << 64 | 1, FieldValue::MAX];

/// One cached megaflow of the reference.
struct Entry {
    mask: FieldMask,
    values: Vec<Option<FieldValue>>,
    program: Arc<Program>,
}

/// The reference store: every entry in insertion order, oldest first.
struct Reference {
    entries: Vec<Entry>,
    capacity: usize,
}

fn project(mask: &FieldMask, key: &FlowKey) -> Vec<Option<FieldValue>> {
    mask.fields()
        .map(|(f, m)| key.get(f).map(|v| v & m))
        .collect()
}

impl Reference {
    fn insert(&mut self, key: &FlowKey, mask: &FieldMask, program: Arc<Program>) {
        let values = project(mask, key);
        if let Some(entry) = self
            .entries
            .iter_mut()
            .find(|e| e.mask == *mask && e.values == values)
        {
            entry.program = program;
            return;
        }
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
        }
        self.entries.push(Entry {
            mask: mask.clone(),
            values,
            program,
        });
    }

    fn covering(&self, key: &FlowKey) -> Vec<&Arc<Program>> {
        let entries = self.entries.iter();
        entries
            .filter(|e| project(&e.mask, key) == e.values)
            .map(|e| &e.program)
            .collect()
    }

    /// Flushes every entry not provably disjoint from some match.
    fn invalidate_overlapping(&mut self, matches: &[FlowMatch]) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|e| matches.iter().all(|m| disjoint(e, m)));
        before - self.entries.len()
    }
}

/// The reference's disjointness proof, on `Option` values.
fn disjoint(entry: &Entry, m: &FlowMatch) -> bool {
    m.fields().iter().any(|mf| {
        let Some(at) = entry.mask.fields().position(|(f, _)| f == mf.field) else {
            return false;
        };
        let Some(value) = entry.values[at] else {
            return true;
        };
        let common = entry.mask.mask_of(mf.field) & mf.mask;
        common != 0 && value & common != mf.value & common
    })
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

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }

    fn value(&mut self) -> FieldValue {
        self.pick(&VALUES)
    }

    fn mask(&mut self) -> FieldMask {
        let mut mask = FieldMask::wildcard_all();
        for _ in 0..1 + self.next() % 3 {
            let field = self.pick(&FIELDS);
            let bits = self.pick(&[FieldValue::MAX, 0xff, FieldValue::MAX << 64, 0x0f0]);
            mask.unwildcard(field, bits);
        }
        mask
    }

    fn key(&mut self) -> FlowKey {
        let mut key = FlowKey::extract(&PacketBuilder::tcp().build());
        key.in_port = self.pick(&[1, 2]);
        key.eth_type = self.pick(&[0x0800, 0x86dd]);
        key.metadata = self.pick(&[0, u64::MAX]);
        key.vlan_vid = self.pick(&[None, Some(5)]);
        key.ip_proto = self.pick(&[None, Some(6), Some(17)]);
        key.ipv4_dst = self.pick(&[None, Some(1), Some(0x50), Some(u32::MAX)]);
        key.ipv6_src = self.pick(&[None, Some(0), Some(1 << 64 | 1), Some(u128::MAX)]);
        key.ipv6_dst = self.pick(&[None, Some(2), Some(u128::MAX)]);
        key.tcp_dst = self.pick(&[None, Some(0), Some(0x50)]);
        key.udp_dst = self.pick(&[None, Some(0x50)]);
        key
    }

    fn rule(&mut self) -> FlowMatch {
        let mut m = FlowMatch::any();
        for _ in 0..1 + self.next() % 2 {
            let field = self.pick(&FIELDS);
            let bits = self.pick(&[FieldValue::MAX, 0xff, FieldValue::MAX << 64]);
            m.push(MatchField::masked(field, self.value(), bits));
        }
        m
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn megaflow_cache_agrees_with_a_linear_reference(
        capacity in 4usize..=16,
        seed in any::<u64>(),
        ops in prop::collection::vec(0u8..10, 20..160),
    ) {
        let mut draw = Draw(seed | 1);
        let masks: Vec<FieldMask> = (0..5).map(|_| draw.mask()).collect();
        let keys: Vec<FlowKey> = (0..10).map(|_| draw.key()).collect();
        let mut cache = MegaflowCache::with_capacity(capacity);
        let mut reference = Reference { entries: Vec::new(), capacity };
        let mut retired: Vec<Arc<Program>> = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            let key = draw.pick(&keys);
            match op {
                0..=4 => {
                    let mask = &masks[(draw.next() % masks.len() as u64) as usize];
                    let port = u32::try_from(step).expect("few steps");
                    let program = Arc::new(Program::new(vec![Action::Output(port)], Default::default()));
                    retired.extend(reference.entries.iter().map(|e| Arc::clone(&e.program)));
                    cache.insert(&MiniKey::from_flow(&key), mask, Arc::clone(&program));
                    reference.insert(&key, mask, program);
                }
                5..=8 => {
                    let covering = reference.covering(&key);
                    let found = cache.lookup(&MiniKey::from_flow(&key));
                    match found {
                        None => prop_assert!(covering.is_empty(), "step {step}: missed {key:?}"),
                        Some(program) => prop_assert!(
                            covering.iter().any(|p| Arc::ptr_eq(p, &program)),
                            "step {step}: {key:?} found a program no entry covering it holds"
                        ),
                    }
                }
                _ => {
                    let rule = draw.rule();
                    retired.extend(reference.entries.iter().map(|e| Arc::clone(&e.program)));
                    let flushed = cache.invalidate_overlapping(std::slice::from_ref(&rule));
                    prop_assert_eq!(flushed, reference.invalidate_overlapping(&[rule]), "step {step}");
                }
            }
            prop_assert_eq!(cache.len(), reference.entries.len(), "step {}", step);
            // Programs still cached are alive; every one that left is retired.
            for entry in &reference.entries {
                prop_assert!(entry.program.is_alive(), "step {step}: cached program retired");
            }
            retired.retain(|p| !reference.entries.iter().any(|e| Arc::ptr_eq(p, &e.program)));
            prop_assert!(retired.iter().all(|p| !p.is_alive()), "step {step}: a dropped program lives");
        }
    }
}
