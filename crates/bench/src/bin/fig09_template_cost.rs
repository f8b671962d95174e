//! Fig. 9 — per-lookup running time of the direct code, compound hash and
//! linked list templates as the number of flow entries grows from 1 to 9.
//!
//! This is the measurement the paper uses to calibrate the direct-code
//! fallback constant (4 entries): direct code wins for very small tables,
//! the hash template's constant-time lookup wins beyond that, and the linked
//! list is consistently the slowest.

use std::time::Instant;

use bench_harness::{print_header, quick_mode, render_series_table, Series};
use eswitch::compile::compile;
use eswitch::templates::table::{
    CompiledEntry, CompiledTable, CompoundHashTable, DirectCodeTable, LinkedListTable,
};
use openflow::flow_match::FlowMatch;
use openflow::instruction::terminal_actions;
use openflow::{Action, Field, FlowEntry, NoCt, Pipeline};
use pkt::builder::PacketBuilder;

/// The paper's synthetic table, spread one entry per table so that each
/// compiles to direct code: entry N, in table N - 1, matches
/// `vlan_vid=3, ip_src=10.0.0.3, ip_proto=17, udp_dst=N`.
fn synthetic_pipeline(entries: u16) -> Pipeline {
    let mut p = Pipeline::with_tables(u32::from(entries));
    for n in 1..=entries {
        p.table_mut(u32::from(n) - 1)
            .unwrap()
            .insert(FlowEntry::new(
                FlowMatch::any()
                    .with_exact(Field::VlanVid, 3)
                    .with_exact(
                        Field::Ipv4Src,
                        u128::from(u32::from_be_bytes([10, 0, 0, 3])),
                    )
                    .with_exact(Field::IpProto, 17)
                    .with_exact(Field::UdpDst, u128::from(n)),
                100,
                terminal_actions(vec![Action::Output(u32::from(n) % 4)]),
            ));
    }
    p
}

/// The template a series forces into the compiled slot.
#[derive(Clone, Copy)]
enum Template {
    Direct,
    Hash,
    Linked,
}

/// Compiles the synthetic table's entries and writes them, as `template`,
/// over the one slot of the one-entry table: direct code, one compound hash
/// over their uniform exact-match shape, or a linked list.
fn measure_lookup_cycles(n: u16, template: Template) -> f64 {
    let spread = compile(&synthetic_pipeline(n)).expect("compiles");
    let entries: Vec<CompiledEntry> = spread
        .slots()
        .iter()
        .flat_map(|slot| match &*slot.table.read() {
            CompiledTable::DirectCode(direct) => direct.entries().to_vec(),
            _ => unreachable!("a one-entry table compiles to direct code"),
        })
        .collect();
    let forced = match template {
        Template::Direct => CompiledTable::DirectCode(DirectCodeTable::new(entries)),
        Template::Hash => {
            let fields = entries[0].matchers.iter();
            let keys = entries.iter().map(|e| {
                let values = e.matchers.iter().map(|m| m.key).collect();
                (values, e.instrs.clone())
            });
            let fields = fields.map(|m| (m.field, m.mask)).collect();
            let hash = CompoundHashTable::new(fields, keys.collect(), None);
            CompiledTable::CompoundHash(hash.expect("uniform exact shape"))
        }
        Template::Linked => CompiledTable::LinkedList(LinkedListTable::new(entries)),
    };
    let datapath = compile(&synthetic_pipeline(1)).expect("compiles");
    *datapath.slot(0).expect("table 0").table.write() = forced;
    // Measure lookups of the last (worst-case) entry, as the paper does with
    // its increasing-N tables.
    let mut packet = PacketBuilder::udp()
        .vlan(3)
        .ipv4_src([10, 0, 0, 3])
        .udp_dst(n)
        .build();
    let iterations = if quick_mode() { 20_000 } else { 400_000 };
    let mut verdicts = Vec::with_capacity(1);
    let mut lookup = || {
        datapath.process_burst_ct(std::slice::from_mut(&mut packet), &mut verdicts, &mut NoCt);
        std::hint::black_box(&verdicts);
    };
    // Warm up.
    for _ in 0..iterations / 10 {
        lookup();
    }
    let start = Instant::now();
    for _ in 0..iterations {
        lookup();
    }
    let ns = start.elapsed().as_nanos() as f64 / iterations as f64;
    ns * cpumodel::SystemProfile::paper_sut().clock_hz / 1e9
}

fn main() {
    print_header(
        "Figure 9",
        "flow lookup cost per template vs number of flow entries (1..9)",
    );
    let mut direct = Series::new("direct code");
    let mut hash = Series::new("hash");
    let mut linked = Series::new("linked list");
    for entries in 1..=9u16 {
        let x = f64::from(entries);
        direct.push(x, measure_lookup_cycles(entries, Template::Direct));
        hash.push(x, measure_lookup_cycles(entries, Template::Hash));
        linked.push(x, measure_lookup_cycles(entries, Template::Linked));
    }
    println!("running time [CPU cycles at the 2 GHz reference clock]\n");
    println!(
        "{}",
        render_series_table("flow entries", &[direct.clone(), hash.clone(), linked])
    );

    // Report the calibrated crossover, i.e. the direct-code fallback constant.
    let crossover = (1..=9)
        .find(|n| {
            let x = *n as f64;
            matches!((direct.y_at(x), hash.y_at(x)), (Some(d), Some(h)) if d > h)
        })
        .map(|n| n - 1)
        .unwrap_or(9);
    println!("calibrated direct-code fallback constant: {crossover} entries (paper: 4)");
}
