//! Fig. 9 — per-lookup running time of the direct code, compound hash and
//! linked list templates as the number of flow entries grows from 1 to 9.
//!
//! This is the measurement the paper uses to calibrate the direct-code
//! fallback constant (4 entries): direct code wins for very small tables,
//! the hash template's constant-time lookup wins beyond that, and the linked
//! list is consistently the slowest.

use std::time::Instant;

use bench_harness::{print_header, quick_mode, render_series_table, Series};
use eswitch::analysis::CompilerConfig;
use eswitch::compile::compile;
use openflow::flow_match::FlowMatch;
use openflow::instruction::terminal_actions;
use openflow::{Action, Field, FlowEntry, NoCt, Pipeline};
use pkt::builder::PacketBuilder;

/// The paper's synthetic table: entry N matches
/// `vlan_vid=3, ip_src=10.0.0.3, ip_proto=17, udp_dst=N`.
fn synthetic_pipeline(entries: usize) -> Pipeline {
    let mut p = Pipeline::with_tables(1);
    let t = p.table_mut(0).unwrap();
    for n in 1..=entries as u16 {
        t.insert(FlowEntry::new(
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

/// Compiles the synthetic table while forcing a specific template via the
/// direct-code limit knob (`usize::MAX` forces direct code; 0 disables it).
fn forced_config(template: &str) -> CompilerConfig {
    match template {
        "direct" => CompilerConfig {
            direct_code_limit: usize::MAX,
            ..CompilerConfig::default()
        },
        _ => CompilerConfig {
            direct_code_limit: 0,
            ..CompilerConfig::default()
        },
    }
}

fn measure_lookup_cycles(pipeline: &Pipeline, config: &CompilerConfig, force_linked: bool) -> f64 {
    let datapath = compile(pipeline, config).expect("compiles");
    if force_linked {
        // Rebuild the single table as a linked list by re-compiling its spec
        // with the hash/LPM prerequisites artificially bypassed: simply wrap
        // the direct entries into the linked-list template.
        use eswitch::templates::table::{CompiledTable, LinkedListTable};
        let slot = datapath.slot(0).expect("table 0");
        let entries = {
            let table = slot.table.read();
            match &*table {
                CompiledTable::DirectCode(t) => t.entries().to_vec(),
                CompiledTable::LinkedList(t) => t.entries().to_vec(),
                _ => Vec::new(),
            }
        };
        if !entries.is_empty() {
            *slot.table.write() = CompiledTable::LinkedList(LinkedListTable::new(entries));
        }
    }
    // Measure lookups of the last (worst-case) entry, as the paper does with
    // its increasing-N tables.
    let n = pipeline.table(0).expect("table 0").len() as u16;
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
    for entries in 1..=9usize {
        let pipeline = synthetic_pipeline(entries);
        direct.push(
            entries as f64,
            measure_lookup_cycles(&pipeline, &forced_config("direct"), false),
        );
        hash.push(
            entries as f64,
            measure_lookup_cycles(&pipeline, &forced_config("hash"), false),
        );
        linked.push(
            entries as f64,
            measure_lookup_cycles(&pipeline, &forced_config("direct"), true),
        );
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
