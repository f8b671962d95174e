//! Flow-table decomposition walk-through: the Fig. 5 example, a firewall ACL,
//! and the Appendix's 3SAT reduction showing why minimal decomposition is
//! intractable (and why ESWITCH uses a greedy heuristic).
//!
//! Run with: `cargo run --example decomposition`

use eswitch::analysis::{select_template, CompilerConfig};
use eswitch::decompose::{decompose_pipeline_with, sat};
use openflow::flow_match::FlowMatch;
use openflow::instruction::terminal_actions;
use openflow::{Action, Field, FlowEntry, FlowTable, Pipeline};
use workloads::acl::{generate_acl_table, AclConfig};

fn fig5_style_table() -> FlowTable {
    let mut t = FlowTable::named(0, "fig5");
    let ips: [u32; 3] = [0x0a000001, 0x0a000002, 0x0a000003];
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

fn show(pipeline: &Pipeline, config: &CompilerConfig, label: &str) {
    let result = decompose_pipeline_with(pipeline, config);
    println!(
        "{label}: {} table(s) / {} entries  ->  {} table(s) / {} entries",
        result.stats.input_tables,
        result.stats.input_entries,
        result.stats.output_tables,
        result.stats.output_entries
    );
    for table in result.pipeline.tables() {
        println!(
            "    table {:>3} ({:<22}) {:>4} entries, template {:?}",
            table.id,
            table.name,
            table.len(),
            select_template(table, config)
        );
    }
}

fn main() {
    let config = CompilerConfig {
        direct_code_limit: 0, // force decomposition even for small examples
        enable_decomposition: true,
    };

    // 1. The Fig. 5 example: decomposing along the low-diversity column gives
    //    4 tables, all single-field.
    let mut fig5 = Pipeline::new();
    fig5.add_table(fig5_style_table());
    show(&fig5, &config, "Fig. 5 example  ");

    // 2. A snort-like five-tuple ACL (the §3.2 stress test).
    let mut acl = Pipeline::new();
    acl.add_table(generate_acl_table(&AclConfig::default()));
    show(&acl, &config, "72-rule ACL     ");

    // 3. The Appendix: deciding whether a table decomposes into a *single*
    //    regular table encodes 3SAT, hence the greedy heuristic.
    let satisfiable = sat::appendix_example();
    let unsat = sat::unsatisfiable_example();
    println!(
        "\nAppendix reduction: satisfiable formula -> single-regular-table decomposition possible? {}",
        sat::decomposes_to_single_regular_table(&satisfiable)
    );
    println!(
        "                    unsatisfiable formula -> single-regular-table decomposition possible? {}",
        sat::decomposes_to_single_regular_table(&unsat)
    );
}
