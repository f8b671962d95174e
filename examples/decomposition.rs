//! Flow-table decomposition walk-through: the Fig. 5 example and a firewall
//! ACL, each decomposed into a chain of stages, with the model's charges the
//! compiler weighs the chain against the linked list by, and the Appendix's 3SAT reduction showing why minimal decomposition
//! is intractable (and why ESWITCH uses a greedy heuristic).
//!
//! Run with: `cargo run --example decomposition`

use eswitch::analysis::select_shape;
use eswitch::compile::{compile, ChainCharge};
use eswitch::decompose::sat;
use eswitch::decompose_table;
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

/// Decomposes table 0 of a one-table pipeline and prints the chain's
/// costliest goto path, the model's charge for the chain and for the linked
/// list, and which of the two the compiler built.
fn show(pipeline: &Pipeline, label: &str) {
    let table = pipeline.table(0).expect("table 0");
    let stages = decompose_table(table, &mut 1);
    let charge = ChainCharge::new(table, &stages);
    let datapath = compile(pipeline).expect("compiles");
    let built = if datapath.chain(0).is_some() {
        "the chain"
    } else {
        "the linked list"
    };
    println!(
        "{label}: {} entries -> {} stages, {} on the costliest path; \
         model: linked list {:.0} cycles, chain {:.0} cycles; compiled: {built}",
        table.len(),
        stages.len(),
        charge.path.len(),
        charge.list,
        charge.chain,
    );
    for index in &charge.path {
        let stage = &stages[*index];
        let kind = select_shape(stage).kind();
        println!(
            "    path stage {index:>5}: {:>4} entries, template {kind:?}",
            stage.len()
        );
    }
}

fn main() {
    // 1. The Fig. 5 example: decomposing along the low-diversity column gives
    //    4 stages, all single-field.
    let mut fig5 = Pipeline::new();
    fig5.add_table(fig5_style_table());
    show(&fig5, "Fig. 5 example");

    // 2. A snort-like five-tuple ACL (the §3.2 stress test).
    let mut acl = Pipeline::new();
    acl.add_table(generate_acl_table(&AclConfig::default()));
    show(&acl, "72-rule ACL");

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
