//! §3.2 decomposition stress test — decomposing an arbitrarily wildcarded
//! five-tuple ACL ("snort community rules, stripped to OpenFlow compatible
//! rules"), which fits no fast template, into a chain of single-field
//! stages, and reporting the performance model's charge for that chain and
//! for the linked list, and which one the compiler took.
//!
//! Paper reference points: 72 active rules decompose into 50 tables; 369
//! rules (with obsolete ones) into 197 tables. The rule set here is a
//! synthetic equivalent with the same structure (exact-or-wildcard
//! five-tuples), so the absolute counts differ; what the experiment checks
//! is that every resulting stage is template friendly, beside the model's
//! two charges the compiler chose between.

use bench_harness::print_header;
use eswitch::analysis::{select_shape, TemplateKind};
use eswitch::compile::{compile, ChainCharge};
use eswitch::decompose_table;
use openflow::Pipeline;
use workloads::acl::{generate_acl_table, AclConfig};

/// One row: stages, entries across them, stages on the costliest path, the
/// model's charges, and what the compiler built.
fn run(rules: usize) -> (usize, usize, ChainCharge, &'static str) {
    let table = generate_acl_table(&AclConfig {
        rules,
        ..AclConfig::default()
    });
    let stages = decompose_table(&table, &mut 1);

    // Every stage must fit a fast template.
    let linked = stages
        .iter()
        .any(|stage| select_shape(stage).kind() == TemplateKind::LinkedList);
    assert!(!linked, "decomposition left linked-list stages behind");
    let entries = stages.iter().map(|stage| stage.len()).sum();
    let charge = ChainCharge::new(&table, &stages);

    let mut pipeline = Pipeline::new();
    pipeline.add_table(table);
    let datapath = compile(&pipeline).expect("the ACL compiles");
    let built = if datapath.chain(0).is_some() {
        "chain"
    } else {
        "linked list"
    };
    assert_eq!(built == "chain", charge.chain < charge.list);
    (stages.len(), entries, charge, built)
}

fn main() {
    print_header(
        "Table (§3.2)",
        "flow-table decomposition of a five-tuple ACL into exact-match stages",
    );
    println!(
        "{:<10}{:>8}{:>10}{:>6}{:>13}{:>14}{:>13}{:>13}",
        "ACL rules",
        "stages",
        "entries",
        "path",
        "list cycles",
        "chain cycles",
        "compiled",
        "paper"
    );
    for (rules, reference) in [(72usize, "50 tables"), (369, "197 tables")] {
        let (stages, entries, charge, built) = run(rules);
        println!(
            "{rules:<10}{stages:>8}{entries:>10}{:>6}{:>13.0}{:>14.0}{built:>13}{reference:>13}",
            charge.path.len(),
            charge.list,
            charge.chain,
        );
    }
    println!("\n(cycles: the performance model's per-packet charge — lookups at the cache");
    println!(" level the entries fit in, plus each slot's share of the per-burst upkeep;");
    println!(" the compiler builds the cheaper of the two. Each stage is single-field and");
    println!(" template friendly; the synthetic rule set reproduces the structure, not");
    println!(" the exact contents, of the snort set)");
}
