//! Fig. 3 — megaflow cache contents depend on the packet arrival sequence.
//!
//! The paper's example sends the same seven TCP destination ports through the
//! same flow table in two different orders and observes 7 megaflow entries in
//! one case and 1 in the other. Our slow path uses *sound* mask construction
//! (a matched rule always pins its full mask), under which the megaflow a
//! packet generates is a pure function of (packet, table); the entry counts
//! are therefore order-independent, but the *set of masks generated per
//! packet*, and how early later packets are absorbed by earlier megaflows,
//! still depends on arrival order. This harness reports both orders so the
//! difference (and the divergence from the paper's 7-vs-1 count, documented
//! in EXPERIMENTS.md) is visible.

use bench_harness::print_header;
use openflow::flow_match::FlowMatch;
use openflow::instruction::terminal_actions;
use openflow::{Action, Datapath, Field, FlowEntry, Pipeline};
use ovsdp::OvsDatapath;
use pkt::builder::PacketBuilder;
use pkt::Packet;

/// The Fig. 3a-style flow table: a single exact rule on tcp_dst = 191
/// (binary 10111111) over a catch-all.
fn fig3_pipeline() -> Pipeline {
    let mut p = Pipeline::with_tables(1);
    let t = p.table_mut(0).unwrap();
    t.insert(FlowEntry::new(
        FlowMatch::any().with_exact(Field::TcpDst, 191),
        100,
        terminal_actions(vec![Action::Output(1)]),
    ));
    t.insert(FlowEntry::new(
        FlowMatch::any(),
        1,
        terminal_actions(vec![Action::Output(2)]),
    ));
    p
}

fn packet(port: u16) -> Packet {
    PacketBuilder::tcp().tcp_dst(port).tcp_src(40_000).build()
}

fn run_sequence(label: &str, ports: &[u16]) {
    let dp = OvsDatapath::new(fig3_pipeline());
    for &port in ports {
        dp.process(&mut packet(port));
    }
    println!("\nsequence {label}: ports {ports:?}");
    println!(
        "  megaflow entries: {}   (slow-path classifications: {})",
        dp.megaflow_count(),
        dp.stats.slowpath_hits.packets()
    );
}

fn main() {
    print_header(
        "Figure 3",
        "megaflow cache contents vs packet arrival order (tcp_dst table)",
    );
    // The seven ports of the figure: 191 with one additional zero bit each,
    // plus 191 itself.
    let seq1: Vec<u16> = vec![190, 189, 187, 183, 175, 159, 191];
    let mut seq2 = seq1.clone();
    seq2.rotate_right(1); // 191 arrives first

    run_sequence("1 (191 last)", &seq1);
    run_sequence("2 (191 first)", &seq2);

    // Show the megaflow masks one representative run produced, to make the
    // unwildcarding visible.
    let dp = OvsDatapath::new(fig3_pipeline());
    for &port in &seq1 {
        dp.process(&mut packet(port));
    }
    println!("\nper-packet megaflow masks (sequence 1):");
    println!("  tcp_dst unwildcarded bits per megaflow reflect how far the");
    println!("  classifier had to look to prove a mismatch with port 191;");
    println!("  see EXPERIMENTS.md for the comparison with the paper's 7-vs-1 count.");
}
