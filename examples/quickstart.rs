//! Quickstart: build an OpenFlow pipeline, compile it with ESWITCH, push a
//! few packets through it, and look at the generated "code".
//!
//! Run with: `cargo run --example quickstart`

use eswitch::runtime::EswitchRuntime;
use openflow::flow_match::FlowMatch;
use openflow::instruction::terminal_actions;
use openflow::{Action, Datapath, Field, FlowEntry, FlowMod, Pipeline};
use pkt::builder::PacketBuilder;

fn main() {
    // 1. Describe the forwarding behaviour as a plain OpenFlow pipeline:
    //    a tiny firewall that forwards internal traffic and only admits web
    //    traffic towards the protected server (Fig. 1a of the paper).
    let mut pipeline = Pipeline::with_tables(1);
    let table = pipeline.table_mut(0).unwrap();
    table.insert(FlowEntry::new(
        FlowMatch::any().with_exact(Field::InPort, 1),
        300,
        terminal_actions(vec![Action::Output(0)]),
    ));
    table.insert(FlowEntry::new(
        FlowMatch::any()
            .with_exact(Field::InPort, 0)
            .with_exact(
                Field::Ipv4Dst,
                u128::from(u32::from_be_bytes([192, 0, 2, 1])),
            )
            .with_exact(Field::TcpDst, 80),
        200,
        terminal_actions(vec![Action::Output(1)]),
    ));
    table.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));

    // 2. Compile it. The analysis pass picks a table template, the
    //    specialization pass patches the flow keys in, and the runtime is
    //    ready to forward.
    let switch = EswitchRuntime::compile(pipeline).expect("pipeline compiles");
    println!(
        "compiled templates: {:?}",
        switch.datapath().template_kinds()
    );
    println!(
        "--- generated datapath ---\n{}",
        switch.datapath().disassemble()
    );

    // 3. Forward some packets.
    let mut http = PacketBuilder::tcp()
        .ipv4_dst([192, 0, 2, 1])
        .tcp_dst(80)
        .in_port(0)
        .build();
    let mut ssh = PacketBuilder::tcp()
        .ipv4_dst([192, 0, 2, 1])
        .tcp_dst(22)
        .in_port(0)
        .build();
    println!(
        "HTTP from outside  -> {:?}",
        switch.process(&mut http).outputs
    );
    println!(
        "SSH from outside   -> drop = {}",
        switch.process(&mut ssh).is_drop()
    );

    // 4. Update the pipeline at runtime: admit HTTPS as well. The runtime
    //    absorbs the flow-mod and the datapath keeps serving packets.
    switch
        .flow_mod(&FlowMod::add(
            0,
            FlowMatch::any()
                .with_exact(Field::InPort, 0)
                .with_exact(
                    Field::Ipv4Dst,
                    u128::from(u32::from_be_bytes([192, 0, 2, 1])),
                )
                .with_exact(Field::TcpDst, 443),
            200,
            terminal_actions(vec![Action::Output(1)]),
        ))
        .expect("flow-mod applies");
    let mut https = PacketBuilder::tcp()
        .ipv4_dst([192, 0, 2, 1])
        .tcp_dst(443)
        .in_port(0)
        .build();
    println!(
        "HTTPS after update -> {:?}",
        switch.process(&mut https).outputs
    );
}
