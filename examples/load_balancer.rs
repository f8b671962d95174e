//! The load-balancer use case end to end: build the single-table pipeline a
//! controller would emit (Fig. 7a), watch the ESWITCH compiler decompose it
//! into a multi-stage chain (Fig. 7b) because the performance model charges
//! the chain less than the linked list, and compare the compiled datapath
//! against the OVS-style caching datapath on the same traffic.
//!
//! Run with: `cargo run --release --example load_balancer`

use std::time::Instant;

use eswitch::runtime::EswitchRuntime;
use openflow::Datapath;
use ovsdp::OvsDatapath;
use workloads::load_balancer::{self, LoadBalancerConfig};

fn main() {
    let config = LoadBalancerConfig {
        services: 32,
        seed: 7,
    };
    let pipeline = load_balancer::build_pipeline(&config);
    println!(
        "controller-emitted pipeline: {} table(s), {} entries",
        pipeline.table_count(),
        pipeline.entry_count()
    );

    // What the compiler makes of it, and the model's two charges behind
    // the choice.
    let eswitch =
        EswitchRuntime::compile(load_balancer::build_pipeline(&config)).expect("compiles");
    let datapath = eswitch.datapath();
    let chain = datapath
        .chain(0)
        .expect("the compiler decomposes the table");
    println!(
        "compiled as a chain of {} stages, {} on the costliest path; model: linked list {:.0} \
         cycles, chain {:.0} cycles",
        datapath.slots().len(),
        chain.path.len(),
        chain.list,
        chain.chain,
    );
    let ovs = OvsDatapath::new(load_balancer::build_pipeline(&config));

    let traffic = load_balancer::build_traffic(&config, 10_000);
    let packets = 200_000;
    for (label, process) in [
        (
            "ESWITCH",
            &(|p: &mut pkt::Packet| eswitch.process(p).outputs.len())
                as &dyn Fn(&mut pkt::Packet) -> usize,
        ),
        ("OVS    ", &|p: &mut pkt::Packet| {
            ovs.process(p).outputs.len()
        }),
    ] {
        // Warm up, then measure.
        for i in 0..20_000 {
            process(&mut traffic.packet(i));
        }
        let start = Instant::now();
        let mut forwarded = 0usize;
        for i in 0..packets {
            forwarded += process(&mut traffic.packet(20_000 + i));
        }
        let rate = packets as f64 / start.elapsed().as_secs_f64();
        println!(
            "{label}: {:>10.0} packets/s  ({} of {} packets admitted)",
            rate, forwarded, packets
        );
    }
    let (micro, mega, slow) = ovs.stats.hit_fractions();
    println!(
        "OVS cache hit fractions: microflow {micro:.2}, megaflow {mega:.2}, slow path {slow:.3}"
    );
}
