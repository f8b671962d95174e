//! The load-balancer use case end to end: build the single-table pipeline a
//! controller would emit (Fig. 7a), let the ESWITCH decomposition pass
//! promote it to a multi-stage pipeline (Fig. 7b), and compare the compiled
//! datapath against the OVS-style caching datapath on the same traffic.
//!
//! Run with: `cargo run --release --example load_balancer`

use std::time::Instant;

use eswitch::analysis::CompilerConfig;
use eswitch::decompose::decompose_pipeline_with;
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

    // What the decomposition pass does to it.
    let compiler = CompilerConfig {
        enable_decomposition: true,
        ..CompilerConfig::default()
    };
    let decomposed = decompose_pipeline_with(&pipeline, &compiler);
    println!(
        "after decomposition: {} tables, {} entries",
        decomposed.stats.output_tables, decomposed.stats.output_entries
    );

    // Compile and compare against the flow-caching baseline.
    let eswitch = EswitchRuntime::with_config(load_balancer::build_pipeline(&config), compiler)
        .expect("compiles");
    println!(
        "compiled templates: {:?}",
        eswitch.datapath().template_kinds()
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
