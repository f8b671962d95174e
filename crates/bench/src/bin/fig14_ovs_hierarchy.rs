//! Fig. 14 — fraction of packets forwarded at each level of the OVS cache
//! hierarchy (microflow cache, megaflow cache, `vswitchd` slow path) as the
//! active flow set grows, on the gateway use case.
//!
//! Expected shape (paper): with few flows essentially everything is answered
//! by the microflow cache; as the flow set grows processing shifts first to
//! the megaflow cache and then increasingly to the slow path. Promotion into
//! the microflow cache is sampled (1 megaflow hit in 100, as in OVS ≥ 2.7),
//! so once the flows outnumber its entries the microflow share decays as
//! about capacity ÷ flows instead of collapsing to nothing.

use bench_harness::{
    flow_sweep, packets_per_point, print_header, render_series_table, warmup_packets, Series,
};
use openflow::Datapath;
use ovsdp::OvsDatapath;
use workloads::gateway::{self, GatewayConfig};

fn main() {
    print_header(
        "Figure 14",
        "OVS cache-hierarchy hit fractions vs active flows (gateway use case)",
    );
    let config = GatewayConfig::default();
    let sweep = flow_sweep(true);

    let mut micro = Series::new("microflow");
    let mut mega = Series::new("megaflow");
    let mut slow = Series::new("vswitchd");
    for &flows in &sweep {
        let dp = OvsDatapath::new(gateway::build_pipeline(&config));
        let traffic = gateway::build_traffic(&config, flows);
        // Warm up, then reset the statistics so only steady state is counted.
        for i in 0..warmup_packets() {
            dp.process(&mut traffic.packet(i));
        }
        dp.stats.microflow_hits.reset();
        dp.stats.megaflow_hits.reset();
        dp.stats.slowpath_hits.reset();
        for i in 0..packets_per_point() {
            dp.process(&mut traffic.packet(warmup_packets() + i));
        }
        let (m, g, s) = dp.stats.hit_fractions();
        micro.push(flows as f64, m);
        mega.push(flows as f64, g);
        slow.push(flows as f64, s);
        println!(
            "  flows {:>8}: megaflows cached = {}, microflow entries = {}",
            flows,
            dp.megaflow_count(),
            dp.microflow_count()
        );
    }
    println!("\ncache hit fraction per packet\n");
    println!(
        "{}",
        render_series_table("active flows", &[micro, mega, slow])
    );
}
