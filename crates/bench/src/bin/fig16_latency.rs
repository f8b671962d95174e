//! Fig. 16 — mean per-packet processing latency (CPU cycles at the reference
//! 2 GHz clock) on the gateway pipeline as the active flow set grows, with
//! the analytic model's lower and upper bounds.
//!
//! Expected shape (paper): ESWITCH stays around 200 cycles/packet (~0.1 µs)
//! independent of the flow count and inside the model bounds; OVS varies from
//! a few hundred cycles up to thousands once its caches stop covering the
//! traffic.

use bench_harness::{
    flow_sweep, measure_latency_cycles, packets_per_point, print_header, render_series_table,
    warmup_packets, Series, SwitchKind,
};
use eswitch::perfmodel::{CacheAssumption, CacheLevelCosts, PerformanceModel};
use eswitch::runtime::EswitchRuntime;
use workloads::gateway::{self, GatewayConfig};

fn main() {
    print_header(
        "Figure 16",
        "per-packet latency (cycles) vs active flows (gateway use case)",
    );
    let config = GatewayConfig::default();
    let sweep = flow_sweep(true);

    let mut es = Series::new("ES");
    let mut ovs = Series::new("OVS");
    for &flows in &sweep {
        let traffic = gateway::build_traffic(&config, flows);
        let es_switch = SwitchKind::Eswitch.build(gateway::build_pipeline(&config));
        es.push(
            flows as f64,
            measure_latency_cycles(&*es_switch, &traffic, warmup_packets(), packets_per_point()),
        );
        let ovs_switch = SwitchKind::Ovs.build(gateway::build_pipeline(&config));
        ovs.push(
            flows as f64,
            measure_latency_cycles(
                &*ovs_switch,
                &traffic,
                warmup_packets(),
                packets_per_point(),
            ),
        );
    }

    // Model bounds along the upstream walk.
    let runtime = EswitchRuntime::compile(gateway::build_pipeline(&config)).expect("compiles");
    let estimate = PerformanceModel::new().estimate_walk(
        &runtime.datapath(),
        &[0, gateway::ce_table(0), gateway::ROUTING_TABLE],
    );
    let costs = CacheLevelCosts::default();
    let mut ub = Series::new("ES(model-ub)");
    let mut lb = Series::new("ES(model-lb)");
    for &flows in &sweep {
        // Upper latency bound = pessimistic (all-L3) cycles; lower = all-L1.
        ub.push(
            flows as f64,
            estimate.cycles_per_packet(&costs, CacheAssumption::AllL3),
        );
        lb.push(
            flows as f64,
            estimate.cycles_per_packet(&costs, CacheAssumption::AllL1),
        );
    }

    println!("CPU cycles per packet (reference 2 GHz clock)\n");
    println!(
        "{}",
        render_series_table("active flows", &[lb, es, ub, ovs])
    );
}
