//! Fig. 12 — packet rate for the load-balancer use case over 1, 10 and 100
//! web services, as the active flow set grows.
//!
//! The controller-emitted pipeline is a single heterogeneous table (Fig. 7a);
//! the ESWITCH compiler decomposes it into the multi-stage form (Fig. 7b),
//! since the performance model charges the chain less than the linked list. The paper's shape: ESWITCH flat,
//! OVS degrading with the flow count.

use bench_harness::{
    flow_sweep, measure::rate_sweep, packets_per_point, print_header, render_series_table,
    warmup_packets, SwitchKind,
};
use workloads::load_balancer::{self, LoadBalancerConfig};

fn main() {
    print_header(
        "Figure 12",
        "load balancer packet rate vs active flows (1/10/100 services)",
    );
    let kinds = [SwitchKind::Eswitch, SwitchKind::Ovs];
    let sweep = flow_sweep(false);
    let mut all_series = Vec::new();
    for services in [1usize, 10, 100] {
        let config = LoadBalancerConfig {
            services,
            seed: 0x12 + services as u64,
        };
        let series = rate_sweep(
            &format!("{services}"),
            &kinds,
            &sweep,
            || load_balancer::build_pipeline(&config),
            |flows| load_balancer::build_traffic(&config, flows),
            warmup_packets(),
            packets_per_point(),
        );
        all_series.extend(series);
    }
    println!("packet rate [pps]\n");
    println!("{}", render_series_table("active flows", &all_series));
}
