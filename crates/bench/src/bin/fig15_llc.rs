//! Fig. 15 — last-level-cache misses per packet as the active flow set grows
//! (gateway use case).
//!
//! `perf` hardware counters are not portable, so this harness reproduces the
//! figure through the cache model of the `cpumodel` crate: each datapath
//! reports how many data-structure accesses it makes per packet and how large
//! the working set actually exercised by the traffic is; the hierarchy model
//! turns that into LLC misses per packet. Expected shape (paper): ESWITCH
//! stays around or below ~0.1 misses/packet across the sweep, OVS climbs past
//! 1 miss/packet once the flow set outgrows its caches.

use bench_harness::{
    flow_sweep, packets_per_point, print_header, render_series_table, warmup_packets, Series,
};
use cpumodel::CacheHierarchy;
use eswitch::runtime::EswitchRuntime;
use openflow::Datapath;
use ovsdp::{MegaflowCache, MicroflowCache, OvsDatapath};
use workloads::gateway::{self, GatewayConfig};

/// Per-packet auxiliary state both datapaths touch (packet data, stack).
const PER_PACKET_BYTES: usize = 256;

fn main() {
    print_header(
        "Figure 15",
        "LLC misses per packet vs active flows (gateway use case, cache model)",
    );
    let config = GatewayConfig::default();
    let hierarchy = CacheHierarchy::default();
    let sweep = flow_sweep(true);

    let mut es_series = Series::new("ES");
    let mut ovs_series = Series::new("OVS");
    for &flows in &sweep {
        // ESWITCH: the working set is the compiled tables actually touched —
        // independent of the number of active flows — plus per-packet state.
        let runtime = EswitchRuntime::compile(gateway::build_pipeline(&config)).expect("compiles");
        let traffic = gateway::build_traffic(&config, flows);
        for i in 0..warmup_packets().min(20_000) {
            runtime.process(&mut traffic.packet(i));
        }
        let es_ws = runtime.datapath().memory_footprint().min(2 * 1024 * 1024) + PER_PACKET_BYTES;
        // 3 table-template accesses per packet (demux hash, per-CE hash, LPM).
        es_series.push(flows as f64, hierarchy.llc_misses_per_packet(4.0, es_ws));

        // OVS: the working set grows with the cached megaflow/microflow
        // entries the traffic exercises, i.e. with the active flow set.
        let dp = OvsDatapath::new(gateway::build_pipeline(&config));
        for i in 0..(warmup_packets() + packets_per_point() / 4) {
            dp.process(&mut traffic.packet(i));
        }
        // Each cached entry is charged the slot its cache really keeps.
        let ovs_ws = dp.megaflow_count() * MegaflowCache::ENTRY_BYTES
            + dp.microflow_count() * MicroflowCache::ENTRY_BYTES
            + PER_PACKET_BYTES;
        // Key extraction + microflow probe + megaflow subtable probes.
        ovs_series.push(flows as f64, hierarchy.llc_misses_per_packet(6.0, ovs_ws));
    }

    println!("LLC-load-misses per packet (modelled)\n");
    println!(
        "{}",
        render_series_table("active flows", &[es_series, ovs_series])
    );
}
