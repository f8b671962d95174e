//! Fig. 17 — total time to set up the load-balancer pipeline as the number of
//! web services grows, for ESWITCH and OVS, via the "CLI" path (flow-mods
//! applied directly, back to back) and via a modelled controller path (per
//! flow-mod overhead added, standing in for the OpenFlow channel round trip).
//!
//! Expected shape (paper): both switches scale linearly in the number of
//! rules; ESWITCH is ~5× faster on the CLI path, and the two are
//! indistinguishable through a controller because the controller itself is
//! the bottleneck.

use std::time::Instant;

use bench_harness::{print_header, quick_mode, render_series_table, Series, SwitchKind};
use openflow::{FlowMod, Pipeline};
use workloads::load_balancer::{self, LoadBalancerConfig};

/// Per-flow-mod overhead of the controller path (serialisation + channel
/// round trip), a conservative constant standing in for Ryu/OpenDaylight.
const CONTROLLER_OVERHEAD_PER_MOD_SECS: f64 = 200e-6;

/// Derives the list of flow-mods that builds the load-balancer table from an
/// empty pipeline — the "setup" the figure times.
fn setup_mods(config: &LoadBalancerConfig) -> Vec<FlowMod> {
    let reference = load_balancer::build_pipeline(config);
    let table = reference.table(0).expect("single table");
    table
        .entries()
        .iter()
        .map(|e| FlowMod::add(0, e.flow_match.clone(), e.priority, e.instructions.clone()))
        .collect()
}

fn time_setup(kind: SwitchKind, mods: &[FlowMod]) -> f64 {
    // Start from an empty single-table pipeline, as ovs-ofctl would.
    let switch = kind.build(Pipeline::with_tables(1));
    let start = Instant::now();
    for fm in mods {
        let _ = switch.flow_mod(fm);
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    print_header(
        "Figure 17",
        "time to install the load-balancer pipeline vs number of services (CLI and controller paths)",
    );
    let services_sweep: Vec<usize> = if quick_mode() {
        vec![1, 10, 100]
    } else {
        vec![1, 10, 100, 1_000, 10_000]
    };

    let mut es_cli = Series::new("ES (CLI)");
    let mut ovs_cli = Series::new("OVS (CLI)");
    let mut es_ctrl = Series::new("ES (ctrl)");
    let mut ovs_ctrl = Series::new("OVS (ctrl)");
    for &services in &services_sweep {
        let config = LoadBalancerConfig {
            services,
            seed: 0x17,
        };
        let mods = setup_mods(&config);
        let es = time_setup(SwitchKind::Eswitch, &mods);
        let ovs = time_setup(SwitchKind::Ovs, &mods);
        let controller_overhead = CONTROLLER_OVERHEAD_PER_MOD_SECS * mods.len() as f64;
        es_cli.push(services as f64, es);
        ovs_cli.push(services as f64, ovs);
        es_ctrl.push(services as f64, es + controller_overhead);
        ovs_ctrl.push(services as f64, ovs + controller_overhead);
        println!(
            "  {services:>6} services = {:>6} flow-mods: ES {:.4}s, OVS {:.4}s",
            mods.len(),
            es,
            ovs
        );
    }

    println!("\ntotal setup time [seconds]\n");
    println!(
        "{}",
        render_series_table("web services", &[es_cli, ovs_cli, es_ctrl, ovs_ctrl])
    );
}
