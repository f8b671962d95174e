//! fastpath — throughput harness for the batched cache hierarchy.
//!
//! Measures burst-mode (32-packet, DPDK-style) throughput of the cache
//! hierarchy on four steady-state workloads and records the results to
//! `BENCH_fastpath.json` so the performance trajectory of the repo is a
//! committed artifact rather than folklore:
//!
//! * `megaflow_hit`  — OVS-default cache config with twice as many active
//!   flows as the EMC holds: the EMC thrashes and ~80% of packets are
//!   answered by tuple-space search over four subtables. This is the
//!   paper's Fig. 14 mid-range regime and the headline workload of the
//!   `BENCH_fastpath.json` trajectory;
//! * `microflow_hit` — same pipeline with an active-flow count that fits the
//!   EMC: steady state is exact-match hits;
//! * `tss_no_emc`    — microflow cache disabled entirely, isolating pure
//!   tuple-space-search cost;
//! * `eswitch_l2`    — the compiled datapath on the L2 use case, as the
//!   compiled-fast-path comparison point.
//!
//! Pass `--baseline name=pps` (repeatable) and `--baseline-git <rev>` to
//! embed the pre-change numbers measured with this same harness; the JSON
//! then records both and the improvement ratio. `ESWITCH_BENCH_QUICK=1`
//! shrinks the packet counts for CI smoke runs.

use std::fmt::Write as _;
use std::time::Instant;

use bench_harness::fastpath::{build_ring, port_pipeline, port_traffic, BURST};
use bench_harness::print_header;
use openflow::{Datapath, NoCt};
use ovsdp::{OvsConfig, OvsDatapath};
use pkt::Packet;
use workloads::l2::{self, L2Config};

fn measured_packets() -> usize {
    if bench_harness::quick_mode() {
        200_000
    } else {
        1_000_000
    }
}

/// One measured workload result.
struct WorkloadResult {
    name: &'static str,
    pps: f64,
    ns_per_packet: f64,
    /// `(microflow, megaflow, slowpath)` hit fractions over the timed run
    /// (OVS workloads only) — evidence the workload measures what it claims.
    hit_fractions: Option<(f64, f64, f64)>,
}

/// Runs one burst through the OVS datapath into a reused verdict buffer.
/// This is the measured call.
fn ovs_burst(dp: &OvsDatapath, chunk: &mut [Packet], verdicts: &mut Vec<openflow::Verdict>) {
    dp.process_burst(chunk, verdicts, &mut NoCt);
    std::hint::black_box(verdicts.len());
}

fn flows_override(default: usize) -> usize {
    std::env::var("ESWITCH_FASTPATH_FLOWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn measure_ovs(name: &'static str, use_microflow: bool, flows: usize) -> WorkloadResult {
    let flows = flows_override(flows);
    let config = OvsConfig {
        use_microflow,
        ..OvsConfig::default()
    };
    let dp = OvsDatapath::with_config(
        port_pipeline(),
        config,
        Box::new(openflow::NullController::new()),
    );
    let traffic = port_traffic(flows);
    let mut ring = build_ring(&traffic);

    // Warm-up: two full passes fill the megaflow cache (and the EMC when
    // enabled) so the timed loop measures steady-state hits only.
    let mut verdicts = Vec::with_capacity(BURST);
    for _ in 0..2 {
        for chunk in ring.chunks_mut(BURST) {
            ovs_burst(&dp, chunk, &mut verdicts);
        }
    }
    let warm_micro = dp.stats.microflow_hits.packets();
    let warm_mega = dp.stats.megaflow_hits.packets();
    let warm_slow = dp.stats.slowpath_hits.packets();

    let target = measured_packets();
    let mut done = 0usize;
    let start = Instant::now();
    while done < target {
        for chunk in ring.chunks_mut(BURST) {
            ovs_burst(&dp, chunk, &mut verdicts);
        }
        done += ring.len();
    }
    let elapsed = start.elapsed();
    let ns_per_packet = elapsed.as_nanos() as f64 / done as f64;

    let micro = dp.stats.microflow_hits.packets() - warm_micro;
    let mega = dp.stats.megaflow_hits.packets() - warm_mega;
    let slow = dp.stats.slowpath_hits.packets() - warm_slow;
    let total = (micro + mega + slow).max(1) as f64;
    WorkloadResult {
        name,
        pps: 1e9 / ns_per_packet,
        ns_per_packet,
        hit_fractions: Some((
            micro as f64 / total,
            mega as f64 / total,
            slow as f64 / total,
        )),
    }
}

fn measure_eswitch(name: &'static str, flows: usize) -> WorkloadResult {
    let config = L2Config {
        table_size: 1_000,
        ports: 4,
        seed: 1,
    };
    let switch = eswitch::runtime::EswitchRuntime::compile(l2::build_pipeline(&config))
        .expect("pipeline compiles");
    let traffic = l2::build_traffic(&config, flows);
    let mut ring = build_ring(&traffic);
    let mut verdicts = Vec::with_capacity(BURST);
    for chunk in ring.chunks_mut(BURST) {
        switch.process_burst(chunk, &mut verdicts, &mut NoCt);
        std::hint::black_box(verdicts.len());
    }
    let target = measured_packets();
    let mut done = 0usize;
    let start = Instant::now();
    while done < target {
        for chunk in ring.chunks_mut(BURST) {
            switch.process_burst(chunk, &mut verdicts, &mut NoCt);
            std::hint::black_box(verdicts.len());
        }
        done += ring.len();
    }
    let elapsed = start.elapsed();
    let ns_per_packet = elapsed.as_nanos() as f64 / done as f64;
    WorkloadResult {
        name,
        pps: 1e9 / ns_per_packet,
        ns_per_packet,
        hit_fractions: None,
    }
}

fn main() {
    let mut out_path = String::from("BENCH_fastpath.json");
    let mut baselines: Vec<(String, f64)> = Vec::new();
    let mut baseline_git = String::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out takes a path"),
            "--baseline" => {
                let spec = args.next().expect("--baseline takes name=pps");
                let (name, pps) = spec.split_once('=').expect("--baseline name=pps");
                baselines.push((name.to_string(), pps.parse().expect("pps is a number")));
            }
            "--baseline-git" => baseline_git = args.next().expect("--baseline-git takes a rev"),
            other => panic!("unknown argument {other:?}"),
        }
    }

    print_header(
        "fastpath",
        "burst-mode cache-hierarchy throughput (BENCH_fastpath.json)",
    );

    let results = [
        measure_ovs("megaflow_hit", true, 16_384),
        measure_ovs("microflow_hit", true, 1_024),
        measure_ovs("tss_no_emc", false, 8_192),
        measure_eswitch("eswitch_l2", 8_192),
    ];

    for r in &results {
        print!(
            "{:<14} {:>12.0} pps  {:>8.1} ns/pkt",
            r.name, r.pps, r.ns_per_packet
        );
        if let Some((micro, mega, slow)) = r.hit_fractions {
            print!("  hits: micro {micro:.3} mega {mega:.3} slow {slow:.3}");
        }
        println!();
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"fastpath\",\n");
    json.push_str("  \"schema_version\": 1,\n");
    let _ = writeln!(json, "  \"burst_size\": {BURST},");
    let _ = writeln!(json, "  \"measured_packets\": {},", measured_packets());
    let _ = writeln!(json, "  \"quick\": {},", bench_harness::quick_mode());
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"pps\": {:.0}, \"ns_per_packet\": {:.2}",
            r.name, r.pps, r.ns_per_packet
        );
        if let Some((micro, mega, slow)) = r.hit_fractions {
            let _ = write!(
                json,
                ", \"hit_fractions\": {{\"microflow\": {micro:.4}, \"megaflow\": {mega:.4}, \"slowpath\": {slow:.4}}}"
            );
        }
        json.push('}');
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    if baselines.is_empty() {
        json.push_str("  \"baseline\": null\n");
    } else {
        json.push_str("  \"baseline\": {\n");
        let _ = writeln!(json, "    \"git\": \"{baseline_git}\",");
        json.push_str("    \"note\": \"pre-change numbers measured with this same harness\",\n");
        json.push_str("    \"pps\": {");
        for (i, (name, pps)) in baselines.iter().enumerate() {
            let _ = write!(json, "\"{name}\": {pps:.0}");
            if i + 1 < baselines.len() {
                json.push_str(", ");
            }
        }
        json.push_str("}\n  },\n");
        json.push_str("  \"improvement\": {");
        let mut first = true;
        for (name, base) in &baselines {
            if let Some(r) = results.iter().find(|r| r.name == name) {
                if !first {
                    json.push_str(", ");
                }
                let _ = write!(json, "\"{name}\": {:.2}", r.pps / base);
                first = false;
            }
        }
        json.push_str("}\n");
    }
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write bench json");
    println!("\nwrote {out_path}");
}
