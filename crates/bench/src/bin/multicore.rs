//! multicore — throughput harness for the sharded multi-worker runtime.
//!
//! Runs the port-pipeline workloads through the `shard` runtime (RSS
//! dispatcher → per-worker SPSC rings → per-shard datapath replicas draining
//! 32-packet bursts) at 1, 2 and 4 worker shards, and records the results to
//! `BENCH_multicore.json` so the multi-core trajectory of the repo is a
//! committed artifact:
//!
//! * `megaflow_hit`  — OVS backend, EMC thrashing, tuple-space-search bound;
//! * `microflow_hit` — OVS backend, active flows fit the per-shard EMCs;
//! * `tss_no_emc`    — OVS backend with the EMC disabled on every shard;
//! * `eswitch_l2`    — compiled ESWITCH datapath replicas on the L2 use case.
//!
//! Schema v2 adds the `skew` section: a Zipfian elephant-flow workload with
//! the heavy hitters pinned to shard 0's buckets, offered three ways —
//! static indirection table, elastic rebalancer, and a uniform no-skew
//! reference. Each entry reports wall pps, the *modeled* aggregate
//! (packets over the busiest shard's busy time — the balance signal that
//! stays valid on an undersubscribed host), the busiest shard's busy-time
//! share, and the remap count.
//!
//! The JSON embeds the machine's logical CPU count: the scaling ratios are
//! only meaningful when the host actually has more cores than shards (on a
//! 1-CPU container the workers time-slice and ratios hover around 1.0).
//! `ESWITCH_BENCH_QUICK=1` shrinks the measurement windows for CI smoke runs.

use std::fmt::Write as _;

use bench_harness::multicore::{port_pipeline, port_traffic, SHARD_RING_CAPACITY};
use bench_harness::{measure_sharded_throughput, measure_skewed_throughput, print_header};
use bench_harness::{SkewConfig, SkewResult};
use openflow::Pipeline;
use ovsdp::OvsConfig;
use shard::BackendSpec;
use workloads::l2::{self, L2Config};
use workloads::FlowSet;

/// Worker-shard counts swept per workload.
const WORKER_SWEEP: [usize; 3] = [1, 2, 4];

fn duration_ms() -> u64 {
    if bench_harness::quick_mode() {
        120
    } else {
        500
    }
}

fn warmup_packets() -> usize {
    if bench_harness::quick_mode() {
        5_000
    } else {
        25_000
    }
}

/// One sharded workload of the sweep.
struct Workload {
    name: &'static str,
    spec: BackendSpec,
    pipeline: Pipeline,
    traffic: FlowSet,
}

fn workloads() -> Vec<Workload> {
    let l2_config = L2Config {
        table_size: 1_000,
        ports: 4,
        seed: 1,
    };
    vec![
        Workload {
            name: "megaflow_hit",
            spec: BackendSpec::ovs(),
            pipeline: port_pipeline(),
            traffic: port_traffic(16_384),
        },
        Workload {
            name: "microflow_hit",
            spec: BackendSpec::ovs(),
            pipeline: port_pipeline(),
            traffic: port_traffic(1_024),
        },
        Workload {
            name: "tss_no_emc",
            spec: BackendSpec::Ovs(OvsConfig {
                use_microflow: false,
                ..OvsConfig::default()
            }),
            pipeline: port_pipeline(),
            traffic: port_traffic(8_192),
        },
        Workload {
            name: "eswitch_l2",
            spec: BackendSpec::eswitch(),
            pipeline: l2::build_pipeline(&l2_config),
            traffic: l2::build_traffic(&l2_config, 8_192),
        },
    ]
}

struct Point {
    workload: &'static str,
    backend: &'static str,
    workers: usize,
    pps: f64,
}

/// One skew-section entry: a backend × scheduling-mode cell.
struct SkewPoint {
    backend: &'static str,
    mode: &'static str,
    result: SkewResult,
}

/// The three scheduling modes of the skew experiment, per backend.
fn skew_points() -> (SkewConfig, Vec<SkewPoint>) {
    let base = SkewConfig {
        workers: 2,
        flows: 256,
        zipf_s: 1.3,
        elephants: 8,
        warmup_packets: warmup_packets(),
        duration_ms: duration_ms(),
        rebalance: None,
        uniform: false,
    };
    let modes: [(&'static str, Option<shard::RebalanceConfig>, bool); 3] = [
        ("uniform", None, true),
        ("static", None, false),
        ("rebalanced", Some(SkewConfig::rebalance_profile()), false),
    ];
    let mut points = Vec::new();
    for (backend, spec) in [
        ("ovs", BackendSpec::ovs()),
        ("eswitch", BackendSpec::eswitch()),
    ] {
        for (mode, rebalance, uniform) in modes {
            let result = measure_skewed_throughput(
                spec,
                port_pipeline(),
                &SkewConfig {
                    rebalance,
                    uniform,
                    ..base
                },
            );
            println!(
                "skew {:<8} {:<10}  model {:>12.0} pps  busy-share {:.2}  remaps {:>3}",
                backend, mode, result.pps_model, result.max_busy_share, result.remaps
            );
            points.push(SkewPoint {
                backend,
                mode,
                result,
            });
        }
    }
    (base, points)
}

fn main() {
    let mut out_path = String::from("BENCH_multicore.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out takes a path"),
            other => panic!("unknown argument {other:?}"),
        }
    }

    print_header(
        "multicore",
        "sharded-runtime throughput, 1/2/4 worker shards (BENCH_multicore.json)",
    );

    let mut points: Vec<Point> = Vec::new();
    for workload in workloads() {
        for &workers in &WORKER_SWEEP {
            let pps = measure_sharded_throughput(
                workload.spec,
                workload.pipeline.clone(),
                &workload.traffic,
                workers,
                warmup_packets(),
                duration_ms(),
            );
            println!(
                "{:<14} {:>2} worker{}  {:>12.0} pps  {:>8.1} ns/pkt",
                workload.name,
                workers,
                if workers == 1 { " " } else { "s" },
                pps,
                1e9 / pps
            );
            points.push(Point {
                workload: workload.name,
                backend: workload.spec.label(),
                workers,
                pps,
            });
        }
    }

    let (skew_config, skew) = skew_points();

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"multicore\",\n");
    json.push_str("  \"schema_version\": 2,\n");
    let _ = writeln!(json, "  \"burst_size\": {},", netdev::BURST_SIZE);
    let _ = writeln!(json, "  \"ring_capacity\": {},", SHARD_RING_CAPACITY);
    let _ = writeln!(json, "  \"duration_ms\": {},", duration_ms());
    let _ = writeln!(json, "  \"warmup_packets\": {},", warmup_packets());
    let _ = writeln!(json, "  \"quick\": {},", bench_harness::quick_mode());
    json.push_str("  \"machine\": {");
    let _ = write!(
        json,
        "\"logical_cpus\": {cpus}, \"os\": \"{}\", \"arch\": \"{}\"",
        std::env::consts::OS,
        std::env::consts::ARCH
    );
    json.push_str("},\n");
    json.push_str(
        "  \"note\": \"scaling ratios need logical_cpus > workers; with fewer cores the shards time-slice\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"backend\": \"{}\", \"workers\": {}, \"pps\": {:.0}, \"ns_per_packet\": {:.2}}}",
            p.workload, p.backend, p.workers, p.pps, 1e9 / p.pps
        );
        json.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"scaling_vs_1_worker\": {\n");
    let names: Vec<&str> = {
        let mut seen = Vec::new();
        for p in &points {
            if !seen.contains(&p.workload) {
                seen.push(p.workload);
            }
        }
        seen
    };
    for (wi, name) in names.iter().enumerate() {
        let base = points
            .iter()
            .find(|p| p.workload == *name && p.workers == 1)
            .map(|p| p.pps)
            .unwrap_or(1.0);
        let _ = write!(json, "    \"{name}\": {{");
        let mut first = true;
        for p in points
            .iter()
            .filter(|p| p.workload == *name && p.workers > 1)
        {
            if !first {
                json.push_str(", ");
            }
            let _ = write!(json, "\"{}\": {:.2}", p.workers, p.pps / base);
            first = false;
        }
        json.push('}');
        json.push_str(if wi + 1 < names.len() { ",\n" } else { "\n" });
    }
    json.push_str("  },\n");
    json.push_str("  \"skew\": {\n");
    let profile = SkewConfig::rebalance_profile();
    let _ = writeln!(
        json,
        "    \"workload\": {{\"workers\": {}, \"flows\": {}, \"zipf_s\": {}, \"elephants\": {}, \"elephant_placement\": \"pinned to shard 0 buckets\"}},",
        skew_config.workers, skew_config.flows, skew_config.zipf_s, skew_config.elephants
    );
    let _ = writeln!(
        json,
        "    \"rebalance_profile\": {{\"check_packets\": {}, \"imbalance_ratio\": {}, \"sustain\": {}, \"max_moves\": {}}},",
        profile.check_packets, profile.imbalance_ratio, profile.sustain, profile.max_moves
    );
    json.push_str(
        "    \"note\": \"pps_model = packets / busiest shard's busy time: the aggregate a core-per-shard host would sustain; valid where wall pps only measures time-slicing\",\n",
    );
    json.push_str("    \"results\": [\n");
    for (i, p) in skew.iter().enumerate() {
        let busy: Vec<String> = p
            .result
            .per_shard_busy_ms
            .iter()
            .map(|ms| format!("{ms:.1}"))
            .collect();
        let _ = write!(
            json,
            "      {{\"backend\": \"{}\", \"mode\": \"{}\", \"pps_wall\": {:.0}, \"pps_model\": {:.0}, \"max_busy_share\": {:.3}, \"remaps\": {}, \"per_shard_busy_ms\": [{}]}}",
            p.backend,
            p.mode,
            p.result.pps_wall,
            p.result.pps_model,
            p.result.max_busy_share,
            p.result.remaps,
            busy.join(", ")
        );
        json.push_str(if i + 1 < skew.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ],\n");
    json.push_str("    \"model_recovery_vs_uniform\": {\n");
    for (bi, backend) in ["ovs", "eswitch"].iter().enumerate() {
        let of = |mode: &str| {
            skew.iter()
                .find(|p| p.backend == *backend && p.mode == mode)
                .map(|p| p.result.pps_model)
                .unwrap_or(0.0)
        };
        let uniform = of("uniform").max(1.0);
        let _ = write!(
            json,
            "      \"{backend}\": {{\"static\": {:.2}, \"rebalanced\": {:.2}}}",
            of("static") / uniform,
            of("rebalanced") / uniform
        );
        json.push_str(if bi == 0 { ",\n" } else { "\n" });
    }
    json.push_str("    }\n");
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write bench json");
    println!("\nwrote {out_path}");
}
