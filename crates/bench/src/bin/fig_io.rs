//! fig_io — multi-port ingress/egress harness for `BENCH_io.json`.
//!
//! Sweeps a port-attached [`shard::ShardedSwitch`] launch over a 1/2/4-port
//! × 1/2/4-shard matrix with feeder/drainer threads on every port, then runs
//! two targeted comparisons:
//!
//! * **TX styles** — a single-threaded TX-ring microbench of per-packet
//!   `Port::tx` versus the vectored `Port::tx_burst` the workers' egress
//!   stage uses (one reservation, one tail publication and one counter RMW
//!   per *burst* versus per *frame*). It is the batching-speedup evidence:
//!   deterministic on a time-sliced host, where end-to-end wall pps is
//!   scheduler noise.
//! * **Classifier steering** — hash-only dispatch versus a pre-shard
//!   program pinning one destination port's flows to shard 0.
//!
//! The JSON embeds the machine's logical CPU count; on a host with fewer
//! cores than threads (dispatchers + workers + wire threads) the matrix
//! rows time-slice and only the microbench ratios carry signal.
//! `ESWITCH_BENCH_QUICK=1` shrinks the windows for CI smoke runs.

use std::fmt::Write as _;

use bench_harness::io::{measure_io_throughput, measure_tx_styles, steering_classifier, IoConfig};
use bench_harness::print_header;
use netdev::classify::Classifier;
use shard::BackendSpec;

/// Port and shard counts swept in the matrix.
const SWEEP: [usize; 3] = [1, 2, 4];

fn duration_ms() -> u64 {
    if bench_harness::quick_mode() {
        80
    } else {
        400
    }
}

fn warmup_ms() -> u64 {
    if bench_harness::quick_mode() {
        20
    } else {
        100
    }
}

fn tx_frames() -> usize {
    if bench_harness::quick_mode() {
        200_000
    } else {
        2_000_000
    }
}

fn base_config(ports: usize, shards: usize) -> IoConfig {
    IoConfig {
        ports: ports as u32,
        shards,
        classifier: Classifier::new(),
        flows: 256,
        warmup_ms: warmup_ms(),
        duration_ms: duration_ms(),
    }
}

struct Cell {
    ports: usize,
    shards: usize,
    pps: f64,
    batch_factor: f64,
}

fn main() {
    let mut out_path = String::from("BENCH_io.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out takes a path"),
            other => panic!("unknown argument {other:?}"),
        }
    }

    print_header(
        "io",
        "multi-port dispatchers, vectored egress, pre-shard classifier (BENCH_io.json)",
    );

    // Port × shard matrix, vectored egress, eswitch backend.
    let mut matrix: Vec<Cell> = Vec::new();
    for &ports in &SWEEP {
        for &shards in &SWEEP {
            let result = measure_io_throughput(BackendSpec::eswitch(), &base_config(ports, shards));
            println!(
                "matrix {ports} port(s) x {shards} shard(s)  {:>12.0} pps  egress batch {:>5.1} frames/flush",
                result.pps, result.egress_batch_factor
            );
            matrix.push(Cell {
                ports,
                shards,
                pps: result.pps,
                batch_factor: result.egress_batch_factor,
            });
        }
    }

    // Per-packet vs vectored TX: the deterministic TX-ring microbench.
    let tx = measure_tx_styles(tx_frames());
    println!(
        "egress  tx ring: per-packet {:.1} ns/frame, vectored {:.1} ns/frame  ({:.2}x)",
        tx.per_packet_ns, tx.vectored_ns, tx.speedup
    );

    // Classifier: hash-only vs steering 1/16th of flows to shard 0.
    let hash_only = measure_io_throughput(BackendSpec::eswitch(), &base_config(2, 4));
    let steered = measure_io_throughput(
        BackendSpec::eswitch(),
        &IoConfig {
            classifier: steering_classifier(),
            ..base_config(2, 4)
        },
    );
    println!(
        "classifier  hash-only {:>12.0} pps vs steered {:>12.0} pps",
        hash_only.pps, steered.pps
    );

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"io\",\n");
    json.push_str("  \"schema_version\": 2,\n");
    let _ = writeln!(json, "  \"burst_size\": {},", netdev::BURST_SIZE);
    let _ = writeln!(json, "  \"duration_ms\": {},", duration_ms());
    let _ = writeln!(json, "  \"warmup_ms\": {},", warmup_ms());
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
        "  \"note\": \"matrix pps needs logical_cpus > dispatchers + shards + wire threads; \
         on smaller hosts the rows time-slice and tx_styles carries the batching signal\",\n",
    );
    json.push_str("  \"matrix\": [\n");
    for (i, cell) in matrix.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"ports\": {}, \"shards\": {}, \"backend\": \"eswitch\", \"pps\": {:.0}, \"egress_frames_per_flush\": {:.2}}}",
            cell.ports, cell.shards, cell.pps, cell.batch_factor
        );
        json.push_str(if i + 1 < matrix.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"tx_styles\": {{\"frames\": {}, \"per_packet_ns_per_frame\": {:.2}, \"vectored_ns_per_frame\": {:.2}, \"speedup\": {:.2}}},",
        tx_frames(),
        tx.per_packet_ns,
        tx.vectored_ns,
        tx.speedup
    );
    json.push_str("  \"classifier\": {\n");
    let _ = writeln!(json, "    \"hash_only_pps\": {:.0},", hash_only.pps);
    let _ = writeln!(json, "    \"steered_pps\": {:.0},", steered.pps);
    json.push_str(
        "    \"program\": \"tcp dst 1000 -> Steer(0); 1/16th of flows pinned off the hash\"\n",
    );
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write bench json");
    println!("\nwrote {out_path}");
}
