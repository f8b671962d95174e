//! # bench_harness — shared machinery for regenerating the paper's figures
//!
//! Every table and figure of the evaluation has a dedicated binary under
//! `src/bin/` (`fig03_*` … `fig20_*`, `tab_decompose_acl`); this library
//! holds what they share: a constructor for the three switch architectures
//! under test behind `openflow::Datapath`, throughput/latency measurement
//! loops, the
//! multi-core runner for Fig. 19, and plain-text series/table rendering so
//! every binary prints the same self-describing report format.
//!
//! The binaries honour the `ESWITCH_BENCH_QUICK=1` environment variable,
//! which shrinks packet counts and sweep ranges so the whole figure set can
//! be regenerated in seconds (CI) instead of minutes (faithful runs).

pub mod conntrack;
pub mod datapath;
pub mod fastpath;
pub mod io;
pub mod measure;
pub mod multicore;
pub mod reactive;
pub mod report;
pub mod updates;

pub use datapath::SwitchKind;
pub use io::{measure_io_throughput, measure_tx_styles, IoConfig, IoResult, TxStyles};
pub use measure::{measure_latency_cycles, measure_throughput, Measurement};
pub use multicore::{
    measure_multicore_throughput, measure_sharded_throughput, measure_skewed_throughput,
    SkewConfig, SkewResult,
};
pub use reactive::{measure_reactive_load, ReactiveLoadConfig, ReactiveLoadPoint};
pub use report::{render_series_table, Series};
pub use updates::{measure_update_load, UpdateLoadConfig, UpdateLoadPoint};

/// True when quick mode is requested (smaller packet counts and sweeps).
pub fn quick_mode() -> bool {
    std::env::var("ESWITCH_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// Packets measured per data point (after warm-up), honouring quick mode.
pub fn packets_per_point() -> usize {
    if quick_mode() {
        20_000
    } else {
        300_000
    }
}

/// Warm-up packets per data point.
pub fn warmup_packets() -> usize {
    if quick_mode() {
        5_000
    } else {
        50_000
    }
}

/// The standard active-flow sweep, truncated in quick mode.
pub fn flow_sweep(include_million: bool) -> Vec<usize> {
    let full = workloads::traffic::active_flow_sweep(include_million && !quick_mode());
    if quick_mode() {
        full.into_iter().filter(|f| *f <= 10_000).collect()
    } else {
        full
    }
}

/// Prints the standard report header: what is being reproduced and on what
/// machine (the Table 1 analogue for this run).
pub fn print_header(figure: &str, description: &str) {
    let profile = cpumodel::SystemProfile::paper_sut();
    println!("================================================================");
    println!("{figure}: {description}");
    println!("----------------------------------------------------------------");
    println!("reference platform (paper Table 1):");
    for line in profile.render_datasheet().lines() {
        println!("  {line}");
    }
    println!(
        "this run: {} logical cores, quick_mode={}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        quick_mode()
    );
    println!("================================================================");
}
