//! Fig. 18 — packet rate under a concurrent flow-update load, normalised to
//! the unloaded rate, on the gateway use case with 1K active flows.
//!
//! The update stream modifies the last-level routing table (table 110), as in
//! the paper. Expected shape: ESWITCH keeps ≥80–95 % of its unloaded rate
//! even at very high update intensities because updates are per-table and
//! mostly non-destructive; OVS loses most of its throughput already at
//! moderate intensities because every update invalidates the entire megaflow
//! cache and the traffic has to be re-classified through the slow path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench_harness::{print_header, quick_mode, render_series_table, Series, SwitchKind};
use openflow::flow_match::FlowMatch;
use openflow::instruction::terminal_actions;
use openflow::{Action, Datapath, Field, FlowMod};
use workloads::gateway::{self, GatewayConfig};

const ACTIVE_FLOWS: usize = 1_000;

/// Measures packets/second while a second thread applies `updates_per_sec`
/// route add/delete operations against the routing table.
fn rate_under_updates(kind: SwitchKind, updates_per_sec: u64, duration_ms: u64) -> f64 {
    let config = GatewayConfig::default();
    let switch: Arc<dyn Datapath> = Arc::from(kind.build(gateway::build_pipeline(&config)));
    let traffic = gateway::build_traffic(&config, ACTIVE_FLOWS);

    // Warm up.
    for i in 0..20_000 {
        switch.process(&mut traffic.packet(i));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let applied = Arc::new(AtomicU64::new(0));
    let updater = {
        let switch = Arc::clone(&switch);
        let stop = Arc::clone(&stop);
        let applied = Arc::clone(&applied);
        std::thread::spawn(move || {
            if updates_per_sec == 0 {
                return;
            }
            let interval = Duration::from_secs_f64(1.0 / updates_per_sec as f64);
            let mut next = Instant::now();
            let mut i = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let prefix = u32::from_be_bytes([203, 0, (i % 250) as u8, 0]);
                let add = FlowMod::add(
                    gateway::ROUTING_TABLE,
                    FlowMatch::any().with_prefix(Field::Ipv4Dst, u128::from(prefix), 24),
                    134,
                    terminal_actions(vec![Action::Output(1)]),
                );
                let _ = switch.flow_mod(&add);
                applied.fetch_add(1, Ordering::Relaxed);
                i += 1;
                next += interval;
                let now = Instant::now();
                if next > now {
                    std::thread::sleep(next - now);
                } else {
                    next = now;
                }
            }
        })
    };

    let start = Instant::now();
    let mut processed = 0u64;
    let mut i = 20_000usize;
    while start.elapsed() < Duration::from_millis(duration_ms) {
        for _ in 0..256 {
            let mut packet = traffic.packet(i);
            std::hint::black_box(switch.process(&mut packet));
            i += 1;
            processed += 1;
        }
    }
    let rate = processed as f64 / start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    updater.join().expect("updater thread");
    rate
}

fn main() {
    print_header(
        "Figure 18",
        "normalised packet rate vs flow-update intensity (gateway, 1K active flows)",
    );
    let duration_ms = if quick_mode() { 250 } else { 1_000 };
    let intensities: Vec<u64> = if quick_mode() {
        vec![0, 10, 100, 1_000]
    } else {
        vec![0, 1, 10, 100, 1_000, 10_000, 100_000]
    };

    let mut series = Vec::new();
    for kind in [SwitchKind::Eswitch, SwitchKind::Ovs] {
        let unloaded = rate_under_updates(kind, 0, duration_ms);
        let mut s = Series::new(kind.label());
        for &ups in &intensities {
            let rate = if ups == 0 {
                unloaded
            } else {
                rate_under_updates(kind, ups, duration_ms)
            };
            s.push(ups.max(1) as f64, rate / unloaded);
        }
        println!(
            "  {} unloaded rate: {:.2} Mpps-equivalent",
            kind.label(),
            unloaded / 1e6
        );
        series.push(s);
    }

    println!("\nnormalised packet rate (relative to the unloaded case)\n");
    println!("{}", render_series_table("updates per second", &series));
}
