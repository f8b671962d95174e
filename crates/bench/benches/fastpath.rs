//! Criterion companion of the `fastpath` sweep binary: statistically solid
//! per-burst timings of the cache hierarchy at the three fixed operating
//! points the sweep records to `BENCH_fastpath.json`, plus a per-packet vs
//! batched comparison that shows what burst processing buys on its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bench_harness::fastpath::{build_ring, port_pipeline, port_traffic, BURST};
use openflow::{Datapath, NoCt, NullController};
use ovsdp::{OvsConfig, OvsDatapath};

fn ovs(use_microflow: bool) -> OvsDatapath {
    OvsDatapath::with_config(
        port_pipeline(),
        OvsConfig {
            use_microflow,
            ..OvsConfig::default()
        },
        Box::new(NullController::new()),
    )
}

/// One burst through the cache hierarchy at each Fig. 14 operating point.
fn bench_fastpath_burst(c: &mut Criterion) {
    let mut group = c.benchmark_group("fastpath_burst32");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (label, use_microflow, flows) in [
        ("megaflow_hit", true, 16_384usize),
        ("microflow_hit", true, 1_024),
        ("tss_no_emc", false, 8_192),
    ] {
        let dp = ovs(use_microflow);
        let mut ring = build_ring(&port_traffic(flows));
        let mut verdicts = Vec::with_capacity(BURST);
        for chunk in ring.chunks_mut(BURST) {
            dp.process_burst(chunk, &mut verdicts, &mut NoCt);
        }
        let bursts = ring.len() / BURST;
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(label), &flows, |b, _| {
            b.iter(|| {
                let start = (next % bursts) * BURST;
                next += 1;
                dp.process_burst(&mut ring[start..start + BURST], &mut verdicts, &mut NoCt);
                std::hint::black_box(verdicts.len());
            })
        });
    }
    group.finish();
}

/// Per-packet `process` (a burst of one) vs a 32-packet `process_burst` on
/// the same warmed datapath — what grouping a burst's lock traffic and key
/// work buys.
fn bench_batch_vs_per_packet(c: &mut Criterion) {
    let mut group = c.benchmark_group("fastpath_batch_vs_per_packet");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    let dp = ovs(false);
    let mut ring = build_ring(&port_traffic(2_048));
    let mut verdicts = Vec::with_capacity(BURST);
    for chunk in ring.chunks_mut(BURST) {
        dp.process_burst(chunk, &mut verdicts, &mut NoCt);
    }
    let bursts = ring.len() / BURST;

    let mut next = 0usize;
    group.bench_with_input(BenchmarkId::from_parameter("per_packet32"), &(), |b, _| {
        b.iter(|| {
            let start = (next % bursts) * BURST;
            next += 1;
            for p in &mut ring[start..start + BURST] {
                std::hint::black_box(dp.process(p));
            }
        })
    });
    let mut next = 0usize;
    group.bench_with_input(BenchmarkId::from_parameter("batch32"), &(), |b, _| {
        b.iter(|| {
            let start = (next % bursts) * BURST;
            next += 1;
            dp.process_burst(&mut ring[start..start + BURST], &mut verdicts, &mut NoCt);
            std::hint::black_box(verdicts.len());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fastpath_burst, bench_batch_vs_per_packet);
criterion_main!(benches);
