//! Criterion benchmarks: per-packet cost of the three switch architectures on
//! the four evaluation use cases (the single-point companions of Figs. 10–13)
//! and of the individual table templates (the Fig. 9 companion).
//!
//! These complement the figure harness binaries in `src/bin/`: Criterion
//! gives statistically solid per-packet timings for a fixed operating point,
//! while the binaries sweep the full parameter ranges of the figures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bench_harness::SwitchKind;
use workloads::gateway::GatewayConfig;
use workloads::l2::L2Config;
use workloads::l3::L3Config;
use workloads::load_balancer::LoadBalancerConfig;
use workloads::FlowSet;

const ACTIVE_FLOWS: usize = 10_000;
const WARMUP_PACKETS: usize = 20_000;

fn bench_use_case(
    c: &mut Criterion,
    group_name: &str,
    make_pipeline: impl Fn() -> openflow::Pipeline,
    traffic: &FlowSet,
    kinds: &[SwitchKind],
) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for kind in kinds {
        let switch = kind.build(make_pipeline());
        for i in 0..WARMUP_PACKETS {
            switch.process(&mut traffic.packet(i));
        }
        let mut i = WARMUP_PACKETS;
        group.bench_with_input(BenchmarkId::from_parameter(kind.label()), kind, |b, _| {
            b.iter(|| {
                let mut packet = traffic.packet(i);
                i += 1;
                std::hint::black_box(switch.process(&mut packet))
            })
        });
    }
    group.finish();
}

/// Fig. 10 companion: L2 switching, 1K MAC entries, 10K active flows.
fn bench_l2(c: &mut Criterion) {
    let config = L2Config {
        table_size: 1_000,
        ports: 4,
        seed: 1,
    };
    let traffic = workloads::l2::build_traffic(&config, ACTIVE_FLOWS);
    bench_use_case(
        c,
        "fig10_l2_per_packet",
        || workloads::l2::build_pipeline(&config),
        &traffic,
        &[SwitchKind::Eswitch, SwitchKind::Ovs, SwitchKind::Direct],
    );
}

/// Fig. 11 companion: L3 routing, 1K prefixes, 10K active flows.
fn bench_l3(c: &mut Criterion) {
    let config = L3Config {
        prefixes: 1_000,
        next_hops: 8,
        seed: 2,
    };
    let traffic = workloads::l3::build_traffic(&config, ACTIVE_FLOWS);
    bench_use_case(
        c,
        "fig11_l3_per_packet",
        || workloads::l3::build_pipeline(&config),
        &traffic,
        &[SwitchKind::Eswitch, SwitchKind::Ovs],
    );
}

/// Fig. 12 companion: load balancer, 100 services, 10K active flows.
fn bench_load_balancer(c: &mut Criterion) {
    let config = LoadBalancerConfig {
        services: 100,
        seed: 3,
    };
    let traffic = workloads::load_balancer::build_traffic(&config, ACTIVE_FLOWS);
    bench_use_case(
        c,
        "fig12_lb_per_packet",
        || workloads::load_balancer::build_pipeline(&config),
        &traffic,
        &[SwitchKind::EswitchDecomposed, SwitchKind::Ovs],
    );
}

/// Fig. 13 companion: access gateway, 10K active flows.
fn bench_gateway(c: &mut Criterion) {
    let config = GatewayConfig {
        routing_prefixes: 10_000,
        ..GatewayConfig::default()
    };
    let traffic = workloads::gateway::build_traffic(&config, ACTIVE_FLOWS);
    bench_use_case(
        c,
        "fig13_gateway_per_packet",
        || workloads::gateway::build_pipeline(&config),
        &traffic,
        &[SwitchKind::Eswitch, SwitchKind::Ovs],
    );
}

/// Fig. 9 companion: per-lookup cost of the table templates at 1–9 entries.
fn bench_templates(c: &mut Criterion) {
    use eswitch::analysis::CompilerConfig;
    use openflow::flow_match::FlowMatch;
    use openflow::instruction::terminal_actions;
    use openflow::{Action, Field, FlowEntry, NoCt, Pipeline};
    use pkt::builder::PacketBuilder;

    let mut group = c.benchmark_group("fig09_template_lookup");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(1));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for entries in [2usize, 4, 8] {
        let mut pipeline = Pipeline::with_tables(1);
        for n in 1..=entries as u16 {
            pipeline.table_mut(0).unwrap().insert(FlowEntry::new(
                FlowMatch::any()
                    .with_exact(Field::VlanVid, 3)
                    .with_exact(
                        Field::Ipv4Src,
                        u128::from(u32::from_be_bytes([10, 0, 0, 3])),
                    )
                    .with_exact(Field::IpProto, 17)
                    .with_exact(Field::UdpDst, u128::from(n)),
                100,
                terminal_actions(vec![Action::Output(1)]),
            ));
        }
        let mut packet = PacketBuilder::udp()
            .vlan(3)
            .ipv4_src([10, 0, 0, 3])
            .udp_dst(entries as u16)
            .build();
        for (label, limit) in [("direct", usize::MAX), ("hash", 0)] {
            let dp = eswitch::compile::compile(
                &pipeline,
                &CompilerConfig {
                    direct_code_limit: limit,
                    ..CompilerConfig::default()
                },
            )
            .expect("compiles");
            let mut verdicts = Vec::with_capacity(1);
            group.bench_with_input(BenchmarkId::new(label, entries), &entries, |b, _| {
                b.iter(|| {
                    let burst = std::slice::from_mut(&mut packet);
                    dp.process_burst_ct(burst, &mut verdicts, &mut NoCt);
                    std::hint::black_box(&verdicts);
                })
            });
        }
    }
    group.finish();
}

/// Fig. 17 companion: cost of one incremental flow-mod against a compiled
/// MAC table vs the OVS path (which must invalidate its caches).
fn bench_updates(c: &mut Criterion) {
    use openflow::flow_match::FlowMatch;
    use openflow::instruction::terminal_actions;
    use openflow::{Action, Field, FlowMod};

    let mut group = c.benchmark_group("fig17_single_flow_mod");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(1));
    let config = L2Config {
        table_size: 1_000,
        ports: 4,
        seed: 4,
    };
    for kind in [SwitchKind::Eswitch, SwitchKind::Ovs] {
        let switch = kind.build(workloads::l2::build_pipeline(&config));
        let mut next_mac: u64 = 0x0600_0000_0000;
        group.bench_with_input(BenchmarkId::from_parameter(kind.label()), &kind, |b, _| {
            b.iter(|| {
                next_mac += 1;
                let fm = FlowMod::add(
                    0,
                    FlowMatch::any().with_exact(Field::EthDst, u128::from(next_mac)),
                    100,
                    terminal_actions(vec![Action::Output(1)]),
                );
                let _ = switch.flow_mod(&fm);
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_l2,
    bench_l3,
    bench_load_balancer,
    bench_gateway,
    bench_templates,
    bench_updates
);
criterion_main!(benches);
