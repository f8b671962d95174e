//! End-to-end integration tests over the four evaluation use cases: the
//! compiled datapath and the flow-caching datapath must agree with the
//! reference interpreter (one list of executions, `common::executions`),
//! the expected templates must be selected, the gateway's reactive
//! admission must work on every execution, and the cache-hierarchy
//! behaviour the figures rely on must be observable.

mod common;

use common::{assert_agree, checksums_verify, executions, executions_with};
use eswitch::analysis::TemplateKind;
use eswitch::runtime::EswitchRuntime;
use openflow::Datapath;
use ovsdp::OvsDatapath;
use pkt::builder::PacketBuilder;
use workloads::gateway::{self, GatewayConfig};
use workloads::l2::{self, L2Config};
use workloads::l3::{self, L3Config};
use workloads::load_balancer::{self, LoadBalancerConfig};
use workloads::snat_edge::{self, SnatEdgeConfig};
use workloads::FlowSet;

/// Checks that every architecture agrees with the direct interpreter — on the
/// decision and on the frame bytes — over one full cycle of the traffic mix,
/// and that what is forwarded still verifies (the gateway NATs and routes:
/// header and TCP/UDP checksums both have to follow the rewrites).
fn assert_all_agree(pipeline: openflow::Pipeline, traffic: &FlowSet) {
    let executions = executions(&pipeline);
    for (i, packet) in traffic.one_cycle().enumerate() {
        let (_, forwarded) = assert_agree(&executions, &packet, &format!("packet {i}"));
        assert!(
            checksums_verify(forwarded.data()),
            "bad checksum out at {i}"
        );
    }
}

#[test]
fn l2_use_case_compiles_to_hash_and_agrees() {
    let config = L2Config {
        table_size: 200,
        ports: 4,
        seed: 21,
    };
    let eswitch = EswitchRuntime::compile(l2::build_pipeline(&config)).unwrap();
    assert_eq!(
        eswitch.datapath().template_kinds(),
        vec![(0, TemplateKind::CompoundHash)]
    );
    assert_all_agree(
        l2::build_pipeline(&config),
        &l2::build_traffic(&config, 500),
    );
}

#[test]
fn l3_use_case_compiles_to_lpm_and_agrees() {
    let config = L3Config {
        prefixes: 500,
        next_hops: 8,
        seed: 22,
    };
    let eswitch = EswitchRuntime::compile(l3::build_pipeline(&config)).unwrap();
    assert_eq!(
        eswitch.datapath().template_kinds(),
        vec![(0, TemplateKind::Lpm)]
    );
    assert_all_agree(
        l3::build_pipeline(&config),
        &l3::build_traffic(&config, 500),
    );
}

#[test]
fn load_balancer_decomposition_promotes_templates_and_agrees() {
    let config = LoadBalancerConfig {
        services: 20,
        seed: 23,
    };
    // The single heterogeneous table would be a linked list; the compiler
    // decomposes it, and every stage of the chain is a fast template.
    let pipeline = load_balancer::build_pipeline(&config);
    let eswitch = EswitchRuntime::compile(pipeline.clone()).unwrap();
    let datapath = eswitch.datapath();
    assert!(datapath.chain(0).is_some(), "load balancer not decomposed");
    let kinds = datapath.template_kinds();
    assert!(kinds.len() > 1);
    for (id, kind) in kinds {
        assert_eq!(id, 0, "a stage left table 0's id");
        assert_ne!(
            kind,
            TemplateKind::LinkedList,
            "a stage is still a linked list"
        );
    }
    // The controller's pipeline is kept as written.
    eswitch.with_pipeline(|kept| {
        assert_eq!(kept.table_count(), pipeline.table_count());
        assert_eq!(kept.entry_count(), pipeline.entry_count());
    });

    // The decomposed compiled datapath agrees with the reference, and so do
    // the other executions.
    let executions = executions(&pipeline);
    let traffic = load_balancer::build_traffic(&config, 400);
    for (i, packet) in traffic.one_cycle().enumerate() {
        assert_agree(&executions, &packet, &format!("packet {i}"));
    }
}

/// The pipelines the benchmark's workloads compile — `l2` with 1 k MACs,
/// the gateway at 2 000 and at 256 prefixes, and `snat_edge` — hold no
/// linked-list table, so none is decomposed: their compiled datapaths are
/// one template per table.
#[test]
fn benchmark_workload_pipelines_compile_without_linked_lists_or_chains() {
    for seed in [1u64, 2, 3, 42] {
        let mut pipelines = vec![
            (
                "l2",
                l2::build_pipeline(&L2Config {
                    table_size: 1_000,
                    ports: 4,
                    seed,
                }),
            ),
            (
                "snat_edge",
                snat_edge::build_pipeline(&SnatEdgeConfig { seed }),
            ),
        ];
        for prefixes in [2_000, 256] {
            let gateway = gateway::build_pipeline(&GatewayConfig {
                routing_prefixes: prefixes,
                seed,
                ..GatewayConfig::default()
            });
            pipelines.push(("gateway", gateway));
        }
        for (name, pipeline) in pipelines {
            let tables = pipeline.table_count();
            let datapath = EswitchRuntime::compile(pipeline).unwrap().datapath();
            let kinds = datapath.template_kinds();
            assert_eq!(kinds.len(), tables, "{name} (seed {seed}) grew stages");
            for (id, kind) in kinds {
                assert_ne!(
                    kind,
                    TemplateKind::LinkedList,
                    "{name} table {id} (seed {seed})"
                );
                assert!(
                    datapath.chain(id).is_none(),
                    "{name} table {id} (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn gateway_use_case_agrees_in_both_directions() {
    let config = GatewayConfig {
        ces: 4,
        users_per_ce: 5,
        routing_prefixes: 500,
        seed: 24,
        preinstall_users: true,
    };
    assert_all_agree(
        gateway::build_pipeline(&config),
        &gateway::build_traffic(&config, 300),
    );
    assert_all_agree(
        gateway::build_pipeline(&config),
        &gateway::build_downstream_traffic(&config, 300),
    );
}

#[test]
fn admission_controller_installs_the_user() {
    // Fig. 13 in reactive mode: the per-CE tables start empty, so a user's
    // first packet punts and the admission controller installs the user's
    // NAT rule pair — on the interpreter, ESWITCH and OVS alike.
    let config = GatewayConfig {
        ces: 3,
        users_per_ce: 4,
        routing_prefixes: 200,
        seed: 1,
        preinstall_users: false,
    };
    let executions = executions_with(&gateway::build_pipeline(&config), || {
        Box::new(gateway::admission_controller(&config))
    });
    let packet = || {
        PacketBuilder::tcp()
            .vlan(gateway::ce_vlan(2))
            .ipv4_src(gateway::user_private_ip(2, 3).octets())
            .ipv4_dst([198, 51, 100, 9])
            .in_port(workloads::usecases::PORT_USER)
            .build()
    };
    for (name, dp) in &executions {
        // First packet of the user: punted, NAT rules installed.
        assert!(dp.process(&mut packet()).to_controller, "{name}");
        // Second packet: handled in the dataplane. The destination may or
        // may not be covered by the synthetic routing table; what matters
        // is that the per-CE table no longer punts.
        assert!(!dp.process(&mut packet()).to_controller, "{name}");
        let stats = dp.stats();
        assert_eq!(stats.packet_ins, 1, "{name}");
        assert_eq!(stats.flow_mods_rejected, 0, "{name}");
    }
}

#[test]
fn gateway_templates_match_the_paper_mapping() {
    // "ESWITCH compiles this pipeline using the hash template for each table
    // except for Table 110 that is mapped to the LPM store."
    let config = GatewayConfig {
        ces: 3,
        users_per_ce: 10,
        routing_prefixes: 1_000,
        seed: 25,
        preinstall_users: true,
    };
    let eswitch = EswitchRuntime::compile(gateway::build_pipeline(&config)).unwrap();
    for (id, kind) in eswitch.datapath().template_kinds() {
        if id == gateway::ROUTING_TABLE {
            assert_eq!(kind, TemplateKind::Lpm, "routing table must be LPM");
        } else {
            assert!(
                matches!(kind, TemplateKind::CompoundHash | TemplateKind::DirectCode),
                "table {id} unexpectedly compiled to {kind:?}"
            );
        }
    }
}

#[test]
fn ovs_hierarchy_shifts_with_active_flow_count() {
    // The Fig. 14 mechanism: with few flows the microflow cache answers most
    // packets; with many flows its hit share collapses.
    let config = GatewayConfig {
        ces: 4,
        users_per_ce: 10,
        routing_prefixes: 500,
        seed: 26,
        preinstall_users: true,
    };
    let few = OvsDatapath::new(gateway::build_pipeline(&config));
    let traffic_few = gateway::build_traffic(&config, 10);
    for i in 0..5_000 {
        few.process(&mut traffic_few.packet(i));
    }
    let (micro_few, _, _) = few.stats.hit_fractions();

    let many = OvsDatapath::new(gateway::build_pipeline(&config));
    let traffic_many = gateway::build_traffic(&config, 50_000);
    for i in 0..5_000 {
        many.process(&mut traffic_many.packet(i));
    }
    let (micro_many, _, slow_many) = many.stats.hit_fractions();

    assert!(
        micro_few > 0.9,
        "few flows should be microflow-dominated: {micro_few}"
    );
    assert!(
        micro_many < 0.5,
        "many flows must thrash the microflow cache: {micro_many}"
    );
    assert!(slow_many > 0.0, "many flows must reach the slow path");
}

#[test]
fn eswitch_work_is_flow_count_independent() {
    // The compiled datapath visits the same tables regardless of how many
    // flows are active — the structural reason behind its flat curves.
    let config = GatewayConfig {
        ces: 4,
        users_per_ce: 5,
        routing_prefixes: 300,
        seed: 27,
        preinstall_users: true,
    };
    let eswitch = EswitchRuntime::compile(gateway::build_pipeline(&config)).unwrap();
    for flows in [1usize, 1_000] {
        let traffic = gateway::build_traffic(&config, flows);
        for packet in traffic.one_cycle().take(200) {
            let mut p = packet;
            let verdict = eswitch.process(&mut p);
            assert_eq!(
                verdict.tables_visited, 3,
                "upstream walk is always 3 tables"
            );
        }
    }
}
