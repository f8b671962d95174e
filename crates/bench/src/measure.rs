//! Throughput and latency measurement loops.
//!
//! A "packet rate" data point mirrors the paper's methodology: generate the
//! traffic mix for the requested number of active flows, warm the switch up
//! (populating caches / touching compiled tables), then time the
//! classification + action execution of a long packet stream on one thread
//! and report packets per second. All architectures run over identical
//! packet prototypes, so differences are attributable to the datapath
//! organisation alone.

use std::time::Instant;

use cpumodel::SystemProfile;
use openflow::Datapath;
use workloads::FlowSet;

/// One measured data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Packets per second.
    pub pps: f64,
    /// Mean nanoseconds spent per packet.
    pub ns_per_packet: f64,
    /// Mean CPU cycles per packet at the reference clock (Table 1's 2 GHz),
    /// making the numbers comparable with the paper's Fig. 16 axis.
    pub cycles_per_packet: f64,
}

/// Measures single-thread throughput of `switch` over `traffic`.
pub fn measure_throughput(
    switch: &dyn Datapath,
    traffic: &FlowSet,
    warmup_packets: usize,
    measured_packets: usize,
) -> Measurement {
    // Warm-up: fill caches / fault in compiled tables.
    for i in 0..warmup_packets {
        let mut packet = traffic.packet(i);
        std::hint::black_box(switch.process(&mut packet));
    }
    let start = Instant::now();
    for i in 0..measured_packets {
        let mut packet = traffic.packet(warmup_packets + i);
        std::hint::black_box(switch.process(&mut packet));
    }
    let elapsed = start.elapsed();
    let ns_per_packet = elapsed.as_nanos() as f64 / measured_packets.max(1) as f64;
    let profile = SystemProfile::paper_sut();
    Measurement {
        pps: 1e9 / ns_per_packet,
        ns_per_packet,
        cycles_per_packet: ns_per_packet * profile.clock_hz / 1e9,
    }
}

/// Measures mean per-packet latency (identical loop, exposed separately so
/// call sites read naturally for the latency figures).
pub fn measure_latency_cycles(
    switch: &dyn Datapath,
    traffic: &FlowSet,
    warmup_packets: usize,
    measured_packets: usize,
) -> f64 {
    measure_throughput(switch, traffic, warmup_packets, measured_packets).cycles_per_packet
}

/// Measures how long installing a sequence of flow-mods takes, returning
/// seconds (the Fig. 17 metric: "total time to set up the pipeline").
pub fn measure_update_time(switch: &dyn Datapath, mods: &[openflow::FlowMod]) -> f64 {
    let start = Instant::now();
    for fm in mods {
        let _ = switch.flow_mod(fm);
    }
    start.elapsed().as_secs_f64()
}

/// Runs the standard "packet rate vs number of active flows" sweep shared by
/// Figs. 10–13: for every switch architecture in `kinds` and every
/// active-flow count in `sweep`, build a fresh switch over `make_pipeline()`,
/// generate the traffic with `traffic_for(flows)`, and measure single-thread
/// throughput. Returns one series per architecture, labelled
/// `"<arch>(<suffix>)"`.
pub fn rate_sweep(
    suffix: &str,
    kinds: &[crate::datapath::SwitchKind],
    sweep: &[usize],
    make_pipeline: impl Fn() -> openflow::Pipeline,
    traffic_for: impl Fn(usize) -> FlowSet,
    warmup: usize,
    measured: usize,
) -> Vec<crate::report::Series> {
    kinds
        .iter()
        .map(|kind| {
            let mut series = crate::report::Series::new(format!("{}({})", kind.label(), suffix));
            for &flows in sweep {
                let switch = kind.build(make_pipeline());
                let traffic = traffic_for(flows);
                let m = measure_throughput(&*switch, &traffic, warmup, measured);
                series.push(flows as f64, m.pps);
            }
            series
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::SwitchKind;
    use workloads::l2::{self, L2Config};

    #[test]
    fn throughput_measurement_is_positive_and_consistent() {
        let config = L2Config {
            table_size: 16,
            ports: 2,
            seed: 1,
        };
        let switch = SwitchKind::Eswitch.build(l2::build_pipeline(&config));
        let traffic = l2::build_traffic(&config, 32);
        let m = measure_throughput(&*switch, &traffic, 100, 2_000);
        assert!(m.pps > 0.0);
        assert!(m.ns_per_packet > 0.0);
        assert!((m.cycles_per_packet - m.ns_per_packet * 2.0).abs() < 1e-6);
    }

    #[test]
    fn update_time_measured() {
        let config = L2Config {
            table_size: 8,
            ports: 2,
            seed: 1,
        };
        let switch = SwitchKind::Ovs.build(l2::build_pipeline(&config));
        let mods: Vec<openflow::FlowMod> = (0..20u64)
            .map(|i| {
                openflow::FlowMod::add(
                    0,
                    openflow::FlowMatch::any()
                        .with_exact(openflow::Field::EthDst, u128::from(0x0600_0000_0000 + i)),
                    50,
                    openflow::instruction::terminal_actions(vec![openflow::Action::Output(1)]),
                )
            })
            .collect();
        let seconds = measure_update_time(&*switch, &mods);
        assert!(seconds >= 0.0);
    }
}
