//! The switch architectures under test, built behind [`openflow::Datapath`].

use eswitch::runtime::EswitchRuntime;
use openflow::{Datapath, DirectDatapath, Pipeline};
use ovsdp::OvsDatapath;

/// Which switch architecture a measurement runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchKind {
    /// ESWITCH: the compiled, specialized datapath (this paper).
    Eswitch,
    /// The OVS-architecture flow-caching datapath.
    Ovs,
    /// The direct (uncached, uncompiled) reference datapath.
    Direct,
}

impl SwitchKind {
    /// Short label used in series names ("ES", "OVS", ...).
    pub fn label(&self) -> &'static str {
        match self {
            SwitchKind::Eswitch => "ES",
            SwitchKind::Ovs => "OVS",
            SwitchKind::Direct => "direct",
        }
    }

    /// Instantiates this architecture over a pipeline.
    pub fn build(self, pipeline: Pipeline) -> Box<dyn Datapath> {
        match self {
            SwitchKind::Eswitch => {
                Box::new(EswitchRuntime::compile(pipeline).expect("pipeline compiles"))
            }
            SwitchKind::Ovs => Box::new(OvsDatapath::new(pipeline)),
            SwitchKind::Direct => Box::new(DirectDatapath::new(pipeline)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::l2::{self, L2Config};

    #[test]
    fn all_architectures_agree_on_l2() {
        let config = L2Config {
            table_size: 32,
            ports: 4,
            seed: 4,
        };
        let traffic = l2::build_traffic(&config, 64);
        let switches: Vec<Box<dyn Datapath>> =
            [SwitchKind::Eswitch, SwitchKind::Ovs, SwitchKind::Direct]
                .iter()
                .map(|k| k.build(l2::build_pipeline(&config)))
                .collect();
        for i in 0..128 {
            let reference = {
                let mut p = traffic.packet(i);
                switches[2].process(&mut p).decision()
            };
            for sw in &switches[..2] {
                let mut p = traffic.packet(i);
                assert_eq!(sw.process(&mut p).decision(), reference, "packet {i}");
            }
        }
    }
}
