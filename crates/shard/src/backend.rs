//! Per-shard datapath replicas behind one trait, and the canonical state
//! the control plane publishes them from.
//!
//! A shard runs whichever architecture the deployment picked — the compiled
//! ESWITCH datapath or the OVS-style cache hierarchy — but the worker loop
//! must not care. Executing a burst is not what differs: both replicas
//! forward it to their architecture's one burst entry
//! ([`CompiledDatapath::process_burst_ct`], [`Datapath::process_burst`]).
//! [`ShardBackend`] holds only what does differ between replicas: how a newly
//! published compiled state is applied when the control plane advances the
//! epoch, and how a migrated flow bucket is evicted from private caches.
//!
//! The two replicas differ in what is shared and what is private, mirroring
//! the real systems:
//!
//! * **ESWITCH** — every shard holds an `Arc` to the *same*
//!   [`CompiledDatapath`]; updates below a full recompile land in it in
//!   place, through the touched tables' trampolines, and an epoch advance is
//!   one pointer swap per shard.
//! * **OVS** — each shard owns private microflow/megaflow caches over a
//!   replica of the pipeline (OVS's per-PMD-thread caches); an epoch advance
//!   replaces the replica's pipeline and invalidates the megaflows the
//!   epoch's delta overlaps — or, without a usable delta, both caches whole,
//!   which is what a flow-table change costs the OVS architecture (§2.3).
//!
//! The control side differs the same way ([`Canonical`]): ESWITCH flow-mods
//! go through one [`EswitchRuntime`], the §3.4 ladder's one executor, whose
//! compiled datapath is what the shards share; OVS flow-mods edit a
//! canonical pipeline that each epoch snapshots for the replicas.

use std::sync::Arc;

use netdev::sync::Mutex;

use eswitch::compile::{CompileError, CompiledDatapath};
use eswitch::runtime::{EswitchRuntime, UpdateStats};
use eswitch::update::UpdateClass;
use openflow::ct::ConnCtx;
use openflow::flow_match::FlowMatch;
use openflow::flow_mod::{apply_flow_mod, FlowModEffect, FlowModError};
use openflow::{Datapath, FlowMod, Pipeline, Verdict};
use ovsdp::datapath::delta_is_selective;
use ovsdp::{OvsConfig, OvsDatapath};
use pkt::Packet;

/// Which datapath architecture the shards replicate (plus, for OVS, its
/// cache configuration; the ESWITCH compiler has nothing to configure).
#[derive(Debug, Clone, Copy)]
pub enum BackendSpec {
    /// Compiled ESWITCH datapath, shared read-only across shards.
    Eswitch,
    /// OVS cache hierarchy with per-shard microflow/megaflow caches.
    Ovs(OvsConfig),
}

impl BackendSpec {
    /// An ESWITCH backend.
    pub fn eswitch() -> Self {
        BackendSpec::Eswitch
    }

    /// An OVS backend with the default cache configuration.
    pub fn ovs() -> Self {
        BackendSpec::Ovs(OvsConfig::default())
    }

    /// Short label for reports ("ES" / "OVS").
    pub fn label(&self) -> &'static str {
        match self {
            BackendSpec::Eswitch => "ES",
            BackendSpec::Ovs(_) => "OVS",
        }
    }

    /// Builds one shard's replica of a published state.
    pub(crate) fn replica(&self, state: &CompiledState) -> Box<dyn ShardBackend> {
        match (self, state) {
            (BackendSpec::Eswitch, CompiledState::Eswitch(datapath)) => Box::new(EswitchShard {
                datapath: Arc::clone(datapath),
            }),
            (BackendSpec::Ovs(config), CompiledState::Ovs(pipeline)) => Box::new(OvsShard {
                datapath: OvsDatapath::with_config(Pipeline::clone(pipeline), *config),
            }),
            _ => unreachable!("published state does not match the backend spec"),
        }
    }
}

/// Epoch-stamped compiled state the control plane broadcasts to every shard.
#[derive(Clone)]
pub enum CompiledState {
    /// A freshly compiled ESWITCH datapath (immutable once published).
    Eswitch(Arc<CompiledDatapath>),
    /// A snapshot of the canonical pipeline for OVS replicas to realise.
    Ovs(Arc<Pipeline>),
}

/// The matches of the rules one epoch changed: what an OVS replica's
/// selective flush compares its megaflows against.
pub(crate) type Delta = Arc<Vec<FlowMatch>>;

/// The switch's canonical state: what flow-mods mutate and every epoch is
/// published from. Lives on the control side, never on a worker.
pub(crate) enum Canonical {
    /// The one ESWITCH runtime: the canonical pipeline plus the compiled
    /// datapath every shard shares, updated through the §3.4 ladder in
    /// place.
    Eswitch(EswitchRuntime),
    /// The canonical pipeline the OVS replicas realise, and how its
    /// flow-mods were classified by what they cost the replicas' caches.
    Ovs {
        pipeline: Mutex<Pipeline>,
        updates: UpdateStats,
    },
}

impl Canonical {
    /// Compiles (ESWITCH) or adopts (OVS) the launch pipeline.
    pub(crate) fn new(spec: BackendSpec, pipeline: Pipeline) -> Result<Self, CompileError> {
        Ok(match spec {
            BackendSpec::Eswitch => Canonical::Eswitch(EswitchRuntime::compile(pipeline)?),
            BackendSpec::Ovs(_) => Canonical::Ovs {
                pipeline: Mutex::new(pipeline),
                updates: UpdateStats::default(),
            },
        })
    }

    /// The state an epoch publishes: the runtime's datapath, or a snapshot
    /// of the pipeline for the OVS replicas to realise.
    pub(crate) fn state(&self) -> CompiledState {
        match self {
            Canonical::Eswitch(runtime) => CompiledState::Eswitch(runtime.datapath()),
            Canonical::Ovs { pipeline, .. } => {
                CompiledState::Ovs(Arc::new(pipeline.lock().clone()))
            }
        }
    }

    /// Applies `fm`, returning its effect and, for an OVS change that is
    /// provably selective-safe ([`delta_is_selective`]), the changed rules'
    /// matches. An OVS flow-mod's class reflects what the *shards* pay: a
    /// selective-safe delta invalidates incrementally, anything else costs
    /// the full hierarchy.
    pub(crate) fn flow_mod(
        &self,
        fm: &FlowMod,
    ) -> Result<(FlowModEffect, Option<Delta>), FlowModError> {
        let (pipeline, updates) = match self {
            Canonical::Eswitch(runtime) => return Ok((runtime.flow_mod(fm)?, None)),
            Canonical::Ovs { pipeline, updates } => (pipeline, updates),
        };
        let mut pipeline = pipeline.lock();
        let effect = apply_flow_mod(&mut pipeline, fm)?;
        let entries = effect.entries_touched();
        if entries == 0 {
            return Ok((effect, None));
        }
        let delta = delta_is_selective(&pipeline, &effect)
            .then(|| Arc::new(effect.touched_matches.clone()));
        let class = match delta {
            Some(_) => UpdateClass::Incremental,
            None => UpdateClass::Full,
        };
        updates.record(class, entries);
        Ok((effect, delta))
    }

    /// Read access to the canonical pipeline.
    pub(crate) fn with_pipeline<R>(&self, f: impl FnOnce(&Pipeline) -> R) -> R {
        match self {
            Canonical::Eswitch(runtime) => runtime.with_pipeline(f),
            Canonical::Ovs { pipeline, .. } => f(&pipeline.lock()),
        }
    }

    /// Per-tier update accounting.
    pub(crate) fn updates(&self) -> &UpdateStats {
        match self {
            Canonical::Eswitch(runtime) => &runtime.updates,
            Canonical::Ovs { updates, .. } => updates,
        }
    }
}

/// A per-shard datapath replica: one worker thread owns it exclusively.
pub trait ShardBackend: Send {
    /// Forwards one burst to the replica's burst entry, appending one
    /// verdict per packet to `verdicts` (cleared first). Controller punts
    /// are reported in the verdicts (`to_controller` + `punt_reason`); the
    /// worker loop turns them into punt copies on its shard's punt ring
    /// (`shard::controller`), never calling the controller itself.
    ///
    /// `ct` is the shard's connection-tracking context: the worker's private
    /// [`conntrack::CtEngine`] when the launch configured one,
    /// [`openflow::ct::NoCt`] otherwise. It is threaded per burst — never
    /// owned by the replica — so connection state survives epoch swaps and
    /// stays strictly shard-local.
    fn process_burst(
        &mut self,
        packets: &mut [Packet],
        verdicts: &mut Vec<Verdict>,
        ct: &mut dyn ConnCtx,
    );

    /// Swaps in a newly published compiled state (an epoch advance). Called
    /// by the owning worker between bursts, never concurrently with
    /// processing, so a packet can never observe a half-applied update.
    ///
    /// `deltas` carries the per-epoch lists of changed-rule matches covering
    /// *exactly* the gap between this replica's epoch and the published one,
    /// when the control plane could prove them selective-safe. A replica that
    /// receives `Some` may invalidate its private caches selectively; `None`
    /// (skipped epochs, structural change, rewritten matched fields) means
    /// brute-force invalidation.
    fn apply(&mut self, state: &CompiledState, deltas: Option<&[Arc<Vec<FlowMatch>>]>);

    /// Invalidates the replica's cached entries for exactly the given flow
    /// matches — the elastic scheduler calls this when a flow bucket
    /// migrates off this shard, with one exact-5-tuple match per moved
    /// connection direction. The default is a no-op: the ESWITCH replica
    /// has no per-shard caches (verdicts are recomputed from the shared
    /// compiled state, placement-independently). The OVS replica flushes
    /// the overlapping megaflow entries, and with them the EMC entries they
    /// answered, so a moved flow that later migrates *back* can never hit a
    /// stale verdict.
    fn invalidate_flows(&mut self, _matches: &[FlowMatch]) {}
}

/// ESWITCH replica: a shared handle to the compiled datapath.
struct EswitchShard {
    datapath: Arc<CompiledDatapath>,
}

impl ShardBackend for EswitchShard {
    fn process_burst(
        &mut self,
        packets: &mut [Packet],
        verdicts: &mut Vec<Verdict>,
        ct: &mut dyn ConnCtx,
    ) {
        self.datapath.process_burst_ct(packets, verdicts, ct);
    }

    fn apply(&mut self, state: &CompiledState, _deltas: Option<&[Arc<Vec<FlowMatch>>]>) {
        // Incremental and per-table updates already landed in the shared
        // datapath through its trampolines; only a full recompile hands
        // over a new one. Either way applying an epoch is one pointer swap.
        if let CompiledState::Eswitch(datapath) = state {
            self.datapath = Arc::clone(datapath);
        }
    }
}

/// OVS replica: a private cache hierarchy over a pipeline snapshot.
struct OvsShard {
    datapath: OvsDatapath,
}

impl ShardBackend for OvsShard {
    fn process_burst(
        &mut self,
        packets: &mut [Packet],
        verdicts: &mut Vec<Verdict>,
        ct: &mut dyn ConnCtx,
    ) {
        Datapath::process_burst(&self.datapath, packets, verdicts, ct);
    }

    fn apply(&mut self, state: &CompiledState, deltas: Option<&[Arc<Vec<FlowMatch>>]>) {
        if let CompiledState::Ovs(pipeline) = state {
            match deltas {
                // Contiguous, selective-safe delta: flush only the megaflow
                // entries overlapping a changed rule; EMC entries live on
                // with their surviving megaflows.
                Some(deltas) => self
                    .datapath
                    .replace_pipeline_with_delta(Pipeline::clone(pipeline), deltas),
                // No usable delta: any flow-table change costs the OVS
                // architecture its entire cache hierarchy (§2.3).
                None => self.datapath.replace_pipeline(Pipeline::clone(pipeline)),
            }
        }
    }

    fn invalidate_flows(&mut self, matches: &[FlowMatch]) {
        self.datapath.invalidate_matches(matches);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::ct::NoCt;
    use openflow::flow_match::FlowMatch;
    use openflow::instruction::terminal_actions;
    use openflow::{Action, Field, FlowEntry};
    use pkt::builder::PacketBuilder;

    fn port_pipeline(out: u32) -> Pipeline {
        let mut p = Pipeline::with_tables(1);
        let t = p.table_mut(0).unwrap();
        t.insert(FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, 80),
            100,
            terminal_actions(vec![Action::Output(out)]),
        ));
        t.insert(FlowEntry::new(FlowMatch::any(), 1, vec![]));
        p
    }

    #[test]
    fn both_replicas_process_and_swap_epochs() {
        for spec in [BackendSpec::eswitch(), BackendSpec::ovs()] {
            let state = Canonical::new(spec, port_pipeline(1)).unwrap().state();
            let mut replica = spec.replica(&state);
            let mut burst = vec![PacketBuilder::tcp().tcp_dst(80).build()];
            let mut verdicts = Vec::new();
            replica.process_burst(&mut burst, &mut verdicts, &mut NoCt);
            assert_eq!(verdicts[0].outputs, vec![1], "{}", spec.label());

            let next = Canonical::new(spec, port_pipeline(9)).unwrap().state();
            replica.apply(&next, None);
            let mut burst = vec![PacketBuilder::tcp().tcp_dst(80).build()];
            replica.process_burst(&mut burst, &mut verdicts, &mut NoCt);
            assert_eq!(verdicts[0].outputs, vec![9], "{}", spec.label());
        }
    }

    #[test]
    fn ovs_replica_applies_selective_delta() {
        let spec = BackendSpec::ovs();
        let mut replica = OvsShard {
            datapath: OvsDatapath::new(port_pipeline(1)),
        };
        let mut burst = vec![
            PacketBuilder::tcp().tcp_dst(80).build(),
            PacketBuilder::tcp().tcp_dst(22).build(),
        ];
        let mut verdicts = Vec::new();
        replica.process_burst(&mut burst, &mut verdicts, &mut NoCt);
        let megaflows = replica.datapath.megaflow_count();
        assert!(megaflows > 0);

        // An epoch that only changes tcp_dst=9999 behaviour, with the delta:
        // unrelated megaflows survive the swap.
        let mut p = port_pipeline(1);
        p.table_mut(0).unwrap().insert(openflow::FlowEntry::new(
            FlowMatch::any().with_exact(Field::TcpDst, 9999),
            90,
            terminal_actions(vec![Action::Output(5)]),
        ));
        let next = Canonical::new(spec, p).unwrap().state();
        let delta = vec![Arc::new(vec![
            FlowMatch::any().with_exact(Field::TcpDst, 9999)
        ])];
        replica.apply(&next, Some(&delta));
        assert_eq!(replica.datapath.megaflow_count(), megaflows);

        let mut burst = vec![PacketBuilder::tcp().tcp_dst(9999).build()];
        replica.process_burst(&mut burst, &mut verdicts, &mut NoCt);
        assert_eq!(verdicts[0].outputs, vec![5]);
    }
}
