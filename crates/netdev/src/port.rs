//! Polled switch ports — the `rte_ethdev` analogue.
//!
//! A [`Port`] is a pair of bounded queues (RX towards the switch, TX away
//! from it) plus statistics. The traffic generator or a peer switch pushes
//! frames into the RX side; the datapath polls them out in bursts, classifies
//! them and pushes the results into the TX side of the chosen output port.
//! Port 0xffff_fffd and friends are reserved, mirroring OpenFlow's reserved
//! port numbers.
//!
//! All burst paths are allocation-free: the `_into` receive APIs and the
//! vectored [`Port::tx_burst`] write into caller-owned buffers (the
//! `recvmmsg`/`sendmmsg` shape), and the rings underneath import their
//! atomics through the [`crate::sync`] facade so `tests/loom_port.rs` can
//! model the inject/rx and burst-TX protocols under loom.

use std::sync::Arc;

use pkt::Packet;

use crate::ring::MpmcRing;
use crate::stats::Counters;

/// Default burst size, matching DPDK's conventional `rx_burst` of 32: ports,
/// rings and both datapaths move packets in bursts of this many to amortise
/// per-call overheads and keep the working set in cache.
pub const BURST_SIZE: usize = 32;

/// Numeric port identifier (OpenFlow port numbers are 32 bit).
pub type PortId = u32;

/// OpenFlow reserved port: send to the controller.
pub const PORT_CONTROLLER: PortId = 0xffff_fffd;
/// OpenFlow reserved port: flood to all ports except ingress.
pub const PORT_FLOOD: PortId = 0xffff_fffb;
/// OpenFlow reserved port: process in the ingress port's "normal" L2 path.
pub const PORT_IN_PORT: PortId = 0xffff_fff8;
/// Sentinel for "drop" used internally by the datapaths (not a wire value).
pub const PORT_DROP: PortId = 0xffff_ffff;

/// Per-port statistics (RX and TX sides).
#[derive(Debug, Default)]
pub struct PortStats {
    /// Frames received into the RX queue.
    pub rx: Counters,
    /// Frames transmitted out of the TX queue.
    pub tx: Counters,
}

/// A switch port backed by bounded RX and TX rings.
pub struct Port {
    id: PortId,
    rx: MpmcRing<Packet>,
    tx: MpmcRing<Packet>,
    stats: Arc<PortStats>,
}

impl Port {
    /// Default queue depth per direction.
    pub const DEFAULT_QUEUE_DEPTH: usize = 4096;

    /// Creates a port with the default queue depth.
    pub fn new(id: PortId) -> Self {
        Self::with_depth(id, Self::DEFAULT_QUEUE_DEPTH)
    }

    /// Creates a port with the given queue depth per direction.
    pub fn with_depth(id: PortId, depth: usize) -> Self {
        Port {
            id,
            rx: MpmcRing::new(depth),
            tx: MpmcRing::new(depth),
            stats: Arc::new(PortStats::default()),
        }
    }

    /// The port's identifier.
    pub fn id(&self) -> PortId {
        self.id
    }

    /// Shared handle to the port statistics.
    pub fn stats(&self) -> Arc<PortStats> {
        Arc::clone(&self.stats)
    }

    /// Injects a frame on the wire side (as the traffic generator / peer does).
    /// The packet's `in_port` is stamped with this port's id. Returns `false`
    /// and drops the frame if the RX queue is full.
    pub fn inject(&self, mut packet: Packet) -> bool {
        packet.in_port = self.id;
        let bytes = packet.len();
        match self.rx.push(packet) {
            Ok(()) => {
                self.stats.rx.record(bytes);
                true
            }
            Err(_) => {
                self.stats.rx.record_drop();
                false
            }
        }
    }

    /// Injects a burst of frames on the wire side with one ring reservation.
    /// Each packet's `in_port` is stamped with this port's id. Frames that do
    /// not fit are left in `frames` (the accepted prefix is drained); the
    /// number accepted is returned. Statistics are recorded once per burst.
    pub fn inject_burst(&self, frames: &mut Vec<Packet>) -> usize {
        let mut bytes = 0usize;
        for packet in frames.iter_mut() {
            packet.in_port = self.id;
            bytes += packet.len();
        }
        let n = self.rx.push_burst(frames);
        for packet in frames.iter() {
            bytes -= packet.len();
        }
        if n > 0 {
            self.stats.rx.record_batch(n as u64, bytes as u64);
        }
        n
    }

    /// Receives up to `max` frames from the RX queue into `out`, appending
    /// (datapath side). The caller owns — and reuses — the buffer; nothing is
    /// allocated per burst once the buffer has warmed to capacity. Returns
    /// the number of frames received.
    ///
    /// This is the poll-mode RX function, where a NIC's PMD fills the
    /// descriptor's `packet_type`: each received frame gets its one parse
    /// here, stamped on the packet for every later stage to read.
    pub fn rx_burst_into(&self, out: &mut Vec<Packet>, max: usize) -> usize {
        let n = self.rx.pop_burst(out, max);
        let received = out.len() - n;
        for packet in &mut out[received..] {
            packet.ensure_parsed();
        }
        n
    }

    /// Transmits one frame out of this port (datapath side). Returns `false`
    /// and drops the frame if the TX queue is full.
    pub fn tx(&self, packet: Packet) -> bool {
        let bytes = packet.len();
        match self.tx.push(packet) {
            Ok(()) => {
                self.stats.tx.record(bytes);
                true
            }
            Err(_) => {
                self.stats.tx.record_drop();
                false
            }
        }
    }

    /// Transmits a burst of frames with one ring reservation — the `sendmmsg`
    /// analogue. Frames that do not fit in the TX queue are dropped and
    /// counted as TX drops; `frames` is left empty either way. Statistics for
    /// the accepted frames are recorded once per burst, not per packet.
    /// Returns the number of frames accepted onto the queue.
    pub fn tx_burst(&self, frames: &mut Vec<Packet>) -> usize {
        let mut bytes = 0usize;
        for packet in frames.iter() {
            bytes += packet.len();
        }
        let n = self.tx.push_burst(frames);
        for packet in frames.iter() {
            bytes -= packet.len();
        }
        if n > 0 {
            self.stats.tx.record_batch(n as u64, bytes as u64);
        }
        for _ in frames.drain(..) {
            self.stats.tx.record_drop();
        }
        n
    }

    /// Drains up to `max` frames from the TX queue into `out`, appending
    /// (wire side), e.g. to loop them back into a peer port or to let the
    /// harness verify outputs. Returns the number of frames drained.
    pub fn tx_drain_into(&self, out: &mut Vec<Packet>, max: usize) -> usize {
        self.tx.pop_burst(out, max)
    }

    /// Number of frames waiting in the RX queue.
    pub fn rx_pending(&self) -> usize {
        self.rx.len()
    }

    /// Number of frames waiting in the TX queue.
    pub fn tx_pending(&self) -> usize {
        self.tx.len()
    }
}

/// Port ids at or below this bound get a dense direct-index slot in
/// [`PortSet`]; anything larger (e.g. OpenFlow reserved ids) falls back to a
/// short sparse list.
const DENSE_LIMIT: usize = 4096;

/// A set of ports indexed by [`PortId`], as owned by one switch instance.
///
/// Lookups are O(1): small ids (the common case — switches number ports from
/// zero) index directly into a dense table, while large ids (reserved ranges)
/// use a sparse fallback whose length is bounded by the number of such ports,
/// not by the id space.
#[derive(Default)]
pub struct PortSet {
    /// Insertion-ordered list backing `iter`/`len`; a port's position here
    /// is its *slot*.
    ports: Vec<Arc<Port>>,
    /// Direct id → slot index for ids < `DENSE_LIMIT`, grown on demand.
    dense: Vec<Option<u32>>,
    /// Fallback for ids ≥ `DENSE_LIMIT` (reserved / sparse numbering).
    sparse: Vec<(PortId, u32)>,
}

impl PortSet {
    /// Creates an empty port set.
    pub fn new() -> Self {
        PortSet::default()
    }

    /// Creates a set of `count` ports numbered `0..count`.
    pub fn with_ports(count: u32) -> Self {
        let mut set = PortSet::new();
        for id in 0..count {
            set.add(Port::new(id));
        }
        set
    }

    /// Adds a port to the set.
    ///
    /// # Panics
    /// Panics if a port with the same id is already present.
    pub fn add(&mut self, port: Port) -> Arc<Port> {
        let id = port.id();
        assert!(self.slot(id).is_none(), "duplicate port id {id}");
        let slot = self.ports.len() as u32;
        if (id as usize) < DENSE_LIMIT {
            if self.dense.len() <= id as usize {
                self.dense.resize(id as usize + 1, None);
            }
            self.dense[id as usize] = Some(slot);
        } else {
            self.sparse.push((id, slot));
        }
        let port = Arc::new(port);
        self.ports.push(Arc::clone(&port));
        port
    }

    /// The slot of port `id` — its position in [`PortSet::iter`] order — in
    /// O(1) for densely numbered ports. Per-port side tables (egress staging)
    /// index by it.
    #[inline]
    pub fn slot(&self, id: PortId) -> Option<usize> {
        let slot = if (id as usize) < DENSE_LIMIT {
            (*self.dense.get(id as usize)?)?
        } else {
            self.sparse.iter().find(|(pid, _)| *pid == id)?.1
        };
        Some(slot as usize)
    }

    /// Looks up a port by id in O(1) for densely numbered ports.
    pub fn get(&self, id: PortId) -> Option<&Arc<Port>> {
        self.slot(id).map(|slot| &self.ports[slot])
    }

    /// All ports in the set, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Port>> {
        self.ports.iter()
    }

    /// Number of ports in the set.
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// True when the set contains no ports.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkt::builder::PacketBuilder;

    #[test]
    fn inject_rx_tx_drain_cycle() {
        let port = Port::new(3);
        assert!(port.inject(PacketBuilder::udp().in_port(99).build()));
        assert_eq!(port.rx_pending(), 1);
        let mut got = Vec::new();
        assert_eq!(port.rx_burst_into(&mut got, 32), 1);
        // in_port rewritten to the receiving port id
        assert_eq!(got[0].in_port, 3);
        assert_eq!(
            got[0].parsed(),
            Some(pkt::parse(got[0].data(), pkt::ParseDepth::L4)),
            "RX stamps the packet's one parse"
        );
        assert!(port.tx(got.pop().unwrap()));
        assert_eq!(port.tx_pending(), 1);
        assert_eq!(port.tx_drain_into(&mut got, 32), 1);
        assert_eq!(port.stats().rx.packets(), 1);
        assert_eq!(port.stats().tx.packets(), 1);
    }

    #[test]
    fn full_rx_queue_drops() {
        let port = Port::with_depth(0, 2);
        assert!(port.inject(PacketBuilder::udp().build()));
        assert!(port.inject(PacketBuilder::udp().build()));
        assert!(!port.inject(PacketBuilder::udp().build()));
        assert_eq!(port.stats().rx.drops(), 1);
        assert_eq!(port.stats().rx.packets(), 2);
    }

    #[test]
    fn burst_respects_max() {
        let port = Port::new(0);
        for _ in 0..10 {
            port.inject(PacketBuilder::udp().build());
        }
        let mut out = Vec::new();
        assert_eq!(port.rx_burst_into(&mut out, 4), 4);
        assert_eq!(port.rx_burst_into(&mut out, 100), 6);
    }

    #[test]
    fn rx_burst_into_appends_without_realloc() {
        let port = Port::new(0);
        for _ in 0..8 {
            port.inject(PacketBuilder::udp().build());
        }
        let mut out = Vec::with_capacity(8);
        let cap = out.capacity();
        assert_eq!(port.rx_burst_into(&mut out, 5), 5);
        assert_eq!(port.rx_burst_into(&mut out, 5), 3);
        assert_eq!(out.len(), 8);
        assert_eq!(out.capacity(), cap, "burst receive must not reallocate");
    }

    #[test]
    fn inject_burst_stamps_and_counts_once() {
        let port = Port::with_depth(7, 4);
        let mut frames: Vec<_> = (0..6)
            .map(|_| PacketBuilder::udp().in_port(99).build())
            .collect();
        let total_bytes: u64 = frames.iter().map(|p| p.len() as u64).sum();
        let per_frame = total_bytes / 6;
        assert_eq!(port.inject_burst(&mut frames), 4);
        assert_eq!(frames.len(), 2, "overflow frames stay with the caller");
        assert_eq!(port.stats().rx.packets(), 4);
        assert_eq!(port.stats().rx.bytes(), per_frame * 4);
        let mut out = Vec::new();
        port.rx_burst_into(&mut out, 32);
        assert!(out.iter().all(|p| p.in_port == 7));
    }

    #[test]
    fn tx_burst_drops_and_counts_overflow() {
        let port = Port::with_depth(0, 4);
        let mut frames: Vec<_> = (0..6).map(|_| PacketBuilder::udp().build()).collect();
        assert_eq!(port.tx_burst(&mut frames), 4);
        assert!(frames.is_empty(), "tx_burst consumes the whole buffer");
        assert_eq!(port.stats().tx.packets(), 4);
        assert_eq!(port.stats().tx.drops(), 2);
        assert_eq!(port.tx_pending(), 4);
        let mut out = Vec::new();
        assert_eq!(port.tx_drain_into(&mut out, 32), 4);
    }

    #[test]
    fn port_set_lookup() {
        let set = PortSet::with_ports(4);
        assert_eq!(set.len(), 4);
        assert!(set.get(3).is_some());
        assert!(set.get(4).is_none());
        assert_eq!((set.slot(3), set.slot(4)), (Some(3), None));
    }

    #[test]
    fn port_set_sparse_ids() {
        let mut set = PortSet::new();
        set.add(Port::new(0));
        set.add(Port::new(0x0001_0000));
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(0x0001_0000).unwrap().id(), 0x0001_0000);
        assert!(set.get(0x0002_0000).is_none());
        assert!(set.get(1).is_none());
        let ids: Vec<_> = set.iter().map(|p| p.id()).collect();
        assert_eq!(ids, vec![0, 0x0001_0000]);
        assert_eq!(
            set.slot(0x0001_0000),
            Some(1),
            "slots follow insertion order"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate port id")]
    fn duplicate_port_rejected() {
        let mut set = PortSet::with_ports(2);
        set.add(Port::new(1));
    }

    #[test]
    #[should_panic(expected = "duplicate port id")]
    fn duplicate_sparse_port_rejected() {
        let mut set = PortSet::new();
        set.add(Port::new(0x0001_0000));
        set.add(Port::new(0x0001_0000));
    }
}
