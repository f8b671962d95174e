//! Helpers shared by the differential suites.

use netdev::Port;
use pkt::Packet;

/// The packets as a switch receives them: each goes through a [`Port`]
/// numbered as its `in_port`, so it comes back carrying the RX stage's parse
/// stamp. The suites run their packets both this way and as built
/// (unstamped): the stamp is an optimisation, never a semantic change.
pub fn received(packets: &[Packet]) -> Vec<Packet> {
    let mut out = Vec::with_capacity(packets.len());
    for packet in packets {
        let port = Port::with_depth(packet.in_port, 1);
        assert!(port.inject(packet.clone()));
        assert_eq!(port.rx_burst_into(&mut out, 1), 1);
    }
    assert!(out.iter().all(|p| p.parsed().is_some()));
    out
}
