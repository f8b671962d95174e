//! Owned packet buffer.

use bytes::{Bytes, BytesMut};

use crate::MAX_FRAME_LEN;

/// An owned packet, as carried through ports, queues and datapaths.
///
/// A `Packet` bundles the raw frame bytes with the receive-side metadata that
/// OpenFlow exposes as pipeline match fields (`in_port`). The buffer is a
/// [`BytesMut`] so that action implementations can rewrite header fields in
/// place (set-field, NAT, TTL decrement) without reallocating, and cheap
/// cloning is available for flooding.
#[derive(Debug, Clone)]
pub struct Packet {
    data: BytesMut,
    /// Ingress port the packet was received on (OpenFlow `in_port`).
    pub in_port: u32,
    /// RSS hash stamped by the dispatch stage (a NIC delivers this in the RX
    /// descriptor; the software dispatcher is that stage here). `None` until
    /// stamped. Advisory: consumers must confirm with full-key equality, so
    /// a stamp left stale by a header rewrite can cost an optimization but
    /// never change a verdict.
    rss_hash: Option<u64>,
}

/// Packet identity is the frame bytes plus the ingress port; the carried RSS
/// stamp is transport metadata (like a NIC RX-descriptor field), not part of
/// what the packet *is*.
impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        self.in_port == other.in_port && self.data == other.data
    }
}

impl Eq for Packet {}

impl Packet {
    /// Wraps the given frame bytes, received on `in_port`.
    ///
    /// # Panics
    /// Panics if the frame exceeds [`MAX_FRAME_LEN`]; the traffic generators
    /// and builders never produce such frames, so an oversized frame indicates
    /// a harness bug rather than a recoverable condition.
    pub fn from_bytes(data: impl AsRef<[u8]>, in_port: u32) -> Self {
        let data = data.as_ref();
        assert!(
            data.len() <= MAX_FRAME_LEN,
            "frame of {} bytes exceeds MAX_FRAME_LEN",
            data.len()
        );
        Packet {
            data: BytesMut::from(data),
            in_port,
            rss_hash: None,
        }
    }

    /// Creates an all-zero frame of `len` bytes — handy padding for tests.
    pub fn zeroed(len: usize, in_port: u32) -> Self {
        Packet::from_bytes(vec![0u8; len], in_port)
    }

    /// The frame contents.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Stamps the receive-side RSS hash (dispatch stage only).
    pub fn set_rss_hash(&mut self, hash: u64) {
        self.rss_hash = Some(hash);
    }

    /// The carried RSS hash, if the dispatch stage stamped one.
    pub fn rss_hash(&self) -> Option<u64> {
        self.rss_hash
    }

    /// Mutable access to the frame contents, used by packet-rewriting actions.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the frame is empty (never the case for generated traffic).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Freezes the buffer into an immutable [`Bytes`] handle, e.g. to hand the
    /// packet to the controller in a PacketIn message.
    pub fn freeze(self) -> (Bytes, u32) {
        (self.data.freeze(), self.in_port)
    }

    /// Inserts `extra` bytes at `offset`, shifting the tail up in place (no
    /// allocation while the buffer has spare capacity). Used by the
    /// push-VLAN action. Panics if the result would exceed [`MAX_FRAME_LEN`].
    pub fn insert(&mut self, offset: usize, extra: &[u8]) {
        let old_len = self.len();
        assert!(
            old_len + extra.len() <= MAX_FRAME_LEN,
            "insert overflows frame"
        );
        self.data.resize(old_len + extra.len(), 0);
        self.data.copy_within(offset..old_len, offset + extra.len());
        self.data[offset..offset + extra.len()].copy_from_slice(extra);
    }

    /// Removes `count` bytes at `offset`, shifting the tail down in place
    /// (never allocates; the capacity is kept). Used by the pop-VLAN action.
    ///
    /// # Panics
    /// Panics if `offset + count` exceeds the frame length.
    pub fn remove(&mut self, offset: usize, count: usize) {
        let old_len = self.len();
        assert!(offset + count <= old_len, "remove out of bounds");
        self.data.copy_within(offset + count.., offset);
        self.data.truncate(old_len - count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let pkt = Packet::from_bytes([1u8, 2, 3, 4], 7);
        assert_eq!(pkt.data(), &[1, 2, 3, 4]);
        assert_eq!(pkt.len(), 4);
        assert_eq!(pkt.in_port, 7);
        assert!(!pkt.is_empty());
    }

    #[test]
    fn mutation_in_place() {
        let mut pkt = Packet::zeroed(10, 0);
        pkt.data_mut()[3] = 0xaa;
        assert_eq!(pkt.data()[3], 0xaa);
    }

    #[test]
    fn insert_and_remove_preserve_surroundings() {
        let mut pkt = Packet::from_bytes([1u8, 2, 3, 4, 5, 6], 0);
        pkt.insert(2, &[0xaa, 0xbb]);
        assert_eq!(pkt.data(), &[1, 2, 0xaa, 0xbb, 3, 4, 5, 6]);
        pkt.remove(2, 2);
        assert_eq!(pkt.data(), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn remove_then_insert_within_capacity_stays_in_place() {
        // A pop/push pair must reuse the frame's buffer: `remove` keeps the
        // capacity, so the following `insert` fits without reallocating.
        let mut pkt = Packet::from_bytes((0u8..64).collect::<Vec<_>>(), 0);
        let base = pkt.data().as_ptr();
        pkt.remove(14, 4);
        assert_eq!(pkt.len(), 60);
        assert_eq!(pkt.data()[13], 13);
        assert_eq!(pkt.data()[14], 18);
        assert_eq!(pkt.data().as_ptr(), base, "remove moved the buffer");
        pkt.insert(14, &[0xa, 0xb, 0xc, 0xd]);
        assert_eq!(pkt.len(), 64);
        assert_eq!(&pkt.data()[12..20], &[12, 13, 0xa, 0xb, 0xc, 0xd, 18, 19]);
        assert_eq!(pkt.data()[63], 63);
        assert_eq!(pkt.data().as_ptr(), base, "insert within capacity moved");
        // Edge positions: head and tail.
        pkt.remove(0, 2);
        pkt.insert(pkt.len(), &[0xee]);
        assert_eq!(pkt.data()[0], 2);
        assert_eq!(*pkt.data().last().unwrap(), 0xee);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_FRAME_LEN")]
    fn oversized_frame_panics() {
        let _ = Packet::zeroed(crate::MAX_FRAME_LEN + 1, 0);
    }

    #[test]
    fn rss_stamp_is_metadata_not_identity() {
        let mut a = Packet::from_bytes([1u8, 2, 3], 0);
        let b = Packet::from_bytes([1u8, 2, 3], 0);
        assert_eq!(a.rss_hash(), None);
        a.set_rss_hash(0xdead_beef);
        assert_eq!(a.rss_hash(), Some(0xdead_beef));
        assert_eq!(a, b, "the stamp does not change packet identity");
        assert_eq!(a.clone().rss_hash(), Some(0xdead_beef), "clones carry it");
    }

    #[test]
    fn freeze_returns_bytes_and_port() {
        let pkt = Packet::from_bytes([9u8, 8, 7], 3);
        let (bytes, port) = pkt.freeze();
        assert_eq!(&bytes[..], &[9, 8, 7]);
        assert_eq!(port, 3);
    }
}
