//! Owned packet buffer: an mbuf.

use std::mem::size_of;
use std::ops::{Deref, DerefMut};

use crate::parser::{parse, ParseDepth, ParsedHeaders};
use crate::vlan::VLAN_TAG_LEN;
use crate::MAX_FRAME_LEN;

/// The one heap block behind a [`Packet`]: the RX descriptor followed by the
/// frame bytes. `B` is `[u8; N]` for one of a handful of capacity classes
/// while the block is built and `[u8]` ever after.
pub struct Mbuf<B: ?Sized = [u8]> {
    /// Ingress port the packet was received on (OpenFlow `in_port`).
    pub in_port: u32,
    /// Frame length; the rest of `buf` is spare room for a VLAN push.
    len: u16,
    /// RSS hash stamped by the dispatch stage (a NIC delivers this in the RX
    /// descriptor; the software dispatcher is that stage here). `None` until
    /// stamped. Advisory: consumers must confirm with full-key equality, so
    /// a stamp left stale by a header rewrite can cost an optimization but
    /// never change a verdict.
    rss_hash: Option<u64>,
    /// The L4 parse of the frame as it is now, stamped by the RX stage.
    /// Derived state: every write access to the frame clears it.
    parsed: Option<ParsedHeaders>,
    buf: B,
}

/// An owned packet, as carried through ports, queues and datapaths: a
/// pointer-sized handle to one [`Mbuf`], so a ring slot, a staging `Vec` or
/// a burst buffer moves two words per packet.
///
/// The block bundles the frame bytes with the receive-side metadata: the
/// `in_port` OpenFlow exposes as a pipeline match field (reached as
/// `packet.in_port` through `Deref`), the RSS hash and the RX parse. Actions
/// rewrite header fields in place through [`Packet::data_mut`]; a clone
/// (flooding) is one allocation and one copy.
///
/// **Descriptor contract.** The parse stamp is written by exactly one
/// function, [`Packet::ensure_parsed`], called by the stages that receive a
/// packet into the switch (`Port::rx_burst_into`, the RSS dispatchers). It
/// is cleared by every function that hands out write access to the frame —
/// [`Packet::data_mut`], [`Packet::insert`], [`Packet::remove`], all in this
/// file — so a stamp that is present always equals
/// `parse(self.data(), ParseDepth::L4)`. A missing stamp is always legal:
/// consumers read [`Packet::headers`], which parses when it is absent.
pub struct Packet(Box<Mbuf>);

/// Size of the descriptor (and padding) ahead of the frame bytes.
const HEADER: usize = size_of::<Mbuf<[u8; 0]>>();

/// Spare room a fresh block keeps past the frame, so pushing up to two VLAN
/// tags shifts the tail in place.
const HEADROOM: usize = 2 * VLAN_TAG_LEN;

/// A block of the smallest capacity class whose buffer holds `room` bytes,
/// carrying `frame`: blocks of 128 B (two cache lines, what a minimum-size
/// frame needs), 256 B, 512 B, 1 KiB and 2 KiB including the descriptor.
fn alloc(room: usize, frame: &[u8], in_port: u32) -> Box<Mbuf> {
    fn block<const N: usize>(in_port: u32) -> Box<Mbuf> {
        Box::new(Mbuf {
            in_port,
            len: 0,
            rss_hash: None,
            parsed: None,
            buf: [0u8; N],
        })
    }
    let mut block = match room + HEADER {
        0..=128 => block::<{ 128 - HEADER }>(in_port),
        129..=256 => block::<{ 256 - HEADER }>(in_port),
        257..=512 => block::<{ 512 - HEADER }>(in_port),
        513..=1024 => block::<{ 1024 - HEADER }>(in_port),
        _ => block::<{ 2048 - HEADER }>(in_port),
    };
    block.buf[..frame.len()].copy_from_slice(frame);
    block.len = frame.len() as u16;
    block
}

const _: () = assert!(MAX_FRAME_LEN <= 2048 - HEADER);

impl Deref for Packet {
    type Target = Mbuf;
    fn deref(&self) -> &Mbuf {
        &self.0
    }
}

impl DerefMut for Packet {
    fn deref_mut(&mut self) -> &mut Mbuf {
        &mut self.0
    }
}

/// One allocation: a block of the frame's class, descriptor (RSS hash and
/// parse stamp included) and frame copied.
impl Clone for Packet {
    fn clone(&self) -> Self {
        let mut copy = alloc(self.0.buf.len(), self.data(), self.in_port);
        copy.rss_hash = self.0.rss_hash;
        copy.parsed = self.0.parsed;
        Packet(copy)
    }
}

impl std::fmt::Debug for Packet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Packet")
            .field("in_port", &self.in_port)
            .field("rss_hash", &self.0.rss_hash)
            .field("data", &self.data())
            .finish()
    }
}

/// Packet identity is the frame bytes plus the ingress port; the carried RSS
/// and parse stamps are transport metadata (like NIC RX-descriptor fields),
/// not part of what the packet *is*.
impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        self.in_port == other.in_port && self.data() == other.data()
    }
}

impl Eq for Packet {}

impl Packet {
    /// Copies the given frame bytes, received on `in_port`, into a fresh
    /// block.
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
        Packet(alloc(data.len() + HEADROOM, data, in_port))
    }

    /// Creates an all-zero frame of `len` bytes — handy padding for tests.
    pub fn zeroed(len: usize, in_port: u32) -> Self {
        Packet::from_bytes(vec![0u8; len], in_port)
    }

    /// The frame contents.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.0.buf[..usize::from(self.0.len)]
    }

    /// Stamps the receive-side RSS hash (dispatch stage only).
    pub fn set_rss_hash(&mut self, hash: u64) {
        self.0.rss_hash = Some(hash);
    }

    /// The carried RSS hash, if the dispatch stage stamped one.
    pub fn rss_hash(&self) -> Option<u64> {
        self.0.rss_hash
    }

    /// Parses the frame to L4 and stamps the result on the descriptor, unless
    /// it already carries one (RX stage only).
    #[inline]
    pub fn ensure_parsed(&mut self) {
        self.0.parsed = Some(self.headers());
    }

    /// The carried RX parse, if a stage stamped one and nothing wrote to the
    /// frame since.
    #[inline]
    pub fn parsed(&self) -> Option<ParsedHeaders> {
        self.0.parsed
    }

    /// The L4 parse of the frame: the stamp when present, a fresh
    /// [`parse`] otherwise.
    #[inline]
    pub fn headers(&self) -> ParsedHeaders {
        match self.0.parsed {
            Some(headers) => headers,
            None => parse(self.data(), ParseDepth::L4),
        }
    }

    /// Mutable access to the frame contents, used by packet-rewriting
    /// actions. Clears the parse stamp.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u8] {
        let block = &mut *self.0;
        block.parsed = None;
        &mut block.buf[..usize::from(block.len)]
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        usize::from(self.0.len)
    }

    /// True when the frame is empty (never the case for generated traffic).
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// Inserts `extra` bytes at `offset`, shifting the tail up in place (no
    /// allocation while the block has spare room; a frame that outgrows its
    /// capacity class moves to a block of the next one). Used by the
    /// push-VLAN action. Clears the parse stamp. Panics if the result would
    /// exceed [`MAX_FRAME_LEN`].
    pub fn insert(&mut self, offset: usize, extra: &[u8]) {
        let old_len = self.len();
        let new_len = old_len + extra.len();
        assert!(new_len <= MAX_FRAME_LEN, "insert overflows frame");
        if new_len > self.0.buf.len() {
            let mut grown = alloc(new_len + HEADROOM, self.data(), self.in_port);
            grown.rss_hash = self.0.rss_hash;
            self.0 = grown;
        }
        let block = &mut *self.0;
        block.parsed = None;
        block.len = new_len as u16;
        block.buf.copy_within(offset..old_len, offset + extra.len());
        block.buf[offset..offset + extra.len()].copy_from_slice(extra);
    }

    /// Removes `count` bytes at `offset`, shifting the tail down in place
    /// (never allocates; the capacity is kept). Used by the pop-VLAN action.
    /// Clears the parse stamp.
    ///
    /// # Panics
    /// Panics if `offset + count` exceeds the frame length.
    pub fn remove(&mut self, offset: usize, count: usize) {
        let old_len = self.len();
        assert!(offset + count <= old_len, "remove out of bounds");
        let block = &mut *self.0;
        block.parsed = None;
        block.buf.copy_within(offset + count..old_len, offset);
        block.len = (old_len - count) as u16;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::tests::awkward_frames;
    use proptest::prelude::*;

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
        pkt.in_port = 9;
        assert_eq!(pkt.in_port, 9);
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
        // A pop/push pair must reuse the frame's block: `remove` keeps the
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
    fn the_handle_is_two_words_and_a_minimum_frame_takes_two_cache_lines() {
        assert!(size_of::<Packet>() <= 16);
        assert_eq!(size_of::<Option<Packet>>(), size_of::<Packet>());
        let pkt = Packet::zeroed(crate::MIN_FRAME_LEN, 0);
        assert_eq!(std::mem::size_of_val(&*pkt.0), 128);
        // Headroom: two VLAN tags fit a fresh block of any size in place.
        for len in [60, 72, 73, 200, 1000, MAX_FRAME_LEN - 8] {
            let mut pkt = Packet::zeroed(len, 0);
            let base = pkt.data().as_ptr();
            pkt.insert(12, &[0u8; 8]);
            assert_eq!(pkt.data().as_ptr(), base, "{len}-byte frame moved");
        }
    }

    #[test]
    fn insert_outgrowing_the_capacity_class_keeps_bytes_port_and_hash() {
        let bytes: Vec<u8> = (0..72u8).collect();
        let mut pkt = Packet::from_bytes(&bytes, 5);
        pkt.set_rss_hash(0xfeed);
        pkt.ensure_parsed();
        let room = pkt.0.buf.len() - pkt.len();
        let extra = vec![0xabu8; room + 1];
        pkt.insert(10, &extra);
        let mut expected = bytes[..10].to_vec();
        expected.extend_from_slice(&extra);
        expected.extend_from_slice(&bytes[10..]);
        assert_eq!(pkt.data(), &expected[..]);
        assert_eq!(pkt.in_port, 5);
        assert_eq!(pkt.rss_hash(), Some(0xfeed));
        assert_eq!(pkt.parsed(), None, "insert clears the parse stamp");
        assert!(pkt.0.buf.len() > expected.len());
        // And again, up to the largest class.
        pkt.insert(0, &vec![1u8; MAX_FRAME_LEN - expected.len()]);
        assert_eq!(pkt.len(), MAX_FRAME_LEN);
        assert_eq!(&pkt.data()[MAX_FRAME_LEN - expected.len()..], &expected[..]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_FRAME_LEN")]
    fn oversized_frame_panics() {
        let _ = Packet::zeroed(crate::MAX_FRAME_LEN + 1, 0);
    }

    #[test]
    fn stamps_are_metadata_not_identity() {
        let mut a = Packet::from_bytes([1u8, 2, 3], 0);
        let b = Packet::from_bytes([1u8, 2, 3], 0);
        assert_eq!(a.rss_hash(), None);
        assert_eq!(a.parsed(), None, "fresh packets carry no parse");
        a.set_rss_hash(0xdead_beef);
        a.ensure_parsed();
        let stamp = parse(a.data(), ParseDepth::L4);
        assert_eq!(a.rss_hash(), Some(0xdead_beef));
        assert_eq!(a.parsed(), Some(stamp));
        assert_eq!(a, b, "the stamps do not change packet identity");
        assert_eq!(a.clone().rss_hash(), Some(0xdead_beef), "clones carry it");
        assert_eq!(a.clone().parsed(), Some(stamp), "clones carry the parse");
        assert_eq!(b.clone().parsed(), None, "and never invent one");
    }

    #[derive(Debug, Clone)]
    enum Op {
        EnsureParsed,
        Write(usize, u8),
        Insert(usize, Vec<u8>),
        Remove(usize, usize),
        Clone,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::EnsureParsed),
            (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Op::Write(at, byte)),
            (any::<usize>(), prop::collection::vec(any::<u8>(), 0..40))
                .prop_map(|(at, bytes)| Op::Insert(at, bytes)),
            (any::<usize>(), 0usize..24).prop_map(|(at, count)| Op::Remove(at, count)),
            Just(Op::Clone),
        ]
    }

    proptest! {
        /// Through any sequence of stamping, writes, layout changes and
        /// clones the stamp is absent or equal to a fresh parse, and cutting
        /// it to a shallower depth equals parsing to that depth.
        #[test]
        fn the_parse_stamp_is_absent_or_fresh(
            pick in any::<usize>(),
            random in prop::collection::vec(any::<u8>(), 0..120),
            use_random in any::<bool>(),
            ops in prop::collection::vec(arb_op(), 1..24),
        ) {
            let frames = awkward_frames();
            let frame = if use_random { random } else { frames[pick % frames.len()].clone() };
            let mut packet = Packet::from_bytes(&frame, 3);
            prop_assert_eq!(packet.parsed(), None);
            for op in ops {
                match op {
                    Op::EnsureParsed => {
                        packet.ensure_parsed();
                        prop_assert!(packet.parsed().is_some());
                    }
                    Op::Write(at, byte) => {
                        let data = packet.data_mut();
                        if !data.is_empty() {
                            data[at % data.len()] = byte;
                        }
                    }
                    Op::Insert(at, bytes) => packet.insert(at % (packet.len() + 1), &bytes),
                    Op::Remove(at, count) => {
                        let at = at % (packet.len() + 1);
                        packet.remove(at, count.min(packet.len() - at));
                    }
                    Op::Clone => {
                        let copy = packet.clone();
                        prop_assert_eq!(copy.parsed(), packet.parsed());
                        prop_assert_eq!(copy.data(), packet.data());
                        packet = copy;
                    }
                }
                let fresh = parse(packet.data(), ParseDepth::L4);
                prop_assert!(packet.parsed().is_none_or(|stamp| stamp == fresh));
                prop_assert_eq!(packet.headers(), fresh);
                for depth in [ParseDepth::L2, ParseDepth::L3, ParseDepth::L4] {
                    prop_assert_eq!(fresh.at_depth(depth), parse(packet.data(), depth));
                }
            }
        }
    }
}
