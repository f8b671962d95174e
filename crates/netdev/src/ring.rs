//! Bounded rings — the `rte_ring` analogue.
//!
//! Two flavours are provided: a lock-free single-producer/single-consumer
//! ring built directly on atomics (the common port-queue case, one RX core
//! and one TX core), and a multi-producer/multi-consumer ring implementing
//! `rte_ring`'s head/tail reservation protocol for the cases where several
//! worker cores feed one port (egress batching onto a shared TX queue).
//! Both are written against the [`crate::sync`] facade, so the loom `model`
//! job explores their interleavings exhaustively (`tests/loom_ring.rs`,
//! `tests/loom_port.rs`).

use std::mem::MaybeUninit;

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::UnsafeCell;

/// Ordering of the store that publishes a new tail to the consumer.
///
/// This must be `Release`: it is the edge that makes the producer's slot
/// writes visible to a consumer whose `Acquire` tail load observes the new
/// value. The `spsc_tail_relaxed_mutation` cfg deliberately weakens it so
/// the loom suite can demonstrate it catches the bug (see
/// `tests/loom_mutation.rs`); it is never set in real builds.
#[cfg(not(spsc_tail_relaxed_mutation))]
const TAIL_PUBLISH: Ordering = Ordering::Release;
#[cfg(spsc_tail_relaxed_mutation)]
const TAIL_PUBLISH: Ordering = Ordering::Relaxed;

/// A bounded lock-free single-producer/single-consumer ring.
///
/// Capacity is rounded up to a power of two so index masking stays a single
/// AND, matching `rte_ring`'s layout. The ring owns its slots; `push` fails
/// (returning the rejected item) when full, `pop` returns `None` when empty.
///
/// # Safety discipline
/// Exactly one thread may call [`SpscRing::push`] and exactly one thread may
/// call [`SpscRing::pop`] concurrently. The type is `Sync` under that
/// contract; the public constructors hand out the ring inside an `Arc` so the
/// two sides can live on different threads.
pub struct SpscRing<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    head: AtomicUsize, // next slot to pop
    tail: AtomicUsize, // next slot to push
}

// SAFETY: the SPSC contract (one pusher, one popper) serialises access to
// each slot: a slot is written only by the producer before publishing via
// `tail`, and read only by the consumer after observing that publication.
unsafe impl<T: Send> Sync for SpscRing<T> {}
// SAFETY: as above — the ring owns its slots and the SPSC protocol hands
// each `T` off with a release/acquire edge, so moving the whole ring to
// another thread is sound whenever `T: Send`.
unsafe impl<T: Send> Send for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// Creates a ring able to hold at least `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be non-zero");
        let cap = capacity.next_power_of_two();
        let mut buf = Vec::with_capacity(cap);
        for _ in 0..cap {
            buf.push(UnsafeCell::new(MaybeUninit::uninit()));
        }
        SpscRing {
            buf: buf.into_boxed_slice(),
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Number of items currently queued.
    ///
    /// `head` is loaded **before** `tail`: the invariant `head <= tail` then
    /// guarantees the subtraction cannot underflow even if the other side
    /// advances between the two loads (loading `tail` first allowed a
    /// concurrent consumer to move `head` past the stale tail, wrapping the
    /// result to ~`usize::MAX`). The value is conservative: at most the
    /// items actually available for the consumer (its own `head` is exact,
    /// `tail` may be stale-low), and at least the items actually queued for
    /// the producer (its own `tail` is exact, `head` may be stale-low).
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        tail - head
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Usable capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Attempts to enqueue `item`; returns it back if the ring is full.
    pub fn push(&self, item: T) -> Result<(), T> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail - head == self.buf.len() {
            return Err(item);
        }
        let slot = &self.buf[tail & self.mask];
        slot.with_mut(|p| {
            // SAFETY: SPSC contract — only this producer writes unpublished
            // slots, and this slot stays unpublished until the tail store.
            unsafe { (*p).write(item) }
        });
        self.tail.store(tail + 1, TAIL_PUBLISH);
        Ok(())
    }

    /// Attempts to dequeue one item.
    pub fn pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &self.buf[head & self.mask];
        let item = slot.with(|p| {
            // SAFETY: the producer published this slot (head < tail), and
            // only this consumer reads published-but-unconsumed slots.
            unsafe { (*p).assume_init_read() }
        });
        self.head.store(head + 1, Ordering::Release);
        Some(item)
    }

    /// Enqueues as many items from the front of `items` as fit, publishing
    /// the new tail **once** for the whole burst — the producer-side analogue
    /// of [`SpscRing::pop_burst`]. Per-item `push` pays one release store per
    /// packet; a dispatcher fanning a 32-packet burst out to worker rings pays
    /// one here. Returns how many items were moved out of `items` (the
    /// un-pushed remainder stays in `items`, front-aligned, so the caller can
    /// retry after the consumer drains).
    pub fn push_burst(&self, items: &mut Vec<T>) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        let free = self.buf.len() - (tail - head);
        let n = free.min(items.len());
        if n == 0 {
            return 0;
        }
        for (k, item) in items.drain(..n).enumerate() {
            let slot = &self.buf[(tail + k) & self.mask];
            slot.with_mut(|p| {
                // SAFETY: SPSC contract — only this producer writes
                // unpublished slots, and none of the `n` slots is published
                // until the single tail store below.
                unsafe { (*p).write(item) }
            });
        }
        self.tail.store(tail + n, TAIL_PUBLISH);
        n
    }

    /// Dequeues up to `max` items into `out`, returning how many were moved
    /// — the burst-dequeue used by port RX. Mirrors [`SpscRing::push_burst`]:
    /// the new head is published **once** for the whole burst, so the
    /// producer sees either the pre-burst or post-burst free space, never a
    /// partially-drained intermediate (and the consumer pays one release
    /// store per burst instead of one per packet).
    pub fn pop_burst(&self, out: &mut Vec<T>, max: usize) -> usize {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        let n = (tail - head).min(max);
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        for k in 0..n {
            let slot = &self.buf[(head + k) & self.mask];
            let item = slot.with(|p| {
                // SAFETY: the producer published all `n` slots (they lie
                // below `tail`), and only this consumer reads
                // published-but-unconsumed slots; none is marked consumed
                // until the single head store below.
                unsafe { (*p).assume_init_read() }
            });
            out.push(item);
        }
        self.head.store(head + n, Ordering::Release);
        n
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // Drain remaining items so their destructors run.
        while self.pop().is_some() {}
    }
}

/// A bounded multi-producer/multi-consumer ring — `rte_ring`'s MP/MC
/// head/tail protocol on the [`crate::sync`] facade.
///
/// Each side keeps a *head* (reservation cursor, advanced by CAS) and a
/// *tail* (publication cursor, advanced in reservation order). A burst
/// enqueue reserves all of its slots with **one** CAS on `prod_head`,
/// writes them, waits its turn, and publishes them with **one** release
/// store of `prod_tail` — so a multi-worker egress flush pays one atomic
/// reservation per burst instead of one per frame, exactly the
/// `rte_ring_mp_enqueue_burst` discipline. Dequeue mirrors it on the
/// consumer cursors.
///
/// The turn-taking wait (`prod_tail` must reach my reserved head before I
/// publish) is what keeps the occupied region contiguous: a consumer that
/// `Acquire`-loads `prod_tail` is guaranteed every slot below it is fully
/// written, because each publisher release-stores the tail only after both
/// its own slot writes *and* its `Acquire` observation of the previous
/// publisher's tail.
pub struct MpmcRing<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Consumer reservation cursor (next slot a consumer will claim).
    cons_head: AtomicUsize,
    /// Consumer publication cursor (slots below are free for producers).
    cons_tail: AtomicUsize,
    /// Producer reservation cursor (next slot a producer will claim).
    prod_head: AtomicUsize,
    /// Producer publication cursor (slots below are visible to consumers).
    prod_tail: AtomicUsize,
}

// SAFETY: the head/tail protocol serialises slot access — a slot is written
// only inside a producer's reserved window before its tail publication, and
// read only inside a consumer's reserved window after acquiring that
// publication — so shared access from many threads is sound for any `T:
// Send` (no `&T` is ever shared; items move through whole).
unsafe impl<T: Send> Sync for MpmcRing<T> {}
// SAFETY: as above — the ring owns its slots outright, so moving it between
// threads is sound whenever the items themselves are `Send`.
unsafe impl<T: Send> Send for MpmcRing<T> {}

impl<T> MpmcRing<T> {
    /// Creates a ring able to hold at least `capacity` items (rounded up to
    /// a power of two, like [`SpscRing`]).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be non-zero");
        let cap = capacity.next_power_of_two();
        let mut buf = Vec::with_capacity(cap);
        for _ in 0..cap {
            buf.push(UnsafeCell::new(MaybeUninit::uninit()));
        }
        MpmcRing {
            buf: buf.into_boxed_slice(),
            mask: cap - 1,
            cons_head: AtomicUsize::new(0),
            cons_tail: AtomicUsize::new(0),
            prod_head: AtomicUsize::new(0),
            prod_tail: AtomicUsize::new(0),
        }
    }

    /// Number of items currently visible to consumers. Conservative under
    /// concurrency, and `cons_tail` is loaded first so the subtraction
    /// cannot underflow (same argument as [`SpscRing::len`]).
    pub fn len(&self) -> usize {
        let cons = self.cons_tail.load(Ordering::Acquire);
        let prod = self.prod_tail.load(Ordering::Acquire);
        prod - cons
    }

    /// True when no published items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Usable capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Attempts to enqueue `item`; returns it back if the ring is full.
    pub fn push(&self, item: T) -> Result<(), T> {
        match self.reserve_prod(1) {
            Some(head) => {
                self.buf[head & self.mask].with_mut(|p| {
                    // SAFETY: slot `head` lies inside this producer's
                    // reserved window — no other producer can claim it and
                    // no consumer can read it until `prod_tail` passes it.
                    unsafe { (*p).write(item) }
                });
                self.publish_prod(head, 1);
                Ok(())
            }
            None => Err(item),
        }
    }

    /// Attempts to dequeue one item.
    pub fn pop(&self) -> Option<T> {
        let head = self.reserve_cons(1)?;
        let item = self.buf[head & self.mask].with(|p| {
            // SAFETY: slot `head` lies inside this consumer's reserved
            // window: the producer published it (it is below `prod_tail`)
            // and no other consumer can claim it.
            unsafe { (*p).assume_init_read() }
        });
        self.publish_cons(head, 1);
        Some(item)
    }

    /// Enqueues as many items from the front of `items` as fit, reserving
    /// every slot with one CAS and publishing with one release store — the
    /// vectored (`sendmmsg`-shaped) TX path. Returns how many items moved;
    /// the remainder stays in `items`, front-aligned, for a retry.
    pub fn push_burst(&self, items: &mut Vec<T>) -> usize {
        if items.is_empty() {
            return 0;
        }
        let want = items.len();
        let Some((head, n)) = self.reserve_prod_upto(want) else {
            return 0;
        };
        for (k, item) in items.drain(..n).enumerate() {
            self.buf[(head + k) & self.mask].with_mut(|p| {
                // SAFETY: slots `head..head + n` are this producer's
                // reserved window (one CAS claimed them all); none becomes
                // visible to consumers until the tail publication below.
                unsafe { (*p).write(item) }
            });
        }
        self.publish_prod(head, n);
        n
    }

    /// Dequeues up to `max` items into `out` with one reservation CAS and
    /// one publication store — the vectored (`recvmmsg`-shaped) RX path.
    /// Returns how many items moved.
    pub fn pop_burst(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let Some((head, n)) = self.reserve_cons_upto(max) else {
            return 0;
        };
        out.reserve(n);
        for k in 0..n {
            let item = self.buf[(head + k) & self.mask].with(|p| {
                // SAFETY: slots `head..head + n` are this consumer's
                // reserved window; the producers published all of them
                // (they lie below the acquired `prod_tail`).
                unsafe { (*p).assume_init_read() }
            });
            out.push(item);
        }
        self.publish_cons(head, n);
        n
    }

    /// Reserves exactly `n` producer slots; `None` if fewer are free.
    fn reserve_prod(&self, n: usize) -> Option<usize> {
        self.reserve_prod_upto(n)
            .and_then(|(head, got)| (got == n).then_some(head))
    }

    /// Reserves up to `want` producer slots with one CAS, returning the
    /// window start and size.
    fn reserve_prod_upto(&self, want: usize) -> Option<(usize, usize)> {
        let mut head = self.prod_head.load(Ordering::Relaxed);
        loop {
            let cons = self.cons_tail.load(Ordering::Acquire);
            // Modular, as `rte_ring` computes it: other producers and a
            // consumer can both move past a stale `head` before `cons` is
            // loaded, so `head - cons` may be "negative". Wrapping then
            // over-states `free`, and the CAS below fails and retries.
            let free = self.buf.len().wrapping_add(cons).wrapping_sub(head);
            let n = free.min(want);
            if n == 0 {
                return None;
            }
            match self.prod_head.compare_exchange_weak(
                head,
                head + n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some((head, n)),
                Err(current) => head = current,
            }
        }
    }

    /// Publishes producer slots `head..head + n`: waits until every earlier
    /// reservation has published (in-order tails keep the region
    /// contiguous), then release-stores the new tail. The wait load is
    /// `Acquire` so this publisher's release store also carries the
    /// previous publisher's writes (release-sequence via synchronisation,
    /// not assumption).
    fn publish_prod(&self, head: usize, n: usize) {
        while self.prod_tail.load(Ordering::Acquire) != head {
            crate::sync::hint::spin_loop();
        }
        self.prod_tail.store(head + n, Ordering::Release);
    }

    /// Reserves exactly `n` consumer slots; `None` if fewer are published.
    fn reserve_cons(&self, n: usize) -> Option<usize> {
        self.reserve_cons_upto(n)
            .and_then(|(head, got)| (got == n).then_some(head))
    }

    /// Reserves up to `want` published slots with one CAS.
    fn reserve_cons_upto(&self, want: usize) -> Option<(usize, usize)> {
        let mut head = self.cons_head.load(Ordering::Relaxed);
        loop {
            let prod = self.prod_tail.load(Ordering::Acquire);
            let avail = prod - head;
            let n = avail.min(want);
            if n == 0 {
                return None;
            }
            match self.cons_head.compare_exchange_weak(
                head,
                head + n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some((head, n)),
                Err(current) => head = current,
            }
        }
    }

    /// Publishes consumer slots `head..head + n` (frees them for
    /// producers); mirrors [`MpmcRing::publish_prod`].
    fn publish_cons(&self, head: usize, n: usize) {
        while self.cons_tail.load(Ordering::Acquire) != head {
            crate::sync::hint::spin_loop();
        }
        self.cons_tail.store(head + n, Ordering::Release);
    }
}

impl<T> Drop for MpmcRing<T> {
    fn drop(&mut self) {
        // Drain remaining items so their destructors run.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn spsc_fifo_order() {
        let ring = SpscRing::new(8);
        for i in 0..5 {
            ring.push(i).unwrap();
        }
        assert_eq!(ring.len(), 5);
        for i in 0..5 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert!(ring.pop().is_none());
        assert!(ring.is_empty());
    }

    #[test]
    fn spsc_full_rejects() {
        let ring = SpscRing::new(2); // rounds to capacity 2
        assert_eq!(ring.capacity(), 2);
        ring.push(1).unwrap();
        ring.push(2).unwrap();
        assert_eq!(ring.push(3), Err(3));
        assert_eq!(ring.pop(), Some(1));
        ring.push(3).unwrap();
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(3));
    }

    #[test]
    fn spsc_burst_pop() {
        let ring = SpscRing::new(16);
        for i in 0..10 {
            ring.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(ring.pop_burst(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(ring.pop_burst(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn spsc_burst_push_all_fit() {
        let ring = SpscRing::new(16);
        let mut items: Vec<i32> = (0..10).collect();
        assert_eq!(ring.push_burst(&mut items), 10);
        assert!(items.is_empty());
        assert_eq!(ring.len(), 10);
        for i in 0..10 {
            assert_eq!(ring.pop(), Some(i));
        }
    }

    #[test]
    fn spsc_burst_push_partial_keeps_remainder() {
        let ring = SpscRing::new(4);
        ring.push(100).unwrap();
        let mut items: Vec<i32> = vec![0, 1, 2, 3, 4, 5];
        // Only 3 slots are free; the burst must publish exactly those and
        // leave the rest front-aligned for a retry.
        assert_eq!(ring.push_burst(&mut items), 3);
        assert_eq!(items, vec![3, 4, 5]);
        assert_eq!(ring.push_burst(&mut items), 0, "full ring accepts nothing");
        assert_eq!(items, vec![3, 4, 5]);
        assert_eq!(ring.pop(), Some(100));
        assert_eq!(ring.pop(), Some(0));
        // Two slots free again: the retry pushes two more.
        assert_eq!(ring.push_burst(&mut items), 2);
        assert_eq!(items, vec![5]);
        let mut out = Vec::new();
        ring.pop_burst(&mut out, 8);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn spsc_burst_push_wraps_around() {
        let ring = SpscRing::new(8);
        // Advance head/tail past the first lap so the burst write wraps.
        for lap in 0..3 {
            for i in 0..6 {
                ring.push(lap * 10 + i).unwrap();
            }
            for i in 0..6 {
                assert_eq!(ring.pop(), Some(lap * 10 + i));
            }
        }
        let mut items: Vec<i32> = (0..8).collect();
        assert_eq!(ring.push_burst(&mut items), 8);
        for i in 0..8 {
            assert_eq!(ring.pop(), Some(i));
        }
    }

    #[test]
    fn spsc_burst_push_cross_thread() {
        let ring = Arc::new(SpscRing::new(64));
        let producer = Arc::clone(&ring);
        let handle = std::thread::spawn(move || {
            let mut next = 0u64;
            let mut staged = Vec::new();
            while next < 50_000 {
                while staged.len() < 32 && next < 50_000 {
                    staged.push(next);
                    next += 1;
                }
                while !staged.is_empty() {
                    if producer.push_burst(&mut staged) == 0 {
                        std::hint::spin_loop();
                    }
                }
            }
        });
        let mut expected = 0u64;
        let mut out = Vec::new();
        while expected < 50_000 {
            out.clear();
            if ring.pop_burst(&mut out, 32) == 0 {
                std::hint::spin_loop();
            }
            for v in &out {
                assert_eq!(*v, expected);
                expected += 1;
            }
        }
        handle.join().unwrap();
    }

    #[test]
    fn spsc_cross_thread() {
        let ring = Arc::new(SpscRing::new(1024));
        let producer = Arc::clone(&ring);
        let handle = std::thread::spawn(move || {
            for i in 0..100_000u64 {
                loop {
                    if producer.push(i).is_ok() {
                        break;
                    }
                    std::hint::spin_loop();
                }
            }
        });
        let mut expected = 0u64;
        while expected < 100_000 {
            if let Some(v) = ring.pop() {
                assert_eq!(v, expected);
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        handle.join().unwrap();
    }

    #[test]
    fn spsc_drop_drains_items() {
        let item = Arc::new(());
        {
            let ring = SpscRing::new(4);
            ring.push(Arc::clone(&item)).unwrap();
            ring.push(Arc::clone(&item)).unwrap();
            assert_eq!(Arc::strong_count(&item), 3);
        }
        assert_eq!(Arc::strong_count(&item), 1);
    }

    #[test]
    fn mpmc_basics() {
        let ring = MpmcRing::new(4);
        assert!(ring.is_empty());
        ring.push(1).unwrap();
        ring.push(2).unwrap();
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.pop(), Some(1));
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn mpmc_full_rejects_and_recovers() {
        let ring = MpmcRing::new(2);
        ring.push(1).unwrap();
        ring.push(2).unwrap();
        assert_eq!(ring.push(3), Err(3));
        assert_eq!(ring.pop(), Some(1));
        ring.push(3).unwrap();
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(3));
        assert!(ring.is_empty());
    }

    #[test]
    fn mpmc_burst_push_partial_keeps_remainder() {
        let ring = MpmcRing::new(4);
        ring.push(100).unwrap();
        let mut items: Vec<i32> = vec![0, 1, 2, 3, 4, 5];
        assert_eq!(ring.push_burst(&mut items), 3);
        assert_eq!(items, vec![3, 4, 5]);
        assert_eq!(ring.push_burst(&mut items), 0, "full ring accepts nothing");
        let mut out = Vec::new();
        assert_eq!(ring.pop_burst(&mut out, 8), 4);
        assert_eq!(out, vec![100, 0, 1, 2]);
        assert_eq!(ring.push_burst(&mut items), 3);
        assert!(items.is_empty());
    }

    #[test]
    fn mpmc_burst_wraps_around() {
        let ring = MpmcRing::new(8);
        for lap in 0..3 {
            for i in 0..6 {
                ring.push(lap * 10 + i).unwrap();
            }
            for i in 0..6 {
                assert_eq!(ring.pop(), Some(lap * 10 + i));
            }
        }
        let mut items: Vec<i32> = (0..8).collect();
        assert_eq!(ring.push_burst(&mut items), 8);
        let mut out = Vec::new();
        assert_eq!(ring.pop_burst(&mut out, 100), 8);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn mpmc_drop_drains_items() {
        let item = Arc::new(());
        {
            let ring = MpmcRing::new(4);
            ring.push(Arc::clone(&item)).unwrap();
            ring.push(Arc::clone(&item)).unwrap();
            assert_eq!(Arc::strong_count(&item), 3);
        }
        assert_eq!(Arc::strong_count(&item), 1);
    }

    #[test]
    fn mpmc_concurrent_burst_producers_nothing_lost() {
        const PRODUCERS: u64 = 3;
        const PER_PRODUCER: u64 = 10_000;
        let ring = Arc::new(MpmcRing::new(64));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    let mut staged = Vec::new();
                    let mut next = p * PER_PRODUCER;
                    let end = next + PER_PRODUCER;
                    while next < end || !staged.is_empty() {
                        while staged.len() < 8 && next < end {
                            staged.push(next);
                            next += 1;
                        }
                        if ring.push_burst(&mut staged) == 0 {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let mut seen = vec![false; (PRODUCERS * PER_PRODUCER) as usize];
        let mut got = 0usize;
        let mut out = Vec::new();
        while got < seen.len() {
            out.clear();
            if ring.pop_burst(&mut out, 32) == 0 {
                std::thread::yield_now();
                continue;
            }
            for &v in &out {
                assert!(!seen[v as usize], "item {v} duplicated");
                seen[v as usize] = true;
            }
            got += out.len();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(ring.is_empty());
        assert!(seen.iter().all(|s| *s), "an item was lost");
    }
}
