//! Exhaustive model of the MPMC ring's stale producer head.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p netdev --test
//! loom_mpmc_stale` (CI's `model-stale-head` job). A producer loads
//! `prod_head` and then, inside its CAS loop, `cons_tail`; another producer
//! and a consumer can both move past the stale head in between, so the
//! free-space computation must be modular, as `rte_ring`'s is. Plain
//! subtraction underflowed there, a panic in debug builds. Two pushes and a
//! pop, each with a CAS loop and an in-order tail spin, make this the
//! largest MP/MC model (about four minutes on a 2-vCPU host), so it runs as
//! its own job instead of inside the `model` job's two-minute budget.

#![cfg(all(loom, not(spsc_tail_relaxed_mutation)))]

use loom::sync::Arc;
use loom::thread;

use netdev::MpmcRing;

/// Thread A pushes once while the main thread pushes once and then pops
/// once: every schedule where A is preempted between its head and tail
/// loads moves `cons_tail` past A's stale head. A's reservation must retry
/// onto the current head, and both items stay queued exactly once. Plain
/// `u32` items keep the DFS small; the race is in the index arithmetic, not
/// in the slots.
#[test]
fn mpmc_stale_producer_head_does_not_underflow() {
    loom::model(|| {
        let ring = Arc::new(MpmcRing::new(2));
        let other = Arc::clone(&ring);
        let t = thread::spawn(move || {
            other.push(1u32).unwrap();
        });
        ring.push(2u32).unwrap();
        assert!(ring.pop().is_some(), "a published item is poppable");
        t.join().unwrap();
        assert!(ring.pop().is_some(), "the other item is still queued");
        assert!(ring.pop().is_none());
    });
}
