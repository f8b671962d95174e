//! Cached action programs and their liveness.
//!
//! The slow path records one [`Program`] per classification; the megaflow it
//! installs owns it, and every EMC entry answered from that megaflow shares
//! the same allocation. The program carries the megaflow's liveness: the
//! megaflow cache clears the flag whenever the megaflow leaves the cache —
//! selective flush, capacity eviction, replacement or full flush — and an
//! EMC probe ignores an entry whose program is dead, as OVS's
//! `emc_entry_alive` does. So invalidating the caches never scans the EMC.

use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};

use openflow::{Action, PacketInReason};

/// An ordered action program plus its megaflow's liveness flag and punt
/// reason; derefs to the actions.
///
/// `repr(C)` keeps the flag directly behind the slice header, which a cache
/// hit reads anyway to replay the actions: checking liveness is one load in
/// a line the hit already fetched, and costs no allocation of its own. A
/// boxed slice rather than a `Vec` keeps the shared allocation (reference
/// counts, header, flag, reason) at 40 bytes, the size a bare
/// `Arc<Vec<Action>>` had.
#[repr(C)]
#[derive(Debug)]
pub struct Program {
    actions: Box<[Action]>,
    alive: AtomicBool,
    /// Why a replay that punts punts: the program records a table miss and
    /// an explicit output-to-controller alike as `Action::ToController`.
    punt_reason: PacketInReason,
}

impl Program {
    /// A live program over `actions` whose punt, if it has one, reports
    /// `punt_reason`.
    pub fn new(actions: Vec<Action>, punt_reason: PacketInReason) -> Self {
        Program {
            actions: actions.into_boxed_slice(),
            alive: AtomicBool::new(true),
            punt_reason,
        }
    }

    /// The reason a punting replay of this program reports.
    #[inline]
    pub(crate) fn punt_reason(&self) -> PacketInReason {
        self.punt_reason
    }

    /// False once the megaflow that owned the program has left the cache.
    #[inline]
    pub(crate) fn is_alive(&self) -> bool {
        // Relaxed: a flow-mod that retires the program happens-before any
        // burst its caller orders after it, and a concurrent burst may see
        // either side of the change, like the flow-mod itself.
        self.alive.load(Ordering::Relaxed)
    }

    /// Marks the program dead: its megaflow left the cache, so every EMC
    /// entry sharing it stops answering.
    pub(crate) fn retire(&self) {
        self.alive.store(false, Ordering::Relaxed);
    }
}

impl Deref for Program {
    type Target = [Action];

    #[inline]
    fn deref(&self) -> &[Action] {
        &self.actions
    }
}
