//! Arena-backed message pool.
//!
//! Messages live in slab slots addressed by a [`MsgHandle`]; link-layer
//! queue entries and event records carry handles (small `Copy` structs),
//! so the engine's hot loop moves 16–24-byte records instead of whole
//! protocol messages, and the snoop events of a transmission share one
//! pooled message instead of cloning it per bystander.
//!
//! Every slot is reference counted: [`MsgPool::alloc_shared`] gives it
//! one owner per queue entry that will carry the handle, and each owner's
//! final consuming event releases exactly one reference. The transmit
//! phase never touches the pool: allocation happens in protocol callbacks
//! and release in the event drain, so transmitting moves only handles.
//!
//! The message and its reference count share one slot struct, so a
//! dispatch reads one slab entry. When link queues fill up the pool holds
//! ~10^5 live messages, far more than the L2 cache: the entry a dispatch
//! reads was written cycles earlier and has been evicted. That cold read,
//! not the reference count, is what dispatch costs, so the event drain
//! calls [`MsgPool::prefetch`] on the slots of the events a few places
//! ahead of the one it dispatches.
//!
//! The slot's size therefore sets what a hop costs. A join session's
//! slot, an `Option<MultiMsg>` plus the reference count, is 64 bytes, one
//! cache line's worth: the sampled tuple a data message carries lives
//! behind an `Arc`, outside the pool. The slab is only as aligned as its
//! element, so a slot may still straddle two lines; the prefetch covers
//! both.

/// Index of a pooled message. Stable for the slot's lifetime.
pub(crate) type MsgHandle = u32;

#[derive(Debug)]
struct Slot<M> {
    msg: Option<M>,
    refs: u32,
}

#[derive(Debug)]
pub(crate) struct MsgPool<M> {
    slots: Vec<Slot<M>>,
    free: Vec<MsgHandle>,
}

impl<M> MsgPool<M> {
    pub(crate) fn new() -> Self {
        MsgPool {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of live (allocated, unreleased) messages. Diagnostic.
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Allocate a slot with `owners` references; each is released
    /// independently via [`MsgPool::consume`] or [`MsgPool::release`].
    pub(crate) fn alloc_shared(&mut self, msg: M, owners: u32) -> MsgHandle {
        debug_assert!(owners >= 1);
        match self.free.pop() {
            Some(h) => {
                let s = &mut self.slots[h as usize];
                debug_assert!(s.msg.is_none());
                s.msg = Some(msg);
                s.refs = owners;
                h
            }
            None => {
                self.slots.push(Slot {
                    msg: Some(msg),
                    refs: owners,
                });
                MsgHandle::try_from(self.slots.len() - 1).expect("pool outgrew the handle space")
            }
        }
    }

    /// Start pulling every cache line of `h`'s slot into L1, for a
    /// dispatch a few events later. A freed or out-of-range handle is
    /// harmless; on targets other than x86-64 this does nothing.
    #[inline]
    pub(crate) fn prefetch(&self, h: MsgHandle) {
        #[cfg(target_arch = "x86_64")]
        if let Some(s) = self.slots.get(h as usize) {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let (at, len) = ((s as *const Slot<M>).cast::<i8>(), size_of::<Slot<M>>());
            // A slot need not start on a line: its last byte names the
            // last line it touches.
            for off in (0..len).step_by(64).chain([len - 1]) {
                // SAFETY: a prefetch is a hint. It never faults and reads
                // nothing into the program, whatever address it is given.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(at.wrapping_add(off)) };
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = h;
    }

    /// Temporarily move the message out of its slot (borrow-by-move for
    /// snoop dispatch: the callback may allocate into the pool while the
    /// slot sits empty). Pair with [`MsgPool::put_back`].
    pub(crate) fn take(&mut self, h: MsgHandle) -> M {
        self.slots[h as usize].msg.take().expect("live pool slot")
    }

    pub(crate) fn put_back(&mut self, h: MsgHandle, msg: M) {
        let s = &mut self.slots[h as usize];
        debug_assert!(s.msg.is_none());
        s.msg = Some(msg);
    }

    /// Drop one reference without consuming the message (dead receiver,
    /// zero-delivery broadcast, discarded queue).
    pub(crate) fn release(&mut self, h: MsgHandle) {
        let s = &mut self.slots[h as usize];
        debug_assert!(s.refs >= 1);
        s.refs -= 1;
        if s.refs == 0 {
            s.msg = None;
            self.free.push(h);
        }
    }
}

impl<M: Clone> MsgPool<M> {
    /// Clone the slot's message without touching its references (a
    /// non-final delivery of a shared transmission, or the non-final
    /// deliveries of a broadcast's single queue entry).
    pub(crate) fn clone_at(&self, h: MsgHandle) -> M {
        self.slots[h as usize]
            .msg
            .as_ref()
            .expect("live pool slot")
            .clone()
    }

    /// Consume one reference, yielding an owned message: the last owner
    /// moves the message out and frees the slot, earlier owners clone.
    pub(crate) fn consume(&mut self, h: MsgHandle) -> M {
        let s = &mut self.slots[h as usize];
        debug_assert!(s.refs >= 1);
        s.refs -= 1;
        if s.refs == 0 {
            self.free.push(h);
            s.msg.take().expect("live pool slot")
        } else {
            s.msg.as_ref().expect("live pool slot").clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_consume_reuses_slots() {
        let mut p: MsgPool<String> = MsgPool::new();
        let a = p.alloc_shared("a".into(), 1);
        let b = p.alloc_shared("b".into(), 1);
        assert_eq!(p.live(), 2);
        assert_eq!(p.consume(a), "a");
        assert_eq!(p.live(), 1);
        let c = p.alloc_shared("c".into(), 1);
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(p.consume(b), "b");
        assert_eq!(p.consume(c), "c");
        assert_eq!(p.live(), 0);
    }

    #[test]
    fn shared_slot_clones_until_last_owner() {
        let mut p: MsgPool<Vec<u8>> = MsgPool::new();
        let h = p.alloc_shared(vec![7; 3], 3);
        assert_eq!(p.clone_at(h), vec![7; 3]);
        assert_eq!(p.consume(h), vec![7; 3]); // clone (2 owners left)
        p.release(h); // dead receiver (1 owner left)
        assert_eq!(p.live(), 1);
        assert_eq!(p.consume(h), vec![7; 3]); // move (last owner)
        assert_eq!(p.live(), 0);
    }

    #[test]
    fn single_owner_and_shared_slots_interleave() {
        let mut p: MsgPool<String> = MsgPool::new();
        let one = p.alloc_shared("u".into(), 1);
        let sh = p.alloc_shared("s".into(), 2);
        assert_eq!(p.clone_at(one), "u");
        assert_eq!(p.consume(one), "u");
        assert_eq!(p.live(), 1);
        // A slot forgets its owner count when freed: a single-owner slot
        // is reusable by a shared allocation and vice versa.
        let sh2 = p.alloc_shared("t".into(), 2);
        assert_eq!(sh2, one, "freed single-owner slot is reused");
        assert_eq!(p.consume(sh), "s");
        assert_eq!(p.consume(sh), "s");
        assert_eq!(p.consume(sh2), "t");
        let one2 = p.alloc_shared("v".into(), 1);
        assert_eq!(one2, sh, "freed shared slot is reused");
        p.release(one2); // dead-receiver path, single owner
        assert_eq!(p.consume(sh2), "t");
        assert_eq!(p.live(), 0);
    }

    #[test]
    fn take_and_put_back_keep_slot_live() {
        let mut p: MsgPool<u32> = MsgPool::new();
        let h = p.alloc_shared(9, 1);
        let m = p.take(h);
        let other = p.alloc_shared(1, 1); // may not disturb the taken slot
        assert_ne!(other, h);
        p.put_back(h, m);
        assert_eq!(p.consume(h), 9);
        p.release(other);
        assert_eq!(p.live(), 0);
    }

    #[test]
    fn prefetch_of_a_freed_or_unknown_handle_is_harmless() {
        let mut p: MsgPool<[u8; 120]> = MsgPool::new();
        p.prefetch(0); // empty pool
        let h = p.alloc_shared([3; 120], 1);
        p.prefetch(h);
        assert_eq!(p.consume(h), [3; 120]);
        p.prefetch(h); // freed
        p.prefetch(MsgHandle::MAX);
        assert_eq!(p.live(), 0);
        assert_eq!(p.alloc_shared([4; 120], 1), h);
    }
}
