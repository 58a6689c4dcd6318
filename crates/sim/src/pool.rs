//! Arena-backed message pool.
//!
//! Messages live in slab slots addressed by a [`MsgHandle`]; link-layer
//! queue entries and event records carry handles (small `Copy` structs),
//! so the engine's hot loop moves 16–24-byte records instead of whole
//! protocol messages, and the snoop events of a transmission share one
//! pooled message instead of cloning it per bystander.
//!
//! Reference counting is cooperative: callers that hand out several
//! owners for one slot allocate with [`MsgPool::alloc_shared`], and each
//! owner's final consuming event releases exactly one reference. The
//! transmit phase never touches the pool: allocation happens in protocol
//! callbacks and release in the event drain, so transmitting moves only
//! handles.
//!
//! The message and its reference count share one slot struct (not
//! parallel `Vec`s): the common single-owner alloc→consume round trip of
//! unsnooped unicast traffic touches one slab entry, not two arrays.
//! Single-owner allocations go further still: [`MsgPool::alloc`] tags its
//! handle with [`UNIQUE_BIT`], and consuming a tagged handle is a
//! straight move — the reference count is never read or written on the
//! never-shared path that dominates snoop-off traffic.

/// Index of a pooled message. Stable for the slot's lifetime.
///
/// The top bit is the **unique tag**: handles minted by [`MsgPool::alloc`]
/// carry it, promising the slot has exactly one owner for its whole
/// lifetime. Consuming such a handle skips the reference bookkeeping
/// entirely — the common unsnooped-unicast round trip is alloc → move,
/// with no refcount read-modify-write on either end.
pub(crate) type MsgHandle = u32;

/// Tags a [`MsgHandle`] whose slot can never be shared.
const UNIQUE_BIT: u32 = 1 << 31;

/// Slab index of a handle, unique tag stripped.
#[inline]
fn idx(h: MsgHandle) -> usize {
    (h & !UNIQUE_BIT) as usize
}

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

    /// Allocate a never-shared slot: exactly one owner, whose single
    /// consuming event ([`MsgPool::consume`] or [`MsgPool::release`])
    /// frees it with no reference bookkeeping (the returned handle
    /// carries [`UNIQUE_BIT`]).
    pub(crate) fn alloc(&mut self, msg: M) -> MsgHandle {
        self.alloc_shared(msg, 1) | UNIQUE_BIT
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
                let h = self.slots.len() as MsgHandle;
                debug_assert!(h & UNIQUE_BIT == 0, "pool outgrew the handle space");
                self.slots.push(Slot {
                    msg: Some(msg),
                    refs: owners,
                });
                h
            }
        }
    }

    /// Temporarily move the message out of its slot (borrow-by-move for
    /// snoop dispatch: the callback may allocate into the pool while the
    /// slot sits empty). Pair with [`MsgPool::put_back`].
    pub(crate) fn take(&mut self, h: MsgHandle) -> M {
        self.slots[idx(h)].msg.take().expect("live pool slot")
    }

    pub(crate) fn put_back(&mut self, h: MsgHandle, msg: M) {
        let s = &mut self.slots[idx(h)];
        debug_assert!(s.msg.is_none());
        s.msg = Some(msg);
    }

    /// Drop one reference without consuming the message (dead receiver,
    /// zero-delivery broadcast, discarded queue).
    pub(crate) fn release(&mut self, h: MsgHandle) {
        let s = &mut self.slots[idx(h)];
        if h & UNIQUE_BIT != 0 {
            debug_assert_eq!(s.refs, 1, "unique slot released twice");
            if cfg!(debug_assertions) {
                s.refs = 0;
            }
            s.msg = None;
            self.free.push(idx(h) as MsgHandle);
            return;
        }
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
    /// deliveries of a never-shared broadcast's single queue entry).
    pub(crate) fn clone_at(&self, h: MsgHandle) -> M {
        self.slots[idx(h)]
            .msg
            .as_ref()
            .expect("live pool slot")
            .clone()
    }

    /// Consume one reference, yielding an owned message: the last owner
    /// moves the message out and frees the slot, earlier owners clone.
    /// Unique handles take the fast path — straight move, no reference
    /// count read or write.
    pub(crate) fn consume(&mut self, h: MsgHandle) -> M {
        let s = &mut self.slots[idx(h)];
        if h & UNIQUE_BIT != 0 {
            debug_assert_eq!(s.refs, 1, "unique slot consumed twice");
            if cfg!(debug_assertions) {
                s.refs = 0;
            }
            let msg = s.msg.take().expect("live pool slot");
            self.free.push(idx(h) as MsgHandle);
            return msg;
        }
        debug_assert!(s.refs >= 1);
        if s.refs == 1 {
            s.refs = 0;
            let msg = s.msg.take().expect("live pool slot");
            self.free.push(h);
            msg
        } else {
            s.refs -= 1;
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
        let a = p.alloc("a".into());
        let b = p.alloc("b".into());
        assert_eq!(p.live(), 2);
        assert_eq!(p.consume(a), "a");
        assert_eq!(p.live(), 1);
        let c = p.alloc("c".into());
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
    fn unique_and_shared_handles_interleave() {
        let mut p: MsgPool<String> = MsgPool::new();
        let u = p.alloc("u".into());
        assert_ne!(u & UNIQUE_BIT, 0, "alloc mints unique handles");
        let sh = p.alloc_shared("s".into(), 2);
        assert_eq!(sh & UNIQUE_BIT, 0, "shared handles are untagged");
        assert_eq!(p.clone_at(u), "u");
        assert_eq!(p.consume(u), "u");
        assert_eq!(p.live(), 1);
        // The tag lives on the handle, not the slot: a freed unique slot
        // is reusable by a shared allocation and vice versa.
        let sh2 = p.alloc_shared("t".into(), 2);
        assert_eq!(idx(sh2), idx(u), "freed unique slot is reused");
        assert_eq!(p.consume(sh), "s");
        assert_eq!(p.consume(sh), "s");
        assert_eq!(p.consume(sh2), "t");
        let u2 = p.alloc("v".into());
        assert_ne!(u2 & UNIQUE_BIT, 0);
        p.release(u2); // dead-receiver path, unique flavor
        assert_eq!(p.consume(sh2), "t");
        assert_eq!(p.live(), 0);
    }

    #[test]
    fn take_and_put_back_keep_slot_live() {
        let mut p: MsgPool<u32> = MsgPool::new();
        let h = p.alloc(9);
        let m = p.take(h);
        let other = p.alloc(1); // may not disturb the taken slot
        assert_ne!(other, h);
        p.put_back(h, m);
        assert_eq!(p.consume(h), 9);
        p.release(other);
        assert_eq!(p.live(), 0);
    }
}
