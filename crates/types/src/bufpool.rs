//! Reusable byte buffers for the send path.
//!
//! The wire codec encodes every frame into a caller-supplied `Vec<u8>`
//! (`encode_into`). Two pools supply those vectors, so the steady-state
//! send path allocates nothing:
//!
//! - [`BufPool`], a free list: a [`BufLease`] borrows a cleared buffer
//!   and returns it, capacity intact, when dropped. For a sender that
//!   encodes, uses and drops a buffer before going on.
//! - [`FramePool`], for frames that outlive the send: every link and
//!   arrival of a frame shares one [`Frame`] handle, and the pool reuses
//!   the frame's buffer once no arrival holds it.
//!
//! [`BufPool`]'s ownership rules (see `DESIGN.md` §12):
//!
//! - A lease is the *only* handle to its buffer: the pool never observes
//!   a buffer while it is leased, so a lease can be grown, truncated, or
//!   handed to the codec freely.
//! - Dropping a lease returns the buffer; [`BufLease::into_vec`] instead
//!   detaches it permanently (the pool forgets it and mints a fresh
//!   buffer later).
//! - [`BufPool::outstanding`] counts live leases. A caller that encodes,
//!   copies and drops synchronously must see it return to zero when idle.
//!
//! [`FramePool`]'s rules:
//!
//! - The pool owns no frame exclusively. It keeps one handle to each
//!   frame it may reuse, and reuses a frame only when that handle is the
//!   last one: every link and arrival that held it has dropped its clone.
//!   Until then nobody can write to the frame's bytes.
//! - Frames over 1 MiB are not kept: their last holder frees them.
//! - [`FramePool::outstanding`] counts kept frames that a link or arrival
//!   still holds. It returns to zero once every arrival has landed.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How many returned buffers the pool retains; further returns are
/// dropped so a burst cannot pin memory forever.
const MAX_POOLED: usize = 64;

/// Returned buffers above this capacity are dropped instead of pooled,
/// so one oversized frame (a full state transfer, say) does not keep
/// megabytes resident behind a pool built for update-sized frames.
const MAX_RETAINED_CAPACITY: usize = 1 << 20;

/// How many kept frames [`FramePool::frame`] checks, oldest first,
/// before it makes a new one.
const FRAME_PROBES: usize = 4;

#[derive(Debug, Default)]
struct Shared {
    free: Mutex<Vec<Vec<u8>>>,
    outstanding: AtomicU64,
    leases: AtomicU64,
    reuses: AtomicU64,
}

/// A free-list pool of byte buffers. Cloning the handle shares the pool.
///
/// # Examples
///
/// ```
/// use rtpb_types::BufPool;
///
/// let pool = BufPool::new();
/// {
///     let mut buf = pool.lease();
///     buf.extend_from_slice(b"frame");
///     assert_eq!(pool.outstanding(), 1);
/// } // lease dropped: buffer returns to the pool
/// assert_eq!(pool.outstanding(), 0);
/// let again = pool.lease();
/// assert!(again.is_empty(), "leases always start cleared");
/// assert_eq!(pool.reuses(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BufPool {
    shared: Arc<Shared>,
}

impl BufPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        BufPool::default()
    }

    /// Borrows a cleared buffer, reusing a returned one when available.
    #[must_use]
    pub fn lease(&self) -> BufLease {
        let recycled = self.shared.free.lock().expect("pool poisoned").pop();
        let buf = match recycled {
            Some(mut buf) => {
                buf.clear();
                self.shared.reuses.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => Vec::new(),
        };
        self.shared.outstanding.fetch_add(1, Ordering::Relaxed);
        self.shared.leases.fetch_add(1, Ordering::Relaxed);
        BufLease {
            buf: Some(buf),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Number of leases currently alive (not yet dropped or detached).
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.shared.outstanding.load(Ordering::Relaxed)
    }

    /// Total leases ever issued.
    #[must_use]
    pub fn leases_issued(&self) -> u64 {
        self.shared.leases.load(Ordering::Relaxed)
    }

    /// How many leases were served from a recycled buffer instead of a
    /// fresh allocation.
    #[must_use]
    pub fn reuses(&self) -> u64 {
        self.shared.reuses.load(Ordering::Relaxed)
    }

    /// Buffers currently parked in the free list.
    #[must_use]
    pub fn pooled(&self) -> usize {
        self.shared.free.lock().expect("pool poisoned").len()
    }
}

/// An exclusively held pool buffer; returns to its pool on drop.
///
/// Derefs to `Vec<u8>`, so the codec's `encode_into(&mut Vec<u8>)` takes
/// a lease directly.
#[derive(Debug)]
pub struct BufLease {
    buf: Option<Vec<u8>>,
    shared: Arc<Shared>,
}

impl BufLease {
    /// The encoded bytes written so far.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        self.vec()
    }

    /// Detaches the buffer from the pool: the lease ends (the
    /// outstanding count drops) but the buffer is *not* returned.
    #[must_use]
    pub fn into_vec(mut self) -> Vec<u8> {
        self.shared.outstanding.fetch_sub(1, Ordering::Relaxed);
        self.buf.take().expect("buffer present until detached")
    }

    fn vec(&self) -> &Vec<u8> {
        self.buf.as_ref().expect("buffer present until detached")
    }
}

impl std::ops::Deref for BufLease {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        self.vec()
    }
}

impl std::ops::DerefMut for BufLease {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        self.buf.as_mut().expect("buffer present until detached")
    }
}

impl Drop for BufLease {
    fn drop(&mut self) {
        let Some(buf) = self.buf.take() else {
            return;
        };
        self.shared.outstanding.fetch_sub(1, Ordering::Relaxed);
        if buf.capacity() > MAX_RETAINED_CAPACITY {
            return;
        }
        let mut free = self.shared.free.lock().expect("pool poisoned");
        if free.len() < MAX_POOLED {
            free.push(buf);
        }
    }
}

/// One encoded frame, shared by every link and arrival it goes to.
/// Cloning shares the bytes; nothing can write to them while a clone
/// lives.
#[derive(Debug, Clone)]
pub struct Frame(Arc<Vec<u8>>);

impl Frame {
    /// A copy of this frame with bit `bit` flipped, as an in-transit
    /// corruption delivers it. The copy is a frame of its own, outside
    /// any pool, so the flip never reaches the arrivals that share this
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `bit` lies past the frame's last byte.
    #[must_use]
    pub fn with_flipped_bit(&self, bit: u64) -> Frame {
        let mut copy = self.0.to_vec();
        let byte = usize::try_from(bit / 8).expect("bit index fits usize");
        copy[byte] ^= 1 << (bit % 8);
        Frame(Arc::new(copy))
    }
}

impl std::ops::Deref for Frame {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// A pool of [`Frame`]s for one sender: it encodes each frame into the
/// buffer of a kept frame that no link or arrival holds any more, so in
/// steady state a frame costs no lock, no allocation and no copy.
///
/// # Examples
///
/// ```
/// use rtpb_types::FramePool;
///
/// let mut pool = FramePool::new();
/// let frame = pool.frame(|buf| buf.extend_from_slice(b"frame"));
/// let arrival = frame.clone();
/// drop(frame);
/// assert_eq!(pool.outstanding(), 1, "the arrival still holds it");
/// drop(arrival);
/// assert_eq!(pool.outstanding(), 0);
/// let again = pool.frame(|buf| buf.push(7));
/// assert_eq!(&again[..], &[7]);
/// assert_eq!(pool.reuses(), 1);
/// ```
#[derive(Debug, Default)]
pub struct FramePool {
    /// One handle to each frame the pool may reuse, oldest first.
    kept: VecDeque<Arc<Vec<u8>>>,
    issued: u64,
    reuses: u64,
}

impl FramePool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        FramePool::default()
    }

    /// A frame of the bytes `fill` appends to an empty buffer: the buffer
    /// of the oldest kept frame nobody else holds, or a new one when the
    /// oldest few are all still held. So the pool grows to about the
    /// number of frames in flight at once. It keeps the frame for reuse
    /// unless it is over 1 MiB.
    pub fn frame(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> Frame {
        self.issued += 1;
        let mut shared = self.take_free().unwrap_or_default();
        let buf = Arc::get_mut(&mut shared).expect("a free frame has no other holder");
        buf.clear();
        fill(buf);
        if buf.capacity() <= MAX_RETAINED_CAPACITY {
            self.kept.push_back(Arc::clone(&shared));
        }
        Frame(shared)
    }

    /// The oldest of the first few kept frames that no link or arrival
    /// holds; a held one moves to the back, behind younger frames.
    fn take_free(&mut self) -> Option<Arc<Vec<u8>>> {
        for _ in 0..FRAME_PROBES.min(self.kept.len()) {
            let mut oldest = self.kept.pop_front()?;
            if Arc::get_mut(&mut oldest).is_some() {
                self.reuses += 1;
                return Some(oldest);
            }
            self.kept.push_back(oldest);
        }
        None
    }

    /// Kept frames that a link or arrival still holds.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.kept
            .iter()
            .filter(|f| Arc::strong_count(f) > 1)
            .count() as u64
    }

    /// Frames ever issued.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// How many frames were written into a kept frame's buffer instead
    /// of a new one.
    #[must_use]
    pub fn reuses(&self) -> u64 {
        self.reuses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_reuses_capacity() {
        let pool = BufPool::new();
        {
            let mut a = pool.lease();
            a.extend_from_slice(&[0u8; 4096]);
        }
        let b = pool.lease();
        assert!(b.capacity() >= 4096, "returned capacity is retained");
        assert!(b.is_empty(), "lease starts cleared");
        assert_eq!(pool.reuses(), 1);
    }

    #[test]
    fn outstanding_tracks_live_leases() {
        let pool = BufPool::new();
        assert_eq!(pool.outstanding(), 0);
        let a = pool.lease();
        let b = pool.lease();
        assert_eq!(pool.outstanding(), 2);
        drop(a);
        assert_eq!(pool.outstanding(), 1);
        drop(b);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.leases_issued(), 2);
    }

    #[test]
    fn into_vec_detaches_without_returning() {
        let pool = BufPool::new();
        let mut lease = pool.lease();
        lease.push(7);
        let v = lease.into_vec();
        assert_eq!(v, vec![7]);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.pooled(), 0, "detached buffer never comes back");
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = BufPool::new();
        let leases: Vec<BufLease> = (0..MAX_POOLED + 10).map(|_| pool.lease()).collect();
        drop(leases);
        assert!(pool.pooled() <= MAX_POOLED);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let pool = BufPool::new();
        {
            let mut big = pool.lease();
            big.reserve(MAX_RETAINED_CAPACITY + 1);
        }
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn clones_share_the_pool() {
        let pool = BufPool::new();
        let other = pool.clone();
        drop(other.lease());
        assert_eq!(pool.leases_issued(), 1);
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn a_frame_is_not_reissued_while_any_clone_lives() {
        let mut pool = FramePool::new();
        let first = pool.frame(|buf| buf.extend_from_slice(b"first"));
        let arrival = first.clone();
        drop(first);
        let second = pool.frame(|buf| buf.extend_from_slice(b"second"));
        assert!(!Arc::ptr_eq(&arrival.0, &second.0));
        assert_eq!(&arrival[..], b"first", "a held frame's bytes never change");
        assert_eq!(pool.reuses(), 0);
        assert_eq!(pool.outstanding(), 2);
    }

    #[test]
    fn a_frame_is_reissued_once_every_clone_drops() {
        let mut pool = FramePool::new();
        let first = pool.frame(|buf| buf.extend_from_slice(&[1; 64]));
        let capacity = first.0.capacity();
        let arrivals = [first.clone(), first.clone()];
        drop(first);
        drop(arrivals);
        assert_eq!(pool.outstanding(), 0);
        let second = pool.frame(|buf| buf.push(2));
        assert_eq!(&second[..], &[2], "a reused frame starts empty");
        assert_eq!(second.0.capacity(), capacity, "its capacity is kept");
        assert_eq!((pool.issued(), pool.reuses(), pool.kept.len()), (2, 1, 1));
    }

    #[test]
    fn a_held_oldest_frame_does_not_block_younger_free_ones() {
        let mut pool = FramePool::new();
        let stuck = pool.frame(|buf| buf.push(0));
        drop(pool.frame(|buf| buf.push(1)));
        let reused = pool.frame(|buf| buf.push(2));
        assert_eq!(pool.reuses(), 1);
        assert_eq!((&stuck[..], &reused[..]), (&[0][..], &[2][..]));
    }

    #[test]
    fn frames_over_a_mebibyte_are_not_kept() {
        let mut pool = FramePool::new();
        let big = pool.frame(|buf| buf.resize(MAX_RETAINED_CAPACITY + 1, 0));
        assert_eq!(pool.kept.len(), 0);
        drop(big);
        drop(pool.frame(|buf| buf.push(1)));
        assert_eq!((pool.reuses(), pool.kept.len()), (0, 1));
    }

    #[test]
    fn a_corrupted_arrivals_copy_never_aliases_the_shared_frame() {
        let mut pool = FramePool::new();
        let frame = pool.frame(|buf| buf.extend_from_slice(&[0b1010_0000, 0xFF]));
        let corrupted = frame.with_flipped_bit(9);
        assert!(!Arc::ptr_eq(&frame.0, &corrupted.0));
        assert_eq!(
            &frame[..],
            &[0b1010_0000, 0xFF],
            "the shared frame is intact"
        );
        assert_eq!(&corrupted[..], &[0b1010_0000, 0xFD]);
        assert_eq!(pool.outstanding(), 1, "the copy holds no pooled frame");
        drop(frame);
        let reused = pool.frame(|buf| buf.push(1));
        assert_eq!(
            &corrupted[..],
            &[0b1010_0000, 0xFD],
            "reuse leaves the copy alone"
        );
        assert_eq!(&reused[..], &[1]);
    }
}
