//! A wait-free readable, atomically swappable `Arc<T>` slot.
//!
//! The sharded store publishes each shard's current snapshot through one
//! of these cells so that `snapshot()` never takes a lock: readers pay
//! two atomic RMWs and one atomic load per shard, writers swap a raw
//! pointer and briefly drain in-flight readers before releasing their
//! reference to the previous value. Writers are expected to serialize
//! among themselves externally (each shard's write mutex does so); any
//! number of readers may load concurrently with a swap.
//!
//! The reclamation protocol is a read-indicator RCU:
//!
//! * a reader **announces itself first** (`readers += 1`), then loads the
//!   pointer, takes its reference count, and retires (`readers -= 1`);
//! * a swapper **publishes the new pointer first**, then waits for
//!   `readers == 0` before releasing the cell's reference to the old one
//!   (to the caller, from [`ArcSwapCell::swap`]).
//!
//! With sequentially consistent ordering on the announce, the pointer
//! accesses and the drain load, every reader either announced before the
//! swap (so the swapper's drain waits for it to finish taking its
//! count) or loads the new pointer — the old value is never freed while
//! a reader can still touch it. `load` is wait-free; `swap` is
//! *blocking*: the single counter cannot tell pre-swap readers from
//! post-swap ones, so the drain waits for a moment when **no** reader
//! is inside its announce→retire window. Each window is a handful of
//! instructions around a snapshot op that is orders of magnitude
//! longer, so per-cell occupancy stays far below 1 and the expected
//! drain is a few samples — but a workload that saturates one cell
//! with back-to-back loads from many threads would starve its writer.
//! That trade-off (simplicity and proven-safe reclamation over
//! generation tracking) fits a store with one cell per shard and
//! snapshot work dominated by the reads between loads.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

/// An `Arc<T>` slot with wait-free [`ArcSwapCell::load`] and atomic
/// [`ArcSwapCell::swap`]/[`ArcSwapCell::store`] publication.
pub struct ArcSwapCell<T> {
    /// Raw pointer produced by `Arc::into_raw`; the cell owns exactly
    /// one strong count on whatever it currently points at.
    ptr: AtomicPtr<T>,
    /// In-flight readers between announce and retire.
    readers: AtomicUsize,
    /// The cell semantically owns an `Arc<T>`, so it must inherit its
    /// auto traits instead of `AtomicPtr`'s unconditional ones.
    _own: PhantomData<Arc<T>>,
}

impl<T> ArcSwapCell<T> {
    /// A cell initially publishing `value`.
    pub fn new(value: Arc<T>) -> Self {
        ArcSwapCell {
            ptr: AtomicPtr::new(Arc::into_raw(value).cast_mut()),
            readers: AtomicUsize::new(0),
            _own: PhantomData,
        }
    }

    /// Takes a counted reference to the current value. Wait-free: two
    /// atomic RMWs and one atomic load, never a lock, never a spin.
    pub fn load(&self) -> Arc<T> {
        self.readers.fetch_add(1, Ordering::SeqCst);
        let raw = self.ptr.load(Ordering::SeqCst);
        // SAFETY: `raw` came from `Arc::into_raw` and its strong count
        // cannot reach zero here: the only place the cell's reference is
        // released is `swap`'s post-drain hand-back, and the drain cannot
        // pass while our announce is visible — if our announce ordered
        // after the swap instead, this load already sees the new
        // pointer, whose reference the swapper still holds.
        let arc = unsafe {
            Arc::increment_strong_count(raw);
            Arc::from_raw(raw)
        };
        self.readers.fetch_sub(1, Ordering::Release);
        arc
    }

    /// Publishes `value` and hands back the cell's reference to the
    /// previous one once in-flight loads have drained. Callers must
    /// serialize swaps externally (the shard write lock does).
    ///
    /// Returning the old value instead of dropping it lets the caller
    /// choose who pays for freeing it: the sharded store parks replaced
    /// snapshots until no reader holds them, so a reader's drop is never
    /// the last one.
    pub fn swap(&self, value: Arc<T>) -> Arc<T> {
        let old = self
            .ptr
            .swap(Arc::into_raw(value).cast_mut(), Ordering::SeqCst);
        // Drain: any reader that announced before the swap may still be
        // between its pointer load and its count increment; wait it out.
        // Readers finishing after the swap saw the new pointer, so they
        // only delay us, never race the hand-back.
        let mut spins = 0u32;
        while self.readers.load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // SAFETY: `old` came from `Arc::into_raw` and carries the cell's
        // strong count, which moves to the caller; the drain guarantees
        // every reader that could have loaded it holds its own count.
        unsafe { Arc::from_raw(old) }
    }

    /// Publishes `value` and drops the cell's reference to the previous
    /// one ([`ArcSwapCell::swap`] with the old value discarded).
    pub fn store(&self, value: Arc<T>) {
        drop(self.swap(value));
    }
}

impl<T> Drop for ArcSwapCell<T> {
    fn drop(&mut self) {
        // SAFETY: exclusive access — no loads or stores can be in
        // flight — and the pointer carries the cell's strong count.
        unsafe { drop(Arc::from_raw(*self.ptr.get_mut())) };
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ArcSwapCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ArcSwapCell").field(&self.load()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn load_returns_the_stored_value() {
        let cell = ArcSwapCell::new(Arc::new(7u64));
        assert_eq!(*cell.load(), 7);
        cell.store(Arc::new(8));
        assert_eq!(*cell.load(), 8);
    }

    #[test]
    fn loads_keep_old_values_alive_across_swaps() {
        let cell = ArcSwapCell::new(Arc::new(vec![1, 2, 3]));
        let pinned = cell.load();
        cell.store(Arc::new(vec![4]));
        assert_eq!(*pinned, vec![1, 2, 3], "pinned load survives the swap");
        assert_eq!(*cell.load(), vec![4]);
    }

    #[test]
    fn dropping_the_cell_releases_exactly_one_count() {
        let value = Arc::new(42u32);
        let cell = ArcSwapCell::new(Arc::clone(&value));
        assert_eq!(Arc::strong_count(&value), 2);
        drop(cell);
        assert_eq!(Arc::strong_count(&value), 1);
    }

    #[test]
    fn swap_hands_back_the_previous_value() {
        let first = Arc::new(1u32);
        let cell = ArcSwapCell::new(Arc::clone(&first));
        let old = cell.swap(Arc::new(2));
        assert!(Arc::ptr_eq(&old, &first));
        assert_eq!(
            Arc::strong_count(&first),
            2,
            "the cell's count moved to the caller"
        );
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn store_releases_the_previous_value() {
        let first = Arc::new(1u32);
        let cell = ArcSwapCell::new(Arc::clone(&first));
        cell.store(Arc::new(2));
        assert_eq!(
            Arc::strong_count(&first),
            1,
            "cell must drop its reference to the swapped-out value"
        );
    }

    /// Hammer concurrent loads against swaps: every load must observe a
    /// fully-formed value (the refcount protocol never hands out a
    /// freed pointer — ASAN/MIRI-visible if it ever does).
    #[test]
    fn concurrent_loads_and_stores_stay_sound() {
        let cell = Arc::new(ArcSwapCell::new(Arc::new(0usize)));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut last = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let v = *cell.load();
                    assert!(v >= last, "published values are monotonic");
                    last = v;
                }
            }));
        }
        for i in 1..=2000 {
            cell.store(Arc::new(i));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*cell.load(), 2000);
    }
}
