//! Bounded SPSC block ring — the allocation-free router→shard handoff.
//!
//! One ring connects exactly one producer ([`RingSender`]) to exactly one
//! consumer ([`RingReceiver`]). The pipeline creates **two** per
//! (router, shard) pair: a forward ring carrying filled batch blocks to
//! the worker and a return ring carrying the spent (cleared, capacity
//! kept) blocks back, so steady-state ingestion recycles a fixed pool of
//! `Vec<K>` blocks instead of allocating one per batch.
//!
//! # Design
//!
//! The ring is a fixed array of `capacity` payload cells indexed by two
//! **monotonic** counters: `tail` counts values published by the
//! producer, `head` values consumed; `counter % capacity` is the cell, and
//! `tail − head` the occupancy (`0 ≤ tail − head ≤ capacity` is the ring
//! invariant, maintained with wrapping arithmetic). Each side caches the
//! other's counter and re-reads the shared atomic only when the cached
//! value implies it must wait, so an uncontended send or receive touches
//! one shared cache line once.
//!
//! The workspace forbids `unsafe`, so each cell is a `Mutex<Option<T>>`
//! rather than an `UnsafeCell`. The mutexes are **uncontended by
//! construction** — the counters hand each cell back and forth: the
//! producer only locks cell `tail % capacity` while `tail − head <
//! capacity` (the consumer is strictly below it), the consumer only locks
//! `head % capacity` while `head < tail` (the producer has moved past
//! it) — so every acquisition takes the mutex fast path; the lock exists
//! to satisfy the aliasing rules, not to coordinate.
//!
//! Publishing uses the documented Acquire/Release pairing (`SeqCst`
//! stores, which are Release-or-stronger, against Acquire fast-path
//! loads): the store of `tail` releases the cell write, the consumer's
//! load of `tail` acquires it, and symmetrically for `head`.
//!
//! # Blocking: park, don't spin
//!
//! A full producer or empty consumer **parks on a condvar** instead of
//! spinning. Spin-waiting assumes the peer is making progress on another
//! core; on a single-CPU host (like the reference benchmark machine) it
//! does the opposite — it burns the exact timeslice the peer needs. The
//! wake handshake is the classic seqlock-free flag protocol: the waiter
//! sets its `*_parked` flag and re-checks the condition (both `SeqCst`)
//! before sleeping, the peer publishes (`SeqCst`) and then checks the
//! flag (`SeqCst`); the total order on `SeqCst` operations guarantees at
//! least one side observes the other, so a notification can never fall
//! between check and sleep. Notifications take the park mutex first,
//! which pins the waiter either before its re-check or inside `wait`.
//!
//! # Disconnect semantics (mirrors `std::sync::mpsc`)
//!
//! Dropping the receiver makes every subsequent [`RingSender::send`] fail
//! with the value returned; dropping the sender lets the receiver drain
//! the buffered values and then fail with [`RecvError`]. A worker panic
//! therefore surfaces as a failed `send` from the router to that shard,
//! which poisons the pipeline.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

pub use std::sync::mpsc::{RecvError, SendError, TryRecvError};

struct Shared<T> {
    /// Payload cells; see the module docs for why these are (uncontended)
    /// mutexes.
    slots: Box<[Mutex<Option<T>>]>,
    /// Monotonic count of published values; written only by the producer.
    tail: AtomicUsize,
    /// Monotonic count of consumed values; written only by the consumer.
    head: AtomicUsize,
    producer_alive: AtomicBool,
    consumer_alive: AtomicBool,
    producer_parked: AtomicBool,
    consumer_parked: AtomicBool,
    park: Mutex<()>,
    /// Signalled when a cell frees up or the consumer disconnects.
    producer_wake: Condvar,
    /// Signalled when a value arrives or the producer disconnects.
    consumer_wake: Condvar,
}

/// The producing half; not clonable — the ring is strictly SPSC.
pub struct RingSender<T> {
    shared: Arc<Shared<T>>,
    /// Last observed `head`; re-read from the shared atomic only when the
    /// cached value implies the ring is full.
    cached_head: usize,
}

/// The consuming half; not clonable — the ring is strictly SPSC.
pub struct RingReceiver<T> {
    shared: Arc<Shared<T>>,
    /// Last observed `tail`; re-read only when the cache implies empty.
    cached_tail: usize,
}

/// Creates a ring holding at most `capacity ≥ 1` in-flight values.
///
/// # Panics
///
/// Panics on `capacity == 0` (a zero-capacity rendezvous ring cannot make
/// progress under this design).
pub fn bounded<T>(capacity: usize) -> (RingSender<T>, RingReceiver<T>) {
    assert!(capacity >= 1, "ring capacity must be ≥ 1");
    let shared = Arc::new(Shared {
        slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        tail: AtomicUsize::new(0),
        head: AtomicUsize::new(0),
        producer_alive: AtomicBool::new(true),
        consumer_alive: AtomicBool::new(true),
        producer_parked: AtomicBool::new(false),
        consumer_parked: AtomicBool::new(false),
        park: Mutex::new(()),
        producer_wake: Condvar::new(),
        consumer_wake: Condvar::new(),
    });
    (
        RingSender {
            shared: Arc::clone(&shared),
            cached_head: 0,
        },
        RingReceiver {
            shared,
            cached_tail: 0,
        },
    )
}

impl<T> RingSender<T> {
    /// Sends a value, blocking (parked, not spinning) while the ring is
    /// full.
    ///
    /// # Errors
    ///
    /// Returns the value back once the receiver has disconnected.
    pub fn send(&mut self, value: T) -> Result<(), SendError<T>> {
        let capacity = self.shared.slots.len();
        let tail = self.shared.tail.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.cached_head) >= capacity {
            self.cached_head = self.shared.head.load(Ordering::Acquire);
            if tail.wrapping_sub(self.cached_head) >= capacity && !self.park_until_space(tail) {
                return Err(SendError(value));
            }
        }
        let s = &*self.shared;
        if !s.consumer_alive.load(Ordering::SeqCst) {
            return Err(SendError(value));
        }
        *s.slots[tail % capacity].lock().expect("ring cell lock") = Some(value);
        s.tail.store(tail.wrapping_add(1), Ordering::SeqCst);
        if s.consumer_parked.load(Ordering::SeqCst) {
            let _guard = s.park.lock().expect("ring park lock");
            s.consumer_wake.notify_one();
        }
        Ok(())
    }

    /// Parks until a cell frees up (true) or the consumer is gone (false).
    fn park_until_space(&mut self, tail: usize) -> bool {
        let s = &*self.shared;
        let capacity = s.slots.len();
        let mut guard = s.park.lock().expect("ring park lock");
        s.producer_parked.store(true, Ordering::SeqCst);
        let ok = loop {
            self.cached_head = s.head.load(Ordering::SeqCst);
            if tail.wrapping_sub(self.cached_head) < capacity {
                break true;
            }
            if !s.consumer_alive.load(Ordering::SeqCst) {
                break false;
            }
            guard = s.producer_wake.wait(guard).expect("ring park lock");
        };
        s.producer_parked.store(false, Ordering::SeqCst);
        ok
    }
}

impl<T> Drop for RingSender<T> {
    fn drop(&mut self) {
        self.shared.producer_alive.store(false, Ordering::SeqCst);
        // Rare path: always take the park lock, so the disconnect is
        // either observed by the receiver's pre-sleep re-check or
        // delivered into its wait.
        let _guard = self.shared.park.lock().expect("ring park lock");
        self.shared.consumer_wake.notify_all();
    }
}

impl<T> RingReceiver<T> {
    /// Receives the next value, blocking (parked, not spinning) while the
    /// ring is empty.
    ///
    /// # Errors
    ///
    /// [`RecvError`] once the ring is empty **and** the sender has
    /// disconnected; buffered values are always drained first.
    pub fn recv(&mut self) -> Result<T, RecvError> {
        let s = &*self.shared;
        let head = s.head.load(Ordering::Relaxed);
        if self.cached_tail == head {
            self.cached_tail = s.tail.load(Ordering::Acquire);
            if self.cached_tail == head && !self.park_until_value(head) {
                return Err(RecvError);
            }
        }
        Ok(self.take(head))
    }

    /// Receives without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when no value is buffered,
    /// [`TryRecvError::Disconnected`] when additionally the sender is gone.
    pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
        let s = &*self.shared;
        let head = s.head.load(Ordering::Relaxed);
        if self.cached_tail == head {
            self.cached_tail = s.tail.load(Ordering::Acquire);
        }
        if self.cached_tail == head {
            if s.producer_alive.load(Ordering::SeqCst) {
                return Err(TryRecvError::Empty);
            }
            // The producer may have published between our tail load and
            // its disconnect; one re-read decides.
            self.cached_tail = s.tail.load(Ordering::SeqCst);
            if self.cached_tail == head {
                return Err(TryRecvError::Disconnected);
            }
        }
        Ok(self.take(head))
    }

    /// Takes the published value at `head` and advances the counter.
    fn take(&self, head: usize) -> T {
        let s = &*self.shared;
        let value = s.slots[head % s.slots.len()]
            .lock()
            .expect("ring cell lock")
            .take()
            .expect("published ring cell holds a value");
        s.head.store(head.wrapping_add(1), Ordering::SeqCst);
        if s.producer_parked.load(Ordering::SeqCst) {
            let _guard = s.park.lock().expect("ring park lock");
            s.producer_wake.notify_one();
        }
        value
    }

    /// Parks until a value arrives (true) or the ring is drained and the
    /// producer gone (false).
    fn park_until_value(&mut self, head: usize) -> bool {
        let s = &*self.shared;
        let mut guard = s.park.lock().expect("ring park lock");
        s.consumer_parked.store(true, Ordering::SeqCst);
        let ok = loop {
            self.cached_tail = s.tail.load(Ordering::SeqCst);
            if self.cached_tail != head {
                break true;
            }
            if !s.producer_alive.load(Ordering::SeqCst) {
                // A publish may have raced the disconnect; re-read before
                // declaring the ring drained.
                self.cached_tail = s.tail.load(Ordering::SeqCst);
                break self.cached_tail != head;
            }
            guard = s.consumer_wake.wait(guard).expect("ring park lock");
        };
        s.consumer_parked.store(false, Ordering::SeqCst);
        ok
    }
}

impl<T> Drop for RingReceiver<T> {
    fn drop(&mut self) {
        self.shared.consumer_alive.store(false, Ordering::SeqCst);
        let _guard = self.shared.park.lock().expect("ring park lock");
        self.shared.producer_wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (mut tx, mut rx) = bounded::<u64>(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Empty)));
    }

    #[test]
    fn capacity_respected_and_wraps() {
        let (mut tx, mut rx) = bounded::<u64>(2);
        // Many laps over the 2-cell ring, interleaved so the monotonic
        // counters wrap through every cell index repeatedly.
        for lap in 0..1000u64 {
            tx.send(2 * lap).unwrap();
            tx.send(2 * lap + 1).unwrap();
            assert_eq!(rx.recv(), Ok(2 * lap));
            assert_eq!(rx.recv(), Ok(2 * lap + 1));
        }
    }

    #[test]
    fn receiver_drop_fails_send_with_value() {
        let (mut tx, rx) = bounded::<String>(1);
        drop(rx);
        let back = tx.send("lost".to_owned()).unwrap_err();
        assert_eq!(back.0, "lost");
    }

    #[test]
    fn sender_drop_drains_then_disconnects() {
        let (mut tx, mut rx) = bounded::<u64>(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
    }

    #[test]
    fn blocking_send_completes_after_consumer_frees_space() {
        let (mut tx, mut rx) = bounded::<u64>(1);
        tx.send(0).unwrap();
        std::thread::scope(|s| {
            let producer = s.spawn(move || {
                for i in 1..200u64 {
                    tx.send(i).unwrap();
                }
            });
            for i in 0..200u64 {
                assert_eq!(rx.recv(), Ok(i));
            }
            producer.join().unwrap();
        });
    }

    #[test]
    fn blocking_recv_wakes_on_late_producer() {
        let (mut tx, mut rx) = bounded::<u64>(2);
        std::thread::scope(|s| {
            let consumer = s.spawn(move || {
                assert_eq!(rx.recv(), Ok(7));
                assert_eq!(rx.recv(), Err(RecvError));
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            tx.send(7).unwrap();
            drop(tx);
            consumer.join().unwrap();
        });
    }

    #[test]
    fn zero_capacity_is_rejected() {
        let result = std::panic::catch_unwind(|| bounded::<u64>(0));
        assert!(result.is_err());
    }
}
