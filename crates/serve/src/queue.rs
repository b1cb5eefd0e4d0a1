//! The admission queue: a bounded MPSC queue with a coalescing consumer.
//!
//! Producers are transport threads admitting requests; the single
//! consumer is the batcher, which drains *windows* of requests and hands
//! each window to one `decide_batch` call.
//!
//! The queue is deliberately built on `std::sync::{Mutex, Condvar}`, not
//! the vendored `parking_lot` (which exposes no condvar): the consumer
//! must *sleep* between windows, and a condvar is the only primitive in
//! the tree that can wake it without spinning. Every lock acquisition
//! recovers from poisoning with `PoisonError::into_inner` — a panicking
//! producer must not wedge the batcher (the same discipline `hetsel-obs`
//! applies to its registries; the queue's state is a `VecDeque` plus two
//! flags, both valid after any partial mutation).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Admission verdict for one push attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request is in the queue.
    Admitted,
    /// The queue was full; the request was not enqueued (shed it).
    QueueFull,
    /// The queue is closed; the request was not enqueued (shed it).
    Closed,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPSC queue whose consumer drains coalescing windows.
pub struct AdmissionQueue<T> {
    state: Mutex<QueueState<T>>,
    /// Signals the consumer: items arrived or the queue closed.
    arrived: Condvar,
    /// Signals blocked `push_wait` producers: space freed or closed.
    vacated: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` queued requests (minimum 1).
    pub fn new(capacity: usize) -> AdmissionQueue<T> {
        AdmissionQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            arrived: Condvar::new(),
            vacated: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Non-blocking admission: load-shedding callers use this and turn
    /// [`Admission::QueueFull`] into a typed shed reply.
    pub fn try_push(&self, item: T) -> Admission {
        let mut state = self.lock();
        if state.closed {
            return Admission::Closed;
        }
        if state.items.len() >= self.capacity {
            return Admission::QueueFull;
        }
        state.items.push_back(item);
        drop(state);
        self.arrived.notify_one();
        Admission::Admitted
    }

    /// Blocking admission: backpressure callers (the load bench, a
    /// cooperating client) wait for space instead of being shed. Returns
    /// [`Admission::Closed`] if the queue closes while waiting.
    pub fn push_wait(&self, item: T) -> Admission {
        let mut state = self.lock();
        while !state.closed && state.items.len() >= self.capacity {
            state = self
                .vacated
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.closed {
            return Admission::Closed;
        }
        state.items.push_back(item);
        drop(state);
        self.arrived.notify_one();
        Admission::Admitted
    }

    /// Consumer side: blocks until at least one request is queued, then
    /// keeps the window open up to `window` longer (bounded by
    /// `max_batch`) so closely-spaced requests coalesce into one batch.
    /// Returns `None` only when the queue is closed *and* drained.
    pub fn next_batch(&self, max_batch: usize, window: Duration) -> Option<Vec<T>> {
        let max_batch = max_batch.max(1);
        let mut state = self.lock();
        // Phase 1: wait for the first request (or close).
        while state.items.is_empty() {
            if state.closed {
                return None;
            }
            state = self
                .arrived
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        // Phase 2: hold the window open for stragglers.
        let window_end = Instant::now() + window;
        while state.items.len() < max_batch && !state.closed {
            let now = Instant::now();
            if now >= window_end {
                break;
            }
            let (next, timeout) = self
                .arrived
                .wait_timeout(state, window_end - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
            if timeout.timed_out() {
                break;
            }
        }
        let take = state.items.len().min(max_batch);
        let batch: Vec<T> = state.items.drain(..take).collect();
        drop(state);
        // Space freed: wake every blocked producer (each re-checks).
        self.vacated.notify_all();
        Some(batch)
    }

    /// Closes the queue: producers are refused from now on, the consumer
    /// drains what is left and then sees `None`. Returns the requests
    /// still queued so the caller can shed them with a typed reason
    /// instead of dropping them silently.
    pub fn close(&self) -> Vec<T> {
        let mut state = self.lock();
        state.closed = true;
        let orphans: Vec<T> = state.items.drain(..).collect();
        drop(state);
        self.arrived.notify_all();
        self.vacated.notify_all();
        orphans
    }

    /// Current queue depth (point-in-time; the queue-depth gauge).
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// True once [`AdmissionQueue::close`] ran.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn try_push_sheds_at_capacity() {
        let q = AdmissionQueue::new(2);
        assert_eq!(q.try_push(1), Admission::Admitted);
        assert_eq!(q.try_push(2), Admission::Admitted);
        assert_eq!(q.try_push(3), Admission::QueueFull);
        assert_eq!(q.depth(), 2);
        let batch = q.next_batch(8, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![1, 2]);
        assert_eq!(q.try_push(3), Admission::Admitted);
    }

    #[test]
    fn window_coalesces_closely_spaced_requests() {
        let q = Arc::new(AdmissionQueue::new(64));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..10 {
                    assert_eq!(q.try_push(i), Admission::Admitted);
                    thread::sleep(Duration::from_millis(1));
                }
            })
        };
        let mut got = Vec::new();
        let mut batches = 0usize;
        while got.len() < 10 {
            let batch = q.next_batch(64, Duration::from_millis(50)).unwrap();
            batches += 1;
            got.extend(batch);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        // A 50 ms window over 1 ms arrivals must have merged requests —
        // strictly fewer batches than requests.
        assert!(batches < 10, "no coalescing happened ({batches} batches)");
    }

    #[test]
    fn max_batch_bounds_a_window() {
        let q = AdmissionQueue::new(64);
        for i in 0..10 {
            q.try_push(i);
        }
        let batch = q.next_batch(4, Duration::ZERO).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(q.depth(), 6);
    }

    #[test]
    fn close_returns_orphans_and_unblocks_consumer() {
        let q = Arc::new(AdmissionQueue::new(8));
        q.try_push(1);
        q.try_push(2);
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(batch) = q.next_batch(8, Duration::from_millis(1)) {
                    seen.extend(batch);
                }
                seen
            })
        };
        thread::sleep(Duration::from_millis(20));
        let orphans = q.close();
        assert_eq!(q.try_push(3), Admission::Closed);
        let seen = consumer.join().unwrap();
        // Everything queued went to exactly one side.
        let mut all = seen;
        all.extend(orphans);
        all.sort_unstable();
        assert_eq!(all, vec![1, 2]);
    }

    #[test]
    fn push_wait_applies_backpressure() {
        let q = Arc::new(AdmissionQueue::new(1));
        assert_eq!(q.push_wait(1), Admission::Admitted);
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push_wait(2))
        };
        thread::sleep(Duration::from_millis(20));
        // Producer is blocked; draining frees space and admits it.
        assert_eq!(q.next_batch(1, Duration::ZERO).unwrap(), vec![1]);
        assert_eq!(producer.join().unwrap(), Admission::Admitted);
        assert_eq!(q.next_batch(1, Duration::ZERO).unwrap(), vec![2]);
    }

    #[test]
    fn poisoned_queue_still_serves() {
        let q = Arc::new(AdmissionQueue::new(4));
        let q2 = Arc::clone(&q);
        let _ = thread::spawn(move || {
            let _guard = q2.state.lock().unwrap();
            panic!("poison the queue lock");
        })
        .join();
        assert!(q.state.is_poisoned());
        assert_eq!(q.try_push(7), Admission::Admitted);
        assert_eq!(q.next_batch(4, Duration::ZERO).unwrap(), vec![7]);
        q.close();
    }
}
