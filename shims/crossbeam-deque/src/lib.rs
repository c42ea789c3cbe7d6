//! Vendored, API-compatible subset of the `crossbeam-deque` crate.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! the slice of the `crossbeam-deque` surface it actually uses: the
//! [`Injector`] MPMC FIFO with its [`Steal`] result type. Implemented as a
//! mutex-protected deque — `steal` never actually reports [`Steal::Retry`],
//! which callers already treat as "try again". One method goes beyond the
//! upstream surface: [`Injector::push_all`], a batch push under one lock.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Result of a steal attempt.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// The queue was empty.
    Empty,
    /// A task was stolen.
    Success(T),
    /// The attempt lost a race and should be retried.
    Retry,
}

/// An MPMC FIFO injector queue.
pub struct Injector<T> {
    queue: Mutex<VecDeque<T>>,
}

impl<T> Injector<T> {
    /// A new empty queue.
    pub fn new() -> Self {
        Injector {
            queue: Mutex::new(VecDeque::new()),
        }
    }

    /// Push a task onto the back of the queue.
    pub fn push(&self, task: T) {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(task);
    }

    /// Push several tasks onto the back of the queue, in order, under one
    /// lock acquisition. An extension of this shim, not upstream API
    /// (upstream's injector is lock-free and pushes one task at a time):
    /// a receiver enqueues a whole batch of arrivals with it.
    pub fn push_all(&self, tasks: impl IntoIterator<Item = T>) {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(tasks);
    }

    /// Steal the task at the front of the queue.
    pub fn steal(&self) -> Steal<T> {
        match self
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
        {
            Some(t) => Steal::Success(t),
            None => Steal::Empty,
        }
    }

    /// True when the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Injector::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let q = Injector::new();
        q.push(1);
        q.push(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.steal(), Steal::Success(1));
        assert_eq!(q.steal(), Steal::Success(2));
        assert_eq!(q.steal(), Steal::Empty);
        assert!(q.is_empty());
    }

    #[test]
    fn push_all_keeps_order_behind_earlier_pushes() {
        let q = Injector::new();
        q.push(0);
        q.push_all(1..4);
        assert_eq!(q.len(), 4);
        for want in 0..4 {
            assert_eq!(q.steal(), Steal::Success(want));
        }
    }
}
