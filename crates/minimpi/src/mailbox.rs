//! Shared mailbox matching messages on `(comm, src, dst, tag)` in FIFO order.

use std::any::Any;
use std::collections::{HashMap, VecDeque};

use parking_lot::{Condvar, Mutex};

use crate::error::{Error, Result};

/// Erased message payload.
type Payload = Box<dyn Any + Send>;

/// Message-matching key. `comm` is the communicator id so that messages on a
/// sub-communicator never match messages on the parent.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Key {
    pub comm: u64,
    pub src: usize,
    pub dst: usize,
    pub tag: u64,
}

/// A process-wide mailbox shared by every rank of a [`crate::World`].
///
/// Each `(comm, src, dst, tag)` tuple owns an independent FIFO queue, so
/// messages between a given pair of ranks with a given tag arrive in send
/// order, while messages on different tags can be received out of order —
/// the same matching semantics MPI provides.
pub(crate) struct Mailbox {
    queues: Mutex<HashMap<Key, VecDeque<Payload>>>,
    arrived: Condvar,
}

impl Mailbox {
    pub fn new() -> Self {
        Mailbox { queues: Mutex::new(HashMap::new()), arrived: Condvar::new() }
    }

    /// Enqueue a message. Never blocks: this models MPI's buffered send,
    /// which is what the coupled codes in the paper rely on.
    pub fn post(&self, key: Key, payload: Payload) {
        let mut q = self.queues.lock();
        q.entry(key).or_default().push_back(payload);
        drop(q);
        self.arrived.notify_all();
    }

    /// Block until a message matching `key` is available and return it.
    pub fn take<T: Send + 'static>(&self, key: Key) -> Result<T> {
        let mut q = self.queues.lock();
        loop {
            if let Some(payload) = Self::pop(&mut q, key) {
                return Self::downcast(payload);
            }
            self.arrived.wait(&mut q);
        }
    }

    fn pop(map: &mut HashMap<Key, VecDeque<Payload>>, key: Key) -> Option<Payload> {
        let queue = map.get_mut(&key)?;
        let payload = queue.pop_front();
        if queue.is_empty() {
            map.remove(&key);
        }
        payload
    }

    fn downcast<T: Send + 'static>(payload: Payload) -> Result<T> {
        payload
            .downcast::<T>()
            .map(|b| *b)
            .map_err(|_| Error::TypeMismatch { expected: std::any::type_name::<T>() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(src: usize, dst: usize, tag: u64) -> Key {
        Key { comm: 0, src, dst, tag }
    }

    #[test]
    fn post_then_take_roundtrips() {
        let mb = Mailbox::new();
        mb.post(key(0, 1, 7), Box::new(42i32));
        assert_eq!(mb.take::<i32>(key(0, 1, 7)).unwrap(), 42);
    }

    #[test]
    fn fifo_order_within_key() {
        let mb = Mailbox::new();
        for i in 0..10i64 {
            mb.post(key(0, 0, 1), Box::new(i));
        }
        for i in 0..10i64 {
            assert_eq!(mb.take::<i64>(key(0, 0, 1)).unwrap(), i);
        }
    }

    #[test]
    fn tags_are_independent() {
        let mb = Mailbox::new();
        mb.post(key(0, 1, 2), Box::new("b".to_string()));
        mb.post(key(0, 1, 1), Box::new("a".to_string()));
        assert_eq!(mb.take::<String>(key(0, 1, 1)).unwrap(), "a");
        assert_eq!(mb.take::<String>(key(0, 1, 2)).unwrap(), "b");
    }

    #[test]
    fn type_mismatch_is_reported() {
        let mb = Mailbox::new();
        mb.post(key(0, 1, 0), Box::new(1.5f64));
        let err = mb.take::<i32>(key(0, 1, 0)).unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
    }

    #[test]
    fn take_blocks_until_post_from_other_thread() {
        use std::time::Duration;
        let mb = std::sync::Arc::new(Mailbox::new());
        let mb2 = mb.clone();
        let h = std::thread::spawn(move || mb2.take::<u64>(key(0, 1, 4)).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        mb.post(key(0, 1, 4), Box::new(99u64));
        assert_eq!(h.join().unwrap(), 99);
    }
}
