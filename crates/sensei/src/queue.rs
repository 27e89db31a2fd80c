//! A bounded hand-off queue with configurable overflow behaviour.
//!
//! The original asynchronous runner used an unbounded channel: a solver
//! that outruns its in situ consumer accumulates snapshots without limit,
//! and each queued snapshot holds a full deep copy of the published
//! arrays — exactly the memory-footprint growth §2 warns about. The
//! bounded queue caps the number of in-flight snapshots
//! (`queue_depth` in [`crate::BackendControls`]) and lets the user choose
//! what submission does when the cap is reached.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// What [`BoundedSender::send`] does when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Block the producer until the consumer frees a slot. Backpressure:
    /// the simulation slows down rather than growing the footprint.
    #[default]
    Block,
    /// Evict the oldest queued item to make room. The consumer always
    /// sees the freshest data; intermediate snapshots may be skipped.
    DropOldest,
    /// Fail the submission with [`SendError::Full`].
    Error,
}

impl OverflowPolicy {
    /// The XML spelling used in run-time configuration.
    pub fn name(&self) -> &'static str {
        match self {
            OverflowPolicy::Block => "block",
            OverflowPolicy::DropOldest => "drop_oldest",
            OverflowPolicy::Error => "error",
        }
    }

    /// Parse the XML spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "block" => Some(OverflowPolicy::Block),
            "drop_oldest" => Some(OverflowPolicy::DropOldest),
            "error" => Some(OverflowPolicy::Error),
            _ => None,
        }
    }
}

/// Why a send failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The queue is full and the policy is [`OverflowPolicy::Error`].
    Full,
    /// The receiver is gone (the worker exited or panicked).
    Disconnected,
    /// The queue was closed (bridge finalize) — including out from under
    /// a producer blocked under [`OverflowPolicy::Block`].
    Closed,
}

/// A successful send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SendOk {
    /// Items evicted to make room (only under
    /// [`OverflowPolicy::DropOldest`]).
    pub evicted: u64,
}

struct State<T> {
    buf: VecDeque<T>,
    /// Producer closed the queue: the consumer drains and exits.
    closed: bool,
    /// Consumer is gone: sends fail immediately.
    receiver_dead: bool,
    /// Total items evicted over the queue's lifetime.
    evicted: u64,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    policy: OverflowPolicy,
    not_full: Condvar,
    not_empty: Condvar,
}

/// Producer half of the queue. Cloneable: a second handle can observe or
/// close the queue (e.g. a finalizer) while another producer is blocked
/// in [`BoundedSender::send`].
pub struct BoundedSender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for BoundedSender<T> {
    fn clone(&self) -> Self {
        BoundedSender { shared: self.shared.clone() }
    }
}

/// Consumer half of the queue. Dropping it (including by a panicking
/// worker thread unwinding) wakes and fails any blocked or future sends.
pub struct BoundedReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create a queue holding at most `capacity` items (minimum 1).
pub fn bounded<T>(
    capacity: usize,
    policy: OverflowPolicy,
) -> (BoundedSender<T>, BoundedReceiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            buf: VecDeque::new(),
            closed: false,
            receiver_dead: false,
            evicted: 0,
        }),
        capacity: capacity.max(1),
        policy,
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });
    (BoundedSender { shared: shared.clone() }, BoundedReceiver { shared })
}

impl<T> BoundedSender<T> {
    /// Enqueue `item`, applying the overflow policy when full.
    pub fn send(&self, item: T) -> Result<SendOk, SendError> {
        let mut st = self.shared.state.lock();
        loop {
            // A closed queue rejects new items — critically, a producer
            // parked in the Block arm below must re-check this on wake-up,
            // or a close() racing a blocked send leaves the producer
            // waiting on a condvar nobody will ever signal again. Checked
            // first: a receiver that drained a closed queue and exited is
            // not the reason the item was refused.
            if st.closed {
                return Err(SendError::Closed);
            }
            if st.receiver_dead {
                return Err(SendError::Disconnected);
            }
            if st.buf.len() < self.shared.capacity {
                st.buf.push_back(item);
                self.shared.not_empty.notify_one();
                return Ok(SendOk::default());
            }
            match self.shared.policy {
                OverflowPolicy::Block => self.shared.not_full.wait(&mut st),
                OverflowPolicy::DropOldest => {
                    st.buf.pop_front();
                    st.evicted += 1;
                    st.buf.push_back(item);
                    self.shared.not_empty.notify_one();
                    return Ok(SendOk { evicted: 1 });
                }
                OverflowPolicy::Error => return Err(SendError::Full),
            }
        }
    }

    /// Close the queue: the consumer drains what is buffered, then
    /// `recv` returns `None`. Future sends — and sends currently blocked
    /// on a full queue — fail with [`SendError::Closed`].
    pub fn close(&self) {
        self.shared.state.lock().closed = true;
        self.shared.not_empty.notify_all();
        // Producers blocked in send() wait on not_full; without this they
        // would sleep through the close and hang bridge finalize.
        self.shared.not_full.notify_all();
    }

    /// Items currently buffered.
    pub fn len(&self) -> usize {
        self.shared.state.lock().buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total items evicted by [`OverflowPolicy::DropOldest`].
    pub fn evicted(&self) -> u64 {
        self.shared.state.lock().evicted
    }
}

impl<T> BoundedReceiver<T> {
    /// Dequeue the next item, blocking while the queue is open and empty;
    /// `None` once the queue is closed and drained.
    pub fn recv(&self) -> Option<T> {
        let mut st = self.shared.state.lock();
        loop {
            if let Some(item) = st.buf.pop_front() {
                self.shared.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            self.shared.not_empty.wait(&mut st);
        }
    }

    /// Dequeue the next item without blocking: `Some(item)` when one is
    /// buffered, `None` when the queue is currently empty (open *or*
    /// closed — poll loops should stop on [`BoundedReceiver::is_closed`]).
    /// Lets one thread multiplex many queues (e.g. the serve layer's
    /// client pool polling thousands of sessions).
    pub fn try_recv(&self) -> Option<T> {
        let mut st = self.shared.state.lock();
        let item = st.buf.pop_front();
        if item.is_some() {
            self.shared.not_full.notify_one();
        }
        item
    }

    /// True once the queue is closed *and* fully drained — the poll-loop
    /// termination condition matching `recv() == None`.
    pub fn is_closed(&self) -> bool {
        let st = self.shared.state.lock();
        st.closed && st.buf.is_empty()
    }
}

impl<T> Drop for BoundedReceiver<T> {
    fn drop(&mut self) {
        self.shared.state.lock().receiver_dead = true;
        // Blocked producers must observe the death, not wait forever.
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn policy_names_roundtrip_and_aliases_are_rejected() {
        for p in [OverflowPolicy::Block, OverflowPolicy::DropOldest, OverflowPolicy::Error] {
            assert_eq!(OverflowPolicy::parse(p.name()), Some(p));
        }
        for alias in ["backpressure", "drop-oldest", "drop", "DROP", "fail", "yolo"] {
            assert_eq!(OverflowPolicy::parse(alias), None, "{alias}");
            let xml = format!(r#"<sensei><analysis type="x" overflow="{alias}"/></sensei>"#);
            match crate::ConfigurableAnalysis::from_xml(&xml) {
                Err(crate::Error::Config(msg)) => assert!(msg.contains(alias), "{msg}"),
                other => panic!("'{alias}' must be a Config error, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = bounded(4, OverflowPolicy::Error);
        for i in 0..3 {
            tx.send(i).unwrap();
        }
        tx.close();
        assert_eq!(rx.recv(), Some(0));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None, "closed and drained");
    }

    #[test]
    fn error_policy_rejects_when_full() {
        let (tx, _rx) = bounded(2, OverflowPolicy::Error);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.send(3), Err(SendError::Full));
        assert_eq!(tx.len(), 2);
    }

    #[test]
    fn drop_oldest_evicts_the_head() {
        let (tx, rx) = bounded(2, OverflowPolicy::DropOldest);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.send(3), Ok(SendOk { evicted: 1 }));
        assert_eq!(tx.evicted(), 1);
        tx.close();
        assert_eq!(rx.recv(), Some(2), "1 was evicted");
        assert_eq!(rx.recv(), Some(3));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn block_policy_waits_for_the_consumer() {
        let (tx, rx) = bounded(1, OverflowPolicy::Block);
        tx.send(1).unwrap();
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let first = rx.recv();
            let second = rx.recv();
            (first, second, rx)
        });
        let t0 = std::time::Instant::now();
        tx.send(2).unwrap(); // must wait for the recv above
        assert!(t0.elapsed() >= Duration::from_millis(20), "send blocked until a slot freed");
        tx.close();
        let (first, second, _rx) = consumer.join().unwrap();
        assert_eq!((first, second), (Some(1), Some(2)));
    }

    #[test]
    fn close_wakes_and_fails_a_blocked_send() {
        // Regression: a producer parked in send() under Block used to
        // sleep through close() (only not_empty was notified and only
        // receiver_dead was re-checked), hanging bridge finalize.
        let (tx, rx) = bounded(1, OverflowPolicy::Block);
        tx.send(1).unwrap();
        let closer = tx.clone();
        let closer_thread = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            closer.close();
        });
        let t0 = std::time::Instant::now();
        assert_eq!(tx.send(2), Err(SendError::Closed), "blocked send must wake on close");
        assert!(t0.elapsed() >= Duration::from_millis(20), "send was actually blocked");
        closer_thread.join().unwrap();
        // The consumer still drains what was buffered before the close.
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn try_recv_never_blocks_and_tracks_close() {
        let (tx, rx) = bounded(2, OverflowPolicy::Block);
        assert_eq!(rx.try_recv(), None, "empty queue returns immediately");
        assert!(!rx.is_closed(), "open queue is not closed");
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Some(1));
        // try_recv frees a slot: a Block producer no longer waits.
        tx.send(3).unwrap();
        tx.close();
        assert!(!rx.is_closed(), "closed but not yet drained");
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.try_recv(), Some(3));
        assert_eq!(rx.try_recv(), None);
        assert!(rx.is_closed(), "closed and drained");
    }

    #[test]
    fn send_after_close_is_rejected() {
        let (tx, rx) = bounded(4, OverflowPolicy::Block);
        tx.send(1).unwrap();
        tx.close();
        assert_eq!(tx.send(2), Err(SendError::Closed), "closed queue takes no new items");
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn dead_receiver_fails_blocked_and_future_sends() {
        let (tx, rx) = bounded(1, OverflowPolicy::Block);
        tx.send(1).unwrap();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(rx);
        });
        assert_eq!(tx.send(2), Err(SendError::Disconnected), "blocked send wakes on death");
        assert_eq!(tx.send(3), Err(SendError::Disconnected));
        killer.join().unwrap();
    }
}
