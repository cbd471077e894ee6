//! Deterministic virtual-time event scheduler.
//!
//! The paper's model is round-synchronous, but the engine no longer runs a
//! lockstep loop: it drains a priority queue of *events* — per-message
//! delivery events and per-node timeout timers — ordered by virtual time.
//! Rounds are emergent: a node executes round `r` when its round-`r` timer
//! fires, and a message it did not receive by then is *detectably absent*
//! (paper assumption (b), implemented as a timeout rather than an oracle).
//!
//! Determinism is total-order determinism: every event carries a key
//! `(time, class, seq)` and the queue pops strictly in key order.
//!
//! * `time` is virtual [`SimTime`] (no wall clock anywhere);
//! * `class` breaks ties at equal time — [`EventClass::Deliver`] sorts
//!   before [`EventClass::Timer`], so a message arriving *exactly at* the
//!   timeout boundary is still delivered (present, not absent). This
//!   tie-break is load-bearing for §6's relaxed absence detection and is
//!   pinned by tests;
//! * `seq` is a monotone insertion counter, so events scheduled earlier at
//!   the same `(time, class)` pop earlier, regardless of heap internals.
//!
//! The queue is payload-generic; `simnet::engine` drives the lockstep-
//! equivalent simulation with it, and the transport layer reuses it for the
//! fully event-driven `SimTransport`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Virtual time, in abstract latency units. Wide enough that
/// `round * (deadline + 1)` cannot overflow even at `deadline = u64::MAX`.
pub type SimTime = u128;

/// Event category; the tie-break dimension at equal virtual time.
///
/// Deliveries sort before timers: a message arriving exactly when the
/// receiver's round timer fires is *present* — absence detection only
/// declares a message missing if it is strictly later than the timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventClass {
    /// A message delivery at the receiver.
    Deliver,
    /// A per-node round-timeout timer.
    Timer,
}

/// An event popped from the queue: the scheduling key plus the payload.
#[derive(Debug)]
pub struct Scheduled<P> {
    /// Virtual time at which the event fires.
    pub time: SimTime,
    /// Tie-break class (deliveries before timers at equal time).
    pub class: EventClass,
    /// Insertion sequence number (unique, monotone; final tie-break).
    pub seq: u64,
    /// The event payload.
    pub payload: P,
}

/// Min-heap entry; ordering is *only* the `(time, class, seq)` key, never
/// the payload, and `seq` uniqueness makes the order total.
struct Entry<P>(Scheduled<P>);

impl<P> Entry<P> {
    fn key(&self) -> (SimTime, EventClass, u64) {
        (self.0.time, self.0.class, self.0.seq)
    }
}

impl<P> PartialEq for Entry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<P> Eq for Entry<P> {}

impl<P> PartialOrd for Entry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<P> Ord for Entry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        other.key().cmp(&self.key())
    }
}

/// Deterministic event queue: strict `(time, class, seq)` pop order.
pub struct EventQueue<P> {
    heap: BinaryHeap<Entry<P>>,
    next_seq: u64,
    now: SimTime,
}

impl<P> std::fmt::Debug for EventQueue<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .field("now", &self.now)
            .finish()
    }
}

impl<P> Default for EventQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> EventQueue<P> {
    /// An empty queue at virtual time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
        }
    }

    /// Schedules `payload` at `time`; returns the assigned sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past (strictly before the last popped
    /// event) — the simulation may not rewrite history.
    pub fn schedule(&mut self, time: SimTime, class: EventClass, payload: P) -> u64 {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry(Scheduled {
            time,
            class,
            seq,
            payload,
        }));
        seq
    }

    /// Removes and returns the next event in `(time, class, seq)` order,
    /// advancing the virtual clock to its firing time.
    pub fn pop(&mut self) -> Option<Scheduled<P>> {
        let ev = self.heap.pop()?.0;
        debug_assert!(ev.time >= self.now, "heap order violated");
        self.now = ev.time;
        Some(ev)
    }

    /// Firing time of the next event, if any (does not advance the clock).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.0.time)
    }

    /// The next event in `(time, class, seq)` order, without removing it
    /// or advancing the clock — lets a multiplexing caller check which
    /// endpoint the head event belongs to before committing to a pop.
    pub fn peek(&self) -> Option<&Scheduled<P>> {
        self.heap.peek().map(|e| &e.0)
    }

    /// Current virtual time: the firing time of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event and rewinds to the state of
    /// [`EventQueue::new`] — virtual time zero, sequence numbers from
    /// zero — keeping the heap's allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.now = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5, EventClass::Timer, "t5");
        q.schedule(1, EventClass::Timer, "t1");
        q.schedule(3, EventClass::Timer, "t3");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["t1", "t3", "t5"]);
        assert_eq!(q.now(), 5);
    }

    #[test]
    fn clear_rewinds_to_a_fresh_queue() {
        let mut q = EventQueue::new();
        q.schedule(4, EventClass::Timer, "old");
        q.schedule(9, EventClass::Timer, "pending");
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), 0);
        // Time zero is no longer in the past, and sequence numbers restart.
        assert_eq!(q.schedule(0, EventClass::Timer, "new"), 0);
        assert_eq!(q.pop().map(|e| e.payload), Some("new"));
    }

    #[test]
    fn delivery_beats_timer_at_equal_time() {
        // The boundary tie-break: a message arriving exactly at the timeout
        // is present, so its Deliver event must pop before the Timer.
        let mut q = EventQueue::new();
        q.schedule(7, EventClass::Timer, "timeout");
        q.schedule(7, EventClass::Deliver, "message");
        assert_eq!(q.pop().unwrap().payload, "message");
        assert_eq!(q.pop().unwrap().payload, "timeout");
    }

    #[test]
    fn insertion_order_breaks_remaining_ties() {
        let mut q = EventQueue::new();
        for tag in ["a", "b", "c"] {
            q.schedule(2, EventClass::Deliver, tag);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, EventClass::Timer, ());
        q.pop();
        q.schedule(3, EventClass::Timer, ());
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut q = EventQueue::new();
        q.schedule(4, EventClass::Timer, "t");
        q.schedule(2, EventClass::Deliver, "d");
        let head = q.peek().unwrap();
        assert_eq!((head.time, head.payload), (2, "d"));
        assert_eq!(q.now(), 0, "peek must not advance the clock");
        assert_eq!(q.pop().unwrap().payload, "d");
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(0, EventClass::Timer, 1);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
