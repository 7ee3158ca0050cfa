//! Deterministic event queue.
//!
//! The execution manager reproduced in this workspace is *event
//! triggered*: every scheduling action happens at a discrete event
//! (`new_task_graph`, `end_of_reconfiguration`, `reused_task`,
//! `end_of_execution`). Several events frequently coincide — e.g. in the
//! paper's Fig. 2 a task graph finishes at t = 16 ms at the same instant a
//! reconfiguration completes — and the outcome depends on the order they
//! are handled in. To make simulations exactly reproducible the queue
//! orders events by `(time, priority class, insertion sequence)`.

use std::cmp::Ordering;

use crate::time::SimTime;

/// An event plus the bookkeeping that fixes its position in the total
/// order of the simulation.
#[derive(Debug, Clone)]
pub struct QueuedEvent<T> {
    /// When the event fires.
    pub time: SimTime,
    /// Priority class: lower fires first among events at the same time.
    pub priority: u8,
    /// Insertion sequence number: breaks remaining ties FIFO.
    pub seq: u64,
    /// The caller's payload.
    pub payload: T,
}

impl<T> PartialEq for QueuedEvent<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for QueuedEvent<T> {}

impl<T> QueuedEvent<T> {
    #[inline]
    fn key(&self) -> (SimTime, u8, u64) {
        (self.time, self.priority, self.seq)
    }

    /// The key packed into one `u128` — `time` in the high 64 bits,
    /// priority above a 56-bit sequence number in the low word — so the
    /// sort-order comparisons of the hot push path are a single integer
    /// compare. 2⁵⁶ insertions per queue lifetime is far beyond any
    /// simulation here (a debug assertion in `push` guards it).
    #[inline]
    fn packed_key(&self) -> u128 {
        pack_key(self.time, self.priority, self.seq)
    }
}

#[inline]
fn pack_key(time: SimTime, priority: u8, seq: u64) -> u128 {
    ((time.as_us() as u128) << 64) | ((priority as u128) << 56) | (seq as u128)
}

impl<T> PartialOrd for QueuedEvent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for QueuedEvent<T> {
    /// Reversed (earliest key = greatest) so min-priority pops come
    /// from the cheap end of the backing store.
    fn cmp(&self, other: &Self) -> Ordering {
        other.packed_key().cmp(&self.packed_key())
    }
}

/// A deterministic min-priority event queue.
///
/// Events pop in `(time, priority, insertion order)` order. The queue also
/// enforces the monotonicity invariant of discrete-event simulation: it is
/// a logic error (checked in debug builds) to schedule an event earlier
/// than the last popped time.
///
/// **Representation.** The backing store is a `Vec` kept sorted by key
/// descending, so `pop` is an O(1) `Vec::pop` and `push` is a binary
/// search plus an insertion shift. The execution manager keeps this
/// queue *shallow* — pending arrivals live in the engine's sorted lane,
/// so only in-flight events (bounded by the RU count) are ever queued —
/// and at those depths the sorted Vec beats a binary heap: no sift
/// branching on pop, and insertion shifts of a handful of small structs
/// are a single `memmove`. Deep queues (thousands of simultaneous
/// pending events) would pay O(n) per insertion and should use a heap
/// instead.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Pending events, sorted by key descending (next event last), each
    /// carrying its packed key so ordering probes are one integer load.
    events: Vec<(u128, QueuedEvent<T>)>,
    next_seq: u64,
    last_popped: SimTime,
    popped_any: bool,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            events: Vec::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
            popped_any: false,
        }
    }

    /// Creates an empty queue whose heap can hold `capacity` events
    /// before reallocating — pre-size for the most events that can be
    /// in flight at once.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            events: Vec::with_capacity(capacity),
            next_seq: 0,
            last_popped: SimTime::ZERO,
            popped_any: false,
        }
    }

    /// Number of events the store can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.events.capacity()
    }

    /// Advances the monotonicity clock to `time` without popping — used
    /// when the owner processes a same-stream event that is not stored
    /// in this queue (e.g. the engine's sorted arrival lane), so later
    /// `push`es are still checked against true simulation time.
    ///
    /// # Panics
    /// In debug builds, panics if `time` precedes the current clock.
    pub fn advance_to(&mut self, time: SimTime) {
        debug_assert!(
            !self.popped_any || time >= self.last_popped,
            "EventQueue: advance_to({time}) before current time {}",
            self.last_popped
        );
        self.last_popped = time;
        self.popped_any = true;
    }

    /// Schedules `payload` at `time` with priority class `priority`
    /// (lower = earlier among same-time events).
    pub fn push(&mut self, time: SimTime, priority: u8, payload: T) {
        debug_assert!(
            !self.popped_any || time >= self.last_popped,
            "EventQueue: scheduled event at {time} before current time {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert!(seq < 1 << 56, "sequence space exhausted");
        let ev = QueuedEvent {
            time,
            priority,
            seq,
            payload,
        };
        // Keep the store sorted by key descending: everything with a
        // *smaller* (earlier) key goes after the new event. Keys are
        // unique (the seq), so the position is unambiguous.
        let key = ev.packed_key();
        let at = self.events.partition_point(|&(k, _)| k > key);
        self.events.insert(at, (key, ev));
    }

    /// Removes and returns the next event in deterministic order.
    pub fn pop(&mut self) -> Option<QueuedEvent<T>> {
        let (_, ev) = self.events.pop()?;
        self.last_popped = ev.time;
        self.popped_any = true;
        Some(ev)
    }

    /// Drains every queued event sharing the head's `(time, priority)`
    /// into `out` in deterministic (insertion) order, returning that
    /// shared `(time, priority)` — or `None` on an empty queue.
    ///
    /// Events pushed *while the batch is being handled* are not part of
    /// it: they carry later sequence numbers and would have popped after
    /// every pre-existing same-key event anyway, so handling the drained
    /// batch then re-merging preserves the one-at-a-time total order.
    /// `out` is appended to, not cleared — callers own the scratch
    /// buffer.
    pub fn pop_same_instant_into(&mut self, out: &mut Vec<T>) -> Option<(SimTime, u8)> {
        let (_, head) = self.events.last()?;
        let (time, priority) = (head.time, head.priority);
        while let Some((_, e)) = self.events.last() {
            if e.time != time || e.priority != priority {
                break;
            }
            let (_, e) = self.events.pop().expect("peeked event vanished");
            out.push(e.payload);
        }
        self.last_popped = time;
        self.popped_any = true;
        Some((time, priority))
    }

    /// The full ordering key `(time, priority, seq)` of the next event
    /// without removing it — lets an owner merge this queue with an
    /// external sorted lane under the queue's own total order.
    pub fn peek_key(&self) -> Option<(SimTime, u8, u64)> {
        self.events.last().map(|(_, e)| e.key())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The time of the most recently popped event (simulation "now").
    pub fn now(&self) -> SimTime {
        self.last_popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(5), 0, "b");
        q.push(SimTime::from_ms(1), 0, "a");
        q.push(SimTime::from_ms(9), 0, "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_ordered_by_priority_then_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(3);
        q.push(t, 2, "low-prio-first-inserted");
        q.push(t, 0, "high-prio");
        q.push(t, 2, "low-prio-second-inserted");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(
            order,
            vec![
                "high-prio",
                "low-prio-first-inserted",
                "low-prio-second-inserted"
            ]
        );
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(2), 0, ());
        q.push(SimTime::from_ms(7), 0, ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(2));
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(7));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 0, 1u32);
        q.push(SimTime::ZERO, 0, 2u32);
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn push_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(5), 0, ());
        q.pop();
        q.push(SimTime::from_ms(1), 0, ());
    }

    #[test]
    fn with_capacity_presizes_heap() {
        let q: EventQueue<u32> = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_same_instant_drains_only_the_head_key() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(4);
        q.push(t, 0, "a");
        q.push(t, 0, "b");
        q.push(t, 1, "later-prio");
        q.push(SimTime::from_ms(5), 0, "later-time");
        let mut batch = Vec::new();
        assert_eq!(q.pop_same_instant_into(&mut batch), Some((t, 0)));
        assert_eq!(batch, vec!["a", "b"], "insertion order within the batch");
        assert_eq!(q.now(), t);
        assert_eq!(q.len(), 2, "other keys untouched");
        assert_eq!(q.pop().unwrap().payload, "later-prio");
        let mut empty: EventQueue<u8> = EventQueue::new();
        assert_eq!(empty.pop_same_instant_into(&mut Vec::new()), None);
    }

    #[test]
    fn peek_key_exposes_total_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(4), 1, 'x');
        q.push(SimTime::from_ms(4), 0, 'y');
        assert_eq!(q.peek_key(), Some((SimTime::from_ms(4), 0, 1)));
        assert_eq!(q.pop().unwrap().payload, 'y');
    }

    #[test]
    fn advance_to_moves_now_without_pop() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.advance_to(SimTime::from_ms(9));
        assert_eq!(q.now(), SimTime::from_ms(9));
        q.push(SimTime::from_ms(9), 0, 1);
        assert_eq!(q.pop().unwrap().time, SimTime::from_ms(9));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn advance_into_past_panics_in_debug() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push(SimTime::from_ms(5), 0, 1);
        q.pop();
        q.advance_to(SimTime::from_ms(2));
    }
}
