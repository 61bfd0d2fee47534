//! A generic future-event list.
//!
//! Events are ordered by timestamp; ties are broken by insertion order
//! (FIFO), which keeps simulations deterministic when many events share an
//! instant — common here because phase-based execution releases whole
//! batches of chunk transfers at the same virtual time.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // and the lowest sequence number wins among equal timestamps.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedule `payload` at instant `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn len_tracks_push_and_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(42), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(42), ())));
        assert!(q.is_empty());
    }

    proptest! {
        #[test]
        fn always_nondecreasing(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), i);
            }
            let mut last = SimTime::ZERO;
            let mut seen = 0;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                seen += 1;
            }
            prop_assert_eq!(seen, times.len());
        }

        #[test]
        fn fifo_within_each_timestamp(times in proptest::collection::vec(0u64..20, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), i);
            }
            let mut last_seq_at: std::collections::HashMap<u64, usize> = Default::default();
            while let Some((t, seq)) = q.pop() {
                if let Some(&prev) = last_seq_at.get(&t.as_nanos()) {
                    prop_assert!(seq > prev);
                }
                last_seq_at.insert(t.as_nanos(), seq);
            }
        }
    }
}
