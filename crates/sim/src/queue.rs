//! The event queue of the DES: a monotone radix queue keyed by due time.
//!
//! The model never schedules an event due before the one it is handling,
//! so every push falls due at or after the last pop, `last`. An event due
//! at `last` waits in a FIFO; any later one waits in bucket `b`, `b` being
//! the highest bit in which its due time differs from `last`. A pop takes
//! the FIFO's front. When the FIFO is empty it empties the lowest
//! non-empty bucket whole: `last` moves to that bucket's earliest due
//! time, and each of its events goes, in the bucket's order, to the FIFO
//! or to a lower bucket, all of which were empty. Events in higher buckets
//! keep their bucket, since `last` still differs from them first in the
//! same bit (Ahuja, Mehlhorn, Orlin & Tarjan, 1990).
//!
//! A bucket is only ever appended to, or emptied whole into empty ones,
//! so the FIFO and every bucket stay in push order, and events due at the
//! same instant always share one. Pops therefore come out in exactly the
//! `(due, push order)` order of one heap of every event, with no sequence
//! number. A push due before `last` would break that; it panics, in
//! release builds too.

use smarth_core::units::SimInstant;

pub(crate) struct EventQueue {
    /// Due time of the last pop, in ns.
    last: u64,
    /// Payloads due at `last`, in push order; the first `head` are popped.
    now: Vec<u64>,
    head: usize,
    /// `(due, payload)` by the highest bit in which `due` differs from
    /// `last`, each in push order.
    buckets: [Vec<(u64, u64)>; 64],
    /// Bit `b` is set while `buckets[b]` holds events.
    occupied: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            last: 0,
            now: Vec::new(),
            head: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
        }
    }
}

impl EventQueue {
    pub(crate) fn push(&mut self, at: SimInstant, payload: u64) {
        assert!(at.0 >= self.last, "an event due before the last pop");
        self.file(at.0, payload);
    }

    /// Files an event due at or after `last` in the FIFO or its bucket.
    fn file(&mut self, due: u64, payload: u64) {
        if due == self.last {
            self.now.push(payload);
        } else {
            let b = 63 - (self.last ^ due).leading_zeros();
            self.buckets[b as usize].push((due, payload));
            self.occupied |= 1 << b;
        }
    }

    /// The earliest event, by due time and then push order.
    pub(crate) fn pop(&mut self) -> Option<(SimInstant, u64)> {
        if self.head == self.now.len() {
            self.now.clear();
            self.head = 0;
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1 << b);
            if let [(due, payload)] = self.buckets[b][..] {
                // Half the buckets a pop empties hold one event.
                self.buckets[b].clear();
                self.last = due;
                return Some((SimInstant(due), payload));
            }
            let mut events = std::mem::take(&mut self.buckets[b]);
            self.last = events.iter().map(|&(due, _)| due).min()?;
            for (due, payload) in events.drain(..) {
                self.file(due, payload);
            }
            // Keep the emptied bucket's buffer.
            self.buckets[b] = events;
        }
        self.head += 1;
        Some((SimInstant(self.last), self.now[self.head - 1]))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.now.len() && self.occupied == 0
    }

    /// Restarts virtual time at zero, for the next upload; the queue
    /// must be drained.
    pub(crate) fn reset(&mut self) {
        assert!(self.is_empty(), "reset with events pending");
        self.last = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Random pushes interleaved with pops come out in the order of one
    /// `BinaryHeap` over `(due, seq)`: pushes due now, a few ns ahead, or
    /// across many bit boundaries (up to ≈ 2^40 ns), over rounds that
    /// drain the queue and restart time at zero, as the uploads do.
    #[test]
    fn pops_follow_one_heap_of_every_event() {
        for seed in 0..20 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut queue = EventQueue::default();
            let mut reference = BinaryHeap::new();
            let mut now = 0u64;
            let mut ties = 0;
            for step in 0..20_000u64 {
                if rng.gen_range(0..10) < 6 {
                    let ahead = match rng.gen_range(0..4) {
                        0 => 0,
                        1 => rng.gen_range(1..8),
                        _ => {
                            let bits = rng.gen_range(1..=40);
                            rng.gen_range(0..1u64 << bits)
                        }
                    };
                    queue.push(SimInstant(now + ahead), step);
                    reference.push(Reverse((now + ahead, step)));
                } else {
                    let want = reference.pop().map(|Reverse((at, p))| (SimInstant(at), p));
                    assert_eq!(queue.pop(), want, "seed {seed}, step {step}");
                    if let Some((at, _)) = want {
                        ties += usize::from(at.0 == now);
                        now = at.0;
                    }
                }
                if step % 5_000 == 4_999 {
                    while let Some(Reverse((at, p))) = reference.pop() {
                        assert_eq!(
                            queue.pop(),
                            Some((SimInstant(at), p)),
                            "seed {seed}, draining"
                        );
                    }
                    assert_eq!(queue.pop(), None);
                    queue.reset();
                    now = 0;
                }
            }
            assert!(queue.is_empty());
            assert!(ties > 1_000, "the test pops ties");
        }
    }

    #[test]
    #[should_panic(expected = "before the last pop")]
    fn a_push_before_the_last_pop_panics() {
        let mut queue = EventQueue::default();
        queue.push(SimInstant(10), 1);
        assert_eq!(queue.pop(), Some((SimInstant(10), 1)));
        queue.push(SimInstant(9), 2);
    }
}
