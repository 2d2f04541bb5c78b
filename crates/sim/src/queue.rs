//! The event queue of the DES: one FIFO lane per event source, and a heap
//! over the lanes' heads.
//!
//! Every event the model schedules has a source, its `(pipe, hop, kind)`,
//! and one source's events fall due in the order they are pushed: their
//! times come from FIFO [`RateServer`](crate::RateServer)s plus constant
//! latencies and costs, or they are "now". So a lane is a `VecDeque` that
//! is sorted without sorting, and the heap holds one `(time, seq, lane)`
//! entry per non-empty lane: tens of entries, where one heap of events held
//! every pending packet event (thousands, once a first hop buffers a whole
//! block). Events come out in exactly the `(time, seq)` order that one heap
//! gave, `seq` being the push count.
//!
//! A push due before the tail of its lane would break the lane's order. It
//! goes to a heap of strays instead, and [`EventLanes::pop`] takes the
//! earlier of the two heaps' tops, so the order stays exact. The model's
//! sources push no stray on any figure or benchmark case.

use smarth_core::units::SimInstant;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;

/// `(due, seq, payload)`.
type Entry = (SimInstant, u64, u64);

#[derive(Default)]
pub(crate) struct EventLanes {
    /// `(due, seq, lane)` of the first entry of every non-empty lane.
    heads: BinaryHeap<Reverse<(SimInstant, u64, usize)>>,
    lanes: Vec<VecDeque<Entry>>,
    strays: BinaryHeap<Reverse<Entry>>,
    /// Buffers of released lanes, for lanes that need one.
    spare: Vec<VecDeque<Entry>>,
    seq: u64,
}

impl EventLanes {
    pub(crate) fn push(&mut self, lane: usize, at: SimInstant, payload: u64) {
        self.seq += 1;
        let entry = (at, self.seq, payload);
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, VecDeque::new);
        }
        let queue = &mut self.lanes[lane];
        match queue.back() {
            None => {
                if queue.capacity() == 0 {
                    if let Some(buffer) = self.spare.pop() {
                        *queue = buffer;
                    }
                }
                self.heads.push(Reverse((at, self.seq, lane)));
                queue.push_back(entry);
            }
            Some(&(last, _, _)) if last <= at => queue.push_back(entry),
            Some(_) => self.strays.push(Reverse(entry)),
        }
    }

    /// The earliest event, by due time and then push order.
    pub(crate) fn pop(&mut self) -> Option<(SimInstant, u64)> {
        if let Some(Reverse((at, seq, _))) = self.strays.peek() {
            if self
                .heads
                .peek()
                .is_none_or(|Reverse(h)| (*at, *seq) < (h.0, h.1))
            {
                let Reverse((at, _, payload)) = self.strays.pop()?;
                return Some((at, payload));
            }
        }
        let mut top = self.heads.peek_mut()?;
        let lane = top.0 .2;
        let queue = &mut self.lanes[lane];
        let (at, _, payload) = queue.pop_front().expect("a lane in the heap has a head");
        match queue.front() {
            // Replacing the top sifts it down once, on drop.
            Some(&(next, seq, _)) => top.0 = (next, seq, lane),
            None => {
                PeekMut::pop(top);
            }
        }
        Some((at, payload))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heads.is_empty() && self.strays.is_empty()
    }

    /// Takes the buffers of the drained lanes among `lanes` for lanes
    /// that need one later; a lane with events left keeps its buffer.
    pub(crate) fn release(&mut self, lanes: Range<usize>) {
        let end = lanes.end.min(self.lanes.len());
        for queue in &mut self.lanes[lanes.start.min(end)..end] {
            if queue.is_empty() && queue.capacity() > 0 {
                self.spare.push(std::mem::take(queue));
            }
        }
    }

    /// Whether a push ever went to the strays heap, which keeps its
    /// buffer once it has one.
    #[cfg(test)]
    pub(crate) fn strayed(&self) -> bool {
        self.strays.capacity() > 0
    }

    #[cfg(test)]
    pub(crate) fn lane_capacity(&self, lane: usize) -> usize {
        self.lanes.get(lane).map_or(0, VecDeque::capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Random pushes over many lanes, interleaved with pops, come out in
    /// the order of one `BinaryHeap` over `(due, seq)`: equal due times,
    /// pushes earlier than their lane's tail, lanes that drain and refill,
    /// and released lanes whose buffers are reused.
    #[test]
    fn pops_follow_one_heap_of_every_event() {
        for seed in 0..20 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut lanes = EventLanes::default();
            let mut reference = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut popped = 0;
            for step in 0..20_000u64 {
                if rng.gen_range(0..10) < 6 {
                    let lane = rng.gen_range(0..40usize);
                    // Coarse times make ties common.
                    let at = SimInstant(now + rng.gen_range(0..8u64) * 1_000);
                    lanes.push(lane, at, step);
                    seq += 1;
                    reference.push(Reverse((at, seq, step)));
                } else {
                    let want = reference.pop().map(|Reverse((at, _, p))| (at, p));
                    assert_eq!(lanes.pop(), want, "seed {seed}, step {step}");
                    if let Some((at, _)) = want {
                        now = at.0;
                        popped += 1;
                    }
                }
                if step % 1_000 == 999 {
                    lanes.release(0..20);
                }
            }
            while let Some(Reverse((at, _, p))) = reference.pop() {
                assert_eq!(lanes.pop(), Some((at, p)), "seed {seed}, draining");
            }
            assert_eq!(lanes.pop(), None);
            assert!(lanes.is_empty());
            assert!(popped > 1_000 && lanes.strayed(), "the test pushes strays");
        }
    }

    #[test]
    fn in_order_lanes_never_stray_and_release_only_drained_lanes() {
        let mut lanes = EventLanes::default();
        for k in 0..100 {
            lanes.push(1, SimInstant(k * 10), k);
            lanes.push(2, SimInstant(5 + k * 10), 100 + k);
        }
        for k in 0..100 {
            assert_eq!(lanes.pop(), Some((SimInstant(k * 10), k)));
            assert_eq!(lanes.pop(), Some((SimInstant(5 + k * 10), 100 + k)));
            if k == 49 {
                lanes.push(3, SimInstant(1_000_000), 7);
            }
        }
        assert!(!lanes.strayed());
        lanes.release(0..4);
        assert_eq!(
            lanes.lane_capacity(1),
            0,
            "drained lane gave its buffer back"
        );
        assert!(lanes.lane_capacity(3) > 0, "lane 3 still holds an event");
        // A lane created later starts from a released buffer.
        lanes.push(9, SimInstant(2_000_000), 8);
        assert!(lanes.lane_capacity(9) > 0);
        assert_eq!(lanes.pop(), Some((SimInstant(1_000_000), 7)));
        assert_eq!(lanes.pop(), Some((SimInstant(2_000_000), 8)));
        assert_eq!(lanes.pop(), None);
    }
}
