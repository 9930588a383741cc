//! MICRO — `EventQueue` vs the binary-heap queue it replaced.
//!
//! The simulator's event queue used to keep payload events in a
//! `BinaryHeap` ordered on `(time, seq)` and per-key timers in an indexed
//! min-heap, re-sifted whenever a timer moved. Today both live in one
//! monotone radix heap keyed on µs time behind a level of exact-instant
//! slots, with timers dropped lazily. This bench vendors a faithful copy
//! of the old queue (below) and drives both through the executor's
//! per-event pattern: pop, list the keys due at the popped instant,
//! re-send a popped event a short delay ahead (a ghost message), re-arm a
//! fired key, and move one pseudo-random key's timer (a core whose
//! composition changed). It runs five shapes. Three have 256 keys at the
//! peak depths the perfbench workloads reach: ≈160 events
//! (`paper_matrix`), ≈1.8k (`scale_ff`) and ≈7.5k (`wide_chaos`). Two
//! have 8 keys at depths 8 and 32, the small-P step of a `vopr_swarm` or
//! `paper_matrix` scenario at 8 cores. Both queues must fire the same
//! sequence (checksums compare).
//!
//! Results (ops/sec per shape, metrics named `<keys>x<depth>`) are
//! serialized to `BENCH_event_queue.json`, with the speedup at each shape
//! as a gate: the bench exits non-zero if the radix queue is slower than
//! the binary-heap queue at any shape.

use cloudlb_bench::baseline::{self, Dir, Record};
use cloudlb_bench::Settings;
use cloudlb_sim::{Dur, EventQueue, Popped, Time};
use std::time::Instant;

/// Faithful copy of the binary-heap queue: payload events inline in a
/// `BinaryHeap` on `(time, seq)`, pending timers in an indexed min-heap,
/// fired timers in a list until they are set again.
mod heap_queue {
    use cloudlb_sim::{Popped, Time};
    use std::cmp::{Ordering, Reverse};
    use std::collections::BinaryHeap;

    struct Entry<E> {
        at: Time,
        seq: u64,
        payload: E,
    }

    impl<E> Entry<E> {
        fn key(&self) -> (Time, u64) {
            (self.at, self.seq)
        }
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.key() == other.key()
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
            self.key().cmp(&other.key())
        }
    }

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum TimerState {
        Clear,
        Pending(u32),
        Fired(u32),
    }

    #[derive(Clone, Copy)]
    struct Timer {
        state: TimerState,
        at: Time,
    }

    pub struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<Entry<E>>>,
        next_seq: u64,
        now: Time,
        timer_heap: Vec<(Time, u64, u32)>,
        timers: Vec<Timer>,
        fired: Vec<u32>,
    }

    impl<E> HeapQueue<E> {
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: Time::ZERO,
                timer_heap: Vec::new(),
                timers: Vec::new(),
                fired: Vec::new(),
            }
        }

        pub fn now(&self) -> Time {
            self.now
        }

        pub fn schedule(&mut self, at: Time, payload: E) {
            let at = at.max(self.now);
            let seq = self.take_seq();
            self.heap.push(Reverse(Entry { at, seq, payload }));
        }

        fn take_seq(&mut self) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            seq
        }

        pub fn set_timer(&mut self, key: usize, at: Option<Time>) {
            if key >= self.timers.len() {
                self.timers.resize(
                    key + 1,
                    Timer {
                        state: TimerState::Clear,
                        at: Time::ZERO,
                    },
                );
            }
            if self.timer(key) == at {
                return;
            }
            match self.timers[key].state {
                TimerState::Clear => {}
                TimerState::Pending(pos) => self.remove_pending(pos as usize),
                TimerState::Fired(idx) => {
                    self.fired.swap_remove(idx as usize);
                    if let Some(&moved) = self.fired.get(idx as usize) {
                        self.timers[moved as usize].state = TimerState::Fired(idx);
                    }
                }
            }
            self.timers[key].state = TimerState::Clear;
            if let Some(at) = at {
                let seq = self.take_seq();
                self.timers[key].at = at;
                self.timer_heap.push((at.max(self.now), seq, key as u32));
                self.sift_up(self.timer_heap.len() - 1);
            }
        }

        fn timer(&self, key: usize) -> Option<Time> {
            let timer = self.timers.get(key)?;
            (timer.state != TimerState::Clear).then_some(timer.at)
        }

        pub fn timers_due(&self, t: Time, out: &mut Vec<usize>) {
            out.clear();
            out.extend(self.fired.iter().map(|&k| k as usize));
            self.collect_due(0, t, out);
        }

        fn collect_due(&self, pos: usize, t: Time, out: &mut Vec<usize>) {
            if let Some(&(at, _, key)) = self.timer_heap.get(pos) {
                if at <= t {
                    out.push(key as usize);
                    self.collect_due(2 * pos + 1, t, out);
                    self.collect_due(2 * pos + 2, t, out);
                }
            }
        }

        fn remove_pending(&mut self, pos: usize) {
            self.timer_heap.swap_remove(pos);
            if pos < self.timer_heap.len() {
                let pos = self.sift_up(pos);
                self.sift_down(pos);
            }
        }

        fn sift_up(&mut self, mut pos: usize) -> usize {
            let node = self.timer_heap[pos];
            while pos > 0 {
                let parent = (pos - 1) / 2;
                let up = self.timer_heap[parent];
                if (up.0, up.1) <= (node.0, node.1) {
                    break;
                }
                self.place(pos, up);
                pos = parent;
            }
            self.place(pos, node);
            pos
        }

        fn sift_down(&mut self, mut pos: usize) {
            let node = self.timer_heap[pos];
            let len = self.timer_heap.len();
            loop {
                let mut child = 2 * pos + 1;
                if child >= len {
                    break;
                }
                let (l, r) = (self.timer_heap[child], self.timer_heap.get(child + 1));
                if r.is_some_and(|r| (r.0, r.1) < (l.0, l.1)) {
                    child += 1;
                }
                let down = self.timer_heap[child];
                if (node.0, node.1) <= (down.0, down.1) {
                    break;
                }
                self.place(pos, down);
                pos = child;
            }
            self.place(pos, node);
        }

        fn place(&mut self, pos: usize, node: (Time, u64, u32)) {
            self.timer_heap[pos] = node;
            self.timers[node.2 as usize].state = TimerState::Pending(pos as u32);
        }

        pub fn pop(&mut self) -> Option<(Time, Popped<E>)> {
            let timer_first = match (self.heap.peek(), self.timer_heap.first()) {
                (None, None) => return None,
                (Some(Reverse(e)), Some(&(at, seq, _))) => (at, seq) < e.key(),
                (None, Some(_)) => true,
                (Some(_), None) => false,
            };
            let (at, popped) = if timer_first {
                let (at, _, key) = self.timer_heap[0];
                self.remove_pending(0);
                self.timers[key as usize].state = TimerState::Fired(self.fired.len() as u32);
                self.fired.push(key);
                (at, Popped::Timer(key as usize))
            } else {
                let Some(Reverse(Entry { at, payload, .. })) = self.heap.pop() else {
                    unreachable!()
                };
                (at, Popped::Event(payload))
            };
            self.now = at;
            Some((at, popped))
        }
    }
}

/// The calls the executor pattern makes, on either queue.
trait Queue {
    fn new() -> Self;
    fn now(&self) -> Time;
    fn schedule(&mut self, at: Time, payload: u64);
    fn set_timer(&mut self, key: usize, at: Option<Time>);
    fn timers_due(&self, t: Time, out: &mut Vec<usize>);
    fn pop(&mut self) -> Option<(Time, Popped<u64>)>;
}

macro_rules! impl_queue {
    ($ty:ty) => {
        impl Queue for $ty {
            fn new() -> Self {
                <$ty>::new()
            }
            fn now(&self) -> Time {
                <$ty>::now(self)
            }
            fn schedule(&mut self, at: Time, payload: u64) {
                <$ty>::schedule(self, at, payload)
            }
            fn set_timer(&mut self, key: usize, at: Option<Time>) {
                <$ty>::set_timer(self, key, at)
            }
            fn timers_due(&self, t: Time, out: &mut Vec<usize>) {
                <$ty>::timers_due(self, t, out)
            }
            fn pop(&mut self) -> Option<(Time, Popped<u64>)> {
                <$ty>::pop(self)
            }
        }
    };
}

impl_queue!(EventQueue<u64>);
impl_queue!(heap_queue::HeapQueue<u64>);

/// `(keys, depth)`: timer keys, as the executor keys one wake per core,
/// and payload events in flight. 256 keys at the peak depths of
/// `paper_matrix`, `scale_ff` and `wide_chaos`; 8 keys at the depths of
/// an 8-core scenario's step.
const SHAPES: [(usize, usize); 5] = [(256, 160), (256, 1_800), (256, 7_500), (8, 8), (8, 32)];

/// Deterministic pseudo-random stream (xorshift) — identical for both
/// queues.
fn stream(n: usize) -> Vec<u64> {
    let mut x = 0x9e3779b97f4a7c15u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

/// A delay the way the simulator draws them: mostly a message latency of
/// tens of µs, one in eight a task's length of up to 5 ms.
fn delay(x: u64) -> Dur {
    Dur::from_us(if x & 7 == 0 {
        1 + (x >> 8) % 5_000
    } else {
        1 + (x >> 8) % 50
    })
}

/// The executor's per-event pattern at `depth` events in flight plus
/// `keys` timers; returns (ops, checksum). Each round pops, lists the due
/// keys, re-sends a popped event or re-arms a fired key, and moves one
/// key's timer.
fn churn<Q: Queue>((keys, depth): (usize, usize), rounds: usize, xs: &[u64]) -> (usize, u64) {
    let mut q = Q::new();
    let (mut sum, mut due) = (0u64, Vec::new());
    for (i, &x) in xs[..depth].iter().enumerate() {
        q.schedule(Time::ZERO + delay(x), i as u64);
    }
    for (key, &x) in xs[..keys].iter().enumerate() {
        q.set_timer(key, Some(Time::ZERO + delay(x >> 3)));
    }
    for &x in &xs[depth..depth + rounds] {
        let (t, popped) = q.pop().expect("the queue never drains");
        q.timers_due(t, &mut due);
        sum = sum
            .wrapping_mul(31)
            .wrapping_add(t.as_us() ^ due.len() as u64);
        match popped {
            Popped::Event(v) => {
                sum = sum.wrapping_add(v);
                q.schedule(t + delay(x), v);
            }
            Popped::Timer(key) => {
                sum = sum.wrapping_add(key as u64);
                q.set_timer(key, Some(t + delay(x >> 5)));
            }
        }
        let key = (x >> 40) as usize % keys;
        q.set_timer(key, Some(q.now() + delay(x >> 13)));
    }
    (4 * rounds, sum)
}

/// Time `a` and `b` in alternating passes after one warm-up pass each, so
/// a host slowdown hits both; returns each one's best ops/sec and its
/// checksum.
fn measure_pair(a: impl Fn() -> (usize, u64), b: impl Fn() -> (usize, u64)) -> [(f64, u64); 2] {
    let mut best = [a(), b()].map(|(_, sum)| (0.0f64, sum));
    for _ in 0..5 {
        for (i, f) in [&a as &dyn Fn() -> (usize, u64), &b]
            .into_iter()
            .enumerate()
        {
            let t0 = Instant::now();
            let (ops, sum) = f();
            assert_eq!(sum, best[i].1, "a pass is deterministic");
            best[i].0 = best[i].0.max(ops as f64 / t0.elapsed().as_secs_f64());
        }
    }
    best
}

/// Time both queues at every shape; gate the radix queue at ≥ 1.0× the
/// heap at each.
fn shapes(s: &Settings) -> Record {
    let rounds = if s.fast { 200_000 } else { 1_000_000 };
    let deepest = SHAPES
        .iter()
        .map(|&(_, depth)| depth)
        .max()
        .expect("a shape");
    let xs = stream(rounds + deepest);
    let mut record = Record::new("event_queue", s.fast, 1).metric("rounds", rounds);
    for (keys, depth) in SHAPES {
        let [(radix, c1), (heap, c2)] = measure_pair(
            || churn::<EventQueue<u64>>((keys, depth), rounds, &xs),
            || churn::<heap_queue::HeapQueue<u64>>((keys, depth), rounds, &xs),
        );
        assert_eq!(
            c1, c2,
            "{keys} keys, depth {depth}: both queues must fire the same sequence"
        );
        println!(
            "{keys:>3} keys, depth {depth:>5}: radix {:.2} Mops/s vs heap {:.2} Mops/s ({:.2}x)",
            radix / 1e6,
            heap / 1e6,
            radix / heap
        );
        let shape = format!("{keys}x{depth}");
        record = record
            .metric(&format!("radix_ops_per_sec.{shape}"), radix)
            .metric(&format!("heap_ops_per_sec.{shape}"), heap)
            .gate(&format!("speedup.{shape}"), radix / heap, Dir::Min, 1.0);
    }
    record
}

fn main() {
    baseline::run("EventQueue microbench — radix heap vs binary heap", shapes);
}
