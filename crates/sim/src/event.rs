//! Deterministic discrete-event queue.
//!
//! A thin priority queue over `(time, sequence)` pairs. Ties at the same
//! virtual instant pop in insertion (FIFO) order, which makes whole-cluster
//! simulations bit-for-bit reproducible regardless of hash-map iteration or
//! allocation order elsewhere.
//!
//! # Storage
//!
//! This is the hottest structure in the repo: every simulated message,
//! interference action and LB step passes through it. Payload events live
//! inline in one binary heap, ordered on `(time, seq)` alone, so the
//! schedule/pop cycle is one heap push and one heap pop — no hashing, no
//! side table, no per-event allocation once the heap has warmed up. A
//! single event is never withdrawn: the only removal besides a pop is
//! [`EventQueue::discard_events`], which drops every pending payload event
//! at once (the fast-forward engine does, when it replays a window whose
//! in-flight ghosts are baked into its template). So an event needs no
//! handle, and the heap never holds an entry that is not pending.
//!
//! # Timers
//!
//! Besides payload events the queue holds at most one *timer* per key
//! (the executor keys them by core: "this core completes something at
//! `t`"). Pending timers live in an indexed min-heap, so moving one is a
//! sift in place. Setting a timer takes the next sequence number exactly
//! as scheduling an event does, and [`EventQueue::pop`] fires events and
//! timers together in one `(time, seq)` order; the counters (`len`,
//! `total_popped`, the peaks) count a pending timer as one event. A timer
//! that fired keeps its instant until it is set to another one, and stays
//! *due* ([`EventQueue::timers_due`]) until then.

use crate::time::Time;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A pending payload event. It orders on `(at, seq)` only; `seq` is
/// unique, so the payload never takes part in an ordering decision.
#[derive(Debug)]
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

/// What [`EventQueue::pop`] fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popped<E> {
    /// A payload event.
    Event(E),
    /// The timer of this key.
    Timer(usize),
}

/// Where a key's timer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerState {
    /// Not set.
    Clear,
    /// Pending, at this position of the timer heap.
    Pending(u32),
    /// Fired and not set since, at this position of the fired list.
    Fired(u32),
}

/// A key's timer: its state and the instant it is set to.
#[derive(Debug, Clone, Copy)]
struct Timer {
    state: TimerState,
    at: Time,
}

/// Deterministic event queue with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Min-heap of the pending payload events.
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    now: Time,
    /// Lifetime counters for perf baselines.
    popped: u64,
    peak_live: usize,
    /// High-water mark of pending entries since the last [`EventQueue::mark_window`].
    window_peak: usize,
    /// Min-heap of pending timers as `(time, seq, key)`, indexed by the
    /// keys' [`TimerState::Pending`] positions.
    timer_heap: Vec<(Time, u64, u32)>,
    /// Per key.
    timers: Vec<Timer>,
    /// Keys whose timer fired and has not been set since.
    fired: Vec<u32>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue with the clock at [`Time::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Time::ZERO,
            popped: 0,
            peak_live: 0,
            window_peak: 0,
            timer_heap: Vec::new(),
            timers: Vec::new(),
            fired: Vec::new(),
        }
    }

    /// Current virtual time — the timestamp of the last popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `payload` at instant `at`. Scheduling in the past (before
    /// `now`) is a logic error and panics in debug builds; in release it
    /// clamps to `now` to keep time monotonic.
    pub fn schedule(&mut self, at: Time, payload: E) {
        debug_assert!(at >= self.now, "scheduling into the past: {at:?} < {:?}", self.now);
        let at = at.max(self.now);
        let seq = self.take_seq();
        self.heap.push(Reverse(Entry { at, seq, payload }));
        self.raise_peaks();
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn raise_peaks(&mut self) {
        let live = self.len();
        self.peak_live = self.peak_live.max(live);
        self.window_peak = self.window_peak.max(live);
    }

    /// Set `key`'s timer to fire at `at`, or clear it with `None`. Setting
    /// the instant it already holds (pending or fired) is a no-op;
    /// otherwise a pending timer is withdrawn and the new one takes the
    /// next sequence number, as if it were scheduled afresh.
    /// Like [`EventQueue::schedule`], an instant before `now` is a logic
    /// error (debug) and fires at `now` (release).
    pub fn set_timer(&mut self, key: usize, at: Option<Time>) {
        if key >= self.timers.len() {
            self.timers.resize(key + 1, Timer { state: TimerState::Clear, at: Time::ZERO });
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
            debug_assert!(at >= self.now, "timer in the past: {at:?} < {:?}", self.now);
            let seq = self.take_seq();
            self.timers[key].at = at;
            self.timer_heap.push((at.max(self.now), seq, key as u32));
            self.sift_up(self.timer_heap.len() - 1);
            self.raise_peaks();
        }
    }

    /// The instant `key`'s timer is set to, pending or fired.
    pub fn timer(&self, key: usize) -> Option<Time> {
        let timer = self.timers.get(key)?;
        (timer.state != TimerState::Clear).then_some(timer.at)
    }

    /// Keys whose timer is due at `t` into `out` (cleared first), in no
    /// particular order: every fired timer, and every pending one at or
    /// before `t`.
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

    /// Every pending timer as `(key, time)`, in no particular order.
    pub fn pending_timers(&self) -> impl Iterator<Item = (usize, Time)> + '_ {
        self.timer_heap.iter().map(|&(at, _, key)| (key as usize, at))
    }

    /// Take the pending timer at heap position `pos` out of the heap; its
    /// key's state is left for the caller to set.
    fn remove_pending(&mut self, pos: usize) {
        self.timer_heap.swap_remove(pos);
        if pos < self.timer_heap.len() {
            let pos = self.sift_up(pos);
            self.sift_down(pos);
        }
    }

    /// Place the node at `pos` (whose key's position may be stale) where
    /// it belongs at or above `pos`; returns where it landed.
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

    /// Place the node at `pos` where it belongs at or below `pos`.
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

    /// Pop the earliest pending event or timer, advancing the clock to its
    /// timestamp. A popped timer stays set, as fired (see
    /// [`EventQueue::timers_due`]).
    pub fn pop(&mut self) -> Option<(Time, Popped<E>)> {
        let timer_first = match (self.heap.peek(), self.timer_heap.first()) {
            (None, None) => return None,
            (Some(Reverse(e)), Some(&(at, seq, _))) => (at, seq) < e.key(),
            (None, Some(_)) => true,
            (Some(_), None) => false,
        };
        let (at, popped) = if timer_first {
            self.pop_timer()
        } else {
            let Some(Reverse(Entry { at, payload, .. })) = self.heap.pop() else { unreachable!() };
            (at, Popped::Event(payload))
        };
        self.popped += 1;
        self.now = at;
        Some((at, popped))
    }

    fn pop_timer(&mut self) -> (Time, Popped<E>) {
        let (at, _, key) = self.timer_heap[0];
        self.remove_pending(0);
        self.timers[key as usize].state = TimerState::Fired(self.fired.len() as u32);
        self.fired.push(key);
        (at, Popped::Timer(key as usize))
    }

    /// Drop every pending payload event, un-popped, and return how many
    /// there were. Timers stay as they are; no sequence number is taken
    /// and no counter but [`EventQueue::len`] changes.
    pub fn discard_events(&mut self) -> usize {
        let n = self.heap.len();
        self.heap.clear();
        n
    }

    /// Number of pending events and timers.
    pub fn len(&self) -> usize {
        self.heap.len() + self.timer_heap.len()
    }

    /// `true` when no events or timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sequence number the next [`EventQueue::schedule`] or timer set
    /// will take: every entry scheduled from now on orders after every
    /// entry scheduled before, at the same instant.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Total events popped (fired) over the queue's lifetime.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// High-water mark of pending events.
    pub fn peak_depth(&self) -> usize {
        self.peak_live
    }

    /// Start a fresh windowed high-water mark at the current pending count.
    /// [`EventQueue::window_peak`] then reports the max pending count
    /// reached since this call. Used by the fast-forward engine to measure
    /// how much a steady-state window raises queue depth above its
    /// starting level.
    pub fn mark_window(&mut self) {
        self.window_peak = self.len();
    }

    /// Max pending count since the last [`EventQueue::mark_window`] (or
    /// since construction, if never marked).
    pub fn window_peak(&self) -> usize {
        self.window_peak
    }

    /// Raise the lifetime high-water mark to at least `candidate` without
    /// scheduling anything. The fast-forward engine uses this to account
    /// for the queue depth the skipped events *would* have reached, so
    /// `peak_depth` stays bit-identical to a run that popped them all.
    pub fn raise_peak(&mut self, candidate: usize) {
        self.peak_live = self.peak_live.max(candidate);
    }

    /// Every pending payload event as `(time, seq, payload)`, in no
    /// particular order; sort by `seq` for a FIFO-consistent view. Timers
    /// are not included (see [`EventQueue::pending_timers`]).
    pub fn events(&self) -> impl Iterator<Item = (Time, u64, &E)> + '_ {
        self.heap.iter().map(|Reverse(e)| (e.at, e.seq, &e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    fn pop_event<E: std::fmt::Debug>(q: &mut EventQueue<E>) -> E {
        match q.pop() {
            Some((_, Popped::Event(e))) => e,
            other => panic!("expected an event, got {other:?}"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_us(30), "c");
        q.schedule(Time::from_us(10), "a");
        q.schedule(Time::from_us(20), "b");
        assert_eq!(pop_event(&mut q), "a");
        assert_eq!(pop_event(&mut q), "b");
        assert_eq!(pop_event(&mut q), "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_us(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        for i in 0..10 {
            assert_eq!(pop_event(&mut q), i);
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_us(100), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_us(100));
    }

    #[test]
    fn schedule_relative_pattern() {
        let mut q = EventQueue::new();
        q.schedule(Time::ZERO + Dur::from_ms(1), 1u32);
        let (t, _) = q.pop().unwrap();
        q.schedule(t + Dur::from_ms(1), 2u32);
        let (t2, v) = q.pop().unwrap();
        assert_eq!(v, Popped::Event(2));
        assert_eq!(t2, Time::from_us(2_000));
    }

    #[test]
    fn len_and_is_empty_track_pops_and_discards() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Time::from_us(1), ());
        q.schedule(Time::from_us(2), ());
        q.set_timer(0, Some(Time::from_us(3)));
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        assert_eq!(q.discard_events(), 1);
        assert_eq!(q.len(), 1, "the timer stays");
        assert_eq!(q.pop(), Some((Time::from_us(3), Popped::Timer(0))));
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert_eq!(q.discard_events(), 0);
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        for i in 0..6 {
            q.schedule(Time::from_us(i), i);
        }
        assert_eq!((q.next_seq(), q.peak_depth()), (6, 6));
        q.pop();
        q.pop();
        assert_eq!(q.discard_events(), 4);
        assert!(q.pop().is_none());
        assert_eq!(q.total_popped(), 2, "discarded events never pop");
        assert_eq!(q.peak_depth(), 6, "peak is a high-water mark");
        assert_eq!(q.next_seq(), 6, "discarding takes no seq");
    }

    #[test]
    fn window_peak_tracks_since_mark() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.schedule(Time::from_us(10 + i), i);
        }
        assert_eq!(q.window_peak(), 4);
        q.pop();
        q.pop();
        q.mark_window(); // len = 2
        assert_eq!(q.window_peak(), 2);
        q.schedule(Time::from_us(50), 9);
        assert_eq!(q.window_peak(), 3);
        q.pop();
        assert_eq!(q.window_peak(), 3, "window peak is a high-water mark");
        q.discard_events();
        assert_eq!(q.window_peak(), 3, "discarding lowers no mark");
        // The lifetime peak is unaffected by marking.
        assert_eq!(q.peak_depth(), 4);
        q.raise_peak(17);
        assert_eq!(q.peak_depth(), 17);
        q.raise_peak(3);
        assert_eq!(q.peak_depth(), 17, "raise_peak never lowers the mark");
    }

    #[test]
    fn events_sees_exactly_the_pending_events() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_us(10), "a");
        q.schedule(Time::from_us(5), "b");
        q.set_timer(4, Some(Time::from_us(30)));
        q.schedule(Time::from_us(20), "c");
        q.pop(); // pops "b"
        let mut live: Vec<_> = q.events().map(|(t, seq, &p)| (t, seq, p)).collect();
        live.sort_by_key(|&(_, seq, _)| seq);
        assert_eq!(live, vec![(Time::from_us(10), 0, "a"), (Time::from_us(20), 3, "c")]);
        assert_eq!(q.discard_events(), 2);
        assert_eq!(q.events().count(), 0);
        assert_eq!(q.pop(), Some((Time::from_us(30), Popped::Timer(4))));
    }

    #[test]
    fn timers_and_events_pop_in_one_seq_order() {
        let mut q = EventQueue::new();
        let t = Time::from_us(5);
        q.schedule(t, "a");
        q.set_timer(3, Some(t));
        q.schedule(t, "b");
        q.set_timer(1, Some(Time::from_us(2)));
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((Time::from_us(2), Popped::Timer(1))));
        assert_eq!(q.pop(), Some((t, Popped::Event("a"))));
        assert_eq!(q.pop(), Some((t, Popped::Timer(3))));
        assert_eq!(q.pop(), Some((t, Popped::Event("b"))));
        assert!(q.pop().is_none());
        assert_eq!((q.total_popped(), q.peak_depth()), (4, 4));
    }

    #[test]
    fn moving_a_timer_takes_a_fresh_seq_and_setting_it_unchanged_does_not() {
        let mut q = EventQueue::new();
        let t = Time::from_us(7);
        q.set_timer(0, Some(t));
        q.schedule(t, "x");
        q.set_timer(0, Some(t)); // unchanged: keeps its place before "x"
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_seq(), 2, "only the first set and the schedule took a seq");
        assert_eq!(q.pop(), Some((t, Popped::Timer(0))));
        q.set_timer(0, Some(Time::from_us(9)));
        q.set_timer(0, Some(t)); // moved back: now behind "x"
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t, Popped::Event("x"))));
        assert_eq!(q.pop(), Some((t, Popped::Timer(0))));
        assert_eq!(q.next_seq(), 4);
        q.set_timer(0, None);
        assert!(q.is_empty() && q.timer(0).is_none());
        assert_eq!(q.next_seq(), 4, "clearing takes no seq");
    }

    #[test]
    fn fired_timers_stay_due_until_set_again() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.set_timer(2, Some(Time::from_us(4)));
        q.set_timer(5, Some(Time::from_us(4)));
        q.set_timer(6, Some(Time::from_us(9)));
        let mut due = Vec::new();
        q.timers_due(Time::from_us(3), &mut due);
        assert!(due.is_empty());
        q.timers_due(Time::from_us(4), &mut due);
        due.sort_unstable();
        assert_eq!(due, vec![2, 5]);
        assert_eq!(q.pop(), Some((Time::from_us(4), Popped::Timer(2))));
        assert_eq!(q.timer(2), Some(Time::from_us(4)));
        assert!(q.pending_timers().all(|(key, _)| key != 2), "fired, not pending");
        q.set_timer(2, Some(Time::from_us(4))); // fired, unchanged
        q.timers_due(Time::from_us(8), &mut due);
        due.sort_unstable();
        assert_eq!(due, vec![2, 5], "a fired timer stays due");
        q.set_timer(2, Some(Time::from_us(12)));
        q.timers_due(Time::from_us(8), &mut due);
        assert_eq!(due, vec![5]);
        assert_eq!(q.pending_timers().count(), 3);
    }

    #[test]
    fn timer_churn_keeps_the_heap_indexed() {
        let mut q: EventQueue<()> = EventQueue::new();
        let mut rng = crate::rng::SimRng::new(0x71E5);
        let mut want: Vec<Option<Time>> = vec![None; 32];
        for round in 0..20_000 {
            let key = rng.below(32) as usize;
            let at = (rng.below(4) != 0).then(|| q.now() + Dur::from_us(rng.below(500)));
            q.set_timer(key, at);
            want[key] = at;
            if round % 3 == 0 {
                if let Some((t, Popped::Timer(k))) = q.pop() {
                    assert_eq!(want[k], Some(t));
                    let earliest = q.pending_timers().map(|(_, at)| at).min();
                    assert!(earliest.is_none_or(|e| e >= t));
                    want[k] = None;
                    q.set_timer(k, None);
                }
            }
        }
        assert_eq!(q.len(), want.iter().flatten().count());
    }
}
