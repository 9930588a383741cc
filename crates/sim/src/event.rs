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
//! wake-up, interference action and LB step passes through it. Payloads
//! live in a slab (`Vec`-indexed slots recycled through a free-list), so
//! the schedule/pop cycle costs two array writes and a heap push/pop — no
//! hashing, no per-event allocation once the slab has warmed up. Each heap
//! node carries its slot index; cancellation empties the slot and leaves
//! the heap node behind to be skipped lazily on pop. When stale nodes
//! outnumber live events the heap is compacted in one O(n) pass, so
//! cancel-heavy workloads keep the heap proportional to the live event
//! count.
//!
//! # Timers
//!
//! Besides payload events the queue holds at most one *timer* per key
//! (the executor keys them by core: "this core completes something at
//! `t`"). Pending timers live in an indexed min-heap, so moving one is a
//! sift in place — no cancel tombstone, no slab slot, no handle. Setting a
//! timer takes the next sequence number exactly as scheduling an event
//! does, and [`EventQueue::pop`] fires events and timers together in one
//! `(time, seq)` order; the counters (`len`, `total_popped`, the peaks)
//! count a pending timer as one event. A timer that fired keeps its
//! instant until it is set to another one, and stays *due*
//! ([`EventQueue::timers_due`]) until then.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Handle to a scheduled event, as returned by [`EventQueue::schedule`].
///
/// Handles are invalidated by [`EventQueue::cancel`] and by the event
/// firing; a stale handle (including one whose slot has been recycled for
/// a newer event) cancels nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    slot: u32,
    seq: u64,
}

/// One slab slot. `seq` identifies the current (or last) occupant so stale
/// heap nodes and stale handles can be recognized; `payload` is `None`
/// while the slot sits on the free-list.
#[derive(Debug)]
struct Slot<E> {
    seq: u64,
    at: Time,
    payload: Option<E>,
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
    /// Min-heap over `(time, seq, slot)`. `seq` is globally unique, so the
    /// slot index never participates in an ordering decision.
    heap: BinaryHeap<Reverse<(Time, u64, u32)>>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u64,
    now: Time,
    /// Live (scheduled, not yet popped or cancelled) events.
    live: usize,
    /// Lifetime counters for perf baselines.
    scheduled: u64,
    popped: u64,
    peak_live: usize,
    /// High-water mark of live events since the last [`EventQueue::mark_window`].
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
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: Time::ZERO,
            live: 0,
            scheduled: 0,
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
    pub fn schedule(&mut self, at: Time, payload: E) -> EventHandle {
        debug_assert!(at >= self.now, "scheduling into the past: {at:?} < {:?}", self.now);
        let at = at.max(self.now);
        let seq = self.take_seq();
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Slot { seq, at, payload: Some(payload) };
                slot
            }
            None => {
                self.slots.push(Slot { seq, at, payload: Some(payload) });
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((at, seq, slot)));
        self.count_scheduled();
        EventHandle { slot, seq }
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn count_scheduled(&mut self) {
        self.live += 1;
        self.scheduled += 1;
        self.peak_live = self.peak_live.max(self.live);
        self.window_peak = self.window_peak.max(self.live);
    }

    /// Set `key`'s timer to fire at `at`, or clear it with `None`. Setting
    /// the instant it already holds (pending or fired) is a no-op;
    /// otherwise a pending timer is withdrawn and the new one takes the
    /// next sequence number, as a cancel followed by a `schedule` would.
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
            TimerState::Pending(pos) => {
                self.remove_pending(pos as usize);
                self.live -= 1;
            }
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
            self.count_scheduled();
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

    /// Cancel a previously scheduled event by the handle `schedule`
    /// returned. Returns the payload if it had not fired yet. The stale
    /// heap node is skipped lazily on pop, or swept by compaction once
    /// stale nodes outnumber live events.
    pub fn cancel(&mut self, handle: EventHandle) -> Option<E> {
        let slot = self.slots.get_mut(handle.slot as usize)?;
        if slot.seq != handle.seq {
            return None; // the slot has been recycled for a newer event
        }
        let payload = slot.payload.take()?;
        self.free.push(handle.slot);
        self.live -= 1;
        self.maybe_compact();
        Some(payload)
    }

    /// Pop the earliest pending event or timer, advancing the clock to its
    /// timestamp. A popped timer stays set, as fired (see
    /// [`EventQueue::timers_due`]).
    pub fn pop(&mut self) -> Option<(Time, Popped<E>)> {
        let event = self.peek_event();
        let timer = self.timer_heap.first().map(|&(at, seq, _)| (at, seq));
        let (at, popped) = match (event, timer) {
            (None, None) => return None,
            (Some(e), Some(t)) if t < e => self.pop_timer(),
            (None, Some(_)) => self.pop_timer(),
            _ => {
                let Some(Reverse((at, _, slot))) = self.heap.pop() else { unreachable!() };
                let payload = self.slots[slot as usize].payload.take().expect("live slot");
                self.free.push(slot);
                (at, Popped::Event(payload))
            }
        };
        self.live -= 1;
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

    /// `(time, seq)` of the earliest live payload event, discarding the
    /// stale (cancelled) heap nodes above it.
    fn peek_event(&mut self) -> Option<(Time, u64)> {
        while let Some(&Reverse((at, seq, slot))) = self.heap.peek() {
            let entry = &self.slots[slot as usize];
            if entry.seq == seq && entry.payload.is_some() {
                return Some((at, seq));
            }
            self.heap.pop();
        }
        None
    }

    /// Timestamp of the earliest pending event or timer without popping it.
    pub fn peek_time(&mut self) -> Option<Time> {
        let event = self.peek_event().map(|(at, _)| at);
        let timer = self.timer_heap.first().map(|&(at, ..)| at);
        event.into_iter().chain(timer).min()
    }

    /// Number of live (non-cancelled) pending events and timers.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total events scheduled over the queue's lifetime.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
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

    /// High-water mark of live pending events.
    pub fn peak_depth(&self) -> usize {
        self.peak_live
    }

    /// Start a fresh windowed high-water mark at the current live count.
    /// [`EventQueue::window_peak`] then reports the max live count reached
    /// since this call. Used by the fast-forward engine to measure how much
    /// a steady-state window raises queue depth above its starting level.
    pub fn mark_window(&mut self) {
        self.window_peak = self.live;
    }

    /// Max live count since the last [`EventQueue::mark_window`] (or since
    /// construction, if never marked).
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

    /// Iterate over every live (scheduled, not yet popped or cancelled)
    /// payload event as `(handle, time, seq, payload)`, in slab order —
    /// *not* pop order; sort by `seq` for FIFO-consistent views. The handle
    /// can be passed to [`EventQueue::cancel`]. Timers are not included
    /// (see [`EventQueue::pending_timers`]).
    pub fn iter_live(&self) -> impl Iterator<Item = (EventHandle, Time, u64, &E)> + '_ {
        self.slots.iter().enumerate().filter_map(|(slot, s)| {
            s.payload
                .as_ref()
                .map(|p| (EventHandle { slot: slot as u32, seq: s.seq }, s.at, s.seq, p))
        })
    }

    /// Event-heap nodes currently allocated, live *and* stale. Exposed so the
    /// compaction regression test can assert cancel churn stays bounded.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Rebuild the heap without stale nodes once they outnumber the live
    /// events. Amortized O(1) per cancel: a rebuild costs O(n) and at
    /// least n/2 cancels must happen before the next one.
    fn maybe_compact(&mut self) {
        let events = self.live - self.timer_heap.len();
        if self.heap.len() > 16 && self.heap.len() - events > events {
            let slots = &self.slots;
            self.heap.retain(|&Reverse((_, seq, slot))| {
                let s = &slots[slot as usize];
                s.seq == seq && s.payload.is_some()
            });
        }
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
    fn fifo_ties_survive_slot_recycling() {
        // Slot indices get scrambled by cancels, but ties must still pop
        // in schedule order (the heap orders on seq, not slot).
        let mut q = EventQueue::new();
        let t = Time::from_us(5);
        let warm: Vec<_> = (0..8).map(|i| q.schedule(t, i)).collect();
        for h in warm {
            q.cancel(h);
        }
        for i in 100..110 {
            q.schedule(t, i);
        }
        for i in 100..110 {
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
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let h = q.schedule(Time::from_us(10), "x");
        q.schedule(Time::from_us(20), "y");
        assert_eq!(q.cancel(h), Some("x"));
        assert_eq!(q.cancel(h), None);
        assert_eq!(q.len(), 1);
        assert_eq!(pop_event(&mut q), "y");
    }

    #[test]
    fn stale_handle_to_recycled_slot_cancels_nothing() {
        let mut q = EventQueue::new();
        let h = q.schedule(Time::from_us(10), "old");
        assert_eq!(q.cancel(h), Some("old"));
        // The freed slot is recycled for a new event; the old handle must
        // not be able to cancel the new occupant.
        let h2 = q.schedule(Time::from_us(20), "new");
        assert_eq!(h.slot, h2.slot, "slot should be recycled");
        assert_eq!(q.cancel(h), None);
        assert_eq!(pop_event(&mut q), "new");
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.schedule(Time::from_us(10), 1);
        q.schedule(Time::from_us(25), 2);
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(Time::from_us(25)));
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
    fn len_and_is_empty_track_cancellations() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        let h = q.schedule(Time::from_us(1), ());
        assert_eq!(q.len(), 1);
        q.cancel(h);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..6).map(|i| q.schedule(Time::from_us(i), i)).collect();
        assert_eq!(q.total_scheduled(), 6);
        assert_eq!(q.peak_depth(), 6);
        q.cancel(handles[0]);
        while q.pop().is_some() {}
        assert_eq!(q.total_popped(), 5);
        assert_eq!(q.peak_depth(), 6, "peak is a high-water mark");
    }

    #[test]
    fn heavy_cancel_churn_keeps_the_heap_compact() {
        // The wake-reschedule pattern: every event that fires causes the
        // cancellation of another pending one. Without compaction the heap
        // (and its stale nodes) grows linearly with the total number of
        // schedules; with it, the heap stays proportional to live events.
        let mut q = EventQueue::new();
        let live = 64usize;
        let mut handles: Vec<EventHandle> = (0..live as u64)
            .map(|i| q.schedule(Time::from_us(10 + i), i))
            .collect();
        for round in 0..10_000u64 {
            let at = Time::from_us(1_000_000 + round);
            let victim = (round as usize * 7) % handles.len();
            q.cancel(handles[victim]);
            handles[victim] = q.schedule(at, round);
        }
        assert_eq!(q.len(), live);
        assert!(
            q.heap_len() <= 2 * live + 1,
            "heap grew to {} nodes for {} live events",
            q.heap_len(),
            live
        );
        // The slab recycles slots rather than growing with churn.
        assert!(q.slots.len() <= 2 * live + 1, "slab grew to {}", q.slots.len());
        // And the queue still drains correctly, in time order.
        let mut last = Time::ZERO;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            n += 1;
        }
        assert_eq!(n, live);
    }

    #[test]
    fn window_peak_tracks_since_mark() {
        let mut q = EventQueue::new();
        let hs: Vec<_> = (0..4).map(|i| q.schedule(Time::from_us(10 + i), i)).collect();
        assert_eq!(q.window_peak(), 4);
        q.cancel(hs[0]);
        q.cancel(hs[1]);
        q.mark_window(); // live = 2
        assert_eq!(q.window_peak(), 2);
        q.schedule(Time::from_us(50), 9);
        assert_eq!(q.window_peak(), 3);
        q.pop();
        assert_eq!(q.window_peak(), 3, "window peak is a high-water mark");
        // The lifetime peak is unaffected by marking.
        assert_eq!(q.peak_depth(), 4);
        q.raise_peak(17);
        assert_eq!(q.peak_depth(), 17);
        q.raise_peak(3);
        assert_eq!(q.peak_depth(), 17, "raise_peak never lowers the mark");
    }

    #[test]
    fn iter_live_sees_exactly_the_pending_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time::from_us(10), "a");
        let b = q.schedule(Time::from_us(5), "b");
        q.schedule(Time::from_us(20), "c");
        q.cancel(b);
        q.pop(); // pops "a"
        let mut live: Vec<_> = q.iter_live().map(|(_, t, seq, &p)| (t, seq, p)).collect();
        live.sort_by_key(|&(_, seq, _)| seq);
        assert_eq!(live, vec![(Time::from_us(20), 2, "c")]);
        // Returned handles are cancellable.
        let (h, _, _, _) = q.iter_live().next().unwrap();
        assert_eq!(q.cancel(h), Some("c"));
        assert!(q.is_empty());
        assert_eq!(q.cancel(a), None, "popped events yield stale handles");
    }

    #[test]
    fn cancel_all_then_reschedule_drains_clean() {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..100u64).map(|i| q.schedule(Time::from_us(i), i)).collect();
        for h in handles {
            assert!(q.cancel(h).is_some());
        }
        assert!(q.is_empty());
        q.schedule(Time::from_us(500), 999);
        assert_eq!(pop_event(&mut q), 999);
        assert!(q.pop().is_none());
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
        assert_eq!(q.peek_time(), Some(Time::from_us(2)));
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
