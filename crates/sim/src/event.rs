//! Deterministic discrete-event queue.
//!
//! A priority queue over `(time, sequence)` pairs. Ties at the same
//! virtual instant pop in insertion (FIFO) order, which makes whole-cluster
//! simulations bit-for-bit reproducible regardless of hash-map iteration or
//! allocation order elsewhere.
//!
//! # Storage
//!
//! This is the hottest structure in the repo: every simulated message,
//! interference action, LB step and core wake passes through it. Simulated
//! time never goes backwards, so the queue is a monotone radix heap keyed
//! on µs time (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990) behind a level
//! of exact-instant slots. Its base is the clock, `now`. An entry at `now`
//! sits in the *current* list. A later entry in the same 64-µs block as
//! `now` (it differs from `now` only in bits 0–5) sits in *slot*
//! `at % 64`, which holds that one instant. Any other entry sits in
//! *bucket* `b`, where `b` (6..63) is the highest bit in which its instant
//! differs from `now`. A schedule is one push. A pop takes the front of
//! the current list. When that is empty, the lowest non-empty *place* is
//! moved into it. Every slot entry is in `now`'s block and every bucket
//! entry is past it, and a lower slot or bucket holds earlier instants, so
//! the slots precede the buckets and an occupancy bitmap over each finds
//! that place with one `trailing_zeros`.
//!
//! A slot is *promoted* whole: the clock moves to its instant and its
//! entries go to the current list, with no minimum to find and no entry
//! placed twice. Moving the clock within the block leaves every other
//! entry where it was. A bucket is *split*: the clock moves to its
//! earliest live instant and each of its entries moves to the current
//! list, a slot or a strictly lower bucket, so an entry moves at most 59
//! times in its life (a handful in practice) and is never compared with
//! another except to find a split's minimum. Most schedules land within a
//! block of `now` (message latencies are tens of µs), so most entries are
//! placed once and promoted once.
//!
//! Every place stays in `seq` order without sorting: a push appends the
//! largest seq yet, and a bucket is split only when every slot and lower
//! bucket is empty, in its own order. So the current list pops in FIFO
//! order.
//!
//! The base never passes the clock, or a later schedule at `now` would
//! land in the wrong place: the clock moves only to a place's earliest
//! *live* entry (see Timers), and a slot or bucket that holds only stale
//! entries is dropped whole.
//!
//! A place fills a chunk of 64 entries in place. When the chunk is full
//! it moves behind the place's earlier full chunks and the place takes an
//! empty one from a pool shared by all places; a promotion or split
//! returns the full chunks to the pool and keeps the emptied one in place.
//! So the queue holds about as many chunks as its live entries fill, plus
//! at most one per place, and allocates nothing once the pool covers its
//! peak: no place keeps more than one chunk of its busiest moment, and no
//! buffer is freed only to be allocated again. A slot that handed its last
//! chunk back too would take one from the pool at its next push: at 8
//! keys and 8–32 events in flight that round trip costs about an eighth
//! of the queue's time.
//!
//! A single event is never withdrawn: the only removal besides a pop is
//! [`EventQueue::discard_events`], which drops every pending payload event
//! at once (the fast-forward engine does, when it replays a window whose
//! in-flight ghosts are baked into its template). So an event needs no
//! handle.
//!
//! # Timers
//!
//! Besides payload events the queue holds at most one *timer* per key
//! (the executor keys them by core: "this core completes something at
//! `t`"). A timer is an entry in the same places, tagged with its key.
//! Setting a timer takes the next sequence number exactly as scheduling an
//! event does and pushes a fresh entry; the key remembers that seq. The
//! entry the timer held before is not looked for: it is left in place,
//! *stale*, and dropped unseen when a pop, promotion or split reaches it. So
//! [`EventQueue::pop`] fires events and live timers together in one
//! `(time, seq)` order, and moving a timer costs one push.
//!
//! The counters see live entries only: `len`, `total_popped`,
//! `peak_depth` and `window_peak` count a pending timer as one event and
//! a stale entry as none. A timer that fired keeps its instant until it is
//! set to another one, and stays *due* ([`EventQueue::timers_due`]) until
//! then. The queue lists the timers that entered the current list and
//! prunes the list whenever the clock moves to the ones that fired and
//! were not set since, so the keys due at `now` are read without a scan of
//! the keys.

use crate::time::Time;
use std::collections::VecDeque;

/// Exact-instant slots: one per µs of a 64-µs block.
const SLOTS: usize = 64;
/// Buckets: one per bit of a µs instant. Buckets 0–5 stay empty: an entry
/// that differs from `now` only in those bits is in a slot.
const BUCKETS: usize = 64;
/// Entries per chunk of place storage (2 KiB of 32-byte entries).
const CHUNK: usize = 64;

/// What a queue entry carries.
#[derive(Debug)]
enum Item<E> {
    /// A payload event.
    Event(E),
    /// A timer of this key; stale unless the key's live seq is the entry's.
    Timer(u32),
}

/// One slot or bucket: its full chunks, then the chunk being filled, all
/// in seq order.
#[derive(Debug)]
struct Place<E> {
    full: Vec<Vec<Entry<E>>>,
    tail: Vec<Entry<E>>,
}

impl<E> Default for Place<E> {
    fn default() -> Self {
        Place { full: Vec::new(), tail: Vec::new() }
    }
}

impl<E> Place<E> {
    fn is_empty(&self) -> bool {
        self.full.is_empty() && self.tail.is_empty()
    }

    fn chunks(&self) -> impl Iterator<Item = &Vec<Entry<E>>> {
        self.full.iter().chain(std::iter::once(&self.tail))
    }

    /// Move the full tail behind the full chunks and take an empty chunk
    /// from `pool`.
    #[cold]
    fn spill(&mut self, pool: &mut Vec<Vec<Entry<E>>>) {
        let fresh = pool.pop().unwrap_or_else(|| Vec::with_capacity(CHUNK));
        self.full.push(std::mem::replace(&mut self.tail, fresh));
    }
}

/// A queued event or timer. Its position in the places orders it.
#[derive(Debug)]
struct Entry<E> {
    at: Time,
    seq: u64,
    item: Item<E>,
}

impl<E> Entry<E> {
    fn event(&self) -> Option<(Time, u64, &E)> {
        match &self.item {
            Item::Event(payload) => Some((self.at, self.seq, payload)),
            Item::Timer(_) => None,
        }
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
    /// Pending: the entry with the timer's seq is live.
    Pending,
    /// Fired and not set since.
    Fired,
}

/// A key's timer: its state, the instant it is set to and the seq its
/// live entry carries.
#[derive(Debug, Clone, Copy)]
struct Timer {
    state: TimerState,
    at: Time,
    seq: u64,
}

/// `true` unless `e` is a timer entry its key has moved on from.
fn live<E>(timers: &[Timer], e: &Entry<E>) -> bool {
    match e.item {
        Item::Event(_) => true,
        Item::Timer(key) => {
            let t = timers[key as usize];
            t.state == TimerState::Pending && t.seq == e.seq
        }
    }
}

/// Keep in `due` only the timers that fired and were not set since: the
/// clock is about to move, and every other timer listed at the old instant
/// has moved already.
fn prune_due(due: &mut Vec<(u32, u64)>, timers: &[Timer]) {
    due.retain(|&(key, seq)| {
        let timer = timers[key as usize];
        timer.state == TimerState::Fired && timer.seq == seq
    });
}

/// Deterministic event queue with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The entries at `now`, in seq order.
    current: VecDeque<Entry<E>>,
    /// `slots[s]`: the entries at instant `s` of `now`'s 64-µs block,
    /// after `now`.
    slots: [Place<E>; SLOTS],
    /// `buckets[b]`: the entries whose instant first differs from `now`
    /// at bit `b` (6..63).
    buckets: [Place<E>; BUCKETS],
    /// Bit `s` of the first word set exactly when `slots[s]` is non-empty,
    /// bit `b` of the second when `buckets[b]` is. Two words, not one
    /// `u128`: its shifts by a variable cost about a tenth of the queue's
    /// time at 8 keys.
    occupied: [u64; 2],
    /// Empty chunks of capacity [`CHUNK`].
    pool: Vec<Vec<Entry<E>>>,
    next_seq: u64,
    now: Time,
    /// Pending payload events.
    events: usize,
    /// Pending timers.
    armed: usize,
    /// Lifetime counters for perf baselines.
    popped: u64,
    peak_live: usize,
    /// High-water mark of pending entries since the last [`EventQueue::mark_window`].
    window_peak: usize,
    /// Per key.
    timers: Vec<Timer>,
    /// `(key, seq)` of every timer entry that entered the current list
    /// since the clock last moved, and of every timer that fired before
    /// and was not set since: a superset of the keys due at `now`.
    due: Vec<(u32, u64)>,
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
            current: VecDeque::new(),
            slots: std::array::from_fn(|_| Place::default()),
            buckets: std::array::from_fn(|_| Place::default()),
            occupied: [0; 2],
            pool: Vec::new(),
            next_seq: 0,
            now: Time::ZERO,
            events: 0,
            armed: 0,
            popped: 0,
            peak_live: 0,
            window_peak: 0,
            timers: Vec::new(),
            due: Vec::new(),
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
        let seq = self.take_seq();
        self.push(Entry { at: at.max(self.now), seq, item: Item::Event(payload) });
        self.events += 1;
        self.raise_peaks();
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Put `e` (at or after `now`) in its place, behind every entry there.
    fn push(&mut self, e: Entry<E>) {
        let diff = e.at.as_us() ^ self.now.as_us();
        if diff == 0 {
            if let Item::Timer(key) = e.item {
                self.due.push((key, e.seq));
            }
            self.current.push_back(e);
            return;
        }
        let place = if diff < SLOTS as u64 {
            let s = (e.at.as_us() % SLOTS as u64) as usize;
            self.occupied[0] |= 1 << s;
            &mut self.slots[s]
        } else {
            let b = 63 - diff.leading_zeros() as usize;
            self.occupied[1] |= 1 << b;
            &mut self.buckets[b]
        };
        if place.tail.len() == CHUNK {
            place.spill(&mut self.pool);
        }
        place.tail.push(e);
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
        let tag = u32::try_from(key).expect("timer keys fit in u32");
        if key >= self.timers.len() {
            let clear = Timer { state: TimerState::Clear, at: Time::ZERO, seq: 0 };
            self.timers.resize(key + 1, clear);
        }
        if self.timer(key) == at {
            return;
        }
        let timer = &mut self.timers[key];
        if timer.state == TimerState::Pending {
            self.armed -= 1;
        }
        // Its entry, if pending, is stale from here on.
        timer.state = TimerState::Clear;
        if let Some(at) = at {
            debug_assert!(at >= self.now, "timer in the past: {at:?} < {:?}", self.now);
            let seq = self.take_seq();
            self.timers[key] = Timer { state: TimerState::Pending, at, seq };
            self.armed += 1;
            self.push(Entry { at: at.max(self.now), seq, item: Item::Timer(tag) });
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
    /// before `t`. At `t == now` this reads the short list of timers that
    /// reached the current list; any other `t` scans every key.
    pub fn timers_due(&self, t: Time, out: &mut Vec<usize>) {
        out.clear();
        let timers = &self.timers;
        if t == self.now {
            let set = |&&(key, seq): &&(u32, u64)| {
                let timer = timers[key as usize];
                timer.state != TimerState::Clear && timer.seq == seq
            };
            out.extend(self.due.iter().filter(set).map(|&(key, _)| key as usize));
        } else {
            let due = |timer: &Timer| match timer.state {
                TimerState::Clear => false,
                TimerState::Pending => timer.at <= t,
                TimerState::Fired => true,
            };
            out.extend(timers.iter().enumerate().filter(|(_, t)| due(t)).map(|(key, _)| key));
        }
    }

    /// Every pending timer as `(key, time)`, in no particular order.
    pub fn pending_timers(&self) -> impl Iterator<Item = (usize, Time)> + '_ {
        let pending = |(key, t): (usize, &Timer)| {
            (t.state == TimerState::Pending).then_some((key, t.at.max(self.now)))
        };
        self.timers.iter().enumerate().filter_map(pending)
    }

    /// Pop the earliest pending event or timer, advancing the clock to its
    /// timestamp. A popped timer stays set, as fired (see
    /// [`EventQueue::timers_due`]).
    pub fn pop(&mut self) -> Option<(Time, Popped<E>)> {
        loop {
            let Some(entry) = self.current.pop_front() else {
                if !self.refill() {
                    return None;
                }
                continue;
            };
            if !live(&self.timers, &entry) {
                continue;
            }
            let popped = match entry.item {
                Item::Event(e) => {
                    self.events -= 1;
                    Popped::Event(e)
                }
                Item::Timer(key) => {
                    self.timers[key as usize].state = TimerState::Fired;
                    self.armed -= 1;
                    Popped::Timer(key as usize)
                }
            };
            self.popped += 1;
            return Some((entry.at, popped));
        }
    }

    /// Refill the (empty) current list from the lowest place holding a
    /// live entry, moving the clock to that place's earliest live instant.
    /// Returns `false`, with the clock unmoved, when nothing live is left.
    fn refill(&mut self) -> bool {
        loop {
            let [slots, buckets] = self.occupied;
            let refilled = if slots != 0 {
                self.promote(slots.trailing_zeros() as usize)
            } else if buckets != 0 {
                self.split(buckets.trailing_zeros() as usize)
            } else {
                return false;
            };
            if refilled {
                // Each key is listed at most once: fired and not set since,
                // or pending with its live entry now in the current list.
                debug_assert!(self.due.len() <= self.timers.len(), "due list not pruned");
                return true;
            }
        }
    }

    /// Move slot `s`'s live entries, all at one instant, to the current
    /// list and the clock to their instant. Returns `false`, with the
    /// clock unmoved, when none is live.
    fn promote(&mut self, s: usize) -> bool {
        self.occupied[0] &= !(1 << s);
        let slot = &mut self.slots[s];
        let timers = &self.timers;
        let mut moved = false;
        for chunk in slot.full.iter_mut().chain([&mut slot.tail]) {
            for e in chunk.drain(..) {
                // A stale entry is dropped: it never moves the clock.
                if !live(timers, &e) {
                    continue;
                }
                if !moved {
                    prune_due(&mut self.due, timers);
                    self.now = e.at;
                    moved = true;
                }
                if let Item::Timer(key) = e.item {
                    self.due.push((key, e.seq));
                }
                self.current.push_back(e);
            }
        }
        // The emptied tail stays; full chunks go back to the pool.
        self.pool.append(&mut slot.full);
        moved
    }

    /// Move bucket `b`'s live entries to lower places and the clock to
    /// their earliest instant. Returns `false`, with the clock unmoved,
    /// when none is live.
    fn split(&mut self, b: usize) -> bool {
        self.occupied[1] &= !(1 << b);
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        let timers = &self.timers;
        let to = bucket.chunks().flatten().filter(|e| live(timers, e)).map(|e| e.at).min();
        if let Some(to) = to {
            prune_due(&mut self.due, timers);
            self.now = to;
        }
        // Every slot and lower bucket is empty, so the entries keep their
        // order.
        for chunk in bucket.full.iter_mut().chain([&mut bucket.tail]) {
            for e in chunk.drain(..) {
                if live(&self.timers, &e) {
                    self.push(e);
                }
            }
        }
        self.pool.append(&mut bucket.full);
        self.buckets[b] = bucket;
        to.is_some()
    }

    /// Drop every pending payload event, un-popped, and return how many
    /// there were. Timers stay as they are; no sequence number is taken
    /// and no counter but [`EventQueue::len`] changes.
    pub fn discard_events(&mut self) -> usize {
        let timers = &self.timers;
        let keep = |e: &Entry<E>| matches!(e.item, Item::Timer(_)) && live(timers, e);
        self.current.retain(keep);
        let levels = [&mut self.slots, &mut self.buckets].into_iter().zip(&mut self.occupied);
        for (places, bits) in levels {
            *bits = 0;
            for (p, place) in places.iter_mut().enumerate() {
                place.full.retain_mut(|chunk| {
                    chunk.retain(keep);
                    !chunk.is_empty()
                });
                place.tail.retain(keep);
                *bits |= u64::from(!place.is_empty()) << p;
            }
        }
        std::mem::take(&mut self.events)
    }

    /// Number of pending events and timers.
    pub fn len(&self) -> usize {
        self.events + self.armed
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
        let later = self.slots.iter().chain(&self.buckets).flat_map(Place::chunks).flatten();
        self.current.iter().chain(later).filter_map(Entry::event)
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
    fn an_entry_with_a_sixteen_byte_payload_is_thirty_two_bytes() {
        // Shaped like the executor's event: `u32` fields behind a tag with
        // spare values, which `Item` folds its own tag into.
        #[allow(dead_code)]
        enum Ev {
            Msg { a: u32, b: u32, c: u32, dup: bool },
            Index(u32),
        }
        assert_eq!(std::mem::size_of::<Entry<Ev>>(), 32);
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
