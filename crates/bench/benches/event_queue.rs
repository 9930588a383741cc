//! MICRO — `EventQueue` slab vs the old HashMap-slot implementation.
//!
//! The simulator's event queue used to park payloads in a
//! `HashMap<u64, Entry>` keyed by sequence number, paying a hash +
//! probe on every schedule, pop, and cancel. The slab rework replaces
//! that with `Vec`-indexed slots and a free-list. This bench vendors a
//! faithful copy of the old queue (below) and measures both on the same
//! deterministic workloads:
//!
//! * `schedule_pop` — interleaved schedule/pop churn at a steady queue
//!   depth, the simulator's hot pattern;
//! * `cancel_churn` — schedule + cancel + reschedule rounds, the pattern
//!   of any event that is withdrawn and re-issued.
//!
//! A third workload covers the executor's wake path:
//!
//! * `timer_churn` — move one pseudo-random key's timer, pop, list the
//!   keys due at the popped instant and re-arm the fired key (the
//!   executor's per-event wake pattern), over 64 keys. It runs once on the
//!   queue's keyed timers and once encoded the way the executor kept its
//!   wakes before timers existed (one cancellable event per key, moved by
//!   cancel + schedule, mirrored in a `BTreeSet` of `(instant, key)` for
//!   the due query); both must fire the same sequence.
//!
//! Results (ops/sec per workload plus the speedups) are serialized to
//! `BENCH_event_queue.json`.

use cloudlb_sim::{EventHandle, EventQueue, Popped, Time};
use std::collections::BTreeSet;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Faithful copy of the pre-slab queue: payloads in a `HashMap` keyed by
/// sequence number, heap of `(time, seq)` pairs.
mod hashmap_queue {
    use cloudlb_sim::Time;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    pub struct HashQueue<E> {
        heap: BinaryHeap<Reverse<(Time, u64)>>,
        slots: HashMap<u64, (Time, E)>,
        next_seq: u64,
        now: Time,
    }

    impl<E> HashQueue<E> {
        pub fn new() -> Self {
            HashQueue {
                heap: BinaryHeap::new(),
                slots: HashMap::new(),
                next_seq: 0,
                now: Time::ZERO,
            }
        }

        pub fn schedule(&mut self, at: Time, payload: E) -> u64 {
            let at = at.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse((at, seq)));
            self.slots.insert(seq, (at, payload));
            seq
        }

        pub fn cancel(&mut self, handle: u64) -> Option<E> {
            self.slots.remove(&handle).map(|(_, p)| p)
        }

        pub fn pop(&mut self) -> Option<(Time, E)> {
            while let Some(Reverse((at, seq))) = self.heap.pop() {
                if let Some((_, payload)) = self.slots.remove(&seq) {
                    self.now = at;
                    return Some((at, payload));
                }
            }
            None
        }
    }
}

/// Throughput record serialized to `BENCH_event_queue.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MicroRecord {
    name: String,
    rounds: usize,
    slab_schedule_pop_ops_per_sec: f64,
    hashmap_schedule_pop_ops_per_sec: f64,
    schedule_pop_speedup: f64,
    slab_cancel_churn_ops_per_sec: f64,
    hashmap_cancel_churn_ops_per_sec: f64,
    cancel_churn_speedup: f64,
    timer_churn_ops_per_sec: f64,
    wake_event_churn_ops_per_sec: f64,
    timer_churn_speedup: f64,
}

/// Deterministic pseudo-random delay stream (xorshift) — identical for
/// both queues.
fn delays(n: usize) -> Vec<u64> {
    let mut x = 0x9e3779b97f4a7c15u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            1 + x % 1000
        })
        .collect()
}

const DEPTH: usize = 64;

/// The popped payload of a queue that only holds events.
fn event<E>(popped: Popped<E>) -> E {
    match popped {
        Popped::Event(e) => e,
        Popped::Timer(key) => unreachable!("no timers set, got key {key}"),
    }
}

/// Interleaved schedule/pop at a steady depth; returns (ops, checksum).
fn slab_schedule_pop(rounds: usize, ds: &[u64]) -> (usize, u64) {
    let mut q: EventQueue<u64> = EventQueue::new();
    for (i, d) in ds.iter().enumerate().take(DEPTH) {
        q.schedule(Time::from_us(*d), i as u64);
    }
    let mut sum = 0u64;
    for d in &ds[DEPTH..DEPTH + rounds] {
        let (t, v) = q.pop().expect("live event");
        let v = event(v);
        sum = sum.wrapping_add(v);
        q.schedule(t + cloudlb_sim::Dur::from_us(*d), v);
    }
    while let Some((_, v)) = q.pop() {
        sum = sum.wrapping_add(event(v));
    }
    (2 * rounds + 2 * DEPTH, sum)
}

fn hashmap_schedule_pop(rounds: usize, ds: &[u64]) -> (usize, u64) {
    let mut q: hashmap_queue::HashQueue<u64> = hashmap_queue::HashQueue::new();
    for (i, d) in ds.iter().enumerate().take(DEPTH) {
        q.schedule(Time::from_us(*d), i as u64);
    }
    let mut sum = 0u64;
    for d in &ds[DEPTH..DEPTH + rounds] {
        let (t, v) = q.pop().expect("live event");
        sum = sum.wrapping_add(v);
        q.schedule(t + cloudlb_sim::Dur::from_us(*d), v);
    }
    while let Some((_, v)) = q.pop() {
        sum = sum.wrapping_add(v);
    }
    (2 * rounds + 2 * DEPTH, sum)
}

/// Schedule + cancel + reschedule churn (the wake-token pattern). Times
/// advance by 1 ms per round so every schedule lands in the future.
fn slab_cancel_churn(rounds: usize, ds: &[u64]) -> (usize, u64) {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut live = 0usize;
    let mut sum = 0u64;
    for (i, d) in ds[..rounds].iter().enumerate() {
        let base = i as u64 * 1000;
        let h = q.schedule(Time::from_us(base + 2_000_000), i as u64);
        sum = sum.wrapping_add(q.cancel(h).expect("live"));
        q.schedule(Time::from_us(base + d), i as u64);
        live += 1;
        if live > DEPTH {
            let (_, v) = q.pop().expect("live event");
            sum = sum.wrapping_add(event(v));
            live -= 1;
        }
    }
    while let Some((_, v)) = q.pop() {
        sum = sum.wrapping_add(event(v));
    }
    (3 * rounds, sum)
}

fn hashmap_cancel_churn(rounds: usize, ds: &[u64]) -> (usize, u64) {
    let mut q: hashmap_queue::HashQueue<u64> = hashmap_queue::HashQueue::new();
    let mut live = 0usize;
    let mut sum = 0u64;
    for (i, d) in ds[..rounds].iter().enumerate() {
        let base = i as u64 * 1000;
        let h = q.schedule(Time::from_us(base + 2_000_000), i as u64);
        sum = sum.wrapping_add(q.cancel(h).expect("live"));
        q.schedule(Time::from_us(base + d), i as u64);
        live += 1;
        if live > DEPTH {
            let (_, v) = q.pop().expect("live event");
            sum = sum.wrapping_add(v);
            live -= 1;
        }
    }
    while let Some((_, v)) = q.pop() {
        sum = sum.wrapping_add(v);
    }
    (3 * rounds, sum)
}

/// Move one key's timer `d` µs past now, pop, list the due keys and
/// re-arm the fired key, for every round; the checksum folds in each fired
/// key and instant and the due count.
fn timer_churn(rounds: usize, ds: &[u64]) -> (usize, u64) {
    let mut q: EventQueue<u64> = EventQueue::new();
    let (mut sum, mut due) = (0u64, Vec::new());
    for (i, d) in ds[..DEPTH].iter().enumerate() {
        q.set_timer(i, Some(Time::from_us(*d)));
    }
    for d in &ds[DEPTH..DEPTH + rounds] {
        let key = (*d as usize * 7) % DEPTH;
        q.set_timer(key, Some(q.now() + cloudlb_sim::Dur::from_us(*d)));
        let (t, Popped::Timer(k)) = q.pop().expect("pending timer") else { unreachable!() };
        q.timers_due(t, &mut due);
        sum = sum.wrapping_add(k as u64 ^ t.as_us()).wrapping_add(due.len() as u64);
        q.set_timer(k, Some(t + cloudlb_sim::Dur::from_us(1 + d % 997)));
    }
    (3 * rounds, sum)
}

/// [`timer_churn`] with each timer encoded as a cancellable event plus a
/// `BTreeSet` mirror.
fn wake_event_churn(rounds: usize, ds: &[u64]) -> (usize, u64) {
    let mut q: EventQueue<usize> = EventQueue::new();
    let mut wake: Vec<Option<(EventHandle, Time)>> = vec![None; DEPTH];
    let mut mirror: BTreeSet<(Time, usize)> = BTreeSet::new();
    let mut sum = 0u64;
    let mut set = |q: &mut EventQueue<usize>, mirror: &mut BTreeSet<_>, key: usize, at: Time| {
        if let Some((h, old)) = wake[key] {
            if old == at {
                return;
            }
            q.cancel(h);
            mirror.remove(&(old, key));
        }
        mirror.insert((at, key));
        wake[key] = Some((q.schedule(at, key), at));
    };
    for (i, d) in ds[..DEPTH].iter().enumerate() {
        set(&mut q, &mut mirror, i, Time::from_us(*d));
    }
    for d in &ds[DEPTH..DEPTH + rounds] {
        let key = (*d as usize * 7) % DEPTH;
        let at = q.now() + cloudlb_sim::Dur::from_us(*d);
        set(&mut q, &mut mirror, key, at);
        let (t, k) = q.pop().expect("pending wake");
        let k = event(k);
        let due = mirror.range(..=(t, usize::MAX)).count();
        sum = sum.wrapping_add(k as u64 ^ t.as_us()).wrapping_add(due as u64);
        set(&mut q, &mut mirror, k, t + cloudlb_sim::Dur::from_us(1 + d % 997));
    }
    (3 * rounds, sum)
}

/// Time `f`, returning (ops/sec, checksum). Runs once warm-up, then the
/// measured pass.
fn measure(f: impl Fn() -> (usize, u64)) -> (f64, u64) {
    let _ = f(); // warm-up
    let t0 = Instant::now();
    let (ops, sum) = f();
    (ops as f64 / t0.elapsed().as_secs_f64(), sum)
}

fn main() {
    let fast = std::env::var("CLOUDLB_FAST").is_ok_and(|v| v != "0");
    let rounds = if fast { 200_000 } else { 1_000_000 };
    let ds = delays(rounds + DEPTH);
    cloudlb_bench::header("EventQueue microbench — slab vs HashMap slots");

    let (slab_sp, c1) = measure(|| slab_schedule_pop(rounds, &ds));
    let (hash_sp, c2) = measure(|| hashmap_schedule_pop(rounds, &ds));
    assert_eq!(c1, c2, "schedule/pop workloads must visit identical events");

    let (slab_cc, c3) = measure(|| slab_cancel_churn(rounds, &ds));
    let (hash_cc, c4) = measure(|| hashmap_cancel_churn(rounds, &ds));
    assert_eq!(c3, c4, "cancel-churn workloads must visit identical events");

    let (timer_tc, c5) = measure(|| timer_churn(rounds, &ds));
    let (wake_tc, c6) = measure(|| wake_event_churn(rounds, &ds));
    assert_eq!(c5, c6, "timer-churn encodings must fire identical wakes");

    let record = MicroRecord {
        name: "event_queue".into(),
        rounds,
        slab_schedule_pop_ops_per_sec: slab_sp,
        hashmap_schedule_pop_ops_per_sec: hash_sp,
        schedule_pop_speedup: slab_sp / hash_sp,
        slab_cancel_churn_ops_per_sec: slab_cc,
        hashmap_cancel_churn_ops_per_sec: hash_cc,
        cancel_churn_speedup: slab_cc / hash_cc,
        timer_churn_ops_per_sec: timer_tc,
        wake_event_churn_ops_per_sec: wake_tc,
        timer_churn_speedup: timer_tc / wake_tc,
    };
    println!(
        "schedule/pop: slab {:.2} Mops/s vs hashmap {:.2} Mops/s ({:.2}x)",
        slab_sp / 1e6,
        hash_sp / 1e6,
        record.schedule_pop_speedup
    );
    println!(
        "cancel churn: slab {:.2} Mops/s vs hashmap {:.2} Mops/s ({:.2}x)",
        slab_cc / 1e6,
        hash_cc / 1e6,
        record.cancel_churn_speedup
    );
    println!(
        "timer churn: timers {:.2} Mops/s vs wake events {:.2} Mops/s ({:.2}x)",
        timer_tc / 1e6,
        wake_tc / 1e6,
        record.timer_churn_speedup
    );
    let path = cloudlb_bench::baseline::write_json("event_queue", &record);
    println!("wrote {}", path.display());
    if record.schedule_pop_speedup < 1.2 {
        eprintln!(
            "WARNING: slab schedule/pop speedup {:.2}x is below the 1.2x target",
            record.schedule_pop_speedup
        );
    }
    println!("MICRO OK");
}
