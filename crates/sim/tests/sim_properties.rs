//! Randomized tests of the simulator substrate, driven by the simulator's
//! own deterministic `SimRng` from fixed seeds (reproducible corpus, no
//! external property-test crate).

use cloudlb_sim::core_sched::{Core, FgLabel};
use cloudlb_sim::{Dur, EventQueue, Popped, PowerModel, SimRng, Time};
use std::collections::{BTreeMap, BTreeSet};

const CASES: usize = 256;

/// The event queue is a stable priority queue: pops are sorted by
/// time, and equal times preserve insertion order.
#[test]
fn event_queue_pops_sorted_and_stable() {
    let mut rng = SimRng::new(0x00E0_E001);
    for _ in 0..CASES {
        let len = rng.range_u64(1, 200) as usize;
        let times: Vec<u64> = (0..len).map(|_| rng.below(1_000)).collect();
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.schedule(Time::from_us(t), seq);
        }
        let mut last: Option<(Time, usize)> = None;
        while let Some((t, popped)) = q.pop() {
            let Popped::Event(seq) = popped else { unreachable!("no timers set") };
            if let Some((lt, lseq)) = last {
                assert!(t > lt || (t == lt && seq > lseq), "order violated");
            }
            last = Some((t, seq));
        }
    }
}

/// `discard_events` drops exactly the pending payload events and keeps
/// every timer: after random schedules, timer sets and pops, it returns
/// the number of events still pending, leaves `len` at the pending-timer
/// count and the sequence counter and lifetime counters where they were,
/// and every later pop is a timer, in `(time, seq)` order.
#[test]
fn event_queue_discard_keeps_timers() {
    let mut rng = SimRng::new(0x00E0_E002);
    for case in 0..CASES {
        let keys = rng.range_u64(1, 12) as usize;
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut events = 0usize;
        for op in 0..rng.range_u64(1, 200) {
            let at = q.now() + Dur::from_us(rng.below(50));
            match rng.below(5) {
                0 | 1 => {
                    q.schedule(at, op);
                    events += 1;
                }
                2 | 3 => {
                    let key = rng.below(keys as u64) as usize;
                    q.set_timer(key, (rng.below(4) != 0).then_some(at));
                }
                _ => {
                    if let Some((_, Popped::Event(_))) = q.pop() {
                        events -= 1;
                    }
                }
            }
        }
        let timers = q.pending_timers().count();
        assert_eq!(q.len(), events + timers, "case {case}: len before");
        let (seq, peak, popped) = (q.next_seq(), q.peak_depth(), q.total_popped());
        assert_eq!(q.discard_events(), events, "case {case}: discarded");
        assert_eq!(q.len(), timers, "case {case}: len after");
        assert_eq!((q.next_seq(), q.peak_depth(), q.total_popped()), (seq, peak, popped));
        let mut last = None;
        let mut fired = 0;
        while let Some((t, popped)) = q.pop() {
            let Popped::Timer(_) = popped else { panic!("case {case}: an event survived") };
            assert!(last.is_none_or(|l| l <= t), "case {case}: timers out of order");
            last = Some(t);
            fired += 1;
        }
        assert_eq!(fired, timers, "case {case}: every timer fires");
    }
}

/// Reference queue for per-key timers, independent of `EventQueue`: one
/// `BTreeMap` keyed by `(instant, seq)` holding events (`Ok`) and timers
/// (`Err(key)`) under its own sequence counter and counters, each timer
/// moved by removing its entry and inserting a fresh one, and a
/// `BTreeSet` of `(instant, key)` mirroring every timer that is pending or
/// fired-and-not-since-set.
#[derive(Default)]
struct QueueModel {
    pending: BTreeMap<(Time, u64), Result<u64, usize>>,
    /// Per key: the instant its timer is set to and the seq it took.
    timer: Vec<Option<(Time, u64)>>,
    due: BTreeSet<(Time, usize)>,
    next_seq: u64,
    popped: u64,
    peak: usize,
}

impl QueueModel {
    fn push(&mut self, at: Time, entry: Result<u64, usize>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert((at, seq), entry);
        self.peak = self.peak.max(self.pending.len());
        seq
    }

    fn set(&mut self, key: usize, at: Option<Time>) {
        let old = self.timer[key];
        if old.map(|(t, _)| t) == at {
            return;
        }
        if let Some((t, seq)) = old {
            // A no-op when the timer already fired.
            self.pending.remove(&(t, seq));
            self.due.remove(&(t, key));
        }
        self.timer[key] = at.map(|t| {
            self.due.insert((t, key));
            (t, self.push(t, Err(key)))
        });
    }

    fn pop(&mut self) -> Option<(Time, Popped<u64>)> {
        let ((t, _), entry) = self.pending.pop_first()?;
        self.popped += 1;
        Some((t, entry.map_or_else(Popped::Timer, Popped::Event)))
    }
}

/// The queue matches the reference model: the same pops in the same
/// order, the same sequence counter and counters, and the same due keys
/// at every instant, under random mixes of schedules, timer sets, moves,
/// clears and pops.
#[test]
fn event_queue_matches_the_reference_model() {
    let mut rng = SimRng::new(0x00E0_E007);
    for case in 0..CASES {
        let keys = rng.range_u64(1, 12) as usize;
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model = QueueModel { timer: vec![None; keys], ..Default::default() };
        let (mut due, mut want_due) = (Vec::new(), Vec::new());
        for op in 0..400u64 {
            let now = q.now();
            match rng.below(10) {
                0..=2 => {
                    let at = now + Dur::from_us(rng.below(50));
                    q.schedule(at, op);
                    model.push(at, Ok(op));
                }
                3..=5 => {
                    let key = rng.below(keys as u64) as usize;
                    // Clear, set near `now` (ties with events), or re-set the
                    // instant it already holds.
                    let at = match rng.below(4) {
                        0 => None,
                        1 => q.timer(key).filter(|&at| at >= now),
                        _ => Some(now + Dur::from_us(rng.below(20))),
                    };
                    q.set_timer(key, at);
                    model.set(key, at);
                }
                _ => assert_eq!(q.pop(), model.pop(), "case {case} op {op}: pop"),
            }
            assert_eq!(q.len(), model.pending.len(), "case {case} op {op}: len");
            assert_eq!(q.next_seq(), model.next_seq, "case {case} op {op}: seq");
            assert_eq!(q.total_popped(), model.popped, "case {case} op {op}");
            assert_eq!(q.peak_depth(), model.peak, "case {case} op {op}: peak");
            let now = q.now();
            q.timers_due(now, &mut due);
            due.sort_unstable();
            want_due.clear();
            want_due.extend(model.due.range(..=(now, usize::MAX)).map(|&(_, key)| key));
            want_due.sort_unstable();
            assert_eq!(due, want_due, "case {case} op {op}: due at {now:?}");
        }
    }
}

/// CPU accounting is conserved on a shared core: fg + bg + idle equals
/// wall time (within per-segment rounding).
#[test]
fn core_accounting_conserved() {
    let mut rng = SimRng::new(0x00E0_E003);
    for _ in 0..CASES {
        let ndemands = rng.range_u64(1, 30) as usize;
        let fg_demands: Vec<u64> = (0..ndemands).map(|_| rng.range_u64(1, 5_000)).collect();
        let bg_weight = rng.range_f64(0.25, 4.0);
        let bg_demand =
            (rng.below(2) == 0).then(|| rng.range_u64(10_000, 200_000));
        let horizon = rng.range_u64(200_000, 400_000);

        let mut core = Core::new(0);
        core.add_bg(0, bg_demand.map(Dur::from_us), bg_weight);
        let mut events = Vec::new();
        let mut segments = 0u64;
        // Run fg tasks back-to-back until the horizon.
        let mut demands = fg_demands.iter().cycle();
        while core.accounted_until() < Time::from_us(horizon) {
            if !core.fg_busy() {
                let d = *demands.next().expect("cycle");
                core.start_fg(FgLabel { chare: 0 }, Dur::from_us(d), 1.0);
            }
            let next = core
                .next_completion()
                .unwrap_or(Time::from_us(horizon))
                .min(Time::from_us(horizon));
            core.advance(next, &mut events, None);
            segments += 1;
            assert!(segments < 100_000, "runaway loop");
        }
        let s = core.stat();
        let total = s.fg_us + s.bg_us + s.idle_us;
        let drift = (total as i64 - horizon as i64).abs();
        assert!(drift <= segments as i64 + 2, "accounted {total} vs {horizon}");
    }
}

/// A foreground task's wall time on a shared core matches the share
/// math: wall = cpu × (w_fg + w_bg) / w_fg while the bg is present.
#[test]
fn core_sharing_matches_analytics() {
    let mut rng = SimRng::new(0x00E0_E004);
    for _ in 0..CASES {
        let cpu_us = rng.range_u64(100, 100_000);
        let w_bg = rng.range_f64(0.5, 4.0);
        let mut core = Core::new(0);
        core.add_bg(0, None, w_bg);
        core.start_fg(FgLabel { chare: 0 }, Dur::from_us(cpu_us), 1.0);
        let done = core.next_completion().expect("finite fg");
        let expected = cpu_us as f64 * (1.0 + w_bg);
        let got = done.as_us() as f64;
        assert!((got - expected).abs() <= expected * 1e-6 + 2.0, "{got} vs {expected}");
    }
}

/// Node power always sits inside the [base, max] envelope and energy
/// equals avg_power × time × nodes.
#[test]
fn power_envelope() {
    let mut rng = SimRng::new(0x00E0_E005);
    for _ in 0..CASES {
        let horizon = rng.range_u64(1_000_000, 2_000_000);
        let busy: Vec<(u64, u64)> =
            (0..4).map(|_| (rng.below(1_000_000), rng.below(1_000_000))).collect();
        let model = PowerModel::default();
        let stats: Vec<_> = busy
            .iter()
            .map(|&(fg, bg)| {
                let fg = fg.min(horizon);
                let bg = bg.min(horizon - fg);
                cloudlb_sim::core_sched::CoreStat {
                    fg_us: fg,
                    bg_us: bg,
                    idle_us: horizon - fg - bg,
                }
            })
            .collect();
        let r = model.energy(&stats, 4, Time::from_us(horizon));
        assert!(r.avg_power_per_node_w >= model.base_w - 1e-9);
        assert!(r.avg_power_per_node_w <= model.max_w + 1e-9);
        let recomputed = r.avg_power_per_node_w * r.duration_s * r.nodes as f64;
        assert!((recomputed - r.energy_j).abs() < 1e-6 * r.energy_j.max(1.0));
    }
}

/// Random interference scripts are well-formed and deterministic.
#[test]
fn random_scripts_are_sane() {
    use cloudlb_sim::interference::{BgAction, BgScript};
    let mut rng = SimRng::new(0x00E0_E006);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let cores = rng.range_u64(1, 32) as usize;
        let horizon = Time::from_us(500_000);
        let s1 = BgScript::random(
            &mut SimRng::new(seed),
            cores,
            horizon,
            Dur::from_ms(50),
            Dur::from_ms(40),
            1.0,
            0,
        );
        let s2 = BgScript::random(
            &mut SimRng::new(seed),
            cores,
            horizon,
            Dur::from_ms(50),
            Dur::from_ms(40),
            1.0,
            0,
        );
        assert_eq!(&s1, &s2);
        // Sorted, starts within horizon, every start eventually stopped.
        let mut open = std::collections::HashSet::new();
        let mut last = Time::ZERO;
        for (t, a) in &s1.actions {
            assert!(*t >= last);
            last = *t;
            match a {
                BgAction::Start { job, core, .. } => {
                    assert!(*t < horizon);
                    assert!(*core < cores);
                    open.insert(*job);
                }
                BgAction::Stop { job, .. } => {
                    assert!(open.remove(job), "stop without start");
                }
            }
        }
        assert!(open.is_empty(), "unterminated pulses: {open:?}");
    }
}
