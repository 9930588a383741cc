//! The sweep engine: a shared-source pool with an order-restoring reducer.
//!
//! Every packet of a sweep is a whole independent simulation, milliseconds
//! long, so the sweep is embarrassingly parallel: workers pull the next
//! packet from one shared source, and one lock per claim costs nothing
//! measurable. The source is a *lazy* iterator, so a million-cell
//! parameter study never materializes its inputs or its results:
//!
//! ```text
//!  Mutex<Source> ──claim (seq, item)──▶ workers ──mpsc──▶ reducer
//!  (lazy iterator,                      (run f)           (reorder buffer,
//!   credit-throttled)                                      submission order)
//! ```
//!
//! * A **worker** waits for a credit, then claims the next `(seq, item)`
//!   packet in the same critical section, runs the map function on it and
//!   sends the result to the reducer. At most `window = jobs +
//!   reorder_window` packets may be claimed but not yet consumed, which
//!   bounds the source cursor, the reorder buffer and the number of live
//!   results — O(workers + reorder window) regardless of sweep size.
//! * The **reducer** runs on the calling thread. Results arrive in
//!   completion order and are reassembled into strict submission order
//!   through a small reorder buffer, so the consumer callback observes
//!   exactly the serial fold — bit-identical results for any worker count
//!   (see `tests/parallel_sweep.rs` and `tests/pipeline_stream.rs`). Each
//!   burst of consumed packets hands its credits back under one lock.
//!
//! A panic in the source, a worker or the consumer marks the run aborted
//! and wakes every waiting worker, so it propagates to the caller instead
//! of hanging. `jobs <= 1` short-circuits to a plain serial loop on the
//! calling thread, byte-for-byte the serial path.
//!
//! The worker count comes from, in order of precedence: an explicit
//! `jobs` argument (the CLI's `--jobs`), the `CLOUDLB_JOBS` environment
//! variable, then [`std::thread::available_parallelism`] — see
//! [`default_jobs`]. There are no external dependencies — everything is
//! `std` scoped threads, one mutex and one channel.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Resolve the worker count: `CLOUDLB_JOBS` if set (must be a positive
/// integer), otherwise the machine's available parallelism.
///
/// The environment is read **once** and cached for the life of the
/// process — CLIs that honour a `--jobs` flag set `CLOUDLB_JOBS` before
/// the first call (see `src/main.rs`), and every later call sees the
/// same answer. A value of `0` or garbage is rejected with a warning on
/// stderr and falls back to the machine's parallelism instead of
/// silently clamping (or panicking) deep inside a sweep.
pub fn default_jobs() -> usize {
    static JOBS: OnceLock<usize> = OnceLock::new();
    *JOBS.get_or_init(|| {
        let fallback = || std::thread::available_parallelism().map_or(1, |n| n.get());
        match std::env::var("CLOUDLB_JOBS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(jobs) if jobs >= 1 => jobs,
                Ok(_) => {
                    eprintln!(
                        "warning: CLOUDLB_JOBS=0 is not a valid worker count; \
                         using available parallelism instead"
                    );
                    fallback()
                }
                Err(_) => {
                    eprintln!(
                        "warning: CLOUDLB_JOBS={v:?} is not a positive integer; \
                         using available parallelism instead"
                    );
                    fallback()
                }
            },
            Err(_) => fallback(),
        }
    })
}

/// Shape of the pipeline: worker count plus the reorder slack that lets
/// the pool run ahead of a slow packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Simulate-stage worker threads.
    pub jobs: usize,
    /// Extra in-flight packets beyond `jobs`. The reducer's reorder
    /// buffer never holds more than `jobs + reorder_window` results, and
    /// a straggler packet stalls the pool only once the pool has run
    /// this far ahead of it.
    pub reorder_window: usize,
}

impl PipelineConfig {
    /// A pipeline with `jobs` workers and the default reorder slack
    /// (`2 * jobs`, floor 8) — enough to ride over an occasional slow
    /// cell without materially raising the memory bound.
    pub fn new(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        PipelineConfig { jobs, reorder_window: (2 * jobs).max(8) }
    }

    /// Total in-flight packet budget: `jobs + reorder_window`. This is
    /// the hard bound on live (produced but not yet consumed) results.
    pub fn window(&self) -> usize {
        self.jobs + self.reorder_window
    }
}

/// Counters the pipeline reports after a run. Everything here is
/// observability — none of it feeds back into results, which stay
/// bit-identical to the serial path by construction.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PipelineStats {
    /// Packets that flowed through the pipeline.
    pub packets: usize,
    /// Wall-clock of the whole run, seconds.
    pub wall_s: f64,
    /// `packets / wall_s`.
    pub packets_per_sec: f64,
    /// Total time workers spent inside the map function, seconds.
    pub busy_s: f64,
    /// `busy_s / (jobs * wall_s)` — fraction of the pool that was doing
    /// real work (1.0 = no worker ever idled).
    pub utilization: f64,
    /// Largest number of results the reorder buffer held at once.
    pub reorder_peak: usize,
    /// Largest number of live results (computed but not yet consumed in
    /// submission order) at any instant. Bounded by
    /// [`PipelineConfig::window`] by construction.
    pub live_peak: usize,
    /// Packets the pool's workers claimed from the shared source: equal
    /// to `packets` on a pooled run, 0 on the serial path.
    pub injector_claims: u64,
    /// Always 0: the pool has no per-worker queues to steal from. Kept
    /// so readers of older stats keep their schema.
    pub steals: u64,
    /// Worker count the run used.
    pub jobs: usize,
    /// In-flight budget the run was configured with.
    pub window: usize,
}

/// The shared source: the lazy iterator plus the credit state that
/// throttles claims, all under one lock.
struct Source<I> {
    items: std::iter::Fuse<I>,
    next_seq: usize,
    /// Packets claimed but not yet consumed in submission order.
    in_flight: usize,
    aborted: bool,
}

struct Pool<I> {
    source: Mutex<Source<I>>,
    credit_cv: Condvar,
}

impl<I> Pool<I> {
    /// Lock the source. Only a panic inside the iterator can poison the
    /// mutex, and the counters change only after `next` returns, so the
    /// source stays valid and the abort path recovers the guard.
    fn lock(&self) -> MutexGuard<'_, Source<I>> {
        self.source.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Hand `n` consumed packets' credits back and wake the waiters.
    fn release(&self, n: usize) {
        self.lock().in_flight -= n;
        self.credit_cv.notify_all();
    }
}

impl<I: Iterator> Pool<I> {
    /// Wait for a credit, then claim the next packet. `None` once the
    /// source is dry or the run is aborted.
    fn claim(&self, window: usize) -> Option<(usize, I::Item)> {
        let mut src = self.lock();
        while src.in_flight >= window && !src.aborted {
            src = self.credit_cv.wait(src).unwrap_or_else(|e| e.into_inner());
        }
        if src.aborted {
            return None;
        }
        let item = src.items.next()?;
        let seq = src.next_seq;
        src.next_seq += 1;
        src.in_flight += 1;
        Some((seq, item))
    }
}

/// Marks the run aborted and wakes every waiting worker if dropped
/// during an unwind (armed by each worker and around the consumer).
struct AbortOnUnwind<'a, I>(&'a Pool<I>);

impl<I> Drop for AbortOnUnwind<'_, I> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().aborted = true;
            self.0.credit_cv.notify_all();
        }
    }
}

/// Stream `items` through the pipeline: apply `f` on up to `cfg.jobs`
/// workers and hand every result to `consume` in **submission order**
/// (`consume(0, r0)`, `consume(1, r1)`, …, with no gaps). At most
/// [`PipelineConfig::window`] packets are in flight at any instant, so
/// peak live results is O(jobs + reorder window) no matter how long the
/// iterator runs.
///
/// A panic inside the iterator, `f` or `consume` tears the pipeline down
/// and propagates to the caller (in-flight packets are abandoned, never
/// silently dropped into the consumer).
pub fn pipeline_stream<T, R, I, F, C>(
    cfg: &PipelineConfig,
    items: I,
    f: F,
    mut consume: C,
) -> PipelineStats
where
    T: Send,
    R: Send,
    I: IntoIterator<Item = T>,
    I::IntoIter: Send,
    F: Fn(T) -> R + Sync,
    C: FnMut(usize, R),
{
    let jobs = cfg.jobs.max(1);
    let window = cfg.window().max(1);
    let t0 = Instant::now();
    let busy_ns = AtomicU64::new(0);
    let timed = |item| {
        let t = Instant::now();
        let r = f(item);
        busy_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    };
    let (packets, reorder_peak, live_peak) = if jobs <= 1 {
        // Serial short-circuit: source, map and consumer all run inline
        // on the calling thread.
        let mut n = 0usize;
        for (seq, item) in items.into_iter().enumerate() {
            consume(seq, timed(item));
            n += 1;
        }
        (n, 0, n.min(1))
    } else {
        let pool = Pool {
            source: Mutex::new(Source {
                items: items.into_iter().fuse(),
                next_seq: 0,
                in_flight: 0,
                aborted: false,
            }),
            credit_cv: Condvar::new(),
        };
        let (pool, timed) = (&pool, &timed);
        // Results computed but not yet consumed, and their high-water mark.
        let (live, peak) = (&AtomicUsize::new(0), &AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let (mut next, mut reorder_peak) = (0usize, 0usize);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                let tx = tx.clone();
                scope.spawn(move || {
                    let _abort = AbortOnUnwind(pool);
                    while let Some((seq, item)) = pool.claim(window) {
                        let r = timed(item);
                        peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                        // The reducer is gone only on an aborted run.
                        if tx.send((seq, r)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);

            // Reduce on this thread until every worker has hung up.
            let _abort = AbortOnUnwind(pool);
            let mut buf: BTreeMap<usize, R> = BTreeMap::new();
            for (seq, r) in rx {
                buf.insert(seq, r);
                reorder_peak = reorder_peak.max(buf.len());
                let first = next;
                while let Some(r) = buf.remove(&next) {
                    consume(next, r);
                    live.fetch_sub(1, Ordering::SeqCst);
                    next += 1;
                }
                if next > first {
                    pool.release(next - first);
                }
            }
        });
        (next, reorder_peak, peak.load(Ordering::SeqCst))
    };

    let wall_s = t0.elapsed().as_secs_f64();
    let busy_s = busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
    let per_wall = |x: f64| if wall_s > 0.0 { x / wall_s } else { 0.0 };
    PipelineStats {
        packets,
        wall_s,
        packets_per_sec: per_wall(packets as f64),
        busy_s,
        utilization: per_wall(busy_s / jobs as f64),
        reorder_peak,
        live_peak,
        injector_claims: if jobs > 1 { packets as u64 } else { 0 },
        steals: 0,
        jobs,
        window,
    }
}

/// The collect-all path: stream `items` through the pipeline but
/// materialize every result, in submission order, plus the pipeline's
/// stats. Exact-result tests and small sweeps use this; large sweeps
/// should prefer [`pipeline_stream`] with an online consumer so peak
/// memory stays O(window).
pub fn pipeline_map<T, R, F>(
    cfg: &PipelineConfig,
    items: Vec<T>,
    f: F,
) -> (Vec<R>, PipelineStats)
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    let stats = pipeline_stream(cfg, items, f, |seq, r| {
        debug_assert_eq!(seq, out.len(), "consumer must see submission order");
        out.push(r);
    });
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn cfg(jobs: usize) -> PipelineConfig {
        PipelineConfig::new(jobs)
    }

    #[test]
    fn results_arrive_in_submission_order_for_any_worker_count() {
        for jobs in [1, 2, 4, 8] {
            let mut seen = Vec::new();
            let stats = pipeline_stream(&cfg(jobs), 0..200usize, |i| i * 3, |seq, r| {
                assert_eq!(r, seq * 3);
                seen.push(r);
            });
            assert_eq!(seen, (0..200).map(|i| i * 3).collect::<Vec<_>>(), "jobs={jobs}");
            assert_eq!(stats.packets, 200);
        }
    }

    #[test]
    fn pipeline_map_matches_serial_map() {
        let items: Vec<u64> = (0..123).collect();
        let (out, stats) = pipeline_map(&cfg(4), items.clone(), |i| i * i);
        assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(stats.packets, 123);
    }

    #[test]
    fn straggler_does_not_idle_the_pool_and_live_stays_bounded() {
        // One slow packet per 16 fast ones; the live-results bound must
        // hold even while the pool runs ahead of the straggler.
        let c = PipelineConfig { jobs: 4, reorder_window: 16 };
        let stats = pipeline_stream(
            &c,
            0..170usize,
            |i| {
                if i % 17 == 16 {
                    std::thread::sleep(std::time::Duration::from_millis(3));
                }
                i
            },
            |seq, r| assert_eq!(seq, r),
        );
        assert_eq!(stats.packets, 170);
        assert!(
            stats.live_peak <= c.window(),
            "live peak {} exceeded window {}",
            stats.live_peak,
            c.window()
        );
        assert!(stats.reorder_peak <= c.window());
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let mut n = 0;
        pipeline_stream(
            &cfg(3),
            0..57usize,
            |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                i
            },
            |_, _| n += 1,
        );
        assert_eq!(calls.load(Ordering::Relaxed), 57);
        assert_eq!(n, 57);
    }

    #[test]
    fn empty_input_is_fine() {
        let (out, stats) = pipeline_map(&cfg(4), Vec::<u8>::new(), |i| i);
        assert!(out.is_empty());
        assert_eq!(stats.packets, 0);
        assert_eq!(stats.live_peak, 0);
    }

    #[test]
    fn worker_panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            pipeline_map(&cfg(2), (0..8usize).collect(), |i| {
                if i == 5 {
                    panic!("cell exploded");
                }
                i
            })
        });
        assert!(caught.is_err(), "panic in a worker must reach the caller");
    }

    #[test]
    fn consumer_panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            pipeline_stream(&cfg(2), 0..64usize, |i| i, |seq, _| {
                if seq == 10 {
                    panic!("reducer exploded");
                }
            })
        });
        assert!(caught.is_err(), "panic in the consumer must reach the caller");
    }

    #[test]
    fn source_panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            let items = (0..64usize).inspect(|&i| {
                if i == 9 {
                    panic!("source exploded");
                }
            });
            pipeline_stream(&cfg(2), items, |i| i, |_, _| {})
        });
        assert!(caught.is_err(), "panic in the source must reach the caller");
    }

    #[test]
    fn worker_panic_at_the_head_of_a_full_window_propagates() {
        // Packet 0 is slow and then dies, while the other worker fills
        // the window and blocks on credits that packet 0 never returns.
        let c = PipelineConfig { jobs: 2, reorder_window: 1 };
        let caught = std::panic::catch_unwind(|| {
            pipeline_map(&c, (0..16usize).collect(), |i| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("head packet exploded");
                }
                i
            })
        });
        assert!(caught.is_err(), "panic at the window's head must reach the caller");
    }

    #[test]
    fn lazy_generator_is_driven_incrementally() {
        // The source must never materialize the whole input: a worker
        // takes a credit before it advances the iterator, so the cursor
        // is at most window + (packets already consumed) at any instant.
        let c = PipelineConfig { jobs: 2, reorder_window: 4 };
        let issued = AtomicUsize::new(0);
        let consumed = AtomicUsize::new(0);
        let items = (0..500usize).inspect(|_| {
            let ahead = issued.fetch_add(1, Ordering::SeqCst) + 1;
            let done = consumed.load(Ordering::SeqCst);
            assert!(
                ahead <= done + c.window(),
                "source ran {ahead} ahead of {done} consumed (window {})",
                c.window()
            );
        });
        pipeline_stream(&c, items, |i| i, |_, _| {
            consumed.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(issued.load(Ordering::SeqCst), 500);
    }

    #[test]
    fn utilization_and_throughput_are_populated() {
        let stats = pipeline_stream(
            &cfg(2),
            0..64usize,
            |i| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                i
            },
            |_, _| {},
        );
        assert!(stats.wall_s > 0.0);
        assert!(stats.packets_per_sec > 0.0);
        assert!(stats.busy_s > 0.0);
        assert!(stats.utilization > 0.0 && stats.utilization <= 1.0 + 1e-9);
    }
}
