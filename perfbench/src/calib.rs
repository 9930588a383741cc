//! Host-speed calibration.
//!
//! The host this benchmark was tuned on is a 2-vCPU VM whose speed drifts
//! in phases of seconds to minutes: one serial 0.1 s simulation measured
//! anywhere from 0.07 to 0.135 s over two minutes, with no change in
//! input. The kernel below is the benchmark's own code — an event heap
//! plus an O(P) floating-point scan per event, the shape of the
//! simulator's hot loop — so it slows down in the same phases while no
//! change to the program can speed it up. Dividing a job's time by the
//! kernel's time measured next to it cancels most of the drift: over the
//! same two minutes the ratio moved by 4 % (interquartile range of 5 s
//! medians) where raw times moved by 39 %. A kernel with a large random
//! working set, or one timed on the other vCPU during the job, tracked
//! the drift far worse (25–30 %).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Events of one full kernel pass.
pub const EVENTS: usize = 200_000;

/// Seconds a full pass takes at the reference host speed. Timings are
/// reported as `measured × REFERENCE_S / full-pass time`, i.e. in seconds
/// of a host on which one full pass takes exactly this long.
pub const REFERENCE_S: f64 = 0.08;

const CORES: usize = 128;

/// Mean time of a kernel pass of `events` events run on `threads` threads
/// at once, scaled to a full pass. The calling thread runs one of them:
/// the drift differs between the two vCPUs, so a serial job is calibrated
/// on its own thread.
pub fn kernel_secs(threads: usize, events: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads)
            .map(|_| s.spawn(move || kernel_pass(events)))
            .collect();
        let mut times = vec![kernel_pass(events)];
        times.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("calibration thread panicked")),
        );
        times
    });
    times.iter().sum::<f64>() / times.len() as f64 * EVENTS as f64 / events as f64
}

fn kernel_pass(events: usize) -> f64 {
    let start = Instant::now();
    let mut remaining = vec![1.0f64; CORES];
    let mut rate = vec![1.0f64; CORES];
    let mut last = vec![0.0f64; CORES];
    let mut heap = BinaryHeap::with_capacity(CORES);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for c in 0..CORES {
        heap.push(Reverse((next() % 1000, c)));
    }
    for _ in 0..events {
        let Reverse((t, c)) = heap.pop().expect("one entry per core");
        let now = t as f64;
        let mut soonest = f64::INFINITY;
        for i in 0..CORES {
            let dt = now - last[i];
            if dt > 0.0 {
                remaining[i] -= rate[i] * dt * 1e-6;
                last[i] = now;
            }
            if remaining[i] <= 0.0 {
                remaining[i] += 1.0;
                rate[i] = 0.5 + (i as f64 * 0.37).fract();
            }
            soonest = soonest.min(remaining[i]);
        }
        heap.push(Reverse((
            t + 1 + next() % 1000 + (soonest * 10.0) as u64,
            c,
        )));
    }
    std::hint::black_box((&remaining, &rate));
    start.elapsed().as_secs_f64()
}
