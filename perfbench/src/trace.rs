//! Tracing taken from outside the program: an in-memory span log, and two
//! decorators that time calls into the `balance` and `apps` layers while
//! delegating every call unchanged.

use cloudlb_balance::{DecisionQuality, LbStats, LbStrategy, Migration};
use cloudlb_runtime::{ChareKernel, IterativeApp};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the span that made the call; 0 for the root.
    pub parent: u64,
    /// Crate the call went into (`core`, `runtime`, `balance`, `vopr`), or
    /// `bench` for the benchmark's own grouping spans.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work the call reported, where the layer has a count (moves planned).
    pub count: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans kept in memory until the benchmark ends.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` gets the span's id to parent its children.
    pub fn span<R>(
        &self,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        self.counted(parent, layer, name, |id| (f(id), 0))
    }

    /// [`Tracer::span`] for a call that also reports a count.
    pub fn counted<R>(
        &self,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(u64) -> (R, u64),
    ) -> R {
        // Ids only need to be unique; nothing else is published through them.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let (out, count) = f(id);
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns,
            count,
        };
        self.spans
            .lock()
            .expect("a thread panicked while logging a span")
            .push(span);
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a thread panicked while logging a span"),
        )
    }
}

/// Run `f` in a span when tracing, or call it directly when not.
pub fn span<R>(
    tracer: Option<&Tracer>,
    parent: u64,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce(u64) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(parent, layer, name, f),
        None => f(0),
    }
}

/// Self time per layer: each span's duration minus the part of its
/// interval that its children cover, summed over the layer's spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Write the span log as one JSON object per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            r#"{{"id":{},"parent":{},"layer":"{}","name":"{}","start_ns":{},"end_ns":{},"count":{}}}"#,
            s.id, s.parent, s.layer, s.name, s.start_ns, s.end_ns, s.count
        )?;
    }
    w.flush()
}

/// Times every `plan` call of the wrapped strategy as a `balance` span
/// whose count is the number of moves planned.
pub struct TimedStrategy {
    pub inner: Box<dyn LbStrategy>,
    pub tracer: Arc<Tracer>,
    pub parent: u64,
}

impl LbStrategy for TimedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, stats: &LbStats) -> Vec<Migration> {
        let inner = &mut self.inner;
        self.tracer.counted(self.parent, "balance", "plan", |_| {
            let plan = inner.plan(stats);
            let moves = plan.len() as u64;
            (plan, moves)
        })
    }

    fn decision_quality(&self) -> DecisionQuality {
        self.inner.decision_quality()
    }
}

/// Counts every call into the wrapped application and sums the time of
/// each one that does work. Callbacks run once per event, so they are
/// totals rather than spans. `num_chares` is a field read: it is counted
/// but not timed, as timing it would measure only the clock.
pub struct TimedApp<'a> {
    inner: &'a dyn IterativeApp,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl<'a> TimedApp<'a> {
    pub fn new(inner: &'a dyn IterativeApp) -> Self {
        TimedApp {
            inner,
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    /// `(calls, seconds)` so far.
    pub fn totals(&self) -> (u64, f64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        )
    }

    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl IterativeApp for TimedApp<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn num_chares(&self) -> usize {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.num_chares()
    }

    fn neighbors(&self, idx: usize) -> Vec<usize> {
        self.timed(|| self.inner.neighbors(idx))
    }

    fn message_bytes(&self, from: usize, to: usize) -> usize {
        self.timed(|| self.inner.message_bytes(from, to))
    }

    fn state_bytes(&self, idx: usize) -> usize {
        self.timed(|| self.inner.state_bytes(idx))
    }

    fn task_cost(&self, idx: usize, iter: usize) -> f64 {
        self.timed(|| self.inner.task_cost(idx, iter))
    }

    fn make_kernel(&self, idx: usize) -> Box<dyn ChareKernel> {
        self.timed(|| self.inner.make_kernel(idx))
    }

    fn unpack_kernel(&self, idx: usize, bytes: &[u8]) -> Option<Box<dyn ChareKernel>> {
        self.timed(|| self.inner.unpack_kernel(idx, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: u64, layer: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "x",
            start_ns: a,
            end_ns: b,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with overlapping children 10..40 and 30..60 (union
        // 50) and a grandchild inside the first child.
        let spans = [
            s(1, 0, "bench", 0, 100),
            s(2, 1, "core", 10, 40),
            s(3, 1, "core", 30, 60),
            s(4, 2, "runtime", 15, 25),
        ];
        let t = self_times(&spans);
        assert!((t["bench"] - 50e-9).abs() < 1e-15);
        assert!((t["core"] - (20e-9 + 30e-9)).abs() < 1e-15);
        assert!((t["runtime"] - 10e-9).abs() < 1e-15);
    }
}
