//! Tracing for the benchmark's traced run: spans recorded around calls
//! into the TIFS crates' public functions, plus two decorators for the
//! per-instruction call sites that are too hot to span one by one — the
//! walker (`Iterator`) and the prefetcher (`IPrefetcher`).
//!
//! A clock read costs more than one walker step, so per-call timing
//! would swamp the layers it measures. The walker is timed in batches it
//! reads ahead; prefetcher hooks, which must run in order, are timed by
//! sampling — every [`SAMPLE_STRIDE`]-th call is bracketed by two clock
//! reads and the in-call time is extrapolated over all calls. In-process
//! calibrations remove what the instrumentation itself costs: the
//! reading of an empty timed region (subtracted from every batch and
//! sample) and the average extra cost of a decorated call (charged to
//! tracing, not to the caller's layer). Spans live in memory and are
//! written out once the run ends.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tifs_sim::prefetch::{FetchKind, IPrefetcher, NullPrefetcher, PrefetchCtx};
use tifs_sim::{SystemConfig, L2};
use tifs_trace::{BlockAddr, FetchRecord, Workload, WorkloadSpec};

/// One call in this many is timed at a hot call site.
pub const SAMPLE_STRIDE: u64 = 256;

/// Call count and sampled in-call time of one decorated call site. Lives
/// on the thread that runs the cell (`Cmp` is single-threaded), hence
/// `Cell`s rather than atomics.
#[derive(Debug, Default)]
pub struct CallStats {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    sampled_ns: Cell<u64>,
}

impl CallStats {
    #[inline(always)]
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let n = self.calls.get() + 1;
        self.calls.set(n);
        if !n.is_multiple_of(SAMPLE_STRIDE) {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.sampled.set(self.sampled.get() + 1);
        self.sampled_ns.set(self.sampled_ns.get() + ns);
        r
    }

    /// Calls made through the decorator.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Estimated nanoseconds spent inside the decorated calls, with the
    /// calibrated empty-region reading removed from each sample.
    pub fn busy_ns(&self, cal: &Calibration) -> f64 {
        let sampled = self.sampled.get();
        if sampled == 0 {
            return 0.0;
        }
        let per_call = (self.sampled_ns.get() as f64 / sampled as f64 - cal.empty_read_ns).max(0.0);
        per_call * self.calls.get() as f64
    }
}

/// Records the walker decorator reads ahead per timed batch.
pub const WALK_BATCH: usize = 64;

/// Records passed straight through between two timed batches.
pub const WALK_GAP: u64 = 15 * WALK_BATCH as u64;

/// Batch timings of one walker decorator (shared by a cell's cores).
#[derive(Debug, Default)]
pub struct WalkStats {
    records: Cell<u64>,
    batches: Cell<u64>,
    batch_records: Cell<u64>,
    batch_ns: Cell<u64>,
}

impl WalkStats {
    /// Records handed to the consumer.
    pub fn records(&self) -> u64 {
        self.records.get()
    }

    /// Estimated nanoseconds spent walking: the timed batches' per-record
    /// cost, net of each batch's empty-region reading, over all records.
    pub fn busy_ns(&self, cal: &Calibration) -> f64 {
        let sampled = self.batch_records.get();
        if sampled == 0 {
            return 0.0;
        }
        let net =
            (self.batch_ns.get() as f64 - self.batches.get() as f64 * cal.empty_read_ns).max(0.0);
        net / sampled as f64 * self.records.get() as f64
    }
}

/// `Iterator` decorator over a core's instruction walker. A single walker
/// step costs less than a clock read, so steps are not timed one by one:
/// after every [`WALK_GAP`] records passed straight through, it reads
/// [`WALK_BATCH`] records ahead under one clock pair and serves them from
/// a buffer. The walker's output does not depend on when it is pulled,
/// so the consumer sees the identical sequence; at most one batch is
/// walked past the point where the consumer stops.
pub struct TimedIter<I: Iterator> {
    inner: I,
    buf: Vec<I::Item>,
    pos: usize,
    since_batch: u64,
    stats: Rc<WalkStats>,
}

impl<I: Iterator> TimedIter<I> {
    pub fn new(inner: I, stats: Rc<WalkStats>) -> TimedIter<I> {
        TimedIter {
            inner,
            buf: Vec::with_capacity(WALK_BATCH),
            pos: 0,
            since_batch: 0,
            stats,
        }
    }

    fn refill(&mut self) {
        self.buf.clear();
        self.pos = 0;
        let t0 = Instant::now();
        self.buf.extend(self.inner.by_ref().take(WALK_BATCH));
        let ns = t0.elapsed().as_nanos() as u64;
        let s = &self.stats;
        s.batches.set(s.batches.get() + 1);
        s.batch_records
            .set(s.batch_records.get() + self.buf.len() as u64);
        s.batch_ns.set(s.batch_ns.get() + ns);
    }
}

impl<I: Iterator> Iterator for TimedIter<I>
where
    I::Item: Copy,
{
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        let item = if self.pos < self.buf.len() {
            self.pos += 1;
            Some(self.buf[self.pos - 1])
        } else if self.since_batch < WALK_GAP {
            self.since_batch += 1;
            self.inner.next()
        } else {
            self.since_batch = 0;
            self.refill();
            self.pos = 1;
            self.buf.first().copied()
        };
        if item.is_some() {
            self.stats.records.set(self.stats.records.get() + 1);
        }
        item
    }
}

/// The `IPrefetcher` hooks the decorator times, in [`HookStats`] order.
pub const HOOKS: [&str; 6] = [
    "on_fetch_instr",
    "on_block_fetch",
    "on_retire_fetch_miss",
    "on_l2_evict",
    "on_flush",
    "tick",
];

/// Per-hook call statistics of one decorated prefetcher.
#[derive(Debug, Default)]
pub struct HookStats {
    pub hooks: [CallStats; 6],
}

impl HookStats {
    pub fn calls(&self) -> u64 {
        self.hooks.iter().map(CallStats::calls).sum()
    }

    pub fn busy_ns(&self, cal: &Calibration) -> f64 {
        self.hooks.iter().map(|h| h.busy_ns(cal)).sum()
    }
}

/// `IPrefetcher` decorator: forwards every hook, timing a sample of them.
pub struct TimedPrefetcher<'a> {
    inner: Box<dyn IPrefetcher + 'a>,
    stats: Rc<HookStats>,
}

impl<'a> TimedPrefetcher<'a> {
    pub fn new(inner: Box<dyn IPrefetcher + 'a>, stats: Rc<HookStats>) -> TimedPrefetcher<'a> {
        TimedPrefetcher { inner, stats }
    }
}

impl IPrefetcher for TimedPrefetcher<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_fetch_instr(&mut self, ctx: &mut PrefetchCtx<'_>, rec: &FetchRecord) {
        let inner = &mut self.inner;
        self.stats.hooks[0].time(|| inner.on_fetch_instr(ctx, rec));
    }

    fn on_block_fetch(
        &mut self,
        ctx: &mut PrefetchCtx<'_>,
        block: BlockAddr,
        kind: FetchKind,
    ) -> Option<u64> {
        let inner = &mut self.inner;
        self.stats.hooks[1].time(|| inner.on_block_fetch(ctx, block, kind))
    }

    fn on_retire_fetch_miss(
        &mut self,
        ctx: &mut PrefetchCtx<'_>,
        block: BlockAddr,
        supplied: bool,
    ) {
        let inner = &mut self.inner;
        self.stats.hooks[2].time(|| inner.on_retire_fetch_miss(ctx, block, supplied));
    }

    fn on_l2_evict(&mut self, block: BlockAddr) {
        let inner = &mut self.inner;
        self.stats.hooks[3].time(|| inner.on_l2_evict(block));
    }

    fn on_flush(&mut self, ctx: &mut PrefetchCtx<'_>) {
        let inner = &mut self.inner;
        self.stats.hooks[4].time(|| inner.on_flush(ctx));
    }

    fn tick(&mut self, ctx: &mut PrefetchCtx<'_>) {
        let inner = &mut self.inner;
        self.stats.hooks[5].time(|| inner.tick(ctx));
    }

    fn counters(&self) -> Vec<(String, f64)> {
        self.inner.counters()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }
}

/// What the instrumentation costs on this host, measured in-process.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// What a sampled measurement reads for an empty call.
    pub empty_read_ns: f64,
    /// Extra cost per record of the walker decorator's buffering.
    pub walk_call_ns: f64,
    /// Extra cost per call of the prefetcher decorator.
    pub hook_call_ns: f64,
}

const CALIBRATION_CALLS: u64 = 1 << 20;
const CALIBRATION_ROUNDS: usize = 7;

impl Calibration {
    /// Measures the three costs, each as the minimum over several rounds
    /// (the least-disturbed round is the closest to the true cost).
    pub fn measure() -> Calibration {
        let min_over = |f: &dyn Fn() -> f64| {
            (0..CALIBRATION_ROUNDS)
                .map(|_| f())
                .fold(f64::INFINITY, f64::min)
                .max(0.0)
        };
        let empty_read_ns = min_over(&|| {
            let stats = CallStats::default();
            for _ in 0..CALIBRATION_CALLS {
                stats.time(|| black_box(()));
            }
            stats.sampled_ns.get() as f64 / stats.sampled.get() as f64
        });
        // Buffering cost scales with the item size, so calibrate on real
        // fetch records.
        let workload = Workload::build(&WorkloadSpec::tiny_test(), 1);
        let record = workload.walker(0).next().expect("walkers never end");
        let walk_call_ns = min_over(&|| {
            let plain: Box<dyn Iterator<Item = FetchRecord>> = Box::new(std::iter::repeat(record));
            let timed: Box<dyn Iterator<Item = FetchRecord>> = Box::new(TimedIter::new(
                std::iter::repeat(record),
                Rc::new(WalkStats::default()),
            ));
            (per_item_ns(timed) - per_item_ns(plain)).max(0.0)
        });
        let hook_call_ns = min_over(&|| {
            let plain: Box<dyn IPrefetcher> = Box::new(NullPrefetcher);
            let timed: Box<dyn IPrefetcher> = Box::new(TimedPrefetcher::new(
                Box::new(NullPrefetcher),
                Rc::new(HookStats::default()),
            ));
            (per_tick_ns(timed) - per_tick_ns(plain)).max(0.0)
        });
        Calibration {
            empty_read_ns,
            walk_call_ns,
            hook_call_ns,
        }
    }
}

fn per_item_ns(mut it: Box<dyn Iterator<Item = FetchRecord>>) -> f64 {
    let t0 = Instant::now();
    for _ in 0..CALIBRATION_CALLS {
        black_box(it.next());
    }
    t0.elapsed().as_nanos() as f64 / CALIBRATION_CALLS as f64
}

fn per_tick_ns(mut pf: Box<dyn IPrefetcher>) -> f64 {
    let mut l2 = L2::new(&SystemConfig::table2());
    let t0 = Instant::now();
    for now in 0..CALIBRATION_CALLS {
        let mut ctx = PrefetchCtx {
            now,
            core: 0,
            l2: &mut l2,
        };
        black_box(&mut pf).tick(&mut ctx);
    }
    t0.elapsed().as_nanos() as f64 / CALIBRATION_CALLS as f64
}

/// One recorded span. Interval spans time a call directly; aggregate
/// spans summarise a decorated call site over a cell, with `busy_ns`
/// extrapolated from samples and `overhead_ns` the instrumentation cost
/// they added to their parent's interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub label: String,
    pub cell: Option<usize>,
    pub start_ns: f64,
    pub end_ns: f64,
    pub busy_ns: f64,
    pub calls: u64,
    pub overhead_ns: f64,
    /// Per-hook call counts of an aggregate prefetcher span.
    pub hook_calls: Vec<u64>,
}

/// In-memory span sink shared by the worker threads of one traced run.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking worker")
            .push(span);
    }

    /// Runs `f` inside an interval span; `f` receives the span's id so
    /// its own calls can record children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        cell: Option<usize>,
        label: &str,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let r = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            name,
            label: label.to_string(),
            cell,
            start_ns,
            end_ns,
            busy_ns: end_ns - start_ns,
            calls: 1,
            overhead_ns: 0.0,
            hook_calls: Vec::new(),
        });
        r
    }

    /// Records the walker decorator's totals as a child of `parent`.
    pub fn walk(&self, parent: usize, cell: usize, stats: &WalkStats, cal: &Calibration) {
        self.aggregate(
            parent,
            "trace.walk",
            cell,
            "walker",
            stats.records(),
            stats.busy_ns(cal),
            cal.walk_call_ns,
            Vec::new(),
        );
    }

    /// Records the prefetcher decorator's totals as a child of `parent`.
    pub fn hooks(
        &self,
        parent: usize,
        name: &'static str,
        cell: usize,
        label: &str,
        stats: &HookStats,
        cal: &Calibration,
    ) {
        let per_hook = stats.hooks.iter().map(CallStats::calls).collect();
        self.aggregate(
            parent,
            name,
            cell,
            label,
            stats.calls(),
            stats.busy_ns(cal),
            cal.hook_call_ns,
            per_hook,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn aggregate(
        &self,
        parent: usize,
        name: &'static str,
        cell: usize,
        label: &str,
        calls: u64,
        busy_ns: f64,
        call_overhead_ns: f64,
        hook_calls: Vec<u64>,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let now = self.now_ns();
        self.push(Span {
            id,
            parent: Some(parent),
            name,
            label: label.to_string(),
            cell: Some(cell),
            start_ns: now,
            end_ns: now,
            busy_ns,
            calls,
            overhead_ns: calls as f64 * call_overhead_ns,
            hook_calls,
        });
    }

    /// The recorded spans, ordered by id.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("span sink poisoned by a panicking worker");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span (same order as `spans`): its busy time minus
/// the busy time and instrumentation overhead of its direct children.
/// Summed over a subtree this is the root's interval minus all tracing
/// overhead recorded beneath it.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: std::collections::BTreeMap<usize, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<f64> = spans.iter().map(|s| s.busy_ns).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| index.get(&p)) {
            own[*p] -= s.busy_ns + s.overhead_ns;
        }
    }
    own
}

/// Writes spans as JSON lines (one span per line) to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let cell = s.cell.map_or("null".to_string(), |c| c.to_string());
        let hooks: Vec<String> = s
            .hook_calls
            .iter()
            .zip(HOOKS)
            .map(|(n, h)| format!("\"{h}\": {n}"))
            .collect();
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"label\": \"{}\", \"cell\": {cell}, \
             \"start_ns\": {:.0}, \"end_ns\": {:.0}, \"busy_ns\": {:.0}, \"self_ns\": {self_ns:.0}, \
             \"overhead_ns\": {:.0}, \"calls\": {}, \"hook_calls\": {{{}}}}}",
            s.id,
            s.name,
            crate::json::escape(&s.label),
            s.start_ns,
            s.end_ns,
            s.busy_ns,
            s.overhead_ns,
            s.calls,
            hooks.join(", ")
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decorated_walker_yields_the_same_items_and_counts_calls() {
        let n = 3 * (WALK_GAP as u32 + WALK_BATCH as u32) + 10;
        let stats = Rc::new(WalkStats::default());
        let items: Vec<u32> = TimedIter::new(0..n, stats.clone()).collect();
        assert_eq!(items, (0..n).collect::<Vec<_>>());
        assert_eq!(stats.records(), u64::from(n));
        assert_eq!(stats.batches.get(), 3);
        assert_eq!(stats.batch_records.get(), 3 * WALK_BATCH as u64);
        let k = WALK_GAP as usize + 5;
        let taken: Vec<u32> = TimedIter::new(0..n, Rc::new(WalkStats::default()))
            .take(k)
            .collect();
        assert_eq!(taken, (0..k as u32).collect::<Vec<_>>());
    }

    #[test]
    fn self_time_subtracts_children_and_their_overhead() {
        let rec = Recorder::default();
        rec.span("root", None, None, "", |root| {
            rec.span("child", Some(root), None, "", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let mut spans = rec.finish();
        spans.push(Span {
            id: 99,
            parent: Some(0),
            name: "agg",
            label: String::new(),
            cell: None,
            start_ns: 0.0,
            end_ns: 0.0,
            busy_ns: 10.0,
            calls: 5,
            overhead_ns: 5.0,
            hook_calls: Vec::new(),
        });
        let selfs = self_times(&spans);
        let root = &spans[0];
        let child = &spans[1];
        assert_eq!(selfs[0], root.busy_ns - child.busy_ns - 15.0);
        assert_eq!(selfs[1], child.busy_ns);
        let total: f64 = selfs.iter().sum();
        assert!((total - (root.busy_ns - 5.0)).abs() < 1e-6);
    }
}
