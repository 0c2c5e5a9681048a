//! Timing wrappers for the traced run.
//!
//! Every wrapper sits *around* a public seam of the profiler —
//! [`SampleBackend`], [`OpObserver`], [`ShardDrainer`], [`AnalysisSink`],
//! [`ShardableSink`], [`SinkShard`] — and forwards each call unchanged, so
//! nothing inside the profiler's crates is instrumented. Hot-path wrappers
//! (per-op observers, drain workers, sink shards) keep a private [`Tally`]
//! and hand it to the shared [`Recorder`] once, when they are dropped after
//! the session finished; a shared counter on the per-op path would itself
//! create the contention being measured.
//!
//! Benchmark code: a poisoned recorder lock means a wrapped call panicked,
//! and aborting the run is the intended failure mode.
// nmo-lint: allow-file(no-unwrap-in-lib)

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use arch_sim::{Machine, MemOutcome, ObserverCharge, Op, OpObserver};
use nmo::stream::StreamSource;
use nmo::{
    AnalysisReport, AnalysisSink, BatchPool, CoreObserver, NmoConfig, NmoError, Profile,
    SampleBackend, SampleBatch, ShardDrainer, ShardState, ShardableSink, SinkShard, StreamContext,
    Window, WindowClock,
};

/// Only every `ON_OP_STRIDE`-th `on_op` is timed. Prime, so the timed ops do
/// not lock step with a power-of-two SPE sampling period.
const ON_OP_STRIDE: u64 = 61;

/// Busy time and call count of one span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub ns: u64,
    pub calls: u64,
}

impl Tally {
    fn add(&mut self, start: Instant) {
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }

    /// Mean nanoseconds per timed call.
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Span totals of one traced repetition, keyed by span name.
#[derive(Debug, Default)]
pub struct Recorder {
    totals: Mutex<BTreeMap<String, Tally>>,
}

impl Recorder {
    pub fn add(&self, span: &str, t: Tally) {
        let mut totals = self.totals.lock().expect("recorder lock poisoned");
        let e = totals.entry(span.to_string()).or_default();
        e.ns += t.ns;
        e.calls += t.calls;
    }

    /// Time `f` as one call of `span`.
    pub fn time<T>(&self, span: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let mut t = Tally::default();
        t.add(start);
        self.add(span, t);
        out
    }

    /// The span's totals, if it was ever recorded.
    pub fn get(&self, span: &str) -> Option<Tally> {
        self.totals.lock().expect("recorder lock poisoned").get(span).copied()
    }

    /// Summed seconds of the spans that were recorded, if any was.
    pub fn sum_secs(&self, spans: &[String]) -> Option<f64> {
        let found: Vec<Tally> = spans.iter().filter_map(|s| self.get(s)).collect();
        (!found.is_empty()).then(|| found.iter().map(Tally::secs).sum())
    }
}

/// A [`SampleBackend`] whose calls — and whose per-core observers and shard
/// drain workers — are timed under `backend.<name>.*`.
pub struct TimedBackend<B> {
    inner: B,
    rec: Arc<Recorder>,
}

impl<B: SampleBackend> TimedBackend<B> {
    pub fn new(inner: B, rec: Arc<Recorder>) -> Self {
        TimedBackend { inner, rec }
    }

    fn span(&self, what: &str) -> String {
        format!("backend.{}.{what}", self.inner.name())
    }
}

impl<B: SampleBackend> SampleBackend for TimedBackend<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn start(
        &mut self,
        machine: &Machine,
        cores: &[usize],
        config: &NmoConfig,
    ) -> Result<Vec<CoreObserver>, NmoError> {
        let span = self.span("start");
        let observers = self.rec.time(&span, || self.inner.start(machine, cores, config))?;
        let on_op = self.span("on_op");
        Ok(observers
            .into_iter()
            .map(|co| CoreObserver {
                core: co.core,
                observer: Box::new(TimedObserver {
                    inner: co.observer,
                    span: on_op.clone(),
                    rec: self.rec.clone(),
                    seen: 0,
                    local: Tally::default(),
                }),
            })
            .collect())
    }

    fn drain(
        &mut self,
        machine: &Machine,
        clock: &WindowClock,
        pool: &BatchPool,
    ) -> Result<Vec<SampleBatch>, NmoError> {
        let span = self.span("drain");
        self.rec.time(&span, || self.inner.drain(machine, clock, pool))
    }

    fn shard_drainers(&mut self, shards: usize) -> Vec<Box<dyn ShardDrainer>> {
        let span = self.span("drain");
        self.inner
            .shard_drainers(shards)
            .into_iter()
            .map(|inner| {
                Box::new(TimedDrainer {
                    inner,
                    span: span.clone(),
                    rec: self.rec.clone(),
                    local: Tally::default(),
                }) as Box<dyn ShardDrainer>
            })
            .collect()
    }

    fn stream_sources(&self) -> Vec<StreamSource> {
        self.inner.stream_sources()
    }

    fn stop(&mut self, machine: &Machine) -> Result<(), NmoError> {
        let span = self.span("stop");
        self.rec.time(&span, || self.inner.stop(machine))
    }

    fn fill(&mut self, profile: &mut Profile) -> Result<(), NmoError> {
        let span = self.span("fill");
        self.rec.time(&span, || self.inner.fill(profile))
    }
}

/// One core's observer, timing every [`ON_OP_STRIDE`]-th `on_op` into a
/// core-local tally.
struct TimedObserver {
    inner: Box<dyn OpObserver>,
    span: String,
    rec: Arc<Recorder>,
    /// Ops since the last timed one.
    seen: u64,
    local: Tally,
}

impl OpObserver for TimedObserver {
    fn on_op(&mut self, op: &Op, outcome: Option<&MemOutcome>, now_cycles: u64) -> ObserverCharge {
        self.seen += 1;
        if self.seen < ON_OP_STRIDE {
            return self.inner.on_op(op, outcome, now_cycles);
        }
        self.seen = 0;
        let start = Instant::now();
        let charge = self.inner.on_op(op, outcome, now_cycles);
        self.local.add(start);
        charge
    }

    fn on_detach(&mut self, now_cycles: u64) -> ObserverCharge {
        self.inner.on_detach(now_cycles)
    }

    fn on_flush(&mut self, now_cycles: u64) -> ObserverCharge {
        self.inner.on_flush(now_cycles)
    }
}

impl Drop for TimedObserver {
    fn drop(&mut self) {
        self.rec.add(&self.span, self.local);
    }
}

/// One pump worker's drain slice, timed into a worker-local tally.
struct TimedDrainer {
    inner: Box<dyn ShardDrainer>,
    span: String,
    rec: Arc<Recorder>,
    local: Tally,
}

impl ShardDrainer for TimedDrainer {
    fn shard(&self) -> usize {
        self.inner.shard()
    }

    fn drain(
        &mut self,
        machine: &Machine,
        clock: &WindowClock,
        pool: &BatchPool,
    ) -> Result<Vec<SampleBatch>, NmoError> {
        let start = Instant::now();
        let out = self.inner.drain(machine, clock, pool);
        self.local.add(start);
        out
    }

    fn sources(&self) -> Vec<StreamSource> {
        self.inner.sources()
    }
}

impl Drop for TimedDrainer {
    fn drop(&mut self) {
        self.rec.add(&self.span, self.local);
    }
}

/// An [`AnalysisSink`] timed under `<prefix>.*`: `on_batch` (serial batch
/// and shard batch hooks), `merge` (window closes and shard merges) and
/// `analyze` (`finish`/`analyze`).
pub struct TimedSink<S> {
    inner: S,
    prefix: String,
    rec: Arc<Recorder>,
}

impl<S: AnalysisSink> TimedSink<S> {
    pub fn new(inner: S, prefix: impl Into<String>, rec: Arc<Recorder>) -> Self {
        TimedSink { inner, prefix: prefix.into(), rec }
    }

    fn span(&self, what: &str) -> String {
        format!("{}.{what}", self.prefix)
    }

    fn shardable(&mut self) -> &mut dyn ShardableSink {
        self.inner.as_shardable().expect("only called after as_shardable returned Some")
    }
}

impl<S: AnalysisSink> AnalysisSink for TimedSink<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn analyze(
        &mut self,
        machine: &Machine,
        profile: &Profile,
    ) -> Result<AnalysisReport, NmoError> {
        let span = self.span("analyze");
        self.rec.time(&span, || self.inner.analyze(machine, profile))
    }

    fn on_stream_start(&mut self, ctx: &StreamContext) {
        self.inner.on_stream_start(ctx);
    }

    fn on_batch(&mut self, batch: &SampleBatch) {
        let span = self.span("on_batch");
        self.rec.time(&span, || self.inner.on_batch(batch));
    }

    fn on_window_close(&mut self, window: Window) {
        let span = self.span("merge");
        self.rec.time(&span, || self.inner.on_window_close(window));
    }

    fn finish(&mut self, machine: &Machine, profile: &Profile) -> Result<AnalysisReport, NmoError> {
        let span = self.span("analyze");
        self.rec.time(&span, || self.inner.finish(machine, profile))
    }

    fn as_shardable(&mut self) -> Option<&mut dyn ShardableSink> {
        if self.inner.as_shardable().is_some() {
            Some(self)
        } else {
            None
        }
    }
}

impl<S: AnalysisSink> ShardableSink for TimedSink<S> {
    fn make_shard(&mut self, shard: usize, ctx: &StreamContext) -> Box<dyn SinkShard> {
        let (on_batch, merge) = (self.span("on_batch"), self.span("merge"));
        let rec = self.rec.clone();
        let inner = self.shardable().make_shard(shard, ctx);
        Box::new(TimedShard {
            inner: Some(inner),
            on_batch,
            merge,
            rec,
            batches: Tally::default(),
            closes: Tally::default(),
        })
    }

    fn merge_window(&mut self, window: Window, states: Vec<ShardState>) {
        let span = self.span("merge");
        let rec = self.rec.clone();
        rec.time(&span, || self.shardable().merge_window(window, states));
    }

    fn merge_final(&mut self, states: Vec<ShardState>) {
        let span = self.span("merge");
        let rec = self.rec.clone();
        rec.time(&span, || self.shardable().merge_final(states));
    }
}

/// One shard worker of a [`TimedSink`], timed into shard-local tallies.
struct TimedShard {
    /// `None` once `finish` handed the inner worker's state back.
    inner: Option<Box<dyn SinkShard>>,
    on_batch: String,
    merge: String,
    rec: Arc<Recorder>,
    batches: Tally,
    closes: Tally,
}

impl SinkShard for TimedShard {
    fn on_batch(&mut self, batch: &SampleBatch) {
        let start = Instant::now();
        if let Some(inner) = &mut self.inner {
            inner.on_batch(batch);
        }
        self.batches.add(start);
    }

    fn on_window_close(&mut self, window: Window) -> Option<ShardState> {
        let start = Instant::now();
        let state = self.inner.as_mut().and_then(|inner| inner.on_window_close(window));
        self.closes.add(start);
        state
    }

    fn finish(mut self: Box<Self>) -> ShardState {
        let start = Instant::now();
        let inner = self.inner.take().expect("a shard is finished once");
        let state = inner.finish();
        self.closes.add(start);
        state
    }
}

impl Drop for TimedShard {
    fn drop(&mut self) {
        self.rec.add(&self.on_batch, self.batches);
        self.rec.add(&self.merge, self.closes);
    }
}
