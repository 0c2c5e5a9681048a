//! [`ProfileSession`] — the backend-abstracted, `Result`-based entry point
//! of the profiler.
//!
//! A session is built fluently, owns its simulated machine, and drives the
//! full lifecycle:
//!
//! ```text
//! ProfileSession::builder()           configure machine / cores / config /
//!     ...                             backends / sinks / workload
//!     .build()?                       validate, construct the machine
//!     .run()?                         setup → start → run → verify → finish
//! ```
//!
//! Backends ([`crate::backend::SampleBackend`]) acquire the raw data (SPE
//! address samples, hardware counters); sinks
//! ([`crate::sink::AnalysisSink`]) turn the finished run into the paper's
//! analysis levels. When no backends or sinks are registered explicitly, the
//! session derives the paper's defaults from the [`NmoConfig`] flags.
//!
//! For callers that drive the machine directly (attaching engines from their
//! own threads), [`ProfileSession::start`] returns an [`ActiveSession`]
//! handle whose [`ActiveSession::finish`] assembles the [`Profile`].
//!
//! ## Streaming
//!
//! [`ProfileSession::run_streaming`] (and the manual
//! [`ProfileSession::start_streaming`]) turn the session into an online
//! pipeline: *pump workers* periodically drain every backend into
//! window-stamped [`crate::stream::SampleBatch`]es on the lanes of a bounded
//! [`crate::stream::ShardedBus`], and one *shard consumer* per lane feeds
//! them to the sinks' shard workers as the workload runs (one shard is just
//! the narrowest width of the same pipeline). [`ActiveSession::poll_snapshot`]
//! exposes a live readout ([`StreamSnapshot`]) while collection is active —
//! the mode a long-running service is profiled in, where waiting for the
//! workload to exit is not an option.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use arch_sim::{FanoutObserver, Machine, MachineConfig, OpObserver};

use crate::annotate::Annotations;
use crate::backend::{CounterBackend, SampleBackend, ShardDrainer, SpeBackend};
use crate::config::NmoConfig;
use crate::runtime::Profile;
use crate::sink::{
    default_sinks, merge_window_states, run_sinks, AnalysisSink, ShardState, SinkShard,
    StreamContext,
};
use crate::stream::{
    BatchPayload, BatchPool, BusEvent, BusRecv, EventBus, SampleBatch, ShardedBus, SnapshotState,
    StreamOptions, StreamSnapshot, StreamSource, StreamStats, WindowClock,
};
use crate::workload::Workload;
use crate::NmoError;

/// Fluent configuration for a [`ProfileSession`].
pub struct ProfileSessionBuilder {
    machine_config: MachineConfig,
    config: NmoConfig,
    cores: Vec<usize>,
    backends: Vec<Box<dyn SampleBackend>>,
    sinks: Vec<Box<dyn AnalysisSink>>,
    workload: Option<Box<dyn Workload>>,
    default_backends: bool,
    default_sinks: bool,
    stream_options: StreamOptions,
}

impl Default for ProfileSessionBuilder {
    fn default() -> Self {
        ProfileSessionBuilder {
            machine_config: MachineConfig::ampere_altra_max(),
            config: NmoConfig::default(),
            cores: Vec::new(),
            backends: Vec::new(),
            sinks: Vec::new(),
            workload: None,
            default_backends: true,
            default_sinks: true,
            stream_options: StreamOptions::default(),
        }
    }
}

impl std::fmt::Debug for ProfileSessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileSessionBuilder")
            .field("machine", &self.machine_config.name)
            .field("cores", &self.cores)
            .field("backends", &self.backends.len())
            .field("sinks", &self.sinks.len())
            .field("workload", &self.workload.as_ref().map(|w| w.name()))
            .finish()
    }
}

impl ProfileSessionBuilder {
    /// The simulated platform to profile on (default: the paper's Ampere
    /// Altra Max preset).
    pub fn machine_config(mut self, machine_config: MachineConfig) -> Self {
        self.machine_config = machine_config;
        self
    }

    /// The NMO configuration (Table I) in force for the session.
    pub fn config(mut self, config: NmoConfig) -> Self {
        self.config = config;
        self
    }

    /// Base name for the profile and its report files (`NMO_NAME`).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.config.name = name.into();
        self
    }

    /// Profile exactly these cores (one workload thread per entry).
    pub fn cores(mut self, cores: impl IntoIterator<Item = usize>) -> Self {
        self.cores = cores.into_iter().collect();
        self
    }

    /// Profile cores `0..threads` (one workload thread per core).
    pub fn threads(self, threads: usize) -> Self {
        self.cores(0..threads)
    }

    /// Register a sample backend. When no backend is registered explicitly,
    /// the session derives the default set from the configuration
    /// ([`SpeBackend`] when SPE sampling is active, plus [`CounterBackend`]
    /// whenever collection is enabled).
    pub fn backend(mut self, backend: impl SampleBackend + 'static) -> Self {
        self.backends.push(Box::new(backend));
        self
    }

    /// Register an analysis sink. When no sink is registered explicitly, the
    /// session derives the default set from the configuration flags
    /// (capacity when RSS tracking is on, bandwidth when bandwidth tracking
    /// is on; region attribution stays lazy via `Profile::regions` unless
    /// [`crate::sink::RegionSink`] is registered here).
    pub fn sink(mut self, sink: impl AnalysisSink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Record the run to an indexed binary trace under `dir` (one segment
    /// per shard): sugar for registering a
    /// [`crate::trace::TraceWriterSink`]. The stored trace replays through
    /// any sink via [`crate::trace::TraceReader`] — no re-simulation.
    pub fn trace_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.sinks.push(Box::new(crate::trace::TraceWriterSink::new(dir)));
        self
    }

    /// The workload [`ProfileSession::run`] will drive.
    pub fn workload(mut self, workload: Box<dyn Workload>) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Disable the config-derived default backends (an empty backend list
    /// then collects nothing).
    pub fn no_default_backends(mut self) -> Self {
        self.default_backends = false;
        self
    }

    /// Disable the config-derived default sinks (an empty sink list then
    /// produces no analyses).
    pub fn no_default_sinks(mut self) -> Self {
        self.default_sinks = false;
        self
    }

    /// Tune the streaming pipeline (window width, bus capacity, pump
    /// interval, backpressure policy) used by
    /// [`ProfileSession::run_streaming`] /
    /// [`ProfileSession::start_streaming`].
    pub fn stream_options(mut self, options: StreamOptions) -> Self {
        self.stream_options = options;
        self
    }

    /// Validate the configuration and construct the session (including its
    /// simulated machine).
    pub fn build(mut self) -> Result<ProfileSession, NmoError> {
        self.machine_config.validate().map_err(NmoError::Sim)?;
        if self.cores.is_empty() {
            self.cores.push(0);
        }
        let mut seen = std::collections::HashSet::new();
        for &core in &self.cores {
            if core >= self.machine_config.num_cores {
                return Err(NmoError::Config(format!(
                    "core {core} does not exist on '{}' ({} cores)",
                    self.machine_config.name, self.machine_config.num_cores
                )));
            }
            if !seen.insert(core) {
                return Err(NmoError::Config(format!("core {core} listed more than once")));
            }
        }
        if self.default_backends && self.backends.is_empty() && self.config.enabled {
            if self.config.spe_active() {
                self.backends.push(Box::new(SpeBackend::new()));
            }
            self.backends.push(Box::new(CounterBackend::new()));
        }
        if self.default_sinks && self.sinks.is_empty() {
            self.sinks = default_sinks(&self.config);
        }
        Ok(ProfileSession {
            machine: Arc::new(Machine::new(self.machine_config)),
            config: self.config,
            cores: self.cores,
            annotations: Arc::new(Annotations::new()),
            backends: self.backends,
            sinks: self.sinks,
            workload: self.workload,
            stream_options: self.stream_options,
        })
    }
}

/// A configured (but not yet collecting) profiling session.
///
/// The session owns the simulated machine; access it with
/// [`ProfileSession::machine`] for allocations or manual engine attachment.
pub struct ProfileSession {
    machine: Arc<Machine>,
    config: NmoConfig,
    cores: Vec<usize>,
    annotations: Arc<Annotations>,
    backends: Vec<Box<dyn SampleBackend>>,
    sinks: Vec<Box<dyn AnalysisSink>>,
    workload: Option<Box<dyn Workload>>,
    stream_options: StreamOptions,
}

impl std::fmt::Debug for ProfileSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileSession")
            .field("machine", &self.machine.config().name)
            .field("cores", &self.cores)
            .field("backends", &self.backends.len())
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl ProfileSession {
    /// Start configuring a session.
    pub fn builder() -> ProfileSessionBuilder {
        ProfileSessionBuilder::default()
    }

    /// The simulated machine the session owns.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The annotation registry (share it with workload code).
    pub fn annotations(&self) -> Arc<Annotations> {
        self.annotations.clone()
    }

    /// The cores the session profiles.
    pub fn cores(&self) -> &[usize] {
        &self.cores
    }

    /// The configuration in force.
    pub fn config(&self) -> &NmoConfig {
        &self.config
    }

    /// Drive the registered workload end to end: `setup`, start collection,
    /// `run`, `verify`, and profile assembly.
    pub fn run(mut self) -> Result<Profile, NmoError> {
        let mut workload = self.workload.take().ok_or_else(|| {
            NmoError::Config(
                "ProfileSession::run requires a workload; use run_with for closures".into(),
            )
        })?;
        workload.setup(&self.machine, &self.annotations)?;
        let active = self.start()?;
        let report = workload.run(active.machine(), active.annotations_ref(), active.cores())?;
        if !workload.verify() {
            return Err(NmoError::Workload(format!(
                "workload '{}' failed verification",
                workload.name()
            )));
        }
        let mut profile = active.finish()?;
        profile.workload = Some(report);
        Ok(profile)
    }

    /// Drive a closure instead of a [`Workload`]: collection starts, the
    /// closure runs the work against the machine, and the profile is
    /// assembled when it returns.
    pub fn run_with<F>(self, body: F) -> Result<Profile, NmoError>
    where
        F: FnOnce(&Machine, &Annotations, &[usize]) -> Result<(), NmoError>,
    {
        let active = self.start()?;
        body(active.machine(), active.annotations_ref(), active.cores())?;
        active.finish()
    }

    /// [`ProfileSession::run`], but through the online pipeline: backends
    /// stream window-stamped batches onto the event bus while the workload
    /// runs, sinks aggregate them incrementally, and the final [`Profile`]
    /// records the pipeline statistics in [`Profile::stream`]. The final
    /// capacity/bandwidth/region reports are equivalent to the post-hoc
    /// path's (same data, merged windowed instead of scanned whole).
    pub fn run_streaming(mut self) -> Result<Profile, NmoError> {
        let mut workload = self.workload.take().ok_or_else(|| {
            NmoError::Config(
                "ProfileSession::run_streaming requires a workload; use start_streaming + \
                 manual engines otherwise"
                    .into(),
            )
        })?;
        workload.setup(&self.machine, &self.annotations)?;
        let active = self.start_streaming()?;
        let report = workload.run(active.machine(), active.annotations_ref(), active.cores())?;
        if !workload.verify() {
            return Err(NmoError::Workload(format!(
                "workload '{}' failed verification",
                workload.name()
            )));
        }
        let mut profile = active.finish()?;
        profile.workload = Some(report);
        Ok(profile)
    }

    /// Drive a closure through the streaming pipeline (the
    /// [`ProfileSession::run_with`] analogue of
    /// [`ProfileSession::run_streaming`]).
    pub fn run_streaming_with<F>(self, body: F) -> Result<Profile, NmoError>
    where
        F: FnOnce(&Machine, &Annotations, &[usize]) -> Result<(), NmoError>,
    {
        let active = self.start_streaming()?;
        body(active.machine(), active.annotations_ref(), active.cores())?;
        active.finish()
    }

    /// Start collection with streaming delivery and return the active
    /// handle. The caller attaches engines itself (or drives a workload),
    /// polls [`ActiveSession::poll_snapshot`] for live readout, and calls
    /// [`ActiveSession::finish`] when done.
    ///
    /// The pipeline runs with [`StreamOptions::shards`] shards (`0` = auto:
    /// `min(profiled cores, available_parallelism)`; explicit values are
    /// clamped to the profiled core count): N pump workers draining disjoint
    /// core sets onto N bus lanes, N shard consumers running [`SinkShard`]
    /// workers, and a deterministic (shard-index-ordered) merge back into the
    /// registered sinks. One shard is the same pipeline at width one — the
    /// coordinator worker then drains every backend itself. The width,
    /// drain cadence and backpressure policy stay fixed for the whole run.
    pub fn start_streaming(self) -> Result<ActiveSession, NmoError> {
        let opts = self.stream_options.clone();
        let requested_shards = opts.shards;
        let cores = self.cores.len();
        let mut active = self.start()?;
        let mut backends = std::mem::take(&mut active.session.backends);
        let mut sinks = std::mem::take(&mut active.session.sinks);
        // Remember the backend names now — `fill` runs after the pump hands
        // the backends back, but the name list must survive a pump failure.
        active.backend_names = backends.iter().map(|b| b.name().to_string()).collect();

        let shards = match requested_shards {
            0 => {
                cores.min(std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)).max(1)
            }
            // Clamp explicit requests to the profiled core count: shards
            // beyond it would own zero cores (pump workers with nothing to
            // drain, lanes with no producer). The requested count is still
            // recorded in `StreamStats::shards_requested`.
            n => n.min(cores.max(1)),
        };

        let bus = ShardedBus::new(shards, opts.bus_capacity, opts.backpressure);
        let pool = BatchPool::new((opts.bus_capacity * shards).clamp(64, 4096));
        let stop = Arc::new(AtomicBool::new(false));
        let snapshot = Arc::new(Mutex::named(SnapshotState::default(), "session.snapshot"));
        let machine_cfg = active.session.machine.config();
        let ctx = StreamContext {
            annotations: active.session.annotations.clone(),
            capacity_bytes: machine_cfg.total_mem_bytes(),
            bucket_ns: machine_cfg.cycles_to_ns(machine_cfg.bandwidth_bucket_cycles).max(1),
            mem_nodes: machine_cfg.mem_nodes(),
            page_bytes: machine_cfg.page_bytes,
            machine: Some(active.session.machine.clone()),
        };

        // Parent sinks see the stream start, then hand out one worker per
        // shard (legacy sinks keep `None` slots and are fed through the
        // merger mutex). A panicking sink surfaces as a sink error here
        // (dropping `active` unwinds the backends cleanly — no pumps have
        // been spawned yet).
        let started = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for sink in &mut sinks {
                sink.on_stream_start(&ctx);
            }
        }));
        if started.is_err() {
            return Err(NmoError::sink("stream-start", "sink panicked in on_stream_start"));
        }
        let mut shard_workers: Vec<ShardWorkerSet> =
            (0..shards).map(|_| Vec::with_capacity(sinks.len())).collect();
        for sink in &mut sinks {
            match sink.as_shardable() {
                Some(shardable) => {
                    for (shard, workers) in shard_workers.iter_mut().enumerate() {
                        workers.push(Some(shardable.make_shard(shard, &ctx)));
                    }
                }
                None => {
                    for workers in shard_workers.iter_mut() {
                        workers.push(None);
                    }
                }
            }
        }
        let merger = Arc::new(Mutex::named(
            MergerState {
                sinks,
                pending: std::collections::BTreeMap::new(),
                legacy_close_counts: std::collections::BTreeMap::new(),
            },
            "session.merger",
        ));

        // Partition the backends' drain work: shardable backends hand
        // out per-shard workers; the rest stay on the coordinator.
        let mut per_shard_drainers: Vec<Vec<Box<dyn ShardDrainer>>> =
            (0..shards).map(|_| Vec::new()).collect();
        let mut classic = Vec::with_capacity(backends.len());
        let mut seeded_sources = Vec::new();
        for backend in &mut backends {
            let drainers = backend.shard_drainers(shards);
            classic.push(drainers.is_empty());
            if drainers.is_empty() {
                // Coordinator-drained backend: its own source list.
                seeded_sources.extend(backend.stream_sources());
            }
            for drainer in drainers {
                // Worker-drained: each worker declares the sources it
                // covers (its slice of the backend's core set).
                seeded_sources.extend(drainer.sources());
                let shard = drainer.shard();
                per_shard_drainers[shard.min(shards - 1)].push(drainer);
            }
        }

        let coordinator = Arc::new(Mutex::named(
            CloseCoordinator::new(WindowClock::new(opts.window_ns), seeded_sources),
            "session.coordinator",
        ));
        let final_round = Arc::new(AtomicBool::new(false));
        let workers_done = Arc::new(AtomicUsize::new(0));

        let mut pumps = Vec::with_capacity(shards);
        let mut backends_slot = Some((backends, classic));
        for (shard, drainers) in per_shard_drainers.into_iter().enumerate() {
            // The coordinator (shard 0) owns the backends: it drains the
            // non-shardable ones, runs the machine probes, and drives
            // the stop sequence.
            let owned = if shard == 0 { backends_slot.take() } else { None };
            let worker = PumpWorker {
                shard,
                machine: active.session.machine.clone(),
                backends: owned,
                drainers,
                bus: bus.clone(),
                coordinator: coordinator.clone(),
                stop: stop.clone(),
                final_round: final_round.clone(),
                workers_done: workers_done.clone(),
                total_workers: shards,
                pool: pool.clone(),
                opts: opts.clone(),
            };
            pumps.push(std::thread::spawn(move || worker.run()));
        }

        let mut consumers = Vec::with_capacity(shards);
        for (shard, workers) in shard_workers.into_iter().enumerate() {
            let lane = bus.lane(shard).clone();
            let merger = merger.clone();
            let snapshot = snapshot.clone();
            let pool = pool.clone();
            consumers.push(std::thread::spawn(move || {
                shard_consumer_loop(shard, shards, lane, workers, merger, snapshot, pool)
            }));
        }

        active.streaming = Some(StreamingState {
            bus,
            stop,
            snapshot,
            pumps,
            consumers,
            merger,
            shards,
            requested_shards,
        });
        Ok(active)
    }

    /// Start collection manually and return the active handle. Use this when
    /// the caller attaches engines itself; call [`ActiveSession::finish`]
    /// when the work is done.
    pub fn start(mut self) -> Result<ActiveSession, NmoError> {
        // Gather per-core observers from every backend, preserving core order.
        let mut per_core: Vec<(usize, Vec<Box<dyn OpObserver>>)> =
            self.cores.iter().map(|&c| (c, Vec::new())).collect();
        for backend in &mut self.backends {
            for co in backend.start(&self.machine, &self.cores, &self.config)? {
                match per_core.iter_mut().find(|(c, _)| *c == co.core) {
                    Some((_, slot)) => slot.push(co.observer),
                    None => {
                        return Err(NmoError::backend(
                            backend.name(),
                            format!("returned an observer for unrequested core {}", co.core),
                        ))
                    }
                }
            }
        }
        let mut attached = Vec::new();
        for (core, mut observers) in per_core {
            let observer: Box<dyn OpObserver> = match observers.len() {
                0 => continue,
                // unwrap-ok: this match arm only runs when len == 1.
                1 => observers.pop().expect("len checked"),
                _ => Box::new(FanoutObserver::new(observers)),
            };
            self.machine.set_observer(core, observer).map_err(NmoError::Sim)?;
            attached.push(core);
        }
        let manual_clock = WindowClock::new(self.stream_options.window_ns);
        Ok(ActiveSession {
            backend_names: self.backends.iter().map(|b| b.name().to_string()).collect(),
            session: self,
            attached,
            streaming: None,
            manual_clock,
            manual_closed_below: 0,
            manual_pool: BatchPool::new(64),
        })
    }
}

/// What a pump worker returns on join: the backends it borrowed for the run
/// (coordinator only), plus the first error any of its drain/stop calls
/// produced.
type PumpOutcome = (Option<CoordinatorBackends>, Result<(), NmoError>);

/// One shard consumer's sink workers, index-aligned with the session's
/// sinks (`None` = legacy sink, fed through the merger mutex).
type ShardWorkerSet = Vec<Option<Box<dyn SinkShard>>>;

/// The coordinator pump's cargo: the session's backends plus the flags
/// marking which of them it drains classically (no shard workers).
type CoordinatorBackends = (Vec<Box<dyn SampleBackend>>, Vec<bool>);

/// How long a shard consumer waits on its lane before re-checking for
/// shutdown.
const CONSUMER_RECV_TIMEOUT: Duration = Duration::from_millis(100);

/// Sinks plus in-flight per-window shard states, shared between the shard
/// consumers of a streaming session. Also the serialisation point for
/// legacy (non-shardable) sinks.
struct MergerState {
    sinks: Vec<Box<dyn AnalysisSink>>,
    /// `(sink index, window index)` → states delivered so far, tagged with
    /// their shard. When every shard has delivered, the states are merged
    /// in ascending shard order.
    pending: std::collections::BTreeMap<(usize, u64), Vec<(usize, ShardState)>>,
    /// Close signals seen per window for the legacy-sink path: legacy sinks
    /// receive a close only once every lane has processed its copy of the
    /// broadcast (so their on-time batches all arrived first).
    legacy_close_counts: std::collections::BTreeMap<u64, usize>,
}

/// The threads and shared state of a streaming session.
struct StreamingState {
    bus: Arc<ShardedBus>,
    stop: Arc<AtomicBool>,
    snapshot: Arc<Mutex<SnapshotState>>,
    pumps: Vec<JoinHandle<PumpOutcome>>,
    consumers: Vec<JoinHandle<ShardWorkerSet>>,
    merger: Arc<Mutex<MergerState>>,
    /// Allocated shard count after resolution/clamping.
    shards: usize,
    /// Shard count the caller configured (0 = auto).
    requested_shards: usize,
}

/// A session that is actively collecting.
pub struct ActiveSession {
    session: ProfileSession,
    attached: Vec<usize>,
    backend_names: Vec<String>,
    streaming: Option<StreamingState>,
    /// Window arithmetic of the manual actuation path
    /// ([`ActiveSession::tiering_step`]); unused while streaming (the pump
    /// owns the clock there).
    manual_clock: WindowClock,
    /// Windows below this index have been closed by `tiering_step`.
    manual_closed_below: u64,
    /// Batch-buffer pool of the manual drain path.
    manual_pool: Arc<BatchPool>,
}

impl std::fmt::Debug for ActiveSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveSession")
            .field("machine", &self.session.machine.config().name)
            .field("attached", &self.attached)
            .finish()
    }
}

impl ActiveSession {
    /// The simulated machine.
    pub fn machine(&self) -> &Machine {
        &self.session.machine
    }

    /// The annotation registry as a shared handle.
    pub fn annotations(&self) -> Arc<Annotations> {
        self.session.annotations.clone()
    }

    /// The annotation registry by reference.
    pub fn annotations_ref(&self) -> &Annotations {
        &self.session.annotations
    }

    /// The profiled cores.
    pub fn cores(&self) -> &[usize] {
        &self.session.cores
    }

    /// `nmo_tag_addr` convenience wrapper.
    pub fn tag_addr(&self, name: &str, start: u64, end: u64) {
        self.session.annotations.tag_addr(name, start, end);
    }

    /// `nmo_start` convenience wrapper (timestamp in simulated nanoseconds).
    pub fn start_phase(&self, name: &str, now_ns: u64) {
        self.session.annotations.start(name, now_ns);
    }

    /// `nmo_stop` convenience wrapper.
    pub fn stop_phase(&self, now_ns: u64) {
        self.session.annotations.stop(now_ns);
    }

    /// Live readout of a streaming session: the windows seen and closed so
    /// far, sample/batch counts, counter totals, bus accounting, and the
    /// machine's page-migration counters. Returns `None` on a non-streaming
    /// session.
    pub fn poll_snapshot(&self) -> Option<StreamSnapshot> {
        self.streaming.as_ref().map(|s| {
            s.snapshot.lock().snapshot(
                s.bus.stats(),
                &s.bus.lane_stats(),
                self.session.machine.migration_stats(),
            )
        })
    }

    /// The manual actuator hook of profile-guided tiering: synchronously
    /// drain every backend into `tracker`, close every window the sample
    /// watermark has passed (each close runs the tracker's
    /// [`crate::tiering::TieringPolicy`]), and apply the resulting
    /// migrations to the machine via
    /// [`arch_sim::Machine::migrate_page`]. Returns the migrations applied
    /// by this step.
    ///
    /// Call it from the workload-driving thread between chunks of work
    /// (with no engine attached, so buffered SPE records flush first) —
    /// drains and decisions then happen at fixed points of the *simulated*
    /// timeline, which is what makes tiering runs reproducible (see
    /// `tests/tiering.rs`). Window width comes from
    /// [`ProfileSessionBuilder::stream_options`].
    ///
    /// On a streaming session this returns an error: there the registered
    /// tracker sink actuates by itself at each per-window shard merge.
    pub fn tiering_step(
        &mut self,
        tracker: &mut crate::tiering::HotPageTracker,
    ) -> Result<Vec<crate::tiering::AppliedMigration>, NmoError> {
        if self.streaming.is_some() {
            return Err(NmoError::Config(
                "tiering_step drives non-streaming sessions; a streaming session actuates \
                 through the registered HotPageTracker sink"
                    .into(),
            ));
        }
        let machine = self.session.machine.clone();
        tracker.configure(machine.config());
        let mut clock = self.manual_clock;
        for backend in &mut self.session.backends {
            for batch in backend.drain(&machine, &clock, &self.manual_pool)? {
                if let Some(t) = batch.max_time_ns() {
                    clock.observe(t);
                }
                tracker.ingest(&batch);
                self.manual_pool.recycle_batch(batch);
            }
        }
        let mut applied = Vec::new();
        let threshold = clock.index_of(clock.watermark_ns());
        while self.manual_closed_below < threshold {
            let window = clock.window(self.manual_closed_below);
            applied.extend(tracker.close_window(window, Some(&machine)));
            self.manual_closed_below += 1;
        }
        self.manual_clock = clock;
        Ok(applied)
    }

    /// Stop collection, drain the backends, run the sinks, and assemble the
    /// [`Profile`].
    pub fn finish(mut self) -> Result<Profile, NmoError> {
        for &core in &self.attached {
            // Dropping the observer box releases the backend's per-core
            // instrument; the final aux drain was published when the last
            // engine detached.
            let _ = self.session.machine.take_observer(core);
        }

        let mut stream_stats = None;
        match self.streaming.take() {
            Some(streaming) => {
                // The coordinator pump stops the backends itself (monitor
                // joins + final drains on every worker), publishes the
                // remainder, closes every window, and closes the bus —
                // which lets the consumers exit.
                streaming.stop.store(true, Ordering::Release);
                let mut backends = None;
                let mut pump_result: Result<(), NmoError> = Ok(());
                let mut pump_panicked = false;
                for pump in streaming.pumps {
                    match pump.join() {
                        Ok((owned, result)) => {
                            if owned.is_some() {
                                backends = owned;
                            }
                            if let Err(e) = result {
                                if pump_result.is_ok() {
                                    pump_result = Err(e);
                                }
                            }
                        }
                        Err(_) => pump_panicked = true,
                    }
                }
                // A dead coordinator never closed the lanes; close them here
                // so the consumers (joined below) can exit instead of
                // polling an open, silent bus forever. (Idempotent on the
                // clean path.)
                streaming.bus.close_all();

                // Joined in shard order, so `shard_workers` is ascending.
                let mut consumer_panicked = false;
                let mut shard_workers: Vec<ShardWorkerSet> = Vec::new();
                for consumer in streaming.consumers {
                    match consumer.join() {
                        Ok(workers) => shard_workers.push(workers),
                        Err(_) => consumer_panicked = true,
                    }
                }

                let mut merger = streaming.merger.lock();
                let mut sinks = std::mem::take(&mut merger.sinks);
                if !consumer_panicked && !pump_panicked {
                    // Merge any per-window states that never completed
                    // (defensive: the shutdown close-broadcast normally
                    // drains them), then the shards' final states — both in
                    // ascending shard order.
                    let clock = WindowClock::new(self.session.stream_options.window_ns.max(1));
                    for ((sink_index, index), states) in std::mem::take(&mut merger.pending) {
                        merge_window_states(
                            sinks[sink_index].as_mut(),
                            clock.window(index),
                            states,
                        );
                    }
                    for (sink_index, sink) in sinks.iter_mut().enumerate() {
                        let states: Vec<ShardState> = shard_workers
                            .iter_mut()
                            .filter_map(|workers| workers[sink_index].take())
                            .map(|worker| worker.finish())
                            .collect();
                        if let Some(shardable) = sink.as_shardable() {
                            shardable.merge_final(states);
                        }
                    }
                }
                drop(merger);
                self.session.sinks = sinks;

                let backends = match backends {
                    Some((backends, _classic)) => backends,
                    None => {
                        return Err(NmoError::backend("stream-pump", "pump thread panicked"));
                    }
                };
                self.session.backends = backends;
                if pump_panicked {
                    return Err(NmoError::backend("stream-pump", "pump worker panicked"));
                }
                if consumer_panicked {
                    return Err(NmoError::sink("stream-consumer", "consumer thread panicked"));
                }
                pump_result?;
                let state = streaming.snapshot.lock();
                let bus = streaming.bus.stats();
                stream_stats = Some(StreamStats {
                    windows_closed: state.windows_closed,
                    batches_published: state.batches,
                    batches_dropped: bus.dropped_batches,
                    items_dropped: bus.dropped_items,
                    late_batches: state.late_batches,
                    bus_high_watermark: bus.high_watermark,
                    shards: streaming.shards as u64,
                    shards_requested: streaming.requested_shards as u64,
                });
            }
            None => {
                for backend in &mut self.session.backends {
                    backend.stop(&self.session.machine)?;
                }
            }
        }

        let mut profile = crate::runtime::base_profile(
            &self.session.machine,
            &self.session.config,
            &self.session.annotations,
        );
        profile.backends = self.backend_names.clone();
        profile.stream = stream_stats;
        for backend in &mut self.session.backends {
            backend.fill(&mut profile)?;
        }
        crate::runtime::warn_on_loss(&profile);
        run_sinks(&self.session.machine, &mut profile, &mut self.session.sinks)?;
        Ok(profile)
    }
}

/// Abandoning an active streaming session (e.g. a workload error unwinding
/// past `finish`) must not leave the pump and consumer threads spinning:
/// signal them to stop and close the bus so both exit; the backends close
/// their perf events when the pump drops them.
impl Drop for ActiveSession {
    fn drop(&mut self) {
        if let Some(streaming) = self.streaming.take() {
            streaming.stop.store(true, Ordering::Release);
            streaming.bus.close_all();
        }
    }
}

/// A source that has been quiet for this many pump ticks stops holding the
/// close watermark back (it is presumed done, not lagging — e.g. the RSS
/// probe after the allocation phase, or an SPE core whose thread exited).
/// At the default 200 µs pump interval this is a 50 ms wall-clock grace —
/// comfortably above one aux-watermark publication interval.
const SOURCE_IDLE_TICKS: u64 = 250;

/// The per-source watermarks a batch advances: per-core maxima for SPE
/// sample batches (each core's aux buffer publishes at its own cadence, so
/// the slowest core bounds what may close), the batch maximum otherwise.
fn source_marks(batch: &SampleBatch) -> Vec<(StreamSource, u64)> {
    let Some(max) = batch.max_time_ns() else { return Vec::new() };
    if let BatchPayload::SpeSamples { samples, .. } = batch.payload() {
        let mut per_core: std::collections::BTreeMap<usize, u64> =
            std::collections::BTreeMap::new();
        for s in samples {
            let entry = per_core.entry(s.core).or_insert(0);
            *entry = (*entry).max(s.time_ns);
        }
        per_core.into_iter().map(|(core, t)| ((batch.backend, Some(core)), t)).collect()
    } else {
        vec![((batch.backend, None), max)]
    }
}

/// Producer-side close bookkeeping, shared by every pump worker of a
/// session: the window clock, the set of windows awaiting closure, and a
/// per-source watermark — a window only closes once every recently active,
/// timestamp-carrying source has moved past it (e.g. the SPE aux watermark
/// publishes in bursts that lag the RSS probe, and closing on the global
/// maximum alone would make every SPE burst arrive late). The workers mark
/// their sources under the mutex after publishing; only the coordinator
/// closes windows (broadcasting the close to every lane).
struct CloseCoordinator {
    clock: WindowClock,
    open_windows: std::collections::BTreeSet<u64>,
    closed_below: u64,
    /// Per-source `(watermark_ns, last tick the source produced)`.
    sources: std::collections::BTreeMap<StreamSource, (u64, u64)>,
    tick: u64,
}

impl CloseCoordinator {
    /// Seed the watermark with every declared producer so nothing closes
    /// until each has delivered its first data (or sat out the idle grace).
    fn new(clock: WindowClock, seeded_sources: Vec<StreamSource>) -> Self {
        CloseCoordinator {
            clock,
            open_windows: std::collections::BTreeSet::new(),
            closed_below: 0,
            sources: seeded_sources.into_iter().map(|s| (s, (0, 0))).collect(),
            tick: 0,
        }
    }

    fn mark_source(&mut self, key: StreamSource, t_ns: u64) {
        let tick = self.tick;
        let entry = self.sources.entry(key).or_insert((0, tick));
        entry.0 = entry.0.max(t_ns);
        entry.1 = tick;
    }

    /// Register one published batch: advance the clock and its sources'
    /// watermarks, and track its window as open. Must be called *after* the
    /// batch was enqueued — the close threshold may only move once the data
    /// that justifies it is on a lane.
    fn note_published(&mut self, window_index: u64, marks: &[(StreamSource, u64)]) {
        for &(source, t_ns) in marks {
            self.clock.observe(t_ns);
            self.mark_source(source, t_ns);
        }
        if window_index >= self.closed_below {
            self.open_windows.insert(window_index);
        }
    }

    /// The window index below which every active source has delivered.
    fn close_threshold(&self) -> u64 {
        let active_min = self
            .sources
            .values()
            .filter(|(_, last_tick)| self.tick.saturating_sub(*last_tick) < SOURCE_IDLE_TICKS)
            .map(|(watermark, _)| self.clock.index_of(*watermark))
            .min();
        active_min.unwrap_or_else(|| self.clock.index_of(self.clock.watermark_ns()))
    }

    /// Close every open window every active producer has moved past — those
    /// can no longer receive on-time data. Close signals are broadcast to
    /// every lane (they bypass lane capacity, so this never blocks).
    fn close_ready_windows(&mut self, bus: &ShardedBus) {
        let threshold = self.close_threshold();
        while let Some(&index) = self.open_windows.iter().next() {
            if index >= threshold {
                break;
            }
            self.open_windows.remove(&index);
            bus.broadcast_close(self.clock.window(index));
            self.closed_below = self.closed_below.max(index + 1);
        }
    }

    /// Shutdown: close everything still open, ascending.
    fn close_remaining(&mut self, bus: &ShardedBus) {
        for index in std::mem::take(&mut self.open_windows) {
            bus.broadcast_close(self.clock.window(index));
            self.closed_below = self.closed_below.max(index + 1);
        }
    }
}

/// Publish a batch on the sharded bus and register it with the close
/// coordinator (in that order — see [`CloseCoordinator::note_published`]).
fn publish_batch(batch: SampleBatch, bus: &ShardedBus, coordinator: &Mutex<CloseCoordinator>) {
    let marks = source_marks(&batch);
    let window_index = batch.window.index;
    // Ordering rationale (pinned): publish-then-mark. The watermark may
    // only advance once the data justifying it is queued on a lane —
    // marking first would let a concurrent close-threshold computation
    // close the batch's window before the batch is visible to its shard
    // consumer, violating the close-after-on-time-data contract. Both
    // operations are mutex-protected (lane queue, coordinator), so the
    // program order here is the inter-thread order. Note this nests
    // bus-lock inside-then-before coordinator-lock; `close_ready_windows`
    // takes coordinator then bus, but `bus.publish` has released the lane
    // lock before `coordinator.lock()` runs (no lock is held across the
    // two calls), so no cycle exists — the `NMO_LOCK_CHECK` runtime
    // checker verifies exactly this in the stress suite.
    bus.publish(batch);
    coordinator.lock().note_published(window_index, &marks);
}

/// One pump worker of the streaming pipeline. The worker for shard 0 is the
/// *coordinator*: it owns the backends (draining the non-shardable ones),
/// runs the machine probes, closes ready windows, and drives the shutdown
/// sequence — stop the backends, signal the final drain round, wait for
/// every worker's final publish, deliver the bandwidth series, close the
/// remaining windows, and close every lane. Every worker, the coordinator
/// included, drains its own shard's [`ShardDrainer`]s and publishes onto
/// the bus.
struct PumpWorker {
    shard: usize,
    machine: Arc<Machine>,
    /// `Some((backends, classic flags))` on the coordinator: `classic[i]`
    /// marks backends without shard workers, drained here.
    backends: Option<CoordinatorBackends>,
    /// This shard's backend drain workers, owned outright.
    drainers: Vec<Box<dyn ShardDrainer>>,
    bus: Arc<ShardedBus>,
    coordinator: Arc<Mutex<CloseCoordinator>>,
    stop: Arc<AtomicBool>,
    final_round: Arc<AtomicBool>,
    workers_done: Arc<AtomicUsize>,
    total_workers: usize,
    pool: Arc<BatchPool>,
    opts: StreamOptions,
}

impl PumpWorker {
    fn run(mut self) -> PumpOutcome {
        let shard = self.shard;
        let final_round = self.final_round.clone();
        let workers_done = self.workers_done.clone();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_inner()));
        match outcome {
            Ok(outcome) => outcome,
            Err(_) => {
                // Do not wedge the other threads: a dead coordinator can no
                // longer start the final round, and every worker owes the
                // done-counter its increment.
                if shard == 0 {
                    final_round.store(true, Ordering::Release);
                }
                workers_done.fetch_add(1, Ordering::AcqRel);
                (
                    None,
                    Err(NmoError::backend("stream-pump", format!("pump worker {shard} panicked"))),
                )
            }
        }
    }

    fn run_inner(&mut self) -> PumpOutcome {
        let is_coordinator = self.shard == 0;
        let mut rss_cursor = 0usize;
        let mut result: Result<(), NmoError> = Ok(());
        let record = |e: NmoError, result: &mut Result<(), NmoError>| {
            if result.is_ok() {
                *result = Err(e);
            }
        };

        loop {
            if is_coordinator {
                self.coordinator.lock().tick += 1;
            }
            if is_coordinator
                && self.stop.load(Ordering::Acquire)
                && !self.final_round.load(Ordering::Acquire)
            {
                // Observers are detached; join the SPE monitor and run the
                // backends' final synchronous drains into their stores,
                // then open the final drain round for every worker.
                if let Some((backends, _)) = self.backends.as_mut() {
                    for backend in backends.iter_mut() {
                        if let Err(e) = backend.stop(&self.machine) {
                            record(e, &mut result);
                        }
                    }
                }
                self.final_round.store(true, Ordering::Release);
            }
            let finishing = self.final_round.load(Ordering::Acquire);

            let clock = self.coordinator.lock().clock;
            for drainer in self.drainers.iter_mut() {
                match drainer.drain(&self.machine, &clock, &self.pool) {
                    Ok(batches) => {
                        for batch in batches {
                            publish_batch(batch, &self.bus, &self.coordinator);
                        }
                    }
                    Err(e) => record(e, &mut result),
                }
            }
            if let Some((backends, classic)) = self.backends.as_mut() {
                for (backend, is_classic) in backends.iter_mut().zip(classic.iter()) {
                    if !is_classic {
                        continue;
                    }
                    match backend.drain(&self.machine, &clock, &self.pool) {
                        Ok(batches) => {
                            for batch in batches {
                                publish_batch(batch, &self.bus, &self.coordinator);
                            }
                        }
                        Err(e) => record(e, &mut result),
                    }
                }
                // Machine probe: new RSS step events since the previous
                // tick (coordinator only — the probe is machine-wide).
                let fresh = self.machine.rss_events_since(rss_cursor);
                if !fresh.is_empty() {
                    rss_cursor += fresh.len();
                    for (window, points) in clock.group_by_window(fresh, |p| p.time_ns) {
                        publish_batch(
                            SampleBatch::new("machine", None, window, BatchPayload::Rss { points }),
                            &self.bus,
                            &self.coordinator,
                        );
                    }
                }
            }

            if finishing {
                self.workers_done.fetch_add(1, Ordering::AcqRel);
                if !is_coordinator {
                    return (None, result);
                }
                // Coordinator: wait for every worker's final publish, then
                // deliver the bandwidth series, close what remains, and
                // close the lanes so the consumers can exit.
                while self.workers_done.load(Ordering::Acquire) < self.total_workers {
                    // Join-barrier poll at shutdown; not on the hot path.
                    #[allow(clippy::disallowed_methods)]
                    std::thread::sleep(Duration::from_millis(1));
                }
                let bw = self.machine.bandwidth_series();
                for (window, points) in clock.group_by_window(bw, |p| p.time_ns) {
                    publish_batch(
                        SampleBatch::new(
                            "machine",
                            None,
                            window,
                            BatchPayload::Bandwidth { points },
                        ),
                        &self.bus,
                        &self.coordinator,
                    );
                }
                self.coordinator.lock().close_remaining(&self.bus);
                self.bus.close_all();
                return (self.backends.take(), result);
            }

            if is_coordinator {
                self.coordinator.lock().close_ready_windows(&self.bus);
            }
            // Drain cadence: the workers sample the backends at the
            // configured wall-clock interval (nothing signals "new simulated
            // work").
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(self.opts.poll_interval);
        }
    }
}

/// One shard consumer of the streaming pipeline: it drains its lane, feeds
/// its [`SinkShard`] workers lock-free, serialises legacy sinks through the
/// merger mutex, and delivers per-window shard states to the merger (the
/// shard whose delivery completes a window performs that window's merge, in
/// ascending shard order, under the merger lock).
///
/// A panicking sink shard must not kill the thread outright: under
/// [`crate::stream::BackpressurePolicy::Block`] a dead consumer would leave
/// its lane's pump worker wedged in `publish` forever (and `finish` wedged
/// joining it). Instead the panic is caught, the loop keeps draining
/// (discarding) until the lane closes, and the panic is rethrown so the
/// join in [`ActiveSession::finish`] surfaces it as an error.
fn shard_consumer_loop(
    shard: usize,
    shard_count: usize,
    lane: Arc<EventBus>,
    mut workers: ShardWorkerSet,
    merger: Arc<Mutex<MergerState>>,
    snapshot: Arc<Mutex<SnapshotState>>,
    pool: Arc<BatchPool>,
) -> ShardWorkerSet {
    let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
    loop {
        match lane.recv_timeout(CONSUMER_RECV_TIMEOUT) {
            BusRecv::Event(event) => {
                {
                    let mut snap = snapshot.lock();
                    match &event {
                        BusEvent::Batch(batch) => snap.record_batch(batch, shard),
                        BusEvent::CloseWindow(window) => snap.record_close(*window, shard_count),
                    }
                }
                if panic_payload.is_none() {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        dispatch_shard_event(shard, shard_count, &event, &mut workers, &merger);
                    }));
                    if let Err(payload) = result {
                        panic_payload = Some(payload);
                    }
                }
                if let BusEvent::Batch(batch) = event {
                    pool.recycle_batch(batch);
                }
            }
            BusRecv::TimedOut => {}
            BusRecv::Closed => match panic_payload {
                Some(payload) => std::panic::resume_unwind(payload),
                None => return workers,
            },
        }
    }
}

fn dispatch_shard_event(
    shard: usize,
    shard_count: usize,
    event: &BusEvent,
    workers: &mut [Option<Box<dyn SinkShard>>],
    merger: &Mutex<MergerState>,
) {
    match event {
        BusEvent::Batch(batch) => {
            let mut any_legacy = false;
            for worker in workers.iter_mut() {
                match worker {
                    Some(worker) => worker.on_batch(batch),
                    None => any_legacy = true,
                }
            }
            if any_legacy {
                // Legacy fallback: legacy sinks see every batch, serialised
                // under the merger lock (per-lane order preserved).
                let mut merger = merger.lock();
                let merger = &mut *merger;
                for (index, worker) in workers.iter().enumerate() {
                    if worker.is_none() {
                        merger.sinks[index].on_batch(batch);
                    }
                }
            }
        }
        BusEvent::CloseWindow(window) => {
            for (index, worker) in workers.iter_mut().enumerate() {
                let Some(worker) = worker else { continue };
                let Some(state) = worker.on_window_close(*window) else { continue };
                let mut merger = merger.lock();
                let merger = &mut *merger;
                let entry = merger.pending.entry((index, window.index)).or_default();
                entry.push((shard, state));
                if entry.len() == shard_count {
                    let states = merger.pending.remove(&(index, window.index)).unwrap_or_default();
                    merge_window_states(merger.sinks[index].as_mut(), *window, states);
                }
            }
            {
                // Legacy sinks get each close exactly once, and only after
                // every lane has processed its copy of the broadcast — by
                // then each lane's on-time batches for the window have been
                // forwarded (they precede the close in lane order), so the
                // close-after-on-time-data contract holds for legacy sinks
                // at every width.
                let mut merger = merger.lock();
                let merger = &mut *merger;
                let seen = merger.legacy_close_counts.entry(window.index).or_insert(0);
                *seen += 1;
                if *seen == shard_count {
                    merger.legacy_close_counts.remove(&window.index);
                    for (index, worker) in workers.iter().enumerate() {
                        if worker.is_none() {
                            merger.sinks[index].on_window_close(*window);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::AnalysisReport;
    use arch_sim::MachineConfig;

    fn small_session(period: u64, threads: usize) -> ProfileSession {
        ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(period))
            .threads(threads)
            .build()
            .unwrap()
    }

    fn stream_like(
        machine: &Machine,
        annotations: &Annotations,
        cores: &[usize],
    ) -> Result<(), NmoError> {
        let region = machine.alloc("data", 1 << 20)?;
        annotations.tag_addr("data", region.start, region.end());
        std::thread::scope(|s| {
            for &core in cores {
                let region = region.clone();
                s.spawn(move || {
                    let mut e = machine.attach(core).expect("attach");
                    for i in 0..20_000u64 {
                        e.load(region.start + (i % 10_000) * 8, 8);
                        e.store(region.start + (i % 10_000) * 8, 8);
                    }
                });
            }
        });
        Ok(())
    }

    #[test]
    fn builder_rejects_bad_cores() {
        let err = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .cores([0, 99])
            .build()
            .unwrap_err();
        assert!(matches!(err, NmoError::Config(_)), "{err}");
        let err = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .cores([1, 1])
            .build()
            .unwrap_err();
        assert!(matches!(err, NmoError::Config(_)), "{err}");
    }

    #[test]
    fn run_without_workload_is_a_config_error() {
        let err = small_session(100, 1).run().unwrap_err();
        assert!(matches!(err, NmoError::Config(_)), "{err}");
    }

    #[test]
    fn default_backends_run_spe_and_counters_together() {
        let session = small_session(100, 2);
        let profile = session.run_with(stream_like).unwrap();
        assert_eq!(profile.backends, vec!["spe".to_string(), "counters".to_string()]);
        assert!(profile.processed_samples > 100);
        // The counter backend's mem_access agrees with the machine counter.
        let mem = profile.perf_count("mem_access").unwrap();
        assert_eq!(mem, profile.counters.mem_access);
        // Default sinks produced capacity and bandwidth; region attribution
        // stays lazy unless RegionSink is registered explicitly.
        assert_eq!(profile.analyses.len(), 2);
        assert!(profile.capacity.peak_bytes > 0);
        assert!(profile.bandwidth.total_bytes > 0);
        assert!(!profile.regions().scatter.is_empty());
    }

    #[test]
    fn explicit_region_sink_caches_attribution_on_the_profile() {
        let session = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(100))
            .threads(1)
            .sink(crate::sink::RegionSink::default())
            .build()
            .unwrap();
        let profile = session.run_with(stream_like).unwrap();
        assert!(profile.analyses.iter().any(|a| a.sink == "regions"
            && matches!(&a.report, AnalysisReport::Regions(r) if !r.scatter.is_empty())));
    }

    #[test]
    fn counter_only_session_samples_nothing_but_counts() {
        let session = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig { enabled: true, track_rss: true, ..NmoConfig::default() })
            .threads(1)
            .build()
            .unwrap();
        let profile = session.run_with(stream_like).unwrap();
        assert_eq!(profile.backends, vec!["counters".to_string()]);
        assert_eq!(profile.processed_samples, 0);
        assert!(profile.samples.is_empty());
        assert_eq!(profile.perf_count("mem_access"), Some(40_000));
        assert_eq!(profile.counters.observer_cycles, 0, "counting charges no cycles");
    }

    #[test]
    fn disabled_config_attaches_no_backends() {
        let session = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::default())
            .threads(1)
            .build()
            .unwrap();
        let profile = session.run_with(stream_like).unwrap();
        assert!(profile.backends.is_empty());
        assert_eq!(profile.processed_samples, 0);
        assert_eq!(profile.counters.observer_cycles, 0);
    }

    #[test]
    fn manual_start_finish_flow() {
        let session = small_session(50, 1);
        let active = session.start().unwrap();
        let region = active.machine().alloc("a", 1 << 16).unwrap();
        active.tag_addr("a", region.start, region.end());
        {
            let mut e = active.machine().attach(0).unwrap();
            active.start_phase("kernel", e.now_ns());
            for i in 0..10_000u64 {
                e.load(region.start + (i % 1_000) * 8, 8);
            }
            active.stop_phase(e.now_ns());
        }
        let profile = active.finish().unwrap();
        assert!(profile.processed_samples > 0);
        assert_eq!(profile.phases.len(), 1);
        assert!(!profile.phases[0].is_open());
    }

    #[test]
    fn explicit_backend_and_sink_registration_overrides_defaults() {
        let session = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(100))
            .threads(1)
            .backend(CounterBackend::new())
            .sink(crate::sink::BandwidthSink::default())
            .build()
            .unwrap();
        let profile = session.run_with(stream_like).unwrap();
        assert_eq!(profile.backends, vec!["counters".to_string()]);
        assert_eq!(profile.processed_samples, 0, "no SPE backend registered");
        assert_eq!(profile.analyses.len(), 1);
        assert!(profile.capacity.points.is_empty(), "no capacity sink registered");
    }

    #[test]
    fn streaming_closure_run_matches_post_hoc_exactly_single_threaded() {
        // One thread → fully deterministic simulation, so the streaming
        // pipeline's windowed merge must reproduce the post-hoc scan exactly.
        let build = || {
            ProfileSession::builder()
                .machine_config(MachineConfig::small_test())
                .config(NmoConfig::paper_default(100))
                .threads(1)
                .sink(crate::sink::CapacitySink::default())
                .sink(crate::sink::BandwidthSink::default())
                .sink(crate::sink::RegionSink::default())
                .build()
                .unwrap()
        };
        let post_hoc = build().run_with(stream_like).unwrap();
        let streamed = build().run_streaming_with(stream_like).unwrap();

        assert_eq!(streamed.processed_samples, post_hoc.processed_samples);
        assert_eq!(streamed.samples, post_hoc.samples);
        assert_eq!(streamed.capacity, post_hoc.capacity);
        assert_eq!(streamed.bandwidth, post_hoc.bandwidth);
        let (r_s, r_p) = (streamed.regions(), post_hoc.regions());
        assert_eq!(r_s.per_tag, r_p.per_tag);
        assert_eq!(r_s.untagged_samples, r_p.untagged_samples);
        assert_eq!(r_s.per_phase, r_p.per_phase);

        assert!(post_hoc.stream.is_none());
        let stats = streamed.stream.expect("streaming run records pipeline stats");
        assert!(stats.batches_published > 0, "{stats:?}");
        assert!(stats.windows_closed > 0, "{stats:?}");
        assert_eq!(stats.batches_dropped, 0, "default bus must not drop: {stats:?}");
    }

    #[test]
    fn streaming_without_workload_is_a_config_error() {
        let err = small_session(100, 1).run_streaming().unwrap_err();
        assert!(matches!(err, NmoError::Config(_)), "{err}");
    }

    /// A sink that panics mid-stream must surface as an error, not wedge the
    /// session: under `Block` backpressure a dead consumer would otherwise
    /// leave the pump stuck in `publish` and `finish` stuck joining it.
    #[test]
    fn panicking_sink_surfaces_as_error_not_deadlock() {
        struct PanickingSink;
        impl crate::sink::AnalysisSink for PanickingSink {
            fn name(&self) -> &'static str {
                "boom"
            }
            fn analyze(
                &mut self,
                _machine: &Machine,
                _profile: &Profile,
            ) -> Result<crate::sink::AnalysisReport, NmoError> {
                Ok(crate::sink::AnalysisReport::Text(String::new()))
            }
            fn on_batch(&mut self, _batch: &SampleBatch) {
                panic!("sink exploded");
            }
        }
        let session = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .config(NmoConfig::paper_default(100))
            .threads(1)
            .sink(PanickingSink)
            .stream_options(crate::stream::StreamOptions {
                bus_capacity: 2,
                backpressure: crate::stream::BackpressurePolicy::Block,
                ..Default::default()
            })
            .build()
            .unwrap();
        let err = session.run_streaming_with(stream_like).unwrap_err();
        assert!(matches!(err, NmoError::Sink { .. }), "{err}");
    }

    /// A legacy (non-shardable) sink is fed through the merger mutex at
    /// every width: it sees every published batch, and each window close
    /// exactly once.
    #[test]
    fn legacy_sink_sees_every_batch_and_each_close_once() {
        #[derive(Default)]
        struct Seen {
            batches: u64,
            closes: std::collections::BTreeMap<u64, u64>,
        }
        struct CountingSink(Arc<Mutex<Seen>>);
        impl crate::sink::AnalysisSink for CountingSink {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn analyze(
                &mut self,
                _machine: &Machine,
                _profile: &Profile,
            ) -> Result<crate::sink::AnalysisReport, NmoError> {
                Ok(crate::sink::AnalysisReport::Text(String::new()))
            }
            fn on_batch(&mut self, _batch: &SampleBatch) {
                self.0.lock().batches += 1;
            }
            fn on_window_close(&mut self, window: crate::stream::Window) {
                *self.0.lock().closes.entry(window.index).or_insert(0) += 1;
            }
        }
        for shards in [1, 2] {
            let seen = Arc::new(Mutex::named(Seen::default(), "test.seen"));
            let profile = ProfileSession::builder()
                .machine_config(MachineConfig::small_test())
                .config(NmoConfig::paper_default(100))
                .threads(2)
                .sink(CountingSink(seen.clone()))
                .stream_options(crate::stream::StreamOptions {
                    window_ns: 20_000,
                    shards,
                    backpressure: crate::stream::BackpressurePolicy::Block,
                    ..Default::default()
                })
                .build()
                .unwrap()
                .run_streaming_with(stream_like)
                .unwrap();
            let stats = profile.stream.expect("streaming run records pipeline stats");
            assert_eq!(stats.shards, shards as u64);
            let seen = seen.lock();
            assert!(seen.batches > 0 && stats.windows_closed > 1, "{stats:?}");
            assert_eq!(seen.batches, stats.batches_published, "shards={shards}");
            assert!(seen.closes.values().all(|&n| n == 1), "shards={shards}: {:?}", seen.closes);
            assert_eq!(seen.closes.len() as u64, stats.windows_closed, "shards={shards}");
        }
    }

    #[test]
    fn poll_snapshot_is_none_without_streaming_and_live_with_it() {
        let active = small_session(100, 1).start().unwrap();
        assert!(active.poll_snapshot().is_none());
        drop(active.finish().unwrap());

        let active = small_session(100, 1).start_streaming().unwrap();
        let region = active.machine().alloc("data", 1 << 20).unwrap();
        active.tag_addr("data", region.start, region.end());
        {
            let mut e = active.machine().attach(0).unwrap();
            for i in 0..50_000u64 {
                e.load(region.start + (i % 10_000) * 8, 8);
            }
        }
        // Give the pump a few ticks to drain the detached core.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let snap = active.poll_snapshot().expect("streaming session has snapshots");
            if snap.spe_samples > 0 || std::time::Instant::now() > deadline {
                assert!(snap.spe_samples > 0, "pump never delivered: {snap:?}");
                break;
            }
            #[allow(clippy::disallowed_methods)] // test poll loop
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let profile = active.finish().unwrap();
        assert!(profile.processed_samples > 0);
    }

    #[test]
    fn workload_verification_failure_surfaces_as_error() {
        struct BadWorkload;
        impl Workload for BadWorkload {
            fn name(&self) -> &'static str {
                "bad"
            }
            fn setup(&mut self, _m: &Machine, _a: &Annotations) -> Result<(), NmoError> {
                Ok(())
            }
            fn run(
                &mut self,
                _m: &Machine,
                _a: &Annotations,
                _c: &[usize],
            ) -> Result<crate::WorkloadReport, NmoError> {
                Ok(crate::WorkloadReport::default())
            }
            fn verify(&self) -> bool {
                false
            }
        }
        let err = ProfileSession::builder()
            .machine_config(MachineConfig::small_test())
            .threads(1)
            .workload(Box::new(BadWorkload))
            .build()
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(err, NmoError::Workload(_)), "{err}");
    }
}
