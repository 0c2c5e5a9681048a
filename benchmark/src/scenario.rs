//! The benchmark workloads, each driving real `ProfileSession` runs, the
//! replay loop of the traced `pagerank-stream` run, and the correctness
//! gate every repetition must pass.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use arch_sim::{Machine, MachineConfig};
use nmo::sink::AnalysisReport;
use nmo::{
    AnalysisSink, Annotations, BandwidthSink, CapacitySink, CounterBackend, HotPageTracker,
    LatencyProfile, LatencySink, NmoConfig, NmoError, Profile, ProfileSession,
    ProfileSessionBuilder, RegionProfile, RegionSink, SampleBackend, SpeBackend, StreamContext,
    StreamOptions, TopKHot, TraceQuery, TraceReader, TraceWriterSink, Workload,
};
use workloads::{PageRank, StreamBench};

use crate::spans::{Recorder, TimedBackend, TimedSink};

/// STREAM triad: elements per array and kernel repetitions.
const STREAM_N: usize = 1 << 20;
const STREAM_ITERS: usize = 2;
const STREAM_PERIOD: u64 = 4096;

/// PageRank on an RMAT graph: vertices, average degree, power iterations.
const PR_VERTICES: usize = 1 << 17;
const PR_DEGREE: usize = 8;
const PR_ITERS: usize = 2;
const PR_PERIOD: u64 = 256;
const PR_SHARDS: usize = 2;

/// Sequential replays of each recorded trace per replay repetition of the
/// traced `pagerank-stream` run.
const REPLAYS_PER_TRACE: usize = 2;

/// Per-layer figures of one repetition, keyed by metric name.
pub type Layers = BTreeMap<String, f64>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    StreamPosthoc,
    PagerankStream,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "stream-posthoc" => Some(Kind::StreamPosthoc),
            "pagerank-stream" => Some(Kind::PagerankStream),
            _ => None,
        }
    }
}

/// What the benchmark hands every session: the workload, the profiled core
/// pair, where output files go, and whether the run is traced.
#[derive(Clone)]
pub struct Setting {
    pub kind: Kind,
    pub cores: [usize; 2],
    pub dir: PathBuf,
    pub traced: bool,
}

impl Setting {
    fn trace_dir(&self) -> PathBuf {
        self.dir.join("trace")
    }

    /// A fresh span recorder for one repetition of a traced run.
    fn recorder(&self) -> Option<Arc<Recorder>> {
        self.traced.then(|| Arc::new(Recorder::default()))
    }
}

/// Registers backends and sinks — wrapped in timing spans when a recorder
/// is present, so the traced and untraced runs register the same set.
struct Wiring(Option<Arc<Recorder>>);

impl Wiring {
    fn backend<B: SampleBackend + 'static>(
        &self,
        builder: ProfileSessionBuilder,
        backend: B,
    ) -> ProfileSessionBuilder {
        match &self.0 {
            Some(rec) => builder.backend(TimedBackend::new(backend, rec.clone())),
            None => builder.backend(backend),
        }
    }

    fn sink<S: AnalysisSink + 'static>(
        &self,
        builder: ProfileSessionBuilder,
        sink: S,
    ) -> ProfileSessionBuilder {
        match &self.0 {
            Some(rec) => {
                let prefix = span_prefix(&sink);
                builder.sink(TimedSink::new(sink, prefix, rec.clone()))
            }
            None => builder.sink(sink),
        }
    }
}

/// Span prefix of a sink: the trace writer is the trace layer's encoder,
/// every other sink reports under `sink.<name>`.
fn span_prefix(sink: &dyn AnalysisSink) -> String {
    match sink.name() {
        "trace-writer" => "trace.writer".to_string(),
        name => format!("sink.{name}"),
    }
}

/// Figures of one profiled (collecting) run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimFigures {
    pub accuracy: f64,
    pub loss_frac: f64,
    pub sim_ms: f64,
    pub sim_cycles: u64,
}

/// One repetition's outcome.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub setup_s: f64,
    /// The timed phase.
    pub wall_s: f64,
    /// Profiled session part of the timed phase (start → finish).
    pub session_s: f64,
    pub sim: SimFigures,
    /// Correctness-gate failures; a repetition with any is a failed
    /// operation and reports no figures.
    pub failures: Vec<String>,
    pub layers: Layers,
}

/// A recorded `pagerank-stream` run the traced run replays, with what its
/// replays must reproduce.
pub struct Recording {
    pub rep: Rep,
    trace_dir: PathBuf,
    annotations: Arc<Annotations>,
    /// The recorded tags and phases in an otherwise empty profile: what the
    /// replayed sinks' `finish` reads (region coverage is measured over the
    /// recorded tag extents).
    recorded: Profile,
    regions: RegionProfile,
    latency: LatencyProfile,
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn generate(kind: Kind) -> Box<dyn Workload> {
    match kind {
        Kind::StreamPosthoc => Box::new(StreamBench::new(STREAM_N, STREAM_ITERS)),
        _ => Box::new(PageRank::new(PR_VERTICES, PR_DEGREE, PR_ITERS)),
    }
}

/// The simulated platform every workload profiles: the paper's Ampere Altra
/// Max preset.
pub fn machine_config() -> MachineConfig {
    MachineConfig::ampere_altra_max()
}

/// The profiled session of `s.kind`, with every backend and sink registered
/// explicitly (the traced run wraps the same set).
fn build(s: &Setting, w: &Wiring) -> Result<ProfileSession, NmoError> {
    let mut b = ProfileSession::builder()
        .machine_config(machine_config())
        .cores(s.cores)
        .no_default_backends()
        .no_default_sinks();
    b = match s.kind {
        Kind::StreamPosthoc => {
            let b = b.name("stream").config(NmoConfig::paper_default(STREAM_PERIOD));
            let b = w.backend(b, SpeBackend::new());
            let b = w.backend(b, CounterBackend::new());
            let b = w.sink(b, CapacitySink::default());
            let b = w.sink(b, BandwidthSink::default());
            w.sink(b, RegionSink::new())
        }
        _ => {
            let b = b
                .name("pagerank")
                .config(NmoConfig::paper_default(PR_PERIOD))
                .stream_options(StreamOptions { shards: PR_SHARDS, ..StreamOptions::default() });
            let b = w.backend(b, SpeBackend::new());
            let b = w.backend(b, CounterBackend::new());
            let b = w.sink(b, RegionSink::new());
            let b = w.sink(b, LatencySink::new());
            w.sink(b, TraceWriterSink::new(s.trace_dir()))
        }
    };
    b.build()
}

/// The same input with collection disabled: no backends, no sinks.
fn build_unprofiled(s: &Setting) -> Result<ProfileSession, NmoError> {
    ProfileSession::builder()
        .machine_config(machine_config())
        .cores(s.cores)
        .config(NmoConfig { enabled: false, ..NmoConfig::default() })
        .no_default_backends()
        .no_default_sinks()
        .build()
}

/// Memory operations the workload's input issues, derived from its
/// allocated regions: STREAM triad makes 2 loads + 1 store per element per
/// iteration; PageRank makes 4 stores per vertex + 1 per edge to load the
/// graph, then 2 + 3 loads per vertex and edge and 1 store per vertex per
/// iteration.
fn expected_mem_ops(kind: Kind, machine: &Machine) -> u64 {
    let len = |name: &str| {
        machine.vm().regions().iter().find(|r| r.name == name).map(|r| r.len).unwrap_or(0)
    };
    match kind {
        Kind::StreamPosthoc => 3 * (len("a") / 8) * STREAM_ITERS as u64,
        _ => {
            let n = len("ranks") / 8;
            let m = len("edges") / 4;
            4 * n + m + PR_ITERS as u64 * (3 * n + 3 * m)
        }
    }
}

/// One profiled repetition of `stream-posthoc` or `pagerank-stream`:
/// set-up, then the timed phase from collection start to reports on disk,
/// then the workload's own check and the gate.
pub fn profiled_rep(s: &Setting) -> Result<(Rep, Profile, Arc<Annotations>), NmoError> {
    let streaming = s.kind == Kind::PagerankStream;
    let rec = s.recorder();
    let mut rep = Rep::default();
    let mut layer = |name: &str, v: f64| {
        rep.layers.insert(name.to_string(), v);
    };

    let t_setup = Instant::now();
    let t = Instant::now();
    let mut workload = generate(s.kind);
    layer("workloads.generate_s", secs(t));
    let t = Instant::now();
    let session = build(s, &Wiring(rec.clone()))?;
    layer("arch_sim.build_s", secs(t));
    let annotations = session.annotations();
    let t = Instant::now();
    workload.setup(session.machine(), &annotations)?;
    layer("workloads.setup_s", secs(t));
    let setup_s = secs(t_setup);

    let t_wall = Instant::now();
    let t = Instant::now();
    let active = if streaming { session.start_streaming()? } else { session.start()? };
    let start_s = secs(t);
    let t = Instant::now();
    workload.run(active.machine(), active.annotations_ref(), active.cores())?;
    let run_s = secs(t);
    let expected_ops = expected_mem_ops(s.kind, active.machine());
    let t = Instant::now();
    let profile = active.finish()?;
    let finish_s = secs(t);
    let session_s = secs(t_wall);
    let t = Instant::now();
    let regions = profile.regions();
    let regions_s = secs(t);
    let t = Instant::now();
    std::hint::black_box(profile.latency());
    let latency_s = secs(t);
    let t = Instant::now();
    let files = profile.write_csv_reports(s.dir.join("reports"))?;
    let csv_s = secs(t);
    let wall_s = secs(t_wall);

    let t = Instant::now();
    let verified = workload.verify();
    layer("workloads.verify_s", secs(t));

    let csv_bytes: u64 =
        files.iter().filter_map(|f| std::fs::metadata(f).ok()).map(|m| m.len()).sum();
    for (name, v) in [
        ("session.start_s", start_s),
        ("session.workload_run_s", run_s),
        ("session.finish_s", finish_s),
        ("report.regions_s", regions_s),
        ("report.latency_s", latency_s),
        ("report.csv_s", csv_s),
        ("report.csv_bytes", csv_bytes as f64),
        (
            "bench.unattributed_frac",
            (wall_s - (start_s + run_s + finish_s + regions_s + latency_s + csv_s)) / wall_s,
        ),
    ] {
        layer(name, v);
    }

    let delivered = regions.scatter.len() as u64;
    rep.failures = gate(&profile, verified, expected_ops, delivered);
    rep.sim = sim_figures(&profile, delivered);
    rep.layers.insert("loss_frac".to_string(), rep.sim.loss_frac);
    rep.setup_s = setup_s;
    rep.wall_s = wall_s;
    rep.session_s = session_s;
    profile_layers(&profile, &mut rep.layers);
    if let Some(rec) = &rec {
        span_layers(rec, &mut rep.layers);
    }
    Ok((rep, profile, annotations))
}

/// The correctness gate of a profiled run.
fn gate(profile: &Profile, verified: bool, expected_ops: u64, delivered: u64) -> Vec<String> {
    let mut failures = Vec::new();
    if !verified {
        failures.push("workload verification failed".to_string());
    }
    let counted = profile.perf_count("mem_access");
    let simulated = profile.counters.mem_access;
    if simulated != expected_ops || counted != Some(expected_ops) {
        failures.push(format!(
            "mem_access: simulated {simulated}, counted {counted:?}, input issues {expected_ops}"
        ));
    }
    let spe = &profile.spe;
    let lost_in_unit = spe.collisions + spe.filtered_out + spe.truncated_records;
    if spe.samples_selected != spe.records_written + lost_in_unit {
        failures.push(format!(
            "SPE: {} selected != {} written + {lost_in_unit} lost",
            spe.samples_selected, spe.records_written
        ));
    }
    let bus_dropped = profile.stream.as_ref().map_or(0, |st| st.items_dropped);
    if profile.processed_samples != spe.records_written
        || delivered + bus_dropped < profile.processed_samples
    {
        failures.push(format!(
            "samples: {} written, {} decoded, {delivered} delivered, {bus_dropped} dropped on the bus",
            spe.records_written, profile.processed_samples
        ));
    }
    if spe.samples_selected == 0 {
        failures.push("SPE selected no samples".to_string());
    }
    failures
}

fn sim_figures(profile: &Profile, delivered: u64) -> SimFigures {
    let counted = profile.perf_count("mem_access").unwrap_or(0);
    let selected = profile.spe.samples_selected.max(1) as f64;
    let bus_lost = profile.processed_samples.saturating_sub(delivered) as f64;
    SimFigures {
        accuracy: profile.accuracy_against(counted),
        loss_frac: profile.loss_fraction() + bus_lost / selected,
        sim_ms: profile.elapsed_ns as f64 * 1e-6,
        sim_cycles: profile.elapsed_cycles,
    }
}

/// Counts the profile itself reports.
fn profile_layers(profile: &Profile, layers: &mut Layers) {
    let c = &profile.counters;
    let spe = &profile.spe;
    let mut put = |name: &str, v: u64| {
        layers.insert(name.to_string(), v as f64);
    };
    put("arch_sim.mem_access", c.mem_access);
    put("arch_sim.dram_accesses", c.dram_accesses);
    put("arch_sim.observer_cycles", c.observer_cycles);
    put("spe.samples_selected", spe.samples_selected);
    put("spe.processed_samples", profile.processed_samples);
    put("spe.collisions", spe.collisions);
    put("spe.truncated", spe.truncated_records);
    put("spe.aux_bytes", spe.aux_bytes_written);
    if let Some(st) = &profile.stream {
        put("stream.batches", st.batches_published);
        put("stream.windows_closed", st.windows_closed);
        put("stream.late_batches", st.late_batches);
        put("stream.items_dropped", st.items_dropped);
        put("stream.bus_high_watermark", st.bus_high_watermark);
    }
}

/// Span totals of one traced repetition, as per-layer figures.
fn span_layers(rec: &Recorder, layers: &mut Layers) {
    let mut put = |name: String, v: Option<f64>| {
        if let Some(v) = v {
            layers.insert(name, v);
        }
    };
    for b in ["spe", "counters"] {
        let on_op = rec.get(&format!("backend.{b}.on_op"));
        put(format!("backend.{b}.on_op_ns"), on_op.map(|t| t.mean_ns()));
    }
    let drain = rec.get("backend.spe.drain");
    put("backend.spe.drain_s".into(), drain.map(|t| t.secs()));
    put("backend.spe.drain_calls".into(), drain.map(|t| t.calls as f64));
    for what in ["stop", "fill"] {
        let spans = ["spe", "counters"].map(|b| format!("backend.{b}.{what}"));
        put(format!("backend.{what}_s"), rec.sum_secs(&spans));
    }
    for sink in SINKS {
        let on_batch = rec.get(&format!("sink.{sink}.on_batch"));
        put(format!("sink.{sink}.on_batch_s"), on_batch.map(|t| t.secs()));
        put(format!("sink.{sink}.batches"), on_batch.map(|t| t.calls as f64));
        for what in ["merge", "analyze"] {
            let t = rec.get(&format!("sink.{sink}.{what}"));
            put(format!("sink.{sink}.{what}_s"), t.map(|t| t.secs()));
        }
    }
    let encode = ["on_batch", "merge", "analyze"].map(|w| format!("trace.writer.{w}"));
    put("trace.encode_s".into(), rec.sum_secs(&encode));
}

/// Every sink a workload registers, by name.
const SINKS: [&str; 5] = ["capacity", "bandwidth", "regions", "latency", "tiering"];

/// A full `pagerank-stream` repetition whose trace the replays read.
pub fn record(s: &Setting) -> Result<Recording, NmoError> {
    let t = Instant::now();
    let (mut rep, profile, annotations) = profiled_rep(s)?;
    rep.setup_s = secs(t);
    let mut recorded = Profile::empty("replay", profile.config.clone());
    recorded.tags = profile.tags.clone();
    recorded.phases = profile.phases.clone();
    Ok(Recording {
        rep,
        trace_dir: s.trace_dir(),
        annotations,
        recorded,
        regions: profile.regions(),
        latency: profile.latency(),
    })
}

/// The sinks every replay feeds: regions, latency, and a what-if tiering
/// tracker (a replay has no machine to migrate pages on).
fn replay_sinks() -> Vec<Box<dyn AnalysisSink>> {
    vec![
        Box::new(RegionSink::new()),
        Box::new(LatencySink::new()),
        Box::new(HotPageTracker::new(TopKHot::new(16, 1))),
    ]
}

/// Collect the replayed sinks' reports.
fn finish_replay(
    sinks: &mut [Box<dyn AnalysisSink>],
    machine: &Machine,
    recorded: &Profile,
) -> Result<Vec<AnalysisReport>, NmoError> {
    sinks.iter_mut().map(|sink| sink.finish(machine, recorded)).collect()
}

/// One replay repetition of the trace layer's read side, with no
/// simulation: for every recording, open its trace, replay it
/// [`REPLAYS_PER_TRACE`] times through fresh sinks, then run one
/// core-sliced indexed query. `wall_s` is the whole loop.
pub fn replay_rep(
    s: &Setting,
    recordings: &[Recording],
    machine: &Machine,
) -> Result<Rep, NmoError> {
    let (mut open_s, mut replay_s, mut query_s) = (0.0, 0.0, 0.0);
    let mut blocks = 0;
    // Per recording: its reader, the first replay's reports, the samples a
    // full replay fed, and the samples the core-sliced query fed.
    let mut outcomes = Vec::with_capacity(recordings.len());
    let t_wall = Instant::now();
    for recording in recordings {
        let t = Instant::now();
        let reader = TraceReader::open(&recording.trace_dir)?;
        let ctx =
            StreamContext { annotations: recording.annotations.clone(), ..reader.replay_context() };
        open_s += secs(t);

        let t = Instant::now();
        let mut full_samples = 0;
        let mut first_reports = None;
        for _ in 0..REPLAYS_PER_TRACE {
            let mut sinks = replay_sinks();
            let stats = reader.replay_with_context(&ctx, &mut sinks)?;
            let reports = finish_replay(&mut sinks, machine, &recording.recorded)?;
            blocks += stats.blocks;
            full_samples = stats.samples;
            first_reports.get_or_insert(reports);
        }
        replay_s += secs(t);

        let t = Instant::now();
        let mut sinks = replay_sinks();
        let query = TraceQuery::all().with_cores([s.cores[0]]);
        let sliced = reader.replay_query(&query, &mut sinks)?;
        finish_replay(&mut sinks, machine, &recording.recorded)?;
        query_s += secs(t);
        outcomes.push((reader, first_reports, full_samples, sliced.samples));
    }
    let wall_s = secs(t_wall);

    let mut rep = Rep { wall_s, ..Rep::default() };
    let (mut stored_bytes, mut stored_samples) = (0, 0);
    for (recording, (reader, first_reports, full, sliced)) in recordings.iter().zip(outcomes) {
        let summary = reader.summary();
        stored_bytes += summary.bytes;
        stored_samples += summary.samples;
        let failures = &mut rep.failures;
        match first_reports.as_deref() {
            Some([AnalysisReport::Regions(r), AnalysisReport::Latency(l), ..]) => {
                if *r != recording.regions {
                    failures.push("replayed region report differs from the recording".into());
                }
                if *l != recording.latency {
                    failures.push("replayed latency report differs from the recording".into());
                }
            }
            other => failures.push(format!("unexpected replay reports: {other:?}")),
        }
        if full != summary.samples || full == 0 {
            failures.push(format!("replay fed {full} samples of {} stored", summary.samples));
        }
        if sliced == 0 || sliced >= full {
            failures.push(format!("core-sliced query fed {sliced} of {full} samples"));
        }
    }

    let replays = (REPLAYS_PER_TRACE * recordings.len()).max(1) as u64;
    for (name, v) in [
        ("trace.open_s", open_s),
        ("trace.replay_s", replay_s),
        ("trace.replay_query_s", query_s),
        ("trace.blocks", (blocks / replays) as f64),
        ("trace.bytes_per_sample", stored_bytes as f64 / stored_samples.max(1) as f64),
    ] {
        rep.layers.insert(name.to_string(), v);
    }
    Ok(rep)
}

/// The workload's input with collection disabled: the session's host time
/// (start → finish) in `session_s`, its simulated cycles, and its memory
/// operations as `arch_sim.mem_access`.
pub fn unprofiled_rep(s: &Setting) -> Result<Rep, NmoError> {
    let mut workload = generate(s.kind);
    let session = build_unprofiled(s)?;
    workload.setup(session.machine(), &session.annotations())?;
    let t = Instant::now();
    let active = session.start()?;
    workload.run(active.machine(), active.annotations_ref(), active.cores())?;
    let profile = active.finish()?;
    let mut rep = Rep { session_s: secs(t), ..Rep::default() };
    rep.wall_s = rep.session_s;
    rep.sim.sim_cycles = profile.elapsed_cycles;
    rep.layers.insert("arch_sim.mem_access".into(), profile.counters.mem_access as f64);
    if !workload.verify() {
        rep.failures.push("unprofiled run failed verification".into());
    }
    Ok(rep)
}

/// A machine for collecting replayed reports (sinks fed from a trace ignore
/// it; the post-hoc fallback would read it).
pub fn replay_machine() -> Machine {
    Machine::new(MachineConfig::small_test())
}
