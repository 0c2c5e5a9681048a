//! Pipeline-throughput benchmark for the sharded streaming pipeline.
//!
//! The experiment measures the drain→decode→bus→sink spine in isolation:
//! pre-encoded SPE records for C simulated cores are decoded by W pump
//! workers (one per shard, each covering the cores that hash to its lane),
//! published as window-stamped batches on a [`nmo::ShardedBus`], and
//! consumed by W shard consumers running the *real* [`nmo::SinkShard`]
//! workers of a [`nmo::LatencySink`] and a [`nmo::RegionSink`], merged in
//! shard order at the end. Reported throughput is end-to-end samples/sec.
//!
//! The numbers seed the performance trajectory of the sharding work
//! (`BENCH_stream.json`): on a multi-core host, throughput at 8 shards on
//! the 128-core configuration should sit well above the 1-shard serial
//! pipeline; on a single-hardware-thread host the ratio degrades toward
//! 1.0× (the file records `host_parallelism` so readers can tell).
//!
//! Bench-harness code: a violated setup assumption should abort the run,
//! so panicking `expect`s are the intended failure mode here.
// nmo-lint: allow-file(no-unwrap-in-lib)

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use arch_sim::{DataSource, OpKind, TimeConv};
use nmo::sink::{ShardState, SinkShard};
use nmo::stream::{BackpressurePolicy, BatchPayload, BusRecv, SampleBatch, WindowClock};
use nmo::{
    AddressSample, AnalysisSink, Annotations, BatchPool, LatencySink, NmoConfig, Profile,
    RegionSink, ShardedBus, StreamContext,
};
use spe::packet::{decode_records, SpeRecord, SPE_RECORD_BYTES};

use crate::experiments::ExperimentResult;

/// One measured configuration.
#[derive(Debug, Clone, Copy)]
pub struct StreamBenchPoint {
    /// Simulated cores producing records.
    pub cores: usize,
    /// Pipeline shards (pump workers, lanes, consumers).
    pub shards: usize,
    /// Samples pushed end to end.
    pub samples: u64,
    /// Wall-clock time, milliseconds.
    pub elapsed_ms: f64,
    /// End-to-end throughput.
    pub samples_per_sec: f64,
}

/// Records decoded per simulated drain (one batch-building step).
const DRAIN_CHUNK: usize = 512;
/// Simulated window width (ns) used to stamp batches.
pub(crate) const WINDOW_NS: u64 = 100_000;

/// Pre-encode `records` SPE records for one core, timestamps ascending so
/// the stream spans many windows.
pub(crate) fn encode_core(core: usize, records: usize) -> Vec<u8> {
    let sources = [
        DataSource::L1,
        DataSource::L2,
        DataSource::Slc,
        DataSource::Dram(0),
        DataSource::RemoteDram(1),
    ];
    let mut out = Vec::with_capacity(records * SPE_RECORD_BYTES);
    for i in 0..records {
        let n = core as u64 * 131 + i as u64;
        let rec = SpeRecord::new(
            0x40_1000 + (n % 97) * 4,
            0x1000 + (n % 4096) * 64,
            (i as u64 + 1) * 1_000, // ticks ≈ ns (non-zero: a zero timestamp is an invalid record)
            40 + (n * 13) % 900,
            if n.is_multiple_of(3) { OpKind::Store } else { OpKind::Load },
            sources[(n % 5) as usize],
        );
        out.extend_from_slice(&rec.encode());
    }
    out
}

/// Decode one core's next chunk into a window-stamped batch stream,
/// publishing on the bus (the pump worker's inner loop).
pub(crate) fn pump_core_chunk(
    core: usize,
    data: &[u8],
    cursor: &mut usize,
    bus: &ShardedBus,
    pool: &BatchPool,
    clock: &WindowClock,
) -> u64 {
    let end = (*cursor + DRAIN_CHUNK * SPE_RECORD_BYTES).min(data.len());
    if *cursor >= end {
        return 0;
    }
    let chunk = &data[*cursor..end];
    *cursor = end;
    let mut published = 0u64;
    let mut samples = pool.samples();
    let mut window = None;
    for rec in decode_records(chunk) {
        let time_ns = TimeConv::apply_mmap_triple(rec.ticks, 0, 0, 1);
        let index = clock.index_of(time_ns);
        if window != Some(index) && !samples.is_empty() {
            let w = clock.window(window.expect("non-empty batch has a window"));
            published += samples.len() as u64;
            bus.publish(SampleBatch::new(
                "spe",
                Some(core),
                w,
                BatchPayload::SpeSamples { samples, loss: Default::default() },
            ));
            samples = pool.samples();
        }
        window = Some(index);
        let (is_store, latency, source) = match rec.full {
            Some(full) => (full.is_store, full.latency, full.source),
            None => (false, 0, DataSource::L1),
        };
        samples.push(AddressSample { time_ns, vaddr: rec.vaddr, core, is_store, latency, source });
    }
    if let Some(index) = window {
        if !samples.is_empty() {
            published += samples.len() as u64;
            bus.publish(SampleBatch::new(
                "spe",
                Some(core),
                clock.window(index),
                BatchPayload::SpeSamples { samples, loss: Default::default() },
            ));
        }
    }
    published
}

/// Run one configuration end to end and measure it.
fn run_config(cores: usize, shards: usize, records_per_core: usize) -> StreamBenchPoint {
    // Encode the input outside the measured section.
    let encoded: Vec<Vec<u8>> = (0..cores).map(|c| encode_core(c, records_per_core)).collect();
    let encoded = Arc::new(encoded);

    let annotations = Arc::new(Annotations::new());
    annotations.tag_addr("hot", 0x1000, 0x1000 + 1024 * 64);
    annotations.tag_addr("cold", 0x1000 + 1024 * 64, 0x1000 + 4096 * 64);
    let ctx = StreamContext {
        annotations,
        capacity_bytes: 1 << 30,
        bucket_ns: WINDOW_NS,
        mem_nodes: 2,
        page_bytes: 64 * 1024,
        machine: None,
    };

    let mut latency = LatencySink::new();
    latency.on_stream_start(&ctx);
    let mut regions = RegionSink::new();
    regions.on_stream_start(&ctx);
    let mut latency_shards: Vec<Box<dyn SinkShard>> = (0..shards)
        .map(|s| latency.as_shardable().expect("shardable").make_shard(s, &ctx))
        .collect();
    let mut region_shards: Vec<Box<dyn SinkShard>> = (0..shards)
        .map(|s| regions.as_shardable().expect("shardable").make_shard(s, &ctx))
        .collect();

    let bus = ShardedBus::new(shards, 1024, BackpressurePolicy::Block);
    let pool = BatchPool::new(4096);
    let clock = WindowClock::new(WINDOW_NS);

    let started = Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        // Consumers: one per lane, running the real sink shards.
        let mut consumers = Vec::with_capacity(shards);
        for (shard, (mut lat, mut reg)) in
            latency_shards.drain(..).zip(region_shards.drain(..)).enumerate()
        {
            let lane = bus.lane(shard).clone();
            let pool = pool.clone();
            consumers.push(scope.spawn(move || {
                let mut consumed = 0u64;
                loop {
                    match lane.recv_timeout(Duration::from_millis(50)) {
                        BusRecv::Event(nmo::stream::BusEvent::Batch(batch)) => {
                            consumed += batch.len() as u64;
                            lat.on_batch(&batch);
                            reg.on_batch(&batch);
                            pool.recycle_batch(batch);
                        }
                        BusRecv::Event(nmo::stream::BusEvent::CloseWindow(_)) => {}
                        BusRecv::TimedOut => {}
                        BusRecv::Closed => return (consumed, lat, reg),
                    }
                }
            }));
        }
        // Pump workers: one per shard, decoding their cores round-robin.
        let mut pumps = Vec::with_capacity(shards);
        for shard in 0..shards {
            let bus = &bus;
            let pool = pool.clone();
            let encoded = encoded.clone();
            pumps.push(scope.spawn(move || {
                let mut published = 0u64;
                let my_cores: Vec<usize> = (0..cores).filter(|c| c % shards == shard).collect();
                let mut cursors = vec![0usize; my_cores.len()];
                loop {
                    let mut progressed = false;
                    for (slot, &core) in my_cores.iter().enumerate() {
                        let n = pump_core_chunk(
                            core,
                            &encoded[core],
                            &mut cursors[slot],
                            bus,
                            &pool,
                            &clock,
                        );
                        if n > 0 {
                            progressed = true;
                            published += n;
                        }
                    }
                    if !progressed {
                        return published;
                    }
                }
            }));
        }
        let published: u64 = pumps.into_iter().map(|p| p.join().expect("pump")).sum();
        bus.close_all();
        let mut consumed = 0u64;
        let mut lat_states: Vec<ShardState> = Vec::with_capacity(shards);
        let mut reg_states: Vec<ShardState> = Vec::with_capacity(shards);
        for consumer in consumers {
            let (n, lat, reg) = consumer.join().expect("consumer");
            consumed += n;
            lat_states.push(lat.finish());
            reg_states.push(reg.finish());
        }
        assert_eq!(consumed, published, "Block backpressure loses nothing");
        latency.as_shardable().expect("shardable").merge_final(lat_states);
        regions.as_shardable().expect("shardable").merge_final(reg_states);
        consumed
    });
    let elapsed = started.elapsed();

    // The merged reports must cover every sample (the merge is part of the
    // measured pipeline's correctness, not just its speed).
    let profile = Profile::empty("bench", NmoConfig::default());
    let machine = arch_sim::Machine::new(arch_sim::MachineConfig::small_test());
    match latency.finish(&machine, &profile).expect("latency report") {
        nmo::AnalysisReport::Latency(l) => assert_eq!(l.total_count(), total),
        other => panic!("expected latency report, got {other:?}"),
    }

    let elapsed_ms = elapsed.as_secs_f64() * 1e3;
    StreamBenchPoint {
        cores,
        shards,
        samples: total,
        elapsed_ms,
        samples_per_sec: total as f64 / elapsed.as_secs_f64().max(1e-9),
    }
}

/// Sweep shard counts over core counts (the `BENCH_stream` experiment).
pub fn bench_stream_pipeline(
    core_counts: &[usize],
    shard_counts: &[usize],
    records_per_core: usize,
) -> Vec<StreamBenchPoint> {
    let mut points = Vec::new();
    for &cores in core_counts {
        for &shards in shard_counts {
            points.push(run_config(cores, shards, records_per_core));
        }
    }
    points
}

/// The default sweep: 1/32/128 cores × 1/2/4/8 shards.
pub fn default_sweep(records_per_core: usize) -> Vec<StreamBenchPoint> {
    bench_stream_pipeline(&[1, 32, 128], &[1, 2, 4, 8], records_per_core)
}

/// Throughput ratio between two shard counts at one core count (`None`
/// when either point is missing).
pub fn speedup(
    points: &[StreamBenchPoint],
    cores: usize,
    shards: usize,
    base: usize,
) -> Option<f64> {
    let at = |s: usize| {
        points.iter().find(|p| p.cores == cores && p.shards == s).map(|p| p.samples_per_sec)
    };
    Some(at(shards)? / at(base)?)
}

/// Render the sweep as an [`ExperimentResult`] table.
pub fn to_experiment(points: &[StreamBenchPoint]) -> ExperimentResult {
    ExperimentResult {
        id: "bench_stream".into(),
        title: format!(
            "Streaming-pipeline throughput vs shard count (host parallelism {})",
            host_parallelism()
        ),
        header: vec![
            "cores".into(),
            "shards".into(),
            "samples".into(),
            "elapsed_ms".into(),
            "samples_per_sec".into(),
        ],
        rows: points
            .iter()
            .map(|p| {
                vec![
                    p.cores.to_string(),
                    p.shards.to_string(),
                    p.samples.to_string(),
                    format!("{:.3}", p.elapsed_ms),
                    format!("{:.0}", p.samples_per_sec),
                ]
            })
            .collect(),
    }
}

pub(crate) fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// Write the sweep as `BENCH_stream.json` under `dir` (hand-rolled JSON —
/// no serde in this offline workspace). Returns the path written.
pub fn write_bench_stream_json(points: &[StreamBenchPoint], dir: &Path) -> std::io::Result<String> {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"host_parallelism\": {},\n", host_parallelism()));
    let max_cores = points.iter().map(|p| p.cores).max().unwrap_or(0);
    // `null` when the sweep lacks the 1- or 8-shard point (NaN is not JSON).
    let ratio = match speedup(points, max_cores, 8, 1) {
        Some(ratio) => format!("{ratio:.3}"),
        None => "null".to_string(),
    };
    out.push_str(&format!("  \"speedup_8_shards_vs_1_at_{max_cores}_cores\": {ratio},\n"));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"cores\": {}, \"shards\": {}, \"samples\": {}, \"elapsed_ms\": {:.3}, \
             \"samples_per_sec\": {:.1}}}{}\n",
            p.cores,
            p.shards,
            p.samples,
            p.elapsed_ms,
            p.samples_per_sec,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_stream.json");
    std::fs::write(&path, out)?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_measures_and_serialises() {
        let points = bench_stream_pipeline(&[1, 4], &[1, 2], 2_000);
        assert_eq!(points.len(), 4);
        for p in &points {
            let expected = (p.cores * 2_000) as u64;
            assert_eq!(p.samples, expected, "every record decodes into the sinks");
            assert!(p.samples_per_sec > 0.0);
        }
        assert!(speedup(&points, 4, 2, 1).is_some());
        assert!(speedup(&points, 4, 8, 1).is_none(), "missing shard count");

        let dir = std::env::temp_dir().join(format!("nmo_bench_stream_{}", std::process::id()));
        let path = write_bench_stream_json(&points, &dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"host_parallelism\""));
        assert!(
            content.contains(": null,") && !content.contains("NaN"),
            "a sweep without the 8-shard point serialises the ratio as null: {content}"
        );
        assert!(content.contains("\"points\""));
        assert!(content.contains("\"cores\": 4"));
        let table = to_experiment(&points);
        assert_eq!(table.rows.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
