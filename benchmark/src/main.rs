//! End-to-end and per-layer benchmark of the NMO profiler.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <stream-posthoc|pagerank-stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Repeats the workload's timed phase for
//! `--seconds` seconds and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted` and `failed` repetitions, and the
//! medians of the end-to-end metrics (`--trace 0`) or of the per-layer
//! metrics (`--trace 1`). See `benchmark/README.md`.

mod scenario;
mod spans;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use nmo::NmoError;

use scenario::{Kind, Layers, Rep, Setting};

/// `pagerank-stream` runs the traced run records for its replay phase.
const RECORDINGS: usize = 2;

/// Repetitions made even when one outlasts `--seconds`.
const MIN_REPS: u64 = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(flag, value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let workload = get("--workload")?;
    Ok(Args {
        kind: Kind::parse(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
        },
    })
}

/// The profiled core pair chosen by the seed: one even and one odd core,
/// so the 2-shard pipeline (cores hash to shards by `core % 2`) always
/// splits them across both shards. The SPE unit of each core seeds its
/// sampling jitter with the core id, so the seed picks the jitter streams.
fn core_pair(seed: u64) -> [usize; 2] {
    let mut x = seed;
    let mut next = || {
        // splitmix64
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let half = scenario::machine_config().num_cores as u64 / 2;
    [(2 * (next() % half)) as usize, (2 * (next() % half) + 1) as usize]
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
    // which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage([0; 18]);
    // SAFETY: `usage` is a writable buffer of the size and layout of
    // `struct rusage` on 64-bit Linux; RUSAGE_SELF (0) is always valid.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.0[4] as f64 / 1024.0
}

/// Repetitions, with failed ones counted and set apart.
#[derive(Default)]
struct Tally {
    ok: Vec<Rep>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn push(&mut self, rep: Result<Rep, NmoError>) {
        self.attempted += 1;
        match rep {
            Ok(rep) if rep.failures.is_empty() => self.ok.push(rep),
            Ok(rep) => {
                self.failed += 1;
                for f in &rep.failures {
                    eprintln!("gate failed: {f}");
                }
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("repetition failed: {e}");
            }
        }
    }

    fn median_of(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(self.ok.iter().map(f).collect())
    }

    /// Per-key medians of the repetitions' per-layer figures.
    fn layer_medians(&self) -> Layers {
        let mut keys: Vec<&String> = self.ok.iter().flat_map(|r| r.layers.keys()).collect();
        keys.sort();
        keys.dedup();
        keys.into_iter()
            .map(|k| {
                (
                    k.clone(),
                    median(self.ok.iter().filter_map(|r| r.layers.get(k)).copied().collect()),
                )
            })
            .collect()
    }
}

/// Hand the heap memory that earlier repetitions freed back to the
/// operating system, so that every repetition starts from the same
/// allocator state. Without it, which thread's arena kept which freed pages
/// differed from run to run, and so did `peak_rss_mb` and the timed phase.
fn release_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns free memory to the
        // operating system; it takes the arena locks itself and has no
        // preconditions.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Run `rep` until `budget` has passed (and at least [`MIN_REPS`] times).
fn repeat(budget: Duration, mut rep: impl FnMut() -> Result<Rep, NmoError>) -> Tally {
    let mut tally = Tally::default();
    let start = Instant::now();
    while tally.attempted < MIN_REPS || start.elapsed() < budget {
        release_freed_heap();
        let r = rep();
        if let Ok(r) = &r {
            eprintln!(
                "rep {}: setup {:.4} s, timed phase {:.4} s, simulated {:.4} ms",
                tally.attempted, r.setup_s, r.wall_s, r.sim.sim_ms
            );
        }
        tally.push(r);
    }
    tally
}

/// Record [`RECORDINGS`] `pagerank-stream` runs, each to its own
/// directory. The replays read those that passed the gate.
fn record(s: &Setting, recordings: &mut Tally) -> Vec<scenario::Recording> {
    let mut kept = Vec::new();
    for i in 0..RECORDINGS {
        let rs = Setting { dir: s.dir.join(format!("recording-{i}")), ..s.clone() };
        release_freed_heap();
        match scenario::record(&rs) {
            Ok(r) => {
                recordings.push(Ok(r.rep.clone()));
                if r.rep.failures.is_empty() {
                    kept.push(r);
                }
            }
            Err(e) => recordings.push(Err(e)),
        }
    }
    kept
}

/// The timed phase, repeated for `budget`.
fn measure(s: &Setting, budget: Duration) -> Tally {
    repeat(budget, || {
        let _ = std::fs::remove_dir_all(&s.dir);
        scenario::profiled_rep(s).map(|(rep, _, _)| rep)
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            std::process::exit(2);
        }
    };
    let cores = core_pair(args.seed);
    let dir = PathBuf::from(".bench_run").join(format!("{}-{}", std::process::id(), args.seed));
    println!(
        "workload={:?} seed={} cores={cores:?} seconds={} trace={} host_parallelism={}",
        args.kind,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
    );
    let s = Setting { kind: args.kind, cores, dir: dir.clone(), traced: false };
    let budget = Duration::from_secs(args.seconds);
    let result = if args.trace { traced(&s, budget) } else { untraced(&s, budget) };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_run");
    println!("{result}");
}

/// Medians of the end-to-end metrics, as the result line.
fn untraced(s: &Setting, budget: Duration) -> String {
    let tally = measure(s, budget);
    let values = [
        tally.median_of(|r| r.wall_s),
        tally.median_of(|r| r.setup_s),
        tally.median_of(|r| r.sim.accuracy),
        tally.median_of(|r| 1.0 - r.sim.loss_frac),
        tally.median_of(|r| r.sim.sim_ms),
        peak_rss_mb(),
    ];
    let metrics = END_TO_END.iter().zip(values).map(|((name, unit), v)| (*name, v, *unit));
    result_line(&[&tally], metrics)
}

/// Per-layer medians from a traced run, beside an untraced run of the same
/// workload (the tracing overhead) and an unprofiled run of its input; on
/// `pagerank-stream` also replays of recorded traces (the trace layer's
/// read side). Each part gets an equal share of the budget.
fn traced(s: &Setting, budget: Duration) -> String {
    let replays = s.kind == Kind::PagerankStream;
    let share = budget / if replays { 4 } else { 3 };
    let ts = Setting { traced: true, ..s.clone() };
    let plain = measure(s, share);
    let tally = measure(&ts, share);
    let unprofiled = repeat(share, || scenario::unprofiled_rep(s));

    let mut layers = tally.layer_medians();
    let mut recordings = Tally::default();
    let mut replayed = Tally::default();
    if replays {
        let recorded = record(s, &mut recordings);
        if !recorded.is_empty() {
            let machine = scenario::replay_machine();
            replayed = repeat(share, || scenario::replay_rep(s, &recorded, &machine));
        }
        layers.extend(replayed.layer_medians());
    }
    let base_wall = unprofiled.median_of(|r| r.session_s);
    let base_ops = unprofiled.median_of(|r| r.layers["arch_sim.mem_access"]);
    let base_cycles = unprofiled.median_of(|r| r.sim.sim_cycles as f64) as u64;
    let profiled_cycles = plain.median_of(|r| r.sim.sim_cycles as f64) as u64;
    let derived = [
        ("arch_sim.unprofiled_ns_per_op", base_wall * 1e9 / base_ops),
        ("overhead.wall_x", plain.median_of(|r| r.session_s) / base_wall),
        ("overhead.sim_frac", nmo::time_overhead(base_cycles, profiled_cycles)),
        (
            "bench.tracing_overhead_frac",
            tally.median_of(|r| r.wall_s) / plain.median_of(|r| r.wall_s) - 1.0,
        ),
    ];
    for (k, v) in derived {
        layers.insert(k.to_string(), v);
    }

    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, layers.get(*name).copied().unwrap_or(0.0), *unit));
    result_line(&[&plain, &tally, &unprofiled, &recordings, &replayed], metrics)
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("accuracy", "fraction"),
    ("delivered_frac", "fraction"),
    ("sim_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("workloads.setup_s", "s"),
    ("workloads.verify_s", "s"),
    ("arch_sim.build_s", "s"),
    ("arch_sim.unprofiled_ns_per_op", "ns"),
    ("arch_sim.mem_access", "count"),
    ("arch_sim.dram_accesses", "count"),
    ("arch_sim.observer_cycles", "cycles"),
    ("backend.counters.on_op_ns", "ns"),
    ("backend.spe.on_op_ns", "ns"),
    ("backend.spe.drain_s", "s"),
    ("backend.spe.drain_calls", "count"),
    ("backend.stop_s", "s"),
    ("backend.fill_s", "s"),
    ("spe.samples_selected", "count"),
    ("spe.processed_samples", "count"),
    ("spe.collisions", "count"),
    ("spe.truncated", "count"),
    ("spe.aux_bytes", "bytes"),
    ("loss_frac", "fraction"),
    ("session.start_s", "s"),
    ("session.workload_run_s", "s"),
    ("session.finish_s", "s"),
    ("stream.batches", "count"),
    ("stream.windows_closed", "count"),
    ("stream.late_batches", "count"),
    ("stream.items_dropped", "count"),
    ("stream.bus_high_watermark", "count"),
    ("sink.capacity.on_batch_s", "s"),
    ("sink.capacity.batches", "count"),
    ("sink.capacity.merge_s", "s"),
    ("sink.capacity.analyze_s", "s"),
    ("sink.bandwidth.on_batch_s", "s"),
    ("sink.bandwidth.batches", "count"),
    ("sink.bandwidth.merge_s", "s"),
    ("sink.bandwidth.analyze_s", "s"),
    ("sink.regions.on_batch_s", "s"),
    ("sink.regions.batches", "count"),
    ("sink.regions.merge_s", "s"),
    ("sink.regions.analyze_s", "s"),
    ("sink.latency.on_batch_s", "s"),
    ("sink.latency.batches", "count"),
    ("sink.latency.merge_s", "s"),
    ("sink.latency.analyze_s", "s"),
    ("sink.tiering.on_batch_s", "s"),
    ("sink.tiering.batches", "count"),
    ("sink.tiering.merge_s", "s"),
    ("sink.tiering.analyze_s", "s"),
    ("trace.encode_s", "s"),
    ("trace.bytes_per_sample", "bytes"),
    ("trace.open_s", "s"),
    ("trace.replay_s", "s"),
    ("trace.replay_query_s", "s"),
    ("trace.blocks", "count"),
    ("report.regions_s", "s"),
    ("report.latency_s", "s"),
    ("report.csv_s", "s"),
    ("report.csv_bytes", "bytes"),
    ("overhead.wall_x", "ratio"),
    ("overhead.sim_frac", "fraction"),
    ("bench.tracing_overhead_frac", "fraction"),
    ("bench.unattributed_frac", "fraction"),
];

fn result_line<'a>(
    tallies: &[&Tally],
    metrics: impl Iterator<Item = (&'a str, f64, &'a str)>,
) -> String {
    let attempted: u64 = tallies.iter().map(|t| t.attempted).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    let body: Vec<String> = metrics
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:e}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
    fn listed(section: &str) -> Vec<(String, String)> {
        let field = |entry: &str, key: &str| {
            let rest = entry.split_once(&format!("\"{key}\": \"")).expect("field present").1;
            rest.split('"').next().expect("closing quote").to_string()
        };
        section.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e = json.split_once("\"end_to_end\"").expect("end_to_end").1;
        let (e2e, per_layer) = e2e.split_once("\"per_layer\"").expect("per_layer");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed(e2e), own(&END_TO_END));
        assert_eq!(listed(per_layer), own(PER_LAYER));
    }

    #[test]
    fn core_pairs_split_across_shards() {
        for seed in 0..1000 {
            let [even, odd] = core_pair(seed);
            assert!(even % 2 == 0 && odd % 2 == 1 && odd < scenario::machine_config().num_cores);
        }
        assert_ne!(core_pair(1), core_pair(2));
    }
}
