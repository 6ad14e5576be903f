//! servbench: the servent's request path — create → validate → publish →
//! index → route → hits → retrieve → view — measured end to end on four
//! seeded, single-client, closed-loop workloads, with a per-layer ledger
//! from a traced run.
//!
//! ```text
//! servbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke]
//! ```
//!
//! One run builds its world several times (the median build is
//! `setup_s`), warms up for a fixed number of steps, then times steps
//! until `--seconds` have passed. Seeded counts (success rate, messages,
//! bytes) cover a fixed prefix of the timed steps, so they repeat
//! exactly for one seed. With `--trace 1`, tracing alternates on and off
//! in blocks of steps: traced blocks give the per-layer metrics and the
//! ledger, untraced ones the comparison that yields tracing overhead.
//! The last stdout line is the JSON result; a provenance line precedes
//! it, and both are appended to `out/results.jsonl`.

mod durable;
mod json;
mod network;
mod report;
mod trace;
mod tracks;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use durable::{DurSpec, DurWorld};
use json::Json;
use network::{BatchSpec, NetSpec, NetWorld};
use report::{jstr, num, peak_rss_mb, percentile, Metrics, Recorder};
use trace::{Tracer, LAYERS};
use tracks::Corpus;
use up2p_core::CoreError;
use up2p_net::ProtocolKind;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "napster_catalog",
    "gnutella_guided",
    "fasttrack_batch",
    "durable_ingest",
];

#[derive(Debug, Clone, Copy)]
enum Shape {
    Net(NetSpec),
    Durable(DurSpec),
}

/// Everything that sizes one workload run.
#[derive(Debug, Clone, Copy)]
struct Plan {
    shape: Shape,
    /// Tracks in the world before timing starts.
    tracks: usize,
    /// Corpus entries fresh publishes cycle through.
    extra: usize,
    /// World builds per run; `setup_s` is their median.
    setup_reps: usize,
    /// Untimed steps before timing starts.
    warm_steps: u64,
    /// Timed steps over which seeded counts are taken; every run
    /// completes at least these.
    prefix_steps: u64,
    /// Steps per tracing block when tracing.
    block: u64,
}

fn plan(workload: &str, smoke: bool) -> Option<Plan> {
    let net = |kind, peers, publish_share| NetSpec {
        kind,
        peers,
        supers: None,
        guided: false,
        publish_share,
        offline_share: 0.0,
        batch: None,
    };
    let p = match (workload, smoke) {
        ("napster_catalog", false) => Plan {
            shape: Shape::Net(net(ProtocolKind::Napster, 1000, 0.05)),
            tracks: 50_000,
            extra: 8192,
            setup_reps: 3,
            warm_steps: 400,
            prefix_steps: 2000,
            block: 64,
        },
        ("gnutella_guided", false) => Plan {
            shape: Shape::Net(NetSpec {
                guided: true,
                offline_share: 0.05,
                ..net(ProtocolKind::Gnutella, 1000, 0.02)
            }),
            tracks: 20_000,
            extra: 4096,
            setup_reps: 3,
            warm_steps: 100,
            prefix_steps: 1000,
            block: 16,
        },
        ("fasttrack_batch", false) => Plan {
            shape: Shape::Net(NetSpec {
                supers: Some(100),
                batch: Some(BatchSpec {
                    size: 64,
                    workers: 2,
                    singles: 24,
                    publishes: 4,
                }),
                ..net(ProtocolKind::FastTrack, 10_000, 0.0)
            }),
            tracks: 50_000,
            extra: 4096,
            setup_reps: 3,
            warm_steps: 3,
            prefix_steps: 30,
            block: 2,
        },
        ("durable_ingest", false) => Plan {
            shape: Shape::Durable(DurSpec {
                sync_every: 64,
                compact_records: 5000,
                restart_every: 4000,
            }),
            tracks: 20_000,
            extra: 8192,
            setup_reps: 5,
            warm_steps: 1000,
            prefix_steps: 6000,
            block: 256,
        },
        ("napster_catalog", true) => Plan {
            shape: Shape::Net(net(ProtocolKind::Napster, 64, 0.05)),
            tracks: 1000,
            extra: 256,
            setup_reps: 2,
            warm_steps: 20,
            prefix_steps: 100,
            block: 8,
        },
        ("gnutella_guided", true) => Plan {
            shape: Shape::Net(NetSpec {
                guided: true,
                offline_share: 0.05,
                ..net(ProtocolKind::Gnutella, 64, 0.02)
            }),
            tracks: 1000,
            extra: 256,
            setup_reps: 2,
            warm_steps: 20,
            prefix_steps: 100,
            block: 8,
        },
        ("fasttrack_batch", true) => Plan {
            shape: Shape::Net(NetSpec {
                supers: Some(8),
                batch: Some(BatchSpec {
                    size: 16,
                    workers: 2,
                    singles: 8,
                    publishes: 2,
                }),
                ..net(ProtocolKind::FastTrack, 256, 0.0)
            }),
            tracks: 2000,
            extra: 256,
            setup_reps: 2,
            warm_steps: 2,
            prefix_steps: 8,
            block: 2,
        },
        ("durable_ingest", true) => Plan {
            shape: Shape::Durable(DurSpec {
                sync_every: 16,
                compact_records: 300,
                restart_every: 200,
            }),
            tracks: 1000,
            extra: 256,
            setup_reps: 2,
            warm_steps: 50,
            prefix_steps: 400,
            block: 32,
        },
        _ => return None,
    };
    Some(p)
}

enum World {
    Net(Box<NetWorld>),
    Durable(Box<DurWorld>),
}

impl World {
    fn build(plan: &Plan, corpus: &Corpus, seed: u64, dir: &Path) -> Result<World, CoreError> {
        Ok(match plan.shape {
            Shape::Net(spec) => World::Net(Box::new(NetWorld::build(spec, corpus, seed)?)),
            Shape::Durable(spec) => {
                World::Durable(Box::new(DurWorld::build(spec, corpus, seed, dir)?))
            }
        })
    }

    fn step(&mut self, corpus: &Corpus, tr: &mut Tracer, rec: &mut Recorder) {
        match self {
            World::Net(w) => w.step(corpus, tr, rec),
            World::Durable(w) => w.step(corpus, tr, rec),
        }
    }

    fn index_bytes(&self) -> f64 {
        match self {
            World::Net(w) => w.index_bytes(),
            World::Durable(w) => w.index_bytes(),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str = "usage: servbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--scale full|smoke]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--scale" => {
                smoke = match value()?.as_str() {
                    "full" => false,
                    "smoke" => true,
                    other => return Err(format!("--scale takes full or smoke, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Allocation counters, one cache line each, so threads allocating at
/// once do not contend on one counter.
#[repr(align(64))]
struct Shard(AtomicU64);

const SHARDS: usize = 16;
static ALLOCS: [Shard; SHARDS] = [const { Shard(AtomicU64::new(0)) }; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count_alloc() {
    let shard = MY_SHARD
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            s.get()
        })
        .unwrap_or(0);
    ALLOCS[shard].0.fetch_add(1, Ordering::Relaxed);
}

/// The system allocator, counting allocations for the per-layer
/// allocation ledger.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed counter bump that allocates nothing and touches no allocated
// memory (the thread-local slot is const-initialized, without a
// destructor).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath; `new_size` is the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made so far by every thread.
fn alloc_count() -> u64 {
    ALLOCS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan =
        plan(&args.workload, args.smoke).expect("workload names are validated by parse_args");
    match run(&args, &plan) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists for this mode:
/// `per_layer` when tracing, `end_to_end` otherwise.
fn listed_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("a {key} entry lacks name or unit"))
        })
        .collect()
}

fn run(args: &Args, plan: &Plan) -> Result<(), Box<dyn std::error::Error>> {
    let listed = listed_metrics(args.trace)?;
    let out = out_dir();
    std::fs::create_dir_all(&out)?;
    let store_dir = out.join(format!("store-{}", std::process::id()));
    let corpus = Corpus::new(plan.tracks, plan.extra, args.seed);

    // set-up: build the world several times, keep the last
    let mut setup_s = Vec::new();
    let mut world = None;
    for _ in 0..plan.setup_reps {
        drop(world.take());
        let started = Instant::now();
        let built = World::build(plan, &corpus, args.seed, &store_dir)?;
        setup_s.push(started.elapsed().as_secs_f64());
        world = Some(built);
    }
    let mut world = world.ok_or("no set-up ran")?;

    let mut tr = Tracer::new(alloc_count);
    let mut rec = Recorder::default();
    for _ in 0..plan.warm_steps {
        world.step(&corpus, &mut tr, &mut rec);
    }
    let warm_failures = std::mem::take(&mut rec.check_failures);
    rec.reset();
    rec.check_failures = warm_failures;

    // timed phase: seeded counts over the first `prefix_steps` steps,
    // timings until `--seconds` have passed
    let started = Instant::now();
    let mut steps = 0u64;
    let mut peak_rss = 0.0;
    while rec.check_failures.is_empty() {
        let traced = args.trace && (steps / plan.block) % 2 == 1;
        tr.set_on(traced);
        rec.traced = traced;
        rec.counting = steps < plan.prefix_steps;
        tr.set_counting(rec.counting);
        world.step(&corpus, &mut tr, &mut rec);
        steps += 1;
        if steps == plan.prefix_steps {
            peak_rss = peak_rss_mb();
        }
        if steps >= plan.prefix_steps && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    tr.set_on(false);
    let timed_s = started.elapsed().as_secs_f64();

    let all = measure(&rec, &tr, &world, plan, &setup_s, peak_rss);
    let mut metrics = Metrics::default();
    for (name, unit) in &listed {
        let (_, value, have) = all.0.iter().find(|(n, _, _)| n == name).ok_or_else(|| {
            format!("BENCHMARK.json lists {name}, which servbench does not measure")
        })?;
        if have != unit {
            return Err(format!(
                "BENCHMARK.json gives {name} unit {unit}, servbench measures {have}"
            )
            .into());
        }
        metrics.put(name, *value, have);
    }
    let correct = rec.check_failures.is_empty();
    for f in &rec.check_failures {
        eprintln!("servbench: check failed: {f}");
    }
    if args.trace {
        print_ledger(&tr);
        let spans = out.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        tr.write_tsv(&spans)?;
        println!("spans: {} written to {}", tr.len(), spans.display());
    }
    drop(world);

    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        rec.attempted,
        rec.failed,
        metrics.to_json()
    );
    let provenance = provenance(args, plan, steps, timed_s, &out);
    println!("provenance: {provenance}");
    append_result(&out.join("results.jsonl"), &provenance, &result, &all)?;
    println!("{result}");
    Ok(())
}

/// Median of the traced samples of a class, in `per` ns.
fn traced(rec: &Recorder, class: &str, per: f64) -> f64 {
    rec.samples.get(class).map_or(0.0, |s| {
        median(
            &s.traced
                .iter()
                .map(|&ns| ns as f64 / per)
                .collect::<Vec<_>>(),
        )
    })
}

/// Median duration of the spans named `name`, in `per` ns.
fn span(tr: &Tracer, name: &str, per: f64) -> f64 {
    median(
        &tr.durations(name)
            .iter()
            .map(|&ns| ns as f64 / per)
            .collect::<Vec<_>>(),
    )
}

/// Every metric servbench measures. End-to-end figures come from the
/// untraced ops (all of them in an untraced run, the untraced blocks of
/// a traced one); span figures from the traced blocks, 0 when untraced;
/// counts from the seeded prefix. A layer a workload bypasses reads 0.
fn measure(
    rec: &Recorder,
    tr: &Tracer,
    world: &World,
    plan: &Plan,
    setup_s: &[f64],
    peak_rss: f64,
) -> Metrics {
    let mut m = Metrics::default();
    let plain = |class: &str, per: f64, p: f64| percentile(&rec.plain_in(class, per), p);
    m.put("ops_per_s", rec.ops_per_s(), "1/s");
    m.put("search_p50_us", plain("search", 1e3, 50.0), "us");
    m.put("search_p99_us", plain("search", 1e3, 99.0), "us");
    m.put("publish_p50_us", plain("publish", 1e3, 50.0), "us");
    m.put("publish_p99_us", plain("publish", 1e3, 99.0), "us");
    m.put("fetch_p50_us", plain("fetch", 1e3, 50.0), "us");
    m.put("restart_ms", median(&rec.all_in("restart", 1e6)), "ms");
    m.put("batch_p50_ms", plain("batch", 1e6, 50.0), "ms");
    m.put("batch_p90_ms", plain("batch", 1e6, 90.0), "ms");
    m.put(
        "success_rate",
        rec.ratio("searches_with_hits", "searches"),
        "ratio",
    );
    m.put("msgs_per_search", rec.ratio("msgs", "searches"), "count");
    m.put("first_hit_vms", rec.value_median("first_hit_vms"), "sim_ms");
    m.put(
        "error_rate",
        rec.failed as f64 / rec.attempted.max(1) as f64,
        "ratio",
    );
    m.put("setup_s", median(setup_s), "s");
    m.put("peak_rss_mb", peak_rss, "MB");
    m.put(
        "disk_bytes_per_object",
        rec.ratio("restart_disk_bytes", "restart_objects"),
        "bytes",
    );

    let ledger = tr.ledger();
    for (k, layer) in LAYERS.iter().enumerate() {
        let us = ledger.self_ns[k] as f64 / ledger.ops.max(1) as f64 / 1e3;
        m.put(&format!("ledger.{layer}_us_per_op"), us, "us");
    }
    m.put(
        "ledger.unattributed_share",
        ledger.unattributed_share(),
        "ratio",
    );
    for (k, layer) in LAYERS.iter().enumerate() {
        let allocs = ledger.self_allocs[k] as f64 / ledger.prefix_ops.max(1) as f64;
        m.put(&format!("ledger.{layer}_allocs_per_op"), allocs, "count");
    }
    m.put(
        "alloc.per_op",
        ledger.op_allocs as f64 / ledger.prefix_ops.max(1) as f64,
        "count",
    );
    let mean = |ns: u64, ops: u64| ns as f64 / ops.max(1) as f64;
    let overhead =
        mean(rec.traced_ns, rec.traced_ops) / mean(rec.plain_ns, rec.plain_ops).max(1.0) - 1.0;
    m.put("trace.overhead_share", overhead, "ratio");

    let batch_size = match plan.shape {
        Shape::Net(NetSpec { batch: Some(b), .. }) => b.size as f64,
        _ => 1.0,
    };
    let batch_2w = traced(rec, "batch", 1e3);
    let batch_1w = traced(rec, "batch_1w", 1e3);
    m.put("net.search_us", traced(rec, "quiet_search", 1e3), "us");
    m.put(
        "net.refresh_search_us",
        traced(rec, "refresh_search", 1e3),
        "us",
    );
    m.put(
        "net.refresh_share",
        rec.ratio("refreshes", "searches"),
        "ratio",
    );
    m.put(
        "net.digest_msgs_per_refresh",
        rec.ratio("refresh_digest_msgs", "refreshes"),
        "count",
    );
    m.put(
        "net.hits_per_search",
        rec.ratio("hits", "searches"),
        "count",
    );
    m.put(
        "net.query_msgs_per_search",
        rec.ratio("query_msgs", "searches"),
        "count",
    );
    m.put(
        "net.queryhit_msgs_per_search",
        rec.ratio("queryhit_msgs", "searches"),
        "count",
    );
    m.put(
        "net.useful_query_ratio",
        rec.ratio("queryhit_msgs", "query_msgs"),
        "ratio",
    );
    m.put("net.retrieve_us", span(tr, "net.retrieve", 1e3), "us");
    m.put(
        "net.retrieve_fail_ratio",
        rec.ratio("retrieve_fails", "retrieves"),
        "ratio",
    );
    m.put("net.batch_per_query_us", batch_2w / batch_size, "us");
    m.put(
        "net.pool_speedup",
        if batch_2w > 0.0 {
            batch_1w / batch_2w
        } else {
            0.0
        },
        "ratio",
    );

    for (name, call) in [
        ("core.form_fill_us", "core.form_fill"),
        ("schema.validate_us", "schema.validate"),
        ("xml.serialize_us", "xml.serialize"),
        ("store.object_id_us", "store.object_id"),
        ("core.publish_us", "core.publish"),
        ("core.payload_fetch_us", "core.payload_fetch"),
        ("core.reshare_us", "core.reshare"),
        ("xslt.view_us", "xslt.view"),
        ("store.extract_us", "store.extract"),
        ("store.publish_us", "store.publish"),
        ("store.remove_us", "store.remove"),
        ("store.search_us", "store.search"),
    ] {
        m.put(name, span(tr, call, 1e3), "us");
    }
    m.put("store.sync_ms", span(tr, "store.sync", 1e6), "ms");
    m.put("store.syncs", rec.counter("syncs"), "count");
    m.put("store.compact_ms", span(tr, "store.compact", 1e6), "ms");
    m.put("store.recover_ms", span(tr, "store.recover", 1e6), "ms");
    m.put(
        "store.tokenizer_passes_per_restart",
        rec.ratio("restart_token_passes", "restarts"),
        "count",
    );
    m.put(
        "store.tokenizer_passes_per_publish",
        rec.ratio("publish_token_passes", "publishes"),
        "count",
    );
    m.put(
        "store.wal_bytes_per_record",
        rec.ratio("restart_wal_bytes", "restart_wal_records"),
        "bytes",
    );
    m.put("store.index_bytes", world.index_bytes(), "bytes");
    m
}

/// Prints the per-layer ledger of the traced ops.
fn print_ledger(tr: &Tracer) {
    let l = tr.ledger();
    let total = l.op_ns.max(1) as f64;
    println!(
        "ledger over {} traced ops, {:.1} ms of op wall time:",
        l.ops,
        l.op_ns as f64 / 1e6
    );
    for (k, layer) in LAYERS.iter().enumerate() {
        let ms = l.self_ns[k] as f64 / 1e6;
        let share = 100.0 * l.self_ns[k] as f64 / total;
        println!(
            "  {layer:<12} {ms:>10.1} ms  {share:>5.1}%  {:>8} allocs",
            l.self_allocs[k]
        );
    }
    let ms = l.unattributed_ns as f64 / 1e6;
    println!(
        "  {:<12} {ms:>10.1} ms  {:>5.1}%",
        "unattributed",
        100.0 * l.unattributed_share()
    );
}

/// FNV-1a over the repository's library sources (`crates/`, `shims/`),
/// visited in path order: identifies the measured code where no git
/// revision is available.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("shims"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The run's provenance as a JSON object.
fn provenance(args: &Args, plan: &Plan, steps: u64, timed_s: f64, out: &Path) -> String {
    let repeat = std::fs::read_to_string(out.join("results.jsonl"))
        .unwrap_or_default()
        .lines()
        .filter(|l| {
            l.contains(&format!("\"workload\": {}", jstr(&args.workload)))
                && l.contains(&format!("\"seed\": {},", args.seed))
                && l.contains(&format!("\"trace\": {},", u8::from(args.trace)))
        })
        .count();
    let scale = match plan.shape {
        Shape::Net(s) => format!(
            "{{\"protocol\": {}, \"peers\": {}, \"supers\": {}, \"guided\": {}, \"tracks\": {}, \
             \"publish_share\": {}, \"offline_share\": {}, \"batch\": {}}}",
            jstr(s.kind.schema_value()),
            s.peers,
            s.supers.map_or("null".to_string(), |n| n.to_string()),
            s.guided,
            plan.tracks,
            num(s.publish_share),
            num(s.offline_share),
            s.batch.map_or("null".to_string(), |b| format!(
                "{{\"size\": {}, \"workers\": {}, \"singles\": {}, \"publishes\": {}}}",
                b.size, b.workers, b.singles, b.publishes
            )),
        ),
        Shape::Durable(s) => format!(
            "{{\"tracks\": {}, \"publish_share\": {}, \"search_share\": {}, \"sync_every\": {}, \
             \"compact_records\": {}, \"restart_every\": {}}}",
            plan.tracks,
            num(durable::PUBLISH_SHARE),
            num(durable::SEARCH_SHARE),
            s.sync_every,
            s.compact_records,
            s.restart_every
        ),
    };
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"repeat\": {repeat}, \"seconds\": {}, \
         \"mode\": {}, \"scale\": {scale}, \"setup_reps\": {}, \"warm_steps\": {}, \
         \"prefix_steps\": {}, \"timed_steps\": {steps}, \"timed_s\": {}, \"git_rev\": {}, \
         \"source_fnv\": {}, \"rustc\": {}, \"available_parallelism\": {}}}",
        jstr(&args.workload),
        args.seed,
        u8::from(args.trace),
        num(args.seconds),
        jstr(if args.smoke { "smoke" } else { "full" }),
        plan.setup_reps,
        plan.warm_steps,
        plan.prefix_steps,
        num(timed_s),
        jstr(env!("SERVBENCH_GIT_REV")),
        jstr(&source_digest()),
        jstr(env!("SERVBENCH_RUSTC")),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )
}

fn append_result(
    path: &Path,
    provenance: &str,
    result: &str,
    all: &Metrics,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let all = all.to_json();
    writeln!(
        f,
        "{{\"provenance\": {provenance}, \"result\": {result}, \"all_metrics\": {all}}}"
    )
}
