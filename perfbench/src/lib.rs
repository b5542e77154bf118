//! End-to-end and per-layer benchmark of the cLSM store.
//!
//! One command runs a named workload for a fixed window against the
//! public store API, checks every answer, and prints its metrics. An
//! untraced run (`trace = false`) gives the end-to-end metrics; a traced
//! run gives the per-layer ones, measured from outside each layer: spans
//! around the calls into it, its public reports and counters, and
//! per-thread CPU from `/proc`.

pub mod driver;
pub mod procfs;
pub mod report;
pub mod spec;
pub mod system;
pub mod timed;
pub mod value;

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Instant;

use clsm::WRITE_PATH_STAGES;
use clsm_util::trace;

use crate::driver::{Expected, WindowOut};
use crate::report::{
    cpu_metrics, hist_mean_us, mean_us, percentile_us, Delta, Edge, Latencies, Metrics,
};
use crate::spec::{OpKind, Spec, Workload, THREADS};
use crate::system::{ratio, Wrap};

/// Upper bound on the set-ups of one run.
pub const MAX_SETUPS: usize = 50;

/// Flight-recorder ring size per thread in traced runs.
const TRACE_RING_EVENTS: usize = 16 * 1024;

/// One invocation of the benchmark.
pub struct RunArgs {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every input the run generates.
    pub seed: u64,
    /// Idle time before each window's set-up. `ingest` settles into
    /// one of two throughput modes early in its window, and which one
    /// follows from the CPU activity just before it (see the README);
    /// starting every window from an idle machine makes it the same.
    pub cooldown: std::time::Duration,
    /// Unmeasured run before the window, so that caches fill and the
    /// memtable takes up the hot keys before timing starts.
    pub warmup: std::time::Duration,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Scratch directory for the store (removed afterwards).
    pub dir: PathBuf,
    /// Setup is repeated at least this many times, and until
    /// `setup_budget` has passed (counting the closes in between; at
    /// most [`MAX_SETUPS`] times); the last one is measured and
    /// `setup_s` is the median.
    pub setups: usize,
    /// See `setups`.
    pub setup_budget: std::time::Duration,
    /// Optional wrapper around the store the drivers call.
    pub wrap: Option<Box<Wrap>>,
    /// Where a traced run writes the recorder's Chrome-format trace.
    pub trace_file: Option<PathBuf>,
}

/// What a run prints.
#[derive(Debug)]
pub struct RunOutput {
    /// `false` if any answer was wrong; then `metrics` is empty.
    pub correct: bool,
    /// Requests sent in the measured window.
    pub attempted: u64,
    /// Requests answered with a typed error.
    pub failed: u64,
    /// The metrics (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// The first wrong answer, when `correct` is false.
    pub violation: Option<String>,
}

impl RunOutput {
    fn wrong(attempted: u64, failed: u64, violation: String, lines: Vec<String>) -> RunOutput {
        RunOutput {
            correct: false,
            attempted,
            failed,
            metrics: Metrics::default(),
            lines,
            violation: Some(violation),
        }
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Host fingerprint: CPUs, CPU model, kernel and build profile.
pub fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host nproc={nproc} cpu=\"{cpu}\" kernel={} profile={profile}",
        kernel.trim()
    )
}

fn spec_line(spec: &Spec) -> String {
    let o = &spec.options;
    format!(
        "store memtable_bytes={} block_cache_bytes={} base_level_bytes={} puts={} mix(get/put/scan/rmw)={:?} key_space={} dist={:?} preload={:?} threads={THREADS} closed-loop",
        o.memtable_bytes,
        o.store.block_cache_bytes,
        o.store.base_level_bytes,
        match spec.sync_every {
            Some(n) => format!("1-in-{n}-sync"),
            None => "async".to_string(),
        },
        spec.mix,
        spec.key_space,
        spec.dist,
        spec.preload,
    )
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A wrong answer or an infrastructure error, carried out of a phase.
enum Stop {
    Wrong(String),
    Error(String),
}

impl From<String> for Stop {
    fn from(s: String) -> Stop {
        Stop::Error(s)
    }
}

fn io(what: &str, e: std::io::Error) -> Stop {
    Stop::Error(format!("{what}: {e}"))
}

/// Runs one invocation. `Err` is an infrastructure failure (the store
/// could not be opened, `/proc` could not be read); a wrong answer is
/// `Ok` with `correct == false`.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let spec = args.workload.spec();
    let mut lines = vec![
        format!(
            "workload={} seed={} seconds={} trace={}",
            spec.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        host_line(),
        spec_line(&spec),
    ];
    let result = if args.trace {
        traced(args, &spec, &mut lines)
    } else {
        untraced(args, &spec, &mut lines)
    };
    if args.dir.exists() {
        std::fs::remove_dir_all(&args.dir).map_err(|e| format!("remove store directory: {e}"))?;
    }
    match result {
        Ok(out) => Ok(out),
        Err((Stop::Wrong(v), attempted, failed)) => {
            lines.push(format!("WRONG ANSWER: {v}"));
            Ok(RunOutput::wrong(attempted, failed, v, lines))
        }
        Err((Stop::Error(e), ..)) => Err(e),
    }
}

type PhaseErr = (Stop, u64, u64);

fn counts(w: &WindowOut) -> (u64, u64) {
    let attempted = w.threads.iter().map(|t| t.attempted).sum();
    let failed = w.threads.iter().map(|t| t.failed).sum();
    (attempted, failed)
}

/// Closes the store, checks every key after a reopen and returns what
/// the keys should hold.
fn close_and_verify(
    spec: &Spec,
    args: &RunArgs,
    sys: system::System,
    window: &WindowOut,
) -> Result<Expected, Stop> {
    system::close(sys)?;
    let expected = Expected::from_models(spec, &window.models).map_err(Stop::Wrong)?;
    system::verify(spec, &args.dir, &expected).map_err(Stop::Wrong)?;
    Ok(expected)
}

fn window(
    args: &RunArgs,
    spec: &Spec,
    sys: &system::System,
    traced: bool,
) -> Result<(WindowOut, procfs::CpuDelta), Stop> {
    let (w, before, after) = driver::run_window(
        sys.client.as_ref(),
        spec,
        args.seed,
        args.warmup,
        args.seconds,
        traced,
        procfs::sample,
        procfs::sample,
    )
    .map_err(Stop::Wrong)?;
    let before = before.map_err(|e| io("read /proc", e))?;
    let after = after.map_err(|e| io("read /proc", e))?;
    Ok((w, procfs::delta(&before, &after)))
}

fn untraced(args: &RunArgs, spec: &Spec, lines: &mut Vec<String>) -> Result<RunOutput, PhaseErr> {
    let fail = |s: Stop| (s, 0, 0);
    let mut setup_secs: Vec<f64> = Vec::new();
    std::thread::sleep(args.cooldown);
    let setups_began = Instant::now();
    let sys = loop {
        let began = Instant::now();
        let s = system::setup(spec, &args.dir, args.seed, false, args.wrap.as_deref())
            .map_err(|e| fail(e.into()))?;
        setup_secs.push(began.elapsed().as_secs_f64());
        let n = setup_secs.len();
        if n >= args.setups && (setups_began.elapsed() >= args.setup_budget || n >= MAX_SETUPS) {
            break s;
        }
        system::close(s).map_err(|e| fail(e.into()))?;
    };
    let (w, cpu) = window(args, spec, &sys, false).map_err(fail)?;
    let (attempted, failed) = counts(&w);
    let fail = |s: Stop| (s, attempted, failed);
    let peak_rss = procfs::peak_rss_mb().map_err(|e| fail(io("read /proc", e)))?;
    close_and_verify(spec, args, sys, &w).map_err(fail)?;

    let lat = Latencies::of(&w);
    let ops = lat.ops();
    let secs = w.elapsed.as_secs_f64();
    let mut m = Metrics::default();
    let setups = setup_secs.len();
    let (fastest, slowest) = setup_secs
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    m.push("setup_s", median(setup_secs), "s");
    m.push(
        "cpu_us_per_op",
        ratio(cpu.total_secs * 1e6, ops as f64),
        "us",
    );
    // The gated latencies are first quartiles, not medians: on `ingest`
    // a third or more of the puts sleep in the admission ramp, so a
    // run's median sits where the undelayed puts (a few µs) give way to
    // the delayed ones (hundreds of µs), and it jumped between runs as
    // the delayed share moved. The first quartile stays among the
    // undelayed puts unless three quarters of them are delayed.
    m.push("op_p25_us", percentile_us(&lat.all, 0.25), "us");
    m.push(
        "put_p25_us",
        percentile_us(lat.kind(OpKind::Put), 0.25),
        "us",
    );

    lines.push(format!(
        "setups n={setups} fastest={fastest} s slowest={slowest} s"
    ));
    for metric in &m.0[..2] {
        lines.push(format!(
            "metric {} {} {}",
            metric.name, metric.value, metric.unit
        ));
    }
    lines.push(format!("metric ops_per_s {} 1/s", ratio(ops as f64, secs)));
    lines.push(format!("metric peak_rss_mb {peak_rss} MB"));
    lines.push(format!(
        "metric failed_frac {} ratio attempted={attempted} failed={failed}",
        ratio(failed as f64, attempted as f64)
    ));
    for kind in OpKind::ALL.into_iter().filter(|k| spec.has(*k)) {
        let s = lat.kind(kind);
        for (q, tag) in [(0.25, "p25"), (0.50, "p50"), (0.99, "p99")] {
            lines.push(format!(
                "metric {}_{tag}_us {} us n={}",
                kind.name(),
                percentile_us(s, q),
                s.len()
            ));
        }
    }
    for (q, tag) in [(0.25, "p25"), (0.50, "p50"), (0.99, "p99")] {
        lines.push(format!(
            "metric op_{tag}_us {} us n={ops}",
            percentile_us(&lat.all, q)
        ));
    }
    let quantiles: Vec<String> = [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9]
        .iter()
        .map(|&q| format!("p{}={}", q * 100.0, percentile_us(&lat.all, q)))
        .collect();
    lines.push(format!("op quantiles (us) {}", quantiles.join(" ")));
    lines.push(format!(
        "requests per {}s slice {:?}",
        driver::SLICE.as_secs_f64(),
        lat.slice_ops
    ));
    Ok(RunOutput {
        correct: true,
        attempted,
        failed,
        metrics: m,
        lines: std::mem::take(lines),
        violation: None,
    })
}

fn edge(sys: &system::System) -> Edge {
    Edge {
        cpu: procfs::CpuSample::default(),
        db: sys.db.metrics(),
        net: sys
            .remote
            .as_ref()
            .and_then(|r| r.server())
            .map(|s| s.registry().snapshot())
            .unwrap_or_default(),
        cache: sys.db.cache_stats().unwrap_or_default(),
        amp: sys.db.write_amp(),
    }
}

fn traced(args: &RunArgs, spec: &Spec, lines: &mut Vec<String>) -> Result<RunOutput, PhaseErr> {
    let fail = |s: Stop| (s, 0, 0);
    // Untraced reference window, for the tracing overhead.
    std::thread::sleep(args.cooldown);
    let sys = system::setup(spec, &args.dir, args.seed, false, args.wrap.as_deref())
        .map_err(|e| fail(e.into()))?;
    let (w, _) = window(args, spec, &sys, false).map_err(fail)?;
    close_and_verify(spec, args, sys, &w).map_err(|s| {
        let (a, f) = counts(&w);
        (s, a, f)
    })?;
    let untraced_ops_per_s = ratio(Latencies::of(&w).ops() as f64, w.elapsed.as_secs_f64());

    // The traced window.
    std::thread::sleep(args.cooldown);
    let sys = system::setup(spec, &args.dir, args.seed, true, args.wrap.as_deref())
        .map_err(|e| fail(e.into()))?;
    trace::enable(TRACE_RING_EVENTS);
    let result = driver::run_window(
        sys.client.as_ref(),
        spec,
        args.seed,
        args.warmup,
        args.seconds,
        true,
        || {
            let mut e = edge(&sys);
            if let Some(t) = &sys.timed {
                t.recording.store(true, Ordering::Relaxed);
            }
            e.cpu = procfs::sample().unwrap_or_default();
            e
        },
        || {
            let cpu = procfs::sample().unwrap_or_default();
            if let Some(t) = &sys.timed {
                t.recording.store(false, Ordering::Relaxed);
            }
            let dir_bytes = system::dir_bytes(&args.dir).unwrap_or(0);
            let levels = sys.db.level_file_counts();
            (Edge { cpu, ..edge(&sys) }, dir_bytes, levels)
        },
    );
    trace::disable();
    let recorded = trace::drain();
    let (w, e0, (e1, dir_bytes, levels)) = result.map_err(|v| fail(Stop::Wrong(v)))?;
    let (attempted, failed) = counts(&w);
    let fail = |s: Stop| (s, attempted, failed);
    if e0.cpu.threads.is_empty() || e1.cpu.threads.is_empty() {
        return Err(fail(Stop::Error("could not read /proc/self/task".into())));
    }
    if let Some(path) = &args.trace_file {
        std::fs::write(path, recorded.to_chrome_json())
            .map_err(|e| fail(io("write trace file", e)))?;
    }
    let replay_needed = !spec.net && spec.has(OpKind::Get);
    if replay_needed {
        // Everything must be on disk for the storage-only replay.
        sys.db
            .compact_to_quiescence()
            .map_err(|e| fail(Stop::Error(format!("flush before replay: {e}"))))?;
    }
    let wrapper = sys.timed.as_ref().map(|t| {
        (
            std::array::from_fn::<_, 4, _>(|k| t.calls[k].snapshot()),
            hist_mean_us(&t.write_calls.snapshot()),
            t.snapshot.snapshot(),
            t.snapshot_scan.snapshot(),
        )
    });
    let expected = close_and_verify(spec, args, sys, &w).map_err(fail)?;
    let replay = if replay_needed {
        let keys: Vec<u64> =
            interleave(w.threads.iter().map(|t| t.get_keys.as_slice()), REPLAY_GETS);
        system::replay(spec, &args.dir, &keys, &expected).map_err(|v| fail(Stop::Wrong(v)))?
    } else {
        system::Replay::default()
    };

    let lat = Latencies::of(&w);
    let ops = lat.ops();
    let secs = w.elapsed.as_secs_f64();
    let window_ns = secs * 1e9;
    let cpu = procfs::delta(&e0.cpu, &e1.cpu);
    let db = Delta {
        before: &e0.db,
        after: &e1.db,
    };
    let net = Delta {
        before: &e0.net,
        after: &e1.net,
    };
    let client_mean: Vec<f64> = OpKind::ALL.iter().map(|k| mean_us(lat.kind(*k))).collect();
    // Time inside `Db` per request (and per `Db::write` call): the
    // wrapper's spans when the server calls the store, the driver's own
    // spans when it calls the store inline.
    let (db_mean, db_p99, write_call, snapshot_us, snapshot_scan_us): (
        Vec<f64>,
        Vec<f64>,
        f64,
        f64,
        f64,
    ) = match &wrapper {
        Some((calls, write_call, snap, snap_scan)) => (
            calls.iter().map(hist_mean_us).collect(),
            calls
                .iter()
                .map(|h| h.percentile(99.0) as f64 / 1e3)
                .collect(),
            *write_call,
            hist_mean_us(snap),
            hist_mean_us(snap_scan),
        ),
        None => (
            client_mean.clone(),
            OpKind::ALL
                .iter()
                .map(|k| percentile_us(lat.kind(*k), 0.99))
                .collect(),
            client_mean[OpKind::Put.index()],
            0.0,
            0.0,
        ),
    };
    const SERVER_OPS: [&str; 4] = ["get", "write", "scan", "put_if_absent"];
    let server_mean: Vec<f64> = SERVER_OPS
        .iter()
        .map(|op| net.hist_mean_us(&format!("net.op.{op}_ns")))
        .collect();
    let per_op = |x: f64| ratio(x, ops as f64);

    let mut m = Metrics::default();
    // clsm-net
    for k in OpKind::ALL {
        let i = k.index();
        m.push(format!("client.mean_us.{}", k.name()), client_mean[i], "us");
    }
    for k in OpKind::ALL {
        let i = k.index();
        let v = if spec.net {
            client_mean[i] - server_mean[i]
        } else {
            0.0
        };
        m.push(format!("net.client_self_us.{}", k.name()), v, "us");
    }
    for k in OpKind::ALL {
        let i = k.index();
        let v = if spec.net {
            server_mean[i] - db_mean[i]
        } else {
            0.0
        };
        m.push(format!("net.server_self_us.{}", k.name()), v, "us");
    }
    m.push(
        "net.coalesce_ratio",
        ratio(
            net.counter("net.coalesced_ops"),
            net.counter("net.coalesced_batches"),
        ),
        "ratio",
    );
    m.push(
        "net.bytes_per_op",
        per_op(net.counter("net.bytes_read") + net.counter("net.bytes_written")),
        "B",
    );
    // clsm
    for k in OpKind::ALL {
        m.push(format!("db.call_us.{}", k.name()), db_mean[k.index()], "us");
    }
    for k in OpKind::ALL {
        m.push(
            format!("db.call_p99_us.{}", k.name()),
            db_p99[k.index()],
            "us",
        );
    }
    m.push("db.snapshot_us", snapshot_us, "us");
    m.push("db.snapshot_scan_us", snapshot_scan_us, "us");
    let (_, writes) = db.hist("write_path.total_ns");
    let mut stage_sum = 0.0;
    for (stage, metric) in WRITE_PATH_STAGES {
        let per_write = ratio(db.hist(metric).0, writes) / 1e3;
        stage_sum += per_write;
        m.push(format!("write_path.{stage}_us"), per_write, "us");
    }
    m.push("write_path.call_us", write_call, "us");
    m.push(
        "write_path.residual_us",
        if writes > 0.0 {
            write_call - stage_sum
        } else {
            0.0
        },
        "us",
    );
    m.push("write_path.writes", writes, "count");
    m.push(
        "admission.delay_share",
        ratio(db.counter("admission.delay_ns"), window_ns * THREADS as f64),
        "share",
    );
    m.push(
        "admission.delayed_frac",
        ratio(db.counter("admission.delayed_writes"), writes),
        "ratio",
    );
    m.push(
        "admission.hard_stalls",
        db.counter("admission.hard_stalls"),
        "count",
    );
    let committed: f64 = ["solo", "leader_requests", "follower_requests", "withdrawn"]
        .iter()
        .map(|c| db.counter(&format!("db.commit.{c}")))
        .sum();
    m.push(
        "commit.grouped_frac",
        ratio(db.counter("db.commit.group_requests"), committed),
        "ratio",
    );
    m.push(
        "rmw.conflict_ratio",
        ratio(db.counter("db.rmw_conflicts"), db.counter("db.rmw_ops")),
        "ratio",
    );
    // lsm-storage
    m.push("wal.sync_us", db.hist_mean_us("storage.wal_sync_ns"), "us");
    let sync_puts = w.threads.iter().map(|t| t.sync_puts).sum::<u64>() as f64;
    m.push(
        "wal.syncs_per_sync_put",
        ratio(db.hist("storage.wal_sync_ns").1, sync_puts),
        "ratio",
    );
    m.push("flush.count", db.counter("db.flushes"), "count");
    m.push(
        "flush.busy_share",
        ratio(db.hist("storage.flush_ns").0, window_ns),
        "share",
    );
    m.push("compaction.count", db.counter("db.compactions"), "count");
    m.push(
        "compaction.busy_share",
        ratio(db.hist("storage.compaction_ns").0, window_ns),
        "share",
    );
    m.push(
        "compaction.mb_rewritten",
        (e1.amp.compacted - e0.amp.compacted) as f64 / 1e6,
        "MB",
    );
    let amp = lsm_storage::store::WriteAmp {
        flushed: e1.amp.flushed - e0.amp.flushed,
        compacted: e1.amp.compacted - e0.amp.compacted,
    };
    m.push("storage.write_amp", amp.factor(), "ratio");
    m.push(
        "storage.space_amp",
        ratio(dir_bytes as f64, expected.live_bytes as f64),
        "ratio",
    );
    let hits = (e1.cache.0 - e0.cache.0) as f64;
    let misses = (e1.cache.1 - e0.cache.1) as f64;
    m.push("cache.block_hit_ratio", ratio(hits, hits + misses), "ratio");
    m.push(
        "levels.files_l0",
        levels.first().copied().unwrap_or(0) as f64,
        "count",
    );
    m.push(
        "levels.files_total",
        levels.iter().sum::<usize>() as f64,
        "count",
    );
    m.push("storage.get_us", replay.mean_us, "us");
    m.push("storage.replay_hit_ratio", replay.cache_hit_ratio, "ratio");
    let get_overhead = if replay.gets > 0 {
        db_mean[OpKind::Get.index()] - replay.mean_us
    } else {
        0.0
    };
    m.push("db.get_overhead_us", get_overhead, "us");
    // Per-thread CPU.
    cpu_metrics(&mut m, &cpu, ops);
    // The recorder and its cost.
    let traced_ops_per_s = ratio(ops as f64, secs);
    m.push("trace.ops_per_s", traced_ops_per_s, "1/s");
    m.push("trace.untraced_ops_per_s", untraced_ops_per_s, "1/s");
    m.push(
        "trace.ops_ratio",
        ratio(traced_ops_per_s, untraced_ops_per_s),
        "ratio",
    );
    m.push(
        "trace.events_recorded",
        recorded.threads.iter().map(|t| t.recorded).sum::<u64>() as f64,
        "count",
    );
    m.push(
        "trace.events_dropped",
        recorded.total_dropped() as f64,
        "count",
    );

    for metric in &m.0 {
        lines.push(format!(
            "layer {} {} {}",
            metric.name, metric.value, metric.unit
        ));
    }
    lines.push(format!("replayed gets {}", replay.gets));
    Ok(RunOutput {
        correct: true,
        attempted,
        failed,
        metrics: m,
        lines: std::mem::take(lines),
        violation: None,
    })
}

/// Gets the storage-only replay reissues at most.
const REPLAY_GETS: usize = 200_000;

/// Round-robin merge of the threads' key streams, up to `cap` keys.
fn interleave<'a>(streams: impl Iterator<Item = &'a [u64]>, cap: usize) -> Vec<u64> {
    let streams: Vec<&[u64]> = streams.collect();
    let longest = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    (0..longest)
        .flat_map(|n| streams.iter().filter_map(move |s| s.get(n).copied()))
        .take(cap)
        .collect()
}
