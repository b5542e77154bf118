//! The benchmark's own checks: every metric it promises is printed with
//! its unit, planted wrong answers fail the run, planted errors are
//! counted, and the traced breakdowns add up.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use clsm_kv::{KvSnapshot, KvStore, ScanRange, WriteBatch, WriteOptions};
use clsm_util::error::{Error, Result};
use perfbench::spec::Workload;
use perfbench::system::Wrap;
use perfbench::{run, RunArgs, RunOutput};

const SECONDS: f64 = 0.5;

/// A short run. The fault tests skip the warm-up so that the faulty get
/// falls in the measured window.
fn args(workload: Workload, trace: bool, tag: &str, wrap: Option<Box<Wrap>>) -> RunArgs {
    let warmup = if wrap.is_some() {
        Duration::ZERO
    } else {
        Duration::from_millis(200)
    };
    RunArgs {
        workload,
        seed: 7,
        cooldown: Duration::ZERO,
        warmup,
        seconds: SECONDS,
        trace,
        dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("selftest-{tag}-{}", workload.name())),
        setups: 1,
        setup_budget: Duration::ZERO,
        wrap,
        trace_file: None,
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn emitted(out: &RunOutput) -> Vec<(String, String)> {
    out.metrics
        .0
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn value(out: &RunOutput, name: &str) -> f64 {
    out.metrics
        .get(name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in Workload::ALL {
        for (trace, want) in [(false, &e2e), (true, &layers)] {
            let out = run(&args(w, trace, "emit", None)).unwrap();
            assert!(out.correct, "{}: {:?}", w.name(), out.violation);
            assert_eq!(out.failed, 0, "{}", w.name());
            assert!(out.attempted > 0);
            assert_eq!(&emitted(&out), want, "{} trace={trace}", w.name());
            assert!(
                out.metrics.0.iter().all(|m| m.value.is_finite()),
                "{}",
                w.name()
            );
            if !trace {
                assert!(
                    out.metrics.0.iter().all(|m| m.value > 0.0),
                    "{}: {:?}",
                    w.name(),
                    out.metrics
                );
            }
            let json = out.json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Flip one byte of one get's value.
    Corrupt,
    /// Answer one get of a loaded key with "absent".
    Absent,
    /// Fail one get with a typed error.
    Error,
}

/// Passes every call through, except the 100th get.
struct Faulty {
    inner: Arc<dyn KvStore>,
    fault: Fault,
    gets: AtomicU64,
}

impl KvStore for Faulty {
    fn write(&self, batch: WriteBatch, opts: &WriteOptions) -> Result<()> {
        self.inner.write(batch, opts)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let got = self.inner.get(key);
        if self.gets.fetch_add(1, Ordering::Relaxed) != 100 {
            return got;
        }
        match self.fault {
            Fault::Corrupt => got.map(|v| {
                v.map(|mut v| {
                    v[100] ^= 1;
                    v
                })
            }),
            Fault::Absent => Ok(None),
            Fault::Error => Err(Error::invalid_argument("injected by the self-test")),
        }
    }

    fn snapshot(&self) -> Result<Box<dyn KvSnapshot>> {
        self.inner.snapshot()
    }

    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.inner.scan(range, limit)
    }

    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool> {
        self.inner.put_if_absent(key, value)
    }

    fn quiesce(&self) -> Result<()> {
        self.inner.quiesce()
    }

    fn name(&self) -> &'static str {
        "faulty"
    }
}

fn faulty(fault: Fault) -> Option<Box<Wrap>> {
    Some(Box::new(move |inner| {
        Arc::new(Faulty {
            inner,
            fault,
            gets: AtomicU64::new(0),
        }) as Arc<dyn KvStore>
    }))
}

#[test]
fn a_wrong_answer_fails_the_run_and_reports_no_metric() {
    for (w, fault) in [
        (Workload::ServeRead, Fault::Corrupt),
        (Workload::ServeRead, Fault::Absent),
        (Workload::NetMixed, Fault::Corrupt),
    ] {
        let out = run(&args(w, false, &format!("{fault:?}"), faulty(fault))).unwrap();
        assert!(!out.correct, "{fault:?} on {} went unnoticed", w.name());
        assert!(out.metrics.0.is_empty());
        let violation = out.violation.clone().unwrap();
        assert!(
            violation.contains(match fault {
                Fault::Corrupt => "checksum",
                _ => "absent",
            }),
            "{violation}"
        );
        assert!(out.json().starts_with("{\"correct\": false"));
    }
}

#[test]
fn a_typed_error_counts_as_failed_not_wrong() {
    let out = run(&args(
        Workload::ServeRead,
        false,
        "error",
        faulty(Fault::Error),
    ))
    .unwrap();
    assert!(out.correct, "{:?}", out.violation);
    assert_eq!(out.failed, 1);
    assert!(out.attempted > 100);
}

#[test]
fn traced_breakdowns_reconcile() {
    for w in [Workload::Ingest, Workload::NetMixed] {
        let out = run(&args(w, true, "reconcile", None)).unwrap();
        assert!(out.correct, "{:?}", out.violation);
        // Stage means plus the residual make up the put call exactly,
        // and the stages never claim more than the call took.
        let call = value(&out, "write_path.call_us");
        let stages: f64 = clsm::WRITE_PATH_STAGES
            .iter()
            .map(|(stage, _)| value(&out, &format!("write_path.{stage}_us")))
            .sum();
        let residual = value(&out, "write_path.residual_us");
        assert!((stages + residual - call).abs() < 1e-6 * call.max(1.0));
        assert!(
            residual > -0.05 * call,
            "{}: stages {stages} exceed call {call}",
            w.name()
        );
        assert!(value(&out, "write_path.writes") > 0.0);
        // Thread groups plus residual make up the process CPU.
        let total = value(&out, "cpu.total_us_per_op");
        let groups: f64 = out
            .metrics
            .0
            .iter()
            .filter(|m| m.name.starts_with("cpu.") && m.name != "cpu.total_us_per_op")
            .map(|m| m.value)
            .sum();
        assert!((groups - total).abs() < 1e-6 * total.max(1.0));
        assert!(value(&out, "cpu.foreground_us_per_op") > 0.0);
        assert!(value(&out, "trace.events_recorded") > 0.0);
    }
}

#[test]
fn traced_net_mixed_splits_client_server_and_db_time() {
    let out = run(&args(Workload::NetMixed, true, "split", None)).unwrap();
    assert!(out.correct, "{:?}", out.violation);
    for op in ["get", "put", "scan", "rmw"] {
        let client = value(&out, &format!("client.mean_us.{op}"));
        let parts = value(&out, &format!("net.client_self_us.{op}"))
            + value(&out, &format!("net.server_self_us.{op}"))
            + value(&out, &format!("db.call_us.{op}"));
        assert!(
            (client - parts).abs() < 1e-6 * client,
            "{op}: {client} vs {parts}"
        );
        assert!(
            value(&out, &format!("net.server_self_us.{op}")) >= 0.0,
            "{op}"
        );
        assert!(
            value(&out, &format!("net.client_self_us.{op}")) > 0.0,
            "{op}"
        );
    }
    assert!(value(&out, "net.coalesce_ratio") >= 1.0);
    assert!(value(&out, "wal.syncs_per_sync_put") > 0.0);
    assert!(value(&out, "cpu.net_worker_us_per_op") > 0.0);
}

#[test]
fn serve_read_replays_its_gets_through_storage() {
    let out = run(&args(Workload::ServeRead, true, "replay", None)).unwrap();
    assert!(out.correct, "{:?}", out.violation);
    assert!(value(&out, "storage.get_us") > 0.0);
    assert!(value(&out, "levels.files_total") > 1.0);
    assert!(value(&out, "cache.block_hit_ratio") > 0.0);
}
