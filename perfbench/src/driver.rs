//! The closed-loop driver threads and the answer checks they make.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use clsm_kv::{KvStore, ScanRange, WriteBatch, WriteOptions};
use clsm_workloads::{KeyDistribution, KeyGen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::procfs::DRIVER_THREAD_PREFIX;
use crate::spec::{
    OpKind, Spec, RMW_KEY_BASE, RMW_KEY_SPACE, SCAN_LIMITS, SCAN_RANGE_KEYS, THREADS, ZIPF_THETA,
};
use crate::timed::CLIENT_SPANS;
use crate::value::{self, Stamp, KEY_LEN, LOADER};

/// What one driver thread knows about the keys it owns. Thread `t`
/// puts only main keys `i` with `i % THREADS == t`, so it alone knows
/// each one's last acknowledged value.
#[derive(Debug, Clone)]
pub struct Model {
    thread: u8,
    preloaded: bool,
    seq: u64,
    /// Last acknowledged put per main key index (0: none this run);
    /// only entries this thread owns are used.
    last: Vec<u32>,
    /// Keys whose put returned an error: either value may be stored.
    uncertain: HashSet<u64>,
    /// `put_if_absent` keys this thread stored, with its sequence.
    rmw_won: Vec<(u64, u64)>,
    /// `put_if_absent` keys answered without error.
    rmw_answered: HashSet<u64>,
    /// `put_if_absent` keys whose call returned an error: it may or may
    /// not have stored its value.
    rmw_uncertain: HashSet<u64>,
}

/// The owner of main key `i`.
pub fn owner(i: u64) -> u8 {
    (i % THREADS as u64) as u8
}

impl Model {
    fn new(thread: u8, spec: &Spec) -> Model {
        Model {
            thread,
            preloaded: spec.preload.is_some(),
            seq: 0,
            last: vec![0; spec.key_space as usize],
            uncertain: HashSet::new(),
            rmw_won: Vec::new(),
            rmw_answered: HashSet::new(),
            rmw_uncertain: HashSet::new(),
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        assert!(self.seq < u64::from(u32::MAX), "sequence overflow");
        self.seq
    }

    /// The value main key `i` must hold if this thread owns it and
    /// knows it exactly; `None` when it cannot say.
    fn expected_own(&self, i: u64) -> Option<Option<Stamp>> {
        if owner(i) != self.thread || self.uncertain.contains(&i) {
            return None;
        }
        Some(match self.last[i as usize] {
            0 if self.preloaded => Some(Stamp {
                writer: LOADER,
                seq: 0,
            }),
            0 => None,
            seq => Some(Stamp {
                writer: self.thread,
                seq: u64::from(seq),
            }),
        })
    }

    /// Checks a read of main key `i` by this thread.
    fn check_read(&self, i: u64, value: Option<&[u8]>) -> Result<(), String> {
        let key = value::key(i);
        let got = value.map(|v| value::check(&key, v)).transpose()?;
        let name = || String::from_utf8_lossy(&key).into_owned();
        match got {
            None if self.preloaded => {
                return Err(format!("key {} loaded in setup reads as absent", name()))
            }
            Some(s) if s.writer == LOADER && (!self.preloaded || s.seq != 0) => {
                return Err(format!(
                    "key {} holds a loader value it was never given",
                    name()
                ))
            }
            Some(s) if s.writer != LOADER && s.writer != owner(i) => {
                return Err(format!(
                    "key {} holds a value of thread {}, which never puts it",
                    name(),
                    s.writer
                ))
            }
            _ => {}
        }
        if let Some(expected) = self.expected_own(i) {
            if got != expected {
                return Err(format!(
                    "thread {} reads {:?} under {} after its last acknowledged put {:?}",
                    self.thread,
                    got,
                    name(),
                    expected
                ));
            }
        }
        Ok(())
    }
}

/// Length of the slices a window is cut into for per-slice figures.
pub const SLICE: Duration = Duration::from_secs(1);

/// One successful request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Latency in ns (saturating).
    pub ns: u32,
    /// [`OpKind::index`] of the request.
    pub kind: u8,
    /// Which [`SLICE`] of the window it completed in.
    pub slice: u8,
}

/// What one driver thread measured.
#[derive(Debug, Default)]
pub struct ThreadOut {
    /// Successful requests, in completion order.
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered with a typed error.
    pub failed: u64,
    /// Successful puts that waited for the WAL fsync.
    pub sync_puts: u64,
    /// Main key indices of the gets sent, in order (traced runs only).
    pub get_keys: Vec<u64>,
}

/// A wrong answer: the run fails and reports no metric.
pub type Violation = String;

struct Driver<'a> {
    store: &'a dyn KvStore,
    spec: &'a Spec,
    model: Model,
    out: ThreadOut,
    traced: bool,
    /// Off during the warm-up: answers are checked but not measured.
    recording: bool,
    /// Puts sent so far, for [`Spec::sync_every`].
    puts: u64,
}

impl Driver<'_> {
    fn op(
        &mut self,
        start: Instant,
        kind: OpKind,
        keys: &mut KeyGen,
        rmw_keys: &mut KeyGen,
        rng: &mut StdRng,
    ) -> Result<Instant, Violation> {
        let t = self.model.thread;
        let i = keys.next_index(rng);
        if self.recording {
            self.out.attempted += 1;
        }
        let _span = (self.traced && self.recording)
            .then(|| CLIENT_SPANS[kind.index()].span_with(self.out.attempted));
        let began;
        let ok = match kind {
            OpKind::Get => {
                if self.traced && self.recording {
                    self.out.get_keys.push(i);
                }
                let key = value::key(i);
                began = Instant::now();
                match self.store.get(&key) {
                    Ok(v) => {
                        self.model.check_read(i, v.as_deref())?;
                        true
                    }
                    Err(_) => false,
                }
            }
            OpKind::Put => {
                // Own the key: keep the draw's position, fix the owner.
                let i = i - i % THREADS as u64 + u64::from(t);
                let key = value::key(i);
                let seq = self.model.next_seq();
                let batch = WriteBatch::single_put(&key, &value::make(&key, t, seq));
                self.puts += 1;
                let opts = WriteOptions {
                    sync: self
                        .spec
                        .sync_every
                        .is_some_and(|n| self.puts.is_multiple_of(n)),
                    disable_wal: false,
                };
                began = Instant::now();
                match self.store.write(batch, &opts) {
                    Ok(()) => {
                        self.model.last[i as usize] = seq as u32;
                        if opts.sync && self.recording {
                            self.out.sync_puts += 1;
                        }
                        true
                    }
                    Err(_) => {
                        self.model.uncertain.insert(i);
                        false
                    }
                }
            }
            OpKind::Scan => {
                let limit = rng.random_range(SCAN_LIMITS);
                let end = (i + SCAN_RANGE_KEYS).min(self.spec.key_space);
                let range = ScanRange::from(value::key(i)..value::key(end));
                began = Instant::now();
                match self.store.scan(range, limit) {
                    Ok(entries) => {
                        self.check_scan(i, end, limit, &entries)?;
                        true
                    }
                    Err(_) => false,
                }
            }
            OpKind::Rmw => {
                let r = rmw_keys.next_index(rng);
                let key = value::key(RMW_KEY_BASE + r);
                let seq = self.model.next_seq();
                let v = value::make(&key, t, seq);
                began = Instant::now();
                match self.store.put_if_absent(&key, &v) {
                    Ok(stored) => {
                        if stored {
                            self.model.rmw_won.push((r, seq));
                        }
                        self.model.rmw_answered.insert(r);
                        true
                    }
                    Err(_) => {
                        self.model.rmw_uncertain.insert(r);
                        false
                    }
                }
            }
        };
        let now = Instant::now();
        if !self.recording {
            return Ok(now);
        }
        if ok {
            self.out.samples.push(Sample {
                ns: u32::try_from((now - began).as_nanos()).unwrap_or(u32::MAX),
                kind: kind.index() as u8,
                slice: u8::try_from((now - start).as_nanos() / SLICE.as_nanos()).unwrap_or(u8::MAX),
            });
        } else {
            self.out.failed += 1;
        }
        Ok(now)
    }

    /// Sends requests until `deadline` or until another thread aborts.
    fn run_until(
        &mut self,
        start: Instant,
        deadline: Instant,
        gens: &mut Gens,
        abort: &AtomicBool,
    ) -> Result<(), Violation> {
        while !abort.load(Ordering::Relaxed) {
            let kind = self.spec.kind_for(gens.rng.random_range(0..100u32));
            match self.op(
                start,
                kind,
                &mut gens.keys,
                &mut gens.rmw_keys,
                &mut gens.rng,
            ) {
                Ok(now) if now < deadline => {}
                Ok(_) => return Ok(()),
                Err(v) => {
                    abort.store(true, Ordering::Relaxed);
                    return Err(v);
                }
            }
        }
        Ok(())
    }

    /// A scan over the dense, preloaded key range `[start, end)` must
    /// return exactly the first `limit` keys of it, in order.
    fn check_scan(
        &self,
        start: u64,
        end: u64,
        limit: usize,
        entries: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<(), Violation> {
        let want = (end - start).min(limit as u64);
        if entries.len() as u64 != want {
            return Err(format!(
                "scan from key {start} (limit {limit}, range end {end}) returned {} entries, expected {want}",
                entries.len()
            ));
        }
        for (n, (k, v)) in entries.iter().enumerate() {
            let i = start + n as u64;
            if value::key_index(k) != Some(i) {
                return Err(format!(
                    "scan from key {start} returned {} at position {n}, expected key {i}",
                    String::from_utf8_lossy(k)
                ));
            }
            self.model.check_read(i, Some(v))?;
        }
        Ok(())
    }
}

/// A driver thread's seeded input generators.
struct Gens {
    rng: StdRng,
    keys: KeyGen,
    rmw_keys: KeyGen,
}

/// The result of one measured window.
#[derive(Debug)]
pub struct WindowOut {
    /// Per-thread measurements.
    pub threads: Vec<ThreadOut>,
    /// Per-thread key knowledge, for the checks after the window.
    pub models: Vec<Model>,
    /// Wall time from the start signal to the last thread's stop.
    pub elapsed: Duration,
}

/// Runs the driver threads against `store`: `warmup` unmeasured, then
/// `seconds` measured. `at_start` runs between the two, while the
/// threads wait, and `at_end` right after the last one stopped, while
/// all of them are still alive (so their CPU time can be read).
#[allow(clippy::too_many_arguments)]
pub fn run_window<A, B>(
    store: &dyn KvStore,
    spec: &Spec,
    seed: u64,
    warmup: Duration,
    seconds: f64,
    traced: bool,
    at_start: impl FnOnce() -> A,
    at_end: impl FnOnce() -> B,
) -> Result<(WindowOut, A, B), Violation> {
    let warmed = Barrier::new(THREADS + 1);
    let start = Barrier::new(THREADS + 1);
    let stop = Barrier::new(THREADS + 1);
    let sampled = Barrier::new(THREADS + 1);
    let window: OnceLock<(Instant, Instant)> = OnceLock::new();
    let abort = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (warmed, start, stop, sampled, window, abort) =
                    (&warmed, &start, &stop, &sampled, &window, &abort);
                let warm_until = Instant::now() + warmup;
                std::thread::Builder::new()
                    .name(format!("{DRIVER_THREAD_PREFIX}{t}"))
                    .spawn_scoped(s, move || {
                        let mut gens = Gens {
                            rng: StdRng::seed_from_u64(
                                seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ t as u64,
                            ),
                            keys: KeyGen::new(spec.key_space, KEY_LEN, spec.dist.clone()),
                            rmw_keys: KeyGen::new(
                                if spec.has(OpKind::Rmw) {
                                    RMW_KEY_SPACE
                                } else {
                                    1
                                },
                                KEY_LEN,
                                KeyDistribution::HeavyTail { theta: ZIPF_THETA },
                            ),
                        };
                        let mut d = Driver {
                            store,
                            spec,
                            model: Model::new(t as u8, spec),
                            out: ThreadOut::default(),
                            traced,
                            recording: false,
                            puts: 0,
                        };
                        // Every thread passes every barrier, even after
                        // a wrong answer, so none is left waiting.
                        let warm = d.run_until(warm_until, warm_until, &mut gens, abort);
                        warmed.wait();
                        start.wait();
                        let (began, deadline) = *window.get().expect("window set before start");
                        d.recording = true;
                        let result =
                            warm.and_then(|()| d.run_until(began, deadline, &mut gens, abort));
                        stop.wait();
                        sampled.wait();
                        result.map(|()| (d.out, d.model))
                    })
                    .expect("spawn driver thread")
            })
            .collect();
        warmed.wait();
        let a = at_start();
        let began = Instant::now();
        window
            .set((began, began + Duration::from_secs_f64(seconds)))
            .expect("window set once");
        start.wait();
        stop.wait();
        let elapsed = began.elapsed();
        let b = at_end();
        sampled.wait();
        let mut out = WindowOut {
            threads: Vec::new(),
            models: Vec::new(),
            elapsed,
        };
        for h in handles {
            let (t, m) = h.join().expect("driver thread panicked")?;
            out.threads.push(t);
            out.models.push(m);
        }
        Ok((out, a, b))
    })
}

/// The final value every key must hold after the window, from the
/// threads' models: main keys by index, `put_if_absent` keys by their
/// offset in the rmw range. Fails if two `put_if_absent` calls stored
/// the same key, or one answered "present" for a key nobody stored.
pub struct Expected {
    /// Main key index -> stamp it must hold.
    pub main: Vec<(u64, Stamp)>,
    /// Rmw key offset -> stamp of the one stored value.
    pub rmw: Vec<(u64, Stamp)>,
    /// Live user bytes (keys plus values) those keys hold.
    pub live_bytes: u64,
}

impl Expected {
    /// Merges the per-thread models.
    pub fn from_models(spec: &Spec, models: &[Model]) -> Result<Expected, Violation> {
        let mut main = Vec::new();
        for i in 0..spec.key_space {
            let m = &models[owner(i) as usize];
            if let Some(Some(stamp)) = m.expected_own(i) {
                main.push((i, stamp));
            }
        }
        let mut won: HashMap<u64, Stamp> = HashMap::new();
        for m in models {
            for &(r, seq) in &m.rmw_won {
                let stamp = Stamp {
                    writer: m.thread,
                    seq,
                };
                if let Some(other) = won.insert(r, stamp) {
                    return Err(format!(
                        "put_if_absent stored rmw key {r} twice: {other:?} and {stamp:?}"
                    ));
                }
            }
        }
        let uncertain: HashSet<u64> = models
            .iter()
            .flat_map(|m| m.rmw_uncertain.iter().copied())
            .collect();
        for m in models {
            if let Some(r) = m
                .rmw_answered
                .iter()
                .find(|r| !won.contains_key(r) && !uncertain.contains(r))
            {
                return Err(format!(
                    "put_if_absent found rmw key {r} present, but no call stored it"
                ));
            }
        }
        let mut rmw: Vec<(u64, Stamp)> = won.into_iter().collect();
        rmw.sort_unstable_by_key(|(r, _)| *r);
        let live_bytes = ((main.len() + rmw.len()) * (KEY_LEN + value::VALUE_LEN)) as u64;
        Ok(Expected {
            main,
            rmw,
            live_bytes,
        })
    }

    /// Checks every expected key through `get`.
    pub fn check(
        &self,
        get: impl Fn(&[u8]) -> Result<Option<Vec<u8>>, String>,
    ) -> Result<(), Violation> {
        let keys = self.main.iter().map(|&(i, s)| (value::key(i), s)).chain(
            self.rmw
                .iter()
                .map(|&(r, s)| (value::key(RMW_KEY_BASE + r), s)),
        );
        for (key, want) in keys {
            let name = String::from_utf8_lossy(&key).into_owned();
            let got = get(&key)?
                .ok_or_else(|| format!("key {name} is absent after reopen, expected {want:?}"))?;
            let got = value::check(&key, &got)?;
            if got != want {
                return Err(format!("key {name} holds {got:?} after reopen, expected its last acknowledged put {want:?}"));
            }
        }
        Ok(())
    }
}
