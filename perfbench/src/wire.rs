//! `wire-mix` and `durable-restart`: real sessions over loopback TCP.
//!
//! One [`WireServer`] on an ephemeral port serves the six programs'
//! plans (StaticCallGraph ordering, pacing off, admission wide open).
//! Two client threads — one per core of the reference box — run a
//! closed loop, each drawing every session's program from the seeded
//! mix. Sessions range from Hanoi (61 units, 5 KB), dominated by
//! connect and handshake, to Jess (1665 units, 225 KB), dominated by
//! per-frame cost, so a connect-path change and a per-frame change
//! show on different metrics.
//!
//! `durable-restart` journals every session through a `DurableSession`
//! over a fresh quiet in-memory `FaultFs`, kills it at a seeded unit,
//! power-cycles the store and restarts warm. In-memory on purpose: a
//! real filesystem's fsync latency on a shared host swamps the
//! program's own cost and varies run to run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use nonstrict_core::{build_plan, verify_payloads, OrderingSource};
use nonstrict_store::{DurableSession, FaultFs, FaultKnobs, StoreError, Vfs};
use nonstrict_wire::{
    content_digest_of, crc32, ClientConfig, ClientError, Frame, ServePlan, ServerConfig,
    SessionStore, SplitMix64, StoreFault, WarmSession, WireClient, WireServer,
};

use crate::stats::{median, ms, sorted};
use crate::trace::{Span, Tracer};
use crate::{setup, Measured, Opts};

/// Client threads: one per core of the 2-core reference box.
pub const CLIENTS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Mix,
    Durable,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Mix => "wire-mix",
            Mode::Durable => "durable-restart",
        }
    }
}

/// The session mix: each client runs seeded shuffles of this block.
/// Seven sessions, not six, so the median session lands inside one
/// program's cluster (JHLZip) instead of on the boundary between two,
/// where it would flip from one to the other run to run.
const MIX_BLOCK: [&str; 7] = [
    "hanoi", "hanoi", "testdes", "jhlzip", "bit", "javacup", "jess",
];

/// What every session checks against: the plans' own unit CRCs.
struct Expected {
    names: Vec<String>,
    /// [`MIX_BLOCK`] as plan indices.
    block: Vec<usize>,
    crcs: Vec<Vec<Vec<u32>>>,
    units: Vec<u64>,
    bytes: Vec<u64>,
}

impl Expected {
    fn of(plans: &[ServePlan]) -> Expected {
        let names: Vec<String> = plans.iter().map(|p| p.benchmark.clone()).collect();
        Expected {
            block: MIX_BLOCK
                .iter()
                .map(|b| {
                    names
                        .iter()
                        .position(|n| n == b)
                        .expect("mix names a served program")
                })
                .collect(),
            names,
            crcs: plans
                .iter()
                .map(|p| {
                    p.classes
                        .iter()
                        .map(|c| c.units.iter().map(|u| crc32(u)).collect())
                        .collect()
                })
                .collect(),
            units: plans.iter().map(|p| p.total_units() as u64).collect(),
            bytes: plans.iter().map(ServePlan::total_bytes).collect(),
        }
    }
}

/// Timestamps and costs one session's store hooks saw (traced only).
#[derive(Default)]
struct StoreLog {
    pin: Option<Instant>,
    first_unit: Option<Instant>,
    complete: Option<Instant>,
    units: u64,
    bytes: u64,
    on_unit_ns: Vec<u64>,
    warm_start_ns: Option<u64>,
}

/// A `SessionStore` that delegates to the real store (or to none) and
/// notes when the session reached each phase. Untraced it only takes
/// the first unit's timestamp; traced it also times every hook.
struct Recorder {
    inner: Option<Box<dyn SessionStore>>,
    first_unit: Arc<OnceLock<Instant>>,
    log: Option<Arc<Mutex<StoreLog>>>,
}

impl Recorder {
    fn with_log<R>(&self, f: impl FnOnce(&mut StoreLog) -> R) -> Option<R> {
        self.log
            .as_ref()
            .map(|l| f(&mut l.lock().expect("store log lock: a client thread panicked")))
    }
}

impl SessionStore for Recorder {
    fn warm_start(&mut self) -> Option<WarmSession> {
        let t = Instant::now();
        let warm = self.inner.as_mut().and_then(|s| s.warm_start());
        let ns = t.elapsed().as_nanos() as u64;
        self.with_log(|l| l.warm_start_ns = Some(ns));
        warm
    }

    fn on_pin(&mut self, generation: u32, manifest: &[u8]) -> Result<(), StoreFault> {
        let r = match self.inner.as_mut() {
            Some(s) => s.on_pin(generation, manifest),
            None => Ok(()),
        };
        self.with_log(|l| l.pin = Some(Instant::now()));
        r
    }

    fn on_unit(
        &mut self,
        class: u32,
        unit: u32,
        epoch: u32,
        units: u32,
        payload: &[u8],
    ) -> Result<(), StoreFault> {
        let t = self.log.as_ref().map(|_| Instant::now());
        let r = match self.inner.as_mut() {
            Some(s) => s.on_unit(class, unit, epoch, units, payload),
            None => Ok(()),
        };
        if self.first_unit.get().is_none() {
            let _ = self.first_unit.set(Instant::now());
        }
        if let Some(t) = t {
            let ns = t.elapsed().as_nanos() as u64;
            self.with_log(|l| {
                l.first_unit.get_or_insert_with(Instant::now);
                l.units += 1;
                l.bytes += payload.len() as u64;
                l.on_unit_ns.push(ns);
            });
        }
        r
    }

    fn on_reset_class(&mut self, class: u32, epoch: u32, units: u32) -> Result<(), StoreFault> {
        match self.inner.as_mut() {
            Some(s) => s.on_reset_class(class, epoch, units),
            None => Ok(()),
        }
    }

    fn on_truncate(&mut self, class: u32, delivered: u32) -> Result<(), StoreFault> {
        match self.inner.as_mut() {
            Some(s) => s.on_truncate(class, delivered),
            None => Ok(()),
        }
    }

    fn on_reset_all(&mut self) -> Result<(), StoreFault> {
        match self.inner.as_mut() {
            Some(s) => s.on_reset_all(),
            None => Ok(()),
        }
    }

    fn on_complete(&mut self) -> Result<(), StoreFault> {
        let r = match self.inner.as_mut() {
            Some(s) => s.on_complete(),
            None => Ok(()),
        };
        self.with_log(|l| l.complete = Some(Instant::now()));
        r
    }
}

/// Counts and times one session's VFS calls (traced only).
#[derive(Default)]
struct VfsLog {
    append_ns: Vec<u64>,
    write_atomic: u64,
    read_bytes: u64,
}

struct TimingVfs {
    inner: Arc<FaultFs>,
    log: Arc<Mutex<VfsLog>>,
}

impl TimingVfs {
    fn log(&self) -> std::sync::MutexGuard<'_, VfsLog> {
        self.log
            .lock()
            .expect("vfs log lock: a client thread panicked")
    }
}

impl Vfs for TimingVfs {
    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        let r = self.inner.read(name);
        if let Ok(bytes) = &r {
            self.log().read_bytes += bytes.len() as u64;
        }
        r
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.log().write_atomic += 1;
        self.inner.write_atomic(name, bytes)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let t = Instant::now();
        let r = self.inner.append(name, bytes);
        let ns = t.elapsed().as_nanos() as u64;
        self.log().append_ns.push(ns);
        r
    }

    fn remove(&self, name: &str) -> Result<(), StoreError> {
        self.inner.remove(name)
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.inner.list()
    }
}

/// One session's outcome.
#[derive(Default)]
struct Outcome {
    program: usize,
    broken: Option<&'static str>,
    session_ns: u64,
    first_unit_ns: Option<u64>,
    restart_ns: Option<u64>,
    payload_bytes: u64,
    runs: u32,
    connects: u32,
    admission_retries: u32,
    stream_faults: u32,
    killed_at: u64,
    warm_units: u64,
    traced: Option<TracedSession>,
}

/// The per-layer view of one session.
#[derive(Default)]
struct TracedSession {
    connect_to_pin_ns: u64,
    pin_to_first_unit_ns: u64,
    stream_ns: u64,
    close_ns: u64,
    wire_units: u64,
    wire_bytes: u64,
    on_unit_ns: Vec<u64>,
    warm_start_ns: Option<u64>,
    vfs: VfsLog,
}

impl TracedSession {
    /// Adds one client run's store-hook counts.
    fn absorb(&mut self, l: &StoreLog) {
        self.wire_units += l.units;
        self.wire_bytes += l.bytes;
        self.on_unit_ns.extend_from_slice(&l.on_unit_ns);
    }
}

struct Client<'a> {
    addr: SocketAddr,
    expected: &'a Expected,
    mode: Mode,
    tracer: Option<&'a Tracer>,
    spans: Vec<Span>,
}

/// One client run: its result, when it started and ended, when its
/// first unit was accepted, and (traced) what its store hooks saw.
struct Run {
    result: Result<nonstrict_wire::ClientReport, ClientError>,
    start: Instant,
    end: Instant,
    first_unit: Option<Instant>,
    log: Option<Arc<Mutex<StoreLog>>>,
}

impl Client<'_> {
    /// The session config for `program`: StaticCallGraph ordering (wire
    /// code 0, the default), the plans' own lowercase name.
    fn config(&self, program: usize) -> ClientConfig {
        ClientConfig::new(self.addr, &self.expected.names[program])
    }

    /// One client run with a recording store over `inner`.
    fn run_once(&self, config: ClientConfig, inner: Option<Box<dyn SessionStore>>) -> Run {
        let first_unit = Arc::new(OnceLock::new());
        let log = self
            .tracer
            .map(|_| Arc::new(Mutex::new(StoreLog::default())));
        let store = Recorder {
            inner,
            first_unit: Arc::clone(&first_unit),
            log: log.clone(),
        };
        let start = Instant::now();
        let result = WireClient::with_store(config, Box::new(store)).run();
        Run {
            result,
            start,
            end: Instant::now(),
            first_unit: first_unit.get().copied(),
            log,
        }
    }

    fn session(&mut self, program: usize, kill_at: u64, sid: u64) -> Outcome {
        let mut out = Outcome {
            program,
            ..Outcome::default()
        };
        let mut traced = TracedSession::default();
        let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(sid)));
        let vfs_log = Arc::new(Mutex::new(VfsLog::default()));
        let vfs: Arc<dyn Vfs> = match self.tracer {
            Some(_) => Arc::new(TimingVfs {
                inner: Arc::clone(&fs),
                log: Arc::clone(&vfs_log),
            }),
            None => fs.clone(),
        };
        let durable = || -> Option<Box<dyn SessionStore>> {
            Some(Box::new(DurableSession::new(Arc::clone(&vfs))))
        };

        let mut config = self.config(program);
        let cold_store = match self.mode {
            Mode::Mix => None,
            Mode::Durable => {
                config.kill_after_units = Some(kill_at);
                durable()
            }
        };
        let Run {
            result: cold,
            start,
            end: cold_end,
            first_unit,
            log: cold_log,
        } = self.run_once(config, cold_store);
        out.runs = 1;
        out.first_unit_ns = first_unit.map(|t| t.duration_since(start).as_nanos() as u64);
        // Traced: the session's phases, children of its root span.
        let mut phases: Vec<(&'static str, Instant, Instant)> = Vec::new();
        if let Some(log) = &cold_log {
            let l = log
                .lock()
                .expect("store log lock: a client thread panicked");
            let pin = l.pin.unwrap_or(start);
            let first = l.first_unit.unwrap_or(pin);
            phases.push(("wire.connect_to_pin", start, pin));
            phases.push(("wire.pin_to_first_unit", pin, first));
            match l.complete {
                Some(done) => {
                    phases.push(("wire.stream", first, done));
                    phases.push(("wire.close", done, cold_end));
                }
                // Killed mid-stream: the stream ends at the kill.
                None => phases.push(("wire.stream", first, cold_end)),
            }
            traced.absorb(&l);
        }
        let mut end = cold_end;
        let report = match (self.mode, cold) {
            (Mode::Mix, Ok(report)) => Ok(report),
            (Mode::Mix, Err(_)) => Err("wire-mix.session-failed"),
            (Mode::Durable, Err(ClientError::Killed { delivered })) => {
                out.killed_at = delivered;
                fs.crash();
                let Run {
                    result: warm,
                    start: restart,
                    end: warm_end,
                    log: warm_log,
                    ..
                } = self.run_once(self.config(program), durable());
                end = warm_end;
                out.runs = 2;
                out.restart_ns = Some(warm_end.duration_since(restart).as_nanos() as u64);
                if let Some(log) = &warm_log {
                    let l = log
                        .lock()
                        .expect("store log lock: a client thread panicked");
                    let recovered =
                        restart + Duration::from_nanos(l.warm_start_ns.unwrap_or_default());
                    phases.push(("store.warm_start", restart, recovered));
                    if let (Some(first), Some(done)) = (l.first_unit, l.complete) {
                        phases.push(("wire.warm_resume", recovered, first));
                        phases.push(("wire.stream", first, done));
                        phases.push(("wire.close", done, warm_end));
                    }
                    traced.absorb(&l);
                    traced.warm_start_ns = l.warm_start_ns;
                }
                warm.map_err(|_| "durable-restart.warm-run-failed")
            }
            (Mode::Durable, _) => Err("durable-restart.kill-not-taken"),
        };
        out.session_ns = end.duration_since(start).as_nanos() as u64;
        match report {
            Err(gate) => out.broken = Some(gate),
            Ok(report) => {
                out.connects += report.connects;
                out.admission_retries += report.admission_retries;
                out.stream_faults += report.stream_faults;
                out.warm_units = report.warm_units;
                if !report.complete {
                    out.broken = Some(match self.mode {
                        Mode::Mix => "wire-mix.complete",
                        Mode::Durable => "durable-restart.converge",
                    });
                } else if report.unit_crcs != self.expected.crcs[program] {
                    out.broken = Some(match self.mode {
                        Mode::Mix => "wire-mix.unit-crcs",
                        Mode::Durable => "durable-restart.converge",
                    });
                } else if self.mode == Mode::Durable && report.warm_units != out.killed_at {
                    out.broken = Some("durable-restart.warm-units");
                } else {
                    out.payload_bytes = self.expected.bytes[program];
                }
            }
        }
        // The killed cold run's connect is not in the warm report.
        if self.mode == Mode::Durable {
            out.connects += 1;
        }
        if let Some(t) = self.tracer {
            let root = t.id();
            let span = |id, parent, name: &str, a: Instant, b: Instant| Span {
                id,
                parent,
                session: sid,
                name: name.to_owned(),
                start_ns: t.ns(a),
                end_ns: t.ns(b),
            };
            self.spans
                .push(span(root, None, "wire.session", start, end));
            for &(name, a, b) in &phases {
                let ns = b.saturating_duration_since(a).as_nanos() as u64;
                match name {
                    "wire.connect_to_pin" => traced.connect_to_pin_ns += ns,
                    "wire.pin_to_first_unit" => traced.pin_to_first_unit_ns += ns,
                    "wire.stream" => traced.stream_ns += ns,
                    "wire.close" => traced.close_ns += ns,
                    _ => {}
                }
                self.spans.push(span(t.id(), Some(root), name, a, b));
            }
            traced.vfs = std::mem::take(&mut *vfs_log.lock().expect("vfs log lock"));
            out.traced = Some(traced);
        }
        out
    }
}

/// Runs the closed loop for `budget`: [`CLIENTS`] threads, each
/// drawing programs (and, for `durable-restart`, kill points) from its
/// own stream of the seed. Returns every session and the wall time.
fn closed_loop(
    addr: SocketAddr,
    expected: &Expected,
    mode: Mode,
    seed: u64,
    budget: Duration,
    tracer: Option<&Tracer>,
    sid_base: u64,
) -> (Vec<Outcome>, f64) {
    let start = Instant::now();
    let deadline = start + budget;
    let per_thread: Vec<Vec<Outcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|thread| {
                scope.spawn(move || {
                    let mut rng = SplitMix64(seed ^ (0x9e37_79b9 * (thread as u64 + 1)));
                    let mut client = Client {
                        addr,
                        expected,
                        mode,
                        tracer,
                        spans: Vec::new(),
                    };
                    let mut outs = Vec::new();
                    let mut block: Vec<usize> = Vec::new();
                    while Instant::now() < deadline {
                        if block.is_empty() {
                            block = expected.block.clone();
                            // Fisher-Yates, seeded.
                            for i in (1..block.len()).rev() {
                                block.swap(i, rng.below(i as u64 + 1) as usize);
                            }
                        }
                        let program = block.pop().expect("refilled above");
                        let kill_at = 1 + rng.below(expected.units[program] - 1);
                        let sid = sid_base + (thread as u64) * 1_000_000 + outs.len() as u64;
                        outs.push(client.session(program, kill_at, sid));
                    }
                    if let Some(t) = tracer {
                        t.extend(std::mem::take(&mut client.spans));
                    }
                    outs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    (per_thread.into_iter().flatten().collect(), wall)
}

/// Nanoseconds per KiB of `f` applied to every unit, median of five
/// timed repetitions of enough rounds to cover at least 8 MiB.
fn ns_per_kb(units: &[Vec<u8>], mut f: impl FnMut(usize, &[u8])) -> f64 {
    let bytes: usize = units.iter().map(Vec::len).sum();
    let rounds = (8 << 20) / bytes.max(1) + 1;
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..rounds {
            for (i, u) in units.iter().enumerate() {
                f(i, u);
            }
        }
        samples.push(t.elapsed().as_nanos() as f64 / ((bytes * rounds) as f64 / 1024.0));
    }
    median(&sorted(&samples)).unwrap_or(f64::NAN)
}

/// The per-unit layer probe over every real unit of the six plans.
fn probe_units(plans: &[ServePlan], m: &mut Measured) {
    let mut units = Vec::new();
    let mut ids = Vec::new();
    let mut epochs = Vec::new();
    for plan in plans {
        for (ci, class) in plan.classes.iter().enumerate() {
            for (ui, u) in class.units.iter().enumerate() {
                units.push(u.clone());
                ids.push((ci as u32, ui as u32));
                epochs.push(plan.manifest_epoch);
            }
        }
    }
    let frames: Vec<Frame> = units
        .iter()
        .zip(&ids)
        .map(|(u, &(class, unit))| Frame::Unit {
            class,
            unit,
            payload: u.clone(),
        })
        .collect();
    let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    m.layers.insert(
        "wire.frame.encode_ns_per_kb",
        ns_per_kb(&units, |i, _| {
            black_box(frames[i].encode());
        }),
    );
    m.layers.insert(
        "wire.frame.decode_ns_per_kb",
        ns_per_kb(&units, |i, _| {
            black_box(Frame::decode(&encoded[i]).expect("probe frame decodes"));
        }),
    );
    m.layers.insert(
        "wire.crc32_ns_per_kb",
        ns_per_kb(&units, |_, u| {
            black_box(crc32(u));
        }),
    );
    m.layers.insert(
        "wire.digest_ns_per_kb",
        ns_per_kb(&units, |i, u| {
            black_box(content_digest_of(epochs[i], ids[i].0, ids[i].1, u));
        }),
    );
    // verify_payloads takes a whole program; time it per program and
    // normalise by the bytes it parsed.
    let programs: Vec<Vec<Vec<Vec<u8>>>> = plans
        .iter()
        .map(|p| p.classes.iter().map(|c| c.units.clone()).collect())
        .collect();
    let bytes: u64 = plans.iter().map(ServePlan::total_bytes).sum();
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for p in &programs {
            black_box(verify_payloads(p).expect("served units verify"));
        }
        samples.push(t.elapsed().as_nanos() as f64 / (bytes as f64 / 1024.0));
    }
    m.layers.insert(
        "classfile.stream_parse_ns_per_kb",
        median(&sorted(&samples)).unwrap_or(f64::NAN),
    );
}

fn p50(v: &[f64]) -> f64 {
    median(&sorted(v)).unwrap_or(0.0)
}

/// Per-layer metrics from the traced sessions.
fn layer_metrics(outs: &[Outcome], wall: f64, bytes_sent: u64, mode: Mode, m: &mut Measured) {
    let traced: Vec<&TracedSession> = outs.iter().filter_map(|o| o.traced.as_ref()).collect();
    let col = |f: &dyn Fn(&TracedSession) -> u64| -> Vec<f64> {
        traced.iter().map(|t| ms(f(t))).collect()
    };
    m.layers.insert(
        "wire.connect_to_pin_ms_p50",
        p50(&col(&|t| t.connect_to_pin_ns)),
    );
    m.layers.insert(
        "wire.pin_to_first_unit_ms_p50",
        p50(&col(&|t| t.pin_to_first_unit_ns)),
    );
    m.layers
        .insert("wire.stream_ms_p50", p50(&col(&|t| t.stream_ns)));
    m.layers
        .insert("wire.close_ms_p50", p50(&col(&|t| t.close_ns)));
    let wire_units: u64 = traced.iter().map(|t| t.wire_units).sum();
    let wire_bytes: u64 = traced.iter().map(|t| t.wire_bytes).sum();
    m.layers
        .insert("wire.units_per_s", wire_units as f64 / wall);
    let runs: u32 = outs.iter().map(|o| o.runs).sum();
    let connects: u32 = outs.iter().map(|o| o.connects).sum();
    m.layers.insert(
        "wire.connects_per_session",
        f64::from(connects) / f64::from(runs.max(1)),
    );
    m.layers.insert(
        "wire.admission_retries",
        outs.iter().map(|o| f64::from(o.admission_retries)).sum(),
    );
    m.layers.insert(
        "wire.stream_faults",
        outs.iter().map(|o| f64::from(o.stream_faults)).sum(),
    );
    m.layers.insert(
        "wire.server.bytes_sent_per_delivered",
        bytes_sent as f64 / wire_bytes.max(1) as f64,
    );
    if mode == Mode::Durable {
        let n = traced.len().max(1) as f64;
        let appends: Vec<f64> = traced
            .iter()
            .flat_map(|t| t.vfs.append_ns.iter().map(|&ns| ns as f64 / 1e3))
            .collect();
        let append_count: usize = traced.iter().map(|t| t.vfs.append_ns.len()).sum();
        let read_bytes: u64 = traced.iter().map(|t| t.vfs.read_bytes).sum();
        m.layers
            .insert("store.vfs.append_count", append_count as f64 / n);
        m.layers.insert("store.vfs.append_us_p50", p50(&appends));
        m.layers.insert(
            "store.vfs.write_atomic_count",
            traced
                .iter()
                .map(|t| t.vfs.write_atomic as f64)
                .sum::<f64>()
                / n,
        );
        m.layers.insert(
            "store.vfs.read_bytes_per_append",
            read_bytes as f64 / append_count.max(1) as f64,
        );
        let on_unit: Vec<f64> = traced
            .iter()
            .flat_map(|t| t.on_unit_ns.iter().map(|&ns| ns as f64 / 1e3))
            .collect();
        m.layers
            .insert("store.session.on_unit_us_p50", p50(&on_unit));
        let on_unit_total: f64 = on_unit.iter().sum::<f64>() * 1e3;
        let session_total: f64 = outs
            .iter()
            .filter(|o| o.traced.is_some())
            .map(|o| o.session_ns as f64)
            .sum();
        m.layers.insert(
            "store.session.on_unit_share",
            on_unit_total / session_total.max(1.0),
        );
        m.layers.insert(
            "store.session.warm_start_ms_p50",
            p50(&traced
                .iter()
                .filter_map(|t| t.warm_start_ns)
                .map(ms)
                .collect::<Vec<_>>()),
        );
        let killed: u64 = outs.iter().map(|o| o.killed_at).sum();
        let warm: u64 = outs.iter().map(|o| o.warm_units).sum();
        m.layers
            .insert("store.warm_units_ratio", warm as f64 / killed.max(1) as f64);
    }
}

/// Folds sessions into the operation counts and broken-gate tallies.
fn tally(outs: &[Outcome], m: &mut Measured) {
    for o in outs {
        m.attempted += 1;
        if let Some(gate) = o.broken {
            m.fail(gate);
        }
    }
}

pub fn run(mode: Mode, opts: &Opts, tracer: Option<&Tracer>) -> Measured {
    let mut m = Measured::default();
    let names = setup::program_names();
    let (plans, setup_s) = setup::repeated(|| {
        names
            .iter()
            .map(|n| build_plan(n, OrderingSource::StaticCallGraph).expect("plan builds"))
            .collect::<Vec<_>>()
    });
    if let Some(t) = tracer {
        setup::probe_layers(t, &mut m);
    }
    let expected = Expected::of(&plans);
    let config = ServerConfig {
        // Admission never binds: every connect is admitted at once.
        accept_burst: 1_000_000,
        accept_refill_per_sec: 1_000_000,
        pace_per_unit: None,
        ..ServerConfig::default()
    };
    let probe_plans = tracer.map(|_| plans.clone());
    let server = WireServer::bind("127.0.0.1:0", plans, config).expect("bind an ephemeral port");
    let addr = server.local_addr();

    // Untimed warm round: every program once, checked like the rest.
    let warm = Instant::now();
    let mut warm_client = Client {
        addr,
        expected: &expected,
        mode,
        tracer: None,
        spans: Vec::new(),
    };
    let warm_outs: Vec<Outcome> = (0..expected.names.len())
        .map(|p| warm_client.session(p, 1 + (opts.seed % (expected.units[p] - 1)), p as u64))
        .collect();
    tally(&warm_outs, &mut m);
    m.note(format!(
        "set-up: six serve plans, median of {} builds {:.3} s; untimed warm round {:.3} s",
        setup::SETUP_REPEATS,
        p50(&setup_s),
        warm.elapsed().as_secs_f64()
    ));

    let budget = Duration::from_secs(opts.seconds);
    let (outs, wall) = match tracer {
        None => closed_loop(addr, &expected, mode, opts.seed, budget, None, 1 << 32),
        Some(t) => {
            let (plain, plain_wall) =
                closed_loop(addr, &expected, mode, opts.seed, budget / 2, None, 1 << 32);
            tally(&plain, &mut m);
            let sent_before = server.stats().bytes_sent;
            let (traced, traced_wall) = closed_loop(
                addr,
                &expected,
                mode,
                opts.seed ^ 1,
                budget / 2,
                Some(t),
                2 << 32,
            );
            let sent = server.stats().bytes_sent - sent_before;
            let rate = |o: &[Outcome], w: f64| o.len() as f64 / w;
            m.layers.insert(
                "trace.overhead_pct",
                (rate(&plain, plain_wall) / rate(&traced, traced_wall) - 1.0) * 100.0,
            );
            layer_metrics(&traced, traced_wall, sent, mode, &mut m);
            probe_units(probe_plans.as_deref().unwrap_or(&[]), &mut m);
            (traced, traced_wall)
        }
    };
    tally(&outs, &mut m);

    let stats = server.stats();
    if stats.retried != 0 {
        m.note(format!("admission sent {} Retry frames", stats.retried));
        m.fail(match mode {
            Mode::Mix => "wire-mix.no-retry",
            Mode::Durable => "durable-restart.no-retry",
        });
    }
    let drained = server.drain(Duration::from_secs(5));
    if !drained.clean {
        m.fail(match mode {
            Mode::Mix => "wire-mix.clean-drain",
            Mode::Durable => "durable-restart.clean-drain",
        });
    }

    let ok: Vec<&Outcome> = outs.iter().filter(|o| o.broken.is_none()).collect();
    let sm = &mut m.samples;
    sm.setup_s.extend(setup_s);
    sm.session_ms.extend(ok.iter().map(|o| ms(o.session_ns)));
    sm.first_unit_ms
        .extend(ok.iter().filter_map(|o| o.first_unit_ns).map(ms));
    sm.restart_ms
        .extend(ok.iter().filter_map(|o| o.restart_ns).map(ms));
    sm.wall_s += wall;
    sm.completed += ok.len() as f64;
    sm.payload_bytes += ok.iter().map(|o| o.payload_bytes as f64).sum::<f64>();
    let mut per_program: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for o in &ok {
        per_program
            .entry(o.program)
            .or_default()
            .push(ms(o.session_ns));
    }
    let split: Vec<String> = per_program
        .iter()
        .map(|(p, v)| format!("{} {}×{:.2}", expected.names[*p], v.len(), p50(v)))
        .collect();
    m.note(format!(
        "sessions × p50 ms by program: {}",
        split.join(", ")
    ));
    m.note(format!(
        "{}: {} sessions over {:.2} s on {} client threads ({} cores available)",
        mode.name(),
        outs.len(),
        wall,
        CLIENTS,
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    m
}
