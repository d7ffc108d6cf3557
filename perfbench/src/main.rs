//! The repository's benchmark: end-to-end and per-layer metrics for
//! three workloads.
//!
//! ```text
//! perfbench --workload <paper-sweep|wire-mix|durable-restart|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--save results.jsonl]
//! perfbench compare <parent.jsonl> <change.jsonl>
//! ```
//!
//! A run builds its inputs (set-up, timed as `setup_s`), measures for
//! `--seconds`, checks every output against its correctness gate and
//! prints each metric by name with its unit. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics untraced (`--trace 0`), the
//! per-layer metrics traced (`--trace 1`). A broken gate is named on
//! standard error and makes the exit code non-zero.
//!
//! The traced run spends half its time untraced and half traced; the
//! difference is `trace.overhead_pct`. Spans are recorded by this
//! benchmark around its calls into each crate's public API, kept in
//! memory, and written to `perfbench/out/` when the run ends.

mod compare;
mod json;
mod samples;
mod setup;
mod stats;
mod sweep;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// The workloads, in `--workload all` order. Why each is in the
/// benchmark is recorded in `BENCHMARK.json` and the README.
pub const WORKLOADS: [&str; 3] = ["paper-sweep", "wire-mix", "durable-restart"];

/// End-to-end metrics every workload reports, in BENCHMARK.json order
/// (which also holds each one's direction and bound): `(name, unit)`. On `paper-sweep` a session is one sweep pass
/// (`session_ms_p50` is the sweep time) and its first unit is the first
/// rendered table.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("goodput_mb_s", "MB/s"),
    ("session_ms_p50", "ms"),
    ("first_unit_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics printed by name but left out of the JSON line:
/// `(name, unit)`. The p99 tails spread 30–70% between identical runs on
/// the shared 2-core host, more than any regression bound could absorb;
/// `sweep_s` and `restart_ms_*` exist on one workload only; `error_rate`
/// is 0 on a healthy run and rides in `attempted` and `failed`.
const PRINTED_ONLY: [(&str, &str); 6] = [
    ("session_ms_p99", "ms"),
    ("first_unit_ms_p99", "ms"),
    ("sweep_s", "s"),
    ("restart_ms_p50", "ms"),
    ("restart_ms_p99", "ms"),
    ("error_rate", "ratio"),
];

// What each per-layer metric should move, and on which workload.
const SETUP: &str = "setup_s, every workload";
const SWEEP: &str = "session_ms_p50 (sweep_s) on paper-sweep";
const GRID: &str = "nothing: the size of the traced grid";
const FIRST_UNIT: &str = "first_unit_ms_p50 on wire-mix, durable-restart";
const STREAM: &str = "session_ms_p50, sessions_per_s on wire-mix, durable-restart";
const CLOSE: &str = "session_ms_p50 on wire-mix, durable-restart";
const GOODPUT: &str = "goodput_mb_s on wire-mix, durable-restart";
const RETRIES: &str = "error_rate, session_ms_p99 on wire-mix, durable-restart";
const PER_KB: &str = "session_ms_p50, goodput_mb_s on wire-mix, durable-restart";
const VFS: &str = "session_ms_p50, sessions_per_s on durable-restart";
const VFS_COUNT: &str = "session_ms_p50, sessions_per_s on durable-restart (per session)";
const ON_UNIT: &str = "session_ms_p50 on durable-restart";
const WARM_START: &str = "restart_ms_p50 on durable-restart";
const WARM_RATIO: &str = "restart_ms_p50, restart_ms_p99 on durable-restart";
const OVERHEAD: &str = "nothing: traced vs untraced throughput of the same run";

/// Per-layer metrics of the traced run: `(name, unit, what it should
/// move)`. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 45] = [
    ("workloads.build_ms", "ms", SETUP),
    ("core.session_new_ms", "ms", SETUP),
    ("reorder.restructure_ms", "ms", SETUP),
    ("classfile.stream_units_ms", "ms", SETUP),
    ("serve.build_plan_ms", "ms", SETUP),
    ("experiment.paper_tables_ms", "ms", SWEEP),
    ("experiment.faults_ms", "ms", SWEEP),
    ("experiment.verify_ms", "ms", SWEEP),
    ("experiment.outage_ms", "ms", SWEEP),
    ("experiment.replicas_ms", "ms", SWEEP),
    ("experiment.byzantine_ms", "ms", SWEEP),
    ("experiment.overload_ms", "ms", SWEEP),
    ("experiment.chaos_ms", "ms", SWEEP),
    ("report.render_ms", "ms", SWEEP),
    ("sim.simulate_ms.strict", "ms", SWEEP),
    ("sim.simulate_ms.parallel_1", "ms", SWEEP),
    ("sim.simulate_ms.parallel_2", "ms", SWEEP),
    ("sim.simulate_ms.parallel_4", "ms", SWEEP),
    ("sim.simulate_ms.parallel_inf", "ms", SWEEP),
    ("sim.simulate_ms.interleaved", "ms", SWEEP),
    ("sim.simulate_ms.interleaved_partitioned", "ms", SWEEP),
    ("sim.simulate_calls", "count", GRID),
    ("wire.connect_to_pin_ms_p50", "ms", FIRST_UNIT),
    ("wire.pin_to_first_unit_ms_p50", "ms", FIRST_UNIT),
    ("wire.stream_ms_p50", "ms", STREAM),
    ("wire.close_ms_p50", "ms", CLOSE),
    ("wire.units_per_s", "1/s", GOODPUT),
    ("wire.connects_per_session", "ratio", RETRIES),
    ("wire.admission_retries", "count", RETRIES),
    ("wire.stream_faults", "count", RETRIES),
    ("wire.server.bytes_sent_per_delivered", "ratio", GOODPUT),
    ("wire.frame.encode_ns_per_kb", "ns/KiB", PER_KB),
    ("wire.frame.decode_ns_per_kb", "ns/KiB", PER_KB),
    ("wire.crc32_ns_per_kb", "ns/KiB", PER_KB),
    ("wire.digest_ns_per_kb", "ns/KiB", PER_KB),
    ("classfile.stream_parse_ns_per_kb", "ns/KiB", PER_KB),
    ("store.vfs.append_count", "count", VFS_COUNT),
    ("store.vfs.append_us_p50", "us", VFS),
    ("store.vfs.write_atomic_count", "count", VFS_COUNT),
    ("store.vfs.read_bytes_per_append", "B", VFS),
    ("store.session.on_unit_us_p50", "us", ON_UNIT),
    ("store.session.on_unit_share", "ratio", ON_UNIT),
    ("store.session.warm_start_ms_p50", "ms", WARM_START),
    ("store.warm_units_ratio", "ratio", WARM_RATIO),
    ("trace.overhead_pct", "%", OVERHEAD),
];

/// Hard wall-clock cap on one workload, set-up included.
const WORKLOAD_CAP: Duration = Duration::from_secs(170);

/// Command-line options of one run.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub save: Option<PathBuf>,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Broken gate → failed operations it caused.
    pub broken: BTreeMap<String, u64>,
    pub samples: samples::Samples,
    pub layers: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Measured {
    /// Counts one failed operation against `gate`.
    pub fn fail(&mut self, gate: &str) {
        self.failed += 1;
        *self.broken.entry(gate.to_owned()).or_default() += 1;
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The repository root: the parent of this package.
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Scratch directories still to remove (the watchdog removes them too).
static SCRATCH: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// Workload deadline the watchdog enforces.
static DEADLINE: Mutex<Option<Instant>> = Mutex::new(None);

/// A fresh scratch directory inside the checkout, removed at exit.
#[must_use]
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tmp")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a scratch directory in the checkout");
    SCRATCH.lock().expect("scratch list lock").push(dir.clone());
    dir
}

/// Removes a scratch directory, and `tmp/` itself once empty.
pub fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    if let Ok(mut list) = SCRATCH.lock() {
        list.retain(|d| d != dir);
    }
}

fn remove_all_scratch() {
    let dirs: Vec<PathBuf> = SCRATCH.lock().map(|l| l.clone()).unwrap_or_default();
    for d in dirs {
        remove_scratch(&d);
    }
}

/// Kills the process if a workload overruns [`WORKLOAD_CAP`]: a hung
/// session must not hold the run past its time limit.
fn spawn_watchdog() {
    std::thread::spawn(|| loop {
        std::thread::sleep(Duration::from_millis(200));
        let overdue = DEADLINE
            .lock()
            .map(|d| d.is_some_and(|d| Instant::now() > d))
            .unwrap_or(false);
        if overdue {
            eprintln!(
                "perfbench: workload exceeded its {} s wall-clock cap",
                WORKLOAD_CAP.as_secs()
            );
            remove_all_scratch();
            std::process::exit(3);
        }
    });
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <paper-sweep|wire-mix|durable-restart|all> \
         [--seed N] [--seconds S] [--trace 0|1] [--save FILE]\n       \
         perfbench compare <parent.jsonl> <change.jsonl>"
    );
    std::process::exit(2)
}

fn parse_opts(args: &[String]) -> Opts {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        save: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        let num = || value.parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = num(),
            "--seconds" => opts.seconds = num().clamp(1, 120),
            "--trace" => opts.trace = num() != 0,
            "--save" => opts.save = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    let known = opts.workload == "all" || WORKLOADS.contains(&opts.workload.as_str());
    if !known {
        usage();
    }
    opts
}

/// Runs one workload in this process under the wall-clock cap.
fn run_workload(name: &str, opts: &Opts) -> Measured {
    *DEADLINE.lock().expect("deadline lock") = Some(Instant::now() + WORKLOAD_CAP);
    let tracer = opts.trace.then(Tracer::default);
    let cpu0 = setup::cpu_ticks();
    let mut m = match name {
        "paper-sweep" => sweep::run(opts, tracer.as_ref()),
        "wire-mix" => wire::run(wire::Mode::Mix, opts, tracer.as_ref()),
        "durable-restart" => wire::run(wire::Mode::Durable, opts, tracer.as_ref()),
        _ => unreachable!("workload names are checked at parse time"),
    };
    m.samples.peak_rss_mb = setup::peak_rss_mb();
    let cpu1 = setup::cpu_ticks();
    let steal = (cpu1.1 - cpu0.1) as f64 / (cpu1.0 - cpu0.0).max(1) as f64;
    m.note(format!("host steal {:.1}% of CPU time", steal * 100.0));
    if let Some(t) = &tracer {
        describe_trace(name, t, &mut m);
    }
    *DEADLINE.lock().expect("deadline lock") = None;
    m
}

/// The end-to-end metrics of a run, `error_rate` included.
fn end_to_end(name: &str, m: &Measured) -> BTreeMap<&'static str, f64> {
    let mut e2e = m.samples.metrics(name == "paper-sweep");
    e2e.insert("error_rate", m.failed as f64 / m.attempted.max(1) as f64);
    e2e
}

/// Self time per span name, the MasterProject-style latency split, and
/// the span dump written to `perfbench/out/`.
fn describe_trace(name: &str, t: &Tracer, m: &mut Measured) {
    let layers = t.layers();
    m.note("self time per span (count, total ms, self ms):".to_owned());
    for (span, l) in &layers {
        m.note(format!(
            "  {span:42} {:8} {:12.3} {:12.3}",
            l.count,
            stats::ms(l.total_ns),
            stats::ms(l.self_ns)
        ));
    }
    let get = |k: &str| m.layers.get(k).copied().unwrap_or(0.0);
    if name == "paper-sweep" {
        let runners: Vec<String> = sweep::RUNNERS
            .iter()
            .map(|r| {
                let short = r.trim_start_matches("experiment.").trim_end_matches("_ms");
                format!("{short} {:.1}", get(r))
            })
            .collect();
        m.note(format!(
            "sweep pass: runners ms ({}), render {:.1} ms",
            runners.join(", "),
            get("report.render_ms")
        ));
    } else {
        let (a, b) = (
            get("wire.connect_to_pin_ms_p50"),
            get("wire.pin_to_first_unit_ms_p50"),
        );
        m.note(format!(
            "first unit: {:.3} ms (connect→pin {a:.3} ms, pin→unit {b:.3} ms); \
             session: stream {:.3} ms, close {:.3} ms (medians per session)",
            a + b,
            get("wire.stream_ms_p50"),
            get("wire.close_ms_p50"),
        ));
    }
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out.join(format!("trace-{name}.tsv"));
    match std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, t.dump())) {
        Ok(()) => m.note(format!("spans written to {}", path.display())),
        Err(e) => m.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.01 && v.abs() < 1e7) {
        format!("{v:.4}")
    } else {
        format!("{v:e}")
    }
}

/// Prints the human-readable report of one workload.
fn print_report(name: &str, opts: &Opts, m: &Measured, e2e: &BTreeMap<&str, f64>) {
    println!(
        "== {name}  seed {}  {} s  trace {} ==",
        opts.seed,
        opts.seconds,
        if opts.trace { "on" } else { "off" }
    );
    if opts.trace {
        for (metric, unit, moves) in PER_LAYER {
            let v = m.layers.get(metric).copied().unwrap_or(0.0);
            println!("  {metric:42} {:>14} {unit:7} -> {moves}", fmt_value(v));
        }
    } else {
        let all = END_TO_END.iter().copied().chain(PRINTED_ONLY);
        for (metric, unit) in all {
            if let Some(v) = e2e.get(metric) {
                println!("  {metric:20} {:>14} {unit}", fmt_value(*v));
            }
        }
    }
    println!(
        "  operations: {} attempted, {} failed",
        m.attempted, m.failed
    );
    for note in &m.notes {
        println!("  {note}");
    }
    for (gate, n) in &m.broken {
        println!("  GATE BROKEN: {gate} ({n} operations)");
        eprintln!("perfbench: {name}: correctness gate {gate} broke on {n} operations");
    }
}

/// The result line: end-to-end metrics untraced, per-layer traced.
fn result_json(opts: &Opts, m: &Measured, e2e: &BTreeMap<&str, f64>) -> Result<String, String> {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        m.failed == 0 && m.broken.is_empty(),
        m.attempted,
        m.failed
    ));
    let list: Vec<(&str, &str, f64)> = if opts.trace {
        PER_LAYER
            .iter()
            .map(|(n, u, _)| (*n, *u, m.layers.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| {
                e2e.get(n)
                    .map(|v| (*n, *u, *v))
                    .ok_or_else(|| format!("metric {n} was not measured"))
            })
            .collect::<Result<_, _>>()?
    };
    for (i, (name, unit, value)) in list.into_iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        if i > 0 {
            s.push_str(", ");
        }
        json::write_str(&mut s, name);
        s.push_str(": {\"value\": ");
        json::write_num(&mut s, value);
        s.push_str(", \"unit\": ");
        json::write_str(&mut s, unit);
        s.push('}');
    }
    s.push_str("}}");
    Ok(s)
}

fn save(path: &Path, workload: &str, opts: &Opts, line: &str) -> std::io::Result<()> {
    let mut record = String::from("{\"workload\": ");
    json::write_str(&mut record, workload);
    record.push_str(&format!(
        ", \"seed\": {}, \"trace\": {}, \"result\": {line}}}\n",
        opts.seed,
        u8::from(opts.trace)
    ));
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(record.as_bytes())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&args[1..]));
    }
    let opts = parse_opts(&args);
    spawn_watchdog();
    let names: Vec<&str> = if opts.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![opts.workload.as_str()]
    };
    let mut ok = true;
    for name in names {
        let m = run_workload(name, &opts);
        ok &= m.failed == 0;
        let e2e = end_to_end(name, &m);
        print_report(name, &opts, &m, &e2e);
        match result_json(&opts, &m, &e2e) {
            Ok(line) => {
                if let Some(path) = &opts.save {
                    if let Err(e) = save(path, name, &opts, &line) {
                        eprintln!("perfbench: cannot append to {}: {e}", path.display());
                        ok = false;
                    }
                }
                println!("{line}");
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                ok = false;
            }
        }
    }
    remove_all_scratch();
    std::process::exit(i32::from(!ok));
}
