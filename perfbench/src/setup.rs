//! Set-up shared by every workload: timing repeated builds, and the
//! traced decomposition of the build pipeline into its layers.

use std::hint::black_box;
use std::time::Instant;

use nonstrict_core::{build_plan, OrderingSource, Session};
use nonstrict_workloads::BENCHMARK_NAMES;

use crate::stats::ms;
use crate::trace::Tracer;
use crate::Measured;

/// The set-up layers [`probe_layers`] times.
const LAYERS: [&str; 5] = [
    "workloads.build_ms",
    "core.session_new_ms",
    "reorder.restructure_ms",
    "classfile.stream_units_ms",
    "serve.build_plan_ms",
];

/// How many times a run builds its inputs; `setup_s` is the median
/// of these builds.
pub const SETUP_REPEATS: usize = 5;

/// The four orderings a [`Session`] restructures under.
const ALL_ORDERINGS: [OrderingSource; 4] = [
    OrderingSource::SourceOrder,
    OrderingSource::StaticCallGraph,
    OrderingSource::TrainProfile,
    OrderingSource::TestProfile,
];

/// Runs `build` [`SETUP_REPEATS`] times and returns the last result
/// with every build time in seconds.
pub fn repeated<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous build first so peak memory holds one copy.
        drop(last.take());
        let t = Instant::now();
        let built = build();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one build"), secs)
}

/// The six benchmark names as the wire and `build_by_name` take them.
///
/// Lowercase on purpose: a Hello that names a program in mixed case
/// (`Jess`) is rejected as incompatible, because the serve plan's key
/// is lowercased and the Hello name is not.
#[must_use]
pub fn program_names() -> Vec<String> {
    BENCHMARK_NAMES.iter().map(|n| n.to_lowercase()).collect()
}

/// Times each layer of the build pipeline for every program, one span
/// per call, with the program index as the session id, and records each
/// layer's total over the six programs:
/// `workloads.build_ms`, `core.session_new_ms`, `reorder.restructure_ms`
/// (the four orderings), `classfile.stream_units_ms` (every class of
/// the served layout) and `serve.build_plan_ms`.
///
/// `Session::new` restructures eagerly and `Session::restructured` is
/// a field read, so the restructure span times direct calls to
/// `nonstrict_reorder::restructure` on the session's own orders.
pub fn probe_layers(t: &Tracer, m: &mut Measured) {
    for (i, name) in program_names().iter().enumerate() {
        let sid = i as u64;
        let app = t
            .span(LAYERS[0], None, sid, |_| {
                nonstrict_workloads::build_by_name(name)
            })
            .expect("every listed program builds");
        let session = t
            .span(LAYERS[1], None, sid, |_| Session::new(app))
            .expect("every program profiles");
        t.span(LAYERS[2], None, sid, |_| {
            for o in ALL_ORDERINGS {
                black_box(nonstrict_reorder::restructure(
                    &session.app,
                    session.order(o),
                ));
            }
        });
        t.span(LAYERS[3], None, sid, |_| {
            for class in &session
                .restructured(OrderingSource::StaticCallGraph)
                .classes
            {
                black_box(nonstrict_classfile::stream_units(class).expect("class serializes"));
            }
        });
        t.span(LAYERS[4], None, sid, |_| {
            black_box(build_plan(name, OrderingSource::StaticCallGraph).expect("plan builds"));
        });
    }
    for layer in LAYERS {
        m.layers.insert(layer, ms(t.durations(layer).iter().sum()));
    }
}

/// Peak resident set size of this process in MB, from `VmHWM`.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(total, steal)` CPU ticks of the whole machine from `/proc/stat`.
#[must_use]
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}
