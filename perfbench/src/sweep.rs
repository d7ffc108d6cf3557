//! `paper-sweep`: what a researcher runs (`paper all` and `paper csv`).
//!
//! Set-up builds the [`Suite`] and runs one untimed warm pass. Each
//! timed pass then calls every `core::experiment` runner behind
//! `results/*.csv` and renders the rows with `core::report`. The wire
//! and the store do no work here, so this workload is the bypass case
//! for any change to them. It is single-threaded and takes no random
//! input: the seed is accepted and has nothing to choose.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use nonstrict_bytecode::Input;
use nonstrict_core::experiment::{self, paper, Suite, LIMITS, LINKS, ORDERINGS};
use nonstrict_core::{report, DataLayout, SimConfig, TransferPolicy};
use nonstrict_netsim::Link;

use crate::stats::{median, ms, sorted};
use crate::trace::{maybe_span, Tracer};
use crate::{setup, Measured, Opts};

/// Runner span name of every paper table and Figure 6.
const TABLES: &str = "experiment.paper_tables_ms";

/// Seconds of `--seconds` per timed pass. A pass takes 3.5–4.6 s on
/// the 2-core reference VM, so a 20 s run times five passes; the count
/// depends on `--seconds` only, never on how fast a pass ran.
const SECONDS_PER_PASS: u64 = 4;

/// Runner span names, in pass order.
pub const RUNNERS: [&str; 8] = [
    TABLES,
    "experiment.faults_ms",
    "experiment.verify_ms",
    "experiment.outage_ms",
    "experiment.replicas_ms",
    "experiment.byzantine_ms",
    "experiment.overload_ms",
    "experiment.chaos_ms",
];

/// The simulator configurations of the Tables 5–7/10 grid, timed in
/// the traced run: `(span name, transfer, layout)`; `None` is strict.
const SIM_GRID: [(&str, Option<TransferPolicy>, DataLayout); 7] = [
    ("sim.simulate_ms.strict", None, DataLayout::Whole),
    (
        "sim.simulate_ms.parallel_1",
        Some(TransferPolicy::Parallel { limit: LIMITS[0] }),
        DataLayout::Whole,
    ),
    (
        "sim.simulate_ms.parallel_2",
        Some(TransferPolicy::Parallel { limit: LIMITS[1] }),
        DataLayout::Whole,
    ),
    (
        "sim.simulate_ms.parallel_4",
        Some(TransferPolicy::Parallel { limit: LIMITS[2] }),
        DataLayout::Whole,
    ),
    (
        "sim.simulate_ms.parallel_inf",
        Some(TransferPolicy::Parallel { limit: LIMITS[3] }),
        DataLayout::Whole,
    ),
    (
        "sim.simulate_ms.interleaved",
        Some(TransferPolicy::Interleaved),
        DataLayout::Whole,
    ),
    (
        "sim.simulate_ms.interleaved_partitioned",
        Some(TransferPolicy::Interleaved),
        DataLayout::Partitioned,
    ),
];

/// One pass's output and timings.
struct Pass {
    text: String,
    elapsed: Duration,
    first_result: Duration,
}

/// Accumulates one pass: each step times its runner, then its render.
struct PassCtx<'a> {
    tracer: Option<&'a Tracer>,
    parent: Option<u64>,
    pass_no: u64,
    start: Instant,
    first_result: Option<Duration>,
    out: String,
}

impl PassCtx<'_> {
    fn step<R>(
        &mut self,
        runner: &str,
        compute: impl FnOnce() -> R,
        render: impl FnOnce(&R) -> String,
    ) {
        let rows = maybe_span(self.tracer, runner, self.parent, self.pass_no, |_| {
            compute()
        });
        let text = maybe_span(
            self.tracer,
            "report.render_ms",
            self.parent,
            self.pass_no,
            |_| render(&rows),
        );
        self.out.push_str(&text);
        self.out.push('\n');
        self.first_result
            .get_or_insert_with(|| self.start.elapsed());
    }
}

fn six_cols(rows: &[([f64; 6], [f64; 6])], pick: usize) -> Vec<[f64; 6]> {
    rows.iter()
        .map(|r| if pick == 0 { r.0 } else { r.1 })
        .collect()
}

/// Calls every runner behind `results/*.csv` once and renders the rows.
fn pass(suite: &Suite, tracer: Option<&Tracer>, pass_no: u64) -> Pass {
    let start = Instant::now();
    let pass_id = tracer.map(Tracer::id);
    let mut cx = PassCtx {
        tracer,
        parent: pass_id,
        pass_no,
        start,
        first_result: None,
        out: String::new(),
    };
    cx.step(
        TABLES,
        || experiment::table2(suite),
        |_| report::render_table2(suite),
    );
    cx.step(
        TABLES,
        || experiment::table3(suite),
        |r| report::render_table3(r),
    );
    cx.step(
        TABLES,
        || experiment::table4(suite),
        |r| report::render_table4(r),
    );
    for link in [Link::T1, Link::MODEM_28_8] {
        cx.step(
            TABLES,
            || experiment::parallel_table(suite, link, DataLayout::Whole),
            report::render_parallel,
        );
    }
    let t7_paper: Vec<[f64; 6]> = paper::TABLE7
        .iter()
        .map(|r| [r.0, r.1, r.2, r.3, r.4, r.5])
        .collect();
    cx.step(
        TABLES,
        || experiment::interleaved_table(suite, DataLayout::Whole),
        |t| report::render_interleaved(t, "Table 7: Interleaved File Transfer", Some(&t7_paper)),
    );
    cx.step(
        TABLES,
        || experiment::table8(suite),
        |r| report::render_table8(r),
    );
    cx.step(
        TABLES,
        || experiment::table9(suite),
        |r| report::render_table9(r),
    );
    cx.step(
        TABLES,
        || experiment::table10(suite),
        |(tp, ti)| {
            let t10_paper: Vec<([f64; 6], [f64; 6])> = paper::TABLE10.to_vec();
            let mut s = report::render_interleaved(
                tp,
                "Table 10a: Parallel(4) + Data Partitioning",
                Some(&six_cols(&t10_paper, 0)),
            );
            s.push_str(&report::render_interleaved(
                ti,
                "Table 10b: Interleaved + Data Partitioning",
                Some(&six_cols(&t10_paper, 1)),
            ));
            s
        },
    );
    cx.step(TABLES, || experiment::fig6(suite), report::render_fig6);
    cx.step(
        RUNNERS[1],
        || experiment::faults::fault_sweep(suite),
        |r| report::render_fault_sweep(r),
    );
    cx.step(
        RUNNERS[2],
        || experiment::verify::verify_sweep(suite),
        |r| report::render_verify_sweep(r),
    );
    cx.step(
        RUNNERS[3],
        || experiment::outage::outage_sweep(suite),
        |r| report::render_outage_sweep(r),
    );
    cx.step(
        RUNNERS[4],
        || experiment::replica::replica_sweep(suite),
        |r| report::render_replica_sweep(r),
    );
    cx.step(
        RUNNERS[5],
        || experiment::byzantine::byzantine_sweep(suite),
        |r| report::render_byzantine_sweep(r),
    );
    cx.step(
        RUNNERS[6],
        || experiment::overload::overload_sweep(suite),
        |r| report::render_overload_sweep(r),
    );
    cx.step(
        RUNNERS[7],
        || experiment::chaos::chaos_sweep(suite),
        |r| report::render_chaos_sweep(r),
    );
    let elapsed = start.elapsed();
    if let (Some(t), Some(id)) = (tracer, pass_id) {
        t.record(id, "sweep.pass", None, pass_no, start, start + elapsed);
    }
    Pass {
        text: cx.out,
        elapsed,
        first_result: cx.first_result.unwrap_or(elapsed),
    }
}

/// Times `Session::simulate` over the Tables 5–7/10 grid: every
/// program, both links, the three table orderings (strict once per
/// program and link). Returns the number of calls made.
fn simulate_grid(suite: &Suite, t: &Tracer, probe_no: u64) -> u64 {
    let mut calls = 0;
    for session in &suite.sessions {
        for link in LINKS {
            for (name, transfer, layout) in SIM_GRID {
                let orderings: &[_] = if transfer.is_some() {
                    &ORDERINGS
                } else {
                    &ORDERINGS[..1]
                };
                for &ordering in orderings {
                    let config = match transfer {
                        None => SimConfig::strict(link),
                        Some(transfer) => SimConfig {
                            transfer,
                            data_layout: layout,
                            ..SimConfig::non_strict(link, ordering)
                        },
                    };
                    t.span(name, None, probe_no, |_| {
                        black_box(session.simulate(Input::Test, &config));
                    });
                    calls += 1;
                }
            }
        }
    }
    calls
}

/// Checks `core::export::export_csv` against the committed CSVs byte
/// for byte: same file set, same bytes.
fn csv_gate(suite: &Suite, results: &Path, scratch: &Path) -> Result<usize, String> {
    let written = nonstrict_core::export::export_csv(suite, scratch)
        .map_err(|e| format!("export_csv failed: {e}"))?;
    let mut committed: Vec<String> = std::fs::read_dir(results)
        .map_err(|e| format!("cannot list {}: {e}", results.display()))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".csv"))
        .collect();
    committed.sort();
    let mut exported: Vec<String> = written
        .iter()
        .filter_map(|p| Some(p.file_name()?.to_str()?.to_owned()))
        .collect();
    exported.sort();
    if committed != exported {
        return Err(format!(
            "export wrote {exported:?}, results/ holds {committed:?}"
        ));
    }
    for name in &committed {
        let want = std::fs::read(results.join(name)).map_err(|e| format!("{name}: {e}"))?;
        let got = std::fs::read(scratch.join(name)).map_err(|e| format!("{name}: {e}"))?;
        if want != got {
            return Err(format!("{name} differs from results/{name}"));
        }
    }
    Ok(committed.len())
}

/// Runs `count` timed passes, each checked against the warm pass.
fn measure(
    suite: &Suite,
    reference: &str,
    count: u64,
    tracer: Option<&Tracer>,
    first_pass_no: u64,
    m: &mut Measured,
) -> Vec<Pass> {
    let mut passes: Vec<Pass> = Vec::new();
    while (passes.len() as u64) < count {
        let p = pass(suite, tracer, first_pass_no + passes.len() as u64);
        m.attempted += 1;
        if p.text != reference {
            m.fail("paper-sweep.render-identity");
        }
        if let Some(t) = tracer {
            m.layers.insert(
                "sim.simulate_calls",
                simulate_grid(suite, t, first_pass_no + passes.len() as u64) as f64,
            );
        }
        passes.push(p);
    }
    passes
}

/// Median over passes of the per-pass sum of spans named `name`.
fn per_pass_median(t: &Tracer, name: &str) -> f64 {
    let mut per_pass: BTreeMap<u64, u64> = BTreeMap::new();
    for s in t.spans().iter().filter(|s| s.name == name) {
        *per_pass.entry(s.session).or_default() += s.dur_ns();
    }
    let v: Vec<f64> = per_pass.values().map(|&ns| ms(ns)).collect();
    median(&sorted(&v)).unwrap_or(0.0)
}

pub fn run(opts: &Opts, tracer: Option<&Tracer>) -> Measured {
    let mut m = Measured::default();
    let (suite, setup_s) = setup::repeated(|| Suite::new().expect("benchmarks build and run"));
    let setup_median = median(&sorted(&setup_s)).unwrap_or(f64::NAN);
    if let Some(t) = tracer {
        setup::probe_layers(t, &mut m);
    }
    let warm = Instant::now();
    let reference = pass(&suite, None, 0).text;
    m.note(format!(
        "set-up: Suite::new median of {} builds {:.3} s; untimed warm pass {:.3} s",
        setup::SETUP_REPEATS,
        setup_median,
        warm.elapsed().as_secs_f64()
    ));

    let count = (opts.seconds / SECONDS_PER_PASS).max(2);
    let passes = match tracer {
        None => measure(&suite, &reference, count, None, 1, &mut m),
        Some(t) => {
            // Half the passes untraced, half traced, alternating so a
            // drift in the host's speed falls on both: the difference
            // in pass time is the tracing overhead.
            let (mut plain, mut traced) = (Vec::new(), Vec::new());
            for i in 0..(count / 2).max(2) {
                plain.extend(measure(&suite, &reference, 1, None, 1 + i, &mut m));
                traced.extend(measure(&suite, &reference, 1, Some(t), 1_000 + i, &mut m));
            }
            let med = |ps: &[Pass]| {
                median(&sorted(
                    &ps.iter()
                        .map(|p| p.elapsed.as_secs_f64())
                        .collect::<Vec<_>>(),
                ))
                .unwrap_or(f64::NAN)
            };
            m.layers.insert(
                "trace.overhead_pct",
                (med(&traced) / med(&plain) - 1.0) * 100.0,
            );
            for name in RUNNERS.iter().copied().chain(["report.render_ms"]) {
                m.layers.insert(name, per_pass_median(t, name));
            }
            for (name, _, _) in SIM_GRID {
                m.layers.insert(name, per_pass_median(t, name));
            }
            traced
        }
    };

    // The CSV byte-identity gate: one more operation, untimed.
    m.attempted += 1;
    let scratch = crate::scratch_dir("csv");
    match csv_gate(&suite, &crate::repo_root().join("results"), &scratch) {
        Ok(n) => m.note(format!(
            "csv gate: {n} exported CSVs byte-identical to results/"
        )),
        Err(e) => {
            m.note(format!("csv gate FAILED: {e}"));
            m.fail("paper-sweep.csv-identity");
        }
    }
    crate::remove_scratch(&scratch);

    let first_ms: Vec<f64> = passes
        .iter()
        .map(|p| p.first_result.as_secs_f64() * 1e3)
        .collect();
    let pass_ms: Vec<f64> = passes
        .iter()
        .map(|p| p.elapsed.as_secs_f64() * 1e3)
        .collect();
    let ok = passes.iter().filter(|p| p.text == reference).count() as f64;
    let sm = &mut m.samples;
    sm.setup_s.extend(setup_s);
    sm.session_ms.extend(&pass_ms);
    sm.first_unit_ms.extend(first_ms);
    sm.wall_s += pass_ms.iter().sum::<f64>() / 1e3;
    sm.completed += ok;
    sm.payload_bytes += ok * reference.len() as f64;
    let each = |v: &[f64]| -> String {
        v.iter()
            .map(|ms| format!("{ms:.0}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    m.note(format!(
        "timed passes (ms): {}; first table (ms): {}; {} bytes of rendered text per pass",
        each(&pass_ms),
        each(&m.samples.first_unit_ms),
        reference.len()
    ));
    m
}
