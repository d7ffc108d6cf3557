//! Ablation benches for the design choices DESIGN.md calls out. Each
//! measurement simulates a full remote execution under one ablated
//! design point, so Criterion's reports double as a quality comparison
//! (the simulated `total_cycles` each variant returns is printed by the
//! companion integration test `tests/ablation_quality.rs`).

use nonstrict_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nonstrict_bytecode::Input;
use nonstrict_core::model::{
    DataLayout, ExecutionModel, OrderingSource, SimConfig, TransferPolicy, VerifyMode,
};
use nonstrict_core::sim::Session;
use nonstrict_netsim::schedule::ParallelSchedule;
use nonstrict_netsim::Link;
use nonstrict_netsim::{class_units, greedy_schedule, ParallelEngine, TransferEngine, Weights};
use nonstrict_reorder::{restructure, static_first_use, static_first_use_plain};

/// SCG loop heuristics vs plain DFS: ordering construction cost.
fn bench_scg_heuristics(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_scg_heuristics");
    let app = nonstrict_workloads::jess::build();
    group.bench_function("loop_aware", |b| {
        b.iter(|| static_first_use(&app.program).order().len())
    });
    group.bench_function("plain_dfs", |b| {
        b.iter(|| static_first_use_plain(&app.program).order().len())
    });
    group.finish();
}

/// Delimiter granularity: method-level (the paper's choice) vs a model
/// of basic-block-level delimiters (~1 delimiter per 6 instructions,
/// the overhead §4 argues is not worth it).
fn bench_delimiter_granularity(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_delimiters");
    group.sample_size(20);
    let app = nonstrict_workloads::jhlzip::build();
    let order = static_first_use(&app.program);
    let r = restructure(&app, &order);
    for (label, delim) in [("method_level", 2u64), ("block_level_model", 12u64)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let units = class_units(&app, &r, None, delim);
                let schedule = greedy_schedule(&app, &order, &units, &r.layouts, Weights::Static);
                let mut e = ParallelEngine::new(Link::MODEM_28_8, &units, &schedule, 4);
                e.finish_time()
            })
        });
    }
    group.finish();
}

/// Greedy dependency schedule vs naive zero thresholds (everything
/// starts immediately, bandwidth splinters).
fn bench_schedule_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_schedule");
    group.sample_size(20);
    let app = nonstrict_workloads::bit::build();
    let order = static_first_use(&app.program);
    let r = restructure(&app, &order);
    let units = class_units(&app, &r, None, 2);
    let greedy = greedy_schedule(&app, &order, &units, &r.layouts, Weights::Static);
    let naive = ParallelSchedule {
        class_order: greedy.class_order.clone(),
        thresholds: vec![0; units.len()],
    };
    for (label, schedule) in [("greedy", &greedy), ("naive_zero", &naive)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), schedule, |b, s| {
            b.iter(|| {
                let mut e = ParallelEngine::new(Link::MODEM_28_8, &units, s, usize::MAX);
                e.unit_ready(0, 1, 0)
            })
        });
    }
    group.finish();
}

/// Execution model ablation: strict vs non-strict gating under identical
/// transfer (the core claim of the paper, as a measured pair).
fn bench_execution_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_execution_model");
    group.sample_size(20);
    let s = Session::new(nonstrict_workloads::jhlzip::build()).unwrap();
    for (label, execution) in [
        ("strict_gating", ExecutionModel::Strict),
        ("non_strict", ExecutionModel::NonStrict),
    ] {
        let config = SimConfig {
            link: Link::MODEM_28_8,
            ordering: OrderingSource::StaticCallGraph,
            transfer: TransferPolicy::Parallel { limit: 4 },
            data_layout: DataLayout::Whole,
            execution,
            faults: None,
            verify: VerifyMode::Off,
            outages: None,
            replicas: None,
            byzantine: None,
        };
        group.bench_function(label, |b| {
            b.iter(|| s.simulate(Input::Test, &config).total_cycles)
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scg_heuristics,
    bench_delimiter_granularity,
    bench_schedule_ablation,
    bench_execution_model
);
criterion_main!(benches);
