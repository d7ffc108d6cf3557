//! One Criterion benchmark per paper table and figure: each measurement
//! regenerates the corresponding experiment over the full six-benchmark
//! suite. `cargo bench -p nonstrict-bench --bench tables` therefore both
//! times and re-derives every number EXPERIMENTS.md reports; the `paper`
//! binary prints the same rows human-readably.

use nonstrict_bench::harness::{criterion_group, criterion_main, Criterion};
use nonstrict_core::experiment::{self, Suite};
use nonstrict_core::model::DataLayout;
use nonstrict_netsim::Link;
use nonstrict_workloads::stats::table2_row;

fn bench_tables(c: &mut Criterion) {
    // One suite for every table: building it is itself measured first.
    let mut group = c.benchmark_group("paper");
    group.sample_size(10);

    group.bench_function("suite_build_and_profile", |b| {
        b.iter(|| Suite::new().unwrap().sessions.len())
    });

    let suite = Suite::new().unwrap();

    // Table 2 is read off the sessions' profiling runs; the second row
    // keeps the cost of re-interpreting every program visible.
    group.bench_function("table2_statistics", |b| {
        b.iter(|| experiment::table2(&suite).len())
    });
    group.bench_function("table2_reinterpret", |b| {
        b.iter(|| {
            suite
                .sessions
                .iter()
                .map(|s| table2_row(&s.app).total_methods)
                .sum::<usize>()
        })
    });
    group.bench_function("table3_base_case", |b| {
        b.iter(|| experiment::table3(&suite).len())
    });
    group.bench_function("table4_invocation_latency", |b| {
        b.iter(|| experiment::table4(&suite).len())
    });
    group.bench_function("table5_parallel_t1", |b| {
        b.iter(|| {
            experiment::parallel_table(&suite, Link::T1, DataLayout::Whole)
                .rows
                .len()
        })
    });
    group.bench_function("table6_parallel_modem", |b| {
        b.iter(|| {
            experiment::parallel_table(&suite, Link::MODEM_28_8, DataLayout::Whole)
                .rows
                .len()
        })
    });
    group.bench_function("table7_interleaved", |b| {
        b.iter(|| {
            experiment::interleaved_table(&suite, DataLayout::Whole)
                .rows
                .len()
        })
    });
    group.bench_function("table8_pool_breakdown", |b| {
        b.iter(|| experiment::table8(&suite).len())
    });
    group.bench_function("table9_data_breakdown", |b| {
        b.iter(|| experiment::table9(&suite).len())
    });
    group.bench_function("table10_partitioned", |b| {
        b.iter(|| {
            let (p, i) = experiment::table10(&suite);
            p.rows.len() + i.rows.len()
        })
    });
    group.bench_function("fig6_summary", |b| {
        b.iter(|| experiment::fig6(&suite).len())
    });
    group.finish();
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);
