//! What a `Session` computes once must equal what it would compute
//! afresh.
//!
//! Table 2 is read off the profiling runs `Session::new` already made,
//! so it must match re-interpreting every program. Transfer units,
//! manifests and the greedy parallel schedule are memoized per
//! transfer-unit key (ordering × data layout × execution model × faults
//! active), so no result may depend on which slots an earlier call
//! filled.

use nonstrict::core::experiment::{self, Suite};
use nonstrict::core::{
    ByzantineConfig, DataLayout, ExecutionModel, FaultConfig, OrderingSource, ReplicaConfig,
    RunOutcome, Session, SimConfig, TransferPolicy, VerifyMode,
};
use nonstrict::netsim::Link;
use nonstrict::workloads::stats::table2_row;
use nonstrict_bytecode::{Application, Input};

#[test]
fn table2_from_the_profiling_runs_matches_reinterpretation() {
    let suite = Suite::new().expect("all six benchmarks build and profile");
    let rows = experiment::table2(&suite);
    assert_eq!(rows.len(), suite.sessions.len());
    for (got, session) in rows.iter().zip(&suite.sessions) {
        let want = table2_row(&session.app);
        let name = &want.name;
        assert_eq!(got.name, want.name);
        assert_eq!(got.total_files, want.total_files, "{name}");
        assert_eq!(got.total_methods, want.total_methods, "{name}");
        for (what, g, w) in [
            ("size_kb", got.size_kb, want.size_kb),
            ("dyn_test_k", got.dyn_test_k, want.dyn_test_k),
            ("dyn_train_k", got.dyn_train_k, want.dyn_train_k),
            ("static_k", got.static_k, want.static_k),
            ("executed_pct", got.executed_pct, want.executed_pct),
            (
                "instrs_per_method",
                got.instrs_per_method,
                want.instrs_per_method,
            ),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{name} {what}: {g} vs {w}");
        }
    }
}

const ORDERINGS: [OrderingSource; 4] = [
    OrderingSource::SourceOrder,
    OrderingSource::StaticCallGraph,
    OrderingSource::TrainProfile,
    OrderingSource::TestProfile,
];

const TRANSFERS: [TransferPolicy; 5] = [
    TransferPolicy::Strict,
    TransferPolicy::Parallel { limit: 1 },
    TransferPolicy::Parallel { limit: 4 },
    TransferPolicy::Parallel { limit: usize::MAX },
    TransferPolicy::Interleaved,
];

/// One group per transfer-unit key: every transfer policy, then a
/// byzantine replica run that pins the key's content-addressed
/// manifest.
fn grid() -> Vec<Vec<SimConfig>> {
    let mut faults = FaultConfig::seeded(0x5e55);
    faults.loss_pm = 40_000;
    faults.corrupt_pm = 10_000;
    let mut replicas = ReplicaConfig::seeded(0x5e55);
    replicas.replicas = 3;
    let mut byzantine = ByzantineConfig::seeded(0x5e55);
    byzantine.mirrors = 1;
    let mut groups = Vec::new();
    for ordering in ORDERINGS {
        for data_layout in [DataLayout::Whole, DataLayout::Partitioned] {
            for execution in [ExecutionModel::NonStrict, ExecutionModel::Strict] {
                for faults in [None, Some(faults)] {
                    let base = SimConfig {
                        link: Link::MODEM_28_8,
                        ordering,
                        transfer: TransferPolicy::Strict,
                        data_layout,
                        execution,
                        faults,
                        verify: VerifyMode::Off,
                        outages: None,
                        replicas: None,
                        byzantine: None,
                    };
                    let mut group: Vec<SimConfig> = TRANSFERS
                        .iter()
                        .map(|&transfer| SimConfig { transfer, ..base })
                        .collect();
                    group.push(
                        SimConfig {
                            transfer: TransferPolicy::Parallel { limit: 4 },
                            ..base
                        }
                        .with_replicas(replicas)
                        .with_byzantine(byzantine),
                    );
                    groups.push(group);
                }
            }
        }
    }
    groups
}

fn results_do_not_depend_on_the_memo(app: &Application) {
    let groups = grid();
    assert_eq!(groups.len(), 32, "one group per memo slot");
    // Warm every slot in reverse, so each slot is filled by a different
    // configuration than the fresh sessions below fill it with.
    let warm = Session::new(app.clone()).expect("profiles");
    for config in groups.iter().flatten().rev() {
        let _ = warm.simulate(Input::Test, config);
    }
    for group in &groups {
        let fresh = Session::new(app.clone()).expect("profiles");
        for config in group {
            let want = fresh.simulate(Input::Test, config);
            assert_eq!(warm.simulate(Input::Test, config), want, "{config:?}");
            let mid = want.total_cycles / 2;
            let journal = fresh.run_until(Input::Test, config, mid);
            assert_eq!(
                warm.run_until(Input::Test, config, mid),
                journal,
                "{config:?}"
            );
            let RunOutcome::Interrupted(bytes) = journal else {
                panic!("a mid-run interrupt must leave a journal: {config:?}");
            };
            assert_eq!(
                warm.resume(Input::Test, config, &bytes, 1_000_000),
                fresh.resume(Input::Test, config, &bytes, 1_000_000),
                "{config:?}"
            );
        }
        let key = &group[0];
        assert_eq!(warm.units(key), fresh.units_for(key).as_slice(), "{key:?}");
        assert_eq!(warm.manifest(key), fresh.manifest(key), "{key:?}");
    }
}

#[test]
fn hanoi_results_do_not_depend_on_the_memo() {
    results_do_not_depend_on_the_memo(&nonstrict::workloads::hanoi::build());
}

#[test]
fn jhlzip_results_do_not_depend_on_the_memo() {
    results_do_not_depend_on_the_memo(&nonstrict::workloads::jhlzip::build());
}
