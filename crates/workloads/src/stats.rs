//! Table 2 statistics: computed from a built application, with the
//! paper's published values for comparison.

use nonstrict_bytecode::{Application, Input, Interpreter};

/// The row a benchmark contributes to Table 2, computed from real runs
/// of the program on both inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// Number of class files.
    pub total_files: usize,
    /// Total serialized size in KB (1024 bytes).
    pub size_kb: f64,
    /// Dynamic instructions on the Test input, in thousands.
    pub dyn_test_k: f64,
    /// Dynamic instructions on the Train input, in thousands.
    pub dyn_train_k: f64,
    /// Static instructions, in thousands.
    pub static_k: f64,
    /// Percent of static instructions executed on the Test input.
    pub executed_pct: f64,
    /// Total method count.
    pub total_methods: usize,
    /// Average static instructions per method.
    pub instrs_per_method: f64,
}

/// The paper's published Table 2 values (Test-input dynamic counts, Train
/// in parentheses in the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// Benchmark name.
    pub name: &'static str,
    /// "Total Files".
    pub total_files: usize,
    /// "Size KB".
    pub size_kb: f64,
    /// Dynamic instructions (Test), thousands.
    pub dyn_test_k: f64,
    /// Dynamic instructions (Train), thousands.
    pub dyn_train_k: f64,
    /// Static instructions, thousands.
    pub static_k: f64,
    /// "% Executed".
    pub executed_pct: f64,
    /// "Total Methods".
    pub total_methods: usize,
    /// "Instrs Per Method".
    pub instrs_per_method: f64,
}

/// Table 2 as published.
pub const PAPER_TABLE2: [PaperRow; 6] = [
    PaperRow {
        name: "BIT",
        total_files: 48,
        size_kb: 124.0,
        dyn_test_k: 7763.0,
        dyn_train_k: 5582.0,
        static_k: 10.8,
        executed_pct: 66.0,
        total_methods: 643,
        instrs_per_method: 17.0,
    },
    PaperRow {
        name: "Hanoi",
        total_files: 3,
        size_kb: 6.0,
        dyn_test_k: 329.0,
        dyn_train_k: 68.0,
        static_k: 0.4,
        executed_pct: 85.0,
        total_methods: 58,
        instrs_per_method: 8.0,
    },
    PaperRow {
        name: "JavaCup",
        total_files: 35,
        size_kb: 139.0,
        dyn_test_k: 318.0,
        dyn_train_k: 126.0,
        static_k: 14.8,
        executed_pct: 81.0,
        total_methods: 843,
        instrs_per_method: 18.0,
    },
    PaperRow {
        name: "Jess",
        total_files: 97,
        size_kb: 266.0,
        dyn_test_k: 3116.0,
        dyn_train_k: 270.0,
        static_k: 15.1,
        executed_pct: 47.0,
        total_methods: 1568,
        instrs_per_method: 10.0,
    },
    PaperRow {
        name: "JHLZip",
        total_files: 7,
        size_kb: 35.0,
        dyn_test_k: 2380.0,
        dyn_train_k: 1023.0,
        static_k: 4.0,
        executed_pct: 76.0,
        total_methods: 186,
        instrs_per_method: 22.0,
    },
    PaperRow {
        name: "TestDes",
        total_files: 3,
        size_kb: 50.0,
        dyn_test_k: 310.0,
        dyn_train_k: 303.0,
        static_k: 8.9,
        executed_pct: 98.0,
        total_methods: 51,
        instrs_per_method: 174.0,
    },
];

/// The paper's Table 3 timing constants: (name, CPI, exec Mcycles).
pub const PAPER_TABLE3_CPI: [(&str, u64); 6] = [
    ("BIT", 147),
    ("Hanoi", 3830),
    ("JavaCup", 1241),
    ("Jess", 225),
    ("JHLZip", 82),
    ("TestDes", 484),
];

/// Computes `app`'s Table 2 row by running it on both inputs.
///
/// # Panics
///
/// Panics if the application faults during either run (workload bug).
#[must_use]
pub fn table2_row(app: &Application) -> Table2Row {
    let run = |input: Input| -> (u64, f64) {
        let mut interp = Interpreter::new(&app.program);
        interp
            .run(app.args(input), &mut ())
            .unwrap_or_else(|e| panic!("{} faulted on {input}: {e}", app.name));
        (interp.executed(), interp.executed_static_percent())
    };
    let (dyn_test, pct) = run(Input::Test);
    let (dyn_train, _) = run(Input::Train);
    table2_row_from_runs(app, dyn_test, dyn_train, pct)
}

/// `app`'s Table 2 row from runs already made: `dyn_test` and
/// `dyn_train` dynamic instructions on the two inputs, and
/// `executed_pct` percent of static instructions the Test run executed.
#[must_use]
pub fn table2_row_from_runs(
    app: &Application,
    dyn_test: u64,
    dyn_train: u64,
    executed_pct: f64,
) -> Table2Row {
    let static_instrs = app.program.static_instruction_count();
    let methods = app.program.method_count();
    Table2Row {
        name: app.name.clone(),
        total_files: app.classes.len(),
        size_kb: app.total_size() as f64 / 1024.0,
        dyn_test_k: dyn_test as f64 / 1000.0,
        dyn_train_k: dyn_train as f64 / 1000.0,
        static_k: static_instrs as f64 / 1000.0,
        executed_pct,
        total_methods: methods,
        instrs_per_method: static_instrs as f64 / methods as f64,
    }
}

/// The paper row matching `name`, if any.
#[must_use]
pub fn paper_row(name: &str) -> Option<&'static PaperRow> {
    PAPER_TABLE2
        .iter()
        .find(|r| r.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rows_lookup() {
        assert_eq!(paper_row("jess").unwrap().total_methods, 1568);
        assert!(paper_row("nope").is_none());
    }

    #[test]
    fn cpi_table_matches_benchmarks() {
        for (name, cpi) in PAPER_TABLE3_CPI {
            let app = crate::build_by_name(name).unwrap();
            assert_eq!(app.cpi, cpi, "{name}");
        }
    }
}
