//! # nonstrict-cli
//!
//! The `nonstrict` command-line tool: inspect benchmark class files,
//! compute first-use orderings, partition global data, and simulate
//! remote execution — the whole pipeline from one binary.
//!
//! ```text
//! nonstrict list
//! nonstrict inspect jess --class 3
//! nonstrict disasm testdes --class 1 --method 5
//! nonstrict order jhlzip --source scg
//! nonstrict partition bit
//! nonstrict simulate jess --link modem --ordering train --transfer interleaved --partitioned
//! ```
//!
//! Argument parsing is hand-rolled (the workspace carries no CLI
//! dependency); [`run`] is the testable entry point, returning the text
//! it would print.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;

use nonstrict_bytecode::{Application, Input};
use nonstrict_classfile::{Attribute, GlobalDataBreakdown};
use nonstrict_core::fleet::{run_fleet, AdmissionSettings, FleetClient, FleetSpec};
use nonstrict_core::metrics::{cycles_to_seconds, normalized_percent, queue_share_percent};
use nonstrict_core::model::{
    ByzantineConfig, DataLayout, ExecutionModel, FaultConfig, OrderingSource, OutageConfig,
    ReplicaConfig, SimConfig, TransferPolicy, VerifyMode,
};
use nonstrict_core::sim::{RunOutcome, Session};
use nonstrict_netsim::byzantine::ByzantineMode;
use nonstrict_netsim::{Link, ShedAction, ShedLadder};
use nonstrict_reorder::{partition_app, static_first_use, static_first_use_plain};

/// A CLI failure: a message and the exit code to use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Suggested process exit code.
    pub code: i32,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 2,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl From<nonstrict_store::StoreError> for CliError {
    fn from(e: nonstrict_store::StoreError) -> CliError {
        CliError {
            message: e.to_string(),
            code: 1,
        }
    }
}

/// Writes `bytes` to `path` with the durable-store discipline: the
/// containing directory is created, the bytes land in a temp file that
/// is fsynced and atomically renamed into place, and the directory is
/// fsynced too — a crash mid-export leaves either the old journal or
/// the new one, never a torn in-between.
fn write_journal_atomic(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    let p = std::path::Path::new(path);
    let dir = match p.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => std::path::Path::new("."),
    };
    let name = p
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| CliError::usage(format!("--journal {path}: not a valid file name")))?;
    let fs = nonstrict_store::RealFs::open(dir)?;
    use nonstrict_store::Vfs as _;
    fs.write_atomic(name, bytes)?;
    Ok(())
}

/// The usage text.
pub const USAGE: &str = "\
nonstrict — non-strict execution for mobile programs

USAGE:
  nonstrict list
  nonstrict inspect  <benchmark> [--class N]
  nonstrict disasm   <benchmark> [--class N] [--method M]
  nonstrict order    <benchmark> [--source scg|plain|train|test]
  nonstrict partition <benchmark>
  nonstrict simulate <benchmark> [--link t1|modem] [--ordering scg|train|test|source]
                                 [--transfer strict|par1|par2|par4|parinf|interleaved]
                                 [--partitioned] [--strict-execution]
                                 [--verify off|stream|full]
                                 [--fault-seed N] [--loss PPM] [--drop PPM]
                                 [--corrupt PPM] [--droop PPM] [--semantic PPM]
                                 [--outage-seed N] [--outage-rate PPM] [--outage-cycles N]
                                 [--journal PATH] [--interrupt CYCLE]
                                 [--replicas N] [--replica-spread PPM]
                                 [--hedge-deadline CYCLES]
                                 [--byzantine-mirrors N] [--byzantine-seed N]
                                 [--byzantine-mode stale-epoch|equivocate|collude]
                                 [--audit-rate PPM]
                                 [--clients N] [--client-spread PPM]
                                 [--admit-rate N] [--shed-ladder off|H,S,J]
  nonstrict timeline <benchmark> [--link t1|modem] [--ordering scg|train|test]

Outage/resume: --interrupt kills the session at a base cycle and writes
the checkpoint journal to --journal PATH; rerunning with --journal alone
resumes from it (torn journals fail closed to a strict restart).

Replica sets: --replicas N downloads from N mirrors (1..=8) with
health-scored routing and hedged demand fetches; --replica-spread sets
the per-mirror bandwidth droop (ppm) and --hedge-deadline the stall
budget before a duplicate fetch goes to the runner-up mirror. Both
tuning flags require --replicas 2 or more; --replicas 1 is byte-
identical to no replica flags at all.

Byzantine mirrors: --byzantine-mirrors N turns the N highest-numbered
mirrors of the replica set dishonest (at most --replicas - 1, so the
origin-pinned manifest always has an honest source to fail over to);
--byzantine-mode picks how they misbehave (stale-epoch: keep serving
the pre-restructure layout past the epoch fence; equivocate: serve
divergent bytes the per-unit manifest digest catches at the unit
boundary; collude: forge digests so only cross-mirror audits catch
them); --byzantine-seed seeds the misbehavior plan and --audit-rate
sets the cross-mirror audit sampling rate in ppm of delivered units.
--byzantine-mirrors 0 is byte-identical to no byzantine flags at all.

Fleets: --clients N runs N concurrent sessions (the named benchmark
first, the rest cycling through the suite) behind one shared T1 egress
pipe under deficit-round-robin fair sharing, and reports a per-client
outcome table. --client-spread sets the per-client access-link
bandwidth droop (ppm, client i is i*PPM slower); --admit-rate the
token-bucket admission rate (sessions per ~20 ms period, 0 disables);
--shed-ladder H,S,J the queue-delay rungs (cycles) at which a client's
hedges are dropped, its transfer is forced strict, or it is shed to a
journal checkpoint and resumed. The tuning flags require --clients 2
or more; --clients 1 is byte-identical to no fleet flags at all, and
--clients does not combine with --interrupt/--journal (the shed
ladder journals and resumes internally).

BENCHMARKS: bit, hanoi, javacup, jess, jhlzip, testdes";

/// Runs the CLI on `args` (without the program name), returning the
/// output text.
///
/// # Errors
///
/// [`CliError`] with a message and exit code on bad usage or benchmark
/// faults.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::usage(USAGE));
    };
    match command.as_str() {
        "list" => cmd_list(),
        "inspect" => cmd_inspect(&parse_flags(args)?),
        "disasm" => cmd_disasm(&parse_flags(args)?),
        "order" => cmd_order(&parse_flags(args)?),
        "partition" => cmd_partition(&parse_flags(args)?),
        "simulate" => cmd_simulate(&parse_flags(args)?),
        "timeline" => cmd_timeline(&parse_flags(args)?),
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => Err(CliError::usage(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    }
}

/// Parsed command arguments: one positional benchmark plus `--key value`
/// and `--flag` options.
#[derive(Debug, Default)]
struct Flags {
    benchmark: Option<String>,
    options: std::collections::HashMap<String, String>,
}

impl Flags {
    fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    fn app(&self) -> Result<Application, CliError> {
        let name = self
            .benchmark
            .as_deref()
            .ok_or_else(|| CliError::usage("missing <benchmark> argument"))?;
        nonstrict_workloads::build_by_name(name).ok_or_else(|| {
            CliError::usage(format!(
                "unknown benchmark {name:?}; expected one of {:?}",
                nonstrict_workloads::BENCHMARK_NAMES
            ))
        })
    }

    fn usize_opt(&self, key: &str) -> Result<Option<usize>, CliError> {
        self.num_opt(key)
    }

    fn num_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::usage(format!("--{key} expects a number, got {v:?}"))),
        }
    }

    /// The fault configuration from `--fault-seed/--loss/--drop/--corrupt/
    /// --droop/--semantic`, or `None` when no fault flag was given. Rates
    /// are parts-per-million of fault probability per delivery attempt.
    /// Spellings and parsing live in the `nonstrict-wire` knob
    /// vocabulary, so the simulator, the wire server, and the loadgen
    /// accept identical fault flags.
    fn fault_config(&self) -> Result<Option<FaultConfig>, CliError> {
        let mut knobs = nonstrict_wire::FaultKnobs::default();
        let mut any = false;
        for key in nonstrict_wire::FaultKnobs::KEYS {
            if let Some(value) = self.get(key) {
                knobs
                    .set(key, value)
                    .map_err(|e| CliError::usage(e.to_string()))?;
                any = true;
            }
        }
        if !any {
            return Ok(None);
        }
        let mut fc = FaultConfig::seeded(knobs.seed);
        fc.loss_pm = knobs.loss_pm;
        fc.drop_pm = knobs.drop_pm;
        fc.corrupt_pm = knobs.corrupt_pm;
        fc.droop_pm = knobs.droop_pm;
        fc.semantic_pm = knobs.semantic_pm;
        Ok(Some(fc))
    }

    /// The outage configuration from `--outage-seed/--outage-rate/
    /// --outage-cycles`, or `None` when no outage flag was given. The
    /// rate is parts-per-million of outage probability per base-time
    /// draw period; `--outage-cycles` pins the loss duration exactly
    /// (min = max), leaving the seeded defaults otherwise.
    fn outage_config(&self) -> Result<Option<OutageConfig>, CliError> {
        let seed: Option<u64> = self.num_opt("outage-seed")?;
        let rate: Option<u32> = self.num_opt("outage-rate")?;
        let cycles: Option<u64> = self.num_opt("outage-cycles")?;
        if seed.is_none() && rate.is_none() && cycles.is_none() {
            return Ok(None);
        }
        let mut oc = OutageConfig::seeded(seed.unwrap_or(0));
        oc.rate_pm = rate.unwrap_or(0);
        if let Some(c) = cycles {
            oc.min_cycles = c;
            oc.max_cycles = c;
        }
        Ok(Some(oc))
    }

    /// The replica-set configuration from `--replicas/--replica-spread/
    /// --hedge-deadline`, or `None` when no replica flag was given. The
    /// tuning flags are meaningless on a single origin, so giving either
    /// without `--replicas 2` or more is a usage error rather than a
    /// silently ignored knob.
    fn replica_config(&self) -> Result<Option<ReplicaConfig>, CliError> {
        let replicas: Option<u32> = self.num_opt("replicas")?;
        let spread: Option<u32> = self.num_opt("replica-spread")?;
        let deadline: Option<u64> = self.num_opt("hedge-deadline")?;
        let Some(n) = replicas else {
            if let Some(flag) = [
                spread.map(|_| "--replica-spread"),
                deadline.map(|_| "--hedge-deadline"),
            ]
            .into_iter()
            .flatten()
            .next()
            {
                return Err(CliError::usage(format!(
                    "{flag} only makes sense with --replicas 2 or more"
                )));
            }
            return Ok(None);
        };
        if !(1..=ReplicaConfig::MAX_REPLICAS).contains(&n) {
            return Err(CliError::usage(format!(
                "--replicas expects 1..={}, got {n}",
                ReplicaConfig::MAX_REPLICAS
            )));
        }
        if n < 2 {
            if let Some(flag) = [
                spread.map(|_| "--replica-spread"),
                deadline.map(|_| "--hedge-deadline"),
            ]
            .into_iter()
            .flatten()
            .next()
            {
                return Err(CliError::usage(format!(
                    "{flag} only makes sense with --replicas 2 or more"
                )));
            }
        }
        let seed: Option<u64> = self.num_opt("fault-seed")?;
        let mut rc = ReplicaConfig::seeded(seed.unwrap_or(0));
        rc.replicas = n;
        if let Some(s) = spread {
            rc.spread_pm = s;
        }
        if let Some(d) = deadline {
            rc.hedge_deadline_cycles = d;
        }
        Ok(Some(rc))
    }

    /// The Byzantine-fleet settings from `--byzantine-mirrors/
    /// --byzantine-mode/--byzantine-seed/--audit-rate`, or `None` when
    /// no mirror misbehaves. The flags model mirrors subverting a
    /// replica set, so all of them require `--replicas 2` or more, and
    /// at least one mirror must stay honest (the origin-pinned
    /// manifest's refetch path needs somewhere to fail over to).
    fn byzantine_config(
        &self,
        replicas: Option<&ReplicaConfig>,
    ) -> Result<Option<ByzantineConfig>, CliError> {
        let mirrors: Option<u32> = self.num_opt("byzantine-mirrors")?;
        let seed: Option<u64> = self.num_opt("byzantine-seed")?;
        let mode_arg = self.get("byzantine-mode");
        let audit: Option<u32> = self.num_opt("audit-rate")?;
        let tuning_flag = [
            seed.map(|_| "--byzantine-seed"),
            mode_arg.map(|_| "--byzantine-mode"),
            audit.map(|_| "--audit-rate"),
        ]
        .into_iter()
        .flatten()
        .next();
        let Some(n) = mirrors else {
            if let Some(flag) = tuning_flag {
                return Err(CliError::usage(format!(
                    "{flag} only makes sense with --byzantine-mirrors 1 or more"
                )));
            }
            return Ok(None);
        };
        let fleet = replicas.map_or(0, |rc| rc.replicas);
        if fleet < 2 {
            return Err(CliError::usage(
                "--byzantine-mirrors needs a replica set to subvert: give --replicas 2 or more",
            ));
        }
        if n >= fleet {
            return Err(CliError::usage(format!(
                "--byzantine-mirrors expects at most --replicas - 1 (at least one honest mirror), \
                 got {n} of {fleet}"
            )));
        }
        if n == 0 {
            // An explicitly honest fleet: the flag was given, so the
            // tuning knobs are legal, but the config normalizes away.
            return Ok(Some(ByzantineConfig::seeded(seed.unwrap_or(0))));
        }
        let mode = match mode_arg {
            None => ByzantineMode::Equivocate,
            Some(v) => ByzantineMode::parse(v).ok_or_else(|| {
                CliError::usage(format!(
                    "unknown byzantine mode {v:?}; use stale-epoch|equivocate|collude"
                ))
            })?,
        };
        let audit_rate_pm = audit.unwrap_or(ByzantineConfig::DEFAULT_AUDIT_RATE_PM);
        if audit_rate_pm > 1_000_000 {
            return Err(CliError::usage(format!(
                "--audit-rate is in ppm of delivered units (0..=1000000), got {audit_rate_pm}"
            )));
        }
        let mut bc = ByzantineConfig::seeded(seed.unwrap_or(0));
        bc.mirrors = n;
        bc.mode = mode;
        bc.audit_rate_pm = audit_rate_pm;
        Ok(Some(bc))
    }

    /// The fleet settings from `--clients/--client-spread/--admit-rate/
    /// --shed-ladder`, or `None` when no fleet flag was given. The
    /// tuning flags are meaningless without contention, so giving any
    /// without `--clients 2` or more is a usage error rather than a
    /// silently ignored knob.
    fn fleet_settings(&self) -> Result<Option<FleetSettings>, CliError> {
        let clients: Option<usize> = self.num_opt("clients")?;
        let spread: Option<u32> = self.num_opt("client-spread")?;
        let admit: Option<u32> = self.num_opt("admit-rate")?;
        let ladder_arg = self.get("shed-ladder");
        let tuning_flag = [
            spread.map(|_| "--client-spread"),
            admit.map(|_| "--admit-rate"),
            ladder_arg.map(|_| "--shed-ladder"),
        ]
        .into_iter()
        .flatten()
        .next();
        let Some(n) = clients else {
            if let Some(flag) = tuning_flag {
                return Err(CliError::usage(format!(
                    "{flag} only makes sense with --clients 2 or more"
                )));
            }
            return Ok(None);
        };
        if !(1..=MAX_FLEET_CLIENTS).contains(&n) {
            return Err(CliError::usage(format!(
                "--clients expects 1..={MAX_FLEET_CLIENTS}, got {n}"
            )));
        }
        if n < 2 {
            if let Some(flag) = tuning_flag {
                return Err(CliError::usage(format!(
                    "{flag} only makes sense with --clients 2 or more"
                )));
            }
        }
        let ladder = match ladder_arg {
            None | Some("off") => None,
            Some(v) => {
                let rungs: Vec<u64> = v
                    .split(',')
                    .map(|p| p.trim().parse::<u64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| {
                        CliError::usage(format!(
                            "--shed-ladder expects off or three cycle counts H,S,J, got {v:?}"
                        ))
                    })?;
                let &[h, s, j] = rungs.as_slice() else {
                    return Err(CliError::usage(format!(
                        "--shed-ladder expects off or three cycle counts H,S,J, got {v:?}"
                    )));
                };
                Some(
                    ShedLadder::new(h, s, j)
                        .map_err(|e| CliError::usage(format!("--shed-ladder: {e}")))?,
                )
            }
        };
        Ok(Some(FleetSettings {
            clients: n,
            spread_pm: spread.unwrap_or(0),
            admit_rate: admit.unwrap_or(0),
            ladder,
        }))
    }

    /// The verification mode from `--verify`, defaulting to `off` so a
    /// plain `simulate` reproduces the paper's verification-free numbers.
    fn verify_mode(&self) -> Result<VerifyMode, CliError> {
        match self.get("verify") {
            None => Ok(VerifyMode::Off),
            Some(v) => VerifyMode::parse(v).ok_or_else(|| {
                CliError::usage(format!("unknown verify mode {v:?}; use off|stream|full"))
            }),
        }
    }
}

/// Hard cap on `--clients`, matching what the per-client outcome table
/// can sensibly render.
const MAX_FLEET_CLIENTS: usize = 64;

/// Parsed fleet flags: `--clients` plus its tuning knobs.
#[derive(Debug, Clone, Copy)]
struct FleetSettings {
    /// Fleet size (`--clients`).
    clients: usize,
    /// Per-client access-link bandwidth droop in ppm (`--client-spread`):
    /// client `i`'s cycles-per-byte is the base link's scaled by
    /// `1 + i * spread_pm / 1e6`, the same arithmetic as replica spread.
    spread_pm: u32,
    /// Token-bucket admission rate (`--admit-rate`); 0 disables.
    admit_rate: u32,
    /// Load-shed ladder rungs (`--shed-ladder H,S,J`); `None` serves
    /// every client unmodified.
    ladder: Option<ShedLadder>,
}

/// Boolean `--x` switches; anything not listed here or in [`VALUE_KEYS`]
/// is rejected so a typo'd flag can't be silently ignored.
const BOOL_KEYS: [&str; 2] = ["partitioned", "strict-execution"];

/// Keys that take a value.
const VALUE_KEYS: [&str; 29] = [
    "class",
    "method",
    "source",
    "link",
    "ordering",
    "transfer",
    "verify",
    "fault-seed",
    "loss",
    "drop",
    "corrupt",
    "droop",
    "semantic",
    "outage-seed",
    "outage-rate",
    "outage-cycles",
    "journal",
    "interrupt",
    "replicas",
    "replica-spread",
    "hedge-deadline",
    "byzantine-seed",
    "byzantine-mirrors",
    "byzantine-mode",
    "audit-rate",
    "clients",
    "client-spread",
    "admit-rate",
    "shed-ladder",
];

fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    let mut flags = Flags::default();
    let mut it = args.iter().skip(1).peekable();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            if VALUE_KEYS.contains(&key) {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::usage(format!("--{key} needs a value")))?;
                flags.options.insert(key.to_owned(), v.clone());
            } else if BOOL_KEYS.contains(&key) {
                flags.options.insert(key.to_owned(), String::new());
            } else {
                return Err(CliError::usage(format!("unknown flag --{key}")));
            }
        } else if flags.benchmark.is_none() {
            flags.benchmark = Some(a.clone());
        } else {
            return Err(CliError::usage(format!("unexpected argument {a:?}")));
        }
    }
    Ok(flags)
}

fn cmd_list() -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>8} {:>9} {:>6}",
        "benchmark", "classes", "methods", "size KB", "CPI"
    );
    for app in nonstrict_workloads::build_all() {
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>8} {:>9.1} {:>6}",
            app.name,
            app.classes.len(),
            app.program.method_count(),
            app.total_size() as f64 / 1024.0,
            app.cpi
        );
    }
    Ok(out)
}

fn cmd_inspect(flags: &Flags) -> Result<String, CliError> {
    let app = flags.app()?;
    let mut out = String::new();
    match flags.usize_opt("class")? {
        Some(ci) => {
            let class = app.classes.get(ci).ok_or_else(|| {
                CliError::usage(format!(
                    "class {ci} out of range (0..{})",
                    app.classes.len()
                ))
            })?;
            let name = class.name().map_err(|e| CliError::usage(e.to_string()))?;
            let _ = writeln!(out, "class {name} ({} bytes)", class.total_size());
            let _ = writeln!(
                out,
                "  global data: {} bytes ({} pool entries)",
                class.global_data_size(),
                class.constant_pool.len()
            );
            let b = GlobalDataBreakdown::of(class);
            let [cpool, field, attrib, intfc] = b.section_percentages();
            let _ = writeln!(
                out,
                "  breakdown: cpool {cpool:.1}%  fields {field:.1}%  attribs {attrib:.1}%  interfaces {intfc:.1}%"
            );
            for (mi, m) in class.methods.iter().enumerate() {
                let mname = class.method_name(mi).unwrap_or("?");
                let _ = writeln!(
                    out,
                    "  method {mi:>3}: {mname:<28} code {:>5}B  local data {:>5}B",
                    m.code_size(),
                    m.local_data_size()
                );
            }
        }
        None => {
            let _ = writeln!(out, "{} — {} classes", app.name, app.classes.len());
            for (ci, class) in app.classes.iter().enumerate() {
                let name = class.name().map_err(|e| CliError::usage(e.to_string()))?;
                let _ = writeln!(
                    out,
                    "  {ci:>3}: {:<40} {:>7}B  ({} methods, {}B global)",
                    name.0,
                    class.total_size(),
                    class.methods.len(),
                    class.global_data_size()
                );
            }
        }
    }
    Ok(out)
}

fn cmd_disasm(flags: &Flags) -> Result<String, CliError> {
    let app = flags.app()?;
    let ci = flags.usize_opt("class")?.unwrap_or(0);
    let class = app
        .classes
        .get(ci)
        .ok_or_else(|| CliError::usage(format!("class {ci} out of range")))?;
    let mut out = String::new();
    let targets: Vec<usize> = match flags.usize_opt("method")? {
        Some(mi) if mi < class.methods.len() => vec![mi],
        Some(mi) => return Err(CliError::usage(format!("method {mi} out of range"))),
        None => (0..class.methods.len()).collect(),
    };
    for mi in targets {
        let m = &class.methods[mi];
        let name = class.method_name(mi).unwrap_or("?");
        let _ = writeln!(out, "method {mi}: {name}");
        if let Some(Attribute::Code {
            code,
            max_stack,
            max_locals,
            ..
        }) = m.code_attribute()
        {
            let _ = writeln!(
                out,
                "  stack={max_stack}, locals={max_locals}, {} bytes",
                code.len()
            );
            let text =
                nonstrict_bytecode::listing(code, &class.constant_pool).map_err(|e| CliError {
                    message: e.to_string(),
                    code: 1,
                })?;
            out.push_str(&text);
        } else {
            let _ = writeln!(out, "  (no code)");
        }
        out.push('\n');
    }
    Ok(out)
}

fn cmd_order(flags: &Flags) -> Result<String, CliError> {
    let app = flags.app()?;
    let source = flags.get("source").unwrap_or("scg");
    let order = match source {
        "scg" => static_first_use(&app.program),
        "plain" => static_first_use_plain(&app.program),
        "train" | "test" => {
            let input = if source == "train" {
                Input::Train
            } else {
                Input::Test
            };
            let collected = nonstrict_profile::collect(&app, input).map_err(|e| CliError {
                message: e.to_string(),
                code: 1,
            })?;
            nonstrict_reorder::FirstUseOrder::from_profile(
                &app.program,
                &collected.profile,
                &static_first_use(&app.program),
            )
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown ordering source {other:?}; use scg|plain|train|test"
            )))
        }
    };
    let mut out = String::new();
    let _ = writeln!(out, "{} first-use order ({source}):", app.name);
    for (i, &m) in order.order().iter().enumerate() {
        let class = &app.program.class(m.class);
        let method = &app.program.method(m);
        let _ = writeln!(out, "{:>5}. {}::{}", i + 1, class.name, method.name);
    }
    Ok(out)
}

fn cmd_partition(flags: &Flags) -> Result<String, CliError> {
    let app = flags.app()?;
    let parts = partition_app(&app);
    let summary = nonstrict_reorder::partition::summarize(&app, &parts);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: local {:.1} KB, global {:.1} KB — needed-first {:.1}%, in-methods {:.1}%, unused {:.1}%",
        app.name,
        summary.local_kb,
        summary.global_kb,
        summary.pct_needed_first,
        summary.pct_in_methods,
        summary.pct_unused
    );
    let _ = writeln!(
        out,
        "{:<42} {:>9} {:>12} {:>11} {:>8}",
        "class", "global B", "needed-first", "in-methods", "unused"
    );
    for (ci, p) in parts.iter().enumerate() {
        let name = app.classes[ci]
            .name()
            .map_err(|e| CliError::usage(e.to_string()))?;
        let _ = writeln!(
            out,
            "{:<42} {:>9} {:>12} {:>11} {:>8}",
            name.0, p.global_total, p.needed_first, p.in_methods, p.unused
        );
    }
    Ok(out)
}

/// Parses the `--link` flag (default `modem`) through the netsim
/// crate's canonical name table.
fn parse_link(flags: &Flags) -> Result<Link, CliError> {
    let name = flags.get("link").unwrap_or("modem");
    Link::by_name(name).ok_or_else(|| {
        CliError::usage(nonstrict_wire::ConfigError::UnknownLink(name.to_owned()).to_string())
    })
}

/// Parses the `--ordering` flag (default `scg`) through the wire
/// crate's ordering vocabulary — the same spellings and codes a Hello
/// frame carries to `paper serve`.
fn parse_ordering(flags: &Flags) -> Result<OrderingSource, CliError> {
    let name = flags.get("ordering").unwrap_or("scg");
    let code =
        nonstrict_wire::config::ordering_code(name).map_err(|e| CliError::usage(e.to_string()))?;
    nonstrict_core::ordering_from_wire(code)
        .ok_or_else(|| CliError::usage(format!("ordering {name:?} has no simulator source")))
}

fn cmd_simulate(flags: &Flags) -> Result<String, CliError> {
    let app = flags.app()?;
    let link = parse_link(flags)?;
    let ordering = parse_ordering(flags)?;
    let transfer = match flags.get("transfer").unwrap_or("par4") {
        "strict" => TransferPolicy::Strict,
        "par1" => TransferPolicy::Parallel { limit: 1 },
        "par2" => TransferPolicy::Parallel { limit: 2 },
        "par4" => TransferPolicy::Parallel { limit: 4 },
        "parinf" => TransferPolicy::Parallel { limit: usize::MAX },
        "interleaved" => TransferPolicy::Interleaved,
        other => {
            return Err(CliError::usage(format!(
                "unknown transfer {other:?}; use strict|par1|par2|par4|parinf|interleaved"
            )))
        }
    };
    let config = SimConfig {
        link,
        ordering,
        transfer,
        data_layout: if flags.has("partitioned") {
            DataLayout::Partitioned
        } else {
            DataLayout::Whole
        },
        execution: if flags.has("strict-execution") {
            ExecutionModel::Strict
        } else {
            ExecutionModel::NonStrict
        },
        faults: flags.fault_config()?,
        verify: flags.verify_mode()?,
        outages: flags.outage_config()?,
        replicas: flags.replica_config()?,
        byzantine: None,
    };
    let config = SimConfig {
        byzantine: flags.byzantine_config(config.replicas.as_ref())?,
        ..config
    };

    if let Some(fs) = flags.fleet_settings()? {
        if flags.has("interrupt") || flags.has("journal") {
            return Err(CliError::usage(
                "--clients does not combine with --interrupt/--journal \
                 (the shed ladder journals and resumes internally)",
            ));
        }
        if fs.clients >= 2 {
            return simulate_fleet(flags, app, &config, &fs);
        }
        // A fleet of one never queues: the single-client path below is
        // bit-identical (asserted in core::fleet's tests), so fall
        // through rather than render a one-row outcome table.
    }

    let session = Session::new(app).map_err(|e| CliError {
        message: e.to_string(),
        code: 1,
    })?;
    let base = session.simulate(Input::Test, &SimConfig::strict(link));
    let mut prelude = String::new();
    let r = if let Some(at) = flags.num_opt::<u64>("interrupt")? {
        let path = flags.get("journal").ok_or_else(|| {
            CliError::usage("--interrupt needs --journal PATH to store the checkpoint")
        })?;
        match session.run_until(Input::Test, &config, at) {
            RunOutcome::Interrupted(bytes) => {
                write_journal_atomic(path, &bytes)?;
                return Ok(format!(
                    "{}: session killed at base cycle {at}; checkpoint journal ({} bytes) written to {path}\n  resume by rerunning with --journal {path} (without --interrupt)\n",
                    session.app.name,
                    bytes.len()
                ));
            }
            RunOutcome::Finished(r) => {
                let _ = writeln!(
                    prelude,
                    "  (run finished at {} cycles, before the --interrupt point {at}; no journal written)",
                    r.total_cycles
                );
                *r
            }
        }
    } else if let Some(path) = flags.get("journal") {
        let bytes = std::fs::read(path).map_err(|e| CliError {
            message: format!("cannot read journal {path}: {e}"),
            code: 1,
        })?;
        let r = session.resume(
            Input::Test,
            &config,
            &bytes,
            OutageConfig::DEFAULT_NEGOTIATION_CYCLES,
        );
        let _ = writeln!(
            prelude,
            "  resumed from journal {path} ({} bytes): {}",
            bytes.len(),
            if r.outage.failed_closed {
                "FAIL-CLOSED — journal untrusted, restarted under strict execution"
            } else if r.outage.refetched_classes > 0 {
                "resumed with targeted refetch of stale classes"
            } else {
                "resumed cleanly"
            }
        );
        r
    } else {
        session.simulate(Input::Test, &config)
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} over {} — {:?}",
        session.app.name, link.name, config
    );
    out.push_str(&prelude);
    let _ = writeln!(
        out,
        "  total:              {:>12} cycles ({:.2} s on the 500MHz Alpha)",
        r.total_cycles,
        cycles_to_seconds(r.total_cycles)
    );
    let _ = writeln!(
        out,
        "  normalized:         {:>11.1}% of the strict baseline ({} cycles)",
        normalized_percent(r.total_cycles, base.total_cycles),
        base.total_cycles
    );
    let _ = writeln!(
        out,
        "  invocation latency: {:>12} cycles ({:.2} s; strict {:.2} s)",
        r.invocation_latency,
        cycles_to_seconds(r.invocation_latency),
        cycles_to_seconds(base.invocation_latency)
    );
    let _ = writeln!(
        out,
        "  stalls:             {:>12} ({} cycles)",
        r.stalls, r.stall_cycles
    );
    let _ = writeln!(
        out,
        "  linker:             {} classes verified, {} methods verified, {} resolved",
        r.link_stats.classes_verified, r.link_stats.methods_verified, r.link_stats.methods_resolved
    );
    if config.verify != VerifyMode::Off {
        let _ = writeln!(
            out,
            "  verification:       {:>12} cycles ({} mode, {:.2}% of total)",
            r.verify_cycles,
            config.verify.label(),
            nonstrict_core::metrics::verify_share_percent(r.verify_cycles, r.total_cycles)
        );
    }
    if config.active_faults().is_some() {
        let f = &r.faults;
        let _ = writeln!(
            out,
            "  fault recovery:     {:>12} cycles ({} retries: {} lost-timeout, {} corrupt, {} quarantined, {} drops)",
            f.recovery_cycles,
            f.retries,
            f.retries - f.corrupted - f.quarantined - f.drops,
            f.corrupted,
            f.quarantined,
            f.drops
        );
        let _ = writeln!(
            out,
            "  degradation:        {} classes demoted to strict{}; run {}",
            f.degraded_classes,
            if f.session_degraded {
                " (session fell back to strict)"
            } else {
                ""
            },
            if f.completed {
                "completed"
            } else {
                "incomplete"
            }
        );
        if f.forced > 0 {
            let _ = writeln!(
                out,
                "  WARNING: {} deliveries exhausted the retry cap and were forced through — the link is at the protocol's survivable edge",
                f.forced
            );
        }
    }
    if r.outage.outages > 0 || r.outage.failed_closed || config.active_outages().is_some() {
        let o = &r.outage;
        let _ = writeln!(
            out,
            "  outages:            {} survived, {} journal resumes, {} classes refetched{}",
            o.outages,
            o.resumes,
            o.refetched_classes,
            if o.failed_closed {
                " (FAIL-CLOSED restart)"
            } else {
                ""
            }
        );
        let _ = writeln!(
            out,
            "  resume cost:        {:>12} cycles ({:.2}% of total)",
            o.resume_cycles,
            nonstrict_core::metrics::resume_share_percent(o.resume_cycles, r.total_cycles)
        );
    }
    if config.active_replicas().is_some() {
        let rep = &r.replica;
        let _ = writeln!(
            out,
            "  replica set:        {} mirrors, {} failovers, {} hedged fetches ({} won)",
            rep.replicas, rep.failovers, rep.hedges, rep.hedge_wins
        );
        let _ = writeln!(
            out,
            "  hedge cost:         {:>12} cycles ({:.2}% of total){}",
            rep.hedge_cycles,
            nonstrict_core::metrics::hedge_share_percent(rep.hedge_cycles, r.total_cycles),
            if rep.sole_survivor {
                " — SOLE SURVIVOR, session failed closed to strict"
            } else {
                ""
            }
        );
        if let Some(bc) = config.active_byzantine() {
            let ist = &r.integrity;
            let _ = writeln!(
                out,
                "  byzantine:          {} of {} mirrors dishonest ({}), audit rate {} ppm",
                bc.mirrors,
                rep.replicas,
                bc.mode.label(),
                bc.audit_rate_pm
            );
            let _ = writeln!(
                out,
                "  integrity:          {} manifest pins, {} digest checks, {} divergent units ({} undetected), {} audits ({} mismatched), {} quarantines",
                ist.manifest_pins,
                ist.digest_checks,
                ist.divergent_units,
                ist.undetected_units,
                ist.audits,
                ist.audit_mismatches,
                ist.quarantines
            );
            let _ = writeln!(
                out,
                "  integrity cost:     {:>12} cycles ({:.2}% of total); {} fence refetches, {} bytes refetched",
                ist.integrity_cycles,
                nonstrict_core::metrics::integrity_share_percent(
                    ist.integrity_cycles,
                    r.total_cycles
                ),
                ist.fence_refetches,
                ist.refetched_bytes
            );
        }
        let armed = config.active_byzantine().is_some();
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>7} {:>10} {:>8} {:>8} {:>6} {:>6}",
            "mirror", "health", "units", "bytes", "retries", "outages", "equiv", "state"
        );
        for (i, h) in rep.health.iter().take(rep.replicas as usize).enumerate() {
            let state = if h.quarantined && armed {
                "quar"
            } else if h.alive {
                "live"
            } else {
                "dead"
            };
            let _ = writeln!(
                out,
                "  {:<10} {:>7.1}% {:>7} {:>10} {:>8} {:>8} {:>6} {:>6}",
                format!("mirror {i}"),
                f64::from(h.health_ppm) / 10_000.0,
                h.units_served,
                h.bytes_served,
                h.retries,
                h.outage_hits,
                h.equivocations,
                state
            );
        }
    }
    Ok(out)
}

/// Client `i`'s access link under `--client-spread`: the base link's
/// cycles-per-byte scaled by `1 + i * spread_pm / 1e6` (the replica-
/// spread arithmetic, applied across clients instead of mirrors).
fn client_link(link: Link, spread_pm: u32, i: usize) -> Link {
    let cpb = u128::from(link.cycles_per_byte) * (1_000_000 + u128::from(spread_pm) * i as u128)
        / 1_000_000;
    Link {
        cycles_per_byte: u64::try_from(cpb).unwrap_or(u64::MAX),
        name: link.name,
    }
}

/// Runs `--clients N` concurrent sessions behind the shared egress pipe
/// and renders the fleet report: aggregate tail latency, admission and
/// shed-ladder outcomes, and the per-client outcome table.
fn simulate_fleet(
    flags: &Flags,
    first: Application,
    config: &SimConfig,
    fs: &FleetSettings,
) -> Result<String, CliError> {
    // Client 0 is the named benchmark; the rest cycle through the
    // suite in table order.
    let mut apps = vec![first];
    for i in 1..fs.clients {
        let name = nonstrict_workloads::BENCHMARK_NAMES
            [(i - 1) % nonstrict_workloads::BENCHMARK_NAMES.len()];
        apps.push(nonstrict_workloads::build_by_name(name).expect("suite benchmark builds"));
    }
    let sessions: Vec<Session> = apps
        .into_iter()
        .map(|app| {
            Session::new(app).map_err(|e| CliError {
                message: e.to_string(),
                code: 1,
            })
        })
        .collect::<Result<_, _>>()?;
    let clients: Vec<FleetClient> = sessions
        .iter()
        .enumerate()
        .map(|(i, s)| FleetClient {
            name: &s.app.name,
            session: s,
            link: client_link(config.link, fs.spread_pm, i),
            weight: 1,
        })
        .collect();
    let seed: u64 = flags.num_opt("fault-seed")?.unwrap_or(0);
    let spec = FleetSpec {
        admission: (fs.admit_rate > 0).then(|| AdmissionSettings::per_period(fs.admit_rate)),
        ladder: fs.ladder,
        ..FleetSpec::seeded(seed)
    };
    let fleet = run_fleet(&spec, &clients, Input::Test, config);

    let fleet_total: u64 = fleet.clients.iter().map(|c| c.result.total_cycles).sum();
    let queue = fleet.queue_cycles();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet of {} over shared {} egress — {:?}",
        fs.clients, fleet.egress.name, config
    );
    let _ = writeln!(
        out,
        "  tail latency:       p50 {} / p95 {} / p99 {} cycles ({:.2} s / {:.2} s / {:.2} s)",
        fleet.p50_total,
        fleet.p95_total,
        fleet.p99_total,
        cycles_to_seconds(fleet.p50_total),
        cycles_to_seconds(fleet.p95_total),
        cycles_to_seconds(fleet.p99_total)
    );
    let _ = writeln!(
        out,
        "  queue cycles:       {:>12} across the fleet ({:.2}% of fleet total)",
        queue,
        queue_share_percent(queue, fleet_total)
    );
    match spec.admission {
        Some(a) => {
            let _ = writeln!(
                out,
                "  admission:          {} per {}-cycle period — {} rejections before everyone got in",
                a.rate,
                a.period_cycles,
                fleet.rejections()
            );
        }
        None => {
            let _ = writeln!(
                out,
                "  admission:          disabled (every session admitted on arrival)"
            );
        }
    }
    match fs.ladder {
        Some(l) => {
            let _ = writeln!(
                out,
                "  shed ladder:        {} served, {} hedge-drops, {} forced strict, {} shed to journal (rungs {}/{}/{})",
                fleet.count(ShedAction::None),
                fleet.count(ShedAction::DropHedges),
                fleet.count(ShedAction::ForceStrict),
                fleet.count(ShedAction::Shed),
                l.drop_hedges,
                l.force_strict,
                l.shed
            );
        }
        None => {
            let _ = writeln!(
                out,
                "  shed ladder:        off (every client served unmodified)"
            );
        }
    }
    let _ = writeln!(
        out,
        "  {:<3} {:<10} {:<7} {:>9} {:>4} {:>14} {:>14} {:>14} {:<12}",
        "i", "benchmark", "link", "cyc/B", "rej", "admit-wait", "drr-queue", "total", "outcome"
    );
    for (i, c) in fleet.clients.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:<3} {:<10} {:<7} {:>9} {:>4} {:>14} {:>14} {:>14} {:<12}",
            i,
            c.name,
            c.link.name,
            c.link.cycles_per_byte,
            c.rejections,
            c.admission_wait,
            c.drr_queue,
            c.result.total_cycles,
            c.action.label()
        );
    }
    Ok(out)
}

fn cmd_timeline(flags: &Flags) -> Result<String, CliError> {
    use nonstrict_netsim::{
        class_units, greedy_schedule, ParallelEngine, TransferEngine, Weights, DELIMITER_BYTES,
    };
    use nonstrict_reorder::restructure;

    let app = flags.app()?;
    let link = parse_link(flags)?;
    let order = match flags.get("ordering").unwrap_or("scg") {
        "scg" => static_first_use(&app.program),
        "train" | "test" => {
            let input = if flags.get("ordering") == Some("train") {
                Input::Train
            } else {
                Input::Test
            };
            let collected = nonstrict_profile::collect(&app, input).map_err(|e| CliError {
                message: e.to_string(),
                code: 1,
            })?;
            nonstrict_reorder::FirstUseOrder::from_profile(
                &app.program,
                &collected.profile,
                &static_first_use(&app.program),
            )
        }
        other => return Err(CliError::usage(format!("unknown ordering {other:?}"))),
    };
    let r = restructure(&app, &order);
    let units = class_units(&app, &r, None, DELIMITER_BYTES);
    let schedule = greedy_schedule(&app, &order, &units, &r.layouts, Weights::Static);
    let mut engine = ParallelEngine::new(link, &units, &schedule, 4);
    let finish = engine.finish_time();

    const WIDTH: usize = 64;
    let col = |t: u64| -> usize { (t as u128 * WIDTH as u128 / finish.max(1) as u128) as usize };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} over {}: parallel(4) transfer timeline, {} total cycles",
        app.name, link.name, finish
    );
    let _ = writeln!(
        out,
        "{:<36} |{}|",
        "class (in schedule order)",
        "-".repeat(WIDTH)
    );
    for &c in &schedule.class_order {
        let first = engine.recorded_arrival(c, 0).unwrap_or(finish);
        let last = engine
            .recorded_arrival(c, units[c].unit_count() - 1)
            .unwrap_or(finish);
        let (a, b) = (col(first).min(WIDTH - 1), col(last).min(WIDTH - 1));
        let mut bar = vec![b' '; WIDTH];
        bar[a..=b].fill(b'#');
        let name = app.classes[c]
            .name()
            .map_err(|e| CliError::usage(e.to_string()))?;
        let shown: String = name
            .0
            .chars()
            .rev()
            .take(34)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        let _ = writeln!(
            out,
            "{:<36} |{}|",
            shown,
            String::from_utf8(bar).expect("ascii")
        );
    }
    let _ = writeln!(out, "(# spans prelude-arrival .. last-unit-arrival)");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    #[test]
    fn list_shows_all_benchmarks() {
        let out = run_str(&["list"]).unwrap();
        for name in nonstrict_workloads::BENCHMARK_NAMES {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn no_command_is_usage_error() {
        let err = run(&[]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("USAGE"));
    }

    #[test]
    fn unknown_benchmark_is_reported() {
        let err = run_str(&["inspect", "nope"]).unwrap_err();
        assert!(err.message.contains("unknown benchmark"));
    }

    #[test]
    fn typoed_flag_is_rejected_not_ignored() {
        // `--los` must not silently run a faultless simulation.
        let err = run_str(&["simulate", "jess", "--los", "5"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(
            err.message.contains("unknown flag --los"),
            "{}",
            err.message
        );
    }

    #[test]
    fn inspect_class_lists_methods() {
        let out = run_str(&["inspect", "hanoi", "--class", "1"]).unwrap();
        assert!(out.contains("hanoi/Solver"), "{out}");
        assert!(out.contains("solve"), "{out}");
        assert!(out.contains("moveDisk"), "{out}");
    }

    #[test]
    fn disasm_renders_bytecode() {
        let out = run_str(&["disasm", "hanoi", "--class", "1", "--method", "1"]).unwrap();
        assert!(out.contains("solve"), "{out}");
        assert!(out.contains("invokestatic"), "{out}");
        assert!(out.contains("iload"), "{out}");
    }

    #[test]
    fn order_sources_differ() {
        let scg = run_str(&["order", "hanoi", "--source", "scg"]).unwrap();
        let plain = run_str(&["order", "hanoi", "--source", "plain"]).unwrap();
        assert!(scg.lines().count() == plain.lines().count());
        assert!(scg.contains("hanoi/Solver::solve"));
    }

    #[test]
    fn partition_reports_every_class() {
        let out = run_str(&["partition", "testdes"]).unwrap();
        assert!(out.contains("des/TestDes"), "{out}");
        assert!(out.contains("des/Tables"), "{out}");
        assert!(out.contains("needed-first"), "{out}");
    }

    #[test]
    fn simulate_reports_normalized_time() {
        let out = run_str(&[
            "simulate",
            "hanoi",
            "--link",
            "modem",
            "--ordering",
            "test",
            "--transfer",
            "interleaved",
        ])
        .unwrap();
        assert!(out.contains("normalized"), "{out}");
        assert!(out.contains("invocation latency"), "{out}");
    }

    #[test]
    fn simulate_with_fault_flags_reports_recovery() {
        let out = run_str(&[
            "simulate",
            "hanoi",
            "--link",
            "modem",
            "--fault-seed",
            "7",
            "--loss",
            "100000",
            "--drop",
            "20000",
            "--corrupt",
            "50000",
        ])
        .unwrap();
        assert!(out.contains("fault recovery"), "{out}");
        assert!(out.contains("degradation"), "{out}");
        assert!(out.contains("run completed"), "{out}");
        let same = run_str(&[
            "simulate",
            "hanoi",
            "--link",
            "modem",
            "--fault-seed",
            "7",
            "--loss",
            "100000",
            "--drop",
            "20000",
            "--corrupt",
            "50000",
        ])
        .unwrap();
        assert_eq!(out, same, "same seed, same report");
    }

    #[test]
    fn simulate_with_stream_verification_reports_the_charge() {
        let out = run_str(&["simulate", "hanoi", "--link", "modem", "--verify", "stream"]).unwrap();
        assert!(out.contains("verification"), "{out}");
        assert!(out.contains("stream mode"), "{out}");
    }

    #[test]
    fn verify_off_is_the_default_and_identical() {
        let plain = run_str(&["simulate", "hanoi", "--link", "t1"]).unwrap();
        let off = run_str(&["simulate", "hanoi", "--link", "t1", "--verify", "off"]).unwrap();
        let tail = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(tail(&plain), tail(&off));
        assert!(!plain.contains("verification"), "{plain}");
    }

    #[test]
    fn bad_verify_mode_is_a_usage_error() {
        let err = run_str(&["simulate", "hanoi", "--verify", "streaming"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(
            err.message.contains("unknown verify mode"),
            "{}",
            err.message
        );
    }

    #[test]
    fn semantic_fault_flag_reports_quarantine() {
        let out = run_str(&[
            "simulate",
            "hanoi",
            "--link",
            "modem",
            "--fault-seed",
            "7",
            "--semantic",
            "100000",
        ])
        .unwrap();
        assert!(out.contains("quarantined"), "{out}");
        assert!(out.contains("run completed"), "{out}");
    }

    #[test]
    fn zero_rate_fault_flags_leave_the_report_unchanged() {
        let perfect = run_str(&["simulate", "hanoi", "--link", "t1"]).unwrap();
        let seeded = run_str(&["simulate", "hanoi", "--link", "t1", "--fault-seed", "99"]).unwrap();
        // An armed-but-zero-rate config must not perturb the numbers; the
        // only difference is the echoed config.
        let tail = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(tail(&perfect), tail(&seeded));
    }

    #[test]
    fn timeline_draws_every_class() {
        let out = run_str(&["timeline", "hanoi", "--link", "t1"]).unwrap();
        assert!(out.contains("hanoi/Solver"), "{out}");
        assert!(out.contains('#'), "{out}");
        assert_eq!(out.lines().filter(|l| l.contains('|')).count(), 4); // header + 3 classes
    }

    #[test]
    fn flag_value_missing_is_usage_error() {
        let err = run_str(&["simulate", "hanoi", "--link"]).unwrap_err();
        assert!(err.message.contains("needs a value"));
    }

    #[test]
    fn outage_flags_report_resume_cost_deterministically() {
        let args = [
            "simulate",
            "hanoi",
            "--link",
            "modem",
            "--outage-seed",
            "7",
            "--outage-rate",
            "600000",
            "--outage-cycles",
            "2000000",
        ];
        let a = run_str(&args).unwrap();
        let b = run_str(&args).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("outages:"), "{a}");
        assert!(a.contains("resume cost:"), "{a}");
    }

    #[test]
    fn zero_rate_outage_flags_leave_the_report_tail_unchanged() {
        let plain = run_str(&["simulate", "hanoi", "--link", "t1"]).unwrap();
        let seeded = run_str(&["simulate", "hanoi", "--link", "t1", "--outage-seed", "3"]).unwrap();
        // An armed-but-zero-rate outage config is normalized away by
        // `active_outages`, so only the echoed config line may differ.
        let tail = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(tail(&plain), tail(&seeded));
        assert!(!plain.contains("resume cost"), "{plain}");
    }

    #[test]
    fn replica_run_reports_the_mirror_table_deterministically() {
        let args = [
            "simulate",
            "hanoi",
            "--link",
            "modem",
            "--replicas",
            "3",
            "--fault-seed",
            "7",
            "--loss",
            "200000",
            "--hedge-deadline",
            "500000",
        ];
        let a = run_str(&args).unwrap();
        let b = run_str(&args).unwrap();
        assert_eq!(a, b, "same seed, same report");
        assert!(a.contains("replica set:"), "{a}");
        assert!(a.contains("3 mirrors"), "{a}");
        assert!(a.contains("hedge cost:"), "{a}");
        assert!(a.contains("mirror 2"), "{a}");
        assert!(a.contains("live"), "{a}");
    }

    #[test]
    fn single_replica_leaves_the_report_tail_unchanged() {
        let plain = run_str(&["simulate", "hanoi", "--link", "t1"]).unwrap();
        let one = run_str(&["simulate", "hanoi", "--link", "t1", "--replicas", "1"]).unwrap();
        // A one-mirror set is normalized away by `active_replicas`, so
        // only the echoed config line may differ.
        let tail = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(tail(&plain), tail(&one));
        assert!(!plain.contains("replica set"), "{plain}");
    }

    #[test]
    fn hedge_deadline_without_replicas_is_a_usage_error() {
        let err = run_str(&["simulate", "hanoi", "--hedge-deadline", "1000000"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--replicas 2"), "{}", err.message);
        let err = run_str(&[
            "simulate",
            "hanoi",
            "--replicas",
            "1",
            "--hedge-deadline",
            "1000000",
        ])
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--replicas 2"), "{}", err.message);
    }

    #[test]
    fn replica_spread_without_replicas_is_a_usage_error() {
        let err = run_str(&["simulate", "hanoi", "--replica-spread", "100000"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--replica-spread"), "{}", err.message);
    }

    #[test]
    fn replica_count_out_of_range_is_a_usage_error() {
        for n in ["0", "9"] {
            let err = run_str(&["simulate", "hanoi", "--replicas", n]).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(err.message.contains("1..=8"), "{}", err.message);
        }
    }

    #[test]
    fn interrupt_without_journal_is_a_usage_error() {
        let err = run_str(&["simulate", "hanoi", "--interrupt", "1000"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--journal"), "{}", err.message);
    }

    #[test]
    fn interrupt_writes_a_journal_that_resumes_the_session() {
        let path =
            std::env::temp_dir().join(format!("nonstrict-cli-journal-{}.bin", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let killed = run_str(&[
            "simulate",
            "hanoi",
            "--link",
            "modem",
            "--interrupt",
            "5000000",
            "--journal",
            &path,
        ])
        .unwrap();
        assert!(
            killed.contains("session killed at base cycle 5000000"),
            "{killed}"
        );
        assert!(killed.contains("journal"), "{killed}");
        let resumed =
            run_str(&["simulate", "hanoi", "--link", "modem", "--journal", &path]).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(resumed.contains("resumed cleanly"), "{resumed}");
        assert!(resumed.contains("resume cost:"), "{resumed}");
        // The resumed run pays exactly the reconnect negotiation on top
        // of the uninterrupted total.
        let plain = run_str(&["simulate", "hanoi", "--link", "modem"]).unwrap();
        let total = |s: &str| -> u64 {
            s.lines()
                .find(|l| l.contains("total:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
                .unwrap()
        };
        assert_eq!(
            total(&resumed),
            total(&plain) + OutageConfig::DEFAULT_NEGOTIATION_CYCLES
        );
    }

    #[test]
    fn fleet_run_reports_the_client_table_deterministically() {
        let args = [
            "simulate",
            "hanoi",
            "--link",
            "t1",
            "--clients",
            "4",
            "--admit-rate",
            "1",
            "--shed-ladder",
            "0,2000000000,4000000000",
        ];
        let a = run_str(&args).unwrap();
        let b = run_str(&args).unwrap();
        assert_eq!(a, b, "same seed, same fleet report");
        assert!(a.contains("fleet of 4"), "{a}");
        assert!(a.contains("tail latency:"), "{a}");
        assert!(a.contains("admission:"), "{a}");
        assert!(a.contains("shed ladder:"), "{a}");
        // Client 0 is the named benchmark; the rest cycle the suite.
        assert!(a.contains("Hanoi"), "{a}");
        assert!(a.contains("BIT"), "{a}");
        assert!(a.contains("JavaCup"), "{a}");
        // A zero first rung means nobody is plainly served.
        assert!(a.contains("0 served"), "{a}");
        assert!(a.contains("drop-hedges"), "{a}");
    }

    #[test]
    fn client_spread_slows_later_clients() {
        let out = run_str(&[
            "simulate",
            "hanoi",
            "--link",
            "t1",
            "--clients",
            "2",
            "--client-spread",
            "500000",
        ])
        .unwrap();
        // Client 0 keeps the T1's 3815 cycles/byte; client 1 runs 50%
        // slower.
        assert!(out.contains(" 3815"), "{out}");
        assert!(out.contains(" 5722"), "{out}");
    }

    #[test]
    fn a_fleet_of_one_is_byte_identical_to_no_fleet_flags() {
        let plain = run_str(&["simulate", "hanoi", "--link", "t1"]).unwrap();
        let one = run_str(&["simulate", "hanoi", "--link", "t1", "--clients", "1"]).unwrap();
        // `--clients` lives outside SimConfig, so even the echoed
        // config line matches: the whole report must be identical.
        assert_eq!(plain, one);
        assert!(!plain.contains("fleet of"), "{plain}");
    }

    #[test]
    fn fleet_tuning_without_clients_is_a_usage_error() {
        for args in [
            ["simulate", "hanoi", "--admit-rate", "1"],
            ["simulate", "hanoi", "--client-spread", "100000"],
            ["simulate", "hanoi", "--shed-ladder", "1,2,3"],
        ] {
            let err = run_str(&args).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(err.message.contains("--clients 2"), "{}", err.message);
        }
        let err =
            run_str(&["simulate", "hanoi", "--clients", "1", "--admit-rate", "1"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--clients 2"), "{}", err.message);
    }

    #[test]
    fn bad_shed_ladders_are_usage_errors() {
        // Two rungs instead of three.
        let err = run_str(&[
            "simulate",
            "hanoi",
            "--clients",
            "2",
            "--shed-ladder",
            "1,2",
        ])
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("H,S,J"), "{}", err.message);
        // Rungs out of order get the typed ladder error.
        let err = run_str(&[
            "simulate",
            "hanoi",
            "--clients",
            "2",
            "--shed-ladder",
            "5,4,3",
        ])
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--shed-ladder"), "{}", err.message);
    }

    #[test]
    fn client_count_out_of_range_is_a_usage_error() {
        for n in ["0", "65"] {
            let err = run_str(&["simulate", "hanoi", "--clients", n]).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(err.message.contains("1..=64"), "{}", err.message);
        }
    }

    #[test]
    fn clients_with_journal_flags_is_a_usage_error() {
        let err = run_str(&[
            "simulate",
            "hanoi",
            "--clients",
            "2",
            "--interrupt",
            "1000",
            "--journal",
            "/tmp/never-written.bin",
        ])
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--clients"), "{}", err.message);
    }

    #[test]
    fn corrupt_journal_fails_closed_in_the_report() {
        let path = std::env::temp_dir().join(format!(
            "nonstrict-cli-torn-journal-{}.bin",
            std::process::id()
        ));
        let path = path.to_str().unwrap().to_string();
        std::fs::write(&path, b"not a journal at all").unwrap();
        let out = run_str(&["simulate", "hanoi", "--link", "modem", "--journal", &path]).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(out.contains("FAIL-CLOSED"), "{out}");
        assert!(out.contains("restarted under strict execution"), "{out}");
    }
}
