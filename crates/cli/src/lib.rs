//! Library half of the `webcache` command-line tool: argument parsing and
//! command execution, kept separate from `main.rs` so everything is unit
//! testable.
//!
//! Subcommands:
//!
//! * `gen`   — generate a ProWGen or UCB-like trace into a binary file;
//! * `stats` — summarize a trace file (the §5.1 quantities: U, one-timer
//!   fraction, estimated Zipf α, …);
//! * `run`   — run one caching scheme over per-proxy trace files
//!   (`--stats-out FILE` exports the observability snapshot as JSON);
//! * `explain` — run with the stats recorder attached and print the
//!   per-tier breakdown, P2P protocol counters, and hop histograms;
//! * `sweep` — run schemes × cache sizes and print a figure panel;
//! * `throughput` — time the simulator itself (requests/sec per scheme)
//!   and write `BENCH_throughput.json`, the repo's perf trajectory;
//! * `churn` — drive Hier-GD through a deterministic fault plan (silent
//!   crashes, departures, rejoins, slow nodes, network partitions with
//!   their heals, message loss) and report detection latency, stale
//!   directory hits, re-replications, reconciliation counts and the
//!   latency delta vs a fault-free twin run;
//! * `chaos` — generate hundreds of random seeded fault plans (churn plus
//!   message-level loss/duplication/reordering/corruption and
//!   partition/heal pairs), audit each end state with invariant oracles,
//!   and shrink any failing plan to a minimal replayable reproducer spec
//!   (exit 2 on violations; `--json true` for a machine-readable report);
//! * `adversary` — sweep attacker fraction × audit rate: receipt forgers
//!   poison the store-receipt directory while the proxy spot-checks
//!   receipt senders with possession challenges, and the report compares
//!   hit-ratio/latency/diversion degradation undefended vs defended
//!   (JSON report + CSV figure);
//! * `overload` — sweep flash-crowd intensity × defense config: every
//!   intensity runs naive and defended over the same trace and spike,
//!   and the report compares goodput, p99 latency, shed fractions and
//!   the recovery time back to 95% of baseline goodput (JSON report +
//!   CSV figure);
//! * `durability` — sweep correlated burst size × replica `k` ×
//!   placement × repair pace: one whole failure domain crashes, and the
//!   report compares objects lost, the at-risk window and the mean time
//!   to repair, blind + reactive vs spread + proactive (JSON report +
//!   CSV figure).
//!
//! Flags are `--key value` pairs; parsing is hand-rolled (the workspace
//! deliberately keeps its dependency set small — see DESIGN.md). Each
//! subcommand declares the flags it accepts in the `dispatch` table, and
//! any other flag is a usage error before any work starts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::str::FromStr;
use std::sync::Arc;
use webcache_sim::sweep::{gain_curve, sweep};
use webcache_sim::throughput::measure_throughput;
use webcache_sim::{
    adversary, durability, latency_gain_percent, overload, run_adversary, run_chaos, run_churn,
    run_durability, run_experiment, run_experiment_recorded, run_overload, AdversaryConfig,
    ChaosConfig, ChurnConfig, ClockMode, DurabilityConfig, EventLogRecorder, ExperimentConfig,
    FaultAction, FaultPlan, HitClass, NetworkModel, OverloadConfig, ScenarioReport, SchemeKind,
    SimError, StatsRecorder,
};
use webcache_workload::{ProWGen, ProWGenConfig, Trace, TraceStats, UcbLike, UcbLikeConfig};

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Command {
    /// Subcommand name.
    pub name: String,
    /// `--key value` options.
    pub options: HashMap<String, String>,
    /// Positional arguments (paths).
    pub positional: Vec<String>,
}

/// Errors surfaced to the user with exit code 2.
#[derive(Debug, PartialEq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// Everything `execute` can fail with, mapped to process exit codes.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself is wrong (exit code 2).
    Usage(UsageError),
    /// The simulator rejected the request (config/scheme errors exit 2,
    /// I/O errors exit 3).
    Sim(SimError),
    /// Anything else — bad input files, workload validation (exit 1).
    Other(String),
    /// Chaos oracles found invariant violations (exit code 2); the
    /// message carries the failing plans and their shrunk reproducers.
    Violations(String),
}

impl CliError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Sim(SimError::Io(_)) => 3,
            CliError::Sim(_) => 2,
            CliError::Other(_) => 1,
            CliError::Violations(_) => 2,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(e) => write!(f, "{e}"),
            CliError::Sim(e) => write!(f, "{e}"),
            CliError::Other(e) => write!(f, "{e}"),
            CliError::Violations(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<UsageError> for CliError {
    fn from(e: UsageError) -> Self {
        CliError::Usage(e)
    }
}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        CliError::Sim(e)
    }
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Other(e)
    }
}

impl Command {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Command, UsageError> {
        let Some(name) = argv.first() else {
            return Err(UsageError(USAGE.into()));
        };
        if name == "--help" || name == "-h" || name == "help" {
            return Err(UsageError(USAGE.into()));
        }
        let mut options = HashMap::new();
        let mut positional = Vec::new();
        let mut i = 1;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(key) = a.strip_prefix("--") {
                let Some(value) = argv.get(i + 1) else {
                    return Err(UsageError(format!("--{key} needs a value")));
                };
                if options.insert(key.to_string(), value.clone()).is_some() {
                    return Err(UsageError(format!("--{key} given twice")));
                }
                i += 2;
            } else {
                positional.push(a.clone());
                i += 1;
            }
        }
        Ok(Command { name: name.clone(), options, positional })
    }

    /// Typed option lookup with default.
    pub fn opt<T: FromStr>(&self, key: &str, default: T) -> Result<T, UsageError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| UsageError(format!("--{key}: cannot parse '{v}'"))),
        }
    }

    /// Required option lookup.
    pub fn required(&self, key: &str) -> Result<&str, UsageError> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| UsageError(format!("--{key} is required")))
    }

    /// Comma-separated list option (`--fracs 0.1,0.3`), `default` when
    /// absent; `what` names an element in the error message.
    fn list<T: FromStr>(&self, key: &str, what: &str, default: Vec<T>) -> Result<Vec<T>, CliError> {
        let Some(list) = self.options.get(key) else {
            return Ok(default);
        };
        list.split(',')
            .map(|t| t.trim().parse().map_err(|_| CliError::Other(format!("bad {what} '{t}'"))))
            .collect()
    }

    /// Rejects any option outside `accepted` (space-separated groups): a
    /// typo must not silently run the defaults.
    fn reject_unknown(&self, accepted: &[&str]) -> Result<(), UsageError> {
        let accepted: Vec<&str> = accepted.iter().flat_map(|g| g.split_whitespace()).collect();
        let mut unknown: Vec<&str> =
            self.options.keys().map(String::as_str).filter(|k| !accepted.contains(k)).collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort_unstable();
        let hint = match accepted.as_slice() {
            [] => "it takes no options".to_string(),
            flags => format!("accepted: --{}", flags.join(" --")),
        };
        Err(UsageError(format!(
            "unknown option --{} for '{}' ({hint})",
            unknown.join(", --"),
            self.name
        )))
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
webcache — reproduction of 'Exploiting Client Caches' (ICPP'03)

USAGE:
  webcache gen   --out FILE [--model prowgen|ucb] [--requests N]
                 [--objects N] [--alpha F] [--one-timers F] [--stack F]
                 [--clients N] [--seed N]
  webcache stats FILE...
  webcache run   --scheme nc|nc-ec|sc|sc-ec|fc|fc-ec|hier-gd
                 [--cache-frac F] [--clients N] [--ts-tc F] [--ts-tl F]
                 [--clock compat|event]
                 [--stats-out FILE]  (write the stats snapshot as JSON)
                 FILE...            (one trace file per proxy)
  webcache explain [--scheme S] [--cache-frac F] [--clients N]
                 [--clock compat|event]
                 [--stats-out FILE] [--events-out FILE] [--events N]
                 FILE...            (per-tier breakdown + P2P counters;
                                     scheme defaults to hier-gd)
  webcache sweep [--schemes a,b,c] [--fracs f1,f2,...] FILE...
  webcache throughput [--schemes a,b,c] [--cache-frac F] [--requests N]
                 [--objects N] [--clients N] [--proxies N] [--repeats N]
                 [--threads N] [--clock compat|event] [--out FILE] [FILE...]
                 (no FILEs: times the default figure-2 synthetic workload;
                  --threads N sizes the work-stealing pool — repeats run
                  in parallel and the report adds req/s-per-core)
  webcache churn [--plan SPEC] [--crashes N] [--loss F] [--seed N]
                 [--requests N] [--objects N] [--clients N]
                 [--proxy-cap N] [--node-cap N] [--replication K]
                 [--trace-seed N] [--clock compat|event]
                 [--audit-rate F] [--strikes K] [--report-out FILE]
                 (fault drill over a synthetic Hier-GD run; SPEC is
                  crash@N,depart@N,rejoin@N,slow@N,partition@N{A|B},
                  heal@N,freeride@N,forge@N:RATE,garble@N:RATE,
                  domainfail@N:D,burst@N:K,loss=F,mloss=F,dup=F,
                  reorder=F,corrupt=F,window=N,seed=N,domains=D,
                  repair=N tokens. partition@N{A|B} cuts the
                  overlay before request N with A% of the machines on
                  the proxy side (A+B must be 100); heal@N merges the
                  islands back with the anti-entropy sweep. freeride/
                  forge/garble turn one honest machine hostile before
                  request N — forge fakes store receipts at RATE per
                  opportunity, garble serves corrupted payloads; arm
                  the audit defense with --audit-rate F [--strikes K].
                  domains=D carves each cluster into D correlated
                  failure domains (racks/switches); domainfail@N:D then
                  crashes every machine in domain D before request N,
                  and burst@N:K crashes K seeded machines at once.
                  repair=N arms the proactive repair scheduler: each
                  round the proxy scans up to N directory entries and
                  re-replicates any under the replication floor.
                  Without --plan, --crashes N spreads N silent crashes
                  evenly through the run)
  webcache chaos [--plans N] [--seed N] [--requests N] [--objects N]
                 [--clients N] [--proxy-cap N] [--node-cap N]
                 [--replication K] [--max-events N] [--sabotage true]
                 [--partition-prob F] [--adversary-prob F] [--audit-rate F]
                 [--flash-prob F] [--burst-prob F]
                 [--clock compat|event] [--json true]
                 [--report-out FILE] [--repro-out FILE]
                 (random seeded fault plans + invariant oracles; failing
                  plans are shrunk to minimal reproducer specs, written
                  to --repro-out one per line; exits 2 on violations.
                  --partition-prob F schedules a partition/heal pair in
                  that fraction of plans [default 0.5]; --adversary-prob F
                  turns machines hostile (free-riders, receipt forgers,
                  payload garblers) in that fraction of plans [default
                  0.25], audited at --audit-rate F [default 0.3];
                  --flash-prob F injects a flash-crowd spike (and, half
                  the time, the overload defenses) in that fraction of
                  plans [default 0.25]; --burst-prob F injects a
                  correlated failure — a domain kill or simultaneous
                  burst, half the time with proactive repair armed — in
                  that fraction of plans [default 0.25], audited by the
                  ninth (no-silent-loss ledger) oracle; --json true
                  prints the machine-readable report instead of the
                  table)
  webcache adversary [--fracs f1,f2,...] [--audit-rates r1,r2,...]
                 [--forge-rate F] [--strikes K] [--seed N] [--requests N]
                 [--objects N] [--clients N] [--proxy-cap N] [--node-cap N]
                 [--replication K] [--trace-seed N] [--clock compat|event]
                 [--json true] [--report-out FILE] [--csv-out FILE]
                 (attacker fraction x audit rate sweep: receipt forgers
                  poison the store-receipt directory, the spot-check
                  defense challenges receipt senders and quarantines
                  repeat offenders; every cell replays the same trace
                  and attack schedule, so undefended and defended rows
                  differ only in the defense)
  webcache overload [--intensities t1,t2,...] [--spike-at N]
                 [--spike-span N] [--breaker K] [--budget F]
                 [--shed-high N] [--shed-low N] [--seed N] [--requests N]
                 [--objects N] [--clients N] [--proxy-cap N] [--node-cap N]
                 [--replication K] [--trace-seed N] [--clock compat|event]
                 [--json true] [--report-out FILE] [--csv-out FILE]
                 (flash-crowd intensity x defense sweep: each intensity
                  compresses the arrival schedule by that factor for
                  --spike-span requests starting at --spike-at, once with
                  the defenses off and once with circuit breakers, retry
                  budgets and watermark load shedding armed. The report
                  carries goodput, p99 latency, shed fractions and the
                  recovery time back to 95% of baseline goodput after the
                  spike ends. Defaults to --clock event with the latency
                  model scaled down 16x — the analytic clock has no queue
                  to overload)
  webcache durability [--bursts b1,b2,...] [--ks k1,k2,...]
                 [--burst-at N] [--repair N] [--seed N] [--requests N]
                 [--objects N] [--clients N] [--proxy-cap N] [--node-cap N]
                 [--trace-seed N] [--clock compat|event] [--json true]
                 [--report-out FILE] [--csv-out FILE]
                 (correlated burst size x replica k x placement x repair
                  sweep: the cluster is carved into clients/burst failure
                  domains and one whole domain crashes at --burst-at.
                  Each (burst, k) point runs blind/spread replica
                  placement crossed with reactive/proactive repair over
                  the same trace and failure schedule; the report carries
                  objects lost, the at-risk window area, the mean time to
                  repair, and the naive-vs-defended loss factor. Defaults
                  to --clock event so the --repair scan budget is priced
                  as real proxy work)

Traces are the binary format written by `webcache gen` (WCTRACE1).
--clock compat (default) prices latencies analytically at arrival and
keeps every golden output byte-identical; --clock event runs the
discrete-event scheduler, so busy proxies and slow nodes show up as
queuing delay.";

fn load_traces(paths: &[String]) -> Result<Vec<Trace>, CliError> {
    if paths.is_empty() {
        return Err(UsageError("no trace files given".into()).into());
    }
    paths
        .iter()
        .map(|p| {
            let f = File::open(p).map_err(|e| named_io(p, e))?;
            Trace::read_binary(&mut BufReader::new(f)).map_err(|e| named_io(p, e))
        })
        .collect()
}

/// Keeps the offending path in the message but stays a typed I/O error,
/// so the exit code distinguishes bad files (3) from bad flags (2).
fn named_io(path: &str, e: std::io::Error) -> CliError {
    CliError::Sim(SimError::Io(std::io::Error::new(e.kind(), format!("{path}: {e}"))))
}

// Flag groups shared between subcommands, space-separated like the
// per-subcommand lists in `dispatch`.
/// The latency ratios ([`net_from`]).
const NET_FLAGS: &str = "ts-tc ts-tl tp2p-tl";
/// `run` and `explain` ([`config_from`]).
const EXPERIMENT_FLAGS: &str = "cache-frac clients clock";
/// `churn` and the scenario sweeps ([`churn_base_from`]); `--replication`
/// and the ratio flags are listed per subcommand.
const CHURN_BASE_FLAGS: &str = "requests objects clients proxy-cap node-cap trace-seed clock";
/// The scenario sweeps' outputs ([`cmd_scenario`]).
const EMIT_FLAGS: &str = "json report-out csv-out";

type Handler = fn(&Command) -> Result<String, CliError>;

/// The whole dispatch table: each subcommand's accepted flags and its
/// handler. A scenario sweep is one row — its own flags, its config
/// reader and its terminal table.
fn dispatch(name: &str) -> Option<(&'static [&'static str], Handler)> {
    Some(match name {
        "gen" => (
            &["out model requests objects alpha one-timers stack clients seed fresh"],
            cmd_gen,
        ),
        "stats" => (&[], cmd_stats),
        "run" => (&["scheme stats-out", EXPERIMENT_FLAGS, NET_FLAGS], cmd_run),
        "explain" => {
            (&["scheme stats-out events-out events", EXPERIMENT_FLAGS, NET_FLAGS], cmd_explain)
        }
        "sweep" => (&["schemes fracs clients", NET_FLAGS], cmd_sweep),
        "throughput" => (
            &[
                "schemes cache-frac requests objects clients proxies repeats threads clock out",
                NET_FLAGS,
            ],
            cmd_throughput,
        ),
        "churn" => (
            &[
                "plan crashes loss seed replication audit-rate strikes report-out",
                CHURN_BASE_FLAGS,
                NET_FLAGS,
            ],
            cmd_churn,
        ),
        "chaos" => (
            &[
                "plans seed requests objects clients proxy-cap node-cap replication max-events \
                 sabotage partition-prob adversary-prob audit-rate flash-prob burst-prob clock \
                 json report-out repro-out",
                NET_FLAGS,
            ],
            cmd_chaos,
        ),
        "adversary" => (
            &[
                "fracs audit-rates forge-rate strikes seed replication",
                CHURN_BASE_FLAGS,
                NET_FLAGS,
                EMIT_FLAGS,
            ],
            |cmd| cmd_scenario(cmd, adversary_from, adversary::table),
        ),
        "overload" => (
            &[
                "intensities spike-at spike-span breaker budget shed-high shed-low seed replication",
                CHURN_BASE_FLAGS,
                EMIT_FLAGS,
            ],
            |cmd| cmd_scenario(cmd, overload_from, overload::table),
        ),
        // No --replication: k is a swept axis here (--ks).
        "durability" => {
            (&["bursts ks burst-at repair seed", CHURN_BASE_FLAGS, EMIT_FLAGS], |cmd| {
                cmd_scenario(cmd, durability_from, durability::table)
            })
        }
        _ => return None,
    })
}

/// Executes a parsed command, returning the text to print. A flag the
/// subcommand does not declare is a usage error before any work starts.
pub fn execute(cmd: &Command) -> Result<String, CliError> {
    let Some((flags, run)) = dispatch(&cmd.name) else {
        return Err(UsageError(format!("unknown subcommand '{}'\n\n{USAGE}", cmd.name)).into());
    };
    cmd.reject_unknown(flags)?;
    run(cmd)
}

fn cmd_gen(cmd: &Command) -> Result<String, CliError> {
    let out = cmd.required("out")?.to_string();
    let model = cmd.opt("model", "prowgen".to_string())?;
    let trace = match model.as_str() {
        "prowgen" => {
            let cfg = ProWGenConfig {
                requests: cmd.opt("requests", 250_000)?,
                distinct_objects: cmd.opt("objects", 10_000)?,
                zipf_alpha: cmd.opt("alpha", 0.7)?,
                one_time_fraction: cmd.opt("one-timers", 0.5)?,
                stack_fraction: cmd.opt("stack", 0.2)?,
                num_clients: cmd.opt("clients", 100)?,
                seed: cmd.opt("seed", 0x5EED_2003)?,
                ..ProWGenConfig::default()
            };
            cfg.validate().map_err(|e| format!("invalid workload: {e}"))?;
            ProWGen::new(cfg).generate()
        }
        "ucb" => {
            let cfg = UcbLikeConfig {
                requests: cmd.opt("requests", 500_000)?,
                core_objects: cmd.opt("objects", 8_000)?,
                fresh_objects_per_day: cmd.opt("fresh", 6_000)?,
                num_clients: cmd.opt("clients", 100)?,
                seed: cmd.opt("seed", 0x0CB_1997)?,
                ..UcbLikeConfig::default()
            };
            cfg.validate().map_err(|e| format!("invalid workload: {e}"))?;
            UcbLike::new(cfg).generate()
        }
        other => {
            return Err(CliError::Usage(UsageError(format!(
                "unknown model '{other}' (prowgen|ucb)"
            ))))
        }
    };
    let f = File::create(&out).map_err(|e| named_io(&out, e))?;
    let mut w = BufWriter::new(f);
    trace.write_binary(&mut w).map_err(|e| named_io(&out, e))?;
    Ok(format!(
        "wrote {out}: {} requests, {} distinct objects",
        trace.len(),
        trace.stats().distinct_objects
    ))
}

fn cmd_stats(cmd: &Command) -> Result<String, CliError> {
    let traces = load_traces(&cmd.positional)?;
    let mut out = String::new();
    for (path, t) in cmd.positional.iter().zip(&traces) {
        let s = t.stats();
        let _ = writeln!(out, "{path}:");
        let _ = writeln!(out, "  requests:            {}", s.requests);
        let _ = writeln!(out, "  distinct objects:    {}", s.distinct_objects);
        let _ = writeln!(out, "  infinite cache (U):  {}", s.infinite_cache_size);
        let _ = writeln!(out, "  one-timer fraction:  {:.1}%", s.one_timer_fraction() * 100.0);
        let _ = writeln!(
            out,
            "  est. Zipf alpha:     {}",
            s.zipf_alpha_estimate().map(|a| format!("{a:.2}")).unwrap_or_else(|| "n/a".into())
        );
        let _ = writeln!(out, "  mean reuse distance: {:.0}", TraceStats::mean_reuse_distance(t));
        let _ = writeln!(out, "  clients:             {}", t.num_clients);
    }
    Ok(out)
}

/// Parses the shared `--clock compat|event` flag (default `compat`).
/// Every simulating subcommand (`run`, `explain`, `churn`, `chaos`,
/// `throughput`) accepts it through this one helper so the grammar and
/// the error message never drift apart.
fn clock_from(cmd: &Command) -> Result<ClockMode, CliError> {
    match cmd.options.get("clock") {
        None => Ok(ClockMode::default()),
        Some(v) => v.parse().map_err(|e| CliError::Usage(UsageError(format!("--clock: {e}")))),
    }
}

fn net_from(cmd: &Command) -> Result<NetworkModel, CliError> {
    let ts_tc = cmd.opt("ts-tc", 10.0)?;
    let ts_tl = cmd.opt("ts-tl", 20.0)?;
    let tp2p_tl = cmd.opt("tp2p-tl", 1.4)?;
    let net = NetworkModel::from_ratios(ts_tc, ts_tl, tp2p_tl);
    net.validate()?;
    Ok(net)
}

/// Builds the experiment config shared by `run` and `explain` from the
/// command line (proxy count = trace count).
fn config_from(
    cmd: &Command,
    scheme: SchemeKind,
    traces: &[Trace],
) -> Result<ExperimentConfig, CliError> {
    let mut cfg = ExperimentConfig::new(scheme, cmd.opt("cache-frac", 0.2)?);
    cfg.num_proxies = traces.len();
    cfg.clients_per_cluster = cmd.opt("clients", 100)?;
    cfg.net = net_from(cmd)?;
    cfg.clock = clock_from(cmd)?;
    cfg.validate()?;
    Ok(cfg)
}

fn cmd_run(cmd: &Command) -> Result<String, CliError> {
    let scheme: SchemeKind = cmd.required("scheme")?.parse()?;
    let traces = load_traces(&cmd.positional)?;
    let cfg = config_from(cmd, scheme, &traces)?;
    let stats_out = cmd.options.get("stats-out").cloned();
    let recorder = Arc::new(StatsRecorder::new());
    let metrics = if stats_out.is_some() {
        run_experiment_recorded(&cfg, &traces, recorder.clone())?
    } else {
        run_experiment(&cfg, &traces)?
    };
    let nc = if scheme == SchemeKind::Nc {
        metrics.clone()
    } else {
        run_experiment(&cfg.at(SchemeKind::Nc, cfg.cache_frac), &traces)?
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} over {} proxies, cache {:.0}% of U:",
        scheme.label(),
        traces.len(),
        cfg.cache_frac * 100.0
    );
    let _ = writeln!(out, "  avg latency:  {:.3}", metrics.avg_latency());
    let _ = writeln!(out, "  hit ratio:    {:.1}%", metrics.hit_ratio() * 100.0);
    let _ = writeln!(out, "  latency gain: {:+.1}% vs NC", latency_gain_percent(&nc, &metrics));
    for class in HitClass::ALL {
        let _ = writeln!(out, "  {:<12} {:>7.2}%", class.label(), metrics.fraction(class) * 100.0);
    }
    if let Some(path) = stats_out {
        std::fs::write(&path, recorder.snapshot().to_json())
            .map_err(|e| CliError::Sim(SimError::Io(e)))?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(out)
}

/// Runs one scheme with the full observability stack attached and prints
/// where every request was served from, the P2P protocol counters, and
/// the overlay hop histograms — the diagnostics behind the paper's
/// scalability (claim 11), connection-overhead (claim 12), and staleness
/// (claim 13) arguments.
fn cmd_explain(cmd: &Command) -> Result<String, CliError> {
    let scheme: SchemeKind = cmd.options.get("scheme").map_or("hier-gd", String::as_str).parse()?;
    let traces = load_traces(&cmd.positional)?;
    let cfg = config_from(cmd, scheme, &traces)?;
    let stats = Arc::new(StatsRecorder::new());
    let events = Arc::new(EventLogRecorder::new(cmd.opt("events", 10_000usize)?));
    let events_out = cmd.options.get("events-out").cloned();
    let metrics = if events_out.is_some() {
        run_experiment_recorded(&cfg, &traces, (stats.clone(), events.clone()))?
    } else {
        run_experiment_recorded(&cfg, &traces, stats.clone())?
    };
    let snap = stats.snapshot();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} over {} proxies, cache {:.0}% of U, {} clients/cluster\n",
        scheme.label(),
        traces.len(),
        cfg.cache_frac * 100.0,
        cfg.clients_per_cluster
    );
    out.push_str(&snap.to_table());
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "claim 11 (O(log N) routing): {} routed lookups, hop p99 <= {}",
        snap.lookups,
        snap.lookup_hops.quantile(0.99)
    );
    let _ = writeln!(
        out,
        "claim 12 (piggybacking): {} destages opened {} dedicated connections \
         ({} piggybacked); new connections = {} (pushes) + {} (direct destages)",
        snap.destages,
        snap.direct_destage_connections,
        snap.piggybacked_destages,
        snap.pushes,
        snap.direct_destage_connections
    );
    let _ = writeln!(
        out,
        "claim 13 (directory accuracy): {} of {} lookups stale ({:.2}%)",
        snap.stale_lookups,
        snap.lookups,
        snap.stale_lookup_rate() * 100.0
    );
    let _ = writeln!(
        out,
        "durability: {} objects permanently lost (every loss ledgered), \
         {} proactive repairs restored {} copies",
        snap.objects_lost_permanent, snap.proactive_repairs, snap.proactive_repair_copies
    );
    let _ = writeln!(
        out,
        "simulated avg latency {:.3} over {} requests",
        metrics.avg_latency(),
        metrics.requests
    );
    if let Some(path) = cmd.options.get("stats-out") {
        std::fs::write(path, snap.to_json()).map_err(|e| CliError::Sim(SimError::Io(e)))?;
        let _ = writeln!(out, "wrote {path}");
    }
    if let Some(path) = events_out {
        events.write_csv(std::path::Path::new(&path))?;
        let _ =
            writeln!(out, "wrote {path} ({} events, {} dropped)", events.len(), events.dropped());
    }
    Ok(out)
}

fn cmd_sweep(cmd: &Command) -> Result<String, CliError> {
    let traces = load_traces(&cmd.positional)?;
    let schemes: Vec<SchemeKind> = cmd
        .opt("schemes", "sc,fc,sc-ec,fc-ec,hier-gd".to_string())?
        .split(',')
        .map(|t| t.parse())
        .collect::<Result<_, SimError>>()?;
    let fracs: Vec<f64> = cmd.list("fracs", "fraction", vec![0.1, 0.3, 0.5, 0.7, 0.9])?;
    let mut base = ExperimentConfig::new(SchemeKind::Nc, fracs[0]);
    base.num_proxies = traces.len();
    base.clients_per_cluster = cmd.opt("clients", 100)?;
    base.net = net_from(cmd)?;
    let results = sweep(&schemes, &fracs, &traces, &base)?;
    let mut out = String::new();
    let _ = write!(out, "{:>10}", "cache(%)");
    for s in &schemes {
        let _ = write!(out, "{:>10}", s.label());
    }
    let _ = writeln!(out);
    for &frac in &fracs {
        let _ = write!(out, "{:>10.0}", frac * 100.0);
        for &s in &schemes {
            let gain = gain_curve(&results, s)
                .iter()
                .find(|(f, _)| (f - frac).abs() < 1e-9)
                .map(|&(_, g)| g);
            match gain {
                Some(g) => {
                    let _ = write!(out, "{g:>10.1}");
                }
                None => {
                    let _ = write!(out, "{:>10}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    Ok(out)
}

/// Times `run_experiment` per scheme and writes `BENCH_throughput.json`.
///
/// With no positional trace files, the default figure-2 synthetic workload
/// is generated in-process (ProWGen §5.1 defaults, one statistically
/// identical trace per proxy, same seed derivation as the bench harness).
fn cmd_throughput(cmd: &Command) -> Result<String, CliError> {
    let schemes: Vec<SchemeKind> = cmd
        .opt("schemes", "nc,sc,fc,nc-ec,sc-ec,fc-ec,hier-gd".to_string())?
        .split(',')
        .map(|t| t.parse())
        .collect::<Result<_, SimError>>()?;
    let cache_frac = cmd.opt("cache-frac", 0.1)?;
    let repeats = cmd.opt("repeats", 3usize)?;
    let out_path = cmd.opt("out", "BENCH_throughput.json".to_string())?;
    let clients = cmd.opt("clients", 100usize)?;
    if let Some(t) = cmd.options.get("threads") {
        let n: usize =
            t.parse().ok().filter(|&n| n >= 1).ok_or(format!("bad --threads '{t}' (want >= 1)"))?;
        // The pool reads this once at first use; `throughput` is the first
        // rayon touch on this path, so the override always lands.
        std::env::set_var("WEBCACHE_THREADS", n.to_string());
    }

    let traces = if cmd.positional.is_empty() {
        let num_proxies = cmd.opt("proxies", 2usize)?;
        let requests = cmd.opt("requests", 250_000usize)?;
        let objects = cmd.opt("objects", 10_000usize)?;
        (0..num_proxies)
            .map(|p| {
                let mut cfg = ProWGenConfig {
                    requests,
                    distinct_objects: objects,
                    num_clients: clients as u32,
                    ..ProWGenConfig::default()
                };
                cfg.seed =
                    webcache_primitives::seed::derive_indexed(cfg.seed, "proxy-trace", p as u64);
                cfg.validate().map_err(|e| format!("invalid workload: {e}"))?;
                Ok(ProWGen::new(cfg).generate())
            })
            .collect::<Result<Vec<_>, String>>()?
    } else {
        load_traces(&cmd.positional)?
    };

    let mut base = ExperimentConfig::new(SchemeKind::Nc, cache_frac);
    base.num_proxies = traces.len();
    base.clients_per_cluster = clients;
    base.net = net_from(cmd)?;
    base.clock = clock_from(cmd)?;
    base.validate()?;

    let report = measure_throughput(&schemes, &base, &traces, repeats)?;
    std::fs::write(&out_path, report.to_json()).map_err(|e| named_io(&out_path, e))?;
    let mut out = report.to_table();
    let _ = writeln!(out, "wrote {out_path}");
    Ok(out)
}

/// Reads the flags `churn` and the scenario sweeps share over `base`
/// (the subcommand's own defaults). The latency model and the clock are
/// replaced only when their flags are given: `overload` and `durability`
/// default to the event clock on a scaled-down model.
fn churn_base_from(cmd: &Command, base: ChurnConfig) -> Result<ChurnConfig, CliError> {
    let ratios_given = NET_FLAGS.split_whitespace().any(|flag| cmd.options.contains_key(flag));
    Ok(ChurnConfig {
        requests: cmd.opt("requests", base.requests)?,
        distinct_objects: cmd.opt("objects", base.distinct_objects)?,
        clients_per_cluster: cmd.opt("clients", base.clients_per_cluster)?,
        proxy_capacity: cmd.opt("proxy-cap", base.proxy_capacity)?,
        client_cache_capacity: cmd.opt("node-cap", base.client_cache_capacity)?,
        replication: cmd.opt("replication", base.replication)?,
        trace_seed: cmd.opt("trace-seed", base.trace_seed)?,
        net: if ratios_given { net_from(cmd)? } else { base.net },
        clock: if cmd.options.contains_key("clock") { clock_from(cmd)? } else { base.clock },
        ..base
    })
}

/// Runs a deterministic fault drill (`webcache churn`): a synthetic
/// Hier-GD run under a [`FaultPlan`], reported against its fault-free
/// twin. The plan comes from `--plan SPEC` (the `crash@N,...` grammar) or
/// from convenience flags: `--crashes N` spreads N silent crashes evenly
/// through the run, `--loss F` adds message loss, `--seed N` seeds target
/// selection and the loss stream.
fn cmd_churn(cmd: &Command) -> Result<String, CliError> {
    let base = churn_base_from(cmd, ChurnConfig::default())?;
    let mut cfg = ChurnConfig {
        audit_rate: cmd.opt("audit-rate", base.audit_rate)?,
        audit_strikes: cmd.opt("strikes", base.audit_strikes)?,
        ..base
    };
    cfg.plan = match cmd.options.get("plan") {
        Some(spec) => spec.parse()?,
        None => {
            let crashes: usize = cmd.opt("crashes", 10usize)?;
            let mut plan = FaultPlan::none();
            if crashes > 0 {
                let step = (cfg.requests / (crashes + 1)).max(1) as u64;
                for c in 1..=crashes as u64 {
                    plan.push(step * c, FaultAction::Crash);
                }
            }
            plan.loss = cmd.opt("loss", 0.0)?;
            plan.seed = cmd.opt("seed", 0x5EED_2003u64)?;
            plan
        }
    };
    let report = run_churn(&cfg)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "churn drill: {} requests, {} client machines, replication k={}\nplan: {}\n",
        cfg.requests,
        cfg.clients_per_cluster,
        cfg.replication,
        if report.plan_spec.is_empty() { "(none)" } else { &report.plan_spec }
    );
    out.push_str(&report.to_table());
    if let Some(path) = cmd.options.get("report-out") {
        std::fs::write(path, report.to_json()).map_err(|e| named_io(path, e))?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(out)
}

/// Runs the seeded chaos explorer (`webcache chaos`): random fault
/// plans, invariant oracles after each, and automatic shrinking of any
/// failing plan to a minimal replayable spec. All oracles green exits 0;
/// violations print the shrunk reproducers and exit 2. `--sabotage true`
/// plants a known directory violation (self-test of the oracles and the
/// shrinker).
fn cmd_chaos(cmd: &Command) -> Result<String, CliError> {
    let defaults = ChaosConfig::default();
    let cfg = ChaosConfig {
        plans: cmd.opt("plans", defaults.plans)?,
        seed: cmd.opt("seed", defaults.seed)?,
        requests: cmd.opt("requests", defaults.requests)?,
        distinct_objects: cmd.opt("objects", defaults.distinct_objects)?,
        clients_per_cluster: cmd.opt("clients", defaults.clients_per_cluster)?,
        proxy_capacity: cmd.opt("proxy-cap", defaults.proxy_capacity)?,
        client_cache_capacity: cmd.opt("node-cap", defaults.client_cache_capacity)?,
        replication: cmd.opt("replication", defaults.replication)?,
        max_events: cmd.opt("max-events", defaults.max_events)?,
        partition_prob: cmd.opt("partition-prob", defaults.partition_prob)?,
        adversary_prob: cmd.opt("adversary-prob", defaults.adversary_prob)?,
        audit_rate: cmd.opt("audit-rate", defaults.audit_rate)?,
        flash_prob: cmd.opt("flash-prob", defaults.flash_prob)?,
        burst_prob: cmd.opt("burst-prob", defaults.burst_prob)?,
        net: net_from(cmd)?,
        clock: clock_from(cmd)?,
        sabotage: cmd.opt("sabotage", false)?,
        ..defaults
    };
    let json = cmd.opt("json", false)?;
    let report = run_chaos(&cfg)?;
    let mut out = String::new();
    if json {
        out.push_str(&report.to_json());
    } else {
        let _ = writeln!(
            out,
            "chaos exploration: {} plans, seed {}, {} requests each\n",
            report.plans, report.seed, cfg.requests
        );
        out.push_str(&report.to_table());
    }
    if let Some(path) = cmd.options.get("report-out") {
        std::fs::write(path, report.to_json()).map_err(|e| named_io(path, e))?;
        // In --json mode stdout is the report document itself; the
        // "wrote" breadcrumbs would make it unparseable.
        if !json {
            let _ = writeln!(out, "wrote {path}");
        }
    }
    if let Some(path) = cmd.options.get("repro-out") {
        if !report.all_green() {
            let specs: String =
                report.failures.iter().map(|f| format!("{}\n", f.shrunk_spec)).collect();
            std::fs::write(path, specs).map_err(|e| named_io(path, e))?;
            if !json {
                let _ = writeln!(out, "wrote {path}");
            }
        }
    }
    if report.all_green() {
        Ok(out)
    } else {
        Err(CliError::Violations(out))
    }
}

/// Runs one scenario sweep (`webcache adversary|overload|durability`):
/// `run` reads the scenario's flags over its committed-figure defaults
/// and drives the sweep, `table` renders the terminal summary. `--json
/// true` prints the JSON report instead; `--report-out` / `--csv-out`
/// write the `FIGURE_*.json` / `FIGURE_*.csv` artifacts.
fn cmd_scenario(
    cmd: &Command,
    run: fn(&Command) -> Result<ScenarioReport, CliError>,
    table: fn(&ScenarioReport) -> String,
) -> Result<String, CliError> {
    let json = cmd.opt("json", false)?;
    let report = run(cmd)?;
    let mut out = if json { report.to_json() } else { table(&report) };
    for flag in ["report-out", "csv-out"] {
        if let Some(path) = cmd.options.get(flag) {
            let body = if flag == "csv-out" { report.to_csv() } else { report.to_json() };
            std::fs::write(path, body).map_err(|e| named_io(path, e))?;
            // In --json mode stdout is the report document itself.
            if !json {
                let _ = writeln!(out, "wrote {path}");
            }
        }
    }
    Ok(out)
}

/// `webcache adversary`: attacker fraction × audit rate over the same
/// trace and attack schedule, so the report isolates what the spot-check
/// receipt-audit defense buys.
fn adversary_from(cmd: &Command) -> Result<ScenarioReport, CliError> {
    let d = AdversaryConfig::default();
    Ok(run_adversary(&AdversaryConfig {
        base: churn_base_from(cmd, d.base)?,
        attacker_fracs: cmd.list("fracs", "fraction", d.attacker_fracs)?,
        audit_rates: cmd.list("audit-rates", "audit rate", d.audit_rates)?,
        forge_rate: cmd.opt("forge-rate", d.forge_rate)?,
        strikes: cmd.opt("strikes", d.strikes)?,
        seed: cmd.opt("seed", d.seed)?,
    })?)
}

/// `webcache overload`: flash-crowd intensity × defense config over the
/// same trace and spike. Unlike the other subcommands the default clock
/// is `event` (the analytic clock has no queue to overload) with the
/// latency model pre-scaled for service headroom; `--clock compat` still
/// works and stays bit-stable.
fn overload_from(cmd: &Command) -> Result<ScenarioReport, CliError> {
    let d = OverloadConfig::default();
    Ok(run_overload(&OverloadConfig {
        base: churn_base_from(cmd, d.base)?,
        intensities: cmd.list("intensities", "intensity", d.intensities)?,
        spike_at: cmd.opt("spike-at", d.spike_at)?,
        spike_span: cmd.opt("spike-span", d.spike_span)?,
        breaker: cmd.opt("breaker", d.breaker)?,
        budget: cmd.opt("budget", d.budget)?,
        shed_high: cmd.opt("shed-high", d.shed_high)?,
        shed_low: cmd.opt("shed-low", d.shed_low)?,
        seed: cmd.opt("seed", d.seed)?,
    })?)
}

/// `webcache durability`: correlated burst size × replica k × placement
/// × repair pace over the same trace and failure schedule. Like
/// `overload`, the default clock is `event` so the repair scan budget is
/// priced as real proxy work.
fn durability_from(cmd: &Command) -> Result<ScenarioReport, CliError> {
    let d = DurabilityConfig::default();
    Ok(run_durability(&DurabilityConfig {
        base: churn_base_from(cmd, d.base)?,
        bursts: cmd.list("bursts", "burst", d.bursts)?,
        ks: cmd.list("ks", "replication", d.ks)?,
        burst_at: cmd.opt("burst-at", d.burst_at)?,
        repair: cmd.opt("repair", d.repair)?,
        seed: cmd.opt("seed", d.seed)?,
    })?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_basic() {
        let c = Command::parse(&argv(&["run", "--scheme", "sc", "a.bin", "b.bin"])).unwrap();
        assert_eq!(c.name, "run");
        assert_eq!(c.options["scheme"], "sc");
        assert_eq!(c.positional, vec!["a.bin", "b.bin"]);
    }

    #[test]
    fn parse_rejects_missing_value_and_duplicates() {
        assert!(Command::parse(&argv(&["run", "--scheme"])).is_err());
        assert!(Command::parse(&argv(&["run", "--x", "1", "--x", "2"])).is_err());
        assert!(Command::parse(&argv(&[])).is_err());
        assert!(Command::parse(&argv(&["--help"])).is_err());
    }

    #[test]
    fn typed_options() {
        let c = Command::parse(&argv(&["gen", "--requests", "123", "--alpha", "0.9"])).unwrap();
        assert_eq!(c.opt("requests", 0usize).unwrap(), 123);
        assert!((c.opt("alpha", 0.0f64).unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(c.opt("missing", 7u32).unwrap(), 7);
        assert!(c.opt::<usize>("alpha", 0).is_err());
        assert!(c.required("out").is_err());
    }

    #[test]
    fn scheme_names_parse_via_core_fromstr() {
        assert_eq!("hier-gd".parse::<SchemeKind>().unwrap(), SchemeKind::HierGd);
        assert_eq!("FC-EC".parse::<SchemeKind>().unwrap(), SchemeKind::FcEc);
        assert_eq!("nc".parse::<SchemeKind>().unwrap(), SchemeKind::Nc);
        assert!("lru".parse::<SchemeKind>().is_err());
    }

    #[test]
    fn clock_flag_parses_and_rejects() {
        let c = Command::parse(&argv(&["run", "--clock", "event"])).unwrap();
        assert_eq!(clock_from(&c).unwrap(), ClockMode::Event);
        let c = Command::parse(&argv(&["run", "--clock", "compat"])).unwrap();
        assert_eq!(clock_from(&c).unwrap(), ClockMode::Compat);
        let c = Command::parse(&argv(&["run"])).unwrap();
        assert_eq!(clock_from(&c).unwrap(), ClockMode::Compat);
        let c = Command::parse(&argv(&["run", "--clock", "warp"])).unwrap();
        let err = clock_from(&c).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("unknown clock mode 'warp'"), "{err}");
    }

    #[test]
    fn churn_accepts_clock_flag_in_both_modes() {
        for mode in ["compat", "event"] {
            let cmd = Command::parse(&argv(&[
                "churn",
                "--requests",
                "800",
                "--objects",
                "120",
                "--clients",
                "12",
                "--crashes",
                "2",
                "--clock",
                mode,
            ]))
            .unwrap();
            let out = execute(&cmd).unwrap();
            assert!(out.contains("churn drill: 800 requests"), "--clock {mode}: {out}");
        }
    }

    #[test]
    fn exit_codes_by_error_kind() {
        assert_eq!(CliError::Usage(UsageError("x".into())).exit_code(), 2);
        assert_eq!(CliError::Sim(SimError::InvalidConfig("x".into())).exit_code(), 2);
        assert_eq!(CliError::Sim(SimError::UnknownScheme("x".into())).exit_code(), 2);
        assert_eq!(CliError::Sim(std::io::Error::other("x").into()).exit_code(), 3);
        assert_eq!(CliError::Other("x".into()).exit_code(), 1);
        assert_eq!(CliError::Violations("x".into()).exit_code(), 2);
    }

    #[test]
    fn gen_stats_run_roundtrip() {
        let dir = std::env::temp_dir().join("webcache-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.bin");
        let path_s = path.to_str().unwrap().to_string();
        // gen (tiny workload)
        let gen = Command::parse(&argv(&[
            "gen",
            "--out",
            &path_s,
            "--requests",
            "9000",
            "--objects",
            "600",
            "--clients",
            "10",
        ]))
        .unwrap();
        let msg = execute(&gen).unwrap();
        assert!(msg.contains("9000 requests"), "{msg}");
        // stats
        let stats = Command::parse(&argv(&["stats", &path_s])).unwrap();
        let out = execute(&stats).unwrap();
        assert!(out.contains("requests:            9000"), "{out}");
        assert!(out.contains("distinct objects:    600"), "{out}");
        // run SC over two proxies (same file twice is fine for a smoke test)
        let run = Command::parse(&argv(&[
            "run",
            "--scheme",
            "sc",
            "--cache-frac",
            "0.3",
            "--clients",
            "10",
            &path_s,
            &path_s,
        ]))
        .unwrap();
        let out = execute(&run).unwrap();
        assert!(out.contains("latency gain"), "{out}");
        // sweep two schemes, two sizes
        let sw = Command::parse(&argv(&[
            "sweep",
            "--schemes",
            "sc,fc",
            "--fracs",
            "0.2,0.6",
            "--clients",
            "10",
            &path_s,
            &path_s,
        ]))
        .unwrap();
        let out = execute(&sw).unwrap();
        assert!(out.contains("SC") && out.contains("FC"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn churn_smoke_with_plan_and_report_out() {
        let dir = std::env::temp_dir().join("webcache-cli-churn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("churn.json");
        let report_s = report_path.to_str().unwrap().to_string();
        let cmd = Command::parse(&argv(&[
            "churn",
            "--plan",
            "crash@500,depart@900,rejoin@1200,loss=0.002,seed=9",
            "--requests",
            "4000",
            "--objects",
            "600",
            "--clients",
            "16",
            "--replication",
            "2",
            "--report-out",
            &report_s,
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("availability"), "{out}");
        assert!(out.contains("100.00%"), "{out}");
        assert!(out.contains("crash@500"), "{out}");
        let json = std::fs::read_to_string(&report_path).unwrap();
        assert!(json.contains("\"availability_percent\""), "{json}");
        assert!(json.contains("\"invariant_violations\": 0"), "{json}");
        std::fs::remove_file(&report_path).ok();
    }

    #[test]
    fn churn_flags_build_an_even_crash_plan() {
        let cmd = Command::parse(&argv(&[
            "churn",
            "--crashes",
            "3",
            "--requests",
            "4000",
            "--objects",
            "500",
            "--clients",
            "12",
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        // 3 crashes spread at 1000/2000/3000.
        assert!(out.contains("crash@1000,crash@2000,crash@3000"), "{out}");
        assert!(out.contains("100.00%"), "{out}");
    }

    #[test]
    fn churn_rejects_bad_plans() {
        let bad = Command::parse(&argv(&["churn", "--plan", "explode@7"])).unwrap();
        match execute(&bad) {
            Err(CliError::Sim(SimError::InvalidConfig(msg))) => {
                assert!(msg.contains("explode"), "{msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn chaos_smoke_is_all_green_and_writes_report() {
        let dir = std::env::temp_dir().join("webcache-cli-chaos-test");
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("chaos.json");
        let report_s = report_path.to_str().unwrap().to_string();
        let cmd = Command::parse(&argv(&[
            "chaos",
            "--plans",
            "8",
            "--seed",
            "42",
            "--requests",
            "600",
            "--objects",
            "120",
            "--clients",
            "12",
            "--report-out",
            &report_s,
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("passed"), "{out}");
        assert!(!out.contains("FAILED"), "{out}");
        let json = std::fs::read_to_string(&report_path).unwrap();
        assert!(json.contains("\"passed\": 8"), "{json}");
        std::fs::remove_file(&report_path).ok();
    }

    #[test]
    fn chaos_json_flag_emits_the_machine_readable_report() {
        let dir = std::env::temp_dir().join("webcache-cli-chaos-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("chaos.json");
        let cmd = Command::parse(&argv(&[
            "chaos",
            "--plans",
            "4",
            "--seed",
            "42",
            "--requests",
            "600",
            "--objects",
            "120",
            "--clients",
            "12",
            "--partition-prob",
            "1.0",
            "--json",
            "true",
            "--report-out",
            report_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.trim_start().starts_with('{'), "{out}");
        assert!(out.trim_end().ends_with('}'), "stray text after the document: {out}");
        assert!(out.contains("\"plans\": 4"), "{out}");
        assert!(out.contains("\"passed\": 4"), "{out}");
        assert!(!out.contains("chaos exploration:"), "{out}");
        assert!(!out.contains("wrote"), "breadcrumbs corrupt --json stdout: {out}");
        assert_eq!(out, std::fs::read_to_string(&report_path).unwrap());
        std::fs::remove_file(&report_path).ok();
    }

    #[test]
    fn chaos_flash_prob_forces_flash_crowds_and_stays_green() {
        let cmd = Command::parse(&argv(&[
            "chaos",
            "--plans",
            "3",
            "--seed",
            "9",
            "--requests",
            "600",
            "--objects",
            "120",
            "--clients",
            "12",
            "--flash-prob",
            "1.0",
            "--json",
            "true",
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("\"passed\": 3"), "{out}");

        // The flag is really plumbed through: an out-of-range value hits
        // ChaosConfig::validate, not a silent default.
        let bad = Command::parse(&argv(&["chaos", "--plans", "1", "--flash-prob", "2.0"])).unwrap();
        let err = execute(&bad).unwrap_err();
        assert!(format!("{err}").contains("flash_prob"), "{err}");
    }

    #[test]
    fn chaos_burst_prob_forces_correlated_failures_and_stays_green() {
        let cmd = Command::parse(&argv(&[
            "chaos",
            "--plans",
            "3",
            "--seed",
            "9",
            "--requests",
            "600",
            "--objects",
            "120",
            "--clients",
            "12",
            "--burst-prob",
            "1.0",
            "--json",
            "true",
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("\"passed\": 3"), "{out}");

        let bad = Command::parse(&argv(&["chaos", "--plans", "1", "--burst-prob", "2.0"])).unwrap();
        let err = execute(&bad).unwrap_err();
        assert!(format!("{err}").contains("burst_prob"), "{err}");
    }

    #[test]
    fn churn_runs_a_partition_plan_and_reports_reconciliation() {
        let cmd = Command::parse(&argv(&[
            "churn",
            "--plan",
            "partition@800{60|40},heal@2400,seed=11",
            "--requests",
            "4000",
            "--objects",
            "600",
            "--clients",
            "16",
            "--replication",
            "2",
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("partition@800{60|40}"), "{out}");
        assert!(out.contains("partitions"), "{out}");
        assert!(out.contains("100.00%"), "{out}");
    }

    #[test]
    fn chaos_sabotage_exits_with_violations_and_writes_repros() {
        let dir = std::env::temp_dir().join("webcache-cli-chaos-sabotage-test");
        std::fs::create_dir_all(&dir).unwrap();
        let repro_path = dir.join("repros.txt");
        let repro_s = repro_path.to_str().unwrap().to_string();
        let cmd = Command::parse(&argv(&[
            "chaos",
            "--plans",
            "8",
            "--seed",
            "42",
            "--requests",
            "600",
            "--objects",
            "120",
            "--clients",
            "12",
            "--sabotage",
            "true",
            "--repro-out",
            &repro_s,
        ]))
        .unwrap();
        match execute(&cmd) {
            Err(e @ CliError::Violations(_)) => {
                assert_eq!(e.exit_code(), 2);
                assert!(e.to_string().contains("FAILED"), "{e}");
                assert!(e.to_string().contains("shrunk"), "{e}");
            }
            other => panic!("expected Violations, got {other:?}"),
        }
        // Every written reproducer is a replayable one-crash plan.
        let repros = std::fs::read_to_string(&repro_path).unwrap();
        assert!(!repros.trim().is_empty());
        for line in repros.lines() {
            let plan: FaultPlan = line.parse().expect("repro spec parses");
            assert_eq!(plan.count(FaultAction::Crash), 1, "{line}");
        }
        std::fs::remove_file(&repro_path).ok();
    }

    #[test]
    fn adversary_sweep_reports_defense_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("webcache-cli-adversary-test");
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("adversary.json");
        let csv_path = dir.join("adversary.csv");
        let cmd = Command::parse(&argv(&[
            "adversary",
            "--requests",
            "6000",
            "--objects",
            "400",
            "--clients",
            "20",
            "--node-cap",
            "2",
            "--fracs",
            "0.2",
            "--audit-rates",
            "0,1.0",
            "--forge-rate",
            "1.0",
            "--strikes",
            "2",
            "--report-out",
            report_path.to_str().unwrap(),
            "--csv-out",
            csv_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("adversary sweep:"), "{out}");
        assert!(out.contains("defense at 20% forgers"), "{out}");
        let json = std::fs::read_to_string(&report_path).unwrap();
        assert!(json.contains("\"defense\": ["), "{json}");
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("attacker_frac,audit_rate,"), "{csv}");
        assert_eq!(csv.lines().count(), 3, "header + two cells: {csv}");
        std::fs::remove_file(&report_path).ok();
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn overload_sweep_reports_resilience_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("webcache-cli-overload-test");
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("overload.json");
        let csv_path = dir.join("overload.csv");
        let cmd = Command::parse(&argv(&[
            "overload",
            "--requests",
            "8000",
            "--objects",
            "400",
            "--clients",
            "20",
            "--node-cap",
            "2",
            "--intensities",
            "8",
            "--spike-at",
            "1000",
            "--spike-span",
            "3000",
            "--report-out",
            report_path.to_str().unwrap(),
            "--csv-out",
            csv_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("overload sweep:"), "{out}");
        assert!(out.contains("resilience at"), "{out}");
        let json = std::fs::read_to_string(&report_path).unwrap();
        assert!(json.contains("\"resilience\": ["), "{json}");
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("intensity,defended,"), "{csv}");
        assert_eq!(csv.lines().count(), 3, "header + naive + defended: {csv}");
        std::fs::remove_file(&report_path).ok();
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn durability_sweep_reports_losses_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("webcache-cli-durability-test");
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("durability.json");
        let csv_path = dir.join("durability.csv");
        let cmd = Command::parse(&argv(&[
            "durability",
            "--requests",
            "8000",
            "--objects",
            "400",
            "--clients",
            "32",
            "--bursts",
            "8",
            "--ks",
            "2",
            "--burst-at",
            "2000",
            "--report-out",
            report_path.to_str().unwrap(),
            "--csv-out",
            csv_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("durability sweep:"), "{out}");
        assert!(out.contains("durability at burst"), "{out}");
        let json = std::fs::read_to_string(&report_path).unwrap();
        assert!(json.contains("\"rows\": ["), "{json}");
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("burst,replication,"), "{csv}");
        assert_eq!(csv.lines().count(), 5, "header + four placement/repair cells: {csv}");
        std::fs::remove_file(&report_path).ok();
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn durability_rejects_bad_grids() {
        let bad = Command::parse(&argv(&["durability", "--bursts", "nope"])).unwrap();
        assert_eq!(execute(&bad).unwrap_err().exit_code(), 1);
        let bad = Command::parse(&argv(&["durability", "--bursts", "1"])).unwrap();
        assert_eq!(execute(&bad).unwrap_err().exit_code(), 2);
        let bad = Command::parse(&argv(&["durability", "--ks", "1"])).unwrap();
        assert_eq!(execute(&bad).unwrap_err().exit_code(), 2);
    }

    #[test]
    fn unknown_flags_are_usage_errors_naming_the_flag() {
        for (args, flag) in [
            // A typo must not silently run the default ten crashes.
            (&["churn", "--crahes", "3", "--requests", "4000"][..], "--crahes"),
            (&["overload", "--intensites", "8"][..], "--intensites"),
            // overload runs on its own pre-scaled latency model.
            (&["overload", "--ts-tc", "5"][..], "--ts-tc"),
            // k is a swept axis (--ks) in the durability sweep.
            (&["durability", "--replication", "3"][..], "--replication"),
            (&["stats", "--verbose", "1", "t.bin"][..], "--verbose"),
        ] {
            let err = execute(&Command::parse(&argv(args)).unwrap()).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err:?}");
            assert_eq!(err.exit_code(), 2, "{args:?}");
            let msg = err.to_string();
            assert!(msg.contains(&format!("unknown option {flag} for '{}'", args[0])), "{msg}");
        }
        // Several typos are all named, in a stable order.
        let cmd = Command::parse(&argv(&["adversary", "--zeta", "1", "--alpha", "2"])).unwrap();
        let msg = execute(&cmd).unwrap_err().to_string();
        assert!(msg.contains("unknown option --alpha, --zeta for 'adversary'"), "{msg}");
        assert!(msg.contains("--fracs") && msg.contains("--csv-out"), "{msg}");
    }

    #[test]
    fn every_documented_flag_is_accepted() {
        // One USAGE block per subcommand; prose inside a block only ever
        // mentions that subcommand's own flags.
        for block in USAGE.split("\n  webcache ").skip(1) {
            let name = block.split_whitespace().next().unwrap();
            let (flags, _) = dispatch(name).unwrap_or_else(|| panic!("no dispatch row: {name}"));
            let options = block
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter_map(|word| word.strip_prefix("--"))
                .filter(|flag| !flag.is_empty())
                .map(|flag| (flag.to_string(), String::new()))
                .collect();
            let cmd = Command { name: name.to_string(), options, positional: Vec::new() };
            assert_eq!(cmd.reject_unknown(flags), Ok(()), "USAGE documents a rejected flag");
        }
    }

    #[test]
    fn overload_rejects_bad_grids() {
        let bad = Command::parse(&argv(&["overload", "--intensities", "nope"])).unwrap();
        assert_eq!(execute(&bad).unwrap_err().exit_code(), 1);
        let bad = Command::parse(&argv(&["overload", "--intensities", "1"])).unwrap();
        assert_eq!(execute(&bad).unwrap_err().exit_code(), 2);
    }

    #[test]
    fn adversary_rejects_bad_grids() {
        let bad = Command::parse(&argv(&["adversary", "--fracs", "nope"])).unwrap();
        assert_eq!(execute(&bad).unwrap_err().exit_code(), 1);
        let bad = Command::parse(&argv(&["adversary", "--fracs", "1.0"])).unwrap();
        assert_eq!(execute(&bad).unwrap_err().exit_code(), 2);
    }

    #[test]
    fn run_rejects_missing_files_and_schemes() {
        let run = Command::parse(&argv(&["run", "--scheme", "sc"])).unwrap();
        assert!(execute(&run).is_err());
        let bad = Command::parse(&argv(&["run", "--scheme", "bogus", "x.bin"])).unwrap();
        match execute(&bad) {
            Err(CliError::Sim(SimError::UnknownScheme(name))) => assert_eq!(name, "bogus"),
            other => panic!("expected UnknownScheme, got {other:?}"),
        }
        let unknown = Command::parse(&argv(&["frobnicate"])).unwrap();
        assert!(execute(&unknown).unwrap_err().to_string().contains("unknown subcommand"));
    }

    #[test]
    fn explain_and_stats_out_roundtrip() {
        let dir = std::env::temp_dir().join("webcache-cli-explain-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.bin");
        let trace_s = trace_path.to_str().unwrap().to_string();
        let gen = Command::parse(&argv(&[
            "gen",
            "--out",
            &trace_s,
            "--requests",
            "9000",
            "--objects",
            "600",
            "--clients",
            "10",
        ]))
        .unwrap();
        execute(&gen).unwrap();

        let stats_path = dir.join("stats.json");
        let events_path = dir.join("events.csv");
        let ex = Command::parse(&argv(&[
            "explain",
            "--clients",
            "10",
            "--cache-frac",
            "0.2",
            "--stats-out",
            stats_path.to_str().unwrap(),
            "--events-out",
            events_path.to_str().unwrap(),
            &trace_s,
            &trace_s,
        ]))
        .unwrap();
        let out = execute(&ex).unwrap();
        assert!(out.contains("claim 11"), "{out}");
        assert!(out.contains("claim 12"), "{out}");
        assert!(out.contains("claim 13"), "{out}");
        assert!(out.contains("hit class"), "{out}");
        let json = std::fs::read_to_string(&stats_path).unwrap();
        assert!(json.contains("\"destages\""), "{json}");
        let csv = std::fs::read_to_string(&events_path).unwrap();
        assert!(csv.starts_with("seq,proxy,kind"), "{csv}");

        // `run --stats-out` writes the same snapshot document.
        let run_stats = dir.join("run-stats.json");
        let run = Command::parse(&argv(&[
            "run",
            "--scheme",
            "hier-gd",
            "--clients",
            "10",
            "--stats-out",
            run_stats.to_str().unwrap(),
            &trace_s,
            &trace_s,
        ]))
        .unwrap();
        let out = execute(&run).unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(std::fs::read_to_string(&run_stats).unwrap().contains("total_requests"));
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn gen_rejects_invalid_workload() {
        let gen = Command::parse(&argv(&[
            "gen",
            "--out",
            "/tmp/x.bin",
            "--requests",
            "10",
            "--objects",
            "600",
        ]))
        .unwrap();
        assert!(execute(&gen).unwrap_err().to_string().contains("invalid workload"));
    }
}
