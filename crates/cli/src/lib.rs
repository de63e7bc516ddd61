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
//! * `figure` — regenerate one committed output: one of the paper's
//!   figures (§5, Figs. 2–5) — its panels, and a JSON report and CSV of
//!   every series × cache size — or one claim drill, ablation or
//!   scenario sweep (attacker fraction × audit rate, flash-crowd
//!   intensity × defense, correlated burst × replica `k` × placement ×
//!   repair), checked against its gate;
//! * `churn` — drive Hier-GD through a deterministic fault plan (silent
//!   crashes, departures, rejoins, slow nodes, network partitions with
//!   their heals, message loss) and report detection latency, stale
//!   directory hits, re-replications, reconciliation counts and the
//!   latency delta vs a fault-free twin run;
//! * `chaos` — generate hundreds of random seeded fault plans (churn plus
//!   message-level loss/duplication/reordering/corruption and
//!   partition/heal pairs), audit each end state with invariant oracles,
//!   and shrink any failing plan to a minimal replayable reproducer spec
//!   (exit 2 on violations; `--json true` for a machine-readable report).
//!
//! Flags are `--key value` pairs; parsing is hand-rolled (the workspace
//! deliberately keeps its dependency set small — see DESIGN.md). Each
//! subcommand is one row of the `COMMANDS` table — its flags, its help
//! and its handler — so the help text lists exactly the flags the parser
//! accepts, and any other flag is a usage error before any work starts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::str::FromStr;
use std::sync::Arc;
use webcache_sim::figures::{self, run_figure, Report, Scale, FIGURES};
use webcache_sim::sweep::{gain_table, sweep};
use webcache_sim::{
    latency_gain_percent, run_chaos, run_churn, run_experiment, run_experiment_recorded,
    ChaosConfig, ChurnConfig, ClockMode, EventLogRecorder, ExperimentConfig, FaultPlan, HitClass,
    NetworkModel, SchemeKind, SimError, StatsRecorder,
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
            return Err(UsageError(usage()));
        };
        if name == "--help" || name == "-h" || name == "help" {
            return Err(UsageError(usage()));
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
        self.options.get(key).map_or(Ok(default), |v| parse_value(key, v))
    }

    /// Required option lookup.
    pub fn required(&self, key: &str) -> Result<&str, UsageError> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| UsageError(format!("--{key} is required")))
    }

    /// Comma-separated list option (`--fracs 0.1,0.3`), `default` when
    /// absent.
    fn list<T: FromStr>(&self, key: &str, default: Vec<T>) -> Result<Vec<T>, UsageError> {
        let Some(list) = self.options.get(key) else {
            return Ok(default);
        };
        list.split(',').map(|element| parse_value(key, element.trim())).collect()
    }

    /// Rejects any option `spec` does not list: a typo must not silently
    /// run the defaults.
    fn reject_unknown(&self, spec: &CommandSpec) -> Result<(), UsageError> {
        let accepted: Vec<&str> = spec.flags().map(|(flag, _)| flag).collect();
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

/// Parses one value of `--key` — a scalar or a list element. A value that
/// does not parse is a usage error naming the flag, whichever shape it has.
fn parse_value<T: FromStr>(key: &str, value: &str) -> Result<T, UsageError> {
    value.parse().map_err(|_| UsageError(format!("--{key}: cannot parse '{value}'")))
}

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

type Handler = fn(&Command) -> Result<String, CliError>;

/// One subcommand: all that [`execute`], `reject_unknown` and [`usage`]
/// know about it.
struct CommandSpec {
    name: &'static str,
    /// The accepted flags as space-separated `flag=PLACEHOLDER` words, one
    /// line per group of flags read together; a `!` after the placeholder
    /// marks the flag required.
    flags: &'static str,
    /// Synopsis of the positional arguments, empty when it takes none.
    positional: &'static str,
    /// Help prose, printed in parentheses under the generated synopsis.
    prose: &'static str,
    run: Handler,
}

/// Every subcommand, in help order. A flag exists for a subcommand when
/// it is a word of that row's `flags` — the synopsis in `webcache --help`
/// and the check in `reject_unknown` are both generated from here — and
/// the handler's typed `cmd.opt(..)` calls read it.
const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "gen",
        flags: "out=FILE! model=prowgen|ucb requests=N objects=N alpha=F one-timers=F \
                stack=F clients=N seed=N fresh=N",
        positional: "",
        prose: "--alpha, --one-timers and --stack shape the prowgen model;\n\
                --fresh N is the ucb model's fresh objects per day",
        run: cmd_gen,
    },
    CommandSpec { name: "stats", flags: "", positional: "FILE...", prose: "", run: cmd_stats },
    CommandSpec {
        name: "run",
        flags: "scheme=nc|nc-ec|sc|sc-ec|fc|fc-ec|hier-gd! stats-out=FILE \
                cache-frac=F clients=N clock=compat|event \
                ts-tc=F ts-tl=F tp2p-tl=F",
        positional: "FILE...",
        prose: "one trace file per proxy; --stats-out FILE writes the stats\n\
                snapshot as JSON",
        run: cmd_run,
    },
    CommandSpec {
        name: "explain",
        flags: "scheme=S stats-out=FILE events-out=FILE events=N \
                cache-frac=F clients=N clock=compat|event \
                ts-tc=F ts-tl=F tp2p-tl=F",
        positional: "FILE...",
        prose: "per-tier breakdown + P2P counters; scheme defaults to\n\
                hier-gd",
        run: cmd_explain,
    },
    CommandSpec {
        name: "sweep",
        flags: "schemes=a,b,c fracs=f1,f2,... clients=N \
                ts-tc=F ts-tl=F tp2p-tl=F",
        positional: "FILE...",
        prose: "",
        run: cmd_sweep,
    },
    CommandSpec {
        name: "figure",
        flags: "full=true stats-out=FILE report-out=FILE csv-out=FILE list=true",
        positional: "NAME",
        prose: "the paper's figures (fig*) report one cell per series x\n\
                cache size, 250k requests per proxy unless --full true;\n\
                --stats-out FILE writes the stats snapshot of every\n\
                run. Every other NAME runs at a scale of its own (the\n\
                paper's with --full true where it has one) and fails\n\
                unless its gate holds; a churn drill writes no\n\
                --csv-out. --list true prints each NAME and its\n\
                committed files. NAME is one of {names}",
        run: cmd_figure,
    },
    CommandSpec {
        name: "churn",
        flags: "plan=SPEC crashes=N loss=F seed=N replication=K audit-rate=F strikes=K \
                report-out=FILE \
                requests=N objects=N clients=N proxy-cap=N node-cap=N trace-seed=N \
                clock=compat|event \
                ts-tc=F ts-tl=F tp2p-tl=F",
        positional: "",
        prose: "fault drill over a synthetic Hier-GD run; SPEC is\n\
                crash@N,depart@N,rejoin@N,slow@N,partition@N{A|B},\n\
                heal@N,freeride@N,forge@N:RATE,garble@N:RATE,\n\
                domainfail@N:D,burst@N:K,loss=F,mloss=F,dup=F,\n\
                reorder=F,corrupt=F,window=N,seed=N,domains=D,\n\
                repair=N tokens. partition@N{A|B} cuts the\n\
                overlay before request N with A% of the machines on\n\
                the proxy side (A+B must be 100); heal@N merges the\n\
                islands back with the anti-entropy sweep. freeride/\n\
                forge/garble turn one honest machine hostile before\n\
                request N — forge fakes store receipts at RATE per\n\
                opportunity, garble serves corrupted payloads; arm\n\
                the audit defense with --audit-rate F (and --strikes K).\n\
                domains=D carves each cluster into D correlated\n\
                failure domains (racks/switches); domainfail@N:D then\n\
                crashes every machine in domain D before request N,\n\
                and burst@N:K crashes K seeded machines at once.\n\
                repair=N arms the proactive repair scheduler: each\n\
                round the proxy scans up to N directory entries and\n\
                re-replicates any under the replication floor.\n\
                Without --plan, --crashes N spreads N silent crashes\n\
                evenly through the run",
        run: cmd_churn,
    },
    CommandSpec {
        name: "chaos",
        flags: "plans=N seed=N requests=N objects=N clients=N proxy-cap=N node-cap=N \
                replication=K max-events=N sabotage=true partition-prob=F adversary-prob=F \
                audit-rate=F flash-prob=F burst-prob=F clock=compat|event json=true \
                report-out=FILE repro-out=FILE \
                ts-tc=F ts-tl=F tp2p-tl=F",
        positional: "",
        prose: "random seeded fault plans + invariant oracles; failing\n\
                plans are shrunk to minimal reproducer specs, written\n\
                to --repro-out one per line; exits 2 on violations.\n\
                --partition-prob F schedules a partition/heal pair in\n\
                that fraction of plans [default 0.5]; --adversary-prob F\n\
                turns machines hostile (free-riders, receipt forgers,\n\
                payload garblers) in that fraction of plans [default\n\
                0.25], audited at --audit-rate F [default 0.3];\n\
                --flash-prob F injects a flash-crowd spike (and, half\n\
                the time, the overload defenses) in that fraction of\n\
                plans [default 0.25]; --burst-prob F injects a\n\
                correlated failure — a domain kill or simultaneous\n\
                burst, half the time with proactive repair armed — in\n\
                that fraction of plans [default 0.25], audited by the\n\
                ninth (no-silent-loss ledger) oracle; --json true\n\
                prints the machine-readable report instead of the\n\
                table",
        run: cmd_chaos,
    },
];

impl CommandSpec {
    /// `(flag, placeholder)` of every accepted flag, in table order.
    fn flags(&self) -> impl Iterator<Item = (&'static str, &'static str)> {
        self.flags
            .split_whitespace()
            .map(|word| word.split_once('=').expect("COMMANDS flags are flag=PLACEHOLDER words"))
    }

    /// The help prose. A trailing `{names}` is spelled out as every name
    /// of `webcache figure`, and the whole prose rewrapped.
    fn prose(&self) -> String {
        let Some(text) = self.prose.strip_suffix("{names}") else { return self.prose.into() };
        let names = figure_names();
        let words = text.split_whitespace().chain(names.split(' ')).map(String::from);
        wrap(String::new(), words, 56, "")
    }

    /// Appends `  webcache NAME --flag VALUE ... FILE...` (optional flags in
    /// brackets), wrapped at 78 columns with continuation lines aligned
    /// under the first flag.
    fn synopsis(&self, out: &mut String) {
        let flags = self.flags().map(|(flag, placeholder)| {
            let required = placeholder.strip_suffix('!');
            let shown = format!("--{flag} {}", required.unwrap_or(placeholder));
            if required.is_some() {
                shown
            } else {
                format!("[{shown}]")
            }
        });
        let positional = (!self.positional.is_empty()).then(|| self.positional.to_string());
        let name = format!("{:<16}", format!("  webcache {}", self.name));
        let _ = writeln!(out, "{}", wrap(name, flags.chain(positional), 78, &" ".repeat(16)));
    }
}

/// Every name of `webcache figure`, comma-separated.
fn figure_names() -> String {
    FIGURES.iter().map(|e| e.name).collect::<Vec<_>>().join(", ")
}

/// `line` followed by `words`, one space apart, broken before any word
/// that would end past column `width`; a continuation line starts with
/// `indent` (no space after an empty one).
fn wrap(
    mut line: String,
    words: impl Iterator<Item = String>,
    width: usize,
    indent: &str,
) -> String {
    let mut out = String::new();
    for word in words {
        if line.len() + 1 + word.len() > width {
            let _ = writeln!(out, "{line}");
            line = indent.to_string();
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(&word);
    }
    out + &line
}

/// The `webcache --help` text: each subcommand's synopsis, generated from
/// its `COMMANDS` row, above that row's prose.
pub fn usage() -> String {
    let mut s =
        String::from("webcache — reproduction of 'Exploiting Client Caches' (ICPP'03)\n\nUSAGE:\n");
    for spec in COMMANDS {
        spec.synopsis(&mut s);
        if !spec.prose.is_empty() {
            let _ =
                writeln!(s, "{:17}({})", "", spec.prose().replace('\n', "\n                  "));
        }
    }
    s.push_str(
        "
Traces are the binary format written by `webcache gen` (WCTRACE1).
--clock compat (default) prices latencies analytically at arrival and
keeps every golden output byte-identical; --clock event runs the
discrete-event scheduler, so busy proxies and slow nodes show up as
queuing delay.",
    );
    s
}

/// Executes a parsed command, returning the text to print. A flag the
/// subcommand does not declare, or a positional argument given to one
/// that takes none, is a usage error before any work starts.
pub fn execute(cmd: &Command) -> Result<String, CliError> {
    let Some(spec) = COMMANDS.iter().find(|spec| spec.name == cmd.name) else {
        return Err(UsageError(format!("unknown subcommand '{}'\n\n{}", cmd.name, usage())).into());
    };
    cmd.reject_unknown(spec)?;
    if let (true, Some(arg)) = (spec.positional.is_empty(), cmd.positional.first()) {
        let unexpected = format!("unexpected argument '{arg}' for '{}'", spec.name);
        return Err(UsageError(format!("{unexpected} (it takes no positional arguments)")).into());
    }
    (spec.run)(cmd)
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

/// Parses the shared `--clock compat|event` flag, `base` when absent.
/// Every simulating subcommand accepts it through this one helper so the
/// grammar and the error message never drift apart.
fn clock_from(cmd: &Command, base: ClockMode) -> Result<ClockMode, CliError> {
    match cmd.options.get("clock") {
        None => Ok(base),
        Some(v) => v.parse().map_err(|e| CliError::Usage(UsageError(format!("--clock: {e}")))),
    }
}

/// A latency ratio as [`NetworkModel::from_ratios`] takes it: positive and
/// finite. Anything else fails to parse, so `--ts-tc 0` is a usage error
/// naming the flag rather than the library's assert.
struct Ratio(f64);

impl FromStr for Ratio {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        s.parse().ok().filter(|r: &f64| r.is_finite() && *r > 0.0).map(Ratio).ok_or(())
    }
}

/// Builds the latency model from the three ratio flags (a missing one
/// takes the paper's default), `base` when none is given.
fn net_from(cmd: &Command, base: NetworkModel) -> Result<NetworkModel, CliError> {
    let ratios = [("ts-tc", 10.0), ("ts-tl", 20.0), ("tp2p-tl", 1.4)];
    if !ratios.iter().any(|(flag, _)| cmd.options.contains_key(*flag)) {
        return Ok(base);
    }
    let [ts_tc, ts_tl, tp2p_tl] = ratios.map(|(flag, default)| cmd.opt(flag, Ratio(default)));
    let net = NetworkModel::from_ratios(ts_tc?.0, ts_tl?.0, tp2p_tl?.0);
    net.validate()?;
    Ok(net)
}

/// Builds the experiment config shared by `run` and `explain` from the
/// command line, then loads its traces, one per proxy: a malformed flag
/// is named before any file is read.
fn config_from(
    cmd: &Command,
    scheme: SchemeKind,
) -> Result<(ExperimentConfig, Vec<Trace>), CliError> {
    let mut cfg = ExperimentConfig::new(scheme, cmd.opt("cache-frac", 0.2)?);
    cfg.clients_per_cluster = cmd.opt("clients", 100)?;
    cfg.net = net_from(cmd, cfg.net)?;
    cfg.clock = clock_from(cmd, cfg.clock)?;
    let traces = load_traces(&cmd.positional)?;
    cfg.num_proxies = traces.len();
    cfg.validate()?;
    Ok((cfg, traces))
}

fn cmd_run(cmd: &Command) -> Result<String, CliError> {
    let scheme: SchemeKind = cmd.required("scheme")?.parse()?;
    let (cfg, traces) = config_from(cmd, scheme)?;
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
    let capacity = cmd.opt("events", 10_000usize)?;
    let (cfg, traces) = config_from(cmd, scheme)?;
    let stats = Arc::new(StatsRecorder::new());
    let events = Arc::new(EventLogRecorder::new(capacity));
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
    let schemes: Vec<SchemeKind> = cmd
        .opt("schemes", "sc,fc,sc-ec,fc-ec,hier-gd".to_string())?
        .split(',')
        .map(|t| t.parse())
        .collect::<Result<_, SimError>>()?;
    let fracs: Vec<f64> = cmd.list("fracs", vec![0.1, 0.3, 0.5, 0.7, 0.9])?;
    let mut base = ExperimentConfig::new(SchemeKind::Nc, fracs[0]);
    base.clients_per_cluster = cmd.opt("clients", 100)?;
    base.net = net_from(cmd, base.net)?;
    let traces = load_traces(&cmd.positional)?;
    base.num_proxies = traces.len();
    let results = sweep(&schemes, &fracs, &traces, &base)?;
    let curves: Vec<(&str, Vec<f64>)> = results
        .chunks(fracs.len())
        .map(|c| (c[0].scheme.label(), c.iter().map(|r| r.gain_percent).collect()))
        .collect();
    Ok(gain_table(&fracs, &curves))
}

/// `webcache figure NAME`: one row of [`FIGURES`] — every series of one
/// of the paper's figures, or a drill, scenario sweep or smoke config, an
/// error unless it passes its gate. `--stats-out` attaches a stats
/// recorder to every run of a paper figure and writes the snapshot; a row
/// takes no flag it cannot honour. `--report-out` / `--csv-out` write the
/// row's committed `.json` / `.csv`; `--list true` prints every row's
/// name and committed files instead.
fn cmd_figure(cmd: &Command) -> Result<String, CliError> {
    if cmd.opt("list", false)? {
        if let Some(arg) = cmd.positional.first() {
            return Err(UsageError(format!("figure --list true takes no NAME, got '{arg}'")).into());
        }
        let files = |e: &figures::Entry| format!("{} {}\n", e.name, e.files().join(" "));
        return Ok(FIGURES.iter().map(files).collect());
    }
    let usage = || UsageError(format!("figure takes one NAME of {}", figure_names()));
    let [name] = cmd.positional.as_slice() else { return Err(usage().into()) };
    let entry = figures::entry(name).ok_or_else(usage)?;
    let paper = figures::figure(name);
    let honours =
        [("stats-out", paper.is_some()), ("full", entry.has_full), ("csv-out", entry.has_csv())];
    for (flag, honoured) in honours {
        if cmd.options.contains_key(flag) && !honoured {
            return Err(UsageError(format!("figure {name} takes no --{flag}")).into());
        }
    }
    let full = cmd.opt("full", false)?;
    let report = match (&paper, cmd.options.get("stats-out")) {
        (Some(fig), Some(path)) => {
            let stats = Arc::new(StatsRecorder::new());
            let report = run_figure(fig, Scale::new(full), stats.clone())?;
            std::fs::write(path, stats.snapshot().to_json()).map_err(|e| named_io(path, e))?;
            Report::Cells(report)
        }
        _ => entry.report(full)?,
    };
    entry.check(&report).map_err(|e| format!("figure {name} fails its gate: {e}"))?;
    let mut out = match (&paper, &report) {
        (Some(fig), Report::Cells(cells)) => figures::table(fig, cells),
        (None, Report::Cells(cells)) => cells.to_table(),
        (_, Report::Churn(drill)) => drill.to_table(),
    };
    for (flag, body) in [("report-out", Some(report.to_json())), ("csv-out", report.to_csv())] {
        if let (Some(path), Some(body)) = (cmd.options.get(flag), body) {
            std::fs::write(path, body).map_err(|e| named_io(path, e))?;
            let _ = writeln!(out, "wrote {path}");
        }
    }
    Ok(out)
}

/// Runs a deterministic fault drill (`webcache churn`): a synthetic
/// Hier-GD run under a [`FaultPlan`], reported against its fault-free
/// twin. The plan comes from `--plan SPEC` (the `crash@N,...` grammar) or
/// from convenience flags: `--crashes N` spreads N silent crashes evenly
/// through the run, `--loss F` adds message loss, `--seed N` seeds target
/// selection and the loss stream.
fn cmd_churn(cmd: &Command) -> Result<String, CliError> {
    let base = ChurnConfig::default();
    let mut cfg = ChurnConfig {
        requests: cmd.opt("requests", base.requests)?,
        distinct_objects: cmd.opt("objects", base.distinct_objects)?,
        clients_per_cluster: cmd.opt("clients", base.clients_per_cluster)?,
        proxy_capacity: cmd.opt("proxy-cap", base.proxy_capacity)?,
        client_cache_capacity: cmd.opt("node-cap", base.client_cache_capacity)?,
        replication: cmd.opt("replication", base.replication)?,
        trace_seed: cmd.opt("trace-seed", base.trace_seed)?,
        net: net_from(cmd, base.net)?,
        clock: clock_from(cmd, base.clock)?,
        audit_rate: cmd.opt("audit-rate", base.audit_rate)?,
        audit_strikes: cmd.opt("strikes", base.audit_strikes)?,
        ..base
    };
    cfg.plan = match cmd.options.get("plan") {
        Some(spec) => spec.parse()?,
        None => {
            let mut plan = FaultPlan::spread_crashes(cmd.opt("crashes", 10)?, cfg.requests as u64);
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
        net: net_from(cmd, defaults.net)?,
        clock: clock_from(cmd, defaults.clock)?,
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

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_sim::FaultAction;

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
        assert_eq!(clock_from(&c, ClockMode::Compat).unwrap(), ClockMode::Event);
        let c = Command::parse(&argv(&["run", "--clock", "compat"])).unwrap();
        assert_eq!(clock_from(&c, ClockMode::Event).unwrap(), ClockMode::Compat);
        let c = Command::parse(&argv(&["run"])).unwrap();
        assert_eq!(clock_from(&c, ClockMode::Compat).unwrap(), ClockMode::Compat);
        assert_eq!(clock_from(&c, ClockMode::Event).unwrap(), ClockMode::Event);
        let c = Command::parse(&argv(&["run", "--clock", "warp"])).unwrap();
        let err = clock_from(&c, ClockMode::Compat).unwrap_err();
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
        // A malformed value is a usage error whichever helper reads it.
        let bad = Command::parse(&argv(&["chaos", "--plans", "x"])).unwrap();
        assert_eq!(execute(&bad).unwrap_err().exit_code(), 2);
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
    fn non_positive_ratios_are_usage_errors_naming_flag_and_value() {
        let dir = std::env::temp_dir().join("webcache-cli-ratio-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.bin");
        let trace = trace.to_str().unwrap();
        let gen = ["gen", "--out", trace, "--requests", "2000", "--objects", "200"];
        execute(&Command::parse(&argv(&gen)).unwrap()).unwrap();
        // Each reached `NetworkModel::from_ratios`'s assert: exit 101.
        // One case per subcommand that takes the ratio flags.
        for (args, flag, value) in [
            (&["run", "--scheme", "sc", trace][..], "ts-tc", "0"),
            (&["explain", trace][..], "ts-tl", "0"),
            (&["sweep", trace][..], "tp2p-tl", "0"),
            (&["churn"][..], "ts-tl", "-20"),
            (&["chaos"][..], "tp2p-tl", "NaN"),
        ] {
            let flag_arg = format!("--{flag}");
            let cmd = Command::parse(&argv(&[args, &[&flag_arg, value]].concat())).unwrap();
            let err = execute(&cmd).unwrap_err();
            assert_eq!(err.to_string(), format!("--{flag}: cannot parse '{value}'"), "{args:?}");
            assert_eq!(err.exit_code(), 2, "{args:?}");
        }
        std::fs::remove_file(trace).ok();
    }

    #[test]
    fn malformed_list_elements_and_scalars_are_the_same_usage_error() {
        let dir = std::env::temp_dir().join("webcache-cli-malformed-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.bin");
        let trace = trace.to_str().unwrap();
        let gen = ["gen", "--out", trace, "--requests", "2000", "--objects", "200"];
        execute(&Command::parse(&argv(&gen)).unwrap()).unwrap();
        // Both name the flag and the value, and exit 2.
        let list = ["sweep", "--fracs", "0.1,nope", trace];
        let list = execute(&Command::parse(&argv(&list)).unwrap()).unwrap_err();
        let scalar = execute(&Command::parse(&argv(&["churn", "--loss", "nope"])).unwrap());
        let scalar = scalar.unwrap_err();
        assert_eq!(list.to_string(), "--fracs: cannot parse 'nope'");
        assert_eq!(scalar.to_string(), "--loss: cannot parse 'nope'");
        assert_eq!((list.exit_code(), scalar.exit_code()), (2, 2));
        std::fs::remove_file(trace).ok();
    }

    /// A malformed flag is named before any trace is read, even when no
    /// trace is given.
    #[test]
    fn flags_are_parsed_before_the_traces_are_loaded() {
        for (args, flag) in [
            (&["sweep", "--fracs", "nope"][..], "--fracs"),
            (&["run", "--scheme", "sc", "--cache-frac", "nope"], "--cache-frac"),
            (&["explain", "--events", "nope", "missing.bin"], "--events"),
        ] {
            let err = execute(&Command::parse(&argv(args)).unwrap()).unwrap_err();
            assert_eq!(err.to_string(), format!("{flag}: cannot parse 'nope'"), "{args:?}");
            assert_eq!(err.exit_code(), 2, "{args:?}");
        }
    }

    #[test]
    fn unknown_flags_are_usage_errors_naming_the_flag() {
        for (args, flag) in [
            // A typo must not silently run the default ten crashes.
            (&["churn", "--crahes", "3", "--requests", "4000"][..], "--crahes"),
            // A committed figure runs its committed config: no knob of it is a flag.
            (&["figure", "overload", "--ts-tc", "5"][..], "--ts-tc"),
            (&["figure", "durability", "--replication", "3"][..], "--replication"),
            (&["stats", "--verbose", "1", "t.bin"][..], "--verbose"),
        ] {
            let err = execute(&Command::parse(&argv(args)).unwrap()).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err:?}");
            assert_eq!(err.exit_code(), 2, "{args:?}");
            let msg = err.to_string();
            assert!(msg.contains(&format!("unknown option {flag} for '{}'", args[0])), "{msg}");
        }
        // Several typos are all named, in a stable order.
        let cmd = Command::parse(&argv(&["churn", "--zeta", "1", "--alpha", "2"])).unwrap();
        let msg = execute(&cmd).unwrap_err().to_string();
        assert!(msg.contains("unknown option --alpha, --zeta for 'churn'"), "{msg}");
        assert!(msg.contains("--plan") && msg.contains("--report-out"), "{msg}");
    }

    #[test]
    fn help_documents_exactly_the_accepted_flags() {
        let flags_in = |text: &str| -> std::collections::BTreeSet<String> {
            text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter_map(|word| word.strip_prefix("--"))
                .filter(|flag| !flag.is_empty())
                .map(String::from)
                .collect()
        };
        let help = usage();
        let mut counts = Vec::new();
        for spec in COMMANDS {
            // What the parser accepts, read off its own rejection hint.
            let typo = HashMap::from([("no-such-flag".to_string(), String::new())]);
            let cmd = Command { name: spec.name.to_string(), options: typo, positional: vec![] };
            let hint = cmd.reject_unknown(spec).unwrap_err().0;
            let accepted = flags_in(hint.split_once("(accepted:").map_or("", |(_, list)| list));

            let mut synopsis = String::new();
            spec.synopsis(&mut synopsis);
            assert!(help.contains(&synopsis), "--help lacks the synopsis of '{}'", spec.name);
            assert!(synopsis.lines().all(|line| line.len() <= 78), "{synopsis}");
            assert_eq!(flags_in(&synopsis), accepted, "synopsis of '{}'", spec.name);

            // Prose only ever mentions the subcommand's own flags.
            assert!(help.contains(&spec.prose().replace('\n', "\n                  ")));
            let foreign: Vec<_> = flags_in(&spec.prose()).difference(&accepted).cloned().collect();
            assert!(foreign.is_empty(), "'{}' prose names foreign flags {foreign:?}", spec.name);
            counts.push((spec.name, accepted.len()));
        }
        println!("accepted flags per subcommand: {counts:?}");
        // The flag sets of the `dispatch` table this one replaced.
        let expected = [
            ("gen", 10),
            ("stats", 0),
            ("run", 8),
            ("explain", 10),
            ("sweep", 6),
            ("figure", 5),
            ("churn", 18),
            ("chaos", 22),
        ];
        assert_eq!(counts, expected);
    }

    #[test]
    fn figure_names_are_usage_errors_listing_every_name() {
        for args in [&["figure"][..], &["figure", "fig6"], &["figure", "fig2a", "fig3"]] {
            let err = execute(&Command::parse(&argv(args)).unwrap()).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{args:?}");
            assert_eq!(
                err.to_string(),
                "figure takes one NAME of fig2a, fig2b, fig3, fig4, fig5a, fig5b, fig5c, fig5d, \
                 pastry_hops, ablation_piggyback, ablation_directory, ablation_hiergd, \
                 ablation_lfu, ablation_gds, squirrel_compare, churn_drill, transport_tax, \
                 adversary, overload, durability, adversary_smoke, adversary_smoke_event, \
                 overload_smoke, overload_smoke_event, durability_smoke, durability_smoke_event, \
                 churn_plan, churn_crashes_event, churn_1000, churn_1000_event"
            );
        }
        // The help prose lists the same names, generated from the registry.
        let figure = COMMANDS.iter().find(|spec| spec.name == "figure").unwrap();
        let prose = figure.prose().split_whitespace().collect::<Vec<_>>().join(" ");
        let names = FIGURES.iter().map(|e| e.name).collect::<Vec<_>>().join(", ");
        assert!(prose.ends_with(&format!("NAME is one of {names}")), "{prose}");
    }

    #[test]
    fn figure_list_prints_every_name_and_its_file_stem() {
        let list = Command::parse(&argv(&["figure", "--list", "true"])).unwrap();
        let rows: Vec<String> = execute(&list).unwrap().lines().map(String::from).collect();
        assert_eq!(
            rows,
            [
                "fig2a FIGURE_paper_fig2a.json FIGURE_paper_fig2a.csv",
                "fig2b FIGURE_paper_fig2b.json FIGURE_paper_fig2b.csv",
                "fig3 FIGURE_paper_fig3.json FIGURE_paper_fig3.csv",
                "fig4 FIGURE_paper_fig4.json FIGURE_paper_fig4.csv",
                "fig5a FIGURE_paper_fig5a.json FIGURE_paper_fig5a.csv",
                "fig5b FIGURE_paper_fig5b.json FIGURE_paper_fig5b.csv",
                "fig5c FIGURE_paper_fig5c.json FIGURE_paper_fig5c.csv",
                "fig5d FIGURE_paper_fig5d.json FIGURE_paper_fig5d.csv",
                "pastry_hops FIGURE_pastry_hops.json FIGURE_pastry_hops.csv",
                "ablation_piggyback FIGURE_ablation_piggyback.json FIGURE_ablation_piggyback.csv",
                "ablation_directory FIGURE_ablation_directory.json FIGURE_ablation_directory.csv",
                "ablation_hiergd FIGURE_ablation_hiergd.json FIGURE_ablation_hiergd.csv",
                "ablation_lfu FIGURE_ablation_lfu.json FIGURE_ablation_lfu.csv",
                "ablation_gds FIGURE_ablation_gds.json FIGURE_ablation_gds.csv",
                "squirrel_compare FIGURE_squirrel_compare.json FIGURE_squirrel_compare.csv",
                "churn_drill FIGURE_churn_drill.json FIGURE_churn_drill.csv",
                "transport_tax FIGURE_transport_tax.json FIGURE_transport_tax.csv",
                "adversary FIGURE_adversary.json FIGURE_adversary.csv",
                "overload FIGURE_overload.json FIGURE_overload.csv",
                "durability FIGURE_durability.json FIGURE_durability.csv",
                "adversary_smoke tests/golden/adversary_report.json tests/golden/adversary_report.csv",
                "adversary_smoke_event tests/golden/adversary_report_event.json tests/golden/adversary_report_event.csv",
                "overload_smoke tests/golden/overload_report.json tests/golden/overload_report.csv",
                "overload_smoke_event tests/golden/overload_report_event.json tests/golden/overload_report_event.csv",
                "durability_smoke tests/golden/durability_report.json tests/golden/durability_report.csv",
                "durability_smoke_event tests/golden/durability_report_event.json tests/golden/durability_report_event.csv",
                "churn_plan tests/golden/churn_report.json",
                "churn_crashes_event tests/golden/churn_report_event.json",
                "churn_1000 tests/golden/churn_1000_report.json",
                "churn_1000_event tests/golden/churn_1000_report_event.json",
            ]
        );
        let named = Command::parse(&argv(&["figure", "fig2a", "--list", "true"])).unwrap();
        let err = execute(&named).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert_eq!(err.to_string(), "figure --list true takes no NAME, got 'fig2a'");
    }

    #[test]
    fn drills_reject_the_flags_they_cannot_honour() {
        for (args, flag) in [
            (&["figure", "pastry_hops", "--stats-out", "s.json"][..], "stats-out"),
            (&["figure", "churn_drill", "--full", "false"], "full"),
            (&["figure", "durability", "--full", "true"], "full"),
            (&["figure", "adversary", "--stats-out", "s.json"], "stats-out"),
            // A churn drill commits a JSON report only, at one scale.
            (&["figure", "churn_plan", "--csv-out", "c.csv"], "csv-out"),
            (&["figure", "churn_1000", "--full", "true"], "full"),
        ] {
            let err = execute(&Command::parse(&argv(args)).unwrap()).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{args:?}");
            assert_eq!(err.to_string(), format!("figure {} takes no --{flag}", args[1]));
        }
    }

    #[test]
    fn stray_positionals_are_usage_errors_naming_the_argument() {
        let dir = std::env::temp_dir().join("webcache-cli-stray-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("x.bin").to_string_lossy().into_owned();
        let gen = ["gen", "--out", &out, "--requests", "2000", "--objects", "100", "stray.bin"];
        for (args, arg) in [(&gen[..], "stray.bin"), (&["churn", "3"], "3")] {
            let err = execute(&Command::parse(&argv(args)).unwrap()).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{args:?}");
            assert_eq!(
                err.to_string(),
                format!(
                    "unexpected argument '{arg}' for '{}' (it takes no positional arguments)",
                    args[0]
                )
            );
        }
        assert!(!dir.join("x.bin").exists(), "gen wrote its trace before rejecting the argument");
        std::fs::remove_dir_all(&dir).unwrap();
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
        // The scenario sweeps are names of `figure`, not subcommands.
        for name in ["frobnicate", "adversary", "overload", "durability"] {
            let err = execute(&Command::parse(&argv(&[name])).unwrap()).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{name}");
            assert!(err.to_string().starts_with(&format!("unknown subcommand '{name}'")), "{err}");
        }
    }

    #[test]
    fn stats_rejects_an_object_with_two_sizes() {
        // A trace keeps one size per object, so a file that gives object
        // 7 two sizes is malformed: an I/O error (exit 3) naming the file.
        let dir = std::env::temp_dir().join("webcache-cli-two-sizes-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.bin");
        let path_s = path.to_str().unwrap().to_string();
        let mut bytes = Trace::MAGIC.to_vec();
        for word in [1u32, 8, 2] {
            bytes.extend_from_slice(&word.to_le_bytes()); // version, objects, clients
        }
        bytes.extend_from_slice(&2u64.to_le_bytes());
        for word in [0u32, 7, 100, 1, 7, 200] {
            bytes.extend_from_slice(&word.to_le_bytes()); // (client, object, size) ×2
        }
        std::fs::write(&path, bytes).unwrap();
        let stats = Command::parse(&argv(&["stats", &path_s])).unwrap();
        let err = execute(&stats).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        let msg = err.to_string();
        assert!(msg.contains(&format!("{path_s}: object 7 has sizes 100 and 200")), "{msg}");
        std::fs::remove_file(&path).ok();
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

    #[test]
    fn gen_rejects_all_one_timers() {
        // 400 one-timers cannot fill 5,000 requests; this used to panic
        // inside the generator ("cannot sample empty range", exit 101).
        let gen = Command::parse(&argv(&[
            "gen",
            "--out",
            "/tmp/x.bin",
            "--requests",
            "5000",
            "--objects",
            "400",
            "--one-timers",
            "1",
        ]))
        .unwrap();
        let err = execute(&gen).unwrap_err();
        assert!(err.to_string().starts_with("invalid workload: "), "{err}");
        assert_eq!(err.exit_code(), 1);
    }
}
