//! The repository benchmark: `run`, `compare` and `describe`.
//!
//! `run --workload NAME --seed N --seconds S --trace 0|1` measures one
//! workload in this process and prints, as the last line of standard
//! output, one JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics` (the contract in `BENCHMARK.json`). Without `--workload`
//! it runs every workload, one child process after another, and can save
//! the results for `compare`. README.md describes the rest.

mod check;
mod compare;
mod endtoend;
mod json;
mod layers;
mod span;
mod spec;
mod stats;
mod workloads;

use check::{Checker, PINNED_SEED};
use json::Json;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: webcache-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                              [--traced] [--runs K] [--out FILE] [--bless]
       webcache-benchmark compare A.json B.json
       webcache-benchmark describe

run       measures one workload (--workload) in this process, or every workload
          in a child process each. --trace 0 (default) reports the end-to-end
          metrics with tracing off; --trace 1 reports the per-layer metrics and
          writes benchmark/out/trace-<workload>.json. Without --workload,
          --traced adds a --trace 1 run per workload, --runs K repeats the
          end-to-end run K times, and --out FILE saves everything for `compare`.
          --bless rewrites benchmark/expected/<workload>.json (seed 2003 only).
compare   judges B against A with each metric's direction and bound.
describe  prints the document committed as BENCHMARK.json.";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced: bool,
    runs: usize,
    out: Option<String>,
    bless: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: PINNED_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        traced: false,
        runs: 1,
        out: None,
        bless: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value '{v}' for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                parsed.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--runs" => {
                parsed.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if parsed.runs == 0 {
                    return Err("--runs must be positive".into());
                }
            }
            "--out" => parsed.out = Some(value()?.clone()),
            "--traced" => parsed.traced = true,
            "--bless" => parsed.bless = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if let Some(name) = &parsed.workload {
        if workloads::workload(name).is_none() {
            let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload '{name}' (expected one of: {})",
                known.join(", ")
            ));
        }
    }
    Ok(parsed)
}

/// The contract's result line.
fn result_line(checker: &Checker, metrics: &[(&'static str, f64)]) -> Json {
    Json::obj([
        ("correct", Json::Bool(checker.failed == 0)),
        ("attempted", Json::Num(checker.attempted as f64)),
        ("failed", Json::Num(checker.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, value)| {
                let unit = spec::metric(name).expect("every reported metric is in the spec").unit;
                (*name, Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]))
            })),
        ),
    ])
}

/// Measures one workload in this process.
fn run_one(name: &str, args: &RunArgs) -> ExitCode {
    let w = workloads::workload(name).expect("validated by parse_run_args");
    let mut checker = Checker::default();
    let mode = if args.trace {
        "trace 1: span recorder on, per-layer metrics"
    } else {
        "trace 0: tracing off, NoopRecorder, end-to-end metrics"
    };
    println!("workload {name}  seed {}  {} s  one thread  ({mode})", args.seed, args.seconds);

    let (metrics, sim) = if args.trace {
        let report = layers::measure(&w, args.seed, &mut checker);
        print!("{}", report.text);
        (report.metrics, None)
    } else {
        let e = endtoend::measure(&w, args.seed, args.seconds, &mut checker);
        print!("{}", endtoend::describe(&e));
        (e.metrics, Some(e.sim))
    };

    if let Some(sim) = sim {
        if args.bless {
            if args.seed != PINNED_SEED {
                eprintln!("error: --bless pins seed {PINNED_SEED} only");
                return ExitCode::from(2);
            }
            match check::bless(name, &sim) {
                Ok(path) => println!("  pinned {} statistics in {}", sim.len(), path.display()),
                Err(e) => {
                    eprintln!("error: cannot write the pinned statistics: {e}");
                    return ExitCode::from(3);
                }
            }
        } else if args.seed == PINNED_SEED {
            // Reported, not fatal: the seed-independent checks below
            // decide correctness; this shows a change moved the model.
            let drift = check::drift(name, &sim);
            println!("  sim_drift ({} pinned statistics): {drift:?}", sim.len());
        } else {
            println!("  sim_drift: skipped (statistics are pinned for seed {PINNED_SEED})");
        }
    }
    for problem in &checker.problems {
        println!("  FAILED {problem}");
    }
    println!("  {} of {} simulated requests failed", checker.failed, checker.attempted);
    println!("{}", result_line(&checker, &metrics).compact());
    if checker.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `run --workload name` in a child process and returns its parsed
/// result line. The child's report is passed through.
fn run_child(name: &str, args: &RunArgs, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", name])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    let line = Json::parse(last).map_err(|e| format!("{name}: no result line ({e}): {last:?}"))?;
    if !output.status.success() && line.get("correct").and_then(Json::as_bool) != Some(false) {
        return Err(format!("{name}: child exited with {}", output.status));
    }
    Ok(line)
}

/// Runs every workload, one child process after another.
fn run_all(args: &RunArgs) -> ExitCode {
    let mut workloads_out = Vec::new();
    let mut all_correct = true;
    for (name, _) in spec::WORKLOADS {
        let mut merged: Vec<(String, Vec<f64>)> = Vec::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        let passes = (0..args.runs).map(|_| false).chain(args.traced.then_some(true));
        for trace in passes {
            let line = match run_child(name, args, trace) {
                Ok(line) => line,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            all_correct &= line.get("correct").and_then(Json::as_bool) == Some(true);
            attempted += line.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += line.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            for (metric, entry) in line.get("metrics").map_or(&[][..], Json::entries) {
                let value = entry.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                match merged.iter_mut().find(|(m, _)| m == metric) {
                    Some((_, values)) => values.push(value),
                    None => merged.push((metric.clone(), vec![value])),
                }
            }
        }
        workloads_out.push((
            *name,
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                (
                    "metrics",
                    Json::obj(merged.into_iter().map(|(metric, values)| {
                        (metric, Json::Arr(values.into_iter().map(Json::Num).collect()))
                    })),
                ),
            ]),
        ));
    }
    let doc = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("workloads", Json::obj(workloads_out)),
    ]);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(3);
        }
        println!("wrote {path}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: at least one workload failed its checks");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // One thread: the simulator's sweeps otherwise size a pool from the
    // core count. Set before anything can start that pool.
    std::env::set_var("WEBCACHE_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run_args(&args[1..]) {
            Ok(parsed) => match parsed.workload.clone() {
                Some(name) => run_one(&name, &parsed),
                None => run_all(&parsed),
            },
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("compare") if args.len() == 3 => compare::main(&args[1], &args[2]),
        Some("describe") if args.len() == 1 => {
            print!("{}", spec::benchmark_json().pretty());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
