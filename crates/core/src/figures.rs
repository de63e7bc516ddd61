//! The paper's evaluation (§5, Figs. 2–5) as one table of series.
//!
//! Every figure is the same experiment: a latency-gain sweep over the
//! proxy cache size, 10–100 % of `U`. What changes is the set of curves.
//! A [`Series`] is one curve: a scheme, the workload its traces come
//! from and the config it runs under. [`figure`] builds each figure's
//! panels of series. [`run_figure`] hands the series that share traces
//! and config to one [`sweep_recorded`] call, so they share one set of NC
//! baselines, and reports one cell per series × cache size as a
//! [`ScenarioReport`]; [`table`] prints the panels.
//!
//! The reduced scale ([`Scale::new`]`(false)`) keeps every ratio the
//! paper fixes (one-timer fraction, α, per-client cache = 0.1 % of `U`,
//! cluster sizes). Only the request count and, for the UCB substitute,
//! the universe shrink, and a few of the largest clusters are left out.
//!
//! What the paper argues without plotting it, and the ablations beyond
//! its figures, are [`drills`]: more names of `webcache figure`, each
//! with a scale of its own and a gate. The robustness sweeps
//! ([`crate::adversary`], [`crate::overload`], [`crate::durability`])
//! are three more, and the small fixed configs the test suite pins under
//! `tests/golden/` are the smoke rows (`figures/smoke.rs`). [`FIGURES`]
//! lists every one of them: what is committed, under which path, and how
//! to regenerate it.

use crate::config::{ExperimentConfig, SchemeKind};
use crate::error::SimError;
use crate::fault::{run_churn, ChurnConfig, ChurnReport};
use crate::net::NetworkModel;
use crate::recorder::{NoopRecorder, Recorder};
use crate::scenario::Field::{B, F, S, U};
use crate::scenario::{Row, ScenarioReport};
use crate::sweep::{gain_table, sweep_recorded, SweepResult, PAPER_CACHE_FRACS};
use crate::ClockMode::{Compat, Event};
use crate::{adversary, durability, overload, run_adversary, run_durability, run_overload};
use webcache_primitives::seed::derive_indexed;
use webcache_workload::{ProWGen, ProWGenConfig, Trace, UcbLike, UcbLikeConfig};
use SchemeKind::{Fc, FcEc, HierGd, NcEc, Sc, ScEc};

pub mod drills;
mod smoke;

/// How a row runs, which decides the files it commits.
pub enum Run {
    /// A report of cells, committed as `<path>.json` and `<path>.csv`;
    /// the flag asks for the paper's scale.
    Cells(fn(bool) -> Result<ScenarioReport, SimError>),
    /// One churn drill of a fixed config, committed as `<path>.json`.
    Churn(fn() -> ChurnConfig),
}

/// What a row reports.
#[derive(Debug)]
pub enum Report {
    /// The report of a [`Run::Cells`] row.
    Cells(ScenarioReport),
    /// The report of a [`Run::Churn`] row.
    Churn(Box<ChurnReport>),
}

impl Report {
    /// The body of `<path>.json`.
    pub fn to_json(&self) -> String {
        match self {
            Report::Cells(r) => r.to_json(),
            Report::Churn(r) => r.to_json(),
        }
    }

    /// The body of `<path>.csv`, none for a churn drill.
    pub fn to_csv(&self) -> Option<String> {
        match self {
            Report::Cells(r) => Some(r.to_csv()),
            Report::Churn(_) => None,
        }
    }
}

/// The claim a row's report must demonstrate.
pub type Gate = fn(&ScenarioReport) -> Result<(), String>;

/// One committed output: a name of `webcache figure`, its files, its run
/// and its gate.
pub struct Entry {
    /// Its `webcache figure` name.
    pub name: &'static str,
    /// Its committed files' path from the repository root, without the
    /// extension.
    pub path: &'static str,
    /// Runs it.
    pub run: Run,
    /// False for an output of one fixed scale, which takes no `--full`.
    pub has_full: bool,
    /// Its gate. The paper's figures and the smoke rows have none.
    pub gate: Option<Gate>,
}

impl Entry {
    /// Runs it, at the paper's scale when `full`.
    pub fn report(&self, full: bool) -> Result<Report, SimError> {
        match self.run {
            Run::Cells(run) => run(full).map(Report::Cells),
            Run::Churn(config) => Ok(Report::Churn(Box::new(run_churn(&config())?))),
        }
    }

    /// True when it commits a CSV beside its JSON report.
    pub fn has_csv(&self) -> bool {
        matches!(self.run, Run::Cells(_))
    }

    /// Its committed files, from the repository root: the JSON report,
    /// then the CSV when it has one.
    pub fn files(&self) -> Vec<String> {
        let csv = self.has_csv().then(|| format!("{}.csv", self.path));
        std::iter::once(format!("{}.json", self.path)).chain(csv).collect()
    }

    /// Checks `report` against its gate; an ungated row passes.
    pub fn check(&self, report: &Report) -> Result<(), String> {
        match (self.gate, report) {
            (Some(gate), Report::Cells(r)) => gate(r),
            _ => Ok(()),
        }
    }
}

/// The row of the paper's figure `$name`, committed as
/// `FIGURE_paper_<name>.*`.
macro_rules! paper {
    ($name:literal) => {
        Entry {
            name: $name,
            path: concat!("FIGURE_paper_", $name),
            run: Run::Cells(|full| {
                let fig = figure($name).expect("a paper row names a figure");
                run_figure(&fig, Scale::new(full), NoopRecorder)
            }),
            has_full: true,
            gate: None,
        }
    };
}

/// A row committed as `FIGURE_<name>.*`, checked against `$gate`.
macro_rules! gated {
    ($name:literal, $run:expr, $has_full:expr, $gate:expr) => {
        Entry {
            name: $name,
            path: concat!("FIGURE_", $name),
            run: Run::Cells($run),
            has_full: $has_full,
            gate: Some($gate),
        }
    };
}

/// A smoke row (`figures/smoke.rs`), committed as `tests/golden/<file>.*`.
macro_rules! smoke {
    ($name:literal, $file:literal, $run:expr) => {
        Entry {
            name: $name,
            path: concat!("tests/golden/", $file),
            run: $run,
            has_full: false,
            gate: None,
        }
    };
}

/// Every committed output, in the order `webcache figure --list true`
/// prints them: the paper's figures (§5, in the paper's order), the
/// drills (in the order [`drills`] lists them), the scenario sweeps,
/// each at its `*Config::default()`, and the smoke rows.
pub const FIGURES: [Entry; 30] = [
    paper!("fig2a"),
    paper!("fig2b"),
    paper!("fig3"),
    paper!("fig4"),
    paper!("fig5a"),
    paper!("fig5b"),
    paper!("fig5c"),
    paper!("fig5d"),
    gated!("pastry_hops", drills::pastry_hops, true, drills::hops_gate),
    gated!("ablation_piggyback", drills::ablation_piggyback, true, drills::piggyback_gate),
    gated!("ablation_directory", drills::ablation_directory, true, drills::directory_gate),
    gated!("ablation_hiergd", drills::ablation_hiergd, true, drills::hiergd_gate),
    gated!("ablation_lfu", drills::ablation_lfu, true, drills::lfu_gate),
    gated!("ablation_gds", drills::ablation_gds, true, drills::gds_gate),
    gated!("squirrel_compare", drills::squirrel_compare, true, drills::squirrel_gate),
    gated!("churn_drill", drills::churn_drill, false, drills::churn_gate),
    gated!("transport_tax", drills::transport_tax, true, drills::transport_gate),
    gated!("adversary", |_| run_adversary(&Default::default()), false, adversary::gate),
    gated!("overload", |_| run_overload(&Default::default()), false, overload::gate),
    gated!("durability", |_| run_durability(&Default::default()), false, durability::gate),
    smoke!("adversary_smoke", "adversary_report", Run::Cells(|_| smoke::adversary(Compat))),
    smoke!(
        "adversary_smoke_event",
        "adversary_report_event",
        Run::Cells(|_| smoke::adversary(Event))
    ),
    smoke!("overload_smoke", "overload_report", Run::Cells(|_| smoke::overload(Compat))),
    smoke!("overload_smoke_event", "overload_report_event", Run::Cells(|_| smoke::overload(Event))),
    smoke!("durability_smoke", "durability_report", Run::Cells(|_| smoke::durability(Compat))),
    smoke!(
        "durability_smoke_event",
        "durability_report_event",
        Run::Cells(|_| smoke::durability(Event))
    ),
    smoke!("churn_plan", "churn_report", Run::Churn(smoke::churn_plan)),
    smoke!("churn_crashes_event", "churn_report_event", Run::Churn(smoke::churn_crashes_event)),
    smoke!("churn_1000", "churn_1000_report", Run::Churn(|| smoke::churn_1000(Compat))),
    smoke!("churn_1000_event", "churn_1000_report_event", Run::Churn(|| smoke::churn_1000(Event))),
];

/// The row of [`FIGURES`] called `name`.
pub fn entry(name: &str) -> Option<&'static Entry> {
    FIGURES.iter().find(|e| e.name == name)
}

/// Workload scale of a figure run.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Requests per proxy trace.
    pub requests: usize,
    /// Distinct objects per trace.
    pub distinct_objects: usize,
    /// True at the paper's full scale.
    pub full: bool,
}

impl Scale {
    /// The paper's 1 M requests per proxy when `full`, else a reduced
    /// 250 k; both over the paper's 10 k objects.
    pub fn new(full: bool) -> Scale {
        let requests = if full { 1_000_000 } else { 250_000 };
        Scale { requests, distinct_objects: 10_000, full }
    }
}

/// Generates the paper's synthetic workload (§5.1) for `num_proxies`
/// statistically identical clusters, with `mutate` applied to the base
/// ProWGen config (α sweeps, stack sweeps, …).
pub fn synthetic_traces(
    num_proxies: usize,
    scale: Scale,
    mutate: impl Fn(&mut ProWGenConfig),
) -> Vec<Trace> {
    (0..num_proxies)
        .map(|p| {
            let mut cfg = ProWGenConfig {
                requests: scale.requests,
                distinct_objects: scale.distinct_objects,
                ..ProWGenConfig::default()
            };
            mutate(&mut cfg);
            cfg.seed = derive_indexed(cfg.seed, "proxy-trace", p as u64);
            ProWGen::new(cfg).generate()
        })
        .collect()
}

/// Where a series' traces come from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    /// ProWGen with this Zipf α and LRU-stack fraction.
    ProWGen {
        /// Zipf α of object popularity.
        alpha: f64,
        /// LRU stack size as a fraction of the multi-reference objects.
        stack: f64,
    },
    /// The calibrated substitute for the UCB Home-IP trace (DESIGN.md,
    /// "Substitutions") at a scale of its own: 500 k requests per proxy
    /// reduced, the original's 9.24 M at the paper's scale.
    Ucb,
}

impl Workload {
    /// One trace per proxy.
    fn traces(self, proxies: usize, scale: Scale) -> Vec<Trace> {
        match self {
            Workload::ProWGen { alpha, stack } => synthetic_traces(proxies, scale, |c| {
                c.zipf_alpha = alpha;
                c.stack_fraction = stack;
            }),
            Workload::Ucb => (0..proxies)
                .map(|p| {
                    let mut cfg = if scale.full {
                        UcbLikeConfig::full_scale()
                    } else {
                        UcbLikeConfig {
                            requests: 500_000,
                            core_objects: 8_000,
                            fresh_objects_per_day: 6_000,
                            ..UcbLikeConfig::default()
                        }
                    };
                    cfg.seed = derive_indexed(cfg.seed, "ucb-proxy", p as u64);
                    UcbLike::new(cfg).generate()
                })
                .collect(),
        }
    }
}

/// One curve of a figure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Series {
    /// Column label in the panel.
    pub label: &'static str,
    /// Scheme whose gain over NC is plotted.
    pub scheme: SchemeKind,
    /// Where its traces come from.
    pub workload: Workload,
    /// Proxies in the cluster, one trace each.
    pub proxies: usize,
    /// Clients per proxy.
    pub clients: usize,
    /// Server-to-cooperating-proxy latency ratio `Ts/Tc`.
    pub ts_tc: f64,
    /// Server-to-client-link latency ratio `Ts/Tl`.
    pub ts_tl: f64,
    /// Run only at the paper's scale: the largest clusters.
    pub full_only: bool,
}

/// A curve of `scheme` on the paper's defaults (§5.1): ProWGen at α 0.7
/// and a 20 % stack, 2 proxies of 100 clients, `Ts/Tc` 10, `Ts/Tl` 20.
const fn series(label: &'static str, scheme: SchemeKind) -> Series {
    Series {
        label,
        scheme,
        workload: prowgen(0.7, 0.2),
        proxies: 2,
        clients: 100,
        ts_tc: 10.0,
        ts_tl: 20.0,
        full_only: false,
    }
}

const fn prowgen(alpha: f64, stack: f64) -> Workload {
    Workload::ProWGen { alpha, stack }
}

/// One plot: its title and its curves, in column order.
pub struct Panel {
    /// Printed above the panel.
    pub title: String,
    /// The curves.
    pub series: Vec<Series>,
}

/// One figure of the paper: its name and its panels, in print order.
pub struct Figure {
    /// The name of its row in [`FIGURES`].
    pub name: &'static str,
    /// The panels.
    pub panels: Vec<Panel>,
}

impl Figure {
    /// The series run at scale `full`, in panel order.
    pub fn series(&self, full: bool) -> impl Iterator<Item = &Series> {
        self.panels.iter().flat_map(|p| &p.series).filter(move |s| full || !s.full_only)
    }
}

/// The paper's figure called `name`, none for a row of [`FIGURES`] that
/// is not one. Fig. 2 plots every scheme, Figs. 3 and 4 one panel per
/// coordinated scheme with a curve per trace, and Fig. 5 one config knob
/// of Hier-GD.
pub fn figure(name: &str) -> Option<Figure> {
    let name = entry(name)?.name;
    let one = |title: &str, series| vec![Panel { title: title.into(), series }];
    let schemes = |workload| {
        let all = [Sc, Fc, NcEc, ScEc, FcEc, HierGd];
        all.map(|s| Series { workload, ..series(s.label(), s) }).to_vec()
    };
    let per_scheme = |fig: &str, traces: [(&'static str, Workload); 3]| {
        let panel = |scheme: SchemeKind| Panel {
            title: format!("{fig}: {}/NC latency gain (%)", scheme.label()),
            series: traces
                .map(|(label, workload)| Series { workload, ..series(label, scheme) })
                .to_vec(),
        };
        [FcEc, Fc, HierGd, ScEc].map(panel).into()
    };
    let hier = |label| series(label, HierGd);
    let panels = match name {
        "fig2a" => one(
            "Figure 2(a): latency gain (%) vs proxy cache size — synthetic",
            schemes(prowgen(0.7, 0.2)),
        ),
        "fig2b" => one(
            "Figure 2(b): latency gain (%) vs proxy cache size — UCB-like",
            schemes(Workload::Ucb),
        ),
        "fig3" => per_scheme(
            "Figure 3",
            [
                ("alpha=0.5", prowgen(0.5, 0.2)),
                ("alpha=0.7", prowgen(0.7, 0.2)),
                ("alpha=1", prowgen(1.0, 0.2)),
            ],
        ),
        "fig4" => per_scheme(
            "Figure 4",
            [
                ("stack=5%", prowgen(0.7, 0.05)),
                ("stack=20%", prowgen(0.7, 0.2)),
                ("stack=60%", prowgen(0.7, 0.6)),
            ],
        ),
        "fig5a" => one(
            "Figure 5(a): Hier-GD/NC latency gain (%) vs Ts/Tc",
            vec![
                Series { ts_tc: 2.0, ..hier("Ts/Tc=2") },
                Series { ts_tc: 5.0, ..hier("Ts/Tc=5") },
                hier("Ts/Tc=10"),
            ],
        ),
        "fig5b" => one(
            "Figure 5(b): Hier-GD/NC latency gain (%) vs Ts/Tl",
            vec![
                Series { ts_tl: 5.0, ..hier("Ts/Tl=5") },
                Series { ts_tl: 10.0, ..hier("Ts/Tl=10") },
                hier("Ts/Tl=20"),
            ],
        ),
        "fig5c" => one(
            "Figure 5(c): Hier-GD/NC latency gain (%) vs client-cluster size",
            vec![
                series("SC", Sc),
                series("FC", Fc),
                hier("Hier-GD(100)"),
                Series { clients: 400, ..hier("Hier-GD(400)") },
                Series { clients: 800, full_only: true, ..hier("Hier-GD(800)") },
                Series { clients: 1000, full_only: true, ..hier("Hier-GD(1000)") },
            ],
        ),
        "fig5d" => one(
            "Figure 5(d): Hier-GD/NC latency gain (%) vs proxy-cluster size",
            vec![
                hier("2 proxies"),
                Series { proxies: 5, ..hier("5 proxies") },
                Series { proxies: 10, full_only: true, ..hier("10 proxies") },
            ],
        ),
        _ => return None,
    };
    Some(Figure { name, panels })
}

/// Runs every series of `fig` at `scale` with `recorder` observing every
/// simulation, NC baselines included. The series that share traces and
/// config share one sweep.
pub fn run_figure<R: Recorder + Clone + Send + 'static>(
    fig: &Figure,
    scale: Scale,
    recorder: R,
) -> Result<ScenarioReport, SimError> {
    let all: Vec<&Series> = fig.series(scale.full).collect();
    let run = |s: &Series| (s.workload, s.proxies, s.clients, s.ts_tc, s.ts_tl);
    let mut sweeps: Vec<(_, Vec<SweepResult>)> = Vec::new();
    for s in &all {
        if sweeps.iter().any(|(key, _)| *key == run(s)) {
            continue;
        }
        let schemes: Vec<_> = all.iter().filter(|t| run(t) == run(s)).map(|t| t.scheme).collect();
        let mut base = ExperimentConfig::new(SchemeKind::Nc, PAPER_CACHE_FRACS[0]);
        base.num_proxies = s.proxies;
        base.clients_per_cluster = s.clients;
        base.net = NetworkModel::from_ratios(s.ts_tc, s.ts_tl, 1.4);
        let traces = s.workload.traces(s.proxies, scale);
        let results =
            sweep_recorded(&schemes, &PAPER_CACHE_FRACS, &traces, &base, recorder.clone())?;
        sweeps.push((run(s), results));
    }
    let cells = all.iter().flat_map(|s| {
        let (_, results) = sweeps.iter().find(|(key, _)| *key == run(s)).expect("swept above");
        results.iter().filter(|r| r.scheme == s.scheme).map(|r| {
            Row(vec![
                ("series", S(s.label)),
                ("scheme", S(s.scheme.label())),
                ("cache_pct", U((r.cache_frac * 100.0).round() as u64)),
                ("gain_pct", F(r.gain_percent)),
                ("avg_latency", F(r.metrics.avg_latency())),
                ("hit_ratio", F(r.metrics.hit_ratio())),
            ])
        })
    });
    Ok(ScenarioReport {
        header: Row(vec![("figure", S(fig.name)), ("full", B(scale.full))]),
        cells: cells.collect(),
        summary_key: "series",
        summary: all.iter().map(|s| describe(s)).collect(),
        csv_omit: &[],
    })
}

/// A series' configuration as a report row.
fn describe(s: &Series) -> Row {
    let (trace, knobs) = match s.workload {
        Workload::ProWGen { alpha, stack } => {
            ("prowgen", vec![("alpha", F(alpha)), ("stack", F(stack))])
        }
        Workload::Ucb => ("ucb", vec![]),
    };
    let mut row =
        vec![("series", S(s.label)), ("scheme", S(s.scheme.label())), ("trace", S(trace))];
    row.extend(knobs);
    row.extend([
        ("proxies", U(s.proxies as u64)),
        ("clients", U(s.clients as u64)),
        ("ts_tc", F(s.ts_tc)),
        ("ts_tl", F(s.ts_tl)),
    ]);
    Row(row)
}

/// Prints `fig`'s panels, each a gain table with a column per series
/// `report` holds.
pub fn table(fig: &Figure, report: &ScenarioReport) -> String {
    let curve = |s: &Series| {
        let cells = report.cells.iter();
        let mine = cells.filter(|c| c.s("series") == s.label && c.s("scheme") == s.scheme.label());
        (s.label, mine.map(|c| c.f("gain_pct")).collect::<Vec<_>>())
    };
    let panel = |p: &Panel| {
        let curves: Vec<_> = p.series.iter().map(curve).filter(|(_, g)| !g.is_empty()).collect();
        format!("\n=== {} ===\n{}", p.title, gain_table(&PAPER_CACHE_FRACS, &curves))
    };
    fig.panels.iter().map(panel).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::sweep;

    fn tiny() -> Scale {
        Scale { requests: 3_000, distinct_objects: 400, full: false }
    }

    /// The runner's cells for `fig` equal, bit for bit, `direct`'s sweeps:
    /// one `(label, scheme, results)` per series, in table order.
    fn assert_matches(fig: &str, direct: Vec<(&str, SchemeKind, Vec<crate::SweepResult>)>) {
        let report = run_figure(&figure(fig).unwrap(), tiny(), NoopRecorder).unwrap();
        let expected: Vec<_> = direct
            .iter()
            .flat_map(|(label, scheme, results)| {
                results.iter().filter(|r| r.scheme == *scheme).map(move |r| (*label, r))
            })
            .collect();
        assert_eq!(report.cells.len(), expected.len(), "{fig}");
        for (cell, (label, r)) in report.cells.iter().zip(expected) {
            assert_eq!(cell.s("series"), label);
            assert_eq!(cell.s("scheme"), r.scheme.label());
            assert_eq!(cell.u("cache_pct"), (r.cache_frac * 100.0).round() as u64);
            assert_eq!(cell.f("gain_pct").to_bits(), r.gain_percent.to_bits(), "{fig} {label}");
            assert_eq!(cell.f("avg_latency").to_bits(), r.metrics.avg_latency().to_bits());
            assert_eq!(cell.f("hit_ratio").to_bits(), r.metrics.hit_ratio().to_bits());
        }
    }

    #[test]
    fn scheme_columns_match_one_direct_sweep() {
        let schemes = [Sc, Fc, NcEc, ScEc, FcEc, HierGd];
        let traces = synthetic_traces(2, tiny(), |_| {});
        let base = ExperimentConfig::new(SchemeKind::Nc, 0.1);
        let results = sweep(&schemes, &PAPER_CACHE_FRACS, &traces, &base).unwrap();
        let direct = schemes.iter().map(|&s| (s.label(), s, results.clone())).collect();
        assert_matches("fig2a", direct);
    }

    #[test]
    fn trace_variants_match_one_direct_sweep_per_trace() {
        let panels = [FcEc, Fc, HierGd, ScEc];
        let base = ExperimentConfig::new(SchemeKind::Nc, 0.1);
        let per_alpha: Vec<_> = [0.5, 0.7, 1.0]
            .iter()
            .map(|&alpha| {
                let traces = synthetic_traces(2, tiny(), |c| c.zipf_alpha = alpha);
                sweep(&panels, &PAPER_CACHE_FRACS, &traces, &base).unwrap()
            })
            .collect();
        let labels = ["alpha=0.5", "alpha=0.7", "alpha=1"];
        let direct = panels
            .iter()
            .flat_map(|&s| labels.iter().zip(&per_alpha).map(move |(&l, r)| (l, s, r.clone())))
            .collect();
        assert_matches("fig3", direct);
    }

    #[test]
    fn proxy_counts_match_one_direct_sweep_per_cluster() {
        let direct = [(2, "2 proxies"), (5, "5 proxies")]
            .iter()
            .map(|&(p, label)| {
                let traces = synthetic_traces(p, tiny(), |_| {});
                let mut base = ExperimentConfig::new(SchemeKind::Nc, 0.1);
                base.num_proxies = p;
                (label, HierGd, sweep(&[HierGd], &PAPER_CACHE_FRACS, &traces, &base).unwrap())
            })
            .collect();
        assert_matches("fig5d", direct);
    }

    #[test]
    fn full_scale_adds_only_the_largest_clusters() {
        let figures: Vec<Figure> = FIGURES.iter().filter_map(|e| figure(e.name)).collect();
        let added: Vec<(&str, &str)> = figures
            .iter()
            .flat_map(|f| f.series(true).filter(|s| s.full_only).map(|s| (f.name, s.label)))
            .collect();
        assert_eq!(
            added,
            [("fig5c", "Hier-GD(800)"), ("fig5c", "Hier-GD(1000)"), ("fig5d", "10 proxies")]
        );
        for f in &figures {
            let reduced: Vec<_> = f.series(false).collect();
            let full: Vec<_> = f.series(true).filter(|s| !s.full_only).collect();
            assert_eq!(reduced, full, "{}", f.name);
        }
    }

    #[test]
    fn the_default_workload_is_prowgens_default() {
        let d = ProWGenConfig::default();
        let w = series("x", Sc).workload;
        assert_eq!(w, Workload::ProWGen { alpha: d.zipf_alpha, stack: d.stack_fraction });
        assert_eq!(NetworkModel::from_ratios(10.0, 20.0, 1.4), NetworkModel::default());
    }

    #[test]
    fn every_name_builds_its_figure_of_distinct_series() {
        let papers: Vec<_> =
            FIGURES.iter().filter(|e| e.path.starts_with("FIGURE_paper_")).collect();
        assert_eq!(papers.len(), 8, "the paper's Figs. 2(a)-5(d)");
        for name in papers.iter().map(|e| e.name) {
            let f = figure(name).unwrap();
            assert_eq!(f.name, name);
            let all: Vec<_> = f.series(true).map(|s| (s.label, s.scheme)).collect();
            for (j, s) in all.iter().enumerate() {
                assert!(!all[..j].contains(s), "{name} repeats {s:?}");
            }
        }
        assert!(figure("fig6").is_none());
        assert!(figure("pastry_hops").is_none(), "a drill is a row, not a figure");
    }

    #[test]
    fn every_row_has_its_own_name_and_path() {
        for (j, e) in FIGURES.iter().enumerate() {
            let earlier = &FIGURES[..j];
            assert!(earlier.iter().all(|o| o.name != e.name && o.path != e.path), "{}", e.name);
            assert_eq!(entry(e.name).map(|found| found.path), Some(e.path));
            let paper = figure(e.name).is_some();
            assert_eq!(e.path == format!("FIGURE_paper_{}", e.name), paper, "{}", e.name);
            // The figures are committed at the root, the smoke rows as goldens.
            let gated = e.path == format!("FIGURE_{}", e.name);
            assert_eq!(gated, e.gate.is_some(), "{}: only the drills and sweeps are gated", e.name);
            assert!(paper || gated || e.path.starts_with("tests/golden/"), "{}", e.path);
        }
        let churn: Vec<_> = FIGURES.iter().filter(|e| !e.has_csv()).map(|e| e.name).collect();
        assert_eq!(churn, ["churn_plan", "churn_crashes_event", "churn_1000", "churn_1000_event"]);
        assert_eq!(entry("churn_plan").unwrap().files(), ["tests/golden/churn_report.json"]);
        assert_eq!(
            entry("fig3").unwrap().files(),
            ["FIGURE_paper_fig3.json", "FIGURE_paper_fig3.csv"]
        );
        assert!(entry("fig6").is_none());
    }

    #[test]
    fn synthetic_traces_are_per_proxy_distinct_but_same_shape() {
        let scale = Scale { requests: 5_000, distinct_objects: 400, full: false };
        let ts = synthetic_traces(2, scale, |_| {});
        assert_eq!(ts.len(), 2);
        assert_ne!(ts[0].requests, ts[1].requests, "independent streams");
        let s0 = ts[0].stats();
        let s1 = ts[1].stats();
        assert_eq!(s0.distinct_objects, s1.distinct_objects);
        assert_eq!(s0.one_timers, s1.one_timers);
    }

    #[test]
    fn mutator_applies() {
        let scale = Scale { requests: 5_000, distinct_objects: 400, full: false };
        let ts = synthetic_traces(1, scale, |c| c.num_clients = 3);
        assert_eq!(ts[0].num_clients, 3);
    }

    #[test]
    fn scales() {
        assert!(!Scale::new(false).full);
        let p = Scale::new(true);
        assert_eq!((p.requests, p.distinct_objects), (1_000_000, 10_000));
    }
}
