//! `campaign`: the repository's benchmark — time to a proven optimum on
//! six workloads, with every layer measured from outside.
//!
//! ```text
//! campaign --workload NAME --seed K --seconds S --trace 0|1   one workload, one JSON line last
//! campaign [--seed K] [--seconds S] [--trace 1]               all six, one child process each
//! campaign --repeat-check [--seconds S]                       all six in two sets, medians compared
//! ```
//!
//! See `README.md` beside this package for every metric, workload and
//! the way they are expected to interact.

mod catalogue;
mod json;
mod layers;
mod metrics;
mod probes;
mod scrape;
mod spans;
mod stats;
mod workloads;

use catalogue::{Workload, WORKERS, WORKLOADS};
use json::Value;
use metrics::{Better, END_TO_END, PARALLEL_EFFICIENCY, PER_LAYER, SEQ_SOLVE_S};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest timed repetitions of a run, however short `--seconds` is.
const MIN_REPETITIONS: usize = 2;

/// Command-line options.
#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    /// Recorded with the results; seeds the replicable pass of a traced
    /// `enum_explore` run. It draws no instances: the catalogue pins
    /// them (README, "What `--seed` does").
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat_check: bool,
    /// Swap every row for its smallest sibling and run one repetition:
    /// the whole code path in milliseconds, for tests.
    tiny: bool,
    /// Print `BENCHMARK.json` as the declarations in this program
    /// define it, and exit.
    benchmark_json: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS as f64,
        traced: false,
        repeat_check: false,
        tiny: false,
        benchmark_json: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat-check" => args.repeat_check = true,
            "--tiny" => args.tiny = true,
            "--benchmark-json" => args.benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Seconds one run measures for when the driver does not say
/// (`run_seconds` of `BENCHMARK.json`).
const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json`, generated from the workload catalogue and the
/// metric declarations so the file cannot drift from the program (a
/// test compares the checked-in file with this).
fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "campaign/Cargo.toml",
        "--",
    ];
    let list = |items: Vec<Value>| {
        let lines: Vec<String> = items
            .iter()
            .map(|v| format!("    {}", v.render()))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| Value::object([("name", Value::from(w.name)), ("why", Value::from(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Value::object([
                ("name", Value::from(m.name)),
                ("unit", Value::from(m.unit)),
                ("better", Value::from(m.better.as_str())),
                ("bound", Value::from(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Value::object([
                ("name", Value::from(m.name)),
                ("unit", Value::from(m.unit)),
                ("better", Value::from(m.better.as_str())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"campaign\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Value::Array(command.iter().map(|c| Value::from(*c)).collect()).render(),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

/// One reported metric: the value that counts plus the samples behind it.
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Measured {
    /// A metric whose reported value is the median of its samples.
    pub fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Measured {
            name,
            unit,
            value: stats::median(&samples),
            samples,
        }
    }

    /// A metric read once.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Measured {
            name,
            unit,
            value,
            samples: vec![value],
        }
    }

    fn detail(&self) -> Value {
        let min = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self
            .samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        Value::object([
            ("unit", Value::from(self.unit)),
            ("value", Value::from(self.value)),
            ("median", Value::from(stats::median(&self.samples))),
            ("min", Value::from(min)),
            ("max", Value::from(max)),
            ("samples", Value::from(self.samples.len() as u64)),
            (
                "values",
                Value::Array(self.samples.iter().map(|&v| Value::from(v)).collect()),
            ),
        ])
    }
}

/// What one workload run produced.
struct Outcome {
    /// The declared metrics of the run's kind (end-to-end or per-layer).
    metrics: Vec<Measured>,
    /// Printed and kept in the `DETAIL` line, but not part of the final
    /// JSON object: the sequential baseline of an untraced run and the
    /// efficiency derived from it (declared per-layer, see `metrics.rs`).
    extras: Vec<Measured>,
    attempted: u64,
    failures: Vec<String>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("undeclared metric {name}"))
}

/// The untraced run of one workload: set-up, sequential baseline, then
/// timed repetitions for `seconds` — every end-to-end metric.
fn run_end_to_end(workload: &'static Workload, args: &Args) -> Outcome {
    let row = pick_row(workload, args);
    let (setup_s, campaign) = workloads::measure_setup(workload, row);
    let (seq_s, seq_optima) = workloads::sequential_baseline(&campaign);
    let mut attempted = 1;
    let mut failures = Vec::new();
    let seq_sum: u64 = seq_optima.iter().sum();
    if seq_sum != row.optimum_sum {
        failures.push(format!(
            "sequential optima sum to {seq_sum}, the catalogue pins {}",
            row.optimum_sum
        ));
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut peak_rss_mib = 0.0;
    while reps.len() < MIN_REPETITIONS || started.elapsed() < budget {
        reps.push(workloads::repetition(
            &campaign,
            Some(&seq_optima),
            |prepared| workloads::solve_untraced(workload, prepared),
        ));
        if reps.len() == 1 {
            // Read after a fixed amount of work — set-up, baseline, one
            // repetition — not at exit: the high-water mark creeps up
            // with every further repetition (7 → 11 MiB over five on
            // `tcp_durable`), and how many fit in `--seconds` varies.
            peak_rss_mib = stats::peak_rss_mib();
        }
        if args.tiny {
            break;
        }
    }
    for rep in &reps {
        attempted += rep.attempted;
        failures.extend(rep.failures.iter().cloned());
    }

    let per_rep = |f: &dyn Fn(&workloads::Repetition) -> f64| reps.iter().map(f).collect();
    let m =
        |name: &'static str, samples: Vec<f64>| Measured::median_of(name, unit_of(name), samples);
    let metrics = vec![
        Measured::single("setup_s", "s", setup_s),
        m("time_to_proof_s", per_rep(&|r| r.time_to_proof_s)),
        m(
            "nodes_per_s",
            per_rep(&|r| r.explored as f64 / r.time_to_proof_s),
        ),
        m("cpu_s", per_rep(&|r| r.cpu_s)),
        m(
            "worker_exploitation",
            per_rep(&|r| r.busy_s / r.worker_wall_s),
        ),
        Measured::single("peak_rss_mb", "MiB", peak_rss_mib),
    ];
    let extras = vec![
        Measured::single(SEQ_SOLVE_S, "s", seq_s),
        m(
            PARALLEL_EFFICIENCY,
            per_rep(&|r| seq_s / (WORKERS as f64 * r.time_to_proof_s)),
        ),
    ];
    Outcome {
        metrics,
        extras,
        attempted,
        failures,
    }
}

fn pick_row(workload: &Workload, args: &Args) -> catalogue::Row {
    if args.tiny {
        workload.tiny
    } else {
        workload.row
    }
}

/// Runs one workload in this process and prints its result: a table for
/// people, a `DETAIL` line with the samples behind every metric, and
/// the one-object JSON line last.
fn run_single(name: &str, args: &Args) -> ExitCode {
    let Some(workload) = catalogue::workload(name) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; known: {}", known.join(", "));
        return ExitCode::from(2);
    };
    let outcome = if args.traced {
        layers::run_per_layer(workload, pick_row(workload, args), args.seed)
    } else {
        run_end_to_end(workload, args)
    };

    println!(
        "# {}{} seed {} ({} threads available, {} workers){}",
        workload.name,
        if args.tiny { " (tiny)" } else { "" },
        args.seed,
        std::thread::available_parallelism().map_or(0, usize::from),
        WORKERS,
        if args.traced { ", traced" } else { "" },
    );
    for metric in outcome.metrics.iter().chain(&outcome.extras) {
        println!(
            "{:<36} {:>16.6} {:<8} (n={})",
            metric.name,
            metric.value,
            metric.unit,
            metric.samples.len()
        );
    }
    for failure in &outcome.failures {
        println!("FAILED op: {failure}");
    }
    let failed = outcome.failures.len() as u64;
    println!("ops_attempted {} ops_failed {failed}", outcome.attempted);

    let detail = Value::object([
        ("workload", Value::from(workload.name)),
        ("seed", Value::from(args.seed)),
        ("traced", Value::Bool(args.traced)),
        (
            "metrics",
            Value::object(
                outcome
                    .metrics
                    .iter()
                    .chain(&outcome.extras)
                    .map(|m| (m.name, m.detail())),
            ),
        ),
        ("ops_attempted", Value::from(outcome.attempted)),
        ("ops_failed", Value::from(failed)),
        (
            "failures",
            Value::Array(
                outcome
                    .failures
                    .iter()
                    .map(|f| Value::from(f.as_str()))
                    .collect(),
            ),
        ),
    ]);
    println!("DETAIL {}", detail.render());
    let result = Value::object([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::from(outcome.attempted)),
        ("failed", Value::from(failed)),
        (
            "metrics",
            Value::object(outcome.metrics.iter().map(|m| {
                (
                    m.name,
                    Value::object([
                        ("value", Value::from(m.value)),
                        ("unit", Value::from(m.unit)),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", result.render());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workload` in a child process of its own — so peak memory and
/// CPU are per workload — and returns its `DETAIL` document.
fn run_child(workload: &Workload, args: &Args, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this executable: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.tiny {
        command.arg("--tiny");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|line| line.strip_prefix("DETAIL "))
        .ok_or_else(|| format!("{}: no DETAIL line (exit {})", workload.name, output.status))?;
    json::parse(detail)
}

/// The `DETAIL` documents of one workload's child processes.
struct WorkloadDetail {
    name: &'static str,
    end_to_end: Value,
    /// Present under `--trace 1`.
    per_layer: Option<Value>,
}

impl WorkloadDetail {
    fn sections(&self) -> impl Iterator<Item = &Value> {
        std::iter::once(&self.end_to_end).chain(self.per_layer.as_ref())
    }
}

/// One pass over all six workloads; returns their details and whether
/// any op failed.
fn run_set(args: &Args) -> Result<(Vec<WorkloadDetail>, bool), String> {
    let mut set = Vec::new();
    let mut any_failed = false;
    for workload in WORKLOADS {
        eprintln!("campaign: {} ...", workload.name);
        let end_to_end = run_child(workload, args, false)?;
        let per_layer = if args.traced {
            Some(run_child(workload, args, true)?)
        } else {
            None
        };
        let detail = WorkloadDetail {
            name: workload.name,
            end_to_end,
            per_layer,
        };
        for section in detail.sections() {
            let failed = section.get("ops_failed").and_then(Value::as_f64);
            any_failed |= failed != Some(0.0);
        }
        set.push(detail);
    }
    Ok((set, any_failed))
}

fn metric_value(detail: &Value, name: &str) -> Option<f64> {
    detail.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn print_set(set: &[WorkloadDetail]) {
    for workload in set {
        let why = catalogue::workload(workload.name).map_or("", |w| w.why);
        println!("## {} — {why}", workload.name);
        for detail in workload.sections() {
            let Some(metrics) = detail.get("metrics").and_then(Value::as_object) else {
                continue;
            };
            for (metric, fields) in metrics {
                let field = |key: &str| fields.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
                println!(
                    "{:<36} {:>16.6} {:<8} min {:<14.6} max {:<14.6} n={}",
                    metric,
                    field("value"),
                    fields.get("unit").and_then(Value::as_str).unwrap_or(""),
                    field("min"),
                    field("max"),
                    field("samples"),
                );
            }
            println!(
                "ops_attempted {} ops_failed {}",
                detail
                    .get("ops_attempted")
                    .map_or_else(String::new, Value::render),
                detail
                    .get("ops_failed")
                    .map_or_else(String::new, Value::render),
            );
        }
    }
}

fn set_document(set: Vec<WorkloadDetail>) -> Value {
    Value::object(set.into_iter().map(|workload| {
        let mut sections = vec![("end_to_end".to_string(), workload.end_to_end)];
        if let Some(per_layer) = workload.per_layer {
            sections.push(("per_layer".to_string(), per_layer));
        }
        (workload.name, Value::Object(sections))
    }))
}

/// All six workloads, one child process each; stdout ends with one JSON
/// document holding every metric by name.
fn run_all(args: &Args) -> ExitCode {
    let (set, any_failed) = match run_set(args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("campaign: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_set(&set);
    let document = Value::object([
        ("seed", Value::from(args.seed)),
        ("workloads", set_document(set)),
    ]);
    println!("{}", document.render());
    if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative = better).
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Runs per workload in each of the two sets of `--repeat-check`: the
/// medians of three runs are compared, as the driver compares medians
/// of ten — single runs of `tcp_durable` differ by more than a bound.
const REPEAT_CHECK_RUNS: u64 = 3;

/// Median of every end-to-end metric over [`REPEAT_CHECK_RUNS`] runs of
/// `workload`, seeds counting up from `first_seed`.
fn median_run(workload: &Workload, args: &Args, first_seed: u64) -> Result<Vec<f64>, String> {
    let mut values = vec![Vec::new(); END_TO_END.len()];
    for seed in first_seed..first_seed + REPEAT_CHECK_RUNS {
        let run = Args {
            seed,
            traced: false,
            ..args.clone()
        };
        let detail = run_child(workload, &run, false)?;
        if detail.get("ops_failed").and_then(Value::as_f64) != Some(0.0) {
            return Err(format!("{}: an op failed at seed {seed}", workload.name));
        }
        for (metric, samples) in END_TO_END.iter().zip(&mut values) {
            samples.push(
                metric_value(&detail, metric.name)
                    .ok_or_else(|| format!("{} did not report {}", workload.name, metric.name))?,
            );
        }
    }
    Ok(values
        .iter()
        .map(|samples| stats::median(samples))
        .collect())
}

/// The whole end-to-end set twice; per workload × metric both medians,
/// their relative difference and PASS/FAIL against the metric's bound.
fn repeat_check(args: &Args) -> ExitCode {
    let mut sets = Vec::new();
    for set in 0..2 {
        let mut medians = Vec::new();
        for workload in WORKLOADS {
            eprintln!(
                "campaign: repeat-check set {} of 2, {} ...",
                set + 1,
                workload.name
            );
            match median_run(workload, args, args.seed + set * REPEAT_CHECK_RUNS) {
                Ok(values) => medians.push(values),
                Err(e) => {
                    eprintln!("campaign: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(medians);
    }
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut rows = Vec::new();
    let mut all_pass = true;
    for (k, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (x, y) = (sets[0][k][m], sets[1][k][m]);
            let worse = worsening(metric.better, x, y);
            let pass = worse <= metric.bound;
            all_pass &= pass;
            println!(
                "{:<14} {:<22} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {}",
                workload.name,
                metric.name,
                x,
                y,
                worse * 100.0,
                metric.bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
            rows.push(Value::object([
                ("workload", Value::from(workload.name)),
                ("metric", Value::from(metric.name)),
                ("first", Value::from(x)),
                ("second", Value::from(y)),
                ("worse_by", Value::from(worse)),
                ("bound", Value::from(metric.bound)),
                ("pass", Value::Bool(pass)),
            ]));
        }
    }
    let document = Value::object([
        ("repeat_check", Value::Array(rows)),
        ("runs_per_set", Value::from(REPEAT_CHECK_RUNS)),
        ("pass", Value::Bool(all_pass)),
    ]);
    println!("{}", document.render());
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaign: {e}");
            return ExitCode::from(2);
        }
    };
    if args.benchmark_json {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => run_single(name, &args),
        None if args.repeat_check => repeat_check(&args),
        None => run_all(&args),
    }
}
