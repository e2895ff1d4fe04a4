//! Host-time benchmark of the ASTRA-sim reproduction.
//!
//! ```text
//! perfbench --workload <train_resnet50|allreduce_garnet|sweep_fig10>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Untraced (`--trace 0`), it times whole units of a workload through the
//! public API for `--seconds` and reports the end-to-end metrics. Traced
//! (`--trace 1`), it times the calls the benchmark makes into each crate and
//! reports the per-layer split. Every unit's simulated output is checked
//! against a pinned digest. The last line of standard output is one JSON
//! object with the result; see README.md.

mod alloc;
mod probe;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Bench, Kind, Layers, Outcome};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <train_resnet50|allreduce_garnet|sweep_fig10> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Set-ups timed before each unit; `setup_s` is their median. They are
/// spread over the run so that it averages over the host's slow drift in
/// speed, as `wall_s` does. One more set-up before them is left out: it pays
/// page faults for the memory the previous unit freed.
const SETUPS_PER_UNIT: usize = 5;

/// Units attempted even when they outlast the time budget.
const MIN_UNITS: u64 = 3;

/// The per-layer metrics of the final JSON line: the ones every workload
/// measures. Workload-specific ones are printed in the table only.
const PER_LAYER: [&str; 15] = [
    "network.send_s",
    "network.handle_s",
    "network.sends",
    "network.handles",
    "network.arrivals",
    "network.delivered",
    "network.allocs",
    "system.self_s",
    "system.events",
    "system.allocs",
    "core.sim_new_s",
    "topology.build_s",
    "network.construct_s",
    "system.construct_s",
    "trace_overhead_frac",
];

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 0, 20.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Attempted and failed units.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one unit; a unit fails if it errored, failed its audit, or
    /// its simulated output differs from the pin.
    fn record(&mut self, bench: &Bench, result: Result<Outcome, String>) -> bool {
        self.attempted += 1;
        match result.and_then(|o| bench.check(&o)) {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: unit {} failed: {e}", self.attempted);
                false
            }
        }
    }
}

/// A metric line of the report.
#[derive(Debug)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of a few standard percentiles with at least ten samples
/// beyond it, and its nearest-rank value.
fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .map(|p| {
            let rank = ((p / 100.0 * n).ceil() as usize).clamp(1, v.len());
            (p, v[rank - 1])
        })
}

fn secs(d: &[Duration]) -> Vec<f64> {
    d.iter().map(Duration::as_secs_f64).collect()
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The run's time budget. Another round starts only if one more round as
/// long as the last still ends within the budget, so a run lasts at most
/// `--seconds` once `MIN_UNITS` units are done.
#[derive(Debug)]
struct Budget {
    limit: Duration,
    start: Instant,
    round_start: Instant,
}

impl Budget {
    fn start(limit: Duration) -> Self {
        let now = Instant::now();
        Budget {
            limit,
            start: now,
            round_start: now,
        }
    }

    fn another(&mut self, tally: &Tally) -> bool {
        let now = Instant::now();
        let last_round = now - self.round_start;
        self.round_start = now;
        tally.attempted < MIN_UNITS || now - self.start + last_round <= self.limit
    }
}

/// The untraced run: end-to-end metrics.
fn run_plain(bench: &Bench, budget: Duration) -> Result<(Tally, Vec<Metric>), String> {
    let mut tally = Tally::default();
    let (mut setups, mut walls, mut events, mut allocs) = (Vec::new(), Vec::new(), 0, Vec::new());
    let mut budget = Budget::start(budget);
    while budget.another(&tally) {
        let mut prepared = bench.setup()?;
        for _ in 0..SETUPS_PER_UNIT {
            let start = Instant::now();
            let next = bench.setup()?;
            setups.push(start.elapsed());
            prepared = next;
        }
        let unit = Instant::now();
        let (outcome, unit_allocs) = workloads::counting_allocs(|| prepared.run());
        let wall = unit.elapsed();
        let unit_events = outcome.as_ref().map_or(0, |o| o.events);
        if tally.record(bench, outcome) {
            walls.push(wall);
            events = unit_events;
            allocs.push(unit_allocs as f64);
        }
    }
    if walls.is_empty() {
        return Err(format!("all {} units failed", tally.attempted));
    }
    let wall = secs(&walls);
    let wall_s = median(&wall);
    let tail = match tail_percentile(&wall) {
        Some((p, v)) => format!("; p{p} {v:.6} s"),
        None => "; no percentile above the median has 10 samples beyond it".into(),
    };
    let metrics = vec![
        Metric {
            name: "setup_s".into(),
            value: median(&secs(&setups)),
            unit: "s",
            note: format!("median of {} set-ups", setups.len()),
        },
        Metric {
            name: "wall_s".into(),
            value: wall_s,
            unit: "s",
            note: format!(
                "median of {} units; fastest {:.6} s{tail}",
                walls.len(),
                wall.iter().copied().fold(f64::INFINITY, f64::min)
            ),
        },
        Metric {
            name: "events_per_s".into(),
            value: events as f64 / wall_s,
            unit: "events/s",
            note: format!("{events} events per unit"),
        },
        Metric {
            name: "allocs_per_event".into(),
            value: median(&allocs) / events as f64,
            unit: "count",
            note: "heap allocations during the unit, per event".into(),
        },
        Metric {
            name: "peak_rss_mib".into(),
            value: peak_rss_mib()?,
            unit: "MiB",
            note: "VmHWM of the benchmark process".into(),
        },
    ];
    Ok((tally, metrics))
}

/// The traced run: per-layer metrics, with untraced units interleaved for
/// the tracing overhead (the sweep measures its own, serially).
fn run_traced(
    bench: &Bench,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<(Tally, Vec<Metric>), String> {
    let root = tracer.open(format!("{} traced run", bench.kind.name()), None);
    let mut tally = Tally::default();
    let (mut traced_walls, mut plain_walls, mut samples) =
        (Vec::new(), Vec::new(), Vec::<Layers>::new());
    let mut budget = Budget::start(budget);
    while budget.another(&tally) {
        let unit = tracer.open("unit (traced)", Some(root));
        let traced = bench.run_traced(tracer, unit);
        tracer.close(unit);
        match traced {
            Ok(t) => {
                if tally.record(bench, Ok(t.outcome)) {
                    traced_walls.push(t.unit);
                    samples.push(t.layers);
                }
            }
            Err(e) => {
                tally.record(bench, Err(e));
            }
        }
        if bench.kind != Kind::SweepFig10 {
            let prepared = bench.setup()?;
            let (outcome, wall) = tracer.time("unit (plain)", Some(root), || prepared.run());
            if tally.record(bench, outcome) {
                plain_walls.push(wall);
            }
        }
    }
    tracer.close(root);
    if samples.is_empty() {
        return Err(format!("all {} units failed", tally.attempted));
    }
    let mut metrics: Vec<Metric> = samples[0]
        .keys()
        .map(|&name| {
            let values: Vec<f64> = samples.iter().map(|s| s[name]).collect();
            Metric {
                name: name.into(),
                value: median(&values),
                unit: if name.ends_with("_s") {
                    "s"
                } else if name.ends_with("_frac") || name.ends_with("_eff") {
                    "ratio"
                } else {
                    "count"
                },
                note: format!("median of {} traced units", values.len()),
            }
        })
        .collect();
    if !plain_walls.is_empty() {
        let traced = median(&secs(&traced_walls));
        let plain = median(&secs(&plain_walls));
        metrics.push(Metric {
            name: "trace_overhead_frac".into(),
            value: traced / plain - 1.0,
            unit: "ratio",
            note: format!(
                "traced {traced:.6} s vs untraced {plain:.6} s, {} and {} units",
                traced_walls.len(),
                plain_walls.len()
            ),
        });
    }
    metrics.sort_by(|a, b| a.name.cmp(&b.name));
    Ok((tally, metrics))
}

fn print_report(tally: &Tally, metrics: &[Metric], json_names: &[&str]) -> Result<(), String> {
    println!("{:<28} {:>18} {:<9} note", "metric", "value", "unit");
    for m in metrics {
        println!("{:<28} {:>18.6} {:<9} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "{:<28} {:>18.6} {:<9} {} of {} units failed",
        "failed_frac",
        tally.failed as f64 / tally.attempted as f64,
        "ratio",
        tally.failed,
        tally.attempted
    );
    let mut fields = Vec::new();
    for &name in json_names {
        let m = metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", m.value));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let bench = Bench::new(args.kind, args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    println!(
        "perfbench: {} seed {} (input variant {}), {} s, {}",
        args.kind.name(),
        args.seed,
        bench.variant,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    if !args.trace {
        let (tally, metrics) = run_plain(&bench, budget)?;
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        return print_report(&tally, &metrics, &names);
    }
    let mut tracer = Tracer::default();
    let (tally, metrics) = run_traced(&bench, budget, &mut tracer)?;
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = dir.join(format!("{}-seed{}.trace.json", args.kind.name(), args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_chrome_json()))
    {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
    print_report(&tally, &metrics, &PER_LAYER)
}

fn main() -> ExitCode {
    let result = parse_args(std::env::args().skip(1))
        .map_err(|e| format!("{e}\n{USAGE}"))
        .and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
