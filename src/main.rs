//! The `astra-sim` command-line interface.
//!
//! ```text
//! astra-sim collective --topology 2x4x4 --op all-reduce --bytes 1048576
//! astra-sim train --topology 2x4x4 --model resnet50 --passes 2
//! astra-sim train --topology 2x2x2 --workload workloads/custom_mlp.txt
//! astra-sim export --model transformer --out /tmp/transformer.txt
//! ```
//!
//! Topologies are `MxNxK` (torus), `MxN@S` (hierarchical alltoall with
//! `S` global switches) or `MxNxK*P@S` (`P` torus pods over `S` scale-out
//! switches), parsed by `TopologyConfig`'s `FromStr`. All other parameters
//! use Table III/IV defaults; use the library API for full control.

use astra_sim::collectives::{Algorithm, CollectiveOp};
use astra_sim::output::{fault_table, fmt_time, training_table};
use astra_sim::sweep::{Axis, PointOutcome, SweepEngine, SweepSpec};
use astra_sim::system::CollectiveRequest;
use astra_sim::workload::{parser, zoo};
use astra_sim::{
    CollectiveRunReport, Experiment, FaultPlan, SimConfig, Simulator, TopologyConfig,
};
use std::error::Error;
use std::io::{self, Write};
use std::process::ExitCode;

/// A subcommand's outcome. Usage and simulation errors are messages;
/// a failed write to stdout stays an [`io::Error`], so `main` can tell a
/// closed pipe from a real failure.
type CmdResult = Result<(), Box<dyn Error>>;

fn usage() -> ExitCode {
    eprintln!(
        "astra-sim — distributed DL training platform simulator (ASTRA-sim reproduction)

USAGE:
  astra-sim collective --topology <SHAPE> --op <OP> --bytes <N>
                       [--enhanced] [--scheduling <SCHED>] [--json]
                       [--trace <FILE>] [--faults <FILE>]
  astra-sim train      --topology <SHAPE> (--model <NAME> | --workload <FILE>)
                       [--passes <N>] [--minibatch <N>] [--scheduling <SCHED>]
                       [--json] [--faults <FILE>]
  astra-sim export     --model <NAME> --out <FILE> [--minibatch <N>]
  astra-sim sweep      (--spec <FILE> | --topology <SHAPE,...>)
                       [--op <OP,...>] [--sizes <N,...>] [--algorithms <ALG,...>]
                       [--scheduling <SCHED,...>] [--faults <FILE>]
                       [--name <NAME>] [--workers <N>]
                       [--out-dir <DIR>] [--json]

SHAPE:  MxNxK       torus (local x horizontal x vertical), e.g. 2x4x4
        MxN@S       hierarchical alltoall with S global switches, e.g. 4x16@4
        MxNxK*P@S   P torus pods joined by S scale-out switches, e.g. 1x4x1*2@1
OP:     all-reduce | all-gather | reduce-scatter | all-to-all
MODEL:  resnet50 | vgg16 | transformer | gpt | dlrm | tiny_mlp
        (--minibatch: samples per NPU, 1 to 65536; default 32)
        (--passes: training iterations, 1 to 1000; default 2)
ALG:    baseline | enhanced
SCHED:  lifo | fifo | priority   (ready-queue chunk-scheduling policy,
        Table III row 7; default lifo)
FAULTS: a JSON fault plan (seeded link degradation/outage windows, straggler
        NPUs, lossy scale-out transport); same (seed, plan) replays are
        cycle-identical

SWEEPS: `sweep` expands the cartesian grid of all axes (topologies x ops x
        algorithms x sizes), runs it on a worker pool, and writes
        BENCH_<name>.json; reports are byte-identical for any --workers"
    );
    ExitCode::from(2)
}

/// One subcommand: its handler and the flags it accepts.
struct Command {
    name: &'static str,
    run: fn(&Args, &mut dyn Write) -> CmdResult,
    /// Flags that take no value (`--json`).
    switches: &'static [&'static str],
    /// Flags that take exactly one value (`--topology 2x4x4`).
    values: &'static [&'static str],
}

const COMMANDS: &[Command] = &[
    Command {
        name: "collective",
        run: cmd_collective,
        switches: &["enhanced", "json"],
        values: &["topology", "op", "bytes", "scheduling", "faults", "trace"],
    },
    Command {
        name: "train",
        run: cmd_train,
        switches: &["json"],
        values: &[
            "topology",
            "model",
            "workload",
            "passes",
            "minibatch",
            "scheduling",
            "faults",
        ],
    },
    Command {
        name: "export",
        run: cmd_export,
        switches: &[],
        values: &["model", "out", "minibatch"],
    },
    Command {
        name: "sweep",
        run: cmd_sweep,
        switches: &["json"],
        values: &[
            "spec",
            "topology",
            "op",
            "sizes",
            "algorithms",
            "scheduling",
            "faults",
            "name",
            "workers",
            "out-dir",
        ],
    },
];

/// A subcommand's parsed `--flag value` pairs and `--switch`es.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `argv` against `cmd`'s flag table, rejecting unknown flags,
    /// value flags with no value, and positional arguments.
    fn parse(argv: &[String], cmd: &Command) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut argv = argv.iter().peekable();
        while let Some(arg) = argv.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}`"));
            };
            if cmd.switches.contains(&name) {
                flags.push(name.to_owned());
            } else if cmd.values.contains(&name) {
                let value = argv
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                pairs.push((name.to_owned(), value.clone()));
            } else {
                return Err(format!("unknown flag --{name} for `{}`", cmd.name));
            }
        }
        Ok(Args { pairs, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// Loads and pre-validates a JSON fault plan, naming the file in every
/// error so a bad plan is actionable from the shell.
fn load_faults(path: &str) -> Result<FaultPlan, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let plan: FaultPlan =
        serde_json::from_str(&text).map_err(|e| format!("{path}: not a fault plan: {e}"))?;
    plan.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(plan)
}

fn cmd_collective(args: &Args, out: &mut dyn Write) -> CmdResult {
    let mut cfg = SimConfig::new(args.get("topology").ok_or("--topology required")?.parse()?);
    let op: CollectiveOp = args.get("op").unwrap_or("all-reduce").parse()?;
    let bytes: u64 = args
        .get("bytes")
        .ok_or("--bytes required")?
        .parse()
        .map_err(|_| "--bytes must be an integer")?;
    if args.has("enhanced") {
        cfg.system.algorithm = Algorithm::Enhanced;
    }
    if let Some(policy) = args.get("scheduling") {
        cfg.system.scheduling = policy.parse()?;
    }
    if let Some(path) = args.get("faults") {
        cfg.faults = Some(load_faults(path)?);
    }
    let sim = Simulator::new(cfg)?;
    let req = CollectiveRequest {
        op,
        bytes,
        dims: None,
        algorithm: None,
        local_update_per_kb: None,
    };
    // With --trace FILE, the report comes from a traced system sim, which
    // also exports a Chrome trace-viewer JSON.
    let report = match args.get("trace") {
        Some(path) => {
            let mut ssim = sim.system_sim()?;
            ssim.enable_tracing();
            let id = ssim.complete_collective(req)?;
            let json = astra_sim::output::chrome_trace(ssim.trace().unwrap_or(&[]));
            std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
            writeln!(
                out,
                "wrote Chrome trace to {path} (open in chrome://tracing or Perfetto)"
            )?;
            CollectiveRunReport::from_sim(&ssim, id)?
        }
        None => sim.run_collective(req)?,
    };
    if args.has("json") {
        writeln!(out, "{}", serde_json::to_string_pretty(&report)?)?;
    } else {
        writeln!(
            out,
            "{op:?} of {bytes} bytes on {}: {} ({} cycles)",
            sim.config().topology.build()?.shape_string(),
            fmt_time(report.duration),
            report.duration.cycles()
        )?;
        writeln!(
            out,
            "  chunks: {}   phases: {}   messages: {}",
            report.coll.chunks, report.coll.phases, report.system.messages
        )?;
        let impact = report.fault_impact();
        if !impact.is_clean() {
            write!(out, "fault impact:\n{}", fault_table(&impact).render())?;
        }
    }
    Ok(())
}

fn cmd_train(args: &Args, out: &mut dyn Write) -> CmdResult {
    let mut cfg = SimConfig::new(args.get("topology").ok_or("--topology required")?.parse()?);
    if let Some(p) = args.get("passes") {
        cfg.passes = p.parse().map_err(|_| "--passes must be an integer")?;
    }
    if let Some(policy) = args.get("scheduling") {
        cfg.system.scheduling = policy.parse()?;
    }
    if let Some(path) = args.get("faults") {
        cfg.faults = Some(load_faults(path)?);
    }
    let minibatch: u64 = args
        .get("minibatch")
        .map(|m| m.parse().map_err(|_| "--minibatch must be an integer"))
        .transpose()?
        .unwrap_or(32);
    let workload = match (args.get("model"), args.get("workload")) {
        (Some(name), None) => zoo::by_name(name, minibatch)?,
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let stem = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("workload");
            parser::parse(stem, &text)?
        }
        _ => return Err("exactly one of --model / --workload is required".into()),
    };
    let sim = Simulator::new(cfg)?;
    let report = sim.run_training(workload)?;
    if args.has("json") {
        writeln!(out, "{}", serde_json::to_string_pretty(&report)?)?;
    } else {
        write!(out, "{}", training_table(&report).render())?;
        writeln!(
            out,
            "\ntotal {}   compute {}   exposed {}   exposed ratio {:.1}%",
            fmt_time(report.total_time),
            fmt_time(report.total_compute),
            fmt_time(report.total_exposed),
            report.exposed_ratio() * 100.0
        )?;
        if !report.faults.is_clean() {
            write!(
                out,
                "fault impact:\n{}",
                fault_table(&report.faults).render()
            )?;
        }
    }
    Ok(())
}

/// Parses a comma-separated list through `T`'s `FromStr`.
fn parse_list<T: std::str::FromStr<Err = String>>(list: &str) -> Result<Vec<T>, String> {
    list.split(',').map(str::parse).collect()
}

/// Builds a `SweepSpec` from inline CLI axes: `--topology` (required,
/// comma-separated shapes) plus optional `--op`, `--algorithms`, and
/// `--sizes` axes and an optional `--faults` plan (swept against the
/// fault-free configuration).
fn inline_spec(args: &Args) -> Result<SweepSpec, String> {
    let shapes = args
        .get("topology")
        .ok_or("--spec or --topology required")?;
    let topologies: Vec<TopologyConfig> = parse_list(shapes)?;
    let mut spec = SweepSpec::new(
        args.get("name").unwrap_or("cli"),
        SimConfig::new(topologies[0].clone()),
        Experiment::all_reduce(1 << 20),
    )
    .axis(Axis::Topologies(topologies));
    if let Some(ops) = args.get("op") {
        spec = spec.axis(Axis::Ops(parse_list(ops)?));
    }
    if let Some(algs) = args.get("algorithms") {
        spec = spec.axis(Axis::Algorithms(parse_list(algs)?));
    }
    if let Some(sizes) = args.get("sizes") {
        let sizes: Vec<u64> = sizes
            .split(',')
            .map(|s| s.parse().map_err(|_| format!("bad size '{s}'")))
            .collect::<Result<_, _>>()?;
        spec = spec.axis(Axis::MessageSizes(sizes));
    }
    if let Some(policies) = args.get("scheduling") {
        spec = spec.axis(Axis::Scheduling(parse_list(policies)?));
    }
    if let Some(path) = args.get("faults") {
        spec = spec.axis(Axis::Faults(vec![None, Some(load_faults(path)?)]));
    }
    Ok(spec)
}

fn cmd_sweep(args: &Args, out: &mut dyn Write) -> CmdResult {
    let spec = match args.get("spec") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let spec: SweepSpec =
                serde_json::from_str(&text).map_err(|e| format!("{path}: not a sweep spec: {e}"))?;
            // Checked before simulating, as the CLI's own shapes are: a base
            // fabric above a size cap is a malformed spec, not a point.
            spec.base.topology.build().map_err(|e| format!("{path}: base topology: {e}"))?;
            spec
        }
        None => inline_spec(args)?,
    };
    // Checked before simulating: a missing directory would otherwise
    // surface only after every point has run and printed.
    let out_dir = args.get("out-dir").unwrap_or(".");
    if !std::path::Path::new(out_dir).is_dir() {
        return Err(format!("--out-dir {out_dir}: not an existing directory").into());
    }
    let mut engine = SweepEngine::new(spec);
    if let Some(w) = args.get("workers") {
        engine = engine.workers(w.parse().map_err(|_| "--workers must be an integer")?);
    }
    let run = engine.run()?;
    if args.has("json") {
        write!(out, "{}", run.report.to_json())?;
    } else {
        for point in &run.report.points {
            let (index, label) = (point.index, &point.label);
            match &point.outcome {
                PointOutcome::Ok(m) => {
                    writeln!(out, "  [{index:>3}] {label}: {} cycles", m.duration_cycles)?
                }
                PointOutcome::Error { message } => {
                    writeln!(out, "  [{index:>3}] {label}: FAILED: {message}")?
                }
            }
        }
    }
    let path = run
        .report
        .write_bench_json(out_dir)
        .map_err(|e| format!("{out_dir}: {e}"))?;
    eprintln!(
        "sweep `{}`: {} points ({} simulated, {} deduped) \
         on {} workers in {:.3}s ({:.0} events/s) -> {}",
        run.report.name,
        run.stats.points,
        run.stats.computed,
        run.stats.deduped,
        run.stats.workers,
        run.stats.wall.as_secs_f64(),
        run.stats.events_per_sec(),
        path.display()
    );
    // A lossy point may fail by design, so only a sweep with no successful
    // point is an error (after every point is printed and written).
    let points = &run.report.points;
    let failed = points
        .iter()
        .filter(|p| matches!(p.outcome, PointOutcome::Error { .. }))
        .count();
    if failed > 0 && failed == points.len() {
        return Err(format!("every sweep point failed ({failed} of {failed})").into());
    }
    Ok(())
}

fn cmd_export(args: &Args, out: &mut dyn Write) -> CmdResult {
    let name = args.get("model").ok_or("--model required")?;
    let path = args.get("out").ok_or("--out required")?;
    let minibatch: u64 = args
        .get("minibatch")
        .map(|m| m.parse().map_err(|_| "--minibatch must be an integer"))
        .transpose()?
        .unwrap_or(32);
    let wl = zoo::by_name(name, minibatch)?;
    std::fs::write(path, parser::write(&wl)).map_err(|e| format!("{path}: {e}"))?;
    writeln!(
        out,
        "wrote {} ({} layers) to {path}",
        wl.name,
        wl.layers.len()
    )?;
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return usage();
    };
    let Some(command) = COMMANDS.iter().find(|c| c.name == cmd.as_str()) else {
        return usage();
    };
    let mut out = io::stdout().lock();
    let result = Args::parse(&argv[1..], command)
        .map_err(Into::into)
        .and_then(|args| (command.run)(&args, &mut out))
        .and_then(|()| Ok(out.flush()?));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that closes stdout early (`| head`) has all it wants.
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
