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

use astra_sim::compute::ComputeModel;
use astra_sim::collectives::{Algorithm, CollectiveOp};
use astra_sim::output::{fault_table, fmt_time, training_table};
use astra_sim::sweep::{Axis, SweepEngine, SweepSpec};
use astra_sim::system::{CollectiveRequest, SchedulingPolicy};
use astra_sim::workload::{parser, zoo, Workload};
use astra_sim::{
    CollectiveRunReport, Experiment, FaultPlan, SimConfig, Simulator, TopologyConfig,
};
use std::process::ExitCode;

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
                       [--cache-dir <DIR>] [--out-dir <DIR>] [--json]

SHAPE:  MxNxK       torus (local x horizontal x vertical), e.g. 2x4x4
        MxN@S       hierarchical alltoall with S global switches, e.g. 4x16@4
        MxNxK*P@S   P torus pods joined by S scale-out switches, e.g. 1x4x1*2@1
OP:     all-reduce | all-gather | reduce-scatter | all-to-all
MODEL:  resnet50 | vgg16 | transformer | gpt | dlrm | tiny_mlp
ALG:    baseline | enhanced
SCHED:  lifo | fifo | priority   (ready-queue chunk-scheduling policy,
        Table III row 7; default lifo)
FAULTS: a JSON fault plan (seeded link degradation/outage windows, straggler
        NPUs, lossy scale-out transport); same (seed, plan) replays are
        cycle-identical

SWEEPS: `sweep` expands the cartesian grid of all axes (topologies x ops x
        algorithms x sizes), runs it on a worker pool, and writes
        BENCH_<name>.json; reports are byte-identical for any --workers and
        any --cache-dir state"
    );
    ExitCode::from(2)
}

/// One subcommand: its handler and the flags it accepts.
struct Command {
    name: &'static str,
    run: fn(&Args) -> Result<(), String>,
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
            "cache-dir",
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

fn parse_op(op: &str) -> Result<CollectiveOp, String> {
    match op {
        "all-reduce" => Ok(CollectiveOp::AllReduce),
        "all-gather" => Ok(CollectiveOp::AllGather),
        "reduce-scatter" => Ok(CollectiveOp::ReduceScatter),
        "all-to-all" => Ok(CollectiveOp::AllToAll),
        other => Err(format!("unknown collective '{other}'")),
    }
}

fn load_model(name: &str, minibatch: u64) -> Result<Workload, String> {
    let model = ComputeModel::tpu_like_256();
    match name {
        "resnet50" => Ok(zoo::resnet50(&model, minibatch)),
        "vgg16" => Ok(zoo::vgg16(&model, minibatch)),
        "transformer" => Ok(zoo::transformer(&model, minibatch, 64)),
        "gpt" => Ok(zoo::gpt_decoder(&model, minibatch, 128, 1024, 12)),
        "dlrm" => Ok(zoo::dlrm(&model, minibatch)),
        "tiny_mlp" => Ok(zoo::tiny_mlp()),
        other => Err(format!("unknown model '{other}'")),
    }
}

fn cmd_collective(args: &Args) -> Result<(), String> {
    let mut cfg = SimConfig::new(args.get("topology").ok_or("--topology required")?.parse()?);
    let op = parse_op(args.get("op").unwrap_or("all-reduce"))?;
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
    let sim = Simulator::new(cfg).map_err(|e| e.to_string())?;
    let req = CollectiveRequest {
        op,
        bytes,
        dims: None,
        algorithm: None,
        local_update_per_kb: None,
    };
    // With --trace FILE, the report comes from a traced system sim, which
    // also exports a Chrome trace-viewer JSON.
    let out = match args.get("trace") {
        Some(path) => {
            let mut ssim = sim.system_sim().map_err(|e| e.to_string())?;
            ssim.enable_tracing();
            let id = ssim.complete_collective(req).map_err(|e| e.to_string())?;
            let json = astra_sim::output::chrome_trace(ssim.trace().unwrap_or(&[]));
            std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote Chrome trace to {path} (open in chrome://tracing or Perfetto)");
            CollectiveRunReport::from_sim(&ssim, id).map_err(|e| e.to_string())?
        }
        None => sim.run_collective(req).map_err(|e| e.to_string())?,
    };
    if args.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&out).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "{op:?} of {bytes} bytes on {}: {} ({} cycles)",
            sim.config()
                .topology
                .build()
                .map_err(|e| e.to_string())?
                .shape_string(),
            fmt_time(out.duration),
            out.duration.cycles()
        );
        println!(
            "  chunks: {}   phases: {}   messages: {}",
            out.coll.chunks, out.coll.phases, out.system.messages
        );
        let impact = out.fault_impact();
        if !impact.is_clean() {
            print!("fault impact:\n{}", fault_table(&impact).render());
        }
    }
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), String> {
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
        (Some(name), None) => load_model(name, minibatch)?,
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let stem = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("workload");
            parser::parse(stem, &text).map_err(|e| e.to_string())?
        }
        _ => return Err("exactly one of --model / --workload is required".into()),
    };
    let sim = Simulator::new(cfg).map_err(|e| e.to_string())?;
    let report = sim.run_training(workload).map_err(|e| e.to_string())?;
    if args.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", training_table(&report).render());
        println!(
            "\ntotal {}   compute {}   exposed {}   exposed ratio {:.1}%",
            fmt_time(report.total_time),
            fmt_time(report.total_compute),
            fmt_time(report.total_exposed),
            report.exposed_ratio() * 100.0
        );
        if !report.faults.is_clean() {
            print!("fault impact:\n{}", fault_table(&report.faults).render());
        }
    }
    Ok(())
}

/// Builds a `SweepSpec` from inline CLI axes: `--topology` (required,
/// comma-separated shapes) plus optional `--op`, `--algorithms`, and
/// `--sizes` axes and an optional `--faults` plan (swept against the
/// fault-free configuration).
fn inline_spec(args: &Args) -> Result<SweepSpec, String> {
    let shapes = args
        .get("topology")
        .ok_or("--spec or --topology required")?;
    let topologies: Vec<TopologyConfig> =
        shapes.split(',').map(str::parse).collect::<Result<_, _>>()?;
    let mut spec = SweepSpec::new(
        args.get("name").unwrap_or("cli"),
        SimConfig::new(topologies[0].clone()),
        Experiment::all_reduce(1 << 20),
    )
    .axis(Axis::Topologies(topologies));
    if let Some(ops) = args.get("op") {
        let ops: Vec<CollectiveOp> =
            ops.split(',').map(parse_op).collect::<Result<_, _>>()?;
        spec = spec.axis(Axis::Ops(ops));
    }
    if let Some(algs) = args.get("algorithms") {
        let algs: Vec<Algorithm> = algs
            .split(',')
            .map(|a| match a {
                "baseline" => Ok(Algorithm::Baseline),
                "enhanced" => Ok(Algorithm::Enhanced),
                other => Err(format!("unknown algorithm '{other}'")),
            })
            .collect::<Result<_, _>>()?;
        spec = spec.axis(Axis::Algorithms(algs));
    }
    if let Some(sizes) = args.get("sizes") {
        let sizes: Vec<u64> = sizes
            .split(',')
            .map(|s| s.parse().map_err(|_| format!("bad size '{s}'")))
            .collect::<Result<_, _>>()?;
        spec = spec.axis(Axis::MessageSizes(sizes));
    }
    if let Some(policies) = args.get("scheduling") {
        let policies: Vec<SchedulingPolicy> = policies
            .split(',')
            .map(str::parse)
            .collect::<Result<_, _>>()?;
        spec = spec.axis(Axis::Scheduling(policies));
    }
    if let Some(path) = args.get("faults") {
        spec = spec.axis(Axis::Faults(vec![None, Some(load_faults(path)?)]));
    }
    Ok(spec)
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let spec = match args.get("spec") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            serde_json::from_str(&text).map_err(|e| format!("{path}: not a sweep spec: {e}"))?
        }
        None => inline_spec(args)?,
    };
    let mut engine = SweepEngine::new(spec);
    if let Some(w) = args.get("workers") {
        engine = engine.workers(w.parse().map_err(|_| "--workers must be an integer")?);
    }
    if let Some(dir) = args.get("cache-dir") {
        engine = engine.cache_dir(dir);
    }
    let run = engine.run().map_err(|e| e.to_string())?;
    if args.has("json") {
        print!("{}", run.report.to_json());
    } else {
        for point in &run.report.points {
            match point.outcome.metrics() {
                Some(m) => println!(
                    "  [{:>3}] {}: {} cycles",
                    point.index, point.label, m.duration_cycles
                ),
                None => println!("  [{:>3}] {}: FAILED", point.index, point.label),
            }
        }
    }
    let out_dir = args.get("out-dir").unwrap_or(".");
    let path = run
        .report
        .write_bench_json(out_dir)
        .map_err(|e| format!("{out_dir}: {e}"))?;
    eprintln!(
        "sweep `{}`: {} points ({} simulated, {} cache hits, {} deduped) \
         on {} workers in {:.3}s ({:.0} events/s) -> {}",
        run.report.name,
        run.stats.points,
        run.stats.computed,
        run.stats.cache_hits,
        run.stats.deduped,
        run.stats.workers,
        run.stats.wall.as_secs_f64(),
        run.stats.events_per_sec(),
        path.display()
    );
    Ok(())
}

fn cmd_export(args: &Args) -> Result<(), String> {
    let name = args.get("model").ok_or("--model required")?;
    let out = args.get("out").ok_or("--out required")?;
    let minibatch: u64 = args
        .get("minibatch")
        .map(|m| m.parse().map_err(|_| "--minibatch must be an integer"))
        .transpose()?
        .unwrap_or(32);
    let wl = load_model(name, minibatch)?;
    std::fs::write(out, parser::write(&wl)).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {} ({} layers) to {out}", wl.name, wl.layers.len());
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
    let result = Args::parse(&argv[1..], command).and_then(|args| (command.run)(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
