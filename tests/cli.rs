//! Integration tests for the `astra-sim` CLI binary.

use std::process::{Command, Stdio};

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_astra-sim"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn collective_command_reports_cycles() {
    let (ok, stdout, _) = run(&[
        "collective",
        "--topology",
        "2x2x2",
        "--op",
        "all-reduce",
        "--bytes",
        "65536",
    ]);
    assert!(ok);
    assert!(stdout.contains("cycles"), "{stdout}");
    assert!(stdout.contains("2x2x2 torus"));
}

#[test]
fn collective_json_output_parses() {
    let (ok, stdout, _) = run(&[
        "collective",
        "--topology",
        "1x8@7",
        "--op",
        "all-to-all",
        "--bytes",
        "65536",
        "--json",
    ]);
    assert!(ok);
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert!(v["duration"].as_u64().unwrap() > 0);
}

#[test]
fn traced_collective_reports_what_an_untraced_one_does() {
    let dir = std::env::temp_dir().join(format!("astra_cli_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let args = [
        "collective",
        "--topology",
        "2x2x1*2@1",
        "--op",
        "all-reduce",
        "--bytes",
        "65536",
        "--json",
    ];
    let (ok, plain, stderr) = run(&args);
    assert!(ok, "{stderr}");
    let mut traced_args = args.to_vec();
    traced_args.extend(["--trace", trace.to_str().unwrap()]);
    let (ok, traced, stderr) = run(&traced_args);
    assert!(ok, "{stderr}");
    // The first line announces the trace file; the JSON report follows.
    let (note, report) = traced.split_once('\n').expect("two parts");
    assert!(note.starts_with("wrote Chrome trace"), "{note}");
    assert_eq!(report, plain);
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).expect("valid JSON");
    assert!(!v["traceEvents"]
        .as_array()
        .expect("traceEvents array")
        .is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn enhanced_flag_changes_result() {
    let base = run(&[
        "collective",
        "--topology",
        "4x4x4",
        "--op",
        "all-reduce",
        "--bytes",
        "4194304",
    ]);
    let enh = run(&[
        "collective",
        "--topology",
        "4x4x4",
        "--op",
        "all-reduce",
        "--bytes",
        "4194304",
        "--enhanced",
    ]);
    assert!(base.0 && enh.0);
    assert_ne!(base.1, enh.1, "enhanced algorithm must change the outcome");
}

#[test]
fn train_model_command() {
    let (ok, stdout, _) = run(&[
        "train",
        "--topology",
        "2x2x1",
        "--model",
        "tiny_mlp",
        "--passes",
        "1",
    ]);
    assert!(ok);
    assert!(stdout.contains("exposed ratio"), "{stdout}");
}

#[test]
fn train_workload_file_command() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/custom_mlp.txt");
    let (ok, stdout, _) = run(&["train", "--topology", "2x2x2", "--workload", path]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("fc4"));
}

#[test]
fn huge_compute_time_in_workload_file_is_an_error_not_a_panic() {
    // Each input drives an event to `u64::MAX`, where time saturates; the
    // event loop rejects it, naming the last valid time.
    let dir = std::env::temp_dir().join("astra_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, text: &str| {
        let file = dir.join(name);
        std::fs::write(&file, text).unwrap();
        file.to_str().unwrap().to_owned()
    };
    // fc1's forward compute alone ends at `u64::MAX`.
    let max_compute = write(
        "huge_compute.txt",
        "DATA\n2\n\
         fc1 18446744073709551615 NONE 0 42000 NONE 0 38000 ALLREDUCE 1048576 2\n\
         fc2 18446744073709551000 NONE 0 1 NONE 0 1 ALLREDUCE 1048576 2\n",
    );
    // fc1's compute ends just short of it; the work after it does not.
    let late_compute = write(
        "late_compute.txt",
        "DATA\n1\nfc1 18446744073709551000 NONE 0 1 NONE 0 1 ALLREDUCE 1048576 2\n",
    );
    // A local update of 2^60 + 1 cycles/KiB.
    let huge_update = write(
        "huge_update.txt",
        "DATA\n1\nfc1 1000 NONE 0 1000 NONE 0 1000 ALLREDUCE 1048576 1152921504606846977\n",
    );
    // A 2^62-cycle retransmission timeout, doubled on each retry.
    let huge_timeout = write(
        "huge_timeout.json",
        r#"{"seed": 1, "link_faults": [], "stragglers": [],
            "loss": {"drop_rate": 0.5, "timeout": 4611686018427387904, "max_retries": 16}}"#,
    );
    fn train(file: &str) -> Vec<&str> {
        vec!["train", "--topology", "2x2x2", "--workload", file]
    }
    let lossy = [
        "collective",
        "--topology",
        "1x2x1*2@1",
        "--bytes",
        "1048576",
        "--faults",
    ];
    for (args, last) in [
        (train(&max_compute), "0"),
        (train(&late_compute), "18446744073709551520"),
        (train(&huge_update), "4506"),
        (
            [&lossy[..], &[&huge_timeout]].concat(),
            "13835058055282231011",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_astra-sim"))
            .args(&args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let want = format!(
            "simulation time overflow: an event after t={last} cyc reaches the limit of {} cycles",
            u64::MAX
        );
        assert!(stderr.contains(&want), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn npu_count_above_the_cap_is_an_error_naming_the_count() {
    for (shape, count) in [
        ("4000x4000x4000", "64000000000 NPUs"),
        ("512x512@1", "262144 NPUs"),
        ("2x2x2*100000@1", "800000 NPUs"),
        ("1x8@100000000", "100000000 switches"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_astra-sim"))
            .args(["collective", "--topology", shape, "--bytes", "1024"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{shape}: {stderr}");
        assert!(stderr.contains(count), "{shape}: {stderr}");
    }
}

#[test]
fn collective_set_above_the_counter_bound_exits_1_naming_the_size() {
    // Both profiles must refuse it: the byte counters would wrap in release
    // and panic in debug. On 1x8x1 the bound is u64::MAX / (16 x 8 x 8).
    let max = u64::MAX.to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_astra-sim"))
        .args(["collective", "--topology", "1x8x1", "--op", "all-reduce"])
        .args(["--bytes", &max, "--json"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let bound = (u64::MAX / 1024).to_string();
    assert!(stderr.contains(&format!("set of {max} bytes")), "{stderr}");
    assert!(
        stderr.contains(&format!("bound of {bound} bytes")),
        "{stderr}"
    );
}

#[test]
fn zero_passes_is_an_error_naming_passes() {
    for n in ["0", "4294967295"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_astra-sim"))
            .args([
                "train",
                "--topology",
                "2x2x2",
                "--model",
                "resnet50",
                "--passes",
                n,
            ])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(&format!("passes = {n},")), "{stderr}");
    }
}

#[test]
fn zero_or_huge_minibatch_is_an_error_naming_minibatch() {
    let out = std::env::temp_dir().join("astra_cli_test_minibatch.txt");
    let out = out.to_str().unwrap();
    for n in ["0", "18446744073709551615"] {
        let train = [
            "train",
            "--topology",
            "2x2x2",
            "--model",
            "resnet50",
            "--minibatch",
            n,
        ];
        let export = [
            "export",
            "--model",
            "resnet50",
            "--minibatch",
            n,
            "--out",
            out,
        ];
        for args in [&train[..], &export[..]] {
            let res = std::process::Command::new(env!("CARGO_BIN_EXE_astra-sim"))
                .args(args)
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8_lossy(&res.stderr);
            assert_eq!(res.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.contains(&format!("minibatch {n} ")), "{stderr}");
            assert!(!stderr.contains("panicked"), "{stderr}");
        }
    }
}

#[test]
fn export_roundtrips_through_train() {
    let dir = std::env::temp_dir().join("astra_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("dlrm.txt");
    let (ok, _, stderr) = run(&["export", "--model", "dlrm", "--out", file.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    let (ok, stdout, stderr) = run(&[
        "train",
        "--topology",
        "1x4@2",
        "--workload",
        file.to_str().unwrap(),
        "--passes",
        "1",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("embeddings"));
}

#[test]
fn sweep_command_writes_bench_json_identical_for_any_worker_count() {
    let dir = std::env::temp_dir().join(format!("astra_cli_sweep_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out_dir = dir.to_str().unwrap();
    let sweep = |workers| {
        run(&[
            "sweep",
            "--topology",
            "1x4x1,1x4@3",
            "--op",
            "all-reduce,all-to-all",
            "--sizes",
            "65536,1048576",
            "--name",
            "cli-test",
            "--workers",
            workers,
            "--out-dir",
            out_dir,
        ])
    };
    let (ok, _, stderr) = sweep("2");
    assert!(ok, "{stderr}");
    assert!(
        stderr.contains("8 points (8 simulated, 0 deduped) on 2 workers"),
        "{stderr}"
    );

    let artifact = dir.join("BENCH_cli-test.json");
    let first = std::fs::read_to_string(&artifact).expect("artifact written");
    let v: serde_json::Value = serde_json::from_str(&first).expect("valid JSON");
    assert_eq!(v["schema"].as_u64(), Some(1));
    assert_eq!(v["points"].as_array().unwrap().len(), 8);

    // Re-run on one worker: every point simulated again, same bytes.
    let (ok, _, stderr) = sweep("1");
    assert!(ok, "{stderr}");
    assert!(
        stderr.contains("8 points (8 simulated, 0 deduped) on 1 workers"),
        "{stderr}"
    );
    let second = std::fs::read_to_string(&artifact).unwrap();
    assert_eq!(first, second, "worker count must not change a byte");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_spec_file_runs() {
    let dir = std::env::temp_dir().join(format!("astra_cli_specfile_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Author a spec through the library API, write it, run it via --spec.
    use astra_sim::sweep::{Axis, SweepSpec};
    use astra_sim::{Experiment, SimConfig};
    let spec = SweepSpec::new(
        "from-file",
        SimConfig::torus(1, 4, 1),
        Experiment::all_reduce(1 << 10),
    )
    .axis(Axis::MessageSizes(vec![1 << 10, 1 << 16]));
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, serde_json::to_string(&spec).unwrap()).unwrap();
    let (ok, stdout, stderr) = run(&[
        "sweep",
        "--spec",
        spec_path.to_str().unwrap(),
        "--out-dir",
        dir.to_str().unwrap(),
        "--json",
    ]);
    assert!(ok, "{stderr}");
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(v["name"].as_str(), Some("from-file"));
    assert!(dir.join("BENCH_from-file.json").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_spec_with_too_many_rings_exits_1_naming_the_count() {
    // The CLI's shapes fix the ring counts; a spec sets any. 100,000,000
    // local rings on 2x2x2 would build 800,000,032 links.
    use astra_sim::sweep::SweepSpec;
    use astra_sim::{Experiment, SimConfig};
    let base = SimConfig::torus(2, 2, 2).local_rings(100_000_000);
    let spec = SweepSpec::new("rings", base, Experiment::all_reduce(1 << 10));
    let tmp = std::env::temp_dir();
    let path = tmp.join(format!("astra_cli_rings_{}.json", std::process::id()));
    std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_astra-sim"))
        .args(["sweep", "--spec", path.to_str().unwrap()])
        .args(["--out-dir", tmp.to_str().unwrap()])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("100000000 local"), "{stderr}");
}

#[test]
fn sweep_into_a_missing_out_dir_fails_before_simulating() {
    let missing = std::env::temp_dir().join(format!("astra_cli_no_dir_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&missing);
    let missing = missing.to_str().unwrap();
    let (ok, stdout, stderr) = run(&[
        "sweep",
        "--topology",
        "1x4x1",
        "--sizes",
        "1024,65536",
        "--out-dir",
        missing,
    ]);
    assert!(!ok);
    assert!(stderr.contains(missing), "{stderr}");
    assert!(stdout.is_empty(), "points were simulated first: {stdout}");
    assert!(!stderr.contains("points ("), "{stderr}");
}

#[test]
fn sweep_with_every_point_failed_exits_1_naming_the_count() {
    let dir = std::env::temp_dir().join(format!("astra_cli_all_failed_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_astra-sim"))
        .args(["sweep", "--topology", "1x4x1", "--sizes", "0"])
        .args(["--out-dir", dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("every sweep point failed (1 of 1)"),
        "{stderr}"
    );
    // Every point is still printed and the artifact still written.
    assert!(stdout.contains("size=0: FAILED"), "{stdout}");
    assert!(dir.join("BENCH_cli.json").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_plan_of_only_a_seed_runs_as_no_plan() {
    let path =
        std::env::temp_dir().join(format!("astra_cli_seed_plan_{}.json", std::process::id()));
    std::fs::write(&path, r#"{"seed":1}"#).unwrap();
    let args = ["collective", "--topology", "2x2x2", "--bytes", "65536"];
    let (ok, plain, stderr) = run(&args);
    assert!(ok, "{stderr}");
    let (ok, seeded, stderr) = run(&[&args[..], &["--faults", path.to_str().unwrap()]].concat());
    std::fs::remove_file(&path).unwrap();
    assert!(ok, "{stderr}");
    assert_eq!(seeded, plain);
}

#[test]
fn bad_arguments_fail_gracefully() {
    let (ok, _, stderr) = run(&["collective", "--topology", "banana", "--bytes", "1"]);
    assert!(!ok);
    assert!(stderr.contains("error"));
    let (ok, _, _) = run(&["frobnicate"]);
    assert!(!ok);
    let (ok, _, stderr) = run(&["train", "--topology", "2x2x2"]);
    assert!(!ok);
    assert!(stderr.contains("--model"));
    // Malformed command lines exit 1 naming the offending flag or argument:
    // a value flag with no value (at the end, or before another flag), an
    // unknown flag (also one that only another subcommand takes), and a
    // stray positional argument.
    for (line, named) in [
        ("collective --topology 1x4x1 --faults", "--faults"),
        ("collective --topology --bytes 1024", "--topology"),
        ("collective --topolgy 1x4x1 --bytes 1024", "--topolgy"),
        ("train --topology 2x2x1 --enhanced", "--enhanced"),
        ("collective --topology 1x4x1 extra --bytes 1024", "extra"),
        ("sweep --topology 1x4x1 --cache-dir x", "--cache-dir"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_astra-sim"))
            .args(line.split(' '))
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{line}: {stderr}");
        assert!(stderr.contains(named), "{line}: {stderr}");
    }
}

#[test]
fn unknown_op_or_algorithm_exits_1_naming_it() {
    for line in [
        "collective --topology 1x4x1 --op bogus --bytes 1024",
        "sweep --topology 1x4x1 --algorithms bogus",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_astra-sim"))
            .args(line.split(' '))
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{line}: {stderr}");
        assert!(stderr.contains("bogus"), "{line}: {stderr}");
        assert!(!stderr.contains("panicked"), "{line}: {stderr}");
    }
}

#[test]
fn closed_stdout_exits_0_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_astra-sim"))
        .args("collective --topology 2x2x2 --op all-reduce --bytes 1048576".split(' '))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // Close the read end before the binary writes its first line, as
    // `| head -0` does.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
