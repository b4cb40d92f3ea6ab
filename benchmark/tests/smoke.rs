//! Drives the built binary the way the driver and `run.sh` do, on tiny
//! inputs (`--scale 0.02`), and checks the contract: every workload
//! runs, no operation fails, and the metrics printed are exactly the
//! ones `BENCHMARK.json` lists.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_karousos-benchmark");
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Names listed under `section` of `BENCHMARK.json`, in file order. The
/// file is flat enough that scanning for `"name": "..."` inside the
/// section is exact.
fn listed(section: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let end = body.find(']').expect("the section is an array");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|rest| {
            rest.split('"')
                .nth(1)
                .expect("a name is a string")
                .to_string()
        })
        .collect()
}

/// Keys of the `metrics` object on the run's last line, in print order.
fn printed(line: &str) -> Vec<String> {
    let metrics = line
        .split("\"metrics\": {")
        .nth(1)
        .expect("a metrics object");
    metrics
        .split("\": {\"value\"")
        .filter_map(|chunk| chunk.rsplit('"').next())
        .filter(|name| !name.is_empty() && !name.contains('}'))
        .map(str::to_string)
        .collect()
}

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(EXE)
        .arg("--allow-debug")
        .args(args)
        .env("KAROUSOS_VERIFY_THREADS", "3")
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.code(), stdout)
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn lists_are_within_the_contract() {
    let (workloads, e2e, layers) = (
        listed("workloads"),
        listed("end_to_end"),
        listed("per_layer"),
    );
    assert_eq!(
        workloads,
        [
            "wiki-mix",
            "motd-write-heavy",
            "stacks-read-heavy",
            "stacks-write-heavy"
        ]
    );
    assert!(e2e.len() <= 16 && layers.len() <= 128);
    assert!(e2e.contains(&"setup_s".to_string()));
    let mut all: Vec<&String> = workloads.iter().chain(&e2e).chain(&layers).collect();
    assert!(
        all.iter().all(|n| well_formed(n)),
        "a name breaks the charset"
    );
    all.sort();
    all.dedup();
    assert_eq!(
        all.len(),
        workloads.len() + e2e.len() + layers.len(),
        "a name is used twice"
    );
}

#[test]
fn every_workload_emits_exactly_the_listed_metrics() {
    for workload in listed("workloads") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (code, stdout) = run(&[
                "--workload",
                &workload,
                "--seed",
                "3",
                "--seconds",
                "0.2",
                "--scale",
                "0.02",
                "--trace",
                trace,
            ]);
            assert_eq!(code, Some(0), "{workload} --trace {trace}");
            let line = stdout.lines().last().expect("a result line");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": ")
                    && line.contains("\"failed\": 0, "),
                "{workload} --trace {trace}: {line}"
            );
            assert_eq!(printed(line), listed(section), "{workload} --trace {trace}");
        }
    }
}

#[test]
fn full_mode_writes_a_result_file_compare_reads() {
    let out = std::env::temp_dir().join(format!("kbench-smoke-{}.json", std::process::id()));
    let out_arg = out.to_str().expect("a UTF-8 temp path");
    let (code, stdout) = run(&[
        "motd-write-heavy",
        "--seed",
        "5",
        "--runs",
        "2",
        "--seconds",
        "0.2",
        "--scale",
        "0.02",
        "--out",
        out_arg,
    ]);
    // 3 is "the layers did not reconcile": a timing verdict, and at
    // this scale an audit takes a third of a millisecond.
    assert!(matches!(code, Some(0 | 3)), "full mode failed:\n{stdout}");
    assert!(stdout.contains(" 0 failed, "), "{stdout}");
    assert!(stdout.contains("audit_ms_p50") && stdout.contains("verifier.reconcile_pct"));
    assert!(stdout.trim_end().ends_with("\"claim\": null"));
    let written = std::fs::read_to_string(&out).expect("--out was written");
    assert!(written.trim_end().ends_with("\"claim\": null\n}"));

    let compared = Command::new(EXE)
        .args(["compare", out_arg, out_arg])
        .output()
        .expect("compare starts");
    let _ = std::fs::remove_file(&out);
    let table = String::from_utf8_lossy(&compared.stdout);
    assert!(
        compared.status.success(),
        "a file against itself is never worse"
    );
    assert!(
        table.contains("motd-write-heavy") && !table.contains("worse"),
        "{table}"
    );
}

#[test]
fn refuses_a_debug_build_and_unknown_input() {
    if cfg!(debug_assertions) {
        let out = Command::new(EXE).arg("wiki-mix").output().expect("starts");
        assert_eq!(out.status.code(), Some(2));
    }
    let out = Command::new(EXE)
        .args(["--allow-debug", "--workload", "no-such", "--trace", "0"])
        .output()
        .expect("starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "no result is printed for a refused run"
    );
}
