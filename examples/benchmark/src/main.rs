//! The repository's benchmark: five workloads, the end-to-end metrics a
//! participant of the confederation would see, and a per-layer budget traced
//! from outside the program. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! benchmark --workload W --seed S --seconds T --trace 0|1   one run (what the benchmark driver calls)
//! benchmark one  --workload W [--seed S] [--seconds T] [--trace 0|1] [--trace-out FILE]
//! benchmark run  [--seed 42] [--repeats 5] [--seconds 15] [--out target/benchmark]
//! benchmark verify [--seed 42]
//! benchmark compare A/results.tsv B/results.tsv
//! benchmark selftest
//! benchmark benchmark-json                                   prints BENCHMARK.json
//! ```
//!
//! A run prints one line per metric (`workload⇥metric⇥value⇥unit⇥n`) and, as
//! its last line, the JSON object the benchmark driver reads.

mod calibration;
mod compare;
mod metrics;
mod probes;
mod runner;
mod selftest;
mod timed_store;
mod trace;
mod verify;
mod workloads;

use compare::{Results, Row};
use metrics::{benchmark_json, result_json, tsv_lines, Check, PER_LAYER, RUN_SECONDS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use workloads::{Size, Workload};

const DEFAULT_SEED: u64 = 42;

/// Command-line flags, all optional on the command line; each subcommand
/// reads the ones it knows.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<u8>,
    trace_out: Option<PathBuf>,
    repeats: Option<usize>,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn usage(problem: &str) -> ! {
    eprintln!("benchmark: {problem}");
    eprintln!(
        "usage: benchmark [one] --workload <{}> [--seed N] [--seconds T] [--trace 0|1] \
         [--trace-out FILE]\n       benchmark run [--seed N] [--repeats N] [--seconds T] [--out DIR]\n       \
         benchmark verify [--seed N] | compare A B | selftest | benchmark-json",
        Workload::ALL.map(Workload::name).join("|")
    );
    exit(2)
}

fn parse_flags(args: &[String]) -> Flags {
    let mut flags = Flags::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().cloned().unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> T {
            text.parse().unwrap_or_else(|_| usage(&format!("{flag}: cannot read {text:?}")))
        }
        match arg.as_str() {
            "--workload" => flags.workload = Some(value(arg)),
            "--seed" => flags.seed = Some(number(arg, value(arg))),
            "--seconds" => flags.seconds = Some(number(arg, value(arg))),
            "--trace" => flags.trace = Some(number(arg, value(arg))),
            "--trace-out" => flags.trace_out = Some(PathBuf::from(value(arg))),
            "--repeats" => flags.repeats = Some(number(arg, value(arg))),
            "--out" => flags.out = Some(PathBuf::from(value(arg))),
            flag if flag.starts_with("--") => usage(&format!("unknown flag {flag}")),
            _ => flags.positional.push(arg.clone()),
        }
    }
    flags
}

/// A per-process directory for durability directories and probe files,
/// inside the build directory so a run writes nowhere else in its checkout.
fn scratch_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    let dir = target.join("benchmark-scratch").join(std::process::id().to_string());
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| usage(&format!("cannot create {}: {e}", dir.display())));
    dir
}

/// Leaves the process without running destructors: the last iteration's
/// confederation takes a noticeable time to drop and nothing reads it again.
fn finish(scratch: &Path, code: i32) -> ! {
    std::fs::remove_dir_all(scratch).ok();
    exit(code)
}

fn one(flags: &Flags) -> ! {
    let name = flags.workload.as_deref().unwrap_or_else(|| usage("--workload is required"));
    let workload =
        Workload::from_name(name).unwrap_or_else(|| usage(&format!("unknown workload {name:?}")));
    let traced = match flags.trace.unwrap_or(0) {
        0 => false,
        1 => true,
        other => usage(&format!("--trace takes 0 or 1, not {other}")),
    };
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let seconds = flags.seconds.unwrap_or(RUN_SECONDS as f64);
    let scratch = scratch_dir();
    let output = runner::measure(workload, Size::Bench, seed, seconds, traced, &scratch);
    if let (Some(path), Some(recording)) = (&flags.trace_out, &output.recording) {
        if let Err(e) = std::fs::write(path, trace::to_json(workload.name(), seed, recording)) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
        }
    }
    if workload == Workload::FabricWave && traced {
        println!(
            "# fabric_wave: run_fabric_round exists only on CdssSystem<StoreFabric>, so the store \
             cannot be decorated; its budget is orchestra.round_self_s plus the fabric's counters"
        );
    }
    println!("# {} iterations, seed {seed}, trace {}", output.iterations, u8::from(traced));
    print!("{}", tsv_lines(workload, &output.all_metrics));
    println!("{}", result_json(output.attempted, output.failed, &output.driver_metrics));
    finish(&scratch, i32::from(output.failed != 0))
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Runs one child process (`one`) and returns the metric lines it printed.
fn spawn_one(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &Path,
) -> Vec<(String, f64, usize)> {
    let exe = std::env::current_exe().expect("own executable");
    let mut command = Command::new(exe);
    command
        .arg("one")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if traced {
        command.arg("--trace-out").arg(out.join(format!("trace.{}.json", workload.name())));
    }
    let output = command.output().expect("child process runs");
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        eprintln!(
            "benchmark: {} (trace {}) exited with {}",
            workload.name(),
            u8::from(traced),
            output.status
        );
        exit(1);
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split('\t').collect();
            (fields.len() == 5 && fields[0] == workload.name()).then(|| {
                (
                    fields[1].to_string(),
                    fields[2].parse().unwrap_or(0.0),
                    fields[4].parse().unwrap_or(0),
                )
            })
        })
        .collect()
}

/// `run`: every workload `repeats` times untraced — each repeat in a fresh
/// child process, repeats scheduled round-robin across workloads so host
/// drift and run order do not land on one workload — then once traced.
fn run(flags: &Flags) -> ! {
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let repeats = flags.repeats.unwrap_or(5).max(1);
    let seconds = flags.seconds.unwrap_or(RUN_SECONDS as f64);
    let out = flags.out.clone().unwrap_or_else(|| PathBuf::from("target/benchmark"));
    std::fs::create_dir_all(&out)
        .unwrap_or_else(|e| usage(&format!("cannot create {}: {e}", out.display())));

    let mut samples: BTreeMap<(String, String), (Vec<f64>, usize)> = BTreeMap::new();
    let mut record = |workload: Workload, lines: Vec<(String, f64, usize)>, layer: bool| {
        for (metric, value, n) in lines {
            // Per-layer metrics come from the traced run, everything else
            // from the untraced repeats.
            if PER_LAYER.iter().any(|d| d.name == metric) == layer {
                let entry = samples.entry((workload.name().to_string(), metric)).or_default();
                entry.0.push(value);
                entry.1 = n;
            }
        }
    };
    for repeat in 0..repeats {
        for workload in Workload::ALL {
            eprintln!("run: {} repeat {}/{repeats}", workload.name(), repeat + 1);
            record(workload, spawn_one(workload, seed, seconds, false, &out), false);
        }
    }
    for workload in Workload::ALL {
        eprintln!("run: {} traced", workload.name());
        record(workload, spawn_one(workload, seed, seconds, true, &out), true);
    }

    let results: Results =
        samples.into_iter().map(|(key, (values, n))| (key, Row::from_values(&values, n))).collect();
    let stamp = format!(
        "nproc={} git={} rustc={} profile={} seed={seed} repeats={repeats} seconds={seconds}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        command_output("git", &["rev-parse", "--short", "HEAD"]),
        command_output("rustc", &["-V"]).replace(' ', "_"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    let write = |name: &str, content: String| {
        std::fs::write(out.join(name), content)
            .unwrap_or_else(|e| usage(&format!("cannot write {name}: {e}")));
    };
    write("results.tsv", compare::render(&stamp, &results));
    write("BENCHMARK.json", benchmark_json());

    println!("# {stamp}");
    println!("workload\tmetric\tvalue\tunit\tn\tspread");
    for ((workload, metric), row) in &results {
        let def = metrics::lookup(metric);
        let spread = match def.map(|d| d.check) {
            Some(Check::Bound(bound)) if row.runs >= 2 => {
                format!(
                    "iqr {:.1}% of median, bound {:.0}%",
                    row.iqr_share() * 100.0,
                    bound * 100.0
                )
            }
            _ => String::new(),
        };
        println!(
            "{workload}\t{metric}\t{}\t{}\t{}\t{spread}",
            row.median,
            def.map_or("", |d| d.unit),
            row.n
        );
    }
    let failed = Workload::ALL.iter().any(|w| {
        results
            .get(&(w.name().to_string(), "orchestra.failed_ops".to_string()))
            .map_or(true, |r| r.median != 0.0)
    });
    exit(i32::from(failed))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (subcommand, rest) = match args.first().map(String::as_str) {
        Some(first) if !first.starts_with("--") => (first.to_string(), &args[1..]),
        _ => ("one".to_string(), &args[..]),
    };
    let flags = parse_flags(rest);
    if !flags.positional.is_empty() && subcommand != "compare" {
        usage(&format!("unexpected argument {:?}", flags.positional[0]));
    }
    match subcommand.as_str() {
        "one" => one(&flags),
        "run" => run(&flags),
        "verify" => {
            let scratch = scratch_dir();
            let failed = verify::verify(flags.seed.unwrap_or(DEFAULT_SEED), Size::Bench, &scratch);
            println!("verify: {}", if failed == 0 { "ok" } else { "FAILED" });
            finish(&scratch, i32::from(failed != 0))
        }
        "compare" => {
            let [a, b] = flags.positional.as_slice() else {
                usage("compare takes two results.tsv files");
            };
            let parse =
                |path: &String| compare::parse(Path::new(path)).unwrap_or_else(|e| usage(&e));
            let regressed = compare::compare(&parse(a), &parse(b));
            println!("compare: {regressed} regressed");
            exit(i32::from(regressed != 0))
        }
        "selftest" => {
            let scratch = scratch_dir();
            let failed = selftest::selftest(&scratch);
            println!(
                "selftest: {}",
                if failed == 0 { "ok".to_string() } else { format!("{failed} FAILED") }
            );
            finish(&scratch, i32::from(failed != 0))
        }
        "benchmark-json" => print!("{}", benchmark_json()),
        other => usage(&format!("unknown subcommand {other:?}")),
    }
}
