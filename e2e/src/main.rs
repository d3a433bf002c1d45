//! `e2e` — the repository's one benchmark.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, in this process
//! e2e [--seed <n>] [--seconds <s>] [--runs <k>] [--out <file>]   all four workloads, untraced
//!                                                                 and traced, one child each
//! e2e --compare <a.json> <b.json>                                 judge two result files
//! e2e --self-test                                                 the benchmark checks itself
//! e2e --fingerprints                                              print the stream fingerprints
//! ```
//!
//! `--quick` shrinks data and rates to a tenth for smoke runs. README.md in
//! this package is the catalogue: workloads, metrics, method.

mod checks;
mod compare;
mod drivers;
mod json;
mod layers;
mod proc;
mod report;
mod selftest;
mod spec;
mod stats;
mod stream;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::RunCfg;

/// Window length when `--seconds` is not given; `BENCHMARK.json` records
/// the same number as `run_seconds` (checked by `--self-test`).
pub const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    self_test: bool,
    fingerprints: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        runs: 1,
        ..Default::default()
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => a.workload = Some(value(&mut it, arg)?),
            "--seed" => {
                a.seed = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s}: out of range (0, 600]"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or bare `--trace`.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => a.quick = true,
            "--runs" => {
                a.runs = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if a.runs == 0 || a.runs > 100 {
                    return Err("--runs: 1..=100".into());
                }
            }
            "--out" => a.out = Some(value(&mut it, arg)?.into()),
            "--compare" => {
                let x = value(&mut it, arg)?;
                let y = value(&mut it, arg)?;
                a.compare = Some((x.into(), y.into()));
            }
            "--self-test" => a.self_test = true,
            "--fingerprints" => a.fingerprints = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(a)
}

const USAGE: &str = "usage: e2e [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]] \
[--quick] [--runs <k>] [--out <file>] | --compare <a.json> <b.json> | --self-test | \
--fingerprints";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Run from the repository root, as `BENCHMARK.json`'s command is.
    let spec_path = PathBuf::from("BENCHMARK.json");
    if let Some((a, b)) = &args.compare {
        return match compare::run(&spec_path, a, b) {
            Ok(clean) => {
                if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    if args.self_test {
        return selftest::run(&spec_path);
    }
    if args.fingerprints {
        selftest::print_fingerprints();
        return ExitCode::SUCCESS;
    }
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick {
            DEFAULT_SECONDS / 4.0
        } else {
            DEFAULT_SECONDS
        }),
        traced: args.trace,
        quick: args.quick,
    };
    match &args.workload {
        Some(name) => run_one(name, &cfg),
        None => selftest::run_all(&cfg, args.runs, args.out.as_deref()),
    }
}

/// Run one workload in this process and print its report; the last line of
/// standard output is the result object.
fn run_one(name: &str, cfg: &RunCfg) -> ExitCode {
    // Before any other thread exists, so that all of them inherit it.
    let pinned = proc::pin_to_one_cpu();
    let Some(mut out) = workloads::run(name, cfg) else {
        eprintln!(
            "unknown workload '{name}'; the workloads are: {}",
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    out.notes.insert(
        0,
        match pinned {
            Some(cpu) => format!("every thread pinned to CPU {cpu}"),
            None => {
                "threads not pinned (no affinity call on this platform): expect noisier results"
                    .into()
            }
        },
    );
    print!("{}", out.render_text());
    if cfg.quick {
        println!("quick: true");
    }
    // One line a parent `e2e` collects into its result file.
    println!("#record {}", out.record_json(cfg.quick).render());
    println!("{}", out.result_json().render());
    if !out.correct() {
        // A failed check fails the benchmark, it is not a metric.
        for c in out.checks.iter().filter(|c| c.verdict.is_err()) {
            eprintln!("check failed: {}", c.name);
        }
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
