//! The all-workloads runner and the benchmark's checks on itself.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::report::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::spec::{Spec, SpecMetric};
use crate::workloads::{self, RunCfg};

/// Run `e2e --workload …` as a child process and return its standard
/// output. Each workload gets a process of its own so CPU time, peak memory
/// and leftover state do not leak from one into the next.
fn run_child(name: &str, cfg: &RunCfg, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if cfg.quick {
        cmd.arg("--quick");
    }
    // `output()` waits for the child to end.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{name} (trace={traced}) exited with {}:\n{stdout}",
            out.status
        ));
    }
    Ok(stdout)
}

/// All four workloads, untraced then traced, `runs` times; prints every
/// report and writes the records to `out` (default
/// `<target>/e2e/result-seed<seed>.json`).
pub fn run_all(cfg: &RunCfg, runs: usize, out: Option<&Path>) -> ExitCode {
    let mut records = Vec::new();
    for run in 0..runs {
        for name in workloads::NAMES {
            for traced in [false, true] {
                eprintln!(
                    "e2e: run {}/{runs} {name} trace={}",
                    run + 1,
                    u8::from(traced)
                );
                let stdout = match run_child(name, cfg, traced) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("e2e: {e}");
                        return ExitCode::from(1);
                    }
                };
                for line in stdout.lines() {
                    match line.strip_prefix("#record ") {
                        Some(rec) => match Json::parse(rec) {
                            Ok(j) => records.push(j),
                            Err(e) => {
                                eprintln!("e2e: unreadable record from {name}: {e}");
                                return ExitCode::from(1);
                            }
                        },
                        None => println!("{line}"),
                    }
                }
            }
        }
    }
    let path: PathBuf = out
        .map(Path::to_path_buf)
        .unwrap_or_else(|| workloads::artefact_dir().join(format!("result-seed{}.json", cfg.seed)));
    let file = Json::obj([
        ("quick", Json::Bool(cfg.quick)),
        ("records", Json::Arr(records)),
    ]);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, file.render() + "\n"));
    match written {
        Ok(()) => {
            println!("# records written to {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e: cannot write {}: {e}", path.display());
            ExitCode::from(1)
        }
    }
}

/// Recorded and recomputed stream fingerprints.
pub fn print_fingerprints() {
    for (name, recorded, got) in fingerprints() {
        let mark = if recorded == got { "ok" } else { "MISMATCH" };
        println!("{name:<22} recorded {recorded:#018x}  computed {got:#018x}  {mark}");
    }
}

fn fingerprints() -> Vec<(&'static str, u64, u64)> {
    use workloads::{browse, failover, order, tenants};
    vec![
        (browse::NAME, browse::FINGERPRINT, browse::fingerprint()),
        (order::NAME, order::FINGERPRINT, order::fingerprint()),
        (tenants::NAME, tenants::FINGERPRINT, tenants::fingerprint()),
        (
            failover::NAME,
            failover::FINGERPRINT,
            failover::fingerprint(),
        ),
    ]
}

fn same_metrics(what: &str, spec: &[SpecMetric], ours: &[MetricDef]) -> Result<(), String> {
    let in_spec: Vec<&str> = spec.iter().map(|m| m.name.as_str()).collect();
    let in_binary: Vec<&str> = ours.iter().map(|m| m.name).collect();
    if in_spec != in_binary {
        return Err(format!(
            "{what}: BENCHMARK.json lists [{}], the binary reports [{}]",
            in_spec.join(", "),
            in_binary.join(", ")
        ));
    }
    for (s, o) in spec.iter().zip(ours) {
        if s.unit != o.unit || s.better != o.better {
            return Err(format!(
                "{what}.{}: BENCHMARK.json says {} / {}, the binary {} / {}",
                s.name,
                s.unit,
                s.better.as_str(),
                o.unit,
                o.better.as_str()
            ));
        }
    }
    Ok(())
}

/// `git status --porcelain` of the current directory, if it is a work tree.
fn git_status() -> Option<String> {
    let out = Command::new("git")
        .args(["status", "--porcelain"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The benchmark checks itself: `BENCHMARK.json` agrees with the binary,
/// the stream fingerprints hold, and a smoke run writes no tracked file.
pub fn run(spec_path: &Path) -> ExitCode {
    let mut failed = 0;
    let mut report = |name: &str, verdict: Result<String, String>| match verdict {
        Ok(note) => println!("self-test {name:<34} ok {note}"),
        Err(why) => {
            failed += 1;
            println!("self-test {name:<34} FAILED: {why}");
        }
    };

    let spec = Spec::load(spec_path);
    report(
        "spec_matches_binary",
        spec.as_ref().map_err(Clone::clone).and_then(|spec| {
            same_metrics("end_to_end", &spec.end_to_end, END_TO_END)?;
            same_metrics("per_layer", &spec.per_layer, PER_LAYER)?;
            if spec.workloads != workloads::NAMES {
                return Err(format!("workloads differ: {:?}", spec.workloads));
            }
            if spec.run_seconds != crate::DEFAULT_SECONDS {
                return Err(format!(
                    "run_seconds {} but the binary defaults to {}",
                    spec.run_seconds,
                    crate::DEFAULT_SECONDS
                ));
            }
            let setup = spec
                .end_to_end_metric("setup_s")
                .ok_or("no setup_s metric")?;
            if setup.better != Better::Lower || setup.unit != "s" {
                return Err("setup_s must be in s, lower is better".into());
            }
            if let Some(m) = spec
                .end_to_end
                .iter()
                .find(|m| !matches!(m.bound, Some(b) if b > 0.0 && b <= 0.25))
            {
                return Err(format!("{}: bound outside (0, 0.25]", m.name));
            }
            Ok(format!(
                "({} + {} metrics, {} workloads)",
                spec.end_to_end.len(),
                spec.per_layer.len(),
                spec.workloads.len()
            ))
        }),
    );

    report(
        "stream_fingerprints",
        fingerprints()
            .into_iter()
            .try_for_each(|(name, recorded, got)| {
                (recorded == got)
                    .then_some(())
                    .ok_or_else(|| format!("{name}: recorded {recorded:#x}, computed {got:#x}"))
            })
            .map(|()| String::new()),
    );

    // A smoke run must leave the work tree exactly as it found it.
    let cfg = RunCfg {
        seed: 1,
        seconds: 2.0,
        traced: true,
        quick: true,
    };
    let before = git_status();
    let smoke = run_child(workloads::tenants::NAME, &cfg, true);
    report("smoke_run_tenants_zipf_open", smoke.map(|_| String::new()));
    report(
        "no_tracked_file_written",
        match (before, git_status()) {
            (Some(b), Some(a)) if a == b => Ok(String::new()),
            (Some(b), Some(a)) => Err(format!(
                "git status changed across the run:\n--- before\n{b}--- after\n{a}"
            )),
            _ => Ok("(skipped: not a git work tree)".into()),
        },
    );

    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
