//! Steadiness mode: run a workload several times, each in a fresh
//! process on the next seed, and print the median, quartiles and spread
//! (`(q3 − q1) / median`) of every end-to-end metric — the figures the
//! bounds in `BENCHMARK.json` are set and checked against.

use crate::report::END_TO_END;
use crate::stats::quartiles;
use crate::Args;
use std::process::{Command, ExitCode, Stdio};

/// The value of metric `name` in a result line, or `None`.
fn metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find(',')?;
    rest[..end].trim().parse().ok()
}

/// A whole-number field (`attempted`, `failed`) of a result line.
fn count(line: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find(',')?;
    rest[..end].trim().parse().ok()
}

pub fn run(args: &Args, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("auditbench: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut failed_shares = Vec::new();
    for k in 0..runs as u64 {
        let seed = args.seed + k;
        let out = Command::new(&exe)
            .args(["--workload", args.workload.name(), "--seed"])
            .arg(seed.to_string())
            .arg("--seconds")
            .arg(args.seconds.to_string())
            .args(["--trace", "0"])
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("auditbench: seed {seed} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("auditbench: seed {seed} did not start: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let mut row = Vec::new();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            let Some(v) = metric(line, name) else {
                eprintln!("auditbench: seed {seed} printed no {name}: {line}");
                return ExitCode::FAILURE;
            };
            values[i].push(v);
            row.push(format!("{name}={v:.6}"));
        }
        let attempted = count(line, "attempted").unwrap_or(0);
        let failed = count(line, "failed").unwrap_or(0);
        failed_shares.push(failed as f64 / attempted.max(1) as f64);
        println!(
            "seed {seed}: attempted={attempted} failed={failed} {}",
            row.join(" ")
        );
    }
    println!(
        "{:<18} {:>14} {:>14} {:>14} {:>8}",
        "metric", "q1", "median", "q3", "spread"
    );
    for (i, (name, unit)) in END_TO_END.iter().enumerate() {
        let (q1, med, q3) = quartiles(&values[i]);
        println!(
            "{:<18} {:>14.6} {:>14.6} {:>14.6} {:>7.2}%  ({unit})",
            name,
            q1,
            med,
            q3,
            (q3 - q1) / med * 100.0
        );
    }
    let same = failed_shares.windows(2).all(|w| w[0] == w[1]);
    println!(
        "failed share: {:?}{}",
        failed_shares[0],
        if same {
            " in every run"
        } else {
            " (differs between runs)"
        }
    );
    ExitCode::SUCCESS
}
