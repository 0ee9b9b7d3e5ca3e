//! `amrbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds`, checks every output, writes its
//! artifacts under `benchmark/out/`, and prints one JSON object as the
//! last line of standard output: `correct`, `attempted`, `failed` and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`).

use amrbench::report::{provenance, END_TO_END, PER_LAYER};
use amrbench::{out_dir, run_workload, write_artifacts, Scratch, WORKLOADS};
use serde_json::json;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("amrbench: {msg}");
    eprintln!(
        "usage: amrbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    let out = out_dir();
    let scratch = match Scratch::new(&out) {
        Ok(s) => s,
        Err(e) => {
            return usage(&format!(
                "cannot create scratch space under {}: {e}",
                out.display()
            ))
        }
    };
    let outcome = run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &scratch,
    );
    drop(scratch);
    if let Err(e) = write_artifacts(
        &out,
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &outcome,
    ) {
        eprintln!("amrbench: writing artifacts failed: {e}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let prov = provenance(&args.workload, args.seed, args.seconds, args.trace);
    println!(
        "provenance {}",
        serde_json::to_string(&prov).unwrap_or_default()
    );
    println!(
        "passes {} error_rate {} simulated {:?}",
        outcome.passes,
        outcome.checks.error_rate(),
        outcome.simulated
    );
    let result = json!({
        "correct": outcome.checks.failed == 0 && outcome.checks.attempted > 0,
        "attempted": outcome.checks.attempted.max(1),
        "failed": outcome.checks.failed,
        "metrics": (if args.trace { &outcome.per_layer } else { &outcome.end_to_end }).render(table)
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    ExitCode::SUCCESS
}
