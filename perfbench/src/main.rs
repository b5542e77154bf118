//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --dir <store dir> [--trace-file <path>]`
//!
//! Prints report lines, then one JSON result line. Exits 1 on a wrong
//! answer and 2 on bad arguments or an infrastructure failure.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::spec::Workload;
use perfbench::{run, RunArgs};

/// Set-ups per end-to-end run: at least this many, and until
/// `SETUP_BUDGET` has passed; `setup_s` is their median.
const SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Idle time before each window's set-up: within 5 s of CPU-heavy
/// work, `ingest` ran in its fast mode; after 10 s of idle, in its slow
/// mode every time.
const COOLDOWN: Duration = Duration::from_secs(10);
/// Unmeasured run before each window.
const WARMUP: Duration = Duration::from_secs(3);

fn parse() -> Result<RunArgs, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut dir = None;
    let mut trace_file = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--dir" => dir = Some(PathBuf::from(value)),
            "--trace-file" => trace_file = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        dir: dir.ok_or("--dir is required")?,
        setups: SETUPS,
        setup_budget: SETUP_BUDGET,
        cooldown: COOLDOWN,
        warmup: WARMUP,
        wrap: None,
        trace_file,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for line in &out.lines {
                println!("# {line}");
            }
            println!("{}", out.json());
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
