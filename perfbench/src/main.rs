//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Run from the repository root. Inputs are generated from the seed by a
//! child process (so the measuring process starts with no memory freed by
//! generation still resident, which `peak_rss_mb` would count) and cached
//! under `.bench_work/`; the run then measures for `S` seconds and prints
//! a provenance line followed by the result object as the last line.

use std::path::Path;
use std::process::{Command, ExitCode};
use tlp_perfbench::inputs::{InputKind, InputSet};
use tlp_perfbench::{Config, Scale, Workload};

const WORK_DIR: &str = ".bench_work";
const USAGE: &str = "usage: perfbench --workload tlp-cl200k|stream-rmat1m|serve-rmat1m \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: Option<Workload>,
    generate: Option<InputKind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        generate: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--generate" => {
                args.generate = Some(
                    InputKind::parse(value).ok_or_else(|| format!("unknown input {value:?}"))?,
                );
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed is not a whole number: {value:?}"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds is not a positive number: {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_none() && args.generate.is_none() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Generates the inputs in a child process unless they are cached.
fn ensure_inputs(inputs: &InputSet, kind: InputKind, seed: u64) -> Result<(), String> {
    if inputs.is_ready() {
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let status = Command::new(exe)
        .args(["--generate", kind.name(), "--seed", &seed.to_string()])
        .status()
        .map_err(|e| format!("start input generation: {e}"))?;
    if !status.success() || !inputs.is_ready() {
        return Err(format!("input generation failed ({status})"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work_dir = Path::new(WORK_DIR);
    if let Some(kind) = args.generate {
        return match InputSet::locate(work_dir, kind, args.seed)
            .and_then(|inputs| inputs.generate(args.seed, &Scale::FULL))
        {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = args.workload.expect("checked by parse_args");
    let config = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: work_dir.to_path_buf(),
        scale: Scale::FULL,
        flip_one_partition_id: false,
    };
    let result = InputSet::locate(work_dir, workload.input(), args.seed).and_then(|inputs| {
        ensure_inputs(&inputs, workload.input(), args.seed)?;
        tlp_perfbench::run(&config, &inputs)
    });
    match result {
        Ok(report) => {
            println!("{}", report.context_line());
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
