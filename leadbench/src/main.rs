//! Command line: `leadbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints a digest line, then the JSON result as the last
//! line of standard output.

use leadbench::workloads::{run, RunSpec, Workload};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<RunSpec, String> {
    let mut spec = RunSpec {
        workload: Workload::DetectFig8,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => spec.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                spec.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(spec.seconds.is_finite() && spec.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got `{value}`"));
                }
            }
            "--trace" => {
                spec.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                };
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    spec.workload = workload.ok_or("missing --workload (detect_fig8|stream_day|fit_small)")?;
    Ok(spec)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(spec) {
        Ok(out) => {
            if let Some(raw) = &out.raw {
                println!("{raw}");
            }
            println!(
                "digest {} seed {} {:016x}",
                spec.workload.name(),
                spec.seed,
                out.digest
            );
            println!("{}", out.report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
