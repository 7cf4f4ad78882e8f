//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! grtx-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! grtx-perfbench --workload <name> --print-pins
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use grtx_perfbench::{pin_source, provenance, run, Config, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: grtx-perfbench --workload <lineup-multiround|lineup-k64|stream-rebuild> \
                     [--seed <n> (default 42)] [--seconds <s> (default 20)] [--trace <0|1>] [--print-pins]";

/// Parsed command line.
struct Args {
    config: Config,
    print_pins: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut print_pins) =
        (None, DEFAULT_SEED, 20.0, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--print-pins" => print_pins = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        config: Config::new(workload, seed, seconds, trace),
        print_pins,
    })
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("error: the benchmark measures host time and refuses a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = args.config;
    if args.print_pins {
        print!("{}", pin_source(&config));
        return ExitCode::SUCCESS;
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        config.workload.name(),
        config.seed,
        config.seconds,
        u8::from(config.trace)
    );
    println!("provenance {}", provenance::json(config.threads));
    let report = run(&config);
    for metric in &report.metrics.list {
        println!("{:<40} {:>18.6} {}", metric.name, metric.value, metric.unit);
    }
    for note in &report.metrics.notes {
        println!("note: {note}");
    }
    for problem in &report.tally.problems {
        println!("check failed: {problem}");
    }
    if let Some(trace) = &report.trace_json {
        match write_trace(&config, trace) {
            Ok(path) => println!("trace written to {path}"),
            Err(e) => println!("check failed: trace not written: {e}"),
        }
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}

/// Writes the Chrome trace under the build directory
/// (`$CARGO_TARGET_DIR`, else `perfbench/target`) and returns its path.
fn write_trace(config: &Config, trace: &str) -> std::io::Result<String> {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".to_string()),
    )
    .join("perfbench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{}.json",
        config.workload.name(),
        config.seed
    ));
    std::fs::write(&path, trace)?;
    Ok(path.display().to_string())
}
