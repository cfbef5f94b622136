//! `sia-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric by name with its unit, then one
//! JSON result line. Exits 0 when every output check passed, 1 when one
//! failed (after printing the result), 2 on a usage or set-up error.

use sia_e2ebench::{accel, eval, output, serve};
use std::process::ExitCode;

const USAGE: &str = "usage: sia-e2ebench --workload eval-fixed|serve-exit-open|accel-sim \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sia-e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "eval-fixed" => eval::run,
        "serve-exit-open" => serve::run,
        "accel-sim" => accel::run,
        other => {
            eprintln!("sia-e2ebench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# sia-e2ebench workload={} seed={} seconds={} trace={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        output::git_commit()
    );
    let result = match run(args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sia-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = output::write_record(&result, &args.workload, args.seed, args.trace) {
        eprintln!("sia-e2ebench: {e}");
        return ExitCode::from(2);
    }
    print!("{}", output::summary(&result));
    println!("{}", output::result_line(&result));
    if output::correct(&result) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
