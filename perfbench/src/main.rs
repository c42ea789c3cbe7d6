//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--out DIR]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, and the spans and a layer summary are written
//! under `--out` (default `perfbench/out`). A failed oracle check shows as
//! `"correct": false`.

use perfbench::{run, Opts, Sizes, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <uts-32|uts-1024|gups-msgs|kv-mix> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::Uts32,
        seed: 19,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("perfbench/out"),
        sizes: Sizes::full(),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(val).ok_or_else(bad)?),
            "--seed" => opts.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => opts.out_dir = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            opts.seconds
        ));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} for {} s{} — {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        if opts.trace { ", traced" } else { "" },
        opts.workload.why()
    );
    println!("{}", run(&opts).to_json());
    ExitCode::SUCCESS
}
