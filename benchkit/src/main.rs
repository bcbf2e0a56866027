//! `benchkit --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload once and prints, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

use benchkit::metrics::{result_line, END_TO_END, PER_LAYER};
use benchkit::run::{run, Options};
use benchkit::workloads::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: benchkit::sys::CountingAllocator = benchkit::sys::CountingAllocator;

const USAGE: &str =
    "usage: benchkit --workload <wide_regions|dense_clients|many_topics|sim_heavy> \
                     --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("benchkit/out");
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return Err(format!("{} needs a value", pair[0])) };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
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
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

fn main() -> ExitCode {
    benchkit::sys::pin_malloc_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("benchkit: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let declared: &[(&str, &str)] = if options.trace { &PER_LAYER } else { &END_TO_END };
    let line = run(&options).and_then(|output| {
        output.notes.iter().for_each(|note| println!("{note}"));
        result_line(declared, &output.values, output.attempted, output.failed)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("benchkit: {message}");
            ExitCode::FAILURE
        }
    }
}
