//! `e2e_bench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload of the daenerys end-to-end benchmark from the root
//! of a checkout, prints a table of every metric with its unit and
//! sample count, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Scratch stores live under `.bench_work/` and are
//! removed at exit; the spans and the table of the run are kept under
//! `.bench_out/`.

use daenerys_e2e_bench::{run, Options, Size, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("e2e_bench: {}", msg);
    eprintln!(
        "usage: e2e_bench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("{} needs a value", args[i]));
        };
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {}", other)),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {:?}", workload));
    }
    let tag = format!("{}-s{}-t{}", workload, seed, u8::from(trace));
    let work_dir = PathBuf::from(".bench_work").join(&tag);
    let out_dir = PathBuf::from(".bench_out").join(&tag);
    let _ = std::fs::remove_dir_all(&work_dir);
    if let Err(e) =
        std::fs::create_dir_all(&work_dir).and_then(|()| std::fs::create_dir_all(&out_dir))
    {
        eprintln!("e2e_bench: cannot create work directories: {}", e);
        return ExitCode::FAILURE;
    }
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
        work_dir: work_dir.clone(),
    };
    let report = run(&opts);
    let table = report.table();
    print!("{}", table);
    let _ = std::fs::write(out_dir.join("table.txt"), &table);
    let _ = std::fs::rename(work_dir.join("spans.jsonl"), out_dir.join("spans.jsonl"));
    let _ = std::fs::remove_dir_all(&work_dir);
    let names = if trace { PER_LAYER } else { END_TO_END };
    println!("{}", report.json_line(names));
    ExitCode::SUCCESS
}
