//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a run header on stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. Exits non-zero
//! when any output check fails or the run cannot be made.

use std::path::Path;
use std::process::ExitCode;

use perfbench::report::{escape, result_line};
use perfbench::{hybrid, reach, serve, sys, Args, OUT_DIR, USAGE};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = sys::engine_knobs_set();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with engine knobs set ({}); the benchmark measures the default configuration",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let commit = sys::commit(Path::new("."));
    let nproc = sys::nproc();
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} commit={commit} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = match args.workload.as_str() {
        "reach-prepared" => reach::run(&args),
        "hybrid-adhoc" => hybrid::run(&args),
        _ => serve::run(&args),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            return ExitCode::from(1);
        }
    };
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    eprintln!("perfbench: samples {}", samples.join(" "));
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"commit\": \"{}\", \"nproc\": {nproc}, \"samples\": {{{}}}, \"result\": {}}}\n",
        escape(&args.workload),
        args.seed,
        u8::from(args.trace),
        escape(&commit),
        out.samples.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect::<Vec<_>>().join(", "),
        result_line(&out)
    );
    let path = Path::new(OUT_DIR).join(format!(
        "run-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, record)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    if !out.correct {
        eprintln!("perfbench: output checks failed");
        return ExitCode::from(1);
    }
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}
