//! The repository benchmark: three workloads against the default engine
//! and server configuration, end-to-end metrics from untraced runs and
//! per-layer metrics from a separate traced run. See `README.md`.

pub mod closed;
pub mod data;
pub mod hybrid;
pub mod layers;
pub mod loadgen;
pub mod reach;
pub mod refs;
pub mod report;
pub mod serve;
pub mod speed;
pub mod stats;
pub mod sys;
pub mod trace;

use std::path::Path;

use report::Outcome;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["reach-prepared", "hybrid-adhoc", "serve-rw"];

/// The workloads `BENCHMARK.json` lists. `reach-prepared` runs and checks
/// its answers like the others but is left out: its topology is larger
/// than the L3 cache by design, so its figures follow the share of L3 the
/// host's other tenants leave, and they moved by up to 38% between two
/// sets of ten runs of the same code (see `README.md`).
pub const MEASURED: [&str; 2] = ["hybrid-adhoc", "serve-rw"];

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const USAGE: &str =
    "usage: perfbench --workload <reach-prepared|hybrid-adhoc|serve-rw> --seed <n> --seconds <n> --trace <0|1>";

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => {
                    workload = Some(value.clone())
                }
                "--workload" => return Err(format!("unknown workload `{value}`")),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<u32>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if s == 0 {
                        return Err("--seconds must be at least 1".into());
                    }
                    seconds = Some(f64::from(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Directory the run record and spans are written to.
pub const OUT_DIR: &str = "perfbench/out";

/// Finish a traced run: read the engine's topology and epoch statistics,
/// run the self-time check, report the per-layer metrics, fail the run if
/// the check failed, and write the spans out.
pub fn finish_trace(
    out: &mut Outcome,
    layers: &mut layers::Layers,
    db: &grfusion::Database,
    load: data::LoadTimes,
    tr: &trace::Tracer,
    args: &Args,
) -> grfusion_common::Result<()> {
    layers.engine_stats(db, load)?;
    layers.check_self_times(tr.spans());
    out.attempted = layers.ops;
    layers.report(out);
    if layers.sum_check_failures > 0 {
        eprintln!(
            "perfbench: {} of {} traced ops outside the self-time tolerance (worst gap {} ns)",
            layers.sum_check_failures, layers.ops, layers.sum_check_worst_ns
        );
    }
    if !layers.self_times_add_up() {
        out.problem(format!(
            "{} of {} traced ops: span self times do not add up to the op's wall time (worst gap {} ns)",
            layers.sum_check_failures, layers.ops, layers.sum_check_worst_ns
        ));
    }
    let path = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, tr.to_jsonl()))
    {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    Ok(())
}
