//! Closed-loop runner shared by the in-process workloads: one client that
//! sends its next statement when the previous one returns.
//!
//! The measured phase repeats one cycle of at least [`MIN_SAMPLES`]
//! distinct statements, each cycle followed by a block of point writes, so
//! every statement and every write slot runs once per cycle. A run keeps,
//! for each statement (and each write slot), its fastest run over all
//! cycles ([`slot_minima`]), and reports the percentiles of those minima and
//! the rate of a cycle made of them, all scaled to the nominal host speed
//! by the fastest reference sample of the run (see [`crate::speed`]).
//!
//! The host only ever adds time. On the 2-vCPU VM this benchmark was built
//! on, it slowed whole stretches of a run by up to 1.5x, for seconds to
//! minutes at a time, so a run's figure follows how much of the run the
//! host disturbed. Over five runs each in a calm and a disturbed period,
//! the quartile spread of the rate was 0.06 and 0.10 with the per-statement
//! minimum; 0.10 and 0.18 with the mean of the better quarter of cycles;
//! 0.18 and 0.11 with the median cycle. What the minimum does not show is
//! a slowdown the program causes on only some runs of a statement (a
//! periodic stall, say): it moves these figures only when it hits every run
//! of some statement.

use std::time::Instant;

use grfusion::Database;
use grfusion_common::Result;

use crate::data::PROBE_ROWS;
use crate::report::Outcome;
use crate::speed::{self, Reference};
use crate::stats::{slot_minima, Latency};

/// Samples a latency class needs for its p99 (ten beyond the 99th rank).
pub const MIN_SAMPLES: usize = 1_000;
/// Point writes per probe block: twenty samples beyond its p99, so that
/// one slow write moves the block's p99 less.
const PROBE_BLOCK: usize = 2_000;
/// Blocks (cycles, for the in-process workloads) a run measures at least,
/// whatever `--seconds` says.
pub const MIN_BLOCKS: usize = 3;

/// The measured phase: whole cycles, each followed by a block of point
/// writes, until `seconds` have passed and at least [`MIN_BLOCKS`] ran.
pub struct Phase {
    /// `reads[c][i]`: latency of the `i`-th statement of cycle `c`, in ns.
    pub reads: Vec<Vec<u64>>,
    /// `writes[c][j]`: latency of the `j`-th write of probe block `c`.
    pub writes: Vec<Vec<u64>>,
    /// A reference sample after each cycle, in ns.
    pub references: Vec<u64>,
    pub failed: u64,
}

/// Run `op(i)` for `i` in `0..cycle` once per cycle.
pub fn measure(
    db: &Database,
    seconds: f64,
    cycle: usize,
    out: &mut Outcome,
    mut op: impl FnMut(usize) -> Result<()>,
) -> Phase {
    let start = Instant::now();
    let mut probe = WriteProbe::new();
    let mut reference = Reference::default();
    let mut phase = Phase {
        reads: Vec::new(),
        writes: Vec::new(),
        references: Vec::new(),
        failed: 0,
    };
    while phase.reads.len() < MIN_BLOCKS || start.elapsed().as_secs_f64() < seconds {
        let mut lat = Vec::with_capacity(cycle);
        for i in 0..cycle {
            let t = Instant::now();
            if op(i).is_err() {
                phase.failed += 1;
            }
            lat.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        phase.reads.push(lat);
        phase.writes.push(probe.block(db, out));
        phase.references.push(reference.sample());
    }
    probe.check(db, out);
    phase
}

/// Point writes of the read-only workloads: PK UPDATEs of the small
/// `bench_probe` side table, run between read blocks so reads never see
/// them. Every write's row count and the table's final contents are checked.
struct WriteProbe {
    last: Vec<i64>,
    n: i64,
}

impl WriteProbe {
    fn new() -> WriteProbe {
        WriteProbe {
            last: vec![0; usize::try_from(PROBE_ROWS).expect("small table")],
            n: 0,
        }
    }

    fn block(&mut self, db: &Database, out: &mut Outcome) -> Vec<u64> {
        let mut lat = Vec::with_capacity(PROBE_BLOCK);
        for _ in 0..PROBE_BLOCK {
            self.n += 1;
            let id = usize::try_from(self.n).expect("positive") % self.last.len();
            let sql = format!("UPDATE bench_probe SET n = {} WHERE id = {id}", self.n);
            let t = Instant::now();
            let r = db.execute(&sql);
            lat.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
            out.attempted += 1;
            match r {
                Ok(rs) if rs.rows_affected == 1 => self.last[id] = self.n,
                Ok(rs) => out.problem(format!("`{sql}` affected {} rows", rs.rows_affected)),
                Err(e) => {
                    out.failed += 1;
                    out.problem(format!("`{sql}` failed: {e}"));
                }
            }
        }
        lat
    }

    fn check(&self, db: &Database, out: &mut Outcome) {
        match db.execute("SELECT id, n FROM bench_probe") {
            Ok(rs) => {
                let mut got = vec![None; self.last.len()];
                for row in &rs.rows {
                    if let (Ok(id), Ok(n)) = (row[0].as_integer(), row[1].as_integer()) {
                        if let Some(slot) = usize::try_from(id).ok().and_then(|i| got.get_mut(i)) {
                            *slot = Some(n);
                        }
                    }
                }
                if got.iter().zip(&self.last).any(|(g, &w)| *g != Some(w)) {
                    out.problem(
                        "bench_probe does not hold the last value written to each row".into(),
                    );
                }
            }
            Err(e) => out.problem(format!("reading bench_probe failed: {e}")),
        }
    }
}

/// The end-to-end metrics of a closed-loop workload, given the measured
/// `setup_s`; every time is scaled to the nominal host speed.
pub fn report(out: &mut Outcome, setup_s: f64, phase: &Phase, rss_mb: f64) {
    let reads: usize = phase.reads.iter().map(Vec::len).sum();
    out.attempted += reads as u64; // cast-ok: count
    out.failed += phase.failed;
    if phase.failed > 0 {
        out.problem(format!(
            "{} reads failed or returned wrong answers",
            phase.failed
        ));
    }
    // The run's fastest reference sample, to go with each statement's
    // fastest run.
    let reference_ns = phase.references.iter().copied().min().unwrap_or(0);
    let k = speed::scale(reference_ns);
    let scaled = |v: Vec<u64>| -> Vec<u64> {
        v.into_iter()
            .map(|ns| (ns as f64 * k).round() as u64) // cast-ok: ns scaled by a factor near 1
            .collect()
    };
    let read_min = scaled(slot_minima(&phase.reads));
    // Statements per second of one cycle run at those minima.
    let rate = read_min.len() as f64 / (read_min.iter().sum::<u64>() as f64 / 1e9); // cast-ok: rate
    let read = Latency::new(read_min);
    let write = Latency::new(scaled(slot_minima(&phase.writes)));
    let ok = out.attempted.saturating_sub(out.failed) as f64 / out.attempted.max(1) as f64; // cast-ok: ratio
    out.metric("setup_s", setup_s * k, "s");
    out.metric("ops_per_s", rate, "1/s");
    out.metric("read_p50_us", read.p50_us().unwrap_or(f64::NAN), "us");
    out.metric("read_p99_us", read.p99_us().unwrap_or(f64::NAN), "us");
    out.metric("write_p50_us", write.p50_us().unwrap_or(f64::NAN), "us");
    out.metric("write_p99_us", write.p99_us().unwrap_or(f64::NAN), "us");
    // One closed-loop client never builds a backlog: the rate it completes
    // is the highest it sustains.
    out.metric("max_qps", rate, "1/s");
    out.metric("ok_ratio", ok, "ratio");
    out.metric("peak_rss_mb", rss_mb, "MB");
    out.sample("reads", reads);
    out.sample("cycles", phase.reads.len());
    out.sample(
        "reference_ns",
        usize::try_from(reference_ns).unwrap_or(usize::MAX),
    );
    out.sample("writes", phase.writes.iter().map(Vec::len).sum());
}
