//! Bounded open-loop load generator for `serve-rw`.
//!
//! Requests are due on a fixed schedule whatever the server does. Each
//! connection has its own thread and sends its next request when it is
//! due, or at once if the previous reply came back late. Every sample
//! keeps both clocks: latency from the due time (a stall is charged to
//! every request it delays) and how late the request was sent, so the
//! service time from send to reply is their difference. Threads and
//! connections are capped by the CPU count.

use std::thread;
use std::time::{Duration, Instant};

use grfusion_common::{Error, Result};

/// Request class: latencies and limits are kept per class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
}

/// One connection the generator drives (a loopback `Client` in the
/// benchmark, a fake in the self-tests).
pub trait Conn: Send {
    type Reply: Send;
    fn call(&mut self, sql: &str) -> Result<Self::Reply>;
}

impl Conn for grfusion_server::Client {
    type Reply = grfusion_server::Response;
    fn call(&mut self, sql: &str) -> Result<Self::Reply> {
        self.query(sql)
    }
}

/// Retries of a request the server refused as overloaded, before the
/// request counts as dropped.
pub const MAX_RETRIES: u32 = 3;

/// One finished request.
#[derive(Debug)]
pub struct Sample<R> {
    pub conn: usize,
    pub seq: u64,
    pub class: Class,
    pub sql: String,
    /// Due time, as nanoseconds after the step started.
    pub due_ns: u64,
    /// How late the request was sent.
    pub lag_ns: u64,
    /// From the due time to the reply.
    pub latency_ns: u64,
    pub retries: u32,
    pub reply: Result<R>,
}

impl<R> Sample<R> {
    /// From send to reply: the latency the server and the wire added.
    pub fn service_ns(&self) -> u64 {
        self.latency_ns.saturating_sub(self.lag_ns)
    }
}

/// Connections the generator may open: at most one per CPU.
pub fn connection_cap(requested: usize, nproc: usize) -> usize {
    requested.min(nproc).max(1)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Drive `conns` (one thread each) at `rate` requests per second in total
/// for `duration`. `request(conn, seq)` names each request; `next_seq`
/// holds each connection's next sequence number and is advanced, so later
/// steps continue the same request streams.
pub fn run_step<C: Conn>(
    conns: &mut [C],
    next_seq: &mut [u64],
    rate: f64,
    duration: Duration,
    request: &(dyn Fn(usize, u64) -> (Class, String) + Sync),
) -> Vec<Sample<C::Reply>> {
    assert_eq!(
        conns.len(),
        next_seq.len(),
        "one sequence counter per connection"
    );
    let n = conns.len();
    // Each connection sends every `interval`, offset so that the
    // connections interleave evenly.
    let interval = Duration::from_secs_f64(n as f64 / rate); // cast-ok: small count
    let per_conn = (duration.as_secs_f64() / interval.as_secs_f64()).floor() as u64; // cast-ok: bounded count
    let start = Instant::now();
    let mut all = Vec::new();
    thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(next_seq.iter_mut())
            .enumerate()
            .map(|(c, (conn, seq0))| {
                let first = *seq0;
                *seq0 += per_conn;
                let offset = interval.mul_f64(c as f64 / n as f64); // cast-ok: small counts
                s.spawn(move || {
                    let mut out = Vec::with_capacity(usize::try_from(per_conn).unwrap_or(0));
                    for i in 0..per_conn {
                        let due = offset + interval.mul_f64(i as f64); // cast-ok: bounded count
                        let now = start.elapsed();
                        if due > now {
                            thread::sleep(due - now);
                        }
                        let seq = first + i;
                        let (class, sql) = request(c, seq);
                        let sent = start.elapsed();
                        let mut retries = 0;
                        let reply = loop {
                            match conn.call(&sql) {
                                Err(Error::Overloaded { retry_after_ms })
                                    if retries < MAX_RETRIES =>
                                {
                                    retries += 1;
                                    thread::sleep(Duration::from_millis(retry_after_ms));
                                }
                                r => break r,
                            }
                        };
                        let done = start.elapsed();
                        out.push(Sample {
                            conn: c,
                            seq,
                            class,
                            sql,
                            due_ns: nanos(due),
                            lag_ns: nanos(sent.saturating_sub(due)),
                            latency_ns: nanos(done.saturating_sub(due)),
                            retries,
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("load generator thread panicked"));
        }
    });
    all
}

/// Closed loop over `conns` (one thread each): every connection sends
/// `per_conn` requests, each as soon as the previous reply arrived. Due
/// time equals send time, so lag is 0 and latency is the service time.
/// Returns the samples and the wall time the block took.
pub fn run_closed<C: Conn>(
    conns: &mut [C],
    next_seq: &mut [u64],
    per_conn: u64,
    request: &(dyn Fn(usize, u64) -> (Class, String) + Sync),
) -> (Vec<Sample<C::Reply>>, Duration) {
    assert_eq!(
        conns.len(),
        next_seq.len(),
        "one sequence counter per connection"
    );
    let start = Instant::now();
    let mut all = Vec::new();
    thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(next_seq.iter_mut())
            .enumerate()
            .map(|(c, (conn, seq0))| {
                let first = *seq0;
                *seq0 += per_conn;
                s.spawn(move || {
                    let mut out = Vec::with_capacity(usize::try_from(per_conn).unwrap_or(0));
                    for seq in first..first + per_conn {
                        let (class, sql) = request(c, seq);
                        let sent = start.elapsed();
                        let reply = conn.call(&sql);
                        out.push(Sample {
                            conn: c,
                            seq,
                            class,
                            sql,
                            due_ns: nanos(sent),
                            lag_ns: 0,
                            latency_ns: nanos(start.elapsed().saturating_sub(sent)),
                            retries: 0,
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("load generator thread panicked"));
        }
    });
    (all, start.elapsed())
}

/// What one ladder step measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepStats {
    pub rate: f64,
    /// Completed requests per second over the step.
    pub achieved: f64,
    pub reads: usize,
    pub reads_over: usize,
    pub writes: usize,
    pub writes_over: usize,
    pub errors: usize,
    /// How late the requests of the step's last tenth were sent (median).
    pub final_lag_ns: u64,
}

impl StepStats {
    /// Verdict inputs of a step. Latency against the limit is the service
    /// time; the backlog is judged on the send lag at the step's end.
    pub fn from_samples<R>(rate: f64, samples: &[Sample<R>], limit_ns: u64) -> StepStats {
        let mut st = StepStats {
            rate,
            ..StepStats::default()
        };
        let mut end = 0;
        for s in samples {
            let over = s.service_ns() > limit_ns;
            match s.class {
                Class::Read => {
                    st.reads += 1;
                    st.reads_over += usize::from(over);
                }
                Class::Write => {
                    st.writes += 1;
                    st.writes_over += usize::from(over);
                }
            }
            st.errors += usize::from(s.reply.is_err());
            end = end.max(s.due_ns + s.latency_ns);
        }
        let mut by_due: Vec<(u64, u64)> = samples.iter().map(|s| (s.due_ns, s.lag_ns)).collect();
        by_due.sort_unstable();
        let mut last_tenth: Vec<u64> = by_due[by_due.len() - by_due.len().div_ceil(10)..]
            .iter()
            .map(|&(_, lag)| lag)
            .collect();
        last_tenth.sort_unstable();
        st.final_lag_ns = crate::stats::percentile(&last_tenth, 0.5).unwrap_or(0);
        if end > 0 {
            st.achieved = samples.len() as f64 / (end as f64 / 1e9); // cast-ok: rate
        }
        st
    }

    /// The step meets the limit: at most 1% of reads and 1% of writes
    /// exceed it (p99 within the limit), nothing failed, and the requests
    /// of the step's last tenth went out within the limit of their due
    /// time (no growing backlog).
    pub fn passes(&self, limit_ns: u64) -> bool {
        self.errors == 0
            && self.reads_over * 100 <= self.reads
            && self.writes_over * 100 <= self.writes
            && self.final_lag_ns <= limit_ns
    }
}

/// Find the highest step of the fixed, ascending rate ladder that passes,
/// by bisection: a step above a failing one is taken to fail too, so about
/// log2(steps) steps run. `None` when even the lowest step fails.
pub fn ladder(
    rates: &[f64],
    limit_ns: u64,
    mut step: impl FnMut(f64) -> StepStats,
) -> Option<StepStats> {
    // Invariant: every index <= lo passes (or lo is "below the ladder"),
    // every index >= hi fails.
    let (mut lo, mut hi) = (None::<usize>, rates.len());
    let mut best = None;
    while hi > lo.map_or(0, |l| l + 1) {
        let mid = (lo.map_or(0, |l| l + 1) + hi) / 2;
        let st = step(rates[mid]);
        if st.passes(limit_ns) {
            lo = Some(mid);
            best = Some(st);
        } else {
            hi = mid;
        }
    }
    best
}
