//! `serve-rw`: reads and writes through `grfusion-serve` over loopback.
//!
//! `Server::start` runs with the default `ServerConfig`, driven over one
//! loopback connection (at most `nproc`) with one generator thread. The
//! mix is anchored 3-hop `COUNT(P)` reads, PK point reads, PK attribute
//! UPDATEs of the view's edge table and edge relinks.
//!
//! The measured run is closed loop: the connection sends its next request
//! when the reply arrives. Open-loop latency timed from each request's due
//! time swung by 3x from run to run on a 2-vCPU VM, because its tail
//! measures how late the host wakes the generator; so the open-loop
//! generator runs in the traced run, which reports its lag at a nominal
//! rate and the highest step of a fixed rate ladder that meets the p99
//! limit without a growing backlog.
//!
//! Writes stay inside a "write zone" of the grid (its first rows), split
//! into one stripe of edges per connection. 3-hop reads are anchored at
//! least three hops from the zone and PK reads never touch it, so no write
//! can change a read's answer: every read is checked against an answer
//! computed from the generated rows. The final state must equal a serial
//! replay of the acknowledged writes, stripe by stripe.

use std::sync::Arc;
use std::time::{Duration, Instant};

use grfusion::Database;
use grfusion_common::{Result, Value};
use grfusion_datasets::{Adjacency, Dataset};
use grfusion_server::{Client, Server, ServerConfig, ServerHandle};

use crate::closed::{MIN_BLOCKS, MIN_SAMPLES};
use crate::data::{self, SERVE_VERTICES};
use crate::layers::{Layers, WriteKind};
use crate::loadgen::{self, Class, Sample, StepStats};
use crate::refs::{distance_from_set, EdgeLists};
use crate::report::Outcome;
use crate::speed::{self, Reference};
use crate::stats::{better_quarter_mean, median, Latency};
use crate::trace::Tracer;
use crate::Args;

/// Connections (and generator threads) asked for; capped by `nproc`.
///
/// One. On a 2-vCPU VM, two closed-loop connections completed no more
/// requests per second than one (~7 000 either way), while the p50 and p99
/// of each request doubled: it waited for the other connection's. In one
/// run of eleven the pair also fell into a state that lasted the whole
/// run, with half the rate and an 8x p99 even in the best blocks, and two
/// such runs in a set of ten put the p99's quartile spread far over its
/// bound. With one connection at most one request is in flight, so no
/// request waits behind another.
const CONNECTIONS: usize = 1;
/// Nominal open-loop rate of the traced run, requests per second over all
/// connections.
pub const NOMINAL_QPS: f64 = 1_200.0;
/// Share of writes in [`PATTERN`]; sizes the closed-loop blocks.
const WRITE_SHARE: f64 = 0.2;
/// The fixed rate ladder for `max_qps`, requests per second, ~10% apart.
pub const LADDER_QPS: [f64; 22] = [
    1_000.0, 1_100.0, 1_200.0, 1_300.0, 1_450.0, 1_600.0, 1_750.0, 1_900.0, 2_100.0, 2_300.0,
    2_500.0, 2_750.0, 3_000.0, 3_300.0, 3_600.0, 4_000.0, 4_400.0, 4_800.0, 5_300.0, 5_800.0,
    6_400.0, 7_000.0,
];
/// Seconds per ladder step.
const LADDER_STEP_S: f64 = 1.5;
/// p99 latency limit of reads and writes for a ladder step to pass.
pub const P99_LIMIT_MS: u64 = 20;
/// Grid rows that make up the write zone.
const ZONE_ROWS: i64 = 10;
/// 3-hop reads start at least this many hops from the write zone.
const ANCHOR_DISTANCE: u32 = 3;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Requests the traced run replays (and the untraced pass before it).
const TRACED_REQUESTS: u64 = 2_000;
/// Seconds of open-loop load in the traced run (for the generator lag
/// and the admission counters).
const TRACED_LOAD_S: f64 = 3.0;

/// The request mix, one slot per request in a repeating pattern of 20:
/// 8 anchored 3-hop reads, 4 vertex PK reads, 4 edge PK reads, 2 attribute
/// UPDATEs and 2 relinks. The 80/20 read/write split is the one the
/// repository's `serve` experiment uses (`crates/bench/src/loadgen.rs`).
/// Nothing recorded gives the split inside each class, so the kinds share
/// it equally: hop reads and PK reads 1:1, vertex and edge PK 1:1, updates
/// and relinks 1:1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Hop3,
    VertexPk,
    EdgePk,
    Update,
    Relink,
}

const PATTERN: [Kind; 20] = {
    use Kind::*;
    [
        Hop3, VertexPk, Hop3, EdgePk, Update, Hop3, VertexPk, Hop3, EdgePk, Relink, Hop3, VertexPk,
        Hop3, EdgePk, Update, Hop3, VertexPk, Hop3, EdgePk, Relink,
    ]
};

/// Everything the request stream and the checks need, computed from the
/// generated rows.
struct Plan {
    seed: u64,
    /// 3-hop anchors and their answers.
    anchors: Vec<(i64, i64)>,
    /// Vertex id and name.
    vertices: Vec<(i64, String)>,
    /// Edges outside the zone: id, src, dst, weight.
    fixed_edges: Vec<(i64, i64, i64, f64)>,
    /// Zone edges per connection stripe: id, src.
    stripes: Vec<Vec<(i64, i64)>>,
    zone: Vec<i64>,
}

fn mix(seed: u64, conn: usize, seq: u64, salt: u64) -> u64 {
    // splitmix64 over (seed, conn, seq, salt): a pure function, so any
    // request can be regenerated without shared state.
    let mut z = seed
        ^ (conn as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) // cast-ok: small index
        ^ seq.wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ salt.wrapping_mul(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pick<T>(items: &[T], h: u64) -> &T {
    &items[usize::try_from(h % items.len() as u64).expect("index fits")] // cast-ok: len widens
}

impl Plan {
    fn new(ds: &Dataset, seed: u64, conns: usize) -> Plan {
        let n = ds.vertex_count();
        let side = (n as f64).sqrt().round() as i64; // cast-ok: grid side of a small graph
        let zone_limit = ZONE_ROWS * side;
        let in_zone = |v: i64| v < zone_limit;
        let zone: Vec<i64> = (0..zone_limit.min(n as i64)).collect(); // cast-ok: small count
        let zone_slots: Vec<usize> = zone
            .iter()
            .map(|&v| usize::try_from(v).expect("dense"))
            .collect();
        let dist = distance_from_set(&Adjacency::build(ds), n, &zone_slots);
        let lists = EdgeLists::build(ds);
        let anchors = (0..n)
            .filter(|&v| dist[v] >= ANCHOR_DISTANCE)
            .map(|v| (v as i64, lists.path_ends(v, 3).len() as i64)) // cast-ok: small counts
            .collect();
        let vertices = ds
            .vertices
            .iter()
            .map(|(id, a)| (*id, a[0].to_string()))
            .collect();
        let w = ds.weight_attr_index();
        let mut fixed_edges = Vec::new();
        let mut stripes = vec![Vec::new(); conns];
        let mut k = 0;
        for (id, from, to, attrs) in &ds.edges {
            if in_zone(*from) && in_zone(*to) {
                stripes[k % conns].push((*id, *from));
                k += 1;
            } else if !in_zone(*from) && !in_zone(*to) {
                fixed_edges.push((*id, *from, *to, attrs[w].as_double().unwrap_or(f64::NAN)));
            }
        }
        Plan {
            seed,
            anchors,
            vertices,
            fixed_edges,
            stripes,
            zone,
        }
    }

    fn kind(seq: u64) -> Kind {
        PATTERN[usize::try_from(seq % PATTERN.len() as u64).expect("small")] // cast-ok: len widens
    }

    fn request(&self, conn: usize, seq: u64) -> (Class, String) {
        let h = mix(self.seed, conn, seq, 1);
        match Plan::kind(seq) {
            Kind::Hop3 => (
                Class::Read,
                format!(
                    "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = {} AND P.Length = 3",
                    pick(&self.anchors, h).0
                ),
            ),
            Kind::VertexPk => (
                Class::Read,
                format!(
                    "SELECT name FROM v_src WHERE id = {}",
                    pick(&self.vertices, h).0
                ),
            ),
            Kind::EdgePk => (
                Class::Read,
                format!(
                    "SELECT src, dst, weight FROM e_src WHERE id = {}",
                    pick(&self.fixed_edges, h).0
                ),
            ),
            Kind::Update => {
                let (e, _) = pick(&self.stripes[conn], h);
                let w = 1 + mix(self.seed, conn, seq, 2) % 999;
                (
                    Class::Write,
                    format!(
                        "UPDATE e_src SET weight = {}.{:02} WHERE id = {e}",
                        w / 100,
                        w % 100
                    ),
                )
            }
            Kind::Relink => {
                let (e, src) = *pick(&self.stripes[conn], h);
                let mut d = *pick(&self.zone, mix(self.seed, conn, seq, 3));
                if d == src {
                    d = (d + 1) % self.zone.len() as i64; // cast-ok: small count
                }
                (
                    Class::Write,
                    format!("UPDATE e_src SET dst = {d} WHERE id = {e}"),
                )
            }
        }
    }

    /// The expected reply of a read, or `None` for writes.
    fn expected(&self, conn: usize, seq: u64) -> Option<Vec<Vec<Value>>> {
        let h = mix(self.seed, conn, seq, 1);
        match Plan::kind(seq) {
            Kind::Hop3 => Some(vec![vec![Value::Integer(pick(&self.anchors, h).1)]]),
            Kind::VertexPk => Some(vec![vec![Value::text(pick(&self.vertices, h).1.as_str())]]),
            Kind::EdgePk => {
                let (_, s, d, w) = *pick(&self.fixed_edges, h);
                Some(vec![vec![
                    Value::Integer(s),
                    Value::Integer(d),
                    Value::Double(w),
                ]])
            }
            Kind::Update | Kind::Relink => None,
        }
    }
}

/// Generate the data, load it, build the view and start serving.
fn setup(
    seed: u64,
    tr: &mut Tracer,
) -> Result<(Dataset, Arc<Database>, ServerHandle, data::LoadTimes)> {
    let ds = data::roads_graph(SERVE_VERTICES, seed);
    let (db, lt) = data::load(&ds, tr)?;
    let db = Arc::new(db);
    let server = Server::start(Arc::clone(&db), ServerConfig::default())?;
    Ok((ds, db, server, lt))
}

/// Acknowledged writes: connection, sequence number, statement.
#[derive(Default)]
struct WriteLog {
    entries: Vec<(usize, u64, String)>,
}

impl WriteLog {
    fn push(&mut self, conn: usize, seq: u64, sql: &str) {
        self.entries.push((conn, seq, sql.to_string()));
    }
}

/// Check replies: writes affect one row, reads equal their expected rows.
fn check_samples(
    plan: &Plan,
    samples: &[Sample<grfusion_server::Response>],
    log: &mut WriteLog,
    out: &mut Outcome,
    count: bool,
) {
    for s in samples {
        if count {
            out.attempted += 1;
        }
        match &s.reply {
            Err(e) => {
                if count {
                    out.failed += 1;
                    out.problem(format!("`{}` failed: {e}", s.sql));
                }
            }
            Ok(r) => check_one(plan, s.conn, s.seq, &s.sql, r, log, out),
        }
    }
}

/// The final state must equal a fresh load plus the acknowledged writes
/// replayed serially, each connection's stripe in its own order.
fn check_replay(ds: &Dataset, db: &Database, log: &mut WriteLog, out: &mut Outcome) -> Result<()> {
    let (replay, _) = data::load(ds, &mut Tracer::new(false))?;
    // Stable sort: a statement logged twice (traced run) keeps both copies.
    log.entries.sort_by_key(|e| (e.0, e.1));
    for (_, _, sql) in &log.entries {
        replay.execute(sql)?;
    }
    if db.state_dump()? != replay.state_dump()? {
        out.problem(format!(
            "final state differs from a serial replay of the {} acknowledged writes",
            log.entries.len()
        ));
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut tr = Tracer::new(args.trace);
    // Dropping a server handle shuts that server down before the next set-up.
    let ((ds, db, server, lt), times) = data::repeat_setup(SETUPS, || setup(args.seed, &mut tr))?;
    let conns = loadgen::connection_cap(CONNECTIONS, crate::sys::nproc());
    let plan = Plan::new(&ds, args.seed, conns);
    let mut clients = (0..conns)
        .map(|c| Client::connect(server.addr(), &format!("t{c}")))
        .collect::<Result<Vec<_>>>()?;
    let mut seqs = vec![0u64; conns];
    let request = |c: usize, seq: u64| plan.request(c, seq);
    let mut log = WriteLog::default();

    // Warm-up: half a second of open-loop load, checked but not counted.
    let warm = loadgen::run_step(
        &mut clients,
        &mut seqs,
        NOMINAL_QPS,
        Duration::from_millis(500),
        &request,
    );
    check_samples(&plan, &warm, &mut log, &mut out, false);

    if args.trace {
        let mut layers = Layers::default();
        open_loop(
            &mut layers,
            &mut clients,
            &mut seqs,
            &request,
            &plan,
            &mut log,
            &mut out,
            args,
        );
        // Untraced pass, then the traced replay, on connection 0's stream.
        let client = &mut clients[0];
        for _ in 0..TRACED_REQUESTS {
            let seq = seqs[0];
            seqs[0] += 1;
            let (_, sql) = plan.request(0, seq);
            let t = Instant::now();
            let r = client.query(&sql)?;
            layers.plain_call_ns.add(t.elapsed().as_nanos() as f64); // cast-ok: ns statistic
            check_one(&plan, 0, seq, &sql, &r, &mut log, &mut out);
        }
        for _ in 0..TRACED_REQUESTS {
            let seq = seqs[0];
            seqs[0] += 1;
            let (_, sql) = plan.request(0, seq);
            let write = match Plan::kind(seq) {
                Kind::Update => Some(WriteKind::Update),
                Kind::Relink => Some(WriteKind::Relink),
                _ => None,
            };
            let r = layers.served(&mut tr, &db, client, &sql, write)?;
            check_one(&plan, 0, seq, &sql, &r, &mut log, &mut out);
            if write.is_some() {
                // The in-process replay applied the same write once more.
                log.push(0, seq, &sql);
            }
        }
        let stats = server.stats();
        layers.admitted = stats.iter().map(|s| s.admitted as f64).sum(); // cast-ok: count
        layers.shed = stats.iter().map(|s| s.shed as f64).sum(); // cast-ok: count
        crate::finish_trace(&mut out, &mut layers, &db, lt, &tr, args)?;
    } else {
        // Closed-loop blocks, each with enough reads and writes for a p99;
        // the run reports the mean of the better quarter of its blocks.
        let per_conn = (1.05 * MIN_SAMPLES as f64 / (conns as f64 * WRITE_SHARE)).ceil() as u64; // cast-ok: small count
        let start = Instant::now();
        let (mut reads, mut writes, mut rates) = (Vec::new(), Vec::new(), Vec::new());
        let (mut reference, mut references) = (Reference::default(), Vec::new());
        while reads.len() < MIN_BLOCKS || start.elapsed().as_secs_f64() < args.seconds {
            let (block, took) = loadgen::run_closed(&mut clients, &mut seqs, per_conn, &request);
            check_samples(&plan, &block, &mut log, &mut out, true);
            let class = |c: Class| {
                block
                    .iter()
                    .filter(|s| s.class == c)
                    .map(|s| s.latency_ns)
                    .collect()
            };
            reads.push(Latency::new(class(Class::Read)));
            writes.push(Latency::new(class(Class::Write)));
            // Sampled between blocks, while no request is in flight.
            references.push(reference.sample() as f64); // cast-ok: ns
            rates.push(block.len() as f64 / took.as_secs_f64()); // cast-ok: rate
        }
        let rss = crate::sys::peak_rss_mb();
        // Every time is scaled to the nominal host speed by the reference
        // samples, summarised the way the blocks are.
        let reference_ns = better_quarter_mean(&references, true);
        let k = speed::NOMINAL_NS / reference_ns;
        let rate = better_quarter_mean(&rates, false) / k;
        let ok = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64; // cast-ok: ratio
        out.metric("setup_s", median(&times) * k, "s");
        out.metric("ops_per_s", rate, "1/s");
        let latency =
            |blocks: &[Latency], f: fn(&Latency) -> Option<f64>| block_latency(blocks, f) * k;
        out.metric("read_p50_us", latency(&reads, Latency::p50_us), "us");
        out.metric("read_p99_us", latency(&reads, Latency::p99_us), "us");
        out.metric("write_p50_us", latency(&writes, Latency::p50_us), "us");
        out.metric("write_p99_us", latency(&writes, Latency::p99_us), "us");
        // Closed-loop connections never build a backlog: the rate they
        // complete is the highest the server sustains for them.
        out.metric("max_qps", rate, "1/s");
        out.metric("ok_ratio", ok, "ratio");
        out.metric("peak_rss_mb", rss, "MB");
        out.sample("reads", reads.iter().map(Latency::count).sum());
        out.sample("writes", writes.iter().map(Latency::count).sum());
        out.sample("blocks", reads.len());
        out.sample("reference_ns", reference_ns.round() as usize); // cast-ok: ns
    }
    drop(clients);
    server.shutdown();
    check_replay(&ds, &db, &mut log, &mut out)?;
    Ok(out)
}

/// The open-loop part of the traced run: the generator's lag at the
/// nominal rate, then the highest step of the rate ladder that meets the
/// p99 limit without a growing backlog.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    layers: &mut Layers,
    clients: &mut [Client],
    seqs: &mut [u64],
    request: &(dyn Fn(usize, u64) -> (Class, String) + Sync),
    plan: &Plan,
    log: &mut WriteLog,
    out: &mut Outcome,
    args: &Args,
) {
    let limit_ns = P99_LIMIT_MS * 1_000_000;
    let load_s = TRACED_LOAD_S.min(args.seconds);
    let samples = loadgen::run_step(
        clients,
        seqs,
        NOMINAL_QPS,
        Duration::from_secs_f64(load_s),
        request,
    );
    check_samples(plan, &samples, log, out, false);
    let lag = Latency::new(samples.iter().map(|s| s.lag_ns).collect());
    layers.lag_p99_us = lag.p99_us().unwrap_or(f64::NAN);
    layers.retries = samples.iter().map(|s| f64::from(s.retries)).sum();
    let best = loadgen::ladder(&LADDER_QPS, limit_ns, |rate| {
        let s = loadgen::run_step(
            clients,
            seqs,
            rate,
            Duration::from_secs_f64(LADDER_STEP_S),
            request,
        );
        // Ladder replies are checked too; refusals above capacity are the
        // ladder's verdict, not failed operations.
        check_samples(plan, &s, log, out, false);
        let st = StepStats::from_samples(rate, &s, limit_ns);
        eprintln!(
            "perfbench: ladder {} req/s: achieved {:.1}, reads over limit {}/{}, writes over {}/{}, errors {}, final lag {} us",
            st.rate, st.achieved, st.reads_over, st.reads, st.writes_over, st.writes, st.errors, st.final_lag_ns / 1_000
        );
        st
    });
    layers.ladder_max_qps = best.map_or(0.0, |b| b.achieved);
}

/// A run's latency figure: the better-quarter mean over blocks of a
/// per-block percentile (NaN when a block lacks it).
fn block_latency(blocks: &[Latency], f: impl Fn(&Latency) -> Option<f64>) -> f64 {
    let v: Vec<f64> = blocks.iter().map(|b| f(b).unwrap_or(f64::NAN)).collect();
    better_quarter_mean(&v, true)
}

fn check_one(
    plan: &Plan,
    conn: usize,
    seq: u64,
    sql: &str,
    r: &grfusion_server::Response,
    log: &mut WriteLog,
    out: &mut Outcome,
) {
    match plan.expected(conn, seq) {
        None if r.rows_affected == 1 => log.push(conn, seq, sql),
        None => out.problem(format!("`{sql}` affected {} rows", r.rows_affected)),
        Some(want) if r.rows == want => {}
        Some(want) => out.problem(format!("`{sql}` returned {:?}, expected {want:?}", r.rows)),
    }
}
