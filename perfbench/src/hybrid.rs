//! `hybrid-adhoc`: ad hoc cross-model SELECTs over medium tables.
//!
//! One closed-loop client, read-only, every statement sent as text so it
//! is parsed and planned each time. Scans, filters and GROUP BY aggregates
//! over the vertex and edge tables, joins of PathScan output with a
//! relational table, multi-way index joins and PK lookups: the relational
//! spine and the planner do most of the work. Joins list the edge table
//! first, the order in which the rule-based planner picks index joins.

use std::collections::BTreeMap;
use std::time::Instant;

use grfusion::{Database, Value};
use grfusion_datasets::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::closed;
use crate::data::{self, HYBRID_VERTICES, REGIONS};
use crate::layers::Layers;
use crate::refs::EdgeLists;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Args;

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Statement families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    EdgeGroupBy,
    VertexGroupBy,
    VertexFilter,
    PathJoin,
    PathGroupBy,
    ThreeWayJoin,
    JoinGroupBy,
    VertexPk,
    EdgePk,
}

/// Statement families and their distinct statements, each run once per
/// cycle. One cycle is 1 024 statements: enough for a p99 with ten
/// samples beyond it, and short enough (~0.6 s) that each statement runs
/// dozens of times in a run, of which the run keeps the fastest (see
/// `closed`).
///
/// No workload description in the repository or the paper gives shares
/// for an ad hoc hybrid mix, so they follow two aims. The p50 and the p99
/// must each fall well inside one mode of the latency distribution, or a
/// small shift between seeds would move them from one family to another;
/// and both the relational and the graph side must carry real time.
/// - Analytic statements (scans, GROUP BYs, joins; 64, 6.25%): 8 or 16
///   per family, one per slice of the stratified parameter range. At
///   ~8 ms each they take over 90% of a cycle's time, so they set
///   `ops_per_s`, and the p99 (the 11th slowest statement) lies among them.
/// - Anchored 2-hop path GROUP BYs over `sel < k` edges (640, 62.5%): the
///   graph side's point query, with an edge predicate checked during
///   traversal. The p50 lies inside this mode (~25 µs). A PK lookup takes
///   ~8 µs, and when the p50 fell among them it moved by up to 56%
///   between runs while the point-write probe moved by 25%: a host
///   disturbance of a few µs is a large share of it.
/// - PK lookups (320, 31.25%, vertex and edge equally): the per-statement
///   parse, plan and index probe, below the p50.
const FAMILIES: [(Kind, usize); 9] = [
    (Kind::EdgeGroupBy, 8),
    (Kind::VertexGroupBy, 8),
    (Kind::VertexFilter, 16),
    (Kind::PathJoin, 16),
    (Kind::PathGroupBy, 640),
    (Kind::ThreeWayJoin, 8),
    (Kind::JoinGroupBy, 8),
    (Kind::VertexPk, 160),
    (Kind::EdgePk, 160),
];

struct Stmt {
    kind: Kind,
    sql: String,
    want: Vec<Vec<Value>>,
}

/// Column positions in the generated rows.
struct Cols {
    region: usize,
    score: usize,
    sel: usize,
    label: usize,
    since: usize,
}

fn cols(ds: &Dataset) -> Cols {
    let v = |n: &str| {
        ds.vertex_schema
            .iter()
            .position(|(c, _)| c == n)
            .expect("vertex column")
    };
    let e = |n: &str| {
        ds.edge_schema
            .iter()
            .position(|(c, _)| c == n)
            .expect("edge column")
    };
    Cols {
        region: v("region"),
        score: v("score"),
        sel: e("sel"),
        label: e("label"),
        since: e("since"),
    }
}

fn int(v: &Value) -> i64 {
    v.as_integer().expect("generated integer column")
}

fn slot(id: i64) -> usize {
    usize::try_from(id).expect("dense ids")
}

/// Build the statements and their answers, computed from the rows.
fn statements(ds: &Dataset, seed: u64) -> Vec<Stmt> {
    let c = cols(ds);
    let lists = EdgeLists::build(ds);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4b1d);
    let nv = ds.vertex_count();
    let region = |v: usize| int(&ds.vertices[v].1[c.region]);
    let score = |v: usize| int(&ds.vertices[v].1[c.score]);
    // Edge ids are dense: the generator numbers edges from 0.
    let mut sel_of = vec![0; ds.edges.len()];
    for (id, _, _, a) in &ds.edges {
        sel_of[slot(*id)] = int(&a[c.sel]);
    }
    // A path GROUP BY's cost follows its anchor's 2-hop fan-out, so
    // anchors are stratified over the vertices ranked by it, and the `sel`
    // bound over its range in an order shuffled apart from the anchors'.
    let mut by_fanout: Vec<(usize, usize)> =
        (0..nv).map(|v| (lists.path_ends(v, 2).len(), v)).collect();
    by_fanout.sort_unstable();
    let mut out = Vec::new();
    for &(kind, distinct) in &FAMILIES {
        let mut k_slice: Vec<usize> = (0..distinct).collect();
        data::shuffle(&mut k_slice, seed ^ 0x5e1);
        for i in 0..distinct {
            // Cost-setting parameters are stratified: the i-th statement
            // draws from the i-th slice of the range, so the family's mean
            // cost hardly depends on the seed.
            let (sql, want) = match kind {
                Kind::EdgeGroupBy => {
                    let k = stratified(&mut rng, i, distinct, 10, 90);
                    let mut g: BTreeMap<String, (i64, i64, i64)> = BTreeMap::new();
                    for (_, _, _, a) in ds.edges.iter().filter(|e| int(&e.3[c.sel]) < k) {
                        let e = g.entry(a[c.label].to_string()).or_insert((0, 0, i64::MAX));
                        e.0 += 1;
                        e.1 += int(&a[c.sel]);
                        e.2 = e.2.min(int(&a[c.since]));
                    }
                    (
                        format!("SELECT label, COUNT(*), SUM(sel), MIN(since) FROM e_src WHERE sel < {k} GROUP BY label"),
                        g.into_iter()
                            .map(|(l, (n, s, m))| vec![Value::text(l), Value::Integer(n), Value::Integer(s), Value::Integer(m)])
                            .collect(),
                    )
                }
                Kind::VertexGroupBy => {
                    let s = stratified(&mut rng, i, distinct, 0, 1000);
                    let mut g: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
                    for v in (0..nv).filter(|&v| score(v) > s) {
                        let e = g.entry(region(v)).or_insert((0, i64::MIN));
                        e.0 += 1;
                        e.1 = e.1.max(score(v));
                    }
                    (
                        format!("SELECT region, COUNT(*), MAX(score) FROM v_src WHERE score > {s} GROUP BY region"),
                        g.into_iter()
                            .map(|(r, (n, m))| vec![Value::Integer(r), Value::Integer(n), Value::Integer(m)])
                            .collect(),
                    )
                }
                Kind::VertexFilter => {
                    let (s, r) = (
                        stratified(&mut rng, i, distinct, 0, 1000),
                        rng.gen_range(0..REGIONS),
                    );
                    let hits: Vec<i64> = (0..nv)
                        .filter(|&v| region(v) == r && score(v) > s)
                        .map(score)
                        .collect();
                    let max = hits
                        .iter()
                        .max()
                        .map_or(Value::Null, |&m| Value::Integer(m));
                    (
                        format!("SELECT COUNT(*), MAX(score) FROM v_src WHERE region = {r} AND score > {s}"),
                        vec![vec![Value::Integer(hits.len() as i64), max]], // cast-ok: small count
                    )
                }
                Kind::PathJoin => {
                    let (s, r) = (
                        stratified(&mut rng, i, distinct, 950, 1000),
                        rng.gen_range(0..REGIONS),
                    );
                    let want = (0..nv)
                        .filter(|&v| region(v) == r && score(v) > s)
                        .map(|v| (v, lists.path_ends(v, 2).len()))
                        .filter(|&(_, n)| n > 0)
                        .map(|(v, n)| vec![Value::Integer(v as i64), Value::Integer(n as i64)]) // cast-ok: small ids and counts
                        .collect();
                    (
                        format!(
                            "SELECT V.id, COUNT(*) FROM v_src V, g.Paths P WHERE V.region = {r} AND V.score > {s} \
                             AND P.StartVertex.Id = V.id AND P.Length = 2 GROUP BY V.id"
                        ),
                        want,
                    )
                }
                Kind::PathGroupBy => {
                    let rank = stratified(&mut rng, i, distinct, 0, nv as i64); // cast-ok: small count
                    let (v, k) = (
                        by_fanout[slot(rank)].1,
                        stratified(&mut rng, k_slice[i], distinct, 10, 100),
                    );
                    let mut g: BTreeMap<i64, i64> = BTreeMap::new();
                    for end in lists.path_ends_where(v, 2, &|e| sel_of[slot(e)] < k) {
                        *g.entry(region(end)).or_insert(0) += 1;
                    }
                    (
                        format!(
                            "SELECT P.EndVertex.region, COUNT(*) FROM g.Paths P WHERE P.StartVertex.Id = {v} \
                             AND P.Length = 2 AND P.Edges[0..*].sel < {k} GROUP BY P.EndVertex.region"
                        ),
                        g.into_iter().map(|(r, n)| vec![Value::Integer(r), Value::Integer(n)]).collect(),
                    )
                }
                Kind::ThreeWayJoin => {
                    let k = stratified(&mut rng, i, distinct, 5, 25);
                    let (r1, r2) = (rng.gen_range(0..REGIONS), rng.gen_range(0..REGIONS));
                    let n = ds
                        .edges
                        .iter()
                        .filter(|(_, f, t, a)| {
                            int(&a[c.sel]) < k && region(slot(*f)) == r1 && region(slot(*t)) == r2
                        })
                        .count();
                    (
                        format!(
                            "SELECT COUNT(*) FROM e_src E, v_src A, v_src B WHERE E.src = A.id AND E.dst = B.id \
                             AND A.region = {r1} AND B.region = {r2} AND E.sel < {k}"
                        ),
                        vec![vec![Value::Integer(n as i64)]], // cast-ok: small count
                    )
                }
                Kind::JoinGroupBy => {
                    let y = stratified(&mut rng, i, distinct, 2016, 2024);
                    let mut g: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
                    for (_, f, _, a) in ds.edges.iter().filter(|e| int(&e.3[c.since]) > y) {
                        let e = g.entry(region(slot(*f))).or_insert((0, 0));
                        e.0 += 1;
                        e.1 += int(&a[c.sel]);
                    }
                    (
                        format!(
                            "SELECT A.region, COUNT(*), SUM(E.sel) FROM e_src E, v_src A \
                             WHERE E.src = A.id AND E.since > {y} GROUP BY A.region"
                        ),
                        g.into_iter()
                            .map(|(r, (n, s))| {
                                vec![Value::Integer(r), Value::Integer(n), Value::Integer(s)]
                            })
                            .collect(),
                    )
                }
                Kind::VertexPk => {
                    let v = rng.gen_range(0..nv);
                    let a = &ds.vertices[v].1;
                    (
                        format!("SELECT name, region, score FROM v_src WHERE id = {v}"),
                        vec![vec![a[0].clone(), a[c.region].clone(), a[c.score].clone()]],
                    )
                }
                Kind::EdgePk => {
                    let (id, f, t, a) = &ds.edges[rng.gen_range(0..ds.edges.len())];
                    (
                        format!("SELECT src, dst, sel FROM e_src WHERE id = {id}"),
                        vec![vec![
                            Value::Integer(*f),
                            Value::Integer(*t),
                            a[c.sel].clone(),
                        ]],
                    )
                }
            };
            out.push(Stmt { kind, sql, want });
        }
    }
    out
}

/// A value from the `i`-th of `n` equal slices of `lo..hi`.
fn stratified(rng: &mut StdRng, i: usize, n: usize, lo: i64, hi: i64) -> i64 {
    let (i, n) = (i as i64, n as i64); // cast-ok: small counts
    let a = lo + (hi - lo) * i / n;
    let b = (lo + (hi - lo) * (i + 1) / n).max(a + 1);
    rng.gen_range(a..b)
}

/// One cycle of statement indices: the analytic statements shuffled, then
/// the point statements shuffled. Interleaved, a point statement that
/// follows a 10 ms scan finds the caches cold, and its latency then tracks
/// how much cache the host's other tenants leave.
fn schedule(stmts: &[Stmt], seed: u64) -> Vec<usize> {
    let (mut analytic, mut point) = (Vec::new(), Vec::new());
    for (i, s) in stmts.iter().enumerate() {
        match s.kind {
            Kind::PathGroupBy | Kind::VertexPk | Kind::EdgePk => point.push(i),
            _ => analytic.push(i),
        }
    }
    data::shuffle(&mut analytic, seed ^ 0xad0c);
    data::shuffle(&mut point, seed ^ 0x9017);
    analytic.extend(point);
    analytic
}

/// Rows compared as multisets: group and join output order is unspecified.
fn same_rows(got: &[Vec<Value>], want: &[Vec<Value>]) -> bool {
    let key = |rows: &[Vec<Value>]| {
        let mut k: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        k.sort();
        k
    };
    key(got) == key(want)
}

/// Generate the data, load it and build the view.
fn setup(
    seed: u64,
    tr: &mut Tracer,
) -> grfusion_common::Result<(Dataset, Database, data::LoadTimes)> {
    let ds = data::hybrid_graph(HYBRID_VERTICES, seed);
    let (db, lt) = data::load(&ds, tr)?;
    Ok((ds, db, lt))
}

pub fn run(args: &Args) -> grfusion_common::Result<Outcome> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut tr = Tracer::new(args.trace);
    let ((ds, db, lt), times) = data::repeat_setup(SETUPS, || setup(args.seed, &mut tr))?;
    data::create_probe_table(&db)?;
    let stmts = statements(&ds, args.seed);
    let cycle = schedule(&stmts, args.seed);
    let check = |s: &Stmt, rows: &[Vec<Value>]| -> grfusion_common::Result<()> {
        if same_rows(rows, &s.want) {
            Ok(())
        } else {
            Err(grfusion_common::Error::execution(format!(
                "`{}` returned {rows:?}, expected {:?}",
                s.sql, s.want
            )))
        }
    };
    // Warm-up: every statement once, checked.
    for s in &stmts {
        if let Err(e) = db.execute(&s.sql).and_then(|rs| check(s, &rs.rows)) {
            out.problem(e.to_string());
        }
    }

    if args.trace {
        let mut layers = Layers::default();
        for &i in &cycle {
            let t = Instant::now();
            db.execute(&stmts[i].sql)?;
            layers.plain_call_ns.add(t.elapsed().as_nanos() as f64); // cast-ok: ns statistic
        }
        for &i in &cycle {
            let s = &stmts[i];
            // A failed call leaves its op's spans open, so it ends the run.
            let rs = layers.read(&mut tr, &db, &s.sql, &[], &s.sql, None)?;
            if let Err(e) = check(s, &rs.rows) {
                out.problem(e.to_string());
            }
        }
        crate::finish_trace(&mut out, &mut layers, &db, lt, &tr, args)?;
    } else {
        let phase = closed::measure(&db, args.seconds, cycle.len(), &mut out, |i| {
            let s = &stmts[cycle[i % cycle.len()]];
            check(s, &db.execute(&s.sql)?.rows)
        });
        let rss = crate::sys::peak_rss_mb();
        closed::report(&mut out, median(&times), &phase, rss);
    }
    Ok(out)
}
