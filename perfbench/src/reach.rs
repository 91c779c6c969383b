//! `reach-prepared`: the paper's §7 query families as prepared statements
//! over a follower graph whose topology is larger than the L3 cache.
//!
//! One closed-loop client, read-only. Plans are compiled once, so parse,
//! plan, DML, epochs and the wire stay out of the measured path and the
//! PathScan operator and the graph crate do almost all the work.

use std::time::Instant;

use grfusion::{Database, PreparedQuery, Value};
use grfusion_baselines::{GraphSystem, NeoDb};
use grfusion_datasets::{pairs_at_distance, random_connected_pairs, Adjacency, Dataset};

use crate::closed;
use crate::data::{self, REACH_VERTICES};
use crate::layers::Layers;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Args;

/// Hop bounds of the anchored reachability family.
const LENGTHS: [usize; 3] = [2, 3, 4];
/// Pairs per length, once at the bound (reachable) and once one hop
/// beyond it (unreachable within the bound, so the scan is exhaustive).
const REACH_PAIRS: usize = 48;
/// Constrained reachability: bound and `sel < K` edge predicate.
const CREACH_LEN: usize = 4;
const CREACH_SEL: i64 = 50;
const CREACH_PAIRS: usize = 96;
/// Shortest paths over edges with `sel < K`, between vertices at most
/// `SP_HOPS` hops apart in that sub-graph (far targets make Dijkstra's cost
/// swing by two orders of magnitude from pair to pair).
const SP_SEL: i64 = 30;
const SP_PAIRS: usize = 32;
const SP_HOPS: u32 = 4;
/// Triangle count over edges with `sel < K`.
const TRI_SEL: i64 = 5;
/// Times each reachability query runs per cycle; shortest paths and the
/// triangle count run once per cycle, so they stay under 1% of the ops and
/// out of the read p99. One cycle is 3 873 ops.
const REACH_REPEAT: usize = 10;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Clone, Copy, Debug)]
enum Kind {
    Reach(usize),
    CReach,
    Sp,
    Tri,
}

#[derive(Clone, Debug, PartialEq)]
enum Answer {
    Len(Option<i64>),
    Cost(Option<f64>),
    Count(i64),
}

struct Query {
    kind: Kind,
    s: i64,
    t: i64,
    answer: Option<Answer>,
}

impl Query {
    fn params(&self) -> Vec<Value> {
        let (s, t) = (Value::Integer(self.s), Value::Integer(self.t));
        match self.kind {
            Kind::Reach(_) => vec![s, t],
            Kind::CReach => vec![s, t, Value::Integer(CREACH_SEL)],
            Kind::Sp => vec![s, t, Value::Integer(SP_SEL)],
            Kind::Tri => vec![Value::Integer(TRI_SEL)],
        }
    }
}

fn template(kind: Kind) -> String {
    match kind {
        Kind::Reach(l) => format!(
            "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = ? \
             AND PS.EndVertex.Id = ? AND PS.Length <= {l} LIMIT 1"
        ),
        Kind::CReach => format!(
            "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = ? \
             AND PS.EndVertex.Id = ? AND PS.Length <= {CREACH_LEN} \
             AND PS.Edges[0..*].sel < ? LIMIT 1"
        ),
        Kind::Sp => "SELECT PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(weight)) \
             WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? \
             AND PS.Edges[0..*].sel < ? LIMIT 1"
            .to_string(),
        Kind::Tri => "SELECT COUNT(P) FROM g.Paths P WHERE P.Length = 3 \
             AND P.Edges[0..*].sel < ? \
             AND P.Edges[2].EndVertex = P.Edges[0].StartVertex"
            .to_string(),
    }
}

/// The template with its `?` placeholders replaced by literals.
fn inline(template: &str, params: &[Value]) -> String {
    let mut out = String::new();
    let mut it = params.iter();
    for c in template.chars() {
        if c == '?' {
            out.push_str(&it.next().map_or("NULL".into(), |v| v.to_string()));
        } else {
            out.push(c);
        }
    }
    out
}

fn queries(ds: &Dataset, seed: u64) -> Vec<Query> {
    let adj = Adjacency::build(ds);
    let mut qs = Vec::new();
    let mut push = |kind, pairs: Vec<(i64, i64)>| {
        for (s, t) in pairs {
            qs.push(Query {
                kind,
                s,
                t,
                answer: None,
            });
        }
    };
    for (i, &l) in LENGTHS.iter().enumerate() {
        let d = u32::try_from(l).expect("small bound");
        let base = seed.wrapping_mul(31).wrapping_add(i as u64 * 2); // cast-ok: index
        push(
            Kind::Reach(l),
            pairs_at_distance(ds, &adj, d, REACH_PAIRS, base),
        );
        push(
            Kind::Reach(l),
            pairs_at_distance(ds, &adj, d + 1, REACH_PAIRS, base + 1),
        );
    }
    let creach = random_connected_pairs(ds, &adj, 4, CREACH_PAIRS, seed.wrapping_add(101));
    push(Kind::CReach, creach);
    let sub = ds.filter_edges_sel_lt(SP_SEL);
    let sub_adj = Adjacency::build(&sub);
    push(
        Kind::Sp,
        random_connected_pairs(&sub, &sub_adj, SP_HOPS, SP_PAIRS, seed.wrapping_add(202)),
    );
    push(Kind::Tri, vec![(0, 0)]);
    qs
}

/// One cycle of query indices: each reachability query `REACH_REPEAT`
/// times, every shortest path and the triangle count once, shuffled.
fn schedule(qs: &[Query], seed: u64) -> Vec<usize> {
    let mut cycle = Vec::new();
    for (i, q) in qs.iter().enumerate() {
        let times = match q.kind {
            Kind::Reach(_) | Kind::CReach => REACH_REPEAT,
            Kind::Sp | Kind::Tri => 1,
        };
        cycle.extend(std::iter::repeat_n(i, times));
    }
    data::shuffle(&mut cycle, seed ^ 0xc1c1e);
    cycle
}

struct Prepared {
    by_kind: Vec<(String, PreparedQuery)>,
}

impl Prepared {
    fn new(db: &Database) -> grfusion_common::Result<Prepared> {
        let kinds = [
            Kind::Reach(2),
            Kind::Reach(3),
            Kind::Reach(4),
            Kind::CReach,
            Kind::Sp,
            Kind::Tri,
        ];
        let mut by_kind = Vec::new();
        for k in kinds {
            let sql = template(k);
            let p = db.prepare(&sql)?;
            by_kind.push((sql, p));
        }
        Ok(Prepared { by_kind })
    }

    fn get(&self, kind: Kind) -> &(String, PreparedQuery) {
        let i = match kind {
            Kind::Reach(l) => l - 2,
            Kind::CReach => 3,
            Kind::Sp => 4,
            Kind::Tri => 5,
        };
        &self.by_kind[i]
    }
}

fn answer_of(kind: Kind, rs: &grfusion::ResultSet) -> grfusion_common::Result<Answer> {
    let first = rs.rows.first().and_then(|r| r.first());
    Ok(match kind {
        Kind::Reach(_) | Kind::CReach => Answer::Len(first.map(|v| v.as_integer()).transpose()?),
        Kind::Sp => Answer::Cost(first.map(|v| v.as_double()).transpose()?),
        Kind::Tri => Answer::Count(first.map_or(Ok(0), |v| v.as_integer())?),
    })
}

/// Record `got` for query `q`: the first answer is kept and every repeat
/// must equal it.
fn record(q: &mut Query, got: Answer, out: &mut Outcome) {
    match &q.answer {
        None => q.answer = Some(got),
        Some(a) if *a == got => {}
        Some(a) => out.problem(format!(
            "{:?} {}→{}: answer changed from {a:?} to {got:?}",
            q.kind, q.s, q.t
        )),
    }
}

/// Generate the data, load it and build the view.
fn setup(
    seed: u64,
    tr: &mut Tracer,
) -> grfusion_common::Result<(Dataset, Database, data::LoadTimes)> {
    let ds = data::follower_graph(REACH_VERTICES, seed);
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
    let mut qs = queries(&ds, args.seed);
    let cycle = schedule(&qs, args.seed);
    let prepared = Prepared::new(&db)?;

    // Warm-up: one pass over every distinct query.
    for q in qs.iter_mut() {
        let (_, p) = prepared.get(q.kind);
        let rs = db.execute_prepared(p, &q.params())?;
        let a = answer_of(q.kind, &rs)?;
        record(q, a, &mut out);
    }

    if args.trace {
        let mut layers = Layers::default();
        // Untraced pass over one cycle, then the same cycle traced.
        for &qi in &cycle {
            let q = &qs[qi];
            let t = Instant::now();
            db.execute_prepared(&prepared.get(q.kind).1, &q.params())?;
            layers.plain_call_ns.add(t.elapsed().as_nanos() as f64); // cast-ok: ns statistic
        }
        for &qi in &cycle {
            let q = &mut qs[qi];
            let (sql, p) = prepared.get(q.kind);
            let params = q.params();
            let rs = layers.read(&mut tr, &db, sql, &params, &inline(sql, &params), Some(p))?;
            let a = answer_of(q.kind, &rs)?;
            record(q, a, &mut out);
        }
        crate::finish_trace(&mut out, &mut layers, &db, lt, &tr, args)?;
    } else {
        let phase = closed::measure(&db, args.seconds, cycle.len(), &mut out, |i| {
            let qi = cycle[i % cycle.len()];
            let q = &qs[qi];
            let rs = db.execute_prepared(&prepared.get(q.kind).1, &q.params())?;
            let a = answer_of(q.kind, &rs)?;
            if q.answer.as_ref() != Some(&a) {
                return Err(grfusion_common::Error::execution(format!(
                    "query {qi} answered {a:?}, earlier {:?}",
                    q.answer
                )));
            }
            Ok(())
        });
        let rss = crate::sys::peak_rss_mb();
        closed::report(&mut out, median(&times), &phase, rss);
    }
    drop(db);
    check(&ds, &qs, &mut out);
    Ok(out)
}

/// Compare every recorded answer with the references: BFS depths from
/// `grfusion_datasets::Adjacency`, and shortest-path costs and triangle
/// counts from the `grfusion_baselines` graph store.
fn check(ds: &Dataset, qs: &[Query], out: &mut Outcome) {
    let adj = Adjacency::build(ds);
    let sub_c = ds.filter_edges_sel_lt(CREACH_SEL);
    let adj_c = Adjacency::build(&sub_c);
    let neo = NeoDb::load(&ds.filter_edges_sel_lt(SP_SEL.max(TRI_SEL)));
    let slot = |v: i64| usize::try_from(v).expect("dense ids");
    for q in qs {
        let Some(got) = &q.answer else {
            out.problem(format!("{:?} {}→{} never ran", q.kind, q.s, q.t));
            continue;
        };
        let reach_ok = |a: &Adjacency, bound: usize, len: &Option<i64>| {
            let bound = u32::try_from(bound).expect("small bound");
            let d = a.bfs_depths(slot(q.s), bound)[slot(q.t)];
            match len {
                None => d == u32::MAX,
                Some(n) => d != u32::MAX && i64::from(d) <= *n && *n <= i64::from(bound),
            }
        };
        let ok = match (q.kind, got) {
            (Kind::Reach(l), Answer::Len(len)) => reach_ok(&adj, l, len),
            (Kind::CReach, Answer::Len(len)) => reach_ok(&adj_c, CREACH_LEN, len),
            (Kind::Sp, Answer::Cost(c)) => match neo.shortest_path_cost(q.s, q.t, Some(SP_SEL)) {
                Ok(want) => match (c, want) {
                    (None, None) => true,
                    (Some(a), Some(b)) => (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    _ => false,
                },
                Err(_) => false,
            },
            // Each directed triangle closes once per start vertex.
            (Kind::Tri, Answer::Count(n)) => neo
                .count_triangles(TRI_SEL)
                .is_ok_and(|want| u64::try_from(*n).ok() == Some(3 * want)),
            _ => false,
        };
        if !ok {
            out.problem(format!(
                "{:?} {}→{}: answer {got:?} disagrees with the reference",
                q.kind, q.s, q.t
            ));
        }
    }
}
