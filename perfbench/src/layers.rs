//! The traced run: replays a workload's statements through each layer's
//! public entry point, records a span around every call, and turns the
//! spans plus the engine's operator metrics into per-layer numbers.

use std::time::Instant;

use grfusion::{Database, PreparedQuery, QueryMetrics, ResultSet, Value};
use grfusion_common::Result;
use grfusion_server::wire::{self, Frame};
use grfusion_server::Response;

use crate::report::Outcome;
use crate::trace::{self, Span, Tracer};

/// Every per-layer metric, in report order, with its unit. Each workload
/// reports all of them; a layer a workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sql.parse_us", "us"),
    ("planner.prepare_us", "us"),
    ("exec.run_us", "us"),
    ("exec.relational_self_us", "us"),
    ("exec.pathscan_self_us", "us"),
    ("exec.next_calls_per_row", "ratio"),
    ("exec.rows_out", "count"),
    ("graph.vertices_visited", "count"),
    ("graph.edges_expanded", "count"),
    ("graph.tuple_derefs", "count"),
    ("graph.paths_per_kedge", "ratio"),
    ("graph.topology_bytes", "bytes"),
    ("graph.overlay_bytes", "bytes"),
    ("storage.load_s", "s"),
    ("graph_view.build_s", "s"),
    ("dml.update_us", "us"),
    ("dml.relink_us", "us"),
    ("epoch.live", "count"),
    ("epoch.retained_bytes", "bytes"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_request", "bytes"),
    ("wire.bytes_per_response", "bytes"),
    ("tenant.admitted", "count"),
    ("tenant.shed", "count"),
    ("client.retries", "count"),
    ("server.rtt_us", "us"),
    ("server.unattributed_us", "us"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.ladder_max_qps", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Allowed gap between an op's wall time, read outside the tracer, and
/// the sum of the self times of its layer spans: 2% of the wall time plus
/// 20 µs for the clock reads and the benchmark's own bookkeeping between
/// layer calls.
pub const SELF_TIME_TOLERANCE: (f64, u64) = (0.02, 20_000);

/// Ops per thousand that may exceed [`SELF_TIME_TOLERANCE`] (at least one
/// per run): the host can preempt the thread between two layer calls. A
/// layer call left outside every span would show on every op.
pub const SELF_TIME_OUTLIERS_PER_MILLE: u64 = 1;

/// Mean of a sum over a count (0 when nothing was counted).
#[derive(Clone, Copy, Debug, Default)]
pub struct Mean {
    pub sum: f64,
    pub n: u64,
}

impl Mean {
    pub fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }
    pub fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64 // cast-ok: statistic
        }
    }
}

/// Write class of a traced DML statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteKind {
    Update,
    Relink,
}

/// Per-layer accumulators for one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pub parse_ns: Mean,
    pub plan_ns: Mean,
    pub run_ns: Mean,
    pub rel_self_ns: Mean,
    pub ps_self_ns: Mean,
    next_calls: u64,
    node_rows: u64,
    pub rows_out: Mean,
    pub vertices: Mean,
    pub edges: Mean,
    pub derefs: Mean,
    paths: u64,
    edges_total: u64,
    pub update_ns: Mean,
    pub relink_ns: Mean,
    pub encode_ns: Mean,
    pub decode_ns: Mean,
    pub req_bytes: Mean,
    pub resp_bytes: Mean,
    pub rtt_ns: Mean,
    pub unattributed_ns: Mean,
    /// Engine figures (see [`Layers::engine_stats`]) and load-generator
    /// figures set by the workload.
    pub topology_bytes: f64,
    pub overlay_bytes: f64,
    pub load_s: f64,
    pub build_s: f64,
    pub epoch_live: f64,
    pub epoch_retained: f64,
    pub admitted: f64,
    pub shed: f64,
    pub retries: f64,
    pub lag_p99_us: f64,
    pub ladder_max_qps: f64,
    /// Mean duration of the timed end-to-end call with and without tracing.
    pub traced_call_ns: Mean,
    pub plain_call_ns: Mean,
    /// Ops whose span self times did not add up to their wall time, and
    /// the largest gap seen (ns).
    pub sum_check_failures: u64,
    pub sum_check_worst_ns: u64,
    pub ops: u64,
    /// Wall time of each traced op, by op id.
    walls: Vec<(u64, u64)>,
}

fn ns(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64 // cast-ok: duration statistic
}

/// Run `f` inside a span named `name` and return its result and duration.
fn timed<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let s = tr.enter(name);
    let t = Instant::now();
    let out = f();
    let d = ns(t.elapsed());
    tr.exit(s);
    (out, d)
}

impl Layers {
    /// Fold one query's operator metrics into the exec/graph layers.
    pub fn add_query_metrics(&mut self, m: &QueryMetrics) {
        let (mut rel, mut ps) = (0u64, 0u64);
        for (i, node) in m.nodes.iter().enumerate() {
            let children: u64 = m.nodes[i + 1..]
                .iter()
                .take_while(|c| c.depth > node.depth)
                .filter(|c| c.depth == node.depth + 1)
                .map(|c| c.time_ns)
                .sum();
            let own = node.time_ns.saturating_sub(children);
            if node.label.starts_with("PathScan") || node.label.starts_with("PathJoin") {
                ps += own;
                self.paths += node.rows;
            } else {
                rel += own;
            }
            self.next_calls += node.next_calls;
            self.node_rows += node.rows;
        }
        self.rel_self_ns.add(rel as f64); // cast-ok: ns statistic
        self.ps_self_ns.add(ps as f64); // cast-ok: ns statistic
        self.rows_out
            .add(m.nodes.first().map_or(0.0, |n| n.rows as f64)); // cast-ok: row count
        let g = m.graph_totals();
        self.vertices.add(g.vertices_visited as f64); // cast-ok: counter
        self.edges.add(g.edges_expanded as f64); // cast-ok: counter
        self.derefs.add(g.tuple_derefs as f64); // cast-ok: counter
        self.edges_total += g.edges_expanded;
    }

    /// Start a traced op: its wall clock and root span.
    pub fn begin_op(&mut self, tr: &mut Tracer) -> (u64, Instant, trace::SpanId) {
        let op = tr.begin_op();
        let t = Instant::now();
        (op, t, tr.enter("op"))
    }

    /// End a traced op and record its wall time.
    pub fn end_op(&mut self, tr: &mut Tracer, (op, t, root): (u64, Instant, trace::SpanId)) {
        tr.exit(root);
        self.walls.push((
            op,
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
        ));
        self.ops += 1;
    }

    /// Traced in-process read. Ad hoc text (`prepared` is `None`) is
    /// parsed, prepared and run; a prepared plan is only run, so parse and
    /// plan read 0 on a workload that never calls them. Operator metrics
    /// come from running `inlined`, the statement with its parameters
    /// filled in as literals, once more through `execute_with_metrics`.
    pub fn read(
        &mut self,
        tr: &mut Tracer,
        db: &Database,
        template: &str,
        params: &[Value],
        inlined: &str,
        prepared: Option<&PreparedQuery>,
    ) -> Result<ResultSet> {
        let op = self.begin_op(tr);
        let (rs, call) = match prepared {
            Some(plan) => {
                let (rs, run) = timed(tr, "exec.execute_prepared", || {
                    db.execute_prepared(plan, params)
                });
                self.run_ns.add(run);
                (rs, run)
            }
            None => {
                // Each value is dropped inside the span of the layer that
                // made it, so no layer's work falls between spans.
                let (parsed, parse) = timed(tr, "sql.parse", || {
                    grfusion_sql::parse_statement(template).map(drop)
                });
                parsed?;
                let (p, prep) = timed(tr, "planner.prepare", || db.prepare(template));
                let p = p?;
                let (rs, run) = timed(tr, "exec.execute_prepared", move || {
                    db.execute_prepared(&p, params)
                });
                self.parse_ns.add(parse);
                self.plan_ns.add((prep - parse).max(0.0));
                self.run_ns.add(run);
                (rs, prep + run)
            }
        };
        let rs = rs?;
        let (m, _) = timed(tr, "exec.execute_with_metrics", || {
            db.execute_with_metrics(inlined)
        });
        self.end_op(tr, op);
        self.traced_call_ns.add(call);
        if let Some(qm) = m?.metrics {
            self.add_query_metrics(&qm);
        }
        Ok(rs)
    }

    /// Traced served request: the wire encode/decode of request and
    /// response, the round trip through the server, and the engine layers
    /// the server calls, replayed in-process. Writes replay in-process as
    /// well, so a write must be idempotent; the caller logs it twice.
    pub fn served(
        &mut self,
        tr: &mut Tracer,
        db: &Database,
        client: &mut grfusion_server::Client,
        sql: &str,
        write: Option<WriteKind>,
    ) -> Result<Response> {
        let op = self.begin_op(tr);
        let req = Frame::Query {
            id: 1,
            deadline_ms: 0,
            sql: sql.to_string(),
        };
        let (req_bytes, enc_req) = timed(tr, "wire.encode", || wire::encode_frame(&req));
        let (dec, dec_req) = timed(tr, "wire.decode", || wire::decode_payload(&req_bytes[4..]));
        dec?;
        let (resp, rtt) = timed(tr, "server.roundtrip", || client.query(sql));
        let resp = resp?;
        let frame = Frame::Rows {
            id: 1,
            columns: resp.columns,
            rows: resp.rows,
            rows_affected: resp.rows_affected,
        };
        let (resp_bytes, enc_resp) = timed(tr, "wire.encode", || wire::encode_frame(&frame));
        let (dec, dec_resp) = timed(tr, "wire.decode", || wire::decode_payload(&resp_bytes[4..]));
        // The caller checks the reply after its encode/decode round trip.
        let Frame::Rows {
            columns,
            rows,
            rows_affected,
            ..
        } = dec?
        else {
            return Err(grfusion_common::Error::execution(
                "a Rows frame decoded as another frame",
            ));
        };
        let resp = Response {
            columns,
            rows,
            rows_affected,
        };
        let (parsed, parse) = timed(tr, "sql.parse", || {
            grfusion_sql::parse_statement(sql).map(drop)
        });
        parsed?;
        let (engine, metrics) = match write {
            None => {
                let (p, prep) = timed(tr, "planner.prepare", || db.prepare(sql));
                let p = p?;
                let (rs, run) = timed(tr, "exec.execute_prepared", move || {
                    db.execute_prepared(&p, &[]).map(drop)
                });
                rs?;
                let (m, _) = timed(tr, "exec.execute_with_metrics", || {
                    db.execute_with_metrics(sql)
                });
                self.plan_ns.add((prep - parse).max(0.0));
                self.run_ns.add(run);
                (prep + run, Some(m?))
            }
            Some(kind) => {
                let (rows, exec) = timed(tr, "dml.execute", || {
                    db.execute(sql).map(|rs| rs.rows_affected)
                });
                let rows = rows?;
                if rows != 1 {
                    return Err(grfusion_common::Error::execution(format!(
                        "traced replay of `{sql}` affected {rows} rows"
                    )));
                }
                let dml = (exec - parse).max(0.0);
                match kind {
                    WriteKind::Update => self.update_ns.add(dml),
                    WriteKind::Relink => self.relink_ns.add(dml),
                }
                (exec, None)
            }
        };
        self.end_op(tr, op);
        if let Some(qm) = metrics.and_then(|m| m.metrics) {
            self.add_query_metrics(&qm);
        }
        let wire_ns = enc_req + dec_req + enc_resp + dec_resp;
        self.parse_ns.add(parse);
        self.encode_ns.add(enc_req + enc_resp);
        self.decode_ns.add(dec_req + dec_resp);
        self.req_bytes.add(req_bytes.len() as f64); // cast-ok: byte count
        self.resp_bytes.add(resp_bytes.len() as f64); // cast-ok: byte count
        self.rtt_ns.add(rtt);
        self.traced_call_ns.add(rtt);
        // `engine` already contains the parse, as the server's own call does.
        self.unattributed_ns.add(rtt - wire_ns - engine);
        Ok(resp)
    }

    /// Topology, epoch and load figures of the loaded database.
    pub fn engine_stats(&mut self, db: &Database, load: crate::data::LoadTimes) -> Result<()> {
        let st = db.graph_stats("g")?;
        self.topology_bytes = st.memory_bytes as f64; // cast-ok: byte count
        self.overlay_bytes = st.overlay_bytes as f64; // cast-ok: byte count
        let (live, retained) = db.epoch_stats();
        self.epoch_live = live as f64; // cast-ok: count
        self.epoch_retained = retained as f64; // cast-ok: byte count
        self.load_s = load.load_s;
        self.build_s = load.build_s;
        Ok(())
    }

    /// Whether the self-time check passed: few enough ops outside the
    /// tolerance.
    pub fn self_times_add_up(&self) -> bool {
        self.sum_check_failures <= (self.ops * SELF_TIME_OUTLIERS_PER_MILLE / 1_000).max(1)
    }

    /// Check that the self times of each op's layer spans add up to its
    /// wall time.
    pub fn check_self_times(&mut self, spans: &[Span]) {
        let by_op = trace::layer_self_time_by_op(spans);
        let (share, floor) = SELF_TIME_TOLERANCE;
        for &(op, wall) in &self.walls {
            let sum = by_op.get(&op).copied().unwrap_or(0);
            let tol = (wall as f64 * share) as u64 + floor; // cast-ok: tolerance arithmetic
            self.sum_check_worst_ns = self.sum_check_worst_ns.max(sum.abs_diff(wall));
            if sum.abs_diff(wall) > tol {
                self.sum_check_failures += 1;
            }
        }
    }

    /// Per-layer metrics in [`PER_LAYER`] order.
    pub fn report(&self, out: &mut Outcome) {
        let us = |m: &Mean| m.get() / 1_000.0;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 }; // cast-ok: ratio
        let overhead = if self.plain_call_ns.get() > 0.0 {
            100.0 * (self.traced_call_ns.get() - self.plain_call_ns.get())
                / self.plain_call_ns.get()
        } else {
            0.0
        };
        let values = [
            us(&self.parse_ns),
            us(&self.plan_ns),
            us(&self.run_ns),
            us(&self.rel_self_ns),
            us(&self.ps_self_ns),
            ratio(self.next_calls, self.node_rows),
            self.rows_out.get(),
            self.vertices.get(),
            self.edges.get(),
            self.derefs.get(),
            1_000.0 * ratio(self.paths, self.edges_total),
            self.topology_bytes,
            self.overlay_bytes,
            self.load_s,
            self.build_s,
            us(&self.update_ns),
            us(&self.relink_ns),
            self.epoch_live,
            self.epoch_retained,
            us(&self.encode_ns),
            us(&self.decode_ns),
            self.req_bytes.get(),
            self.resp_bytes.get(),
            self.admitted,
            self.shed,
            self.retries,
            us(&self.rtt_ns),
            us(&self.unattributed_ns),
            self.lag_p99_us,
            self.ladder_max_qps,
            overhead,
        ];
        for (&(name, unit), v) in PER_LAYER.iter().zip(values) {
            out.metric(name, v, unit);
        }
        out.sample(
            "traced_ops",
            usize::try_from(self.ops).unwrap_or(usize::MAX),
        );
    }
}
