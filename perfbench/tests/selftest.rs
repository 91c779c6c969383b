//! Self-tests of the benchmark's own code: the percentile rule, span
//! self-time arithmetic, the ladder search, the generator's caps and
//! open-loop timing, and the command line and result line.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use grfusion_common::Result;
use perfbench::layers::Layers;
use perfbench::loadgen::{self, Class, Conn, StepStats};
use perfbench::report::{result_line, Outcome};
use perfbench::speed;
use perfbench::stats::{
    better_quarter_mean, beyond, percentile, slot_minima, tail, Latency, MIN_BEYOND,
};
use perfbench::trace::{layer_self_time_by_op, self_times, Span, Tracer};
use perfbench::Args;

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&v, 0.5), Some(50));
    assert_eq!(percentile(&v, 0.99), Some(99));
    assert_eq!(percentile(&v, 1.0), Some(100));
    assert_eq!(percentile(&v, 0.0), Some(1));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    assert_eq!(MIN_BEYOND, 10);
    assert_eq!(beyond(1_000, 0.99), 10);
    assert_eq!(beyond(999, 0.99), 9);
    let few: Vec<u64> = (0..999).collect();
    let enough: Vec<u64> = (0..1_000).collect();
    assert_eq!(tail(&few, 0.99), None);
    assert_eq!(tail(&enough, 0.99), Some(989));
    assert!(Latency::new(few).p99_us().is_none());
    // p50 never needs the tail rule.
    assert!(Latency::new(vec![5]).p50_us().is_some());
}

#[test]
fn run_figure_is_the_better_quarter_mean_of_blocks() {
    // Eight blocks, three disturbed: the figure ignores them either way.
    let lat = [800.0, 810.0, 2_400.0, 790.0, 1_900.0, 805.0, 3_000.0, 820.0];
    assert_eq!(better_quarter_mean(&lat, true), 795.0);
    let rates = [4_900.0, 3_100.0, 5_000.0, 4_950.0, 2_800.0, 4_980.0];
    assert_eq!(better_quarter_mean(&rates, false), 5_000.0);
    assert_eq!(better_quarter_mean(&[7.0], true), 7.0);
    assert!(better_quarter_mean(&[], true).is_nan());
}

#[test]
fn closed_loop_figures_come_from_each_slots_fastest_run() {
    // Three cycles of four statements; the host slowed a different slot in
    // each cycle, and the whole of the last cycle.
    let cycles = vec![
        vec![10, 900, 30, 40],
        vec![500, 20, 30, 45],
        vec![12, 22, 300, 400],
    ];
    assert_eq!(slot_minima(&cycles), vec![10, 20, 30, 40]);
    assert_eq!(slot_minima(&[vec![5, 6]]), vec![5, 6]);
    assert!(slot_minima(&[]).is_empty());
}

#[test]
fn times_scale_to_the_nominal_reference_speed() {
    let nominal = speed::NOMINAL_NS as u64; // cast-ok: whole ns
    assert_eq!(speed::scale(nominal), 1.0);
    // A host at half speed doubles the reference: times are halved.
    assert_eq!(speed::scale(2 * nominal), 0.5);
    let sample = speed::Reference::default().sample();
    assert!(
        sample > 0 && sample < 1_000_000_000,
        "reference took {sample} ns"
    );
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: 1,
    }
}

#[test]
fn self_time_subtracts_covered_child_time() {
    // root [0,100] ⊃ a [10,40] ⊃ a1 [15,25]; root ⊃ b [50,90].
    let spans = vec![
        span("root", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("a1", 15, 25, Some(1)),
        span("b", 50, 90, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    assert_eq!(
        layer_self_time_by_op(&spans)[&1],
        70,
        "the root's own 30 ns is not a layer's"
    );
}

#[test]
fn overlapping_and_overhanging_children_count_once() {
    let spans = vec![
        span("root", 0, 100, None),
        span("x", 10, 50, Some(0)),
        span("y", 30, 70, Some(0)),
        // Overhangs the parent's end: only the covered part counts.
        span("z", 90, 120, Some(0)),
    ];
    assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
}

#[test]
fn recorded_spans_nest_and_add_up() {
    let mut tr = Tracer::new(true);
    tr.begin_op();
    let root = tr.enter("op");
    let a = tr.enter("a");
    std::thread::sleep(Duration::from_millis(2));
    let inner = tr.enter("inner");
    std::thread::sleep(Duration::from_millis(1));
    tr.exit(inner);
    tr.exit(a);
    let b = tr.enter("b");
    tr.exit(b);
    tr.exit(root);
    let spans = tr.spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(1));
    // Only the short gaps between one exit and the next enter stay uncovered.
    let layers = layer_self_time_by_op(spans)[&1];
    assert!(layers <= spans[0].dur_ns());
    assert!(spans[0].dur_ns() - layers < 1_000_000);
    assert!(tr.to_jsonl().lines().count() == 4);

    let mut off = Tracer::new(false);
    let s = off.enter("op");
    off.exit(s);
    assert!(off.spans().is_empty(), "a disabled tracer records nothing");
}

/// A synthetic server: p99 latency `base / (1 - rate / capacity)`, and a
/// backlog once the rate reaches capacity.
fn synthetic(rate: f64, base_ms: f64, capacity: f64) -> StepStats {
    let p99_ns = if rate < capacity {
        (base_ms / (1.0 - rate / capacity) * 1e6) as u64
    } else {
        u64::MAX / 4
    };
    let limit = 20_000_000;
    let over = |n: usize| if p99_ns > limit { n } else { 0 };
    StepStats {
        rate,
        achieved: rate.min(capacity),
        reads: 1_000,
        reads_over: over(1_000),
        writes: 300,
        writes_over: over(300),
        errors: 0,
        final_lag_ns: if rate < capacity {
            100_000
        } else {
            1_000_000_000
        },
    }
}

#[test]
fn ladder_finds_the_highest_passing_rate() {
    let rates: Vec<f64> = (1..=22).map(|i| f64::from(i) * 500.0).collect();
    // 2 ms at zero load, capacity 6 000/s: the limit (20 ms) is met up to
    // rate < 5 400/s, so 5 000 is the answer.
    let mut steps = 0;
    let best = loadgen::ladder(&rates, 20_000_000, |r| {
        steps += 1;
        synthetic(r, 2.0, 6_000.0)
    })
    .expect("low rates pass");
    assert_eq!(best.rate, 5_000.0);
    assert!(
        steps <= 5,
        "bisection over 22 steps runs at most 5, ran {steps}"
    );

    // Everything passes: the top step. Nothing passes: None.
    let top = loadgen::ladder(&rates, 20_000_000, |r| synthetic(r, 0.1, 1e9)).unwrap();
    assert_eq!(top.rate, 11_000.0);
    assert!(loadgen::ladder(&rates, 20_000_000, |r| synthetic(r, 50.0, 6_000.0)).is_none());
}

#[test]
fn step_verdict_rules() {
    let limit = 20_000_000;
    let ok = synthetic(1_000.0, 1.0, 10_000.0);
    assert!(ok.passes(limit));
    // 1% of reads over the limit still meets p99; 1% plus one does not.
    let mut edge = ok.clone();
    edge.reads_over = 10;
    assert!(edge.passes(limit));
    edge.reads_over = 11;
    assert!(!edge.passes(limit));
    let mut backlog = ok.clone();
    backlog.final_lag_ns = limit + 1;
    assert!(!backlog.passes(limit), "a growing backlog fails the step");
    let mut failed = ok;
    failed.errors = 1;
    assert!(!failed.passes(limit), "a failed request fails the step");
}

/// Fake connection: counts how many calls run at once and sleeps `delay`.
struct Fake {
    active: Arc<AtomicUsize>,
    peak: Arc<AtomicUsize>,
    threads: Arc<std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>>,
    delay: Duration,
}

impl Conn for Fake {
    type Reply = ();
    fn call(&mut self, _sql: &str) -> Result<()> {
        let now = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        self.threads
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        std::thread::sleep(self.delay);
        self.active.fetch_sub(1, Ordering::SeqCst);
        Ok(())
    }
}

fn fakes(
    n: usize,
    delay: Duration,
) -> (
    Vec<Fake>,
    Arc<AtomicUsize>,
    Arc<std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>>,
) {
    let active = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let threads = Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
    let conns = (0..n)
        .map(|_| Fake {
            active: Arc::clone(&active),
            peak: Arc::clone(&peak),
            threads: Arc::clone(&threads),
            delay,
        })
        .collect();
    (conns, peak, threads)
}

#[test]
fn generator_caps_connections_and_threads_by_cpu_count() {
    assert_eq!(loadgen::connection_cap(2, 2), 2);
    assert_eq!(loadgen::connection_cap(16, 2), 2);
    assert_eq!(loadgen::connection_cap(2, 1), 1);
    assert_eq!(loadgen::connection_cap(0, 4), 1);

    let n = loadgen::connection_cap(16, 2);
    let (mut conns, peak, threads) = fakes(n, Duration::from_micros(200));
    let mut seqs = vec![0; n];
    let request = |_c: usize, seq: u64| (Class::Read, format!("q{seq}"));
    let samples = loadgen::run_step(
        &mut conns,
        &mut seqs,
        2_000.0,
        Duration::from_millis(200),
        &request,
    );
    assert_eq!(samples.len(), 400);
    assert!(
        peak.load(Ordering::SeqCst) <= n,
        "at most one request in flight per connection"
    );
    assert_eq!(
        threads.lock().unwrap().len(),
        n,
        "one generator thread per connection"
    );
    // Sequence numbers continue across steps.
    assert_eq!(seqs, vec![200, 200]);
    let more = loadgen::run_step(
        &mut conns,
        &mut seqs,
        2_000.0,
        Duration::from_millis(10),
        &request,
    );
    assert!(more.iter().all(|s| s.seq >= 200));
}

#[test]
fn latency_is_timed_from_the_due_time() {
    // Each call takes 4 ms but one connection is due every 1 ms: requests
    // queue behind each other, so latency from the due time grows far past
    // the service time and the generator falls behind.
    let (mut conns, _, _) = fakes(1, Duration::from_millis(4));
    let mut seqs = vec![0];
    let request = |_c: usize, _s: u64| (Class::Write, String::new());
    let samples = loadgen::run_step(
        &mut conns,
        &mut seqs,
        1_000.0,
        Duration::from_millis(40),
        &request,
    );
    let last = samples.last().unwrap();
    assert!(
        last.latency_ns > 100_000_000,
        "latency {} ns",
        last.latency_ns
    );
    assert!(last.lag_ns > 90_000_000, "lag {} ns", last.lag_ns);
    let st = StepStats::from_samples(1_000.0, &samples, 20_000_000);
    assert!(!st.passes(20_000_000));
}

#[test]
fn args_parse_and_reject() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = Args::parse(&argv("--workload serve-rw --seed 7 --seconds 10 --trace 1")).unwrap();
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace),
        ("serve-rw", 7, 10.0, true)
    );
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload serve-rw --seed x --seconds 1 --trace 0",
        "--workload serve-rw --seed 1 --seconds 0 --trace 0",
        "--workload serve-rw --seed 1 --seconds 1 --trace 2",
        "--workload serve-rw --seed 1 --seconds 1",
        "--workload serve-rw --seed 1 --seconds 1 --trace 0 --extra 1",
    ] {
        assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut o = Outcome {
        correct: true,
        attempted: 3,
        failed: 0,
        ..Outcome::default()
    };
    o.metric("setup_s", 0.25, "s");
    o.metric("read_p50_us", 12.5, "us");
    assert_eq!(
        result_line(&o),
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"read_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}"
    );
}

#[test]
fn benchmark_json_lists_what_the_code_reports() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for w in perfbench::WORKLOADS {
        assert_eq!(
            json.contains(&format!("\"name\": \"{w}\"")),
            perfbench::MEASURED.contains(&w),
            "workload {w}"
        );
    }
    for (name, unit) in perfbench::layers::PER_LAYER {
        assert!(
            json.contains(&format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\""
            )),
            "per-layer metric {name}"
        );
    }
    let limit = format!("p99 <= {} ms", perfbench::serve::P99_LIMIT_MS);
    assert!(
        json.contains(&limit),
        "the serve-rw latency limit is recorded as `{limit}`"
    );
}

#[test]
fn reference_path_enumerator_matches_the_engine() {
    // The hybrid-adhoc and serve-rw checks trust `EdgeLists::path_ends`
    // and `path_ends_where`; they must agree with the engine's path
    // semantics on both directions, with and without an edge predicate.
    for ds in [
        grfusion_datasets::roads(100, 3),
        perfbench::data::follower_graph(300, 4),
    ] {
        let (db, _) = perfbench::data::load(&ds, &mut Tracer::new(false)).unwrap();
        let lists = perfbench::refs::EdgeLists::build(&ds);
        let sel = ds.sel_attr_index();
        let sel_of: std::collections::HashMap<i64, i64> = ds
            .edges
            .iter()
            .map(|(id, _, _, a)| (*id, a[sel].as_integer().unwrap()))
            .collect();
        let count = |sql: &str| {
            db.execute(sql)
                .unwrap()
                .scalar()
                .unwrap()
                .as_integer()
                .unwrap()
        };
        for v in (0..ds.vertex_count()).step_by(7) {
            for len in 1..=3 {
                let sql = format!("SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = {v} AND P.Length = {len}");
                assert_eq!(count(&sql), lists.path_ends(v, len).len() as i64, "{sql}");
                let sql = format!("{sql} AND P.Edges[0..*].sel < 50");
                let want = lists.path_ends_where(v, len, &|e| sel_of[&e] < 50).len();
                assert_eq!(count(&sql), want as i64, "{sql}");
            }
        }
    }
}

/// One traced op: a 1 ms layer span, then `gap` outside every span.
fn traced_op(l: &mut Layers, tr: &mut Tracer, gap: Duration) {
    let op = l.begin_op(tr);
    let s = tr.enter("layer");
    std::thread::sleep(Duration::from_millis(1));
    tr.exit(s);
    std::thread::sleep(gap);
    l.end_op(tr, op);
}

#[test]
fn self_time_check_fails_on_time_no_layer_span_covers() {
    let mut tr = Tracer::new(true);
    let mut l = Layers::default();
    for _ in 0..3 {
        traced_op(&mut l, &mut tr, Duration::ZERO);
    }
    l.check_self_times(tr.spans());
    assert_eq!(l.sum_check_failures, 0, "covered ops add up");
    assert!(l.self_times_add_up());

    let mut tr = Tracer::new(true);
    let mut l = Layers::default();
    for _ in 0..3 {
        traced_op(&mut l, &mut tr, Duration::from_millis(2));
    }
    l.check_self_times(tr.spans());
    assert_eq!(l.sum_check_failures, 3, "an untraced gap shows on every op");
    assert!(!l.self_times_add_up());
}

#[test]
fn self_time_check_allows_one_preempted_op_per_thousand() {
    let mut l = Layers::default();
    l.ops = 3_873;
    l.sum_check_failures = 3;
    assert!(l.self_times_add_up());
    l.sum_check_failures = 4;
    assert!(!l.self_times_add_up());
    l.ops = 512;
    l.sum_check_failures = 1;
    assert!(
        l.self_times_add_up(),
        "at least one outlier per run is allowed"
    );
    l.sum_check_failures = 2;
    assert!(!l.self_times_add_up());
}
