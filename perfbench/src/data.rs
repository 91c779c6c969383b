//! Seeded inputs for the three workloads and the loader that turns them
//! into tables plus a graph view.
//!
//! The engine only ever receives these generated rows; every reference
//! answer the checks use is computed from the same rows by code that does
//! not go through the engine.

use std::time::Instant;

use grfusion::{Database, EngineConfig};
use grfusion_baselines::GrFusionSystem;
use grfusion_common::{DataType, Result, Value};
use grfusion_datasets::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;

/// Vertices of the `reach-prepared` follower graph. At this size the
/// engine's topology is larger than the 105 MiB L3 of the reference box.
pub const REACH_VERTICES: usize = 200_000;
/// Vertices of the `hybrid-adhoc` graph (medium tables: ~100k edge rows).
pub const HYBRID_VERTICES: usize = 16_000;
/// Vertices of the `serve-rw` roads graph; its topology fits in L2.
pub const SERVE_VERTICES: usize = 2_000;
/// Follow-backs a user grants at most. The follower generator only links
/// newer users to older ones, which leaves no directed cycles; reciprocal
/// follows close triangles while keeping out-degree bounded (≤ 6 + this).
const MAX_FOLLOW_BACKS: usize = 3;
/// Share of followers that get followed back (Twitter-like reciprocity).
const FOLLOW_BACK_P: f64 = 0.25;
/// Regions in the `hybrid-adhoc` vertex table.
pub const REGIONS: i64 = 16;

/// Follower graph with reciprocal follows, for `reach-prepared`.
pub fn follower_graph(n: usize, seed: u64) -> Dataset {
    let mut ds = grfusion_datasets::follower(n, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_f011_0b4c);
    let mut granted = vec![0usize; n];
    let mut next_id = ds.edges.len() as i64; // cast-ok: edge count far below 2^63
    let mut backs = Vec::new();
    for (_, from, to, attrs) in &ds.edges {
        let t = usize::try_from(*to).expect("dense generator ids");
        if granted[t] < MAX_FOLLOW_BACKS && rng.gen::<f64>() < FOLLOW_BACK_P {
            granted[t] += 1;
            let mut a = attrs.clone();
            a[0] = Value::Double(0.5 + rng.gen::<f64>() * 10.0);
            a[1] = Value::Integer(rng.gen_range(0..100));
            backs.push((next_id, *to, *from, a));
            next_id += 1;
        }
    }
    ds.edges.extend(backs);
    ds
}

/// Follower graph whose vertices carry `region` and `score` columns, for
/// the relational side of `hybrid-adhoc`.
pub fn hybrid_graph(n: usize, seed: u64) -> Dataset {
    let mut ds = grfusion_datasets::follower(n, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4ab7_1d00);
    ds.vertex_schema.push(("region".into(), DataType::Integer));
    ds.vertex_schema.push(("score".into(), DataType::Integer));
    for (_, attrs) in &mut ds.vertices {
        attrs.push(Value::Integer(rng.gen_range(0..REGIONS)));
        attrs.push(Value::Integer(rng.gen_range(0..1000)));
    }
    ds
}

/// Roads graph for `serve-rw`.
pub fn roads_graph(n: usize, seed: u64) -> Dataset {
    grfusion_datasets::roads(n, seed)
}

/// Timings of one load, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadTimes {
    pub load_s: f64,
    pub build_s: f64,
}

/// Load a dataset into a new database with the default configuration:
/// tables `v_src` and `e_src` bulk-loaded, then graph view `g` built, each
/// step timed and recorded as a `storage.load` / `graph_view.create` span.
pub fn load(ds: &Dataset, tr: &mut Tracer) -> Result<(Database, LoadTimes)> {
    let t0 = Instant::now();
    let s = tr.enter("storage.load");
    let db = GrFusionSystem::prepare_tables(ds, EngineConfig::default())?;
    tr.exit(s);
    let load_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let s = tr.enter("graph_view.create");
    db.execute(&GrFusionSystem::graph_view_ddl(ds))?;
    tr.exit(s);
    Ok((
        db,
        LoadTimes {
            load_s,
            build_s: t1.elapsed().as_secs_f64(),
        },
    ))
}

/// Side table for the point-write probe of the read-only workloads: small
/// and outside every graph view, so the probe's cost is the engine's fixed
/// per-statement write path rather than a scan of the workload's data.
pub const PROBE_ROWS: i64 = 256;

pub fn create_probe_table(db: &Database) -> Result<()> {
    db.execute("CREATE TABLE bench_probe (id INTEGER PRIMARY KEY, n INTEGER)")?;
    let rows = (0..PROBE_ROWS)
        .map(|i| vec![Value::Integer(i), Value::Integer(0)])
        .collect();
    db.bulk_insert("bench_probe", rows)?;
    Ok(())
}

/// Run a set-up `n` times, timing each, and keep the last one. Each earlier
/// result is dropped before the next set-up starts, so set-ups never
/// overlap in memory.
pub fn repeat_setup<T>(n: usize, mut setup: impl FnMut() -> Result<T>) -> Result<(T, Vec<f64>)> {
    let mut times = Vec::with_capacity(n);
    let mut kept = None;
    for _ in 0..n.max(1) {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up ran"), times))
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}
