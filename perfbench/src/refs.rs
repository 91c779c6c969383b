//! Reference answers computed straight from the generated rows, without
//! the engine: simple-path enumeration with the engine's documented path
//! semantics, used where no baseline system answers the query.

use grfusion_datasets::Dataset;

/// Out-lists of `(neighbour, edge id)`; undirected edges appear in both
/// endpoints' lists.
pub struct EdgeLists {
    out: Vec<Vec<(u32, i64)>>,
}

fn slot(id: i64) -> usize {
    usize::try_from(id).expect("generated vertex ids are dense and non-negative")
}

impl EdgeLists {
    pub fn build(ds: &Dataset) -> EdgeLists {
        let mut out = vec![Vec::new(); ds.vertex_count()];
        for (id, from, to, _) in &ds.edges {
            let (f, t) = (slot(*from), slot(*to));
            out[f].push((u32::try_from(t).expect("vertex ids < 2^32"), *id));
            if !ds.directed && f != t {
                out[t].push((u32::try_from(f).expect("vertex ids < 2^32"), *id));
            }
        }
        EdgeLists { out }
    }

    /// End vertices of every simple path of exactly `len` edges from
    /// `start`, one entry per path. Simple as the engine defines it: no
    /// edge is reused and no vertex is revisited, except that the last hop
    /// may return to the start, closing a cycle.
    pub fn path_ends(&self, start: usize, len: usize) -> Vec<usize> {
        self.path_ends_where(start, len, &|_| true)
    }

    /// [`EdgeLists::path_ends`] over only the edges whose id `keep` accepts.
    pub fn path_ends_where(
        &self,
        start: usize,
        len: usize,
        keep: &dyn Fn(i64) -> bool,
    ) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut on_path = vec![start];
        let mut edges: Vec<i64> = Vec::new();
        self.walk(start, start, len, keep, &mut on_path, &mut edges, &mut ends);
        ends
    }

    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        start: usize,
        v: usize,
        left: usize,
        keep: &dyn Fn(i64) -> bool,
        on_path: &mut Vec<usize>,
        edges: &mut Vec<i64>,
        ends: &mut Vec<usize>,
    ) {
        if left == 0 {
            ends.push(v);
            return;
        }
        for &(n, e) in &self.out[v] {
            let n = n as usize; // cast-ok: u32 slot widens to usize
            if !keep(e) || edges.contains(&e) {
                continue;
            }
            if n == start {
                // Closing the cycle is allowed only as the last hop.
                if left == 1 {
                    ends.push(n);
                }
                continue;
            }
            if on_path.contains(&n) {
                continue;
            }
            on_path.push(n);
            edges.push(e);
            self.walk(start, n, left - 1, keep, on_path, edges, ends);
            edges.pop();
            on_path.pop();
        }
    }
}

/// Multi-source BFS hop distance from any vertex in `sources`
/// (`u32::MAX` = unreachable), over the dataset's edges in both
/// directions when the graph is undirected.
pub fn distance_from_set(
    adj: &grfusion_datasets::Adjacency,
    n: usize,
    sources: &[usize],
) -> Vec<u32> {
    let mut dist = vec![u32::MAX; n];
    let mut q = std::collections::VecDeque::new();
    for &s in sources {
        dist[s] = 0;
        q.push_back(s);
    }
    while let Some(v) = q.pop_front() {
        for &t in adj.neighbours(v) {
            let t = t as usize; // cast-ok: u32 slot widens to usize
            if dist[t] == u32::MAX {
                dist[t] = dist[v] + 1;
                q.push_back(t);
            }
        }
    }
    dist
}
