//! Serializable metrics snapshots and their hand-rendered JSON form.

use crate::dims::Dim;
use crate::recorder::{Counter, HistKind};

/// Sparse, serializable form of one [`Histogram`](crate::Histogram).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HistogramSnapshot {
    /// The histogram's stable key (e.g. `"search_hops"`).
    pub kind: &'static str,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(inclusive lower bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Adds `other`'s observations into this snapshot.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        debug_assert_eq!(self.kind, other.kind);
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for &(lo, c) in &other.buckets {
            match self.buckets.binary_search_by_key(&lo, |b| b.0) {
                Ok(i) => self.buckets[i].1 += c,
                Err(i) => self.buckets.insert(i, (lo, c)),
            }
        }
    }
}

/// Serializable per-[`Dim`] slice of a snapshot: the counters and
/// histograms recorded against one community or shard.
///
/// Kept canonically ordered (counters in [`Counter::ALL`] order,
/// histograms in [`HistKind::ALL`] order) so merging slices is associative
/// and independent of merge order.
#[derive(Clone, PartialEq, Debug)]
pub struct DimSnapshot {
    /// The slice this data belongs to.
    pub dim: Dim,
    /// `(key, value)` per counter recorded in this slice (sparse, in
    /// [`Counter::ALL`] order).
    pub counters: Vec<(&'static str, u64)>,
    /// Histogram snapshots recorded in this slice (sparse, in
    /// [`HistKind::ALL`] order).
    pub histograms: Vec<HistogramSnapshot>,
}

/// Canonical position of a counter key (declaration order).
fn counter_rank(key: &str) -> usize {
    Counter::ALL
        .iter()
        .position(|c| c.key() == key)
        .unwrap_or(usize::MAX)
}

/// Canonical position of a histogram kind key (declaration order).
fn hist_rank(key: &str) -> usize {
    HistKind::ALL
        .iter()
        .position(|k| k.key() == key)
        .unwrap_or(usize::MAX)
}

impl DimSnapshot {
    /// An empty slice for `dim`.
    pub fn new(dim: Dim) -> Self {
        Self {
            dim,
            counters: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Value of the counter named `key` (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, v)| *v)
    }

    /// The histogram named `key`, if present.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.kind == key)
    }

    /// Adds `other`'s counts into this slice, preserving canonical order.
    pub fn merge(&mut self, other: &DimSnapshot) {
        debug_assert_eq!(self.dim, other.dim);
        for (k, v) in &other.counters {
            let rank = counter_rank(k);
            match self
                .counters
                .binary_search_by_key(&rank, |(sk, _)| counter_rank(sk))
            {
                Ok(i) => self.counters[i].1 += v,
                Err(i) => self.counters.insert(i, (k, *v)),
            }
        }
        for h in &other.histograms {
            let rank = hist_rank(h.kind);
            match self
                .histograms
                .binary_search_by_key(&rank, |sh| hist_rank(sh.kind))
            {
                Ok(i) => self.histograms[i].merge(h),
                Err(i) => self.histograms.insert(i, h.clone()),
            }
        }
    }
}

/// Final counters and histograms of one (or several merged) runs.
///
/// Produced by [`CountingRecorder::snapshot`](crate::CountingRecorder::snapshot);
/// campaigns merge the per-replicate snapshots of a protocol into one.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(key, value)` per counter, in [`Counter::ALL`](crate::Counter::ALL)
    /// order.
    pub counters: Vec<(&'static str, u64)>,
    /// One snapshot per histogram kind, in
    /// [`HistKind::ALL`](crate::HistKind::ALL) order.
    pub histograms: Vec<HistogramSnapshot>,
    /// Dimensional slices (per community / shard / class), in canonical
    /// [`Dim`] order; empty unless the run recorded dimensional metrics.
    pub dims: Vec<DimSnapshot>,
}

impl MetricsSnapshot {
    /// Value of the counter named `key` (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, v)| *v)
    }

    /// The histogram named `key`, if present.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.kind == key)
    }

    /// Adds `other`'s counts into this snapshot. An empty (default)
    /// snapshot adopts `other` wholesale.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        if self.counters.is_empty() && self.histograms.is_empty() && self.dims.is_empty() {
            *self = other.clone();
            return;
        }
        for (k, v) in &other.counters {
            match self.counters.iter_mut().find(|(sk, _)| sk == k) {
                Some((_, sv)) => *sv += v,
                None => self.counters.push((k, *v)),
            }
        }
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|sh| sh.kind == h.kind) {
                Some(sh) => sh.merge(h),
                None => self.histograms.push(h.clone()),
            }
        }
        for d in &other.dims {
            match self.dims.binary_search_by_key(&d.dim, |sd| sd.dim) {
                Ok(i) => self.dims[i].merge(d),
                Err(i) => self.dims.insert(i, d.clone()),
            }
        }
    }

    /// The dimensional slice recorded for `dim`, if any observation hit it.
    pub fn dim(&self, dim: Dim) -> Option<&DimSnapshot> {
        self.dims
            .binary_search_by_key(&dim, |d| d.dim)
            .ok()
            .map(|i| &self.dims[i])
    }

    /// All per-community slices, ascending by community id.
    pub fn communities(&self) -> impl Iterator<Item = (u32, &DimSnapshot)> {
        self.dims.iter().filter_map(|d| match d.dim {
            Dim::Community(c) => Some((c, d)),
            _ => None,
        })
    }

    /// Fraction of searches resolved at each tier, as
    /// `(channel, category, server)`; `None` when nothing resolved.
    ///
    /// This is the paper's key figure-8/9 quantity: how much load the
    /// channel overlay and category cluster absorb before the server.
    pub fn resolution_split(&self) -> Option<(f64, f64, f64)> {
        let ch = self.counter("resolved_channel") as f64;
        let cat = self.counter("resolved_category") as f64;
        let srv = self.counter("resolved_server") as f64;
        let total = ch + cat + srv;
        if total == 0.0 {
            return None;
        }
        Some((ch / total, cat / total, srv / total))
    }

    /// Renders the snapshot as a JSON object, indented by `indent` spaces
    /// per level (fully deterministic: fixed key order, integer values).
    pub fn to_json(&self, indent: usize) -> String {
        let pad = |n: usize| " ".repeat(indent * n);
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("{}\"counters\": {{\n", pad(1)));
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            s.push_str(&format!("{}\"{k}\": {v}{comma}\n", pad(2)));
        }
        s.push_str(&format!("{}}},\n", pad(1)));
        s.push_str(&format!("{}\"histograms\": {{\n", pad(1)));
        for (i, h) in self.histograms.iter().enumerate() {
            let comma = if i + 1 < self.histograms.len() {
                ","
            } else {
                ""
            };
            let buckets = h
                .buckets
                .iter()
                .map(|(lo, c)| format!("[{lo}, {c}]"))
                .collect::<Vec<_>>()
                .join(", ");
            s.push_str(&format!(
                "{}\"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.3}, \
                 \"buckets\": [{buckets}]}}{comma}\n",
                pad(2),
                h.kind,
                h.count,
                h.sum,
                h.max,
                h.mean(),
            ));
        }
        s.push_str(&format!("{}}},\n", pad(1)));
        s.push_str(&format!("{}\"dims\": {{\n", pad(1)));
        for (i, d) in self.dims.iter().enumerate() {
            let comma = if i + 1 < self.dims.len() { "," } else { "" };
            let counters = d
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect::<Vec<_>>()
                .join(", ");
            let hists = d
                .histograms
                .iter()
                .map(|h| {
                    let buckets = h
                        .buckets
                        .iter()
                        .map(|(lo, c)| format!("[{lo}, {c}]"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    format!(
                        "\"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.3}, \
                         \"buckets\": [{buckets}]}}",
                        h.kind,
                        h.count,
                        h.sum,
                        h.max,
                        h.mean(),
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            s.push_str(&format!(
                "{}\"{}\": {{\"counters\": {{{counters}}}, \"histograms\": {{{hists}}}}}{comma}\n",
                pad(2),
                d.dim.label(),
            ));
        }
        s.push_str(&format!("{}}}\n", pad(1)));
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, CountingRecorder, Dim, HistKind, Recorder};

    fn sample_snapshot() -> MetricsSnapshot {
        let mut r = CountingRecorder::new();
        r.add(Counter::ResolvedChannel, 6);
        r.add(Counter::ResolvedCategory, 3);
        r.add(Counter::ResolvedServer, 1);
        r.observe(HistKind::SearchHops, 1);
        r.observe(HistKind::SearchHops, 2);
        r.snapshot()
    }

    fn dim_snapshot(community: u32, hits: u64, hops: u64) -> MetricsSnapshot {
        let mut r = CountingRecorder::new();
        r.add_dim(Dim::Community(community), Counter::CacheHit, hits);
        r.observe_dim(Dim::Community(community), HistKind::SearchHops, hops);
        r.snapshot()
    }

    #[test]
    fn resolution_split_normalizes() {
        let (ch, cat, srv) = sample_snapshot().resolution_split().expect("resolved");
        assert!((ch - 0.6).abs() < 1e-12);
        assert!((cat - 0.3).abs() < 1e-12);
        assert!((srv - 0.1).abs() < 1e-12);
        assert_eq!(MetricsSnapshot::default().resolution_split(), None);
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = sample_snapshot();
        a.merge(&sample_snapshot());
        assert_eq!(a.counter("resolved_channel"), 12);
        let hops = a.histogram("search_hops").expect("hops hist");
        assert_eq!(hops.count, 4);
        assert_eq!(hops.sum, 6);
        assert_eq!(hops.buckets, vec![(1, 2), (2, 2)]);
    }

    #[test]
    fn merge_into_empty_adopts_other() {
        let mut a = MetricsSnapshot::default();
        a.merge(&sample_snapshot());
        assert_eq!(a, sample_snapshot());
    }

    #[test]
    fn merge_combines_overlapping_and_disjoint_dims() {
        // a: communities {3, 9}; b: communities {3, 5} — 3 overlaps.
        let mut a = dim_snapshot(3, 2, 1);
        a.merge(&dim_snapshot(9, 1, 4));
        let mut b = dim_snapshot(3, 5, 2);
        b.merge(&dim_snapshot(5, 1, 1));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "dim merge is order-independent");

        let dims: Vec<Dim> = ab.dims.iter().map(|d| d.dim).collect();
        assert_eq!(
            dims,
            vec![Dim::Community(3), Dim::Community(5), Dim::Community(9)],
            "merged dims stay in canonical order"
        );
        let c3 = ab.dim(Dim::Community(3)).expect("overlapping slice");
        assert_eq!(c3.counter("cache_hit"), 7);
        assert_eq!(c3.histogram("search_hops").map(|h| h.count), Some(2));
        let hits: Vec<u64> = ab
            .communities()
            .map(|(_, d)| d.counter("cache_hit"))
            .collect();
        assert_eq!(hits, vec![7, 1, 1]);
    }

    #[test]
    fn json_form_is_valid_and_deterministic() {
        let snap = sample_snapshot();
        let a = snap.to_json(2);
        let b = snap.to_json(2);
        assert_eq!(a, b);
        let v = crate::json::parse(&a).expect("valid json");
        let counters = v.get("counters").expect("counters object");
        assert_eq!(
            counters.get("resolved_channel").and_then(|x| x.as_u64()),
            Some(6)
        );
        let hops = v
            .get("histograms")
            .and_then(|h| h.get("search_hops"))
            .expect("hops histogram");
        assert_eq!(hops.get("count").and_then(|x| x.as_u64()), Some(2));
        assert!(v.get("dims").is_some(), "dims object always present");
    }

    #[test]
    fn json_form_renders_dim_slices() {
        let mut snap = dim_snapshot(12, 4, 2);
        snap.merge(&dim_snapshot(3, 1, 1));
        let v = crate::json::parse(&snap.to_json(2)).expect("valid json");
        let c12 = v
            .get("dims")
            .and_then(|d| d.get("community:12"))
            .expect("community slice");
        assert_eq!(
            c12.get("counters")
                .and_then(|c| c.get("cache_hit"))
                .and_then(|x| x.as_u64()),
            Some(4)
        );
        assert_eq!(
            c12.get("histograms")
                .and_then(|h| h.get("search_hops"))
                .and_then(|h| h.get("count"))
                .and_then(|x| x.as_u64()),
            Some(1)
        );
    }
}
