//! The one form recorded metrics take, and its JSON form.

use crate::dims::Dim;
use crate::json::Value;
use crate::recorder::{Counter, HistKind, Histogram};

/// Counters and histograms of one scope — a whole run, or one [`Dim`]
/// slice of it — and, at run scope, the per-`Dim` slices (a slice's own
/// slice list is empty).
///
/// A [`RunRecorder`](crate::RunRecorder) writes into one and finishes into
/// it; a sharded run folds its shards' snapshots and a campaign its
/// replicates' with [`merge`](Self::merge). Storage is canonical —
/// histograms in [`HistKind::ALL`] order and present once observed, slices
/// in `Dim` order — so the same observations recorded or merged in any
/// order give equal snapshots.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MetricsSnapshot {
    counters: [u64; Counter::COUNT],
    histograms: Vec<Histogram>,
    dims: Vec<(Dim, MetricsSnapshot)>,
}

/// The element of `items` (sorted by `key_of`) keyed `key`, inserted from
/// `new` where missing.
fn entry<T, K: Ord>(
    items: &mut Vec<T>,
    key: K,
    key_of: impl Fn(&T) -> K,
    new: impl FnOnce() -> T,
) -> &mut T {
    let i = match items.binary_search_by_key(&key, key_of) {
        Ok(i) => i,
        Err(i) => {
            items.insert(i, new());
            i
        }
    };
    &mut items[i]
}

impl MetricsSnapshot {
    pub(crate) fn add(&mut self, counter: Counter, n: u64) {
        self.counters[counter as usize] += n;
    }

    pub(crate) fn observe(&mut self, kind: HistKind, value: u64) {
        self.histogram_mut(kind).record(value);
    }

    fn histogram_mut(&mut self, kind: HistKind) -> &mut Histogram {
        entry(&mut self.histograms, kind, Histogram::kind, || {
            Histogram::new(kind)
        })
    }

    /// `dim`'s slice, created empty on first use.
    pub(crate) fn slice_mut(&mut self, dim: Dim) -> &mut MetricsSnapshot {
        let (_, slice) = entry(&mut self.dims, dim, |(d, _)| *d, || (dim, Self::default()));
        slice
    }

    /// Value of the counter named `key` (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        Counter::ALL
            .iter()
            .find(|c| c.key() == key)
            .map_or(0, |c| self.counters[*c as usize])
    }

    /// The histogram named `key`, if it received an observation.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|h| h.kind().key() == key)
    }

    /// The slice recorded for `dim`, if any observation hit it.
    pub fn dim(&self, dim: Dim) -> Option<&MetricsSnapshot> {
        self.dims
            .binary_search_by_key(&dim, |(d, _)| *d)
            .ok()
            .map(|i| &self.dims[i].1)
    }

    /// All per-community slices, ascending by community id.
    pub fn communities(&self) -> impl Iterator<Item = (u32, &MetricsSnapshot)> {
        self.dims.iter().filter_map(|(d, slice)| match d {
            Dim::Community(c) => Some((*c, slice)),
            Dim::Shard(_) => None,
        })
    }

    /// Adds `other`'s counts into this snapshot, slice by slice.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            *mine += theirs;
        }
        for h in &other.histograms {
            self.histogram_mut(h.kind()).merge(h);
        }
        for (dim, slice) in &other.dims {
            self.slice_mut(*dim).merge(slice);
        }
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

    /// `(cache hit rate over playbacks, prefetch hit rate over cache
    /// misses)`, each 0 when nothing was counted. Every playback counts one
    /// of `cache_hit`/`cache_miss`, every cache miss one of
    /// `prefetch_hit`/`prefetch_miss`.
    pub fn hit_rates(&self) -> (f64, f64) {
        let ratio = |n: u64, of: u64| if of == 0 { 0.0 } else { n as f64 / of as f64 };
        let (hits, misses) = (self.counter("cache_hit"), self.counter("cache_miss"));
        (
            ratio(hits, hits + misses),
            ratio(self.counter("prefetch_hit"), misses),
        )
    }

    /// The snapshot as a JSON object: `counters` (the non-zero ones, in
    /// [`Counter::ALL`] order), `histograms` (count, sum, max, mean and
    /// non-empty buckets of each observed one) and `dims`, one such object
    /// per slice keyed by [`Dim::label`].
    pub fn to_value(&self) -> Value {
        let dims = self
            .dims
            .iter()
            .map(|(dim, slice)| (dim.label(), Value::obj(slice.scope_members())));
        Value::obj(
            self.scope_members()
                .into_iter()
                .chain([("dims", Value::obj(dims))]),
        )
    }

    /// [`to_value`](Self::to_value) rendered with `indent` spaces per
    /// level, one line per counter, histogram and slice.
    pub fn to_json(&self, indent: usize) -> String {
        self.to_value().render(indent, 2)
    }

    fn scope_members(&self) -> [(&'static str, Value); 2] {
        let counters = Counter::ALL
            .iter()
            .map(|c| (c.key(), self.counters[*c as usize]))
            .filter(|(_, n)| *n > 0)
            .map(|(k, n)| (k, n.into()));
        let histograms = self.histograms.iter().map(|h| {
            let buckets = h
                .buckets()
                .map(|(lo, c)| Value::Arr(vec![lo.into(), c.into()]));
            let value = Value::obj([
                ("count", h.count().into()),
                ("sum", h.sum().into()),
                ("max", h.max().into()),
                ("mean", h.mean().into()),
                ("buckets", Value::Arr(buckets.collect())),
            ]);
            (h.kind().key(), value)
        });
        [
            ("counters", Value::obj(counters)),
            ("histograms", Value::obj(histograms)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, RecorderConfig, RunRecorder};

    fn sample_snapshot() -> MetricsSnapshot {
        let mut r = RunRecorder::new(RecorderConfig::metrics_only());
        r.add(Counter::ResolvedChannel, 6);
        r.add(Counter::ResolvedCategory, 3);
        r.add(Counter::ResolvedServer, 1);
        r.observe(HistKind::SearchHops, 1);
        r.observe(HistKind::SearchHops, 2);
        r.finish().snapshot
    }

    fn dim_snapshot(community: u32, hits: u64, hops: u64) -> MetricsSnapshot {
        let mut r = RunRecorder::new(RecorderConfig::metrics_only());
        r.add_dim(Dim::Community(community), Counter::CacheHit, hits);
        r.observe_dim(Dim::Community(community), HistKind::SearchHops, hops);
        r.finish().snapshot
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
        assert_eq!(hops.count(), 4);
        assert_eq!(hops.sum(), 6);
        assert_eq!(hops.buckets().collect::<Vec<_>>(), vec![(1, 2), (2, 2)]);
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

        let ids: Vec<u32> = ab.communities().map(|(c, _)| c).collect();
        assert_eq!(ids, vec![3, 5, 9], "merged dims stay in canonical order");
        let c3 = ab.dim(Dim::Community(3)).expect("overlapping slice");
        assert_eq!(c3.counter("cache_hit"), 7);
        assert_eq!(c3.histogram("search_hops").map(Histogram::count), Some(2));
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
        assert!(c12.get("dims").is_none(), "slices carry no slices");
    }
}
