//! Dimensional metric attribution.
//!
//! A [`Dim`] names one slice of a run — an interest community or a shard —
//! and a [`DimStore`] keeps a sparse counter/histogram family per slice, so a [`MetricsSnapshot`](crate::MetricsSnapshot) can break
//! cache hits, search hops or server offload down by the community that
//! produced them instead of reporting only run-wide totals.
//!
//! Everything here follows the crate's determinism rules: storage is kept
//! in a canonical sorted order so merging per-shard stores is associative
//! and independent of merge order, and recording through the
//! [`Recorder`](crate::Recorder) dim methods compiles away entirely for
//! [`NullRecorder`](crate::NullRecorder).

use crate::recorder::{Counter, HistKind, Histogram};
use crate::snapshot::DimSnapshot;

/// One slice of a run that metrics can be attributed to.
///
/// The ordering (used for canonical storage) is: all communities, then all
/// shards, each ascending by id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Dim {
    /// An interest community, keyed by the defining channel's id (the same
    /// key the sharded executor partitions peers by: a node's first
    /// subscription channel).
    Community(u32),
    /// One shard of a sharded execution (shard 0 for serial runs).
    Shard(u32),
}

impl Dim {
    /// Stable serialization key, e.g. `"community:12"`, `"shard:3"`.
    pub fn label(self) -> String {
        match self {
            Dim::Community(c) => format!("community:{c}"),
            Dim::Shard(s) => format!("shard:{s}"),
        }
    }
}

/// Sparse per-[`Dim`] counters and histograms.
///
/// Cells are kept sorted by `Dim` and, inside each cell, counters and
/// histograms sorted by their discriminant, so two stores built from the
/// same observations in any order are identical — the property the
/// sharded executor's merge relies on.
#[derive(Clone, Debug, Default)]
pub struct DimStore {
    cells: Vec<(Dim, DimCell)>,
}

#[derive(Clone, Debug, Default)]
struct DimCell {
    counters: Vec<(Counter, u64)>,
    hists: Vec<Histogram>,
}

impl DimStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    fn cell(&mut self, dim: Dim) -> &mut DimCell {
        let i = match self.cells.binary_search_by_key(&dim, |(d, _)| *d) {
            Ok(i) => i,
            Err(i) => {
                self.cells.insert(i, (dim, DimCell::default()));
                i
            }
        };
        &mut self.cells[i].1
    }

    /// Bumps `counter` by `n` within `dim`'s slice.
    pub fn add(&mut self, dim: Dim, counter: Counter, n: u64) {
        let cell = self.cell(dim);
        match cell
            .counters
            .binary_search_by_key(&(counter as usize), |(c, _)| *c as usize)
        {
            Ok(i) => cell.counters[i].1 += n,
            Err(i) => cell.counters.insert(i, (counter, n)),
        }
    }

    /// Records `value` into `dim`'s `kind` histogram.
    pub fn observe(&mut self, dim: Dim, kind: HistKind, value: u64) {
        let cell = self.cell(dim);
        let i = match cell
            .hists
            .binary_search_by_key(&(kind as usize), |h| h.kind() as usize)
        {
            Ok(i) => i,
            Err(i) => {
                cell.hists.insert(i, Histogram::new(kind));
                i
            }
        };
        cell.hists[i].record(value);
    }

    /// Current value of `counter` within `dim` (0 when absent).
    pub fn counter(&self, dim: Dim, counter: Counter) -> u64 {
        self.cells
            .binary_search_by_key(&dim, |(d, _)| *d)
            .ok()
            .and_then(|i| {
                let cell = &self.cells[i].1;
                cell.counters
                    .binary_search_by_key(&(counter as usize), |(c, _)| *c as usize)
                    .ok()
                    .map(|j| cell.counters[j].1)
            })
            .unwrap_or(0)
    }

    /// Serializable per-dim snapshots, in canonical [`Dim`] order.
    pub fn snapshot(&self) -> Vec<DimSnapshot> {
        self.cells
            .iter()
            .map(|(dim, cell)| DimSnapshot {
                dim: *dim,
                counters: cell.counters.iter().map(|(c, v)| (c.key(), *v)).collect(),
                histograms: cell.hists.iter().map(Histogram::snapshot).collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_order_communities_then_shards() {
        let mut dims = vec![
            Dim::Shard(0),
            Dim::Community(9),
            Dim::Community(2),
            Dim::Shard(3),
        ];
        dims.sort();
        assert_eq!(
            dims,
            vec![
                Dim::Community(2),
                Dim::Community(9),
                Dim::Shard(0),
                Dim::Shard(3),
            ]
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Dim::Community(12).label(), "community:12");
        assert_eq!(Dim::Shard(3).label(), "shard:3");
    }

    #[test]
    fn store_is_canonical_regardless_of_insertion_order() {
        let mut a = DimStore::new();
        a.add(Dim::Community(5), Counter::CacheHit, 2);
        a.add(Dim::Community(1), Counter::CacheMiss, 1);
        a.observe(Dim::Shard(0), HistKind::SearchHops, 3);

        let mut b = DimStore::new();
        b.observe(Dim::Shard(0), HistKind::SearchHops, 3);
        b.add(Dim::Community(1), Counter::CacheMiss, 1);
        b.add(Dim::Community(5), Counter::CacheHit, 1);
        b.add(Dim::Community(5), Counter::CacheHit, 1);

        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.counter(Dim::Community(5), Counter::CacheHit), 2);
        assert_eq!(a.counter(Dim::Community(5), Counter::CacheMiss), 0);
        assert_eq!(a.counter(Dim::Shard(9), Counter::CacheHit), 0);
    }

    #[test]
    fn snapshot_orders_counters_by_declaration() {
        let mut s = DimStore::new();
        s.add(Dim::Community(0), Counter::OriginServe, 1);
        s.add(Dim::Community(0), Counter::ResolvedChannel, 1);
        let snap = s.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(
            snap[0].counters,
            vec![("resolved_channel", 1), ("origin_serve", 1)]
        );
    }
}
