//! Dimensional metric attribution.
//!
//! A [`Dim`] names one slice of a run — an interest community — so a
//! [`MetricsSnapshot`](crate::MetricsSnapshot) can break cache hits,
//! search hops or server offload down by the community that produced them
//! instead of reporting only run-wide totals. Each slice is itself a
//! `MetricsSnapshot`, kept in `Dim` order so merging replicates' snapshots
//! is associative and independent of merge order; recording through the
//! [`Recorder`](crate::Recorder) dim methods compiles away entirely for
//! [`NullRecorder`](crate::NullRecorder).

/// One slice of a run that metrics can be attributed to.
///
/// The ordering (used for canonical storage) is ascending by community id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Dim {
    /// An interest community, keyed by the defining channel's id (the same
    /// key the sharded executor partitions peers by: a node's first
    /// subscription channel).
    Community(u32),
}

impl Dim {
    /// Stable serialization key, e.g. `"community:12"`.
    pub(crate) fn label(self) -> String {
        let Dim::Community(c) = self;
        format!("community:{c}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::{Counter, HistKind, Recorder, RecorderConfig, RunRecorder};

    #[test]
    fn dims_order_communities_then_shards() {
        let mut dims = vec![
            Dim::Community(9),
            Dim::Community(0),
            Dim::Community(2),
            Dim::Community(3),
        ];
        dims.sort();
        assert_eq!(
            dims,
            vec![
                Dim::Community(0),
                Dim::Community(2),
                Dim::Community(3),
                Dim::Community(9),
            ]
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Dim::Community(12).label(), "community:12");
    }

    #[test]
    fn store_is_canonical_regardless_of_insertion_order() {
        let mut a = RunRecorder::new(RecorderConfig::metrics_only());
        a.add_dim(Dim::Community(5), Counter::CacheHit, 2);
        a.add_dim(Dim::Community(1), Counter::CacheMiss, 1);
        a.observe_dim(Dim::Community(3), HistKind::SearchHops, 3);

        let mut b = RunRecorder::new(RecorderConfig::metrics_only());
        b.observe_dim(Dim::Community(3), HistKind::SearchHops, 3);
        b.add_dim(Dim::Community(1), Counter::CacheMiss, 1);
        b.add_dim(Dim::Community(5), Counter::CacheHit, 1);
        b.add_dim(Dim::Community(5), Counter::CacheHit, 1);

        let (a, b) = (a.finish().snapshot, b.finish().snapshot);
        assert_eq!(a, b);
        let ids: Vec<u32> = a.communities().map(|(c, _)| c).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        let (_, c5) = a.communities().last().expect("community 5 slice");
        assert_eq!(c5.counter("cache_hit"), 2);
        assert_eq!(c5.counter("cache_miss"), 0);
    }

    #[test]
    fn snapshot_orders_counters_by_declaration() {
        let mut r = RunRecorder::new(RecorderConfig::metrics_only());
        r.add_dim(Dim::Community(0), Counter::OriginServe, 1);
        r.add_dim(Dim::Community(0), Counter::ResolvedChannel, 1);
        let json = crate::json::parse(&r.finish().snapshot.to_json(0)).expect("valid json");
        let counters = json
            .get("dims")
            .and_then(|d| d.get("community:0"))
            .and_then(|c| c.get("counters"));
        let Some(Value::Obj(counters)) = counters else {
            panic!("community:0 counters missing: {json}");
        };
        let keys: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["resolved_channel", "origin_serve"]);
    }
}
