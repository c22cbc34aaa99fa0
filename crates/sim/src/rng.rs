//! Seeded, stream-splittable randomness.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Deterministic random source for simulations.
///
/// A single `u64` seed reproduces an entire run. [`stream`](SimRng::stream)
/// derives statistically-independent child generators from string labels, so
/// adding a new consumer of randomness (say, a new protocol) does not perturb
/// the random sequences other components observe — runs stay comparable
/// across code changes.
///
/// # Examples
///
/// ```
/// use socialtube_sim::SimRng;
/// use rand::Rng;
///
/// let mut a = SimRng::seed(42).stream("workload");
/// let mut b = SimRng::seed(42).stream("workload");
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a root seed.
    pub fn seed(seed: u64) -> Self {
        Self {
            inner: SmallRng::seed_from_u64(seed),
            seed,
        }
    }

    /// Returns the root seed this generator was created from.
    pub fn root_seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator identified by `label`.
    ///
    /// The same `(seed, label)` pair always yields the same stream.
    pub fn stream(&self, label: &str) -> SimRng {
        SimRng::seed(self.seed ^ fnv1a(label.as_bytes()))
    }

    /// Derives an independent child generator for an indexed entity
    /// (e.g. one per node).
    pub fn stream_indexed(&self, label: &str, index: u64) -> SimRng {
        SimRng::seed(self.seed ^ fnv1a(label.as_bytes()) ^ index.wrapping_mul(GOLDEN_GAMMA))
    }

    /// Derives the root seed of run number `run_index` in a multi-run
    /// campaign from a shared `base_seed`.
    ///
    /// SplitMix64-style mixing keeps the per-run seeds statistically
    /// independent while staying a pure function of `(base_seed,
    /// run_index)`: a campaign replicate can always be reproduced alone by
    /// seeding a single run with the derived value. `run_index` 0 returns
    /// `base_seed` unchanged, so a one-run campaign is bitwise identical to
    /// a plain serial run.
    pub fn run_seed(base_seed: u64, run_index: u64) -> u64 {
        if run_index == 0 {
            return base_seed;
        }
        splitmix(base_seed.wrapping_add(run_index.wrapping_mul(GOLDEN_GAMMA)))
    }

    /// Samples `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Picks a uniformly random element of `slice`, or `None` if empty.
    pub fn pick<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let i = self.inner.gen_range(0..slice.len());
            Some(&slice[i])
        }
    }

    /// Picks a uniformly random element of `slice` other than `exclude`
    /// (which `slice` holds at most once), or `None` if there is none —
    /// the draw [`pick`](SimRng::pick) makes over a copy of `slice`
    /// without `exclude`, without making the copy.
    pub fn pick_except<'a, T: PartialEq>(&mut self, slice: &'a [T], exclude: &T) -> Option<&'a T> {
        let skip = slice.iter().position(|x| x == exclude);
        let len = slice.len() - usize::from(skip.is_some());
        if len == 0 {
            return None;
        }
        let i = self.inner.gen_range(0..len);
        Some(&slice[unskip(i, skip)])
    }

    /// Picks up to `n` distinct elements of `slice` uniformly at random
    /// (partial Fisher–Yates over indices).
    pub fn pick_distinct<T: Clone>(&mut self, slice: &[T], n: usize) -> Vec<T> {
        let mut picked = Vec::with_capacity(n.min(slice.len()));
        self.draw_distinct(slice.len(), n, |i| picked.push(slice[i].clone()));
        picked
    }

    /// [`pick_distinct`](SimRng::pick_distinct) over `slice` without
    /// `exclude` (which `slice` holds at most once): the same picks from
    /// the same draws as filtering first, without copying the slice.
    pub fn pick_distinct_except<T: Clone + PartialEq>(
        &mut self,
        slice: &[T],
        exclude: &T,
        n: usize,
    ) -> Vec<T> {
        let skip = slice.iter().position(|x| x == exclude);
        let len = slice.len() - usize::from(skip.is_some());
        let mut picked = Vec::with_capacity(n.min(len));
        self.draw_distinct(len, n, |i| picked.push(slice[unskip(i, skip)].clone()));
        picked
    }

    /// Hands `pick` the first `min(n, len)` indices of a Fisher–Yates
    /// shuffle of `0..len`, in order, drawing one `gen_range(i..len)` per
    /// index like the dense shuffle does but remembering only the
    /// positions a swap moved — O(n²) over a handful of contacts instead
    /// of O(len) over a whole member list.
    fn draw_distinct(&mut self, len: usize, n: usize, mut pick: impl FnMut(usize)) {
        // `(position, index now there)`; an absent position still holds
        // its own index.
        let mut moved: Vec<(usize, usize)> = Vec::new();
        for i in 0..n.min(len) {
            let j = self.inner.gen_range(i..len);
            let at = |p: usize| moved.iter().find(|(q, _)| *q == p).map_or(p, |&(_, v)| v);
            let (front, drawn) = (at(i), at(j));
            pick(drawn);
            // The swap's other half: position `i` is never read again.
            match moved.iter_mut().find(|(q, _)| *q == j) {
                Some(slot) => slot.1 = front,
                None => moved.push((j, front)),
            }
        }
    }
}

/// Maps index `i` of a slice with position `skip` left out back to the
/// full slice.
fn unskip(i: usize, skip: Option<usize>) -> usize {
    i + usize::from(skip.is_some_and(|s| i >= s))
}

/// SplitMix64's increment: its `k`-th output from state `x` is
/// `splitmix(x + k · GOLDEN_GAMMA)`, which is how [`SimRng::seed`] fills
/// the generator's four state words (`k = 1..=4`).
pub(crate) const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finalizer, a bijection of `u64`.
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a over `bytes`, used to mix stream labels into seeds.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_are_label_dependent() {
        let root = SimRng::seed(1);
        let mut a = root.stream("alpha");
        let mut b = root.stream("beta");
        // Overwhelmingly unlikely to collide if streams are independent.
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn indexed_streams_differ() {
        let root = SimRng::seed(1);
        let mut a = root.stream_indexed("node", 0);
        let mut b = root.stream_indexed("node", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chance_handles_extremes() {
        let mut rng = SimRng::seed(7);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = SimRng::seed(7);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn pick_none_on_empty() {
        let mut rng = SimRng::seed(7);
        let empty: [u8; 0] = [];
        assert_eq!(rng.pick(&empty), None);
        assert!(rng.pick_distinct(&empty, 3).is_empty());
    }

    #[test]
    fn pick_distinct_returns_unique_elements() {
        let mut rng = SimRng::seed(7);
        let data: Vec<u32> = (0..50).collect();
        let picked = rng.pick_distinct(&data, 10);
        assert_eq!(picked.len(), 10);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    fn pick_distinct_caps_at_len() {
        let mut rng = SimRng::seed(7);
        let data = [1, 2, 3];
        let picked = rng.pick_distinct(&data, 10);
        assert_eq!(picked.len(), 3);
    }

    /// The dense partial Fisher–Yates the sparse draw replaced.
    fn dense_pick_distinct<T: Clone>(rng: &mut SimRng, slice: &[T], n: usize) -> Vec<T> {
        let mut indices: Vec<usize> = (0..slice.len()).collect();
        let take = n.min(slice.len());
        for i in 0..take {
            let j = rng.inner.gen_range(i..indices.len());
            indices.swap(i, j);
        }
        indices[..take].iter().map(|&i| slice[i].clone()).collect()
    }

    #[test]
    fn pick_distinct_matches_the_dense_shuffle() {
        for len in 0..200u32 {
            let data: Vec<u32> = (0..len).map(|x| x * 3 + 1).collect();
            for n in 0..12 {
                let seed = u64::from(len) * 31 + n as u64;
                let (mut sparse, mut dense) = (SimRng::seed(seed), SimRng::seed(seed));
                assert_eq!(
                    sparse.pick_distinct(&data, n),
                    dense_pick_distinct(&mut dense, &data, n),
                    "len={len} n={n}"
                );
                // Both consumed the same number of draws.
                assert_eq!(sparse.next_u64(), dense.next_u64(), "len={len} n={n}");
            }
        }
    }

    #[test]
    fn picks_with_exclusion_match_filter_then_pick() {
        for len in 0..40u32 {
            let data: Vec<u32> = (0..len).collect();
            // Excluded element first, in the middle, last, absent.
            for exclude in [0, len / 2, len.saturating_sub(1), len + 7] {
                let filtered: Vec<u32> = data.iter().copied().filter(|x| *x != exclude).collect();
                for n in 0..8 {
                    let seed = u64::from(len * 1_000 + exclude * 10) + n as u64;
                    let (mut a, mut b) = (SimRng::seed(seed), SimRng::seed(seed));
                    assert_eq!(
                        a.pick_distinct_except(&data, &exclude, n),
                        b.pick_distinct(&filtered, n),
                        "len={len} exclude={exclude} n={n}"
                    );
                    assert_eq!(
                        a.pick_except(&data, &exclude),
                        b.pick_distinct(&filtered, 1).first()
                    );
                    assert_eq!(a.next_u64(), b.next_u64());
                }
            }
        }
    }

    #[test]
    fn root_seed_is_preserved() {
        assert_eq!(SimRng::seed(99).root_seed(), 99);
    }

    #[test]
    fn run_seed_zero_is_identity() {
        assert_eq!(SimRng::run_seed(42, 0), 42);
        assert_eq!(SimRng::run_seed(0, 0), 0);
    }

    #[test]
    fn run_seeds_are_distinct_and_deterministic() {
        let seeds: Vec<u64> = (0..64).map(|i| SimRng::run_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "collision in derived seeds");
        assert_eq!(
            seeds,
            (0..64).map(|i| SimRng::run_seed(42, i)).collect::<Vec<_>>()
        );
        // Different bases give different families.
        assert_ne!(SimRng::run_seed(1, 1), SimRng::run_seed(2, 1));
    }
}
