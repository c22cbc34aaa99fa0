//! Seeded, stream-splittable randomness.

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
///
/// let mut a = SimRng::seed(42).stream("workload");
/// let mut b = SimRng::seed(42).stream("workload");
/// assert_eq!(a.next_u64(), b.next_u64());
/// let i = a.index(10);
/// assert!(i < 10);
/// assert_eq!(i, b.index(10));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    /// xoshiro256++ state.
    s: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a root seed: the xoshiro256++ state is
    /// SplitMix64's first four outputs from `seed`.
    pub fn seed(seed: u64) -> Self {
        let mut s: [u64; 4] = std::array::from_fn(|k| {
            splitmix(seed.wrapping_add(GOLDEN_GAMMA.wrapping_mul(k as u64 + 1)))
        });
        // An all-zero state is a fixed point of xoshiro; nudge it.
        if s == [0; 4] {
            s = [GOLDEN_GAMMA, 1, 2, 3];
        }
        Self { s, seed }
    }

    /// The next 64 random bits (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform draw from `[0, 1)`: the high 53 bits of one
    /// [`next_u64`](SimRng::next_u64).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from `0..n` by multiply-shift (Lemire's method
    /// without its rejection step: the bias is at most `n / 2⁶⁴`), from one
    /// [`next_u64`](SimRng::next_u64). `n == 0` stands for the full 2⁶⁴
    /// domain and returns the draw itself.
    pub fn below(&mut self, n: u64) -> u64 {
        let x = self.next_u64();
        if n == 0 {
            x
        } else {
            ((u128::from(x) * u128::from(n)) >> 64) as u64
        }
    }

    /// A uniform index into `0..len`: [`below`](SimRng::below)`(len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot draw an index into an empty range");
        self.below(len as u64) as usize
    }

    /// Returns the root seed this generator was created from.
    pub(crate) fn root_seed(&self) -> u64 {
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
            self.unit() < p
        }
    }

    /// Picks a uniformly random element of `slice`, or `None` if empty.
    pub fn pick<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let i = self.index(slice.len());
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
        let i = self.index(len);
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
    /// shuffle of `0..len`, in order, drawing one `i + index(len - i)` per
    /// index like the dense shuffle does but remembering only the
    /// positions a swap moved — O(n²) over a handful of contacts instead
    /// of O(len) over a whole member list.
    fn draw_distinct(&mut self, len: usize, n: usize, mut pick: impl FnMut(usize)) {
        // `(position, index now there)`; an absent position still holds
        // its own index.
        let mut moved: Vec<(usize, usize)> = Vec::new();
        for i in 0..n.min(len) {
            let j = i + self.index(len - i);
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
    fn below_stays_in_range() {
        let mut rng = SimRng::seed(1);
        for _ in 0..10_000 {
            assert!(rng.below(10) < 10);
            assert_eq!(rng.below(1), 0);
        }
    }

    #[test]
    fn below_zero_is_the_full_domain() {
        let (mut a, mut b) = (SimRng::seed(5), SimRng::seed(5));
        for _ in 0..100 {
            assert_eq!(a.below(0), b.next_u64());
        }
    }

    #[test]
    fn index_is_calibrated() {
        let mut rng = SimRng::seed(11);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.index(10)] += 1;
        }
        for c in counts {
            assert!((8_500..11_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn index_into_nothing_panics() {
        SimRng::seed(1).index(0);
    }

    #[test]
    fn unit_draws_are_uniform() {
        let mut rng = SimRng::seed(3);
        let n = 100_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.unit()).collect();
        assert!(draws.iter().all(|u| (0.0..1.0).contains(u)));
        let mean = draws.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
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
            let j = i + rng.index(indices.len() - i);
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
