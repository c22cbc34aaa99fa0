//! Pairwise network propagation delays.

use crate::rng::{splitmix, GOLDEN_GAMMA};
use crate::{SimDuration, SimRng};

/// Deterministic pairwise latency model.
///
/// Rather than storing an `n × n` matrix (10,000 nodes would need 100M
/// entries), the latency of a directed pair is derived on demand by hashing
/// `(seed, a, b)` into a uniform draw from `[min, max]`. The pair is
/// symmetrized so `delay(a, b) == delay(b, a)`, as propagation delay is.
/// Node index `u32::MAX` is conventionally the server.
///
/// The default range 20–200 ms approximates the wide-area RTT spread of
/// PlanetLab hosts; the paper's PlanetLab deployment is emulated with this
/// same model in the TCP testbed.
///
/// # Examples
///
/// ```
/// use socialtube_sim::{LatencyModel, SimDuration, SimRng};
///
/// let (min, max) = (SimDuration::from_millis(20), SimDuration::from_millis(200));
/// let model = LatencyModel::new(&SimRng::seed(1), min, max);
/// let d = model.delay(3, 9);
/// assert_eq!(d, model.delay(9, 3));
/// assert!(d.as_millis() >= 20 && d.as_millis() <= 200);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyModel {
    seed: u64,
    min: SimDuration,
    max: SimDuration,
}

impl LatencyModel {
    /// Node index used for the origin server in delay queries.
    pub const SERVER: u32 = u32::MAX;

    /// Creates a model with one-way delays uniform in `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(rng: &SimRng, min: SimDuration, max: SimDuration) -> Self {
        assert!(min <= max, "min latency must not exceed max");
        Self {
            seed: rng.root_seed(),
            min,
            max,
        }
    }

    /// One-way propagation delay between nodes `a` and `b` (symmetric).
    pub fn delay(&self, a: u32, b: u32) -> SimDuration {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let span = self.max.as_micros() - self.min.as_micros();
        if span == 0 {
            return self.min;
        }
        let key =
            self.seed ^ (u64::from(lo) << 32 | u64::from(hi)).wrapping_mul(0x2545_F491_4F6C_DD1D);
        SimDuration::from_micros(self.min.as_micros() + first_draw(key, span))
    }
}

/// `SimRng::seed(key).below(span + 1)` without building the
/// generator. SplitMix64 seeding makes state word `k` `splitmix(key + (k +
/// 1) · γ)`, and xoshiro256++'s first output reads words 0 and 3 only. The
/// all-zero-state nudge cannot fire: it needs both `key + γ` and `key + 4γ`
/// to be 0, so `3γ ≡ 0 mod 2⁶⁴`, and γ is odd.
fn first_draw(key: u64, span: u64) -> u64 {
    let s0 = splitmix(key.wrapping_add(GOLDEN_GAMMA));
    let s3 = splitmix(key.wrapping_add(GOLDEN_GAMMA.wrapping_mul(4)));
    let x = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
    match span.checked_add(1) {
        // Multiply-shift into `0..=span`, as `SimRng::below` bounds a draw.
        Some(n) => ((u128::from(x) * u128::from(n)) >> 64) as u64,
        None => x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 20–200 ms wide-area spread the struct docs describe.
    fn wide_area() -> LatencyModel {
        LatencyModel::new(
            &SimRng::seed(5),
            SimDuration::from_millis(20),
            SimDuration::from_millis(200),
        )
    }

    #[test]
    fn delays_are_symmetric_and_stable() {
        let m = wide_area();
        for a in 0..20u32 {
            for b in 0..20u32 {
                assert_eq!(m.delay(a, b), m.delay(b, a));
                assert_eq!(m.delay(a, b), m.delay(a, b));
            }
        }
    }

    #[test]
    fn delays_respect_bounds() {
        let m = LatencyModel::new(
            &SimRng::seed(5),
            SimDuration::from_millis(10),
            SimDuration::from_millis(50),
        );
        for a in 0..100u32 {
            let d = m.delay(a, a + 1).as_millis();
            assert!((10..=50).contains(&d), "delay {d}ms out of bounds");
        }
    }

    #[test]
    fn constant_model_is_constant() {
        let d = SimDuration::from_millis(30);
        let m = LatencyModel::new(&SimRng::seed(0), d, d);
        assert_eq!(m.delay(1, 2), SimDuration::from_millis(30));
        assert_eq!(m.delay(7, 8), SimDuration::from_millis(30));
        assert_eq!(m.min, m.max);
    }

    #[test]
    fn different_pairs_get_different_delays() {
        let m = wide_area();
        let distinct: std::collections::HashSet<u64> =
            (0..50u32).map(|a| m.delay(a, a + 1).as_micros()).collect();
        assert!(distinct.len() > 25, "delays look degenerate");
    }

    /// The generator the closed form replaced.
    fn reference(model: &LatencyModel, a: u32, b: u32) -> SimDuration {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let span = model.max.as_micros() - model.min.as_micros();
        if span == 0 {
            return model.min;
        }
        let mut rng = SimRng::seed(
            model.seed ^ (u64::from(lo) << 32 | u64::from(hi)).wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        SimDuration::from_micros(model.min.as_micros() + rng.below(span.wrapping_add(1)))
    }

    #[test]
    fn closed_form_matches_the_seeded_generator() {
        let peers = (0..300).chain([LatencyModel::SERVER]);
        for seed in [0, 1, 5, 42, 2001, u64::MAX] {
            let m = LatencyModel::new(
                &SimRng::seed(seed),
                SimDuration::from_millis(20),
                SimDuration::from_millis(200),
            );
            for a in 0..300 {
                for b in peers.clone() {
                    assert_eq!(m.delay(a, b), reference(&m, a, b), "seed {seed}: {a}-{b}");
                }
            }
        }
        let d = SimDuration::from_millis(30);
        let constant = LatencyModel::new(&SimRng::seed(0), d, d);
        let full = LatencyModel::new(
            &SimRng::seed(7),
            SimDuration::ZERO,
            SimDuration::from_micros(u64::MAX),
        );
        for m in [constant, full] {
            for (a, b) in [(0, 1), (3, 9), (299, LatencyModel::SERVER), (7, 7)] {
                assert_eq!(m.delay(a, b), reference(&m, a, b), "{a}-{b}");
            }
        }
    }

    #[test]
    fn server_delay_uses_sentinel() {
        let m = wide_area();
        let d = m.delay(3, LatencyModel::SERVER);
        assert_eq!(d, m.delay(LatencyModel::SERVER, 3));
        assert!((20..=200).contains(&d.as_millis()), "server delay {d:?}");
    }

    #[test]
    #[should_panic(expected = "min latency")]
    fn inverted_bounds_rejected() {
        LatencyModel::new(
            &SimRng::seed(1),
            SimDuration::from_millis(50),
            SimDuration::from_millis(10),
        );
    }
}
