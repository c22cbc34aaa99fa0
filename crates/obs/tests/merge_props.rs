//! Property tests for snapshot merges.
//!
//! The campaign runner folds per-replicate snapshots in completion order,
//! which relies on [`MetricsSnapshot::merge`] being associative and
//! commutative even when the inputs carry overlapping dimensional keys.

use proptest::prelude::*;
use socialtube_obs::{
    Counter, Dim, HistKind, MetricsSnapshot, Recorder, RecorderConfig, RunRecorder, RunRecording,
    Track,
};

/// splitmix64: a tiny deterministic stream for deriving op sequences from
/// one salt, so overlapping-key workloads need no collection strategies.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies one random observation. Dims are drawn from a small pool so
/// that independently salted recorders overlap on dimensional keys.
fn apply_op<R: Recorder>(r: &mut R, state: &mut u64) {
    let dim = Dim::Community((mix(state) % 4) as u32);
    let counter = Counter::ALL[(mix(state) as usize) % Counter::ALL.len()];
    let kind = HistKind::ALL[(mix(state) as usize) % HistKind::ALL.len()];
    match mix(state) % 4 {
        0 => r.add(counter, 1 + mix(state) % 5),
        1 => r.observe(kind, mix(state) % 100),
        2 => r.add_dim(dim, counter, 1 + mix(state) % 5),
        _ => r.observe_dim(dim, kind, mix(state) % 100),
    }
}

fn snapshot_from(salt: u64, ops: usize) -> MetricsSnapshot {
    let mut r = RunRecorder::new(RecorderConfig::metrics_only());
    let mut state = salt;
    for _ in 0..ops {
        apply_op(&mut r, &mut state);
    }
    r.finish().snapshot
}

fn recording_from(salt: u64, ops: usize) -> RunRecording {
    let mut r = RunRecorder::new(RecorderConfig::full());
    let mut state = salt;
    for i in 0..ops {
        apply_op(&mut r, &mut state);
        if i % 3 == 0 {
            let track = Track::Peer((mix(&mut state) % 8) as u32);
            let ts = mix(&mut state) % 1_000;
            r.instant(track, "mark", ts);
        }
    }
    r.finish()
}

fn merged(mut a: MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    a.merge(b);
    a
}

proptest! {
    #[test]
    fn metrics_merge_is_commutative(
        salt_a in any::<u64>(),
        salt_b in any::<u64>(),
        ops in 0usize..64,
    ) {
        let a = snapshot_from(salt_a, ops);
        let b = snapshot_from(salt_b, ops + 7);
        prop_assert_eq!(merged(a.clone(), &b), merged(b, &a));
    }

    #[test]
    fn metrics_merge_is_associative(
        salt in any::<u64>(),
        ops in 0usize..48,
    ) {
        let a = snapshot_from(salt, ops);
        let b = snapshot_from(salt.rotate_left(17), ops + 3);
        let c = snapshot_from(salt.rotate_left(41), ops + 11);
        let left = merged(merged(a.clone(), &b), &c);
        let right = merged(a, &merged(b, &c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merging_an_empty_snapshot_is_identity(
        salt in any::<u64>(),
        ops in 1usize..64,
    ) {
        let a = snapshot_from(salt, ops);
        prop_assert_eq!(merged(a.clone(), &MetricsSnapshot::default()), a.clone());
        prop_assert_eq!(merged(MetricsSnapshot::default(), &a), a);
    }

    #[test]
    fn absorb_snapshot_half_is_commutative(
        salt_a in any::<u64>(),
        salt_b in any::<u64>(),
        ops in 0usize..48,
    ) {
        // A full recording carries a timeline, whose order matters; the
        // snapshot half of two recordings must merge the same either way.
        let a = recording_from(salt_a, ops);
        let b = recording_from(salt_b, ops + 2);
        let ab = merged(a.snapshot.clone(), &b.snapshot);
        let ba = merged(b.snapshot, &a.snapshot);
        prop_assert_eq!(ab, ba);
    }
}
