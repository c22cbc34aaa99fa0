//! The wire probes: the TCP testbed's data path without its wall-clock
//! pacing, under the message mix a simulator run delivers. The traced run
//! of `sim-dense` takes a seeded frame stream through `encode_frame` and
//! `decode_frame` in memory, and through `write_frame`/`read_frame` over
//! one loopback connection — one writer thread, one reader thread, a closed
//! loop behind TCP flow control (loopback only; no real link). These are
//! per-layer readings: as workloads of their own they cost a third of the
//! driver's time, which the two simulator workloads need to outlast the
//! host's phases (README). The full `Deployment` is left out on purpose:
//! its wall time is set by scripted dwell and off-time sleeps, so it would
//! measure the scheduler.

use std::hint::black_box;
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Instant;

use socialtube::{LinkKind, Message, QueryScope, RequestId, TransferKind};
use socialtube_model::{ChannelId, NodeId, VideoId};
use socialtube_net::transport::{read_frame, write_frame};
use socialtube_net::{decode_frame, encode_frame, Frame};

use crate::common::{Rng, RunResult};
use crate::spans::Spans;

/// What the wire carries, as measured: message deliveries of the
/// `sim-dense` SocialTube run (300 peers, population seed 42, run seed 42;
/// 1,642,339 messages in 1,811,470 events), counted by `perf mix`, which
/// replays the driver's loop and is checked against the program's own run.
/// Per kind: `Message::tag()`, deliveries, and the mean number of ids in
/// the kind's variable-length payload (0 for fixed-size kinds). Run seed 7
/// moves no share by more than 0.7 per mille. Seven in ten frames are
/// flooded queries; the guess this table replaced had four in ten, and
/// seven times the measured share of chunk data.
pub const MIX: [(&str, u32, u32); 16] = [
    ("query", 1_150_275, 0),
    ("chunk-data", 82_617, 0),
    ("query-hit", 78_744, 0),
    ("probe", 74_231, 0),
    ("probe-ack", 73_162, 0),
    ("connect-request", 55_695, 0),
    ("connect-reject", 37_322, 0),
    ("chunk-request", 22_674, 0),
    ("connect-accept", 18_090, 0),
    ("leave", 16_200, 0),
    ("popularity-digest", 11_607, 31),
    ("video-request", 6_920, 0),
    ("join-request", 6_501, 0),
    ("join-response", 6_501, 9),
    ("subscription-update", 900, 6),
    ("log-off", 900, 0),
];

/// One message of kind `tag` with seeded field values. A variable-length
/// payload carries 1 to `2 * mean_ids - 1` ids, `mean_ids` on average.
fn message(tag: &str, mean_ids: u32, i: usize, rng: &mut Rng) -> Message {
    let node = |rng: &mut Rng| NodeId::new(rng.below(300) as u32);
    let video = VideoId::new(rng.below(10_000) as u32);
    let channel = ChannelId::new(rng.below(500) as u32);
    let origin = node(rng);
    let id = RequestId::new(origin, i as u32);
    let kind = if rng.below(8) == 0 {
        TransferKind::Prefetch
    } else {
        TransferKind::Playback
    };
    let ids = |rng: &mut Rng| 1 + rng.below(2 * mean_ids as usize - 1);
    match tag {
        // Channel and category scopes are the same five bytes on the wire.
        "query" => Message::Query {
            id,
            video,
            ttl: rng.below(3) as u8,
            origin,
            scope: QueryScope::Channel(channel),
        },
        "query-hit" => Message::QueryHit {
            id,
            video,
            provider: node(rng),
            provider_channel: Some(channel),
            ttl: 1,
        },
        "chunk-request" => Message::ChunkRequest {
            id,
            video,
            from_chunk: 0,
            kind,
        },
        "chunk-data" => Message::ChunkData {
            id,
            video,
            chunk: rng.below(12) as u32,
            bits: 7_200_000,
            kind,
        },
        "probe" => Message::Probe { nonce: rng.next() },
        "probe-ack" => Message::ProbeAck { nonce: rng.next() },
        "connect-request" => Message::ConnectRequest {
            kind: LinkKind::Inner,
            channel: Some(channel),
            video: None,
        },
        "connect-accept" => Message::ConnectAccept {
            kind: LinkKind::Inner,
            channel: Some(channel),
            video: None,
        },
        "connect-reject" => Message::ConnectReject {
            kind: LinkKind::Inner,
        },
        "leave" => Message::Leave,
        "log-off" => Message::LogOff,
        "join-request" => Message::JoinRequest { video },
        "video-request" => Message::VideoRequest {
            id,
            video,
            from_chunk: 0,
            kind,
        },
        "join-response" => {
            let contacts: Vec<NodeId> = (0..ids(rng)).map(|_| node(rng)).collect();
            let (channel_contacts, category_contacts) = contacts.split_at(contacts.len() / 2);
            Message::JoinResponse {
                video,
                channel_contacts: channel_contacts.into(),
                category_contacts: category_contacts.into(),
            }
        }
        "popularity-digest" => Message::PopularityDigest {
            channel,
            ranked: (0..ids(rng)).map(|v| VideoId::new(v as u32)).collect(),
        },
        "subscription-update" => Message::SubscriptionUpdate {
            subscribed: (0..ids(rng)).map(|c| ChannelId::new(c as u32)).collect(),
        },
        other => unreachable!("MIX holds no kind {other}"),
    }
}

/// The seeded frame stream: kinds drawn in `MIX`'s proportions.
fn frames(count: usize, seed: u64) -> Vec<Frame> {
    let mut rng = Rng::new(seed ^ 0xf4a3e);
    let total: usize = MIX.iter().map(|(_, n, _)| *n as usize).sum();
    (0..count)
        .map(|i| {
            let mut at = rng.below(total);
            let mut kinds = MIX.iter();
            let (tag, mean_ids) = loop {
                let (tag, n, mean_ids) = kinds.next().expect("a draw below the total");
                if at < *n as usize {
                    break (tag, mean_ids);
                }
                at -= *n as usize;
            };
            Frame::Msg(message(tag, *mean_ids, i, &mut rng))
        })
        .collect()
}

/// A connected loopback pair: what `write_frame` writes to `tx`,
/// `read_frame` reads from `rx`.
struct Pair {
    tx: TcpStream,
    rx: TcpStream,
}

fn connect_pair() -> io::Result<Pair> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    // The testbed's daemons and connection pool turn Nagle off on every
    // stream, so each frame is its own segment here too.
    tx.set_nodelay(true)?;
    rx.set_nodelay(true)?;
    Ok(Pair { tx, rx })
}

/// One loopback rep: a writer thread sends every frame while this thread
/// reads them back; both are joined before the clock stops.
fn loopback_pass(
    sent: &[Frame],
    received: &mut Vec<Option<Frame>>,
    pair: &mut Pair,
    spans: &mut Spans,
) -> f64 {
    received.clear();
    let span = spans.enter("net.transport.write_read");
    let start = Instant::now();
    let Pair { tx, rx } = pair;
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> io::Result<()> {
            for frame in sent {
                write_frame(tx, frame)?;
            }
            Ok(())
        });
        received.extend((0..sent.len()).map(|_| read_frame(rx).ok().flatten()));
        if let Err(e) = writer.join().expect("writer thread panicked") {
            eprintln!("loopback writer: {e}");
        }
    });
    let secs = start.elapsed().as_secs_f64();
    spans.exit(span);
    secs
}

/// Frames that failed to decode or came back unequal.
fn mismatches(sent: &[Frame], received: &[Option<Frame>]) -> u64 {
    sent.iter()
        .zip(received)
        .filter(|(sent, received)| received.as_ref() != Some(*sent))
        .count() as u64
        + sent.len().abs_diff(received.len()) as u64
}

/// The wire probes of a traced run: `count` seeded frames in the measured
/// mix through `encode_frame` alone, `decode_frame` alone, and the loopback
/// transport, each pass its own span. Every frame must come back equal;
/// the ones that do not are failed operations of the run.
pub fn probe(count: usize, seed: u64, spans: &mut Spans, result: &mut RunResult) {
    let sent = frames(count, seed);

    // Encode drops each buffer as `write_frame` does, so the allocator sees
    // the pattern it sees on the wire path; the buffers the decode pass
    // reads are made outside both spans.
    let span = spans.enter("net.wire.encode");
    let start = Instant::now();
    for frame in &sent {
        black_box(encode_frame(frame));
    }
    let encode_s = start.elapsed().as_secs_f64();
    spans.exit(span);
    let encoded: Vec<_> = sent.iter().map(encode_frame).collect();
    let span = spans.enter("net.wire.decode");
    let start = Instant::now();
    for bytes in &encoded {
        black_box(decode_frame(&bytes[4..]).ok());
    }
    let decode_s = start.elapsed().as_secs_f64();
    spans.exit(span);
    let bytes: usize = encoded.iter().map(|b| b.len()).sum();
    let mut received: Vec<Option<Frame>> = encoded
        .iter()
        .map(|bytes| decode_frame(&bytes[4..]).ok())
        .collect();
    drop(encoded);
    check(&sent, &received, "codec", result);

    let mut pair = connect_pair().expect("loopback TCP is available");
    let transport_s = loopback_pass(&sent, &mut received, &mut pair, spans);
    check(&sent, &received, "transport", result);
    for stream in [&pair.tx, &pair.rx] {
        // Already-closed sockets are fine; nothing depends on the result.
        let _ = stream.shutdown(Shutdown::Both);
    }

    let per_frame = 1e9 / count as f64;
    result.set("net.wire.encode_ns", encode_s * per_frame);
    result.set("net.wire.decode_ns", decode_s * per_frame);
    result.set("net.wire.bytes_per_frame", bytes as f64 / count as f64);
    result.set("net.transport.write_read_ns", transport_s * per_frame);
}

/// Counts one pass's frames as attempted and the unequal ones as failed.
fn check(sent: &[Frame], received: &[Option<Frame>], pass: &str, result: &mut RunResult) {
    result.attempted += sent.len() as u64;
    let bad = mismatches(sent, received);
    if bad > 0 {
        result.fail(
            bad,
            format!(
                "{bad} of {} frames did not round-trip equal through the {pass}",
                sent.len()
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_of_the_mix_is_built_as_itself() {
        let mut rng = Rng::new(1);
        for (tag, _, mean_ids) in MIX {
            for i in 0..50 {
                assert_eq!(message(tag, mean_ids, i, &mut rng).tag(), tag);
            }
        }
    }

    #[test]
    fn stream_follows_the_measured_shares_and_the_seed() {
        let stream = frames(50_000, 3);
        assert_eq!(stream, frames(50_000, 3));
        assert_ne!(stream, frames(50_000, 4));
        let total: u32 = MIX.iter().map(|(_, n, _)| n).sum();
        for (tag, n, _) in MIX {
            let of_kind = stream
                .iter()
                .filter(|f| matches!(f, Frame::Msg(m) if m.tag() == tag))
                .count() as f64;
            let expected = 50_000.0 * f64::from(n) / f64::from(total);
            assert!(
                (of_kind - expected).abs() < 5.0 * expected.sqrt() + 1.0,
                "{tag}: {of_kind} of {expected}"
            );
        }
        let digests: Vec<usize> = stream
            .iter()
            .filter_map(|f| match f {
                Frame::Msg(Message::PopularityDigest { ranked, .. }) => Some(ranked.len()),
                _ => None,
            })
            .collect();
        let mean = digests.iter().sum::<usize>() as f64 / digests.len() as f64;
        assert!((mean - 31.0).abs() < 3.0 && !digests.contains(&0), "{mean}");
    }

    /// The committed table against a fresh tally of the full-size run; slow
    /// in a debug build, so on request: `cargo test --release -- --ignored`.
    #[test]
    #[ignore = "replays the full sim-dense SocialTube run"]
    fn mix_is_what_perf_mix_measures() {
        let mut options = crate::sim::dense_options(false);
        options.seed = 42;
        let shared = socialtube_trace::generate_shared(&options.trace, crate::sim::POPULATION_SEED);
        let tally = crate::mix::tally(
            socialtube_experiments::Protocol::SocialTube,
            &shared,
            &options,
        );
        let measured: Vec<(&str, u32, u32)> = tally
            .kinds
            .iter()
            .map(|k| {
                let mean_ids = (k.items as f64 / k.count as f64).round() as u32;
                (k.tag, k.count as u32, mean_ids)
            })
            .collect();
        assert_eq!(measured, MIX);
    }
}
