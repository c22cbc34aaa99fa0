//! Framed TCP transport: blocking frame IO, an address registry, and an
//! outgoing-connection pool with writer threads.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::wire::{decode_frame, encode_frame, Frame, MAX_FRAME_BYTES};

/// Pseudo node index addressing the server in the registry.
pub const SERVER_INDEX: u32 = u32::MAX;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_frame(stream: &mut TcpStream, frame: &Frame) -> io::Result<()> {
    let bytes = encode_frame(frame);
    stream.write_all(&bytes)
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// Propagates socket errors; malformed frames surface as
/// [`io::ErrorKind::InvalidData`].
pub fn read_frame(stream: &mut TcpStream) -> io::Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("oversized frame of {len} bytes"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    decode_frame(&payload)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Shared address book mapping node indices (and [`SERVER_INDEX`]) to
/// socket addresses.
#[derive(Debug, Default)]
pub struct Registry {
    addrs: RwLock<HashMap<u32, SocketAddr>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the address of `index`.
    pub fn register(&self, index: u32, addr: SocketAddr) {
        self.addrs.write().insert(index, addr);
    }

    /// Looks up the address of `index`.
    pub fn lookup(&self, index: u32) -> Option<SocketAddr> {
        self.addrs.read().get(&index).copied()
    }

    /// Number of registered endpoints.
    pub fn len(&self) -> usize {
        self.addrs.read().len()
    }

    /// Returns `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.addrs.read().is_empty()
    }
}

/// Outgoing-connection cache: one TCP connection (and writer thread) per
/// destination, created on first use and dropped on error.
///
/// Sends are fire-and-forget: if the destination is down (between
/// sessions), the frame is silently lost — exactly the semantics the
/// protocols expect from churn.
#[derive(Debug)]
pub struct ConnectionPool {
    me: u32,
    registry: Arc<Registry>,
    conns: Mutex<HashMap<u32, Sender<Frame>>>,
}

impl ConnectionPool {
    /// Creates a pool identifying outgoing connections as `me`.
    pub fn new(me: u32, registry: Arc<Registry>) -> Self {
        Self {
            me,
            registry,
            conns: Mutex::new(HashMap::new()),
        }
    }

    /// Sends `frame` to `to`, connecting first if needed. Returns `false`
    /// if no route existed or the connection failed.
    pub fn send(&self, to: u32, frame: Frame) -> bool {
        // Fast path: an established writer.
        if let Some(tx) = self.conns.lock().get(&to) {
            if tx.send(frame.clone()).is_ok() {
                return true;
            }
        }
        // (Re)connect.
        let Some(addr) = self.registry.lookup(to) else {
            return false;
        };
        let Ok(mut stream) = TcpStream::connect(addr) else {
            self.conns.lock().remove(&to);
            return false;
        };
        let _ = stream.set_nodelay(true);
        if write_frame(&mut stream, &Frame::Hello { sender: self.me }).is_err() {
            return false;
        }
        let (tx, rx) = mpsc::channel::<Frame>();
        std::thread::Builder::new()
            .name(format!("conn-writer-{}-{to}", self.me))
            .spawn(move || {
                for f in rx {
                    if write_frame(&mut stream, &f).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn writer thread");
        let ok = tx.send(frame).is_ok();
        self.conns.lock().insert(to, tx);
        ok
    }

    /// Drops every cached connection (e.g. at logoff).
    pub fn disconnect_all(&self) {
        self.conns.lock().clear();
    }

    /// Number of live outgoing connections.
    pub fn connection_count(&self) -> usize {
        self.conns.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtube::Message;
    use std::net::TcpListener;
    use std::time::Duration;

    #[test]
    fn frames_cross_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut frames = Vec::new();
            while let Some(f) = read_frame(&mut stream).unwrap() {
                frames.push(f);
            }
            frames
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &Frame::Hello { sender: 3 }).unwrap();
        write_frame(&mut stream, &Frame::Msg(Message::Leave)).unwrap();
        drop(stream);
        let frames = reader.join().unwrap();
        assert_eq!(
            frames,
            vec![Frame::Hello { sender: 3 }, Frame::Msg(Message::Leave)]
        );
    }

    #[test]
    fn registry_lookup() {
        let r = Registry::new();
        assert!(r.is_empty());
        let addr: SocketAddr = "127.0.0.1:9999".parse().unwrap();
        r.register(5, addr);
        assert_eq!(r.lookup(5), Some(addr));
        assert_eq!(r.lookup(6), None);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn pool_sends_hello_then_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let registry = Arc::new(Registry::new());
        registry.register(9, addr);

        let reader = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let hello = read_frame(&mut stream).unwrap().unwrap();
            let msg = read_frame(&mut stream).unwrap().unwrap();
            (hello, msg)
        });

        let pool = ConnectionPool::new(1, registry);
        assert!(pool.send(9, Frame::Msg(Message::LogOff)));
        let (hello, msg) = reader.join().unwrap();
        assert_eq!(hello, Frame::Hello { sender: 1 });
        assert_eq!(msg, Frame::Msg(Message::LogOff));
        assert_eq!(pool.connection_count(), 1);
        pool.disconnect_all();
        assert_eq!(pool.connection_count(), 0);
    }

    #[test]
    fn send_to_unknown_destination_fails_quietly() {
        let pool = ConnectionPool::new(1, Arc::new(Registry::new()));
        assert!(!pool.send(42, Frame::Msg(Message::Leave)));
    }

    #[test]
    fn send_to_dead_endpoint_fails_quietly() {
        let registry = Arc::new(Registry::new());
        // Bind and immediately drop to get a (very likely) dead port.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        registry.register(7, dead);
        let pool = ConnectionPool::new(1, registry);
        // May take one RTT to fail, but must not panic or hang.
        let _ = pool.send(7, Frame::Msg(Message::Leave));
    }

    #[test]
    fn oversized_length_prefix_is_invalid_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&(u32::MAX).to_be_bytes()).unwrap();
            std::thread::sleep(Duration::from_millis(50));
        });
        let (mut stream, _) = listener.accept().unwrap();
        let err = read_frame(&mut stream).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        writer.join().unwrap();
    }
}
