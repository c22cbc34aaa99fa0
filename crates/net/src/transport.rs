//! Framed TCP transport: blocking frame IO, the deployment's address book,
//! and an outgoing-connection pool.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use crate::wire::{decode_frame, encode_frame, Frame, MAX_FRAME_BYTES};

/// Pseudo node index addressing the server in the address book.
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

/// The deployment's address book: where peer `0..n` and the server
/// ([`SERVER_INDEX`]) listen. Written once, before any daemon starts, so
/// every thread reads it without a lock.
#[derive(Debug)]
pub(crate) struct AddressBook {
    peers: Vec<SocketAddr>,
    server: SocketAddr,
}

impl AddressBook {
    /// Binds one ephemeral localhost listener per peer plus the server's
    /// (returned last) and records where they landed.
    pub(crate) fn bind(peers: usize) -> io::Result<(Arc<AddressBook>, Vec<TcpListener>)> {
        let listeners = (0..=peers)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<Vec<_>>>()?;
        let mut addrs = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<Vec<_>>>()?;
        let server = addrs.pop().expect("the server's listener is bound last");
        let book = AddressBook {
            peers: addrs,
            server,
        };
        Ok((Arc::new(book), listeners))
    }

    /// Looks up the address of `index`; `None` for an index nobody holds.
    pub(crate) fn lookup(&self, index: u32) -> Option<SocketAddr> {
        if index == SERVER_INDEX {
            Some(self.server)
        } else {
            self.peers.get(index as usize).copied()
        }
    }
}

/// Outgoing-connection cache: one TCP connection per destination, created
/// on first use and replaced on error. Plain state of the one event-loop
/// thread that writes through it.
///
/// Sends are fire-and-forget: if the destination is down (between
/// sessions), the frame is silently lost — exactly the semantics the
/// protocols expect from churn. A write never waits on another daemon's
/// event loop: every inbound connection is drained by its own reader.
#[derive(Debug)]
pub(crate) struct ConnectionPool {
    me: u32,
    book: Arc<AddressBook>,
    conns: HashMap<u32, TcpStream>,
}

impl ConnectionPool {
    /// Creates a pool identifying outgoing connections as `me`.
    pub(crate) fn new(me: u32, book: Arc<AddressBook>) -> Self {
        Self {
            me,
            book,
            conns: HashMap::new(),
        }
    }

    /// Writes `frame` to `to`, connecting first if needed and reconnecting
    /// once if the cached connection fails. Returns `false` if no route
    /// existed or the connection failed.
    pub(crate) fn send(&mut self, to: u32, frame: &Frame) -> bool {
        if let Some(stream) = self.conns.get_mut(&to) {
            if write_frame(stream, frame).is_ok() {
                return true;
            }
            self.conns.remove(&to);
        }
        let Some(addr) = self.book.lookup(to) else {
            return false;
        };
        let Ok(mut stream) = TcpStream::connect(addr) else {
            return false;
        };
        let _ = stream.set_nodelay(true);
        let hello = Frame::Hello { sender: self.me };
        if write_frame(&mut stream, &hello).is_err() || write_frame(&mut stream, frame).is_err() {
            return false;
        }
        self.conns.insert(to, stream);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtube::Message;
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

    /// A book whose only peer (index 0) listens at `peer`; the server's
    /// slot holds a port nobody listens on any more.
    fn book_of(peer: SocketAddr) -> Arc<AddressBook> {
        Arc::new(AddressBook {
            peers: vec![peer],
            server: dead_addr(),
        })
    }

    /// Bind and immediately drop to get a (very likely) dead port.
    fn dead_addr() -> SocketAddr {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    }

    #[test]
    fn address_book_lookup() {
        let (book, listeners) = AddressBook::bind(2).unwrap();
        assert_eq!(listeners.len(), 3, "two peers and the server");
        for (index, listener) in [0, 1, SERVER_INDEX].into_iter().zip(&listeners) {
            assert_eq!(book.lookup(index), Some(listener.local_addr().unwrap()));
        }
        assert_eq!(book.lookup(2), None);
        assert_eq!(book.lookup(SERVER_INDEX - 1), None);
    }

    #[test]
    fn pool_sends_hello_then_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let book = book_of(listener.local_addr().unwrap());

        // One connection carries both frames: a second Hello (or a second
        // connection, which `accept` here never sees) would fail the reads.
        let reader = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            [(); 3].map(|()| read_frame(&mut stream).unwrap().unwrap())
        });

        let mut pool = ConnectionPool::new(1, book);
        assert!(pool.send(0, &Frame::Msg(Message::LogOff)));
        assert!(pool.send(0, &Frame::Msg(Message::Leave)));
        assert_eq!(
            reader.join().unwrap(),
            [
                Frame::Hello { sender: 1 },
                Frame::Msg(Message::LogOff),
                Frame::Msg(Message::Leave)
            ]
        );
    }

    #[test]
    fn send_to_unknown_destination_fails_quietly() {
        let mut pool = ConnectionPool::new(1, book_of(dead_addr()));
        assert!(!pool.send(42, &Frame::Msg(Message::Leave)));
    }

    #[test]
    fn send_to_dead_endpoint_fails_quietly() {
        let mut pool = ConnectionPool::new(1, book_of(dead_addr()));
        // May take one RTT to fail, but must not panic or hang.
        let _ = pool.send(0, &Frame::Msg(Message::Leave));
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
