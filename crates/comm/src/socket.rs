//! Length-prefixed RPC channel between OS processes (UDS default, TCP via
//! address config) — the multi-process backend's wire.
//!
//! The process model is a star: one **hub** process owns the parameter server,
//! the collective and the shared policy board; every **worker** process holds
//! exactly one stream connection to it. The only traffic on a connection is
//! RPC: [`HubClient`] sends an [`MsgKind::Rpc`] [`Envelope`] and blocks for the
//! reply, and the hub dispatches the payload to its [`RpcService`] (pull,
//! sync-round rendezvous, all-reduces, policy-board calls). Frames are
//! reassembled by the incremental [`FrameDecoder`] (a read may return half a
//! frame or three). Blocking rendezvous ops work naturally: each connection is
//! served by its own hub thread, so one worker waiting inside a collective does
//! not stall the others. Any other frame — another kind, or an `Rpc` frame
//! that fails its checksum — is a protocol violation that ends the connection.
//!
//! Workers are single-threaded and strictly lockstep per connection (write one
//! frame, read one frame), so no request/response correlation ids are needed.

use crate::wire::{Envelope, FrameDecoder, MsgKind, WireError, HUB_SENDER};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where the hub listens: a Unix domain socket path (the default for local
/// multi-process clusters) or a TCP `host:port` address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketAddrSpec {
    /// Unix domain socket at this path.
    Unix(PathBuf),
    /// TCP socket at this `host:port`.
    Tcp(String),
}

impl SocketAddrSpec {
    /// Parse a CLI-style address: anything containing `:` is TCP, everything
    /// else is a UDS path.
    pub fn parse(text: &str) -> Self {
        if text.contains(':') {
            SocketAddrSpec::Tcp(text.to_string())
        } else {
            SocketAddrSpec::Unix(PathBuf::from(text))
        }
    }
}

impl std::fmt::Display for SocketAddrSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketAddrSpec::Unix(path) => write!(f, "{}", path.display()),
            SocketAddrSpec::Tcp(addr) => write!(f, "{addr}"),
        }
    }
}

/// The hub-side service RPC payloads dispatch to. Implemented by the driver
/// crate (the hub process wraps its parameter server, collective and policy
/// board); the socket layer only moves the bytes.
pub trait RpcService: Send + Sync {
    /// Handle one request from `worker` at logical `round`; the returned bytes
    /// travel back as the reply payload. May block (rendezvous ops do).
    fn handle(&self, worker: u32, round: u64, request: &[u8]) -> Vec<u8>;

    /// The connection identified as `worker` terminated — cleanly (EOF at a
    /// frame boundary) or abruptly (broken pipe, EOF mid-frame). Called exactly
    /// once per identified connection, after its last frame was served; the
    /// default does nothing. Services that model worker death as an eviction
    /// hook in here.
    fn connection_closed(&self, worker: u32) {
        let _ = worker;
    }
}

fn wire_to_io(e: WireError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// One side of a stream connection plus its reassembly buffer.
struct Conn {
    stream: Box<dyn Stream>,
    decoder: FrameDecoder,
}

/// Object-safe Read + Write.
trait Stream: Read + Write + Send {}
impl<T: Read + Write + Send> Stream for T {}

impl Conn {
    fn write_frame(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(frame)?;
        self.stream.flush()
    }

    /// Block until one complete frame is reassembled. `Ok(None)` on clean EOF
    /// at a frame boundary; EOF mid-frame is an error.
    fn read_frame(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            if let Some(frame) = self.decoder.next_frame().map_err(wire_to_io)? {
                return Ok(Some(frame));
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return if self.decoder.pending() == 0 {
                    Ok(None)
                } else {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        format!("stream ended {} bytes into a frame", self.decoder.pending()),
                    ))
                };
            }
            self.decoder.push(&buf[..n]);
        }
    }
}

/// A worker's connection to the hub. Cheap to clone [`SocketConn::client`]
/// handles off; all share the one underlying stream in strict lockstep.
pub struct SocketConn {
    conn: Arc<Mutex<Conn>>,
}

impl SocketConn {
    /// Connect to the hub, retrying until `retry_for` elapses — worker
    /// processes race the hub's bind, so the first connects may refuse.
    /// Retries back off exponentially (2 ms doubling to a 50 ms cap), with
    /// every sleep clamped to the remaining budget so the deadline is never
    /// overshot; on expiry the last OS error is wrapped into the returned
    /// failure instead of being discarded.
    pub fn connect(addr: &SocketAddrSpec, retry_for: Duration) -> std::io::Result<Self> {
        const BACKOFF_CAP: Duration = Duration::from_millis(50);
        let deadline = Instant::now() + retry_for;
        let mut backoff = Duration::from_millis(2);
        loop {
            let attempt: std::io::Result<Box<dyn Stream>> = match addr {
                SocketAddrSpec::Unix(path) => {
                    UnixStream::connect(path).map(|s| Box::new(s) as Box<dyn Stream>)
                }
                SocketAddrSpec::Tcp(addr) => {
                    TcpStream::connect(addr).map(|s| Box::new(s) as Box<dyn Stream>)
                }
            };
            match attempt {
                Ok(stream) => {
                    return Ok(SocketConn {
                        conn: Arc::new(Mutex::new(Conn {
                            stream,
                            decoder: FrameDecoder::new(),
                        })),
                    })
                }
                Err(e) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(std::io::Error::new(
                            e.kind(),
                            format!(
                                "connect to {addr} failed after retrying for {retry_for:?}: {e}"
                            ),
                        ));
                    }
                    std::thread::sleep(backoff.min(deadline - now));
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                }
            }
        }
    }

    /// An RPC handle for hub-side service calls from worker `worker`.
    pub fn client(&self, worker: u32) -> HubClient {
        HubClient {
            conn: Arc::clone(&self.conn),
            worker,
        }
    }
}

/// Blocking RPC handle: one request envelope out, one reply envelope in.
pub struct HubClient {
    conn: Arc<Mutex<Conn>>,
    worker: u32,
}

impl HubClient {
    /// Call the hub service and return its reply payload.
    pub fn rpc(&self, round: u64, payload: Vec<u8>) -> Vec<u8> {
        let request = Envelope {
            kind: MsgKind::Rpc,
            round,
            sender: self.worker,
            payload,
        };
        let mut conn = self.conn.lock();
        conn.write_frame(&request.encode())
            .unwrap_or_else(|e| panic!("rpc write failed (worker {}): {e}", self.worker));
        let frame = conn
            .read_frame()
            .unwrap_or_else(|e| panic!("rpc read failed (worker {}): {e}", self.worker))
            .unwrap_or_else(|| {
                panic!("hub closed the connection mid-rpc (worker {})", self.worker)
            });
        let reply = Envelope::decode(&frame)
            .unwrap_or_else(|e| panic!("rpc reply failed to decode (worker {}): {e}", self.worker));
        assert_eq!(reply.kind, MsgKind::Rpc, "rpc reply kind");
        assert_eq!(reply.round, round, "rpc reply round");
        assert_eq!(reply.sender, HUB_SENDER, "rpc reply sender");
        reply.payload
    }
}

/// The hub process's listener: accepts exactly one connection per worker and
/// serves each on its own thread until the worker hangs up.
pub struct HubServer {
    listener: Listener,
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl HubServer {
    /// Bind the listen socket (removing a stale UDS path first).
    pub fn bind(addr: &SocketAddrSpec) -> std::io::Result<Self> {
        let listener = match addr {
            SocketAddrSpec::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                Listener::Unix(UnixListener::bind(path)?)
            }
            SocketAddrSpec::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr.as_str())?),
        };
        Ok(HubServer { listener })
    }

    /// Accept `workers` connections and serve them until every stream ends.
    /// RPC frames are dispatched to `service` and answered with the reply
    /// payload; any other frame ends its connection. Returns the first
    /// connection error, after all threads have finished.
    pub fn serve(&self, workers: usize, service: Arc<dyn RpcService>) -> std::io::Result<()> {
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let stream: Box<dyn Stream> = match &self.listener {
                    Listener::Unix(l) => Box::new(l.accept()?.0),
                    Listener::Tcp(l) => Box::new(l.accept()?.0),
                };
                let service = Arc::clone(&service);
                handles.push(scope.spawn(move || serve_connection(stream, service)));
            }
            let mut result = Ok(());
            for handle in handles {
                let outcome = handle.join().expect("hub connection thread panicked");
                if result.is_ok() {
                    result = outcome;
                }
            }
            result
        })
    }
}

/// Byte offset of the sender id inside an encoded frame (the u32 length, the
/// kind byte and the u64 round precede it — see [`crate::wire`]).
const FRAME_SENDER_AT: usize = 4 + 1 + 8;

/// The sender id a frame carries on the wire, if the frame is long enough to
/// hold one.
fn frame_sender(frame: &[u8]) -> Option<u32> {
    frame
        .get(FRAME_SENDER_AT..FRAME_SENDER_AT + 4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
}

fn serve_connection(stream: Box<dyn Stream>, service: Arc<dyn RpcService>) -> std::io::Result<()> {
    let mut conn = Conn {
        stream,
        decoder: FrameDecoder::new(),
    };
    // The worker behind this connection, learned from the first frame's sender
    // field. Before identification an I/O failure is a hub-fatal error; after
    // it, any termination — clean EOF, mid-frame EOF, broken pipe, a frame that
    // is not a well-formed RPC — is a worker death, reported to the service
    // (which models it as a deterministic eviction) instead of tearing the
    // whole cluster down.
    let mut worker: Option<u32> = None;
    let end = |worker: Option<u32>, error: Option<std::io::Error>| match (worker, error) {
        (Some(w), _) => {
            service.connection_closed(w);
            Ok(())
        }
        (None, Some(e)) => Err(e),
        (None, None) => Ok(()),
    };
    loop {
        let frame = match conn.read_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => return end(worker, Some(e)),
        };
        if worker.is_none() {
            worker = frame_sender(&frame);
        }
        let request = match Envelope::decode(&frame) {
            Ok(request) if request.kind == MsgKind::Rpc => request,
            Ok(other) => {
                let e = std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{:?} frame on an RPC connection", other.kind),
                );
                return end(worker, Some(e));
            }
            Err(e) => return end(worker, Some(wire_to_io(e))),
        };
        let reply = Envelope {
            kind: MsgKind::Rpc,
            round: request.round,
            sender: HUB_SENDER,
            payload: service.handle(request.sender, request.round, &request.payload),
        }
        .encode();
        if let Err(e) = conn.write_frame(&reply) {
            return end(worker, Some(e));
        }
    }
    end(worker, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A service that answers with the request payload reversed.
    struct Reverser;
    impl RpcService for Reverser {
        fn handle(&self, _worker: u32, _round: u64, request: &[u8]) -> Vec<u8> {
            request.iter().rev().copied().collect()
        }
    }

    fn temp_sock(tag: &str) -> SocketAddrSpec {
        SocketAddrSpec::Unix(
            std::env::temp_dir().join(format!("selsync-socket-test-{tag}-{}", std::process::id())),
        )
    }

    fn with_hub<R>(tag: &str, workers: usize, f: impl FnOnce(&SocketAddrSpec) -> R) -> R {
        let addr = temp_sock(tag);
        let server = HubServer::bind(&addr).expect("bind");
        let serving = std::thread::spawn(move || server.serve(workers, Arc::new(Reverser)));
        let out = f(&addr);
        serving.join().unwrap().expect("hub serves cleanly");
        if let SocketAddrSpec::Unix(path) = &addr {
            let _ = std::fs::remove_file(path);
        }
        out
    }

    #[test]
    fn address_spec_parses_uds_paths_and_tcp_addresses() {
        assert_eq!(
            SocketAddrSpec::parse("/tmp/hub.sock"),
            SocketAddrSpec::Unix(PathBuf::from("/tmp/hub.sock"))
        );
        assert_eq!(
            SocketAddrSpec::parse("127.0.0.1:9044"),
            SocketAddrSpec::Tcp("127.0.0.1:9044".into())
        );
    }

    #[test]
    fn rpc_frames_dispatch_to_the_service() {
        with_hub("rpc", 1, |addr| {
            let conn = SocketConn::connect(addr, Duration::from_secs(5)).expect("connect");
            let client = conn.client(0);
            assert_eq!(client.rpc(4, vec![1, 2, 3]), vec![3, 2, 1]);
        });
    }

    #[test]
    fn connect_failure_reports_the_os_cause_and_respects_the_deadline() {
        let addr = temp_sock("nobody-listening");
        let retry_for = Duration::from_millis(60);
        let started = Instant::now();
        let err = match SocketConn::connect(&addr, retry_for) {
            Ok(_) => panic!("no hub is bound there, connect must fail"),
            Err(e) => e,
        };
        let elapsed = started.elapsed();
        // Clamped sleeps: the deadline may be exceeded only by the cost of the
        // final connect attempt, not by a whole backoff sleep.
        assert!(
            elapsed < retry_for + Duration::from_millis(200),
            "connect retried past its deadline: {elapsed:?}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("failed after retrying for"),
            "missing retry context: {msg}"
        );
        assert!(
            msg.contains(&addr.to_string()),
            "missing target address: {msg}"
        );
        // The final OS error must ride along instead of being discarded.
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        assert!(
            msg.to_lowercase().contains("no such file"),
            "missing the OS cause: {msg}"
        );
    }

    #[test]
    fn worker_hangup_after_identification_fires_connection_closed_once() {
        struct Recorder {
            closed: Mutex<Vec<u32>>,
        }
        impl RpcService for Recorder {
            fn handle(&self, _worker: u32, _round: u64, request: &[u8]) -> Vec<u8> {
                request.to_vec()
            }
            fn connection_closed(&self, worker: u32) {
                self.closed.lock().push(worker);
            }
        }
        let addr = temp_sock("hangup");
        let server = HubServer::bind(&addr).expect("bind");
        let service = Arc::new(Recorder {
            closed: Mutex::new(Vec::new()),
        });
        let svc: Arc<dyn RpcService> = Arc::clone(&service) as _;
        let serving = std::thread::spawn(move || server.serve(5, svc));
        // Two workers identify themselves over one RPC each, then hang up at a
        // frame boundary (the clean-EOF death shape).
        for worker in [7u32, 9] {
            let conn = SocketConn::connect(&addr, Duration::from_secs(5)).expect("connect");
            let client = conn.client(worker);
            assert_eq!(client.rpc(0, vec![worker as u8]), vec![worker as u8]);
        }
        // A third identifies itself with an RPC, then dies mid-frame: the hub
        // maps the illegal EOF to the same callback instead of a fatal serve
        // error.
        let SocketAddrSpec::Unix(path) = &addr else {
            unreachable!()
        };
        let mut raw = UnixStream::connect(path).expect("raw connect");
        let hello = Envelope {
            kind: MsgKind::Rpc,
            round: 0,
            sender: 11,
            payload: vec![0xEE],
        }
        .encode();
        raw.write_all(&hello).expect("raw write");
        // The recorder answers with the request payload: one byte.
        let mut reply = vec![0u8; crate::wire::frame_len(1)];
        raw.read_exact(&mut reply).expect("raw reply");
        assert_eq!(
            Envelope::decode(&reply).expect("reply decodes").payload,
            vec![0xEE]
        );
        raw.write_all(&[1, 2, 3]).expect("partial frame");
        drop(raw);
        // A fourth sends an RPC frame that fails its checksum: the hub ends
        // that connection like a broken pipe, not the whole serve.
        let mut raw = UnixStream::connect(path).expect("raw connect");
        let mut garbled = Envelope {
            kind: MsgKind::Rpc,
            round: 0,
            sender: 13,
            payload: vec![1],
        }
        .encode();
        *garbled.last_mut().expect("non-empty frame") ^= 0xff;
        raw.write_all(&garbled).expect("raw write");
        drop(raw);
        // A fifth sends a well-formed frame of a non-RPC kind: a protocol
        // violation, ended like the garbled RPC rather than answered.
        let mut raw = UnixStream::connect(path).expect("raw connect");
        let flags = Envelope {
            kind: MsgKind::Flags,
            round: 0,
            sender: 15,
            payload: vec![1],
        }
        .encode();
        raw.write_all(&flags).expect("raw write");
        raw.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).expect("the hub hangs up");
        assert!(rest.is_empty(), "a non-RPC frame must not be answered");

        serving
            .join()
            .unwrap()
            .expect("hub survives worker hangups");
        let mut closed = service.closed.lock().clone();
        closed.sort_unstable();
        assert_eq!(closed, vec![7, 9, 11, 13, 15]);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn multiple_workers_are_served_concurrently() {
        with_hub("multi", 3, |addr| {
            let mut joins = Vec::new();
            for worker in 0..3u32 {
                let addr = addr.clone();
                joins.push(std::thread::spawn(move || {
                    let conn = SocketConn::connect(&addr, Duration::from_secs(5)).expect("connect");
                    let client = conn.client(worker);
                    for round in 0..16u64 {
                        let payload = vec![worker as u8, round as u8];
                        assert_eq!(
                            client.rpc(round, payload.clone()),
                            vec![round as u8, worker as u8],
                        );
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
        });
    }
}
