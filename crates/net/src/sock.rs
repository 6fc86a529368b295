//! Real-kernel-socket transport: the third [`Transport`] backend.
//!
//! [`SockNet`] drives the identical `Stack` assembly and wire envelope
//! end-to-end through the operating system: every endpoint owns a real
//! listening socket (TCP on loopback or a Unix-domain socket, selected
//! by [`SockKind`]), sends open real connections, and the crash
//! observable the de-randomization attackers rely on — "a process crash
//! … results in the closure of the TCP connection" — is produced by the
//! kernel itself: [`Transport::crash`] closes the endpoint's sockets and
//! peers learn of it by reading EOF, not by an in-process notification.
//!
//! # Reactor
//!
//! All sockets are non-blocking, and one single-threaded readiness pass
//! ([`Transport::step`]), owned by the drive loop exactly like
//! `SimNet`'s, makes all the progress: no background threads, no
//! `poll`/`epoll` dependency (the offline-shim constraint), just
//! `std::net` and `WouldBlock`.
//!
//! The pass does not ask the kernel which sockets are ready; it already
//! knows. `SockNet` owns *both* ends of every connection it carries, so a
//! readiness ledger (one entry per connection id) records everything the
//! kernel could have to say:
//!
//! * how many bytes the dialing half has flushed into the kernel, against
//!   how many the accepting half has read out;
//! * which listeners hold dials not yet accepted;
//! * which halves this transport has itself closed — a crash, a dead
//!   connection dropped after its EOF or write error, a session retired
//!   after its closure surfaced.
//!
//! A pass therefore reads an accepted connection only while its dialer's
//! flushed count is ahead of its read count, its dialer half is closed
//! (an EOF is coming) or its hello is still unparsed (the hello names the
//! ledger entry), and stops as soon as the counts match; it accepts only
//! on listeners with pending dials; it polls an outgoing connection for
//! EOF only once the accepting half is closed; and it flushes only
//! connections with queued bytes. Every other socket costs no system
//! call, so an idle connection is free however many there are. The kernel
//! still carries every byte and every EOF — the crash observable stays
//! the kernel's; the ledger only chooses which descriptor to look at.
//!
//! The knowledge is exact only because every byte and every close goes
//! through this one process's `SockNet`. Endpoints spread over several
//! processes would not share a ledger, and would have to ask the kernel
//! instead (`poll`/`epoll` readiness over every descriptor).
//!
//! # Framing
//!
//! A connection starts with a fixed 20-byte hello (`sender addr`,
//! `connection id`, `sender epoch`) identifying the dialing endpoint;
//! after that every [`WireKind`](crate::wire::WireKind) envelope is
//! framed with a little-endian `u32` length prefix. Connections are
//! unidirectional: replies flow over the receiver's own connection back,
//! which is what lets an idle read on an outgoing connection mean
//! exactly one thing — the peer is gone.
//!
//! # Accounting
//!
//! The [`NetStats`] conservation identity (`delivered + dropped +
//! dead_lettered == sent` at quiescence) is kept exact across real
//! crashes: each outgoing connection counts frames queued and frames
//! fully flushed to the kernel, each accepted connection counts frames
//! parsed, and [`Transport::crash`] settles the difference — bytes that
//! died unread in a kernel buffer are dead-lettered at crash time, while
//! bytes the kernel will still deliver (a graceful close flushes them)
//! are left to be counted on arrival.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::addr::Addr;
use crate::event::{NetEvent, NetStats};
use crate::transport::Transport;

/// Which kernel socket family a [`SockNet`] runs over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SockKind {
    /// TCP over 127.0.0.1 (an ephemeral port per endpoint).
    Tcp,
    /// Unix-domain stream sockets in a per-instance temp directory.
    #[cfg(unix)]
    Uds,
}

impl SockKind {
    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SockKind::Tcp => "tcp",
            #[cfg(unix)]
            SockKind::Uds => "uds",
        }
    }
}

/// Reactor timing knobs — configurable so CI boxes with coarse
/// schedulers stay green (see the loadgen's matching flags).
#[derive(Clone, Copy, Debug)]
pub struct SockTiming {
    /// Sleep between readiness passes while frames are known to be in
    /// flight but nothing progressed this pass.
    pub poll_interval: Duration,
    /// How long [`Transport::step`] keeps re-polling for in-flight
    /// frames before giving up the round (a safety valve, not a normal
    /// exit: on loopback, queued bytes become readable almost
    /// immediately).
    pub settle_timeout: Duration,
}

impl Default for SockTiming {
    fn default() -> SockTiming {
        SockTiming {
            poll_interval: Duration::from_micros(200),
            settle_timeout: Duration::from_secs(5),
        }
    }
}

/// Hello preamble: sender address, connection id, sender epoch.
const HELLO_LEN: usize = 4 + 8 + 8;
/// Defensive cap on a single frame (the envelope never comes close).
const MAX_FRAME: usize = 16 * 1024 * 1024;
/// Size of the one read buffer every socket read goes through.
const READ_CHUNK: usize = 16 * 1024;
/// Run a global accept pass after this many connects between steps, so
/// a burst of dials from one drive loop cannot overflow a listener
/// backlog before the reactor runs again.
const ACCEPTS_EVERY: u32 = 64;
/// Consecutive empty readiness passes after which the settle wait in
/// [`Transport::step`] concludes the kernel is quiescent and exits
/// early — in-flight counters can stay nonzero forever when a frame
/// dies unparseable (its connection is killed without crediting
/// delivery), and burning the full [`SockTiming::settle_timeout`] on
/// every such step turns a fixed safety valve into a per-step tax. At
/// the default 200µs poll interval this is ~10ms of observed silence,
/// three orders of magnitude above loopback delivery latency.
const SETTLE_IDLE_POLLS: u32 = 50;

/// Distinguishes concurrently-living [`SockNet`] instances in one
/// process (Unix socket directory names).
static INSTANCES: AtomicU64 = AtomicU64::new(0);

/// Socket calls made by the current thread, so tests can hold the
/// reactor to its syscall budget.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct SockCalls {
    reads: u64,
    writes: u64,
    accepts: u64,
    /// Calls of any kind that came back `WouldBlock`.
    would_block: u64,
}

#[cfg(test)]
thread_local! {
    static CALLS: std::cell::Cell<SockCalls> = std::cell::Cell::new(SockCalls::default());
}

/// Counts one socket call on the current thread.
#[cfg(test)]
fn count_call<T>(result: &std::io::Result<T>, count: fn(&mut SockCalls)) {
    CALLS.with(|calls| {
        let mut c = calls.get();
        count(&mut c);
        if result
            .as_ref()
            .is_err_and(|e| e.kind() == ErrorKind::WouldBlock)
        {
            c.would_block += 1;
        }
        calls.set(c);
    });
}

#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener, PathBuf),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        let accepted = match self {
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| {
                let _ = s.set_nodelay(true);
                s.set_nonblocking(true).map(|()| Stream::Tcp(s))
            }),
            #[cfg(unix)]
            Listener::Uds(l, _) => l
                .accept()
                .and_then(|(s, _)| s.set_nonblocking(true).map(|()| Stream::Uds(s))),
        };
        #[cfg(test)]
        count_call(&accepted, |c| c.accepts += 1);
        accepted
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.read(buf),
        };
        #[cfg(test)]
        count_call(&n, |c| c.reads += 1);
        n
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.write(buf),
        };
        #[cfg(test)]
        count_call(&n, |c| c.writes += 1);
        n
    }
}

/// Where peers dial an endpoint right now (refreshed on restart).
#[derive(Clone, Debug)]
enum Target {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Uds(PathBuf),
}

/// The readiness ledger's entry for one connection: what the transport
/// knows the kernel holds for each of its halves. Created at dial time,
/// pruned once both halves are closed.
#[derive(Debug)]
struct Link {
    /// Dialing endpoint and its epoch.
    dialer: (u32, u64),
    /// Accepting endpoint and its epoch.
    acceptor: (u32, u64),
    /// Bytes the dialing half has written into the kernel (hello
    /// included).
    flushed: u64,
    /// The dialing half was closed: the accepting half will read EOF
    /// after the last flushed byte.
    dialer_closed: bool,
    /// The accepting half, or the listener still holding it unaccepted,
    /// was closed: the dialing half will read EOF or a reset.
    acceptor_closed: bool,
}

/// The readiness ledger, keyed by connection id.
type Ledger = HashMap<u64, Link>;

/// Records that one half of connection `conn_id` was closed, pruning the
/// entry once both are.
fn close_half(links: &mut Ledger, conn_id: u64, dialer: bool) {
    if let Entry::Occupied(mut entry) = links.entry(conn_id) {
        let link = entry.get_mut();
        if dialer {
            link.dialer_closed = true;
        } else {
            link.acceptor_closed = true;
        }
        if link.dialer_closed && link.acceptor_closed {
            entry.remove();
        }
    }
}

/// One outgoing connection (this endpoint dialing `to`).
#[derive(Debug)]
struct OutConn {
    to: u32,
    /// The destination's epoch when dialed; a restarted destination has
    /// a higher epoch and gets a fresh connection.
    peer_epoch: u64,
    conn_id: u64,
    stream: Stream,
    /// Unwritten suffix of the byte stream (`wpos..` is pending).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Total bytes ever flushed into the kernel.
    bytes_flushed: u64,
    /// Cumulative end offsets (in flushed-byte space) of queued frames.
    frame_ends: VecDeque<u64>,
    /// Total bytes ever appended (hello + frames).
    bytes_appended: u64,
    /// Frames queued on this connection.
    sent: u64,
    /// Frames whose last byte reached the kernel.
    fully_flushed: u64,
    /// Crash accounting already settled this connection.
    accounted: bool,
    dead: bool,
}

impl OutConn {
    fn append(&mut self, bytes: &[u8], is_frame: bool) {
        self.wbuf.extend_from_slice(bytes);
        self.bytes_appended += bytes.len() as u64;
        if is_frame {
            self.sent += 1;
            self.frame_ends.push_back(self.bytes_appended);
        }
    }

    /// Writes as much pending data as the kernel accepts, recording the
    /// flushed count in the ledger. Returns whether any bytes moved;
    /// marks the connection dead on a hard write error. Makes no call
    /// when nothing is pending.
    fn flush(&mut self, links: &mut Ledger) -> bool {
        let mut progressed = false;
        while self.wpos < self.wbuf.len() && !self.dead {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                }
                Ok(n) => {
                    self.wpos += n;
                    self.bytes_flushed += n as u64;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        while self
            .frame_ends
            .front()
            .is_some_and(|&end| end <= self.bytes_flushed)
        {
            self.frame_ends.pop_front();
            self.fully_flushed += 1;
        }
        if progressed {
            if let Some(link) = links.get_mut(&self.conn_id) {
                link.flushed = self.bytes_flushed;
            }
        }
        progressed
    }

    /// Polls the (write-only) connection for EOF/reset — the kernel's
    /// crash observable. Any readable data is discarded: peers never
    /// send on a connection they accepted.
    fn poll_eof(&mut self) {
        let mut scratch = [0u8; 64];
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }
}

/// One accepted connection (a peer dialing this endpoint).
#[derive(Debug)]
struct InConn {
    stream: Stream,
    rbuf: Vec<u8>,
    /// `(peer addr, peer epoch)` once the hello has been parsed.
    peer: Option<(u32, u64)>,
    /// The connection's ledger key, named by the hello.
    conn_id: u64,
    /// Total bytes ever read out of the kernel (hello included).
    bytes_read: u64,
    /// Frames parsed and pushed to the inbox.
    delivered: u64,
    dead: bool,
}

impl InConn {
    fn accepted(stream: Stream) -> InConn {
        InConn {
            stream,
            rbuf: Vec::new(),
            peer: None,
            conn_id: 0,
            bytes_read: 0,
            delivered: 0,
            dead: false,
        }
    }

    /// Whether the ledger says the kernel holds something for this
    /// connection: unread flushed bytes, or an EOF after a closed dialer.
    /// Before the hello is parsed the ledger entry is unknown, so the
    /// answer is yes.
    fn readable(&self, links: &Ledger) -> bool {
        if self.dead {
            return false;
        }
        if self.peer.is_none() {
            return true;
        }
        links
            .get(&self.conn_id)
            .is_some_and(|l| l.flushed > self.bytes_read || l.dialer_closed)
    }

    /// Reads while [`InConn::readable`] holds, parsing the hello as soon
    /// as it is complete. Returns whether any bytes arrived.
    fn read_ready(&mut self, links: &Ledger, buf: &mut [u8]) -> bool {
        let mut progressed = false;
        while self.readable(links) {
            match self.stream.read(buf) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.rbuf.extend_from_slice(&buf[..n]);
                    self.bytes_read += n as u64;
                    progressed = true;
                    self.parse_hello();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
        }
        progressed
    }

    /// Parses the hello out of `rbuf` once all of it has arrived.
    fn parse_hello(&mut self) {
        if self.peer.is_some() || self.rbuf.len() < HELLO_LEN {
            return;
        }
        let buf = &self.rbuf;
        let peer = u32::from_le_bytes(buf[0..4].try_into().expect("hello addr"));
        let conn_id = u64::from_le_bytes(buf[4..12].try_into().expect("hello conn id"));
        let epoch = u64::from_le_bytes(buf[12..20].try_into().expect("hello epoch"));
        self.peer = Some((peer, epoch));
        self.conn_id = conn_id;
        self.rbuf.drain(..HELLO_LEN);
    }
}

#[derive(Debug)]
struct Endpoint {
    name: String,
    listener: Option<Listener>,
    target: Option<Target>,
    crashed: bool,
    /// Bumped on every restart; connections are epoch-scoped.
    epoch: u64,
    inbox: VecDeque<NetEvent>,
    out: Vec<OutConn>,
    inc: Vec<InConn>,
    /// Dials into the current listener not yet accepted.
    unaccepted: u32,
    /// `(peer, peer epoch)` sessions whose closure was already surfaced,
    /// so the two halves of one dead session yield one closure event.
    /// Pruned when the peer restarts (see [`SockNet::forget_sessions`]).
    closures_seen: HashSet<(u32, u64)>,
}

/// A [`Transport`] over real kernel sockets. See the [module
/// docs](self) for the reactor, framing and accounting contracts.
#[derive(Debug)]
pub struct SockNet {
    kind: SockKind,
    timing: SockTiming,
    endpoints: Vec<Endpoint>,
    /// The readiness ledger: every connection with a half still open.
    links: Ledger,
    /// The one buffer every socket read goes through.
    read_buf: Vec<u8>,
    stats: NetStats,
    /// Unix socket directory (removed on drop).
    dir: Option<PathBuf>,
    next_conn_id: u64,
    /// Events enqueued outside a readiness pass (dead-letter closures),
    /// reported by the next [`Transport::step`].
    dirty: bool,
    connects_since_accept: u32,
}

impl SockNet {
    /// A transport over TCP loopback sockets.
    ///
    /// # Panics
    ///
    /// Never — TCP needs no filesystem setup; failures surface at
    /// [`Transport::register`] (bind) time.
    pub fn tcp() -> SockNet {
        SockNet::with_timing(SockKind::Tcp, SockTiming::default())
    }

    /// A transport over Unix-domain sockets in a fresh temp directory.
    ///
    /// # Panics
    ///
    /// Panics if the socket directory cannot be created.
    #[cfg(unix)]
    pub fn uds() -> SockNet {
        SockNet::with_timing(SockKind::Uds, SockTiming::default())
    }

    /// A transport with explicit reactor timing (CI boxes with coarse
    /// schedulers raise `settle_timeout`; latency rigs shrink
    /// `poll_interval`).
    ///
    /// # Panics
    ///
    /// Panics if the Unix socket directory cannot be created.
    pub fn with_timing(kind: SockKind, timing: SockTiming) -> SockNet {
        let dir = match kind {
            SockKind::Tcp => None,
            #[cfg(unix)]
            SockKind::Uds => {
                let dir = std::env::temp_dir().join(format!(
                    "fortress-sock-{}-{}",
                    std::process::id(),
                    INSTANCES.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&dir).expect("create unix socket directory");
                Some(dir)
            }
        };
        SockNet {
            kind,
            timing,
            endpoints: Vec::new(),
            links: Ledger::new(),
            read_buf: vec![0; READ_CHUNK],
            stats: NetStats::default(),
            dir,
            next_conn_id: 1,
            dirty: false,
            connects_since_accept: 0,
        }
    }

    /// The socket family in use.
    pub fn kind(&self) -> SockKind {
        self.kind
    }

    /// The name an endpoint registered under.
    pub fn name(&self, addr: Addr) -> &str {
        &self.endpoints[addr.raw() as usize].name
    }

    /// Whether `addr` is currently crashed.
    pub fn is_crashed(&self, addr: Addr) -> bool {
        self.endpoints[addr.raw() as usize].crashed
    }

    /// Frames accepted by `send` but not yet delivered, dropped or
    /// dead-lettered — the reactor's "in flight through the kernel"
    /// count.
    pub fn outstanding(&self) -> u64 {
        self.stats.sent - self.stats.delivered - self.stats.dropped - self.stats.dead_lettered
    }

    fn bind_listener(&mut self, index: usize, epoch: u64) -> (Listener, Target) {
        match self.kind {
            SockKind::Tcp => {
                let listener = TcpListener::bind(("127.0.0.1", 0))
                    .expect("bind loopback TCP listener");
                listener
                    .set_nonblocking(true)
                    .expect("set listener non-blocking");
                let addr = listener.local_addr().expect("listener local addr");
                (Listener::Tcp(listener), Target::Tcp(addr))
            }
            #[cfg(unix)]
            SockKind::Uds => {
                let dir = self.dir.as_ref().expect("unix socket directory");
                let path = dir.join(format!("ep{index}-{epoch}.sock"));
                let listener = UnixListener::bind(&path).expect("bind unix listener");
                listener
                    .set_nonblocking(true)
                    .expect("set listener non-blocking");
                (Listener::Uds(listener, path.clone()), Target::Uds(path))
            }
        }
    }

    fn dial(&mut self, target: &Target) -> std::io::Result<Stream> {
        // A burst of dials between reactor passes can outrun a
        // listener's backlog; interleave accepts.
        self.connects_since_accept += 1;
        if self.connects_since_accept >= ACCEPTS_EVERY {
            self.connects_since_accept = 0;
            accept_pass(&mut self.endpoints);
        }
        match target {
            Target::Tcp(addr) => {
                // Loopback connects complete immediately when the
                // listener is up, so a blocking dial costs nothing and
                // avoids hand-rolling EINPROGRESS tracking.
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            Target::Uds(path) => {
                let s = UnixStream::connect(path)?;
                s.set_nonblocking(true)?;
                Ok(Stream::Uds(s))
            }
        }
    }

    /// Short-circuits a send to a locally-known-crashed endpoint:
    /// dead-letter plus a closure event back to the sender (the same
    /// semantics `SimNet` and `ThreadNet` give the probe loop).
    fn dead_letter(&mut self, from: Addr, to: Addr) {
        self.stats.dead_lettered += 1;
        self.stats.closures += 1;
        self.endpoints[from.raw() as usize]
            .inbox
            .push_back(NetEvent::ConnectionClosed { peer: to, at: 0 });
        self.dirty = true;
    }

    /// One readiness pass over what the ledger says is ready: accepts,
    /// flushes, reads, EOF-polls. Returns whether anything moved.
    fn poll_once(&mut self) -> bool {
        self.connects_since_accept = 0;
        let mut progressed = accept_pass(&mut self.endpoints);
        let SockNet {
            endpoints,
            links,
            read_buf,
            stats,
            ..
        } = self;
        for ep in endpoints.iter_mut() {
            progressed |= service_endpoint(ep, links, stats, read_buf);
        }
        progressed
    }

    /// Forgets the closures `peer`'s older epochs left at every endpoint,
    /// once the ledger holds no connection that could surface them again.
    /// A session at an epoch the peer has left can gain no new
    /// connection, so this keeps `closures_seen` bounded by the live
    /// endpoints instead of growing with every restart.
    fn forget_sessions(&mut self, peer: u32) {
        let epoch = self.endpoints[peer as usize].epoch;
        let links = &self.links;
        for (i, ep) in self.endpoints.iter_mut().enumerate() {
            let here = i as u32;
            ep.closures_seen.retain(|&(p, e)| {
                p != peer
                    || e >= epoch
                    || links.values().any(|l| {
                        (l.dialer == (p, e) && l.acceptor.0 == here)
                            || (l.acceptor == (p, e) && l.dialer.0 == here)
                    })
            });
        }
    }
}

/// Accepts every dial the ledger holds pending, on just the listeners
/// that have some. Returns whether anything was accepted; accepted
/// connections learn their peer identity and connection id from the
/// hello they carry.
fn accept_pass(endpoints: &mut [Endpoint]) -> bool {
    let mut progressed = false;
    for ep in endpoints {
        let Some(listener) = &ep.listener else { continue };
        while ep.unaccepted > 0 {
            match listener.accept() {
                Ok(stream) => {
                    progressed = true;
                    ep.unaccepted -= 1;
                    ep.inc.push(InConn::accepted(stream));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // The dial was torn down in the backlog: it is gone.
                Err(e) if e.kind() == ErrorKind::ConnectionAborted => ep.unaccepted -= 1,
                // Not complete yet (or out of descriptors): next pass.
                Err(_) => break,
            }
        }
    }
    progressed
}

/// Flushes, EOF-polls, reads and frames the connections of `ep` the
/// ledger says are ready, surfaces closures and records the halves it
/// closes. Connections with nothing to do cost no socket call.
fn service_endpoint(
    ep: &mut Endpoint,
    links: &mut Ledger,
    stats: &mut NetStats,
    buf: &mut [u8],
) -> bool {
    let mut progressed = false;
    let mut dead_sessions: Vec<(u32, u64)> = Vec::new();

    for conn in &mut ep.out {
        if conn.dead {
            continue;
        }
        progressed |= conn.flush(links);
        if links.get(&conn.conn_id).is_some_and(|l| l.acceptor_closed) {
            conn.poll_eof();
        }
        if conn.dead {
            dead_sessions.push((conn.to, conn.peer_epoch));
        }
    }

    for conn in &mut ep.inc {
        progressed |= conn.read_ready(links, buf);
        progressed |= parse_frames(conn, &mut ep.inbox, stats);
        if conn.dead {
            if let Some(session) = conn.peer {
                dead_sessions.push(session);
            }
        }
    }

    // Both halves of a session can EOF in one pass; one closure per dead
    // (peer, epoch) session, ever.
    for session in dead_sessions {
        retire_session(ep, session);
        if ep.closures_seen.insert(session) {
            stats.closures += 1;
            ep.inbox.push_back(NetEvent::ConnectionClosed {
                peer: Addr::from_raw(session.0),
                at: 0,
            });
            progressed = true;
        }
    }
    drop_dead(ep, links);
    progressed
}

/// Marks every connection of `(peer, epoch)` at `ep` dead, so the
/// second half of a closed session is dropped silently.
fn retire_session(ep: &mut Endpoint, session: (u32, u64)) {
    for c in &mut ep.out {
        if (c.to, c.peer_epoch) == session {
            c.dead = true;
        }
    }
    for c in &mut ep.inc {
        if c.peer == Some(session) {
            c.dead = true;
        }
    }
}

/// Drops `ep`'s dead connections (which closes their sockets) and
/// records each closed half in the ledger, so the other half's owner
/// looks for the EOF.
fn drop_dead(ep: &mut Endpoint, links: &mut Ledger) {
    ep.out.retain(|c| {
        if c.dead {
            close_half(links, c.conn_id, true);
        }
        !c.dead
    });
    ep.inc.retain(|c| {
        if c.dead && c.peer.is_some() {
            close_half(links, c.conn_id, false);
        }
        !c.dead
    });
}

/// Parses every complete frame out of `conn.rbuf`, delivering messages
/// to `inbox`. Returns whether anything was parsed.
fn parse_frames(conn: &mut InConn, inbox: &mut VecDeque<NetEvent>, stats: &mut NetStats) -> bool {
    let Some((peer, _)) = conn.peer else {
        return false;
    };
    let mut pos = 0usize;
    loop {
        let buf = &conn.rbuf[pos..];
        if buf.len() < 4 {
            break;
        }
        let len = u32::from_le_bytes(buf[0..4].try_into().expect("frame len")) as usize;
        if len > MAX_FRAME {
            conn.dead = true;
            break;
        }
        if buf.len() < 4 + len {
            break;
        }
        let payload = Bytes::copy_from_slice(&buf[4..4 + len]);
        inbox.push_back(NetEvent::Message {
            from: Addr::from_raw(peer),
            payload,
            at: 0,
        });
        conn.delivered += 1;
        stats.delivered += 1;
        pos += 4 + len;
    }
    if pos > 0 {
        conn.rbuf.drain(..pos);
    }
    pos > 0
}

impl Transport for SockNet {
    fn register(&mut self, name: &str) -> Addr {
        let index = self.endpoints.len();
        let (listener, target) = self.bind_listener(index, 0);
        self.endpoints.push(Endpoint {
            name: name.to_owned(),
            listener: Some(listener),
            target: Some(target),
            crashed: false,
            epoch: 0,
            inbox: VecDeque::new(),
            out: Vec::new(),
            inc: Vec::new(),
            unaccepted: 0,
            closures_seen: HashSet::new(),
        });
        Addr::from_raw(index as u32)
    }

    fn send(&mut self, from: Addr, to: Addr, payload: Bytes) {
        self.stats.sent += 1;
        let to_idx = to.raw() as usize;
        if self.endpoints[to_idx].crashed {
            self.dead_letter(from, to);
            return;
        }
        let peer_epoch = self.endpoints[to_idx].epoch;
        let from_idx = from.raw() as usize;
        let have_conn = self.endpoints[from_idx]
            .out
            .iter()
            .any(|c| c.to == to.raw() && c.peer_epoch == peer_epoch && !c.dead);
        if !have_conn {
            let target = self.endpoints[to_idx]
                .target
                .clone()
                .expect("live endpoint has a dial target");
            match self.dial(&target) {
                Ok(stream) => {
                    let conn_id = self.next_conn_id;
                    self.next_conn_id += 1;
                    let from_epoch = self.endpoints[from_idx].epoch;
                    let mut hello = [0u8; HELLO_LEN];
                    hello[0..4].copy_from_slice(&from.raw().to_le_bytes());
                    hello[4..12].copy_from_slice(&conn_id.to_le_bytes());
                    hello[12..20].copy_from_slice(&from_epoch.to_le_bytes());
                    let mut conn = OutConn {
                        to: to.raw(),
                        peer_epoch,
                        conn_id,
                        stream,
                        wbuf: Vec::new(),
                        wpos: 0,
                        bytes_flushed: 0,
                        frame_ends: VecDeque::new(),
                        bytes_appended: 0,
                        sent: 0,
                        fully_flushed: 0,
                        accounted: false,
                        dead: false,
                    };
                    conn.append(&hello, false);
                    self.endpoints[from_idx].out.push(conn);
                    self.endpoints[to_idx].unaccepted += 1;
                    self.links.insert(
                        conn_id,
                        Link {
                            dialer: (from.raw(), from_epoch),
                            acceptor: (to.raw(), peer_epoch),
                            flushed: 0,
                            dialer_closed: false,
                            acceptor_closed: false,
                        },
                    );
                }
                Err(_) => {
                    // The listener vanished under us: same observable as
                    // a dead-lettered send (`sent` is already counted).
                    self.dead_letter(from, to);
                    return;
                }
            }
        }
        let conn = self.endpoints[from_idx]
            .out
            .iter_mut()
            .find(|c| c.to == to.raw() && c.peer_epoch == peer_epoch && !c.dead)
            .expect("connection just ensured");
        let len = (payload.len() as u32).to_le_bytes();
        conn.append(&len, false);
        conn.append(&payload, true);
        conn.flush(&mut self.links);
    }

    fn drain_into(&mut self, at: Addr, out: &mut Vec<NetEvent>) {
        out.extend(self.endpoints[at.raw() as usize].inbox.drain(..));
    }

    fn drain_closure_count(&mut self, at: Addr) -> u64 {
        let inbox = &mut self.endpoints[at.raw() as usize].inbox;
        let n = inbox.iter().filter(|e| e.is_closure()).count() as u64;
        inbox.clear();
        n
    }

    fn has_pending(&self, addr: Addr) -> bool {
        !self.endpoints[addr.raw() as usize].inbox.is_empty()
    }

    /// One reactor pass, plus a bounded settle wait: when frames are
    /// known to be in flight through the kernel but this pass moved
    /// nothing, the reactor re-polls on [`SockTiming::poll_interval`]
    /// until something lands, the kernel stays observably idle for
    /// [`SETTLE_IDLE_POLLS`] consecutive passes, or
    /// [`SockTiming::settle_timeout`] expires — so `while net.step() {}`
    /// reaches real quiescence instead of racing the kernel's delivery
    /// latency, and a *stuck* frame (e.g. one whose connection died
    /// mid-parse) costs a few idle polls, not the whole timeout.
    fn step(&mut self) -> bool {
        let mut progressed = std::mem::take(&mut self.dirty);
        progressed |= self.poll_once();
        if progressed {
            return true;
        }
        if self.outstanding() == 0 {
            return false;
        }
        let deadline = Instant::now() + self.timing.settle_timeout;
        let mut idle_polls = 0u32;
        loop {
            std::thread::sleep(self.timing.poll_interval);
            if self.poll_once() {
                return true;
            }
            idle_polls += 1;
            if self.outstanding() == 0
                || idle_polls >= SETTLE_IDLE_POLLS
                || Instant::now() >= deadline
            {
                return false;
            }
        }
    }

    /// Closes the endpoint's listener and every one of its sockets; the
    /// kernel delivers the crash observable (EOF) to peers, read by
    /// their next [`Transport::step`], which the ledger points at the
    /// closed connections. Frames that died unread in kernel buffers
    /// are dead-lettered here, keeping the conservation identity exact.
    fn crash(&mut self, addr: Addr) {
        let idx = addr.raw() as usize;
        if self.endpoints[idx].crashed {
            return;
        }
        let epoch = self.endpoints[idx].epoch;
        // Frames peers queued toward us that we never parsed die with
        // our sockets.
        let delivered_by_conn: HashMap<u64, u64> = self.endpoints[idx]
            .inc
            .iter()
            .filter(|c| !c.dead)
            .map(|c| (c.conn_id, c.delivered))
            .collect();
        let stats = &mut self.stats;
        for (j, ep) in self.endpoints.iter_mut().enumerate() {
            if j == idx {
                continue;
            }
            for conn in &mut ep.out {
                if conn.to == addr.raw() && conn.peer_epoch == epoch && !conn.accounted {
                    conn.accounted = true;
                    let delivered = delivered_by_conn.get(&conn.conn_id).copied().unwrap_or(0);
                    stats.dead_lettered += conn.sent.saturating_sub(delivered);
                }
            }
        }
        // Frames we queued outward but never fully flushed die too; the
        // fully-flushed ones survive in the kernel (a close flushes) and
        // are counted as delivered when peers read them.
        let ep = &mut self.endpoints[idx];
        for conn in &mut ep.out {
            if !conn.accounted {
                conn.accounted = true;
                stats.dead_lettered += conn.sent.saturating_sub(conn.fully_flushed);
            }
        }
        ep.crashed = true;
        ep.inbox.clear();
        ep.listener = None; // drop closes (and unlinks a UDS path)
        ep.target = None;
        ep.out.clear(); // drop closes; peers read EOF
        ep.inc.clear();
        ep.unaccepted = 0;
        // Every half this endpoint held — accepted, still in the
        // listener's backlog, or dialed — is closed now.
        self.links.retain(|_, l| {
            l.dialer_closed |= l.dialer.0 == addr.raw();
            l.acceptor_closed |= l.acceptor.0 == addr.raw();
            !(l.dialer_closed && l.acceptor_closed)
        });
    }

    /// Rebinds a fresh listener under a bumped epoch: peers' stale
    /// connections stay around just long enough to surface their EOF
    /// closure, while new sends dial the new socket.
    fn restart(&mut self, addr: Addr) {
        let idx = addr.raw() as usize;
        if !self.endpoints[idx].crashed {
            return;
        }
        let epoch = self.endpoints[idx].epoch + 1;
        let (listener, target) = self.bind_listener(idx, epoch);
        let ep = &mut self.endpoints[idx];
        ep.crashed = false;
        ep.epoch = epoch;
        ep.inbox.clear();
        ep.listener = Some(listener);
        ep.target = Some(target);
        self.forget_sessions(addr.raw());
    }

    fn note_malformed(&mut self) {
        self.stats.malformed += 1;
    }

    fn stats(&self) -> NetStats {
        self.stats
    }
}

impl Drop for SockNet {
    fn drop(&mut self) {
        self.endpoints.clear(); // listeners unlink their UDS paths first
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settle(net: &mut SockNet) {
        while Transport::step(net) {}
    }

    fn backends() -> Vec<SockNet> {
        let mut v = vec![SockNet::tcp()];
        #[cfg(unix)]
        v.push(SockNet::uds());
        v
    }

    fn calls() -> SockCalls {
        CALLS.with(std::cell::Cell::get)
    }

    /// Looks at every socket the ledger calls idle — listeners with no
    /// pending dial, parsed accepted connections whose dialer's flushed
    /// bytes are all read and whose dialer is open, outgoing connections
    /// with nothing queued whose accepting half is open — and returns
    /// one line per thing the kernel holds on any of them. Also returns
    /// a line per connection missing from the ledger and per ledger
    /// entry no live connection or pending dial accounts for.
    fn audit_idle(net: &mut SockNet) -> Vec<String> {
        // A close travels through loopback asynchronously; give a missed
        // EOF time to land so the audit can see it.
        std::thread::sleep(Duration::from_millis(2));
        let SockNet {
            endpoints, links, ..
        } = net;
        let mut found = Vec::new();
        let mut buf = [0u8; 64];
        let mut held: HashSet<u64> = HashSet::new();
        for (i, ep) in endpoints.iter_mut().enumerate() {
            if let (Some(listener), 0) = (&ep.listener, ep.unaccepted) {
                if let Ok(stream) = listener.accept() {
                    found.push(format!("endpoint {i}: unrecorded dial {stream:?}"));
                }
            }
            for c in &mut ep.out {
                held.insert(c.conn_id);
                let Some(link) = links.get(&c.conn_id) else {
                    found.push(format!("endpoint {i}: conn {} not in the ledger", c.conn_id));
                    continue;
                };
                if c.wpos == c.wbuf.len() && !link.acceptor_closed {
                    match c.stream.read(&mut buf) {
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                        r => found.push(format!("endpoint {i}: idle out conn {}: {r:?}", c.conn_id)),
                    }
                }
            }
            for c in &mut ep.inc {
                if c.peer.is_none() {
                    continue;
                }
                held.insert(c.conn_id);
                if !links.contains_key(&c.conn_id) {
                    found.push(format!("endpoint {i}: in conn {} not in the ledger", c.conn_id));
                } else if !c.readable(links) {
                    match c.stream.read(&mut buf) {
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                        r => found.push(format!("endpoint {i}: idle in conn {}: {r:?}", c.conn_id)),
                    }
                }
            }
        }
        let pending: u32 = endpoints.iter().map(|ep| ep.unaccepted).sum();
        let orphans = links.keys().filter(|id| !held.contains(id)).count();
        if orphans > pending as usize {
            found.push(format!(
                "{orphans} ledger entries held by no connection, {pending} dials pending"
            ));
        }
        found
    }

    #[test]
    fn kernel_round_trip_on_both_families() {
        for mut net in backends() {
            let a = net.register("a");
            let b = net.register("b");
            net.send(a, b, Bytes::from_static(b"through the kernel"));
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(b, &mut out);
            assert_eq!(out.len(), 1, "{:?}", net.kind());
            assert_eq!(out[0].peer(), a);
            assert_eq!(out[0].payload().unwrap().as_ref(), b"through the kernel");
            assert_eq!(net.stats().delivered, 1);
            assert_eq!(net.outstanding(), 0);
        }
    }

    #[test]
    fn crash_is_observed_as_a_kernel_eof() {
        for mut net in backends() {
            let a = net.register("attacker");
            let s = net.register("server");
            net.send(a, s, Bytes::from_static(b"probe"));
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(s, &mut out);
            assert_eq!(out.len(), 1);
            net.crash(s);
            settle(&mut net);
            out.clear();
            net.drain_into(a, &mut out);
            assert_eq!(
                out.iter().filter(|e| e.is_closure()).count(),
                1,
                "exactly one closure per dead session ({:?})",
                net.kind()
            );
            assert_eq!(out[0].peer(), s);
        }
    }

    #[test]
    fn restart_dials_the_new_socket_and_conservation_holds() {
        for mut net in backends() {
            let a = net.register("a");
            let s = net.register("s");
            net.send(a, s, Bytes::from_static(b"x"));
            settle(&mut net);
            net.crash(s);
            settle(&mut net);
            // Send into the outage: dead-letter + closure to sender.
            net.send(a, s, Bytes::from_static(b"lost"));
            net.restart(s);
            net.send(a, s, Bytes::from_static(b"y"));
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(s, &mut out);
            let delivered: Vec<_> = out.iter().filter_map(NetEvent::payload).collect();
            assert_eq!(delivered.len(), 1);
            assert_eq!(delivered[0].as_ref(), b"y");
            let st = net.stats();
            assert_eq!(st.sent, 3);
            assert_eq!(
                st.delivered + st.dropped + st.dead_lettered,
                st.sent,
                "conservation identity ({:?}): {st:?}",
                net.kind()
            );
        }
    }

    #[test]
    fn frames_unread_at_crash_are_dead_lettered() {
        for mut net in backends() {
            let a = net.register("a");
            let s = net.register("s");
            // Establish, then queue frames the victim never reads.
            net.send(a, s, Bytes::from_static(b"first"));
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(s, &mut out);
            net.send(a, s, Bytes::from_static(b"in flight 1"));
            net.send(a, s, Bytes::from_static(b"in flight 2"));
            // Crash before any reactor pass parses them.
            net.crash(s);
            settle(&mut net);
            let st = net.stats();
            assert_eq!(st.sent, 3);
            assert_eq!(st.delivered, 1);
            assert_eq!(st.dead_lettered, 2, "{:?}", net.kind());
            assert_eq!(net.outstanding(), 0);
        }
    }

    #[test]
    fn a_stuck_frame_costs_idle_polls_not_the_settle_timeout() {
        for mut net in backends() {
            let a = net.register("a");
            let b = net.register("b");
            net.send(a, b, Bytes::from_static(b"well-formed"));
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(b, &mut out);
            assert_eq!(out.len(), 1);
            // A frame longer than MAX_FRAME kills the receiving
            // connection mid-parse without crediting a delivery, so the
            // in-flight counter is stuck nonzero for good.
            net.send(a, b, Bytes::from(vec![0u8; MAX_FRAME + 1]));
            settle(&mut net);
            assert!(
                net.outstanding() > 0,
                "{:?}: the oversized frame must stay in flight",
                net.kind()
            );
            // The next step must conclude the kernel is quiescent after
            // SETTLE_IDLE_POLLS empty passes (~10ms), not burn the full
            // 5s settle_timeout on a counter that can never drain.
            let start = Instant::now();
            assert!(!Transport::step(&mut net));
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "{:?}: a stuck frame must exit on idle polls, took {:?}",
                net.kind(),
                start.elapsed()
            );
        }
    }

    #[test]
    fn broadcast_shares_the_payload_and_skips_the_sender() {
        for mut net in backends() {
            let a = net.register("a");
            let b = net.register("b");
            let c = net.register("c");
            net.broadcast(a, &[a, b, c], Bytes::from_static(b"fanout"));
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(a, &mut out);
            assert!(out.is_empty(), "broadcast must skip the sender");
            net.drain_into(b, &mut out);
            net.drain_into(c, &mut out);
            assert_eq!(out.len(), 2);
        }
    }

    #[test]
    fn uds_directory_is_cleaned_up_on_drop() {
        #[cfg(unix)]
        {
            let mut net = SockNet::uds();
            let _ = net.register("a");
            let dir = net.dir.clone().unwrap();
            assert!(dir.exists());
            drop(net);
            assert!(!dir.exists(), "socket dir must be removed");
        }
    }

    #[test]
    fn many_endpoints_fan_in_through_one_listener() {
        // A burst of dials larger than a listener backlog would hold:
        // the dial path interleaves accept passes.
        let mut net = SockNet::tcp();
        let hub = net.register("hub");
        let clients: Vec<Addr> = (0..200).map(|i| net.register(&format!("c{i}"))).collect();
        for &c in &clients {
            net.send(c, hub, Bytes::from_static(b"hi"));
        }
        settle(&mut net);
        let mut out = Vec::new();
        net.drain_into(hub, &mut out);
        assert_eq!(out.len(), 200);
        assert_eq!(net.stats().delivered, 200);
    }

    /// Drives a seeded random script — sends, broadcasts, a burst of
    /// more than `ACCEPTS_EVERY` dials, crashes and restarts across
    /// epochs, one oversized frame — and audits the ledger after every
    /// settle: nothing it called idle may hold bytes, an EOF or a dial.
    fn audit_random_script(mut net: SockNet, seed: u64) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let kind = net.kind();
        let mut rng = SmallRng::seed_from_u64(seed);
        let core: Vec<Addr> = (0..6).map(|i| net.register(&format!("e{i}"))).collect();
        let swarm: Vec<Addr> = (0..ACCEPTS_EVERY + 6)
            .map(|i| net.register(&format!("s{i}")))
            .collect();
        let mut oversized_at = None;
        for round in 0..80 {
            let live: Vec<Addr> = core.iter().copied().filter(|&a| !net.is_crashed(a)).collect();
            let pick = |rng: &mut SmallRng, from: &[Addr]| from[rng.gen_range(0..from.len())];
            match rng.gen_range(0..10u32) {
                0..=3 if live.len() >= 2 => {
                    let from = pick(&mut rng, &live);
                    let to = pick(&mut rng, &core);
                    if from != to {
                        let len = rng.gen_range(0..3000usize);
                        net.send(from, to, Bytes::from(vec![round as u8; len]));
                    }
                }
                4 | 5 if !live.is_empty() => {
                    let from = pick(&mut rng, &live);
                    net.broadcast(from, &core, Bytes::from(vec![7u8; rng.gen_range(1..200usize)]));
                }
                6 if live.len() > 2 => net.crash(pick(&mut rng, &live)),
                7 => {
                    let down: Vec<Addr> =
                        core.iter().copied().filter(|&a| net.is_crashed(a)).collect();
                    if !down.is_empty() {
                        net.restart(pick(&mut rng, &down));
                    }
                }
                8 => {
                    // Every swarm endpoint dials one core endpoint, with
                    // no reactor pass in between; sometimes the target
                    // crashes with dials still in its listener's backlog.
                    let to = pick(&mut rng, &core);
                    for &s in &swarm {
                        net.send(s, to, Bytes::from_static(b"burst"));
                    }
                    if live.len() > 2 && rng.gen_bool(0.5) {
                        net.crash(to);
                    }
                }
                9 if oversized_at.is_none() && round >= 40 && live.len() >= 2 => {
                    net.send(live[0], live[1], Bytes::from(vec![0u8; MAX_FRAME + 1]));
                    oversized_at = Some(round);
                }
                _ => {}
            }
            settle(&mut net);
            let found = audit_idle(&mut net);
            assert!(found.is_empty(), "{kind:?} round {round}: {found:#?}");
            if oversized_at.is_none() {
                assert_eq!(net.outstanding(), 0, "{kind:?} round {round}: {:?}", net.stats());
            }
            for &a in core.iter().chain(&swarm) {
                let _ = net.drain_closure_count(a);
            }
        }
        assert!(oversized_at.is_some(), "{kind:?}: the script must send the oversized frame");
    }

    #[test]
    fn ledger_is_exact_under_a_random_script_tcp() {
        audit_random_script(SockNet::tcp(), 0x1ED6_E700);
    }

    #[cfg(unix)]
    #[test]
    fn ledger_is_exact_under_a_random_script_uds() {
        audit_random_script(SockNet::uds(), 0x1ED6_E701);
    }

    #[test]
    fn idle_connections_cost_no_socket_calls() {
        for mut net in backends() {
            let eps: Vec<Addr> = (0..6).map(|i| net.register(&format!("e{i}"))).collect();
            for &a in &eps {
                for &b in &eps {
                    if a != b {
                        net.send(a, b, Bytes::from_static(b"establish"));
                    }
                }
            }
            settle(&mut net);
            let conns: usize = net.endpoints.iter().map(|ep| ep.out.len() + ep.inc.len()).sum();
            assert!(conns >= 60, "{:?}: {conns} sockets", net.kind());
            let before = calls();
            assert!(!Transport::step(&mut net));
            assert_eq!(calls(), before, "{:?}: an idle step touched a socket", net.kind());

            // One frame on an established connection: one write, at most
            // one read, and no read that finds nothing.
            let before = calls();
            net.send(eps[0], eps[1], Bytes::from_static(b"one frame"));
            settle(&mut net);
            let spent = calls();
            assert_eq!(spent.writes - before.writes, 1, "{:?}", net.kind());
            assert!(spent.reads - before.reads <= 1, "{:?}: {spent:?}", net.kind());
            assert_eq!(spent.accepts, before.accepts, "{:?}", net.kind());
            assert_eq!(spent.would_block, before.would_block, "{:?}", net.kind());
            assert_eq!(net.stats().delivered, 31);
        }
    }

    #[test]
    fn ledger_and_closures_stay_bounded_across_crash_restart_cycles() {
        for mut net in backends() {
            let a = net.register("a");
            let b = net.register("b");
            let s = net.register("s");
            net.send(a, b, Bytes::from_static(b"steady"));
            for cycle in 0..1000u32 {
                net.send(a, s, Bytes::from_static(b"to s"));
                net.send(s, a, Bytes::from_static(b"from s"));
                net.send(s, b, Bytes::from_static(b"from s"));
                settle(&mut net);
                net.crash(s);
                settle(&mut net);
                net.restart(s);
                if cycle % 100 == 0 {
                    assert!(audit_idle(&mut net).is_empty(), "{:?} cycle {cycle}", net.kind());
                }
            }
            settle(&mut net);
            // Left: a→b, plus nothing of s's 1000 dead epochs.
            assert_eq!(net.links.len(), 1, "{:?}: {:?}", net.kind(), net.links);
            for ep in &net.endpoints {
                assert!(
                    ep.closures_seen.len() <= 1,
                    "{:?}: {} closures remembered",
                    net.kind(),
                    ep.closures_seen.len()
                );
            }
            let st = net.stats();
            assert_eq!(st.delivered + st.dropped + st.dead_lettered, st.sent, "{st:?}");
            assert_eq!(st.closures, 2000, "{:?}: one closure per peer per epoch", net.kind());
        }
    }
}
