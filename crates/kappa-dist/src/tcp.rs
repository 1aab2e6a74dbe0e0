//! The TCP transport: the [`Comm`] trait over real sockets.
//!
//! Topology is a full mesh of duplex connections, one per unordered rank
//! pair, built deterministically: every rank owns a listening socket, and the
//! **lower** rank dials the **higher** rank's listener (with bounded retry and
//! exponential backoff), so each pair establishes exactly one connection.
//! Each direction of a connection carries [`Frame`]s (see
//! [`codec`](crate::codec)); a version-checked handshake
//! (`magic | PROTOCOL_VERSION | cluster size | rank`) runs on every
//! connection before any frame, so mismatched builds are rejected with a
//! diagnosed [`CommErrorKind::Handshake`] instead of garbled decodes.
//!
//! A background reader thread per peer drains the socket into an unbounded
//! in-process queue regardless of what the rank's main thread is doing — this
//! is what makes the deterministic collective schedules of [`Comm`]
//! deadlock-free over TCP: a writer can never be blocked by a peer that is
//! itself mid-send, because every peer always reads. Receives then follow the
//! exact [`LocalCluster`](crate::LocalCluster) semantics — per-peer
//! `SeqInbox` reassembly and MPI-style tag matching — with the same
//! timeout-guarded failure behaviour: a lost message or dead peer surfaces as
//! a [`CommError`] naming the stuck rank, peer and tag.
//!
//! Shutdown is graceful: dropping a [`TcpComm`] sends a `::bye` control frame
//! on every connection and half-closes it, so peers distinguish a drained,
//! clean exit from a crash (mid-frame EOF), then joins its reader threads.
//!
//! Two ways to stand a cluster up:
//!
//! * [`TcpCluster::run`] — in-process, one thread per rank over loopback
//!   sockets; the TCP twin of [`LocalCluster::run`](crate::LocalCluster::run)
//!   used by the conformance suite and benches.
//! * [`TcpComm::connect_worker`] — one OS process per rank: each worker binds
//!   its own listener and registers it with a rendezvous server
//!   ([`rendezvous_serve`], run by the launching parent), learns every peer's
//!   address, then builds the same mesh. This is the `--transport tcp` path
//!   of `kappa-partition`.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::codec::{
    encode_frame, read_frame, CodecError, Frame, Wire, FRAME_MAGIC, PROTOCOL_VERSION,
};
use crate::comm::{
    Comm, CommError, CommErrorKind, CommResult, CommStats, Message, SeqInbox, COALESCE_TAG,
    COLLECTIVE_TAGS,
};
use crate::fault::{Emission, FaultInjector, FaultPlan};

/// Control tag announcing a graceful shutdown; intercepted by the reader
/// threads, never delivered to `recv`. User tags must not start with `::`.
const BYE_TAG: &str = "::bye";

/// Configuration of a TCP cluster / worker endpoint.
#[derive(Clone, Copy, Debug)]
pub struct TcpClusterConfig {
    /// How long a `recv` waits before declaring the message lost (also the
    /// per-write timeout, so a send can never block forever either).
    pub recv_timeout: Duration,
    /// Overall deadline for establishing the mesh (dial retries and inbound
    /// accepts both give up past it).
    pub connect_timeout: Duration,
    /// Seeded fault injection applied in every rank's send path, below
    /// sequence numbering — exactly like the in-process backend.
    pub fault: FaultPlan,
}

impl Default for TcpClusterConfig {
    fn default() -> Self {
        TcpClusterConfig {
            recv_timeout: Duration::from_secs(60),
            connect_timeout: Duration::from_secs(10),
            fault: FaultPlan::default(),
        }
    }
}

/// An in-process TCP cluster: one thread per rank, real loopback sockets in
/// between. Exists so the conformance suite and the benches can drive the
/// genuine wire path without spawning OS processes; the multi-process path
/// shares every line of [`TcpComm`] below the rendezvous.
pub struct TcpCluster {
    ranks: usize,
    config: TcpClusterConfig,
}

impl TcpCluster {
    /// A cluster of `ranks` ranks with default configuration.
    pub fn new(ranks: usize) -> Self {
        TcpCluster::with_config(ranks, TcpClusterConfig::default())
    }

    /// A cluster with explicit timeout / fault-injection configuration.
    pub fn with_config(ranks: usize, config: TcpClusterConfig) -> Self {
        // kappa-lint: allow(dist-no-panic) -- construction-time misconfiguration on the launching process, before any rank exists; aborting here is the diagnosis
        assert!(ranks >= 1, "a cluster needs at least one rank");
        TcpCluster { ranks, config }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Runs `f` on every rank (one thread per rank, sockets in between) and
    /// returns the per-rank results in rank order. Mesh establishment
    /// failures panic (they are harness bugs, not runtime faults);
    /// communication failures are values, like [`LocalCluster::run`].
    ///
    /// [`LocalCluster::run`]: crate::LocalCluster::run
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut TcpComm) -> R + Sync,
    {
        let listeners: Vec<TcpListener> = (0..self.ranks)
            // kappa-lint: allow(dist-no-panic) -- in-process test-harness setup on the launching thread; a loopback bind failure is an environment bug, not a runtime fault (see the doc comment)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback listener"))
            .collect();
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            // kappa-lint: allow(dist-no-panic) -- same harness-setup path as the bind above
            .map(|l| l.local_addr().expect("listener address"))
            .collect();
        let config = self.config;
        std::thread::scope(|scope| {
            let f = &f;
            let addrs = &addrs;
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(rank, listener)| {
                    scope.spawn(move || {
                        let mut comm = TcpComm::establish(rank, addrs, listener, config)
                            // kappa-lint: allow(dist-no-panic) -- harness boundary by contract: establishment failures inside TcpCluster::run are harness bugs and abort the test run (see the doc comment); the multi-process path gets them as CommResult
                            .unwrap_or_else(|e| panic!("rank {rank}: mesh establishment: {e}"));
                        f(&mut comm)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(e) => std::panic::resume_unwind(e),
                })
                .collect()
        })
    }
}

/// One peer's outgoing half: a socket, or the in-memory loopback for
/// self-sends (a rank does not dial itself).
enum Link {
    Loopback(Sender<Result<Frame, CodecError>>),
    Remote(TcpStream),
}

/// One rank's endpoint in a TCP mesh.
pub struct TcpComm {
    rank: usize,
    ranks: usize,
    links: Vec<Link>,
    frame_rx: Vec<Receiver<Result<Frame, CodecError>>>,
    inboxes: Vec<SeqInbox<Frame>>,
    send_seqs: Vec<u64>,
    injector: FaultInjector<Frame>,
    recv_timeout: Duration,
    readers: Vec<JoinHandle<()>>,
    /// `Some` while a coalesce scope is open: per-destination buffers of
    /// posted-but-unflushed frames.
    pending: Option<Vec<Vec<Frame>>>,
    stats: CommStats,
}

impl TcpComm {
    /// Builds the full mesh for `rank`: dials every higher rank's listener
    /// (bounded retry + exponential backoff), accepts one connection from
    /// every lower rank, handshakes each connection both ways, and spawns the
    /// per-peer reader threads.
    pub fn establish(
        rank: usize,
        addrs: &[SocketAddr],
        listener: TcpListener,
        config: TcpClusterConfig,
    ) -> CommResult<TcpComm> {
        let ranks = addrs.len();
        let err = |peer: usize, kind: CommErrorKind| CommError {
            rank,
            peer,
            tag: "::handshake".to_string(),
            kind,
        };
        if rank >= ranks {
            return Err(err(
                rank,
                CommErrorKind::Protocol(format!("rank {rank} out of range for {ranks} ranks")),
            ));
        }
        // kappa-lint: allow(wall-clock) -- mesh-establishment deadline only; the clock bounds how long we dial and accept, never what a result contains
        let deadline = Instant::now() + config.connect_timeout;
        let mut streams: Vec<Option<TcpStream>> = (0..ranks).map(|_| None).collect();
        // Dial upwards: the lower rank of each pair is the connector.
        for peer in rank + 1..ranks {
            let stream = connect_with_retry(addrs[peer], deadline)
                .map_err(|e| err(peer, CommErrorKind::Io(e.to_string())))?;
            send_hello(&stream, rank, ranks)
                .map_err(|e| err(peer, CommErrorKind::Io(e.to_string())))?;
            let claimed = read_hello(&stream, ranks)
                .map_err(|detail| err(peer, CommErrorKind::Handshake(detail)))?;
            if claimed != peer {
                return Err(err(
                    peer,
                    CommErrorKind::Handshake(format!(
                        "dialed rank {peer} but the listener answered as rank {claimed}"
                    )),
                ));
            }
            streams[peer] = Some(stream);
        }
        // Accept downwards: one inbound connection per lower rank, in
        // whatever order they arrive — the handshake says who is who.
        for _ in 0..rank {
            let stream = accept_with_deadline(&listener, deadline)
                .map_err(|e| err(rank, CommErrorKind::Io(e.to_string())))?;
            let peer = read_hello(&stream, ranks)
                .map_err(|detail| err(rank, CommErrorKind::Handshake(detail)))?;
            if peer >= rank {
                return Err(err(
                    peer,
                    CommErrorKind::Handshake(format!(
                        "rank {peer} dialed rank {rank}: only lower ranks connect upwards"
                    )),
                ));
            }
            if streams[peer].is_some() {
                return Err(err(
                    peer,
                    CommErrorKind::Handshake(format!("duplicate connection from rank {peer}")),
                ));
            }
            send_hello(&stream, rank, ranks)
                .map_err(|e| err(peer, CommErrorKind::Io(e.to_string())))?;
            streams[peer] = Some(stream);
        }
        TcpComm::from_mesh(rank, streams, config)
    }

    /// The multi-process entry point: binds this worker's listener, registers
    /// it with the rendezvous server at `rendezvous` (the launching parent
    /// running [`rendezvous_serve`]), learns every peer's listener address,
    /// then builds the mesh exactly like [`TcpComm::establish`].
    pub fn connect_worker(
        rendezvous: &str,
        rank: usize,
        ranks: usize,
        config: TcpClusterConfig,
    ) -> CommResult<TcpComm> {
        let err = |kind: CommErrorKind| CommError {
            rank,
            peer: 0,
            tag: "::rendezvous".to_string(),
            kind,
        };
        let addr: SocketAddr = rendezvous.parse().map_err(|e| {
            err(CommErrorKind::Handshake(format!(
                "bad rendezvous address: {e}"
            )))
        })?;
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| err(CommErrorKind::Io(e.to_string())))?;
        let port = listener
            .local_addr()
            .map_err(|e| err(CommErrorKind::Io(e.to_string())))?
            .port();
        // kappa-lint: allow(wall-clock) -- rendezvous-connect deadline only, same as in establish
        let deadline = Instant::now() + config.connect_timeout;
        let stream = connect_with_retry(addr, deadline)
            .map_err(|e| err(CommErrorKind::Io(e.to_string())))?;
        // Registration: the hello preamble plus this worker's listener port.
        let mut msg = hello_bytes(rank, ranks);
        (port as u16).encode(&mut msg);
        write_all(&stream, &msg).map_err(|e| err(CommErrorKind::Io(e.to_string())))?;
        // Reply: preamble (sanity) + the full port map.
        read_preamble(&stream, ranks).map_err(|d| err(CommErrorKind::Handshake(d)))?;
        let mut len_buf = [0u8; 8];
        read_exact(&stream, &mut len_buf).map_err(|e| err(CommErrorKind::Io(e.to_string())))?;
        let count = u64::from_le_bytes(len_buf) as usize;
        if count != ranks {
            return Err(err(CommErrorKind::Handshake(format!(
                "rendezvous published {count} peers for a {ranks}-rank cluster"
            ))));
        }
        let mut ports = vec![0u8; 2 * ranks];
        read_exact(&stream, &mut ports).map_err(|e| err(CommErrorKind::Io(e.to_string())))?;
        drop(stream);
        let addrs: Vec<SocketAddr> = ports
            .chunks_exact(2)
            .map(|c| {
                let p = u16::from_le_bytes([c[0], c[1]]);
                SocketAddr::from(([127, 0, 0, 1], p))
            })
            .collect();
        TcpComm::establish(rank, &addrs, listener, config)
    }

    /// Wraps an established mesh: socket options, loopback link, reader
    /// threads.
    fn from_mesh(
        rank: usize,
        streams: Vec<Option<TcpStream>>,
        config: TcpClusterConfig,
    ) -> CommResult<TcpComm> {
        let ranks = streams.len();
        let io_err = |peer: usize, e: std::io::Error| CommError {
            rank,
            peer,
            tag: "::handshake".to_string(),
            kind: CommErrorKind::Io(e.to_string()),
        };
        let mut links = Vec::with_capacity(ranks);
        let mut frame_rx = Vec::with_capacity(ranks);
        let mut readers = Vec::new();
        for (peer, slot) in streams.into_iter().enumerate() {
            let (tx, rx) = channel();
            frame_rx.push(rx);
            match slot {
                None => {
                    if peer != rank {
                        return Err(CommError {
                            rank,
                            peer,
                            tag: "::handshake".to_string(),
                            kind: CommErrorKind::Protocol(format!(
                                "mesh is missing the connection to rank {peer}"
                            )),
                        });
                    }
                    links.push(Link::Loopback(tx));
                }
                Some(stream) => {
                    stream.set_nodelay(true).map_err(|e| io_err(peer, e))?;
                    stream
                        .set_write_timeout(Some(config.recv_timeout))
                        .map_err(|e| io_err(peer, e))?;
                    let reader = stream.try_clone().map_err(|e| io_err(peer, e))?;
                    readers.push(std::thread::spawn(move || reader_loop(reader, tx)));
                    links.push(Link::Remote(stream));
                }
            }
        }
        Ok(TcpComm {
            rank,
            ranks,
            links,
            frame_rx,
            inboxes: (0..ranks).map(|_| SeqInbox::new()).collect(),
            send_seqs: vec![0; ranks],
            injector: FaultInjector::new(config.fault, rank, ranks),
            recv_timeout: config.recv_timeout,
            readers,
            pending: None,
            stats: CommStats::default(),
        })
    }

    fn error(&self, peer: usize, tag: &str, kind: CommErrorKind) -> CommError {
        CommError {
            rank: self.rank,
            peer,
            tag: tag.to_string(),
            kind,
        }
    }

    /// Fault-injector dispatch + socket emission of one frame — the shared
    /// tail of `send` and the coalesce flush.
    fn emit(&mut self, to: usize, frame: Frame, tag: &'static str) -> CommResult<()> {
        let link = &self.links[to];
        let mut failure: Option<CommErrorKind> = None;
        self.injector.dispatch(
            to,
            frame,
            |f| f.clone(),
            // Only a primary-frame failure is a send error: the peer may
            // close its socket right after consuming the real message,
            // bouncing a trailing duplicate twin or a late-released reorder
            // frame without any harm done.
            |f, emission| {
                if failure.is_some() {
                    return;
                }
                match link {
                    Link::Loopback(tx) => {
                        // Own inbox receiver is owned by self — cannot be gone.
                        let _ = tx.send(Ok(f));
                    }
                    Link::Remote(stream) => match encode_frame(f.src, f.seq, &f.tag, &f.payload) {
                        Ok(bytes) => {
                            if let Err(e) = write_all(stream, &bytes) {
                                if emission == Emission::Primary {
                                    failure = Some(CommErrorKind::Io(e.to_string()));
                                }
                            }
                        }
                        Err(e) => {
                            if emission == Emission::Primary {
                                failure = Some(CommErrorKind::Codec(e.0));
                            }
                        }
                    },
                }
            },
        );
        match failure {
            Some(kind) => Err(self.error(to, tag, kind)),
            None => Ok(()),
        }
    }

    /// Feeds one raw arrival into the per-peer inbox, unpacking coalesced
    /// packs back into the ordinary per-message stream. Inner frames carry
    /// their own stream sequence numbers, so dedup and reordering of whole
    /// packs heal at the message level.
    fn accept_frame(&mut self, from: usize, frame: Frame) -> Result<(), CodecError> {
        if frame.tag == COALESCE_TAG {
            let inner: Vec<(String, u64, Vec<u8>)> = Wire::from_bytes(&frame.payload)?;
            for (tag, seq, payload) in inner {
                self.inboxes[from].accept(
                    seq,
                    Frame {
                        src: frame.src,
                        seq,
                        tag,
                        payload,
                    },
                );
            }
            return Ok(());
        }
        let seq = frame.seq;
        self.inboxes[from].accept(seq, frame);
        Ok(())
    }
}

/// Encoded size of a frame on the wire: fixed header (22 bytes) + tag +
/// payload + checksum. Used for the byte counters only.
fn frame_wire_bytes(tag_len: usize, payload_len: usize) -> u64 {
    (22 + tag_len + payload_len + 4) as u64
}

impl Comm for TcpComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn num_ranks(&self) -> usize {
        self.ranks
    }

    fn send<T: Message>(&mut self, to: usize, tag: &'static str, value: T) -> CommResult<()> {
        // The `::` namespace belongs to the runtime: the collectives' own
        // tags pass, anything else is a user tag trespassing on control
        // traffic. The static side of this contract is the `tag-reserved`
        // lint rule.
        debug_assert!(
            !tag.starts_with("::") || COLLECTIVE_TAGS.contains(&tag),
            "tags starting with :: are reserved for the runtime"
        );
        let seq = self.send_seqs[to];
        self.send_seqs[to] += 1;
        let frame = Frame {
            src: self.rank as u32,
            seq,
            tag: tag.to_string(),
            payload: value.to_bytes(),
        };
        // Frames are counted once per primary emission, before fault
        // injection — the count is a property of the schedule, not of the
        // injected fault pattern.
        self.stats
            .note_frame(frame_wire_bytes(tag.len(), frame.payload.len()));
        self.emit(to, frame, tag)
    }

    fn isend<T: Message>(&mut self, to: usize, tag: &'static str, value: T) -> CommResult<()> {
        if self.pending.is_some() {
            debug_assert!(
                !tag.starts_with("::") || COLLECTIVE_TAGS.contains(&tag),
                "tags starting with :: are reserved for the runtime"
            );
            let seq = self.send_seqs[to];
            self.send_seqs[to] += 1;
            let frame = Frame {
                src: self.rank as u32,
                seq,
                tag: tag.to_string(),
                payload: value.to_bytes(),
            };
            // kappa-lint: allow(dist-no-panic) -- guarded by the is_some check above
            self.pending.as_mut().expect("scope open")[to].push(frame);
            Ok(())
        } else {
            self.send(to, tag, value)
        }
    }

    fn coalesce_begin(&mut self) {
        debug_assert!(self.pending.is_none(), "coalesce scopes do not nest");
        self.pending = Some((0..self.ranks).map(|_| Vec::new()).collect());
    }

    fn coalesce_flush(&mut self) -> CommResult<()> {
        let Some(pending) = self.pending.take() else {
            return Ok(());
        };
        for (to, buf) in pending.into_iter().enumerate() {
            if buf.is_empty() {
                continue;
            }
            // One wire frame per peer: the inner (tag, seq, payload) triples
            // ride as the pack's payload, under the first inner seq. That
            // seq never reaches the inbox (the drain unpacks before
            // `accept`), so the inner frames' own seqs keep the stream
            // gapless.
            let first_seq = buf[0].seq;
            let inner: Vec<(String, u64, Vec<u8>)> =
                buf.into_iter().map(|f| (f.tag, f.seq, f.payload)).collect();
            let pack = Frame {
                src: self.rank as u32,
                seq: first_seq,
                tag: COALESCE_TAG.to_string(),
                payload: inner.to_bytes(),
            };
            self.stats
                .note_frame(frame_wire_bytes(COALESCE_TAG.len(), pack.payload.len()));
            self.emit(to, pack, COALESCE_TAG)?;
        }
        Ok(())
    }

    fn recv<T: Message>(&mut self, from: usize, tag: &'static str) -> CommResult<T> {
        // kappa-lint: allow(wall-clock) -- timeout bookkeeping only; the clock decides when to give up, never what a result contains
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            if let Some(frame) = self.inboxes[from].take(|f| f.tag == tag) {
                return T::from_bytes(&frame.payload)
                    .map_err(|e| self.error(from, tag, CommErrorKind::Codec(e.0)));
            }
            // kappa-lint: allow(wall-clock) -- remaining-timeout arithmetic, same as above
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(self.error(
                    from,
                    tag,
                    CommErrorKind::Timeout {
                        waited: self.recv_timeout,
                    },
                ));
            }
            match self.frame_rx[from].recv_timeout(remaining) {
                Ok(Ok(frame)) => {
                    self.accept_frame(from, frame)
                        .map_err(|e| self.error(from, tag, CommErrorKind::Codec(e.0)))?;
                }
                Ok(Err(codec)) => {
                    return Err(self.error(from, tag, CommErrorKind::Codec(codec.0)));
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(self.error(
                        from,
                        tag,
                        CommErrorKind::Timeout {
                            waited: self.recv_timeout,
                        },
                    ));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(self.error(from, tag, CommErrorKind::Disconnected));
                }
            }
        }
    }

    fn try_recv<T: Message>(&mut self, from: usize, tag: &'static str) -> CommResult<Option<T>> {
        loop {
            match self.frame_rx[from].try_recv() {
                Ok(Ok(frame)) => {
                    self.accept_frame(from, frame)
                        .map_err(|e| self.error(from, tag, CommErrorKind::Codec(e.0)))?;
                }
                Ok(Err(codec)) => {
                    return Err(self.error(from, tag, CommErrorKind::Codec(codec.0)));
                }
                // A closed channel is not an error here: frames already
                // drained into the inbox must still be claimable.
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        match self.inboxes[from].take(|f| f.tag == tag) {
            Some(frame) => T::from_bytes(&frame.payload)
                .map(Some)
                .map_err(|e| self.error(from, tag, CommErrorKind::Codec(e.0))),
            None => Ok(None),
        }
    }

    fn stats(&self) -> Option<&CommStats> {
        Some(&self.stats)
    }

    fn stats_mut(&mut self) -> Option<&mut CommStats> {
        Some(&mut self.stats)
    }
}

impl Drop for TcpComm {
    /// Graceful drain: announce `::bye` on every connection so peers see a
    /// clean shutdown (not a mid-frame cut), half-close the write side, and
    /// join the reader threads, which exit on the peer's own bye or EOF.
    ///
    /// The read side stays open on purpose: a peer may still have frames in
    /// flight (sends nobody will receive, or its own bye). Closing the read
    /// half makes the kernel answer those bytes with a reset, which fails the
    /// peer's pending writes with a broken pipe. Keeping it open lets the
    /// reader drain them until the peer says bye.
    fn drop(&mut self) {
        for (to, link) in self.links.iter().enumerate() {
            if let Link::Remote(stream) = link {
                // Infallible in practice (short tag, empty payload); a drop
                // path has nowhere to report anyway, so best-effort it is.
                if let Ok(bye) = encode_frame(self.rank as u32, self.send_seqs[to], BYE_TAG, &[]) {
                    let _ = write_all(stream, &bye);
                }
                let _ = stream.shutdown(Shutdown::Write);
            }
        }
        for handle in self.readers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Drains one socket into the per-peer queue until bye, EOF, or error. A
/// decode failure is forwarded as a diagnosed value (the receive path turns
/// it into [`CommErrorKind::Codec`]) and ends the stream — after corruption
/// the frame boundary is unknown.
fn reader_loop(mut stream: TcpStream, tx: Sender<Result<Frame, CodecError>>) {
    loop {
        match read_frame(&mut stream) {
            Ok(Some(frame)) => {
                if frame.tag == BYE_TAG {
                    return;
                }
                if tx.send(Ok(frame)).is_err() {
                    return; // local endpoint dropped
                }
            }
            Ok(None) => return, // clean EOF at a frame boundary
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    }
}

/// Dials `addr` until `deadline`, with exponential backoff between attempts —
/// the peer's listener may not be up yet during worker start-up.
fn connect_with_retry(addr: SocketAddr, deadline: Instant) -> std::io::Result<TcpStream> {
    let mut backoff = Duration::from_millis(1);
    loop {
        // kappa-lint: allow(wall-clock) -- dial-retry deadline arithmetic; establishment timing only
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("connect to {addr} timed out"),
            ));
        }
        match TcpStream::connect_timeout(&addr, remaining) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                // kappa-lint: allow(wall-clock) -- backoff-versus-deadline check; establishment timing only
                if deadline.saturating_duration_since(Instant::now()) <= backoff {
                    return Err(e);
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(250));
            }
        }
    }
}

/// Accepts one connection, giving up at `deadline` (a missing peer must not
/// hang establishment forever).
fn accept_with_deadline(listener: &TcpListener, deadline: Instant) -> std::io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // kappa-lint: allow(wall-clock) -- accept-deadline check; establishment timing only
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "timed out waiting for peer connections",
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// The handshake preamble: `magic | version | cluster size | rank`.
fn hello_bytes(rank: usize, ranks: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(14);
    FRAME_MAGIC.encode(&mut buf);
    PROTOCOL_VERSION.encode(&mut buf);
    (ranks as u32).encode(&mut buf);
    (rank as u32).encode(&mut buf);
    buf
}

fn send_hello(stream: &TcpStream, rank: usize, ranks: usize) -> std::io::Result<()> {
    write_all(stream, &hello_bytes(rank, ranks))
}

/// Reads and validates `magic | version | cluster size` from a preamble.
fn read_preamble(stream: &TcpStream, expected_ranks: usize) -> Result<(), String> {
    let mut buf = [0u8; 10];
    read_exact(stream, &mut buf).map_err(|e| format!("preamble read: {e}"))?;
    let magic = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if magic != FRAME_MAGIC {
        return Err(format!(
            "bad handshake magic {magic:#010x} — not a kappa-dist peer"
        ));
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "protocol version mismatch: peer speaks v{version}, this build speaks v{PROTOCOL_VERSION}"
        ));
    }
    let ranks = u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]) as usize;
    if ranks != expected_ranks {
        return Err(format!(
            "cluster size mismatch: peer expects {ranks} ranks, this side {expected_ranks}"
        ));
    }
    Ok(())
}

/// Reads a full hello and returns the peer's claimed rank.
fn read_hello(stream: &TcpStream, expected_ranks: usize) -> Result<usize, String> {
    read_preamble(stream, expected_ranks)?;
    let mut buf = [0u8; 4];
    read_exact(stream, &mut buf).map_err(|e| format!("preamble read: {e}"))?;
    let rank = u32::from_le_bytes(buf) as usize;
    if rank >= expected_ranks {
        return Err(format!("claimed rank {rank} out of range"));
    }
    Ok(rank)
}

fn write_all(stream: &TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    let mut w = stream;
    w.write_all(bytes)
}

fn read_exact(stream: &TcpStream, buf: &mut [u8]) -> std::io::Result<()> {
    let mut r = stream;
    r.read_exact(buf)
}

/// The parent side of the worker rendezvous: accepts one registration per
/// rank (`hello | listener port`), and once all `ranks` workers are in,
/// publishes the full port map to each. Returns after every reply is written.
pub fn rendezvous_serve(listener: &TcpListener, ranks: usize) -> std::io::Result<()> {
    let bad = |detail: String| std::io::Error::new(std::io::ErrorKind::InvalidData, detail);
    let mut registered: Vec<Option<(TcpStream, u16)>> = (0..ranks).map(|_| None).collect();
    for _ in 0..ranks {
        let (stream, _) = listener.accept()?;
        let rank = read_hello(&stream, ranks).map_err(bad)?;
        let mut port_buf = [0u8; 2];
        read_exact(&stream, &mut port_buf)?;
        let port = u16::from_le_bytes(port_buf);
        if registered[rank].is_some() {
            return Err(bad(format!("rank {rank} registered twice")));
        }
        registered[rank] = Some((stream, port));
    }
    let ports: Vec<u16> = registered
        .iter()
        // kappa-lint: allow(dist-no-panic) -- the registration loop above either fills every slot or returns an error first
        .map(|slot| slot.as_ref().expect("all ranks registered").1)
        .collect();
    let mut reply = Vec::with_capacity(10 + 8 + 2 * ranks);
    FRAME_MAGIC.encode(&mut reply);
    PROTOCOL_VERSION.encode(&mut reply);
    (ranks as u32).encode(&mut reply);
    (ports.len() as u64).encode(&mut reply);
    for port in &ports {
        reply.extend_from_slice(&port.to_le_bytes());
    }
    for slot in registered {
        // kappa-lint: allow(dist-no-panic) -- same registration invariant as above
        let (stream, _) = slot.expect("all ranks registered");
        write_all(&stream, &reply)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(ranks: usize) -> TcpCluster {
        TcpCluster::with_config(
            ranks,
            TcpClusterConfig {
                recv_timeout: Duration::from_secs(10),
                connect_timeout: Duration::from_secs(10),
                fault: FaultPlan::default(),
            },
        )
    }

    #[test]
    fn point_to_point_round_trip_over_sockets() {
        let results = cluster(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, "ping", 41u64).unwrap();
                comm.recv::<u64>(1, "pong").unwrap()
            } else {
                let x = comm.recv::<u64>(0, "ping").unwrap();
                comm.send(0, "pong", x + 1).unwrap();
                x
            }
        });
        assert_eq!(results, vec![42, 41]);
    }

    #[test]
    fn collectives_agree_over_sockets() {
        let results = cluster(4).run(|comm| {
            let me = comm.rank() as u64;
            let sum = comm.allreduce_sum(me + 1).unwrap();
            let all = comm.allgather(me).unwrap();
            let bc = comm
                .broadcast(2, (comm.rank() == 2).then(|| String::from("hello")))
                .unwrap();
            comm.barrier().unwrap();
            (sum, all, bc)
        });
        for (sum, all, bc) in results {
            assert_eq!(sum, 10);
            assert_eq!(all, vec![0, 1, 2, 3]);
            assert_eq!(bc, "hello");
        }
    }

    #[test]
    fn single_rank_needs_no_sockets() {
        let results = cluster(1).run(|comm| {
            comm.barrier().unwrap();
            comm.allgather(5u32).unwrap()
        });
        assert_eq!(results, vec![vec![5]]);
    }

    #[test]
    fn dropped_frame_surfaces_as_diagnosed_timeout() {
        let cluster = TcpCluster::with_config(
            2,
            TcpClusterConfig {
                recv_timeout: Duration::from_millis(300),
                connect_timeout: Duration::from_secs(10),
                fault: FaultPlan::drop_nth(0, 1, 0),
            },
        );
        let started = Instant::now();
        let results = cluster.run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, "payload", 7u64).map(|_| 0)
            } else {
                comm.recv::<u64>(0, "payload")
            }
        });
        let err = results[1].clone().unwrap_err();
        assert_eq!((err.rank, err.peer, err.tag.as_str()), (1, 0, "payload"));
        // Rank 0 drains and closes after its send, so the diagnosis may be
        // Disconnected instead of Timeout; both name the lost message.
        assert!(matches!(
            err.kind,
            CommErrorKind::Timeout { .. } | CommErrorKind::Disconnected
        ));
        assert!(started.elapsed() < Duration::from_secs(5), "must not hang");
    }

    #[test]
    fn duplicates_and_reorders_are_healed_by_the_seq_inbox() {
        let cluster = TcpCluster::with_config(
            2,
            TcpClusterConfig {
                recv_timeout: Duration::from_secs(10),
                connect_timeout: Duration::from_secs(10),
                fault: FaultPlan::seeded(11, 0.0, 0.3, 0.0, 0.3),
            },
        );
        let results = cluster.run(|comm| {
            if comm.rank() == 0 {
                for v in 0..40u64 {
                    comm.send(1, "seq", v).unwrap();
                }
                Vec::new()
            } else {
                (0..30)
                    .map(|_| comm.recv::<u64>(0, "seq").unwrap())
                    .collect()
            }
        });
        assert_eq!(results[1], (0..30).collect::<Vec<u64>>());
    }

    #[test]
    fn wrong_payload_type_is_a_codec_error() {
        let results = cluster(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, "x", vec![1u64, 2, 3]).map(|_| ())
            } else {
                comm.recv::<String>(0, "x").map(|_| ())
            }
        });
        let err = results[1].clone().unwrap_err();
        assert!(
            matches!(err.kind, CommErrorKind::Codec(_)),
            "got {:?}",
            err.kind
        );
    }

    #[test]
    fn coalesced_isends_cross_real_sockets_as_one_frame_per_peer() {
        let results = cluster(3).run(|comm| {
            let me = comm.rank();
            let before = comm.stats().unwrap().total.frames;
            comm.coalesce(|c| {
                for dst in 0..c.num_ranks() {
                    if dst != me {
                        c.isend(dst, "coal-a", me as u64 * 10)?;
                        c.isend(dst, "coal-b", vec![me as u64; 3])?;
                    }
                }
                Ok(())
            })
            .unwrap();
            let frames = comm.stats().unwrap().total.frames - before;
            let mut got = Vec::new();
            for src in 0..comm.num_ranks() {
                if src != me {
                    got.push(comm.recv::<u64>(src, "coal-a").unwrap());
                    assert_eq!(
                        comm.recv::<Vec<u64>>(src, "coal-b").unwrap(),
                        vec![src as u64; 3]
                    );
                }
            }
            (frames, got)
        });
        for (me, (frames, got)) in results.into_iter().enumerate() {
            assert_eq!(frames, 2, "rank {me} sent one pack per peer");
            let expected: Vec<u64> = (0..3).filter(|&s| s != me).map(|s| s as u64 * 10).collect();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn coalesced_packs_survive_socket_level_faults() {
        // Duplicate + reorder faults hit whole packs; the per-message seq
        // numbers inside reassemble the stream exactly once, in order.
        let cluster = TcpCluster::with_config(
            2,
            TcpClusterConfig {
                recv_timeout: Duration::from_secs(10),
                connect_timeout: Duration::from_secs(10),
                fault: FaultPlan::seeded(23, 0.0, 0.4, 0.0, 0.4),
            },
        );
        let results = cluster.run(|comm| {
            if comm.rank() == 0 {
                for round in 0..10u64 {
                    comm.coalesce(|c| {
                        c.isend(1, "pk", round * 2)?;
                        c.isend(1, "pk", round * 2 + 1)
                    })
                    .unwrap();
                }
                for v in 0..10u64 {
                    // kappa-lint: allow(tag-pairing) -- deliberately unreceived filler: it only pushes held packs out of the reorder window
                    comm.send(1, "tail", v).unwrap();
                }
                Vec::new()
            } else {
                (0..20)
                    .map(|_| comm.recv::<u64>(0, "pk").unwrap())
                    .collect()
            }
        });
        assert_eq!(results[1], (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn try_recv_drains_the_reader_queue_without_blocking() {
        let results = cluster(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, "go", ()).unwrap();
                0
            } else {
                // kappa-lint: allow(tag-pairing) -- the mismatch is the point: the probe must report "not yet" forever, never block
                assert_eq!(comm.try_recv::<u64>(0, "missing").unwrap(), None);
                comm.recv::<()>(0, "go").unwrap();
                loop {
                    // "go" has arrived; nothing else ever will on "missing",
                    // and the probe must keep returning None, not block.
                    if comm.try_recv::<u64>(0, "missing").unwrap().is_none() {
                        break;
                    }
                }
                1
            }
        });
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn version_mismatch_is_rejected_before_any_frame() {
        // A fake peer speaking a future protocol version must be turned away
        // with a Handshake error, not a garbled decode later.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut bad = Vec::new();
            FRAME_MAGIC.encode(&mut bad);
            (PROTOCOL_VERSION + 1).encode(&mut bad);
            2u32.encode(&mut bad);
            0u32.encode(&mut bad);
            write_all(&stream, &bad).unwrap();
            // Hold the connection open until the other side decides.
            let mut buf = [0u8; 1];
            let _ = read_exact(&stream, &mut buf);
        });
        let err = TcpComm::establish(
            1,
            &[SocketAddr::from(([127, 0, 0, 1], 1)), addr],
            {
                // Rank 1 accepts from rank 0 on its own listener; reuse the
                // one the fake peer dialed.
                listener
            },
            TcpClusterConfig {
                connect_timeout: Duration::from_secs(5),
                ..TcpClusterConfig::default()
            },
        )
        .err()
        .expect("establishment must fail");
        assert!(
            matches!(err.kind, CommErrorKind::Handshake(_)),
            "got {:?}",
            err.kind
        );
        fake.join().unwrap();
    }

    #[test]
    fn rendezvous_builds_a_working_mesh() {
        // Parent thread serves the rendezvous; two worker threads build the
        // mesh through it — the in-process twin of the multi-process path.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || rendezvous_serve(&listener, 2).unwrap());
        let workers: Vec<_> = (0..2)
            .map(|rank| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut comm =
                        TcpComm::connect_worker(&addr, rank, 2, TcpClusterConfig::default())
                            .unwrap();
                    comm.allreduce_sum(comm.rank() as u64 + 1).unwrap()
                })
            })
            .collect();
        server.join().unwrap();
        for w in workers {
            assert_eq!(w.join().unwrap(), 3);
        }
    }
}
