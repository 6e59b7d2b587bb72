//! The TCP front door: a single-threaded, nonblocking, readiness-driven
//! event loop that speaks [`EMWIRE1`](crate::protocol) and bridges onto
//! the in-process [`Server`] front door.
//!
//! No async runtime: the loop multiplexes plain [`std::net`] sockets in
//! nonblocking mode and sleeps in one platform wait. On Linux that wait
//! is `epoll` with an `eventfd` waker: the listener and every connection
//! are registered level-triggered, a connection asks for reads only while
//! it may be read (not backpressured, not draining, no EOF seen) and for
//! writes only while its outbox holds unflushed bytes, and the wait times
//! out at the earliest idle-reap or drain deadline — so an idle door
//! makes no passes at all. Other platforms nap 1 ms at a time on a
//! wakeup channel instead. After every wait the loop accepts, then
//! services every connection.
//!
//! Batch and step submissions go through [`Server::try_submit`] /
//! [`TrackerSession::submit_step`]; their tickets park in per-connection
//! tables and complete on a later loop pass. A ticket's `on_ready`
//! callback pokes the waker, so a response is flushed as soon as it is
//! ready.
//!
//! Robustness contract (exercised by the crate's tests):
//!
//! * corrupt, malformed, truncated or oversized frames produce an
//!   `Error` reply and a metrics tick — never a panic, never a torn-down
//!   connection (oversized payloads are skipped unbuffered);
//! * a client disconnecting with responses in flight just drops its
//!   tickets and sessions — the serving runtime completes the abandoned
//!   responders through its `Terminated` path and the batcher never
//!   wedges;
//! * a client that half-closes (shuts down its write side after sending)
//!   still gets every reply: the door stops reading at EOF but keeps the
//!   connection until its tickets complete and its outbox flushes, a
//!   write fails, or it idles out;
//! * backpressure: a connection whose write backlog exceeds the
//!   configured bound stops being read until the backlog drains, letting
//!   TCP flow control push back on the client;
//! * idle and slow-client timeouts reap connections that make no
//!   progress; a graceful shutdown drains pending responses first.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(test)]
use std::sync::atomic::AtomicU64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eigenmaps_serve::{
    ReapReason, ServeMetrics, ServeRequest, Server, StepTicket, Ticket, TraceExemplar,
    TrackerSession, WireErrorKind,
};

use crate::protocol::{
    status_of, FrameBuffer, Request, Response, WireError, WireExemplar, WireMap, WireStage,
    WireStatus, WireTenantTrace, WireTrace, WireTraceEvent, MAX_FRAME_BYTES,
};
use crate::sys::{Interest, Poller, Waker};

/// Tunables for the event loop. [`NetConfig::default`] is sized for
/// tests and small fleets; production deployments mostly raise
/// `idle_timeout`. There is no poll interval: the loop sleeps until a
/// socket is ready, a ticket completes or one of the deadlines below
/// passes (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Largest record (length prefix excluded) the door will buffer;
    /// larger frames are skipped and answered with `BadFrame`.
    pub max_frame_bytes: usize,
    /// Connections with no read/write progress for this long are
    /// dropped — covers both idle clients and slow readers sitting on a
    /// full write backlog. The loop wakes for the earliest such
    /// deadline.
    pub idle_timeout: Duration,
    /// Soft bound on a connection's unflushed response bytes; past it
    /// the door stops reading from that connection until the backlog
    /// drains.
    pub write_backlog_limit: usize,
    /// On shutdown, how long to keep flushing in-flight responses
    /// before dropping the remaining connections.
    pub drain_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_frame_bytes: MAX_FRAME_BYTES,
            idle_timeout: Duration::from_secs(60),
            write_backlog_limit: 4 * 1024 * 1024,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// A cheap handle for stopping a running [`NetServer`] from another
/// thread.
#[derive(Clone)]
pub struct DoorHandle {
    stop: Arc<AtomicBool>,
    waker: Waker,
}

impl DoorHandle {
    /// Requests a graceful shutdown: the door stops accepting, drains
    /// pending responses (bounded by [`NetConfig::drain_timeout`]) and
    /// returns from [`NetServer::run`].
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
    }
}

/// One accepted connection and everything in flight on it.
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    /// Encoded, unflushed response bytes; `written` is the flush cursor.
    outbox: Vec<u8>,
    written: usize,
    /// Batch tickets keyed by request correlation id.
    batches: HashMap<u64, Ticket>,
    /// Step tickets keyed by request correlation id, with the session id
    /// they belong to (for error reporting only).
    steps: HashMap<u64, StepTicket>,
    /// Open sessions keyed by the door-assigned session id.
    sessions: HashMap<u64, TrackerSession>,
    next_session: u64,
    /// Last moment this connection made read or write progress.
    last_progress: Instant,
    /// The peer shut down its write side: no more reads, but replies
    /// still owed are delivered.
    eof: bool,
    /// What the poller currently reports for this connection.
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream, max_frame: usize, now: Instant) -> Self {
        Conn {
            stream,
            frames: FrameBuffer::new(max_frame),
            outbox: Vec::new(),
            written: 0,
            batches: HashMap::new(),
            steps: HashMap::new(),
            sessions: HashMap::new(),
            next_session: 1,
            last_progress: now,
            eof: false,
            interest: Interest::READ,
        }
    }

    fn backlog(&self) -> usize {
        self.outbox.len() - self.written
    }

    fn pending(&self) -> usize {
        self.batches.len() + self.steps.len()
    }

    /// Whether the next pass may read: not draining, no EOF seen and the
    /// write backlog within its bound.
    fn readable(&self, draining: bool, config: &NetConfig) -> bool {
        !draining && !self.eof && self.backlog() <= config.write_backlog_limit
    }

    fn enqueue(&mut self, frame: Vec<u8>, metrics: &ServeMetrics) {
        metrics.record_wire_frame_out();
        metrics.record_wire_bytes_out(frame.len() as u64);
        if self.written > 0 && self.written == self.outbox.len() {
            self.outbox.clear();
            self.written = 0;
        }
        self.outbox.extend_from_slice(&frame);
    }
}

/// The `EMWIRE1` TCP front door. Bind with [`NetServer::bind`], grab a
/// [`DoorHandle`] for shutdown, then [`NetServer::run`] the loop (it
/// blocks the calling thread until shutdown).
pub struct NetServer {
    listener: TcpListener,
    local_addr: SocketAddr,
    server: Arc<Server>,
    config: NetConfig,
    stop: Arc<AtomicBool>,
    poller: Poller,
    /// Hydrated sessions waiting for a client to `Attach` by durable id.
    orphans: Arc<Mutex<HashMap<u64, TrackerSession>>>,
    /// Loop passes made so far (wait returns), for the wake-up tests.
    #[cfg(test)]
    passes: Arc<AtomicU64>,
}

impl NetServer {
    /// Binds a door for `server` on `addr` (use port 0 for an ephemeral
    /// port; read it back from [`NetServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn bind(addr: impl ToSocketAddrs, server: Arc<Server>) -> std::io::Result<Self> {
        Self::bind_with(addr, server, NetConfig::default())
    }

    /// [`NetServer::bind`] with explicit tunables.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding and from setting up the
    /// readiness poller.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        server: Arc<Server>,
        config: NetConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = Poller::new(&listener)?;
        Ok(NetServer {
            listener,
            local_addr,
            server,
            config,
            stop: Arc::new(AtomicBool::new(false)),
            poller,
            orphans: Arc::new(Mutex::new(HashMap::new())),
            #[cfg(test)]
            passes: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Parks checkpoint-recovered sessions (from [`Server::hydrate`])
    /// until clients reclaim them with `Attach { durable }`. Each entry
    /// is keyed by its durable id and can be claimed exactly once; ids
    /// never attached stay parked (and keep being checkpointed) for the
    /// life of the door.
    pub fn adopt(&self, sessions: Vec<(u64, TrackerSession)>) {
        let mut orphans = self.orphans.lock().expect("orphan pool poisoned");
        for (durable, session) in sessions {
            orphans.insert(durable, session);
        }
    }

    /// The bound address — the port clients should dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A clonable shutdown handle, valid for the lifetime of the loop.
    pub fn handle(&self) -> DoorHandle {
        DoorHandle {
            stop: Arc::clone(&self.stop),
            waker: self.poller.waker(),
        }
    }

    /// Runs the event loop on the calling thread until a [`DoorHandle`]
    /// requests shutdown. Returns after the graceful drain completes.
    pub fn run(self) {
        let NetServer {
            listener,
            local_addr: _,
            server,
            config,
            stop,
            mut poller,
            orphans,
            #[cfg(test)]
            passes,
        } = self;
        let metrics = Arc::clone(server.metrics_hub());
        let waker = poller.waker();
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_conn: u64 = 1;
        let mut drain_deadline: Option<Instant> = None;
        // Set while accepting backs off after an accept error.
        let mut accept_resume: Option<Instant> = None;

        loop {
            let door_deadline = drain_deadline.into_iter().chain(accept_resume).min();
            poller.wait(next_deadline(
                &conns,
                &config,
                door_deadline,
                Instant::now(),
            ));
            #[cfg(test)]
            passes.fetch_add(1, Ordering::Relaxed);

            let draining = stop.load(Ordering::Acquire);
            let now = Instant::now();
            if draining && drain_deadline.is_none() {
                drain_deadline = Some(now + config.drain_timeout);
                // Pending connections would keep a level-triggered
                // listener ready forever.
                let _ = poller.set_accepting(&listener, false);
            }

            // Accept phase — skipped once draining or while backing off.
            if !draining && accept_resume.is_none_or(|at| now >= at) {
                if accept_resume.take().is_some() {
                    let _ = poller.set_accepting(&listener, true);
                }
                loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            if stream.set_nonblocking(true).is_err()
                                || poller.add(&stream, next_conn).is_err()
                            {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            metrics.record_connection_opened();
                            conns.insert(next_conn, Conn::new(stream, config.max_frame_bytes, now));
                            next_conn += 1;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        // Out of descriptors or memory (or an aborted
                        // handshake): the connection may stay queued and
                        // keep the listener ready, so back off briefly
                        // instead of spinning, and keep serving.
                        Err(_) => {
                            let _ = poller.set_accepting(&listener, false);
                            accept_resume = Some(now + ACCEPT_BACKOFF);
                            break;
                        }
                    }
                }
            }

            let mut dead: Vec<u64> = Vec::new();
            for (&id, conn) in conns.iter_mut() {
                let mut alive = service_conn(
                    conn, &server, &metrics, &waker, &orphans, &config, draining, now,
                );
                let interest = Interest {
                    read: conn.readable(draining, &config),
                    write: conn.backlog() > 0,
                };
                if alive && interest != conn.interest {
                    alive = poller.modify(&conn.stream, id, interest).is_ok();
                    conn.interest = interest;
                }
                if !alive {
                    dead.push(id);
                }
            }
            for id in dead {
                conns.remove(&id);
                metrics.record_connection_closed();
            }

            if draining {
                let drained = conns.values().all(|c| c.backlog() == 0 && c.pending() == 0);
                let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
                if drained || expired {
                    break;
                }
            }
        }

        // Teardown: dropping each connection drops its parked tickets
        // and sessions — the runtime's `Terminated` path completes any
        // abandoned responders. Anything still open here is a drain reap.
        for (_, conn) in conns.drain() {
            metrics.record_reap(ReapReason::Drain);
            eprintln!(
                "eigenmaps-net: reaped {} at shutdown (drain; {} unflushed byte(s), {} ticket(s) in flight)",
                peer_label(&conn),
                conn.backlog(),
                conn.pending(),
            );
            metrics.record_connection_closed();
        }
    }
}

/// How long accepting pauses after an accept error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// How long the loop may sleep with nothing else happening: until a
/// connection's idle-reap deadline or the door's own (drain or accept
/// back-off) deadline. `None` when there is neither.
fn next_deadline(
    conns: &HashMap<u64, Conn>,
    config: &NetConfig,
    door_deadline: Option<Instant>,
    now: Instant,
) -> Option<Duration> {
    conns
        .values()
        .filter_map(|conn| conn.last_progress.checked_add(config.idle_timeout))
        .chain(door_deadline)
        .min()
        .map(|deadline| deadline.saturating_duration_since(now))
}

/// One service pass over a connection: read, decode, dispatch, complete
/// ready tickets, flush, and judge liveness. Returns `false` when the
/// connection should be reaped.
#[allow(clippy::too_many_arguments)]
fn service_conn(
    conn: &mut Conn,
    server: &Arc<Server>,
    metrics: &Arc<ServeMetrics>,
    waker: &Waker,
    orphans: &Mutex<HashMap<u64, TrackerSession>>,
    config: &NetConfig,
    draining: bool,
    now: Instant,
) -> bool {
    // Read phase — skipped while the write backlog is over the bound
    // (backpressure), the door is draining or the peer sent EOF.
    if conn.readable(draining, config) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // Half-close: the peer sends nothing more but may
                    // still be reading its replies.
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    metrics.record_wire_bytes_in(n as u64);
                    conn.frames.extend(&chunk[..n]);
                    conn.last_progress = now;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Reset or otherwise broken: nothing can be delivered.
                Err(_) => return false,
            }
        }
    } else if conn.eof && !matches!(conn.stream.take_error(), Ok(None)) {
        // A half-closed peer that then reset the connection: replies can
        // no longer be delivered, and a reset socket stays ready forever.
        return false;
    }

    // Frame phase: pop complete records, dispatch each. Never panics on
    // hostile bytes — every failure becomes an `Error` reply.
    while let Some(outcome) = conn.frames.next_record() {
        match outcome {
            Ok(record) => {
                metrics.record_wire_frame_in();
                match Request::decode(&record) {
                    Ok((id, request)) => {
                        dispatch(conn, server, metrics, waker, orphans, id, request)
                    }
                    Err(failure) => {
                        record_wire_error(metrics, &failure.error);
                        // A corrupt envelope has no trustworthy id; 0
                        // marks the reply uncorrelatable.
                        let reply = Response::Error {
                            status: WireStatus::BadFrame,
                            message: failure.error.to_string(),
                        };
                        let reply = seal_reply(reply, failure.id.unwrap_or(0), metrics);
                        conn.enqueue(reply, metrics);
                    }
                }
            }
            Err(err) => {
                record_wire_error(metrics, &err);
                let reply = Response::Error {
                    status: WireStatus::BadFrame,
                    message: err.to_string(),
                };
                let reply = seal_reply(reply, 0, metrics);
                conn.enqueue(reply, metrics);
            }
        }
    }

    // Completion phase: sweep parked tickets for ready responses.
    let ready: Vec<u64> = conn
        .batches
        .iter()
        .filter(|(_, t)| t.is_ready())
        .map(|(&id, _)| id)
        .collect();
    for id in ready {
        let mut ticket = conn
            .batches
            .remove(&id)
            .expect("ready id came from the map");
        let version = ticket.version();
        match ticket.try_wait() {
            Some(Ok(maps)) => {
                let maps = maps.iter().map(WireMap::from).collect();
                let reply = Response::Batch {
                    version,
                    maps,
                    degraded: ticket.is_degraded(),
                };
                conn.enqueue(seal_reply(reply, id, metrics), metrics);
            }
            Some(Err(e)) => {
                conn.enqueue(error_reply(&e, id, metrics), metrics);
            }
            // A spurious readiness race: repark and retry next pass.
            None => {
                conn.batches.insert(id, ticket);
            }
        }
    }
    let ready: Vec<u64> = conn
        .steps
        .iter()
        .filter(|(_, t)| t.is_ready())
        .map(|(&id, _)| id)
        .collect();
    for id in ready {
        let mut ticket = conn.steps.remove(&id).expect("ready id came from the map");
        match ticket.try_wait() {
            Some(Ok(map)) => {
                let map = WireMap::from(&map);
                let reply = Response::Step {
                    map,
                    degraded: ticket.is_degraded(),
                };
                conn.enqueue(seal_reply(reply, id, metrics), metrics);
            }
            Some(Err(e)) => {
                conn.enqueue(error_reply(&e, id, metrics), metrics);
            }
            None => {
                conn.steps.insert(id, ticket);
            }
        }
    }

    // Write phase: flush as much of the outbox as the socket takes. A
    // failed write means the peer is gone and nothing more is deliverable.
    while conn.written < conn.outbox.len() {
        match conn.stream.write(&conn.outbox[conn.written..]) {
            Ok(0) => return false,
            Ok(n) => {
                conn.written += n;
                conn.last_progress = now;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.written == conn.outbox.len() && !conn.outbox.is_empty() {
        conn.outbox.clear();
        conn.written = 0;
    }

    if conn.eof && conn.pending() == 0 && conn.backlog() == 0 {
        // The peer is done sending and every reply it is owed went out.
        return false;
    }
    // Idle / slow-client reaping: no progress in either direction for
    // the whole timeout window. An unflushed backlog says the peer is
    // alive but not reading (slow client); an empty one says it simply
    // went quiet (idle).
    if now.duration_since(conn.last_progress) >= config.idle_timeout {
        let reason = if conn.backlog() > 0 {
            metrics.record_reap(ReapReason::SlowClient);
            "slow client"
        } else {
            metrics.record_reap(ReapReason::Idle);
            "idle"
        };
        eprintln!(
            "eigenmaps-net: reaped {} after {:?} without progress ({reason}; {} unflushed byte(s))",
            peer_label(conn),
            config.idle_timeout,
            conn.backlog(),
        );
        return false;
    }
    true
}

/// Best-effort peer address for reap log lines; a socket that already
/// failed reports as `<unknown>`.
fn peer_label(conn: &Conn) -> String {
    conn.stream
        .peer_addr()
        .map_or_else(|_| String::from("<unknown>"), |addr| addr.to_string())
}

/// Handles one decoded request, either replying immediately or parking a
/// ticket whose readiness callback will wake the loop.
fn dispatch(
    conn: &mut Conn,
    server: &Arc<Server>,
    metrics: &Arc<ServeMetrics>,
    waker: &Waker,
    orphans: &Mutex<HashMap<u64, TrackerSession>>,
    id: u64,
    request: Request,
) {
    match request {
        Request::SubmitBatch { deployment, frames } => {
            match server.try_submit(ServeRequest::new(deployment, frames)) {
                Ok(ticket) => {
                    let waker = waker.clone();
                    ticket.on_ready(move || waker.wake());
                    conn.batches.insert(id, ticket);
                }
                Err(e) => {
                    let reply = error_reply(&e, id, metrics);
                    conn.enqueue(reply, metrics);
                }
            }
        }
        Request::OpenSession { deployment, gain } => match server.open_session(&deployment, gain) {
            Ok(session) => {
                let reply = register_session(conn, session);
                conn.enqueue(seal_reply(reply, id, metrics), metrics);
            }
            Err(e) => {
                let reply = error_reply(&e, id, metrics);
                conn.enqueue(reply, metrics);
            }
        },
        Request::StepSession { session, readings } => match conn.sessions.get(&session) {
            Some(open) => match open.submit_step(&readings) {
                Ok(ticket) => {
                    let waker = waker.clone();
                    ticket.on_ready(move || waker.wake());
                    conn.steps.insert(id, ticket);
                }
                Err(e) => {
                    let reply = error_reply(&e, id, metrics);
                    conn.enqueue(reply, metrics);
                }
            },
            None => {
                let reply = unknown_session(session, id, metrics);
                conn.enqueue(reply, metrics);
            }
        },
        Request::CloseSession { session } => {
            if conn.sessions.remove(&session).is_some() {
                conn.enqueue(seal_reply(Response::Closed, id, metrics), metrics);
            } else {
                let reply = unknown_session(session, id, metrics);
                conn.enqueue(reply, metrics);
            }
        }
        Request::Snapshot { session } => match conn.sessions.get(&session) {
            Some(open) => {
                if open.pending_steps() > 0 {
                    metrics.record_wire_error(WireErrorKind::Rejected);
                    let reply = Response::Error {
                        status: WireStatus::SessionBusy,
                        message: format!(
                            "session {session} has {} step(s) in flight; retry once they land",
                            open.pending_steps()
                        ),
                    };
                    conn.enqueue(seal_reply(reply, id, metrics), metrics);
                } else {
                    let snapshot = open.snapshot();
                    conn.enqueue(
                        seal_reply(Response::Snapshot { snapshot }, id, metrics),
                        metrics,
                    );
                }
            }
            None => {
                let reply = unknown_session(session, id, metrics);
                conn.enqueue(reply, metrics);
            }
        },
        Request::Resume { snapshot } => match server.resume_session(&snapshot) {
            Ok(session) => {
                let reply = register_session(conn, session);
                conn.enqueue(seal_reply(reply, id, metrics), metrics);
            }
            Err(e) => {
                let reply = error_reply(&e, id, metrics);
                conn.enqueue(reply, metrics);
            }
        },
        Request::Catalog => {
            let entries = server.registry().catalog();
            conn.enqueue(
                seal_reply(Response::Catalog { entries }, id, metrics),
                metrics,
            );
        }
        Request::Publish { name, artifact } => {
            match server.registry().publish_bytes(&name, &artifact) {
                Ok(version) => {
                    conn.enqueue(
                        seal_reply(Response::Published { version }, id, metrics),
                        metrics,
                    );
                }
                Err(e) => {
                    let reply = error_reply(&e, id, metrics);
                    conn.enqueue(reply, metrics);
                }
            }
        }
        Request::Metrics => {
            let reply = Response::Metrics(Box::new(server.metrics()));
            conn.enqueue(seal_reply(reply, id, metrics), metrics);
        }
        Request::Trace => {
            let reply = Response::Trace(flight_snapshot(server));
            conn.enqueue(seal_reply(reply, id, metrics), metrics);
        }
        Request::Attach { durable } => {
            let claimed = orphans
                .lock()
                .expect("orphan pool poisoned")
                .remove(&durable);
            match claimed {
                Some(session) => {
                    let reply = register_session(conn, session);
                    conn.enqueue(seal_reply(reply, id, metrics), metrics);
                }
                None => {
                    let reply = unknown_session(durable, id, metrics);
                    conn.enqueue(reply, metrics);
                }
            }
        }
    }
}

/// Assembles the wire form of the flight recorder: the event ring plus
/// the per-tenant slow-request exemplars (tenants sorted by name).
fn flight_snapshot(server: &Arc<Server>) -> WireTrace {
    let recorder = server.recorder();
    let ring = recorder.snapshot();
    let events = ring
        .events
        .iter()
        .map(|event| WireTraceEvent {
            trace: event.trace.0,
            tenant: event.tenant.clone(),
            stage: event.stage.code(),
            arg: event.stage.arg(),
            at_ns: event.at.as_nanos() as u64,
        })
        .collect();
    let tenants = recorder
        .exemplars()
        .into_iter()
        .map(|(tenant, kept)| WireTenantTrace {
            tenant,
            exemplars: kept.into_iter().map(wire_exemplar).collect(),
        })
        .collect();
    WireTrace {
        written: ring.written,
        dropped: ring.dropped,
        events,
        tenants,
    }
}

fn wire_exemplar(exemplar: TraceExemplar) -> WireExemplar {
    WireExemplar {
        trace: exemplar.trace.0,
        total_ns: exemplar.total.as_nanos() as u64,
        stages: exemplar
            .stages
            .iter()
            .map(|&(stage, at)| WireStage {
                stage: stage.code(),
                arg: stage.arg(),
                at_ns: at.as_nanos() as u64,
            })
            .collect(),
    }
}

/// Registers a freshly opened/resumed session under a door-assigned id
/// and builds its `SessionOpened` reply.
fn register_session(conn: &mut Conn, session: TrackerSession) -> Response {
    let id = conn.next_session;
    conn.next_session += 1;
    let reply = Response::SessionOpened {
        session: id,
        version: session.version(),
        frames: session.frames(),
        durable: session.durable_id(),
    };
    conn.sessions.insert(id, session);
    reply
}

/// Seals a reply frame. A record over the frame bound is downgraded to
/// an `Error` reply on the same correlation id — the peer would discard
/// the oversized frame unread anyway, so it gets a diagnosable refusal
/// instead. Error replies themselves are a status byte plus a short
/// message, far below the bound, so the fallback encode cannot fail.
fn seal_reply(reply: Response, id: u64, metrics: &ServeMetrics) -> Vec<u8> {
    match reply.encode(id) {
        Ok(frame) => frame,
        Err(e) => {
            metrics.record_wire_error(WireErrorKind::Rejected);
            Response::Error {
                status: WireStatus::BadRequest,
                message: e.to_string(),
            }
            .encode(id)
            .expect("error replies fit the frame bound")
        }
    }
}

fn unknown_session(session: u64, id: u64, metrics: &ServeMetrics) -> Vec<u8> {
    metrics.record_wire_error(WireErrorKind::Rejected);
    let reply = Response::Error {
        status: WireStatus::UnknownSession,
        message: format!("session {session} is not open on this connection"),
    };
    seal_reply(reply, id, metrics)
}

fn error_reply(error: &eigenmaps_serve::ServeError, id: u64, metrics: &ServeMetrics) -> Vec<u8> {
    metrics.record_wire_error(WireErrorKind::Rejected);
    let (status, message) = status_of(error);
    seal_reply(Response::Error { status, message }, id, metrics)
}

fn record_wire_error(metrics: &ServeMetrics, error: &WireError) {
    let kind = match error {
        WireError::Oversized { .. } => WireErrorKind::Oversized,
        WireError::Corrupt { .. } => WireErrorKind::Corrupt,
        WireError::Malformed { .. } => WireErrorKind::Malformed,
        WireError::UnknownKind { .. } => WireErrorKind::UnknownKind,
    };
    metrics.record_wire_error(kind);
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use eigenmaps_core::prelude::*;
    use eigenmaps_serve::{BatchPolicy, DeploymentRegistry};
    use std::net::{Shutdown, TcpStream};

    /// Runs a door on a helper thread; returns its address, shutdown
    /// handle, loop-pass counter and join handle.
    fn spawn(
        server: Arc<Server>,
    ) -> (
        SocketAddr,
        DoorHandle,
        Arc<AtomicU64>,
        std::thread::JoinHandle<()>,
    ) {
        let door = NetServer::bind("127.0.0.1:0", server).expect("bind loopback");
        let passes = Arc::clone(&door.passes);
        let (addr, handle) = (door.local_addr(), door.handle());
        (addr, handle, passes, std::thread::spawn(move || door.run()))
    }

    #[test]
    fn idle_connection_does_not_wake_the_loop() {
        let server = Arc::new(Server::new(Arc::new(DeploymentRegistry::new()), 1));
        let (addr, handle, passes, join) = spawn(Arc::clone(&server));

        let client = TcpStream::connect(addr).expect("connect");
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics().wire.connections_open == 0 {
            assert!(Instant::now() < deadline, "connection never accepted");
            std::thread::sleep(Duration::from_millis(1));
        }
        let before = passes.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(200));
        let idle_passes = passes.load(Ordering::Relaxed) - before;
        // A 1 ms poll would make ~200 passes here; readiness makes none.
        assert!(
            idle_passes <= 5,
            "{idle_passes} loop passes over 200 ms with one idle connection"
        );

        drop(client);
        handle.shutdown();
        join.join().expect("door loop");
    }

    #[test]
    fn reset_after_half_close_is_reaped_without_spinning() {
        let maps: Vec<ThermalMap> = (0..30)
            .map(|t| {
                let w = (t as f64 / 4.0).sin();
                ThermalMap::from_fn(6, 6, |r, c| 40.0 + w * (r + 2 * c) as f64)
            })
            .collect();
        let ensemble = MapEnsemble::from_maps(&maps).unwrap();
        let deployment = Pipeline::new(&ensemble)
            .basis(BasisSpec::EigenExact { k: 2 })
            .sensors(4)
            .design()
            .unwrap();
        let frame = deployment.sensors().sample(&ensemble.map(0));
        let registry = Arc::new(DeploymentRegistry::new());
        registry.publish("chip", deployment);
        // Size-only: the parked request never flushes while the door runs.
        let policy = BatchPolicy {
            max_delay: Duration::MAX,
            ..BatchPolicy::default()
        };
        let server = Arc::new(Server::with_policy(registry, 1, policy));
        let (addr, handle, passes, join) = spawn(Arc::clone(&server));

        let mut client = TcpStream::connect(addr).expect("connect");
        let park = Request::SubmitBatch {
            deployment: "chip".into(),
            frames: vec![frame],
        };
        client.write_all(&park.encode(1).unwrap()).unwrap();
        client
            .write_all(&Request::Catalog.encode(2).unwrap())
            .unwrap();
        // Leave the catalog reply unread, half-close, then close: the
        // unread bytes make the close a reset.
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client.peek(&mut [0u8; 1]).expect("catalog reply arrives");
        let woken = passes.load(Ordering::Relaxed);
        client.shutdown(Shutdown::Write).unwrap();
        // The EOF wakes the loop, which keeps the connection for its
        // parked request.
        let deadline = Instant::now() + Duration::from_secs(5);
        while passes.load(Ordering::Relaxed) == woken {
            assert!(Instant::now() < deadline, "EOF never woke the loop");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(client);

        // Reaped promptly — not after the 60 s idle timeout — and the
        // loop is quiet afterwards.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics().wire.connections_open > 0 {
            assert!(Instant::now() < deadline, "reset connection still open");
            std::thread::sleep(Duration::from_millis(5));
        }
        let before = passes.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(200));
        let idle_passes = passes.load(Ordering::Relaxed) - before;
        assert!(idle_passes <= 5, "{idle_passes} passes after the reap");

        handle.shutdown();
        join.join().expect("door loop");
    }
}
