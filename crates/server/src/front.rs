//! The one serving endpoint: a readiness-driven front end shared by the
//! index node ([`crate::server`]) and the router ([`crate::router`]),
//! and the [`ServerHandle`] both return.
//!
//! ```text
//! front thread                        stage threads
//!   Poller::wait ──► accept / read      Batcher::next_batch: all queued
//!   cut frames (HOPQ or HTTP)             node: executor (+ compactor)
//!   answer info, shutdown,                router: dispatcher + workers
//!   refusals, parse errors inline
//!   one Batcher::submit per turn ────►  queries, update, swap, compact
//!   queue + flush responses           ◄── Completions + WakeFd wake
//! ```
//!
//! The front never blocks on a socket and never runs a query; what sits
//! behind the [`Batcher`] never touches a socket. In-flight caps and
//! the write high-water mark turn misbehaving peers into *paused* peers
//! (their readable interest is dropped) instead of unbounded memory.
//!
//! Everything the two endpoints do identically lives here: connection
//! lifecycle, framing, the error discipline of `proto`, backpressure,
//! idle eviction, graceful drain and the one stop path, request
//! counters, and the inline answers — `shutdown`, refusals, and `info`
//! (also `GET /stats`), the [`InfoReply`] the service fills in. HTTP and
//! `HOPQ` reach it as the same [`RequestBody`] with a [`Reply`], and
//! every answer leaves through [`Reply::encode`]. Every other request is
//! one [`Job`] on the one queue. An endpoint supplies its [`Service`]
//! (its name, its `info`, what it refuses) and the stage threads behind
//! the queue; nothing else differs.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::batch::{Batcher, Completions, Job, Work};
use crate::conn::{Conn, ConnRequest, ConnState, Mode};
use crate::proto::{InfoReply, Reply, RequestBody, ResponseBody};
use crate::reactor::{Event, Poller, WakeFd, EV_READ, EV_WRITE};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
/// Loop tick: upper bound on how stale idle/drain bookkeeping can get;
/// all real work is event-driven.
const POLL_TICK_MS: i32 = 25;
/// Graceful-drain budget after a stop: owed responses get this long to
/// flush before connections are cut.
const DRAIN_DEADLINE: Duration = Duration::from_secs(3);
/// Post-error discard budget (bytes, and seconds of patience) so a
/// close doesn't RST away the final error frame.
const DISCARD_BUDGET: usize = 1 << 20;
const DISCARD_TIMEOUT: Duration = Duration::from_secs(2);

/// The limits the serving loop enforces on its peers; embedded as
/// `front` by [`crate::ServerConfig`] and [`crate::RouterConfig`].
#[derive(Clone, Copy, Debug)]
pub struct FrontConfig {
    /// Pairs (or update edges) accepted per request; larger requests
    /// get a protocol error, and a router forwards at most this many
    /// pairs per backend frame. (Per-frame allocation is bounded by
    /// [`crate::proto::MAX_PAYLOAD`], not by this — a declared length
    /// over the cap closes the connection before any allocation.)
    pub max_batch: usize,
    /// Unanswered `HOPQ` frames per connection before the loop stops
    /// *reading* that connection (pipelining backpressure).
    pub max_inflight: usize,
    /// Evict connections idle longer than this many ms (0 = never).
    pub idle_timeout_ms: u64,
    /// Honour remote shutdown frames (a router's stops the router, not
    /// its backends). Off by default: a query port should not double as
    /// a kill switch.
    pub allow_shutdown: bool,
}

impl Default for FrontConfig {
    fn default() -> FrontConfig {
        FrontConfig {
            max_batch: crate::proto::DEFAULT_MAX_BATCH,
            max_inflight: 128,
            idle_timeout_ms: 0,
            allow_shutdown: false,
        }
    }
}

/// The loop's request counters, as of the request being answered.
#[derive(Clone, Copy, Default)]
pub(crate) struct Traffic {
    /// Requests cut off connections since boot (all kinds, errors
    /// included).
    pub(crate) requests: u64,
    /// Malformed frames seen since boot (recoverable and fatal).
    pub(crate) protocol_errors: u64,
}

/// What an endpoint supplies to the shared loop. Two impls: the index
/// node and the router.
pub(crate) trait Service: Send + Sync + 'static {
    /// How the loop's own refusals name this endpoint.
    const NAME: &'static str;

    /// Why this endpoint refuses `body` outright, answered as an error
    /// without queueing a job; `None` (the default) lets it through.
    fn refuses(&self, _body: &RequestBody) -> Option<&'static str> {
        None
    }

    /// The endpoint's status as of `traffic`: the `info` reply and the
    /// `GET /stats` body.
    fn info(&self, traffic: Traffic) -> InfoReply;
}

/// How the rest of an endpoint reaches its running loop: the job queue
/// in, the completion pile back, and the stop switch.
#[derive(Clone)]
pub(crate) struct FrontHandle {
    wake: Arc<WakeFd>,
    pub(crate) batcher: Arc<Batcher>,
    pub(crate) completions: Arc<Completions>,
    stop: Arc<AtomicBool>,
}

impl FrontHandle {
    pub(crate) fn new() -> std::io::Result<FrontHandle> {
        let wake = Arc::new(WakeFd::new()?);
        Ok(FrontHandle {
            completions: Arc::new(Completions::new(Arc::clone(&wake))),
            wake,
            batcher: Arc::new(Batcher::default()),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The one stop path (a shutdown frame or [`ServerHandle::shutdown`]):
    /// flip the stop flag and wake the loop so it stops accepting,
    /// flushes what is owed, stops the batcher, and exits. Idempotent.
    pub(crate) fn begin_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.wake();
    }

    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// A running endpoint: an index node ([`crate::serve`]) or a router
/// ([`crate::serve_router`]). Dropping the handle does *not* stop it;
/// call [`ServerHandle::shutdown`], or let a remote shutdown frame stop
/// it and [`ServerHandle::wait`].
pub struct ServerHandle {
    front: FrontHandle,
    local_addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop the endpoint the way a shutdown frame does, and wait for
    /// every thread to exit. A router's backends keep running.
    pub fn shutdown(self) {
        self.front.begin_stop();
        self.wait();
    }

    /// Block until the endpoint stops (in practice: until a shutdown
    /// frame arrives).
    pub fn wait(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Start the loop for `service` on `listener`, then the stage threads
/// `stages` spawns behind its batcher. The loop exits after
/// [`FrontHandle::begin_stop`] once owed responses have drained, and
/// stops the batcher; the stages drain it and exit.
pub(crate) fn spawn<S: Service>(
    listener: TcpListener,
    service: Arc<S>,
    handle: FrontHandle,
    limits: FrontConfig,
    stages: impl FnOnce() -> Vec<JoinHandle<()>>,
) -> std::io::Result<ServerHandle> {
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new(256)?;
    poller.register(&listener, EV_READ, TOKEN_LISTENER)?;
    poller.register(&*handle.wake, EV_READ, TOKEN_WAKER)?;
    let front = Front {
        limits,
        service,
        handle: handle.clone(),
        poller,
        listener,
        conns: HashMap::new(),
        cut: Vec::new(),
        next_token: FIRST_CONN_TOKEN,
        draining_since: None,
        traffic: Traffic::default(),
    };
    let mut threads = vec![std::thread::spawn(move || front.run())];
    threads.extend(stages());
    Ok(ServerHandle { front: handle, local_addr, threads })
}

struct Front<S: Service> {
    service: Arc<S>,
    limits: FrontConfig,
    handle: FrontHandle,
    poller: Poller,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    /// Jobs cut this turn, handed to the batcher together at its end.
    cut: Vec<Job>,
    next_token: u64,
    draining_since: Option<Instant>,
    traffic: Traffic,
}

impl<S: Service> Front<S> {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.handle.stopping() && self.draining_since.is_none() {
                self.begin_drain();
            }
            if let Some(since) = self.draining_since {
                let owed =
                    self.conns.values().any(|c| c.inflight > 0 || c.pending_write_bytes() > 0);
                if !owed || since.elapsed() > DRAIN_DEADLINE {
                    break;
                }
            }
            events.clear();
            if self.poller.wait(Some(POLL_TICK_MS), |ev| events.push(ev)).is_err() {
                break;
            }
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.handle.wake.drain(),
                    token => {
                        if ev.readable() {
                            self.conn_readable(token);
                        }
                        if ev.writable() {
                            self.conn_writable(token);
                        }
                    }
                }
            }
            self.apply_completions();
            self.advance_all();
            self.hand_off();
        }
        // Nothing is cut any more: the stage behind the batcher drains and
        // exits. Dropping the map closes every socket, the listener the port.
        self.handle.batcher.stop();
    }

    fn begin_drain(&mut self) {
        self.draining_since = Some(Instant::now());
        let _ = self.poller.deregister(&self.listener);
        for conn in self.conns.values_mut() {
            if conn.state == ConnState::Open {
                conn.state = ConnState::CloseAfterFlush;
            }
        }
    }

    fn accept_ready(&mut self) {
        if self.draining_since.is_some() {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.poller.register(&stream, EV_READ, token).is_ok() {
                        let mut conn = Conn::new(stream, Instant::now());
                        conn.registered = EV_READ;
                        self.conns.insert(token, conn);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn conn_readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let cap = inflight_cap(&self.limits, conn.mode);
        match conn.state {
            ConnState::Open => {
                // Backpressure: a capped or backed-up connection is
                // simply not read. The level-triggered poller
                // re-reports it once interest returns.
                if conn.inflight >= cap || conn.write_backed_up() {
                    return;
                }
                if conn.fill(Instant::now()).is_err() {
                    conn.state = ConnState::Dead;
                    return;
                }
                self.parse_conn(token);
            }
            ConnState::Draining { budget } => {
                // Read and discard. Passing the linger's start as `now`
                // keeps a trickling peer from extending it.
                let read = conn.fill(conn.last_activity);
                conn.discard_read();
                conn.state = match read {
                    Ok(n) if n < budget && !conn.peer_eof => {
                        ConnState::Draining { budget: budget - n }
                    }
                    _ => ConnState::Dead,
                };
            }
            ConnState::CloseAfterFlush | ConnState::Dead => {}
        }
    }

    fn conn_writable(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            if conn.pending_write_bytes() > 0 && conn.flush().is_err() {
                conn.state = ConnState::Dead;
            }
        }
    }

    /// Cut and dispatch every whole request buffered on `token`,
    /// stopping at the in-flight cap.
    fn parse_conn(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let cap = inflight_cap(&self.limits, conn.mode);
            if conn.state != ConnState::Open || conn.inflight >= cap || conn.write_backed_up() {
                return;
            }
            let Some(request) = conn.next_request(self.limits.max_batch) else { return };
            self.dispatch(token, request);
        }
    }

    fn dispatch(&mut self, token: u64, request: ConnRequest) {
        match request {
            ConnRequest::Request(body, reply) => {
                self.traffic.requests += 1;
                self.serve(token, body, reply);
            }
            ConnRequest::Bad(reply, msg) => {
                self.traffic.requests += 1;
                self.traffic.protocol_errors += 1;
                self.answer(token, reply, &ResponseBody::Error(msg));
            }
            ConnRequest::Fatal(bytes) => {
                self.traffic.protocol_errors += 1;
                self.queue_bytes(token, &bytes, true);
            }
        }
    }

    fn serve(&mut self, token: u64, body: RequestBody, reply: Reply) {
        if let Some(why) = self.service.refuses(&body) {
            return self.answer(token, reply, &ResponseBody::Error(why.to_string()));
        }
        let work = match body {
            RequestBody::Query(pairs) => Work::Query(pairs),
            RequestBody::Update(edges) => Work::Update(edges),
            RequestBody::Swap => Work::Swap,
            RequestBody::Compact => Work::Compact,
            RequestBody::Info => {
                let info = ResponseBody::Info(self.service.info(self.traffic));
                return self.answer(token, reply, &info);
            }
            RequestBody::Shutdown if self.limits.allow_shutdown => {
                self.answer(token, reply, &ResponseBody::Bye);
                self.handle.begin_stop();
                return;
            }
            RequestBody::Shutdown => {
                let msg = format!("remote shutdown is disabled on this {}", S::NAME);
                return self.answer(token, reply, &ResponseBody::Error(msg));
            }
        };
        self.submit(Job { conn: token, reply, work });
    }

    /// Keep `job` for this turn's hand-off; its answer is owed from now,
    /// through `Completions`.
    fn submit(&mut self, job: Job) {
        if let Some(conn) = self.conns.get_mut(&job.conn) {
            conn.inflight += 1;
        }
        self.cut.push(job);
    }

    /// Hand what was cut this turn to the batcher in one submit, so a
    /// pipelined burst arrives as one batch.
    fn hand_off(&mut self) {
        if !self.cut.is_empty() {
            self.handle.batcher.submit(std::mem::take(&mut self.cut));
        }
    }

    /// Answer `token` now: `body`, encoded for `reply`.
    fn answer(&mut self, token: u64, reply: Reply, body: &ResponseBody) {
        let (bytes, close_after) = reply.encode(body);
        self.queue_bytes(token, &bytes, close_after);
    }

    fn queue_bytes(&mut self, token: u64, bytes: &[u8], close_after: bool) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.queue_write(bytes, Instant::now());
            if close_after && conn.state == ConnState::Open {
                conn.state = ConnState::CloseAfterFlush;
            }
        }
    }

    fn apply_completions(&mut self) {
        for done in self.handle.completions.drain() {
            if let Some(conn) = self.conns.get_mut(&done.conn) {
                conn.inflight = conn.inflight.saturating_sub(1);
            }
            self.queue_bytes(done.conn, &done.bytes, done.close_after);
        }
    }

    /// Advance every connection's state machine: parse leftovers
    /// (capacity may have freed), flush, transition, re-arm.
    fn advance_all(&mut self) {
        let now = Instant::now();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.advance_conn(token, now);
        }
    }

    fn advance_conn(&mut self, token: u64, now: Instant) {
        self.parse_conn(token);
        let idle = match self.limits.idle_timeout_ms {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        };
        let drain_mode = self.draining_since.is_some();
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let cap = inflight_cap(&self.limits, conn.mode);
        if conn.pending_write_bytes() > 0 && conn.flush().is_err() {
            conn.state = ConnState::Dead;
        }
        match conn.state {
            ConnState::Open => {
                if conn.peer_eof
                    && conn.inflight == 0
                    && conn.pending_write_bytes() == 0
                    && conn.pending_read_bytes() == 0
                {
                    conn.state = ConnState::Dead;
                } else if let Some(idle) = idle {
                    if conn.inflight == 0
                        && conn.pending_write_bytes() == 0
                        && now.duration_since(conn.last_activity) >= idle
                    {
                        conn.state = ConnState::Dead;
                    }
                }
            }
            ConnState::CloseAfterFlush => {
                if conn.inflight == 0 && conn.pending_write_bytes() == 0 {
                    // Half-close, then linger (bounded) discarding what
                    // the peer already sent, so the close can't RST
                    // away the frames just flushed.
                    let _ = conn.stream.shutdown(Shutdown::Write);
                    conn.state = if conn.peer_eof {
                        ConnState::Dead
                    } else {
                        ConnState::Draining { budget: DISCARD_BUDGET }
                    };
                    conn.last_activity = now;
                }
            }
            ConnState::Draining { .. } => {
                if conn.peer_eof || now.duration_since(conn.last_activity) > DISCARD_TIMEOUT {
                    conn.state = ConnState::Dead;
                }
            }
            ConnState::Dead => {}
        }
        let mut dead = conn.state == ConnState::Dead;
        if !dead {
            let desired = desired_interest(conn, cap, drain_mode);
            if desired != conn.registered {
                match self.poller.rearm(&conn.stream, desired, token) {
                    Ok(()) => conn.registered = desired,
                    Err(_) => dead = true,
                }
            }
        }
        if dead {
            if let Some(conn) = self.conns.remove(&token) {
                let _ = self.poller.deregister(&conn.stream);
            }
        }
    }
}

/// Per-connection cap on unanswered requests: HTTP answers must stay in
/// order, so HTTP connections run one at a time.
fn inflight_cap(limits: &FrontConfig, mode: Mode) -> usize {
    if mode == Mode::Http {
        1
    } else {
        limits.max_inflight.max(1)
    }
}

/// The interest mask a connection's state calls for.
fn desired_interest(conn: &Conn, cap: usize, drain_mode: bool) -> u32 {
    let mut mask = 0;
    match conn.state {
        ConnState::Open => {
            let paused =
                conn.inflight >= cap || conn.write_backed_up() || conn.peer_eof || drain_mode;
            if !paused {
                mask |= EV_READ;
            }
            if conn.pending_write_bytes() > 0 {
                mask |= EV_WRITE;
            }
        }
        ConnState::CloseAfterFlush => mask |= EV_WRITE,
        ConnState::Draining { .. } => mask |= EV_READ,
        ConnState::Dead => {}
    }
    mask
}
