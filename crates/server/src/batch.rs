//! Adaptive micro-batching between the front and its executor.
//!
//! The front thread never runs queries. It cuts query frames off
//! connections and [`Batcher::submit`]s them; a dedicated executor
//! thread pulls *batches* with [`Batcher::next_batch`], coalescing the
//! query pairs of many connections into one `FlatIndex::query_many`
//! call — the paper's query path is so cheap (sub-microsecond resident)
//! that per-request overheads dominate, and batching amortizes them.
//!
//! A batch is released when either
//!
//! * the queued pair count reaches the coalescing threshold
//!   (`coalesce_pairs`), or
//! * the oldest queued job has waited the flush deadline (`flush_us`) —
//!   the knob that bounds the latency a lonely request pays for the
//!   chance of company.
//!
//! The poller's timeout has millisecond granularity, so
//! sub-millisecond deadlines live here instead: the executor parks on a
//! condition variable with `wait_timeout` against the oldest job's
//! deadline.
//!
//! Results travel back through [`Completions`]: the executor pushes
//! encoded response bytes keyed by connection token and wakes the
//! front's wakeup fd; the front drains the pile and queues the bytes
//! onto the right connections. How an answer is encoded — `HOPR` frame
//! or HTTP response — is decided here, by [`RespondAs`] and
//! [`UpdateRespond`], for the index node and the router alike.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::http;
use crate::proto::{Response, ResponseBody};
use crate::reactor::WakeFd;

/// How a job's answer should be encoded once the distances are known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RespondAs {
    /// A binary `HOPR` distances frame echoing this request id.
    Hopq {
        /// Client-chosen request id.
        id: u64,
    },
    /// A `GET /query` JSON object (single pair).
    HttpOne {
        /// Close the connection after this response.
        close: bool,
    },
    /// A `POST /query_many` JSON array.
    HttpMany {
        /// Close the connection after this response.
        close: bool,
    },
}

impl RespondAs {
    /// Encode the answers to `pairs`: the response bytes and whether
    /// the connection closes after them.
    pub fn distances(self, pairs: &[(u32, u32)], dists: &[u32]) -> (Vec<u8>, bool) {
        match self {
            RespondAs::Hopq { id } => {
                (Response { id, body: ResponseBody::Distances(dists.to_vec()) }.encode(), false)
            }
            RespondAs::HttpOne { close } => {
                (http::render_query_one(pairs[0].0, pairs[0].1, dists[0], close), close)
            }
            RespondAs::HttpMany { close } => (http::render_query_many(dists, close), close),
        }
    }

    /// Encode a failed query: an error frame that keeps a `HOPQ`
    /// connection, a `400` that closes an HTTP one.
    pub fn error(self, msg: &str) -> (Vec<u8>, bool) {
        match self {
            RespondAs::Hopq { id } => (Response::error(id, msg).encode(), false),
            RespondAs::HttpOne { .. } | RespondAs::HttpMany { .. } => {
                (http::render_error(400, msg), true)
            }
        }
    }
}

/// How an update job's ack should be encoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateRespond {
    /// A binary `HOPR` updated frame echoing this request id.
    Hopq {
        /// Client-chosen request id.
        id: u64,
    },
    /// A `POST /update` JSON object.
    Http {
        /// Close the connection after this response.
        close: bool,
    },
}

impl UpdateRespond {
    /// Encode an update's `(generation, overlay_edges)` ack or its
    /// failure: the response bytes and whether the connection closes.
    pub fn outcome(self, result: Result<(u64, u64), String>) -> (Vec<u8>, bool) {
        match (self, result) {
            (UpdateRespond::Hopq { id }, Ok((generation, overlay_edges))) => {
                let body = ResponseBody::Updated { generation, overlay_edges };
                (Response { id, body }.encode(), false)
            }
            (UpdateRespond::Hopq { id }, Err(e)) => {
                (Response::error(id, &format!("update failed: {e}")).encode(), false)
            }
            (UpdateRespond::Http { close }, Ok((generation, overlay_edges))) => {
                (http::render_update(generation, overlay_edges, close), close)
            }
            (UpdateRespond::Http { .. }, Err(e)) => {
                (http::render_error(400, &format!("update failed: {e}")), true)
            }
        }
    }
}

/// One executable query job: (connection token, response encoding,
/// query pairs).
pub type QueryJob = (u64, RespondAs, Vec<(u32, u32)>);

/// A coalesced query batch, for the index node's executor and the
/// router alike: the jobs whose pairs are all in range, and those pairs
/// back to back in one vector — one `query_many` call or one backend
/// frame answers them all.
pub struct BatchWork {
    jobs: Vec<QueryJob>,
    /// Every job's pairs, in job order.
    pub combined: Vec<(u32, u32)>,
    completions: Arc<Completions>,
}

impl BatchWork {
    /// Range-check `jobs` against an `n`-vertex index, one job at a
    /// time so a bad frame cannot fail its batchmates: an out-of-range
    /// job is answered with an error here, the rest are kept. `None`
    /// when no job is left.
    pub fn cut(jobs: Vec<QueryJob>, n: u64, completions: &Arc<Completions>) -> Option<BatchWork> {
        let mut work = BatchWork {
            jobs: Vec::new(),
            combined: Vec::new(),
            completions: Arc::clone(completions),
        };
        for (conn, respond, pairs) in jobs {
            match pairs.iter().find(|&&(s, t)| u64::from(s) >= n || u64::from(t) >= n) {
                Some(&(s, t)) => {
                    let msg = format!("vertex out of range: ({s}, {t}) on a {n}-vertex index");
                    completions.answer(conn, respond.error(&msg));
                }
                None => {
                    work.combined.extend_from_slice(&pairs);
                    work.jobs.push((conn, respond, pairs));
                }
            }
        }
        (!work.jobs.is_empty()).then_some(work)
    }

    /// Answer every job with its slice of `dists` (one distance per
    /// combined pair).
    pub fn complete(&self, dists: &[u32]) {
        let mut at = 0;
        for (conn, respond, pairs) in &self.jobs {
            let answers = &dists[at..at + pairs.len()];
            self.completions.answer(*conn, respond.distances(pairs, answers));
            at += pairs.len();
        }
    }

    /// Answer every job with the error `msg`.
    pub fn fail(&self, msg: &str) {
        for (conn, respond, _) in &self.jobs {
            self.completions.answer(*conn, respond.error(msg));
        }
    }
}

/// One unit of work cut off a connection by the front.
#[derive(Debug)]
pub enum Job {
    /// A batch of distance queries from one request frame.
    Query {
        /// Connection token the answer goes back to.
        conn: u64,
        /// Response encoding.
        respond: RespondAs,
        /// The query pairs.
        pairs: Vec<(u32, u32)>,
    },
    /// A hot-swap request (runs on the executor so the disk load never
    /// blocks the front).
    Swap {
        /// Connection token the answer goes back to.
        conn: u64,
        /// Client-chosen request id.
        id: u64,
    },
    /// A live edge-insertion batch. Runs on the executor, between query
    /// batches, so queries submitted before it see the old overlay and
    /// queries after it see the new one — per-connection pipelined
    /// ordering holds without any extra synchronization.
    Update {
        /// Connection token the ack goes back to.
        conn: u64,
        /// Ack encoding.
        respond: UpdateRespond,
        /// `(s, t, w)` edge insertions in original vertex ids.
        edges: Vec<(u32, u32, u32)>,
    },
}

impl Job {
    /// The request id to echo when this job is answered with a `HOPR`
    /// frame; `None` for a job that arrived over HTTP.
    pub fn hopq_id(&self) -> Option<u64> {
        match self {
            Job::Query { respond: RespondAs::Hopq { id }, .. }
            | Job::Update { respond: UpdateRespond::Hopq { id }, .. }
            | Job::Swap { id, .. } => Some(*id),
            Job::Query { .. } | Job::Update { .. } => None,
        }
    }

    fn pairs(&self) -> usize {
        match self {
            Job::Query { pairs, .. } => pairs.len(),
            // Swaps and updates flush the queue on their own; weight
            // them like a full batch so they never linger behind the
            // deadline (and so queued queries keep their submission
            // ordering relative to the mutation).
            Job::Swap { .. } | Job::Update { .. } => usize::MAX,
        }
    }
}

struct Queue {
    jobs: Vec<Job>,
    pending_pairs: usize,
    oldest: Option<Instant>,
    stopped: bool,
}

/// The shared front→executor job queue with coalescing flush rules.
pub struct Batcher {
    queue: Mutex<Queue>,
    ready: Condvar,
}

impl Batcher {
    /// An empty queue.
    pub fn new() -> Batcher {
        Batcher {
            queue: Mutex::new(Queue {
                jobs: Vec::new(),
                pending_pairs: 0,
                oldest: None,
                stopped: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Queue a job. Returns `false` (job dropped) after [`Batcher::stop`].
    pub fn submit(&self, job: Job) -> bool {
        let Ok(mut q) = self.queue.lock() else { return false };
        if q.stopped {
            return false;
        }
        q.pending_pairs = q.pending_pairs.saturating_add(job.pairs());
        q.oldest.get_or_insert_with(Instant::now);
        q.jobs.push(job);
        self.ready.notify_one();
        true
    }

    /// Block until a batch is due, and take the whole queue.
    ///
    /// Returns `None` only when stopped *and* drained — pending jobs
    /// submitted before the stop are still delivered, so every accepted
    /// request gets its response during shutdown.
    pub fn next_batch(&self, coalesce_pairs: usize, flush_after: Duration) -> Option<Vec<Job>> {
        let mut q = self.queue.lock().ok()?;
        loop {
            if !q.jobs.is_empty() {
                let due = q.stopped
                    || q.pending_pairs >= coalesce_pairs
                    || q.oldest.is_some_and(|t| t.elapsed() >= flush_after);
                if due {
                    q.pending_pairs = 0;
                    q.oldest = None;
                    return Some(std::mem::take(&mut q.jobs));
                }
                // Not due yet: park until the oldest job's deadline.
                let remaining = q
                    .oldest
                    .map(|t| flush_after.saturating_sub(t.elapsed()))
                    .unwrap_or(flush_after);
                let (guard, _) = self.ready.wait_timeout(q, remaining).ok()?;
                q = guard;
            } else if q.stopped {
                return None;
            } else {
                q = self.ready.wait(q).ok()?;
            }
        }
    }

    /// Stop the queue: future submits are refused, queued jobs still
    /// drain through [`Batcher::next_batch`].
    pub fn stop(&self) {
        if let Ok(mut q) = self.queue.lock() {
            q.stopped = true;
        }
        self.ready.notify_all();
    }
}

impl Default for Batcher {
    fn default() -> Batcher {
        Batcher::new()
    }
}

/// One finished job: the answer to one in-flight request of a
/// connection.
#[derive(Debug)]
pub struct Completion {
    /// Connection token.
    pub conn: u64,
    /// Encoded response (HOPR frame or HTTP response).
    pub bytes: Vec<u8>,
    /// Close the connection once these bytes flush.
    pub close_after: bool,
}

/// The executor→front completion pile, coupled to the front's wakeup
/// fd.
pub struct Completions {
    pile: Mutex<Vec<Completion>>,
    wake: Arc<WakeFd>,
}

impl Completions {
    /// An empty pile that wakes `wake` on every push.
    pub fn new(wake: Arc<WakeFd>) -> Completions {
        Completions { pile: Mutex::new(Vec::new()), wake }
    }

    /// Push the `(bytes, close_after)` answer to one request of `conn`
    /// and wake the front.
    pub fn answer(&self, conn: u64, (bytes, close_after): (Vec<u8>, bool)) {
        if let Ok(mut pile) = self.pile.lock() {
            pile.push(Completion { conn, bytes, close_after });
        }
        self.wake.wake();
    }

    /// Take everything queued (front side).
    pub fn drain(&self) -> Vec<Completion> {
        self.pile.lock().map(|mut pile| std::mem::take(&mut *pile)).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(conn: u64, pairs: usize) -> Job {
        Job::Query { conn, respond: RespondAs::Hopq { id: conn }, pairs: vec![(0, 0); pairs] }
    }

    #[test]
    fn flushes_on_pair_threshold_without_waiting() {
        let b = Batcher::new();
        assert!(b.submit(query(1, 3)));
        assert!(b.submit(query(2, 5)));
        let start = Instant::now();
        let batch = b.next_batch(8, Duration::from_secs(60)).unwrap();
        assert_eq!(batch.len(), 2);
        assert!(start.elapsed() < Duration::from_secs(5), "threshold flush must not wait");
    }

    #[test]
    fn flushes_on_deadline_when_below_threshold() {
        let b = Batcher::new();
        assert!(b.submit(query(1, 1)));
        let start = Instant::now();
        let batch = b.next_batch(1_000_000, Duration::from_millis(20)).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(start.elapsed() >= Duration::from_millis(15), "flushed before the deadline");
    }

    #[test]
    fn swap_jobs_flush_immediately_and_stop_drains() {
        let b = Batcher::new();
        assert!(b.submit(query(1, 1)));
        assert!(b.submit(Job::Swap { conn: 2, id: 9 }));
        let batch = b.next_batch(1_000_000, Duration::from_secs(60)).unwrap();
        assert_eq!(batch.len(), 2, "swap weight forces the flush");

        assert!(b.submit(query(3, 1)));
        b.stop();
        assert!(!b.submit(query(4, 1)), "submit after stop must refuse");
        let drained = b.next_batch(1_000_000, Duration::from_secs(60)).unwrap();
        assert_eq!(drained.len(), 1, "queued job still drains after stop");
        assert!(b.next_batch(8, Duration::from_millis(1)).is_none());
    }

    #[test]
    fn completions_wake_the_reactor() {
        use crate::reactor::{Poller, EV_READ};
        let wake = Arc::new(WakeFd::new().unwrap());
        let mut poller = Poller::new(4).unwrap();
        poller.register(&*wake, EV_READ, 1).unwrap();
        let completions = Completions::new(Arc::clone(&wake));
        completions.answer(7, (vec![1, 2, 3], false));
        let mut woke = false;
        poller.wait(Some(1000), |ev| woke = ev.token == 1).unwrap();
        assert!(woke);
        let drained = completions.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].conn, 7);
    }
}
