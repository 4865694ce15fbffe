//! The hand-off between the front and the stage behind it.
//!
//! The front thread never runs queries. It cuts request frames off
//! connections and [`Batcher::submit`]s, once per turn of its loop,
//! what it cut; a dedicated thread — the index node's executor, the
//! router's dispatcher — pulls *batches* with [`Batcher::next_batch`]
//! and runs each through [`run_batch`], coalescing the query pairs of
//! many connections into one `FlatIndex::query_many` call or backend
//! frame: the paper's query path is so cheap (sub-microsecond resident)
//! that per-request overheads dominate, and batching amortizes them.
//!
//! The rule: a stage that is free takes everything queued for it.
//! `next_batch` blocks only while the queue is empty, so a lone request
//! is answered at once and what arrives while a batch runs is the next
//! batch — batches grow with the load; no timer, no threshold.
//!
//! Every request that is not answered inline is a [`Job`] on this one
//! queue: queries, and the three mutations — update, swap and compact —
//! each a barrier between the queries around it. An endpoint differs only
//! in its [`Stage`]: the node's executor, or the router's dispatcher.
//!
//! Results travel back through [`Completions`]: the stage answers each
//! job with a [`ResponseBody`], which [`Completions::answer`] encodes
//! for the job's [`Reply`] — a `HOPR` frame or an HTTP response, by
//! the one encoder the front's inline answers use too — and pushes
//! keyed by connection token, waking the front's wakeup fd; the front
//! drains the pile and queues the bytes onto the right connections.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::backend::out_of_range;
use crate::proto::{Reply, ResponseBody};
use crate::reactor::WakeFd;

/// One executable query job: (connection token, how to answer, query
/// pairs).
pub type QueryJob = (u64, Reply, Vec<(u32, u32)>);

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
        for (conn, reply, pairs) in jobs {
            match out_of_range(pairs.iter().copied(), n) {
                Some(msg) => completions.answer(conn, reply, &ResponseBody::Error(msg)),
                None => {
                    work.combined.extend_from_slice(&pairs);
                    work.jobs.push((conn, reply, pairs));
                }
            }
        }
        (!work.jobs.is_empty()).then_some(work)
    }

    /// Answer every job with its slice of `dists` (one distance per
    /// combined pair).
    pub fn complete(&self, dists: &[u32]) {
        let mut at = 0;
        for (conn, reply, pairs) in &self.jobs {
            let answers = ResponseBody::Distances(dists[at..at + pairs.len()].to_vec());
            self.completions.answer(*conn, *reply, &answers);
            at += pairs.len();
        }
    }

    /// Answer every job with the error `msg`.
    pub fn fail(&self, msg: &str) {
        let error = ResponseBody::Error(msg.to_string());
        for (conn, reply, _) in &self.jobs {
            self.completions.answer(*conn, *reply, &error);
        }
    }
}

/// One unit of work cut off a connection by the front.
#[derive(Debug)]
pub struct Job {
    /// Connection token the answer goes back to.
    pub conn: u64,
    /// How to answer.
    pub reply: Reply,
    /// What the request asks for.
    pub work: Work,
}

/// What a [`Job`] asks of the stage. Everything but a query is a
/// mutation, run on the stage between query batches: what was queued
/// before it answers from the old state and what is queued after it
/// sees the new one — per-connection pipelined ordering holds without
/// any extra synchronization.
#[derive(Debug)]
pub enum Work {
    /// A batch of distance queries from one request frame.
    Query(Vec<(u32, u32)>),
    /// A live batch of `(s, t, w)` edge insertions in original vertex ids.
    Update(Vec<(u32, u32, u32)>),
    /// A hot swap (on the stage, so the disk load never blocks the front).
    Swap,
    /// Fold the overlay into a fresh frozen generation: the node's
    /// executor hands it to the compactor thread, so it folds every
    /// update queued before it.
    Compact,
}

/// What an endpoint does with the jobs its front queues: the index node
/// answers them itself, the router forwards them to its backends. A
/// stage only gets the jobs its service's refusal hook lets through, so
/// the router, which refuses swaps and compactions, keeps the defaults.
pub trait Stage {
    /// Answer a run of consecutive query jobs (never empty).
    fn queries(&mut self, jobs: Vec<QueryJob>);
    /// Apply an update batch; `(generation, overlay edges)` on success.
    fn update(&mut self, edges: Vec<(u32, u32, u32)>) -> Result<(u64, u64), String>;
    /// Promote the swap image; `(generation, vertices)` on success.
    fn swap(&mut self) -> Result<(u64, u64), String> {
        Err(NOT_HERE.to_string())
    }
    /// Start a compaction that answers `conn` through `reply` when it
    /// ends; `Err` is the answer now.
    fn compact(&mut self, _conn: u64, _reply: Reply) -> Result<(), String> {
        Err(NOT_HERE.to_string())
    }
}

const NOT_HERE: &str = "this endpoint does not run that request";

/// Run one batch through `stage` in submission order. Updates, swaps
/// and compactions are barriers: the queries queued before one run
/// first, on the state it has not touched, and what is queued after it
/// sees what it did.
pub fn run_batch(jobs: Vec<Job>, completions: &Completions, stage: &mut impl Stage) {
    fn flush(queries: &mut Vec<QueryJob>, stage: &mut impl Stage) {
        if !queries.is_empty() {
            stage.queries(std::mem::take(queries));
        }
    }
    let mut queries: Vec<QueryJob> = Vec::new();
    for Job { conn, reply, work } in jobs {
        if !matches!(work, Work::Query(_)) {
            flush(&mut queries, stage);
        }
        let body = match work {
            Work::Query(pairs) => {
                queries.push((conn, reply, pairs));
                continue;
            }
            Work::Update(edges) => match stage.update(edges) {
                Ok((generation, overlay_edges)) => {
                    ResponseBody::Updated { generation, overlay_edges }
                }
                Err(e) => ResponseBody::Error(format!("update failed: {e}")),
            },
            Work::Swap => match stage.swap() {
                Ok((generation, vertices)) => ResponseBody::Swapped { generation, vertices },
                Err(e) => ResponseBody::Error(format!("swap failed: {e}")),
            },
            Work::Compact => match stage.compact(conn, reply) {
                Ok(()) => continue,
                Err(e) => ResponseBody::Error(e),
            },
        };
        completions.answer(conn, reply, &body);
    }
    flush(&mut queries, stage);
}

#[derive(Default)]
struct Queue {
    jobs: Vec<Job>,
    stopped: bool,
}

/// The shared front→stage job queue.
#[derive(Default)]
pub struct Batcher {
    queue: Mutex<Queue>,
    ready: Condvar,
}

impl Batcher {
    /// Queue `jobs` under one lock and one notify, so a turn's worth
    /// reaches the stage together.
    pub fn submit(&self, jobs: Vec<Job>) {
        if let Ok(mut q) = self.queue.lock() {
            q.jobs.extend(jobs);
            self.ready.notify_one();
        }
    }

    /// Take everything queued, blocking only while there is nothing.
    ///
    /// Returns `None` only when stopped *and* drained — pending jobs
    /// submitted before the stop are still delivered, so every accepted
    /// request gets its response during shutdown.
    pub fn next_batch(&self) -> Option<Vec<Job>> {
        let mut q = self.queue.lock().ok()?;
        while q.jobs.is_empty() {
            if q.stopped {
                return None;
            }
            q = self.ready.wait(q).ok()?;
        }
        Some(std::mem::take(&mut q.jobs))
    }

    /// Block while the queue is empty and running, but not past
    /// `deadline`: `true` once it has passed, `false` when `next_batch`
    /// would return at once. For a stage that owes work of its own by
    /// then (the node's WAL tail sync); batching has no deadline.
    pub fn wait_until(&self, deadline: Instant) -> bool {
        let Ok(mut q) = self.queue.lock() else { return false };
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return true;
            }
            if !q.jobs.is_empty() || q.stopped {
                return false;
            }
            match self.ready.wait_timeout(q, left) {
                Ok((guard, _)) => q = guard,
                Err(_) => return false,
            }
        }
    }

    /// Stop the queue — the front's last act, so nothing is submitted
    /// after it; queued jobs still drain through `next_batch`.
    pub fn stop(&self) {
        if let Ok(mut q) = self.queue.lock() {
            q.stopped = true;
        }
        self.ready.notify_all();
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

    /// Push the answer `body` to one request of `conn`, encoded for its
    /// `reply`, and wake the front.
    pub fn answer(&self, conn: u64, reply: Reply, body: &ResponseBody) {
        let (bytes, close_after) = reply.encode(body);
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
    use std::time::Duration;

    fn job(conn: u64, work: Work) -> Job {
        Job { conn, reply: Reply::Hopq { id: conn }, work }
    }

    fn query(conn: u64, pairs: usize) -> Job {
        job(conn, Work::Query(vec![(0, 0); pairs]))
    }

    fn conns(batch: &[Job]) -> Vec<u64> {
        batch.iter().map(|job| job.conn).collect()
    }

    #[test]
    fn lone_job_is_taken_without_waiting() {
        let b = Batcher::default();
        b.submit(vec![query(1, 1)]);
        let start = Instant::now();
        assert_eq!(conns(&b.next_batch().unwrap()), [1]);
        assert!(start.elapsed() < Duration::from_secs(1), "a queued job must not wait for company");
    }

    #[test]
    fn jobs_submitted_while_the_consumer_is_busy_come_back_as_one_batch() {
        let b = Arc::new(Batcher::default());
        let (busy_tx, busy_rx) = std::sync::mpsc::channel();
        let (resume_tx, resume_rx) = std::sync::mpsc::channel::<()>();
        let consumer = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let first = b.next_batch().unwrap();
                busy_tx.send(()).unwrap();
                resume_rx.recv().unwrap(); // "running" the first batch
                (conns(&first), conns(&b.next_batch().unwrap()))
            })
        };
        b.submit(vec![query(1, 1)]);
        busy_rx.recv().unwrap();
        // Three hand-offs, one of them two jobs, while the consumer works.
        b.submit(vec![query(2, 3)]);
        b.submit(vec![query(3, 5), job(4, Work::Swap)]);
        b.submit(vec![query(5, 1)]);
        resume_tx.send(()).unwrap();
        let (first, second) = consumer.join().unwrap();
        assert_eq!(first, [1]);
        assert_eq!(second, [2, 3, 4, 5], "one batch, in submission order");
    }

    #[test]
    fn swap_jobs_flush_immediately_and_stop_drains() {
        let b = Batcher::default();
        b.submit(vec![query(1, 1), job(2, Work::Swap)]);
        assert_eq!(conns(&b.next_batch().unwrap()), [1, 2]);

        b.submit(vec![query(3, 1)]);
        b.stop();
        assert_eq!(conns(&b.next_batch().unwrap()), [3], "queued job still drains after stop");
        assert!(b.next_batch().is_none());
    }

    #[test]
    fn wait_until_ends_at_the_deadline_or_at_the_first_job() {
        let b = Batcher::default();
        let start = Instant::now();
        assert!(b.wait_until(start + Duration::from_millis(20)), "nothing queued: the deadline");
        assert!(start.elapsed() >= Duration::from_millis(20));
        b.submit(vec![query(1, 1)]);
        assert!(!b.wait_until(Instant::now() + Duration::from_secs(60)), "a job ends the wait");
        assert!(b.wait_until(Instant::now()), "a passed deadline wins over queued jobs");
    }

    /// A stage that records what it was asked to do, in order.
    #[derive(Default)]
    struct Recorder(Vec<String>);

    impl Stage for Recorder {
        fn queries(&mut self, jobs: Vec<QueryJob>) {
            let conns: Vec<u64> = jobs.iter().map(|job| job.0).collect();
            self.0.push(format!("queries {conns:?}"));
        }

        fn update(&mut self, edges: Vec<(u32, u32, u32)>) -> Result<(u64, u64), String> {
            self.0.push(format!("update {edges:?}"));
            Ok((1, edges.len() as u64))
        }

        fn swap(&mut self) -> Result<(u64, u64), String> {
            self.0.push("swap".to_string());
            Err("no swap image".to_string())
        }

        fn compact(&mut self, conn: u64, _reply: Reply) -> Result<(), String> {
            self.0.push(format!("compact {conn}"));
            Ok(())
        }
    }

    #[test]
    fn run_batch_answers_each_query_run_before_the_barrier_behind_it() {
        let completions = Completions::new(Arc::new(WakeFd::new().unwrap()));
        let update = |conn| job(conn, Work::Update(vec![(0, 1, 1)]));
        let jobs = vec![
            query(1, 1),
            query(2, 2),
            update(3),
            update(4),
            query(5, 1),
            job(6, Work::Swap),
            query(7, 1),
            job(8, Work::Compact),
            query(9, 1),
        ];
        let mut stage = Recorder::default();
        run_batch(jobs, &completions, &mut stage);
        assert_eq!(
            stage.0,
            [
                "queries [1, 2]",
                "update [(0, 1, 1)]",
                "update [(0, 1, 1)]",
                "queries [5]",
                "swap",
                "queries [7]",
                "compact 8",
                "queries [9]"
            ]
        );
        // Updates and swaps were answered here, in order; queries, and a
        // compaction the stage took, are the stage's to answer.
        let answered: Vec<u64> = completions.drain().iter().map(|done| done.conn).collect();
        assert_eq!(answered, [3, 4, 6]);
        run_batch(Vec::new(), &completions, &mut stage);
        assert_eq!(stage.0.len(), 8, "an empty batch asks nothing of the stage");

        // A stage that keeps the defaults refuses swaps and compactions.
        struct QueriesOnly;
        impl Stage for QueriesOnly {
            fn queries(&mut self, _: Vec<QueryJob>) {}
            fn update(&mut self, _: Vec<(u32, u32, u32)>) -> Result<(u64, u64), String> {
                Err("no updates".to_string())
            }
        }
        let jobs = vec![job(1, Work::Swap), job(2, Work::Compact)];
        run_batch(jobs, &completions, &mut QueriesOnly);
        let answered: Vec<u64> = completions.drain().iter().map(|done| done.conn).collect();
        assert_eq!(answered, [1, 2]);
    }

    #[test]
    fn completions_wake_the_reactor() {
        use crate::reactor::{Poller, EV_READ};
        let wake = Arc::new(WakeFd::new().unwrap());
        let mut poller = Poller::new(4).unwrap();
        poller.register(&*wake, EV_READ, 1).unwrap();
        let completions = Completions::new(Arc::clone(&wake));
        completions.answer(7, Reply::Hopq { id: 3 }, &ResponseBody::Bye);
        let mut woke = false;
        poller.wait(Some(1000), |ev| woke = ev.token == 1).unwrap();
        assert!(woke);
        let drained = completions.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].conn, 7);
        let bye = crate::proto::Response { id: 3, body: ResponseBody::Bye }.encode();
        assert_eq!((&drained[0].bytes, drained[0].close_after), (&bye, false));
    }
}
