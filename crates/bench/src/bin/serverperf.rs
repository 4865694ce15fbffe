#![forbid(unsafe_code)]
//! Serving-path performance snapshot (the CI `server-perf` artifact).
//!
//! Boots a real `hopdb-server` daemon on an ephemeral loopback port
//! over a GLP-built index, then drives it with fast clients — each one
//! TCP connection issuing `--batch`-pair query frames, keeping
//! `--pipeline` requests in flight (1 = classic closed loop) — at 1
//! connection and at `--conns` connections. `--slow-conns` adds
//! background connections that trickle single-pair queries with
//! 10–20 ms pauses, so the latency gate reflects a mixed fleet: slow
//! pollers must not drag the fast clients' tail. `--update-conns K`
//! adds K background connections streaming live edge-insert (`update`)
//! frames from a fixed deterministic pool, and appends a third run
//! recording query p99 *under writes*; afterwards the tool verifies a
//! compaction promoted under concurrent query fire: every response
//! during and after the promotion must be bit-identical to an
//! in-process build of the mutated graph — no drops, no mixed
//! generations.
//!
//! Before any timing, every served answer is asserted bit-identical to
//! in-process `FlatIndex::query_many`.
//!
//! The snapshot lands in `BENCH_server.json`: pairs/second (QPS) and
//! request latency percentiles (p50/p99) per connection count, plus
//! the pipelining depth and write mix.
//!
//! Gates (any failure exits non-zero):
//!
//! * `--min-qps N` — pairs/second floor at `--conns` connections.
//! * `--max-p99-us N` — fast-client p99 request latency ceiling (µs)
//!   at `--conns` connections, measured with the slow fleet running
//!   (without the write mix — writes get their own run entry).
//! * `--max-write-p99-us N` — p99 ceiling for the under-writes run
//!   (requires `--update-conns`), gating the write path's impact.
//! * with `--update-conns`, the compaction-under-load check above.
//!
//! `--durability off|batch|always` runs the daemon with a write-ahead
//! log in a scratch directory, so the write mix pays the real
//! log-before-ack cost the durability tier adds.
//!
//! ```text
//! BENCH_SCALE=small cargo run --release -p bench --bin serverperf -- \
//!     --conns 4 --batch 256 --pipeline 8 --slow-conns 2 \
//!     --update-conns 2 --durability batch --min-qps 150000 \
//!     --max-p99-us 50000 --max-write-p99-us 80000 -o BENCH_server.json
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bench::Scale;
use graphgen::{glp, GlpParams};
use hopdb::{build_prelabeled, HopDbConfig};
use hopdb_server::client::Session;
use hopdb_server::{serve, Client, ServerConfig};
use hoplabels::disk::DiskIndex;
use hoplabels::flat::FlatIndex;
use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use sfgraph::VertexId;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// One connection-count measurement.
struct Run {
    conns: usize,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    requests: usize,
    slow_requests: usize,
    update_conns: usize,
    update_frames: usize,
}

/// Drive the server from `conns` fast connections (each keeping
/// `pipeline` requests in flight) while `slow_conns` background
/// connections trickle single-pair queries with 10–20 ms pauses and
/// `update_conns` background connections stream edge inserts from
/// `update_pool`. Percentiles cover the fast clients only — the gate
/// is about background traffic not wrecking the fast tail, not about
/// the background connections themselves.
#[allow(clippy::too_many_arguments)]
fn measure(
    addr: std::net::SocketAddr,
    pairs: &[(VertexId, VertexId)],
    conns: usize,
    batch: usize,
    requests_per_conn: usize,
    pipeline: usize,
    slow_conns: usize,
    update_conns: usize,
    update_pool: &[(VertexId, VertexId, u32)],
) -> Run {
    let stop_slow = AtomicBool::new(false);
    let started = Instant::now();
    let (mut latencies, wall, slow_requests, update_frames) = std::thread::scope(|scope| {
        let slow: Vec<_> = (0..slow_conns)
            .map(|c| {
                let stop_slow = &stop_slow;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("slow connect");
                    let (mut count, mut i) = (0usize, c * 13);
                    while !stop_slow.load(Ordering::Relaxed) {
                        let (s, t) = pairs[i % pairs.len()];
                        client.query_one(s, t).expect("slow query");
                        count += 1;
                        std::thread::sleep(Duration::from_millis(10 + (i % 11) as u64));
                        i += 7;
                    }
                    count
                })
            })
            .collect();

        // Writers cycle a fixed pool, so the overlay stays bounded (the
        // log dedups) while every frame still exercises the full
        // update path: log append, overlay rebuild, generation publish.
        let updaters: Vec<_> = (0..update_conns)
            .map(|c| {
                let stop_slow = &stop_slow;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("update connect");
                    let (mut count, mut at) = (0usize, (c * 3) % update_pool.len());
                    while !stop_slow.load(Ordering::Relaxed) {
                        let end = (at + 8).min(update_pool.len());
                        client.update(&update_pool[at..end]).expect("update frame");
                        count += 1;
                        at = if end == update_pool.len() { 0 } else { end };
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    count
                })
            })
            .collect();

        let fast: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut session = Session::connect(addr).expect("connect");
                    let mut window: VecDeque<(hopdb_server::client::Ticket, Instant)> =
                        VecDeque::with_capacity(pipeline);
                    let mut lat = Vec::with_capacity(requests_per_conn);
                    let redeem =
                        |session: &mut Session, window: &mut VecDeque<_>, lat: &mut Vec<f64>| {
                            let (ticket, t0): (_, Instant) = window.pop_front().unwrap();
                            let got = session.wait(ticket).expect("wait");
                            lat.push(t0.elapsed().as_secs_f64() * 1e6);
                            assert_eq!(got.len(), batch);
                        };
                    for r in 0..requests_per_conn {
                        // Each request replays a rotating window so
                        // different connections touch different pairs.
                        let at = (c * 31 + r * batch) % (pairs.len() - batch);
                        window.push_back((
                            session.submit(&pairs[at..at + batch]).expect("submit"),
                            Instant::now(),
                        ));
                        if window.len() >= pipeline.max(1) {
                            redeem(&mut session, &mut window, &mut lat);
                        }
                    }
                    while !window.is_empty() {
                        redeem(&mut session, &mut window, &mut lat);
                    }
                    lat
                })
            })
            .collect();

        let latencies: Vec<f64> =
            fast.into_iter().flat_map(|h| h.join().expect("fast client")).collect();
        let wall = started.elapsed().as_secs_f64();
        stop_slow.store(true, Ordering::Relaxed);
        let slow_requests = slow.into_iter().map(|h| h.join().expect("slow client")).sum();
        let update_frames = updaters.into_iter().map(|h| h.join().expect("updater")).sum();
        (latencies, wall, slow_requests, update_frames)
    });
    latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    let total_requests = conns * requests_per_conn;
    Run {
        conns,
        qps: (total_requests * batch) as f64 / wall,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        requests: total_requests,
        slow_requests,
        update_conns,
        update_frames,
    }
}

/// `count` distinct weight-1..3 edges over `n` vertices, deterministic
/// in `seed`, pair-unique so the overlay log dedups to `count` edges.
fn update_edge_pool(n: usize, count: usize, seed: u64) -> Vec<(VertexId, VertexId, u32)> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut seen = std::collections::HashSet::new();
    let mut pool = Vec::with_capacity(count);
    while pool.len() < count {
        let (s, t) = ((next() % n as u64) as VertexId, (next() % n as u64) as VertexId);
        let (lo, hi) = (s.min(t), s.max(t));
        if lo != hi && seen.insert((lo, hi)) {
            pool.push((s, t, (next() % 3) as u32 + 1));
        }
    }
    pool
}

/// Apply the whole pool (the writers cycled it, so this is idempotent),
/// build the mutated graph from scratch in-process, then fire `conns`
/// query threads that assert every response against that ground truth
/// while the main thread promotes a compaction. Panics — failing the
/// bench run — on any dropped, erroring, or misanswered query.
fn verify_compaction_under_load(
    addr: std::net::SocketAddr,
    g: &sfgraph::Graph,
    update_pool: &[(VertexId, VertexId, u32)],
    sweep: &[(VertexId, VertexId)],
    conns: usize,
    batch: usize,
) {
    use sfgraph::builder::GraphBuilder;

    let mut admin = Client::connect(addr).expect("verify connect");
    admin.update(update_pool).expect("apply full pool");

    // From-scratch oracle: base graph + pool, rebuilt and re-ranked the
    // same way the daemon's compactor does it.
    let mut b = GraphBuilder::new_undirected(g.num_vertices()).weighted();
    for (u, v, w) in g.edge_list() {
        b.add_weighted_edge(u, v, w);
    }
    for &(u, v, w) in update_pool {
        b.add_weighted_edge(u, v, w);
    }
    let mutated = b.build();
    let ranking = rank_vertices(&mutated, &RankBy::Degree);
    let relabeled = relabel_by_rank(&mutated, &ranking);
    let (index, _) = build_prelabeled(&relabeled, &HopDbConfig::default().with_parallelism(0));
    let flat = FlatIndex::from_index(&index);
    let ranked: Vec<(VertexId, VertexId)> =
        sweep.iter().map(|&(s, t)| (ranking.rank_of(s), ranking.rank_of(t))).collect();
    let expect = flat.query_many(&ranked, 0);

    let stop = AtomicBool::new(false);
    let answered = std::thread::scope(|scope| {
        let fleet: Vec<_> = (0..conns)
            .map(|c| {
                let (stop, sweep, expect) = (&stop, sweep, &expect);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("fleet connect");
                    let mut answered = 0usize;
                    let mut at = (c * 127) % sweep.len();
                    while !stop.load(Ordering::Relaxed) {
                        let end = (at + batch).min(sweep.len());
                        let got = client.query(&sweep[at..end]).expect("query during compaction");
                        assert_eq!(
                            got,
                            expect[at..end],
                            "misanswered query during compaction promotion"
                        );
                        answered += end - at;
                        at = if end == sweep.len() { 0 } else { end };
                    }
                    answered
                })
            })
            .collect();

        std::thread::sleep(Duration::from_millis(100));
        let (generation, _) = admin.compact().expect("compact under load");
        assert!(generation >= 2, "compaction did not bump the generation");
        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, Ordering::Relaxed);
        fleet.into_iter().map(|h| h.join().expect("fleet thread")).sum::<usize>()
    });
    let info = admin.info().expect("info");
    assert_eq!(info.overlay_edges, 0, "compaction must drain the overlay");
    eprintln!(
        "  compaction under load ok: {answered} pairs answered across the promotion \
         (generation {}, {} compactions)",
        info.generation, info.compactions
    );
}

/// The `--router` variant: boot two real backend daemons (same image
/// for `replica`, a pivot-range split for `shard`), front them with
/// `serve_router`, assert routed answers are byte-identical to the
/// in-process `FlatIndex`, measure QPS/p99 through the router, and —
/// replica mode — kill one backend under fire and require zero lost
/// queries. The snapshot lands in `BENCH_router.json`.
#[allow(clippy::too_many_lines)]
fn router_main(args: &[String], modes: &str) {
    use hopdb_server::{serve_router, RouteMode, RouterConfig};

    let scale = Scale::from_env();
    let out_path = arg_value(args, "-o").unwrap_or_else(|| "BENCH_router.json".to_string());
    let conns: usize = arg_value(args, "--conns").map_or(4, |v| v.parse().expect("bad --conns"));
    let batch: usize = arg_value(args, "--batch").map_or(256, |v| v.parse().expect("bad --batch"));
    let pipeline: usize =
        arg_value(args, "--pipeline").map_or(1, |v| v.parse().expect("bad --pipeline"));
    let min_qps: Option<f64> =
        arg_value(args, "--min-qps").map(|v| v.parse().expect("bad --min-qps"));
    let max_p99_us: Option<f64> =
        arg_value(args, "--max-p99-us").map(|v| v.parse().expect("bad --max-p99-us"));
    let modes: Vec<RouteMode> = match modes {
        "replica" => vec![RouteMode::Replica],
        "shard" => vec![RouteMode::Shard],
        "both" => vec![RouteMode::Replica, RouteMode::Shard],
        other => panic!("bad --router {other} (replica|shard|both)"),
    };

    let (n, density, requests_per_conn) = match scale {
        Scale::Small => (4_000, 3.0, 300),
        Scale::Medium => (12_000, 4.0, 1_000),
        Scale::Large => (40_000, 4.0, 3_000),
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "serverperf --router: GLP n={n} d={density} (scale {scale:?}, {cores} cores, \
         2 backends per mode, batch {batch}, pipeline {pipeline})"
    );
    let g = glp(&GlpParams::with_density(n, density, 42));
    let ranking = rank_vertices(&g, &RankBy::Degree);
    let relabeled = relabel_by_rank(&g, &ranking);
    let (index, _) = build_prelabeled(&relabeled, &HopDbConfig::default().with_parallelism(0));
    let flat = FlatIndex::from_index(&index);

    // Stage the whole image plus a 2-way shard split, each with the
    // `.rank` sidecar so the wire speaks original vertex ids (the
    // shard router then broadcasts — exact either way).
    let dir = std::env::temp_dir().join(format!("hopdb-routerperf-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("stage dir");
    let store = extmem::device::TempStore::new().expect("temp store");
    let staged = DiskIndex::create(&index, &store, "routerperf").expect("serialize").persist();
    let image = std::fs::read(&staged).expect("read image");
    std::fs::remove_file(staged).ok();
    let rank_bytes = ranking.to_sidecar_bytes();
    let stage = |name: &str, bytes: &[u8]| -> std::path::PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("stage image");
        std::fs::write(format!("{}.rank", path.to_string_lossy()), &rank_bytes)
            .expect("stage sidecar");
        path
    };
    let whole_a = stage("whole-a.idx", &image);
    let whole_b = stage("whole-b.idx", &image);
    let shard_paths: Vec<std::path::PathBuf> = hoplabels::shard_image(&image, 2)
        .expect("shard")
        .into_iter()
        .map(|(bytes, spec)| {
            let path = stage(&format!("shard{}.idx", spec.index), &bytes);
            std::fs::write(format!("{}.shard", path.to_string_lossy()), spec.encode())
                .expect("stage shard sidecar");
            path
        })
        .collect();

    let sweep = bench::query_pairs(&relabeled, 65_536.max(batch * 8), 0xBEEF);
    let ranked_sweep: Vec<(VertexId, VertexId)> =
        sweep.iter().map(|&(s, t)| (ranking.rank_of(s), ranking.rank_of(t))).collect();
    let expect = flat.query_many(&ranked_sweep, 0);

    let mut failed = false;
    let mut mode_jsons = Vec::new();
    for mode in modes {
        let backends: Vec<_> = match mode {
            RouteMode::Replica => vec![&whole_a, &whole_b],
            RouteMode::Shard => shard_paths.iter().collect(),
        }
        .into_iter()
        .map(|path| serve("127.0.0.1:0", path, ServerConfig::default()).expect("backend"))
        .collect();
        let rt = serve_router(
            "127.0.0.1:0",
            RouterConfig {
                mode,
                backends: backends.iter().map(|b| b.local_addr()).collect(),
                ..RouterConfig::default()
            },
        )
        .expect("router");
        let addr = rt.local_addr();
        let tag = format!("{mode:?}").to_lowercase();
        eprintln!("  {tag} router on {addr} over {} backends", backends.len());

        // Correctness gate before any timing: routed answers must be
        // byte-identical to the in-process flat index.
        let mut checker = Client::connect(addr).expect("connect");
        let mut served = Vec::with_capacity(sweep.len());
        for chunk in sweep.chunks(batch.max(1)) {
            served.extend(checker.query(chunk).expect("sweep query"));
        }
        assert_eq!(served, expect, "{tag}: routed distances diverge from FlatIndex::query_many");
        drop(checker);
        eprintln!("  {tag}: answers byte-identical to FlatIndex on {} pairs", sweep.len());

        let pairs = &sweep;
        measure(addr, pairs, 1, batch, requests_per_conn / 4 + 1, pipeline, 0, 0, &[]);
        let runs = [
            measure(addr, pairs, 1, batch, requests_per_conn, pipeline, 0, 0, &[]),
            measure(addr, pairs, conns, batch, requests_per_conn, pipeline, 0, 0, &[]),
        ];
        for run in &runs {
            eprintln!(
                "  {tag} {} conn(s): {:>10.0} pairs/s   p50 {:>7.1} µs   p99 {:>7.1} µs",
                run.conns, run.qps, run.p50_us, run.p99_us,
            );
        }
        if let Some(want) = min_qps {
            let got = runs[1].qps;
            if got < want {
                eprintln!("{tag} QPS regression: {got:.0} pairs/s, gate wants {want:.0}");
                failed = true;
            }
        }
        if let Some(want) = max_p99_us {
            let got = runs[1].p99_us;
            if got > want {
                eprintln!("{tag} p99 regression: {got:.1} µs, gate allows {want:.1}");
                failed = true;
            }
        }

        // Availability gate (replica only): kill one of the two
        // backends while a fleet fires through the router. Zero lost
        // or misanswered queries allowed, and the failover counter
        // must prove the dead backend was actually in rotation.
        let mut availability_checked = false;
        if mode == RouteMode::Replica {
            let stop = AtomicBool::new(false);
            let mut backends = backends;
            let victim = backends.pop().expect("two backends");
            let answered = std::thread::scope(|scope| {
                let fleet: Vec<_> = (0..conns.max(2))
                    .map(|c| {
                        let (stop, sweep, expect) = (&stop, &sweep, &expect);
                        scope.spawn(move || {
                            let mut client = Client::connect(addr).expect("fleet connect");
                            let mut answered = 0usize;
                            let mut at = (c * 131) % (sweep.len() - batch);
                            while !stop.load(Ordering::Relaxed) {
                                let got = client
                                    .query(&sweep[at..at + batch])
                                    .expect("query across the kill");
                                assert_eq!(
                                    got,
                                    expect[at..at + batch],
                                    "misanswered query across the kill"
                                );
                                answered += batch;
                                at = (at + batch * 7) % (sweep.len() - batch);
                            }
                            answered
                        })
                    })
                    .collect();
                std::thread::sleep(Duration::from_millis(150));
                victim.shutdown();
                std::thread::sleep(Duration::from_millis(400));
                stop.store(true, Ordering::Relaxed);
                fleet.into_iter().map(|h| h.join().expect("fleet thread")).sum::<usize>()
            });
            assert!(
                rt.failovers() > 0,
                "the killed replica was never picked — the availability check proved nothing"
            );
            eprintln!(
                "  {tag}: kill-one-replica ok — {answered} pairs answered across the kill \
                 ({} failovers)",
                rt.failovers()
            );
            availability_checked = true;
            rt.shutdown();
            for b in backends {
                b.shutdown();
            }
        } else {
            rt.shutdown();
            for b in backends {
                b.shutdown();
            }
        }

        let runs_json: Vec<String> = runs
            .iter()
            .map(|r| {
                format!(
                    r#"{{"conns":{},"qps":{:.0},"p50_us":{:.1},"p99_us":{:.1},"requests":{}}}"#,
                    r.conns, r.qps, r.p50_us, r.p99_us, r.requests
                )
            })
            .collect();
        mode_jsons.push(format!(
            r#"{{"mode":"{tag}","backends":2,"availability_check":{availability_checked},"runs":[{}]}}"#,
            runs_json.join(",")
        ));
    }

    let json = format!(
        concat!(
            r#"{{"workload":{{"model":"glp","vertices":{},"density":{},"seed":42}},"#,
            r#""scale":"{:?}","cores":{},"batch":{},"pipeline":{},"#,
            r#""modes":[{}]}}"#
        ),
        n,
        density,
        scale,
        cores,
        batch,
        pipeline,
        mode_jsons.join(","),
    );
    std::fs::write(&out_path, format!("{json}\n")).expect("write snapshot");
    eprintln!("wrote {out_path}");
    std::fs::remove_dir_all(&dir).ok();
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(modes) = arg_value(&args, "--router") {
        router_main(&args, &modes);
        return;
    }
    let scale = Scale::from_env();
    let out_path = arg_value(&args, "-o").unwrap_or_else(|| "BENCH_server.json".to_string());
    let conns: usize = arg_value(&args, "--conns").map_or(4, |v| v.parse().expect("bad --conns"));
    let batch: usize = arg_value(&args, "--batch").map_or(256, |v| v.parse().expect("bad --batch"));
    assert!(batch >= 1, "--batch must be at least 1 pair");
    let pipeline: usize =
        arg_value(&args, "--pipeline").map_or(1, |v| v.parse().expect("bad --pipeline"));
    assert!(pipeline >= 1, "--pipeline must be at least 1 request in flight");
    let slow_conns: usize =
        arg_value(&args, "--slow-conns").map_or(0, |v| v.parse().expect("bad --slow-conns"));
    let update_conns: usize =
        arg_value(&args, "--update-conns").map_or(0, |v| v.parse().expect("bad --update-conns"));
    let min_qps: Option<f64> =
        arg_value(&args, "--min-qps").map(|v| v.parse().expect("bad --min-qps"));
    let max_p99_us: Option<f64> =
        arg_value(&args, "--max-p99-us").map(|v| v.parse().expect("bad --max-p99-us"));
    let max_write_p99_us: Option<f64> =
        arg_value(&args, "--max-write-p99-us").map(|v| v.parse().expect("bad --max-write-p99-us"));
    let durability: Option<hopdb_server::wal::Durability> =
        arg_value(&args, "--durability").map(|v| v.parse().expect("bad --durability"));
    assert!(
        max_write_p99_us.is_none() || update_conns > 0,
        "--max-write-p99-us gates the under-writes run; pass --update-conns too"
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    let (n, density, requests_per_conn) = match scale {
        Scale::Small => (4_000, 3.0, 400),
        Scale::Medium => (12_000, 4.0, 1_500),
        Scale::Large => (40_000, 4.0, 4_000),
    };
    eprintln!(
        "serverperf: GLP n={n} d={density} (scale {scale:?}, {cores} cores, batch {batch}, \
         pipeline {pipeline}, {slow_conns} slow conns)"
    );
    let g = glp(&GlpParams::with_density(n, density, 42));
    let ranking = rank_vertices(&g, &RankBy::Degree);
    let relabeled = relabel_by_rank(&g, &ranking);
    let (index, _) = build_prelabeled(&relabeled, &HopDbConfig::default().with_parallelism(0));
    let flat = FlatIndex::from_index(&index);

    // Stage the artifacts the way `hopdb-cli build` would: index file,
    // `.rank` sidecar (so the wire speaks original vertex ids), and the
    // source edge list (so the daemon can compact).
    let store = extmem::device::TempStore::new().expect("temp store");
    let staged = DiskIndex::create(&index, &store, "serverperf").expect("serialize").persist();
    let index_path =
        std::env::temp_dir().join(format!("hopdb-serverperf-{}.idx", std::process::id()));
    std::fs::copy(&staged, &index_path).expect("stage index");
    std::fs::remove_file(staged).ok();
    std::fs::write(format!("{}.rank", index_path.to_string_lossy()), ranking.to_sidecar_bytes())
        .expect("write sidecar");
    let graph_path =
        std::env::temp_dir().join(format!("hopdb-serverperf-{}.txt", std::process::id()));
    let graph_file = std::fs::File::create(&graph_path).expect("create edge list");
    sfgraph::io::write_edge_list(&g, std::io::BufWriter::new(graph_file)).expect("write edge list");

    let wal_dir = durability
        .map(|_| std::env::temp_dir().join(format!("hopdb-serverperf-{}-wal", std::process::id())));
    if let Some(dir) = &wal_dir {
        std::fs::remove_dir_all(dir).ok();
    }
    let config = ServerConfig {
        batch_threads: 1,
        source_graph: Some(graph_path.clone()),
        compact_threshold: 0, // compaction fires on demand, below
        wal_dir: wal_dir.clone(),
        durability: durability.unwrap_or(hopdb_server::wal::Durability::Batch),
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", &index_path, config).expect("serve");
    let addr = handle.local_addr();
    eprintln!("  daemon on {addr}");

    // Correctness gate before any timing: wire answers (original id
    // space, via the sidecar) must be bit-identical to the in-process
    // flat index (rank space).
    let sweep = bench::query_pairs(&relabeled, 8_192, 0xC0FFEE);
    let ranked_sweep: Vec<(VertexId, VertexId)> =
        sweep.iter().map(|&(s, t)| (ranking.rank_of(s), ranking.rank_of(t))).collect();
    let expect = flat.query_many(&ranked_sweep, 0);
    let mut checker = Client::connect(addr).expect("connect");
    let mut served = Vec::with_capacity(sweep.len());
    for chunk in sweep.chunks(batch.max(1)) {
        served.extend(checker.query(chunk).expect("sweep query"));
    }
    assert_eq!(served, expect, "wire-served distances diverge from FlatIndex::query_many");
    drop(checker);
    eprintln!("  answers bit-identical to FlatIndex on {} pairs", sweep.len());

    // A fixed deterministic edge pool for the write mix: unique pairs
    // so the overlay log dedups to at most the pool size. Kept small —
    // overlay query cost grows with the affected set, and the bench
    // should measure the serving stack under writes, not drown in a
    // deliberately bloated overlay.
    let update_pool = update_edge_pool(n, 16, 0xDEC0DE);

    // Size the replay pool relative to the batch so the rotating-window
    // arithmetic in `measure` always has room (pool > batch).
    let pairs = bench::query_pairs(&relabeled, 65_536.max(batch * 8), 0xBEEF);
    // Warm up connections, caches, and the accept path.
    measure(addr, &pairs, 1, batch, requests_per_conn / 4 + 1, pipeline, 0, 0, &update_pool);
    let mut runs = vec![
        measure(addr, &pairs, 1, batch, requests_per_conn, pipeline, slow_conns, 0, &update_pool),
        measure(
            addr,
            &pairs,
            conns,
            batch,
            requests_per_conn,
            pipeline,
            slow_conns,
            0,
            &update_pool,
        ),
    ];
    if update_conns > 0 {
        // Third run: same fast fleet, now with live writes mixed in —
        // the p99 here is the "query latency under writes" number.
        runs.push(measure(
            addr,
            &pairs,
            conns,
            batch,
            requests_per_conn,
            pipeline,
            slow_conns,
            update_conns,
            &update_pool,
        ));
    }
    for run in &runs {
        eprintln!(
            "  {} conn(s): {:>10.0} pairs/s   p50 {:>7.1} µs   p99 {:>7.1} µs   \
             ({} requests, {} slow, {} update frames over {} writers)",
            run.conns,
            run.qps,
            run.p50_us,
            run.p99_us,
            run.requests,
            run.slow_requests,
            run.update_frames,
            run.update_conns,
        );
    }

    // Compaction-under-load gate: promote a compaction while a fleet
    // keeps firing; every response must match the from-scratch build of
    // the mutated graph — served both by the overlay (before) and the
    // fresh frozen generation (after), with no drops in between.
    let compaction_verified = if update_conns > 0 {
        verify_compaction_under_load(addr, &g, &update_pool, &sweep, conns.max(2), batch);
        true
    } else {
        false
    };

    let run_json = |r: &Run| {
        format!(
            concat!(
                r#"{{"conns":{},"qps":{:.0},"p50_us":{:.1},"p99_us":{:.1},"#,
                r#""requests":{},"slow_requests":{},"update_conns":{},"update_frames":{}}}"#
            ),
            r.conns,
            r.qps,
            r.p50_us,
            r.p99_us,
            r.requests,
            r.slow_requests,
            r.update_conns,
            r.update_frames
        )
    };
    let runs_json: Vec<String> = runs.iter().map(run_json).collect();
    let json = format!(
        concat!(
            r#"{{"workload":{{"model":"glp","vertices":{},"density":{},"seed":42}},"#,
            r#""scale":"{:?}","cores":{},"batch":{},"#,
            r#""pipeline":{},"slow_conns":{},"update_conns":{},"durability":"{}","#,
            r#""compaction_under_load_verified":{},"#,
            r#""index":{{"entries":{},"resident_bytes":{}}},"#,
            r#""runs":[{}]}}"#
        ),
        n,
        density,
        scale,
        cores,
        batch,
        pipeline,
        slow_conns,
        update_conns,
        durability.map_or_else(|| "disabled".to_string(), |d| d.to_string()),
        compaction_verified,
        index.total_entries(),
        flat.resident_bytes(),
        runs_json.join(","),
    );
    std::fs::write(&out_path, format!("{json}\n")).expect("write snapshot");
    eprintln!("wrote {out_path}");

    handle.shutdown();
    std::fs::remove_file(&index_path).ok();
    std::fs::remove_file(format!("{}.rank", index_path.to_string_lossy())).ok();
    std::fs::remove_file(&graph_path).ok();
    if let Some(dir) = &wal_dir {
        std::fs::remove_dir_all(dir).ok();
    }

    let mut failed = false;
    if let Some(want) = min_qps {
        let got = runs[1].qps;
        if got < want {
            eprintln!("QPS regression: {got:.0} pairs/s at {conns} conns, gate wants {want:.0}");
            failed = true;
        } else {
            eprintln!("qps ok: {got:.0} pairs/s at {conns} conns (gate {want:.0})");
        }
    }
    if let Some(want) = max_p99_us {
        let got = runs[1].p99_us;
        if got > want {
            eprintln!("p99 regression: {got:.1} µs at {conns} conns, gate allows {want:.1}");
            failed = true;
        } else {
            eprintln!("p99 ok: {got:.1} µs at {conns} conns (gate {want:.1})");
        }
    }
    if let Some(want) = max_write_p99_us {
        // The under-writes run is the last one pushed (guaranteed to
        // exist by the update_conns > 0 assert at parse time).
        let got = runs.last().expect("under-writes run").p99_us;
        if got > want {
            eprintln!("write-path p99 regression: {got:.1} µs under writes, gate allows {want:.1}");
            failed = true;
        } else {
            eprintln!("write-path p99 ok: {got:.1} µs under writes (gate {want:.1})");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
