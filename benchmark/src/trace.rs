//! The traced run: the same deployment rounds with the span recorder
//! on, then direct probes of what the deployment hides inside a layer.
//!
//! Everything here is ungated. The numbers exist so that a change which
//! moves an end-to-end metric can show *where* the time went, and so
//! that a change to one layer can be checked against the end-to-end
//! metric `spec::PER_LAYER` says it should move.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use extmem::{CountedFile, ExtMemConfig, ExternalSorter, IoStats, LabelRecord, TempStore};
use hopdb_server::client::Session;
use hopdb_server::proto::{decode_request, Decoded, Request, RequestBody, DEFAULT_MAX_BATCH};
use hopdb_server::wal::{read_wal, Durability, Wal};
use hopdb_server::{serve_router, RouteMode, RouterConfig, ServerConfig};
use hoplabels::disk::{CachedDiskIndex, DiskIndex};
use hoplabels::{shard_image, FlatIndex, LiveIndex, OverlaySnapshot, QueryBackend};
use sfgraph::{Dist, VertexId};

use crate::deploy::{
    self, connect, Checks, Daemon, Inputs, RoundFacts, WriteCycle, EDGES_PER_FRAME, LARGE_FRAME,
    SMALL_FRAME,
};
use crate::gen::{purpose, Edge, Stream};
use crate::host::Scratch;
use crate::run::{self, Metric, Report, RunOptions};
use crate::span::Tracer;
use crate::spec::{WorkloadSpec, EXT_BLOCK_BYTES, EXT_MEMORY_RECORDS, PER_LAYER};
use crate::stats::{median, percentile};

/// Share of `--seconds` spent on traced deployment rounds; the probes
/// take the rest.
const ROUNDS_SHARE: f64 = 0.7;
/// Records pushed through the external sorter.
const SORT_RECORDS: usize = 1 << 20;
/// Wall time of each short wire probe (router, stall, post-load).
const PROBE_SLICE: Duration = Duration::from_millis(300);
/// Pipelined stage: connections × depth × pairs per frame.
const PIPE_CONNS: usize = 2;
const PIPE_DEPTH: usize = 8;
const PIPE_FRAME: usize = 256;
const PIPE_WARMUP: Duration = Duration::from_millis(500);
const PIPE_MEASURE: Duration = Duration::from_millis(1500);

/// Per-layer values by name.
type Values = BTreeMap<&'static str, f64>;

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// `repeat` timings of `f`, in the unit `scale` converts seconds to.
fn time_each<T>(repeat: usize, scale: f64, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..repeat)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            secs(t0) * scale
        })
        .collect()
}

/// Build counters and iteration shape, from the build's own statistics,
/// and the external engine's traffic on the workload's graph.
fn core_counts(v: &mut Values, facts: &RoundFacts, ext: &run::ExternalIo) {
    let stats = &facts.built.stats;
    let (candidates, pruned): (u64, u64) =
        stats.iterations.iter().fold((0, 0), |(c, p), it| (c + it.candidates, p + it.pruned));
    v.insert("core.iterations", f64::from(stats.num_iterations()));
    v.insert("core.candidates_total", stats.total_candidates() as f64);
    v.insert("core.peak_candidates", stats.peak_candidates() as f64);
    v.insert(
        "core.prune_ratio",
        if candidates == 0 { 0.0 } else { pruned as f64 / candidates as f64 },
    );
    v.insert(
        "core.iter_max_s",
        stats.iterations.iter().map(|it| it.elapsed.as_secs_f64()).fold(0.0, f64::max),
    );
    v.insert("core.ext_read_mb", ext.read_bytes as f64 / 1e6);
    v.insert("core.ext_write_mb", ext.written_bytes as f64 / 1e6);
    v.insert("core.ext_sort_runs", ext.sort_runs as f64);
    v.insert("core.ext_merge_passes", ext.merge_passes as f64);
}

/// Label-length shape: exact, so ns per scanned entry separates "shorter
/// labels" from "faster kernel".
fn label_shape(v: &mut Values, facts: &RoundFacts) {
    let flat = &facts.flat;
    let n = flat.num_vertices() as VertexId;
    let mut lens: Vec<f64> = (0..n).map(|x| flat.out_label_len(x) as f64).collect();
    if flat.is_directed() {
        lens.extend((0..n).map(|x| flat.in_label_len(x) as f64));
    }
    v.insert("hoplabels.label_len_mean", lens.iter().sum::<f64>() / lens.len() as f64);
    v.insert("hoplabels.label_len_p99", percentile(&lens, 99.0));
    v.insert("hoplabels.scanned_entries_uniform", facts.scanned_uniform);
    v.insert("hoplabels.scanned_entries_hub", facts.scanned_hub);
}

/// Builds with and without a span around them, alternating, and the
/// build at parallelism 2.
fn build_probes(
    v: &mut Values,
    spec: &WorkloadSpec,
    inputs: &Inputs,
    facts: &RoundFacts,
    tracer: &mut Tracer,
) -> std::io::Result<()> {
    let relabeled = sfgraph::ranking::relabel_by_rank(&inputs.graph, &facts.ranking);
    let (mut traced, mut bare, mut par2) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..2 {
        let t0 = Instant::now();
        tracer.span("core.build", |_| deploy::build_labels(spec, &relabeled, 1))?;
        traced.push(secs(t0));
        let t0 = Instant::now();
        deploy::build_labels(spec, &relabeled, 1)?;
        bare.push(secs(t0));
        let t0 = Instant::now();
        tracer.span("core.build_par2", |_| deploy::build_labels(spec, &relabeled, 2))?;
        par2.push(secs(t0));
    }
    v.insert("trace.overhead_ratio", median(&traced) / median(&bare));
    v.insert("core.build_par2_s", median(&par2));
    v.insert("core.par2_speedup", median(&bare) / median(&par2));
    Ok(())
}

/// `ExternalSorter` push + finish over seeded records, inline and with
/// the background spill worker.
fn sort_probe(v: &mut Values, seed: u64, tracer: &mut Tracer) -> std::io::Result<()> {
    let mut rng = Stream::new(seed, purpose::SORT);
    let records: Vec<LabelRecord> = (0..SORT_RECORDS)
        .map(|_| {
            let x = rng.next_u64();
            LabelRecord::new((x >> 40) as u32, (x >> 16) as u32 & 0xFF_FFFF, x as u32 & 0xFF)
        })
        .collect();
    for (name, span, background) in [
        ("extmem.sort_mrec_per_s", "extmem.sort", false),
        ("extmem.sort_bg_mrec_per_s", "extmem.sort_bg", true),
    ] {
        let store = TempStore::new()?;
        let t0 = Instant::now();
        let sorted = tracer.span(span, |_| -> std::io::Result<u64> {
            let config =
                ExtMemConfig { memory_records: EXT_MEMORY_RECORDS, block_bytes: EXT_BLOCK_BYTES };
            let mut sorter = ExternalSorter::new(&store, config);
            if background {
                sorter = sorter.with_background_spill();
            }
            for &r in &records {
                sorter.push(r)?;
            }
            Ok(sorter.finish()?.len())
        })?;
        v.insert(name, sorted as f64 / 1e6 / secs(t0));
        if !background {
            v.insert("extmem.spill_write_mb", store.stats().write_bytes() as f64 / 1e6);
        }
    }
    Ok(())
}

/// In-process readers and the overlay, single thread.
fn hoplabels_probes(
    v: &mut Values,
    inputs: &mut Inputs,
    facts: &RoundFacts,
    image: &Path,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> std::io::Result<()> {
    let (index, flat, ranking) = (&facts.built.index, &facts.flat, &facts.ranking);
    v.insert(
        "hoplabels.from_index_ms",
        median(&time_each(3, 1e3, || {
            tracer.span("hoplabels.from_index", |_| FlatIndex::from_index(index))
        })),
    );

    let uniform = deploy::to_rank_space(ranking, &inputs.uniform);
    let hub = deploy::to_rank_space(ranking, &inputs.hub);
    let expect = flat.query_many(&uniform, 1);
    let t0 = Instant::now();
    let nested: Vec<Dist> = uniform.iter().map(|&(s, t)| index.query(s, t)).collect();
    v.insert("hoplabels.nested_query_ns", secs(t0) * 1e9 / uniform.len() as f64);
    checks.compare("LabelIndex::query vs FlatIndex", &nested, &expect);

    let mut two = Vec::new();
    let rates = time_each(3, 1.0, || two = flat.query_many(&uniform, 2));
    v.insert("hoplabels.query_many_t2_mpairs_per_s", uniform.len() as f64 / 1e6 / median(&rates));
    checks.compare("query_many at 2 threads vs 1 thread", &two, &expect);

    // Overlay at the size a write cycle ends with.
    let cycle = inputs.next_cycle();
    let edges: Vec<Edge> =
        cycle.edges.iter().map(|&(s, t, w)| (ranking.rank_of(s), ranking.rank_of(t), w)).collect();
    let mut snapshot = None;
    let builds = time_each(3, 1e3, || {
        snapshot =
            Some(tracer.span("hoplabels.overlay_build", |_| OverlaySnapshot::build(flat, &edges)));
    });
    v.insert("hoplabels.overlay_build_ms", median(&builds));
    let snapshot = snapshot.expect("three builds ran")?;
    let frozen: Arc<dyn QueryBackend> = Arc::new(FlatIndex::from_index(index));
    let live = LiveIndex::with_overlay(frozen, Arc::new(snapshot), 1);
    let probe = deploy::to_rank_space(ranking, &cycle.thin_pool);
    let truth = cycle.thin_after;
    let t0 = Instant::now();
    let mut got = Vec::with_capacity(probe.len());
    for &(s, t) in &probe {
        got.push(live.query(s, t)?);
    }
    v.insert("hoplabels.overlay_query_us", secs(t0) * 1e6 / probe.len() as f64);
    checks.compare("LiveIndex through a 128-edge overlay vs sssp", &got, &truth);

    // The LRU-cached disk reader with room for n/8 labels: the hub set's
    // sources fit the cache, the uniform set does not.
    for (pairs, us_name, ratio_name) in [
        (
            &uniform,
            "hoplabels.cached_disk_query_us_uniform",
            "hoplabels.cached_disk_hit_ratio_uniform",
        ),
        (&hub, "hoplabels.cached_disk_query_us_hub", "hoplabels.cached_disk_hit_ratio_hub"),
    ] {
        let file = CountedFile::open_path_readonly(image, IoStats::shared())?;
        let cached = CachedDiskIndex::new(DiskIndex::open(file)?, flat.num_vertices() / 8);
        let sample = &pairs[..8192];
        let t0 = Instant::now();
        let mut got = Vec::with_capacity(sample.len());
        for &(s, t) in sample {
            got.push(cached.query(s, t)?);
        }
        v.insert(us_name, secs(t0) * 1e6 / sample.len() as f64);
        let (hits, misses) = cached.hit_stats();
        v.insert(ratio_name, hits as f64 / (hits + misses).max(1) as f64);
        let want: Vec<Dist> = sample.iter().map(|&(s, t)| flat.query(s, t)).collect();
        checks.compare("CachedDiskIndex vs FlatIndex", &got, &want);
    }
    Ok(())
}

/// Frame codec and WAL, called directly.
fn server_direct_probes(
    v: &mut Values,
    inputs: &Inputs,
    scratch: &mut Scratch,
) -> std::io::Result<()> {
    let request =
        Request { id: 7, body: RequestBody::Query(inputs.uniform[..LARGE_FRAME].to_vec()) };
    let mut bytes = Vec::new();
    let encode = time_each(200, 1e9 / LARGE_FRAME as f64, || bytes = request.encode());
    v.insert("server.proto_encode_ns_per_pair", median(&encode));
    let decode = time_each(200, 1e9 / LARGE_FRAME as f64, || {
        assert!(
            matches!(decode_request(&bytes, DEFAULT_MAX_BATCH), Decoded::Request { .. }),
            "an encoded query frame must decode"
        );
    });
    v.insert("server.proto_decode_ns_per_pair", median(&decode));

    // Append with the policy off so the write is timed alone; the fsync
    // is timed by calling `sync` between appends.
    let dir = scratch.fresh_dir("wal-probe")?;
    let path = dir.join("probe.log");
    let stats = IoStats::shared();
    let mut wal = Wal::create(&path, 1, Durability::Off, Arc::clone(&stats))?;
    let batch: Vec<Edge> = (0..EDGES_PER_FRAME as u32).map(|i| (i, i + 1, 1)).collect();
    let (mut appends, mut syncs) = (Vec::new(), Vec::new());
    for i in 0..2048 {
        let t0 = Instant::now();
        wal.append(&batch)?;
        appends.push(secs(t0) * 1e6);
        if i % 32 == 31 {
            let t0 = Instant::now();
            wal.sync()?;
            syncs.push(secs(t0) * 1e6);
        }
    }
    drop(wal);
    v.insert("server.wal_append_us", median(&appends));
    v.insert("server.wal_sync_us", median(&syncs));
    let mut replayed = 0usize;
    let replays = time_each(3, 1e3, || {
        replayed = read_wal(&path, Arc::clone(&stats)).map_or(0, |r| r.batches.len())
    });
    assert_eq!(replayed, 2048, "read_wal must return every appended batch");
    v.insert("server.wal_replay_ms", median(&replays));
    std::fs::remove_dir_all(dir)
}

/// Depth-1 round trips of 16-pair frames for `slice`; median µs. `spun`
/// keeps the second vCPU awake, as the deployment's own wire stages do.
fn sync_p50_us(
    addr: std::net::SocketAddr,
    inputs: &Inputs,
    expect: &[Dist],
    slice: Duration,
    spun: bool,
    checks: &mut Checks,
) -> std::io::Result<f64> {
    let mut client = connect(addr)?;
    let _awake = spun.then(deploy::KeepAwake::start);
    let (trips, _) =
        deploy::wire_slice(&mut client, &inputs.uniform, expect, SMALL_FRAME, slice, checks)?;
    Ok(median(&trips))
}

/// Daemon probes that need their own boot sequences: recovery with an
/// un-compacted tail, foreground stalls during a compaction, the router
/// in both modes and — last, on a daemon nothing else touches — the
/// pipelined stage and the sync latency it leaves behind.
fn daemon_probes(
    v: &mut Values,
    inputs: &mut Inputs,
    facts: &RoundFacts,
    image: &Path,
    scratch: &mut Scratch,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> std::io::Result<()> {
    let expect = facts.flat.query_many(&deploy::to_rank_space(&facts.ranking, &inputs.uniform), 1);
    let WriteCycle { edges, thin_pool, thin_after, .. } = inputs.next_cycle();

    // Recovery: a WAL daemon (whatever the workload's own durability)
    // takes a full write cycle, stops, and boots again on the same
    // directories with the 128-edge tail still in its log.
    let wal_dir = scratch.fresh_dir("wal-recovery")?;
    let config = deploy::server_config(&inputs.graph_path, Some(wal_dir.clone()));
    let daemon = Daemon::boot(image, config.clone())?;
    let mut client = connect(daemon.addr())?;
    for frame in edges.chunks(EDGES_PER_FRAME) {
        client.update(frame)?;
    }
    drop(client);
    daemon.shutdown();
    let t0 = Instant::now();
    let (daemon, mut client) = tracer.span("server.recovery", |_| -> std::io::Result<_> {
        let daemon = Daemon::boot(image, config)?;
        let mut client = connect(daemon.addr())?;
        let first = client.query(&thin_pool[..SMALL_FRAME])?;
        checks.compare("first answer after recovery vs sssp", &first, &thin_after[..SMALL_FRAME]);
        Ok((daemon, client))
    })?;
    v.insert("server.recovery_ms", secs(t0) * 1e3);
    checks.compare(
        "answers after recovery vs sssp on the mutated graph",
        &client.query(&thin_pool)?,
        &thin_after,
    );

    // Foreground stalls: a second connection keeps asking while the
    // first one compacts that same daemon.
    let addr = daemon.addr();
    let compacting = AtomicBool::new(true);
    let trips = std::thread::scope(|scope| -> std::io::Result<Vec<f64>> {
        let reader = scope.spawn(|| -> std::io::Result<Vec<f64>> {
            let mut session = Session::connect_timeout(&addr, Duration::from_secs(30))?;
            let mut trips = Vec::new();
            let mut at = 0usize;
            while compacting.load(Ordering::Relaxed) {
                at = if at + 2 * SMALL_FRAME > thin_pool.len() { 0 } else { at + SMALL_FRAME };
                let t0 = Instant::now();
                let ticket = session.submit(&thin_pool[at..at + SMALL_FRAME])?;
                let got = session.wait(ticket)?;
                trips.push(secs(t0) * 1e6);
                // Either side of the promotion answers for the same graph.
                if got != thin_after[at..at + SMALL_FRAME] {
                    return Err(std::io::Error::other("wrong answer while compacting"));
                }
            }
            Ok(trips)
        });
        let compacted = tracer.span("server.compact", |_| client.compact());
        compacting.store(false, Ordering::Relaxed);
        let trips = reader.join().map_err(|_| std::io::Error::other("stall reader panicked"))?;
        compacted?;
        trips
    })?;
    checks.expect_all("answers while compacting vs sssp", trips.len() * SMALL_FRAME, true);
    v.insert("server.compact_stall_p99_us", percentile(&trips, 99.0));
    drop(client);
    daemon.shutdown();
    std::fs::remove_dir_all(wal_dir)?;

    // Router over two in-process backends, replica then shard.
    let image_bytes = std::fs::read(image)?;
    let rank_bytes = facts.ranking.to_sidecar_bytes();
    let shard_dir = scratch.fresh_dir("shards")?;
    let mut shard_paths = Vec::new();
    for (bytes, shard) in shard_image(&image_bytes, 2)? {
        let path = shard_dir.join(format!("shard{}.idx", shard.index));
        std::fs::write(&path, bytes)?;
        std::fs::write(deploy::sidecar_path(&path), &rank_bytes)?;
        std::fs::write(format!("{}.shard", path.display()), shard.encode())?;
        shard_paths.push(path);
    }
    for (mode, name, images) in [
        (RouteMode::Replica, "server.router_replica_p50_us", vec![image.to_path_buf(); 2]),
        (RouteMode::Shard, "server.router_shard_p50_us", shard_paths),
    ] {
        let backends: Vec<Daemon> = images
            .iter()
            .map(|path| Daemon::boot(path, ServerConfig::default()))
            .collect::<std::io::Result<_>>()?;
        let router = serve_router(
            "127.0.0.1:0",
            RouterConfig {
                mode,
                backends: backends.iter().map(Daemon::addr).collect(),
                ..RouterConfig::default()
            },
        )?;
        let p50 = tracer.span("server.router_slice", |_| {
            sync_p50_us(router.local_addr(), inputs, &expect, PROBE_SLICE, true, checks)
        });
        router.shutdown();
        backends.into_iter().for_each(Daemon::shutdown);
        v.insert(name, p50?);
    }
    std::fs::remove_dir_all(shard_dir)?;

    // Pipelined load, then what a depth-1 client sees afterwards. Known
    // hazard (README): a lost reactor wake-up makes this stage bimodal,
    // which is why it is last, on its own daemon, and ungated.
    let daemon = Daemon::boot(image, ServerConfig::default())?;
    let addr = daemon.addr();
    // First, while this daemon has seen nothing: the small-frame round
    // trip without the keep-awake spinner. The difference to
    // `wire_small_p50_us` is what an idle second vCPU costs on this host.
    v.insert(
        "server.wire_small_unspun_p50_us",
        sync_p50_us(addr, inputs, &expect, PROBE_SLICE, false, checks)?,
    );
    let (uniform, expect_ref) = (&inputs.uniform, &expect);
    let started = Instant::now();
    let answered = tracer.span("server.pipelined", |_| {
        std::thread::scope(|scope| -> std::io::Result<usize> {
            let workers: Vec<_> = (0..PIPE_CONNS)
                .map(|c| {
                    scope.spawn(move || -> std::io::Result<usize> {
                        let mut session = Session::connect_timeout(&addr, Duration::from_secs(30))?;
                        let mut window = std::collections::VecDeque::with_capacity(PIPE_DEPTH);
                        let (mut at, mut answered) =
                            (c * 4099 * PIPE_FRAME % uniform.len(), 0usize);
                        loop {
                            let since = started.elapsed();
                            if since >= PIPE_WARMUP + PIPE_MEASURE && window.is_empty() {
                                return Ok(answered);
                            }
                            if since < PIPE_WARMUP + PIPE_MEASURE && window.len() < PIPE_DEPTH {
                                if at + PIPE_FRAME > uniform.len() {
                                    at = 0;
                                }
                                window.push_back((
                                    session.submit(&uniform[at..at + PIPE_FRAME])?,
                                    at,
                                    since,
                                ));
                                at += PIPE_FRAME;
                                continue;
                            }
                            let (ticket, from, sent) =
                                window.pop_front().expect("window is not empty");
                            let got = session.wait(ticket)?;
                            if got != expect_ref[from..from + PIPE_FRAME] {
                                return Err(std::io::Error::other(
                                    "wrong answer under pipelined load",
                                ));
                            }
                            if sent >= PIPE_WARMUP {
                                answered += PIPE_FRAME;
                            }
                        }
                    })
                })
                .collect();
            let mut total = 0;
            for w in workers {
                total +=
                    w.join().map_err(|_| std::io::Error::other("pipelined client panicked"))??;
            }
            Ok(total)
        })
    })?;
    checks.expect_all("answers under pipelined load vs in-process", answered, true);
    v.insert(
        "server.pipelined_pairs_per_s",
        answered as f64 / (secs(started) - PIPE_WARMUP.as_secs_f64()),
    );
    v.insert(
        "server.post_load_sync_p50_us",
        sync_p50_us(addr, inputs, &expect, PROBE_SLICE, true, checks)?,
    );
    daemon.shutdown();
    Ok(())
}

/// Run `spec` with the span recorder on and report every per-layer
/// metric; the spans go to `<out>/trace-<workload>.jsonl`.
pub fn run(spec: &'static WorkloadSpec, opts: &RunOptions) -> std::io::Result<Report> {
    let mut scratch = Scratch::create(&opts.out_dir, spec.name)?;
    scratch.adopt_as_tmpdir();
    let mut inputs = Inputs::generate(spec, opts.seed, &scratch)?;
    let mut tracer = Tracer::new(true);
    let mut checks = Checks::default();
    let mut v = Values::new();

    let cold = tracer
        .span("core.build_cold", |_| run::cold_build(spec, &inputs.graph_path, &mut scratch))?;
    v.insert("core.build_cold_s", cold.wall_s);

    let g = run::rounds(
        &mut inputs,
        &mut scratch,
        &mut tracer,
        &mut checks,
        opts.seconds * ROUNDS_SHARE,
        opts.inject_fault,
    )?;
    for name in run::TIMINGS {
        v.insert(name, run::timing(&g.samples, name).value);
    }
    let span_ms = |tracer: &Tracer, name: &str| median(&tracer.durations_ms(name));
    v.insert("sfgraph.read_edge_list_ms", span_ms(&tracer, "sfgraph.read_edge_list"));
    v.insert("sfgraph.rank_relabel_ms", span_ms(&tracer, "sfgraph.rank_relabel"));
    v.insert("hoplabels.serialize_ms", span_ms(&tracer, "hoplabels.serialize"));
    v.insert("hoplabels.flat_load_ms", span_ms(&tracer, "hoplabels.flat_load"));
    v.insert("server.boot_ms", span_ms(&tracer, "server.boot"));
    let build_cpu = g.samples.get("build_cpu_s");
    if build_cpu.is_empty() {
        return Err(std::io::Error::other("cannot read /proc/thread-self/schedstat"));
    }
    v.insert("core.build_cpu_s", median(build_cpu));
    let small = g.samples.get("wire_small_us");
    v.insert("server.wire_small_p99_us", percentile(small, 99.0));
    let acks = g.samples.get("update_ack_us");
    v.insert("server.update_ack_p50_us", median(acks));
    v.insert("server.update_ack_p90_us", percentile(acks, 90.0));
    let ext_io = tracer
        .span("core.external_io", |_| run::ExternalIo::measure(&inputs, &g.facts, &mut checks))?;
    core_counts(&mut v, &g.facts, &ext_io);
    label_shape(&mut v, &g.facts);

    // What the daemon adds to a 16-pair frame: the wire median minus the
    // same frames answered in-process.
    let ranked = deploy::to_rank_space(&g.facts.ranking, &inputs.uniform[..LARGE_FRAME]);
    let in_process = time_each(64, 1e6, || {
        ranked
            .chunks(SMALL_FRAME)
            .map(|frame| g.facts.flat.query_many(frame, 1).len())
            .sum::<usize>()
    });
    v.insert(
        "server.wire_overhead_us",
        median(small) - median(&in_process) / (LARGE_FRAME / SMALL_FRAME) as f64,
    );

    let image_dir = scratch.fresh_dir("probe-image")?;
    let (image, _) = deploy::persist_image(&g.facts.built.index, &g.facts.ranking, &image_dir)?;
    build_probes(&mut v, spec, &inputs, &g.facts, &mut tracer)?;
    sort_probe(&mut v, opts.seed, &mut tracer)?;
    hoplabels_probes(&mut v, &mut inputs, &g.facts, &image, &mut checks, &mut tracer)?;
    server_direct_probes(&mut v, &inputs, &mut scratch)?;
    daemon_probes(&mut v, &mut inputs, &g.facts, &image, &mut scratch, &mut checks, &mut tracer)?;

    std::fs::create_dir_all(&opts.out_dir)?;
    let trace_path = opts.out_dir.join(format!("trace-{}.jsonl", spec.name));
    tracer.write_jsonl(&trace_path, spec.name)?;
    eprintln!("hopbench: {} spans written to {}", tracer.spans().len(), trace_path.display());

    let metrics = PER_LAYER
        .iter()
        .map(|decl| {
            let value = *v.get(decl.name).ok_or_else(|| {
                std::io::Error::other(format!("per-layer metric `{}` was not measured", decl.name))
            })?;
            Ok(Metric { name: decl.name, unit: decl.unit, value, samples: None, tail: None })
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok(Report { metrics, ungated: Vec::new(), attempted: checks.attempted, failed: checks.failed })
}
