//! Durability-tier tests for the `hopdb-server` daemon, in-process:
//! WAL replay across a restart restores every acknowledged update, a
//! torn tail is truncated and surfaced in `info`, a mixed-lineage
//! durability directory is refused at boot, a checkpoint truncates the
//! WAL and survives a restart booting from its image — as does the next
//! checkpoint of the same lineage, which must hold what the first one
//! folded — two nodes that take one edge set in different orders write
//! byte-identical checkpoints, a torn folded-edge file is refused at
//! boot, as is a garbage
//! `CURRENT`, without deleting the lineage it stands for, an injected
//! fsync failure rejects the update without killing the server, under
//! `batch` the tail of a burst is synced once ingest goes idle (and a
//! failure of that sync nacks the next update), and an aborted
//! compaction re-arms and is counted.

use hop_doubling::graphgen::{glp, GlpParams};
use hop_doubling::hopdb_server::wal::{self, Durability};
use hop_doubling::hopdb_server::{serve, Client, ServerConfig};

mod testkit;
use testkit::{spread, Deployment, Edge, Ids};

/// The fault hooks are process-wide: tests that arm them take turns.
static FAULTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn replay_restores_acked_updates_across_restart() {
    let n = 90;
    let dep = Deployment::new(&glp(&GlpParams::with_density(n, 3.0, 901)), Ids::Original);
    let pairs = spread(n);
    let batches: [Vec<Edge>; 2] = [vec![(0, 89, 1), (3, 71, 1)], vec![(12, 44, 2)]];
    let mut model = dep.model();

    let (answers, overlay_edges) = {
        let handle = dep.serve(dep.durable(Durability::Always));
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        for batch in &batches {
            client.update(batch).expect("update");
            model.ack(batch);
        }
        let answers = client.query(&pairs).expect("query");
        assert_eq!(answers, model.answers(&pairs), "served answers diverge from the model");
        let info = client.info().expect("info");
        assert_eq!(info.durability, 2, "always = 2 on the wire");
        assert_eq!(info.wal_epoch, 0);
        assert_eq!(info.wal_records, 2, "one WAL record per acked batch");
        assert!(info.wal_bytes > wal::WAL_HEADER_LEN);
        handle.shutdown();
        (answers, info.overlay_edges)
    };

    // Restart against the SAME wal dir: the overlay must come back
    // from the log alone (the index file never saw the updates).
    let handle = dep.serve(dep.durable(Durability::Always));
    let mut client = Client::connect(handle.local_addr()).expect("reconnect");
    let recovered = client.query(&pairs).expect("query after recovery");
    assert_eq!(recovered, answers, "recovered answers diverge from the pre-restart state");
    assert_eq!(recovered, model.answers(&pairs), "recovered answers diverge from the model");
    let info = client.info().expect("info");
    assert_eq!(info.recovered_records, 2, "both batches replayed");
    assert_eq!(info.recovered_dropped_bytes, 0);
    assert_eq!(info.overlay_edges, overlay_edges, "replayed overlay size");
    handle.shutdown();
}

#[test]
fn torn_tail_is_truncated_and_surfaced() {
    let n = 60;
    let dep = Deployment::new(&glp(&GlpParams::with_density(n, 3.0, 902)), Ids::Original);
    let pairs = spread(n);
    let mut model = dep.model();
    model.ack(&[(0, 59, 1)]);

    let answers = {
        let handle = dep.serve(dep.durable(Durability::Always));
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        client.update(&[(0, 59, 1)]).expect("update");
        let answers = client.query(&pairs).expect("query");
        handle.shutdown();
        answers
    };

    // Simulate a crash mid-append: a half-written record at the tail.
    let wal_path = dep.wal_dir().join(wal::wal_file_name(0));
    let mut bytes = std::fs::read(&wal_path).expect("read wal");
    let torn = [17u8, 0, 0, 0, 0xDE, 0xAD];
    bytes.extend_from_slice(&torn);
    std::fs::write(&wal_path, &bytes).expect("tear wal");

    let handle = dep.serve(dep.durable(Durability::Always));
    let mut client = Client::connect(handle.local_addr()).expect("reconnect");
    let recovered = client.query(&pairs).expect("query");
    assert_eq!(recovered, answers, "acked prefix must survive");
    assert_eq!(recovered, model.answers(&pairs), "recovered answers diverge from the model");
    let info = client.info().expect("info");
    assert_eq!(info.recovered_records, 1);
    assert_eq!(info.recovered_dropped_bytes, torn.len() as u64);
    // The torn bytes are gone from disk, not just skipped.
    assert_eq!(std::fs::read(&wal_path).expect("reread").len() as u64, info.wal_bytes);
    handle.shutdown();
}

#[test]
fn mixed_lineage_directory_is_refused() {
    let dep = Deployment::new(&glp(&GlpParams::with_density(40, 3.0, 903)), Ids::Original);
    let wal_dir = dep.wal_dir();
    std::fs::create_dir_all(&wal_dir).unwrap();

    // CURRENT says epoch 7, but the epoch-7 log header says epoch 8:
    // two different lineages got mixed into one directory. Booting
    // from either would silently serve wrong answers — refuse instead.
    wal::write_manifest(
        &wal_dir,
        &wal::Manifest { epoch: 7, index_path: dep.index_path() },
        hop_doubling::extmem::IoStats::shared(),
    )
    .expect("write manifest");
    let mut header = Vec::new();
    header.extend_from_slice(b"HOPWAL01");
    header.extend_from_slice(&8u64.to_le_bytes());
    std::fs::write(wal_dir.join(wal::wal_file_name(7)), &header).expect("write stray wal");

    match serve("127.0.0.1:0", &dep.index_path(), dep.durable(Durability::Batch)) {
        Err(err) => assert!(err.to_string().contains("lineages"), "{err}"),
        Ok(handle) => {
            handle.shutdown();
            panic!("mixed lineage must not boot");
        }
    }
}

#[test]
fn checkpoint_truncates_the_wal_and_survives_restart() {
    let n = 80;
    let dep = Deployment::new(&glp(&GlpParams::with_density(n, 3.0, 904)), Ids::Original);
    let (pairs, wal_dir) = (spread(n), dep.wal_dir());
    let mut model = dep.model();
    model.ack(&[(0, 79, 1), (5, 50, 1)]);

    let answers = {
        let handle = dep.serve(dep.durable(Durability::Always));
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        client.update(&[(0, 79, 1), (5, 50, 1)]).expect("update");
        client.compact().expect("compact");
        let answers = client.query(&pairs).expect("query");
        assert_eq!(answers, model.answers(&pairs), "the checkpoint diverges from the model");
        let info = client.info().expect("info");
        assert_eq!(info.checkpoints, 1);
        assert_eq!(info.wal_epoch, 1, "checkpoint advances the epoch");
        assert_eq!(info.wal_records, 0, "the folded-in log is truncated");
        assert_eq!(info.aborted_compactions, 0);
        handle.shutdown();
        answers
    };

    // The checkpoint owns the durable state now: epoch-1 image + empty
    // epoch-1 log; the epoch-0 log is gone.
    assert!(wal_dir.join(wal::checkpoint_image_name(1)).exists());
    assert!(wal_dir.join(wal::wal_file_name(1)).exists());
    assert!(!wal_dir.join(wal::wal_file_name(0)).exists(), "old epoch must be collected");

    let handle = dep.serve(dep.durable(Durability::Always));
    let mut client = Client::connect(handle.local_addr()).expect("reconnect");
    assert_eq!(
        client.query(&pairs).expect("query after recovery"),
        answers,
        "checkpoint image diverges from the served state"
    );
    let info = client.info().expect("info");
    assert_eq!(info.wal_epoch, 1);
    assert_eq!(info.recovered_records, 0, "nothing left to replay after a checkpoint");
    assert_eq!(info.overlay_edges, 0, "updates were folded into the image");

    // The lineage goes on: the first compaction after a restart must
    // rebuild from the source ∪ every edge ever acked — the two the
    // checkpoint folded (read back from its `.edges`) and the new one.
    client.update(&[(7, 60, 1)]).expect("update after restart");
    client.compact().expect("compact after restart");
    model.ack(&[(7, 60, 1)]);
    let want = model.answers(&pairs);
    assert_eq!(client.query(&pairs).expect("query"), want, "second checkpoint forgot edges");
    let info = client.info().expect("info");
    assert_eq!(info.wal_epoch, 2);
    assert_eq!(info.wal_records, 0, "the second checkpoint truncates the log too");
    assert_eq!(info.overlay_edges, 0);
    handle.shutdown();
    let folded = wal_dir.join(format!("{}.edges", wal::checkpoint_image_name(2)));
    assert!(folded.exists(), "the checkpoint names what it folded");
    assert!(!wal_dir.join(format!("{}.edges", wal::checkpoint_image_name(1))).exists());

    // ...and across one more restart, from the second checkpoint alone.
    let handle = dep.serve(dep.durable(Durability::Always));
    let mut client = Client::connect(handle.local_addr()).expect("reconnect");
    assert_eq!(client.query(&pairs).expect("query"), want, "restart from the second checkpoint");
    handle.shutdown();

    // A checkpoint whose folded edges do not read completely must not
    // boot: one byte short would silently forget an acked edge.
    let bytes = std::fs::read(&folded).expect("read folded edges");
    std::fs::write(&folded, &bytes[..bytes.len() - 1]).expect("truncate folded edges");
    match serve("127.0.0.1:0", &dep.index_path(), dep.durable(Durability::Always)) {
        Err(err) => {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(".edges"), "{err}");
        }
        Ok(handle) => {
            handle.shutdown();
            panic!("a torn folded-edge file must not boot");
        }
    }
}

/// The acked edge *set* decides a checkpoint, not the order it came in:
/// two nodes of one graph that take the same edges in different batch
/// orders, one pair twice at two weights, compact to the same bytes —
/// image, ranking and folded edges alike.
#[test]
fn checkpoints_of_one_edge_set_are_byte_identical_whatever_the_order() {
    let n = 80;
    let g = glp(&GlpParams::with_density(n, 3.0, 905));
    let orders: [&[&[Edge]]; 2] = [
        &[&[(0, 79, 1), (3, 40, 5)], &[(12, 44, 2)], &[(3, 40, 2), (7, 60, 1)]],
        &[&[(7, 60, 1), (3, 40, 2)], &[(3, 40, 5), (12, 44, 2), (0, 79, 1)]],
    ];
    let pairs = spread(n);
    let checkpoints: Vec<Vec<Vec<u8>>> = orders
        .iter()
        .map(|batches| {
            let dep = Deployment::new(&g, Ids::Original);
            let mut model = dep.model();
            let handle = dep.serve(dep.durable(Durability::Always));
            let mut client = Client::connect(handle.local_addr()).expect("connect");
            for batch in batches.iter() {
                client.update(batch).expect("update");
                model.ack(batch);
            }
            client.compact().expect("compact");
            let answers = client.query(&pairs).expect("query");
            assert_eq!(answers, model.answers(&pairs), "the checkpoint diverges from the model");
            handle.shutdown();
            let image = dep.wal_dir().join(wal::checkpoint_image_name(1));
            let read = |ext: &str| {
                let path = format!("{}{ext}", image.display());
                std::fs::read(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
            };
            vec![read(""), read(".rank"), read(".edges")]
        })
        .collect();
    for (file, (a, b)) in ["ckpt-1.idx", "ckpt-1.idx.rank", "ckpt-1.idx.edges"]
        .iter()
        .zip(checkpoints[0].iter().zip(&checkpoints[1]))
    {
        assert!(a == b, "{file} depends on the order the edges were acked in");
    }
}

/// A `CURRENT` that does not parse is damage, not a fresh directory:
/// booting the original image as epoch 0 would garbage-collect the live
/// checkpoint and log, the only copies of the acknowledged updates.
#[test]
fn a_garbage_manifest_is_refused_and_the_lineage_kept() {
    let dep = Deployment::new(&glp(&GlpParams::with_density(50, 3.0, 908)), Ids::Original);
    let wal_dir = dep.wal_dir();
    {
        let handle = dep.serve(dep.durable(Durability::Always));
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        client.update(&[(0, 49, 1)]).expect("update");
        client.compact().expect("compact");
        client.update(&[(1, 48, 1)]).expect("update after the checkpoint");
        handle.shutdown();
    }
    let lineage = [
        wal::checkpoint_image_name(1),
        format!("{}{}", wal::checkpoint_image_name(1), wal::FOLDED_EXT),
        wal::wal_file_name(1),
    ];
    assert!(lineage.iter().all(|name| wal_dir.join(name).exists()), "a checkpointed lineage");

    std::fs::write(wal_dir.join(wal::MANIFEST_FILE), b"not a manifest\n").expect("clobber");
    match serve("127.0.0.1:0", &dep.index_path(), dep.durable(Durability::Always)) {
        Err(err) => assert!(err.to_string().contains(wal::MANIFEST_FILE), "{err}"),
        Ok(handle) => {
            handle.shutdown();
            panic!("a garbage CURRENT must not boot");
        }
    }
    for name in &lineage {
        assert!(wal_dir.join(name).exists(), "{name} was deleted by a refused boot");
    }
}

#[test]
fn injected_fsync_failure_rejects_the_update_but_not_the_server() {
    use hop_doubling::extmem::device::faults;

    let n = 50;
    let dep = Deployment::new(&glp(&GlpParams::with_density(n, 3.0, 905)), Ids::Original);
    let pairs = spread(n);
    let mut model = dep.model();

    let handle = dep.serve(dep.durable(Durability::Always));
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let base = client.query(&pairs).expect("base query");
    assert_eq!(base, model.answers(&pairs), "served answers diverge from the model");
    // An edge that shortcuts a probed pair, so (non-)acknowledgement
    // is observable through the probe answers.
    let (s, t) = pairs
        .iter()
        .zip(&base)
        .find(|&(&(s, t), &d)| {
            s != t && d > 1 && d != hop_doubling::hopdb_server::proto::UNREACHABLE
        })
        .map(|(&p, _)| p)
        .expect("a shortcut-able probe pair");

    // Scope the fault to this test's WAL file so parallel tests in
    // this binary (and the server's own index I/O) are untouched.
    let _serial = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    faults::set_path_filter(dep.wal_dir().to_str());
    faults::fail_fsync_after(0);
    let err = client.update(&[(s, t, 1)]).expect_err("fsync failure must fail the update");
    assert!(err.to_string().contains("wal append"), "{err}");
    faults::reset();

    // The batch was NOT acknowledged; it must not be observable, and
    // the server must keep serving and accepting new updates.
    assert_eq!(client.query(&pairs).expect("query"), base, "rejected batch leaked");
    client.update(&[(s, t, 1)]).expect("update after fault clears");
    model.ack(&[(s, t, 1)]);
    let landed = client.query(&pairs).expect("query");
    assert_ne!(landed, base, "edge must now land");
    assert_eq!(landed, model.answers(&pairs), "served answers diverge from the model");
    let info = client.info().expect("info");
    assert_eq!(info.wal_records, 1, "only the acked batch is in the log");
    handle.shutdown();
}

/// `--durability batch` promises that an acked batch is on stable
/// storage within `BATCH_SYNC_INTERVAL` of the sync before it. An append
/// only syncs when the *next* one is that late, so the tail of a burst
/// has to be synced by the idle executor — shown here by the one fsync
/// that can only be that sync failing, and its failure nacking the
/// update after it.
#[test]
fn batch_durability_syncs_the_tail_of_a_burst_when_ingest_goes_idle() {
    use hop_doubling::extmem::device::faults;
    use hop_doubling::hopdb_server::proto::{read_response, Request, RequestBody, ResponseBody};
    use std::io::Write;

    let dep = Deployment::new(&glp(&GlpParams::with_density(50, 3.0, 907)), Ids::Original);
    let handle = dep.serve(dep.durable(Durability::Batch));
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let idle = 25 * wal::BATCH_SYNC_INTERVAL;

    // Whatever the first update left unsynced is synced by now.
    client.update(&[(0, 49, 1)]).expect("update");
    std::thread::sleep(idle);

    // Two updates in one write reach the executor as one batch. The log
    // has been idle for longer than the interval, so the first append
    // syncs (fsync #1 from here); the second follows it within
    // microseconds and does not. Fail fsync #2.
    let _serial = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    faults::set_path_filter(dep.wal_dir().to_str());
    faults::fail_fsync_after(1);
    let mut raw = std::net::TcpStream::connect(handle.local_addr()).expect("raw connect");
    let burst: Vec<u8> = [(1, vec![(1, 48, 1)]), (2, vec![(2, 47, 1)])]
        .into_iter()
        .flat_map(|(id, edges)| Request { id, body: RequestBody::Update(edges) }.encode())
        .collect();
    raw.write_all(&burst).expect("send burst");
    for id in [1, 2] {
        let reply = read_response(&mut raw).expect("burst reply");
        assert_eq!(reply.id, id);
        assert!(matches!(reply.body, ResponseBody::Updated { .. }), "{reply:?}");
    }

    // No further update arrives. The only fsync left to fail is the
    // executor's own, of the tail: wait until it has failed — on a loaded
    // host it can come well after the interval — so that the hooks,
    // disarmed afterwards, cannot fail anything else or spare it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while faults::fsync_failure_pending() && std::time::Instant::now() < deadline {
        std::thread::sleep(wal::BATCH_SYNC_INTERVAL);
    }
    faults::reset();
    drop(_serial);
    let err = client.update(&[(3, 46, 1)]).expect_err("the failed tail sync must be reported");
    assert!(err.to_string().contains("earlier acknowledged batches"), "{err}");
    // Reported once, to the writer; the acked batches stay served and
    // logged, the nacked one is in neither place, and ingest goes on.
    client.update(&[(3, 46, 1)]).expect("update after the report");
    let info = client.info().expect("info");
    assert_eq!(info.wal_records, 4, "three acked before the failure, one after");
    assert_eq!(info.overlay_edges, 4);
    handle.shutdown();
}

#[test]
fn failed_compaction_is_counted_and_compaction_re_arms() {
    let dep = Deployment::new(&glp(&GlpParams::with_density(40, 3.0, 906)), Ids::Original);
    // No --graph: every compaction attempt fails cleanly.
    let config = ServerConfig {
        wal_dir: Some(dep.wal_dir()),
        durability: Durability::Batch,
        ..ServerConfig::default()
    };
    let handle = dep.serve(config);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for _ in 0..2 {
        let err = client.compact().expect_err("compaction without --graph must fail");
        assert!(err.to_string().contains("--graph"), "{err}");
    }
    let info = client.info().expect("info");
    assert_eq!(info.aborted_compactions, 2, "failed compactions must be counted");
    assert_eq!(info.compactions, 0);
    handle.shutdown();
}
