//! Kill-and-restart harness for the durability tier: spawn the real
//! `hopdb-cli serve` daemon with a WAL, SIGKILL it at randomized
//! points during ingest and during a compaction checkpoint (the first
//! of a lineage and the second), restart it, and assert the recovered
//! daemon's answers are bit-identical to a from-scratch oracle of the
//! acknowledged update prefix (plus, at most, the one batch that was in
//! flight when the process died).
//! Under `--durability always` no acknowledged batch may ever be lost.
//!
//! SIGKILL validates the recovery/replay/checkpoint-ordering logic:
//! written bytes survive process death in the page cache, so torn
//! *tails* are exercised separately by `EXTMEM_FAULT_*`-planted
//! crashes inside WAL writes and by the corruption corpus.

#![cfg(unix)]

use std::io::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use hopdb_server::proto::{Request, RequestBody};
use hopdb_server::Client;
use rand::rngs::StdRng;
use rand::Rng;
use sfgraph::VertexId;

#[path = "../../../tests/testkit/mod.rs"]
mod testkit;
use testkit::{clock_rng, spread, Deployment, Edge};

const N: usize = 60;

/// Generate a graph and build its index through the real CLI, exactly
/// as a deployment would.
fn built_by_the_cli() -> Deployment {
    let dep =
        Deployment::edge_list(&graphgen::glp(&graphgen::GlpParams::with_density(N, 3.0, 4242)));
    let status = Command::new(env!("CARGO_BIN_EXE_hopdb-cli"))
        .args(["build", "-i"])
        .arg(dep.graph_path())
        .arg("-o")
        .arg(dep.index_path())
        .stdout(Stdio::null())
        .status()
        .expect("run build");
    assert!(status.success(), "cli build failed");
    dep
}

/// Spawn the daemon and wait for its announce file; extra_env plants
/// `EXTMEM_FAULT_*` crash points for the torn-write trials.
// The whole point is handing the live Child to the caller to SIGKILL;
// every exit path (including assert_recovered) kills and reaps it.
#[allow(clippy::zombie_processes)]
fn spawn_daemon(
    dep: &Deployment,
    wal_dir: &PathBuf,
    extra_env: &[(&str, String)],
) -> (Child, SocketAddr) {
    let announce = dep.path("announce");
    std::fs::remove_file(&announce).ok();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hopdb-cli"));
    cmd.args(["serve", "-x"])
        .arg(dep.index_path())
        .arg("--graph")
        .arg(dep.graph_path())
        .arg("--wal-dir")
        .arg(wal_dir)
        .args(["--durability", "always", "--addr", "127.0.0.1:0"])
        .arg("--announce-file")
        .arg(&announce)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn daemon");
    for _ in 0..400 {
        if let Ok(text) = std::fs::read_to_string(&announce) {
            if let Ok(addr) = text.trim().parse() {
                return (child, addr);
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    child.kill().ok();
    child.wait().ok();
    panic!("daemon never announced its address");
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect_retry(&addr, Some(Duration::from_secs(10)), 5).expect("connect")
}

fn random_batch(rng: &mut StdRng) -> Vec<Edge> {
    let len = rng.gen_range(1..4);
    (0..len)
        .map(|_| {
            let s = rng.gen_range(0..N as VertexId);
            let t = (s + rng.gen_range(1..N as VertexId)) % N as VertexId;
            (s, t, 1)
        })
        .collect()
}

/// Restart after the kill and check the recovered answers against the
/// acceptable states: every acked batch present, plus at most the one
/// in-flight batch (WAL records are batch-atomic under CRC, so no
/// other state can legally surface).
fn assert_recovered(
    dep: &Deployment,
    wal_dir: &PathBuf,
    acked: &[Vec<Edge>],
    inflight: Option<&Vec<Edge>>,
    context: &str,
) {
    let (mut child, addr) = spawn_daemon(dep, wal_dir, &[]);
    let mut client = connect(addr);
    let pairs = spread(N);
    let got = client.query(&pairs).expect("query after recovery");

    let mut model = dep.model();
    acked.iter().for_each(|batch| model.ack(batch));
    let mut accepted = got == model.answers(&pairs);
    if let (false, Some(inflight)) = (accepted, inflight) {
        model.ack(inflight);
        accepted = got == model.answers(&pairs);
    }
    assert!(
        accepted,
        "{context}: recovered answers match neither the acked prefix nor acked+in-flight\n\
         acked batches: {acked:?}\nin-flight: {inflight:?}"
    );
    // The recovered lineage is whole, not just its answers: a
    // compaction now rebuilds from everything it recovered — what a
    // checkpoint before the kill folded in included.
    client.compact().expect("compact after recovery");
    let after = client.query(&pairs).expect("query after compaction");
    assert_eq!(after, got, "{context}: compacting the recovered lineage changed answers");
    child.kill().ok();
    child.wait().ok();
}

#[test]
fn sigkill_during_ingest_recovers_the_acked_prefix() {
    let dep = built_by_the_cli();
    let mut rng = clock_rng();

    for trial in 0..3 {
        let wal_dir = dep.path(&format!("wal-ingest-{trial}"));
        let (mut child, addr) = spawn_daemon(&dep, &wal_dir, &[]);
        let mut client = connect(addr);

        // Ack a random number of batches synchronously...
        let acked: Vec<_> = (0..rng.gen_range(0..5)).map(|_| random_batch(&mut rng)).collect();
        for batch in &acked {
            client.update(batch).expect("acked update");
        }
        // ...then fire one more without waiting for its ack and kill
        // the daemon while it is (maybe) mid-append.
        let inflight = random_batch(&mut rng);
        let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
        raw.write_all(&Request { id: 1, body: RequestBody::Update(inflight.clone()) }.encode())
            .expect("fire in-flight update");
        std::thread::sleep(Duration::from_millis(rng.gen_range(0..8)));
        child.kill().expect("SIGKILL");
        child.wait().expect("reap");
        drop(raw);

        assert_recovered(&dep, &wal_dir, &acked, Some(&inflight), &format!("ingest trial {trial}"));
    }
}

#[test]
fn sigkill_during_compaction_loses_nothing() {
    let dep = built_by_the_cli();
    let mut rng = clock_rng();

    for trial in 0..4 {
        let wal_dir = dep.path(&format!("wal-compact-{trial}"));
        let (mut child, addr) = spawn_daemon(&dep, &wal_dir, &[]);
        let mut client = connect(addr);

        // Odd trials kill the *second* checkpoint of the lineage: the
        // first one completes, and what it folded in must survive a
        // kill on either side of the second manifest flip too.
        let mut acked: Vec<Vec<Edge>> = Vec::new();
        for round in 0..1 + trial % 2 {
            if round == 1 {
                client.compact().expect("first checkpoint");
            }
            for _ in 0..rng.gen_range(1..4) {
                let batch = random_batch(&mut rng);
                client.update(&batch).expect("acked update");
                acked.push(batch);
            }
        }
        // Fire the compaction without waiting and kill the daemon a
        // random slice into the rebuild/checkpoint. Every acked batch
        // must survive whether the kill lands before or after the
        // manifest flip.
        let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
        raw.write_all(&Request { id: 1, body: RequestBody::Compact }.encode())
            .expect("fire compact");
        std::thread::sleep(Duration::from_millis(rng.gen_range(0..60)));
        child.kill().expect("SIGKILL");
        child.wait().expect("reap");
        drop(raw);

        assert_recovered(&dep, &wal_dir, &acked, None, &format!("compact trial {trial}"));
    }
}

#[test]
fn planted_crash_inside_a_wal_write_recovers_cleanly() {
    // A crash *inside* the WAL append itself (not just between
    // syscalls): the daemon aborts after a fixed number of writes to
    // WAL files, which can land mid-record. Recovery must truncate the
    // torn tail and serve the longest acked prefix; the in-flight
    // batch at the crash point may or may not have made it.
    let dep = built_by_the_cli();
    // Keep "wal-" out of the directory name: the fault path filter
    // must match only the log files themselves.
    let wal_dir = dep.path("planted");
    let env = [
        ("EXTMEM_FAULT_PATH_FILTER", "wal-".to_string()),
        // Headers + a few records land, then the process aborts mid-write.
        ("EXTMEM_FAULT_CRASH_AFTER_WRITES", "3".to_string()),
    ];
    let (mut child, addr) = spawn_daemon(&dep, &wal_dir, &env);
    let mut client = connect(addr);

    let batches: Vec<Vec<Edge>> =
        vec![vec![(0, 30, 1)], vec![(5, 55, 1)], vec![(10, 40, 1)], vec![(2, 33, 1)]];
    let mut acked: Vec<Vec<Edge>> = Vec::new();
    let mut inflight = None;
    for batch in &batches {
        match client.update(batch) {
            Ok(_) => acked.push(batch.clone()),
            Err(_) => {
                // The daemon died mid-append: this batch was never
                // acked, but its record may be partially on disk.
                inflight = Some(batch.clone());
                break;
            }
        }
    }
    assert!(inflight.is_some(), "the planted crash never fired");
    child.wait().expect("reap");

    assert_recovered(&dep, &wal_dir, &acked, inflight.as_ref(), "planted crash");
}
