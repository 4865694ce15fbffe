//! Write-ahead log, checkpoint manifest, and crash recovery plumbing.
//!
//! Every update batch the daemon accepts is appended here *before* the
//! new generation is published and the client sees an ack, so a crash
//! or restart can replay the log into the overlay and recover exactly
//! the acknowledged state. The format is deliberately dumb — length-
//! prefixed, CRC-framed, append-only — so the reader can walk arbitrary
//! bytes without trusting any of them:
//!
//! ```text
//! file   := header record*
//! header := magic "HOPWAL01" (8B) | epoch u64 LE          (16 bytes)
//! record := len u32 LE | crc32 u32 LE | payload           (8B + len)
//! payload:= count u32 LE | count × (src u32, dst u32, w u32) LE
//! ```
//!
//! `len` covers the payload only; `crc32` (IEEE, reflected — the
//! zlib/ethernet polynomial) covers the payload only. A record is valid
//! iff its full `8 + len` bytes are present, `len` is structurally
//! plausible (`len = 4 + 12·count ≤` [`MAX_RECORD_LEN`]), and the CRC
//! matches — so a torn tail, a flipped length field, or a corrupted
//! body all stop the replay at the last good record instead of
//! panicking or over-reading ([`read_wal`] truncates-at-first-bad).
//!
//! The `epoch` ties the log to a checkpoint generation recorded in the
//! sibling `CURRENT` manifest (see [`Manifest`]). Logs are named per
//! epoch ([`wal_file_name`]): a checkpoint or swap writes the next
//! epoch's complete log *first*, then atomically flips `CURRENT`, so
//! the manifest rename is the single commit point and recovery always
//! finds a complete log for whichever epoch survived. The header epoch
//! must match the manifest's — a mismatch means the directory mixes
//! files from different lineages and recovery refuses to guess.
//!
//! A checkpoint is three artifacts under one epoch name
//! ([`checkpoint_image_name`]): the `HOPIDX04` image `ckpt-<epoch>.idx`,
//! its `.rank` id-translation sidecar, and its `.edges` sibling — every
//! edge the lineage accepted and the image folds in, in the record
//! framing above ([`encode_folded`], [`read_folded`]). A compaction
//! rebuilds from the source graph plus *all* of those edges and the
//! pending ones it pinned, so the next compaction, and the first one
//! after a restart, start from everything ever acknowledged; the log
//! keeps only what the image does not hold.
//!
//! Fsync policy is a runtime knob ([`Durability`]): `always` syncs
//! every append before the ack (no acknowledged batch is ever lost,
//! even to power failure), `batch` group-commits at most every
//! [`BATCH_SYNC_INTERVAL`] — by the next append when the last sync is
//! that old, by the idle executor when no append follows a burst
//! ([`Wal::sync_due`]): a loss window bounded either way, much cheaper
//! under write bursts — `off` leaves syncing to the OS (a process crash
//! still loses nothing — the page cache survives SIGKILL — but a power
//! cut may cost the tail).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::disallowed_macros
    )
)]

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use extmem::device::CountedFile;
use extmem::stats::IoStats;
use extmem::wire::{self, crc32};

/// One logged update edge: `(src, dst, weight)` in original vertex ids.
pub type WalEdge = (u32, u32, u32);

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"HOPWAL01";
/// WAL file header length: magic + epoch.
pub const WAL_HEADER_LEN: u64 = 16;
/// Per-record frame overhead: length + CRC.
pub const RECORD_HEADER_LEN: u64 = 8;
/// Upper bound on one record's payload (a flipped length field must
/// never drive an over-read). 32 MiB comfortably exceeds the largest
/// update batch the wire protocol admits (16 MiB payload cap).
pub const MAX_RECORD_LEN: u32 = 1 << 25;
/// Group-commit window for [`Durability::Batch`].
pub const BATCH_SYNC_INTERVAL: Duration = Duration::from_millis(2);

/// File name of the checkpoint manifest inside a WAL directory.
pub const MANIFEST_FILE: &str = "CURRENT";

/// Name of the log file carrying `epoch`'s update tail. One log file
/// per epoch makes the manifest rename the *single* commit point of a
/// checkpoint or swap: the next epoch's log is fully written before
/// `CURRENT` flips, and whichever log the surviving manifest names is
/// complete.
pub fn wal_file_name(epoch: u64) -> String {
    format!("wal-{epoch}.log")
}

/// Name of `epoch`'s checkpoint image inside the WAL directory; its
/// siblings sit at `<name>.rank` (matching the boot loader) and
/// `<name>`[`FOLDED_EXT`].
pub fn checkpoint_image_name(epoch: u64) -> String {
    format!("ckpt-{epoch}.idx")
}

/// Best-effort garbage collection of a WAL directory: delete log
/// files, checkpoint artifacts, and stale temp files from every epoch
/// but `keep` (whose `ckpt-<keep>.idx*` are kept by prefix). Runs after
/// boot recovery and after each manifest flip; failures are ignored (a
/// leftover file is re-collected next time).
pub fn gc_dir(dir: &Path, keep: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let keep_wal = wal_file_name(keep);
    let keep_ckpt = checkpoint_image_name(keep);
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_wal = name.starts_with("wal-") && name.ends_with(".log") && name != keep_wal;
        let stale_ckpt = name.starts_with("ckpt-") && !name.starts_with(&keep_ckpt);
        if stale_wal || stale_ckpt || name.ends_with(".tmp") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// When (if ever) an appended batch is fsynced relative to its ack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Durability {
    /// Never fsync from the hot path; rely on the OS page cache.
    Off,
    /// Group-commit: fsync at most once per [`BATCH_SYNC_INTERVAL`].
    Batch,
    /// Fsync every appended batch before it is acknowledged.
    Always,
}

impl std::str::FromStr for Durability {
    type Err = String;
    fn from_str(s: &str) -> Result<Durability, String> {
        match s {
            "off" => Ok(Durability::Off),
            "batch" => Ok(Durability::Batch),
            "always" => Ok(Durability::Always),
            other => Err(format!("unknown durability '{other}' (expected off|batch|always)")),
        }
    }
}

impl std::fmt::Display for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Durability::Off => "off",
            Durability::Batch => "batch",
            Durability::Always => "always",
        })
    }
}

impl Durability {
    /// Wire encoding used by the `info` response (see
    /// [`crate::proto::InfoReply::durability`]).
    pub fn as_u8(self) -> u8 {
        match self {
            Durability::Off => 0,
            Durability::Batch => 1,
            Durability::Always => 2,
        }
    }
}

fn encode_payload(batch: &[WalEdge]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + batch.len() * 12);
    payload.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for &(s, t, w) in batch {
        payload.extend_from_slice(&s.to_le_bytes());
        payload.extend_from_slice(&t.to_le_bytes());
        payload.extend_from_slice(&w.to_le_bytes());
    }
    payload
}

fn encode_record(batch: &[WalEdge]) -> Vec<u8> {
    let payload = encode_payload(batch);
    let mut rec = Vec::with_capacity(8 + payload.len());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc32(&payload).to_le_bytes());
    rec.extend_from_slice(&payload);
    rec
}

fn encode_header(epoch: u64) -> Vec<u8> {
    let mut header = WAL_MAGIC.to_vec();
    header.extend_from_slice(&epoch.to_le_bytes());
    header
}

/// Extension of a checkpoint image's folded-edge sibling.
pub const FOLDED_EXT: &str = ".edges";

/// The complete bytes of `epoch`'s folded-edge file: a WAL header,
/// `edges` in records well under [`MAX_RECORD_LEN`], and one empty
/// record that closes the file — so a copy cut at *any* byte, record
/// boundaries included, does not read as a shorter valid one.
pub fn encode_folded(epoch: u64, edges: &[WalEdge]) -> Vec<u8> {
    let mut out = encode_header(epoch);
    for chunk in edges.chunks(1 << 20) {
        out.extend(encode_record(chunk));
    }
    out.extend(encode_record(&[]));
    out
}

/// Read the folded edges beside checkpoint `image` through the log's
/// checked reader (see [`read_wal`]). No sibling means nothing was folded
/// (an image that is not a checkpoint, or one written before the file
/// existed). A sibling that is there must read completely: the wrong
/// epoch, a dropped byte or a missing closing record is `InvalidData`
/// naming the file. The log tolerates a torn tail because acks lag it;
/// this file is synced before the manifest names it, so a tear here is
/// corruption, and booting short would forget acknowledged edges.
pub fn read_folded(image: &Path, epoch: u64) -> std::io::Result<Vec<WalEdge>> {
    let path = crate::backend::sibling(image, FOLDED_EXT);
    let Some(bytes) = read_present(&path, IoStats::shared())? else { return Ok(Vec::new()) };
    let mut replay = replay(&bytes);
    let closed = replay.batches.pop().is_some_and(|end| end.is_empty());
    if replay.epoch != Some(epoch) || replay.dropped_bytes != 0 || !closed {
        let what =
            format!("{}: not the complete folded-edge file of epoch {epoch}", path.display());
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, what));
    }
    Ok(replay.batches.concat())
}

/// The result of walking a WAL file with [`read_wal`].
#[derive(Debug)]
pub struct Replay {
    /// Epoch from the file header; `None` when the file is missing,
    /// shorter than a header, or opens with the wrong magic (recovery
    /// then treats the log as absent and starts a fresh one).
    pub epoch: Option<u64>,
    /// Every structurally valid, CRC-clean batch, in append order.
    pub batches: Vec<Vec<WalEdge>>,
    /// Byte length of the valid prefix (header + whole good records).
    /// The recovered writer truncates the file here before appending.
    pub valid_len: u64,
    /// Bytes past the valid prefix that were discarded (torn tail,
    /// corrupt record, or trailing garbage).
    pub dropped_bytes: u64,
}

impl Replay {
    /// An empty replay for a missing log file.
    fn absent() -> Replay {
        Replay { epoch: None, batches: Vec::new(), valid_len: 0, dropped_bytes: 0 }
    }
}

/// The bytes of `path`, read through `stats`; `None` when it does not
/// exist. Only `NotFound` means absent: a file that is there but cannot
/// be read is an error naming it, never a file read as missing.
fn read_present(path: &Path, stats: Arc<IoStats>) -> std::io::Result<Option<Vec<u8>>> {
    let read = || -> std::io::Result<Vec<u8>> {
        let mut file = CountedFile::open_path_readonly(path, stats)?;
        let mut bytes = vec![0u8; file.len()? as usize];
        file.read_exact_at(0, &mut bytes)?;
        Ok(bytes)
    };
    match read() {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => {
            Err(std::io::Error::new(e.kind(), format!("cannot read {}: {e}", path.display())))
        }
    }
}

/// Walk `path`, returning the longest valid prefix. Never panics on
/// arbitrary bytes; never reads past a declared length without
/// validating it first. A missing file is an empty replay, not an
/// error — only real I/O failures surface as `Err`.
pub fn read_wal(path: &Path, stats: Arc<IoStats>) -> std::io::Result<Replay> {
    Ok(read_present(path, stats)?.map_or_else(Replay::absent, |bytes| replay(&bytes)))
}

/// The longest valid prefix of a log's `bytes`.
fn replay(bytes: &[u8]) -> Replay {
    let len = bytes.len() as u64;
    let (Some(magic), Some(epoch)) = (bytes.first_chunk::<8>(), wire::u64_at(bytes, 8)) else {
        return Replay { dropped_bytes: len, ..Replay::absent() };
    };
    if magic != WAL_MAGIC {
        return Replay { dropped_bytes: len, ..Replay::absent() };
    }
    let mut batches = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    while let (Some(rec_len), Some(crc)) = (wire::u32_at(bytes, pos), wire::u32_at(bytes, pos + 4))
    {
        if !(4..=MAX_RECORD_LEN).contains(&rec_len) || !(rec_len - 4).is_multiple_of(12) {
            break; // implausible length: flipped field or garbage
        }
        let start = pos + RECORD_HEADER_LEN as usize;
        let Some(payload) = bytes.get(start..start + rec_len as usize) else { break };
        if crc32(payload) != crc {
            break; // torn or bit-flipped body
        }
        let Some(count) = wire::u32_at(payload, 0).map(|c| c as usize) else { break };
        if 4 + count * 12 != rec_len as usize {
            break; // count disagrees with the frame length
        }
        let mut words = wire::u32s(payload.get(4..).unwrap_or_default());
        let mut batch = Vec::with_capacity(count);
        while let (Some(s), Some(t), Some(w)) = (words.next(), words.next(), words.next()) {
            batch.push((s, t, w));
        }
        batches.push(batch);
        pos = start + rec_len as usize;
    }
    Replay { epoch: Some(epoch), batches, valid_len: pos as u64, dropped_bytes: len - pos as u64 }
}

/// Append handle over a WAL file, owning the fsync policy.
pub struct Wal {
    file: CountedFile,
    path: PathBuf,
    epoch: u64,
    durability: Durability,
    last_sync: Instant,
    /// Records since `last_sync` await the group commit (`Batch` only).
    unsynced: bool,
    /// A failed [`Wal::sync_tail`], kept to fail the next append.
    tail_error: Option<std::io::Error>,
    records: u64,
    bytes: u64,
}

impl Wal {
    /// Create (or truncate) a fresh log at `path` for `epoch`. The
    /// header is written and synced before this returns.
    pub fn create(
        path: &Path,
        epoch: u64,
        durability: Durability,
        stats: Arc<IoStats>,
    ) -> std::io::Result<Wal> {
        let mut file = CountedFile::create_path(path, stats)?;
        file.write_all(&encode_header(epoch))?;
        if durability != Durability::Off {
            file.sync_data()?;
        }
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            epoch,
            durability,
            last_sync: Instant::now(),
            unsynced: false,
            tail_error: None,
            records: 0,
            bytes: WAL_HEADER_LEN,
        })
    }

    /// Reopen an existing log after [`read_wal`], truncating the torn
    /// tail (everything past `replay.valid_len`) and positioning for
    /// append. The replay must have a valid header.
    pub fn open_after_replay(
        path: &Path,
        replay: &Replay,
        durability: Durability,
        stats: Arc<IoStats>,
    ) -> std::io::Result<Wal> {
        let epoch = replay
            .epoch
            .ok_or_else(|| std::io::Error::other("cannot reopen a WAL without a valid header"))?;
        let mut file = CountedFile::open_path(path, stats)?;
        if replay.dropped_bytes > 0 {
            file.set_len(replay.valid_len)?;
            file.sync_data()?;
        }
        file.seek_to(replay.valid_len)?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            epoch,
            durability,
            last_sync: Instant::now(),
            unsynced: false,
            tail_error: None,
            records: replay.batches.len() as u64,
            bytes: replay.valid_len,
        })
    }

    /// Append one batch, honoring the fsync policy. On return under
    /// [`Durability::Always`] the record is on stable storage. On ANY
    /// error — short write *or* failed fsync — the file is cut back to
    /// the previous record boundary best-effort: the caller will nack
    /// the batch, so leaving its record behind would resurrect a
    /// rejected update at the next recovery. A failed tail sync since
    /// the last append fails this one, unwritten: what it covered is
    /// acked for good, so the writer learns of it here.
    pub fn append(&mut self, batch: &[WalEdge]) -> std::io::Result<()> {
        if let Some(e) = self.tail_error.take() {
            return Err(e);
        }
        let rec = encode_record(batch);
        let mut result = self.file.write_all(&rec);
        let mut synced = false;
        if result.is_ok() {
            let want_sync = match self.durability {
                Durability::Off => false,
                Durability::Always => true,
                Durability::Batch => self.last_sync.elapsed() >= BATCH_SYNC_INTERVAL,
            };
            if want_sync {
                result = self.file.sync_data();
                synced = result.is_ok();
            }
        }
        match result {
            Ok(()) => {
                self.records += 1;
                self.bytes += rec.len() as u64;
                if synced {
                    self.last_sync = Instant::now();
                }
                self.unsynced = self.durability == Durability::Batch && !synced;
                Ok(())
            }
            Err(e) => {
                let _ = self.file.set_len(self.bytes);
                let _ = self.file.seek_to(self.bytes);
                Err(e)
            }
        }
    }

    /// Force an fsync regardless of policy.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()?;
        self.last_sync = Instant::now();
        self.unsynced = false;
        Ok(())
    }

    /// When the group commit owes a sync whether or not an append
    /// comes to make it; `None` when the log is clean, or a failed tail
    /// sync waits to be reported.
    pub fn sync_due(&self) -> Option<Instant> {
        (self.unsynced && self.tail_error.is_none()).then(|| self.last_sync + BATCH_SYNC_INTERVAL)
    }

    /// The group commit of a log gone idle: sync the unsynced tail, if
    /// any. A failure is not dropped — it fails the next append, the
    /// way a failed fsync inside one would have.
    pub fn sync_tail(&mut self) {
        if !self.unsynced {
            return;
        }
        if let Err(e) = self.sync() {
            let what = format!("syncing earlier acknowledged batches failed: {e}");
            self.tail_error = Some(std::io::Error::new(e.kind(), what));
        }
    }

    /// Epoch stamped in the file header.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records currently in the log (post-truncation, post-replace).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Byte length of the log, header included.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Best-effort parent-directory fsync so a rename is durable. Errors
/// are ignored: not all platforms/filesystems support opening and
/// syncing directories, and the rename itself already happened.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

/// The `CURRENT` checkpoint manifest: which epoch the serving lineage
/// is at and which index image that epoch boots from.
///
/// Each epoch owns its own log (`wal-<epoch>.log`) and, when a
/// compaction made it, its three checkpoint artifacts: the image
/// `ckpt-<epoch>.idx`, `ckpt-<epoch>.idx.rank`, and
/// `ckpt-<epoch>.idx.edges` — the accepted edges the image folds in,
/// which the next compaction rebuilds from. (A swap's epoch names the
/// swapped image, which folds nothing and has no `.edges`.) A
/// checkpoint writes the *next* epoch's complete files first and flips
/// `CURRENT` last (temp file, fsync, rename) — the rename is the single
/// commit point, so every crash recovers cleanly:
///
/// * crash before the flip → old manifest: recovery boots the old
///   image and replays the old epoch's log in full; the half-staged
///   next epoch is garbage-collected;
/// * crash after the flip → new manifest: the new epoch's artifacts and
///   log were complete and synced before the rename, so recovery boots
///   them directly; the old epoch's leftovers are garbage-collected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Checkpoint epoch; a fresh lineage starts at 0.
    pub epoch: u64,
    /// Index image (`HOPIDX04`) this epoch boots from; its `.rank`
    /// sidecar is required exactly as at first boot, and an `.edges`
    /// sibling is read back by [`read_folded`].
    pub index_path: PathBuf,
}

/// Read `dir/CURRENT`; `Ok(None)` only when it does not exist (a fresh
/// lineage). A manifest that cannot be read or does not parse is an
/// error naming it: a torn write leaves the old complete file in place
/// thanks to the rename, so either is damage, and booting the original
/// image instead would garbage-collect the live epoch's checkpoint and
/// log — the acknowledged updates.
pub fn read_manifest(dir: &Path) -> std::io::Result<Option<Manifest>> {
    let path = dir.join(MANIFEST_FILE);
    let Some(bytes) = read_present(&path, IoStats::shared())? else { return Ok(None) };
    let mut lines = std::str::from_utf8(&bytes).unwrap_or_default().lines();
    let magic = lines.next();
    let epoch = lines.next().and_then(|l| l.parse::<u64>().ok());
    match (magic, epoch, lines.next()) {
        (Some("HOPCUR01"), Some(epoch), Some(index_path)) => {
            Ok(Some(Manifest { epoch, index_path: PathBuf::from(index_path) }))
        }
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: not a HOPCUR01 checkpoint manifest", path.display()),
        )),
    }
}

/// Atomically publish `dir/CURRENT` (temp file, fsync, rename,
/// best-effort directory sync).
pub fn write_manifest(dir: &Path, manifest: &Manifest, stats: Arc<IoStats>) -> std::io::Result<()> {
    let tmp_path = dir.join("CURRENT.tmp");
    let final_path = dir.join(MANIFEST_FILE);
    let mut tmp = CountedFile::create_path(&tmp_path, stats)?;
    let body = format!("HOPCUR01\n{}\n{}\n", manifest.epoch, manifest.index_path.to_string_lossy());
    tmp.write_all(body.as_bytes())?;
    tmp.sync_data()?;
    std::fs::rename(&tmp_path, &final_path)?;
    sync_parent_dir(&final_path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem::device::TempStore;

    fn batches() -> Vec<Vec<WalEdge>> {
        vec![vec![(0, 1, 5), (2, 3, 7)], vec![(4, 5, 1)], vec![(6, 7, 9), (8, 9, 2), (10, 11, 3)]]
    }

    #[test]
    fn durability_parses_and_displays() {
        for (s, d) in
            [("off", Durability::Off), ("batch", Durability::Batch), ("always", Durability::Always)]
        {
            assert_eq!(s.parse::<Durability>().unwrap(), d);
            assert_eq!(d.to_string(), s);
            // What `admin info` and `GET /stats` print for the wire code
            // is the spelling `--durability` takes.
            assert_eq!(crate::proto::durability_name(d.as_u8()), s);
        }
        assert!("fsync".parse::<Durability>().is_err());
    }

    #[test]
    fn append_replay_roundtrip() {
        let store = TempStore::new().unwrap();
        let path = store.create("wal").unwrap().path().to_path_buf();
        let mut wal = Wal::create(&path, 42, Durability::Always, IoStats::shared()).unwrap();
        for b in batches() {
            wal.append(&b).unwrap();
        }
        assert_eq!(wal.records(), 3);
        let replay = read_wal(&path, IoStats::shared()).unwrap();
        assert_eq!(replay.epoch, Some(42));
        assert_eq!(replay.batches, batches());
        assert_eq!(replay.dropped_bytes, 0);
        assert_eq!(replay.valid_len, wal.bytes());
    }

    #[test]
    fn missing_file_is_an_empty_replay() {
        let store = TempStore::new().unwrap();
        let path = store.create("never").unwrap().path().with_extension("absent");
        let replay = read_wal(&path, IoStats::shared()).unwrap();
        assert_eq!(replay.epoch, None);
        assert!(replay.batches.is_empty());
    }

    #[test]
    fn torn_tail_is_truncated_and_reopen_appends_cleanly() {
        let store = TempStore::new().unwrap();
        let path = store.create("wal").unwrap().path().to_path_buf();
        let mut wal = Wal::create(&path, 7, Durability::Off, IoStats::shared()).unwrap();
        for b in batches() {
            wal.append(&b).unwrap();
        }
        let full = wal.bytes();
        drop(wal);
        // Tear 5 bytes off the final record.
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);
        let replay = read_wal(&path, IoStats::shared()).unwrap();
        assert_eq!(replay.epoch, Some(7));
        assert_eq!(replay.batches, batches()[..2].to_vec());
        assert_eq!(replay.dropped_bytes, (full - 5) - replay.valid_len);
        // Reopen truncates the tear and appends a new record cleanly.
        let mut wal =
            Wal::open_after_replay(&path, &replay, Durability::Always, IoStats::shared()).unwrap();
        wal.append(&[(9, 9, 9)]).unwrap();
        let replay2 = read_wal(&path, IoStats::shared()).unwrap();
        let mut expect = batches()[..2].to_vec();
        expect.push(vec![(9, 9, 9)]);
        assert_eq!(replay2.batches, expect);
        assert_eq!(replay2.dropped_bytes, 0);
    }

    /// The fault hooks are process-wide: tests that arm them take turns.
    static FAULTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn torn_append_is_healed_in_place() {
        use extmem::device::faults;
        let _serial = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
        let store = TempStore::new().unwrap();
        let path = store.create("wal-heal-target").unwrap().path().to_path_buf();
        let mut wal = Wal::create(&path, 3, Durability::Off, IoStats::shared()).unwrap();
        wal.append(&[(1, 2, 3)]).unwrap();
        faults::set_path_filter(Some("wal-heal-target"));
        faults::short_write_after(0);
        assert!(wal.append(&[(4, 5, 6)]).is_err());
        faults::reset();
        // The torn bytes were cut back; the next append stays readable.
        wal.append(&[(7, 8, 9)]).unwrap();
        let replay = read_wal(&path, IoStats::shared()).unwrap();
        assert_eq!(replay.batches, vec![vec![(1, 2, 3)], vec![(7, 8, 9)]]);
        assert_eq!(replay.dropped_bytes, 0);
    }

    #[test]
    fn batch_append_right_after_a_sync_leaves_a_tail_the_due_sync_clears() {
        use extmem::device::faults;
        let store = TempStore::new().unwrap();
        let path = store.create("wal-tail-target").unwrap().path().to_path_buf();
        let mut wal = Wal::create(&path, 1, Durability::Batch, IoStats::shared()).unwrap();
        assert_eq!(wal.sync_due(), None, "a fresh log is clean");
        // "Right after a sync", however slow the test host: a sync in
        // the future keeps every append below inside the window.
        let just_synced = Instant::now() + Duration::from_secs(3600);
        wal.last_sync = just_synced;
        wal.append(&[(1, 2, 3)]).unwrap();
        // The record is owed a sync, at a time no next append decides.
        assert_eq!(wal.sync_due(), Some(just_synced + BATCH_SYNC_INTERVAL));
        wal.sync_tail();
        assert_eq!(wal.sync_due(), None, "the due sync clears the tail");

        // A failed tail sync asks for no further one; it fails the next
        // append, once, and the tail is owed its sync again.
        wal.last_sync = just_synced;
        wal.append(&[(4, 5, 6)]).unwrap();
        {
            let _serial = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
            faults::set_path_filter(Some("wal-tail-target"));
            faults::fail_fsync_after(0);
            wal.sync_tail();
            faults::reset();
        }
        assert_eq!(wal.sync_due(), None);
        let err = wal.append(&[(7, 8, 9)]).expect_err("the failed tail sync is reported");
        assert!(err.to_string().contains("earlier acknowledged batches"), "{err}");
        assert!(wal.sync_due().is_some(), "(4, 5, 6) is still unsynced");
        wal.append(&[(7, 8, 9)]).unwrap();
        wal.sync_tail();
        assert_eq!(wal.sync_due(), None);
        let replay = read_wal(&path, IoStats::shared()).unwrap();
        assert_eq!(replay.batches, vec![vec![(1, 2, 3)], vec![(4, 5, 6)], vec![(7, 8, 9)]]);

        // `always` and `off` never owe a sync.
        for durability in [Durability::Always, Durability::Off] {
            let mut wal = Wal::create(&path, 2, durability, IoStats::shared()).unwrap();
            wal.last_sync = just_synced;
            wal.append(&[(1, 2, 3)]).unwrap();
            assert_eq!(wal.sync_due(), None, "{durability}");
        }
    }

    #[test]
    fn epoch_file_names_and_gc() {
        let store = TempStore::new().unwrap();
        let dir = store.create("probe").unwrap().path().parent().unwrap().to_path_buf();
        let live = ["ckpt-4.idx", "ckpt-4.idx.rank", "ckpt-4.idx.edges"];
        let stale = ["ckpt-3.idx", "ckpt-3.idx.rank", "ckpt-3.idx.edges", "ckpt-40.idx.edges"];
        for name in
            [wal_file_name(3), wal_file_name(4)].iter().map(String::as_str).chain(live).chain(stale)
        {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        std::fs::write(dir.join("ckpt-4.idx.tmp"), b"x").unwrap();
        write_manifest(
            &dir,
            &Manifest { epoch: 4, index_path: dir.join(checkpoint_image_name(4)) },
            IoStats::shared(),
        )
        .unwrap();
        gc_dir(&dir, 4);
        assert!(dir.join(wal_file_name(4)).exists());
        assert!(dir.join(MANIFEST_FILE).exists());
        assert!(!dir.join(wal_file_name(3)).exists());
        // The live epoch's artifacts are kept by prefix, `.edges`
        // included; a stale epoch's go, `.edges` included.
        assert!(live.iter().all(|name| dir.join(name).exists()));
        assert!(!stale.iter().any(|name| dir.join(name).exists()));
        assert!(!dir.join("ckpt-4.idx.tmp").exists());
    }

    #[test]
    fn bad_header_reads_as_absent() {
        let store = TempStore::new().unwrap();
        let path = store.create("wal").unwrap().path().to_path_buf();
        std::fs::write(&path, b"NOTAWAL!").unwrap();
        let replay = read_wal(&path, IoStats::shared()).unwrap();
        assert_eq!(replay.epoch, None);
        assert_eq!(replay.dropped_bytes, 8);
        assert!(Wal::open_after_replay(&path, &replay, Durability::Off, IoStats::shared()).is_err());
    }

    #[test]
    fn manifest_roundtrip_and_absence() {
        let store = TempStore::new().unwrap();
        let dir = store.create("probe").unwrap().path().parent().unwrap().to_path_buf();
        assert_eq!(read_manifest(&dir).unwrap(), None);
        let m = Manifest { epoch: 9, index_path: PathBuf::from("/tmp/idx.bin") };
        write_manifest(&dir, &m, IoStats::shared()).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(m.clone()));
        let m2 = Manifest { epoch: 10, index_path: PathBuf::from("/elsewhere/ckpt-10.idx") };
        write_manifest(&dir, &m2, IoStats::shared()).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(m2));
        // A garbage manifest is an error naming it, never absent (and
        // never a panic); so is one that cannot be read.
        for garbage in [&b"\xFF\xFE\x00garbage"[..], b"HOPCUR01\n9\n", b"HOPCUR01\nx\n/i.idx\n"] {
            std::fs::write(dir.join(MANIFEST_FILE), garbage).unwrap();
            let err = read_manifest(&dir).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(MANIFEST_FILE), "{err}");
        }
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        std::fs::create_dir(dir.join(MANIFEST_FILE)).unwrap();
        let err = read_manifest(&dir).unwrap_err();
        assert!(
            err.to_string().contains(&format!("cannot read {}", dir.join(MANIFEST_FILE).display())),
            "{err}"
        );
        std::fs::remove_dir(dir.join(MANIFEST_FILE)).unwrap();
    }
}
