//! Counted files and temp-file management.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::stats::IoStats;

pub mod faults {
    //! Test-only I/O fault injection for crash-recovery hardening.
    //!
    //! Process-global countdown knobs that the counted-file write path
    //! consults on every operation. All default to "disarmed" and cost
    //! one relaxed atomic load per write/sync when disarmed, so the
    //! hooks are compiled unconditionally — tests (and only tests)
    //! arm them. Not for production use: arming a fault affects every
    //! [`CountedFile`](super::CountedFile) in the process.
    //!
    //! Three fault classes, each armed as "trigger after N successful
    //! operations of that class":
    //!
    //! * **short writes** — the next write after the countdown expires
    //!   persists only the first half of the buffer (at least 1 byte)
    //!   and then reports [`std::io::ErrorKind::WriteZero`], simulating
    //!   a torn append at an arbitrary byte boundary;
    //! * **fsync failures** — `sync_data` returns an error without
    //!   syncing, simulating a full disk or dying device;
    //! * **crash points** — the process calls [`std::process::abort`]
    //!   immediately *after* the Nth write completes, simulating a
    //!   power cut with everything up to that write already in the OS
    //!   page cache.

    use std::path::Path;
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
    use std::sync::Mutex;

    /// Master switch; when false every hook is a single relaxed load.
    static ENABLED: AtomicBool = AtomicBool::new(false);
    /// Writes remaining before the next one is torn (-1 = disarmed).
    static SHORT_WRITE_AFTER: AtomicI64 = AtomicI64::new(-1);
    /// Syncs remaining before the next one fails (-1 = disarmed).
    static FSYNC_FAIL_AFTER: AtomicI64 = AtomicI64::new(-1);
    /// Writes remaining before the process aborts (-1 = disarmed).
    static CRASH_AFTER_WRITES: AtomicI64 = AtomicI64::new(-1);
    /// Only files whose path contains this substring are affected.
    static PATH_FILTER: Mutex<Option<String>> = Mutex::new(None);

    /// Disarm every fault and switch the hooks back to no-ops.
    pub fn reset() {
        SHORT_WRITE_AFTER.store(-1, Ordering::SeqCst);
        FSYNC_FAIL_AFTER.store(-1, Ordering::SeqCst);
        CRASH_AFTER_WRITES.store(-1, Ordering::SeqCst);
        *PATH_FILTER.lock().unwrap() = None;
        ENABLED.store(false, Ordering::SeqCst);
    }

    /// Restrict armed faults to files whose path contains `substr`
    /// (e.g. `"wal"` to fault only WAL appends while checkpoint and
    /// index writes proceed untouched). `None` faults every file.
    pub fn set_path_filter(substr: Option<&str>) {
        *PATH_FILTER.lock().unwrap() = substr.map(str::to_owned);
    }

    fn path_matches(path: &Path) -> bool {
        match &*PATH_FILTER.lock().unwrap() {
            None => true,
            Some(f) => path.to_string_lossy().contains(f.as_str()),
        }
    }

    /// Arm faults from `EXTMEM_FAULT_*` environment variables — the
    /// hook a parent test process uses to plant crash points inside a
    /// spawned daemon. Recognized: `EXTMEM_FAULT_CRASH_AFTER_WRITES=N`,
    /// `EXTMEM_FAULT_SHORT_WRITE_AFTER=N`,
    /// `EXTMEM_FAULT_FSYNC_FAIL_AFTER=N`,
    /// `EXTMEM_FAULT_PATH_FILTER=substr`. Unparsable values are
    /// ignored. Call once at process start; production binaries simply
    /// never set the variables.
    pub fn arm_from_env() {
        let get = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<u64>().ok());
        if let Ok(f) = std::env::var("EXTMEM_FAULT_PATH_FILTER") {
            set_path_filter(Some(&f));
        }
        if let Some(n) = get("EXTMEM_FAULT_CRASH_AFTER_WRITES") {
            crash_after_writes(n);
        }
        if let Some(n) = get("EXTMEM_FAULT_SHORT_WRITE_AFTER") {
            short_write_after(n);
        }
        if let Some(n) = get("EXTMEM_FAULT_FSYNC_FAIL_AFTER") {
            fail_fsync_after(n);
        }
    }

    /// Tear the write that comes after `n` more successful writes
    /// (`n = 0` tears the very next write).
    pub fn short_write_after(n: u64) {
        SHORT_WRITE_AFTER.store(n as i64, Ordering::SeqCst);
        ENABLED.store(true, Ordering::SeqCst);
    }

    /// Fail the `sync_data` that comes after `n` more successful syncs.
    pub fn fail_fsync_after(n: u64) {
        FSYNC_FAIL_AFTER.store(n as i64, Ordering::SeqCst);
        ENABLED.store(true, Ordering::SeqCst);
    }

    /// Whether an armed fsync failure has not fired yet: a test that
    /// waits for a sync it cannot trigger itself polls this rather than
    /// sleeping for a guess.
    pub fn fsync_failure_pending() -> bool {
        ENABLED.load(Ordering::SeqCst) && FSYNC_FAIL_AFTER.load(Ordering::SeqCst) >= 0
    }

    /// Abort the process immediately after `n + 1` more writes land.
    pub fn crash_after_writes(n: u64) {
        CRASH_AFTER_WRITES.store(n as i64, Ordering::SeqCst);
        ENABLED.store(true, Ordering::SeqCst);
    }

    /// Hook: truncate `len` to the injected short length, or `None` to
    /// write the full buffer. Called before a counted write.
    pub(super) fn clamp_write(path: &Path, len: usize) -> Option<usize> {
        if !ENABLED.load(Ordering::Relaxed) || !path_matches(path) {
            return None;
        }
        if SHORT_WRITE_AFTER.load(Ordering::SeqCst) >= 0
            && SHORT_WRITE_AFTER.fetch_sub(1, Ordering::SeqCst) == 0
        {
            return Some((len / 2).clamp(1, len));
        }
        None
    }

    /// Hook: called after a counted write completes; may never return.
    pub(super) fn after_write(path: &Path) {
        if !ENABLED.load(Ordering::Relaxed) || !path_matches(path) {
            return;
        }
        if CRASH_AFTER_WRITES.load(Ordering::SeqCst) >= 0
            && CRASH_AFTER_WRITES.fetch_sub(1, Ordering::SeqCst) == 0
        {
            std::process::abort();
        }
    }

    /// Hook: whether the next `sync_data` should fail.
    pub(super) fn should_fail_fsync(path: &Path) -> bool {
        if !ENABLED.load(Ordering::Relaxed) || !path_matches(path) {
            return false;
        }
        FSYNC_FAIL_AFTER.load(Ordering::SeqCst) >= 0
            && FSYNC_FAIL_AFTER.fetch_sub(1, Ordering::SeqCst) == 0
    }
}

/// A directory of automatically named, automatically deleted temp files.
///
/// All files created through one `TempStore` share one [`IoStats`]
/// counter, so an external computation's total traffic is observable at
/// a single point.
pub struct TempStore {
    inner: Arc<StoreInner>,
    /// Remove the directory itself on drop (set when we created it).
    own_dir: bool,
}

/// Shared creation state: directory, file-name counter, I/O counters.
struct StoreInner {
    dir: PathBuf,
    counter: AtomicU64,
    stats: Arc<IoStats>,
}

impl StoreInner {
    fn create(&self, tag: &str) -> std::io::Result<CountedFile> {
        let id = self.counter.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("{tag}-{id}.bin"));
        let file =
            OpenOptions::new().create(true).truncate(true).read(true).write(true).open(&path)?;
        Ok(CountedFile { file, path, stats: Arc::clone(&self.stats), delete_on_drop: true })
    }
}

impl TempStore {
    /// Create a fresh store in a new directory under the system temp
    /// directory: one that already exists is an error, never shared.
    pub fn new() -> std::io::Result<TempStore> {
        // The sequence keeps this process's stores apart; the clock keeps
        // a reused pid clear of a dead process's leftovers.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let clock = std::time::UNIX_EPOCH.elapsed().map_or(0, |d| d.as_nanos() as u64);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("extmem-{}-{clock:x}-{seq}", std::process::id()));
        std::fs::create_dir(&dir)?;
        Ok(TempStore {
            inner: Arc::new(StoreInner {
                dir,
                counter: AtomicU64::new(0),
                stats: IoStats::shared(),
            }),
            own_dir: true,
        })
    }

    /// Use an existing directory (not removed on drop).
    pub fn in_dir(dir: &Path) -> std::io::Result<TempStore> {
        std::fs::create_dir_all(dir)?;
        Ok(TempStore {
            inner: Arc::new(StoreInner {
                dir: dir.to_path_buf(),
                counter: AtomicU64::new(0),
                stats: IoStats::shared(),
            }),
            own_dir: false,
        })
    }

    /// The directory the store's files are created in.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// The shared I/O counters for this store.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.inner.stats)
    }

    /// Create a new empty counted file.
    pub fn create(&self, tag: &str) -> std::io::Result<CountedFile> {
        self.inner.create(tag)
    }

    /// An owned, `'static` handle that can create files in this store
    /// from another thread (same name counter, same I/O counters).
    ///
    /// The handle does not keep the directory alive: creating a file
    /// after the owning `TempStore` dropped fails with `NotFound`, so
    /// workers must be joined before the store goes away (the sorter's
    /// background spill does exactly that).
    pub fn handle(&self) -> StoreHandle {
        StoreHandle { inner: Arc::clone(&self.inner) }
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        if self.own_dir {
            let _ = std::fs::remove_dir_all(&self.inner.dir);
        }
    }
}

/// Cloneable, thread-movable file-creation handle for a [`TempStore`].
#[derive(Clone)]
pub struct StoreHandle {
    inner: Arc<StoreInner>,
}

impl StoreHandle {
    /// Create a new empty counted file (see [`TempStore::create`]).
    pub fn create(&self, tag: &str) -> std::io::Result<CountedFile> {
        self.inner.create(tag)
    }

    /// The shared I/O counters of the underlying store.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.inner.stats)
    }
}

/// A real file whose reads and writes are tallied in shared [`IoStats`].
pub struct CountedFile {
    file: File,
    path: PathBuf,
    stats: Arc<IoStats>,
    delete_on_drop: bool,
}

impl CountedFile {
    /// Open an existing file at `path` as a counted file (not deleted on
    /// drop). Used to reopen persisted artifacts such as disk indexes.
    pub fn open_path(path: &Path, stats: Arc<IoStats>) -> std::io::Result<CountedFile> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(CountedFile { file, path: path.to_path_buf(), stats, delete_on_drop: false })
    }

    /// Open an existing file read-only (not deleted on drop). Writes
    /// through the handle fail; use this for serving artifacts that may
    /// be deployed on read-only media or with read-only permissions.
    pub fn open_path_readonly(path: &Path, stats: Arc<IoStats>) -> std::io::Result<CountedFile> {
        let file = OpenOptions::new().read(true).open(path)?;
        Ok(CountedFile { file, path: path.to_path_buf(), stats, delete_on_drop: false })
    }

    /// Create (truncate) a counted file at an explicit path (not deleted
    /// on drop).
    pub fn create_path(path: &Path, stats: Arc<IoStats>) -> std::io::Result<CountedFile> {
        let file =
            OpenOptions::new().create(true).truncate(true).read(true).write(true).open(path)?;
        Ok(CountedFile { file, path: path.to_path_buf(), stats, delete_on_drop: false })
    }

    /// Filesystem path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The shared counters this file reports to.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Current file length in bytes.
    pub fn len(&self) -> std::io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> std::io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Keep the file on disk when this handle drops.
    pub fn persist(&mut self) {
        self.delete_on_drop = false;
    }

    /// Seek to an absolute offset.
    pub fn seek_to(&mut self, offset: u64) -> std::io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        Ok(())
    }

    /// Positioned exact read (counted).
    pub fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.seek_to(offset)?;
        self.file.read_exact(buf)?;
        self.stats.record_read(buf.len() as u64);
        Ok(())
    }

    /// Flush file data to stable storage (`fdatasync`). Honors the
    /// [`faults`] injection hooks so recovery tests can simulate a
    /// failing device.
    pub fn sync_data(&self) -> std::io::Result<()> {
        if faults::should_fail_fsync(&self.path) {
            return Err(std::io::Error::other("injected fsync failure"));
        }
        self.file.sync_data()
    }

    /// Truncate (or extend with zeros) the file to `len` bytes.
    pub fn set_len(&self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)
    }

    /// Reopen a second independent handle onto the same file (own cursor,
    /// same counters). Used when one file is both merge input and random
    /// -access side of a join.
    pub fn reopen(&self) -> std::io::Result<CountedFile> {
        let file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        Ok(CountedFile {
            file,
            path: self.path.clone(),
            stats: Arc::clone(&self.stats),
            delete_on_drop: false,
        })
    }
}

impl Read for CountedFile {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.file.read(buf)?;
        self.stats.record_read(n as u64);
        Ok(n)
    }
}

impl Write for CountedFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(short) = faults::clamp_write(&self.path, buf.len()) {
            let n = self.file.write(&buf[..short])?;
            self.stats.record_write(n as u64);
            return Err(std::io::Error::new(std::io::ErrorKind::WriteZero, "injected short write"));
        }
        let n = self.file.write(buf)?;
        self.stats.record_write(n as u64);
        faults::after_write(&self.path);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

impl Drop for CountedFile {
    fn drop(&mut self) {
        if self.delete_on_drop {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_counts_traffic() {
        let store = TempStore::new().unwrap();
        let mut f = store.create("t").unwrap();
        f.write_all(b"hello world").unwrap();
        f.flush().unwrap();
        let mut buf = [0u8; 5];
        f.read_exact_at(6, &mut buf).unwrap();
        assert_eq!(&buf, b"world");
        let stats = store.stats();
        assert_eq!(stats.write_bytes(), 11);
        assert_eq!(stats.read_bytes(), 5);
    }

    #[test]
    fn files_are_deleted_on_drop() {
        let store = TempStore::new().unwrap();
        let path;
        {
            let mut f = store.create("gone").unwrap();
            f.write_all(b"x").unwrap();
            path = f.path().to_path_buf();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn reopen_shares_counters_but_not_cursor() {
        let store = TempStore::new().unwrap();
        let mut f = store.create("dup").unwrap();
        f.write_all(b"abcdef").unwrap();
        f.flush().unwrap();
        let mut g = f.reopen().unwrap();
        let mut buf = [0u8; 3];
        g.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        f.read_exact_at(3, &mut buf).unwrap();
        assert_eq!(&buf, b"def");
        assert_eq!(store.stats().read_bytes(), 6);
    }

    #[test]
    fn handle_creates_files_from_other_threads() {
        let store = TempStore::new().unwrap();
        let handle = store.handle();
        let worker = std::thread::spawn(move || {
            let mut f = handle.create("worker").unwrap();
            f.write_all(b"spill").unwrap();
            f.flush().unwrap();
            f.persist();
            f.path().to_path_buf()
        });
        let path = worker.join().unwrap();
        assert!(path.exists());
        assert_eq!(store.stats().write_bytes(), 5);
        // Names from handles and the store share one counter: no clashes.
        let f = store.create("worker").unwrap();
        assert_ne!(f.path(), path);
        let _ = std::fs::remove_file(path);
    }

    /// Serializes the tests that arm process-global fault state.
    static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn injected_faults_tear_writes_and_fail_syncs() {
        let _guard = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let store = TempStore::new().unwrap();
        let mut f = store.create("faulted-target").unwrap();
        // Scope every armed fault to this one file so concurrently
        // running tests never consume (or suffer) the countdowns.
        faults::set_path_filter(Some("faulted-target"));

        faults::short_write_after(1);
        f.write_all(b"first").unwrap(); // countdown 1 -> 0
        let err = f.write_all(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
        // Half the buffer (5 bytes) landed after the 5 from "first".
        assert_eq!(f.len().unwrap(), 10);
        // Disarmed after firing: the next write goes through whole.
        f.write_all(b"tail").unwrap();
        assert_eq!(f.len().unwrap(), 14);

        faults::fail_fsync_after(0);
        assert!(f.sync_data().is_err());
        f.sync_data().unwrap();

        faults::reset();
        f.write_all(b"clean").unwrap();
        f.sync_data().unwrap();
    }

    #[test]
    fn path_filter_spares_other_files() {
        let _guard = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let store = TempStore::new().unwrap();
        let hit = store.create("filter-hit").unwrap();
        let mut miss = store.create("filter-miss-other").unwrap();
        faults::set_path_filter(Some("filter-hit"));
        faults::fail_fsync_after(0);
        miss.sync_data().unwrap();
        miss.write_all(b"ok").unwrap();
        assert!(hit.sync_data().is_err());
        faults::reset();
        hit.sync_data().unwrap();
    }

    #[test]
    fn set_len_truncates_and_extends() {
        let store = TempStore::new().unwrap();
        let mut f = store.create("trunc").unwrap();
        f.write_all(b"abcdef").unwrap();
        f.set_len(3).unwrap();
        assert_eq!(f.len().unwrap(), 3);
        let mut buf = [0u8; 3];
        f.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        f.set_len(8).unwrap();
        assert_eq!(f.len().unwrap(), 8);
    }

    #[test]
    fn store_dir_removed_on_drop() {
        let dir;
        {
            let store = TempStore::new().unwrap();
            let mut f = store.create("d").unwrap();
            f.persist();
            f.write_all(b"z").unwrap();
            dir = f.path().parent().unwrap().to_path_buf();
            assert!(dir.exists());
        }
        assert!(!dir.exists());
    }

    #[test]
    fn concurrent_stores_never_share_a_directory() {
        let mut stores: Vec<TempStore> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8).map(|_| scope.spawn(TempStore::new)).collect();
            workers.into_iter().map(|w| w.join().unwrap().unwrap()).collect()
        });
        let dirs: std::collections::BTreeSet<_> = stores.iter().map(|s| &s.inner.dir).collect();
        assert_eq!(dirs.len(), stores.len(), "{dirs:?}");
        // Every store numbers its files from `run-0`; dropping one must
        // leave the others' runs in place.
        let files: Vec<CountedFile> = stores.iter().map(|s| s.create("run").unwrap()).collect();
        drop(stores.remove(0));
        assert!(!files[0].path().exists());
        for f in &files[1..] {
            assert!(f.path().exists(), "{}", f.path().display());
        }
    }
}
