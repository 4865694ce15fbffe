//! What the benchmark needs from the host: a scratch directory that is
//! always removed, and memory / CPU-time readings from `/proc` (no FFI,
//! so the crate stays `forbid(unsafe_code)`).

use std::path::{Path, PathBuf};

/// The per-run scratch directory: edge lists, images, WAL directories
/// and `TempStore`s all live below it, and dropping the guard removes it
/// — on success, on failure, and while a panic unwinds.
pub struct Scratch {
    root: PathBuf,
    next: u64,
}

impl Scratch {
    /// Create `<base>/hopbench-<pid>-<tag>/`.
    pub fn create(base: &Path, tag: &str) -> std::io::Result<Scratch> {
        let root = base.join(format!("hopbench-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root: root.canonicalize()?, next: 0 })
    }

    /// Point `TMPDIR` at the scratch directory, so the `TempStore`s the
    /// layers create themselves (external build, checkpoint staging) land
    /// inside the guard too. Call before any thread is started.
    pub fn adopt_as_tmpdir(&self) {
        std::env::set_var("TMPDIR", &self.root);
    }

    /// The directory itself.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A path below the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// A fresh, empty sub-directory nobody has used before — every daemon
    /// boot sequence gets its own WAL directory, so no run ever recovers
    /// another's log.
    pub fn fresh_dir(&mut self, tag: &str) -> std::io::Result<PathBuf> {
        self.next += 1;
        let dir = self.root.join(format!("{tag}-{}", self.next));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Where scratch directories go unless `--scratch` says otherwise:
/// `out/` next to this crate's manifest, which `benchmark/.gitignore`
/// ignores. The driver's checkout is all the benchmark may write to, so
/// the system temp directory is not an option.
pub fn default_out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest.join("out")
}

/// `VmHWM` of this process in MB: the peak resident set so far.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Seconds the calling thread has spent on a CPU, from
/// `/proc/thread-self/schedstat` (first field, ns). `/proc/self/stat`'s
/// utime + stime count in 10 ms ticks, and a median of tick counts reads
/// the same from run to run; this clock does not.
pub fn thread_cpu_seconds() -> Option<f64> {
    let schedstat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let on_cpu_ns: f64 = schedstat.split_whitespace().next()?.parse().ok()?;
    Some(on_cpu_ns / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_removed_on_drop_and_hands_out_fresh_dirs() {
        let base = std::env::temp_dir().join(format!("hopbench-host-test-{}", std::process::id()));
        let root = {
            let mut s = Scratch::create(&base, "t").unwrap();
            let (a, b) = (s.fresh_dir("wal").unwrap(), s.fresh_dir("wal").unwrap());
            assert_ne!(a, b);
            assert!(a.is_dir() && b.is_dir() && a.starts_with(s.root()));
            std::fs::write(s.path("f"), b"x").unwrap();
            s.root().to_path_buf()
        };
        assert!(!root.exists());
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn proc_readings_are_plausible() {
        assert!(peak_rss_mb().unwrap() > 0.5);
        let before = thread_cpu_seconds().unwrap();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(thread_cpu_seconds().unwrap() > before);
    }
}
