//! Process and host facts: peak memory, provenance, the work
//! directory, and the cost of reading the clock.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host name and CPU model, for provenance.
pub fn host() -> (String, String) {
    let name = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    (name, cpu)
}

/// The commit being measured: `git rev-parse HEAD` when the checkout is
/// a git work tree, else `"unknown"`.
pub fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over every library source file under `crates/`, in path
/// order: identifies the code measured even where the checkout carries
/// no git metadata.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    collect_rs(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `.bench_work/<name>-<pid>` under the current directory.
    pub fn create(name: &str) -> std::io::Result<Self> {
        let path = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// A path inside the directory.
    pub fn join(&self, file: &str) -> PathBuf {
        self.path.join(file)
    }

    /// Deletes every file in the directory.
    pub fn clear(&self) -> std::io::Result<()> {
        for entry in std::fs::read_dir(&self.path)? {
            std::fs::remove_file(entry?.path())?;
        }
        Ok(())
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves `.bench_work` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Median cost in nanoseconds of one `Instant::now()` read, measured as
/// back-to-back pairs. Per-call layer timings subtract it, so a call's
/// time excludes the clock reads that bracket it.
pub fn clock_cost_ns() -> f64 {
    let mut pairs: Vec<f64> = (0..10_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    pairs.sort_by(f64::total_cmp);
    pairs[pairs.len() / 2]
}

/// Nanoseconds from `a` to `b`.
pub fn ns(a: Instant, b: Instant) -> f64 {
    (b - a).as_nanos() as f64
}
