//! The environment stamp: what a reader needs to know about the machine and
//! build before comparing two outputs.

use crate::json::Obj;
use std::path::{Path, PathBuf};

/// The benchmark package's directory (where `out/` lives).
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where run stamps and trace files are written; created on demand.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Machine and build facts, as a JSON object.
pub fn stamp() -> Obj {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Obj::new()
        .int("nproc", nproc as u64)
        .str("rustc", env!("BENCH_RUSTC_VERSION"))
        .str("profile", env!("BENCH_PROFILE"))
        .str("opt_level", env!("BENCH_OPT_LEVEL"))
        .str("git_commit", &git_commit(&package_dir().join("..")))
}

/// The checked-out commit of the repository at `root`, read from `.git`
/// directly (no subprocess); `"unknown"` outside a git checkout, which is
/// how the benchmark driver runs it.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string(); // detached HEAD holds the hash itself
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process's peak resident set so far, in MB (`VmHWM` of
/// `/proc/self/status`); `None` where the kernel does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
