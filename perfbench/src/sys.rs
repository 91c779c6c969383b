//! Process facts every run records: commit, CPU count, peak memory.

use std::path::Path;

/// CPUs the benchmark may load (threads and connections are capped by it).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Names of `GRFUSION_*` variables set in the environment. Any one of them
/// changes engine behaviour, so the benchmark refuses to run with them.
pub fn engine_knobs_set() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GRFUSION_"))
        .collect()
}

/// The commit under test: `git rev-parse HEAD` when the checkout itself is
/// a git repository, otherwise an FNV-1a fingerprint of the engine and
/// benchmark sources, so runs of the same code record the same identifier.
pub fn commit(root: &Path) -> String {
    if root.join(".git").exists() {
        let git = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(root)
            .stderr(std::process::Stdio::null())
            .output();
        if let Ok(out) = git {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    collect_sources(&root.join("perfbench").join("src"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}
