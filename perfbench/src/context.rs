//! The run context printed with every result, and the two process
//! probes the end-to-end metrics need: on-CPU time of the calling thread
//! and peak resident memory.

use std::path::Path;

use mmt_netsim::shard::Fnv64;

/// A seed no tuning run used. A later claim measured on the seeds it was
/// developed with must also hold on this one.
pub const HELD_OUT_SEED: u64 = 1009;

/// On-CPU nanoseconds of the calling thread so far, from the scheduler's
/// own accounting (`/proc/thread-self/schedstat`, first field).
pub fn thread_cpu_ns() -> Result<u64, String> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .map_err(|e| format!("cannot read /proc/thread-self/schedstat: {e}"))?;
    text.split_whitespace()
        .next()
        .and_then(|field| field.parse().ok())
        .ok_or_else(|| format!("unparsable schedstat line {text:?}"))
}

/// Peak resident set of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    mmt_bench::scale::peak_rss_kb() as f64 * 1024.0 / 1e6
}

/// Cores this process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `None` outside a git checkout.
fn git_sha(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

/// FNV-1a over the path and bytes of every `.rs` and `Cargo.toml` file
/// under `dir`, in sorted path order: identifies the code measured even
/// where there is no git metadata.
fn tree_digest(dir: &Path, h: &mut Fnv64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                tree_digest(&path, h);
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            if let Ok(bytes) = std::fs::read(&path) {
                h.write(path.to_string_lossy().as_bytes());
                h.write(&bytes);
            }
        }
    }
}

fn source_digest(dir: &Path) -> String {
    let mut h = Fnv64::new();
    tree_digest(dir, &mut h);
    format!("{:016x}", h.finish())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rmem_default() -> String {
    std::fs::read_to_string("/proc/sys/net/core/rmem_default")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The `context` lines: what was measured, on what, with which seeds.
pub fn render(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let root = Path::new(".");
    format!(
        "context workload {workload} seed {seed} held_out_seed {HELD_OUT_SEED} seconds {seconds} trace {}\n\
         context git_sha {} crates_digest {} bench_digest {}\n\
         context available_parallelism {} cpu_model \"{}\" net.core.rmem_default {}\n",
        u8::from(trace),
        git_sha(root).unwrap_or_else(|| "none".to_string()),
        source_digest(&root.join("crates")),
        source_digest(&root.join("perfbench")),
        host_cores(),
        cpu_model(),
        rmem_default(),
    )
}
