//! Host fingerprint and the process counters read from `/proc`.

use std::path::Path;
use std::process::Command;

use eigenmaps::core::KernelKind;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which is
/// 100 on every architecture Linux ships with a stable ABI for.
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, every thread), in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line; the state field
    // (field 3) is index 0 here.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ * 1e3,
        _ => f64::NAN,
    }
}

/// CPU time the hypervisor gave to other guests while this machine's
/// vCPUs wanted to run ("steal", all CPUs), in milliseconds.
pub fn steal_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<f64>().ok())
        .map_or(f64::NAN, |ticks| ticks / USER_HZ * 1e3)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `dir` (longest matching mount
/// point in `/proc/self/mountinfo`).
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fs)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fs).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn cpu_flags() -> Vec<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = info
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .and_then(|l| l.split_once(':'))
        .map_or(Vec::new(), |(_, f)| f.split_whitespace().collect());
    ["avx2", "avx512f", "fma"]
        .iter()
        .filter(|want| flags.contains(want))
        .map(|f| (*f).to_string())
        .collect()
}

fn l2_size() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// First line of a command's standard output, or `unavailable`.
fn first_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unavailable".into())
}

/// The commit of the checkout holding the benchmark; `unavailable` when it
/// is not a git work tree (git may not look above the checkout).
fn commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let Ok(root) = root.canonicalize() else {
        return "unavailable".into();
    };
    let mut git = Command::new("git");
    git.arg("-C").arg(&root).args(["rev-parse", "HEAD"]);
    if let Some(parent) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    first_line(&mut git)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The fingerprint recorded with every result, as a JSON object.
pub fn fingerprint(store_dir: &Path) -> String {
    let flags = cpu_flags()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"nproc\":{},\"kernel\":\"{}\",\"cpu_flags\":[{}],\"l2\":\"{}\",\"store_fs\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\"}}",
        nproc(),
        KernelKind::detect().name(),
        flags,
        l2_size(),
        fs_type(store_dir),
        first_line(Command::new("rustc").arg("--version")),
        commit(),
    )
}
