//! What a result records about the machine and the build that produced it.

use std::fs;
use std::process::{Command, Stdio};

use crate::json::{int, obj, text, Value};

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let line = String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()?
        .trim()
        .to_string();
    (out.status.success() && !line.is_empty()).then_some(line)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of cpu0's level-`level` data or unified cache, e.g. `"1024K"`.
fn cache_size(level: u32) -> String {
    let read = |dir: &str, file: &str| {
        fs::read_to_string(format!("{dir}/{file}"))
            .ok()
            .map(|s| s.trim().to_string())
    };
    (0..8)
        .map(|i| format!("/sys/devices/system/cpu/cpu0/cache/index{i}"))
        .find(|dir| {
            read(dir, "level") == Some(level.to_string())
                && read(dir, "type").is_some_and(|t| t != "Instruction")
        })
        .and_then(|dir| read(&dir, "size"))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit under test: `PERFBENCH_COMMIT` if set, else `git rev-parse`
/// when the working directory is a repository root, else `"unknown"` (a
/// source export is not a repository, and git must not search above it).
fn commit() -> String {
    std::env::var("PERFBENCH_COMMIT")
        .ok()
        .or_else(|| {
            std::path::Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Hardware threads, CPU model, L2/L3 sizes, compiler and commit.
pub fn host() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        ("nproc", int(nproc as u64)),
        ("cpu_model", text(cpu_model())),
        ("l2_cache", text(cache_size(2))),
        ("l3_cache", text(cache_size(3))),
        (
            "rustc",
            text(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("commit", text(commit())),
    ])
}

/// CPU time this process has used so far, in seconds: user plus system
/// time of all its threads, exited ones included (`/proc/self/stat`, in
/// 10 ms ticks). The kernel's paravirtual steal-time accounting keeps time
/// the hypervisor gave to other guests out of it, which wall time cannot.
/// NaN if `/proc` cannot be read.
pub fn process_cpu_s() -> f64 {
    let ticks = || -> Option<f64> {
        let stat = fs::read_to_string("/proc/self/stat").ok()?;
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let rest = &stat[stat.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some(utime + stime)
    };
    ticks().map_or(f64::NAN, |t| t / 100.0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
