//! What the benchmark reads from the operating system.

use std::process::Command;

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of this process in ms (`/proc/self/stat` fields
/// 14 and 15, in clock ticks of 10 ms).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pins the process — this thread and every thread it starts afterwards —
/// to the highest-numbered CPU it may run on, and returns that CPU.
///
/// The load is one request at a time, so a second CPU would only carry the
/// hand-offs between client, shard loop and worker; on this guest a wake-up
/// across vCPUs costs tens of microseconds and varies with what the host is
/// doing, and each vCPU shares its physical core with a different
/// neighbour. On one CPU every hand-off is a context switch, the CPU never
/// idles between them, and the host probe samples exactly the core the work
/// runs on. `None` (not Linux, or the call failed) leaves the run unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: both calls read or write `size_of_val(&mask)` bytes of `mask`.
    unsafe {
        if sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) != 0 {
            return None;
        }
        let cpu = mask
            .iter()
            .enumerate()
            .rev()
            .find(|(_, word)| **word != 0)
            .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        (sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0).then_some(cpu)
    }
}

/// Tells glibc's allocator to keep what it has been given: no `mmap` for
/// large blocks, no trimming of the heap top, one arena for all threads.
///
/// A page this guest touches for the first time (or again after it was
/// handed back and the guest reported it free to its host) costs 30–50 µs
/// instead of 2 µs, and which kind a process gets depends on what ran
/// before it; a served ciphertext is 786 KB, so with the default settings
/// every request maps and unmaps megabytes and its latency moves 2–10x with
/// the state of the guest's free list. With the memory kept, the discarded
/// first repetition touches every page the measured ones use.
/// `peak_rss_mb` is then the heap's high-water mark.
pub fn keep_memory() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_TOP_PAD: i32 = -2;
    const M_MMAP_MAX: i32 = -4;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only stores the settings; called before any other
    // thread exists.
    unsafe {
        mallopt(M_MMAP_MAX, 0);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_TOP_PAD, 16 << 20);
        mallopt(M_ARENA_MAX, 1);
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, or `unknown` outside a git work tree.
pub fn git_commit() -> String {
    Command::new("git")
        .args([
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
