//! Host facts read from `/proc`: CPU time, peak RSS, cores and load.
//!
//! Every reader degrades to a neutral value when `/proc` is missing, so
//! the benchmark still runs (with less information) off Linux.

use std::fs;

/// CPU time (ns) consumed so far by the calling thread, from
/// `/proc/thread-self/schedstat` (first field: time on CPU in ns).
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// CPU time (ns) consumed so far by every thread of the process, live or
/// exited, from `/proc/self/stat` (`utime + stime`, in clock ticks of
/// 1/100 s, the `USER_HZ` of every mainstream Linux build).
#[must_use]
pub fn process_cpu_ns() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, at field 3.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    (tick(11) + tick(12)) * 10_000_000
}

/// Peak resident set (`VmHWM`) of this process in bytes.
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let kib = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kib.parse::<u64>().ok()
            })
        })
        .map_or(0, |kib| kib * 1024)
}

/// The host's 1-minute load average (0 when unknown).
#[must_use]
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Cores this process may run on.
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
