//! Process resource usage: user+sys CPU time from `getrusage(2)` and the
//! resident-set high-water mark from `/proc/self/status`.

use std::time::Duration;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as laid out by glibc and musl on 64-bit Linux.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage() -> Rusage {
    let mut usage = Rusage {
        ru_utime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_stime: Timeval { tv_sec: 0, tv_usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, exclusively borrowed `struct rusage` with
    // the C layout (two timevals, then fourteen longs); getrusage writes
    // only inside it, and RUSAGE_SELF is always a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    usage
}

fn tv(t: &Timeval) -> Duration {
    Duration::from_secs(t.tv_sec as u64) + Duration::from_micros(t.tv_usec as u64)
}

/// User + system CPU time this process has consumed, all threads.
pub fn cpu_time() -> Duration {
    let u = rusage();
    tv(&u.ru_utime) + tv(&u.ru_stime)
}

/// The process's peak resident set size in MiB: `VmHWM`, which belongs to
/// this program's address space. (`ru_maxrss` survives `execve`, so under
/// `cargo run` it would report cargo's own peak.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kib / 1024.0
}
