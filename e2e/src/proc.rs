//! Process CPU time, peak resident memory and CPU placement (std only).

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. `USER_HZ` is 100 on every Linux ABI; reading it
/// properly needs `sysconf`, which needs libc.
const USER_HZ: f64 = 100.0;

/// Process user + system CPU seconds so far, all threads (also threads that
/// have exited). `None` off Linux.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces and parentheses; the
    // fixed-position fields start after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// CPU seconds each *live* thread has run, by kernel thread id, from the
/// scheduler's nanosecond accounts (`/proc/self/task/*/schedstat`). Finer
/// than [`cpu_seconds`] (10 ms ticks), but a thread that has exited is no
/// longer listed: difference two readings thread by thread.
pub fn live_threads_cpu_seconds() -> Option<Vec<(u64, f64)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let tid = entry.ok()?.file_name().to_str()?.parse().ok()?;
        // A thread may end between the listing and the read.
        if let Some(s) = thread_cpu_seconds(tid) {
            out.push((tid, s));
        }
    }
    (!out.is_empty()).then_some(out)
}

/// Peak resident set size (`VmHWM`) in MiB. `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Kernel id of the calling thread, from the `/proc/thread-self` link
/// (`<pid>/task/<tid>`).
pub fn thread_id() -> Option<u64> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU seconds thread `tid` of this process has run, from the scheduler's
/// own nanosecond account (`schedstat`, first field).
pub fn thread_cpu_seconds(tid: u64) -> Option<f64> {
    let s = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    let ns: f64 = s.split_ascii_whitespace().next()?.parse().ok()?;
    Some(ns / 1e9)
}

/// Pin the calling thread — and every thread it spawns from now on — to one
/// CPU: the highest-numbered one the process may use. Returns that CPU, or
/// `None` where the platform offers no way (then nothing is pinned).
///
/// Why: on the reference host (two shared vCPUs) a hand-off between two
/// threads costs about three times as much when the scheduler happens to
/// place them on different vCPUs, and it decides differently from process
/// to process. The programs' synchronous hand-offs (client → worker →
/// client, per statement) make that placement lottery the largest source
/// of run-to-run variance — set-up alone measured 0.65 s pinned against
/// 1.9 s unpinned. One CPU for everything removes the lottery. It also
/// means the benchmark cannot see a parallel speed-up; it prices CPU work,
/// blocking and queueing, which is what the workloads are built to show.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpus = std::thread::available_parallelism().ok()?.get();
    // Highest first: CPU 0 takes most device interrupts.
    (0..cpus.min(1024))
        .rev()
        .find(|&cpu| sys::set_affinity(cpu))
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    /// `sched_setaffinity(0, sizeof mask, &mask)` for a one-CPU mask.
    pub fn set_affinity(cpu: usize) -> bool {
        let mut mask = [0u64; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        let len = std::mem::size_of_val(&mask);
        let ret: isize;
        // SAFETY: the system call only reads `len` bytes starting at
        // `mask`, a live local array of exactly that size, and writes no
        // memory. Registers it clobbers are declared. std has no affinity
        // call and this package may not add libc.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 203isize => ret, // __NR_sched_setaffinity
                in("rdi") 0usize,
                in("rsi") len,
                in("rdx") mask.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack, readonly),
            );
        }
        // SAFETY: as above; `svc 0` with the call number in x8.
        #[cfg(target_arch = "aarch64")]
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") 122isize, // __NR_sched_setaffinity
                inlateout("x0") 0isize => ret,
                in("x1") len,
                in("x2") mask.as_ptr(),
                options(nostack, readonly),
            );
        }
        ret == 0
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    pub fn set_affinity(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn reads_both_counters() {
        let before = cpu_seconds().expect("cpu");
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = cpu_seconds().expect("cpu");
        assert!(after >= before + 0.03, "{before} -> {after}");
        assert!(peak_rss_mib().expect("rss") > 0.5);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_thread_can_read_its_own_cpu_account() {
        std::thread::spawn(|| {
            let tid = thread_id().expect("tid");
            let before = thread_cpu_seconds(tid).expect("schedstat");
            let t0 = std::time::Instant::now();
            let mut x = 0u64;
            while t0.elapsed().as_millis() < 50 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            std::thread::yield_now();
            let after = thread_cpu_seconds(tid).expect("schedstat");
            assert!(after > before, "{before} -> {after}");
        })
        .join()
        .unwrap();
    }

    #[test]
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    fn pinning_sticks_for_spawned_threads() {
        // In a thread of its own: the pin is per thread and inherited.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pin");
            let allowed = |status: String| {
                status
                    .lines()
                    .find(|l| l.starts_with("Cpus_allowed_list:"))
                    .map(|l| l.split_ascii_whitespace().nth(1).unwrap_or("").to_string())
            };
            let here = allowed(fs::read_to_string("/proc/thread-self/status").unwrap());
            assert_eq!(here, Some(cpu.to_string()));
            let child = std::thread::spawn(move || {
                allowed(fs::read_to_string("/proc/thread-self/status").unwrap())
            })
            .join()
            .unwrap();
            assert_eq!(child, Some(cpu.to_string()));
        })
        .join()
        .unwrap();
    }
}
