//! What the operating system says about a process: peak resident memory
//! and CPU time from procfs, and the size of a store directory.

use std::path::Path;
use std::time::Duration;

/// Peak resident set (`VmHWM`) of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Time on a CPU, in nanoseconds, of a `/proc/<pid>/task/<tid>/schedstat`
/// text: its first field. Unlike the tick-sampled times in `stat`, the
/// scheduler accounts this exactly, which matters for server threads that
/// run in bursts much shorter than a tick.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// Peak RSS of process `pid` in MiB.
pub fn rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kib = parse_vm_hwm_kib(&text).ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kib as f64 / 1024.0)
}

/// CPU time the live threads of process `pid` have used so far. A thread
/// that has exited no longer counts, so the threads under test must outlive
/// the last reading ([`LINGER`]).
pub fn cpu_us(pid: u32) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let mut ns = 0;
    for task in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
        let path = task
            .map_err(|e| format!("{dir}: {e}"))?
            .path()
            .join("schedstat");
        // A thread may exit between the listing and the read.
        if let Ok(text) = std::fs::read_to_string(&path) {
            ns += parse_schedstat_ns(&text)
                .ok_or_else(|| format!("{}: unexpected format", path.display()))?;
        }
    }
    Ok(ns / 1_000)
}

/// How long load-generating clients keep going past the measured window:
/// a server thread ends with its connection and takes its CPU time out of
/// [`cpu_us`], so connections must still be open at the last reading.
pub const LINGER: Duration = Duration::from_millis(100);

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used so far, in microseconds. Reading
/// procfs costs more than the shortest ops measured; this is one system
/// call.
pub fn thread_cpu_us() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` of the layout the
    // 64-bit Linux C library expects, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 * 1e6 + ts.nsec as f64 / 1e3
}

/// Bytes in the regular files directly inside `dir` (a store directory is
/// flat: snapshot, WAL, lock, socket).
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm_from_status_text() {
        let status = "Name:\ttd\nVmPeak:\t  200000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(12345));
        assert_eq!(parse_vm_hwm_kib("Name:\ttd\n"), None);
    }

    #[test]
    fn reads_run_time_from_schedstat_text() {
        assert_eq!(
            parse_schedstat_ns("535129129 66191 17\n"),
            Some(535_129_129)
        );
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        assert!(rss_mib(pid).unwrap() > 0.0);
        // Spin, then read: this thread's own time must be in the sum.
        // (Other test threads come and go, so only a floor can be checked.)
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_us(pid).unwrap() >= 15_000);
    }

    #[test]
    fn thread_cpu_clock_counts_work_and_not_sleep() {
        let before = thread_cpu_us();
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread_cpu_us() - before;
        assert!((0.0..10_000.0).contains(&slept), "{slept}");
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(thread_cpu_us() - before - slept >= 15_000.0);
    }

    #[test]
    fn sums_file_sizes_in_a_directory() {
        let dir = std::env::temp_dir().join(format!("tdbench-dirbytes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a"), [0u8; 10]).unwrap();
        std::fs::write(dir.join("b"), [0u8; 32]).unwrap();
        assert_eq!(dir_bytes(&dir).unwrap(), 42);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
