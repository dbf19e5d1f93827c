//! Peak resident set size of this process.

/// `struct rusage` on Linux/glibc: two `timeval`s followed by fourteen
/// `long` counters, the first of which is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size so far, in MiB (`None` if the call fails).
pub fn peak_rss_mb() -> Option<f64> {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` (`#[repr(C)]`, 144 bytes on 64-bit Linux), and
    // RUSAGE_SELF (0) asks only for this process's counters.
    let rc = unsafe { getrusage(0, &mut usage) };
    (rc == 0).then(|| usage.maxrss as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_rss_is_positive() {
        let mb = super::peak_rss_mb().expect("getrusage succeeds");
        assert!(mb > 0.0);
    }
}
