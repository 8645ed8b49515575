//! The host a result was measured on, the wall clock, and peak memory.

use std::time::Instant;

use crate::json::Obj;

/// Wall-clock reading. The benchmark is the one place that measures
/// host time; the facility itself runs on its registry clock.
pub fn now() -> Instant {
    // lint: allow(determinism) -- the benchmark measures wall-clock time by design
    Instant::now()
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod rusage {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs,
    /// of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    pub struct RUsage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }

    pub const RUSAGE_SELF: i32 = 0;
}

/// The process's peak resident set size in MiB, as the kernel counts it;
/// 0 where that is not available.
pub fn peak_rss_mb() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut u = rusage::RUsage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `u` is a live, writable value laid out as the C
        // `struct rusage` of this target, and `getrusage` writes only
        // within that struct.
        let rc = unsafe { rusage::getrusage(rusage::RUSAGE_SELF, &mut u) };
        if rc == 0 {
            return u.maxrss as f64 / 1024.0;
        }
    }
    0.0
}

/// The CPU's brand string from CPUID, or "unknown".
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // SAFETY: CPUID exists on every x86-64 processor; leaves past the
        // reported maximum extended leaf are never queried.
        #[allow(unused_unsafe)]
        let max_ext = unsafe { __cpuid(0x8000_0000) }.eax;
        if max_ext >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                // SAFETY: as above; `leaf` is at most `max_ext`.
                #[allow(unused_unsafe)]
                let r = unsafe { __cpuid(leaf) };
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            let s = String::from_utf8_lossy(&bytes);
            let s = s.trim_matches(char::from(0)).trim();
            if !s.is_empty() {
                return s.to_string();
            }
        }
    }
    "unknown".to_string()
}

fn has_sha_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The host fields recorded with every result.
pub fn describe() -> Obj {
    Obj::new()
        .u("nproc", nproc() as u64)
        .s("cpu_model", &cpu_model())
        .b("sha_ni", has_sha_ni())
}
