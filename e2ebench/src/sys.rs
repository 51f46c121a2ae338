//! The two operating-system calls the benchmark needs that `std` does not
//! offer: a thread's CPU clock and the idle scheduling class.

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod ffi {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    /// `struct sched_param` on Linux.
    #[repr(C)]
    pub struct SchedParam {
        pub sched_priority: i32,
    }

    /// `CLOCK_THREAD_CPUTIME_ID` on Linux.
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    /// `SCHED_IDLE` on Linux.
    pub const SCHED_IDLE: i32 = 5;

    extern "C" {
        pub fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        pub fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
}

/// CPU seconds the calling thread has run, to the nanosecond. Under
/// paravirtual steal accounting this excludes stolen time. `None` where
/// the platform offers no such clock.
#[must_use]
pub fn thread_cpu_s() -> Option<f64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut ts = ffi::Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `clock_gettime` only writes one `struct timespec` through
        // the pointer, which points to a live `Timespec` with the C layout
        // of that struct on 64-bit Linux.
        let rc = unsafe { ffi::clock_gettime(ffi::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}

/// Moves the calling thread into the idle scheduling class, where it runs
/// only when no other thread wants a CPU. Returns whether that worked.
#[must_use]
pub fn become_idle_class() -> bool {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let param = ffi::SchedParam { sched_priority: 0 };
        // SAFETY: `sched_setscheduler` only reads one `struct sched_param`
        // through the pointer, which points to a live `SchedParam` with the
        // C layout of that struct; pid 0 names the calling thread.
        unsafe { ffi::sched_setscheduler(0, ffi::SCHED_IDLE, &param) == 0 }
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        false
    }
}
