//! Waiting for a socket to turn readable with a deadline precise to the
//! microsecond. A blocking read's socket timeout expires only on a kernel
//! tick (several milliseconds), which would make the generator send late;
//! `ppoll` sleeps on a high-resolution timer and still wakes the moment a
//! reply arrives, so replies are timestamped on arrival.

use std::net::TcpStream;
use std::time::Duration;

/// Block until `conn` has bytes to read or `timeout` passes.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn readable(conn: &TcpStream, timeout: Duration) {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 0x1;

    let mut fd = PollFd {
        fd: conn.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live locals laid out as `struct pollfd` and
    // `struct timespec` of 64-bit Linux for the whole call; `nfds` is 1,
    // matching the single entry; a null sigmask leaves the signal mask
    // alone. The descriptor stays open because `conn` is borrowed. The
    // result is ignored: ready, timed out or interrupted, the caller next
    // tries a non-blocking read and re-checks its deadline.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// Fallback elsewhere: sleep in short slices between non-blocking reads.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn readable(_conn: &TcpStream, timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_micros(250)));
}
