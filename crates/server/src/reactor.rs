//! Readiness primitives for the serving loop: a poller and a wakeup fd.
//!
//! crates.io is unreachable in this build environment, so instead of
//! `mio`/`tokio` this module declares the few syscalls it needs as
//! direct `extern "C"` bindings against the libc the binary already
//! links. Everything else — nonblocking sockets, raw fds,
//! close-on-drop — comes from `std`.
//!
//! The surface is deliberately tiny and level-triggered:
//!
//! * `Poller` — register/rearm/deregister interest keyed by a
//!   caller-chosen `u64` token, wait for events.
//! * `WakeFd` — a descriptor other threads poke in order to wake a
//!   blocked `Poller::wait` (batch completions, shutdown): a
//!   nonblocking socket pair, plain `std` with no `unsafe`, registered
//!   in either poller like any socket.
//!
//! Which poller the serving loop (`crate::front`) runs on is decided at
//! build time from the target: [`epoll`] on Linux, [`poll`] (`poll(2)`)
//! on every other unix; both wake through the one [`WakeFd`]. `poll` is
//! compiled on Linux too, so its tests and the unsafe lints cover it on
//! the platform CI runs on. Off unix neither exists and creating a
//! poller or a wakeup fd reports `ErrorKind::Unsupported`.
//!
//! Level-triggered means the loop never needs to drain a socket to
//! exhaustion in one pass: unread bytes simply re-arm the event, which
//! keeps the per-connection state machines simple and makes
//! backpressure (deliberately *not* reading) natural.

/// Readable interest (`EPOLLIN` / `POLLIN`).
pub const EV_READ: u32 = 0x001;
/// Writable interest (`EPOLLOUT` / `POLLOUT`).
pub const EV_WRITE: u32 = 0x004;
/// Error condition (`EPOLLERR` / `POLLERR`) — always reported, never
/// requested.
pub const EV_ERROR: u32 = 0x008;
/// Peer hangup (`EPOLLHUP` / `POLLHUP`) — always reported, never
/// requested.
pub const EV_HUP: u32 = 0x010;
/// Peer half-closed its write side (`EPOLLRDHUP`).
pub const EV_RDHUP: u32 = 0x2000;

/// One readiness event: the token it was registered under and the
/// readiness mask (`EV_*` bits).
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Caller-chosen registration token.
    pub token: u64,
    /// Readiness bits.
    pub mask: u32,
}

impl Event {
    /// Whether the source is readable (or has an error/hangup, which
    /// a read will surface as `Ok(0)`/`Err`).
    pub fn readable(&self) -> bool {
        self.mask & (EV_READ | EV_ERROR | EV_HUP | EV_RDHUP) != 0
    }

    /// Whether the source is writable.
    pub fn writable(&self) -> bool {
        self.mask & (EV_WRITE | EV_ERROR | EV_HUP) != 0
    }
}

#[cfg(target_os = "linux")]
pub use epoll::Poller;
#[cfg(all(unix, not(target_os = "linux")))]
pub use poll::Poller;
#[cfg(unix)]
pub use poll::WakeFd;
#[cfg(not(unix))]
pub use unsupported::{Poller, WakeFd};

#[cfg(unix)]
fn cvt(ret: std::os::raw::c_int) -> std::io::Result<std::os::raw::c_int> {
    if ret < 0 {
        Err(std::io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// The Linux poller: raw `epoll` bindings.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
pub mod epoll {
    use super::{cvt, Event};
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::os::raw::c_int;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0x8_0000;

    /// `struct epoll_event`. On x86-64 the kernel ABI packs it to 12
    /// bytes; `repr(C, packed)` matches glibc's declaration on every
    /// architecture glibc supports (it adds the attribute
    /// unconditionally on x86-64 and the layout coincides elsewhere).
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    /// An epoll instance (level-triggered).
    pub struct Poller {
        epfd: OwnedFd,
        events: Vec<EpollEvent>,
    }

    impl Poller {
        /// Create an epoll instance sized for `capacity` events per wait.
        pub fn new(capacity: usize) -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes no pointers; it returns a new
            // fd or -1, which `cvt` turns into an error.
            let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            // SAFETY: epoll_create1 returned a fresh fd we now own.
            let epfd = unsafe { OwnedFd::from_raw_fd(fd) };
            Ok(Poller { epfd, events: vec![EpollEvent { events: 0, data: 0 }; capacity.max(8)] })
        }

        fn ctl(&self, op: c_int, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events: mask, data: token };
            // SAFETY: `ev` is a live, properly-aligned EpollEvent for
            // the duration of the call; the kernel only reads it.
            // `epfd` is a valid epoll fd owned by `self`.
            cvt(unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) })?;
            Ok(())
        }

        /// Register `fd` for the `EV_*` bits in `mask` under `token`.
        pub fn register(&mut self, fd: &impl AsRawFd, mask: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd.as_raw_fd(), mask, token)
        }

        /// Change the interest mask of an already-registered `fd`.
        pub fn rearm(&mut self, fd: &impl AsRawFd, mask: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd.as_raw_fd(), mask, token)
        }

        /// Remove `fd` from the interest set. (Closing the fd does this
        /// implicitly; explicit removal keeps the bookkeeping honest.)
        pub fn deregister(&mut self, fd: &impl AsRawFd) -> io::Result<()> {
            // The event argument is ignored for DEL but must be
            // non-null on pre-2.6.9 kernels; pass a dummy
            // unconditionally.
            self.ctl(EPOLL_CTL_DEL, fd.as_raw_fd(), 0, 0)
        }

        /// Wait up to `timeout_ms` (`None` = forever) and invoke `f` for
        /// each ready event. Returns the number of events delivered.
        /// `EINTR` is treated as "zero events", not an error.
        pub fn wait(
            &mut self,
            timeout_ms: Option<i32>,
            mut f: impl FnMut(Event),
        ) -> io::Result<usize> {
            let timeout = timeout_ms.unwrap_or(-1);
            // SAFETY: the out-pointer and length describe
            // `self.events`, a live Vec the kernel writes at most `len`
            // entries into; `epfd` is a valid epoll fd owned by `self`.
            let n = match cvt(unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    self.events.as_mut_ptr(),
                    self.events.len() as c_int,
                    timeout,
                )
            }) {
                Ok(n) => n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for ev in &self.events[..n] {
                f(Event { token: ev.data, mask: ev.events });
            }
            Ok(n)
        }
    }
}

/// The portable unix pair: `poll(2)` over a registration table, and the
/// nonblocking socket pair both pollers wake through. `struct pollfd`
/// and the
/// `POLLIN`/`POLLOUT`/`POLLERR`/`POLLHUP` values are the same on Linux,
/// macOS and the BSDs, and coincide with the `EV_*` constants.
#[cfg(unix)]
#[allow(unsafe_code)]
pub mod poll {
    use super::{cvt, Event, EV_ERROR};
    use std::io::{self, Read, Write};
    use std::os::fd::{AsRawFd, RawFd};
    use std::os::raw::{c_int, c_short};
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// `nfds_t`: `unsigned long` on Linux, `unsigned int` elsewhere.
    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;

    /// `POLLNVAL`: the registered fd is not open. Reported as an error
    /// so the owner reads it, fails, and drops the registration.
    const POLLNVAL: u32 = 0x020;

    /// `struct pollfd`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// A `poll(2)` interest table (level-triggered by nature).
    pub struct Poller {
        fds: Vec<PollFd>,
        /// `tokens[i]` is the token `fds[i]` was registered under.
        tokens: Vec<u64>,
    }

    impl Poller {
        /// Create an empty table with room for `capacity` registrations.
        pub fn new(capacity: usize) -> io::Result<Poller> {
            Ok(Poller { fds: Vec::with_capacity(capacity), tokens: Vec::with_capacity(capacity) })
        }

        fn slot(&self, fd: RawFd) -> io::Result<usize> {
            self.fds
                .iter()
                .position(|p| p.fd == fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd is not registered"))
        }

        /// Register `fd` for the `EV_*` bits in `mask` under `token`.
        pub fn register(&mut self, fd: &impl AsRawFd, mask: u32, token: u64) -> io::Result<()> {
            self.fds.push(PollFd { fd: fd.as_raw_fd(), events: mask as c_short, revents: 0 });
            self.tokens.push(token);
            Ok(())
        }

        /// Change the interest mask of an already-registered `fd`.
        pub fn rearm(&mut self, fd: &impl AsRawFd, mask: u32, token: u64) -> io::Result<()> {
            let i = self.slot(fd.as_raw_fd())?;
            self.fds[i].events = mask as c_short;
            self.tokens[i] = token;
            Ok(())
        }

        /// Remove `fd` from the interest set. Unlike epoll, a closed fd
        /// is *not* forgotten implicitly: callers must deregister
        /// before dropping the source.
        pub fn deregister(&mut self, fd: &impl AsRawFd) -> io::Result<()> {
            let i = self.slot(fd.as_raw_fd())?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            Ok(())
        }

        /// Wait up to `timeout_ms` (`None` = forever) and invoke `f` for
        /// each ready event. Returns the number of events delivered.
        /// `EINTR` is treated as "zero events", not an error.
        pub fn wait(
            &mut self,
            timeout_ms: Option<i32>,
            mut f: impl FnMut(Event),
        ) -> io::Result<usize> {
            // SAFETY: the pointer and length describe `self.fds`, a
            // live Vec of `repr(C)` pollfd records; the kernel reads
            // `fd`/`events` and writes only `revents` of those entries.
            let ready = cvt(unsafe {
                poll(self.fds.as_mut_ptr(), self.fds.len() as Nfds, timeout_ms.unwrap_or(-1))
            });
            match ready {
                Ok(0) => return Ok(0),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(0),
                Err(e) => return Err(e),
            }
            let mut delivered = 0;
            for (p, &token) in self.fds.iter().zip(&self.tokens) {
                let mut mask = u32::from(p.revents as u16);
                if mask == 0 {
                    continue;
                }
                if mask & POLLNVAL != 0 {
                    mask |= EV_ERROR;
                }
                f(Event { token, mask });
                delivered += 1;
            }
            Ok(delivered)
        }
    }

    /// A wakeup channel for the serving loop, under either poller: the
    /// read half of a nonblocking socket pair is registered like any
    /// socket; any thread calls [`WakeFd::wake`], which writes one byte
    /// to the other half, and the loop observes the token readable and
    /// calls [`WakeFd::drain`]. Plain `std`, no `unsafe`.
    pub struct WakeFd {
        rx: UnixStream,
        tx: UnixStream,
        /// Collapses redundant wakes: `wake` only writes when the flag
        /// was clear, so a storm of completions costs one syscall, not
        /// one per completion.
        armed: AtomicBool,
    }

    impl WakeFd {
        /// Create the nonblocking socket pair.
        pub fn new() -> io::Result<WakeFd> {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            Ok(WakeFd { rx, tx, armed: AtomicBool::new(false) })
        }

        /// Wake the poller this fd is registered with. Cheap and safe
        /// from any thread; redundant wakes coalesce.
        pub fn wake(&self) {
            if self.armed.swap(true, Ordering::AcqRel) {
                return; // a wake is already pending
            }
            // A full socket buffer (WouldBlock) still leaves the read
            // half readable; any other failure means the loop is gone
            // and nobody is left to wake — ignore both.
            let _ = (&self.tx).write(&[1]);
        }

        /// Consume pending wakes (called by the loop when its token
        /// fires) so the level-triggered poller stops reporting them.
        ///
        /// Read first, *then* clear `armed`. The other order loses
        /// wakeups for good: a `wake` landing between the clear and the
        /// read has its byte swallowed while `armed` stays set, and
        /// every later `wake` is then suppressed. A `wake` skipped in
        /// the window this order leaves (after the read, before the
        /// clear) is harmless: producers publish their work before
        /// waking, and the loop collects that work after `drain` in the
        /// same tick.
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            while matches!((&self.rx).read(&mut buf), Ok(n) if n == buf.len()) {}
            // Test builds widen the window between the two steps so the
            // wake/drain race is lost (or, in this order, survived)
            // within a few drains instead of once in a million.
            #[cfg(test)]
            std::thread::yield_now();
            self.armed.store(false, Ordering::Release);
        }
    }

    impl AsRawFd for WakeFd {
        fn as_raw_fd(&self) -> RawFd {
            self.rx.as_raw_fd()
        }
    }
}

/// Off unix no readiness API is bound: both types are uninhabited and
/// their constructors report `Unsupported`, which is what `serve` and
/// `serve_router` then return.
#[cfg(not(unix))]
mod unsupported {
    use super::Event;
    use std::convert::Infallible;
    use std::io;

    /// Uninhabited stand-in for the poller.
    pub struct Poller(Infallible);
    /// Uninhabited stand-in for the wakeup fd.
    pub struct WakeFd(Infallible);

    impl Poller {
        /// Always `Unsupported`.
        pub fn new(_capacity: usize) -> io::Result<Poller> {
            Err(io::ErrorKind::Unsupported.into())
        }
        /// Unreachable: no `Poller` exists.
        pub fn register<T>(&mut self, _: &T, _: u32, _: u64) -> io::Result<()> {
            match self.0 {}
        }
        /// Unreachable: no `Poller` exists.
        pub fn rearm<T>(&mut self, _: &T, _: u32, _: u64) -> io::Result<()> {
            match self.0 {}
        }
        /// Unreachable: no `Poller` exists.
        pub fn deregister<T>(&mut self, _: &T) -> io::Result<()> {
            match self.0 {}
        }
        /// Unreachable: no `Poller` exists.
        pub fn wait(&mut self, _: Option<i32>, _: impl FnMut(Event)) -> io::Result<usize> {
            match self.0 {}
        }
    }

    impl WakeFd {
        /// Always `Unsupported`.
        pub fn new() -> io::Result<WakeFd> {
            Err(io::ErrorKind::Unsupported.into())
        }
        /// Unreachable: no `WakeFd` exists.
        pub fn wake(&self) {
            match self.0 {}
        }
        /// Unreachable: no `WakeFd` exists.
        pub fn drain(&self) {
            match self.0 {}
        }
    }
}

#[cfg(test)]
mod tests {
    /// The same test bodies, instantiated once per poller; both wake
    /// through the one `WakeFd`.
    macro_rules! bodies {
        ($imp:ident) => {
            pub mod $imp {
                use crate::reactor::$imp::Poller;
                use crate::reactor::{WakeFd, EV_READ, EV_WRITE};
                use std::io::Write as _;
                use std::net::{TcpListener, TcpStream};
                use std::sync::atomic::{AtomicBool, Ordering};

                pub fn readiness() {
                    let mut poller = Poller::new(8).unwrap();
                    let wake = WakeFd::new().unwrap();
                    poller.register(&wake, EV_READ, 1).unwrap();

                    // Nothing ready: a zero-timeout wait delivers no events.
                    let n = poller.wait(Some(0), |_| {}).unwrap();
                    assert_eq!(n, 0);

                    wake.wake();
                    wake.wake(); // coalesces
                    let mut seen = Vec::new();
                    poller.wait(Some(1000), |ev| seen.push(ev.token)).unwrap();
                    assert_eq!(seen, vec![1]);
                    wake.drain();
                    assert_eq!(
                        poller.wait(Some(0), |_| {}).unwrap(),
                        0,
                        "drained wake must not re-fire"
                    );

                    // A connected socket with pending bytes reports EV_READ.
                    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                    let (server_side, _) = listener.accept().unwrap();
                    server_side.set_nonblocking(true).unwrap();
                    poller.register(&server_side, EV_READ, 7).unwrap();
                    client.write_all(b"ping").unwrap();
                    let mut seen = Vec::new();
                    poller.wait(Some(1000), |ev| seen.push((ev.token, ev.readable()))).unwrap();
                    assert_eq!(seen, vec![(7, true)]);

                    // Rearm to write interest: an idle socket is instantly writable.
                    poller.rearm(&server_side, EV_WRITE, 7).unwrap();
                    let mut writable = false;
                    poller.wait(Some(1000), |ev| writable = ev.writable()).unwrap();
                    assert!(writable);
                    poller.deregister(&server_side).unwrap();
                    assert_eq!(poller.wait(Some(0), |_| {}).unwrap(), 0);
                }

                /// One thread hammers `wake`, this one waits and
                /// drains. A lost wakeup is absorbing — `armed` stays
                /// set over an empty fd and every later `wake` is
                /// suppressed — so if the race was lost at any point of
                /// the hammering, the final `wake` cannot make the fd
                /// readable. (`drain` yields between its two steps in
                /// test builds, so the window is hit within a few
                /// drains instead of once in a million.)
                pub fn no_lost_wakeup() {
                    const DRAINS: usize = 20_000;
                    let mut poller = Poller::new(8).unwrap();
                    let wake = WakeFd::new().unwrap();
                    poller.register(&wake, EV_READ, 1).unwrap();
                    let done = AtomicBool::new(false);
                    std::thread::scope(|scope| {
                        scope.spawn(|| {
                            while !done.load(Ordering::Relaxed) {
                                wake.wake();
                            }
                        });
                        for _ in 0..DRAINS {
                            // Silence under fire means the wakeup is
                            // already lost (or the waker is starved);
                            // either way the check below decides.
                            if poller.wait(Some(20), |_| {}).unwrap() == 0 {
                                break;
                            }
                            wake.drain();
                        }
                        done.store(true, Ordering::Relaxed);
                    });
                    // Quiesce: drain until the poller reports nothing.
                    while poller.wait(Some(0), |_| {}).unwrap() > 0 {
                        wake.drain();
                    }
                    wake.wake();
                    assert_eq!(
                        poller.wait(Some(1000), |_| {}).unwrap(),
                        1,
                        "nothing readable, yet one more wake() did not make it readable: \
                         a wakeup was lost and `armed` is stuck"
                    );
                }
            }
        };
    }

    #[cfg(target_os = "linux")]
    bodies!(epoll);
    bodies!(poll);

    #[test]
    fn poller_sees_wakefd_and_socket_readiness() {
        #[cfg(target_os = "linux")]
        epoll::readiness();
        poll::readiness();
    }

    #[test]
    fn wake_racing_drain_never_loses_a_wakeup() {
        #[cfg(target_os = "linux")]
        epoll::no_lost_wakeup();
        poll::no_lost_wakeup();
    }
}
