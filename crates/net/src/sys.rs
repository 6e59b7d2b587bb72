//! The door's readiness wait: the one platform-specific piece of the
//! event loop in [`crate::door`].
//!
//! On Linux, [`Poller`] is `epoll` plus an `eventfd` [`Waker`], declared
//! with `extern "C"` against the libc that `std` already links. The
//! listener and every connection are registered level-triggered, so the
//! loop sleeps until a socket it cares about is ready, a ticket completes
//! or a deadline passes. Elsewhere the poller naps 1 ms at a time on a
//! wakeup channel: correct, but it polls.
//!
//! Either way the loop rescans every connection after each wait, so the
//! poller only has to wake it, never to say which socket is ready.

/// What the loop wants to hear about on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// The connection may be read (not backpressured, draining or at
    /// EOF).
    pub(crate) read: bool,
    /// The connection has unflushed response bytes.
    pub(crate) write: bool,
}

impl Interest {
    /// The interest a freshly accepted connection is registered with.
    pub(crate) const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

#[cfg(target_os = "linux")]
pub(crate) use epoll::{Poller, Waker};

#[cfg(not(target_os = "linux"))]
pub(crate) use nap::{Poller, Waker};

#[cfg(target_os = "linux")]
mod epoll {
    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::os::raw::{c_int, c_uint};
    use std::sync::Arc;
    use std::time::Duration;

    use super::Interest;

    // Flag values from the kernel's asm-generic headers (x86, Arm,
    // RISC-V and most other architectures).
    const EPOLL_CLOEXEC: c_int = 0o2_000_000;
    const EFD_CLOEXEC: c_int = 0o2_000_000;
    const EFD_NONBLOCK: c_int = 0o4_000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;

    /// Token of the eventfd waker; connection tokens are the door's
    /// connection ids, which count up from 1.
    const WAKER: u64 = u64::MAX;
    const LISTENER: u64 = u64::MAX - 1;

    /// `struct epoll_event`, which the kernel packs on x86_64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
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
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    }

    /// Takes ownership of the descriptor a syscall returned, or turns
    /// its `-1` into the OS error.
    ///
    /// # Safety
    ///
    /// A non-negative `fd` must be open and owned by nothing else.
    unsafe fn owned(fd: c_int) -> io::Result<OwnedFd> {
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: the caller guarantees `fd` is open and unowned.
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    /// Pokes the event loop awake from any thread.
    #[derive(Clone)]
    pub(crate) struct Waker(Arc<File>);

    impl Waker {
        pub(crate) fn wake(&self) {
            // Adds one to the eventfd counter. A full counter (EAGAIN)
            // already means "awake"; nothing else can fail on an eventfd
            // we own.
            let _ = (&*self.0).write(&1u64.to_ne_bytes());
        }

        /// Zeroes the counter. The loop rescans every connection after
        /// each wait, so a poke that lands before this read is served by
        /// that rescan, and one that lands after it wakes the next wait.
        fn reset(&self) {
            let _ = (&*self.0).read(&mut [0u8; 8]);
        }
    }

    /// `epoll` over the listener, every connection and the waker.
    pub(crate) struct Poller {
        epoll: OwnedFd,
        waker: Waker,
        events: Vec<EpollEvent>,
    }

    impl Poller {
        pub(crate) fn new(listener: &TcpListener) -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes flags only and returns a fresh
            // descriptor (or -1) that nothing else owns.
            let epoll = unsafe { owned(epoll_create1(EPOLL_CLOEXEC)) }?;
            // SAFETY: eventfd takes a count and flags only and returns a
            // fresh descriptor (or -1) that nothing else owns.
            let wake_fd = unsafe { owned(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) }?;
            let poller = Poller {
                epoll,
                waker: Waker(Arc::new(File::from(wake_fd))),
                events: vec![EpollEvent { events: 0, data: 0 }; 64],
            };
            poller.ctl(EPOLL_CTL_ADD, poller.waker.0.as_raw_fd(), WAKER, EPOLLIN)?;
            poller.ctl(EPOLL_CTL_ADD, listener.as_raw_fd(), LISTENER, EPOLLIN)?;
            Ok(poller)
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            let mut event = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: both descriptors are open for the whole call, and
            // `event` is an initialised epoll_event the kernel only reads.
            let ret = unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut event) };
            if ret < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(crate) fn waker(&self) -> Waker {
            self.waker.clone()
        }

        /// Registers a freshly accepted connection for reading. Closing
        /// the socket deregisters it.
        pub(crate) fn add(&self, stream: &TcpStream, token: u64) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_ADD,
                stream.as_raw_fd(),
                token,
                bits(Interest::READ),
            )
        }

        pub(crate) fn modify(
            &self,
            stream: &TcpStream,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, stream.as_raw_fd(), token, bits(interest))
        }

        /// Starts or stops reporting pending connections.
        pub(crate) fn set_accepting(&self, listener: &TcpListener, on: bool) -> io::Result<()> {
            let events = if on { EPOLLIN } else { 0 };
            self.ctl(EPOLL_CTL_MOD, listener.as_raw_fd(), LISTENER, events)
        }

        /// Sleeps until a registered socket is ready, the waker is poked
        /// or `timeout` (rounded up to whole milliseconds; `None` waits
        /// without limit) passes.
        pub(crate) fn wait(&mut self, timeout: Option<Duration>) {
            let timeout_ms = timeout.map_or(-1, |t| {
                t.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int
            });
            // SAFETY: `events` is a live, writable buffer of `len`
            // epoll_events and the kernel writes at most `len` of them.
            let ready = unsafe {
                epoll_wait(
                    self.epoll.as_raw_fd(),
                    self.events.as_mut_ptr(),
                    self.events.len() as c_int,
                    timeout_ms,
                )
            };
            // An error (EINTR) just ends this wait early: the loop
            // rescans and waits again.
            let ready = usize::try_from(ready).unwrap_or(0);
            // Braces copy the field out: the struct may be packed.
            if self.events[..ready]
                .iter()
                .any(|event| { event.data } == WAKER)
            {
                self.waker.reset();
            }
        }
    }

    fn bits(interest: Interest) -> u32 {
        let mut events = 0;
        if interest.read {
            events |= EPOLLIN;
        }
        if interest.write {
            events |= EPOLLOUT;
        }
        events
    }
}

#[cfg(not(target_os = "linux"))]
mod nap {
    use std::io;
    use std::net::{TcpListener, TcpStream};
    use std::sync::mpsc::{self, Receiver, Sender};
    use std::time::Duration;

    use super::Interest;

    /// How long the loop naps between scans when nothing pokes it.
    const NAP: Duration = Duration::from_millis(1);

    /// Pokes the event loop awake from any thread.
    #[derive(Clone)]
    pub(crate) struct Waker(Sender<()>);

    impl Waker {
        pub(crate) fn wake(&self) {
            // A dropped receiver means the loop already exited.
            let _ = self.0.send(());
        }
    }

    /// The portable fallback: no readiness, a 1 ms nap on the wakeup
    /// channel.
    pub(crate) struct Poller {
        waker: Waker,
        woken: Receiver<()>,
    }

    impl Poller {
        pub(crate) fn new(_listener: &TcpListener) -> io::Result<Poller> {
            let (tx, woken) = mpsc::channel();
            Ok(Poller {
                waker: Waker(tx),
                woken,
            })
        }

        pub(crate) fn waker(&self) -> Waker {
            self.waker.clone()
        }

        pub(crate) fn add(&self, _stream: &TcpStream, _token: u64) -> io::Result<()> {
            Ok(())
        }

        pub(crate) fn modify(
            &self,
            _stream: &TcpStream,
            _token: u64,
            _interest: Interest,
        ) -> io::Result<()> {
            Ok(())
        }

        pub(crate) fn set_accepting(&self, _listener: &TcpListener, _on: bool) -> io::Result<()> {
            Ok(())
        }

        pub(crate) fn wait(&mut self, _timeout: Option<Duration>) {
            let _ = self.woken.recv_timeout(NAP);
            while self.woken.try_recv().is_ok() {}
        }
    }
}
