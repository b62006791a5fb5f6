//! Offline shim for the `polling` crate: OS readiness notification for
//! many file descriptors at once.
//!
//! This is the one crate in the workspace allowed to contain `unsafe`
//! code — every other crate (including `pm-serve`, whose reactor is the
//! main consumer) keeps `#![deny(unsafe_code)]` and drives readiness
//! exclusively through the safe [`Poller`] API exposed here. The unsafe
//! surface is small and auditable: raw `extern "C"` declarations of the
//! handful of POSIX calls involved (`epoll_*`, `poll`, `pipe`, `read`,
//! `write`, `close`) and the calls themselves.
//!
//! Two backends:
//!
//! * **epoll** (Linux, the default) — one `epoll` instance per
//!   [`Poller`]; `add`/`modify`/`delete` are O(1) syscalls and waiting
//!   is O(ready), so tens of thousands of mostly-idle connections cost
//!   nothing per wakeup;
//! * **poll** (portable fallback) — interest is kept in a map and every
//!   [`Poller::wait`] rebuilds a `pollfd` array, O(registered) per
//!   wakeup. Correct everywhere POSIX; the backend off Linux, and on
//!   Linux only through [`Poller::new_poll_fallback`], which this
//!   crate's tests use to run every readiness check on both backends.
//!
//! Deviations from the real `polling` crate, deliberate and documented:
//! interest is **level-triggered and persistent** (no oneshot re-arm
//! dance), `add` is a safe method (the poller only ever holds raw fd
//! *numbers*; registering an fd that is later closed without `delete`
//! yields spurious events or `EBADF`, never memory unsafety), and
//! [`Poller::notify`] is implemented with a self-pipe on both backends.

#![warn(missing_docs)]

use std::io;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::Mutex;
use std::time::Duration;

mod ffi {
    #![allow(non_camel_case_types)]
    use std::os::raw::{c_int, c_void};

    // On x86-64 the kernel ABI packs epoll_event (12 bytes); on other
    // architectures it has natural C layout.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub u64: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct pollfd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    pub const O_NONBLOCK: c_int = 0o4000;
    pub const O_CLOEXEC: c_int = 0o2000000;

    extern "C" {
        #[cfg(target_os = "linux")]
        pub fn epoll_create1(flags: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut epoll_event,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
        #[cfg(not(target_os = "linux"))]
        pub fn pipe(fds: *mut c_int) -> c_int;
        #[cfg(not(target_os = "linux"))]
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn poll(fds: *mut pollfd, nfds: std::os::raw::c_ulong, timeout: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Interest in (or readiness of) a registered source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The caller-chosen key the source was registered with.
    pub key: usize,
    /// Readable interest / readiness.
    pub readable: bool,
    /// Writable interest / readiness.
    pub writable: bool,
}

impl Event {
    /// Readable-only interest.
    pub fn readable(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: false,
        }
    }

    /// Writable-only interest.
    pub fn writable(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: true,
        }
    }

    /// Readable and writable interest.
    pub fn all(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: true,
        }
    }

    /// No interest (keeps the registration alive for a later `modify`).
    pub fn none(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: false,
        }
    }
}

/// Reusable buffer of events delivered by [`Poller::wait`].
#[derive(Debug, Default)]
pub struct Events {
    inner: Vec<Event>,
}

impl Events {
    /// An empty buffer.
    pub fn new() -> Events {
        Events::default()
    }

    /// The delivered events, in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.inner.iter().copied()
    }

    /// Number of delivered events.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when no events were delivered.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Discard all events (done automatically by [`Poller::wait`]).
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

/// Key reserved for the internal notify pipe; user registrations must
/// stay below it (asserted in [`Poller::add`]).
const NOTIFY_KEY: usize = usize::MAX;

/// How many kernel events one `wait` call retrieves at most; `wait`
/// loops are expected to call again, so this only bounds one syscall.
const WAIT_BATCH: usize = 1024;

/// A self-pipe: `notify()` writes a byte, the read end is registered in
/// the backend, `drain()` empties it after a wakeup.
#[derive(Debug)]
struct NotifyPipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl NotifyPipe {
    fn new() -> io::Result<NotifyPipe> {
        let mut fds = [0 as c_int; 2];
        #[cfg(target_os = "linux")]
        // SAFETY: pipe2 writes exactly two fds into the array provided.
        cvt(unsafe { ffi::pipe2(fds.as_mut_ptr(), ffi::O_NONBLOCK | ffi::O_CLOEXEC) })?;
        #[cfg(not(target_os = "linux"))]
        {
            // SAFETY: pipe writes exactly two fds into the array.
            cvt(unsafe { ffi::pipe(fds.as_mut_ptr()) })?;
            const F_SETFL: c_int = 4;
            for fd in fds {
                // SAFETY: plain fcntl on a fd we just created.
                cvt(unsafe { ffi::fcntl(fd, F_SETFL, ffi::O_NONBLOCK) })?;
            }
        }
        Ok(NotifyPipe {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    fn notify(&self) {
        let byte = 1u8;
        // SAFETY: writing one byte from a live stack buffer. A full pipe
        // (EAGAIN) means a wakeup is already pending — success either way.
        let _ = unsafe { ffi::write(self.write_fd, (&byte as *const u8).cast::<c_void>(), 1) };
    }

    fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: reading into a live stack buffer of the stated size.
            let n =
                unsafe { ffi::read(self.read_fd, buf.as_mut_ptr().cast::<c_void>(), buf.len()) };
            if n <= 0 {
                return;
            }
        }
    }
}

impl Drop for NotifyPipe {
    fn drop(&mut self) {
        // SAFETY: closing fds this struct owns exclusively.
        unsafe {
            ffi::close(self.read_fd);
            ffi::close(self.write_fd);
        }
    }
}

#[derive(Debug)]
enum Backend {
    #[cfg(target_os = "linux")]
    Epoll { epfd: RawFd },
    Poll {
        /// fd → (key, readable, writable); rebuilt into a pollfd array
        /// on every wait.
        interest: Mutex<Vec<(RawFd, Event)>>,
    },
}

/// A readiness poller over many registered file descriptors.
///
/// `add`/`modify`/`delete`/`notify` are callable from any thread;
/// `wait` is intended for the single owning reactor thread.
#[derive(Debug)]
pub struct Poller {
    backend: Backend,
    pipe: NotifyPipe,
    /// Serializes concurrent `wait` calls on the poll backend (the epoll
    /// backend needs no lock).
    wait_lock: Mutex<()>,
}

impl Poller {
    /// A poller on the platform's backend: `epoll` on Linux, `poll`
    /// elsewhere.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            Poller::new_epoll()
        }
        #[cfg(not(target_os = "linux"))]
        {
            Poller::new_poll_fallback()
        }
    }

    #[cfg(target_os = "linux")]
    fn new_epoll() -> io::Result<Poller> {
        // SAFETY: plain syscall; the returned fd is owned by the Poller.
        let epfd = cvt(unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) })?;
        let pipe = NotifyPipe::new()?;
        let poller = Poller {
            backend: Backend::Epoll { epfd },
            pipe,
            wait_lock: Mutex::new(()),
        };
        poller.ctl(
            ffi::EPOLL_CTL_ADD,
            poller.pipe.read_fd,
            Some(Event::readable(NOTIFY_KEY)),
        )?;
        Ok(poller)
    }

    /// A poller on the portable `poll(2)` backend, regardless of
    /// platform — for tests of the fallback path.
    pub fn new_poll_fallback() -> io::Result<Poller> {
        let pipe = NotifyPipe::new()?;
        Ok(Poller {
            backend: Backend::Poll {
                interest: Mutex::new(Vec::new()),
            },
            pipe,
            wait_lock: Mutex::new(()),
        })
    }

    /// The backend in use (`"epoll"` or `"poll"`).
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { .. } => "epoll",
            Backend::Poll { .. } => "poll",
        }
    }

    #[cfg(target_os = "linux")]
    fn ctl(&self, op: c_int, fd: RawFd, interest: Option<Event>) -> io::Result<()> {
        let Backend::Epoll { epfd } = &self.backend else {
            unreachable!("ctl is epoll-only");
        };
        let mut ev = ffi::epoll_event { events: 0, u64: 0 };
        if let Some(i) = interest {
            ev.events = (if i.readable { ffi::EPOLLIN } else { 0 })
                | (if i.writable { ffi::EPOLLOUT } else { 0 });
            ev.u64 = i.key as u64;
        }
        // SAFETY: `ev` is a live, correctly-laid-out epoll_event; DEL
        // tolerates (and ignores) the event pointer.
        cvt(unsafe { ffi::epoll_ctl(*epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Register `source` with the given interest under `interest.key`.
    /// The caller must `delete` the source before closing it; a stale
    /// registration yields spurious events, never unsafety.
    pub fn add(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        assert!(interest.key != NOTIFY_KEY, "key usize::MAX is reserved");
        let fd = source.as_raw_fd();
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { .. } => self.ctl(ffi::EPOLL_CTL_ADD, fd, Some(interest)),
            Backend::Poll { interest: map } => {
                let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
                if map.iter().any(|(f, _)| *f == fd) {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        "fd already registered",
                    ));
                }
                map.push((fd, interest));
                Ok(())
            }
        }
    }

    /// Replace the interest of an already-registered source.
    pub fn modify(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        assert!(interest.key != NOTIFY_KEY, "key usize::MAX is reserved");
        let fd = source.as_raw_fd();
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { .. } => self.ctl(ffi::EPOLL_CTL_MOD, fd, Some(interest)),
            Backend::Poll { interest: map } => {
                let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
                match map.iter_mut().find(|(f, _)| *f == fd) {
                    Some((_, ev)) => {
                        *ev = interest;
                        Ok(())
                    }
                    None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
                }
            }
        }
    }

    /// Remove a source's registration.
    pub fn delete(&self, source: &impl AsRawFd) -> io::Result<()> {
        let fd = source.as_raw_fd();
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { .. } => self.ctl(ffi::EPOLL_CTL_DEL, fd, None),
            Backend::Poll { interest: map } => {
                let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
                let before = map.len();
                map.retain(|(f, _)| *f != fd);
                if map.len() == before {
                    return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
                }
                Ok(())
            }
        }
    }

    /// Wake a concurrent or future [`Poller::wait`] call immediately.
    pub fn notify(&self) -> io::Result<()> {
        self.pipe.notify();
        Ok(())
    }

    /// Block until at least one registered source is ready, `timeout`
    /// elapses (`None` = forever), or [`Poller::notify`] is called.
    /// Returns the number of events delivered into `events` (0 on
    /// timeout or notify — spurious wakeups are allowed and callers
    /// must tolerate them).
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
        };
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                let mut buf = [ffi::epoll_event { events: 0, u64: 0 }; WAIT_BATCH];
                // SAFETY: `buf` is a live array of WAIT_BATCH events.
                let n = unsafe {
                    ffi::epoll_wait(*epfd, buf.as_mut_ptr(), WAIT_BATCH as c_int, timeout_ms)
                };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(0); // spurious wakeup
                    }
                    return Err(err);
                }
                let mut notified = false;
                for ev in buf.iter().take(n as usize) {
                    let key = { ev.u64 } as usize;
                    if key == NOTIFY_KEY {
                        notified = true;
                        continue;
                    }
                    let bits = { ev.events };
                    // ERR/HUP surface as readable+writable so the owner
                    // discovers the condition on its next I/O attempt.
                    let errish = bits & (ffi::EPOLLERR | ffi::EPOLLHUP) != 0;
                    events.inner.push(Event {
                        key,
                        readable: bits & ffi::EPOLLIN != 0 || errish,
                        writable: bits & ffi::EPOLLOUT != 0 || errish,
                    });
                }
                if notified {
                    self.pipe.drain();
                }
                Ok(events.len())
            }
            Backend::Poll { interest } => {
                let _wait = self.wait_lock.lock().unwrap_or_else(|e| e.into_inner());
                let mut fds: Vec<ffi::pollfd> = Vec::new();
                let mut keys: Vec<usize> = Vec::new();
                fds.push(ffi::pollfd {
                    fd: self.pipe.read_fd,
                    events: ffi::POLLIN,
                    revents: 0,
                });
                keys.push(NOTIFY_KEY);
                {
                    let map = interest.lock().unwrap_or_else(|e| e.into_inner());
                    for (fd, ev) in map.iter() {
                        fds.push(ffi::pollfd {
                            fd: *fd,
                            events: (if ev.readable { ffi::POLLIN } else { 0 })
                                | (if ev.writable { ffi::POLLOUT } else { 0 }),
                            revents: 0,
                        });
                        keys.push(ev.key);
                    }
                }
                // SAFETY: `fds` is a live, correctly-laid-out pollfd array.
                let n = unsafe { ffi::poll(fds.as_mut_ptr(), fds.len() as _, timeout_ms) };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(0);
                    }
                    return Err(err);
                }
                for (pfd, &key) in fds.iter().zip(&keys) {
                    if pfd.revents == 0 {
                        continue;
                    }
                    if key == NOTIFY_KEY {
                        self.pipe.drain();
                        continue;
                    }
                    let errish = pfd.revents & (ffi::POLLERR | ffi::POLLHUP) != 0;
                    events.inner.push(Event {
                        key,
                        readable: pfd.revents & ffi::POLLIN != 0 || errish,
                        writable: pfd.revents & ffi::POLLOUT != 0 || errish,
                    });
                }
                Ok(events.len())
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backend::Epoll { epfd } = &self.backend {
            // SAFETY: closing the epoll fd this struct owns exclusively.
            unsafe {
                ffi::close(*epfd);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    fn backends() -> Vec<Poller> {
        let mut v = vec![Poller::new_poll_fallback().unwrap()];
        #[cfg(target_os = "linux")]
        v.push(Poller::new_epoll().unwrap());
        v
    }

    #[test]
    fn readable_readiness_is_reported_once_data_arrives() {
        for poller in backends() {
            let (a, mut b) = pair();
            poller.add(&a, Event::readable(7)).unwrap();
            let mut events = Events::new();

            // Nothing to read yet: zero-timeout wait delivers nothing.
            poller
                .wait(&mut events, Some(Duration::from_millis(0)))
                .unwrap();
            assert!(events.is_empty(), "{}", poller.backend_name());

            b.write_all(b"x").unwrap();
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(n, 1, "{}", poller.backend_name());
            let ev = events.iter().next().unwrap();
            assert_eq!(ev.key, 7);
            assert!(ev.readable);
            poller.delete(&a).unwrap();
        }
    }

    #[test]
    fn modify_switches_interest_and_writable_fires() {
        for poller in backends() {
            let (a, _b) = pair();
            poller.add(&a, Event::none(3)).unwrap();
            let mut events = Events::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(0)))
                .unwrap();
            assert!(events.is_empty());

            // An idle socket's send buffer is writable immediately.
            poller.modify(&a, Event::writable(3)).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1, "{}", poller.backend_name());
            assert!(events.iter().next().unwrap().writable);
            poller.delete(&a).unwrap();
        }
    }

    #[test]
    fn notify_wakes_a_blocked_wait() {
        for poller in backends() {
            let poller = std::sync::Arc::new(poller);
            let waker = std::sync::Arc::clone(&poller);
            let t = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                waker.notify().unwrap();
            });
            let mut events = Events::new();
            let start = std::time::Instant::now();
            // Without the notify this would block for the full 10s.
            poller
                .wait(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "{}",
                poller.backend_name()
            );
            t.join().unwrap();
        }
    }

    #[test]
    fn peer_close_reports_readable_for_eof_detection() {
        for poller in backends() {
            let (a, b) = pair();
            poller.add(&a, Event::readable(1)).unwrap();
            drop(b);
            let mut events = Events::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.key == 1 && e.readable),
                "{}",
                poller.backend_name()
            );
            // The owner then observes EOF on read.
            let mut a = a;
            let mut buf = [0u8; 8];
            a.set_nonblocking(false).unwrap();
            assert_eq!(a.read(&mut buf).unwrap(), 0);
            poller.delete(&a).unwrap();
        }
    }

    #[test]
    fn double_add_and_missing_delete_are_errors_on_poll_backend() {
        let poller = Poller::new_poll_fallback().unwrap();
        let (a, b) = pair();
        poller.add(&a, Event::readable(1)).unwrap();
        assert!(poller.add(&a, Event::readable(2)).is_err());
        assert!(poller.delete(&b).is_err());
        assert!(poller.modify(&b, Event::readable(9)).is_err());
        poller.delete(&a).unwrap();
    }
}
