//! The blocking accept loop every TCP front end runs (the model server,
//! the cluster router, the chaos proxy, the ingest push source).
//!
//! [`accept_until`] never sleeps on the request path: a fresh connection
//! is handed over as soon as `accept` returns it. [`stop_and_wake`] flips
//! the stop flag and wakes the blocked `accept` with one loopback connect,
//! which the loop drops unserved. [`Connections`] counts live connection
//! threads for a connection cap and a drain.

use std::io::ErrorKind;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

/// Sets `flag` and, if this call set it, wakes an [`accept_until`] on
/// `addr` with one loopback connect (an unspecified `0.0.0.0` / `::` bind
/// is reached through the loopback address of its family).
pub fn stop_and_wake(flag: &AtomicBool, addr: SocketAddr) {
    if flag.swap(true, Ordering::SeqCst) {
        return;
    }
    let mut target = addr;
    if addr.ip().is_unspecified() {
        target.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    // Refused when the loop already exited; then nothing needs waking.
    let _ = TcpStream::connect_timeout(&target, Duration::from_secs(1));
}

/// Accepts on `listener` in blocking mode and hands each connection to
/// `on_conn` until `stopping()` holds after an `accept` returns; the
/// connection that woke it is dropped unserved. The listener is closed on
/// return, so its address can be bound again at once.
///
/// Interrupted, aborted and reset accepts are retried at once; any other
/// error (a full descriptor table, say) backs off 10 ms instead of
/// spinning.
pub fn accept_until(
    listener: TcpListener,
    stopping: impl Fn() -> bool,
    mut on_conn: impl FnMut(TcpStream),
) {
    while !stopping() {
        let accepted = listener.accept();
        if stopping() {
            return;
        }
        match accepted {
            Ok((stream, _)) => on_conn(stream),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::Interrupted
                        | ErrorKind::ConnectionAborted
                        | ErrorKind::ConnectionReset
                ) => {}
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Live connection threads of one front end.
#[derive(Debug, Default)]
pub struct Connections {
    live: Mutex<usize>,
    idle: Condvar,
}

impl Connections {
    /// Connection threads spawned and not yet finished.
    pub fn live(&self) -> usize {
        *self.lock()
    }

    /// Runs `body` on a new thread named `name`, counted live until it
    /// returns or unwinds (a failed spawn is not counted).
    pub fn spawn(
        self: &Arc<Self>,
        name: &str,
        body: impl FnOnce() + Send + 'static,
    ) -> std::io::Result<()> {
        *self.lock() += 1;
        let guard = LiveGuard(Arc::clone(self));
        thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let _guard = guard;
                body();
            })
            .map(drop)
    }

    /// Blocks until every counted thread has finished.
    pub fn wait_idle(&self) {
        let mut live = self.lock();
        while *live > 0 {
            live = self.idle.wait(live).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// The count is one integer, valid after every update, so a poisoned
    /// lock is safe to recover.
    fn lock(&self) -> MutexGuard<'_, usize> {
        self.live.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Uncounts a connection thread when it ends, panicking or not.
struct LiveGuard(Arc<Connections>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        let mut live = self.0.lock();
        *live -= 1;
        if *live == 0 {
            self.0.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::time::Instant;

    fn spawn_loop(
        bind: &str,
    ) -> (
        SocketAddr,
        Arc<AtomicBool>,
        Arc<Connections>,
        thread::JoinHandle<()>,
    ) {
        let listener = TcpListener::bind(bind).unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Connections::default());
        let handle = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            thread::spawn(move || {
                accept_until(
                    listener,
                    || stop.load(Ordering::SeqCst),
                    |mut stream| {
                        conns
                            .spawn("echo", move || {
                                let mut byte = [0u8; 1];
                                if stream.read_exact(&mut byte).is_ok() {
                                    let _ = stream.write_all(&byte);
                                }
                            })
                            .unwrap();
                    },
                );
                conns.wait_idle();
            })
        };
        (addr, stop, conns, handle)
    }

    #[test]
    fn connections_are_served_and_stop_wakes_the_loop() {
        let (addr, stop, conns, handle) = spawn_loop("127.0.0.1:0");
        for _ in 0..5 {
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(b"x").unwrap();
            let mut byte = [0u8; 1];
            client.read_exact(&mut byte).unwrap();
            assert_eq!(&byte, b"x");
        }
        let started = Instant::now();
        stop_and_wake(&stop, addr);
        stop_and_wake(&stop, addr);
        handle.join().unwrap();
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(conns.live(), 0);
        // The listener is gone: the address can be bound again.
        TcpListener::bind(addr).unwrap();
    }

    #[test]
    fn an_unspecified_bind_is_woken_through_loopback() {
        let (addr, stop, _conns, handle) = spawn_loop("0.0.0.0:0");
        assert!(addr.ip().is_unspecified());
        stop_and_wake(&stop, addr);
        handle.join().unwrap();
    }

    #[test]
    fn a_panicking_connection_thread_still_leaves_the_count() {
        let conns = Arc::new(Connections::default());
        conns
            .spawn("boom", || panic!("connection thread panic"))
            .unwrap();
        conns.wait_idle();
        assert_eq!(conns.live(), 0);
    }
}
