//! Accept-path tests: a fresh connection is served as soon as it arrives,
//! and every stop path wakes the blocking acceptor.
//!
//! The servers here tick their connection reads and supervisor every 2 s.
//! An acceptor that slept on that tick would hold each fresh connection
//! for about that long, so the latency bounds below discriminate without
//! tight timing.

use nrpm_core::adaptive::AdaptiveOptions;
use nrpm_core::preprocess::NUM_INPUTS;
use nrpm_extrap::NUM_CLASSES;
use nrpm_nn::{Network, NetworkConfig};
use nrpm_serve::chaos::{ChaosOptions, ChaosProxy};
use nrpm_serve::client::{is_ok, Client};
use nrpm_serve::server::{ServeOptions, Server};
use nrpm_serve::store::ModelStore;
use serde::Value;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

const SLOW_TICK: Duration = Duration::from_secs(2);

fn start_server(addr: &str, opts: ServeOptions) -> Server {
    let net = Network::new(&NetworkConfig::new(&[NUM_INPUTS, 16, NUM_CLASSES]), 7);
    let store = ModelStore::from_network(net, AdaptiveOptions::default()).unwrap();
    Server::start(
        addr,
        store,
        ServeOptions {
            workers: 1,
            poll_interval: SLOW_TICK,
            ..opts
        },
    )
    .expect("bind ephemeral port")
}

fn join_within(server: Server, limit: Duration) {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(server.join());
    });
    rx.recv_timeout(limit)
        .expect("server failed to drain within the limit")
        .expect("a server thread panicked");
}

fn get_u64(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing u64 `{key}` in {v:?}"))
}

/// Median wall time of 20 sequential `health` round trips, each on a
/// fresh connection.
fn median_fresh_health(addr: SocketAddr) -> Duration {
    let mut times: Vec<Duration> = (0..20)
        .map(|_| {
            let started = Instant::now();
            let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
            assert!(is_ok(&client.health().unwrap()));
            started.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Waits until `addr` refuses connections: the acceptor has returned and
/// closed its listener.
fn wait_until_closed(addr: SocketAddr, limit: Duration) {
    let deadline = Instant::now() + limit;
    while TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_ok() {
        assert!(Instant::now() < deadline, "listener still open on {addr}");
        thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn fresh_connections_do_not_wait_for_a_tick() {
    let server = start_server("127.0.0.1:0", ServeOptions::default());
    let median = median_fresh_health(server.addr());
    assert!(
        median < Duration::from_millis(200),
        "median fresh-connection health round trip {median:?}"
    );
    server.request_shutdown();
    join_within(server, Duration::from_secs(20));
}

#[test]
fn shutdown_wakes_loopback_and_unspecified_binds() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = start_server(bind, ServeOptions::default());
        let addr = server.addr();
        server.request_shutdown();
        join_within(server, Duration::from_secs(20));
        // The listener is closed: its port can be bound again.
        TcpListener::bind(addr).unwrap_or_else(|e| panic!("{bind}: rebind {addr}: {e}"));
    }
}

/// The wake connection of a drain is dropped unserved: with the only
/// connection slot taken it would otherwise be shed, and either way it
/// would show up in the counters the surviving connection reads.
#[test]
fn the_wake_connection_is_neither_served_nor_shed() {
    let server = start_server(
        "127.0.0.1:0",
        ServeOptions {
            max_conns: 1,
            ..Default::default()
        },
    );
    let addr = server.addr();
    let mut held = Client::connect(addr, Duration::from_secs(10)).unwrap();
    assert!(is_ok(&held.health().unwrap()));
    let before = held.stats().unwrap();

    server.request_shutdown();
    wait_until_closed(addr, Duration::from_secs(5));

    // The held connection reads on a 2 s tick, so it still answers.
    let after = held.stats().unwrap();
    assert_eq!(get_u64(&after, "shed"), 0, "{after:?}");
    for counter in ["requests_health", "requests_model", "requests_batch"] {
        assert_eq!(
            get_u64(&after, counter),
            get_u64(&before, counter),
            "{counter}"
        );
    }
    assert_eq!(
        get_u64(&after, "requests_stats"),
        get_u64(&before, "requests_stats") + 1
    );
    drop(held);
    join_within(server, Duration::from_secs(20));
}

#[test]
fn chaos_proxy_stops_without_any_connection() {
    let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut proxy = ChaosProxy::start(upstream.local_addr().unwrap(), ChaosOptions::default())
        .expect("start proxy");
    let addr = proxy.addr();
    let started = Instant::now();
    proxy.stop();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "stop took {:?}",
        started.elapsed()
    );
    TcpListener::bind(addr).expect("the proxy's port is free after stop");
}
