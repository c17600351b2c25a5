//! Overload benchmark: shed rate, goodput, and accepted-request latency
//! for a server driven at multiples of its sustained capacity.
//!
//! Capacity is made deterministic with the `work_delay` service-time knob
//! (`workers / work_delay` requests per second), then paced client threads
//! offer load at 1x–10x that capacity. A resilient server sheds the excess
//! with `overloaded` responses while the bounded admission queue keeps
//! accepted-request p99 near the unloaded baseline — queue-and-time-out
//! would instead show p99 exploding and goodput collapsing.
//!
//! ```text
//! cargo run -p nrpm-bench --release --bin overload_bench -- \
//!     [--workers N] [--work-delay-ms T] [--queue-depth N] [--clients C] \
//!     [--seconds S] [--multiples 1,2,4,10] [--out BENCH_overload.json]
//! ```

use nrpm_bench::cli::Args;
use nrpm_bench::report::{f2, percentile, Table};
use nrpm_core::adaptive::AdaptiveOptions;
use nrpm_core::preprocess::NUM_INPUTS;
use nrpm_extrap::{MeasurementSet, NUM_CLASSES};
use nrpm_nn::{Network, NetworkConfig};
use nrpm_serve::client::{is_ok, Client};
use nrpm_serve::server::{ServeOptions, Server};
use nrpm_serve::store::ModelStore;
use serde::{Serialize, Value};
use std::time::{Duration, Instant};

/// Client-side tally of one load scenario.
#[derive(Debug, Clone, Serialize)]
struct ScenarioResult {
    /// Offered load as a multiple of sustained capacity.
    multiple: f64,
    offered_rps: f64,
    sent: u64,
    ok: u64,
    shed: u64,
    timeouts: u64,
    other_errors: u64,
    shed_rate: f64,
    goodput_rps: f64,
    accepted_p50_ms: f64,
    accepted_p99_ms: f64,
    /// `shed` as counted by the server's own metrics.
    server_shed: u64,
    server_queue_hwm: u64,
}

#[derive(Debug, Clone, Serialize)]
struct OverloadBenchReport {
    workers: usize,
    work_delay_ms: u64,
    queue_depth: usize,
    client_threads: usize,
    seconds_per_scenario: f64,
    capacity_rps: f64,
    unloaded_p50_ms: f64,
    unloaded_p99_ms: f64,
    scenarios: Vec<ScenarioResult>,
}

fn bench_set(salt: u64) -> MeasurementSet {
    let mut set = MeasurementSet::new(1);
    for (i, &x) in [4.0f64, 8.0, 16.0, 32.0, 64.0].iter().enumerate() {
        let wiggle = 1.0 + 0.01 * ((salt as usize + i) % 5) as f64;
        let y = (1.0 + 0.5 * x * x) * wiggle;
        set.add_repetitions(&[x], &[y, y * 1.02, y * 0.98]);
    }
    set
}

struct ClientTally {
    sent: u64,
    ok: u64,
    shed: u64,
    timeouts: u64,
    other_errors: u64,
    accepted: Vec<Duration>,
}

/// Offers `rate` requests/sec for `span` from one paced client thread.
/// `phase` in `[0, 1)` staggers this client's clock within one interval so
/// the fleet's arrivals spread uniformly instead of bursting in lockstep.
fn paced_client(
    addr: std::net::SocketAddr,
    rate: f64,
    span: Duration,
    phase: f64,
    salt: u64,
) -> ClientTally {
    let mut client = Client::connect(addr, Duration::from_secs(60)).expect("connect");
    let interval = Duration::from_secs_f64(1.0 / rate.max(1e-9));
    let started = Instant::now() + interval.mul_f64(phase);
    let mut tally = ClientTally {
        sent: 0,
        ok: 0,
        shed: 0,
        timeouts: 0,
        other_errors: 0,
        accepted: Vec::new(),
    };
    loop {
        let now = Instant::now();
        // Stop at the wall-clock end of the span even when behind schedule:
        // a backlogged client must not stretch the scenario (and silently
        // skew goodput-per-second) by working through its remaining quota.
        if now >= started + span {
            break;
        }
        let target = started + interval.mul_f64(tally.sent as f64);
        if target >= started + span {
            break;
        }
        if let Some(wait) = target.checked_duration_since(now) {
            std::thread::sleep(wait);
        }
        let sent_at = Instant::now();
        tally.sent += 1;
        // A generous explicit deadline: with a bounded queue nothing
        // should ever get near it — timeouts here mean the server let a
        // request wait past its deadline.
        match client.model(bench_set(salt + tally.sent), None, Some(5_000)) {
            Ok(response) => {
                if is_ok(&response) {
                    tally.ok += 1;
                    tally.accepted.push(sent_at.elapsed());
                } else {
                    match response.get("kind").and_then(Value::as_str) {
                        Some("overloaded") => tally.shed += 1,
                        Some("timeout") => tally.timeouts += 1,
                        _ => tally.other_errors += 1,
                    }
                }
            }
            Err(_) => {
                tally.other_errors += 1;
                // Transport failure: reconnect and keep offering load.
                client = Client::connect(addr, Duration::from_secs(60)).expect("reconnect");
            }
        }
    }
    tally
}

#[allow(clippy::too_many_arguments)]
fn run_scenario(
    multiple: f64,
    capacity_rps: f64,
    clients: usize,
    span: Duration,
    workers: usize,
    work_delay: Duration,
    queue_depth: usize,
    store: &ModelStore,
) -> ScenarioResult {
    let server = Server::start(
        "127.0.0.1:0",
        store.clone(),
        ServeOptions {
            workers,
            queue_depth,
            work_delay: Some(work_delay),
            ..Default::default()
        },
    )
    .expect("bind bench server");
    let addr = server.addr();

    let offered_rps = multiple * capacity_rps;
    let per_client = offered_rps / clients as f64;
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let phase = c as f64 / clients as f64;
            std::thread::spawn(move || paced_client(addr, per_client, span, phase, c as u64 * 131))
        })
        .collect();
    let mut sent = 0u64;
    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut timeouts = 0u64;
    let mut other_errors = 0u64;
    let mut accepted: Vec<Duration> = Vec::new();
    for handle in handles {
        let tally = handle.join().expect("bench client thread");
        sent += tally.sent;
        ok += tally.ok;
        shed += tally.shed;
        timeouts += tally.timeouts;
        other_errors += tally.other_errors;
        accepted.extend(tally.accepted);
    }

    let mut stats_client = Client::connect(addr, Duration::from_secs(60)).expect("stats client");
    let stats = stats_client.stats().expect("stats");
    let counter = |key: &str| stats.get(key).and_then(Value::as_u64).unwrap_or(0);
    let server_shed = counter("shed");
    let server_queue_hwm = counter("queue_depth_hwm");
    stats_client.shutdown().expect("shutdown");
    server.join().expect("drain bench server");

    accepted.sort();
    ScenarioResult {
        multiple,
        offered_rps,
        sent,
        ok,
        shed,
        timeouts,
        other_errors,
        shed_rate: if sent > 0 {
            shed as f64 / sent as f64
        } else {
            0.0
        },
        goodput_rps: ok as f64 / span.as_secs_f64(),
        accepted_p50_ms: percentile(&accepted, 0.50),
        accepted_p99_ms: percentile(&accepted, 0.99),
        server_shed,
        server_queue_hwm,
    }
}

fn main() {
    let args = Args::parse();
    let workers = args.get("workers", 4usize);
    let work_delay_ms = args.get("work-delay-ms", 5u64);
    // Defaults are sized for small CI boxes: a shallow queue keeps the
    // accepted-latency bound tight, and a few client threads avoid
    // scheduler-noise tails when cores are scarce.
    let queue_depth = args.get("queue-depth", 2usize);
    let clients = args.get("clients", 4usize);
    let seconds = args.get("seconds", 3.0f64);
    let multiples = args.get_f64_list("multiples", &[1.0, 2.0, 4.0, 10.0]);
    let out = args.get("out", "BENCH_overload.json".to_string());

    let work_delay = Duration::from_millis(work_delay_ms.max(1));
    let capacity_rps = workers as f64 / work_delay.as_secs_f64();
    let span = Duration::from_secs_f64(seconds);

    let network = Network::new(&NetworkConfig::new(&[NUM_INPUTS, 64, NUM_CLASSES]), 17);
    let store = ModelStore::from_network(network, AdaptiveOptions::default()).expect("store");

    // Unloaded baseline: one sequential client, far below capacity.
    let server = Server::start(
        "127.0.0.1:0",
        store.clone(),
        ServeOptions {
            workers,
            queue_depth,
            work_delay: Some(work_delay),
            ..Default::default()
        },
    )
    .expect("bind baseline server");
    let mut client = Client::connect(server.addr(), Duration::from_secs(60)).expect("connect");
    let mut unloaded: Vec<Duration> = (0..100)
        .map(|i| {
            let sent = Instant::now();
            let response = client.model(bench_set(i), None, None).expect("baseline");
            assert!(is_ok(&response), "baseline request failed: {response:?}");
            sent.elapsed()
        })
        .collect();
    client.shutdown().expect("shutdown baseline");
    server.join().expect("drain baseline server");
    unloaded.sort();
    let unloaded_p50 = percentile(&unloaded, 0.50);
    let unloaded_p99 = percentile(&unloaded, 0.99);

    println!(
        "overload: capacity {capacity_rps:.0} req/s ({workers} workers x {work_delay_ms}ms), \
         queue depth {queue_depth}, {clients} paced clients, {seconds:.1}s/scenario"
    );
    println!("unloaded baseline: p50 {unloaded_p50:.2}ms  p99 {unloaded_p99:.2}ms\n");

    let mut table = Table::new(&[
        "load",
        "offered r/s",
        "sent",
        "ok",
        "shed",
        "shed %",
        "goodput r/s",
        "p50 ms",
        "p99 ms",
    ]);
    let mut scenarios = Vec::new();
    for &multiple in &multiples {
        let result = run_scenario(
            multiple,
            capacity_rps,
            clients,
            span,
            workers,
            work_delay,
            queue_depth,
            &store,
        );
        table.row(vec![
            format!("{multiple}x"),
            f2(result.offered_rps),
            result.sent.to_string(),
            result.ok.to_string(),
            result.shed.to_string(),
            f2(result.shed_rate * 100.0),
            f2(result.goodput_rps),
            f2(result.accepted_p50_ms),
            f2(result.accepted_p99_ms),
        ]);
        scenarios.push(result);
    }
    table.print();

    for s in &scenarios {
        if s.timeouts > 0 {
            println!(
                "WARNING: {}x load saw {} deadline timeouts — a request waited past its deadline",
                s.multiple, s.timeouts
            );
        }
    }
    if let Some(worst) = scenarios
        .iter()
        .filter(|s| s.ok > 0 && s.multiple >= 1.0)
        .map(|s| s.accepted_p99_ms)
        .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.max(v))))
    {
        println!(
            "\naccepted p99 stays at {worst:.2}ms under overload (unloaded {unloaded_p99:.2}ms, \
             {:.2}x)",
            worst / unloaded_p99
        );
    }

    let report = OverloadBenchReport {
        workers,
        work_delay_ms,
        queue_depth,
        client_threads: clients,
        seconds_per_scenario: seconds,
        capacity_rps,
        unloaded_p50_ms: unloaded_p50,
        unloaded_p99_ms: unloaded_p99,
        scenarios,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json).expect("write report");
    println!("\nreport written to {out}");
}
