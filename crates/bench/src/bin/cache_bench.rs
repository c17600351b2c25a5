//! Result-cache benchmark: latency of the model path (cache miss) vs. the
//! memoized hit path against a live `nrpm-serve` server, for the in-memory
//! cache and the journal-backed persistent one.
//!
//! Every request in the cold pass carries a distinct measurement set, so
//! each one runs the full modeling pipeline; the warm pass replays the same
//! sets and must be answered from the cache alone. The headline number is
//! the p50 speedup of warm over cold.
//!
//! ```text
//! cargo run -p nrpm-bench --release --bin cache_bench -- \
//!     [--requests N] [--workers W] [--out BENCH_cache.json]
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
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One cache mode (in-memory or persistent) measured cold and warm.
#[derive(Debug, Clone, Serialize)]
struct CacheScenario {
    mode: String,
    requests: usize,
    cold_p50_ms: f64,
    cold_p99_ms: f64,
    warm_p50_ms: f64,
    warm_p99_ms: f64,
    p50_speedup: f64,
    kernels_modeled: u64,
    cache_misses: u64,
    cache_hits: u64,
}

#[derive(Debug, Clone, Serialize)]
struct CacheBenchReport {
    requests: usize,
    workers: usize,
    scenarios: Vec<CacheScenario>,
}

/// A distinct kernel per salt: the multiplicative offset lands in the
/// measured values, so every salt has its own cache fingerprint.
fn bench_set(salt: u64) -> MeasurementSet {
    let mut set = MeasurementSet::new(1);
    let offset = 1.0 + 1e-4 * salt as f64;
    for &x in &[4.0f64, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0] {
        let y = (1.0 + 0.5 * x * x) * offset;
        set.add_repetitions(&[x], &[y, y * 1.02, y * 0.98, y * 1.01, y * 0.99]);
    }
    set
}

/// One pass over `requests` distinct kernels, returning sorted latencies.
fn pass(client: &mut Client, requests: usize) -> Vec<Duration> {
    let mut latencies = Vec::with_capacity(requests);
    for r in 0..requests {
        let sent = Instant::now();
        let response = client
            .model(bench_set(r as u64), Some(vec![128.0]), None)
            .expect("bench request");
        assert!(is_ok(&response), "bench request failed: {response:?}");
        latencies.push(sent.elapsed());
    }
    latencies.sort();
    latencies
}

fn run_scenario(
    mode: &str,
    requests: usize,
    workers: usize,
    store: &ModelStore,
    cache_dir: Option<PathBuf>,
) -> CacheScenario {
    let server = Server::start(
        "127.0.0.1:0",
        store.clone(),
        ServeOptions {
            workers,
            // Every cold request must still be resident for the warm pass.
            cache_capacity: (2 * requests).max(1024),
            cache_dir,
            ..Default::default()
        },
    )
    .expect("bind bench server");
    let mut client = Client::connect(server.addr(), Duration::from_secs(60)).expect("connect");

    let cold = pass(&mut client, requests);
    let warm = pass(&mut client, requests);

    let stats = client.stats().expect("stats");
    let counter = |key: &str| stats.get(key).and_then(Value::as_u64).unwrap_or(0);
    let result = CacheScenario {
        mode: mode.to_string(),
        requests,
        cold_p50_ms: percentile(&cold, 0.50),
        cold_p99_ms: percentile(&cold, 0.99),
        warm_p50_ms: percentile(&warm, 0.50),
        warm_p99_ms: percentile(&warm, 0.99),
        p50_speedup: percentile(&cold, 0.50) / percentile(&warm, 0.50),
        kernels_modeled: counter("kernels_modeled"),
        cache_misses: counter("cache_misses"),
        cache_hits: counter("cache_hits"),
    };
    assert_eq!(
        result.kernels_modeled, requests as u64,
        "warm pass must never reach the modeler"
    );
    assert_eq!(result.cache_hits, requests as u64, "warm pass must hit");
    client.shutdown().expect("shutdown");
    server.join().expect("drain bench server");
    result
}

fn main() {
    let args = Args::parse();
    let requests = args.get("requests", 64usize);
    let workers = args.get("workers", 2usize);
    let out = args.get("out", "BENCH_cache.json".to_string());

    let network = Network::new(&NetworkConfig::new(&[NUM_INPUTS, 64, NUM_CLASSES]), 17);
    let store = ModelStore::from_network(network, AdaptiveOptions::default()).expect("store");

    let journal_dir = std::env::temp_dir().join(format!("nrpm-cache-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    std::fs::create_dir_all(&journal_dir).expect("journal dir");

    println!("result cache: {requests} distinct kernels, cold pass then warm pass\n");
    let mut table = Table::new(&[
        "mode",
        "cold p50 ms",
        "cold p99 ms",
        "warm p50 ms",
        "warm p99 ms",
        "p50 speedup",
    ]);
    let mut scenarios = Vec::new();
    for (mode, dir) in [("memory", None), ("persistent", Some(journal_dir.clone()))] {
        let result = run_scenario(mode, requests, workers, &store, dir);
        table.row(vec![
            result.mode.clone(),
            f2(result.cold_p50_ms),
            f2(result.cold_p99_ms),
            f2(result.warm_p50_ms),
            f2(result.warm_p99_ms),
            f2(result.p50_speedup),
        ]);
        scenarios.push(result);
    }
    table.print();
    let _ = std::fs::remove_dir_all(&journal_dir);

    for scenario in &scenarios {
        println!(
            "{}: cache hits answer {:.1}x faster than the model path (p50)",
            scenario.mode, scenario.p50_speedup
        );
    }

    let report = CacheBenchReport {
        requests,
        workers,
        scenarios,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json).expect("write report");
    println!("\nreport written to {out}");
}
