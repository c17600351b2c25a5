//! Serving throughput benchmark: requests/sec and latency percentiles for
//! single-kernel vs. batched requests against a live `nrpm-serve` server at
//! several worker-pool sizes.
//!
//! Batched requests coalesce the DNN forward passes of all kernels in the
//! request into one matrix multiplication, so their per-kernel cost should
//! drop measurably below the single-request path.
//!
//! A second pair of scenarios (`batch-f64` vs. `batch-int8`) serves the
//! full paper architecture (3.7 M parameters) with and without the int8
//! quantized inference path, isolating what `nrpm serve --quantize` buys
//! when the forward pass actually dominates per-kernel cost.
//!
//! ```text
//! cargo run -p nrpm-bench --release --bin serve_bench -- \
//!     [--requests N] [--kernels K] [--quant-kernels Q] [--clients C] \
//!     [--workers 1,4,8] [--out BENCH_serve.json]
//! ```

use nrpm_bench::cli::Args;
use nrpm_bench::report::{f2, percentile, Table};
use nrpm_core::adaptive::AdaptiveOptions;
use nrpm_core::preprocess::NUM_INPUTS;
use nrpm_extrap::{MeasurementSet, NUM_CLASSES};
use nrpm_nn::{Network, NetworkConfig, QuantGate};
use nrpm_serve::client::{is_ok, Client};
use nrpm_serve::server::{ServeOptions, Server};
use nrpm_serve::store::ModelStore;
use serde::{Serialize, Value};
use std::time::{Duration, Instant};

/// One benchmarked scenario.
#[derive(Debug, Clone, Serialize)]
struct ScenarioResult {
    workers: usize,
    mode: String,
    requests: usize,
    kernels: usize,
    wall_s: f64,
    requests_per_s: f64,
    kernels_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    per_kernel_ms: f64,
    batched_forward_calls: u64,
    batched_rows: u64,
    quantized_forward_calls: u64,
    quant_fallbacks: u64,
}

#[derive(Debug, Clone, Serialize)]
struct ServeBenchReport {
    requests_per_scenario: usize,
    batch_kernels: usize,
    client_threads: usize,
    scenarios: Vec<ScenarioResult>,
}

/// A mildly noisy 5-point kernel — representative modeling work without
/// being trivially constant. Each `salt` scales the values by its own
/// factor, so distinct salts are distinct cache keys and every request
/// models instead of hitting the result cache.
fn bench_set(salt: u64) -> MeasurementSet {
    let mut set = MeasurementSet::new(1);
    let scale = 1.0 + 1e-6 * salt as f64;
    for (i, &x) in [4.0f64, 8.0, 16.0, 32.0, 64.0].iter().enumerate() {
        let wiggle = 1.0 + 0.01 * ((salt as usize + i) % 5) as f64;
        let y = (1.0 + 0.5 * x * x) * wiggle * scale;
        set.add_repetitions(&[x], &[y, y * 1.02, y * 0.98]);
    }
    set
}

/// A store serving the full paper architecture, optionally through the
/// int8 quantized path. The gate is opened wide for the benchmark: the
/// weights are random (untrained), so class probabilities sit near
/// uniform and calibration argmax "flips" are coin tosses between
/// near-tied classes, not accuracy loss — a trained network passes the
/// default gate (see the core/nn gate tests), but a random one may not.
/// This bench measures throughput only.
fn paper_store(quantize: bool) -> ModelStore {
    let config = NetworkConfig::paper();
    let network = Network::new(&config, 17);
    let mut opts = AdaptiveOptions::default();
    opts.dnn.network = config;
    opts.dnn.quantize = quantize;
    // Pin the pipeline to the DNN modeler (the above-threshold noisy
    // regime the paper targets): with a zero switching threshold the
    // exhaustive regression search never runs, so the two scenarios
    // compare the forward-pass cost itself rather than shared per-kernel
    // modeling overhead.
    opts.thresholds = Some(vec![0.0]);
    opts.dnn.quant_gate = QuantGate {
        max_prob_drift: 1.0,
        max_argmax_flips: usize::MAX,
    };
    ModelStore::from_network(network, opts).expect("paper store")
}

/// Runs one scenario against a fresh server and collects its latencies.
fn run_scenario(
    workers: usize,
    mode: &str,
    requests: usize,
    kernels_per_request: usize,
    clients: usize,
    store: &ModelStore,
) -> ScenarioResult {
    let server = Server::start(
        "127.0.0.1:0",
        store.clone(),
        ServeOptions {
            workers,
            ..Default::default()
        },
    )
    .expect("bind bench server");
    let addr = server.addr();

    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let share = requests / clients + usize::from(c < requests % clients);
            std::thread::spawn(move || {
                let mut client =
                    Client::connect(addr, Duration::from_secs(60)).expect("connect bench client");
                let mut latencies = Vec::with_capacity(share);
                for r in 0..share {
                    // Unique across clients, requests and batch members.
                    let salt = ((r * clients + c) * kernels_per_request) as u64;
                    let sent = Instant::now();
                    let response = if kernels_per_request == 1 {
                        client.model(bench_set(salt), None, None)
                    } else {
                        let sets: Vec<MeasurementSet> = (0..kernels_per_request)
                            .map(|k| bench_set(salt + k as u64))
                            .collect();
                        client.batch(sets, None)
                    }
                    .expect("bench request");
                    assert!(is_ok(&response), "bench request failed: {response:?}");
                    latencies.push(sent.elapsed());
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = Vec::with_capacity(requests);
    for handle in handles {
        latencies.extend(handle.join().expect("bench client thread"));
    }
    let wall = started.elapsed().as_secs_f64();

    let mut stats_client = Client::connect(addr, Duration::from_secs(60)).expect("stats client");
    let stats = stats_client.stats().expect("stats");
    let counter = |key: &str| stats.get(key).and_then(Value::as_u64).unwrap_or(0);
    let result = ScenarioResult {
        workers,
        mode: mode.to_string(),
        requests,
        kernels: requests * kernels_per_request,
        wall_s: wall,
        requests_per_s: requests as f64 / wall,
        kernels_per_s: (requests * kernels_per_request) as f64 / wall,
        p50_ms: 0.0,
        p99_ms: 0.0,
        per_kernel_ms: 0.0,
        batched_forward_calls: counter("batched_forward_calls"),
        batched_rows: counter("batched_rows"),
        quantized_forward_calls: counter("quantized_forward_calls"),
        quant_fallbacks: counter("quant_fallbacks"),
    };
    stats_client.shutdown().expect("shutdown");
    server.join().expect("drain bench server");

    latencies.sort();
    let p50 = percentile(&latencies, 0.50);
    ScenarioResult {
        p50_ms: p50,
        p99_ms: percentile(&latencies, 0.99),
        per_kernel_ms: p50 / kernels_per_request as f64,
        ..result
    }
}

fn main() {
    let args = Args::parse();
    let requests = args.get("requests", 64usize);
    let kernels = args.get("kernels", 8usize);
    // The quantization scenarios batch deeper: the int8 path exists for
    // batch serving, and per-request transport otherwise drowns the
    // forward-pass delta being measured.
    let quant_kernels = args.get("quant-kernels", 32usize);
    let clients = args.get("clients", 4usize);
    let worker_counts: Vec<usize> = args
        .get_f64_list("workers", &[1.0, 4.0, 8.0])
        .into_iter()
        .map(|w| w as usize)
        .collect();
    let out = args.get("out", "BENCH_serve.json".to_string());

    // The store only needs the right shape; serving cost is dominated by
    // the modeling pipeline, not by how the weights were trained.
    let network = Network::new(&NetworkConfig::new(&[NUM_INPUTS, 64, NUM_CLASSES]), 17);
    let store = ModelStore::from_network(network, AdaptiveOptions::default()).expect("store");

    println!(
        "serve throughput: {requests} requests/scenario, batch={kernels} kernels, \
         {clients} client threads\n"
    );
    let mut table = Table::new(&[
        "workers",
        "mode",
        "req/s",
        "kernels/s",
        "p50 ms",
        "p99 ms",
        "ms/kernel",
    ]);
    let mut scenarios = Vec::new();
    for &workers in &worker_counts {
        for (mode, per_request) in [("single", 1), ("batch", kernels)] {
            let result = run_scenario(workers, mode, requests, per_request, clients, &store);
            table.row(vec![
                result.workers.to_string(),
                result.mode.clone(),
                f2(result.requests_per_s),
                f2(result.kernels_per_s),
                f2(result.p50_ms),
                f2(result.p99_ms),
                f2(result.per_kernel_ms),
            ]);
            scenarios.push(result);
        }
    }
    table.print();

    for workers in &worker_counts {
        let of = |mode: &str| {
            scenarios
                .iter()
                .find(|s| s.workers == *workers && s.mode == mode)
                .expect("scenario ran")
        };
        let speedup = of("batch").kernels_per_s / of("single").kernels_per_s;
        println!("workers={workers}: batched serving models {speedup:.2}x more kernels/s");
    }

    // The quantization comparison: same requests against the 3.7 M-param
    // paper network, f64 vs. int8 forward pass (`nrpm serve --quantize`).
    println!("\npaper-architecture store ({} workers):", worker_counts[0]);
    let mut qtable = Table::new(&[
        "mode",
        "req/s",
        "kernels/s",
        "p50 ms",
        "p99 ms",
        "ms/kernel",
        "quant fwd",
    ]);
    for (mode, quantize) in [("batch-f64", false), ("batch-int8", true)] {
        let store = paper_store(quantize);
        let result = run_scenario(
            worker_counts[0],
            mode,
            requests,
            quant_kernels,
            clients,
            &store,
        );
        qtable.row(vec![
            result.mode.clone(),
            f2(result.requests_per_s),
            f2(result.kernels_per_s),
            f2(result.p50_ms),
            f2(result.p99_ms),
            f2(result.per_kernel_ms),
            result.quantized_forward_calls.to_string(),
        ]);
        scenarios.push(result);
    }
    qtable.print();

    let of = |mode: &str| {
        scenarios
            .iter()
            .find(|s| s.mode == mode)
            .expect("scenario ran")
    };
    let int8 = of("batch-int8");
    assert!(
        int8.quantized_forward_calls > 0 && int8.quant_fallbacks == 0,
        "quantized scenario did not take the int8 path"
    );
    let quant_speedup = int8.kernels_per_s / of("batch-f64").kernels_per_s;
    println!("paper net: --quantize serves {quant_speedup:.2}x more kernels/s in batch mode");

    let report = ServeBenchReport {
        requests_per_scenario: requests,
        batch_kernels: kernels,
        client_threads: clients,
        scenarios,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json).expect("write report");
    println!("\nreport written to {out}");
}
