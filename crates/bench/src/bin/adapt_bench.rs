//! Adaptation chaos benchmark: request latency while the background
//! adaptation engine retrains, shadow-validates, hot-swaps, and rolls back
//! under injected faults.
//!
//! Each campaign forces one adaptation cycle with a fault drawn from a
//! fixed rotation (`clean`, `kill_retrain`, `corrupt_candidate`,
//! `kill_commit`, `regress_swap`) while a client hammers the server with
//! distinct modeling requests. The harness asserts the robustness
//! invariants per campaign — no dropped requests, killed cycles leave the
//! incumbent serving, regressing swaps roll back — and reports request
//! latency during adaptation against the steady-state baseline. The
//! headline number is the during-adaptation p99 as a multiple of steady
//! p99 (acceptance: within 2x).
//!
//! ```text
//! cargo run -p nrpm-bench --release --bin adapt_bench -- \
//!     [--campaigns N] [--workers W] [--out BENCH_adapt.json]
//! ```

use nrpm_bench::cli::Args;
use nrpm_bench::report::{f2, percentile, Table};
use nrpm_core::adaptive::AdaptiveOptions;
use nrpm_core::preprocess::NUM_INPUTS;
use nrpm_extrap::{MeasurementSet, NUM_CLASSES};
use nrpm_nn::{Network, NetworkConfig};
use nrpm_serve::adapt::AdaptOptions;
use nrpm_serve::client::{is_ok, Client};
use nrpm_serve::server::{ServeOptions, Server};
use nrpm_serve::store::ModelStore;
use serde::{Serialize, Value};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Serialize)]
struct AdaptBenchReport {
    campaigns: usize,
    workers: usize,
    /// Baseline latency with the engine idle.
    steady_p50_ms: f64,
    steady_p99_ms: f64,
    /// Latency of requests issued while cycles/swaps/rollbacks were active.
    during_p50_ms: f64,
    during_p99_ms: f64,
    /// during p99 / steady p99 — the acceptance headline (target < 2.0).
    p99_ratio: f64,
    requests_total: u64,
    dropped_requests: u64,
    /// Watchdog trip-to-restore time across regress campaigns.
    rollback_p50_ms: f64,
    clean_swaps: u64,
    clean_rejects: u64,
    retrain_kills: u64,
    corrupt_rejects: u64,
    commit_kills: u64,
    regress_rollbacks: u64,
    regress_rejects: u64,
    adapt_cycles: u64,
    adapt_swaps: u64,
    adapt_rollbacks: u64,
    adapt_restarts: u64,
    adapt_rejected: u64,
    worker_restarts: u64,
    invariant_violations: Vec<String>,
}

/// A distinct kernel per salt so every request reaches the modeler and
/// feeds the adaptation engine a fresh observation.
fn bench_set(salt: u64) -> MeasurementSet {
    let mut set = MeasurementSet::new(1);
    let slope = 2.0 + 1e-4 * salt as f64;
    for &x in &[4.0f64, 8.0, 16.0, 32.0, 64.0] {
        let y = slope * x;
        set.add_repetitions(&[x], &[y, y * 1.01, y * 0.99]);
    }
    set
}

fn counter(stats: &Value, key: &str) -> u64 {
    stats.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn checkpoint(stats: &Value) -> String {
    stats
        .get("checkpoint_hash")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string()
}

/// The measuring client: every request is timed, and every failure (at the
/// transport or as a non-ok response) counts as a dropped request.
struct Driver {
    client: Client,
    salt: u64,
    dropped: u64,
    total: u64,
}

impl Driver {
    fn request(&mut self, latencies: &mut Vec<Duration>) {
        self.salt += 1;
        self.total += 1;
        let tenant = format!("tenant-{}", self.salt % 4);
        let sent = Instant::now();
        match self.client.model_as(
            bench_set(self.salt),
            Some(vec![128.0]),
            Some(30_000),
            Some(tenant),
        ) {
            Ok(response) if is_ok(&response) => latencies.push(sent.elapsed()),
            _ => self.dropped += 1,
        }
    }

    fn stats(&mut self) -> Value {
        self.client.stats().expect("stats")
    }

    fn line(&mut self, line: &str) {
        let response = self.client.roundtrip_line(line).expect("control line");
        assert!(is_ok(&response), "control line failed: {response:?}");
    }
}

/// Terminal-outcome total: swap, reject, and restart are each recorded at
/// the *end* of a cycle (unlike `adapt_cycles`, which ticks at the start).
fn outcomes(stats: &Value) -> u64 {
    counter(stats, "adapt_swaps")
        + counter(stats, "adapt_rejected")
        + counter(stats, "adapt_restarts")
}

fn main() {
    let args = Args::parse();
    let campaigns = args.get("campaigns", 100usize);
    let workers = args.get("workers", 2usize);
    let out = args.get("out", "BENCH_adapt.json".to_string());

    // Small retrain corpus: one adaptation cycle is a few ms of training,
    // sized so background retraining shares a small container's cores with
    // the serving path without starving it.
    let mut core_opts = AdaptiveOptions::default();
    core_opts.dnn.adaptation_samples_per_class = 4;
    core_opts.dnn.adaptation_epochs = 1;
    core_opts.dnn.train_threads = 1;
    let network = Network::new(&NetworkConfig::new(&[NUM_INPUTS, 16, NUM_CLASSES]), 17);
    let store = ModelStore::from_network(network, core_opts).expect("store");

    let dir = std::env::temp_dir().join(format!("nrpm-adapt-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("registry dir");

    let server = Server::start(
        "127.0.0.1:0",
        store,
        ServeOptions {
            workers,
            debug_hooks: true,
            // Caching off: every request must reach a worker so the engine
            // sees live observations, and latency measures the model path.
            cache_capacity: 0,
            poll_interval: Duration::from_millis(10),
            adaptation: AdaptOptions {
                enabled: true,
                // Only forced cycles: the rotation drives the engine.
                interval: Duration::from_secs(3600),
                smape_tolerance: 100.0,
                min_observations: 1,
                watch_window: 4,
                // High enough that honest post-swap noise never trips the
                // watchdog; the regress fault inflates samples 10x past it.
                watch_tolerance: 3.0,
                dir: Some(dir.clone()),
                train_threads: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("bind bench server");
    let client = Client::connect(server.addr(), Duration::from_secs(60)).expect("connect");
    let mut driver = Driver {
        client,
        salt: 0,
        dropped: 0,
        total: 0,
    };

    // Steady-state baseline with the engine idle, using the identical
    // request-then-stats pattern as the campaign loop so both phases
    // measure the same wire traffic.
    let mut steady = Vec::new();
    for _ in 0..1500 {
        driver.request(&mut steady);
        let _ = driver.stats();
    }
    steady.sort();

    let kinds = [
        "clean",
        "kill_retrain",
        "corrupt_candidate",
        "kill_commit",
        "regress_swap",
    ];
    let mut during: Vec<Duration> = Vec::new();
    let mut rollbacks_ms: Vec<Duration> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut counts = std::collections::BTreeMap::new();
    for key in [
        "clean_swaps",
        "clean_rejects",
        "retrain_kills",
        "corrupt_rejects",
        "commit_kills",
        "regress_rollbacks",
        "regress_rejects",
    ] {
        counts.insert(key.to_string(), 0u64);
    }
    let bump = |counts: &mut std::collections::BTreeMap<String, u64>, key: &str| {
        *counts.get_mut(key).expect("known key") += 1;
    };

    println!("adaptation chaos: {campaigns} campaigns over {:?}\n", kinds);
    for c in 0..campaigns {
        let kind = kinds[c % kinds.len()];
        let before = driver.stats();
        let hash_before = checkpoint(&before);

        // Seed the cycle with fresh observations, then queue the fault(s)
        // and force.
        for _ in 0..4 {
            driver.request(&mut during);
        }
        match kind {
            "clean" => {}
            // A mid-commit kill requires the cycle to *reach* the commit
            // point, so the statistical shadow gate is bypassed too.
            "kill_commit" => {
                driver.line("{\"cmd\":\"adapt_fault\",\"kind\":\"regress_swap\"}");
                driver.line("{\"cmd\":\"adapt_fault\",\"kind\":\"kill_commit\"}");
            }
            fault => {
                driver.line(&format!("{{\"cmd\":\"adapt_fault\",\"kind\":\"{fault}\"}}"));
            }
        }
        driver.line("{\"cmd\":\"force_adapt\"}");

        // Hammer the server until the cycle reaches a terminal outcome.
        let deadline = Instant::now() + Duration::from_secs(60);
        let stats = loop {
            driver.request(&mut during);
            let stats = driver.stats();
            if outcomes(&stats) > outcomes(&before) {
                break stats;
            }
            assert!(
                Instant::now() < deadline,
                "campaign {c} ({kind}): no terminal outcome within 60s"
            );
        };
        let swapped = counter(&stats, "adapt_swaps") > counter(&before, "adapt_swaps");
        let restarted = counter(&stats, "adapt_restarts") > counter(&before, "adapt_restarts");

        // Post-outcome invariants per fault kind.
        match kind {
            "clean" => {
                if swapped {
                    bump(&mut counts, "clean_swaps");
                    if checkpoint(&driver.stats()) == hash_before {
                        violations.push(format!("campaign {c}: clean swap kept the old hash"));
                    }
                } else {
                    bump(&mut counts, "clean_rejects");
                }
            }
            "kill_retrain" | "kill_commit" | "corrupt_candidate" => {
                if swapped {
                    violations.push(format!("campaign {c} ({kind}): faulted cycle swapped"));
                }
                if checkpoint(&driver.stats()) != hash_before {
                    violations.push(format!("campaign {c} ({kind}): incumbent hash changed"));
                }
                match kind {
                    "kill_retrain" => {
                        if restarted {
                            bump(&mut counts, "retrain_kills");
                        } else {
                            violations.push(format!("campaign {c}: kill_retrain did not restart"));
                        }
                    }
                    "kill_commit" => {
                        // The retrain's own validation gate may reject before
                        // the commit point is reached; that is a clean reject,
                        // not a kill.
                        if restarted {
                            bump(&mut counts, "commit_kills");
                        }
                    }
                    _ => bump(&mut counts, "corrupt_rejects"),
                }
            }
            "regress_swap" => {
                if !swapped {
                    bump(&mut counts, "regress_rejects");
                } else {
                    // The watchdog must trip and restore the incumbent.
                    let tripped = Instant::now();
                    let deadline = Instant::now() + Duration::from_secs(60);
                    loop {
                        driver.request(&mut during);
                        let s = driver.stats();
                        if counter(&s, "adapt_rollbacks") > counter(&before, "adapt_rollbacks") {
                            rollbacks_ms.push(tripped.elapsed());
                            bump(&mut counts, "regress_rollbacks");
                            if checkpoint(&s) != hash_before {
                                violations.push(format!(
                                    "campaign {c}: rollback did not restore the incumbent"
                                ));
                            }
                            break;
                        }
                        assert!(
                            Instant::now() < deadline,
                            "campaign {c}: regressing swap never rolled back"
                        );
                    }
                }
            }
            _ => unreachable!(),
        }
        if (c + 1) % 20 == 0 {
            println!("  {}/{campaigns} campaigns done", c + 1);
        }
    }

    let final_stats = driver.stats();
    driver.client.shutdown().expect("shutdown");
    server.join().expect("drain bench server");
    let _ = std::fs::remove_dir_all(&dir);

    during.sort();
    rollbacks_ms.sort();
    let steady_p99 = percentile(&steady, 0.99);
    let during_p99 = percentile(&during, 0.99);
    let report = AdaptBenchReport {
        campaigns,
        workers,
        steady_p50_ms: percentile(&steady, 0.50),
        steady_p99_ms: steady_p99,
        during_p50_ms: percentile(&during, 0.50),
        during_p99_ms: during_p99,
        p99_ratio: if steady_p99 > 0.0 {
            during_p99 / steady_p99
        } else {
            0.0
        },
        requests_total: driver.total,
        dropped_requests: driver.dropped,
        rollback_p50_ms: percentile(&rollbacks_ms, 0.50),
        clean_swaps: counts["clean_swaps"],
        clean_rejects: counts["clean_rejects"],
        retrain_kills: counts["retrain_kills"],
        corrupt_rejects: counts["corrupt_rejects"],
        commit_kills: counts["commit_kills"],
        regress_rollbacks: counts["regress_rollbacks"],
        regress_rejects: counts["regress_rejects"],
        adapt_cycles: counter(&final_stats, "adapt_cycles"),
        adapt_swaps: counter(&final_stats, "adapt_swaps"),
        adapt_rollbacks: counter(&final_stats, "adapt_rollbacks"),
        adapt_restarts: counter(&final_stats, "adapt_restarts"),
        adapt_rejected: counter(&final_stats, "adapt_rejected"),
        worker_restarts: counter(&final_stats, "worker_restarts"),
        invariant_violations: violations.clone(),
    };

    let mut table = Table::new(&["phase", "p50 ms", "p99 ms"]);
    table.row(vec![
        "steady".into(),
        f2(report.steady_p50_ms),
        f2(report.steady_p99_ms),
    ]);
    table.row(vec![
        "during adaptation".into(),
        f2(report.during_p50_ms),
        f2(report.during_p99_ms),
    ]);
    table.print();
    println!(
        "\np99 during adaptation = {:.2}x steady (target < 2.0x)",
        report.p99_ratio
    );
    println!(
        "requests: {} total, {} dropped; swaps {} / rollbacks {} / restarts {} / rejected {}",
        report.requests_total,
        report.dropped_requests,
        report.adapt_swaps,
        report.adapt_rollbacks,
        report.adapt_restarts,
        report.adapt_rejected
    );
    if !report.invariant_violations.is_empty() {
        for v in &report.invariant_violations {
            println!("VIOLATION: {v}");
        }
    }

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json).expect("write report");
    println!("report written to {out}");

    assert_eq!(report.dropped_requests, 0, "requests were dropped");
    assert!(
        report.invariant_violations.is_empty(),
        "robustness invariants violated"
    );
}
