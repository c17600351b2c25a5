//! Sharded-serving benchmark: goodput of the `nrpm-cluster` router at
//! several shard counts, per-key routing affinity on repeated keys, and a
//! chaos campaign that kills a shard mid-burst behind a fault-injecting
//! proxy and demands zero client-visible failures after retries.
//!
//! Each distinct kernel routes by its measurement-set fingerprint, so a
//! repeated key should land on the same shard every time (and hit that
//! shard's warm result cache). Affinity is the fraction of requests a
//! key's modal shard answered.
//!
//! On top of the single-copy campaigns, the replication suite measures
//! the R=2 fan-out path: a kill-one-replica burst that must answer 100%
//! with zero divergent replies, a rolling checkpoint rollout under load
//! that must refuse nothing, a standby-router takeover timed against the
//! member lease, and an allocation-free `successors_into` micro-benchmark
//! against the allocating `successors` it replaces on the hot path.
//!
//! ```text
//! cargo run -p nrpm-bench --release --bin cluster_bench -- \
//!     [--requests N] [--clients C] [--keys K] [--shards 1,2,4,8] \
//!     [--chaos-requests N] [--replicated-requests N] \
//!     [--ring-iters N] [--out BENCH_cluster.json]
//! ```

use nrpm_bench::cli::Args;
use nrpm_bench::report::{f2, pct, percentile, Table};
use nrpm_cluster::{Cluster, ClusterOptions, HashRing, DEFAULT_VNODES};
use nrpm_core::preprocess::NUM_INPUTS;
use nrpm_extrap::{MeasurementSet, NUM_CLASSES};
use nrpm_nn::{Network, NetworkConfig};
use nrpm_serve::chaos::{ChaosOptions, ChaosProxy};
use nrpm_serve::client::{is_ok, Client, RetryPolicy, RetryingClient};
use nrpm_serve::server::ServeOptions;
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One shard-count scenario: a clean burst of repeated keys.
#[derive(Debug, Clone, Serialize)]
struct ShardScenario {
    shards: usize,
    requests: usize,
    distinct_keys: usize,
    wall_s: f64,
    requests_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// Fraction of requests answered by their key's modal shard.
    affinity: f64,
    failovers: u64,
    rejected: u64,
}

/// The kill-a-shard-mid-burst campaign through the chaos proxy.
#[derive(Debug, Clone, Serialize)]
struct ChaosCampaign {
    shards: usize,
    requests: usize,
    answered: usize,
    /// Requests still failing after the client exhausted its retries —
    /// the acceptance bar is zero.
    dropped: usize,
    killed_shard: u32,
    failovers: u64,
    faults_injected: u64,
}

/// The R=2 kill-one-replica burst: every request must still be answered,
/// and no reply may be quorum-flagged divergent.
#[derive(Debug, Clone, Serialize)]
struct ReplicationCampaign {
    shards: usize,
    replication: usize,
    requests: usize,
    answered: usize,
    dropped: usize,
    /// Replies the router flagged `divergent` — the acceptance bar is
    /// zero: a killed replica must never surface a mixed answer.
    divergent_replies: usize,
    killed_shard: u32,
    replica_fanouts: u64,
    replica_divergences: u64,
}

/// A rolling checkpoint rollout driven while clients hammer the router.
#[derive(Debug, Clone, Serialize)]
struct RolloutDrill {
    shards: usize,
    replication: usize,
    /// Requests answered while the walk ran.
    answered: usize,
    dropped: usize,
    /// Router-side rejections during the walk — the acceptance bar is
    /// zero: draining one shard at a time must never refuse a request.
    rejected: u64,
    rollout_wall_s: f64,
    updated_shards: usize,
}

/// Warm-standby takeover after the primary router is killed.
#[derive(Debug, Clone, Serialize)]
struct TakeoverDrill {
    lease_ms: u64,
    /// Wall time from `router_kill` to the standby answering `stats` at
    /// the advertised address. Must beat one lease period.
    takeover_ms: f64,
}

/// `HashRing::successors` (allocating) vs `successors_into` (reused
/// buffer) on the router's per-request lookup path.
#[derive(Debug, Clone, Serialize)]
struct RingMicroBench {
    shards: usize,
    vnodes: usize,
    iters: usize,
    alloc_ns_per_op: f64,
    into_ns_per_op: f64,
    speedup: f64,
}

#[derive(Debug, Clone, Serialize)]
struct ClusterBenchReport {
    requests_per_scenario: usize,
    client_threads: usize,
    distinct_keys: usize,
    affinity_floor: f64,
    scenarios: Vec<ShardScenario>,
    chaos: ChaosCampaign,
    replication: ReplicationCampaign,
    rollout: RolloutDrill,
    takeover: TakeoverDrill,
    ring: RingMicroBench,
}

/// A distinct linear kernel per key; repeating a key repeats its exact
/// fingerprint, which is what the ring routes on.
fn keyed_set(key: u64) -> MeasurementSet {
    let slope = 2.0 + key as f64 * 0.5;
    let mut set = MeasurementSet::new(1);
    for &x in &[4.0f64, 8.0, 16.0, 32.0, 64.0] {
        set.add_repetitions(&[x], &[slope * x, slope * x]);
    }
    set
}

fn bench_network() -> Network {
    Network::new(&NetworkConfig::new(&[NUM_INPUTS, 32, NUM_CLASSES]), 17)
}

fn launch(shards: usize) -> Cluster {
    Cluster::launch(
        bench_network(),
        ClusterOptions {
            shards,
            workers_per_shard: 2,
            probe_interval: Duration::from_millis(100),
            shard_opts: ServeOptions::default(),
            ..ClusterOptions::default()
        },
    )
    .expect("launch bench cluster")
}

fn router_stat(addr: SocketAddr, key: &str) -> u64 {
    let mut client = Client::connect(addr, Duration::from_secs(30)).expect("stats client");
    let stats = client.stats().expect("router stats");
    stats.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// Clean burst: `requests` single-model requests over `keys` repeated
/// kernels from `clients` threads; collects latencies and, per request,
/// which shard answered.
fn run_scenario(shards: usize, requests: usize, keys: usize, clients: usize) -> ShardScenario {
    let cluster = launch(shards);
    let addr = cluster.router_addr();

    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let share = requests / clients + usize::from(c < requests % clients);
            std::thread::spawn(move || {
                let mut client =
                    Client::connect(addr, Duration::from_secs(60)).expect("bench client");
                let mut latencies = Vec::with_capacity(share);
                let mut answers: Vec<(u64, u64)> = Vec::with_capacity(share);
                for r in 0..share {
                    let key = ((c + r * clients) % keys) as u64;
                    let sent = Instant::now();
                    let response = client
                        .model(keyed_set(key), None, None)
                        .expect("bench request");
                    assert!(is_ok(&response), "bench request failed: {response:?}");
                    latencies.push(sent.elapsed());
                    let shard = response
                        .get("shard")
                        .and_then(Value::as_u64)
                        .expect("router annotates the answering shard");
                    answers.push((key, shard));
                }
                (latencies, answers)
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = Vec::with_capacity(requests);
    let mut by_key: HashMap<u64, HashMap<u64, usize>> = HashMap::new();
    for handle in handles {
        let (lat, answers) = handle.join().expect("bench client thread");
        latencies.extend(lat);
        for (key, shard) in answers {
            *by_key.entry(key).or_default().entry(shard).or_default() += 1;
        }
    }
    let wall = started.elapsed().as_secs_f64();

    // Affinity: requests answered by each key's modal shard.
    let (modal, total) = by_key.values().fold((0usize, 0usize), |(m, t), shards| {
        let sum: usize = shards.values().sum();
        let best: usize = shards.values().copied().max().unwrap_or(0);
        (m + best, t + sum)
    });
    let affinity = if total == 0 {
        0.0
    } else {
        modal as f64 / total as f64
    };

    let failovers = router_stat(addr, "failovers");
    let rejected = router_stat(addr, "rejected");
    cluster.request_shutdown();
    cluster.join().expect("drain bench cluster");

    latencies.sort();
    ShardScenario {
        shards,
        requests,
        distinct_keys: keys,
        wall_s: wall,
        requests_per_s: requests as f64 / wall,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        affinity,
        failovers,
        rejected,
    }
}

/// Chaos campaign: retrying clients hammer the router through a
/// fault-injecting proxy (latency, partial writes, truncated frames,
/// resets — no garbage, which would corrupt requests into terminal parse
/// errors) while one shard is killed mid-burst. Every request must be
/// answered once the client's retries are spent.
fn run_chaos(requests: usize, keys: usize, clients: usize) -> ChaosCampaign {
    let shards = 3usize;
    let killed_shard = 0u32;
    let cluster = launch(shards);
    let proxy = ChaosProxy::start(
        cluster.router_addr(),
        ChaosOptions {
            garbage_prob: 0.0,
            ..ChaosOptions::default()
        },
    )
    .expect("start chaos proxy");
    let proxy_addr = proxy.addr();

    let done = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let share = requests / clients + usize::from(c < requests % clients);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                // Generous retries; the breaker stays out of the picture so
                // every failure is retried rather than short-circuited.
                let policy = RetryPolicy {
                    max_attempts: 10,
                    breaker_threshold: 1000,
                    seed: 0xc1a5 + c as u64,
                    ..RetryPolicy::default()
                };
                let mut client = RetryingClient::new(proxy_addr, Duration::from_secs(30), policy);
                let mut answered = 0usize;
                let mut dropped = 0usize;
                for r in 0..share {
                    let key = ((c + r * clients) % keys) as u64;
                    match client.model(keyed_set(key), None, Some(30_000)) {
                        Ok(response) if is_ok(&response) => answered += 1,
                        _ => dropped += 1,
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
                (answered, dropped)
            })
        })
        .collect();

    // Kill a shard once the burst is well underway.
    while done.load(Ordering::Relaxed) < requests / 3 {
        std::thread::sleep(Duration::from_millis(5));
    }
    cluster.kill_shard(killed_shard).expect("kill shard");

    let mut answered = 0usize;
    let mut dropped = 0usize;
    for handle in handles {
        let (a, d) = handle.join().expect("chaos client thread");
        answered += a;
        dropped += d;
    }

    let failovers = router_stat(cluster.router_addr(), "failovers");
    let faults = proxy.fault_counts().total();
    drop(proxy);
    cluster.request_shutdown();
    cluster.join().expect("drain chaos cluster");

    ChaosCampaign {
        shards,
        requests,
        answered,
        dropped,
        killed_shard,
        failovers,
        faults_injected: faults,
    }
}

/// A replicated (R=2) tier with fast supervisor cadence for the drills.
fn launch_replicated(extra: impl FnOnce(&mut ClusterOptions)) -> Cluster {
    let mut opts = ClusterOptions {
        shards: 3,
        replication: 2,
        workers_per_shard: 2,
        probe_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(500),
        readmit_probes: 2,
        debug_hooks: true,
        ..ClusterOptions::default()
    };
    extra(&mut opts);
    Cluster::launch(bench_network(), opts).expect("launch replicated bench cluster")
}

/// R=2 burst with one replica killed mid-flight: counts answers, drops,
/// and replies the quorum flagged divergent.
fn run_replication(requests: usize, keys: usize, clients: usize) -> ReplicationCampaign {
    let cluster = launch_replicated(|_| {});
    let addr = cluster.router_addr();
    let killed_shard = 1u32;

    let done = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let share = requests / clients + usize::from(c < requests % clients);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut client =
                    RetryingClient::new(addr, Duration::from_secs(30), RetryPolicy::default());
                let mut answered = 0usize;
                let mut dropped = 0usize;
                let mut divergent = 0usize;
                for r in 0..share {
                    let key = ((c + r * clients) % keys) as u64;
                    match client.model(keyed_set(key), None, Some(30_000)) {
                        Ok(response) if is_ok(&response) => {
                            answered += 1;
                            if response.get("divergent").and_then(Value::as_bool) == Some(true) {
                                divergent += 1;
                            }
                        }
                        _ => dropped += 1,
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
                (answered, dropped, divergent)
            })
        })
        .collect();

    while done.load(Ordering::Relaxed) < requests / 3 {
        std::thread::sleep(Duration::from_millis(5));
    }
    cluster.kill_shard(killed_shard).expect("kill replica");

    let (mut answered, mut dropped, mut divergent) = (0usize, 0usize, 0usize);
    for handle in handles {
        let (a, d, v) = handle.join().expect("replication client thread");
        answered += a;
        dropped += d;
        divergent += v;
    }
    let replica_fanouts = router_stat(addr, "replica_fanouts");
    let replica_divergences = router_stat(addr, "replica_divergences");
    cluster.request_shutdown();
    cluster.join().expect("drain replicated cluster");

    ReplicationCampaign {
        shards: 3,
        replication: 2,
        requests,
        answered,
        dropped,
        divergent_replies: divergent,
        killed_shard,
        replica_fanouts,
        replica_divergences,
    }
}

/// Rolling rollout while clients keep requesting: the walk must finish
/// with zero rejections and zero client-visible drops.
fn run_rollout_drill(keys: usize, clients: usize) -> RolloutDrill {
    let dir = std::env::temp_dir().join(format!("nrpm-bench-rollout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = launch_replicated(|opts| {
        opts.registry_dir = Some(dir.clone());
    });
    let addr = cluster.router_addr();

    let stop = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client =
                    RetryingClient::new(addr, Duration::from_secs(30), RetryPolicy::default());
                let mut answered = 0usize;
                let mut dropped = 0usize;
                let mut key = c;
                while stop.load(Ordering::Relaxed) == 0 {
                    match client.model(keyed_set((key % keys) as u64), None, Some(30_000)) {
                        Ok(response) if is_ok(&response) => answered += 1,
                        _ => dropped += 1,
                    }
                    key += 1;
                }
                (answered, dropped)
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    let report = cluster
        .rollout(Network::new(
            &NetworkConfig::new(&[NUM_INPUTS, 32, NUM_CLASSES]),
            18,
        ))
        .expect("rolling rollout");
    let rollout_wall_s = started.elapsed().as_secs_f64();
    stop.store(1, Ordering::Relaxed);

    let (mut answered, mut dropped) = (0usize, 0usize);
    for handle in handles {
        let (a, d) = handle.join().expect("rollout client thread");
        answered += a;
        dropped += d;
    }
    let rejected = router_stat(addr, "rejected");
    cluster.request_shutdown();
    cluster.join().expect("drain rollout cluster");
    let _ = std::fs::remove_dir_all(&dir);

    RolloutDrill {
        shards: 3,
        replication: 2,
        answered,
        dropped,
        rejected,
        rollout_wall_s,
        updated_shards: report.updated.len(),
    }
}

/// Kills the primary router (shards keep running) and times how long the
/// warm standby needs to own the advertised address and answer `stats`.
fn run_takeover() -> TakeoverDrill {
    let lease = Duration::from_secs(2);
    let cluster = launch_replicated(|opts| {
        opts.standby = true;
        opts.gossip_interval = Duration::from_millis(50);
        opts.takeover_after = 2;
        opts.member_lease = lease;
    });
    let addr = cluster.router_addr();
    // Let the standby build a good membership view first.
    std::thread::sleep(Duration::from_millis(300));

    let mut admin = Client::connect(addr, Duration::from_secs(10)).expect("admin client");
    admin
        .roundtrip_line(r#"{"cmd":"router_kill"}"#)
        .expect("router_kill");
    let crashed_at = Instant::now();
    let deadline = crashed_at + lease * 4;
    let takeover_ms = loop {
        if let Ok(mut probe) = Client::connect(addr, Duration::from_millis(200)) {
            if let Ok(stats) = probe.stats() {
                if stats.get("role").and_then(Value::as_str) == Some("standby") {
                    break crashed_at.elapsed().as_secs_f64() * 1e3;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "standby never took over the advertised address"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    cluster.request_shutdown();
    cluster.join().expect("drain takeover cluster");

    TakeoverDrill {
        lease_ms: lease.as_millis() as u64,
        takeover_ms,
    }
}

/// Times the allocating `successors` against the allocation-free
/// `successors_into` over the same key stream.
fn run_ring_bench(iters: usize) -> RingMicroBench {
    let shards = 8usize;
    let ring = HashRing::new(0..shards as u32, DEFAULT_VNODES);
    let keys: Vec<u64> = (0..1024u64)
        .map(|k| k.wrapping_mul(0x9e3779b97f4a7c15))
        .collect();

    let mut sink = 0u64;
    let started = Instant::now();
    for i in 0..iters {
        let order = ring.successors(keys[i % keys.len()]);
        sink = sink.wrapping_add(u64::from(order.first().copied().unwrap_or(0)));
    }
    let alloc_ns = started.elapsed().as_secs_f64() * 1e9 / iters as f64;

    let mut order = Vec::with_capacity(shards);
    let started = Instant::now();
    for i in 0..iters {
        ring.successors_into(keys[i % keys.len()], &mut order);
        sink = sink.wrapping_add(u64::from(order.first().copied().unwrap_or(0)));
    }
    let into_ns = started.elapsed().as_secs_f64() * 1e9 / iters as f64;
    assert!(sink != 1, "keep the loops from being optimized away");

    RingMicroBench {
        shards,
        vnodes: DEFAULT_VNODES,
        iters,
        alloc_ns_per_op: alloc_ns,
        into_ns_per_op: into_ns,
        speedup: alloc_ns / into_ns,
    }
}

fn main() {
    let args = Args::parse();
    let requests = args.get("requests", 160usize);
    let clients = args.get("clients", 4usize);
    let keys = args.get("keys", 16usize);
    let chaos_requests = args.get("chaos-requests", 120usize).max(100);
    let replicated_requests = args.get("replicated-requests", 120usize).max(60);
    let ring_iters = args.get("ring-iters", 200_000usize).max(1_000);
    let shard_counts: Vec<usize> = args
        .get_f64_list("shards", &[1.0, 2.0, 4.0, 8.0])
        .into_iter()
        .map(|s| s as usize)
        .collect();
    let out = args.get("out", "BENCH_cluster.json".to_string());
    let affinity_floor = 0.90;

    println!(
        "cluster goodput: {requests} requests/scenario over {keys} keys, \
         {clients} client threads\n"
    );
    let mut table = Table::new(&[
        "shards",
        "req/s",
        "p50 ms",
        "p99 ms",
        "affinity",
        "failovers",
        "rejected",
    ]);
    let mut scenarios = Vec::new();
    for &shards in &shard_counts {
        let result = run_scenario(shards, requests, keys, clients);
        table.row(vec![
            result.shards.to_string(),
            f2(result.requests_per_s),
            f2(result.p50_ms),
            f2(result.p99_ms),
            pct(result.affinity),
            result.failovers.to_string(),
            result.rejected.to_string(),
        ]);
        scenarios.push(result);
    }
    table.print();

    println!("\nchaos campaign: {chaos_requests} requests, kill one shard mid-burst...");
    let chaos = run_chaos(chaos_requests, keys, clients);
    println!(
        "answered {}/{} (dropped {}), {} failovers, {} wire faults injected",
        chaos.answered, chaos.requests, chaos.dropped, chaos.failovers, chaos.faults_injected
    );

    println!(
        "\nreplication campaign: {replicated_requests} requests at R=2, \
         kill one replica mid-burst..."
    );
    let replication = run_replication(replicated_requests, keys, clients);
    println!(
        "answered {}/{} (dropped {}, divergent {}), {} fan-outs, {} divergences resolved",
        replication.answered,
        replication.requests,
        replication.dropped,
        replication.divergent_replies,
        replication.replica_fanouts,
        replication.replica_divergences
    );

    println!("\nrollout drill: rolling checkpoint upgrade under load...");
    let rollout = run_rollout_drill(keys, clients);
    println!(
        "walked {} shards in {}s; {} answered, {} dropped, {} rejected",
        rollout.updated_shards,
        f2(rollout.rollout_wall_s),
        rollout.answered,
        rollout.dropped,
        rollout.rejected
    );

    println!("\ntakeover drill: kill the primary router, time the standby...");
    let takeover = run_takeover();
    println!(
        "standby owned the address in {} ms (lease {} ms)",
        f2(takeover.takeover_ms),
        takeover.lease_ms
    );

    println!("\nring micro-bench: successors vs successors_into ({ring_iters} iters)...");
    let ring = run_ring_bench(ring_iters);
    println!(
        "alloc {} ns/op, into {} ns/op ({}x)",
        f2(ring.alloc_ns_per_op),
        f2(ring.into_ns_per_op),
        f2(ring.speedup)
    );

    let report = ClusterBenchReport {
        requests_per_scenario: requests,
        client_threads: clients,
        distinct_keys: keys,
        affinity_floor,
        scenarios,
        chaos,
        replication,
        rollout,
        takeover,
        ring,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json).expect("write report");
    println!("\nreport written to {out}");

    // Acceptance gates — fail loudly after the report is on disk.
    for scenario in &report.scenarios {
        assert!(
            scenario.affinity >= affinity_floor,
            "shards={}: affinity {} below the {} floor",
            scenario.shards,
            pct(scenario.affinity),
            pct(affinity_floor)
        );
        assert_eq!(
            scenario.rejected, 0,
            "shards={}: clean burst must reject nothing",
            scenario.shards
        );
    }
    assert_eq!(
        report.chaos.dropped, 0,
        "chaos campaign dropped requests after retries"
    );
    assert_eq!(
        report.replication.dropped, 0,
        "replication campaign dropped requests after a replica kill"
    );
    assert_eq!(
        report.replication.divergent_replies, 0,
        "replication campaign surfaced divergent replies"
    );
    assert_eq!(
        report.rollout.dropped, 0,
        "rollout drill dropped requests mid-walk"
    );
    assert_eq!(
        report.rollout.rejected, 0,
        "rollout drill rejected requests mid-walk"
    );
    assert!(
        report.takeover.takeover_ms <= report.takeover.lease_ms as f64,
        "standby takeover ({} ms) exceeded one lease period ({} ms)",
        f2(report.takeover.takeover_ms),
        report.takeover.lease_ms
    );
}
