//! The two serve workloads, open loop at fixed rates.
//!
//! - `serve-fresh`: an in-process `Server` (2 workers, f64 path, persistent
//!   result cache) receives single `model` and 8-kernel `batch` requests
//!   whose measurement sets are all new, so every `model` answer is
//!   modeled, inserted and journaled.
//! - `cluster-repeat`: a 2-shard `Cluster` (1 worker each, replication 1)
//!   receives `model` requests for a fixed, pre-warmed pool of sets drawn
//!   with Zipf popularity, so nearly every answer is a cache hit on the
//!   owning shard behind the router.
//!
//! Each request is timed from the moment it was due. After the timed
//! phases every answer is checked against the in-process reference
//! (`AdaptiveModeler::model` / `model_batch` with adaptation off, on the
//! same network). The traced run computes the reference through the
//! composed pipeline, one span per layer call, and replays each request's
//! parse, fingerprint, cache and serialisation steps in process.

use crate::pipeline::{self, Counts};
use crate::stats::{backlog_grows, max_rate, Dist, Rung};
use crate::trace::{SpanId, Tracer};
use crate::{measure_setup, modeling_options, LayerTotals, Report, RunConfig, RECONCILE_SHARE};
use nrpm_cluster::{Cluster, ClusterOptions, HashRing, DEFAULT_VNODES};
use nrpm_core::adaptive::{AdaptiveModeler, AdaptiveOptions, AdaptiveOutcome};
use nrpm_core::fingerprint::{set_fingerprint, ModelKey};
use nrpm_extrap::{MeasurementSet, ModelError};
use nrpm_nn::Network;
use nrpm_registry::ResultCache;
use nrpm_serve::client::{is_ok, Client};
use nrpm_serve::protocol::{batch_entry, ok_line, outcome_value, Request};
use nrpm_serve::server::{ServeOptions, Server};
use nrpm_serve::store::ModelStore;
use nrpm_synth::{generate_eval_task, EvalTaskSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The reference answers for one request (one per kernel of a batch).
type Answers = Vec<Result<AdaptiveOutcome, ModelError>>;

/// The paper's seven noise levels (Sec. V).
const NOISE_LEVELS: [f64; 7] = [0.02, 0.05, 0.10, 0.20, 0.50, 0.75, 1.00];

/// Sequential fresh-connection requests of the one-shot phase.
const ONESHOTS: usize = 30;

/// Client connections (and generator threads) of the open loop.
const CONNECTIONS: usize = 2;

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Capacity and shard count of the server's result cache (the
/// `ServeOptions` default and the server's fixed shard count), used by the
/// in-process cache replay.
const CACHE_CAPACITY: usize = 1024;
const CACHE_SHARDS: usize = 8;

/// Fixed traffic parameters of one serve workload.
struct Spec {
    name: &'static str,
    /// Rising fixed rates (requests/s); the first is the nominal rate.
    ladder: &'static [f64],
    /// Share of the run each rung lasts.
    shares: &'static [f64],
    /// Limit on each rung's p90 latency.
    limit_ms: f64,
    /// Consecutive parts of the nominal rung, each sent over fresh client
    /// connections.
    nominal_parts: usize,
}

/// The ladder's rungs are far apart and the limit generous on purpose: on
/// a shared two-core machine a rung close to capacity, or a tight limit,
/// passes or misses by chance, so the middle rung sits well inside
/// capacity and the top one, kept short, far enough beyond it that its
/// backlog always grows.
const SERVE_FRESH: Spec = Spec {
    name: "serve-fresh",
    ladder: &[40.0, 60.0, 2000.0],
    shares: &[0.5, 0.1, 0.02],
    limit_ms: 500.0,
    nominal_parts: 1,
};

/// Cluster latency moves between two levels from one set of connections
/// (and so of router and shard threads) to the next, so the nominal rung
/// is spread over ten sets.
const CLUSTER_REPEAT: Spec = Spec {
    name: "cluster-repeat",
    ladder: &[1000.0, 2500.0, 10000.0],
    shares: &[0.5, 0.1, 0.06],
    limit_ms: 500.0,
    nominal_parts: 10,
};

/// Every `BATCH_EVERY`-th `serve-fresh` request is an 8-kernel batch (the
/// batch client sends at a steady pace, so batches do not queue behind
/// each other). Service time is multimodal: a 1-parameter kernel takes
/// well under a millisecond; a 2-parameter one about 4 ms when its noise
/// is above the switch threshold (about a third of them) and 6 to 12 ms
/// below it, where the regression search runs; a batch tens of
/// milliseconds. Single requests are 2-parameter kernels, dealt from a
/// [`Deck`] with one card per noise level; batch kernels come from a deck
/// that adds `BATCH_ONE_PARAMETER_CARDS` 1-parameter cards. Every run thus
/// has the same mix, and the median falls in the dense middle of the
/// regression-search mode (cumulative 28 % to 86 %), p90 inside the batch
/// mode (86 % to 100 %), away from the edges where a percentile jumps
/// between modes.
const BATCH_EVERY: usize = 7;
const BATCH_KERNELS: usize = 8;
const BATCH_ONE_PARAMETER_CARDS: usize = 6;

/// Kernel classes dealt without replacement, reshuffled when the deck runs
/// out: one 2-parameter card per noise level plus `one_parameter`
/// 1-parameter cards. Drawing each kernel's class at random instead lets
/// the shares drift by a few percent from seed to seed, and a percentile
/// near a mode's edge with them.
struct Deck {
    one_parameter: usize,
    cards: Vec<(usize, Option<f64>)>,
}

impl Deck {
    fn new(one_parameter: usize) -> Deck {
        Deck {
            one_parameter,
            cards: Vec::new(),
        }
    }

    /// The next kernel: its parameter count and noise level.
    fn deal(&mut self, rng: &mut StdRng) -> (usize, f64) {
        if self.cards.is_empty() {
            self.cards
                .extend((0..self.one_parameter).map(|_| (1, None)));
            self.cards
                .extend(NOISE_LEVELS.iter().map(|&level| (2, Some(level))));
            self.cards.shuffle(rng);
        }
        let (params, level) = self.cards.pop().expect("a refilled deck");
        // One-parameter kernels cost about the same at every level.
        let level = level.unwrap_or_else(|| NOISE_LEVELS[rng.gen_range(0..NOISE_LEVELS.len())]);
        (params, level)
    }
}

/// Measurement sets in the `cluster-repeat` pool, and its Zipf exponent.
const POOL: usize = 128;
const ZIPF_S: f64 = 1.0;

/// One request: indices into the workload's measurement sets, and its
/// wire line (carrying the request id).
struct Req {
    id: usize,
    sets: Vec<usize>,
    batch: bool,
    /// The client connection that sends it.
    lane: usize,
    line: String,
}

fn request_line(id: usize, sets: &[&MeasurementSet], batch: bool) -> String {
    let id = Some(id.to_string());
    if batch {
        Request::Batch {
            sets: sets.iter().map(|s| (*s).clone()).collect(),
            timeout_ms: None,
            id,
            attempt: None,
        }
    } else {
        Request::Model {
            set: sets[0].clone(),
            at: None,
            timeout_ms: None,
            id,
            attempt: None,
            tenant: None,
        }
    }
    .to_line()
}

/// A fresh measurement set with `params` parameters at one of the paper's
/// noise levels: four of the seven levels fall below the switching
/// threshold, where the regression search runs too.
fn fresh_set(rng: &mut StdRng, params: usize, level: f64) -> MeasurementSet {
    generate_eval_task(&EvalTaskSpec::paper(params, level), rng).set
}

/// The system under test.
enum Target {
    Server(Server),
    Cluster(Cluster),
}

impl Target {
    fn addr(&self) -> SocketAddr {
        match self {
            Target::Server(s) => s.addr(),
            Target::Cluster(c) => c.router_addr(),
        }
    }

    fn stop(self) {
        match self {
            Target::Server(s) => {
                s.request_shutdown();
                s.join().expect("server drains");
            }
            Target::Cluster(c) => {
                c.request_shutdown();
                c.join().expect("cluster drains");
            }
        }
    }
}

/// A started target with warm connections.
struct Live {
    target: Target,
    clients: Vec<Client>,
    network: Network,
}

fn connect_warm(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr, IO_TIMEOUT).expect("connect to the target");
    let health = client.health().expect("health round trip");
    assert!(is_ok(&health), "target is unhealthy: {health:?}");
    client
}

fn pretrained_network() -> Network {
    AdaptiveModeler::pretrained(modeling_options())
        .dnn()
        .network()
        .clone()
}

/// The serving reference: the server's modeling options with adaptation
/// off, on the same network.
fn reference_modeler(network: &Network) -> AdaptiveModeler {
    let opts = AdaptiveOptions {
        use_domain_adaptation: false,
        ..AdaptiveOptions::default()
    };
    AdaptiveModeler::from_network(opts, network.clone())
}

/// One answered (or failed) request of a timed phase.
struct Done {
    idx: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    reply: Result<Value, String>,
}

impl Done {
    fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64() * 1e3
    }

    fn late_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }

    fn ok(&self) -> bool {
        self.reply.as_ref().is_ok_and(is_ok)
    }
}

/// Sleeps until shortly before `due`, then yields the processor until it
/// passes: a thread woken from sleep on a virtual machine can start
/// milliseconds late, and that delay would be charged to the target.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(2);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Sends `reqs` at `rate` requests/s, request `i` due at `i / rate`, each
/// on the connection its `lane` names. A connection carries one request at
/// a time, so a slow reply delays the next request on it; that delay
/// counts because latency is taken from the due time.
fn open_loop(clients: &mut [Client], addr: SocketAddr, reqs: &[&Req], rate: f64) -> Vec<Done> {
    let start = Instant::now() + Duration::from_millis(5);
    let k = clients.len();
    let mut done: Vec<Done> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for idx in (0..reqs.len()).filter(|&i| reqs[i].lane % k == c) {
                        let due = start + Duration::from_secs_f64(idx as f64 / rate);
                        wait_until(due);
                        let sent = Instant::now();
                        let reply = client
                            .roundtrip_line(&reqs[idx].line)
                            .map_err(|e| e.to_string());
                        if reply.is_err() {
                            // A broken connection is replaced; the request
                            // stays failed.
                            if let Ok(fresh) = Client::connect(addr, IO_TIMEOUT) {
                                *client = fresh;
                            }
                        }
                        out.push(Done {
                            idx,
                            due,
                            sent,
                            done: Instant::now(),
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    });
    done.sort_by_key(|d| d.idx);
    done
}

/// A timed phase's requests with their results.
struct Phase<'a> {
    rate: f64,
    reqs: Vec<&'a Req>,
    done: Vec<Done>,
}

impl Phase<'_> {
    /// The rung's result. A backlog on any one connection counts: a lane
    /// that falls behind shows only in its own requests. A target that
    /// keeps up stays late by about one service time however long the
    /// rung; one that does not falls behind in proportion to the rung's
    /// length, so the rise must exceed a tenth of it.
    fn rung(&self) -> Rung {
        let latencies: Vec<f64> = self.done.iter().map(Done::latency_ms).collect();
        let slack_ms = 0.1 * 1e3 * self.reqs.len() as f64 / self.rate;
        let backlog = (0..CONNECTIONS).any(|lane| {
            let own: Vec<f64> = self
                .done
                .iter()
                .filter(|d| self.reqs[d.idx].lane % CONNECTIONS == lane)
                .map(Done::latency_ms)
                .collect();
            backlog_grows(&own, slack_ms)
        });
        Rung {
            rate: self.rate,
            latency: Dist::of(&latencies),
            failed: self.done.iter().filter(|d| !d.ok()).count(),
            backlog,
        }
    }
}

/// Round trips of `lines` one after another, each after a pause of `gap`
/// (the pause lets the target go idle as it does between open-loop
/// requests, so wake-up costs are part of the measurement).
fn sequential_ms(client: &mut Client, lines: &[&str], gap: Duration) -> Vec<f64> {
    lines
        .iter()
        .map(|line| {
            std::thread::sleep(gap);
            let started = Instant::now();
            let reply = client.roundtrip_line(line).expect("warm round trip");
            assert!(is_ok(&reply), "warm request failed: {reply:?}");
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Connect, send one request, read the reply, close: `None` on failure.
fn fresh_connection_ms(addr: SocketAddr, line: &str) -> Option<f64> {
    let started = Instant::now();
    Client::connect(addr, IO_TIMEOUT)
        .and_then(|mut c| c.roundtrip_line(line))
        .is_ok_and(|r| is_ok(&r))
        .then(|| started.elapsed().as_secs_f64() * 1e3)
}

fn health_rtt_ms(client: &mut Client, n: usize, gap: Duration) -> Dist {
    let line = Request::Health.to_line();
    Dist::of(&sequential_ms(client, &vec![line.as_str(); n], gap))
}

fn stat(stats: &Value, key: &str) -> f64 {
    stats.get(key).and_then(Value::as_u64).unwrap_or(0) as f64
}

fn values_equal(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) if !matches!(a, Value::Str(_)) => x.to_bits() == y.to_bits(),
        _ => match (a, b) {
            (Value::Map(x), Value::Map(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .zip(y)
                        .all(|((ka, va), (kb, vb))| ka == kb && values_equal(va, vb))
            }
            (Value::Seq(x), Value::Seq(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(va, vb)| values_equal(va, vb))
            }
            _ => a == b,
        },
    }
}

/// `true` when a reply carries exactly the reference answer for `req`.
fn reply_matches(
    reply: &Value,
    req: &Req,
    expected: &[Result<AdaptiveOutcome, ModelError>],
) -> bool {
    if reply.get("id").and_then(Value::as_str) != Some(req.id.to_string().as_str()) {
        return false;
    }
    if req.batch {
        let Some(results) = reply.get("results").and_then(Value::as_seq) else {
            return false;
        };
        results.len() == expected.len()
            && results
                .iter()
                .zip(expected)
                .all(|(got, want)| values_equal(got, &batch_entry(want)))
    } else {
        match (reply.get("outcome"), &expected[0]) {
            (Some(got), Ok(want)) => values_equal(got, &outcome_value(want, None)),
            _ => false,
        }
    }
}

/// Counts every timed request: failed when it got no ok reply, failed and
/// wrong when the reply differs from `expected`.
fn check_answers(phases: &[Phase], expected: impl Fn(&Req) -> Answers, report: &mut Report) {
    for phase in phases {
        for d in &phase.done {
            let req = phase.reqs[d.idx];
            report.attempted += 1;
            match &d.reply {
                Ok(reply) if is_ok(reply) => {
                    if !reply_matches(reply, req, &expected(req)) {
                        report.failed += 1;
                        report.wrong += 1;
                    }
                }
                _ => report.failed += 1,
            }
        }
    }
}

/// Reference answers for `reqs`, computed with the real modeler calls on
/// up to two threads. Returns per request the outcomes and the wall time.
fn reference_answers(
    network: &Network,
    sets: &[MeasurementSet],
    reqs: &[&Req],
) -> Vec<(Answers, f64)> {
    let chunk = reqs.len().div_ceil(CONNECTIONS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = reqs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut modeler = reference_modeler(network);
                    part.iter()
                        .map(|req| {
                            let started = Instant::now();
                            let answers = if req.batch {
                                let batch: Vec<MeasurementSet> =
                                    req.sets.iter().map(|&i| sets[i].clone()).collect();
                                modeler.model_batch(&batch).outcomes
                            } else {
                                vec![modeler.model(&sets[req.sets[0]])]
                            };
                            (answers, started.elapsed().as_secs_f64() * 1e3)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

/// In-process replay of what the server does for one request, one span
/// per layer call: parse, fingerprint, cache lookup, modeling on a miss
/// (composed pipeline), cache insert, serialisation.
struct Replay<'a> {
    opts: AdaptiveOptions,
    modeler: AdaptiveModeler,
    cache: &'a ResultCache<AdaptiveOutcome>,
    checkpoint: u64,
    counts: Counts,
    compactions: usize,
}

impl Replay<'_> {
    fn model_sets(
        &mut self,
        tr: &mut Tracer,
        root: Option<SpanId>,
        req: u64,
        sets: &[&MeasurementSet],
    ) -> Answers {
        let prepared: Vec<_> = sets
            .iter()
            .map(|s| pipeline::prepare(&self.opts, s, tr, root, req))
            .collect();
        let ok: Vec<&MeasurementSet> = prepared
            .iter()
            .filter_map(|p| p.as_ref().ok().map(|p| p.set()))
            .collect();
        let mut dnn = pipeline::dnn_model(self.modeler.dnn(), &ok, tr, root, req, &mut self.counts)
            .into_iter();
        prepared
            .into_iter()
            .map(|p| {
                let p = p?;
                let dnn_result = dnn.next().expect("one DNN result per prepared set");
                pipeline::finish(&self.opts, p, dnn_result, tr, root, req, &mut self.counts)
            })
            .collect()
    }

    fn serve(&mut self, tr: &mut Tracer, req: u64, line: &str) -> Answers {
        let root = tr.begin("request", None, req);
        let request = tr.span("serve.parse", root, req, || Request::parse(line));
        let answers = match request {
            Ok(Request::Model { set, id, .. }) => {
                let key = tr.span("core.fingerprint", root, req, || {
                    ModelKey::new(&set, self.checkpoint, false).combined()
                });
                let cached = tr.span("registry.cache_get", root, req, || self.cache.get(key));
                let outcome = match cached {
                    Some(outcome) => Ok(outcome),
                    None => {
                        let outcome = self.model_sets(tr, root, req, &[&set]).remove(0);
                        if let Ok(o) = &outcome {
                            let before = self.cache.stats().journal_records;
                            tr.span("registry.cache_insert", root, req, || {
                                self.cache.insert(key, o.clone())
                            })
                            .expect("replay cache insert");
                            if self.cache.stats().journal_records < before {
                                self.compactions += 1;
                            }
                        }
                        outcome
                    }
                };
                if let Ok(o) = &outcome {
                    tr.span("serve.serialize", root, req, || {
                        ok_line(
                            id.as_deref(),
                            vec![("outcome".into(), outcome_value(o, None))],
                        )
                    });
                }
                vec![outcome]
            }
            Ok(Request::Batch { sets, id, .. }) => {
                let refs: Vec<&MeasurementSet> = sets.iter().collect();
                let outcomes = self.model_sets(tr, root, req, &refs);
                tr.span("serve.serialize", root, req, || {
                    let entries = outcomes.iter().map(batch_entry).collect();
                    ok_line(id.as_deref(), vec![("results".into(), Value::Seq(entries))])
                });
                outcomes
            }
            _ => panic!("the benchmark only replays model and batch requests"),
        };
        tr.end(root);
        answers
    }
}

/// Counters shared by both serve workloads.
struct WireStats {
    shed: f64,
    queue_depth_hwm: f64,
    batched_rows: f64,
    worker_restarts: f64,
    cache_hits: f64,
    cache_misses: f64,
    evictions: f64,
}

impl WireStats {
    fn add(&mut self, stats: &Value) {
        self.shed += stat(stats, "shed");
        self.queue_depth_hwm = self.queue_depth_hwm.max(stat(stats, "queue_depth_hwm"));
        self.batched_rows += stat(stats, "batched_rows");
        self.worker_restarts += stat(stats, "worker_restarts");
        self.cache_hits += stat(stats, "cache_hits");
        self.cache_misses += stat(stats, "cache_misses");
        self.evictions += stats.get("cache").map_or(0.0, |c| stat(c, "evictions"));
    }

    fn hit_ratio(&self) -> f64 {
        self.cache_hits / (self.cache_hits + self.cache_misses).max(1.0)
    }
}

/// Per-layer metrics of the `cluster` layer, which the traced
/// `serve-fresh` run takes from a `cluster-repeat` run.
const CLUSTER_LAYER: [&str; 3] = ["cluster.route_ms", "cluster.affinity", "cluster.failovers"];

/// `serve-fresh`. Its traced run spends half the run on `serve-fresh` and
/// half on the `cluster-repeat` machinery, whose `cluster.*` metrics it
/// reports: `cluster-repeat` is not a gated workload (on a shared virtual
/// machine its sub-millisecond tail follows how often the host deschedules
/// the processor), but the router is still measured by the one command.
pub fn run_serve_fresh(cfg: &RunConfig) -> Report {
    if !cfg.trace {
        return serve_fresh(cfg);
    }
    let half = |workload: &str| RunConfig {
        seed: cfg.seed,
        seconds: cfg.seconds / 2.0,
        trace: true,
        out_dir: cfg.out_dir.clone(),
        workload: workload.to_string(),
    };
    let mut report = serve_fresh(&half(&cfg.workload));
    let cluster = run_cluster_repeat(&half("cluster-repeat"));
    for name in CLUSTER_LAYER {
        report.set(name, cluster.metrics.get(name).copied().unwrap_or(0.0));
    }
    report.attempted += cluster.attempted;
    report.failed += cluster.failed;
    report.wrong += cluster.wrong;
    report
}

fn serve_fresh(cfg: &RunConfig) -> Report {
    let spec = &SERVE_FRESH;
    let cache_dir = cfg.out_dir.join("serve-cache");
    let (setup_s, live) = measure_setup(
        || {
            let _ = std::fs::remove_dir_all(&cache_dir);
            let network = pretrained_network();
            let store = ModelStore::from_network(network.clone(), AdaptiveOptions::default())
                .expect("pretrained network fits the store");
            let server = Server::start(
                "127.0.0.1:0",
                store,
                ServeOptions {
                    workers: 2,
                    cache_dir: Some(cache_dir.clone()),
                    ..Default::default()
                },
            )
            .expect("start the server");
            let clients = (0..CONNECTIONS)
                .map(|_| connect_warm(server.addr()))
                .collect();
            Live {
                target: Target::Server(server),
                clients,
                network,
            }
        },
        |live| live.target.stop(),
    );

    // Inputs: enough unique requests for every rung of the ladder.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut sets: Vec<MeasurementSet> = Vec::new();
    let mut reqs: Vec<Req> = Vec::new();
    // Singles and batch kernels each keep their own mix.
    let mut decks = [Deck::new(0), Deck::new(BATCH_ONE_PARAMETER_CARDS)];
    let total: usize = rung_sizes(spec, cfg.seconds).iter().sum();
    for idx in 0..total {
        let batch = idx % BATCH_EVERY == BATCH_EVERY / 2;
        let count = if batch { BATCH_KERNELS } else { 1 };
        let first = sets.len();
        for _ in 0..count {
            let (params, level) = decks[usize::from(batch)].deal(&mut rng);
            sets.push(fresh_set(&mut rng, params, level));
        }
        let refs: Vec<&MeasurementSet> = sets[first..].iter().collect();
        reqs.push(Req {
            id: idx,
            sets: (first..sets.len()).collect(),
            batch,
            // Batches and single requests come from two different
            // clients, so a batch never holds up a single request.
            lane: usize::from(batch),
            line: request_line(idx, &refs, batch),
        });
    }
    let owner = |_: &Req| None;
    let report = run_serve(cfg, spec, setup_s, live, &sets, &reqs, owner);
    let _ = std::fs::remove_dir_all(&cache_dir);
    report
}

pub fn run_cluster_repeat(cfg: &RunConfig) -> Report {
    let spec = &CLUSTER_REPEAT;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Two parameters each, so every pooled request costs the same to parse
    // whichever keys the seed makes popular.
    let sets: Vec<MeasurementSet> = (0..POOL)
        .map(|_| {
            let level = NOISE_LEVELS[rng.gen_range(0..NOISE_LEVELS.len())];
            fresh_set(&mut rng, 2, level)
        })
        .collect();
    let pool_lines: Vec<String> = sets
        .iter()
        .enumerate()
        .map(|(i, s)| request_line(i, &[s], false))
        .collect();

    let (setup_s, live) = measure_setup(
        || {
            let network = pretrained_network();
            let cluster = Cluster::launch(
                network.clone(),
                ClusterOptions {
                    shards: 2,
                    workers_per_shard: 1,
                    replication: 1,
                    ..Default::default()
                },
            )
            .expect("launch the cluster");
            let mut clients: Vec<Client> = (0..CONNECTIONS)
                .map(|_| connect_warm(cluster.router_addr()))
                .collect();
            // Warm the pool: every set is modeled once on its owning shard.
            for line in &pool_lines {
                let reply = clients[0].roundtrip_line(line).expect("warm the pool");
                assert!(is_ok(&reply), "pool warm-up failed: {reply:?}");
            }
            Live {
                target: Target::Cluster(cluster),
                clients,
                network,
            }
        },
        |live| live.target.stop(),
    );

    // Zipf popularity over the pool.
    let weights: Vec<f64> = (0..POOL)
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let total_weight: f64 = weights.iter().sum();
    let pick = |rng: &mut StdRng| {
        let mut u = rng.gen_range(0.0..total_weight);
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                return i;
            }
            u -= w;
        }
        POOL - 1
    };
    let total: usize = rung_sizes(spec, cfg.seconds).iter().sum();
    let reqs: Vec<Req> = (0..total)
        .map(|idx| {
            let set = pick(&mut rng);
            Req {
                id: idx,
                sets: vec![set],
                batch: false,
                lane: idx % CONNECTIONS,
                line: request_line(idx, &[&sets[set]], false),
            }
        })
        .collect();
    let ring = HashRing::new(0..2u32, DEFAULT_VNODES);
    let owner = |req: &Req| ring.route(set_fingerprint(&sets[req.sets[0]]));
    run_serve(cfg, spec, setup_s, live, &sets, &reqs, owner)
}

/// Requests per rung: each lasts its share of the run.
fn rung_sizes(spec: &Spec, seconds: f64) -> Vec<usize> {
    spec.ladder
        .iter()
        .zip(spec.shares)
        .map(|(rate, share)| (rate * share * seconds).round().max(1.0) as usize)
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn run_serve(
    cfg: &RunConfig,
    spec: &Spec,
    setup_s: f64,
    mut live: Live,
    sets: &[MeasurementSet],
    reqs: &[Req],
    owner: impl Fn(&Req) -> Option<u32>,
) -> Report {
    let addr = live.target.addr();
    println!(
        "{}: ladder {:?} req/s, nominal {} req/s, tail limit {} ms, {} connections, setup median {setup_s:.4} s",
        spec.name, spec.ladder, spec.ladder[0], spec.limit_ms, CONNECTIONS
    );
    let mut report = Report::default();
    report.set("setup_s", setup_s);

    // Timed phases: climb the ladder until a rung misses.
    let mut phases: Vec<Phase> = Vec::new();
    let mut rungs: Vec<Rung> = Vec::new();
    let mut next = 0;
    for (rate, size) in spec.ladder.iter().zip(rung_sizes(spec, cfg.seconds)) {
        let phase_reqs: Vec<&Req> = reqs[next..next + size].iter().collect();
        next += size;
        let parts = if phases.is_empty() {
            spec.nominal_parts
        } else {
            1
        };
        let mut done = Vec::with_capacity(size);
        for (p, part) in phase_reqs.chunks(size.div_ceil(parts)).enumerate() {
            if p > 0 {
                live.clients = (0..CONNECTIONS).map(|_| connect_warm(addr)).collect();
            }
            let offset = done.len();
            done.extend(
                open_loop(&mut live.clients, addr, part, *rate)
                    .into_iter()
                    .map(|d| Done {
                        idx: d.idx + offset,
                        ..d
                    }),
            );
        }
        let phase = Phase {
            rate: *rate,
            reqs: phase_reqs,
            done,
        };
        let rung = phase.rung();
        println!(
            "  rung {rate} req/s: {} failed {} backlog {} -> {}",
            rung.latency.describe("ms"),
            rung.failed,
            rung.backlog,
            if rung.passes(spec.limit_ms) {
                "meets"
            } else {
                "misses"
            }
        );
        let passed = rung.passes(spec.limit_ms);
        phases.push(phase);
        rungs.push(rung);
        if !passed {
            break;
        }
    }
    let nominal = &rungs[0];
    let late: Vec<f64> = phases[0].done.iter().map(Done::late_ms).collect();
    let late = Dist::of(&late);
    println!(
        "  generator lateness at the nominal rate: {}",
        late.describe("ms")
    );

    // Wire-side connections straight to the shards (cluster only).
    let is_cluster = matches!(live.target, Target::Cluster(_));
    let shard_addrs: Vec<SocketAddr> = match &live.target {
        Target::Cluster(c) => (0..2u32)
            .map(|id| c.shard_addr(id).expect("local shard address"))
            .collect(),
        Target::Server(_) => Vec::new(),
    };
    let mut shard_clients: Vec<Client> = shard_addrs.iter().map(|a| connect_warm(*a)).collect();

    // One-shot phase: answered single requests re-sent on fresh
    // connections (connect + accept + one request), then on a warm one.
    // Against the cluster the gated one-shot goes straight to the owning
    // shard: through the router a fresh connection waits on two accept
    // loops that tick independently (router, then shard), their relative
    // phase is fixed per launch, and the median moves between 50 and
    // 100 ms from run to run. The router one-shot is printed beside it.
    // All one-shots go to one target, so each finds its accept loop in the
    // same phase (just asleep after the previous accept).
    let first_owner = owner(phases[0].reqs[0]);
    let oneshot_reqs: Vec<&Req> = phases[0]
        .done
        .iter()
        .map(|d| phases[0].reqs[d.idx])
        .filter(|req| !req.batch && owner(req) == first_owner)
        .take(ONESHOTS)
        .collect();
    let shard_of = |req: &Req| owner(req).map(|s| s as usize);
    let mut oneshot_ms = Vec::new();
    let mut warm_ms = Vec::new();
    for req in &oneshot_reqs {
        let (target, warm_client) = match shard_of(req) {
            Some(shard) => (shard_addrs[shard], &mut shard_clients[shard]),
            None => (addr, &mut live.clients[0]),
        };
        report.attempted += 2;
        match fresh_connection_ms(target, &req.line) {
            Some(ms) => oneshot_ms.push(ms),
            None => report.failed += 1,
        }
        warm_ms.extend(sequential_ms(
            warm_client,
            &[req.line.as_str()],
            Duration::ZERO,
        ));
    }
    let oneshot = Dist::of(&oneshot_ms);
    let warm = Dist::of(&warm_ms);
    println!("  oneshot_ms: {}", oneshot.describe("ms"));
    println!(
        "  same requests on a warm connection: {}",
        warm.describe("ms")
    );
    if is_cluster {
        let mut routed_ms = Vec::new();
        for req in oneshot_reqs.iter().take(10) {
            report.attempted += 1;
            match fresh_connection_ms(addr, &req.line) {
                Some(ms) => routed_ms.push(ms),
                None => report.failed += 1,
            }
        }
        println!(
            "  one-shot through the router: {}",
            Dist::of(&routed_ms).describe("ms")
        );
    }

    // Paced like one connection of the nominal phase (at most 5 ms apart).
    let pace = Duration::from_secs_f64((CONNECTIONS as f64 / spec.ladder[0]).min(0.005));
    let rtt = match shard_clients.first_mut() {
        Some(shard) => health_rtt_ms(shard, 200, pace),
        None => health_rtt_ms(&mut live.clients[0], 200, pace),
    };
    let mut route_ms = 0.0;
    if is_cluster && cfg.trace {
        // Router vs. direct to the owning shard, same warm requests.
        let sample: Vec<&Req> = reqs.iter().take(300).collect();
        let via_router: Vec<&str> = sample.iter().map(|r| r.line.as_str()).collect();
        let routed = Dist::of(&sequential_ms(&mut live.clients[0], &via_router, pace));
        let mut direct_ms = Vec::new();
        for req in &sample {
            let shard = owner(req).expect("the ring has two shards") as usize;
            direct_ms.extend(sequential_ms(
                &mut shard_clients[shard],
                &[req.line.as_str()],
                pace,
            ));
        }
        let direct = Dist::of(&direct_ms);
        route_ms = routed.p50 - direct.p50;
        report.attempted += 2 * sample.len() as u64;
        println!(
            "  router {} vs direct {}",
            routed.describe("ms"),
            direct.describe("ms")
        );
    }
    let mut wire = WireStats {
        shed: 0.0,
        queue_depth_hwm: 0.0,
        batched_rows: 0.0,
        worker_restarts: 0.0,
        cache_hits: 0.0,
        cache_misses: 0.0,
        evictions: 0.0,
    };
    let mut failovers = 0.0;
    if shard_clients.is_empty() {
        wire.add(&live.clients[0].stats().expect("server stats"));
    } else {
        for shard in &mut shard_clients {
            wire.add(&shard.stats().expect("shard stats"));
        }
        failovers = stat(&live.clients[0].stats().expect("router stats"), "failovers");
    }
    drop(shard_clients);
    let network = live.network.clone();
    live.clients.clear();
    live.target.stop();

    // Affinity: replies served by the ring owner of their key.
    let mut routed = 0usize;
    let mut owned = 0usize;
    for phase in &phases {
        for d in phase.done.iter().filter(|d| d.ok()) {
            if let Some(want) = owner(phase.reqs[d.idx]) {
                routed += 1;
                let got = d
                    .reply
                    .as_ref()
                    .ok()
                    .and_then(|r| r.get("shard"))
                    .and_then(Value::as_u64);
                if got == Some(u64::from(want)) {
                    owned += 1;
                }
            }
        }
    }
    let affinity = owned as f64 / routed.max(1) as f64;
    if is_cluster {
        println!("  affinity: {affinity:.4} ({owned} of {routed} replies from the ring owner)");
    }
    println!(
        "  cache hit ratio {:.4}, shed {}, queue depth hwm {}, worker restarts {}, failovers {failovers}",
        wire.hit_ratio(),
        wire.shed,
        wire.queue_depth_hwm,
        wire.worker_restarts
    );

    // Check every answer against the in-process reference.
    if cfg.trace {
        traced_verification(
            cfg,
            spec,
            &network,
            sets,
            &phases,
            &rtt,
            route_ms,
            &mut report,
        );
        report.set("serve.rtt_ms", rtt.p50);
        report.set("serve.accept_ms", oneshot.p50 - warm.p50);
        report.set("cluster.route_ms", route_ms);
        report.set("cluster.affinity", if is_cluster { affinity } else { 0.0 });
        report.set("serve.shed", wire.shed);
        report.set("serve.queue_depth_hwm", wire.queue_depth_hwm);
        report.set("serve.batched_rows", wire.batched_rows);
        report.set("serve.worker_restarts", wire.worker_restarts);
        report.set("cluster.failovers", failovers);
        report.set("registry.cache_hit_ratio", wire.hit_ratio());
        report.set("registry.evictions", wire.evictions);
        report.set("bench.gen_late_ms_p99", late.tail);
    } else {
        // Distinct keys are modeled once; repeated keys reuse the answer.
        let mut distinct: Vec<&Req> = Vec::new();
        let mut first_of: std::collections::HashMap<&[usize], usize> = Default::default();
        for req in phases
            .iter()
            .flat_map(|p| p.done.iter().map(|d| p.reqs[d.idx]))
        {
            first_of.entry(req.sets.as_slice()).or_insert_with(|| {
                distinct.push(req);
                distinct.len() - 1
            });
        }
        let answers = reference_answers(&network, sets, &distinct);
        let modeling_ms: Vec<f64> = answers.iter().map(|(_, ms)| *ms).collect();
        println!(
            "  in-process reference: {} per distinct request, mean {:.4} ms",
            Dist::of(&modeling_ms).describe("ms"),
            modeling_ms.iter().sum::<f64>() / modeling_ms.len().max(1) as f64
        );
        check_answers(
            &phases,
            |req| answers[first_of[req.sets.as_slice()]].0.clone(),
            &mut report,
        );
        report.set("throughput_per_s", max_rate(&rungs, spec.limit_ms));
        report.set("latency_p50_ms", nominal.latency.p50);
        report.set("latency_tail_ms", nominal.latency.p90);
        report.set("alt_path_ms", oneshot.p50);
        println!(
            "  max_rate_rps: {} req/s (p90 <= {} ms, no growing backlog)",
            max_rate(&rungs, spec.limit_ms),
            spec.limit_ms
        );
        println!(
            "  latency at the nominal rate: {}",
            nominal.latency.describe("ms")
        );
    }
    report
}

/// The traced run's verification: every answered request is replayed in
/// process with a span per layer call, and checked against the composed
/// reference. A quarter of the requests is also computed with the real
/// (untraced) calls to measure what the composition and spans cost.
#[allow(clippy::too_many_arguments)]
fn traced_verification(
    cfg: &RunConfig,
    spec: &Spec,
    network: &Network,
    sets: &[MeasurementSet],
    phases: &[Phase],
    rtt: &Dist,
    route_ms: f64,
    report: &mut Report,
) {
    let dir = cfg.out_dir.join("replay-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = if spec.name == SERVE_FRESH.name {
        ResultCache::persistent(CACHE_CAPACITY, CACHE_SHARDS, &dir).expect("replay cache")
    } else {
        ResultCache::in_memory(CACHE_CAPACITY, CACHE_SHARDS)
    };
    let store = ModelStore::from_network(network.clone(), AdaptiveOptions::default())
        .expect("pretrained network fits the store");
    let mut replay = Replay {
        opts: reference_modeler(network).options().clone(),
        modeler: reference_modeler(network),
        cache: &cache,
        checkpoint: store.checkpoint_hash(),
        counts: Counts::default(),
        compactions: 0,
    };
    let mut tr = Tracer::new(true);

    // The pool (cluster-repeat) was modeled during set-up: model it again
    // under spans and seed the replay cache, so replayed requests hit as
    // they did on the shards.
    if spec.name == CLUSTER_REPEAT.name {
        for (i, set) in sets.iter().enumerate() {
            let root = tr.begin("pool.warm", None, i as u64);
            if let Ok(o) = replay.model_sets(&mut tr, root, i as u64, &[set]).remove(0) {
                let key = ModelKey::new(set, replay.checkpoint, false).combined();
                cache.insert(key, o).expect("seed the replay cache");
            }
            tr.end(root);
        }
    }

    let mut answers: std::collections::HashMap<usize, Answers> = Default::default();
    let mut service_ms: Vec<f64> = Vec::new();
    let mut queue_wait_ms: Vec<f64> = Vec::new();
    let mut sampled_traced = 0.0;
    let mut sampled_real = 0.0;
    let mut real = reference_modeler(network);
    for (p, phase) in phases.iter().enumerate() {
        for d in &phase.done {
            let req = phase.reqs[d.idx];
            let id = req.id;
            let started = Instant::now();
            let got = replay.serve(&mut tr, id as u64, &req.line);
            let service = started.elapsed().as_secs_f64() * 1e3;
            if p == 0 {
                service_ms.push(service);
                queue_wait_ms.push(d.latency_ms() - d.late_ms() - rtt.p50 - route_ms - service);
            }
            if id % 4 == 0 && spec.name == SERVE_FRESH.name {
                let started = Instant::now();
                let _ = if req.batch {
                    let batch: Vec<MeasurementSet> =
                        req.sets.iter().map(|&i| sets[i].clone()).collect();
                    real.model_batch(&batch).outcomes
                } else {
                    vec![real.model(&sets[req.sets[0]])]
                };
                sampled_real += started.elapsed().as_secs_f64() * 1e3;
                sampled_traced += service;
            }
            answers.insert(id, got);
        }
    }
    check_answers(phases, |req| answers[&req.id].clone(), report);

    // Per nominal request: latency = generator lateness + rtt + route +
    // replayed service + a residual (waits inside the target that no
    // outside measurement covers). The residual's share is what the
    // layers leave unexplained.
    let requests = service_ms.len().max(1) as f64;
    let operations: f64 = phases.iter().map(|p| p.done.len()).sum::<usize>() as f64;
    let latency_sum: f64 = phases[0].done.iter().map(Done::latency_ms).sum();
    let late_sum: f64 = phases[0].done.iter().map(Done::late_ms).sum();
    let service_sum: f64 = service_ms.iter().sum();
    let residual_sum: f64 = queue_wait_ms.iter().sum();
    let unexplained_pct = 100.0 * residual_sum.abs() / latency_sum;
    println!(
        "  nominal phase, mean per request: latency {:.4} ms = generator lateness {:.4} + rtt {:.4} \
         + route {route_ms:.4} + replayed service {:.4} + residual {:.4} ms \
         (unexplained {unexplained_pct:.2} %, limit {:.0} %)",
        latency_sum / requests,
        late_sum / requests,
        rtt.p50,
        service_sum / requests,
        residual_sum / requests,
        RECONCILE_SHARE * 100.0
    );
    let layers = LayerTotals::from_spans(tr.spans(), operations);
    layers.publish(report);
    let counts = replay.counts;
    report.set("nn.forward_rows", counts.forward_rows as f64 / operations);
    report.set(
        "core.regression_share",
        counts.regression_consulted as f64 / counts.outcomes.max(1) as f64,
    );
    report.set(
        "core.dnn_win_share",
        counts.dnn_wins as f64 / counts.outcomes.max(1) as f64,
    );
    report.set("registry.compactions", replay.compactions as f64);
    report.set(
        "serve.queue_wait_ms",
        queue_wait_ms.iter().sum::<f64>() / requests,
    );
    if sampled_real > 0.0 {
        report.set(
            "bench.trace_overhead_pct",
            100.0 * (sampled_traced - sampled_real) / sampled_real,
        );
    }
    report.set("bench.unexplained_pct", unexplained_pct);
    crate::write_trace(cfg, &tr);
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts (parameters, noise level index) over `n` dealt cards.
    fn dealt(deck: &mut Deck, rng: &mut StdRng, n: usize) -> Vec<(usize, usize)> {
        let mut counts = Vec::new();
        for _ in 0..n {
            let (params, level) = deck.deal(rng);
            let at = NOISE_LEVELS
                .iter()
                .position(|&l| l == level)
                .expect("a paper level");
            counts.push((params, at));
        }
        counts
    }

    #[test]
    fn every_deck_of_singles_has_each_noise_level_once() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut deck = Deck::new(0);
        for _ in 0..3 {
            let mut cards = dealt(&mut deck, &mut rng, NOISE_LEVELS.len());
            assert!(cards.iter().all(|&(params, _)| params == 2));
            cards.sort_unstable();
            let levels: Vec<usize> = cards.iter().map(|&(_, at)| at).collect();
            assert_eq!(levels, (0..NOISE_LEVELS.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_batch_deck_keeps_its_one_parameter_share_exactly() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut deck = Deck::new(BATCH_ONE_PARAMETER_CARDS);
        let size = BATCH_ONE_PARAMETER_CARDS + NOISE_LEVELS.len();
        for _ in 0..4 {
            let cards = dealt(&mut deck, &mut rng, size);
            let one = cards.iter().filter(|&&(params, _)| params == 1).count();
            assert_eq!(one, BATCH_ONE_PARAMETER_CARDS);
        }
    }
}
