//! Content-addressed model registry and crash-safe memoized result cache.
//!
//! Modeling a kernel through the adaptive pipeline costs milliseconds to
//! seconds (cross-validated fits, optionally domain adaptation); looking
//! up a previous answer costs microseconds. This crate makes the lookup
//! safe to rely on:
//!
//! * [`lru`] — a sharded in-memory LRU keyed by the canonical fingerprints
//!   of [`nrpm_core::fingerprint`], with hit/miss/eviction counters;
//! * [`journal`] — the workspace's one crash-safe record log
//!   ([`RecordLog`]): append-only, checksummed frames, torn-tail recovery
//!   and atomic-rename rewrite, plus [`FoldLog`], which keeps the state its
//!   records fold to and fsyncs every append;
//! * [`cache`] — the LRU over a [`RecordLog`]: [`cache::ResultCache`]
//!   memoizes `fingerprint → outcome` across restarts;
//! * [`swap`] and [`rollout`] — the hot-swap and fleet-rollout journals,
//!   each a record type plus a fold over a [`FoldLog`];
//! * [`checkpoints`] — a content-addressed store of trained networks with
//!   named refs (`default`, `best`), `verify`, and `gc`;
//! * [`singleflight`] — request deduplication so N concurrent identical
//!   requests compute once and share the answer;
//! * [`accept`] — the blocking accept loop every TCP front end runs,
//!   woken by a loopback connect on stop, with a live-connection count.
//!
//! The serving layer (`nrpm-serve`) wires these together: cache before
//! model, single-flight around the model path, journal under the cache.
//!
//! ```
//! use nrpm_registry::cache::ResultCache;
//!
//! let cache: ResultCache<f64> = ResultCache::in_memory(1024, 8);
//! assert_eq!(cache.get(42), None);
//! cache.insert(42, 1.25).unwrap();
//! assert_eq!(cache.get(42), Some(1.25));
//! assert_eq!(cache.stats().lru.hits, 1);
//! ```

#![warn(missing_docs)]

pub mod accept;
pub mod cache;
pub mod checkpoints;
pub mod journal;
pub mod lru;
pub mod rollout;
pub mod singleflight;
pub mod swap;

pub use accept::{accept_until, stop_and_wake, Connections};
pub use cache::{CacheStats, ResultCache};
pub use checkpoints::{hex16, parse_hex16, CheckpointRegistry, RegistryError, VerifyOutcome};
pub use journal::{Fold, FoldLog, JournalError, RecordLog, RecoveryReport};
pub use lru::{LruStats, ShardedLru};
pub use singleflight::{Joined, SingleFlight};
pub use swap::{SwapHistory, SwapJournal, SwapPhase, SwapRecord};
