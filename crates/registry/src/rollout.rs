//! The rolling-rollout journal: crash-safe bookkeeping for upgrading a
//! shard fleet one member at a time.
//!
//! A rolling checkpoint rollout walks the ring — drain one shard, sync the
//! target checkpoint into its registry, hot-swap, health-verify, readmit —
//! and a crash anywhere in that walk must not strand the fleet serving a
//! mix of epochs: replicated reads would then disagree forever. This
//! journal records the walk as fsynced records in `rollouts.log`, a
//! [`FoldLog`] like the swap journal ([`crate::swap`]):
//!
//! ```text
//! begin    rollout to target T is starting (incumbent I still serves)
//! shard    shard N now serves T (synced, swapped, verified)
//! done     every shard serves T; T is the fleet checkpoint
//! aborted  the rollout was called off
//! ```
//!
//! In the [`RolloutHistory`] that survives a crash, a `begin` without
//! `done`/`aborted` is a [`PendingRollout`] carrying the shards that
//! already landed. The cluster launcher completes it by distributing the
//! *target* (not the operator's stale `--model` argument) to every shard
//! before any request is routed.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::checkpoints::hex16;
use crate::journal::{refused, Fold, FoldLog, JournalError};

/// File name of the rollout journal inside a registry directory.
pub const ROLLOUT_JOURNAL_FILE: &str = "rollouts.log";

/// The step a rollout record announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RolloutPhase {
    /// A rollout to `target` is starting.
    Begin,
    /// One shard (the record's `shard`) now serves `target`.
    Shard,
    /// Every shard serves `target`.
    Done,
    /// The rollout was called off.
    Aborted,
}

/// One journal record. Every phase repeats the rollout's target and
/// incumbent hashes, so any prefix of the journal tells the full story.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RolloutRecord {
    /// Sequence number tying the records of one rollout together.
    pub seq: u64,
    /// The step this record announces.
    pub phase: RolloutPhase,
    /// The checkpoint being rolled out.
    pub target: u64,
    /// The checkpoint being replaced.
    pub incumbent: u64,
    /// For [`RolloutPhase::Shard`]: the shard that landed on the target.
    /// Zero (and meaningless) for the other phases.
    pub shard: u32,
}

/// A rollout that began but neither finished nor aborted — what a crash
/// mid-walk leaves behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRollout {
    /// The rollout's sequence number.
    pub seq: u64,
    /// The checkpoint it was rolling out.
    pub target: u64,
    /// The checkpoint it was replacing.
    pub incumbent: u64,
    /// Shards that already landed on the target before the crash.
    pub done: Vec<u32>,
}

/// The rollout journal's state: every record, oldest first, and the next
/// unused sequence number.
#[derive(Debug, Default)]
pub struct RolloutHistory {
    records: Vec<RolloutRecord>,
    next_seq: u64,
}

impl Fold for RolloutHistory {
    const FILE: &'static str = ROLLOUT_JOURNAL_FILE;
    type Record = RolloutRecord;

    fn apply(&mut self, record: &RolloutRecord) {
        self.next_seq = self.next_seq.max(record.seq + 1);
        self.records.push(*record);
    }
}

impl RolloutHistory {
    /// The rollout a crash interrupted, if any: begun, some shards
    /// possibly landed, no terminal record.
    pub fn pending(&self) -> Option<PendingRollout> {
        let mut pending: Option<PendingRollout> = None;
        for record in &self.records {
            if record.phase == RolloutPhase::Begin {
                pending = Some(PendingRollout {
                    seq: record.seq,
                    target: record.target,
                    incumbent: record.incumbent,
                    done: Vec::new(),
                });
            }
            let Some(open) = pending.as_mut().filter(|p| p.seq == record.seq) else {
                continue;
            };
            match record.phase {
                RolloutPhase::Shard if !open.done.contains(&record.shard) => {
                    open.done.push(record.shard)
                }
                RolloutPhase::Done | RolloutPhase::Aborted => pending = None,
                _ => {}
            }
        }
        pending
    }

    /// The fleet checkpoint according to the journal: the target of the
    /// last completed rollout. `None` before the first completion.
    pub fn completed_hash(&self) -> Option<u64> {
        self.records
            .iter()
            .rev()
            .find(|r| r.phase == RolloutPhase::Done)
            .map(|r| r.target)
    }

    /// The GC pin set: the last completed target and both hashes of a
    /// pending rollout. Collecting any of these could leave a recovering
    /// fleet pointing at a deleted object.
    pub fn live_hashes(&self) -> HashSet<u64> {
        let mut live = HashSet::new();
        live.extend(self.completed_hash());
        if let Some(pending) = self.pending() {
            live.insert(pending.target);
            live.insert(pending.incumbent);
        }
        live
    }

    /// Every intact record, oldest first.
    pub fn records(&self) -> &[RolloutRecord] {
        &self.records
    }
}

/// The rollout journal: a [`FoldLog`] over [`RolloutHistory`] in `rollouts.log`. It
/// dereferences to the history for queries; the methods below append.
/// See the [module docs](self).
pub type RolloutJournal = FoldLog<RolloutHistory>;

impl FoldLog<RolloutHistory> {
    /// Appends `phase` (for `shard`) to rollout `seq`.
    fn advance(&mut self, seq: u64, phase: RolloutPhase, shard: u32) -> Result<(), JournalError> {
        let base = self.records.iter().rev().find(|r| r.seq == seq).copied();
        let base =
            base.ok_or_else(|| refused(format!("rollout journal: unknown rollout seq {seq}")))?;
        self.append(&RolloutRecord {
            phase,
            shard,
            ..base
        })
    }

    /// Declares a rollout from `incumbent` to `target`. Returns its
    /// sequence number. At most one rollout may be pending at a time.
    pub fn begin(&mut self, target: u64, incumbent: u64) -> Result<u64, JournalError> {
        if let Some(pending) = self.pending() {
            return Err(refused(format!(
                "rollout journal: rollout {} to {} is still pending",
                pending.seq,
                hex16(pending.target)
            )));
        }
        let seq = self.next_seq;
        self.append(&RolloutRecord {
            seq,
            phase: RolloutPhase::Begin,
            target,
            incumbent,
            shard: 0,
        })?;
        Ok(seq)
    }

    /// Records that `shard` now serves rollout `seq`'s target (synced,
    /// swapped, and verified over the wire).
    pub fn record_shard(&mut self, seq: u64, shard: u32) -> Result<(), JournalError> {
        self.advance(seq, RolloutPhase::Shard, shard)
    }

    /// Records that every shard serves rollout `seq`'s target.
    pub fn finish(&mut self, seq: u64) -> Result<(), JournalError> {
        self.advance(seq, RolloutPhase::Done, 0)
    }

    /// Calls rollout `seq` off.
    pub fn abort(&mut self, seq: u64) -> Result<(), JournalError> {
        self.advance(seq, RolloutPhase::Aborted, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{for_each_crash, RecoveryReport};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nrpm-rollout-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn full_walk_completes_and_survives_reopen() {
        let dir = tmp_dir("walk");
        let (mut journal, recovery) = RolloutJournal::open(&dir).unwrap();
        assert_eq!(recovery, RecoveryReport::default());

        let seq = journal.begin(0xA1B2, 0xBB).unwrap();
        journal.record_shard(seq, 0).unwrap();
        journal.record_shard(seq, 1).unwrap();
        journal.record_shard(seq, 2).unwrap();
        journal.finish(seq).unwrap();
        assert!(journal.pending().is_none());
        assert_eq!(journal.completed_hash(), Some(0xA1B2));

        let (journal, recovery) = RolloutJournal::open(&dir).unwrap();
        assert_eq!(recovery.records, 5);
        assert_eq!(journal.completed_hash(), Some(0xA1B2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_walk_is_pending_with_the_landed_shards() {
        let dir = tmp_dir("crash");
        let (mut journal, _) = RolloutJournal::open(&dir).unwrap();
        let seq = journal.begin(0x2, 0x1).unwrap();
        journal.record_shard(seq, 0).unwrap();
        drop(journal); // crash between shard 0 and shard 1

        let (journal, _) = RolloutJournal::open(&dir).unwrap();
        let pending = journal.pending().expect("crash leaves a pending rollout");
        assert_eq!(pending.target, 0x2);
        assert_eq!(pending.incumbent, 0x1);
        assert_eq!(pending.done, vec![0]);
        assert_eq!(journal.completed_hash(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_one_rollout_may_be_pending() {
        let dir = tmp_dir("single");
        let (mut journal, _) = RolloutJournal::open(&dir).unwrap();
        let seq = journal.begin(0x2, 0x1).unwrap();
        assert!(journal.begin(0x3, 0x1).is_err());
        journal.abort(seq).unwrap();
        assert!(journal.pending().is_none());
        journal.begin(0x3, 0x1).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmp_dir("torn");
        let (mut journal, _) = RolloutJournal::open(&dir).unwrap();
        let seq = journal.begin(0xAA, 0xBB).unwrap();
        journal.finish(seq).unwrap();
        drop(journal);

        // Half a frame: a crash mid-append.
        let path = dir.join(ROLLOUT_JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[60, 0, 0, 0, 1, 2, 3]);
        std::fs::write(&path, &bytes).unwrap();

        let (journal, recovery) = RolloutJournal::open(&dir).unwrap();
        assert_eq!(recovery.records, 2);
        assert_eq!(recovery.truncated_bytes, 7);
        assert_eq!(journal.completed_hash(), Some(0xAA));

        let (_, recovery) = RolloutJournal::open(&dir).unwrap();
        assert_eq!(recovery.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_hashes_pin_completed_and_pending() {
        let dir = tmp_dir("live");
        let (mut journal, _) = RolloutJournal::open(&dir).unwrap();
        let a = journal.begin(0x2, 0x1).unwrap();
        journal.finish(a).unwrap();
        journal.begin(0x3, 0x2).unwrap(); // pending

        let live = journal.live_hashes();
        assert!(live.contains(&0x2), "completed target");
        assert!(live.contains(&0x3), "pending target");
        assert_eq!(live.len(), 2, "pending incumbent == completed target");
        assert_eq!(RolloutJournal::read(&dir).unwrap().0.live_hashes(), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn advancing_an_unknown_seq_is_an_error() {
        let dir = tmp_dir("unknown");
        let (mut journal, _) = RolloutJournal::open(&dir).unwrap();
        assert!(journal.record_shard(7, 0).is_err());
        assert!(journal.finish(7).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    type View = (Option<PendingRollout>, Option<u64>, Vec<u64>);

    fn view(history: &RolloutHistory) -> View {
        let mut live: Vec<u64> = history.live_hashes().into_iter().collect();
        live.sort_unstable();
        (history.pending(), history.completed_hash(), live)
    }

    /// Truncation at every offset and a flipped byte at every offset
    /// recover the state of the records before the damage, and the journal
    /// goes on from there.
    #[test]
    fn every_crash_point_recovers_the_fold_of_a_prefix() {
        let dir = tmp_dir("crash");
        let file_len = || {
            std::fs::metadata(dir.join(ROLLOUT_JOURNAL_FILE))
                .unwrap()
                .len()
        };
        let (mut journal, _) = RolloutJournal::open(&dir).unwrap();
        let steps: [fn(&mut RolloutJournal); 5] = [
            |j| assert_eq!(j.begin(0xA, 0x1).unwrap(), 0),
            |j| j.record_shard(0, 0).unwrap(),
            |j| j.record_shard(0, 1).unwrap(),
            |j| j.finish(0).unwrap(),
            |j| assert_eq!(j.begin(0xB, 0xA).unwrap(), 1),
        ];
        let mut views = vec![view(&journal)];
        let mut ends = Vec::new();
        for step in steps {
            step(&mut journal);
            ends.push(file_len());
            views.push(view(&journal));
        }
        drop(journal);
        let image = std::fs::read(dir.join(ROLLOUT_JOURNAL_FILE)).unwrap();

        let case = dir.join("case");
        std::fs::create_dir_all(&case).unwrap();
        // The state a crash image recovers to, and the state after one more
        // record is appended to it and the journal reopened.
        let recover_and_append = |bytes: &[u8]| {
            std::fs::write(case.join(ROLLOUT_JOURNAL_FILE), bytes).unwrap();
            let (mut journal, _) = RolloutJournal::open(&case).unwrap();
            let recovered = view(&journal);
            match journal.pending() {
                Some(pending) => journal.record_shard(pending.seq, 7).unwrap(),
                None => {
                    journal.begin(0xC, 0xD).unwrap();
                }
            }
            drop(journal);
            (recovered, view(&RolloutJournal::open(&case).unwrap().0))
        };
        let appended: Vec<View> = [0]
            .iter()
            .chain(&ends)
            .map(|&end| recover_and_append(&image[..end as usize]).1)
            .collect();
        for_each_crash(&image, &ends, |damaged, survivors| {
            let (recovered, after) = recover_and_append(damaged);
            assert_eq!(recovered, views[survivors]);
            assert_eq!(after, appended[survivors]);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
