//! The two-phase checkpoint swap journal: crash-safe bookkeeping for
//! hot-swapping the serving checkpoint.
//!
//! A swap that simply overwrote a "current checkpoint" pointer could be
//! torn by a crash into a state nobody intended: the candidate half-live,
//! the incumbent half-forgotten, the rollback target collected by GC. This
//! journal makes every swap a sequence of fsynced records in `swaps.log`
//! (a [`FoldLog`], see [`crate::journal`]):
//!
//! ```text
//! intent     candidate X wants to replace incumbent Y
//! validated  X passed the shadow validation gate against Y
//! committed  X is now the serving checkpoint (Y is the rollback target)
//! aborted    the swap was called off (gate rejection, crash recovery)
//! rolled_back the post-swap watchdog reverted from X back to Y
//! ```
//!
//! The state is the [`SwapHistory`] of the records that survived recovery.
//! The serving checkpoint is the candidate of the last
//! `committed`/`rolled_back` record; a swap still pending (`intent` or
//! `validated`, no terminal record) is aborted by
//! [`SwapJournal::recover_pending`], so a half-finished swap never wins
//! over the last committed state. [`SwapHistory::live_hashes`] is the pin
//! set `registry gc` must not collect.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::journal::{refused, Fold, FoldLog, JournalError};

/// File name of the swap journal inside a registry directory.
pub const SWAP_JOURNAL_FILE: &str = "swaps.log";

/// The phase a swap record announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwapPhase {
    /// A candidate wants to replace the incumbent.
    Intent,
    /// The candidate passed the shadow validation gate.
    Validated,
    /// The candidate is now the serving checkpoint.
    Committed,
    /// The swap was called off before commit.
    Aborted,
    /// The watchdog reverted a committed swap; the record's `candidate` is
    /// the hash rolled back **to**, its `incumbent` the hash rolled back
    /// **from**.
    RolledBack,
}

/// One journal record. Records are self-contained — every phase repeats
/// the swap's candidate and incumbent hashes, so any prefix of the journal
/// tells the full story without joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwapRecord {
    /// Sequence number tying the phases of one swap together.
    pub seq: u64,
    /// The phase this record announces.
    pub phase: SwapPhase,
    /// The checkpoint being swapped in (for [`SwapPhase::RolledBack`]: the
    /// checkpoint being restored).
    pub candidate: u64,
    /// The checkpoint being replaced (for [`SwapPhase::RolledBack`]: the
    /// checkpoint being reverted).
    pub incumbent: u64,
}

/// The swap journal's state: every record, oldest first, and the next
/// unused sequence number.
#[derive(Debug, Default)]
pub struct SwapHistory {
    records: Vec<SwapRecord>,
    next_seq: u64,
}

impl Fold for SwapHistory {
    const FILE: &'static str = SWAP_JOURNAL_FILE;
    type Record = SwapRecord;

    fn apply(&mut self, record: &SwapRecord) {
        self.next_seq = self.next_seq.max(record.seq + 1);
        self.records.push(*record);
    }
}

impl SwapHistory {
    /// Every swap whose latest record is `intent` or `validated`: declared
    /// but neither committed nor called off (e.g. a crash mid-swap).
    pub fn pending(&self) -> Vec<SwapRecord> {
        let mut latest: Vec<SwapRecord> = Vec::new();
        for record in &self.records {
            match latest.iter_mut().find(|r| r.seq == record.seq) {
                Some(slot) => *slot = *record,
                None => latest.push(*record),
            }
        }
        latest
            .into_iter()
            .filter(|r| matches!(r.phase, SwapPhase::Intent | SwapPhase::Validated))
            .collect()
    }

    fn last_transition(&self) -> Option<&SwapRecord> {
        self.records
            .iter()
            .rev()
            .find(|r| matches!(r.phase, SwapPhase::Committed | SwapPhase::RolledBack))
    }

    /// The serving checkpoint according to the journal: the candidate of
    /// the last `committed` or `rolled_back` record. `None` before the
    /// first commit.
    pub fn committed_hash(&self) -> Option<u64> {
        self.last_transition().map(|r| r.candidate)
    }

    /// The rollback target: the incumbent of the last `committed` or
    /// `rolled_back` record.
    pub fn previous_hash(&self) -> Option<u64> {
        self.last_transition().map(|r| r.incumbent)
    }

    /// The pin set for garbage collection: the serving checkpoint, the
    /// rollback target, and both hashes of every pending swap. Collecting
    /// any of these could leave a recovering or rolling-back server
    /// pointing at a deleted object.
    pub fn live_hashes(&self) -> HashSet<u64> {
        let mut live = HashSet::new();
        live.extend(self.committed_hash());
        live.extend(self.previous_hash());
        for record in self.pending() {
            live.insert(record.candidate);
            live.insert(record.incumbent);
        }
        live
    }

    /// Every intact record, oldest first.
    pub fn records(&self) -> &[SwapRecord] {
        &self.records
    }
}

/// The swap journal: a [`FoldLog`] over [`SwapHistory`] in `swaps.log`. It
/// dereferences to the history for queries; the methods below append.
/// See the [module docs](self).
pub type SwapJournal = FoldLog<SwapHistory>;

impl FoldLog<SwapHistory> {
    fn start(&mut self, phase: SwapPhase, to: u64, from: u64) -> Result<u64, JournalError> {
        let seq = self.next_seq;
        self.append(&SwapRecord {
            seq,
            phase,
            candidate: to,
            incumbent: from,
        })?;
        Ok(seq)
    }

    fn advance(&mut self, seq: u64, phase: SwapPhase) -> Result<(), JournalError> {
        let base = self.records.iter().rev().find(|r| r.seq == seq).copied();
        let base = base.ok_or_else(|| refused(format!("swap journal: unknown swap seq {seq}")))?;
        self.append(&SwapRecord { phase, ..base })
    }

    /// Phase one: declares the intent to swap `candidate` in for
    /// `incumbent`. Returns the swap's sequence number.
    pub fn begin(&mut self, candidate: u64, incumbent: u64) -> Result<u64, JournalError> {
        self.start(SwapPhase::Intent, candidate, incumbent)
    }

    /// Phase two: records that `seq`'s candidate passed shadow validation.
    pub fn mark_validated(&mut self, seq: u64) -> Result<(), JournalError> {
        self.advance(seq, SwapPhase::Validated)
    }

    /// Phase three: records that `seq`'s candidate is now serving.
    pub fn commit(&mut self, seq: u64) -> Result<(), JournalError> {
        self.advance(seq, SwapPhase::Committed)
    }

    /// Calls swap `seq` off (gate rejection, crash recovery).
    pub fn abort(&mut self, seq: u64) -> Result<(), JournalError> {
        self.advance(seq, SwapPhase::Aborted)
    }

    /// Records the watchdog reverting from `from` back to `to`. The
    /// rollback is itself a committed transition, so after it
    /// [`SwapHistory::committed_hash`] is `to` and
    /// [`SwapHistory::previous_hash`] is `from`.
    pub fn record_rollback(&mut self, to: u64, from: u64) -> Result<u64, JournalError> {
        self.start(SwapPhase::RolledBack, to, from)
    }

    /// Aborts every swap whose latest record is non-terminal — the crash
    /// recovery step: a half-finished swap resolves to "never happened".
    /// Returns how many were aborted.
    pub fn recover_pending(&mut self) -> Result<usize, JournalError> {
        let pending = self.pending();
        for record in &pending {
            self.abort(record.seq)?;
        }
        Ok(pending.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{for_each_crash, RecoveryReport};
    use std::path::{Path, PathBuf};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nrpm-swap-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn file_len(dir: &Path) -> u64 {
        std::fs::metadata(dir.join(SWAP_JOURNAL_FILE))
            .unwrap()
            .len()
    }

    #[test]
    fn full_two_phase_swap_commits() {
        let dir = tmp_dir("commit");
        let (mut journal, recovery) = SwapJournal::open(&dir).unwrap();
        assert_eq!(recovery, RecoveryReport::default());
        assert_eq!(journal.committed_hash(), None);

        let seq = journal.begin(0xA, 0xB).unwrap();
        journal.mark_validated(seq).unwrap();
        journal.commit(seq).unwrap();

        assert_eq!(journal.committed_hash(), Some(0xA));
        assert_eq!(journal.previous_hash(), Some(0xB));
        assert!(journal.pending().is_empty());

        // Reopen: the same state, recovered from disk.
        let (journal, recovery) = SwapJournal::open(&dir).unwrap();
        assert_eq!(recovery.records, 3);
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(journal.committed_hash(), Some(0xA));
        assert_eq!(journal.previous_hash(), Some(0xB));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_swap_recovers_to_last_committed() {
        let dir = tmp_dir("pending");
        let (mut journal, _) = SwapJournal::open(&dir).unwrap();
        let first = journal.begin(0x1, 0x0).unwrap();
        journal.commit(first).unwrap();
        // Second swap crashes after validation, before commit.
        let second = journal.begin(0x2, 0x1).unwrap();
        journal.mark_validated(second).unwrap();
        drop(journal);

        let (mut journal, _) = SwapJournal::open(&dir).unwrap();
        assert_eq!(journal.pending().len(), 1);
        assert_eq!(journal.pending()[0].seq, second);
        // The torn swap must not have won.
        assert_eq!(journal.committed_hash(), Some(0x1));
        assert_eq!(journal.recover_pending().unwrap(), 1);
        assert!(journal.pending().is_empty());
        assert_eq!(journal.committed_hash(), Some(0x1));

        // New swaps get fresh sequence numbers after recovery.
        let third = journal.begin(0x3, 0x1).unwrap();
        assert!(third > second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmp_dir("torn");
        let (mut journal, _) = SwapJournal::open(&dir).unwrap();
        let seq = journal.begin(0xAA, 0xBB).unwrap();
        journal.commit(seq).unwrap();
        journal.begin(0xCC, 0xAA).unwrap();
        drop(journal);

        // Simulate a crash mid-append: the third record loses its end.
        let path = dir.join(SWAP_JOURNAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();

        let (journal, recovery) = SwapJournal::open(&dir).unwrap();
        assert_eq!(recovery.records, 2);
        assert!(recovery.truncated_bytes > 0);
        assert_eq!(journal.committed_hash(), Some(0xAA));
        assert!(journal.pending().is_empty());

        // The truncation is durable: a second open finds a clean file.
        let (_, recovery) = SwapJournal::open(&dir).unwrap();
        assert_eq!(recovery.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_record_invalidates_the_rest() {
        let dir = tmp_dir("middle");
        let (mut journal, _) = SwapJournal::open(&dir).unwrap();
        let a = journal.begin(0x1, 0x0).unwrap();
        journal.commit(a).unwrap();
        let third = file_len(&dir) as usize;
        let b = journal.begin(0x2, 0x1).unwrap();
        journal.commit(b).unwrap();
        drop(journal);

        // Flip a payload byte inside the third record (b's intent).
        let path = dir.join(SWAP_JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[third + 14] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let (journal, recovery) = SwapJournal::open(&dir).unwrap();
        assert_eq!(recovery.records, 2);
        assert!(recovery.truncated_bytes > 0);
        // Only the first swap survives.
        assert_eq!(journal.committed_hash(), Some(0x1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_line_format_journal_is_refused_untouched() {
        let dir = tmp_dir("lines");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SWAP_JOURNAL_FILE);
        let old = b"0 intent 000000000000000a 000000000000000b\t1f2e3d4c5b6a7988\n";
        std::fs::write(&path, old).unwrap();
        assert!(matches!(
            SwapJournal::open(&dir),
            Err(JournalError::NotAJournal(_))
        ));
        assert!(matches!(
            SwapJournal::read(&dir).map(|_| ()),
            Err(JournalError::NotAJournal(_))
        ));
        assert_eq!(std::fs::read(&path).unwrap(), old);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rollback_restores_the_previous_hash() {
        let dir = tmp_dir("rollback");
        let (mut journal, _) = SwapJournal::open(&dir).unwrap();
        let seq = journal.begin(0x2, 0x1).unwrap();
        journal.mark_validated(seq).unwrap();
        journal.commit(seq).unwrap();
        assert_eq!(journal.committed_hash(), Some(0x2));

        journal.record_rollback(0x1, 0x2).unwrap();
        assert_eq!(journal.committed_hash(), Some(0x1));
        assert_eq!(journal.previous_hash(), Some(0x2));

        let (journal, _) = SwapJournal::open(&dir).unwrap();
        assert_eq!(journal.committed_hash(), Some(0x1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_hashes_pin_serving_previous_and_pending() {
        let dir = tmp_dir("live");
        let (mut journal, _) = SwapJournal::open(&dir).unwrap();
        let a = journal.begin(0x2, 0x1).unwrap();
        journal.commit(a).unwrap();
        journal.begin(0x3, 0x2).unwrap(); // pending

        let live = journal.live_hashes();
        assert!(live.contains(&0x2), "serving checkpoint");
        assert!(live.contains(&0x1), "rollback target");
        assert!(live.contains(&0x3), "pending candidate");
        assert_eq!(live.len(), 3);
        assert_eq!(SwapJournal::read(&dir).unwrap().0.live_hashes(), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aborted_swaps_never_become_live() {
        let dir = tmp_dir("abort");
        let (mut journal, _) = SwapJournal::open(&dir).unwrap();
        let seq = journal.begin(0x9, 0x1).unwrap();
        journal.abort(seq).unwrap();
        assert_eq!(journal.committed_hash(), None);
        assert!(journal.pending().is_empty());
        assert!(journal.live_hashes().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn advancing_an_unknown_seq_is_an_error() {
        let dir = tmp_dir("unknown");
        let (mut journal, _) = SwapJournal::open(&dir).unwrap();
        assert!(journal.commit(7).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    type View = (Option<u64>, Option<u64>, Vec<SwapRecord>, Vec<u64>);

    fn view(history: &SwapHistory) -> View {
        let mut live: Vec<u64> = history.live_hashes().into_iter().collect();
        live.sort_unstable();
        (
            history.committed_hash(),
            history.previous_hash(),
            history.pending(),
            live,
        )
    }

    /// Truncation at every offset and a flipped byte at every offset
    /// recover the state of the records before the damage, and the journal
    /// goes on from there.
    #[test]
    fn every_crash_point_recovers_the_fold_of_a_prefix() {
        let dir = tmp_dir("crash");
        let (mut journal, _) = SwapJournal::open(&dir).unwrap();
        let steps: [fn(&mut SwapJournal); 5] = [
            |j| assert_eq!(j.begin(0xA, 0x1).unwrap(), 0),
            |j| j.mark_validated(0).unwrap(),
            |j| j.commit(0).unwrap(),
            |j| assert_eq!(j.begin(0xB, 0xA).unwrap(), 1), // stays pending
            |j| assert_eq!(j.record_rollback(0x1, 0xA).unwrap(), 2),
        ];
        let mut views = vec![view(&journal)];
        let mut ends = Vec::new();
        for step in steps {
            step(&mut journal);
            ends.push(file_len(&dir));
            views.push(view(&journal));
        }
        drop(journal);
        let image = std::fs::read(dir.join(SWAP_JOURNAL_FILE)).unwrap();

        let case = dir.join("case");
        std::fs::create_dir_all(&case).unwrap();
        // The state a crash image recovers to, and the state after one more
        // record is appended to it and the journal reopened.
        let recover_and_append = |bytes: &[u8]| {
            std::fs::write(case.join(SWAP_JOURNAL_FILE), bytes).unwrap();
            let (mut journal, _) = SwapJournal::open(&case).unwrap();
            let recovered = view(&journal);
            journal.begin(0xC, 0xD).unwrap();
            drop(journal);
            (recovered, view(&SwapJournal::open(&case).unwrap().0))
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
