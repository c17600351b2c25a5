//! The ingest offset journal: crash-safe resume bookkeeping for the
//! streaming ingester.
//!
//! The ingester's durable state is one [`IngestCheckpoint`]: where to
//! resume reading the followed log (`resume_offset`), which lines were
//! already fully applied (`applied_line`), the parser context in force at
//! the resume point, and the cumulative counters. Each checkpoint is one
//! fsynced record of `ingest.log`, a [`FoldLog`] in the frame format of
//! [`nrpm_registry::journal`]. Its fold is "the last checkpoint wins", so
//! after a crash truncates a torn record, recovery resumes from the last
//! intact checkpoint.
//!
//! # Exactly-once accounting
//!
//! `resume_offset` points at the start of the oldest record still held in
//! any window (or one past the last consumed line when the windows are
//! empty), so a restart re-reads everything the crashed process had not yet
//! retired. Re-read lines whose number is `≤ applied_line` are **rebuild**
//! lines: they refill the windows but bump no counters and fire no
//! re-modeling. Lines past `applied_line` are fresh. Counters therefore
//! count every record exactly once across any number of crashes — work done
//! after the last checkpoint is recounted on replay precisely because its
//! pre-crash counts were never journaled.

use serde::{Deserialize, Serialize};
use std::path::Path;

use nrpm_registry::journal::{Fold, FoldLog, RecoveryReport};
pub use nrpm_registry::JournalError;

/// File name of the ingest journal inside an ingest state directory.
pub const INGEST_JOURNAL_FILE: &str = "ingest.log";

/// Checkpoints kept before `open` compacts the journal down to the last
/// one. The journal is a resume pointer, not a history; compaction at open
/// bounds its size across long-lived deployments.
const COMPACT_THRESHOLD: usize = 1024;

/// Parser context in force at the resume offset. `POINT` lines are
/// meaningless without the preceding `PARAMS`/`KERNEL`/`TENANT` directives,
/// which may lie *before* the resume offset — so the checkpoint carries the
/// context needed to re-parse the first resumed line.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResumeContext {
    /// Kernel the next point belongs to (`KERNEL` directive).
    pub kernel: Option<String>,
    /// Tenant tag (`KERNEL <k> TENANT <t>`).
    pub tenant: Option<String>,
    /// Declared parameter count (`PARAMS` directive).
    pub arity: Option<usize>,
    /// Event time of the last `TIME` directive, if any.
    pub event_time: Option<f64>,
    /// High-water event time — restored so replayed records face the same
    /// lateness verdicts they faced before the crash.
    pub watermark: Option<f64>,
}

/// Cumulative ingest counters, journaled atomically with the offsets they
/// describe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestCounters {
    /// Records accepted into a window (each source record exactly once).
    pub records: u64,
    /// Records dropped because their event time fell behind the watermark.
    pub late_dropped: u64,
    /// Records evicted by per-window capacity (sliding-window turnover).
    pub evicted: u64,
    /// Records shed under global memory pressure (backpressure).
    pub shed: u64,
    /// Malformed lines skipped.
    pub parse_errors: u64,
    /// Repetition values removed by record sanitization (non-finite or
    /// non-positive).
    pub values_dropped: u64,
    /// Repetition values winsorized by record sanitization.
    pub values_clamped: u64,
    /// Records sanitized away entirely (every repetition unusable).
    pub records_dropped: u64,
    /// Window triggers that fired a re-modeling run.
    pub windows_fired: u64,
    /// Re-modeling runs that failed recoverably.
    pub remodel_failures: u64,
    /// Model updates published to the checkpoint registry.
    pub models_published: u64,
}

/// One journaled resume point.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IngestCheckpoint {
    /// Byte offset to resume reading from: the start of the oldest record
    /// still held in any window, or one past the last consumed line.
    pub resume_offset: u64,
    /// 1-based line number of the first line at `resume_offset`.
    pub resume_line: u64,
    /// Last line number whose effects are fully reflected in the counters;
    /// replayed lines up to here rebuild state silently.
    pub applied_line: u64,
    /// Parser context in force at `resume_offset`.
    pub context: ResumeContext,
    /// Cumulative counters as of `applied_line`.
    pub counters: IngestCounters,
}

/// What [`IngestJournal::open`] found and repaired.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestRecovery {
    /// Checkpoints read back and the torn tail truncated.
    pub log: RecoveryReport,
    /// The checkpoint to resume from, when any survived.
    pub resume: Option<IngestCheckpoint>,
}

/// The journal's fold: the last checkpoint wins.
#[derive(Debug, Default)]
struct Latest(Option<IngestCheckpoint>);

impl Fold for Latest {
    const FILE: &'static str = INGEST_JOURNAL_FILE;
    type Record = IngestCheckpoint;

    fn apply(&mut self, checkpoint: &IngestCheckpoint) {
        self.0 = Some(checkpoint.clone());
    }
}

/// The append-only ingest checkpoint journal.
#[derive(Debug)]
pub struct IngestJournal {
    log: FoldLog<Latest>,
}

impl IngestJournal {
    /// Opens (or creates) the journal inside `dir`, truncating a torn tail
    /// and compacting history down to the last checkpoint when the file has
    /// grown past the threshold. Returns the journal and what recovery saw.
    pub fn open(dir: &Path) -> Result<(IngestJournal, IngestRecovery), JournalError> {
        let (log, report) = FoldLog::open(dir)?;
        let mut journal = IngestJournal { log };
        if report.records > COMPACT_THRESHOLD {
            journal.compact()?;
        }
        let resume = journal.latest().cloned();
        let recovery = IngestRecovery {
            log: report,
            resume,
        };
        Ok((journal, recovery))
    }

    /// Appends one checkpoint, fsynced before returning.
    pub fn checkpoint(&mut self, cp: &IngestCheckpoint) -> Result<(), JournalError> {
        self.log.append(cp)
    }

    /// The most recent checkpoint (journaled before or during this run).
    pub fn latest(&self) -> Option<&IngestCheckpoint> {
        self.log.0.as_ref()
    }

    /// Rewrites the journal to hold only the last checkpoint (tmp + rename,
    /// so a crash mid-compaction leaves either the old or the new file).
    pub fn compact(&mut self) -> Result<(), JournalError> {
        match self.latest().cloned() {
            Some(last) => self.log.rewrite(&[last]),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrpm_registry::journal::for_each_crash;
    use nrpm_registry::RecordLog;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nrpm-ingest-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cp(offset: u64, line: u64) -> IngestCheckpoint {
        IngestCheckpoint {
            resume_offset: offset,
            resume_line: line,
            applied_line: line.saturating_sub(1),
            context: ResumeContext {
                kernel: Some("mm".into()),
                tenant: Some("acme".into()),
                arity: Some(2),
                event_time: None,
                watermark: Some(41.5),
            },
            counters: IngestCounters {
                records: offset / 10,
                ..IngestCounters::default()
            },
        }
    }

    #[test]
    fn checkpoints_survive_reopen() {
        let dir = tmpdir("reopen");
        {
            let (mut j, rec) = IngestJournal::open(&dir).unwrap();
            assert_eq!(rec.log.records, 0);
            j.checkpoint(&cp(100, 5)).unwrap();
            j.checkpoint(&cp(250, 12)).unwrap();
        }
        let (j, rec) = IngestJournal::open(&dir).unwrap();
        assert_eq!(rec.log.records, 2);
        assert_eq!(rec.log.truncated_bytes, 0);
        assert_eq!(j.latest(), Some(&cp(250, 12)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_previous_checkpoint_wins() {
        let dir = tmpdir("torn");
        {
            let (mut j, _) = IngestJournal::open(&dir).unwrap();
            j.checkpoint(&cp(100, 5)).unwrap();
        }
        // Simulate a crash mid-append: half a frame at the end.
        let path = dir.join(INGEST_JOURNAL_FILE);
        let intact = std::fs::read(&path).unwrap();
        let torn = [
            &intact[..],
            &[200, 0, 0, 0, 9, 9],
            b"{\"resume_offset\":999",
        ]
        .concat();
        std::fs::write(&path, torn).unwrap();
        let (j, rec) = IngestJournal::open(&dir).unwrap();
        assert_eq!(rec.log.records, 1);
        assert!(rec.log.truncated_bytes > 0);
        assert_eq!(j.latest().unwrap().resume_offset, 100);
        // The torn bytes are gone from disk.
        assert_eq!(std::fs::read(&path).unwrap(), intact);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_checksum_invalidates_the_line() {
        let dir = tmpdir("checksum");
        {
            let (mut j, _) = IngestJournal::open(&dir).unwrap();
            j.checkpoint(&cp(100, 5)).unwrap();
            j.checkpoint(&cp(200, 9)).unwrap();
        }
        let path = dir.join(INGEST_JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Change one payload byte of the second record, keeping its checksum.
        let needle = b"\"resume_offset\":200";
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap();
        bytes[at + needle.len() - 1] = b'1';
        std::fs::write(&path, bytes).unwrap();
        let (j, rec) = IngestJournal::open(&dir).unwrap();
        assert_eq!(rec.log.records, 1, "damaged record rejected");
        assert_eq!(j.latest().unwrap().resume_offset, 100);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_keeps_only_the_last_checkpoint() {
        let dir = tmpdir("compact");
        let (mut j, _) = IngestJournal::open(&dir).unwrap();
        for i in 0..10 {
            j.checkpoint(&cp(i * 10, i + 1)).unwrap();
        }
        j.compact().unwrap();
        let path = dir.join(INGEST_JOURNAL_FILE);
        let (records, _) = RecordLog::<IngestCheckpoint>::read(&path).unwrap();
        assert_eq!(records, vec![cp(90, 10)]);
        let (j2, rec) = IngestJournal::open(&dir).unwrap();
        assert_eq!(rec.log.records, 1);
        assert_eq!(j2.latest().unwrap().resume_offset, 90);
        // The journal still accepts appends after compaction.
        let mut j3 = j;
        j3.checkpoint(&cp(500, 20)).unwrap();
        let (_, rec) = IngestJournal::open(&dir).unwrap();
        assert_eq!(rec.resume.unwrap().resume_offset, 500);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A final record that lost its last byte is dropped on reopen, and the
    /// next checkpoint is appended after the intact ones rather than glued
    /// onto the torn bytes.
    #[test]
    fn a_checkpoint_appended_after_a_tail_torn_before_its_newline_survives() {
        let dir = tmpdir("newline");
        {
            let (mut j, _) = IngestJournal::open(&dir).unwrap();
            j.checkpoint(&cp(100, 5)).unwrap();
            j.checkpoint(&cp(200, 9)).unwrap();
        }
        let path = dir.join(INGEST_JOURNAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        {
            let (mut j, _) = IngestJournal::open(&dir).unwrap();
            j.checkpoint(&cp(300, 14)).unwrap();
        }
        let (j, _) = IngestJournal::open(&dir).unwrap();
        assert_eq!(j.latest().unwrap().resume_offset, 300);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncation at every offset and a flipped byte at every offset
    /// resume from the last checkpoint before the damage, and the journal
    /// goes on from there.
    #[test]
    fn every_crash_point_recovers_the_fold_of_a_prefix() {
        let dir = tmpdir("crash");
        let path = dir.join(INGEST_JOURNAL_FILE);
        let checkpoints: Vec<IngestCheckpoint> = (1..=5).map(|i| cp(i * 100, i * 4)).collect();
        let mut ends = Vec::new();
        {
            let (mut j, _) = IngestJournal::open(&dir).unwrap();
            for checkpoint in &checkpoints {
                j.checkpoint(checkpoint).unwrap();
                ends.push(std::fs::metadata(&path).unwrap().len());
            }
        }
        let image = std::fs::read(&path).unwrap();
        let case = dir.join("case");
        std::fs::create_dir_all(&case).unwrap();
        for_each_crash(&image, &ends, |damaged, survivors| {
            std::fs::write(case.join(INGEST_JOURNAL_FILE), damaged).unwrap();
            let (mut j, rec) = IngestJournal::open(&case).unwrap();
            let expected = survivors.checked_sub(1).map(|i| &checkpoints[i]);
            assert_eq!(j.latest(), expected);
            assert_eq!(rec.resume.as_ref(), expected);
            j.checkpoint(&cp(999, 77)).unwrap();
            drop(j);
            let (j, rec) = IngestJournal::open(&case).unwrap();
            assert_eq!(j.latest(), Some(&cp(999, 77)));
            assert_eq!(rec.log.records, survivors + 1);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
