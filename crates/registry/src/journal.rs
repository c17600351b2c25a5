//! The workspace's one crash-safe record log, and the folds built on it.
//!
//! ```text
//! [8-byte magic "NRPMJRN1"] [record]*
//! record := [u32 payload_len LE] [u64 fnv1a64(payload) LE] [JSON payload]
//! ```
//!
//! The JSON payload keeps logs inspectable (`tail -c +9 cache.journal`);
//! the frame gives exact lengths and a checksum. Four logs share it: the
//! result cache (`cache.journal`, records `[key, value]`), the swap
//! journal (`swaps.log`), the rollout journal (`rollouts.log`) and the
//! ingest resume journal (`ingest.log`). A file that does not start with
//! the magic, such as an older line-per-record log, is refused with
//! [`JournalError::NotAJournal`] and never written.
//!
//! **Recovery.** A crash mid-append can leave a torn tail. One scan reads
//! the file front to back and stops at the first frame that is short, has
//! an implausible length, fails its checksum or no longer decodes; the
//! records before it are the log, and everything from it on is dropped
//! (after a bad length prefix nothing can be trusted, so truncation, not
//! skipping, is the only safe repair). [`RecordLog::open`] truncates and
//! `fdatasync`s, so a crash during recovery leaves the same tail to find
//! again; [`RecordLog::read`] reports the same prefix and writes nothing.
//! A file that is a strict prefix of the magic is a creation torn before
//! the magic landed, and recovers as an empty log.
//!
//! **Durability.** [`RecordLog::append`] writes and flushes without an
//! fsync: the result cache may lose its last inserts to a power cut, and
//! they are recomputable. [`FoldLog::append`] fsyncs each record, since the
//! swap, rollout and ingest journals must not forget a record they acted
//! on. [`RecordLog::rewrite`] fsyncs a temp file and renames it over the
//! log, so a reader never sees a half-rewritten file.
//!
//! **Folds.** A [`Fold`] is the state a log's records describe. [`FoldLog`]
//! applies the same [`Fold::apply`] at open and on every append, so the
//! state after recovery is the fold of the surviving prefix by
//! construction.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::ops::Deref;
use std::path::{Path, PathBuf};

use nrpm_core::fingerprint::bytes_hash;
use serde::{Deserialize, Serialize};

/// File magic: identifies an nrpm journal, version 1.
pub const MAGIC: &[u8; 8] = b"NRPMJRN1";

/// Frame overhead per record: 4-byte length + 8-byte checksum.
const FRAME_BYTES: usize = 12;

/// Upper bound on a single record's payload; a length prefix beyond this is
/// treated as corruption rather than an allocation request.
const MAX_PAYLOAD_BYTES: usize = 64 * 1024 * 1024;

/// Why a log operation fails.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure, or a request the log's state refuses.
    Io(std::io::Error),
    /// The file exists but does not start with the journal magic — refusing
    /// to append to (or truncate!) something that is not a journal.
    NotAJournal(PathBuf),
    /// A record failed to serialize.
    Codec(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::NotAJournal(p) => {
                write!(f, "{} is not an nrpm journal (bad magic)", p.display())
            }
            JournalError::Codec(msg) => write!(f, "journal codec error: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// A request the log's state refuses, e.g. an unknown sequence number.
pub(crate) fn refused(message: String) -> JournalError {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, message).into()
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<JournalError> for std::io::Error {
    fn from(e: JournalError) -> Self {
        match e {
            JournalError::Io(e) => e,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// What a scan found: the records it kept and the bytes a repair drops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records replayed intact.
    pub records: usize,
    /// Bytes of torn or corrupt tail (0 for a clean file).
    pub truncated_bytes: u64,
    /// Whether there was a tail to truncate: [`RecordLog::open`] truncated
    /// it, [`RecordLog::read`] left it in place.
    pub repaired: bool,
}

/// Decodes the frame at the start of `rest`: the record and the frame's
/// length, or `None` when the frame is torn, corrupt or undecodable.
fn frame<R: Deserialize>(rest: &[u8]) -> Option<(R, usize)> {
    let len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
    let checksum = u64::from_le_bytes(rest.get(4..FRAME_BYTES)?.try_into().ok()?);
    if len > MAX_PAYLOAD_BYTES {
        return None;
    }
    let payload = rest.get(FRAME_BYTES..FRAME_BYTES + len)?;
    if bytes_hash(payload) != checksum {
        return None;
    }
    let record = serde_json::from_str(std::str::from_utf8(payload).ok()?).ok()?;
    Some((record, FRAME_BYTES + len))
}

/// The one scan: the records of `bytes`' longest valid prefix and the
/// offset where that prefix ends (0 for a creation torn inside the magic).
fn scan<R: Deserialize>(bytes: &[u8], path: &Path) -> Result<(Vec<R>, u64), JournalError> {
    if bytes.len() < MAGIC.len() && MAGIC.starts_with(bytes) {
        return Ok((Vec::new(), 0));
    }
    if !bytes.starts_with(MAGIC) {
        return Err(JournalError::NotAJournal(path.to_path_buf()));
    }
    let mut records = Vec::new();
    let mut end = MAGIC.len();
    while let Some((record, len)) = frame(&bytes[end..]) {
        records.push(record);
        end += len;
    }
    Ok((records, end as u64))
}

fn report(records: usize, len: usize, good_end: u64) -> RecoveryReport {
    let truncated_bytes = len as u64 - good_end;
    RecoveryReport {
        records,
        truncated_bytes,
        repaired: truncated_bytes > 0,
    }
}

fn write_frame<R: Serialize>(out: &mut impl Write, record: &R) -> Result<(), JournalError> {
    let payload = serde_json::to_string(record).map_err(|e| JournalError::Codec(e.to_string()))?;
    let payload = payload.as_bytes();
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l as usize <= MAX_PAYLOAD_BYTES)
        .ok_or_else(|| JournalError::Codec("record payload too large".into()))?;
    out.write_all(&len.to_le_bytes())?;
    out.write_all(&bytes_hash(payload).to_le_bytes())?;
    out.write_all(payload)?;
    Ok(())
}

/// An append-only log of `R` records. See the [module docs](self) for the
/// format and crash-recovery contract.
#[derive(Debug)]
pub struct RecordLog<R> {
    path: PathBuf,
    writer: BufWriter<File>,
    records: usize,
    _record: PhantomData<R>,
}

impl<R: Serialize + Deserialize> RecordLog<R> {
    /// Opens (creating if absent) the log at `path`, replaying every intact
    /// record and truncating a torn tail in place.
    pub fn open(path: impl Into<PathBuf>) -> Result<(Self, Vec<R>, RecoveryReport), JournalError> {
        let path = path.into();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, good_end) = scan(&bytes, &path)?;
        let report = report(records.len(), bytes.len(), good_end);
        if report.repaired {
            file.set_len(good_end)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(good_end))?;
        if good_end == 0 {
            file.write_all(MAGIC)?;
        }
        let log = RecordLog {
            path,
            writer: BufWriter::new(file),
            records: records.len(),
            _record: PhantomData,
        };
        Ok((log, records, report))
    }

    /// Reads the log at `path` without writing to it: the records `open`
    /// would replay, and the tail it would truncate.
    pub fn read(path: impl AsRef<Path>) -> Result<(Vec<R>, RecoveryReport), JournalError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)?;
        let (records, good_end) = scan(&bytes, path)?;
        let report = report(records.len(), bytes.len(), good_end);
        Ok((records, report))
    }

    /// Appends one record and flushes it to the OS (no fsync; see
    /// [`Self::sync`]).
    pub fn append(&mut self, record: &R) -> Result<(), JournalError> {
        write_frame(&mut self.writer, record)?;
        self.writer.flush()?;
        self.records += 1;
        Ok(())
    }

    /// Forces appended records to stable storage.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.writer.flush()?;
        Ok(self.writer.get_ref().sync_data()?)
    }

    /// Rewrites the log to hold exactly `records`, via an fsynced temp file
    /// and an atomic rename. Dropping superseded records is how a log
    /// shrinks.
    pub fn rewrite(&mut self, records: &[R]) -> Result<(), JournalError> {
        let mut tmp_path = self.path.clone().into_os_string();
        tmp_path.push(".tmp");
        let mut tmp = BufWriter::new(File::create(&tmp_path)?);
        tmp.write_all(MAGIC)?;
        for record in records {
            write_frame(&mut tmp, record)?;
        }
        tmp.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp_path, &self.path)?;
        // The old handle still points at the unlinked pre-rewrite file.
        self.writer = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        self.records = records.len();
        Ok(())
    }

    /// Records replayed or appended through this handle since the last
    /// rewrite.
    pub fn records(&self) -> usize {
        self.records
    }
}

/// The state a log's records describe, rebuilt by applying them in order.
pub trait Fold: Default {
    /// File name of the log inside its directory.
    const FILE: &'static str;

    /// The record type the log holds.
    type Record: Serialize + Deserialize;

    /// Applies one record.
    fn apply(&mut self, record: &Self::Record);
}

fn fold<S: Fold>(records: &[S::Record]) -> S {
    let mut state = S::default();
    records.iter().for_each(|record| state.apply(record));
    state
}

/// A [`RecordLog`] together with the [`Fold`] of its records, which it
/// dereferences to. Every append is fsynced.
#[derive(Debug)]
pub struct FoldLog<S: Fold> {
    log: RecordLog<S::Record>,
    state: S,
}

impl<S: Fold> FoldLog<S> {
    /// Opens (creating if absent) the log [`Fold::FILE`] under `dir`,
    /// truncating a torn tail, and folds the records that survive.
    pub fn open(dir: impl AsRef<Path>) -> Result<(Self, RecoveryReport), JournalError> {
        let (log, records, report) = RecordLog::open(dir.as_ref().join(S::FILE))?;
        let state = fold(&records);
        Ok((FoldLog { log, state }, report))
    }

    /// The fold of the log under `dir`, read without writing to it.
    pub fn read(dir: impl AsRef<Path>) -> Result<(S, RecoveryReport), JournalError> {
        let (records, report) = RecordLog::read(dir.as_ref().join(S::FILE))?;
        Ok((fold(&records), report))
    }

    /// Appends `record` and applies it, then fsyncs. The record is applied
    /// once it reached the file, so state and file agree even when the
    /// fsync fails.
    pub fn append(&mut self, record: &S::Record) -> Result<(), JournalError> {
        self.log.append(record)?;
        self.state.apply(record);
        self.log.sync()
    }

    /// Rewrites the log to exactly `records` (see [`RecordLog::rewrite`])
    /// and the state to their fold.
    pub fn rewrite(&mut self, records: &[S::Record]) -> Result<(), JournalError> {
        self.log.rewrite(records)?;
        self.state = fold(records);
        Ok(())
    }
}

impl<S: Fold> Deref for FoldLog<S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.state
    }
}

/// The crash model every journal's tests sweep. `image` is a log file and
/// `ends[i]` the offset where its record `i` ends. For every offset, `check`
/// gets the image truncated there and the image with that byte flipped
/// (past the magic), each with the number of leading records that must
/// survive recovery.
pub fn for_each_crash(image: &[u8], ends: &[u64], mut check: impl FnMut(&[u8], usize)) {
    let whole_before = |at: usize| ends.iter().filter(|&&end| end <= at as u64).count();
    for cut in 0..=image.len() {
        check(&image[..cut], whole_before(cut));
    }
    for at in MAGIC.len()..image.len() {
        let mut flipped = image.to_vec();
        flipped[at] ^= 0xFF;
        check(&flipped, whole_before(at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestLog = RecordLog<(u64, Vec<f64>)>;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nrpm-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trips_records_across_reopen() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("cache.journal");
        {
            let (mut log, records, report) = TestLog::open(&path).unwrap();
            assert!(records.is_empty());
            assert!(!report.repaired);
            log.append(&(1, vec![1.0, 2.0])).unwrap();
            log.append(&(2, vec![-0.5])).unwrap();
        }
        let (log, records, report) = TestLog::open(&path).unwrap();
        assert_eq!(log.records(), 2);
        assert!(!report.repaired);
        assert_eq!(records, vec![(1, vec![1.0, 2.0]), (2, vec![-0.5])]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `cache.journal` files written before the log was shared by every
    /// journal: hand-built frames open to the same entries, and an append
    /// produces the bytes the old writer produced.
    #[test]
    fn cache_journal_bytes_are_unchanged() {
        let frame = |record: &str| {
            let mut bytes = (record.len() as u32).to_le_bytes().to_vec();
            bytes.extend_from_slice(&bytes_hash(record.as_bytes()).to_le_bytes());
            bytes.extend_from_slice(record.as_bytes());
            bytes
        };
        let first = [MAGIC.as_slice(), &frame("[7,[1.0,2.5]]")].concat();
        // The same two frames as written by the old cache journal (the
        // second added below), spelled out byte for byte.
        let expected = concat!(
            "4e52504d4a524e31",
            "0d0000008a3c903fe6f068c35b372c5b312e302c322e355d5d",
            "1f00000005ffdda072d29fd75b31383434363734343037333730393535313631352c",
            "5b2d302e3132355d5d"
        );
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert!(expected.starts_with(&hex(&first)));

        let dir = tmp_dir("format");
        let path = dir.join("cache.journal");
        std::fs::write(&path, &first).unwrap();
        let (mut log, records, report) = TestLog::open(&path).unwrap();
        assert_eq!(records, vec![(7, vec![1.0, 2.5])]);
        assert_eq!(report, report_of(1));
        log.append(&(u64::MAX, vec![-0.125])).unwrap();
        drop(log);
        assert_eq!(hex(&std::fs::read(&path).unwrap()), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn report_of(records: usize) -> RecoveryReport {
        RecoveryReport {
            records,
            ..RecoveryReport::default()
        }
    }

    #[test]
    fn torn_tail_is_truncated_and_intact_records_survive() {
        let dir = tmp_dir("torn");
        let path = dir.join("cache.journal");
        {
            let (mut log, _, _) = TestLog::open(&path).unwrap();
            log.append(&(10, vec![1.0])).unwrap();
            log.append(&(20, vec![2.0])).unwrap();
            log.append(&(30, vec![3.0])).unwrap();
        }
        // Simulate a crash mid-append: chop the last record in half.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();

        let (log, records, report) = TestLog::open(&path).unwrap();
        assert_eq!(records, vec![(10, vec![1.0]), (20, vec![2.0])]);
        assert!(report.repaired);
        assert!(report.truncated_bytes > 0);
        drop(log);

        // The repair is durable: a second open sees a clean file.
        let (_, records, report) = TestLog::open(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert!(!report.repaired);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_mismatch_ends_the_trusted_prefix() {
        let dir = tmp_dir("bitrot");
        let path = dir.join("cache.journal");
        {
            let (mut log, _, _) = TestLog::open(&path).unwrap();
            log.append(&(1, vec![1.0])).unwrap();
            log.append(&(2, vec![2.0])).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip one payload bit of the final record
        std::fs::write(&path, &bytes).unwrap();

        let (_, records, report) = TestLog::open(&path).unwrap();
        assert_eq!(records, vec![(1, vec![1.0])]);
        assert!(report.repaired);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_after_recovery_continues_the_journal() {
        let dir = tmp_dir("resume");
        let path = dir.join("cache.journal");
        {
            let (mut log, _, _) = TestLog::open(&path).unwrap();
            log.append(&(1, vec![1.0])).unwrap();
            log.append(&(2, vec![2.0])).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();

        {
            let (mut log, records, _) = TestLog::open(&path).unwrap();
            assert_eq!(records.len(), 1);
            log.append(&(3, vec![3.0])).unwrap();
        }
        let (_, records, report) = TestLog::open(&path).unwrap();
        assert_eq!(records, vec![(1, vec![1.0]), (3, vec![3.0])]);
        assert!(!report.repaired);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_superseded_records_atomically() {
        let dir = tmp_dir("compact");
        let path = dir.join("cache.journal");
        let (mut log, _, _) = TestLog::open(&path).unwrap();
        for i in 0..10u64 {
            log.append(&(i, vec![i as f64])).unwrap();
        }
        log.rewrite(&[(7, vec![7.0]), (9, vec![9.0])]).unwrap();
        assert_eq!(log.records(), 2);
        log.append(&(11, vec![11.0])).unwrap();
        drop(log);

        let (_, records, report) = TestLog::open(&path).unwrap();
        assert_eq!(
            records,
            vec![(7, vec![7.0]), (9, vec![9.0]), (11, vec![11.0])]
        );
        assert!(!report.repaired);
        assert!(!path.with_extension("journal.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refuses_to_open_a_non_journal_file() {
        let dir = tmp_dir("magic");
        let path = dir.join("not-a-journal");
        std::fs::write(&path, b"hello world, definitely json").unwrap();
        match TestLog::open(&path) {
            Err(JournalError::NotAJournal(_)) => {}
            other => panic!("expected NotAJournal, got {other:?}"),
        }
        assert!(matches!(
            TestLog::read(&path),
            Err(JournalError::NotAJournal(_))
        ));
        // And crucially: the impostor file was not truncated.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"hello world, definitely json"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_reports_damage_without_repairing() {
        let dir = tmp_dir("verify");
        let path = dir.join("cache.journal");
        {
            let (mut log, _, _) = TestLog::open(&path).unwrap();
            log.append(&(1, vec![1.0])).unwrap();
            log.append(&(2, vec![2.0])).unwrap();
        }
        let (_, clean) = TestLog::read(&path).unwrap();
        assert_eq!(clean, report_of(2));

        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let before = std::fs::read(&path).unwrap();
        let (records, damaged) = TestLog::read(&path).unwrap();
        assert_eq!(records, vec![(1, vec![1.0])]);
        assert_eq!(damaged.records, 1);
        assert!(damaged.repaired);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "verify must not write"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_point_recovers_a_prefix() {
        // Cut the file at every byte offset and flip every byte past the
        // magic: recovery must yield exactly the records before the damage,
        // and a record appended afterwards must follow them.
        let dir = tmp_dir("sweep");
        let path = dir.join("cache.journal");
        let record = |i: u64| (i, vec![i as f64, 0.5]);
        let mut ends = Vec::new();
        {
            let (mut log, _, _) = TestLog::open(&path).unwrap();
            for i in 0..4u64 {
                log.append(&record(i)).unwrap();
                ends.push(std::fs::metadata(&path).unwrap().len());
            }
        }
        let image = std::fs::read(&path).unwrap();
        let case = dir.join("case.journal");
        for_each_crash(&image, &ends, |damaged, survivors| {
            std::fs::write(&case, damaged).unwrap();
            let expected: Vec<_> = (0..survivors as u64).map(record).collect();
            let (mut log, records, _) = TestLog::open(&case).unwrap();
            assert_eq!(records, expected);
            log.append(&record(99)).unwrap();
            drop(log);
            let (_, records, report) = TestLog::open(&case).unwrap();
            assert_eq!(records, [expected, vec![record(99)]].concat());
            assert!(!report.repaired);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
