//! Append-only delta-batch log: the restart story for incremental ER.
//!
//! Every delta batch a resident consolidation session accepts is appended
//! here as one *frame*; a restarted process rebuilds the resident state by
//! replaying the frames over the base corpus instead of re-consolidating
//! from scratch. The file format is a magic header and varint-framed
//! payloads, with two additions that a crash-tolerant log needs:
//!
//! * **Per-frame checksum.** Each frame carries an FNV-1a 64 of its
//!   payload, so a torn or bit-rotted frame is detected on open rather
//!   than decoded into garbage records.
//! * **Torn-tail truncation.** A process killed mid-append leaves a
//!   partial final frame. [`DeltaLog::open`] scans to the last fully
//!   valid frame and truncates the file there — the log reopens with
//!   every *completed* batch intact, which is exactly the boundary the
//!   byte-equivalence pin covers (a batch either committed and was
//!   logged, or neither happened).
//!
//! Frames accumulate one per batch; [`DeltaLog::compact`] merges them all
//! into a single frame. That is lossless for consolidation because batch
//! boundaries provably do not affect the final clusters (the incremental
//! equivalence suite pins any prefix/delta split byte-identical to a full
//! rebuild) — only the concatenated record order matters, and compaction
//! preserves it.
//!
//! Layout: `magic (8) · frame*` where `frame = payload_len varint ·
//! fnv1a64(payload) varint · payload` and `payload = record_count varint ·
//! record*`, `record = source varint · id varint · field_count varint ·
//! (name_len varint · name · value)*` with values in the
//! [`crate::encode`] encoding.

use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use datatamer_model::{DtError, Record, RecordId, Result, SourceId, Value};

use crate::encode::{decode_value, get_varint, put_varint, Writer};

const LOG_MAGIC: &[u8; 8] = b"DTDELTA1";

/// FNV-1a 64 — tiny, dependency-free, and plenty to catch torn writes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn encode_records(records: &[Record]) -> Vec<u8> {
    let mut w = Writer::frame();
    w.varint(records.len() as u64);
    for r in records {
        w.varint(u64::from(r.source.0));
        w.varint(r.id.0);
        w.varint(r.len() as u64);
        for (name, value) in r.iter() {
            w.field(name);
            w.value(value);
        }
    }
    w.into_bytes()
}

fn decode_records(mut buf: &[u8]) -> Result<Vec<Record>> {
    let count = get_varint(&mut buf)? as usize;
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let source = SourceId(get_varint(&mut buf)? as u32);
        let id = RecordId(get_varint(&mut buf)?);
        let fields = get_varint(&mut buf)? as usize;
        let mut pairs: Vec<(String, Value)> = Vec::with_capacity(fields);
        for _ in 0..fields {
            let len = get_varint(&mut buf)? as usize;
            if buf.len() < len {
                return Err(DtError::Decode("delta-log field name truncated".into()));
            }
            let name = std::str::from_utf8(&buf[..len])
                .map_err(|_| DtError::Decode("delta-log field name not UTF-8".into()))?
                .to_owned();
            buf = &buf[len..];
            let value = decode_value(&mut buf)?;
            pairs.push((name, value));
        }
        records.push(Record::from_pairs(source, id, pairs));
    }
    if !buf.is_empty() {
        return Err(DtError::Decode("delta-log frame has trailing bytes".into()));
    }
    Ok(records)
}

/// The append-only delta-batch log. See the module docs for the format and
/// crash-tolerance contract.
#[derive(Debug)]
pub struct DeltaLog {
    path: PathBuf,
    frames: usize,
    /// End of the last valid frame — appends go here.
    end: u64,
}

impl DeltaLog {
    /// Open (or create) the log at `path`, scanning existing frames and
    /// truncating any torn tail left by a crash mid-append.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let mut bytes = Vec::new();
        match fs::File::open(&path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                fs::File::create(&path)?.write_all(LOG_MAGIC)?;
                bytes.extend_from_slice(LOG_MAGIC);
            }
            Err(e) => return Err(DtError::Io(format!("{}: {e}", path.display()))),
        }
        if bytes.len() < LOG_MAGIC.len() || bytes[..LOG_MAGIC.len()] != LOG_MAGIC[..] {
            return Err(DtError::Decode(format!(
                "{}: not a delta log (bad magic)",
                path.display()
            )));
        }
        let mut frames = 0usize;
        let mut end = LOG_MAGIC.len() as u64;
        // Walk frames; the first incomplete or checksum-failing frame marks
        // the torn tail and everything from there is discarded.
        loop {
            let mut cursor = &bytes[end as usize..];
            let before = cursor.len();
            let Ok(len) = get_varint(&mut cursor) else { break };
            let Ok(sum) = get_varint(&mut cursor) else { break };
            let header = before - cursor.len();
            let len = len as usize;
            if cursor.len() < len {
                break;
            }
            let payload = &cursor[..len];
            if fnv1a64(payload) != sum {
                break;
            }
            if decode_records(payload).is_err() {
                break;
            }
            frames += 1;
            end += (header + len) as u64;
        }
        if end < bytes.len() as u64 {
            let f = fs::OpenOptions::new().write(true).open(&path)?;
            f.set_len(end)?;
        }
        Ok(DeltaLog { path, frames, end })
    }

    /// The file this log lives in.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Completed frames (= accepted batches since the last compaction).
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Append one accepted batch as a frame and flush it to the OS. An
    /// empty batch is a no-op (no empty frames, so `frames` keeps meaning
    /// "batches with content to replay").
    pub fn append(&mut self, records: &[Record]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let payload = encode_records(records);
        let mut frame = Vec::with_capacity(payload.len() + 20);
        put_varint(&mut frame, payload.len() as u64);
        put_varint(&mut frame, fnv1a64(&payload));
        frame.extend_from_slice(&payload);
        let mut f = fs::OpenOptions::new().write(true).open(&self.path)?;
        // Seek to the known-good end rather than blindly appending: if a
        // previous run tore the tail and nothing reopened the log since,
        // appending after garbage would orphan this frame.
        f.seek(SeekFrom::Start(self.end))?;
        f.write_all(&frame)?;
        f.flush()?;
        self.end += frame.len() as u64;
        self.frames += 1;
        Ok(())
    }

    /// All batches in append order.
    pub fn replay(&self) -> Result<Vec<Vec<Record>>> {
        let mut bytes = Vec::new();
        fs::File::open(&self.path)
            .map_err(|e| DtError::Io(format!("{}: {e}", self.path.display())))?
            .read_to_end(&mut bytes)?;
        let mut batches = Vec::with_capacity(self.frames);
        let mut offset = LOG_MAGIC.len();
        while (offset as u64) < self.end {
            let mut cursor = &bytes[offset..];
            let before = cursor.len();
            let len = get_varint(&mut cursor)? as usize;
            let _sum = get_varint(&mut cursor)?;
            let header = before - cursor.len();
            if cursor.len() < len {
                return Err(DtError::Decode(format!(
                    "{}: frame truncated under the validated end",
                    self.path.display()
                )));
            }
            batches.push(decode_records(&cursor[..len])?);
            offset += header + len;
        }
        Ok(batches)
    }

    /// Every record across all frames, in append order — what a restart
    /// ingests (batch boundaries don't affect the final clusters, so the
    /// flattened order is all that matters).
    pub fn replay_records(&self) -> Result<Vec<Record>> {
        Ok(self.replay()?.into_iter().flatten().collect())
    }

    /// Merge every frame into one, rewriting through a temp file + rename
    /// so a process killed mid-compaction leaves either the old log or the
    /// new one, never a half-written file in between. Neither file is
    /// synced before the rename, so after a power loss the renamed log may
    /// be empty or torn (see the crate's durability contract).
    pub fn compact(&mut self) -> Result<()> {
        if self.frames <= 1 {
            return Ok(());
        }
        let all = self.replay_records()?;
        let payload = encode_records(&all);
        let mut bytes = Vec::with_capacity(LOG_MAGIC.len() + payload.len() + 20);
        bytes.extend_from_slice(LOG_MAGIC);
        put_varint(&mut bytes, payload.len() as u64);
        put_varint(&mut bytes, fnv1a64(&payload));
        bytes.extend_from_slice(&payload);
        let tmp = self.path.with_extension("compact");
        fs::File::create(&tmp)?.write_all(&bytes)?;
        fs::rename(&tmp, &self.path)?;
        self.frames = 1;
        self.end = bytes.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatamer_model::Value;

    /// A log path in a directory of its own, which is removed with
    /// everything in it when the guard drops, whether the test passed or
    /// panicked.
    struct TempLog {
        dir: PathBuf,
        path: PathBuf,
    }

    impl TempLog {
        fn new(tag: &str) -> TempLog {
            let name = format!("dt_delta_log_{}_{tag}", std::process::id());
            let dir = std::env::temp_dir().join(name);
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            TempLog { path: dir.join(format!("{tag}.dlog")), dir }
        }
    }

    impl Drop for TempLog {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }

    fn rec(i: u64) -> Record {
        Record::from_pairs(
            SourceId(1),
            RecordId(i),
            vec![
                ("name", Value::from(format!("show {i}"))),
                ("price", Value::Int(i as i64)),
                ("rating", Value::Float(i as f64 / 2.0)),
            ],
        )
    }

    #[test]
    fn append_replay_roundtrips_across_reopen() {
        let log_file = TempLog::new("roundtrip");
        let path = &log_file.path;
        let batches: Vec<Vec<Record>> =
            vec![(0..5).map(rec).collect(), vec![], (5..7).map(rec).collect()];
        {
            let mut log = DeltaLog::open(path).unwrap();
            for b in &batches {
                log.append(b).unwrap();
            }
            assert_eq!(log.frames(), 2, "empty batches write no frame");
            assert_eq!(log.replay_records().unwrap().len(), 7);
        }
        let log = DeltaLog::open(path).unwrap();
        assert_eq!(log.frames(), 2);
        let replayed = log.replay().unwrap();
        assert_eq!(replayed, vec![batches[0].clone(), batches[2].clone()]);
        assert_eq!(log.replay_records().unwrap().len(), 7);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let log_file = TempLog::new("torn");
        let path = &log_file.path;
        {
            let mut log = DeltaLog::open(path).unwrap();
            log.append(&(0..4).map(rec).collect::<Vec<_>>()).unwrap();
            log.append(&(4..6).map(rec).collect::<Vec<_>>()).unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the final frame.
        let len = fs::metadata(path).unwrap().len();
        fs::OpenOptions::new().write(true).open(path).unwrap().set_len(len - 3).unwrap();
        let mut log = DeltaLog::open(path).unwrap();
        assert_eq!(log.frames(), 1, "the torn frame is gone, the complete one kept");
        assert_eq!(log.replay_records().unwrap().len(), 4);
        // The log keeps taking appends from the truncation point.
        log.append(&(6..9).map(rec).collect::<Vec<_>>()).unwrap();
        let log = DeltaLog::open(path).unwrap();
        assert_eq!(log.frames(), 2);
        assert_eq!(log.replay_records().unwrap().len(), 7);
    }

    #[test]
    fn corrupt_payload_fails_the_checksum_and_is_dropped() {
        let log_file = TempLog::new("corrupt");
        let path = &log_file.path;
        {
            let mut log = DeltaLog::open(path).unwrap();
            log.append(&(0..3).map(rec).collect::<Vec<_>>()).unwrap();
        }
        // Flip a byte inside the payload (past magic + frame header).
        let mut bytes = fs::read(path).unwrap();
        let at = bytes.len() - 5;
        bytes[at] ^= 0xff;
        fs::write(path, &bytes).unwrap();
        let log = DeltaLog::open(path).unwrap();
        assert_eq!(log.frames(), 0, "checksum failure drops the frame");
    }

    #[test]
    fn compaction_preserves_record_order() {
        let log_file = TempLog::new("compact");
        let path = &log_file.path;
        let mut log = DeltaLog::open(path).unwrap();
        for chunk in [0..3u64, 3..4, 4..9] {
            log.append(&chunk.map(rec).collect::<Vec<_>>()).unwrap();
        }
        let before = log.replay_records().unwrap();
        let size_before = fs::metadata(path).unwrap().len();
        log.compact().unwrap();
        assert_eq!(log.frames(), 1);
        assert_eq!(log.replay_records().unwrap(), before);
        assert!(fs::metadata(path).unwrap().len() <= size_before);
        // Reopen agrees.
        let reopened = DeltaLog::open(path).unwrap();
        assert_eq!(reopened.frames(), 1);
        assert_eq!(reopened.replay_records().unwrap(), before);
    }

    #[test]
    fn non_log_file_is_rejected() {
        let log_file = TempLog::new("badmagic");
        let path = &log_file.path;
        fs::write(path, b"definitely not a delta log").unwrap();
        assert!(DeltaLog::open(path).is_err());
    }
}
