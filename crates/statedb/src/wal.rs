//! Append-only commit write-ahead log.
//!
//! Every committed decision block is appended as one length-prefixed,
//! CRC-guarded record *before* the replica treats the commit as durable.
//! On reboot the log is replayed front to back; the first record that
//! fails its length or checksum guard marks the torn tail — everything
//! before it is kept, everything from it on is truncated away. A torn or
//! bit-flipped tail therefore costs at most the records after the last
//! clean one, never a panic and never a corrupt replay.
//!
//! The record payload is opaque to this module (the replication layer
//! stores its own wire encoding), keeping `sbft-statedb` free of protocol
//! types.
//!
//! # Crash consistency
//!
//! [`FsyncPolicy`] controls when appends reach stable storage:
//!
//! - `Always`: fsync after every append — a power failure loses nothing
//!   that was acknowledged.
//! - `Batch(n)` (default, n = 8): every `n` appends, an fsync is handed
//!   to a background helper thread, riding the protocol's group-commit
//!   batching while keeping the commit path off the disk. A process
//!   crash (the common chaos case) loses nothing — the OS page cache
//!   survives; a *power* failure may lose up to the last `n` committed
//!   blocks plus one in-flight fsync window, which the startup recovery
//!   handshake then re-fetches from peers.
//! - `Never`: rely on the OS flushing pages; cheapest, weakest.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bytes of the per-record header: `len: u32 LE` + `crc: u32 LE`.
const RECORD_HEADER: usize = 8;
/// Bytes of the record body prefix carrying the sequence number.
const SEQ_BYTES: usize = 8;
/// Upper bound on one record's body; anything larger is treated as tail
/// corruption rather than an allocation request.
const MAX_RECORD_LEN: u32 = 1 << 26;

/// The slice-by-8 CRC tables: `CRC_TABLES[0]` is the classic byte-wise
/// table, and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight table lookups fold eight input bytes at once.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// Folds `data` into the running (pre-inverted) CRC one byte at a time.
fn crc32_bytewise(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE 802.3 polynomial), the per-record integrity check.
/// Slice-by-8: eight bytes per step, the tail byte by byte.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    !crc32_bytewise(c, chunks.remainder())
}

/// When appends are forced to stable storage (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append.
    Always,
    /// fsync every `n` appends (group commit).
    Batch(u32),
    /// Never fsync explicitly.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::Batch(8)
    }
}

impl FsyncPolicy {
    /// Parses the config/CLI spelling: `always`, `never`, `batch`, or
    /// `batch:<n>`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            "batch" => Some(FsyncPolicy::default()),
            _ => {
                let n: u32 = s.strip_prefix("batch:")?.parse().ok()?;
                Some(FsyncPolicy::Batch(n.max(1)))
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => f.write_str("always"),
            FsyncPolicy::Batch(n) => write!(f, "batch:{n}"),
            FsyncPolicy::Never => f.write_str("never"),
        }
    }
}

/// One replayed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The sequence number the record was logged under.
    pub seq: u64,
    /// The opaque payload.
    pub payload: Vec<u8>,
}

/// The result of replaying a log image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// The intact records, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the intact prefix; the file is truncated here when
    /// `damage` is set.
    pub good_len: usize,
    /// Why replay stopped early, if it did.
    pub damage: Option<String>,
}

/// Appends one encoded record to `buf`:
/// `[len: u32 LE][crc: u32 LE][seq: u64 LE][payload]` where `len` covers
/// the seq + payload and `crc` guards those same bytes.
pub fn append_record(buf: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    let len = (SEQ_BYTES + payload.len()) as u32;
    let mut body = Vec::with_capacity(SEQ_BYTES + payload.len());
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(payload);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&crc32(&body).to_le_bytes());
    buf.extend_from_slice(&body);
}

/// Replays a log image front to back, stopping at the first record whose
/// length or checksum guard fails. Never panics on arbitrary input.
pub fn replay(bytes: &[u8]) -> WalReplay {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut damage = None;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        if rest.len() < RECORD_HEADER {
            damage = Some(format!("torn header: {} trailing bytes", rest.len()));
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if len < SEQ_BYTES as u32 || len > MAX_RECORD_LEN {
            damage = Some(format!("implausible record length {len}"));
            break;
        }
        let len = len as usize;
        if rest.len() < RECORD_HEADER + len {
            damage = Some(format!(
                "torn body: need {len} bytes, {} remain",
                rest.len() - RECORD_HEADER
            ));
            break;
        }
        let body = &rest[RECORD_HEADER..RECORD_HEADER + len];
        if crc32(body) != crc {
            damage = Some("checksum mismatch".to_string());
            break;
        }
        let seq = u64::from_le_bytes(body[..SEQ_BYTES].try_into().unwrap());
        records.push(WalRecord {
            seq,
            payload: body[SEQ_BYTES..].to_vec(),
        });
        offset += RECORD_HEADER + len;
    }
    WalReplay {
        records,
        good_len: offset,
        damage,
    }
}

/// A file-backed write-ahead log.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    policy: FsyncPolicy,
    unsynced: u32,
    /// Highest sequence appended or replayed (0 = empty log).
    tail_seq: u64,
    /// Lazily-spawned background fsync helper for `Batch` mode (see
    /// [`Wal::request_background_sync`]); `None` until first used.
    sync_tx: Option<std::sync::mpsc::SyncSender<File>>,
    /// Set when the helper thread could not be spawned — batch syncs
    /// then fall back to blocking inline.
    sync_inline_fallback: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replays it, truncates
    /// any torn tail, and returns the log handle plus the replay result.
    pub fn open(path: &Path, policy: FsyncPolicy) -> io::Result<(Wal, WalReplay)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let replayed = replay(&bytes);
        if replayed.damage.is_some() {
            file.set_len(replayed.good_len as u64)?;
        }
        file.seek(SeekFrom::Start(replayed.good_len as u64))?;
        let tail_seq = replayed.records.last().map_or(0, |r| r.seq);
        Ok((
            Wal {
                path: path.to_path_buf(),
                file,
                policy,
                unsynced: 0,
                tail_seq,
                sync_tx: None,
                sync_inline_fallback: false,
            },
            replayed,
        ))
    }

    /// Highest sequence number in the log (0 when empty).
    pub fn tail_seq(&self) -> u64 {
        self.tail_seq
    }

    /// Appends one record and applies the fsync policy.
    pub fn append(&mut self, seq: u64, payload: &[u8]) -> io::Result<()> {
        let mut buf = Vec::with_capacity(RECORD_HEADER + SEQ_BYTES + payload.len());
        append_record(&mut buf, seq, payload);
        self.file.write_all(&buf)?;
        self.tail_seq = self.tail_seq.max(seq);
        match self.policy {
            FsyncPolicy::Always => self.file.sync_data()?,
            FsyncPolicy::Batch(n) => {
                self.unsynced += 1;
                if self.unsynced >= n {
                    self.unsynced = 0;
                    self.request_background_sync();
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Hands one fsync to the background helper, spawning it on first
    /// use. The commit path never blocks on the disk: `sync_data` runs
    /// on the helper against a dup'd descriptor, and an fsync syncs
    /// everything written to the file by the time it executes, so
    /// coalescing is safe — when the one-slot queue is full, the queued
    /// fsync (which has not started yet) will cover these bytes too.
    /// Durability lag is therefore bounded by one batch plus one
    /// in-flight fsync; a power failure inside that window loses a tail
    /// the startup recovery handshake re-fetches from peers.
    fn request_background_sync(&mut self) {
        if self.sync_inline_fallback {
            let _ = self.file.sync_data();
            return;
        }
        if self.sync_tx.is_none() {
            let (tx, rx) = std::sync::mpsc::sync_channel::<File>(1);
            let spawned = std::thread::Builder::new()
                .name("wal-fsync".to_string())
                .spawn(move || {
                    // Exits when the sender side (the Wal) is dropped.
                    while let Ok(file) = rx.recv() {
                        let _ = file.sync_data();
                    }
                });
            match spawned {
                Ok(_) => self.sync_tx = Some(tx),
                Err(_) => {
                    self.sync_inline_fallback = true;
                    let _ = self.file.sync_data();
                    return;
                }
            }
        }
        let Ok(dup) = self.file.try_clone() else {
            let _ = self.file.sync_data();
            return;
        };
        if let Some(tx) = &self.sync_tx {
            // Full queue = an fsync is already pending; it covers us.
            let _ = tx.try_send(dup);
        }
    }

    /// Forces everything appended so far to stable storage (blocking —
    /// any in-flight background fsync is made redundant, not awaited:
    /// `sync_data` on the same file covers at least the same bytes).
    pub fn sync(&mut self) -> io::Result<()> {
        self.unsynced = 0;
        self.file.sync_data()
    }

    /// Drops records with `seq <= stable` by rewriting the live tail to a
    /// temporary file and renaming it into place (called when a stable
    /// checkpoint makes the prefix redundant).
    pub fn compact_through(&mut self, stable: u64) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes)?;
        let replayed = replay(&bytes);
        let mut out = Vec::new();
        for record in replayed.records.iter().filter(|record| record.seq > stable) {
            append_record(&mut out, record.seq, &record.payload);
        }
        let tmp = self.path.with_extension("wal.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.file.seek(SeekFrom::End(0))?;
        self.unsynced = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_crypto::SplitMix64;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sbft-wal-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("commit.wal")
    }

    fn cleanup(path: &Path) {
        if let Some(dir) = path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(!crc32_bytewise(!0, b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_slice_by_8_matches_bytewise() {
        let mut rng = SplitMix64::new(0xc3c3);
        let data: Vec<u8> = (0..2_000).map(|_| rng.next_u64() as u8).collect();
        for len in 0..=data.len() {
            let slice = &data[..len];
            assert_eq!(crc32(slice), !crc32_bytewise(!0, slice), "{len} bytes");
        }
    }

    #[test]
    fn append_and_replay_round_trip() {
        let mut buf = Vec::new();
        for seq in 1..=20u64 {
            append_record(&mut buf, seq, format!("payload-{seq}").as_bytes());
        }
        let replayed = replay(&buf);
        assert!(replayed.damage.is_none());
        assert_eq!(replayed.good_len, buf.len());
        assert_eq!(replayed.records.len(), 20);
        assert_eq!(replayed.records[4].seq, 5);
        assert_eq!(replayed.records[4].payload, b"payload-5");
    }

    #[test]
    fn torn_tail_truncates_and_continues() {
        let mut buf = Vec::new();
        for seq in 1..=10u64 {
            append_record(&mut buf, seq, &[seq as u8; 100]);
        }
        let full = buf.len();
        // Every possible torn length keeps an intact prefix and never
        // panics; the number of surviving records is exactly the number
        // of whole records that fit before the cut.
        for cut in 0..full {
            let replayed = replay(&buf[..cut]);
            assert!(replayed.good_len <= cut);
            let whole = cut / (full / 10);
            assert_eq!(replayed.records.len(), whole, "cut at {cut}");
            if cut % (full / 10) != 0 {
                assert!(replayed.damage.is_some(), "cut at {cut} must be damage");
            }
        }
    }

    #[test]
    fn seeded_bit_flips_never_panic_and_keep_clean_prefix() {
        let mut rng = SplitMix64::new(0xDA7A_10E5);
        for round in 0..64 {
            let mut buf = Vec::new();
            let records = 1 + (rng.next_u64() % 12) as usize;
            for seq in 1..=records as u64 {
                let len = (rng.next_u64() % 200) as usize;
                let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                append_record(&mut buf, seq, &payload);
            }
            let pos = (rng.next_u64() as usize) % buf.len();
            let bit = 1u8 << (rng.next_u64() % 8);
            buf[pos] ^= bit;
            let replayed = replay(&buf);
            // The flipped byte can only damage the record containing it
            // (or a later one, if it flipped a length field that made a
            //  record swallow its successors); earlier records survive.
            for (i, record) in replayed.records.iter().enumerate() {
                assert_eq!(record.seq, i as u64 + 1, "round {round}");
            }
            assert!(replayed.good_len <= buf.len());
        }
    }

    #[test]
    fn file_wal_reopens_with_tail_truncation() {
        let path = temp_path("reopen");
        {
            let (mut wal, replayed) = Wal::open(&path, FsyncPolicy::Always).unwrap();
            assert!(replayed.records.is_empty());
            for seq in 1..=5u64 {
                wal.append(seq, &[seq as u8; 32]).unwrap();
            }
        }
        // Tear the tail mid-record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        {
            let (mut wal, replayed) = Wal::open(&path, FsyncPolicy::default()).unwrap();
            assert_eq!(replayed.records.len(), 4, "torn record dropped");
            assert!(replayed.damage.is_some());
            assert_eq!(wal.tail_seq(), 4);
            // The truncated file accepts fresh appends cleanly.
            wal.append(5, b"rewritten").unwrap();
            wal.sync().unwrap();
        }
        let (_, replayed) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        assert!(replayed.damage.is_none());
        assert_eq!(replayed.records.len(), 5);
        assert_eq!(replayed.records[4].payload, b"rewritten");
        cleanup(&path);
    }

    #[test]
    fn compaction_drops_stable_prefix() {
        let path = temp_path("compact");
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        for seq in 1..=30u64 {
            wal.append(seq, &[0u8; 64]).unwrap();
        }
        wal.compact_through(20).unwrap();
        wal.append(31, b"after-compaction").unwrap();
        wal.sync().unwrap();
        let (wal, replayed) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(replayed.records.first().unwrap().seq, 21);
        assert_eq!(replayed.records.last().unwrap().seq, 31);
        assert_eq!(wal.tail_seq(), 31);
        cleanup(&path);
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("batch"), Some(FsyncPolicy::default()));
        assert_eq!(FsyncPolicy::parse("batch:3"), Some(FsyncPolicy::Batch(3)));
        assert_eq!(FsyncPolicy::parse("batch:0"), Some(FsyncPolicy::Batch(1)));
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::Batch(8).to_string(), "batch:8");
    }
}
