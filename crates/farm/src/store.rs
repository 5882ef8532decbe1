//! Persistent content-addressed result store.
//!
//! One file per simulation, in a flat directory (`EHSIM_RESULT_STORE`
//! points the sweep executor here). The filename is the 64-bit FNV-1a
//! fingerprint of the [`SimKey`]; the body carries the *full* key, so
//! a fingerprint collision is detected on load and treated as a miss —
//! a collision can cost a redundant simulation, never a wrong report.
//!
//! ## File format (`.ehres`, version 1)
//!
//! Magic, version byte, decode walk and a trailing FNV-1a checksum,
//! little-endian throughout:
//!
//! ```text
//! [0..8)   magic  b"EHRESLT" + version byte 0x01
//! [8..12)  key-encoding version (KEY_VERSION, u32)
//! [12..16) key word count (u32, sanity-bounded)
//! ...      key words (u64 each)
//! ...      payload length (u64, sanity-bounded)
//! ...      payload: the encoded Report (see `codec`)
//! ...      FNV-1a over bytes [8..checksum) (u64)
//! ```
//!
//! ## Trust model
//!
//! Load never trusts a file: magic, format version, key-encoding
//! version, embedded key equality, length bounds, whole-body checksum
//! and a full decode walk all precede a hit. *Every* failure mode is a
//! [`LoadOutcome::Reject`] (or a plain `Miss` for an absent file) and
//! the caller falls back to execution — a corrupt store can make a
//! sweep slower, never wrong, and never panics.
//!
//! Load reads at most one byte past the largest well-formed entry, so an
//! oversized or sparse file in the store directory is rejected without
//! being read whole.
//!
//! Writes go through a temp file + rename so a crash mid-write (the
//! `store_resume` test SIGKILLs a sweep mid-run) leaves either no entry
//! or a complete one; concurrent writers of the same key race benignly
//! because both write identical bytes (simulation is deterministic).

use crate::codec::{decode_report, encode_report};
use crate::key::{SimKey, KEY_VERSION};
use ehsim::Report;
use std::io::{Read, Write};
use std::path::PathBuf;

/// File magic: 7 identifying bytes + a format version byte.
pub const STORE_MAGIC: [u8; 8] = *b"EHRESLT\x01";

/// On-disk format version (the last magic byte). Bump on any layout
/// change; old files then fail the version check and fall back to
/// execution.
pub const STORE_VERSION: u8 = 1;

/// Sanity bound on the embedded key word count (real keys are ~40
/// words).
const MAX_KEY_WORDS: u32 = 4096;

/// Sanity bound on the payload length (real payloads are < 1 KiB).
const MAX_PAYLOAD: u64 = 16 << 20;

/// Size of the largest well-formed entry: magic, key-encoding version
/// and word count, a maximal key, the payload length, a maximal payload
/// and the checksum.
const MAX_ENTRY: u64 = 8 + 8 + MAX_KEY_WORDS as u64 * 8 + 8 + MAX_PAYLOAD + 8;

/// Result of a store lookup.
#[derive(Debug)]
pub enum LoadOutcome {
    /// Entry present, fully validated; the decoded report.
    Hit(Box<Report>),
    /// No entry on disk for this key.
    Miss,
    /// An entry exists but failed validation (truncated, corrupt,
    /// wrong format or key-encoding version, fingerprint collision).
    /// The caller must fall back to execution.
    Reject(String),
}

/// A directory of `.ehres` entries.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Opens (without touching the filesystem) a store rooted at
    /// `dir`; the directory is created lazily on first save.
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// Entry path for `key` (exposed so tests can truncate or corrupt
    /// entries deliberately).
    pub fn path_for(&self, key: &SimKey) -> PathBuf {
        self.dir.join(format!("{:016x}.ehres", key.fingerprint()))
    }

    /// Looks up `key`, fully revalidating any on-disk entry.
    pub fn load(&self, key: &SimKey) -> LoadOutcome {
        let path = self.path_for(key);
        let mut bytes = Vec::new();
        match std::fs::File::open(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Miss,
            Err(e) => return LoadOutcome::Reject(format!("open {}: {e}", path.display())),
            Ok(f) => {
                if let Err(e) = f.take(MAX_ENTRY + 1).read_to_end(&mut bytes) {
                    return LoadOutcome::Reject(format!("read {}: {e}", path.display()));
                }
            }
        }
        if bytes.len() as u64 > MAX_ENTRY {
            return LoadOutcome::Reject(format!(
                "{}: file exceeds the {MAX_ENTRY}-byte entry bound",
                path.display()
            ));
        }
        match validate(&bytes, key) {
            Ok(report) => LoadOutcome::Hit(Box::new(report)),
            Err(reason) => LoadOutcome::Reject(format!("{}: {reason}", path.display())),
        }
    }

    /// Writes `report` under `key` (temp file + rename). Errors are
    /// returned so callers can warn, but a failed save must never fail
    /// a sweep — the result is still in memory.
    pub fn save(&self, key: &SimKey, report: &Report) -> std::io::Result<()> {
        let bytes = serialize(key, report)
            .map_err(|reason| std::io::Error::new(std::io::ErrorKind::InvalidInput, reason))?;
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(key);
        let tmp = self.dir.join(format!(
            ".{:016x}.tmp.{}",
            key.fingerprint(),
            std::process::id()
        ));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)
    }
}

/// Serializes one entry: header, key, payload, trailing checksum.
fn serialize(key: &SimKey, report: &Report) -> Result<Vec<u8>, String> {
    let mut payload = Vec::new();
    encode_report(report, &mut payload)?;
    let words = key.words();
    let mut out = Vec::with_capacity(16 + words.len() * 8 + payload.len() + 16);
    out.extend_from_slice(&STORE_MAGIC);
    out.extend_from_slice(&KEY_VERSION.to_le_bytes());
    out.extend_from_slice(&(words.len() as u32).to_le_bytes());
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let sum = fnv1a(&out[8..]);
    out.extend_from_slice(&sum.to_le_bytes());
    Ok(out)
}

/// Full validation walk: every check a hostile or half-written file
/// could fail, in cheapest-first order.
fn validate(bytes: &[u8], key: &SimKey) -> Result<Report, String> {
    if bytes.len() < 8 || bytes[..7] != STORE_MAGIC[..7] {
        return Err("not a result-store file (bad magic)".into());
    }
    if bytes[7] != STORE_VERSION {
        return Err(format!(
            "unsupported result format version {} (expected {})",
            bytes[7], STORE_VERSION
        ));
    }
    if bytes.len() < 16 + 8 {
        return Err("truncated header".into());
    }
    let body = &bytes[8..bytes.len() - 8];
    let stored_sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if fnv1a(body) != stored_sum {
        return Err("checksum mismatch (truncated or corrupted file)".into());
    }
    let key_version = u32::from_le_bytes(body[..4].try_into().expect("4 bytes"));
    if key_version != KEY_VERSION {
        return Err(format!(
            "stale key-encoding version {key_version} (current {KEY_VERSION})"
        ));
    }
    let word_count = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
    if word_count > MAX_KEY_WORDS {
        return Err(format!("key word count {word_count} exceeds sanity bound"));
    }
    let words_end = 8usize
        .checked_add(word_count as usize * 8)
        .filter(|&e| e + 8 <= body.len())
        .ok_or("truncated key block")?;
    let words: Vec<u64> = body[8..words_end]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    if words != key.words() {
        return Err("key mismatch (fingerprint collision or corrupted file)".into());
    }
    let payload_len = u64::from_le_bytes(body[words_end..words_end + 8].try_into().expect("8"));
    if payload_len > MAX_PAYLOAD {
        return Err(format!("payload length {payload_len} exceeds sanity bound"));
    }
    let payload_start = words_end + 8;
    let payload_end = payload_start
        .checked_add(payload_len as usize)
        .filter(|&e| e == body.len())
        .ok_or("payload length disagrees with file size")?;
    decode_report(&body[payload_start..payload_end])
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::sim_key;
    use ehsim::SimConfig;
    use ehsim_workloads::Scale;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ehres_store_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample() -> (SimKey, Report) {
        let key = sim_key(&SimConfig::wl_cache(), 2, Scale::Small).unwrap();
        let report = crate::codec::tests::sample_report(true);
        (key, report)
    }

    #[test]
    fn save_then_load_round_trips() {
        let store = ResultStore::open(tmpdir("roundtrip"));
        let (key, report) = sample();
        assert!(matches!(store.load(&key), LoadOutcome::Miss));
        store.save(&key, &report).unwrap();
        match store.load(&key) {
            LoadOutcome::Hit(r) => assert_eq!(*r, report),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    /// Asserts the store's decode property on one candidate file: a
    /// reject, or a report identical to the one saved — never a panic.
    fn assert_reject_or_identical(bytes: &[u8], key: &SimKey, report: &Report, what: &str) {
        if let Ok(r) = validate(bytes, key) {
            assert_eq!(&r, report, "{what} decoded to a different report");
        }
    }

    #[test]
    fn every_byte_mutation_and_truncation_rejects_or_round_trips() {
        let (key, report) = sample();
        let full = serialize(&key, &report).unwrap();
        for at in 0..full.len() {
            for x in [0x01, 0x80, 0xff] {
                let mut bad = full.clone();
                bad[at] ^= x;
                assert_reject_or_identical(&bad, &key, &report, &format!("byte {at} ^ {x:#04x}"));
            }
        }
        for cut in 0..full.len() {
            assert_reject_or_identical(&full[..cut], &key, &report, &format!("prefix {cut}"));
        }
        // The file path agrees: a truncated entry on disk is rejected.
        let store = ResultStore::open(tmpdir("trunc"));
        store.save(&key, &report).unwrap();
        std::fs::write(store.path_for(&key), &full[..full.len() - 1]).unwrap();
        assert!(matches!(store.load(&key), LoadOutcome::Reject(_)));
    }

    /// Byte mutations with the checksum re-sealed, so each one reaches
    /// the key comparison and `decode_report` instead of stopping at
    /// the FNV check. The checksum is what catches a changed counter: a
    /// re-sealed payload flip can decode to a valid but different
    /// report. The decoder's property is that it accepts only canonical
    /// payloads: any report it returns re-serializes to exactly the
    /// mutated file.
    #[test]
    fn resealed_mutations_reject_or_decode_canonically() {
        let (key, report) = sample();
        let full = serialize(&key, &report).unwrap();
        let payload_start = 16 + key.words().len() * 8 + 8;
        let body_end = full.len() - 8;
        let (mut rejected, mut decoded) = (0, 0);
        for at in 8..body_end {
            for x in [0x01, 0x80, 0xff] {
                let mut bad = full.clone();
                bad[at] ^= x;
                let sum = fnv1a(&bad[8..body_end]);
                bad[body_end..].copy_from_slice(&sum.to_le_bytes());
                match validate(&bad, &key) {
                    Err(_) => rejected += 1,
                    Ok(r) => {
                        decoded += 1;
                        assert!(at >= payload_start, "header byte {at} ^ {x:#04x} accepted");
                        assert_eq!(
                            serialize(&key, &r).unwrap(),
                            bad,
                            "byte {at} ^ {x:#04x} decoded to a non-canonical report"
                        );
                    }
                }
            }
        }
        assert!(
            rejected > 0 && decoded > 0,
            "{rejected} rejected, {decoded} decoded"
        );
    }

    #[test]
    fn oversized_file_rejects_without_being_read_whole() {
        let store = ResultStore::open(tmpdir("oversized"));
        let (key, report) = sample();
        store.save(&key, &report).unwrap();
        let path = store.path_for(&key);
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        // A valid entry extended by a sparse hole: only the first
        // MAX_ENTRY + 1 bytes are read, then the size bound rejects.
        for len in [8 * MAX_ENTRY, MAX_ENTRY + 1] {
            f.set_len(len).unwrap();
            match store.load(&key) {
                LoadOutcome::Reject(msg) => assert!(msg.contains("entry bound"), "{len}: {msg}"),
                other => panic!("{len} bytes: expected reject, got {other:?}"),
            }
        }
        // At the bound itself, the content checks reject instead.
        f.set_len(MAX_ENTRY).unwrap();
        match store.load(&key) {
            LoadOutcome::Reject(msg) => assert!(!msg.contains("entry bound"), "{msg}"),
            other => panic!("expected reject, got {other:?}"),
        }
    }

    #[test]
    fn wrong_format_version_rejects() {
        let store = ResultStore::open(tmpdir("ver"));
        let (key, report) = sample();
        store.save(&key, &report).unwrap();
        let path = store.path_for(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[7] = STORE_VERSION + 1;
        std::fs::write(&path, &bytes).unwrap();
        match store.load(&key) {
            LoadOutcome::Reject(msg) => assert!(msg.contains("format version"), "{msg}"),
            other => panic!("expected reject, got {other:?}"),
        }
    }

    #[test]
    fn stale_key_version_rejects() {
        let store = ResultStore::open(tmpdir("keyver"));
        let (key, report) = sample();
        store.save(&key, &report).unwrap();
        let path = store.path_for(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        // Rewrite the embedded key-encoding version and re-seal the
        // checksum so only the version check can reject.
        bytes[8..12].copy_from_slice(&(KEY_VERSION + 1).to_le_bytes());
        let body_end = bytes.len() - 8;
        let sum = fnv1a(&bytes[8..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match store.load(&key) {
            LoadOutcome::Reject(msg) => assert!(msg.contains("key-encoding"), "{msg}"),
            other => panic!("expected reject, got {other:?}"),
        }
    }

    #[test]
    fn other_keys_entry_is_a_key_mismatch() {
        let store = ResultStore::open(tmpdir("collide"));
        let (key, report) = sample();
        let other = sim_key(&SimConfig::wl_cache(), 3, Scale::Small).unwrap();
        store.save(&key, &report).unwrap();
        // Simulate a fingerprint collision: move the entry to the
        // other key's filename.
        std::fs::rename(store.path_for(&key), store.path_for(&other)).unwrap();
        match store.load(&other) {
            LoadOutcome::Reject(msg) => assert!(msg.contains("key mismatch"), "{msg}"),
            other => panic!("expected reject, got {other:?}"),
        }
    }
}
