//! Corruption corpus for the WAL reader, mirroring
//! `index_corruption.rs`: recovery must *never* panic on arbitrary
//! bytes, every single-byte truncation must come back as the longest
//! valid record prefix, CRC must catch bit flips in record bodies, and
//! a flipped length field must never make the reader over-read or
//! mis-frame the stream. A checkpoint's folded-edge file goes through
//! the same reader but is held to more: any truncation or bit flip is
//! an error, never a shorter list.

use hop_doubling::extmem::device::TempStore;
use hop_doubling::extmem::IoStats;
use hop_doubling::hopdb_server::wal::{
    encode_folded, read_folded, read_wal, Durability, Wal, WalEdge, FOLDED_EXT, RECORD_HEADER_LEN,
    WAL_HEADER_LEN,
};
use std::path::PathBuf;

/// The reference batches every test writes: four records of varying
/// sizes, including a single-edge and a larger one.
fn corpus_batches() -> Vec<Vec<WalEdge>> {
    vec![
        vec![(1, 2, 3)],
        vec![(10, 20, 1), (30, 40, 2), (50, 60, 7)],
        (0..17).map(|i| (i, i + 1, 1)).collect(),
        vec![(7, 7, 9), (8, 9, 1)],
    ]
}

/// Write the corpus to a fresh WAL file in a scratch directory of the
/// test's own and return the directory, the file and its raw bytes. The
/// directory goes when it drops: a panicking test leaves nothing behind.
fn corpus_bytes(epoch: u64) -> (TempStore, PathBuf, Vec<u8>) {
    let store = TempStore::new().expect("scratch directory");
    let path = store.dir().join("wal");
    let mut wal = Wal::create(&path, epoch, Durability::Off, IoStats::shared()).expect("create");
    for batch in corpus_batches() {
        wal.append(&batch).expect("append");
    }
    wal.sync().expect("sync");
    let bytes = std::fs::read(&path).expect("read back");
    (store, path, bytes)
}

/// Byte offsets where each record starts, and the total record count.
fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut bounds = vec![WAL_HEADER_LEN as usize];
    let mut pos = WAL_HEADER_LEN as usize;
    while pos + RECORD_HEADER_LEN as usize <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += RECORD_HEADER_LEN as usize + len;
        bounds.push(pos);
    }
    bounds
}

#[test]
fn every_single_byte_truncation_recovers_the_longest_valid_prefix() {
    let (_store, path, bytes) = corpus_bytes(3);
    let bounds = record_boundaries(&bytes);
    let batches = corpus_batches();
    for cut in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let replay = read_wal(&path, IoStats::shared()).expect("read_wal never errors on garbage");
        if cut < WAL_HEADER_LEN as usize {
            // No complete header: the file reads as absent.
            assert_eq!(replay.epoch, None, "cut={cut}");
            assert!(replay.batches.is_empty(), "cut={cut}");
            assert_eq!(replay.dropped_bytes, cut as u64, "cut={cut}");
        } else {
            // The longest prefix of whole records at or before the cut.
            let want = bounds.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(replay.epoch, Some(3), "cut={cut}");
            assert_eq!(replay.batches, batches[..want].to_vec(), "cut={cut}");
            assert_eq!(replay.valid_len, bounds[want] as u64, "cut={cut}");
            assert_eq!(replay.dropped_bytes, (cut - bounds[want]) as u64, "cut={cut}");
        }
    }
}

#[test]
fn every_single_bit_flip_is_caught_or_isolated() {
    let (_store, path, bytes) = corpus_bytes(9);
    let batches = corpus_batches();
    // Sweep every byte of the file; every bit of the smaller records'
    // region would be slow × 8, one rotating bit per byte is plenty.
    for at in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[at] ^= 1 << (at % 8);
        std::fs::write(&path, &mutated).unwrap();
        let replay = read_wal(&path, IoStats::shared()).expect("read_wal never errors on garbage");
        if at < 8 {
            // Magic damaged: whole file reads as absent.
            assert_eq!(replay.epoch, None, "at={at}");
        } else if at < WAL_HEADER_LEN as usize {
            // Epoch field: structurally valid, epoch merely differs —
            // recovery rejects it against the manifest.
            assert_ne!(replay.epoch, Some(9), "at={at}");
            assert_eq!(replay.batches, batches, "at={at}");
        } else {
            // A flip in the record region must never fabricate a batch:
            // the replayed prefix is exactly some prefix of what was
            // written (CRC kills the damaged record and the reader
            // stops there).
            assert_eq!(replay.epoch, Some(9), "at={at}");
            assert!(replay.batches.len() < batches.len() || replay.batches == batches, "at={at}");
            assert_eq!(replay.batches, batches[..replay.batches.len()].to_vec(), "at={at}");
            assert!(replay.valid_len + replay.dropped_bytes == bytes.len() as u64, "at={at}");
        }
    }
}

#[test]
fn flipped_length_fields_never_over_read() {
    let (_store, path, bytes) = corpus_bytes(1);
    let first_len_off = WAL_HEADER_LEN as usize;
    // Overwrite the first record's length with hostile values: huge,
    // zero, structurally implausible, and "plausible but beyond EOF".
    for hostile in [u32::MAX, 0, 3, 4 + 12 * 1_000_000, bytes.len() as u32 * 2] {
        let mut mutated = bytes.clone();
        mutated[first_len_off..first_len_off + 4].copy_from_slice(&hostile.to_le_bytes());
        std::fs::write(&path, &mutated).unwrap();
        let replay = read_wal(&path, IoStats::shared()).expect("never errors");
        // The damaged record and everything after it are dropped; no
        // allocation or read beyond the file can have happened because
        // the call returned quickly and cleanly.
        assert_eq!(replay.epoch, Some(1), "len={hostile}");
        assert!(replay.batches.is_empty(), "len={hostile}");
        assert_eq!(replay.valid_len, WAL_HEADER_LEN, "len={hostile}");
    }
}

#[test]
fn random_garbage_files_never_panic() {
    let store = TempStore::new().expect("scratch directory");
    let path = store.dir().join("garbage");
    // Deterministic xorshift noise at several sizes, plus a valid
    // header followed by noise.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for size in [0usize, 1, 7, 16, 17, 64, 4096] {
        let noise: Vec<u8> = (0..size).map(|_| next() as u8).collect();
        std::fs::write(&path, &noise).unwrap();
        let replay = read_wal(&path, IoStats::shared()).expect("garbage is not an I/O error");
        assert!(replay.batches.is_empty(), "size={size}");

        let mut headed = Vec::new();
        headed.extend_from_slice(b"HOPWAL01");
        headed.extend_from_slice(&42u64.to_le_bytes());
        headed.extend_from_slice(&noise);
        std::fs::write(&path, &headed).unwrap();
        let replay = read_wal(&path, IoStats::shared()).expect("garbage is not an I/O error");
        assert_eq!(replay.epoch, Some(42), "size={size}");
        assert!(replay.batches.is_empty(), "size={size}");
        assert_eq!(replay.valid_len, WAL_HEADER_LEN, "size={size}");
    }
}

#[test]
fn a_damaged_folded_edge_file_is_an_error_never_a_shorter_list() {
    let store = TempStore::new().expect("scratch directory");
    let image = store.dir().join("folded.idx");
    let path = store.dir().join(format!("folded.idx{FOLDED_EXT}"));
    let read = |epoch| read_folded(&image, epoch);
    let edges: Vec<WalEdge> = corpus_batches().concat();

    assert!(read(5).expect("no sibling").is_empty(), "no sibling = nothing folded");
    let bytes = encode_folded(5, &edges);
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(read(5).expect("intact"), edges);
    std::fs::write(&path, encode_folded(5, &[])).unwrap();
    assert!(read(5).expect("empty but closed").is_empty());

    let refused = |what: String| {
        let err = read(5).expect_err(&what);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
        assert!(err.to_string().contains("folded.idx.edges"), "{what}: {err}");
    };
    // The log tolerates a torn tail; here every cut — the record
    // boundaries included — must be refused.
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        refused(format!("cut={cut}"));
    }
    for at in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[at] ^= 1 << (at % 8);
        std::fs::write(&path, &mutated).unwrap();
        refused(format!("flip at={at}"));
    }
    // Another epoch's file under this image's name.
    std::fs::write(&path, encode_folded(6, &edges)).unwrap();
    refused("epoch 6 under epoch 5".to_string());
}
