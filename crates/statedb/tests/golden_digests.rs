//! Golden outputs of the hash kernels under the authenticated state.
//!
//! Trie roots, Merkle roots, WAL record checksums and snapshot seals are
//! persisted and exchanged between replicas, so every SHA-256 and CRC-32
//! kernel must produce exactly these bytes. The values were computed with
//! the portable byte-at-a-time kernels; data directories written by them
//! must still recover.

use sbft_crypto::{sha256, MerkleTree};
use sbft_statedb::{append_record, crc32, replay, AuthKv, Snapshot};
use sbft_types::SeqNum;

fn sample_state() -> AuthKv {
    let mut kv = AuthKv::new();
    for i in 0..200u32 {
        kv.insert(
            format!("key-{i}").into_bytes(),
            format!("value-{}", i * i).into_bytes(),
        );
    }
    kv
}

#[test]
fn authkv_root_is_unchanged() {
    assert_eq!(
        sample_state().root().to_hex(),
        "d35a3a7e9a35fe63f18548d78311ca1be69414bc6aa87c6882c64d7928c8865d"
    );
}

#[test]
fn merkle_root_is_unchanged() {
    let leaves: Vec<Vec<u8>> = (0..37u32).map(|i| vec![i as u8; i as usize]).collect();
    assert_eq!(
        MerkleTree::from_leaves(&leaves).root().to_hex(),
        "f6c22a2c87046f9b2e7ae98d27c4caa511fc9117e2831514e28e211d17cca4e4"
    );
}

#[test]
fn v2_snapshot_seal_is_unchanged() {
    let kv = sample_state();
    let snapshot = Snapshot::of_checkpoint(
        SeqNum::new(42),
        sha256(b"state digest"),
        kv.root(),
        sha256(b"results root"),
        Some(vec![1, 2, 3]),
        &kv,
    );
    let bytes = snapshot.encode();
    assert_eq!(bytes.len(), 3869);
    let seal = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    assert_eq!(seal, 0x3148_6121);
    assert_eq!(
        sha256(&bytes).to_hex(),
        "99c29266b1d536d77e755516f696f26246c486281d821572dbd1b3ef00069799"
    );
    assert_eq!(Snapshot::decode(&bytes).unwrap(), snapshot);
}

#[test]
fn wal_record_crc_is_unchanged() {
    let mut wal = Vec::new();
    append_record(&mut wal, 7, &[0x5a; 300]);
    assert_eq!(
        u32::from_le_bytes(wal[4..8].try_into().unwrap()),
        0x7d27_af76
    );
    let replayed = replay(&wal);
    assert!(replayed.damage.is_none());
    assert_eq!(replayed.records.len(), 1);
}

#[test]
fn long_input_digests_are_unchanged() {
    let data: Vec<u8> = (0..100_000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    assert_eq!(crc32(&data), 0xf1ca_8ad9);
    assert_eq!(
        sha256(&data).to_hex(),
        "e24ae9cbcc7500392dfa5d018f63f0bf87232dc30ae5996d8ca6b25c2ae4b665"
    );
}
