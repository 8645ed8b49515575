//! Torn-tail property, proved exhaustively: a WAL image cut at EVERY
//! byte offset (and corrupted at every byte offset) replays without
//! panicking, yields exactly the committed frame prefix, and — after
//! the recovery-time tail repair — accepts new appends that survive
//! the next replay.

use std::sync::Arc;

use lsdf_durability::{parse_frames, DurableLog, DurableStore, FRAME_HEADER_LEN};
use lsdf_obs::Registry;

/// Patterned records of awkward sizes: empty, tiny, header-sized,
/// and multi-header payloads.
fn records() -> Vec<Vec<u8>> {
    [0usize, 1, 7, FRAME_HEADER_LEN, 32, 255, 9]
        .iter()
        .enumerate()
        .map(|(i, &len)| (0..len).map(|j| (i * 31 + j) as u8).collect())
        .collect()
}

/// Writes the records through a real log and returns the durable
/// segment image plus the cumulative frame-boundary offsets.
fn committed_image() -> (Vec<u8>, Vec<usize>) {
    let store = DurableStore::new();
    let log = DurableLog::open(store.clone(), "t", &Arc::new(Registry::new()));
    let mut boundaries = vec![0usize];
    for r in records() {
        log.append_commit(&r);
        boundaries.push(boundaries.last().unwrap() + FRAME_HEADER_LEN + r.len());
    }
    let bytes = store.get("t-wal-00000000").expect("segment 0 exists").read();
    assert_eq!(bytes.len(), *boundaries.last().unwrap());
    (bytes, boundaries)
}

/// Frames wholly committed below `cut`.
fn expect_prefix(boundaries: &[usize], cut: usize) -> usize {
    boundaries.iter().filter(|&&b| b != 0 && b <= cut).count()
}

#[test]
fn truncation_at_every_byte_offset_replays_the_committed_prefix() {
    let all = records();
    let (bytes, boundaries) = committed_image();
    for cut in 0..=bytes.len() {
        let want = expect_prefix(&boundaries, cut);
        // Pure parser: exact prefix, torn iff the cut split a frame.
        let (parsed, torn) = parse_frames(&bytes[..cut]);
        assert_eq!(parsed.len(), want, "cut={cut}");
        assert_eq!(parsed, all[..want].to_vec(), "cut={cut}");
        assert_eq!(torn, !boundaries.contains(&cut), "cut={cut}");

        // Full log recovery over a device truncated at the same offset.
        let store = DurableStore::new();
        store.open("t-wal-00000000").set(&bytes[..cut]);
        let log = DurableLog::open(store.clone(), "t", &Arc::new(Registry::new()));
        let r = log.replay_from(0);
        assert_eq!(r.records, all[..want].to_vec(), "cut={cut}");
        assert_eq!(r.torn_tails, u64::from(torn), "cut={cut}");
        // The repair leaves the log appendable: an ack'd write after
        // recovery survives the next replay at every cut point.
        log.append_commit(b"post-recovery");
        let r2 = log.replay_from(0);
        assert_eq!(r2.records.len(), want + 1, "cut={cut}");
        assert_eq!(r2.records[want], b"post-recovery".to_vec(), "cut={cut}");
        assert_eq!(r2.torn_tails, 0, "cut={cut} tail not repaired");
    }
}

#[test]
fn corruption_at_every_byte_offset_never_panics_and_never_invents_records() {
    let all = records();
    let (bytes, _) = committed_image();
    for pos in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0xFF;
        let (parsed, torn) = parse_frames(&corrupted);
        // A flipped byte can only shorten the committed prefix — replay
        // must never fabricate or reorder records past the damage.
        assert!(torn, "pos={pos}: corruption must mark the tail torn");
        assert!(
            parsed.len() < all.len() && parsed == all[..parsed.len()].to_vec(),
            "pos={pos}: parsed a non-prefix after corruption"
        );
    }
}
