//! [`ComponentDurability`] — the one-stop handle a stateful component
//! (namenode, metadata store) holds to get WAL + checkpoints + recovery
//! without re-implementing the epoch dance.
//!
//! Protocol per component:
//!
//! * every acked mutation calls [`ComponentDurability::log`] with a
//!   canonical record *before* returning to the caller;
//! * a background reconciler polls [`ComponentDurability::should_checkpoint`]
//!   and calls [`ComponentDurability::checkpoint_with`] with a canonical
//!   full-state snapshot;
//! * after a crash, [`ComponentDurability::replay`] hands the latest
//!   verified checkpoint and then each committed WAL record of the
//!   suffix to the component, which applies them idempotently, and
//!   returns the [`RecoveryStats`] every component reports.

use crate::checkpoint::CheckpointStore;
use crate::device::DurableStore;
use crate::log::{DurableLog, WalConfig};
use lsdf_obs::names;
use lsdf_obs::{Counter, Histogram, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Modeled cost of applying one replayed record during recovery.
const REPLAY_NS_PER_RECORD: u64 = 1_000;
/// Modeled fixed cost of opening the log + manifest during recovery.
const RECOVERY_BASE_NS: u64 = 20_000;

/// Facility-level durability tuning, shared by every component.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityConfig {
    /// Modeled single-fsync latency (see [`WalConfig::fsync_ns`]).
    pub fsync_ns: u64,
    /// Records per accounted fsync (see [`WalConfig::group_commit`]).
    pub group_commit: u64,
    /// Checkpoint after this many WAL records since the last one.
    pub checkpoint_every: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self { fsync_ns: 50_000, group_commit: 8, checkpoint_every: 4_096 }
    }
}

/// What one [`ComponentDurability::replay`] pass did. The counts are
/// the ones the registry records: `replayed` matches
/// `recovery_replayed_records_total` and `skipped` matches
/// `recovery_skipped_records_total`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// A verified checkpoint was installed as the replay base.
    pub snapshot_loaded: bool,
    /// Committed WAL records read back and replayed over the base.
    pub replayed: u64,
    /// Replayed records whose effect was already present (a subset of
    /// `replayed`).
    pub skipped: u64,
    /// Segments that ended in a torn (never-acked) frame.
    pub torn_tails: u64,
}

struct RecoveryObs {
    runs: Counter,
    replayed: Counter,
    skipped: Counter,
    latency: Histogram,
}

/// WAL + checkpoint + recovery bundle for one named component.
pub struct ComponentDurability {
    log: DurableLog,
    ckpts: CheckpointStore,
    checkpoint_every: u64,
    since_ckpt: AtomicU64,
    obs: RecoveryObs,
}

impl ComponentDurability {
    /// Opens (or creates) the durable state for component `name`.
    pub fn open(
        store: &DurableStore,
        name: &str,
        registry: &Arc<Registry>,
        cfg: &DurabilityConfig,
    ) -> Self {
        let wal_cfg = WalConfig { fsync_ns: cfg.fsync_ns, group_commit: cfg.group_commit };
        let labels = &[("log", name)];
        let obs = RecoveryObs {
            runs: registry.counter(names::RECOVERY_RUNS_TOTAL, labels),
            replayed: registry.counter(names::RECOVERY_REPLAYED_RECORDS_TOTAL, labels),
            skipped: registry.counter(names::RECOVERY_SKIPPED_RECORDS_TOTAL, labels),
            latency: registry.histogram(names::RECOVERY_LATENCY_NS, labels),
        };
        Self {
            log: DurableLog::open(store.clone(), name, registry, wal_cfg),
            ckpts: CheckpointStore::open(store.clone(), name, registry),
            checkpoint_every: cfg.checkpoint_every.max(1),
            since_ckpt: AtomicU64::new(0),
            obs,
        }
    }

    /// Durably commits one mutation record; the mutation may ack once
    /// this returns.
    pub fn log(&self, payload: &[u8]) {
        self.log.append_commit(payload);
        self.since_ckpt.fetch_add(1, Ordering::Relaxed);
    }

    /// Logs a batch of records through one group commit: a single lock
    /// acquisition and a single fsync charge for the whole batch (see
    /// [`DurableLog::append_commit_batch`]). Every record still counts
    /// toward the checkpoint cadence.
    pub fn log_batch(&self, payloads: &[Vec<u8>]) {
        if payloads.is_empty() {
            return;
        }
        self.log.append_commit_batch(payloads);
        self.since_ckpt
            .fetch_add(payloads.len() as u64, Ordering::Relaxed);
    }

    /// True when enough records have accumulated since the last
    /// checkpoint for the reconciler to take a new one.
    pub fn should_checkpoint(&self) -> bool {
        self.since_ckpt.load(Ordering::Relaxed) >= self.checkpoint_every
    }

    /// WAL records committed since the last checkpoint.
    pub fn records_since_checkpoint(&self) -> u64 {
        self.since_ckpt.load(Ordering::Relaxed)
    }

    /// Takes a checkpoint: rotates the WAL so new records land in a
    /// fresh segment, snapshots state via `snapshot`, persists the blob
    /// and manifest, then truncates the superseded segments. Returns the
    /// checkpoint's content hash.
    pub fn checkpoint_with(&self, snapshot: impl FnOnce() -> Vec<u8>) -> String {
        let epoch = self.log.rotate();
        self.since_ckpt.store(0, Ordering::Relaxed);
        // Mutations racing with the snapshot land in the new segment and
        // may or may not be captured by `snapshot()`; replay over the
        // checkpoint is idempotent either way.
        let snap = snapshot();
        let hex = self.ckpts.save(&snap, epoch);
        let truncated = self.log.truncate_below(epoch);
        self.ckpts.note_truncated(truncated);
        hex
    }

    /// Recovers the component: reads the latest verified checkpoint
    /// and hands it to `install` (which returns `false` when it cannot
    /// decode it), then hands each committed WAL record above it to
    /// `apply` in log order (`false` = its effect was already present,
    /// or it did not decode). Counts the run, the records and the skips,
    /// and models replay latency on the recovery histogram.
    pub fn replay(
        &self,
        install: impl FnOnce(&[u8]) -> bool,
        mut apply: impl FnMut(&[u8]) -> bool,
    ) -> RecoveryStats {
        let (manifest, snapshot) = self.ckpts.load();
        // If the checkpoint blob failed verification, fall back to
        // replaying every surviving segment rather than just the suffix.
        let from_epoch = if snapshot.is_some() { manifest.wal_epoch } else { 0 };
        let replay = self.log.replay_from(from_epoch);
        let replayed = replay.records.len() as u64;
        self.obs.runs.inc();
        self.obs.replayed.add(replayed);
        self.obs.latency.record(RECOVERY_BASE_NS + REPLAY_NS_PER_RECORD * replayed);
        self.since_ckpt.store(replayed, Ordering::Relaxed);
        let snapshot_loaded = snapshot.as_deref().is_some_and(install);
        let skipped = replay.records.iter().filter(|r| !apply(r)).count() as u64;
        self.obs.skipped.add(skipped);
        RecoveryStats { snapshot_loaded, replayed, skipped, torn_tails: replay.torn_tails }
    }

    /// Simulates the crash tearing an in-flight, never-acked frame onto
    /// the active segment's tail; `seed` picks the tear point.
    pub fn crash_torn(&self, seed: u64) {
        let payload_len = 16 + (seed % 48) as usize;
        let payload: Vec<u8> = (0..payload_len).map(|i| (seed as u8).wrapping_add(i as u8)).collect();
        let keep = (seed % (payload_len as u64 + crate::log::FRAME_HEADER_LEN as u64)) as usize;
        self.log.crash_torn(&payload, keep);
    }
}
