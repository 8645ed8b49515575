//! # lsdf-durability — crash durability for facility metadata
//!
//! The paper's facility stewards experiment data for years; a namenode
//! or metadata-store restart must not lose the namespace. This crate
//! provides the simulation-grade durable substrate the stateful
//! components log through:
//!
//! * [`DurableStore`] / [`MemDisk`] — a named-device "disk" with an
//!   explicit staged/synced boundary and seeded crash semantics (synced
//!   bytes always survive; staged bytes tear);
//! * [`DurableLog`] — an epoch-segmented, CRC-framed write-ahead log
//!   with torn-tail-tolerant replay and group-commit cost accounting;
//! * [`CheckpointStore`] — content-addressed full-state checkpoints
//!   behind an atomically replaced manifest;
//! * [`ComponentDurability`] — the per-component bundle tying the three
//!   together (log → checkpoint → recover), with the one replay loop
//!   every component recovers through and its [`RecoveryStats`];
//! * [`Enc`] / [`Dec`] — the deterministic little-endian codec that
//!   makes snapshots canonical and recovery bit-identical.
//!
//! Everything is deterministic: no wall clock, no ambient randomness —
//! crash tear points come from caller-provided seeds, and metric
//! accounting is defined in terms of record counts so runs are
//! bit-identical at any worker count.

#![warn(missing_docs)]

mod checkpoint;
pub mod codec;
mod crc;
mod device;
mod harness;
mod log;

pub use checkpoint::{CheckpointStore, Manifest};
pub use codec::{Dec, Enc};
pub use crc::crc32;
pub use device::{DurableStore, MemDisk};
pub use harness::{ComponentDurability, DurabilityConfig, RecoveryStats};
pub use log::{
    parse_frames, DurableLog, Replay, FRAME_HEADER_LEN, GROUP_COMMIT, MAX_RECORD_LEN,
};
