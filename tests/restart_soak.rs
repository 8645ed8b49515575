//! Restart-under-chaos soak: the crash-durability contract, end to end.
//!
//! A durable facility (namenode WAL + per-project metadata WALs over
//! one shared [`DurableStore`]) ingests a seeded mixed workload in
//! batches while a [`FaultPlan`] crash schedule kills and restarts the
//! whole facility at virtual times mid-soak. The invariants:
//!
//! * **replay-identical recovery** — at every crash point the DFS
//!   namespace digest and every project catalog digest are
//!   bit-identical before the crash and after recovery;
//! * **zero acked-write loss** — every acknowledged ingest reads back
//!   checksum-clean after every restart (and at the end), and every
//!   registered dataset is still findable in its catalog;
//! * **worker invisibility** — the final obs registry JSON (which
//!   folds in WAL, checkpoint and recovery counters) is bit-identical
//!   at 1, 4 and 8 ingest workers;
//! * the crash schedule actually fired: at least three seeded crash
//!   points land mid-ingest, each replaying a non-trivial log.
//!
//! Set `LSDF_RESTART_REPORT=<path>` to write the concatenated
//! [`RecoveryReport`] JSON for all crash points — CI uploads it as the
//! recovery artifact.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;

use lsdf_chaos::FaultPlan;
use lsdf_core::{BackendChoice, Facility, IngestItem, IngestPolicy, ProjectSpec, RecoveryReport};
use lsdf_dfs::{ClusterTopology, DfsConfig};
use lsdf_durability::{DurabilityConfig, DurableStore};
use lsdf_metadata::{Document, FieldType, SchemaBuilder, Value};
use lsdf_obs::{names, Registry};
use lsdf_sim::SimRng;
use lsdf_storage::sha256;

const MS: u64 = 1_000_000;
const BATCHES: u64 = 48;
const ITEMS_PER_BATCH: u64 = 50;
const SEED: u64 = 0xd15c;

/// Two tenants so both durable component families see WAL traffic:
/// a DFS-backed spectrometer project (namenode WAL) and an
/// object-store imaging project (metadata WAL only — the object store
/// itself survives a process crash like a datanode disk does).
fn facility(reg: Arc<Registry>, disk: DurableStore, workers: usize) -> Facility {
    let spectro = SchemaBuilder::new("spectro")
        .required("run", FieldType::Int)
        .build()
        .unwrap();
    let imaging = SchemaBuilder::new("imaging")
        .required("frame", FieldType::Int)
        .build()
        .unwrap();
    Facility::builder()
        .tenant(ProjectSpec::new(spectro, BackendChoice::Dfs))
        .tenant(ProjectSpec::new(
            imaging,
            BackendChoice::ObjectStore { capacity: u64::MAX },
        ))
        .cluster(
            ClusterTopology::new(2, 3),
            DfsConfig {
                block_size: 2048,
                replication: 2,
                ..DfsConfig::default()
            },
        )
        .durability(
            disk,
            DurabilityConfig { checkpoint_every: 192 },
        )
        .registry(reg)
        .workers(workers)
        .build()
        .unwrap()
}

/// One seeded batch: alternating DFS / object-store items with valid
/// per-project metadata and write-once keys.
fn batch(seed: u64, b: u64) -> Vec<IngestItem> {
    let mut rng = SimRng::seed_from_u64(seed).stream(&format!("restart-batch-{b}"));
    (0..ITEMS_PER_BATCH)
        .map(|j| {
            let n = b * ITEMS_PER_BATCH + j;
            let (project, field) = if j % 2 == 0 {
                ("spectro", "run")
            } else {
                ("imaging", "frame")
            };
            let len = rng.range_u64(1, 512) as usize;
            let payload: Vec<u8> = (0..len).map(|_| rng.range_u64(0, 256) as u8).collect();
            let mut doc = Document::new();
            doc.insert(field.to_string(), Value::Int(n as i64));
            IngestItem {
                project: project.to_string(),
                key: format!("{field}/{n:06}"),
                data: Bytes::from(payload),
                metadata: Some(doc),
            }
        })
        .collect()
}

/// Sweeps every acked write (location → payload checksum) through the
/// ADAL and asserts checksum-clean readback; then checks every catalog
/// entry is present with the checksum that was acked.
fn verify_acked(f: &Facility, model: &BTreeMap<String, (String, String)>, when: &str) {
    let admin = f.admin().clone();
    for (location, (key, digest)) in model {
        let data = f
            .adal()
            .get(&admin, location)
            .unwrap_or_else(|e| panic!("acked write {location} lost {when}: {e}"));
        assert_eq!(
            &sha256(&data).to_hex(),
            digest,
            "acked write {location} corrupted {when}"
        );
        let project = location
            .strip_prefix("lsdf://")
            .and_then(|r| r.split('/').next())
            .unwrap();
        let rec = f
            .store(project)
            .unwrap()
            .get_by_name(key)
            .unwrap_or_else(|| panic!("catalog entry {key} lost {when}"));
        assert_eq!(&rec.checksum_hex, digest, "catalog checksum drifted {when}");
    }
}

/// Runs the soak at one pool width and returns the registry JSON (the
/// worker-invisibility witness) plus the per-crash recovery reports.
fn run_soak_with(seed: u64, workers: usize) -> (String, Vec<RecoveryReport>) {
    let reg = Arc::new(Registry::new());
    reg.set_virtual_time_ns(1);
    let disk = DurableStore::new();
    let f = facility(reg.clone(), disk, workers);
    let admin = f.admin().clone();

    // Crash schedule in virtual time: three points on batch boundaries
    // plus one between boundaries (fires at the next poll) — each
    // lands mid-ingest with unreplayed WAL tail on at least one log.
    let plan = FaultPlan::quiet(seed)
        .crash_at(1 + 9 * MS, seed ^ 0x01)
        .crash_at(1 + 21 * MS, seed ^ 0x02)
        .crash_at(30 * MS + 500, seed ^ 0x03)
        .crash_at(1 + 41 * MS, seed ^ 0x04);

    // Every ACKED ingest: location → (key, payload sha256 hex).
    let mut model: BTreeMap<String, (String, String)> = BTreeMap::new();
    let mut reports = Vec::new();
    let mut last_poll = 0u64;
    for b in 0..BATCHES {
        let now = 1 + b * MS;
        reg.set_virtual_time_ns(now);
        let items = batch(seed, b);
        for item in &items {
            model.insert(
                format!("lsdf://{}/{}", item.project, item.key),
                (item.key.clone(), sha256(&item.data).to_hex()),
            );
        }
        let report = f.ingest_batch(&admin, items, IngestPolicy::default());
        assert_eq!(
            report.registered, ITEMS_PER_BATCH,
            "batch {b} did not fully register: {report:?}"
        );
        f.run_durability_reconciler();
        for cp in plan.crashes_due(last_poll, now) {
            let dfs_digest = f.dfs().namespace_digest();
            let spectro_digest = f.store("spectro").unwrap().catalog_digest();
            let imaging_digest = f.store("imaging").unwrap().catalog_digest();
            let report = f.crash_restart(cp.seed);
            assert_eq!(
                report.components.len(),
                3,
                "dfs + two metadata stores recover at {}", cp.at_ns
            );
            assert_eq!(f.dfs().namespace_digest(), dfs_digest, "namenode replay drifted");
            assert_eq!(
                f.store("spectro").unwrap().catalog_digest(),
                spectro_digest,
                "spectro catalog replay drifted"
            );
            assert_eq!(
                f.store("imaging").unwrap().catalog_digest(),
                imaging_digest,
                "imaging catalog replay drifted"
            );
            verify_acked(&f, &model, &format!("after crash at {}ns", cp.at_ns));
            reports.push(report);
        }
        last_poll = now;
    }
    assert!(
        reports.len() >= 3,
        "crash schedule must fire at least 3 points mid-soak, fired {}",
        reports.len()
    );
    // Every restart did real recovery work on every component: either
    // a checkpoint base was installed or a WAL tail was replayed (both,
    // usually). And across the soak the WALs carried real traffic.
    for (i, r) in reports.iter().enumerate() {
        for c in &r.components {
            assert!(
                c.snapshot_loaded || c.replayed > 0,
                "crash {i}: component {} recovered from nothing: {r:?}",
                c.component
            );
        }
    }
    assert!(
        reports.iter().map(RecoveryReport::total_replayed).sum::<u64>() > 0,
        "no WAL records replayed across the whole soak"
    );
    verify_acked(&f, &model, "at end of soak");
    // Batched WAL group commit: every N-file batch commit on the
    // namenode WAL shares ONE accounted fsync. The per-record path
    // charges one fsync per `GROUP_COMMIT` (8) records, so the
    // batched path must beat that floor outright across the soak.
    let appends = reg.counter_value(names::WAL_APPENDS_TOTAL, &[("log", "dfs")]);
    let fsyncs = reg.counter_value(names::WAL_FSYNCS_TOTAL, &[("log", "dfs")]);
    assert!(appends > 0, "namenode WAL saw no traffic");
    assert!(
        fsyncs > 0 && fsyncs * 8 < appends,
        "batched commit did not amortize fsyncs: {fsyncs} fsyncs for {appends} appends          (per-record group commit would charge ~{})",
        appends / 8
    );
    (reg.to_json(), reports)
}

#[test]
fn restart_soak_survives_seeded_crashes_and_is_worker_invariant() {
    let (serial_json, serial_reports) = run_soak_with(SEED, 1);
    assert_eq!(serial_reports.len(), 4, "all four scheduled points fired");
    for workers in [4usize, 8] {
        let (json, reports) = run_soak_with(SEED, workers);
        assert_eq!(reports.len(), serial_reports.len());
        assert_eq!(
            serial_json, json,
            "registry JSON drifted at workers={workers}"
        );
    }
    // CI artifact: the per-crash recovery reports from the serial run.
    // Relative paths are resolved against the workspace root (cargo
    // runs integration tests with the package dir as CWD).
    if let Ok(path) = std::env::var("LSDF_RESTART_REPORT") {
        let p = std::path::PathBuf::from(&path);
        let p = if p.is_absolute() {
            p
        } else {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .expect("integration crate lives two levels under the workspace root")
                .join(p)
        };
        if let Some(dir) = p.parent() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
        }
        let body: Vec<String> = serial_reports.iter().map(RecoveryReport::to_json).collect();
        std::fs::write(&p, format!("[\n{}\n]\n", body.join(",\n")))
            .unwrap_or_else(|e| panic!("writing recovery report {}: {e}", p.display()));
    }
}

#[test]
fn torn_wal_tail_never_loses_acked_writes() {
    // A focused variant: crash with a seed chosen per restart so the
    // torn-tail injection exercises different byte offsets; acked data
    // must survive every one.
    let reg = Arc::new(Registry::new());
    reg.set_virtual_time_ns(1);
    let disk = DurableStore::new();
    let f = facility(reg, disk, 1);
    let admin = f.admin().clone();
    let mut model: BTreeMap<String, (String, String)> = BTreeMap::new();
    for round in 0..6u64 {
        let items = batch(SEED ^ round, round);
        for item in &items {
            model.insert(
                format!("lsdf://{}/{}", item.project, item.key),
                (item.key.clone(), sha256(&item.data).to_hex()),
            );
        }
        let report = f.ingest_batch(&admin, items, IngestPolicy::default());
        assert_eq!(report.registered, ITEMS_PER_BATCH);
        let report = f.crash_restart(0x7e57 ^ round);
        assert!(report.total_torn_tails() >= 1, "round {round} tore no tail");
        verify_acked(&f, &model, &format!("after torn restart {round}"));
    }
}
