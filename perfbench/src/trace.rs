//! The traced run: the same inputs replayed through the public calls
//! that `Facility::ingest_batch`, `Facility::run_durability_reconciler`
//! and `Facility::crash_restart` make, in the same order, with each
//! call into a layer timed here, from outside the program.
//!
//! A time is inclusive of whatever the called layer calls in turn
//! (`Adal::put_stage_traced` includes backend placement,
//! `Adal::commit_staged` the namenode and WAL group commit).

use lsdf_adal::{AdalError, Credential, PendingPut};
use lsdf_admission::Lane;
use lsdf_core::{Facility, IngestItem, IngestReport};
use lsdf_metadata::{Document, NewDataset};
use lsdf_obs::TraceCtx;
use lsdf_storage::Payload;

use crate::host::{now, ns_since};
use crate::inputs::Shape;

/// Summed time and call count of one layer call site.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub ns: u64,
    pub calls: u64,
}

impl Acc {
    pub fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.calls += 1;
    }

    pub fn merge(&mut self, o: Acc) {
        self.ns += o.ns;
        self.calls += o.calls;
    }

    /// Mean ns per call; 0 when never called.
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.ns as f64, self.calls as f64)
    }
}

/// Per-layer times of one traced episode (or a sum of them).
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub admit: Acc,
    pub validate: Acc,
    pub digest: Acc,
    pub digest_bytes: u64,
    pub stage: Acc,
    /// One call per batch; `commit_items` counts the puts committed.
    pub commit: Acc,
    pub commit_items: u64,
    pub insert: Acc,
    /// Every `maybe_scrape` call, and the ones that scraped.
    pub scrape_checks: Acc,
    pub scrapes: Acc,
    /// Every reconciler poll, and the checkpoints actually taken.
    pub dfs_ckpt_polls: Acc,
    pub dfs_ckpt: Acc,
    pub meta_ckpt_polls: Acc,
    pub meta_ckpt: Acc,
    pub query: [Acc; 3],
    pub get: Acc,
    pub dfs_recover: Acc,
    pub meta_recover: Acc,
    pub dfs_replayed: u64,
    pub pool_busy_ns: u64,
    pub pool_wall_ns: u64,
    /// Per main-phase ingest batch: (wall ns, checkpoint ns), in order.
    pub batches: Vec<(u64, u64)>,
}

impl Layers {
    pub fn merge(&mut self, o: &Layers) {
        for (a, b) in [
            (&mut self.admit, o.admit),
            (&mut self.validate, o.validate),
            (&mut self.digest, o.digest),
            (&mut self.stage, o.stage),
            (&mut self.commit, o.commit),
            (&mut self.insert, o.insert),
            (&mut self.scrape_checks, o.scrape_checks),
            (&mut self.scrapes, o.scrapes),
            (&mut self.dfs_ckpt_polls, o.dfs_ckpt_polls),
            (&mut self.dfs_ckpt, o.dfs_ckpt),
            (&mut self.meta_ckpt_polls, o.meta_ckpt_polls),
            (&mut self.meta_ckpt, o.meta_ckpt),
            (&mut self.get, o.get),
            (&mut self.dfs_recover, o.dfs_recover),
            (&mut self.meta_recover, o.meta_recover),
        ] {
            a.merge(b);
        }
        for s in Shape::ALL {
            self.query[s.idx()].merge(o.query[s.idx()]);
        }
        self.digest_bytes += o.digest_bytes;
        self.commit_items += o.commit_items;
        self.dfs_replayed += o.dfs_replayed;
        self.pool_busy_ns += o.pool_busy_ns;
        self.pool_wall_ns += o.pool_wall_ns;
        self.batches.extend_from_slice(&o.batches);
    }

    /// Checkpoint time as a share of batch wall time over the first
    /// (`last = false`) or last quarter of the ingest batches.
    pub fn ckpt_share(&self, last: bool) -> f64 {
        let q = (self.batches.len() / 4).max(1).min(self.batches.len());
        let part = if last {
            &self.batches[self.batches.len() - q..]
        } else {
            &self.batches[..q]
        };
        let wall: u64 = part.iter().map(|b| b.0).sum();
        let ckpt: u64 = part.iter().map(|b| b.1).sum();
        crate::stats::ratio(ckpt as f64, wall as f64)
    }
}

/// What a worker hands back for one staged item.
struct Staged {
    pending: Result<PendingPut, AdalError>,
    key: String,
    location: String,
    size: u64,
    checksum_hex: String,
    doc: Document,
    validate_ns: u64,
    digest_ns: u64,
    stage_ns: u64,
    busy_ns: u64,
}

/// One batch through the calls `Facility::ingest_batch` makes: the
/// serial admission pre-pass, the pool fan-out (schema validation, the
/// payload hash, ADAL staging), the batched commit, the catalog
/// inserts in submission order, and the telemetry scrape.
pub fn ingest(
    f: &Facility,
    cred: &Credential,
    project: &str,
    lane: Lane,
    items: Vec<IngestItem>,
    l: &mut Layers,
) -> IngestReport {
    let mut report = IngestReport::default();
    let mut admitted = Vec::with_capacity(items.len());
    for item in items {
        let t = now();
        let ticket = f.admission().admit(project, lane, item.data.len() as u64);
        l.admit.add(ns_since(t));
        match ticket {
            Ok(_) => admitted.push(item),
            Err(_) => report.shed += 1,
        }
    }
    let Ok(store) = f.store(project) else {
        report.rejected += admitted.len() as u64;
        return report;
    };
    let adal = f.adal();
    let pool_start = now();
    let staged: Vec<Option<Staged>> = f.pool().run(admitted, |_, item| {
        let t0 = now();
        let doc = item.metadata?;
        store.schema().validate(&doc).ok()?;
        let t1 = now();
        let data: Payload = item.data.into();
        let digest = data.digest();
        let t2 = now();
        let location = format!("lsdf://{project}/{}", item.key);
        let size = data.len() as u64;
        let pending = adal.put_stage_traced(&TraceCtx::disabled(), cred, &location, data);
        let t3 = now();
        let checksum_hex = digest.to_hex();
        Some(Staged {
            pending,
            key: item.key,
            location,
            size,
            checksum_hex,
            doc,
            validate_ns: ns(t0, t1),
            digest_ns: ns(t1, t2),
            stage_ns: ns(t2, t3),
            busy_ns: ns_since(t0),
        })
    });
    l.pool_wall_ns += ns_since(pool_start);
    let mut fins = Vec::with_capacity(staged.len());
    let mut pendings = Vec::with_capacity(staged.len());
    for s in staged {
        let Some(s) = s else {
            report.rejected += 1;
            continue;
        };
        l.validate.add(s.validate_ns);
        l.digest.add(s.digest_ns);
        l.digest_bytes += s.size;
        l.stage.add(s.stage_ns);
        l.pool_busy_ns += s.busy_ns;
        match s.pending {
            Ok(p) => {
                pendings.push(p);
                fins.push((s.key, s.location, s.size, s.checksum_hex, s.doc));
            }
            Err(_) => report.rejected += 1,
        }
    }
    let t = now();
    let commits = adal.commit_staged(pendings);
    l.commit.add(ns_since(t));
    l.commit_items += commits.len() as u64;
    for (c, (key, location, size, checksum_hex, basic)) in commits.into_iter().zip(fins) {
        if c.is_err() {
            report.rejected += 1;
            continue;
        }
        let t = now();
        let inserted = store.insert(NewDataset {
            name: key,
            location,
            size_bytes: size,
            checksum_hex,
            basic,
        });
        l.insert.add(ns_since(t));
        match inserted {
            Ok(_) => {
                report.registered += 1;
                report.bytes += size;
            }
            Err(_) => report.rejected += 1,
        }
    }
    let t = now();
    let scraped = f.telemetry().maybe_scrape(f.obs());
    let dt = ns_since(t);
    l.scrape_checks.add(dt);
    if scraped {
        l.scrapes.add(dt);
    }
    report
}

/// One sweep of `Facility::run_durability_reconciler`: the namenode,
/// then every catalog in project order. Returns the ns spent in
/// checkpoints actually taken.
pub fn reconcile(f: &Facility, l: &mut Layers) -> u64 {
    let t = now();
    let taken = f.dfs().maybe_checkpoint();
    let dt = ns_since(t);
    l.dfs_ckpt_polls.add(dt);
    let mut ckpt_ns = 0;
    if taken {
        l.dfs_ckpt.add(dt);
        ckpt_ns += dt;
    }
    for p in f.projects() {
        let Ok(store) = f.store(&p) else { continue };
        let t = now();
        let taken = store.maybe_checkpoint();
        let dt = ns_since(t);
        l.meta_ckpt_polls.add(dt);
        if taken {
            l.meta_ckpt.add(dt);
            ckpt_ns += dt;
        }
    }
    ckpt_ns
}

/// One kill-and-restart cycle through the calls `Facility::crash_restart`
/// makes: every component crashes, then each recovers, namenode first.
/// A component's time is its crash plus its recovery. Returns the
/// records replayed.
pub fn crash_restart(f: &Facility, seed: u64, l: &mut Layers) -> u64 {
    let projects = f.projects();
    let t = now();
    f.dfs().crash(seed);
    let dfs_crash = ns_since(t);
    let mut meta_crash = 0;
    for (i, p) in projects.iter().enumerate() {
        if let Ok(store) = f.store(p) {
            let t = now();
            store.crash(seed.wrapping_add(i as u64 + 1));
            meta_crash += ns_since(t);
        }
    }
    let t = now();
    let s = f.dfs().recover();
    l.dfs_recover.add(dfs_crash + ns_since(t));
    l.dfs_replayed += s.replayed;
    let mut replayed = s.replayed;
    let mut meta_ns = meta_crash;
    for p in &projects {
        if let Ok(store) = f.store(p) {
            let t = now();
            replayed += store.recover().replayed;
            meta_ns += ns_since(t);
        }
    }
    l.meta_recover.add(meta_ns);
    replayed
}

fn ns(a: std::time::Instant, b: std::time::Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}
