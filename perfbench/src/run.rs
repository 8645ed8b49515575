//! Episodes: build a facility, feed it one episode's inputs, time what a
//! user waits for, and check every output outside the timing.
//!
//! A run is a warm-up episode followed by timed episodes until the
//! requested seconds have passed and the latency tails have reached
//! their fixed run length. Every episode has the same size and
//! starts from an empty facility, so per-episode costs (checkpoints
//! grow with the namespace) do not depend on how fast the host is.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;

use lsdf_adal::Credential;
use lsdf_admission::{Lane, QuotaSpec};
use lsdf_core::{
    BackendChoice, Facility, IngestItem, IngestPolicy, IngestReport, ProjectSession, ProjectSpec,
};
use lsdf_durability::{DurabilityConfig, DurableStore};
use lsdf_metadata::{zebrafish_schema, DatasetRecord, ProjectStore};
use lsdf_obs::{names, Registry};
use lsdf_pool::WorkerPool;
use lsdf_storage::{payload_deep_copies, payload_digests_computed, sha256};
use lsdf_workloads::tenants::tenant_schema;

use crate::host::{self, now, ns_since};
use crate::inputs::{self, Batch, Episode, HtmPool, Item, Query, Step};
use crate::trace::{self, Layers};

/// Fetches per browse request: the first hits of the query.
pub const FETCHES: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HtmIngest,
    DfsSmallFiles,
    BrowseRead,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HtmIngest,
        Workload::DfsSmallFiles,
        Workload::BrowseRead,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HtmIngest => "htm_ingest",
            Workload::DfsSmallFiles => "dfs_small_files",
            Workload::BrowseRead => "browse_read",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn project(self) -> &'static str {
        match self {
            Workload::DfsSmallFiles => DFS_PROJECT,
            _ => "zebrafish-htm",
        }
    }

    /// The episode shape; `traced` selects the per-layer run's.
    pub fn spec(self, traced: bool) -> Spec {
        match self {
            Workload::HtmIngest => Spec {
                // The timed run leaves one CPU free for the client thread
                // and the kernel: with as many workers as CPUs, every
                // batch waits on a worker the host has descheduled, and
                // on a 2-CPU host the ack tail spread 0.4–0.7 between
                // identical runs. The per-layer run has no bound to keep
                // and must reach the pool's parallel fan-out, which one
                // worker never does, so it uses at least two.
                workers: if traced {
                    host::nproc().max(2)
                } else {
                    host::nproc().saturating_sub(1).max(1)
                },
                image_edge: 128,
                fish: 96,
                rounds: 0,
                files: 0,
                preload: 0,
                requests: 0,
                mean_gap_ns: 0.0,
                browse: 36,
                restarts: 3,
                ack_tail_len: 1000,
                browse_tail_len: 1000,
            },
            Workload::DfsSmallFiles => Spec {
                workers: 1,
                image_edge: 0,
                fish: 0,
                rounds: 200,
                files: 64,
                preload: 0,
                requests: 0,
                mean_gap_ns: 2e6,
                browse: 18,
                restarts: 3,
                ack_tail_len: 1000,
                browse_tail_len: 200,
            },
            Workload::BrowseRead => Spec {
                workers: 1,
                image_edge: 64,
                fish: 0,
                rounds: 0,
                files: 0,
                preload: 420,
                requests: 1200,
                mean_gap_ns: 1e8,
                browse: 0,
                restarts: 3,
                ack_tail_len: 1000,
                browse_tail_len: 1000,
            },
        }
    }
}

/// The one analysis project on the DFS mount (see `BENCHMARK.json`
/// for why there is only one).
pub const DFS_PROJECT: &str = "tenant-0000";

/// Episode shape of a workload. Fields a workload does not use are 0.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Ingest pool width.
    pub workers: usize,
    /// HTM image edge in pixels (0: no images).
    pub image_edge: u32,
    /// Fish ingested per `htm_ingest` episode.
    pub fish: usize,
    /// `dfs_small_files` rounds per episode and files per round.
    pub rounds: usize,
    pub files: usize,
    /// Fish preloaded into the `browse_read` catalog.
    pub preload: usize,
    /// `browse_read` requests per episode.
    pub requests: usize,
    /// Mean virtual gap between Poisson arrivals.
    pub mean_gap_ns: f64,
    /// Browse requests after an ingest episode.
    pub browse: usize,
    /// Crash/restart cycles closing every episode.
    pub restarts: usize,
    /// The fixed run length, in samples, of the ack and browse tails:
    /// a run goes on until it has this many, and the tail is the
    /// highest standard percentile leaving ten of them beyond it.
    pub ack_tail_len: usize,
    pub browse_tail_len: usize,
}

/// A quota finite in every dimension yet sized so that no request of
/// any workload waits or is shed: bursts cover a whole batch, refill
/// covers the arrival rate.
fn quota(w: Workload) -> QuotaSpec {
    match w {
        Workload::DfsSmallFiles => QuotaSpec::per_second(1_000_000, 1 << 30),
        _ => QuotaSpec::per_second(1_000, 64 << 20),
    }
}

/// Counts that depend only on the inputs, never on host speed: two
/// episodes fed the same inputs must agree on every field.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub batches: u64,
    pub items: u64,
    pub admitted: u64,
    pub shed: u64,
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub fsyncs: u64,
    pub checkpoints: u64,
    pub ckpt_bytes: u64,
    pub scrapes: u64,
    pub series: u64,
    pub replayed: u64,
    pub dfs_replayed: u64,
    pub digests: u64,
    pub deep_copies: u64,
    pub queries: [u64; 3],
    pub hits: [u64; 3],
    pub rows_examined: [u64; 3],
}

/// What one episode measured and checked.
#[derive(Default)]
pub struct EpisodeResult {
    pub setup_ns: u64,
    /// Main-phase ingest batches: submit to report plus the
    /// reconciler sweep the batch triggers.
    pub acks_ns: Vec<u64>,
    /// Items and payload bytes each of those batches acked.
    pub acked: Vec<(u64, u64)>,
    /// Browse requests (main phase and epilogue).
    pub browse_ns: Vec<u64>,
    pub recover_ns: Vec<u64>,
    /// Summed time of the main phase's timed operations.
    pub main_ns: u64,
    /// The main phase's browse requests alone.
    pub main_browse_ns: u64,
    pub main_items: u64,
    pub main_requests: u64,
    pub user_bytes: u64,
    pub stored_bytes: u64,
    pub counts: Counts,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub layers: Option<Layers>,
}

impl EpisodeResult {
    fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.problems.len() < 8 {
            self.problems.push(why());
        }
    }
}

/// Run-wide state: the rendered template pool and the time spent
/// generating inputs.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub spec: Spec,
    pool: Option<HtmPool>,
    pub gen_ns: u64,
}

impl Ctx {
    pub fn new(workload: Workload, seed: u64, traced: bool) -> Ctx {
        let spec = workload.spec(traced);
        let t = now();
        let pool = (spec.image_edge > 0).then(|| HtmPool::render(seed, spec.image_edge));
        Ctx {
            workload,
            seed,
            spec,
            pool,
            gen_ns: ns_since(t),
        }
    }

    pub fn payload_bytes(&self) -> (u64, u64) {
        match &self.pool {
            Some(p) => (p.image_bytes() as u64, p.image_bytes() as u64),
            None => (
                inputs::DFS_PAYLOAD.0 as u64,
                inputs::DFS_PAYLOAD.1 as u64 - 1,
            ),
        }
    }

    fn generate(&mut self, episode: u64) -> (Episode, Vec<String>) {
        let t = now();
        let s = self.spec;
        let ep = match (self.workload, &self.pool) {
            (Workload::HtmIngest, Some(pool)) => {
                inputs::htm_episode(pool, self.seed, episode, s.fish, s.browse, s.restarts)
            }
            (Workload::BrowseRead, Some(pool)) => inputs::browse_episode(
                pool,
                self.seed,
                episode,
                s.preload,
                s.requests,
                s.mean_gap_ns,
                s.restarts,
            ),
            _ => inputs::dfs_episode(
                self.seed,
                episode,
                s.rounds,
                s.files,
                s.mean_gap_ns,
                s.browse,
                s.restarts,
            ),
        };
        // The digest every catalog entry must carry, hashed here so the
        // checks never time or share the facility's own hashing.
        let datas: Vec<Bytes> = ep.items().map(|it| it.data.clone()).collect();
        let expected = WorkerPool::new(host::nproc()).run(datas, |_, d| sha256(&d).to_hex());
        self.gen_ns += ns_since(t);
        (ep, expected)
    }
}

fn build(w: Workload, spec: &Spec) -> (Facility, Arc<Registry>) {
    let reg = Arc::new(Registry::new());
    // The facility runs on the workload's arrival clock from the start.
    reg.set_virtual_time_ns(0);
    let tenant = match w {
        Workload::DfsSmallFiles => ProjectSpec::new(tenant_schema(DFS_PROJECT), BackendChoice::Dfs),
        _ => ProjectSpec::new(
            zebrafish_schema(),
            BackendChoice::ObjectStore { capacity: 1 << 40 },
        ),
    };
    let f = Facility::builder()
        .registry(reg.clone())
        .workers(spec.workers)
        .durability(DurableStore::new(), DurabilityConfig::default())
        .tenant(tenant.quota(quota(w)))
        .build()
        .expect("the benchmark facility is well-formed");
    (f, reg)
}

fn ingest_items(project: &str, b: &Batch) -> Vec<IngestItem> {
    b.items
        .iter()
        .map(|it| IngestItem {
            project: project.to_string(),
            key: it.key.clone(),
            data: it.data.clone(),
            metadata: Some(it.doc.clone()),
        })
        .collect()
}

/// The facility under test plus what the checks need.
struct Live<'a> {
    f: &'a Facility,
    reg: &'a Registry,
    session: ProjectSession<'a>,
    store: &'a ProjectStore,
    cred: Credential,
    project: &'static str,
}

impl Live<'_> {
    /// One ingest batch and the reconciler sweep after it; returns the
    /// report and the wall time.
    fn ingest(&self, b: &Batch, layers: Option<&mut Layers>) -> (IngestReport, u64) {
        let items = ingest_items(self.project, b);
        self.reg.set_virtual_time_ns(b.t_ns);
        match layers {
            None => {
                let t = now();
                let r = self.session.ingest_batch(items, IngestPolicy::default());
                self.f.run_durability_reconciler();
                (r, ns_since(t))
            }
            Some(l) => {
                let t = now();
                let r = trace::ingest(self.f, &self.cred, self.project, Lane::Bulk, items, l);
                let ckpt = trace::reconcile(self.f, l);
                let dt = ns_since(t);
                l.batches.push((dt, ckpt));
                (r, dt)
            }
        }
    }

    /// One DataBrowser request: the query, then fetches of its first
    /// hits. Returns the wall time, hits, fetches and rows examined.
    fn browse(
        &self,
        q: &Query,
        layers: Option<&mut Layers>,
    ) -> (u64, Vec<DatasetRecord>, Vec<Option<Bytes>>, u64) {
        self.reg.set_virtual_time_ns(q.t_ns);
        let scanned = self.store.query_stats().1;
        let (dt, hits, fetched) = match layers {
            None => {
                let t = now();
                let hits = self.store.query(&q.pred);
                let fetched: Vec<Option<Bytes>> = hits
                    .iter()
                    .take(FETCHES)
                    .map(|h| self.session.get(&h.name).ok())
                    .collect();
                (ns_since(t), hits, fetched)
            }
            Some(l) => {
                let t = now();
                let hits = self.store.query(&q.pred);
                let dq = ns_since(t);
                l.query[q.shape.idx()].add(dq);
                let mut total = dq;
                let mut fetched = Vec::with_capacity(FETCHES);
                for h in hits.iter().take(FETCHES) {
                    let t = now();
                    let got = self.session.get(&h.name).ok();
                    let dg = ns_since(t);
                    l.get.add(dg);
                    total += dg;
                    fetched.push(got);
                }
                (total, hits, fetched)
            }
        };
        let rows = self.store.query_stats().1 - scanned;
        (dt, hits, fetched, rows)
    }

    fn digests(&self) -> (String, String) {
        (self.f.dfs().namespace_digest(), self.store.catalog_digest())
    }

    /// Bytes the facility holds for the user's bytes: object-store
    /// objects, DFS blocks with their replicas, WAL and checkpoints.
    fn stored_bytes(&self) -> u64 {
        let objects: u64 = match self.f.adal().backend_kind(self.project) {
            Some("dfs") | None => 0,
            Some(_) => self
                .f
                .adal()
                .list(&self.cred, &format!("lsdf://{}/", self.project))
                .map(|es| es.iter().map(|e| e.size).sum())
                .unwrap_or(0),
        };
        let durable = self
            .f
            .durable_store()
            .map_or(0, DurableStore::durable_bytes);
        objects + self.f.dfs().usage().0 + durable
    }
}

/// Index of every input item by key, and the checks against it.
struct Oracle<'a> {
    items: Vec<&'a Item>,
    by_key: HashMap<&'a str, usize>,
    expected: &'a [String],
    project: &'static str,
}

impl<'a> Oracle<'a> {
    fn new(ep: &'a Episode, expected: &'a [String], project: &'static str) -> Oracle<'a> {
        let items: Vec<&Item> = ep.items().collect();
        let by_key = items
            .iter()
            .enumerate()
            .map(|(i, it)| (it.key.as_str(), i))
            .collect();
        Oracle {
            items,
            by_key,
            expected,
            project,
        }
    }

    fn location(&self, key: &str) -> String {
        format!("lsdf://{}/{key}", self.project)
    }

    /// Whether `rec` is the catalog entry of input `idx`.
    fn record_ok(&self, rec: &DatasetRecord, idx: usize) -> bool {
        let it = self.items[idx];
        rec.name == it.key
            && rec.location == self.location(&it.key)
            && rec.size_bytes == it.data.len() as u64
            && rec.checksum_hex == self.expected[idx]
    }

    /// Mismatches in a browse result: the hits must be exactly the
    /// ingested items the predicate selects, each with its own record,
    /// and each fetch must return that item's bytes.
    fn browse_mismatches(
        &self,
        q: &Query,
        ingested: usize,
        hits: &[DatasetRecord],
        fetched: &[Option<Bytes>],
    ) -> u64 {
        let want = self.items[..ingested]
            .iter()
            .filter(|it| q.expects(&it.attrs))
            .count();
        let mut bad = u64::from(hits.len() != want);
        for (i, h) in hits.iter().enumerate() {
            let ok = match self.by_key.get(h.name.as_str()) {
                Some(&idx) => {
                    let bytes_ok = match (i < FETCHES, fetched.get(i)) {
                        (false, _) => true,
                        (true, Some(Some(b))) => b[..] == self.items[idx].data[..],
                        (true, _) => false,
                    };
                    idx < ingested
                        && q.expects(&self.items[idx].attrs)
                        && self.record_ok(h, idx)
                        && bytes_ok
                }
                None => false,
            };
            bad += u64::from(!ok);
        }
        bad
    }

    /// Reads back every ingested item through its own project and
    /// checks bytes and catalog entry; returns the mismatches.
    fn readback_mismatches(&self, live: &Live<'_>, ingested: usize) -> u64 {
        let mut bad = 0;
        for (idx, it) in self.items[..ingested].iter().enumerate() {
            let bytes_ok = live
                .f
                .adal()
                .get(&live.cred, &self.location(&it.key))
                .is_ok_and(|b| b[..] == it.data[..]);
            let rec_ok = live
                .store
                .get_by_name(&it.key)
                .is_some_and(|r| self.record_ok(&r, idx));
            bad += u64::from(!(bytes_ok && rec_ok));
        }
        bad
    }
}

fn check_report(r: &mut EpisodeResult, report: &IngestReport, b: &Batch, what: &str) {
    let n = b.items.len() as u64;
    let bytes: u64 = b.items.iter().map(|it| it.data.len() as u64).sum();
    r.fail(n - report.registered.min(n), || {
        format!("{what} batch at t={}: {report:?}", b.t_ns)
    });
    if report.registered == n && report.bytes != bytes {
        r.fail(1, || {
            format!(
                "{what} batch at t={}: {} bytes acked of {bytes}",
                b.t_ns, report.bytes
            )
        });
    }
}

fn histogram_sum(reg: &Registry, name: &str) -> u64 {
    reg.snapshot()
        .histograms
        .iter()
        .filter(|(id, _)| id.name == name)
        .map(|(_, h)| h.sum)
        .sum()
}

/// Runs episode `episode`, traced (per-layer timing from outside) or
/// not. Inputs are the same for the same `(seed, episode)` either way.
pub fn run_episode(ctx: &mut Ctx, episode: u64, traced: bool) -> EpisodeResult {
    let (ep, expected) = ctx.generate(episode);
    let w = ctx.workload;
    let project = w.project();
    let oracle = Oracle::new(&ep, &expected, project);
    let mut r = EpisodeResult::default();
    let mut layers = traced.then(Layers::default);
    let digests0 = payload_digests_computed();
    let copies0 = payload_deep_copies();

    let t = now();
    let (f, reg) = build(w, &ctx.spec);
    let session = f
        .session(project)
        .expect("the workload's project is mounted");
    let live = Live {
        f: &f,
        reg: &reg,
        session,
        store: f
            .store(project)
            .expect("the workload's project has a catalog"),
        cred: f.admin().clone(),
        project,
    };
    for b in &ep.preload {
        let (report, _) = live.ingest(b, None);
        check_report(&mut r, &report, b, "preload");
        r.counts.batches += 1;
        r.counts.items += b.items.len() as u64;
        r.user_bytes += report.bytes;
    }
    if !ep.preload.is_empty() {
        // A loaded catalog starts from a checkpoint, so no checkpoint of
        // the preload lands in the timed phase.
        live.store.checkpoint();
    }
    r.setup_ns = ns_since(t);

    let mut ingested = ep.preload.iter().map(|b| b.items.len()).sum::<usize>();
    for step in &ep.main {
        match step {
            Step::Ingest(b) => {
                let (report, dt) = live.ingest(b, layers.as_mut());
                check_report(&mut r, &report, b, "ingest");
                r.acks_ns.push(dt);
                r.main_ns += dt;
                r.main_items += b.items.len() as u64;
                r.acked.push((report.registered, report.bytes));
                r.user_bytes += report.bytes;
                r.attempted += b.items.len() as u64;
                r.counts.batches += 1;
                r.counts.items += b.items.len() as u64;
                ingested += b.items.len();
            }
            Step::Browse(q) => {
                browse_step(&live, &oracle, q, ingested, &mut r, layers.as_mut());
                let dt = *r.browse_ns.last().unwrap_or(&0);
                r.main_ns += dt;
                r.main_browse_ns += dt;
                r.main_requests += 1;
            }
        }
    }
    let bad = oracle.readback_mismatches(&live, ingested);
    r.fail(bad, || format!("{bad} items failed read-back"));
    r.stored_bytes = live.stored_bytes();

    for q in &ep.epilogue {
        browse_step(&live, &oracle, q, ingested, &mut r, layers.as_mut());
    }

    let before = live.digests();
    for (i, &seed) in ep.crash_seeds.iter().enumerate() {
        reg.set_virtual_time_ns(ep.restart_t_ns + i as u64);
        let (replayed, dt) = match layers.as_mut() {
            None => {
                let t = now();
                let report = f.crash_restart(seed);
                let dt = ns_since(t);
                let dfs = report.components.iter().filter(|c| c.component == "dfs");
                r.counts.dfs_replayed += dfs.map(|c| c.replayed).sum::<u64>();
                (report.total_replayed(), dt)
            }
            Some(l) => {
                let dfs0 = l.dfs_replayed;
                let t = now();
                let replayed = trace::crash_restart(&f, seed, l);
                let dt = ns_since(t);
                r.counts.dfs_replayed += l.dfs_replayed - dfs0;
                (replayed, dt)
            }
        };
        r.recover_ns.push(dt);
        r.counts.replayed += replayed;
        r.attempted += 1;
        let after = live.digests();
        r.fail(u64::from(after != before), || {
            format!("restart {i} (seed {seed}) changed the digests")
        });
    }

    let c = &mut r.counts;
    c.admitted = reg.counter_total(names::ADMISSION_ADMITTED_TOTAL);
    c.shed = reg.counter_total(names::ADMISSION_SHED_TOTAL);
    c.wal_appends = reg.counter_total(names::WAL_APPENDS_TOTAL);
    c.wal_bytes = histogram_sum(&reg, names::WAL_APPEND_BYTES);
    c.fsyncs = reg.counter_total(names::WAL_FSYNCS_TOTAL);
    c.checkpoints = reg.counter_total(names::CKPT_TAKEN_TOTAL);
    c.ckpt_bytes = histogram_sum(&reg, names::CKPT_BYTES);
    c.scrapes = reg.counter_total(names::TELEMETRY_SCRAPES_TOTAL);
    c.series = f.telemetry().series_count() as u64;
    c.digests = payload_digests_computed() - digests0;
    c.deep_copies = payload_deep_copies() - copies0;
    let shed = c.shed;
    r.fail(shed, || format!("{shed} requests shed at admission"));
    r.layers = layers;
    r
}

fn browse_step(
    live: &Live<'_>,
    oracle: &Oracle<'_>,
    q: &Query,
    ingested: usize,
    r: &mut EpisodeResult,
    layers: Option<&mut Layers>,
) {
    let (dt, hits, fetched, rows) = live.browse(q, layers);
    r.browse_ns.push(dt);
    r.attempted += 1;
    let s = q.shape.idx();
    r.counts.queries[s] += 1;
    r.counts.hits[s] += hits.len() as u64;
    r.counts.rows_examined[s] += rows;
    let bad = oracle.browse_mismatches(q, ingested, &hits, &fetched);
    r.fail(bad, || {
        format!(
            "{} query at t={}: {bad} mismatches in {} hits",
            q.shape.name(),
            q.t_ns,
            hits.len()
        )
    });
}
