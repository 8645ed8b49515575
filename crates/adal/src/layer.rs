//! The ADAL itself: a registry mapping project mounts to backends, with
//! authentication, authorization and operation accounting on every call.
//!
//! Accounting goes through the `lsdf-obs` registry: each operation
//! bumps `adal_ops_total{op=..}` (plus a per-project
//! `adal_project_ops_total{project=..,op=..}` breakdown) and records
//! its latency into `adal_op_latency_ns{op=..}`.
//!
//! Each operation has one code path — resolve, call the mount's
//! backend with the operation's trace context (disabled when no tracer
//! is attached), account — and a single put is a staged put of one
//! committed as a batch of one.
//!
//! [`Adal::mount_resilient`] mounts a project through a
//! `ResilientBackend` (the `resilience` module): a [`StorageBackend`]
//! decorator holding the retries, circuit breaker, read-back
//! verification, replica fan-out, failover reads and redo journal a
//! 24/7 ingest facility needs. The layer calls it like any other
//! backend; only [`Adal::drain_journal`] and [`Adal::health`] hold a
//! typed handle to it. Its counters (`adal_retries_total`,
//! `adal_breaker_transitions_total{to=..}`, `adal_failover_reads_total`,
//! `adal_journal_depth` and friends) land in the shared registry, and
//! [`Adal::health`] assembles a per-project [`HealthReport`].

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use lsdf_obs::{Counter, Histogram, Registry, Span, TraceCtx, Tracer};
use lsdf_pool::WorkerPool;
use lsdf_storage::Payload;

use crate::auth::{Access, Acl, AuthError, AuthProvider, Credential, TokenAuth};
use crate::backend::{BackendError, EntryMeta, StagedPut, StorageBackend};
use crate::path::{LsdfPath, PathError};
use lsdf_obs::names;

use crate::resilience::{BreakerState, HealthReport, ResilienceConfig, ResilientBackend};

/// Errors surfaced by ADAL operations.
#[derive(Debug, Clone, PartialEq)]
pub enum AdalError {
    /// Malformed path.
    Path(PathError),
    /// Authentication / authorization failure.
    Auth(AuthError),
    /// No backend mounted for the project.
    NoMount(String),
    /// Backend-level failure.
    Backend(BackendError),
}

impl std::fmt::Display for AdalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdalError::Path(e) => write!(f, "path: {e}"),
            AdalError::Auth(e) => write!(f, "auth: {e}"),
            AdalError::NoMount(p) => write!(f, "no backend mounted for project '{p}'"),
            AdalError::Backend(e) => write!(f, "backend: {e}"),
        }
    }
}

impl std::error::Error for AdalError {}

impl From<PathError> for AdalError {
    fn from(e: PathError) -> Self {
        AdalError::Path(e)
    }
}
impl From<AuthError> for AdalError {
    fn from(e: AuthError) -> Self {
        AdalError::Auth(e)
    }
}
impl From<BackendError> for AdalError {
    fn from(e: BackendError) -> Self {
        AdalError::Backend(e)
    }
}

/// The operation kinds [`Adal::classify`] understands — the same set
/// the per-op counters track, as a type instead of a string.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `put` — store an object.
    Put,
    /// `get` — fetch an object.
    Get,
    /// `stat` — metadata for one object.
    Stat,
    /// `list` — enumerate a prefix.
    List,
    /// `delete` — remove an object.
    Delete,
}

/// How the multi-tenant front door should treat a request, derived
/// from the operation and the backend serving the project. The
/// admission layer maps each class onto a QoS lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// Latency-sensitive read-side traffic (`get`/`stat`/`list`).
    InteractiveRead,
    /// Throughput-bound write-side traffic (`put`/`delete`).
    BulkWrite,
    /// Read-side traffic on an HSM mount, where a cold read winds tape.
    TapeRecall,
}

/// Cached registry handles for the hot path — resolved once at
/// construction so operations only touch atomics.
struct OpMetrics {
    puts: Counter,
    gets: Counter,
    stats: Counter,
    lists: Counter,
    deletes: Counter,
    denied: Counter,
    put_latency: Histogram,
    get_latency: Histogram,
    stat_latency: Histogram,
    list_latency: Histogram,
    put_bytes: Histogram,
    get_bytes: Histogram,
}

impl OpMetrics {
    fn new(reg: &Registry) -> Self {
        let op_counter = |op| reg.counter(names::ADAL_OPS_TOTAL, &[("op", op)]);
        let op_latency = |op| reg.histogram(names::ADAL_OP_LATENCY_NS, &[("op", op)]);
        OpMetrics {
            puts: op_counter("put"),
            gets: op_counter("get"),
            stats: op_counter("stat"),
            lists: op_counter("list"),
            deletes: op_counter("delete"),
            denied: reg.counter(names::ADAL_DENIED_TOTAL, &[]),
            put_latency: op_latency("put"),
            get_latency: op_latency("get"),
            stat_latency: op_latency("stat"),
            list_latency: op_latency("list"),
            put_bytes: reg.histogram(names::ADAL_PUT_BYTES, &[]),
            get_bytes: reg.histogram(names::ADAL_GET_BYTES, &[]),
        }
    }
}

/// One project mount: the backend every operation calls, plus — for a
/// resilient mount — a typed handle to that same backend, read only by
/// [`Adal::drain_journal`] and [`Adal::health`].
#[derive(Clone)]
struct Mount {
    backend: Arc<dyn StorageBackend>,
    resilient: Option<Arc<ResilientBackend>>,
}

/// A put staged by [`Adal::put_stage_traced`], carrying everything
/// needed to finalize it — the deferred backend commit plus
/// the latency span and per-project accounting that
/// [`Adal::commit_staged`] completes in batch order. The trace span
/// closes at stage time, while its parent (e.g. a pool task span) is
/// still open — a trace child finishing after its parent is dropped.
pub struct PendingPut {
    backend: Arc<dyn StorageBackend>,
    staged: StagedPut,
    project: String,
    kind: &'static str,
    len: u64,
    span: Span,
}

/// The Abstract Data Access Layer.
pub struct Adal {
    auth: Arc<dyn AuthProvider>,
    acl: Arc<Acl>,
    mounts: RwLock<HashMap<String, Mount>>,
    obs: Arc<Registry>,
    ops: OpMetrics,
    pool: WorkerPool,
    tracer: Option<Tracer>,
}

impl Adal {
    /// Starts a fluent [`AdalBuilder`].
    pub fn builder() -> AdalBuilder {
        AdalBuilder::new()
    }

    /// The obs registry this layer records into.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// The worker pool used for resilient replica fan-out.
    pub fn pool(&self) -> WorkerPool {
        self.pool
    }

    /// The causal tracer, if one is attached.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Mints the root trace context for one operation, or a disabled
    /// context when no tracer is attached.
    fn trace_root(&self, name: &'static str, key: &str) -> TraceCtx {
        match &self.tracer {
            Some(t) => t.root(name, key),
            None => TraceCtx::disabled(),
        }
    }

    /// Mounts a backend under a project name. Remounting replaces the
    /// previous backend (used for transparent technology migrations —
    /// slide 6: "transparent access over background storage and
    /// technology changes").
    pub fn mount(&self, project: &str, backend: Arc<dyn StorageBackend>) {
        self.obs.event(
            names::ADAL_MOUNT_LOG_EVENT,
            &[("project", project), ("backend", backend.kind())],
        );
        self.mounts.write().insert(
            project.to_string(),
            Mount {
                backend,
                resilient: None,
            },
        );
    }

    /// Mounts a backend with the full resilience stack: retries for
    /// transient errors, a circuit breaker, optional replica failover
    /// for reads, and a redo journal for degraded writes. Successful
    /// writes are also copied to `replica` (best effort), so the
    /// replica can serve reads while the primary's breaker is open.
    ///
    /// Remounting replaces any previous mount for the project; the
    /// resilience state (breaker, journal) starts fresh.
    pub fn mount_resilient(
        &self,
        project: &str,
        primary: Arc<dyn StorageBackend>,
        replica: Option<Arc<dyn StorageBackend>>,
        cfg: ResilienceConfig,
    ) {
        let kind = primary.kind();
        let resilient = Arc::new(ResilientBackend::new(
            project,
            primary,
            replica,
            cfg,
            self.obs.clone(),
            self.pool,
        ));
        self.obs.event(
            names::ADAL_MOUNT_LOG_EVENT,
            &[
                ("project", project),
                ("backend", kind),
                ("mode", "resilient"),
            ],
        );
        self.mounts.write().insert(
            project.to_string(),
            Mount {
                backend: resilient.clone(),
                resilient: Some(resilient),
            },
        );
    }

    /// The backend kind currently serving a project.
    pub fn backend_kind(&self, project: &str) -> Option<&'static str> {
        self.mounts.read().get(project).map(|m| m.backend.kind())
    }

    /// Mounted project names, sorted.
    pub fn projects(&self) -> Vec<String> {
        let mut v: Vec<String> = self.mounts.read().keys().cloned().collect();
        v.sort_unstable();
        v
    }

    fn resolve(
        &self,
        cred: &Credential,
        path: &str,
        access: Access,
    ) -> Result<(Mount, LsdfPath), AdalError> {
        self.resolve_parsed(cred, LsdfPath::parse(path)?, access)
    }

    fn resolve_parsed(
        &self,
        cred: &Credential,
        parsed: LsdfPath,
        access: Access,
    ) -> Result<(Mount, LsdfPath), AdalError> {
        let principal = self.auth.authenticate(cred).inspect_err(|_| {
            self.ops.denied.inc();
        })?;
        self.acl
            .check(&principal, &parsed.project, access)
            .inspect_err(|_| {
                self.ops.denied.inc();
            })?;
        let mount = self
            .mounts
            .read()
            .get(&parsed.project)
            .cloned()
            .ok_or_else(|| AdalError::NoMount(parsed.project.clone()))?;
        Ok((mount, parsed))
    }

    /// Per-project operation breakdown, labelled by backend kind.
    fn project_op(&self, project: &str, backend: &str, op: &str) {
        self.obs
            .counter(
                names::ADAL_PROJECT_OPS_TOTAL,
                &[("project", project), ("backend", backend), ("op", op)],
            )
            .inc();
    }

    /// Per-project latency view — the per-tenant histogram the admission
    /// governor's SLO rules read to find the project breaching its p99.
    fn project_op_latency(&self, project: &str, dt_ns: u64) {
        self.obs
            .histogram(names::ADAL_PROJECT_OP_LATENCY_NS, &[("project", project)])
            .record(dt_ns);
    }

    /// Classifies an operation into the admission lane it should ride:
    /// read-side ops are interactive unless the project sits on an HSM
    /// mount (where a read may wind tape); write-side ops are bulk.
    pub fn classify(&self, op: OpKind, project: &str) -> RequestClass {
        match op {
            OpKind::Put | OpKind::Delete => RequestClass::BulkWrite,
            OpKind::Get | OpKind::Stat | OpKind::List => {
                if self.backend_kind(project) == Some("hsm") {
                    RequestClass::TapeRecall
                } else {
                    RequestClass::InteractiveRead
                }
            }
        }
    }

    /// Stores an object at `lsdf://project/key`: a staged put of one,
    /// committed as a batch of one.
    pub fn put(
        &self,
        cred: &Credential,
        path: &str,
        data: impl Into<Payload>,
    ) -> Result<(), AdalError> {
        let pending = self.put_stage_traced(&TraceCtx::disabled(), cred, path, data)?;
        self.commit_staged(vec![pending])
            .pop()
            .unwrap_or(Ok(()))
    }

    /// Stages a put for a later batched commit: resolution and the
    /// backend's stage step (block placement; the whole write on
    /// backends that commit eagerly) happen now, safely in a pool
    /// worker; the metadata commit that serialises on shared state is
    /// deferred to [`Adal::commit_staged`]. A write staged here is
    /// **not** acknowledgeable until its commit returns Ok.
    pub fn put_stage_traced(
        &self,
        parent: &TraceCtx,
        cred: &Credential,
        path: &str,
        data: impl Into<Payload>,
    ) -> Result<PendingPut, AdalError> {
        let trace = if parent.is_enabled() {
            let t = parent.child(names::ADAL_PUT_SPAN);
            t.add_field("path", path);
            t
        } else {
            self.trace_root(names::ADAL_PUT_SPAN, path)
        };
        let span = self.obs.span(&self.ops.put_latency);
        let (mount, parsed) = self.resolve(cred, path, Access::Write)?;
        let data = data.into();
        let len = data.len() as u64;
        let staged = mount.backend.stage_put(&trace, &parsed.key, data)?;
        trace.finish();
        Ok(PendingPut {
            kind: mount.backend.kind(),
            backend: mount.backend,
            staged,
            project: parsed.project,
            len,
            span,
        })
    }

    /// Commits a batch of staged puts, grouping them per backend so a
    /// whole N-file batch pays one namenode lock and one WAL group
    /// commit. Results are in batch order; per-put success metrics and
    /// spans are finalized here, serially, in batch order.
    pub fn commit_staged(&self, pending: Vec<PendingPut>) -> Vec<Result<(), AdalError>> {
        let mut outcomes: Vec<Result<(), BackendError>> = vec![Ok(()); pending.len()];
        let mut finalize = Vec::with_capacity(pending.len());
        // Group deferred commits by backend instance, preserving order.
        type CommitGroup = (Arc<dyn StorageBackend>, Vec<usize>, Vec<StagedPut>);
        let mut groups: Vec<CommitGroup> = Vec::new();
        for (i, p) in pending.into_iter().enumerate() {
            if let Some((_, idxs, batch)) = groups
                .iter_mut()
                .find(|(b, _, _)| Arc::ptr_eq(b, &p.backend))
            {
                idxs.push(i);
                batch.push(p.staged);
            } else {
                groups.push((p.backend, vec![i], vec![p.staged]));
            }
            finalize.push((p.project, p.kind, p.len, p.span));
        }
        for (backend, idxs, batch) in groups {
            for (i, r) in idxs.into_iter().zip(backend.commit_staged(batch)) {
                outcomes[i] = r;
            }
        }
        outcomes
            .into_iter()
            .zip(finalize)
            .map(|(outcome, (project, kind, len, span))| {
                outcome.map_err(AdalError::Backend)?;
                self.ops.puts.inc();
                self.ops.put_bytes.record(len);
                self.project_op(&project, kind, "put");
                let dt = span.finish();
                self.project_op_latency(&project, dt);
                Ok(())
            })
            .collect()
    }

    /// Fetches an object.
    pub fn get(&self, cred: &Credential, path: &str) -> Result<Bytes, AdalError> {
        let trace = self.trace_root(names::ADAL_GET_SPAN, path);
        let span = self.obs.span(&self.ops.get_latency);
        let (mount, parsed) = self.resolve(cred, path, Access::Read)?;
        let data = mount.backend.get(&trace, &parsed.key)?.into_bytes();
        self.ops.gets.inc();
        self.ops.get_bytes.record(data.len() as u64);
        self.project_op(&parsed.project, mount.backend.kind(), "get");
        let dt = span.finish();
        self.project_op_latency(&parsed.project, dt);
        trace.finish();
        Ok(data)
    }

    /// Metadata for an object.
    pub fn stat(&self, cred: &Credential, path: &str) -> Result<EntryMeta, AdalError> {
        let trace = self.trace_root(names::ADAL_STAT_SPAN, path);
        let span = self.obs.span(&self.ops.stat_latency);
        let (mount, parsed) = self.resolve(cred, path, Access::Read)?;
        let meta = mount.backend.stat(&trace, &parsed.key)?;
        self.ops.stats.inc();
        self.project_op(&parsed.project, mount.backend.kind(), "stat");
        let dt = span.finish();
        self.project_op_latency(&parsed.project, dt);
        trace.finish();
        Ok(meta)
    }

    /// Lists keys under `lsdf://project/prefix` (the prefix may be empty
    /// to list a whole project). Backend listing failures surface as
    /// [`AdalError::Backend`].
    pub fn list(&self, cred: &Credential, path: &str) -> Result<Vec<EntryMeta>, AdalError> {
        let trace = self.trace_root(names::ADAL_LIST_SPAN, path);
        let span = self.obs.span(&self.ops.list_latency);
        let (mount, parsed) =
            self.resolve_parsed(cred, LsdfPath::parse_prefix(path)?, Access::Read)?;
        let entries = mount.backend.list(&trace, &parsed.key)?;
        self.ops.lists.inc();
        self.project_op(&parsed.project, mount.backend.kind(), "list");
        let dt = span.finish();
        self.project_op_latency(&parsed.project, dt);
        trace.finish();
        Ok(entries)
    }

    /// Deletes an object (requires write access).
    pub fn delete(&self, cred: &Credential, path: &str) -> Result<(), AdalError> {
        let trace = self.trace_root(names::ADAL_DELETE_SPAN, path);
        let (mount, parsed) = self.resolve(cred, path, Access::Write)?;
        mount.backend.delete(&trace, &parsed.key)?;
        self.ops.deletes.inc();
        self.project_op(&parsed.project, mount.backend.kind(), "delete");
        trace.finish();
        Ok(())
    }

    /// Explicitly drains a project's redo journal (e.g. from a recovery
    /// loop after an outage ends). Returns entries landed. Plain mounts
    /// and unknown projects drain nothing.
    pub fn drain_journal(&self, project: &str) -> usize {
        let Some(resilient) = self.mounts.read().get(project).and_then(|m| m.resilient.clone())
        else {
            return 0;
        };
        let trace = self.trace_root(names::ADAL_DRAIN_SPAN, project);
        let drained = resilient.drain(&trace);
        if trace.is_enabled() {
            trace.add_field("drained", &drained.to_string());
        }
        trace.finish();
        drained
    }

    /// Point-in-time health of one project's mount. Plain mounts report
    /// a closed breaker and an empty journal.
    pub fn health(&self, project: &str) -> Option<HealthReport> {
        let mount = { self.mounts.read().get(project).cloned() }?;
        Some(match &mount.resilient {
            Some(resilient) => resilient.health(),
            None => HealthReport {
                project: project.to_string(),
                backend: mount.backend.kind(),
                breaker: BreakerState::Closed,
                failure_rate: 0.0,
                has_replica: false,
                journal_depth: 0,
                journal_bytes: 0,
                retries: 0,
                failover_reads: 0,
            },
        })
    }

    /// Health of every mounted project, sorted by project name.
    pub fn health_report(&self) -> Vec<HealthReport> {
        self.projects()
            .into_iter()
            .filter_map(|p| self.health(&p))
            .collect()
    }
}

/// Fluent construction for [`Adal`]: auth provider, ACL, initial
/// mounts, and the obs registry in one chain.
///
/// ```
/// use std::sync::Arc;
/// use lsdf_adal::{Adal, Acl, TokenAuth};
///
/// let auth = Arc::new(TokenAuth::new());
/// auth.register("tok", "alice");
/// let acl = Arc::new(Acl::new());
/// acl.grant("alice", "proj", true);
/// let adal = Adal::builder().auth(auth).acl(acl).build();
/// assert!(adal.projects().is_empty());
/// ```
#[derive(Default)]
pub struct AdalBuilder {
    auth: Option<Arc<dyn AuthProvider>>,
    acl: Option<Arc<Acl>>,
    mounts: Vec<(String, Arc<dyn StorageBackend>)>,
    registry: Option<Arc<Registry>>,
    workers: Option<usize>,
    tracer: Option<Tracer>,
}

impl AdalBuilder {
    /// An empty builder. Defaults: a fresh [`TokenAuth`] with no
    /// tokens, an empty [`Acl`], no mounts, a private registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the authentication provider.
    pub fn auth(mut self, auth: Arc<dyn AuthProvider>) -> Self {
        self.auth = Some(auth);
        self
    }

    /// Sets the ACL.
    pub fn acl(mut self, acl: Arc<Acl>) -> Self {
        self.acl = Some(acl);
        self
    }

    /// Adds an initial project mount.
    pub fn mount(mut self, project: &str, backend: Arc<dyn StorageBackend>) -> Self {
        self.mounts.push((project.to_string(), backend));
        self
    }

    /// Records into a shared obs registry instead of a private one.
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Sets the worker-pool width for resilient replica fan-out.
    /// Defaults to the `LSDF_WORKERS` environment variable (unset =
    /// serial). Results are identical for every worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Attaches a causal tracer: every operation mints a root trace,
    /// subject to the tracer's sampling mode.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Builds the layer and applies the mounts.
    pub fn build(self) -> Adal {
        let auth = self
            .auth
            .unwrap_or_else(|| Arc::new(TokenAuth::new()) as Arc<dyn AuthProvider>);
        let acl = self.acl.unwrap_or_else(|| Arc::new(Acl::new()));
        let registry = self.registry.unwrap_or_default();
        let pool = self
            .workers
            .map(WorkerPool::new)
            .unwrap_or_else(WorkerPool::from_env);
        let adal = Adal {
            auth,
            acl,
            mounts: RwLock::new(HashMap::new()),
            ops: OpMetrics::new(&registry),
            obs: registry,
            pool,
            tracer: self.tracer,
        };
        for (project, backend) in self.mounts {
            adal.mount(&project, backend);
        }
        adal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ObjectStoreBackend;
    use lsdf_storage::ObjectStore;

    fn setup() -> (Adal, Credential) {
        let auth = Arc::new(TokenAuth::new());
        auth.register("tok", "garcia");
        let acl = Arc::new(Acl::new());
        acl.grant("garcia", "zebrafish", true);
        acl.grant("garcia", "katrin", false); // read-only
        let adal = Adal::builder().auth(auth).acl(acl).workers(1).build();
        adal.mount(
            "zebrafish",
            Arc::new(ObjectStoreBackend::new(Arc::new(ObjectStore::new(
                "z",
                u64::MAX,
            )))),
        );
        adal.mount(
            "katrin",
            Arc::new(ObjectStoreBackend::new(Arc::new(ObjectStore::new(
                "k",
                u64::MAX,
            )))),
        );
        (adal, Credential::Token("tok".into()))
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get_through_the_layer() {
        let (adal, cred) = setup();
        adal.put(&cred, "lsdf://zebrafish/raw/i1", b("px")).unwrap();
        assert_eq!(adal.get(&cred, "lsdf://zebrafish/raw/i1").unwrap(), b("px"));
        let meta = adal.stat(&cred, "lsdf://zebrafish/raw/i1").unwrap();
        assert_eq!(meta.size, 2);
        let listed = adal.list(&cred, "lsdf://zebrafish/raw/").unwrap();
        assert_eq!(listed.len(), 1);
        let reg = adal.obs();
        for op in ["put", "get", "stat", "list"] {
            assert_eq!(reg.counter_value(names::ADAL_OPS_TOTAL, &[("op", op)]), 1, "{op}");
        }
        assert_eq!(reg.counter_value(names::ADAL_DENIED_TOTAL, &[]), 0);
        // Per-project breakdown carries the backend label.
        assert_eq!(
            reg.counter_value(
                names::ADAL_PROJECT_OPS_TOTAL,
                &[("project", "zebrafish"), ("backend", "object-store"), ("op", "put")],
            ),
            1
        );
        // Latency recorded per op.
        let lat = reg.histogram(names::ADAL_OP_LATENCY_NS, &[("op", "put")]);
        assert_eq!(lat.count(), 1);
        // Payload sizes recorded.
        assert_eq!(reg.histogram(names::ADAL_PUT_BYTES, &[]).sum(), 2);
    }

    #[test]
    fn builder_chain_builds_a_working_layer() {
        let auth = Arc::new(TokenAuth::new());
        auth.register("tok", "garcia");
        let acl = Arc::new(Acl::new());
        acl.grant("garcia", "zebrafish", true);
        let reg = Arc::new(Registry::new());
        let adal = Adal::builder()
            .auth(auth)
            .acl(acl)
            .registry(reg.clone())
            .mount(
                "zebrafish",
                Arc::new(ObjectStoreBackend::new(Arc::new(ObjectStore::new(
                    "z",
                    u64::MAX,
                )))),
            )
            .build();
        let cred = Credential::Token("tok".into());
        adal.put(&cred, "lsdf://zebrafish/a", b("1")).unwrap();
        assert_eq!(adal.projects(), vec!["zebrafish"]);
        // The shared registry saw the op.
        assert_eq!(reg.counter_value(names::ADAL_OPS_TOTAL, &[("op", "put")]), 1);
    }

    #[test]
    fn builder_defaults_deny_everything() {
        let adal = Adal::builder().build();
        let r = adal.get(&Credential::Token("any".into()), "lsdf://p/x");
        assert!(matches!(r, Err(AdalError::Auth(_))));
        assert_eq!(adal.obs().counter_value(names::ADAL_DENIED_TOTAL, &[]), 1);
    }

    #[test]
    fn write_denied_on_readonly_project() {
        let (adal, cred) = setup();
        let r = adal.put(&cred, "lsdf://katrin/run1", b("ev"));
        assert!(matches!(r, Err(AdalError::Auth(AuthError::Denied { .. }))));
        assert_eq!(adal.obs().counter_value(names::ADAL_DENIED_TOTAL, &[]), 1);
    }

    #[test]
    fn unknown_project_and_bad_paths() {
        let (adal, cred) = setup();
        // ACL denies before mount resolution for unknown projects.
        assert!(matches!(
            adal.get(&cred, "lsdf://mystery/x"),
            Err(AdalError::Auth(_))
        ));
        assert!(matches!(
            adal.get(&cred, "file:///etc/passwd"),
            Err(AdalError::Path(_))
        ));
    }

    #[test]
    fn bad_credential_rejected() {
        let (adal, _) = setup();
        let r = adal.get(&Credential::Token("nope".into()), "lsdf://zebrafish/x");
        assert!(matches!(
            r,
            Err(AdalError::Auth(AuthError::InvalidCredential))
        ));
    }

    #[test]
    fn remount_swaps_backend_transparently() {
        let (adal, cred) = setup();
        adal.put(&cred, "lsdf://zebrafish/a", b("1")).unwrap();
        assert_eq!(adal.backend_kind("zebrafish"), Some("object-store"));
        // Technology change: remount the project onto a fresh backend
        // (clients keep using the same paths).
        let new_store = Arc::new(ObjectStore::new("z2", u64::MAX));
        new_store.put("a", b("1")).unwrap(); // migrated content
        adal.mount(
            "zebrafish",
            Arc::new(ObjectStoreBackend::new(new_store)),
        );
        assert_eq!(adal.get(&cred, "lsdf://zebrafish/a").unwrap(), b("1"));
    }

    #[test]
    fn projects_enumerated() {
        let (adal, _) = setup();
        assert_eq!(adal.projects(), vec!["katrin", "zebrafish"]);
    }

    // ----- resilience ----------------------------------------------------

    use crate::resilience::{BreakerConfig, RetryPolicy};
    use parking_lot::Mutex;

    /// Test double: an object store whose next N primary calls fail with
    /// a transient error, and whose next M puts are torn (stored
    /// corrupted while still acknowledged).
    struct ScriptedBackend {
        inner: ObjectStoreBackend,
        fail_budget: Mutex<u64>,
        tear_budget: Mutex<u64>,
    }

    impl ScriptedBackend {
        fn new(name: &str) -> Arc<Self> {
            Arc::new(ScriptedBackend {
                inner: ObjectStoreBackend::new(Arc::new(ObjectStore::new(name, u64::MAX))),
                fail_budget: Mutex::new(0),
                tear_budget: Mutex::new(0),
            })
        }
        fn fail_next(&self, n: u64) {
            *self.fail_budget.lock() = n;
        }
        fn tear_next(&self, n: u64) {
            *self.tear_budget.lock() = n;
        }
        fn trip(&self, budget: &Mutex<u64>) -> bool {
            let mut b = budget.lock();
            if *b > 0 {
                *b -= 1;
                true
            } else {
                false
            }
        }
    }

    impl StorageBackend for ScriptedBackend {
        fn kind(&self) -> &'static str {
            "scripted"
        }
        fn put(&self, ctx: &TraceCtx, key: &str, data: Payload) -> Result<(), BackendError> {
            if self.trip(&self.fail_budget) {
                return Err(BackendError::TransientIo(format!("scripted put '{key}'")));
            }
            if self.trip(&self.tear_budget) {
                // Torn write: mutate a private copy — the shared buffer
                // is immutable — and store it as a fresh payload with a
                // fresh digest cell.
                let mut torn = data.to_vec();
                torn[0] ^= 0xff;
                return self.inner.put(ctx, key, Payload::from(torn));
            }
            self.inner.put(ctx, key, data)
        }
        fn get(&self, ctx: &TraceCtx, key: &str) -> Result<Payload, BackendError> {
            if self.trip(&self.fail_budget) {
                return Err(BackendError::TransientIo(format!("scripted get '{key}'")));
            }
            self.inner.get(ctx, key)
        }
        fn stat(&self, ctx: &TraceCtx, key: &str) -> Result<EntryMeta, BackendError> {
            if self.trip(&self.fail_budget) {
                return Err(BackendError::TransientIo(format!("scripted stat '{key}'")));
            }
            self.inner.stat(ctx, key)
        }
        fn delete(&self, ctx: &TraceCtx, key: &str) -> Result<(), BackendError> {
            if self.trip(&self.fail_budget) {
                return Err(BackendError::TransientIo(format!(
                    "scripted delete '{key}'"
                )));
            }
            self.inner.delete(ctx, key)
        }
        fn list(&self, ctx: &TraceCtx, prefix: &str) -> Result<Vec<EntryMeta>, BackendError> {
            if self.trip(&self.fail_budget) {
                return Err(BackendError::TransientIo(format!(
                    "scripted list '{prefix}'"
                )));
            }
            self.inner.list(ctx, prefix)
        }
    }

    /// Resilient ADAL over a scripted primary + plain replica, with a
    /// small breaker window and the registry pinned to virtual time so
    /// cool-downs are test-controlled.
    fn resilient_setup(
        name: &str,
    ) -> (Adal, Credential, Arc<ScriptedBackend>, Arc<dyn StorageBackend>) {
        let auth = Arc::new(TokenAuth::new());
        auth.register("tok", "garcia");
        let acl = Arc::new(Acl::new());
        acl.grant("garcia", "anka", true);
        let reg = Arc::new(Registry::new());
        reg.set_virtual_time_ns(1);
        let adal = Adal::builder()
            .auth(auth)
            .acl(acl)
            .registry(reg)
            .workers(1)
            .build();
        let primary = ScriptedBackend::new(name);
        let replica: Arc<dyn StorageBackend> = Arc::new(ObjectStoreBackend::new(Arc::new(
            ObjectStore::new("replica", u64::MAX),
        )));
        let cfg = ResilienceConfig {
            retry: RetryPolicy::new(2, 100, 1_000, 0),
            breaker: BreakerConfig {
                window: 4,
                min_calls: 2,
                failure_rate: 0.5,
                cooldown_ns: 1_000,
                half_open_probes: 1,
            },
            journal_entries: 2,
            ..ResilienceConfig::default()
        };
        adal.mount_resilient("anka", primary.clone(), Some(replica.clone()), cfg);
        (adal, Credential::Token("tok".into()), primary, replica)
    }

    #[test]
    fn resilient_put_retries_through_transient_faults() {
        let (adal, cred, primary, _) = resilient_setup("p1");
        primary.fail_next(1);
        adal.put(&cred, "lsdf://anka/run/f1", b("data")).unwrap();
        assert_eq!(adal.get(&cred, "lsdf://anka/run/f1").unwrap(), b("data"));
        let reg = adal.obs();
        let p = [("project", "anka")];
        assert_eq!(reg.counter_value(names::ADAL_RETRIES_TOTAL, &p), 1);
        assert_eq!(reg.counter_value(names::ADAL_TRANSIENT_OBSERVED_TOTAL, &p), 1);
        assert_eq!(reg.counter_value(names::ADAL_RETRY_EXHAUSTED_TOTAL, &p), 0);
        // The retry schedule was recorded, not slept.
        assert_eq!(reg.histogram(names::ADAL_RETRY_BACKOFF_NS, &p).count(), 1);
    }

    #[test]
    fn torn_write_detected_cleaned_and_retried() {
        let (adal, cred, primary, _) = resilient_setup("p2");
        primary.tear_next(1);
        adal.put(&cred, "lsdf://anka/run/f1", b("payload")).unwrap();
        // The torn first copy was detected by the read-back comparison,
        // deleted, and the retry landed the intact payload.
        assert_eq!(adal.get(&cred, "lsdf://anka/run/f1").unwrap(), b("payload"));
        let reg = adal.obs();
        let p = [("project", "anka")];
        assert_eq!(reg.counter_value(names::ADAL_WRITE_VERIFY_FAILURES_TOTAL, &p), 1);
        assert_eq!(reg.counter_value(names::ADAL_RETRIES_TOTAL, &p), 1);
    }

    #[test]
    fn breaker_opens_degrades_and_recovers() {
        let (adal, cred, primary, _) = resilient_setup("p3");
        let reg = adal.obs().clone();
        let p = [("project", "anka")];

        // A healthy write lands on primary and replica.
        adal.put(&cred, "lsdf://anka/a", b("aa")).unwrap();

        // Persistent failure: the retry budget (2 attempts) is spent,
        // the breaker opens, and the acked write degrades to the journal.
        primary.fail_next(u64::MAX / 2);
        adal.put(&cred, "lsdf://anka/b", b("bb")).unwrap();
        assert_eq!(reg.counter_value(names::ADAL_BREAKER_TRANSITIONS_TOTAL, &[("project", "anka"), ("to", "open")]), 1);
        assert_eq!(reg.counter_value(names::ADAL_JOURNAL_ENQUEUED_TOTAL, &p), 1);
        assert_eq!(reg.gauge_value(names::ADAL_JOURNAL_DEPTH, &p), 1);
        let h = adal.health("anka").unwrap();
        assert_eq!(h.breaker, BreakerState::Open);
        assert_eq!(h.journal_depth, 1);
        assert!(h.has_replica);

        // Counter identity: every observed transient is either retried
        // or ends a retry loop.
        assert_eq!(
            reg.counter_value(names::ADAL_TRANSIENT_OBSERVED_TOTAL, &p),
            reg.counter_value(names::ADAL_RETRIES_TOTAL, &p)
                + reg.counter_value(names::ADAL_RETRY_EXHAUSTED_TOTAL, &p)
        );

        // Degraded reads: 'a' fails over to the replica, 'b' is served
        // from the journal (read-your-writes), the listing merges both.
        assert_eq!(adal.get(&cred, "lsdf://anka/a").unwrap(), b("aa"));
        assert_eq!(reg.counter_value(names::ADAL_FAILOVER_READS_TOTAL, &p), 1);
        assert_eq!(adal.get(&cred, "lsdf://anka/b").unwrap(), b("bb"));
        assert_eq!(adal.stat(&cred, "lsdf://anka/b").unwrap().size, 2);
        let listed = adal.list(&cred, "lsdf://anka/").unwrap();
        assert_eq!(
            listed.iter().map(|e| e.key.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );

        // Write-once holds for journaled keys and for replica-landed keys.
        assert!(matches!(
            adal.put(&cred, "lsdf://anka/b", b("x")),
            Err(AdalError::Backend(BackendError::AlreadyExists(_)))
        ));
        assert!(matches!(
            adal.put(&cred, "lsdf://anka/a", b("x")),
            Err(AdalError::Backend(BackendError::AlreadyExists(_)))
        ));

        // The journal is bounded (2 entries): one more degraded write
        // fits, the next is refused rather than silently acked.
        adal.put(&cred, "lsdf://anka/c", b("cc")).unwrap();
        assert!(matches!(
            adal.put(&cred, "lsdf://anka/d", b("dd")),
            Err(AdalError::Backend(BackendError::NoSpace(_)))
        ));

        // Recovery: heal the backend, let the cool-down elapse, drain.
        primary.fail_next(0);
        reg.set_virtual_time_ns(10_000);
        assert_eq!(adal.drain_journal("anka"), 2);
        assert_eq!(reg.counter_value(names::ADAL_BREAKER_TRANSITIONS_TOTAL, &[("project", "anka"), ("to", "half_open")]), 1);
        assert_eq!(reg.counter_value(names::ADAL_BREAKER_TRANSITIONS_TOTAL, &[("project", "anka"), ("to", "closed")]), 1);
        assert_eq!(reg.gauge_value(names::ADAL_JOURNAL_DEPTH, &p), 0);
        let h = adal.health("anka").unwrap();
        assert_eq!(h.breaker, BreakerState::Closed);
        assert_eq!(h.journal_depth, 0);
        // Journaled writes landed on the primary itself.
        let ctx = &TraceCtx::disabled();
        assert!(primary.inner.exists(ctx, "b"));
        assert!(primary.inner.exists(ctx, "c"));
        assert_eq!(adal.get(&cred, "lsdf://anka/b").unwrap(), b("bb"));
    }

    #[test]
    fn open_breaker_read_without_replica_is_unavailable() {
        let auth = Arc::new(TokenAuth::new());
        auth.register("tok", "garcia");
        let acl = Arc::new(Acl::new());
        acl.grant("garcia", "anka", true);
        let reg = Arc::new(Registry::new());
        reg.set_virtual_time_ns(1);
        let adal = Adal::builder()
            .auth(auth)
            .acl(acl)
            .registry(reg)
            .workers(1)
            .build();
        let primary = ScriptedBackend::new("p4");
        let cfg = ResilienceConfig {
            retry: RetryPolicy::new(2, 100, 1_000, 0),
            breaker: BreakerConfig {
                window: 4,
                min_calls: 2,
                failure_rate: 0.5,
                cooldown_ns: 1_000,
                half_open_probes: 1,
            },
            ..ResilienceConfig::default()
        };
        adal.mount_resilient("anka", primary.clone(), None, cfg);
        let cred = Credential::Token("tok".into());
        primary.fail_next(u64::MAX / 2);
        // Acked into the journal even with no replica.
        adal.put(&cred, "lsdf://anka/k", b("v")).unwrap();
        // Journaled key still readable; anything else is honestly down.
        assert_eq!(adal.get(&cred, "lsdf://anka/k").unwrap(), b("v"));
        assert!(matches!(
            adal.get(&cred, "lsdf://anka/other"),
            Err(AdalError::Backend(BackendError::Unavailable(_)))
        ));
    }

    #[test]
    fn delete_cancels_journaled_write() {
        let (adal, cred, primary, _) = resilient_setup("p5");
        primary.fail_next(u64::MAX / 2);
        adal.put(&cred, "lsdf://anka/tmp", b("t")).unwrap();
        assert_eq!(adal.health("anka").unwrap().journal_depth, 1);
        adal.delete(&cred, "lsdf://anka/tmp").unwrap();
        assert_eq!(adal.health("anka").unwrap().journal_depth, 0);
        // Nothing to drain once healed.
        primary.fail_next(0);
        adal.obs().set_virtual_time_ns(10_000);
        assert_eq!(adal.drain_journal("anka"), 0);
        assert!(!primary.inner.exists(&TraceCtx::disabled(), "tmp"));
    }

    #[test]
    fn traced_put_records_attempts_and_retry_events() {
        use lsdf_obs::{TraceConfig, Tracer};
        let auth = Arc::new(TokenAuth::new());
        auth.register("tok", "garcia");
        let acl = Arc::new(Acl::new());
        acl.grant("garcia", "anka", true);
        let reg = Arc::new(Registry::new());
        reg.set_virtual_time_ns(1);
        let tracer = Tracer::new(&reg, TraceConfig::full());
        let adal = Adal::builder()
            .auth(auth)
            .acl(acl)
            .registry(reg.clone())
            .tracer(tracer.clone())
            .build();
        let primary = ScriptedBackend::new("tp");
        let replica: Arc<dyn StorageBackend> = Arc::new(ObjectStoreBackend::new(Arc::new(
            ObjectStore::new("replica-t", u64::MAX),
        )));
        let cfg = ResilienceConfig {
            retry: RetryPolicy::new(3, 100, 1_000, 0),
            ..ResilienceConfig::default()
        };
        adal.mount_resilient("anka", primary.clone(), Some(replica), cfg);
        let cred = Credential::Token("tok".into());
        primary.fail_next(1);
        adal.put(&cred, "lsdf://anka/k1", b("payload")).unwrap();
        let traces = tracer.traces();
        assert_eq!(traces.len(), 1);
        let root = &traces[0].root;
        assert_eq!(root.name, names::ADAL_PUT_SPAN);
        // Both fan-out legs were reserved serially, in a fixed order.
        assert_eq!(root.children[0].name, names::ADAL_PRIMARY_PUT_SPAN);
        assert_eq!(root.children[1].name, names::ADAL_REPLICA_PUT_SPAN);
        // The transient fault cost one extra attempt and one retry event.
        let attempts = root.children[0]
            .children
            .iter()
            .filter(|c| c.name == names::ADAL_ATTEMPT_SPAN)
            .count();
        assert_eq!(attempts, 2);
        let mut retries = 0;
        root.for_each_event(&mut |_, e| {
            if e.name == names::ADAL_RETRY_EVENT {
                retries += 1;
            }
        });
        assert_eq!(retries, 1);
        assert_eq!(
            reg.counter_value(names::ADAL_RETRIES_TOTAL, &[("project", "anka")]),
            1
        );
    }

    #[test]
    fn health_covers_plain_mounts_too() {
        let (adal, _) = setup();
        let h = adal.health("zebrafish").unwrap();
        assert_eq!(h.breaker, BreakerState::Closed);
        assert_eq!(h.journal_depth, 0);
        assert!(!h.has_replica);
        assert!(adal.health("nope").is_none());
        assert_eq!(adal.health_report().len(), 2);
    }
}
