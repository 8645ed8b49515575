//! The project metadata store: schema-validated inserts, WORM basic
//! metadata, appended processing results, tags, secondary indexes, and an
//! index-aware query executor with scan instrumentation.
//!
//! Every catalog mutation is one [`MetaWalRecord`] applied by
//! `StoreState::apply`, the catalog's only state transition: a live
//! method checks its preconditions, builds the record, logs it when the
//! store is durable and applies it; recovery applies each replayed
//! record, and checkpoint install applies the records that rebuild the
//! snapshot. Events are emitted by the live methods only.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use lsdf_sync::{ranks, OrderedRwLock};

use crate::events::{MetadataEvent, Subscriber};
use crate::index::{FieldIndex, TagIndex};
use crate::query::Predicate;
use crate::record::{DatasetId, DatasetRecord, ProcessingResult};
use crate::schema::{Document, Schema, SchemaError};
use crate::value::Value;
use crate::wal::{MetaSnapshot, MetaWalRecord};
use lsdf_durability::{ComponentDurability, RecoveryStats};
use lsdf_storage::sha256;

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq)]
pub enum MetadataError {
    /// Schema validation failed.
    Schema(SchemaError),
    /// Dataset id unknown.
    NotFound(DatasetId),
    /// A dataset with this name already exists.
    DuplicateName(String),
    /// Attempted to modify write-once basic metadata.
    WormViolation(DatasetId),
}

impl std::fmt::Display for MetadataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetadataError::Schema(e) => write!(f, "schema: {e}"),
            MetadataError::NotFound(id) => write!(f, "dataset {id:?} not found"),
            MetadataError::DuplicateName(n) => write!(f, "dataset name '{n}' already registered"),
            MetadataError::WormViolation(id) => {
                write!(f, "basic metadata of {id:?} is write-once (WORM)")
            }
        }
    }
}

impl std::error::Error for MetadataError {}

impl From<SchemaError> for MetadataError {
    fn from(e: SchemaError) -> Self {
        MetadataError::Schema(e)
    }
}

/// Parameters describing a new dataset at registration time.
#[derive(Debug, Clone)]
pub struct NewDataset {
    /// Unique name (usually the storage key).
    pub name: String,
    /// ADAL location of the payload.
    pub location: String,
    /// Payload size in bytes.
    pub size_bytes: u64,
    /// Hex SHA-256 of the payload (may be empty).
    pub checksum_hex: String,
    /// Basic (write-once) metadata; validated against the project schema.
    pub basic: Document,
}

struct StoreState {
    records: Vec<DatasetRecord>,
    by_name: HashMap<String, DatasetId>,
    field_indexes: HashMap<String, FieldIndex>,
    tag_index: TagIndex,
    subscribers: Vec<Subscriber>,
}

impl StoreState {
    /// An empty catalog with one field index per indexed schema field.
    fn new(schema: &Schema, subscribers: Vec<Subscriber>) -> Self {
        StoreState {
            records: Vec::new(),
            by_name: HashMap::new(),
            field_indexes: schema
                .indexed_fields()
                .map(|f| (f.to_string(), FieldIndex::new()))
                .collect(),
            tag_index: TagIndex::new(),
            subscribers,
        }
    }

    /// Applies one record, keeping the name map and every secondary
    /// index in step with the records; `false` when its effect is
    /// already present (idempotent skip). Emits no events.
    fn apply(&mut self, rec: MetaWalRecord) -> bool {
        match rec {
            MetaWalRecord::Insert { name, location, size_bytes, checksum_hex, basic } => {
                if self.by_name.contains_key(&name) {
                    return false;
                }
                let id = DatasetId(self.records.len() as u64);
                for (field, idx) in self.field_indexes.iter_mut() {
                    if let Some(v) = basic.get(field) {
                        idx.insert(v, id);
                    }
                }
                self.by_name.insert(name.clone(), id);
                self.records.push(DatasetRecord {
                    id,
                    name,
                    location,
                    size_bytes,
                    checksum_hex,
                    basic,
                    processing: Vec::new(),
                    tags: Default::default(),
                });
                true
            }
            MetaWalRecord::Tag { id, tag } => {
                let Some(rec) = self.records.get_mut(id.0 as usize) else {
                    return false;
                };
                let added = rec.tags.insert(tag.clone());
                if added {
                    self.tag_index.insert(&tag, id);
                }
                added
            }
            MetaWalRecord::Untag { id, tag } => {
                let Some(rec) = self.records.get_mut(id.0 as usize) else {
                    return false;
                };
                let removed = rec.tags.remove(&tag);
                if removed {
                    self.tag_index.remove(&tag, id);
                }
                removed
            }
            MetaWalRecord::AppendProcessing { id, step, params, results, derived_keys, seq } => {
                let Some(rec) = self.records.get_mut(id.0 as usize) else {
                    return false;
                };
                if rec.processing.len() as u32 >= seq {
                    return false;
                }
                rec.processing.push(ProcessingResult { step, params, results, derived_keys, seq });
                true
            }
        }
    }
}

/// A single project's metadata repository.
pub struct ProjectStore {
    project: String,
    schema: Schema,
    state: OrderedRwLock<StoreState>,
    /// Records touched by query execution — the cost metric for E7/E8.
    scanned: AtomicU64,
    queries: AtomicU64,
    durability: Option<ComponentDurability>,
}

impl ProjectStore {
    /// Creates an empty store for `schema`.
    pub fn new(schema: Schema) -> Self {
        Self::with_durability(schema, None)
    }

    /// Creates a store with an optional durability handle: when `Some`,
    /// every acked mutation is committed to the WAL before returning,
    /// and any existing state in the durable store (checkpoint + WAL
    /// segments from a previous incarnation) is recovered before this
    /// returns.
    pub fn with_durability(schema: Schema, durability: Option<ComponentDurability>) -> Self {
        let store = ProjectStore {
            project: schema.name.clone(),
            state: OrderedRwLock::new(ranks::META_STATE, StoreState::new(&schema, Vec::new())),
            schema,
            scanned: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            durability,
        };
        if store.durability.is_some() {
            store.recover();
        }
        store
    }

    /// The project name (same as the schema name).
    pub fn project(&self) -> &str {
        &self.project
    }

    /// The project schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of datasets registered.
    pub fn len(&self) -> usize {
        self.state.read().records.len()
    }

    /// True when no datasets are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Subscribes to change events.
    pub fn subscribe(&self, sub: Subscriber) {
        self.state.write().subscribers.push(sub);
    }

    fn emit(&self, subs: &[Subscriber], event: &MetadataEvent) {
        for s in subs {
            s(event);
        }
    }

    /// Commits one mutation: logs it when durable, then applies it.
    /// Called under the state lock, so log order is apply order.
    fn commit(&self, st: &mut StoreState, rec: MetaWalRecord) {
        if let Some(d) = &self.durability {
            d.log(&rec.encode());
        }
        st.apply(rec);
    }

    /// Registers a dataset. Basic metadata is validated and becomes
    /// write-once.
    pub fn insert(&self, new: NewDataset) -> Result<DatasetId, MetadataError> {
        self.schema.validate(&new.basic)?;
        let (id, subs) = {
            let mut st = self.state.write();
            if st.by_name.contains_key(&new.name) {
                return Err(MetadataError::DuplicateName(new.name));
            }
            // Ids are dense insertion indexes, so the one `apply`
            // assigns is the next slot, live and on replay alike.
            let id = DatasetId(st.records.len() as u64);
            let NewDataset { name, location, size_bytes, checksum_hex, basic } = new;
            self.commit(
                &mut st,
                MetaWalRecord::Insert { name, location, size_bytes, checksum_hex, basic },
            );
            (id, st.subscribers.clone())
        };
        self.emit(
            &subs,
            &MetadataEvent::Inserted {
                project: self.project.clone(),
                id,
            },
        );
        Ok(id)
    }

    /// Fetches a record by id.
    pub fn get(&self, id: DatasetId) -> Result<DatasetRecord, MetadataError> {
        self.state
            .read()
            .records
            .get(id.0 as usize)
            .cloned()
            .ok_or(MetadataError::NotFound(id))
    }

    /// Fetches a record by unique name.
    pub fn get_by_name(&self, name: &str) -> Option<DatasetRecord> {
        let st = self.state.read();
        st.by_name.get(name).map(|&id| st.records[id.0 as usize].clone())
    }

    /// Basic metadata is write-once: this always fails, by design. The
    /// method exists so that callers porting from mutable catalogs get a
    /// typed error instead of silently diverging from the facility
    /// contract (paper slide 8: "BASIC METADATA — write once, read many").
    pub fn update_basic(&self, id: DatasetId, _doc: Document) -> Result<(), MetadataError> {
        let st = self.state.read();
        if st.records.get(id.0 as usize).is_none() {
            return Err(MetadataError::NotFound(id));
        }
        Err(MetadataError::WormViolation(id))
    }

    /// Appends a processing-result set (the paper's METADATA N), returning
    /// its sequence number.
    pub fn append_processing(
        &self,
        id: DatasetId,
        step: &str,
        params: Document,
        results: Document,
        derived_keys: Vec<String>,
    ) -> Result<u32, MetadataError> {
        let (seq, subs) = {
            let mut st = self.state.write();
            let rec = st.records.get(id.0 as usize).ok_or(MetadataError::NotFound(id))?;
            let seq = rec.processing.len() as u32 + 1;
            let step = step.to_string();
            self.commit(
                &mut st,
                MetaWalRecord::AppendProcessing { id, step, params, results, derived_keys, seq },
            );
            (seq, st.subscribers.clone())
        };
        self.emit(
            &subs,
            &MetadataEvent::ProcessingAdded {
                project: self.project.clone(),
                id,
                step: step.to_string(),
                seq,
            },
        );
        Ok(seq)
    }

    /// Adds a tag; idempotent. Emits an event only on first addition.
    pub fn tag(&self, id: DatasetId, tag: &str) -> Result<(), MetadataError> {
        let (added, subs) = {
            let mut st = self.state.write();
            let rec = st.records.get(id.0 as usize).ok_or(MetadataError::NotFound(id))?;
            // A repeat tag is a no-op: nothing is logged.
            let added = !rec.tags.contains(tag);
            if added {
                self.commit(&mut st, MetaWalRecord::Tag { id, tag: tag.to_string() });
            }
            (added, st.subscribers.clone())
        };
        if added {
            self.emit(
                &subs,
                &MetadataEvent::Tagged {
                    project: self.project.clone(),
                    id,
                    tag: tag.to_string(),
                },
            );
        }
        Ok(())
    }

    /// Removes a tag; idempotent.
    pub fn untag(&self, id: DatasetId, tag: &str) -> Result<(), MetadataError> {
        let (removed, subs) = {
            let mut st = self.state.write();
            let rec = st.records.get(id.0 as usize).ok_or(MetadataError::NotFound(id))?;
            let removed = rec.tags.contains(tag);
            if removed {
                self.commit(&mut st, MetaWalRecord::Untag { id, tag: tag.to_string() });
            }
            (removed, st.subscribers.clone())
        };
        if removed {
            self.emit(
                &subs,
                &MetadataEvent::Untagged {
                    project: self.project.clone(),
                    id,
                    tag: tag.to_string(),
                },
            );
        }
        Ok(())
    }

    /// Executes a query, using secondary indexes where the predicate shape
    /// allows, and returns matching records in id order.
    pub fn query(&self, pred: &Predicate) -> Vec<DatasetRecord> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let st = self.state.read();
        let candidates = self.candidate_ids(&st, pred);
        match candidates {
            Some(mut ids) => {
                ids.sort_unstable();
                ids.dedup();
                self.scanned.fetch_add(ids.len() as u64, Ordering::Relaxed);
                ids.into_iter()
                    .map(|id| &st.records[id.0 as usize])
                    .filter(|r| pred.matches(r))
                    .cloned()
                    .collect()
            }
            None => {
                self.scanned
                    .fetch_add(st.records.len() as u64, Ordering::Relaxed);
                st.records.iter().filter(|r| pred.matches(r)).cloned().collect()
            }
        }
    }

    /// Index-assisted candidate generation. `None` = full scan required.
    /// A conjunction may narrow via either side; a disjunction needs both.
    fn candidate_ids(&self, st: &StoreState, pred: &Predicate) -> Option<Vec<DatasetId>> {
        match pred {
            Predicate::Eq(f, v) => st.field_indexes.get(f).map(|idx| idx.lookup_eq(v)),
            Predicate::Lt(f, v) => st
                .field_indexes
                .get(f)
                .map(|idx| idx.lookup_range(None, Some(v))),
            Predicate::Le(f, v) => st.field_indexes.get(f).map(|idx| {
                let mut ids = idx.lookup_range(None, Some(v));
                ids.extend(idx.lookup_eq(v));
                ids
            }),
            // lookup_range's lower bound is inclusive, so Gt candidates
            // include exact-equal ids; the final matches() filter drops them.
            Predicate::Gt(f, v) => st
                .field_indexes
                .get(f)
                .map(|idx| idx.lookup_range(Some(v), None)),
            Predicate::Ge(f, v) => st
                .field_indexes
                .get(f)
                .map(|idx| idx.lookup_range(Some(v), None)),
            Predicate::HasTag(t) => Some(st.tag_index.lookup(t)),
            Predicate::And(a, b) => match (self.candidate_ids(st, a), self.candidate_ids(st, b)) {
                (Some(x), Some(y)) => {
                    // Use the smaller side as the candidate set.
                    Some(if x.len() <= y.len() { x } else { y })
                }
                (Some(x), None) | (None, Some(x)) => Some(x),
                (None, None) => None,
            },
            Predicate::Or(a, b) => {
                let x = self.candidate_ids(st, a)?;
                let mut y = self.candidate_ids(st, b)?;
                let mut out = x;
                out.append(&mut y);
                Some(out)
            }
            // Ne, Contains, Not, All: no index help.
            _ => None,
        }
    }

    /// `(queries executed, records scanned)` counters.
    pub fn query_stats(&self) -> (u64, u64) {
        (
            self.queries.load(Ordering::Relaxed),
            self.scanned.load(Ordering::Relaxed),
        )
    }

    /// All records (snapshot), in insertion order.
    pub fn all(&self) -> Vec<DatasetRecord> {
        self.state.read().records.clone()
    }

    /// All tags in use.
    pub fn tags(&self) -> Vec<String> {
        self.state.read().tag_index.tags()
    }

    /// Total bytes registered across datasets.
    pub fn total_bytes(&self) -> u128 {
        self.state
            .read()
            .records
            .iter()
            .map(|r| u128::from(r.size_bytes))
            .sum()
    }

    /// Convenience: ids of records matching a tag.
    pub fn ids_with_tag(&self, tag: &str) -> Vec<DatasetId> {
        self.state.read().tag_index.lookup(tag)
    }

    /// Looks up a single basic-metadata value.
    pub fn field_of(&self, id: DatasetId, field: &str) -> Option<Value> {
        self.state
            .read()
            .records
            .get(id.0 as usize)
            .and_then(|r| r.basic.get(field).cloned())
    }

    // --- Durability: snapshot, crash, recovery ------------------------

    /// True when mutations are committed to a WAL before acking.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// WAL records committed since the last checkpoint (reconciler
    /// scheduling input).
    pub fn wal_records_since_checkpoint(&self) -> u64 {
        self.durability
            .as_ref()
            .map_or(0, ComponentDurability::records_since_checkpoint)
    }

    fn snapshot(&self) -> Vec<u8> {
        let records = self.state.read().records.clone();
        MetaSnapshot { records }.encode()
    }

    /// SHA-256 over the canonical catalog snapshot: two stores with the
    /// same logical catalog produce the same digest, bit for bit.
    pub fn catalog_digest(&self) -> String {
        sha256(&self.snapshot()).to_hex()
    }

    /// Takes a checkpoint now (rotate WAL → snapshot → persist →
    /// truncate old segments). Returns the checkpoint's content hash,
    /// or `None` on a non-durable store.
    pub fn checkpoint(&self) -> Option<String> {
        let d = self.durability.as_ref()?;
        Some(d.checkpoint_with(|| self.snapshot()))
    }

    /// Checkpoints when enough WAL records have accumulated; returns
    /// whether a checkpoint was taken.
    pub fn maybe_checkpoint(&self) -> bool {
        match &self.durability {
            Some(d) if d.should_checkpoint() => {
                d.checkpoint_with(|| self.snapshot());
                true
            }
            _ => false,
        }
    }

    /// Simulates a store crash: the in-memory catalog (records, name
    /// map, every secondary index) is wiped and an in-flight, never-
    /// acked WAL frame is torn. Subscribers survive — they model the
    /// restarted process re-registering its triggers, not durable
    /// state. Call [`ProjectStore::recover`] to rebuild.
    pub fn crash(&self, seed: u64) {
        if let Some(d) = &self.durability {
            d.crash_torn(seed);
        }
        self.reset(&mut self.state.write());
    }

    /// Replaces the catalog with an empty one, keeping the subscribers.
    fn reset(&self, st: &mut StoreState) {
        let subscribers = std::mem::take(&mut st.subscribers);
        *st = StoreState::new(&self.schema, subscribers);
    }

    /// Rebuilds the catalog from the durable store: installs the latest
    /// verified checkpoint, then replays the committed WAL suffix
    /// idempotently. A store without durability returns zeroed stats.
    pub fn recover(&self) -> RecoveryStats {
        let Some(d) = &self.durability else {
            return RecoveryStats::default();
        };
        d.replay(
            |bytes| {
                let Some(snap) = MetaSnapshot::decode(bytes) else {
                    return false;
                };
                self.install_snapshot(snap);
                true
            },
            |payload| {
                MetaWalRecord::decode(payload).is_some_and(|rec| self.state.write().apply(rec))
            },
        )
    }

    /// Installs a checkpoint snapshot over an empty catalog by applying,
    /// for each record in id order, its `Insert`, then each `Tag`, then
    /// each `AppendProcessing`: the derived structures are built by the
    /// same transition the live path uses.
    fn install_snapshot(&self, snap: MetaSnapshot) {
        let mut st = self.state.write();
        self.reset(&mut st);
        for r in snap.records {
            let DatasetRecord {
                id, name, location, size_bytes, checksum_hex, basic, processing, tags,
            } = r;
            st.apply(MetaWalRecord::Insert { name, location, size_bytes, checksum_hex, basic });
            for tag in tags {
                st.apply(MetaWalRecord::Tag { id, tag });
            }
            for p in processing {
                let ProcessingResult { step, params, results, derived_keys, seq } = p;
                st.apply(MetaWalRecord::AppendProcessing {
                    id,
                    step,
                    params,
                    results,
                    derived_keys,
                    seq,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{eq, ge, gt, has_tag, le, lt};
    use crate::schema::{zebrafish_schema, SchemaBuilder};
    use crate::value::FieldType;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn zf_doc(fish: i64, idx: i64, wl: f64) -> Document {
        [
            ("fish_id".to_string(), Value::Int(fish)),
            ("image_index".to_string(), Value::Int(idx)),
            ("focus_um".to_string(), Value::Float(10.0)),
            ("wavelength_nm".to_string(), Value::Float(wl)),
            ("well".to_string(), Value::from("A1")),
            ("acquired_at".to_string(), Value::Time(fish * 100 + idx)),
        ]
        .into_iter()
        .collect()
    }

    fn new_ds(name: &str, doc: Document) -> NewDataset {
        NewDataset {
            name: name.to_string(),
            location: format!("lsdf://zebrafish-htm/raw/{name}"),
            size_bytes: 4_000_000,
            checksum_hex: String::new(),
            basic: doc,
        }
    }

    fn store_with(n: usize) -> ProjectStore {
        let store = ProjectStore::new(zebrafish_schema());
        for i in 0..n {
            let wl = if i % 2 == 0 { 488.0 } else { 561.0 };
            store
                .insert(new_ds(&format!("img-{i:05}"), zf_doc((i / 24) as i64, (i % 24) as i64, wl)))
                .unwrap();
        }
        store
    }

    #[test]
    fn insert_validates_schema() {
        let store = ProjectStore::new(zebrafish_schema());
        let bad = NewDataset {
            name: "x".into(),
            location: String::new(),
            size_bytes: 0,
            checksum_hex: String::new(),
            basic: Document::new(),
        };
        assert!(matches!(store.insert(bad), Err(MetadataError::Schema(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let store = ProjectStore::new(zebrafish_schema());
        store.insert(new_ds("a", zf_doc(1, 1, 488.0))).unwrap();
        assert_eq!(
            store.insert(new_ds("a", zf_doc(1, 2, 488.0))),
            Err(MetadataError::DuplicateName("a".into()))
        );
    }

    #[test]
    fn basic_metadata_is_worm() {
        let store = ProjectStore::new(zebrafish_schema());
        let id = store.insert(new_ds("a", zf_doc(1, 1, 488.0))).unwrap();
        assert_eq!(
            store.update_basic(id, Document::new()),
            Err(MetadataError::WormViolation(id))
        );
        assert_eq!(
            store.update_basic(DatasetId(99), Document::new()),
            Err(MetadataError::NotFound(DatasetId(99)))
        );
    }

    #[test]
    fn processing_results_append_with_monotone_seq() {
        let store = ProjectStore::new(zebrafish_schema());
        let id = store.insert(new_ds("a", zf_doc(1, 1, 488.0))).unwrap();
        let s1 = store
            .append_processing(id, "segmentation", Document::new(), Document::new(), vec![])
            .unwrap();
        let s2 = store
            .append_processing(id, "segmentation", Document::new(), Document::new(), vec![])
            .unwrap();
        assert_eq!((s1, s2), (1, 2));
        let rec = store.get(id).unwrap();
        assert_eq!(rec.processing.len(), 2);
        assert_eq!(rec.latest_processing("segmentation").unwrap().seq, 2);
    }

    #[test]
    fn indexed_equality_query_scans_only_matches() {
        let store = store_with(480); // 20 fish * 24 images
        let hits = store.query(&eq("fish_id", 7i64));
        assert_eq!(hits.len(), 24);
        let (_q, scanned) = store.query_stats();
        assert_eq!(scanned, 24, "index should avoid a full scan");
    }

    #[test]
    fn range_query_uses_ordered_index() {
        let store = store_with(480);
        let hits = store.query(&ge("wavelength_nm", 500.0));
        assert_eq!(hits.len(), 240);
        let (_, scanned) = store.query_stats();
        assert_eq!(scanned, 240);
        // lt/le/gt variants also behave.
        assert_eq!(store.query(&lt("wavelength_nm", 500.0)).len(), 240);
        assert_eq!(store.query(&le("wavelength_nm", 488.0)).len(), 240);
        assert_eq!(store.query(&gt("wavelength_nm", 488.0)).len(), 240);
    }

    #[test]
    fn unindexed_query_full_scans_but_is_correct() {
        let store = store_with(48);
        let hits = store.query(&eq("well", "A1"));
        assert_eq!(hits.len(), 48);
        let (_, scanned) = store.query_stats();
        assert_eq!(scanned, 48);
    }

    #[test]
    fn conjunction_narrows_via_cheaper_index() {
        let store = store_with(480);
        let hits = store.query(&eq("fish_id", 3i64).and(eq("wavelength_nm", 488.0)));
        assert_eq!(hits.len(), 12);
        let (_, scanned) = store.query_stats();
        assert!(scanned <= 24, "scanned {scanned}, expected <= 24");
    }

    #[test]
    fn tags_query_and_events_fire() {
        let store = store_with(10);
        let tag_events = Arc::new(AtomicUsize::new(0));
        {
            let c = tag_events.clone();
            store.subscribe(Arc::new(move |ev| {
                if matches!(ev, MetadataEvent::Tagged { .. }) {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        store.tag(DatasetId(1), "needs-processing").unwrap();
        store.tag(DatasetId(1), "needs-processing").unwrap(); // idempotent
        store.tag(DatasetId(4), "needs-processing").unwrap();
        assert_eq!(tag_events.load(Ordering::Relaxed), 2);
        let hits = store.query(&has_tag("needs-processing"));
        assert_eq!(hits.len(), 2);
        store.untag(DatasetId(1), "needs-processing").unwrap();
        assert_eq!(store.ids_with_tag("needs-processing"), vec![DatasetId(4)]);
    }

    #[test]
    fn insert_event_fires() {
        let store = ProjectStore::new(zebrafish_schema());
        let events = Arc::new(AtomicUsize::new(0));
        {
            let c = events.clone();
            store.subscribe(Arc::new(move |ev| {
                if matches!(ev, MetadataEvent::Inserted { .. }) {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        store.insert(new_ds("a", zf_doc(1, 1, 488.0))).unwrap();
        store.insert(new_ds("b", zf_doc(1, 2, 488.0))).unwrap();
        assert_eq!(events.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn get_by_name_and_field_of() {
        let store = store_with(5);
        let rec = store.get_by_name("img-00003").unwrap();
        assert_eq!(rec.id, DatasetId(3));
        assert_eq!(store.field_of(rec.id, "fish_id"), Some(Value::Int(0)));
        assert!(store.get_by_name("nope").is_none());
    }

    #[test]
    fn total_bytes_sums_sizes() {
        let store = store_with(10);
        assert_eq!(store.total_bytes(), 40_000_000);
    }

    #[test]
    fn or_query_merges_indexes() {
        let store = store_with(480);
        let hits = store.query(&eq("fish_id", 1i64).or(eq("fish_id", 2i64)));
        assert_eq!(hits.len(), 48);
        let (_, scanned) = store.query_stats();
        assert_eq!(scanned, 48);
    }

    fn durable_store(
        store: &lsdf_durability::DurableStore,
        checkpoint_every: u64,
    ) -> ProjectStore {
        let reg = Arc::new(lsdf_obs::Registry::new());
        let cfg = lsdf_durability::DurabilityConfig { checkpoint_every };
        ProjectStore::with_durability(
            zebrafish_schema(),
            Some(lsdf_durability::ComponentDurability::open(
                store,
                "meta-zebrafish",
                &reg,
                &cfg,
            )),
        )
    }

    #[test]
    fn crash_recover_is_bit_identical() {
        let disk = lsdf_durability::DurableStore::new();
        let store = durable_store(&disk, 3);
        for i in 0..3 {
            store
                .insert(new_ds(&format!("img-{i:05}"), zf_doc(i, 0, 488.0)))
                .unwrap();
        }
        assert!(store.maybe_checkpoint(), "threshold reached");
        store.tag(DatasetId(0), "needs-processing").unwrap();
        store
            .append_processing(
                DatasetId(1),
                "segmentation",
                Document::new(),
                [("cells".to_string(), Value::Int(42))].into_iter().collect(),
                vec!["seg/img-00001".into()],
            )
            .unwrap();
        store.tag(DatasetId(2), "raw").unwrap();
        store.untag(DatasetId(2), "raw").unwrap();
        let digest = store.catalog_digest();
        let all_before = store.all();

        store.crash(99);
        assert!(store.is_empty(), "volatile catalog wiped");
        let stats = store.recover();
        assert!(stats.snapshot_loaded);
        assert!(stats.torn_tails >= 1, "crash tears an in-flight frame");
        assert_eq!(store.catalog_digest(), digest);
        assert_eq!(store.all(), all_before);
        // Derived structures are rebuilt, not just the records: the
        // name map, tag index, and field indexes all answer correctly.
        assert_eq!(store.get_by_name("img-00001").unwrap().id, DatasetId(1));
        assert_eq!(store.ids_with_tag("needs-processing"), vec![DatasetId(0)]);
        assert!(store.ids_with_tag("raw").is_empty());
        let hits = store.query(&eq("fish_id", 1i64));
        assert_eq!(hits.len(), 1);
        let (_, scanned) = store.query_stats();
        assert_eq!(scanned, 1, "field index answers after recovery");
    }

    #[test]
    fn replay_without_checkpoint_reassigns_dense_ids() {
        let disk = lsdf_durability::DurableStore::new();
        let store = durable_store(&disk, 1_000);
        let a = store.insert(new_ds("a", zf_doc(1, 0, 488.0))).unwrap();
        let b = store.insert(new_ds("b", zf_doc(2, 0, 561.0))).unwrap();
        store.crash(5);
        let stats = store.recover();
        assert!(!stats.snapshot_loaded);
        assert_eq!(stats.replayed, 2);
        assert_eq!(store.get_by_name("a").unwrap().id, a);
        assert_eq!(store.get_by_name("b").unwrap().id, b);
        // The next insert continues the dense id sequence.
        let c = store.insert(new_ds("c", zf_doc(3, 0, 488.0))).unwrap();
        assert_eq!(c, DatasetId(2));
    }

    #[test]
    fn processing_seq_replay_is_idempotent_across_checkpoint_race() {
        let disk = lsdf_durability::DurableStore::new();
        let store = durable_store(&disk, 1_000);
        let id = store.insert(new_ds("a", zf_doc(1, 0, 488.0))).unwrap();
        store
            .append_processing(id, "seg", Document::new(), Document::new(), vec![])
            .unwrap();
        // Checkpoint captures the processing result; its WAL record is
        // gone (truncated), but a second result lands in the new segment.
        store.checkpoint().unwrap();
        store
            .append_processing(id, "seg", Document::new(), Document::new(), vec![])
            .unwrap();
        let digest = store.catalog_digest();
        store.crash(11);
        let stats = store.recover();
        assert!(stats.snapshot_loaded);
        assert_eq!(store.catalog_digest(), digest);
        assert_eq!(store.get(id).unwrap().processing.len(), 2);
        assert_eq!(store.get(id).unwrap().latest_processing("seg").unwrap().seq, 2);
    }

    #[test]
    fn non_durable_store_recovery_is_a_no_op() {
        let store = store_with(2);
        assert!(!store.is_durable());
        assert_eq!(store.wal_records_since_checkpoint(), 0);
        assert_eq!(store.checkpoint(), None);
        assert!(!store.maybe_checkpoint());
        assert_eq!(store.recover(), RecoveryStats::default());
        assert_eq!(store.len(), 2, "recover leaves a non-durable store alone");
    }

    #[test]
    fn unknown_schema_fields_still_queryable_against_missing() {
        // Query on a field no record carries: matches nothing, no panic.
        let schema = SchemaBuilder::new("t")
            .required("a", FieldType::Int)
            .build()
            .unwrap();
        let store = ProjectStore::new(schema);
        store
            .insert(NewDataset {
                name: "x".into(),
                location: String::new(),
                size_bytes: 1,
                checksum_hex: String::new(),
                basic: [("a".to_string(), Value::Int(1))].into_iter().collect(),
            })
            .unwrap();
        assert!(store.query(&eq("zzz", 1i64)).is_empty());
    }
}
