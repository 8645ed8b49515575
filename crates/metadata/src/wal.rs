//! Metadata-store WAL records and the canonical catalog snapshot codec.
//!
//! Every catalog mutation the store acks (dataset registration, tag,
//! untag, appended processing result) is first committed to its
//! [`lsdf_durability::DurableLog`]; checkpoints serialize the full
//! record vector with the canonical [`lsdf_durability::codec`] so that
//! replaying WAL over the latest checkpoint reconstructs a bit-identical
//! catalog. A record is also the live mutation: the store builds it,
//! logs it and applies it through the one transition replay uses, and
//! checkpoint install rebuilds the snapshot by applying each record's
//! `Insert`, `Tag`s and `AppendProcessing`s, so the secondary
//! structures (name map, field indexes, tag index) are always derived
//! by that same transition.
//!
//! Replay is idempotent: an `Insert` whose name is already registered,
//! a `Tag`/`Untag` whose effect is present, or an `AppendProcessing`
//! whose sequence number the record already holds are all skipped, so a
//! crash at any point of the checkpoint sequence (segment rotation vs
//! snapshot capture) is safe. Dataset ids are dense insertion indexes,
//! so replaying inserts in log order reassigns the original ids.

use std::collections::BTreeSet;

use crate::record::{DatasetId, DatasetRecord, ProcessingResult};
use crate::schema::Document;
use crate::value::Value;
use lsdf_durability::{Dec, Enc};

const VALUE_STR: u8 = 0;
const VALUE_INT: u8 = 1;
const VALUE_FLOAT: u8 = 2;
const VALUE_BOOL: u8 = 3;
const VALUE_TIME: u8 = 4;

fn enc_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Str(s) => {
            e.u8(VALUE_STR);
            e.str(s);
        }
        Value::Int(i) => {
            e.u8(VALUE_INT);
            e.i64(*i);
        }
        Value::Float(x) => {
            e.u8(VALUE_FLOAT);
            e.f64(*x);
        }
        Value::Bool(b) => {
            e.u8(VALUE_BOOL);
            e.u8(u8::from(*b));
        }
        Value::Time(t) => {
            e.u8(VALUE_TIME);
            e.i64(*t);
        }
    }
}

fn dec_value(d: &mut Dec<'_>) -> Option<Value> {
    Some(match d.u8()? {
        VALUE_STR => Value::Str(d.str()?),
        VALUE_INT => Value::Int(d.i64()?),
        VALUE_FLOAT => Value::Float(d.f64()?),
        VALUE_BOOL => Value::Bool(match d.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        }),
        VALUE_TIME => Value::Time(d.i64()?),
        _ => return None,
    })
}

/// Documents are `BTreeMap`s, so iteration (and therefore the encoding)
/// is already canonical: same document ⇒ same bytes.
fn enc_doc(e: &mut Enc, doc: &Document) {
    e.u32(doc.len() as u32);
    for (k, v) in doc {
        e.str(k);
        enc_value(e, v);
    }
}

fn dec_doc(d: &mut Dec<'_>) -> Option<Document> {
    let n = d.u32()? as usize;
    let mut doc = Document::new();
    for _ in 0..n {
        let k = d.str()?;
        let v = dec_value(d)?;
        doc.insert(k, v);
    }
    Some(doc)
}

fn enc_strs(e: &mut Enc, strs: &[String]) {
    e.u32(strs.len() as u32);
    for s in strs {
        e.str(s);
    }
}

fn dec_strs(d: &mut Dec<'_>) -> Option<Vec<String>> {
    let n = d.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(d.str()?);
    }
    Some(out)
}

const TAG_INSERT: u8 = 1;
const TAG_TAG: u8 = 2;
const TAG_UNTAG: u8 = 3;
const TAG_APPEND_PROCESSING: u8 = 4;

/// A logged catalog mutation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MetaWalRecord {
    /// A dataset registration. The id is not logged: ids are dense
    /// insertion indexes, so log order reassigns the original id.
    Insert {
        name: String,
        location: String,
        size_bytes: u64,
        checksum_hex: String,
        basic: Document,
    },
    /// First addition of a tag to a dataset.
    Tag { id: DatasetId, tag: String },
    /// Removal of a present tag from a dataset.
    Untag { id: DatasetId, tag: String },
    /// An appended processing-result set with its sequence number.
    AppendProcessing {
        id: DatasetId,
        step: String,
        params: Document,
        results: Document,
        derived_keys: Vec<String>,
        seq: u32,
    },
}

impl MetaWalRecord {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            MetaWalRecord::Insert { name, location, size_bytes, checksum_hex, basic } => {
                e.u8(TAG_INSERT);
                e.str(name);
                e.str(location);
                e.u64(*size_bytes);
                e.str(checksum_hex);
                enc_doc(&mut e, basic);
            }
            MetaWalRecord::Tag { id, tag } => {
                e.u8(TAG_TAG);
                e.u64(id.0);
                e.str(tag);
            }
            MetaWalRecord::Untag { id, tag } => {
                e.u8(TAG_UNTAG);
                e.u64(id.0);
                e.str(tag);
            }
            MetaWalRecord::AppendProcessing { id, step, params, results, derived_keys, seq } => {
                e.u8(TAG_APPEND_PROCESSING);
                e.u64(id.0);
                e.str(step);
                enc_doc(&mut e, params);
                enc_doc(&mut e, results);
                enc_strs(&mut e, derived_keys);
                e.u32(*seq);
            }
        }
        e.finish()
    }

    /// Decodes a record; `None` on any malformed payload (recovery
    /// treats that as a skipped record, never a panic).
    pub(crate) fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec::new(bytes);
        let rec = match d.u8()? {
            TAG_INSERT => MetaWalRecord::Insert {
                name: d.str()?,
                location: d.str()?,
                size_bytes: d.u64()?,
                checksum_hex: d.str()?,
                basic: dec_doc(&mut d)?,
            },
            TAG_TAG => MetaWalRecord::Tag { id: DatasetId(d.u64()?), tag: d.str()? },
            TAG_UNTAG => MetaWalRecord::Untag { id: DatasetId(d.u64()?), tag: d.str()? },
            TAG_APPEND_PROCESSING => MetaWalRecord::AppendProcessing {
                id: DatasetId(d.u64()?),
                step: d.str()?,
                params: dec_doc(&mut d)?,
                results: dec_doc(&mut d)?,
                derived_keys: dec_strs(&mut d)?,
                seq: d.u32()?,
            },
            _ => return None,
        };
        d.at_end().then_some(rec)
    }
}

fn enc_record(e: &mut Enc, r: &DatasetRecord) {
    e.u64(r.id.0);
    e.str(&r.name);
    e.str(&r.location);
    e.u64(r.size_bytes);
    e.str(&r.checksum_hex);
    enc_doc(e, &r.basic);
    e.u32(r.processing.len() as u32);
    for p in &r.processing {
        e.str(&p.step);
        enc_doc(e, &p.params);
        enc_doc(e, &p.results);
        enc_strs(e, &p.derived_keys);
        e.u32(p.seq);
    }
    e.u32(r.tags.len() as u32);
    for t in &r.tags {
        e.str(t);
    }
}

fn dec_record(d: &mut Dec<'_>) -> Option<DatasetRecord> {
    let id = DatasetId(d.u64()?);
    let name = d.str()?;
    let location = d.str()?;
    let size_bytes = d.u64()?;
    let checksum_hex = d.str()?;
    let basic = dec_doc(d)?;
    let n_proc = d.u32()? as usize;
    let mut processing = Vec::with_capacity(n_proc.min(1024));
    for _ in 0..n_proc {
        processing.push(ProcessingResult {
            step: d.str()?,
            params: dec_doc(d)?,
            results: dec_doc(d)?,
            derived_keys: dec_strs(d)?,
            seq: d.u32()?,
        });
    }
    let n_tags = d.u32()? as usize;
    let mut tags = BTreeSet::new();
    for _ in 0..n_tags {
        tags.insert(d.str()?);
    }
    Some(DatasetRecord {
        id,
        name,
        location,
        size_bytes,
        checksum_hex,
        basic,
        processing,
        tags,
    })
}

/// Canonical full-catalog snapshot (checkpoint payload and the
/// catalog-digest witness): the record vector in id order. Documents
/// are `BTreeMap`s and tags are `BTreeSet`s, so the bytes are fully
/// canonical: same logical catalog ⇒ same bytes ⇒ same SHA-256.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct MetaSnapshot {
    pub records: Vec<DatasetRecord>,
}

impl MetaSnapshot {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.records.len() as u64);
        for r in &self.records {
            enc_record(&mut e, r);
        }
        e.finish()
    }

    pub(crate) fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec::new(bytes);
        let n = d.u64()? as usize;
        let mut records = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            records.push(dec_record(&mut d)?);
        }
        d.at_end().then_some(MetaSnapshot { records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        [
            ("fish_id".to_string(), Value::Int(7)),
            ("wavelength_nm".to_string(), Value::Float(488.0)),
            ("well".to_string(), Value::from("A1")),
            ("valid".to_string(), Value::Bool(true)),
            ("acquired_at".to_string(), Value::Time(1234)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn record_roundtrip() {
        let records = vec![
            MetaWalRecord::Insert {
                name: "img-001".into(),
                location: "lsdf://zebrafish/raw/img-001".into(),
                size_bytes: 4_000_000,
                checksum_hex: "ab12".into(),
                basic: doc(),
            },
            MetaWalRecord::Tag { id: DatasetId(3), tag: "needs-processing".into() },
            MetaWalRecord::Untag { id: DatasetId(3), tag: "needs-processing".into() },
            MetaWalRecord::AppendProcessing {
                id: DatasetId(0),
                step: "segmentation".into(),
                params: doc(),
                results: [("cells".to_string(), Value::Int(120))].into_iter().collect(),
                derived_keys: vec!["seg/img-001".into()],
                seq: 2,
            },
        ];
        for r in records {
            assert_eq!(MetaWalRecord::decode(&r.encode()), Some(r));
        }
    }

    #[test]
    fn snapshot_roundtrip_and_canonical_bytes() {
        let snap = MetaSnapshot {
            records: vec![DatasetRecord {
                id: DatasetId(0),
                name: "a".into(),
                location: "lsdf://p/a".into(),
                size_bytes: 9,
                checksum_hex: String::new(),
                basic: doc(),
                processing: vec![ProcessingResult {
                    step: "seg".into(),
                    params: Document::new(),
                    results: doc(),
                    derived_keys: vec![],
                    seq: 1,
                }],
                tags: ["raw".to_string()].into_iter().collect(),
            }],
        };
        let bytes = snap.encode();
        assert_eq!(MetaSnapshot::decode(&bytes), Some(snap));
        let reencoded = MetaSnapshot::decode(&bytes).map(|s| s.encode());
        assert_eq!(reencoded.as_deref(), Some(&bytes[..]));
    }

    #[test]
    fn malformed_records_are_rejected_not_panicked() {
        assert_eq!(MetaWalRecord::decode(&[]), None);
        assert_eq!(MetaWalRecord::decode(&[77, 0, 1]), None);
        let mut good = MetaWalRecord::Tag { id: DatasetId(1), tag: "t".into() }.encode();
        good.push(9); // trailing garbage
        assert_eq!(MetaWalRecord::decode(&good), None);
        for cut in 0..good.len() - 1 {
            let _ = MetaWalRecord::decode(&good[..cut]);
        }
        // Bad bool payload and bad value tag inside a document.
        assert_eq!(dec_value(&mut Dec::new(&[VALUE_BOOL, 7])), None);
        assert_eq!(dec_value(&mut Dec::new(&[9])), None);
    }
}
