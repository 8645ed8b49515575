//! Property tests: index-assisted queries always agree with full scans,
//! WORM holds, unified/federated organisations return identical hits,
//! and crash recovery rebuilds the live catalog.

use std::sync::Arc;

use lsdf_metadata::query::{eq, ge, has_tag, lt};
use lsdf_durability::{ComponentDurability, DurabilityConfig, DurableStore};
use lsdf_metadata::{
    dataset, CrossQuery, DatasetId, Document, Federation, FieldType, Predicate, ProjectStore,
    SchemaBuilder, UnifiedCatalog, Value,
};
use lsdf_obs::Registry;
use proptest::prelude::*;

fn schema(name: &str) -> lsdf_metadata::Schema {
    SchemaBuilder::new(name)
        .required("run", FieldType::Int)
        .indexed()
        .required("energy", FieldType::Float)
        .indexed()
        .required("detector", FieldType::Str)
        .build()
        .unwrap()
}

fn doc(run: i64, energy: f64, detector: &str) -> Document {
    [
        ("run".to_string(), Value::Int(run)),
        ("energy".to_string(), Value::Float(energy)),
        ("detector".to_string(), Value::from(detector)),
    ]
    .into_iter()
    .collect()
}

proptest! {
    /// For random data and random predicates, the index-assisted query path
    /// returns exactly the records the brute-force `matches()` scan does.
    #[test]
    fn indexed_query_equals_full_scan(
        rows in prop::collection::vec((0i64..20, 0u32..1000, 0usize..3), 1..200),
        q_run in 0i64..20,
        q_energy in 0u32..1000,
    ) {
        let store = ProjectStore::new(schema("t"));
        for (i, (run, e, d)) in rows.iter().enumerate() {
            let detector = ["main", "veto", "monitor"][*d];
            store
                .insert(dataset(&format!("r{i}"), 1, doc(*run, *e as f64, detector)))
                .unwrap();
        }
        let preds: Vec<Predicate> = vec![
            eq("run", q_run),
            ge("energy", q_energy as f64),
            lt("energy", q_energy as f64),
            eq("run", q_run).and(ge("energy", q_energy as f64)),
            eq("run", q_run).or(eq("detector", "veto")),
            eq("detector", "main").and(lt("energy", q_energy as f64)),
            eq("run", q_run).not(),
        ];
        for pred in &preds {
            let via_engine: Vec<u64> = store.query(pred).iter().map(|r| r.id.0).collect();
            let via_scan: Vec<u64> = store
                .all()
                .iter()
                .filter(|r| pred.matches(r))
                .map(|r| r.id.0)
                .collect();
            prop_assert_eq!(&via_engine, &via_scan, "pred {:?}", pred);
        }
    }

    /// Tag/untag sequences keep the tag index consistent with record state.
    #[test]
    fn tag_index_matches_records(ops in prop::collection::vec((0u64..30, 0usize..3, any::<bool>()), 1..150)) {
        let store = ProjectStore::new(schema("t"));
        for i in 0..30 {
            store.insert(dataset(&format!("r{i}"), 1, doc(i, 0.0, "main"))).unwrap();
        }
        let tags = ["raw", "qa-passed", "archived"];
        for (id, tag_i, add) in ops {
            let tag = tags[tag_i];
            if add {
                store.tag(lsdf_metadata::DatasetId(id), tag).unwrap();
            } else {
                store.untag(lsdf_metadata::DatasetId(id), tag).unwrap();
            }
        }
        for tag in tags {
            let via_index: std::collections::BTreeSet<u64> =
                store.ids_with_tag(tag).iter().map(|i| i.0).collect();
            let via_scan: std::collections::BTreeSet<u64> = store
                .all()
                .iter()
                .filter(|r| r.has_tag(tag))
                .map(|r| r.id.0)
                .collect();
            prop_assert_eq!(via_index, via_scan, "tag {}", tag);
        }
        // Tag queries agree too.
        for tag in tags {
            let q = store.query(&has_tag(tag)).len();
            prop_assert_eq!(q, store.ids_with_tag(tag).len());
        }
    }

    /// Unified catalog and federation return the same hit multiset for the
    /// same data, and the unified catalog never contacts more than one
    /// store.
    #[test]
    fn unified_equals_federation(
        per_project in prop::collection::vec(prop::collection::vec((0i64..10, 0u32..100), 0..30), 1..6),
        q_run in 0i64..10,
    ) {
        let schemas: Vec<_> = (0..per_project.len())
            .map(|i| schema(&format!("p{i}")))
            .collect();
        let unified = UnifiedCatalog::new(&schemas).unwrap();
        let mut fed = Federation::new();
        for (pi, rows) in per_project.iter().enumerate() {
            let store = Arc::new(ProjectStore::new(schemas[pi].clone()));
            for (ri, (run, e)) in rows.iter().enumerate() {
                let d = dataset(&format!("r{ri}"), 1, doc(*run, *e as f64, "main"));
                store.insert(d.clone()).unwrap();
                unified.insert(&format!("p{pi}"), d).unwrap();
            }
            fed.add(store);
        }
        let pred = eq("run", q_run);
        let u = unified.cross_query(&pred);
        let f = fed.cross_query(&pred);
        prop_assert_eq!(u.hits.len(), f.hits.len());
        let mut u_names: Vec<String> = u
            .hits
            .iter()
            .map(|(p, r)| format!("{p}/{}", r.name.rsplit('/').next().unwrap()))
            .collect();
        let mut f_names: Vec<String> = f
            .hits
            .iter()
            .map(|(p, r)| format!("{p}/{}", r.name))
            .collect();
        u_names.sort();
        f_names.sort();
        prop_assert_eq!(u_names, f_names);
        prop_assert_eq!(u.stores_contacted, 1);
        prop_assert_eq!(f.stores_contacted, per_project.len());
    }

    /// WORM: after insert, basic metadata can never be changed, regardless
    /// of what the caller supplies.
    #[test]
    fn worm_always_holds(run in 0i64..100, attempts in 1usize..5) {
        let store = ProjectStore::new(schema("t"));
        let id = store.insert(dataset("d", 1, doc(run, 1.0, "main"))).unwrap();
        let before = store.get(id).unwrap().basic.clone();
        for i in 0..attempts {
            let res = store.update_basic(id, doc(run + i as i64 + 1, 2.0, "veto"));
            prop_assert!(res.is_err());
        }
        prop_assert_eq!(store.get(id).unwrap().basic, before);
    }

    /// Replay rebuilds what the live path built: after any mix of
    /// inserts (duplicate names and schema-invalid documents included),
    /// tags and untags (repeats and unknown ids included), processing
    /// appends and checkpoints, a crash plus recovery yields the live
    /// catalog — records, name map, field and tag indexes alike.
    #[test]
    fn replay_rebuilds_the_live_catalog(
        ops in prop::collection::vec((0u8..7, 0u64..12, 0usize..3), 1..80),
        seed in any::<u64>(),
    ) {
        let disk = DurableStore::new();
        let reg = Arc::new(Registry::new());
        let durability = ComponentDurability::open(
            &disk,
            "meta-t",
            &reg,
            &DurabilityConfig { checkpoint_every: 1_000 },
        );
        let store = ProjectStore::with_durability(schema("t"), Some(durability));
        let tags = ["raw", "qa-passed", "archived"];
        for (op, a, b) in ops {
            let id = DatasetId(a);
            // Ops report their precondition failures as errors; the
            // property is about state, so outcomes are ignored.
            let _ = match op {
                0 | 1 => store
                    .insert(dataset(&format!("r{a}"), a, doc(b as i64, a as f64, "main")))
                    .map(|_| ()),
                2 => store.insert(dataset(&format!("bad{a}"), 1, Document::new())).map(|_| ()),
                3 => store.tag(id, tags[b]),
                4 => store.untag(id, tags[b]),
                5 => {
                    let params = doc(b as i64, 0.5, "veto");
                    let keys = vec![format!("k{a}")];
                    store.append_processing(id, "seg", params, Document::new(), keys).map(|_| ())
                }
                _ => {
                    store.checkpoint();
                    Ok(())
                }
            };
        }
        let digest = store.catalog_digest();
        let all = store.all();
        let by_run = store.query(&eq("run", 1i64));
        let by_tag = store.query(&has_tag("raw"));
        store.crash(seed);
        store.recover();
        prop_assert_eq!(store.catalog_digest(), digest);
        prop_assert_eq!(store.all(), all);
        prop_assert_eq!(store.query(&eq("run", 1i64)), by_run);
        prop_assert_eq!(store.query(&has_tag("raw")), by_tag);
    }
}
