//! A full facility day: every community from the paper ingests data
//! simultaneously — zebrafish microscopy (auto-tagged and segmented by
//! policy + trigger rules), DNA sequencing analysed on the DFS cluster,
//! KATRIN runs archived through the HSM, climate grids migrated to tape,
//! ANKA tomography scans reconstructed — followed by the operations
//! summary and the capacity projection from slide 14.
//!
//! Run with: `cargo run --release -p lsdf-examples --bin facility_day`


#![allow(clippy::print_stdout)] // binaries report to stdout by design
use lsdf_core::planner::{lsdf_2011_communities, project_growth};
use lsdf_core::{
    AutoTagRule, BackendChoice, DataBrowser, Facility, IngestItem, IngestPolicy, PolicyEngine,
    ProjectSpec,
};
use lsdf_dfs::{ClusterTopology, DfsConfig};
use lsdf_mapreduce::{run_job, JobConfig};
use lsdf_metadata::query::{eq, has_tag};
use lsdf_metadata::{zebrafish_schema, FieldType, SchemaBuilder, Value};
use lsdf_storage::{MigrationPolicy, Tier};
use lsdf_workflow::{
    Collect, Director, MapActor, Token, TriggerEngine, TriggerRule, VecSource, Workflow,
};
use lsdf_workloads::anka::BeamlineScan;
use lsdf_workloads::climate::ClimateModel;
use lsdf_workloads::genomics::{
    generate_reads, random_genome, KmerCombiner, KmerMapper, KmerReducer, ReadSim,
};
use lsdf_workloads::imaging::count_cells;
use lsdf_workloads::katrin::KatrinGenerator;
use lsdf_workloads::microscopy::{HtmGenerator, Image};

fn main() {
    // ---- Assemble the facility with all five communities -------------
    let facility = Facility::builder()
        .tenant(ProjectSpec::new(
            zebrafish_schema(),
            BackendChoice::ObjectStore { capacity: u64::MAX },
        ))
        .tenant(ProjectSpec::new(
            SchemaBuilder::new("genomics")
                .required("sample", FieldType::Str)
                .build()
                .expect("schema"),
            BackendChoice::Dfs,
        ))
        .tenant(ProjectSpec::new(
            SchemaBuilder::new("katrin")
                .required("run", FieldType::Int)
                .indexed()
                .build()
                .expect("schema"),
            BackendChoice::Hsm {
                disk_capacity: 500_000,
                low_watermark: 0.4,
                high_watermark: 0.7,
                policy: MigrationPolicy::OldestFirst,
            },
        ))
        .tenant(ProjectSpec::new(
            SchemaBuilder::new("climate")
                .required("day", FieldType::Int)
                .indexed()
                .build()
                .expect("schema"),
            BackendChoice::Hsm {
                disk_capacity: 120_000,
                low_watermark: 0.4,
                high_watermark: 0.7,
                policy: MigrationPolicy::OldestFirst,
            },
        ))
        .tenant(ProjectSpec::new(
            SchemaBuilder::new("anka")
                .required("scan", FieldType::Int)
                .indexed()
                .required("angles", FieldType::Int)
                .build()
                .expect("schema"),
            BackendChoice::ObjectStore { capacity: u64::MAX },
        ))
        .cluster(
            ClusterTopology::new(2, 4),
            DfsConfig {
                block_size: 101 * 40,
                replication: 2,
                ..DfsConfig::default()
            },
        )
        .build()
        .expect("facility assembles");
    let admin = facility.admin().clone();
    println!("facility up: projects {:?}", facility.projects());

    // ---- Zebrafish: policy auto-tag + trigger segmentation -----------
    let zstore = facility.store("zebrafish-htm").expect("project").clone();
    let _policy = PolicyEngine::attach(
        zstore.clone(),
        vec![AutoTagRule {
            name: "queue-infocus-488".into(),
            predicate: eq("focus_um", 0.0).and(eq("wavelength_nm", 488.0)),
            tag: "needs-segmentation".into(),
        }],
    );
    let adal = facility.adal().clone();
    let cred = admin.clone();
    let zstore2 = zstore.clone();
    let trigger = TriggerEngine::with_registry(
        zstore.clone(),
        vec![TriggerRule {
            step: "segmentation".into(),
            tag: "needs-segmentation".into(),
            done_tag: "segmented".into(),
            remove_trigger_tag: true,
            build: Box::new(move |id, sink| {
                let rec = zstore2.get(id).expect("dataset");
                let data = adal.get(&cred, &rec.location).expect("payload");
                let mut wf = Workflow::new();
                let src = wf.add(VecSource::new("img", vec![Token::Data(data.to_vec())]));
                let seg = wf.add(MapActor::new("segment", |t: Token| {
                    let Token::Data(b) = t else { return Err("bytes".into()) };
                    let img = Image::decode(&b).ok_or("decode")?;
                    Ok(vec![
                        Token::str("cells"),
                        Token::int(count_cells(&img, 6) as i64),
                    ])
                }));
                let out = wf.add(Collect::new("results", sink));
                wf.connect(src, 0, seg, 0).expect("ports");
                wf.connect(seg, 0, out, 0).expect("ports");
                wf
            }),
        }],
        Director::Sequential,
        facility.obs().clone(),
    );
    let mut microscope = HtmGenerator::new(2026, 96);
    for _ in 0..8 {
        for (acq, img) in microscope.next_fish() {
            facility
                .ingest(
                    &admin,
                    IngestItem {
                        project: "zebrafish-htm".into(),
                        key: acq.key(),
                        data: img.encode(),
                        metadata: Some(acq.document()),
                    },
                    IngestPolicy::default(),
                )
                .expect("ingest");
        }
    }
    let outcomes = trigger.run_pending().expect("workflows run");
    println!(
        "zebrafish: 192 images in; policy queued {} in-focus 488nm frames; segmented {}",
        outcomes.len(),
        outcomes.len()
    );

    // ---- Genomics: reads to the DFS, k-mer job on the cluster --------
    let genome = random_genome(11, 20_000);
    let reads = generate_reads(
        &genome,
        &ReadSim {
            read_len: 100,
            error_rate: 0.01,
            coverage: 8.0,
        },
        13,
    );
    facility
        .ingest(
            &admin,
            IngestItem {
                project: "genomics".into(),
                key: "runs/today".into(),
                data: bytes::Bytes::from(reads.clone()),
                metadata: Some(
                    [("sample".to_string(), Value::from("zebrafish-gDNA"))]
                        .into_iter()
                        .collect(),
                ),
            },
            IngestPolicy::default(),
        )
        .expect("ingest");
    let job = run_job(
        facility.dfs(),
        &[lsdf_adal::dfs_path("genomics", "runs/today")],
        &KmerMapper { k: 21 },
        Some(&KmerCombiner),
        &KmerReducer,
        &JobConfig::on_cluster(facility.dfs(), 4),
    )
    .expect("job runs");
    println!(
        "genomics: {} of reads -> {} distinct 21-mers on the cluster ({} maps, {}/{}/{} locality)",
        reads.len(),
        job.output.len(),
        job.stats.map_tasks,
        job.stats.node_local_maps,
        job.stats.rack_local_maps,
        job.stats.remote_maps
    );

    // ---- KATRIN: runs into the HSM-backed archive ---------------------
    let mut katrin = KatrinGenerator::new(21, 0.0, 1000.0);
    for run in 0..20 {
        let data = katrin.run_bytes(2000);
        facility
            .ingest(
                &admin,
                IngestItem {
                    project: "katrin".into(),
                    key: format!("runs/run{run:04}"),
                    data: bytes::Bytes::from(data.to_vec()),
                    metadata: Some(
                        [("run".to_string(), Value::Int(run))].into_iter().collect(),
                    ),
                },
                IngestPolicy::default(),
            )
            .expect("ingest");
        facility.hsm("katrin").expect("hsm").run_migration().expect("migrate");
    }
    let k_tape = facility
        .hsm("katrin")
        .expect("hsm")
        .catalog()
        .iter()
        .filter(|e| e.tier == Tier::Tape)
        .count();
    println!("katrin: 20 runs archived; {k_tape} already on tape");

    // ---- Climate: daily grids through HSM ------------------------------
    let mut climate = ClimateModel::new(9, 45, 90, 2.0);
    for day in 0..30 {
        facility
            .ingest(
                &admin,
                IngestItem {
                    project: "climate".into(),
                    key: format!("daily/d{day:03}"),
                    data: climate.next_day().encode(),
                    metadata: Some(
                        [("day".to_string(), Value::Int(day))].into_iter().collect(),
                    ),
                },
                IngestPolicy::default(),
            )
            .expect("ingest");
        facility.hsm("climate").expect("hsm").run_migration().expect("migrate");
    }
    let c_tape = facility
        .hsm("climate")
        .expect("hsm")
        .catalog()
        .iter()
        .filter(|e| e.tier == Tier::Tape)
        .count();
    println!("climate: 30 daily grids archived; {c_tape} migrated to tape");

    // ---- ANKA: tomography scans + reconstruction check -----------------
    let mut beamline = BeamlineScan::new(3, 48, 64);
    for _ in 0..6 {
        let (id, sino) = beamline.next_scan();
        let recon = sino.backproject(32);
        let peak = recon.iter().cloned().fold(0.0f32, f32::max);
        facility
            .ingest(
                &admin,
                IngestItem {
                    project: "anka".into(),
                    key: format!("scans/scan{id:04}"),
                    data: sino.encode(),
                    metadata: Some(
                        [
                            ("scan".to_string(), Value::Int(id as i64)),
                            ("angles".to_string(), Value::Int(i64::from(sino.angles))),
                        ]
                        .into_iter()
                        .collect(),
                    ),
                },
                IngestPolicy::default(),
            )
            .expect("ingest");
        assert!(peak > 0.0, "reconstruction must see the absorbers");
    }
    println!("anka: 6 tomography scans stored and reconstructed");

    // ---- Operations summary --------------------------------------------
    let browser = DataBrowser::new(&facility, admin.clone());
    println!("\n== end-of-day operations summary ==");
    for project in facility.projects() {
        let store = facility.store(&project).expect("project");
        let report = browser.findability(&project).expect("audit");
        println!(
            "  {project:<14} {:>5} datasets, {:>10} bytes, {} invisible",
            store.len(),
            store.total_bytes(),
            report.invisible
        );
    }
    let segmented = browser
        .query("zebrafish-htm", &has_tag("segmented"))
        .expect("query");
    println!("  segmentation results queryable: {}", segmented.len());
    let json = browser
        .export_json("katrin", &eq("run", 0i64))
        .expect("export");
    println!("  sample JSON export (katrin run 0): {} bytes", json.len());

    // ---- Observability: the facility-wide registry ----------------------
    // Every subsystem above recorded into one shared lsdf-obs registry:
    // ADAL ops and latencies, HSM tier transitions, DFS block locality,
    // ingest outcomes per project, workflow firings. Export it whole.
    println!("\n== metrics registry snapshot (lsdf-obs) ==");
    println!("{}", facility.obs().to_json());

    // ---- Capacity projection (slide 14 outlook) -------------------------
    println!("\n== capacity projection (paper slide 5/14) ==");
    for row in project_growth(&lsdf_2011_communities(), 4) {
        println!(
            "  year {}: +{:>6.2} PB produced, {:>6.2} PB cumulative",
            2011 + row.year,
            row.produced_bytes / 1e15,
            row.cumulative_bytes / 1e15
        );
    }
    println!("\nfacility day complete");
}
