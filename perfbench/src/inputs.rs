//! Seeded inputs for every workload, generated before any timing.
//!
//! Every payload is a distinct byte string in its own buffer: items
//! are copied from a small pool of rendered templates and each copy is
//! stamped with its own id, so neither a content cache nor a pointer
//! cache in the facility could serve one item from another.

use bytes::Bytes;

use lsdf_metadata::query::{contains, eq, ge, lt};
use lsdf_metadata::{Document, Predicate, Value};
use lsdf_workloads::microscopy::HtmGenerator;
use lsdf_workloads::tenants::TenantFleet;

/// One DAQ fish: 24 images, one every `FISH_INTERVAL_NS` of virtual
/// time (the paper's 8 333 fish per day).
pub const FISH_IMAGES: usize = 24;
pub const FISH_INTERVAL_NS: u64 = 86_400_000_000_000 / 8_333;
/// Virtual time between the images of one fish.
const IMAGE_STEP_NS: i64 = 10_000_000;
/// Rendered fish per template pool.
const POOL_FISH: usize = 4;
/// Wells of a microtiter plate: rows A–H, columns 1–12.
const WELL_ROWS: u64 = 8;
const WELL_COLS: u64 = 12;
/// Analysis-file payload sizes: at least `.0`, below `.1` bytes.
pub const DFS_PAYLOAD: (usize, usize) = (256, 2048);
/// The analysis project's DAQ name in [`TenantFleet`] metadata.
const DFS_INSTRUMENT: &str = "daq-0000";

/// splitmix64: small, seedable, and the same on every host.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential gap with the given mean: Poisson arrivals.
    pub fn exp_ns(&mut self, mean_ns: f64) -> u64 {
        (-mean_ns * (1.0 - self.unit()).ln()) as u64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// An independent seed for one stream of one episode.
pub fn derive(seed: u64, stream: u64, episode: u64) -> u64 {
    let mut r =
        Rng::new(seed ^ stream.rotate_left(32) ^ episode.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    r.next_u64()
}

/// The fields the query oracle reads: for HTM items `a` is the fish id,
/// `b` the acquisition time and `label` the well; for analysis files `a`
/// is the run, `b` the sequence number and `label` the instrument.
#[derive(Clone, Debug)]
pub struct Attrs {
    pub a: i64,
    pub b: i64,
    pub label: String,
}

pub struct Item {
    pub key: String,
    pub data: Bytes,
    pub doc: Document,
    pub attrs: Attrs,
}

/// One `ingest_batch` call and the virtual time it arrives at.
pub struct Batch {
    pub t_ns: u64,
    pub items: Vec<Item>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// An indexed equality lookup (`eq(fish_id)`; a scan on analysis
    /// files, whose schema has no index).
    Eq,
    /// A two-sided range `ge ∧ lt`.
    Window,
    /// A predicate no index can serve.
    Scan,
}

impl Shape {
    pub const ALL: [Shape; 3] = [Shape::Eq, Shape::Window, Shape::Scan];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Eq => "eq",
            Shape::Window => "window",
            Shape::Scan => "scan",
        }
    }

    pub fn idx(self) -> usize {
        self as usize
    }
}

/// What a query must return, evaluated over the inputs.
#[derive(Clone, Debug)]
enum Oracle {
    AEq(i64),
    ARange(i64, i64),
    BRange(i64, i64),
    Label(String),
    LabelAndBEq(String, i64),
}

/// One DataBrowser request: a catalog query, then fetches of its first
/// hits.
pub struct Query {
    pub shape: Shape,
    pub t_ns: u64,
    pub pred: Predicate,
    oracle: Oracle,
}

impl Query {
    /// Whether an item with these fields belongs in the result.
    pub fn expects(&self, a: &Attrs) -> bool {
        match &self.oracle {
            Oracle::AEq(v) => a.a == *v,
            Oracle::ARange(lo, hi) => (*lo..*hi).contains(&a.a),
            Oracle::BRange(lo, hi) => (*lo..*hi).contains(&a.b),
            Oracle::Label(s) => a.label.contains(s.as_str()),
            Oracle::LabelAndBEq(s, v) => a.label.contains(s.as_str()) && a.b == *v,
        }
    }
}

pub enum Step {
    Ingest(Batch),
    Browse(Query),
}

/// Everything one episode feeds the facility, in order.
pub struct Episode {
    /// Batches ingested while setting up (the browse catalog).
    pub preload: Vec<Batch>,
    /// The timed phase.
    pub main: Vec<Step>,
    /// Browse requests after the timed ingest phase.
    pub epilogue: Vec<Query>,
    /// Virtual time of the closing crash/restart cycles.
    pub restart_t_ns: u64,
    pub crash_seeds: Vec<u64>,
}

impl Episode {
    /// Every item, preload first, in ingest order.
    pub fn items(&self) -> impl Iterator<Item = &Item> {
        self.preload
            .iter()
            .flat_map(|b| b.items.iter())
            .chain(self.main.iter().flat_map(|s| match s {
                Step::Ingest(b) => b.items.as_slice(),
                Step::Browse(_) => &[],
            }))
    }
}

/// A copy of `template` with `id` written over bytes `at..at + 8`, so
/// every payload differs from every other.
fn stamped(template: &[u8], at: usize, id: u64) -> Bytes {
    let mut v = template.to_vec();
    v[at..at + 8].copy_from_slice(&id.to_le_bytes());
    Bytes::from(v)
}

/// A small pool of rendered fish whose images are the templates for
/// every generated fish.
pub struct HtmPool {
    /// Per fish: (focus µm, wavelength nm, encoded image) per image.
    fish: Vec<Vec<(f64, f64, Bytes)>>,
}

impl HtmPool {
    pub fn render(seed: u64, edge: u32) -> HtmPool {
        let mut gen = HtmGenerator::new(seed, edge);
        let fish = (0..POOL_FISH)
            .map(|_| {
                gen.next_fish()
                    .into_iter()
                    .map(|(acq, img)| (acq.focus_um, acq.wavelength_nm, img.encode()))
                    .collect()
            })
            .collect();
        HtmPool { fish }
    }

    pub fn image_bytes(&self) -> usize {
        self.fish[0][0].2.len()
    }

    /// Fish `fish_id` acquired at `t_ns` in `well`; image `i` carries
    /// the stamp `stamp_base + i` just past the 16-byte image header.
    fn fish(&self, fish_id: i64, t_ns: u64, well: &str, stamp_base: u64) -> Batch {
        let series = &self.fish[fish_id as usize % self.fish.len()];
        let items = series
            .iter()
            .enumerate()
            .map(|(i, (focus, wavelength, image))| {
                let acquired_at = t_ns as i64 + i as i64 * IMAGE_STEP_NS;
                let doc: Document = [
                    ("fish_id", Value::Int(fish_id)),
                    ("image_index", Value::Int(i as i64)),
                    ("focus_um", Value::Float(*focus)),
                    ("wavelength_nm", Value::Float(*wavelength)),
                    ("well", Value::Str(well.to_string())),
                    ("acquired_at", Value::Time(acquired_at)),
                ]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
                Item {
                    key: format!("raw/fish{fish_id:06}/img{i:02}"),
                    data: stamped(image, 16, stamp_base + i as u64),
                    doc,
                    attrs: Attrs {
                        a: fish_id,
                        b: acquired_at,
                        label: well.to_string(),
                    },
                }
            })
            .collect();
        Batch { t_ns, items }
    }
}

fn well(rng: &mut Rng) -> String {
    let row = char::from(b'A' + rng.below(WELL_ROWS) as u8);
    format!("{row}{}", 1 + rng.below(WELL_COLS))
}

/// The fish of an HTM catalog the query generator may target.
#[derive(Default)]
struct FishCatalog {
    ids: Vec<i64>,
    acquired: Vec<i64>,
}

impl FishCatalog {
    fn add(&mut self, b: &Batch) {
        self.ids.push(b.items[0].attrs.a);
        self.acquired.push(b.items[0].attrs.b);
    }

    /// One zebrafish DataBrowser query: a fish by id, a ten-fish
    /// acquisition window, or every image of one well.
    fn query(&self, rng: &mut Rng, shape: Shape, t_ns: u64) -> Query {
        let n = self.ids.len() as u64;
        let (pred, oracle) = match shape {
            Shape::Eq => {
                let id = self.ids[rng.below(n) as usize];
                (eq("fish_id", id), Oracle::AEq(id))
            }
            Shape::Window => {
                let span = 10.min(n as usize - 1);
                let j = rng.below(n - span as u64) as usize;
                let (lo, hi) = (self.acquired[j], self.acquired[j + span]);
                (
                    ge("acquired_at", Value::Time(lo)).and(lt("acquired_at", Value::Time(hi))),
                    Oracle::BRange(lo, hi),
                )
            }
            Shape::Scan => {
                let w = well(rng);
                (contains("well", &w), Oracle::Label(w))
            }
        };
        Query {
            shape,
            t_ns,
            pred,
            oracle,
        }
    }
}

/// Browse shapes in equal shares. No source gives DataBrowser query
/// frequencies, so the mix is stipulated: with the shapes' costs
/// ordered eq < window < scan, an equal split puts the median browse
/// request in the middle of the window band and the tail in the scan
/// band, so a change to either moves a reported percentile; a change
/// to eq alone shows only in the request rate.
const BROWSE_DECK: [Shape; 3] = [Shape::Eq, Shape::Window, Shape::Scan];

/// The mix as the record states it.
pub const QUERY_MIX: &str = "browse shapes in equal thirds (eq, window, scan; stipulated, no measured DataBrowser mix exists); browse_read ingests 1 fish in every 10 requests";

/// `n` shapes dealt from shuffled decks, so the mix is exact.
fn dealt(rng: &mut Rng, n: usize) -> Vec<Shape> {
    let mut out = Vec::with_capacity(n + BROWSE_DECK.len());
    while out.len() < n {
        let mut deck = BROWSE_DECK;
        rng.shuffle(&mut deck);
        out.extend_from_slice(&deck);
    }
    out.truncate(n);
    out
}

const STREAM_FISH: u64 = 1;
const STREAM_QUERY: u64 = 2;
const STREAM_ARRIVAL: u64 = 3;
const STREAM_CRASH: u64 = 4;
const STREAM_FLEET: u64 = 5;

fn crash_seeds(seed: u64, episode: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(derive(seed, STREAM_CRASH, episode));
    (0..n).map(|_| rng.next_u64()).collect()
}

/// `htm_ingest`: one fish per batch, arriving every `FISH_INTERVAL_NS`,
/// then a short browse of what arrived and the restart cycles.
pub fn htm_episode(
    pool: &HtmPool,
    seed: u64,
    episode: u64,
    fish: usize,
    browse: usize,
    restarts: usize,
) -> Episode {
    let mut wells = Rng::new(derive(seed, STREAM_FISH, episode));
    let mut catalog = FishCatalog::default();
    let base = episode as i64 * fish as i64;
    let main: Vec<Step> = (0..fish)
        .map(|f| {
            let id = base + f as i64;
            let b = pool.fish(
                id,
                f as u64 * FISH_INTERVAL_NS,
                &well(&mut wells),
                stamp(episode, f),
            );
            catalog.add(&b);
            Step::Ingest(b)
        })
        .collect();
    let mut rng = Rng::new(derive(seed, STREAM_QUERY, episode));
    let t0 = fish as u64 * FISH_INTERVAL_NS;
    let epilogue = dealt(&mut rng, browse)
        .into_iter()
        .enumerate()
        .map(|(i, shape)| catalog.query(&mut rng, shape, t0 + i as u64 * FISH_INTERVAL_NS))
        .collect();
    Episode {
        preload: Vec::new(),
        main,
        epilogue,
        restart_t_ns: t0 + browse as u64 * FISH_INTERVAL_NS,
        crash_seeds: crash_seeds(seed, episode, restarts),
    }
}

/// The payload stamp of fish `f` of `episode`: unique in a run.
fn stamp(episode: u64, f: usize) -> u64 {
    (episode << 32) | ((f as u64) * FISH_IMAGES as u64)
}

/// `dfs_small_files`: `rounds` [`TenantFleet`] rounds of `files` small
/// files, Poisson arrivals, then a browse and the restart cycles.
pub fn dfs_episode(
    seed: u64,
    episode: u64,
    rounds: usize,
    files: usize,
    mean_gap_ns: f64,
    browse: usize,
    restarts: usize,
) -> Episode {
    let fleet = TenantFleet::new(derive(seed, STREAM_FLEET, episode), 1)
        .ops_per_round(files as u64)
        .payload_range(DFS_PAYLOAD.0, DFS_PAYLOAD.1);
    let mut arrivals = Rng::new(derive(seed, STREAM_ARRIVAL, episode));
    let first_run = episode * rounds as u64;
    let mut t = 0u64;
    let main = (0..rounds as u64)
        .map(|r| {
            t += arrivals.exp_ns(mean_gap_ns);
            let run = first_run + r;
            let items = fleet
                .tenant_round(0, run, 1)
                .into_iter()
                .enumerate()
                .map(|(seq, op)| Item {
                    key: op.key,
                    data: stamped(&op.data, 0, (run << 16) | seq as u64),
                    doc: op.doc,
                    attrs: Attrs {
                        a: run as i64,
                        b: seq as i64,
                        label: DFS_INSTRUMENT.to_string(),
                    },
                })
                .collect();
            Step::Ingest(Batch { t_ns: t, items })
        })
        .collect();
    let mut rng = Rng::new(derive(seed, STREAM_QUERY, episode));
    let epilogue = dealt(&mut rng, browse)
        .into_iter()
        .map(|shape| {
            t += arrivals.exp_ns(mean_gap_ns);
            let run = (first_run + rng.below(rounds as u64)) as i64;
            let (pred, oracle) = match shape {
                Shape::Eq => (eq("run", run), Oracle::AEq(run)),
                Shape::Window => {
                    let lo = (first_run + rng.below(rounds as u64 - 1)) as i64;
                    (
                        ge("run", lo).and(lt("run", lo + 2)),
                        Oracle::ARange(lo, lo + 2),
                    )
                }
                Shape::Scan => {
                    let s = rng.below(files as u64) as i64;
                    (
                        contains("instrument", "daq").and(eq("seq", s)),
                        Oracle::LabelAndBEq("daq".to_string(), s),
                    )
                }
            };
            Query {
                shape,
                t_ns: t,
                pred,
                oracle,
            }
        })
        .collect();
    Episode {
        preload: Vec::new(),
        main,
        epilogue,
        restart_t_ns: t + 1,
        crash_seeds: crash_seeds(seed, episode, restarts),
    }
}

/// `browse_read`: a preloaded catalog of `preload` fish, then `requests`
/// Poisson-arriving requests of which one in ten ingests a new fish and
/// the rest browse by the deck's shape mix.
pub fn browse_episode(
    pool: &HtmPool,
    seed: u64,
    episode: u64,
    preload: usize,
    requests: usize,
    mean_gap_ns: f64,
    restarts: usize,
) -> Episode {
    let mut wells = Rng::new(derive(seed, STREAM_FISH, episode));
    let mut catalog = FishCatalog::default();
    let per_episode = preload + requests.div_ceil(10);
    let base = episode as i64 * per_episode as i64;
    let preload: Vec<Batch> = (0..preload)
        .map(|f| {
            let b = pool.fish(
                base + f as i64,
                f as u64 * FISH_INTERVAL_NS,
                &well(&mut wells),
                stamp(episode, f),
            );
            catalog.add(&b);
            b
        })
        .collect();
    let mut rng = Rng::new(derive(seed, STREAM_QUERY, episode));
    let mut arrivals = Rng::new(derive(seed, STREAM_ARRIVAL, episode));
    let mut t = preload.len() as u64 * FISH_INTERVAL_NS;
    let mut next_fish = preload.len();
    let mut shapes = dealt(&mut rng, requests).into_iter();
    let mut main = Vec::with_capacity(requests);
    for i in 0..requests {
        t += arrivals.exp_ns(mean_gap_ns);
        // One slot in ten ingests; its place in each ten is seeded.
        let ingest_slot = (i / 10 * 10) as u64 + derive(seed, (i / 10) as u64, episode) % 10;
        if i as u64 == ingest_slot {
            let b = pool.fish(
                base + next_fish as i64,
                t,
                &well(&mut wells),
                stamp(episode, next_fish),
            );
            catalog.add(&b);
            next_fish += 1;
            main.push(Step::Ingest(b));
        } else {
            let shape = shapes.next().unwrap_or(Shape::Eq);
            main.push(Step::Browse(catalog.query(&mut rng, shape, t)));
        }
    }
    Episode {
        preload,
        main,
        epilogue: Vec::new(),
        restart_t_ns: t + 1,
        crash_seeds: crash_seeds(seed, episode, restarts),
    }
}
