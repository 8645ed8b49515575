//! The facility benchmark.
//!
//! ```text
//! perfbench --workload <htm_ingest|dfs_small_files|browse_read>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one client that drives the
//! facility through its public API and waits for every reply. Inputs
//! come from the seed, are generated outside the timing, and every
//! output is checked after its timed phase. With `--trace 0` the last
//! line of standard output holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics, timed from here around
//! each public call the facility's ingest, browse and restart paths
//! make. The line before it records the host, the inputs, the sample
//! counts and the exact-repeat counts.

mod host;
mod inputs;
mod json;
mod run;
mod stats;
mod trace;

use std::process::ExitCode;

use json::Obj;
use run::{Counts, Ctx, EpisodeResult, Workload};
use stats::{median, ratio, Latency};
use trace::Layers;

const USAGE: &str =
    "usage: perfbench --workload <htm_ingest|dfs_small_files|browse_read> --seed <n> --seconds <s> --trace <0|1>";

/// Timed episodes a run makes however fast the host.
const MIN_EPISODES: u64 = 3;

/// The longest `--seconds` accepted. A run also stops adding episodes
/// after this long even if it has not reached `MIN_EPISODES` or its
/// tails' fixed length, so it ends within its time limit on a slow
/// host; the record then says `cut_short` and shows the percentile the
/// shorter run could resolve.
const MAX_SECONDS: f64 = 120.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= MAX_SECONDS) {
        return Err(format!("--seconds must be in (0, {MAX_SECONDS}]"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (record, result) = bench(&args);
    println!("{}", Obj::new().o("record", record).render());
    println!("{}", result.render());
    ExitCode::SUCCESS
}

/// A metric entry of the result line.
fn metric(v: f64, unit: &str) -> Obj {
    Obj::new().f("value", v).s("unit", unit)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn counts_json(c: &Counts) -> Obj {
    let per_shape = |v: &[u64; 3]| {
        inputs::Shape::ALL
            .iter()
            .zip(v)
            .fold(Obj::new(), |o, (shape, n)| o.u(shape.name(), *n))
    };
    Obj::new()
        .u("batches", c.batches)
        .u("items", c.items)
        .u("admitted", c.admitted)
        .u("shed", c.shed)
        .u("wal_appends", c.wal_appends)
        .u("wal_bytes", c.wal_bytes)
        .u("fsyncs", c.fsyncs)
        .u("checkpoints", c.checkpoints)
        .u("ckpt_bytes", c.ckpt_bytes)
        .u("scrapes", c.scrapes)
        .u("series", c.series)
        .u("replayed", c.replayed)
        .u("dfs_replayed", c.dfs_replayed)
        .u("digests", c.digests)
        .u("deep_copies", c.deep_copies)
        .o("queries", per_shape(&c.queries))
        .o("hits", per_shape(&c.hits))
        .o("rows_examined", per_shape(&c.rows_examined))
}

fn latency_json(l: &Latency) -> Obj {
    Obj::new()
        .u("samples", l.count as u64)
        .opt_f("tail_percentile", l.tail_percentile)
}

fn bench(a: &Args) -> (Obj, Obj) {
    let mut ctx = Ctx::new(a.workload, a.seed, a.trace);
    // The warm-up episode is episode 0 again: it lets lazy set-up
    // finish before timing and must repeat episode 0's counts exactly.
    let warm = run::run_episode(&mut ctx, 0, false);
    let mut setups = vec![warm.setup_ns as f64 / 1e9];
    let mut plain: Vec<EpisodeResult> = Vec::new();
    let mut traced: Vec<EpisodeResult> = Vec::new();
    let mut repeat_failures: Vec<String> = Vec::new();
    let start = host::now();
    let (mut acks_seen, mut browses_seen) = (0, 0);
    let mut k = 0u64;
    let mut cut_short = false;
    loop {
        let p = run::run_episode(&mut ctx, k, false);
        setups.push(p.setup_ns as f64 / 1e9);
        if a.trace {
            let t = run::run_episode(&mut ctx, k, true);
            if t.counts != p.counts {
                repeat_failures.push(format!(
                    "episode {k} traced {:?} untraced {:?}",
                    t.counts, p.counts
                ));
            }
            traced.push(t);
        }
        acks_seen += p.acks_ns.len();
        browses_seen += p.browse_ns.len();
        plain.push(p);
        k += 1;
        let elapsed = host::ns_since(start) as f64 / 1e9;
        // Only the end-to-end run reports tails, so only it waits for
        // their fixed length.
        let long_enough = a.trace
            || (acks_seen >= ctx.spec.ack_tail_len && browses_seen >= ctx.spec.browse_tail_len);
        if k >= MIN_EPISODES && elapsed >= a.seconds && long_enough {
            break;
        }
        if elapsed >= MAX_SECONDS {
            cut_short = true;
            eprintln!(
                "perfbench: cut short after {elapsed:.0} s and {k} episodes, before the tails' fixed length"
            );
            break;
        }
    }
    if warm.counts != plain[0].counts {
        repeat_failures.push(format!(
            "warm-up {:?} episode 0 {:?}",
            warm.counts, plain[0].counts
        ));
    }

    let all = std::iter::once(&warm).chain(&plain).chain(&traced);
    let attempted: u64 = all.clone().map(|e| e.attempted).sum();
    let failed: u64 = all.clone().map(|e| e.failed).sum::<u64>() + repeat_failures.len() as u64;
    let problems: Vec<String> = all
        .flat_map(|e| e.problems.iter().cloned())
        .chain(repeat_failures.iter().cloned())
        .take(8)
        .collect();
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }

    let pooled_ms = |f: &dyn Fn(&EpisodeResult) -> &[u64]| -> Vec<f64> {
        plain
            .iter()
            .flat_map(|e| f(e).iter().map(|&n| ms(n)))
            .collect()
    };
    let acks = pooled_ms(&|e| &e.acks_ns);
    let browses = pooled_ms(&|e| &e.browse_ns);
    let recovers = pooled_ms(&|e| &e.recover_ns);
    let ack = Latency::of(&acks, ctx.spec.ack_tail_len);
    let browse = Latency::of(&browses, ctx.spec.browse_tail_len);
    // How much the episodes of this one run differ.
    let episode_rates = |rate: &dyn Fn(&EpisodeResult) -> f64| {
        let v: Vec<f64> = plain.iter().map(rate).collect();
        let (q1, q2, q3) = stats::quartiles(&v);
        Obj::new()
            .f("q1", q1)
            .f("median", q2)
            .f("q3", q3)
            .f("iqr_share", stats::relative_iqr(&v))
    };
    let secs = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / 1e9;

    let spec = ctx.spec;
    let (pmin, pmax) = ctx.payload_bytes();
    let c0 = &plain[0].counts;
    let record = Obj::new()
        .s("workload", a.workload.name())
        .u("seed", a.seed)
        .f("seconds", a.seconds)
        .b("trace", a.trace)
        .b("cut_short", cut_short)
        .o("host", host::describe())
        .o(
            "inputs",
            Obj::new()
                .u("pool_workers", spec.workers as u64)
                .o("payload_bytes", Obj::new().u("min", pmin).u("max", pmax))
                .u("items_per_episode", c0.items)
                .u("batches_per_episode", c0.batches)
                .u(
                    "catalog_preload_records",
                    (spec.preload * inputs::FISH_IMAGES) as u64,
                )
                .s("query_mix", inputs::QUERY_MIX)
                .u("fetches_per_browse", run::FETCHES as u64)
                .u("restarts_per_episode", spec.restarts as u64),
        )
        .o(
            "samples",
            Obj::new()
                .u("episodes", plain.len() as u64)
                .u("traced_episodes", traced.len() as u64)
                .o("ack", latency_json(&ack))
                .o("browse", latency_json(&browse))
                .u("recover", recovers.len() as u64)
                .u("setup", setups.len() as u64),
        )
        .o(
            "episode_spread",
            Obj::new()
                .o(
                    "ingest_items_per_s",
                    episode_rates(&|e| {
                        ratio(
                            e.acked.iter().map(|a| a.0).sum::<u64>() as f64,
                            secs(&e.acks_ns),
                        )
                    }),
                )
                .o(
                    "browse_req_per_s",
                    episode_rates(&|e| ratio(e.browse_ns.len() as f64, secs(&e.browse_ns))),
                ),
        )
        .f("gen_s", ctx.gen_ns as f64 / 1e9)
        .f("failed_frac", ratio(failed as f64, attempted as f64))
        .o("exact_counts", counts_json(c0))
        .b("exact_counts_repeat", repeat_failures.is_empty())
        .strings("problems", &problems);

    let metrics = if a.trace {
        layer_metrics(&ctx, &plain, &traced)
    } else {
        let total = |f: &dyn Fn(&EpisodeResult) -> u64| plain.iter().map(f).sum::<u64>() as f64;
        let ack_s = total(&|e| e.acks_ns.iter().sum()) / 1e9;
        let browse_s = total(&|e| e.browse_ns.iter().sum()) / 1e9;
        Obj::new()
            .o(
                "ingest_mb_per_s",
                metric(
                    ratio(total(&|e| e.acked.iter().map(|a| a.1).sum()) / 1e6, ack_s),
                    "MB/s",
                ),
            )
            .o(
                "ingest_items_per_s",
                metric(
                    ratio(total(&|e| e.acked.iter().map(|a| a.0).sum()), ack_s),
                    "1/s",
                ),
            )
            .o("ack_p50_ms", metric(ack.p50, "ms"))
            .o("ack_tail_ms", metric(ack.tail, "ms"))
            .o(
                "browse_req_per_s",
                metric(ratio(browses.len() as f64, browse_s), "1/s"),
            )
            .o("browse_p50_ms", metric(browse.p50, "ms"))
            .o("browse_tail_ms", metric(browse.tail, "ms"))
            .o("recover_ms", metric(median(&recovers), "ms"))
            .o("setup_s", metric(median(&setups), "s"))
            .o("peak_rss_mb", metric(host::peak_rss_mb(), "MiB"))
            .o(
                "stored_bytes_per_user_byte",
                metric(
                    ratio(total(&|e| e.stored_bytes), total(&|e| e.user_bytes)),
                    "B/B",
                ),
            )
    };
    let result = Obj::new()
        .b("correct", failed == 0)
        .u("attempted", attempted.max(1))
        .u("failed", failed)
        .o("metrics", metrics);
    (record, result)
}

/// The per-layer metrics of a traced run: layer times from the traced
/// episodes, exact counts from episode 0, and the remainder and
/// overhead against the untraced partner episodes.
fn layer_metrics(ctx: &Ctx, plain: &[EpisodeResult], traced: &[EpisodeResult]) -> Obj {
    let mut l = Layers::default();
    for e in traced {
        if let Some(el) = &e.layers {
            l.merge(el);
        }
    }
    let width = ctx.spec.workers;
    let c0 = &traced[0].counts;
    let main_items: u64 = traced.iter().map(|e| e.main_items).sum();
    let main_requests: u64 = traced.iter().map(|e| e.main_requests).sum();
    let untraced_ns: u64 = plain.iter().map(|e| e.main_ns).sum();
    let traced_ns: u64 = traced.iter().map(|e| e.main_ns).sum();
    let untraced_items: u64 = plain.iter().map(|e| e.main_items).sum();
    let untraced_requests: u64 = plain.iter().map(|e| e.main_requests).sum();
    let per_item = |acc: trace::Acc| ratio(acc.ns as f64, main_items as f64);

    // The remainder is per main operation: an ingested item, or for
    // `browse_read` a browse request (query plus fetches).
    let unattributed = if main_requests > 0 {
        let e2e = ratio(
            plain.iter().map(|e| e.main_browse_ns).sum::<u64>() as f64,
            untraced_requests as f64,
        );
        let per_req = |acc: trace::Acc| ratio(acc.ns as f64, main_requests as f64);
        let query: f64 = l.query.iter().map(|q| per_req(*q)).sum();
        stats::unattributed_ns(e2e, &[query, per_req(l.get)], &[], 1)
    } else {
        let e2e = ratio(untraced_ns as f64, untraced_items as f64);
        let serial = [
            per_item(l.admit),
            per_item(l.commit),
            per_item(l.insert),
            per_item(l.scrape_checks),
            per_item(l.dfs_ckpt_polls),
            per_item(l.meta_ckpt_polls),
        ];
        let pooled = [per_item(l.validate), per_item(l.digest), per_item(l.stage)];
        stats::unattributed_ns(e2e, &serial, &pooled, width)
    };
    let digest_share = ratio(
        per_item(l.digest) / width as f64,
        ratio(untraced_ns as f64, untraced_items as f64),
    );
    let share = |last: bool| {
        median(
            &traced
                .iter()
                .filter_map(|e| e.layers.as_ref().map(|l| l.ckpt_share(last)))
                .collect::<Vec<_>>(),
        )
    };
    let rows_per_hit =
        |s: inputs::Shape| ratio(c0.rows_examined[s.idx()] as f64, c0.hits[s.idx()] as f64);
    let per_c0_item = |n: u64| ratio(n as f64, c0.items as f64);
    let q = |s: inputs::Shape| l.query[s.idx()].mean_ns() / 1e3;
    use inputs::Shape::{Eq, Scan, Window};
    Obj::new()
        .o("admission.admit_ns", metric(l.admit.mean_ns(), "ns"))
        .o("admission.admitted", metric(c0.admitted as f64, "count"))
        .o("admission.shed", metric(c0.shed as f64, "count"))
        .o("metadata.validate_ns", metric(l.validate.mean_ns(), "ns"))
        .o("metadata.insert_ns", metric(l.insert.mean_ns(), "ns"))
        .o("metadata.query_eq_us", metric(q(Eq), "us"))
        .o("metadata.query_window_us", metric(q(Window), "us"))
        .o("metadata.query_scan_us", metric(q(Scan), "us"))
        .o(
            "metadata.rows_examined_per_hit_eq",
            metric(rows_per_hit(Eq), "count"),
        )
        .o(
            "metadata.rows_examined_per_hit_window",
            metric(rows_per_hit(Window), "count"),
        )
        .o(
            "metadata.rows_examined_per_hit_scan",
            metric(rows_per_hit(Scan), "count"),
        )
        .o(
            "metadata.checkpoint_ms",
            metric(l.meta_ckpt.mean_ns() / 1e6, "ms"),
        )
        .o(
            "metadata.recover_ms",
            metric(l.meta_recover.mean_ns() / 1e6, "ms"),
        )
        .o("storage.digest_ns", metric(l.digest.mean_ns(), "ns"))
        .o(
            "storage.digest_ns_per_kib",
            metric(
                ratio(l.digest.ns as f64, l.digest_bytes as f64 / 1024.0),
                "ns",
            ),
        )
        .o(
            "storage.digests_per_item",
            metric(per_c0_item(c0.digests), "count"),
        )
        .o(
            "storage.deep_copies",
            metric(c0.deep_copies as f64, "count"),
        )
        .o("storage.digest_share", metric(digest_share, "ratio"))
        .o("adal.stage_ns", metric(l.stage.mean_ns(), "ns"))
        .o(
            "adal.commit_ns_per_item",
            metric(ratio(l.commit.ns as f64, l.commit_items as f64), "ns"),
        )
        .o("adal.get_us", metric(l.get.mean_ns() / 1e3, "us"))
        .o(
            "dfs.checkpoint_ms",
            metric(l.dfs_ckpt.mean_ns() / 1e6, "ms"),
        )
        .o(
            "dfs.recover_ms",
            metric(l.dfs_recover.mean_ns() / 1e6, "ms"),
        )
        .o(
            "dfs.replayed_records",
            metric(c0.dfs_replayed as f64, "count"),
        )
        .o(
            "durability.wal_appends_per_item",
            metric(per_c0_item(c0.wal_appends), "count"),
        )
        .o(
            "durability.fsyncs_per_batch",
            metric(ratio(c0.fsyncs as f64, c0.batches as f64), "count"),
        )
        .o(
            "durability.wal_bytes_per_item",
            metric(per_c0_item(c0.wal_bytes), "B"),
        )
        .o(
            "durability.checkpoints",
            metric(c0.checkpoints as f64, "count"),
        )
        .o("durability.ckpt_bytes", metric(c0.ckpt_bytes as f64, "B"))
        .o(
            "durability.ckpt_share_first_quarter",
            metric(share(false), "ratio"),
        )
        .o(
            "durability.ckpt_share_last_quarter",
            metric(share(true), "ratio"),
        )
        .o(
            "pool.busy_frac",
            metric(
                ratio(
                    l.pool_busy_ns as f64,
                    (width as u64 * l.pool_wall_ns) as f64,
                ),
                "ratio",
            ),
        )
        .o("obs.scrape_us", metric(l.scrapes.mean_ns() / 1e3, "us"))
        .o("obs.scrapes", metric(c0.scrapes as f64, "count"))
        .o("obs.series", metric(c0.series as f64, "count"))
        .o("core.unattributed_ns", metric(unattributed, "ns"))
        .o(
            "bench.trace_overhead",
            metric(ratio(traced_ns as f64, untraced_ns as f64), "ratio"),
        )
}
