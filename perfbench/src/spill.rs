//! `spill_crawl`: a single-thread crawl of a lazily paged web through
//! every memory-bounding layer — the segmented store with its sparse
//! index and compaction, the spilling frontier, the spilling duplicate
//! filter and the capped term cache (the bench gate's `scale10m`
//! configuration between its smoke and full sizes). An accept-all judge
//! bypasses classification completely. The crawl drains the reachable
//! web, seals, and the stored portal is indexed and queried.

use crate::common::{self, CrawlCounts, Params, Queries, Report, Rounds, Size, Snap, StageTimes};
use crate::profile::{Profile, SpanTotals};
use crate::trace::Tracer;
use bingo_crawler::{CrawlConfig, CrawlTelemetry, Crawler, Judgment, PageContext, StepOutcome};
use bingo_obs::{EventLog, Registry};
use bingo_store::{CompactionConfig, DocumentStore, SegmentStoreConfig};
use bingo_textproc::{AnalyzedDocument, Vocabulary};
use bingo_webworld::{PagedConfig, World};
use serde_json::json;
use std::sync::Arc;
use std::time::Instant;

struct Sizing {
    hosts: u32,
    pages_per_host: u32,
    hot_blocks: usize,
    queries: usize,
    min_rounds: usize,
    /// Set-ups per round (the last one is crawled).
    setups: usize,
}

fn sizing(size: Size) -> Sizing {
    match size {
        Size::Full => Sizing {
            hosts: 200,
            pages_per_host: 25,
            hot_blocks: 64,
            queries: 24,
            min_rounds: 3,
            setups: 20,
        },
        Size::Tiny => Sizing {
            hosts: 40,
            pages_per_host: 10,
            hot_blocks: 8,
            queries: 30,
            min_rounds: 2,
            setups: 2,
        },
    }
}

/// Deterministic counts of one round; rounds must agree on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    visited: u64,
    stored: u64,
    segments: usize,
}

/// Run the workload.
pub fn run(params: &Params) -> Report {
    let z = sizing(params.size);
    let tracer = Tracer::new(params.trace);
    let mut report = Report::new("spill_crawl", params, 1);
    let mut samples = Rounds::default();
    let mut latencies = Vec::new();
    let mut counts: Vec<Counts> = Vec::new();
    let mut stages = StageTimes::default();
    let mut t = Totals::default();
    let mut crawl = CrawlCounts::default();
    // Peak RSS of one round: later rounds repeat the same work.
    let mut peak_rss = 0.0;
    let (mut harvest, mut precision) = (0.0, 0.0);
    let started = Instant::now();
    while params.more_rounds(started, counts.len(), z.min_rounds) {
        let _round = tracer.span("round");
        let scratch = params.scratch("spill_crawl", counts.len());
        let registry = Arc::new(Registry::new());
        let events = Arc::new(EventLog::default());

        // Set-up: the paged world and an empty segmented store.
        let (world, store) = common::repeat_setup(z.setups, &mut samples.setup_s, |rep| {
            let world = {
                let _s = tracer.span("webworld.build");
                Arc::new(World::paged(PagedConfig {
                    seed: params.seed,
                    hosts: z.hosts,
                    pages_per_host: z.pages_per_host,
                    hot_cap: z.hot_blocks,
                }))
            };
            let store = {
                let _s = tracer.span("store.open");
                DocumentStore::segmented_cfg(
                    scratch.join(format!("segments-{rep}")),
                    SegmentStoreConfig {
                        seal_every: 256,
                        sparse: true,
                        compaction: Some(CompactionConfig {
                            small_docs: 320,
                            min_run: 3,
                        }),
                    },
                )
                .expect("open segmented store")
            };
            (world, store)
        });

        // The crawl: drain the reachable web, then seal.
        let t_crawl = Instant::now();
        let base = CrawlConfig::default().harvesting();
        let config = CrawlConfig {
            incoming_queue_cap: 50_000,
            frontier_spill_dir: Some(scratch.join("frontier")),
            frontier_hot_cap: 64,
            dedup_spill_dir: Some(scratch.join("dedup")),
            dedup_hot_cap: 1_024,
            page_terms_cap: 2_048,
            ..base
        };
        let mut crawler = Crawler::new(world.clone(), config, store.clone());
        crawler.set_telemetry(CrawlTelemetry::new(registry.clone(), events.clone()));
        crawler.add_seed(&world.url_of(0), Some(0));
        let mut spilled_peak = 0usize;
        let mut judge = |_: &AnalyzedDocument, _: &PageContext| Judgment {
            topic: Some(0),
            confidence: 1.0,
        };
        let mut vocab = Vocabulary::new();
        loop {
            let outcome = {
                let _s = tracer.span("crawler.step");
                crawler.step(&mut judge, &mut vocab)
            };
            if outcome == StepOutcome::FrontierEmpty {
                break;
            }
            spilled_peak = spilled_peak.max(crawler.frontier_spilled_len());
        }
        let sealed = {
            let _s = tracer.span("store.seal");
            store.seal_now()
        };
        let crawl_s = t_crawl.elapsed().as_secs_f64();
        let stats = crawler.stats().clone();
        samples.phase(stats.visited_urls, stats.stored_pages, crawl_s);
        harvest = stats.stored_pages as f64 / stats.visited_urls.max(1) as f64;

        // Output check: everything stored is sealed on disk.
        let sealed_docs = store.sealed_documents() as u64;
        let workspace = store.workspace_documents();
        if let Err(e) = sealed {
            report.fail_check(format!("final seal failed: {e:?}"));
        } else if sealed_docs != stats.stored_pages || workspace != 0 {
            report.fail_check(format!(
                "sealed {sealed_docs} of {} stored pages, {workspace} left in the workspace",
                stats.stored_pages
            ));
        }
        counts.push(Counts {
            visited: stats.visited_urls,
            stored: stats.stored_pages,
            segments: store.segment_count(),
        });

        let read = common::read_phase(&tracer, &store, params.seed, z.queries, Queries::KnownItem);
        latencies.extend(read);
        precision = base_rate(&world, &store);

        let snap = Snap(registry.snapshot());
        stages.add(&StageTimes::read(&snap));
        let compaction = store.compaction_stats();
        let errors = crawl.add(&snap, crawler.stats(), &crawler.dedup_stats());
        t.spilled_peak = t.spilled_peak.max(spilled_peak as u64);
        t.blocks += world.paged_blocks_generated();
        t.segments += store.segment_count() as u64;
        t.compactions += compaction.runs;
        t.compaction_bytes += compaction.bytes_written;
        t.disk_bytes += common::dir_bytes(&scratch);
        t.stored += stats.stored_pages;
        report.attempted += stats.visited_urls + z.queries as u64;
        report.failed += errors;
        drop(crawler);
        drop(store);
        let _ = std::fs::remove_dir_all(&scratch);
        if counts.len() == 1 {
            peak_rss = common::peak_rss_mb();
        }
    }
    report.rounds = counts.len();

    samples.finish(&mut report);
    report.set("harvest_ratio", harvest);
    report.set("topic_precision", precision);
    report.set("peak_rss_mb", peak_rss);
    let read = common::set_read_metrics(&mut report, &latencies, z.min_rounds * z.queries);
    let first = counts[0];
    if let Some(other) = counts.iter().find(|c| **c != first) {
        report.fail_check(format!("rounds disagree: {first:?} vs {other:?}"));
    } else if report.check.is_ok() {
        report.check = Ok(format!(
            "every stored page sealed, workspace empty; {} rounds agree",
            counts.len()
        ));
    }
    report.notes = json!({
        "round_ms": samples.round_ms,
        "world_pages": z.hosts as u64 * z.pages_per_host as u64,
        "visited_urls": first.visited,
        "stored_pages": first.stored,
        "segments": first.segments,
        "read_samples": read.n,
        "read_tail_percentile": read.tail_pct,
        "topic_precision_meaning": "accept-all judge: share of stored pages whose true topic is the seed topic",
        "error_rate_base": "store, dedup and vocabulary I/O errors plus quarantined URLs over visited URLs and queries",
    });

    if params.trace {
        let spans = tracer.spans();
        let s = SpanTotals::new(&spans);
        let mut p = Profile::new(s.wall_ms());
        p.add_span(&s, "webworld.build", None);
        p.add_span(&s, "store.open", None);
        p.add_span(&s, "crawler.step", None);
        // The accept-all judge is the benchmark's; no classifier runs.
        stages.add_rows(&mut p, "crawler.step", ("core.classify", 0.0, 0));
        p.add_span(&s, "store.seal", None);
        p.add_span(&s, "search.index_build", None);
        p.add_span(&s, "bench.prepare", None);
        p.add_span(&s, "search.query", None);
        let r = report.rounds as f64;
        report.layer("webworld.build_ms", s.busy_ms("webworld.build") / r);
        report.layer("webworld.paged.blocks_generated", t.blocks as f64 / r);
        report.layer("crawler.step.calls", s.calls("crawler.step") as f64 / r);
        report.layer("crawler.step.busy_ms", s.busy_ms("crawler.step") / r);
        report.layer("crawler.step.self_ms", p.self_ms("crawler.step") / r);
        crawl.report(&mut report, r);
        report.layer("crawler.frontier.spilled_peak", t.spilled_peak as f64);
        stages.report(&mut report, r);
        report.layer("store.seal.busy_ms", s.busy_ms("store.seal") / r);
        report.layer("store.segments", t.segments as f64 / r);
        report.layer("store.compaction.runs", t.compactions as f64 / r);
        report.layer(
            "store.compaction.bytes_written",
            t.compaction_bytes as f64 / r,
        );
        report.layer("store.disk_bytes", t.disk_bytes as f64 / r);
        report.layer(
            "store.disk_bytes_per_doc",
            t.disk_bytes as f64 / t.stored.max(1) as f64,
        );
        report.layer(
            "search.index_build.busy_ms",
            s.busy_ms("search.index_build") / r,
        );
        report.layer("search.query.busy_us", s.busy_ms("search.query") * 1e3 / r);
        report.layer("bench.prepare_ms", s.busy_ms("bench.prepare") / r);
        report.profile = p;
        report.finish_layers();
        common::write_spans(&tracer, params, "spill_crawl");
    }
    report
}

/// Share of stored pages whose true topic is the seed topic (0): the
/// precision of an accept-all judge.
fn base_rate(world: &World, store: &DocumentStore) -> f64 {
    let (mut all, mut on_topic) = (0u64, 0u64);
    store.for_each_document(|row| {
        all += 1;
        on_topic += u64::from(world.true_topic(row.id) == Some(0));
    });
    on_topic as f64 / all.max(1) as f64
}

/// Spill-layer counters summed over rounds.
#[derive(Debug, Default)]
struct Totals {
    spilled_peak: u64,
    blocks: u64,
    segments: u64,
    compactions: u64,
    compaction_bytes: u64,
    disk_bytes: u64,
    stored: u64,
}
