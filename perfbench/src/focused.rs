//! `focused_crawl`: the paper's portal generation (Sections 2 and 5.2).
//!
//! A fixed portal world, a one-topic engine seeded from the two most
//! prolific authors' homepages plus "others" documents, a learning phase with sharp focus
//! on the seed hosts, a retrain, then a harvesting phase with periodic
//! retraining. The benchmark drives the `judge_step` + `retrain` loop
//! itself, as `BingoEngine::crawl_until` does, so that each call is
//! timed. The portal is then indexed and answers the seed's keyword
//! query stream. Single-threaded.

use crate::common::{self, CrawlCounts, Params, Queries, Report, Rounds, Size, Snap, StageTimes};
use crate::profile::{Profile, SpanTotals};
use crate::trace::Tracer;
use bingo_core::{BingoEngine, EngineConfig, EngineTelemetry, TopicId, TopicTree};
use bingo_crawler::{CrawlConfig, CrawlTelemetry, Crawler, StepOutcome};
use bingo_obs::{EventLog, Registry};
use bingo_store::DocumentStore;
use bingo_webworld::fetch::host_of_url;
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::{PageKind, World};
use serde_json::json;
use std::sync::Arc;
use std::time::Instant;

/// Sizes of one round.
struct Sizing {
    authors: usize,
    noise_scale: usize,
    learning_ms: u64,
    harvest_ms: u64,
    retrain_every: u64,
    others: usize,
    queries: usize,
    min_rounds: usize,
    /// Set-ups per round (the last one is crawled).
    setups: usize,
}

fn sizing(size: Size) -> Sizing {
    match size {
        Size::Full => Sizing {
            authors: 300,
            noise_scale: 2,
            learning_ms: 60_000,
            harvest_ms: 600_000,
            retrain_every: 400,
            others: 30,
            queries: 400,
            min_rounds: 3,
            setups: 3,
        },
        Size::Tiny => Sizing {
            authors: 60,
            noise_scale: 1,
            learning_ms: 10_000,
            harvest_ms: 25_000,
            retrain_every: 100,
            others: 10,
            queries: 30,
            min_rounds: 2,
            setups: 1,
        },
    }
}

/// Seed of the portal world. The crawl's inputs (web, bookmarks) are
/// the same for every workload seed, which draws the query stream; so
/// every seed measures the same crawl.
const WORLD_SEED: u64 = 4242;

/// Visited, stored and positively classified counts of a full-size
/// round. The crawl is the same for every seed, so one recording
/// covers every seed; after an intended behaviour change, re-record
/// them from the `notes` of a run.
const RECORDED: Counts = Counts {
    visited: 5345,
    stored: 4861,
    positive: 1246,
};

/// The counts the output check compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    visited: u64,
    stored: u64,
    positive: u64,
}

/// Add one "others" document per noise topic in turn, `n` in total.
fn populate_others(engine: &mut BingoEngine, world: &World, noise_topics: &[u32], n: usize) {
    let mut cursors = vec![0u64; noise_topics.len()];
    let mut added = 0;
    let mut turn = 0;
    while added < n {
        let k = turn % noise_topics.len();
        turn += 1;
        while (cursors[k] as usize) < world.page_count() {
            let id = cursors[k];
            cursors[k] += 1;
            if world.true_topic(id) == Some(noise_topics[k])
                && world.page(id).kind == PageKind::Content
            {
                if engine.add_others_url(world, &world.url_of(id)).is_ok() {
                    added += 1;
                }
                break;
            }
        }
        if cursors.iter().all(|&c| c as usize >= world.page_count()) {
            break;
        }
    }
}

/// Crawl until the virtual clock reaches `deadline_ms` or the frontier
/// empties, retraining after every `retrain_every` positively
/// classified stored pages (0: never).
fn crawl_phase(
    tracer: &Tracer,
    engine: &mut BingoEngine,
    crawler: &mut Crawler,
    deadline_ms: u64,
    retrain_every: u64,
) {
    let mut since_retrain = 0u64;
    while crawler.clock_ms() < deadline_ms {
        let outcome = {
            let _s = tracer.span("crawler.step");
            engine.judge_step(crawler)
        };
        match outcome {
            StepOutcome::Stored { judgment, .. } => {
                since_retrain += u64::from(judgment.topic.is_some());
            }
            StepOutcome::Skipped(_) => {}
            StepOutcome::FrontierEmpty => break,
        }
        if retrain_every > 0 && since_retrain >= retrain_every {
            since_retrain = 0;
            let _s = tracer.span("core.retrain");
            engine.retrain(crawler);
        }
    }
}

/// Run the workload.
pub fn run(params: &Params) -> Report {
    let z = sizing(params.size);
    let tracer = Tracer::new(params.trace);
    let mut report = Report::new("focused_crawl", params, 1);
    let mut samples = Rounds::default();
    let mut latencies = Vec::new();
    let mut counts: Vec<Counts> = Vec::new();
    let mut precision = 0.0;
    let mut harvest = 0.0;
    let mut stages = StageTimes::default();
    let mut totals = CrawlCounts::default();
    // Peak RSS of one round: later rounds repeat the same work.
    let mut peak_rss = 0.0;
    let started = Instant::now();
    while params.more_rounds(started, counts.len(), z.min_rounds) {
        let _round = tracer.span("round");
        let registry = Arc::new(Registry::new());
        let events = Arc::new(EventLog::default());

        // Set-up: world, seed topic, training, initial model.
        let (world, mut engine, topic, seeds) =
            common::repeat_setup(z.setups, &mut samples.setup_s, |_| {
                let world = {
                    let _s = tracer.span("webworld.build");
                    Arc::new(WorldConfig::portal(WORLD_SEED, z.authors, z.noise_scale).build())
                };
                let mut engine = BingoEngine::new(EngineConfig {
                    archetype_threshold: false,
                    ..EngineConfig::default()
                });
                let topic = engine.add_topic(TopicTree::ROOT, "database research");
                let seeds: Vec<String> = world.authors()[..2]
                    .iter()
                    .map(|a| world.url_of(a.homepage))
                    .collect();
                {
                    let _s = tracer.span("core.training_docs");
                    for url in &seeds {
                        engine
                            .add_training_url(&world, topic, url)
                            .unwrap_or_else(|e| panic!("seed {url}: {e}"));
                    }
                    populate_others(&mut engine, &world, &[3, 4, 5, 6], z.others);
                }
                {
                    let _s = tracer.span("core.train");
                    engine.train().expect("initial training");
                }
                (world, engine, topic, seeds)
            });
        engine.set_telemetry(EngineTelemetry::new(registry.clone(), events.clone()));

        // Learning phase: sharp focus inside the seed hosts.
        let t_crawl = Instant::now();
        let seed_hosts = seeds
            .iter()
            .map(|u| host_of_url(u).expect("seed host").to_string())
            .collect();
        let config = CrawlConfig {
            allowed_hosts: Some(seed_hosts),
            ..CrawlConfig::default()
        };
        let mut crawler = Crawler::new(world.clone(), config, DocumentStore::new());
        crawler.set_telemetry(CrawlTelemetry::new(registry.clone(), events.clone()));
        for url in &seeds {
            crawler.add_seed(url, Some(topic.0));
        }
        crawl_phase(&tracer, &mut engine, &mut crawler, z.learning_ms, 0);
        {
            let _s = tracer.span("core.retrain");
            engine.retrain(&mut crawler);
        }
        // Harvesting phase: soft focus, periodic retraining.
        {
            let _s = tracer.span("core.switch_phase");
            engine.switch_to_harvesting(&mut crawler);
        }
        let deadline = crawler.clock_ms() + z.harvest_ms;
        crawl_phase(
            &tracer,
            &mut engine,
            &mut crawler,
            deadline,
            z.retrain_every,
        );
        let crawl_s = t_crawl.elapsed().as_secs_f64();

        let stats = crawler.stats().clone();
        samples.phase(stats.visited_urls, stats.stored_pages, crawl_s);
        counts.push(Counts {
            visited: stats.visited_urls,
            stored: stats.stored_pages,
            positive: stats.positively_classified,
        });
        harvest = stats.stored_pages as f64 / stats.visited_urls.max(1) as f64;
        precision = topic_precision(&world, crawler.store(), topic);

        // The portal: index build and expert queries.
        let read = common::read_phase(
            &tracer,
            crawler.store(),
            params.seed,
            z.queries,
            Queries::Phrases(&engine.vocab, params.seed),
        );
        latencies.extend(read);

        let snap = Snap(registry.snapshot());
        stages.add(&StageTimes::read(&snap));
        report.failed += totals.add(&snap, crawler.stats(), &crawler.dedup_stats());
        report.attempted += stats.visited_urls + z.queries as u64;
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
    } else if params.size != Size::Full {
        report.check = Ok(format!(
            "no recorded values at this size; {} rounds agree",
            counts.len()
        ));
    } else if first != RECORDED {
        report.fail_check(format!("counts {first:?}, recorded {RECORDED:?}"));
    } else {
        report.check = Ok("counts equal the recorded values".into());
    }
    report.notes = json!({
        "round_ms": samples.round_ms,
        "visited_urls": first.visited,
        "stored_pages": first.stored,
        "positively_classified": first.positive,
        "read_samples": read.n,
        "read_tail_percentile": read.tail_pct,
        "error_rate_base": "store, dedup and vocabulary I/O errors plus quarantined URLs over visited URLs and queries",
    });

    if params.trace {
        let spans = tracer.spans();
        let t = SpanTotals::new(&spans);
        let mut p = Profile::new(t.wall_ms());
        p.add_span(&t, "webworld.build", None);
        p.add_span(&t, "core.training_docs", None);
        p.add_span(&t, "core.train", None);
        p.add_span(&t, "crawler.step", None);
        // The engine's judge runs inside the classify stage.
        stages.add_rows(
            &mut p,
            "crawler.step",
            ("core.classify", stages.classify_ms, 0),
        );
        p.add_span(&t, "core.retrain", None);
        p.add_span(&t, "core.switch_phase", None);
        p.add_span(&t, "search.index_build", None);
        p.add_span(&t, "bench.prepare", None);
        p.add_span(&t, "search.query", None);
        let rounds = report.rounds as f64;
        report.layer("webworld.build_ms", t.busy_ms("webworld.build") / rounds);
        report.layer(
            "crawler.step.calls",
            t.calls("crawler.step") as f64 / rounds,
        );
        report.layer("crawler.step.busy_ms", t.busy_ms("crawler.step") / rounds);
        report.layer("crawler.step.self_ms", p.self_ms("crawler.step") / rounds);
        stages.report(&mut report, rounds);
        report.layer("core.train.busy_ms", t.busy_ms("core.train") / rounds);
        report.layer(
            "core.retrain.calls",
            t.calls("core.retrain") as f64 / rounds,
        );
        report.layer("core.retrain.busy_ms", t.busy_ms("core.retrain") / rounds);
        report.layer(
            "search.index_build.busy_ms",
            t.busy_ms("search.index_build") / rounds,
        );
        report.layer(
            "search.query.busy_us",
            t.busy_ms("search.query") * 1e3 / rounds,
        );
        report.layer("bench.prepare_ms", t.busy_ms("bench.prepare") / rounds);
        totals.report(&mut report, rounds);
        report.layer(
            "core.classify.us_per_doc",
            stages.classify_ms * 1e3 / totals.classified().max(1) as f64,
        );
        report.profile = p;
        report.finish_layers();
        common::write_spans(&tracer, params, "focused_crawl");
    }
    report
}

/// Share of the pages classified into `topic` whose true topic is the
/// seed topic (0, the database-research community).
fn topic_precision(world: &World, store: &DocumentStore, topic: TopicId) -> f64 {
    let (mut assigned, mut correct) = (0u64, 0u64);
    store.for_each_document(|row| {
        if row.topic == Some(topic.0) {
            assigned += 1;
            correct += u64::from(world.true_topic(row.id) == Some(0));
        }
    });
    correct as f64 / assigned.max(1) as f64
}
